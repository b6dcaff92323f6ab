//! Lowering Tydi-IR to the backend-neutral netlist.
//!
//! This is the single structural step every backend shares: each
//! Tydi-IR implementation becomes one [`tydi_rtl::Module`] whose ports
//! are the expanded physical-stream signals of its streamlet
//! (via [`crate::signals`]), whose name is legalized for every backend
//! at once (via [`tydi_rtl::names`]), and whose body is structural
//! wiring, a per-backend behavioral block from the
//! [`crate::builtin::BuiltinRegistry`], or a black box. Emitters only
//! render; they never consult Tydi-IR.

use crate::builtin::{BuiltinCtx, BuiltinRegistry};
use crate::error::VhdlError;
use crate::signals::{clock_signals, expand_port, expand_port_as, PortMode};
use crate::VhdlOptions;
use std::collections::HashMap;
use tydi_ir::{
    Connection, EndpointRef, ImplId, ImplKind, Implementation, Project, ProjectIndex, Streamlet,
};
use tydi_rtl::names::{sanitize, NameAllocator};
use tydi_rtl::netlist::{
    AssignItem, Instance, Module, ModuleBody, ModulePort, NetDecl, NetItem, Netlist, PortDir,
    PortItem,
};
use tydi_rtl::Backend;

impl From<PortMode> for PortDir {
    fn from(mode: PortMode) -> Self {
        match mode {
            PortMode::In => PortDir::In,
            PortMode::Out => PortDir::Out,
        }
    }
}

/// Lowers a validated project to the netlist, once, for all backends,
/// building a fresh [`ProjectIndex`] for this run.
pub fn lower_project(
    project: &Project,
    registry: &BuiltinRegistry,
    options: &VhdlOptions,
) -> Result<Netlist, VhdlError> {
    lower_project_with(project, &ProjectIndex::build(project), registry, options)
}

/// Like [`lower_project`], but resolving every streamlet, instance
/// and port reference through the pipeline's shared [`ProjectIndex`]
/// instead of rebuilding per-pass lookup maps.
pub fn lower_project_with(
    project: &Project,
    index: &ProjectIndex,
    registry: &BuiltinRegistry,
    options: &VhdlOptions,
) -> Result<Netlist, VhdlError> {
    if options.validate {
        project
            .validate_with(index)
            .map_err(VhdlError::InvalidProject)?;
    }
    let module_names = allocate_module_names(project);

    let modules = project
        .implementations_with_ids()
        .map(|(impl_id, implementation)| {
            let _span = tydi_obs::trace::span_named("tydi-vhdl", || {
                format!("lower:{}", implementation.name)
            });
            lower_implementation(
                project,
                index,
                registry,
                &module_names,
                impl_id,
                implementation,
                options,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Netlist {
        name: project.name.clone(),
        emit_comments: options.emit_comments,
        modules,
    })
}

/// Allocates stable, unique module names for every implementation
/// (sequential: allocation order defines collision suffixes).
fn allocate_module_names(project: &Project) -> HashMap<&str, String> {
    let mut allocator = NameAllocator::new();
    let mut module_names: HashMap<&str, String> = HashMap::new();
    for implementation in project.implementations() {
        module_names.insert(
            implementation.name.as_str(),
            allocator.allocate(&implementation.name),
        );
    }
    module_names
}

fn lower_implementation(
    project: &Project,
    index: &ProjectIndex,
    registry: &BuiltinRegistry,
    module_names: &HashMap<&str, String>,
    impl_id: ImplId,
    implementation: &Implementation,
    options: &VhdlOptions,
) -> Result<Module, VhdlError> {
    let streamlet = index
        .streamlet_of_impl(impl_id)
        .map(|sid| project.streamlet_by_id(sid))
        .ok_or_else(|| {
            VhdlError::Inconsistent(format!(
                "implementation `{}` references missing streamlet `{}`",
                implementation.name, implementation.streamlet
            ))
        })?;
    let name = module_names[implementation.name.as_str()].clone();

    let mut header = Vec::new();
    if options.emit_comments {
        header.push(format!("Implementation: {}", implementation.name));
        if !implementation.doc.is_empty() {
            header.extend(implementation.doc.lines().map(str::to_string));
        }
    }

    let ports = lower_ports(streamlet, options)?;
    let body = lower_body(
        project,
        index,
        registry,
        module_names,
        impl_id,
        implementation,
        streamlet,
        options,
    )?;
    Ok(Module {
        name,
        header,
        ports,
        body,
    })
}

/// Expands a streamlet's typed ports into the module port list:
/// clock/reset pairs per domain first, then each port's physical
/// signals behind an optional type comment.
fn lower_ports(streamlet: &Streamlet, options: &VhdlOptions) -> Result<Vec<PortItem>, VhdlError> {
    let mut items = Vec::new();
    for (_, clk, rst) in clock_signals(streamlet) {
        items.push(PortItem::Port(ModulePort {
            name: clk,
            dir: PortDir::In,
            width: 1,
        }));
        items.push(PortItem::Port(ModulePort {
            name: rst,
            dir: PortDir::In,
            width: 1,
        }));
    }
    for port in &streamlet.ports {
        if options.emit_comments {
            items.push(PortItem::Comment(format!(
                "port {} : {}",
                port.name, port.ty
            )));
        }
        for sig in expand_port(port)? {
            items.push(PortItem::Port(ModulePort {
                name: sig.name,
                dir: sig.mode.into(),
                width: sig.width,
            }));
        }
    }
    Ok(items)
}

#[allow(clippy::too_many_arguments)]
fn lower_body(
    project: &Project,
    index: &ProjectIndex,
    registry: &BuiltinRegistry,
    module_names: &HashMap<&str, String>,
    impl_id: ImplId,
    implementation: &Implementation,
    streamlet: &Streamlet,
    options: &VhdlOptions,
) -> Result<ModuleBody, VhdlError> {
    match &implementation.kind {
        ImplKind::External {
            builtin,
            sim_source,
        } => match builtin {
            Some(key) => {
                let ctx = BuiltinCtx {
                    project,
                    streamlet,
                    implementation,
                };
                let backends = registry.backends_for(key);
                if backends.is_empty() {
                    return Err(VhdlError::UnknownBuiltin {
                        implementation: implementation.name.clone(),
                        key: key.clone(),
                    });
                }
                let mut bodies = std::collections::BTreeMap::new();
                for backend in backends {
                    bodies.insert(backend, registry.generate_for(backend, key, &ctx)?.into());
                }
                Ok(ModuleBody::Behavioral { bodies })
            }
            None => {
                let mut comments = Vec::new();
                if options.emit_comments {
                    comments
                        .push("External implementation: body supplied by an external tool.".into());
                    if sim_source.is_some() {
                        comments
                            .push("Behaviour is specified by Tydi-lang simulation code.".into());
                    }
                }
                Ok(ModuleBody::BlackBox { comments })
            }
        },
        ImplKind::Normal {
            instances,
            connections,
        } => {
            // Net prefix for every endpoint, per the exactly-once DRC.
            let mut nets: HashMap<&EndpointRef, String> = HashMap::new();
            let mut net_items: Vec<NetItem> = Vec::new();
            let mut assign_items: Vec<AssignItem> = Vec::new();
            for (position, connection) in connections.iter().enumerate() {
                plan_connection(
                    project,
                    index,
                    impl_id,
                    streamlet,
                    position,
                    connection,
                    &mut nets,
                    &mut net_items,
                    &mut assign_items,
                    options,
                )?;
            }

            let mut lowered = Vec::with_capacity(instances.len());
            let parent_clocks = clock_signals(streamlet);
            for instance in instances {
                let child_id = project
                    .implementation_id(&instance.impl_name)
                    .ok_or_else(|| {
                        VhdlError::Inconsistent(format!(
                            "instance `{}` references missing implementation `{}`",
                            instance.name, instance.impl_name
                        ))
                    })?;
                let child_impl = project.implementation_by_id(child_id);
                let child_streamlet = index
                    .streamlet_of_impl(child_id)
                    .map(|sid| project.streamlet_by_id(sid))
                    .ok_or_else(|| {
                        VhdlError::Inconsistent(format!(
                            "implementation `{}` references missing streamlet `{}`",
                            child_impl.name, child_impl.streamlet
                        ))
                    })?;
                let child_module = module_names
                    .get(instance.impl_name.as_str())
                    .cloned()
                    .unwrap_or_else(|| sanitize(&instance.impl_name));
                let label = sanitize(&format!("u_{}", instance.name));
                let mut port_map: Vec<(String, String)> = Vec::new();
                for (domain, clk, rst) in clock_signals(child_streamlet) {
                    let (pclk, prst) = parent_clocks
                        .iter()
                        .find(|(d, _, _)| *d == domain)
                        .map(|(_, c, r)| (c.clone(), r.clone()))
                        .unwrap_or_else(|| ("clk".to_string(), "rst".to_string()));
                    port_map.push((clk, pclk));
                    port_map.push((rst, prst));
                }
                for port in &child_streamlet.ports {
                    let endpoint = EndpointRef::instance(instance.name.clone(), port.name.clone());
                    let net = nets.get(&endpoint).cloned().ok_or_else(|| {
                        VhdlError::Inconsistent(format!(
                            "no net planned for endpoint `{endpoint}` (port usage DRC should have caught this)"
                        ))
                    })?;
                    let child_sigs = expand_port(port)?;
                    let net_sigs = expand_port_as(port, &net)?;
                    for (child, netsig) in child_sigs.into_iter().zip(net_sigs) {
                        port_map.push((child.name, netsig.name));
                    }
                }
                lowered.push(Instance {
                    label,
                    module: child_module,
                    port_map,
                });
            }
            Ok(ModuleBody::Structural {
                nets: net_items,
                assigns: assign_items,
                instances: lowered,
            })
        }
    }
}

/// Decides the net name for one connection, emitting intermediate
/// net declarations and own-to-own assignments as needed.
#[allow(clippy::too_many_arguments)]
fn plan_connection<'c>(
    project: &Project,
    index: &ProjectIndex,
    impl_id: ImplId,
    streamlet: &Streamlet,
    position: usize,
    connection: &'c Connection,
    nets: &mut HashMap<&'c EndpointRef, String>,
    net_items: &mut Vec<NetItem>,
    assign_items: &mut Vec<AssignItem>,
    options: &VhdlOptions,
) -> Result<(), VhdlError> {
    let src_own = connection.source.instance.is_none();
    let sink_own = connection.sink.instance.is_none();
    match (src_own, sink_own) {
        (true, true) => {
            // Feed-through: direct concurrent assignments.
            let src_port = streamlet.port(&connection.source.port).ok_or_else(|| {
                VhdlError::Inconsistent(format!("missing port `{}`", connection.source.port))
            })?;
            let sink_port = streamlet.port(&connection.sink.port).ok_or_else(|| {
                VhdlError::Inconsistent(format!("missing port `{}`", connection.sink.port))
            })?;
            if options.emit_comments {
                assign_items.push(AssignItem::Comment(connection.describe()));
            }
            let src_sigs = expand_port(src_port)?;
            let sink_sigs = expand_port(sink_port)?;
            for (si, so) in src_sigs.iter().zip(sink_sigs.iter()) {
                let (target, source) = match si.mode {
                    PortMode::In => (so.name.clone(), si.name.clone()),
                    PortMode::Out => (si.name.clone(), so.name.clone()),
                };
                assign_items.push(AssignItem::Assign { target, source });
            }
        }
        (true, false) => {
            nets.insert(&connection.sink, connection.source.port.clone());
        }
        (false, true) => {
            nets.insert(&connection.source, connection.sink.port.clone());
        }
        (false, false) => {
            let src_port = instance_port(project, index, impl_id, &connection.source)?;
            let net = sanitize(&format!(
                "n{position}_{}_{}",
                connection.source.instance.as_deref().unwrap_or(""),
                connection.source.port
            ));
            if options.emit_comments {
                net_items.push(NetItem::Comment(connection.describe()));
            }
            for sig in expand_port_as(src_port, &net)? {
                net_items.push(NetItem::Net(NetDecl {
                    name: sig.name,
                    width: sig.width,
                }));
            }
            nets.insert(&connection.source, net.clone());
            nets.insert(&connection.sink, net);
        }
    }
    Ok(())
}

fn instance_port<'p>(
    project: &'p Project,
    index: &ProjectIndex,
    impl_id: ImplId,
    endpoint: &EndpointRef,
) -> Result<&'p tydi_ir::Port, VhdlError> {
    let instance_name = endpoint
        .instance
        .as_deref()
        .ok_or_else(|| VhdlError::Inconsistent("expected an instance endpoint".to_string()))?;
    let instance = index
        .instance(project, impl_id, instance_name)
        .ok_or_else(|| VhdlError::Inconsistent(format!("missing instance `{instance_name}`")))?;
    let sid = index
        .streamlet_of_impl_name(project, &instance.impl_name)
        .ok_or_else(|| {
            VhdlError::Inconsistent(format!(
                "missing streamlet for implementation `{}`",
                instance.impl_name
            ))
        })?;
    index
        .port(project, sid, &endpoint.port)
        .ok_or_else(|| VhdlError::Inconsistent(format!("missing port `{}`", endpoint.port)))
}

/// True when a backend can render every module of the netlist (i.e.
/// no behavioral module lacks a body for it).
pub fn backend_is_complete(netlist: &Netlist, backend: Backend) -> bool {
    netlist.modules.iter().all(|m| match &m.body {
        ModuleBody::Behavioral { bodies } => bodies.contains_key(&backend),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_ir::{Instance as IrInstance, Port, PortDirection};
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    fn chain_project() -> Project {
        let mut p = Project::new("chain");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("leaf_i", "pass_s").with_builtin("std.passthrough"),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(IrInstance::new("a", "leaf_i"));
        top.add_instance(IrInstance::new("b", "leaf_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("a", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("a", "o"),
            EndpointRef::instance("b", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("b", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        p
    }

    #[test]
    fn lowers_one_module_per_implementation_in_order() {
        let p = chain_project();
        let netlist =
            lower_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let names: Vec<&str> = netlist.modules.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["leaf_i", "top_i"]);
    }

    #[test]
    fn behavioral_module_carries_a_body_per_backend() {
        let p = chain_project();
        let netlist =
            lower_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let leaf = netlist.module("leaf_i").unwrap();
        let ModuleBody::Behavioral { bodies } = &leaf.body else {
            panic!("expected behavioral body");
        };
        assert_eq!(bodies.len(), Backend::ALL.len());
        assert!(bodies[&Backend::Vhdl].stmts.contains("o_data <= i_data;"));
        assert!(bodies[&Backend::SystemVerilog]
            .stmts
            .contains("assign o_data = i_data;"));
        for backend in Backend::ALL {
            assert!(backend_is_complete(&netlist, backend));
        }
    }

    #[test]
    fn structural_module_plans_nets_and_port_maps() {
        let p = chain_project();
        let netlist =
            lower_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let top = netlist.module("top_i").unwrap();
        let ModuleBody::Structural {
            nets, instances, ..
        } = &top.body
        else {
            panic!("expected structural body");
        };
        // One intermediate bundle for the instance-to-instance hop.
        let net_names: Vec<&str> = nets
            .iter()
            .filter_map(|n| match n {
                NetItem::Net(d) => Some(d.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            net_names,
            vec!["n1_a_o_valid", "n1_a_o_ready", "n1_a_o_data"]
        );
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].label, "u_a");
        assert_eq!(instances[0].module, "leaf_i");
        // clk/rst first, then the expanded port signals.
        assert_eq!(instances[0].port_map[0], ("clk".into(), "clk".into()));
        assert!(instances[0]
            .port_map
            .contains(&("o_valid".into(), "n1_a_o_valid".into())));
        assert!(instances[1]
            .port_map
            .contains(&("i_valid".into(), "n1_a_o_valid".into())));
    }

    #[test]
    fn comments_are_omitted_when_disabled() {
        let p = chain_project();
        let opts = VhdlOptions {
            emit_comments: false,
            validate: true,
        };
        let netlist = lower_project(&p, &BuiltinRegistry::with_core(), &opts).unwrap();
        assert!(!netlist.emit_comments);
        for module in &netlist.modules {
            assert!(module.header.is_empty());
            assert!(!module
                .ports
                .iter()
                .any(|i| matches!(i, PortItem::Comment(_))));
        }
    }

    #[test]
    fn unknown_builtin_fails_lowering() {
        let mut p = Project::new("x");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(Implementation::external("e_i", "s").with_builtin("std.not_a_thing"))
            .unwrap();
        let err = lower_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default());
        assert!(matches!(err, Err(VhdlError::UnknownBuiltin { .. })));
    }

    #[test]
    fn partially_registered_builtin_lowers_but_is_incomplete() {
        let registry = BuiltinRegistry::new();
        registry.register("x.vhdl_only", |_| Ok(crate::builtin::ArchBody::default()));
        let mut p = Project::new("x");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(Implementation::external("e_i", "s").with_builtin("x.vhdl_only"))
            .unwrap();
        let options = VhdlOptions {
            emit_comments: true,
            validate: false, // ports are unused; skip the usage DRC
        };
        let netlist = lower_project(&p, &registry, &options).unwrap();
        assert!(backend_is_complete(&netlist, Backend::Vhdl));
        assert!(!backend_is_complete(&netlist, Backend::SystemVerilog));
    }
}
