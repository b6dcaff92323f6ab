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
//!
//! Each streamlet's ports are expanded once per run, into an interface
//! shared by every implementation of it, their modules and every
//! instance of them: an instance's port map is then a prefix
//! substitution over the interface's suffix lists ([`PortBinding`]),
//! not a fresh expansion. Each distinct port type is lowered to
//! physical streams once per run.
//!
//! Structural bodies are wired through the shared [`ProjectIndex`]'s
//! connectivity table: each connection's endpoints arrive as port
//! slots, the net planned for every instance port is kept in a `Vec`
//! indexed by slot, and an instance's bindings read it at the
//! instance's base slot. No endpoint name is hashed while lowering.
//!
//! Nets are lowered as bundles too: an instance-to-instance connection
//! becomes one [`NetDecl`], its legalized name plus the source port's
//! shared suffix and width lists, which the emitters expand signal by
//! signal. A net to or from an own port is that port's name, shared
//! from the IR. Net names and instance labels are built and legalized
//! in two reused buffers, so each costs the one allocation that keeps
//! it.

use crate::builtin::{BuiltinCtx, BuiltinRegistry};
use crate::error::VhdlError;
use crate::signals::{clock_signals, PortMode, PortSignals};
use crate::VhdlOptions;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use tydi_ir::index::{Connectivity, InstanceSlots, Slot};
use tydi_ir::{
    Connection, ImplId, ImplKind, Implementation, Project, ProjectIndex, Streamlet, StreamletId,
};
use tydi_rtl::names::{sanitize_into, NameAllocator};
use tydi_rtl::netlist::{
    signal_name, AssignItem, Instance, Module, ModuleBody, ModulePort, NetDecl, NetItem, Netlist,
    PortBinding, PortDir, PortItem,
};
use tydi_rtl::Backend;
use tydi_spec::{ClockDomain, LogicalType, PhysicalStream};

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
    let lowering = Lowering::new(project, index, registry, options)?;
    let modules = project
        .implementations_with_ids()
        .map(|(impl_id, implementation)| {
            let _span = tydi_obs::trace::span_named("tydi-vhdl", || {
                format!("lower:{}", implementation.name)
            });
            lowering.module(impl_id, implementation)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Netlist {
        name: project.name.clone(),
        emit_comments: options.emit_comments,
        modules,
    })
}

/// What lowering needs to know about one streamlet's interface,
/// computed once per run from its port types and directions and
/// shared by every implementation of the streamlet.
struct Interface {
    /// Clock/reset signal pairs per domain, in first-use order.
    clocks: Vec<(ClockDomain, Arc<str>, Arc<str>)>,
    /// Each port's name and signals, parallel to `streamlet.ports`.
    ports: Vec<(Arc<str>, PortSignals)>,
    /// The module port list every implementation of the streamlet
    /// declares.
    port_list: Arc<[PortItem]>,
}

impl Interface {
    /// Plans `streamlet`'s interface, lowering each port type not yet
    /// in `expansions`.
    fn new(
        streamlet: &Streamlet,
        expansions: &mut HashMap<*const LogicalType, Vec<PhysicalStream>>,
        emit_comments: bool,
    ) -> Result<Interface, VhdlError> {
        let clocks: Vec<(ClockDomain, Arc<str>, Arc<str>)> = clock_signals(streamlet)
            .into_iter()
            .map(|(domain, clk, rst)| (domain, clk.into(), rst.into()))
            .collect();
        let ports: Vec<(Arc<str>, PortSignals)> = streamlet
            .ports
            .iter()
            .map(|port| {
                let physical = match expansions.entry(Arc::as_ptr(&port.ty)) {
                    Entry::Occupied(known) => known.into_mut(),
                    Entry::Vacant(slot) => slot.insert(tydi_spec::lower(&port.ty)?),
                };
                let signals = PortSignals::new(port.direction, physical);
                Ok((Arc::clone(&port.name), signals))
            })
            .collect::<Result<_, VhdlError>>()?;
        // Clock/reset pairs per domain first, then each port's physical
        // signals behind an optional type comment.
        let mut port_list = Vec::new();
        for (_, clk, rst) in &clocks {
            for name in [clk, rst] {
                port_list.push(PortItem::Port(ModulePort {
                    name: name.to_string(),
                    dir: PortDir::In,
                    width: 1,
                }));
            }
        }
        for (port, (name, signals)) in streamlet.ports.iter().zip(&ports) {
            if emit_comments {
                port_list.push(PortItem::Comment(format!(
                    "port {} : {}",
                    port.name, port.ty
                )));
            }
            port_list.extend(signals.named(name).map(|sig| {
                PortItem::Port(ModulePort {
                    name: sig.name,
                    dir: sig.mode.into(),
                    width: sig.width,
                })
            }));
        }
        Ok(Interface {
            clocks,
            ports,
            port_list: port_list.into(),
        })
    }
}

/// One implementation's module: its name and its streamlet's
/// [`Interface`].
struct ImplPlan<'p> {
    streamlet: &'p Streamlet,
    streamlet_id: StreamletId,
    /// The emitted module name.
    module: Arc<str>,
    interface: Rc<Interface>,
}

/// One lowering run: the project and the [`ImplPlan`] of every
/// implementation, by position.
struct Lowering<'p> {
    project: &'p Project,
    index: &'p ProjectIndex,
    registry: &'p BuiltinRegistry,
    options: &'p VhdlOptions,
    plans: Vec<ImplPlan<'p>>,
    /// The interface of each streamlet with an implementation, by
    /// [`StreamletId`].
    interfaces: Vec<Option<Rc<Interface>>>,
    /// The suffix list of a binding that connects one signal by its
    /// own name (clocks and resets).
    scalar: Arc<[String]>,
}

/// One structural body's wiring, planned connection by connection.
struct Wiring {
    /// The net bound to each instance port, by slot of the body's
    /// connectivity table.
    nets: Vec<Option<Arc<str>>>,
    net_items: Vec<NetItem>,
    assign_items: Vec<AssignItem>,
    /// A net name or instance label before legalization.
    raw: String,
    /// The legalized form of `raw`.
    legal: String,
}

impl<'p> Lowering<'p> {
    fn new(
        project: &'p Project,
        index: &'p ProjectIndex,
        registry: &'p BuiltinRegistry,
        options: &'p VhdlOptions,
    ) -> Result<Self, VhdlError> {
        // Sequential: allocation order defines collision suffixes.
        let mut allocator = NameAllocator::new();
        // Ports of one type share the elaborator's canonical `Arc`, and
        // the project keeps every port type alive for the whole run, so
        // a type's address identifies it here.
        let mut expansions: HashMap<*const LogicalType, Vec<PhysicalStream>> = HashMap::new();
        let mut interfaces: Vec<Option<Rc<Interface>>> = vec![None; project.streamlets().len()];
        let plans: Vec<ImplPlan<'p>> = project
            .implementations_with_ids()
            .map(|(id, implementation)| {
                let streamlet_id = index.streamlet_of_impl(id).ok_or_else(|| {
                    VhdlError::Inconsistent(format!(
                        "implementation `{}` references missing streamlet `{}`",
                        implementation.name, implementation.streamlet
                    ))
                })?;
                let streamlet = project.streamlet_by_id(streamlet_id);
                let interface = match &interfaces[streamlet_id.index()] {
                    Some(known) => Rc::clone(known),
                    None => {
                        let interface = Rc::new(Interface::new(
                            streamlet,
                            &mut expansions,
                            options.emit_comments,
                        )?);
                        interfaces[streamlet_id.index()] = Some(Rc::clone(&interface));
                        interface
                    }
                };
                Ok(ImplPlan {
                    streamlet,
                    streamlet_id,
                    module: allocator.allocate(&implementation.name).into(),
                    interface,
                })
            })
            .collect::<Result<_, VhdlError>>()?;
        Ok(Lowering {
            project,
            index,
            registry,
            options,
            plans,
            interfaces,
            scalar: Arc::new([String::new()]),
        })
    }

    fn module(
        &self,
        impl_id: ImplId,
        implementation: &'p Implementation,
    ) -> Result<Module, VhdlError> {
        let plan = &self.plans[impl_id.index()];
        let mut header = Vec::new();
        if self.options.emit_comments {
            header.push(format!("Implementation: {}", implementation.name));
            if !implementation.doc.is_empty() {
                header.extend(implementation.doc.lines().map(str::to_string));
            }
        }
        Ok(Module {
            name: plan.module.to_string(),
            header,
            ports: Arc::clone(&plan.interface.port_list),
            body: self.body(impl_id, implementation, plan)?,
        })
    }

    fn body(
        &self,
        impl_id: ImplId,
        implementation: &'p Implementation,
        plan: &ImplPlan<'p>,
    ) -> Result<ModuleBody, VhdlError> {
        match &implementation.kind {
            ImplKind::External {
                builtin,
                sim_source,
            } => match builtin {
                Some(key) => {
                    let ctx = BuiltinCtx::new(self.project, plan.streamlet, implementation);
                    let backends = self.registry.backends_for(key);
                    if backends.is_empty() {
                        return Err(VhdlError::UnknownBuiltin {
                            implementation: implementation.name.clone(),
                            key: key.clone(),
                        });
                    }
                    let mut bodies = std::collections::BTreeMap::new();
                    for backend in backends {
                        bodies.insert(
                            backend,
                            self.registry.generate_for(backend, key, &ctx)?.into(),
                        );
                    }
                    Ok(ModuleBody::Behavioral { bodies })
                }
                None => {
                    let mut comments = Vec::new();
                    if self.options.emit_comments {
                        comments.push(
                            "External implementation: body supplied by an external tool.".into(),
                        );
                        if sim_source.is_some() {
                            comments.push(
                                "Behaviour is specified by Tydi-lang simulation code.".into(),
                            );
                        }
                    }
                    Ok(ModuleBody::BlackBox { comments })
                }
            },
            ImplKind::Normal {
                instances,
                connections,
            } => {
                let connectivity = self.index.connectivity(impl_id);
                let children = instances
                    .iter()
                    .enumerate()
                    .map(|(position, instance)| {
                        connectivity
                            .implementation(position)
                            .map(|child_id| &self.plans[child_id.index()])
                            .ok_or_else(|| {
                                VhdlError::Inconsistent(format!(
                                    "instance `{}` references missing implementation `{}`",
                                    instance.name, instance.impl_name
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let mut wiring = Wiring {
                    nets: vec![None; connectivity.slot_count()],
                    net_items: Vec::new(),
                    assign_items: Vec::new(),
                    raw: String::new(),
                    legal: String::new(),
                };
                for (position, connection) in connections.iter().enumerate() {
                    self.plan_connection(
                        impl_id,
                        plan,
                        connectivity,
                        position,
                        connection,
                        &mut wiring,
                    )?;
                }
                let instances = instances
                    .iter()
                    .zip(children)
                    .enumerate()
                    .map(|(position, (instance, child))| {
                        let slots = connectivity.instance(position);
                        self.instance(plan, instance, child, slots, &mut wiring)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ModuleBody::Structural {
                    nets: wiring.net_items,
                    assigns: wiring.assign_items,
                    instances,
                })
            }
        }
    }

    /// Decides the net name for one connection, emitting intermediate
    /// net declarations and own-to-own assignments as needed.
    fn plan_connection(
        &self,
        impl_id: ImplId,
        plan: &ImplPlan<'_>,
        connectivity: &Connectivity,
        position: usize,
        connection: &Connection,
        wiring: &mut Wiring,
    ) -> Result<(), VhdlError> {
        let (source, sink) = (&connection.source, &connection.sink);
        let slots = connectivity.connection(position);
        match (source.instance.as_deref(), sink.instance.as_deref()) {
            (None, None) => {
                // Feed-through: direct concurrent assignments.
                let src = self.own_signals(plan, slots.source, &source.port)?;
                let dst = self.own_signals(plan, slots.sink, &sink.port)?;
                if self.options.emit_comments {
                    wiring
                        .assign_items
                        .push(AssignItem::Comment(connection.describe()));
                }
                let pairs = src.suffixes.iter().zip(&src.modes).zip(dst.suffixes.iter());
                for ((src_suffix, &mode), dst_suffix) in pairs {
                    let from = signal_name(&source.port, src_suffix);
                    let to = signal_name(&sink.port, dst_suffix);
                    let (target, driver) = match mode {
                        PortMode::In => (to, from),
                        PortMode::Out => (from, to),
                    };
                    wiring.assign_items.push(AssignItem::Assign {
                        target,
                        source: driver,
                    });
                }
            }
            (None, Some(_)) => wiring.bind(slots.sink, Arc::clone(&source.port)),
            (Some(_), None) => wiring.bind(slots.source, Arc::clone(&sink.port)),
            (Some(src_instance), Some(_)) => {
                let slot = slots.source.ok_or_else(|| {
                    let missing = match self.index.instance_position(impl_id, src_instance) {
                        None => format!("missing instance `{src_instance}`"),
                        Some(_) => format!("missing port `{}`", source.port),
                    };
                    VhdlError::Inconsistent(missing)
                })?;
                let (streamlet, port) = connectivity.port_of(slot);
                let interface = self.interfaces[streamlet.index()]
                    .as_ref()
                    .expect("an instance's streamlet has an implementation");
                let signals = &interface.ports[port].1;
                let _ = write!(wiring.raw, "n{position}_{src_instance}_{}", source.port);
                let net: Arc<str> = wiring.legalize().into();
                if self.options.emit_comments {
                    wiring
                        .net_items
                        .push(NetItem::Comment(connection.describe()));
                }
                wiring.net_items.push(NetItem::Net(NetDecl {
                    prefix: Arc::clone(&net),
                    suffixes: Arc::clone(&signals.suffixes),
                    widths: Arc::clone(&signals.widths),
                }));
                wiring.bind(slots.source, Arc::clone(&net));
                wiring.bind(slots.sink, net);
            }
        }
        Ok(())
    }

    /// One instance of `child` inside `parent`: its clocks bound to the
    /// parent's clocks of the same domain, and each port's suffix list
    /// bound from the port name to its planned net.
    fn instance(
        &self,
        parent: &ImplPlan<'_>,
        instance: &tydi_ir::Instance,
        child: &ImplPlan<'_>,
        slots: Option<InstanceSlots>,
        wiring: &mut Wiring,
    ) -> Result<Instance, VhdlError> {
        let (parent, interface) = (&parent.interface, &child.interface);
        let mut bindings = Vec::with_capacity(2 * interface.clocks.len() + interface.ports.len());
        for (domain, clk, rst) in &interface.clocks {
            let (pclk, prst) = parent
                .clocks
                .iter()
                .find(|(d, _, _)| d == domain)
                .map_or_else(
                    || ("clk".into(), "rst".into()),
                    |(_, c, r)| (Arc::clone(c), Arc::clone(r)),
                );
            for (formal, actual) in [(clk, pclk), (rst, prst)] {
                bindings.push(PortBinding {
                    formal: Arc::clone(formal),
                    actual,
                    suffixes: Arc::clone(&self.scalar),
                });
            }
        }
        // A repeated instance name shares its first declaration's
        // slots, which only line up with this child's ports when both
        // realize the same streamlet.
        let slots = slots.filter(|slots| slots.streamlet == child.streamlet_id);
        for (position, (name, signals)) in interface.ports.iter().enumerate() {
            let net = slots
                .and_then(|slots| {
                    let slot = slots.base as usize
                        + self.index.canonical_port(child.streamlet_id, position);
                    wiring.nets[slot].as_ref()
                })
                .ok_or_else(|| {
                    VhdlError::Inconsistent(format!(
                        "no net planned for endpoint `{}.{name}` (port usage DRC should have caught this)",
                        instance.name
                    ))
                })?;
            bindings.push(PortBinding {
                formal: Arc::clone(name),
                actual: Arc::clone(net),
                suffixes: Arc::clone(&signals.suffixes),
            });
        }
        wiring.raw.push_str("u_");
        wiring.raw.push_str(&instance.name);
        Ok(Instance {
            label: wiring.legalize().to_string(),
            module: Arc::clone(&child.module),
            bindings,
        })
    }

    /// The signals of an own port of a planned implementation, by its
    /// resolved slot.
    fn own_signals<'a>(
        &self,
        plan: &'a ImplPlan<'_>,
        slot: Option<Slot>,
        port: &str,
    ) -> Result<&'a PortSignals, VhdlError> {
        slot.map(|slot| &plan.interface.ports[slot as usize].1)
            .ok_or_else(|| VhdlError::Inconsistent(format!("missing port `{port}`")))
    }
}

impl Wiring {
    /// Binds the instance port at `slot` to `net`; unresolved
    /// endpoints bind nothing (the port usage DRC reports them).
    fn bind(&mut self, slot: Option<Slot>, net: Arc<str>) {
        if let Some(slot) = slot {
            self.nets[slot as usize] = Some(net);
        }
    }

    /// The legalized form of the name written into `raw`, which is
    /// left empty for the next one.
    fn legalize(&mut self) -> &str {
        self.legal.clear();
        sanitize_into(&mut self.legal, &self.raw);
        self.raw.clear();
        &self.legal
    }
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
pub(crate) mod tests {
    use super::*;
    use tydi_ir::{EndpointRef, Instance as IrInstance, Port, PortDirection};
    use tydi_spec::{Direction, LogicalType, StreamParams};

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

    /// A port type that lowers to two physical streams: a group whose
    /// `resp` field is a `Reverse` stream.
    fn request_response() -> LogicalType {
        let resp = LogicalType::stream(
            LogicalType::Bit(8),
            StreamParams::new().with_direction(Direction::Reverse),
        );
        LogicalType::stream(
            LogicalType::group(vec![("q", LogicalType::Bit(4)), ("resp", resp)]),
            StreamParams::new(),
        )
    }

    /// `leaf_i` instantiated twice over [`request_response`] ports:
    /// own-to-instance (`i => a.i`), instance-to-instance
    /// (`a.o => b.i`), instance-to-own (`b.o => o`) and a feed-through
    /// (`fi => fo`).
    pub(crate) fn nested_project() -> Project {
        let port = |name: &str, direction| Port::new(name, direction, request_response());
        let mut p = Project::new("nested");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(port("i", PortDirection::In))
                .with_port(port("o", PortDirection::Out)),
        )
        .unwrap();
        p.add_streamlet(
            Streamlet::new("top_s")
                .with_port(port("i", PortDirection::In))
                .with_port(port("o", PortDirection::Out))
                .with_port(port("fi", PortDirection::In))
                .with_port(port("fo", PortDirection::Out)),
        )
        .unwrap();
        p.add_implementation(Implementation::external("leaf_i", "pass_s"))
            .unwrap();
        let mut top = Implementation::normal("top_i", "top_s");
        top.add_instance(IrInstance::new("a", "leaf_i"));
        top.add_instance(IrInstance::new("b", "leaf_i"));
        for (source, sink) in [
            (EndpointRef::own("i"), EndpointRef::instance("a", "i")),
            (
                EndpointRef::instance("a", "o"),
                EndpointRef::instance("b", "i"),
            ),
            (EndpointRef::instance("b", "o"), EndpointRef::own("o")),
            (EndpointRef::own("fi"), EndpointRef::own("fo")),
        ] {
            top.add_connection(Connection::new(source, sink));
        }
        p.add_implementation(top).unwrap();
        p
    }

    /// Every declared net signal's name, bundles expanded in order.
    fn net_signal_names(nets: &[NetItem]) -> Vec<String> {
        nets.iter()
            .filter_map(|n| match n {
                NetItem::Net(net) => Some(net),
                NetItem::Comment(_) => None,
            })
            .flat_map(|net| {
                net.signals()
                    .map(|(suffix, _)| signal_name(&net.prefix, suffix))
            })
            .collect()
    }

    #[test]
    fn instances_bind_shared_suffixes_by_prefix() {
        let p = nested_project();
        let netlist =
            lower_project(&p, &BuiltinRegistry::with_core(), &VhdlOptions::default()).unwrap();
        let ModuleBody::Structural {
            nets, instances, ..
        } = &netlist.module("top_i").unwrap().body
        else {
            panic!("expected structural body");
        };
        let net_names = net_signal_names(nets);
        assert_eq!(
            net_names,
            [
                "n1_a_o_valid",
                "n1_a_o_ready",
                "n1_a_o_data",
                "n1_a_o_resp_valid",
                "n1_a_o_resp_ready",
                "n1_a_o_resp_data"
            ]
        );
        let prefixes = |k: usize| -> Vec<(&str, &str)> {
            instances[k]
                .bindings
                .iter()
                .map(|b| (&*b.formal, &*b.actual))
                .collect()
        };
        let clocks = [("clk", "clk"), ("rst", "rst")];
        assert_eq!(
            prefixes(0),
            [clocks[0], clocks[1], ("i", "i"), ("o", "n1_a_o")]
        );
        assert_eq!(
            prefixes(1),
            [clocks[0], clocks[1], ("i", "n1_a_o"), ("o", "o")]
        );
        let suffixes = [
            "valid",
            "ready",
            "data",
            "resp_valid",
            "resp_ready",
            "resp_data",
        ];
        for instance in instances {
            assert_eq!(&*instance.bindings[0].suffixes, [""]);
            assert_eq!(&*instance.bindings[2].suffixes, suffixes);
        }
        // Every instance of `leaf_i` shares its port's suffix list.
        assert!(Arc::ptr_eq(
            &instances[0].bindings[3].suffixes,
            &instances[1].bindings[3].suffixes
        ));
        let map_b = port_map(&instances[1]);
        assert_eq!(map_b[2], ("i_valid".into(), "n1_a_o_valid".into()));
        assert_eq!(map_b[13], ("o_resp_data".into(), "o_resp_data".into()));
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
        let net_names = net_signal_names(nets);
        assert_eq!(
            net_names,
            vec!["n1_a_o_valid", "n1_a_o_ready", "n1_a_o_data"]
        );
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].label, "u_a");
        assert_eq!(&*instances[0].module, "leaf_i");
        // The net bundle shares the source port's suffix list.
        let NetItem::Net(net) = &nets[1] else {
            panic!("expected the net after its comment");
        };
        assert!(Arc::ptr_eq(
            &net.suffixes,
            &instances[0].bindings[3].suffixes
        ));
        // clk/rst first, then the expanded port signals.
        let map_a = port_map(&instances[0]);
        assert_eq!(map_a[0], ("clk".into(), "clk".into()));
        assert!(map_a.contains(&("o_valid".into(), "n1_a_o_valid".into())));
        assert!(port_map(&instances[1]).contains(&("i_valid".into(), "n1_a_o_valid".into())));
        // Both instances share the child's suffix lists.
        assert!(Arc::ptr_eq(
            &instances[0].bindings[2].suffixes,
            &instances[1].bindings[2].suffixes
        ));
    }

    /// An instance's `(formal, actual)` signal pairs.
    fn port_map(instance: &Instance) -> Vec<(String, String)> {
        instance
            .signals()
            .map(|(formal, actual, suffix)| {
                (signal_name(formal, suffix), signal_name(actual, suffix))
            })
            .collect()
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
