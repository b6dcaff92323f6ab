//! Sugaring: automatic duplicator and voider insertion (paper §IV-D,
//! Fig. 4).
//!
//! The Tydi handshake requires every port to be connected exactly
//! once. Software-style designs naturally fan a value out to several
//! consumers and ignore outputs they don't need, so the compiler
//! releases the restriction by rewriting the design:
//!
//! * an internal data *source* (an own `in` port or an instance `out`
//!   port) connected to N > 1 sinks gets a **duplicator** with N
//!   outputs spliced in, its logical type and output count inferred;
//! * an internal source that is never used gets a **voider**, a
//!   component that is always ready and drops the data.
//!
//! Inserted components are external implementations bound to the
//! `std.duplicator` / `std.voider` builtin RTL generators and are
//! flagged `inserted_by_sugar` so reports can separate user code from
//! inferred code.
//!
//! The pass works on the shared [`ProjectIndex`]'s connectivity table
//! rather than on endpoint names: it counts the reads of each source
//! in a `Vec` indexed by port slot, and keeps the table current as it
//! splices helpers in (new instances, appended feed connections and
//! rewritten sources are recorded slot by slot), so no implementation
//! is re-resolved afterwards. A rewritten connection keeps its
//! position, which is how a DRC finding on it still points at the
//! user's source line.

use std::collections::HashMap;
use std::sync::Arc;
use tydi_ir::index::{ConnectionSlots, Slot};
use tydi_ir::{
    Connection, EndpointRef, ImplId, ImplKind, Implementation, Instance, Port, PortDirection,
    Project, ProjectIndex, Streamlet, StreamletId,
};

/// What the sugaring pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SugarReport {
    /// Duplicators inserted.
    pub duplicators: usize,
    /// Voiders inserted.
    pub voiders: usize,
}

/// A helper instance spliced into an implementation: its name and the
/// base slot of its ports, laid out as built by [`ensure_voider`] and
/// [`ensure_duplicator`] — input `i` first, then a duplicator's
/// outputs `o_0`, `o_1`, ….
struct Helper {
    name: Arc<str>,
    base: Slot,
}

impl Helper {
    fn input(&self) -> Slot {
        self.base
    }

    fn output(&self, k: usize) -> Slot {
        self.base + 1 + k as Slot
    }
}

/// An internal source endpoint that needs a helper.
#[derive(Debug)]
struct SourcePlan {
    source: EndpointRef,
    /// The source's slot in the implementation's connectivity table.
    slot: Slot,
    port: Port,
}

#[derive(Debug)]
struct DuplicatorPlan {
    source: SourcePlan,
    /// Indices of the connections (into the impl's connection list)
    /// whose source must be rewritten to the duplicator outputs.
    connections: Vec<usize>,
}

#[derive(Debug, Default)]
struct ImplPlan {
    voiders: Vec<SourcePlan>,
    duplicators: Vec<DuplicatorPlan>,
}

/// Applies sugaring to every normal implementation in the project,
/// building a fresh [`ProjectIndex`] for this run.
pub fn apply_sugaring(project: &mut Project) -> SugarReport {
    let mut index = ProjectIndex::build(project);
    apply_sugaring_with(project, &mut index)
}

/// Applies sugaring over the pipeline's shared [`ProjectIndex`].
///
/// Planning reads the index's connectivity table: source uses are
/// counted in a `Vec` indexed by port slot, and only the sources that
/// need a helper get an owned endpoint name. The index is kept
/// current as the pass edits the project: helper streamlets and
/// implementations are registered, spliced helper instances get their
/// slots, appended connections are recorded and rewritten sources
/// re-pointed, so the DRC and lowering keep using the same index
/// afterwards.
///
/// # Panics
/// Panics when the index does not cover the project.
pub fn apply_sugaring_with(project: &mut Project, index: &mut ProjectIndex) -> SugarReport {
    assert!(
        index.covers(project),
        "stale ProjectIndex: register definitions appended after build"
    );
    // Phase 1: read-only planning, keyed by implementation id.
    let mut plans: Vec<(ImplId, ImplPlan)> = Vec::new();
    for (id, implementation) in project.implementations_with_ids() {
        let plan = plan_implementation(project, index, id, implementation);
        if !plan.voiders.is_empty() || !plan.duplicators.is_empty() {
            plans.push((id, plan));
        }
    }

    // Phase 2: apply. Helper components are shared via a cache keyed
    // by the port type (+ origin + clock) and, for duplicators, the
    // fan-out.
    let mut report = SugarReport::default();
    let mut helper_cache: HashMap<String, Arc<str>> = HashMap::new();
    let mut unique = 0usize;

    for (impl_id, plan) in plans {
        let mut counter = 0usize;
        for voider in plan.voiders {
            let helper_impl =
                ensure_voider(project, index, &voider.port, &mut helper_cache, &mut unique);
            let helper =
                splice_helper(project, index, impl_id, "voider", &mut counter, helper_impl);
            add_sugar_connection(project, index, impl_id, voider, helper);
            report.voiders += 1;
        }
        for duplicator in plan.duplicators {
            let fan_out = duplicator.connections.len();
            let helper_impl = ensure_duplicator(
                project,
                index,
                &duplicator.source.port,
                fan_out,
                &mut helper_cache,
                &mut unique,
            );
            let helper = splice_helper(project, index, impl_id, "dup", &mut counter, helper_impl);
            // Rewrite each consumer connection to read from one
            // duplicator output.
            let implementation = project.implementation_by_id_mut(impl_id);
            if let ImplKind::Normal { connections, .. } = &mut implementation.kind {
                for (k, &conn_idx) in duplicator.connections.iter().enumerate() {
                    connections[conn_idx].source =
                        EndpointRef::instance(Arc::clone(&helper.name), format!("o_{k}"));
                    connections[conn_idx].inserted_by_sugar = true;
                    index.set_source(impl_id, conn_idx, helper.output(k));
                }
            }
            add_sugar_connection(project, index, impl_id, duplicator.source, helper);
            report.duplicators += 1;
        }
    }
    report
}

/// Splices a fresh instance of `helper_impl` into implementation
/// `impl_id` and registers it with the index.
fn splice_helper(
    project: &mut Project,
    index: &mut ProjectIndex,
    impl_id: ImplId,
    kind: &str,
    counter: &mut usize,
    helper_impl: Arc<str>,
) -> Helper {
    // Fresh names come from a bump counter checked against the index's
    // instance table, which learns each helper as it is registered.
    let name = loop {
        let candidate = format!("__{kind}_{counter}");
        *counter += 1;
        if index.instance_position(impl_id, &candidate).is_none() {
            break Arc::<str>::from(candidate);
        }
    };
    project
        .implementation_by_id_mut(impl_id)
        .add_instance(Instance::new(Arc::clone(&name), helper_impl));
    let slots = index
        .register_instance(project, impl_id)
        .expect("helper implementations resolve");
    Helper {
        name,
        base: slots.base,
    }
}

/// Feeds a helper's input from `source`.
fn add_sugar_connection(
    project: &mut Project,
    index: &mut ProjectIndex,
    impl_id: ImplId,
    source: SourcePlan,
    helper: Helper,
) {
    let sink = helper.input();
    let input = Arc::clone(&index.slot_port(project, impl_id, sink).name);
    let mut connection = Connection::new(source.source, EndpointRef::instance(helper.name, input));
    connection.inserted_by_sugar = true;
    project
        .implementation_by_id_mut(impl_id)
        .add_connection(connection);
    index.push_connection(
        impl_id,
        ConnectionSlots {
            source: Some(source.slot),
            sink: Some(sink),
        },
    );
}

/// Plans voider/duplicator insertion for one implementation from the
/// index's connectivity table.
fn plan_implementation(
    project: &Project,
    index: &ProjectIndex,
    id: ImplId,
    implementation: &Implementation,
) -> ImplPlan {
    let mut plan = ImplPlan::default();
    if implementation.is_external() {
        return plan;
    }
    let Some(own) = index.streamlet_of_impl(id) else {
        return plan;
    };
    let connectivity = index.connectivity(id);

    // How many connections read from each slot.
    let mut reads = vec![0u32; connectivity.slot_count()];
    for slots in connectivity.connections() {
        if let Some(source) = slots.source {
            reads[source as usize] += 1;
        }
    }
    // The connections reading each fanned-out slot, in order.
    let mut readers: Vec<Vec<usize>> = Vec::new();
    if reads.iter().any(|&n| n > 1) {
        readers.resize(reads.len(), Vec::new());
        for (position, slots) in connectivity.connections().iter().enumerate() {
            if let Some(source) = slots.source.filter(|&s| reads[s as usize] > 1) {
                readers[source as usize].push(position);
            }
        }
    }

    // Every internal source: own `in` ports and instance `out` ports.
    let mut plan_source = |base: Slot,
                           streamlet: StreamletId,
                           direction: PortDirection,
                           instance: Option<&Arc<str>>| {
        let ports = &project.streamlet_by_id(streamlet).ports;
        for (position, port) in ports.iter().enumerate() {
            if port.direction != direction {
                continue;
            }
            let slot = base + index.canonical_port(streamlet, position) as Slot;
            let source = || SourcePlan {
                source: EndpointRef {
                    instance: instance.cloned(),
                    port: Arc::clone(&port.name),
                },
                slot,
                port: port.clone(),
            };
            match reads[slot as usize] {
                0 => plan.voiders.push(source()),
                1 => {}
                _ => plan.duplicators.push(DuplicatorPlan {
                    source: source(),
                    connections: readers[slot as usize].clone(),
                }),
            }
        }
    };
    plan_source(0, own, PortDirection::In, None);
    for (position, instance) in implementation.instances().iter().enumerate() {
        if let Some(slots) = connectivity.instance(position) {
            plan_source(
                slots.base,
                slots.streamlet,
                PortDirection::Out,
                Some(&instance.name),
            );
        }
    }
    plan
}

fn helper_key(prefix: &str, port: &Port, fan_out: usize) -> String {
    format!(
        "{prefix}|{}|{}|{}|{fan_out}",
        port.ty,
        port.type_origin.as_deref().unwrap_or(""),
        port.clock.name()
    )
}

fn clone_port(port: &Port, name: &str, direction: PortDirection) -> Port {
    let mut p =
        Port::from_arc(name, direction, Arc::clone(&port.ty)).with_clock(port.clock.clone());
    p.type_origin = port.type_origin.clone();
    p
}

fn ensure_voider(
    project: &mut Project,
    index: &mut ProjectIndex,
    port: &Port,
    cache: &mut HashMap<String, Arc<str>>,
    unique: &mut usize,
) -> Arc<str> {
    let key = helper_key("voider", port, 0);
    if let Some(existing) = cache.get(&key) {
        return existing.clone();
    }
    *unique += 1;
    let streamlet_name = format!("voider_s_{unique}");
    let impl_name: Arc<str> = format!("voider_i_{unique}").into();
    let mut streamlet = Streamlet::new(streamlet_name.clone());
    streamlet.doc = format!("Auto-inserted voider for {}", port.ty);
    streamlet
        .ports
        .push(clone_port(port, "i", PortDirection::In));
    let sid = project
        .add_streamlet(streamlet)
        .expect("voider streamlet name is fresh");
    index.register_streamlet(project, sid);
    let implementation =
        Implementation::external(&*impl_name, streamlet_name).with_builtin("std.voider");
    let iid = project
        .add_implementation(implementation)
        .expect("voider impl name is fresh");
    index.register_implementation(project, iid);
    cache.insert(key, Arc::clone(&impl_name));
    impl_name
}

fn ensure_duplicator(
    project: &mut Project,
    index: &mut ProjectIndex,
    port: &Port,
    fan_out: usize,
    cache: &mut HashMap<String, Arc<str>>,
    unique: &mut usize,
) -> Arc<str> {
    let key = helper_key("dup", port, fan_out);
    if let Some(existing) = cache.get(&key) {
        return existing.clone();
    }
    *unique += 1;
    let streamlet_name = format!("duplicator{fan_out}_s_{unique}");
    let impl_name: Arc<str> = format!("duplicator{fan_out}_i_{unique}").into();
    let mut streamlet = Streamlet::new(streamlet_name.clone());
    streamlet.doc = format!("Auto-inserted {fan_out}-way duplicator for {}", port.ty);
    streamlet
        .ports
        .push(clone_port(port, "i", PortDirection::In));
    for k in 0..fan_out {
        streamlet
            .ports
            .push(clone_port(port, &format!("o_{k}"), PortDirection::Out));
    }
    let sid = project
        .add_streamlet(streamlet)
        .expect("duplicator streamlet name is fresh");
    index.register_streamlet(project, sid);
    let mut implementation =
        Implementation::external(&*impl_name, streamlet_name).with_builtin("std.duplicator");
    implementation
        .attributes
        .insert("param_outputs".into(), fan_out.to_string());
    let iid = project
        .add_implementation(implementation)
        .expect("duplicator impl name is fresh");
    index.register_implementation(project, iid);
    cache.insert(key, Arc::clone(&impl_name));
    impl_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    /// A source feeding two consumers plus an ignored output:
    /// the paper's Fig. 4 configuration.
    fn fig4_project() -> Project {
        let mut p = Project::new("fig4");
        p.add_streamlet(
            Streamlet::new("producer_s")
                .with_port(Port::new("o", PortDirection::Out, stream8()))
                .with_port(Port::new("unused", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_streamlet(Streamlet::new("consumer_s").with_port(Port::new(
            "i",
            PortDirection::In,
            stream8(),
        )))
        .unwrap();
        p.add_streamlet(Streamlet::new("top_s")).unwrap();
        p.add_implementation(
            Implementation::external("producer_i", "producer_s").with_builtin("std.passthrough"),
        )
        .unwrap();
        p.add_implementation(
            Implementation::external("consumer_i", "consumer_s").with_builtin("std.voider"),
        )
        .unwrap();
        let mut top = Implementation::normal("top_i", "top_s");
        top.add_instance(Instance::new("src", "producer_i"));
        top.add_instance(Instance::new("c0", "consumer_i"));
        top.add_instance(Instance::new("c1", "consumer_i"));
        // src.o feeds both consumers (needs a duplicator);
        // src.unused is never read (needs a voider).
        top.add_connection(Connection::new(
            EndpointRef::instance("src", "o"),
            EndpointRef::instance("c0", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("src", "o"),
            EndpointRef::instance("c1", "i"),
        ));
        p.add_implementation(top).unwrap();
        p
    }

    #[test]
    fn fig4_duplicator_and_voider_inserted() {
        let mut p = fig4_project();
        // Before sugaring the design violates the port usage rule.
        assert!(p.validate().is_err());
        let report = apply_sugaring(&mut p);
        assert_eq!(report.duplicators, 1);
        assert_eq!(report.voiders, 1);
        // After sugaring the design satisfies all design rules.
        assert_eq!(p.validate(), Ok(()));
        let top = p.implementation("top_i").unwrap();
        // 2 rewritten + dup feed + voider feed = 4 connections.
        assert_eq!(top.connections().len(), 4);
        assert_eq!(top.instances().len(), 5);
        assert!(
            top.connections()
                .iter()
                .filter(|c| c.inserted_by_sugar)
                .count()
                >= 3
        );
    }

    #[test]
    fn shared_index_stays_fresh_through_sugaring() {
        let mut p = fig4_project();
        let mut index = ProjectIndex::build(&p);
        let report = apply_sugaring_with(&mut p, &mut index);
        assert_eq!(report.duplicators, 1);
        assert_eq!(report.voiders, 1);
        // Helper components and spliced instances are all registered:
        // the same index drives a clean DRC with no rebuild.
        assert_index_matches_rebuild(&p, &index);
        assert_eq!(p.validate_with(&index), Ok(()));
        let top = p.implementation_id("top_i").unwrap();
        let spliced = p
            .implementation_by_id(top)
            .instances()
            .last()
            .unwrap()
            .name
            .clone();
        assert!(index.instance_position(top, &spliced).is_some());
    }

    /// The index the pass kept current equals a fresh build over the
    /// sugared project, and every connection's slots hold the ports
    /// its endpoints name.
    fn assert_index_matches_rebuild(p: &Project, index: &ProjectIndex) {
        assert!(index.covers(p));
        let fresh = ProjectIndex::build(p);
        for (id, implementation) in p.implementations_with_ids() {
            let connectivity = index.connectivity(id);
            assert_eq!(
                connectivity,
                fresh.connectivity(id),
                "{}",
                implementation.name
            );
            for (position, instance) in implementation.instances().iter().enumerate() {
                assert_eq!(
                    index.instance_position(id, &instance.name),
                    Some(position),
                    "{}",
                    instance.name
                );
            }
            for (position, connection) in implementation.connections().iter().enumerate() {
                let slots = connectivity.connection(position);
                for (endpoint, slot) in [
                    (&connection.source, slots.source),
                    (&connection.sink, slots.sink),
                ] {
                    let slot = slot.unwrap_or_else(|| panic!("{endpoint} unresolved"));
                    assert_eq!(index.slot_port(p, id, slot).name, endpoint.port);
                    assert_eq!(connectivity.is_own(slot), endpoint.instance.is_none());
                }
            }
        }
    }

    #[test]
    fn index_tracks_helpers_and_rewritten_sources() {
        let mut p = fig4_project();
        p.add_streamlet(
            Streamlet::new("fan_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o1", PortDirection::Out, stream8()))
                .with_port(Port::new("o2", PortDirection::Out, stream8())),
        )
        .unwrap();
        // Own-port fan-out, a three-way instance fan-out and two
        // unused outputs in one body, sharing helpers with `top_i`.
        let mut mixed = Implementation::normal("mixed_i", "fan_s");
        mixed.add_instance(Instance::new("src", "producer_i"));
        for k in 0..3 {
            mixed.add_instance(Instance::new(format!("c{k}"), "consumer_i"));
        }
        mixed.add_instance(Instance::new("idle", "producer_i"));
        mixed.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o1"),
        ));
        for k in 0..3 {
            mixed.add_connection(Connection::new(
                EndpointRef::instance("src", "o"),
                EndpointRef::instance(format!("c{k}"), "i"),
            ));
        }
        mixed.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o2"),
        ));
        mixed.add_connection(Connection::new(
            EndpointRef::instance("idle", "o"),
            EndpointRef::own("o2"),
        ));
        p.add_implementation(mixed).unwrap();
        let mut index = ProjectIndex::build(&p);
        let report = apply_sugaring_with(&mut p, &mut index);
        assert_eq!(report.duplicators, 3);
        assert_eq!(report.voiders, 3);
        assert_index_matches_rebuild(&p, &index);
    }

    #[test]
    fn sugaring_is_idempotent() {
        let mut p = fig4_project();
        apply_sugaring(&mut p);
        let report2 = apply_sugaring(&mut p);
        assert_eq!(report2, SugarReport::default());
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn helper_components_are_shared() {
        let mut p = fig4_project();
        // Add a second unused producer output of the same type: the
        // voider impl must be reused.
        let mut top2 = Implementation::normal("top2_i", "top_s");
        top2.add_instance(Instance::new("src", "producer_i"));
        top2.add_instance(Instance::new("c0", "consumer_i"));
        top2.add_connection(Connection::new(
            EndpointRef::instance("src", "o"),
            EndpointRef::instance("c0", "i"),
        ));
        p.add_implementation(top2).unwrap();
        let report = apply_sugaring(&mut p);
        assert_eq!(report.voiders, 2);
        // Only one voider streamlet was created for the shared type.
        let voider_streamlets = p
            .streamlets()
            .iter()
            .filter(|s| s.name.starts_with("voider_s"))
            .count();
        assert_eq!(voider_streamlets, 1);
    }

    #[test]
    fn clean_project_untouched() {
        let mut p = Project::new("clean");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut w = Implementation::normal("wire_i", "pass_s");
        w.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(w).unwrap();
        let before = p.stats();
        let report = apply_sugaring(&mut p);
        assert_eq!(report, SugarReport::default());
        assert_eq!(p.stats(), before);
    }

    #[test]
    fn own_in_port_fanout_gets_duplicator() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o1", PortDirection::Out, stream8()))
                .with_port(Port::new("o2", PortDirection::Out, stream8())),
        )
        .unwrap();
        let mut imp = Implementation::normal("fan_i", "s");
        imp.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o1"),
        ));
        imp.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o2"),
        ));
        p.add_implementation(imp).unwrap();
        let report = apply_sugaring(&mut p);
        assert_eq!(report.duplicators, 1);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn sugar_preserves_type_origin_for_strict_drc() {
        let mut p = Project::new("t");
        let mut port_i = Port::new("i", PortDirection::In, stream8());
        port_i.type_origin = Some("pack.Byte".into());
        let mut port_o1 = Port::new("o1", PortDirection::Out, stream8());
        port_o1.type_origin = Some("pack.Byte".into());
        let mut port_o2 = Port::new("o2", PortDirection::Out, stream8());
        port_o2.type_origin = Some("pack.Byte".into());
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(port_i)
                .with_port(port_o1)
                .with_port(port_o2),
        )
        .unwrap();
        let mut imp = Implementation::normal("fan_i", "s");
        imp.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o1"),
        ));
        imp.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::own("o2"),
        ));
        p.add_implementation(imp).unwrap();
        apply_sugaring(&mut p);
        // Strict type equality holds through the inserted duplicator.
        assert_eq!(p.validate(), Ok(()));
    }
}
