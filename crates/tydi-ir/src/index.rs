//! The shared project index: every name-resolution table the middle
//! of the pipeline needs, built **once** after elaboration.
//!
//! Besides the by-name tables (streamlet ports, implementation
//! streamlets, instances), the index resolves each structural
//! implementation's *connectivity* once: it numbers the ports visible
//! in the body densely as [`Slot`]s — the implementation's own ports
//! first, then each instance's ports from that instance's base slot —
//! and records every connection's source and sink slot
//! ([`ConnectionSlots`], `None` when the instance or port does not
//! resolve). Sugaring, the DRC and lowering then index `Vec`s by slot
//! instead of hashing `(instance, port)` name pairs per connection;
//! only this build hashes names. The by-name tables key on the
//! project's own shared `Arc<str>` names, so building them copies no
//! name bytes.
//!
//! The index is positional: entry `i` of each table describes the
//! definition with id `i`, and slot and connection tables follow the
//! order of instances and connections in their implementation. It
//! stays valid as long as the project only grows by appends that are
//! mirrored here — the only mutations the pipeline performs: the
//! sugaring pass registers the helper components it appends
//! ([`ProjectIndex::register_streamlet`],
//! [`ProjectIndex::register_implementation`]), the helper instances
//! it splices in ([`ProjectIndex::register_instance`]), the
//! connections it adds ([`ProjectIndex::push_connection`]) and the
//! sources it rewrites ([`ProjectIndex::set_source`]).
//! [`ProjectIndex::covers`] checks the definition, instance and
//! connection counts, so a missed append fails loudly.
//!
//! Duplicate names resolve to their first declaration everywhere: a
//! repeated port name maps to the first port of that name
//! ([`ProjectIndex::canonical_port`]), and a repeated instance name
//! shares the first declaration's slots. Both are DRC errors.

use crate::component::{EndpointRef, Implementation, Port};
use crate::intern::{ImplId, StreamletId};
use crate::project::Project;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A port's number within one implementation body (see the module
/// docs): own ports take `0..own_ports`, instance `k`'s port `p` takes
/// `base(k) + p`.
pub type Slot = u32;

/// Where one instance's ports sit in its implementation's slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceSlots {
    /// Slot of the instance's first port; port `p` sits at `base + p`.
    pub base: Slot,
    /// The streamlet the instance realizes.
    pub streamlet: StreamletId,
}

/// The resolved endpoints of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionSlots {
    /// Slot of the source endpoint, `None` when it does not resolve.
    pub source: Option<Slot>,
    /// Slot of the sink endpoint, `None` when it does not resolve.
    pub sink: Option<Slot>,
}

/// One implementation's connectivity, resolved once. Empty for
/// external implementations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Connectivity {
    /// Number of own-port slots (zero when the implementation's
    /// streamlet does not resolve).
    own_ports: Slot,
    /// The implementation each instance realizes, by position; `None`
    /// when its name does not resolve.
    instance_impls: Vec<Option<ImplId>>,
    /// Slots of each instance, by position; `None` when the instance's
    /// implementation or its streamlet does not resolve. A repeated
    /// instance name repeats its first declaration's entry.
    instances: Vec<Option<InstanceSlots>>,
    /// Positions of the instances whose name repeats an earlier one,
    /// ascending (a DRC error, so almost always empty).
    repeated: Vec<u32>,
    /// The port behind each slot: its streamlet and port position.
    slot_ports: Vec<(StreamletId, u32)>,
    /// Source and sink slot of each connection, by position.
    connections: Vec<ConnectionSlots>,
}

impl Connectivity {
    /// Number of slots: the length of a per-slot table.
    pub fn slot_count(&self) -> usize {
        self.slot_ports.len()
    }

    /// True when `slot` is one of the implementation's own ports.
    pub fn is_own(&self, slot: Slot) -> bool {
        slot < self.own_ports
    }

    /// The streamlet and port position behind `slot`.
    pub fn port_of(&self, slot: Slot) -> (StreamletId, usize) {
        let (streamlet, position) = self.slot_ports[slot as usize];
        (streamlet, position as usize)
    }

    /// The slots of the instance at `position`, when it resolves.
    pub fn instance(&self, position: usize) -> Option<InstanceSlots> {
        self.instances[position]
    }

    /// The implementation the instance at `position` realizes, when
    /// its name resolves.
    pub fn implementation(&self, position: usize) -> Option<ImplId> {
        self.instance_impls[position]
    }

    /// True when the instance at `position` repeats the name of an
    /// earlier instance.
    pub fn repeats_name(&self, position: usize) -> bool {
        self.repeated.binary_search(&(position as u32)).is_ok()
    }

    /// The resolved endpoints of the connection at `position`.
    pub fn connection(&self, position: usize) -> ConnectionSlots {
        self.connections[position]
    }

    /// The resolved endpoints of every connection, in order.
    pub fn connections(&self) -> &[ConnectionSlots] {
        &self.connections
    }

    /// Appends the slots of one port list and returns its base slot.
    fn push_ports(&mut self, streamlet: StreamletId, ports: usize) -> Slot {
        let base = Slot::try_from(self.slot_ports.len()).expect("too many port slots");
        self.slot_ports
            .extend((0..ports).map(|p| (streamlet, p as u32)));
        base
    }
}

/// Owned name-resolution tables over one [`Project`].
///
/// By-name lookups are O(1): a hash over the queried name at most,
/// plus array accesses; connectivity lookups are array accesses only.
/// Accessors that return borrowed definitions take the project as an
/// argument, so the index itself stays `'static` and can be shared
/// (e.g. behind an `Arc`) across pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct ProjectIndex {
    /// Port name → position in `streamlet.ports`, per [`StreamletId`].
    port_maps: Vec<HashMap<Arc<str>, usize>>,
    /// Per [`StreamletId`], only when a port name repeats: the
    /// position of the first port with each port's name.
    first_ports: Vec<Option<Vec<u32>>>,
    /// Resolved streamlet of each implementation, per [`ImplId`]
    /// (`None` when the reference does not resolve; the DRC reports
    /// that).
    impl_streamlets: Vec<Option<StreamletId>>,
    /// Instance name → position in the implementation's instance
    /// list, per [`ImplId`]. First declaration wins on duplicates.
    instance_maps: Vec<HashMap<Arc<str>, usize>>,
    /// Resolved connectivity, per [`ImplId`].
    connectivity: Vec<Connectivity>,
}

impl ProjectIndex {
    /// Builds the index for every definition currently in `project`.
    pub fn build(project: &Project) -> Self {
        let _span = tydi_obs::trace::span("tydi-ir", "index");
        let mut index = ProjectIndex::default();
        for streamlet in project.streamlets() {
            index.push_streamlet(streamlet.ports.as_slice());
        }
        // Every implementation's streamlet first: instances may
        // reference implementations defined after them.
        index.impl_streamlets = project
            .implementations()
            .iter()
            .map(|implementation| project.streamlet_id(&implementation.streamlet))
            .collect();
        for (id, implementation) in project.implementations_with_ids() {
            index.push_body(project, id, implementation);
        }
        index
    }

    /// True when the index covers every definition of `project`, and
    /// every instance and connection of its implementations — the
    /// invariant every pass relies on.
    pub fn covers(&self, project: &Project) -> bool {
        self.port_maps.len() == project.streamlets().len()
            && self.connectivity.len() == project.implementations().len()
            && project
                .implementations()
                .iter()
                .zip(&self.connectivity)
                .all(|(implementation, connectivity)| {
                    connectivity.instances.len() == implementation.instances().len()
                        && connectivity.connections.len() == implementation.connections().len()
                })
    }

    fn push_streamlet(&mut self, ports: &[Port]) {
        let mut map = HashMap::with_capacity(ports.len());
        let mut first = Vec::with_capacity(ports.len());
        for (k, port) in ports.iter().enumerate() {
            // First declaration wins; duplicate ports are a DRC error.
            first.push(*map.entry(Arc::clone(&port.name)).or_insert(k) as u32);
        }
        let repeated = map.len() < ports.len();
        self.port_maps.push(map);
        self.first_ports.push(repeated.then_some(first));
    }

    /// Indexes one implementation body: its instance name map and its
    /// connectivity, in one pass over instances and connections.
    fn push_body(&mut self, project: &Project, id: ImplId, implementation: &Implementation) {
        let mut names = HashMap::with_capacity(implementation.instances().len());
        let mut connectivity = Connectivity::default();
        if let Some(own) = self.impl_streamlets[id.index()] {
            let ports = project.streamlet_by_id(own).ports.len();
            connectivity.push_ports(own, ports);
            connectivity.own_ports = ports as Slot;
        }
        // Instances come in runs of one implementation (arrays,
        // generative loops): resolve each run's name once.
        let mut last: Option<(&str, Option<ImplId>)> = None;
        for instance in implementation.instances() {
            let realized = match last {
                Some((name, realized)) if name == &*instance.impl_name => realized,
                _ => project.implementation_id(&instance.impl_name),
            };
            last = Some((&instance.impl_name, realized));
            self.push_instance(
                project,
                &mut names,
                &mut connectivity,
                &instance.name,
                realized,
            );
        }
        connectivity.connections = implementation
            .connections()
            .iter()
            .map(|connection| ConnectionSlots {
                source: self.endpoint_slot(id, &names, &connectivity, &connection.source),
                sink: self.endpoint_slot(id, &names, &connectivity, &connection.sink),
            })
            .collect();
        self.instance_maps.push(names);
        self.connectivity.push(connectivity);
    }

    /// Appends an instance named `name` that realizes `realized`: a
    /// fresh name gets slots for its streamlet's ports, a repeated one
    /// shares its first declaration's.
    fn push_instance(
        &self,
        project: &Project,
        names: &mut HashMap<Arc<str>, usize>,
        connectivity: &mut Connectivity,
        name: &Arc<str>,
        realized: Option<ImplId>,
    ) -> Option<InstanceSlots> {
        let position = connectivity.instances.len();
        connectivity.instance_impls.push(realized);
        let slots = match names.entry(Arc::clone(name)) {
            Entry::Occupied(first) => {
                connectivity.repeated.push(position as u32);
                connectivity.instances[*first.get()]
            }
            Entry::Vacant(vacant) => {
                vacant.insert(position);
                realized
                    .and_then(|id| self.impl_streamlets.get(id.index()).copied().flatten())
                    .map(|streamlet| InstanceSlots {
                        base: connectivity
                            .push_ports(streamlet, project.streamlet_by_id(streamlet).ports.len()),
                        streamlet,
                    })
            }
        };
        connectivity.instances.push(slots);
        slots
    }

    /// Resolves one endpoint of a connection in implementation `id`.
    fn endpoint_slot(
        &self,
        id: ImplId,
        names: &HashMap<Arc<str>, usize>,
        connectivity: &Connectivity,
        endpoint: &EndpointRef,
    ) -> Option<Slot> {
        match &endpoint.instance {
            None => {
                let own = self.impl_streamlets[id.index()]?;
                Some(self.port_position(own, &endpoint.port)? as Slot)
            }
            Some(instance) => {
                let slots = connectivity.instances[*names.get(&**instance)?]?;
                Some(slots.base + self.port_position(slots.streamlet, &endpoint.port)? as Slot)
            }
        }
    }

    /// Registers a streamlet appended to the project after the index
    /// was built (used by the sugaring pass for helper components).
    ///
    /// # Panics
    /// Panics when `id` is not the next unindexed streamlet:
    /// registrations must mirror append order.
    pub fn register_streamlet(&mut self, project: &Project, id: StreamletId) {
        assert_eq!(
            id.index(),
            self.port_maps.len(),
            "streamlets must be registered in append order"
        );
        self.push_streamlet(&project.streamlet_by_id(id).ports);
    }

    /// Registers an implementation appended to the project after the
    /// index was built.
    ///
    /// # Panics
    /// Panics when `id` is not the next unindexed implementation.
    pub fn register_implementation(&mut self, project: &Project, id: ImplId) {
        assert_eq!(
            id.index(),
            self.impl_streamlets.len(),
            "implementations must be registered in append order"
        );
        let implementation = project.implementation_by_id(id);
        self.impl_streamlets
            .push(project.streamlet_id(&implementation.streamlet));
        self.push_body(project, id, implementation);
    }

    /// Registers the instance just appended to implementation `id`
    /// (the sugaring pass splices helper instances in) and returns its
    /// slots.
    ///
    /// # Panics
    /// Panics unless exactly one instance was appended since the index
    /// last saw the implementation.
    pub fn register_instance(&mut self, project: &Project, id: ImplId) -> Option<InstanceSlots> {
        let instances = project.implementation_by_id(id).instances();
        let position = self.connectivity[id.index()].instances.len();
        assert_eq!(
            position + 1,
            instances.len(),
            "instances must be registered in append order"
        );
        let instance = &instances[position];
        let mut names = std::mem::take(&mut self.instance_maps[id.index()]);
        let mut connectivity = std::mem::take(&mut self.connectivity[id.index()]);
        let realized = project.implementation_id(&instance.impl_name);
        let slots = self.push_instance(
            project,
            &mut names,
            &mut connectivity,
            &instance.name,
            realized,
        );
        self.instance_maps[id.index()] = names;
        self.connectivity[id.index()] = connectivity;
        slots
    }

    /// Records the resolved endpoints of a connection just appended to
    /// implementation `id`.
    pub fn push_connection(&mut self, id: ImplId, slots: ConnectionSlots) {
        self.connectivity[id.index()].connections.push(slots);
    }

    /// Records that the source of connection `position` in
    /// implementation `id` was rewritten to `slot`.
    pub fn set_source(&mut self, id: ImplId, position: usize, slot: Slot) {
        self.connectivity[id.index()].connections[position].source = Some(slot);
    }

    /// The resolved connectivity of implementation `id`.
    pub fn connectivity(&self, id: ImplId) -> &Connectivity {
        &self.connectivity[id.index()]
    }

    /// The port behind `slot` of implementation `id`.
    pub fn slot_port<'p>(&self, project: &'p Project, id: ImplId, slot: Slot) -> &'p Port {
        let (streamlet, position) = self.connectivity[id.index()].port_of(slot);
        &project.streamlet_by_id(streamlet).ports[position]
    }

    /// The streamlet realized by implementation `id`, when resolvable.
    pub fn streamlet_of_impl(&self, id: ImplId) -> Option<StreamletId> {
        self.impl_streamlets[id.index()]
    }

    /// The streamlet realized by the named implementation.
    pub fn streamlet_of_impl_name(
        &self,
        project: &Project,
        impl_name: &str,
    ) -> Option<StreamletId> {
        self.streamlet_of_impl(project.implementation_id(impl_name)?)
    }

    /// The position of the named port in streamlet `id`'s port list
    /// (first declaration wins on duplicates).
    pub fn port_position(&self, id: StreamletId, name: &str) -> Option<usize> {
        self.port_maps[id.index()].get(name).copied()
    }

    /// The position of the first port of streamlet `id` named like the
    /// port at `position`: `position` itself unless the name repeats.
    pub fn canonical_port(&self, id: StreamletId, position: usize) -> usize {
        match &self.first_ports[id.index()] {
            Some(first) => first[position] as usize,
            None => position,
        }
    }

    /// A port of streamlet `id` by name.
    pub fn port<'p>(&self, project: &'p Project, id: StreamletId, name: &str) -> Option<&'p Port> {
        let position = self.port_position(id, name)?;
        Some(&project.streamlet_by_id(id).ports[position])
    }

    /// The position of the named instance in implementation `id`'s
    /// instance list (first declaration wins on duplicates).
    pub fn instance_position(&self, id: ImplId, name: &str) -> Option<usize> {
        self.instance_maps[id.index()].get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Connection, Implementation, Instance, Port, PortDirection, Streamlet};
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    fn project() -> Project {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(Implementation::external("leaf_i", "pass_s"))
            .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("a", "leaf_i"));
        top.add_instance(Instance::new("b", "leaf_i"));
        p.add_implementation(top).unwrap();
        p
    }

    /// The slot the name tables resolve `endpoint` of implementation
    /// `id` to, looked up name by name.
    fn slot_by_name(
        index: &ProjectIndex,
        project: &Project,
        id: ImplId,
        endpoint: &EndpointRef,
    ) -> Option<Slot> {
        match &endpoint.instance {
            None => {
                let own = index.streamlet_of_impl(id)?;
                Some(index.port_position(own, &endpoint.port)? as Slot)
            }
            Some(name) => {
                let position = index.instance_position(id, name)?;
                let instance = &project.implementation_by_id(id).instances()[position];
                let streamlet = index.streamlet_of_impl_name(project, &instance.impl_name)?;
                let slots = index.connectivity(id).instance(position)?;
                assert_eq!(slots.streamlet, streamlet);
                Some(slots.base + index.port_position(streamlet, &endpoint.port)? as Slot)
            }
        }
    }

    /// Every connection's slots agree with the name lookups, and every
    /// resolved slot holds the port the endpoint names.
    fn assert_slots_agree_with_names(index: &ProjectIndex, project: &Project) {
        assert!(index.covers(project));
        for (id, implementation) in project.implementations_with_ids() {
            let connectivity = index.connectivity(id);
            for (position, instance) in implementation.instances().iter().enumerate() {
                assert_eq!(
                    connectivity.implementation(position),
                    project.implementation_id(&instance.impl_name),
                    "{}",
                    instance.name
                );
                assert_eq!(
                    connectivity.repeats_name(position),
                    index.instance_position(id, &instance.name) != Some(position),
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
                    let context = format!("{} #{position}: {endpoint}", implementation.name);
                    assert_eq!(
                        slot,
                        slot_by_name(index, project, id, endpoint),
                        "{context}"
                    );
                    if let Some(slot) = slot {
                        assert_eq!(
                            index.slot_port(project, id, slot).name,
                            endpoint.port,
                            "{context}"
                        );
                        assert_eq!(
                            connectivity.is_own(slot),
                            endpoint.instance.is_none(),
                            "{context}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_resolves_everything() {
        let p = project();
        let index = ProjectIndex::build(&p);
        assert!(index.covers(&p));
        let sid = p.streamlet_id("pass_s").unwrap();
        assert_eq!(&*index.port(&p, sid, "i").unwrap().name, "i");
        assert_eq!(index.port(&p, sid, "ghost"), None);
        assert_eq!(index.port_position(sid, "o"), Some(1));
        assert_eq!(index.port_position(sid, "ghost"), None);
        let top = p.implementation_id("top_i").unwrap();
        assert_eq!(index.streamlet_of_impl(top), Some(sid));
        assert_eq!(index.streamlet_of_impl_name(&p, "leaf_i"), Some(sid));
        assert_eq!(index.streamlet_of_impl_name(&p, "ghost"), None);
        assert_eq!(index.instance_position(top, "b"), Some(1));
        assert_eq!(index.instance_position(top, "a"), Some(0));
        assert_eq!(index.instance_position(top, "zzz"), None);
    }

    #[test]
    fn unresolved_impl_streamlet_is_none() {
        let mut p = Project::new("t");
        p.add_implementation(Implementation::normal("ghost_i", "missing_s"))
            .unwrap();
        let index = ProjectIndex::build(&p);
        let id = p.implementation_id("ghost_i").unwrap();
        assert_eq!(index.streamlet_of_impl(id), None);
        assert_eq!(index.connectivity(id).slot_count(), 0);
    }

    #[test]
    fn slots_number_own_ports_then_instance_ports() {
        let mut p = project();
        let top = p.implementation_id("top_i").unwrap();
        for (source, sink) in [
            (EndpointRef::own("i"), EndpointRef::instance("a", "i")),
            (
                EndpointRef::instance("a", "o"),
                EndpointRef::instance("b", "i"),
            ),
            (EndpointRef::instance("b", "o"), EndpointRef::own("o")),
        ] {
            p.implementation_by_id_mut(top)
                .add_connection(Connection::new(source, sink));
        }
        let index = ProjectIndex::build(&p);
        let connectivity = index.connectivity(top);
        assert_eq!(connectivity.slot_count(), 6);
        let sid = p.streamlet_id("pass_s").unwrap();
        assert_eq!(
            connectivity.instance(1),
            Some(InstanceSlots {
                base: 4,
                streamlet: sid
            })
        );
        let slots: Vec<_> = connectivity
            .connections()
            .iter()
            .map(|c| (c.source, c.sink))
            .collect();
        assert_eq!(
            slots,
            [(Some(0), Some(2)), (Some(3), Some(4)), (Some(5), Some(1))]
        );
        assert!(connectivity.is_own(1) && !connectivity.is_own(2));
        assert_slots_agree_with_names(&index, &p);
    }

    #[test]
    fn slots_agree_with_names_on_odd_designs() {
        let mut p = project();
        p.add_streamlet(
            Streamlet::new("wide_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("x", PortDirection::Out, stream8()))
                .with_port(Port::new("y", PortDirection::Out, stream8())),
        )
        .unwrap();
        // Declared after its first use: resolution must not depend on
        // definition order.
        let mut odd = Implementation::normal("odd_i", "pass_s");
        odd.add_instance(Instance::new("w", "wide_i"));
        odd.add_instance(Instance::new("l", "leaf_i"));
        // A repeated name: the first declaration wins.
        odd.add_instance(Instance::new("w", "leaf_i"));
        odd.add_instance(Instance::new("g", "ghost_i"));
        for (source, sink) in [
            // Own-to-own feed-through.
            (EndpointRef::own("i"), EndpointRef::own("o")),
            (
                EndpointRef::instance("w", "y"),
                EndpointRef::instance("l", "i"),
            ),
            (EndpointRef::instance("w", "x"), EndpointRef::own("o")),
            // Unknown instance, unknown ports, unresolved impl.
            (
                EndpointRef::instance("nobody", "o"),
                EndpointRef::own("ghost"),
            ),
            (
                EndpointRef::instance("l", "ghost"),
                EndpointRef::instance("g", "i"),
            ),
        ] {
            odd.add_connection(Connection::new(source, sink));
        }
        p.add_implementation(odd).unwrap();
        p.add_implementation(Implementation::external("wide_i", "wide_s"))
            .unwrap();
        let index = ProjectIndex::build(&p);
        assert_slots_agree_with_names(&index, &p);
        let id = p.implementation_id("odd_i").unwrap();
        let connectivity = index.connectivity(id);
        assert_eq!(connectivity.instance(2), connectivity.instance(0));
        assert!(connectivity.repeats_name(2) && !connectivity.repeats_name(0));
        assert_eq!(connectivity.instance(3), None);
        assert_eq!(connectivity.implementation(3), None);
        let unresolved: Vec<_> = connectivity.connections()[3..]
            .iter()
            .map(|c| (c.source, c.sink))
            .collect();
        assert_eq!(unresolved, [(None, None), (None, None)]);
        // Own ports, `w`'s three ports and `l`'s two ports.
        assert_eq!(connectivity.slot_count(), 2 + 3 + 2);
    }

    #[test]
    fn incremental_registration_tracks_appends() {
        let mut p = project();
        let mut index = ProjectIndex::build(&p);
        let sid = p
            .add_streamlet(Streamlet::new("helper_s").with_port(Port::new(
                "i",
                PortDirection::In,
                stream8(),
            )))
            .unwrap();
        index.register_streamlet(&p, sid);
        let iid = p
            .add_implementation(Implementation::external("helper_i", "helper_s"))
            .unwrap();
        index.register_implementation(&p, iid);
        assert!(index.covers(&p));
        assert_eq!(index.streamlet_of_impl(iid), Some(sid));
        assert_eq!(&*index.port(&p, sid, "i").unwrap().name, "i");

        // Splicing an instance and a connection into an existing
        // implementation and registering both keeps lookups current.
        let top = p.implementation_id("top_i").unwrap();
        p.implementation_by_id_mut(top)
            .add_instance(Instance::new("h", "helper_i"));
        assert!(!index.covers(&p));
        let slots = index.register_instance(&p, top).unwrap();
        assert_eq!(slots.base, 6);
        assert_eq!(index.instance_position(top, "h"), Some(2));
        p.implementation_by_id_mut(top)
            .add_connection(Connection::new(
                EndpointRef::instance("a", "o"),
                EndpointRef::instance("h", "i"),
            ));
        index.push_connection(
            top,
            ConnectionSlots {
                source: Some(3),
                sink: Some(slots.base),
            },
        );
        assert_slots_agree_with_names(&index, &p);
    }

    #[test]
    fn duplicate_names_resolve_to_first_declaration() {
        let mut p = Project::new("t");
        p.add_streamlet(
            Streamlet::new("s")
                .with_port(Port::new("x", PortDirection::In, stream8()))
                .with_port(Port::new("x", PortDirection::Out, stream8())),
        )
        .unwrap();
        let index = ProjectIndex::build(&p);
        let sid = p.streamlet_id("s").unwrap();
        assert_eq!(
            index.port(&p, sid, "x").unwrap().direction,
            PortDirection::In
        );
        assert_eq!(index.canonical_port(sid, 1), 0);
        assert_eq!(index.canonical_port(sid, 0), 0);
    }
}
