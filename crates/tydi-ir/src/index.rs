//! The shared project index: every name-resolution table the middle
//! of the pipeline needs, built **once** after elaboration.
//!
//! Historically each pass rebuilt its own lookup maps: the sugaring
//! pass re-resolved `implementation → streamlet` per instance, the
//! DRC built a fresh borrowed port index per validation run, and the
//! netlist lowering scanned instance lists linearly per endpoint. A
//! [`ProjectIndex`] replaces all of those with one owned, cheaply
//! clonable structure that is built right after elaboration and
//! threaded through `apply_sugaring` → DRC → lowering.
//!
//! The index is positional: entry `i` of each table describes the
//! definition with id `i`, so it stays valid as long as definitions
//! are only *appended* (which is the only mutation the pipeline
//! performs — the sugaring pass appends helper components and then
//! registers them with [`ProjectIndex::register_streamlet`] /
//! [`ProjectIndex::register_implementation`], and refreshes an
//! implementation's instance table after splicing instances into it).

use crate::component::{Instance, Port};
use crate::intern::{ImplId, StreamletId};
use crate::project::Project;
use std::collections::HashMap;

/// Owned name-resolution tables over one [`Project`].
///
/// All lookups are O(1): a hash over the queried name at most, plus
/// array accesses. Accessors that return borrowed definitions take
/// the project as an argument, so the index itself stays `'static`
/// and can be shared (e.g. behind an `Arc`) across pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct ProjectIndex {
    /// Port name → position in `streamlet.ports`, per [`StreamletId`].
    port_maps: Vec<HashMap<String, usize>>,
    /// Resolved streamlet of each implementation, per [`ImplId`]
    /// (`None` when the reference does not resolve; the DRC reports
    /// that).
    impl_streamlets: Vec<Option<StreamletId>>,
    /// Instance name → position in the implementation's instance
    /// list, per [`ImplId`]. First declaration wins on duplicates,
    /// matching endpoint-resolution semantics in the DRC.
    instance_maps: Vec<HashMap<String, usize>>,
}

impl ProjectIndex {
    /// Builds the index for every definition currently in `project`.
    pub fn build(project: &Project) -> Self {
        let mut index = ProjectIndex::default();
        for id in 0..project.streamlets().len() {
            index.push_streamlet(project, id);
        }
        for id in 0..project.implementations().len() {
            index.push_implementation(project, id);
        }
        index
    }

    /// True when the index covers every definition of `project` — the
    /// invariant every pass relies on.
    pub fn covers(&self, project: &Project) -> bool {
        self.port_maps.len() == project.streamlets().len()
            && self.impl_streamlets.len() == project.implementations().len()
    }

    fn push_streamlet(&mut self, project: &Project, position: usize) {
        let streamlet = &project.streamlets()[position];
        let mut ports = HashMap::with_capacity(streamlet.ports.len());
        for (k, port) in streamlet.ports.iter().enumerate() {
            // First declaration wins; duplicate ports are a DRC error.
            ports.entry(port.name.clone()).or_insert(k);
        }
        self.port_maps.push(ports);
    }

    fn push_implementation(&mut self, project: &Project, position: usize) {
        let implementation = &project.implementations()[position];
        self.impl_streamlets
            .push(project.streamlet_id(&implementation.streamlet));
        self.instance_maps
            .push(Self::instance_map(implementation.instances()));
    }

    fn instance_map(instances: &[Instance]) -> HashMap<String, usize> {
        let mut map = HashMap::with_capacity(instances.len());
        for (k, instance) in instances.iter().enumerate() {
            // First declaration wins; duplicates are a DRC error.
            map.entry(instance.name.clone()).or_insert(k);
        }
        map
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
        self.push_streamlet(project, id.index());
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
        self.push_implementation(project, id.index());
    }

    /// Rebuilds one implementation's instance table after instances
    /// were spliced into it (the sugaring pass does this when it adds
    /// duplicator/voider instances).
    pub fn refresh_implementation(&mut self, project: &Project, id: ImplId) {
        self.instance_maps[id.index()] =
            Self::instance_map(project.implementation_by_id(id).instances());
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

    /// The position of the named port in streamlet `id`'s port list.
    pub fn port_position(&self, id: StreamletId, name: &str) -> Option<usize> {
        self.port_maps[id.index()].get(name).copied()
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

    /// The named instance of implementation `id`.
    pub fn instance<'p>(
        &self,
        project: &'p Project,
        id: ImplId,
        name: &str,
    ) -> Option<&'p Instance> {
        let position = self.instance_position(id, name)?;
        Some(&project.implementation_by_id(id).instances()[position])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Implementation, Instance, Port, PortDirection, Streamlet};
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

    #[test]
    fn build_resolves_everything() {
        let p = project();
        let index = ProjectIndex::build(&p);
        assert!(index.covers(&p));
        let sid = p.streamlet_id("pass_s").unwrap();
        assert_eq!(index.port(&p, sid, "i").unwrap().name, "i");
        assert_eq!(index.port(&p, sid, "ghost"), None);
        assert_eq!(index.port_position(sid, "o"), Some(1));
        assert_eq!(index.port_position(sid, "ghost"), None);
        let top = p.implementation_id("top_i").unwrap();
        assert_eq!(index.streamlet_of_impl(top), Some(sid));
        assert_eq!(index.streamlet_of_impl_name(&p, "leaf_i"), Some(sid));
        assert_eq!(index.streamlet_of_impl_name(&p, "ghost"), None);
        assert_eq!(index.instance(&p, top, "b").unwrap().impl_name, "leaf_i");
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
        assert_eq!(index.port(&p, sid, "i").unwrap().name, "i");

        // Splicing an instance into an existing implementation and
        // refreshing keeps lookups current.
        let top = p.implementation_id("top_i").unwrap();
        p.implementation_by_id_mut(top)
            .add_instance(Instance::new("h", "helper_i"));
        assert_eq!(index.instance_position(top, "h"), None);
        index.refresh_implementation(&p, top);
        assert_eq!(index.instance_position(top, "h"), Some(2));
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
    }
}
