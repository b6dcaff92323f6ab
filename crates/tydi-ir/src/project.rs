//! The project container: a named set of streamlets and
//! implementations with lookup and validation entry points.

use crate::component::{Implementation, Streamlet};
use crate::error::IrError;
use crate::intern::{ImplId, Interner, StreamletId, Symbol};
use crate::validate;
use std::collections::HashMap;

/// A complete Tydi-IR design.
///
/// Definition order is preserved (it determines VHDL emission order).
/// Every definition name is interned into a [`Symbol`]; the by-name
/// lookups hash the query string once against the symbol table, and
/// the by-id lookups ([`StreamletId`], [`ImplId`]) are plain array
/// accesses — the form the validator and backends use on hot paths.
#[derive(Debug, Clone, Default)]
pub struct Project {
    /// Project name; becomes the VHDL library/file prefix.
    pub name: String,
    symbols: Interner,
    streamlets: Vec<Streamlet>,
    streamlet_index: HashMap<Symbol, StreamletId>,
    impls: Vec<Implementation>,
    impl_index: HashMap<Symbol, ImplId>,
}

impl Project {
    /// Creates an empty project.
    pub fn new(name: impl Into<String>) -> Self {
        Project {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The project's symbol table.
    pub fn symbols(&self) -> &Interner {
        &self.symbols
    }

    /// Interns a name into the project's symbol table.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Adds a streamlet definition, returning its id.
    pub fn add_streamlet(&mut self, streamlet: Streamlet) -> Result<StreamletId, IrError> {
        let sym = self.symbols.intern(&streamlet.name);
        if self.streamlet_index.contains_key(&sym) {
            return Err(IrError::DuplicateDefinition {
                kind: "streamlet",
                name: streamlet.name.clone(),
            });
        }
        let id = StreamletId(u32::try_from(self.streamlets.len()).expect("too many streamlets"));
        self.streamlet_index.insert(sym, id);
        self.streamlets.push(streamlet);
        Ok(id)
    }

    /// Adds an implementation definition, returning its id.
    pub fn add_implementation(
        &mut self,
        implementation: Implementation,
    ) -> Result<ImplId, IrError> {
        let sym = self.symbols.intern(&implementation.name);
        if self.impl_index.contains_key(&sym) {
            return Err(IrError::DuplicateDefinition {
                kind: "implementation",
                name: implementation.name.clone(),
            });
        }
        let id = ImplId(u32::try_from(self.impls.len()).expect("too many implementations"));
        self.impl_index.insert(sym, id);
        self.impls.push(implementation);
        Ok(id)
    }

    /// Resolves a streamlet name to its id.
    pub fn streamlet_id(&self, name: &str) -> Option<StreamletId> {
        self.streamlet_index.get(&self.symbols.get(name)?).copied()
    }

    /// Resolves an implementation name to its id.
    pub fn implementation_id(&self, name: &str) -> Option<ImplId> {
        self.impl_index.get(&self.symbols.get(name)?).copied()
    }

    /// A streamlet by id (array access; no hashing).
    pub fn streamlet_by_id(&self, id: StreamletId) -> &Streamlet {
        &self.streamlets[id.index()]
    }

    /// An implementation by id (array access; no hashing).
    pub fn implementation_by_id(&self, id: ImplId) -> &Implementation {
        &self.impls[id.index()]
    }

    /// Mutable access to an implementation by id.
    pub fn implementation_by_id_mut(&mut self, id: ImplId) -> &mut Implementation {
        &mut self.impls[id.index()]
    }

    /// Looks up a streamlet by name.
    pub fn streamlet(&self, name: &str) -> Option<&Streamlet> {
        self.streamlet_id(name).map(|id| self.streamlet_by_id(id))
    }

    /// Looks up an implementation by name.
    pub fn implementation(&self, name: &str) -> Option<&Implementation> {
        self.implementation_id(name)
            .map(|id| self.implementation_by_id(id))
    }

    /// All streamlets in definition order.
    pub fn streamlets(&self) -> &[Streamlet] {
        &self.streamlets
    }

    /// All implementations in definition order.
    pub fn implementations(&self) -> &[Implementation] {
        &self.impls
    }

    /// All implementations paired with their ids, in definition order.
    pub fn implementations_with_ids(&self) -> impl Iterator<Item = (ImplId, &Implementation)> {
        self.impls
            .iter()
            .enumerate()
            .map(|(i, imp)| (ImplId(i as u32), imp))
    }

    /// The id of the streamlet realized by the given implementation.
    pub fn streamlet_of_impl(&self, id: ImplId) -> Option<StreamletId> {
        self.streamlet_id(&self.implementation_by_id(id).streamlet)
    }

    /// The streamlet realized by the named implementation.
    pub fn streamlet_of(&self, impl_name: &str) -> Option<&Streamlet> {
        self.implementation(impl_name)
            .and_then(|i| self.streamlet(&i.streamlet))
    }

    /// Runs all design-rule checks (paper §III); returns every
    /// violation found rather than stopping at the first.
    pub fn validate(&self) -> Result<(), Vec<IrError>> {
        let errors = validate::validate_project(self);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Like [`Project::validate`], but over the pipeline's shared
    /// [`crate::index::ProjectIndex`] instead of building a fresh one.
    pub fn validate_with(&self, index: &crate::index::ProjectIndex) -> Result<(), Vec<IrError>> {
        let errors = validate::validate_project_with(self, index);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Names of the implementations no other implementation
    /// instantiates — the design's top-level candidates, sorted by
    /// name. Tools like `tydic analyze` default to these when the user
    /// gives no `--top`. Normal (structural) implementations are
    /// preferred; external leaves are listed only when nothing
    /// instantiates them *and* no structural top exists at all (a
    /// leaf-only project).
    pub fn top_level_candidates(&self) -> Vec<&str> {
        let mut instantiated: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for implementation in &self.impls {
            for instance in implementation.instances() {
                instantiated.insert(&instance.impl_name);
            }
        }
        let uninstantiated = |external: bool| -> Vec<&str> {
            let mut tops: Vec<&str> = self
                .impls
                .iter()
                .filter(|i| i.is_external() == external && !instantiated.contains(i.name.as_str()))
                .map(|i| i.name.as_str())
                .collect();
            tops.sort_unstable();
            tops
        };
        let structural = uninstantiated(false);
        if structural.is_empty() {
            uninstantiated(true)
        } else {
            structural
        }
    }

    /// Project statistics for reports and compiler output.
    pub fn stats(&self) -> ProjectStats {
        let mut stats = ProjectStats {
            streamlets: self.streamlets.len(),
            implementations: self.impls.len(),
            ..Default::default()
        };
        for s in &self.streamlets {
            stats.ports += s.ports.len();
        }
        for i in &self.impls {
            stats.instances += i.instances().len();
            stats.connections += i.connections().len();
            stats.sugar_connections += i
                .connections()
                .iter()
                .filter(|c| c.inserted_by_sugar)
                .count();
            if i.is_external() {
                stats.externals += 1;
            }
        }
        stats
    }
}

/// Aggregate counts over a project.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectStats {
    /// Number of streamlet definitions.
    pub streamlets: usize,
    /// Number of implementation definitions.
    pub implementations: usize,
    /// Number of external implementations.
    pub externals: usize,
    /// Total ports across all streamlets.
    pub ports: usize,
    /// Total instances across all normal implementations.
    pub instances: usize,
    /// Total connections across all normal implementations.
    pub connections: usize,
    /// Connections synthesized by the sugaring passes.
    pub sugar_connections: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Connection, EndpointRef, Instance, Port, PortDirection};
    use tydi_spec::{LogicalType, StreamParams};

    fn stream8() -> LogicalType {
        LogicalType::stream(LogicalType::Bit(8), StreamParams::new())
    }

    #[test]
    fn add_and_lookup() {
        let mut p = Project::new("demo");
        p.add_streamlet(Streamlet::new("a_s")).unwrap();
        p.add_implementation(Implementation::normal("a_i", "a_s"))
            .unwrap();
        assert!(p.streamlet("a_s").is_some());
        assert!(p.implementation("a_i").is_some());
        assert_eq!(p.streamlet_of("a_i").unwrap().name, "a_s");
        assert!(p.streamlet("missing").is_none());
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut p = Project::new("demo");
        p.add_streamlet(Streamlet::new("a")).unwrap();
        assert!(matches!(
            p.add_streamlet(Streamlet::new("a")),
            Err(IrError::DuplicateDefinition {
                kind: "streamlet",
                ..
            })
        ));
        p.add_implementation(Implementation::normal("i", "a"))
            .unwrap();
        assert!(p
            .add_implementation(Implementation::normal("i", "a"))
            .is_err());
    }

    #[test]
    fn id_lookups_match_name_lookups() {
        let mut p = Project::new("demo");
        let sid = p.add_streamlet(Streamlet::new("a_s")).unwrap();
        let iid = p
            .add_implementation(Implementation::normal("a_i", "a_s"))
            .unwrap();
        // By-id and by-name resolve to the same definitions.
        assert_eq!(p.streamlet_id("a_s"), Some(sid));
        assert_eq!(p.implementation_id("a_i"), Some(iid));
        assert!(std::ptr::eq(
            p.streamlet_by_id(sid),
            p.streamlet("a_s").unwrap()
        ));
        assert!(std::ptr::eq(
            p.implementation_by_id(iid),
            p.implementation("a_i").unwrap()
        ));
        assert_eq!(p.streamlet_of_impl(iid), Some(sid));
        // Unknown names resolve to no id without interning them.
        assert_eq!(p.streamlet_id("ghost"), None);
        assert_eq!(p.implementation_id("ghost"), None);
        assert_eq!(p.symbols().get("ghost"), None);
    }

    #[test]
    fn ids_are_stable_across_later_additions() {
        let mut p = Project::new("demo");
        let first = p.add_streamlet(Streamlet::new("s0")).unwrap();
        for k in 1..50 {
            p.add_streamlet(Streamlet::new(format!("s{k}"))).unwrap();
        }
        assert_eq!(p.streamlet_id("s0"), Some(first));
        assert_eq!(p.streamlet_by_id(first).name, "s0");
        assert_eq!(p.streamlet_id("s49").unwrap().index(), 49);
    }

    #[test]
    fn definition_names_share_interned_symbols() {
        let mut p = Project::new("demo");
        p.add_streamlet(Streamlet::new("shared")).unwrap();
        // The impl name `shared` would collide in the symbol table but
        // not in the per-kind indices.
        p.add_implementation(Implementation::normal("shared", "shared"))
            .unwrap();
        let sym = p.symbols().get("shared").unwrap();
        assert_eq!(p.symbols().resolve(sym), "shared");
        assert!(p.streamlet("shared").is_some());
        assert!(p.implementation("shared").is_some());
    }

    #[test]
    fn stats_count_everything() {
        let mut p = Project::new("demo");
        p.add_streamlet(
            Streamlet::new("pass_s")
                .with_port(Port::new("i", PortDirection::In, stream8()))
                .with_port(Port::new("o", PortDirection::Out, stream8())),
        )
        .unwrap();
        p.add_implementation(Implementation::external("leaf_i", "pass_s"))
            .unwrap();
        let mut top = Implementation::normal("top_i", "pass_s");
        top.add_instance(Instance::new("l", "leaf_i"));
        top.add_connection(Connection::new(
            EndpointRef::own("i"),
            EndpointRef::instance("l", "i"),
        ));
        top.add_connection(Connection::new(
            EndpointRef::instance("l", "o"),
            EndpointRef::own("o"),
        ));
        p.add_implementation(top).unwrap();
        let s = p.stats();
        assert_eq!(s.streamlets, 1);
        assert_eq!(s.implementations, 2);
        assert_eq!(s.externals, 1);
        assert_eq!(s.ports, 2);
        assert_eq!(s.instances, 1);
        assert_eq!(s.connections, 2);
    }

    #[test]
    fn top_level_candidates_prefer_uninstantiated_structural_impls() {
        let mut p = Project::new("demo");
        p.add_streamlet(Streamlet::new("s")).unwrap();
        p.add_implementation(Implementation::external("leaf_i", "s"))
            .unwrap();
        // An uninstantiated external leaf does not outrank a
        // structural top.
        p.add_implementation(Implementation::external("orphan_leaf_i", "s"))
            .unwrap();
        let mut mid = Implementation::normal("mid_i", "s");
        mid.add_instance(Instance::new("l", "leaf_i"));
        p.add_implementation(mid).unwrap();
        let mut top = Implementation::normal("top_i", "s");
        top.add_instance(Instance::new("m", "mid_i"));
        p.add_implementation(top).unwrap();
        assert_eq!(p.top_level_candidates(), vec!["top_i"]);

        // Leaf-only projects fall back to uninstantiated externals.
        let mut leaves = Project::new("leaves");
        leaves.add_streamlet(Streamlet::new("s")).unwrap();
        leaves
            .add_implementation(Implementation::external("b_i", "s"))
            .unwrap();
        leaves
            .add_implementation(Implementation::external("a_i", "s"))
            .unwrap();
        assert_eq!(leaves.top_level_candidates(), vec!["a_i", "b_i"]);
    }
}
