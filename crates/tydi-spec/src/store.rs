//! Hash-consed storage for logical types.
//!
//! A [`TypeStore`] interns every [`LogicalType`] node exactly once and
//! hands out a compact [`TypeId`] (a `u32`). Structurally identical
//! types always receive the same id, so *type equality becomes an
//! integer compare*, and the derived properties that the compiler
//! pipeline keeps recomputing on type trees — bit width, mangled
//! display text, stream and null classification — are computed **once
//! per distinct node** and cached in per-node side tables.
//!
//! Interning is bottom-up: a `Group` node's dedup key holds the
//! [`TypeId`]s of its children, not their trees, so *looking up* a type
//! composed from already-interned pieces hashes O(number of direct
//! children) — independent of how deep those children are. This is
//! what makes template-heavy elaboration flat: the first reference to
//! `pass_i<type Deep>` pays for `Deep` once and every later reference
//! is a handful of integer hashes.
//!
//! Every id also exposes a canonical [`Arc<LogicalType>`] so the rest
//! of the toolchain (IR ports, lowering, text formats) keeps working
//! on plain trees; structurally equal types share one allocation,
//! which downstream consumers exploit with `Arc::ptr_eq` fast paths.
//! *Inserting* a new node still builds its canonical tree by cloning
//! each child's tree, so a miss costs O(size of the new type's tree);
//! only lookups are O(direct children).
//!
//! A store belongs to one elaboration, which runs on one thread: the
//! intern map sits in a `RefCell` so every method takes `&self`, and a
//! [`TypeId`] is the slot index of its node, assigned in first-intern
//! order. Everything the compiler emits is derived from the
//! structural side tables (mangled text, canonical trees), never from
//! raw id values.
//!
//! Invariants maintained by construction (checked once per distinct
//! node, never re-walked):
//!
//! * every interned type is valid per [`LogicalType::validate`]
//!   (positive bit widths, unique field names, non-empty unions, no
//!   streams inside `user` types);
//! * [`TypeStore::mangled`] equals the type's canonical display form
//!   with all spaces removed — byte-identical to what template
//!   instance mangling historically produced.
//!
//! Physical expansion is not cached here: it is a pure function of the
//! type ([`lower`](crate::physical::lower)), and each consumer that
//! expands a type more than once keeps its own run-local map.

use crate::logical::{union_tag_width, Field, LogicalType};
use crate::stream::{Complexity, Direction, StreamParams, Synchronicity, Throughput};
use crate::SpecError;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A compact handle to an interned logical type.
///
/// Two ids from the *same* [`TypeStore`] are equal exactly when the
/// types they denote are structurally equal; comparing ids from
/// different stores is meaningless. Raw id values are only stable
/// within one run (slots fill in first-intern order), so nothing
/// persisted or emitted depends on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// The slot index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structural dedup key of one node: children by id, so hashing
/// and equality are O(direct children).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeKey {
    Null,
    Bit(u32),
    Group(Vec<(String, TypeId)>),
    Union(Vec<(String, TypeId)>),
    Stream {
        element: TypeId,
        dimension: u32,
        throughput: Throughput,
        complexity: Complexity,
        direction: Direction,
        synchronicity: Synchronicity,
        user: Option<TypeId>,
        keep: bool,
    },
}

/// Cached per-node data. Immutable after interning, so accessors can
/// hand out clones of the containing `Arc` without holding the intern
/// map borrowed.
#[derive(Debug)]
struct NodeData {
    /// Canonical deep tree; structurally equal ids share this `Arc`.
    canonical: Arc<LogicalType>,
    /// Element bit width (nested streams contribute zero).
    bit_width: u32,
    /// Canonical display text with spaces removed (template mangling).
    mangled: Arc<str>,
    /// Whether the node or any descendant is a `Stream`.
    contains_stream: bool,
    /// Whether the type carries no information ([`LogicalType::is_null`]).
    is_null: bool,
    /// Total node count (compiler statistics).
    node_count: usize,
}

/// Counters describing how much work a [`TypeStore`] saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeStoreStats {
    /// Number of distinct type nodes interned.
    pub distinct_types: usize,
    /// Constructor/intern calls answered from the dedup table.
    pub intern_hits: usize,
}

impl TypeStoreStats {
    /// Dedup hit rate in percent (0 when nothing was interned).
    pub fn hit_rate(&self) -> f64 {
        let total = self.distinct_types + self.intern_hits;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 * 100.0 / total as f64
        }
    }
}

/// The intern map: slot-indexed nodes plus the dedup table mapping
/// structural keys to slots.
#[derive(Debug, Default)]
struct InternMap {
    nodes: Vec<Arc<NodeData>>,
    dedup: HashMap<NodeKey, u32>,
}

/// A hash-consing store for [`LogicalType`]s (see the module docs).
///
/// All methods take `&self`; the store is used from one thread.
#[derive(Debug, Default)]
pub struct TypeStore {
    map: RefCell<InternMap>,
    intern_hits: Cell<usize>,
}

impl TypeStore {
    /// An empty store.
    pub fn new() -> Self {
        TypeStore::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.map.borrow().nodes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Usage counters.
    pub fn stats(&self) -> TypeStoreStats {
        TypeStoreStats {
            distinct_types: self.len(),
            intern_hits: self.intern_hits.get(),
        }
    }

    // ---- constructors (O(direct children) each) --------------------------

    /// Interns `Null`.
    pub fn null(&self) -> TypeId {
        self.insert(NodeKey::Null, |_| NodeBuild {
            canonical: LogicalType::Null,
            bit_width: 0,
            mangled: "Null".to_string(),
            contains_stream: false,
            is_null: true,
            node_count: 1,
        })
        .expect("Null is always valid")
    }

    /// Interns `Bit(width)`; rejects zero widths.
    pub fn bit(&self, width: u32) -> Result<TypeId, SpecError> {
        if width == 0 {
            return Err(SpecError::ZeroWidthBit);
        }
        self.insert(NodeKey::Bit(width), |_| NodeBuild {
            canonical: LogicalType::Bit(width),
            bit_width: width,
            mangled: format!("Bit({width})"),
            contains_stream: false,
            is_null: false,
            node_count: 1,
        })
    }

    /// Interns a `Group` of already-interned fields; rejects duplicate
    /// field names.
    pub fn group(&self, fields: Vec<(String, TypeId)>) -> Result<TypeId, SpecError> {
        self.composite(fields, /* is_group */ true)
    }

    /// Interns a `Union` of already-interned variants; rejects empty
    /// unions and duplicate variant names.
    pub fn union(&self, fields: Vec<(String, TypeId)>) -> Result<TypeId, SpecError> {
        self.composite(fields, /* is_group */ false)
    }

    /// Interns a `Stream` node over an already-interned element.
    ///
    /// `params.user` must be `None` — pass the user type as the
    /// interned `user` id instead (rejected when it contains a
    /// stream, per the specification).
    pub fn stream(
        &self,
        element: TypeId,
        params: StreamParams,
        user: Option<TypeId>,
    ) -> Result<TypeId, SpecError> {
        debug_assert!(
            params.user.is_none(),
            "pass the user type as an interned id"
        );
        if let Some(user_id) = user {
            if self.node(user_id).contains_stream {
                return Err(SpecError::InvalidParameter {
                    parameter: "user",
                    message: "user types may not contain streams".into(),
                });
            }
        }
        let key = NodeKey::Stream {
            element,
            dimension: params.dimension,
            throughput: params.throughput,
            complexity: params.complexity,
            direction: params.direction,
            synchronicity: params.synchronicity,
            user,
            keep: params.keep,
        };
        self.insert(key, |store| {
            let elem = store.node(element);
            let user_node = user.map(|u| store.node(u));
            let mut full_params = params.clone();
            full_params.user = user_node.as_ref().map(|u| Box::new((*u.canonical).clone()));
            let canonical = LogicalType::Stream {
                element: Box::new((*elem.canonical).clone()),
                params: full_params,
            };
            // Mangled text mirrors `write_logical_type` minus spaces.
            let mut mangled = format!("Stream({}", elem.mangled);
            if params.dimension != 0 {
                let _ = write!(mangled, ",d={}", params.dimension);
            }
            if params.throughput != Throughput::one() {
                let _ = write!(mangled, ",t={}", params.throughput);
            }
            if params.complexity != Complexity::default() {
                let _ = write!(mangled, ",c={}", params.complexity);
            }
            if params.direction != Direction::Forward {
                let _ = write!(mangled, ",r={}", params.direction);
            }
            if params.synchronicity != Synchronicity::Sync {
                let _ = write!(mangled, ",x={}", params.synchronicity);
            }
            if let Some(u) = &user_node {
                let _ = write!(mangled, ",u={}", u.mangled);
            }
            if params.keep {
                mangled.push_str(",keep");
            }
            mangled.push(')');
            NodeBuild {
                canonical,
                bit_width: 0,
                mangled,
                contains_stream: true,
                is_null: elem.is_null && !params.keep,
                node_count: 1
                    + elem.node_count
                    + user_node.as_ref().map(|u| u.node_count).unwrap_or(0),
            }
        })
    }

    /// Interns an arbitrary type tree, reusing every already-interned
    /// subtree. O(tree size) on first sight, O(1)-amortized per node
    /// thereafter; prefer the typed constructors on hot paths.
    pub fn intern(&self, ty: &LogicalType) -> Result<TypeId, SpecError> {
        match ty {
            LogicalType::Null => Ok(self.null()),
            LogicalType::Bit(width) => self.bit(*width),
            LogicalType::Group(fields) => {
                let interned = self.intern_fields(fields)?;
                self.group(interned)
            }
            LogicalType::Union(fields) => {
                let interned = self.intern_fields(fields)?;
                self.union(interned)
            }
            LogicalType::Stream { element, params } => {
                let element_id = self.intern(element)?;
                let user_id = match &params.user {
                    Some(user) => Some(self.intern(user)?),
                    None => None,
                };
                let mut bare = params.clone();
                bare.user = None;
                self.stream(element_id, bare, user_id)
            }
        }
    }

    fn intern_fields(&self, fields: &[Field]) -> Result<Vec<(String, TypeId)>, SpecError> {
        fields
            .iter()
            .map(|f| Ok((f.name.clone(), self.intern(&f.ty)?)))
            .collect()
    }

    // ---- accessors (O(1)) -------------------------------------------------

    /// The canonical tree behind an id; structurally equal ids share
    /// the same `Arc`.
    pub fn ty(&self, id: TypeId) -> Arc<LogicalType> {
        Arc::clone(&self.node(id).canonical)
    }

    /// Cached element bit width.
    pub fn bit_width(&self, id: TypeId) -> u32 {
        self.node(id).bit_width
    }

    /// Cached canonical mangled text (display form, spaces removed).
    pub fn mangled(&self, id: TypeId) -> Arc<str> {
        Arc::clone(&self.node(id).mangled)
    }

    /// Whether the type is (or contains) a `Stream`.
    pub fn contains_stream(&self, id: TypeId) -> bool {
        self.node(id).contains_stream
    }

    /// Whether the type carries no information.
    pub fn is_null(&self, id: TypeId) -> bool {
        self.node(id).is_null
    }

    /// Cached total node count.
    pub fn node_count(&self, id: TypeId) -> usize {
        self.node(id).node_count
    }

    // ---- internals --------------------------------------------------------

    fn composite(
        &self,
        fields: Vec<(String, TypeId)>,
        is_group: bool,
    ) -> Result<TypeId, SpecError> {
        if !is_group && fields.is_empty() {
            return Err(SpecError::EmptyUnion);
        }
        for (i, (name, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(other, _)| other == name) {
                return Err(SpecError::DuplicateField(name.clone()));
            }
        }
        let key = if is_group {
            NodeKey::Group(fields.clone())
        } else {
            NodeKey::Union(fields.clone())
        };
        self.insert(key, |store| {
            let kind = if is_group { "Group" } else { "Union" };
            let mut mangled = format!("{kind}(");
            let mut bit_width = 0u32;
            let mut max_width = 0u32;
            let mut contains_stream = false;
            let mut all_null = true;
            let mut node_count = 1usize;
            let mut canonical_fields = Vec::with_capacity(fields.len());
            for (i, (name, child_id)) in fields.iter().enumerate() {
                let child = store.node(*child_id);
                if i > 0 {
                    mangled.push(',');
                }
                let _ = write!(mangled, "{name}:{}", child.mangled);
                bit_width += child.bit_width;
                max_width = max_width.max(child.bit_width);
                contains_stream |= child.contains_stream;
                all_null &= child.is_null;
                node_count += child.node_count;
                canonical_fields.push(Field::new(name.clone(), (*child.canonical).clone()));
            }
            mangled.push(')');
            let (canonical, width, is_null) = if is_group {
                (LogicalType::Group(canonical_fields), bit_width, all_null)
            } else {
                (
                    LogicalType::Union(canonical_fields),
                    max_width + union_tag_width(fields.len()),
                    fields.len() <= 1 && all_null,
                )
            };
            NodeBuild {
                canonical,
                bit_width: width,
                mangled,
                contains_stream,
                is_null,
                node_count,
            }
        })
    }

    /// The shared node behind an id (clones the `Arc` so no borrow of
    /// the intern map outlives the call).
    fn node(&self, id: TypeId) -> Arc<NodeData> {
        Arc::clone(&self.map.borrow().nodes[id.index()])
    }

    /// Dedup-or-insert: returns the existing id for `key` or builds
    /// the node via `build` (which may read already-interned nodes, so
    /// it runs with the intern map not borrowed).
    fn insert(
        &self,
        key: NodeKey,
        build: impl FnOnce(&Self) -> NodeBuild,
    ) -> Result<TypeId, SpecError> {
        if let Some(&slot) = self.map.borrow().dedup.get(&key) {
            self.intern_hits.set(self.intern_hits.get() + 1);
            return Ok(TypeId(slot));
        }
        let built = build(self);
        let data = Arc::new(NodeData {
            canonical: Arc::new(built.canonical),
            bit_width: built.bit_width,
            mangled: Arc::from(built.mangled.as_str()),
            contains_stream: built.contains_stream,
            is_null: built.is_null,
            node_count: built.node_count,
        });
        let mut map = self.map.borrow_mut();
        let slot = u32::try_from(map.nodes.len()).expect("type store overflow");
        map.nodes.push(data);
        map.dedup.insert(key, slot);
        Ok(TypeId(slot))
    }
}

/// The data `insert` needs to materialize one new node.
struct NodeBuild {
    canonical: LogicalType,
    bit_width: u32,
    mangled: String,
    contains_stream: bool,
    is_null: bool,
    node_count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deep(depth: u32) -> LogicalType {
        let mut ty = LogicalType::Bit(8);
        for level in 0..depth {
            ty = LogicalType::group(vec![
                ("left", ty.clone()),
                ("right", LogicalType::Bit(level + 1)),
            ]);
        }
        ty
    }

    #[test]
    fn interning_is_idempotent_and_shares() {
        let store = TypeStore::new();
        let a = store.intern(&deep(4)).unwrap();
        let b = store.intern(&deep(4)).unwrap();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&store.ty(a), &store.ty(b)));
        assert!(store.stats().intern_hits > 0);
    }

    #[test]
    fn distinct_types_get_distinct_ids() {
        let store = TypeStore::new();
        let a = store.intern(&deep(3)).unwrap();
        let b = store.intern(&deep(4)).unwrap();
        assert_ne!(a, b);
        assert_ne!(store.mangled(a), store.mangled(b));
    }

    #[test]
    fn subtrees_are_shared() {
        let store = TypeStore::new();
        store.intern(&deep(4)).unwrap();
        let before = store.len();
        // deep(5) only adds two nodes: the new group and its new Bit.
        store.intern(&deep(5)).unwrap();
        assert_eq!(store.len(), before + 2);
    }

    #[test]
    fn cached_properties_match_deep_representation() {
        let store = TypeStore::new();
        let samples = [
            LogicalType::Null,
            LogicalType::Bit(7),
            deep(3),
            LogicalType::union(vec![("a", LogicalType::Bit(3)), ("b", deep(2))]),
            LogicalType::stream(
                deep(2),
                StreamParams::new()
                    .with_dimension(2)
                    .with_complexity(Complexity::new(7).unwrap())
                    .with_throughput(Throughput::new(3, 2).unwrap())
                    .with_user(LogicalType::Bit(3))
                    .with_keep(true),
            ),
        ];
        for ty in samples {
            let id = store.intern(&ty).unwrap();
            assert_eq!(store.bit_width(id), ty.bit_width(), "{ty}");
            assert_eq!(store.node_count(id), ty.node_count(), "{ty}");
            assert_eq!(store.contains_stream(id), ty.contains_stream(), "{ty}");
            assert_eq!(store.is_null(id), ty.is_null(), "{ty}");
            assert_eq!(
                store.mangled(id).as_ref(),
                ty.to_string().replace(' ', ""),
                "{ty}"
            );
            assert_eq!(&*store.ty(id), &ty);
        }
    }

    #[test]
    fn constructors_validate_shallowly() {
        let store = TypeStore::new();
        assert_eq!(store.bit(0), Err(SpecError::ZeroWidthBit));
        let b = store.bit(1).unwrap();
        assert_eq!(
            store.group(vec![("x".into(), b), ("x".into(), b)]),
            Err(SpecError::DuplicateField("x".into()))
        );
        assert_eq!(store.union(vec![]), Err(SpecError::EmptyUnion));
        let s = store.stream(b, StreamParams::new(), None).unwrap();
        assert!(matches!(
            store.stream(b, StreamParams::new(), Some(s)),
            Err(SpecError::InvalidParameter {
                parameter: "user",
                ..
            })
        ));
    }

    #[test]
    fn stream_mangling_matches_display() {
        let store = TypeStore::new();
        let ty = LogicalType::stream(
            LogicalType::group(vec![("a", LogicalType::Bit(3)), ("b", LogicalType::Bit(5))]),
            StreamParams::new()
                .with_dimension(2)
                .with_complexity(Complexity::new(7).unwrap())
                .with_direction(Direction::Reverse)
                .with_synchronicity(Synchronicity::Flatten)
                .with_user(LogicalType::Bit(2))
                .with_keep(true),
        );
        let id = store.intern(&ty).unwrap();
        assert_eq!(store.mangled(id).as_ref(), ty.to_string().replace(' ', ""));
    }
}
