//! Property-based parity suite for the hash-consed type store: for
//! arbitrary valid logical types, the interned representation must
//! agree with the deep representation on **everything** —
//!
//! * id equality ⇔ structural equality (hash-consing is sound and
//!   complete),
//! * identical bit widths, node counts, stream/null classification,
//! * identical physical signal expansion,
//! * stable mangled names byte-identical to the historic
//!   `to_string().replace(' ', "")` form, with **no collisions**
//!   between distinct types (a collision would merge distinct
//!   template instances in generated VHDL).

use proptest::prelude::*;
use std::sync::Arc;
use tydi::spec::{
    lower, Complexity, Field, LogicalType, StreamParams, Synchronicity, Throughput, TypeStore,
};

/// A recursive strategy for arbitrary valid logical types (fields are
/// index-named, so generated composites never have duplicate names).
fn arb_type() -> impl Strategy<Value = LogicalType> {
    let leaf = prop_oneof![
        Just(LogicalType::Null),
        (1u32..=64).prop_map(LogicalType::Bit),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(|tys| {
                LogicalType::Group(
                    tys.into_iter()
                        .enumerate()
                        .map(|(i, t)| Field::new(format!("f{i}"), t))
                        .collect(),
                )
            }),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(|tys| {
                LogicalType::Union(
                    tys.into_iter()
                        .enumerate()
                        .map(|(i, t)| Field::new(format!("v{i}"), t))
                        .collect(),
                )
            }),
            (inner, arb_params()).prop_map(|(t, p)| LogicalType::stream(t, p)),
        ]
    })
}

fn arb_params() -> impl Strategy<Value = StreamParams> {
    (
        0u32..4,
        1u32..5,
        1u8..=8,
        prop_oneof![
            Just(Synchronicity::Sync),
            Just(Synchronicity::Flatten),
            Just(Synchronicity::Desync),
            Just(Synchronicity::FlatDesync)
        ],
        any::<bool>(),
        // Stream-free user sideband type, present half the time.
        prop_oneof![
            Just(None),
            (1u32..=8).prop_map(|w| Some(LogicalType::Bit(w)))
        ],
    )
        .prop_map(|(d, t, c, x, keep, user)| {
            let mut params = StreamParams::new()
                .with_dimension(d)
                .with_throughput(Throughput::new(t, 1).expect("positive"))
                .with_complexity(Complexity::new(c).expect("in range"))
                .with_synchronicity(x)
                .with_keep(keep);
            if let Some(user) = user {
                params = params.with_user(user);
            }
            params
        })
}

proptest! {
    #[test]
    fn id_equality_is_structural_equality(a in arb_type(), b in arb_type()) {
        let store = TypeStore::new();
        let ia = store.intern(&a).expect("valid by construction");
        let ib = store.intern(&b).expect("valid by construction");
        prop_assert_eq!(ia == ib, a == b);
        // Re-interning is idempotent and shares the canonical Arc.
        let ia2 = store.intern(&a).expect("valid");
        prop_assert_eq!(ia, ia2);
        prop_assert!(Arc::ptr_eq(&store.ty(ia), &store.ty(ia2)));
        prop_assert_eq!(&*store.ty(ia), &a);
    }

    #[test]
    fn cached_properties_match_deep_representation(ty in arb_type()) {
        let store = TypeStore::new();
        let id = store.intern(&ty).expect("valid by construction");
        prop_assert_eq!(store.bit_width(id), ty.bit_width());
        prop_assert_eq!(store.node_count(id), ty.node_count());
        prop_assert_eq!(store.contains_stream(id), ty.contains_stream());
        prop_assert_eq!(store.is_null(id), ty.is_null());
    }

    #[test]
    fn canonical_trees_lower_like_the_deep_type(ty in arb_type()) {
        let store = TypeStore::new();
        let id = store.intern(&ty).expect("valid by construction");
        match (lower(&store.ty(id)), lower(&ty)) {
            (Ok(interned), Ok(deep)) => prop_assert_eq!(interned, deep),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "expansion disagreement: {:?} vs {:?}", a, b),
        }
    }

    #[test]
    fn mangled_names_are_stable_and_collision_free(a in arb_type(), b in arb_type()) {
        let store = TypeStore::new();
        let ia = store.intern(&a).expect("valid");
        let ib = store.intern(&b).expect("valid");
        // Byte-identical to the historic display-minus-spaces mangling
        // (template instance names in generated VHDL depend on this).
        let mangled = store.mangled(ia);
        prop_assert_eq!(mangled.as_ref(), a.to_string().replace(' ', ""));
        // Distinct types never share a mangled name: that would merge
        // distinct template instances.
        if a != b {
            prop_assert_ne!(store.mangled(ia), store.mangled(ib));
        } else {
            prop_assert_eq!(store.mangled(ia), store.mangled(ib));
        }
    }
}
