//! Relation node sets and fast subset enumeration.
//!
//! Join-order enumeration manipulates sets of relations at a very high rate. Following the
//! DPhyp paper (Moerkotte & Neumann, SIGMOD 2008) and the subset-enumeration technique of
//! Vance & Maier, this crate represents a set of relations as a fixed-width multi-word bit mask
//! ([`NodeSet<W>`](NodeSet), an array of `W` `u64` words) and provides branch-free set algebra
//! plus iterators over
//!
//! * the elements of a set ([`NodeSet::iter`], ascending and [`NodeSet::iter_descending`]),
//! * all non-empty subsets of a set ([`SubsetIter`], multi-word Vance–Maier walk),
//! * all *proper*, non-empty subsets ([`NodeSet::proper_subsets`]).
//!
//! The width is a const generic defaulting to one word: plain `NodeSet` in type positions is
//! [`NodeSet64`] (up to [`MAX_NODES`] = 64 relations, covering the query sizes evaluated in the
//! paper), and it compiles to exactly the single-`u64` code of the pre-widening representation.
//! [`NodeSet128`] (`W = 2`) opens the >64-relation workload tier; each `NodeSet<W>` holds up to
//! `NodeSet::<W>::CAPACITY = 64 * W` relations. The planner facade in `dphyp` picks the width
//! once per optimization based on the query's node count.

mod node_set;
mod subset;

pub use node_set::{
    NodeId, NodeSet, NodeSet128, NodeSet64, NodeSetIter, NodeSetRevIter, MAX_NODES,
};
pub use subset::{ProperSubsetIter, SubsetIter};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_reexports_work() {
        let s: NodeSet = NodeSet::from_iter([0, 2, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(SubsetIter::new(s).count(), 7);
        assert_eq!(ProperSubsetIter::new(s).count(), 6);
    }

    #[test]
    fn width_aliases_are_consistent() {
        assert_eq!(NodeSet64::CAPACITY, MAX_NODES);
        assert_eq!(NodeSet128::CAPACITY, 2 * MAX_NODES);
        // `NodeSet` without a width parameter is the single-word alias.
        let s: NodeSet = NodeSet64::single(3);
        assert_eq!(s, NodeSet::single(3));
    }
}

/// Model-based tests of the wide (`W = 2`) node set against a `BTreeSet<usize>` oracle,
/// mirrored against [`NodeSet64`] whenever the members fit in one word.
///
/// CI runs this module explicitly (`cargo test -p qo-bitset wide_model`) so the two-word path
/// cannot rot even if no default-width test happens to touch it.
#[cfg(test)]
mod wide_model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The oracle result of an operation, computed on `BTreeSet<usize>`.
    fn model_op(op: char, a: &BTreeSet<usize>, b: &BTreeSet<usize>) -> BTreeSet<usize> {
        match op {
            '|' => a.union(b).copied().collect(),
            '&' => a.intersection(b).copied().collect(),
            '-' => a.difference(b).copied().collect(),
            '^' => a.symmetric_difference(b).copied().collect(),
            _ => unreachable!(),
        }
    }

    fn wide_op(op: char, a: NodeSet128, b: NodeSet128) -> NodeSet128 {
        match op {
            '|' => a | b,
            '&' => a & b,
            '-' => a - b,
            '^' => a ^ b,
            _ => unreachable!(),
        }
    }

    fn narrow_op(op: char, a: NodeSet64, b: NodeSet64) -> NodeSet64 {
        match op {
            '|' => a | b,
            '&' => a & b,
            '-' => a - b,
            '^' => a ^ b,
            _ => unreachable!(),
        }
    }

    proptest! {
        /// All binary set operations on random `NodeSet<2>` pairs match the `BTreeSet` model,
        /// and — when every member fits in one word — the `NodeSet64` result as well.
        #[test]
        fn prop_wide_set_ops_match_model_and_narrow_mirror(
            a in proptest::collection::btree_set(0usize..128, 0..24),
            b in proptest::collection::btree_set(0usize..128, 0..24),
        ) {
            let wa: NodeSet128 = a.iter().copied().collect();
            let wb: NodeSet128 = b.iter().copied().collect();
            let fits = a.iter().chain(b.iter()).all(|&n| n < 64);
            for op in ['|', '&', '-', '^'] {
                let expected = model_op(op, &a, &b);
                let got = wide_op(op, wa, wb);
                prop_assert_eq!(
                    got.iter().collect::<BTreeSet<_>>(),
                    expected.clone(),
                    "wide {} mismatch", op
                );
                if fits {
                    let na: NodeSet64 = a.iter().copied().collect();
                    let nb: NodeSet64 = b.iter().copied().collect();
                    let narrow = narrow_op(op, na, nb);
                    prop_assert_eq!(
                        narrow.iter().collect::<BTreeSet<_>>(),
                        got.iter().collect::<BTreeSet<_>>(),
                        "narrow/wide {} mismatch", op
                    );
                }
            }
            // Relational predicates agree with the model too.
            prop_assert_eq!(wa.is_subset_of(wb), a.is_subset(&b));
            prop_assert_eq!(wa.is_disjoint(wb), a.is_disjoint(&b));
            prop_assert_eq!(wa == wb, a == b);
        }

        /// `min_node`, `max_node`, `len` and element iteration match the model.
        #[test]
        fn prop_wide_accessors_match_model(
            nodes in proptest::collection::btree_set(0usize..128, 0..24),
        ) {
            let w: NodeSet128 = nodes.iter().copied().collect();
            prop_assert_eq!(w.len(), nodes.len());
            prop_assert_eq!(w.min_node(), nodes.iter().next().copied());
            prop_assert_eq!(w.max_node(), nodes.iter().next_back().copied());
            prop_assert_eq!(w.iter().collect::<Vec<_>>(),
                            nodes.iter().copied().collect::<Vec<_>>());
            let mut desc: Vec<_> = nodes.iter().copied().collect();
            desc.reverse();
            prop_assert_eq!(w.iter_descending().collect::<Vec<_>>(), desc);
            prop_assert_eq!(w.is_empty(), nodes.is_empty());
            prop_assert_eq!(w.is_singleton(), nodes.len() == 1);
            if let Some(&min) = nodes.iter().next() {
                prop_assert_eq!(w.min_singleton(), NodeSet128::single(min));
                let rest: BTreeSet<_> = nodes.iter().copied().skip(1).collect();
                prop_assert_eq!(w.without_min(), rest.into_iter().collect::<NodeSet128>());
            }
        }

        /// Subset enumeration is complete, duplicate-free, in ascending order, and — for
        /// low-word-only universes — identical to the `NodeSet64` walk.
        #[test]
        fn prop_wide_subset_enumeration_order(
            nodes in proptest::collection::btree_set(0usize..128, 1..10),
        ) {
            let u: NodeSet128 = nodes.iter().copied().collect();
            let subs: Vec<_> = u.subsets().collect();
            prop_assert_eq!(subs.len(), (1usize << nodes.len()) - 1);
            for w in subs.windows(2) {
                prop_assert!(w[0] < w[1], "not ascending");
            }
            for s in &subs {
                prop_assert!(!s.is_empty());
                prop_assert!(s.is_subset_of(u));
            }
            if nodes.iter().all(|&n| n < 64) {
                let nu: NodeSet64 = nodes.iter().copied().collect();
                let narrow: Vec<BTreeSet<usize>> =
                    nu.subsets().map(|s| s.iter().collect()).collect();
                let wide: Vec<BTreeSet<usize>> =
                    subs.iter().map(|s| s.iter().collect()).collect();
                prop_assert_eq!(narrow, wide, "wide walk must mirror the narrow walk");
            }
        }
    }
}
