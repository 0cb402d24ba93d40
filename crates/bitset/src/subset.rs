//! Fast enumeration of the subsets of a [`NodeSet`].
//!
//! The enumeration uses the classic Vance–Maier trick (`next = (cur − M) & M`), which walks all
//! subsets of a mask `M` in ascending numeric (mask) order without touching the bits outside of
//! `M`. Ascending mask order has the useful property that a set is always enumerated *after* all
//! of its subsets that are themselves subsets of `M`, which is exactly the order bottom-up
//! dynamic programming needs.
//!
//! For multi-word sets (`W > 1`) the subtraction generalizes to a ripple-borrow across the
//! words: `cur − M` is computed word by word from the least significant end, propagating the
//! borrow exactly like a `64 * W`-bit integer subtraction, and the trailing `& M` masks the
//! result back into the universe. The walk therefore stays branch-light and allocation-free at
//! every width, and `W = 1` compiles to the original single-word step.

use crate::NodeSet;

/// One Vance–Maier step: `(cur − universe) & universe` as a `64 * W`-bit integer operation.
#[inline]
fn vance_maier_step<const W: usize>(cur: [u64; W], universe: [u64; W]) -> [u64; W] {
    let mut out = [0u64; W];
    let mut borrow = false;
    for i in 0..W {
        let (d, b1) = cur[i].overflowing_sub(universe[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        borrow = b1 | b2;
        out[i] = d & universe[i];
    }
    out
}

/// Iterator over all non-empty subsets of a set, in ascending mask order.
///
/// ```
/// use qo_bitset::{NodeSet, SubsetIter};
///
/// let n: NodeSet = NodeSet::from_iter([1, 3]);
/// let subs: Vec<NodeSet> = SubsetIter::new(n).collect();
/// assert_eq!(subs, vec![
///     NodeSet::single(1),
///     NodeSet::single(3),
///     NodeSet::from_iter([1, 3]),
/// ]);
/// ```
#[derive(Clone, Debug)]
pub struct SubsetIter<const W: usize = 1> {
    universe: NodeSet<W>,
    current: NodeSet<W>,
    done: bool,
}

impl<const W: usize> SubsetIter<W> {
    /// Creates an iterator over all non-empty subsets of `universe`.
    #[inline]
    pub fn new(universe: NodeSet<W>) -> Self {
        SubsetIter {
            universe,
            current: NodeSet::EMPTY,
            done: universe.is_empty(),
        }
    }
}

impl<const W: usize> Iterator for SubsetIter<W> {
    type Item = NodeSet<W>;

    #[inline]
    fn next(&mut self) -> Option<NodeSet<W>> {
        if self.done {
            return None;
        }
        // Vance–Maier: next subset in ascending order (multi-word ripple-borrow subtract).
        self.current = NodeSet::from_words(vance_maier_step(
            self.current.words(),
            self.universe.words(),
        ));
        if self.current.is_empty() {
            self.done = true;
            return None;
        }
        if self.current == self.universe {
            // The full set is the last subset; mark done so that the next call terminates
            // without recomputing.
            self.done = true;
        }
        Some(self.current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let total = (1u128 << self.universe.len().min(127)) - 1;
        // We cannot cheaply tell how many subsets are left, only bound it.
        (0, usize::try_from(total).ok())
    }
}

/// Iterator over all non-empty *proper* subsets of a set, in ascending mask order.
///
/// `EnumerateCsgRec` and `EnumerateCmpRec` of the paper iterate over "each non-empty subset" of
/// the neighborhood, including the full neighborhood, so they use [`SubsetIter`]; DPsub on the
/// other hand needs proper subsets `S1 ⊂ S` to split a set into two non-empty halves.
#[derive(Clone, Debug)]
pub struct ProperSubsetIter<const W: usize = 1> {
    inner: SubsetIter<W>,
    universe: NodeSet<W>,
}

impl<const W: usize> ProperSubsetIter<W> {
    /// Creates an iterator over all non-empty proper subsets of `universe`.
    #[inline]
    pub fn new(universe: NodeSet<W>) -> Self {
        ProperSubsetIter {
            inner: SubsetIter::new(universe),
            universe,
        }
    }
}

impl<const W: usize> Iterator for ProperSubsetIter<W> {
    type Item = NodeSet<W>;

    #[inline]
    fn next(&mut self) -> Option<NodeSet<W>> {
        let next = self.inner.next()?;
        if next == self.universe {
            return None;
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeSet128, NodeSet64};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The walk resumed *after* `position`, a subset of `universe`: its first subset is the
    /// successor of `position` in ascending mask order. It lets the boundary tests check the
    /// end of a full 64- or 128-bit universe without enumerating every subset before it.
    fn resuming_after<const W: usize>(universe: NodeSet<W>, position: NodeSet<W>) -> SubsetIter<W> {
        assert!(position.is_subset_of(universe));
        SubsetIter {
            universe,
            current: position,
            done: universe.is_empty() || position == universe,
        }
    }

    fn brute_force_subsets<const W: usize>(universe: NodeSet<W>) -> Vec<NodeSet<W>> {
        let members: Vec<_> = universe.iter().collect();
        let mut out = Vec::new();
        for mask in 1u64..(1u64 << members.len()) {
            let mut s = NodeSet::EMPTY;
            for (i, &m) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(m);
                }
            }
            out.push(s);
        }
        out.sort();
        out
    }

    #[test]
    fn empty_universe_yields_nothing() {
        assert_eq!(SubsetIter::new(NodeSet64::EMPTY).count(), 0);
        assert_eq!(ProperSubsetIter::new(NodeSet64::EMPTY).count(), 0);
        assert_eq!(SubsetIter::new(NodeSet128::EMPTY).count(), 0);
    }

    #[test]
    fn singleton_universe() {
        let u = NodeSet64::single(5);
        assert_eq!(SubsetIter::new(u).collect::<Vec<_>>(), vec![u]);
        assert_eq!(ProperSubsetIter::new(u).count(), 0);
        let w = NodeSet128::single(100);
        assert_eq!(SubsetIter::new(w).collect::<Vec<_>>(), vec![w]);
        assert_eq!(ProperSubsetIter::new(w).count(), 0);
    }

    #[test]
    fn subsets_of_three_elements() {
        let u = NodeSet64::from_iter([0, 2, 4]);
        let subs: Vec<_> = SubsetIter::new(u).collect();
        assert_eq!(subs.len(), 7);
        // Ascending mask order.
        for w in subs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Last subset is the full set.
        assert_eq!(*subs.last().unwrap(), u);
        // Proper subsets exclude the full set.
        let proper: Vec<_> = ProperSubsetIter::new(u).collect();
        assert_eq!(proper.len(), 6);
        assert!(!proper.contains(&u));
    }

    #[test]
    fn wide_subsets_straddling_the_word_boundary() {
        // Universe {62, 63, 64, 65}: the ripple-borrow must carry between the words.
        let u = NodeSet128::from_iter([62, 63, 64, 65]);
        let subs: Vec<_> = SubsetIter::new(u).collect();
        assert_eq!(subs.len(), 15);
        for w in subs.windows(2) {
            assert!(w[0] < w[1], "not ascending: {:?} then {:?}", w[0], w[1]);
        }
        assert_eq!(subs, brute_force_subsets(u));
        assert_eq!(*subs.last().unwrap(), u);
        // Proper subsets exclude the full set.
        assert_eq!(ProperSubsetIter::new(u).count(), 14);
    }

    #[test]
    fn wide_subsets_with_high_word_only_members() {
        let u = NodeSet128::from_iter([64, 80, 127]);
        let subs: Vec<_> = SubsetIter::new(u).collect();
        assert_eq!(subs, brute_force_subsets(u));
    }

    #[test]
    fn iterator_is_fused_after_exhaustion() {
        let mut it = SubsetIter::new(NodeSet64::from_iter([1, 2]));
        assert_eq!(it.by_ref().count(), 3);
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn full_64_bit_universe_starts_correctly() {
        // Just make sure nothing overflows with a full mask; don't enumerate 2^64 subsets.
        let mut it = SubsetIter::new(NodeSet64::from_mask(u64::MAX));
        assert_eq!(it.next(), Some(NodeSet::single(0)));
        assert_eq!(it.next(), Some(NodeSet::single(1)));
        assert_eq!(it.next(), Some(NodeSet::from_iter([0, 1])));
    }

    #[test]
    fn full_64_bit_universe_terminates_without_short_cycling() {
        // Regression test for the n == 64 boundary of subset-driven enumeration (DPsub): the
        // walk's counter covers the full u64 range, so a naive `cur - 1` / `cur + 1` loop would
        // wrap and either cycle forever or terminate one subset early. Resume the walk just
        // before the end of the full universe and check the exact tail and termination.
        let universe = NodeSet64::from_mask(u64::MAX);
        let mut it = resuming_after(universe, NodeSet::from_mask(u64::MAX - 2));
        assert_eq!(it.next(), Some(NodeSet::from_mask(u64::MAX - 1)));
        assert_eq!(it.next(), Some(NodeSet::from_mask(u64::MAX)));
        assert_eq!(it.next(), None, "walk must stop after the full set");
        assert_eq!(it.next(), None, "iterator must stay fused");
        // Resuming *at* the full set yields nothing.
        let mut it = resuming_after(universe, universe);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn full_128_bit_universe_terminates_without_short_cycling() {
        // Same boundary for the widened walk: the last few subsets of a full 128-bit universe.
        let universe = NodeSet128::first_n(128);
        let penultimate = universe - NodeSet::single(0);
        let mut it = resuming_after(universe, penultimate - NodeSet::single(1));
        assert_eq!(it.next(), Some(universe - NodeSet::single(1)));
        assert_eq!(it.next(), Some(universe - NodeSet::single(0)));
        assert_eq!(it.next(), Some(universe));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    /// The boundary tests trust `resuming_after` to put the walk in a state the iterator
    /// itself reaches: resumed anywhere, it yields exactly the uninterrupted walk's tail.
    #[test]
    fn resuming_mid_walk_matches_the_uninterrupted_walk() {
        let u = NodeSet64::from_iter([0, 1, 3, 5, 8]);
        let full: Vec<_> = SubsetIter::new(u).collect();
        for (i, &pos) in full.iter().enumerate() {
            let resumed: Vec<_> = resuming_after(u, pos).collect();
            assert_eq!(resumed, full[i + 1..], "resume after {pos:?}");
        }
    }

    #[test]
    fn subsets_ordered_after_their_subsets() {
        // Dynamic programming requirement: if A ⊂ B both appear, A appears before B.
        let u = NodeSet64::from_iter([0, 1, 3, 5]);
        let subs: Vec<_> = SubsetIter::new(u).collect();
        for (i, a) in subs.iter().enumerate() {
            for b in &subs[i + 1..] {
                assert!(!b.is_proper_subset_of(*a), "{b:?} after its superset {a:?}");
            }
        }
    }

    #[test]
    fn wide_subsets_ordered_after_their_subsets() {
        let u = NodeSet128::from_iter([0, 63, 64, 90, 127]);
        let subs: Vec<_> = SubsetIter::new(u).collect();
        assert_eq!(subs.len(), 31);
        for (i, a) in subs.iter().enumerate() {
            for b in &subs[i + 1..] {
                assert!(!b.is_proper_subset_of(*a), "{b:?} after its superset {a:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_subset_enumeration_is_complete_and_duplicate_free(
            nodes in proptest::collection::btree_set(0usize..64, 1..12)
        ) {
            let u: NodeSet = nodes.iter().copied().collect();
            let enumerated: Vec<_> = SubsetIter::new(u).collect();
            let expected = brute_force_subsets(u);
            let as_set: BTreeSet<_> = enumerated.iter().copied().collect();
            prop_assert_eq!(enumerated.len(), expected.len(), "duplicates emitted");
            prop_assert_eq!(as_set, expected.into_iter().collect::<BTreeSet<_>>());
            // every emitted set is a non-empty subset of u
            for s in &enumerated {
                prop_assert!(!s.is_empty());
                prop_assert!(s.is_subset_of(u));
            }
        }

        #[test]
        fn prop_proper_subsets_are_subsets_minus_universe(
            nodes in proptest::collection::btree_set(0usize..64, 1..12)
        ) {
            let u: NodeSet = nodes.iter().copied().collect();
            let all: BTreeSet<_> = SubsetIter::new(u).collect();
            let mut proper: BTreeSet<_> = ProperSubsetIter::new(u).collect();
            prop_assert!(!proper.contains(&u));
            proper.insert(u);
            prop_assert_eq!(proper, all);
        }

        #[test]
        fn prop_wide_subset_enumeration_matches_brute_force(
            nodes in proptest::collection::btree_set(0usize..128, 1..12)
        ) {
            let u: NodeSet128 = nodes.iter().copied().collect();
            let enumerated: Vec<_> = SubsetIter::new(u).collect();
            prop_assert_eq!(enumerated, brute_force_subsets(u));
        }
    }
}
