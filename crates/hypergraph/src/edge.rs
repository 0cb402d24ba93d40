//! Hyperedges of the query graph.

use qo_bitset::NodeSet;
use std::fmt;

/// Index of a hyperedge in its [`Hypergraph`](crate::Hypergraph).
///
/// Edge ids are stable across the lifetime of a graph and are used by the catalog to attach
/// selectivities and by the algebra layer to attach operators and predicates.
pub type EdgeId = usize;

/// A (generalized) hyperedge `(u, v, w)` of the query hypergraph.
///
/// * `left` (`u`) and `right` (`v`) are non-empty, disjoint hypernodes: all relations in `u`
///   must end up on one side of the join and all relations in `v` on the other side.
/// * `flex` (`w`) is the — usually empty — set of relations that may appear on *either* side
///   (Def. 6 of the paper). A plain hyperedge in the sense of Def. 1 has `flex = ∅`; a simple
///   edge additionally has `|u| = |v| = 1`.
///
/// The edge is undirected: `(u, v, w)` and `(v, u, w)` describe the same predicate. The
/// [`Hypergraph`](crate::Hypergraph) takes care of traversing it in both directions.
///
/// The width parameter `W` (defaulting to the single-word [`qo_bitset::NodeSet64`]) matches the
/// width of the graph the edge belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hyperedge<const W: usize = 1> {
    left: NodeSet<W>,
    right: NodeSet<W>,
    flex: NodeSet<W>,
}

impl<const W: usize> Hyperedge<W> {
    /// Creates a new hyperedge `(left, right)` with no flexible nodes.
    ///
    /// # Panics
    /// Panics if either side is empty or the sides are not disjoint.
    pub fn new(left: NodeSet<W>, right: NodeSet<W>) -> Self {
        Self::generalized(left, right, NodeSet::EMPTY)
    }

    /// Creates a simple edge `({a}, {b})`.
    pub fn simple(a: usize, b: usize) -> Self {
        Self::new(NodeSet::single(a), NodeSet::single(b))
    }

    /// Creates a generalized hyperedge `(left, right, flex)` (Def. 6).
    ///
    /// # Panics
    /// Panics if `left` or `right` is empty, or if the three sets are not pairwise disjoint.
    pub fn generalized(left: NodeSet<W>, right: NodeSet<W>, flex: NodeSet<W>) -> Self {
        assert!(!left.is_empty(), "hyperedge with empty left hypernode");
        assert!(!right.is_empty(), "hyperedge with empty right hypernode");
        assert!(
            left.is_disjoint(right),
            "hypernodes of an edge must be disjoint"
        );
        assert!(
            flex.is_disjoint(left) && flex.is_disjoint(right),
            "flexible nodes must be disjoint from both hypernodes"
        );
        Hyperedge { left, right, flex }
    }

    /// The left hypernode `u`.
    #[inline]
    pub fn left(&self) -> NodeSet<W> {
        self.left
    }

    /// The right hypernode `v`.
    #[inline]
    pub fn right(&self) -> NodeSet<W> {
        self.right
    }

    /// The flexible node set `w` (empty for ordinary hyperedges).
    #[inline]
    pub fn flex(&self) -> NodeSet<W> {
        self.flex
    }

    /// All nodes referenced by the edge: `u ∪ v ∪ w`.
    #[inline]
    pub fn all_nodes(&self) -> NodeSet<W> {
        self.left | self.right | self.flex
    }

    /// Is this a simple edge (`|u| = |v| = 1`, `w = ∅`)?
    #[inline]
    pub fn is_simple(&self) -> bool {
        self.left.is_singleton() && self.right.is_singleton() && self.flex.is_empty()
    }

    /// Is this a generalized edge (non-empty `w`)?
    #[inline]
    pub fn is_generalized(&self) -> bool {
        !self.flex.is_empty()
    }

    /// Does this edge connect `s1` to `s2` in the sense of Def. 4 / Def. 7?
    ///
    /// That is: one hypernode is contained in `s1`, the other in `s2`, and all flexible nodes
    /// are contained in `s1 ∪ s2`.
    #[inline]
    pub fn connects(&self, s1: NodeSet<W>, s2: NodeSet<W>) -> bool {
        if !self.flex.is_subset_of(s1 | s2) {
            return false;
        }
        (self.left.is_subset_of(s1) && self.right.is_subset_of(s2))
            || (self.left.is_subset_of(s2) && self.right.is_subset_of(s1))
    }

    /// Given a set `origin` that fully contains one hypernode of the edge, returns the hypernode
    /// on the *other* side, with flexible nodes not already in `origin` attached to it
    /// (`v ∪ (w \ origin)`, cf. Sec. 6). Returns `None` if neither hypernode is contained in
    /// `origin`, or if the target side intersects `origin`.
    #[inline]
    pub fn target_from(&self, origin: NodeSet<W>) -> Option<NodeSet<W>> {
        let (from, to) = if self.left.is_subset_of(origin) {
            (self.left, self.right)
        } else if self.right.is_subset_of(origin) {
            (self.right, self.left)
        } else {
            return None;
        };
        debug_assert!(from.is_subset_of(origin));
        let target = to | (self.flex - origin);
        if target.intersects(origin) {
            return None;
        }
        Some(target)
    }
}

impl<const W: usize> fmt::Debug for Hyperedge<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.flex.is_empty() {
            write!(f, "({:?} — {:?})", self.left, self.right)
        } else {
            write!(
                f,
                "({:?} — {:?} | flex {:?})",
                self.left, self.right, self.flex
            )
        }
    }
}

impl<const W: usize> fmt::Display for Hyperedge<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_bitset::{NodeSet, NodeSet128};

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    #[test]
    fn simple_edge_properties() {
        let e = Hyperedge::<1>::simple(1, 2);
        assert!(e.is_simple());
        assert!(!e.is_generalized());
        assert_eq!(e.left(), NodeSet::single(1));
        assert_eq!(e.right(), NodeSet::single(2));
        assert_eq!(e.all_nodes(), ns(&[1, 2]));
    }

    #[test]
    fn paper_example_hyperedge() {
        // ({R1,R2,R3}, {R4,R5,R6}) from Fig. 2 (0-based: ({0,1,2},{3,4,5})).
        let e = Hyperedge::new(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        assert!(!e.is_simple());
        assert!(e.connects(ns(&[0, 1, 2]), ns(&[3, 4, 5])));
        assert!(e.connects(ns(&[3, 4, 5]), ns(&[0, 1, 2])));
        // Supersets on both sides still connect.
        assert!(e.connects(ns(&[0, 1, 2, 6]), ns(&[3, 4, 5, 7])));
        // A missing member of one hypernode breaks the connection.
        assert!(!e.connects(ns(&[0, 1]), ns(&[3, 4, 5])));
    }

    #[test]
    fn wide_edge_across_the_word_boundary() {
        let wns = |v: &[usize]| -> NodeSet128 { v.iter().copied().collect() };
        let e = Hyperedge::new(wns(&[60, 61]), wns(&[64, 100]));
        assert!(e.connects(wns(&[60, 61, 5]), wns(&[64, 100, 127])));
        assert!(!e.connects(wns(&[60]), wns(&[64, 100])));
        assert_eq!(e.target_from(wns(&[60, 61])), Some(wns(&[64, 100])));
        assert!(Hyperedge::<2>::simple(63, 64).is_simple());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_hypernodes_panic() {
        let _ = Hyperedge::new(ns(&[0, 1]), ns(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "empty left")]
    fn empty_left_hypernode_panics() {
        let _ = Hyperedge::new(NodeSet::<1>::EMPTY, ns(&[1]));
    }

    #[test]
    fn target_from_resolves_other_side() {
        let e = Hyperedge::new(ns(&[0, 1]), ns(&[3, 4]));
        assert_eq!(e.target_from(ns(&[0, 1, 2])), Some(ns(&[3, 4])));
        assert_eq!(e.target_from(ns(&[3, 4])), Some(ns(&[0, 1])));
        // Neither side contained.
        assert_eq!(e.target_from(ns(&[0, 3])), None);
        // Target intersecting the origin is rejected.
        assert_eq!(e.target_from(ns(&[0, 1, 3])), None);
    }

    #[test]
    fn generalized_edge_connectivity() {
        // (u={0}, v={3}, w={1,2}): 1 and 2 may go to either side.
        let e = Hyperedge::generalized(ns(&[0]), ns(&[3]), ns(&[1, 2]));
        assert!(e.is_generalized());
        assert!(e.connects(ns(&[0, 1]), ns(&[2, 3])));
        assert!(e.connects(ns(&[0, 1, 2]), ns(&[3])));
        // Flexible node missing from both sides: not connected.
        assert!(!e.connects(ns(&[0]), ns(&[3])));
    }

    #[test]
    fn generalized_target_includes_remaining_flex() {
        // Given V1 ⊇ u, the neighbouring hypernode must be v ∪ (w \ V1)  (Sec. 6).
        let e = Hyperedge::generalized(ns(&[0]), ns(&[3]), ns(&[1, 2]));
        assert_eq!(e.target_from(ns(&[0, 1])), Some(ns(&[2, 3])));
        assert_eq!(e.target_from(ns(&[0, 1, 2])), Some(ns(&[3])));
        assert_eq!(e.target_from(ns(&[0])), Some(ns(&[1, 2, 3])));
    }

    #[test]
    fn display_formats() {
        let e = Hyperedge::<1>::simple(0, 1);
        assert_eq!(format!("{e}"), "({R0} — {R1})");
        let g = Hyperedge::generalized(ns(&[0]), ns(&[2]), ns(&[1]));
        assert!(format!("{g}").contains("flex"));
    }
}
