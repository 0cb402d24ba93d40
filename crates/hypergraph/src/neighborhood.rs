//! Neighborhood computation `N(S, X)` (Sec. 2.3 of the paper).
//!
//! The neighborhood of a connected set `S` under an exclusion set `X` is the set of
//! *representative* nodes through which `S` can be extended:
//!
//! 1. collect every hypernode `v` reachable over an edge `(u, v)` with `u ⊆ S` such that `v`
//!    touches neither `S` nor `X` (the set `E↓'(S, X)`),
//! 2. drop hypernodes that are subsumed by a smaller reachable hypernode (`E↓(S, X)`),
//! 3. take `min(v)` of each remaining hypernode (Eq. 1).
//!
//! Simple edges contribute their (singleton) endpoints directly via the precomputed per-node
//! neighbor masks, or via their union over `S` when an enumerator threads it through its
//! recursion; only the complex/generalized edges need to be scanned.

use crate::graph::Hypergraph;
use qo_bitset::NodeSet;

/// Complex-edge candidates [`Hypergraph::neighborhood_with`] keeps on the stack; only a set
/// that reaches more hypernodes than this spills its candidate list to the heap.
const INLINE_CANDIDATES: usize = 8;

impl<const W: usize> Hypergraph<W> {
    /// Computes the neighborhood `N(S, X)` of `s` under the exclusion set `x`.
    ///
    /// The returned set contains only representative (minimum) nodes of reachable hypernodes;
    /// hypernodes with more than one element must be completed by the caller when it expands the
    /// set (the enumeration algorithms do this implicitly through the connectivity check against
    /// the DP table, exactly as described in the paper).
    pub fn neighborhood(&self, s: NodeSet<W>, x: NodeSet<W>) -> NodeSet<W> {
        self.neighborhood_with(s, x, self.simple_neighbor_union(s))
    }

    /// [`neighborhood`](Self::neighborhood) of `s` given its
    /// [`simple_neighbor_union`](Self::simple_neighbor_union), which an enumerator threads
    /// through its recursion instead of recomputing it from every member of `s`.
    pub fn neighborhood_with(
        &self,
        s: NodeSet<W>,
        x: NodeSet<W>,
        simple_union: NodeSet<W>,
    ) -> NodeSet<W> {
        debug_assert_eq!(simple_union, self.simple_neighbor_union(s));
        let forbidden = s | x;
        // Simple edges: all endpoints adjacent to S that are not forbidden.
        let mut n = simple_union - forbidden;

        if !self.has_complex_edges() {
            return n;
        }

        // Complex and generalized edges: collect candidate hypernodes E↓'(S, X), inline up to
        // INLINE_CANDIDATES of them.
        let mut inline = [NodeSet::EMPTY; INLINE_CANDIDATES];
        let mut len = 0;
        let mut spilled: Vec<NodeSet<W>> = Vec::new();
        for &eid in self.complex_edge_ids() {
            let edge = self.edge(eid);
            let Some(target) = edge.target_from(s) else {
                continue;
            };
            if target.intersects(forbidden) {
                continue;
            }
            if target.is_singleton() {
                // A singleton hypernode behaves exactly like a simple-edge neighbor (and
                // subsumes every larger candidate containing it).
                n |= target;
            } else if len < INLINE_CANDIDATES {
                inline[len] = target;
                len += 1;
            } else {
                if spilled.is_empty() {
                    spilled.extend_from_slice(&inline);
                }
                spilled.push(target);
            }
        }
        let candidates = if spilled.is_empty() {
            &inline[..len]
        } else {
            &spilled[..]
        };

        // Subsumption elimination: keep only minimal hypernodes (E↓(S, X)), then add their
        // representatives min(v).
        'outer: for (i, &v) in candidates.iter().enumerate() {
            // Subsumed by a singleton neighbor already present?
            if v.intersects(n) {
                continue;
            }
            for (j, &u) in candidates.iter().enumerate() {
                if i == j {
                    continue;
                }
                if u.is_proper_subset_of(v) || (u == v && j < i) {
                    continue 'outer;
                }
            }
            n |= v.min_singleton();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::INLINE_CANDIDATES;
    use crate::graph::tests::{next, random_graph};
    use crate::{Hyperedge, Hypergraph};
    use qo_bitset::NodeSet;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// Fig. 2 of the paper, 0-based.
    fn fig2() -> Hypergraph {
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(ns(&[0, 1, 2]), ns(&[3, 4, 5]));
        b.build()
    }

    #[test]
    fn paper_example_neighborhood() {
        // "For our hypergraph in Fig. 2 and with X = S = {R1,R2,R3}, we have N(S,X) = {R4}"
        // (1-based in the paper; {R0,R1,R2} → {R3} here).
        let g = fig2();
        let s = ns(&[0, 1, 2]);
        assert_eq!(g.neighborhood(s, s), NodeSet::single(3));
    }

    #[test]
    fn simple_neighbors_respect_exclusion() {
        let g = fig2();
        // N({R1}, {R0,R1}) = {R2}: R0 is excluded.
        assert_eq!(g.neighborhood(ns(&[1]), ns(&[0, 1])), ns(&[2]));
        // N({R1}, {R0,R1,R2}) = ∅.
        assert_eq!(g.neighborhood(ns(&[1]), ns(&[0, 1, 2])), NodeSet::EMPTY);
    }

    #[test]
    fn hyperedge_not_reachable_from_partial_hypernode() {
        let g = fig2();
        // From {R0,R1} the hyperedge cannot be traversed: its left hypernode {R0,R1,R2} is not
        // fully contained, and R2 is reachable only via the simple edge.
        assert_eq!(g.neighborhood(ns(&[0, 1]), ns(&[0, 1])), ns(&[2]));
    }

    #[test]
    fn hyperedge_target_excluded_when_it_touches_x() {
        let g = fig2();
        let s = ns(&[0, 1, 2]);
        // Excluding R4 (a non-representative member of the target hypernode) removes the whole
        // hypernode from the neighborhood.
        assert_eq!(g.neighborhood(s, s | NodeSet::single(4)), NodeSet::EMPTY);
    }

    #[test]
    fn subsumed_hypernodes_are_dropped() {
        // Two hyperedges from {0}: one to {2,3}, one to {2,3,4}. The latter is subsumed.
        let mut b = Hypergraph::builder(5);
        b.add_hyperedge(ns(&[0]), ns(&[2, 3]));
        b.add_hyperedge(ns(&[0]), ns(&[2, 3, 4]));
        b.add_simple_edge(0, 1);
        let g = b.build();
        // Neighborhood of {0}: R1 (simple) and R2 (representative of {2,3}); the hypernode
        // {2,3,4} is subsumed by {2,3} so R2 is not added twice and R4 never becomes a
        // representative.
        assert_eq!(g.neighborhood(ns(&[0]), ns(&[0])), ns(&[1, 2]));
    }

    #[test]
    fn singleton_hyperedge_target_subsumes_larger() {
        // Hyperedges from {0,1} to {3} and to {3,4}: the singleton {3} subsumes {3,4}.
        let mut b = Hypergraph::builder(5);
        b.add_simple_edge(0, 1);
        b.add_hyperedge(ns(&[0, 1]), ns(&[3, 4]));
        b.add_hyperedge(ns(&[0, 1]), ns(&[3]));
        let g = b.build();
        assert_eq!(g.neighborhood(ns(&[0, 1]), ns(&[0, 1])), ns(&[3]));
    }

    #[test]
    fn identical_hypernodes_counted_once() {
        let mut b = Hypergraph::builder(5);
        b.add_hyperedge(ns(&[0]), ns(&[2, 3]));
        b.add_hyperedge(ns(&[0]), ns(&[2, 3]));
        let g = b.build();
        assert_eq!(g.neighborhood(ns(&[0]), ns(&[0])), ns(&[2]));
    }

    #[test]
    fn generalized_edge_neighborhood_uses_remaining_flex() {
        // Edge ({0}, {3}, flex {1,2}).
        let mut b = Hypergraph::builder(4);
        b.add_edge(Hyperedge::generalized(ns(&[0]), ns(&[3]), ns(&[1, 2])));
        let g = b.build();
        // From {0}: target hypernode is {3} ∪ ({1,2} \ {0}) = {1,2,3}; representative is R1.
        assert_eq!(g.neighborhood(ns(&[0]), ns(&[0])), ns(&[1]));
        // From {0,1,2}: target is just {3}.
        assert_eq!(g.neighborhood(ns(&[0, 1, 2]), ns(&[0, 1, 2])), ns(&[3]));
        // From {0,1}: target is {2,3}, representative R2.
        assert_eq!(g.neighborhood(ns(&[0, 1]), ns(&[0, 1])), ns(&[2]));
    }

    #[test]
    fn edge_internal_to_s_contributes_nothing() {
        let g = fig2();
        let s = g.all_nodes();
        assert_eq!(g.neighborhood(s, s), NodeSet::EMPTY);
    }

    #[test]
    fn neighborhood_of_right_half_through_hyperedge() {
        let g = fig2();
        // From {R3,R4,R5} (the right hypernode) the hyperedge leads to {R0,R1,R2}, whose
        // representative is R0.
        let s = ns(&[3, 4, 5]);
        assert_eq!(g.neighborhood(s, s), ns(&[0]));
        // Excluding R0 (and everything below it, as Bmin does) removes it.
        assert_eq!(g.neighborhood(s, s | ns(&[0])), NodeSet::EMPTY);
    }

    /// The neighborhood with every candidate hypernode collected into a `Vec`, as it was
    /// computed before the inline buffer: the oracle for the buffer and its spill.
    fn neighborhood_in_a_vec<const W: usize>(
        g: &Hypergraph<W>,
        s: NodeSet<W>,
        x: NodeSet<W>,
    ) -> NodeSet<W> {
        let forbidden = s | x;
        let mut n = g.simple_neighbors_of_set(s) - forbidden;
        let mut candidates = Vec::new();
        for &eid in g.complex_edge_ids() {
            match g.edge(eid).target_from(s) {
                Some(t) if !t.intersects(forbidden) && t.is_singleton() => n |= t,
                Some(t) if !t.intersects(forbidden) => candidates.push(t),
                _ => {}
            }
        }
        'outer: for (i, &v) in candidates.iter().enumerate() {
            if v.intersects(n) {
                continue;
            }
            for (j, &u) in candidates.iter().enumerate() {
                if i != j && (u.is_proper_subset_of(v) || (u == v && j < i)) {
                    continue 'outer;
                }
            }
            n |= v.min_singleton();
        }
        n
    }

    /// Grows random sets node by node in `g`, threading their simple-neighbor union as the
    /// enumerator does, and checks the threaded neighborhood and connectivity preparation
    /// against the from-scratch ones and the `Vec` oracle under random exclusion sets.
    fn assert_threaded_matches_from_scratch<const W: usize>(g: &Hypergraph<W>, seed: u64) {
        let n = g.node_count();
        let mut state = seed;
        for _ in 0..8 {
            let start = next(&mut state) as usize % n;
            let (mut s, mut union) = (NodeSet::single(start), g.simple_neighbors(start));
            while s.len() < n {
                let mut x = NodeSet::EMPTY;
                for v in 0..n {
                    if next(&mut state).is_multiple_of(4) {
                        x.insert(v);
                    }
                }
                let scratch = g.neighborhood(s, x);
                assert_eq!(g.neighborhood_with(s, x, union), scratch, "{s:?} / {x:?}");
                assert_eq!(neighborhood_in_a_vec(g, s, x), scratch, "{s:?} / {x:?}");
                assert_eq!(g.connecting_from_with(s, union), g.connecting_from(s));
                let v = (0..n)
                    .cycle()
                    .skip(next(&mut state) as usize % n)
                    .find(|&v| !s.contains(v))
                    .expect("a node outside s");
                s.insert(v);
                union |= g.simple_neighbors(v);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random one-word hypergraphs, a quarter of their edges complex or generalized.
        #[test]
        fn prop_threaded_neighborhood_matches_from_scratch(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..65,
            edge_count in 1usize..200,
        ) {
            let (g, _) = random_graph::<1>(seed, n, edge_count);
            assert_threaded_matches_from_scratch(&g, seed);
        }

        /// The same on two-word hypergraphs.
        #[test]
        fn prop_wide_threaded_neighborhood_matches_from_scratch(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..129,
            edge_count in 1usize..300,
        ) {
            let (g, _) = random_graph::<2>(seed, n, edge_count);
            assert_threaded_matches_from_scratch(&g, seed);
        }
    }

    #[test]
    fn neighborhood_spills_candidates_past_the_inline_buffer() {
        // Hub 0 reaches three times as many two-node hypernodes as the buffer holds, some
        // nested in others, some overlapping; a path through the spokes links them up.
        let spokes = 3 * INLINE_CANDIDATES;
        let n = spokes + 2;
        let mut b = Hypergraph::builder(n);
        for i in 1..n - 1 {
            b.add_simple_edge(i, i + 1);
            let far = 1 + (i * 7) % spokes;
            b.add_hyperedge(ns(&[0]), ns(&[i, i + 1]));
            if far != i && far != i + 1 {
                b.add_hyperedge(ns(&[0]), ns(&[i, i + 1, far]));
            }
        }
        let g = b.build();
        let hub = ns(&[0]);
        let reached = g
            .complex_edge_ids()
            .iter()
            .filter(|&&e| g.edge(e).target_from(hub).is_some())
            .count();
        assert!(reached > 2 * INLINE_CANDIDATES);
        assert_eq!(
            neighborhood_in_a_vec(&g, hub, hub),
            g.neighborhood(hub, hub)
        );
        for seed in 0..32 {
            assert_threaded_matches_from_scratch(&g, seed);
        }
    }
}
