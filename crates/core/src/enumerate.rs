//! The DPhyp enumeration engine (Sec. 3 of the paper).
//!
//! The algorithm enumerates every csg-cmp-pair of the query hypergraph exactly once, in an order
//! in which smaller pairs precede larger ones — the order dynamic programming needs. It is
//! distributed over the five member functions of the paper:
//!
//! * [`DpHyp::run`] (`Solve`): seeds the DP table with single relations and processes the nodes
//!   in descending order,
//! * `EnumerateCsgRec`: recursively grows connected subgraphs by adding subsets of the
//!   neighborhood,
//! * `EmitCsg`: finds the seed nodes of all connected complements of a subgraph,
//! * `EnumerateCmpRec`: recursively grows the complements,
//! * `EmitCsgCmp`: delegated to the [`CcpHandler`] (plan construction, counting, …).
//!
//! Generalized hyperedges (Sec. 6) need no special treatment here: the neighborhood and
//! connectivity primitives of `qo-hypergraph` already resolve their flexible node sets.
//!
//! Each recursion carries its set's union of simple-edge neighbors
//! ([`Hypergraph::simple_neighbor_union`]) alongside the set: growing a set by `n` ORs in the
//! neighbors of `n`'s nodes, so no neighborhood or connectivity preparation walks every member
//! of the set again.

use qo_bitset::NodeSet;
use qo_catalog::{CcpHandler, EmitSignal};
use qo_hypergraph::{ConnectingFrom, Hypergraph};

/// Unwinds the enumeration when a handler call answered [`EmitSignal::Abort`].
macro_rules! propagate {
    ($signal:expr) => {
        if $signal.is_abort() {
            return EmitSignal::Abort;
        }
    };
}

/// The DPhyp enumerator.
///
/// The enumerator borrows the hypergraph and a [`CcpHandler`]; the handler decides what a
/// csg-cmp-pair *means* (building plans, counting, checking TESs, …).
pub struct DpHyp<'a, H, const W: usize = 1>
where
    H: CcpHandler<W>,
{
    graph: &'a Hypergraph<W>,
    handler: &'a mut H,
}

impl<'a, H: CcpHandler<W>, const W: usize> DpHyp<'a, H, W> {
    /// Creates an enumerator over `graph` reporting to `handler`.
    pub fn new(graph: &'a Hypergraph<W>, handler: &'a mut H) -> Self {
        DpHyp { graph, handler }
    }

    /// Runs the full enumeration (`Solve` in the paper).
    ///
    /// Initializes the handler with every single relation, then, for every node `v` in
    /// decreasing order, emits the csg-cmp-pairs whose first component is `{v}` and recursively
    /// expands `{v}` into larger connected subgraphs. The prefix `B_v = {w | w ≤ v}` is
    /// forbidden during the expansion to avoid duplicate enumerations.
    ///
    /// Returns [`EmitSignal::Continue`] when every csg-cmp-pair was enumerated, or
    /// [`EmitSignal::Abort`] when the handler cut the enumeration short (e.g. a
    /// [`qo_catalog::BudgetedHandler`] whose pair budget ran out) — the handler's DP state is
    /// then a valid but partial memo. Handlers without a budget never abort, so plain callers
    /// can ignore the signal with `let _ = …`.
    pub fn run(&mut self) -> EmitSignal {
        let n = self.graph.node_count();
        for v in 0..n {
            self.handler.init_leaf(v);
        }
        for v in (0..n).rev() {
            let single = NodeSet::single(v);
            let neighbors = self.graph.simple_neighbors(v);
            if let Some(slot) = self.handler.slot(single) {
                propagate!(self.emit_csg(single, neighbors, slot));
            }
            propagate!(self.enumerate_csg_rec(single, neighbors, NodeSet::prefix_through(v)));
        }
        EmitSignal::Continue
    }

    /// `EnumerateCsgRec`: extends the connected set `s1`, whose simple-edge neighbor union is
    /// `neighbors1`, by subsets of its neighborhood.
    fn enumerate_csg_rec(
        &mut self,
        s1: NodeSet<W>,
        neighbors1: NodeSet<W>,
        x: NodeSet<W>,
    ) -> EmitSignal {
        let neighborhood = self.graph.neighborhood_with(s1, x, neighbors1);
        if neighborhood.is_empty() {
            return EmitSignal::Continue;
        }
        // First emit (smaller sets first — required for DP validity), then recurse.
        for n in neighborhood.subsets() {
            let grown = s1 | n;
            if let Some(slot) = self.handler.slot(grown) {
                let neighbors = neighbors1 | self.graph.simple_neighbor_union(n);
                propagate!(self.emit_csg(grown, neighbors, slot));
            }
        }
        let x_extended = x | neighborhood;
        for n in neighborhood.subsets() {
            let neighbors = neighbors1 | self.graph.simple_neighbor_union(n);
            propagate!(self.enumerate_csg_rec(s1 | n, neighbors, x_extended));
        }
        EmitSignal::Continue
    }

    /// `EmitCsg`: for a connected set `s1` (whose class sits at `slot` and whose simple-edge
    /// neighbor union is `neighbors1`), finds all seed nodes of potential complements and starts
    /// their recursive expansion.
    fn emit_csg(&mut self, s1: NodeSet<W>, neighbors1: NodeSet<W>, slot: H::Slot) -> EmitSignal {
        let min = s1.min_node().expect("EmitCsg called with an empty set");
        let x = s1 | NodeSet::prefix_through(min);
        let neighborhood = self.graph.neighborhood_with(s1, x, neighbors1);
        if neighborhood.is_empty() {
            return EmitSignal::Continue;
        }
        let csg = Csg {
            from: self.graph.connecting_from_with(s1, neighbors1),
            slot,
        };
        for v in neighborhood.iter_descending() {
            let s2 = NodeSet::single(v);
            propagate!(self.emit_if_connected(csg, s2));
            // While the seed {v} may not yet be connected to s1 (it may only be the
            // representative of a larger hypernode), it can often be *extended* to a valid
            // complement. Forbid the neighbors that are still to be processed at this level to
            // avoid duplicate complements.
            let forbidden = x | (NodeSet::prefix_through(v) & neighborhood);
            let neighbors2 = self.graph.simple_neighbors(v);
            propagate!(self.enumerate_cmp_rec(csg, s2, neighbors2, forbidden));
        }
        EmitSignal::Continue
    }

    /// `EnumerateCmpRec`: extends the complement `s2`, whose simple-edge neighbor union is
    /// `neighbors2`, by subsets of its neighborhood, emitting a csg-cmp-pair whenever the grown
    /// complement is connected and linked to `s1`.
    fn enumerate_cmp_rec(
        &mut self,
        s1: Csg<H::Slot, W>,
        s2: NodeSet<W>,
        neighbors2: NodeSet<W>,
        x: NodeSet<W>,
    ) -> EmitSignal {
        let neighborhood = self.graph.neighborhood_with(s2, x, neighbors2);
        if neighborhood.is_empty() {
            return EmitSignal::Continue;
        }
        for n in neighborhood.subsets() {
            propagate!(self.emit_if_connected(s1, s2 | n));
        }
        let x_extended = x | neighborhood;
        for n in neighborhood.subsets() {
            let neighbors = neighbors2 | self.graph.simple_neighbor_union(n);
            propagate!(self.enumerate_cmp_rec(s1, s2 | n, neighbors, x_extended));
        }
        EmitSignal::Continue
    }

    /// Emits `(s1, s2)` when `s2` has a class (it is connected) and an edge links it to `s1`.
    #[inline]
    fn emit_if_connected(&mut self, s1: Csg<H::Slot, W>, s2: NodeSet<W>) -> EmitSignal {
        if self.graph.has_connecting_edge_from(s1.from, s2) {
            if let Some(slot2) = self.handler.slot(s2) {
                return self.handler.emit_ccp(s1.from.set(), s1.slot, s2, slot2);
            }
        }
        EmitSignal::Continue
    }
}

/// The first component of one `EmitCsg`, fixed for its whole complement recursion: the set
/// with its simple-edge neighbors, and the handler's slot for it, each looked up once.
#[derive(Clone, Copy)]
struct Csg<S, const W: usize> {
    from: ConnectingFrom<W>,
    slot: S,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use qo_catalog::CountingHandler;
    use qo_hypergraph::{enumerate_ccps, Hyperedge, Hypergraph};
    use std::collections::BTreeSet;

    /// Runs DPhyp with a [`CountingHandler`] and returns it.
    pub(crate) fn count_ccps_dphyp<const W: usize>(graph: &Hypergraph<W>) -> CountingHandler<W> {
        let mut handler = CountingHandler::new();
        let _ = DpHyp::new(graph, &mut handler).run();
        handler
    }

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// Asserts that DPhyp emits exactly the canonical csg-cmp-pairs of the oracle, without
    /// duplicates.
    fn assert_matches_oracle(graph: &Hypergraph) {
        let handler = count_ccps_dphyp(graph);
        let emitted = handler.canonical_pairs();
        let mut dedup = emitted.clone();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            emitted.len(),
            "duplicate csg-cmp-pairs emitted"
        );
        let expected = enumerate_ccps(graph);
        assert_eq!(
            emitted.iter().copied().collect::<BTreeSet<_>>(),
            expected.iter().copied().collect::<BTreeSet<_>>(),
            "emitted pairs differ from the oracle"
        );
        assert_eq!(emitted.len(), expected.len());
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        b.build()
    }

    fn cycle(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n {
            b.add_simple_edge(i, (i + 1) % n);
        }
        b.build()
    }

    fn star(satellites: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(satellites + 1);
        for i in 1..=satellites {
            b.add_simple_edge(0, i);
        }
        b.build()
    }

    fn clique(n: usize) -> Hypergraph {
        let mut b = Hypergraph::builder(n);
        for i in 0..n {
            for j in i + 1..n {
                b.add_simple_edge(i, j);
            }
        }
        b.build()
    }

    /// The paper's Fig. 2 hypergraph.
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
    fn single_relation_has_no_pairs() {
        let g = Hypergraph::<1>::builder(1).build();
        let h = count_ccps_dphyp(&g);
        assert_eq!(h.ccp_count(), 0);
    }

    #[test]
    fn two_relations_single_pair() {
        let g = chain(2);
        let h = count_ccps_dphyp(&g);
        assert_eq!(h.canonical_pairs(), vec![(ns(&[0]), ns(&[1]))]);
    }

    #[test]
    fn fig2_graph_matches_oracle_and_has_nine_pairs() {
        let g = fig2();
        assert_matches_oracle(&g);
        assert_eq!(count_ccps_dphyp(&g).ccp_count(), 9);
    }

    #[test]
    fn simple_graph_families_match_oracle() {
        for n in 2..=7 {
            assert_matches_oracle(&chain(n));
            assert_matches_oracle(&cycle(n.max(3)));
            assert_matches_oracle(&star(n));
            assert_matches_oracle(&clique(n));
        }
    }

    #[test]
    fn chain_ccp_count_matches_closed_form() {
        for n in 2..=10usize {
            let g = chain(n);
            assert_eq!(
                count_ccps_dphyp(&g).ccp_count(),
                (n.pow(3) - n) / 6,
                "chain {n}"
            );
        }
    }

    #[test]
    fn star_ccp_count_matches_closed_form() {
        for sats in 1..=8usize {
            let n = sats + 1;
            let g = star(sats);
            assert_eq!(
                count_ccps_dphyp(&g).ccp_count(),
                (n - 1) * (1 << (n - 2)),
                "star with {sats} satellites"
            );
        }
    }

    #[test]
    fn clique_ccp_count_matches_closed_form() {
        for n in 2..=8usize {
            let g = clique(n);
            let expected = (3usize.pow(n as u32) - (1 << (n + 1))).div_ceil(2);
            assert_eq!(count_ccps_dphyp(&g).ccp_count(), expected, "clique {n}");
        }
    }

    #[test]
    fn hypergraphs_with_one_big_hyperedge_match_oracle() {
        // Star and cycle bases with a spanning hyperedge, as in the paper's experiments.
        let mut b = Hypergraph::builder(8);
        for i in 0..8 {
            b.add_simple_edge(i, (i + 1) % 8);
        }
        b.add_hyperedge(ns(&[0, 1, 2, 3]), ns(&[4, 5, 6, 7]));
        assert_matches_oracle(&b.build());

        let mut b = Hypergraph::builder(9);
        for i in 1..9 {
            b.add_simple_edge(0, i);
        }
        b.add_hyperedge(ns(&[1, 2, 3, 4]), ns(&[5, 6, 7, 8]));
        assert_matches_oracle(&b.build());
    }

    #[test]
    fn generalized_hyperedges_match_oracle() {
        let mut b = Hypergraph::builder(5);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(3, 4);
        b.add_edge(Hyperedge::generalized(ns(&[0]), ns(&[4]), ns(&[2])));
        b.add_simple_edge(1, 2);
        b.add_simple_edge(2, 3);
        assert_matches_oracle(&b.build());
    }

    #[test]
    fn disconnected_graph_only_pairs_within_components() {
        let mut b = Hypergraph::builder(5);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(3, 4);
        let g = b.build();
        assert_matches_oracle(&g);
        let h = count_ccps_dphyp(&g);
        assert_eq!(h.ccp_count(), 2);
        assert!(h.slot(g.all_nodes()).is_none());
    }

    #[test]
    fn hyperedge_only_graph_where_full_set_is_unreachable() {
        // Single edge ({0}, {1,2}): {1,2} is not connected, so no pair exists at all.
        let mut b = Hypergraph::builder(3);
        b.add_hyperedge(ns(&[0]), ns(&[1, 2]));
        let g = b.build();
        assert_matches_oracle(&g);
        assert_eq!(count_ccps_dphyp(&g).ccp_count(), 0);
    }

    #[test]
    fn dp_ordering_smaller_pairs_come_first() {
        // Every emitted pair's components must already be present (as leaves or earlier unions):
        // the enumerator emits a pair only with the slots the handler returned for both, so a
        // component registered too late would drop the pair. Verify explicitly on a mid-size
        // graph.
        let g = cycle(7);
        let mut handler = CountingHandler::new();
        let _ = DpHyp::new(&g, &mut handler).run();
        let mut known: BTreeSet<NodeSet> = (0..7).map(NodeSet::single).collect();
        for &(a, b) in handler.pairs() {
            assert!(
                known.contains(&a),
                "pair emitted before its csg was known: {a:?}"
            );
            assert!(
                known.contains(&b),
                "pair emitted before its cmp was known: {b:?}"
            );
            known.insert(a | b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random hypergraphs: a random simple-edge skeleton plus up to two random hyperedges.
        #[test]
        fn prop_random_hypergraphs_match_oracle(
            n in 2usize..8,
            extra_edges in proptest::collection::vec((0usize..8, 0usize..8), 0..6),
            hyper in proptest::collection::vec(
                (proptest::collection::btree_set(0usize..8, 1..3),
                 proptest::collection::btree_set(0usize..8, 1..3)),
                0..2
            ),
        ) {
            let mut b = Hypergraph::builder(n);
            // A chain skeleton keeps most generated graphs connected.
            for i in 0..n - 1 {
                b.add_simple_edge(i, i + 1);
            }
            for (a, c) in extra_edges {
                let (a, c) = (a % n, c % n);
                if a != c {
                    b.add_simple_edge(a, c);
                }
            }
            for (u, v) in hyper {
                let u: NodeSet = u.into_iter().map(|x| x % n).collect();
                let v: NodeSet = v.into_iter().map(|x| x % n).collect();
                if !u.is_empty() && !v.is_empty() && u.is_disjoint(v) {
                    b.add_hyperedge(u, v);
                }
            }
            let g = b.build();
            let emitted = count_ccps_dphyp(&g).canonical_pairs();
            let mut dedup = emitted.clone();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), emitted.len(), "duplicates");
            let expected = enumerate_ccps(&g);
            prop_assert_eq!(
                emitted.into_iter().collect::<BTreeSet<_>>(),
                expected.into_iter().collect::<BTreeSet<_>>()
            );
        }
    }
}
