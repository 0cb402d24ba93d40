//! IDP-k: iterative dynamic programming with bounded block size.
//!
//! The middle tier of the [adaptive driver](crate::adaptive), for queries with too many
//! csg-cmp-pairs to enumerate (a 96-relation star has `95·2^94`). In the style of Kossmann &
//! Stocker it repeatedly **selects** up to `k` of the current blocks (initially one per
//! relation) greedily, **solves** the join order within the selection exactly by running
//! [`DpHyp`] over the selection's quotient hypergraph (one node per block), and **collapses**
//! the best solved set into one block. Selection follows one rule, by connectivity: the
//! cheapest block with a connected partner seeds it, and it grows by the block with the most
//! hyperedges into the selection, ties going to the smallest cardinality. A round enumerates
//! at most `3^k` pairs, through the same [`JoinCombiner`] and [`DpTable`] as the exact tier.
//! With `k ≥ n` the first round *is* exact DP; the thinning/synthesis analysis of
//! bounded-subproblem DP (Ji et al., arXiv:2202.12208) explains why moderate `k` stays
//! near-optimal.

use crate::enumerate::DpHyp;
use qo_baselines::BaselineResult;
use qo_bitset::{NodeId, NodeSet};
use qo_catalog::{
    Catalog, CcpHandler, ClassSlot, CostModel, DpTable, EmitSignal, JoinCombiner, SubPlanStats,
};
use qo_hypergraph::{EdgeId, Hyperedge, Hypergraph};

/// Largest supported block size: a round registers each subset of its `k` blocks in a
/// `2^k`-entry vector, so a larger `k` would exhaust memory before its `3^k` pairs finish.
pub const MAX_IDP_BLOCK_SIZE: usize = 24;

/// Runs IDP-k over the hypergraph: each round selects at most `k` connected blocks (most
/// hyperedges into the selection first), DPhyp orders the joins inside them. `k ≥ n` is one
/// exact DP over all relations; small `k` approaches greedy behavior. `catalog` must be valid
/// for `graph` (the driver checks it).
///
/// `cost_calls` counts the candidates costed, `pairs_tested` the csg-cmp-pairs enumerated.
/// `None` when no plan covers every relation (the graph is disconnected).
///
/// # Panics
/// Panics if `k` is outside `2..=`[`MAX_IDP_BLOCK_SIZE`].
pub fn idp<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
    k: usize,
) -> Option<BaselineResult> {
    assert!(
        (2..=MAX_IDP_BLOCK_SIZE).contains(&k),
        "IDP block size must be in 2..={MAX_IDP_BLOCK_SIZE}, got {k}"
    );
    let n = graph.node_count();
    let combiner = JoinCombiner::new(graph, catalog, cost_model);
    // The plan store: every round offers its candidates here, so the final block reconstructs.
    let mut table = DpTable::new();
    let mut blocks: Vec<SubPlanStats<W>> = Vec::with_capacity(n);
    for v in 0..n {
        table.insert_leaf(v, catalog.cardinality(v));
        blocks.push(SubPlanStats::leaf(v, catalog.cardinality(v)));
    }

    let (mut cost_calls, mut pairs_tested) = (0, 0);
    while blocks.len() > 1 {
        let selected = select_blocks(graph, &blocks, k)?;
        let sets: Vec<NodeSet<W>> = selected.iter().map(|&i| blocks[i].set).collect();
        let round = BlockDp::run(&combiner, &mut table, &sets);
        cost_calls += round.cost_calls;
        pairs_tested += round.ccps;
        let merged = round.winner()?;
        // Collapse the merged blocks, in descending index order; the winner may cover only
        // part of the selection.
        for &i in selected.iter().rev() {
            if blocks[i].set.is_subset_of(merged.set) {
                blocks.swap_remove(i);
            }
        }
        blocks.push(merged);
    }

    // Each block's stats are its table class: no later round offers a block's own set.
    let last = blocks[0];
    let plan = table.reconstruct(last.set, graph).expect("a plan");
    Some(BaselineResult {
        cost: last.cost,
        cardinality: last.cardinality,
        plan,
        cost_calls,
        pairs_tested,
        dp_entries: table.len(),
    })
}

/// Greedy selection of up to `k` mutually reachable blocks: the smallest-cardinality block that
/// has at least one connected partner seeds the selection, which then grows by repeatedly
/// adding the block with the most hyperedges connecting it to the selection's union, the
/// smallest cardinality among equals. Densely connected selections give the block DP more
/// predicates to apply; on shapes where every candidate is equally connected (stars, chains)
/// the rule is smallest-cardinality-first. Returns ascending block indexes, or `None` if no
/// two blocks are connected (the graph has collapsed into disconnected components).
fn select_blocks<const W: usize>(
    graph: &Hypergraph<W>,
    blocks: &[SubPlanStats<W>],
    k: usize,
) -> Option<Vec<usize>> {
    // Candidate seeds, cheapest first: small blocks keep intermediate results small.
    let mut by_card: Vec<usize> = (0..blocks.len()).collect();
    by_card.sort_by(|&a, &b| {
        blocks[a]
            .cardinality
            .total_cmp(&blocks[b].cardinality)
            .then(a.cmp(&b))
    });

    for &seed in &by_card {
        // Block indexes, as a bitmask: there are at most as many blocks as relations.
        let mut selected = NodeSet::<W>::single(seed);
        let mut union = blocks[seed].set;
        while selected.len() < k {
            // The growing union, prepared once per growth step for every candidate's test.
            let from = graph.connecting_from(union);
            let mut best: Option<usize> = None;
            let mut best_edges = 0usize;
            for &i in &by_card {
                if selected.contains(i) {
                    continue;
                }
                let edges = graph.connecting_edge_count_from(from, blocks[i].set);
                // Strictly more connecting edges wins; by_card order makes "first seen at this
                // edge count" the cardinality tie-break.
                if edges > best_edges {
                    best_edges = edges;
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    union |= blocks[i].set;
                    selected.insert(i);
                }
                None => break,
            }
        }
        if selected.len() >= 2 {
            return Some(selected.iter().collect());
        }
        // The seed is isolated from every other block; try the next seed — another component
        // may still have mergeable blocks.
    }
    None
}

/// The quotient hypergraph of a selection: node `i` stands for `blocks[i]`. Each edge of
/// `graph` that lies inside the selection maps each side to the blocks it touches, and its
/// flexible nodes to the blocks they touch beyond those. An edge leaving the selection, or
/// whose sides touch a common block, can never connect two disjoint unions of the blocks and
/// is dropped. Because the blocks partition the selection, a quotient edge connects two block
/// sets exactly when its original connects their relations.
fn quotient<const W: usize>(graph: &Hypergraph<W>, blocks: &[NodeSet<W>]) -> Hypergraph<1> {
    let inside = blocks.iter().fold(NodeSet::EMPTY, |u, &b| u | b);
    let touched = |nodes: NodeSet<W>| -> NodeSet<1> {
        (0..blocks.len())
            .filter(|&i| blocks[i].intersects(nodes))
            .collect()
    };
    let mut builder = Hypergraph::builder(blocks.len());
    for (_, e) in graph.edges() {
        let (left, right) = (touched(e.left()), touched(e.right()));
        if e.all_nodes().is_subset_of(inside) && !left.intersects(right) {
            let flex = touched(e.flex()) - (left | right);
            builder.add_edge(Hyperedge::generalized(left, right, flex));
        }
    }
    builder.build()
}

/// One round's block DP: the [`CcpHandler`] that costs the quotient's csg-cmp-pairs over the
/// blocks' relations into the global table. Two rules keep it bit-identical to a subset-split
/// walk in ascending mask order: the pair's lower block mask is the combiner's first input,
/// and on an exact cost tie the split with the larger lower mask replaces the incumbent (the
/// walk met it first). A class an earlier round stored for the same relations keeps ties.
struct BlockDp<'r, 'a, M: CostModel<W> + ?Sized, const W: usize> {
    combiner: &'r JoinCombiner<'a, M, W>,
    table: &'r mut DpTable<W>,
    /// Per block mask: the table slot of the set's class and the lower block mask of the split
    /// that won it, `usize::MAX` for a block or a class kept from an earlier round.
    registry: Vec<Option<(ClassSlot, usize)>>,
    edge_buf: Vec<EdgeId>,
    cost_calls: usize,
    ccps: usize,
}

impl<'r, 'a, M: CostModel<W> + ?Sized, const W: usize> BlockDp<'r, 'a, M, W> {
    /// Runs DPhyp over the quotient of `blocks`, the selected blocks' sets in node order.
    fn run(
        combiner: &'r JoinCombiner<'a, M, W>,
        table: &'r mut DpTable<W>,
        blocks: &[NodeSet<W>],
    ) -> Self {
        let mut registry = vec![None; 1 << blocks.len()];
        for (bit, &set) in blocks.iter().enumerate() {
            registry[1 << bit] = Some((table.slot(set).expect("a block is a class"), usize::MAX));
        }
        let mut round = BlockDp {
            combiner,
            table,
            registry,
            edge_buf: Vec::new(),
            cost_calls: 0,
            ccps: 0,
        };
        let _ = DpHyp::new(&quotient(combiner.graph(), blocks), &mut round).run();
        round
    }

    /// The largest (then cheapest) multi-block set the round planned: the whole selection,
    /// unless hyperedge gaps left it unplanned. `None` if no two blocks combined.
    fn winner(&self) -> Option<SubPlanStats<W>> {
        let planned = (3..self.registry.len())
            .filter(|m| !m.is_power_of_two())
            .filter_map(|m| Some(self.table.class(self.registry[m]?.0).stats()));
        planned.max_by(|a, b| {
            let by_size = a.set.len().cmp(&b.set.len());
            by_size.then(b.cost.total_cmp(&a.cost))
        })
    }
}

impl<M: CostModel<W> + ?Sized, const W: usize> CcpHandler<1> for BlockDp<'_, '_, M, W> {
    type Slot = ClassSlot;

    /// The blocks are table classes already; [`BlockDp::run`] registered them.
    fn init_leaf(&mut self, _block: NodeId) {}

    fn slot(&self, set: NodeSet<1>) -> Option<ClassSlot> {
        self.registry[set.mask() as usize].map(|(slot, _)| slot)
    }

    fn emit_ccp(
        &mut self,
        s1: NodeSet<1>,
        slot1: ClassSlot,
        s2: NodeSet<1>,
        slot2: ClassSlot,
    ) -> EmitSignal {
        if s2.mask() < s1.mask() {
            return self.emit_ccp(s2, slot2, s1, slot1); // the lower mask goes first
        }
        self.ccps += 1;
        let lower = s1.mask() as usize;
        let a = self.table.class(slot1).stats();
        let b = self.table.class(slot2).stats();
        let graph = self.combiner.graph();
        graph.connecting_edges_into(a.set, b.set, &mut self.edge_buf);
        let Some(candidate) = self.combiner.combine(&a, &b, &self.edge_buf) else {
            return EmitSignal::Continue;
        };
        self.cost_calls += 1;
        let entry = &mut self.registry[(s1 | s2).mask() as usize];
        if let Some((slot, split)) = *entry {
            let incumbent = self.table.class(slot).cost;
            if candidate.cost < incumbent || (candidate.cost == incumbent && lower > split) {
                self.table.replace_at(slot, candidate);
                *entry = Some((slot, lower));
            }
        } else {
            // The round's first candidate for the set: a class an earlier round stored for it
            // keeps ties.
            let accepted = self.table.offer(candidate);
            let split = if accepted { lower } else { usize::MAX };
            *entry = self.table.slot(candidate.set).map(|slot| (slot, split));
        }
        EmitSignal::Continue
    }

    fn ccp_count(&self) -> usize {
        self.ccps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::tests::count_ccps_dphyp;
    use qo_baselines::{dpsize, goo};
    use qo_catalog::CoutCost;
    use qo_plan::PlanNode;

    fn chain(n: usize, cards: &[f64], sel: f64) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        let g = b.build();
        let mut cb = Catalog::builder(n);
        for (i, &c) in cards.iter().enumerate() {
            cb.set_cardinality(i, c);
        }
        for e in 0..n - 1 {
            cb.set_selectivity(e, sel);
        }
        (g, cb.build())
    }

    fn star(satellites: usize) -> (Hypergraph, Catalog) {
        let mut b = Hypergraph::builder(satellites + 1);
        for i in 1..=satellites {
            b.add_simple_edge(0, i);
        }
        let g = b.build();
        let mut cb = Catalog::builder(satellites + 1);
        cb.set_cardinality(0, 100_000.0);
        for i in 1..=satellites {
            cb.set_cardinality(i, 10.0 * i as f64);
            cb.set_selectivity(i - 1, 0.002 * i as f64);
        }
        (g, cb.build())
    }

    #[test]
    fn produces_complete_valid_plans_for_every_k() {
        let cards = [10.0, 500.0, 20.0, 8000.0, 50.0, 5.0, 900.0];
        let (g, c) = chain(7, &cards, 0.01);
        for k in 2..=8 {
            let r = idp(&g, &c, &CoutCost, k).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
            assert_eq!(r.plan.join_count(), 6, "k = {k}");
            assert!(r.cost.is_finite() && r.cost > 0.0);
        }
    }

    #[test]
    fn k_at_least_n_is_exact() {
        // One round covering every relation is plain subset DP — the optimum.
        let cards = [10.0, 500.0, 20.0, 8000.0, 50.0, 5.0];
        let (g, c) = chain(6, &cards, 0.01);
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        let r = idp(&g, &c, &CoutCost, 6).unwrap();
        assert_eq!(r.cost, exact.cost, "k = n must reproduce the DP optimum");
        let (g, c) = star(6);
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        let r = idp(&g, &c, &CoutCost, 8).unwrap();
        assert_eq!(r.cost, exact.cost);
    }

    #[test]
    fn idp_is_never_better_than_exact_dp() {
        let (g, c) = star(9);
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        for k in [2, 3, 4, 5] {
            let r = idp(&g, &c, &CoutCost, k).unwrap();
            assert!(
                r.cost >= exact.cost - 1e-9,
                "k = {k}: IDP cost {} below optimum {}",
                r.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn larger_blocks_beat_greedy_on_a_skewed_star() {
        // With k covering the whole star the result is optimal, so it can only improve on (or
        // tie) both GOO and small-k IDP.
        let (g, c) = star(8);
        let greedy = goo(&g, &c, &CoutCost).unwrap();
        let r = idp(&g, &c, &CoutCost, 10).unwrap();
        assert!(r.cost <= greedy.cost + 1e-9);
    }

    #[test]
    fn bounded_work_on_a_wide_star() {
        // A 40-satellite star is far beyond exact DP (39·2^38 pairs); IDP-6 must finish with
        // work bounded by rounds · 3^6.
        let (g, c) = star(40);
        let r = idp(&g, &c, &CoutCost, 6).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        assert_eq!(r.plan.join_count(), 40);
        assert!(
            r.cost_calls < 20_000,
            "block DP must stay bounded, made {} cost calls",
            r.cost_calls
        );
    }

    #[test]
    fn fails_on_disconnected_graphs() {
        let mut b = Hypergraph::<1>::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        let g = b.build();
        let c = Catalog::uniform(4, 10.0, 2, 0.5);
        assert!(idp(&g, &c, &CoutCost, 3).is_none());
    }

    #[test]
    fn hyperedge_gaps_fall_back_to_partial_blocks() {
        // Fig. 2-style graph: {0,1,2} and {3,4,5} only join as whole halves. Small k forces
        // rounds whose selection cannot fully merge; the fallback keeps making progress.
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_hyperedge(
            [0, 1, 2].into_iter().collect(),
            [3, 4, 5].into_iter().collect(),
        );
        let g = b.build();
        let c = Catalog::uniform(6, 100.0, 5, 0.1);
        for k in 2..=6 {
            let r = idp(&g, &c, &CoutCost, k).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "IDP block size")]
    fn rejects_block_size_below_two() {
        let (g, c) = chain(3, &[1.0, 2.0, 3.0], 0.1);
        let _ = idp(&g, &c, &CoutCost, 1);
    }

    #[test]
    fn selection_prefers_densely_connected_blocks() {
        // R3 connects to both R0 and R1 (two edges once {R0, R1} is selected), R4 only to R0.
        // The connectivity-aware growth must absorb R3 before R4 even though R4 is cheaper,
        // and then R2, the cheapest of the singly connected blocks.
        let mut b = Hypergraph::builder(5);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(0, 3);
        b.add_simple_edge(1, 3);
        b.add_simple_edge(0, 4);
        let g = b.build();
        let cards = [10.0, 12.0, 14.0, 5_000.0, 20.0];
        let blocks: Vec<_> = (0..5).map(|v| SubPlanStats::leaf(v, cards[v])).collect();
        assert_eq!(select_blocks(&g, &blocks, 4), Some(vec![0, 1, 2, 3]));
        let mut cb = Catalog::builder(5);
        for (v, &card) in cards.iter().enumerate() {
            cb.set_cardinality(v, card);
        }
        for e in 0..5 {
            cb.set_selectivity(e, 0.01);
        }
        let c = cb.build();
        let r = idp(&g, &c, &CoutCost, 4).unwrap();
        assert_eq!(r.plan.relations(), g.all_nodes());
        // Exact DP over the same 5 relations bounds it from below.
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        assert!(r.cost >= exact.cost - 1e-9);
    }

    #[test]
    fn connected_strategy_produces_complete_valid_plans() {
        // A chain with chords: candidates differ in how many edges reach the selection, so the
        // edge count, not only the cardinality, decides each round's growth.
        let cards = [10.0, 500.0, 20.0, 8000.0, 50.0, 5.0, 900.0];
        let mut b = Hypergraph::builder(7);
        for v in 0..6 {
            b.add_simple_edge(v, v + 1);
        }
        b.add_simple_edge(0, 3);
        b.add_simple_edge(1, 3);
        b.add_simple_edge(3, 5);
        b.add_simple_edge(2, 6);
        let g = b.build();
        let mut cb = Catalog::builder(7);
        for (v, &card) in cards.iter().enumerate() {
            cb.set_cardinality(v, card);
        }
        for e in 0..10 {
            cb.set_selectivity(e, 0.01);
        }
        let c = cb.build();
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        for k in 2..=8 {
            let r = idp(&g, &c, &CoutCost, k).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
            assert_eq!(r.plan.join_count(), 6, "k = {k}");
            assert!(r.cost.is_finite() && r.cost >= exact.cost - 1e-9, "k = {k}");
        }
        let r = idp(&g, &c, &CoutCost, 7).unwrap();
        assert_eq!(r.cost, exact.cost, "k = n must reproduce the DP optimum");
    }

    #[test]
    fn connected_strategy_handles_hyperedge_gaps() {
        // The Fig. 2-style halves plus a simple edge 2–3 and skewed cardinalities: once R2 is
        // selected, R3 is reached by both the simple edge and (with the whole left half) the
        // hyperedge, so hyperedges count toward the selection rule while partial halves still
        // have to fall back.
        let mut b = Hypergraph::builder(6);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(3, 4);
        b.add_simple_edge(4, 5);
        b.add_simple_edge(2, 3);
        b.add_hyperedge(
            [0, 1, 2].into_iter().collect(),
            [3, 4, 5].into_iter().collect(),
        );
        let g = b.build();
        let mut cb = Catalog::builder(6);
        for (v, &card) in [40.0, 5.0, 300.0, 20.0, 7_000.0, 60.0].iter().enumerate() {
            cb.set_cardinality(v, card);
        }
        for e in 0..6 {
            cb.set_selectivity(e, 0.05);
        }
        let c = cb.build();
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        for k in 2..=6 {
            let r = idp(&g, &c, &CoutCost, k).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
            assert!(r.cost >= exact.cost - 1e-9, "k = {k}");
        }
    }

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    #[test]
    fn quotient_maps_flex_nodes_to_the_blocks_they_touch() {
        // R0 — R2 with R4 flexible; R4 lies in a third block, whose bit becomes the flex set.
        let mut b = Hypergraph::<1>::builder(5);
        for i in 0..4 {
            b.add_simple_edge(i, i + 1);
        }
        b.add_edge(Hyperedge::generalized(ns(&[0]), ns(&[2]), ns(&[4])));
        let q = quotient(&b.build(), &[ns(&[0]), ns(&[1, 2]), ns(&[3, 4])]);
        let generalized = Hyperedge::generalized(ns(&[0]), ns(&[1]), ns(&[2]));
        assert!(q.edges().any(|(_, e)| *e == generalized), "{q:?}");
    }

    #[test]
    fn quotient_drops_edges_whose_sides_share_a_block() {
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        let q = quotient(&b.build(), &[ns(&[0, 1]), ns(&[2])]);
        assert_eq!(q.edge_count(), 1, "{q:?}");
        assert_eq!(q.edge(0), &Hyperedge::simple(0, 1));
    }

    #[test]
    fn quotient_drops_edges_leaving_the_selection() {
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_hyperedge(ns(&[0]), ns(&[1, 2]));
        let q = quotient(&b.build(), &[ns(&[0]), ns(&[1])]);
        assert_eq!(q.edge_count(), 1, "{q:?}");
    }

    #[test]
    fn equal_cost_splits_keep_the_larger_lower_mask() {
        // A triangle of equal relations: all three splits of {R0, R1, R2} cost 96 exactly.
        // The split with the larger lower block mask is {R0, R1} | {R2} (mask 3 against 1
        // and 2), so it wins, with its lower mask as the left input.
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(0, 2);
        let g = b.build();
        let c = Catalog::uniform(3, 8.0, 3, 0.5);
        let r = idp(&g, &c, &CoutCost, 3).unwrap();
        assert_eq!(r.cost, 96.0);
        let PlanNode::Join { left, right, .. } = &r.plan else {
            panic!("a three-relation plan is a join");
        };
        assert_eq!(
            (left.relations(), right.relations()),
            (ns(&[0, 1]), ns(&[2]))
        );
    }

    #[test]
    fn an_inner_join_round_costs_every_quotient_pair_once() {
        // A cycle with a hyperedge, after R0 and R1 merged into one block.
        let mut b = Hypergraph::<1>::builder(6);
        for i in 0..6 {
            b.add_simple_edge(i, (i + 1) % 6);
        }
        b.add_hyperedge(ns(&[1, 2]), ns(&[4, 5]));
        let g = b.build();
        let c = Catalog::uniform(6, 100.0, 7, 0.1);
        let combiner = JoinCombiner::new(&g, &c, &CoutCost);
        let mut table = DpTable::new();
        for v in 0..6 {
            table.insert_leaf(v, 100.0);
        }
        let (r0, r1) = (
            table.get(ns(&[0])).unwrap().stats(),
            table.get(ns(&[1])).unwrap().stats(),
        );
        let merged = combiner
            .combine(&r0, &r1, &g.connecting_edges(r0.set, r1.set))
            .unwrap();
        table.offer(merged);
        let blocks = [ns(&[0, 1]), ns(&[2]), ns(&[3]), ns(&[4]), ns(&[5])];
        let r = BlockDp::run(&combiner, &mut table, &blocks);
        let pairs = count_ccps_dphyp(&quotient(&g, &blocks)).ccp_count();
        assert!(pairs > 0);
        assert_eq!((r.ccps, r.cost_calls), (pairs, pairs));
        assert_eq!(r.winner().unwrap().set, g.all_nodes());
    }
}
