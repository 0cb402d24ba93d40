//! IDP-k: iterative dynamic programming with bounded block size.
//!
//! When a query's csg-cmp-pair count is too large for exact enumeration (a 96-relation star has
//! `95·2^94` pairs), iterative dynamic programming in the style of Kossmann & Stocker trades
//! optimality for a hard bound on the work: it repeatedly
//!
//! 1. **selects** up to `k` of the current blocks (initially one block per relation) greedily —
//!    a small-cardinality seed block grown by connected small-cardinality neighbors,
//! 2. **solves** the join order *within* the selection exactly, by subset-split dynamic
//!    programming over the blocks (the same [`JoinCombiner`] and arena [`DpTable`] the exact
//!    algorithms use, so plan construction and costing are shared),
//! 3. **collapses** the best solved set into a single block,
//!
//! until one block covering every relation remains. Each round inspects at most `3^k`
//! subset-splits, so the total work is `O((n/k)·3^k + n²)` regardless of the query shape — the
//! blow-up that kills exact DP on stars and cliques cannot happen. Plan quality degrades
//! gracefully: with `k ≥ n` the first round *is* exact DP (the result is optimal), and the
//! thinning/synthesis analysis of bounded-subproblem DP (Ji et al., arXiv:2202.12208) explains
//! why moderate `k` stays near-optimal in practice.
//!
//! This is the middle tier of the adaptive optimization driver in the `dphyp` crate, between
//! budgeted exact DPhyp and [`goo`](crate::goo).

use crate::result::{BaselineError, BaselineResult};
use qo_catalog::{Catalog, CostModel, DpTable, JoinCombiner, SubPlanStats};
use qo_hypergraph::{EdgeId, Hypergraph};

/// Largest supported block size: a round materializes a `2^k`-entry local memo, so `k` beyond
/// this would exhaust memory long before the `3^k` splits finish anyway.
pub const MAX_IDP_BLOCK_SIZE: usize = 24;

/// How a round's blocks are selected before the exact within-selection DP.
///
/// Both strategies only ever select mutually reachable blocks (a selection that cannot merge
/// would waste the round); they differ in *which* connected block joins the selection next.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IdpStrategy {
    /// Grow the selection by the smallest-cardinality block connected to it — GOO's
    /// smallest-output-first intuition, one level coarser. The original (default) strategy.
    #[default]
    SmallestCardinality,
    /// Connectivity-aware growth: prefer the candidate with the most hyperedges connecting it
    /// to the selection (densely connected selections give the block DP more predicates to
    /// exploit and keep intermediate results selective), tie-breaking by smallest cardinality.
    /// On shapes where every candidate is equally connected — stars, chains — the tie-break
    /// makes this identical to [`IdpStrategy::SmallestCardinality`], so it can only change
    /// plans where real connectivity differences exist.
    ConnectedSmallest,
}

/// Runs IDP-k over the hypergraph: greedy block selection, exact DP inside each block.
///
/// `k` is the block size — the maximum number of blocks merged per round; it must be in
/// `2..=`[`MAX_IDP_BLOCK_SIZE`]. `k ≥ n` degenerates to a single exact DP over all relations
/// (the plan is optimal); small `k` approaches greedy behavior. Block selection uses the
/// default [`IdpStrategy::SmallestCardinality`]; see [`idp_with_strategy`].
///
/// In [`BaselineResult`], `cost_calls` counts combiner invocations inside the block DPs and
/// `pairs_tested` additionally counts the (cheap) connectivity probes of the selection phase.
///
/// # Panics
/// Panics if `k` is outside `2..=`[`MAX_IDP_BLOCK_SIZE`].
pub fn idp<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
    k: usize,
) -> Result<BaselineResult, BaselineError> {
    idp_with_strategy(graph, catalog, cost_model, k, IdpStrategy::default())
}

/// [`idp`] with an explicit block-selection strategy.
///
/// # Panics
/// Panics if `k` is outside `2..=`[`MAX_IDP_BLOCK_SIZE`].
pub fn idp_with_strategy<M: CostModel<W> + ?Sized, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
    k: usize,
    strategy: IdpStrategy,
) -> Result<BaselineResult, BaselineError> {
    assert!(
        (2..=MAX_IDP_BLOCK_SIZE).contains(&k),
        "IDP block size must be in 2..={MAX_IDP_BLOCK_SIZE}, got {k}"
    );
    catalog
        .validate_for(graph)
        .map_err(BaselineError::InvalidCatalog)?;
    let n = graph.node_count();
    let combiner = JoinCombiner::new(graph, catalog, cost_model);
    // The DpTable doubles as the plan store for reconstruction, exactly as in GOO: every
    // candidate accepted by a block DP is offered to it, so the final block reconstructs.
    let mut table = DpTable::new();
    let mut blocks: Vec<SubPlanStats<W>> = Vec::with_capacity(n);
    for v in 0..n {
        table.insert_leaf(v, catalog.cardinality(v));
        blocks.push(SubPlanStats::leaf(v, catalog.cardinality(v)));
    }

    let mut pairs_tested = 0usize;
    let mut cost_calls = 0usize;
    let mut edge_buf: Vec<EdgeId> = Vec::new();

    while blocks.len() > 1 {
        let selected = select_blocks(graph, &blocks, k, strategy, &mut pairs_tested)
            .ok_or_else(|| BaselineError::no_complete_plan(&table))?;
        let merged = solve_block(
            &combiner,
            &blocks,
            &selected,
            &mut table,
            &mut edge_buf,
            &mut cost_calls,
        )
        .ok_or_else(|| BaselineError::no_complete_plan(&table))?;
        // Collapse the merged blocks (descending index order keeps the indexes valid); the
        // winner's relation set tells which of the selected blocks it actually covers — the
        // block DP may have had to settle for a subset of the selection.
        for &i in selected.iter().rev() {
            if blocks[i].set.is_subset_of(merged.set) {
                blocks.swap_remove(i);
            }
        }
        blocks.push(merged);
    }

    let class = *table
        .get(blocks[0].set)
        .expect("final block was offered to the table");
    let plan = table
        .reconstruct(class.set, graph)
        .expect("merged blocks are reconstructible");
    Ok(BaselineResult {
        cost: class.cost,
        cardinality: class.cardinality,
        plan,
        cost_calls,
        pairs_tested,
        dp_entries: table.len(),
    })
}

/// Greedy selection of up to `k` mutually reachable blocks: the smallest-cardinality block that
/// has at least one connected partner seeds the selection, which then grows by repeatedly
/// adding one block connected to the selection's union — the cheapest one under
/// [`IdpStrategy::SmallestCardinality`], the most-connected one (cheapest among equals) under
/// [`IdpStrategy::ConnectedSmallest`]. Returns ascending block indexes, or `None` if no two
/// blocks are connected (the graph has collapsed into disconnected components).
fn select_blocks<const W: usize>(
    graph: &Hypergraph<W>,
    blocks: &[SubPlanStats<W>],
    k: usize,
    strategy: IdpStrategy,
    pairs_tested: &mut usize,
) -> Option<Vec<usize>> {
    // Candidate seeds, cheapest first: preferring small blocks keeps intermediate results small
    // — the same intuition as GOO's smallest-output-first rule, one level coarser.
    let mut by_card: Vec<usize> = (0..blocks.len()).collect();
    by_card.sort_by(|&a, &b| {
        blocks[a]
            .cardinality
            .total_cmp(&blocks[b].cardinality)
            .then(a.cmp(&b))
    });

    let mut edge_buf = Vec::new();
    for &seed in &by_card {
        let mut selected = vec![seed];
        let mut union = blocks[seed].set;
        while selected.len() < k {
            let mut best: Option<usize> = None;
            let mut best_edges = 0usize;
            for &i in &by_card {
                if selected.contains(&i) {
                    continue;
                }
                *pairs_tested += 1;
                match strategy {
                    IdpStrategy::SmallestCardinality => {
                        if graph.has_connecting_edge(union, blocks[i].set) {
                            best = Some(i);
                            break; // by_card is sorted: the first connected block is the cheapest
                        }
                    }
                    IdpStrategy::ConnectedSmallest => {
                        graph.connecting_edges_into(union, blocks[i].set, &mut edge_buf);
                        // Strictly more connecting edges wins; by_card order makes "first seen
                        // at this edge count" the cardinality tie-break.
                        if edge_buf.len() > best_edges {
                            best_edges = edge_buf.len();
                            best = Some(i);
                        }
                    }
                }
            }
            match best {
                Some(i) => {
                    union |= blocks[i].set;
                    selected.push(i);
                }
                None => break,
            }
        }
        if selected.len() >= 2 {
            selected.sort_unstable();
            return Some(selected);
        }
        // The seed is isolated from every other block; try the next seed — another component
        // may still have mergeable blocks.
    }
    None
}

/// Exact subset-split DP over the selected blocks, shared-machinery edition: every split is
/// costed by the [`JoinCombiner`] and accepted candidates are offered to the global [`DpTable`]
/// so the winner reconstructs later. Returns the stats of the best multi-block set found
/// (preferring full coverage of the selection), or `None` if no two selected blocks combine.
fn solve_block<M: CostModel<W> + ?Sized, const W: usize>(
    combiner: &JoinCombiner<'_, M, W>,
    blocks: &[SubPlanStats<W>],
    selected: &[usize],
    table: &mut DpTable<W>,
    edge_buf: &mut Vec<EdgeId>,
    cost_calls: &mut usize,
) -> Option<SubPlanStats<W>> {
    let m = selected.len();
    debug_assert!(m >= 2);
    let graph = combiner.graph();
    // Local memo indexed by block-subset mask; the global table cannot serve here because it is
    // keyed by relation sets and may hold entries from earlier rounds.
    let mut memo: Vec<Option<SubPlanStats<W>>> = vec![None; 1usize << m];
    for (bit, &block) in selected.iter().enumerate() {
        memo[1 << bit] = Some(blocks[block]);
    }

    // Ascending mask order: every proper submask precedes its supersets.
    for mask in 3usize..(1 << m) {
        if mask.is_power_of_two() {
            continue;
        }
        let mut best: Option<SubPlanStats<W>> = None;
        // Walk the proper submasks; `s1 < s2` visits each unordered split once (the combiner
        // tries both orientations itself).
        let mut s1 = (mask - 1) & mask;
        while s1 != 0 {
            let s2 = mask ^ s1;
            if s1 < s2 {
                if let (Some(a), Some(b)) = (&memo[s1], &memo[s2]) {
                    if graph.has_connecting_edge(a.set, b.set) {
                        graph.connecting_edges_into(a.set, b.set, edge_buf);
                        if let Some(candidate) = combiner.combine(a, b, edge_buf) {
                            *cost_calls += 1;
                            if best.is_none_or(|c| candidate.cost < c.cost) {
                                // Memoize the *table's* class for the set, not the raw
                                // candidate: an earlier round may have stored a cheaper plan
                                // for the same relations (the offer is then rejected), and
                                // reconstruction follows the table — costing parents from the
                                // candidate would overstate the cost of the tree actually
                                // returned.
                                table.offer(candidate);
                                let class = table
                                    .get(candidate.set)
                                    .expect("offered set is present")
                                    .stats();
                                best = Some(class);
                            }
                        }
                    }
                }
            }
            s1 = (s1 - 1) & mask;
        }
        memo[mask] = best;
    }

    // Prefer the plan covering the whole selection; with hyperedge-induced connectivity gaps
    // fall back to the largest (then cheapest) multi-block set so the round still progresses.
    let full = (1usize << m) - 1;
    let winner = memo[full].or_else(|| {
        memo.iter()
            .enumerate()
            .filter(|(mask, _)| mask.count_ones() >= 2)
            .filter_map(|(_, stats)| *stats)
            .max_by(|a, b| {
                a.set
                    .len()
                    .cmp(&b.set.len())
                    .then(b.cost.total_cmp(&a.cost))
            })
    })?;
    // Re-read the stats from the global table: it may know a cheaper plan for the same set from
    // an earlier round, and reconstruction follows the table's choice.
    Some(
        table
            .get(winner.set)
            .expect("winner was offered to the table")
            .stats(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsize::dpsize;
    use crate::goo::goo;
    use qo_catalog::CoutCost;

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
        assert!(matches!(
            idp(&g, &c, &CoutCost, 3),
            Err(BaselineError::NoCompletePlan { .. })
        ));
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
    fn connected_strategy_produces_complete_valid_plans() {
        let cards = [10.0, 500.0, 20.0, 8000.0, 50.0, 5.0, 900.0];
        let (g, c) = chain(7, &cards, 0.01);
        for k in 2..=8 {
            let r =
                idp_with_strategy(&g, &c, &CoutCost, k, IdpStrategy::ConnectedSmallest).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
            assert!(r.cost.is_finite() && r.cost > 0.0);
        }
    }

    #[test]
    fn connected_strategy_matches_the_default_on_uniformly_connected_shapes() {
        // On a star every candidate block has exactly one edge to the hub, so the cardinality
        // tie-break makes both strategies pick identical selections — the "never degrades a
        // star" guarantee in miniature (the driver-level test covers the 96-relation star).
        for satellites in [8usize, 20, 40] {
            let (g, c) = star(satellites);
            for k in [3usize, 5, 6] {
                let default = idp(&g, &c, &CoutCost, k).unwrap();
                let connected =
                    idp_with_strategy(&g, &c, &CoutCost, k, IdpStrategy::ConnectedSmallest)
                        .unwrap();
                assert_eq!(
                    connected.cost, default.cost,
                    "satellites = {satellites}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn connected_strategy_prefers_densely_connected_blocks() {
        // R3 connects to both R0 and R1 (two edges once {R0, R1, R2} is selected), R4 only to
        // R0. The connectivity-aware growth must absorb R3 before R4 even though R4 is cheaper.
        let mut b = Hypergraph::builder(5);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(0, 3);
        b.add_simple_edge(1, 3);
        b.add_simple_edge(0, 4);
        let g = b.build();
        let mut cb = Catalog::builder(5);
        cb.set_cardinality(0, 10.0)
            .set_cardinality(1, 12.0)
            .set_cardinality(2, 14.0)
            .set_cardinality(3, 5_000.0)
            .set_cardinality(4, 20.0);
        for e in 0..5 {
            cb.set_selectivity(e, 0.01);
        }
        let c = cb.build();
        // k = 4 selects {0,1,2} + one more block. Both strategies must produce complete plans;
        // the connected one gets the extra predicate of R3 into its block DP.
        let default = idp(&g, &c, &CoutCost, 4).unwrap();
        let connected =
            idp_with_strategy(&g, &c, &CoutCost, 4, IdpStrategy::ConnectedSmallest).unwrap();
        assert_eq!(default.plan.relations(), g.all_nodes());
        assert_eq!(connected.plan.relations(), g.all_nodes());
        // Exact DP over the same 5 relations bounds both from below.
        let exact = dpsize(&g, &c, &CoutCost).unwrap();
        assert!(connected.cost >= exact.cost - 1e-9);
        assert!(default.cost >= exact.cost - 1e-9);
    }

    #[test]
    fn connected_strategy_handles_hyperedge_gaps() {
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
            let r =
                idp_with_strategy(&g, &c, &CoutCost, k, IdpStrategy::ConnectedSmallest).unwrap();
            assert_eq!(r.plan.relations(), g.all_nodes(), "k = {k}");
        }
    }
}
