//! The user-facing optimizer facade.

use crate::enumerate::DpHyp;
use qo_algebra::{derive_query, ConflictEncoding, OpTree, OpTreeError};
use qo_baselines::BaselineError;
use qo_catalog::{
    BudgetedHandler, Catalog, CcpHandler, CostBasedHandler, CostModel, CoutCost, JoinCombiner,
    MixedCost,
};
use qo_hypergraph::Hypergraph;
use qo_obsv::Span;
use qo_plan::PlanNode;
use std::fmt;

/// Built-in cost models selectable through [`OptimizerOptions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// The classic `C_out` model (sum of intermediate cardinalities).
    #[default]
    Cout,
    /// A simple asymmetric hash-join / nested-loop model.
    Mixed,
}

/// Options controlling the optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// The cost model used to compare plans.
    pub cost_model: CostModelKind,
    /// How non-inner-join conflicts are communicated to the enumeration (hyperedges, the
    /// paper's proposal, or the generate-and-test TES check it compares against).
    pub conflict_encoding: ConflictEncoding,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            cost_model: CostModelKind::Cout,
            conflict_encoding: ConflictEncoding::Hyperedges,
        }
    }
}

/// Errors returned by the optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimizeError {
    /// The catalog does not match the hypergraph.
    InvalidCatalog(String),
    /// The operator tree failed validation.
    InvalidTree(OpTreeError),
    /// A spec edge is malformed: a side is empty, names a relation outside the query, or
    /// shares a relation with another side (e.g. a self-loop). `edge` is the edge's index in
    /// the submitted spec, and `reason` names the caller's relation id.
    InvalidEdge {
        /// Index of the edge in the submitted spec.
        edge: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// No cross-product-free plan covering all relations exists (the query graph is not
    /// connected in the sense of Def. 3). `largest_covered` is the size of the largest connected
    /// set the enumeration found.
    NoCompletePlan {
        /// Size of the largest connected relation set found.
        largest_covered: usize,
    },
    /// The query has more relations than the widest compiled mask width supports
    /// (see [`crate::MAX_WIDE_NODES`]).
    TooManyRelations {
        /// Relations in the query.
        count: usize,
        /// Largest supported relation count.
        max: usize,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::InvalidCatalog(msg) => write!(f, "invalid catalog: {msg}"),
            OptimizeError::InvalidTree(e) => write!(f, "invalid operator tree: {e}"),
            OptimizeError::InvalidEdge { edge, reason } => write!(f, "invalid edge {edge}: {reason}"),
            OptimizeError::NoCompletePlan { largest_covered } => write!(
                f,
                "no cross-product-free plan covers all relations (largest connected set: {largest_covered} relations)"
            ),
            OptimizeError::TooManyRelations { count, max } => write!(
                f,
                "query has {count} relations but the widest compiled node-set width supports {max}"
            ),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<OpTreeError> for OptimizeError {
    fn from(e: OpTreeError) -> Self {
        OptimizeError::InvalidTree(e)
    }
}

impl From<BaselineError> for OptimizeError {
    fn from(e: BaselineError) -> Self {
        match e {
            BaselineError::InvalidCatalog(m) => OptimizeError::InvalidCatalog(m),
            BaselineError::NoCompletePlan { largest_covered } => {
                OptimizeError::NoCompletePlan { largest_covered }
            }
        }
    }
}

/// The result of a successful optimization.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The optimal plan under the chosen cost model.
    pub plan: PlanNode,
    /// Its cost.
    pub cost: f64,
    /// Its estimated output cardinality.
    pub cardinality: f64,
    /// Number of csg-cmp-pairs processed (= cost-function invocations, the paper's measure of
    /// enumeration work).
    pub ccp_count: usize,
    /// Number of entries in the DP table (= connected subgraphs discovered).
    pub dp_entries: usize,
}

/// The DPhyp-based join-order optimizer.
///
/// See the crate-level documentation for a usage example.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    options: OptimizerOptions,
}

impl Optimizer {
    /// Creates an optimizer with the given options.
    pub fn new(options: OptimizerOptions) -> Self {
        Optimizer { options }
    }

    /// The options this optimizer runs with.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// Optimizes a query given directly as an annotated hypergraph plus catalog.
    ///
    /// This is the entry point for inner-join queries and for callers that build their
    /// hypergraph themselves (e.g. the benchmark workloads). Non-inner operators are honored if
    /// the catalog's edge annotations carry them.
    ///
    /// Generic over the mask width `W`: existing single-word callers are unchanged (the width
    /// is inferred from the graph), and `Hypergraph<2>` queries of up to 128 relations run the
    /// same monomorphized enumeration over two-word masks. Callers that only have a
    /// width-agnostic [`crate::QuerySpec`] should use [`Optimizer::optimize_spec`], which picks
    /// the width once per optimization.
    pub fn optimize_hypergraph<const W: usize>(
        &self,
        graph: &Hypergraph<W>,
        catalog: &Catalog<W>,
    ) -> Result<Optimized, OptimizeError> {
        catalog
            .validate_for(graph)
            .map_err(OptimizeError::InvalidCatalog)?;
        let enforce_tes = self.options.conflict_encoding == ConflictEncoding::TesTest;
        // Dispatch on the model kind exactly once; everything downstream — combiner, handler,
        // `EmitCsgCmp` — is monomorphized per concrete model, so the per-pair hot path has no
        // virtual dispatch. The budget never aborts: `usize::MAX` pairs are out of reach (585
        // years at one pair per nanosecond).
        let ccps = usize::MAX;
        let exact = match self.options.cost_model {
            CostModelKind::Cout => exact_dp(graph, catalog, &CoutCost, enforce_tes, ccps),
            CostModelKind::Mixed => exact_dp(graph, catalog, &MixedCost, enforce_tes, ccps),
        };
        match exact {
            ExactDp::Complete(result) => result,
            ExactDp::Aborted { .. } => unreachable!("an unbudgeted enumeration never aborts"),
        }
    }

    /// Optimizes a query given as an initial operator tree (Sec. 5): runs the SES/TES conflict
    /// analysis, derives the hypergraph according to the configured
    /// [`ConflictEncoding`], and enumerates with DPhyp.
    pub fn optimize_tree(&self, tree: &OpTree) -> Result<Optimized, OptimizeError> {
        let query = derive_query(tree, self.options.conflict_encoding)?;
        self.optimize_hypergraph(&query.graph, &query.catalog)
    }
}

/// The outcome of [`exact_dp`].
pub(crate) enum ExactDp {
    /// The enumeration completed: the optimal plan, or why none covers every relation.
    Complete(Result<Optimized, OptimizeError>),
    /// The pair budget cut it short after `ccps` pairs.
    Aborted { ccps: usize },
}

/// The one exact-DP path, run by [`Optimizer`] and by the adaptive driver's exact tier: builds
/// the combiner (with the generate-and-test TES check when `enforce_tes`), runs [`DpHyp`] under
/// a budget of `ccp_budget` pairs inside an `enumerate` span, and
/// reads the plan for the full relation set off the DP table — or reports
/// [`OptimizeError::NoCompletePlan`] with the largest connected set the table covers.
/// Monomorphized per cost model; the caller validates the catalog.
pub(crate) fn exact_dp<M: CostModel<W>, const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
    cost_model: &M,
    enforce_tes: bool,
    ccp_budget: usize,
) -> ExactDp {
    let combiner = JoinCombiner::new(graph, catalog, cost_model).with_tes_enforcement(enforce_tes);
    let mut handler = BudgetedHandler::new(CostBasedHandler::new(combiner), ccp_budget);
    let span = Span::enter("enumerate");
    let _ = DpHyp::new(graph, &mut handler).run();
    drop(span);
    let ccp_count = handler.ccp_count();
    qo_obsv::event("exact_ccps", ccp_count as u64);
    if handler.aborted() {
        return ExactDp::Aborted { ccps: ccp_count };
    }
    let table = handler.into_inner().into_table();
    let all = graph.all_nodes();
    let Some(class) = table.get(all) else {
        let largest_covered = table.classes().map(|c| c.set.len()).max().unwrap_or(0);
        return ExactDp::Complete(Err(OptimizeError::NoCompletePlan { largest_covered }));
    };
    let plan = table
        .reconstruct(all, graph)
        .expect("class for the full relation set must reconstruct");
    ExactDp::Complete(Ok(Optimized {
        plan,
        cost: class.cost,
        cardinality: class.cardinality,
        ccp_count,
        dp_entries: table.len(),
    }))
}

/// Convenience shorthand: optimizes an annotated hypergraph with default options and the `C_out`
/// cost model. Generic over the mask width like [`Optimizer::optimize_hypergraph`].
pub fn optimize<const W: usize>(
    graph: &Hypergraph<W>,
    catalog: &Catalog<W>,
) -> Result<Optimized, OptimizeError> {
    Optimizer::new(OptimizerOptions::default()).optimize_hypergraph(graph, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_algebra::Predicate;
    use qo_bitset::{NodeSet, SubsetIter};
    use qo_catalog::{CountingHandler, EdgeAnnotation, SubPlanStats};
    use qo_plan::{JoinOp, PlanShape};
    use std::collections::HashMap;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    /// Exhaustive optimal cost over all cross-product-free bushy plans, using the same
    /// `JoinCombiner` as the optimizer — the ground truth for optimality tests.
    fn exhaustive_optimal_cost(graph: &Hypergraph, catalog: &Catalog) -> Option<f64> {
        let model = CoutCost;
        let combiner = JoinCombiner::new(graph, catalog, &model);
        let all = graph.all_nodes();
        let mut best: HashMap<NodeSet, SubPlanStats> = HashMap::new();
        for r in all {
            best.insert(
                NodeSet::single(r),
                SubPlanStats::leaf(r, catalog.cardinality(r)),
            );
        }
        // Ascending mask order: subsets come before supersets.
        for s in SubsetIter::new(all) {
            if s.is_singleton() {
                continue;
            }
            let mut best_here: Option<SubPlanStats> = None;
            for s1 in s.proper_subsets() {
                let s2 = s - s1;
                let (Some(a), Some(b)) = (best.get(&s1), best.get(&s2)) else {
                    continue;
                };
                let edges = graph.connecting_edges(s1, s2);
                if let Some(cand) = combiner.combine(a, b, &edges) {
                    if best_here.is_none_or(|c| cand.cost < c.cost) {
                        best_here = Some(cand.stats());
                    }
                }
            }
            if let Some(c) = best_here {
                best.insert(s, c);
            }
        }
        best.get(&all).map(|c| c.cost)
    }

    fn chain_graph(cards: &[f64], sels: &[f64]) -> (Hypergraph, Catalog) {
        let n = cards.len();
        let mut b = Hypergraph::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1);
        }
        let g = b.build();
        let mut cb = Catalog::builder(n);
        for (i, &c) in cards.iter().enumerate() {
            cb.set_cardinality(i, c);
        }
        for (i, &s) in sels.iter().enumerate() {
            cb.set_selectivity(i, s);
        }
        (g, cb.build())
    }

    #[test]
    fn optimizes_a_simple_chain_optimally() {
        let (g, c) = chain_graph(&[10.0, 10_000.0, 100.0], &[0.001, 0.01]);
        let result = optimize(&g, &c).unwrap();
        assert_eq!(result.plan.relations(), g.all_nodes());
        assert_eq!(result.plan.join_count(), 2);
        assert_eq!(result.ccp_count, 4);
        assert_eq!(result.dp_entries, 6); // 3 singletons + {01} + {12} + {012}
        let exhaustive = exhaustive_optimal_cost(&g, &c).unwrap();
        assert!(
            (result.cost - exhaustive).abs() < 1e-9,
            "DPhyp must be optimal"
        );
    }

    #[test]
    fn dphyp_is_optimal_on_various_graphs() {
        // Star with skewed cardinalities.
        let mut b = Hypergraph::builder(5);
        for i in 1..5 {
            b.add_simple_edge(0, i);
        }
        let g = b.build();
        let mut cb = Catalog::builder(5);
        cb.set_cardinality(0, 1_000_000.0);
        for i in 1..5 {
            cb.set_cardinality(i, 10.0 * i as f64);
            cb.set_selectivity(i - 1, 0.001 * i as f64);
        }
        let c = cb.build();
        let result = optimize(&g, &c).unwrap();
        let exhaustive = exhaustive_optimal_cost(&g, &c).unwrap();
        assert!((result.cost - exhaustive).abs() < 1e-6 * exhaustive.max(1.0));

        // Cycle with a hyperedge.
        let mut b = Hypergraph::builder(6);
        for i in 0..6 {
            b.add_simple_edge(i, (i + 1) % 6);
        }
        b.add_hyperedge(ns(&[0, 1]), ns(&[3, 4]));
        let g = b.build();
        let mut cb = Catalog::builder(6);
        for i in 0..6 {
            cb.set_cardinality(i, 100.0 + 50.0 * i as f64);
        }
        for e in 0..7 {
            cb.set_selectivity(e, 0.05);
        }
        let c = cb.build();
        let result = optimize(&g, &c).unwrap();
        let exhaustive = exhaustive_optimal_cost(&g, &c).unwrap();
        assert!((result.cost - exhaustive).abs() < 1e-6 * exhaustive.max(1.0));
    }

    #[test]
    fn reports_missing_complete_plan_for_disconnected_queries() {
        let mut b = Hypergraph::<1>::builder(4);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(2, 3);
        let g = b.build();
        let c = Catalog::uniform(4, 100.0, 2, 0.1);
        let err = optimize(&g, &c).unwrap_err();
        assert_eq!(err, OptimizeError::NoCompletePlan { largest_covered: 2 });
        assert!(err.to_string().contains("cross-product-free"));
    }

    #[test]
    fn rejects_mismatched_catalog() {
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        let g = b.build();
        let c = Catalog::uniform(5, 100.0, 2, 0.1);
        assert!(matches!(
            optimize(&g, &c),
            Err(OptimizeError::InvalidCatalog(_))
        ));
    }

    #[test]
    fn mixed_cost_model_changes_plans_but_still_covers_all_relations() {
        let (g, c) = chain_graph(&[5.0, 50_000.0, 20.0, 300.0], &[0.0001, 0.01, 0.05]);
        let cout = Optimizer::new(OptimizerOptions {
            cost_model: CostModelKind::Cout,
            ..Default::default()
        })
        .optimize_hypergraph(&g, &c)
        .unwrap();
        let mixed = Optimizer::new(OptimizerOptions {
            cost_model: CostModelKind::Mixed,
            ..Default::default()
        })
        .optimize_hypergraph(&g, &c)
        .unwrap();
        assert_eq!(cout.plan.relations(), mixed.plan.relations());
        // Identical enumeration effort regardless of the cost model.
        assert_eq!(cout.ccp_count, mixed.ccp_count);
    }

    fn left_deep_star(ops: &[JoinOp]) -> OpTree {
        let mut tree = OpTree::relation(0, 10_000.0);
        for (i, op) in ops.iter().enumerate() {
            let rel = i + 1;
            tree = OpTree::op(
                *op,
                Predicate::between(0, rel, 0.001),
                tree,
                OpTree::relation(rel, 100.0 * (rel as f64)),
            );
        }
        tree
    }

    #[test]
    fn non_inner_pipeline_preserves_operators() {
        let tree = left_deep_star(&[JoinOp::Inner, JoinOp::LeftOuter, JoinOp::LeftAnti]);
        let result = Optimizer::default().optimize_tree(&tree).unwrap();
        assert_eq!(result.plan.relations(), ns(&[0, 1, 2, 3]));
        let ops = result.plan.operators();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops.iter().filter(|o| **o == JoinOp::Inner).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == JoinOp::LeftOuter).count(), 1);
        assert_eq!(ops.iter().filter(|o| **o == JoinOp::LeftAnti).count(), 1);
    }

    #[test]
    fn antijoin_star_is_forced_left_deep() {
        // All antijoins: the derived hyperedges pin the antijoin order, so the optimal plan is
        // the original left-deep order and the search space is linear.
        let tree = left_deep_star(&[JoinOp::LeftAnti; 5]);
        let result = Optimizer::default().optimize_tree(&tree).unwrap();
        assert_eq!(result.plan.shape(), PlanShape::LeftDeep);
        assert_eq!(result.ccp_count, 5, "one csg-cmp-pair per antijoin");
        // Antijoined satellites appear in their original order bottom-up.
        let ops = result.plan.operators();
        assert!(ops.iter().all(|o| *o == JoinOp::LeftAnti));
    }

    #[test]
    fn tes_test_encoding_finds_the_same_cost_with_more_work() {
        let tree = left_deep_star(&[
            JoinOp::LeftAnti,
            JoinOp::LeftAnti,
            JoinOp::Inner,
            JoinOp::LeftAnti,
            JoinOp::Inner,
        ]);
        let hyper = Optimizer::new(OptimizerOptions {
            conflict_encoding: ConflictEncoding::Hyperedges,
            ..Default::default()
        })
        .optimize_tree(&tree)
        .unwrap();
        let tes = Optimizer::new(OptimizerOptions {
            conflict_encoding: ConflictEncoding::TesTest,
            ..Default::default()
        })
        .optimize_tree(&tree)
        .unwrap();
        assert_eq!(hyper.plan.relations(), tes.plan.relations());
        assert!(
            tes.ccp_count >= hyper.ccp_count,
            "generate-and-test must consider at least as many candidate pairs \
             (tes: {}, hyperedges: {})",
            tes.ccp_count,
            hyper.ccp_count
        );
    }

    #[test]
    fn dependent_join_pipeline_produces_apply_operators() {
        // R0 d-join f(R0), then an inner join with R2.
        let tree = OpTree::op(
            JoinOp::Inner,
            Predicate::between(1, 2, 0.01),
            OpTree::op(
                JoinOp::DepJoin,
                Predicate::between(0, 1, 1.0),
                OpTree::relation(0, 1000.0),
                OpTree::lateral_relation(1, 5.0, ns(&[0])),
            ),
            OpTree::relation(2, 200.0),
        );
        let result = Optimizer::default().optimize_tree(&tree).unwrap();
        let ops = result.plan.operators();
        assert!(
            ops.contains(&JoinOp::DepJoin),
            "the lateral reference must surface as a dependent join: {ops:?}"
        );
    }

    #[test]
    fn counting_and_optimizing_agree_on_search_space_size() {
        let (g, c) = chain_graph(&[10.0, 20.0, 30.0, 40.0, 50.0], &[0.1, 0.1, 0.1, 0.1]);
        let mut counter = CountingHandler::new();
        let _ = DpHyp::new(&g, &mut counter).run();
        let result = optimize(&g, &c).unwrap();
        assert_eq!(counter.ccp_count(), result.ccp_count);
    }

    #[test]
    fn invalid_tree_error_is_propagated() {
        let bad = OpTree::join(
            Predicate::between(0, 0, 0.5),
            OpTree::relation(0, 10.0),
            OpTree::relation(0, 10.0),
        );
        let err = Optimizer::default().optimize_tree(&bad).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidTree(_)));
        assert!(err.to_string().contains("operator tree"));
    }

    #[test]
    fn per_edge_operator_annotations_work_without_the_tree_pipeline() {
        // Manually annotate a hypergraph edge with a left outer join.
        let mut b = Hypergraph::<1>::builder(2);
        b.add_simple_edge(0, 1);
        let g = b.build();
        let mut cb = Catalog::builder(2);
        cb.set_cardinality(0, 50.0).set_cardinality(1, 500.0);
        cb.annotate_edge(0, EdgeAnnotation::with_op(0.001, JoinOp::LeftOuter));
        let c = cb.build();
        let result = optimize(&g, &c).unwrap();
        assert_eq!(result.plan.operators(), vec![JoinOp::LeftOuter]);
        // Left outer join preserves the left side: cardinality at least 50.
        assert!(result.cardinality >= 50.0);
    }
}
