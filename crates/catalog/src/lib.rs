//! Relation statistics, cardinality estimation, cost models and the shared dynamic-programming
//! plan-construction machinery used by every join enumeration algorithm in this workspace.
//!
//! The DPhyp paper abstracts costing into a `cost` function attached to the hypergraph
//! ("join predicates, selectivities, and cardinalities are attached to the hypergraph",
//! Sec. 3.5). This crate is that attachment point:
//!
//! * [`Catalog`]: per-relation cardinalities and lateral references, per-hyperedge
//!   annotations (selectivity, originating operator, TES),
//! * [`ObservedStats`]: a sparse overlay of statistics observed from actual plan execution —
//!   applying it yields a catalog with a bumped [`StatsEpoch`], the drift signal the plan-cache
//!   layer re-optimizes under (the feedback loop),
//! * [`CardinalityEstimator`]: output-cardinality formulas per operator,
//! * [`CostModel`] with two implementations — [`CoutCost`] (the classic C_out used throughout
//!   the join-ordering literature) and [`MixedCost`] (a simple physical model distinguishing
//!   hash joins from nested-loop/dependent joins),
//! * [`table`]: the arena-based DP table ([`DpTable`]) — plan classes in a contiguous arena
//!   behind a `NodeSet → u32` slot map, indexed by mask for one-word graphs of at most 16
//!   relations and a hand-rolled FxHash-style open-addressing map otherwise; classes store no
//!   predicate lists, which [`DpTable::reconstruct`] recollects from the hypergraph for the
//!   returned plan,
//! * [`planner`]: the [`CcpHandler`] trait through which the enumeration algorithms report
//!   csg-cmp-pairs, the cost-based handler that implements the paper's `EmitCsgCmp`
//!   (monomorphized over the cost model), a counting handler used for search-space
//!   statistics, and the [`BudgetedHandler`] decorator that aborts an enumeration from inside
//!   `EmitCsgCmp` once a csg-cmp-pair budget is exhausted (the adaptive driver's early-exit
//!   signal, see [`EmitSignal`]),
//! * [`recost_plan`]: the plan cache's incremental path — a finished [`qo_plan::PlanNode`]
//!   re-costed bottom-up under drifted statistics through the same [`JoinCombiner`], with no
//!   DP table and no enumeration.

mod cardinality;
mod catalog;
mod cost;
mod observed;
pub mod planner;
pub mod table;

pub use cardinality::CardinalityEstimator;
pub use catalog::{Catalog, CatalogBuilder, EdgeAnnotation, StatsEpoch};
pub use cost::{CostModel, CoutCost, MixedCost, SubPlanStats};
pub use observed::{ExecutionFeedback, ObservedStats};
pub use planner::{
    recost_plan, BudgetedHandler, CcpHandler, CostBasedHandler, CountingHandler, EmitSignal,
    JoinCombiner,
};
pub use table::{BestJoin, ClassSlot, DpTable, PlanClass};

pub use qo_bitset::{NodeId, NodeSet};
pub use qo_hypergraph::EdgeId;
pub use qo_plan::JoinOp;
