//! # DPhyp — dynamic-programming join enumeration over hypergraphs
//!
//! This crate is a from-scratch implementation of the DPhyp algorithm of
//! *Dynamic Programming Strikes Back* (Moerkotte & Neumann, SIGMOD 2008), together with the
//! paper's technique for handling non-inner joins (outer joins, semi-/antijoins, nestjoins and
//! their dependent counterparts) by encoding reorderability conflicts as hyperedges.
//!
//! ## Quick start
//!
//! ```
//! use dphyp::{Optimizer, OptimizerOptions};
//! use qo_hypergraph::Hypergraph;
//! use qo_catalog::Catalog;
//!
//! // A chain query R0 - R1 - R2.
//! let mut b = Hypergraph::builder(3);
//! b.add_simple_edge(0, 1);
//! b.add_simple_edge(1, 2);
//! let graph = b.build();
//! let mut cat = Catalog::builder(3);
//! cat.set_cardinality(0, 10.0)
//!     .set_cardinality(1, 10_000.0)
//!     .set_cardinality(2, 100.0)
//!     .set_selectivity(0, 0.001)
//!     .set_selectivity(1, 0.01);
//! let catalog = cat.build();
//!
//! let optimizer = Optimizer::new(OptimizerOptions::default());
//! let result = optimizer.optimize_hypergraph(&graph, &catalog).unwrap();
//! assert_eq!(result.plan.relations(), graph.all_nodes());
//! assert_eq!(result.ccp_count, 4); // chain of 3 relations has 4 csg-cmp-pairs
//! ```
//!
//! ## Architecture
//!
//! * [`enumerate::DpHyp`] is the pure enumeration engine: it walks the hypergraph and reports
//!   every csg-cmp-pair exactly once to a [`qo_catalog::CcpHandler`].
//! * [`Optimizer`] is the user-facing facade: it wires the enumeration to the cost-based handler
//!   of `qo-catalog` (unbudgeted, on the same code path as the adaptive driver's exact tier),
//!   reconstructs the final [`qo_plan::PlanNode`], and offers the full
//!   non-inner-join pipeline (operator tree → TES conflict analysis → hypergraph → DPhyp) from
//!   `qo-algebra`.
//! * The TES generate-and-test variant the paper compares against in Fig. 8a is available via
//!   [`OptimizerOptions::conflict_encoding`] = [`ConflictEncoding::TesTest`].
//! * [`adaptive::AdaptiveOptimizer`] is the production driver on top: it runs the exact
//!   enumeration under a csg-cmp-pair budget and degrades to IDP-k and greedy ordering when a
//!   query's search space (e.g. a 96-relation star, `95·2^94` pairs) cannot be enumerated
//!   exactly, reporting the chosen tier and the spent budget in [`OptimizeResult`].
//! * [`canon`] and [`recost`] are the plan-cache substrate used by the `qo-service` subsystem:
//!   relation-order-invariant spec canonicalization (with a structure-only shape hash) and
//!   incremental re-costing of a cached plan under drifted statistics.

pub mod adaptive;
pub mod canon;
pub mod enumerate;
mod idp;
mod optimizer;
mod query;
pub mod recost;

pub use adaptive::{
    optimize_adaptive, AdaptiveOptimizer, AdaptiveOptions, BudgetTelemetry, OptimizeResult,
    PlanTier,
};
pub use canon::{canonicalize, same_shape, CanonicalQuery};
pub use enumerate::DpHyp;
pub use optimizer::{
    optimize, CostModelKind, OptimizeError, Optimized, Optimizer, OptimizerOptions,
};
pub use query::{optimize_spec, QuerySpec, QuerySpecBuilder, SpecEdge, MAX_WIDE_NODES};
pub use recost::{recost_spec, recost_spec_with_probe, Recosted};

pub use idp::{idp, MAX_IDP_BLOCK_SIZE};

pub use qo_algebra::{ConflictEncoding, OpTree, Predicate};
pub use qo_bitset::{NodeId, NodeSet, NodeSet128, NodeSet64};
pub use qo_catalog::{Catalog, CostModel, CoutCost, ExecutionFeedback, MixedCost, ObservedStats};
pub use qo_hypergraph::{Hyperedge, Hypergraph};
pub use qo_plan::{JoinOp, PlanNode};
