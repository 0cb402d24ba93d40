//! Common result/error types for the baseline enumerators.

use qo_catalog::DpTable;
use qo_plan::PlanNode;
use std::fmt;

/// Result of a baseline enumeration run.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineResult {
    /// The best plan found.
    pub plan: PlanNode,
    /// Its cost under the shared cost model.
    pub cost: f64,
    /// Its estimated output cardinality.
    pub cardinality: f64,
    /// Number of candidate pairs for which the algorithm invoked the cost function (i.e. both
    /// inputs existed and were connected). GOO costs each connected pair of live classes once,
    /// when the younger of the two is made, and keeps the candidate until either is merged.
    pub cost_calls: usize,
    /// Number of candidate pairs *inspected*, including the ones that failed the disjointness
    /// or connectivity tests. The gap between `pairs_tested` and `cost_calls` is exactly the
    /// wasted work the paper attributes to DPsize/DPsub. GOO tests each pair of live classes
    /// once, when the younger of the two is made: `n(n − 1)/2` pairs of base relations, then
    /// one per live class at each merge.
    pub pairs_tested: usize,
    /// Number of DP-table entries (connected subgraphs memoized). Greedy algorithms report the
    /// number of intermediate classes they materialize instead.
    pub dp_entries: usize,
}

/// Errors shared by the baseline enumerators.
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineError {
    /// The catalog does not match the hypergraph.
    InvalidCatalog(String),
    /// No cross-product-free plan covering every relation exists.
    NoCompletePlan {
        /// Size of the largest relation set the enumerator built a plan for.
        largest_covered: usize,
    },
}

impl BaselineError {
    /// The [`BaselineError::NoCompletePlan`] of an enumerator that stopped short, reporting the
    /// largest class its table holds.
    pub(crate) fn no_complete_plan<const W: usize>(table: &DpTable<W>) -> BaselineError {
        BaselineError::NoCompletePlan {
            largest_covered: table.classes().map(|c| c.set.len()).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidCatalog(m) => write!(f, "invalid catalog: {m}"),
            BaselineError::NoCompletePlan { largest_covered } => write!(
                f,
                "no cross-product-free plan covers all relations (largest connected set: {largest_covered} relations)"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}
