//! Baseline join-enumeration algorithms the paper compares DPhyp against.
//!
//! * [`dpsize`]: the size-driven dynamic programming of Selinger-style optimizers (Fig. 1 of the
//!   paper), extended to hypergraphs by making the connectivity test hyperedge-aware — exactly
//!   as described in Sec. 4.1. Its weakness is that the two inner tests ("disjoint?" and
//!   "connected?") fail far more often than they succeed.
//! * [`dpsub`]: subset-driven dynamic programming; enumerates every subset of the relations in
//!   increasing (mask) order and every split of it, again with hyperedge-aware connectivity
//!   tests.
//! * [`goo`]: greedy operator ordering — not part of the paper's evaluation, but a useful
//!   sanity baseline that shows how far greedy plans are from the DP optimum.
//!
//! DPccp (the paper's predecessor algorithm for simple graphs) is not implemented separately:
//! as the paper notes in Sec. 4.4, "DPhyp performs exactly like DPccp on regular graphs", so the
//! regular-graph experiments use DPhyp directly.
//!
//! All algorithms share the plan-construction machinery of `qo-catalog` (the same
//! [`JoinCombiner`](qo_catalog::JoinCombiner) and cost models), so their plan *quality* is
//! identical by construction and only their enumeration strategy — the thing the paper measures
//! — differs.

mod dpsize;
mod dpsub;
mod goo;
mod result;

pub use dpsize::dpsize;
pub use dpsub::dpsub;
pub use goo::goo;
pub use result::{BaselineError, BaselineResult};

pub use qo_bitset::{NodeId, NodeSet};
