//! Query hypergraphs for join-order optimization.
//!
//! The DPhyp paper models a join query as a hypergraph `H = (V, E)`: the nodes `V` are the
//! relations of the query and every hyperedge `(u, v)` is an abstraction of a join predicate
//! whose left side references exactly the relations in `u` and whose right side references
//! exactly the relations in `v` (Def. 1). Simple (binary) predicates produce simple edges with
//! `|u| = |v| = 1`; complex predicates such as `R1.a + R2.b + R3.c = R4.d + R5.e + R6.f`
//! produce true hyperedges such as `({R1,R2,R3}, {R4,R5,R6})`.
//!
//! This crate also implements the *generalized* hyperedges of Sec. 6 — triples `(u, v, w)` where
//! the relations in `w` may appear on either side of the join — by giving every edge an optional
//! `flex` node set (empty for ordinary edges). As the paper notes, the enumeration algorithms
//! need no changes to support them.
//!
//! The crate provides:
//!
//! * [`Hyperedge`] and [`Hypergraph`] with a builder API,
//! * neighborhood computation `N(S, X)` (Sec. 2.3, Eq. 1) in [`Hypergraph::neighborhood`],
//! * connectivity in the sense of Def. 3 ([`connectivity`]),
//! * a brute-force oracle for connected subgraphs and csg-cmp-pairs ([`count_ccps`] and friends)
//!   used to validate the enumeration algorithms and to report the theoretical lower bound on
//!   cost-function calls, plus [`ccp_lower_bound`], a linear-time lower bound on the ccp count
//!   that lets a budgeted planner skip an enumeration certain to exceed its budget.

mod count;
mod edge;
mod graph;
mod neighborhood;

pub mod connectivity;

pub use count::{
    ccp_lower_bound, count_ccps, count_connected_subgraphs, enumerate_ccps,
    enumerate_connected_subgraphs,
};
pub use edge::{EdgeId, Hyperedge};
pub use graph::{ConnectingFrom, Hypergraph, HypergraphBuilder};

pub use qo_bitset::{NodeId, NodeSet};
