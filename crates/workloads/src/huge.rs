//! Width-agnostic [`QuerySpec`] families sized to exercise the adaptive optimization driver,
//! one per tier.
//!
//! The classic generators in [`graphs`](crate::graphs) produce a concrete
//! `(Hypergraph<W>, Catalog<W>)` pair; the adaptive driver instead consumes a width-agnostic
//! [`QuerySpec`] and picks node-set width *and* algorithm tier itself. This module provides the
//! same seeded families at the spec level — each converted from its `Workload` twin, so the
//! two have bit-identical statistics — plus canonical "huge"
//! instances whose csg-cmp-pair counts land in each tier of the default
//! [`AdaptiveOptions`](dphyp::AdaptiveOptions) budget:
//!
//! | family | pairs | default tier |
//! |---|---|---|
//! | [`huge_chain_spec`] (chain-96) | `(96³−96)/6 ≈ 147k` | exact (fits the 1M budget) |
//! | [`huge_clique_spec`] (clique-40) | `≈ (3^40)/2 ≈ 6·10^18` | IDP fallback |
//! | [`huge_star_spec`] (star-96) | `95·2^94 ≈ 10^30` | IDP fallback |
//!
//! The star-96 family is the driver's motivating example: structurally out of reach of *any*
//! exact enumeration (PR 2 had to route it to GOO by hand), it now plans automatically — see
//! `examples/adaptive_budget.rs` and the `adaptive` experiment of the `reproduce` binary.

use crate::graphs::{chain_query_w, clique_query_w, cycle_query_w, star_query_w, Workload};
use dphyp::QuerySpec;

impl<const W: usize> Workload<W> {
    /// Converts the workload into a width-agnostic [`QuerySpec`] with identical topology and
    /// statistics: every hyperedge becomes a spec edge (in edge-id order, so selectivities and
    /// operators line up), and cardinalities and lateral references carry over unchanged.
    pub(crate) fn to_spec(&self) -> QuerySpec {
        let n = self.graph.node_count();
        let mut b = QuerySpec::builder(n);
        for r in 0..n {
            b.set_cardinality(r, self.catalog.cardinality(r));
            let refs: Vec<usize> = self.catalog.lateral_refs(r).iter().collect();
            if !refs.is_empty() {
                b.set_lateral_refs(r, &refs);
            }
        }
        for (e, edge) in self.graph.edges() {
            let ann = self.catalog.edge_annotation(e);
            let left: Vec<usize> = edge.left().iter().collect();
            let right: Vec<usize> = edge.right().iter().collect();
            if edge.is_generalized() {
                debug_assert!(
                    ann.op.is_inner(),
                    "QuerySpec carries generalized hyperedges for inner joins only"
                );
                let flex: Vec<usize> = edge.flex().iter().collect();
                b.add_generalized_edge(&left, &right, &flex, ann.selectivity);
            } else {
                b.add_edge(&left, &right, ann.selectivity, ann.op);
            }
        }
        b.build()
    }
}

/// Seeded chain query as a width-agnostic spec (`2 ≤ n ≤ 128`).
pub fn chain_spec(n: usize, seed: u64) -> QuerySpec {
    chain_query_w::<2>(n, seed).to_spec()
}

/// Seeded cycle query as a width-agnostic spec (`3 ≤ n ≤ 128`).
pub fn cycle_spec(n: usize, seed: u64) -> QuerySpec {
    cycle_query_w::<2>(n, seed).to_spec()
}

/// Seeded star query as a width-agnostic spec (`1 ≤ satellites ≤ 127`).
pub fn star_spec(satellites: usize, seed: u64) -> QuerySpec {
    star_query_w::<2>(satellites, seed).to_spec()
}

/// Seeded clique query as a width-agnostic spec (`2 ≤ n ≤ 128`).
pub fn clique_spec(n: usize, seed: u64) -> QuerySpec {
    clique_query_w::<2>(n, seed).to_spec()
}

/// The 96-relation chain: large, but with only ≈ 147k csg-cmp-pairs it stays in the **exact**
/// tier under the default budget.
pub fn huge_chain_spec(seed: u64) -> QuerySpec {
    chain_spec(96, seed)
}

/// The 40-relation clique: ≈ `6·10^18` csg-cmp-pairs force the **IDP** fallback tier.
pub fn huge_clique_spec(seed: u64) -> QuerySpec {
    clique_spec(40, seed)
}

/// The 96-relation star (95 satellites): `95·2^94` csg-cmp-pairs — the motivating example of
/// the adaptive driver, planned by the **IDP** tier under any realistic budget.
pub fn huge_star_spec(seed: u64) -> QuerySpec {
    star_spec(95, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{chain_query, star_query};
    use dphyp::{optimize_adaptive, optimize_spec, AdaptiveOptimizer, AdaptiveOptions, PlanTier};

    #[test]
    fn to_spec_preserves_topology_and_statistics() {
        let w = star_query(8, 42);
        let spec = w.to_spec();
        assert_eq!(spec.node_count(), 9);
        assert_eq!(spec.edge_count(), 8);
        // Planning the spec and the original workload must agree exactly.
        let from_spec = optimize_spec(&spec).unwrap();
        let direct = dphyp::optimize(&w.graph, &w.catalog).unwrap();
        assert_eq!(from_spec.cost, direct.cost);
        assert_eq!(from_spec.ccp_count, direct.ccp_count);
    }

    #[test]
    fn spec_families_match_their_workload_twins() {
        let spec = chain_spec(12, 5);
        let w = chain_query(12, 5);
        let a = optimize_spec(&spec).unwrap();
        let b = dphyp::optimize(&w.graph, &w.catalog).unwrap();
        assert_eq!(a.cost, b.cost, "same seed, same statistics, same plan cost");
    }

    #[test]
    fn huge_families_have_the_advertised_shapes() {
        let chain = huge_chain_spec(1);
        assert_eq!((chain.node_count(), chain.edge_count()), (96, 95));
        let star = huge_star_spec(1);
        assert_eq!((star.node_count(), star.edge_count()), (96, 95));
        let clique = huge_clique_spec(1);
        assert_eq!(
            (clique.node_count(), clique.edge_count()),
            (40, 40 * 39 / 2)
        );
    }

    #[test]
    fn huge_clique_forces_the_idp_tier_under_a_small_budget() {
        // The full default budget (1M pairs in debug mode) makes this test slow; a 10k budget
        // exercises the identical abort + fallback path.
        let r = AdaptiveOptimizer::new(AdaptiveOptions {
            ccp_budget: 10_000,
            ..Default::default()
        })
        .optimize_spec(&huge_clique_spec(7))
        .unwrap();
        assert_eq!(r.tier, PlanTier::Idp);
        assert_eq!(r.plan.scan_count(), 40);
    }

    #[test]
    fn huge_chain_stays_exact_under_the_default_budget() {
        let r = optimize_adaptive(&huge_chain_spec(7)).unwrap();
        assert_eq!(r.tier, PlanTier::Exact);
        assert_eq!(r.telemetry.exact_ccps, (96 * 96 * 96 - 96) / 6);
    }
}
