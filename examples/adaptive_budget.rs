//! The adaptive driver in action: one star query, three csg-cmp-pair budgets, three tiers.
//!
//! A 96-relation star has `95·2^94 ≈ 10^30` csg-cmp-pairs — no exact enumerator will ever
//! finish it. The adaptive driver handles it anyway: exact DPhyp runs under a budget and the
//! driver degrades to IDP-k and greedy ordering when the budget is exhausted — or, as for
//! this star, before enumerating at all, when a lower bound on the pair count already exceeds
//! the budget (`exact ccps` then reads 0). This example optimizes the same star under three
//! budgets and prints which tier answered.
//!
//! ```text
//! cargo run --release --example adaptive_budget
//! ```

use dphyp::{AdaptiveOptimizer, AdaptiveOptions, PlanTier};
use qo_workloads::huge_star_spec;
use std::time::Instant;

fn main() {
    let spec = huge_star_spec(2008);
    println!(
        "query: star-96 ({} relations, {} edges) — 95·2^94 csg-cmp-pairs, exact DP infeasible\n",
        spec.node_count(),
        spec.edge_count()
    );
    println!(
        "{:>12} {:>8} {:>14} {:>8} {:>12} {:>14}",
        "budget", "tier", "exact ccps", "IDP k", "wall (ms)", "plan cost"
    );

    // An ample budget (would stay exact on small queries), the default, and a starvation
    // budget that not even a two-block IDP round fits into.
    for budget in [None, Some(10_000), Some(1)] {
        let options = match budget {
            Some(ccp_budget) => AdaptiveOptions {
                ccp_budget,
                ..Default::default()
            },
            None => AdaptiveOptions::default(),
        };
        let start = Instant::now();
        let result = AdaptiveOptimizer::new(options)
            .optimize_spec(&spec)
            .expect("star queries are connected");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            result.plan.scan_count(),
            96,
            "every tier covers all relations"
        );
        println!(
            "{:>12} {:>8} {:>14} {:>8} {:>12.3} {:>14.3e}",
            budget.map_or("default".into(), |b: usize| b.to_string()),
            result.tier.to_string(),
            result.telemetry.exact_ccps,
            result.telemetry.idp_k,
            wall,
            result.cost
        );
    }

    println!();
    println!("the same entry point keeps small queries exact:");
    let chain = qo_workloads::chain_spec(20, 2008);
    let result = dphyp::optimize_adaptive(&chain).unwrap();
    assert_eq!(result.tier, PlanTier::Exact);
    println!(
        "  chain-20 -> tier {}, {} csg-cmp-pairs (the full enumeration), cost {:.3e}",
        result.tier, result.telemetry.exact_ccps, result.cost
    );
}
