//! A data-warehouse star join: one fact table joined with eight dimension tables (the workload
//! class the paper highlights as "common in data warehousing").
//!
//! The example compares the DPhyp optimum against the greedy GOO baseline and prints the
//! search-space statistics that explain why star queries are the hard case for DPsize/DPsub.
//!
//! ```text
//! cargo run --example star_warehouse
//! ```

use dphyp::{optimize, JoinOp};
use qo_baselines::goo;
use qo_catalog::{Catalog, CoutCost};
use qo_hypergraph::Hypergraph;

fn main() {
    const DIMENSIONS: usize = 8;
    // Node 0 is the fact table; 1..=8 are dimensions of wildly different sizes.
    let mut graph = Hypergraph::<1>::builder(DIMENSIONS + 1);
    for d in 1..=DIMENSIONS {
        graph.add_simple_edge(0, d);
    }
    let graph = graph.build();

    let dimension_sizes = [
        25.0,
        10_000.0,
        200.0,
        1_000_000.0,
        50.0,
        3_650.0,
        100.0,
        500_000.0,
    ];
    let mut catalog = Catalog::builder(DIMENSIONS + 1);
    catalog.set_cardinality(0, 100_000_000.0);
    for (d, &size) in dimension_sizes.iter().enumerate() {
        catalog.set_cardinality(d + 1, size);
        // Foreign-key join: one matching dimension row per fact row.
        catalog.set_selectivity(d, 1.0 / size);
    }
    let catalog = catalog.build();

    let optimal = optimize(&graph, &catalog).expect("star query is plannable");
    let greedy = goo(&graph, &catalog, &CoutCost).expect("greedy always finds a plan");

    println!("star schema: 1 fact table + {DIMENSIONS} dimensions");
    println!(
        "DPhyp:  cost {:>14.1}   ({} csg-cmp-pairs, {} DP entries)",
        optimal.cost, optimal.ccp_count, optimal.dp_entries
    );
    println!(
        "GOO:    cost {:>14.1}   ({} class pairs tested, {} joins costed)",
        greedy.cost, greedy.pairs_tested, greedy.cost_calls
    );
    println!(
        "greedy over-cost factor: {:.3}×",
        greedy.cost / optimal.cost
    );
    println!();
    println!("optimal plan:\n{}", optimal.plan.pretty());
    assert!(optimal
        .plan
        .operators()
        .iter()
        .all(|op| *op == JoinOp::Inner));
}
