//! The library behind the `reproduce` binary.
//!
//! Every experiment of the paper boils down to "optimize this query with algorithm X, count its
//! csg-cmp-pairs and time it once". The runners here put the algorithms behind one interface,
//! [`reference`](mod@reference) keeps the std-`HashMap` DP table the arena table is compared
//! against, and [`json`] renders the clock-free `BENCH_baseline.json` snapshot. Timing
//! distributions are the job of the `servebench/` benchmark, not of this crate.

pub mod json;
pub mod reference;

use dphyp::enumerate::DpHyp;
use dphyp::{ConflictEncoding, OpTree, Optimizer, OptimizerOptions};
use qo_baselines::{dpsize, dpsub};
use qo_catalog::{Catalog, CcpHandler, CoutCost};
use qo_hypergraph::Hypergraph;
use reference::HashMapReferenceHandler;
use std::time::{Duration, Instant};

/// Which exact join-ordering algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// DPhyp — the paper's contribution.
    DpHyp,
    /// DPsize (Fig. 1), hypergraph-aware.
    DpSize,
    /// DPsub, hypergraph-aware.
    DpSub,
}

/// Outcome of one optimization run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Cost of the produced plan.
    pub cost: f64,
    /// Number of cost-function invocations (csg-cmp-pairs considered).
    pub cost_calls: usize,
    /// Number of DP-table entries.
    pub dp_entries: usize,
}

/// Runs `algorithm` once over an annotated hypergraph and returns its plan statistics.
///
/// Panics if the query cannot be planned (all benchmark workloads are connected).
pub fn run_algorithm(algorithm: Algorithm, graph: &Hypergraph, catalog: &Catalog) -> RunStats {
    match algorithm {
        Algorithm::DpHyp => {
            let r = Optimizer::new(OptimizerOptions::default())
                .optimize_hypergraph(graph, catalog)
                .expect("benchmark query must be plannable");
            RunStats {
                cost: r.cost,
                cost_calls: r.ccp_count,
                dp_entries: r.dp_entries,
            }
        }
        Algorithm::DpSize => {
            let r = dpsize(graph, catalog, &CoutCost).expect("benchmark query must be plannable");
            RunStats {
                cost: r.cost,
                cost_calls: r.cost_calls,
                dp_entries: r.dp_entries,
            }
        }
        Algorithm::DpSub => {
            let r = dpsub(graph, catalog, &CoutCost).expect("benchmark query must be plannable");
            RunStats {
                cost: r.cost,
                cost_calls: r.cost_calls,
                dp_entries: r.dp_entries,
            }
        }
    }
}

/// Runs the full non-inner-join pipeline (operator tree → conflict analysis → hypergraph →
/// DPhyp) with the requested conflict encoding.
pub fn run_tree_pipeline(tree: &OpTree, encoding: ConflictEncoding) -> RunStats {
    let r = Optimizer::new(OptimizerOptions {
        conflict_encoding: encoding,
        ..Default::default()
    })
    .optimize_tree(tree)
    .expect("benchmark query must be plannable");
    RunStats {
        cost: r.cost,
        cost_calls: r.ccp_count,
        dp_entries: r.dp_entries,
    }
}

/// Measures the wall-clock time of one invocation of `f`: the paper's tables report
/// single-run optimization times.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Formats a duration in milliseconds with three significant decimals, like the paper's tables.
pub fn format_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Repeats `f` until `budget` wall-clock time has elapsed (at least once) and returns the mean
/// milliseconds per invocation.
fn time_mean_ms<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// What the arena [`qo_catalog::DpTable`] and the std-`HashMap` reference
/// ([`reference::HashMapReferenceHandler`]) agree on for one workload.
#[derive(Clone, Debug)]
pub struct TableComparison {
    /// csg-cmp-pairs processed.
    pub ccp_count: usize,
    /// DP-table entries.
    pub dp_entries: usize,
}

/// Runs DPhyp once over each table on an (inner-join) workload and asserts that both agree on
/// plan cost, ccp count and table size.
pub fn compare_tables(graph: &Hypergraph, catalog: &Catalog) -> TableComparison {
    let (arena_cost, ccp_count, dp_entries) = run_arena(graph, catalog);
    let (ref_cost, ref_ccps, ref_entries) = run_hashmap(graph, catalog);
    assert_eq!(ref_ccps, ccp_count, "ccp count mismatch");
    assert_eq!(ref_entries, dp_entries, "table size mismatch");
    assert!(
        (ref_cost - arena_cost).abs() <= 1e-9 * arena_cost.max(1.0),
        "cost mismatch: reference {ref_cost} vs production {arena_cost}"
    );
    TableComparison {
        ccp_count,
        dp_entries,
    }
}

/// Mean milliseconds per optimization with the arena table and with the std-`HashMap`
/// reference, each repeated for at least `budget`. Both sides are driven by the same DPhyp
/// enumerator with the `C_out` model and neither reconstructs a plan, so the difference
/// isolates the memo structure (table lookups in `contains`, class reads, candidate offers).
pub fn time_tables(graph: &Hypergraph, catalog: &Catalog, budget: Duration) -> (f64, f64) {
    (
        time_mean_ms(budget, || run_arena(graph, catalog)),
        time_mean_ms(budget, || run_hashmap(graph, catalog)),
    )
}

/// DPhyp over the production arena table: `(cost, ccp count, table size)`.
fn run_arena(graph: &Hypergraph, catalog: &Catalog) -> (f64, usize, usize) {
    let combiner = qo_catalog::JoinCombiner::new(graph, catalog, &CoutCost);
    let mut h = qo_catalog::CostBasedHandler::new(combiner);
    let _ = DpHyp::new(graph, &mut h).run();
    let ccps = h.ccp_count();
    let table = h.into_table();
    let cost = table.get(graph.all_nodes()).expect("complete plan").cost;
    (cost, ccps, table.len())
}

/// DPhyp over the std-`HashMap` reference table: `(cost, ccp count, table size)`.
fn run_hashmap(graph: &Hypergraph, catalog: &Catalog) -> (f64, usize, usize) {
    let mut h = HashMapReferenceHandler::new(graph, catalog, &CoutCost);
    let _ = DpHyp::new(graph, &mut h).run();
    let cost = h.cost_of(graph.all_nodes()).expect("complete plan");
    (cost, h.ccp_count(), h.dp_entries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_workloads::{cycle_with_hyperedge_splits, star_query, star_with_antijoins};

    #[test]
    fn all_algorithms_agree_on_optimal_cost() {
        let w = cycle_with_hyperedge_splits(8, 1, 42);
        let dphyp = run_algorithm(Algorithm::DpHyp, &w.graph, &w.catalog);
        let dpsize = run_algorithm(Algorithm::DpSize, &w.graph, &w.catalog);
        let dpsub = run_algorithm(Algorithm::DpSub, &w.graph, &w.catalog);
        assert!((dphyp.cost - dpsize.cost).abs() < 1e-6 * dphyp.cost.max(1.0));
        assert!((dphyp.cost - dpsub.cost).abs() < 1e-6 * dphyp.cost.max(1.0));
        // All DP variants invoke the cost function once per csg-cmp-pair.
        assert_eq!(dphyp.cost_calls, dpsize.cost_calls);
        assert_eq!(dphyp.cost_calls, dpsub.cost_calls);
    }

    #[test]
    fn star_queries_show_the_expected_search_space() {
        let w = star_query(6, 1);
        let stats = run_algorithm(Algorithm::DpHyp, &w.graph, &w.catalog);
        // Star with n = 7 relations: (n-1) * 2^(n-2) csg-cmp-pairs.
        assert_eq!(stats.cost_calls, 6 * (1 << 5));
    }

    #[test]
    fn tree_pipeline_generate_and_test_considers_at_least_as_many_pairs() {
        let tree = star_with_antijoins(8, 4, 3);
        let hyper = run_tree_pipeline(&tree, ConflictEncoding::Hyperedges);
        let tes = run_tree_pipeline(&tree, ConflictEncoding::TesTest);
        // Both encodings must produce complete plans; the generate-and-test variant cannot do
        // less enumeration work than the hypergraph encoding (that gap is what Fig. 8a plots).
        assert!(hyper.cost.is_finite() && tes.cost.is_finite());
        assert!(tes.cost_calls >= hyper.cost_calls);
        assert!(tes.dp_entries >= hyper.dp_entries);
    }

    #[test]
    fn timing_helpers_work() {
        let (d, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(!format_ms(d).is_empty());
    }
}
