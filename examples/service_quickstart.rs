//! Quickstart for the `qo-service` plan-cache + optimization service: serve a query cold,
//! warm, and after a statistics drift; plan `.jg` text; and fan a batch out over threads.
//!
//! ```sh
//! cargo run --release --example service_quickstart
//! ```

use dphyp::QuerySpec;
use qo_service::{PlanSource, Service};
use qo_workloads::corpus::corpus;

fn star(hub: f64, satellites: &[f64]) -> QuerySpec {
    let mut b = QuerySpec::builder(satellites.len() + 1);
    b.set_cardinality(0, hub);
    for (i, &card) in satellites.iter().enumerate() {
        b.set_cardinality(i + 1, card);
        b.add_simple_edge(0, i + 1, 0.001);
    }
    b.build()
}

fn main() {
    let service = Service::default();

    // --- Cold, warm, drifted: the three serving paths. -----------------------------------
    let query = star(1_000_000.0, &[50.0, 400.0, 8_000.0, 120.0]);
    let cold = service.plan_spec(&query).expect("plannable");
    println!(
        "cold:  source={:<16} tier={:<6} cost={:.3e}  fingerprint={}",
        cold.source.to_string(),
        cold.tier.to_string(),
        cold.cost,
        cold.fingerprint
    );

    let warm = service.plan_spec(&query).expect("plannable");
    assert_eq!(warm.source, PlanSource::CacheHit);
    assert_eq!(warm.cost, cold.cost, "warm hits are bit-identical");
    println!(
        "warm:  source={:<16} tier={:<6} cost={:.3e}  (bit-identical)",
        warm.source.to_string(),
        warm.tier.to_string(),
        warm.cost
    );

    // Statistics drifted a few percent: same shape fingerprint, new stats epoch — the cached
    // plan is re-costed bottom-up instead of re-enumerating csg-cmp-pairs.
    let drifted = star(1_042_000.0, &[52.0, 410.0, 8_300.0, 118.0]);
    let served = service.plan_spec(&drifted).expect("plannable");
    assert_eq!(served.fingerprint.shape, cold.fingerprint.shape);
    println!(
        "drift: source={:<16} tier={:<6} cost={:.3e}  (shape kept, stats moved)",
        served.source.to_string(),
        served.tier.to_string(),
        served.cost
    );

    // --- .jg text goes through the same cache. -------------------------------------------
    let jg = service
        .plan_jg(
            "query movies_by_company {
               relation title           cardinality=2528312
               relation movie_companies cardinality=2609129
               relation company_name    cardinality=234997
               join title -- movie_companies        selectivity=4e-7
               join movie_companies -- company_name selectivity=4.3e-6
             }",
        )
        .expect("valid .jg");
    println!(
        "jg:    {} planned, cost={:.3e}\n{}",
        jg[0].source,
        jg[0].cost,
        jg[0].plan.pretty()
    );

    // --- The embedded corpus, planned concurrently. --------------------------------------
    let queries = corpus();
    let batch_service = Service::default();
    let t0 = std::time::Instant::now();
    let results = batch_service.plan_batch_ingest(&queries);
    let cold_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let again = batch_service.plan_batch_ingest(&queries);
    let warm_time = t1.elapsed();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, queries.len());
    assert!(again
        .iter()
        .all(|r| { r.as_ref().expect("plannable").source == PlanSource::CacheHit }));
    let stats = batch_service.cache_stats();
    println!(
        "corpus batch: {} queries cold in {:.1} ms, warm in {:.2} ms ({}x); \
         cache: {} hits / {} shape hits / {} misses",
        queries.len(),
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        (cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-12)) as u64,
        stats.hits,
        stats.shape_hits,
        stats.misses,
    );
}
