//! The cardinality-feedback loop, end to end and as a property.
//!
//! The integration test drives the serving path: plan a corpus query cold, execute it over
//! synthetic data, derive an [`ObservedStats`] overlay from the measured cardinalities, and
//! re-plan through [`Service::plan_observed`]. The observed stats land on the same *shape*
//! fingerprint (so the cache recognizes the query) but a drifted *stats* fingerprint (so the
//! service re-costs or re-optimizes instead of blindly replaying the cached order).
//!
//! The property test pins the guarantee feedback rests on: under the observed statistics, a
//! fresh optimization can never be worse than the old join order re-costed under those same
//! statistics — the model-based "feedback never worsens cost" invariant. (The *executed* cost
//! can regress in adversarial data — the estimator still assumes independence — which is why
//! the reproduce experiment measures it honestly instead of asserting it.)

use dphyp::{optimize_adaptive, recost_spec, AdaptiveOptions, QuerySpec};
use proptest::prelude::*;
use qo_exec::{execute_plan_observed, results_equal, scaled_table_sizes, Database};
use qo_service::{PlanSource, Service};
use qo_workloads::corpus::corpus_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn observed_stats_flow_through_the_service_drift_path() {
    let service = Service::default();
    let q = corpus_query("job_01a").unwrap();

    let cold = service.plan_spec(&q.spec).unwrap();
    assert_eq!(cold.source, PlanSource::Miss, "first serve is a cold miss");

    let n = q.spec.node_count();
    let cards: Vec<f64> = (0..n).map(|r| q.spec.cardinality(r)).collect();
    let db = Database::generate(&scaled_table_sizes(&cards, &q.row_overrides, 6), 0xF00D);
    let (graph, _) = q.spec.instantiate::<1>();
    let obs = execute_plan_observed(&cold.plan, &graph, &db, 100_000)
        .expect("job_01a fits the row budget");
    let observed = obs.observed_stats(&db);

    let fed = service.plan_observed(&q.spec, &observed).unwrap();
    // Same query shape: the cache must recognize it rather than treat it as a new query…
    assert_ne!(
        fed.source,
        PlanSource::Miss,
        "same shape must hit the cache"
    );
    assert_eq!(fed.fingerprint.shape, cold.fingerprint.shape);
    // …but the measured statistics differ from the estimates, so the stats epoch drifts.
    assert_ne!(fed.fingerprint.stats, cold.fingerprint.stats);

    // Model-based no-regress: the served plan costs no more than the *old* order re-costed
    // under the observed statistics (Recost serves exactly that order; RecostFallback and a
    // fresh optimization can only beat it).
    let observed_spec = q.spec.apply_observed(&observed);
    let recosted = recost_spec(&observed_spec, &cold.plan, &AdaptiveOptions::default())
        .unwrap()
        .expect("the cold order covers its own query");
    assert!(
        fed.cost <= recosted.cost() * (1.0 + 1e-9),
        "feedback worsened the modeled cost: {} > {}",
        fed.cost,
        recosted.cost()
    );
}

/// Random inner-join query over a chain, star or cycle, with log-uniform cardinalities and
/// random selectivities.
fn random_inner_spec(seed: u64) -> QuerySpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(3usize..9);
    let mut b = QuerySpec::builder(n);
    for r in 0..n {
        let exponent = rng.random_range(0u32..6);
        b.set_cardinality(
            r,
            10f64.powi(exponent as i32) * rng.random_range(1u32..10) as f64,
        );
    }
    let sel = |rng: &mut StdRng| 10f64.powi(-(rng.random_range(0u32..4) as i32)) * 0.9;
    match seed % 3 {
        0 => {
            for i in 0..n - 1 {
                let s = sel(&mut rng);
                b.add_simple_edge(i, i + 1, s);
            }
        }
        1 => {
            for i in 1..n {
                let s = sel(&mut rng);
                b.add_simple_edge(0, i, s);
            }
        }
        _ => {
            for i in 0..n {
                let s = sel(&mut rng);
                b.add_simple_edge(i, (i + 1) % n, s);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Re-optimizing under observed cardinalities never yields a plan whose modeled cost
    /// exceeds the old order re-costed under the same observations — and, the queries being
    /// inner-only, the re-optimized plan computes the same rows.
    #[test]
    fn feedback_never_worsens_modeled_cost(seed in any::<u64>()) {
        let spec = random_inner_spec(seed);
        let n = spec.node_count();
        let old = optimize_adaptive(&spec).unwrap();

        let cards: Vec<f64> = (0..n).map(|r| spec.cardinality(r)).collect();
        let db = Database::generate(&scaled_table_sizes(&cards, &[], 6), seed ^ 0xABCD);
        let (graph, _) = spec.instantiate::<1>();
        let Some(obs) = execute_plan_observed(&old.plan, &graph, &db, 200_000) else {
            // Row budget burst — nothing observed, nothing to assert.
            return Ok(());
        };

        let observed_spec = spec.apply_observed(&obs.observed_stats(&db));
        let new = optimize_adaptive(&observed_spec).unwrap();
        let recosted = recost_spec(&observed_spec, &old.plan, &AdaptiveOptions::default())
            .unwrap()
            .expect("the old order covers its own query");
        prop_assert!(
            new.cost <= recosted.cost() * (1.0 + 1e-9),
            "feedback worsened the modeled cost: {} > {} (seed {})",
            new.cost,
            recosted.cost(),
            seed
        );

        if let Some(new_obs) = execute_plan_observed(&new.plan, &graph, &db, 800_000) {
            prop_assert!(
                results_equal(&obs.rows, &new_obs.rows),
                "re-optimized inner-join plan changed the result (seed {})",
                seed
            );
        }
    }
}
