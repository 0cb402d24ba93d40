//! The service's front door never unwinds.
//!
//! Every public serve entry point answers malformed input with an `Err` or with a plan that
//! scans every relation of its query exactly once; none of them panics. The properties feed:
//!
//! * malformed specs into `plan_spec`, `plan_batch` and `plan_observed`: edge ids out of range
//!   (up to `usize::MAX`) or on two sides of one edge, empty sides, out-of-range lateral
//!   references, non-finite or out-of-range cardinalities and selectivities, relation counts
//!   past the widest tier, and observed-statistics overlays with ids up to `usize::MAX`;
//! * random bytes and corpus files with a few bytes overwritten into `plan_jg`;
//! * a `ServedPlan` and `ExecutionFeedback` taken from a different query into
//!   `observe_execution`, followed by more serves of both queries, so that a pin built from
//!   the foreign report is served.
//!
//! The first two properties serve all their cases through one service, so later cases also
//! walk the cache's hit and drift paths with the earlier cases' entries in place.

use dphyp::{ExecutionFeedback, JoinOp, ObservedStats, QuerySpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qo_ingest::parse_queries;
use qo_service::{ServedPlan, Service};
use qo_workloads::CORPUS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, turning an unwind into a failed case that names `what`.
fn no_unwind<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError(format!("{what} unwound instead of answering")))
}

/// The served plan scans relations `0..relations` once each.
fn check_plan(served: &ServedPlan, relations: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        served.plan.relation_ids(),
        (0..relations).collect::<Vec<_>>()
    );
    Ok(())
}

/// An answer is an `Err`, or a plan that scans relations `0..relations` once each.
fn check_answer<E>(answer: &Result<ServedPlan, E>, relations: usize) -> Result<(), TestCaseError> {
    match answer {
        Ok(served) => check_plan(served, relations),
        Err(_) => Ok(()),
    }
}

/// A statistic that is usually valid and sometimes not: NaN, ±∞, negative, zero or huge.
fn statistic(rng: &mut StdRng, valid: f64) -> f64 {
    match rng.random_range(0u32..16) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -valid,
        4 => 0.0,
        5 => f64::MAX,
        _ => valid,
    }
}

/// A relation id that is usually in range and sometimes not, up to `usize::MAX`.
fn relation_id(rng: &mut StdRng, n: usize) -> usize {
    match rng.random_range(0u32..24) {
        0 => usize::MAX,
        1 => 1 << 40,
        2 => n + rng.random_range(0usize..3),
        _ if n == 0 => 0,
        _ => rng.random_range(0..n),
    }
}

/// A spec that is connected and valid when no corruption is drawn, and malformed in any of
/// the ways the module documentation lists otherwise.
fn malformed_spec(rng: &mut StdRng) -> QuerySpec {
    let n = match rng.random_range(0u32..32) {
        0 => 0,
        1 => 129, // past the two-word tier
        2 => 66,  // the two-word tier
        _ => rng.random_range(1usize..12),
    };
    let mut b = QuerySpec::builder(n);
    for r in 0..n {
        let cardinality = rng.random_range(1.0f64..1e7);
        b.set_cardinality(r, statistic(rng, cardinality));
        if rng.random_range(0u32..16) == 0 {
            b.set_lateral_refs(r, &[relation_id(rng, n)]);
        }
    }
    let selectivity = |rng: &mut StdRng| match rng.random_range(0u32..16) {
        0 => 1.5,
        _ => {
            let s = rng.random_range(1e-9f64..1.0);
            statistic(rng, s)
        }
    };
    for r in 1..n {
        let s = selectivity(rng);
        b.add_simple_edge(rng.random_range(0..r), r, s);
    }
    for _ in 0..rng.random_range(0usize..4) {
        let side = |rng: &mut StdRng| -> Vec<usize> {
            (0..rng.random_range(0usize..3))
                .map(|_| relation_id(rng, n))
                .collect()
        };
        let (left, right) = (side(rng), side(rng));
        let s = selectivity(rng);
        match rng.random_range(0u32..4) {
            0 => {
                let flex = side(rng);
                b.add_generalized_edge(&left, &right, &flex, s);
            }
            1 => {
                b.add_edge(&left, &right, s, JoinOp::LeftOuter);
            }
            _ => {
                b.add_edge(&left, &right, s, JoinOp::Inner);
            }
        }
    }
    b.build()
}

/// An overlay of a few observations, with ids up to `usize::MAX` and values of any sign.
fn overlay(rng: &mut StdRng, n: usize) -> ObservedStats {
    let mut observed = ObservedStats::new();
    for _ in 0..rng.random_range(0usize..6) {
        let id = relation_id(rng, n.max(1));
        if rng.random_range(0u32..2) == 0 {
            let c = rng.random_range(0.0f64..1e6);
            observed.observe_cardinality(id, statistic(rng, c));
        } else {
            let s = rng.random_range(0.0f64..1.0);
            observed.observe_selectivity(id, statistic(rng, s));
        }
    }
    observed
}

/// A corpus file with one to four bytes overwritten by printable ASCII or by arbitrary
/// bytes, read back as (lossy) UTF-8.
fn mutated_corpus_file(rng: &mut StdRng) -> String {
    let entry = &CORPUS[rng.random_range(0..CORPUS.len())];
    let mut bytes = entry.source.as_bytes().to_vec();
    for _ in 0..rng.random_range(1usize..5) {
        let at = rng.random_range(0..bytes.len());
        bytes[at] = match rng.random_range(0u32..4) {
            0 => rng.random_range(0u8..=255),
            _ => rng.random_range(b' '..=b'~'),
        };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `plan_jg` answers `Err`, or one plan per parsed query, each covering its query.
fn check_plan_jg(service: &Service, source: &str) -> Result<(), TestCaseError> {
    let answer = no_unwind("plan_jg", || service.plan_jg(source))?;
    if let Ok(plans) = answer {
        let queries = parse_queries(source).expect("plan_jg parsed this source");
        prop_assert_eq!(plans.len(), queries.len());
        for (served, query) in plans.iter().zip(&queries) {
            check_plan(served, query.relation_count())?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_specs_get_an_error_or_a_covering_plan(seed in any::<u64>()) {
        thread_local! {
            static SERVICE: Service = Service::default();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let specs: Vec<QuerySpec> = (0..3).map(|_| malformed_spec(&mut rng)).collect();
        let overlays: Vec<ObservedStats> =
            specs.iter().map(|s| overlay(&mut rng, s.node_count())).collect();
        SERVICE.with(|service| {
            for (spec, observed) in specs.iter().zip(&overlays) {
                let n = spec.node_count();
                let answer = no_unwind("plan_spec", || service.plan_spec(spec))?;
                check_answer(&answer, n)?;
                let answer = no_unwind("plan_observed", || service.plan_observed(spec, observed))?;
                check_answer(&answer, n)?;
            }
            let answers = no_unwind("plan_batch", || service.plan_batch(&specs))?;
            prop_assert_eq!(answers.len(), specs.len());
            for (answer, spec) in answers.iter().zip(&specs) {
                check_answer(answer, spec.node_count())?;
            }
            Ok(())
        })?;
    }

    #[test]
    fn random_bytes_and_mutated_corpus_files_never_unwind(seed in any::<u64>()) {
        thread_local! {
            static SERVICE: Service = Service::default();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let random: Vec<u8> = (0..rng.random_range(0usize..256))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
        let random = String::from_utf8_lossy(&random).into_owned();
        let mutated = mutated_corpus_file(&mut rng);
        SERVICE.with(|service| {
            check_plan_jg(service, &random)?;
            check_plan_jg(service, &mutated)
        })?;
    }

    #[test]
    fn feedback_from_a_different_query_never_unwinds(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = Service::default();
        let valid = |rng: &mut StdRng| loop {
            let spec = malformed_spec(rng);
            if spec.validate().is_ok() && (1..=64).contains(&spec.node_count()) {
                return spec;
            }
        };
        let (a, b) = (valid(&mut rng), valid(&mut rng));
        let (Ok(served_a), Ok(served_b)) = (service.plan_spec(&a), service.plan_spec(&b)) else {
            return Ok(());
        };
        // b's plan under a's serve, and a's serve as reported: a foreign order is recorded as
        // the best one for a's shape, so a's next serve is pinned to it.
        let mut forged = served_a.clone();
        forged.plan = served_b.plan.clone();
        forged.order_digest = served_b.order_digest;
        let true_cost = |rng: &mut StdRng| {
            let c = rng.random_range(1.0f64..1e6);
            statistic(rng, c)
        };
        for served in [&served_b, &served_a, &forged, &served_a] {
            let feedback = ExecutionFeedback {
                true_cost: true_cost(&mut rng),
                max_q_error: statistic(&mut rng, 2.0),
                median_q_error: 1.0,
            };
            no_unwind("observe_execution", || service.observe_execution(served, &feedback))?;
        }
        let feedback = ExecutionFeedback { true_cost: 0.0, max_q_error: 1.0, median_q_error: 1.0 };
        no_unwind("observe_execution", || service.observe_execution(&forged, &feedback))?;
        for spec in [&a, &b, &a] {
            let answer = no_unwind("plan_spec", || service.plan_spec(spec))?;
            check_answer(&answer, spec.node_count())?;
        }
    }
}
