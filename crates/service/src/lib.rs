//! # qo-service — the concurrent plan-cache + optimization service
//!
//! Every other crate in this workspace optimizes one query at a time, from scratch. Real
//! deployments don't: the same join graph arrives thousands of times while only its
//! statistics drift, and a production optimizer amortizes — it canonicalizes, fingerprints,
//! caches, and re-optimizes *incrementally*. This crate is that front door:
//!
//! ```text
//!  QuerySpec / .jg text
//!        │
//!        ▼
//!  canonicalize (dphyp::canon) ──► Fingerprint { shape, stats }
//!        │                              │
//!        ▼                              ▼
//!  ┌───────────────────────────────────────────────┐
//!  │ sharded LRU plan cache (keyed on shape hash)  │
//!  └───────────────────────────────────────────────┘
//!     │ hit                │ shape hit               │ miss
//!     ▼                    ▼ (stats drifted)         ▼
//!  serve cached       re-cost cached DpTable     AdaptiveOptimizer
//!  plan verbatim      bottom-up + greedy probe   (budgeted DPhyp →
//!                       │ stale? ───────────────► IDP-k → GOO)
//!                       ▼ fresh enough                │
//!                     serve re-costed plan ◄──────────┘ (plan cached)
//! ```
//!
//! * **Fingerprinting** ([`Fingerprint`]): a relation-order-invariant 64-bit hash over the
//!   canonical hypergraph shape, with the statistics (and cost model) digested separately —
//!   so "same query, new stats" is distinguishable from "new query" by construction.
//!   The canonical form comes from [`QuerySpec::canonical`](dphyp::QuerySpec::canonical),
//!   which keeps it with the spec: serving a held query again does not re-canonicalize it.
//! * **Plan cache** ([`CacheStats`], [`CacheOptions`]): sharded and thread-safe; lookups lock
//!   one shard briefly, optimizations never hold a lock. LRU eviction per shard. The cache
//!   keeps no counters: each serve is recorded once in the metrics registry, and
//!   [`CacheStats`] is a view over it.
//! * **Incremental re-optimization**: on a stats-only change the plan of the nearest cached
//!   statistics variant (ties to most recent) is re-costed
//!   bottom-up ([`dphyp::recost_spec_with_probe`]) instead of re-enumerating csg-cmp-pairs —
//!   bit-identical to a from-scratch optimization that picks the same join order — and a
//!   greedy probe triggers a full re-optimization when a greedy order beats the re-costed
//!   one, i.e. the cached order has gone stale.
//! * **Batch driver** ([`Service::plan_batch`]): plans a workload concurrently over
//!   `std::thread::scope`, sharing one cache across the workers.
//!
//! ```
//! use dphyp::QuerySpec;
//! use qo_service::{PlanSource, Service};
//!
//! let service = Service::default();
//! let mut b = QuerySpec::builder(3);
//! b.set_cardinality(0, 1_000_000.0);
//! b.set_cardinality(1, 100.0);
//! b.set_cardinality(2, 50.0);
//! b.add_simple_edge(0, 1, 0.001);
//! b.add_simple_edge(0, 2, 0.01);
//! let star = b.build();
//!
//! let cold = service.plan_spec(&star).unwrap();
//! assert_eq!(cold.source, PlanSource::Miss);
//! let warm = service.plan_spec(&star).unwrap();
//! assert_eq!(warm.source, PlanSource::CacheHit);
//! assert_eq!(warm.cost, cold.cost); // bit-identical
//! assert_eq!(service.cache_stats().hits, 1);
//! ```

mod cache;
mod fingerprint;
mod flight;
mod metrics;
mod regret;
mod service;

pub use cache::{CacheOptions, CacheStats};
pub use dphyp::ExecutionFeedback;
pub use fingerprint::Fingerprint;
pub use flight::{FlightRecorder, RecostDecision, ServeRecord};
pub use qo_obsv::{
    HistogramSnapshot, MetricsSnapshot, SampleTrigger, SampledTrace, SamplerOptions, SamplerStats,
    SamplingSink,
};
pub use regret::{RegretLedger, ShapeRegret};
pub use service::{
    effective_batch_threads, PlanSource, ServedPlan, Service, ServiceError, ServiceOptions,
};

/// Locks `mutex` even when a thread panicked while holding it: a poisoned lock's state is
/// handed to `recover`, the poison is cleared and the guard returned, so a panic under one
/// serve's lock never turns into a panic for every later serve that takes the same lock.
pub(crate) fn lock_recovering<T>(
    mutex: &std::sync::Mutex<T>,
    recover: impl FnOnce(&mut T),
) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        recover(&mut guard);
        mutex.clear_poison();
        guard
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphyp::{optimize_adaptive, AdaptiveOptions, OptimizeError, PlanTier, QuerySpec};

    fn star_spec(hub: f64, sats: &[f64], sel: f64) -> QuerySpec {
        let n = sats.len() + 1;
        let mut b = QuerySpec::builder(n);
        b.set_cardinality(0, hub);
        for (i, &card) in sats.iter().enumerate() {
            b.set_cardinality(i + 1, card);
            b.add_simple_edge(0, i + 1, sel);
        }
        b.build()
    }

    fn chain_spec(cards: &[f64], sel: f64) -> QuerySpec {
        let mut b = QuerySpec::builder(cards.len());
        for (i, &c) in cards.iter().enumerate() {
            b.set_cardinality(i, c);
        }
        for i in 0..cards.len() - 1 {
            b.add_simple_edge(i, i + 1, sel);
        }
        b.build()
    }

    #[test]
    fn cold_warm_drift_walk_the_three_paths() {
        let service = Service::default();
        let spec = star_spec(1e6, &[10.0, 20.0, 30.0, 40.0], 0.001);

        let cold = service.plan_spec(&spec).unwrap();
        assert_eq!(cold.source, PlanSource::Miss);
        let direct = optimize_adaptive(&spec).unwrap();
        assert_eq!(
            cold.cost, direct.cost,
            "service cost == direct optimization"
        );
        assert_eq!(cold.plan.scan_count(), 5);

        let warm = service.plan_spec(&spec).unwrap();
        assert_eq!(warm.source, PlanSource::CacheHit);
        assert_eq!(warm.cost, cold.cost, "warm hit is bit-identical");
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(warm.fingerprint, cold.fingerprint);

        // Mild drift: same shape fingerprint, new stats — the re-cost path.
        let drifted = star_spec(1e6, &[11.0, 21.0, 31.0, 41.0], 0.001);
        let served = service.plan_spec(&drifted).unwrap();
        assert_eq!(served.fingerprint.shape, cold.fingerprint.shape);
        assert_ne!(served.fingerprint.stats, cold.fingerprint.stats);
        assert_eq!(served.source, PlanSource::Recost);
        let fresh = optimize_adaptive(&drifted).unwrap();
        if fresh.plan == served.plan {
            assert_eq!(served.cost, fresh.cost, "stable order ⇒ bit-identical");
        }

        let stats = service.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.shape_hits, 1);
        assert_eq!(stats.misses, 1);
        // The drifted epoch is cached as its own variant next to the original.
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.lookups(), 3);
        assert!(stats.hit_ns > 0 && stats.miss_ns > 0 && stats.recost_ns > 0);
    }

    #[test]
    fn stale_orders_fall_back_to_full_reoptimization() {
        let service = Service::default();
        // Cache an order that hinges on satellite 1 being tiny…
        let spec = star_spec(1e6, &[2.0, 1_000.0, 1_000.0, 1_000.0, 1_000.0], 0.001);
        service.plan_spec(&spec).unwrap();
        // …then invert the statistics so that order loses even to greedy.
        let drifted = star_spec(1e6, &[5e7, 1_000.0, 1_000.0, 1_000.0, 1_000.0], 0.001);
        let served = service.plan_spec(&drifted).unwrap();
        assert_eq!(served.source, PlanSource::RecostFallback);
        let fresh = optimize_adaptive(&drifted).unwrap();
        assert_eq!(served.cost, fresh.cost, "fallback is a full optimization");
        assert_eq!(service.cache_stats().recost_fallbacks, 1);

        // The refreshed entry serves the new stats as a full hit now.
        let again = service.plan_spec(&drifted).unwrap();
        assert_eq!(again.source, PlanSource::CacheHit);
        assert_eq!(again.cost, fresh.cost);
    }

    #[test]
    fn flight_records_carry_the_recost_decision_on_drift_serves_only() {
        let service = Service::default();
        let mild = star_spec(1e6, &[10.0, 20.0, 30.0, 40.0], 0.001);
        let stale = star_spec(1e6, &[2.0, 1_000.0, 1_000.0, 1_000.0, 1_000.0], 0.001);
        let miss = service.plan_spec(&mild).unwrap();
        let hit = service.plan_spec(&mild).unwrap();
        service.plan_spec(&stale).unwrap();
        let drifted = star_spec(1e6, &[11.0, 21.0, 31.0, 41.0], 0.001);
        let recost = service.plan_spec(&drifted).unwrap();
        let inverted = star_spec(1e6, &[5e7, 1_000.0, 1_000.0, 1_000.0, 1_000.0], 0.001);
        let fallback = service.plan_spec(&inverted).unwrap();
        let sources = [miss.source, hit.source, recost.source, fallback.source];
        assert_eq!(
            sources,
            [
                PlanSource::Miss,
                PlanSource::CacheHit,
                PlanSource::Recost,
                PlanSource::RecostFallback
            ]
        );

        // Corpus misses: job_29a in the exact tier, job_syn_28 past its lower bound.
        let corpus = |name: &str| {
            let query = qo_workloads::corpus_query(name).expect("in the corpus");
            service.plan_ingest(&query).unwrap()
        };
        let (exact, skipped) = (corpus("job_29a"), corpus("job_syn_28"));
        let exact_hit = corpus("job_29a");
        assert_eq!(exact_hit.source, PlanSource::CacheHit);

        let records = service.flight_recorder().records();
        let record =
            |served: &ServedPlan| *records.iter().find(|r| r.seq == served.serve_seq).unwrap();
        let decision = |served: &ServedPlan| record(served).decision;
        let optimization = |served: &ServedPlan| record(served).optimization;
        assert_eq!(decision(&miss), None);
        assert_eq!(decision(&hit), None);
        assert!(
            optimization(&miss).is_some(),
            "a miss records its optimization"
        );
        assert_eq!(optimization(&hit), None);
        assert_eq!(
            optimization(&recost),
            None,
            "an accepted re-cost optimizes nothing"
        );
        assert!(optimization(&fallback).is_some(), "a fallback re-optimizes");
        assert_eq!(optimization(&exact_hit), None);

        assert_eq!(record(&exact).tier, PlanTier::Exact);
        let t = optimization(&exact).expect("a corpus miss records its optimization");
        assert_eq!((t.exact_ccps, t.ccp_budget), (33_774, 200_000));
        assert!(!t.exact_skipped);
        assert_eq!(t.idp_k, 0);
        assert_eq!(record(&skipped).tier, PlanTier::Idp);
        let t = optimization(&skipped).expect("a corpus miss records its optimization");
        assert!(t.exact_skipped);
        assert_eq!(t.exact_ccps, 0);
        assert!(t.idp_k > 0);
        let distance =
            |a: &QuerySpec, b: &QuerySpec| a.canonical().spec.stats_distance(&b.canonical().spec);

        let d = decision(&recost).expect("a re-cost records its decision");
        assert_eq!(d.distance, distance(&mild, &drifted));
        assert!(d.distance > 0.0 && d.distance.is_finite());
        assert_eq!(d.recost_cost, Some(recost.cost), "the served re-cost");
        assert!(recost.cost <= d.greedy_cost.expect("a star has a greedy plan"));

        let d = decision(&fallback).expect("a fallback records its decision");
        assert_eq!(d.distance, distance(&stale, &inverted));
        let (recost_cost, greedy_cost) = (d.recost_cost.unwrap(), d.greedy_cost.unwrap());
        assert!(recost_cost > greedy_cost, "the probe decided the fallback");

        let dump = service.flight_recorder().dump();
        assert!(dump.contains("distance") && dump.contains("greedy_cost"));
        let line = dump.lines().find(|l| l.contains(" recost ")).unwrap();
        assert!(line.contains(&format!("{:.3}", decision(&recost).unwrap().distance)));
        assert!(line.contains(&format!("{:.1}", recost.cost)), "{dump}");
        assert!(dump.contains("exact_ccps") && dump.contains("skipped") && dump.contains("idp_k"));
        let line = |served: &ServedPlan| {
            let seq = format!("{:>6} ", served.serve_seq);
            dump.lines()
                .find(|l| l.starts_with(&seq))
                .unwrap()
                .to_owned()
        };
        assert!(line(&exact).contains(" 33774/200000 "), "{dump}");
        assert!(line(&exact).contains(" false "), "{dump}");
        let skipped_k = format!(" true  {:>5} ", optimization(&skipped).unwrap().idp_k);
        assert!(line(&skipped).contains(&skipped_k), "{dump}");
    }

    /// A structurally asymmetric snowflake (spokes of lengths 1 and 2 off a hub), with the
    /// relation ids permuted by `perm`. WL colors fully separate such a tree, so any
    /// permutation canonicalizes identically.
    fn asymmetric_spec(perm: [usize; 4]) -> QuerySpec {
        let cards = [5_000.0, 42.0, 300.0, 10.0];
        let mut b = QuerySpec::builder(4);
        for (i, &c) in cards.iter().enumerate() {
            b.set_cardinality(perm[i], c);
        }
        b.add_simple_edge(perm[0], perm[1], 0.01); // hub — leaf spoke
        b.add_simple_edge(perm[0], perm[2], 0.02); // hub — chain spoke…
        b.add_simple_edge(perm[2], perm[3], 0.03); // …second hop
        b.build()
    }

    #[test]
    fn renamed_queries_share_one_entry_when_structure_discriminates() {
        let service = Service::default();
        let cold = service.plan_spec(&asymmetric_spec([0, 1, 2, 3])).unwrap();
        // The same query with every relation renamed/reordered.
        let renamed = asymmetric_spec([2, 0, 3, 1]);
        let warm = service.plan_spec(&renamed).unwrap();
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(warm.source, PlanSource::CacheHit);
        assert_eq!(warm.cost, cold.cost);
        // The served plan is in the *caller's* id space.
        assert_eq!(warm.plan.relation_ids(), vec![0, 1, 2, 3]);
        assert_eq!(service.cache_stats().entries, 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let service = Service::new(ServiceOptions {
            cache: CacheOptions {
                capacity: 2,
                shards: 1,
            },
            ..Default::default()
        });
        let a = star_spec(1e6, &[10.0], 0.001);
        let b = star_spec(1e6, &[10.0, 20.0], 0.001);
        let c = star_spec(1e6, &[10.0, 20.0, 30.0], 0.001);
        service.plan_spec(&a).unwrap();
        service.plan_spec(&b).unwrap();
        service.plan_spec(&a).unwrap(); // refresh a's recency
        service.plan_spec(&c).unwrap(); // evicts b
        assert_eq!(service.cache_stats().evictions, 1);
        assert_eq!(service.cache_stats().entries, 2);
        assert_eq!(service.plan_spec(&a).unwrap().source, PlanSource::CacheHit);
        assert_eq!(service.plan_spec(&b).unwrap().source, PlanSource::Miss);
    }

    #[test]
    fn isomorphic_twins_coexist_as_variants_of_one_shape() {
        // JOB-style `a`/`b` variants: identical join graph, different constants. Both must
        // stay cached side by side so replaying either is an exact hit.
        let service = Service::default();
        let a = star_spec(1e6, &[10.0, 20.0, 30.0], 0.001);
        let b = star_spec(2e6, &[11.0, 22.0, 33.0], 0.002);
        let cold_a = service.plan_spec(&a).unwrap();
        let cold_b = service.plan_spec(&b).unwrap();
        assert_eq!(
            cold_a.fingerprint.shape, cold_b.fingerprint.shape,
            "isomorphic"
        );
        assert_ne!(cold_a.fingerprint.stats, cold_b.fingerprint.stats);
        assert_eq!(cold_a.source, PlanSource::Miss);
        // The twin warm-starts from a's entry through the re-cost path…
        assert!(matches!(
            cold_b.source,
            PlanSource::Recost | PlanSource::RecostFallback
        ));
        // …and both now hit exactly, with their own plans.
        assert_eq!(service.plan_spec(&a).unwrap().source, PlanSource::CacheHit);
        assert_eq!(service.plan_spec(&b).unwrap().source, PlanSource::CacheHit);
        assert_eq!(service.plan_spec(&a).unwrap().cost, cold_a.cost);
        assert_eq!(service.plan_spec(&b).unwrap().cost, cold_b.cost);
        assert_eq!(service.cache_stats().entries, 2);
        assert_eq!(service.cache_stats().evictions, 0);
    }

    #[test]
    fn batch_driver_matches_the_sequential_path() {
        let mut specs: Vec<QuerySpec> = (2..14)
            .map(|n| {
                let cards: Vec<f64> = (0..n).map(|i| 50.0 * (i as f64 + 1.0)).collect();
                chain_spec(&cards, 0.01)
            })
            .collect();
        // Isomorphic twins: same shape, different stats — the batch must order them like the
        // sequential path does (shape-grouped fan-out), or their serving sources would race.
        specs.push(star_spec(1e6, &[10.0, 20.0, 30.0], 0.001));
        specs.push(star_spec(2e6, &[11.0, 22.0, 33.0], 0.002));
        specs.push(star_spec(3e6, &[12.0, 24.0, 36.0], 0.003));
        let sequential = Service::default();
        let seq: Vec<_> = specs
            .iter()
            .map(|s| sequential.plan_spec(s).unwrap())
            .collect();
        let concurrent = Service::new(ServiceOptions {
            batch_threads: 4,
            ..Default::default()
        });
        let par = concurrent.plan_batch(&specs);
        assert_eq!(par.len(), specs.len());
        for (s, p) in seq.iter().zip(par) {
            let p = p.unwrap();
            assert_eq!(p.plan, s.plan, "same plan, any thread interleaving");
            assert_eq!(p.cost, s.cost);
        }
        // Re-running the batch is all hits, concurrently.
        let again = concurrent.plan_batch(&specs);
        for r in again {
            assert_eq!(r.unwrap().source, PlanSource::CacheHit);
        }
        assert_eq!(concurrent.cache_stats().hits, specs.len() as u64);
    }

    #[test]
    fn jg_text_plans_with_per_query_options() {
        let service = Service::default();
        let served = service
            .plan_jg(
                "
                query tiny {
                  relation fact cardinality=100000
                  relation d1   cardinality=100
                  relation d2   cardinality=50
                  join fact -- d1 selectivity=0.001
                  join fact -- d2 selectivity=0.01
                  option cost_model = mixed
                }
            ",
            )
            .unwrap();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].source, PlanSource::Miss);
        assert_eq!(served[0].plan.scan_count(), 3);
        // Same text again: a hit (the effective optimizer options — including the cost model —
        // form the entry's options key, which the identical resubmission matches).
        let again = service.plan_jg(
            "
                query tiny {
                  relation fact cardinality=100000
                  relation d1   cardinality=100
                  relation d2   cardinality=50
                  join fact -- d1 selectivity=0.001
                  join fact -- d2 selectivity=0.01
                  option cost_model = mixed
                }
            ",
        );
        assert_eq!(again.unwrap()[0].source, PlanSource::CacheHit);
        // Parse errors surface as ServiceError::Parse.
        assert!(matches!(
            service.plan_jg("query broken {"),
            Err(ServiceError::Parse(_))
        ));
        // Planner errors carry the query name.
        let err = service
            .plan_jg(
                "query disconnected {
                   relation a cardinality=10
                   relation b cardinality=10
                   relation c cardinality=10
                   relation d cardinality=10
                   join a -- b selectivity=0.5
                   join c -- d selectivity=0.5
                 }",
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Optimize { ref query, .. } if query == "disconnected"));
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn plans_from_weaker_options_are_never_served_to_stronger_requests() {
        let service = Service::default();
        let sats: Vec<f64> = (1..=16).map(|i| 10.0 * i as f64).collect();
        let spec = star_spec(5e4, &sats, 0.003);
        // A zero budget forces a greedy plan into the cache…
        let weak = service
            .plan_spec_with(
                &spec,
                AdaptiveOptions {
                    ccp_budget: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(weak.tier, PlanTier::Greedy);
        // …which a default-budget request must NOT reuse (neither verbatim nor as a re-cost
        // seed): same shape, same stats, different options key ⇒ a fresh full optimization.
        let strong = service.plan_spec(&spec).unwrap();
        assert_eq!(strong.source, PlanSource::Miss);
        assert_eq!(strong.tier, PlanTier::Exact);
        assert!(strong.cost <= weak.cost, "exact can only improve on greedy");
        // Both variants now coexist and each replay hits its own.
        let weak_again = service
            .plan_spec_with(
                &spec,
                AdaptiveOptions {
                    ccp_budget: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(weak_again.source, PlanSource::CacheHit);
        assert_eq!(weak_again.cost, weak.cost);
        let strong_again = service.plan_spec(&spec).unwrap();
        assert_eq!(strong_again.source, PlanSource::CacheHit);
        assert_eq!(strong_again.cost, strong.cost);
    }

    #[test]
    fn oversized_specs_error_without_touching_the_cache() {
        let service = Service::default();
        let cards: Vec<f64> = (0..130).map(|i| 100.0 + i as f64).collect();
        let err = service.plan_spec(&chain_spec(&cards, 0.01)).unwrap_err();
        assert!(matches!(err, OptimizeError::TooManyRelations { .. }));
        assert_eq!(service.cache_stats().entries, 0);
    }

    #[test]
    fn service_options_flow_into_the_driver() {
        // A 17-satellite star under a tiny base budget lands in a fallback tier through the
        // service exactly as it does through the driver directly.
        let service = Service::new(ServiceOptions {
            adaptive: AdaptiveOptions {
                ccp_budget: 10_000,
                ..Default::default()
            },
            ..Default::default()
        });
        let sats: Vec<f64> = (1..=16).map(|i| 10.0 * i as f64).collect();
        let served = service.plan_spec(&star_spec(5e4, &sats, 0.003)).unwrap();
        assert_eq!(served.tier, PlanTier::Idp);
        // And the tier is preserved on the warm path.
        let warm = service.plan_spec(&star_spec(5e4, &sats, 0.003)).unwrap();
        assert_eq!(warm.tier, PlanTier::Idp);
        assert_eq!(warm.source, PlanSource::CacheHit);
    }

    #[test]
    fn batch_fan_out_is_capped_against_oversubscription() {
        // Auto fan-out uses every core, bounded by the group count.
        assert_eq!(effective_batch_threads(0, 8, 100), 8);
        assert_eq!(effective_batch_threads(0, 8, 3), 3);
        // An explicit fan-out is honored, even beyond the core count.
        assert_eq!(effective_batch_threads(6, 8, 100), 6);
        assert_eq!(effective_batch_threads(16, 2, 100), 16);
        // An empty batch resolves to the one-worker floor.
        assert_eq!(effective_batch_threads(0, 8, 0), 1);
    }

    #[test]
    fn out_of_range_edge_endpoints_error_instead_of_panicking() {
        let service = Service::default();
        let mut b = QuerySpec::builder(3);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 7, 0.1);
        let spec = b.build();
        let err = service.plan_spec(&spec).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidEdge { edge: 1, .. }));
        assert!(err.to_string().contains("relation 7"), "{err}");
        assert_eq!(
            service.cache_stats().lookups(),
            0,
            "rejected before the cache"
        );
        // The batch path answers the bad item with the same error and plans the rest.
        let good = chain_spec(&[10.0, 20.0, 30.0], 0.1);
        let batch = Service::new(ServiceOptions {
            batch_threads: 2,
            ..Default::default()
        });
        let results = batch.plan_batch(&[good.clone(), spec, good]);
        assert!(results[0].is_ok() && results[2].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err(), &err);
    }

    #[test]
    fn self_loop_edges_error_instead_of_panicking() {
        let service = Service::default();
        let mut b = QuerySpec::builder(3);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 2, 0.1);
        b.add_simple_edge(1, 1, 0.1);
        let spec = b.build();
        let err = service.plan_spec(&spec).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidEdge { edge: 2, .. }));
        assert!(err.to_string().contains("relation 1"), "{err}");
        // The driver's own entry point rejects it the same way.
        let direct = dphyp::AdaptiveOptimizer::default()
            .optimize_spec(&spec)
            .unwrap_err();
        assert_eq!(direct, err);
        let results = service.plan_batch(&[spec]);
        assert_eq!(results[0].as_ref().unwrap_err(), &err);
    }

    #[test]
    fn invalid_cardinalities_are_named_in_the_callers_ids() {
        // Canonicalization renumbers relations by shape; the error must still name R0.
        let service = Service::default();
        let mut b = QuerySpec::builder(3);
        b.set_cardinality(0, f64::NAN);
        b.set_cardinality(1, 10.0);
        b.set_cardinality(2, 1e6);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 2, 0.01);
        let spec = b.build();
        let err = service.plan_spec(&spec).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::InvalidCatalog("relation R0 has invalid cardinality NaN".to_string())
        );
        assert_eq!(
            service.cache_stats().lookups(),
            0,
            "rejected before the cache"
        );
        assert_eq!(service.plan_batch(&[spec])[0].as_ref().unwrap_err(), &err);
    }

    #[test]
    fn invalid_selectivities_are_named_in_the_callers_ids() {
        let service = Service::default();
        let mut b = QuerySpec::builder(3);
        b.set_cardinality(0, 1e6);
        b.add_simple_edge(0, 1, 0.1);
        b.add_simple_edge(1, 2, 2.0);
        let err = service.plan_spec(&b.build()).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::InvalidCatalog("edge e1 has invalid selectivity 2".to_string())
        );
    }
}
