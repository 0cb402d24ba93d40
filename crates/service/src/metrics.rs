//! The service's metrics registry: one place where the stack's scattered telemetry —
//! serve outcomes, `BudgetTelemetry`, sampler counters, the regret
//! ledger — unifies into named counters, gauges and latency histograms.
//!
//! Naming scheme: `qo_<subsystem>_<quantity>[_<unit|total>]`. Counters end in `_total`,
//! latency histograms in `_ns` (log2-bucketed nanoseconds, integer-only on the hot path).
//! Subsystems: `cache` (plan-cache outcome and eviction counters recorded live, once per
//! serve; [`CacheStats`] is a view over them and the `serve` histogram sums), `serve`
//! (per-path serve latencies recorded live, plus sampler admission counters), `optimizer`
//! (budget telemetry accumulated across cold-path optimizations), `trace`
//! (sampled-recording ring eviction), and `regret` (per-shape true-cost regret, view-synced
//! from the [`RegretLedger`] — including one labeled series per observed shape,
//! `qo_regret_last{shape="…"}` / `qo_regret_cumulative{shape="…"}`).

use crate::cache::CacheStats;
use crate::regret::RegretLedger;
use crate::service::PlanSource;
use dphyp::OptimizeResult;
use dphyp::PlanTier;
use qo_obsv::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SamplerStats};
use std::sync::Arc;

/// Pre-registered handles into the service's [`MetricsRegistry`]. Everything static is
/// registered up front in [`ServiceMetrics::new`], so a snapshot of a fresh service already
/// exposes the full (all-zero) metric surface and the Prometheus rendering has a stable
/// shape; only the per-shape regret series appear dynamically, as shapes are observed.
pub(crate) struct ServiceMetrics {
    registry: MetricsRegistry,
    cache_hits: Arc<Counter>,
    cache_shape_hits: Arc<Counter>,
    cache_recost_fallbacks: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    serve_hit_ns: Arc<Histogram>,
    serve_recost_ns: Arc<Histogram>,
    serve_miss_ns: Arc<Histogram>,
    optimizer_exact_ccps: Arc<Counter>,
    optimizer_exact_skipped: Arc<Counter>,
    optimizer_plans_exact: Arc<Counter>,
    optimizer_plans_idp: Arc<Counter>,
    optimizer_plans_greedy: Arc<Counter>,
    trace_dropped_spans: Arc<Counter>,
    trace_dropped_events: Arc<Counter>,
}

impl ServiceMetrics {
    pub(crate) fn new() -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        // View-synced series exist from the start too, even though their values are set only
        // at snapshot time.
        for name in [
            "qo_regret_cycles_total",
            "qo_regret_pins_total",
            "qo_serve_sampled_total",
            "qo_serve_slow_total",
        ] {
            registry.counter(name);
        }
        for name in ["qo_regret_shapes", "qo_regret_total"] {
            registry.gauge(name);
        }
        for (family, help) in HELP {
            registry.describe(family, help);
        }
        ServiceMetrics {
            cache_hits: registry.counter("qo_cache_hits_total"),
            cache_shape_hits: registry.counter("qo_cache_shape_hits_total"),
            cache_recost_fallbacks: registry.counter("qo_cache_recost_fallbacks_total"),
            cache_misses: registry.counter("qo_cache_misses_total"),
            cache_evictions: registry.counter("qo_cache_evictions_total"),
            cache_entries: registry.gauge("qo_cache_entries"),
            serve_hit_ns: registry.histogram("qo_serve_hit_ns"),
            serve_recost_ns: registry.histogram("qo_serve_recost_ns"),
            serve_miss_ns: registry.histogram("qo_serve_miss_ns"),
            optimizer_exact_ccps: registry.counter("qo_optimizer_exact_ccps_total"),
            optimizer_exact_skipped: registry.counter("qo_optimizer_exact_skipped_total"),
            optimizer_plans_exact: registry.counter("qo_optimizer_plans_exact_total"),
            optimizer_plans_idp: registry.counter("qo_optimizer_plans_idp_total"),
            optimizer_plans_greedy: registry.counter("qo_optimizer_plans_greedy_total"),
            trace_dropped_spans: registry.counter("qo_trace_dropped_spans_total"),
            trace_dropped_events: registry.counter("qo_trace_dropped_events_total"),
            registry,
        }
    }

    /// Records one answered serve, once: the outcome counter of the cache path that answered
    /// it and that path's latency histogram. Misses and re-cost fallbacks both run the full
    /// optimizer and share `qo_serve_miss_ns`. `source` is the cache path's, taken before
    /// regret pinning can replace it.
    pub(crate) fn record_serve(&self, source: PlanSource, latency_ns: u64) {
        let (outcome, latency) = match source {
            PlanSource::CacheHit => (&self.cache_hits, &self.serve_hit_ns),
            PlanSource::Recost => (&self.cache_shape_hits, &self.serve_recost_ns),
            PlanSource::RecostFallback => (&self.cache_recost_fallbacks, &self.serve_miss_ns),
            PlanSource::Miss => (&self.cache_misses, &self.serve_miss_ns),
            PlanSource::Pinned => unreachable!("the cache path never answers `Pinned`"),
        };
        outcome.inc();
        latency.observe(latency_ns);
    }

    /// A cache insert evicted `evicted` entries.
    pub(crate) fn record_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.cache_evictions.add(evicted);
        }
    }

    /// The [`CacheStats`] view: outcome counters plus latency-histogram sums, with `entries`
    /// (the cache's own shard scan) alongside.
    pub(crate) fn cache_stats(&self, entries: u64) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.get(),
            shape_hits: self.cache_shape_hits.get(),
            recost_fallbacks: self.cache_recost_fallbacks.get(),
            misses: self.cache_misses.get(),
            evictions: self.cache_evictions.get(),
            entries,
            hit_ns: self.serve_hit_ns.sum(),
            recost_ns: self.serve_recost_ns.sum(),
            miss_ns: self.serve_miss_ns.sum(),
        }
    }

    /// A sampled serve's bounded trace recording evicted `spans` spans and `events` events —
    /// silent ring eviction made visible.
    pub(crate) fn record_trace_drops(&self, spans: u64, events: u64) {
        if spans > 0 {
            self.trace_dropped_spans.add(spans);
        }
        if events > 0 {
            self.trace_dropped_events.add(events);
        }
    }

    /// Absorbs one cold-path optimization's `BudgetTelemetry` into the unified registry.
    pub(crate) fn record_optimize(&self, result: &OptimizeResult) {
        let t = &result.telemetry;
        self.optimizer_exact_ccps.add(t.exact_ccps as u64);
        if t.exact_skipped {
            self.optimizer_exact_skipped.inc();
        }
        match result.tier {
            PlanTier::Exact => self.optimizer_plans_exact.inc(),
            PlanTier::Idp => self.optimizer_plans_idp.inc(),
            PlanTier::Greedy => self.optimizer_plans_greedy.inc(),
        }
    }

    /// Sets the `qo_cache_entries` gauge to `cache_entries`, view-syncs the sampler
    /// admission counters from `sampler` and the regret gauges (aggregate and one labeled
    /// series per observed shape) from `regret`, then snapshots the whole registry. Regret
    /// values are `C_out` cardinality sums; they are rendered rounded to integer gauges.
    pub(crate) fn snapshot(
        &self,
        cache_entries: u64,
        sampler: SamplerStats,
        regret: &RegretLedger,
    ) -> MetricsSnapshot {
        self.cache_entries.set(cache_entries);
        self.registry
            .counter("qo_serve_sampled_total")
            .store(sampler.sampled);
        self.registry
            .counter("qo_serve_slow_total")
            .store(sampler.slow_serves);
        let shapes = regret.shapes();
        self.registry
            .gauge("qo_regret_shapes")
            .set(shapes.len() as u64);
        self.registry
            .counter("qo_regret_pins_total")
            .store(regret.pins());
        self.registry
            .counter("qo_regret_cycles_total")
            .store(shapes.iter().map(|s| s.cycles).sum());
        self.registry.gauge("qo_regret_total").set(
            shapes
                .iter()
                .map(|s| s.cumulative_regret)
                .sum::<f64>()
                .round() as u64,
        );
        for s in &shapes {
            self.registry
                .gauge(&format!("qo_regret_last{{shape=\"{:016x}\"}}", s.shape))
                .set(s.last_regret.round() as u64);
            self.registry
                .gauge(&format!(
                    "qo_regret_cumulative{{shape=\"{:016x}\"}}",
                    s.shape
                ))
                .set(s.cumulative_regret.round() as u64);
        }
        self.registry.snapshot()
    }
}

/// `# HELP` text per metric family (see `MetricsRegistry::describe`).
const HELP: &[(&str, &str)] = &[
    (
        "qo_cache_entries",
        "Plans currently held by the sharded LRU plan cache.",
    ),
    (
        "qo_cache_evictions_total",
        "Cache entries evicted by LRU capacity pressure.",
    ),
    (
        "qo_cache_hits_total",
        "Serves answered verbatim from the plan cache (shape and stats matched).",
    ),
    (
        "qo_cache_misses_total",
        "Serves that optimized from scratch (first sight of the query shape).",
    ),
    (
        "qo_cache_recost_fallbacks_total",
        "Stats-drift serves whose re-costed cached order failed the staleness probe.",
    ),
    (
        "qo_cache_shape_hits_total",
        "Stats-drift serves answered by re-costing the cached join order.",
    ),
    (
        "qo_optimizer_exact_ccps_total",
        "Csg-cmp-pairs processed by the exact DPhyp tier across cold optimizations.",
    ),
    (
        "qo_optimizer_exact_skipped_total",
        "Cold optimizations whose exact tier was skipped: its ccp lower bound exceeded the budget.",
    ),
    (
        "qo_optimizer_plans_exact_total",
        "Cold optimizations answered by the exact tier.",
    ),
    (
        "qo_optimizer_plans_greedy_total",
        "Cold optimizations that fell back to greedy ordering.",
    ),
    (
        "qo_optimizer_plans_idp_total",
        "Cold optimizations that fell back to iterative dynamic programming.",
    ),
    (
        "qo_regret_cumulative",
        "Per-shape cumulative true-cost regret over all observed serve cycles.",
    ),
    (
        "qo_regret_cycles_total",
        "Observed execution reports absorbed by the regret ledger.",
    ),
    (
        "qo_regret_last",
        "Per-shape true-cost regret of the most recent observed cycle.",
    ),
    (
        "qo_regret_pins_total",
        "Serves answered by pinning the proven-best order over the model's candidate.",
    ),
    (
        "qo_regret_shapes",
        "Distinct query shapes tracked by the regret ledger.",
    ),
    (
        "qo_regret_total",
        "Cumulative true-cost regret summed over all shapes.",
    ),
    (
        "qo_serve_hit_ns",
        "Latency of cache-hit serves, from sampler admission to the cache path's answer.",
    ),
    (
        "qo_serve_miss_ns",
        "Latency of full-optimization serves (miss or re-cost fallback), from sampler admission to the cache path's answer.",
    ),
    (
        "qo_serve_recost_ns",
        "Latency of accepted re-cost serves, from sampler admission to the cache path's answer.",
    ),
    (
        "qo_serve_sampled_total",
        "Serves traced by the always-on sampler (rate-selected or slow-armed).",
    ),
    (
        "qo_serve_slow_total",
        "Serves slower than the sampler's adaptive latency threshold.",
    ),
    (
        "qo_trace_dropped_events_total",
        "Events evicted from bounded trace recording rings.",
    ),
    (
        "qo_trace_dropped_spans_total",
        "Spans evicted from bounded trace recording rings.",
    ),
];
