//! The optimization service: canonicalize → fingerprint → cache → (re-cost | optimize).

use crate::cache::{CacheOptions, CacheStats, Entry, Lookup, PlanCache};
use crate::fingerprint::{options_key, Fingerprint};
use crate::flight::{FlightRecorder, RecostDecision, ServeRecord};
use crate::lock_recovering;
use crate::metrics::ServiceMetrics;
use crate::regret::{PinnedPlan, RegretLedger};
use dphyp::{
    recost_spec, recost_spec_with_probe, AdaptiveOptimizer, AdaptiveOptions, BudgetTelemetry,
    CanonicalQuery, ExecutionFeedback, ObservedStats, OptimizeError, PlanTier, QuerySpec,
};
use qo_ingest::{parse_queries, IngestQuery, JgError};
use qo_obsv::{MetricsSnapshot, SamplerOptions, SamplingSink, Span};
use qo_plan::PlanNode;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Configuration of a [`Service`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceOptions {
    /// Plan-cache sizing (capacity, shard count).
    pub cache: CacheOptions,
    /// Base adaptive-driver options; `.jg` queries overlay their own `option` statements on
    /// top of these ([`Service::plan_ingest`]).
    pub adaptive: AdaptiveOptions,
    /// Worker threads of [`Service::plan_batch`]; `0` (the default) means one per available
    /// CPU, capped by the number of distinct shapes in the batch (see
    /// [`effective_batch_threads`]).
    pub batch_threads: usize,
    /// The always-on trace sampler's configuration: rate (default 1-in-1024), exemplar
    /// reservoir, slow-serve threshold. Sampling is pure observation — plans, costs and tiers
    /// are bit-identical with any setting — and the unsampled fast path costs two relaxed
    /// atomics per serve. To trace one query, run its serve under [`qo_obsv::with_sink`].
    pub sampling: SamplerOptions,
    /// Capacity of the serve flight recorder's ring ([`Service::flight_recorder`]): how
    /// many recent serves stay reconstructible post-mortem.
    pub flight_capacity: usize,
}

/// The worker count [`Service::plan_batch`] uses: the configured count (`0` = `available`),
/// capped by the number of shape groups. Always ≥ 1.
pub fn effective_batch_threads(configured: usize, available: usize, groups: usize) -> usize {
    let base = if configured == 0 {
        available
    } else {
        configured
    };
    base.min(groups.max(1)).max(1)
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache: CacheOptions::default(),
            adaptive: AdaptiveOptions::default(),
            batch_threads: 0,
            sampling: SamplerOptions::default(),
            flight_capacity: 256,
        }
    }
}

/// Which serving path produced a [`ServedPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Full optimization: first sight of this query shape.
    Miss,
    /// Served verbatim from the cache (shape and statistics matched).
    CacheHit,
    /// Same shape with drifted statistics: the join order of the nearest cached statistics
    /// variant (ties to most recent) was re-costed bottom-up and passed the staleness probe.
    Recost,
    /// Same shape with drifted statistics, but the re-costed order failed the staleness probe
    /// (or could not be re-costed): answered by a full re-optimization.
    RecostFallback,
    /// The regret ledger vetoed the model's candidate: execution feedback had measured it
    /// worse than the best-known order for this shape (or the shape's exploration budget
    /// was spent), so the proven-best order was re-costed under the current statistics and
    /// served instead. Only shapes reported through [`Service::observe_execution`] can take
    /// this path.
    Pinned,
}

impl fmt::Display for PlanSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            PlanSource::Miss => "miss",
            PlanSource::CacheHit => "hit",
            PlanSource::Recost => "recost",
            PlanSource::RecostFallback => "recost_fallback",
            PlanSource::Pinned => "pinned",
        })
    }
}

/// One answered query: the plan in the caller's original relation/edge ids, plus serving
/// telemetry.
#[derive(Clone, Debug)]
pub struct ServedPlan {
    /// The plan, translated back into the ids of the submitted spec.
    pub plan: PlanNode,
    /// Its cost under the configured cost model.
    pub cost: f64,
    /// Its estimated output cardinality.
    pub cardinality: f64,
    /// The adaptive tier that produced the join order (for cache hits and re-costs: the tier
    /// that produced it originally).
    pub tier: PlanTier,
    /// Which serving path answered.
    pub source: PlanSource,
    /// The query's fingerprint (shape / stats).
    pub fingerprint: Fingerprint,
    /// This serve's sequence number — its identity in the flight recorder, and the handle
    /// [`Service::observe_execution`] links execution feedback back through.
    pub serve_seq: u64,
    /// Id of the sampled trace covering this serve, when the always-on sampler selected it
    /// (look it up in [`Service::sampler`]'s exemplars).
    pub trace_id: Option<u64>,
    /// Structural digest of `plan` ([`qo_plan::PlanNode::order_digest`]) — the identity the
    /// regret ledger links execution feedback back to.
    pub order_digest: u64,
    /// Digest of the query's canonical-to-original id mapping; guards the regret ledger
    /// against handing a stored order to a query that labels its relations differently.
    pub(crate) layout: u64,
}

/// Errors of the `.jg` text entry point.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The source failed to parse or lower; render with [`JgError::render`] for a caret
    /// diagnostic.
    Parse(JgError),
    /// A query parsed but could not be planned.
    Optimize {
        /// Name of the failing query block.
        query: String,
        /// The planner error.
        error: OptimizeError,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse(e) => write!(f, "parse error: {}", e.message),
            ServiceError::Optimize { query, error } => {
                write!(f, "query `{query}` failed to plan: {error}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// The concurrent plan-cache + optimization service.
///
/// All entry points take `&self` and the service is `Sync`: clone-free sharing across the
/// threads of [`Service::plan_batch`] (or an embedding server) is the intended mode of use.
/// See the crate docs for the serving pipeline.
pub struct Service {
    options: ServiceOptions,
    cache: PlanCache,
    metrics: ServiceMetrics,
    sampler: SamplingSink,
    flight: FlightRecorder,
    regret: RegretLedger,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(ServiceOptions::default())
    }
}

impl Service {
    /// Creates a service with the given options.
    pub fn new(options: ServiceOptions) -> Service {
        Service {
            cache: PlanCache::new(options.cache),
            metrics: ServiceMetrics::new(),
            sampler: SamplingSink::new(options.sampling),
            flight: FlightRecorder::new(options.flight_capacity),
            regret: RegretLedger::new(),
            options,
        }
    }

    /// The options this service runs with.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Cache telemetry: hits, shape hits (re-costs), misses, evictions, per-path latencies —
    /// a view over the metrics registry's `qo_cache_*` counters and `qo_serve_*_ns` sums.
    pub fn cache_stats(&self) -> CacheStats {
        self.metrics.cache_stats(self.cache.len())
    }

    /// The always-on trace sampler: exemplar span trees of the 1-in-N sampled serves (plus
    /// serves following a detected slow one) and the sampler's admission counters.
    pub fn sampler(&self) -> &SamplingSink {
        &self.sampler
    }

    /// The serve flight recorder: a bounded ring of structured per-serve records for
    /// post-mortem queries ([`FlightRecorder::records`]) and text dumps
    /// ([`FlightRecorder::dump`]).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The regret ledger: per-shape cumulative excess of served true cost over the
    /// best-known true cost, accumulated across [`Service::observe_execution`] reports.
    pub fn regret_ledger(&self) -> &RegretLedger {
        &self.regret
    }

    /// Reports one instrumented execution of a served plan back to the service: the flight
    /// recorder's entry for that serve gains the true cost and q-error, and the regret
    /// ledger charges the shape with this cycle's regret (which is returned — 0.0 for a
    /// first observation or a new best-known cost). The measured order also joins the
    /// ledger's plan registry, arming the pinning veto for future serves of this shape
    /// (see [`PlanSource::Pinned`]). Pair with [`Service::plan_observed`] to close the
    /// feedback loop *and* account for it.
    pub fn observe_execution(&self, served: &ServedPlan, feedback: &ExecutionFeedback) -> f64 {
        self.flight.annotate(served.serve_seq, feedback);
        self.regret.observe(
            served.fingerprint.shape,
            served.layout,
            served.order_digest,
            served.tier,
            &served.plan,
            feedback.true_cost,
        )
    }

    /// A point-in-time copy of the unified metrics registry: cache outcome and eviction
    /// counters with their per-path serve latency histograms (each serve recorded once; the
    /// same values [`Service::cache_stats`] reads), the cache's entry gauge, the optimizer
    /// telemetry accumulated across cold-path optimizations, trace-ring eviction counters,
    /// sampler admission counters, and the regret ledger's per-shape gauges. Render it with
    /// [`MetricsSnapshot::render_prometheus`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.cache.len(), self.sampler.stats(), &self.regret)
    }

    /// [`Service::metrics_snapshot`] rendered in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// Plans a width-agnostic spec under the service's base adaptive options.
    pub fn plan_spec(&self, spec: &QuerySpec) -> Result<ServedPlan, OptimizeError> {
        self.plan_spec_with(spec, self.options.adaptive)
    }

    /// Plans a lowered `.jg` query, overlaying its own `option` statements on the service's
    /// base adaptive options.
    pub fn plan_ingest(&self, query: &IngestQuery) -> Result<ServedPlan, OptimizeError> {
        self.plan_spec_with(&query.spec, query.options.apply(self.options.adaptive))
    }

    /// Parses `.jg` source text and plans every query block it declares, in order.
    pub fn plan_jg(&self, source: &str) -> Result<Vec<ServedPlan>, ServiceError> {
        let queries = parse_queries(source).map_err(ServiceError::Parse)?;
        queries
            .iter()
            .map(|q| {
                self.plan_ingest(q).map_err(|error| ServiceError::Optimize {
                    query: q.name.clone(),
                    error,
                })
            })
            .collect()
    }

    /// Plans a batch of specs concurrently over `std::thread::scope`, preserving input order
    /// in the result. Worker count is [`ServiceOptions::batch_threads`] (0 = one per CPU),
    /// capped by the number of distinct shapes.
    ///
    /// The fan-out is *shape-grouped* for determinism: queries with the same shape fingerprint
    /// interact through the same cache bucket (the second one is served from the first one's
    /// entry), so they are planned in input order relative to each other, while distinct
    /// shapes — which never interact, barring capacity evictions — run concurrently. A batch
    /// therefore produces exactly the plans sequential serving produces, regardless of thread
    /// interleaving.
    pub fn plan_batch(&self, specs: &[QuerySpec]) -> Vec<Result<ServedPlan, OptimizeError>> {
        self.batch_with(specs, |spec| (spec, self.options.adaptive))
    }

    /// [`Service::plan_batch`] for lowered `.jg` queries: each query's own `option`
    /// statements are overlaid on the service's base options, exactly as in
    /// [`Service::plan_ingest`].
    pub fn plan_batch_ingest(
        &self,
        queries: &[IngestQuery],
    ) -> Vec<Result<ServedPlan, OptimizeError>> {
        self.batch_with(queries, |query| {
            (&query.spec, query.options.apply(self.options.adaptive))
        })
    }

    /// The shared batch machinery: work-stealing over shape groups (see [`Service::plan_batch`]
    /// for the determinism argument). Validation and canonicalization happen once per item, up
    /// front — the grouping needs the shape hash anyway, and the workers serve the prepared
    /// canonical form directly. A malformed item ([`QuerySpec::validate`]) is answered with its
    /// error and joins no group.
    fn batch_with<T: Sync>(
        &self,
        items: &[T],
        prepare: impl Fn(&T) -> (&QuerySpec, AdaptiveOptions),
    ) -> Vec<Result<ServedPlan, OptimizeError>> {
        let prepared: Vec<Result<(&CanonicalQuery, AdaptiveOptions), OptimizeError>> = items
            .iter()
            .map(|item| {
                let (spec, adaptive) = prepare(item);
                spec.validate()?;
                Ok((spec.canonical(), adaptive))
            })
            .collect();
        let serve = |i: usize| match &prepared[i] {
            Ok((canonical, adaptive)) => self.serve(canonical, *adaptive),
            Err(e) => Err(e.clone()),
        };
        // Group item indexes by shape, preserving input order within each group.
        let mut group_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, item) in prepared.iter().enumerate() {
            let Ok((canonical, _)) = item else { continue };
            match group_of.get(&canonical.shape_hash) {
                Some(&g) => groups[g].push(i),
                None => {
                    group_of.insert(canonical.shape_hash, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threads = effective_batch_threads(self.options.batch_threads, available, groups.len());
        if threads <= 1 || items.len() <= 1 {
            return (0..items.len()).map(serve).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<ServedPlan, OptimizeError>>>> = Mutex::new(
            prepared
                .iter()
                .map(|p| p.as_ref().err().map(|e| Err(e.clone())))
                .collect(),
        );
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else { break };
                    for &i in group {
                        let r = serve(i);
                        lock_recovering(&results, |_| {})[i] = Some(r);
                    }
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|r| r.expect("every index was planned"))
            .collect()
    }

    /// The serving pipeline for one spec under explicit adaptive options. A malformed spec
    /// ([`QuerySpec::validate`]) is an error before anything else runs, named in the caller's
    /// relation and edge ids.
    pub fn plan_spec_with(
        &self,
        spec: &QuerySpec,
        adaptive: AdaptiveOptions,
    ) -> Result<ServedPlan, OptimizeError> {
        spec.validate()?;
        self.serve(spec.canonical(), adaptive)
    }

    /// Re-plans a spec under statistics observed from executing its previous plan — the
    /// feedback half of the loop (`qo-exec::ObservedExecution::observed_stats` produces the
    /// overlay).
    ///
    /// The observed overlay changes only statistics, never shape, so this lands on the same
    /// cache bucket as the original query and flows through the drift path: identical stats
    /// are a [`PlanSource::CacheHit`], drifted stats re-cost the cached join order and either
    /// serve it ([`PlanSource::Recost`]) or re-optimize in full
    /// ([`PlanSource::RecostFallback`]).
    pub fn plan_observed(
        &self,
        spec: &QuerySpec,
        observed: &ObservedStats,
    ) -> Result<ServedPlan, OptimizeError> {
        self.plan_observed_with(spec, observed, self.options.adaptive)
    }

    /// [`Service::plan_observed`] under explicit adaptive options.
    pub fn plan_observed_with(
        &self,
        spec: &QuerySpec,
        observed: &ObservedStats,
        adaptive: AdaptiveOptions,
    ) -> Result<ServedPlan, OptimizeError> {
        let _span = Span::enter("feedback");
        self.plan_spec_with(&spec.apply_observed(observed), adaptive)
    }

    /// Serves one already-canonicalized query through the always-on observability shell:
    /// the sampler admits the serve (installing a per-serve recording sink for the decided
    /// 1-in-N, teeing into any ambient sink), [`serve_inner`](Self::serve_inner) does the
    /// actual work, and the completed serve lands in the flight recorder. The unsampled
    /// path adds two relaxed atomics and one ring push — sampling never changes the answer.
    ///
    /// One clock times the serve, from sampler admission to the cache path's answer in
    /// canonical ids (the mapping into the caller's ids, regret pinning and flight recording
    /// excluded). Its reading feeds the sampler, the outcome's
    /// counter and histogram — recorded once, under the cache path's source — and the flight
    /// record, which also keeps the cache path's re-cost decision and optimization telemetry
    /// unless a pin replaced its answer.
    fn serve(
        &self,
        canonical: &CanonicalQuery,
        adaptive: AdaptiveOptions,
    ) -> Result<ServedPlan, OptimizeError> {
        let start = Instant::now();
        let ticket = self.sampler.begin_serve();
        let seq = ticket.seq;
        let result = match &ticket.sample {
            Some(sample) => {
                // The guard drops before the harvest below, so the root `serve` span has
                // closed into the recording.
                let _guard = sample.install();
                self.serve_inner(canonical, adaptive)
            }
            None => self.serve_inner(canonical, adaptive),
        };
        let latency_ns = start.elapsed().as_nanos() as u64;
        let outcome = self.sampler.finish_serve(ticket, latency_ns);
        if let Some(o) = &outcome {
            self.metrics
                .record_trace_drops(o.dropped_spans, o.dropped_events);
        }
        result.map(|mut answer| {
            self.metrics.record_serve(answer.source, latency_ns);
            let trace_id = outcome.map(|o| o.trace_id);
            let layout = layout_digest(canonical);
            let mut plan = canonical.plan_to_original(&answer.plan);
            let mut order_digest = plan.order_digest();
            // Regret shell: if execution feedback has measured this candidate worse than the
            // best-known order for the shape (or spent the exploration budget), serve the
            // proven best instead. Shapes never reported through `observe_execution` have no
            // ledger state and skip this entirely.
            if let Some(pin) = self
                .regret
                .pin(answer.fingerprint.shape, layout, order_digest)
            {
                let digest = pin.digest;
                if let Some(pinned) =
                    self.serve_pinned(canonical, &adaptive, answer.fingerprint, pin)
                {
                    answer = pinned;
                    plan = canonical.plan_to_original(&answer.plan);
                    order_digest = digest;
                }
            }
            self.flight.record(ServeRecord {
                seq,
                fingerprint: answer.fingerprint,
                tier: answer.tier,
                source: answer.source,
                latency_ns,
                cost: answer.cost,
                decision: answer.decision,
                optimization: answer.optimization,
                true_cost: None,
                max_q_error: None,
                trace_id,
            });
            ServedPlan {
                plan,
                cost: answer.cost,
                cardinality: answer.cardinality,
                tier: answer.tier,
                source: answer.source,
                fingerprint: answer.fingerprint,
                serve_seq: seq,
                trace_id,
                order_digest,
                layout,
            }
        })
    }

    /// The serving pipeline proper: fingerprint, cache lookup, then hit / re-cost / full
    /// optimization. A shape lookup also returns its re-cost decision, a full optimization
    /// its budget telemetry.
    fn serve_inner(
        &self,
        canonical: &CanonicalQuery,
        adaptive: AdaptiveOptions,
    ) -> Result<Answer, OptimizeError> {
        let _span = Span::enter("serve");
        let fingerprint = Fingerprint::of(canonical);
        let opts_key = options_key(&adaptive);

        match self.cache.lookup(fingerprint, opts_key, &canonical.spec) {
            Lookup::Hit { plan, tier } => Ok(Answer {
                cost: plan.cost(),
                cardinality: plan.cardinality(),
                plan,
                tier,
                source: PlanSource::CacheHit,
                fingerprint,
                decision: None,
                optimization: None,
            }),
            Lookup::Shape {
                plan,
                tier,
                distance,
            } => {
                let r = recost_spec_with_probe(&canonical.spec, &plan, &adaptive)?;
                let decision = RecostDecision {
                    distance,
                    recost_cost: r.plan.as_ref().map(PlanNode::cost),
                    greedy_cost: r.greedy_cost,
                };
                if let (Some(plan), Some(greedy_cost)) = (r.plan, r.greedy_cost) {
                    // A greedy ordering that beats the re-costed order shows it has gone
                    // stale under the new statistics: re-optimize in full.
                    if plan.cost() <= greedy_cost {
                        let plan = Arc::new(plan);
                        self.insert(canonical, fingerprint, opts_key, &plan, tier);
                        return Ok(Answer {
                            cost: plan.cost(),
                            cardinality: plan.cardinality(),
                            plan,
                            tier,
                            source: PlanSource::Recost,
                            fingerprint,
                            decision: Some(decision),
                            optimization: None,
                        });
                    }
                }
                let mut answer =
                    self.optimize_and_insert(canonical, fingerprint, opts_key, adaptive)?;
                answer.source = PlanSource::RecostFallback;
                answer.decision = Some(decision);
                Ok(answer)
            }
            Lookup::Miss => self.optimize_and_insert(canonical, fingerprint, opts_key, adaptive),
        }
    }

    /// The cold path: full adaptive optimization of the canonical spec, then cache insert.
    fn optimize_and_insert(
        &self,
        canonical: &CanonicalQuery,
        fingerprint: Fingerprint,
        opts_key: u64,
        adaptive: AdaptiveOptions,
    ) -> Result<Answer, OptimizeError> {
        let result = AdaptiveOptimizer::new(adaptive).optimize_spec(&canonical.spec)?;
        self.metrics.record_optimize(&result);
        let plan = Arc::new(result.plan);
        self.insert(canonical, fingerprint, opts_key, &plan, result.tier);
        Ok(Answer {
            plan,
            cost: result.cost,
            cardinality: result.cardinality,
            tier: result.tier,
            source: PlanSource::Miss,
            fingerprint,
            decision: None,
            optimization: Some(result.telemetry),
        })
    }

    /// Caches `plan` (canonical ids) as the variant of `canonical`'s statistics under
    /// `opts_key`, counting the entries the insert evicts.
    fn insert(
        &self,
        canonical: &CanonicalQuery,
        fingerprint: Fingerprint,
        opts_key: u64,
        plan: &Arc<PlanNode>,
        tier: PlanTier,
    ) {
        let evicted = self.cache.insert(
            fingerprint.shape,
            Entry {
                spec: canonical.spec.clone(),
                stats: fingerprint.stats,
                options: opts_key,
                plan: Arc::clone(plan),
                tier,
            },
        );
        self.metrics.record_evictions(evicted);
    }

    /// Dresses the regret ledger's proven-best order as this serve's answer: the stored
    /// plan (original ids, layout-matched by [`RegretLedger::pin`]) is translated into
    /// canonical ids and re-costed bottom-up under the current statistics for honest cost and
    /// cardinality figures. The pin is served whatever the greedy probe
    /// would say, so no probe runs. `None` keeps the model's candidate: the pin is waived only
    /// when the stored order names a relation or edge id the query does not have, or when the
    /// re-cost itself fails (the stored order no longer covers the spec), rather than failing
    /// the serve.
    fn serve_pinned(
        &self,
        canonical: &CanonicalQuery,
        adaptive: &AdaptiveOptions,
        fingerprint: Fingerprint,
        pin: PinnedPlan,
    ) -> Option<Answer> {
        let n = canonical.spec.node_count();
        let edges = canonical.edge_to_original.len();
        // A plan reported under this serve's fingerprint that names ids the query does not
        // have (a caller's report of a different query) cannot be this query's order.
        if pin.plan.relation_ids().iter().any(|&r| r >= n)
            || pin.plan.applied_predicates().iter().any(|&e| e >= edges)
        {
            return None;
        }
        let mut node_inv = vec![0usize; n];
        for (c, &o) in canonical.to_original.iter().enumerate() {
            node_inv[o] = c;
        }
        let mut edge_inv = vec![0usize; edges];
        for (c, &o) in canonical.edge_to_original.iter().enumerate() {
            edge_inv[o] = c;
        }
        let cplan = pin.plan.map_ids(&|r| node_inv[r], &|e| edge_inv[e]);
        let plan = recost_spec(&canonical.spec, &cplan, adaptive).ok()??;
        Some(Answer {
            cost: plan.cost(),
            cardinality: plan.cardinality(),
            plan: Arc::new(plan),
            tier: pin.tier,
            source: PlanSource::Pinned,
            fingerprint,
            decision: None,
            optimization: None,
        })
    }
}

/// The cache path's answer to one serve, in canonical ids, with the decisions its flight
/// record keeps. [`Service::serve`] maps it into the caller's ids.
struct Answer {
    /// The plan, shared with its cache entry.
    plan: Arc<PlanNode>,
    /// Its cost under the configured cost model.
    cost: f64,
    /// Its estimated output cardinality.
    cardinality: f64,
    /// The tier that produced the join order.
    tier: PlanTier,
    /// Which serving path answered.
    source: PlanSource,
    /// The query's fingerprint.
    fingerprint: Fingerprint,
    /// The re-cost decision of a shape lookup.
    decision: Option<RecostDecision>,
    /// The budget telemetry of a full optimization.
    optimization: Option<BudgetTelemetry>,
}

/// Digest of a canonical query's id mappings: the regret ledger's guard that a stored
/// order's original ids name the same relations in the query being served.
fn layout_digest(canonical: &CanonicalQuery) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &r in &canonical.to_original {
        h = (h ^ r as u64).wrapping_mul(PRIME);
    }
    h = (h ^ u64::MAX).wrapping_mul(PRIME);
    for &e in &canonical.edge_to_original {
        h = (h ^ e as u64).wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_cache_shard_is_cleared_and_serves_on() {
        let service = Service::default();
        let mut b = QuerySpec::builder(4);
        for r in 0..4 {
            b.set_cardinality(r, 100.0 * (r + 1) as f64);
        }
        for r in 0..3 {
            b.add_simple_edge(r, r + 1, 0.01);
        }
        let spec = b.build();
        let cold = service.plan_spec(&spec).unwrap();
        assert_eq!(
            service.plan_spec(&spec).unwrap().source,
            PlanSource::CacheHit
        );

        service.cache.poison_shard(cold.fingerprint.shape);
        // The shard was cleared, not trusted: the next serve re-plans, the one after hits.
        let replanned = service.plan_spec(&spec).unwrap();
        assert_eq!(replanned.source, PlanSource::Miss);
        assert_eq!(replanned.plan, cold.plan);
        assert_eq!(
            service.plan_spec(&spec).unwrap().source,
            PlanSource::CacheHit
        );
        assert_eq!(service.cache_stats().entries, 1);
    }
}
