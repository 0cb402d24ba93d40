//! `drift_feedback`: the write path. Each round serves every corpus query, in a seeded order,
//! under drifted cardinalities, executes the served plan on the round's version of the
//! query's synthetic database, reports the run to the service, and re-plans under the
//! observed statistics.

use crate::common::{
    load_corpus, per_query_gmean, stream, CorpusQuery, Ctx, ServiceCounts, DB_VERSIONS,
};
use crate::stats::Rng;
use crate::Workload;
use dphyp::{AdaptiveOptions, ObservedStats, QuerySpec};
use qo_service::{Service, ServiceOptions};
use std::time::Instant;

/// Rounds run, untimed, when a service starts. Every round adds a drifted and an observed
/// statistics variant per shape, so after these the 8-variant buckets are full and evictions
/// are steady.
const WARMUP_ROUNDS: u64 = 5;
/// Measured rounds per service lifetime. The regret ledger settles on one of a shape's first
/// two measured orders and serves it from then on, so the plans of one lifetime hinge on its
/// first draws. Restarting the service every few rounds makes a run average over many ledger
/// histories instead.
const LIFE_ROUNDS: u64 = 12;
/// Most drift is a few percent per relation; every `SHIFT_PERIOD`-th round of a query also
/// shifts one of its relations tenfold. The schedule is stratified rather than drawn per
/// cycle: each query's phase and the order in which its relations take their turn come from
/// the seed, so a run shifts every query equally often and its figures do not hinge on how
/// many shifts one seed happened to draw.
const SHIFT_PERIOD: u64 = 5;

pub struct DriftFeedback {
    seed: u64,
    corpus: Vec<CorpusQuery>,
    options: Vec<AdaptiveOptions>,
    /// Per query: its shift phase and the order its relations are shifted in.
    shifts: Vec<(u64, Vec<usize>)>,
    service: Service,
    /// The next round to run. Rounds are numbered across lifetimes, so no draw repeats.
    round: u64,
    /// Measured rounds left in the current lifetime.
    life_left: u64,
    /// Whether the current rounds are a lifetime's warm-up, whose plans are not recorded.
    warming: bool,
    /// Modeled cost of every drift serve, per query.
    costs: Vec<Vec<f64>>,
    /// Executed C_out of every drift serve, per query.
    true_costs: Vec<Vec<f64>>,
}

/// The query's spec with every cardinality drifted by a seeded few percent and relation
/// `shifted`, if any, shifted tenfold.
fn drifted(spec: &QuerySpec, shifted: Option<usize>, rng: &mut Rng) -> QuerySpec {
    let mut stats = ObservedStats::new();
    for r in 0..spec.node_count() {
        let mut card = spec.cardinality(r) * rng.range(-0.05, 0.05).exp();
        if shifted == Some(r) {
            card *= 10.0;
        }
        stats.observe_cardinality(r, card);
    }
    spec.apply_observed(&stats)
}

impl DriftFeedback {
    pub fn setup(seed: u64) -> DriftFeedback {
        let corpus = load_corpus(seed);
        let base = ServiceOptions::default().adaptive;
        let options = corpus.iter().map(|q| q.query.options.apply(base)).collect();
        let shifts = (0..corpus.len())
            .map(|i| {
                let mut rng = Rng::stream(seed, stream::SHIFT, i as u64);
                let mut order: Vec<usize> = (0..corpus[i].query.relation_count()).collect();
                rng.shuffle(&mut order);
                (rng.below(SHIFT_PERIOD as usize) as u64, order)
            })
            .collect();
        let mut workload = DriftFeedback {
            seed,
            costs: vec![Vec::new(); corpus.len()],
            true_costs: vec![Vec::new(); corpus.len()],
            corpus,
            options,
            shifts,
            service: Service::default(),
            round: 0,
            life_left: 0,
            warming: false,
        };
        workload.start_life();
        workload
    }

    /// Starts a fresh service: plans the corpus cold, then runs the warm-up rounds.
    fn start_life(&mut self) {
        self.service = Service::default();
        for q in &self.corpus {
            self.service
                .plan_ingest(&q.query)
                .unwrap_or_else(|e| panic!("warming {}: {e}", q.query.name));
        }
        let mut warmup = Ctx::default();
        self.warming = true;
        for _ in 0..WARMUP_ROUNDS {
            self.block(&mut warmup, 0);
        }
        self.warming = false;
        assert!(
            warmup.failed == 0,
            "warm-up rounds failed: {:?}",
            warmup.failures
        );
        self.life_left = LIFE_ROUNDS;
    }

    /// One feedback cycle of query `i` in `round`: drift serve, execute, report, observed
    /// re-plan.
    fn cycle(&mut self, ctx: &mut Ctx, round: u64, i: usize) {
        let q = &self.corpus[i];
        let n = q.query.relation_count();
        let mut rng = Rng::stream(
            self.seed,
            stream::DRIFT,
            round * self.corpus.len() as u64 + i as u64,
        );
        let (phase, order) = &self.shifts[i];
        let turn = round + phase;
        let shifted = turn
            .is_multiple_of(SHIFT_PERIOD)
            .then(|| order[(turn / SHIFT_PERIOD) as usize % n]);
        let spec = drifted(&q.query.spec, shifted, &mut rng);
        let (service, options) = (&self.service, self.options[i]);
        let Some(served) = ctx.serve(&q.query.name, 2 * i, n, || {
            service.plan_spec_with(&spec, options)
        }) else {
            return;
        };
        if !self.warming {
            self.costs[i].push(served.cost);
        }

        let db = &q.dbs[round as usize % DB_VERSIONS];
        let start = Instant::now();
        let executed = q.graph.execute(&served.plan, db);
        let execute_us = start.elapsed().as_nanos() as f64 / 1e3;
        let Some(executed) = executed else {
            if ctx.traced {
                ctx.row_limit_bursts += 1;
            }
            return;
        };
        if !self.warming {
            self.true_costs[i].push(executed.true_cost());
        }

        let start = Instant::now();
        service.observe_execution(&served, &executed.feedback());
        let observe_us = start.elapsed().as_nanos() as f64 / 1e3;
        if ctx.traced {
            ctx.execute_us.push(execute_us);
            ctx.observe_us.push(observe_us);
        }

        let observed = executed.observed_stats(db);
        ctx.serve(&q.query.name, 2 * i + 1, n, || {
            service.plan_observed_with(&spec, &observed, options)
        });
    }
}

impl Workload for DriftFeedback {
    fn refresh(&mut self) {
        if self.life_left == 0 {
            self.start_life();
        }
    }

    fn block(&mut self, ctx: &mut Ctx, _block: u64) {
        let before = ctx.traced.then(|| ServiceCounts::read(&self.service));
        let round = self.round;
        self.round += 1;
        self.life_left = self.life_left.saturating_sub(1);
        let mut order: Vec<usize> = (0..self.corpus.len()).collect();
        Rng::stream(self.seed, stream::ORDER, round).shuffle(&mut order);
        for i in order {
            self.cycle(ctx, round, i);
            ctx.end_op();
        }
        if let Some(before) = before {
            ctx.counts
                .add_delta(ServiceCounts::read(&self.service), before);
        }
    }

    fn op_is_serve(&self) -> bool {
        false
    }

    fn plan_cost_gmean(&self) -> f64 {
        per_query_gmean(&self.costs)
    }

    fn true_cost_gmean(&self) -> f64 {
        per_query_gmean(&self.true_costs)
    }
}
