//! `warm_zipf`: the cache holds every corpus query, and the loop serves `.jg` source text
//! drawn by a seeded Zipf (s = 1) over a seeded ranking of the 36 files. Every serve must be
//! an exact hit, bit-identical to the query's cold plan.

use crate::common::{
    covers, load_corpus, per_query_gmean, stream, CorpusQuery, Ctx, ServiceCounts,
};
use crate::stats::{Rng, Zipf};
use crate::Workload;
use qo_service::{PlanSource, ServedPlan, Service};

/// Serves per block; the traced run alternates untraced and traced blocks. Each block re-draws
/// the ranking from the seed, as popularity shifts, so a run averages over many
/// rankings and its figures do not hinge on where one draw ranks the largest files.
const BLOCK: usize = 256;

pub struct WarmZipf {
    seed: u64,
    corpus: Vec<CorpusQuery>,
    service: Service,
    /// The cold serve of each query: what every hit must reproduce bit for bit.
    cold: Vec<ServedPlan>,
    zipf: Zipf,
    draws: Rng,
    /// Modeled cost of every serve, per query.
    costs: Vec<Vec<f64>>,
}

impl WarmZipf {
    pub fn setup(seed: u64) -> WarmZipf {
        let corpus = load_corpus(seed);
        let service = Service::default();
        let cold = corpus
            .iter()
            .map(|q| {
                let mut served = service
                    .plan_jg(q.source)
                    .unwrap_or_else(|e| panic!("warming {}: {e}", q.query.name));
                assert_eq!(served.len(), 1, "one query per corpus file");
                let served = served.remove(0);
                assert!(
                    covers(&served.plan, q.query.relation_count()),
                    "{}",
                    q.query.name
                );
                served
            })
            .collect();
        WarmZipf {
            seed,
            costs: vec![Vec::new(); corpus.len()],
            zipf: Zipf::new(corpus.len(), 1.0),
            draws: Rng::stream(seed, stream::ZIPF, 0),
            corpus,
            service,
            cold,
        }
    }
}

impl Workload for WarmZipf {
    fn block(&mut self, ctx: &mut Ctx, block: u64) {
        let mut ranking: Vec<usize> = (0..self.corpus.len()).collect();
        Rng::stream(self.seed, stream::RANKING, block).shuffle(&mut ranking);
        let before = ctx.traced.then(|| ServiceCounts::read(&self.service));
        for _ in 0..BLOCK {
            let i = ranking[self.zipf.sample(&mut self.draws)];
            let q = &self.corpus[i];
            let service = &self.service;
            let (result, us) = ctx.call(|| service.plan_jg(q.source));
            match result.map(|mut v| (v.len(), v.pop())) {
                Ok((1, Some(served))) => {
                    ctx.record_serve(&served, i, us);
                    let cold = &self.cold[i];
                    if served.source != PlanSource::CacheHit {
                        ctx.fail::<()>(format!(
                            "{}: served as {}, not a hit",
                            q.query.name, served.source
                        ));
                    } else if served.plan != cold.plan
                        || served.cost.to_bits() != cold.cost.to_bits()
                    {
                        ctx.fail::<()>(format!("{}: hit differs from the cold plan", q.query.name));
                    }
                    self.costs[i].push(served.cost);
                }
                Ok((count, _)) => {
                    ctx.fail::<()>(format!("{}: {count} plans for one query", q.query.name));
                }
                Err(e) => {
                    ctx.fail::<()>(format!("{}: {e}", q.query.name));
                }
            }
            ctx.end_op();
        }
        if let Some(before) = before {
            ctx.counts
                .add_delta(ServiceCounts::read(&self.service), before);
        }
    }

    fn plan_cost_gmean(&self) -> f64 {
        per_query_gmean(&self.costs)
    }

    fn true_cost_gmean(&self) -> f64 {
        let true_costs: Vec<Vec<f64>> = self
            .corpus
            .iter()
            .zip(&self.cold)
            .zip(&self.costs)
            .map(|((q, cold), served)| {
                if served.is_empty() {
                    Vec::new()
                } else {
                    q.true_costs(&cold.plan)
                }
            })
            .collect();
        per_query_gmean(&true_costs)
    }
}
