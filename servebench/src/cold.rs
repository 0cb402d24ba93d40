//! `cold_mix`: every pass serves the corpus plus synthetic cycle, star and clique specs, in a
//! seeded order, through a fresh `Service`, so nearly every serve is a miss and the adaptive
//! optimizer does the work.

use crate::common::{load_corpus, per_query_gmean, stream, CorpusQuery, Ctx, ServiceCounts};
use crate::stats::{derive, Rng};
use crate::Workload;
use dphyp::{CostModelKind, CoutCost, MixedCost, PlanTier, QuerySpec};
use qo_ingest::{IngestQuery, QueryOptions};
use qo_service::{PlanSource, Service};

/// Exact-tier plans of queries up to this size are checked against DPsub.
const DPSUB_MAX_RELATIONS: usize = 14;

/// The synthetic ladder: one spec per `(family, size)`, so no two share a shape and each is a
/// miss. Sizes keep every spec in the exact tier at a few milliseconds; the seed draws their
/// statistics. A fixed ladder keeps the enumeration work of a pass, which depends on shape
/// and not on statistics, the same under every seed.
const CYCLES: std::ops::RangeInclusive<usize> = 8..=13;
const STAR_SATELLITES: std::ops::RangeInclusive<usize> = 6..=11;
const CLIQUES: std::ops::RangeInclusive<usize> = 6..=10;

pub struct ColdMix {
    seed: u64,
    corpus: Vec<CorpusQuery>,
    /// Corpus queries first, then the synthetic specs.
    items: Vec<IngestQuery>,
    /// The DPsub optimum of each item with at most [`DPSUB_MAX_RELATIONS`] relations.
    reference: Vec<Option<f64>>,
    /// Modeled cost of every serve, per corpus query.
    costs: Vec<Vec<f64>>,
    /// The plan last served per corpus query.
    last_plan: Vec<Option<dphyp::PlanNode>>,
}

fn synthetic(name: String, spec: QuerySpec) -> IngestQuery {
    let n = spec.node_count();
    IngestQuery {
        name,
        relation_names: (0..n).map(|r| format!("r{r}")).collect(),
        spec,
        options: QueryOptions::default(),
        row_overrides: vec![None; n],
    }
}

/// The optimum cost DPsub finds over the instantiated hypergraph and catalog, under the
/// query's cost model.
fn dpsub_cost(query: &IngestQuery) -> f64 {
    let (graph, catalog) = query.spec.instantiate::<1>();
    let result = match query.adaptive_options().cost_model {
        CostModelKind::Cout => qo_baselines::dpsub(&graph, &catalog, &CoutCost),
        CostModelKind::Mixed => qo_baselines::dpsub(&graph, &catalog, &MixedCost),
    };
    result
        .unwrap_or_else(|e| panic!("DPsub cannot plan {}: {e}", query.name))
        .cost
}

impl ColdMix {
    pub fn setup(seed: u64) -> ColdMix {
        let corpus = load_corpus(seed);
        let mut items: Vec<IngestQuery> = corpus.iter().map(|q| q.query.clone()).collect();
        let mut k = 0;
        let mut draw = || {
            k += 1;
            derive(seed, stream::SYNTHETIC, k)
        };
        for n in CYCLES {
            items.push(synthetic(
                format!("cycle-{n}"),
                qo_workloads::cycle_spec(n, draw()),
            ));
        }
        for s in STAR_SATELLITES {
            items.push(synthetic(
                format!("star-{s}"),
                qo_workloads::star_spec(s, draw()),
            ));
        }
        for n in CLIQUES {
            items.push(synthetic(
                format!("clique-{n}"),
                qo_workloads::clique_spec(n, draw()),
            ));
        }
        let reference = items
            .iter()
            .map(|q| (q.relation_count() <= DPSUB_MAX_RELATIONS).then(|| dpsub_cost(q)))
            .collect();
        ColdMix {
            seed,
            costs: vec![Vec::new(); corpus.len()],
            last_plan: vec![None; corpus.len()],
            corpus,
            items,
            reference,
        }
    }
}

impl Workload for ColdMix {
    fn block(&mut self, ctx: &mut Ctx, pass: u64) {
        let service = Service::default();
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        Rng::stream(self.seed, stream::ORDER, pass).shuffle(&mut order);
        for i in order {
            let query = &self.items[i];
            let n = query.relation_count();
            let served = ctx.serve(&query.name, i, n, || service.plan_ingest(query));
            if let Some(served) = served {
                let optimized =
                    matches!(served.source, PlanSource::Miss | PlanSource::RecostFallback);
                if let (true, PlanTier::Exact, Some(best)) =
                    (optimized, served.tier, self.reference[i])
                {
                    if (served.cost - best).abs() > 1e-9 * best.abs().max(1.0) {
                        ctx.fail::<()>(format!(
                            "{}: exact plan cost {} differs from the DPsub optimum {best}",
                            query.name, served.cost
                        ));
                    }
                }
                if i < self.corpus.len() {
                    self.costs[i].push(served.cost);
                    self.last_plan[i] = Some(served.plan);
                }
            }
            ctx.end_op();
        }
        if ctx.traced {
            ctx.counts
                .add_delta(ServiceCounts::read(&service), ServiceCounts::default());
        }
    }

    fn plan_cost_gmean(&self) -> f64 {
        per_query_gmean(&self.costs)
    }

    fn true_cost_gmean(&self) -> f64 {
        let true_costs: Vec<Vec<f64>> = self
            .corpus
            .iter()
            .zip(&self.last_plan)
            .map(|(q, plan)| plan.as_ref().map_or_else(Vec::new, |p| q.true_costs(p)))
            .collect();
        per_query_gmean(&true_costs)
    }
}
