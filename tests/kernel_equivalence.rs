//! Equivalence walls for the per-pair costing path (`EmitCsgCmp` → connecting-edge collection →
//! combiner → DP table offer → plan reconstruction).
//!
//! * The adaptive driver's output on the corpus and the `cold_mix` synthetic ladder is pinned
//!   bit for bit in `tests/data/driver_output.txt`: tier, cost and cardinality bits, the plan
//!   including every join's predicate list, DP table size and exact ccp count, under both cost
//!   models.
//! * Every join of every tier's plan — exact, IDP, greedy, and the plan re-costed through
//!   `recost_spec` — carries exactly the graph's connecting edges of its two inputs, the list
//!   the DP table recollects at reconstruction. Every result's cost and cardinality are the
//!   bits of its plan's root: the plan cache stores the plan alone.

use dphyp::{
    recost_spec, AdaptiveOptimizer, AdaptiveOptions, CostModelKind, Hypergraph, PlanNode, PlanTier,
    QuerySpec,
};
use qo_workloads::corpus::corpus;
use qo_workloads::{clique_spec, cycle_spec, star_spec};

/// The corpus with its own planner options, then the `cold_mix` synthetic ladder (cycles 8–13,
/// stars with 6–11 satellites, cliques 6–10) under statistics seeds 1–3.
fn workload() -> Vec<(String, QuerySpec, AdaptiveOptions)> {
    let mut out: Vec<_> = corpus()
        .into_iter()
        .map(|q| {
            let options = q.adaptive_options();
            (q.name, q.spec, options)
        })
        .collect();
    for seed in 1..=3 {
        for n in 8..=13 {
            out.push((
                format!("cycle-{n}/{seed}"),
                cycle_spec(n, seed),
                Default::default(),
            ));
        }
        for s in 6..=11 {
            out.push((
                format!("star-{s}/{seed}"),
                star_spec(s, seed),
                Default::default(),
            ));
        }
        for n in 6..=10 {
            out.push((
                format!("clique-{n}/{seed}"),
                clique_spec(n, seed),
                Default::default(),
            ));
        }
    }
    out
}

const MODELS: [CostModelKind; 2] = [CostModelKind::Cout, CostModelKind::Mixed];

/// The plan with every float as its bit pattern: `R3@<card>` for a scan,
/// `(<op> <left> <right> [<predicates>] <card> <cost>)` for a join.
fn render(plan: &PlanNode) -> String {
    match plan {
        PlanNode::Scan {
            relation,
            cardinality,
        } => format!("R{relation}@{:x}", cardinality.to_bits()),
        PlanNode::Join {
            op,
            left,
            right,
            predicates,
            cardinality,
            cost,
        } => format!(
            "({op:?} {} {} {predicates:?} {:x} {:x})",
            render(left),
            render(right),
            cardinality.to_bits(),
            cost.to_bits()
        ),
    }
}

/// FNV-1a, so one fixture line stands for a whole plan.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per (query, cost model) of the driver's output.
fn driver_output() -> String {
    let mut out = String::new();
    for (name, spec, options) in workload() {
        for cost_model in MODELS {
            let options = AdaptiveOptions {
                cost_model,
                ..options
            };
            let r = AdaptiveOptimizer::new(options)
                .optimize_spec(&spec)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push_str(&format!(
                "{name} {cost_model:?} {:?} cost={:x} card={:x} dp_entries={} exact_ccps={} plan={:016x}\n",
                r.tier,
                r.cost.to_bits(),
                r.cardinality.to_bits(),
                r.dp_entries,
                r.telemetry.exact_ccps,
                digest(&render(&r.plan)),
            ));
        }
    }
    out
}

#[test]
fn driver_output_is_bit_identical_to_the_recorded_fixture() {
    let actual = driver_output();
    let expected = include_str!("data/driver_output.txt");
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
    assert_eq!(actual.lines().count(), 2 * (36 + 3 * (6 + 6 + 5)));
}

fn assert_joins_carry_connecting_edges<const W: usize>(
    name: &str,
    graph: &Hypergraph<W>,
    plan: &PlanNode,
) {
    plan.visit(&mut |node| {
        if let PlanNode::Join {
            left,
            right,
            predicates,
            ..
        } = node
        {
            let expected =
                graph.connecting_edges(left.relations_wide::<W>(), right.relations_wide::<W>());
            assert_eq!(predicates, &expected, "{name}: join {node}");
        }
    });
}

fn check_predicates(name: &str, spec: &QuerySpec, plan: &PlanNode) {
    if spec.node_count() <= 64 {
        assert_joins_carry_connecting_edges(name, &spec.instantiate::<1>().0, plan);
    } else {
        assert_joins_carry_connecting_edges(name, &spec.instantiate::<2>().0, plan);
    }
}

#[test]
fn every_tier_joins_on_exactly_the_connecting_edges() {
    let mut tiers = Vec::new();
    for (name, spec, options) in workload() {
        for cost_model in MODELS {
            // The query's own budget, one that sends all but the smallest queries to IDP, and
            // one that leaves only greedy.
            for ccp_budget in [options.ccp_budget, 1_000, 0] {
                let options = AdaptiveOptions {
                    cost_model,
                    ccp_budget,
                    ..options
                };
                let label = format!("{name}/{cost_model:?}/{ccp_budget}");
                let r = AdaptiveOptimizer::new(options)
                    .optimize_spec(&spec)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                check_predicates(&label, &spec, &r.plan);
                assert_eq!(r.cost.to_bits(), r.plan.cost().to_bits(), "{label}: cost");
                let cardinality = r.plan.cardinality().to_bits();
                assert_eq!(r.cardinality.to_bits(), cardinality, "{label}: cardinality");
                tiers.push(r.tier);

                let recosted = recost_spec(&spec, &r.plan, &options)
                    .expect("valid spec")
                    .expect("same shape re-costs");
                assert_eq!(recosted, r.plan, "{label}: re-cost is the identity");
                assert_eq!(
                    recosted.cost().to_bits(),
                    r.cost.to_bits(),
                    "{label}/recost"
                );
                let cardinality = recosted.cardinality().to_bits();
                assert_eq!(cardinality, r.cardinality.to_bits(), "{label}/recost");
                check_predicates(&format!("{label}/recost"), &spec, &recosted);
            }
        }
    }
    for tier in [PlanTier::Exact, PlanTier::Idp, PlanTier::Greedy] {
        assert!(tiers.contains(&tier), "{tier:?} is exercised");
    }
}
