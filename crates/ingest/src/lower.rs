//! Lowering: `.jg` AST → width-agnostic [`QuerySpec`] + per-query planner options.
//!
//! This is where the text world meets the planner: relation declarations become relation ids
//! (in declaration order), join statements become spec hyperedges (in statement order, so the
//! lowered edge ids match the source), and `option` statements become [`QueryOptions`] that
//! overlay the adaptive driver's defaults.
//!
//! Lowering also *validates* the statistics the planner would otherwise choke on silently:
//! non-positive or non-finite cardinalities, selectivities outside `(0, 1]`, unknown relation
//! names, overlapping hypernode sides — each rejected with a [`JgError`] spanning the
//! offending source bytes, so a bad statistic in line 40 of a corpus file is a one-line fix,
//! not a NaN cost surfacing three crates later.

use crate::ast::{JoinDecl, OptionDecl, OptionValue, QueryDecl, RelationDecl};
use crate::parser::parse;
use crate::span::{JgError, Span};
use dphyp::{
    AdaptiveOptimizer, AdaptiveOptions, CostModelKind, OptimizeError, OptimizeResult, QuerySpec,
};
use qo_plan::JoinOp;
use std::collections::HashMap;

/// Per-query planner options parsed from `option` statements; every field overlays the
/// corresponding [`AdaptiveOptions`] default when set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// `option ccp_budget = <int>` — csg-cmp-pair budget of the exact tier.
    pub ccp_budget: Option<usize>,
    /// `option idp_block_size = <int>` — upper bound on the IDP fallback's block size.
    pub idp_block_size: Option<usize>,
    /// `option cost_model = cout | mixed`.
    pub cost_model: Option<CostModelKind>,
}

impl QueryOptions {
    /// Overlays these options onto a base configuration.
    pub fn apply(&self, base: AdaptiveOptions) -> AdaptiveOptions {
        AdaptiveOptions {
            ccp_budget: self.ccp_budget.unwrap_or(base.ccp_budget),
            idp_block_size: self.idp_block_size.unwrap_or(base.idp_block_size),
            cost_model: self.cost_model.unwrap_or(base.cost_model),
        }
    }
}

/// One fully lowered query: everything needed to plan it end to end.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestQuery {
    /// The query's name from the `query` block.
    pub name: String,
    /// Relation names, indexed by the relation ids used in [`IngestQuery::spec`].
    pub relation_names: Vec<String>,
    /// The width-agnostic planner spec.
    pub spec: QuerySpec,
    /// Planner options declared in the query block.
    pub options: QueryOptions,
    /// Per-relation `rows=` overrides of the synthetic table size the feedback experiments
    /// generate, indexed by relation id (`None` = derive from `cardinality`). Purely
    /// execution-side: the planner spec above never sees these.
    pub row_overrides: Vec<Option<usize>>,
}

impl IngestQuery {
    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relation_names.len()
    }

    /// The adaptive driver configuration for this query: the driver defaults overlaid with the
    /// query's own `option` statements.
    pub fn adaptive_options(&self) -> AdaptiveOptions {
        self.options.apply(AdaptiveOptions::default())
    }

    /// Plans the query end to end through the adaptive driver (exact DPhyp under the query's
    /// budgets, IDP-k and greedy fallbacks), picking node-set width and algorithm tier
    /// automatically.
    pub fn plan(&self) -> Result<OptimizeResult, OptimizeError> {
        self.plan_with(AdaptiveOptions::default())
    }

    /// Plans the query with the query's own `option` statements overlaid on an explicit base
    /// configuration — the entry point a serving layer (e.g. `qo-service`) uses to combine its
    /// own defaults with per-query overrides.
    pub fn plan_with(&self, base: AdaptiveOptions) -> Result<OptimizeResult, OptimizeError> {
        AdaptiveOptimizer::new(self.options.apply(base)).optimize_spec(&self.spec)
    }
}

/// Parses and lowers a whole `.jg` source: the one-call front door of the crate.
pub fn parse_queries(source: &str) -> Result<Vec<IngestQuery>, JgError> {
    let file = {
        let _span = qo_obsv::Span::enter("parse");
        parse(source)?
    };
    let _span = qo_obsv::Span::enter("lower");
    file.queries.iter().map(lower_query).collect()
}

/// Lowers one parsed query block, validating names and statistics.
pub fn lower_query(q: &QueryDecl) -> Result<IngestQuery, JgError> {
    if q.relations.is_empty() {
        return Err(JgError::new(
            format!("query `{}` declares no relations", q.name.text),
            q.name.span,
        ));
    }

    // Pass 1: relation ids from declaration order, rejecting duplicates.
    let mut ids: HashMap<&str, usize> = HashMap::new();
    for (id, r) in q.relations.iter().enumerate() {
        if ids.insert(&r.name.text, id).is_some() {
            return Err(JgError::new(
                format!("relation `{}` is declared twice", r.name.text),
                r.name.span,
            ));
        }
    }
    let resolve = |name: &crate::ast::Name| -> Result<usize, JgError> {
        ids.get(name.text.as_str()).copied().ok_or_else(|| {
            JgError::new(
                format!("relation `{}` is not declared in this query", name.text),
                name.span,
            )
        })
    };

    // Pass 2: statistics and lateral references.
    let mut b = QuerySpec::builder(q.relations.len());
    for (id, r) in q.relations.iter().enumerate() {
        b.set_cardinality(id, lower_cardinality(r)?);
        if !r.lateral.is_empty() {
            let mut refs = Vec::with_capacity(r.lateral.len());
            for l in &r.lateral {
                let l_id = resolve(l)?;
                if l_id == id {
                    return Err(JgError::new(
                        format!("relation `{}` cannot reference itself laterally", l.text),
                        l.span,
                    ));
                }
                refs.push(l_id);
            }
            b.set_lateral_refs(id, &refs);
        }
    }

    // Pass 3: joins, in statement order (= lowered edge-id order).
    for j in &q.joins {
        let left = resolve_side(&j.left.relations, &resolve)?;
        let right = resolve_side(&j.right.relations, &resolve)?;
        let flex = resolve_side(&j.flex, &resolve)?;
        check_disjoint(&left, &j.left.span, &right, &j.right.span, q)?;
        for (f, name) in flex.iter().zip(&j.flex) {
            if left.contains(f) || right.contains(f) {
                return Err(JgError::new(
                    format!(
                        "flex relation `{}` already appears on a join side",
                        name.text
                    ),
                    name.span,
                ));
            }
        }
        let selectivity = lower_selectivity(j)?;
        let op = match &j.op {
            None => JoinOp::Inner,
            Some(name) => op_from_name(&name.text).ok_or_else(|| {
                JgError::new(
                    format!(
                        "unknown join operator `{}` (expected one of: {})",
                        name.text,
                        OP_NAMES
                            .iter()
                            .map(|(n, _)| *n)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    name.span,
                )
            })?,
        };
        if !flex.is_empty() {
            if op != JoinOp::Inner {
                let span = j.op.as_ref().expect("non-inner implies op attr").span;
                return Err(JgError::new(
                    "generalized hyperedges (`flex=…`) support inner joins only",
                    span,
                ));
            }
            b.add_generalized_edge(&left, &right, &flex, selectivity);
        } else {
            b.add_edge(&left, &right, selectivity, op);
        }
    }

    Ok(IngestQuery {
        name: q.name.text.clone(),
        relation_names: q.relations.iter().map(|r| r.name.text.clone()).collect(),
        spec: b.build(),
        options: lower_options(q)?,
        row_overrides: q
            .relations
            .iter()
            .map(lower_rows)
            .collect::<Result<_, _>>()?,
    })
}

fn lower_cardinality(r: &RelationDecl) -> Result<f64, JgError> {
    let Some(lit) = r.cardinality else {
        return Err(JgError::new(
            format!(
                "relation `{}` is missing the required `cardinality` attribute",
                r.name.text
            ),
            r.name.span,
        ));
    };
    if !(lit.value.is_finite() && lit.value > 0.0) {
        return Err(JgError::new(
            format!(
                "cardinality must be a positive finite number, got `{}`",
                lit.value
            ),
            lit.span,
        ));
    }
    Ok(lit.value)
}

fn lower_rows(r: &RelationDecl) -> Result<Option<usize>, JgError> {
    let Some(lit) = r.rows else { return Ok(None) };
    if !(lit.value.is_finite() && lit.value.fract() == 0.0 && lit.value >= 1.0) {
        return Err(JgError::new(
            format!("rows must be a positive integer, got `{}`", lit.value),
            lit.span,
        ));
    }
    Ok(Some(lit.value as usize))
}

fn lower_selectivity(j: &JoinDecl) -> Result<f64, JgError> {
    let Some(lit) = j.selectivity else {
        return Err(JgError::new(
            "join is missing the required `selectivity` attribute",
            j.span,
        ));
    };
    if !(lit.value.is_finite() && lit.value > 0.0 && lit.value <= 1.0) {
        return Err(JgError::new(
            format!("selectivity must lie in (0, 1], got `{}`", lit.value),
            lit.span,
        ));
    }
    Ok(lit.value)
}

fn resolve_side(
    names: &[crate::ast::Name],
    resolve: &impl Fn(&crate::ast::Name) -> Result<usize, JgError>,
) -> Result<Vec<usize>, JgError> {
    let mut out = Vec::with_capacity(names.len());
    for (i, n) in names.iter().enumerate() {
        let id = resolve(n)?;
        if out.contains(&id) {
            return Err(JgError::new(
                format!("relation `{}` appears twice in this hypernode", n.text),
                names[i].span,
            ));
        }
        out.push(id);
    }
    Ok(out)
}

fn check_disjoint(
    left: &[usize],
    left_span: &Span,
    right: &[usize],
    right_span: &Span,
    q: &QueryDecl,
) -> Result<(), JgError> {
    if let Some(&shared) = left.iter().find(|id| right.contains(id)) {
        return Err(JgError::new(
            format!(
                "relation `{}` appears on both sides of the join",
                q.relations[shared].name.text
            ),
            left_span.to(*right_span),
        ));
    }
    Ok(())
}

fn lower_options(q: &QueryDecl) -> Result<QueryOptions, JgError> {
    let mut opts = QueryOptions::default();
    for o in &q.options {
        let value = &o.value;
        match o.key.text.as_str() {
            "ccp_budget" => set_once(&mut opts.ccp_budget, o, || {
                option_usize(value, 1, "ccp_budget")
            })?,
            "idp_block_size" => set_once(&mut opts.idp_block_size, o, || {
                option_usize(value, 2, "idp_block_size")
            })?,
            "cost_model" => set_once(&mut opts.cost_model, o, || match value {
                OptionValue::Symbol(s) if s.text == "cout" => Ok(CostModelKind::Cout),
                OptionValue::Symbol(s) if s.text == "mixed" => Ok(CostModelKind::Mixed),
                v => Err(JgError::new(
                    "`cost_model` expects `cout` or `mixed`",
                    v.span(),
                )),
            })?,
            other => {
                return Err(JgError::new(
                    format!(
                        "unknown option `{other}` (expected one of: ccp_budget, \
                         idp_block_size, cost_model)"
                    ),
                    o.key.span,
                ))
            }
        }
    }
    Ok(opts)
}

/// Parses `o`'s value into `slot`. Duplicate options are rejected like every other duplicate
/// attribute of the language — a silent last-wins would let a pasted-in override go
/// unnoticed — before the value is looked at.
fn set_once<T>(
    slot: &mut Option<T>,
    o: &OptionDecl,
    parse: impl FnOnce() -> Result<T, JgError>,
) -> Result<(), JgError> {
    if slot.is_some() {
        return Err(JgError::new(
            format!("duplicate option `{}`", o.key.text),
            o.key.span,
        ));
    }
    *slot = Some(parse()?);
    Ok(())
}

fn option_usize(value: &OptionValue, min: usize, key: &str) -> Result<usize, JgError> {
    match value {
        OptionValue::Number(n)
            if n.value.is_finite() && n.value.fract() == 0.0 && n.value >= min as f64 =>
        {
            Ok(n.value as usize)
        }
        v => Err(JgError::new(
            format!("`{key}` expects an integer ≥ {min}"),
            v.span(),
        )),
    }
}

/// The `.jg` names of the join operators, paired with the planner's [`JoinOp`]s.
pub const OP_NAMES: [(&str, JoinOp); 11] = [
    ("inner", JoinOp::Inner),
    ("left_outer", JoinOp::LeftOuter),
    ("full_outer", JoinOp::FullOuter),
    ("left_semi", JoinOp::LeftSemi),
    ("left_anti", JoinOp::LeftAnti),
    ("left_nest", JoinOp::LeftNest),
    ("dep_join", JoinOp::DepJoin),
    ("dep_left_outer", JoinOp::DepLeftOuter),
    ("dep_left_semi", JoinOp::DepLeftSemi),
    ("dep_left_anti", JoinOp::DepLeftAnti),
    ("dep_left_nest", JoinOp::DepLeftNest),
];

/// The planner operator for a `.jg` operator name.
pub fn op_from_name(name: &str) -> Option<JoinOp> {
    OP_NAMES.iter().find(|(n, _)| *n == name).map(|&(_, op)| op)
}

/// The `.jg` name of a planner operator (total: every [`JoinOp`] has one).
pub fn op_name(op: JoinOp) -> &'static str {
    OP_NAMES
        .iter()
        .find(|&&(_, o)| o == op)
        .map(|&(n, _)| n)
        .expect("OP_NAMES covers every JoinOp")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(body: &str) -> Result<Vec<IngestQuery>, JgError> {
        parse_queries(&format!("query t {{\n{body}\n}}"))
    }

    #[test]
    fn lowers_a_small_star_end_to_end() {
        let queries = q("
            relation fact cardinality=1000000
            relation d1 cardinality=100
            relation d2 cardinality=50
            join fact -- d1 selectivity=0.01
            join fact -- d2 selectivity=0.02
            option ccp_budget = 777
        ")
        .unwrap();
        assert_eq!(queries.len(), 1);
        let iq = &queries[0];
        assert_eq!(iq.relation_count(), 3);
        assert_eq!(iq.relation_names[2], "d2");
        assert_eq!(iq.spec.edge_count(), 2);
        assert_eq!(iq.spec.cardinality(0), 1_000_000.0);
        assert_eq!(iq.options.ccp_budget, Some(777));
        assert_eq!(iq.adaptive_options().ccp_budget, 777);
        let r = iq.plan().unwrap();
        assert_eq!(r.plan.scan_count(), 3);
    }

    #[test]
    fn unknown_relation_is_spanned() {
        let src = "query t {\n  relation a cardinality=1\n  join a -- ghost selectivity=0.5\n}";
        let err = parse_queries(src).unwrap_err();
        assert!(err.message.contains("`ghost` is not declared"));
        assert_eq!(&src[err.span.start..err.span.end], "ghost");
    }

    #[test]
    fn invalid_statistics_are_rejected_with_spans() {
        let err =
            q("relation a cardinality=0\nrelation b cardinality=1\njoin a -- b selectivity=0.5")
                .unwrap_err();
        assert!(err.message.contains("positive finite"), "{}", err.message);

        let err =
            q("relation a cardinality=-3\nrelation b cardinality=1\njoin a -- b selectivity=0.5")
                .unwrap_err();
        assert!(err.message.contains("positive finite"));

        let err =
            q("relation a cardinality=5\nrelation b cardinality=1\njoin a -- b selectivity=1.5")
                .unwrap_err();
        assert!(err.message.contains("(0, 1]"));

        let err =
            q("relation a cardinality=5\nrelation b cardinality=1\njoin a -- b selectivity=0")
                .unwrap_err();
        assert!(err.message.contains("(0, 1]"));
    }

    #[test]
    fn missing_required_attributes_are_errors() {
        let err = q("relation a").unwrap_err();
        assert!(err.message.contains("missing the required `cardinality`"));
        let err = q("relation a cardinality=1\nrelation b cardinality=1\njoin a -- b").unwrap_err();
        assert!(err.message.contains("missing the required `selectivity`"));
    }

    #[test]
    fn overlap_and_duplicates_are_errors() {
        let err = q("relation a cardinality=1\nrelation a cardinality=2").unwrap_err();
        assert!(err.message.contains("declared twice"));
        let err = q(
            "relation a cardinality=1\nrelation b cardinality=1\njoin {a, b} -- b selectivity=0.5",
        )
        .unwrap_err();
        assert!(err.message.contains("both sides"));
        let err = q(
            "relation a cardinality=1\nrelation b cardinality=1\njoin {a, a} -- b selectivity=0.5",
        )
        .unwrap_err();
        assert!(err.message.contains("appears twice"));
    }

    #[test]
    fn lateral_refs_lower_to_dependent_joins() {
        let iq = &q("
            relation a cardinality=100
            relation f cardinality=5 lateral=(a)
            join a -- f selectivity=1.0
        ")
        .unwrap()[0];
        assert_eq!(iq.spec.lateral_refs(1), &[0]);
        let r = iq.plan().unwrap();
        assert_eq!(r.plan.operators(), vec![JoinOp::DepJoin]);
    }

    #[test]
    fn self_lateral_is_an_error() {
        let err = q("relation a cardinality=1 lateral=(a)").unwrap_err();
        assert!(err.message.contains("itself"));
    }

    #[test]
    fn options_validate_types_and_keys() {
        let err = q("relation a cardinality=1\noption ccp_budget = mixed").unwrap_err();
        assert!(err.message.contains("integer"));
        let err = q("relation a cardinality=1\noption cost_model = fancy").unwrap_err();
        assert!(err.message.contains("`cout` or `mixed`"));
        let err = q("relation a cardinality=1\noption warp_speed = 9").unwrap_err();
        assert!(err.message.contains("unknown option `warp_speed`"));
        let ok = &q("relation a cardinality=1\noption cost_model = mixed").unwrap()[0];
        assert_eq!(ok.options.cost_model, Some(CostModelKind::Mixed));
        assert_eq!(ok.adaptive_options().cost_model, CostModelKind::Mixed);
        let src =
            "query t {\nrelation a cardinality=1\noption ccp_budget = 9\noption ccp_budget = 7\n}";
        let err = parse_queries(src).unwrap_err();
        assert!(err.message.contains("duplicate option `ccp_budget`"));
        assert_eq!(err.span.start, src.rfind("ccp_budget").unwrap());
    }

    #[test]
    fn retired_parallelism_option_is_an_unknown_key() {
        // A retired key gets the ordinary spanned unknown-option diagnostic, which lists the
        // three live keys.
        let retired = [
            ("parallelism", "4"),
            ("pruning", "on"),
            ("trace", "on"),
            ("time_budget_ms", "5000"),
            ("sample_rate", "1"),
            ("idp_strategy", "connected"),
        ];
        for (key, value) in retired {
            let src = format!("query t {{\nrelation a cardinality=1\noption {key} = {value}\n}}");
            let err = parse_queries(&src).unwrap_err();
            assert!(
                err.message.contains(&format!("unknown option `{key}`")),
                "{}",
                err.message
            );
            assert_eq!(err.span.start, src.find(key).unwrap());
            let valid_keys = err.message.split_once("expected one of: ").unwrap().1;
            assert_eq!(valid_keys, "ccp_budget, idp_block_size, cost_model)");
        }
    }

    #[test]
    fn rows_attribute_lowers_and_validates() {
        let iq = &q("
            relation a cardinality=1000000 rows=32
            relation b cardinality=50
            join a -- b selectivity=0.01
        ")
        .unwrap()[0];
        assert_eq!(iq.row_overrides, vec![Some(32), None]);
        // The planner spec is untouched by the override.
        assert_eq!(iq.spec.cardinality(0), 1_000_000.0);
        let err = q("relation a cardinality=1 rows=0").unwrap_err();
        assert!(err.message.contains("positive integer"));
        let err = q("relation a cardinality=1 rows=2.5").unwrap_err();
        assert!(err.message.contains("positive integer"));
        let err = q("relation a cardinality=1 rows=4 rows=5").unwrap_err();
        assert!(err.message.contains("duplicate `rows`"));
    }

    #[test]
    fn flex_requires_inner() {
        let err = q("
            relation a cardinality=1
            relation b cardinality=1
            relation c cardinality=1
            join a -- b selectivity=0.5 op=left_outer flex={c}
        ")
        .unwrap_err();
        assert!(err.message.contains("inner joins only"));
    }

    #[test]
    fn op_names_round_trip() {
        for (name, op) in OP_NAMES {
            assert_eq!(op_from_name(name), Some(op));
            assert_eq!(op_name(op), name);
        }
        assert_eq!(op_from_name("sideways"), None);
    }
}
