//! Pretty-printer: [`IngestQuery`] → canonical `.jg` text.
//!
//! The printer is the inverse of the parse-and-lower pipeline and is held to a round-trip
//! contract (checked by a property test): `parse_queries(to_jg(q))` yields a query equal to
//! `q` — same relation names and ids, bit-identical statistics, same options. Floats are
//! printed with Rust's `{:?}`, which emits the shortest string that parses back to the exact
//! same `f64`, so statistics survive the text round trip without drift.

use crate::lower::{op_name, IngestQuery};
use dphyp::NodeId;
use qo_plan::JoinOp;
use std::fmt::Write;

/// Renders one query as canonical `.jg` text (trailing newline included).
pub fn to_jg(q: &IngestQuery) -> String {
    let mut out = String::new();
    let name_of = |id: NodeId| q.relation_names[id].as_str();
    writeln!(out, "query {} {{", q.name).unwrap();
    for (id, rel_name) in q.relation_names.iter().enumerate() {
        write!(
            out,
            "  relation {rel_name} cardinality={:?}",
            q.spec.cardinality(id)
        )
        .unwrap();
        if let Some(rows) = q.row_overrides[id] {
            write!(out, " rows={rows}").unwrap();
        }
        let lateral = q.spec.lateral_refs(id);
        if !lateral.is_empty() {
            let refs: Vec<&str> = lateral.iter().map(|&r| name_of(r)).collect();
            write!(out, " lateral=({})", refs.join(", ")).unwrap();
        }
        out.push('\n');
    }
    for e in q.spec.edges() {
        write!(
            out,
            "  join {} -- {} selectivity={:?}",
            side(e.left(), &name_of),
            side(e.right(), &name_of),
            e.selectivity()
        )
        .unwrap();
        if e.op() != JoinOp::Inner {
            write!(out, " op={}", op_name(e.op())).unwrap();
        }
        if !e.flex().is_empty() {
            let refs: Vec<&str> = e.flex().iter().map(|&r| name_of(r)).collect();
            write!(out, " flex={{{}}}", refs.join(", ")).unwrap();
        }
        out.push('\n');
    }
    let o = &q.options;
    if let Some(b) = o.ccp_budget {
        writeln!(out, "  option ccp_budget = {b}").unwrap();
    }
    if let Some(k) = o.idp_block_size {
        writeln!(out, "  option idp_block_size = {k}").unwrap();
    }
    if let Some(m) = o.cost_model {
        let name = match m {
            dphyp::CostModelKind::Cout => "cout",
            dphyp::CostModelKind::Mixed => "mixed",
        };
        writeln!(out, "  option cost_model = {name}").unwrap();
    }
    out.push_str("}\n");
    out
}

fn side<'a>(ids: &[NodeId], name_of: &impl Fn(NodeId) -> &'a str) -> String {
    debug_assert!(!ids.is_empty(), "a lowered join side is never empty");
    if ids.len() == 1 {
        name_of(ids[0]).to_string()
    } else {
        let names: Vec<&str> = ids.iter().map(|&r| name_of(r)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::parse_queries;

    #[test]
    fn round_trips_a_query_with_every_feature() {
        let src = "query all_features {
  relation fact cardinality=250000.0 rows=64
  relation dim cardinality=100.0
  relation tf cardinality=5.0 lateral=(fact)
  relation extra cardinality=0.5
  join fact -- dim selectivity=0.001
  join fact -- tf selectivity=1.0
  join {fact, dim} -- extra selectivity=0.25 op=left_semi
  join dim -- extra selectivity=0.5 flex={tf}
  option ccp_budget = 12345
  option idp_block_size = 6
  option cost_model = mixed
}
";
        let q = &parse_queries(src).unwrap()[0];
        let printed = to_jg(q);
        assert_eq!(printed, src, "printer emits canonical text");
        let reparsed = &parse_queries(&printed).unwrap()[0];
        assert_eq!(reparsed, q, "canonical text lowers to an equal query");
    }

    #[test]
    fn shortest_float_formatting_survives_reparsing() {
        let src = "query f {\n  relation a cardinality=2528312\n  relation b cardinality=113\n  join a -- b selectivity=4e-7\n}";
        let q = &parse_queries(src).unwrap()[0];
        let again = &parse_queries(&to_jg(q)).unwrap()[0];
        assert_eq!(again.spec.cardinality(0), 2_528_312.0);
        assert_eq!(
            again.spec.edges().next().unwrap().selectivity(),
            4e-7,
            "bit-identical selectivity after round trip"
        );
    }
}
