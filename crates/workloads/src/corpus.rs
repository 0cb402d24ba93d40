//! The embedded `.jg` workload corpus: JOB-style IMDB join graphs and TPC-DS-flavored
//! snowflakes, shipped inside the binary via `include_str!`.
//!
//! The paper's claim is that DPhyp wins on the *non-chain* query graphs real workloads
//! produce. The synthetic families in this crate approximate those shapes parametrically;
//! this module complements them with a corpus of thirty-six *described* queries in the
//! [`qo_ingest`] `.jg` language — stars and snowflakes over a fact table (5–72 relations,
//! including one query wide enough for the two-word node-set tier), complex-predicate
//! hyperedges, non-inner joins, a lateral table function and per-query planner options — each
//! planned end to end through the adaptive driver:
//!
//! ```
//! use qo_workloads::corpus::{corpus, corpus_query};
//!
//! assert_eq!(corpus().len(), 36);
//! let q = corpus_query("job_01a").unwrap();
//! let result = q.plan().unwrap();
//! assert_eq!(result.plan.scan_count(), q.relation_count());
//! ```
//!
//! The raw sources are available too ([`CORPUS`]), so tests can exercise the parser against
//! the exact bytes that ship.

use qo_ingest::parse_queries;
pub use qo_ingest::IngestQuery;

/// One embedded `.jg` file: its stem name and its full source text.
#[derive(Clone, Copy, Debug)]
pub struct CorpusEntry {
    /// File stem, equal to the name of the single query the file declares.
    pub name: &'static str,
    /// The `.jg` source text.
    pub source: &'static str,
}

macro_rules! corpus_entries {
    ($($name:literal),* $(,)?) => {
        &[$(CorpusEntry {
            name: $name,
            source: include_str!(concat!("../corpus/", $name, ".jg")),
        }),*]
    };
}

/// Every embedded corpus file, in lexicographic order. JOB-style queries carry the `job_`
/// prefix (including the two alias-heavy link queries and the 28-relation synthetic
/// snowflake); TPC-DS-flavored ones carry `dsb_`.
pub const CORPUS: &[CorpusEntry] = corpus_entries![
    "dsb_cross_channel",
    "dsb_grand_25",
    "dsb_inventory",
    "dsb_snow_34",
    "dsb_ss_snowflake",
    "dsb_store_returns",
    "dsb_wide_72",
    "job_01a",
    "job_02a",
    "job_03a",
    "job_04a",
    "job_05c",
    "job_06a",
    "job_07a",
    "job_08a",
    "job_10a",
    "job_11a",
    "job_12a",
    "job_13a",
    "job_14a",
    "job_15b",
    "job_16a",
    "job_17a",
    "job_18a",
    "job_19a",
    "job_20a",
    "job_21a",
    "job_22a",
    "job_23a",
    "job_24a",
    "job_25c",
    "job_26a",
    "job_28a",
    "job_29a",
    "job_33a",
    "job_syn_28",
];

/// Parses the whole embedded corpus into lowered queries, in [`CORPUS`] order.
///
/// # Panics
/// Panics with a rendered caret diagnostic if an embedded file fails to parse — the corpus
/// ships inside the crate and is validated by its tests, so a failure here is a build bug,
/// not an input error.
pub fn corpus() -> Vec<IngestQuery> {
    CORPUS
        .iter()
        .flat_map(|e| {
            parse_queries(e.source).unwrap_or_else(|err| {
                panic!(
                    "embedded corpus file {}.jg is invalid:\n{}",
                    e.name,
                    err.render(e.source)
                )
            })
        })
        .collect()
}

/// Parses one corpus query by name (`None` if no such entry).
pub fn corpus_query(name: &str) -> Option<IngestQuery> {
    let entry = CORPUS.iter().find(|e| e.name == name)?;
    let queries = parse_queries(entry.source).unwrap_or_else(|err| {
        panic!(
            "embedded corpus file {}.jg is invalid:\n{}",
            entry.name,
            err.render(entry.source)
        )
    });
    queries.into_iter().find(|q| q.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_parses_and_matches_its_file_name() {
        for e in CORPUS {
            let queries = parse_queries(e.source)
                .unwrap_or_else(|err| panic!("{}.jg:\n{}", e.name, err.render(e.source)));
            assert_eq!(queries.len(), 1, "{}.jg declares exactly one query", e.name);
            assert_eq!(queries[0].name, e.name, "query name == file stem");
        }
    }

    #[test]
    fn corpus_spans_the_advertised_size_range() {
        let queries = corpus();
        assert_eq!(queries.len(), 36);
        let sizes: Vec<usize> = queries.iter().map(|q| q.relation_count()).collect();
        assert_eq!(*sizes.iter().min().unwrap(), 5, "smallest corpus query");
        assert_eq!(*sizes.iter().max().unwrap(), 72, "largest corpus query");
        // One query is wide enough for the two-word (W = 2) node-set tier…
        assert!(
            queries.iter().any(|q| q.relation_count() > 64),
            "the corpus must exercise the width-2 tier"
        );
        // …and there is a ≥32-relation TPC-DS-flavored snowflake below it.
        assert!(
            queries
                .iter()
                .any(|q| q.name.starts_with("dsb_") && (32..=64).contains(&q.relation_count())),
            "a ≥32-relation dsb snowflake is part of the corpus"
        );
        // Both workload flavors are represented.
        assert!(queries.iter().any(|q| q.name.starts_with("job_")));
        assert!(queries.iter().any(|q| q.name.starts_with("dsb_")));
    }

    #[test]
    fn corpus_exercises_the_language_beyond_simple_edges() {
        let queries = corpus();
        let has = |f: &dyn Fn(&IngestQuery) -> bool| queries.iter().any(f);
        assert!(
            has(&|q| q.spec.edges().any(|e| e.left().len() + e.right().len() > 2)),
            "some query carries a complex-predicate hyperedge"
        );
        assert!(
            has(&|q| q.spec.edges().any(|e| !e.op().is_inner())),
            "some query carries a non-inner join"
        );
        assert!(
            has(&|q| (0..q.relation_count()).any(|r| !q.spec.lateral_refs(r).is_empty())),
            "some query carries a lateral table function"
        );
        assert!(
            has(&|q| q.options.ccp_budget.is_some()),
            "some query pins a ccp budget"
        );
        assert!(
            has(&|q| q.options.cost_model.is_some()),
            "some query picks a cost model"
        );
        assert!(
            has(&|q| q.row_overrides.iter().any(|r| r.is_some())),
            "some query pins a synthetic table size (`rows=`) for the feedback loop"
        );
    }

    #[test]
    fn corpus_query_finds_by_name() {
        let q = corpus_query("dsb_inventory").unwrap();
        assert_eq!(q.relation_count(), 6);
        assert!(corpus_query("job_99z").is_none());
    }
}
