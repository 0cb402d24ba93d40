//! The traced run's span harvest: a sink the benchmark installs with `qo_obsv::with_sink`
//! around each operation, keeping spans and events in one arrival-ordered stream so that an
//! `exact_ccps` event can be matched to the tier its serve ended in.

use crate::stats::{self_times, ClosedSpan};
use qo_obsv::ObsvSink;
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug)]
enum Record {
    Span(ClosedSpan),
    Event(&'static str, u64),
}

/// Records every span and event of one operation; [`Harvest::take`] drains it.
#[derive(Default)]
pub struct Harvest {
    records: Mutex<Vec<Record>>,
}

impl ObsvSink for Harvest {
    fn span_close(&self, name: &'static str, depth: u32, nanos: u64) {
        let span = ClosedSpan { name, depth, nanos };
        self.records
            .lock()
            .expect("harvest poisoned")
            .push(Record::Span(span));
    }

    fn event(&self, name: &'static str, value: u64) {
        self.records
            .lock()
            .expect("harvest poisoned")
            .push(Record::Event(name, value));
    }
}

/// Span self-times and ccp counts accumulated over the traced operations of a run.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// `parse` + `lower` and `canonicalize` self time of the most recent call, ns.
    pub last_call_ns: (f64, f64),
    /// Per `recost` span: self time, ns.
    pub recost_ns: Vec<f64>,
    pub enumerate_ns: u64,
    pub idp_ns: u64,
    pub greedy_ns: u64,
    /// Csg-cmp-pairs of every exact run (`exact_ccps` events).
    pub exact_ccps: u64,
    /// The part of `exact_ccps` spent in exact runs whose serve then fell back to IDP or
    /// greedy ordering.
    pub wasted_ccps: u64,
}

impl Harvest {
    /// Runs `op` with this sink installed and folds what it recorded into `totals`.
    pub fn traced<R>(self: &Arc<Self>, totals: &mut SpanTotals, op: impl FnOnce() -> R) -> R {
        let result = qo_obsv::with_sink(self.clone(), op);
        let records = std::mem::take(&mut *self.records.lock().expect("harvest poisoned"));
        totals.absorb(&records);
        result
    }
}

impl SpanTotals {
    fn absorb(&mut self, records: &[Record]) {
        let spans: Vec<ClosedSpan> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(*s),
                Record::Event(..) => None,
            })
            .collect();
        let mut parse_lower = None;
        self.last_call_ns = (0.0, 0.0);
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            match span.name {
                "parse" | "lower" => *parse_lower.get_or_insert(0) += self_ns,
                "canonicalize" => self.last_call_ns.1 += self_ns as f64,
                "recost" => self.recost_ns.push(self_ns as f64),
                "enumerate" => self.enumerate_ns += self_ns,
                "idp" => self.idp_ns += self_ns,
                "greedy" => self.greedy_ns += self_ns,
                _ => {}
            }
        }
        if let Some(ns) = parse_lower {
            self.last_call_ns.0 = ns as f64;
        }
        // One serve's records end with its `serve` span; its exact run was wasted when an
        // `idp` or `greedy` span closed inside the same serve.
        let (mut ccps, mut fell_back) = (0, false);
        for r in records {
            match *r {
                Record::Event("exact_ccps", n) => ccps += n,
                Record::Span(s) if s.name == "idp" || s.name == "greedy" => fell_back = true,
                Record::Span(s) if s.name == "serve" => {
                    self.exact_ccps += ccps;
                    if fell_back {
                        self.wasted_ccps += ccps;
                    }
                    (ccps, fell_back) = (0, false);
                }
                _ => {}
            }
        }
    }
}
