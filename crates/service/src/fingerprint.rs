//! Query fingerprints: the plan cache's two-part key, plus the optimizer-options key.
//!
//! A fingerprint separates *what the query is* from *what the statistics currently say*:
//!
//! * [`Fingerprint::shape`] — the relation-order-invariant 64-bit digest of the canonical
//!   hypergraph shape ([`dphyp::canonicalize`]). Renaming or reordering relations, reordering
//!   edges, or swapping the sides of a commutative join all preserve it; adding/removing an
//!   edge, growing a hypernode, changing an operator or a lateral reference all change it.
//! * [`Fingerprint::stats`] — a digest of the statistics alone: the catalog's
//!   [`qo_catalog::StatsEpoch`] over the canonical instantiation. Nothing but cardinalities,
//!   selectivities, operators and lateral sets feeds it.
//!
//! The cache keys entries by `shape` and compares `stats` on lookup, so the three outcomes a
//! serving layer needs are distinguishable by construction: full hit (both equal), stats drift
//! (shape equal, stats changed → incremental re-cost), and miss.
//!
//! Orthogonal to both halves, [`options_key`] digests every [`AdaptiveOptions`] field (cost
//! model, pair budget, IDP configuration), since each can change the *produced plan*; none
//! reads the clock, so equal keys on an equal spec give the same plan. A cached plan is only
//! reused — verbatim *or* as a re-cost seed — by requests with the identical options key: a
//! plan produced under a 1-pair budget must never satisfy a caller paying for exact
//! enumeration, and an options change is neither a hit nor a drift but a fresh optimization.

use dphyp::{AdaptiveOptions, CanonicalQuery, CostModelKind, QuerySpec};
use qo_catalog::StatsEpoch;
use std::fmt;

/// The two-part cache key of one canonicalized query: a shape digest and a stats digest
/// (see the crate docs for how the serving layer distinguishes hit / drift / miss).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Relation-order-invariant digest of the hypergraph shape (no statistics).
    pub shape: u64,
    /// Digest of the statistics epoch (no structure, no options).
    pub stats: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{:016x}", self.shape, self.stats)
    }
}

impl Fingerprint {
    /// Fingerprints a canonicalized query.
    pub fn of(canonical: &CanonicalQuery) -> Fingerprint {
        Fingerprint {
            shape: canonical.shape_hash,
            stats: stats_hash(&canonical.spec),
        }
    }
}

/// Digests the canonical spec's statistics through the catalog's stats-epoch view.
fn stats_hash(spec: &QuerySpec) -> u64 {
    let n = spec.node_count();
    let StatsEpoch(epoch) = if n <= 64 {
        spec.instantiate_catalog::<1>().stats_epoch()
    } else if n <= 128 {
        spec.instantiate_catalog::<2>().stats_epoch()
    } else {
        // Oversized specs fail planning before any cache interaction; the value is never used.
        StatsEpoch(0)
    };
    epoch
}

/// Digests every [`AdaptiveOptions`] field, since each can change which plan an optimization
/// produces. Entries are only reusable by requests with an equal key.
pub fn options_key(options: &AdaptiveOptions) -> u64 {
    let model_rank = match options.cost_model {
        CostModelKind::Cout => 0u64,
        CostModelKind::Mixed => 1,
    };
    StatsEpoch::SEED
        .fold(model_rank)
        .fold(options.ccp_budget as u64)
        .fold(options.idp_block_size as u64)
        .finalize()
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphyp::canonicalize;

    fn star(cards: [f64; 4], sel: f64) -> CanonicalQuery {
        let mut b = QuerySpec::builder(4);
        for (i, c) in cards.into_iter().enumerate() {
            b.set_cardinality(i, c);
        }
        for i in 1..4 {
            b.add_simple_edge(0, i, sel);
        }
        canonicalize(&b.build())
    }

    #[test]
    fn stats_drift_changes_only_the_stats_half() {
        let a = Fingerprint::of(&star([1e6, 10.0, 20.0, 30.0], 0.01));
        let b = Fingerprint::of(&star([1e6, 10.0, 20.0, 31.0], 0.01));
        assert_eq!(a.shape, b.shape);
        assert_ne!(a.stats, b.stats);
        let c = Fingerprint::of(&star([1e6, 10.0, 20.0, 30.0], 0.02));
        assert_eq!(a.shape, c.shape);
        assert_ne!(a.stats, c.stats);
    }

    #[test]
    fn every_plan_affecting_option_changes_the_options_key() {
        let base = AdaptiveOptions::default();
        let key = options_key(&base);
        assert_eq!(key, options_key(&base.clone()), "deterministic");
        for changed in [
            AdaptiveOptions {
                cost_model: CostModelKind::Mixed,
                ..base
            },
            AdaptiveOptions {
                ccp_budget: base.ccp_budget - 1,
                ..base
            },
            AdaptiveOptions {
                idp_block_size: 4,
                ..base
            },
        ] {
            assert_ne!(key, options_key(&changed), "{changed:?}");
        }
    }

    #[test]
    fn display_is_hex_pair() {
        let fp = Fingerprint {
            shape: 0xabc,
            stats: 0xdef,
        };
        assert_eq!(fp.to_string(), "0000000000000abc/0000000000000def");
    }
}
