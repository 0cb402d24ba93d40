//! The binary join operators handled by the optimizer (Sec. 5.1 of the paper).

use std::fmt;

/// A binary join operator.
///
/// Besides the fully reorderable inner join, the paper considers the following operators with
/// limited reorderability: full outer join, left outer join, left antijoin, left semijoin and
/// left nestjoin (binary grouping / MD-join), plus the *dependent* counterpart of every
/// left-handed operator — the d-join / cross apply, outer apply and so on — where the evaluation
/// of the right side depends on the current tuple of the left side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum JoinOp {
    /// Inner join `B` — freely reorderable, commutative.
    Inner,
    /// Left outer join `P` (⟕).
    LeftOuter,
    /// Full outer join `M` (⟗) — commutative, but neither left- nor right-linear.
    FullOuter,
    /// Left semijoin `G` (⋉).
    LeftSemi,
    /// Left antijoin `I` (▷).
    LeftAnti,
    /// Left nestjoin `T` (binary grouping / MD-join).
    LeftNest,
    /// Dependent join `C` (d-join / cross apply).
    DepJoin,
    /// Dependent left outer join `Q` (outer apply).
    DepLeftOuter,
    /// Dependent left semijoin `H`.
    DepLeftSemi,
    /// Dependent left antijoin `J`.
    DepLeftAnti,
    /// Dependent left nestjoin `U`.
    DepLeftNest,
}

impl JoinOp {
    /// All operators, in a fixed order (useful for exhaustive tests over the conflict matrix).
    pub const ALL: [JoinOp; 11] = [
        JoinOp::Inner,
        JoinOp::LeftOuter,
        JoinOp::FullOuter,
        JoinOp::LeftSemi,
        JoinOp::LeftAnti,
        JoinOp::LeftNest,
        JoinOp::DepJoin,
        JoinOp::DepLeftOuter,
        JoinOp::DepLeftSemi,
        JoinOp::DepLeftAnti,
        JoinOp::DepLeftNest,
    ];

    /// The non-dependent operators (those that may appear in the user's query before dependent
    /// rewriting).
    pub const REGULAR: [JoinOp; 6] = [
        JoinOp::Inner,
        JoinOp::LeftOuter,
        JoinOp::FullOuter,
        JoinOp::LeftSemi,
        JoinOp::LeftAnti,
        JoinOp::LeftNest,
    ];

    /// Is this the plain inner join?
    #[inline]
    pub fn is_inner(self) -> bool {
        matches!(self, JoinOp::Inner | JoinOp::DepJoin)
    }

    /// Is the operator commutative? Only the (inner) join and the full outer join are
    /// (Sec. 5.4).
    #[inline]
    pub fn is_commutative(self) -> bool {
        matches!(self, JoinOp::Inner | JoinOp::FullOuter)
    }

    /// Is the operator a dependent ("apply") operator (Sec. 5.6)?
    #[inline]
    pub fn is_dependent(self) -> bool {
        matches!(
            self,
            JoinOp::DepJoin
                | JoinOp::DepLeftOuter
                | JoinOp::DepLeftSemi
                | JoinOp::DepLeftAnti
                | JoinOp::DepLeftNest
        )
    }

    /// The dependent counterpart of a regular operator (Sec. 5.6). Dependent operators map to
    /// themselves.
    #[inline]
    pub fn dependent_counterpart(self) -> JoinOp {
        match self {
            JoinOp::Inner => JoinOp::DepJoin,
            JoinOp::LeftOuter => JoinOp::DepLeftOuter,
            JoinOp::LeftSemi => JoinOp::DepLeftSemi,
            JoinOp::LeftAnti => JoinOp::DepLeftAnti,
            JoinOp::LeftNest => JoinOp::DepLeftNest,
            // The paper defines no dependent full outer join; a full outer join whose right side
            // references the left is not valid SQL either. Keep it as-is.
            JoinOp::FullOuter => JoinOp::FullOuter,
            dep => dep,
        }
    }

    /// The regular counterpart of a dependent operator. Regular operators map to themselves.
    #[inline]
    pub fn regular_counterpart(self) -> JoinOp {
        match self {
            JoinOp::DepJoin => JoinOp::Inner,
            JoinOp::DepLeftOuter => JoinOp::LeftOuter,
            JoinOp::DepLeftSemi => JoinOp::LeftSemi,
            JoinOp::DepLeftAnti => JoinOp::LeftAnti,
            JoinOp::DepLeftNest => JoinOp::LeftNest,
            reg => reg,
        }
    }

    /// Operator conflict predicate `OC(∘1, ∘2)` from Sec. 5.5 / Appendix A.3 of the paper,
    /// where `∘2` is (a descendant of) an argument of `∘1` and each dependent operator stands
    /// for its regular counterpart:
    ///
    /// ```text
    /// OC(∘1, ∘2) =  (∘1 = B ∧ ∘2 = M)
    ///            ∨ (∘1 ≠ B ∧ ¬(∘1 = ∘2 = P) ∧ ¬(∘1 = M ∧ ∘2 ∈ {P, M}))
    /// ```
    ///
    /// If `OC` holds (together with the syntactic condition `LC`/`RC`), the two operators must
    /// not be reordered, which the TES computation records by merging their TESs.
    pub fn operator_conflict(op1: JoinOp, op2: JoinOp) -> bool {
        use JoinOp::{FullOuter, Inner, LeftOuter};
        let o1 = op1.regular_counterpart();
        let o2 = op2.regular_counterpart();
        if o1 == Inner {
            return o2 == FullOuter;
        }
        // o1 != Inner:
        let both_left_outer = o1 == LeftOuter && o2 == LeftOuter;
        let full_outer_pair = o1 == FullOuter && (o2 == LeftOuter || o2 == FullOuter);
        !(both_left_outer || full_outer_pair)
    }

    /// A short algebraic symbol for display purposes.
    pub fn symbol(self) -> &'static str {
        match self {
            JoinOp::Inner => "⋈",
            JoinOp::LeftOuter => "⟕",
            JoinOp::FullOuter => "⟗",
            JoinOp::LeftSemi => "⋉",
            JoinOp::LeftAnti => "▷",
            JoinOp::LeftNest => "Δ",
            JoinOp::DepJoin => "⋈d",
            JoinOp::DepLeftOuter => "⟕d",
            JoinOp::DepLeftSemi => "⋉d",
            JoinOp::DepLeftAnti => "▷d",
            JoinOp::DepLeftNest => "Δd",
        }
    }

    /// A plain-ASCII name.
    pub fn name(self) -> &'static str {
        match self {
            JoinOp::Inner => "inner join",
            JoinOp::LeftOuter => "left outer join",
            JoinOp::FullOuter => "full outer join",
            JoinOp::LeftSemi => "left semijoin",
            JoinOp::LeftAnti => "left antijoin",
            JoinOp::LeftNest => "nestjoin",
            JoinOp::DepJoin => "dependent join",
            JoinOp::DepLeftOuter => "dependent left outer join",
            JoinOp::DepLeftSemi => "dependent left semijoin",
            JoinOp::DepLeftAnti => "dependent left antijoin",
            JoinOp::DepLeftNest => "dependent nestjoin",
        }
    }
}

impl fmt::Display for JoinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_matches_paper() {
        // "Only the join and the full outer join are commutative; all other operators are not."
        for op in JoinOp::ALL {
            let expected = matches!(op, JoinOp::Inner | JoinOp::FullOuter);
            assert_eq!(op.is_commutative(), expected, "{op:?}");
        }
    }

    #[test]
    fn dependent_round_trip() {
        for op in JoinOp::REGULAR {
            let dep = op.dependent_counterpart();
            if op == JoinOp::FullOuter {
                assert_eq!(dep, JoinOp::FullOuter);
                continue;
            }
            assert!(dep.is_dependent(), "{op:?} → {dep:?}");
            assert_eq!(dep.regular_counterpart(), op);
        }
        for op in JoinOp::ALL.into_iter().filter(|o| o.is_dependent()) {
            assert_eq!(op.dependent_counterpart(), op);
            assert!(!op.regular_counterpart().is_dependent());
        }
    }

    #[test]
    fn operator_conflict_inner_only_with_full_outer() {
        use JoinOp::*;
        // ∘1 = B: conflict exactly when ∘2 = M.
        for op2 in JoinOp::REGULAR {
            let expected = op2 == FullOuter;
            assert_eq!(JoinOp::operator_conflict(Inner, op2), expected, "{op2:?}");
        }
    }

    #[test]
    fn operator_conflict_left_outer_pairs_are_free() {
        use JoinOp::*;
        // ¬(∘1 = ∘2 = P): two left outer joins reorder freely (if pST is strong, which the paper
        // assumes after simplification).
        assert!(!JoinOp::operator_conflict(LeftOuter, LeftOuter));
        // but a left outer join over anything else conflicts
        assert!(JoinOp::operator_conflict(LeftOuter, Inner));
        assert!(JoinOp::operator_conflict(LeftOuter, LeftAnti));
        assert!(JoinOp::operator_conflict(LeftOuter, FullOuter));
    }

    #[test]
    fn operator_conflict_full_outer_rules() {
        use JoinOp::*;
        // ¬(∘1 = M ∧ ∘2 ∈ {P, M})
        assert!(!JoinOp::operator_conflict(FullOuter, LeftOuter));
        assert!(!JoinOp::operator_conflict(FullOuter, FullOuter));
        assert!(JoinOp::operator_conflict(FullOuter, Inner));
        assert!(JoinOp::operator_conflict(FullOuter, LeftSemi));
    }

    #[test]
    fn operator_conflict_restrictive_ops_conflict_with_everything() {
        use JoinOp::*;
        for op1 in [LeftSemi, LeftAnti, LeftNest] {
            for op2 in JoinOp::REGULAR {
                assert!(
                    JoinOp::operator_conflict(op1, op2),
                    "{op1:?} vs {op2:?} should conflict"
                );
            }
        }
    }

    #[test]
    fn operator_conflict_treats_dependent_ops_like_regular_ones() {
        use JoinOp::*;
        // "each operator also stands for its dependent counterpart"
        assert_eq!(
            JoinOp::operator_conflict(DepJoin, FullOuter),
            JoinOp::operator_conflict(Inner, FullOuter)
        );
        assert_eq!(
            JoinOp::operator_conflict(DepLeftOuter, DepLeftOuter),
            JoinOp::operator_conflict(LeftOuter, LeftOuter)
        );
        assert_eq!(
            JoinOp::operator_conflict(DepLeftAnti, Inner),
            JoinOp::operator_conflict(LeftAnti, Inner)
        );
    }

    #[test]
    fn symbols_and_names_are_distinct() {
        use std::collections::BTreeSet;
        let symbols: BTreeSet<_> = JoinOp::ALL.iter().map(|o| o.symbol()).collect();
        assert_eq!(symbols.len(), JoinOp::ALL.len());
        let names: BTreeSet<_> = JoinOp::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), JoinOp::ALL.len());
        assert_eq!(format!("{}", JoinOp::Inner), "⋈");
    }
}
