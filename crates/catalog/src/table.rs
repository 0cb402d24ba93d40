//! The dynamic-programming table of the planner, re-architected for the hot path.
//!
//! The paper's metric is cost-function invocations per csg-cmp-pair, so the per-pair overhead
//! of the memo structure *is* the hot path. The table therefore avoids the two costs of the
//! obvious `HashMap<NodeSet, PlanClass>` design:
//!
//! * **SipHash + bucket indirection.** Plan classes live in one contiguous arena
//!   ([`DpTable::classes`] iterates it in insertion order) and are found through a slot map
//!   from the set to a `u32` arena index ([`ClassSlot`]). The slot map has two layouts:
//!   - **Mask-indexed.** A table built by [`DpTable::with_relations`] for a one-word graph of
//!     at most [`DpTable::MASK_INDEXED_MAX_RELATIONS`] (17) relations is a zeroed `Vec<u32>`
//!     of `2^n` entries indexed by the mask itself, holding arena index + 1 (0 marks a set
//!     with no class). A probe is one load: no hash, no probe sequence. At the threshold the
//!     index is 512 KiB. Zeroing it costs time in proportion to `2^n`, whatever the number of
//!     classes, so a sparse graph near the threshold gives a little back: see the crossover
//!     measured on the constant.
//!   - **Hashed.** Every other table — larger graphs, `W = 2`, [`DpTable::new`] and the IDP,
//!     GOO, DPsize and DPsub tables — uses a hand-rolled open-addressing map from the raw set
//!     mask, hashed with the FxHash-style finalizer of [`NodeSet::hash64`] (which folds every
//!     mask word), with linear probing over one flat array. Its memory grows with the classes
//!     stored, not with `2^n`.
//! * **Per-offer `Vec<EdgeId>` clones.** A class stores no predicate list at all: the
//!   predicates of a join are exactly the connecting edges of its two inputs, a function of the
//!   hypergraph, so [`DpTable::reconstruct`] recollects them for the `n − 1` joins of the
//!   returned plan instead of every accepted offer storing them. An offer allocates nothing,
//!   and [`PlanClass`] is `Copy`, which lets every enumeration algorithm read table entries
//!   without cloning.
//!
//! A class never moves in the arena, so a [`ClassSlot`] found once stays valid for the table's
//! lifetime: the exact tier looks each class up once per connectivity test and reads it through
//! [`DpTable::class`] afterwards. The lookup of the union's slot is then the only probe of a
//! csg-cmp-pair: a candidate for an existing class goes through [`DpTable::offer_at`], and only
//! a pair that creates its union's class takes the insert of [`DpTable::offer`].
//!
//! Every type is generic over the mask width `W` (one word by default): a `DpTable<2>` memoizes
//! plan classes for queries of up to 128 relations with the hashed layout.

use crate::cost::SubPlanStats;
use qo_bitset::{NodeId, NodeSet};
use qo_hypergraph::Hypergraph;
use qo_plan::{JoinOp, PlanNode};

/// The root join of the best plan of a [`PlanClass`]. Its predicates are not stored: they are
/// the connecting edges of `left` and `right`, recollected by [`DpTable::reconstruct`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestJoin<const W: usize = 1> {
    /// Relations of the left input class.
    pub left: NodeSet<W>,
    /// Relations of the right input class.
    pub right: NodeSet<W>,
    /// Operator applied at the root (already turned into its dependent variant if required).
    pub op: JoinOp,
}

/// The best plan known for one set of relations (a "plan class"); the combiner's candidates
/// have the same form before they are offered to the table.
///
/// Plan classes are plain `Copy` values: enumeration algorithms read them out of the table by
/// value instead of cloning heap-backed structs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanClass<const W: usize = 1> {
    /// The relations covered by this class.
    pub set: NodeSet<W>,
    /// Estimated output cardinality of the class.
    pub cardinality: f64,
    /// Cost of the best plan found so far.
    pub cost: f64,
    /// How the best plan combines its inputs; `None` for base relations.
    pub best_join: Option<BestJoin<W>>,
}

impl<const W: usize> PlanClass<W> {
    /// The class viewed as sub-plan statistics (the combiner's input currency).
    pub fn stats(&self) -> SubPlanStats<W> {
        SubPlanStats {
            set: self.set,
            cardinality: self.cardinality,
            cost: self.cost,
        }
    }
}

/// The arena index of a memoized plan class, as returned by [`DpTable::slot`].
///
/// Classes never move, so a slot stays valid for the lifetime of the table that returned it and
/// [`DpTable::class`] reads the class back without another lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassSlot(u32);

/// Map from non-empty relation-set keys to `u32` arena indexes, in one of the two layouts the
/// module documentation describes.
#[derive(Clone, Debug)]
enum SlotMap<const W: usize> {
    /// Indexed by the mask of a one-word set; each entry holds arena index + 1, 0 when vacant.
    ByMask(Vec<u32>),
    /// Open addressing over hashed keys.
    Hashed(HashedSlots<W>),
}

impl<const W: usize> SlotMap<W> {
    #[inline]
    fn get(&self, set: NodeSet<W>) -> Option<u32> {
        match self {
            // A set with a member beyond the indexed relations has no entry.
            SlotMap::ByMask(index) => index.get(set.words()[0] as usize)?.checked_sub(1),
            SlotMap::Hashed(map) => map.get(set),
        }
    }

    /// The slot of `set` if present; otherwise records `slot` for it and returns `None`.
    #[inline]
    fn get_or_insert(&mut self, set: NodeSet<W>, slot: u32) -> Option<u32> {
        match self {
            SlotMap::ByMask(index) => {
                let len = index.len();
                let Some(entry) = index.get_mut(set.words()[0] as usize) else {
                    panic!("relation set {set:?} exceeds the {len}-entry mask-indexed table");
                };
                if *entry == 0 {
                    *entry = slot + 1;
                    None
                } else {
                    Some(*entry - 1)
                }
            }
            SlotMap::Hashed(map) => map.get_or_insert(set, slot),
        }
    }
}

/// Open-addressing map from non-empty relation-set keys to `u32` arena indexes.
///
/// The empty set — never a valid plan-class key — doubles as the vacancy sentinel, so a slot is
/// a bare `(NodeSet<W>, u32)` pair and probing is branch-light. The convention is confined to
/// [`HashedSlots::is_vacant`]: vacancy means *all* words of the stored key are zero, which keeps
/// multi-word keys whose low word happens to be zero (e.g. `{R64}`) distinct from vacancies.
#[derive(Clone, Debug)]
struct HashedSlots<const W: usize> {
    keys: Vec<NodeSet<W>>,
    slots: Vec<u32>,
    len: usize,
    /// log2 of the table size; kept so indexing can use the well-mixed high hash bits.
    bits: u32,
}

impl<const W: usize> HashedSlots<W> {
    const INITIAL_BITS: u32 = 6; // 64 slots

    fn new() -> Self {
        HashedSlots {
            keys: vec![NodeSet::EMPTY; 1 << Self::INITIAL_BITS],
            slots: vec![0; 1 << Self::INITIAL_BITS],
            len: 0,
            bits: Self::INITIAL_BITS,
        }
    }

    /// Is this stored key the vacancy sentinel (the empty set, i.e. every word zero)?
    #[inline]
    fn is_vacant(key: NodeSet<W>) -> bool {
        key.is_empty()
    }

    /// Walks `set`'s probe sequence: the position holding `set` (`true`), or the first vacancy
    /// on the way (`false`).
    #[inline]
    fn probe(&self, set: NodeSet<W>) -> (usize, bool) {
        debug_assert!(
            !Self::is_vacant(set),
            "the empty set is never a plan-class key"
        );
        let cap_mask = self.keys.len() - 1;
        let mut i = set.hash_index(self.bits);
        loop {
            let k = self.keys[i];
            if k == set {
                return (i, true);
            }
            if Self::is_vacant(k) {
                return (i, false);
            }
            i = (i + 1) & cap_mask;
        }
    }

    #[inline]
    fn get(&self, set: NodeSet<W>) -> Option<u32> {
        let (i, found) = self.probe(set);
        found.then(|| self.slots[i])
    }

    /// The slot of `set` if present; otherwise inserts `set → slot` and returns `None`.
    fn get_or_insert(&mut self, set: NodeSet<W>, slot: u32) -> Option<u32> {
        let (mut i, found) = self.probe(set);
        if found {
            return Some(self.slots[i]);
        }
        // Grow at 3/4 load to keep probe sequences short; growth moves the vacancy found.
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
            i = self.probe(set).0;
        }
        self.keys[i] = set;
        self.slots[i] = slot;
        self.len += 1;
        None
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_slots = std::mem::take(&mut self.slots);
        self.bits += 1;
        self.keys = vec![NodeSet::EMPTY; 1 << self.bits];
        self.slots = vec![0; 1 << self.bits];
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if !Self::is_vacant(k) {
                let i = self.probe(k).0;
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
    }
}

/// The dynamic programming table: best plan per connected set of relations.
///
/// See the module documentation for the layout rationale. The public surface mirrors what the
/// enumeration algorithms need: leaf seeding, membership tests, candidate offers and plan
/// reconstruction.
#[derive(Clone, Debug)]
pub struct DpTable<const W: usize = 1> {
    map: SlotMap<W>,
    classes: Vec<PlanClass<W>>,
}

impl<const W: usize> Default for DpTable<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> DpTable<W> {
    /// The largest relation count whose one-word tables [`with_relations`](Self::with_relations)
    /// index by mask: `2^17` entries of 4 bytes, 512 KiB.
    ///
    /// The index pays a probe per csg-cmp-pair and costs a `2^n` zeroing per table, so dense
    /// graphs (many pairs per set) win and sparse ones (few classes against `2^n`) lose. The
    /// crossover, measured for exact DPhyp with the cost-based handler (minimum time over
    /// repeated runs, hashed → mask-indexed, release build on a 2-core x86-64 VM):
    ///
    /// | graph                  | hashed → mask-indexed                 |
    /// |------------------------|---------------------------------------|
    /// | chain-17               | 43–57 µs → 50–65 µs (loses 7–18 µs)   |
    /// | cycle-17               | 131–220 µs → 102–169 µs (wins)        |
    /// | star, 16 satellites    | 38.6–53.3 ms → 20.8–23.2 ms (wins)    |
    /// | chain-18               | loses about 17 µs                     |
    /// | cycle-18               | wins                                  |
    /// | chain-19               | loses 50–60 µs                        |
    /// | cycle-20               | loses                                 |
    ///
    /// Past 17 relations sparse graphs lose more and the index doubles per relation; at 17 the
    /// worst loss stays at a few tens of µs and the index at 512 KiB.
    pub const MASK_INDEXED_MAX_RELATIONS: usize = 17;

    /// Creates an empty table with the hashed slot map, whose memory grows with the classes
    /// stored.
    pub fn new() -> Self {
        DpTable {
            map: SlotMap::Hashed(HashedSlots::new()),
            classes: Vec::new(),
        }
    }

    /// Creates an empty table for an enumeration over a graph of `relations` relations. A
    /// one-word graph of at most [`MASK_INDEXED_MAX_RELATIONS`](Self::MASK_INDEXED_MAX_RELATIONS)
    /// relations gets the mask-indexed slot map of `2^relations` entries; every other graph gets
    /// the hashed one of [`new`](Self::new).
    ///
    /// # Panics
    /// A mask-indexed table panics when a class over a relation id `≥ relations` is inserted.
    pub fn with_relations(relations: usize) -> Self {
        if W == 1 && relations <= Self::MASK_INDEXED_MAX_RELATIONS {
            DpTable {
                map: SlotMap::ByMask(vec![0; 1 << relations]),
                classes: Vec::new(),
            }
        } else {
            Self::new()
        }
    }

    /// Number of memoized plan classes (connected sets discovered so far).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Does the table contain a plan for `set`?
    #[inline]
    pub fn contains(&self, set: NodeSet<W>) -> bool {
        self.slot(set).is_some()
    }

    /// The arena slot of the class for `set`, if any.
    #[inline]
    pub fn slot(&self, set: NodeSet<W>) -> Option<ClassSlot> {
        if set.is_empty() {
            return None;
        }
        self.map.get(set).map(ClassSlot)
    }

    /// The class at `slot`, a slot this table returned.
    #[inline]
    pub fn class(&self, slot: ClassSlot) -> &PlanClass<W> {
        &self.classes[slot.0 as usize]
    }

    /// The plan class for `set`, if any.
    #[inline]
    pub fn get(&self, set: NodeSet<W>) -> Option<&PlanClass<W>> {
        self.slot(set).map(|slot| self.class(slot))
    }

    /// Iterates over all memoized classes in insertion order.
    pub fn classes(&self) -> impl Iterator<Item = &PlanClass<W>> {
        self.classes.iter()
    }

    /// Inserts the access plan for a single relation. Re-inserting a relation resets its class
    /// to a fresh leaf (cost 0, no join).
    pub fn insert_leaf(&mut self, relation: NodeId, cardinality: f64) {
        let class = PlanClass {
            set: NodeSet::single(relation),
            cardinality,
            cost: 0.0,
            best_join: None,
        };
        if let Some(i) = self.admit(class) {
            self.classes[i as usize] = class;
        }
    }

    /// Offers a candidate plan class; it replaces the memoized one if it is cheaper (or if the
    /// set was unknown). Returns `true` if the candidate was accepted. On equal cost the
    /// incumbent wins, so the first plan found at a given cost is kept.
    pub fn offer(&mut self, candidate: PlanClass<W>) -> bool {
        match self.admit(candidate) {
            Some(i) => self.offer_at(ClassSlot(i), candidate),
            None => true,
        }
    }

    /// [`offer`](Self::offer) to the class at `slot`, a slot this table returned for
    /// `candidate.set`: the same rule (strictly cheaper replaces, the incumbent wins ties)
    /// without a probe.
    #[inline]
    pub fn offer_at(&mut self, slot: ClassSlot, candidate: PlanClass<W>) -> bool {
        let incumbent = &mut self.classes[slot.0 as usize];
        debug_assert_eq!(incumbent.set, candidate.set, "slot of a different class");
        let cheaper = candidate.cost < incumbent.cost;
        if cheaper {
            *incumbent = candidate;
        }
        cheaper
    }

    /// Replaces the class at `slot`, a slot this table returned for `candidate.set`, whatever
    /// its cost: for a caller that breaks cost ties itself.
    #[inline]
    pub fn replace_at(&mut self, slot: ClassSlot, candidate: PlanClass<W>) {
        let incumbent = &mut self.classes[slot.0 as usize];
        debug_assert_eq!(incumbent.set, candidate.set, "slot of a different class");
        *incumbent = candidate;
    }

    /// One probe for `class.set`: returns the incumbent's arena index, or appends `class` as a
    /// new class and returns `None`.
    #[inline]
    fn admit(&mut self, class: PlanClass<W>) -> Option<u32> {
        let next = u32::try_from(self.classes.len()).expect("class arena fits in u32");
        let incumbent = self.map.get_or_insert(class.set, next);
        if incumbent.is_none() {
            self.classes.push(class);
        }
        incumbent
    }

    /// Reconstructs the full plan tree for `set` from the memoized join decisions. Each join's
    /// predicates are recollected from `graph`: the connecting edges of its two inputs, the
    /// list every enumerator hands the combiner for that pair.
    pub fn reconstruct(&self, set: NodeSet<W>, graph: &Hypergraph<W>) -> Option<PlanNode> {
        let class = self.get(set)?;
        match class.best_join {
            None => {
                let relation = set.min_node().expect("leaf class with empty set");
                Some(PlanNode::scan(relation, class.cardinality))
            }
            Some(join) => {
                let left = self.reconstruct(join.left, graph)?;
                let right = self.reconstruct(join.right, graph)?;
                Some(PlanNode::join(
                    join.op,
                    left,
                    right,
                    graph.connecting_edges(join.left, join.right),
                    class.cardinality,
                    class.cost,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_bitset::NodeSet128;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    fn candidate<const W: usize>(set: NodeSet<W>, cost: f64) -> PlanClass<W> {
        let left = set.min_singleton();
        join(left, set - left, JoinOp::Inner, 10.0, cost)
    }

    fn join<const W: usize>(
        left: NodeSet<W>,
        right: NodeSet<W>,
        op: JoinOp,
        cardinality: f64,
        cost: f64,
    ) -> PlanClass<W> {
        PlanClass {
            set: left | right,
            cardinality,
            cost,
            best_join: Some(BestJoin { left, right, op }),
        }
    }

    #[test]
    fn leaf_insert_get_contains() {
        let mut t = DpTable::<1>::new();
        assert!(t.is_empty());
        assert!(!t.contains(NodeSet::EMPTY));
        assert!(t.get(NodeSet::EMPTY).is_none());
        t.insert_leaf(3, 500.0);
        assert_eq!(t.len(), 1);
        assert!(t.contains(NodeSet::single(3)));
        let c = t.get(NodeSet::single(3)).unwrap();
        assert_eq!(c.cardinality, 500.0);
        assert_eq!(c.cost, 0.0);
        assert!(c.best_join.is_none());
    }

    #[test]
    fn leaf_reinsertion_resets_the_class() {
        let mut t = DpTable::<1>::new();
        t.insert_leaf(0, 100.0);
        t.insert_leaf(1, 100.0);
        assert!(t.offer(candidate(ns(&[0, 1]), 42.0)));
        // Re-inserting a leaf must not create a duplicate class and must reset the stats.
        t.insert_leaf(0, 250.0);
        assert_eq!(t.len(), 3);
        let c = t.get(NodeSet::single(0)).unwrap();
        assert_eq!(c.cardinality, 250.0);
        assert_eq!(c.cost, 0.0);
        assert!(c.best_join.is_none());
    }

    #[test]
    fn offer_keeps_the_cheapest_and_breaks_ties_for_the_incumbent() {
        let mut t = DpTable::<1>::new();
        assert!(t.offer(candidate(ns(&[0, 1]), 100.0)));
        // Cheaper: replaces.
        assert!(t.offer(candidate(ns(&[0, 1]), 10.0)));
        assert_eq!(t.get(ns(&[0, 1])).unwrap().cost, 10.0);
        // Equal cost: the incumbent wins (deterministic tie-breaking on emission order).
        let mut tied = candidate(ns(&[0, 1]), 10.0);
        tied.cardinality = 99.0;
        assert!(!t.offer(tied));
        let stored = t.get(ns(&[0, 1])).unwrap();
        assert_eq!(stored.cardinality, 10.0);
        // More expensive: rejected.
        assert!(!t.offer(candidate(ns(&[0, 1]), 11.0)));
        assert_eq!(t.len(), 1);
    }

    /// Entries of the table's slot index: `2^n` when mask-indexed, the open-addressing
    /// capacity when hashed.
    fn index_entries<const W: usize>(t: &DpTable<W>) -> (bool, usize) {
        match &t.map {
            SlotMap::ByMask(index) => (true, index.len()),
            SlotMap::Hashed(map) => (false, map.keys.len()),
        }
    }

    #[test]
    fn mask_index_covers_one_word_graphs_up_to_the_threshold_only() {
        let max = DpTable::<1>::MASK_INDEXED_MAX_RELATIONS;
        assert_eq!(max, 17);
        assert_eq!(index_entries(&DpTable::<1>::with_relations(3)), (true, 8));
        assert_eq!(
            index_entries(&DpTable::<1>::with_relations(max)),
            (true, 1 << max)
        );
        assert!(!index_entries(&DpTable::<1>::with_relations(max + 1)).0);
        assert!(!index_entries(&DpTable::<1>::with_relations(64)).0);
        // The two-word tier always hashes, however few relations the graph has.
        assert!(!index_entries(&DpTable::<2>::with_relations(max)).0);
        assert!(!index_entries(&DpTable::<1>::new()).0);
    }

    #[test]
    fn mask_indexed_and_hashed_tables_agree() {
        let n = DpTable::<1>::MASK_INDEXED_MAX_RELATIONS;
        let mut by_mask = DpTable::<1>::with_relations(n);
        let mut hashed = DpTable::<1>::new();
        for t in [&mut by_mask, &mut hashed] {
            for r in 0..n {
                t.insert_leaf(r, 1.0 + r as f64);
            }
            // Offers over the full range, including the top bit, repeated offers and ties.
            for s in NodeSet::first_n(n).subsets().filter(|s| s.len() == 2) {
                assert!(t.offer(candidate(s, s.mask() as f64)));
                assert!(!t.offer(candidate(s, s.mask() as f64)));
                assert!(t.offer(candidate(s, s.mask() as f64 - 0.5)));
            }
            assert!(t.offer(candidate(NodeSet::first_n(n), 1.0)));
            t.insert_leaf(n - 1, 99.0);
        }
        assert!(index_entries(&by_mask).0);
        assert_eq!(by_mask.len(), hashed.len());
        assert!(by_mask.classes().eq(hashed.classes()));
        for class in hashed.classes() {
            let slot = by_mask.slot(class.set).expect("class present");
            assert_eq!(by_mask.class(slot), class);
            assert_eq!(hashed.class(hashed.slot(class.set).unwrap()), class);
        }
        for absent in [
            ns(&[0, 1, 2]),
            NodeSet::EMPTY,
            NodeSet::single(n),
            ns(&[0, 40]),
        ] {
            assert!(by_mask.get(absent).is_none(), "{absent:?}");
            assert!(hashed.get(absent).is_none(), "{absent:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 8-entry mask-indexed table")]
    fn mask_indexed_table_rejects_relations_beyond_its_range() {
        DpTable::<1>::with_relations(3).insert_leaf(3, 1.0);
    }

    #[test]
    fn slot_map_survives_growth_with_many_classes() {
        // Enough classes to force several slot-map growth steps.
        let mut t = DpTable::<1>::new();
        for r in 0..16 {
            t.insert_leaf(r, 1.0 + r as f64);
        }
        let all = NodeSet::first_n(16);
        let mut count = 16usize;
        for s in all.subsets() {
            if s.is_singleton() || s.len() > 3 {
                continue;
            }
            assert!(t.offer(candidate(s, s.mask() as f64)));
            count += 1;
        }
        assert_eq!(t.len(), count);
        // Every class is still reachable with intact data after rehashing.
        for s in all.subsets() {
            if s.len() > 3 {
                continue;
            }
            let c = t.get(s).expect("class survived growth");
            assert_eq!(c.set, s);
            let expect = (!s.is_singleton()).then(|| s.mask() as f64);
            assert_eq!(c.best_join.map(|_| c.cost), expect);
        }
        assert!(!t.contains(NodeSet::from_mask(1 << 20)));
    }

    #[test]
    fn reconstruct_recollects_predicates_from_the_graph() {
        // Triangle R0–R1 (e0), R1–R2 (e1), R0–R2 (e2): the root join ({R0,R1}, {R2}) applies
        // both edges into R2, the inner join only e0.
        let mut b = Hypergraph::<1>::builder(3);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(1, 2);
        b.add_simple_edge(0, 2);
        let g = b.build();
        let mut t = DpTable::<1>::new();
        t.insert_leaf(0, 10.0);
        t.insert_leaf(1, 20.0);
        t.insert_leaf(2, 30.0);
        assert!(t.offer(join(ns(&[0]), ns(&[1]), JoinOp::Inner, 15.0, 15.0)));
        assert!(t.offer(join(ns(&[0, 1]), ns(&[2]), JoinOp::LeftOuter, 7.0, 22.0)));
        let plan = t.reconstruct(ns(&[0, 1, 2]), &g).expect("full plan");
        assert_eq!(plan.relations(), ns(&[0, 1, 2]));
        let PlanNode::Join {
            op,
            left,
            predicates,
            ..
        } = &plan
        else {
            panic!("root is a join")
        };
        assert_eq!(*op, JoinOp::LeftOuter);
        assert_eq!(predicates, &[1, 2]);
        assert_eq!(left.applied_predicates(), vec![0]);
        assert!(t.reconstruct(ns(&[1, 2]), &g).is_none());
    }

    #[test]
    fn max_nodes_boundary_sets_are_usable_keys() {
        // Bit 63 and the full 64-relation mask must hash, store and compare correctly.
        let mut t = DpTable::<1>::new();
        t.insert_leaf(63, 5.0);
        assert!(t.contains(NodeSet::single(63)));
        let full = NodeSet::first_n(64);
        assert!(t.offer(candidate(full, 1.0)));
        assert!(t.contains(full));
        assert_eq!(t.get(full).unwrap().set, full);
    }

    #[test]
    fn vacancy_sentinel_is_all_words_zero_not_low_word_zero() {
        // The empty-adjacent keys of the wide tier: sets whose *low* word is zero (every member
        // lives in the high word) must not be mistaken for vacant slots, and sets whose high
        // word is zero must not collide with their single-word twins' storage convention.
        let mut t = DpTable::<2>::new();
        let low_word_zero = NodeSet128::single(64); // words [0, 1]
        let high_word_zero = NodeSet128::single(0); // words [1, 0]
        let straddling: NodeSet128 = [63, 64].into_iter().collect();
        t.insert_leaf(64, 11.0);
        t.insert_leaf(0, 22.0);
        assert!(
            t.contains(low_word_zero),
            "low-word-zero key must be stored"
        );
        assert!(t.contains(high_word_zero));
        assert_eq!(t.get(low_word_zero).unwrap().cardinality, 11.0);
        assert_eq!(t.get(high_word_zero).unwrap().cardinality, 22.0);
        assert!(t.offer(candidate(straddling, 3.0)));
        assert!(t.contains(straddling));
        // Lookups of absent empty-adjacent keys terminate at a vacancy instead of cycling.
        assert!(!t.contains(NodeSet128::single(65)));
        assert!(!t.contains(NodeSet128::single(1)));
        assert!(!t.contains(NodeSet128::EMPTY));
        assert!(t.get(NodeSet128::EMPTY).is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn wide_slot_map_survives_growth_with_high_word_keys() {
        // Force growth with keys spread over both words, including many with a zero low word.
        let mut t = DpTable::<2>::new();
        for r in 0..128 {
            t.insert_leaf(r, r as f64 + 1.0);
        }
        assert_eq!(t.len(), 128);
        for r in 0..128 {
            let c = t.get(NodeSet128::single(r)).expect("leaf survived growth");
            assert_eq!(c.cardinality, r as f64 + 1.0);
        }
        // Pairs straddling the boundary remain addressable too.
        for r in 0..64 {
            let pair: NodeSet128 = [r, r + 64].into_iter().collect();
            assert!(t.offer(candidate(pair, r as f64)));
        }
        for r in 0..64 {
            let pair: NodeSet128 = [r, r + 64].into_iter().collect();
            assert_eq!(t.get(pair).expect("pair present").set, pair);
        }
    }

    #[test]
    fn wide_reconstruct_crosses_the_word_boundary() {
        let mut t = DpTable::<2>::new();
        t.insert_leaf(63, 10.0);
        t.insert_leaf(64, 20.0);
        let mut b = Hypergraph::<2>::builder(65);
        b.add_simple_edge(0, 1);
        b.add_simple_edge(63, 64);
        let g = b.build();
        let pair: NodeSet128 = [63, 64].into_iter().collect();
        assert!(t.offer(candidate(pair, 5.0)));
        let plan = t.reconstruct(pair, &g).expect("plan reconstructs");
        assert_eq!(plan.relations_wide::<2>(), pair);
        assert_eq!(plan.join_count(), 1);
        assert_eq!(plan.applied_predicates(), vec![1]);
    }
}
