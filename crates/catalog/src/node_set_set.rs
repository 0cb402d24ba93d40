//! [`NodeSetSet`]: a payload-free membership set of relation sets.

use qo_bitset::NodeSet;

/// An open-addressing hash set of non-empty relation sets, probing exactly like the slot map of
/// [`DpTable`](crate::DpTable) (FxHash-style [`NodeSet::hash_index`], empty-set vacancy sentinel, linear
/// probing, growth at 3/4 load).
///
/// This is the tombstone set of cost-bounded pruning: it records the relation sets whose every
/// candidate plan exceeded the upper bound, so that the pruning handler can still answer the
/// enumerator's `contains` queries for them (see [`CostBasedHandler`](crate::CostBasedHandler))
/// and bounded DPsub can skip splits with a pruned side — without carrying any plan or cost
/// payload.
#[derive(Clone, Debug)]
pub struct NodeSetSet<const W: usize = 1> {
    keys: Vec<NodeSet<W>>,
    len: usize,
    bits: u32,
}

impl<const W: usize> Default for NodeSetSet<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const W: usize> NodeSetSet<W> {
    const INITIAL_BITS: u32 = 6; // 64 slots

    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSetSet {
            keys: vec![NodeSet::EMPTY; 1 << Self::INITIAL_BITS],
            len: 0,
            bits: Self::INITIAL_BITS,
        }
    }

    /// Number of member sets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `set` a member? The empty set never is.
    #[inline]
    pub fn contains(&self, set: NodeSet<W>) -> bool {
        if set.is_empty() {
            return false;
        }
        let cap_mask = self.keys.len() - 1;
        let mut i = set.hash_index(self.bits);
        loop {
            let k = self.keys[i];
            if k == set {
                return true;
            }
            if k.is_empty() {
                return false;
            }
            i = (i + 1) & cap_mask;
        }
    }

    /// Inserts `set`; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics (in debug builds) when handed the empty set, which doubles as the vacancy
    /// sentinel and can never be a member.
    pub fn insert(&mut self, set: NodeSet<W>) -> bool {
        debug_assert!(!set.is_empty(), "the empty set is never a member");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let cap_mask = self.keys.len() - 1;
        let mut i = set.hash_index(self.bits);
        loop {
            let k = self.keys[i];
            if k == set {
                return false;
            }
            if k.is_empty() {
                self.keys[i] = set;
                self.len += 1;
                return true;
            }
            i = (i + 1) & cap_mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.keys);
        self.bits += 1;
        let cap = 1 << self.bits;
        self.keys = vec![NodeSet::EMPTY; cap];
        let cap_mask = cap - 1;
        for k in old {
            if !k.is_empty() {
                let mut i = k.hash_index(self.bits);
                while !self.keys[i].is_empty() {
                    i = (i + 1) & cap_mask;
                }
                self.keys[i] = k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: &[usize]) -> NodeSet {
        v.iter().copied().collect()
    }

    #[test]
    fn node_set_set_inserts_contains_and_grows() {
        let mut s = NodeSetSet::<1>::new();
        assert!(s.is_empty());
        assert!(!s.contains(ns(&[0])));
        assert!(!s.contains(NodeSet::EMPTY));
        // Enough members to force several growth steps.
        for mask in 1u64..=500 {
            assert!(s.insert(NodeSet::from_mask(mask)), "fresh insert {mask}");
        }
        assert_eq!(s.len(), 500);
        for mask in 1u64..=500 {
            assert!(s.contains(NodeSet::from_mask(mask)), "member {mask} lost");
            assert!(!s.insert(NodeSet::from_mask(mask)), "duplicate {mask}");
        }
        assert!(!s.contains(NodeSet::from_mask(501)));
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn wide_node_set_set_distinguishes_high_word_members() {
        let mut s = NodeSetSet::<2>::new();
        let low: NodeSet<2> = NodeSet::single(0);
        let high: NodeSet<2> = NodeSet::single(64);
        assert!(s.insert(high));
        assert!(s.contains(high));
        assert!(!s.contains(low), "low/high twins must not collide");
        assert!(s.insert(low));
        assert_eq!(s.len(), 2);
    }
}
