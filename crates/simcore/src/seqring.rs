//! A table keyed by monotonically assigned sequence numbers.
//!
//! Many simulator tables map a counter-assigned id to an entry that lives
//! until some later event retires it: a QP's in-flight WQEs awaiting their
//! ACK, a cluster's CPU tasks awaiting completion. Ids are handed out in
//! order and mostly retire in order, so a ring of optional slots indexed by
//! `id - base` replaces a hash map: insert, lookup and removal are O(1)
//! array operations with no hashing.
//!
//! Removal may happen out of order. The removed slot is emptied and the
//! ring only advances its base past leading empty slots, so a late retiree
//! keeps its slot (and the holes behind it) until it too is removed.

use std::collections::VecDeque;

/// Entries keyed by a sequence number assigned at insertion.
///
/// ```
/// use simcore::seqring::SeqRing;
///
/// let mut r = SeqRing::new();
/// let a = r.push("a");
/// let b = r.push("b");
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(r.remove(b), Some("b")); // out of order is fine
/// assert_eq!(r.get(a), Some(&"a"));
/// assert_eq!(r.remove(b), None); // already retired
/// assert_eq!(r.remove(a), Some("a"));
/// assert!(r.is_empty());
/// assert_eq!(r.push("c"), 2);
/// ```
#[derive(Debug)]
pub struct SeqRing<T> {
    /// Sequence number of `slots[0]`.
    base: u64,
    /// Live entries and the holes left by out-of-order removals. The front
    /// slot is always occupied (leading holes are popped eagerly).
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        SeqRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> SeqRing<T> {
    /// An empty ring whose first sequence number is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence number the next [`SeqRing::push`] returns.
    fn next_seq(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Inserts `value` under the next sequence number and returns it.
    pub fn push(&mut self, value: T) -> u64 {
        let seq = self.next_seq();
        self.slots.push_back(Some(value));
        self.live += 1;
        seq
    }

    fn index(&self, seq: u64) -> Option<usize> {
        let i = seq.checked_sub(self.base)?;
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// The entry under `seq`, if it is still live.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    /// Removes and returns the entry under `seq`; `None` if it was never
    /// assigned or is already removed.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let i = self.index(seq)?;
        let value = self.slots[i].take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_retirement_keeps_the_ring_empty() {
        let mut r = SeqRing::new();
        for i in 0..1000u64 {
            let s = r.push(i);
            assert_eq!(s, i);
            assert_eq!(r.remove(s), Some(i));
            assert!(r.is_empty());
            assert_eq!(r.slots.len(), 0);
        }
        assert_eq!(r.next_seq(), 1000);
    }

    #[test]
    fn holes_are_kept_until_the_front_retires() {
        let mut r = SeqRing::new();
        let seqs: Vec<u64> = (0..4).map(|i| r.push(i * 10)).collect();
        assert_eq!(r.remove(seqs[2]), Some(20));
        assert_eq!(r.remove(seqs[1]), Some(10));
        assert_eq!(r.len(), 2);
        assert_eq!(r.slots.len(), 4, "front still live: no slot reclaimed");
        assert_eq!(r.get(seqs[1]), None);
        assert_eq!(r.remove(seqs[0]), Some(0));
        assert_eq!(r.slots.len(), 1, "leading holes popped with the front");
        assert_eq!(r.get(seqs[3]), Some(&30));
        assert_eq!(r.next_seq(), 4);
    }

    #[test]
    fn unknown_and_stale_seqs_miss() {
        let mut r = SeqRing::new();
        let a = r.push('a');
        assert_eq!(r.get(a + 1), None);
        assert_eq!(r.remove(a + 7), None);
        assert_eq!(r.remove(a), Some('a'));
        assert_eq!(r.remove(a), None, "duplicate removal");
        assert_eq!(r.get(a), None);
        assert_eq!(r.remove(u64::MAX), None);
    }

    /// Matches a `BTreeMap` under random interleavings of push and
    /// out-of-order remove (including stale and never-assigned seqs).
    #[test]
    fn matches_a_map_model() {
        let mut rng = crate::SimRng::new(0x5E9);
        for _case in 0..32 {
            let mut ring = SeqRing::new();
            let mut model = std::collections::BTreeMap::new();
            let mut next = 0u64;
            for step in 0..400u64 {
                if rng.gen_range(0..3) > 0 {
                    assert_eq!(ring.push(step), next);
                    model.insert(next, step);
                    next += 1;
                } else {
                    let seq = rng.gen_range(0..next + 2);
                    assert_eq!(ring.remove(seq), model.remove(&seq));
                }
                assert_eq!(ring.len(), model.len());
                let probe = rng.gen_range(0..next + 2);
                assert_eq!(ring.get(probe), model.get(&probe));
            }
        }
    }
}
