//! A set of `u64` points stored as sorted, merged half-open spans.
//!
//! Some simulator state is a set that gains members on every operation
//! but whose members cluster into a few runs: the byte ranges a NIC has
//! written since its last flush (a ring of slots rewritten over and over),
//! or the sequence numbers an auditor has seen issued (contiguous from 0).
//! Keeping the union as merged spans bounds the state by the number of
//! runs instead of the number of inserts.

/// Sorted, disjoint, non-adjacent half-open spans `[start, end)`.
///
/// ```
/// use simcore::spanset::SpanSet;
///
/// let mut s = SpanSet::new();
/// s.insert(10, 20);
/// s.insert(30, 40);
/// s.insert(20, 30); // touches both neighbours: all three merge
/// assert_eq!(s.spans(), &[(10, 40)]);
/// assert!(s.contains(39));
/// assert!(!s.contains(40));
/// s.insert(0, 5);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    spans: Vec<(u64, u64)>,
}

impl SpanSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every point of `[start, end)`, merging it with the spans it
    /// overlaps or touches. An empty range is a no-op.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Spans [lo, hi) are the ones the new range overlaps or touches.
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        let hi = self.spans.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.spans.insert(lo, (start, end));
            return;
        }
        let merged = (start.min(self.spans[lo].0), end.max(self.spans[hi - 1].1));
        self.spans[lo] = merged;
        self.spans.drain(lo + 1..hi);
    }

    /// True if `x` lies in some span.
    pub fn contains(&self, x: u64) -> bool {
        let i = self.spans.partition_point(|&(_, e)| e <= x);
        self.spans.get(i).is_some_and(|&(s, _)| s <= x)
    }

    /// The spans as `(start, end)` pairs, in ascending order.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Number of spans (not points).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the set has no points.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Removes every span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn matches_a_point_set_under_random_inserts() {
        let mut rng = SimRng::new(7);
        for _ in 0..200 {
            let mut s = SpanSet::new();
            let mut points = [false; 96];
            for _ in 0..12 {
                let a = rng.gen_range(0..90);
                let b = a + rng.gen_range(0..6);
                s.insert(a, b);
                for p in &mut points[a as usize..b as usize] {
                    *p = true;
                }
            }
            for (x, &member) in points.iter().enumerate() {
                assert_eq!(s.contains(x as u64), member, "point {x} in {s:?}");
            }
            // Canonical form: sorted, non-empty, and separated by a gap.
            for w in s.spans().windows(2) {
                assert!(w[0].1 < w[1].0, "unmerged spans in {s:?}");
            }
            assert!(s.spans().iter().all(|&(a, b)| a < b));
        }
    }

    #[test]
    fn contiguous_inserts_stay_one_span() {
        let mut s = SpanSet::new();
        for seq in 0..1000 {
            s.insert(seq, seq + 1);
        }
        assert_eq!(s.spans(), &[(0, 1000)]);
        s.insert(5, 5);
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }
}
