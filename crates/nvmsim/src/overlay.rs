//! Tracking of bytes that have been written but not yet flushed to the
//! durable medium.
//!
//! The overlay is a set of disjoint, non-adjacent dirty extents keyed by
//! offset. Writes merge into existing extents; flushes commit and remove
//! (possibly splitting) extents. Reads see overlay bytes over durable bytes,
//! matching a write-back cache that is coherent for reads.
//!
//! Extents live in a sorted vector, not a `BTreeMap`: a data-path overlay
//! holds at most a handful of extents (one per unflushed write), and the
//! vector keeps its capacity across the empty state a write/flush cycle
//! passes through every operation — a map would free and reallocate its
//! root node on every cycle.

/// Extent buffers larger than this are not recycled (a one-off bulk write
/// should not pin its allocation in the overlay).
const MAX_SPARE_CAPACITY: usize = 64 << 10;
/// Maximum recycled extent buffers retained per overlay.
const MAX_SPARE_BUFFERS: usize = 32;

/// Disjoint dirty byte ranges awaiting a flush.
///
/// Steady-state write/flush cycles recycle extent buffers through an
/// internal free-list, so a NIC-side write-back cache that is written and
/// flushed once per operation performs no net allocations once warm.
#[derive(Debug, Default)]
pub struct DirtyOverlay {
    /// `(start, bytes)` extents, sorted by start, pairwise disjoint.
    extents: Vec<(u64, Vec<u8>)>,
    /// Recycled extent buffers (cleared before reuse).
    spare: Vec<Vec<u8>>,
}

impl Clone for DirtyOverlay {
    fn clone(&self) -> Self {
        DirtyOverlay {
            extents: self.extents.clone(),
            spare: Vec::new(),
        }
    }
}

impl PartialEq for DirtyOverlay {
    fn eq(&self, other: &Self) -> bool {
        // Scratch state is not part of the overlay's value.
        self.extents == other.extents
    }
}
impl Eq for DirtyOverlay {}

impl DirtyOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        DirtyOverlay::default()
    }

    /// Takes a cleared buffer from the free-list, or allocates one.
    fn grab(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns an extent buffer's storage to the free-list.
    fn recycle(&mut self, mut v: Vec<u8>) {
        if v.capacity() > MAX_SPARE_CAPACITY || self.spare.len() >= MAX_SPARE_BUFFERS {
            return;
        }
        v.clear();
        self.spare.push(v);
    }

    /// True if no dirty bytes are pending.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total number of dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.extents.iter().map(|(_, v)| v.len() as u64).sum()
    }

    /// Number of distinct dirty extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Records a write of `data` at `offset`, merging with any overlapping
    /// or adjacent extents.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut start = offset;
        let mut bytes = self.grab();
        bytes.extend_from_slice(data);

        // Index of the first extent starting after `offset`.
        let idx = self.extents.partition_point(|(s, _)| *s <= offset);
        let mut insert_at = idx;

        // Absorb the predecessor if it overlaps or touches us.
        if idx > 0 {
            let (pstart, plen) = {
                let p = &self.extents[idx - 1];
                (p.0, p.1.len() as u64)
            };
            if pstart + plen >= start {
                let (pstart, pdata) = self.extents.remove(idx - 1);
                let mut merged = pdata;
                let overlap_from = (start - pstart) as usize;
                if merged.len() < overlap_from + bytes.len() {
                    merged.resize(overlap_from + bytes.len(), 0);
                }
                merged[overlap_from..overlap_from + bytes.len()].copy_from_slice(&bytes);
                start = pstart;
                self.recycle(bytes);
                bytes = merged;
                insert_at = idx - 1;
            }
        }

        // Absorb successors swallowed by or touching the new extent. Only
        // the last absorbed follower can stretch past `end`, so comparing
        // against the pre-absorption `end` matches the merge semantics.
        let end = start + bytes.len() as u64;
        while insert_at < self.extents.len() && self.extents[insert_at].0 <= end {
            let (fstart, fdata) = self.extents.remove(insert_at);
            let fend = fstart + fdata.len() as u64;
            if fend > end {
                // Keep the follower's suffix beyond our write.
                let keep_from = (end - fstart) as usize;
                bytes.extend_from_slice(&fdata[keep_from..]);
            }
            self.recycle(fdata);
        }

        self.extents.insert(insert_at, (start, bytes));
    }

    /// Copies overlay bytes intersecting `[offset, offset + buf.len())` onto
    /// `buf`, which the caller has pre-filled with durable content.
    pub fn apply_to(&self, offset: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let end = offset + buf.len() as u64;
        // The predecessor extent may stretch into our window.
        let from = self
            .extents
            .partition_point(|(s, _)| *s <= offset)
            .saturating_sub(1);
        for (estart, edata) in &self.extents[from..] {
            let estart = *estart;
            if estart >= end {
                break;
            }
            let eend = estart + edata.len() as u64;
            if eend <= offset {
                continue;
            }
            let copy_start = estart.max(offset);
            let copy_end = eend.min(end);
            let src = &edata[(copy_start - estart) as usize..(copy_end - estart) as usize];
            buf[(copy_start - offset) as usize..(copy_end - offset) as usize].copy_from_slice(src);
        }
    }

    /// Removes the dirty bytes inside `[offset, offset+len)`, splitting
    /// extents that straddle the boundary, and hands each taken
    /// `(offset, bytes)` run to `f`. The visitor form is the flush
    /// fastpath: extent buffers go back to the free-list instead of being
    /// moved out, so a write/flush cycle allocates nothing once warm.
    pub fn take_range_with(&mut self, offset: u64, len: u64, mut f: impl FnMut(u64, &[u8])) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        // The predecessor extent may stretch into the flush window.
        let mut i = self
            .extents
            .partition_point(|(s, _)| *s <= offset)
            .saturating_sub(1);
        while i < self.extents.len() {
            let (estart, elen) = {
                let e = &self.extents[i];
                (e.0, e.1.len() as u64)
            };
            if estart >= end {
                break;
            }
            if estart + elen <= offset {
                i += 1;
                continue;
            }
            let (estart, edata) = self.extents.remove(i);
            let eend = estart + edata.len() as u64;
            // Prefix outside the flush window stays dirty.
            if estart < offset {
                let mut keep = self.grab();
                keep.extend_from_slice(&edata[..(offset - estart) as usize]);
                self.extents.insert(i, (estart, keep));
                i += 1;
            }
            // Suffix outside the flush window stays dirty.
            if eend > end {
                let mut keep = self.grab();
                keep.extend_from_slice(&edata[(end - estart) as usize..]);
                self.extents.insert(i, (end, keep));
                i += 1;
            }
            let tstart = estart.max(offset);
            let tend = eend.min(end);
            f(
                tstart,
                &edata[(tstart - estart) as usize..(tend - estart) as usize],
            );
            self.recycle(edata);
        }
    }

    /// Removes and returns the dirty bytes inside `[offset, offset+len)` as
    /// owned pairs (see [`DirtyOverlay::take_range_with`] for the
    /// allocation-free form).
    pub fn take_range(&mut self, offset: u64, len: u64) -> Vec<(u64, Vec<u8>)> {
        let mut taken = Vec::new();
        self.take_range_with(offset, len, |o, bytes| taken.push((o, bytes.to_vec())));
        taken
    }

    /// Removes every dirty extent, handing each to `f` and recycling its
    /// storage.
    pub fn take_all_with(&mut self, mut f: impl FnMut(u64, &[u8])) {
        while !self.extents.is_empty() {
            let (o, bytes) = self.extents.remove(0);
            f(o, &bytes);
            self.recycle(bytes);
        }
    }

    /// Removes and returns every dirty extent.
    pub fn take_all(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut all = Vec::new();
        self.take_all_with(|o, bytes| all.push((o, bytes.to_vec())));
        all
    }

    /// Discards all dirty bytes (a power failure).
    pub fn clear(&mut self) {
        self.extents.clear();
    }

    /// True if no byte in `[offset, offset+len)` is dirty.
    pub fn is_clean_range(&self, offset: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = offset + len;
        let from = self
            .extents
            .partition_point(|(s, _)| *s <= offset)
            .saturating_sub(1);
        !self.extents[from..]
            .iter()
            .any(|(s, d)| *s < end && *s + d.len() as u64 > offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(ov: &DirtyOverlay, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        ov.apply_to(offset, &mut buf);
        buf
    }

    #[test]
    fn disjoint_writes_stay_separate() {
        let mut ov = DirtyOverlay::new();
        ov.write(0, &[1, 1]);
        ov.write(10, &[2, 2]);
        assert_eq!(ov.extent_count(), 2);
        assert_eq!(ov.dirty_bytes(), 4);
    }

    #[test]
    fn adjacent_writes_merge() {
        let mut ov = DirtyOverlay::new();
        ov.write(0, &[1, 1]);
        ov.write(2, &[2, 2]);
        assert_eq!(ov.extent_count(), 1);
        assert_eq!(read(&ov, 0, 4), vec![1, 1, 2, 2]);
    }

    #[test]
    fn overlapping_write_wins() {
        let mut ov = DirtyOverlay::new();
        ov.write(0, &[1, 1, 1, 1]);
        ov.write(1, &[9, 9]);
        assert_eq!(ov.extent_count(), 1);
        assert_eq!(read(&ov, 0, 4), vec![1, 9, 9, 1]);
    }

    #[test]
    fn write_swallowing_followers() {
        let mut ov = DirtyOverlay::new();
        ov.write(2, &[1]);
        ov.write(4, &[2]);
        ov.write(8, &[3, 3]);
        ov.write(0, &[7; 9]); // covers extents at 2 and 4, touches 8
        assert_eq!(ov.extent_count(), 1);
        assert_eq!(read(&ov, 0, 10), vec![7, 7, 7, 7, 7, 7, 7, 7, 7, 3]);
    }

    #[test]
    fn apply_respects_window() {
        let mut ov = DirtyOverlay::new();
        ov.write(5, &[1, 2, 3, 4]);
        // Window [6, 8) sees only the middle two bytes.
        assert_eq!(read(&ov, 6, 2), vec![2, 3]);
    }

    #[test]
    fn take_range_splits_straddlers() {
        let mut ov = DirtyOverlay::new();
        ov.write(0, &[1, 2, 3, 4, 5, 6]);
        let taken = ov.take_range(2, 2);
        assert_eq!(taken, vec![(2, vec![3, 4])]);
        assert_eq!(ov.extent_count(), 2);
        assert_eq!(read(&ov, 0, 6), vec![1, 2, 0, 0, 5, 6]);
        assert!(ov.is_clean_range(2, 2));
        assert!(!ov.is_clean_range(0, 2));
    }

    #[test]
    fn take_all_empties() {
        let mut ov = DirtyOverlay::new();
        ov.write(3, &[1]);
        ov.write(30, &[2]);
        let all = ov.take_all();
        assert_eq!(all.len(), 2);
        assert!(ov.is_empty());
    }

    #[test]
    fn clear_discards() {
        let mut ov = DirtyOverlay::new();
        ov.write(0, &[1; 16]);
        ov.clear();
        assert!(ov.is_empty());
        assert_eq!(read(&ov, 0, 16), vec![0; 16]);
    }

    #[test]
    fn clean_range_checks() {
        let mut ov = DirtyOverlay::new();
        assert!(ov.is_clean_range(0, 100));
        ov.write(10, &[1, 2]);
        assert!(ov.is_clean_range(0, 10));
        assert!(!ov.is_clean_range(0, 11));
        assert!(!ov.is_clean_range(11, 5));
        assert!(ov.is_clean_range(12, 5));
        assert!(ov.is_clean_range(5, 0), "empty range is always clean");
    }

    #[test]
    fn zero_length_write_is_noop() {
        let mut ov = DirtyOverlay::new();
        ov.write(5, &[]);
        assert!(ov.is_empty());
    }
}

#[cfg(test)]
mod randomized {
    use super::*;

    /// Minimal deterministic PRNG (splitmix64): this crate has no
    /// dependencies, so the tests carry their own generator.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo)
        }
        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// A naive shadow model: a map from byte offset to value.
    #[derive(Default)]
    struct Shadow {
        bytes: std::collections::HashMap<u64, u8>,
    }

    impl Shadow {
        fn write(&mut self, offset: u64, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                self.bytes.insert(offset + i as u64, b);
            }
        }
        fn read(&self, offset: u64, len: usize) -> Vec<u8> {
            (0..len)
                .map(|i| *self.bytes.get(&(offset + i as u64)).unwrap_or(&0))
                .collect()
        }
        fn remove_range(&mut self, offset: u64, len: u64) {
            for o in offset..offset + len {
                self.bytes.remove(&o);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write(u64, Vec<u8>),
        Flush(u64, u64),
    }

    fn gen_ops(seed: u64) -> Vec<Op> {
        let mut rng = TestRng(seed);
        let n = 1 + (rng.next() as usize % 59);
        (0..n)
            .map(|_| {
                if rng.next().is_multiple_of(2) {
                    let len = rng.range(1, 32) as usize;
                    Op::Write(rng.range(0, 256), rng.bytes(len))
                } else {
                    Op::Flush(rng.range(0, 256), rng.range(1, 64))
                }
            })
            .collect()
    }

    #[test]
    fn overlay_matches_shadow_model() {
        for case in 0..64u64 {
            let mut ov = DirtyOverlay::new();
            let mut shadow = Shadow::default();
            for op in &gen_ops(0x0E71A + case) {
                match op {
                    Op::Write(o, d) => {
                        ov.write(*o, d);
                        shadow.write(*o, d);
                    }
                    Op::Flush(o, l) => {
                        let taken = ov.take_range(*o, *l);
                        // Flushed bytes must equal the shadow's bytes there.
                        for (toff, tdata) in &taken {
                            assert_eq!(&shadow.read(*toff, tdata.len()), tdata);
                        }
                        shadow.remove_range(*o, *l);
                    }
                }
                // Read-back equivalence over the whole touched space.
                let mut buf = vec![0; 320];
                ov.apply_to(0, &mut buf);
                assert_eq!(buf, shadow.read(0, 320));
                assert_eq!(ov.dirty_bytes() as usize, shadow.bytes.len());
            }
        }
    }

    /// `NvmDevice::write_durable` stores straight to the durable medium;
    /// it must be observably identical to `write` + `flush_range` over the
    /// same range, replayed on a clone of the device. Durable stores are
    /// aimed at the pending volatile extents — overlapping, touching and
    /// straddling them — as well as at random offsets.
    #[test]
    fn write_durable_matches_write_then_flush() {
        use crate::NvmDevice;
        const SPACE: u64 = 160;
        for case in 0..64u64 {
            let mut rng = TestRng(0xD0AB1E + case);
            let mut direct = NvmDevice::new(SPACE + 64);
            let mut reference = direct.clone();
            for _ in 0..80 {
                match rng.range(0, 4) {
                    0 => {
                        let len = rng.range(1, 24) as usize;
                        let (o, d) = (rng.range(0, SPACE), rng.bytes(len));
                        direct.write(o, &d).unwrap();
                        reference.write(o, &d).unwrap();
                    }
                    1 => {
                        let (o, l) = (rng.range(0, SPACE), rng.range(0, 40));
                        direct.flush_range(o, l).unwrap();
                        reference.flush_range(o, l).unwrap();
                    }
                    _ => {
                        // Dirty runs, found through the public API.
                        let dirty: Vec<u64> = (0..SPACE)
                            .filter(|&o| !direct.is_durable(o, 1).unwrap())
                            .collect();
                        let len = rng.range(0, 24);
                        let o = match dirty.get(rng.range(0, dirty.len() as u64 + 1) as usize) {
                            // Start at, end at, or straddle a dirty byte.
                            Some(&b) => match rng.range(0, 4) {
                                0 => b,
                                1 => (b + 1).saturating_sub(len),
                                2 => b + 1,
                                _ => b.saturating_sub(len / 2),
                            },
                            None => rng.range(0, SPACE),
                        };
                        let d = rng.bytes(len as usize);
                        direct.write_durable(o, &d).unwrap();
                        reference.write(o, &d).unwrap();
                        reference.flush_range(o, len).unwrap();
                    }
                }
                let all = direct.capacity();
                assert_eq!(
                    direct.read_durable_vec(0, all).unwrap(),
                    reference.read_durable_vec(0, all).unwrap(),
                    "durable bytes differ (case {case})"
                );
                assert_eq!(direct.volatile_bytes(), reference.volatile_bytes());
                assert_eq!(
                    direct.read_vec(0, all).unwrap(),
                    reference.read_vec(0, all).unwrap(),
                    "coherent bytes differ (case {case})"
                );
                assert_eq!(direct.stats(), reference.stats());
            }
            // Both lose the same bytes in a power failure.
            direct.power_failure();
            reference.power_failure();
            let all = direct.capacity();
            assert_eq!(
                direct.read_vec(0, all).unwrap(),
                reference.read_vec(0, all).unwrap()
            );
        }
    }

    #[test]
    fn extents_stay_disjoint_and_nonempty() {
        for case in 0..64u64 {
            let mut ov = DirtyOverlay::new();
            for op in &gen_ops(0xD15C0 + case) {
                match op {
                    Op::Write(o, d) => ov.write(*o, d),
                    Op::Flush(o, l) => {
                        ov.take_range(*o, *l);
                    }
                }
                let mut last_end: Option<u64> = None;
                for (s, d) in &ov.extents {
                    assert!(!d.is_empty(), "empty extent at {}", s);
                    if let Some(le) = last_end {
                        // Strictly disjoint AND non-adjacent after writes
                        // (flush splits may leave adjacency; allow touching).
                        assert!(*s >= le, "overlapping extents");
                    }
                    last_end = Some(s + d.len() as u64);
                }
            }
        }
    }
}
