//! The NIC's record of what it has written into host memory since the
//! last gFLUSH.
//!
//! A PCIe read (the responder side of gFLUSH) must write back every range
//! the NIC posted before it. Only the union of those ranges matters for
//! that, but the trace and the metrics report the writes themselves: the
//! `GFlush` event carries their count and byte sum, and the
//! `nic_dirty_bytes` gauge the byte sum pending. So the record is the
//! union as merged spans plus those two counters. A node that is never
//! read (a HyperLoop client taking acks into a ring of slots) then holds
//! one span per slot run instead of one entry per write ever made.

use nvmsim::NvmDevice;
use simcore::spanset::SpanSet;

/// Ranges written through the NIC since the last flush.
#[derive(Debug, Default)]
pub(crate) struct NicDirty {
    spans: SpanSet,
    ranges: u64,
    bytes: u64,
}

impl NicDirty {
    /// Records one NIC write of `len > 0` bytes at `addr`.
    pub(crate) fn record(&mut self, addr: u64, len: u64) {
        self.spans.insert(addr, addr + len);
        self.ranges += 1;
        self.bytes += len;
    }

    /// Bytes written since the last flush, overlapping writes counted
    /// once per write.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Writes back everything recorded, as one flush per recorded write,
    /// and returns the `(bytes, ranges)` of those writes; `None` when
    /// nothing was written since the last flush.
    pub(crate) fn flush(&mut self, mem: &mut NvmDevice) -> Option<(u64, u64)> {
        if self.ranges == 0 {
            return None;
        }
        mem.flush_spans(&self.spans, self.ranges)
            .expect("dirty range in bounds");
        let flushed = (self.bytes, self.ranges);
        self.spans.clear();
        self.ranges = 0;
        self.bytes = 0;
        Some(flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    const CAP: u64 = 2048;

    /// The per-write list the span set replaces: every range kept, each
    /// flushed on its own.
    #[derive(Default)]
    struct RefDirty(Vec<(u64, u64)>);

    impl RefDirty {
        fn bytes(&self) -> u64 {
            self.0.iter().map(|&(_, l)| l).sum()
        }

        fn flush(&mut self, mem: &mut NvmDevice) -> Option<(u64, u64)> {
            if self.0.is_empty() {
                return None;
            }
            let flushed = (self.bytes(), self.0.len() as u64);
            for (o, l) in self.0.drain(..) {
                mem.flush_range(o, l).unwrap();
            }
            Some(flushed)
        }
    }

    /// Random NIC writes and READs through both records: every observable
    /// (NVM stats, the pending-bytes gauge, the GFlush fields, durable
    /// bytes) must agree at every step.
    #[test]
    fn span_record_matches_the_per_write_list() {
        for seed in 0..40 {
            let mut rng = SimRng::new(seed);
            let (mut mem, mut ref_mem) = (NvmDevice::new(CAP), NvmDevice::new(CAP));
            let (mut dirty, mut reference) = (NicDirty::default(), RefDirty::default());
            for step in 0..400 {
                if rng.gen_range(0..8) == 0 {
                    let got = dirty.flush(&mut mem);
                    assert_eq!(
                        got,
                        reference.flush(&mut ref_mem),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(
                        mem.read_durable_vec(0, CAP).unwrap(),
                        ref_mem.read_durable_vec(0, CAP).unwrap(),
                        "seed {seed} step {step}"
                    );
                } else {
                    let len = rng.gen_range(1..96);
                    let addr = rng.gen_range(0..CAP - len);
                    let byte = rng.gen_range(0..256) as u8;
                    let data = vec![byte; len as usize];
                    mem.write(addr, &data).unwrap();
                    ref_mem.write(addr, &data).unwrap();
                    dirty.record(addr, len);
                    reference.0.push((addr, len));
                }
                assert_eq!(mem.stats(), ref_mem.stats(), "seed {seed} step {step}");
                assert_eq!(dirty.bytes(), reference.bytes(), "seed {seed} step {step}");
            }
        }
    }

    /// A node that is written but never read (a client taking acks into a
    /// ring of slots) keeps at most one span per slot, however many writes
    /// land, and still flushes exactly like the per-write list.
    #[test]
    fn ring_of_slots_keeps_a_bounded_span_count() {
        const SLOTS: u64 = 16;
        const SLOT: u64 = 64;
        let mut rng = SimRng::new(3);
        let (mut mem, mut ref_mem) = (NvmDevice::new(CAP), NvmDevice::new(CAP));
        let (mut dirty, mut reference) = (NicDirty::default(), RefDirty::default());
        for i in 0..50_000u64 {
            let addr = (i % SLOTS) * SLOT;
            let len = rng.gen_range(1..SLOT / 2);
            let data = vec![i as u8; len as usize];
            mem.write(addr, &data).unwrap();
            ref_mem.write(addr, &data).unwrap();
            dirty.record(addr, len);
            reference.0.push((addr, len));
            assert!(dirty.spans.len() as u64 <= SLOTS);
        }
        assert_eq!(dirty.bytes(), reference.bytes());
        assert_eq!(dirty.flush(&mut mem), reference.flush(&mut ref_mem));
        assert_eq!(mem.stats(), ref_mem.stats());
        assert_eq!(
            mem.read_durable_vec(0, CAP).unwrap(),
            ref_mem.read_durable_vec(0, CAP).unwrap()
        );
    }
}
