//! The future event list: a sorted near-window run over a coarse timer
//! wheel, ordered by virtual time.
//!
//! Ties are broken by insertion order so that runs are fully deterministic:
//! two events scheduled for the same instant fire in the order they were
//! pushed.
//!
//! Each event is put in order once. Virtual time is cut into windows of
//! `2^WINDOW_BITS` ns (4.1 µs). The pending events of the open window —
//! the overwhelming majority in a NIC/network simulation, where hops are
//! nanoseconds to microseconds ahead — sit as small `(at, seq, slot)` keys
//! in a `Vec` sorted in descending order, so pop is `Vec::pop` and push is
//! an insert at the `partition_point`. Later events go to a hierarchical
//! timer wheel keyed by window (`WHEEL_LEVELS` levels of `WHEEL_SLOTS`
//! slots, with per-level occupancy bitmaps) or, past its ~73-minute
//! horizon, to an overflow list; a window's keys are sorted into the run
//! only when the window opens. Event bodies wait in a slab with a free
//! list, so each body moves once in and once out. The pop order is
//! *exactly* the `(time, seq)` total order the original `BinaryHeap`
//! produced (pinned by the property tests below against a retained heap
//! reference implementation), so every same-seed timeline stays
//! byte-identical across the swap.
//!
//! ```
//! use simcore::queue::EventQueue;
//! use simcore::time::{SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_micros(2), "second");
//! q.push(SimTime::from_micros(1), "first");
//! q.push_after(SimDuration::from_micros(2), "tied-with-second");
//! assert_eq!(q.pop().unwrap().1, "first");
//! assert_eq!(q.pop().unwrap().1, "second");
//! assert_eq!(q.pop().unwrap().1, "tied-with-second");
//! assert!(q.pop().is_none());
//! ```

use crate::time::{SimDuration, SimTime};
#[cfg(test)]
use std::cmp::Ordering;

/// Cumulative event-flow counters of an [`EventQueue`]: the denominator of
/// `host.events_per_sec` and direct sizing evidence for the calendar-queue
/// layout (see ROADMAP "raw speed"). The counters are plain deterministic
/// integers — same-seed runs produce identical values — but they are
/// exported under `host.queue.*` alongside the volatile wall-clock
/// measurements, so canonicalized byte-identity comparisons skip them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled (push/push_after/push_now).
    pub pushed: u64,
    /// Events ever dispatched.
    pub popped: u64,
    /// High-water mark of pending events.
    pub max_depth: usize,
}

/// Bits of virtual time per window (4,096 ns). 10 bits measured slower on
/// simbench's workloads; see DESIGN.md "Fastpath" for the 14-bit check.
const WINDOW_BITS: u32 = 12;
/// Bits of window index consumed per wheel level (64 slots each).
const WHEEL_BITS: u32 = 6;
/// Slots per wheel level.
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Number of wheel levels; events whose window differs from the open one
/// above bit `BITS*LEVELS` (more than ~2^42 ns, ~73 simulated minutes,
/// ahead) go to the overflow list.
const WHEEL_LEVELS: usize = 5;

const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;

#[inline]
fn window(at: SimTime) -> u64 {
    at.as_nanos() >> WINDOW_BITS
}

/// The ordering key of a pending event; the body waits in the slab at
/// `slot`.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

#[cfg(test)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

#[cfg(test)]
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
#[cfg(test)]
impl<E> Eq for Entry<E> {}
#[cfg(test)]
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(test)]
impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest (time, seq) out
    // first. Retained for the heap reference implementation the property
    // tests compare the queue against.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future event list.
///
/// Tracks the current virtual time: popping an event advances the clock to
/// that event's timestamp. Scheduling into the past is a logic error and
/// panics, which catches causality bugs early.
///
/// # Determinism contract
///
/// Pops come out in ascending `(time, seq)` order where `seq` is the
/// per-queue insertion counter — the exact order the seed-era `BinaryHeap`
/// produced. Internally the wheel may visit a window's keys out of seq
/// order while cascading a higher-level slot down, so a window's keys are
/// sorted by `(time, seq)` when it opens; nothing about window or wheel
/// geometry is observable from the outside.
pub struct EventQueue<E> {
    /// Keys of the pending events in window `cur`, sorted descending by
    /// `(at, seq)`: the next event to fire is the last.
    near: Vec<Key>,
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets of keys, flattened level-major.
    /// Level `l` buckets keys whose window differs from `cur` first in
    /// bits `[l*BITS, (l+1)*BITS)`.
    levels: Box<[Vec<Key>]>,
    /// Per-level occupancy bitmap: bit `s` set iff `levels[l*SLOTS + s]`
    /// is non-empty.
    occ: [u64; WHEEL_LEVELS],
    /// Keys beyond the wheel horizon (calendar-queue overflow), re-bucketed
    /// when the wheel drains.
    overflow: Vec<Key>,
    /// Reusable drain buffer so steady-state cascades allocate nothing.
    scratch: Vec<Key>,
    /// Event bodies, indexed by `Key::slot`; `free` lists the vacant slots.
    bodies: Vec<Option<E>>,
    free: Vec<u32>,
    /// The open window. Invariant: `now` lies in it, `near` holds exactly
    /// the pending keys in it and every other pending key is later.
    cur: u64,
    seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        // Slot buffers are conserved (drains swap them with `scratch`, never
        // drop them), so seeding each with a little capacity means a
        // steady-state run performs no fresh slot allocations at all —
        // first-push allocs would otherwise trickle in for as long as cold
        // slots keep being hit.
        let mut levels = Vec::with_capacity(WHEEL_LEVELS * WHEEL_SLOTS);
        levels.resize_with(WHEEL_LEVELS * WHEEL_SLOTS, || Vec::with_capacity(4));
        EventQueue {
            near: Vec::new(),
            levels: levels.into_boxed_slice(),
            occ: [0; WHEEL_LEVELS],
            overflow: Vec::new(),
            scratch: Vec::new(),
            bodies: Vec::new(),
            free: Vec::new(),
            cur: 0,
            seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Cumulative push/pop/depth counters (not reset by [`clear`](Self::clear)).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bodies.len() - self.free.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Files a key into the open window's run (unsorted: the caller sorts)
    /// or the wheel slot or overflow list of its later window. Requires
    /// the key's window `>= cur`.
    #[inline]
    fn place(&mut self, key: Key) {
        let w = window(key.at);
        debug_assert!(w >= self.cur);
        if w == self.cur {
            self.near.push(key);
            return;
        }
        // The level covering the highest bit in which `w` differs.
        let level = ((63 - (w ^ self.cur).leading_zeros()) / WHEEL_BITS) as usize;
        if level >= WHEEL_LEVELS {
            self.overflow.push(key);
            return;
        }
        let slot = ((w >> (WHEEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level * WHEEL_SLOTS + slot].push(key);
        self.occ[level] |= 1 << slot;
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current virtual time.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let _t = crate::hostprof::scope("simcore.queue.push");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.bodies[slot as usize] = Some(event);
                slot
            }
            None => {
                self.bodies.push(Some(event));
                (self.bodies.len() - 1) as u32
            }
        };
        let key = Key { at, seq, slot };
        if window(at) == self.cur {
            // `seq` is the largest pending, so the key sorts after every
            // later event and before every earlier or same-instant one.
            let i = self.near.partition_point(|k| k.at > at);
            self.near.insert(i, key);
        } else {
            self.place(key);
        }
        self.stats.pushed += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.len());
    }

    /// Schedules `event` to fire `delay` after the current virtual time.
    pub fn push_after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Schedules `event` to fire immediately (at the current virtual time,
    /// after all already-queued events for this instant).
    pub fn push_now(&mut self, event: E) {
        self.push(self.now, event);
    }

    /// Opens the earliest occupied later window: advances `cur` to it,
    /// cascading higher-level slots down and re-bucketing overflow as
    /// needed, and sorts its keys into `near`. Leaves `near` empty only if
    /// the queue is empty.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.scratch.is_empty());
        while self.near.is_empty() {
            if let Some(level) = self.occ.iter().position(|&b| b != 0) {
                // Within a level, slot index order is window order (all
                // bucketed keys share the bits above the level with `cur`),
                // so the lowest occupied slot of the lowest occupied level
                // holds the earliest pending window. Advance `cur` to the
                // slot's base window; a level-0 slot is exactly one window.
                let slot = self.occ[level].trailing_zeros() as usize;
                self.occ[level] &= !(1 << slot);
                let width = WHEEL_BITS * level as u32;
                self.cur =
                    (self.cur & !((1u64 << (width + WHEEL_BITS)) - 1)) | ((slot as u64) << width);
                std::mem::swap(
                    &mut self.levels[level * WHEEL_SLOTS + slot],
                    &mut self.scratch,
                );
            } else if let Some(w) = self.overflow.iter().map(|k| window(k.at)).min() {
                // Re-anchor the wheel at the earliest overflow window.
                self.cur = w;
                std::mem::swap(&mut self.overflow, &mut self.scratch);
            } else {
                return;
            }
            while let Some(key) = self.scratch.pop() {
                self.place(key);
            }
        }
        self.near
            .sort_unstable_by_key(|k| std::cmp::Reverse((k.at, k.seq)));
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let _t = crate::hostprof::scope("simcore.queue.pop");
        if self.near.is_empty() {
            self.refill();
        }
        let key = self.near.pop()?;
        debug_assert!(key.at >= self.now);
        self.now = key.at;
        self.stats.popped += 1;
        let event = self.bodies[key.slot as usize]
            .take()
            .expect("queued key without a body");
        self.free.push(key.slot);
        Some((key.at, event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(key) = self.near.last() {
            return Some(key.at);
        }
        // A wheel slot or the overflow list buckets a span of timestamps:
        // the earliest pending instant is the minimum of the first one.
        let keys = match self.occ.iter().position(|&b| b != 0) {
            Some(level) => {
                &self.levels[level * WHEEL_SLOTS + self.occ[level].trailing_zeros() as usize]
            }
            None => &self.overflow,
        };
        keys.iter().map(|k| k.at).min()
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.near.clear();
        for slot in self.levels.iter_mut() {
            slot.clear();
        }
        self.occ = [0; WHEEL_LEVELS];
        self.overflow.clear();
        self.bodies.clear();
        self.free.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// The seed-era `BinaryHeap` future event list, retained as the ordering
/// oracle for the timer wheel's property tests: both structures must
/// produce the identical `(time, seq)` pop order and [`QueueStats`] on any
/// workload.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BinaryHeap;

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
        stats: QueueStats,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                stats: QueueStats::default(),
            }
        }

        pub fn stats(&self) -> QueueStats {
            self.stats
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn push(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now, "scheduling into the past");
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
            self.stats.pushed += 1;
            if self.heap.len() > self.stats.max_depth {
                self.stats.max_depth = self.heap.len();
            }
        }

        pub fn push_after(&mut self, delay: SimDuration, event: E) {
            self.push(self.now + delay, event);
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            self.stats.popped += 1;
            Some((entry.at, entry.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn push_now_fires_at_current_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.pop();
        q.push_now("b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
        assert_eq!(e, "b");
    }

    #[test]
    fn push_now_behind_drained_batch_stays_fifo() {
        // Two events share an instant; after popping the first, a push_now
        // lands at the same instant and must fire after the second.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.push(t, "a");
        q.push(t, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push_now("c");
        assert_eq!(q.pop().unwrap(), (t, "b"));
        assert_eq!(q.pop().unwrap(), (t, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_count_pushes_pops_and_high_water() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        for i in 0..5u64 {
            q.push(SimTime::from_nanos(10 * i), i);
        }
        assert_eq!(q.stats().pushed, 5);
        assert_eq!(q.stats().max_depth, 5);
        q.pop();
        q.pop();
        q.push_after(SimDuration::from_nanos(1), 9);
        assert_eq!(q.stats().popped, 2);
        assert_eq!(q.stats().pushed, 6);
        // High-water mark does not shrink as the queue drains.
        assert_eq!(q.stats().max_depth, 5);
        // clear() drops pending events but keeps the cumulative counters.
        q.clear();
        assert_eq!(q.stats().pushed, 6);
        assert_eq!(q.stats().popped, 2);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push_after(SimDuration::from_nanos(1), ());
        q.push_after(SimDuration::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_survive_overflow() {
        // Beyond the wheel horizon (2^42 ns ≈ 73 min): lands in the
        // overflow list and must promote back in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10_000), "far");
        q.push(SimTime::from_secs(9_999), "near-far");
        q.push(SimTime::from_nanos(5), "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9_999)));
        assert_eq!(q.pop().unwrap().1, "near-far");
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(10_000), "far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_next_pop_across_levels() {
        let mut q = EventQueue::new();
        // One event per level distance, plus overflow.
        for shift in [0u64, 7, 13, 20, 27, 35, 41, 50] {
            q.push(SimTime::from_nanos(1 << shift), shift);
        }
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
        }
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_are_globally_time_ordered_and_fifo_within_instants() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0x51EE0 + case);
            let n = 1 + rng.gen_index(199);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_nanos(rng.gen_range(0..1000)), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut popped = 0;
            while let Some((t, id)) = q.pop() {
                popped += 1;
                if let Some((lt, lid)) = last {
                    assert!(t >= lt, "time went backwards");
                    if t == lt {
                        assert!(id > lid, "same-instant FIFO violated");
                    }
                }
                assert_eq!(q.now(), t);
                last = Some((t, id));
            }
            assert_eq!(popped, n);
        }
    }

    #[test]
    fn interleaved_push_pop_never_loses_events() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0xBADC0DE + case);
            let steps = 1 + rng.gen_index(299);
            let mut q = EventQueue::new();
            let (mut pushed, mut popped) = (0u64, 0u64);
            for _ in 0..steps {
                if rng.gen_bool(0.5) {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                } else {
                    q.push_after(SimDuration::from_nanos(rng.gen_range(0..500)), ());
                    pushed += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(pushed, popped);
        }
    }
}

/// Property tests pinning the wheel to the retained heap oracle: identical
/// pop order (including same-instant seq tie-breaks), identical clock
/// advancement, identical `QueueStats`, across pure-pop, interleaved, and
/// far-future overflow workloads.
#[cfg(test)]
mod wheel_vs_heap {
    use super::reference::HeapQueue;
    use super::*;
    use crate::rng::SimRng;

    /// Drives the wheel and the heap through an identical randomized
    /// push/pop schedule and asserts lock-step equivalence.
    fn lockstep(seed: u64, steps: usize, max_delay_ns: u64, tie_bias: bool) {
        lockstep_with(seed, steps, |rng, now| {
            let delay = if tie_bias && rng.gen_bool(0.5) {
                // Heavy same-instant load: many events collide on the
                // few buckets, exercising the seq tie-break.
                SimDuration::from_nanos(rng.gen_range(0..4) * 100)
            } else {
                SimDuration::from_nanos(rng.gen_range(0..max_delay_ns))
            };
            now + delay
        });
    }

    /// [`lockstep`] with the push timestamps drawn by `at` from the rng
    /// and the current virtual time.
    fn lockstep_with(seed: u64, steps: usize, mut at: impl FnMut(&mut SimRng, SimTime) -> SimTime) {
        let mut rng = SimRng::new(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut id = 0u64;
        for _ in 0..steps {
            if rng.gen_bool(0.45) {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "pop divergence (seed {seed:#x})");
                assert_eq!(wheel.now(), heap.now());
            } else {
                let t = at(&mut rng, wheel.now());
                wheel.push(t, id);
                heap.push(t, id);
                id += 1;
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.stats(), heap.stats());
        }
        // Drain both to the end.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain divergence (seed {seed:#x})");
            assert_eq!(wheel.stats(), heap.stats());
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_near_future() {
        for case in 0..48u64 {
            lockstep(0x77EE1 + case, 400, 2_000, false);
        }
    }

    #[test]
    fn wheel_matches_heap_with_same_instant_storms() {
        for case in 0..48u64 {
            lockstep(0x7E1E5 + case, 400, 800, true);
        }
    }

    #[test]
    fn wheel_matches_heap_across_level_boundaries() {
        // Delays spanning every wheel level (up to ~2^36 ns) so cascades
        // from deep levels happen constantly.
        for case in 0..24u64 {
            lockstep(0xCA5CADE + case, 250, 1u64 << 36, false);
        }
    }

    #[test]
    fn wheel_matches_heap_through_overflow_promotion() {
        // Delays beyond the 2^42 ns horizon force the calendar-queue
        // overflow path and its promotion back into the wheel.
        for case in 0..16u64 {
            let seed = 0x0F10 + case;
            let mut rng = SimRng::new(seed);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            for id in 0..120u64 {
                let delay = if rng.gen_bool(0.3) {
                    // Far side of the horizon (up to ~2^44 ns ≈ 4.9 h).
                    SimDuration::from_nanos((1u64 << 42) + rng.gen_range(0..(1u64 << 44)))
                } else {
                    SimDuration::from_nanos(rng.gen_range(0..1_000_000))
                };
                wheel.push_after(delay, id);
                heap.push_after(delay, id);
                if rng.gen_bool(0.4) {
                    assert_eq!(wheel.pop(), heap.pop());
                }
            }
            loop {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "overflow divergence (seed {seed:#x})");
                assert_eq!(wheel.stats(), heap.stats());
                if w.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn wheel_matches_heap_same_instant_pop_then_push() {
        // Pin the subtle case: pop one of several same-instant events,
        // push more at that exact instant, and require global FIFO.
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let t = SimTime::from_nanos(777);
        for i in 0..5 {
            wheel.push(t, i);
            heap.push(t, i);
        }
        assert_eq!(wheel.pop(), heap.pop());
        for i in 5..8 {
            wheel.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..7 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(heap.pop(), None);
    }

    const WINDOW_NS: u64 = 1 << WINDOW_BITS;

    #[test]
    fn wheel_matches_heap_straddling_window_boundaries() {
        // Timestamps a few ns either side of the boundary `k` windows
        // ahead, for `k` at the run/wheel seam (0, 1, 2) and the wheel's
        // level-0/level-1 seam (63, 64, 65).
        for case in 0..48u64 {
            lockstep_with(0x57AD0 + case, 600, |rng, now| {
                let k = [0, 1, 2, 63, 64, 65][rng.gen_index(6)];
                let edge = (now.as_nanos() / WINDOW_NS + k) * WINDOW_NS;
                let t = (edge + rng.gen_range(0..16)).saturating_sub(8);
                SimTime::from_nanos(t.max(now.as_nanos()))
            });
        }
    }

    #[test]
    fn wheel_matches_heap_with_sub_us_traffic_and_ms_timers() {
        // naive_colocated's shape: sub-µs hops interleaved with tenant
        // timers 1–3 ms out on a 1 ms grid. Timers due on one instant are
        // pushed from different distances, so they cascade down the wheel
        // by different paths before the run takes them.
        for case in 0..24u64 {
            lockstep_with(0x4A1E0 + case, 2_000, |rng, now| {
                if rng.gen_bool(0.2) {
                    let ms = now.as_nanos() / 1_000_000 + 1 + rng.gen_range(0..3);
                    SimTime::from_nanos(ms * 1_000_000)
                } else {
                    now + SimDuration::from_nanos(rng.gen_range(0..1_000))
                }
            });
        }
    }

    #[test]
    fn wheel_matches_heap_push_now_after_window_refill() {
        // Same-instant clusters a few windows apart; whenever a pop opens
        // a new window, `push_now` must join the fresh run behind that
        // instant's other events.
        for case in 0..32u64 {
            let seed = 0x9E0F1 + case;
            let mut rng = SimRng::new(seed);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut id = 0u64;
            for _ in 0..64 {
                let t = SimTime::from_nanos(rng.gen_range(1..16) * WINDOW_NS + rng.gen_range(0..4));
                wheel.push(t, id);
                heap.push(t, id);
                id += 1;
            }
            let mut refills = 0;
            loop {
                let before = wheel.now().as_nanos() / WINDOW_NS;
                let w = wheel.pop();
                assert_eq!(w, heap.pop(), "pop divergence (seed {seed:#x})");
                if w.is_none() {
                    break;
                }
                if wheel.now().as_nanos() / WINDOW_NS != before {
                    refills += 1;
                    for _ in 0..1 + rng.gen_index(3) {
                        wheel.push_now(id);
                        heap.push(heap.now(), id);
                        id += 1;
                    }
                }
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.peek_time(), heap.peek_time());
                assert_eq!(wheel.stats(), heap.stats());
            }
            assert!(refills > 1, "no window was opened (seed {seed:#x})");
        }
    }
}
