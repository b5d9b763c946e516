//! A deterministic discrete-event queue.
//!
//! Both switch models are event-driven simulations: packets move between
//! resources (ports, pipelines, traffic managers) at computed times. The
//! queue orders events by `(time, issued, sequence)`: simultaneous events
//! fire in the order they were issued, and `issued` — the simulated time
//! at which an event was scheduled — is `now` for every ordinary
//! [`EventQueue::push`]. Since `now` never decreases, ordinary pushes fire
//! in plain insertion order; the `issued` key only matters for
//! [`EventQueue::push_issued`], which a fabric uses to schedule a frame
//! that a peer device sent at an earlier simulated time than this queue has
//! reached. Combined with [`crate::rng::SimRng`], this makes whole runs
//! reproducible bit-for-bit.
//!
//! # Calendar-queue scheduler
//!
//! The implementation is a calendar queue (Brown 1988) tuned for the event
//! mass a switch simulation produces: almost everything is scheduled within
//! a few pipeline periods or one packet serialization time of `now`, with a
//! thin tail of far-future timers (merge-order patience, control-plane
//! ticks). Three tiers:
//!
//! * **Ring buckets** — the near horizon is divided into `DAYS` "days" of
//!   `1 << DAY_SHIFT` picoseconds each; the day of a timestamp is a shift,
//!   and each day maps to one ring slot, so a push into the window is an
//!   O(1) `Vec::push`. A two-level occupancy bitmap (one bit per slot plus
//!   a summary word with one bit per bitmap word) finds the next non-empty
//!   day in O(1) — two `trailing_zeros` — and an empty ring skips even
//!   that via a ring-resident event count.
//! * **Current-day drain** — entering a day moves its bucket (plus any
//!   overflow events that matured into it) into a reusable deque, sorted
//!   once, ascending, by `(time, issued, seq)`: a pop is `pop_front`.
//!   Ordinary pushes that land in the open day carry the largest key yet
//!   issued, so they are usually a plain `push_back` (an insert only when
//!   an event later in the day is already pending); past times clamp to
//!   `now` and `seq` grows monotonically, so FIFO order is preserved
//!   exactly.
//! * **Overflow heap** — events beyond the ring window go to a binary heap
//!   keyed the same way. They are merged into the drain when their day
//!   opens. Only far-future outliers pay the O(log n) heap cost.
//!
//! Unlike the original `BinaryHeap` + slab design, nothing here retains a
//! slot per popped event: drained buckets are empty `Vec`s that recycle
//! their capacity, so retained storage is bounded by the maximum number of
//! *simultaneously pending* events, not by the total ever scheduled (see
//! `million_event_run_keeps_storage_bounded`).

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the width of one calendar day, in picoseconds. 2^16 ps ≈ 65.5 ns
/// is about one MTU serialization time at 100 Gb/s, so a day typically
/// holds a batch of pipeline events worth sorting together.
const DAY_SHIFT: u32 = 16;
/// Number of ring days (power of two). Window = DAYS << DAY_SHIFT ≈ 268 µs,
/// wide enough that workload injection schedules laid out at line rate stay
/// in the ring instead of spilling to the overflow heap.
const DAYS: u64 = 4096;
const DAY_MASK: u64 = DAYS - 1;
const WORDS: usize = (DAYS / 64) as usize;
// The two-level occupancy bitmap keeps one summary bit per word, so the
// summary must itself fit one word.
const _: () = assert!(WORDS == 64);

#[inline]
fn day_of(t: SimTime) -> u64 {
    t.0 >> DAY_SHIFT
}

/// Firing order of one event: time first, then the simulated time it was
/// issued at, then insertion order. `seq` is unique, so the order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    t: SimTime,
    issued: SimTime,
    seq: u64,
}

/// A far-future event parked in the overflow heap. Ordered by [`Key`]
/// inverted, so the `BinaryHeap` max is the earliest event, without
/// requiring `E: Ord`.
#[derive(Debug)]
struct Far<E> {
    key: Key,
    ev: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of day buckets; slot `d & DAY_MASK` holds day `d`'s events,
    /// unsorted. A slot only ever holds events of a single absolute day:
    /// pushes beyond the window go to `overflow`, and a day's slot cannot
    /// be reused until the drain has moved past that day.
    ring: Vec<Vec<(Key, E)>>,
    /// Occupancy bitmap over ring slots.
    occ: [u64; WORDS],
    /// Summary bitmap: bit `w` set iff `occ[w] != 0`. Makes the next-day
    /// scan O(1) instead of a walk over all words.
    occ_sum: u64,
    /// Events currently stored in ring buckets (excludes `drain` and
    /// `overflow`); lets an empty ring skip the bitmap scan entirely.
    ring_len: usize,
    /// The day currently being drained.
    cur_day: u64,
    /// Events of `cur_day`, sorted ascending by [`Key`]; the next event to
    /// fire is `drain.front()`. A deque so that the common push into the
    /// open day — a fresh event with the largest key so far — is an O(1)
    /// `push_back` rather than a front-of-buffer memmove.
    drain: VecDeque<(Key, E)>,
    /// Events beyond the ring window, earliest on top.
    overflow: BinaryHeap<Far<E>>,
    /// Pending-event count across all tiers.
    len: usize,
    /// High-water mark of `len`; budgets how much bucket capacity the ring
    /// may retain.
    hwm: usize,
    /// Total capacity currently retained across ring buckets.
    ring_cap: usize,
    seq: u64,
    now: SimTime,
    /// Total events ever scheduled.
    pub scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..DAYS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            occ_sum: 0,
            ring_len: 0,
            cur_day: 0,
            drain: VecDeque::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            hwm: 0,
            ring_cap: 0,
            seq: 0,
            now: SimTime::ZERO,
            scheduled: 0,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at `t`. Scheduling in the past is clamped to `now`
    /// (a resource that frees up "already" fires immediately).
    pub fn push(&mut self, t: SimTime, ev: E) {
        self.push_issued(t, self.now, ev);
    }

    /// Schedule `ev` at `t` as if it had been pushed at simulated time
    /// `issued`: among events at `t` it fires after every event issued at
    /// or before `issued` (and pushed before this call) and before every
    /// event issued later. A fabric uses this to hand a device a frame a
    /// peer sent at `issued` after the device has already simulated past
    /// `issued` — the tie order is then the one the device would have seen
    /// had the frame been pushed at `issued`. `t` is clamped to `now`.
    pub fn push_issued(&mut self, t: SimTime, issued: SimTime, ev: E) {
        let key = Key {
            t: t.max(self.now),
            issued,
            seq: self.seq,
        };
        self.seq += 1;
        self.scheduled += 1;
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
        let d = day_of(key.t);
        if d == self.cur_day {
            // The open day. An ordinary push carries the largest key yet
            // issued, so unless an event *later in the day* is already
            // pending this is a plain append; otherwise insert at the
            // (ascending) sorted position.
            match self.drain.back() {
                Some((bk, _)) if *bk > key => {
                    let at = self.drain.partition_point(|(ek, _)| *ek < key);
                    self.drain.insert(at, (key, ev));
                }
                _ => self.drain.push_back((key, ev)),
            }
        } else if d.wrapping_sub(self.cur_day) < DAYS {
            let slot = (d & DAY_MASK) as usize;
            let before = self.ring[slot].capacity();
            self.ring[slot].push((key, ev));
            self.ring_cap += self.ring[slot].capacity() - before;
            self.ring_len += 1;
            self.occ[slot / 64] |= 1 << (slot % 64);
            self.occ_sum |= 1 << (slot / 64);
        } else {
            self.overflow.push(Far { key, ev });
        }
    }

    /// Absolute day of the next non-empty ring slot at or after `cur_day`,
    /// if any. O(1): a masked probe of the starting word, then the summary
    /// bitmap picks the next occupied word in one `trailing_zeros`.
    fn next_ring_day(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.cur_day & DAY_MASK) as usize;
        let w0 = start / 64;
        let head = self.occ[w0] & (!0u64 << (start % 64));
        let slot = if head != 0 {
            w0 * 64 + head.trailing_zeros() as usize
        } else {
            // Rotate the summary so bit k maps to word (w0 + 1 + k) % 64;
            // the search order then matches the ring's wrap-around order,
            // ending back at w0 itself (whose remaining bits are all below
            // `start`, i.e. logically a full window ahead).
            let rot = self.occ_sum.rotate_right((w0 as u32 + 1) % 64);
            debug_assert!(rot != 0, "ring_len > 0 but no occupied word");
            let w = (w0 + 1 + rot.trailing_zeros() as usize) % WORDS;
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        let off = (slot as u64).wrapping_sub(self.cur_day) & DAY_MASK;
        Some(self.cur_day + off)
    }

    /// Open the next day that has events, filling `drain`. Returns `false`
    /// when the queue is empty.
    fn refill(&mut self) -> bool {
        self.drain.clear();
        if self.len == 0 {
            return false;
        }
        let ring_day = self.next_ring_day();
        let over_day = self.overflow.peek().map(|f| day_of(f.key.t));
        let d = match (ring_day, over_day) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no events found"),
        };
        self.cur_day = d;
        let slot = (d & DAY_MASK) as usize;
        if self.occ[slot / 64] & (1 << (slot % 64)) != 0 {
            // Move the bucket's events out. The emptied bucket keeps its
            // capacity for reuse when the ring wraps around — unless the
            // ring's total retained capacity has outgrown the pending-event
            // high-water mark, in which case it is released. This is what
            // keeps long runs' retained storage proportional to peak
            // concurrency rather than to the slot count times per-slot
            // bursts (the old slab leaked a slot per event ever scheduled).
            let mut bucket = std::mem::take(&mut self.ring[slot]);
            self.ring_len -= bucket.len();
            self.drain.extend(bucket.drain(..));
            if self.ring_cap > 8 * self.hwm.max(64) {
                self.ring_cap -= bucket.capacity();
                bucket = Vec::new();
            }
            self.ring[slot] = bucket;
            self.occ[slot / 64] &= !(1 << (slot % 64));
            if self.occ[slot / 64] == 0 {
                self.occ_sum &= !(1 << (slot / 64));
            }
        }
        while let Some(top) = self.overflow.peek() {
            if day_of(top.key.t) != d {
                break;
            }
            let Far { key, ev } = self.overflow.pop().unwrap();
            self.drain.push_back((key, ev));
        }
        self.drain.make_contiguous().sort_unstable_by_key(|e| e.0);
        true
    }

    /// Pop the next event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.drain.is_empty() && !self.refill() {
            return None;
        }
        let (key, ev) = self.drain.pop_front().expect("refill produced events");
        self.now = key.t;
        self.len -= 1;
        Some((key.t, ev))
    }

    /// Pop every event sharing the next (minimal) timestamp into `batch`,
    /// advancing `now` to that time. The batch is cleared first; events
    /// appear in firing order. Handlers may push new events while the
    /// batch is being consumed — a push at the same timestamp is issued
    /// now, with a larger `seq`, so it lands after the current batch and is
    /// returned by the *next* call, which is exactly the order the
    /// one-at-a-time loop produces.
    ///
    /// Multi-queue use (fabrics): each switch owns a queue, and the fabric
    /// advances every queue through a lookahead window before it exchanges
    /// link events, pushing each cross-queue event with
    /// [`EventQueue::push_issued`] at the time its sender handled it. A
    /// cross-queue event is always scheduled past the window (positive link
    /// latency), and the `issued` key restores the tie order a per-timestamp
    /// exchange would have produced, so every queue fires in the same order
    /// as under a lockstep drive. Pinned against the `BinaryHeap` oracle in
    /// `windowed_queues_match_lockstep_order`.
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        if self.drain.is_empty() && !self.refill() {
            return None;
        }
        let t = self.drain.front().expect("refill produced events").0.t;
        self.now = t;
        // The drain is ascending, so the run of events at `t` is the head,
        // already in firing order.
        let k = self.drain.partition_point(|(ek, _)| ek.t <= t);
        batch.extend(self.drain.drain(..k).map(|(_, ev)| ev));
        self.len -= batch.len();
        Some(t)
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some((k, _)) = self.drain.front() {
            return Some(k.t);
        }
        if self.len == 0 {
            return None;
        }
        let over_t = self.overflow.peek().map(|f| f.key.t);
        match self.next_ring_day() {
            None => over_t,
            Some(d) => {
                let slot = (d & DAY_MASK) as usize;
                let ring_min = self.ring[slot]
                    .iter()
                    .map(|(k, _)| k.t)
                    .min()
                    .expect("occupied slot is non-empty");
                match over_t {
                    Some(ot) if ot < ring_min => Some(ot),
                    _ => Some(ring_min),
                }
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total event-storage capacity currently retained (ring buckets, the
    /// drain buffer, and the overflow heap). Bounded by the high-water mark
    /// of *concurrently pending* events — not by `scheduled` — which the
    /// slab regression test asserts.
    pub fn storage_capacity(&self) -> usize {
        self.ring.iter().map(|b| b.capacity()).sum::<usize>()
            + self.drain.capacity()
            + self.overflow.capacity()
    }
}

/// The original `BinaryHeap` + slab implementation, kept as a test oracle:
/// the calendar queue must reproduce its `(time, issued, seq)` pop sequence
/// bit-for-bit (see `calendar_queue_matches_heap_oracle`).
#[cfg(test)]
pub mod oracle {
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Key(SimTime, SimTime, u64);

    /// Reference queue: `BinaryHeap` keyed by `(time, issued, seq)` over a
    /// slab.
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Key, usize)>>,
        slots: Vec<Option<E>>,
        free: Vec<usize>,
        seq: u64,
        now: SimTime,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// An empty oracle queue.
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        /// Schedule `ev` at `t` (clamped to now), FIFO among ties.
        pub fn push(&mut self, t: SimTime, ev: E) {
            self.push_issued(t, self.now, ev);
        }

        /// Schedule `ev` at `t` (clamped to now), ordered among ties by
        /// `issued`, then FIFO.
        pub fn push_issued(&mut self, t: SimTime, issued: SimTime, ev: E) {
            let t = t.max(self.now);
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = Some(ev);
                    i
                }
                None => {
                    self.slots.push(Some(ev));
                    self.slots.len() - 1
                }
            };
            self.heap.push(Reverse((Key(t, issued, self.seq), idx)));
            self.seq += 1;
        }

        /// Pop the earliest `(time, issued, seq)` event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((Key(t, _, _), idx)) = self.heap.pop()?;
            self.now = t;
            let ev = self.slots[idx]
                .take()
                .expect("slot holds a scheduled event");
            self.free.push(idx);
            Some((t, ev))
        }

        /// Slab footprint: one slot per event ever scheduled (the leak the
        /// calendar queue designs away).
        pub fn slab_len(&self) -> usize {
            self.slots.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_and_past_clamps() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), 1);
        assert_eq!(q.pop().unwrap().0, SimTime(100));
        assert_eq!(q.now(), SimTime(100));
        // Scheduling "in the past" fires at now.
        q.push(SimTime(50), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime(100));
        assert_eq!(e, 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_payloads_straight() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), "x");
        q.pop();
        q.push(SimTime(2), "y");
        q.push(SimTime(3), "z");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "y");
        assert_eq!(q.pop().unwrap().1, "z");
        assert!(q.is_empty());
        assert_eq!(q.scheduled, 3);
    }

    #[test]
    fn peek_time() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), 0);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn peek_time_across_tiers() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // Far-future event (overflow tier).
        q.push(SimTime(500_000_000_000), 9);
        assert_eq!(q.peek_time(), Some(SimTime(500_000_000_000)));
        // Nearer event in a ring bucket beats it.
        q.push(SimTime(40_000), 1);
        assert_eq!(q.peek_time(), Some(SimTime(40_000)));
        // Same-day event in the open drain beats both.
        q.push(SimTime(3), 0);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop().unwrap(), (SimTime(3), 0));
        assert_eq!(q.pop().unwrap(), (SimTime(40_000), 1));
        assert_eq!(q.pop().unwrap(), (SimTime(500_000_000_000), 9));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_and_window_wrap() {
        let mut q = EventQueue::new();
        let window = DAYS << DAY_SHIFT;
        // One event far past the ring window, one just inside, one now.
        q.push(SimTime(window * 3 + 17), "far");
        q.push(SimTime(window - 1), "edge");
        q.push(SimTime(0), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "edge");
        // After advancing, pushing within the new window lands in the ring.
        q.push(SimTime(window + 5), "next");
        assert_eq!(q.pop().unwrap().1, "next");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_matches_single_pop_order() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut rng = SimRng::seed_from(11);
        for i in 0..500u32 {
            let t = SimTime(rng.range(0..50u64) * 1000);
            a.push(t, i);
            b.push(t, i);
        }
        let mut singles = Vec::new();
        while let Some((t, e)) = a.pop() {
            singles.push((t, e));
        }
        let mut batched = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = b.pop_batch(&mut batch) {
            for e in batch.drain(..) {
                batched.push((t, e));
            }
        }
        assert_eq!(singles, batched);
    }

    #[test]
    fn pop_batch_only_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(20), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(10)));
        assert_eq!(batch, vec![1, 2]);
        // A same-time push made while consuming the batch fires in the
        // next batch — the same order the one-at-a-time loop yields.
        q.push(SimTime(10), 4);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(10)));
        assert_eq!(batch, vec![4]);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(20)));
        assert_eq!(batch, vec![3]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    /// Multi-switch interleavings: three queues ("switches") whose events
    /// spawn local follow-ups and "link events" on another queue at least
    /// `L` later. Driven in lookahead windows — every queue runs to
    /// `T + L - 1` for the global minimum `T`, then the link events are
    /// pushed with `push_issued` at their sender's event time — each queue
    /// must fire exactly the `(time, tag)` sequence it fires when the
    /// queues are stepped one global timestamp at a time and link events
    /// are pushed as they are sent. Times are coarse so ties are common,
    /// and every spawn is a pure function of the parent tag, so the two
    /// drives see the same events whatever their processing order.
    #[test]
    fn windowed_queues_match_lockstep_order() {
        const Q: usize = 3;
        const L: u64 = 3_000;
        /// What an event spawns: a local follow-up and/or a link event
        /// `(dest, delay)`, derived from the tag alone.
        fn spawns(tag: u64, q: usize) -> (Option<u64>, Option<(usize, u64)>) {
            if tag >> 56 >= 4 {
                return (None, None);
            }
            let h = (tag ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let local = (h & 3 == 0).then_some(((h >> 2) % 5) * 1_000);
            let link = (h >> 8 & 1 == 0).then_some((
                (q + 1 + (h >> 9) as usize % (Q - 1)) % Q,
                L + ((h >> 12) % 4) * 1_000,
            ));
            (local, link)
        }
        fn child(tag: u64, kind: u64) -> u64 {
            let depth = (tag >> 56) + 1;
            (depth << 56) | ((tag & ((1 << 56) - 1)).wrapping_mul(3) + kind) & ((1 << 56) - 1)
        }
        for seed in [2u64, 13, 77, 123, 2026] {
            let mut rng = SimRng::seed_from(seed);
            let initial: Vec<(usize, SimTime, u64)> = (0..300u64)
                .map(|tag| {
                    let q = rng.range(0..Q as u64) as usize;
                    (q, SimTime(rng.range(0..40u64) * 1_000), tag)
                })
                .collect();
            let new_queues = || {
                let mut qs: Vec<EventQueue<u64>> = (0..Q).map(|_| EventQueue::new()).collect();
                for &(q, t, tag) in &initial {
                    qs[q].push(t, tag);
                }
                qs
            };
            // Run one queue's events up to `until`, recording them and
            // collecting link events as (sent, src, arrive, dest, tag).
            let step =
                |qs: &mut Vec<EventQueue<u64>>,
                 q: usize,
                 until: SimTime,
                 rec: &mut Vec<Vec<(SimTime, u64)>>,
                 out: &mut Vec<(SimTime, usize, SimTime, usize, u64)>| {
                    let mut batch = Vec::new();
                    while qs[q].peek_time().is_some_and(|t| t <= until) {
                        let t = qs[q].pop_batch(&mut batch).unwrap();
                        for tag in batch.drain(..) {
                            rec[q].push((t, tag));
                            let (local, link) = spawns(tag, q);
                            if let Some(d) = local {
                                qs[q].push(SimTime(t.0 + d), child(tag, 1));
                            }
                            if let Some((dest, d)) = link {
                                out.push((t, q, SimTime(t.0 + d), dest, child(tag, 2)));
                            }
                        }
                    }
                };
            let min_peek =
                |qs: &Vec<EventQueue<u64>>| qs.iter().filter_map(|q| q.peek_time()).min();

            let mut lock = new_queues();
            let mut lock_rec = vec![Vec::new(); Q];
            let mut out = Vec::new();
            while let Some(t) = min_peek(&lock) {
                for q in 0..Q {
                    step(&mut lock, q, t, &mut lock_rec, &mut out);
                }
                for (_, _, arrive, dest, tag) in out.drain(..) {
                    lock[dest].push(arrive, tag);
                }
            }

            let mut win = new_queues();
            let mut win_rec = vec![Vec::new(); Q];
            let mut windows = 0;
            while let Some(t) = min_peek(&win) {
                windows += 1;
                for q in 0..Q {
                    step(&mut win, q, SimTime(t.0 + L - 1), &mut win_rec, &mut out);
                }
                out.sort_by_key(|&(sent, src, ..)| (sent, src));
                for (sent, _, arrive, dest, tag) in out.drain(..) {
                    assert!(arrive.0 >= t.0 + L, "link event inside the window");
                    win[dest].push_issued(arrive, sent, tag);
                }
            }
            assert_eq!(win_rec, lock_rec, "seed {seed}: windowed order diverged");
            let events: usize = lock_rec.iter().map(Vec::len).sum();
            assert!(
                events > 600 && windows < events,
                "seed {seed}: {events} events, {windows} windows"
            );
        }
    }

    /// Satellite: scheduler equivalence. The calendar queue must produce
    /// exactly the oracle heap's `(time, seq)` pop sequence for seeded
    /// random schedules, including same-timestamp bursts and far-future
    /// outliers, under interleaved push/pop.
    #[test]
    fn calendar_queue_matches_heap_oracle() {
        for seed in [1u64, 7, 42, 99, 2026] {
            let mut rng = SimRng::seed_from(seed);
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut ora: oracle::HeapQueue<u32> = oracle::HeapQueue::new();
            let mut id = 0u32;
            let mut base = 0u64;
            for _round in 0..200 {
                // A burst of pushes around the current time...
                for _ in 0..rng.range(1..20) {
                    let t = match rng.range(0..10) {
                        // same-timestamp burst
                        0..=3 => SimTime(base),
                        // near horizon (a few days out)
                        4..=7 => SimTime(base + rng.range(0..100_000u64)),
                        // window edge
                        8 => SimTime(base + (DAYS << DAY_SHIFT) - rng.range(0..3u64)),
                        // far-future outlier, well past the ring window
                        _ => SimTime(base + (DAYS << DAY_SHIFT) * rng.range(1..5u64) + 13),
                    };
                    if rng.chance(0.2) {
                        // Issued in the past (a fabric's cross-device push).
                        let issued = SimTime(rng.range(0..base + 1));
                        cal.push_issued(t, issued, id);
                        ora.push_issued(t, issued, id);
                    } else {
                        cal.push(t, id);
                        ora.push(t, id);
                    }
                    id += 1;
                }
                // ...then a few interleaved pops.
                for _ in 0..rng.range(0..15) {
                    let c = cal.pop();
                    let o = ora.pop();
                    assert_eq!(c, o, "seed {seed}: pop diverged");
                    if let Some((t, _)) = c {
                        base = t.0;
                    } else {
                        break;
                    }
                }
            }
            // Drain both to the end.
            loop {
                let c = cal.pop();
                let o = ora.pop();
                assert_eq!(c, o, "seed {seed}: drain diverged");
                if c.is_none() {
                    break;
                }
            }
        }
    }

    /// Satellite: the slab-growth pathology regression. The old design
    /// retained one slab slot per event *ever scheduled*; the calendar
    /// queue must keep retained storage proportional to the high-water
    /// mark of pending events across a 10⁶-event run.
    #[test]
    fn million_event_run_keeps_storage_bounded() {
        const TOTAL: u64 = 1_000_000;
        const OUTSTANDING: usize = 1024;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seed_from(3);
        let mut pushed = 0u64;
        while pushed < TOTAL || !q.is_empty() {
            while pushed < TOTAL && q.len() < OUTSTANDING {
                let t = q.now().0 + rng.range(0..200_000u64);
                q.push(SimTime(t), pushed);
                pushed += 1;
            }
            for _ in 0..rng.range(1..OUTSTANDING as u64) {
                if q.pop().is_none() {
                    break;
                }
            }
        }
        assert_eq!(q.scheduled, TOTAL);
        // Retained capacity must track the pending high-water mark (with
        // slack for per-bucket rounding), not the million-event total.
        let cap = q.storage_capacity();
        assert!(
            cap < 64 * OUTSTANDING,
            "storage capacity {cap} grew far past the {OUTSTANDING}-event high-water mark"
        );
    }
}
