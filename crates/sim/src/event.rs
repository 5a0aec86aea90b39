use crate::slots::SlotStore;
use crate::time::Time;
use crate::ProcessId;
use std::collections::BTreeMap;

/// What happens when a queued event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M, E> {
    /// Deliver a message on the FIFO channel `from → to`.
    Deliver { from: ProcessId, msg: M },
    /// Fire a timer with the node-chosen tag.
    Timer { tag: u64 },
    /// Deliver an externally scheduled event (e.g. "become hungry").
    External(E),
    /// Crash the target process.
    Crash,
    /// Restart the target process if it is crashed, optionally with
    /// adversarially corrupted state.
    Recover {
        /// Whether the restarted state is corrupted rather than blank.
        corrupt: bool,
    },
    /// Flip state bits of the target process if it is live (a transient
    /// fault in the self-stabilization sense).
    Corrupt,
    /// Boot the target process into the system if it is absent (dynamic
    /// membership).
    Join,
    /// Remove the target process from the system if it is present.
    Leave {
        /// Whether the process gets a final drain event before going
        /// silent (graceful) or vanishes without warning (crash-stop).
        graceful: bool,
    },
}

/// A queued event, ordered by `(time, seq)`.
///
/// `seq` is a global monotone counter assigned at scheduling time, so
/// simultaneous events fire in a deterministic scheduling order, making the
/// whole simulation a pure function of `(seed, schedule)`.
pub(crate) struct Scheduled<M, E> {
    pub time: Time,
    pub seq: u64,
    pub target: ProcessId,
    pub kind: EventKind<M, E>,
}

const WHEEL_BITS: usize = 12;
/// Wheel window width in ticks. Message delays and timer periods in every
/// workload are orders of magnitude smaller, so in practice all pushes land
/// in the window and cost O(1); anything outside spills to a sorted overflow.
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const SLOT_MASK: u64 = (WHEEL_SLOTS - 1) as u64;
const WORDS: usize = WHEEL_SLOTS / 64;
/// Events per chunk of the slot store: a tick's usual burst (one event, or
/// one process's fan-out) fits one chunk.
const CHUNK: usize = 8;

/// A timer-wheel event queue indexed by absolute tick.
///
/// The wheel covers the moving window `[cursor, cursor + WHEEL_SLOTS)`;
/// slot `t & SLOT_MASK` holds all events at tick `t`, in push (= `seq`)
/// order, in a [`SlotStore`] list that holds memory only while the slot
/// holds events. A two-level occupancy bitmap (64-bit summary over 64
/// words) finds the next non-empty slot in a handful of word operations.
/// Events outside the window — far-future pushes, and the rare push behind
/// the cursor — live in a sorted `BTreeMap` overflow keyed by tick.
///
/// `cursor` only advances when a batch is *popped*, never on peek, so
/// callers may interleave `peek_time` with external event injection (the
/// `LiveRun` pattern) without perturbing order. Within one tick, events from
/// the wheel and the overflow are merged by `seq`, so events pop in global
/// `(time, seq)` order exactly.
pub(crate) struct WheelQueue<M, E> {
    slots: SlotStore<Option<Scheduled<M, E>>, CHUNK>,
    /// Bit `i % 64` of word `i / 64` set iff slot `i` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set iff `occupied[w] != 0`.
    summary: u64,
    /// Wheel window anchor: every wheel-resident event has
    /// `time ∈ [cursor, cursor + WHEEL_SLOTS)`.
    cursor: u64,
    /// The batch currently being popped, reversed so `pop` is `Vec::pop`
    /// (every entry is `Some`: the slot store's own item type).
    draining: Vec<Option<Scheduled<M, E>>>,
    /// Tick of the draining batch (meaningful iff `draining` is non-empty).
    draining_time: u64,
    /// Out-of-window events, keyed by tick, in push order per bucket.
    overflow: BTreeMap<u64, Vec<Scheduled<M, E>>>,
    /// Cached `(next wheel tick, next overflow tick)` from the last scan,
    /// invalidated by any push or batch staging. With the driver's
    /// peek-then-pop loop this halves the occupancy-bitmap scans.
    scan_cache: Option<(Option<u64>, Option<u64>)>,
    len: usize,
    next_seq: u64,
}

impl<M, E> WheelQueue<M, E> {
    pub fn new() -> Self {
        WheelQueue {
            slots: SlotStore::new(WHEEL_SLOTS),
            occupied: [0; WORDS],
            summary: 0,
            cursor: 0,
            draining: Vec::new(),
            draining_time: 0,
            overflow: BTreeMap::new(),
            scan_cache: None,
            len: 0,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: Time, target: ProcessId, kind: EventKind<M, E>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled {
            time,
            seq,
            target,
            kind,
        };
        let t = time.ticks();
        self.len += 1;
        if t.wrapping_sub(self.cursor) < WHEEL_SLOTS as u64 && t >= self.cursor {
            // A push can only move the next occupied tick *earlier*, so the
            // scan cache stays valid under a min-update (no rescan needed).
            if let Some((wheel_next, _)) = self.scan_cache.as_mut() {
                if wheel_next.is_none_or(|w| t < w) {
                    *wheel_next = Some(t);
                }
            }
            let idx = (t & SLOT_MASK) as usize;
            self.slots.push(idx, Some(ev));
            self.mark(idx);
        } else {
            if let Some((_, over_next)) = self.scan_cache.as_mut() {
                if over_next.is_none_or(|o| t < o) {
                    *over_next = Some(t);
                }
            }
            self.overflow.entry(t).or_default().push(ev);
        }
        seq
    }

    pub fn pop(&mut self) -> Option<Scheduled<M, E>> {
        if let Some(ev) = self.draining.pop() {
            self.len -= 1;
            return ev;
        }
        if self.len == 0 {
            return None;
        }
        // Fast path: the steady state is a lone event in a wheel slot, which
        // needs none of the batch-staging machinery (drain into `draining`).
        let (wheel_next, over_next) = self.scan();
        if let Some(w) = wheel_next {
            if over_next.is_none_or(|o| w < o) {
                let idx = (w & SLOT_MASK) as usize;
                if let Some(ev) = self.slots.take_single(idx).flatten() {
                    self.unmark(idx);
                    if w > self.cursor {
                        self.cursor = w;
                    }
                    self.scan_cache = None;
                    self.len -= 1;
                    return Some(ev);
                }
            }
        }
        self.stage_next_batch();
        self.len -= 1;
        self.draining.pop().expect("staged batch is non-empty")
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest queued tick, without committing the cursor.
    pub fn peek_time(&mut self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<u64> = if self.draining.is_empty() {
            None
        } else {
            Some(self.draining_time)
        };
        let (wheel_next, over_next) = self.scan();
        if let Some(t) = wheel_next {
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        if let Some(t) = over_next {
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best.map(Time)
    }

    /// `(next wheel tick, next overflow tick)`, cached between mutations.
    #[inline]
    fn scan(&mut self) -> (Option<u64>, Option<u64>) {
        if let Some(cached) = self.scan_cache {
            return cached;
        }
        let wheel_next = self.next_occupied().map(|idx| self.slot_tick(idx));
        let over_next = self.overflow.keys().next().copied();
        self.scan_cache = Some((wheel_next, over_next));
        (wheel_next, over_next)
    }

    /// Moves all events of the earliest tick into `draining` (reversed).
    fn stage_next_batch(&mut self) {
        let (wheel_next, over_next) = self.scan();
        self.scan_cache = None;
        let t = match (wheel_next, over_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no events staged"),
        };
        // Keep the window anchored at the tick being drained so subsequent
        // near-future pushes stay O(1) even after a long idle jump. Safe:
        // `t` is the global minimum, so every wheel event is ≥ t and the
        // window upper bound only grows.
        if t > self.cursor {
            self.cursor = t;
        }
        debug_assert!(self.draining.is_empty());
        if wheel_next == Some(t) {
            let idx = (t & SLOT_MASK) as usize;
            self.unmark(idx);
            self.slots.drain_newest_first(idx, &mut self.draining);
        }
        if over_next == Some(t) {
            let mut bucket = self.overflow.remove(&t).expect("scanned overflow tick");
            if !self.draining.is_empty() {
                // Rare: the same tick reached both containers (a far-future
                // bucket whose tick later entered the window while new
                // pushes at that tick went to the wheel). Merge by `seq`.
                let wheel = self.draining.drain(..).rev().flatten().collect();
                bucket = merge_by_seq(bucket, wheel);
            }
            self.draining.extend(bucket.into_iter().rev().map(Some));
        }
        self.draining_time = t;
    }

    /// Bytes the queue holds for events: the slot store, the draining
    /// batch's buffer and the overflow buckets.
    #[cfg(test)]
    pub fn retained_bytes(&self) -> usize {
        let event = size_of::<Option<Scheduled<M, E>>>();
        self.slots.retained_bytes()
            + self.draining.capacity() * event
            + self
                .overflow
                .values()
                .map(|b| b.capacity() * event)
                .sum::<usize>()
    }

    #[inline]
    fn slot_tick(&self, idx: usize) -> u64 {
        let base = self.cursor & SLOT_MASK;
        let dist = ((idx as u64).wrapping_sub(base)) & SLOT_MASK;
        self.cursor + dist
    }

    /// First occupied slot in circular order from the cursor, if any.
    fn next_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.cursor & SLOT_MASK) as usize;
        let (word0, bit0) = (start / 64, start % 64);
        let w = self.occupied[word0] & (!0u64 << bit0);
        if w != 0 {
            return Some(word0 * 64 + w.trailing_zeros() as usize);
        }
        for i in 1..WORDS {
            let wi = (word0 + i) % WORDS;
            if self.summary & (1 << wi) == 0 {
                continue;
            }
            let w = self.occupied[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        let w = self.occupied[word0] & ((1u64 << bit0) - 1);
        if w != 0 {
            return Some(word0 * 64 + w.trailing_zeros() as usize);
        }
        None
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        let word = idx / 64;
        self.occupied[word] &= !(1 << (idx % 64));
        if self.occupied[word] == 0 {
            self.summary &= !(1 << word);
        }
    }
}

/// Merges two same-tick batches, each already sorted by `seq`, into one.
fn merge_by_seq<M, E>(a: Vec<Scheduled<M, E>>, b: Vec<Scheduled<M, E>>) -> Vec<Scheduled<M, E>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if x.seq < y.seq {
                    out.push(ia.next().expect("peeked"));
                } else {
                    out.push(ib.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(ia);
                break;
            }
            (None, Some(_)) => {
                out.extend(ib);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: WheelQueue<u32, ()> = WheelQueue::new();
        q.push(Time(5), p(0), EventKind::Timer { tag: 1 });
        q.push(Time(3), p(1), EventKind::Timer { tag: 2 });
        q.push(Time(5), p(2), EventKind::Timer { tag: 3 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time(3)));
        let a = q.pop().unwrap();
        assert_eq!((a.time, a.target), (Time(3), p(1)));
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        // Same timestamp: scheduling order (seq) breaks the tie.
        assert_eq!((b.time, b.target), (Time(5), p(0)));
        assert_eq!((c.time, c.target), (Time(5), p(2)));
        assert!(b.seq < c.seq);
        assert!(q.is_empty());
    }

    #[test]
    fn seq_is_globally_monotone() {
        let mut q: WheelQueue<(), ()> = WheelQueue::new();
        let s1 = q.push(Time(9), p(0), EventKind::Crash);
        let s2 = q.push(Time(1), p(0), EventKind::Crash);
        assert!(s2 > s1);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q: WheelQueue<u64, ()> = WheelQueue::new();
        // Far beyond the wheel window.
        let far = Time(WHEEL_SLOTS as u64 * 10 + 3);
        q.push(far, p(0), EventKind::Timer { tag: 99 });
        q.push(Time(1), p(0), EventKind::Timer { tag: 1 });
        assert_eq!(q.peek_time(), Some(Time(1)));
        assert_eq!(q.pop().unwrap().time, Time(1));
        assert_eq!(q.peek_time(), Some(far));
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, far);
        assert!(matches!(ev.kind, EventKind::Timer { tag: 99 }));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_wheel_and_overflow_merge_by_seq() {
        let mut q: WheelQueue<u64, ()> = WheelQueue::new();
        let t = Time(WHEEL_SLOTS as u64 + 100);
        // Out of window now: goes to overflow.
        let s0 = q.push(t, p(0), EventKind::Timer { tag: 0 });
        // Advance the cursor past the window edge so `t` enters the window.
        q.push(Time(200), p(0), EventKind::Timer { tag: 7 });
        q.pop().unwrap();
        // Same tick again, now in-window: goes to the wheel slot.
        let s1 = q.push(t, p(1), EventKind::Timer { tag: 1 });
        assert!(s1 > s0);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, b.time), (t, t));
        assert_eq!((a.seq, b.seq), (s0, s1), "merged batch must honor seq");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_commit_the_cursor() {
        let mut q: WheelQueue<u64, ()> = WheelQueue::new();
        q.push(Time(500), p(0), EventKind::Timer { tag: 5 });
        assert_eq!(q.peek_time(), Some(Time(500)));
        // An earlier event injected after the peek must still pop first.
        q.push(Time(10), p(1), EventKind::Timer { tag: 1 });
        assert_eq!(q.peek_time(), Some(Time(10)));
        assert_eq!(q.pop().unwrap().time, Time(10));
        assert_eq!(q.pop().unwrap().time, Time(500));
    }

    #[test]
    fn wheel_matches_an_ordered_map_on_random_workload() {
        // A deterministic pseudo-random push/pop workload against the
        // obvious model: a map keyed by (tick, seq), popped from the front.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut wheel: WheelQueue<u64, ()> = WheelQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let popped = |ev: Scheduled<u64, ()>| match ev.kind {
            EventKind::Timer { tag } => ((ev.time.ticks(), ev.seq), tag),
            _ => unreachable!("only timers are pushed"),
        };
        let mut clock = 0u64;
        // The slot store's retention bound: chunks never exceed what the
        // fullest moment of the wheel needed.
        let (mut pending_hw, mut occupied_hw) = (0usize, 0usize);
        let mut check_retention = |wheel: &WheelQueue<u64, ()>, round: usize| {
            let occupied = wheel.occupied.iter().map(|w| w.count_ones() as usize).sum();
            pending_hw = pending_hw.max(wheel.slots.len());
            occupied_hw = occupied_hw.max(occupied);
            assert!(
                wheel.slots.retained_chunks() <= pending_hw.div_ceil(CHUNK) + occupied_hw,
                "round {round}: {} chunks for a high-water of {pending_hw} events in \
                 {occupied_hw} slots",
                wheel.slots.retained_chunks()
            );
        };
        for round in 0..5_000 {
            let burst = (next() % 4) as usize;
            for _ in 0..burst {
                // Mostly near-future, occasionally far-future (overflow path).
                let jump = if next() % 50 == 0 {
                    next() % (WHEEL_SLOTS as u64 * 4)
                } else {
                    next() % 64
                };
                let t = clock + jump;
                let tag = next();
                let seq = wheel.push(Time(t), p(0), EventKind::Timer { tag });
                model.insert((t, seq), tag);
            }
            check_retention(&wheel, round);
            if round % 3 != 0 {
                let got = wheel.pop().map(popped);
                assert_eq!(got, model.pop_first(), "round {round}");
                if let Some(((t, _), _)) = got {
                    clock = t;
                }
            }
            let want = model.keys().next().map(|&(t, _)| Time(t));
            assert_eq!(wheel.peek_time(), want, "round {round}");
            check_retention(&wheel, round);
        }
        while let Some(want) = model.pop_first() {
            assert_eq!(wheel.pop().map(popped), Some(want));
        }
        assert!(wheel.is_empty());
    }
}
