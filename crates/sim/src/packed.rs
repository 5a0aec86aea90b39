//! The bit-packed scale-tier dining kernel (S1 space bound, §7).
//!
//! The general [`Simulator`](crate::Simulator) runs arbitrary [`Node`]
//! state machines with boxed messages and dense per-edge structs — perfect
//! for the fault machinery, too heavy for 10⁵–10⁶ processes. This module is
//! a *specialized* kernel for fault-free Algorithm 1 at scale:
//!
//! * **State** realizes the paper's S1 bound: per process, 3 header bits
//!   (2-bit phase + doorway bit) and exactly **6 bits per incident edge**
//!   (`pinged/ack/replied/deferred/fork/token`), packed contiguously into
//!   `u64` words indexed by CSR slot. Colors live once in a shared
//!   immutable table (`⌈log₂(δ+1)⌉` bits each in spirit; a `u32` in
//!   practice). Everything else is bounded per-process or per-edge
//!   counters.
//! * **Events** are single `u64` words — `(to, kind, slot, aux)` bit
//!   fields whose natural integer order *is* the canonical per-tick
//!   processing order, which is what makes runs invariant in the shard
//!   count (see [`shard`](crate::shard)).
//! * **Delays** are stateless hashes of `(seed, edge, per-channel seq)`,
//!   clamped to per-channel FIFO by a monotone bump, so a message's
//!   delivery tick is a pure function of the run's history on that channel
//!   — identical no matter which shard computes it.
//!
//! The kernel mirrors `ekbd-dining`'s `DiningProcess` action-for-action
//! (the ten actions of Algorithm 1, internal guards evaluated in enabling
//! order 2 → 5 → 6 → 9 after every event). It deliberately omits the
//! failure-detector, crash, and membership machinery: the scale tier
//! answers throughput and contention questions on correct runs, and the
//! general simulator plus golden traces remain the oracle for faults.
//!
//! Safety checking at scale cannot afford dense traces, so exclusion is
//! checked *in flight*: every eating session broadcasts a ghost `EatMark`
//! (not part of the protocol, never touching FIFO state) carrying its
//! interval to each neighbor at a fixed 1-tick delay; each endpoint of an
//! edge detects each overlapping interval pair exactly once and the
//! higher-id endpoint counts it. A fault-free run must report zero.

use crate::obs::{splitmix, LatencyHistogram, Reservoir};
use ekbd_graph::partition::Partition;
use ekbd_graph::{ConflictGraph, ProcessId};
use std::sync::Arc;

/// Phase values in the 2-bit header field.
const THINKING: u8 = 0;
const HUNGRY: u8 = 1;
const EATING: u8 = 2;
/// Doorway bit in the header.
const INSIDE: u8 = 1 << 2;

/// Per-edge flag bits, identical to `ekbd-dining`'s layout.
const PINGED: u8 = 1 << 0;
const ACK: u8 = 1 << 1;
const REPLIED: u8 = 1 << 2;
const DEFERRED: u8 = 1 << 3;
const FORK: u8 = 1 << 4;
const TOKEN: u8 = 1 << 5;

/// Slots per guard chunk: ten six-bit fields are the most a `u64` holds.
const CHUNK: usize = 10;
/// Bit 0 of each of a chunk's fields, `Σ 1 << 6i`; `REP >> 6k` is the
/// same for a chunk of `CHUNK - k` slots.
const REP: u64 = ((1 << (6 * CHUNK)) - 1) / 0x3f;

/// Flag `f` of every slot in chunk `c`, moved to that slot's `REP` bit.
#[inline]
fn at(c: u64, f: u8) -> u64 {
    c >> f.trailing_zeros()
}

/// Event kinds, ordered so that the packed-word integer order gives the
/// canonical intra-tick processing order. Protocol messages (0–3) sort
/// before the ghost `EatMark` (4): a process that starts eating at tick
/// `t` always does so before handling marks arriving at `t`, which is what
/// makes overlap detection exactly-once (see `on_mark`).
const K_PING: u64 = 0;
const K_ACK: u64 = 1;
const K_REQUEST: u64 = 2;
const K_FORK: u64 = 3;
const K_MARK: u64 = 4;
const K_HUNGRY: u64 = 5;
const K_EATEND: u64 = 6;

/// Bit layout of a packed event word: `to` in the top bits so that plain
/// `u64` sort orders by `(to, kind, slot, aux)`.
const TO_SHIFT: u32 = 38; // 26 bits
const KIND_SHIFT: u32 = 35; // 3 bits
const SLOT_SHIFT: u32 = 13; // 22 bits
const AUX_MASK: u64 = (1 << 13) - 1; // 13 bits

#[inline]
fn encode(to: u32, kind: u64, slot: u32, aux: u64) -> u64 {
    debug_assert!(to < (1 << 26) && kind < 8 && slot < (1 << 22) && aux <= AUX_MASK);
    ((to as u64) << TO_SHIFT) | (kind << KIND_SHIFT) | ((slot as u64) << SLOT_SHIFT) | aux
}

#[inline]
fn decode(w: u64) -> (u32, u64, u32, u64) {
    (
        (w >> TO_SHIFT) as u32,
        (w >> KIND_SHIFT) & 0x7,
        ((w >> SLOT_SHIFT) & 0x3f_ffff) as u32,
        w & AUX_MASK,
    )
}

/// Configuration of a scale-tier run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// RNG seed; the run is a pure function of `(graph, colors, seed)`.
    pub seed: u64,
    /// Hard tick ceiling; runs normally quiesce well before it.
    pub horizon: u64,
    /// Eating sessions each process performs before going quiet.
    pub sessions: u32,
    /// Thinking-time range (ticks, inclusive) between sessions.
    pub think: (u64, u64),
    /// Eating-duration range (ticks, inclusive); upper bound ≤ 8191 so a
    /// duration fits the event word's aux field.
    pub eat: (u64, u64),
    /// Maximum message delay; each message takes `1..=delay_max` ticks
    /// (then FIFO-bumped), hashed statelessly from the channel history.
    pub delay_max: u64,
    /// Reservoir capacity for sampled eating-session excerpts.
    pub excerpt_cap: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 0,
            horizon: 1_000_000,
            sessions: 3,
            think: (1, 40),
            eat: (1, 10),
            delay_max: 4,
            excerpt_cap: 16,
        }
    }
}

impl ScaleConfig {
    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Sets the tick ceiling.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }
    /// Sets the per-process session count.
    pub fn sessions(mut self, sessions: u32) -> Self {
        self.sessions = sessions;
        self
    }
    /// Sets the thinking-time range.
    pub fn think(mut self, lo: u64, hi: u64) -> Self {
        self.think = (lo, hi);
        self
    }
    /// Sets the eating-duration range.
    pub fn eat(mut self, lo: u64, hi: u64) -> Self {
        self.eat = (lo, hi);
        self
    }
    /// Sets the maximum message delay.
    pub fn delay_max(mut self, d: u64) -> Self {
        self.delay_max = d.max(1);
        self
    }

    fn validate(&self) {
        assert!(
            self.think.0 >= 1 && self.think.0 <= self.think.1,
            "bad think range"
        );
        assert!(self.eat.0 >= 1 && self.eat.0 <= self.eat.1, "bad eat range");
        assert!(
            self.eat.1 <= AUX_MASK,
            "eat duration must fit the aux field"
        );
        assert!(self.delay_max >= 1, "delay_max must be ≥ 1");
        assert!(self.sessions >= 1, "sessions must be ≥ 1");
    }

    fn wheel_len(&self) -> usize {
        // Longest schedulable offset: 1 + think.1 (next hunger), eat.1
        // (session end), or delay_max plus the FIFO bump headroom (the
        // paper's ≤ 4 in-flight messages per edge, with margin).
        (self.think.1 + 1).max(self.eat.1).max(self.delay_max + 16) as usize + 2
    }
}

/// A per-session excerpt kept by the reservoir sampler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EatExcerpt {
    /// Tick the session started eating.
    pub tick: u64,
    /// The eating process.
    pub process: u32,
    /// Hungry→eat latency of the session, in ticks.
    pub latency: u64,
}

/// One shard's slice of the packed kernel: the state of its member
/// processes and a local timer wheel. All cross-shard interaction goes
/// through explicit `(delivery_tick, event_word)` batches.
pub(crate) struct ShardState {
    id: usize,
    /// Global ids of member processes, ascending.
    pub(crate) members: Vec<u32>,
    /// For every process of the graph, its index within its own shard's
    /// `members` — one table shared read-only by all shards, like `owner`
    /// and `colors`, and like them outside the S1 words.
    local_index: Arc<Vec<u32>>,
    /// Local CSR: `loff[l]..loff[l+1]` are member `l`'s adjacency slots.
    loff: Vec<u32>,
    /// Global neighbor id per local slot (sorted within each process).
    ladj: Vec<u32>,
    /// For local slot `g` (me → q), my slot index within q's adjacency —
    /// stamped into event words so the receiver's lookup is O(1).
    rev_slot: Vec<u32>,
    /// 3 header bits per member (phase + doorway).
    header: Vec<u8>,
    /// 6 flag bits per local slot, packed into contiguous words: slot `g`
    /// occupies bits `[6g, 6g+6)` — the S1 layout, literally.
    flags: Vec<u64>,
    /// Per-channel send counter (me → q), feeding the stateless delay hash.
    seq: Vec<u32>,
    /// Per-channel last delivery tick, enforcing FIFO.
    last_del: Vec<u64>,
    /// Most recent neighbor eating interval learned from an `EatMark`,
    /// per local slot; `[0, 0)` until the first mark.
    nbr_start: Vec<u64>,
    nbr_end: Vec<u64>,
    /// Per-member workload state.
    hungry_since: Vec<u64>,
    eat_start: Vec<u64>,
    eat_end: Vec<u64>,
    pub(crate) eats: Vec<u32>,
    /// Timer wheel: ring of per-tick event lists.
    wheel: Vec<Vec<u64>>,
    pending: usize,
    /// Scratch for the current tick's sorted events.
    batch: Vec<u64>,
    // ---- per-shard counters, merged into the run report ----
    pub(crate) events: u64,
    pub(crate) messages: u64,
    pub(crate) mistakes: u64,
    pub(crate) latency: LatencyHistogram,
    pub(crate) excerpts: Reservoir<EatExcerpt>,
    /// When set, eat start/stop transitions are appended to `obs` for an
    /// external driver ([`InteractiveScale`]) to drain. Off (and empty)
    /// for the batch workload paths.
    record_obs: bool,
    obs: Vec<(u64, u32, bool)>,
}

/// A shard's final state plus the tick its worker stopped at, moved out
/// of a worker thread at the end of a sharded run.
pub(crate) struct ShardHandle {
    pub(crate) state: ShardState,
    pub(crate) final_tick: u64,
}

/// The packed kernel: shared immutable topology plus one [`ShardState`]
/// per shard. Drive it with [`run_sequential`](Self::run_sequential) (one
/// thread, any shard count) or [`shard::run_sharded`](crate::shard::run_sharded)
/// (one worker thread per shard) — both produce identical results.
pub struct PackedKernel {
    pub(crate) config: ScaleConfig,
    pub(crate) n: usize,
    /// Shard of each process.
    pub(crate) owner: Vec<u8>,
    /// Static priorities (proper coloring), shared by all shards.
    colors: Arc<Vec<u32>>,
    pub(crate) shards: Vec<ShardState>,
}

/// The merged result of a scale-tier run.
#[derive(Clone, Debug)]
pub struct ScaleRunReport {
    /// Process count.
    pub n: usize,
    /// Shard count the run used.
    pub shards: usize,
    /// Events processed (kernel dispatches, all shards).
    pub events: u64,
    /// Protocol messages sent (pings/acks/requests/forks; marks excluded).
    pub messages: u64,
    /// Final virtual tick.
    pub final_tick: u64,
    /// Completed eating sessions per process, indexed by id.
    pub eats: Vec<u32>,
    /// Overlapping eating-interval pairs across conflict edges (must be 0).
    pub mistakes: u64,
    /// Processes still hungry when the run ended.
    pub starving: u64,
    /// Hungry→eat latency distribution.
    pub latency: LatencyHistogram,
    /// Deterministically sampled session excerpts.
    pub excerpts: Vec<EatExcerpt>,
    /// Wall-clock duration of the drive loop, in nanoseconds (excluded
    /// from the fingerprint; 0 for sequential runs driven without timing).
    pub wall_nanos: u128,
}

impl ScaleRunReport {
    /// Whether the run upholds the scale-tier gate: zero exclusion
    /// mistakes and every process ate at least once.
    pub fn verdict(&self) -> bool {
        self.mistakes == 0 && self.eats.iter().all(|&e| e >= 1)
    }

    /// Fewest completed sessions over all processes.
    pub fn min_eats(&self) -> u32 {
        self.eats.iter().copied().min().unwrap_or(0)
    }

    /// Aggregate events per second, from `wall_nanos` (0 if untimed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }

    /// A canonical digest of everything deterministic about the run —
    /// byte-identical across reruns with the same `(seed, shards)`, and by
    /// design across *different* shard counts too. Wall-clock fields are
    /// excluded.
    pub fn fingerprint(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &e in &self.eats {
            h = splitmix(h ^ e as u64);
        }
        let mut ex = 0xe37_79b9u64;
        for e in &self.excerpts {
            ex = splitmix(ex ^ e.tick ^ ((e.process as u64) << 32) ^ e.latency.rotate_left(17));
        }
        format!(
            "packed-scale-v1 n={} events={} msgs={} ticks={} eats#{:016x} \
             mistakes={} starving={} lat[{}] ex#{:016x}",
            self.n,
            self.events,
            self.messages,
            self.final_tick,
            h,
            self.mistakes,
            self.starving,
            self.latency.brief(),
            ex
        )
    }
}

#[inline]
fn mix3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ c.wrapping_mul(0x94d0_49bb_1331_11eb),
    )
}

/// Seeded duration in `lo..=hi` for `(process, counter)`, salted so think
/// and eat draws are independent streams.
#[inline]
fn ranged(seed: u64, salt: u64, p: u32, counter: u32, range: (u64, u64)) -> u64 {
    range.0 + mix3(seed ^ salt, p as u64, counter as u64, 0x5eed) % (range.1 - range.0 + 1)
}

impl ShardState {
    /// Where `global` sits in `members`: one load from the shared table,
    /// and one from `members` to refuse — in release builds too — an event
    /// addressed to another shard's process.
    #[inline]
    fn local_of(&self, global: u32) -> usize {
        let l = self.local_index[global as usize] as usize;
        assert!(
            self.members.get(l) == Some(&global),
            "event routed to non-member"
        );
        l
    }

    /// Slots `g..g + count` (`count ≤ CHUNK`) in the low `6 · count` bits:
    /// one shift across two words, `flags`' pad word keeping `w + 1` in
    /// bounds for every slot that exists.
    #[inline]
    fn load_chunk(&self, g: usize, count: usize) -> u64 {
        let (w, o) = (g * 6 / 64, (g * 6 % 64) as u32);
        let wide = self.flags[w] as u128 | (self.flags[w + 1] as u128) << 64;
        (wide >> o) as u64 & ((1 << (6 * count)) - 1)
    }

    #[inline]
    fn get_flag(&self, g: usize, f: u8) -> bool {
        self.load_chunk(g, 1) & f as u64 != 0
    }

    #[inline]
    fn set_flag(&mut self, g: usize, f: u8, v: bool) {
        let (w, o) = (g * 6 / 64, (g * 6 % 64) as u32);
        let wide = (f as u128) << o;
        let (low, high) = (wide as u64, (wide >> 64) as u64);
        if v {
            self.flags[w] |= low;
            self.flags[w + 1] |= high;
        } else {
            self.flags[w] &= !low;
            self.flags[w + 1] &= !high;
        }
    }

    #[inline]
    fn phase(&self, l: usize) -> u8 {
        self.header[l] & 0x3
    }

    #[inline]
    fn set_phase(&mut self, l: usize, p: u8) {
        self.header[l] = (self.header[l] & !0x3) | p;
    }

    #[inline]
    fn inside(&self, l: usize) -> bool {
        self.header[l] & INSIDE != 0
    }

    #[inline]
    fn set_inside(&mut self, l: usize, v: bool) {
        if v {
            self.header[l] |= INSIDE;
        } else {
            self.header[l] &= !INSIDE;
        }
    }

    #[inline]
    fn slots(&self, l: usize) -> std::ops::Range<usize> {
        self.loff[l] as usize..self.loff[l + 1] as usize
    }

    fn push_wheel(&mut self, now: u64, delivery: u64, word: u64) {
        let len = self.wheel.len() as u64;
        assert!(
            delivery > now && delivery - now < len,
            "delivery {delivery} outside wheel window at tick {now}"
        );
        self.wheel[(delivery % len) as usize].push(word);
        self.pending += 1;
    }

    /// Earliest tick after `now` with a scheduled local event.
    fn next_after(&self, now: u64) -> u64 {
        if self.pending == 0 {
            return u64::MAX;
        }
        let len = self.wheel.len() as u64;
        for dt in 1..len {
            if !self.wheel[((now + dt) % len) as usize].is_empty() {
                return now + dt;
            }
        }
        unreachable!("pending events must live within the wheel window");
    }

    /// Sends a protocol message on local slot `g` (member `l` → its `j`-th
    /// neighbor): stateless hashed delay, FIFO-bumped per channel.
    #[allow(clippy::too_many_arguments)] // hot path: fields unpacked by the dispatcher
    fn send(
        &mut self,
        seed: u64,
        delay_max: u64,
        now: u64,
        l: usize,
        g: usize,
        kind: u64,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        let from = self.members[l];
        let to = self.ladj[g];
        let delay = 1 + mix3(seed, from as u64, to as u64, self.seq[g] as u64) % delay_max;
        self.seq[g] += 1;
        let delivery = (now + delay).max(self.last_del[g] + 1);
        self.last_del[g] = delivery;
        self.messages += 1;
        let word = encode(to, kind, self.rev_slot[g], 0);
        let dst = owner[to as usize] as usize;
        if dst == self.id {
            self.push_wheel(now, delivery, word);
        } else {
            out[dst].push((delivery, word));
        }
    }

    /// One pass over member `l`'s S1 bits, a chunk per load, on one side of
    /// the doorway. Outside: action 2 pings every neighbor neither pinged
    /// nor acked, and the result is action 5's guard, "every neighbor
    /// acked". Inside: action 6 spends a token on every missing fork, and
    /// the result is action 9's guard, "every fork held". Sends go out in
    /// slot order; neither action writes a bit the paired guard reads.
    #[inline]
    fn guard_pass(
        &mut self,
        cfg: &ScaleConfig,
        now: u64,
        l: usize,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
        inside: bool,
    ) -> bool {
        let (spent, kind, needed) = if inside {
            (TOKEN, K_REQUEST, FORK)
        } else {
            (PINGED, K_PING, ACK)
        };
        let (mut g, end) = (self.loff[l] as usize, self.loff[l + 1] as usize);
        let mut every = true;
        while g < end {
            let count = (end - g).min(CHUNK);
            let rep = REP >> (6 * (CHUNK - count));
            let c = self.load_chunk(g, count);
            let mut sending = rep
                & if inside {
                    at(c, TOKEN) & !at(c, FORK)
                } else {
                    !(at(c, PINGED) | at(c, ACK))
                };
            while sending != 0 {
                let s = g + sending.trailing_zeros() as usize / 6;
                self.set_flag(s, spent, !inside);
                self.send(cfg.seed, cfg.delay_max, now, l, s, kind, owner, out);
                sending &= sending - 1;
            }
            every &= at(c, needed) & rep == rep;
            g += count;
        }
        every
    }

    /// The internal guards in enabling order 2 → 5 → 6 → 9, evaluated on
    /// the S1 words themselves. Action 5 touches ACK and REPLIED only (the
    /// scale tier is fault-free, so its suspicion escape hatch never
    /// fires), so entering the doorway falls through to 6 with nothing stale.
    fn internal_actions(
        &mut self,
        cfg: &ScaleConfig,
        now: u64,
        l: usize,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        if self.phase(l) != HUNGRY {
            return;
        }
        if !self.inside(l) {
            if !self.guard_pass(cfg, now, l, owner, out, false) {
                return;
            }
            self.set_inside(l, true);
            for g in self.slots(l) {
                self.set_flag(g, ACK | REPLIED, false);
            }
        }
        if self.guard_pass(cfg, now, l, owner, out, true) {
            self.start_eating(cfg, now, l, owner, out);
        }
    }

    /// Action 9's effect: emits marks, checks overlap against stored
    /// neighbor intervals (detection site 2), schedules the session end.
    fn start_eating(
        &mut self,
        cfg: &ScaleConfig,
        now: u64,
        l: usize,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        self.set_phase(l, EATING);
        let me = self.members[l];
        let dur = ranged(cfg.seed, eat_salt(), me, self.eats[l], cfg.eat);
        self.eat_start[l] = now;
        self.eat_end[l] = now + dur;
        let lat = now - self.hungry_since[l];
        self.latency.record(lat);
        self.excerpts.offer(
            mix3(cfg.seed, now, me as u64, 0xec5e),
            EatExcerpt {
                tick: now,
                process: me,
                latency: lat,
            },
        );
        self.push_wheel(now, now + dur, encode(me, K_EATEND, 0, 0));
        if self.record_obs {
            self.obs.push((now, me, true));
        }
        for g in self.slots(l) {
            let q = self.ladj[g];
            // Site 2: my new interval vs the neighbor interval last heard.
            if self.nbr_end[g] > 0
                && self.nbr_start[g] < now + dur
                && now < self.nbr_end[g]
                && me > q
            {
                self.mistakes += 1;
            }
            // Ghost mark: fixed 1-tick delay, outside the FIFO channel.
            let word = encode(q, K_MARK, self.rev_slot[g], dur);
            let dst = owner[q as usize] as usize;
            if dst == self.id {
                self.push_wheel(now, now + 1, word);
            } else {
                out[dst].push((now + 1, word));
            }
        }
    }

    /// Action 10: exit — grant deferred requests and pings, go thinking.
    fn exit(
        &mut self,
        seed: u64,
        delay_max: u64,
        now: u64,
        l: usize,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        self.set_inside(l, false);
        self.set_phase(l, THINKING);
        for g in self.slots(l) {
            if self.get_flag(g, TOKEN) && self.get_flag(g, FORK) {
                self.set_flag(g, FORK, false);
                self.send(seed, delay_max, now, l, g, K_FORK, owner, out);
            }
            if self.get_flag(g, DEFERRED) {
                self.set_flag(g, DEFERRED, false);
                self.send(seed, delay_max, now, l, g, K_ACK, owner, out);
            }
        }
    }

    /// Processes every event scheduled for tick `now`, appending
    /// cross-shard events to `out[dst_shard]`.
    pub(crate) fn process_tick(
        &mut self,
        cfg: &ScaleConfig,
        colors: &[u32],
        owner: &[u8],
        now: u64,
        out: &mut [Vec<(u64, u64)>],
    ) {
        let slot = (now % self.wheel.len() as u64) as usize;
        if self.wheel[slot].is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.append(&mut self.wheel[slot]);
        self.pending -= batch.len();
        // Canonical order: plain integer sort = (to, kind, slot, aux).
        batch.sort_unstable();
        for &word in &batch {
            self.events += 1;
            let (to, kind, slot, aux) = decode(word);
            let l = self.local_of(to);
            match kind {
                K_PING => {
                    let g = self.loff[l] as usize + slot as usize;
                    // Action 3: defer if inside or already replied this
                    // session; otherwise ack (and remember it while hungry).
                    if self.inside(l) || self.get_flag(g, REPLIED) {
                        self.set_flag(g, DEFERRED, true);
                    } else {
                        self.set_flag(g, REPLIED, self.phase(l) == HUNGRY);
                        self.send(cfg.seed, cfg.delay_max, now, l, g, K_ACK, owner, out);
                    }
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_ACK => {
                    let g = self.loff[l] as usize + slot as usize;
                    // Action 4.
                    let useful = self.phase(l) == HUNGRY && !self.inside(l);
                    self.set_flag(g, ACK, useful);
                    self.set_flag(g, PINGED, false);
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_REQUEST => {
                    let g = self.loff[l] as usize + slot as usize;
                    let from = self.ladj[g];
                    // Action 7: the requester's color comes from the shared
                    // table instead of riding in the message.
                    debug_assert!(self.get_flag(g, FORK), "Lemma 1.1: request without fork");
                    self.set_flag(g, TOKEN, true);
                    let grant = self.get_flag(g, FORK)
                        && (!self.inside(l)
                            || (self.phase(l) == HUNGRY
                                && colors[to as usize] < colors[from as usize]));
                    if grant {
                        self.set_flag(g, FORK, false);
                        self.send(cfg.seed, cfg.delay_max, now, l, g, K_FORK, owner, out);
                    }
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_FORK => {
                    let g = self.loff[l] as usize + slot as usize;
                    // Action 8.
                    debug_assert!(!self.get_flag(g, FORK), "Lemma 1.2: duplicate fork");
                    self.set_flag(g, FORK, true);
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_MARK => {
                    // Ghost message: neighbor's session interval is
                    // [now - 1, now - 1 + aux). Site 1 of overlap
                    // detection; no internal actions (not a protocol event).
                    let g = self.loff[l] as usize + slot as usize;
                    let (ms, me_) = (now - 1, now - 1 + aux);
                    let q = self.ladj[g];
                    if self.phase(l) == EATING
                        && self.eat_start[l] < me_
                        && ms < self.eat_end[l]
                        && to > q
                    {
                        self.mistakes += 1;
                    }
                    self.nbr_start[g] = ms;
                    self.nbr_end[g] = me_;
                }
                K_HUNGRY => {
                    if self.record_obs && self.phase(l) != THINKING {
                        // An external driver may race an injection against
                        // an in-flight grant; a hunger landing on a
                        // non-thinking process is dropped, not asserted.
                        continue;
                    }
                    debug_assert_eq!(self.phase(l), THINKING);
                    self.set_phase(l, HUNGRY);
                    self.hungry_since[l] = now;
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_EATEND => {
                    debug_assert_eq!(self.phase(l), EATING);
                    self.exit(cfg.seed, cfg.delay_max, now, l, owner, out);
                    self.eats[l] += 1;
                    if self.record_obs {
                        self.obs.push((now, to, false));
                    }
                    if self.eats[l] < cfg.sessions {
                        let think = ranged(cfg.seed, think_salt(), to, self.eats[l], cfg.think);
                        self.push_wheel(now, now + 1 + think, encode(to, K_HUNGRY, 0, 0));
                    }
                    self.internal_actions(cfg, now, l, owner, out);
                }
                _ => unreachable!("unknown event kind"),
            }
        }
        self.batch = batch;
    }

    /// Packages this shard's final state for hand-back from a worker
    /// thread (sharded driver only).
    pub(crate) fn into_handle(self, final_tick: u64) -> ShardHandle {
        ShardHandle {
            state: self,
            final_tick,
        }
    }

    /// Accepts a batch of cross-shard events delivered after a barrier.
    pub(crate) fn accept(&mut self, now: u64, batch: &mut Vec<(u64, u64)>) {
        for (delivery, word) in batch.drain(..) {
            self.push_wheel(now, delivery, word);
        }
    }

    /// Earliest pending tick, for the global time-advance consensus.
    pub(crate) fn next_event_after(&self, now: u64) -> u64 {
        self.next_after(now)
    }
}

// Salt constants for the independent think/eat duration hash streams.
#[inline]
fn eat_salt() -> u64 {
    0xea7
}
#[inline]
fn think_salt() -> u64 {
    0x7417
}

impl PackedKernel {
    /// Builds the kernel: per-shard CSR slices of `graph`, initial fork at
    /// the higher-color endpoint and token at the lower (§3.1), and every
    /// process's first hunger pre-scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the coloring is not proper for `graph`, the partition
    /// does not cover `graph`, or the config is inconsistent.
    pub fn new(
        graph: &ConflictGraph,
        colors: &[u32],
        partition: &Partition,
        config: ScaleConfig,
    ) -> Self {
        config.validate();
        let n = graph.len();
        assert!(
            n < (1 << 26),
            "packed event words index at most 2^26 processes"
        );
        assert_eq!(colors.len(), n, "coloring must cover the graph");
        assert_eq!(
            partition.assignment.len(),
            n,
            "partition must cover the graph"
        );
        assert!(
            partition.shards <= u8::MAX as usize + 1,
            "at most 256 shards"
        );
        assert!(
            graph.max_degree() < (1 << 22),
            "packed event words index at most 2^22 neighbors"
        );
        let owner: Vec<u8> = partition.assignment.iter().map(|&s| s as u8).collect();
        // `Partition::members` lists each shard's processes in ascending
        // id order, so a process's index there is the number of smaller
        // ids its shard owns: one counting pass.
        let mut shard_sizes = vec![0u32; partition.shards];
        let local_index: Arc<Vec<u32>> = Arc::new(
            partition
                .assignment
                .iter()
                .map(|&s| {
                    let l = shard_sizes[s as usize];
                    shard_sizes[s as usize] += 1;
                    l
                })
                .collect(),
        );
        let wheel_len = config.wheel_len();
        let mut shards = Vec::with_capacity(partition.shards);
        for (sid, members) in partition.members().into_iter().enumerate() {
            let members: Vec<u32> = members.iter().map(|p| p.index() as u32).collect();
            let mut loff = Vec::with_capacity(members.len() + 1);
            let mut ladj = Vec::new();
            let mut rev_slot = Vec::new();
            let mut flags_bits = 0usize;
            loff.push(0u32);
            for &m in &members {
                let p = ProcessId::from(m as usize);
                for &q in graph.neighbors(p) {
                    assert_ne!(
                        colors[m as usize],
                        colors[q.index()],
                        "coloring must be proper"
                    );
                    ladj.push(q.index() as u32);
                    let back = graph
                        .neighbors(q)
                        .binary_search(&p)
                        .expect("adjacency is symmetric");
                    rev_slot.push(back as u32);
                }
                loff.push(ladj.len() as u32);
            }
            flags_bits += ladj.len() * 6;
            let mut shard = ShardState {
                id: sid,
                loff,
                header: vec![THINKING; members.len()],
                flags: vec![0u64; flags_bits.div_ceil(64) + 1],
                seq: vec![0; ladj.len()],
                last_del: vec![0; ladj.len()],
                nbr_start: vec![0; ladj.len()],
                nbr_end: vec![0; ladj.len()],
                hungry_since: vec![0; members.len()],
                eat_start: vec![0; members.len()],
                eat_end: vec![0; members.len()],
                eats: vec![0; members.len()],
                wheel: vec![Vec::new(); wheel_len],
                pending: 0,
                batch: Vec::new(),
                events: 0,
                messages: 0,
                mistakes: 0,
                latency: LatencyHistogram::new(),
                excerpts: Reservoir::new(config.seed ^ 0xe8ce_4a17, config.excerpt_cap),
                record_obs: false,
                obs: Vec::new(),
                members,
                local_index: local_index.clone(),
                ladj,
                rev_slot,
            };
            // §3.1 initial placement: fork at the higher color, token at
            // the lower; and every process schedules its first hunger.
            for l in 0..shard.members.len() {
                let me = shard.members[l];
                for g in shard.slots(l) {
                    let q = shard.ladj[g];
                    if colors[me as usize] > colors[q as usize] {
                        shard.set_flag(g, FORK, true);
                    } else {
                        shard.set_flag(g, TOKEN, true);
                    }
                }
                let think = ranged(config.seed, think_salt(), me, 0, config.think);
                shard.push_wheel(0, 1 + think, encode(me, K_HUNGRY, 0, 0));
            }
            shards.push(shard);
        }
        PackedKernel {
            config,
            n,
            owner,
            colors: Arc::new(colors.to_vec()),
            shards,
        }
    }

    /// Shared color table (read-only, used by every shard).
    pub(crate) fn colors(&self) -> Arc<Vec<u32>> {
        self.colors.clone()
    }

    /// Approximate resident bytes of all mutable kernel state — the number
    /// the S1 bound governs. Excludes the shared graph/colors.
    pub fn state_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.header.len()
                    + s.flags.len() * 8
                    + (s.seq.len() + s.rev_slot.len() + s.ladj.len()) * 4
                    + (s.last_del.len() + s.nbr_start.len() + s.nbr_end.len()) * 8
                    + (s.hungry_since.len() + s.eat_start.len() + s.eat_end.len()) * 8
                    + s.eats.len() * 4
            })
            .sum()
    }

    /// Drives every shard in lock-step on the calling thread. Exists as
    /// the reference implementation the threaded driver must match
    /// bit-for-bit, and as the `--shards 1` fast path.
    pub fn run_sequential(mut self) -> ScaleRunReport {
        let cfg = self.config.clone();
        let colors = self.colors();
        let k = self.shards.len();
        let mut out: Vec<Vec<Vec<(u64, u64)>>> = vec![vec![Vec::new(); k]; k];
        let mut now = 0u64;
        loop {
            let next = self
                .shards
                .iter()
                .map(|s| s.next_event_after(now))
                .min()
                .unwrap_or(u64::MAX);
            if next == u64::MAX || next > cfg.horizon {
                break;
            }
            now = next;
            for (sid, shard) in self.shards.iter_mut().enumerate() {
                shard.process_tick(&cfg, &colors, &self.owner, now, &mut out[sid]);
            }
            for row in out.iter_mut() {
                for (dst, cell) in row.iter_mut().enumerate() {
                    if !cell.is_empty() {
                        self.shards[dst].accept(now, cell);
                    }
                }
            }
        }
        self.into_report(now, 0)
    }

    /// Folds per-shard state into the merged report.
    pub(crate) fn into_report(self, final_tick: u64, wall_nanos: u128) -> ScaleRunReport {
        let mut eats = vec![0u32; self.n];
        let mut starving = 0u64;
        let mut events = 0u64;
        let mut messages = 0u64;
        let mut mistakes = 0u64;
        let mut latency = LatencyHistogram::new();
        let mut excerpts = Reservoir::new(self.config.seed ^ 0xe8ce_4a17, self.config.excerpt_cap);
        let shard_count = self.shards.len();
        for shard in self.shards {
            for (l, &m) in shard.members.iter().enumerate() {
                eats[m as usize] = shard.eats[l];
                if shard.phase(l) == HUNGRY {
                    starving += 1;
                }
            }
            events += shard.events;
            messages += shard.messages;
            mistakes += shard.mistakes;
            latency.merge(&shard.latency);
            excerpts.merge(shard.excerpts);
        }
        ScaleRunReport {
            n: self.n,
            shards: shard_count,
            events,
            messages,
            final_tick,
            eats,
            mistakes,
            starving,
            latency,
            excerpts: excerpts.items().cloned().collect(),
            wall_nanos,
        }
    }
}

/// One eat-session transition observed by an [`InteractiveScale`] driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EatObs {
    /// Virtual tick of the transition.
    pub tick: u64,
    /// The process whose session changed.
    pub process: u32,
    /// `true` when the process started eating, `false` when it stopped.
    pub started: bool,
}

/// An externally driven packed kernel: the batch workload (pre-scheduled
/// hungers, per-process session quotas) is stripped out, and hunger is
/// instead *injected* by a caller — the net server's scale backend — who
/// drains eat start/stop observations as virtual time advances.
///
/// Single-shard by construction: an interactive driver serializes at the
/// injection boundary anyway, so sharding would only buy barrier overhead.
/// Determinism is preserved per *injection schedule*: the same sequence of
/// `inject_hungry`/`step` calls replays the same virtual history.
pub struct InteractiveScale {
    kernel: PackedKernel,
    now: u64,
    /// Per-process "a K_HUNGRY is scheduled or being served" latch, so a
    /// double injection can never violate the kernel's one-hunger-in-
    /// flight invariant. Cleared when the grant (eat start) is observed.
    queued: Vec<bool>,
    /// Single-shard scratch for `process_tick`'s cross-shard interface;
    /// stays empty (a shard never routes to itself through `out`).
    out_scratch: Vec<Vec<(u64, u64)>>,
}

impl InteractiveScale {
    /// Builds an interactive kernel over `graph` with the given proper
    /// coloring. `config.sessions`/`horizon` are ignored (the caller owns
    /// the workload and the clock); think/eat/delay ranges still shape
    /// the virtual-time dynamics.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PackedKernel::new`].
    pub fn new(graph: &ConflictGraph, colors: &[u32], config: ScaleConfig) -> Self {
        // `sessions: 1` disables the K_EATEND hunger rescheduling after
        // the first session; combined with the wheel flush below, the
        // kernel starts fully quiescent and only moves when fed.
        let config = ScaleConfig {
            sessions: 1,
            ..config
        };
        let part = Partition {
            assignment: vec![0; graph.len()],
            shards: 1,
        };
        let mut kernel = PackedKernel::new(graph, colors, &part, config);
        let shard = &mut kernel.shards[0];
        for cell in &mut shard.wheel {
            cell.clear();
        }
        shard.pending = 0;
        shard.record_obs = true;
        InteractiveScale {
            queued: vec![false; graph.len()],
            kernel,
            now: 0,
            out_scratch: vec![Vec::new()],
        }
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Process count.
    pub fn len(&self) -> usize {
        self.kernel.n
    }

    /// Whether the kernel has no processes.
    pub fn is_empty(&self) -> bool {
        self.kernel.n == 0
    }

    /// Whether any events are pending (i.e. [`step`](Self::step) would
    /// advance virtual time).
    pub fn has_pending(&self) -> bool {
        self.kernel.shards[0].pending > 0
    }

    /// Injects hunger for process `p`, scheduling its `K_HUNGRY` one tick
    /// out. Returns `false` (and does nothing) if `p` is out of range, is
    /// not currently thinking, or already has an unserved injection.
    pub fn inject_hungry(&mut self, p: u32) -> bool {
        if p as usize >= self.queued.len() || self.queued[p as usize] {
            return false;
        }
        let shard = &mut self.kernel.shards[0];
        let l = shard.local_of(p);
        if shard.phase(l) != THINKING {
            return false;
        }
        shard.push_wheel(self.now, self.now + 1, encode(p, K_HUNGRY, 0, 0));
        self.queued[p as usize] = true;
        true
    }

    /// Advances virtual time until the kernel is quiescent or `max_ticks`
    /// event-bearing ticks have been processed, appending observed eat
    /// transitions to `obs`. Returns the number of ticks processed.
    pub fn step(&mut self, max_ticks: u64, obs: &mut Vec<EatObs>) -> u64 {
        let kernel = &mut self.kernel;
        let (cfg, colors, owner) = (&kernel.config, &kernel.colors, &kernel.owner);
        let shard = &mut kernel.shards[0];
        let mut ticks = 0u64;
        while ticks < max_ticks {
            let next = shard.next_event_after(self.now);
            if next == u64::MAX {
                break;
            }
            self.now = next;
            shard.process_tick(cfg, colors, owner, next, &mut self.out_scratch);
            debug_assert!(
                self.out_scratch[0].is_empty(),
                "single shard never emits cross-shard events"
            );
            ticks += 1;
        }
        for (tick, p, started) in shard.obs.drain(..) {
            if started {
                self.queued[p as usize] = false;
            }
            obs.push(EatObs {
                tick,
                process: p,
                started,
            });
        }
        ticks
    }

    /// Consumes the kernel into the standard scale-run report (wall time
    /// is the caller's to stamp; recorded as 0 here).
    pub fn finish(self) -> ScaleRunReport {
        let now = self.now;
        self.kernel.into_report(now, 0)
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use ekbd_graph::coloring;

    /// The four per-slot guard walks `guard_pass` replaced, kept as the
    /// reference it is tested against. They read and write one bit at a
    /// time, so they share nothing with `load_chunk` and `set_flag`.
    impl ShardState {
        fn ref_get(&self, g: usize, f: u8) -> bool {
            let bit = g * 6 + f.trailing_zeros() as usize;
            self.flags[bit / 64] >> (bit % 64) & 1 != 0
        }

        fn ref_set(&mut self, g: usize, f: u8, v: bool) {
            let bit = g * 6 + f.trailing_zeros() as usize;
            self.flags[bit / 64] &= !(1 << (bit % 64));
            self.flags[bit / 64] |= (v as u64) << (bit % 64);
        }

        /// Action 2: while hungry outside, ping neighbors missing an ack.
        fn try_request_acks(
            &mut self,
            cfg: &ScaleConfig,
            now: u64,
            l: usize,
            owner: &[u8],
            out: &mut [Vec<(u64, u64)>],
        ) {
            if self.phase(l) != HUNGRY || self.inside(l) {
                return;
            }
            for g in self.slots(l) {
                if !self.ref_get(g, PINGED) && !self.ref_get(g, ACK) {
                    self.ref_set(g, PINGED, true);
                    self.send(cfg.seed, cfg.delay_max, now, l, g, K_PING, owner, out);
                }
            }
        }

        /// Action 5: enter the doorway once every neighbor acked.
        fn try_enter_doorway(&mut self, l: usize) {
            if self.phase(l) != HUNGRY || self.inside(l) {
                return;
            }
            if self.slots(l).all(|g| self.ref_get(g, ACK)) {
                self.set_inside(l, true);
                for g in self.slots(l) {
                    self.ref_set(g, ACK, false);
                    self.ref_set(g, REPLIED, false);
                }
            }
        }

        /// Action 6: inside the doorway, spend tokens on missing forks.
        fn try_request_forks(
            &mut self,
            cfg: &ScaleConfig,
            now: u64,
            l: usize,
            owner: &[u8],
            out: &mut [Vec<(u64, u64)>],
        ) {
            if self.phase(l) != HUNGRY || !self.inside(l) {
                return;
            }
            for g in self.slots(l) {
                if self.ref_get(g, TOKEN) && !self.ref_get(g, FORK) {
                    self.ref_set(g, TOKEN, false);
                    self.send(cfg.seed, cfg.delay_max, now, l, g, K_REQUEST, owner, out);
                }
            }
        }

        /// Action 9: eat once every fork is held.
        fn try_eat(
            &mut self,
            cfg: &ScaleConfig,
            now: u64,
            l: usize,
            owner: &[u8],
            out: &mut [Vec<(u64, u64)>],
        ) {
            if self.phase(l) != HUNGRY || !self.inside(l) {
                return;
            }
            if self.slots(l).all(|g| self.ref_get(g, FORK)) {
                self.start_eating(cfg, now, l, owner, out);
            }
        }

        fn reference_internal_actions(
            &mut self,
            cfg: &ScaleConfig,
            now: u64,
            l: usize,
            owner: &[u8],
            out: &mut [Vec<(u64, u64)>],
        ) {
            self.try_request_acks(cfg, now, l, owner, out);
            self.try_enter_doorway(l);
            self.try_request_forks(cfg, now, l, owner, out);
            self.try_eat(cfg, now, l, owner, out);
        }

        /// Everything an internal action can touch.
        fn touched(&self) -> impl PartialEq + std::fmt::Debug + '_ {
            (
                (&self.header, &self.flags, &self.seq, &self.last_del),
                (&self.wheel, self.pending, self.messages, self.mistakes),
                (&self.eat_start, &self.eat_end, &self.latency, &self.obs),
            )
        }
    }

    /// Shard 0 holds two hubs: process 0 with `pad` leaves, whose slots
    /// only push the subject's along the flag words, and the subject,
    /// process 1, with `degree` leaves — so its first slot sits at bit
    /// `6 · pad` and its last is the shard's last. The leaves live on
    /// shard 1, which puts every send, in order, into `out[1]`.
    fn fixture(pad: usize, degree: usize) -> PackedKernel {
        let n = 2 + pad + degree;
        let pairs: Vec<(usize, usize)> = (0..pad)
            .map(|i| (0, 2 + i))
            .chain((0..degree).map(|j| (1, 2 + pad + j)))
            .collect();
        let g = ConflictGraph::from_pairs(n, &pairs);
        let part = Partition {
            assignment: (0..n).map(|p| (p >= 2) as u32).collect(),
            shards: 2,
        };
        PackedKernel::new(&g, &coloring::greedy(&g), &part, ScaleConfig::default())
    }

    /// Fills every slot of `shard` with seeded random flags, then bends the
    /// subject's towards the cases a uniform draw almost never produces at
    /// high degree: every neighbor acked, every fork held, all but one.
    fn scramble(shard: &mut ShardState, seed: u64, bend: u64) {
        let mut rng = seed;
        let mut next = move || {
            rng = splitmix(rng);
            rng
        };
        for g in 0..shard.ladj.len() {
            let six = next();
            for b in 0..6 {
                shard.ref_set(g, 1 << b, six >> b & 1 != 0);
            }
        }
        let subject = shard.slots(1);
        for g in subject.clone() {
            if bend & 1 != 0 {
                shard.ref_set(g, ACK, true);
            }
            if bend & 2 != 0 {
                shard.ref_set(g, FORK, true);
            }
        }
        if bend & 4 != 0 && !subject.is_empty() {
            let g = subject.start + next() as usize % subject.len();
            shard.ref_set(g, ACK, false);
            shard.ref_set(g, FORK, false);
        }
    }

    /// Runs one internal-action step of the subject on a fresh fixture,
    /// through the reference or through the pass.
    fn step_subject(
        (degree, pad, header, bend): (usize, usize, u8, u64),
        reference: bool,
    ) -> (PackedKernel, Vec<Vec<(u64, u64)>>) {
        let mut kernel = fixture(pad, degree);
        let shard = &mut kernel.shards[0];
        let seed = mix3(24, degree as u64, pad as u64, (header as u64) << 3 | bend);
        scramble(shard, seed, bend);
        shard.header[1] = header;
        let mut out = vec![Vec::new(); 2];
        if reference {
            shard.reference_internal_actions(&kernel.config, 5, 1, &kernel.owner, &mut out);
        } else {
            shard.internal_actions(&kernel.config, 5, 1, &kernel.owner, &mut out);
        }
        (kernel, out)
    }

    #[test]
    fn guard_pass_equals_the_per_slot_reference() {
        let headers = [THINKING, HUNGRY, EATING].map(|p| [p, p | INSIDE]);
        let (mut enters, mut eats) = (0, 0);
        for degree in 0..=25 {
            for pad in 0..32 {
                for header in headers.as_flattened() {
                    // Only a hungry process gets past the phase test.
                    let bends = if header & 0x3 == HUNGRY { 8 } else { 1 };
                    for bend in 0..bends {
                        let case = (degree, pad, *header, bend);
                        let (want, want_out) = step_subject(case, true);
                        let (got, got_out) = step_subject(case, false);
                        assert_eq!(got_out, want_out, "sends, {case:?}");
                        assert_eq!(
                            got.shards[0].touched(),
                            want.shards[0].touched(),
                            "state, {case:?}"
                        );
                        let after = want.shards[0].header[1];
                        enters += (*header == HUNGRY && after & INSIDE != 0) as u32;
                        eats += (header & 0x3 == HUNGRY && after & 0x3 == EATING) as u32;
                    }
                }
            }
        }
        assert!(
            enters > 1000 && eats > 1000,
            "too few decisions taken: {enters} doorway entries, {eats} eats"
        );
    }

    #[test]
    fn load_chunk_and_flag_accessors_equal_bitwise_reads_at_every_offset() {
        let mut kernel = fixture(32, 25);
        let shard = &mut kernel.shards[0];
        scramble(shard, 7, 0);
        let slots = shard.ladj.len();
        for g in 0..slots {
            for count in 0..=CHUNK.min(slots - g) {
                let mut want = 0u64;
                for i in 0..count {
                    for b in 0..6 {
                        want |= (shard.ref_get(g + i, 1 << b) as u64) << (6 * i + b);
                    }
                }
                assert_eq!(shard.load_chunk(g, count), want, "slot {g}, count {count}");
            }
            for f in 1..64u8 {
                let one = 1 << f.trailing_zeros();
                assert_eq!(
                    shard.get_flag(g, one),
                    shard.ref_get(g, one),
                    "slot {g}, flag {one}"
                );
                for v in [false, true] {
                    let before = shard.flags.clone();
                    for b in (0..6).filter(|b| f >> b & 1 != 0) {
                        shard.ref_set(g, 1 << b, v);
                    }
                    let want = std::mem::replace(&mut shard.flags, before);
                    shard.set_flag(g, f, v);
                    assert_eq!(shard.flags, want, "slot {g}, mask {f:#08b}, value {v}");
                }
            }
        }
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random, topology};

    #[test]
    fn local_index_table_equals_binary_search_of_members() {
        let graphs = [
            ("sparse_gnp", random::sparse_gnp(600, 0.01, 5)),
            ("powerlaw", random::powerlaw(500, 3, 8)),
        ];
        for (name, g) in &graphs {
            let colors = coloring::greedy(g);
            for shards in [1, 2, 4, 7] {
                let part = greedy_edge_cut(g, shards);
                let kernel = PackedKernel::new(g, &colors, &part, ScaleConfig::default());
                for p in 0..g.len() as u32 {
                    let shard = &kernel.shards[kernel.owner[p as usize] as usize];
                    assert_eq!(
                        Ok(shard.local_of(p)),
                        shard.members.binary_search(&p),
                        "{name}, {shards} shards, process {p}"
                    );
                }
            }
        }
    }

    /// The table alone would map any process to *some* member; the check
    /// against `members` is what refuses an event on the wrong shard, and
    /// it is an `assert!`, so run this with `--release` too.
    #[test]
    #[should_panic(expected = "event routed to non-member")]
    fn event_for_another_shards_member_panics() {
        let g = topology::ring(8);
        let colors = coloring::greedy(&g);
        let part = Partition {
            assignment: vec![0, 0, 0, 0, 1, 1, 1, 1],
            shards: 2,
        };
        let mut kernel = PackedKernel::new(&g, &colors, &part, ScaleConfig::default());
        let cfg = kernel.config.clone();
        let color_table = kernel.colors();
        let PackedKernel { owner, shards, .. } = &mut kernel;
        // Process 5 lives on shard 1; hand its hunger to shard 0.
        shards[0].push_wheel(0, 1, encode(5, K_HUNGRY, 0, 0));
        let mut out = vec![Vec::new(); 2];
        shards[0].process_tick(&cfg, &color_table, owner, 1, &mut out);
    }
}

#[cfg(test)]
mod interactive_tests {
    use super::*;
    use ekbd_graph::{coloring, topology};

    /// Ring-12 is one partial guard chunk per process; clique-12 (degree
    /// 11) is a full chunk and a second of one slot.
    #[test]
    fn interactive_kernel_starts_quiescent_and_serves_injections() {
        for g in [topology::ring(12), topology::clique(12)] {
            let colors = coloring::greedy(&g);
            let mut ik = InteractiveScale::new(&g, &colors, ScaleConfig::default().seed(9));
            assert!(!ik.has_pending(), "no batch workload may be pre-scheduled");
            let mut obs = Vec::new();
            assert_eq!(ik.step(1_000, &mut obs), 0);
            assert!(obs.is_empty());

            for p in 0..12u32 {
                assert!(ik.inject_hungry(p));
                assert!(!ik.inject_hungry(p), "double injection must be refused");
            }
            while ik.has_pending() {
                ik.step(10_000, &mut obs);
            }
            let starts = obs.iter().filter(|o| o.started).count();
            let stops = obs.iter().filter(|o| !o.started).count();
            assert_eq!(starts, 12, "every injected process eats exactly once");
            assert_eq!(stops, 12, "every session ends");

            // Second round: everyone is thinking again, injections re-admit.
            let before = ik.now();
            for p in 0..12u32 {
                assert!(
                    ik.inject_hungry(p),
                    "process {p} should accept a second meal"
                );
            }
            while ik.has_pending() {
                ik.step(10_000, &mut obs);
            }
            assert!(ik.now() > before);
            let report = ik.finish();
            assert_eq!(report.mistakes, 0);
            assert!(report.eats.iter().all(|&e| e == 2));
        }
    }

    #[test]
    fn interactive_runs_replay_deterministically() {
        let g = topology::ring(8);
        let colors = coloring::greedy(&g);
        let run = |seed: u64| {
            let mut ik = InteractiveScale::new(&g, &colors, ScaleConfig::default().seed(seed));
            let mut obs = Vec::new();
            for p in [3u32, 7, 0, 5] {
                ik.inject_hungry(p);
            }
            while ik.has_pending() {
                ik.step(1 << 20, &mut obs);
            }
            (obs, ik.finish().fingerprint())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "seed must steer the dynamics");
    }
}
