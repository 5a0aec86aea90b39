//! The bit-packed scale-tier dining kernel (S1 space bound, §7).
//!
//! The general [`Simulator`](crate::Simulator) runs arbitrary [`Node`](crate::Node)
//! state machines with boxed messages and dense per-edge structs — perfect
//! for the fault machinery, too heavy for 10⁵–10⁶ processes. This module is
//! a *specialized* kernel for fault-free Algorithm 1 at scale:
//!
//! * **State** realizes the paper's S1 bound: per process, 3 header bits
//!   (2-bit phase + doorway bit) and exactly **6 bits per incident edge**
//!   (`pinged/ack/replied/deferred/fork/token`), packed contiguously into
//!   `u64` words indexed by CSR slot. Beside them a slot keeps 14 bytes
//!   of scheduling, 14.75 B in all:
//!
//!   | field      | bytes | holds |
//!   |------------|-------|-------|
//!   | `ladj`     | 4     | the neighbour's id |
//!   | `rev_slot` | 4     | this slot's index in the neighbour's list (bits 0–21), and in bit 31 whether this side has the lower colour |
//!   | `seq`      | 2     | the channel's send count, mod 2¹⁶ |
//!   | `last_del` | 4     | the channel's last delivery tick, from its shard's `epoch` |
//!
//!   The colouring is read once, at the build: action 7 asks only which
//!   end of an edge has the lower colour, and that is the slot's bit.
//! * **Events** are single `u64` words, each exactly its own sort key:
//!   `(to, kind, slot)` packed into the graph's `⌈log₂ n⌉ + 3 + ⌈log₂ δ⌉`
//!   bits, `to` highest (`KeyShape`). Their integer order *is* the
//!   canonical per-tick processing order, which is what makes runs
//!   invariant in the shard count (see [`shard`](crate::shard)). No tick
//!   holds two equal words, so a tick is put in that order by a radix sort
//!   on the words' bytes (`order`).
//! * **Delays** are stateless hashes of `(seed, edge, per-channel seq)`,
//!   clamped to per-channel FIFO by a monotone bump, so a message's
//!   delivery tick is a pure function of the run's history on that channel
//!   — identical no matter which shard computes it. `seq` wraps at 2¹⁶
//!   sends, so a channel's delays repeat with that period. The FIFO floor
//!   is a `u32` counted from the shard's `epoch`; once `now` is 2³¹ ticks
//!   past it, one pass subtracts the shift from every floor, clamping at
//!   0, and moves `epoch` to `now`. No delivery changes: a floor at or
//!   below `now` never binds, since every delay is at least 1.
//!
//! Algorithm 1 itself is not the kernel's: its S1 words, its guard pass
//! (internal guards in enabling order 2 → 5 → 6 → 9 after every event) and
//! the effects of its actions are [`alg1`]'s, which
//! `ekbd-dining`'s `DiningProcess` runs too. The kernel owns what is
//! around them: scheduling (event words, the timer wheel, shards), the
//! hashed delays, the exclusion check below, and the colour bit a request's
//! priority is read from instead of riding in the message. It
//! deliberately omits the failure-detector, crash, and membership machinery
//! (nobody is ever suspected): the scale tier answers throughput and
//! contention questions on correct runs, and the general simulator plus
//! golden traces remain the oracle for faults.
//!
//! Safety checking at scale cannot afford dense traces, so exclusion is
//! checked by *reading* each new session's neighbours at the end of its
//! tick. Every process has one word shared by all shards (`since`, by
//! global id): the tick it became hungry or stopped eating, or, with
//! `EATING_BIT` set, the tick its session started. A start is recorded
//! there and in its shard's `started` list. Once every shard has processed
//! the tick, and so no shard writes process state, `check_starts` reads
//! the word of each neighbour `q` of each process `p` that started, and
//! counts a mistake iff `q` is eating and started either before the tick
//! or in it with `q < p`.
//!
//! That counts each overlapping pair of sessions exactly once. A session
//! lasts at least one tick, and a process cannot end a session and start
//! another in one tick (its next hunger comes at least a tick after the
//! end). So at the end of the later start's tick, the earlier session is
//! still running exactly when the two overlap, and of two starts in one
//! tick only the higher id counts the pair. A fault-free run must report
//! zero.

use crate::alg1::{self, Msg, FORK};
use crate::obs::{splitmix, LatencyHistogram, Reservoir};
use crate::slots::SlotStore;
use ekbd_graph::partition::Partition;
use ekbd_graph::ConflictGraph;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Phase values in the 2-bit header field.
const THINKING: u8 = 0;
const HUNGRY: u8 = 1;
const EATING: u8 = 2;
/// Doorway bit in the header.
const INSIDE: u8 = 1 << 2;

/// Set in a process's shared `since` word while it eats; the rest of the
/// word is then the tick its session started.
const EATING_BIT: u64 = 1 << 63;

/// Event kinds, ordered so that the packed-word integer order gives the
/// canonical intra-tick processing order: protocol messages (0–3, the
/// discriminants of [`Msg`]), then a hunger, then a session end.
const K_PING: u64 = Msg::Ping as u64;
const K_ACK: u64 = Msg::Ack as u64;
const K_REQUEST: u64 = Msg::Request as u64;
const K_FORK: u64 = Msg::Fork as u64;
const K_HUNGRY: u64 = 4;
const K_EATEND: u64 = 5;

/// Set in a slot's `rev_slot` word when the slot's process has the lower
/// colour of its edge. Slot indices are below 2²², so the bit is free.
const LOWER_COLOR: u32 = 1 << 31;

/// How far `now` may run past a wire's `epoch` before its floors are
/// rebased: far enough that a rebase is rare, near enough that every
/// floor, at most a wheel's length past `now`, fits its `u32`.
const REBASE_AFTER: u64 = 1 << 31;

/// Event words per chunk of a wheel's slot store: 512 bytes, a small
/// fraction of a busy tick's batch on a large graph.
const WHEEL_CHUNK: usize = 64;

/// The layout of an event word on one graph: `(to, kind, slot)` in the
/// low `⌈log₂ n⌉ + 3 + ⌈log₂ δ⌉` bits, `to` highest, so that plain `u64`
/// order is the canonical per-tick order and the word is its own sort key.
#[derive(Clone, Copy, Debug)]
struct KeyShape {
    slot_bits: u32,
    key_bits: u32,
}

impl KeyShape {
    /// The shape for `n` processes of degree at most `max_degree`.
    fn new(n: usize, max_degree: usize) -> Self {
        let bits = |count: usize| usize::BITS - count.saturating_sub(1).leading_zeros();
        let slot_bits = bits(max_degree);
        KeyShape {
            slot_bits,
            key_bits: bits(n) + 3 + slot_bits,
        }
    }

    /// Passes of the radix sort: one per byte of the key.
    fn passes(self) -> usize {
        self.key_bits.div_ceil(8) as usize
    }

    /// The shortest batch the radix sort orders, `2^(2·passes + 3)` words:
    /// 128 at two passes, 512 at three, 2 048 at four. A pass costs about
    /// the same per word at any length, plus a 256-entry count table, while
    /// `sort_unstable`'s cost per word grows with the batch's length, so
    /// every extra pass moves the break-even further out. Timed on captured
    /// ticks, it lies at 128 words for two passes (`net-saturated`'s ring),
    /// between 192 and 1 024 for three, and from 1 024 to past 2 048 for
    /// four (EXPERIMENTS § *A cheaper packed tick*).
    fn radix_min(self) -> usize {
        1 << (2 * self.passes() + 3)
    }

    /// The word of an event of `kind` for process `to`, on `to`'s
    /// adjacency slot `slot` (0 for a hunger or a session end).
    #[inline]
    fn encode(self, to: u32, kind: u64, slot: u32) -> u64 {
        let word = ((to as u64) << (3 + self.slot_bits)) | (kind << self.slot_bits) | slot as u64;
        debug_assert!(
            kind < 8 && u64::from(slot) >> self.slot_bits == 0 && word >> self.key_bits == 0,
            "event ({to}, {kind}, {slot}) outside the key shape {self:?}"
        );
        word
    }

    /// `(to, kind, slot)` of an event word.
    #[inline]
    fn decode(self, w: u64) -> (u32, u64, u32) {
        (
            (w >> (3 + self.slot_bits)) as u32,
            (w >> self.slot_bits) & 0x7,
            (w & ((1 << self.slot_bits) - 1)) as u32,
        )
    }
}

/// Sorts a tick's `batch` into canonical order, using `buf` as the second
/// buffer of an LSD radix sort on the words' byte digits (three passes at
/// 40 000 processes of degree ≤ 32, seven at most). Batches shorter than
/// [`KeyShape::radix_min`] keep `sort_unstable`.
///
/// A tick never holds two equal words: the FIFO bump lets a channel
/// deliver at most one protocol message a tick, and a process has at most
/// one hunger and one session end pending at a time.
fn order(batch: &mut Vec<u64>, buf: &mut Vec<u64>, shape: KeyShape) {
    if batch.len() < shape.radix_min() {
        batch.sort_unstable();
        return;
    }
    let len = u32::try_from(batch.len()).expect("a tick holds fewer than 2^32 events");
    let passes = shape.passes();
    let mut counts = [[0u32; 256]; 7];
    for &w in batch.iter() {
        for (d, c) in counts[..passes].iter_mut().enumerate() {
            c[(w >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    buf.clear();
    buf.resize(batch.len(), 0);
    for (d, c) in counts[..passes].iter_mut().enumerate() {
        let digit = |w: u64| (w >> (8 * d)) as usize & 0xff;
        // A digit every word shares moves nothing.
        if c[digit(batch[0])] == len {
            continue;
        }
        let mut at = 0;
        for slot in c.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &w in batch.iter() {
            let slot = &mut c[digit(w)];
            buf[*slot as usize] = w;
            *slot += 1;
        }
        std::mem::swap(batch, buf);
    }
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
    /// Eating-duration range (ticks, inclusive).
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
    /// Global ids of member processes, ascending.
    pub(crate) members: Vec<u32>,
    /// For every process of the graph, its index within its own shard's
    /// `members` — one table shared read-only by all shards, like `owner`,
    /// and like it outside the S1 words.
    local_index: Arc<Vec<u32>>,
    /// Local CSR: `loff[l]..loff[l+1]` are member `l`'s adjacency slots.
    loff: Vec<u32>,
    /// 3 header bits per member (phase + doorway).
    header: Vec<u8>,
    /// The [`alg1`] words of every local slot, member after member: slot
    /// `g` occupies bits `[6g, 6g+6)` — the S1 layout, literally.
    flags: Vec<u64>,
    /// Everything a send touches, kept apart from `flags` so that an
    /// action can send while it holds them.
    wire: Wire,
    /// Per process of the graph, shared by all shards and written only by
    /// its owner: the tick it became hungry or stopped eating, or, with
    /// [`EATING_BIT`], the tick it started eating. `check_starts` reads the
    /// neighbours' words once no shard writes them. `Relaxed` suffices:
    /// a word publishes nothing but itself, and every driver separates a
    /// tick's writes from its check by program order on one thread or by
    /// a `Barrier`, which orders memory like a mutex.
    since: Arc<[AtomicU64]>,
    /// Members that started eating this tick, for `check_starts`.
    started: Vec<u32>,
    /// Per member: sessions completed, which fixes the length of the
    /// session it eats (see `session_len`).
    pub(crate) eats: Vec<u32>,
    /// Scratch for the current tick's sorted events.
    batch: Vec<u64>,
    /// The radix sort's second buffer (see [`order`]).
    radix: Vec<u64>,
    // ---- per-shard counters, merged into the run report ----
    pub(crate) events: u64,
    pub(crate) mistakes: u64,
    pub(crate) latency: LatencyHistogram,
    pub(crate) excerpts: Reservoir<EatExcerpt>,
    /// When set, eat start/stop transitions are appended to `obs` for an
    /// external driver ([`InteractiveScale`]) to drain. Off (and empty)
    /// for the batch workload paths.
    record_obs: bool,
    obs: Vec<(u64, u32, bool)>,
}

/// One shard's slice of the graph, gathered by [`PackedKernel::new`]'s
/// single pass before the shard is built: its members (ascending) and
/// their slots, in local CSR form.
struct LocalCsr {
    members: Vec<u32>,
    loff: Vec<u32>,
    ladj: Vec<u32>,
    rev_slot: Vec<u32>,
}

impl LocalCsr {
    fn with_sizes(members: usize, slots: usize) -> Self {
        let mut loff = Vec::with_capacity(members + 1);
        loff.push(0);
        LocalCsr {
            members: Vec::with_capacity(members),
            loff,
            ladj: Vec::with_capacity(slots),
            rev_slot: Vec::with_capacity(slots),
        }
    }
}

/// A shard's outgoing side: where each local slot leads, the per-channel
/// FIFO state, and the timer wheel every event of the shard waits on.
struct Wire {
    /// The shard this is.
    id: usize,
    /// Global neighbor id per local slot (sorted within each process).
    ladj: Vec<u32>,
    /// For local slot `g` (me → q): in the low 22 bits my slot index
    /// within q's adjacency, stamped into event words so the receiver's
    /// lookup is O(1); in [`LOWER_COLOR`] whether my colour is below q's,
    /// the one thing action 7 reads of the colouring.
    rev_slot: Vec<u32>,
    /// Per-channel send count (me → q) mod 2¹⁶, feeding the stateless
    /// delay hash.
    seq: Vec<u16>,
    /// Per-channel last delivery tick, enforcing FIFO, counted from
    /// `epoch`.
    last_del: Vec<u32>,
    /// The tick every `last_del` counts from. [`Wire::send`] moves it to
    /// `now` once `now` is [`REBASE_AFTER`] ticks past it (`rebase`).
    epoch: u64,
    /// Timer wheel: ring of per-tick event lists, holding memory only for
    /// pending events.
    wheel: SlotStore<u64, WHEEL_CHUNK>,
    /// How an event word is laid out on this graph.
    shape: KeyShape,
    /// Protocol messages sent, merged into the report.
    messages: u64,
}

/// A shard's final state plus the tick its worker stopped at, moved out
/// of a worker thread at the end of a sharded run.
pub(crate) struct ShardHandle {
    pub(crate) state: ShardState,
    pub(crate) final_tick: u64,
}

/// The packed kernel: shared immutable topology plus one `ShardState`
/// per shard. Drive it with [`run_sequential`](Self::run_sequential) (one
/// thread, any shard count) or [`shard::run_sharded`](crate::shard::run_sharded)
/// (one worker thread per shard) — both produce identical results.
pub struct PackedKernel {
    pub(crate) config: ScaleConfig,
    pub(crate) n: usize,
    /// Shard of each process.
    pub(crate) owner: Vec<u8>,
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
    /// Protocol messages sent (pings/acks/requests/forks).
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
    /// Bytes the event queues held at the end of the run: every shard's
    /// wheel — a slot store, which keeps the chunks its fullest moment
    /// needed — and its two tick buffers, the batch and the radix sort's
    /// second buffer, each sized by the largest tick. Not part of
    /// [`PackedKernel::state_bytes`], and excluded from the fingerprint
    /// because it depends on the shard count.
    pub queue_bytes: usize,
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

    /// Length of member `l`'s next session: a hash of its id and the
    /// sessions it completed.
    #[inline]
    fn session_len(&self, cfg: &ScaleConfig, l: usize) -> u64 {
        ranged(cfg.seed, eat_salt(), self.members[l], self.eats[l], cfg.eat)
    }

    /// The internal guards in enabling order 2 → 5 → 6 → 9, on the S1
    /// words themselves ([`alg1::hungry`]). The kernel is fault-free, so
    /// nobody is ever suspected.
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
        let (from, slots, mut inside) = (self.members[l], self.slots(l), self.inside(l));
        let wire = &mut self.wire;
        let eats = alg1::hungry(
            &mut self.flags,
            slots,
            &mut inside,
            |_| false,
            |g, msg| wire.send(cfg, now, from, g, msg, owner, out),
        );
        self.set_inside(l, inside);
        if eats {
            self.start_eating(cfg, now, l);
        }
    }

    /// Action 9's effect: records the start for `check_starts`, schedules
    /// the session end.
    fn start_eating(&mut self, cfg: &ScaleConfig, now: u64, l: usize) {
        self.set_phase(l, EATING);
        let me = self.members[l];
        let since = &self.since[me as usize];
        let lat = now - since.load(Relaxed);
        since.store(now | EATING_BIT, Relaxed);
        self.started.push(l as u32);
        self.latency.record(lat);
        self.excerpts.offer(
            mix3(cfg.seed, now, me as u64, 0xec5e),
            EatExcerpt {
                tick: now,
                process: me,
                latency: lat,
            },
        );
        let end = self.wire.shape.encode(me, K_EATEND, 0);
        self.wire.push(now, now + self.session_len(cfg, l), end);
        if self.record_obs {
            self.obs.push((now, me, true));
        }
    }

    /// Counts the exclusion mistakes of the sessions this shard started at
    /// `now`: for each neighbour `q` of a process `p` that started, one iff
    /// `q` eats in a session that started before `now`, or at `now` with
    /// `q < p`. Every driver calls it once every shard has processed `now`
    /// and before any processes the next tick, so the `since` words it
    /// reads are the tick's last (see the module doc).
    pub(crate) fn check_starts(&mut self, now: u64) {
        let mut mistakes = 0;
        for &l in &self.started {
            let p = self.members[l as usize];
            for &q in &self.wire.ladj[self.slots(l as usize)] {
                let word = self.since[q as usize].load(Relaxed);
                if word & EATING_BIT != 0 && (word & !EATING_BIT, q) < (now, p) {
                    mistakes += 1;
                }
            }
        }
        self.mistakes += mistakes;
        self.started.clear();
    }

    /// Action 10: exit — go thinking, grant deferred requests and pings.
    fn exit(
        &mut self,
        cfg: &ScaleConfig,
        now: u64,
        l: usize,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        self.set_inside(l, false);
        self.set_phase(l, THINKING);
        self.since[self.members[l] as usize].store(now, Relaxed);
        let (from, slots, wire) = (self.members[l], self.slots(l), &mut self.wire);
        alg1::exit(&mut self.flags, slots, |g, msg| {
            wire.send(cfg, now, from, g, msg, owner, out)
        });
    }

    /// Processes every event scheduled for tick `now`, appending
    /// cross-shard events to `out[dst_shard]`.
    pub(crate) fn process_tick(
        &mut self,
        cfg: &ScaleConfig,
        owner: &[u8],
        now: u64,
        out: &mut [Vec<(u64, u64)>],
    ) {
        debug_assert!(
            self.started.iter().all(|&l| {
                self.since[self.members[l as usize] as usize].load(Relaxed) == now | EATING_BIT
            }),
            "the starts of an earlier tick were never checked"
        );
        let slot = (now % self.wire.wheel.slot_count() as u64) as usize;
        if self.wire.wheel.is_empty(slot) {
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        self.wire.wheel.drain_newest_first(slot, &mut batch);
        // Canonical order, whatever order the wheel kept: plain integer
        // order = (to, kind, slot).
        let shape = self.wire.shape;
        order(&mut batch, &mut self.radix, shape);
        debug_assert!(
            batch.windows(2).all(|p| p[0] < p[1]),
            "the words of a tick strictly increase"
        );
        for &word in &batch {
            self.events += 1;
            let (to, kind, slot) = shape.decode(word);
            let l = self.local_of(to);
            let g = self.loff[l] as usize + slot as usize;
            let (hungry, inside) = (self.phase(l) == HUNGRY, self.inside(l));
            match kind {
                K_PING => {
                    if alg1::ping(&mut self.flags, g, inside, hungry) {
                        self.wire.send(cfg, now, to, g, Msg::Ack, owner, out);
                    }
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_ACK => {
                    alg1::ack(&mut self.flags, g, hungry && !inside);
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_REQUEST => {
                    // Action 7: which colour is lower is the slot's static
                    // bit instead of riding in the message.
                    debug_assert!(
                        alg1::get(&self.flags, g, FORK),
                        "Lemma 1.1: request without fork"
                    );
                    let outranked = hungry && self.wire.rev_slot[g] & LOWER_COLOR != 0;
                    if alg1::request(&mut self.flags, g, inside, outranked) {
                        self.wire.send(cfg, now, to, g, Msg::Fork, owner, out);
                    }
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_FORK => {
                    debug_assert!(
                        !alg1::get(&self.flags, g, FORK),
                        "Lemma 1.2: duplicate fork"
                    );
                    alg1::fork(&mut self.flags, g);
                    self.internal_actions(cfg, now, l, owner, out);
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
                    self.since[to as usize].store(now, Relaxed);
                    self.internal_actions(cfg, now, l, owner, out);
                }
                K_EATEND => {
                    debug_assert_eq!(self.phase(l), EATING);
                    self.exit(cfg, now, l, owner, out);
                    self.eats[l] += 1;
                    if self.record_obs {
                        self.obs.push((now, to, false));
                    }
                    if self.eats[l] < cfg.sessions {
                        let think = ranged(cfg.seed, think_salt(), to, self.eats[l], cfg.think);
                        let hunger = shape.encode(to, K_HUNGRY, 0);
                        self.wire.push(now, now + 1 + think, hunger);
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
            self.wire.push(now, delivery, word);
        }
    }

    /// Earliest pending tick, for the global time-advance consensus.
    pub(crate) fn next_event_after(&self, now: u64) -> u64 {
        let wheel = &self.wire.wheel;
        if wheel.len() == 0 {
            return u64::MAX;
        }
        let len = wheel.slot_count() as u64;
        for dt in 1..len {
            if !wheel.is_empty(((now + dt) % len) as usize) {
                return now + dt;
            }
        }
        unreachable!("pending events must live within the wheel window");
    }
}

impl Wire {
    fn push(&mut self, now: u64, delivery: u64, word: u64) {
        let len = self.wheel.slot_count() as u64;
        assert!(
            delivery > now && delivery - now < len,
            "delivery {delivery} outside wheel window at tick {now}"
        );
        self.wheel.push((delivery % len) as usize, word);
    }

    /// Moves `epoch` to `now`: every floor loses the shift, clamped at 0.
    /// That is exact. A floor at or below `now` never binds again, since
    /// every delay is at least 1, and 0 now means `now`; a floor still
    /// ahead of `now` keeps its tick.
    fn rebase(&mut self, now: u64) {
        let shift = u32::try_from(now - self.epoch).unwrap_or(u32::MAX);
        for floor in &mut self.last_del {
            *floor = floor.saturating_sub(shift);
        }
        self.epoch = now;
    }

    /// Sends `msg` from process `from` on its local slot `g`: stateless
    /// hashed delay, FIFO-bumped per channel, onto this shard's wheel or
    /// into the receiver's shard's outbox.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot path: fields unpacked by the dispatcher
    fn send(
        &mut self,
        cfg: &ScaleConfig,
        now: u64,
        from: u32,
        g: usize,
        msg: Msg,
        owner: &[u8],
        out: &mut [Vec<(u64, u64)>],
    ) {
        if now - self.epoch >= REBASE_AFTER {
            self.rebase(now);
        }
        let to = self.ladj[g];
        let delay = 1 + mix3(cfg.seed, from as u64, to as u64, self.seq[g] as u64) % cfg.delay_max;
        self.seq[g] = self.seq[g].wrapping_add(1);
        let delivery = (now + delay).max(self.epoch + u64::from(self.last_del[g]) + 1);
        // A delivery lands within a wheel's length of `now` (`push`
        // asserts it on the receiving shard), so it fits the `u32`.
        debug_assert!(delivery - self.epoch <= u64::from(u32::MAX));
        self.last_del[g] = (delivery - self.epoch) as u32;
        self.messages += 1;
        let word = self
            .shape
            .encode(to, msg as u64, self.rev_slot[g] & !LOWER_COLOR);
        let dst = owner[to as usize] as usize;
        if dst == self.id {
            self.push(now, delivery, word);
        } else {
            out[dst].push((delivery, word));
        }
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
        // Each shard's members and slots are counted first, so every
        // array of its local CSR is allocated once, at its final size.
        let mut sizes = vec![(0, 0); partition.shards];
        for p in graph.processes() {
            let (members, slots) = &mut sizes[owner[p.index()] as usize];
            *members += 1;
            *slots += graph.degree(p);
        }
        let mut csr: Vec<LocalCsr> = sizes
            .into_iter()
            .map(|(members, slots)| LocalCsr::with_sizes(members, slots))
            .collect();
        // Then one ascending pass over the graph. Each shard receives its
        // members in ascending id order, as `Partition::members` lists
        // them, so a process's local index is its shard's count so far.
        // And `p`'s slot in `q`'s sorted list is the number of `q`'s
        // neighbors below `p`, all of which came before `p`: one cursor
        // per process, advanced each time a neighbor reaches it.
        let mut local_index = Vec::with_capacity(n);
        let mut cursor = vec![0u32; n];
        for p in graph.processes() {
            let part = &mut csr[owner[p.index()] as usize];
            local_index.push(u32::try_from(part.members.len()).expect("shard size fits u32"));
            part.members.push(p.0);
            for &q in graph.neighbors(p) {
                assert_ne!(
                    colors[p.index()],
                    colors[q.index()],
                    "coloring must be proper"
                );
                part.ladj.push(q.0);
                let back = &mut cursor[q.index()];
                debug_assert_eq!(graph.neighbors(q)[*back as usize], p);
                let lower = colors[p.index()] < colors[q.index()];
                part.rev_slot
                    .push(*back | if lower { LOWER_COLOR } else { 0 });
                *back += 1;
            }
            part.loff
                .push(u32::try_from(part.ladj.len()).expect("slot count fits u32"));
        }
        let local_index = Arc::new(local_index);
        let wheel_len = config.wheel_len();
        let shape = KeyShape::new(n, graph.max_degree());
        let since: Arc<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let mut shards = Vec::with_capacity(partition.shards);
        for (sid, part) in csr.into_iter().enumerate() {
            let LocalCsr {
                members,
                loff,
                ladj,
                rev_slot,
            } = part;
            let slots = ladj.len();
            let mut shard = ShardState {
                loff,
                header: vec![THINKING; members.len()],
                flags: vec![0u64; alg1::words_for(slots)],
                wire: Wire {
                    id: sid,
                    ladj,
                    rev_slot,
                    seq: vec![0; slots],
                    last_del: vec![0; slots],
                    epoch: 0,
                    wheel: SlotStore::new(wheel_len),
                    shape,
                    messages: 0,
                },
                since: since.clone(),
                started: Vec::new(),
                eats: vec![0; members.len()],
                batch: Vec::new(),
                radix: Vec::new(),
                events: 0,
                mistakes: 0,
                latency: LatencyHistogram::new(),
                excerpts: Reservoir::new(config.seed ^ 0xe8ce_4a17, config.excerpt_cap),
                record_obs: false,
                obs: Vec::new(),
                members,
                local_index: local_index.clone(),
            };
            // §3.1 initial placement: fork at the higher color, token at
            // the lower; and every process schedules its first hunger.
            for l in 0..shard.members.len() {
                let me = shard.members[l];
                for g in shard.slots(l) {
                    let higher = shard.wire.rev_slot[g] & LOWER_COLOR == 0;
                    alg1::place(&mut shard.flags, g, higher);
                }
                let think = ranged(config.seed, think_salt(), me, 0, config.think);
                let hunger = shard.wire.shape.encode(me, K_HUNGRY, 0);
                shard.wire.push(0, 1 + think, hunger);
            }
            shards.push(shard);
        }
        PackedKernel {
            config,
            n,
            owner,
            shards,
        }
    }

    /// Bytes of the per-process and per-slot words the shards keep:
    ///
    /// * Algorithm 1's S1 state: a header byte (3 bits used) per process
    ///   and 6 flag bits per slot, packed in `u64` words;
    /// * scheduling: per slot the neighbor's id and the reverse slot with
    ///   its colour bit (4 B each), the channel's send count (2 B) and its
    ///   last delivery tick from the wire's epoch (4 B): 14.75 B a slot
    ///   with the flags;
    /// * the workload and the exclusion check: per process `since` (8 B,
    ///   one word shared by all shards) and `eats` (4 B).
    ///
    /// Excludes the shared graph and index tables, each shard's member
    /// list and slot offsets, and the event queues
    /// ([`ScaleRunReport::queue_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let w = &s.wire;
                s.header.len()
                    + s.flags.len() * 8
                    + (w.rev_slot.len() + w.ladj.len() + w.last_del.len()) * 4
                    + w.seq.len() * 2
                    + s.eats.len() * 4
            })
            .sum::<usize>()
            + self.n * size_of::<AtomicU64>()
    }

    /// Drives every shard in lock-step on the calling thread. Exists as
    /// the reference implementation the threaded driver must match
    /// bit-for-bit, and as the `--shards 1` fast path.
    pub fn run_sequential(mut self) -> ScaleRunReport {
        let cfg = self.config.clone();
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
                shard.process_tick(&cfg, &self.owner, now, &mut out[sid]);
            }
            for shard in self.shards.iter_mut() {
                shard.check_starts(now);
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
        let mut queue_bytes = 0;
        for shard in self.shards {
            queue_bytes += shard.wire.wheel.retained_bytes()
                + (shard.batch.capacity() + shard.radix.capacity()) * size_of::<u64>();
            for (l, &m) in shard.members.iter().enumerate() {
                eats[m as usize] = shard.eats[l];
                if shard.phase(l) == HUNGRY {
                    starving += 1;
                }
            }
            events += shard.events;
            messages += shard.wire.messages;
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
            queue_bytes,
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
        shard.wire.wheel.clear();
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
        self.kernel.shards[0].wire.wheel.len() > 0
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
        let hunger = shard.wire.shape.encode(p, K_HUNGRY, 0);
        shard.wire.push(self.now, self.now + 1, hunger);
        self.queued[p as usize] = true;
        true
    }

    /// Advances virtual time until the kernel is quiescent or `max_ticks`
    /// event-bearing ticks have been processed, appending observed eat
    /// transitions to `obs`. Returns the number of ticks processed.
    pub fn step(&mut self, max_ticks: u64, obs: &mut Vec<EatObs>) -> u64 {
        let kernel = &mut self.kernel;
        let (cfg, owner) = (&kernel.config, &kernel.owner);
        let shard = &mut kernel.shards[0];
        let mut ticks = 0u64;
        while ticks < max_ticks {
            let next = shard.next_event_after(self.now);
            if next == u64::MAX {
                break;
            }
            self.now = next;
            shard.process_tick(cfg, owner, next, &mut self.out_scratch);
            shard.check_starts(next);
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
mod wheel_tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random};

    /// A wheel of one `Vec` per tick slot kept each slot's largest burst:
    /// 352 256 words on this run, 19× the 18 618 ever pending at once.
    #[test]
    fn a_wheel_retains_at_most_twice_its_pending_high_water() {
        let g = random::sparse_gnp(10_000, 6.0 / 9_999.0, 35);
        let colors = coloring::greedy(&g);
        let part = greedy_edge_cut(&g, 1);
        let mut kernel = PackedKernel::new(&g, &colors, &part, ScaleConfig::default().seed(35));
        let cfg = kernel.config.clone();
        let mut out = vec![Vec::new()];
        let (mut now, mut pending_hw) = (0, kernel.shards[0].wire.wheel.len());
        // Pending only grows within a tick once its batch is taken, so the
        // count after each tick is the high-water mark.
        loop {
            now = kernel.shards[0].next_event_after(now);
            if now == u64::MAX {
                break;
            }
            kernel.shards[0].process_tick(&cfg, &kernel.owner, now, &mut out);
            kernel.shards[0].check_starts(now);
            pending_hw = pending_hw.max(kernel.shards[0].wire.wheel.len());
        }
        let retained = kernel.shards[0].wire.wheel.retained_chunks() * WHEEL_CHUNK;
        assert!(
            retained <= 2 * pending_hw,
            "{retained} words retained for a pending high-water of {pending_hw}"
        );
    }

    /// The tick batch and the radix sort's second buffer are each sized
    /// by the largest tick: neither keeps more than twice its events.
    #[test]
    fn tick_buffers_retain_at_most_twice_the_largest_tick() {
        let g = random::sparse_gnp(10_000, 6.0 / 9_999.0, 35);
        let colors = coloring::greedy(&g);
        let part = greedy_edge_cut(&g, 1);
        let mut kernel = PackedKernel::new(&g, &colors, &part, ScaleConfig::default().seed(35));
        let cfg = kernel.config.clone();
        let mut out = vec![Vec::new()];
        let (mut now, mut largest) = (0, 0);
        loop {
            now = kernel.shards[0].next_event_after(now);
            if now == u64::MAX {
                break;
            }
            let before = kernel.shards[0].events;
            kernel.shards[0].process_tick(&cfg, &kernel.owner, now, &mut out);
            kernel.shards[0].check_starts(now);
            largest = largest.max(kernel.shards[0].events - before);
        }
        let shard = &kernel.shards[0];
        assert!(
            largest as usize >= shard.wire.shape.radix_min(),
            "the radix sort ran"
        );
        for (name, cap) in [
            ("batch", shard.batch.capacity()),
            ("radix", shard.radix.capacity()),
        ] {
            assert!(
                cap as u64 <= 2 * largest,
                "{name} keeps {cap} words for a largest tick of {largest}"
            );
        }
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_shapes_take_the_passes_their_graphs_need() {
        let shape = |n, degree| {
            let shape = KeyShape::new(n, degree);
            (shape.passes(), shape.radix_min())
        };
        assert_eq!(shape(40_000, 20), (3, 512), "sim-packed's 40 000 processes");
        assert_eq!(shape(1024, 2), (2, 128), "ring-1024");
        assert_eq!(shape(100_000, 1_037), (4, 2048), "powerlaw(100 000, 3)");
        assert_eq!(
            shape((1 << 26) - 1, (1 << 22) - 1),
            (7, 1 << 17),
            "the widest event word"
        );
        assert_eq!(shape(1, 0), (1, 32));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On any batch of distinct event words — the only batches a tick
        /// holds — `order` sorts by `(to, kind, slot)`, which is the
        /// words' integer order, on both sides of the shape's fallback
        /// length (up to twice it) and at every pass count from one to
        /// seven, on shapes up to 26 process bits and 22 slot bits. Every
        /// word decodes to the fields it was encoded from. The second
        /// buffer is reused, stale, by a second batch.
        #[test]
        fn order_sorts_distinct_words_by_to_kind_slot(
            passes in 1u32..=7,
            short in 0u32..8,
            slot_share in 0u32..=22,
            eighths in 0usize..16,
            seed in 0..u64::MAX,
        ) {
            // `n_bits + 3 + slot_bits` key bits, `passes` bytes of them.
            let spread = (8 * passes - short).clamp(3, 51) - 3;
            let slot_bits = slot_share.min(spread).max(spread.saturating_sub(26));
            let n_bits = spread - slot_bits;
            let (n, degree) = (1u64 << n_bits, 1u64 << slot_bits);
            let shape = KeyShape::new(n as usize, degree as usize);
            proptest::prop_assert_eq!(shape.passes(), passes as usize);
            let len = shape.radix_min() * eighths / 8;
            let mut seen = HashSet::new();
            let mut words = Vec::with_capacity(len);
            for i in 0..len as u64 {
                let r = splitmix(seed ^ i);
                let h = splitmix(r);
                let fields = ((r % n) as u32, (r >> 40) & 0x7, (h % degree) as u32);
                let word = shape.encode(fields.0, fields.1, fields.2);
                proptest::prop_assert_eq!(shape.decode(word), fields);
                if seen.insert(word) {
                    words.push(word);
                }
            }
            let mut buf = Vec::new();
            for batch in [words.clone(), words.iter().rev().copied().collect()] {
                let (mut got, mut want) = (batch.clone(), batch);
                order(&mut got, &mut buf, shape);
                want.sort_unstable_by_key(|&w| shape.decode(w));
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}

#[cfg(test)]
mod mark_tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random, topology};

    /// Every event of a run is a delivered protocol message, a hunger or
    /// a session end, one each a meal: checking exclusion sends nothing.
    #[test]
    fn every_event_is_a_message_a_hunger_or_a_session_end() {
        let graphs = [
            ("ring-32", topology::ring(32), 3),
            ("grid-6x6", topology::grid(6, 6), 7),
            ("powerlaw-80", random::powerlaw(80, 3, 11), 9),
            (
                "sparse-gnp-2000",
                random::sparse_gnp(2000, 6.0 / 1999.0, 1),
                1,
            ),
        ];
        for (name, g, seed) in &graphs {
            let colors = coloring::greedy(g);
            for shards in [1, 2] {
                let part = greedy_edge_cut(g, shards);
                let config = ScaleConfig::default().seed(*seed);
                let report = PackedKernel::new(g, &colors, &part, config).run_sequential();
                assert!(
                    report.verdict() && report.starving == 0,
                    "{name}: the run completes"
                );
                let meals: u64 = report.eats.iter().map(|&e| u64::from(e)).sum();
                assert_eq!(
                    report.events,
                    report.messages + 2 * meals,
                    "{name}, {shards} shard(s)"
                );
            }
        }
    }
}

#[cfg(test)]
mod state_tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random};

    /// The S1 words, 14 bytes of scheduling a slot, a session count a
    /// process and the shared `since` word read 101.4 B a process on this
    /// graph (137.4 with a `u32` send count and a `u64` floor).
    #[test]
    fn the_kernel_keeps_at_most_110_bytes_a_process() {
        let g = random::sparse_gnp(10_000, 6.0 / 9_999.0, 35);
        let colors = coloring::greedy(&g);
        let part = greedy_edge_cut(&g, 1);
        let kernel = PackedKernel::new(&g, &colors, &part, ScaleConfig::default().seed(35));
        let per_process = kernel.state_bytes() as f64 / g.len() as f64;
        assert!(per_process <= 110.0, "{per_process:.2} B a process");
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use ekbd_graph::topology;

    /// `path(2)` with each process on its own shard: every send of process
    /// 0 on its one slot goes to the outbox with its delivery tick.
    struct Channel {
        kernel: PackedKernel,
        out: Vec<Vec<(u64, u64)>>,
        /// The reference: the last delivery as a plain `u64`, and the
        /// send count.
        floor: u64,
        sent: u64,
    }

    impl Channel {
        fn new(seed: u64) -> Self {
            let g = topology::path(2);
            let part = Partition {
                assignment: vec![0, 1],
                shards: 2,
            };
            let config = ScaleConfig::default().seed(seed);
            Channel {
                kernel: PackedKernel::new(&g, &[0, 1], &part, config),
                out: vec![Vec::new(); 2],
                floor: 0,
                sent: 0,
            }
        }

        fn wire(&mut self) -> &mut Wire {
            &mut self.kernel.shards[0].wire
        }

        /// Sends once at `now`; checks the delivery against the reference
        /// (the hashed delay of the send count mod 2¹⁶, bumped past the
        /// `u64` floor) and returns it.
        fn send(&mut self, now: u64) -> u64 {
            let PackedKernel {
                config,
                owner,
                shards,
                ..
            } = &mut self.kernel;
            shards[0]
                .wire
                .send(config, now, 0, 0, Msg::Ping, owner, &mut self.out);
            let (delivery, word) = self.out[1].pop().expect("one send");
            assert_eq!(word, shards[0].wire.shape.encode(1, K_PING, 0));
            let delay = 1 + mix3(config.seed, 0, 1, self.sent % (1 << 16)) % config.delay_max;
            let want = (now + delay).max(self.floor + 1);
            assert_eq!(
                delivery, want,
                "send {} at tick {now}, epoch {}",
                self.sent, shards[0].wire.epoch
            );
            (self.floor, self.sent) = (delivery, self.sent + 1);
            delivery
        }
    }

    /// One channel's sends across rebases, each checked against a `u64`
    /// floor: some forced at a chosen tick, with the floor ahead of `now`
    /// (a burst just sent) or behind it (after a pause), and the ones
    /// `send` makes itself once `now` is 2³¹ past the epoch, on jumps of
    /// 2³¹ and more. Fails if a rebase drops the shift or does not clamp.
    #[test]
    fn deliveries_keep_their_ticks_across_a_rebase() {
        for seed in 0..8u64 {
            for chosen in [1, 5, 17, 40] {
                let mut ch = Channel::new(seed);
                let starts = [0, REBASE_AFTER - 30, 2 * REBASE_AFTER + 7, 7 * REBASE_AFTER];
                for (i, &start) in starts.iter().enumerate() {
                    let mut now = start;
                    for step in 0..60u64 {
                        let burst = 1 + splitmix(seed ^ step << 8 ^ i as u64) % 4;
                        if step == chosen {
                            ch.wire().rebase(now);
                        }
                        for _ in 0..burst {
                            ch.send(now);
                        }
                        if step == chosen + 1 {
                            ch.wire().rebase(now);
                        }
                        // A pause now and then lets the floor fall behind.
                        now += if step % 7 == 6 { 9 } else { step % 2 };
                    }
                    let epoch = ch.wire().epoch;
                    assert!(
                        now - epoch < REBASE_AFTER && epoch >= start,
                        "seed {seed}: epoch {epoch} for ticks from {start} to {now}"
                    );
                }
            }
        }
    }

    /// 70 000 sends on one channel, a few a tick: the send count wraps at
    /// 2¹⁶ and every delivery still comes strictly after the last.
    #[test]
    fn deliveries_strictly_increase_across_the_send_count_wrap() {
        let mut ch = Channel::new(3);
        let (mut now, mut last) = (0, 0);
        for i in 0..70_000u64 {
            let delivery = ch.send(now);
            assert!(delivery > last, "send {i}: {delivery} after {last}");
            last = delivery;
            now += u64::from(i % 3 == 2);
        }
        assert_eq!(ch.wire().seq[0], (70_000 % (1 << 16)) as u16);
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random, topology, ProcessId};

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

    /// Every slot of `p` toward `q` carries `p`'s position in `q`'s
    /// neighbor list: followed on `q`'s shard it leads back to `p`, and
    /// it is what a search of `q`'s list for `p` finds. Its colour bit
    /// says whether `p`'s colour is below `q`'s.
    #[test]
    fn every_reverse_slot_leads_back() {
        let graphs = [
            ("sparse_gnp", random::sparse_gnp(3_000, 6.0 / 2_999.0, 12)),
            ("powerlaw", random::powerlaw(2_000, 3, 13)),
        ];
        for (name, g) in &graphs {
            let colors = coloring::greedy(g);
            for shards in [1, 2, 4] {
                let part = greedy_edge_cut(g, shards);
                let kernel = PackedKernel::new(g, &colors, &part, ScaleConfig::default());
                for shard in &kernel.shards {
                    for (l, &p) in shard.members.iter().enumerate() {
                        for slot in shard.slots(l) {
                            let (q, word) = (shard.wire.ladj[slot], shard.wire.rev_slot[slot]);
                            let back = word & !LOWER_COLOR;
                            assert_eq!(
                                word & LOWER_COLOR != 0,
                                colors[p as usize] < colors[q as usize],
                                "{name}, {shards} shards, colour bit of slot {slot}"
                            );
                            let there = &kernel.shards[kernel.owner[q as usize] as usize];
                            let first = there.slots(there.local_of(q)).start;
                            assert_eq!(
                                there.wire.ladj[first + back as usize],
                                p,
                                "{name}, {shards} shards, slot {slot} of p{p} toward p{q}"
                            );
                            assert_eq!(
                                g.neighbors(ProcessId(q)).binary_search(&ProcessId(p)),
                                Ok(back as usize)
                            );
                        }
                    }
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
        let PackedKernel { owner, shards, .. } = &mut kernel;
        // Process 5 lives on shard 1; hand its hunger to shard 0.
        let hunger = shards[0].wire.shape.encode(5, K_HUNGRY, 0);
        shards[0].wire.push(0, 1, hunger);
        let mut out = vec![Vec::new(); 2];
        shards[0].process_tick(&cfg, owner, 1, &mut out);
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

#[cfg(test)]
mod ghost_tests {
    use super::*;
    use ekbd_graph::{coloring, topology};

    /// Where a planted session start runs within its tick.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum At {
        /// Before the tick's events, as after a protocol message.
        Before,
        /// After them, as after a hunger or a session end.
        After,
    }

    /// Runs `path(2)` with no workload, process `p` on shard
    /// `assignment[p]`, and starts `p`'s one session by hand at
    /// `starts[p]`. Each tick runs every shard's events, then the
    /// starts after them, then every shard's check. Returns the mistakes
    /// counted and each session's `[start, end)`.
    fn planted(
        seed: u64,
        starts: [(u64, At); 2],
        assignment: [usize; 2],
    ) -> (u64, [(u64, u64); 2]) {
        let g = topology::path(2);
        let colors = coloring::greedy(&g);
        let part = Partition {
            assignment: assignment.map(|s| s as u32).to_vec(),
            shards: 1 + assignment[0].max(assignment[1]),
        };
        let config = ScaleConfig::default().seed(seed).sessions(1);
        let mut kernel = PackedKernel::new(&g, &colors, &part, config);
        let cfg = kernel.config.clone();
        let PackedKernel { owner, shards, .. } = &mut kernel;
        for shard in shards.iter_mut() {
            shard.wire.wheel.clear();
            shard.record_obs = true;
        }
        let mut out = vec![vec![Vec::new(); shards.len()]; shards.len()];
        let start = |shards: &mut [ShardState], now, at| {
            for p in (0..2).filter(|&p| starts[p] == (now, at)) {
                let shard = &mut shards[assignment[p]];
                let l = shard.local_of(p as u32);
                shard.start_eating(&cfg, now, l);
            }
        };
        for now in 0..64 {
            start(shards, now, At::Before);
            for (shard, out) in shards.iter_mut().zip(&mut out) {
                shard.process_tick(&cfg, owner, now, out);
            }
            start(shards, now, At::After);
            for shard in shards.iter_mut() {
                shard.check_starts(now);
            }
            for row in &mut out {
                for (dst, cell) in row.iter_mut().enumerate() {
                    shards[dst].accept(now, cell);
                }
            }
        }
        let mut sessions = [(u64::MAX, u64::MAX); 2];
        for shard in shards.iter() {
            assert_eq!(shard.wire.wheel.len(), 0, "both sessions ended");
            for &(tick, p, started) in &shard.obs {
                let (start, end) = &mut sessions[p as usize];
                *if started { start } else { end } = tick;
            }
        }
        (shards.iter().map(|s| s.mistakes).sum(), sessions)
    }

    /// Every overlap of two neighbours' sessions is counted exactly once,
    /// whichever endpoint starts first, at whichever tick and on whichever
    /// side of that tick's events; sessions apart count nothing. Process
    /// ids 0 and 1 take both roles, so both orders of a same-tick start
    /// are reached, and an earlier session met by a later start.
    #[test]
    fn a_planted_overlap_is_counted_once_and_only_when_sessions_meet() {
        use At::{After, Before};
        let (mut met, mut apart) = (0, 0);
        for seed in 0..40 {
            for fixed in 0..2 {
                for t in 0..=24 {
                    for (a, b) in [
                        (Before, Before),
                        (Before, After),
                        (After, Before),
                        (After, After),
                    ] {
                        let mut starts = [(t, b); 2];
                        starts[fixed] = (12, a);
                        let (mistakes, [(s0, e0), (s1, e1)]) = planted(seed, starts, [0, 0]);
                        let overlap = s0 < e1 && s1 < e0;
                        assert_eq!(
                            mistakes,
                            u64::from(overlap),
                            "seed {seed}, starts {starts:?}: sessions [{s0}, {e0}) and [{s1}, {e1})"
                        );
                        if overlap {
                            met += 1;
                        } else {
                            apart += 1;
                        }
                    }
                }
            }
        }
        assert!(met > 0 && apart > 0, "{met} overlapping, {apart} apart");
    }

    /// The same planted sessions with each process on its own shard, both
    /// shards' ticks and checks driven by hand: the check reads the other
    /// shard's word, and counts exactly what one shard counts — one
    /// mistake exactly when the sessions overlap.
    #[test]
    fn two_shards_count_what_one_shard_counts() {
        use At::{After, Before};
        let mut met = 0;
        for seed in 0..8 {
            for fixed in 0..2 {
                for t in 0..=24 {
                    for (a, b) in [
                        (Before, Before),
                        (Before, After),
                        (After, Before),
                        (After, After),
                    ] {
                        let mut starts = [(t, b); 2];
                        starts[fixed] = (12, a);
                        let one = planted(seed, starts, [0, 0]);
                        let two = planted(seed, starts, [0, 1]);
                        assert_eq!(two, one, "seed {seed}, starts {starts:?}");
                        let (mistakes, [(s0, e0), (s1, e1)]) = two;
                        assert_eq!(mistakes, u64::from(s0 < e1 && s1 < e0));
                        met += mistakes;
                    }
                }
            }
        }
        assert!(met > 0, "some sessions overlapped");
    }
}
