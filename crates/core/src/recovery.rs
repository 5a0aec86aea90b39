//! Crash-recovery hardening of Algorithm 1: incarnation-stamped messages, a
//! per-edge rejoin handshake, and a periodic audit-and-repair pass that makes
//! the daemon state self-stabilizing.
//!
//! The paper's fault model is crash-*stop*. This module extends it to
//! crash-*recovery* with transient state corruption, following the
//! self-stabilization literature: a crashed process may restart with blank
//! (or adversarially scrambled) volatile state, keeping only a single
//! monotone counter — its **incarnation** — in stable storage, and a live
//! process may have fork/token/request bits flipped under it at any time.
//!
//! Three mechanisms restore the paper's properties after such faults:
//!
//! 1. **Incarnation gating.** Every dining message is wrapped with the
//!    sender's incarnation and the sender's view of the receiver's
//!    incarnation (`dst_inc`). A message from a previous life of the peer,
//!    or addressed to a previous life of the receiver, is dropped — so the
//!    pre-crash protocol residue in flight cannot poison the rebuilt state.
//! 2. **Rejoin handshake.** A restarted process announces its new
//!    incarnation ([`RecoveryMsg::Rejoin`]) on every edge and suppresses
//!    dining traffic on an edge until the peer re-canonicalizes it and
//!    answers ([`RecoveryMsg::RejoinAck`]) with an authoritative fork/token
//!    assignment — by default the initial placement (fork at the higher
//!    color, token at the lower), except that an *eating* responder keeps
//!    its fork so re-admission cannot violate exclusion. After the handshake
//!    the edge again holds exactly one fork and one token, the auditable
//!    invariant of Lemma 1. Rejoins are retried from the audit timer, so a
//!    lost or crossed handshake (including simultaneous restarts of both
//!    endpoints) always converges.
//! 3. **Audit-and-repair.** Periodically each process repairs locally
//!    impossible flag states ([`DiningProcess::audit_local`]), clears stuck
//!    pings with 2-strike hysteresis, and exchanges per-edge fork/token
//!    snapshots ([`RecoveryMsg::Audit`]) with live synced peers. Duplicate
//!    or missing forks/tokens (the corruption modes that break safety or
//!    liveness) are repaired after two consecutive bad observations by a
//!    deterministically chosen endpoint: the lower color drops a duplicate
//!    fork and recreates a missing token, the higher color recreates a
//!    missing fork and drops a duplicate token. Hysteresis keeps the audit
//!    from "repairing" a fork that is merely in flight. The process reports
//!    whether a pass was clean ([`DiningAlgorithm::audit_clean`]) and counts
//!    the inputs that should wake a quiet audit
//!    ([`DiningAlgorithm::wakes`]); the host backs its timer off on the
//!    first and snaps it back on the second.
//!
//! A fourth, optional mechanism makes restarts *cheap*:
//!
//! 4. **Journaled resume.** When built [`RecoverableDining::with_journal`],
//!    the process commits a checksummed [`JournalRecord`] of its entire
//!    recoverable state (§7: it fits in `log₂(δ) + 6δ + c` bits) to stable
//!    storage after every transition. On restart it replays the journal
//!    and, instead of the full rejoin, asks each neighbor to confirm the
//!    journaled pairing with a single [`RecoveryMsg::JournalResume`] /
//!    [`RecoveryMsg::ResumeAck`] exchange; the restored fork/token bits are
//!    accepted only if they are exactly complementary to the responder's
//!    (the Lemma 1 edge invariant), and *any* disagreement — a missing or
//!    corrupt journal, a refuted incarnation, an inconsistent edge —
//!    degrades that edge to the blank rejoin handshake. A corrupt journal
//!    can therefore delay readmission but never break safety.
//!
//! The module also implements the **dynamic-membership** extension of
//! [`DiningAlgorithm`]: a process can boot into a running system
//! ([`DiningAlgorithm::join`] — structurally a blank restart whose rejoin
//! handshake doubles as the introduction), leave it gracefully
//! ([`DiningAlgorithm::retire`] — held forks and deferred acks are
//! discharged so no survivor starves), and react to neighbors coming and
//! going ([`DiningAlgorithm::add_peer`], [`DiningAlgorithm::remove_peer`],
//! [`DiningAlgorithm::peer_departed`]). A crash-stop departure is the
//! hostile case: the dead neighbor may take the edge's fork with it, so the
//! edge is kept, the peer counts as suspected in every guard, and the local
//! audit pass remints the stranded fork after the strike policy —
//! deliberately bypassing the busy-edge hysteresis, which exists to protect
//! forks in flight from live senders.

use crate::msg::DiningMsg;
use crate::process::DiningProcess;
use crate::traits::{DinerState, DiningAlgorithm, DiningInput};
use ekbd_detector::SuspicionView;
use ekbd_graph::coloring::Color;
use ekbd_graph::random::splitmix64;
use ekbd_graph::{ConflictGraph, ProcessId};
use ekbd_journal::{BootPath, EdgeRecord, JournalHandle, JournalRecord, ResyncPath};

/// Wire messages of the crash-recovery layer: Algorithm 1's messages
/// wrapped with incarnation stamps, plus the rejoin handshake and the
/// audit exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMsg {
    /// An Algorithm 1 message, stamped with the sender's incarnation and
    /// the sender's view of the receiver's incarnation.
    Dining {
        /// Sender's incarnation.
        inc: u64,
        /// The incarnation of the receiver this message is addressed to.
        dst_inc: u64,
        /// Sequence number of the journal commit this send belongs to
        /// (sends are released only after the commit, so receiving `seq`
        /// proves the sender's record `seq` reached stable storage). The
        /// receiver's per-edge maximum is the yardstick that refutes
        /// stale snapshots at resume time.
        seq: u64,
        /// The wrapped Algorithm 1 message.
        msg: DiningMsg,
    },
    /// "I restarted as incarnation `inc`; please re-canonicalize our edge."
    Rejoin {
        /// The restarted sender's new incarnation.
        inc: u64,
    },
    /// Answer to [`RecoveryMsg::Rejoin`]: the authoritative fork/token
    /// assignment for the rejoiner's side of the edge.
    RejoinAck {
        /// The responder's incarnation.
        inc: u64,
        /// Echo of the rejoiner's incarnation (stale acks are dropped).
        rejoiner_inc: u64,
        /// Whether the rejoiner now holds the edge's fork.
        fork: bool,
        /// Whether the rejoiner now holds the edge's token.
        token: bool,
        /// True when this ack refutes a [`RecoveryMsg::JournalResume`]
        /// whose sequence number proved the snapshot stale — the rejoiner
        /// tags the edge [`ResyncPath::StaleRefuted`] instead of plain
        /// rejoined.
        stale: bool,
    },
    /// Periodic per-edge state snapshot for the audit-and-repair pass.
    Audit {
        /// Sender's incarnation.
        inc: u64,
        /// The receiver incarnation this snapshot is addressed to.
        dst_inc: u64,
        /// Sequence number of the accompanying journal commit (see
        /// [`RecoveryMsg::Dining::seq`]); audits keep the peer's
        /// last-seen watermark fresh even on quiet edges.
        seq: u64,
        /// Whether the sender holds the edge's fork.
        fork: bool,
        /// Whether the sender holds the edge's token.
        token: bool,
    },
    /// "I restarted as incarnation `inc` and replayed my journal; if you
    /// still know me as `journal_inc` and you are still `peer_inc`,
    /// confirm the edge so the rejoin handshake can be skipped."
    JournalResume {
        /// The restarted sender's new incarnation.
        inc: u64,
        /// The incarnation whose journal was replayed (the sender's
        /// previous life as recorded in stable storage).
        journal_inc: u64,
        /// The journaled view of the receiver's incarnation.
        peer_inc: u64,
        /// Sequence number of the replayed record. If the responder has
        /// seen a higher-numbered commit from this sender, the snapshot
        /// is provably stale and the resume is refuted immediately —
        /// without waiting for the per-edge fork/token check.
        seq: u64,
    },
    /// Confirmation of a [`RecoveryMsg::JournalResume`]: the responder's
    /// own holdings, so the resumer can verify the Lemma 1 edge invariant
    /// (exactly one fork, one token) before trusting its replayed state.
    ResumeAck {
        /// The responder's incarnation.
        inc: u64,
        /// Echo of the resumer's incarnation (stale acks are dropped).
        resumer_inc: u64,
        /// Whether the responder holds the edge's fork.
        fork: bool,
        /// Whether the responder holds the edge's token.
        token: bool,
        /// The highest commit sequence number the responder has observed
        /// from the resumer. If it exceeds the replayed record's, the
        /// resumer's own journal is stale (a commit it lost was visible
        /// to this peer) and the resumer degrades the edge itself.
        last_seen: u64,
    },
}

/// Default number of consecutive bad audit observations required before a
/// repair fires. One round of slack absorbs forks/tokens that are merely
/// in flight; see [`RecoverableDining::with_strikes`].
pub const DEFAULT_STRIKES: u8 = 2;

/// Per-edge flag bits a journal replay trusts: fork, token, and deferred
/// acks survive a restart; the ping/ack/replied session bits belong to a
/// hungry session that died with the crash and are cleared.
const RESTORE_MASK: u8 = 0x38;

/// Per-edge recovery bookkeeping.
#[derive(Clone, Debug, Default)]
struct EdgeState {
    /// Highest incarnation of the peer seen on this edge.
    peer_inc: u64,
    /// Whether this side's state on the edge is authoritative. `false`
    /// only between a restart of *this* process and the peer's
    /// [`RecoveryMsg::RejoinAck`].
    synced: bool,
    /// `Some(journal_inc)` while a journal fast path is pending on this
    /// edge: the restart replayed a record written by `journal_inc` and
    /// the audit timer retries [`RecoveryMsg::JournalResume`] (not
    /// `Rejoin`) until the peer answers — which keeps the fast path alive
    /// across partitions and message loss.
    resume_inc: Option<u64>,
    /// Highest commit sequence number observed from the peer (messages
    /// are stamped with the seq of the commit that released them; the
    /// counter is monotone across the peer's incarnations). This is the
    /// watermark a [`RecoveryMsg::JournalResume`] is checked against.
    peer_seq: u64,
    /// How this edge regained sync after the last restart of *this*
    /// process ([`ResyncPath::None`] at genesis and mid-handshake) —
    /// journaled for the post-mortem replay.
    resync: ResyncPath,
    dup_fork: u8,
    missing_fork: u8,
    dup_token: u8,
    missing_token: u8,
    stuck_ping: u8,
    /// Fork- or token-moving dining traffic (Fork / Request messages sent
    /// or accepted) on this edge, ever.
    activity: u64,
    /// Value of `activity` at the previous audit observation. A strike
    /// only accumulates while these are equal: traffic between two audits
    /// proves the edge state is *moving* (a snapshot crossing a fork in
    /// flight), not stuck, and "repairing" it would mint a duplicate.
    audit_activity: u64,
}

impl EdgeState {
    fn fresh(synced: bool) -> Self {
        EdgeState {
            synced,
            ..EdgeState::default()
        }
    }

    fn clear_strikes(&mut self) {
        self.dup_fork = 0;
        self.missing_fork = 0;
        self.dup_token = 0;
        self.missing_token = 0;
        self.stuck_ping = 0;
    }

    /// Whether any strike counter is pending on this edge.
    fn has_strikes(&self) -> bool {
        (self.dup_fork | self.missing_fork | self.dup_token | self.missing_token | self.stuck_ping)
            != 0
    }
}

/// Counters exposed for the metrics layer and experiment E15.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Incoming messages dropped by incarnation gating (previous-life
    /// residue) or because the edge was not yet resynced.
    pub stale_dropped: u64,
    /// Outgoing dining messages suppressed on not-yet-resynced edges.
    pub suppressed: u64,
    /// Fork/token repairs applied by the audit exchange.
    pub repairs: u64,
    /// Locally detected and repaired flag states (stuck pings, stale
    /// session flags).
    pub local_repairs: u64,
    /// Completed per-edge rejoin handshakes (RejoinAcks applied).
    pub resyncs: u64,
    /// Edges resynchronized by the journal fast path (consistent
    /// ResumeAcks applied), skipping the rejoin handshake.
    pub fast_resumes: u64,
}

impl RecoveryStats {
    /// Accumulates another process's counters (for run-wide aggregation).
    pub fn absorb(&mut self, other: RecoveryStats) {
        self.stale_dropped += other.stale_dropped;
        self.suppressed += other.suppressed;
        self.repairs += other.repairs;
        self.local_repairs += other.local_repairs;
        self.resyncs += other.resyncs;
        self.fast_resumes += other.fast_resumes;
    }
}

/// Why a restart rebooted blank instead of replaying its journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlankReason {
    /// No journal is configured (the PR-2 baseline behavior).
    Disabled,
    /// The journal was empty — nothing ever committed, or the backing
    /// storage dropped every sync.
    Missing,
    /// The journaled record failed validation: bad framing or checksum
    /// (torn write, bit rot) or an incarnation from the future.
    Corrupt,
}

/// How one restart re-established its edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartPath {
    /// The journal replayed; per-edge split between confirmed fast
    /// resumes and edges that fell back to the rejoin handshake (the
    /// counts fill in as the handshakes complete).
    Journal {
        /// Edges resynced by a consistent `ResumeAck`.
        resumed: u32,
        /// Edges that degraded to the rejoin handshake.
        rejoined: u32,
        /// Edges whose resume was refuted by sequence comparison (the
        /// snapshot was provably stale) before rejoining.
        stale: u32,
    },
    /// Blank reboot: every edge took the rejoin handshake.
    Blank {
        /// Why the journal was not replayed.
        reason: BlankReason,
    },
}

/// One entry of the per-process restart log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartEvent {
    /// The incarnation this restart began.
    pub incarnation: u64,
    /// Which recovery path it took.
    pub path: RestartPath,
}

/// [`DiningProcess`] hardened for the crash-recovery fault model.
///
/// Wraps Algorithm 1 unchanged — in fault-free runs the wrapper is an
/// incarnation-0 pass-through and the inner machine behaves exactly as the
/// paper specifies. See the [module docs](self) for the recovery protocol.
#[derive(Clone, Debug)]
pub struct RecoverableDining {
    inner: DiningProcess,
    id: ProcessId,
    color: Color,
    /// Sorted `(neighbor, color)` pairs — the immutable configuration a
    /// rebooting process re-reads from its (conceptual) program image.
    peers: Vec<(ProcessId, Color)>,
    inc: u64,
    /// Monotone commit sequence number: incremented on every journal
    /// commit point — counted even when no journal is attached, so the
    /// seq stamps on outgoing messages are identical with and without
    /// journaling (trace invisibility).
    commit_seq: u64,
    /// Last wall/virtual time reported by the host via
    /// [`DiningAlgorithm::note_now`]; stamped into journal records as the
    /// commit-time tick.
    now: u64,
    /// How the current incarnation booted (journal replay vs a blank
    /// reason); journaled for the post-mortem replay.
    boot: BootPath,
    /// Sequence number of the record the last journal replay restored
    /// (0 when the last restart went blank) — echoed in
    /// [`RecoveryMsg::JournalResume`] for the staleness comparison.
    resume_seq: u64,
    /// `edges[i]` is the recovery state of the edge to `peers[i].0`; one
    /// binary search over `peers` ([`slot`](Self::slot)) reaches both.
    edges: Vec<EdgeState>,
    /// Neighbors that crash-stopped out of the system permanently (dynamic
    /// membership), sorted. Departed peers count as suspected in every
    /// inner guard and their edges are excluded from the audit exchange;
    /// the local audit pass remints a fork the dead peer took with it. The
    /// set is membership *configuration*, not volatile protocol state, so
    /// — like `peers` — it survives [`DiningAlgorithm::restart`].
    departed: Vec<ProcessId>,
    stats: RecoveryStats,
    /// The current life began with [`DiningAlgorithm::join`] (runtime
    /// admission) rather than genesis or a crash-recovery restart. A
    /// joiner is the newcomer on every conflict edge grown this life, so
    /// its [`DiningAlgorithm::add_peer`] initiates the rejoin handshake
    /// instead of placing a provisional edge and waiting for one.
    joined_this_life: bool,
    /// Strike threshold for audit repairs (default [`DEFAULT_STRIKES`]).
    strikes: u8,
    /// Stable storage; `None` runs the PR-2 blank-restart protocol.
    journal: Option<JournalHandle>,
    /// One entry per restart, tagged with the path it took.
    restarts: Vec<RestartEvent>,
    /// Whether the last audit pass was clean (see
    /// [`DiningAlgorithm::audit_clean`]).
    audit_clean: bool,
    /// Observable wakes so far (see [`DiningAlgorithm::wakes`]).
    wakes: u64,
    /// Working buffers reused across entry points, never protocol state:
    /// the inner machine's sends before [`forward`](Self::forward) wraps
    /// them, and the journal record's edges and encoding.
    raw: Vec<(ProcessId, DiningMsg)>,
    edge_records: Vec<EdgeRecord>,
    record_bytes: Vec<u8>,
}

/// The local suspicion oracle unioned with the permanently departed
/// neighbors. A departed peer can never ack a ping or grant a fork again,
/// so every oracle-guarded action (doorway entry, eating) must treat it
/// exactly like a suspected crash — even under an oracle (such as the
/// silent one) that never suspects anyone on its own. Without this union a
/// crash-stop departure would starve every survivor that still waits on
/// the dead edge.
struct WithDeparted<'a> {
    base: &'a dyn SuspicionView,
    departed: &'a [ProcessId],
}

impl SuspicionView for WithDeparted<'_> {
    fn suspects(&self, q: ProcessId) -> bool {
        self.departed.binary_search(&q).is_ok() || self.base.suspects(q)
    }
}

impl RecoverableDining {
    /// Creates the recoverable process `id`; arguments as in
    /// [`DiningProcess::new`].
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        let mut peers: Vec<(ProcessId, Color)> = neighbors.into_iter().collect();
        peers.sort_unstable_by_key(|&(q, _)| q);
        let mut inner = DiningProcess::new(id, color, peers.iter().copied());
        inner.harden();
        let edges = vec![EdgeState::fresh(true); peers.len()];
        RecoverableDining {
            inner,
            id,
            color,
            peers,
            inc: 0,
            commit_seq: 0,
            now: 0,
            boot: BootPath::Genesis,
            resume_seq: 0,
            edges,
            departed: Vec::new(),
            stats: RecoveryStats::default(),
            joined_this_life: false,
            strikes: DEFAULT_STRIKES,
            journal: None,
            restarts: Vec::new(),
            audit_clean: false,
            wakes: 0,
            raw: Vec::new(),
            edge_records: Vec::new(),
            record_bytes: Vec::new(),
        }
    }

    /// Attaches stable storage: every committed transition is journaled
    /// and restarts attempt the journal fast path before rejoining.
    pub fn with_journal(mut self, journal: JournalHandle) -> Self {
        self.journal = Some(journal);
        // A reopened store already holds committed records; the sequence
        // counter must never regress below them, or peers' last-seen
        // watermarks would refute every future resume.
        self.recover_seq_floor();
        self.journal_commit();
        self
    }

    /// Overrides the audit strike threshold (consecutive bad observations
    /// before a repair fires; minimum 1). Lower values repair faster but
    /// risk "repairing" resources that are merely in flight.
    pub fn with_strikes(mut self, strikes: u8) -> Self {
        self.strikes = strikes.max(1);
        self
    }

    /// Creates the recoverable process `id` from a conflict graph and a
    /// proper coloring.
    pub fn from_graph(g: &ConflictGraph, colors: &[Color], id: ProcessId) -> Self {
        Self::new(
            id,
            colors[id.index()],
            g.neighbors(id).iter().map(|&q| (q, colors[q.index()])),
        )
    }

    /// This process's current incarnation (0 = never crashed).
    pub fn incarnation(&self) -> u64 {
        self.inc
    }

    /// The monotone commit sequence number (the seq the next journal
    /// record will carry is `commit_seq() + 1`).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Recovery counters for the metrics layer.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The per-restart path log (empty until the first restart).
    pub fn restart_log(&self) -> &[RestartEvent] {
        &self.restarts
    }

    /// The wrapped Algorithm 1 state machine (read-only).
    pub fn inner(&self) -> &DiningProcess {
        &self.inner
    }

    /// Whether the edge to `q` has an authoritative fork/token assignment
    /// (false only mid-rejoin after a restart of this process).
    pub fn edge_synced(&self, q: ProcessId) -> bool {
        self.edges[self.slot(q)].synced
    }

    /// Whether `q` is marked as permanently departed (crash-stop leave).
    pub fn peer_is_departed(&self, q: ProcessId) -> bool {
        self.departed.binary_search(&q).is_ok()
    }

    /// Whether this process holds the fork shared with `q`.
    pub fn holds_fork(&self, q: ProcessId) -> bool {
        self.inner.holds_fork(q)
    }

    /// Whether this process holds the token shared with `q`.
    pub fn holds_token(&self, q: ProcessId) -> bool {
        self.inner.holds_token(q)
    }

    /// The index of neighbor `q` in `peers` and `edges`, if it is one.
    fn find(&self, q: ProcessId) -> Option<usize> {
        self.peers.binary_search_by_key(&q, |&(p, _)| p).ok()
    }

    /// The index of neighbor `q` in `peers` and `edges`.
    fn slot(&self, q: ProcessId) -> usize {
        self.find(q)
            .unwrap_or_else(|| panic!("{q} is not a neighbor of {}", self.id))
    }

    /// The initial-placement rule of §3.1, as `(my_fork, my_token)`:
    /// fork at the higher color, token at the lower.
    fn canonical(&self, qcolor: Color) -> (bool, bool) {
        (self.color > qcolor, self.color < qcolor)
    }

    /// Wraps raw Algorithm 1 sends with incarnation stamps; messages on
    /// not-yet-resynced edges are suppressed (the post-sync re-evaluation
    /// of the internal actions regenerates whatever is still needed from
    /// the authoritative state).
    fn forward(
        &mut self,
        raw: &mut Vec<(ProcessId, DiningMsg)>,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        for (q, msg) in raw.drain(..) {
            let i = self.slot(q);
            let e = &mut self.edges[i];
            if e.synced {
                if matches!(msg, DiningMsg::Fork | DiningMsg::Request { .. }) {
                    e.activity += 1;
                }
                sends.push((
                    q,
                    RecoveryMsg::Dining {
                        inc: self.inc,
                        dst_inc: e.peer_inc,
                        // The seq of the commit this send belongs to: every
                        // entry point commits exactly once, after its sends
                        // are produced and before they are released.
                        seq: self.commit_seq + 1,
                        msg,
                    },
                ));
            } else {
                self.stats.suppressed += 1;
            }
        }
    }

    /// Runs the inner Algorithm 1 machine under the departed-peer suspicion
    /// union — the single choke point through which every inner guard
    /// evaluation goes, so a departed neighbor substitutes for its missing
    /// ack/fork everywhere.
    fn inner_handle(
        &mut self,
        input: DiningInput<DiningMsg>,
        suspicion: &dyn SuspicionView,
        raw: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        let departed = std::mem::take(&mut self.departed);
        self.inner.handle(
            input,
            &WithDeparted {
                base: suspicion,
                departed: &departed,
            },
            raw,
        );
        self.departed = departed;
    }

    /// Feeds `input` to the inner machine and forwards its sends.
    fn step_inner(
        &mut self,
        input: DiningInput<DiningMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let mut raw = std::mem::take(&mut self.raw);
        self.inner_handle(input, suspicion, &mut raw);
        self.forward(&mut raw, sends);
        self.raw = raw;
    }

    /// Re-evaluates the inner machine's guarded commands (Actions 2/5/6/9)
    /// after recovery-layer state surgery.
    fn poke(&mut self, suspicion: &dyn SuspicionView, sends: &mut Vec<(ProcessId, RecoveryMsg)>) {
        self.step_inner(DiningInput::SuspicionChange, suspicion, sends);
    }

    /// Handles a rejoin announcement. `stale` is set when this call
    /// refutes a [`RecoveryMsg::JournalResume`] whose sequence number
    /// proved the snapshot stale — the flag rides on the ack so the
    /// rejoiner records the right [`ResyncPath`].
    fn on_rejoin(
        &mut self,
        from: ProcessId,
        rinc: u64,
        stale: bool,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let i = self.slot(from);
        let known = self.edges[i].peer_inc;
        if rinc < known {
            self.stats.stale_dropped += 1;
            return;
        }
        if rinc > known {
            // First sight of this incarnation: re-canonicalize my side of
            // the edge and hand the rejoiner the complement. An eating
            // responder keeps its fork so re-admission cannot violate
            // exclusion; otherwise the initial-placement rule applies.
            let (my_fork, my_token) = if self.inner.state() == DinerState::Eating {
                (true, false)
            } else {
                self.canonical(self.peers[i].1)
            };
            let e = &mut self.edges[i];
            e.peer_inc = rinc;
            e.clear_strikes();
            self.inner.reset_edge_session(from);
            self.inner.set_fork(from, my_fork);
            self.inner.set_token(from, my_token);
            sends.push((
                from,
                RecoveryMsg::RejoinAck {
                    inc: self.inc,
                    rejoiner_inc: rinc,
                    fork: !my_fork,
                    token: !my_token,
                    stale,
                },
            ));
            self.poke(suspicion, sends);
        } else {
            // Duplicate rejoin (retry): answer idempotently with the
            // complement of the current holdings — no state surgery.
            sends.push((
                from,
                RecoveryMsg::RejoinAck {
                    inc: self.inc,
                    rejoiner_inc: rinc,
                    fork: !self.inner.holds_fork(from),
                    token: !self.inner.holds_token(from),
                    stale,
                },
            ));
        }
    }

    #[allow(clippy::too_many_arguments)] // message fields unpacked by the dispatcher
    fn on_rejoin_ack(
        &mut self,
        from: ProcessId,
        pinc: u64,
        rinc: u64,
        fork: bool,
        token: bool,
        stale: bool,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let outcome;
        {
            let i = self.slot(from);
            let e = &mut self.edges[i];
            e.peer_inc = e.peer_inc.max(pinc);
            if rinc != self.inc || e.synced {
                self.stats.stale_dropped += 1;
                return;
            }
            // The edge completed via the rejoin handshake; it counts as
            // stale-refuted when either side's sequence comparison caught
            // a stale snapshot first (the responder's verdict rides on
            // the ack, the resumer's own was parked in `resync`).
            outcome = if stale || e.resync == ResyncPath::StaleRefuted {
                ResyncPath::StaleRefuted
            } else {
                ResyncPath::Rejoined
            };
            e.resync = outcome;
            e.resume_inc = None;
            e.synced = true;
            e.clear_strikes();
        }
        self.inner.reset_edge_session(from);
        self.inner.set_fork(from, fork);
        self.inner.set_token(from, token);
        self.stats.resyncs += 1;
        self.note_restart_edge(outcome);
        self.poke(suspicion, sends);
    }

    /// Commits the current recoverable state to stable storage (no-op
    /// without a journal). Called after every entry point, so the journal
    /// always holds the last committed transition.
    fn journal_commit(&mut self) {
        // The sequence number advances even without a journal: outgoing
        // messages are stamped with the would-be record's seq, and the
        // stamps must not depend on whether journaling is enabled.
        self.commit_seq += 1;
        let Some(journal) = &self.journal else { return };
        let mut edges = std::mem::take(&mut self.edge_records);
        edges.clear();
        edges.extend(
            self.peers
                .iter()
                .zip(&self.edges)
                .map(|(&(q, _), e)| EdgeRecord {
                    peer: q.index() as u32,
                    peer_inc: e.peer_inc,
                    flags: self.inner.edge_flags(q),
                    synced: e.synced,
                    resume_pending: e.resume_inc.is_some(),
                    resync: e.resync,
                }),
        );
        let record = JournalRecord {
            seq: self.commit_seq,
            tick: self.now,
            incarnation: self.inc,
            phase: match self.inner.state() {
                DinerState::Thinking => 0,
                DinerState::Hungry => 1,
                DinerState::Eating => 2,
            },
            doorway: self.inner.inside_doorway(),
            boot: self.boot,
            edges,
        };
        self.record_bytes.clear();
        record.encode_into(&mut self.record_bytes);
        journal.commit(&self.record_bytes);
        self.edge_records = record.edges;
    }

    /// Raises `commit_seq` to the highest sequence number recoverable
    /// from stable storage: the store's own commit counter and every
    /// decodable retained record. Called on attach and on restart — even
    /// when the restart then goes blank — so the counter never regresses
    /// and peers' last-seen watermarks stay sound across any fault.
    fn recover_seq_floor(&mut self) {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        self.commit_seq = self.commit_seq.max(journal.commit_seq());
        for k in 0.. {
            let Some(bytes) = journal.history(k) else {
                break;
            };
            if let Ok(r) = JournalRecord::decode(&bytes) {
                self.commit_seq = self.commit_seq.max(r.seq);
            }
        }
    }

    /// Attempts journal replay at the start of incarnation `incarnation`.
    ///
    /// On a valid record, restores the trusted per-edge bits (fork, token,
    /// deferred) and marks each edge that was synced at commit time as
    /// pending a [`RecoveryMsg::JournalResume`]; edges journaled mid-rejoin
    /// keep the full handshake. Any validation failure leaves the blank
    /// factory-reset state untouched.
    fn replay_journal(&mut self, incarnation: u64) -> RestartPath {
        if self.journal.is_none() {
            return RestartPath::Blank {
                reason: BlankReason::Disabled,
            };
        }
        // Sequence recovery runs before (and independently of) record
        // validation: a blank fallback must still never reuse a seq.
        self.recover_seq_floor();
        let journal = self.journal.clone().expect("journal checked above");
        let Some(bytes) = journal.load() else {
            return RestartPath::Blank {
                reason: BlankReason::Missing,
            };
        };
        let Ok(record) = JournalRecord::decode(&bytes) else {
            return RestartPath::Blank {
                reason: BlankReason::Corrupt,
            };
        };
        if record.incarnation >= incarnation {
            // A record claiming to be from this process's future is as
            // untrustworthy as a failed checksum.
            return RestartPath::Blank {
                reason: BlankReason::Corrupt,
            };
        }
        self.resume_seq = record.seq;
        for er in &record.edges {
            let q = ProcessId::from(er.peer as usize);
            let Some(i) = self.find(q) else {
                continue; // configuration mismatch: ignore unknown edges
            };
            let e = &mut self.edges[i];
            e.peer_inc = er.peer_inc;
            if er.synced {
                self.inner.restore_edge_flags(q, er.flags & RESTORE_MASK);
                e.resume_inc = Some(record.incarnation);
            }
        }
        RestartPath::Journal {
            resumed: 0,
            rejoined: 0,
            stale: 0,
        }
    }

    /// Updates the latest restart-log entry when an edge finishes its
    /// post-restart resync, bucketing it by the [`ResyncPath`] it took.
    fn note_restart_edge(&mut self, outcome: ResyncPath) {
        if let Some(RestartEvent {
            path:
                RestartPath::Journal {
                    resumed,
                    rejoined,
                    stale,
                },
            ..
        }) = self.restarts.last_mut()
        {
            match outcome {
                ResyncPath::Resumed => *resumed += 1,
                ResyncPath::StaleRefuted => *stale += 1,
                _ => *rejoined += 1,
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // message fields unpacked by the dispatcher
    fn on_journal_resume(
        &mut self,
        from: ProcessId,
        rinc: u64,
        jinc: u64,
        peer_view: u64,
        seq: u64,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let i = self.slot(from);
        let known = self.edges[i].peer_inc;
        let last_seen = self.edges[i].peer_seq;
        if rinc < known {
            self.stats.stale_dropped += 1;
            return;
        }
        if rinc == known {
            // Retry of a resume this incarnation already registered (the
            // first answer was lost, or the edge already degraded to the
            // rejoin path): answer idempotently with current holdings —
            // the resumer's consistency check decides what to do.
            sends.push((
                from,
                RecoveryMsg::ResumeAck {
                    inc: self.inc,
                    resumer_inc: rinc,
                    fork: self.inner.holds_fork(from),
                    token: self.inner.holds_token(from),
                    last_seen,
                },
            ));
            return;
        }
        // Sequence refutation: a message stamped `s` is released only
        // after record `s` reached the sender's stable storage, so having
        // seen `s > seq` proves the replayed record is not the sender's
        // last commit. Refute immediately — no need to wait for the
        // fork/token consistency check (which a stale-but-complementary
        // snapshot could even pass).
        let stale = seq < last_seen;
        let confirm = !stale && jinc == known && peer_view == self.inc && self.edges[i].synced;
        if confirm {
            // The journaled pairing matches this side exactly: register
            // the new incarnation and report holdings. Fork, token and
            // deferred obligations stay put — but any ping/ack handshake
            // with the *old* incarnation is dead (a ping the restarter
            // will never answer would otherwise dangle until the audit's
            // stuck-ping rescue), so restart it and re-evaluate.
            let e = &mut self.edges[i];
            e.peer_inc = rinc;
            e.clear_strikes();
            self.inner.reset_edge_handshake(from);
            sends.push((
                from,
                RecoveryMsg::ResumeAck {
                    inc: self.inc,
                    resumer_inc: rinc,
                    fork: self.inner.holds_fork(from),
                    token: self.inner.holds_token(from),
                    last_seen,
                },
            ));
            self.poke(suspicion, sends);
        } else {
            // Refuted: the snapshot is provably stale (`stale`), or the
            // journal describes a pairing this side no longer recognizes
            // (it restarted too, or never saw that life). Degrade to the
            // rejoin handshake — the authoritative RejoinAck doubles as
            // the negative answer, saving a round trip.
            self.on_rejoin(from, rinc, stale, suspicion, sends);
        }
    }

    #[allow(clippy::too_many_arguments)] // message fields unpacked by the dispatcher
    fn on_resume_ack(
        &mut self,
        from: ProcessId,
        pinc: u64,
        rinc: u64,
        fork: bool,
        token: bool,
        last_seen: u64,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        // Resumer-side sequence refutation: the responder has observed a
        // commit newer than the record this restart replayed, so the
        // journal lost (at least) that commit's transition. The replayed
        // holdings cannot be trusted even if they happen to look
        // complementary.
        let stale = last_seen > self.resume_seq;
        let consistent;
        {
            let i = self.slot(from);
            let e = &mut self.edges[i];
            e.peer_inc = e.peer_inc.max(pinc);
            if rinc != self.inc || e.synced {
                self.stats.stale_dropped += 1;
                return;
            }
            // The Lemma 1 edge-consistency check: trust the replayed state
            // only if it is exactly complementary to the responder's —
            // one fork and one token on the edge, no more, no less.
            consistent = !stale
                && (self.inner.holds_fork(from) != fork)
                && (self.inner.holds_token(from) != token);
            e.resume_inc = None;
            if consistent {
                e.synced = true;
                e.clear_strikes();
                e.resync = ResyncPath::Resumed;
            } else if stale {
                // Park the verdict: the RejoinAck that completes this
                // edge will bucket it as stale-refuted.
                e.resync = ResyncPath::StaleRefuted;
            }
        }
        if consistent {
            // Keep the replayed fork/token/deferred bits, but drop any
            // handshake state accrued while the edge was still unsynced —
            // a doorway ping issued before this ack was suppressed, and
            // leaving `pinged` set would wait forever on an ack that was
            // never requested.
            self.inner.reset_edge_handshake(from);
            self.stats.fast_resumes += 1;
            self.note_restart_edge(ResyncPath::Resumed);
            self.poke(suspicion, sends);
        } else {
            // The edge moved while we were down (an in-flight fork died
            // with the old incarnation, or the snapshot was stale): fall
            // back to the rejoin handshake for this edge only.
            sends.push((from, RecoveryMsg::Rejoin { inc: self.inc }));
        }
    }

    #[allow(clippy::too_many_arguments)] // message fields unpacked by the dispatcher
    fn on_audit_msg(
        &mut self,
        from: ProcessId,
        pinc: u64,
        dst: u64,
        seq: u64,
        fork: bool,
        token: bool,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let i = self.slot(from);
        let e = &mut self.edges[i];
        // The watermark update precedes the incarnation gate: a seq stamp
        // proves a durable commit regardless of which life sent it (the
        // counter is monotone across the peer's restarts).
        e.peer_seq = e.peer_seq.max(seq);
        if e.peer_inc != pinc || dst != self.inc || !e.synced {
            self.stats.stale_dropped += 1;
            return;
        }
        let my_fork = self.inner.holds_fork(from);
        let my_token = self.inner.holds_token(from);
        let lower = self.color < self.peers[i].1;
        let strikes = self.strikes;
        let mut repaired = false;
        {
            let e = &mut self.edges[i];
            // *Recreate*-type strikes (missing fork/token) only accumulate
            // across quiet audit intervals: an in-flight transfer looks
            // exactly like a missing fork (sender cleared, receiver not
            // yet set), and under contention two consecutive audits can
            // both catch traffic — hysteresis alone would then mint a
            // second fork on a healthy edge and break ◇WX. Genuine loss
            // leaves the edge quiet (nothing can move a fork that does not
            // exist), so it still strikes out. *Drop*-type strikes (dup
            // fork/token) stay on plain hysteresis: dropping can only
            // destroy state, never violate exclusion, and a duplicate
            // keeps traffic flowing so a quiet requirement could starve
            // the repair indefinitely.
            if e.activity != e.audit_activity {
                e.audit_activity = e.activity;
                e.missing_fork = 0;
                e.missing_token = 0;
            }
            // Antisymmetric repairs with strike hysteresis: exactly one
            // endpoint acts on each anomaly, chosen by color.
            if my_fork && fork {
                e.dup_fork += 1;
                if e.dup_fork >= strikes && lower {
                    e.dup_fork = 0;
                    repaired = true; // lower color drops the duplicate fork
                }
            } else {
                e.dup_fork = 0;
            }
            if !my_fork && !fork {
                e.missing_fork += 1;
            } else {
                e.missing_fork = 0;
            }
            if my_token && token {
                e.dup_token += 1;
            } else {
                e.dup_token = 0;
            }
            if !my_token && !token {
                e.missing_token += 1;
            } else {
                e.missing_token = 0;
            }
        }
        let mut changed = false;
        if repaired {
            self.inner.set_fork(from, false);
            changed = true;
        }
        let e = &mut self.edges[i];
        if e.missing_fork >= strikes && !lower {
            e.missing_fork = 0;
            self.inner.set_fork(from, true); // higher color recreates it
            changed = true;
        }
        if e.dup_token >= strikes && !lower {
            e.dup_token = 0;
            self.inner.set_token(from, false); // higher color drops it
            changed = true;
        }
        if e.missing_token >= strikes && lower {
            e.missing_token = 0;
            self.inner.set_token(from, true); // lower color recreates it
            changed = true;
        }
        if changed {
            self.stats.repairs += 1;
            self.poke(suspicion, sends);
        }
        // A snapshot that leaves a strike pending or repaired something
        // wakes this side's audit: the next observations must come at the
        // base period for the repair bound to hold.
        if changed || self.edges[i].has_strikes() {
            self.wakes += 1;
        }
    }

    fn dispatch(
        &mut self,
        input: DiningInput<RecoveryMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        // Every input but an audit snapshot is an observable wake; a
        // snapshot decides for itself in `on_audit_msg`.
        if !matches!(
            input,
            DiningInput::Message {
                msg: RecoveryMsg::Audit { .. },
                ..
            }
        ) {
            self.wakes += 1;
        }
        match input {
            DiningInput::Message { from, msg } => {
                let Some(i) = self.find(from) else {
                    // A drained straggler from a peer that was removed, or
                    // a joiner's handshake racing ahead of its membership
                    // notice (the joiner's audit timer retries it).
                    self.stats.stale_dropped += 1;
                    return;
                };
                match msg {
                    RecoveryMsg::Dining {
                        inc,
                        dst_inc,
                        seq,
                        msg,
                    } => {
                        let e = &mut self.edges[i];
                        // Watermark before gate: even a gated message proves
                        // the peer durably committed record `seq`.
                        e.peer_seq = e.peer_seq.max(seq);
                        if inc != e.peer_inc || dst_inc != self.inc || !e.synced {
                            self.stats.stale_dropped += 1;
                            return;
                        }
                        if matches!(msg, DiningMsg::Fork | DiningMsg::Request { .. }) {
                            e.activity += 1;
                        }
                        self.step_inner(DiningInput::Message { from, msg }, suspicion, sends);
                    }
                    RecoveryMsg::Rejoin { inc } => {
                        self.on_rejoin(from, inc, false, suspicion, sends)
                    }
                    RecoveryMsg::RejoinAck {
                        inc,
                        rejoiner_inc,
                        fork,
                        token,
                        stale,
                    } => self.on_rejoin_ack(
                        from,
                        inc,
                        rejoiner_inc,
                        fork,
                        token,
                        stale,
                        suspicion,
                        sends,
                    ),
                    RecoveryMsg::Audit {
                        inc,
                        dst_inc,
                        seq,
                        fork,
                        token,
                    } => self.on_audit_msg(from, inc, dst_inc, seq, fork, token, suspicion, sends),
                    RecoveryMsg::JournalResume {
                        inc,
                        journal_inc,
                        peer_inc,
                        seq,
                    } => self.on_journal_resume(
                        from,
                        inc,
                        journal_inc,
                        peer_inc,
                        seq,
                        suspicion,
                        sends,
                    ),
                    RecoveryMsg::ResumeAck {
                        inc,
                        resumer_inc,
                        fork,
                        token,
                        last_seen,
                    } => self.on_resume_ack(
                        from,
                        inc,
                        resumer_inc,
                        fork,
                        token,
                        last_seen,
                        suspicion,
                        sends,
                    ),
                }
            }
            DiningInput::Hungry => self.step_inner(DiningInput::Hungry, suspicion, sends),
            DiningInput::DoneEating => self.step_inner(DiningInput::DoneEating, suspicion, sends),
            DiningInput::SuspicionChange => self.poke(suspicion, sends),
        }
    }
}

impl DiningAlgorithm for RecoverableDining {
    type Msg = RecoveryMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn handle(
        &mut self,
        input: DiningInput<RecoveryMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        self.dispatch(input, suspicion, sends);
        // Write-ahead commit: the transition is journaled in the same
        // atomic step that produced it, before its sends are released.
        self.journal_commit();
    }

    fn state(&self) -> DinerState {
        self.inner.state()
    }

    fn inside_doorway(&self) -> bool {
        self.inner.inside_doorway()
    }

    /// Inner Algorithm 1 state plus the recovery layer: the 64-bit
    /// incarnation, commit-sequence counter and pending-resume seq, and,
    /// per edge, the peer incarnation, the synced bit, the departed mark,
    /// the optional pending-resume incarnation (1 + 64 bits), the peer's
    /// last-seen commit seq, the 2-bit resync tag and five 8-bit strike
    /// counters. Restart-log entries, the commit-time tick and the audit
    /// timer's hints (the clean bit and the wake count) are diagnostics or
    /// host scheduling, not protocol state, and are excluded.
    fn state_bits(&self) -> usize {
        self.inner.state_bits() + 3 * 64 + self.peers.len() * (64 + 1 + 1 + 65 + 64 + 2 + 5 * 8)
    }

    fn note_now(&mut self, now: u64) {
        self.now = now;
    }

    fn supports_recovery(&self) -> bool {
        true
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.stats)
    }

    fn restart_log(&self) -> Option<Vec<RestartEvent>> {
        Some(self.restarts.clone())
    }

    fn restart(
        &mut self,
        incarnation: u64,
        corruption: Option<u64>,
        _suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        self.inc = incarnation;
        // A crash-recovery restart is an established member's life, even
        // if the previous life began with a join: the restart handshake
        // below re-greets every edge itself.
        self.joined_this_life = false;
        // Factory reset: volatile state is rebuilt from the program image;
        // only the incarnation counter survived in stable storage. The
        // commit-sequence counter deliberately survives too (and is
        // re-floored from storage during replay): seq stamps must stay
        // monotone across every restart, blank or not.
        let mut inner = DiningProcess::new(self.id, self.color, self.peers.iter().copied());
        inner.harden();
        self.inner = inner;
        for (e, &(q, _)) in self.edges.iter_mut().zip(&self.peers) {
            // A departed peer will never answer a handshake; this side's
            // view of the dead edge is authoritative from the start.
            *e = EdgeState::fresh(self.departed.binary_search(&q).is_ok());
        }
        self.resume_seq = 0;
        // Journal replay happens before adversarial corruption: the
        // corruption models damage to the rebuilt *volatile* state, and
        // the ResumeAck consistency check (plus the audit) is what keeps
        // a scrambled replay from going unnoticed.
        let path = self.replay_journal(incarnation);
        self.boot = match path {
            RestartPath::Journal { .. } => BootPath::Journal,
            RestartPath::Blank {
                reason: BlankReason::Disabled,
            } => BootPath::BlankDisabled,
            RestartPath::Blank {
                reason: BlankReason::Missing,
            } => BootPath::BlankMissing,
            RestartPath::Blank {
                reason: BlankReason::Corrupt,
            } => BootPath::BlankCorrupt,
        };
        if let Some(entropy) = corruption {
            self.scramble(entropy);
        }
        for (e, &(q, _)) in self.edges.iter().zip(&self.peers) {
            if self.peer_is_departed(q) {
                continue; // no handshake with the permanently departed
            }
            let msg = match e.resume_inc {
                Some(journal_inc) => RecoveryMsg::JournalResume {
                    inc: incarnation,
                    journal_inc,
                    peer_inc: e.peer_inc,
                    seq: self.resume_seq,
                },
                None => RecoveryMsg::Rejoin { inc: incarnation },
            };
            sends.push((q, msg));
        }
        self.restarts.push(RestartEvent { incarnation, path });
        // No poke: every edge is unsynced, so dining traffic would be
        // suppressed anyway; the post-ResumeAck/RejoinAck poke does the
        // real work.
        self.journal_commit();
    }

    fn inject_corruption(
        &mut self,
        entropy: u64,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        self.scramble(entropy);
        // Flipped bits may enable (or spuriously satisfy) internal guards;
        // re-evaluate so the damage manifests — and can be audited — now.
        self.poke(suspicion, sends);
        self.journal_commit();
    }

    fn audit(&mut self, suspicion: &dyn SuspicionView, sends: &mut Vec<(ProcessId, RecoveryMsg)>) {
        let mut changed = false;
        for i in 0..self.peers.len() {
            let q = self.peers[i].0;
            if self.peer_is_departed(q) {
                // Reclaim a fork the dead peer took with it. The exchange
                // repair cannot run (a departed peer sends no Audit
                // snapshots), so the strike accumulates locally — and it
                // deliberately bypasses the busy-edge hysteresis: activity
                // on this edge can never again be a fork in flight from a
                // live sender, so resetting the counter on a recently-busy
                // edge would only postpone the survivor's relief. A drain
                // Fork still in transit at departure is absorbed as a
                // harmless duplicate (the peer can never eat again). The
                // token is *not* reminted: the survivor never needs to
                // request from this edge once it holds the fork, and a
                // co-located fork+token pair would be discharged into the
                // void by the local audit (hence the eligibility filter
                // below excludes departed edges).
                if !self.inner.holds_fork(q) {
                    let strikes = self.strikes;
                    let e = &mut self.edges[i];
                    e.missing_fork += 1;
                    if e.missing_fork >= strikes {
                        e.missing_fork = 0;
                        self.inner.set_fork(q, true);
                        self.stats.repairs += 1;
                        changed = true;
                    }
                }
                continue;
            }
            if !self.edges[i].synced {
                // Retry an unfinished resync (lost or crossed handshake),
                // preserving the path the restart chose for this edge: a
                // pending journal fast path keeps resuming — this is what
                // carries a resume across a partition — and everything
                // else re-rejoins.
                let msg = match self.edges[i].resume_inc {
                    Some(journal_inc) => RecoveryMsg::JournalResume {
                        inc: self.inc,
                        journal_inc,
                        peer_inc: self.edges[i].peer_inc,
                        seq: self.resume_seq,
                    },
                    None => RecoveryMsg::Rejoin { inc: self.inc },
                };
                sends.push((q, msg));
                continue;
            }
            if suspicion.suspects(q) {
                // A presumed-crashed peer re-canonicalizes the edge itself
                // when it rejoins; auditing against it is meaningless.
                self.edges[i].clear_strikes();
                continue;
            }
            // Stuck ping: hungry-outside with a pending ping and no ack for
            // two consecutive audit rounds means the ack was destroyed (the
            // peer is live and unsuspected); clear so Action 2 re-pings.
            let stuck = self.inner.state() == DinerState::Hungry
                && !self.inner.inside_doorway()
                && self.inner.ping_pending(q)
                && !self.inner.acked_by(q);
            let strikes = self.strikes;
            let e = &mut self.edges[i];
            if stuck {
                e.stuck_ping += 1;
                if e.stuck_ping >= strikes {
                    e.stuck_ping = 0;
                    self.inner.reset_ping(q);
                    self.stats.local_repairs += 1;
                    changed = true;
                }
            } else {
                e.stuck_ping = 0;
            }
            let dst_inc = self.edges[i].peer_inc;
            sends.push((
                q,
                RecoveryMsg::Audit {
                    inc: self.inc,
                    dst_inc,
                    seq: self.commit_seq + 1,
                    fork: self.inner.holds_fork(q),
                    token: self.inner.holds_token(q),
                },
            ));
        }
        // Only synced edges to live members take part in the local repair.
        let mut raw = std::mem::take(&mut self.raw);
        let (peers, edges, departed) = (&self.peers, &self.edges, &self.departed);
        let eligible = |q: ProcessId| {
            peers
                .binary_search_by_key(&q, |&(p, _)| p)
                .is_ok_and(|i| edges[i].synced)
                && departed.binary_search(&q).is_err()
        };
        if self.inner.audit_local(eligible, &mut raw) {
            self.stats.local_repairs += 1;
            changed = true;
        }
        self.forward(&mut raw, sends);
        self.raw = raw;
        if changed {
            self.poke(suspicion, sends);
        }
        self.audit_clean = !changed
            && self.inner.state() == DinerState::Thinking
            && self.edges.iter().all(|e| e.synced && !e.has_strikes());
        self.journal_commit();
    }

    fn audit_clean(&self) -> bool {
        self.audit_clean
    }

    fn wakes(&self) -> u64 {
        self.wakes
    }

    fn supports_membership(&self) -> bool {
        true
    }

    /// Boots an initially-absent process into the system. Structurally a
    /// blank restart — every edge starts unsynced and announces the boot
    /// incarnation with the *same* rejoin handshake a recovery uses, so the
    /// peers need no join-specific protocol: a `Rejoin { inc ≥ 1 }` from an
    /// unknown incarnation re-canonicalizes the edge either way. No journal
    /// replay is attempted (there is no previous life to resume) and the
    /// restart log records nothing.
    fn join(
        &mut self,
        incarnation: u64,
        _suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        self.inc = incarnation;
        self.joined_this_life = true;
        let mut inner = DiningProcess::new(self.id, self.color, self.peers.iter().copied());
        inner.harden();
        self.inner = inner;
        for (e, &(q, _)) in self.edges.iter_mut().zip(&self.peers) {
            let departed = self.departed.binary_search(&q).is_ok();
            *e = EdgeState::fresh(departed);
            if !departed {
                sends.push((q, RecoveryMsg::Rejoin { inc: incarnation }));
            }
        }
        self.journal_commit();
    }

    /// Graceful departure: discharge everything a waiting neighbor could
    /// starve on — held forks travel to their edges, deferred pings are
    /// acked — then fall silent. The sends go out before the process
    /// disappears (the membership layer guarantees the drain), so survivors
    /// are typically unblocked before their `remove_peer` notice even
    /// arrives.
    fn retire(&mut self, sends: &mut Vec<(ProcessId, RecoveryMsg)>) {
        let mut raw = std::mem::take(&mut self.raw);
        for (e, &(q, _)) in self.edges.iter().zip(&self.peers) {
            if !e.synced || self.peer_is_departed(q) {
                continue; // nothing authoritative to discharge
            }
            if self.inner.deferring_ack(q) {
                raw.push((q, DiningMsg::Ack));
            }
            if self.inner.holds_fork(q) {
                raw.push((q, DiningMsg::Fork));
            }
            self.inner.reset_edge_session(q);
            self.inner.set_fork(q, false);
        }
        self.forward(&mut raw, sends);
        self.raw = raw;
        self.journal_commit();
    }

    /// A newly joined neighbor: grow the edge with the canonical placement.
    /// At an established member the placement is provisional — the
    /// joiner's `Rejoin { inc ≥ 1 }` outranks our `peer_inc = 0` and
    /// re-canonicalizes authoritatively (keeping our fork if we are
    /// eating), so a notice racing the handshake in either order converges
    /// to the same edge state. At a member that itself joined this life
    /// the edge boots unsynced and this side sends the hello instead.
    fn add_peer(
        &mut self,
        q: ProcessId,
        color: u32,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let Err(i) = self.peers.binary_search_by_key(&q, |&(p, _)| p) else {
            return; // duplicate notice
        };
        self.peers.insert(i, (q, color));
        self.inner.add_neighbor(q, color);
        if self.joined_this_life {
            // A joiner is the newcomer on every edge grown this life —
            // its own `join` greeted only the edges it booted with, so an
            // edge toward a neighbor learned *after* boot (an earlier
            // joiner, typically) gets the same treatment here: boot
            // unsynced and initiate the handshake. Crossed hellos between
            // two joiners answer each other idempotently and converge;
            // a lost hello is retried by the audit (unsynced edge).
            self.edges.insert(i, EdgeState::fresh(false));
            sends.push((q, RecoveryMsg::Rejoin { inc: self.inc }));
        } else {
            self.edges.insert(i, EdgeState::fresh(true));
        }
        self.forget_departure(q);
        self.wakes += 1;
        self.poke(suspicion, sends);
        self.journal_commit();
    }

    /// A neighbor left gracefully: tear the edge down completely. Guards
    /// that quantified over it are re-evaluated — a hungry process waiting
    /// on the departed neighbor's ack or fork is unblocked immediately.
    fn remove_peer(
        &mut self,
        q: ProcessId,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let Ok(i) = self.peers.binary_search_by_key(&q, |&(p, _)| p) else {
            return; // duplicate notice
        };
        self.peers.remove(i);
        self.edges.remove(i);
        self.inner.remove_neighbor(q);
        self.forget_departure(q);
        self.wakes += 1;
        self.poke(suspicion, sends);
        self.journal_commit();
    }

    /// A neighbor crash-stopped out of the system without draining. The
    /// edge is retained (its fork may be stranded on the dead side) but
    /// marked departed: the peer counts as suspected in every guard from
    /// now on, pending handshakes are abandoned, and the audit pass remints
    /// a stranded fork after the strike policy.
    fn peer_departed(
        &mut self,
        q: ProcessId,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, RecoveryMsg)>,
    ) {
        let Some(i) = self.find(q) else {
            return; // duplicate notice, or the edge was already removed
        };
        let e = &mut self.edges[i];
        e.synced = true; // the dead peer will never answer; our view stands
        e.resume_inc = None;
        e.clear_strikes();
        if let Err(j) = self.departed.binary_search(&q) {
            self.departed.insert(j, q);
        }
        self.wakes += 1;
        self.poke(suspicion, sends);
        self.journal_commit();
    }
}

impl RecoverableDining {
    /// Clears a departed mark on `q` (the edge was regrown or torn down).
    fn forget_departure(&mut self, q: ProcessId) {
        if let Ok(j) = self.departed.binary_search(&q) {
            self.departed.remove(j);
        }
    }

    /// Deterministically flips per-edge flag bits from `entropy`: roughly
    /// three of four edges get a non-empty XOR mask over the six per-edge
    /// bits; if the draw selects no edge at all, the first edge's fork bit
    /// is flipped so a scheduled corruption is never a silent no-op.
    fn scramble(&mut self, entropy: u64) {
        let mut z = entropy;
        let mut any = false;
        for i in 0..self.peers.len() {
            let q = self.peers[i].0;
            let r = splitmix64(&mut z);
            if r & 0b11 == 0 {
                continue;
            }
            let mut mask = ((r >> 2) & 0x3F) as u8;
            if mask == 0 {
                mask = 0x10; // FORK
            }
            self.inner.corrupt_edge(q, mask);
            any = true;
        }
        if !any {
            if let Some(&(q, _)) = self.peers.first() {
                self.inner.corrupt_edge(q, 0x10);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    fn none() -> BTreeSet<ProcessId> {
        BTreeSet::new()
    }

    fn sus(ids: &[usize]) -> BTreeSet<ProcessId> {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// `hi` (color 1, starts with fork) and `lo` (color 0, starts with
    /// token), as recoverable processes.
    fn pair() -> (RecoverableDining, RecoverableDining) {
        let hi = RecoverableDining::new(p(0), 1, [(p(1), 0)]);
        let lo = RecoverableDining::new(p(1), 0, [(p(0), 1)]);
        (hi, lo)
    }

    /// Delivers `msgs` (sent by `from`) into `target`, returning its sends.
    fn deliver(
        target: &mut RecoverableDining,
        from: ProcessId,
        msgs: &[(ProcessId, RecoveryMsg)],
        suspicion: &BTreeSet<ProcessId>,
    ) -> Vec<(ProcessId, RecoveryMsg)> {
        let mut out = Vec::new();
        for &(to, msg) in msgs {
            assert_eq!(to, target.id(), "test shuttles to the right process");
            target.handle(DiningInput::Message { from, msg }, suspicion, &mut out);
        }
        out
    }

    /// Asserts the Lemma 1 edge invariant between two synced endpoints.
    fn assert_edge_canonical(a: &RecoverableDining, b: &RecoverableDining) {
        let forks = a.holds_fork(b.id()) as u32 + b.holds_fork(a.id()) as u32;
        let tokens = a.holds_token(b.id()) as u32 + b.holds_token(a.id()) as u32;
        assert_eq!(forks, 1, "exactly one fork on the edge");
        assert_eq!(tokens, 1, "exactly one token on the edge");
    }

    #[test]
    fn fault_free_pair_behaves_like_algorithm_1() {
        let (mut hi, mut lo) = pair();
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        // Ping → Ack → Request → Fork, all wrapped at incarnation 0.
        let m = deliver(&mut hi, p(1), &m, &none());
        let m = deliver(&mut lo, p(0), &m, &none());
        let m = deliver(&mut hi, p(1), &m, &none());
        let m = deliver(&mut lo, p(0), &m, &none());
        assert!(m.is_empty());
        assert_eq!(lo.state(), DinerState::Eating);
        assert_eq!(lo.stats(), RecoveryStats::default(), "no recovery action");
    }

    #[test]
    fn rejoin_handshake_restores_the_edge_invariant() {
        let (mut hi, mut lo) = pair();
        // lo crashes and restarts blank as incarnation 1.
        let mut rejoins = Vec::new();
        lo.restart(1, None, &none(), &mut rejoins);
        assert_eq!(
            rejoins,
            vec![(p(0), RecoveryMsg::Rejoin { inc: 1 })],
            "restart announces the new incarnation on every edge"
        );
        assert!(!lo.edge_synced(p(0)));
        let acks = deliver(&mut hi, p(1), &rejoins, &none());
        assert_eq!(
            acks,
            vec![(
                p(1),
                RecoveryMsg::RejoinAck {
                    inc: 0,
                    rejoiner_inc: 1,
                    fork: false,
                    token: true,
                    stale: false
                }
            )],
            "responder keeps the fork (higher color), hands back the token"
        );
        let quiet = deliver(&mut lo, p(0), &acks, &none());
        assert!(quiet.is_empty());
        assert!(lo.edge_synced(p(0)));
        assert_eq!(lo.stats().resyncs, 1);
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn messages_from_or_to_a_previous_life_are_dropped() {
        let (mut hi, mut lo) = pair();
        // A pre-crash ping from lo's incarnation 0 is in flight…
        let mut stale = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut stale);
        // …lo restarts and resyncs…
        let mut rejoins = Vec::new();
        lo.restart(1, None, &none(), &mut rejoins);
        let acks = deliver(&mut hi, p(1), &rejoins, &none());
        deliver(&mut lo, p(0), &acks, &none());
        // …then the stale ping finally arrives: dropped, no ack.
        let before = hi.stats().stale_dropped;
        let out = deliver(&mut hi, p(1), &stale, &none());
        assert!(out.is_empty(), "no ack for a previous life's ping");
        assert_eq!(hi.stats().stale_dropped, before + 1);
        // And a message addressed to lo's previous life is dropped by lo.
        let to_old_lo = [(
            p(1),
            RecoveryMsg::Dining {
                inc: 0,
                dst_inc: 0,
                seq: 1,
                msg: DiningMsg::Ack,
            },
        )];
        let out = deliver(&mut lo, p(0), &to_old_lo, &none());
        assert!(out.is_empty());
        assert!(lo.stats().stale_dropped >= 1);
    }

    #[test]
    fn mutual_restart_converges_via_crossed_rejoins() {
        let (mut hi, mut lo) = pair();
        let mut hi_rejoin = Vec::new();
        hi.restart(1, None, &none(), &mut hi_rejoin);
        let mut lo_rejoin = Vec::new();
        lo.restart(1, None, &none(), &mut lo_rejoin);
        // Crossed delivery: each answers the other's rejoin.
        let hi_acks = deliver(&mut hi, p(1), &lo_rejoin, &none());
        let lo_acks = deliver(&mut lo, p(0), &hi_rejoin, &none());
        let a = deliver(&mut lo, p(0), &hi_acks, &none());
        let b = deliver(&mut hi, p(1), &lo_acks, &none());
        assert!(a.is_empty() && b.is_empty());
        assert!(hi.edge_synced(p(1)) && lo.edge_synced(p(0)));
        assert_edge_canonical(&hi, &lo);
        assert!(hi.holds_fork(p(1)), "canonical rule: fork at higher color");
    }

    #[test]
    fn eating_responder_keeps_its_fork() {
        // lo (color 0) eats while suspecting hi; hi "recovers" with a
        // higher color. Canonically hi would get the fork — but handing it
        // over mid-meal would break exclusion, so the eating responder
        // keeps it.
        let (mut hi, mut lo) = pair();
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &sus(&[0]), &mut m);
        assert_eq!(lo.state(), DinerState::Eating);
        let mut rejoins = Vec::new();
        hi.restart(1, None, &none(), &mut rejoins);
        let acks = deliver(&mut lo, p(0), &rejoins, &sus(&[0]));
        assert!(acks.contains(&(
            p(0),
            RecoveryMsg::RejoinAck {
                inc: 0,
                rejoiner_inc: 1,
                fork: false,
                token: true,
                stale: false
            }
        )));
        deliver(&mut hi, p(1), &acks, &none());
        assert_eq!(lo.state(), DinerState::Eating, "meal undisturbed");
        assert!(lo.holds_fork(p(0)) && !hi.holds_fork(p(1)));
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn duplicate_rejoin_is_answered_idempotently() {
        let (mut hi, mut lo) = pair();
        let mut rejoins = Vec::new();
        lo.restart(1, None, &none(), &mut rejoins);
        let first = deliver(&mut hi, p(1), &rejoins, &none());
        // The retry (same incarnation) must not re-canonicalize: hi's
        // holdings are untouched and the answer matches.
        let second = deliver(&mut hi, p(1), &rejoins, &none());
        assert_eq!(first, second);
        deliver(&mut lo, p(0), &first, &none());
        assert!(lo.edge_synced(p(0)));
        // A third ack (from the retry) is ignored — already synced.
        let quiet = deliver(&mut lo, p(0), &second, &none());
        assert!(quiet.is_empty());
        assert_eq!(lo.stats().resyncs, 1);
        assert_edge_canonical(&hi, &lo);
    }

    /// Runs `rounds` audit rounds between the two processes, shuttling the
    /// audit traffic both ways.
    fn audit_rounds(a: &mut RecoverableDining, b: &mut RecoverableDining, rounds: usize) {
        for _ in 0..rounds {
            let mut am = Vec::new();
            a.audit(&none(), &mut am);
            let mut bm = Vec::new();
            b.audit(&none(), &mut bm);
            let ra = deliver(b, a.id(), &am, &none());
            let rb = deliver(a, b.id(), &bm, &none());
            // Repairs may emit follow-up dining traffic; deliver it too.
            let x = deliver(a, b.id(), &ra, &none());
            let y = deliver(b, a.id(), &rb, &none());
            let x2 = deliver(b, a.id(), &x, &none());
            let y2 = deliver(a, b.id(), &y, &none());
            deliver(a, b.id(), &x2, &none());
            deliver(b, a.id(), &y2, &none());
        }
    }

    #[test]
    fn audit_repairs_a_duplicated_fork() {
        let (mut hi, mut lo) = pair();
        // Corruption forges a second fork at lo and destroys its token —
        // without the token the local co-location discharge cannot
        // shortcut the repair, so this exercises the exchange path.
        lo.inner.corrupt_edge(p(0), 0x30);
        assert!(hi.holds_fork(p(1)) && lo.holds_fork(p(0)));
        audit_rounds(&mut hi, &mut lo, DEFAULT_STRIKES as usize + 1);
        assert_edge_canonical(&hi, &lo);
        assert!(
            !lo.holds_fork(p(0)),
            "the lower color dropped the duplicate"
        );
        assert!(lo.stats().repairs >= 1);
    }

    #[test]
    fn audit_discharges_colocated_token_and_fork() {
        let (mut hi, mut lo) = pair();
        // Corruption forges a second fork right next to lo's token. A
        // thinking process holding both is unreachable under Algorithm 1
        // (exit discharges the pair), so the audit discharges it locally
        // and immediately: the fork travels to hi, which absorbs the
        // duplicate, and the token stays.
        lo.inner.corrupt_edge(p(0), 0x10);
        assert!(lo.holds_fork(p(0)) && lo.holds_token(p(0)));
        audit_rounds(&mut hi, &mut lo, 1);
        assert_edge_canonical(&hi, &lo);
        assert!(!lo.holds_fork(p(0)), "the pair was discharged");
        assert!(lo.stats().local_repairs >= 1);
    }

    #[test]
    fn audit_repairs_a_lost_token() {
        let (mut hi, mut lo) = pair();
        lo.inner.corrupt_edge(p(0), 0x20); // token bit flips off
        assert!(!hi.holds_token(p(1)) && !lo.holds_token(p(0)));
        audit_rounds(&mut hi, &mut lo, DEFAULT_STRIKES as usize + 1);
        assert_edge_canonical(&hi, &lo);
        assert!(lo.holds_token(p(0)), "the lower color recreated it");
    }

    #[test]
    fn audit_does_not_fire_on_a_single_observation() {
        // Hysteresis: one bad observation (a fork genuinely in flight)
        // must not trigger an exchange repair. The token is destroyed
        // alongside so the local co-location discharge stays out of play.
        let (mut hi, mut lo) = pair();
        lo.inner.corrupt_edge(p(0), 0x30);
        audit_rounds(&mut hi, &mut lo, 1);
        assert!(
            lo.holds_fork(p(0)) && hi.holds_fork(p(1)),
            "one strike is not enough"
        );
    }

    #[test]
    fn audit_clears_a_stuck_ping() {
        let (mut hi, _lo) = pair();
        let mut m = Vec::new();
        hi.handle(DiningInput::Hungry, &none(), &mut m);
        assert_eq!(m.len(), 1, "ping out");
        assert!(hi.inner().ping_pending(p(1)));
        // The ack is destroyed in transit; two audit rounds later the ping
        // flag is cleared and Action 2 re-pings immediately.
        let mut out = Vec::new();
        hi.audit(&none(), &mut out);
        assert!(hi.inner().ping_pending(p(1)), "first strike only");
        let mut out = Vec::new();
        hi.audit(&none(), &mut out);
        assert!(
            out.iter().any(|&(q, m)| q == p(1)
                && matches!(
                    m,
                    RecoveryMsg::Dining {
                        msg: DiningMsg::Ping,
                        ..
                    }
                )),
            "repair re-pings: {out:?}"
        );
        assert!(hi.stats().local_repairs >= 1);
    }

    #[test]
    fn corrupted_restart_still_resyncs_canonically() {
        let (mut hi, mut lo) = pair();
        let mut rejoins = Vec::new();
        lo.restart(1, Some(0xDEAD_BEEF), &none(), &mut rejoins);
        let acks = deliver(&mut hi, p(1), &rejoins, &none());
        deliver(&mut lo, p(0), &acks, &none());
        // Whatever the scramble did to the edge bits, the RejoinAck is
        // authoritative.
        assert_edge_canonical(&hi, &lo);
    }

    /// Pins today's behaviour: without a journal, the rejoin handshake
    /// rewrites all six bits of every edge the scramble can reach, so a
    /// corrupt blank restart ends it in exactly the state a clean one does.
    #[test]
    fn corrupt_blank_restart_ends_the_handshake_like_a_clean_one() {
        // p1 is the middle of a path p0 – p1 – p2 (colors 0, 1, 0).
        let fresh = |i: usize, peers: &[(usize, Color)]| {
            RecoverableDining::new(p(i), [0, 1, 0][i], peers.iter().map(|&(q, c)| (p(q), c)))
        };
        let rejoin = |corruption: Option<u64>| {
            let mut left = fresh(0, &[(1, 1)]);
            let mut mid = fresh(1, &[(0, 0), (2, 0)]);
            let mut right = fresh(2, &[(1, 1)]);
            // A meal first, so the edges are off their initial placement.
            let mut m = Vec::new();
            left.handle(DiningInput::Hungry, &none(), &mut m);
            let m = deliver(&mut mid, p(0), &m, &none());
            let m = deliver(&mut left, p(1), &m, &none());
            let m = deliver(&mut mid, p(0), &m, &none());
            deliver(&mut left, p(1), &m, &none());
            assert_eq!(left.state(), DinerState::Eating);
            let mut rejoins = Vec::new();
            mid.restart(1, corruption, &none(), &mut rejoins);
            for (q, msg) in rejoins {
                let peer = if q == p(0) { &mut left } else { &mut right };
                let acks = deliver(peer, p(1), &[(q, msg)], &none());
                deliver(&mut mid, q, &acks, &none());
            }
            assert!(mid.edge_synced(p(0)) && mid.edge_synced(p(2)));
            (left, mid, right)
        };
        let (left, mid, right) = rejoin(None);
        for entropy in 0..64 {
            let (l, m, r) = rejoin(Some(entropy));
            assert_eq!(
                m.inner(),
                mid.inner(),
                "entropy {entropy}: restarted process"
            );
            assert_eq!(
                (l.inner(), r.inner()),
                (left.inner(), right.inner()),
                "entropy {entropy}: its neighbours"
            );
        }
    }

    #[test]
    fn scramble_is_deterministic_and_never_a_noop() {
        let (_, lo0) = pair();
        let mut a = lo0.clone();
        let mut b = lo0.clone();
        a.scramble(42);
        b.scramble(42);
        assert_eq!(a.inner(), b.inner(), "same entropy ⇒ same flips");
        let mut c = lo0.clone();
        for seed in 0..64u64 {
            let mut d = c.clone();
            d.scramble(seed);
            assert_ne!(d.inner(), c.inner(), "seed {seed} must flip something");
            c = lo0.clone();
        }
    }

    /// Shuttles one complete dining session for `lo` (which starts it):
    /// ping → ack → request → fork.
    fn run_session(hi: &mut RecoverableDining, lo: &mut RecoverableDining) {
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        let m = deliver(hi, lo.id(), &m, &none());
        let m = deliver(lo, hi.id(), &m, &none());
        let m = deliver(hi, lo.id(), &m, &none());
        deliver(lo, hi.id(), &m, &none());
        assert_eq!(lo.state(), DinerState::Eating);
    }

    #[test]
    fn journaled_restart_takes_the_fast_path_and_keeps_its_fork() {
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(ekbd_journal::JournalHandle::in_memory());
        run_session(&mut hi, &mut lo);
        assert!(lo.holds_fork(p(0)), "the meal left the fork at lo");
        // Clean crash + restart: the journal replays and the restart asks
        // for confirmation instead of rejoining.
        let mut m = Vec::new();
        lo.restart(1, None, &none(), &mut m);
        assert!(
            matches!(m[..], [(q, RecoveryMsg::JournalResume { inc: 1, .. })] if q == p(0)),
            "journaled restart resumes, not rejoins: {m:?}"
        );
        assert!(lo.holds_fork(p(0)), "replay restored the journaled fork");
        let acks = deliver(&mut hi, p(1), &m, &none());
        assert!(
            matches!(acks[..], [(_, RecoveryMsg::ResumeAck { .. })]),
            "{acks:?}"
        );
        deliver(&mut lo, p(0), &acks, &none());
        assert!(lo.edge_synced(p(0)));
        assert_eq!(lo.stats().fast_resumes, 1);
        assert_eq!(lo.stats().resyncs, 0, "no rejoin handshake ran");
        assert_eq!(
            lo.restart_log(),
            &[RestartEvent {
                incarnation: 1,
                path: RestartPath::Journal {
                    resumed: 1,
                    rejoined: 0,
                    stale: 0
                }
            }]
        );
        assert_edge_canonical(&hi, &lo);
        assert!(lo.holds_fork(p(0)), "fast path skipped fork reacquisition");
    }

    #[test]
    fn restart_without_journal_logs_a_blank_disabled_path() {
        let (_, mut lo) = pair();
        let mut m = Vec::new();
        lo.restart(1, None, &none(), &mut m);
        assert_eq!(
            lo.restart_log(),
            &[RestartEvent {
                incarnation: 1,
                path: RestartPath::Blank {
                    reason: BlankReason::Disabled
                }
            }]
        );
    }

    #[test]
    fn corrupt_journal_degrades_to_the_blank_restart_path() {
        use ekbd_journal::{FaultyJournal, JournalHandle, StorageFault};
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(JournalHandle::new(FaultyJournal::new(
            StorageFault::BitRot,
            0x0BAD_5EED,
        )));
        run_session(&mut hi, &mut lo);
        let mut m = Vec::new();
        lo.restart(1, None, &none(), &mut m);
        assert!(
            matches!(m[..], [(_, RecoveryMsg::Rejoin { inc: 1 })]),
            "rotted journal must reboot blank: {m:?}"
        );
        assert_eq!(
            lo.restart_log()[0].path,
            RestartPath::Blank {
                reason: BlankReason::Corrupt
            }
        );
        let acks = deliver(&mut hi, p(1), &m, &none());
        deliver(&mut lo, p(0), &acks, &none());
        assert!(lo.edge_synced(p(0)));
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn dropped_syncs_look_like_a_missing_journal() {
        use ekbd_journal::{FaultyJournal, JournalHandle, StorageFault};
        let (_, mut lo) = pair();
        // Only a handful of commits ever happen, and the dropped-sync
        // fault means none of them became durable.
        lo = lo.with_journal(JournalHandle::new(FaultyJournal::new(
            StorageFault::DroppedSync,
            7,
        )));
        let mut m = Vec::new();
        lo.restart(1, None, &none(), &mut m);
        assert!(matches!(m[..], [(_, RecoveryMsg::Rejoin { inc: 1 })]));
        assert_eq!(
            lo.restart_log()[0].path,
            RestartPath::Blank {
                reason: BlankReason::Missing
            }
        );
    }

    #[test]
    fn refuted_resume_degrades_to_the_rejoin_handshake() {
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(ekbd_journal::JournalHandle::in_memory());
        run_session(&mut hi, &mut lo);
        // Both endpoints crash. hi restarts blank first, so lo's journaled
        // view of hi's incarnation (0) is out of date and hi must refute
        // the resume.
        let mut hi_rejoin = Vec::new();
        hi.restart(1, None, &none(), &mut hi_rejoin);
        let mut resume = Vec::new();
        lo.restart(1, None, &none(), &mut resume);
        let answer = deliver(&mut hi, p(1), &resume, &none());
        assert!(
            matches!(answer[..], [(_, RecoveryMsg::RejoinAck { .. })]),
            "a refuted resume is answered with an authoritative RejoinAck: {answer:?}"
        );
        deliver(&mut lo, p(0), &answer, &none());
        assert!(lo.edge_synced(p(0)));
        assert_eq!(lo.stats().fast_resumes, 0);
        assert_eq!(lo.stats().resyncs, 1);
        assert_eq!(
            lo.restart_log()[0].path,
            RestartPath::Journal {
                resumed: 0,
                rejoined: 1,
                stale: 0
            }
        );
        // Finish hi's own rejoin so both sides are synced, then check the
        // edge invariant.
        let acks = deliver(&mut lo, p(0), &hi_rejoin, &none());
        deliver(&mut hi, p(1), &acks, &none());
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn stale_snapshot_fails_the_consistency_check_and_falls_back() {
        use ekbd_journal::{FaultyJournal, JournalHandle, StorageFault};
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(JournalHandle::new(FaultyJournal::new(
            StorageFault::StaleSnapshot,
            3,
        )));
        run_session(&mut hi, &mut lo);
        // Pad with sendless commits until the epoch-deep rollback lands
        // exactly on the request-step commit: the newest seq hi ever saw
        // stamped (so the sequence comparison cannot refute it), yet it
        // predates the fork's arrival. The replayed holdings (no fork, no
        // token — both were in flight) cannot be complementary to hi's
        // (no fork, token): only the consistency check catches it, and
        // the resumer must re-rejoin.
        while lo.commit_seq() < ekbd_journal::STALE_EPOCH as u64 + 3 {
            lo.handle(DiningInput::SuspicionChange, &none(), &mut Vec::new());
        }
        let mut resume = Vec::new();
        lo.restart(1, None, &none(), &mut resume);
        assert!(matches!(
            resume[..],
            [(_, RecoveryMsg::JournalResume { .. })]
        ));
        let acks = deliver(&mut hi, p(1), &resume, &none());
        let fallback = deliver(&mut lo, p(0), &acks, &none());
        assert!(
            matches!(fallback[..], [(_, RecoveryMsg::Rejoin { inc: 1 })]),
            "inconsistent ResumeAck falls back per-edge: {fallback:?}"
        );
        assert_eq!(lo.stats().fast_resumes, 0);
        let acks = deliver(&mut hi, p(1), &fallback, &none());
        deliver(&mut lo, p(0), &acks, &none());
        assert!(lo.edge_synced(p(0)));
        assert_eq!(
            lo.restart_log()[0].path,
            RestartPath::Journal {
                resumed: 0,
                rejoined: 1,
                stale: 0
            }
        );
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn stale_resume_is_refuted_by_sequence_comparison() {
        use ekbd_journal::{FaultyJournal, JournalHandle, StorageFault};
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(JournalHandle::new(FaultyJournal::new(
            StorageFault::StaleSnapshot,
            3,
        )));
        run_session(&mut hi, &mut lo);
        // Pad until the journal is deep enough for the epoch-deep rollback
        // to serve a record at all, then let an audit round stamp hi with
        // the seq of lo's *latest* commit — so when the stale snapshot
        // ([`STALE_EPOCH`] commits behind) tries to resume, hi's watermark
        // refutes it outright, before any fork/token comparison.
        while lo.commit_seq() < ekbd_journal::STALE_EPOCH as u64 {
            lo.handle(DiningInput::SuspicionChange, &none(), &mut Vec::new());
        }
        let mut out = Vec::new();
        lo.audit(&none(), &mut out);
        deliver(&mut hi, p(1), &out, &none());
        let mut resume = Vec::new();
        lo.restart(1, None, &none(), &mut resume);
        assert!(matches!(
            resume[..],
            [(_, RecoveryMsg::JournalResume { .. })]
        ));
        let answer = deliver(&mut hi, p(1), &resume, &none());
        assert!(
            answer
                .iter()
                .any(|&(_, m)| matches!(m, RecoveryMsg::RejoinAck { stale: true, .. })),
            "the responder's seq watermark refutes the stale snapshot: {answer:?}"
        );
        deliver(&mut lo, p(0), &answer, &none());
        assert!(lo.edge_synced(p(0)));
        assert_eq!(lo.stats().fast_resumes, 0);
        assert_eq!(
            lo.restart_log()[0].path,
            RestartPath::Journal {
                resumed: 0,
                rejoined: 0,
                stale: 1
            },
            "the detection is recorded in the restart path"
        );
        assert_edge_canonical(&hi, &lo);
    }

    #[test]
    fn commit_seq_is_monotone_across_process_images_and_blank_fallbacks() {
        use ekbd_journal::{FaultyJournal, JournalHandle, StorageFault};
        // A fresh process image re-attaching the same store (the threaded
        // restart shape: all volatile state lost) recovers the sequence
        // floor from stable storage before its first commit.
        let handle = JournalHandle::in_memory();
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(handle.clone());
        run_session(&mut hi, &mut lo);
        let before = lo.commit_seq();
        assert!(before >= 4, "attach + one dining session commit");
        let lo2 = RecoverableDining::new(p(1), 0, [(p(0), 1)]).with_journal(handle);
        assert_eq!(
            lo2.commit_seq(),
            before + 1,
            "floor recovered from storage, attach commit on top"
        );

        // Even when every retained record is undecodable and the restart
        // degrades to the blank path, the floor scan keeps the counter
        // monotone — a reused seq would poison peers' watermarks.
        let handle = JournalHandle::new(FaultyJournal::new(StorageFault::BitRot, 0x5EED));
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(handle.clone());
        run_session(&mut hi, &mut lo);
        let before = lo.commit_seq();
        let mut lo2 = RecoverableDining::new(p(1), 0, [(p(0), 1)]).with_journal(handle);
        let mut m = Vec::new();
        lo2.restart(1, None, &none(), &mut m);
        assert_eq!(
            lo2.restart_log()[0].path,
            RestartPath::Blank {
                reason: BlankReason::Corrupt
            }
        );
        assert!(
            lo2.commit_seq() > before,
            "blank fallback never reuses a sequence number"
        );
    }

    #[test]
    fn corrupted_journaled_restart_still_converges() {
        let (mut hi, mut lo) = pair();
        lo = lo.with_journal(ekbd_journal::JournalHandle::in_memory());
        run_session(&mut hi, &mut lo);
        for entropy in [0x1u64, 0xDEAD_BEEF, 0xFEED_FACE] {
            let mut m = Vec::new();
            let inc = lo.incarnation() + 1;
            lo.restart(inc, Some(entropy), &none(), &mut m);
            let answer = deliver(&mut hi, p(1), &m, &none());
            let follow = deliver(&mut lo, p(0), &answer, &none());
            let answer = deliver(&mut hi, p(1), &follow, &none());
            deliver(&mut lo, p(0), &answer, &none());
            assert!(lo.edge_synced(p(0)), "entropy {entropy:#x}");
            assert_edge_canonical(&hi, &lo);
        }
    }

    #[test]
    fn unsynced_edges_carry_no_dining_traffic() {
        // The partition-tolerance invariant: between a restart and the
        // peer's answer (which a partition can delay arbitrarily), the
        // edge carries recovery handshakes only — never wrapped Algorithm
        // 1 messages.
        for journaled in [false, true] {
            let (_, mut lo) = pair();
            if journaled {
                lo = lo.with_journal(ekbd_journal::JournalHandle::in_memory());
                let mut hi = pair().0;
                run_session(&mut hi, &mut lo);
            }
            let mut sends = Vec::new();
            let inc = lo.incarnation() + 1;
            lo.restart(inc, None, &none(), &mut sends);
            lo.handle(DiningInput::Hungry, &none(), &mut sends);
            for _ in 0..3 {
                lo.audit(&none(), &mut sends);
            }
            assert!(
                !sends
                    .iter()
                    .any(|(_, m)| matches!(m, RecoveryMsg::Dining { .. })),
                "suppressed edge leaked dining traffic (journaled={journaled}): {sends:?}"
            );
            assert!(lo.stats().suppressed > 0, "suppression was counted");
            if journaled {
                assert!(
                    sends
                        .iter()
                        .any(|(_, m)| matches!(m, RecoveryMsg::JournalResume { .. })),
                    "audit keeps retrying the journal fast path"
                );
            }
        }
    }

    // ----- dynamic membership -------------------------------------------

    /// Shuttles one complete session for `a` against `b`, leaving the fork
    /// at `a` (works from any canonical thinking/thinking edge state).
    fn eat_once(a: &mut RecoverableDining, b: &mut RecoverableDining) {
        let mut m = Vec::new();
        a.handle(DiningInput::Hungry, &none(), &mut m);
        let m = deliver(b, a.id(), &m, &none());
        let m = deliver(a, b.id(), &m, &none());
        let m = deliver(b, a.id(), &m, &none());
        deliver(a, b.id(), &m, &none());
        assert_eq!(a.state(), DinerState::Eating);
        let mut m = Vec::new();
        a.handle(DiningInput::DoneEating, &none(), &mut m);
        deliver(b, a.id(), &m, &none());
        assert!(a.holds_fork(b.id()), "the meal left the fork at {}", a.id());
    }

    #[test]
    fn join_reuses_the_rejoin_handshake() {
        // a (color 0) starts alone; b (color 1) joins at runtime. The
        // membership notice lands first, then b's Rejoin re-canonicalizes.
        let mut a = RecoverableDining::new(p(0), 0, []);
        let mut m = Vec::new();
        a.add_peer(p(1), 1, &none(), &mut m);
        assert!(m.is_empty(), "provisional edge sends nothing");
        assert!(!a.holds_fork(p(1)) && a.holds_token(p(1)), "canonical");
        let mut b = RecoverableDining::new(p(1), 1, [(p(0), 0)]);
        let mut hello = Vec::new();
        b.join(1, &none(), &mut hello);
        assert_eq!(hello, vec![(p(0), RecoveryMsg::Rejoin { inc: 1 })]);
        assert!(!b.edge_synced(p(0)), "joiner boots unsynced");
        let acks = deliver(&mut a, p(1), &hello, &none());
        deliver(&mut b, p(0), &acks, &none());
        assert!(b.edge_synced(p(0)));
        assert_edge_canonical(&a, &b);
        // The joiner is a full participant: it can eat.
        eat_once(&mut b, &mut a);
    }

    #[test]
    fn joiner_hello_racing_its_notice_is_recovered_by_the_audit_retry() {
        let mut a = RecoverableDining::new(p(0), 0, []);
        let mut b = RecoverableDining::new(p(1), 1, [(p(0), 0)]);
        let mut hello = Vec::new();
        b.join(1, &none(), &mut hello);
        // The Rejoin arrives before a's PeerJoined notice: dropped.
        let before = a.stats().stale_dropped;
        let out = deliver(&mut a, p(1), &hello, &none());
        assert!(out.is_empty());
        assert_eq!(a.stats().stale_dropped, before + 1);
        // Notice lands; b's audit timer retries the handshake.
        a.add_peer(p(1), 1, &none(), &mut Vec::new());
        let mut retry = Vec::new();
        b.audit(&none(), &mut retry);
        let acks = deliver(&mut a, p(1), &retry, &none());
        deliver(&mut b, p(0), &acks, &none());
        assert!(b.edge_synced(p(0)));
        assert_edge_canonical(&a, &b);
    }

    #[test]
    fn two_joiners_growing_the_same_edge_converge_without_a_survivor() {
        // Both endpoints joined at runtime (neither is an established
        // member), so each one's add_peer initiates a hello. The crossed
        // handshakes must converge to one synced canonical edge — the
        // regression here is a both-sides-provisional edge whose
        // incarnation stamps never match (a permanent wedge).
        let mut a = RecoverableDining::new(p(0), 0, []);
        let mut b = RecoverableDining::new(p(1), 1, []);
        a.join(1, &none(), &mut Vec::new());
        b.join(1, &none(), &mut Vec::new());
        let mut ha = Vec::new();
        a.add_peer(p(1), 1, &none(), &mut ha);
        assert!(
            ha.iter()
                .any(|&(q, m)| q == p(1) && matches!(m, RecoveryMsg::Rejoin { inc: 1 })),
            "a joiner's add_peer sends the hello itself: {ha:?}"
        );
        let mut hb = Vec::new();
        b.add_peer(p(0), 0, &none(), &mut hb);
        // Crossed delivery: each hello reaches the other side after both
        // edges exist.
        let ra = deliver(&mut b, p(0), &ha, &none());
        let rb = deliver(&mut a, p(1), &hb, &none());
        let x = deliver(&mut a, p(1), &ra, &none());
        let y = deliver(&mut b, p(0), &rb, &none());
        deliver(&mut b, p(0), &x, &none());
        deliver(&mut a, p(1), &y, &none());
        assert!(a.edge_synced(p(1)) && b.edge_synced(p(0)));
        assert_edge_canonical(&a, &b);
        eat_once(&mut b, &mut a);
    }

    #[test]
    fn add_peer_to_an_eating_process_cannot_break_exclusion() {
        // lo eats (suspecting hi) when a new higher-color neighbor joins.
        // Canonically the joiner would own the fork — but lo's RejoinAck is
        // authoritative and an eating responder keeps it.
        let (_, mut lo) = pair();
        lo.handle(DiningInput::Hungry, &sus(&[0]), &mut Vec::new());
        assert_eq!(lo.state(), DinerState::Eating);
        lo.add_peer(p(2), 2, &sus(&[0]), &mut Vec::new());
        let mut joiner = RecoverableDining::new(p(2), 2, [(p(1), 0)]);
        let mut hello = Vec::new();
        joiner.join(1, &none(), &mut hello);
        let acks = deliver(&mut lo, p(2), &hello, &sus(&[0]));
        deliver(&mut joiner, p(1), &acks, &none());
        assert_eq!(lo.state(), DinerState::Eating, "meal undisturbed");
        assert!(lo.holds_fork(p(2)), "eating responder kept the new fork");
        assert!(!joiner.holds_fork(p(1)));
        assert_edge_canonical(&lo, &joiner);
    }

    #[test]
    fn retire_discharges_a_deferred_fork_and_a_deferred_ack() {
        // hi eats; lo is hungry inside the doorway with its request
        // deferred at hi (token+fork co-located there), and a second ping
        // from lo is deferred too. hi retires instead of exiting: both
        // obligations must be discharged so lo eats without any notice.
        let (mut hi, mut lo) = pair();
        hi.handle(DiningInput::Hungry, &sus(&[1]), &mut Vec::new());
        assert_eq!(hi.state(), DinerState::Eating);
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        let m = deliver(&mut hi, p(1), &m, &none()); // ping deferred at hi
        assert!(m.is_empty());
        let mut drain = Vec::new();
        hi.retire(&mut drain);
        assert!(
            drain.iter().any(|&(_, m)| matches!(
                m,
                RecoveryMsg::Dining {
                    msg: DiningMsg::Ack,
                    ..
                }
            )),
            "deferred ping acked on retirement: {drain:?}"
        );
        assert!(!hi.holds_fork(p(1)), "the fork left with the drain");
        let m = deliver(&mut lo, p(0), &drain, &none());
        let m = deliver(&mut hi, p(1), &m, &none()); // lo's fork request
        deliver(&mut lo, p(0), &m, &none());
        assert_eq!(lo.state(), DinerState::Eating, "drain unblocked lo");
    }

    #[test]
    fn remove_peer_unblocks_a_waiting_survivor() {
        // lo is hungry, waiting on hi's ack that will never come (hi left;
        // every message was lost). The graceful-leave notice tears the edge
        // down and lo eats with its remaining (empty) guard set.
        let (_, mut lo) = pair();
        lo.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        assert_eq!(lo.state(), DinerState::Hungry);
        lo.remove_peer(p(0), &none(), &mut Vec::new());
        assert_eq!(lo.state(), DinerState::Eating);
        assert!(lo.inner().neighbors().is_empty());
    }

    #[test]
    fn messages_from_a_removed_peer_are_dropped_not_fatal() {
        let (mut hi, mut lo) = pair();
        let mut m = Vec::new();
        hi.handle(DiningInput::Hungry, &none(), &mut m); // ping in flight
        lo.remove_peer(p(0), &none(), &mut Vec::new());
        let before = lo.stats().stale_dropped;
        let out = deliver(&mut lo, p(0), &m, &none());
        assert!(out.is_empty());
        assert_eq!(lo.stats().stale_dropped, before + 1);
    }

    #[test]
    fn departed_neighbor_counts_as_suspected_under_a_silent_oracle() {
        // The wait-freedom crux of churn tolerance: hi crash-stops out
        // holding the fork, the oracle never suspects anyone, and lo must
        // still eat.
        let (mut hi, mut lo) = pair();
        eat_once(&mut hi, &mut lo); // primes edge activity on both sides
        assert!(hi.holds_fork(p(1)));
        lo.peer_departed(p(0), &none(), &mut Vec::new());
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        assert_eq!(
            lo.state(),
            DinerState::Eating,
            "departed ⇒ suspected substitutes for the missing ack and fork"
        );
        lo.handle(DiningInput::DoneEating, &none(), &mut Vec::new());
    }

    #[test]
    fn audit_remints_a_fork_stranded_at_a_departed_neighbor() {
        // The satellite regression: hi departs crash-stop holding the
        // fork, with recent traffic on the edge (the busy-edge hysteresis
        // trap — fresh activity used to reset the missing-fork strikes,
        // and a departed peer sends no audits to accumulate them). The
        // local audit must remint the fork after the normal strike policy.
        let (mut hi, mut lo) = pair();
        eat_once(&mut hi, &mut lo);
        assert!(hi.holds_fork(p(1)) && lo.holds_token(p(0)));
        lo.peer_departed(p(0), &none(), &mut Vec::new());
        // lo goes hungry and eats via the departed substitution, spending
        // its token on a request into the void — more edge activity.
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        assert_eq!(lo.state(), DinerState::Eating);
        lo.handle(DiningInput::DoneEating, &none(), &mut Vec::new());
        assert!(!lo.holds_fork(p(0)) && !lo.holds_token(p(0)));
        // One audit round is one strike — not enough (hysteresis intact).
        lo.audit(&none(), &mut Vec::new());
        assert!(!lo.holds_fork(p(0)), "one strike must not remint");
        lo.audit(&none(), &mut Vec::new());
        assert!(
            lo.holds_fork(p(0)),
            "the stranded fork is reminted at the strike threshold"
        );
        assert!(
            !lo.holds_token(p(0)),
            "the token is never reminted on a dead edge"
        );
        assert!(lo.stats().repairs >= 1);
        // With the fork home again, further audits are quiet: no discharge
        // loop throwing the fork back into the void.
        let mut out = Vec::new();
        lo.audit(&none(), &mut out);
        assert!(
            !out.iter().any(|(_, m)| matches!(
                m,
                RecoveryMsg::Dining {
                    msg: DiningMsg::Fork,
                    ..
                }
            )),
            "no fork discharged to the dead peer: {out:?}"
        );
        assert!(lo.holds_fork(p(0)));
    }

    #[test]
    fn departed_edge_with_colocated_token_is_not_drained_into_the_void() {
        // lo keeps its token (never goes hungry). After the remint it
        // holds token+fork outside the doorway — exactly the co-location
        // the local audit normally discharges. On a departed edge that
        // discharge would destroy the fork forever; the eligibility filter
        // must prevent it.
        let (mut hi, mut lo) = pair();
        eat_once(&mut hi, &mut lo);
        lo.peer_departed(p(0), &none(), &mut Vec::new());
        for _ in 0..DEFAULT_STRIKES + 2 {
            let mut out = Vec::new();
            lo.audit(&none(), &mut out);
            assert!(
                !out.iter().any(|(_, m)| matches!(
                    m,
                    RecoveryMsg::Dining {
                        msg: DiningMsg::Fork,
                        ..
                    }
                )),
                "departed edge excluded from the co-location discharge"
            );
        }
        assert!(lo.holds_fork(p(0)) && lo.holds_token(p(0)));
    }

    #[test]
    fn departed_mark_survives_a_restart_of_the_survivor() {
        let (mut hi, mut lo) = pair();
        eat_once(&mut hi, &mut lo);
        lo.peer_departed(p(0), &none(), &mut Vec::new());
        let mut m = Vec::new();
        lo.restart(1, None, &none(), &mut m);
        assert!(
            m.is_empty(),
            "no handshake with the permanently departed: {m:?}"
        );
        assert!(lo.peer_is_departed(p(0)));
        assert!(lo.edge_synced(p(0)), "dead edge is self-authoritative");
        // The reclaim still works in the new incarnation.
        for _ in 0..DEFAULT_STRIKES {
            lo.audit(&none(), &mut Vec::new());
        }
        assert!(lo.holds_fork(p(0)));
    }

    #[test]
    fn recovered_process_can_eat_again() {
        let (mut hi, mut lo) = pair();
        // lo restarts, resyncs, goes hungry, and completes a full session.
        let mut rejoins = Vec::new();
        lo.restart(1, None, &none(), &mut rejoins);
        let acks = deliver(&mut hi, p(1), &rejoins, &none());
        deliver(&mut lo, p(0), &acks, &none());
        let mut m = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m);
        let m = deliver(&mut hi, p(1), &m, &none());
        let m = deliver(&mut lo, p(0), &m, &none());
        let m = deliver(&mut hi, p(1), &m, &none());
        deliver(&mut lo, p(0), &m, &none());
        assert_eq!(lo.state(), DinerState::Eating, "readmitted");
        assert!(m.is_empty() || lo.state() == DinerState::Eating);
    }
}
