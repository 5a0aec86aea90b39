//! A self-healing reliable link layer for lossy, duplicating, reordering
//! channels.
//!
//! The paper's system model (§2) assumes reliable FIFO channels; its
//! correctness proofs (Theorems 1–3) lean on that assumption wherever a
//! fork, token, or request message must arrive exactly once and in order.
//! This crate restores that abstraction over the adversarial channels of
//! [`ekbd_sim::FaultPlan`]: each [`LinkEndpoint`] wraps every outgoing
//! payload in a [`LinkMsg::Data`] frame carrying a per-peer sequence
//! number, acknowledges received frames cumulatively, retransmits unacked
//! frames on a timer with exponential backoff, suppresses duplicates, and
//! releases payloads to the application strictly in send order — *exactly
//! once, FIFO*, as long as the channel delivers infinitely often.
//!
//! Two properties tie the layer back to the paper:
//!
//! * **Quiescence toward crashed neighbors (§7, S3).** Retransmission to a
//!   peer stops while the local ◇P module suspects it
//!   ([`LinkEndpoint::on_suspect`]). Since ◇P eventually and permanently
//!   suspects every crashed process, only finitely many frames are ever
//!   sent to a crashed neighbor.
//! * **Wait-freedom under false suspicion.** A false suspicion pauses, but
//!   never discards, the unacked queue. When the suspicion is retracted
//!   ([`LinkEndpoint::on_unsuspect`]) the endpoint immediately retransmits
//!   everything outstanding with a reset backoff, so a wrongly suspected
//!   (live) neighbor still receives every frame — eventual delivery between
//!   correct processes is preserved, keeping the hygienic-dining token and
//!   fork exchanges live.
//!
//! The implementation is sans-io in the same style as the detector and
//! dining crates: methods consume events and append to a caller-owned
//! [`LinkActions`] — frames to transmit, timers to arm, payloads to
//! deliver — and the host (simulator or threaded runtime) performs the
//! actual io.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ekbd_sim::{Duration, ProcessId};
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs for a [`LinkEndpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkConfig {
    /// Initial retransmission timeout (ticks or milliseconds — the host's
    /// time unit).
    pub retransmit_base: Duration,
    /// Backoff exponent cap: the timeout is
    /// `retransmit_base << min(consecutive_timeouts, max_backoff_exp)`.
    pub max_backoff_exp: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            retransmit_base: 16,
            max_backoff_exp: 6,
        }
    }
}

impl LinkConfig {
    /// Sets the initial retransmission timeout.
    pub fn retransmit_base(mut self, base: Duration) -> Self {
        self.retransmit_base = base.max(1);
        self
    }

    /// Sets the backoff exponent cap.
    pub fn max_backoff_exp(mut self, cap: u32) -> Self {
        self.max_backoff_exp = cap;
        self
    }
}

/// Hosts that multiplex link retransmission timers with other timers on a
/// single `u64` tag space should place link tags at or above this base.
/// [`link_timer_tag`] encodes `(peer, epoch)` into that space.
pub const LINK_TAG_BASE: u64 = 1 << 41;
const LINK_EPOCH_SPAN: u64 = 1 << 32;

/// Encodes a retransmission timer for `peer` with the given epoch into a
/// single tag: `LINK_TAG_BASE + peer_index · 2³² + epoch`. Decode with
/// [`decode_timer_tag`].
///
/// An endpoint would need billions of timer re-arms on one peer to reach
/// `epoch = 2³²`, far beyond any run's event budget — but if it ever
/// happens the epoch *saturates* at `2³² − 1` rather than silently bleeding
/// into the next peer's tag range (which would misroute the timer). A
/// saturated epoch merely risks one spurious (idempotent) retransmission.
pub fn link_timer_tag(peer: ProcessId, epoch: u64) -> u64 {
    LINK_TAG_BASE + (peer.index() as u64) * LINK_EPOCH_SPAN + epoch.min(LINK_EPOCH_SPAN - 1)
}

/// Inverse of [`link_timer_tag`]: recovers `(peer, epoch)` from a tag at
/// or above [`LINK_TAG_BASE`].
pub fn decode_timer_tag(tag: u64) -> (ProcessId, u64) {
    debug_assert!(tag >= LINK_TAG_BASE, "not a link timer tag");
    let rel = tag - LINK_TAG_BASE;
    (
        ProcessId::from((rel / LINK_EPOCH_SPAN) as usize),
        rel % LINK_EPOCH_SPAN,
    )
}

/// The wire format of the link layer.
///
/// Every frame is stamped with the sender's incarnation number (`inc`) and
/// the sender's view of the receiver's incarnation (`dst_inc`) so sequence
/// state survives the crash-recovery fault model: a receiver drops frames
/// addressed to a previous life of itself, and resets its per-peer state
/// when it first sees a frame from a newer incarnation of the peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkMsg<M> {
    /// A (re)transmission of payload number `seq` on this ordered link.
    Data {
        /// Per-ordered-link sequence number, starting at 0 for each sender
        /// incarnation.
        seq: u64,
        /// The sender's incarnation number.
        inc: u64,
        /// The sender's view of the receiver's incarnation number.
        dst_inc: u64,
        /// The wrapped application payload.
        payload: M,
    },
    /// Cumulative acknowledgment: every `seq < cum` has been received.
    Ack {
        /// One past the highest contiguously received sequence number.
        cum: u64,
        /// The sender's incarnation number.
        inc: u64,
        /// The sender's view of the receiver's incarnation number.
        dst_inc: u64,
    },
}

/// Everything the host must do after handing an event to the endpoint.
///
/// The caller owns the buffer: every entry point *appends* to it and
/// never clears it, so a host can keep one and drain it after each call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkActions<M> {
    /// Frames to transmit, in order.
    pub sends: Vec<(ProcessId, LinkMsg<M>)>,
    /// Retransmission timers to arm: `(peer, delay, epoch)`. The host must
    /// hand `epoch` back to [`LinkEndpoint::on_timer`] when the timer
    /// fires; stale epochs are ignored, which is how superseded timers are
    /// "cancelled" on hosts that cannot revoke a timer.
    pub timers: Vec<(ProcessId, Duration, u64)>,
    /// Payloads released to the application, exactly once and in send
    /// order per peer.
    pub delivered: Vec<(ProcessId, M)>,
}

impl<M> Default for LinkActions<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> LinkActions<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        LinkActions {
            sends: Vec::new(),
            timers: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Whether the buffer holds no work at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.delivered.is_empty()
    }
}

/// Counters exposed for the metrics layer and the e14 experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Logical payloads accepted from the application via
    /// [`LinkEndpoint::send`] (whether transmitted immediately or queued
    /// behind a suspicion pause).
    pub payloads_sent: u64,
    /// First transmissions of Data frames.
    pub data_sent: u64,
    /// Data frames sent again by the retransmission timer or recovery.
    pub retransmissions: u64,
    /// Ack frames sent.
    pub acks_sent: u64,
    /// Received Data frames discarded as already-delivered duplicates.
    pub duplicates_suppressed: u64,
    /// Received Data frames parked out of order awaiting a gap fill.
    pub out_of_order_buffered: u64,
    /// Payloads released to the application.
    pub delivered: u64,
    /// Resumptions after a retracted suspicion (pause → immediate
    /// retransmit).
    pub recoveries: u64,
    /// Frames dropped because they carried a stale incarnation (either the
    /// peer's previous life or an earlier life of this endpoint).
    pub stale_dropped: u64,
    /// Per-peer state resets triggered by observing a newer peer
    /// incarnation.
    pub incarnation_resets: u64,
    /// High-water mark of *distinct* unacked payloads to any single peer —
    /// the per-edge channel bound of §7 restated for lossy channels.
    pub max_unacked: usize,
}

/// Per-peer sender + receiver state for one ordered link pair.
#[derive(Clone, Debug)]
struct PeerState<M> {
    // Sender side.
    /// Next sequence number to assign.
    next_seq: u64,
    /// Sent but not yet cumulatively acked, oldest first.
    unacked: VecDeque<(u64, M)>,
    /// Consecutive retransmission timeouts without progress.
    backoff_exp: u32,
    /// Epoch of the currently armed retransmission timer; fires carrying
    /// any other epoch are stale.
    timer_epoch: u64,
    /// Whether a retransmission timer is currently armed.
    timer_armed: bool,
    /// Whether the peer is suspected crashed: retransmission is paused.
    paused: bool,
    /// The highest incarnation of the peer seen on any of its frames; used
    /// both to detect peer restarts and to stamp `dst_inc` on outgoing
    /// frames.
    peer_inc: u64,
    // Receiver side.
    /// Every `seq < recv_cum` has been delivered to the application.
    recv_cum: u64,
    /// Out-of-order frames parked until the gap before them fills.
    recv_buf: BTreeMap<u64, M>,
}

impl<M> PeerState<M> {
    fn new() -> Self {
        PeerState {
            next_seq: 0,
            unacked: VecDeque::new(),
            backoff_exp: 0,
            timer_epoch: 0,
            timer_armed: false,
            paused: false,
            peer_inc: 0,
            recv_cum: 0,
            recv_buf: BTreeMap::new(),
        }
    }
}

/// One process's end of the reliable link layer, multiplexing every
/// neighbor.
///
/// ```
/// use ekbd_link::{LinkActions, LinkConfig, LinkEndpoint};
/// use ekbd_sim::ProcessId;
///
/// let (a, b) = (ProcessId(0), ProcessId(1));
/// let mut alice = LinkEndpoint::new(a, LinkConfig::default());
/// let mut bob = LinkEndpoint::new(b, LinkConfig::default());
///
/// // Alice sends; the frame is wrapped and a retransmit timer requested.
/// let mut out = LinkActions::new();
/// alice.send(b, "fork", &mut out);
/// let (to, frame) = out.sends.pop().unwrap();
/// assert_eq!(to, b);
///
/// // Bob receives: the payload is released in order and an ack produced.
/// let mut got = LinkActions::new();
/// bob.on_message(a, frame, &mut got);
/// assert_eq!(got.delivered, vec![(a, "fork")]);
///
/// // The ack clears Alice's unacked queue.
/// let (_, ack) = got.sends.pop().unwrap();
/// alice.on_message(b, ack, &mut out);
/// assert_eq!(alice.unacked_to(b), 0);
/// ```
#[derive(Clone, Debug)]
pub struct LinkEndpoint<M> {
    id: ProcessId,
    config: LinkConfig,
    /// This endpoint's incarnation number, stamped on every frame.
    inc: u64,
    /// Every peer heard from or sent to since the last restart, in
    /// first-contact order. A process has a handful of neighbors, so a
    /// scan beats hashing; nothing iterates it, so its order cannot reach
    /// a trace.
    ids: Vec<ProcessId>,
    /// `states[i]` is the link state toward `ids[i]`.
    states: Vec<PeerState<M>>,
    stats: LinkStats,
}

impl<M: Clone> LinkEndpoint<M> {
    /// Creates the endpoint for process `id`.
    pub fn new(id: ProcessId, config: LinkConfig) -> Self {
        LinkEndpoint {
            id,
            config,
            inc: 0,
            ids: Vec::new(),
            states: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// This endpoint's incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.inc
    }

    /// Restarts the endpoint into incarnation `inc` (crash-recovery).
    ///
    /// All per-peer sequence state — unacked queues, receive cursors,
    /// parked out-of-order frames, suspicion pauses — is volatile and lost;
    /// peers discover the restart from the new incarnation stamped on the
    /// next outgoing frame and reset their own side in response. Cumulative
    /// [`stats`](Self::stats) survive, since they describe the whole run.
    pub fn on_restart(&mut self, inc: u64) {
        self.inc = inc;
        self.ids.clear();
        self.states.clear();
    }

    /// Aggregate counters over all peers.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Distinct payloads currently awaiting an ack from `peer`.
    pub fn unacked_to(&self, peer: ProcessId) -> usize {
        self.find(peer).map_or(0, |i| self.states[i].unacked.len())
    }

    /// Whether retransmission to `peer` is currently paused by suspicion.
    pub fn is_paused(&self, peer: ProcessId) -> bool {
        self.find(peer).is_some_and(|i| self.states[i].paused)
    }

    fn find(&self, peer: ProcessId) -> Option<usize> {
        self.ids.iter().position(|&q| q == peer)
    }

    /// The index of `peer`'s state, created on first contact.
    fn slot(&mut self, peer: ProcessId) -> usize {
        self.find(peer).unwrap_or_else(|| {
            self.ids.push(peer);
            self.states.push(PeerState::new());
            self.ids.len() - 1
        })
    }

    /// Arms (or re-arms) the retransmission timer toward `peer`, bumping
    /// the epoch so any previously armed timer becomes stale.
    fn arm_timer(
        config: &LinkConfig,
        peer: ProcessId,
        st: &mut PeerState<M>,
        out: &mut LinkActions<M>,
    ) {
        st.timer_epoch += 1;
        st.timer_armed = true;
        let exp = st.backoff_exp.min(config.max_backoff_exp);
        let delay = config.retransmit_base.saturating_mul(1u64 << exp);
        out.timers.push((peer, delay, st.timer_epoch));
    }

    /// Retransmits every unacked frame toward `ids[i]` (go-back-N),
    /// straight from the queue, and re-arms the timer.
    fn resend_all(&mut self, i: usize, out: &mut LinkActions<M>) {
        let (inc, peer) = (self.inc, self.ids[i]);
        let st = &mut self.states[i];
        let dst_inc = st.peer_inc;
        out.sends.extend(st.unacked.iter().map(|(seq, payload)| {
            (
                peer,
                LinkMsg::Data {
                    seq: *seq,
                    inc,
                    dst_inc,
                    payload: payload.clone(),
                },
            )
        }));
        self.stats.retransmissions += st.unacked.len() as u64;
        Self::arm_timer(&self.config, peer, st, out);
    }

    /// Queues `payload` for reliable delivery to `peer`, appending what the
    /// host must do to `out`.
    ///
    /// The frame is transmitted immediately unless the peer is suspected
    /// (then it waits in the unacked queue for recovery), and a
    /// retransmission timer is armed if none is pending.
    pub fn send(&mut self, peer: ProcessId, payload: M, out: &mut LinkActions<M>) {
        let i = self.slot(peer);
        let st = &mut self.states[i];
        let seq = st.next_seq;
        st.next_seq += 1;
        st.unacked.push_back((seq, payload.clone()));
        self.stats.payloads_sent += 1;
        self.stats.max_unacked = self.stats.max_unacked.max(st.unacked.len());
        if !st.paused {
            out.sends.push((
                peer,
                LinkMsg::Data {
                    seq,
                    inc: self.inc,
                    dst_inc: st.peer_inc,
                    payload,
                },
            ));
            self.stats.data_sent += 1;
            if !st.timer_armed {
                Self::arm_timer(&self.config, peer, st, out);
            }
        }
    }

    /// Handles an incoming link frame from `peer`, appending what the host
    /// must do to `out`.
    ///
    /// Incarnation gating comes first: frames addressed to a previous life
    /// of this endpoint, or sent by a previous life of the peer, are
    /// dropped before any sequence-number processing. The first frame from
    /// a *newer* peer incarnation resets all per-peer sequence state (the
    /// peer lost its receive cursor in the crash, so outstanding frames are
    /// meaningless — the application-level rejoin handshake regenerates
    /// whatever still matters).
    pub fn on_message(&mut self, peer: ProcessId, msg: LinkMsg<M>, out: &mut LinkActions<M>) {
        let (msg_inc, msg_dst) = match &msg {
            LinkMsg::Data { inc, dst_inc, .. } | LinkMsg::Ack { inc, dst_inc, .. } => {
                (*inc, *dst_inc)
            }
        };
        let my_inc = self.inc;
        let i = self.slot(peer);
        let st = &mut self.states[i];
        if msg_inc > st.peer_inc {
            *st = PeerState::new();
            st.peer_inc = msg_inc;
            self.stats.incarnation_resets += 1;
        }
        if msg_inc < st.peer_inc {
            self.stats.stale_dropped += 1;
            return;
        }
        if msg_dst != my_inc {
            // Addressed to another life of this endpoint. If the peer is
            // behind (it has not yet heard from this incarnation), answer
            // with a bare ack carrying our current incarnation: without
            // this, two endpoints that both restarted would drop each
            // other's frames forever.
            self.stats.stale_dropped += 1;
            if msg_dst < my_inc {
                out.sends.push((
                    peer,
                    LinkMsg::Ack {
                        cum: st.recv_cum,
                        inc: my_inc,
                        dst_inc: msg_inc,
                    },
                ));
                self.stats.acks_sent += 1;
            }
            return;
        }
        match msg {
            LinkMsg::Data { seq, payload, .. } => {
                if seq < st.recv_cum || st.recv_buf.contains_key(&seq) {
                    self.stats.duplicates_suppressed += 1;
                } else if seq == st.recv_cum {
                    // In-order: release it and everything it unblocks.
                    let first = st.recv_cum;
                    st.recv_cum += 1;
                    out.delivered.push((peer, payload));
                    while let Some(next) = st.recv_buf.remove(&st.recv_cum) {
                        st.recv_cum += 1;
                        out.delivered.push((peer, next));
                    }
                    self.stats.delivered += st.recv_cum - first;
                } else {
                    st.recv_buf.insert(seq, payload);
                    self.stats.out_of_order_buffered += 1;
                }
                // Always (re-)ack: the cumulative ack is idempotent and
                // re-acking duplicates lets a sender whose ack was lost
                // make progress.
                out.sends.push((
                    peer,
                    LinkMsg::Ack {
                        cum: st.recv_cum,
                        inc: my_inc,
                        dst_inc: st.peer_inc,
                    },
                ));
                self.stats.acks_sent += 1;
            }
            LinkMsg::Ack { cum, .. } => {
                let before = st.unacked.len();
                while st.unacked.front().is_some_and(|&(seq, _)| seq < cum) {
                    st.unacked.pop_front();
                }
                if st.unacked.len() < before {
                    // Progress: the channel is alive, reset the backoff.
                    st.backoff_exp = 0;
                }
                if st.unacked.is_empty() {
                    // Nothing outstanding: let the armed timer lapse into
                    // staleness instead of re-arming.
                    st.timer_armed = false;
                    st.timer_epoch += 1;
                }
            }
        }
    }

    /// Handles a retransmission-timer fire for `peer` carrying `epoch`,
    /// appending what the host must do to `out`.
    ///
    /// Stale epochs (superseded by a later arm or cancel) are ignored.
    /// Otherwise every unacked frame is retransmitted (go-back-N) and the
    /// timer re-armed with doubled backoff — unless the peer is suspected,
    /// in which case the layer stays silent (quiescence, §7 S3).
    pub fn on_timer(&mut self, peer: ProcessId, epoch: u64, out: &mut LinkActions<M>) {
        let i = self.slot(peer);
        let st = &mut self.states[i];
        if !st.timer_armed || epoch != st.timer_epoch {
            return;
        }
        st.timer_armed = false;
        if st.paused || st.unacked.is_empty() {
            return;
        }
        st.backoff_exp = (st.backoff_exp + 1).min(self.config.max_backoff_exp);
        self.resend_all(i, out);
    }

    /// Notes that the local failure detector now suspects `peer`.
    ///
    /// Retransmission pauses: the armed timer is invalidated and no further
    /// frame is sent to the peer until the suspicion is retracted. Combined
    /// with ◇P's eventual permanent suspicion of crashed processes, this
    /// gives quiescence: only finitely many frames ever target a crashed
    /// neighbor.
    pub fn on_suspect(&mut self, peer: ProcessId) {
        let i = self.slot(peer);
        let st = &mut self.states[i];
        st.paused = true;
        st.timer_armed = false;
        st.timer_epoch += 1;
    }

    /// Notes that the local failure detector retracted its suspicion of
    /// `peer`, appending what the host must do to `out`.
    ///
    /// The pause was a false alarm, so everything still outstanding is
    /// retransmitted immediately with a reset backoff — the self-healing
    /// step that preserves wait-freedom for wrongly suspected neighbors.
    pub fn on_unsuspect(&mut self, peer: ProcessId, out: &mut LinkActions<M>) {
        let i = self.slot(peer);
        let st = &mut self.states[i];
        if !st.paused {
            return;
        }
        st.paused = false;
        st.backoff_exp = 0;
        if !st.unacked.is_empty() {
            self.stats.recoveries += 1;
            self.resend_all(i, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    /// Runs one endpoint call against a fresh action buffer.
    fn run(call: impl FnOnce(&mut LinkActions<u32>)) -> LinkActions<u32> {
        let mut out = LinkActions::new();
        call(&mut out);
        out
    }

    fn endpoint() -> LinkEndpoint<u32> {
        LinkEndpoint::new(p(0), LinkConfig::default())
    }

    fn data(out: &LinkActions<u32>) -> Vec<(u64, u32)> {
        out.sends
            .iter()
            .filter_map(|(_, m)| match m {
                LinkMsg::Data { seq, payload, .. } => Some((*seq, *payload)),
                LinkMsg::Ack { .. } => None,
            })
            .collect()
    }

    /// An incarnation-0 data frame, as exchanged before any restart.
    fn dmsg(seq: u64, payload: u32) -> LinkMsg<u32> {
        LinkMsg::Data {
            seq,
            inc: 0,
            dst_inc: 0,
            payload,
        }
    }

    /// An incarnation-0 ack frame.
    fn amsg(cum: u64) -> LinkMsg<u32> {
        LinkMsg::Ack {
            cum,
            inc: 0,
            dst_inc: 0,
        }
    }

    #[test]
    fn send_wraps_with_increasing_seq_and_arms_one_timer() {
        let mut ep = endpoint();
        let a = run(|o| ep.send(p(1), 10, o));
        let b = run(|o| ep.send(p(1), 11, o));
        assert_eq!(data(&a), vec![(0, 10)]);
        assert_eq!(data(&b), vec![(1, 11)]);
        assert_eq!(a.timers.len(), 1, "first send arms the timer");
        assert!(b.timers.is_empty(), "timer already armed");
        assert_eq!(ep.unacked_to(p(1)), 2);
        assert_eq!(ep.stats().max_unacked, 2);
    }

    #[test]
    fn in_order_delivery_and_cumulative_ack() {
        let mut ep = endpoint();
        let out = run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        assert_eq!(out.delivered, vec![(p(1), 5)]);
        assert_eq!(out.sends, vec![(p(1), amsg(1))]);
    }

    #[test]
    fn out_of_order_frames_are_parked_then_released_in_order() {
        let mut ep = endpoint();
        let late = run(|o| ep.on_message(p(1), dmsg(2, 7), o));
        assert!(late.delivered.is_empty());
        assert_eq!(late.sends, vec![(p(1), amsg(0))]);
        let later = run(|o| ep.on_message(p(1), dmsg(1, 6), o));
        assert!(later.delivered.is_empty());
        let first = run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        assert_eq!(first.delivered, vec![(p(1), 5), (p(1), 6), (p(1), 7)]);
        assert_eq!(first.sends, vec![(p(1), amsg(3))]);
        assert_eq!(ep.stats().out_of_order_buffered, 2);
    }

    #[test]
    fn duplicates_are_suppressed_but_reacked() {
        let mut ep = endpoint();
        run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        let dup = run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        assert!(dup.delivered.is_empty(), "payload must not surface twice");
        assert_eq!(dup.sends, vec![(p(1), amsg(1))]);
        assert_eq!(ep.stats().duplicates_suppressed, 1);
        // A parked out-of-order frame also counts as already-received.
        run(|o| ep.on_message(p(1), dmsg(3, 9), o));
        run(|o| ep.on_message(p(1), dmsg(3, 9), o));
        assert_eq!(ep.stats().duplicates_suppressed, 2);
    }

    #[test]
    fn ack_clears_prefix_and_cancels_timer_when_drained() {
        let mut ep = endpoint();
        run(|o| ep.send(p(1), 10, o));
        run(|o| ep.send(p(1), 11, o));
        run(|o| ep.on_message(p(1), amsg(1), o));
        assert_eq!(ep.unacked_to(p(1)), 1);
        run(|o| ep.on_message(p(1), amsg(2), o));
        assert_eq!(ep.unacked_to(p(1)), 0);
        // The old timer epoch is now stale: firing it does nothing.
        let out = run(|o| ep.on_timer(p(1), 1, o));
        assert!(out.is_empty());
    }

    #[test]
    fn timer_retransmits_all_unacked_with_backoff() {
        let cfg = LinkConfig::default().retransmit_base(8).max_backoff_exp(3);
        let mut ep = LinkEndpoint::new(p(0), cfg);
        let first = run(|o| ep.send(p(1), 10, o));
        run(|o| ep.send(p(1), 11, o));
        let (_, delay0, epoch0) = first.timers[0];
        assert_eq!(delay0, 8);
        let fire1 = run(|o| ep.on_timer(p(1), epoch0, o));
        assert_eq!(data(&fire1), vec![(0, 10), (1, 11)], "go-back-N resend");
        let (_, delay1, epoch1) = fire1.timers[0];
        assert_eq!(delay1, 16, "backoff doubles");
        let fire2 = run(|o| ep.on_timer(p(1), epoch1, o));
        let (_, delay2, epoch2) = fire2.timers[0];
        assert_eq!(delay2, 32);
        // Cap: exponent stops at 3 → 8 << 3 = 64.
        let fire3 = run(|o| ep.on_timer(p(1), epoch2, o));
        let (_, delay3, epoch3) = fire3.timers[0];
        assert_eq!(delay3, 64);
        let fire4 = run(|o| ep.on_timer(p(1), epoch3, o));
        let (_, delay4, _) = fire4.timers[0];
        assert_eq!(delay4, 64, "backoff is capped");
        assert_eq!(ep.stats().retransmissions, 8);
    }

    #[test]
    fn stale_timer_epochs_are_ignored() {
        let mut ep = endpoint();
        let first = run(|o| ep.send(p(1), 10, o));
        let (_, _, epoch) = first.timers[0];
        let fire = run(|o| ep.on_timer(p(1), epoch, o));
        assert!(!fire.sends.is_empty());
        // The original epoch was superseded by the re-arm.
        assert!(run(|o| ep.on_timer(p(1), epoch, o)).is_empty());
    }

    #[test]
    fn ack_progress_resets_backoff() {
        let mut ep = endpoint();
        let first = run(|o| ep.send(p(1), 10, o));
        run(|o| ep.send(p(1), 11, o));
        let (_, _, epoch) = first.timers[0];
        let fire = run(|o| ep.on_timer(p(1), epoch, o));
        let (_, delay_backed_off, _) = fire.timers[0];
        assert!(delay_backed_off > LinkConfig::default().retransmit_base);
        run(|o| ep.on_message(p(1), amsg(1), o));
        // Next send arms at the base delay again.
        run(|o| ep.on_message(p(1), amsg(2), o));
        let next = run(|o| ep.send(p(1), 12, o));
        let (_, delay, _) = next.timers[0];
        assert_eq!(delay, LinkConfig::default().retransmit_base);
    }

    #[test]
    fn suspicion_pauses_retransmission_for_quiescence() {
        let mut ep = endpoint();
        let first = run(|o| ep.send(p(1), 10, o));
        let (_, _, epoch) = first.timers[0];
        ep.on_suspect(p(1));
        assert!(ep.is_paused(p(1)));
        assert!(
            run(|o| ep.on_timer(p(1), epoch, o)).is_empty(),
            "paused: no resend"
        );
        // New sends while paused queue silently.
        let queued = run(|o| ep.send(p(1), 11, o));
        assert!(queued.sends.is_empty());
        assert_eq!(ep.unacked_to(p(1)), 2);
        assert_eq!(ep.stats().data_sent, 1, "only the pre-pause transmission");
    }

    #[test]
    fn unsuspect_recovers_everything_immediately() {
        let mut ep = endpoint();
        run(|o| ep.send(p(1), 10, o));
        ep.on_suspect(p(1));
        run(|o| ep.send(p(1), 11, o));
        let out = run(|o| ep.on_unsuspect(p(1), o));
        assert!(!ep.is_paused(p(1)));
        assert_eq!(data(&out), vec![(0, 10), (1, 11)]);
        assert_eq!(out.timers.len(), 1, "recovery re-arms the timer");
        assert_eq!(ep.stats().recoveries, 1);
        // Unsuspecting an unsuspected peer is a no-op.
        assert!(run(|o| ep.on_unsuspect(p(1), o)).is_empty());
    }

    #[test]
    fn unsuspect_with_nothing_outstanding_stays_silent() {
        let mut ep = endpoint();
        ep.on_suspect(p(1));
        let out = run(|o| ep.on_unsuspect(p(1), o));
        assert!(out.is_empty());
        assert_eq!(ep.stats().recoveries, 0);
    }

    #[test]
    fn links_to_different_peers_are_independent() {
        let mut ep = endpoint();
        run(|o| ep.send(p(1), 10, o));
        run(|o| ep.send(p(2), 20, o));
        ep.on_suspect(p(1));
        assert!(ep.is_paused(p(1)));
        assert!(!ep.is_paused(p(2)));
        assert_eq!(ep.unacked_to(p(1)), 1);
        assert_eq!(ep.unacked_to(p(2)), 1);
        // Sequence numbers are per-peer.
        let b = run(|o| ep.send(p(2), 21, o));
        assert_eq!(data(&b), vec![(1, 21)]);
    }

    /// End-to-end over a scripted lossy channel: every payload arrives
    /// exactly once, in order, despite loss of first transmissions.
    #[test]
    fn retransmission_heals_a_lossy_channel() {
        let mut alice = LinkEndpoint::new(p(0), LinkConfig::default());
        let mut bob = LinkEndpoint::new(p(1), LinkConfig::default());
        let mut alice_timers: Vec<u64> = Vec::new();
        let mut delivered = Vec::new();

        let mut drop_first_data = true;
        for k in 0..5u32 {
            let out = run(|o| alice.send(p(1), k, o));
            alice_timers.extend(out.timers.iter().map(|&(_, _, e)| e));
            for (_, frame) in out.sends {
                if drop_first_data {
                    // Adversary eats every first transmission.
                    continue;
                }
                let got = run(|o| bob.on_message(p(0), frame, o));
                delivered.extend(got.delivered.iter().map(|&(_, v)| v));
                for (_, ack) in got.sends {
                    run(|o| alice.on_message(p(1), ack, o));
                }
            }
            drop_first_data = true;
        }
        assert!(delivered.is_empty(), "all first copies were lost");

        // Fire timers until the queue drains (the channel is now clean).
        let mut guard = 0;
        while alice.unacked_to(p(1)) > 0 {
            guard += 1;
            assert!(guard < 100, "retransmission must converge");
            let epochs = std::mem::take(&mut alice_timers);
            for epoch in epochs {
                let out = run(|o| alice.on_timer(p(1), epoch, o));
                alice_timers.extend(out.timers.iter().map(|&(_, _, e)| e));
                for (_, frame) in out.sends {
                    let got = run(|o| bob.on_message(p(0), frame, o));
                    delivered.extend(got.delivered.iter().map(|&(_, v)| v));
                    for (_, ack) in got.sends {
                        run(|o| alice.on_message(p(1), ack, o));
                    }
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4], "exactly once, in order");
        assert!(alice.stats().retransmissions >= 5);
    }

    #[test]
    fn timer_tag_saturates_instead_of_bleeding_into_next_peer() {
        // A sane epoch round-trips exactly.
        assert_eq!(decode_timer_tag(link_timer_tag(p(3), 42)), (p(3), 42));
        // At and beyond the span boundary the epoch saturates: the tag must
        // stay inside peer 3's range, never aliasing peer 4's epoch 0.
        let max = LINK_EPOCH_SPAN - 1;
        assert_eq!(
            link_timer_tag(p(3), LINK_EPOCH_SPAN),
            link_timer_tag(p(3), max)
        );
        assert_eq!(link_timer_tag(p(3), u64::MAX), link_timer_tag(p(3), max));
        assert_eq!(
            decode_timer_tag(link_timer_tag(p(3), u64::MAX)),
            (p(3), max)
        );
        assert_ne!(link_timer_tag(p(3), u64::MAX), link_timer_tag(p(4), 0));
    }

    #[test]
    fn restart_clears_sequence_state_and_bumps_incarnation() {
        let mut ep = endpoint();
        run(|o| ep.send(p(1), 10, o));
        run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        ep.on_suspect(p(2));
        assert_eq!(ep.incarnation(), 0);
        ep.on_restart(3);
        assert_eq!(ep.incarnation(), 3);
        assert_eq!(ep.unacked_to(p(1)), 0, "unacked queue is volatile");
        assert!(!ep.is_paused(p(2)), "suspicion pause is volatile");
        // Fresh sends start at seq 0 and carry the new incarnation.
        let out = run(|o| ep.send(p(1), 11, o));
        assert!(matches!(
            out.sends[0].1,
            LinkMsg::Data { seq: 0, inc: 3, .. }
        ));
    }

    #[test]
    fn frames_from_newer_peer_incarnation_reset_the_link() {
        let mut ep = endpoint();
        // Pre-restart traffic from the peer, including a parked frame.
        run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        run(|o| ep.on_message(p(1), dmsg(2, 7), o));
        run(|o| ep.send(p(1), 10, o));
        // The peer restarts (incarnation 1) and sends from seq 0 again.
        let out = run(|o| {
            ep.on_message(
                p(1),
                LinkMsg::Data {
                    seq: 0,
                    inc: 1,
                    dst_inc: 0,
                    payload: 50,
                },
                o,
            )
        });
        assert_eq!(out.delivered, vec![(p(1), 50)], "fresh seq 0 delivered");
        assert_eq!(ep.stats().incarnation_resets, 1);
        assert_eq!(ep.unacked_to(p(1)), 0, "stale outgoing frames dropped");
        // Frames from the peer's previous life are now dropped.
        let stale = run(|o| ep.on_message(p(1), dmsg(1, 6), o));
        assert!(stale.is_empty());
        assert!(ep.stats().stale_dropped >= 1);
    }

    #[test]
    fn frames_addressed_to_a_previous_life_are_dropped_with_identity_ack() {
        let mut ep = endpoint();
        ep.on_restart(2);
        // A frame stamped for incarnation 0 of this endpoint: dropped, but
        // answered with an ack advertising incarnation 2 so the sender can
        // resynchronize (breaks the mutual-restart deadlock).
        let out = run(|o| ep.on_message(p(1), dmsg(0, 5), o));
        assert!(out.delivered.is_empty());
        assert_eq!(
            out.sends,
            vec![(
                p(1),
                LinkMsg::Ack {
                    cum: 0,
                    inc: 2,
                    dst_inc: 0
                }
            )]
        );
        assert_eq!(ep.stats().stale_dropped, 1);
    }

    #[test]
    fn mutual_restart_resynchronizes_via_identity_acks() {
        let mut alice = LinkEndpoint::new(p(0), LinkConfig::default());
        let mut bob = LinkEndpoint::new(p(1), LinkConfig::default());
        // Establish incarnation-0 traffic both ways.
        for (_, f) in run(|o| alice.send(p(1), 1, o)).sends {
            for (_, a) in run(|o| bob.on_message(p(0), f, o)).sends {
                run(|o| alice.on_message(p(1), a, o));
            }
        }
        // Both restart at different incarnations; each still believes the
        // other is at incarnation 0.
        alice.on_restart(1);
        bob.on_restart(2);
        // Alice's first frame is stamped dst_inc 0: Bob drops it but
        // answers with his identity; the exchange converges to delivery.
        let mut delivered = Vec::new();
        let mut frames: Vec<(bool, LinkMsg<u32>)> = run(|o| alice.send(p(1), 42, o))
            .sends
            .into_iter()
            .map(|(_, f)| (true, f))
            .collect();
        let mut guard = 0;
        while let Some((to_bob, frame)) = frames.pop() {
            guard += 1;
            assert!(guard < 20, "identity exchange must converge");
            if to_bob {
                let got = run(|o| bob.on_message(p(0), frame, o));
                delivered.extend(got.delivered.iter().map(|&(_, v)| v));
                frames.extend(got.sends.into_iter().map(|(_, f)| (false, f)));
            } else {
                let got = run(|o| alice.on_message(p(1), frame, o));
                frames.extend(got.sends.into_iter().map(|(_, f)| (true, f)));
            }
        }
        // The payload was dropped with the stale frame (link state is
        // volatile), but both sides now know each other's incarnation: the
        // next send goes straight through.
        for (_, f) in run(|o| alice.send(p(1), 43, o)).sends {
            let got = run(|o| bob.on_message(p(0), f, o));
            delivered.extend(got.delivered.iter().map(|&(_, v)| v));
        }
        assert_eq!(delivered, vec![43]);
    }
}
