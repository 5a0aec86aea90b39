use crate::detector::AnyDetector;
use ekbd_detector::{DetectorEvent, DetectorModule, DetectorMsg, DetectorOutput};
use ekbd_dining::{DinerState, DiningAlgorithm, DiningInput, DiningObs};
use ekbd_graph::ProcessId;
use ekbd_link::{
    decode_timer_tag, link_timer_tag, LinkActions, LinkConfig, LinkEndpoint, LinkMsg, LinkStats,
    LINK_TAG_BASE,
};
use ekbd_sim::{Context, Node, NodeEvent};
use rand::Rng;

/// Wire envelope multiplexing dining-layer, link-layer, and detector-layer
/// traffic over one simulated channel per neighbor pair.
#[derive(Clone, Debug)]
pub enum Envelope<M> {
    /// Dining-algorithm message, sent bare (reliable-channel mode).
    Dining(M),
    /// Dining-algorithm message wrapped by the reliable link layer
    /// (sequence numbers + acks + retransmission), used when the host runs
    /// with [`LinkConfig`] over faulty channels. Detector heartbeats are
    /// *not* wrapped: ◇P is loss-tolerant by design (a lost heartbeat is
    /// indistinguishable from a slow one, and the adaptive timeout absorbs
    /// it), and wrapping perpetual monitoring traffic would defeat
    /// link-layer quiescence.
    Link(LinkMsg<M>),
    /// Failure-detector message (heartbeats).
    Detector(DetectorMsg),
}

/// Externally injected workload commands (the environment actions of
/// Algorithm 1: Action 1 and the finite-eating rule behind Action 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostCmd {
    /// Become hungry now (legal only while thinking).
    BecomeHungry,
    /// Finish eating now (legal only while eating).
    StopEating,
    /// Neighbor `peer` joined the system with priority `color`: grow the
    /// conflict edge (dynamic membership). Delivered to the co-present
    /// neighbors of a joiner at its join instant.
    PeerJoined {
        /// The joining neighbor.
        peer: ProcessId,
        /// The joiner's assigned color (its static priority).
        color: u32,
    },
    /// Neighbor `peer` left the system permanently (dynamic membership).
    PeerLeft {
        /// The departed neighbor.
        peer: ProcessId,
        /// Whether the departure drained gracefully. A graceful leave tears
        /// the edge down completely; a crash-stop leave marks it departed
        /// so the audit path can reclaim whatever the peer held.
        graceful: bool,
    },
}

/// Observations emitted by a [`DinerHost`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostObs {
    /// A scheduling-relevant dining transition.
    Sched(DiningObs),
    /// The local detector started suspecting `target`.
    Suspect {
        /// The newly suspected process.
        target: ProcessId,
    },
    /// The local detector stopped suspecting `target`.
    Unsuspect {
        /// The no-longer-suspected process.
        target: ProcessId,
    },
    /// The dining layer sent a message to `to`. Used to check the §7
    /// quiescence claim for exactly the traffic it covers (the oracle's
    /// own heartbeats are perpetual by nature — crash monitoring cannot
    /// quiesce).
    DiningSend {
        /// The destination.
        to: ProcessId,
    },
}

/// Automatic workload driven by the host itself.
///
/// With `sessions > 0` the host becomes hungry `sessions` times, thinking
/// for a uniform `think` delay between sessions and eating for a uniform
/// `eat` duration once scheduled (correct processes always eat finitely,
/// §2). With `sessions == 0` the host only reacts to [`HostCmd`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostWorkload {
    /// Number of auto-generated hungry sessions.
    pub sessions: u32,
    /// Uniform range (inclusive) of thinking delays before each session.
    pub think: (u64, u64),
    /// Uniform range (inclusive) of eating durations.
    pub eat: (u64, u64),
}

impl HostWorkload {
    /// A workload that never gets hungry by itself.
    pub fn manual() -> Self {
        HostWorkload {
            sessions: 0,
            think: (1, 1),
            eat: (1, 1),
        }
    }
}

/// Detector timer tags live below this; host timer tags above. Link-layer
/// retransmission timers live at [`LINK_TAG_BASE`] (`1 << 41`) and above,
/// encoded by [`ekbd_link::link_timer_tag`].
const HOST_TAG_BASE: u64 = 1 << 40;
const EAT_TAG: u64 = HOST_TAG_BASE;
const HUNGER_TAG: u64 = HOST_TAG_BASE + 1;
/// Audit timers are stamped with the generation of the chain that armed
/// them (`AUDIT_TAG_BASE + generation`). The generation bumps on every
/// restart, join and snap-back, so a superseded chain — a pre-crash tick
/// that survived the crash in the event queue, or a backed-off tick a wake
/// replaced — dies silently instead of doubling the audit frequency.
const AUDIT_TAG_BASE: u64 = HOST_TAG_BASE + 2;

/// Default period of the recovery layer's audit-and-repair timer, in
/// virtual time units. Only armed for algorithms with
/// [`supports_recovery`](DiningAlgorithm::supports_recovery); override
/// per host with [`DinerHost::with_audit_period`].
pub const AUDIT_PERIOD: u64 = 50;

/// Cap `K` of the audit timer's backoff exponent. After a clean audit
/// ([`DiningAlgorithm::audit_clean`]) the next one comes `period << k`
/// later and `k` grows by one, up to `K`; an audit that is not clean, a
/// wake ([`DiningAlgorithm::wakes`]), a restart or a join puts `k` back
/// to 0 and the next audit at most one period away. So a busy process
/// audits every `period` as before, the delays of a process that stays
/// quiet run `period, 2·period, 4·period, …`, and from then on it audits
/// every `period · 2^K` ticks. Damage to it is repaired within
/// [`quiet_repair_bound`].
pub const AUDIT_BACKOFF_CAP: u32 = 3;

/// Worst-case ticks from damage to repair for a process whose audit has
/// backed off to the cap: a duplicate or missing fork or token on one of
/// its edges, with channels that deliver within `max_delay` ticks and an
/// oracle that suspects neither endpoint.
///
/// The bound is `period · (2^K + strikes) + 3 · max_delay`. Both
/// endpoints' next audits are at most `period · 2^K` away, so the first
/// snapshot that sees the damage lands within `period · 2^K + max_delay`.
/// Its receiver keeps a strike pending, which wakes it; its next snapshot
/// wakes the other side within `period + max_delay`. From then on both
/// audit every `period` and the repairing endpoint gains a strike per
/// period, so its `strikes`-th lands within `strikes · period + 2 ·
/// max_delay` of the first. A damaged thinking process holding a fork and
/// its token together discharges them at its own next audit, well inside
/// the bound.
pub const fn quiet_repair_bound(period: u64, strikes: u8, max_delay: u64) -> u64 {
    period * ((1 << AUDIT_BACKOFF_CAP) + strikes as u64) + 3 * max_delay
}

/// Degree-derived audit-and-repair period: the default a
/// [`Scenario`](crate::Scenario) uses when the operator does not pick one.
///
/// An audit pass exchanges one probe round with every neighbor, so its
/// useful cadence scales with the densest neighborhood: a high-degree
/// process needs a longer window for all replies to land (the probe
/// round-trip is bounded by twice the max message delay, default 8, per
/// neighbor wave), while auditing a sparse graph more often is cheap,
/// and costs little once the system is quiet (the timer backs off to
/// `period · 2^K`, [`AUDIT_BACKOFF_CAP`]). `10·(δ+3)` gives each neighbor
/// wave a generous round-trip budget plus three waves of slack; the clamp
/// keeps pathological graphs (isolated nodes, hubs with hundreds of edges)
/// inside the regime E15's sensitivity sweep validated. At δ = 2 — every
/// ring, the topology the fixed [`AUDIT_PERIOD`] was tuned on — the
/// formula reproduces exactly the historical constant 50.
pub fn derived_audit_period(max_degree: usize) -> u64 {
    (10 * (max_degree as u64 + 3)).clamp(30, 240)
}

/// A process hosting a dining algorithm and a failure detector.
///
/// The host owns all the plumbing the paper leaves implicit: delivering
/// detector output changes to the dining layer (so oracle-guarded actions
/// re-fire), finite eating, recurring appetite, and the emission of
/// [`HostObs`] for the metrics layer — derived by *diffing* the algorithm's
/// visible state around each call, so no algorithm can misreport itself.
/// It also wires in the link layer, crash recovery, the audit and
/// membership. It is the one host of both substrates: the simulator
/// dispatches to it directly, and each `ekbd-runtime` process thread
/// drives it through a [`Context`] over its own reused buffers.
pub struct DinerHost<A: DiningAlgorithm> {
    alg: A,
    det: AnyDetector,
    workload: HostWorkload,
    sessions_left: u32,
    /// Reliable link layer wrapping dining traffic; `None` sends bare
    /// [`Envelope::Dining`] frames (the seed behavior, correct over
    /// reliable channels).
    link: Option<LinkEndpoint<A::Msg>>,
    /// Audit-and-repair period ([`AUDIT_PERIOD`] unless overridden).
    audit_period: u64,
    /// Generation of the live audit chain; stamps its timer tag.
    audit_gen: u64,
    /// Backoff exponent of the live audit chain: a clean audit re-arms it
    /// `audit_period << audit_backoff` ahead, then bumps the exponent.
    audit_backoff: u32,
    /// The algorithm's [`wakes`](DiningAlgorithm::wakes) count at the last
    /// check.
    wakes_seen: u64,
    /// Pooled detector-effect buffers, reused across events.
    det_out: DetectorOutput,
    /// Host-side mirror of the detector's suspect set, maintained across
    /// events so suspicion diffs need no per-event snapshot of the set.
    suspects_mirror: std::collections::BTreeSet<ProcessId>,
    /// Pooled dining-send buffer, reused across algorithm steps.
    sends_buf: Vec<(ProcessId, A::Msg)>,
    /// Pooled link-action buffer, reused across link calls.
    link_out: LinkActions<A::Msg>,
}

impl<A: DiningAlgorithm> DinerHost<A> {
    /// Creates a host around `alg` and `det`.
    pub fn new(alg: A, det: AnyDetector, workload: HostWorkload) -> Self {
        let sessions_left = workload.sessions;
        DinerHost {
            alg,
            det,
            workload,
            sessions_left,
            link: None,
            audit_period: AUDIT_PERIOD,
            audit_gen: 0,
            audit_backoff: 0,
            wakes_seen: 0,
            det_out: DetectorOutput::new(),
            suspects_mirror: std::collections::BTreeSet::new(),
            sends_buf: Vec::new(),
            link_out: LinkActions::new(),
        }
    }

    /// Routes all dining traffic through a reliable link layer — required
    /// for correctness whenever the scenario injects channel faults.
    pub fn with_link(mut self, cfg: LinkConfig) -> Self {
        let id = self.alg.id();
        self.link = Some(LinkEndpoint::new(id, cfg));
        self
    }

    /// Overrides the audit-and-repair period (minimum 1 tick). Shorter
    /// periods repair corruption and retry lost rejoins sooner at the cost
    /// of more audit traffic while anything happens; once the process is
    /// quiet the timer backs off to `period · 2^K` ([`AUDIT_BACKOFF_CAP`])
    /// whatever the period. E15's sensitivity sub-table quantifies the
    /// trade-off.
    pub fn with_audit_period(mut self, period: u64) -> Self {
        self.audit_period = period.max(1);
        self
    }

    /// The hosted algorithm (for state assertions).
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The hosted detector.
    pub fn detector(&self) -> &AnyDetector {
        &self.det
    }

    /// The link layer's counters, if the host runs one.
    pub fn link_stats(&self) -> Option<LinkStats> {
        self.link.as_ref().map(|l| l.stats())
    }

    /// Runs one link-layer call against the pooled action buffer, then
    /// transmits the frames and arms the timers it asked for and feeds the
    /// payloads it released to the dining algorithm, in order.
    fn link_call(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>,
        call: impl FnOnce(&mut LinkEndpoint<A::Msg>, &mut LinkActions<A::Msg>),
    ) {
        let Some(link) = self.link.as_mut() else {
            return;
        };
        let out = &mut self.link_out;
        call(link, out);
        for (to, frame) in out.sends.drain(..) {
            ctx.send(to, Envelope::Link(frame));
        }
        for (peer, delay, epoch) in out.timers.drain(..) {
            ctx.set_timer(delay, link_timer_tag(peer, epoch));
        }
        if out.delivered.is_empty() {
            return;
        }
        // A delivered payload re-enters `drive`, whose sends come back
        // through here while this list is still draining, so they find
        // an empty one in its place.
        let mut delivered = std::mem::take(&mut out.delivered);
        for (from, msg) in delivered.drain(..) {
            self.drive(DiningInput::Message { from, msg }, ctx);
        }
        self.link_out.delivered = delivered;
    }

    /// Feeds one event to the detector and applies its output: wraps sends,
    /// forwards timers, reports suspicion changes (diffed against the
    /// host's persistent mirror of the suspect set, so the steady state
    /// snapshots nothing), and — if the suspect set changed — lets the
    /// dining layer re-evaluate its oracle-guarded actions.
    fn detector_event(
        &mut self,
        ev: DetectorEvent,
        ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>,
    ) {
        let mut out = std::mem::take(&mut self.det_out);
        out.changed = false;
        self.det.handle(ev, &mut out);
        for (to, msg) in out.sends.drain(..) {
            ctx.send(to, Envelope::Detector(msg));
        }
        for (delay, tag) in out.timers.drain(..) {
            debug_assert!(tag < HOST_TAG_BASE, "detector tag collides with host tags");
            ctx.set_timer(delay, tag);
        }
        let changed = out.changed;
        self.det_out = out;
        if changed {
            let after = self.det.suspect_set();
            let before = std::mem::take(&mut self.suspects_mirror);
            for &q in after.difference(&before) {
                ctx.observe(HostObs::Suspect { target: q });
                // Quiescence (§7 S3): stop retransmitting to the suspect.
                if let Some(link) = self.link.as_mut() {
                    link.on_suspect(q);
                }
            }
            for &q in before.difference(&after) {
                ctx.observe(HostObs::Unsuspect { target: q });
                // False alarm: re-send everything still outstanding so a
                // live neighbor is made whole (wait-freedom).
                self.link_call(ctx, |link, out| link.on_unsuspect(q, out));
            }
            self.suspects_mirror = after;
            self.drive(DiningInput::SuspicionChange, ctx);
        }
    }

    /// Transmits dining-layer sends, via the link layer when present.
    fn send_dining(
        &mut self,
        sends: &mut Vec<(ProcessId, A::Msg)>,
        ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>,
    ) {
        for (to, msg) in sends.drain(..) {
            ctx.observe(HostObs::DiningSend { to });
            if self.link.is_some() {
                self.link_call(ctx, |link, out| link.send(to, msg, out));
            } else {
                ctx.send(to, Envelope::Dining(msg));
            }
        }
    }

    /// Feeds one input to the dining algorithm, forwards its sends, diffs
    /// its visible state into observations, and manages the eat/think
    /// timers of the workload.
    fn drive(
        &mut self,
        input: DiningInput<A::Msg>,
        ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>,
    ) {
        self.step_alg(ctx, |alg, det, sends| alg.handle(input, det, sends));
    }

    /// Runs one algorithm step `f` (a `handle`, `audit` or
    /// `inject_corruption` call), forwards its sends, and diffs its visible
    /// state into observations.
    fn step_alg(
        &mut self,
        ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>,
        f: impl FnOnce(&mut A, &AnyDetector, &mut Vec<(ProcessId, A::Msg)>),
    ) {
        // Journaling algorithms stamp committed records with the commit
        // time; feed them the simulation clock before the step runs.
        self.alg.note_now(ctx.now().0);
        let state_before = self.alg.state();
        let inside_before = self.alg.inside_doorway();
        let mut sends = std::mem::take(&mut self.sends_buf);
        f(&mut self.alg, &self.det, &mut sends);
        self.send_dining(&mut sends, ctx);
        self.sends_buf = sends;
        // `false` for Algorithm 1, so the check compiles away there.
        if self.alg.supports_recovery() {
            let wakes = self.alg.wakes();
            if wakes != self.wakes_seen {
                self.wakes_seen = wakes;
                self.wake_audit(ctx);
            }
        }
        let state_after = self.alg.state();
        let inside_after = self.alg.inside_doorway();

        // One `handle` call can traverse several phases (e.g. thinking →
        // hungry → doorway → eating when every neighbor is suspected), so
        // decompose the endpoint diff into the full transition sequence.
        debug_assert!(
            !matches!(
                (state_before, state_after),
                (DinerState::Eating, DinerState::Hungry)
                    | (DinerState::Hungry, DinerState::Thinking)
            ),
            "illegal dining transition {state_before} → {state_after}"
        );
        if state_before == DinerState::Thinking && state_after != DinerState::Thinking {
            ctx.observe(HostObs::Sched(DiningObs::BecameHungry));
        }
        if !inside_before && inside_after {
            ctx.observe(HostObs::Sched(DiningObs::EnteredDoorway));
        }
        if state_before != DinerState::Eating && state_after == DinerState::Eating {
            ctx.observe(HostObs::Sched(DiningObs::StartedEating));
            let (lo, hi) = self.workload.eat;
            let dur = ctx.rng().gen_range(lo..=hi.max(lo));
            ctx.set_timer(dur, EAT_TAG);
        }
        if state_before == DinerState::Eating && state_after == DinerState::Thinking {
            ctx.observe(HostObs::Sched(DiningObs::StoppedEating));
            self.schedule_appetite(ctx);
        }
        if inside_before && !inside_after {
            ctx.observe(HostObs::Sched(DiningObs::ExitedDoorway));
        }
    }

    /// Arms the next auto-hunger timer, if sessions remain.
    fn schedule_appetite(&mut self, ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>) {
        if self.sessions_left == 0 {
            return;
        }
        self.sessions_left -= 1;
        let (lo, hi) = self.workload.think;
        let delay = ctx.rng().gen_range(lo..=hi.max(lo));
        ctx.set_timer(delay, HUNGER_TAG);
    }

    /// Arms the live audit chain at the base period, for algorithms that
    /// implement the recovery protocol.
    fn arm_audit(&mut self, ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>) {
        if self.alg.supports_recovery() {
            self.audit_backoff = 0;
            ctx.set_timer(self.audit_period, AUDIT_TAG_BASE + self.audit_gen);
        }
    }

    /// Starts a new audit chain at the base period; every earlier chain
    /// dies.
    fn restart_audit(&mut self, ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>) {
        self.audit_gen += 1;
        self.arm_audit(ctx);
    }

    /// Snaps the audit chain back to the base period. Only a chain armed
    /// more than one period ahead (`audit_backoff > 1`) needs a new timer.
    fn wake_audit(&mut self, ctx: &mut Context<'_, Envelope<A::Msg>, HostObs>) {
        if self.audit_backoff > 1 {
            self.restart_audit(ctx);
        }
        self.audit_backoff = 0;
    }
}

impl<A: DiningAlgorithm> Node for DinerHost<A> {
    type Msg = Envelope<A::Msg>;
    type Ext = HostCmd;
    type Obs = HostObs;

    fn handle(
        &mut self,
        ev: NodeEvent<Self::Msg, HostCmd>,
        ctx: &mut Context<'_, Self::Msg, HostObs>,
    ) {
        match ev {
            NodeEvent::Start => {
                self.detector_event(DetectorEvent::Start { now: ctx.now() }, ctx);
                self.schedule_appetite(ctx);
                self.arm_audit(ctx);
            }
            NodeEvent::Timer { tag } if tag < HOST_TAG_BASE => {
                self.detector_event(
                    DetectorEvent::Timer {
                        now: ctx.now(),
                        tag,
                    },
                    ctx,
                );
            }
            NodeEvent::Timer { tag: EAT_TAG } => {
                // Correct processes eat only finitely long (§2).
                if self.alg.state() == DinerState::Eating {
                    self.drive(DiningInput::DoneEating, ctx);
                }
            }
            NodeEvent::Timer { tag: HUNGER_TAG } => {
                if self.alg.state() == DinerState::Thinking {
                    self.drive(DiningInput::Hungry, ctx);
                } else {
                    // Still busy (only possible with interleaved manual
                    // commands): retry shortly rather than drop the session.
                    ctx.set_timer(1, HUNGER_TAG);
                }
            }
            NodeEvent::Timer { tag } if tag >= LINK_TAG_BASE => {
                let (peer, epoch) = decode_timer_tag(tag);
                self.link_call(ctx, |link, out| link.on_timer(peer, epoch, out));
            }
            NodeEvent::Timer { tag } if tag >= AUDIT_TAG_BASE => {
                // A tick from a superseded chain is stale noise; only the
                // live chain audits and re-arms, backing off while the
                // audits come back clean.
                if tag == AUDIT_TAG_BASE + self.audit_gen {
                    self.step_alg(ctx, |alg, det, sends| alg.audit(det, sends));
                    let delay = if self.alg.audit_clean() {
                        let d = self.audit_period << self.audit_backoff;
                        self.audit_backoff = (self.audit_backoff + 1).min(AUDIT_BACKOFF_CAP);
                        d
                    } else {
                        self.audit_backoff = 0;
                        self.audit_period
                    };
                    ctx.set_timer(delay, tag);
                }
            }
            NodeEvent::Timer { tag } => debug_assert!(false, "unknown timer tag {tag}"),
            NodeEvent::Message {
                from,
                msg: Envelope::Link(frame),
            } => {
                debug_assert!(self.link.is_some(), "link frame without a link layer");
                self.link_call(ctx, |link, out| link.on_message(from, frame, out));
            }
            NodeEvent::Message {
                from,
                msg: Envelope::Detector(m),
            } => {
                self.detector_event(
                    DetectorEvent::Message {
                        now: ctx.now(),
                        from,
                        msg: m,
                    },
                    ctx,
                );
            }
            NodeEvent::Message {
                from,
                msg: Envelope::Dining(m),
            } => {
                self.drive(DiningInput::Message { from, msg: m }, ctx);
            }
            NodeEvent::External(HostCmd::BecomeHungry) => {
                if self.alg.state() == DinerState::Thinking {
                    self.drive(DiningInput::Hungry, ctx);
                }
            }
            NodeEvent::External(HostCmd::StopEating) => {
                if self.alg.state() == DinerState::Eating {
                    self.drive(DiningInput::DoneEating, ctx);
                }
            }
            NodeEvent::External(HostCmd::PeerJoined { peer, color }) => {
                debug_assert!(
                    self.alg.supports_membership(),
                    "membership notice for a fixed-graph algorithm"
                );
                self.step_alg(ctx, |alg, det, sends| alg.add_peer(peer, color, det, sends));
            }
            NodeEvent::External(HostCmd::PeerLeft { peer, graceful }) => {
                debug_assert!(
                    self.alg.supports_membership(),
                    "membership notice for a fixed-graph algorithm"
                );
                self.step_alg(ctx, |alg, det, sends| {
                    if graceful {
                        alg.remove_peer(peer, det, sends);
                    } else {
                        alg.peer_departed(peer, det, sends);
                    }
                });
            }
            NodeEvent::Recover {
                incarnation,
                corruption,
            } => {
                debug_assert!(
                    self.alg.supports_recovery(),
                    "recovery scheduled for a crash-stop algorithm"
                );
                // Order matters: the link layer resets its sequence state
                // first so the rejoin handshake below rides clean channels,
                // then the algorithm rebuilds itself, then the detector
                // opens a new epoch and refutes the neighbors' suspicions
                // of the pre-crash life.
                if let Some(link) = self.link.as_mut() {
                    link.on_restart(incarnation);
                }
                let mut sends = std::mem::take(&mut self.sends_buf);
                self.alg.note_now(ctx.now().0);
                self.alg
                    .restart(incarnation, corruption, &self.det, &mut sends);
                self.send_dining(&mut sends, ctx);
                self.sends_buf = sends;
                self.detector_event(
                    DetectorEvent::Recovered {
                        now: ctx.now(),
                        epoch: incarnation,
                    },
                    ctx,
                );
                // The new life gets a fresh workload allocation and its own
                // audit chain.
                self.sessions_left = self.workload.sessions;
                self.schedule_appetite(ctx);
                self.restart_audit(ctx);
            }
            NodeEvent::Corrupt { entropy } => {
                self.step_alg(ctx, |alg, det, sends| {
                    alg.inject_corruption(entropy, det, sends)
                });
            }
            NodeEvent::Join { incarnation } => {
                debug_assert!(
                    self.alg.supports_membership(),
                    "join scheduled for a fixed-graph algorithm"
                );
                // Same ordering as a crash-recovery restart: clean link
                // channels first, then the algorithm introduces itself via
                // the rejoin handshake, then the detector opens the
                // incarnation's epoch. The neighbours rightly suspected
                // the absent process (it sent no heartbeats), and only an
                // epoch-stamped `Alive` withdraws a standing suspicion
                // without counting it a false positive.
                if let Some(link) = self.link.as_mut() {
                    link.on_restart(incarnation);
                }
                let mut sends = std::mem::take(&mut self.sends_buf);
                self.alg.note_now(ctx.now().0);
                self.alg.join(incarnation, &self.det, &mut sends);
                self.send_dining(&mut sends, ctx);
                self.sends_buf = sends;
                self.detector_event(
                    DetectorEvent::Recovered {
                        now: ctx.now(),
                        epoch: incarnation,
                    },
                    ctx,
                );
                self.sessions_left = self.workload.sessions;
                self.schedule_appetite(ctx);
                self.restart_audit(ctx);
            }
            NodeEvent::Leave => {
                // The last event this node will ever handle: discharge held
                // resources so no survivor starves waiting on us. No timers
                // are re-armed — the simulator delivers nothing after this.
                self.step_alg(ctx, |alg, _det, sends| alg.retire(sends));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_detector::{HeartbeatConfig, HeartbeatDetector, SuspicionView};
    use ekbd_dining::RecoverableDining;
    use ekbd_graph::{coloring, topology};
    use ekbd_sim::{Observation, Time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_joiner_refutes_its_neighbours_suspicion_without_a_false_positive() {
        let g = topology::path(3);
        let colors = coloring::greedy(&g);
        let joiner = ProcessId(1);
        let cfg = HeartbeatConfig::default();
        let detector = HeartbeatDetector::new(cfg, g.neighbors(joiner).iter().copied());
        let mut host = DinerHost::new(
            RecoverableDining::from_graph(&g, &colors, joiner),
            AnyDetector::Heartbeat(detector),
            HostWorkload::manual(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut log: Vec<Observation<HostObs>> = Vec::new();
        let mut ctx = Context::with_buffers(
            joiner,
            Time(100),
            &mut rng,
            Vec::new(),
            Vec::new(),
            &mut log,
        );
        host.handle(NodeEvent::Join { incarnation: 1 }, &mut ctx);
        let (sends, _) = ctx.into_buffers();
        for &q in g.neighbors(joiner) {
            let heard: Vec<DetectorMsg> = sends
                .iter()
                .filter_map(|(to, m)| match m {
                    Envelope::Detector(m) if *to == q => Some(*m),
                    _ => None,
                })
                .collect();
            assert!(
                heard.contains(&DetectorMsg::Alive { epoch: 1 }),
                "{q:?} hears the joiner's epoch: {heard:?}"
            );
            // The neighbour rightly suspected the absent joiner, which sent
            // it nothing before its join.
            let mut neighbour = HeartbeatDetector::new(cfg, [joiner]);
            let mut out = DetectorOutput::new();
            neighbour.handle(DetectorEvent::Start { now: Time(0) }, &mut out);
            neighbour.handle(
                DetectorEvent::Timer {
                    now: Time(99),
                    tag: 1,
                },
                &mut out,
            );
            assert!(neighbour.suspects(joiner));
            for msg in heard {
                let now = Time(101);
                let ev = DetectorEvent::Message {
                    now,
                    from: joiner,
                    msg,
                };
                neighbour.handle(ev, &mut out);
            }
            assert!(!neighbour.suspects(joiner), "the join withdraws it");
            assert_eq!(
                neighbour.total_false_positives(),
                0,
                "a correct suspicion withdrawn is no false positive"
            );
        }
    }
}
