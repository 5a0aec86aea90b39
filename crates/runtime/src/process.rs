use crate::faults::{state_entropy, LossyLinks};
use crate::system::{RestartNotice, RestartWatch};
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use ekbd_detector::{
    DetectorEvent, DetectorModule, DetectorMsg, DetectorOutput, HeartbeatDetector,
};
use ekbd_dining::{DinerState, DiningAlgorithm, DiningInput, DiningObs};
use ekbd_graph::ProcessId;
use ekbd_link::{
    decode_timer_tag, link_timer_tag, LinkActions, LinkEndpoint, LinkMsg, LINK_TAG_BASE,
};
use ekbd_metrics::{EventTail, LinkSummary, SchedEvent};
use ekbd_sim::Time;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Messages delivered to a process thread.
#[derive(Clone)]
pub(crate) enum ThreadMsg<M> {
    /// Dining-layer traffic, sent bare (reliable-channel mode).
    Dining(ProcessId, M),
    /// Dining-layer traffic wrapped by the reliable link layer. As on the
    /// simulator, detector heartbeats are *not* wrapped: ◇P is
    /// loss-tolerant by design, and wrapping perpetual monitoring traffic
    /// would defeat link-layer quiescence.
    Link(ProcessId, LinkMsg<M>),
    /// Detector-layer traffic.
    Detector(ProcessId, DetectorMsg),
    /// Workload: become hungry.
    Hungry,
    /// Fault injection: crash now. Crash-stop algorithms exit the thread;
    /// recoverable algorithms park and drop all traffic until `Recover`.
    Crash,
    /// Fault injection: restart a crashed recoverable process, blank or
    /// (when `corrupt`) with deterministically scrambled state.
    Recover {
        /// Reboot with adversarially corrupted dining state.
        corrupt: bool,
    },
    /// Fault injection: flip state bits of this (live) process.
    Corrupt {
        /// Seeded entropy word for the corruption.
        entropy: u64,
    },
    /// Membership: this (absent) process joins the system now with a
    /// fresh incarnation. Ignored unless the process is absent.
    Join,
    /// Membership: this process leaves the system permanently. A graceful
    /// leaver drains first (discharging held forks and deferred acks); a
    /// crash-stop leaver just parks, leaving reclamation to the
    /// survivors' audit.
    Leave {
        /// Drain before departing.
        graceful: bool,
    },
    /// Membership: neighbor `peer` (with priority `color`) joined — grow
    /// the conflict edge with canonical fork placement.
    PeerJoined {
        /// The joining neighbor.
        peer: ProcessId,
        /// Its (δ+1)-recoloring priority.
        color: u32,
    },
    /// Membership: neighbor `peer` left — tear the edge down (graceful)
    /// or mark it departed for audit reclamation (crash-stop).
    PeerLeft {
        /// The departing neighbor.
        peer: ProcessId,
        /// Whether it drained before leaving.
        graceful: bool,
    },
    /// Orderly end of the experiment.
    Shutdown,
}

pub(crate) struct ProcessThread<A: DiningAlgorithm> {
    pub id: ProcessId,
    pub alg: A,
    pub det: HeartbeatDetector,
    pub rx: Receiver<ThreadMsg<A::Msg>>,
    pub links: LossyLinks<ThreadMsg<A::Msg>>,
    /// Reliable link layer wrapping dining traffic; `None` sends bare
    /// `ThreadMsg::Dining` frames (correct over un-faulted channels).
    pub link: Option<LinkEndpoint<A::Msg>>,
    /// Last suspect set seen, for diffing into link pause/resume calls.
    pub suspects: BTreeSet<ProcessId>,
    /// Pooled link-action buffer, reused across link calls.
    pub link_out: LinkActions<A::Msg>,
    pub epoch: Instant,
    pub events: Arc<Mutex<EventTail>>,
    /// Live event taps (see [`ThreadedDining::tap_events`]); a tap whose
    /// receiver was dropped is pruned on the next event.
    ///
    /// [`ThreadedDining::tap_events`]: crate::ThreadedDining::tap_events
    pub tap: Arc<Mutex<Vec<Sender<SchedEvent>>>>,
    /// Shared restart-notice log (see
    /// [`ThreadedDining::restart_paths`]).
    ///
    /// [`ThreadedDining::restart_paths`]: crate::ThreadedDining::restart_paths
    pub restart_log: RestartWatch,
    /// System-wide link counters, folded into at thread exit.
    pub link_stats: Arc<Mutex<LinkSummary>>,
    /// Fixed eating duration in milliseconds.
    pub eat_ms: u64,
    /// Period of the recovery audit timer in milliseconds (only armed for
    /// algorithms with `supports_recovery`).
    pub audit_ms: u64,
    /// Seed of the state-fault entropy stream (restart corruption).
    pub entropy_seed: u64,
    /// Crashed-but-recoverable: parked, dropping all traffic.
    pub crashed: bool,
    /// Not (or no longer) a member: parked, dropping all traffic, until a
    /// `Join` boots it (initially-absent spawn) or forever (departed).
    pub absent: bool,
    /// Restart counter — the "one counter in stable storage".
    pub inc: u64,
}

impl<A: DiningAlgorithm> ProcessThread<A> {
    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_millis() as u64)
    }

    fn record(&self, obs: DiningObs) {
        let e = SchedEvent::new(self.now(), self.id, obs);
        self.events.lock().push(e);
        self.tap.lock().retain(|tx| tx.send(e).is_ok());
    }

    /// Runs link-layer calls against the pooled action buffer, then
    /// transmits the frames and arms the timers they asked for and feeds
    /// the payloads they released to the dining algorithm, in order.
    fn link_call(
        &mut self,
        timers: &mut Vec<(Instant, u64)>,
        call: impl FnOnce(&mut LinkEndpoint<A::Msg>, &mut LinkActions<A::Msg>),
    ) {
        let Some(link) = self.link.as_mut() else {
            return;
        };
        let out = &mut self.link_out;
        call(link, out);
        for (to, frame) in out.sends.drain(..) {
            self.links.send(to, ThreadMsg::Link(self.id, frame));
        }
        for (peer, delay_ms, epoch) in out.timers.drain(..) {
            timers.push((
                Instant::now() + std::time::Duration::from_millis(delay_ms),
                link_timer_tag(peer, epoch),
            ));
        }
        if out.delivered.is_empty() {
            return;
        }
        // A delivered payload re-enters `drive`, whose sends come back
        // through here while this list is still draining, so they find
        // an empty one in its place.
        let mut delivered = std::mem::take(&mut out.delivered);
        for (from, msg) in delivered.drain(..) {
            self.drive(DiningInput::Message { from, msg }, timers);
        }
        self.link_out.delivered = delivered;
    }

    fn apply_detector_output(&mut self, out: DetectorOutput, timers: &mut Vec<(Instant, u64)>) {
        for (to, msg) in out.sends {
            // A send to a crashed (exited) neighbor fails; that is exactly
            // the crash model — ignore the error.
            self.links.send(to, ThreadMsg::Detector(self.id, msg));
        }
        for (delay_ms, tag) in out.timers {
            timers.push((
                Instant::now() + std::time::Duration::from_millis(delay_ms),
                tag,
            ));
        }
        if out.changed {
            let now = self.det.suspect_set();
            let before = std::mem::take(&mut self.suspects);
            self.link_call(timers, |link, out| {
                for &q in now.difference(&before) {
                    link.on_suspect(q);
                }
                for &q in before.difference(&now) {
                    link.on_unsuspect(q, out);
                }
            });
            self.suspects = now;
            self.drive(DiningInput::SuspicionChange, timers);
        }
    }

    /// Transmits dining-layer sends, via the link layer when present.
    fn send_dining(&mut self, sends: Vec<(ProcessId, A::Msg)>, timers: &mut Vec<(Instant, u64)>) {
        for (to, msg) in sends {
            if self.link.is_some() {
                self.link_call(timers, |link, out| link.send(to, msg, out));
            } else {
                self.links.send(to, ThreadMsg::Dining(self.id, msg));
            }
        }
    }

    /// Feeds the dining algorithm, mirroring the simulator host's diffing.
    fn drive(&mut self, input: DiningInput<A::Msg>, timers: &mut Vec<(Instant, u64)>) {
        self.step_alg(timers, |alg, det, sends| alg.handle(input, det, sends));
    }

    /// Runs one algorithm step (a `handle`, `audit` or `inject_corruption`
    /// call), forwards its sends, and diffs its visible state.
    fn step_alg(
        &mut self,
        timers: &mut Vec<(Instant, u64)>,
        f: impl FnOnce(&mut A, &HeartbeatDetector, &mut Vec<(ProcessId, A::Msg)>),
    ) {
        let now = self.now().0;
        self.alg.note_now(now);
        let before = self.alg.state();
        let mut sends = Vec::new();
        f(&mut self.alg, &self.det, &mut sends);
        let after = self.alg.state();
        // Record the transition BEFORE transmitting its sends: the shared
        // epoch makes cross-thread timestamps comparable, so stamping the
        // released fork's StoppedEating only after the send could let the
        // receiver stamp its StartedEating first (this thread preempted
        // in between) and fabricate a ◇WX overlap that never happened.
        if before == DinerState::Thinking && after != DinerState::Thinking {
            self.record(DiningObs::BecameHungry);
        }
        if before != DinerState::Eating && after == DinerState::Eating {
            self.record(DiningObs::StartedEating);
            timers.push((
                Instant::now() + std::time::Duration::from_millis(self.eat_ms),
                EAT_TAG,
            ));
        }
        if before == DinerState::Eating && after == DinerState::Thinking {
            self.record(DiningObs::StoppedEating);
        }
        self.send_dining(sends, timers);
    }

    /// Restarts the crashed process: link layer first (clean channels for
    /// the rejoin traffic), then the algorithm, then a new detector epoch
    /// refuting the neighbors' suspicions of the pre-crash life.
    fn restart(&mut self, corrupt: bool, timers: &mut Vec<(Instant, u64)>) {
        self.crashed = false;
        self.inc += 1;
        timers.clear();
        let corruption = corrupt.then(|| state_entropy(self.entropy_seed, self.id, self.inc));
        if let Some(link) = self.link.as_mut() {
            link.on_restart(self.inc);
        }
        let mut sends = Vec::new();
        self.alg.note_now(self.now().0);
        self.alg
            .restart(self.inc, corruption, &self.det, &mut sends);
        // Publish which recovery path this incarnation took (queried via
        // the generic trait hook, so crash-stop algorithms publish
        // nothing) before transmitting: an observer that sees the rejoin
        // traffic's effects must already see the notice.
        if let Some(log) = self.alg.restart_log() {
            if let Some(event) = log.into_iter().last() {
                self.restart_log.publish(RestartNotice {
                    process: self.id,
                    at_ms: self.now().0,
                    event,
                });
            }
        }
        self.send_dining(sends, timers);
        let mut out = DetectorOutput::new();
        self.det.handle(
            DetectorEvent::Recovered {
                now: self.now(),
                epoch: self.inc,
            },
            &mut out,
        );
        self.apply_detector_output(out, timers);
        self.arm_audit(timers);
    }

    /// Boots an absent process into the system: fresh incarnation, clean
    /// link channels, the algorithm's `join` (introduction traffic toward
    /// any pre-wired edges), and a first detector life. Conflict edges to
    /// co-present neighbors arrive as `PeerJoined` notices queued right
    /// behind the `Join` on this thread's FIFO channel.
    fn boot(&mut self, timers: &mut Vec<(Instant, u64)>) {
        self.absent = false;
        self.crashed = false;
        self.inc += 1;
        timers.clear();
        if let Some(link) = self.link.as_mut() {
            link.on_restart(self.inc);
        }
        let mut sends = Vec::new();
        self.alg.note_now(self.now().0);
        self.alg.join(self.inc, &self.det, &mut sends);
        self.send_dining(sends, timers);
        // Same detector life-change as a restart: the neighbors suspected
        // the absent process (rightly — no heartbeats), and only an
        // epoch-stamped Alive refutes a standing suspicion.
        let mut out = DetectorOutput::new();
        self.det.handle(
            DetectorEvent::Recovered {
                now: self.now(),
                epoch: self.inc,
            },
            &mut out,
        );
        self.apply_detector_output(out, timers);
        self.arm_audit(timers);
    }

    fn arm_audit(&self, timers: &mut Vec<(Instant, u64)>) {
        if self.alg.supports_recovery() {
            timers.push((
                Instant::now() + std::time::Duration::from_millis(self.audit_ms),
                AUDIT_TAG,
            ));
        }
    }

    /// The thread body: runs the event loop, then folds this process's
    /// link counters into the system-wide summary.
    pub fn run(mut self) {
        self.event_loop();
        if let Some(link) = &self.link {
            let s = link.stats();
            self.link_stats.lock().absorb(
                s.payloads_sent,
                s.data_sent,
                s.retransmissions,
                s.acks_sent,
                s.duplicates_suppressed,
                s.out_of_order_buffered,
                s.delivered,
                s.recoveries,
                s.max_unacked,
            );
        }
    }

    /// An event loop over channel messages and timer deadlines until
    /// shutdown or (unrecoverable) crash.
    fn event_loop(&mut self) {
        let mut timers: Vec<(Instant, u64)> = Vec::new();
        // An initially-absent process stays dark — no heartbeats, no audit
        // — until its Join boots it.
        if !self.absent {
            let mut out = DetectorOutput::new();
            self.det
                .handle(DetectorEvent::Start { now: self.now() }, &mut out);
            self.apply_detector_output(out, &mut timers);
            self.arm_audit(&mut timers);
        }

        loop {
            // Fire every due timer (none are armed while crashed).
            let now_i = Instant::now();
            let mut due: Vec<u64> = Vec::new();
            timers.retain(|&(at, tag)| {
                if at <= now_i {
                    due.push(tag);
                    false
                } else {
                    true
                }
            });
            for tag in due {
                if tag == EAT_TAG {
                    if self.alg.state() == DinerState::Eating {
                        self.drive(DiningInput::DoneEating, &mut timers);
                    }
                } else if tag == AUDIT_TAG {
                    self.step_alg(&mut timers, |alg, det, sends| alg.audit(det, sends));
                    self.arm_audit(&mut timers);
                } else if tag >= LINK_TAG_BASE {
                    let (peer, epoch) = decode_timer_tag(tag);
                    self.link_call(&mut timers, |link, out| link.on_timer(peer, epoch, out));
                } else {
                    let mut out = DetectorOutput::new();
                    let now = self.now();
                    self.det.handle(DetectorEvent::Timer { now, tag }, &mut out);
                    self.apply_detector_output(out, &mut timers);
                }
            }

            let deadline = timers
                .iter()
                .map(|&(at, _)| at)
                .min()
                .unwrap_or_else(|| Instant::now() + std::time::Duration::from_millis(50));
            match self.rx.recv_deadline(deadline) {
                // A crashed (parked) recoverable process drops everything
                // except a restart or the end of the experiment; an absent
                // one additionally accepts a membership Join.
                Ok(ThreadMsg::Recover { corrupt }) => {
                    if self.crashed && !self.absent {
                        self.restart(corrupt, &mut timers);
                    }
                }
                Ok(ThreadMsg::Join) => {
                    if self.absent {
                        self.boot(&mut timers);
                    }
                }
                Ok(ThreadMsg::Leave { graceful }) => {
                    if !self.absent {
                        if graceful && !self.crashed {
                            self.step_alg(&mut timers, |alg, _det, sends| alg.retire(sends));
                        }
                        self.absent = true;
                        timers.clear();
                    }
                }
                Ok(ThreadMsg::Shutdown) => return,
                Ok(_) if self.crashed || self.absent => {}
                Ok(ThreadMsg::Dining(from, msg)) => {
                    self.drive(DiningInput::Message { from, msg }, &mut timers);
                }
                Ok(ThreadMsg::Link(from, frame)) => {
                    self.link_call(&mut timers, |link, out| link.on_message(from, frame, out));
                }
                Ok(ThreadMsg::Detector(from, msg)) => {
                    let mut out = DetectorOutput::new();
                    let now = self.now();
                    self.det
                        .handle(DetectorEvent::Message { now, from, msg }, &mut out);
                    self.apply_detector_output(out, &mut timers);
                }
                Ok(ThreadMsg::Hungry) => {
                    if self.alg.state() == DinerState::Thinking {
                        self.drive(DiningInput::Hungry, &mut timers);
                    }
                }
                Ok(ThreadMsg::PeerJoined { peer, color }) => {
                    self.step_alg(&mut timers, |alg, det, sends| {
                        alg.add_peer(peer, color, det, sends)
                    });
                }
                Ok(ThreadMsg::PeerLeft { peer, graceful }) => {
                    self.step_alg(&mut timers, |alg, det, sends| {
                        if graceful {
                            alg.remove_peer(peer, det, sends)
                        } else {
                            alg.peer_departed(peer, det, sends)
                        }
                    });
                }
                Ok(ThreadMsg::Corrupt { entropy }) => {
                    self.step_alg(&mut timers, |alg, det, sends| {
                        alg.inject_corruption(entropy, det, sends)
                    });
                }
                Ok(ThreadMsg::Crash) => {
                    if self.alg.supports_recovery() {
                        // Park: volatile state is conceptually lost (it is
                        // rebuilt from scratch on Recover); drop all
                        // traffic and send nothing meanwhile.
                        self.crashed = true;
                        timers.clear();
                    } else {
                        return; // crash-stop: the thread exits for good
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Tag for the host-level eating timer; the recovery audit timer sits just
/// below it, the heartbeat detector uses tag 1, and link timers sit in
/// `[LINK_TAG_BASE, AUDIT_TAG)` — checked in that order in the dispatch
/// above.
const EAT_TAG: u64 = u64::MAX;
const AUDIT_TAG: u64 = u64::MAX - 1;
