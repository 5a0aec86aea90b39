use crate::system::{RestartNotice, RestartWatch, RuntimeConfig};
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use ekbd_detector::HeartbeatDetector;
use ekbd_dining::{DiningAlgorithm, DiningObs};
use ekbd_graph::ProcessId;
use ekbd_harness::{AnyDetector, DinerHost, Envelope, HostCmd, HostObs, Workload};
use ekbd_metrics::{EventTail, LinkSummary, SchedEvent};
use ekbd_sim::{Context, Node, NodeEvent, Observation, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Messages delivered to a process thread.
#[derive(Clone)]
pub(crate) enum ThreadMsg<M> {
    /// Wire traffic from a neighbor, in the simulator's envelope: dining
    /// traffic (bare, or wrapped by the reliable link layer) or detector
    /// traffic, which is never wrapped.
    Msg(ProcessId, Envelope<M>),
    /// Workload: become hungry.
    Hungry,
    /// Fault injection: crash now. Crash-stop algorithms exit the thread;
    /// recoverable algorithms park and drop all traffic until `Recover`.
    Crash,
    /// Fault injection: restart a crashed recoverable process with blank
    /// dining state and a fresh incarnation.
    Recover,
    /// Orderly end of the experiment.
    Shutdown,
}

/// What the process threads of one system record for its run, behind one
/// lock: a scheduling event takes it once, and every tap sees the tail's
/// order.
#[derive(Default)]
pub(crate) struct RunLog {
    pub events: EventTail,
    /// Live event taps (see [`ThreadedDining::tap_events`]); a tap whose
    /// receiver was dropped is pruned on the next event.
    ///
    /// [`ThreadedDining::tap_events`]: crate::ThreadedDining::tap_events
    pub taps: Vec<Sender<SchedEvent>>,
    /// System-wide link counters, folded into at thread exit.
    pub link: LinkSummary,
}

/// Closes every event tap when a process thread unwinds, so a reader
/// blocked on a tap (the net server's pump) sees the system fail instead
/// of waiting for events no one will record.
struct CloseTapsOnPanic(Arc<Mutex<RunLog>>);

impl Drop for CloseTapsOnPanic {
    // The unwinding may have poisoned the log; dropping its senders reads
    // nothing of it.
    #[allow(clippy::disallowed_methods)]
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut log = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            log.taps.clear();
        }
    }
}

/// What every process thread of one system shares with its handle.
#[derive(Clone)]
pub(crate) struct Shared {
    /// Time origin of the system: event times and restart notices are
    /// milliseconds since it, so cross-thread stamps are comparable.
    pub epoch: Instant,
    pub log: Arc<Mutex<RunLog>>,
    /// Restart notices (see [`ThreadedDining::restart_paths`]).
    ///
    /// [`ThreadedDining::restart_paths`]: crate::ThreadedDining::restart_paths
    pub restart_log: RestartWatch,
}

/// One process of the threaded runtime: the simulator's [`DinerHost`]
/// behind a channel, a wall clock and a list of timer deadlines.
///
/// The host does all the protocol work — detector, link layer, recovery
/// and audit, and the state diffing that turns the algorithm into
/// observations — so the simulator's literal digests pin it on both
/// substrates. The shell does what only a thread can: channel I/O, the
/// clock, parking a crashed process, and the incarnation counter the
/// simulator keeps for its nodes.
pub(crate) struct ProcessThread<A: DiningAlgorithm> {
    id: ProcessId,
    host: DinerHost<A>,
    rx: Receiver<ThreadMsg<A::Msg>>,
    /// Each neighbour's channel. A send to a thread that has exited fails
    /// silently, which is the crash model.
    peers: HashMap<ProcessId, Sender<ThreadMsg<A::Msg>>>,
    shared: Shared,
    /// Armed timers: when each comes due, and the tag the host gave it.
    deadlines: Vec<(Instant, u64)>,
    /// Crashed-but-recoverable: parked, dropping all traffic.
    crashed: bool,
    /// Restart counter — the "one counter in stable storage".
    inc: u64,
    /// The host's random source; it draws only eating times, from a range
    /// the runtime pins to `eat_ms`.
    rng: StdRng,
    /// Effect buffers lent to each [`Context`] and reused.
    sends: Vec<(ProcessId, Envelope<A::Msg>)>,
    timers: Vec<(u64, u64)>,
    observations: Vec<Observation<HostObs>>,
}

impl<A: DiningAlgorithm> ProcessThread<A> {
    /// Hosts `alg` with a heartbeat detector over `neighbors`, the
    /// configured eating time, audit period and link layer, sending
    /// through `peers`.
    pub fn new(
        alg: A,
        neighbors: &[ProcessId],
        config: &RuntimeConfig,
        rx: Receiver<ThreadMsg<A::Msg>>,
        peers: HashMap<ProcessId, Sender<ThreadMsg<A::Msg>>>,
        shared: Shared,
    ) -> Self {
        let id = alg.id();
        let detector = HeartbeatDetector::new(config.heartbeat, neighbors.iter().copied());
        let workload = Workload {
            sessions: 0,
            think: (1, 1),
            eat: (config.eat_ms, config.eat_ms),
        };
        let mut host = DinerHost::new(alg, AnyDetector::Heartbeat(detector), workload)
            .with_audit_period(config.audit_ms);
        if let Some(cfg) = config.link {
            host = host.with_link(cfg);
        }
        ProcessThread {
            id,
            host,
            rx,
            peers,
            shared,
            deadlines: Vec::new(),
            crashed: false,
            inc: 0,
            rng: StdRng::seed_from_u64(0),
            sends: Vec::new(),
            timers: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Hands one event to the host, then records what it observed,
    /// publishes a restart's notice, and transmits its sends and arms its
    /// timers, in that order. So a transition is stamped before the
    /// messages it caused leave (stamping a released fork's StoppedEating
    /// after the send could let the receiver stamp its StartedEating
    /// first and fabricate a ◇WX overlap), and an observer that sees the
    /// effects of a restart's rejoin traffic already sees its notice.
    fn step(&mut self, ev: NodeEvent<Envelope<A::Msg>, HostCmd>) {
        // Timers count from the instant the host saw the event, as on the
        // simulator, so a slow step (a journal commit) stretches no period.
        let start = Instant::now();
        let now = Time(start.duration_since(self.shared.epoch).as_millis() as u64);
        let restart = matches!(ev, NodeEvent::Recover { .. });
        let mut ctx = Context::with_buffers(
            self.id,
            now,
            &mut self.rng,
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.timers),
            &mut self.observations,
        );
        self.host.handle(ev, &mut ctx);
        let (mut sends, mut timers) = ctx.into_buffers();
        for o in self.observations.drain(..) {
            // The runtime's vocabulary is the three transitions a client
            // of the daemon sees.
            if let HostObs::Sched(
                obs @ (DiningObs::BecameHungry
                | DiningObs::StartedEating
                | DiningObs::StoppedEating),
            ) = o.obs
            {
                let e = SchedEvent::new(o.time, self.id, obs);
                let mut log = self.shared.log.lock().expect("run log poisoned");
                log.events.push(e);
                log.taps.retain(|tx| tx.send(e).is_ok());
            }
        }
        if restart {
            // Crash-stop algorithms keep no restart log and publish nothing.
            let log = self.host.algorithm().restart_log();
            if let Some(event) = log.and_then(|log| log.into_iter().last()) {
                self.shared.restart_log.publish(RestartNotice {
                    process: self.id,
                    at_ms: now.0,
                    event,
                });
            }
        }
        for (to, msg) in sends.drain(..) {
            if let Some(tx) = self.peers.get(&to) {
                let _ = tx.send(ThreadMsg::Msg(self.id, msg));
            }
        }
        for (delay_ms, tag) in timers.drain(..) {
            self.deadlines
                .push((start + Duration::from_millis(delay_ms), tag));
        }
        self.sends = sends;
        self.timers = timers;
    }

    /// The thread body: runs the event loop, then folds this process's
    /// link counters into the system-wide summary.
    pub fn run(mut self) {
        let _taps = CloseTapsOnPanic(Arc::clone(&self.shared.log));
        self.event_loop();
        if let Some(stats) = self.host.link_stats() {
            let mut log = self.shared.log.lock().expect("run log poisoned");
            log.link.absorb(&stats);
        }
    }

    /// An event loop over channel messages and timer deadlines until
    /// shutdown or (unrecoverable) crash.
    fn event_loop(&mut self) {
        self.step(NodeEvent::Start);
        let mut due = Vec::new();
        loop {
            // Fire every due timer (none are armed while parked).
            let now = Instant::now();
            self.deadlines.retain(|&(at, tag)| {
                if at <= now {
                    due.push(tag);
                }
                at > now
            });
            for tag in due.drain(..) {
                self.step(NodeEvent::Timer { tag });
            }

            let deadline = self
                .deadlines
                .iter()
                .map(|&(at, _)| at)
                .min()
                .unwrap_or_else(|| Instant::now() + Duration::from_millis(50));
            let msg = match self.rx.recv_deadline(deadline) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            // A parked process drops everything except a restart or the
            // end of the experiment.
            let ev = match msg {
                ThreadMsg::Shutdown => return,
                ThreadMsg::Recover if self.crashed => {
                    self.crashed = false;
                    self.inc += 1;
                    NodeEvent::Recover {
                        incarnation: self.inc,
                        corruption: None,
                    }
                }
                _ if self.crashed => continue,
                ThreadMsg::Crash if self.host.algorithm().supports_recovery() => {
                    // Park: volatile state is conceptually lost (the host
                    // rebuilds it on Recover); drop all traffic and send
                    // nothing meanwhile.
                    self.crashed = true;
                    self.deadlines.clear();
                    continue;
                }
                ThreadMsg::Crash => return, // crash-stop: the thread exits for good
                ThreadMsg::Recover => continue,
                ThreadMsg::Msg(from, msg) => NodeEvent::Message { from, msg },
                ThreadMsg::Hungry => NodeEvent::External(HostCmd::BecomeHungry),
            };
            self.step(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use ekbd_detector::{DetectorMsg, HeartbeatConfig};
    use ekbd_dining::{DiningMsg, RecoverableDining, RecoveryMsg};
    use ekbd_graph::topology;
    use ekbd_link::{LinkConfig, LinkMsg};

    /// A period no script outlives: no heartbeat, eat, audit or
    /// retransmission timer comes due while one runs, so what a thread
    /// sends and records depends on its script alone, not on the clock.
    const NEVER_MS: u64 = 60_000;

    type Msg = ThreadMsg<RecoveryMsg>;

    /// What a test keeps of a thread it hands to `run()`.
    struct Probe {
        tx: Sender<Msg>,
        /// Receivers standing in for p0 and p2.
        peers: Vec<(ProcessId, Receiver<Msg>)>,
        log: Arc<Mutex<RunLog>>,
        restarts: RestartWatch,
    }

    /// p1 of `path(3)` running [`RecoverableDining`] (colors 0, 1, 0).
    fn thread_p1(link: bool) -> (ProcessThread<RecoverableDining>, Probe) {
        let g = topology::path(3);
        let id = ProcessId(1);
        let alg = RecoverableDining::from_graph(&g, &[0, 1, 0], id);
        let (tx, rx) = unbounded();
        let mut txs = HashMap::new();
        let mut peers = Vec::new();
        for &q in g.neighbors(id) {
            let (qtx, qrx) = unbounded();
            txs.insert(q, qtx);
            peers.push((q, qrx));
        }
        let config = RuntimeConfig {
            heartbeat: HeartbeatConfig {
                period: NEVER_MS,
                initial_timeout: NEVER_MS,
                timeout_increment: NEVER_MS,
            },
            eat_ms: NEVER_MS,
            audit_ms: NEVER_MS,
            link: link.then(|| LinkConfig::default().retransmit_base(NEVER_MS)),
            ..RuntimeConfig::default()
        };
        let shared = Shared {
            epoch: Instant::now(),
            log: Arc::default(),
            restart_log: RestartWatch::default(),
        };
        let probe = Probe {
            tx,
            peers,
            log: Arc::clone(&shared.log),
            restarts: shared.restart_log.clone(),
        };
        let neighbors = g.neighbors(id).to_vec();
        let thread = ProcessThread::new(alg, &neighbors, &config, rx, txs, shared);
        (thread, probe)
    }

    /// The wire vocabulary of the digest, one layer per prefix.
    fn wire(m: &Msg) -> String {
        match m {
            ThreadMsg::Msg(_, Envelope::Dining(m)) => format!("dining:{m:?}"),
            ThreadMsg::Msg(_, Envelope::Link(f)) => format!("link:{f:?}"),
            ThreadMsg::Msg(_, Envelope::Detector(d)) => format!("detector:{d:?}"),
            _ => unreachable!("a process thread sends only wire traffic"),
        }
    }

    /// Runs `script` then `Shutdown` through p1's thread, inline, and
    /// hashes (FNV-1a) what left it: each neighbour's inbox in order, the
    /// recorded `(process, obs)` sequence, and the restart notices. No
    /// wall-clock value enters the hash.
    fn digest(script: &[Msg], link: bool) -> u64 {
        let (thread, probe) = thread_p1(link);
        for m in script.iter().cloned().chain([ThreadMsg::Shutdown]) {
            assert!(probe.tx.send(m).is_ok(), "the thread's channel is open");
        }
        thread.run();
        let mut lines = Vec::new();
        for (q, rx) in &probe.peers {
            lines.extend(rx.try_iter().map(|m| format!("{q:?} {}", wire(&m))));
        }
        let mut log = probe.log.lock().expect("run log poisoned");
        lines.extend(
            std::mem::take(&mut log.events)
                .into_vec()
                .iter()
                .map(|e| format!("{:?} {:?}", e.process, e.obs)),
        );
        let restarts = probe.restarts.snapshot();
        lines.extend(
            restarts
                .iter()
                .map(|n| format!("{:?} {:?}", n.process, n.event)),
        );
        lines.iter().fold(0xcbf2_9ce4_8422_2325, |h, line| {
            line.bytes()
                .chain(std::iter::once(b'\n'))
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
        })
    }

    /// (a) Hunger, a crash, a restart, a second crash that drops the next
    /// hunger while parked, a restart, a second restart of the now-live
    /// process (ignored), and hunger again.
    fn present_script() -> Vec<Msg> {
        vec![
            ThreadMsg::Hungry,
            ThreadMsg::Crash,
            ThreadMsg::Recover,
            ThreadMsg::Crash,
            ThreadMsg::Hungry,
            ThreadMsg::Recover,
            ThreadMsg::Recover,
            ThreadMsg::Hungry,
        ]
    }

    /// (b) The process hears its neighbours: a heartbeat, acks for
    /// its pings, both forks, a refutation and a ping while it eats. Bare,
    /// or with the link layer on, wrapped in data frames (and one ack for
    /// its own ping).
    fn inbound_script(link: bool) -> Vec<Msg> {
        let (p0, p2) = (ProcessId(0), ProcessId(2));
        let dining = |seq, msg| RecoveryMsg::Dining {
            inc: 0,
            dst_inc: 0,
            seq,
            msg,
        };
        let mut next = [0u64; 3];
        let mut carry = |from: ProcessId, payload: RecoveryMsg| {
            if !link {
                return ThreadMsg::Msg(from, Envelope::Dining(payload));
            }
            let seq = next[from.index()];
            next[from.index()] += 1;
            let frame = LinkMsg::Data {
                seq,
                inc: 0,
                dst_inc: 0,
                payload,
            };
            ThreadMsg::Msg(from, Envelope::Link(frame))
        };
        let detector = |from, msg| ThreadMsg::Msg(from, Envelope::Detector(msg));
        let mut script = vec![
            ThreadMsg::Hungry,
            detector(p0, DetectorMsg::Heartbeat),
            carry(p0, dining(1, DiningMsg::Ack)),
            carry(p2, dining(1, DiningMsg::Ack)),
        ];
        if link {
            let ack = LinkMsg::Ack {
                cum: 1,
                inc: 0,
                dst_inc: 0,
            };
            script.push(ThreadMsg::Msg(p0, Envelope::Link(ack)));
        }
        script.extend([
            carry(p0, dining(2, DiningMsg::Fork)),
            carry(p2, dining(2, DiningMsg::Fork)),
            detector(p2, DetectorMsg::Alive { epoch: 1 }),
            carry(p0, dining(3, DiningMsg::Ping)),
        ]);
        script
    }

    /// The inbound literals were taken from the thread's own protocol glue,
    /// before it ran `DinerHost`, and the crash-and-restart ones from the
    /// shell that also parked absent processes: the shell must reproduce
    /// them exactly.
    #[test]
    fn one_process_thread_matches_its_literal_digests() {
        let got = [
            digest(&present_script(), false),
            digest(&present_script(), true),
            digest(&inbound_script(false), false),
            digest(&inbound_script(true), true),
        ];
        assert_eq!(
            got,
            [
                0x650d_11e8_c583_0b98,
                0xb3e3_e971_c389_386a,
                0xfd54_cd84_cc33_befe,
                0xc77c_b74a_2be3_acdd,
            ],
            "got {got:#x?}"
        );
    }
}
