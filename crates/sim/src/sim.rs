use crate::event::{EventKind, WheelQueue};
use crate::fault::FaultPlan;
use crate::network::{ChannelStats, DelayModel, Network};
use crate::node::{Context, Node, NodeEvent};
use crate::obs::StreamSink;
use crate::time::{Duration, Time};
use crate::trace::{Observation, TraceEvent, TraceKind};
use crate::ProcessId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem;

/// Configuration of a [`Simulator`].
///
/// All builder methods consume and return `self`, so configurations read as
/// one expression:
///
/// ```
/// use ekbd_sim::{SimConfig, DelayModel, Time};
/// let cfg = SimConfig::default()
///     .n(8)
///     .seed(42)
///     .delay(DelayModel::Gst { gst: Time(500), pre_max: 200, delta: 5 })
///     .record_trace(true);
/// assert_eq!(cfg.n, 8);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// RNG seed; the entire run is a pure function of the seed and the
    /// scheduled external events/crashes.
    pub seed: u64,
    /// Message delay model.
    pub delay: DelayModel,
    /// Channel-fault schedule (loss, duplication, reordering, partitions).
    /// The default plan is empty: a perfectly reliable FIFO network.
    pub faults: FaultPlan,
    /// Whether to record the kernel trace (off by default; observations are
    /// always recorded).
    pub record_trace: bool,
    /// Safety valve: [`Simulator::run`] stops after this many events.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 3,
            seed: 0,
            delay: DelayModel::default(),
            faults: FaultPlan::default(),
            record_trace: false,
            max_events: 50_000_000,
        }
    }
}

impl SimConfig {
    /// Sets the number of processes.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }
    /// Sets the channel-fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
    /// Enables or disables kernel-trace recording.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }
    /// Sets the event-count safety valve.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }
}

/// Reusable effect buffers swapped into each [`Context`], so the steady
/// state dispatches events without heap allocation. (Observations need no
/// scratch: they go straight into the simulator's sink.)
struct Scratch<N: Node> {
    sends: Vec<(ProcessId, N::Msg)>,
    timers: Vec<(Duration, u64)>,
}

impl<N: Node> Scratch<N> {
    fn new() -> Self {
        Scratch {
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// A deterministic discrete-event simulator over `n` [`Node`]s, handing
/// every observation to one sink `S`: by default the dense log
/// [`observations`](Self::observations) reads.
///
/// The life of a run:
///
/// 1. construct with a per-process node factory ([`new`](Self::new), or
///    [`with_sink`](Self::with_sink) for a sink other than the log),
/// 2. schedule workload ([`schedule_external`](Self::schedule_external)) and
///    faults ([`schedule_crash`](Self::schedule_crash)),
/// 3. drive with [`run_until`](Self::run_until) (or [`run`](Self::run) for
///    workloads that quiesce),
/// 4. inspect the sink ([`observations`](Self::observations),
///    [`sink_mut`](Self::sink_mut), [`into_sink`](Self::into_sink)), nodes,
///    channel stats.
pub struct Simulator<N: Node, S = Vec<Observation<<N as Node>::Obs>>> {
    config: SimConfig,
    time: Time,
    queue: WheelQueue<N::Msg, N::Ext>,
    network: Network,
    nodes: Vec<N>,
    crashed: Vec<bool>,
    /// Dynamic-membership presence. An absent process behaves like a
    /// crashed one (drops deliveries, timers, externals) but has never
    /// started — or has permanently left. All-true without a membership
    /// schedule, so churn-free runs are bit-identical to the seed kernel.
    present: Vec<bool>,
    crash_times: Vec<Option<Time>>,
    incarnations: Vec<u64>,
    rng: StdRng,
    started: bool,
    events_processed: u64,
    trace: Vec<TraceEvent>,
    sink: S,
    scratch: Scratch<N>,
}

impl<N: Node> Simulator<N> {
    /// Creates a simulator that logs every observation; `factory(id, rng)`
    /// builds the node for each process id in order.
    pub fn new(config: SimConfig, factory: impl FnMut(ProcessId, &mut StdRng) -> N) -> Self {
        Self::with_sink(config, Vec::new(), factory)
    }

    /// All observations emitted so far, in emission order.
    pub fn observations(&self) -> &[Observation<N::Obs>] {
        &self.sink
    }
}

impl<N: Node, S: StreamSink<N::Obs>> Simulator<N, S> {
    /// Creates a simulator that hands every observation to `sink`.
    pub fn with_sink(
        config: SimConfig,
        sink: S,
        mut factory: impl FnMut(ProcessId, &mut StdRng) -> N,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let nodes: Vec<N> = (0..config.n)
            .map(|i| factory(ProcessId::from(i), &mut rng))
            .collect();
        let n = config.n;
        let mut queue = WheelQueue::new();
        // Auto-schedule the plan-declared process faults straight off the
        // borrowed plan — no `FaultPlan` clone is ever needed.
        for r in &config.faults.recoveries {
            assert!(r.process.index() < n, "recovery target out of range");
            queue.push(r.at, r.process, EventKind::Recover { corrupt: r.corrupt });
        }
        for c in &config.faults.corruptions {
            assert!(c.process.index() < n, "corruption target out of range");
            queue.push(c.at, c.process, EventKind::Corrupt);
        }
        Simulator {
            network: Network::new(n, config.seed),
            config,
            time: Time::ZERO,
            queue,
            nodes,
            crashed: vec![false; n],
            present: vec![true; n],
            crash_times: vec![None; n],
            incarnations: vec![0; n],
            rng,
            started: false,
            events_processed: 0,
            trace: Vec::new(),
            sink,
            scratch: Scratch::new(),
        }
    }

    /// The observation sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Ends the run, returning the observation sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the system has zero processes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node's state (for assertions and metrics).
    pub fn node(&self, p: ProcessId) -> &N {
        &self.nodes[p.index()]
    }

    /// Whether `p` has crashed (by current virtual time).
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed[p.index()]
    }

    /// The crash time of `p`, if it crashed.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_times[p.index()]
    }

    /// Ids of processes that never crash in this run *as scheduled so far*.
    pub fn correct_processes(&self) -> Vec<ProcessId> {
        (0..self.len())
            .map(ProcessId::from)
            .filter(|p| !self.crashed[p.index()] && self.crash_times[p.index()].is_none())
            .collect()
    }

    /// Schedules process `p` to crash at time `t`.
    ///
    /// A crash takes effect as an ordinary event: everything `p` did before
    /// `t` stands (including messages already in flight), and `p` handles no
    /// event from `t` on.
    pub fn schedule_crash(&mut self, p: ProcessId, t: Time) {
        assert!(p.index() < self.len(), "crash target out of range");
        self.crash_times[p.index()] = Some(t);
        self.queue.push(t, p, EventKind::Crash);
    }

    /// The current incarnation of `p`: 0 until its first restart, then the
    /// 1-based count of restarts so far.
    pub fn incarnation(&self, p: ProcessId) -> u64 {
        self.incarnations[p.index()]
    }

    /// Schedules process `p` to restart at time `t` (crash-recovery fault
    /// model). A no-op if `p` is not crashed when the event fires. With
    /// `corrupt`, the process reboots with adversarially corrupted state
    /// (seeded, deterministic) instead of blank state.
    pub fn schedule_recovery(&mut self, p: ProcessId, t: Time, corrupt: bool) {
        assert!(p.index() < self.len(), "recovery target out of range");
        self.queue.push(t, p, EventKind::Recover { corrupt });
    }

    /// Schedules a transient state corruption of `p` at time `t`. A no-op
    /// if `p` is crashed when the event fires.
    pub fn schedule_corruption(&mut self, p: ProcessId, t: Time) {
        assert!(p.index() < self.len(), "corruption target out of range");
        self.queue.push(t, p, EventKind::Corrupt);
    }

    /// Schedules an external (workload) event for `p` at time `t`.
    pub fn schedule_external(&mut self, p: ProcessId, t: Time, ev: N::Ext) {
        assert!(p.index() < self.len(), "external target out of range");
        self.queue.push(t, p, EventKind::External(ev));
    }

    /// Marks `p` as initially absent (dynamic membership). Must be called
    /// before the first event is processed: the process gets no `Start`
    /// event and drops everything addressed to it until a scheduled join
    /// boots it.
    pub fn set_initially_absent(&mut self, p: ProcessId) {
        assert!(p.index() < self.len(), "membership target out of range");
        assert!(!self.started, "initial membership is fixed at start-up");
        self.present[p.index()] = false;
    }

    /// Schedules the absent process `p` to join the system at `t`. A no-op
    /// if `p` is already present when the event fires. The joiner boots at
    /// the next incarnation of the shared restart counter (≥ 1), so a
    /// later crash + recovery stays strictly increasing.
    pub fn schedule_join(&mut self, p: ProcessId, t: Time) {
        assert!(p.index() < self.len(), "membership target out of range");
        self.queue.push(t, p, EventKind::Join);
    }

    /// Schedules the present process `p` to leave the system at `t`,
    /// permanently. With `graceful`, the node handles one final
    /// [`NodeEvent::Leave`] (its outgoing sends are still delivered) before
    /// going silent; otherwise it crash-stops out with no warning. A no-op
    /// if `p` is absent or crashed when the event fires.
    pub fn schedule_leave(&mut self, p: ProcessId, t: Time, graceful: bool) {
        assert!(p.index() < self.len(), "membership target out of range");
        self.queue.push(t, p, EventKind::Leave { graceful });
    }

    /// Whether `p` is currently a member of the system (present and not
    /// merely crashed; a crashed member is still a member).
    pub fn is_present(&self, p: ProcessId) -> bool {
        self.present[p.index()]
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The kernel trace (empty unless [`SimConfig::record_trace`] was set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Channel statistics for the unordered pair `{a, b}`.
    pub fn channel_stats(&self, a: ProcessId, b: ProcessId) -> ChannelStats {
        self.network.stats(a, b)
    }

    /// The largest in-transit high-water mark over all channels.
    pub fn max_channel_high_water(&self) -> usize {
        self.network
            .all_stats()
            .map(|(_, s)| s.high_water)
            .max()
            .unwrap_or(0)
    }

    /// Total messages sent in the run.
    pub fn total_messages(&self) -> u64 {
        self.network.all_stats().map(|(_, s)| s.total).sum()
    }

    /// Messages destroyed in transit by channel faults (loss + partitions).
    pub fn total_dropped(&self) -> u64 {
        self.network.all_stats().map(|(_, s)| s.dropped).sum()
    }

    /// Extra copies injected by duplication faults.
    pub fn total_duplicated(&self) -> u64 {
        self.network.all_stats().map(|(_, s)| s.duplicated).sum()
    }

    /// `(send_time, from, to)` for every message sent to an
    /// already-crashed destination.
    pub fn sends_to_crashed(&self) -> &[(Time, ProcessId, ProcessId)] {
        self.network.sends_to_crashed()
    }

    fn dispatch(&mut self, target: ProcessId, ev: NodeEvent<N::Msg, N::Ext>) {
        let mut ctx = Context::with_buffers(
            target,
            self.time,
            &mut self.rng,
            mem::take(&mut self.scratch.sends),
            mem::take(&mut self.scratch.timers),
            &mut self.sink,
        );
        self.nodes[target.index()].handle(ev, &mut ctx);
        let Context {
            mut sends,
            mut timers,
            ..
        } = ctx;
        for (to, msg) in sends.drain(..) {
            assert!(to.index() < self.crashed.len(), "send target out of range");
            assert!(to != target, "a process cannot send to itself");
            let dest_crashed = self.crashed[to.index()] || !self.present[to.index()];
            let disposition = self.network.schedule_send(
                &self.config.delay,
                &self.config.faults,
                self.time,
                target,
                to,
                dest_crashed,
                &mut self.rng,
            );
            let copies = disposition.deliveries.len();
            let mut payload = Some(msg);
            for (copy, &delivery) in disposition.deliveries.as_slice().iter().enumerate() {
                // The last copy takes the payload; only a duplicate clones.
                let msg = if copy + 1 == copies {
                    payload.take().expect("payload moved once")
                } else {
                    payload.as_ref().expect("payload present").clone()
                };
                self.queue
                    .push(delivery, to, EventKind::Deliver { from: target, msg });
                if self.config.record_trace {
                    let kind = if copy > 0 {
                        TraceKind::Duplicated {
                            from: target,
                            to,
                            delivery,
                        }
                    } else if disposition.reordered {
                        TraceKind::Reordered {
                            from: target,
                            to,
                            delivery,
                        }
                    } else {
                        TraceKind::Sent {
                            from: target,
                            to,
                            delivery,
                        }
                    };
                    self.trace.push(TraceEvent {
                        time: self.time,
                        kind,
                    });
                }
            }
            if self.config.record_trace && (disposition.lost || disposition.cut_by_partition) {
                self.trace.push(TraceEvent {
                    time: self.time,
                    kind: TraceKind::Lost {
                        from: target,
                        to,
                        by_partition: disposition.cut_by_partition,
                    },
                });
            }
        }
        for (delay, tag) in timers.drain(..) {
            self.queue
                .push(self.time + delay, target, EventKind::Timer { tag });
        }
        self.scratch.sends = sends;
        self.scratch.timers = timers;
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.len() {
            if self.present[i] {
                self.dispatch(ProcessId::from(i), NodeEvent::Start);
            }
        }
    }

    /// The timestamp of the next queued event, if any. Note that before the
    /// first [`step`](Self::step)/[`run`](Self::run) call, start-up events
    /// have not yet been dispatched and may enqueue more work.
    pub fn peek_next_time(&mut self) -> Option<Time> {
        self.ensure_started();
        self.queue.peek_time()
    }

    /// Processes the next event, if any; returns its time.
    pub fn step(&mut self) -> Option<Time> {
        self.ensure_started();
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.time, "time cannot run backwards");
        self.time = self.time.max(ev.time);
        self.events_processed += 1;
        let target = ev.target;
        match ev.kind {
            EventKind::Crash => {
                self.crashed[target.index()] = true;
                if self.config.record_trace {
                    self.trace.push(TraceEvent {
                        time: self.time,
                        kind: TraceKind::Crashed { process: target },
                    });
                }
            }
            EventKind::Deliver { from, msg } => {
                self.network.complete_delivery(from, target);
                if self.crashed[target.index()] || !self.present[target.index()] {
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::DroppedAtCrashed { from, to: target },
                        });
                    }
                } else {
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::Delivered { from, to: target },
                        });
                    }
                    self.dispatch(target, NodeEvent::Message { from, msg });
                }
            }
            EventKind::Timer { tag } => {
                if !self.crashed[target.index()] && self.present[target.index()] {
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::TimerFired {
                                process: target,
                                tag,
                            },
                        });
                    }
                    self.dispatch(target, NodeEvent::Timer { tag });
                }
            }
            EventKind::External(ext) => {
                if !self.crashed[target.index()] && self.present[target.index()] {
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::ExternalDelivered { process: target },
                        });
                    }
                    self.dispatch(target, NodeEvent::External(ext));
                }
            }
            EventKind::Recover { corrupt } => {
                if self.crashed[target.index()] && self.present[target.index()] {
                    self.crashed[target.index()] = false;
                    self.crash_times[target.index()] = None;
                    self.incarnations[target.index()] += 1;
                    let incarnation = self.incarnations[target.index()];
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::Recovered {
                                process: target,
                                incarnation,
                                corrupt,
                            },
                        });
                    }
                    let corruption =
                        corrupt.then(|| fault_entropy(self.config.seed, target, self.time));
                    self.dispatch(
                        target,
                        NodeEvent::Recover {
                            incarnation,
                            corruption,
                        },
                    );
                }
            }
            EventKind::Corrupt => {
                if !self.crashed[target.index()] && self.present[target.index()] {
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::Corrupted { process: target },
                        });
                    }
                    let entropy = fault_entropy(self.config.seed, target, self.time);
                    self.dispatch(target, NodeEvent::Corrupt { entropy });
                }
            }
            EventKind::Join => {
                if !self.present[target.index()] && !self.crashed[target.index()] {
                    self.present[target.index()] = true;
                    // Joiners share the restart counter with recoveries so a
                    // later crash + recovery keeps incarnations monotone.
                    self.incarnations[target.index()] += 1;
                    let incarnation = self.incarnations[target.index()];
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::Joined {
                                process: target,
                                incarnation,
                            },
                        });
                    }
                    self.dispatch(target, NodeEvent::Join { incarnation });
                }
            }
            EventKind::Leave { graceful } => {
                if self.present[target.index()] {
                    // A crashed member can still be removed (it just gets
                    // no drain); once departed, a scheduled recovery can
                    // never resurrect it.
                    if graceful && !self.crashed[target.index()] {
                        // The drain handler runs while the node is still
                        // present, so its farewell sends go out normally.
                        self.dispatch(target, NodeEvent::Leave);
                    }
                    self.present[target.index()] = false;
                    if self.config.record_trace {
                        self.trace.push(TraceEvent {
                            time: self.time,
                            kind: TraceKind::Left {
                                process: target,
                                graceful,
                            },
                        });
                    }
                }
            }
        }
        Some(self.time)
    }

    /// Runs until the event queue drains or `max_events` is hit; returns
    /// `true` if the system quiesced (queue drained).
    pub fn run(&mut self) -> bool {
        self.ensure_started();
        while self.events_processed < self.config.max_events {
            if self.step().is_none() {
                return true;
            }
        }
        self.queue.is_empty()
    }

    /// Processes every event with `time ≤ horizon`, then advances the clock
    /// to exactly `horizon`. This is the main driver for workloads (like
    /// heartbeat failure detectors) that never quiesce.
    pub fn run_until(&mut self, horizon: Time) {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t > horizon || self.events_processed >= self.config.max_events {
                break;
            }
            self.step();
        }
        self.time = self.time.max(horizon);
    }
}

/// Deterministic entropy word for a scheduled process fault: a
/// splitmix64-style mix of `(seed, process, time)`, so corrupted runs are
/// exactly as replayable per seed as clean ones.
fn fault_entropy(seed: u64, p: ProcessId, t: Time) -> u64 {
    ekbd_graph::random::mix64(
        seed ^ (p.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ t.ticks().wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    /// Test node: forwards each received counter+1 to the next process in
    /// the ring until the counter reaches a limit; records each hop.
    struct RingHop {
        n: usize,
        limit: u32,
    }

    impl Node for RingHop {
        type Msg = u32;
        type Ext = u32;
        type Obs = u32;

        fn handle(&mut self, ev: NodeEvent<u32, u32>, ctx: &mut Context<'_, u32, u32>) {
            let next = ProcessId::from((ctx.id().index() + 1) % self.n);
            match ev {
                NodeEvent::Start => {}
                NodeEvent::External(c) | NodeEvent::Message { msg: c, .. } => {
                    ctx.observe(c);
                    if c < self.limit {
                        ctx.send(next, c + 1);
                    }
                }
                NodeEvent::Timer { .. } | NodeEvent::Leave => {}
                NodeEvent::Recover { .. } | NodeEvent::Corrupt { .. } | NodeEvent::Join { .. } => {
                    ctx.observe(u32::MAX);
                }
            }
        }
    }

    fn ring_sim(seed: u64) -> Simulator<RingHop> {
        let cfg = SimConfig::default().n(4).seed(seed).record_trace(true);
        let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 4, limit: 10 });
        sim.schedule_external(p(0), Time(1), 0);
        sim
    }

    #[test]
    fn token_circulates_and_quiesces() {
        let mut sim = ring_sim(1);
        assert!(sim.run(), "run should quiesce");
        let hops: Vec<u32> = sim.observations().iter().map(|o| o.obs).collect();
        assert_eq!(hops, (0..=10).collect::<Vec<_>>());
        // Message k is observed at process (k mod 4) shifted by origin 0.
        for (k, o) in sim.observations().iter().enumerate() {
            assert_eq!(o.process, p(k % 4));
        }
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let mut a = ring_sim(77);
        let mut b = ring_sim(77);
        a.run();
        b.run();
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = ring_sim(1);
        let mut b = ring_sim(2);
        a.run();
        b.run();
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn crash_stops_a_process() {
        let mut sim = ring_sim(5);
        sim.schedule_crash(p(2), Time(2));
        sim.run();
        // The token dies when it reaches the crashed p2.
        assert!(sim.is_crashed(p(2)));
        assert_eq!(sim.crash_time(p(2)), Some(Time(2)));
        let max_hop = sim.observations().iter().map(|o| o.obs).max().unwrap();
        assert!(max_hop < 10, "token should not survive the crash");
        assert!(sim
            .observations()
            .iter()
            .all(|o| o.process != p(2) || o.time < Time(2)));
        assert_eq!(sim.correct_processes(), vec![p(0), p(1), p(3)]);
    }

    #[test]
    fn recovery_restarts_a_crashed_process() {
        let mut sim = ring_sim(5);
        sim.schedule_crash(p(2), Time(2));
        sim.schedule_recovery(p(2), Time(500), false);
        // Re-inject the token after the restart so the ring completes.
        sim.schedule_external(p(0), Time(600), 0);
        sim.run();
        assert!(!sim.is_crashed(p(2)));
        assert_eq!(sim.crash_time(p(2)), None);
        assert_eq!(sim.incarnation(p(2)), 1);
        assert_eq!(sim.correct_processes().len(), 4);
        // The recovered process handled the Recover event and later hops.
        assert!(sim
            .observations()
            .iter()
            .any(|o| o.process == p(2) && o.obs == u32::MAX));
        let max_hop = sim.observations().iter().map(|o| o.obs).max().unwrap();
        assert_eq!(max_hop, u32::MAX);
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Recovered { process, incarnation: 1, corrupt: false } if process == p(2))));
    }

    #[test]
    fn recovery_of_live_process_is_noop() {
        let mut sim = ring_sim(6);
        sim.schedule_recovery(p(1), Time(100), false);
        sim.run();
        assert_eq!(sim.incarnation(p(1)), 0);
        assert!(!sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Recovered { .. })));
    }

    #[test]
    fn corruption_hits_only_live_processes() {
        let mut sim = ring_sim(7);
        sim.schedule_crash(p(3), Time(2));
        sim.schedule_corruption(p(3), Time(10)); // crashed: no-op
        sim.schedule_corruption(p(1), Time(10)); // live: delivered
        sim.run();
        let corrupted: Vec<ProcessId> = sim
            .trace()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Corrupted { process } => Some(process),
                _ => None,
            })
            .collect();
        assert_eq!(corrupted, vec![p(1)]);
    }

    #[test]
    fn fault_plan_recoveries_are_auto_scheduled_and_deterministic() {
        let run = |seed| {
            let cfg = SimConfig::default()
                .n(4)
                .seed(seed)
                .faults(
                    FaultPlan::new()
                        .recover_corrupted(p(2), Time(50))
                        .corrupt_state(p(0), Time(30)),
                )
                .record_trace(true);
            let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 4, limit: 10 });
            sim.schedule_crash(p(2), Time(2));
            sim.schedule_external(p(0), Time(1), 0);
            sim.run();
            (sim.trace().to_vec(), sim.incarnation(p(2)))
        };
        let (trace, inc) = run(9);
        assert_eq!(inc, 1);
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Recovered { corrupt: true, .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Corrupted { .. })));
        assert_eq!(run(9), run(9), "fault runs are pure functions of the seed");
    }

    #[test]
    fn initially_absent_process_never_starts_and_drops_traffic() {
        let mut sim = ring_sim(11);
        sim.set_initially_absent(p(2));
        sim.run();
        assert!(!sim.is_present(p(2)));
        // The token dies at the absent p2 exactly as at a crashed one.
        assert!(sim.observations().iter().all(|o| o.process != p(2)));
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DroppedAtCrashed { to, .. } if to == p(2))));
        let max_hop = sim.observations().iter().map(|o| o.obs).max().unwrap();
        assert!(max_hop < 10, "token must not pass through an absent node");
    }

    #[test]
    fn join_boots_an_absent_process_with_fresh_incarnation() {
        let mut sim = ring_sim(12);
        sim.set_initially_absent(p(2));
        sim.schedule_join(p(2), Time(500));
        // Re-inject the token after the join so the ring completes.
        sim.schedule_external(p(0), Time(600), 0);
        sim.run();
        assert!(sim.is_present(p(2)));
        assert_eq!(sim.incarnation(p(2)), 1);
        // The joiner saw its Join event (observed as u32::MAX by RingHop)
        // and then forwarded real traffic.
        assert!(sim
            .observations()
            .iter()
            .any(|o| o.process == p(2) && o.obs == u32::MAX));
        let max_hop = sim.observations().iter().map(|o| o.obs).max().unwrap();
        assert_eq!(max_hop, u32::MAX);
        assert!(sim.trace().iter().any(
            |e| matches!(e.kind, TraceKind::Joined { process, incarnation: 1 } if process == p(2))
        ));
        // Joining an already-present process is a no-op.
        let mut sim = ring_sim(12);
        sim.schedule_join(p(1), Time(100));
        sim.run();
        assert_eq!(sim.incarnation(p(1)), 0);
        assert!(!sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Joined { .. })));
    }

    #[test]
    fn leave_permanently_silences_a_process() {
        for graceful in [false, true] {
            let mut sim = ring_sim(13);
            sim.schedule_leave(p(2), Time(2), graceful);
            sim.run();
            assert!(!sim.is_present(p(2)));
            // No event reaches p2 after the leave fires.
            assert!(sim
                .observations()
                .iter()
                .all(|o| o.process != p(2) || o.time < Time(2)));
            assert!(sim.trace().iter().any(|e| matches!(
                e.kind,
                TraceKind::Left { process, graceful: g } if process == p(2) && g == graceful
            )));
            // A recovery scheduled after departure must not resurrect it:
            // departure is permanent even for an already-crashed node.
            let mut sim = ring_sim(13);
            sim.schedule_crash(p(2), Time(2));
            sim.schedule_leave(p(2), Time(3), graceful);
            sim.schedule_recovery(p(2), Time(50), false);
            sim.run();
            assert!(!sim.is_present(p(2)));
            assert_eq!(sim.incarnation(p(2)), 0, "departed nodes never recover");
        }
    }

    #[test]
    fn membership_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let cfg = SimConfig::default().n(6).seed(seed).record_trace(true);
            let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 6, limit: 40 });
            sim.set_initially_absent(p(4));
            sim.schedule_join(p(4), Time(30));
            sim.schedule_leave(p(1), Time(60), true);
            sim.schedule_external(p(0), Time(1), 0);
            sim.schedule_external(p(0), Time(100), 0);
            sim.run();
            (sim.trace().to_vec(), sim.events_processed())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn churn_free_runs_are_byte_identical_to_seed_kernel() {
        // The membership machinery must be invisible when unused: a run on
        // the extended kernel with an empty plan produces the identical
        // trace, observation log, and event count as the seed behavior.
        let mut plain = ring_sim(77);
        plain.run();
        let mut noop = ring_sim(77);
        // Exercising only the no-op paths (present joins, absent leaves are
        // not scheduled at all here) must not perturb anything.
        noop.run();
        assert_eq!(plain.trace(), noop.trace());
        assert_eq!(plain.events_processed(), noop.events_processed());
    }

    #[test]
    fn fault_entropy_is_deterministic_and_spread() {
        let a = fault_entropy(1, p(0), Time(10));
        assert_eq!(a, fault_entropy(1, p(0), Time(10)));
        assert_ne!(a, fault_entropy(2, p(0), Time(10)));
        assert_ne!(a, fault_entropy(1, p(1), Time(10)));
        assert_ne!(a, fault_entropy(1, p(0), Time(11)));
    }

    #[test]
    fn sends_to_crashed_are_counted_and_dropped() {
        struct Pester;
        impl Node for Pester {
            type Msg = ();
            type Ext = ();
            type Obs = ();
            fn handle(&mut self, ev: NodeEvent<(), ()>, ctx: &mut Context<'_, (), ()>) {
                if matches!(ev, NodeEvent::External(())) {
                    ctx.send(ProcessId(1), ());
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default().n(2).record_trace(true), |_, _| Pester);
        sim.schedule_crash(p(1), Time(5));
        sim.schedule_external(p(0), Time(10), ());
        sim.run();
        assert_eq!(sim.sends_to_crashed().len(), 1);
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DroppedAtCrashed { .. })));
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = ring_sim(3);
        sim.run_until(Time(1_000));
        assert_eq!(sim.now(), Time(1_000));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode;
        impl Node for TimerNode {
            type Msg = ();
            type Ext = ();
            type Obs = u64;
            fn handle(&mut self, ev: NodeEvent<(), ()>, ctx: &mut Context<'_, (), u64>) {
                match ev {
                    NodeEvent::Start => {
                        ctx.set_timer(30, 3);
                        ctx.set_timer(10, 1);
                        ctx.set_timer(20, 2);
                    }
                    NodeEvent::Timer { tag } => ctx.observe(tag),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default().n(1), |_, _| TimerNode);
        sim.run();
        let tags: Vec<u64> = sim.observations().iter().map(|o| o.obs).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(sim.now(), Time(30));
    }

    #[test]
    fn fifo_order_respected_under_random_delays() {
        struct Burst;
        impl Node for Burst {
            type Msg = u32;
            type Ext = ();
            type Obs = u32;
            fn handle(&mut self, ev: NodeEvent<u32, ()>, ctx: &mut Context<'_, u32, u32>) {
                match ev {
                    NodeEvent::External(()) => {
                        for k in 0..100 {
                            ctx.send(ProcessId(1), k);
                        }
                    }
                    NodeEvent::Message { msg, .. } => ctx.observe(msg),
                    _ => {}
                }
            }
        }
        for seed in 0..10 {
            let cfg = SimConfig::default()
                .n(2)
                .seed(seed)
                .delay(DelayModel::Uniform { min: 1, max: 50 });
            let mut sim = Simulator::new(cfg, |_, _| Burst);
            sim.schedule_external(p(0), Time(1), ());
            sim.run();
            let got: Vec<u32> = sim.observations().iter().map(|o| o.obs).collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>(), "seed {seed} broke FIFO");
        }
    }

    #[test]
    fn total_loss_starves_the_ring_but_is_traced() {
        let cfg = SimConfig::default()
            .n(4)
            .seed(21)
            .faults(FaultPlan::new().loss(1.0))
            .record_trace(true);
        let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 4, limit: 10 });
        sim.schedule_external(p(0), Time(1), 0);
        assert!(sim.run(), "with every message lost the run quiesces fast");
        // p0 observes the injected token; the forwarded copy dies in transit.
        assert_eq!(sim.observations().len(), 1);
        assert!(sim.trace().iter().any(|e| matches!(
            e.kind,
            TraceKind::Lost {
                by_partition: false,
                ..
            }
        )));
        let s = sim.channel_stats(p(0), p(1));
        assert_eq!((s.total, s.dropped, s.in_transit), (1, 1, 0));
    }

    #[test]
    fn duplication_delivers_twice_and_is_traced() {
        struct Echo;
        impl Node for Echo {
            type Msg = u32;
            type Ext = ();
            type Obs = u32;
            fn handle(&mut self, ev: NodeEvent<u32, ()>, ctx: &mut Context<'_, u32, u32>) {
                match ev {
                    NodeEvent::External(()) => ctx.send(ProcessId(1), 7),
                    NodeEvent::Message { msg, .. } => ctx.observe(msg),
                    _ => {}
                }
            }
        }
        let cfg = SimConfig::default()
            .n(2)
            .seed(22)
            .faults(FaultPlan::new().duplication(1.0))
            .record_trace(true);
        let mut sim = Simulator::new(cfg, |_, _| Echo);
        sim.schedule_external(p(0), Time(1), ());
        sim.run();
        let got: Vec<u32> = sim.observations().iter().map(|o| o.obs).collect();
        assert_eq!(got, vec![7, 7], "raw duplication reaches the node twice");
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Duplicated { .. })));
        let s = sim.channel_stats(p(0), p(1));
        assert_eq!((s.total, s.duplicated, s.in_transit), (1, 1, 0));
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let cfg = SimConfig::default()
                .n(4)
                .seed(seed)
                .faults(
                    FaultPlan::new()
                        .loss(0.2)
                        .duplication(0.2)
                        .reorder(0.2, 8)
                        .partition(vec![p(0)], Time(3), Time(9)),
                )
                .record_trace(true);
            let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 4, limit: 10 });
            sim.schedule_external(p(0), Time(1), 0);
            sim.run();
            (sim.trace().to_vec(), sim.events_processed())
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    fn partition_heals_and_traffic_resumes() {
        let cfg = SimConfig::default()
            .n(4)
            .seed(25)
            .delay(DelayModel::Fixed(1))
            .faults(FaultPlan::new().partition(vec![p(1)], Time(0), Time(50)))
            .record_trace(true);
        let mut sim = Simulator::new(cfg, |_, _| RingHop { n: 4, limit: 10 });
        // Token injected while p1 is cut off: the first hop 0→1 dies.
        sim.schedule_external(p(0), Time(1), 0);
        // Re-injected after heal: the ring completes.
        sim.schedule_external(p(0), Time(60), 0);
        sim.run();
        assert!(sim.trace().iter().any(|e| matches!(
            e.kind,
            TraceKind::Lost {
                by_partition: true,
                ..
            }
        )));
        let max_hop = sim.observations().iter().map(|o| o.obs).max().unwrap();
        assert_eq!(max_hop, 10, "after heal the token makes the full tour");
    }

    #[test]
    fn max_events_valve_stops_runaway() {
        struct PingPong;
        impl Node for PingPong {
            type Msg = ();
            type Ext = ();
            type Obs = ();
            fn handle(&mut self, ev: NodeEvent<(), ()>, ctx: &mut Context<'_, (), ()>) {
                let other = ProcessId::from(1 - ctx.id().index());
                match ev {
                    NodeEvent::Start if ctx.id() == ProcessId(0) => ctx.send(other, ()),
                    NodeEvent::Message { .. } => ctx.send(other, ()),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default().n(2).max_events(500), |_, _| PingPong);
        assert!(!sim.run(), "infinite ping-pong must hit the valve");
        assert_eq!(sim.events_processed(), 500);
    }

    #[test]
    fn channel_stats_track_high_water() {
        struct Burst;
        impl Node for Burst {
            type Msg = u32;
            type Ext = ();
            type Obs = ();
            fn handle(&mut self, ev: NodeEvent<u32, ()>, ctx: &mut Context<'_, u32, ()>) {
                if matches!(ev, NodeEvent::External(())) {
                    for k in 0..5 {
                        ctx.send(ProcessId(1), k);
                    }
                }
            }
        }
        let mut sim = Simulator::new(
            SimConfig::default().n(2).delay(DelayModel::Fixed(10)),
            |_, _| Burst,
        );
        sim.schedule_external(p(0), Time(1), ());
        sim.run();
        let s = sim.channel_stats(p(0), p(1));
        assert_eq!(s.total, 5);
        assert_eq!(s.high_water, 5);
        assert_eq!(s.in_transit, 0, "all delivered after run");
        assert_eq!(sim.max_channel_high_water(), 5);
        assert_eq!(sim.total_messages(), 5);
    }

    /// Twelve processes whose 50-tick timers all fire on the same ticks,
    /// each firing a message to every other process: bursts of 12 timers
    /// and 132 messages that sweep the whole wheel every 4 096 ticks.
    /// Twelve processes whose 50-tick timers all fire on the same ticks.
    /// Each firing sends a message to every other process and sets one
    /// stray timer up to 4 000 ticks out: bursts of 12 timers and 132
    /// messages, and lone events scattered over the whole wheel.
    struct Fanout;

    impl Node for Fanout {
        type Msg = ();
        type Ext = ();
        type Obs = ();
        fn handle(&mut self, ev: NodeEvent<(), ()>, ctx: &mut Context<'_, (), ()>) {
            match ev {
                NodeEvent::Start => ctx.set_timer(50, 0),
                NodeEvent::Timer { tag: 0 } => {
                    ctx.set_timer(50, 0);
                    let stray = ctx.rng().gen_range(1..=4_000);
                    ctx.set_timer(stray, 1);
                    let me = ctx.id().index();
                    for q in (0..12).filter(|&q| q != me) {
                        ctx.send(ProcessId::from(q), ());
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_bursty_run_keeps_only_its_pending_events_queued() {
        let mut sim = Simulator::new(SimConfig::default().n(12).seed(35), |_, _| Fanout);
        let mut pending_hw = 0;
        while sim.peek_next_time().is_some_and(|t| t <= Time(60_000)) {
            sim.step();
            pending_hw = pending_hw.max(sim.queue.len());
        }
        // A queue whose slots kept their largest burst held 2.7 MB here;
        // one that holds only what is pending needs its 32 KiB slot table,
        // a chunk per occupied slot and the draining batch.
        let retained = sim.queue.retained_bytes();
        assert!(
            retained <= 256 << 10,
            "{retained} B retained for a pending high-water of {pending_hw} events"
        );
    }
}
