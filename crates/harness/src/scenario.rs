use crate::detector::AnyDetector;
use crate::host::{DinerHost, HostCmd, HostObs};
use crate::report::{ReportSink, RunReport};
use ekbd_detector::{HeartbeatConfig, HeartbeatDetector, ScriptedOracle};
use ekbd_dining::{DiningAlgorithm, DiningProcess, RecoverableDining};
use ekbd_graph::coloring::{self, Color};
use ekbd_graph::{ConflictGraph, Membership, ProcessId};
use ekbd_journal::StorageFaultPlan;
use ekbd_link::LinkConfig;
use ekbd_sim::{
    DelayModel, FaultPlan, MembershipEvent, MembershipPlan, SimConfig, Simulator, StreamSink, Time,
};

/// Which failure detector each process runs.
#[derive(Clone, Debug)]
pub enum OracleSpec {
    /// Never suspects anyone. A legal ◇P₁ history only for crash-free runs.
    Silent,
    /// Suspects exactly the crashed, from their crash instants (detector
    /// `P`). The reference point of experiment E8.
    Perfect,
    /// Worst-case-but-legal ◇P₁: false suspicions of every neighbor in
    /// on/off bursts until `converge_at`, then exact.
    Adversarial {
        /// When the oracle converges.
        converge_at: Time,
        /// Length of each on/off suspicion burst.
        burst: u64,
    },
    /// A real heartbeat + adaptive timeout detector; convergence emerges
    /// from the delay model rather than being scripted.
    Heartbeat(HeartbeatConfig),
    /// The same detector with probe/echo rounds
    /// ([`HeartbeatDetector::probing`]).
    Probe(HeartbeatConfig),
}

/// The workload every process runs, driven by its [`DinerHost`].
///
/// With `sessions > 0` the host becomes hungry `sessions` times, thinking
/// for a uniform `think` delay between sessions and eating for a uniform
/// `eat` duration once scheduled (correct processes always eat finitely,
/// §2). With `sessions == 0` the host only reacts to [`HostCmd`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Number of auto-generated hungry sessions per process.
    pub sessions: u32,
    /// Uniform range (inclusive) of thinking delays before each session.
    pub think: (u64, u64),
    /// Uniform range (inclusive) of eating durations.
    pub eat: (u64, u64),
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            sessions: 5,
            think: (1, 50),
            eat: (1, 20),
        }
    }
}

/// A declarative dining experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The conflict graph.
    pub graph: ConflictGraph,
    /// A proper coloring (defaults to greedy).
    pub colors: Vec<Color>,
    /// RNG seed.
    pub seed: u64,
    /// Message-delay model.
    pub delay: DelayModel,
    /// The oracle specification.
    pub oracle: OracleSpec,
    /// The automatic workload.
    pub workload: Workload,
    /// Crash schedule.
    pub crashes: Vec<(ProcessId, Time)>,
    /// Manually injected hunger, in addition to the automatic workload.
    pub manual_hunger: Vec<(ProcessId, Time)>,
    /// How long to run.
    pub horizon: Time,
    /// Channel-fault schedule (default: none — reliable FIFO channels).
    pub faults: FaultPlan,
    /// Reliable link layer wrapping dining traffic (default: off). Required
    /// for the theorems to survive a non-inert fault plan.
    pub link: Option<LinkConfig>,
    /// Whether to record the kernel trace into
    /// [`RunReport::kernel_trace`](crate::RunReport::kernel_trace)
    /// (default: off — tracing clones every payload's routing record).
    pub record_trace: bool,
    /// Whether [`run_recoverable`](Self::run_recoverable) attaches an
    /// in-memory stable-storage journal to every process (default: off —
    /// the PR-2 blank-restart behavior).
    pub journal: bool,
    /// Stable-storage fault schedule (default: inert). A non-inert plan
    /// implies journaling.
    pub storage_faults: StorageFaultPlan,
    /// Audit-and-repair period for recoverable algorithms (default:
    /// derived from the graph's max degree via
    /// [`crate::derived_audit_period`]).
    pub audit_period: u64,
    /// Audit strike threshold for recoverable algorithms (default:
    /// [`ekbd_dining::DEFAULT_STRIKES`]).
    pub audit_strikes: u8,
    /// Dynamic-membership schedule (default: inert — a fixed population).
    /// A non-inert plan requires a membership-capable algorithm
    /// ([`supports_recovery`](ekbd_dining::DiningAlgorithm::supports_recovery)),
    /// i.e. [`run_recoverable`](Self::run_recoverable).
    pub membership: MembershipPlan,
}

impl Scenario {
    /// Creates a scenario over `graph` with defaults: greedy coloring, seed
    /// 0, uniform delays 1–8, silent oracle, default workload, no crashes,
    /// horizon 100 000.
    pub fn new(graph: ConflictGraph) -> Self {
        let colors = coloring::greedy(&graph);
        let audit_period = crate::host::derived_audit_period(graph.max_degree());
        Scenario {
            graph,
            colors,
            seed: 0,
            delay: DelayModel::default(),
            oracle: OracleSpec::Silent,
            workload: Workload::default(),
            crashes: Vec::new(),
            manual_hunger: Vec::new(),
            horizon: Time(100_000),
            faults: FaultPlan::default(),
            link: None,
            record_trace: false,
            journal: false,
            storage_faults: StorageFaultPlan::default(),
            audit_period,
            audit_strikes: ekbd_dining::DEFAULT_STRIKES,
            membership: MembershipPlan::new(),
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the coloring (must be proper).
    ///
    /// # Panics
    ///
    /// Panics if the coloring is not proper for the scenario's graph.
    pub fn colors(mut self, colors: Vec<Color>) -> Self {
        coloring::validate(&self.graph, &colors).expect("scenario coloring must be proper");
        self.colors = colors;
        self
    }

    /// Sets the delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Uses the perfect oracle.
    pub fn perfect_oracle(mut self) -> Self {
        self.oracle = OracleSpec::Perfect;
        self
    }

    /// Uses the adversarial scripted oracle.
    pub fn adversarial_oracle(mut self, converge_at: Time, burst: u64) -> Self {
        self.oracle = OracleSpec::Adversarial { converge_at, burst };
        self
    }

    /// Uses the heartbeat detector.
    pub fn heartbeat_oracle(mut self, cfg: HeartbeatConfig) -> Self {
        self.oracle = OracleSpec::Heartbeat(cfg);
        self
    }

    /// Uses the heartbeat detector with probe/echo rounds.
    pub fn probe_oracle(mut self, cfg: HeartbeatConfig) -> Self {
        self.oracle = OracleSpec::Probe(cfg);
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Schedules a crash.
    pub fn crash(mut self, p: ProcessId, at: Time) -> Self {
        self.crashes.push((p, at));
        self
    }

    /// Schedules a crash-recovery restart of `p` at `at` with blank state
    /// (crash-recovery fault model; requires an algorithm with
    /// [`supports_recovery`](ekbd_dining::DiningAlgorithm::supports_recovery),
    /// e.g. [`ekbd_dining::RecoverableDining`]).
    pub fn recover(mut self, p: ProcessId, at: Time) -> Self {
        self.faults = self.faults.clone().recover(p, at);
        self
    }

    /// Schedules a restart of `p` at `at` that reboots with adversarially
    /// corrupted dining state instead of blank state.
    pub fn recover_corrupted(mut self, p: ProcessId, at: Time) -> Self {
        self.faults = self.faults.clone().recover_corrupted(p, at);
        self
    }

    /// Schedules a transient fault flipping fork/token/request bits of the
    /// (live) process `p` at `at`.
    pub fn corrupt_state(mut self, p: ProcessId, at: Time) -> Self {
        self.faults = self.faults.clone().corrupt_state(p, at);
        self
    }

    /// The scheduled recovery instants, as `(process, time)` pairs.
    pub fn recoveries(&self) -> Vec<(ProcessId, Time)> {
        self.faults
            .recoveries
            .iter()
            .map(|r| (r.process, r.at))
            .collect()
    }

    /// The scheduled live-state corruption instants.
    pub fn corruptions(&self) -> Vec<(ProcessId, Time)> {
        self.faults
            .corruptions
            .iter()
            .map(|c| (c.process, c.at))
            .collect()
    }

    /// Schedules an extra manual hungry session.
    pub fn hunger(mut self, p: ProcessId, at: Time) -> Self {
        self.manual_hunger.push((p, at));
        self
    }

    /// Sets the run horizon.
    pub fn horizon(mut self, t: Time) -> Self {
        self.horizon = t;
        self
    }

    /// Injects channel faults (loss, duplication, reordering, partitions).
    ///
    /// With a non-inert plan the paper's theorems are only expected to hold
    /// when [`reliable_link`](Self::reliable_link) is also enabled.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Routes dining traffic through the `ekbd-link` reliable link layer.
    pub fn reliable_link(mut self, cfg: LinkConfig) -> Self {
        self.link = Some(cfg);
        self
    }

    /// Enables kernel-trace recording; the trace comes back in
    /// [`RunReport::kernel_trace`](crate::RunReport::kernel_trace). Used by
    /// the golden-trace determinism suite to pin runs event by event.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Attaches an in-memory stable-storage journal to every recoverable
    /// process: restarts replay the journal and attempt the cheap
    /// `JournalResume` fast path before falling back to the rejoin
    /// handshake.
    pub fn journal(mut self, on: bool) -> Self {
        self.journal = on;
        self
    }

    /// Injects stable-storage faults (torn writes, bit rot, stale
    /// snapshots, dropped syncs). Implies [`journal`](Self::journal).
    pub fn storage_faults(mut self, plan: StorageFaultPlan) -> Self {
        self.storage_faults = plan;
        self
    }

    /// Overrides the audit-and-repair period for recoverable algorithms.
    pub fn audit_period(mut self, period: u64) -> Self {
        self.audit_period = period.max(1);
        self
    }

    /// Overrides the audit strike threshold (consecutive bad observations
    /// before a repair fires) for recoverable algorithms.
    pub fn audit_strikes(mut self, strikes: u8) -> Self {
        self.audit_strikes = strikes.max(1);
        self
    }

    /// Schedules dynamic membership and recomputes the coloring *online*:
    /// initially-present processes are colored greedily over their induced
    /// subgraph, then each joiner (in join order) takes the least color
    /// absent from its co-present neighborhood — existing colors never
    /// change, so in-flight sessions keep their priorities. Replaces any
    /// coloring set earlier; note that the resulting colors are only
    /// guaranteed proper on the *co-present* induced subgraphs, not on the
    /// full graph (two neighbors that never coexist may share a color).
    ///
    /// # Panics
    ///
    /// Panics, naming the contradiction, if the plan names a process
    /// outside the graph, joins or leaves one process twice, or has a
    /// process leave at or before its join (a same-id rejoin, which is the
    /// crash/recovery axis). The recolouring finds these as it replays the
    /// plan; a plan from [`FaultSchedule::compile`](ekbd_chaos::FaultSchedule::compile)
    /// never has them.
    pub fn membership(mut self, plan: MembershipPlan) -> Self {
        self.colors = membership_colors(&self.graph, &plan);
        self.membership = plan;
        self
    }

    /// Convenience: seeded churn at roughly one membership event every
    /// `period` ticks ([`MembershipPlan::seeded_churn`]), derived from the
    /// scenario's *current* seed and horizon — set those first.
    pub fn churn(self, period: u64) -> Self {
        let plan = MembershipPlan::seeded_churn(self.graph.len(), period, self.horizon, self.seed);
        self.membership(plan)
    }

    /// Builds the detector for process `p` per the oracle spec.
    pub(crate) fn detector_for(&self, p: ProcessId) -> AnyDetector {
        let neighbors = self.graph.neighbors(p);
        let neighbor_crashes: Vec<(ProcessId, Time)> = self
            .crashes
            .iter()
            .copied()
            .filter(|&(q, _)| neighbors.contains(&q))
            .collect();
        let neighbor_recoveries: Vec<(ProcessId, Time)> = self
            .recoveries()
            .into_iter()
            .filter(|&(q, _)| neighbors.contains(&q))
            .collect();
        match &self.oracle {
            OracleSpec::Silent => AnyDetector::Scripted(ScriptedOracle::silent()),
            OracleSpec::Perfect if !neighbor_recoveries.is_empty() => AnyDetector::Scripted(
                ScriptedOracle::perfect_with_recoveries(neighbor_crashes, neighbor_recoveries),
            ),
            OracleSpec::Perfect => AnyDetector::Scripted(ScriptedOracle::perfect(neighbor_crashes)),
            OracleSpec::Adversarial { converge_at, burst } => AnyDetector::Scripted(
                ScriptedOracle::adversarial(neighbors, *converge_at, *burst, &neighbor_crashes),
            ),
            OracleSpec::Heartbeat(cfg) => {
                AnyDetector::Heartbeat(HeartbeatDetector::new(*cfg, neighbors.iter().copied()))
            }
            OracleSpec::Probe(cfg) => {
                AnyDetector::Heartbeat(HeartbeatDetector::probing(*cfg, neighbors.iter().copied()))
            }
        }
    }

    /// Runs the scenario with a custom dining-algorithm factory.
    pub fn run_with<A>(&self, factory: impl FnMut(&Scenario, ProcessId) -> A) -> RunReport
    where
        A: DiningAlgorithm,
    {
        let mut sim = self.simulator(factory, ReportSink::sized(self));
        sim.run_until(self.horizon);
        let columns = std::mem::take(sim.sink_mut());
        RunReport::assemble(self, &sim, columns)
    }

    /// Builds this scenario's run, handing every observation to `sink`:
    /// one [`DinerHost`] per process around `factory`'s algorithm (built
    /// from the process's [`construction_view`](Self::construction_view)
    /// under a membership plan), with the crashes, the manual hunger and
    /// the membership plan scheduled. Every run of a scenario starts here.
    pub(crate) fn simulator<A, S>(
        &self,
        mut factory: impl FnMut(&Scenario, ProcessId) -> A,
        sink: S,
    ) -> Simulator<DinerHost<A>, S>
    where
        A: DiningAlgorithm,
        S: StreamSink<HostObs>,
    {
        let cfg = SimConfig::default()
            .n(self.graph.len())
            .seed(self.seed)
            .delay(self.delay.clone())
            .faults(self.faults.clone())
            .record_trace(self.record_trace);
        let mut sim = Simulator::with_sink(cfg, sink, |p, _| {
            let alg = if self.membership.is_inert() {
                factory(self, p)
            } else {
                let view = self.construction_view(p);
                let alg = factory(&view, p);
                assert!(
                    alg.supports_recovery(),
                    "a membership plan requires a membership-capable algorithm \
                     (e.g. RecoverableDining; use run_recoverable)"
                );
                alg
            };
            let host = DinerHost::new(alg, self.detector_for(p), self.workload)
                .with_audit_period(self.audit_period);
            match self.link {
                Some(link_cfg) => host.with_link(link_cfg),
                None => host,
            }
        });
        for &(p, t) in &self.crashes {
            sim.schedule_crash(p, t);
        }
        for &(p, t) in &self.manual_hunger {
            sim.schedule_external(p, t, HostCmd::BecomeHungry);
        }
        self.schedule_membership(&mut sim);
        sim
    }

    /// The scenario a process is *constructed* from under the membership
    /// plan: the conflict graph minus the edges `p` must not start with.
    /// Initially-absent neighbors are introduced when they join (via
    /// [`HostCmd::PeerJoined`] notices), and a neighbor that departs
    /// before a joiner `p` ever boots never shares an edge with it at all.
    /// Filtering must happen *before* construction rather than by pruning
    /// after it: online recoloring lets a joiner legitimately reuse the
    /// color of a neighbor that left first, so a never-co-present pair may
    /// share a color and must not meet a proper-coloring construction
    /// check.
    fn construction_view(&self, p: ProcessId) -> Scenario {
        let my_join = self.membership.join_time(p);
        let pairs: Vec<(usize, usize)> = self
            .graph
            .edges()
            .filter(|e| match e.other(p) {
                None => true,
                Some(q) => {
                    let q_joins_later = self.membership.join_time(q).is_some();
                    let q_gone_before_my_boot = my_join
                        .zip(self.membership.departure_time(q))
                        .is_some_and(|(j, d)| d <= j);
                    !q_joins_later && !q_gone_before_my_boot
                }
            })
            .map(|e| (e.lo.index(), e.hi.index()))
            .collect();
        let mut view = self.clone();
        view.graph = ConflictGraph::from_pairs(self.graph.len(), &pairs);
        view
    }

    /// When a membership notice scheduled for `q` at `at` can actually be
    /// absorbed. A neighbor that is *crashed* at the change instant would
    /// silently miss the notice and — once recovered — wait forever on a
    /// departed peer (a composite crash × churn stall the chaos gate
    /// found); modeling a recovering process re-syncing membership, the
    /// notice is deferred to one tick after the recovery that ends the
    /// down interval covering `at`. `None` means `q` is down at `at` for
    /// good and the notice would never be read.
    fn notice_time(&self, q: ProcessId, at: Time) -> Option<Time> {
        let mut crashes: Vec<Time> = self
            .crashes
            .iter()
            .filter(|(p, _)| *p == q)
            .map(|&(_, t)| t)
            .collect();
        crashes.sort();
        let mut recoveries: Vec<Time> = self
            .recoveries()
            .iter()
            .filter(|(p, _)| *p == q)
            .map(|&(_, t)| t)
            .collect();
        recoveries.sort();
        for (k, &c) in crashes.iter().enumerate() {
            match recoveries.get(k) {
                Some(&r) => {
                    if (c..r).contains(&at) {
                        return Some(Time(r.0 + 1));
                    }
                }
                None => {
                    if at >= c {
                        return None;
                    }
                }
            }
        }
        Some(at)
    }

    /// Schedules the membership plan: presence flips on the simulator plus
    /// [`HostCmd::PeerJoined`]/[`HostCmd::PeerLeft`] notices to each
    /// co-present neighbor at the change instant. A joiner learns of
    /// neighbors that joined before (or with) it one tick after its own
    /// boot, so the notice cannot race the `Join` event and be dropped
    /// while it is still absent. Notices to a crashed neighbor are
    /// deferred until it recovers (see [`Self::notice_time`]).
    fn schedule_membership<A, S>(&self, sim: &mut Simulator<DinerHost<A>, S>)
    where
        A: DiningAlgorithm,
        S: StreamSink<HostObs>,
    {
        if self.membership.is_inert() {
            return;
        }
        let plan = &self.membership;
        for (i, absent) in plan.initially_absent(self.graph.len()).iter().enumerate() {
            if *absent {
                sim.set_initially_absent(ProcessId::from(i));
            }
        }
        let co_present = |q: ProcessId, at: Time| {
            plan.join_time(q).is_none_or(|t| t < at)
                && plan.departure_time(q).is_none_or(|t| t > at)
        };
        for ev in plan.events() {
            match *ev {
                MembershipEvent::Join { process, at } => {
                    sim.schedule_join(process, at);
                    for &q in self.graph.neighbors(process) {
                        if co_present(q, at) {
                            if let Some(when) = self.notice_time(q, at) {
                                let cmd = HostCmd::PeerJoined {
                                    peer: process,
                                    color: self.colors[process.index()],
                                };
                                sim.schedule_external(q, when, cmd);
                            }
                        }
                        let joined_by_now = plan.join_time(q).is_some_and(|t| t <= at)
                            && plan.departure_time(q).is_none_or(|t| t > at);
                        if joined_by_now {
                            if let Some(when) = self.notice_time(process, Time(at.0 + 1)) {
                                let cmd = HostCmd::PeerJoined {
                                    peer: q,
                                    color: self.colors[q.index()],
                                };
                                sim.schedule_external(process, when, cmd);
                            }
                        }
                    }
                }
                MembershipEvent::Leave {
                    process,
                    at,
                    graceful,
                } => {
                    sim.schedule_leave(process, at, graceful);
                    for &q in self.graph.neighbors(process) {
                        if co_present(q, at) {
                            if let Some(when) = self.notice_time(q, at) {
                                let cmd = HostCmd::PeerLeft {
                                    peer: process,
                                    graceful,
                                };
                                sim.schedule_external(q, when, cmd);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs the scenario with the paper's Algorithm 1.
    pub fn run_algorithm1(&self) -> RunReport {
        self.run_with(|s, p| DiningProcess::from_graph(&s.graph, &s.colors, p))
    }

    /// Whether the scenario needs Algorithm 1's hardened variant
    /// ([`RecoverableDining`], what [`run_recoverable`](Self::run_recoverable)
    /// runs): it restarts or corrupts a process, journals, damages stable
    /// storage, or changes membership — joins reuse the rejoin handshake.
    pub fn needs_recoverable(&self) -> bool {
        !self.faults.recoveries.is_empty()
            || !self.faults.corruptions.is_empty()
            || self.journal
            || !self.storage_faults.is_inert()
            || !self.membership.is_inert()
    }

    /// Runs the scenario with Algorithm 1 hardened for the crash-recovery
    /// fault model ([`RecoverableDining`]): required whenever the scenario
    /// [`needs_recoverable`](Self::needs_recoverable).
    pub fn run_recoverable(&self) -> RunReport {
        let stores = self.journal_stores();
        let mut report = self.run_with(|s, p| s.hardened(p, &stores));
        report.journals = stores.iter().map(|h| h.dump()).collect();
        report
    }

    /// One stable-storage journal per process when journaling is on (a
    /// non-inert storage-fault plan implies it), none otherwise. The
    /// stores are created up front and kept (cloned handles share the
    /// backing store) so a finished run can capture each process's
    /// retained records.
    pub(crate) fn journal_stores(&self) -> Vec<ekbd_journal::JournalHandle> {
        if !self.journal && self.storage_faults.is_inert() {
            return Vec::new();
        }
        (0..self.graph.len())
            .map(|i| self.storage_faults.store_for(ProcessId::from(i)))
            .collect()
    }

    /// Algorithm 1's hardened variant for process `p` of this scenario (or
    /// of its construction view), journaling into `stores[p]` if any.
    pub(crate) fn hardened(
        &self,
        p: ProcessId,
        stores: &[ekbd_journal::JournalHandle],
    ) -> RecoverableDining {
        let alg = RecoverableDining::from_graph(&self.graph, &self.colors, p)
            .with_strikes(self.audit_strikes);
        match stores.get(p.index()) {
            Some(store) => alg.with_journal(store.clone()),
            None => alg,
        }
    }
}

/// The effective coloring of a run under `plan`: greedy over the
/// initially-present induced subgraph, then each joiner — in time order,
/// leaves applied first at an instant so a `replace` pair never constrains
/// itself — takes the least color absent among its co-present neighbors.
/// Present nodes are never recolored, which is what keeps in-flight session
/// priorities stable; the proptest suite in `ekbd-graph` checks that every
/// such sequence stays proper on the co-present subgraph. Panics on a
/// contradictory plan, as [`Scenario::membership`] says.
fn membership_colors(graph: &ConflictGraph, plan: &MembershipPlan) -> Vec<Color> {
    let n = graph.len();
    if let Some(ev) = plan.events().iter().find(|ev| ev.process().index() >= n) {
        panic!(
            "membership plan names {} in a population of {n}",
            ev.process()
        );
    }
    let initial: Vec<bool> = plan.initially_absent(n).iter().map(|a| !a).collect();
    let mut m = Membership::new(graph.clone(), &initial);
    let mut left = vec![false; n];
    let mut events: Vec<MembershipEvent> = plan.events().to_vec();
    // Stable: leaves before joins at the same instant.
    events.sort_by_key(|e| (e.at(), matches!(e, MembershipEvent::Join { .. })));
    for ev in events {
        let p = ev.process();
        match ev {
            // A joiner starts absent, so a join after its leave is its second.
            MembershipEvent::Join { .. } => assert!(
                !left[p.index()] && m.join(p).is_ok(),
                "membership plan has {p} join twice"
            ),
            MembershipEvent::Leave { .. } => {
                let again = left[p.index()];
                assert!(
                    m.leave(p).is_ok(),
                    "membership plan has {p} leave {}",
                    if again {
                        "twice"
                    } else {
                        "at or before its join (a same-id rejoin)"
                    }
                );
                left[p.index()] = true;
            }
        }
    }
    m.colors().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_graph::topology;

    #[test]
    fn builder_defaults_and_overrides() {
        let s = Scenario::new(topology::ring(4))
            .seed(9)
            .horizon(Time(1_000))
            .crash(ProcessId(1), Time(10))
            .hunger(ProcessId(0), Time(5));
        assert_eq!(s.seed, 9);
        assert_eq!(s.horizon, Time(1_000));
        assert_eq!(s.crashes, vec![(ProcessId(1), Time(10))]);
        assert_eq!(s.manual_hunger, vec![(ProcessId(0), Time(5))]);
        coloring::validate(&s.graph, &s.colors).unwrap();
    }

    #[test]
    fn audit_period_defaults_from_max_degree() {
        use crate::host::{derived_audit_period, AUDIT_PERIOD};
        // Pin the formula: 10·(δ+3), clamped to [30, 240].
        assert_eq!(derived_audit_period(0), 30);
        assert_eq!(derived_audit_period(1), 40);
        assert_eq!(derived_audit_period(2), AUDIT_PERIOD, "rings keep 50");
        assert_eq!(derived_audit_period(4), 70);
        assert_eq!(derived_audit_period(5), 80);
        assert_eq!(derived_audit_period(21), 240);
        assert_eq!(derived_audit_period(1_000), 240, "hub clamp");

        // Scenario::new picks it up from the graph; rings stay at the
        // historical constant, denser graphs stretch their audit window.
        assert_eq!(Scenario::new(topology::ring(8)).audit_period, AUDIT_PERIOD);
        assert_eq!(Scenario::new(topology::clique(6)).audit_period, 80);
        // An explicit override still wins.
        assert_eq!(
            Scenario::new(topology::clique(6))
                .audit_period(25)
                .audit_period,
            25
        );
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn rejects_improper_coloring() {
        let _ = Scenario::new(topology::ring(4)).colors(vec![0, 0, 0, 0]);
    }

    #[test]
    fn membership_refuses_contradictory_plans_by_name() {
        let p = ProcessId;
        for (plan, named) in [
            (
                MembershipPlan::new().join(p(7), Time(1)),
                "names p7 in a population of 5",
            ),
            (
                MembershipPlan::new()
                    .join(p(1), Time(1))
                    .join(p(1), Time(9)),
                "has p1 join twice",
            ),
            (
                MembershipPlan::new()
                    .join(p(1), Time(1))
                    .leave(p(1), Time(5))
                    .join(p(1), Time(9)),
                "has p1 join twice",
            ),
            (
                MembershipPlan::new()
                    .leave(p(1), Time(1))
                    .crash_leave(p(1), Time(9)),
                "has p1 leave twice",
            ),
            (
                MembershipPlan::new()
                    .leave(p(2), Time(10))
                    .join(p(2), Time(50)),
                "has p2 leave at or before its join",
            ),
            (
                MembershipPlan::new()
                    .join(p(2), Time(10))
                    .leave(p(2), Time(10)),
                "has p2 leave at or before its join",
            ),
        ] {
            let panic = std::panic::catch_unwind(|| {
                Scenario::new(topology::ring(5)).membership(plan.clone())
            })
            .expect_err("a contradictory plan is refused");
            let text = panic
                .downcast_ref::<String>()
                .expect("the refusal names the contradiction");
            assert!(text.contains(named), "{plan:?}: {text}");
        }
        // A visit (join, then a later leave) and a replacement are fine.
        Scenario::new(topology::ring(5)).membership(
            MembershipPlan::new()
                .join(p(2), Time(10))
                .leave(p(2), Time(50)),
        );
        Scenario::new(topology::ring(5)).membership(MembershipPlan::new().replace(
            p(0),
            p(3),
            Time(200),
        ));
    }

    #[test]
    fn detector_for_scopes_crashes_to_neighbors() {
        let s = Scenario::new(topology::path(3))
            .perfect_oracle()
            .crash(ProcessId(2), Time(10));
        // p0 is not a neighbor of p2: its perfect oracle never suspects.
        let d0 = s.detector_for(ProcessId(0));
        let d1 = s.detector_for(ProcessId(1));
        use ekbd_detector::{DetectorEvent, DetectorModule, DetectorOutput};
        let drive = |d: &mut AnyDetector| {
            d.handle(
                DetectorEvent::Timer {
                    now: Time(100),
                    tag: 0,
                },
                &mut DetectorOutput::new(),
            );
        };
        let (mut d0, mut d1) = (d0, d1);
        drive(&mut d0);
        drive(&mut d1);
        assert!(d0.suspect_set().is_empty());
        assert_eq!(d1.suspect_set(), [ProcessId(2)].into_iter().collect());
    }
}
