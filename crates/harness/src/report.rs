use crate::host::{DinerHost, HostObs};
use crate::lives::Lives;
use crate::scenario::Scenario;
use ekbd_dining::{
    DinerState, DiningAlgorithm, DiningObs, RecoveryStats, RestartEvent, RestartPath,
};
use ekbd_graph::{ConflictGraph, ProcessId};
use ekbd_metrics::{
    ConcurrencyReport, ExclusionReport, FairnessReport, LinkSummary, ProgressReport,
    QuiescenceReport, SchedEvent,
};
use ekbd_sim::{MembershipEvent, Simulator, StreamSink, Time, TraceEvent};
use std::collections::BTreeMap;

/// Everything measured in one scenario run.
///
/// The raw material (scheduling events, suspicion history, channel stats)
/// is captured here; the per-claim analyses are produced on demand by
/// [`exclusion`](Self::exclusion), [`fairness`](Self::fairness),
/// [`progress`](Self::progress) and [`quiescence`](Self::quiescence).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The conflict graph of the run.
    pub graph: ConflictGraph,
    /// The run horizon.
    pub horizon: Time,
    /// The crash schedule that was applied.
    pub crashes: Vec<(ProcessId, Time)>,
    /// Scheduled membership joins: `(process, join time)`.
    pub joins: Vec<(ProcessId, Time)>,
    /// Scheduled membership departures: `(process, leave time, graceful)`.
    pub departures: Vec<(ProcessId, Time, bool)>,
    /// The recovery schedule (crash-recovery fault model): `(process,
    /// restart time)`.
    pub recoveries: Vec<(ProcessId, Time)>,
    /// The live-state corruption schedule.
    pub corruptions: Vec<(ProcessId, Time)>,
    /// Final incarnation per process (0 = never restarted).
    pub incarnations: Vec<u64>,
    /// Aggregated recovery-layer counters, when the algorithm keeps them.
    pub recovery: Option<RecoveryStats>,
    /// Per-process restart logs (empty vector for a process that never
    /// restarted or for crash-stop algorithms): which recovery path each
    /// restart took — journal replay or blank reboot.
    pub restart_logs: Vec<Vec<RestartEvent>>,
    /// Scheduling events (hungry/doorway/eat transitions). For processes
    /// that crash and later recover, the interrupted life's open intervals
    /// are closed at the crash instant and a hungry session the crash
    /// aborted is removed, so interval analyses see a well-formed stream.
    pub events: Vec<SchedEvent>,
    /// Suspicion history: `(when, observer, target, suspected)`.
    pub suspicions: Vec<(Time, ProcessId, ProcessId, bool)>,
    /// Final dining state per process.
    pub final_states: Vec<DinerState>,
    /// Protocol state size in bits per process (paper §7).
    pub state_bits: Vec<usize>,
    /// Largest number of simultaneously in-flight messages on any channel.
    /// **Includes detector traffic**; for the paper's ≤ 4 bound (dining
    /// messages only) use a scripted oracle, which sends nothing.
    pub max_channel_high_water: usize,
    /// Total messages sent (all layers).
    pub total_messages: u64,
    /// `(send_time, from, to)` for **all** messages (dining + detector)
    /// sent to crashed destinations, as counted by the network fabric.
    pub sends_to_crashed: Vec<(Time, ProcessId, ProcessId)>,
    /// Dining-layer messages sent over the run — the traffic the §7
    /// quiescence claim covers (heartbeat monitoring is perpetual by nature
    /// and excluded).
    pub dining_sends: u64,
    /// `(send_time, from, to)` for every dining-layer message addressed to
    /// a process already cut at that instant (see
    /// [`cut_time`](Self::cut_time)): the sends
    /// [`quiescence`](Self::quiescence) reads. A run keeps finitely many of
    /// these however long its quiet tail.
    pub dining_sends_to_cut: Vec<(Time, ProcessId, ProcessId)>,
    /// Simulator events processed.
    pub events_processed: u64,
    /// Messages destroyed in transit by the fault plan (loss + partitions).
    pub messages_dropped: u64,
    /// Extra copies injected by duplication faults.
    pub messages_duplicated: u64,
    /// Aggregated link-layer counters, when the scenario ran with
    /// [`reliable_link`](crate::Scenario::reliable_link).
    pub link: Option<LinkSummary>,
    /// The kernel trace, when the scenario ran with
    /// [`record_trace`](crate::Scenario::record_trace); empty otherwise.
    pub kernel_trace: Vec<TraceEvent>,
    /// Per-process journal contents at the end of the run (retained
    /// records, oldest first), captured by
    /// [`run_recoverable`](crate::Scenario::run_recoverable) when
    /// journaling was on; empty otherwise. Feeds [`replay`](Self::replay)
    /// and [`dump_journals`](Self::dump_journals).
    pub journals: Vec<Vec<Vec<u8>>>,
}

/// Membership class of a process over the whole run, attached to its
/// readmission records: latency medians should aggregate `Continuous`
/// processes only — a `Departed` process may never eat again for the
/// benign reason that it left, and a `Joined` one starts from a cold
/// handshake rather than a recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipTag {
    /// Present from time zero to the horizon (no membership events).
    Continuous,
    /// Joined the system mid-run and stayed.
    Joined,
    /// Left the system before the horizon (possibly after joining).
    Departed,
}

/// One scheduled recovery and how it went: when the process restarted,
/// when it was first scheduled to eat again, and which recovery path the
/// restart took (journal fast resume vs blank rejoin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Readmission {
    /// The recovered process.
    pub process: ProcessId,
    /// The scheduled restart instant.
    pub restarted: Time,
    /// First eat-slot at or after the restart; `None` when the process
    /// never ate again before the horizon.
    pub first_eat: Option<Time>,
    /// The restart path taken, when the algorithm logs one (`None` for
    /// crash-stop algorithms or restarts past the horizon).
    pub path: Option<RestartPath>,
    /// The process's membership class; readmission-latency medians should
    /// cover [`MembershipTag::Continuous`] records only.
    pub membership: MembershipTag,
}

impl Readmission {
    /// Ticks from restart to the first renewed eat-slot, if any.
    pub fn time_to_readmission(&self) -> Option<u64> {
        self.first_eat.map(|e| e.0 - self.restarted.0)
    }
}

/// One scheduled membership join and when the joiner first reached the
/// critical section: the *join → first eat* admission latency of E17.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// The joining process.
    pub process: ProcessId,
    /// The scheduled join instant.
    pub joined: Time,
    /// First eat-slot at or after the join; `None` when the joiner never
    /// ate before the horizon (or departed again first).
    pub first_eat: Option<Time>,
}

impl Admission {
    /// Ticks from join to the first eat-slot, if any.
    pub fn time_to_first_eat(&self) -> Option<u64> {
        self.first_eat.map(|e| e.0 - self.joined.0)
    }
}

impl RunReport {
    /// Assembles the report of a finished run from its simulator and the
    /// columns its observations filled.
    pub(crate) fn assemble<A: DiningAlgorithm, S: StreamSink<HostObs>>(
        scenario: &Scenario,
        sim: &Simulator<DinerHost<A>, S>,
        columns: ReportSink,
    ) -> Self {
        let ReportSink {
            mut events,
            mut suspicions,
            dining_sends,
            dining_sends_to_cut,
            mut lives,
            recoveries,
            departures,
        } = columns;
        lives.finish(&mut events);
        // A report outlives its run. A column that outgrew its estimate
        // doubled past it and gives the unused part back; one that did not
        // keeps its size, which the next run's columns reuse.
        let (sched, susp) = ReportSink::estimate(scenario);
        events.shrink_to(sched);
        suspicions.shrink_to(susp);
        let processes = || (0..scenario.graph.len()).map(ProcessId::from);
        let algorithms = || processes().map(|p| sim.node(p).algorithm());
        let corruptions = scenario.corruptions();
        let joins = scenario
            .membership
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                MembershipEvent::Join { process, at } => Some((process, at)),
                MembershipEvent::Leave { .. } => None,
            })
            .collect();
        let mut recovery: Option<RecoveryStats> = None;
        for s in algorithms().filter_map(|a| a.recovery_stats()) {
            recovery
                .get_or_insert_with(RecoveryStats::default)
                .absorb(s);
        }
        let link = scenario.link.map(|_| {
            let mut summary = LinkSummary::default();
            for s in processes().filter_map(|p| sim.node(p).link_stats()) {
                summary.absorb(&s);
            }
            summary
        });
        RunReport {
            graph: scenario.graph.clone(),
            horizon: scenario.horizon,
            crashes: scenario.crashes.clone(),
            joins,
            departures,
            recoveries,
            corruptions,
            incarnations: processes().map(|p| sim.incarnation(p)).collect(),
            recovery,
            restart_logs: algorithms()
                .map(|a| a.restart_log().unwrap_or_default())
                .collect(),
            events,
            suspicions,
            final_states: algorithms().map(|a| a.state()).collect(),
            state_bits: algorithms().map(|a| a.state_bits()).collect(),
            max_channel_high_water: sim.max_channel_high_water(),
            total_messages: sim.total_messages(),
            sends_to_crashed: sim.sends_to_crashed().to_vec(),
            dining_sends,
            dining_sends_to_cut,
            events_processed: sim.events_processed(),
            messages_dropped: sim.total_dropped(),
            messages_duplicated: sim.total_duplicated(),
            link,
            kernel_trace: sim.trace().to_vec(),
            journals: Vec::new(),
        }
    }

    /// Post-mortem reconstruction of the restart narrative from the
    /// captured per-process journals (see [`journals`](Self::journals)):
    /// the same analysis `ekbd replay` performs on a journal directory,
    /// so a live run and its dumped journals tell one story.
    pub fn replay(&self) -> Vec<ekbd_journal::ProcessReplay> {
        self.journals
            .iter()
            .enumerate()
            .map(|(i, records)| ekbd_journal::replay::replay_process(format!("p{i}"), records))
            .collect()
    }

    /// Writes each captured journal to `dir` as a framed segment file
    /// `journal-p<i>.ekj` — the `FileJournal` on-disk format, so
    /// `ekbd replay --dir` reconstructs simulated runs exactly as it does
    /// threaded ones. The retained set is written verbatim (not
    /// re-committed through a `FileJournal`, which would re-run compaction
    /// on an already-compacted history and lose records); processes whose
    /// journal retained nothing are skipped.
    pub fn dump_journals(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (i, records) in self.journals.iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            ekbd_journal::write_snapshot(&dir.join(format!("journal-p{i}.ekj")), records)?;
        }
        Ok(())
    }

    /// The instant from which `p` is *permanently* down, if any: its last
    /// crash within the horizon with no recovery scheduled at or after it.
    /// A process that crashes but recovers is correct again in the
    /// crash-recovery model (and is held to wait-freedom again).
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        cut_time(p, self.horizon, &self.crashes, &self.recoveries, &[])
    }

    /// The instant `p` permanently left the system (dynamic membership),
    /// if a departure was scheduled within the horizon.
    pub fn departure_time(&self, p: ProcessId) -> Option<Time> {
        cut_time(p, self.horizon, &[], &[], &self.departures)
    }

    /// The instant `p` joined the system (dynamic membership), if a join
    /// was scheduled within the horizon.
    pub fn join_time(&self, p: ProcessId) -> Option<Time> {
        self.joins
            .iter()
            .find(|&&(q, t)| q == p && t <= self.horizon)
            .map(|&(_, t)| t)
    }

    /// The instant from which `p` is permanently out of the computation —
    /// its unrecovered crash ([`crash_time`](Self::crash_time)) or its
    /// membership departure, whichever comes first. Safety and liveness
    /// analyses excuse a process only from this point on; a joiner is held
    /// to every obligation from its join.
    pub fn cut_time(&self, p: ProcessId) -> Option<Time> {
        cut_time(
            p,
            self.horizon,
            &self.crashes,
            &self.recoveries,
            &self.departures,
        )
    }

    /// The process's membership class over this run (see [`MembershipTag`]).
    pub fn membership_tag(&self, p: ProcessId) -> MembershipTag {
        if self.departure_time(p).is_some() {
            MembershipTag::Departed
        } else if self.join_time(p).is_some() {
            MembershipTag::Joined
        } else {
            MembershipTag::Continuous
        }
    }

    /// Whether `p` is correct in this run (never permanently crashed and
    /// never departed).
    pub fn is_correct(&self, p: ProcessId) -> bool {
        self.cut_time(p).is_none()
    }

    /// The last scheduled process fault (restart or corruption), if any.
    /// After this instant plus stabilization slack, every property the
    /// paper proves must hold again (experiment E15).
    pub fn last_fault_time(&self) -> Option<Time> {
        let r = self.recoveries.iter().map(|&(_, t)| t).max();
        let c = self.corruptions.iter().map(|&(_, t)| t).max();
        r.max(c)
    }

    /// Per scheduled recovery: when the process restarted, when it first
    /// ate again, and which recovery path the restart took. The difference
    /// of the two times is the *time to readmission*.
    pub fn readmissions(&self) -> Vec<Readmission> {
        // The k-th scheduled recovery of `p` (in time order) produced its
        // life with incarnation k+1; pair it with that restart-log entry.
        let mut nth: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut schedule: Vec<(ProcessId, Time)> = self.recoveries.clone();
        schedule.sort_by_key(|&(_, t)| t);
        schedule
            .into_iter()
            .map(|(p, r)| {
                let inc = {
                    let c = nth.entry(p).or_insert(0);
                    *c += 1;
                    *c
                };
                let first_eat = self
                    .events
                    .iter()
                    .find(|e| e.process == p && e.obs == DiningObs::StartedEating && e.time >= r)
                    .map(|e| e.time);
                let path = self
                    .restart_logs
                    .get(p.index())
                    .and_then(|log| log.iter().find(|ev| ev.incarnation == inc))
                    .map(|ev| ev.path);
                Readmission {
                    process: p,
                    restarted: r,
                    first_eat,
                    path,
                    membership: self.membership_tag(p),
                }
            })
            .collect()
    }

    /// Per scheduled membership join: when the process joined and when it
    /// first ate. The difference is the E17 *join → first eat* latency.
    pub fn admissions(&self) -> Vec<Admission> {
        let mut schedule = self.joins.clone();
        schedule.sort_by_key(|&(_, t)| t);
        schedule
            .into_iter()
            .map(|(p, j)| {
                let first_eat = self
                    .events
                    .iter()
                    .find(|e| e.process == p && e.obs == DiningObs::StartedEating && e.time >= j)
                    .map(|e| e.time);
                Admission {
                    process: p,
                    joined: j,
                    first_eat,
                }
            })
            .collect()
    }

    /// Theorem 1 analysis (◇WX safety).
    pub fn exclusion(&self) -> ExclusionReport {
        ExclusionReport::analyze(
            &self.graph,
            &self.events,
            &|p| self.cut_time(p),
            self.horizon,
        )
    }

    /// Theorem 3 analysis (◇2-bounded waiting).
    pub fn fairness(&self) -> FairnessReport {
        FairnessReport::analyze(
            &self.graph,
            &self.events,
            &|p| self.cut_time(p),
            self.horizon,
        )
    }

    /// Theorem 2 analysis (wait-freedom).
    pub fn progress(&self) -> ProgressReport {
        ProgressReport::analyze(
            self.graph.len(),
            &self.events,
            &|p| self.cut_time(p),
            self.horizon,
        )
    }

    /// §7 quiescence analysis over the dining layer's traffic (the claim's
    /// scope; a heartbeat oracle's own monitoring traffic is perpetual).
    pub fn quiescence(&self) -> QuiescenceReport {
        QuiescenceReport::analyze(&self.dining_sends_to_cut, &self.crashes)
    }

    /// Scheduling-parallelism analysis (average/max simultaneous eaters).
    pub fn concurrency(&self) -> ConcurrencyReport {
        ConcurrencyReport::analyze(
            self.graph.len(),
            &self.events,
            &|p| self.cut_time(p),
            self.horizon,
        )
    }

    /// Eat-slots granted in total (completed hungry sessions).
    pub fn total_eat_sessions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.obs == DiningObs::StartedEating)
            .count()
    }

    /// The *measured* ◇P₁ convergence time of this run: the earliest time
    /// from which (a) no correct process suspects a correct neighbor
    /// (eventual strong accuracy) and (b) every crashed process is
    /// permanently suspected by each correct neighbor that ever reported on
    /// it (strong completeness). Returns the horizon when the run ended
    /// before convergence was visible.
    pub fn detector_convergence(&self) -> Time {
        let mut last = LastVerdicts::new();
        for &(t, observer, target, suspected) in &self.suspicions {
            last.insert((observer, target), (t, suspected));
        }
        detector_convergence(&self.graph, self.horizon, &self.crashes, &last, |p| {
            self.is_correct(p)
        })
    }
}

/// The report's observation columns, filled as the run goes: the sink of a
/// scenario's simulator. Scheduling events reach `events` through the
/// run's [`Lives`], which closes interrupted lives as it writes. Dining
/// sends are counted; only those addressed to a process already cut are
/// kept, since the scenario fixes every cut time before the run.
#[derive(Default)]
pub(crate) struct ReportSink {
    events: Vec<SchedEvent>,
    suspicions: Vec<(Time, ProcessId, ProcessId, bool)>,
    dining_sends: u64,
    dining_sends_to_cut: Vec<(Time, ProcessId, ProcessId)>,
    lives: Lives,
    recoveries: Vec<(ProcessId, Time)>,
    departures: Vec<(ProcessId, Time, bool)>,
}

impl ReportSink {
    /// Columns sized by [`estimate`](Self::estimate). An overrun just
    /// resumes normal growth.
    pub(crate) fn sized(scenario: &Scenario) -> Self {
        let (sched, susp) = Self::estimate(scenario);
        let recoveries = scenario.recoveries();
        let departures = departures(scenario);
        let lives = Lives::new(
            scenario.graph.len(),
            scenario.horizon,
            &scenario.crashes,
            &recoveries,
            &departures,
        );
        ReportSink {
            events: Vec::with_capacity(sched),
            suspicions: Vec::with_capacity(susp),
            dining_sends: 0,
            dining_sends_to_cut: Vec::new(),
            lives,
            recoveries,
            departures,
        }
    }

    /// The column lengths the scenario's workload suggests: five
    /// scheduling observations per eat session with 20 % slack, and for
    /// suspicion churn a fifth of those plus a fifth of about three dining
    /// sends per session and neighbour.
    fn estimate(scenario: &Scenario) -> (usize, usize) {
        let sessions = scenario.workload.sessions as usize;
        let sched = 5 * sessions * scenario.graph.len();
        let sends = 6 * sessions * scenario.graph.edge_count();
        (sched * 6 / 5, (sched + sends) / 5)
    }
}

impl StreamSink<HostObs> for ReportSink {
    fn record(&mut self, time: Time, process: ProcessId, obs: HostObs) {
        match obs {
            HostObs::Sched(obs) => {
                self.lives.observe(time, process, obs, &mut self.events);
            }
            HostObs::Suspect { target } => self.suspicions.push((time, process, target, true)),
            HostObs::Unsuspect { target } => self.suspicions.push((time, process, target, false)),
            HostObs::DiningSend { to } => {
                self.dining_sends += 1;
                if self.lives.cut(to).is_some_and(|c| c <= time) {
                    self.dining_sends_to_cut.push((time, process, to));
                }
            }
        }
    }
}

/// The scenario's scheduled membership departures: `(process, leave time,
/// graceful)`.
pub(crate) fn departures(scenario: &Scenario) -> Vec<(ProcessId, Time, bool)> {
    scenario
        .membership
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            MembershipEvent::Leave {
                process,
                at,
                graceful,
            } => Some((process, at, graceful)),
            MembershipEvent::Join { .. } => None,
        })
        .collect()
}

/// The instant from which `p` is permanently out of the computation within
/// `horizon`: its last crash with no recovery at or after it, or its
/// membership departure, whichever comes first.
pub(crate) fn cut_time(
    p: ProcessId,
    horizon: Time,
    crashes: &[(ProcessId, Time)],
    recoveries: &[(ProcessId, Time)],
    departures: &[(ProcessId, Time, bool)],
) -> Option<Time> {
    let crash = crashes
        .iter()
        .filter(|&&(q, t)| q == p && t <= horizon)
        .map(|&(_, t)| t)
        .max()
        .filter(|&c| {
            !recoveries
                .iter()
                .any(|&(q, t)| q == p && t >= c && t <= horizon)
        });
    let departure = departures
        .iter()
        .find(|&&(q, t, _)| q == p && t <= horizon)
        .map(|&(_, t, _)| t);
    match (crash, departure) {
        (Some(c), Some(d)) => Some(c.min(d)),
        (c, d) => c.or(d),
    }
}

/// The last suspicion verdict per `(observer, target)`: when it was given
/// and whether it suspects.
pub(crate) type LastVerdicts = BTreeMap<(ProcessId, ProcessId), (Time, bool)>;

/// The measured ◇P₁ convergence time from the last verdicts (see
/// [`RunReport::detector_convergence`]).
pub(crate) fn detector_convergence(
    graph: &ConflictGraph,
    horizon: Time,
    crashes: &[(ProcessId, Time)],
    last: &LastVerdicts,
    is_correct: impl Fn(ProcessId) -> bool,
) -> Time {
    let mut conv = Time::ZERO;
    for (&(observer, target), &(t, suspected)) in last {
        if !is_correct(observer) {
            continue; // only correct observers constrain ◇P₁
        }
        // Accuracy: of a correct target the last verdict must be a
        // withdrawal (until then the pair had a standing false positive);
        // completeness: of a crashed one, a (permanent) suspicion.
        let settled = suspected != is_correct(target);
        conv = conv.max(if settled { t } else { horizon });
    }
    // A crashed neighbor never suspected at all: completeness not yet
    // visible — convergence did not happen within this run.
    for &(q, t) in crashes {
        if t > horizon || is_correct(q) {
            continue; // a recovered process owes no completeness
        }
        for &i in graph.neighbors(q) {
            if is_correct(i) && !last.contains_key(&(i, q)) {
                conv = horizon;
            }
        }
    }
    conv
}

#[cfg(test)]
mod tests {
    use crate::{OracleSpec, Scenario, Workload};
    use ekbd_graph::{topology, ProcessId};
    use ekbd_sim::{DelayModel, Time};

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn crash_free_ring_run_satisfies_everything() {
        let report = Scenario::new(topology::ring(5))
            .seed(3)
            .workload(Workload {
                sessions: 8,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(50_000))
            .run_algorithm1();
        let progress = report.progress();
        assert!(progress.wait_free(), "starving: {:?}", progress.starving());
        assert_eq!(progress.total_sessions(), 5 * 8);
        assert_eq!(
            report.exclusion().total(),
            0,
            "silent oracle ⇒ no mistakes ever"
        );
        assert!(report.fairness().max_overtakes() <= 2);
        assert!(report.max_channel_high_water <= 4, "paper §7 channel bound");
        assert_eq!(report.detector_convergence(), Time::ZERO);
        assert!(report
            .final_states
            .iter()
            .all(|s| *s == ekbd_dining::DinerState::Thinking));
    }

    #[test]
    fn crash_with_perfect_oracle_keeps_progress() {
        let report = Scenario::new(topology::ring(5))
            .seed(11)
            .perfect_oracle()
            .crash(p(2), Time(200))
            .workload(Workload {
                sessions: 8,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(50_000))
            .run_algorithm1();
        assert!(report.progress().wait_free());
        assert_eq!(
            report.exclusion().total(),
            0,
            "perfect oracle ⇒ no mistakes"
        );
        // Quiescence: finitely many messages to the crashed process.
        let q = report.quiescence();
        assert!(q.total() < 20);
        assert!(q.quiescent_by(report.horizon));
    }

    #[test]
    fn adversarial_oracle_mistakes_stop_after_convergence() {
        let report = Scenario::new(topology::clique(4))
            .seed(7)
            .adversarial_oracle(Time(3_000), 40)
            .workload(Workload {
                sessions: 12,
                think: (1, 20),
                eat: (1, 15),
            })
            .horizon(Time(80_000))
            .run_algorithm1();
        assert!(report.progress().wait_free());
        let conv = report.detector_convergence();
        assert!(conv <= Time(3_000));
        assert_eq!(
            report.exclusion().after(Time(3_000)),
            0,
            "Theorem 1: no mistakes after ◇P₁ converges"
        );
        assert!(
            report.fairness().max_overtakes_after(Time(3_000)) <= 2,
            "Theorem 3: ◇2-BW in the suffix"
        );
    }

    #[test]
    fn same_seed_same_report() {
        let make = || {
            Scenario::new(topology::grid(3, 3))
                .seed(99)
                .adversarial_oracle(Time(1_000), 25)
                .crash(p(4), Time(700))
                .horizon(Time(30_000))
                .run_algorithm1()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.events, b.events);
        assert_eq!(a.suspicions, b.suspicions);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn heartbeat_oracle_runs_and_detects() {
        let hb = ekbd_detector::HeartbeatConfig {
            period: 10,
            initial_timeout: 50,
            timeout_increment: 25,
        };
        let report = Scenario::new(topology::ring(4))
            .seed(5)
            .heartbeat_oracle(hb)
            .delay(DelayModel::Gst {
                gst: Time(400),
                pre_max: 120,
                delta: 6,
            })
            .crash(p(1), Time(600))
            .workload(Workload {
                sessions: 6,
                think: (1, 40),
                eat: (1, 10),
            })
            .horizon(Time(60_000))
            .run_algorithm1();
        assert!(report.progress().wait_free());
        let conv = report.detector_convergence();
        assert!(conv < report.horizon, "heartbeat ◇P₁ must converge");
        assert_eq!(report.exclusion().after(conv), 0);
        // The crashed process is suspected by both ring neighbors.
        let suspected_by: Vec<_> = report
            .suspicions
            .iter()
            .filter(|&&(_, _, t, s)| t == p(1) && s)
            .map(|&(_, o, _, _)| o)
            .collect();
        assert!(suspected_by.contains(&p(0)) && suspected_by.contains(&p(2)));
    }

    #[test]
    fn recovered_process_rejoins_and_eats_again() {
        let report = Scenario::new(topology::ring(5))
            .seed(13)
            .perfect_oracle()
            .crash(p(2), Time(300))
            .recover(p(2), Time(2_000))
            .workload(Workload {
                sessions: 8,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(60_000))
            .run_recoverable();
        assert!(report.is_correct(p(2)), "recovered ⇒ correct again");
        assert_eq!(report.incarnations, vec![0, 0, 1, 0, 0]);
        assert!(
            report.progress().wait_free(),
            "starving: {:?}",
            report.progress().starving()
        );
        let ra = report.readmissions();
        assert_eq!(ra.len(), 1);
        assert!(
            ra[0].first_eat.is_some(),
            "recovered process eats again: {ra:?}"
        );
        assert!(
            matches!(
                ra[0].path,
                Some(ekbd_dining::RestartPath::Blank {
                    reason: ekbd_dining::BlankReason::Disabled
                })
            ),
            "no journal configured ⇒ blank path: {ra:?}"
        );
        let stats = report.recovery.expect("recoverable algorithm keeps stats");
        assert!(stats.resyncs >= 2, "both edges resynced: {stats:?}");
        assert_eq!(
            report.exclusion().total(),
            0,
            "perfect oracle, blank reboot"
        );
    }

    #[test]
    fn corrupted_reboot_and_live_corruption_stabilize() {
        let report = Scenario::new(topology::clique(4))
            .seed(29)
            .perfect_oracle()
            .crash(p(1), Time(400))
            .recover_corrupted(p(1), Time(1_500))
            .corrupt_state(p(3), Time(2_500))
            .workload(Workload {
                sessions: 10,
                think: (1, 25),
                eat: (1, 12),
            })
            .horizon(Time(80_000))
            .run_recoverable();
        assert!(report.progress().wait_free());
        let last = report.last_fault_time().expect("faults were scheduled");
        assert_eq!(last, Time(2_500));
        // After the last fault plus repair slack (a few audit rounds), the
        // schedule is mistake-free and fair again.
        let stab = Time(last.0 + 10 * crate::AUDIT_PERIOD);
        assert_eq!(report.exclusion().after(stab), 0);
        assert!(report.fairness().max_overtakes_after(stab) <= 2);
        assert!(report.readmissions()[0].first_eat.is_some());
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let make = || {
            Scenario::new(topology::grid(3, 3))
                .seed(5)
                .perfect_oracle()
                .crash(p(4), Time(300))
                .recover_corrupted(p(4), Time(1_200))
                .corrupt_state(p(0), Time(900))
                .horizon(Time(40_000))
                .run_recoverable()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.events, b.events);
        assert_eq!(a.suspicions, b.suspicions);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn joiner_boots_mid_run_syncs_and_eats() {
        let report = Scenario::new(topology::ring(5))
            .seed(17)
            .membership(ekbd_sim::MembershipPlan::new().join(p(2), Time(500)))
            .workload(Workload {
                sessions: 8,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(60_000))
            .run_recoverable();
        assert_eq!(report.incarnations[2], 1, "joiners boot at incarnation 1");
        assert!(
            report.progress().wait_free(),
            "starving: {:?}",
            report.progress().starving()
        );
        assert_eq!(report.exclusion().total(), 0, "churn must not break ◇WX");
        let adm = report.admissions();
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].joined, Time(500));
        assert!(adm[0].first_eat.is_some(), "joiner must eat: {adm:?}");
        assert_eq!(report.membership_tag(p(2)), crate::MembershipTag::Joined);
        assert!(report.is_correct(p(2)), "a joiner that stays is correct");
    }

    #[test]
    fn graceful_leaver_drains_and_survivors_keep_running() {
        let report = Scenario::new(topology::ring(5))
            .seed(23)
            .membership(ekbd_sim::MembershipPlan::new().leave(p(1), Time(700)))
            .workload(Workload {
                sessions: 8,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(60_000))
            .run_recoverable();
        assert_eq!(report.cut_time(p(1)), Some(Time(700)));
        assert!(!report.is_correct(p(1)), "departed ⇒ excused, not correct");
        assert_eq!(report.membership_tag(p(1)), crate::MembershipTag::Departed);
        assert!(
            report.progress().wait_free(),
            "survivors starve: {:?}",
            report.progress().starving()
        );
        assert_eq!(report.exclusion().total(), 0);
    }

    #[test]
    fn crash_stop_departure_cannot_starve_survivors() {
        // p1 leaves without draining; whatever fork it held is reminted by
        // the survivors' audit path after the strike policy.
        let report = Scenario::new(topology::clique(4))
            .seed(31)
            .membership(ekbd_sim::MembershipPlan::new().crash_leave(p(1), Time(600)))
            .workload(Workload {
                sessions: 10,
                think: (1, 25),
                eat: (1, 12),
            })
            .horizon(Time(80_000))
            .run_recoverable();
        assert!(
            report.progress().wait_free(),
            "starving: {:?}",
            report.progress().starving()
        );
        assert_eq!(report.exclusion().total(), 0);
        assert_eq!(report.membership_tag(p(1)), crate::MembershipTag::Departed);
    }

    #[test]
    fn replace_swaps_an_id_without_disturbing_survivors() {
        let report = Scenario::new(topology::ring(6))
            .seed(41)
            .membership(ekbd_sim::MembershipPlan::new().replace(p(1), p(4), Time(800)))
            .workload(Workload {
                sessions: 6,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(60_000))
            .run_recoverable();
        assert_eq!(report.membership_tag(p(1)), crate::MembershipTag::Departed);
        assert_eq!(report.membership_tag(p(4)), crate::MembershipTag::Joined);
        assert_eq!(report.incarnations[4], 1);
        assert!(
            report.progress().wait_free(),
            "starving: {:?}",
            report.progress().starving()
        );
        assert_eq!(report.exclusion().total(), 0);
        assert!(report.admissions()[0].first_eat.is_some());
    }

    #[test]
    fn seeded_churn_runs_are_deterministic_and_safe() {
        let make = || {
            Scenario::new(topology::grid(3, 4))
                .seed(7)
                .horizon(Time(40_000))
                .churn(800)
                .workload(Workload {
                    sessions: 6,
                    think: (1, 30),
                    eat: (1, 10),
                })
                .run_recoverable()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.events, b.events);
        assert_eq!(a.suspicions, b.suspicions);
        assert_eq!(a.total_messages, b.total_messages);
        assert!(
            !a.joins.is_empty() && !a.departures.is_empty(),
            "churn plan must move in both directions"
        );
        assert_eq!(a.exclusion().total(), 0, "churn must not break ◇WX");
        let starving = a.progress().starving();
        for q in a.graph.processes() {
            if a.join_time(q).is_none() && a.departure_time(q).is_none() {
                assert!(
                    !starving.contains(&q),
                    "continuously-present {q} starves under churn"
                );
            }
        }
    }

    #[test]
    fn membership_recolors_online_and_keeps_survivor_colors() {
        let with_join = Scenario::new(topology::ring(5))
            .membership(ekbd_sim::MembershipPlan::new().join(p(2), Time(500)));
        // Initially-present nodes keep the colors of the induced subgraph;
        // the joiner takes the least color absent from its neighborhood.
        for q in [0usize, 1, 3, 4] {
            assert!(with_join.colors[q] <= 1, "induced ring-path is 2-colorable");
        }
        assert_ne!(with_join.colors[2], with_join.colors[1]);
        assert_ne!(with_join.colors[2], with_join.colors[3]);
    }

    #[test]
    fn a_longer_quiet_tail_retains_nothing_more() {
        // A retention bound. A chaos schedule's disturbances are over
        // within a few thousand ticks, and its eight sessions a process
        // soon after; the rest of the horizon is recovery-layer audit
        // traffic. Quadrupling the horizon adds dining sends, which are
        // counted, but no entry to any retained column. Ring-8 at generator seed 4 crash-leaves
        // p5 at t=1705 while its neighbours still send to it.
        let mix = ekbd_chaos::Intensity::default_mix();
        let mut schedule = ekbd_chaos::FaultSchedule::generate("ring-8", 4, &mix).unwrap();
        let mut run = |horizon| {
            schedule.horizon = Time(horizon);
            Scenario::chaos(&schedule).unwrap().run_recoverable()
        };
        let (short, long) = (run(60_000), run(240_000));
        assert!(
            !short.dining_sends_to_cut.is_empty(),
            "the schedule must send to a cut process"
        );
        assert_eq!(long.events.len(), short.events.len());
        assert_eq!(long.suspicions.len(), short.suspicions.len());
        assert_eq!(
            long.dining_sends_to_cut.len(),
            short.dining_sends_to_cut.len()
        );
        assert!(long.dining_sends > short.dining_sends);
    }

    mod cuts {
        //! The interrupted-life column, pinned: each committed event
        //! stream with its crashes, restarts and departures, and the FNV-1a
        //! digest of the column the report keeps for it.

        use crate::lives::Lives;
        use ekbd_dining::DiningObs::{self, *};
        use ekbd_graph::ProcessId;
        use ekbd_metrics::SchedEvent;
        use ekbd_sim::Time;

        type Schedule = (
            Vec<(ProcessId, Time)>,
            Vec<(ProcessId, Time)>,
            Vec<(ProcessId, Time, bool)>,
        );

        /// The column the report keeps for `events` under `schedule`.
        fn column(
            events: Vec<SchedEvent>,
            (crashes, recoveries, departures): &Schedule,
        ) -> Vec<SchedEvent> {
            let mut lives = Lives::new(8, Time(1_000), crashes, recoveries, departures);
            let mut column = Vec::new();
            for e in events {
                lives.observe(e.time, e.process, e.obs, &mut column);
            }
            lives.finish(&mut column);
            column
        }

        /// FNV-1a over the debug rendering of each event, newline-separated.
        fn digest(events: &[SchedEvent]) -> String {
            let h = events.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, e| {
                format!("{e:?}\n")
                    .bytes()
                    .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
            });
            format!("{}#{h:016x}", events.len())
        }

        fn ev(t: u64, p: usize, obs: DiningObs) -> SchedEvent {
            SchedEvent::new(Time(t), ProcessId::from(p), obs)
        }

        fn at(p: usize, t: u64) -> (ProcessId, Time) {
            (ProcessId::from(p), Time(t))
        }

        fn leave(p: usize, t: u64) -> (ProcessId, Time, bool) {
            (ProcessId::from(p), Time(t), true)
        }

        /// p0 stops eating at the very tick it crashes; p1 acts on that
        /// tick after it.
        fn event_at_the_cut() -> (Vec<SchedEvent>, Schedule) {
            let events = vec![
                ev(5, 0, BecameHungry),
                ev(6, 0, EnteredDoorway),
                ev(8, 0, ExitedDoorway),
                ev(9, 0, StartedEating),
                ev(12, 1, BecameHungry),
                ev(20, 1, EnteredDoorway),
                ev(20, 0, StoppedEating),
                ev(20, 1, ExitedDoorway),
                ev(24, 1, StartedEating),
                ev(35, 0, BecameHungry),
                ev(40, 0, StartedEating),
                ev(41, 1, StoppedEating),
                ev(45, 0, StoppedEating),
            ];
            (events, (vec![at(0, 20)], vec![at(0, 30)], vec![]))
        }

        /// p1 is cut twice: eating at the first crash, hungry at the second.
        fn two_cuts_on_one_process() -> (Vec<SchedEvent>, Schedule) {
            let events = vec![
                ev(2, 1, BecameHungry),
                ev(3, 1, EnteredDoorway),
                ev(4, 1, ExitedDoorway),
                ev(5, 1, StartedEating),
                ev(7, 0, BecameHungry),
                ev(11, 0, StartedEating),
                ev(22, 1, BecameHungry),
                ev(23, 1, EnteredDoorway),
                ev(25, 0, StoppedEating),
                ev(26, 1, ExitedDoorway),
                ev(27, 1, StartedEating),
                ev(30, 1, StoppedEating),
                ev(40, 1, BecameHungry),
                ev(62, 1, BecameHungry),
                ev(63, 1, StartedEating),
                ev(66, 1, StoppedEating),
            ];
            let crashes = vec![at(1, 10), at(1, 50)];
            (events, (crashes, vec![at(1, 20), at(1, 60)], vec![]))
        }

        /// p0 leaves while eating and p1 while inside the doorway, at one
        /// tick; p2 leaves hungry later.
        fn departures_mid_interval() -> (Vec<SchedEvent>, Schedule) {
            let events = vec![
                ev(1, 0, BecameHungry),
                ev(1, 1, BecameHungry),
                ev(2, 0, EnteredDoorway),
                ev(3, 0, ExitedDoorway),
                ev(4, 0, StartedEating),
                ev(6, 1, EnteredDoorway),
                ev(8, 2, BecameHungry),
                ev(30, 3, BecameHungry),
                ev(31, 3, StartedEating),
                ev(34, 3, StoppedEating),
            ];
            let departures = vec![leave(0, 30), leave(1, 30), leave(2, 32)];
            (events, (vec![], vec![], departures))
        }

        /// Two processes crash at one tick and restart: the closers of a
        /// tick come by process id, p2 first, though p3 acts again first.
        fn same_tick_cuts() -> (Vec<SchedEvent>, Schedule) {
            let events = vec![
                ev(1, 2, BecameHungry),
                ev(2, 2, StartedEating),
                ev(3, 3, BecameHungry),
                ev(4, 3, EnteredDoorway),
                ev(5, 3, ExitedDoorway),
                ev(6, 3, StartedEating),
                ev(25, 0, BecameHungry),
                ev(31, 3, BecameHungry),
                ev(33, 2, BecameHungry),
                ev(34, 3, StartedEating),
                ev(35, 2, StartedEating),
            ];
            let crashes = vec![at(2, 25), at(3, 25)];
            (events, (crashes, vec![at(2, 30), at(3, 30)], vec![]))
        }

        /// p0 crashes eating and restarts but never acts again; p1 leaves
        /// after its last event.
        fn cut_without_a_later_event() -> (Vec<SchedEvent>, Schedule) {
            let events = vec![
                ev(1, 0, BecameHungry),
                ev(2, 0, EnteredDoorway),
                ev(3, 0, ExitedDoorway),
                ev(4, 0, StartedEating),
                ev(5, 1, BecameHungry),
                ev(9, 1, StartedEating),
                ev(12, 1, StoppedEating),
                ev(70, 2, BecameHungry),
                ev(71, 2, StartedEating),
            ];
            let schedule = (vec![at(0, 50)], vec![at(0, 60)], vec![leave(1, 80)]);
            (events, schedule)
        }

        /// A seeded random run over `n` processes: each process walks the
        /// hungry, doorway, eat cycle, and crashes, restarts and departures
        /// fall anywhere, ticks shared between processes included.
        fn random_stream(seed: u64, n: usize) -> (Vec<SchedEvent>, Schedule) {
            let mut x = seed | 1;
            let mut next = |m: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % m
            };
            const CYCLE: [DiningObs; 5] = [
                BecameHungry,
                EnteredDoorway,
                ExitedDoorway,
                StartedEating,
                StoppedEating,
            ];
            let mut phase = vec![0usize; n];
            let mut t = 0;
            let mut events = Vec::new();
            for _ in 0..80 {
                t += next(3);
                let p = next(n as u64) as usize;
                events.push(ev(t, p, CYCLE[phase[p]]));
                phase[p] = (phase[p] + 1) % CYCLE.len();
            }
            let (mut crashes, mut recoveries, mut departures) = (vec![], vec![], vec![]);
            for p in 0..n {
                match next(4) {
                    0 => {}
                    1 => departures.push(leave(p, next(t + 10))),
                    _ => {
                        let c = next(t + 1);
                        crashes.push(at(p, c));
                        if next(3) > 0 {
                            recoveries.push(at(p, c + 1 + next(20)));
                        }
                    }
                }
            }
            (events, (crashes, recoveries, departures))
        }

        /// Literal digests of the column of every stream above.
        const COLUMNS: [(&str, &str); 10] = [
            ("event-at-the-cut", "14#76bd3c3086959b38"),
            ("two-cuts", "16#17745f7a57b623a9"),
            ("departures", "10#faff6024bb37af06"),
            ("same-tick-cuts", "13#8abd847da7b17f2e"),
            ("no-later-event", "10#bb1e80b40e3f7a92"),
            ("random-1", "80#55f96b3e59640649"),
            ("random-2", "81#f4b148881017816f"),
            ("random-3", "80#1d4c4d5f6331dbf3"),
            ("random-4", "79#e1ec885f815e589d"),
            ("random-5", "80#d21a230863e57f52"),
        ];

        #[test]
        fn interrupted_lives_close_as_pinned() {
            let mut streams = vec![
                ("event-at-the-cut", event_at_the_cut()),
                ("two-cuts", two_cuts_on_one_process()),
                ("departures", departures_mid_interval()),
                ("same-tick-cuts", same_tick_cuts()),
                ("no-later-event", cut_without_a_later_event()),
            ];
            for (i, label) in ["random-1", "random-2", "random-3", "random-4", "random-5"]
                .into_iter()
                .enumerate()
            {
                streams.push((label, random_stream(0x5eed + 97 * i as u64, 3 + i)));
            }
            let got: Vec<(&str, String)> = streams
                .into_iter()
                .map(|(label, (events, schedule))| (label, digest(&column(events, &schedule))))
                .collect();
            let want: Vec<(&str, String)> = COLUMNS
                .iter()
                .map(|&(label, d)| (label, d.to_string()))
                .collect();
            assert_eq!(got, want, "the interrupted-life columns moved");
        }
    }

    #[test]
    fn oracle_spec_debug_shapes() {
        // Exercise the enum's surface (cheap coverage of derives).
        let s = format!(
            "{:?}",
            OracleSpec::Adversarial {
                converge_at: Time(5),
                burst: 2
            }
        );
        assert!(s.contains("Adversarial"));
    }
}
