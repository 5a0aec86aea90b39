//! Running [`FaultSchedule`]s: scenario construction, the invariant
//! watchdog, and the run-classifying oracle the shrinker drives.
//!
//! This is the harness half of the chaos engine. `ekbd-chaos` owns the
//! schedule model (it is a leaf crate and cannot run anything);
//! [`Scenario::chaos`] compiles a schedule into a full scenario, and
//! [`run_chaos`] executes it *twice*, the rerun as a twin on a second
//! thread — that the twin reproduces the run is itself an invariant —
//! then classifies the outcome into a [`RunClass`]:
//!
//! * [`RunClass::NonDeterministic`] — the twin's scheduling events, its
//!   simulator event count or its journals differ from the run's;
//! * [`RunClass::ExclusionMistake`] — live neighbors overlapped eating
//!   after the stabilization point (detector convergence or the last
//!   scheduled disturbance plus a ten-audit grace window, whichever is
//!   later);
//! * [`RunClass::Stalled`] — a live process was still starving at the
//!   horizon (Theorem 2 violated);
//! * [`RunClass::WaitFree`] — none of the above.

use crate::report::RunReport;
use crate::scenario::{Scenario, Workload};
use crate::AUDIT_PERIOD;
use ekbd_chaos::{
    codec, shrink, FaultSchedule, RunClass, ScheduleError, ScheduleParts, ShrinkStats,
};
use ekbd_graph::ProcessId;
use ekbd_link::LinkConfig;
use ekbd_sim::Time;
use std::path::{Path, PathBuf};

/// The canonical chaos workload: enough sessions per process that every
/// disturbance window overlaps live hunger, short enough cycles that the
/// post-disturbance tail has plenty of admissions to judge.
pub const CHAOS_WORKLOAD: Workload = Workload {
    sessions: 8,
    think: (1, 30),
    eat: (1, 8),
};

/// Everything the watchdog concluded about one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The classification (see module docs for the precedence).
    pub class: RunClass,
    /// The stabilization point mistakes were judged after.
    pub stabilized_at: Time,
    /// Exclusion mistakes over the whole run (pre-stabilization
    /// mistakes are legal under ◇WX).
    pub mistakes_total: usize,
    /// Exclusion mistakes after the stabilization point.
    pub mistakes_after: usize,
    /// Live processes still starving at the horizon.
    pub starving: Vec<ProcessId>,
    /// Whether the rerun reproduced the run: the same scheduling events,
    /// the same number of simulator events and the same journal bytes.
    pub deterministic: bool,
    /// The first run's full report.
    pub report: RunReport,
}

impl ChaosOutcome {
    /// True for every class except [`RunClass::WaitFree`].
    pub fn is_failure(&self) -> bool {
        self.class.is_failure()
    }
}

impl Scenario {
    /// Wire a schedule's per-axis plans into this scenario: channel faults,
    /// restarts and corruptions, crashes, storage damage and membership.
    /// Both [`Scenario::chaos`] and `ekbd run`'s fault flags come through
    /// here. The fault, storage and (non-inert) membership plans replace
    /// the scenario's; the crashes join its crash list. Validate the
    /// schedule first ([`FaultSchedule::validate_for`]):
    /// [`Scenario::membership`] panics on an invalid plan.
    pub fn fault_parts(mut self, parts: ScheduleParts) -> Scenario {
        self = self.faults(parts.faults).storage_faults(parts.storage);
        for (p, t) in parts.crashes {
            self = self.crash(p, t);
        }
        if !parts.membership.is_inert() {
            self = self.membership(parts.membership);
        }
        self
    }

    /// Compile a validated [`FaultSchedule`] into a runnable scenario:
    /// perfect oracle, the canonical chaos workload, and every fault
    /// axis wired to its plan. The link layer is enabled exactly when
    /// the schedule injects channel faults (required for the theorems
    /// to survive them).
    pub fn chaos(schedule: &FaultSchedule) -> Result<Scenario, ScheduleError> {
        schedule.validate()?;
        let graph = schedule.build_topology()?;
        let parts = schedule.parts();
        // The audit period is pinned to the historical constant rather
        // than the degree-derived scenario default: committed `.chaos`
        // artifacts record an expected class, and that classification
        // must stay reproducible as defaults evolve.
        let mut s = Scenario::new(graph)
            .seed(schedule.seed)
            .horizon(schedule.horizon)
            .perfect_oracle()
            .workload(CHAOS_WORKLOAD)
            .audit_period(AUDIT_PERIOD)
            .fault_parts(parts);
        if schedule.needs_link() {
            s = s.reliable_link(LinkConfig::default());
        }
        Ok(s)
    }
}

/// Ticks after a schedule's last disturbance before [`run_chaos`] counts
/// an exclusion mistake against the run.
///
/// It is shorter than the worst repair of damage to a quiet process
/// ([`quiet_repair_bound`](crate::quiet_repair_bound): 524 ticks on a
/// ring, up to 1 124 on gnp-12-0.3 with its longer derived period, more
/// again while the link retransmits), because the audit backs off while a
/// process is quiet. The gap cannot hide a fault: a shorter grace judges more of the
/// run, not less. What it can do is misjudge: damage on an edge whose
/// endpoints both stay quiet past the grace is still there when one of
/// them grows hungry. Hunger wakes its audit back to the period, but
/// both endpoints can eat on a duplicated fork before the repair lands,
/// and the run then reads `exclusion-mistake` for a mistake the repair
/// bound allows.
/// No committed schedule reads so: E18's 64 and `sim-chaos`'s 16 stay
/// wait-free and the `.chaos` artifacts keep their classes. A unit test
/// pins the grace against the bound on every generator topology.
const STABILIZATION_GRACE: u64 = 10 * AUDIT_PERIOD;

/// Run `schedule` (twice) and classify the outcome.
///
/// Errors only on invalid schedules; a failing *run* is a normal
/// [`ChaosOutcome`] with a failure class.
pub fn run_chaos(schedule: &FaultSchedule) -> Result<ChaosOutcome, ScheduleError> {
    let scenario = Scenario::chaos(schedule)?;
    // The rerun is a twin on a second thread. Each run builds its own
    // simulator and journal stores, so the two share only the scenario.
    let (report, rerun) = std::thread::scope(|s| {
        let twin = s.spawn(|| scenario.run_recoverable());
        let report = scenario.run_recoverable();
        let rerun = twin.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (report, rerun)
    });
    let deterministic = report.events == rerun.events
        && report.events_processed == rerun.events_processed
        && report.journals == rerun.journals;

    // Judge mistakes only after both the detector has converged and the
    // last scheduled disturbance is `STABILIZATION_GRACE` behind;
    // everything before is legal ◇WX turbulence.
    let grace = Time(schedule.last_disturbance().0 + STABILIZATION_GRACE);
    let stabilized_at = report.detector_convergence().max(grace);
    let mistakes_total = report.exclusion().total();
    let mistakes_after = report.exclusion().after(stabilized_at);
    let starving = report.progress().starving();

    let class = if !deterministic {
        RunClass::NonDeterministic
    } else if mistakes_after > 0 {
        RunClass::ExclusionMistake
    } else if !starving.is_empty() {
        RunClass::Stalled
    } else {
        RunClass::WaitFree
    };

    Ok(ChaosOutcome {
        class,
        stabilized_at,
        mistakes_total,
        mistakes_after,
        starving,
        deterministic,
        report,
    })
}

/// The shrinker's oracle, shared by the CLI and the E18 gate: a
/// candidate "still fails" when it is a valid schedule AND reproduces
/// exactly `class`. Dropping events can orphan a recovery or a storage
/// fault; those candidates are invalid, not failing.
pub fn reproduces(schedule: &FaultSchedule, class: RunClass) -> bool {
    run_chaos(schedule).is_ok_and(|o| o.class == class)
}

/// Shrink a schedule known to fail with `class` to a locally-minimal
/// failing sub-schedule (see [`ekbd_chaos::shrink()`]).
pub fn shrink_failing(schedule: &FaultSchedule, class: RunClass) -> (FaultSchedule, ShrinkStats) {
    shrink(schedule, |candidate| reproduces(candidate, class))
}

/// Persist a failing schedule as a replayable artifact under `dir`,
/// tagged with the class it reproduces, and print the exact replay
/// command next to the failure — the repro is one paste away.
pub fn emit_repro_artifact(
    schedule: &FaultSchedule,
    class: RunClass,
    dir: &Path,
) -> Result<PathBuf, ScheduleError> {
    let tagged = schedule.clone().expecting(class);
    let name = format!(
        "{}-seed{}-{}.chaos",
        schedule.topology,
        schedule.seed,
        class.as_str()
    );
    let path = dir.join(name);
    codec::write_artifact(&tagged, &path)?;
    eprintln!(
        "chaos invariant failure ({class}); reproduce with: {}",
        codec::replay_command(&path)
    );
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derived_audit_period, quiet_repair_bound};
    use ekbd_chaos::{ChannelNoise, ChaosEvent, Intensity};

    #[test]
    fn the_grace_is_pinned_against_the_quiet_repair_bound() {
        // See `STABILIZATION_GRACE`: the grace is shorter than the worst
        // repair of damage to a quiet process on every generator
        // topology. A change to the grace, the period, the backoff cap or
        // the strikes moves this table and must revisit that note.
        let max_delay = 8;
        let bounds: Vec<(&str, u64, u64)> = ["ring-8", "clique-6", "grid-3x4", "gnp-12-0.3"]
            .into_iter()
            .map(|topo| {
                let graph = FaultSchedule::new(topo, 0, Time(1))
                    .build_topology()
                    .unwrap();
                let period = derived_audit_period(graph.max_degree());
                let bound = quiet_repair_bound(period, ekbd_dining::DEFAULT_STRIKES, max_delay);
                (topo, period, bound)
            })
            .collect();
        assert_eq!(STABILIZATION_GRACE, 500);
        assert_eq!(
            bounds,
            [
                ("ring-8", 50, 524),
                ("clique-6", 80, 824),
                ("grid-3x4", 70, 724),
                ("gnp-12-0.3", 110, 1124),
            ]
        );
    }

    #[test]
    fn empty_schedule_is_wait_free() {
        let schedule = FaultSchedule::new("ring-5", 3, Time(60_000));
        let outcome = run_chaos(&schedule).unwrap();
        assert_eq!(outcome.class, RunClass::WaitFree);
        assert!(outcome.deterministic);
        assert!(outcome.starving.is_empty());
        assert!(!outcome.is_failure());
    }

    #[test]
    fn generated_composite_schedule_runs_clean() {
        let schedule = FaultSchedule::generate("ring-8", 7, &Intensity::default_mix()).unwrap();
        assert!(schedule.axes().len() >= 2);
        let outcome = run_chaos(&schedule).unwrap();
        assert_eq!(outcome.class, RunClass::WaitFree, "{:?}", outcome.starving);
        assert_eq!(outcome.mistakes_after, 0);
    }

    #[test]
    fn never_healing_partition_classifies_as_stalled() {
        let schedule =
            FaultSchedule::new("ring-8", 11, Time(120_000)).event(ChaosEvent::Partition {
                side: vec![ProcessId(3)],
                start: Time(50),
                heal: Time(120_000),
            });
        let outcome = run_chaos(&schedule).unwrap();
        assert_eq!(outcome.class, RunClass::Stalled);
        assert!(outcome.is_failure());
    }

    #[test]
    #[ignore = "diagnosis probe; run explicitly"]
    fn crash_churn_probe() {
        // Which crash × churn pairings wedge? One pairing per run.
        for (name, events) in [
            (
                "join+crash",
                vec![
                    ChaosEvent::Join {
                        process: ProcessId(4),
                        at: Time(200),
                    },
                    ChaosEvent::Crash {
                        process: ProcessId(1),
                        at: Time(300),
                    },
                    ChaosEvent::Recover {
                        process: ProcessId(1),
                        at: Time(900),
                        corrupt: false,
                    },
                ],
            ),
            (
                "leave+crash",
                vec![
                    ChaosEvent::Leave {
                        process: ProcessId(4),
                        at: Time(400),
                        graceful: true,
                    },
                    ChaosEvent::Crash {
                        process: ProcessId(1),
                        at: Time(300),
                    },
                    ChaosEvent::Recover {
                        process: ProcessId(1),
                        at: Time(900),
                        corrupt: false,
                    },
                ],
            ),
            (
                "join-before-crash-of-neighbor",
                vec![
                    ChaosEvent::Join {
                        process: ProcessId(2),
                        at: Time(200),
                    },
                    ChaosEvent::Crash {
                        process: ProcessId(3),
                        at: Time(100),
                    },
                    ChaosEvent::Recover {
                        process: ProcessId(3),
                        at: Time(900),
                        corrupt: false,
                    },
                ],
            ),
            (
                "crash-only",
                vec![
                    ChaosEvent::Crash {
                        process: ProcessId(1),
                        at: Time(300),
                    },
                    ChaosEvent::Recover {
                        process: ProcessId(1),
                        at: Time(900),
                        corrupt: false,
                    },
                ],
            ),
            (
                "join-only",
                vec![ChaosEvent::Join {
                    process: ProcessId(4),
                    at: Time(200),
                }],
            ),
        ] {
            for seed in 0..8 {
                let mut s = FaultSchedule::new("ring-8", seed, Time(60_000));
                s.events = events.clone();
                let o = run_chaos(&s).unwrap();
                println!("{name}/{seed}: {} starving={:?}", o.class, o.starving);
            }
        }
    }

    #[test]
    #[ignore = "diagnosis probe; run explicitly"]
    fn shrink_real_failure() {
        let s = FaultSchedule::generate("ring-8", 9, &Intensity::default_mix()).unwrap();
        let o = run_chaos(&s).unwrap();
        println!("original: {} ({} events)", o.class, s.events.len());
        let (small, stats) = shrink_failing(&s, o.class);
        println!(
            "shrunk to {} events after {} tests:",
            stats.shrunk, stats.tests
        );
        for ev in &small.events {
            println!("    {ev:?}");
        }
        let o2 = run_chaos(&small).unwrap();
        println!("replay: {} starving={:?}", o2.class, o2.starving);
    }

    #[test]
    #[ignore = "calibration sweep for generator tuning; run explicitly"]
    fn calibration_sweep() {
        let mut failures = 0;
        for topo in ["ring-8", "clique-6", "grid-3x4", "gnp-12-0.3"] {
            for seed in 0..16 {
                let s = FaultSchedule::generate(topo, seed, &Intensity::default_mix()).unwrap();
                let o = run_chaos(&s).unwrap();
                if o.is_failure() {
                    failures += 1;
                    println!(
                        "{topo}/{seed}: {} starving={:?} axes={:?}",
                        o.class,
                        o.starving,
                        s.axes()
                    );
                    for ev in &s.events {
                        println!("    {ev:?}");
                    }
                }
            }
        }
        println!("failures: {failures}/64");
        assert_eq!(failures, 0);
    }

    #[test]
    fn invalid_schedule_is_an_error_not_a_failure() {
        let schedule = FaultSchedule::new("ring-8", 1, Time(10_000))
            .event(ChaosEvent::Noise(ChannelNoise::inert()))
            .event(ChaosEvent::Noise(ChannelNoise::inert()));
        assert!(run_chaos(&schedule).is_err());
        assert!(!reproduces(&schedule, RunClass::Stalled));
    }
}
