//! The unified fault schedule: one serializable description composing
//! every fault axis the workspace knows how to inject.
//!
//! A [`FaultSchedule`] is a flat, ordered list of [`ChaosEvent`]s plus a
//! topology spec, a seed, and a horizon. Flatness is the point: the
//! delta-debugging shrinker (see [`crate::shrink`]) works by *dropping
//! events*, so every independently-removable disturbance must be its own
//! event. The schedule compiles down to the per-axis plans the simulator
//! already understands — [`FaultPlan`], a crash list,
//! [`StorageFaultPlan`], and [`MembershipPlan`] — via [`FaultSchedule::parts`].

use ekbd_graph::{topology, ConflictGraph};
use ekbd_journal::{StorageFault, StorageFaultPlan};
use ekbd_sim::{FaultPlan, FaultPlanError, MembershipPlan, MembershipPlanError, ProcessId, Time};
use std::fmt;

/// Global channel-noise dial: sustained loss / duplication / reordering
/// applied to every link for the whole run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelNoise {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplication probability in `[0, 1]`.
    pub dup: f64,
    /// Per-message reorder probability in `[0, 1]`.
    pub reorder: f64,
    /// Maximum delivery-slot displacement for reordered messages.
    pub reorder_window: u64,
}

impl ChannelNoise {
    /// Noise that does nothing.
    pub fn inert() -> Self {
        ChannelNoise {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_window: 0,
        }
    }
}

/// One independently-droppable disturbance in a [`FaultSchedule`].
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosEvent {
    /// Set the global channel-noise dial (at most one per schedule).
    Noise(ChannelNoise),
    /// Partition `side` from the rest of the graph during `[start, heal)`.
    Partition {
        /// Processes on the minority side of the cut.
        side: Vec<ProcessId>,
        /// When the partition forms.
        start: Time,
        /// When it heals.
        heal: Time,
    },
    /// Crash-stop `process` at `at`.
    Crash {
        /// The victim.
        process: ProcessId,
        /// Crash instant.
        at: Time,
    },
    /// Restart a previously crashed `process` at `at`.
    Recover {
        /// The restarting process.
        process: ProcessId,
        /// Restart instant.
        at: Time,
        /// Restart from corrupted (arbitrary) volatile state.
        corrupt: bool,
    },
    /// Transiently corrupt the volatile state of a live `process`.
    Corrupt {
        /// The victim.
        process: ProcessId,
        /// Corruption instant.
        at: Time,
    },
    /// Damage the stable storage `process` will read back at restart.
    Storage {
        /// The victim (must also restart somewhere in the schedule).
        process: ProcessId,
        /// How the storage betrays it.
        mode: StorageFault,
    },
    /// An initially-absent `process` joins the system at `at`.
    Join {
        /// The joiner.
        process: ProcessId,
        /// Join instant.
        at: Time,
    },
    /// A present `process` leaves the system permanently at `at`.
    Leave {
        /// The departing process.
        process: ProcessId,
        /// Departure instant.
        at: Time,
        /// Graceful leaves drain; non-graceful ones crash-stop.
        graceful: bool,
    },
}

impl ChaosEvent {
    /// The fault axis this event belongs to, for coverage accounting.
    pub fn axis(&self) -> Axis {
        match self {
            ChaosEvent::Noise(_) => Axis::Channel,
            ChaosEvent::Partition { .. } => Axis::Partition,
            ChaosEvent::Crash { .. } | ChaosEvent::Recover { .. } | ChaosEvent::Corrupt { .. } => {
                Axis::Crash
            }
            ChaosEvent::Storage { .. } => Axis::Storage,
            ChaosEvent::Join { .. } | ChaosEvent::Leave { .. } => Axis::Churn,
        }
    }

    /// The last instant at which this event disturbs the run, if it is
    /// tied to a point in time (noise and storage damage persist and
    /// count as no-time here; noise is covered by the link layer, storage
    /// by the recovery it rides on).
    pub fn last_disturbance(&self) -> Option<Time> {
        match self {
            ChaosEvent::Noise(_) | ChaosEvent::Storage { .. } => None,
            ChaosEvent::Partition { heal, .. } => Some(*heal),
            ChaosEvent::Crash { at, .. }
            | ChaosEvent::Recover { at, .. }
            | ChaosEvent::Corrupt { at, .. }
            | ChaosEvent::Join { at, .. }
            | ChaosEvent::Leave { at, .. } => Some(*at),
        }
    }
}

/// One of the five fault axes a schedule can exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Axis {
    /// Sustained channel noise (loss / duplication / reordering).
    Channel,
    /// Transient network partitions.
    Partition,
    /// Crash-stop, restart, and state corruption.
    Crash,
    /// Stable-storage damage observed at restart.
    Storage,
    /// Dynamic membership (joins and leaves).
    Churn,
}

impl Axis {
    /// All axes, in display order.
    pub const ALL: [Axis; 5] = [
        Axis::Channel,
        Axis::Partition,
        Axis::Crash,
        Axis::Storage,
        Axis::Churn,
    ];

    /// Bit used in coverage masks.
    pub fn bit(self) -> u8 {
        match self {
            Axis::Channel => 1 << 0,
            Axis::Partition => 1 << 1,
            Axis::Crash => 1 << 2,
            Axis::Storage => 1 << 3,
            Axis::Churn => 1 << 4,
        }
    }

    /// Short human name, used by the coverage report.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Channel => "channel",
            Axis::Partition => "partition",
            Axis::Crash => "crash",
            Axis::Storage => "storage",
            Axis::Churn => "churn",
        }
    }
}

/// How a classified chaos run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunClass {
    /// Every admitted hungry session ate; no post-stabilization
    /// exclusion mistakes; reruns are byte-identical.
    WaitFree,
    /// Two live neighbors overlapped in their critical sections after
    /// the stabilization point.
    ExclusionMistake,
    /// Some live process starved (hungry at the horizon with no eat).
    Stalled,
    /// A deterministic rerun of the same schedule diverged.
    NonDeterministic,
}

impl RunClass {
    /// Stable string form, used in artifacts and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            RunClass::WaitFree => "wait-free",
            RunClass::ExclusionMistake => "exclusion-mistake",
            RunClass::Stalled => "stalled",
            RunClass::NonDeterministic => "non-deterministic",
        }
    }

    /// Parse the stable string form back.
    pub fn parse(s: &str) -> Option<RunClass> {
        match s {
            "wait-free" => Some(RunClass::WaitFree),
            "exclusion-mistake" => Some(RunClass::ExclusionMistake),
            "stalled" => Some(RunClass::Stalled),
            "non-deterministic" => Some(RunClass::NonDeterministic),
            _ => None,
        }
    }

    /// True for every class except [`RunClass::WaitFree`].
    pub fn is_failure(self) -> bool {
        self != RunClass::WaitFree
    }
}

impl fmt::Display for RunClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a schedule is rejected before it ever runs.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// The compiled [`FaultPlan`] is self-contradictory.
    Fault(FaultPlanError),
    /// The compiled [`MembershipPlan`] is self-contradictory.
    Membership(MembershipPlanError),
    /// A storage fault targets a process that never restarts, so the
    /// damage could never be observed.
    StorageFaultWithoutRestart {
        /// The process with damaged storage.
        process: ProcessId,
    },
    /// A crash/recover/corrupt event targets a process that joins late
    /// or leaves, where the two schedules' semantics collide.
    FaultOnChurned {
        /// The doubly-targeted process.
        process: ProcessId,
    },
    /// More than one global channel-noise dial.
    DuplicateNoise,
    /// The topology spec does not name a known graph family.
    BadTopology {
        /// The offending spec string.
        spec: String,
    },
    /// A codec line failed to parse.
    Parse {
        /// 1-based line number in the schedule text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Reading or writing a schedule file failed.
    Io(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Fault(e) => write!(f, "fault plan: {e}"),
            ScheduleError::Membership(e) => write!(f, "membership plan: {e}"),
            ScheduleError::StorageFaultWithoutRestart { process } => write!(
                f,
                "storage fault for process {process} which never restarts"
            ),
            ScheduleError::FaultOnChurned { process } => write!(
                f,
                "crash-axis event targets churned (joining/leaving) process {process}"
            ),
            ScheduleError::DuplicateNoise => {
                write!(f, "more than one channel-noise dial in one schedule")
            }
            ScheduleError::BadTopology { spec } => write!(f, "unknown topology spec `{spec}`"),
            ScheduleError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ScheduleError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<FaultPlanError> for ScheduleError {
    fn from(e: FaultPlanError) -> Self {
        ScheduleError::Fault(e)
    }
}

impl From<MembershipPlanError> for ScheduleError {
    fn from(e: MembershipPlanError) -> Self {
        ScheduleError::Membership(e)
    }
}

/// The per-axis plans a schedule compiles down to, in exactly the form
/// `ekbd-harness`'s `Scenario` consumes them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleParts {
    /// Channel faults, partitions, recoveries, corruptions.
    pub faults: FaultPlan,
    /// Crash-stop events (process, instant).
    pub crashes: Vec<(ProcessId, Time)>,
    /// Stable-storage damage.
    pub storage: StorageFaultPlan,
    /// Joins and leaves.
    pub membership: MembershipPlan,
}

/// A complete, serializable, replayable chaos schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// Topology spec in either spelling of [`topology::from_spec`], e.g.
    /// `ring-8`, `grid:3x4`, `gnp-12-0.3`.
    pub topology: String,
    /// Master seed: drives the simulator, the storage-fault entropy,
    /// and (for generated schedules) the generator itself.
    pub seed: u64,
    /// Run horizon in ticks.
    pub horizon: Time,
    /// Ordered disturbances; the unit the shrinker drops.
    pub events: Vec<ChaosEvent>,
    /// Expected run class, if this schedule is a regression artifact.
    pub expect: Option<RunClass>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule over `topology`.
    pub fn new(topology: &str, seed: u64, horizon: Time) -> Self {
        FaultSchedule {
            topology: topology.to_string(),
            seed,
            horizon,
            events: Vec::new(),
            expect: None,
        }
    }

    /// The same schedule with a different event list — the shrinker's
    /// candidate constructor.
    pub fn with_events(&self, events: Vec<ChaosEvent>) -> Self {
        FaultSchedule {
            events,
            ..self.clone()
        }
    }

    /// Append one event (builder style).
    pub fn event(mut self, ev: ChaosEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Tag the schedule with the class it is expected to reproduce.
    pub fn expecting(mut self, class: RunClass) -> Self {
        self.expect = Some(class);
        self
    }

    /// Build the conflict graph named by the topology spec.
    pub fn build_topology(&self) -> Result<ConflictGraph, ScheduleError> {
        build_topology(&self.topology)
    }

    /// Compile the flat event list into per-axis plans.
    ///
    /// This never fails: contradiction detection is [`Self::validate`]'s
    /// job, and the shrinker relies on being able to build candidate
    /// parts cheaply before deciding whether they are even well-formed.
    pub fn parts(&self) -> ScheduleParts {
        let mut faults = FaultPlan::new();
        let mut crashes = Vec::new();
        let mut storage = StorageFaultPlan::new().seed(self.seed);
        let mut membership = MembershipPlan::new();
        for ev in &self.events {
            match ev {
                ChaosEvent::Noise(noise) => {
                    faults = faults
                        .loss(noise.loss)
                        .duplication(noise.dup)
                        .reorder(noise.reorder, noise.reorder_window);
                }
                ChaosEvent::Partition { side, start, heal } => {
                    faults = faults.partition(side.clone(), *start, *heal);
                }
                ChaosEvent::Crash { process, at } => crashes.push((*process, *at)),
                ChaosEvent::Recover {
                    process,
                    at,
                    corrupt,
                } => {
                    faults = if *corrupt {
                        faults.recover_corrupted(*process, *at)
                    } else {
                        faults.recover(*process, *at)
                    };
                }
                ChaosEvent::Corrupt { process, at } => {
                    faults = faults.corrupt_state(*process, *at);
                }
                ChaosEvent::Storage { process, mode } => {
                    storage = storage.fault(*process, *mode);
                }
                ChaosEvent::Join { process, at } => {
                    membership = membership.join(*process, *at);
                }
                ChaosEvent::Leave {
                    process,
                    at,
                    graceful,
                } => {
                    membership = if *graceful {
                        membership.leave(*process, *at)
                    } else {
                        membership.crash_leave(*process, *at)
                    };
                }
            }
        }
        ScheduleParts {
            faults,
            crashes,
            storage,
            membership,
        }
    }

    /// Reject contradictory schedules with a distinct error per
    /// contradiction, instead of letting the simulator misbehave
    /// silently. Checks the topology spec, both per-axis plan
    /// validators, and the cross-axis rules that only the composed view
    /// can see (storage faults without a restart, crash-axis events on
    /// churned processes, duplicate noise dials).
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let graph = self.build_topology()?;
        self.validate_for(graph.len())
    }

    /// [`Self::validate`] against an explicit population size, for
    /// callers that already built the graph.
    pub fn validate_for(&self, n: usize) -> Result<(), ScheduleError> {
        let mut noise_seen = false;
        let mut partitions = 0usize;
        for ev in &self.events {
            match ev {
                ChaosEvent::Noise(_) => {
                    if noise_seen {
                        return Err(ScheduleError::DuplicateNoise);
                    }
                    noise_seen = true;
                }
                // Checked up front because FaultPlan::partition asserts
                // start < heal; parts() must not panic on codec input.
                ChaosEvent::Partition { start, heal, .. } => {
                    if *heal <= *start {
                        return Err(ScheduleError::Fault(FaultPlanError::PartitionNeverHeals {
                            index: partitions,
                        }));
                    }
                    partitions += 1;
                }
                _ => {}
            }
        }

        let parts = self.parts();
        parts.faults.validate(n, &parts.crashes)?;
        parts.membership.validate(n)?;

        let steady: Vec<ProcessId> = parts.membership.continuously_present(n);
        for ev in &self.events {
            match ev {
                ChaosEvent::Crash { process, .. }
                | ChaosEvent::Recover { process, .. }
                | ChaosEvent::Corrupt { process, .. }
                    if process.index() < n && !steady.contains(process) =>
                {
                    return Err(ScheduleError::FaultOnChurned { process: *process });
                }
                ChaosEvent::Storage { process, .. } => {
                    let restarts = self.events.iter().any(
                        |e| matches!(e, ChaosEvent::Recover { process: p, .. } if p == process),
                    );
                    if !restarts {
                        return Err(ScheduleError::StorageFaultWithoutRestart {
                            process: *process,
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The last instant at which the schedule disturbs the run; the
    /// stabilization point the classifier uses is measured from here.
    pub fn last_disturbance(&self) -> Time {
        self.events
            .iter()
            .filter_map(ChaosEvent::last_disturbance)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Bitmask of [`Axis`] values this schedule exercises.
    pub fn axis_mask(&self) -> u8 {
        self.events.iter().fold(0, |m, ev| m | ev.axis().bit())
    }

    /// The distinct axes this schedule exercises, in display order.
    pub fn axes(&self) -> Vec<Axis> {
        let mask = self.axis_mask();
        Axis::ALL
            .into_iter()
            .filter(|a| mask & a.bit() != 0)
            .collect()
    }

    /// The schedule's channel noise, when any of its probabilities is
    /// nonzero: messages may then be lost, duplicated or overtaken, which
    /// Algorithm 1's reliable FIFO channels rule out unless the link layer
    /// masks them.
    pub fn channel_noise(&self) -> Option<&ChannelNoise> {
        self.events.iter().find_map(|ev| match ev {
            ChaosEvent::Noise(n) if n.loss > 0.0 || n.dup > 0.0 || n.reorder > 0.0 => Some(n),
            _ => None,
        })
    }

    /// True when the schedule injects channel noise or partitions, i.e.
    /// when the run needs the retransmitting link layer to stay live.
    pub fn needs_link(&self) -> bool {
        self.channel_noise().is_some()
            || self
                .events
                .iter()
                .any(|ev| matches!(ev, ChaosEvent::Partition { .. }))
    }

    /// True when the schedule damages stable storage, i.e. when the run
    /// must journal so the damage has something to bite.
    pub fn needs_journal(&self) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(ev, ChaosEvent::Storage { .. }))
    }
}

/// Build the conflict graph `spec` names.
pub(crate) fn build_topology(spec: &str) -> Result<ConflictGraph, ScheduleError> {
    topology::from_spec(spec).ok_or_else(|| ScheduleError::BadTopology {
        spec: spec.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn topology_specs_parse() {
        assert_eq!(build_topology("ring-8").unwrap().len(), 8);
        assert_eq!(build_topology("ring:8").unwrap().len(), 8);
        assert_eq!(build_topology("grid-3x4").unwrap().len(), 12);
        assert_eq!(build_topology("gnp-12-0.3").unwrap().len(), 12);
        assert_eq!(
            build_topology("moebius-8").unwrap_err(),
            ScheduleError::BadTopology {
                spec: "moebius-8".into()
            }
        );
        assert!(build_topology("grid-3").is_err());
    }

    #[test]
    fn parts_compile_every_axis() {
        let s = FaultSchedule::new("ring-8", 7, Time(100_000))
            .event(ChaosEvent::Noise(ChannelNoise {
                loss: 0.05,
                dup: 0.02,
                reorder: 0.1,
                reorder_window: 8,
            }))
            .event(ChaosEvent::Partition {
                side: vec![p(2)],
                start: Time(1_000),
                heal: Time(4_000),
            })
            .event(ChaosEvent::Crash {
                process: p(5),
                at: Time(700),
            })
            .event(ChaosEvent::Recover {
                process: p(5),
                at: Time(1_500),
                corrupt: true,
            })
            .event(ChaosEvent::Storage {
                process: p(5),
                mode: StorageFault::TornWrite,
            })
            .event(ChaosEvent::Join {
                process: p(7),
                at: Time(2_000),
            })
            .event(ChaosEvent::Leave {
                process: p(6),
                at: Time(3_000),
                graceful: true,
            });
        s.validate().unwrap();
        let parts = s.parts();
        assert_eq!(parts.crashes, vec![(p(5), Time(700))]);
        assert_eq!(parts.faults.recoveries.len(), 1);
        assert_eq!(parts.faults.partitions.len(), 1);
        assert!(!parts.storage.is_inert());
        assert_eq!(parts.membership.events().len(), 2);
        assert_eq!(s.axes().len(), 5);
        assert_eq!(s.axis_mask(), 0b11111);
        assert!(s.needs_link());
        assert!(s.needs_journal());
        assert_eq!(s.last_disturbance(), Time(4_000));
    }

    #[test]
    fn validate_cross_axis_contradictions() {
        let storage_only =
            FaultSchedule::new("ring-8", 1, Time(10_000)).event(ChaosEvent::Storage {
                process: p(2),
                mode: StorageFault::BitRot,
            });
        assert_eq!(
            storage_only.validate(),
            Err(ScheduleError::StorageFaultWithoutRestart { process: p(2) })
        );

        let crash_on_joiner = FaultSchedule::new("ring-8", 1, Time(10_000))
            .event(ChaosEvent::Join {
                process: p(3),
                at: Time(500),
            })
            .event(ChaosEvent::Crash {
                process: p(3),
                at: Time(800),
            });
        assert_eq!(
            crash_on_joiner.validate(),
            Err(ScheduleError::FaultOnChurned { process: p(3) })
        );

        let two_dials = FaultSchedule::new("ring-8", 1, Time(10_000))
            .event(ChaosEvent::Noise(ChannelNoise::inert()))
            .event(ChaosEvent::Noise(ChannelNoise::inert()));
        assert_eq!(two_dials.validate(), Err(ScheduleError::DuplicateNoise));

        let dangling_recover =
            FaultSchedule::new("ring-8", 1, Time(10_000)).event(ChaosEvent::Recover {
                process: p(1),
                at: Time(900),
                corrupt: false,
            });
        assert!(matches!(
            dangling_recover.validate(),
            Err(ScheduleError::Fault(
                FaultPlanError::RecoverBeforeCrash { .. }
            ))
        ));
    }

    #[test]
    fn run_class_round_trips() {
        for class in [
            RunClass::WaitFree,
            RunClass::ExclusionMistake,
            RunClass::Stalled,
            RunClass::NonDeterministic,
        ] {
            assert_eq!(RunClass::parse(class.as_str()), Some(class));
        }
        assert_eq!(RunClass::parse("fine"), None);
        assert!(RunClass::Stalled.is_failure());
        assert!(!RunClass::WaitFree.is_failure());
    }
}
