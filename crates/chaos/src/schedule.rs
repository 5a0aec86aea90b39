//! The unified fault schedule: one serializable description composing
//! every fault axis the workspace knows how to inject.
//!
//! A [`FaultSchedule`] is a flat, ordered list of [`ChaosEvent`]s plus a
//! topology spec, a seed, and a horizon. Flatness is the point: the
//! delta-debugging shrinker (see [`crate::shrink`]) works by *dropping
//! events*, so every independently-removable disturbance must be its own
//! event. [`FaultSchedule::compile`] checks every legality rule of the
//! composition once, on that flat list, and compiles it down to the
//! per-axis plans the simulator already understands — [`FaultPlan`], a
//! crash list, [`StorageFaultPlan`], and [`MembershipPlan`].

use ekbd_graph::{topology, ConflictGraph};
use ekbd_journal::{StorageFault, StorageFaultPlan};
use ekbd_sim::{FaultPlan, MembershipPlan, ProcessId, Time};
use std::collections::BTreeMap;
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

/// Why a schedule is rejected before it ever runs: one variant per
/// legality rule of a composed schedule, each checked once by
/// [`FaultSchedule::compile`], plus the ways reading one can fail.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// More than one global channel-noise dial.
    DuplicateNoise,
    /// A partition whose heal instant is not after its start.
    PartitionNeverHeals {
        /// Index of the partition among the schedule's partitions.
        index: usize,
    },
    /// A channel-noise probability outside `[0, 1]`.
    BadProbability {
        /// Which dial is out of range (`loss`, `dup`, `reorder`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An event targets a process outside `0..n`.
    OutOfRange {
        /// The axis of the offending event: [`Axis::Crash`],
        /// [`Axis::Partition`] or [`Axis::Churn`].
        axis: Axis,
        /// The offending process.
        process: ProcessId,
        /// The population size.
        n: usize,
    },
    /// A partition with an empty side cuts nothing.
    EmptyPartitionSide {
        /// Index of the partition among the schedule's partitions.
        index: usize,
    },
    /// Two partitions are active at once and cut at least one common
    /// edge: healing one cut would not restore the edge, so heal-time
    /// reasoning per edge becomes ambiguous.
    OverlappingPartitions {
        /// Index of the earlier partition.
        first: usize,
        /// Index of the later, conflicting partition.
        second: usize,
    },
    /// A recovery with no crash of the same process strictly before it
    /// that an earlier recovery has not already used: the simulator would
    /// drop it, since it never restarts a live process.
    RecoverBeforeCrash {
        /// The process whose recovery dangles.
        process: ProcessId,
        /// When the dangling recovery fires.
        at: Time,
    },
    /// A process joins more than once.
    DuplicateJoin {
        /// The process.
        process: ProcessId,
    },
    /// A process leaves more than once.
    DuplicateLeave {
        /// The process.
        process: ProcessId,
    },
    /// A process leaves at or before its join, so it would rejoin under
    /// the same id: that is the crash/recovery axis, not membership.
    RejoinSameId {
        /// The process.
        process: ProcessId,
    },
    /// A crash/recover/corrupt event targets a process that joins late
    /// or leaves, where the two axes' semantics collide.
    FaultOnChurned {
        /// The doubly-targeted process.
        process: ProcessId,
    },
    /// A storage fault targets a process that never restarts, so the
    /// damage could never be observed.
    StorageFaultWithoutRestart {
        /// The process with damaged storage.
        process: ProcessId,
    },
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
            ScheduleError::DuplicateNoise => {
                write!(f, "more than one channel-noise dial in one schedule")
            }
            ScheduleError::PartitionNeverHeals { index } => {
                write!(f, "partition #{index} does not heal after it starts")
            }
            ScheduleError::BadProbability { what, value } => {
                write!(f, "{what} probability {value} is outside [0, 1]")
            }
            ScheduleError::OutOfRange { axis, process, n } => write!(
                f,
                "{} event targets {process} in a population of {n}",
                axis.name()
            ),
            ScheduleError::EmptyPartitionSide { index } => {
                write!(f, "partition #{index} has an empty side and cuts nothing")
            }
            ScheduleError::OverlappingPartitions { first, second } => write!(
                f,
                "partitions #{first} and #{second} are active at once and cut a common edge"
            ),
            ScheduleError::RecoverBeforeCrash { process, at } => write!(
                f,
                "recovery of {process} at {at} has no crash before it to recover from"
            ),
            ScheduleError::DuplicateJoin { process } => {
                write!(f, "{process} has more than one join")
            }
            ScheduleError::DuplicateLeave { process } => {
                write!(f, "{process} has more than one leave")
            }
            ScheduleError::RejoinSameId { process } => write!(
                f,
                "{process} would rejoin under the same id; use the crash/recovery \
                 fault stream for same-id rejoin, or join as a fresh id"
            ),
            ScheduleError::FaultOnChurned { process } => write!(
                f,
                "crash-axis event targets churned (joining/leaving) process {process}"
            ),
            ScheduleError::StorageFaultWithoutRestart { process } => write!(
                f,
                "storage fault for process {process} which never restarts"
            ),
            ScheduleError::BadTopology { spec } => write!(f, "unknown topology spec `{spec}`"),
            ScheduleError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ScheduleError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The per-axis plans a schedule compiles down to, in exactly the form
/// `ekbd-harness`'s `Scenario` consumes them. Only
/// [`FaultSchedule::compile`] makes one, so a `ScheduleParts` always
/// holds a legal composition.
#[derive(Clone, Debug, PartialEq)]
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

    /// Check every legality rule of the composition against a population
    /// of `n`, then compile the flat event list into the per-axis plans.
    ///
    /// The rules are checked once, here, on the event list and before
    /// anything is built, so the per-axis builders never see a schedule
    /// they would panic on or run as something other than it says. The
    /// first broken rule is returned, in this order:
    ///
    /// 1. at most one noise dial, and every partition heals after it
    ///    starts (in event order);
    /// 2. the noise probabilities lie in `[0, 1]`;
    /// 3. crash, recovery and corruption targets lie in `0..n`;
    /// 4. each partition's side is non-empty and lies in `0..n`;
    /// 5. partitions active at once cut no common edge;
    /// 6. the k-th recovery of a process, in time, comes strictly after
    ///    its k-th crash (processes in id order);
    /// 7. join and leave targets lie in `0..n`, with at most one join and
    ///    one leave per process (in event order);
    /// 8. a process that joins and leaves leaves after it joins;
    /// 9. crash-axis events target processes that never join or leave,
    ///    and storage damage a process that restarts (in event order).
    pub fn compile(&self, n: usize) -> Result<ScheduleParts, ScheduleError> {
        self.check(n)?;
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
        Ok(ScheduleParts {
            faults,
            crashes,
            storage,
            membership,
        })
    }

    /// The legality rules of [`Self::compile`], in its order.
    fn check(&self, n: usize) -> Result<(), ScheduleError> {
        let in_range = |axis, process: ProcessId| {
            if process.index() < n {
                Ok(())
            } else {
                Err(ScheduleError::OutOfRange { axis, process, n })
            }
        };

        let mut noise = None;
        let mut partitions: Vec<(&[ProcessId], Time, Time)> = Vec::new();
        for ev in &self.events {
            match ev {
                ChaosEvent::Noise(_) if noise.is_some() => {
                    return Err(ScheduleError::DuplicateNoise);
                }
                ChaosEvent::Noise(dial) => noise = Some(dial),
                ChaosEvent::Partition { side, start, heal } => {
                    if heal <= start {
                        return Err(ScheduleError::PartitionNeverHeals {
                            index: partitions.len(),
                        });
                    }
                    partitions.push((side, *start, *heal));
                }
                _ => {}
            }
        }
        if let Some(dial) = noise {
            for (what, value) in [
                ("loss", dial.loss),
                ("dup", dial.dup),
                ("reorder", dial.reorder),
            ] {
                if !(0.0..=1.0).contains(&value) {
                    return Err(ScheduleError::BadProbability { what, value });
                }
            }
        }
        for ev in &self.events {
            if let ChaosEvent::Crash { process, .. }
            | ChaosEvent::Recover { process, .. }
            | ChaosEvent::Corrupt { process, .. } = ev
            {
                in_range(Axis::Crash, *process)?;
            }
        }
        for (index, (side, ..)) in partitions.iter().enumerate() {
            if side.is_empty() {
                return Err(ScheduleError::EmptyPartitionSide { index });
            }
            for &p in side.iter() {
                in_range(Axis::Partition, p)?;
            }
        }
        let cut = |side: &[ProcessId], x, y| side.contains(&x) != side.contains(&y);
        for (first, &(a, a_start, a_heal)) in partitions.iter().enumerate() {
            for (second, &(b, b_start, b_heal)) in partitions.iter().enumerate().skip(first + 1) {
                let at_once = a_start < b_heal && b_start < a_heal;
                if at_once
                    && (0..n).any(|x| {
                        (x + 1..n).any(|y| {
                            let (x, y) = (ProcessId::from(x), ProcessId::from(y));
                            cut(a, x, y) && cut(b, x, y)
                        })
                    })
                {
                    return Err(ScheduleError::OverlappingPartitions { first, second });
                }
            }
        }
        // Each recovery needs its own crash strictly before it: the k-th
        // recovery of a process, in time, pairs with its k-th crash.
        let mut lives: BTreeMap<ProcessId, (Vec<Time>, Vec<Time>)> = BTreeMap::new();
        for ev in &self.events {
            match ev {
                ChaosEvent::Crash { process, at } => lives.entry(*process).or_default().0.push(*at),
                ChaosEvent::Recover { process, at, .. } => {
                    lives.entry(*process).or_default().1.push(*at);
                }
                _ => {}
            }
        }
        for (process, (mut crashes, mut recoveries)) in lives {
            crashes.sort_unstable();
            recoveries.sort_unstable();
            for (k, &at) in recoveries.iter().enumerate() {
                if crashes.get(k).is_none_or(|&c| c >= at) {
                    return Err(ScheduleError::RecoverBeforeCrash { process, at });
                }
            }
        }

        let (mut joins, mut leaves) = (vec![None; n], vec![None; n]);
        for ev in &self.events {
            let (process, at, seen, twice) = match ev {
                ChaosEvent::Join { process, at } => (
                    *process,
                    *at,
                    &mut joins,
                    ScheduleError::DuplicateJoin { process: *process },
                ),
                ChaosEvent::Leave { process, at, .. } => (
                    *process,
                    *at,
                    &mut leaves,
                    ScheduleError::DuplicateLeave { process: *process },
                ),
                _ => continue,
            };
            in_range(Axis::Churn, process)?;
            if seen[process.index()].replace(at).is_some() {
                return Err(twice);
            }
        }
        let rejoin = |i: usize| matches!((joins[i], leaves[i]), (Some(j), Some(l)) if l <= j);
        if let Some(i) = (0..n).find(|&i| rejoin(i)) {
            return Err(ScheduleError::RejoinSameId {
                process: ProcessId::from(i),
            });
        }

        let churned = |p: ProcessId| joins[p.index()].is_some() || leaves[p.index()].is_some();
        for ev in &self.events {
            match ev {
                ChaosEvent::Crash { process, .. }
                | ChaosEvent::Recover { process, .. }
                | ChaosEvent::Corrupt { process, .. }
                    if churned(*process) =>
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

    /// Reject contradictory schedules with a distinct error per
    /// contradiction, instead of letting the simulator misbehave
    /// silently: the topology spec, then every rule of [`Self::compile`]
    /// on the graph it names.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        self.compile(self.build_topology()?.len()).map(drop)
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
    use ekbd_sim::MembershipEvent;

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
        let parts = s.compile(8).unwrap();
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
            Err(ScheduleError::RecoverBeforeCrash { .. })
        ));
    }

    fn ring(events: Vec<ChaosEvent>) -> FaultSchedule {
        FaultSchedule::new("ring-8", 1, Time(10_000)).with_events(events)
    }

    fn crash(i: usize, at: u64) -> ChaosEvent {
        ChaosEvent::Crash {
            process: p(i),
            at: Time(at),
        }
    }

    fn recover(i: usize, at: u64) -> ChaosEvent {
        ChaosEvent::Recover {
            process: p(i),
            at: Time(at),
            corrupt: false,
        }
    }

    fn partition(side: &[usize], start: u64, heal: u64) -> ChaosEvent {
        ChaosEvent::Partition {
            side: side.iter().map(|&i| p(i)).collect(),
            start: Time(start),
            heal: Time(heal),
        }
    }

    fn noise(loss: f64, dup: f64, reorder: f64) -> ChaosEvent {
        ChaosEvent::Noise(ChannelNoise {
            loss,
            dup,
            reorder,
            reorder_window: 8,
        })
    }

    /// The membership events of `plan` as schedule events.
    fn churn(plan: &MembershipPlan) -> Vec<ChaosEvent> {
        plan.events()
            .iter()
            .map(|ev| match *ev {
                MembershipEvent::Join { process, at } => ChaosEvent::Join { process, at },
                MembershipEvent::Leave {
                    process,
                    at,
                    graceful,
                } => ChaosEvent::Leave {
                    process,
                    at,
                    graceful,
                },
            })
            .collect()
    }

    #[test]
    fn compile_accepts_sane_compositions() {
        let sane = ring(vec![
            noise(0.1, 0.05, 0.2),
            partition(&[0], 100, 400),
            partition(&[2], 600, 900),
            crash(1, 200),
            recover(1, 500),
            ChaosEvent::Corrupt {
                process: p(3),
                at: Time(700),
            },
        ]);
        let parts = sane.compile(5).unwrap();
        assert_eq!(parts.crashes, vec![(p(1), Time(200))]);
        assert_eq!(parts.faults.default_fault.dup, 0.05);
        // Partitions active at once must not cut a common edge.
        assert_eq!(
            ring(vec![
                partition(&[0, 1], 100, 400),
                partition(&[0, 1], 200, 500)
            ])
            .compile(4),
            Err(ScheduleError::OverlappingPartitions {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn compile_rejects_recover_before_crash() {
        assert_eq!(
            ring(vec![recover(1, 500)]).compile(5),
            Err(ScheduleError::RecoverBeforeCrash {
                process: p(1),
                at: Time(500)
            })
        );
        // A recovery at the instant of the crash still dangles.
        assert!(ring(vec![crash(1, 500), recover(1, 500)])
            .compile(5)
            .is_err());
        // Two recoveries need two crashes.
        assert!(ring(vec![crash(1, 100), recover(1, 500), recover(1, 900)])
            .compile(5)
            .is_err());
        ring(vec![
            crash(1, 100),
            recover(1, 500),
            crash(1, 700),
            recover(1, 900),
        ])
        .compile(5)
        .unwrap();
    }

    #[test]
    fn compile_rejects_out_of_range_and_bad_dials() {
        assert_eq!(
            ring(vec![crash(9, 1), recover(9, 5)]).compile(4),
            Err(ScheduleError::OutOfRange {
                axis: Axis::Crash,
                process: p(9),
                n: 4
            })
        );
        assert!(ring(vec![crash(7, 1)]).compile(4).is_err());
        assert!(matches!(
            ring(vec![noise(1.5, 0.0, 0.0)]).compile(4),
            Err(ScheduleError::BadProbability { what: "loss", .. })
        ));
        assert_eq!(
            ring(vec![partition(&[], 1, 2)]).compile(4),
            Err(ScheduleError::EmptyPartitionSide { index: 0 })
        );
        assert_eq!(
            ring(vec![partition(&[0], 9, 9)]).compile(4),
            Err(ScheduleError::PartitionNeverHeals { index: 0 })
        );
    }

    #[test]
    fn compile_rejects_bad_membership_shapes() {
        let plan = |plan: MembershipPlan| ring(churn(&plan)).compile(5);
        assert_eq!(
            plan(MembershipPlan::new().join(p(7), Time(1))),
            Err(ScheduleError::OutOfRange {
                axis: Axis::Churn,
                process: p(7),
                n: 5
            })
        );
        assert_eq!(
            plan(
                MembershipPlan::new()
                    .join(p(1), Time(1))
                    .join(p(1), Time(9))
            ),
            Err(ScheduleError::DuplicateJoin { process: p(1) })
        );
        assert_eq!(
            plan(
                MembershipPlan::new()
                    .leave(p(1), Time(1))
                    .crash_leave(p(1), Time(9))
            ),
            Err(ScheduleError::DuplicateLeave { process: p(1) })
        );
        // Leave-then-join of one id is same-id rejoin: rejected.
        assert_eq!(
            plan(
                MembershipPlan::new()
                    .leave(p(2), Time(10))
                    .join(p(2), Time(50))
            ),
            Err(ScheduleError::RejoinSameId { process: p(2) })
        );
        // Join-then-leave is fine: a process that visits and departs.
        plan(
            MembershipPlan::new()
                .join(p(2), Time(10))
                .leave(p(2), Time(50)),
        )
        .unwrap();
    }

    #[test]
    fn compile_accepts_the_membership_plans_the_builders_make() {
        let compiles = |plan: MembershipPlan, n| ring(churn(&plan)).compile(n).unwrap();
        let parts = compiles(MembershipPlan::new(), 5);
        assert!(parts.membership.is_inert());
        compiles(
            MembershipPlan::new()
                .join(p(5), Time(400))
                .leave(p(1), Time(900))
                .crash_leave(p(2), Time(1500)),
            6,
        );
        compiles(
            MembershipPlan::new()
                .join(p(4), Time(100))
                .leave(p(1), Time(300))
                .crash_leave(p(2), Time(500)),
            5,
        );
        compiles(MembershipPlan::new().replace(p(0), p(3), Time(200)), 4);
        let seeded = MembershipPlan::seeded_churn(12, 50, Time(2_000), 42);
        assert_eq!(compiles(seeded.clone(), 12).membership, seeded);
    }

    #[test]
    fn schedule_errors_name_their_rule() {
        let e = ScheduleError::OverlappingPartitions {
            first: 0,
            second: 2,
        };
        assert!(e.to_string().contains("common edge"));
        assert!(ScheduleError::RecoverBeforeCrash {
            process: p(1),
            at: Time(9)
        }
        .to_string()
        .contains("no crash"));
        let out_of_range = |axis| ScheduleError::OutOfRange {
            axis,
            process: p(9),
            n: 4,
        };
        assert!(out_of_range(Axis::Churn)
            .to_string()
            .starts_with("churn event"));
        assert!(out_of_range(Axis::Crash)
            .to_string()
            .starts_with("crash event"));
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
