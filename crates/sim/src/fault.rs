//! Adversarial channel faults: probabilistic loss, duplication, bounded
//! reordering, and timed link partitions that heal.
//!
//! The paper's system model (§2) assumes reliable FIFO channels. A
//! [`FaultPlan`] deliberately breaks that assumption so the `ekbd-link`
//! recovery layer can be shown to restore it: every fault decision is drawn
//! from a dedicated RNG stream derived from the run seed, so a faulty run is
//! exactly as deterministic and replayable as a fault-free one. With the
//! default (empty) plan the network is byte-for-byte the reliable FIFO
//! fabric of the seed simulator.

use crate::time::{Duration, Time};
use crate::ProcessId;
use std::collections::HashMap;

/// Per-edge fault probabilities.
///
/// All probabilities are clamped into `[0, 1]` when sampled. The default is
/// the fault-free channel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Probability that a message is silently dropped in transit.
    pub loss: f64,
    /// Probability that a message is delivered twice (the duplicate takes an
    /// independently sampled delay).
    pub dup: f64,
    /// Probability that a message escapes the FIFO floor: its delivery time
    /// ignores previously scheduled deliveries on the ordered channel and may
    /// therefore overtake older messages.
    pub reorder: f64,
    /// Extra delay jitter (uniform in `[0, reorder_window]`) added to a
    /// reordered message, bounding how far it can fall behind.
    pub reorder_window: Duration,
}

impl LinkFault {
    /// A channel that only loses messages, with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        LinkFault {
            loss,
            ..LinkFault::default()
        }
    }

    /// Whether this fault spec can never alter a message.
    pub fn is_inert(&self) -> bool {
        self.loss <= 0.0 && self.dup <= 0.0 && self.reorder <= 0.0
    }
}

/// A timed link partition: while `start ≤ now < heal`, every message whose
/// endpoints straddle `side` vs. the rest of the system is dropped.
///
/// Partitions always heal (or the run's horizon ends first); the paper's
/// eventual properties only require that faults stop eventually.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// One side of the cut (the other side is everyone else).
    pub side: Vec<ProcessId>,
    /// First instant at which the cut drops messages.
    pub start: Time,
    /// First instant at which the cut is healed (exclusive end).
    pub heal: Time,
}

impl Partition {
    /// Whether a message sent from `from` to `to` at `now` crosses this
    /// partition while it is active.
    pub fn cuts(&self, from: ProcessId, to: ProcessId, now: Time) -> bool {
        if now < self.start || now >= self.heal {
            return false;
        }
        self.side.contains(&from) != self.side.contains(&to)
    }
}

/// A scheduled restart of a crashed process (crash-recovery fault model).
///
/// If the process is not crashed when the event fires, it is a no-op; the
/// simulator never "restarts" a live process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverySpec {
    /// The process to restart.
    pub process: ProcessId,
    /// When the restart fires.
    pub at: Time,
    /// Whether the process reboots with adversarially corrupted dining
    /// state instead of blank state.
    pub corrupt: bool,
}

/// A scheduled transient fault flipping state bits of a *live* process.
///
/// If the process is crashed when the event fires, it is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// The process whose state is corrupted.
    pub process: ProcessId,
    /// When the corruption fires.
    pub at: Time,
}

/// A deterministic, seeded schedule of channel faults for one run.
///
/// Built with chained setters:
///
/// ```
/// use ekbd_sim::{FaultPlan, LinkFault, ProcessId, Time};
/// let plan = FaultPlan::new()
///     .loss(0.10)
///     .duplication(0.02)
///     .reorder(0.05, 16)
///     .edge_fault(ProcessId(0), ProcessId(1), LinkFault::lossy(0.5))
///     .partition(vec![ProcessId(0)], Time(100), Time(400));
/// assert!(!plan.is_inert());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault spec applied to every edge without an explicit override.
    pub default_fault: LinkFault,
    /// Per-edge overrides, keyed by unordered endpoint pair.
    overrides: HashMap<(ProcessId, ProcessId), LinkFault>,
    /// Timed partitions; a message is dropped if *any* active partition cuts
    /// it.
    pub partitions: Vec<Partition>,
    /// Scheduled restarts of crashed processes.
    pub recoveries: Vec<RecoverySpec>,
    /// Scheduled transient state corruptions of live processes.
    pub corruptions: Vec<CorruptionSpec>,
}

fn unordered(a: ProcessId, b: ProcessId) -> (ProcessId, ProcessId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultPlan {
    /// The empty plan: a perfectly reliable network.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the default per-message loss probability on every edge.
    pub fn loss(mut self, p: f64) -> Self {
        self.default_fault.loss = p;
        self
    }

    /// Sets the default per-message duplication probability on every edge.
    pub fn duplication(mut self, p: f64) -> Self {
        self.default_fault.dup = p;
        self
    }

    /// Sets the default reordering probability and jitter window.
    pub fn reorder(mut self, p: f64, window: Duration) -> Self {
        self.default_fault.reorder = p;
        self.default_fault.reorder_window = window;
        self
    }

    /// Overrides the fault spec for the unordered edge `{a, b}`.
    pub fn edge_fault(mut self, a: ProcessId, b: ProcessId, fault: LinkFault) -> Self {
        self.overrides.insert(unordered(a, b), fault);
        self
    }

    /// Adds a partition isolating `side` from the rest during
    /// `[start, heal)`.
    pub fn partition(mut self, side: Vec<ProcessId>, start: Time, heal: Time) -> Self {
        assert!(start < heal, "partition must heal after it starts");
        self.partitions.push(Partition { side, start, heal });
        self
    }

    /// Schedules a restart of `p` at `t` with blank (zeroed) state.
    pub fn recover(mut self, p: ProcessId, t: Time) -> Self {
        self.recoveries.push(RecoverySpec {
            process: p,
            at: t,
            corrupt: false,
        });
        self
    }

    /// Schedules a restart of `p` at `t` with adversarially corrupted state.
    pub fn recover_corrupted(mut self, p: ProcessId, t: Time) -> Self {
        self.recoveries.push(RecoverySpec {
            process: p,
            at: t,
            corrupt: true,
        });
        self
    }

    /// Schedules a transient state corruption of the live process `p` at `t`.
    pub fn corrupt_state(mut self, p: ProcessId, t: Time) -> Self {
        self.corruptions.push(CorruptionSpec { process: p, at: t });
        self
    }

    /// The fault spec in force on the unordered edge `{a, b}`.
    pub fn fault_for(&self, a: ProcessId, b: ProcessId) -> LinkFault {
        self.overrides
            .get(&unordered(a, b))
            .copied()
            .unwrap_or(self.default_fault)
    }

    /// Whether a message from `from` to `to` sent at `now` is cut by an
    /// active partition.
    pub fn partitioned(&self, from: ProcessId, to: ProcessId, now: Time) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, now))
    }

    /// Whether this plan can never alter any message: no partitions and
    /// every reachable fault spec inert.
    pub fn is_inert(&self) -> bool {
        self.partitions.is_empty()
            && self.default_fault.is_inert()
            && self.overrides.values().all(LinkFault::is_inert)
            && self.recoveries.is_empty()
            && self.corruptions.is_empty()
    }

    /// The latest partition heal time, if any — after this instant the
    /// network is "eventually reliable" again (fault probabilities aside).
    pub fn last_heal(&self) -> Option<Time> {
        self.partitions.iter().map(|p| p.heal).max()
    }

    /// The time of the last scheduled process fault (recovery or
    /// corruption), if any — after this instant process state is only
    /// touched by the algorithm itself.
    pub fn last_process_fault(&self) -> Option<Time> {
        let r = self.recoveries.iter().map(|r| r.at).max();
        let c = self.corruptions.iter().map(|c| c.at).max();
        r.max(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_inert());
        assert!(!plan.partitioned(p(0), p(1), Time(5)));
        assert_eq!(plan.fault_for(p(0), p(1)), LinkFault::default());
        assert_eq!(plan.last_heal(), None);
    }

    #[test]
    fn edge_override_beats_default() {
        let plan = FaultPlan::new()
            .loss(0.1)
            .edge_fault(p(2), p(1), LinkFault::lossy(0.9));
        // Lookup is orientation-insensitive.
        assert_eq!(plan.fault_for(p(1), p(2)).loss, 0.9);
        assert_eq!(plan.fault_for(p(2), p(1)).loss, 0.9);
        assert_eq!(plan.fault_for(p(0), p(1)).loss, 0.1);
        assert!(!plan.is_inert());
    }

    #[test]
    fn partition_cuts_only_across_the_side_and_only_while_active() {
        let plan = FaultPlan::new().partition(vec![p(0), p(1)], Time(10), Time(20));
        // Across the cut, inside the window.
        assert!(plan.partitioned(p(0), p(2), Time(10)));
        assert!(plan.partitioned(p(2), p(1), Time(19)));
        // Within a side: never cut.
        assert!(!plan.partitioned(p(0), p(1), Time(15)));
        assert!(!plan.partitioned(p(2), p(3), Time(15)));
        // Outside the window: healed.
        assert!(!plan.partitioned(p(0), p(2), Time(9)));
        assert!(!plan.partitioned(p(0), p(2), Time(20)));
        assert_eq!(plan.last_heal(), Some(Time(20)));
    }

    #[test]
    #[should_panic(expected = "heal")]
    fn partition_must_heal_after_start() {
        let _ = FaultPlan::new().partition(vec![p(0)], Time(5), Time(5));
    }

    #[test]
    fn process_fault_schedules_are_not_inert() {
        let plan = FaultPlan::new().recover(p(1), Time(50));
        assert!(!plan.is_inert());
        assert_eq!(plan.last_process_fault(), Some(Time(50)));
        let plan = FaultPlan::new()
            .recover_corrupted(p(0), Time(40))
            .corrupt_state(p(2), Time(90));
        assert!(!plan.is_inert());
        assert_eq!(plan.last_process_fault(), Some(Time(90)));
        assert!(plan.recoveries[0].corrupt);
        assert_eq!(FaultPlan::new().last_process_fault(), None);
    }

    #[test]
    fn inert_fault_specs() {
        assert!(LinkFault::default().is_inert());
        assert!(!LinkFault::lossy(0.01).is_inert());
        let reordering = LinkFault {
            reorder: 0.5,
            reorder_window: 8,
            ..LinkFault::default()
        };
        assert!(!reordering.is_inert());
    }
}
