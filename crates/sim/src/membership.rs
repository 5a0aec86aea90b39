//! Dynamic-membership fault stream: seeded join/leave schedules.
//!
//! The paper proves its guarantees on a *fixed* conflict graph; a
//! [`MembershipPlan`] makes the graph itself part of the fault model. The
//! maximum population is fixed at construction (process ids are dense
//! indices, as everywhere in the workspace), and membership is a presence
//! bit per process: a process whose plan starts with a [`join`] is
//! *initially absent* and boots mid-run; a present process may [`leave`]
//! gracefully (it gets a final [`NodeEvent::Leave`](crate::NodeEvent::Leave)
//! to drain held resources) or crash-stop out of the system
//! ([`crash_leave`]) without any warning to itself or its neighbors.
//!
//! The paper-level "leave then rejoin" is deliberately *not* expressible as
//! same-id membership events: rejoining under the same identity is the
//! crash/recovery fault stream ([`FaultPlan`](crate::FaultPlan), PR 3),
//! while membership models rejoin-as-a-*new*-id — a leave of the old id
//! plus a join of a fresh (initially absent) id. The plan validator
//! enforces this: at most one join and one leave per process, with the join
//! first. That restriction is what makes incremental recoloring inductively
//! safe (see `ekbd_graph::membership`).
//!
//! [`join`]: MembershipPlan::join
//! [`leave`]: MembershipPlan::leave
//! [`crash_leave`]: MembershipPlan::crash_leave

use crate::time::Time;
use crate::ProcessId;
use std::fmt;

/// One scheduled membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// An initially-absent process boots and joins the system.
    Join {
        /// The joining process.
        process: ProcessId,
        /// When the join fires.
        at: Time,
    },
    /// A present process leaves the system permanently.
    Leave {
        /// The departing process.
        process: ProcessId,
        /// When the leave fires.
        at: Time,
        /// Graceful leaves hand the node one final
        /// [`NodeEvent::Leave`](crate::NodeEvent::Leave) so it can drain
        /// (discharge forks, answer deferred requests); a crash-stop leave
        /// removes it with no warning at all.
        graceful: bool,
    },
}

impl MembershipEvent {
    /// The process this event targets.
    pub fn process(&self) -> ProcessId {
        match self {
            MembershipEvent::Join { process, .. } | MembershipEvent::Leave { process, .. } => {
                *process
            }
        }
    }

    /// When this event fires.
    pub fn at(&self) -> Time {
        match self {
            MembershipEvent::Join { at, .. } | MembershipEvent::Leave { at, .. } => *at,
        }
    }
}

/// Error returned by [`MembershipPlan::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipPlanError {
    /// An event targets a process outside `0..n`.
    OutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The population size.
        n: usize,
    },
    /// A process has more than one join scheduled.
    DuplicateJoin(ProcessId),
    /// A process has more than one leave scheduled.
    DuplicateLeave(ProcessId),
    /// A process is scheduled to rejoin under the same id (leave at or
    /// before its join): same-id rejoin is the crash/recovery fault
    /// stream, not membership.
    RejoinSameId(ProcessId),
}

impl fmt::Display for MembershipPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipPlanError::OutOfRange { process, n } => {
                write!(
                    f,
                    "membership event targets {process} in a population of {n}"
                )
            }
            MembershipPlanError::DuplicateJoin(p) => write!(f, "{p} has more than one join"),
            MembershipPlanError::DuplicateLeave(p) => write!(f, "{p} has more than one leave"),
            MembershipPlanError::RejoinSameId(p) => write!(
                f,
                "{p} would rejoin under the same id; use the crash/recovery \
                 fault stream for same-id rejoin, or join as a fresh id"
            ),
        }
    }
}

impl std::error::Error for MembershipPlanError {}

/// A deterministic schedule of join/leave events for one run.
///
/// Built with chained setters:
///
/// ```
/// use ekbd_sim::{MembershipPlan, ProcessId, Time};
/// let plan = MembershipPlan::new()
///     .join(ProcessId(5), Time(400))
///     .leave(ProcessId(1), Time(900))
///     .crash_leave(ProcessId(2), Time(1500));
/// assert!(!plan.is_inert());
/// plan.validate(6).unwrap();
/// assert_eq!(plan.initially_absent(6), vec![false, false, false, false, false, true]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// The empty plan: a fixed population for the whole run.
    pub fn new() -> Self {
        MembershipPlan::default()
    }

    /// Schedules the initially-absent process `p` to join at `t`.
    pub fn join(mut self, p: ProcessId, t: Time) -> Self {
        self.events
            .push(MembershipEvent::Join { process: p, at: t });
        self
    }

    /// Schedules `p` to leave gracefully at `t`: it receives one final
    /// `Leave` event to drain held resources before going silent.
    pub fn leave(mut self, p: ProcessId, t: Time) -> Self {
        self.events.push(MembershipEvent::Leave {
            process: p,
            at: t,
            graceful: true,
        });
        self
    }

    /// Schedules `p` to crash-stop out of the system at `t`: no drain, no
    /// warning — survivors must reclaim anything it held via the audit
    /// path.
    pub fn crash_leave(mut self, p: ProcessId, t: Time) -> Self {
        self.events.push(MembershipEvent::Leave {
            process: p,
            at: t,
            graceful: false,
        });
        self
    }

    /// Convenience for "leave-then-rejoin-as-a-new-id": `old` crash-stops
    /// at `t` and the fresh (initially absent) id `new` joins in its place
    /// at the same instant.
    pub fn replace(self, old: ProcessId, new: ProcessId, t: Time) -> Self {
        self.crash_leave(old, t).join(new, t)
    }

    /// Generates a seeded churn schedule over a population of `n`:
    /// roughly one membership event every `period` ticks until `horizon`,
    /// alternating joins of initially-absent processes with (mixed
    /// graceful/crash-stop) leaves of initially-present ones. About a
    /// quarter of the population churns in each direction; the rest is
    /// continuously present. Fully deterministic per `seed`.
    pub fn seeded_churn(n: usize, period: u64, horizon: Time, seed: u64) -> Self {
        let mut plan = MembershipPlan::new();
        if n < 4 || period == 0 {
            return plan;
        }
        let mut z = seed ^ 0xc84b_7a1e_55d1_9c3d;
        let mut next = move || ekbd_graph::random::splitmix64(&mut z);
        // Deterministic shuffle; the first quarter joins, the second leaves.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        let quarter = (n / 4).max(1);
        let joiners = &ids[..quarter];
        let leavers = &ids[quarter..2 * quarter];
        let (mut ji, mut li) = (0, 0);
        let mut t = period;
        let mut join_turn = true;
        while t < horizon.ticks() && (ji < joiners.len() || li < leavers.len()) {
            if join_turn && ji < joiners.len() {
                plan = plan.join(ProcessId::from(joiners[ji]), Time(t));
                ji += 1;
            } else if li < leavers.len() {
                let p = ProcessId::from(leavers[li]);
                li += 1;
                plan = if next() & 1 == 0 {
                    plan.leave(p, Time(t))
                } else {
                    plan.crash_leave(p, Time(t))
                };
            } else if ji < joiners.len() {
                plan = plan.join(ProcessId::from(joiners[ji]), Time(t));
                ji += 1;
            }
            join_turn = !join_turn;
            t += period + next() % (period / 2 + 1);
        }
        plan
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Whether this plan changes membership at all.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
    }

    /// Presence flags at time zero for a population of `n`: a process is
    /// initially absent iff it has a join scheduled (validation guarantees
    /// a join precedes any leave of the same process).
    pub fn initially_absent(&self, n: usize) -> Vec<bool> {
        let mut absent = vec![false; n];
        for ev in &self.events {
            if let MembershipEvent::Join { process, .. } = ev {
                if process.index() < n {
                    absent[process.index()] = true;
                }
            }
        }
        absent
    }

    /// The join time of `p`, if it has one scheduled.
    pub fn join_time(&self, p: ProcessId) -> Option<Time> {
        self.events.iter().find_map(|ev| match ev {
            MembershipEvent::Join { process, at } if *process == p => Some(*at),
            _ => None,
        })
    }

    /// The departure time of `p` (graceful or crash-stop), if scheduled.
    pub fn departure_time(&self, p: ProcessId) -> Option<Time> {
        self.events.iter().find_map(|ev| match ev {
            MembershipEvent::Leave { process, at, .. } if *process == p => Some(*at),
            _ => None,
        })
    }

    /// Processes (of a population of `n`) with no membership event at all —
    /// present from time zero to the horizon. The E17 churn gate checks
    /// post-convergence exclusion and wait-freedom for exactly this set.
    pub fn continuously_present(&self, n: usize) -> Vec<ProcessId> {
        (0..n)
            .map(ProcessId::from)
            .filter(|p| self.join_time(*p).is_none() && self.departure_time(*p).is_none())
            .collect()
    }

    /// The time of the last scheduled membership change, if any.
    pub fn last_change(&self) -> Option<Time> {
        self.events.iter().map(MembershipEvent::at).max()
    }

    /// Checks the plan against a population of `n`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range targets, multiple joins or leaves of one
    /// process, and same-id rejoin shapes (a leave at or before a join of
    /// the same process).
    pub fn validate(&self, n: usize) -> Result<(), MembershipPlanError> {
        let mut joins: Vec<Option<Time>> = vec![None; n];
        let mut leaves: Vec<Option<Time>> = vec![None; n];
        for ev in &self.events {
            let p = ev.process();
            if p.index() >= n {
                return Err(MembershipPlanError::OutOfRange { process: p, n });
            }
            match ev {
                MembershipEvent::Join { at, .. } => {
                    if joins[p.index()].replace(*at).is_some() {
                        return Err(MembershipPlanError::DuplicateJoin(p));
                    }
                }
                MembershipEvent::Leave { at, .. } => {
                    if leaves[p.index()].replace(*at).is_some() {
                        return Err(MembershipPlanError::DuplicateLeave(p));
                    }
                }
            }
        }
        for i in 0..n {
            if let (Some(j), Some(l)) = (joins[i], leaves[i]) {
                if l <= j {
                    return Err(MembershipPlanError::RejoinSameId(ProcessId::from(i)));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn empty_plan_is_inert_and_valid() {
        let plan = MembershipPlan::new();
        assert!(plan.is_inert());
        plan.validate(5).unwrap();
        assert_eq!(plan.initially_absent(3), vec![false; 3]);
        assert_eq!(plan.last_change(), None);
        assert_eq!(plan.continuously_present(3), vec![p(0), p(1), p(2)]);
    }

    #[test]
    fn builders_and_queries() {
        let plan = MembershipPlan::new()
            .join(p(4), Time(100))
            .leave(p(1), Time(300))
            .crash_leave(p(2), Time(500));
        plan.validate(5).unwrap();
        assert!(!plan.is_inert());
        assert_eq!(plan.join_time(p(4)), Some(Time(100)));
        assert_eq!(plan.departure_time(p(1)), Some(Time(300)));
        assert_eq!(plan.departure_time(p(2)), Some(Time(500)));
        assert_eq!(plan.last_change(), Some(Time(500)));
        assert_eq!(
            plan.initially_absent(5),
            vec![false, false, false, false, true]
        );
        assert_eq!(plan.continuously_present(5), vec![p(0), p(3)]);
        let graceful: Vec<bool> = plan
            .events()
            .iter()
            .filter_map(|ev| match ev {
                MembershipEvent::Leave { graceful, .. } => Some(*graceful),
                _ => None,
            })
            .collect();
        assert_eq!(graceful, vec![true, false]);
    }

    #[test]
    fn replace_is_leave_plus_fresh_join() {
        let plan = MembershipPlan::new().replace(p(0), p(3), Time(200));
        plan.validate(4).unwrap();
        assert_eq!(plan.departure_time(p(0)), Some(Time(200)));
        assert_eq!(plan.join_time(p(3)), Some(Time(200)));
        assert_eq!(plan.initially_absent(4), vec![false, false, false, true]);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert_eq!(
            MembershipPlan::new().join(p(7), Time(1)).validate(5),
            Err(MembershipPlanError::OutOfRange {
                process: p(7),
                n: 5
            })
        );
        assert_eq!(
            MembershipPlan::new()
                .join(p(1), Time(1))
                .join(p(1), Time(9))
                .validate(5),
            Err(MembershipPlanError::DuplicateJoin(p(1)))
        );
        assert_eq!(
            MembershipPlan::new()
                .leave(p(1), Time(1))
                .crash_leave(p(1), Time(9))
                .validate(5),
            Err(MembershipPlanError::DuplicateLeave(p(1)))
        );
        // Leave-then-join of one id is same-id rejoin: rejected.
        assert_eq!(
            MembershipPlan::new()
                .leave(p(2), Time(10))
                .join(p(2), Time(50))
                .validate(5),
            Err(MembershipPlanError::RejoinSameId(p(2)))
        );
        // Join-then-leave is fine: a process that visits and departs.
        MembershipPlan::new()
            .join(p(2), Time(10))
            .leave(p(2), Time(50))
            .validate(5)
            .unwrap();
    }

    #[test]
    fn seeded_churn_is_deterministic_valid_and_paced() {
        let a = MembershipPlan::seeded_churn(12, 50, Time(2_000), 42);
        let b = MembershipPlan::seeded_churn(12, 50, Time(2_000), 42);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(
            a,
            MembershipPlan::seeded_churn(12, 50, Time(2_000), 43),
            "different seeds should differ"
        );
        a.validate(12).unwrap();
        assert!(!a.is_inert());
        // Both directions of churn are present.
        assert!(a
            .events()
            .iter()
            .any(|e| matches!(e, MembershipEvent::Join { .. })));
        assert!(a
            .events()
            .iter()
            .any(|e| matches!(e, MembershipEvent::Leave { .. })));
        // Events are spaced at least `period` apart.
        let times: Vec<u64> = a.events().iter().map(|e| e.at().ticks()).collect();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 50, "events too dense: {times:?}");
        }
        // A majority core never churns.
        assert!(a.continuously_present(12).len() >= 6);
    }

    #[test]
    fn seeded_churn_degenerate_populations() {
        assert!(MembershipPlan::seeded_churn(3, 50, Time(1_000), 1).is_inert());
        assert!(MembershipPlan::seeded_churn(8, 0, Time(1_000), 1).is_inert());
        assert!(MembershipPlan::seeded_churn(8, 50, Time(0), 1).is_inert());
    }
}
