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
//! plus a join of a fresh (initially absent) id. A plan therefore holds at
//! most one join and one leave per process, with the join first: the chaos
//! engine's `FaultSchedule::compile` refuses any other shape before a run,
//! and so does the harness's online recolouring. That restriction is what
//! makes incremental recoloring inductively safe (see
//! `ekbd_graph::membership`).
//!
//! [`join`]: MembershipPlan::join
//! [`leave`]: MembershipPlan::leave
//! [`crash_leave`]: MembershipPlan::crash_leave

use crate::time::Time;
use crate::ProcessId;

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
    /// initially absent iff it has a join scheduled (in a legal plan a join
    /// precedes any leave of the same process).
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

    /// The time of the last scheduled membership change, if any.
    pub fn last_change(&self) -> Option<Time> {
        self.events.iter().map(MembershipEvent::at).max()
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
        let plan = MembershipPlan::new();
        assert!(plan.is_inert());
        assert_eq!(plan.initially_absent(3), vec![false; 3]);
        assert_eq!(plan.last_change(), None);
    }

    #[test]
    fn builders_and_queries() {
        let plan = MembershipPlan::new()
            .join(p(4), Time(100))
            .leave(p(1), Time(300))
            .crash_leave(p(2), Time(500));
        assert!(!plan.is_inert());
        assert_eq!(plan.join_time(p(4)), Some(Time(100)));
        assert_eq!(plan.departure_time(p(1)), Some(Time(300)));
        assert_eq!(plan.departure_time(p(2)), Some(Time(500)));
        assert_eq!(plan.last_change(), Some(Time(500)));
        assert_eq!(
            plan.initially_absent(5),
            vec![false, false, false, false, true]
        );
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
        assert_eq!(plan.departure_time(p(0)), Some(Time(200)));
        assert_eq!(plan.join_time(p(3)), Some(Time(200)));
        assert_eq!(plan.initially_absent(4), vec![false, false, false, true]);
    }

    #[test]
    fn seeded_churn_is_deterministic_and_paced() {
        let a = MembershipPlan::seeded_churn(12, 50, Time(2_000), 42);
        let b = MembershipPlan::seeded_churn(12, 50, Time(2_000), 42);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(
            a,
            MembershipPlan::seeded_churn(12, 50, Time(2_000), 43),
            "different seeds should differ"
        );
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
        let steady = (0..12)
            .filter(|&i| a.join_time(p(i)).is_none() && a.departure_time(p(i)).is_none())
            .count();
        assert!(steady >= 6);
    }

    #[test]
    fn seeded_churn_degenerate_populations() {
        assert!(MembershipPlan::seeded_churn(3, 50, Time(1_000), 1).is_inert());
        assert!(MembershipPlan::seeded_churn(8, 0, Time(1_000), 1).is_inert());
        assert!(MembershipPlan::seeded_churn(8, 50, Time(0), 1).is_inert());
    }
}
