use crate::host::{DinerHost, HostCmd, HostObs};
use crate::report::{ReportSink, RunReport};
use crate::scenario::Scenario;
use ekbd_dining::DiningAlgorithm;
use ekbd_graph::ProcessId;
use ekbd_sim::{Observation, Simulator, StreamSink, Time};

/// A scenario being executed step by step under external control.
///
/// [`Scenario::run_with`] drives a run to its horizon in one call; a
/// `LiveRun` instead hands control back after every simulator event, so a
/// driver can react to observations (e.g. execute a protocol step when a
/// diner starts eating) and inject workload mid-flight. This is how the
/// `ekbd-stabilize` crate schedules self-stabilizing protocols through the
/// daemon.
pub struct LiveRun<A: DiningAlgorithm> {
    scenario: Scenario,
    sim: Simulator<DinerHost<A>>,
    cursor: usize,
}

impl<A: DiningAlgorithm> LiveRun<A> {
    /// Starts a live run, built exactly as [`Scenario::run_with`] builds
    /// its run: crashes, manual hunger, the membership plan and trace
    /// recording all come from the scenario.
    pub fn new(scenario: Scenario, factory: impl FnMut(&Scenario, ProcessId) -> A) -> Self {
        let sim = scenario.simulator(factory, Vec::new());
        LiveRun {
            scenario,
            sim,
            cursor: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Whether `p` has crashed by now.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.sim.is_crashed(p)
    }

    /// The current incarnation of `p` (0 until its first restart).
    pub fn incarnation(&self, p: ProcessId) -> u64 {
        self.sim.incarnation(p)
    }

    /// The dining algorithm hosted at `p` (for invariant assertions: fork
    /// uniqueness, token placement, doorway state).
    pub fn algorithm(&self, p: ProcessId) -> &A {
        self.sim.node(p).algorithm()
    }

    /// The largest in-transit high-water mark over all channels so far.
    pub fn max_channel_high_water(&self) -> usize {
        self.sim.max_channel_high_water()
    }

    /// Processes one simulator event if any remains at or before the
    /// horizon; returns `false` when the run is over.
    pub fn step(&mut self) -> bool {
        match self.sim.peek_next_time() {
            Some(t) if t <= self.scenario.horizon => self.sim.step().is_some(),
            _ => false,
        }
    }

    /// Observations emitted since the last call.
    pub fn new_observations(&mut self) -> &[Observation<HostObs>] {
        let all = self.sim.observations();
        let fresh = &all[self.cursor.min(all.len())..];
        self.cursor = all.len();
        fresh
    }

    /// Advances the clock to `t` (clamped to the horizon), processing any
    /// events due on the way. Lets a driver reach a wall-clock point (e.g.
    /// a scheduled fault) even when the event queue has drained.
    pub fn advance_to(&mut self, t: Time) {
        self.sim.run_until(t.min(self.scenario.horizon));
    }

    /// Injects a hunger command for `p` at `t` (must be in the future).
    pub fn inject_hunger(&mut self, p: ProcessId, t: Time) {
        self.sim.schedule_external(p, t, HostCmd::BecomeHungry);
    }

    /// Drains any remaining events up to the horizon and produces the
    /// final report.
    pub fn finish(mut self) -> RunReport {
        self.sim.run_until(self.scenario.horizon);
        let mut columns = ReportSink::sized(&self.scenario);
        for o in self.sim.observations() {
            columns.record(o.time, o.process, o.obs);
        }
        RunReport::assemble(&self.scenario, &self.sim, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, Workload};
    use ekbd_dining::{DiningObs, DiningProcess, RecoverableDining};
    use ekbd_graph::topology;

    #[test]
    fn stepwise_run_matches_batch_run() {
        let scenario = Scenario::new(topology::ring(4))
            .seed(21)
            .workload(Workload {
                sessions: 4,
                think: (1, 20),
                eat: (1, 10),
            })
            .horizon(Time(20_000));
        let batch = scenario.run_algorithm1();
        let mut live = LiveRun::new(scenario, |s, p| {
            DiningProcess::from_graph(&s.graph, &s.colors, p)
        });
        let mut seen = 0;
        while live.step() {
            seen += live.new_observations().len();
        }
        let report = live.finish();
        assert_eq!(report.events, batch.events);
        assert_eq!(
            seen,
            report.events.len() + report.suspicions.len() + report.dining_sends as usize
        );
    }

    #[test]
    fn a_live_run_follows_the_membership_plan_and_records_the_trace() {
        let scenario = Scenario::new(topology::ring(5))
            .seed(8)
            .adversarial_oracle(Time(1_500), 40)
            .workload(Workload {
                sessions: 4,
                think: (1, 20),
                eat: (1, 10),
            })
            .horizon(Time(30_000))
            .membership(
                ekbd_sim::MembershipPlan::new()
                    .join(ProcessId(2), Time(400))
                    .leave(ProcessId(4), Time(900)),
            )
            .record_trace(true);
        let batch = scenario.run_recoverable();
        let mut live = LiveRun::new(scenario, |s, p| {
            RecoverableDining::from_graph(&s.graph, &s.colors, p).with_strikes(s.audit_strikes)
        });
        while live.step() {}
        let report = live.finish();
        assert!(!batch.kernel_trace.is_empty(), "trace recording must be on");
        assert_eq!(report.incarnations, batch.incarnations);
        assert_eq!(report.incarnations[2], 1, "the joiner booted");
        assert_eq!(report.events, batch.events);
        assert_eq!(report.suspicions, batch.suspicions);
        assert_eq!(report.dining_sends, batch.dining_sends);
        assert_eq!(report.dining_sends_to_cut, batch.dining_sends_to_cut);
        assert_eq!(report.kernel_trace, batch.kernel_trace);
    }

    #[test]
    fn injected_hunger_produces_a_session() {
        let scenario = Scenario::new(topology::path(2))
            .seed(1)
            .workload(Workload {
                sessions: 0,
                think: (1, 1),
                eat: (5, 5),
            })
            .horizon(Time(5_000));
        let mut live = LiveRun::new(scenario, |s, p| {
            DiningProcess::from_graph(&s.graph, &s.colors, p)
        });
        live.inject_hunger(ekbd_graph::ProcessId(0), Time(10));
        while live.step() {}
        let report = live.finish();
        assert_eq!(report.total_eat_sessions(), 1);
        assert!(report
            .events
            .iter()
            .any(|e| e.obs == DiningObs::StartedEating));
    }
}
