//! Streaming scenario metrics: the scale tier's O(processes)-memory
//! counterpart to [`RunReport`](crate::RunReport).
//!
//! The dense pipeline keeps every scheduling event, suspicion and dining
//! send in the report's columns and analyzes afterwards — perfect for the
//! paper-scale experiments, hopeless at 10⁵ processes where the event
//! stream dwarfs memory. Here the run's simulator owns a different sink:
//! an aggregator that consumes the same [`HostObs`] stream *online*
//! through [`StreamSink`] and keeps only aggregates:
//!
//! * hungry→eat latencies in a [`LatencyHistogram`] (exact nearest-rank
//!   quantiles below the fine-bin cap, log₂ bins above);
//! * scheduling mistakes counted pairwise online: when `p` starts eating,
//!   every neighbor currently eating (and still live) is one overlapping
//!   interval pair — the count matches
//!   [`ExclusionReport::total`](ekbd_metrics::ExclusionReport::total)
//!   exactly, because two eating intervals overlap iff the later one opens
//!   while the earlier is still open;
//! * detector convergence from the *last* suspicion verdict per
//!   (observer, target) pair, by the rule
//!   [`detector_convergence`](crate::RunReport::detector_convergence)
//!   applies to the same verdicts;
//! * per-process completed-session counts, starvation witnesses, and a
//!   seeded reservoir of session excerpts for spot-checking.
//!
//! Intra-tick ordering is the one subtlety: interval analyses treat
//! touching intervals (`q` stops at the instant `p` starts) as disjoint,
//! so the aggregator buffers each tick's transitions and applies stops
//! before starts. Everything else is order-insensitive within a tick.
//!
//! Streaming runs are restricted to the crash-stop fault model (no
//! recoveries, corruptions, or membership changes): those make the dense
//! pipeline rewrite history ([`sanitize_interrupted`] trims a crashed
//! life's open intervals), which an online aggregator cannot do. Under
//! crash-stop the sanitizer is a no-op and the two pipelines agree.
//!
//! [`sanitize_interrupted`]: crate::RunReport::events

use crate::host::HostObs;
use crate::report::{cut_time, detector_convergence, LastVerdicts};
use crate::scenario::Scenario;
use ekbd_dining::{DiningObs, DiningProcess};
use ekbd_graph::{ConflictGraph, ProcessId};
use ekbd_sim::{EatExcerpt, LatencyHistogram, Reservoir, StreamSink, Time};

/// Excerpts kept per run (deterministic reservoir sample).
const EXCERPT_CAP: usize = 16;

/// Aggregated results of a streaming run — the headline numbers of a
/// [`RunReport`](crate::RunReport) without the raw material.
#[derive(Clone, Debug)]
pub struct StreamingRunReport {
    /// Process count.
    pub n: usize,
    /// The run horizon.
    pub horizon: Time,
    /// Scheduling mistakes: overlapping live-neighbor eating-interval
    /// pairs, as [`ExclusionReport::total`](ekbd_metrics::ExclusionReport::total)
    /// counts them.
    pub mistakes: u64,
    /// Hungry→eat latency distribution over completed sessions.
    pub latency: LatencyHistogram,
    /// Completed hungry sessions per process.
    pub eats: Vec<u32>,
    /// Correct processes with an unfinished hungry session at the horizon.
    pub starving: Vec<ProcessId>,
    /// Measured ◇P₁ convergence time (see
    /// [`detector_convergence`](crate::RunReport::detector_convergence)).
    pub convergence: Time,
    /// Dining-layer messages sent (all processes).
    pub dining_sends: u64,
    /// Deterministically sampled session excerpts.
    pub excerpts: Vec<EatExcerpt>,
}

impl StreamingRunReport {
    /// Whether every correct hungry process was scheduled (Theorem 2).
    pub fn wait_free(&self) -> bool {
        self.starving.is_empty()
    }

    /// Total completed eat-slots across all processes.
    pub fn total_sessions(&self) -> u64 {
        self.eats.iter().map(|&e| e as u64).sum()
    }
}

/// The live aggregator behind a streaming run: the sink its simulator
/// owns. Owns O(n + edges) state: per-process open-interval markers plus
/// one last-verdict entry per reporting (observer, target) pair.
struct StreamingReport {
    graph: ConflictGraph,
    horizon: Time,
    /// Per-process permanent-crash instant, by the dense report's
    /// [`cut_time`](crate::RunReport::cut_time) rule.
    cut: Vec<Option<Time>>,
    crashes: Vec<(ProcessId, Time)>,
    // Current tick and its buffered eating transitions.
    cur: Time,
    tick_stops: Vec<ProcessId>,
    tick_hungry: Vec<ProcessId>,
    tick_starts: Vec<ProcessId>,
    // Open intervals.
    hungry_since: Vec<Option<Time>>,
    eating_since: Vec<Option<Time>>,
    // Aggregates.
    eats: Vec<u32>,
    mistakes: u64,
    latency: LatencyHistogram,
    excerpts: Reservoir<EatExcerpt>,
    last_verdict: LastVerdicts,
    dining_sends: u64,
}

impl StreamingReport {
    fn new(scenario: &Scenario) -> Self {
        let n = scenario.graph.len();
        // Crash-stop: no recoveries and no departures (checked by the run).
        let cut = (0..n)
            .map(|i| {
                cut_time(
                    ProcessId::from(i),
                    scenario.horizon,
                    &scenario.crashes,
                    &[],
                    &[],
                )
            })
            .collect();
        StreamingReport {
            graph: scenario.graph.clone(),
            horizon: scenario.horizon,
            cut,
            crashes: scenario.crashes.clone(),
            cur: Time::ZERO,
            tick_stops: Vec::new(),
            tick_hungry: Vec::new(),
            tick_starts: Vec::new(),
            hungry_since: vec![None; n],
            eating_since: vec![None; n],
            eats: vec![0; n],
            mistakes: 0,
            latency: LatencyHistogram::new(),
            excerpts: Reservoir::new(scenario.seed ^ 0x0b5e_ec5e, EXCERPT_CAP),
            last_verdict: LastVerdicts::new(),
            dining_sends: 0,
        }
    }

    fn is_correct(&self, p: ProcessId) -> bool {
        self.cut[p.index()].is_none()
    }

    /// Applies the buffered tick: stops close intervals before hungers
    /// open sessions and starts open intervals, reproducing the half-open
    /// interval arithmetic of the dense analyses.
    fn flush(&mut self) {
        let t = self.cur;
        for p in std::mem::take(&mut self.tick_stops) {
            self.eating_since[p.index()] = None;
        }
        for p in std::mem::take(&mut self.tick_hungry) {
            debug_assert!(self.hungry_since[p.index()].is_none(), "nested hungry");
            self.hungry_since[p.index()] = Some(t);
        }
        for p in std::mem::take(&mut self.tick_starts) {
            let i = p.index();
            if let Some(h) = self.hungry_since[i].take() {
                let lat = t.since(h);
                self.latency.record(lat);
                self.eats[i] += 1;
                let key = t.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                self.excerpts.offer(
                    key,
                    EatExcerpt {
                        tick: t.0,
                        process: i as u32,
                        latency: lat,
                    },
                );
            }
            // p's eating interval [t, end) is non-empty iff t < horizon (a
            // live process cannot observe past its own cut). Each neighbor
            // still eating — and not already cut down — contributes one
            // overlapping interval pair; the pair where the neighbor starts
            // later is counted at *that* start, so each pair counts once.
            if t < self.horizon {
                for &q in self.graph.neighbors(p) {
                    if self.eating_since[q.index()].is_some()
                        && self.cut[q.index()].is_none_or(|c| t < c)
                    {
                        self.mistakes += 1;
                    }
                }
            }
            self.eating_since[i] = Some(t);
        }
    }

    fn finish(mut self) -> StreamingRunReport {
        self.flush();
        let starving = (0..self.graph.len())
            .map(ProcessId::from)
            .filter(|&p| self.hungry_since[p.index()].is_some() && self.is_correct(p))
            .collect();
        let convergence = detector_convergence(
            &self.graph,
            self.horizon,
            &self.crashes,
            &self.last_verdict,
            |p| self.is_correct(p),
        );
        StreamingRunReport {
            n: self.graph.len(),
            horizon: self.horizon,
            mistakes: self.mistakes,
            latency: self.latency,
            eats: self.eats,
            starving,
            convergence,
            dining_sends: self.dining_sends,
            excerpts: self.excerpts.items().cloned().collect(),
        }
    }
}

impl StreamSink<HostObs> for StreamingReport {
    fn record(&mut self, time: Time, process: ProcessId, obs: HostObs) {
        if time > self.cur {
            self.flush();
            self.cur = time;
        }
        match obs {
            HostObs::Sched(DiningObs::BecameHungry) => self.tick_hungry.push(process),
            HostObs::Sched(DiningObs::StartedEating) => self.tick_starts.push(process),
            HostObs::Sched(DiningObs::StoppedEating) => self.tick_stops.push(process),
            HostObs::Sched(_) => {}
            HostObs::Suspect { target } => {
                self.last_verdict.insert((process, target), (time, true));
            }
            HostObs::Unsuspect { target } => {
                self.last_verdict.insert((process, target), (time, false));
            }
            HostObs::DiningSend { .. } => self.dining_sends += 1,
        }
    }
}

impl Scenario {
    /// Runs the scenario with Algorithm 1 under streaming observation: no
    /// dense event log is kept, memory stays O(processes + edges), and the
    /// result carries the aggregate metrics only. On any crash-stop
    /// scenario this produces *exactly* the dense pipeline's latency
    /// quantiles, mistake count, and convergence time (gated by
    /// `tests/streaming_obs.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the scenario schedules recoveries, corruptions, or
    /// membership changes — those need the dense pipeline's post-hoc event
    /// sanitization.
    pub fn run_algorithm1_streaming(&self) -> StreamingRunReport {
        assert!(
            self.recoveries().is_empty() && self.corruptions().is_empty(),
            "streaming runs are crash-stop only (recovery rewrites history)"
        );
        assert!(
            self.membership.is_inert(),
            "streaming runs require a fixed population"
        );
        let mut sim = self.simulator(
            |s, p| DiningProcess::from_graph(&s.graph, &s.colors, p),
            StreamingReport::new(self),
        );
        sim.run_until(self.horizon);
        sim.into_sink().finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use ekbd_graph::topology;

    #[test]
    fn streaming_counts_sessions_on_a_ring() {
        let r = Scenario::new(topology::ring(6))
            .seed(3)
            .horizon(Time(50_000))
            .run_algorithm1_streaming();
        assert!(r.wait_free());
        assert_eq!(r.mistakes, 0, "fault-free run must be mistake-free");
        assert_eq!(r.total_sessions(), 6 * 5);
        assert_eq!(r.latency.count(), 30);
        assert!(!r.excerpts.is_empty());
        assert!(r.dining_sends > 0);
    }

    #[test]
    fn streaming_matches_dense_latency_count() {
        let s = Scenario::new(topology::grid(3, 3))
            .seed(9)
            .workload(Workload {
                sessions: 4,
                think: (1, 30),
                eat: (1, 10),
            })
            .horizon(Time(50_000));
        let dense = s.run_algorithm1();
        let streaming = s.run_algorithm1_streaming();
        let p = dense.progress();
        assert_eq!(streaming.total_sessions(), p.total_sessions() as u64);
        let summary = p.latency_summary();
        assert_eq!(streaming.latency.quantile(0.5), summary.p50);
        assert_eq!(streaming.latency.max(), summary.max);
    }

    #[test]
    #[should_panic(expected = "crash-stop only")]
    fn recovery_scenarios_are_rejected() {
        let s = Scenario::new(topology::ring(4))
            .crash(ProcessId(0), Time(100))
            .recover(ProcessId(0), Time(500));
        let _ = s.run_algorithm1_streaming();
    }
}
