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
//! The run's [`Lives`], the tracker the dense report writes its column
//! through, closes interrupted lives — a crash followed by a restart, a
//! departure — so a recovery or churn run, which hosts Algorithm 1's
//! hardened variant, aggregates exactly the sessions the dense report
//! keeps. Within a tick,
//! interval analyses treat touching intervals (`q` stops at the instant
//! `p` starts) as disjoint, so a tick's starts are counted against the
//! state its close leaves. Everything else is order-insensitive within a
//! tick.

use crate::host::HostObs;
use crate::lives::Lives;
use crate::report::{departures, detector_convergence, LastVerdicts};
use crate::scenario::Scenario;
use ekbd_dining::{DiningAlgorithm, DiningObs, DiningProcess};
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
/// owns. Owns O(n + edges) state: per-process lives plus one last-verdict
/// entry per reporting (observer, target) pair.
struct StreamingReport {
    graph: ConflictGraph,
    horizon: Time,
    crashes: Vec<(ProcessId, Time)>,
    lives: Lives,
    /// The current tick and the processes that started eating in it.
    now: Time,
    tick_starts: Vec<ProcessId>,
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
        let lives = Lives::new(
            n,
            scenario.horizon,
            &scenario.crashes,
            &scenario.recoveries(),
            &departures(scenario),
        );
        StreamingReport {
            graph: scenario.graph.clone(),
            horizon: scenario.horizon,
            crashes: scenario.crashes.clone(),
            lives,
            now: Time::ZERO,
            tick_starts: Vec::new(),
            eats: vec![0; n],
            mistakes: 0,
            latency: LatencyHistogram::new(),
            excerpts: Reservoir::new(scenario.seed ^ 0x0b5e_ec5e, EXCERPT_CAP),
            last_verdict: LastVerdicts::new(),
            dining_sends: 0,
        }
    }

    /// Whether `p`'s intervals reach past `t`: it is not cut by then.
    fn live_after(&self, p: ProcessId, t: Time) -> bool {
        self.lives.cut(p).is_none_or(|c| t < c)
    }

    /// Closes the current tick and counts the overlapping eating-interval
    /// pairs its starts open. A start at `t` overlaps each live neighbor
    /// still eating when the tick closes, if its own interval is not
    /// empty; a pair that started together is seen from both ends and
    /// counted once.
    fn close_tick(&mut self) {
        let t = self.now;
        self.lives.advance(Time(t.0 + 1), &mut ());
        let mut together = 0;
        for &p in &self.tick_starts {
            if t >= self.horizon || !self.live_after(p, t) || self.lives.eating(p) != Some(t) {
                continue;
            }
            for &q in self.graph.neighbors(p) {
                match self.lives.eating(q) {
                    Some(s) if self.live_after(q, t) && s < t => self.mistakes += 1,
                    Some(s) if self.live_after(q, t) && s == t => together += 1,
                    _ => {}
                }
            }
        }
        self.mistakes += together / 2;
        self.tick_starts.clear();
    }

    fn finish(mut self) -> StreamingRunReport {
        self.close_tick();
        self.lives.finish(&mut ());
        let is_correct = |p: ProcessId| self.lives.cut(p).is_none();
        let starving = (0..self.graph.len())
            .map(ProcessId::from)
            .filter(|&p| self.lives.hungry(p) && is_correct(p))
            .collect();
        let convergence = detector_convergence(
            &self.graph,
            self.horizon,
            &self.crashes,
            &self.last_verdict,
            is_correct,
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
        if time > self.now {
            self.close_tick();
            self.now = time;
        }
        match obs {
            HostObs::Sched(obs) => {
                if let Some(h) = self.lives.observe(time, process, obs, &mut ()) {
                    let (i, lat) = (process.index(), time.since(h));
                    self.latency.record(lat);
                    self.eats[i] += 1;
                    let key = time.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                    let excerpt = EatExcerpt {
                        tick: time.0,
                        process: i as u32,
                        latency: lat,
                    };
                    self.excerpts.offer(key, excerpt);
                }
                if obs == DiningObs::StartedEating {
                    self.tick_starts.push(process);
                }
            }
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
    /// result carries the aggregate metrics only. A scenario that
    /// [`needs_recoverable`](Self::needs_recoverable) runs the hardened
    /// variant [`run_recoverable`](Self::run_recoverable) runs. Either way
    /// this produces *exactly* the dense pipeline's latency quantiles,
    /// mistake count, and convergence time (gated by
    /// `tests/streaming_obs.rs`).
    pub fn run_algorithm1_streaming(&self) -> StreamingRunReport {
        if self.needs_recoverable() {
            let stores = self.journal_stores();
            self.stream(|s, p| s.hardened(p, &stores))
        } else {
            self.stream(|s, p| DiningProcess::from_graph(&s.graph, &s.colors, p))
        }
    }

    fn stream<A: DiningAlgorithm>(
        &self,
        factory: impl FnMut(&Scenario, ProcessId) -> A,
    ) -> StreamingRunReport {
        let mut sim = self.simulator(factory, StreamingReport::new(self));
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
}
