use crate::module::{
    epoch_timer_tag, DetectorEvent, DetectorModule, DetectorMsg, DetectorOutput, SuspicionView,
};
use ekbd_sim::{Duration, ProcessId, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs of the [`HeartbeatDetector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often a round is sent and timeouts checked.
    pub period: Duration,
    /// Initial per-neighbor timeout.
    pub initial_timeout: Duration,
    /// How much a neighbor's timeout grows after each false suspicion.
    pub timeout_increment: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: 10,
            initial_timeout: 30,
            timeout_increment: 20,
        }
    }
}

/// The classic heartbeat + adaptive-timeout implementation of ◇P₁
/// (Chandra & Toueg 1996; Dwork–Lynch–Stockmeyer partial synchrony).
///
/// Every `period` ticks the module sends its round message to each
/// monitored neighbor and suspects any neighbor not heard from within its
/// current timeout. The round message is fixed when the module is built:
///
/// * [`new`](Self::new) pushes [`DetectorMsg::Heartbeat`];
/// * [`probing`](Self::probing) pulls with [`DetectorMsg::Probe`], which a
///   live neighbor answers at once with [`DetectorMsg::Echo`]
///   (Chen–Toueg style). That costs twice the messages per round, and the
///   timeout covers a full round trip (`period + 2Δ` after GST), so
///   detection latency and the false-positive/latency trade-off sit at
///   roughly twice the push figures. Experiment E11 compares both rounds.
///
/// Every module answers a `Probe` with an `Echo`, and takes a `Heartbeat`
/// or an `Echo` as evidence: when one arrives from a suspected neighbor the
/// suspicion is withdrawn — a false positive — and that neighbor's timeout
/// is increased by `timeout_increment`.
///
/// Why this is ◇P₁ under the simulator's GST delay model:
///
/// * **Local strong completeness.** A crashed neighbor sends no further
///   evidence, so its silence gap grows without bound, it gets suspected,
///   and — since no evidence can ever withdraw the suspicion — remains
///   suspected permanently.
/// * **Local eventual strong accuracy.** After GST every delay is ≤ Δ, so
///   consecutive evidence from a correct neighbor arrives at most
///   `period + Δ` apart (`period + 2Δ` for a probing round). Each false
///   suspicion grows the timeout by a fixed increment, so after finitely
///   many mistakes the timeout exceeds that gap and no correct neighbor is
///   ever suspected again.
///
/// Under the crash-*recovery* fault model the module additionally handles
/// restarts on both sides of the monitoring relation:
///
/// * When *this* process restarts ([`DetectorEvent::Recovered`]), its
///   volatile monitoring state is rebuilt with a fresh grace period and it
///   broadcasts [`DetectorMsg::Alive`] stamped with the new incarnation
///   epoch. The periodic timer tag is epoch-stamped, so the pre-crash timer
///   chain is dead on arrival in the new incarnation.
/// * When a monitored *neighbor* restarts, its `Alive { epoch }` refutes the
///   (correct!) suspicion of the crashed incarnation — without counting a
///   false positive or growing the adaptive timeout, since the suspicion was
///   never a mistake. Refutation epochs are remembered per neighbor so a
///   late duplicate from an old incarnation cannot mask a newer crash.
#[derive(Clone, Debug)]
pub struct HeartbeatDetector {
    cfg: HeartbeatConfig,
    /// What each round sends: `Heartbeat` (push) or `Probe` (pull).
    round: DetectorMsg,
    neighbors: Vec<ProcessId>,
    last_heard: BTreeMap<ProcessId, Time>,
    timeout: BTreeMap<ProcessId, Duration>,
    suspects: BTreeSet<ProcessId>,
    /// Count of withdrawn suspicions (false positives).
    false_positives: u64,
    /// This process's incarnation epoch (0 until the first recovery).
    epoch: u64,
    /// Highest neighbor epoch whose `Alive` we have already honored.
    refuted: BTreeMap<ProcessId, u64>,
}

/// The single timer tag used by the heartbeat detector.
const HB_TIMER_TAG: u64 = 1;

impl HeartbeatDetector {
    /// Creates a detector monitoring `neighbors` whose rounds push
    /// [`DetectorMsg::Heartbeat`].
    pub fn new(cfg: HeartbeatConfig, neighbors: impl IntoIterator<Item = ProcessId>) -> Self {
        Self::with_round(cfg, neighbors, DetectorMsg::Heartbeat)
    }

    /// Creates a detector monitoring `neighbors` whose rounds pull with
    /// [`DetectorMsg::Probe`] and hear back an [`DetectorMsg::Echo`].
    pub fn probing(cfg: HeartbeatConfig, neighbors: impl IntoIterator<Item = ProcessId>) -> Self {
        Self::with_round(cfg, neighbors, DetectorMsg::Probe)
    }

    fn with_round(
        cfg: HeartbeatConfig,
        neighbors: impl IntoIterator<Item = ProcessId>,
        round: DetectorMsg,
    ) -> Self {
        let neighbors: Vec<ProcessId> = neighbors.into_iter().collect();
        let timeout = neighbors
            .iter()
            .map(|&q| (q, cfg.initial_timeout.max(1)))
            .collect();
        HeartbeatDetector {
            cfg,
            round,
            neighbors,
            last_heard: BTreeMap::new(),
            timeout,
            suspects: BTreeSet::new(),
            false_positives: 0,
            epoch: 0,
            refuted: BTreeMap::new(),
        }
    }

    /// Total false positives (suspicions later withdrawn) so far.
    pub fn total_false_positives(&self) -> u64 {
        self.false_positives
    }

    /// The current timeout for `q`, if monitored.
    pub fn timeout_of(&self, q: ProcessId) -> Option<Duration> {
        self.timeout.get(&q).copied()
    }

    fn beat(&mut self, out: &mut DetectorOutput) {
        for &q in &self.neighbors {
            out.sends.push((q, self.round));
        }
        out.timers.push((
            self.cfg.period.max(1),
            epoch_timer_tag(HB_TIMER_TAG, self.epoch),
        ));
    }

    fn check(&mut self, now: Time, out: &mut DetectorOutput) {
        for &q in &self.neighbors {
            let heard = self.last_heard.get(&q).copied().unwrap_or(Time::ZERO);
            let quiet = now.since(heard);
            if quiet > self.timeout[&q] && self.suspects.insert(q) {
                out.changed = true;
            }
        }
    }
}

impl SuspicionView for HeartbeatDetector {
    fn suspects(&self, q: ProcessId) -> bool {
        self.suspects.contains(&q)
    }
}

impl DetectorModule for HeartbeatDetector {
    fn handle(&mut self, ev: DetectorEvent, out: &mut DetectorOutput) {
        match ev {
            DetectorEvent::Start { now } => {
                // Grace period: treat everyone as heard-from at start.
                for &q in &self.neighbors.clone() {
                    self.last_heard.insert(q, now);
                }
                self.beat(out);
            }
            DetectorEvent::Timer { now, tag }
                if tag == epoch_timer_tag(HB_TIMER_TAG, self.epoch) =>
            {
                self.beat(out);
                self.check(now, out);
            }
            // Foreign tags and timer chains armed by a previous incarnation.
            DetectorEvent::Timer { .. } => {}
            DetectorEvent::Message {
                from,
                msg: DetectorMsg::Probe,
                ..
            } => {
                // A probing neighbor is asking: answer on the monitored side.
                out.sends.push((from, DetectorMsg::Echo));
            }
            DetectorEvent::Message {
                now,
                from,
                msg: DetectorMsg::Heartbeat | DetectorMsg::Echo,
            } => {
                self.last_heard.insert(from, now);
                if self.suspects.remove(&from) {
                    // False positive: withdraw and adapt.
                    out.changed = true;
                    self.false_positives += 1;
                    if let Some(t) = self.timeout.get_mut(&from) {
                        *t = t.saturating_add(self.cfg.timeout_increment);
                    }
                }
            }
            DetectorEvent::Message {
                now,
                from,
                msg: DetectorMsg::Alive { epoch },
            } => {
                // Epoch-stamped refutation: the neighbor restarted. The
                // suspicion of its crashed incarnation was *correct*, so
                // withdrawing it is neither a false positive nor a reason to
                // grow the adaptive timeout. Stale copies (epoch already
                // honored) are ignored so they cannot mask a newer crash.
                if epoch > self.refuted.get(&from).copied().unwrap_or(0) {
                    self.refuted.insert(from, epoch);
                    self.last_heard.insert(from, now);
                    if self.suspects.remove(&from) {
                        out.changed = true;
                    }
                }
            }
            DetectorEvent::Recovered { now, epoch } => {
                // This process restarted: volatile monitoring state is gone.
                // Rebuild with a fresh grace period, announce the new
                // incarnation, and restart the (epoch-stamped) beat chain.
                self.epoch = epoch;
                if !self.suspects.is_empty() {
                    self.suspects.clear();
                    out.changed = true;
                }
                self.refuted.clear();
                for &q in &self.neighbors.clone() {
                    self.last_heard.insert(q, now);
                    self.timeout.insert(q, self.cfg.initial_timeout.max(1));
                    out.sends.push((q, DetectorMsg::Alive { epoch }));
                }
                self.beat(out);
            }
        }
    }

    fn suspect_set(&self) -> BTreeSet<ProcessId> {
        self.suspects.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig {
            period: 10,
            initial_timeout: 25,
            timeout_increment: 15,
        }
    }

    /// A pushing and a probing detector over `neighbors`, each with the
    /// message its rounds send.
    fn rounds(neighbors: &[ProcessId]) -> [(HeartbeatDetector, DetectorMsg); 2] {
        let nbrs = || neighbors.iter().copied();
        [
            (
                HeartbeatDetector::new(cfg(), nbrs()),
                DetectorMsg::Heartbeat,
            ),
            (
                HeartbeatDetector::probing(cfg(), nbrs()),
                DetectorMsg::Probe,
            ),
        ]
    }

    #[test]
    fn start_sends_heartbeats_and_sets_timer() {
        for (mut d, round) in rounds(&[p(1), p(2)]) {
            let mut out = DetectorOutput::new();
            d.handle(DetectorEvent::Start { now: Time::ZERO }, &mut out);
            assert_eq!(out.sends, vec![(p(1), round), (p(2), round)]);
            assert_eq!(out.timers, vec![(10, HB_TIMER_TAG)]);
            assert!(!out.changed);
        }
    }

    #[test]
    fn probes_are_echoed() {
        for (mut d, _) in rounds(&[p(1)]) {
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Message {
                    now: Time(5),
                    from: p(1),
                    msg: DetectorMsg::Probe,
                },
                &mut out,
            );
            assert_eq!(out.sends, vec![(p(1), DetectorMsg::Echo)]);
        }
    }

    #[test]
    fn silence_leads_to_suspicion() {
        for (mut d, _) in rounds(&[p(1)]) {
            let mut out = DetectorOutput::new();
            d.handle(DetectorEvent::Start { now: Time::ZERO }, &mut out);
            // Quiet gap of 30 > timeout 25 → suspect.
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Timer {
                    now: Time(30),
                    tag: HB_TIMER_TAG,
                },
                &mut out,
            );
            assert!(out.changed);
            assert!(d.suspects(p(1)));
        }
    }

    #[test]
    fn heartbeat_withdraws_suspicion_and_adapts_timeout() {
        // The evidence each round hears back: a heartbeat, or an echo.
        let [(push, _), (pull, _)] = rounds(&[p(1)]);
        for (mut d, evidence) in [(push, DetectorMsg::Heartbeat), (pull, DetectorMsg::Echo)] {
            let mut out = DetectorOutput::new();
            d.handle(DetectorEvent::Start { now: Time::ZERO }, &mut out);
            d.handle(
                DetectorEvent::Timer {
                    now: Time(30),
                    tag: HB_TIMER_TAG,
                },
                &mut DetectorOutput::new(),
            );
            assert!(d.suspects(p(1)));
            assert_eq!(d.timeout_of(p(1)), Some(25));

            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Message {
                    now: Time(31),
                    from: p(1),
                    msg: evidence,
                },
                &mut out,
            );
            assert!(out.changed);
            assert!(!d.suspects(p(1)));
            assert_eq!(d.timeout_of(p(1)), Some(40), "timeout grew by increment");
            assert_eq!(d.total_false_positives(), 1);
        }
    }

    #[test]
    fn crashed_neighbor_stays_suspected() {
        for (mut d, _) in rounds(&[p(1)]) {
            d.handle(
                DetectorEvent::Start { now: Time::ZERO },
                &mut DetectorOutput::new(),
            );
            for t in (10..500).step_by(10) {
                d.handle(
                    DetectorEvent::Timer {
                        now: Time(t),
                        tag: HB_TIMER_TAG,
                    },
                    &mut DetectorOutput::new(),
                );
            }
            assert!(d.suspects(p(1)));
            assert_eq!(d.total_false_positives(), 0, "never withdrawn");
        }
    }

    #[test]
    fn regular_heartbeats_prevent_suspicion() {
        let mut d = HeartbeatDetector::new(cfg(), [p(1)]);
        d.handle(
            DetectorEvent::Start { now: Time::ZERO },
            &mut DetectorOutput::new(),
        );
        for t in (5..300).step_by(10) {
            d.handle(
                DetectorEvent::Message {
                    now: Time(t),
                    from: p(1),
                    msg: DetectorMsg::Heartbeat,
                },
                &mut DetectorOutput::new(),
            );
            d.handle(
                DetectorEvent::Timer {
                    now: Time(t + 5),
                    tag: HB_TIMER_TAG,
                },
                &mut DetectorOutput::new(),
            );
        }
        assert!(d.suspect_set().is_empty());
    }

    #[test]
    fn timeout_growth_eventually_tolerates_any_fixed_gap() {
        // Simulate a neighbor whose heartbeats arrive every 60 ticks while
        // the timeout starts at 25: suspicion flaps at first, then the
        // adaptive timeout exceeds 60 and accuracy holds thereafter.
        let mut d = HeartbeatDetector::new(cfg(), [p(1)]);
        d.handle(
            DetectorEvent::Start { now: Time::ZERO },
            &mut DetectorOutput::new(),
        );
        let mut last_fp_at = None;
        for t in 1..2_000u64 {
            if t % 10 == 0 {
                d.handle(
                    DetectorEvent::Timer {
                        now: Time(t),
                        tag: HB_TIMER_TAG,
                    },
                    &mut DetectorOutput::new(),
                );
            }
            if t % 60 == 0 {
                let before = d.total_false_positives();
                d.handle(
                    DetectorEvent::Message {
                        now: Time(t),
                        from: p(1),
                        msg: DetectorMsg::Heartbeat,
                    },
                    &mut DetectorOutput::new(),
                );
                if d.total_false_positives() > before {
                    last_fp_at = Some(t);
                }
            }
        }
        let fp = d.total_false_positives();
        assert!(fp >= 1, "initial timeout is too small, flaps expected");
        assert!(fp <= 4, "adaptation must stop the flapping, saw {fp}");
        assert!(d.timeout_of(p(1)).unwrap() > 60);
        assert!(last_fp_at.unwrap() < 500, "accuracy holds in the suffix");
        assert!(!d.suspects(p(1)));
    }

    #[test]
    fn alive_refutes_suspicion_without_counting_a_false_positive() {
        for (mut d, _) in rounds(&[p(1)]) {
            d.handle(
                DetectorEvent::Start { now: Time::ZERO },
                &mut DetectorOutput::new(),
            );
            d.handle(
                DetectorEvent::Timer {
                    now: Time(30),
                    tag: HB_TIMER_TAG,
                },
                &mut DetectorOutput::new(),
            );
            assert!(d.suspects(p(1)), "crashed neighbor is suspected");

            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Message {
                    now: Time(40),
                    from: p(1),
                    msg: DetectorMsg::Alive { epoch: 1 },
                },
                &mut out,
            );
            assert!(out.changed);
            assert!(!d.suspects(p(1)), "refutation withdraws the suspicion");
            assert_eq!(d.total_false_positives(), 0, "it was a correct suspicion");
            assert_eq!(d.timeout_of(p(1)), Some(25), "no adaptive growth either");
        }
    }

    #[test]
    fn stale_alive_cannot_mask_a_newer_crash() {
        let mut d = HeartbeatDetector::new(cfg(), [p(1)]);
        d.handle(
            DetectorEvent::Start { now: Time::ZERO },
            &mut DetectorOutput::new(),
        );
        // First crash/recover cycle: Alive{1} honored.
        d.handle(
            DetectorEvent::Message {
                now: Time(10),
                from: p(1),
                msg: DetectorMsg::Alive { epoch: 1 },
            },
            &mut DetectorOutput::new(),
        );
        // Second crash: suspicion re-established by silence.
        d.handle(
            DetectorEvent::Timer {
                now: Time(100),
                tag: HB_TIMER_TAG,
            },
            &mut DetectorOutput::new(),
        );
        assert!(d.suspects(p(1)));
        // A late duplicate of the old incarnation's Alive must not refute.
        let mut out = DetectorOutput::new();
        d.handle(
            DetectorEvent::Message {
                now: Time(101),
                from: p(1),
                msg: DetectorMsg::Alive { epoch: 1 },
            },
            &mut out,
        );
        assert!(!out.changed);
        assert!(d.suspects(p(1)), "stale epoch is ignored");
        // The genuinely newer incarnation does refute.
        d.handle(
            DetectorEvent::Message {
                now: Time(102),
                from: p(1),
                msg: DetectorMsg::Alive { epoch: 2 },
            },
            &mut DetectorOutput::new(),
        );
        assert!(!d.suspects(p(1)));
    }

    #[test]
    fn recovery_resets_state_broadcasts_alive_and_rearms_epoch_timer() {
        for (mut d, round) in rounds(&[p(1), p(2)]) {
            d.handle(
                DetectorEvent::Start { now: Time::ZERO },
                &mut DetectorOutput::new(),
            );
            d.handle(
                DetectorEvent::Timer {
                    now: Time(30),
                    tag: HB_TIMER_TAG,
                },
                &mut DetectorOutput::new(),
            );
            assert!(d.suspects(p(1)) && d.suspects(p(2)));

            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Recovered {
                    now: Time(50),
                    epoch: 1,
                },
                &mut out,
            );
            assert!(out.changed, "pre-crash suspicions were dropped");
            assert!(d.suspect_set().is_empty(), "fresh grace period");
            assert!(out
                .sends
                .iter()
                .any(|&(q, m)| q == p(1) && m == DetectorMsg::Alive { epoch: 1 }));
            assert!(out.sends.iter().any(|&(q, m)| q == p(2) && m == round));
            let new_tag = epoch_timer_tag(HB_TIMER_TAG, 1);
            assert_eq!(out.timers, vec![(10, new_tag)]);

            // The pre-crash timer chain is dead: its epoch-0 tag is ignored.
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Timer {
                    now: Time(51),
                    tag: HB_TIMER_TAG,
                },
                &mut out,
            );
            assert!(out.sends.is_empty() && out.timers.is_empty() && !out.changed);

            // The new-epoch chain sends its round and checks as usual.
            let mut out = DetectorOutput::new();
            d.handle(
                DetectorEvent::Timer {
                    now: Time(60),
                    tag: new_tag,
                },
                &mut out,
            );
            assert_eq!(out.sends, vec![(p(1), round), (p(2), round)]);
            assert_eq!(out.timers, vec![(10, new_tag)]);
            assert!(d.suspect_set().is_empty(), "grace still covers the silence");
        }
    }
}
