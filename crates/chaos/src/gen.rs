//! Seeded schedule generator: the randomized adversary.
//!
//! Every schedule is a pure function of `(topology, seed, intensity)`,
//! built from a local splitmix64 stream, so exploration campaigns are
//! replayable by seed alone and a failing seed can always be regenerated
//! bit-for-bit before the shrinker takes over.
//!
//! Generation is constructive-by-validity: axis victims are drawn from
//! disjoint pools, partitions get time-disjoint windows, every crash gets
//! a later recovery, and storage damage only targets processes that
//! restart — so `generate(..).validate()` holds for every seed (a
//! proptest pins this).

use crate::schedule::{Axis, ChannelNoise, ChaosEvent, FaultSchedule, ScheduleError};
use ekbd_graph::random::splitmix64;
use ekbd_journal::StorageFault;
use ekbd_sim::{ProcessId, Time};

/// Default horizon for generated schedules.
pub const GEN_HORIZON: Time = Time(60_000);

/// End of the disturbance window. The chaos workload's hungry sessions
/// drain within roughly the first thousand ticks, so disturbances are
/// packed into that span — a fault that fires after the last session ate
/// tests nothing — and the rest of the horizon is a quiet tail for the
/// blocked sessions to complete and the classifier to judge in.
pub const GEN_WINDOW: Time = Time(2_000);

/// Tunable intensity distribution for the generator.
#[derive(Clone, Debug, PartialEq)]
pub struct Intensity {
    /// Display name (`light` / `default` / `heavy`).
    pub name: &'static str,
    /// Upper bound on the per-message loss probability.
    pub loss_cap: f64,
    /// Upper bound on duplication / reorder probabilities.
    pub noise_cap: f64,
    /// Maximum number of (time-disjoint) partitions.
    pub max_partitions: usize,
    /// Maximum number of crash/recover victims.
    pub max_crashes: usize,
    /// Whether storage damage may ride on a recovery.
    pub storage: bool,
    /// Maximum joins and leaves each.
    pub max_churn: usize,
}

impl Intensity {
    /// Mild background noise: short partitions, one crash, no storage
    /// damage, no churn.
    pub fn light() -> Self {
        Intensity {
            name: "light",
            loss_cap: 0.03,
            noise_cap: 0.03,
            max_partitions: 1,
            max_crashes: 1,
            storage: false,
            max_churn: 0,
        }
    }

    /// The E18 gate setting: every axis available, moderate rates.
    pub fn default_mix() -> Self {
        Intensity {
            name: "default",
            loss_cap: 0.08,
            noise_cap: 0.05,
            max_partitions: 2,
            max_crashes: 2,
            storage: true,
            max_churn: 1,
        }
    }

    /// Hostile: high rates, more victims per axis.
    pub fn heavy() -> Self {
        Intensity {
            name: "heavy",
            loss_cap: 0.15,
            noise_cap: 0.10,
            max_partitions: 3,
            max_crashes: 3,
            storage: true,
            max_churn: 2,
        }
    }

    /// Parse a preset name.
    pub fn parse(name: &str) -> Option<Intensity> {
        match name {
            "light" => Some(Intensity::light()),
            "default" => Some(Intensity::default_mix()),
            "heavy" => Some(Intensity::heavy()),
            _ => None,
        }
    }
}

/// Deterministic splitmix64 stream; the whole generator draws from one.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Remove and return a uniformly random element.
    fn take<T>(&mut self, pool: &mut Vec<T>) -> Option<T> {
        if pool.is_empty() {
            return None;
        }
        let i = (self.next() % pool.len() as u64) as usize;
        Some(pool.swap_remove(i))
    }
}

impl FaultSchedule {
    /// Generate a composite schedule over `topology` from `seed`.
    ///
    /// At least two distinct fault axes are always exercised (subject to
    /// the intensity allowing them and the population being large enough
    /// to fill the victim pools); all disturbances land inside
    /// [`GEN_WINDOW`] so they overlap live hunger and the classifier
    /// always has a quiet tail to judge stabilization in.
    pub fn generate(
        topology: &str,
        seed: u64,
        intensity: &Intensity,
    ) -> Result<FaultSchedule, ScheduleError> {
        let n = crate::schedule::build_topology(topology)?.len();
        let mut rng = Rng::new(seed);
        let horizon = GEN_HORIZON;
        let window_end = GEN_WINDOW.0;

        // Pick the axis set: shuffle-draw until at least two are chosen,
        // respecting what the intensity and population admit.
        let mut available = vec![Axis::Channel, Axis::Partition];
        if intensity.max_crashes > 0 && n >= 3 {
            available.push(Axis::Crash);
        }
        if intensity.max_churn > 0 && n >= 5 {
            available.push(Axis::Churn);
        }
        let mut chosen: Vec<Axis> = Vec::new();
        let mut pool = available.clone();
        while let Some(axis) = rng.take(&mut pool) {
            if chosen.len() < 2 || rng.chance(0.55) {
                chosen.push(axis);
            }
        }
        // Storage damage rides on the crash axis.
        if intensity.storage && chosen.contains(&Axis::Crash) && rng.chance(0.5) {
            chosen.push(Axis::Storage);
        }
        chosen.sort();

        // Disjoint victim pools per axis keep the composition valid by
        // construction: a churned process is never also crashed, and a
        // partitioned side never contains a victim of another axis.
        let mut victims: Vec<ProcessId> = (0..n).map(ProcessId::from).collect();
        let mut events: Vec<ChaosEvent> = Vec::new();

        if chosen.contains(&Axis::Channel) {
            events.push(ChaosEvent::Noise(ChannelNoise {
                loss: rng.f64() * intensity.loss_cap,
                dup: rng.f64() * intensity.noise_cap,
                reorder: rng.f64() * intensity.noise_cap * 2.0,
                reorder_window: rng.range(4, 17),
            }));
        }

        if chosen.contains(&Axis::Churn) {
            for _ in 0..intensity.max_churn {
                if victims.len() <= 3 {
                    break;
                }
                let joiner = rng.take(&mut victims).expect("pool non-empty");
                events.push(ChaosEvent::Join {
                    process: joiner,
                    at: Time(rng.range(100, window_end / 2)),
                });
                let leaver = rng.take(&mut victims).expect("pool non-empty");
                events.push(ChaosEvent::Leave {
                    process: leaver,
                    at: Time(rng.range(window_end / 2, window_end)),
                    graceful: rng.chance(0.5),
                });
            }
        }

        if chosen.contains(&Axis::Crash) {
            let storage = chosen.contains(&Axis::Storage);
            for i in 0..intensity.max_crashes {
                if victims.len() <= 2 {
                    break;
                }
                let victim = rng.take(&mut victims).expect("pool non-empty");
                let crash_at = rng.range(100, window_end * 2 / 3);
                let recover_at = rng.range(crash_at + 100, window_end);
                events.push(ChaosEvent::Crash {
                    process: victim,
                    at: Time(crash_at),
                });
                events.push(ChaosEvent::Recover {
                    process: victim,
                    at: Time(recover_at),
                    corrupt: rng.chance(0.3),
                });
                // Damage the first victim's storage so the axis always
                // fires when selected; later victims roll for it.
                if storage && (i == 0 || rng.chance(0.4)) {
                    events.push(ChaosEvent::Storage {
                        process: victim,
                        mode: StorageFault::ALL[rng.range(0, 4) as usize],
                    });
                }
            }
        }

        if chosen.contains(&Axis::Partition) {
            // Time-disjoint windows: slice the disturbance window into
            // equal slots and put at most one partition in each.
            let count = 1 + (rng.next() as usize % intensity.max_partitions);
            let slot = window_end / count as u64;
            for k in 0..count {
                if victims.len() <= 2 {
                    break;
                }
                let isolated = rng.take(&mut victims).expect("pool non-empty");
                let lo = k as u64 * slot + 200;
                let hi = (k as u64 + 1) * slot;
                if lo + 400 >= hi {
                    break;
                }
                let start = rng.range(lo, hi - 400);
                let heal = rng.range(start + 400, hi.min(start + 4_000).max(start + 401));
                events.push(ChaosEvent::Partition {
                    side: vec![isolated],
                    start: Time(start),
                    heal: Time(heal),
                });
            }
        }

        let mut schedule = FaultSchedule {
            topology: topology.to_string(),
            seed,
            horizon,
            events,
            expect: None,
        };
        // Victim pools can run dry on small populations (e.g. heavy
        // churn on a 6-clique leaves no one to partition); channel noise
        // needs no victims, so it backstops the two-axis guarantee.
        if schedule.axes().len() < 2 && !schedule.events.iter().any(|e| e.axis() == Axis::Channel) {
            schedule.events.insert(
                0,
                ChaosEvent::Noise(ChannelNoise {
                    loss: rng.f64() * intensity.loss_cap,
                    dup: 0.0,
                    reorder: 0.0,
                    reorder_window: 0,
                }),
            );
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultSchedule::generate("ring-8", 42, &Intensity::default_mix()).unwrap();
        let b = FaultSchedule::generate("ring-8", 42, &Intensity::default_mix()).unwrap();
        assert_eq!(a, b);
        let c = FaultSchedule::generate("ring-8", 43, &Intensity::default_mix()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_schedules_validate_and_compose() {
        for intensity in [
            Intensity::light(),
            Intensity::default_mix(),
            Intensity::heavy(),
        ] {
            for topo in ["ring-8", "clique-6", "grid-3x4", "gnp-12-0.3"] {
                for seed in 0..50 {
                    let s = FaultSchedule::generate(topo, seed, &intensity)
                        .unwrap_or_else(|e| panic!("{topo}/{seed}: {e}"));
                    s.validate()
                        .unwrap_or_else(|e| panic!("{topo}/{seed} invalid: {e}"));
                    assert!(
                        s.axes().len() >= 2,
                        "{topo}/{seed} exercises fewer than two axes: {:?}",
                        s.axes()
                    );
                    assert!(s.last_disturbance() <= GEN_WINDOW);
                }
            }
        }
    }

    #[test]
    fn intensity_presets_parse() {
        assert_eq!(Intensity::parse("light"), Some(Intensity::light()));
        assert_eq!(Intensity::parse("default"), Some(Intensity::default_mix()));
        assert_eq!(Intensity::parse("heavy"), Some(Intensity::heavy()));
        assert_eq!(Intensity::parse("brutal"), None);
    }
}
