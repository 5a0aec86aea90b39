//! Observation sinks and the streaming building blocks.
//!
//! Every observation a node emits through
//! [`Context::observe`](crate::Context::observe) goes to one
//! [`StreamSink`], the one its [`Simulator`](crate::Simulator) owns. The
//! default sink is a dense `Vec<Observation<O>>` log: `O(events)` memory,
//! fine up to a few thousand processes, fatal at 10⁵–10⁶. A sink that
//! aggregates instead consumes each observation the instant it is emitted
//! and keeps only `O(processes)` state. The building blocks for such sinks
//! are deliberately exact where the metrics layer is exact:
//!
//! * [`LatencyHistogram`] stores a precise count per tick below
//!   [`LatencyHistogram::EXACT_CAP`] and log₂ bins above, so nearest-rank
//!   quantiles are *bit-equal* to the dense [`ekbd-metrics`] summary
//!   whenever every sample is below the cap (true for every small-graph
//!   equivalence scenario), and within a factor-2 bracket beyond it.
//! * [`Reservoir`] keeps a bounded, deterministically chosen sample of
//!   events for post-mortem excerpts, via seeded max-weight selection, so
//!   identical runs keep identical excerpts.

use crate::time::Time;
use crate::trace::Observation;
use crate::ProcessId;

/// A consumer of the observations emitted through
/// [`Context::observe`](crate::Context::observe): the simulator's dense
/// log, a report's columns, or a streaming aggregator.
pub trait StreamSink<O> {
    /// Consumes one observation, stamped with its emission time and the
    /// emitting process. Called synchronously from inside the event loop —
    /// implementations must be `O(1)`-ish and must not re-enter the
    /// simulator.
    fn record(&mut self, time: Time, process: ProcessId, obs: O);
}

/// The dense log: each observation is stamped and stored once, in
/// emission order.
impl<O> StreamSink<O> for Vec<Observation<O>> {
    fn record(&mut self, time: Time, process: ProcessId, obs: O) {
        self.push(Observation { time, process, obs });
    }
}

/// A latency histogram that is exact below [`Self::EXACT_CAP`] ticks and
/// log₂-binned above, with constant-time record and `O(cap)` memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `exact[v]` counts samples of exactly `v` ticks, `v < EXACT_CAP`.
    exact: Vec<u64>,
    /// `coarse[k]` counts samples in `[2^k, 2^(k+1))`, for samples
    /// `≥ EXACT_CAP` (lower bins stay zero).
    coarse: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Samples below this many ticks are counted exactly; above, they fall
    /// into log₂ bins. 1024 ticks covers every small-graph hungry→eat
    /// latency in the test corpus, which is what makes the streaming-vs-
    /// dense equivalence gate exact rather than approximate.
    pub const EXACT_CAP: u64 = 1024;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            exact: vec![0; Self::EXACT_CAP as usize],
            coarse: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample of `v` ticks.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < Self::EXACT_CAP {
            self.exact[v as usize] += 1;
        } else {
            self.coarse[63 - v.leading_zeros() as usize] += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), matching the dense
    /// summary's `idx = ceil(q·count).clamp(1, count) - 1` convention.
    /// Exact if the selected sample is below [`Self::EXACT_CAP`]; otherwise
    /// the lower bound of its log₂ bin (clamped to the true max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (v, &c) in self.exact.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return v as u64;
            }
        }
        for (k, &c) in self.coarse.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return (1u64 << k).max(Self::EXACT_CAP).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` (used when merging per-shard histograms).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A compact `count/min/p50/p99/max/mean` line for reports.
    pub fn brief(&self) -> String {
        format!(
            "n={} min={} p50={} p99={} max={} mean={:.1}",
            self.count(),
            self.min(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max(),
            self.mean()
        )
    }
}

/// A deterministic bounded sample of a stream: each item gets a seeded
/// pseudo-random weight and the `cap` largest-weight items are kept.
///
/// Unlike classic reservoir sampling (whose RNG consumption depends on
/// stream length), max-weight selection merges cleanly across shards: the
/// union of two reservoirs re-truncated by weight equals the reservoir of
/// the concatenated streams, so sharded excerpts are shard-count-stable as
/// long as item keys are.
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    seed: u64,
    cap: usize,
    taken: u64,
    /// Kept items with their weights, sorted by descending weight.
    items: Vec<(u64, T)>,
}

impl<T> Reservoir<T> {
    /// An empty reservoir keeping at most `cap` items.
    pub fn new(seed: u64, cap: usize) -> Self {
        Reservoir {
            seed,
            cap,
            taken: 0,
            items: Vec::with_capacity(cap.min(64)),
        }
    }

    /// Offers an item with `key` (typically derived from the event's time
    /// and process, so the weight is independent of arrival order).
    pub fn offer(&mut self, key: u64, item: T) {
        self.taken += 1;
        if self.cap == 0 {
            return;
        }
        let w = splitmix(self.seed ^ key);
        if self.items.len() < self.cap {
            self.items.push((w, item));
            self.items.sort_by_key(|p| std::cmp::Reverse(p.0));
        } else if w > self.items.last().expect("non-empty at cap").0 {
            self.items.pop();
            let at = self.items.partition_point(|&(x, _)| x > w);
            self.items.insert(at, (w, item));
        }
    }

    /// Total items offered (kept or not).
    pub fn offered(&self) -> u64 {
        self.taken
    }

    /// The kept sample, heaviest first.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, t)| t)
    }

    /// Number of kept items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Folds `other` into `self`, re-truncating to the weight-heaviest
    /// `cap` of the union.
    pub fn merge(&mut self, other: Reservoir<T>) {
        self.taken += other.taken;
        self.items.extend(other.items);
        self.items.sort_by_key(|p| std::cmp::Reverse(p.0));
        self.items.truncate(self.cap);
    }
}

/// splitmix64 finalizer — the workspace-standard seeded hash.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_below_cap() {
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<u64> = (0..500).map(|i| (i * 37) % 900).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        assert_eq!(h.count(), 500);
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
        for q in [0.01, 0.25, 0.50, 0.75, 0.99, 1.0] {
            let rank = ((q * 500.0f64).ceil() as usize).clamp(1, 500) - 1;
            assert_eq!(h.quantile(q), samples[rank], "quantile {q} mismatch");
        }
        let mean: f64 = samples.iter().sum::<u64>() as f64 / 500.0;
        assert!((h.mean() - mean).abs() < 1e-9);
    }

    #[test]
    fn histogram_brackets_above_cap() {
        let mut h = LatencyHistogram::new();
        h.record(5_000);
        h.record(70_000);
        assert_eq!(h.count(), 2);
        let p50 = h.quantile(0.5);
        assert!((4096..=5_000).contains(&p50), "p50 {p50} out of bracket");
        assert_eq!(h.quantile(1.0), 65_536.min(h.max()));
    }

    #[test]
    fn histogram_empty_and_merge() {
        let h = LatencyHistogram::new();
        assert_eq!((h.count(), h.min(), h.max(), h.quantile(0.5)), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);

        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 { &mut a } else { &mut b }.record(v * 13 % 700);
            whole.record(v * 13 % 700);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must equal single-stream ingestion");
        assert!(!whole.brief().is_empty());
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let fill = |seed| {
            let mut r = Reservoir::new(seed, 8);
            for i in 0..1000u64 {
                r.offer(i, i);
            }
            r.items().copied().collect::<Vec<u64>>()
        };
        assert_eq!(fill(1).len(), 8);
        assert_eq!(fill(1), fill(1));
        assert_ne!(fill(1), fill(2));
        let mut r: Reservoir<u8> = Reservoir::new(0, 0);
        r.offer(3, 9);
        assert!(r.is_empty());
        assert_eq!(r.offered(), 1);
    }

    #[test]
    fn reservoir_merge_equals_concatenated_stream() {
        let mut whole = Reservoir::new(7, 5);
        let mut left = Reservoir::new(7, 5);
        let mut right = Reservoir::new(7, 5);
        for i in 0..400u64 {
            whole.offer(i, i);
            if i < 200 { &mut left } else { &mut right }.offer(i, i);
        }
        left.merge(right);
        assert_eq!(
            left.items().collect::<Vec<_>>(),
            whole.items().collect::<Vec<_>>()
        );
        assert_eq!(left.offered(), whole.offered());
    }
}
