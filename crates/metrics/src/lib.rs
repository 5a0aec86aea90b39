//! Property checkers for dining-based distributed daemons.
//!
//! Every theorem and quantitative claim of Song & Pike (DSN 2007) is checked
//! here against the observation stream of an actual run:
//!
//! * [`ExclusionReport`] — Theorem 1 (◇WX safety): counts *scheduling
//!   mistakes* (pairs of live neighbors eating simultaneously) and locates
//!   the last one; after detector convergence there must be none.
//! * [`FairnessReport`] — Theorem 3 (◇2-BW): the maximum number of times a
//!   neighbor starts eating within one continuous hungry session; in the
//!   convergence suffix this may not exceed 2.
//! * [`ProgressReport`] — Theorem 2 (wait-freedom): every correct hungry
//!   process eats; also hungry-session latency statistics.
//! * [`QuiescenceReport`] — §7: correct processes eventually stop sending
//!   to crashed neighbors.
//!
//! The input is the stream of [`SchedEvent`]s a harness host emits by
//! diffing its algorithm's externally visible state, so the checkers apply
//! uniformly to Algorithm 1 and to every baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrency;
mod detector_quality;
mod exclusion;
mod fairness;
mod link;
mod progress;
mod quiescence;
mod readmission;
mod stats;
mod timeline;

pub use concurrency::ConcurrencyReport;
pub use detector_quality::DetectorQualityReport;
pub use exclusion::{ExclusionReport, Mistake};
pub use fairness::{FairnessReport, Overtake};
pub use link::LinkSummary;
pub use progress::{ProgressReport, SessionStats};
pub use quiescence::QuiescenceReport;
pub use readmission::{ReadmissionBreakdown, SAVING_SIGNIFICANCE};
pub use stats::Summary;
pub use timeline::Timeline;

use ekbd_dining::DiningObs;
use ekbd_graph::ProcessId;
use ekbd_sim::Time;

/// One scheduling-relevant event of a run: at `time`, `process` underwent
/// `obs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedEvent {
    /// When it happened.
    pub time: Time,
    /// Which process.
    pub process: ProcessId,
    /// What happened.
    pub obs: DiningObs,
}

impl SchedEvent {
    /// Convenience constructor.
    pub fn new(time: Time, process: ProcessId, obs: DiningObs) -> Self {
        SchedEvent { time, process, obs }
    }
}

/// The last [`EventTail::CAPACITY`] events of a run, in order, plus a count
/// of every event ever pushed: the event log of a service that runs for
/// ever, in bounded memory. The buffer grows as events arrive, so a short
/// run never makes the whole capacity resident; once full, each push
/// overwrites the oldest event.
///
/// Analyses over the tail are exact for the whole run exactly when
/// [`total`](Self::total) equals [`len`](Self::len).
#[derive(Clone, Debug, Default)]
pub struct EventTail {
    /// Events in arrival order until full; then a ring whose oldest event
    /// sits at `head`.
    buf: Vec<SchedEvent>,
    head: usize,
    total: u64,
}

impl EventTail {
    /// Events kept: 2¹⁷, 2 MiB of [`SchedEvent`]s.
    pub const CAPACITY: usize = 1 << 17;

    /// An empty tail; nothing is allocated until the first push.
    pub fn new() -> Self {
        EventTail::default()
    }

    /// Appends `event`, dropping the oldest one when the tail is full.
    pub fn push(&mut self, event: SchedEvent) {
        self.total += 1;
        if self.buf.len() < Self::CAPACITY {
            if self.buf.len() == self.buf.capacity() {
                // Double, but never past the capacity.
                let grow = self.buf.len().max(4).min(Self::CAPACITY - self.buf.len());
                self.buf.reserve_exact(grow);
            }
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % Self::CAPACITY;
        }
    }

    /// Every event pushed so far, kept or not.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events kept: `min(total, CAPACITY)`.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The kept events, oldest first, without copying them.
    pub fn into_vec(mut self) -> Vec<SchedEvent> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// A half-open interval `[start, end)` in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive start.
    pub start: Time,
    /// Exclusive end.
    pub end: Time,
}

impl Interval {
    /// Whether two half-open intervals overlap in at least one instant.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Extracts per-process half-open intervals `[when obs_open, when obs_close)`
/// from an event stream. Intervals still open at `horizon` (or cut short by
/// a crash) are closed at `min(horizon, crash_time)`.
pub(crate) fn intervals_of(
    events: &[SchedEvent],
    n: usize,
    open: DiningObs,
    close: DiningObs,
    crash_time: &dyn Fn(ProcessId) -> Option<Time>,
    horizon: Time,
) -> Vec<Vec<Interval>> {
    let mut result = vec![Vec::new(); n];
    let mut open_at: Vec<Option<Time>> = vec![None; n];
    for e in events {
        let i = e.process.index();
        if e.obs == open {
            debug_assert!(open_at[i].is_none(), "nested {open:?} for {}", e.process);
            open_at[i] = Some(e.time);
        } else if e.obs == close {
            if let Some(start) = open_at[i].take() {
                result[i].push(Interval { start, end: e.time });
            }
        }
    }
    for i in 0..n {
        if let Some(start) = open_at[i].take() {
            let end = crash_time(ProcessId::from(i))
                .unwrap_or(horizon)
                .min(horizon);
            if end > start {
                result[i].push(Interval { start, end });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_overlap_semantics() {
        let a = Interval {
            start: Time(0),
            end: Time(10),
        };
        let b = Interval {
            start: Time(10),
            end: Time(20),
        };
        assert!(!a.overlaps(&b), "touching endpoints do not overlap");
        let c = Interval {
            start: Time(9),
            end: Time(11),
        };
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
    }

    fn nth(i: usize) -> SchedEvent {
        SchedEvent::new(
            Time(i as u64),
            ProcessId::from(i % 7),
            DiningObs::StartedEating,
        )
    }

    #[test]
    fn event_tail_keeps_the_last_capacity_events_in_order() {
        const N: usize = EventTail::CAPACITY;
        let mut tail = EventTail::new();
        assert!(tail.is_empty() && tail.clone().into_vec().is_empty());
        for pushed in 1..=2 * N + N / 3 {
            tail.push(nth(pushed - 1));
            assert_eq!(tail.total(), pushed as u64, "the total counts every push");
            assert_eq!(tail.len(), pushed.min(N));
            assert!(tail.buf.capacity() <= N, "capacity {}", tail.buf.capacity());
            // Check the order at the boundaries of the first wraps, and a
            // little past them, without an O(N²) test.
            if [N - 1, N, N + 1, 2 * N, 2 * N + 5].contains(&pushed) {
                let first = pushed.saturating_sub(N);
                let kept = tail.clone().into_vec();
                let want: Vec<SchedEvent> = (first..pushed).map(nth).collect();
                assert!(kept == want, "after {pushed} pushes");
            }
        }
        let pushed = 2 * N + N / 3;
        let want: Vec<SchedEvent> = (pushed - N..pushed).map(nth).collect();
        assert!(tail.into_vec() == want, "the last wrap keeps the order");
    }

    #[test]
    fn a_short_tail_holds_only_what_was_pushed() {
        let mut tail = EventTail::new();
        for i in 0..1000 {
            tail.push(nth(i));
        }
        assert_eq!((tail.len(), tail.total()), (1000, 1000));
        assert!(tail.buf.capacity() < 2048, "grows as events arrive");
        assert!(tail.into_vec() == (0..1000).map(nth).collect::<Vec<_>>());
    }

    #[test]
    fn intervals_close_at_crash_or_horizon() {
        let events = vec![
            SchedEvent::new(Time(5), ProcessId(0), DiningObs::StartedEating),
            SchedEvent::new(Time(7), ProcessId(1), DiningObs::StartedEating),
        ];
        let iv = intervals_of(
            &events,
            2,
            DiningObs::StartedEating,
            DiningObs::StoppedEating,
            &|p| (p == ProcessId(0)).then_some(Time(8)),
            Time(100),
        );
        assert_eq!(
            iv[0],
            vec![Interval {
                start: Time(5),
                end: Time(8)
            }]
        );
        assert_eq!(
            iv[1],
            vec![Interval {
                start: Time(7),
                end: Time(100)
            }]
        );
    }
}
