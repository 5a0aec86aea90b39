use crate::stats::Summary;

/// How many standard errors the mean saving must clear before
/// [`ReadmissionBreakdown::journal_faster`] calls the journal faster.
pub const SAVING_SIGNIFICANCE: f64 = 2.0;

/// Time-to-readmission statistics of paired restarts (experiment E16).
///
/// Each sample pairs one restart taken blank — the full rejoin handshake —
/// with the same restart taken from the journal: the same seed, schedule
/// and victim, only the restart path differs. The pair's difference is
/// the restart's *saving*. The victim's think times and contention move
/// both readmissions alike, so the saving is far less noisy than the gap
/// between the two populations' medians.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReadmissionBreakdown {
    /// Readmission times of journal-replay restarts.
    pub journal: Summary,
    /// Readmission times of blank (full-rejoin) restarts.
    pub blank: Summary,
    /// Pairs in which both restarts readmitted.
    pub pairs: usize,
    /// Mean saving (blank minus journal) over [`pairs`](Self::pairs), in
    /// ticks.
    pub saving: f64,
    /// Standard error of [`saving`](Self::saving) (0 with fewer than two
    /// pairs).
    pub saving_se: f64,
    /// Restarts that never ate again before the horizon (excluded from
    /// both summaries, and their pairs from the saving).
    pub unreadmitted: usize,
}

impl ReadmissionBreakdown {
    /// Builds a breakdown from `(blank, journal)` time-to-readmission
    /// pairs; a `None` time counts toward
    /// [`unreadmitted`](Self::unreadmitted).
    pub fn of(pairs: impl IntoIterator<Item = (Option<u64>, Option<u64>)>) -> Self {
        let mut journal = Vec::new();
        let mut blank = Vec::new();
        let mut savings = Vec::new();
        let mut unreadmitted = 0;
        for (b, j) in pairs {
            unreadmitted += usize::from(b.is_none()) + usize::from(j.is_none());
            blank.extend(b);
            journal.extend(j);
            if let (Some(b), Some(j)) = (b, j) {
                savings.push(b as f64 - j as f64);
            }
        }
        let n = savings.len();
        let saving = if n == 0 {
            0.0
        } else {
            savings.iter().sum::<f64>() / n as f64
        };
        let saving_se = if n < 2 {
            0.0
        } else {
            let var = savings.iter().map(|s| (s - saving).powi(2)).sum::<f64>() / (n - 1) as f64;
            (var / n as f64).sqrt()
        };
        ReadmissionBreakdown {
            journal: Summary::of(journal),
            blank: Summary::of(blank),
            pairs: n,
            saving,
            saving_se,
            unreadmitted,
        }
    }

    /// Whether journal restarts readmit faster than blank ones: the mean
    /// saving is positive and at least [`SAVING_SIGNIFICANCE`] standard
    /// errors above zero. `None` with fewer than two pairs, where the
    /// saving has no spread to clear.
    pub fn journal_faster(&self) -> Option<bool> {
        (self.pairs >= 2)
            .then_some(self.saving > 0.0 && self.saving >= SAVING_SIGNIFICANCE * self.saving_se)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_populations_and_pairs_the_savings() {
        let b = ReadmissionBreakdown::of([
            (Some(50), Some(10)),
            (Some(70), Some(20)),
            (Some(40), None),
        ]);
        assert_eq!(b.journal.count, 2);
        assert_eq!(b.blank.count, 3);
        assert_eq!(b.pairs, 2);
        assert_eq!(b.unreadmitted, 1);
        assert_eq!(b.saving, 45.0);
        assert_eq!(b.saving_se, 5.0);
        assert_eq!(b.journal_faster(), Some(true));
    }

    #[test]
    fn too_few_pairs_yield_no_verdict() {
        let b = ReadmissionBreakdown::of([(Some(30), Some(10))]);
        assert_eq!(b.journal_faster(), None);
        assert_eq!(ReadmissionBreakdown::of([]).journal_faster(), None);
    }

    #[test]
    fn slower_journal_is_reported_honestly() {
        let b = ReadmissionBreakdown::of([(Some(30), Some(90)), (Some(40), Some(80))]);
        assert_eq!(b.journal_faster(), Some(false));
    }

    #[test]
    fn a_saving_inside_its_own_spread_is_not_faster() {
        // Savings 2, -1, 2, -1: mean 0.5, standard error ≈ 0.87.
        let b = ReadmissionBreakdown::of([
            (Some(12), Some(10)),
            (Some(10), Some(11)),
            (Some(12), Some(10)),
            (Some(10), Some(11)),
        ]);
        assert_eq!(b.saving, 0.5);
        assert!(b.saving_se > 0.8);
        assert_eq!(b.journal_faster(), Some(false));
    }

    #[test]
    fn a_steady_saving_is_faster() {
        // Every pair saves exactly 3 ticks: no spread at all.
        let b = ReadmissionBreakdown::of([(Some(13), Some(10)), (Some(23), Some(20))]);
        assert_eq!(b.saving_se, 0.0);
        assert_eq!(b.journal_faster(), Some(true));
    }
}
