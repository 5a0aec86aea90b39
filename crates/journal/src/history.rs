//! Bounded commit history with milestone compaction.
//!
//! Both journal backends retain the same shape of history: a dense window
//! of the most recent commits (every record, in order) plus a compacted
//! tail of *milestones* — for each incarnation that has aged out of the
//! dense window, its first and last evicted records. Milestones keep the
//! restart boundaries alive for post-mortem replay (when did each
//! incarnation start, what state did it end in) while the retained size
//! stays bounded by `cap + 2 × incarnations` instead of growing with the
//! commit count.
//!
//! Records are opaque bytes at this layer; classification for compaction
//! uses [`crate::codec::peek`], which reads only the header. Bytes that
//! do not even carry the magic (nothing a real commit produces) are
//! dropped at eviction rather than guessed about.
//!
//! A commit copies the caller's bytes into a buffer compaction dropped
//! earlier, so a steady stream of commits allocates nothing.

use crate::codec::peek;
use std::collections::VecDeque;

/// A bounded, compacting window of committed records.
#[derive(Clone, Debug, Default)]
pub struct HistoryWindow {
    /// Dense window of the most recent commits, oldest first.
    recent: VecDeque<Vec<u8>>,
    /// Milestone records evicted from the dense window, oldest first: at
    /// most the first and last record per evicted incarnation.
    compacted: Vec<Vec<u8>>,
    /// Dense-window capacity.
    cap: usize,
    /// Total commits ever pushed.
    writes: u64,
    /// Emptied buffers of records compaction dropped, for the next pushes
    /// to copy into; at most about one window's worth.
    spare: Vec<Vec<u8>>,
}

impl HistoryWindow {
    /// An empty window retaining up to `cap` dense records.
    pub fn new(cap: usize) -> Self {
        HistoryWindow {
            recent: VecDeque::with_capacity(cap),
            compacted: Vec::new(),
            cap: cap.max(1),
            writes: 0,
            spare: Vec::new(),
        }
    }

    /// Appends a copy of one committed record, rotating the dense window
    /// into the compacted tail when full. Returns `true` when a rotation
    /// happened (file-backed stores rewrite their predecessor segment on
    /// rotation).
    pub fn push(&mut self, record: &[u8]) -> bool {
        self.writes += 1;
        let rotated = self.recent.len() >= self.cap;
        if rotated {
            for r in self.recent.drain(..) {
                if let Some(mut dropped) = absorb_milestone(&mut self.compacted, r) {
                    dropped.clear();
                    self.spare.push(dropped);
                }
            }
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.extend_from_slice(record);
        self.recent.push_back(buf);
        rotated
    }

    /// Total commits ever pushed (not capped by retention).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Retained record count (dense + compacted).
    pub fn retained(&self) -> usize {
        self.recent.len() + self.compacted.len()
    }

    /// The latest record, if any.
    pub fn latest(&self) -> Option<&Vec<u8>> {
        self.recent.back().or_else(|| self.compacted.last())
    }

    /// The `k`-th most recently *retained* record (`0` = latest): walks
    /// the dense window backwards, then the compacted milestones.
    pub fn nth_back(&self, k: usize) -> Option<&Vec<u8>> {
        if k < self.recent.len() {
            return self.recent.get(self.recent.len() - 1 - k);
        }
        let k = k - self.recent.len();
        if k < self.compacted.len() {
            return self.compacted.get(self.compacted.len() - 1 - k);
        }
        None
    }

    /// All retained records, oldest first.
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.compacted.iter().chain(self.recent.iter())
    }

    /// The dense window, oldest first (the file store's active segment).
    pub fn dense(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.recent.iter()
    }

    /// The compacted milestones, oldest first (the file store's
    /// predecessor segment).
    pub fn milestones(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.compacted.iter()
    }

    /// Rebuilds a window from already-persisted segments (used by the
    /// file store at boot). `writes` is seeded from the retained count —
    /// the floor of what was ever committed.
    pub fn from_segments(compacted: Vec<Vec<u8>>, recent: Vec<Vec<u8>>, cap: usize) -> Self {
        let writes = (compacted.len() + recent.len()) as u64;
        HistoryWindow {
            recent: recent.into(),
            compacted,
            cap: cap.max(1),
            writes,
            spare: Vec::new(),
        }
    }
}

/// Folds one evicted record into the milestone tail: per incarnation,
/// keep the first evicted record and the most recent one. Evictions
/// arrive oldest-first and incarnations are monotone, so only the tail
/// can share an incarnation with the newcomer. Returns the buffer that
/// no longer belongs to the history, if any.
fn absorb_milestone(compacted: &mut Vec<Vec<u8>>, record: Vec<u8>) -> Option<Vec<u8>> {
    let Some(meta) = peek(&record) else {
        // Not a journal record (nothing the commit path produces); there
        // is no incarnation to file it under, so it does not survive
        // compaction.
        return Some(record);
    };
    let inc_of = |r: &[u8]| peek(r).map(|m| m.incarnation);
    let n = compacted.len();
    let last_inc = n.checked_sub(1).and_then(|i| inc_of(&compacted[i]));
    let prev_inc = n.checked_sub(2).and_then(|i| inc_of(&compacted[i]));
    if last_inc == Some(meta.incarnation) && prev_inc == Some(meta.incarnation) {
        // First and latest of this incarnation already held: slide the
        // "latest" milestone forward.
        Some(std::mem::replace(&mut compacted[n - 1], record))
    } else {
        compacted.push(record);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BootPath, JournalRecord};

    fn rec(seq: u64, inc: u64) -> Vec<u8> {
        JournalRecord {
            seq,
            tick: seq * 10,
            incarnation: inc,
            phase: 0,
            doorway: false,
            boot: BootPath::Genesis,
            edges: vec![],
        }
        .encode()
    }

    #[test]
    fn dense_window_serves_exact_history() {
        let mut w = HistoryWindow::new(4);
        for s in 1..=4 {
            assert!(!w.push(&rec(s, 0)));
        }
        assert_eq!(w.latest(), Some(&rec(4, 0)));
        assert_eq!(w.nth_back(3), Some(&rec(1, 0)));
        assert_eq!(w.nth_back(4), None);
    }

    #[test]
    fn rotation_compacts_to_incarnation_milestones() {
        let mut w = HistoryWindow::new(4);
        // Incarnation 0: seq 1..=6 — more than one window's worth.
        for s in 1..=6 {
            w.push(&rec(s, 0));
        }
        // Incarnation 1: seq 7..=11 — forces another rotation.
        for s in 7..=11 {
            w.push(&rec(s, 1));
        }
        assert_eq!(w.writes(), 11);
        // Dense: the records after the last rotation.
        let dense: Vec<_> = w.dense().cloned().collect();
        assert_eq!(dense, vec![rec(9, 1), rec(10, 1), rec(11, 1)]);
        // Compacted: first+last evicted of inc 0, then the evicted of
        // inc 1 so far (only one eviction batch has hit it).
        let miles: Vec<_> = w.milestones().cloned().collect();
        assert_eq!(miles.first(), Some(&rec(1, 0)));
        assert!(miles.contains(&rec(7, 1)));
        // No incarnation holds more than 2 milestones.
        for inc in [0u64, 1] {
            let per = miles
                .iter()
                .filter(|r| peek(r).unwrap().incarnation == inc)
                .count();
            assert!(per <= 2, "inc {inc} kept {per} milestones");
        }
        // nth_back spans dense then compacted seamlessly.
        assert_eq!(w.nth_back(0), Some(&rec(11, 1)));
        assert_eq!(w.nth_back(2), Some(&rec(9, 1)));
        assert_eq!(w.nth_back(3), Some(&miles[miles.len() - 1]));
    }

    #[test]
    fn unparseable_bytes_do_not_survive_compaction() {
        let mut w = HistoryWindow::new(2);
        w.push(b"junk-1");
        w.push(b"junk-2");
        w.push(&rec(1, 0)); // rotation: junk evicted, dropped
        assert_eq!(w.retained(), 1);
        assert_eq!(w.latest(), Some(&rec(1, 0)));
    }

    /// The window as documented, rebuilt from fresh `Vec`s: the dense part
    /// is every record since the last rotation, and the milestones are the
    /// first and last of each run of one incarnation among the parseable
    /// records evicted before it.
    fn reference(pushed: &[Vec<u8>], cap: usize) -> Vec<Vec<u8>> {
        let dense = match pushed.len() {
            0 => 0,
            n => (n - 1) % cap + 1,
        };
        let (evicted, recent) = pushed.split_at(pushed.len() - dense);
        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut run: Option<(u64, Vec<u8>, Option<Vec<u8>>)> = None;
        for r in evicted {
            let Some(meta) = peek(r) else { continue };
            match &mut run {
                Some((inc, _, last)) if *inc == meta.incarnation => *last = Some(r.clone()),
                _ => {
                    if let Some((_, first, last)) = run.take() {
                        out.push(first);
                        out.extend(last);
                    }
                    run = Some((meta.incarnation, r.clone(), None));
                }
            }
        }
        if let Some((_, first, last)) = run {
            out.push(first);
            out.extend(last);
        }
        out.extend(recent.iter().cloned());
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A window that copies into recycled buffers serves exactly what
        /// the documented window over fresh `Vec`s would, over incarnation
        /// sequences (with the odd unparseable record) that cross many
        /// rotations.
        #[test]
        fn recycled_buffers_serve_the_same_history(
            cap in 1usize..8,
            steps in proptest::collection::vec((0u8..10, 0u8..16), 0..120),
        ) {
            let mut w = HistoryWindow::new(cap);
            let mut mem = crate::store::MemJournal::new();
            let mut pushed = Vec::new();
            let mut inc = 0;
            for (seq, &(bump, junk)) in steps.iter().enumerate() {
                // Mostly the same incarnation, sometimes the next ones.
                inc += u64::from(bump.saturating_sub(7));
                let r = if junk == 0 {
                    b"junk".to_vec()
                } else {
                    rec(seq as u64 + 1, inc)
                };
                w.push(&r);
                crate::store::JournalStore::commit(&mut mem, &r);
                pushed.push(r);
                let want = reference(&pushed, cap);
                let got: Vec<Vec<u8>> = w.iter_oldest_first().cloned().collect();
                proptest::prop_assert_eq!(&got, &want);
                for k in 0..=want.len() {
                    proptest::prop_assert_eq!(
                        w.nth_back(k),
                        want.len().checked_sub(k + 1).map(|i| &want[i])
                    );
                }
            }
            proptest::prop_assert_eq!(mem.dump(), reference(&pushed, crate::store::MEM_HISTORY));
        }
    }

    #[test]
    fn from_segments_restores_order_and_writes_floor() {
        let w = HistoryWindow::from_segments(vec![rec(1, 0)], vec![rec(2, 0), rec(3, 0)], 4);
        assert_eq!(w.writes(), 3);
        assert_eq!(w.latest(), Some(&rec(3, 0)));
        assert_eq!(w.nth_back(2), Some(&rec(1, 0)));
        let all: Vec<_> = w.iter_oldest_first().cloned().collect();
        assert_eq!(all, vec![rec(1, 0), rec(2, 0), rec(3, 0)]);
    }
}
