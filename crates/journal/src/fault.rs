//! Adversarial faults in the stable storage itself.
//!
//! Mirrors the network `FaultPlan` idiom: a [`StorageFaultPlan`] is a
//! cheap, cloneable description built with chained setters, seeded so
//! every corruption is a deterministic function of `(seed, process,
//! commit count)`. Faults are applied *at load time* by
//! [`FaultyJournal`], which wraps a [`MemJournal`]: commits are recorded
//! faithfully, and the damage a crash would reveal (a torn prefix, a
//! rotted bit, a stale or never-synced snapshot) is materialized only
//! when the restarted process reads the journal back. Applying damage
//! lazily keeps the write path identical to the fault-free one, which is
//! what lets a journaling run with no restarts stay byte-identical to a
//! non-journaling run of the same seed.

use crate::store::{JournalHandle, JournalStore, MemJournal, MEM_HISTORY};
use ekbd_graph::random::mix64;
use ekbd_graph::ProcessId;

/// One way the stable storage can betray a process at restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The final commit tore: only a proper prefix of the record made it
    /// to disk. The decoder rejects it; recovery goes blank.
    TornWrite,
    /// A single bit of the record rotted at rest. The CRC rejects it;
    /// recovery goes blank.
    BitRot,
    /// A flush epoch never became durable: the load returns the record
    /// from [`STALE_EPOCH`] commits back (valid, decodable — but provably
    /// behind what peers have observed via commit-stamped messages).
    StaleSnapshot,
    /// A long run of syncs was silently dropped: the load returns the
    /// oldest retained record, or nothing at all if the history window
    /// is too short.
    DroppedSync,
}

impl StorageFault {
    /// Every storage fault, in declaration order.
    pub const ALL: [StorageFault; 4] = [
        StorageFault::TornWrite,
        StorageFault::BitRot,
        StorageFault::StaleSnapshot,
        StorageFault::DroppedSync,
    ];

    /// The fault's name in `ekbd run --storage-fault` and in chaos
    /// schedules: `torn`, `rot`, `stale` or `dropped`.
    pub fn name(self) -> &'static str {
        match self {
            StorageFault::TornWrite => "torn",
            StorageFault::BitRot => "rot",
            StorageFault::StaleSnapshot => "stale",
            StorageFault::DroppedSync => "dropped",
        }
    }

    /// The fault [`name`](Self::name) names, if any.
    pub fn from_name(name: &str) -> Option<StorageFault> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// How far back a [`StorageFault::StaleSnapshot`] rolls the journal:
/// one flush epoch, i.e. half the dense retention window. Rolling back a
/// single commit would be adversarially minimal but *information-
/// theoretically undetectable* whenever the victim's final transitions
/// sent nothing (the usual case right before an arbitrary crash instant);
/// an epoch-deep rollback overlaps commits whose stamped messages peers
/// did observe, which is exactly what the sequence comparison refutes.
pub const STALE_EPOCH: usize = MEM_HISTORY / 2;

/// Deterministic, per-process plan of storage faults.
///
/// At most one fault mode per process (the last setter wins), matching
/// how a single restart observes the storage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StorageFaultPlan {
    seed: u64,
    faults: Vec<(ProcessId, StorageFault)>,
}

impl StorageFaultPlan {
    /// An inert plan: every journal behaves perfectly.
    pub fn new() -> Self {
        StorageFaultPlan::default()
    }

    /// Sets the seed from which per-process corruption entropy derives.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects `fault` into process `p`'s journal.
    pub fn fault(mut self, p: ProcessId, fault: StorageFault) -> Self {
        self.faults.push((p, fault));
        self
    }

    /// Tears the final commit of `p`'s journal (prefix-only record).
    pub fn torn_write(self, p: ProcessId) -> Self {
        self.fault(p, StorageFault::TornWrite)
    }

    /// Rots one bit of `p`'s journaled record.
    pub fn bit_rot(self, p: ProcessId) -> Self {
        self.fault(p, StorageFault::BitRot)
    }

    /// Serves `p` a valid but epoch-stale record ([`STALE_EPOCH`] commits
    /// behind the truth).
    pub fn stale_snapshot(self, p: ProcessId) -> Self {
        self.fault(p, StorageFault::StaleSnapshot)
    }

    /// Drops `p`'s recent syncs, serving the oldest retained record.
    pub fn dropped_sync(self, p: ProcessId) -> Self {
        self.fault(p, StorageFault::DroppedSync)
    }

    /// The fault mode injected for `p`, if any (last setter wins).
    pub fn fault_for(&self, p: ProcessId) -> Option<StorageFault> {
        self.faults
            .iter()
            .rev()
            .find(|(q, _)| *q == p)
            .map(|&(_, f)| f)
    }

    /// True when the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builds the journal store for process `p` under this plan: a plain
    /// in-memory journal when `p` is unaffected, otherwise one wrapped in
    /// the fault injector.
    pub fn store_for(&self, p: ProcessId) -> JournalHandle {
        match self.fault_for(p) {
            None => JournalHandle::in_memory(),
            Some(mode) => JournalHandle::new(FaultyJournal::new(mode, entropy(self.seed, p))),
        }
    }
}

/// splitmix64-derived corruption entropy for one process.
fn entropy(seed: u64, p: ProcessId) -> u64 {
    mix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(p.0 as u64)
            .wrapping_add(0x6a09_e667_f3bc_c909),
    )
}

/// A [`MemJournal`] whose loads pass through one [`StorageFault`].
///
/// Writes are faithful; the fault is a deterministic function of the
/// wrapped journal's commit count and the plan entropy, so the same
/// scenario seed always reveals the same damage.
#[derive(Clone, Debug)]
pub struct FaultyJournal {
    inner: MemJournal,
    mode: StorageFault,
    entropy: u64,
}

impl FaultyJournal {
    /// Wraps a fresh in-memory journal in fault `mode`.
    pub fn new(mode: StorageFault, entropy: u64) -> Self {
        FaultyJournal {
            inner: MemJournal::new(),
            mode,
            entropy,
        }
    }

    fn draw(&self) -> u64 {
        mix64(
            self.entropy
                .wrapping_add(self.inner.writes().wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
    }
}

impl JournalStore for FaultyJournal {
    fn commit(&mut self, record: &[u8]) {
        self.inner.commit(record);
    }

    fn load(&mut self) -> Option<Vec<u8>> {
        match self.mode {
            StorageFault::TornWrite => {
                let bytes = self.inner.load()?;
                if bytes.is_empty() {
                    return Some(bytes);
                }
                // A proper, non-empty prefix of the record.
                let cut = 1 + (self.draw() as usize) % bytes.len().max(2).saturating_sub(1);
                Some(bytes[..cut.min(bytes.len() - 1)].to_vec())
            }
            StorageFault::BitRot => {
                let mut bytes = self.inner.load()?;
                if bytes.is_empty() {
                    return Some(bytes);
                }
                let d = self.draw();
                let byte = (d as usize / 8) % bytes.len();
                bytes[byte] ^= 1 << (d % 8);
                Some(bytes)
            }
            StorageFault::StaleSnapshot => self.inner.nth_back(STALE_EPOCH),
            StorageFault::DroppedSync => self.inner.nth_back(MEM_HISTORY - 1),
        }
    }

    fn commit_seq(&self) -> u64 {
        self.inner.commit_seq()
    }

    fn history(&mut self, k: usize) -> Option<Vec<u8>> {
        // History is shifted by the same lie the latest-record load
        // tells: what reads as "k back" sits k slots behind whatever
        // `load` serves, so recovery's history scan sees a consistent
        // (faulted) past. Undecodable-latest modes serve the truthful
        // at-rest records behind the damaged head.
        match self.mode {
            StorageFault::TornWrite | StorageFault::BitRot => {
                if k == 0 {
                    self.load()
                } else {
                    self.inner.nth_back(k)
                }
            }
            StorageFault::StaleSnapshot => self.inner.nth_back(k + STALE_EPOCH),
            StorageFault::DroppedSync => self.inner.nth_back(MEM_HISTORY - 1 + k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BootPath, EdgeRecord, JournalRecord, ResyncPath};

    #[test]
    fn every_fault_is_found_by_its_name() {
        for f in StorageFault::ALL {
            assert_eq!(StorageFault::from_name(f.name()), Some(f));
        }
        assert_eq!(StorageFault::from_name("melted"), None);
    }

    fn record(inc: u64) -> Vec<u8> {
        JournalRecord {
            seq: inc + 1,
            tick: inc * 10,
            incarnation: inc,
            phase: 0,
            doorway: false,
            boot: BootPath::Genesis,
            edges: vec![EdgeRecord {
                peer: 1,
                peer_inc: 0,
                flags: 0x30,
                synced: true,
                resume_pending: false,
                resync: ResyncPath::None,
            }],
        }
        .encode()
    }

    #[test]
    fn builder_records_last_fault_per_process() {
        let plan = StorageFaultPlan::new()
            .seed(7)
            .torn_write(ProcessId(0))
            .bit_rot(ProcessId(0))
            .stale_snapshot(ProcessId(2));
        assert!(!plan.is_inert());
        assert_eq!(plan.fault_for(ProcessId(0)), Some(StorageFault::BitRot));
        assert_eq!(
            plan.fault_for(ProcessId(2)),
            Some(StorageFault::StaleSnapshot)
        );
        assert_eq!(plan.fault_for(ProcessId(1)), None);
        assert!(StorageFaultPlan::new().is_inert());
    }

    #[test]
    fn torn_write_yields_undecodable_prefix() {
        let mut j = FaultyJournal::new(StorageFault::TornWrite, 0xDEAD);
        j.commit(&record(1));
        let got = j.load().unwrap();
        assert!(got.len() < record(1).len());
        assert!(JournalRecord::decode(&got).is_err());
    }

    #[test]
    fn bit_rot_yields_undecodable_record() {
        let mut j = FaultyJournal::new(StorageFault::BitRot, 0xBEEF);
        j.commit(&record(1));
        let got = j.load().unwrap();
        assert_eq!(got.len(), record(1).len());
        assert!(JournalRecord::decode(&got).is_err());
    }

    #[test]
    fn stale_snapshot_serves_an_epoch_old_commit() {
        let mut j = FaultyJournal::new(StorageFault::StaleSnapshot, 1);
        for inc in 1..=STALE_EPOCH as u64 {
            j.commit(&record(inc));
        }
        assert_eq!(j.load(), None, "younger than one epoch: nothing durable");
        j.commit(&record(STALE_EPOCH as u64 + 1));
        assert_eq!(j.load(), Some(record(1)), "epoch-deep rollback");
        // The history lens is shifted by the same lie.
        assert_eq!(j.history(0), j.load());
        assert_eq!(j.history(1), None);
    }

    #[test]
    fn dropped_sync_serves_oldest_retained_or_nothing() {
        let mut j = FaultyJournal::new(StorageFault::DroppedSync, 1);
        for inc in 0..5 {
            j.commit(&record(inc));
        }
        assert_eq!(j.load(), None, "short history: nothing became durable");
        for inc in 5..40 {
            j.commit(&record(inc));
        }
        assert_eq!(j.load(), Some(record(40 - MEM_HISTORY as u64)));
    }

    #[test]
    fn faults_are_deterministic() {
        let mk = || {
            let mut j = FaultyJournal::new(StorageFault::BitRot, 42);
            j.commit(&record(9));
            j.load().unwrap()
        };
        assert_eq!(mk(), mk());
    }
}
