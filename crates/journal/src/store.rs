//! Journal backends and the shareable handle.

use crate::history::HistoryWindow;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Dense-window size of [`MemJournal`]; the storage fault layer reaches
/// back into this window to serve stale snapshots and to model dropped
/// syncs.
pub const MEM_HISTORY: usize = 16;

/// Active-segment capacity of [`FileJournal`]: when the segment holds
/// this many records, the next commit first rotates it into the
/// compacted predecessor segment.
pub const FILE_SEGMENT_CAP: usize = 16;

/// A stable-storage backend for write-ahead journal records.
///
/// Backends store opaque bytes — encoding, checksums, and validation live
/// in [`crate::codec`] — so a byte-level fault injector can sit between
/// the algorithm and the store without understanding the format. Every
/// backend retains a bounded, compacting history of past commits (see
/// [`crate::history`]) on top of the latest record recovery replays.
pub trait JournalStore: Send {
    /// Durably appends `record` as the latest journal contents (one
    /// commit per state transition).
    fn commit(&mut self, record: &[u8]);

    /// Reads back the latest record, `None` when nothing has ever been
    /// committed (first boot) or the backing storage is gone.
    fn load(&mut self) -> Option<Vec<u8>>;

    /// Total commits ever issued to this store (not capped by
    /// retention). The next committed record is number `commit_seq + 1`.
    fn commit_seq(&self) -> u64;

    /// The `k`-th most recently *retained* record (`0` = latest, i.e.
    /// what [`JournalStore::load`] serves); `None` past the retained
    /// history.
    fn history(&mut self, k: usize) -> Option<Vec<u8>>;
}

/// In-memory backend for the deterministic simulator.
///
/// Keeps a bounded, compacting history of commits (dense recent window
/// plus per-incarnation milestones) so the fault layer can serve older
/// records and post-mortem replay can reconstruct restarts.
#[derive(Clone, Debug)]
pub struct MemJournal {
    window: HistoryWindow,
}

impl Default for MemJournal {
    fn default() -> Self {
        MemJournal::new()
    }
}

impl MemJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        MemJournal {
            window: HistoryWindow::new(MEM_HISTORY),
        }
    }

    /// Total commits ever issued (not capped by the retained window).
    pub fn writes(&self) -> u64 {
        self.window.writes()
    }

    /// The record committed `k` retained records before the latest
    /// (`0` = latest); `None` when the history does not reach that far
    /// back. Within the dense window this is exactly "`k` commits ago";
    /// past it, the compacted milestones answer.
    pub fn nth_back(&self, k: usize) -> Option<Vec<u8>> {
        self.window.nth_back(k).cloned()
    }

    /// All retained records, oldest first.
    pub fn dump(&self) -> Vec<Vec<u8>> {
        self.window.iter_oldest_first().cloned().collect()
    }
}

impl JournalStore for MemJournal {
    fn commit(&mut self, record: &[u8]) {
        self.window.push(record);
    }

    fn load(&mut self) -> Option<Vec<u8>> {
        self.window.latest().cloned()
    }

    fn commit_seq(&self) -> u64 {
        self.window.writes()
    }

    fn history(&mut self, k: usize) -> Option<Vec<u8>> {
        self.window.nth_back(k).cloned()
    }
}

/// File-backed journal for the threaded runtime.
///
/// On-disk layout: two *segment* files, each a sequence of
/// length-prefixed records (`u32` LE length, then the record bytes):
///
/// * `<path>` — the active segment, rewritten on every commit,
/// * `<path>.old` — the compacted predecessor, rewritten on rotation
///   with the per-incarnation milestones of everything evicted so far.
///
/// Every segment write goes through a sibling `<path>.tmp`:
/// write → `File::sync_all` → atomic rename over the target → fsync of
/// the parent directory, in that order, so a committed record survives
/// power loss and a crash mid-commit leaves either the old segment or
/// the new one — never a mix. I/O errors are swallowed: a journal that
/// fails to persist simply looks *missing* at the next restart, which
/// recovery handles by falling back to the blank rejoin path. A stray
/// `<path>.tmp` left by a crash between write and rename is swept (never
/// loaded) when the journal is reopened.
#[derive(Clone, Debug)]
pub struct FileJournal {
    path: PathBuf,
    old: PathBuf,
    tmp: PathBuf,
    window: HistoryWindow,
}

/// Appends `suffix` to a path's file name (not its extension).
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.to_path_buf().into_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Parses a segment file: length-prefixed records until EOF. A torn tail
/// (short frame) ends the parse; the records before it survive.
pub(crate) fn parse_segment(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + 4 <= bytes.len() {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let Some(end) = at.checked_add(4).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        records.push(bytes[at + 4..end].to_vec());
        at = end;
    }
    records
}

pub(crate) fn read_segment(path: &Path) -> Vec<Vec<u8>> {
    std::fs::read(path)
        .map(|b| parse_segment(&b))
        .unwrap_or_default()
}

/// Writes `records` (oldest first) as one framed segment at `path` — the
/// `FileJournal` on-disk format, readable by [`crate::replay::load_dir`].
/// Post-mortem dumps use this instead of re-committing through a
/// `FileJournal` so the retained set round-trips verbatim: re-running
/// compaction on an already-compacted history would shrink it further.
pub fn write_snapshot(path: &Path, records: &[Vec<u8>]) -> std::io::Result<()> {
    let mut buf = Vec::new();
    for r in records {
        buf.extend_from_slice(&(r.len() as u32).to_le_bytes());
        buf.extend_from_slice(r);
    }
    std::fs::write(path, buf)
}

impl FileJournal {
    /// Journals to `path` (plus siblings `<path>.old` and `<path>.tmp`);
    /// the parent directory must exist. Reopening an existing journal
    /// loads both persisted segments and sweeps any stray temp file a
    /// crash mid-commit left behind.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let old = sibling(&path, ".old");
        let tmp = sibling(&path, ".tmp");
        // Satellite fix: a crash between temp write and rename must not
        // leave `<path>.tmp` around forever — and it must never be
        // mistaken for a committed record.
        let _ = std::fs::remove_file(&tmp);
        let window =
            HistoryWindow::from_segments(read_segment(&old), read_segment(&path), FILE_SEGMENT_CAP);
        FileJournal {
            path,
            old,
            tmp,
            window,
        }
    }

    /// The active-segment file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All retained records, oldest first.
    pub fn dump(&self) -> Vec<Vec<u8>> {
        self.window.iter_oldest_first().cloned().collect()
    }

    /// Durably replaces `target` with the framed `records`, in the
    /// pinned order: write temp → sync file → rename → sync parent dir.
    /// Any failure abandons the attempt (the record is simply missing at
    /// the next boot).
    fn write_segment(
        &self,
        target: &Path,
        records: impl Iterator<Item = impl AsRef<[u8]>>,
    ) -> bool {
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&self.tmp)?;
            for r in records {
                let r = r.as_ref();
                f.write_all(&(r.len() as u32).to_le_bytes())?;
                f.write_all(r)?;
            }
            // Flush the data before the rename publishes it: a rename
            // that lands without its contents is exactly the torn commit
            // the journal exists to rule out.
            f.sync_all()?;
            std::fs::rename(&self.tmp, target)?;
            // The rename itself lives in the directory: sync it too, or
            // power loss can forget the publish.
            if let Some(dir) = target.parent() {
                File::open(dir)?.sync_all()?;
            }
            Ok(())
        };
        write().is_ok()
    }
}

impl JournalStore for FileJournal {
    fn commit(&mut self, record: &[u8]) {
        let rotated = self.window.push(record);
        if rotated {
            // The dense window just folded into the milestones: persist
            // the new predecessor segment first, so the active segment
            // never shrinks before its evictees are durable.
            self.write_segment(&self.old, self.window.milestones());
        }
        self.write_segment(&self.path, self.window.dense());
    }

    fn load(&mut self) -> Option<Vec<u8>> {
        // Serve what is actually on disk, not the in-memory mirror: a
        // failed sync means the record is missing at the next boot.
        read_segment(&self.path)
            .pop()
            .or_else(|| read_segment(&self.old).pop())
    }

    fn commit_seq(&self) -> u64 {
        self.window.writes()
    }

    fn history(&mut self, k: usize) -> Option<Vec<u8>> {
        self.window.nth_back(k).cloned()
    }
}

/// Cloneable handle to a shared [`JournalStore`].
///
/// The recovery layer keeps one of these per process; clones share the
/// same underlying store, so a restarted incarnation constructed from
/// the same handle reads what the previous life committed.
#[derive(Clone)]
pub struct JournalHandle {
    store: Arc<Mutex<dyn JournalStore>>,
}

impl JournalHandle {
    /// Wraps any backend in a shareable handle.
    pub fn new(store: impl JournalStore + 'static) -> Self {
        JournalHandle {
            store: Arc::new(Mutex::new(store)),
        }
    }

    /// Convenience: a fresh in-memory journal.
    pub fn in_memory() -> Self {
        JournalHandle::new(MemJournal::new())
    }

    /// Commits `record` as the current journal contents.
    pub fn commit(&self, record: &[u8]) {
        self.store
            .lock()
            .expect("journal store poisoned")
            .commit(record);
    }

    /// Loads the current journal contents.
    pub fn load(&self) -> Option<Vec<u8>> {
        self.store.lock().expect("journal store poisoned").load()
    }

    /// Total commits ever issued through this store.
    pub fn commit_seq(&self) -> u64 {
        self.store
            .lock()
            .expect("journal store poisoned")
            .commit_seq()
    }

    /// The `k`-th most recently retained record (`0` = latest).
    pub fn history(&self, k: usize) -> Option<Vec<u8>> {
        self.store
            .lock()
            .expect("journal store poisoned")
            .history(k)
    }

    /// All retained records, oldest first (walks `history` down from the
    /// deepest retained record).
    pub fn dump(&self) -> Vec<Vec<u8>> {
        let mut store = self.store.lock().expect("journal store poisoned");
        let mut out = Vec::new();
        let mut k = 0usize;
        while let Some(r) = store.history(k) {
            out.push(r);
            k += 1;
        }
        out.reverse();
        out
    }
}

impl fmt::Debug for JournalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JournalHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BootPath, JournalRecord};

    fn rec(seq: u64, inc: u64) -> Vec<u8> {
        JournalRecord {
            seq,
            tick: seq,
            incarnation: inc,
            phase: 0,
            doorway: false,
            boot: BootPath::Genesis,
            edges: vec![],
        }
        .encode()
    }

    #[test]
    fn mem_journal_serves_latest_and_history() {
        let mut j = MemJournal::new();
        assert_eq!(j.load(), None);
        for s in 1..=20u64 {
            j.commit(&rec(s, 0));
        }
        assert_eq!(j.writes(), 20);
        assert_eq!(j.commit_seq(), 20);
        assert_eq!(j.load(), Some(rec(20, 0)));
        assert_eq!(j.nth_back(0), Some(rec(20, 0)));
        assert_eq!(j.nth_back(3), Some(rec(17, 0)));
        // The 20 commits rotated once at commit 17: dense = 17..=20,
        // compacted milestones of inc 0 = {first=1, last-evicted=16}.
        assert_eq!(j.nth_back(3), j.history(3));
        assert_eq!(j.nth_back(4), Some(rec(16, 0)));
        assert_eq!(j.nth_back(5), Some(rec(1, 0)));
        assert_eq!(j.nth_back(6), None);
        let dump = j.dump();
        assert_eq!(dump.first(), Some(&rec(1, 0)));
        assert_eq!(dump.last(), Some(&rec(20, 0)));
    }

    /// Satellite: `nth_back` exactly at the wrap-around boundary, where
    /// the dense window hands over to the compacted milestones.
    #[test]
    fn mem_journal_nth_back_at_wrap_around_boundary() {
        let mut j = MemJournal::new();
        // Exactly fill the dense window: no rotation yet.
        for s in 1..=MEM_HISTORY as u64 {
            j.commit(&rec(s, 0));
        }
        assert_eq!(j.nth_back(MEM_HISTORY - 1), Some(rec(1, 0)));
        assert_eq!(j.nth_back(MEM_HISTORY), None);
        // One more commit rotates: dense = [17], milestones = {1, 16}.
        j.commit(&rec(MEM_HISTORY as u64 + 1, 0));
        assert_eq!(j.nth_back(0), Some(rec(17, 0)));
        assert_eq!(j.nth_back(1), Some(rec(16, 0)), "boundary: last evicted");
        assert_eq!(j.nth_back(2), Some(rec(1, 0)), "boundary: first milestone");
        assert_eq!(j.nth_back(3), None);
    }

    #[test]
    fn handle_clones_share_the_store() {
        let h = JournalHandle::in_memory();
        let h2 = h.clone();
        h.commit(b"abc");
        assert_eq!(h2.load(), Some(b"abc".to_vec()));
        assert_eq!(h2.commit_seq(), 1);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ekbd-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_journal_commit_load_round_trip() {
        let dir = temp_dir("round-trip");
        let mut j = FileJournal::new(dir.join("p0.journal"));
        assert_eq!(j.load(), None);
        j.commit(&rec(1, 0));
        assert_eq!(j.load(), Some(rec(1, 0)));
        j.commit(&rec(2, 0));
        assert_eq!(j.load(), Some(rec(2, 0)));
        assert_eq!(j.commit_seq(), 2);
        assert_eq!(j.history(1), Some(rec(1, 0)));
        // No stray temp file survives a completed commit.
        assert!(!j.tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a stray `<path>.tmp` left by a crash between
    /// temp write and rename is swept on reopen and never loaded.
    #[test]
    fn stray_tmp_is_swept_and_never_loaded() {
        let dir = temp_dir("stray-tmp");
        let path = dir.join("p0.journal");
        let tmp = sibling(&path, ".tmp");
        std::fs::write(&tmp, b"half-a-commit").unwrap();
        let mut j = FileJournal::new(&path);
        assert!(!tmp.exists(), "stray tmp must be swept on open");
        assert_eq!(j.load(), None, "stray tmp must never serve as a record");
        j.commit(&rec(1, 0));
        assert_eq!(j.load(), Some(rec(1, 0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: the durable-commit sequence (write temp → sync → rename
    /// → sync dir) is pinned by its observable contract: the active
    /// segment on disk is whole and parseable after every commit, the
    /// temp never lingers, and a journal whose directory vanished
    /// swallows the error — the record is simply missing at reboot.
    #[test]
    fn commit_sequence_is_atomic_and_error_swallowing() {
        let dir = temp_dir("atomic");
        let path = dir.join("p0.journal");
        let mut j = FileJournal::new(&path);
        for s in 1..=(FILE_SEGMENT_CAP as u64 + 3) {
            j.commit(&rec(s, 0));
            // After every commit the published segment parses whole and
            // ends with the record just committed: the rename only ever
            // publishes fully-synced contents.
            let on_disk = read_segment(&path);
            assert_eq!(on_disk.last(), Some(&rec(s, 0)), "commit {s}");
            assert!(!sibling(&path, ".tmp").exists(), "commit {s}: stray tmp");
        }
        // The rotation persisted the predecessor segment too.
        assert!(sibling(&path, ".old").exists(), "rotation wrote .old");
        // Rip the directory away: commits must not panic, and the record
        // is treated as missing at the next boot.
        std::fs::remove_dir_all(&dir).unwrap();
        j.commit(&rec(99, 0));
        let mut reopened = FileJournal::new(&path);
        assert_eq!(reopened.load(), None, "failed sync ⇒ missing next boot");
    }

    #[test]
    fn file_journal_rotation_survives_reopen() {
        let dir = temp_dir("rotate");
        let path = dir.join("p0.journal");
        let mut j = FileJournal::new(&path);
        let total = FILE_SEGMENT_CAP as u64 * 2 + 5;
        for s in 1..=total {
            j.commit(&rec(s, if s <= 20 { 0 } else { 1 }));
        }
        let before = j.dump();
        drop(j);
        let mut j = FileJournal::new(&path);
        assert_eq!(j.dump(), before, "both segments reload byte-identically");
        assert_eq!(j.load(), Some(rec(total, 1)));
        // Milestones bound retention: far fewer than `total` records.
        assert!(j.dump().len() < total as usize);
        assert!(j.commit_seq() >= j.dump().len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_parser_survives_torn_tail() {
        let mut bytes = Vec::new();
        for r in [rec(1, 0), rec(2, 0)] {
            bytes.extend_from_slice(&(r.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&r);
        }
        bytes.extend_from_slice(&[7, 0, 0, 0, 1, 2]); // torn frame
        assert_eq!(parse_segment(&bytes), vec![rec(1, 0), rec(2, 0)]);
        assert_eq!(parse_segment(&[255u8; 3]), Vec::<Vec<u8>>::new());
    }
}
