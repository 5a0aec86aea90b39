//! E16 — beyond the paper: crash-consistent state journals and the
//! readmission-time savings of resuming from stable storage.
//!
//! PR 2's crash-recovery layer restarts *blank*: every edge runs the
//! rejoin handshake and receives the canonical initial placement (fork at
//! the higher color, token at the lower), so a low-color restarter comes
//! back fork-less and pays extra round trips to eat again. The journal
//! (`ekbd-journal`) commits the per-edge fork/token/deferred state and
//! doorway phase on every transition; on restart the process replays it
//! and runs the cheap `JournalResume`/`ResumeAck` confirmation instead,
//! keeping the forks it held when it crashed. Checks:
//!
//! * **Readmission savings** (per topology, ring-8 / clique-6 / grid-3x4 /
//!   Gnp-12-0.3): across seeded runs with two crash+restart pairs each,
//!   every restart is run both blank and journaled, and the mean *saving*
//!   in time-to-readmission (blank minus journaled, paired by seed and
//!   victim) is positive by at least two standard errors, with every run
//!   wait-free and mistake-free.
//! * **Storage-fault resilience** (ring-8): under every corruption mode —
//!   torn write, single-bit rot, stale snapshot, dropped sync — the
//!   restart degrades safely (undecodable journals are detected and
//!   routed to the blank path) with zero ◇WX mistakes and no starvation.
//! * **Partition-tolerant rejoin** (ring-8): a restart whose
//!   `JournalResume` is cut off by a partition keeps the edges suppressed
//!   (no algorithm traffic) until the heal, then still fast-resumes.
//!
//! Set `E16_QUICK=1` for a reduced seed sweep (CI).

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_dining::{BlankReason, RestartPath};
use ekbd_graph::{random, topology, ConflictGraph, ProcessId};
use ekbd_harness::{RunReport, Scenario, Workload};
use ekbd_journal::{StorageFault, StorageFaultPlan};
use ekbd_metrics::{ReadmissionBreakdown, SAVING_SIGNIFICANCE};
use ekbd_sim::Time;

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

/// Two crash+restart pairs. The victims (p0 and p2) are *low-color*
/// processes on every Part A topology: the canonical placement a blank
/// rejoin imposes (fork at the higher color) sends them back fork-less,
/// so their restarts are exactly where journaled truth and canonical
/// amnesia differ. (A high-color victim is gifted its forks by fiat — the
/// rewrite robs its neighbors, but that cost is invisible to the victim's
/// own readmission time.)
fn scenario(graph: ConflictGraph, seed: u64) -> Scenario {
    base(graph, seed)
        .crash(p(0), Time(700))
        .recover(p(0), Time(2_400))
        .crash(p(2), Time(1_100))
        .recover(p(2), Time(3_000))
}

fn base(graph: ConflictGraph, seed: u64) -> Scenario {
    Scenario::new(graph)
        .seed(seed)
        .perfect_oracle()
        .workload(Workload {
            sessions: 10,
            think: (1, 30),
            eat: (1, 8),
        })
        .horizon(Time(150_000))
}

/// Samples each restart's time to readmission for one run, in schedule
/// order, gating on the run's own health and on each restart taking the
/// expected path.
fn sample(report: &RunReport, journaled: bool, ok: &mut bool) -> Vec<Option<u64>> {
    *ok &= report.progress().wait_free();
    *ok &= report.exclusion().total() == 0;
    report
        .readmissions()
        .iter()
        .map(|r| {
            match r.path {
                Some(RestartPath::Journal { resumed, .. }) => {
                    *ok &= journaled && resumed > 0;
                }
                Some(RestartPath::Blank {
                    reason: BlankReason::Disabled,
                }) => *ok &= !journaled,
                _ => *ok = false,
            }
            r.time_to_readmission()
        })
        .collect()
}

fn main() {
    banner(
        "E16",
        "journaled clean restarts readmit strictly faster than blank restarts, and every storage corruption mode degrades safely",
    );
    let quick = std::env::var("E16_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let seeds: Vec<u64> = if quick {
        (42..=45).collect()
    } else {
        (42..=49).collect()
    };
    // Part A compares paired savings of a few ticks whose spread is
    // ≈ 6–9 ticks a pair, so it takes more seeds than the other parts.
    let pair_seeds: Vec<u64> = if quick {
        (42..=89).collect()
    } else {
        (42..=105).collect()
    };
    println!(
        "Each run: p0 crashes at 700 and restarts at 2400, p2 crashes at\n\
         1100 and restarts at 3000. Both victims are low-color, so a blank\n\
         restart's canonical placement returns them fork-less; the journal\n\
         instead returns the state they actually held. Perfect oracle, 10\n\
         sessions per process, {} seeds per topology ({} for Part A).{}\n",
        seeds.len(),
        pair_seeds.len(),
        if quick { " (E16_QUICK)" } else { "" }
    );

    let topologies: Vec<(&str, ConflictGraph)> = vec![
        ("ring-8", topology::ring(8)),
        ("clique-6", topology::clique(6)),
        ("grid-3x4", topology::grid(3, 4)),
        ("gnp-12-0.3", random::connected_gnp(12, 0.3, 9)),
    ];
    let mut all_ok = true;

    // ---- Part A: readmission-time savings --------------------------------
    println!(
        "Readmission savings: each restart runs blank and journaled under\n\
         the same seed; a row passes when the mean saving is at least {}\n\
         standard errors above zero.\n",
        SAVING_SIGNIFICANCE
    );
    let mut table = Table::new(&[
        "topology",
        "pairs",
        "median blank (ticks)",
        "median journal (ticks)",
        "mean saved (± se)",
        "fast resumes",
        "verdict",
    ]);
    for (name, graph) in &topologies {
        let mut ok = true;
        let mut pairs: Vec<(Option<u64>, Option<u64>)> = Vec::new();
        let mut fast_resumes = 0;
        for &seed in &pair_seeds {
            let blank = scenario(graph.clone(), seed).run_recoverable();
            let journaled = scenario(graph.clone(), seed)
                .journal(true)
                .run_recoverable();
            let b = sample(&blank, false, &mut ok);
            let j = sample(&journaled, true, &mut ok);
            ok &= b.len() == j.len();
            pairs.extend(b.into_iter().zip(j));
            fast_resumes += journaled
                .recovery
                .map(|s| s.fast_resumes)
                .unwrap_or_default();
        }
        let breakdown = ReadmissionBreakdown::of(pairs);
        ok &= breakdown.unreadmitted == 0;
        ok &= breakdown.journal_faster() == Some(true);
        all_ok &= ok;
        table.row([
            name.to_string(),
            breakdown.pairs.to_string(),
            breakdown.blank.p50.to_string(),
            breakdown.journal.p50.to_string(),
            format!("{:.2} ± {:.2}", breakdown.saving, breakdown.saving_se),
            fast_resumes.to_string(),
            verdict(ok),
        ]);
    }
    table.print();

    // ---- Part B: storage-fault resilience --------------------------------
    println!(
        "\nStorage faults (ring-8, fault on p0's journal): every corruption\n\
         mode must end readmitted with zero ◇WX mistakes; undecodable\n\
         journals (torn, rot) must be detected and rebooted blank.\n"
    );
    let modes: [(&str, StorageFault); 4] = [
        ("torn-write", StorageFault::TornWrite),
        ("bit-rot", StorageFault::BitRot),
        ("stale-snapshot", StorageFault::StaleSnapshot),
        ("dropped-sync", StorageFault::DroppedSync),
    ];
    let mut table = Table::new(&[
        "fault",
        "p0 restart path",
        "readmitted",
        "mistakes",
        "stale-refuted",
        "verdict",
    ]);
    for (label, mode) in modes {
        let mut ok = true;
        let mut path_str = String::new();
        let mut stale_refuted = 0u32;
        for &seed in &seeds {
            let report = scenario(topology::ring(8), seed)
                .storage_faults(StorageFaultPlan::new().seed(seed).fault(p(0), mode))
                .run_recoverable();
            ok &= report.progress().wait_free();
            ok &= report.exclusion().total() == 0;
            let ra = report.readmissions();
            ok &= ra.iter().all(|r| r.first_eat.is_some());
            let p0 = ra
                .iter()
                .find(|r| r.process == p(0))
                .and_then(|r| r.path)
                .expect("p0 restart logged");
            if matches!(mode, StorageFault::TornWrite | StorageFault::BitRot) {
                ok &= p0
                    == RestartPath::Blank {
                        reason: BlankReason::Corrupt,
                    };
            }
            if let RestartPath::Journal { stale, .. } = p0 {
                stale_refuted += stale;
            }
            if seed == seeds[0] {
                path_str = format!("{p0:?}");
            }
        }
        // A stale snapshot decodes, so it reaches JournalResume — and the
        // sequence comparison must refute it on at least one edge across
        // the sweep (whether a given edge is refutable depends on whether
        // the suppressed final commit's sends were ever observed; the
        // per-edge fork/token check catches the rest either way).
        if matches!(mode, StorageFault::StaleSnapshot) {
            ok &= stale_refuted > 0;
        }
        all_ok &= ok;
        table.row([
            label.to_string(),
            path_str,
            "all".into(),
            "0".into(),
            stale_refuted.to_string(),
            verdict(ok),
        ]);
    }
    table.print();

    // ---- Part C: partition-tolerant rejoin -------------------------------
    println!(
        "\nPartition-tolerant rejoin (ring-8): p0 restarts at 2400 inside a\n\
         partition (2000..=9000) cutting it from every neighbor; its resume\n\
         probes die, the unsynced edges carry no algorithm traffic, and the\n\
         audit's retry completes the fast resume after the heal.\n"
    );
    let mut table = Table::new(&[
        "seed",
        "suppressed",
        "first eat",
        "path",
        "mistakes",
        "verdict",
    ]);
    for &seed in &seeds {
        let base = scenario(topology::ring(8), seed).journal(true);
        let plan = base
            .faults
            .clone()
            .partition(vec![p(0)], Time(2_000), Time(9_000));
        let report = base.faults(plan).run_recoverable();
        let stats = report.recovery.expect("recovery layer active");
        let ra = report.readmissions();
        let p0 = ra.iter().find(|r| r.process == p(0)).expect("p0 recovery");
        let first_eat = p0.first_eat;
        let mistakes = report.exclusion().total();
        let ok = report.progress().wait_free()
            && mistakes == 0
            && stats.suppressed > 0
            && first_eat.is_some_and(|t| t >= Time(9_000))
            && matches!(p0.path, Some(RestartPath::Journal { resumed, .. }) if resumed > 0);
        all_ok &= ok;
        table.row([
            seed.to_string(),
            stats.suppressed.to_string(),
            first_eat.map_or("never".into(), |t| t.0.to_string()),
            format!("{:?}", p0.path.expect("logged")),
            mistakes.to_string(),
            verdict(ok),
        ]);
    }
    table.print();

    // ---- Part D: post-mortem replay matches the live restart log ---------
    println!(
        "\nPost-mortem replay (ring-8, clique-6): reconstructing each run's\n\
         restart narrative from the retained journal records alone must\n\
         reproduce every restart's path — boot source and per-edge\n\
         resumed/rejoined/stale-refuted split — exactly as the live\n\
         restart log recorded it.\n"
    );
    let mut table = Table::new(&["topology", "restarts", "replay-matched", "verdict"]);
    for (name, graph) in [
        ("ring-8", topology::ring(8)),
        ("clique-6", topology::clique(6)),
    ] {
        let mut ok = true;
        let mut matched = 0u32;
        let mut restarts = 0u32;
        for &seed in &seeds {
            let report = scenario(graph.clone(), seed)
                .journal(true)
                .run_recoverable();
            let replays = report.replay();
            let mut nth_restart: std::collections::HashMap<usize, u64> =
                std::collections::HashMap::new();
            for r in report.readmissions() {
                restarts += 1;
                let idx = r.process.index();
                // The k-th restart of a process is its incarnation k.
                let k = nth_restart.entry(idx).and_modify(|n| *n += 1).or_insert(1);
                let Some(RestartPath::Journal {
                    resumed,
                    rejoined,
                    stale,
                }) = r.path
                else {
                    ok = false;
                    continue;
                };
                let replayed = replays[idx]
                    .incarnations
                    .iter()
                    .find(|i| i.incarnation == *k);
                match replayed {
                    Some(i)
                        if i.boot == ekbd_journal::BootPath::Journal
                            && i.resync_counts() == (resumed, rejoined, stale) =>
                    {
                        matched += 1;
                    }
                    _ => ok = false,
                }
            }
        }
        ok &= restarts > 0 && matched == restarts;
        all_ok &= ok;
        table.row([
            name.to_string(),
            restarts.to_string(),
            matched.to_string(),
            verdict(ok),
        ]);
    }
    table.print();

    // With E16_DUMP_DIR set, leave one representative journal directory
    // behind for `ekbd replay --dir` (CI smokes the CLI against it).
    if let Ok(dir) = std::env::var("E16_DUMP_DIR") {
        if !dir.is_empty() {
            let report = scenario(topology::ring(8), seeds[0])
                .journal(true)
                .run_recoverable();
            let dir = std::path::PathBuf::from(dir);
            report.dump_journals(&dir).expect("dump journal dir");
            println!("\njournals dumped to {}", dir.display());
        }
    }

    println!(
        "\nThe journal turns a restart from a renegotiation into a\n\
         confirmation: surviving forks are kept instead of re-earned, so\n\
         readmission is strictly faster — while every way the storage can\n\
         lie (torn, rotted, stale, unsynced) is either detected by the\n\
         CRC/structure checks or caught per edge by the exactly-one\n\
         consistency check, falling back to the blank path that PR 2\n\
         already proved safe."
    );
    conclude("E16", all_ok);
}
