//! Streaming-vs-dense observation equivalence (scale-tier satellite).
//!
//! The streaming aggregator (`Scenario::run_algorithm1_streaming`) must
//! report *exactly* the dense pipeline's headline numbers — latency
//! median, mistake count, convergence tick — on the reference topologies,
//! including a scenario adversarial enough to produce non-zero mistakes,
//! and on runs that interrupt lives: a crash-recovery ring and a churn
//! ring, where the streaming run hosts the hardened variant.

use ekbd_graph::{topology, ConflictGraph, ProcessId};
use ekbd_harness::{Scenario, StreamingRunReport, Workload};
use ekbd_sim::Time;

/// FNV-1a over the debug rendering of each item, newline-separated.
fn debug_hash<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, item| {
        format!("{item:?}\n")
            .bytes()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

/// One line over everything a streaming run reports.
fn digest(r: &StreamingRunReport) -> String {
    format!(
        "mistakes={} eats={:?} latency[{}] convergence={} starving={:?} dining_sends={} excerpts#{:016x}",
        r.mistakes,
        r.eats,
        r.latency.brief(),
        r.convergence.0,
        r.starving,
        r.dining_sends,
        debug_hash(&r.excerpts),
    )
}

/// Literal [`digest`]s of the seven streaming runs below, keyed by label.
const DIGESTS: [(&str, &str); 7] = [
    (
        "ring-8",
        "mistakes=0 eats=[6, 6, 6, 6, 6, 6, 6, 6] latency[n=48 min=5 p50=29 p99=53 max=53 mean=29.6] convergence=0 starving=[] dining_sends=364 excerpts#143dfc360b36f7a6",
    ),
    (
        "clique-6",
        "mistakes=0 eats=[6, 6, 6, 6, 6, 6] latency[n=36 min=19 p50=52 p99=116 max=116 mean=54.1] convergence=0 starving=[] dining_sends=642 excerpts#e1a9d836b6f177d0",
    ),
    (
        "grid-3x4",
        "mistakes=0 eats=[6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] latency[n=72 min=8 p50=29 p99=48 max=48 mean=29.3] convergence=0 starving=[] dining_sends=760 excerpts#d3809886cc0503d8",
    ),
    (
        "ring-8-adversarial",
        "mistakes=12 eats=[6, 6, 6, 6, 6, 6, 6, 6] latency[n=48 min=0 p50=0 p99=42 max=42 mean=7.6] convergence=9000 starving=[] dining_sends=314 excerpts#96387b26605e1137",
    ),
    (
        "clique-5-adversarial",
        "mistakes=71 eats=[8, 8, 8, 8, 8] latency[n=40 min=0 p50=0 p99=34 max=34 mean=6.3] convergence=11960 starving=[] dining_sends=424 excerpts#698a4025bd9e5e3b",
    ),
    (
        "ring-8-recovery",
        "mistakes=0 eats=[6, 6, 6, 8, 6, 6, 8, 6] latency[n=52 min=3 p50=18 p99=44 max=44 mean=20.5] convergence=900 starving=[] dining_sends=2838 excerpts#b2232a6d1ae1658e",
    ),
    (
        "ring-8-churn",
        "mistakes=0 eats=[40, 40, 14, 40, 40, 40, 40, 27] latency[n=281 min=3 p50=23 p99=47 max=52 mean=23.5] convergence=0 starving=[] dining_sends=2267 excerpts#1b749a527b06a9f4",
    ),
];

fn scenario(g: ConflictGraph, seed: u64) -> Scenario {
    Scenario::new(g)
        .seed(seed)
        .workload(Workload {
            sessions: 6,
            think: (1, 40),
            eat: (1, 12),
        })
        .horizon(Time(60_000))
}

/// Asserts the streaming report matches the dense analyses of the same
/// scenario, claim by claim, and its committed digest.
fn assert_equivalent(s: &Scenario, label: &str) -> StreamingRunReport {
    let dense = if s.needs_recoverable() {
        s.run_recoverable()
    } else {
        s.run_algorithm1()
    };
    let streaming = s.run_algorithm1_streaming();

    let exclusion = dense.exclusion();
    assert_eq!(
        streaming.mistakes,
        exclusion.total() as u64,
        "{label}: mistake counts diverged"
    );

    let progress = dense.progress();
    assert_eq!(
        streaming.total_sessions(),
        progress.total_sessions() as u64,
        "{label}: completed-session counts diverged"
    );
    for (i, stats) in progress.per_process.iter().enumerate() {
        assert_eq!(
            streaming.eats[i] as usize, stats.completed,
            "{label}: p{i} session count diverged"
        );
    }
    let summary = progress.latency_summary();
    assert_eq!(
        streaming.latency.count(),
        summary.count as u64,
        "{label}: latency sample counts diverged"
    );
    assert_eq!(
        streaming.latency.quantile(0.5),
        summary.p50,
        "{label}: latency medians diverged"
    );
    assert_eq!(
        streaming.latency.quantile(0.99),
        summary.p99,
        "{label}: latency p99 diverged"
    );
    assert_eq!(
        streaming.latency.min(),
        summary.min,
        "{label}: latency minima diverged"
    );
    assert_eq!(
        streaming.latency.max(),
        summary.max,
        "{label}: latency maxima diverged"
    );

    assert_eq!(
        streaming.convergence,
        dense.detector_convergence(),
        "{label}: convergence ticks diverged"
    );
    assert_eq!(
        streaming.starving,
        progress.starving(),
        "{label}: starvation witnesses diverged"
    );
    assert_eq!(
        streaming.dining_sends, dense.dining_sends,
        "{label}: dining-send counts diverged"
    );
    let (_, want) = DIGESTS
        .iter()
        .find(|(l, _)| *l == label)
        .expect("a committed digest");
    let got = digest(&streaming);
    assert_eq!(
        got, *want,
        "{label}: digest moved; the run now reads:\n{got}"
    );
    streaming
}

#[test]
fn ring_8_fault_free() {
    let r = assert_equivalent(&scenario(topology::ring(8), 11), "ring-8");
    assert_eq!(r.mistakes, 0, "fault-free run must be mistake-free");
    assert!(r.wait_free());
    assert_eq!(r.total_sessions(), 8 * 6);
}

#[test]
fn clique_6_fault_free() {
    let r = assert_equivalent(&scenario(topology::clique(6), 23), "clique-6");
    assert_eq!(r.mistakes, 0);
    assert!(r.wait_free());
}

#[test]
fn grid_3x4_fault_free() {
    let r = assert_equivalent(&scenario(topology::grid(3, 4), 31), "grid-3x4");
    assert_eq!(r.mistakes, 0);
    assert!(r.wait_free());
}

#[test]
fn adversarial_oracle_with_crash_still_matches() {
    // An adversarial oracle plus a crash exercises every streaming code
    // path: suspicion churn (convergence bookkeeping), a crashed process
    // (cut-time trimming in the mistake and starvation checks), and a
    // completeness obligation for the crash.
    let s = scenario(topology::ring(8), 47)
        .adversarial_oracle(Time(9_000), 60)
        .crash(ProcessId(3), Time(4_000));
    let r = assert_equivalent(&s, "ring-8-adversarial");
    assert!(
        r.convergence > Time::ZERO,
        "suspicion churn must leave a convergence witness"
    );
}

#[test]
fn naive_baseline_mistakes_match_too() {
    // The naive crash-oblivious workload on a dense graph with adversarial
    // suspicions: Algorithm 1 still avoids overlaps after convergence, but
    // pre-convergence false suspicions make it eat through the doorway —
    // the scenario most likely to produce real overlap pairs. Whatever the
    // count is, streaming and dense must agree on it (the equivalence is
    // the claim here, and this seed deterministically produces dozens).
    let s = scenario(topology::clique(5), 5)
        .adversarial_oracle(Time(12_000), 40)
        .workload(Workload {
            sessions: 8,
            think: (1, 10),
            eat: (4, 14),
        });
    let r = assert_equivalent(&s, "clique-5-adversarial");
    assert!(
        r.mistakes > 0,
        "this scenario must exercise the non-zero-mistake path"
    );
}

#[test]
fn crash_recovery_ring_matches() {
    // p3 crashes while eating and restarts corrupt; p6 crashes in the
    // doorway and restarts blank. The streaming run hosts the hardened
    // variant and closes both interrupted lives as the dense column does.
    let s = scenario(topology::ring(8), 53)
        .perfect_oracle()
        .crash(ProcessId(3), Time(95))
        .recover_corrupted(ProcessId(3), Time(600))
        .crash(ProcessId(6), Time(175))
        .recover(ProcessId(6), Time(900));
    let r = assert_equivalent(&s, "ring-8-recovery");
    assert!(r.wait_free());
}

#[test]
fn churn_ring_matches() {
    // Two joins and two departures while every process still has sessions
    // to run; p7 crash-leaves mid-session at t=1482.
    let s = scenario(topology::ring(8), 54)
        .workload(Workload {
            sessions: 40,
            think: (1, 40),
            eat: (1, 12),
        })
        .horizon(Time(8_000))
        .churn(300);
    let r = assert_equivalent(&s, "ring-8-churn");
    assert!(r.wait_free());
}
