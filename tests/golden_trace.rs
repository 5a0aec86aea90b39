//! Golden-trace determinism suite for the dense simulator.
//!
//! Literal digests pin the simulator at the strongest available
//! granularity: the full kernel trace — every send, delivery, loss,
//! duplication, reorder, crash, recovery, corruption, and timer firing, in
//! order, with timestamps — plus the report-level aggregates the E-suite
//! consumes, under every fault configuration the E-suite exercises. Every
//! run is repeated and must come out byte-identical.
//!
//! The Algorithm 1 and crash-recovery digests were committed while a second
//! engine (binary-heap queue, hash-map channel state, per-event
//! allocations), which shared none of the queue or interning code, still
//! ran beside the dense one and agreed with it on every row. A digest that
//! moves means the kernel's behaviour changed, not just its cost.

use ekbd::harness::{Campaign, RunReport, Scenario, Workload};
use ekbd::sim::{FaultPlan, ProcessId, Time, TraceEvent};
use ekbd_chaos::{FaultSchedule, Intensity};
use ekbd_link::LinkConfig;

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

/// One FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the debug rendering of each item, newline-separated:
/// stable, dependency free, and sensitive to every field of every item.
fn debug_hash<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(FNV_SEED, |h, item| {
        fnv(fnv(h, format!("{item:?}").as_bytes()), b"\n")
    })
}

/// FNV-1a over the debug rendering of the full trace.
fn trace_hash(trace: &[TraceEvent]) -> u64 {
    debug_hash(trace)
}

/// The E-suite's fault configurations, each applied to the given base
/// scenario. Returned labels name the configuration in assertion messages.
fn fault_configs(base: Scenario) -> Vec<(&'static str, Scenario)> {
    vec![
        ("reliable", base.clone()),
        ("loss", base.clone().faults(FaultPlan::new().loss(0.10))),
        (
            "duplication",
            base.clone().faults(FaultPlan::new().duplication(0.15)),
        ),
        (
            "reorder",
            base.clone().faults(FaultPlan::new().reorder(0.20, 12)),
        ),
        (
            "partition",
            base.clone().faults(FaultPlan::new().loss(0.05).partition(
                vec![p(0), p(1)],
                Time(500),
                Time(3_000),
            )),
        ),
        (
            "loss+dup+reorder",
            base.faults(
                FaultPlan::new()
                    .loss(0.05)
                    .duplication(0.10)
                    .reorder(0.15, 12),
            ),
        ),
    ]
}

fn base_scenario(graph: ekbd::graph::ConflictGraph, seed: u64) -> Scenario {
    Scenario::new(graph)
        .seed(seed)
        .adversarial_oracle(Time(2_000), 40)
        .workload(Workload {
            sessions: 5,
            think: (1, 25),
            eat: (1, 10),
        })
        .reliable_link(LinkConfig::default())
        .horizon(Time(60_000))
        .record_trace(true)
}

/// One line over what a pinned run reports: the event count, the
/// message count, the scheduling events, the final dining states, the
/// incarnations and the full kernel trace.
fn run_digest(r: &RunReport) -> String {
    format!(
        "events={} messages={} sched#{:016x} states#{:016x} incarnations#{:016x} trace={}#{:016x}",
        r.events_processed,
        r.total_messages,
        debug_hash(&r.events),
        debug_hash(&r.final_states),
        debug_hash(&r.incarnations),
        r.kernel_trace.len(),
        trace_hash(&r.kernel_trace),
    )
}

/// Literal digests of Algorithm 1 on ring-8 (seed 42) and clique-6 (seed
/// 7) under each of [`fault_configs`].
const ALGORITHM1_DIGESTS: [(&str, &str); 12] = [
    (
        "ring-8/reliable",
        "events=917 messages=354 sched#b4cd79ea085f0d6a states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1271#3f1a3bb87d9048bc",
    ),
    (
        "ring-8/loss",
        "events=886 messages=350 sched#40343d598fb0b68c states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1236#6be6cb3530a447a0",
    ),
    (
        "ring-8/duplication",
        "events=999 messages=388 sched#978ef538532bae7c states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1435#b042c06f6a6ab880",
    ),
    (
        "ring-8/reorder",
        "events=953 messages=388 sched#1060fa93f8bdc047 states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1341#46be8d31ed982c6a",
    ),
    (
        "ring-8/partition",
        "events=904 messages=353 sched#8e582e1375ec5ec4 states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1257#d678df55308427f7",
    ),
    (
        "ring-8/loss+dup+reorder",
        "events=1022 messages=435 sched#39603fe653a76106 states#7c52f49c7bfdc2a5 incarnations#87692dadb655cce5 trace=1498#291a95e6c0e192d6",
    ),
    (
        "clique-6/reliable",
        "events=1154 messages=650 sched#d5a00d3bc730df69 states#35883974a432d005 incarnations#fb7807b58414ef75 trace=1804#c49fbd190e7815e6",
    ),
    (
        "clique-6/loss",
        "events=1117 messages=655 sched#a72ab89b0e4de09f states#35883974a432d005 incarnations#fb7807b58414ef75 trace=1772#00537c9ad7b97bc0",
    ),
    (
        "clique-6/duplication",
        "events=1277 messages=682 sched#22b890994b687b27 states#35883974a432d005 incarnations#fb7807b58414ef75 trace=2057#ef25cfae03af9d65",
    ),
    (
        "clique-6/reorder",
        "events=1128 messages=620 sched#d33a2c448b6feb6f states#35883974a432d005 incarnations#fb7807b58414ef75 trace=1748#cc47a78d8eec5680",
    ),
    (
        "clique-6/partition",
        "events=1127 messages=651 sched#42a5bb0bc3ef5f9b states#35883974a432d005 incarnations#fb7807b58414ef75 trace=1778#80020318a30b2629",
    ),
    (
        "clique-6/loss+dup+reorder",
        "events=1148 messages=624 sched#820fbc5c3a8f0758 states#35883974a432d005 incarnations#fb7807b58414ef75 trace=1831#d4faf6be4de7a9e5",
    ),
];

/// The literal digest of [`crash_recovery_scenario`] under
/// `run_recoverable`, committed alongside [`ALGORITHM1_DIGESTS`].
const CRASH_RECOVERY_DIGEST: &str = "events=9403 messages=5129 sched#af77353781c9cf5a states#7c52f49c7bfdc2a5 incarnations#3cf935f3f47c1dc9 trace=14530#82c27d09cc638da1";

fn committed_digest(label: &str) -> &'static str {
    ALGORITHM1_DIGESTS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, d)| d)
        .unwrap_or_else(|| panic!("{label}: no committed digest"))
}

/// Runs `scenario` twice and checks that the repeat is byte-identical.
/// Returns `None` when the run matches `want`, or else the table row it now
/// reads.
fn check_digest(
    label: &str,
    scenario: &Scenario,
    run: fn(&Scenario) -> RunReport,
    want: &str,
) -> Option<String> {
    let first = run(scenario);
    assert!(
        !first.kernel_trace.is_empty(),
        "{label}: trace recording must be on for this test to mean anything"
    );
    let again = run(scenario);
    // Event-by-event equality — pinpoints the first divergence on failure.
    for (i, (a, b)) in first
        .kernel_trace
        .iter()
        .zip(&again.kernel_trace)
        .enumerate()
    {
        assert_eq!(a, b, "{label}: repeat run diverges at trace index {i}");
    }
    let got = run_digest(&first);
    assert_eq!(got, run_digest(&again), "{label}: repeat run digest");
    (got != want).then(|| format!("(\"{label}\", \"{got}\"),"))
}

fn assert_rows(wrong: Vec<String>) {
    assert!(
        wrong.is_empty(),
        "digests moved; the runs now read:\n{}",
        wrong.join("\n")
    );
}

/// Checks every fault configuration of `base` against its committed row.
fn check_fault_configs(prefix: &str, base: Scenario) {
    assert_rows(
        fault_configs(base)
            .into_iter()
            .filter_map(|(config, scenario)| {
                let label = format!("{prefix}/{config}");
                let want = committed_digest(&label);
                check_digest(&label, &scenario, Scenario::run_algorithm1, want)
            })
            .collect(),
    );
}

#[test]
fn ring8_traces_match_the_committed_digests() {
    check_fault_configs("ring-8", base_scenario(ekbd::graph::topology::ring(8), 42));
}

#[test]
fn clique6_traces_match_the_committed_digests() {
    check_fault_configs(
        "clique-6",
        base_scenario(ekbd::graph::topology::clique(6), 7),
    );
}

/// Crash + recovery (one blank, one corrupted reboot) and a live-state
/// corruption, under loss — the crash-recovery E-suite configuration. The
/// loss plan comes first: `faults` replaces the whole plan, restarts and
/// corruptions included.
fn crash_recovery_scenario() -> Scenario {
    base_scenario(ekbd::graph::topology::ring(8), 11)
        .faults(FaultPlan::new().loss(0.05))
        .crash(p(2), Time(4_000))
        .recover(p(2), Time(9_000))
        .crash(p(5), Time(6_000))
        .recover_corrupted(p(5), Time(12_000))
        .corrupt_state(p(0), Time(15_000))
}

#[test]
fn crash_recovery_trace_matches_the_committed_digest() {
    let scenario = crash_recovery_scenario();
    assert_eq!(
        scenario.run_recoverable().incarnations,
        [0, 0, 1, 0, 0, 1, 0, 0],
        "both restarts ran"
    );
    assert_rows(
        check_digest(
            "crash-recovery",
            &scenario,
            Scenario::run_recoverable,
            CRASH_RECOVERY_DIGEST,
        )
        .into_iter()
        .collect(),
    );
}

/// One line over the report columns filled from the observation stream
/// beside `events`: the suspicion history, the dining-send count, the
/// dining sends addressed to a process already cut, the §7 quiescence
/// verdict, the
/// sends to crashed processes, the channel high-water mark and the
/// measured detector convergence.
fn column_digest(r: &RunReport) -> String {
    format!(
        "suspicions={}#{:016x} dining_sends={} to_cut={}#{:016x} quiescence#{:016x} to_crashed={}#{:016x} high_water={} convergence={}",
        r.suspicions.len(),
        debug_hash(&r.suspicions),
        r.dining_sends,
        r.dining_sends_to_cut.len(),
        debug_hash(&r.dining_sends_to_cut),
        debug_hash(&r.quiescence().per_crashed),
        r.sends_to_crashed.len(),
        debug_hash(&r.sends_to_crashed),
        r.max_channel_high_water,
        r.detector_convergence().0,
    )
}

/// Literal [`column_digest`]s of the [`ALGORITHM1_DIGESTS`] runs, the
/// [`crash_recovery_scenario`] and [`churn_scenario`].
const COLUMN_DIGESTS: [(&str, &str); 14] = [
    (
        "ring-8/reliable",
        "suspicions=800#6af47b6649aec2bd dining_sends=138 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=8 convergence=1960",
    ),
    (
        "ring-8/loss",
        "suspicions=800#6af47b6649aec2bd dining_sends=132 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=9 convergence=1960",
    ),
    (
        "ring-8/duplication",
        "suspicions=800#6af47b6649aec2bd dining_sends=148 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=11 convergence=1960",
    ),
    (
        "ring-8/reorder",
        "suspicions=800#6af47b6649aec2bd dining_sends=142 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=10 convergence=1960",
    ),
    (
        "ring-8/partition",
        "suspicions=800#6af47b6649aec2bd dining_sends=134 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=10 convergence=1960",
    ),
    (
        "ring-8/loss+dup+reorder",
        "suspicions=800#6af47b6649aec2bd dining_sends=150 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=14 convergence=1960",
    ),
    (
        "clique-6/reliable",
        "suspicions=1500#6d38e8711d825c7b dining_sends=246 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=12 convergence=1960",
    ),
    (
        "clique-6/loss",
        "suspicions=1500#6d38e8711d825c7b dining_sends=238 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=8 convergence=1960",
    ),
    (
        "clique-6/duplication",
        "suspicions=1500#6d38e8711d825c7b dining_sends=246 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=12 convergence=1960",
    ),
    (
        "clique-6/reorder",
        "suspicions=1500#6d38e8711d825c7b dining_sends=224 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=10 convergence=1960",
    ),
    (
        "clique-6/partition",
        "suspicions=1500#6d38e8711d825c7b dining_sends=232 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=10 convergence=1960",
    ),
    (
        "clique-6/loss+dup+reorder",
        "suspicions=1500#6d38e8711d825c7b dining_sends=224 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=10 convergence=1960",
    ),
    (
        "crash-recovery",
        "suspicions=804#2193c390ee30598d dining_sends=2317 to_cut=0#cbf29ce484222325 quiescence#26fbeb94983f607a to_crashed=0#cbf29ce484222325 high_water=11 convergence=60000",
    ),
    (
        "churn",
        "suspicions=600#45261d2d00cf8405 dining_sends=1803 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=1#2c3d0ca63655ce12 high_water=12 convergence=60000",
    ),
];

/// Seeded churn (a membership event about every 4 000 ticks) on ring-8
/// under `run_recoverable`: joins, graceful and crash-stop departures.
fn churn_scenario() -> Scenario {
    base_scenario(ekbd::graph::topology::ring(8), 19).churn(4_000)
}

#[test]
fn report_columns_match_the_committed_digests() {
    let mut runs: Vec<(String, RunReport)> = Vec::new();
    for (prefix, base) in [
        ("ring-8", base_scenario(ekbd::graph::topology::ring(8), 42)),
        (
            "clique-6",
            base_scenario(ekbd::graph::topology::clique(6), 7),
        ),
    ] {
        for (config, scenario) in fault_configs(base) {
            runs.push((format!("{prefix}/{config}"), scenario.run_algorithm1()));
        }
    }
    runs.push((
        "crash-recovery".into(),
        crash_recovery_scenario().run_recoverable(),
    ));
    let churn = churn_scenario().run_recoverable();
    assert!(
        !churn.joins.is_empty() && !churn.departures.is_empty(),
        "the churn run must both admit and lose processes"
    );
    runs.push(("churn".into(), churn));
    assert_rows(
        runs.into_iter()
            .filter_map(|(label, report)| {
                let (_, want) = COLUMN_DIGESTS
                    .iter()
                    .find(|(l, _)| *l == label)
                    .expect("a committed row");
                let got = column_digest(&report);
                (got != *want).then(|| format!("(\"{label}\", \"{got}\"),"))
            })
            .collect(),
    );
}

/// Literal digests at high degree, taken from the per-slot `DiningProcess`
/// before its edge flags became S1 words. Six bits a slot and ten slots a
/// 60-bit guard chunk: clique-12 (δ = 11) puts slot 10 at bits 60–65, in a
/// second chunk and a second word, and star-24's hub (δ = 23) takes three
/// chunks. Both run under the adversarial oracle, so `∨ suspected` decides
/// guards that span chunks.
const HIGH_DEGREE_DIGESTS: [(&str, &str); 2] = [
    (
        "clique-12",
        "events=3911 messages=2586 sched#c656b423ed433ff6 states#b03d58f18f3843e5 incarnations#d4391dfeca373bc5 trace=6497#301e352396ade5ec",
    ),
    (
        "star-24",
        "events=2688 messages=1024 sched#5589fd851706b7ab states#55a63c11b10e51a5 incarnations#1d9952ce4f167065 trace=3712#7e33113a4a3329bb",
    ),
];

/// [`high_degree_recovery_scenario`] under `run_recoverable`, read by
/// [`chaos_digest`]: every journal byte is in it, so the edge flags a
/// restart snapshots, restores and corrupts are pinned past the first
/// chunk.
const HIGH_DEGREE_RECOVERY_DIGEST: &str = "events=34208 eats=70 sched#926e7029cde0ef09 link#724ceb2f68766be2 recovery#6965c02935dc3a5f restarts#065b1ff9163140c6 readmit#063c2bdf9dccda0e journals=162#9b2b1729b2efc012 trace=56256#1f61772e00613572";

#[test]
fn high_degree_traces_match_the_committed_digests() {
    let graphs = [
        ("clique-12", ekbd::graph::topology::clique(12), 12),
        ("star-24", ekbd::graph::topology::star(24), 24),
    ];
    assert_rows(
        graphs
            .into_iter()
            .filter_map(|(label, g, seed)| {
                let (_, want) = HIGH_DEGREE_DIGESTS
                    .iter()
                    .find(|(l, _)| *l == label)
                    .expect("a committed row");
                check_digest(
                    label,
                    &base_scenario(g, seed),
                    Scenario::run_algorithm1,
                    want,
                )
            })
            .collect(),
    );
}

/// A journaled clique-12 with a plain restart (the journal resumes the
/// edge flags), a corrupted restart and a live-state corruption, each on a
/// process whose edge slots run past bit 60.
fn high_degree_recovery_scenario() -> Scenario {
    base_scenario(ekbd::graph::topology::clique(12), 12)
        .journal(true)
        .crash(p(3), Time(4_000))
        .recover(p(3), Time(9_000))
        .crash(p(11), Time(6_000))
        .recover_corrupted(p(11), Time(12_000))
        .corrupt_state(p(10), Time(15_000))
}

#[test]
fn high_degree_crash_recovery_matches_the_committed_digest() {
    let scenario = high_degree_recovery_scenario();
    let first = scenario.run_recoverable();
    assert_eq!(
        (first.incarnations[3], first.incarnations[11]),
        (1, 1),
        "both restarts ran"
    );
    assert!(
        first.journals.iter().any(|j| !j.is_empty()),
        "journaling must be on for this test to mean anything"
    );
    let got = chaos_digest(&first);
    assert_eq!(
        got,
        chaos_digest(&scenario.run_recoverable()),
        "repeat run digest"
    );
    assert_eq!(
        got, HIGH_DEGREE_RECOVERY_DIGEST,
        "digest moved; the run now reads:\n{got}"
    );
}

#[test]
fn journaling_without_restarts_is_trace_invisible() {
    // The stable-storage journal is written on every transition but only
    // ever *read* during a restart. With no restarts scheduled, a
    // journaled run must therefore be byte-identical to an unjournaled
    // one: commits touch no RNG, no timers, no channels. This pins the
    // zero-overhead-when-unused contract of the journal layer.
    for (label, scenario) in fault_configs(base_scenario(ekbd::graph::topology::ring(8), 42)) {
        let plain = scenario.clone().journal(false).run_recoverable();
        let journaled = scenario.clone().journal(true).run_recoverable();
        assert!(
            !plain.kernel_trace.is_empty(),
            "{label}: trace recording must be on"
        );
        assert_eq!(
            plain.kernel_trace, journaled.kernel_trace,
            "{label}: journaling must not perturb the kernel trace"
        );
        assert_eq!(plain.events, journaled.events, "{label}: sched events");
        assert_eq!(
            plain.total_messages, journaled.total_messages,
            "{label}: total messages"
        );
        assert_eq!(
            trace_hash(&plain.kernel_trace),
            trace_hash(&journaled.kernel_trace),
            "{label}: trace hashes must match"
        );
    }
}

/// Everything a chaos run reports, as one line: the scheduling events,
/// kernel counters, link and recovery counters, restart logs,
/// readmissions, every journal byte and the full kernel trace.
fn chaos_digest(r: &RunReport) -> String {
    let journals = r.journals.iter().fold(FNV_SEED, |h, records| {
        records
            .iter()
            .fold(fnv(h, b"|"), |h, rec| fnv(fnv(h, rec), b"\n"))
    });
    format!(
        "events={} eats={} sched#{:016x} link#{:016x} recovery#{:016x} restarts#{:016x} \
         readmit#{:016x} journals={}#{:016x} trace={}#{:016x}",
        r.events_processed,
        r.total_eat_sessions(),
        debug_hash(&r.events),
        debug_hash([r.link]),
        debug_hash([r.recovery]),
        debug_hash(&r.restart_logs),
        debug_hash(r.readmissions()),
        r.journals.iter().map(Vec::len).sum::<usize>(),
        journals,
        r.kernel_trace.len(),
        trace_hash(&r.kernel_trace),
    )
}

/// Literal digests of the 16 schedules the `sim-chaos` benchmark sweeps
/// (generator seeds 1..=4 on four graphs, `Intensity::default_mix`),
/// committed against the link, recovery and journal layers before their
/// per-event path was made allocation-free.
#[test]
fn chaos_stack_matches_the_committed_digests() {
    let table: [(&str, u64, &str); 16] = [
        ("ring-8", 1, "events=10286 eats=64 sched#9669ad8d081b9192 link#e890f127361acee2 recovery#ac32582954c5318a restarts#1d4a2d25a372bfe5 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=16775#c505b30113cb0f49"),
        ("clique-6", 1, "events=18027 eats=44 sched#b73e0bc1760a64a7 link#8f4edca6716efa66 recovery#8fc283196589c5f0 restarts#c967a39f2826ef35 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=30774#c7b1e03143b659ff"),
        ("grid-3x4", 1, "events=24583 eats=94 sched#1651781a115b7c31 link#1e1d87b64f1da66d recovery#a480a693089cf2d8 restarts#fe165f1569416d85 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=40807#56775151de34d26b"),
        ("gnp-12-0.3", 1, "events=46346 eats=93 sched#3d2e8887a0afe46a link#f78881e334bfa44e recovery#f704451de9be482d restarts#fe165f1569416d85 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=78426#2d02a31443d84261"),
        ("ring-8", 2, "events=9589 eats=80 sched#bf20c68e4289f075 link#f6449025bdae5771 recovery#f945307d8bbdaf77 restarts#bf5a2821a4c02dd5 readmit#78273727210d2b0a journals=0#cbf29ce484222325 trace=15441#13950eff9148548c"),
        ("clique-6", 2, "events=15554 eats=64 sched#fdee44d94ccc365d link#e89ad31cbc22d3af recovery#38f26db9f52e7954 restarts#218feb01b336ac03 readmit#94f00d4869cbe402 journals=0#cbf29ce484222325 trace=25872#628116dc68e8e771"),
        ("grid-3x4", 2, "events=21680 eats=112 sched#76c45a9e38869b63 link#2016e6ca2feee423 recovery#f3911df5702bd900 restarts#f810831f7ce88ed3 readmit#d87c6b940f9f7ddd journals=0#cbf29ce484222325 trace=35588#63a32c5e33302029"),
        ("gnp-12-0.3", 2, "events=39193 eats=112 sched#36b5ad86aa9b29b4 link#fbcfdd357e940923 recovery#37db5639c3d53029 restarts#f810831f7ce88ed3 readmit#44da5b7929e4e237 journals=0#cbf29ce484222325 trace=65430#5b68d750ff7fdffb"),
        ("ring-8", 3, "events=11659 eats=76 sched#7e3c1d997507b1e4 link#d24cf5824dbf756f recovery#5c5678a8d5ae9664 restarts#93202689b12dc397 readmit#19b88b8c4c59afeb journals=0#cbf29ce484222325 trace=19318#2ff4c93b39540d3a"),
        ("clique-6", 3, "events=18015 eats=64 sched#fde9ef350ec79c1f link#6b8f1feba94616d1 recovery#3d762681b32c8297 restarts#17b7ea825fb87565 readmit#33cd7f564dde816d journals=0#cbf29ce484222325 trace=30248#70d5a227c70774be"),
        ("grid-3x4", 3, "events=25089 eats=104 sched#e7cb05c344ab5945 link#b6a7f0346438f449 recovery#ee9890312e8953bf restarts#037be2c94947e22f readmit#e69773039ee6c5ed journals=0#cbf29ce484222325 trace=42387#f1095392d44f30fa"),
        ("gnp-12-0.3", 3, "events=54119 eats=98 sched#16eb9d4daf6c9686 link#dfac28dc04602c3d recovery#2b8f53975f4dd8f5 restarts#037be2c94947e22f readmit#f85ee5c2d831e9ac journals=0#cbf29ce484222325 trace=92959#ae302c44dcecaa1f"),
        ("ring-8", 4, "events=9849 eats=80 sched#6cbbec50a5161abc link#7614bbc5e2c913ac recovery#8af64e2be16e5293 restarts#e3d6fe48865bd7f4 readmit#8f3b2367275e65fb journals=69#bd4e90f0b407f167 trace=15839#09d12a465663998e"),
        ("clique-6", 4, "events=16950 eats=64 sched#13ff5562dda9ff2e link#fe01115a398764cf recovery#62257a537b1cf54a restarts#a84d2a5c893505c7 readmit#5d9502fe7ca3fab1 journals=83#7ed41189c4148373 trace=28078#19c4062a48d9a241"),
        ("grid-3x4", 4, "events=22096 eats=112 sched#2506696adbb10de3 link#ee96b960210f88e6 recovery#d4e6f1e4f1109081 restarts#83c5f48cd3ab94c1 readmit#25ac239abaee11bf journals=161#025f378f0ae1f8a4 trace=36190#3f1871001c2fd0ae"),
        ("gnp-12-0.3", 4, "events=38894 eats=112 sched#2346b71fe709afb7 link#45746b6dedcd5316 recovery#4545f83ec6c06b78 restarts#9a1742e7505a6da2 readmit#8b7c89e929fdb888 journals=146#906e3fbc06de93e1 trace=64654#04df07a4d7ec7105"),
    ];
    let mut wrong = Vec::new();
    for (topology, seed, want) in table {
        let schedule = FaultSchedule::generate(topology, seed, &Intensity::default_mix())
            .expect("the generator makes valid schedules");
        let report = Scenario::chaos(&schedule)
            .expect("a generated schedule is valid")
            .record_trace(true)
            .run_recoverable();
        let got = chaos_digest(&report);
        if got != want {
            wrong.push(format!("(\"{topology}\", {seed}, \"{got}\"),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "chaos digests moved; the runs now read:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn campaign_parallel_merge_matches_serial_byte_for_byte() {
    // The campaign runner must be a pure parallelization: fanning the same
    // jobs across workers cannot change any report, and the merged
    // (seed-ordered) rendering must be byte-identical to the serial one.
    let base = Scenario::new(ekbd::graph::topology::ring(8))
        .adversarial_oracle(Time(2_000), 40)
        .workload(Workload {
            sessions: 4,
            think: (1, 20),
            eat: (1, 10),
        })
        .faults(FaultPlan::new().loss(0.05))
        .reliable_link(LinkConfig::default())
        .horizon(Time(40_000));
    let campaign = Campaign::new().seeds("ring-8", &base, 1..=12);
    let serial = campaign.run_serial();
    let parallel = campaign.run_with_workers(4);
    assert_eq!(
        serial.merged(),
        parallel.merged(),
        "parallel campaign must merge to the serial bytes"
    );
    assert_eq!(serial.total_events(), parallel.total_events());
    assert_eq!(serial.total_sessions(), parallel.total_sessions());
}
