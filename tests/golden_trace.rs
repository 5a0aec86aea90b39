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
const CRASH_RECOVERY_DIGEST: &str = "events=55085 messages=31119 sched#fe458a2503681721 states#7c52f49c7bfdc2a5 incarnations#3cf935f3f47c1dc9 trace=86202#ef6730941a80a269";

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
        "suspicions=804#2193c390ee30598d dining_sends=14210 to_cut=0#cbf29ce484222325 quiescence#26fbeb94983f607a to_crashed=0#cbf29ce484222325 high_water=11 convergence=60000",
    ),
    (
        "churn",
        "suspicions=600#45261d2d00cf8405 dining_sends=12013 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=1#c5935ddb68de87ff high_water=12 convergence=60000",
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
const HIGH_DEGREE_RECOVERY_DIGEST: &str = "events=150420 eats=70 sched#4a8fde585b6a4e14 link#7d5a76a240059a76 recovery#f26491d7c10e8564 restarts#065b1ff9163140c6 readmit#9a4d3cc085c2e1dc journals=94#0d80b2ed0f30e3cb trace=247346#f7a57f9957c03be9";

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
        ("ring-8", 1, "events=58720 eats=64 sched#b05609f8774293ac link#995803ca6796db2c recovery#701383188d30334b restarts#1d4a2d25a372bfe5 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=93576#106a034c0ec849df"),
        ("clique-6", 1, "events=90480 eats=44 sched#b73e0bc1760a64a7 link#5a8ec0f77987ebda recovery#8fc283196589c5f0 restarts#c967a39f2826ef35 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=149588#95672a50d4e20d03"),
        ("grid-3x4", 1, "events=130620 eats=95 sched#c862d9fafba26960 link#69e60727e2ce4267 recovery#74693b77beb38a28 restarts#fe165f1569416d85 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=212045#e4c9e6853c0ac750"),
        ("gnp-12-0.3", 1, "events=239392 eats=94 sched#122f5f19ad5fa8ac link#7634609f7be2b96a recovery#be0b957c20fb5156 restarts#fe165f1569416d85 readmit#cbf29ce484222325 journals=0#cbf29ce484222325 trace=396704#b9bb6e90fd3fa6f7"),
        ("ring-8", 2, "events=56616 eats=80 sched#f8624faf570472a1 link#c2b15e682312307c recovery#321978ded376165d restarts#bf5a2821a4c02dd5 readmit#d7426bab37496552 journals=0#cbf29ce484222325 trace=89803#e314e1cabb5ba430"),
        ("clique-6", 2, "events=86327 eats=64 sched#949baebe24b65c40 link#2a8189454f51be93 recovery#0db9e55a5d9ed9d4 restarts#218feb01b336ac03 readmit#9428cf2541c0686f journals=0#cbf29ce484222325 trace=141671#8f2af65012e85c37"),
        ("grid-3x4", 2, "events=132940 eats=112 sched#e00a9cba0aa6e2af link#76acbcac205d5bfb recovery#a3e5affae01d28b9 restarts#f810831f7ce88ed3 readmit#7b52ceb435033e5d journals=0#cbf29ce484222325 trace=215358#4aab3a388ccd7234"),
        ("gnp-12-0.3", 2, "events=222457 eats=112 sched#2e4f83098799814b link#d5d5e3051f864af2 recovery#bd35d0742c58a3b5 restarts#f810831f7ce88ed3 readmit#e9efacd0b21782cc journals=0#cbf29ce484222325 trace=366644#13318d325d961c8c"),
        ("ring-8", 3, "events=60322 eats=76 sched#d9515bb4665181d4 link#0c0a7a2510bfe576 recovery#6fa1ec94046ddf05 restarts#93202689b12dc397 readmit#55e946e1c80ffd27 journals=0#cbf29ce484222325 trace=96966#10d5115680cc6323"),
        ("clique-6", 3, "events=93144 eats=64 sched#e4fda8c46fa06307 link#acf7b0efdb5b36f3 recovery#fec3bd2381f63704 restarts#17b7ea825fb87565 readmit#e522ced5aa4dd422 journals=0#cbf29ce484222325 trace=154089#3979ddb1ae71b6ee"),
        ("grid-3x4", 3, "events=134898 eats=105 sched#4f4e1fc65ef62742 link#3e35abb2bad5281c recovery#dc6bfed3f11e78f1 restarts#037be2c94947e22f readmit#ff42ad76ad241443 journals=0#cbf29ce484222325 trace=220836#d1cf37650ec3a608"),
        ("gnp-12-0.3", 3, "events=247418 eats=98 sched#6135e7134417a1c6 link#4bd27af69bce3545 recovery#3a6bf2cb142b6f5e restarts#037be2c94947e22f readmit#f85ee5c2d831e9ac journals=0#cbf29ce484222325 trace=413139#b26fdc9c34d17cbe"),
        ("ring-8", 4, "events=57731 eats=80 sched#5a67fe9c5481702c link#2e3137a64c624806 recovery#d7adc032524c97fd restarts#e3d6fe48865bd7f4 readmit#af1e73b54f0397da journals=90#622f077090c05149 trace=91399#919d1c20bf5e3b0b"),
        ("clique-6", 4, "events=88321 eats=64 sched#767553646838e951 link#e994fddf5293c747 recovery#aff0154169b425f0 restarts#a84d2a5c893505c7 readmit#86b24b7c653f431a journals=77#ae9fd3c4aaad9447 trace=144562#21cdd94fc370ca8b"),
        ("grid-3x4", 4, "events=134711 eats=112 sched#beb5b82a37a1fb84 link#daff7b3a940f2c3b recovery#e4ff176979969525 restarts#83c5f48cd3ab94c1 readmit#5811d4bb747d447d journals=121#a6ee93227fee5504 trace=217686#02dc0b78a67da7fa"),
        ("gnp-12-0.3", 4, "events=217714 eats=112 sched#9654538c376ea408 link#96d0c6a56c60e5ef recovery#8eb786455ca20f60 restarts#9a1742e7505a6da2 readmit#3587348f46b3e7ee journals=135#f1a4c2bc1d82479c trace=357495#6b6a173331420578"),
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
