//! E9 — performance characterization (not a paper claim; standard
//! open-source hygiene).
//!
//! Every simulator case runs Algorithm 1 on the dense simulator
//! (timer-wheel queue, dense interned channel state, pooled buffers,
//! move-not-clone payloads) and is compared against the recorded
//! throughput of the seed-commit binary on the same workload.
//!
//! Also measured: the parallel multi-seed [`Campaign`] runner (serial vs
//! parallel wall clock and the byte-identity of their merged reports) and
//! the threaded runtime's wall-clock scheduling throughput.
//!
//! Results go to stdout **and** to `BENCH_e9.json` (schema documented in
//! `docs/PERF.md`). Set `E9_QUICK=1` for a seconds-scale smoke run (CI);
//! set `E9_JSON=path` to redirect the JSON artifact.

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_graph::{topology, ConflictGraph, ProcessId};
use ekbd_harness::{Campaign, Scenario, Workload};
use ekbd_runtime::{RuntimeConfig, ThreadedDining};
use ekbd_sim::Time;
use std::fmt::Write as _;
use std::time::Instant;

/// The measurement of one simulator case.
struct SimMeasure {
    topology: String,
    n: usize,
    events: u64,
    sessions: usize,
    wall_s: f64,
}

impl SimMeasure {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
    fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall_s.max(1e-9)
    }
}

/// Pre-PR throughput (events/s) of the seed-commit binary, measured on the
/// reference machine with exactly this suite's full-mode workload (seed 1,
/// adversarial oracle 2000/50, 200 sessions/process, horizon 500k, warm
/// best-of-30). Methodology and raw numbers: `docs/PERF.md`. The headline
/// acceptance gate compares the simulator against this recording.
const PREPR_BASELINE: &[(&str, f64)] = &[
    ("ring-8", 5_578_235.0),
    ("ring-32", 5_133_517.0),
    ("ring-128", 4_704_109.0),
    ("clique-8", 5_012_870.0),
    ("clique-16", 4_514_296.0),
    ("grid-8x8", 4_494_200.0),
];

fn prepr_baseline(topology: &str) -> Option<f64> {
    PREPR_BASELINE
        .iter()
        .find(|&&(t, _)| t == topology)
        .map(|&(_, v)| v)
}

fn scenario_for(graph: ConflictGraph, sessions: u32, horizon: u64) -> Scenario {
    Scenario::new(graph)
        .seed(1)
        .adversarial_oracle(Time(2_000), 50)
        .workload(Workload {
            sessions,
            think: (1, 10),
            eat: (1, 10),
        })
        .horizon(Time(horizon))
}

/// Runs one case repeatedly and keeps the fastest wall time
/// (events/sessions are identical across reps — the run is seed-pure).
///
/// Repetition is adaptive: after `min_reps` warm-up runs, measurement
/// continues until `settle` consecutive reps fail to lower the floor (or a
/// hard cap is hit). A fixed small rep count under-estimates throughput by
/// whatever scheduler noise happened to hit those reps; waiting for the
/// floor to stop moving converges to the same warm-floor number a clean
/// dedicated process reports.
fn measure(
    name: &str,
    graph: &ConflictGraph,
    sessions: u32,
    horizon: u64,
    min_reps: u32,
    settle: u32,
) -> SimMeasure {
    const MAX_REPS: u32 = 200;
    let mut best_wall = f64::INFINITY;
    let mut events = 0u64;
    let mut eat_sessions = 0usize;
    let mut since_improved = 0u32;
    for rep in 0..MAX_REPS {
        let s = scenario_for(graph.clone(), sessions, horizon);
        let start = Instant::now();
        let report = s.run_algorithm1();
        let wall = start.elapsed().as_secs_f64();
        if wall < best_wall {
            best_wall = wall;
            since_improved = 0;
        } else {
            since_improved += 1;
        }
        events = report.events_processed;
        eat_sessions = report.total_eat_sessions();
        if rep + 1 >= min_reps && since_improved >= settle {
            break;
        }
    }
    SimMeasure {
        topology: name.to_string(),
        n: graph.len(),
        events,
        sessions: eat_sessions,
        wall_s: best_wall,
    }
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`; 0 off-Linux.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = std::env::var("E9_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    // Full mode keeps the best of many reps: single-shot walls on a shared
    // box are dominated by cold caches and frequency ramp; the warm floor
    // is the reproducible number (the pre-PR baseline was recorded the
    // same way — warm best-of-N to convergence). Quick mode takes one shot:
    // its numbers are smoke-level only.
    let (min_reps, settle) = if quick { (1, 0) } else { (30, 20) };
    let (sessions, horizon) = if quick { (5, 60_000) } else { (200, 500_000) };
    banner(
        "E9",
        "performance characterization — simulator kernel, campaign runner, threaded runtime",
    );
    if quick {
        println!("(E9_QUICK smoke mode: reduced workload, 1 rep per case)\n");
    }

    let cases: Vec<(&str, ConflictGraph)> = vec![
        ("ring-8", topology::ring(8)),
        ("ring-32", topology::ring(32)),
        ("ring-128", topology::ring(128)),
        ("clique-8", topology::clique(8)),
        ("clique-16", topology::clique(16)),
        ("grid-8x8", topology::grid(8, 8)),
    ];

    println!("Simulator (Algorithm 1, adversarial oracle, {sessions} sessions/process):\n");
    let measures: Vec<SimMeasure> = cases
        .iter()
        .map(|(name, graph)| measure(name, graph, sessions, horizon, min_reps, settle))
        .collect();
    let rss_after_sim = peak_rss_kb();

    // The pre-PR ratio compares against the recorded seed-commit binary:
    // the full effect of the kernel rewrite, host-layer and build-profile
    // work included.
    let mut ring128_vs_prepr = 0.0;
    let mut table = Table::new(&[
        "topology",
        "n",
        "events",
        "events/s",
        "sessions",
        "sessions/s",
        "wall s",
        "pre-PR events/s",
        "vs pre-PR",
    ]);
    for m in &measures {
        let prepr = prepr_baseline(&m.topology).expect("baseline recorded for every case");
        let vs_prepr = m.events_per_s() / prepr;
        if m.topology == "ring-128" {
            ring128_vs_prepr = vs_prepr;
        }
        table.row([
            m.topology.clone(),
            m.n.to_string(),
            m.events.to_string(),
            format!("{:.0}", m.events_per_s()),
            m.sessions.to_string(),
            format!("{:.0}", m.sessions_per_s()),
            format!("{:.3}", m.wall_s),
            format!("{prepr:.0}"),
            format!("{vs_prepr:.2}x"),
        ]);
    }
    table.print();
    if quick {
        println!("\n(pre-PR ratios are against the recorded reference-machine baseline\n and are not meaningful under the reduced quick-mode workload)");
    }

    // Campaign: 16 seeds of ring-32, serial vs parallel, merged reports
    // must be byte-identical.
    let campaign_jobs = if quick { 4 } else { 16 };
    println!("\nCampaign runner ({campaign_jobs} seeds of ring-32, serial vs parallel):\n");
    let base = scenario_for(topology::ring(32), sessions, horizon);
    let campaign = Campaign::new().seeds("ring-32", &base, 0..campaign_jobs);
    let serial = campaign.run_serial();
    let parallel = campaign.run();
    let merged_identical = serial.merged() == parallel.merged();
    let campaign_speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    let mut c_table = Table::new(&["mode", "workers", "wall s", "events/s", "merged identical"]);
    for (mode, r) in [("serial", &serial), ("parallel", &parallel)] {
        c_table.row([
            mode.to_string(),
            r.workers.to_string(),
            format!("{:.3}", r.wall.as_secs_f64()),
            format!(
                "{:.0}",
                r.total_events() as f64 / r.wall.as_secs_f64().max(1e-9)
            ),
            verdict(merged_identical),
        ]);
    }
    c_table.print();
    println!(
        "\ncampaign speedup ............ {campaign_speedup:.2}x on {} worker(s)",
        parallel.workers
    );

    // Threaded runtime characterization (wall-clock; unchanged by the PR).
    println!("\nThreaded runtime (real threads, wall-clock heartbeats):\n");
    let rounds = if quick { 8 } else { 30 };
    let mut t_table = Table::new(&["topology", "n", "eat-sessions", "sessions/s"]);
    let mut threaded_json = String::new();
    for (name, graph) in [
        ("ring-5", topology::ring(5)),
        ("clique-4", topology::clique(4)),
    ] {
        let n = graph.len();
        let sys = ThreadedDining::spawn(graph, RuntimeConfig::default());
        let start = Instant::now();
        for round in 0..rounds {
            for i in 0..n {
                sys.make_hungry(ProcessId::from(i));
            }
            std::thread::sleep(std::time::Duration::from_millis(10 + (round % 3)));
        }
        let events = sys.shutdown_after(std::time::Duration::from_millis(50));
        let wall = start.elapsed().as_secs_f64();
        let eat = events
            .iter()
            .filter(|e| e.obs == ekbd_dining::DiningObs::StartedEating)
            .count();
        t_table.row([
            name.to_string(),
            n.to_string(),
            eat.to_string(),
            format!("{:.0}", eat as f64 / wall),
        ]);
        if !threaded_json.is_empty() {
            threaded_json.push(',');
        }
        let _ = write!(
            threaded_json,
            "\n    {{\"topology\": \"{}\", \"n\": {}, \"sessions\": {}, \"sessions_per_s\": {:.0}}}",
            json_escape(name),
            n,
            eat,
            eat as f64 / wall.max(1e-9)
        );
    }
    t_table.print();

    // JSON artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E9\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"sessions\": {sessions}, \"horizon\": {horizon}, \"min_reps\": {min_reps}, \"settle\": {settle}}},"
    );
    json.push_str("  \"sim\": [");
    for (i, m) in measures.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"topology\": \"{}\", \"n\": {}, \"events\": {}, \
             \"events_per_s\": {:.0}, \"sessions\": {}, \"sessions_per_s\": {:.0}, \
             \"wall_s\": {:.6}}}",
            json_escape(&m.topology),
            m.n,
            m.events,
            m.events_per_s(),
            m.sessions,
            m.sessions_per_s(),
            m.wall_s
        );
    }
    json.push_str("\n  ],\n  \"speedup\": [");
    for (i, m) in measures.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let prepr = prepr_baseline(&m.topology).expect("baseline recorded for every case");
        let _ = write!(
            json,
            "\n    {{\"topology\": \"{}\", \"prepr_events_per_s\": {prepr:.0}, \
             \"events_per_s\": {:.0}, \"ratio_vs_prepr\": {:.3}}}",
            json_escape(&m.topology),
            m.events_per_s(),
            m.events_per_s() / prepr
        );
    }
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"campaign\": {{\"topology\": \"ring-32\", \"jobs\": {campaign_jobs}, \
         \"workers\": {}, \"serial_wall_s\": {:.6}, \"parallel_wall_s\": {:.6}, \
         \"speedup\": {campaign_speedup:.3}, \"merged_identical\": {merged_identical}}},",
        parallel.workers,
        serial.wall.as_secs_f64(),
        parallel.wall.as_secs_f64()
    );
    let _ = writeln!(json, "  \"threaded\": [{threaded_json}\n  ],");
    let _ = writeln!(json, "  \"peak_rss_kb\": {rss_after_sim}");
    json.push('}');
    json.push('\n');
    let json_path = std::env::var("E9_JSON").unwrap_or_else(|_| "BENCH_e9.json".to_string());
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nJSON artifact ............... {json_path}"),
        Err(e) => println!("\nJSON artifact ............... FAILED to write {json_path}: {e}"),
    }

    // Verdict: merged campaign reports must be byte-identical, and (full
    // mode) the headline ring-128 throughput must clear 2x the recorded
    // pre-PR baseline. Quick mode skips the speedup gate — smoke timings
    // and workloads are not comparable.
    let speedup_ok = quick || ring128_vs_prepr >= 2.0;
    println!(
        "\nring-128 vs pre-PR .......... {ring128_vs_prepr:.2}x (gate: >=2.00x{})",
        if quick { ", waived in quick mode" } else { "" }
    );
    conclude("E9", merged_identical && speedup_ok);
}
