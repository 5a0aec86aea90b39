//! Subcommand implementations: build a scenario from parsed flags, run
//! it, and print a human-readable report.

use crate::args::{ArgError, Parsed};
use crate::spec::{parse_link, AlgorithmSpec, OracleArg, ProtocolSpec};
use ekbd_baselines::{ChoySinghProcess, NaivePriorityProcess};
use ekbd_chaos::{codec, Axis, FaultSchedule, ScheduleError};
use ekbd_dining::{BudgetedDiningProcess, DiningProcess, RestartPath};
use ekbd_graph::{topology, ConflictGraph, ProcessId};
use ekbd_harness::{Campaign, MembershipTag, RunReport, Scenario, Workload};
use ekbd_metrics::{DetectorQualityReport, Timeline};
use ekbd_sim::Time;
use ekbd_stabilize::{
    ColoringProtocol, LeaderProtocol, MisProtocol, Protocol, ScheduledRun, SpanningTreeProtocol,
    StabilizationConfig, TokenRingProtocol,
};

/// Usage text printed on `--help`-ish failures.
pub const USAGE: &str = "\
ekbd — eventually k-bounded wait-free distributed daemons (Song & Pike, DSN 2007)

USAGE:
  ekbd run       --topology SPEC [--algorithm alg1|choy-singh|naive|budgeted:m]
                 [--oracle silent|perfect|adversarial:conv:burst|heartbeat:p:t:i
                           |probe:p:t:i]
                 [--seed N] [--sessions N] [--think lo:hi] [--eat lo:hi]
                 [--crash proc:time]... [--recover proc:time[:corrupt]]...
                 [--corrupt-state proc:time]... [--horizon N] [--timeline N]
                 [--loss P] [--dup P] [--reorder P:WINDOW]
                 [--partition procs:start-heal]... [--link on|base:cap]
                 [--journal on|off] [--storage-fault proc:torn|rot|stale|dropped]...
                 [--audit-period N] [--audit-strikes N]
                 [--churn-rate N] [--churn-plan EV[,EV...]]
                 [--dump-journal DIR] [--obs dense|streaming] [--shards N]
                 (--obs streaming aggregates metrics online in O(n) memory;
                  --shards N runs the fault-free packed scale kernel over N
                  worker threads — built for 10⁵+-process graphs)
  ekbd stabilize --protocol coloring|coloring-adv|mis|token-ring:k|bfs-tree|leader
                 --topology SPEC [--algorithm ...] [--oracle ...] [--seed N]
                 [--crash proc:time]... [--faults N] [--horizon N]
  ekbd threaded  [--n N] [--window-ms N] [--crash PROC] [--recover-ms N]
  ekbd campaign  --topology SPEC [--seeds N] [--workers N|auto] [--verify on]
                 [common `run` flags: --seed (base), --sessions, --think, --eat,
                  --oracle, --crash, --recover, --corrupt-state, --loss, --dup,
                  --reorder, --partition, --link, --horizon]
  ekbd replay    --dir DIR    (post-mortem narrative from a journal directory
                  written by `run --dump-journal DIR` or the threaded runtime)
  ekbd chaos     [--topology SPEC]... [--count N] [--seed BASE]
                 [--intensity light|default|heavy] [--out DIR]
                 (explore: run seeded composite schedules; failures become
                  shrunk replayable artifacts under --out)
  ekbd chaos     --replay FILE   (re-run a committed .chaos artifact and
                  check it reproduces its `expect` class)
  ekbd chaos     --shrink FILE [--out FILE]   (ddmin a failing schedule to
                  a locally-minimal artifact)
  ekbd serve     --listen HOST:PORT | --uds PATH [--topology SPEC]
                 [--serve-ms N] [--max-sessions N] [--send-queue N]
                 [--heartbeat-ms N] [--journal-dir DIR]
                 [--reactor-threads N] [--backend threaded|scale[:SEED]]
                 (daemon as a service: a readiness reactor multiplexes
                  sessions over TCP or a Unix socket; connection deaths
                  crash the bound processes, reconnects ride the journal
                  resume path; the scale backend fronts the bit-packed
                  kernel instead of the threaded runtime)
  ekbd loadgen   --connect HOST:PORT | --uds PATH --clients N
                 [--sessions N] [--kill FRAC] [--think-ms N] [--seed N]
                 [--multiplex K]
                 (drive hungry/eat churn against a serve instance, killing
                  FRAC of the fleet mid-session; --multiplex K binds K
                  processes per connection; prints grant latency
                  p50/p99/p999 and the readmission table)

TOPOLOGY SPECS (every command reads both spellings):
  ring:n path:n star:n clique:n grid:RxC torus:RxC tree:n wheel:n
  hypercube:d gnp:n:p:seed powerlaw:n:m:seed
  or, for all but powerlaw, with `-` for `:` (ring-8 grid-3x4), where
  gnp's seed may be left out and defaults to 9 (gnp-12-0.3)

CHURN: --churn-rate N schedules seeded membership churn at roughly one
  event every N ticks; --churn-plan takes explicit comma-separated events
  join:p:t | leave:p:t | crash-leave:p:t | replace:old:new:t.
";

/// Builds the graph a `--topology` spec names.
fn build_topology(spec: &str) -> Result<ConflictGraph, ArgError> {
    topology::from_spec(spec).ok_or_else(|| ArgError::BadValue {
        flag: "--topology".into(),
        value: spec.to_string(),
        expected: topology::SPEC_GRAMMAR,
    })
}

/// The fault flags that add one schedule event per value, in the order
/// their events are pushed, each with the codec directive its fields spell
/// and the shape of its value.
const EVENT_FLAGS: [(&str, &str, &str); 5] = [
    (
        "partition",
        "partition",
        "procs:start-heal (e.g. 0,1:500-3000)",
    ),
    ("crash", "crash", "process:time"),
    ("recover", "recover", "process:time[:corrupt]"),
    ("corrupt-state", "corrupt", "process:time"),
    ("storage-fault", "storage", "process:torn|rot|stale|dropped"),
];

/// Compiles the fault flags into a [`FaultSchedule`]: one `noise` event
/// for `--loss`, `--dup` and `--reorder`, then the [`EVENT_FLAGS`], then
/// the `--churn-plan` events. Each flag value is split into the fields of
/// its codec directive, so a flag reads exactly what a schedule line does.
fn fault_schedule(
    parsed: &Parsed,
    spec: &str,
    seed: u64,
    horizon: Time,
) -> Result<FaultSchedule, ArgError> {
    let bad = |flag: &str, value: &str, expected: &'static str| ArgError::BadValue {
        flag: format!("--{flag}"),
        value: value.to_string(),
        expected,
    };
    let mut schedule = FaultSchedule::new(spec, seed, horizon);
    // The noise flags share one event. Each flag's fields are parsed with
    // those of the flags before it, so an error names the flag it came in.
    let mut noise_fields = Vec::new();
    let mut noise = None;
    for (flag, keys, expected) in [
        ("loss", &["loss"][..], "a probability"),
        ("dup", &["dup"][..], "a probability"),
        (
            "reorder",
            &["reorder", "window"][..],
            "probability:window (e.g. 0.15:12)",
        ),
    ] {
        let Some(value) = parsed.get(flag) else {
            continue;
        };
        let values: Vec<&str> = value.split(':').collect();
        if values.len() != keys.len() {
            return Err(bad(flag, value, expected));
        }
        noise_fields.extend(keys.iter().zip(values).map(|(k, v)| format!("{k}={v}")));
        let fields: Vec<&str> = noise_fields.iter().map(String::as_str).collect();
        noise = Some(codec::parse_event("noise", &fields).map_err(|_| bad(flag, value, expected))?);
    }
    schedule.events.extend(noise);
    for (flag, directive, expected) in EVENT_FLAGS {
        for value in parsed.get_all(flag) {
            let fields: Vec<&str> = match value.split_once(':') {
                Some((side, window)) if flag == "partition" => {
                    std::iter::once(side).chain(window.split('-')).collect()
                }
                _ => value.split(':').collect(),
            };
            let event = codec::parse_event(directive, &fields);
            schedule
                .events
                .push(event.map_err(|_| bad(flag, value, expected))?);
        }
    }
    if let Some(plan) = parsed.get("churn-plan") {
        const EXPECTED: &str = "comma-separated membership events: join:p:t | leave:p:t | \
             crash-leave:p:t | replace:old:new:t";
        for ev in plan.split(',') {
            let fields: Vec<&str> = ev.split(':').collect();
            let events: &[(&str, &[&str])] = match fields[..] {
                ["join", p, t] => &[("join", &[p, t])],
                ["leave", p, t] => &[("leave", &[p, t, "graceful"])],
                ["crash-leave", p, t] => &[("leave", &[p, t, "crash"])],
                // `old` crash-stops and the fresh id `new` joins in its place.
                ["replace", old, new, t] => &[("leave", &[old, t, "crash"]), ("join", &[new, t])],
                _ => return Err(bad("churn-plan", plan, EXPECTED)),
            };
            for (directive, fields) in events {
                let event = codec::parse_event(directive, fields);
                schedule
                    .events
                    .push(event.map_err(|_| bad("churn-plan", plan, EXPECTED))?);
            }
        }
    }
    Ok(schedule)
}

/// Names the flag behind a schedule that [`fault_schedule`] built but
/// [`FaultSchedule::compile`] refused.
fn invalid_schedule(e: ScheduleError) -> ArgError {
    let flag = match &e {
        ScheduleError::BadProbability { what, .. } => format!("--{what}"),
        ScheduleError::RecoverBeforeCrash { .. } => "--recover".into(),
        ScheduleError::EmptyPartitionSide { .. }
        | ScheduleError::PartitionNeverHeals { .. }
        | ScheduleError::OverlappingPartitions { .. } => "--partition".into(),
        ScheduleError::StorageFaultWithoutRestart { .. } => "--storage-fault".into(),
        ScheduleError::OutOfRange {
            axis: Axis::Churn, ..
        }
        | ScheduleError::DuplicateJoin { .. }
        | ScheduleError::DuplicateLeave { .. }
        | ScheduleError::RejoinSameId { .. }
        | ScheduleError::FaultOnChurned { .. } => "--churn-plan".into(),
        // A fault flag names a process the topology does not have.
        _ => "--topology".into(),
    };
    ArgError::BadValue {
        flag,
        value: e.to_string(),
        expected: "fault flags that fit the topology and each other",
    }
}

/// Builds a [`Scenario`] from the common flags. The fault flags go through
/// one [`FaultSchedule`], checked as a chaos schedule is before it runs.
fn scenario_from(parsed: &Parsed) -> Result<Scenario, ArgError> {
    let spec = parsed.get("topology").unwrap_or("ring:5");
    let graph = build_topology(spec)?;
    let seed = parsed.get_parsed("seed", 0u64)?;
    let horizon = Time(parsed.get_parsed("horizon", 200_000u64)?);
    let schedule = fault_schedule(parsed, spec, seed, horizon)?;
    let parts = schedule.compile(graph.len()).map_err(invalid_schedule)?;
    // Algorithm 1 assumes reliable FIFO channels: a lost, duplicated or
    // overtaken fork or request takes a run outside the paper's model (a
    // duplicated request trips Lemma 1's check in debug builds). Noise
    // therefore needs the link layer that masks it, as in
    // [`Scenario::chaos`]; the error names the first noisy flag.
    if let (Some(noise), None) = (schedule.channel_noise(), parsed.get("link")) {
        let flag = if noise.loss > 0.0 {
            "loss"
        } else if noise.dup > 0.0 {
            "dup"
        } else {
            "reorder"
        };
        return Err(ArgError::BadValue {
            flag: format!("--{flag}"),
            value: parsed.get(flag).unwrap_or_default().to_string(),
            expected: "channel noise together with --link on (Algorithm 1 assumes \
                       reliable FIFO channels; the link layer restores them)",
        });
    }
    let mut s = Scenario::new(graph).seed(seed).horizon(horizon);
    s.workload = Workload {
        sessions: parsed.get_parsed("sessions", 20u32)?,
        think: parsed.get_range("think", (1, 60))?,
        eat: parsed.get_range("eat", (1, 15))?,
    };
    match OracleArg::parse(parsed.get("oracle").unwrap_or("silent"))? {
        OracleArg::Silent => {}
        OracleArg::Perfect => s = s.perfect_oracle(),
        OracleArg::Adversarial { converge, burst } => {
            s = s.adversarial_oracle(converge, burst);
        }
        OracleArg::Heartbeat(cfg) => s = s.heartbeat_oracle(cfg),
        OracleArg::Probe(cfg) => s = s.probe_oracle(cfg),
    }
    s = s.fault_parts(parts);
    if let Some(spec) = parsed.get("journal") {
        s = match spec {
            "on" => s.journal(true),
            "off" => s,
            other => {
                return Err(ArgError::BadValue {
                    flag: "--journal".into(),
                    value: other.to_string(),
                    expected: "on | off",
                })
            }
        };
    }
    if parsed.get("audit-period").is_some() {
        s = s.audit_period(parsed.get_parsed("audit-period", ekbd_harness::AUDIT_PERIOD)?);
    }
    if parsed.get("audit-strikes").is_some() {
        s = s.audit_strikes(parsed.get_parsed("audit-strikes", 2u8)?);
    }
    // Seeded churn is a scenario knob, not a schedule: it draws its plan
    // from the scenario's seed and horizon. It excludes an explicit plan.
    if let Some(rate) = parsed.get("churn-rate") {
        if parsed.get("churn-plan").is_some() {
            return Err(ArgError::BadValue {
                flag: "--churn-plan".into(),
                value: "combined with --churn-rate".into(),
                expected: "either a seeded churn rate or an explicit plan, not both",
            });
        }
        let period: u64 = parsed.get_parsed("churn-rate", 400u64)?;
        if period == 0 {
            return Err(ArgError::BadValue {
                flag: "--churn-rate".into(),
                value: rate.to_string(),
                expected: "a mean ticks-per-membership-event period of at least 1",
            });
        }
        s = s.churn(period);
    }
    if let Some(spec) = parsed.get("link") {
        s = s.reliable_link(parse_link(spec)?);
    }
    Ok(s)
}

fn run_with_algorithm(s: &Scenario, alg: &AlgorithmSpec) -> Result<RunReport, ArgError> {
    let hardened = s.needs_recoverable();
    if hardened && *alg != AlgorithmSpec::Algorithm1 {
        return Err(ArgError::BadValue {
            flag: "--algorithm".into(),
            value: format!("{alg:?}"),
            expected: "alg1 (only the crash-recovery variant of Algorithm 1 \
                       supports --recover / --corrupt-state / --journal / \
                       --storage-fault / --churn-rate / --churn-plan)",
        });
    }
    Ok(match alg {
        AlgorithmSpec::Algorithm1 if hardened => s.run_recoverable(),
        AlgorithmSpec::Algorithm1 => s.run_algorithm1(),
        AlgorithmSpec::ChoySingh => {
            s.run_with(|sc, p| ChoySinghProcess::from_graph(&sc.graph, &sc.colors, p))
        }
        AlgorithmSpec::Naive => {
            s.run_with(|sc, p| NaivePriorityProcess::from_graph(&sc.graph, &sc.colors, p))
        }
        AlgorithmSpec::Budgeted(m) => {
            let m = *m;
            s.run_with(move |sc, p| BudgetedDiningProcess::from_graph(&sc.graph, &sc.colors, p, m))
        }
    })
}

/// The `state faults` headline: the restarts, how many of them were
/// scheduled `:corrupt`, and the live corruptions (`--corrupt-state`).
fn state_faults_line(s: &Scenario) -> String {
    let restarts = &s.faults.recoveries;
    let corrupt = restarts.iter().filter(|r| r.corrupt).count();
    let (n, live) = (restarts.len(), s.faults.corruptions.len());
    format!("state faults ................ recoveries={n} (corrupt {corrupt}) corruptions={live}")
}

fn print_report(report: &RunReport, s: &Scenario) {
    let progress = report.progress();
    let exclusion = report.exclusion();
    let conv = report.detector_convergence();
    println!("processes ................... {}", report.graph.len());
    println!("events processed ............ {}", report.events_processed);
    println!("messages .................... {}", report.total_messages);
    println!(
        "eat sessions ................ {}",
        report.total_eat_sessions()
    );
    println!("starving (correct) .......... {:?}", progress.starving());
    let lat = progress.latency_summary();
    println!(
        "hungry latency .............. p50={} p99={} p999={} max={}",
        lat.p50, lat.p99, lat.p999, lat.max
    );
    println!("detector convergence ........ {conv}");
    println!(
        "exclusion mistakes .......... total={} after-convergence={}",
        exclusion.total(),
        exclusion.after(conv)
    );
    println!(
        "max overtakes (suffix) ...... {}",
        report.fairness().max_overtakes_after(conv)
    );
    println!(
        "channel high-water .......... {} (paper bound: 4 dining msgs)",
        report.max_channel_high_water
    );
    if report.messages_dropped > 0 || report.messages_duplicated > 0 {
        println!(
            "channel faults .............. dropped={} duplicated={}",
            report.messages_dropped, report.messages_duplicated
        );
    }
    if let Some(link) = &report.link {
        println!(
            "link delivered/sent ......... {}/{} (retransmissions={}, ratio {:.2})",
            link.delivered,
            link.payloads_sent,
            link.retransmissions,
            link.retransmit_ratio()
        );
        println!(
            "link dup-suppressed ......... {} (max unacked per edge: {})",
            link.duplicates_suppressed, link.max_unacked
        );
    }
    if !report.crashes.is_empty() {
        let q = report.quiescence();
        println!(
            "msgs to crashed ............. {} (last at {:?})",
            q.total(),
            q.last_send()
        );
        let quality = DetectorQualityReport::analyze(
            &report.graph,
            &report.suspicions,
            &report.crashes,
            report.horizon,
        );
        println!(
            "detector .................... false-positives={} complete={} max-latency={:?}",
            quality.false_positives,
            quality.complete(),
            quality.max_detection_latency()
        );
    }
    if !report.recoveries.is_empty() || !report.corruptions.is_empty() {
        println!("{}", state_faults_line(s));
        let readmissions = report.readmissions();
        for r in &readmissions {
            let path = match r.path {
                Some(RestartPath::Journal {
                    resumed,
                    rejoined,
                    stale,
                }) => {
                    format!(
                        " [journal: {resumed} resumed, {rejoined} rejoined, {stale} stale-refuted]"
                    )
                }
                Some(RestartPath::Blank { reason }) => format!(" [blank: {reason:?}]"),
                None => String::new(),
            };
            let tag = if r.membership == MembershipTag::Departed {
                " [departed]"
            } else {
                ""
            };
            match r.first_eat {
                Some(t) => println!(
                    "  p{} restarted at {} ........ readmitted (first eats {} ticks later){}{}",
                    r.process.index(),
                    r.restarted.0,
                    t.0.saturating_sub(r.restarted.0),
                    path,
                    tag
                ),
                None => println!(
                    "  p{} restarted at {} ........ never ate again{}{}",
                    r.process.index(),
                    r.restarted.0,
                    path,
                    tag
                ),
            }
        }
        // Departed processes stop eating because they left, not because
        // readmission was slow; their records would skew the median.
        let mut latencies: Vec<u64> = readmissions
            .iter()
            .filter(|r| r.membership != MembershipTag::Departed)
            .filter_map(|r| r.time_to_readmission())
            .collect();
        latencies.sort_unstable();
        if !latencies.is_empty() {
            println!(
                "readmission latency ......... median={} ticks over {} restart(s), \
                 departed excluded",
                latencies[latencies.len() / 2],
                latencies.len()
            );
        }
        if let Some(stats) = &report.recovery {
            println!(
                "recovery layer .............. resyncs={} repairs={} local-repairs={} \
                 stale-dropped={} suppressed={} fast-resumes={}",
                stats.resyncs,
                stats.repairs,
                stats.local_repairs,
                stats.stale_dropped,
                stats.suppressed,
                stats.fast_resumes
            );
        }
    }
    if !report.joins.is_empty() || !report.departures.is_empty() {
        let graceful = report.departures.iter().filter(|&&(_, _, g)| g).count();
        println!(
            "membership .................. joins={} departures={} ({} graceful)",
            report.joins.len(),
            report.departures.len(),
            graceful
        );
        for a in report.admissions() {
            match a.time_to_first_eat() {
                Some(lat) => println!(
                    "  p{} joined at {} ........... admitted (first eats {} ticks later)",
                    a.process.index(),
                    a.joined.0,
                    lat
                ),
                None => println!(
                    "  p{} joined at {} ........... never ate before the horizon",
                    a.process.index(),
                    a.joined.0
                ),
            }
        }
    }
}

/// `ekbd run … --shards N`: the packed scale tier — bit-packed S1 state,
/// streaming aggregation, sharded drive loop. Fault-free by construction,
/// so every fault/oracle flag is rejected rather than silently ignored.
fn cmd_run_scale(parsed: &Parsed, shards: usize) -> Result<(), ArgError> {
    const INCOMPATIBLE: &[&str] = &[
        "crash",
        "recover",
        "corrupt-state",
        "loss",
        "dup",
        "reorder",
        "partition",
        "link",
        "journal",
        "storage-fault",
        "churn-rate",
        "churn-plan",
        "timeline",
        "dump-journal",
    ];
    for flag in INCOMPATIBLE {
        if parsed.get(flag).is_some() {
            return Err(ArgError::BadValue {
                flag: format!("--{flag}"),
                value: "combined with --shards".into(),
                expected: "the packed scale tier is fault-free; drop --shards to \
                           run the dense tier, which supports this flag",
            });
        }
    }
    if parsed.get("oracle").is_some_and(|o| o != "silent") {
        return Err(ArgError::BadValue {
            flag: "--oracle".into(),
            value: parsed.get("oracle").unwrap_or_default().to_string(),
            expected: "silent (the packed scale tier runs crash-free)",
        });
    }
    if parsed.get("algorithm").is_some_and(|a| a != "alg1") {
        return Err(ArgError::BadValue {
            flag: "--algorithm".into(),
            value: parsed.get("algorithm").unwrap_or_default().to_string(),
            expected: "alg1 (the packed kernel implements Algorithm 1 only)",
        });
    }
    if shards == 0 || shards > 256 {
        return Err(ArgError::BadValue {
            flag: "--shards".into(),
            value: shards.to_string(),
            expected: "1..=256 worker shards",
        });
    }
    // The ranges `ScaleConfig` asserts, refused here with the flag's name.
    let eat = parsed.get_range("eat", (1, 10))?;
    let think = parsed.get_range("think", (1, 40))?;
    for (flag, (lo, hi), max, expected) in [
        (
            "--eat",
            eat,
            65_535,
            "lo:hi ticks with 1 <= lo <= hi <= 65535 (the timer wheel keeps one slot per tick)",
        ),
        (
            "--think",
            think,
            65_535,
            "lo:hi ticks with 1 <= lo <= hi <= 65535 (the timer wheel keeps one slot per tick)",
        ),
    ] {
        if lo == 0 || lo > hi || hi > max {
            return Err(ArgError::BadValue {
                flag: flag.into(),
                value: format!("{lo}:{hi}"),
                expected,
            });
        }
    }
    let sessions = parsed.get_parsed("sessions", 3u32)?;
    if sessions == 0 {
        return Err(ArgError::BadValue {
            flag: "--sessions".into(),
            value: "0".into(),
            expected: "at least 1 eating session per process",
        });
    }
    let g = build_topology(parsed.get("topology").unwrap_or("ring:5"))?;
    let colors = ekbd_graph::coloring::greedy(&g);
    let part = ekbd_graph::partition::greedy_edge_cut(&g, shards);
    let cfg = ekbd_sim::ScaleConfig::default()
        .seed(parsed.get_parsed("seed", 0u64)?)
        .horizon(parsed.get_parsed("horizon", 1_000_000u64)?)
        .sessions(sessions)
        .think(think.0, think.1)
        .eat(eat.0, eat.1);
    let kernel = ekbd_sim::PackedKernel::new(&g, &colors, &part, cfg);
    let state_bytes = kernel.state_bytes();
    let report = ekbd_sim::run_sharded(kernel);
    println!("== ekbd run: packed scale tier (Algorithm 1) ==\n");
    println!(
        "processes ................... {} ({} edges, max degree {})",
        report.n,
        g.edge_count(),
        g.max_degree()
    );
    println!(
        "shards ...................... {} ({} cut edges)",
        report.shards,
        part.cut_edges(&g)
    );
    println!(
        "packed state ................ {state_bytes} bytes ({:.1} per process)",
        state_bytes as f64 / report.n as f64
    );
    println!(
        "event queues ................ {} bytes ({:.1} per process)",
        report.queue_bytes,
        report.queue_bytes as f64 / report.n as f64
    );
    println!(
        "events processed ............ {} ({:.0} events/s)",
        report.events,
        report.events_per_sec()
    );
    println!("protocol messages ........... {}", report.messages);
    println!("final tick .................. {}", report.final_tick);
    println!(
        "eat sessions ................ total={} min/process={}",
        report.eats.iter().map(|&e| e as u64).sum::<u64>(),
        report.min_eats()
    );
    println!("scheduling mistakes ......... {}", report.mistakes);
    println!("starving processes .......... {}", report.starving);
    println!("hungry→eat latency .......... {}", report.latency.brief());
    println!(
        "verdict ..................... {}",
        if report.verdict() { "PASS" } else { "FAIL" }
    );
    println!("fingerprint ................. {}", report.fingerprint());
    Ok(())
}

/// `ekbd run … --obs streaming`: the full simulator with streaming
/// aggregation instead of a dense observation log.
fn cmd_run_streaming(parsed: &Parsed) -> Result<(), ArgError> {
    let s = scenario_from(parsed)?;
    if parsed.get("algorithm").is_some_and(|a| a != "alg1") {
        return Err(ArgError::BadValue {
            flag: "--algorithm".into(),
            value: parsed.get("algorithm").unwrap_or_default().to_string(),
            expected: "alg1 (--obs streaming aggregates Algorithm 1 runs)",
        });
    }
    let report = s.run_algorithm1_streaming();
    println!("== ekbd run: Algorithm1 (streaming observers) ==\n");
    println!("processes ................... {}", report.n);
    println!(
        "eat sessions ................ total={}",
        report.total_sessions()
    );
    println!("scheduling mistakes ......... {}", report.mistakes);
    println!(
        "wait-free ................... {} ({} starving)",
        report.wait_free(),
        report.starving.len()
    );
    println!(
        "detector convergence ........ {} / horizon {}",
        report.convergence.0, report.horizon.0
    );
    println!("hungry→eat latency .......... {}", report.latency.brief());
    println!("dining messages ............. {}", report.dining_sends);
    for e in &report.excerpts {
        println!(
            "  excerpt: p{} started eating at {} after {} hungry ticks",
            e.process, e.tick, e.latency
        );
    }
    Ok(())
}

/// `ekbd run …`
pub fn cmd_run(parsed: &Parsed) -> Result<(), ArgError> {
    if let Some(spec) = parsed.get("shards") {
        let shards: usize = spec.parse().map_err(|_| ArgError::BadValue {
            flag: "--shards".into(),
            value: spec.to_string(),
            expected: "a shard count in 1..=256",
        })?;
        if parsed.get("obs").is_some_and(|o| o == "dense") {
            return Err(ArgError::BadValue {
                flag: "--obs".into(),
                value: "dense".into(),
                expected: "streaming (the packed scale tier never stores \
                           dense observations)",
            });
        }
        return cmd_run_scale(parsed, shards);
    }
    match parsed.get("obs").unwrap_or("dense") {
        "dense" => {}
        "streaming" => return cmd_run_streaming(parsed),
        other => {
            return Err(ArgError::BadValue {
                flag: "--obs".into(),
                value: other.to_string(),
                expected: "dense | streaming",
            })
        }
    }
    let s = scenario_from(parsed)?;
    let alg = AlgorithmSpec::parse(parsed.get("algorithm").unwrap_or("alg1"))?;
    let report = run_with_algorithm(&s, &alg)?;
    println!("== ekbd run: {alg:?} ==\n");
    print_report(&report, &s);
    if let Some(dir) = parsed.get("dump-journal") {
        let dir = std::path::PathBuf::from(dir);
        report.dump_journals(&dir).map_err(|e| ArgError::BadValue {
            flag: "--dump-journal".into(),
            value: format!("{}: {e}", dir.display()),
            expected: "a writable directory",
        })?;
        let dumped = report.journals.iter().filter(|j| !j.is_empty()).count();
        println!(
            "\njournals dumped ............. {} file(s) in {}",
            dumped,
            dir.display()
        );
    }
    if let Some(until) = parsed.get("timeline") {
        let until: u64 = until.parse().map_err(|_| ArgError::BadValue {
            flag: "--timeline".into(),
            value: until.to_string(),
            expected: "u64 ticks",
        })?;
        println!("\neating timeline 0..{until} ('#' eating, '!' mistake, '×' crash):");
        print!(
            "{}",
            Timeline::until(Time(until))
                .marker(report.detector_convergence())
                .render(
                    &report.graph,
                    &report.events,
                    &|p| report.crash_time(p),
                    report.horizon
                )
        );
    }
    Ok(())
}

fn stabilize_with<P: Protocol>(
    protocol: &P,
    s: Scenario,
    cfg: &StabilizationConfig,
    alg: &AlgorithmSpec,
) -> ekbd_stabilize::StabilizationReport {
    match alg {
        AlgorithmSpec::Algorithm1 => ScheduledRun::execute(protocol, s, cfg, |sc, p| {
            DiningProcess::from_graph(&sc.graph, &sc.colors, p)
        }),
        AlgorithmSpec::ChoySingh => ScheduledRun::execute(protocol, s, cfg, |sc, p| {
            ChoySinghProcess::from_graph(&sc.graph, &sc.colors, p)
        }),
        AlgorithmSpec::Naive => ScheduledRun::execute(protocol, s, cfg, |sc, p| {
            NaivePriorityProcess::from_graph(&sc.graph, &sc.colors, p)
        }),
        AlgorithmSpec::Budgeted(m) => {
            let m = *m;
            ScheduledRun::execute(protocol, s, cfg, move |sc, p| {
                BudgetedDiningProcess::from_graph(&sc.graph, &sc.colors, p, m)
            })
        }
    }
}

/// `ekbd stabilize …`
pub fn cmd_stabilize(parsed: &Parsed) -> Result<(), ArgError> {
    let s = scenario_from(parsed)?;
    let alg = AlgorithmSpec::parse(parsed.get("algorithm").unwrap_or("alg1"))?;
    let protocol = ProtocolSpec::parse(parsed.get("protocol").unwrap_or("coloring"))?;
    let n = s.graph.len();
    let fault_count: u64 = parsed.get_parsed("faults", 6u64)?;
    let cfg = StabilizationConfig {
        seed: parsed.get_parsed("seed", 0u64)? + 1000,
        think: (1, 8),
        transient_faults: (0..fault_count)
            .map(|k| {
                (
                    Time(2_000 + 400 * k),
                    ProcessId::from((k as usize * 5 + 1) % n),
                )
            })
            .collect(),
    };
    let report = match &protocol {
        ProtocolSpec::Coloring => stabilize_with(&ColoringProtocol::default(), s, &cfg, &alg),
        ProtocolSpec::ColoringAdversarial => {
            stabilize_with(&ColoringProtocol::adversarial(), s, &cfg, &alg)
        }
        ProtocolSpec::Mis => stabilize_with(&MisProtocol, s, &cfg, &alg),
        ProtocolSpec::TokenRing(k) => stabilize_with(&TokenRingProtocol::new(*k), s, &cfg, &alg),
        ProtocolSpec::BfsTree => stabilize_with(&SpanningTreeProtocol, s, &cfg, &alg),
        ProtocolSpec::Leader => stabilize_with(&LeaderProtocol, s, &cfg, &alg),
    };
    println!("== ekbd stabilize: {} via {:?} ==\n", report.protocol, alg);
    println!("steps executed .............. {}", report.steps_executed);
    println!("no-op slots ................. {}", report.steps_skipped);
    println!("faults injected ............. {}", report.faults_injected);
    println!(
        "converged ................... {} (at {:?})",
        report.legitimate_at_end, report.converged_at
    );
    println!(
        "starving (correct) .......... {:?}",
        report.dining.progress().starving()
    );
    Ok(())
}

/// `ekbd threaded …`
pub fn cmd_threaded(parsed: &Parsed) -> Result<(), ArgError> {
    use ekbd_metrics::SchedEvent;
    use ekbd_runtime::{RuntimeConfig, ThreadedDining};

    fn drive<M: Clone + Send + 'static>(
        sys: ThreadedDining<M>,
        n: usize,
        window_ms: u64,
        crash: Option<usize>,
        recover_ms: Option<u64>,
    ) -> Vec<SchedEvent> {
        if let Some(victim) = crash {
            sys.crash(ProcessId::from(victim));
        }
        let rounds = (window_ms / 25).max(1);
        for _ in 0..rounds {
            if let (Some(victim), Some(at)) = (crash, recover_ms) {
                if sys.elapsed_ms() >= at {
                    sys.recover(ProcessId::from(victim));
                }
            }
            for i in 0..n {
                sys.make_hungry(ProcessId::from(i));
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        sys.shutdown_after(std::time::Duration::from_millis(150))
    }

    let n: usize = parsed.get_parsed("n", 5usize)?;
    let window_ms: u64 = parsed.get_parsed("window-ms", 400u64)?;
    let crash: Option<usize> = match parsed.get("crash") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| ArgError::BadValue {
            flag: "--crash".into(),
            value: v.to_string(),
            expected: "process index",
        })?),
    };
    let recover_ms: Option<u64> = match parsed.get("recover-ms") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| ArgError::BadValue {
            flag: "--recover-ms".into(),
            value: v.to_string(),
            expected: "milliseconds after start",
        })?),
    };
    let graph = ekbd_graph::topology::ring(n.max(3));
    // A recovery schedule needs the crash-recovery variant of Algorithm 1;
    // plain runs keep the crash-stop original.
    let events = if recover_ms.is_some() {
        drive(
            ThreadedDining::spawn_recoverable(graph, RuntimeConfig::default()),
            n,
            window_ms,
            crash,
            recover_ms,
        )
    } else {
        drive(
            ThreadedDining::spawn(graph, RuntimeConfig::default()),
            n,
            window_ms,
            crash,
            recover_ms,
        )
    };
    println!("== ekbd threaded: ring of {n}, {window_ms} ms ==\n");
    let mut eats = vec![0u32; n];
    for e in &events {
        if e.obs == ekbd_dining::DiningObs::StartedEating {
            eats[e.process.index()] += 1;
        }
    }
    for (i, c) in eats.iter().enumerate() {
        let marker = if crash == Some(i) {
            if recover_ms.is_some() {
                " (crashed, recovered)"
            } else {
                " (crashed)"
            }
        } else {
            ""
        };
        println!("p{i}: {c} eat sessions{marker}");
    }
    Ok(())
}

/// `ekbd campaign …` — fan one scenario shape across a block of seeds on
/// worker threads and print the deterministic merged digest.
pub fn cmd_campaign(parsed: &Parsed) -> Result<(), ArgError> {
    let base = scenario_from(parsed)?;
    let count: u64 = parsed.get_parsed("seeds", 16u64)?;
    if count == 0 {
        return Err(ArgError::BadValue {
            flag: "--seeds".into(),
            value: "0".into(),
            expected: "a positive seed count",
        });
    }
    let workers: usize = match parsed.get("workers") {
        None | Some("auto") => 0,
        Some(v) => v.parse().map_err(|_| ArgError::BadValue {
            flag: "--workers".into(),
            value: v.to_string(),
            expected: "a worker count, or 'auto'",
        })?,
    };
    let label = parsed.get("topology").unwrap_or("ring:5").to_string();
    let base_seed = base.seed;
    let campaign = Campaign::new().seeds(&label, &base, base_seed..base_seed + count);
    let report = if workers == 0 {
        campaign.run()
    } else {
        campaign.run_with_workers(workers)
    };
    println!("== ekbd campaign: {label} × {count} seeds (base seed {base_seed}) ==\n");
    print!("{}", report.merged());
    println!("\nworkers ..................... {}", report.workers);
    println!(
        "wall ........................ {:.3}s",
        report.wall.as_secs_f64()
    );
    println!(
        "throughput .................. {:.0} events/s",
        report.total_events() as f64 / report.wall.as_secs_f64().max(1e-9)
    );
    if parsed.get("verify").is_some() {
        let serial = campaign.run_serial();
        let identical = serial.merged() == report.merged();
        println!(
            "serial check ................ identical={} serial-wall={:.3}s speedup={:.2}x",
            identical,
            serial.wall.as_secs_f64(),
            serial.wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-9)
        );
        if !identical {
            return Err(ArgError::BadValue {
                flag: "--verify".into(),
                value: "mismatch".into(),
                expected: "parallel merged report byte-identical to serial \
                           (determinism violation — please report)",
            });
        }
    }
    Ok(())
}

/// `ekbd replay --dir DIR` — reconstruct the restart narrative from a
/// journal directory (written by `run --dump-journal` or by the threaded
/// runtime's `journal_dir`). Read-only and deterministic: the same
/// directory always renders byte-identically.
pub fn cmd_replay(parsed: &Parsed) -> Result<(), ArgError> {
    let dir = parsed.get("dir").ok_or(ArgError::MissingValue(
        "--dir (a journal directory)".to_string(),
    ))?;
    let dir = std::path::PathBuf::from(dir);
    // Distinguish "the path is wrong" from "the run journaled nothing":
    // the former points at a typo, the latter at a run without --journal.
    if !dir.exists() {
        return Err(ArgError::BadValue {
            flag: "--dir".into(),
            value: dir.display().to_string(),
            expected: "an existing journal directory (no such path; point --dir at a \
                       directory written by `run --dump-journal` or the threaded runtime)",
        });
    }
    let replays = ekbd_journal::replay::load_dir(&dir).map_err(|e| ArgError::BadValue {
        flag: "--dir".into(),
        value: format!("{}: {e}", dir.display()),
        expected: "a readable journal directory",
    })?;
    if replays.is_empty() {
        return Err(ArgError::BadValue {
            flag: "--dir".into(),
            value: dir.display().to_string(),
            expected: "a directory containing *.ekj journal files (the directory exists \
                       but holds none — was the run journaled with --journal on?)",
        });
    }
    print!("{}", ekbd_journal::replay::render(&replays));
    Ok(())
}

/// Maps a chaos-layer error onto the flag that caused it.
fn chaos_arg_err(flag: &'static str, e: ekbd_chaos::ScheduleError) -> ArgError {
    ArgError::BadValue {
        flag: flag.into(),
        value: e.to_string(),
        expected: "a valid chaos schedule",
    }
}

/// Prints the watchdog's verdict for one schedule.
fn print_chaos_outcome(schedule: &ekbd_chaos::FaultSchedule, o: &ekbd_harness::ChaosOutcome) {
    let axes: Vec<&str> = schedule.axes().iter().map(|a| a.name()).collect();
    println!(
        "schedule .................... {} seed {} ({} events; {})",
        schedule.topology,
        schedule.seed,
        schedule.events.len(),
        axes.join("+")
    );
    println!("class ....................... {}", o.class);
    println!("stabilized at ............... t={}", o.stabilized_at.0);
    println!(
        "mistakes (total / after) .... {} / {}",
        o.mistakes_total, o.mistakes_after
    );
    println!("deterministic rerun ......... {}", o.deterministic);
    if !o.starving.is_empty() {
        println!("starving .................... {:?}", o.starving);
    }
}

/// `ekbd chaos --replay FILE` — re-run a committed artifact; if it
/// carries an `expect` line, reproducing any other class is an error.
fn chaos_replay(path: &std::path::Path) -> Result<(), ArgError> {
    let schedule =
        ekbd_chaos::codec::read_artifact(path).map_err(|e| chaos_arg_err("--replay", e))?;
    let outcome = ekbd_harness::run_chaos(&schedule).map_err(|e| chaos_arg_err("--replay", e))?;
    println!("== ekbd chaos replay: {} ==\n", path.display());
    print_chaos_outcome(&schedule, &outcome);
    match schedule.expect {
        Some(expected) if outcome.class == expected => {
            println!("\nexpected class reproduced ({expected})");
            Ok(())
        }
        Some(expected) => Err(ArgError::BadValue {
            flag: "--replay".into(),
            value: format!("ran {} but artifact expects {}", outcome.class, expected),
            expected: "the artifact's recorded run class to reproduce",
        }),
        None => {
            if outcome.is_failure() {
                eprintln!(
                    "chaos invariant failure ({}); reproduce with: {}",
                    outcome.class,
                    ekbd_chaos::codec::replay_command(path)
                );
            }
            Ok(())
        }
    }
}

/// `ekbd chaos --shrink FILE [--out FILE]` — ddmin a failing schedule to
/// a locally-minimal artifact that reproduces the same class.
fn chaos_shrink(parsed: &Parsed, path: &std::path::Path) -> Result<(), ArgError> {
    let schedule =
        ekbd_chaos::codec::read_artifact(path).map_err(|e| chaos_arg_err("--shrink", e))?;
    let outcome = ekbd_harness::run_chaos(&schedule).map_err(|e| chaos_arg_err("--shrink", e))?;
    if !outcome.is_failure() {
        return Err(ArgError::BadValue {
            flag: "--shrink".into(),
            value: format!("{} runs {}", path.display(), outcome.class),
            expected: "a failing schedule (nothing to shrink)",
        });
    }
    let class = outcome.class;
    println!(
        "== ekbd chaos shrink: {} ({} events, {class}) ==",
        path.display(),
        schedule.events.len()
    );
    let (small, stats) = ekbd_harness::shrink_failing(&schedule, class);
    let out = parsed
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| path.with_extension("min.chaos"));
    ekbd_chaos::codec::write_artifact(&small.expecting(class), &out)
        .map_err(|e| chaos_arg_err("--out", e))?;
    println!(
        "shrunk {} -> {} events in {} oracle runs",
        stats.original, stats.shrunk, stats.tests
    );
    println!(
        "wrote {}; replay with: {}",
        out.display(),
        ekbd_chaos::codec::replay_command(&out)
    );
    Ok(())
}

/// `ekbd chaos` (explore) — generate and run seeded composite schedules
/// across topologies; every failure is persisted, shrunk, and reported
/// with its exact replay command, then the axis-coverage summary prints.
fn chaos_explore(parsed: &Parsed) -> Result<(), ArgError> {
    let flagged = parsed.get_all("topology");
    let topologies: Vec<String> = if flagged.is_empty() {
        ["ring-8", "clique-6", "grid-3x4", "gnp-12-0.3"]
            .map(String::from)
            .to_vec()
    } else {
        flagged.to_vec()
    };
    let count: u64 = parsed.get_parsed("count", 8u64)?;
    if count == 0 {
        return Err(ArgError::BadValue {
            flag: "--count".into(),
            value: "0".into(),
            expected: "a positive schedule count per topology",
        });
    }
    let base: u64 = parsed.get_parsed("seed", 1u64)?;
    let intensity = match parsed.get("intensity") {
        None => ekbd_chaos::Intensity::default_mix(),
        Some(name) => ekbd_chaos::Intensity::parse(name).ok_or_else(|| ArgError::BadValue {
            flag: "--intensity".into(),
            value: name.to_string(),
            expected: "light | default | heavy",
        })?,
    };
    let out_dir = std::path::PathBuf::from(parsed.get("out").unwrap_or("chaos-artifacts"));
    println!(
        "== ekbd chaos explore: {} topologies × {count} seeds ({} intensity, base seed {base}) ==\n",
        topologies.len(),
        intensity.name
    );
    let mut coverage = ekbd_chaos::Coverage::new();
    let mut failures = 0usize;
    for topo in &topologies {
        for k in 0..count {
            let seed = base + k;
            let schedule = ekbd_chaos::FaultSchedule::generate(topo, seed, &intensity)
                .map_err(|e| chaos_arg_err("--topology", e))?;
            let outcome =
                ekbd_harness::run_chaos(&schedule).map_err(|e| chaos_arg_err("--topology", e))?;
            coverage.record(&schedule);
            let axes: Vec<&str> = schedule.axes().iter().map(|a| a.name()).collect();
            println!(
                "  {topo} seed {seed:<4} {:<32} {}",
                axes.join("+"),
                outcome.class
            );
            if outcome.is_failure() {
                failures += 1;
                ekbd_harness::emit_repro_artifact(&schedule, outcome.class, &out_dir)
                    .map_err(|e| chaos_arg_err("--out", e))?;
                let (small, stats) = ekbd_harness::shrink_failing(&schedule, outcome.class);
                let min_path = out_dir.join(format!(
                    "{topo}-seed{seed}-{}.min.chaos",
                    outcome.class.as_str()
                ));
                ekbd_chaos::codec::write_artifact(&small.expecting(outcome.class), &min_path)
                    .map_err(|e| chaos_arg_err("--out", e))?;
                println!(
                    "    shrunk {} -> {} events; replay with: {}",
                    stats.original,
                    stats.shrunk,
                    ekbd_chaos::codec::replay_command(&min_path)
                );
            }
        }
    }
    println!("\n{}", coverage.summary());
    let total = topologies.len() as u64 * count;
    if failures > 0 {
        Err(ArgError::BadValue {
            flag: "--out".into(),
            value: format!("{failures}/{total} schedules failed"),
            expected: "every schedule wait-free (shrunk repro artifacts written; see above)",
        })
    } else {
        println!("all {total} schedules wait-free");
        Ok(())
    }
}

/// `ekbd chaos` — explore (default), `--replay FILE`, or `--shrink FILE`.
pub fn cmd_chaos(parsed: &Parsed) -> Result<(), ArgError> {
    match (parsed.get("replay"), parsed.get("shrink")) {
        (Some(_), Some(_)) => Err(ArgError::BadValue {
            flag: "--replay".into(),
            value: "--shrink".into(),
            expected: "at most one of --replay / --shrink per invocation",
        }),
        (Some(path), None) => chaos_replay(std::path::Path::new(path)),
        (None, Some(path)) => chaos_shrink(parsed, std::path::Path::new(path)),
        (None, None) => chaos_explore(parsed),
    }
}

/// Reads the transport address from `--<flag>` (TCP) or `--uds` (Unix
/// socket path); exactly one must be present.
fn net_addr(parsed: &Parsed, tcp_flag: &'static str) -> Result<ekbd_net::ServerAddr, ArgError> {
    match (parsed.get(tcp_flag), parsed.get("uds")) {
        (Some(hostport), None) => Ok(ekbd_net::ServerAddr::Tcp(hostport.to_string())),
        (None, Some(path)) => Ok(ekbd_net::ServerAddr::Uds(std::path::PathBuf::from(path))),
        (Some(_), Some(_)) => Err(ArgError::BadValue {
            flag: format!("--{tcp_flag}"),
            value: "combined with --uds".into(),
            expected: "exactly one transport: --listen/--connect HOST:PORT or --uds PATH",
        }),
        (None, None) => Err(ArgError::MissingValue(format!(
            "--{tcp_flag} HOST:PORT or --uds PATH"
        ))),
    }
}

/// Reads `--backend threaded | scale | scale:SEED`.
fn backend_spec(parsed: &Parsed) -> Result<ekbd_net::BackendSpec, ArgError> {
    match parsed.get("backend") {
        None | Some("threaded") => Ok(ekbd_net::BackendSpec::Threaded),
        Some("scale") => Ok(ekbd_net::BackendSpec::Scale { seed: 1 }),
        Some(v) => match v.strip_prefix("scale:").and_then(|s| s.parse().ok()) {
            Some(seed) => Ok(ekbd_net::BackendSpec::Scale { seed }),
            None => Err(ArgError::BadValue {
                flag: "--backend".into(),
                value: v.to_string(),
                expected: "threaded | scale | scale:SEED",
            }),
        },
    }
}

/// `ekbd serve …` — expose a dining system as a network daemon.
pub fn cmd_serve(parsed: &Parsed) -> Result<(), ArgError> {
    use ekbd_net::{DaemonServer, ServerConfig};

    let addr = net_addr(parsed, "listen")?;
    let graph = build_topology(parsed.get("topology").unwrap_or("ring:8"))?;
    let serve_ms: u64 = parsed.get_parsed("serve-ms", 2_000u64)?;
    let backend = backend_spec(parsed)?;
    let reactor_threads = parsed.get_parsed("reactor-threads", 2usize)?.max(1);
    let mut cfg = ServerConfig {
        backend: backend.clone(),
        reactor_threads,
        max_sessions: parsed.get_parsed("max-sessions", 64usize)?,
        send_queue: parsed.get_parsed("send-queue", 64usize)?,
        heartbeat_ms: parsed.get_parsed("heartbeat-ms", 200u64)?,
        ..ServerConfig::default()
    };
    if let Some(dir) = parsed.get("journal-dir") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| ArgError::BadValue {
            flag: "--journal-dir".into(),
            value: format!("{}: {e}", dir.display()),
            expected: "a creatable journal directory",
        })?;
        cfg.runtime.journal_dir = Some(dir);
    }
    let server = DaemonServer::start(graph, &addr, cfg).map_err(|e| ArgError::BadValue {
        flag: "--listen".into(),
        value: format!("{addr}: {e}"),
        expected: "a bindable address",
    })?;
    println!("== ekbd serve ==\n");
    println!("listening ................... {}", server.local_addr());
    println!(
        "topology .................... {}",
        parsed.get("topology").unwrap_or("ring:8")
    );
    println!("backend ..................... {backend:?}");
    println!("reactor threads ............. {reactor_threads}");
    println!("serving for ................. {serve_ms} ms");
    std::thread::sleep(std::time::Duration::from_millis(serve_ms));
    print!("\n{}", serve_report(&server.shutdown()));
    Ok(())
}

/// What `ekbd serve` prints once it has stopped. Every count is the
/// server's own, never one taken from the bounded `run.events` tail.
fn serve_report(run: &ekbd_net::ServerRun) -> String {
    let s = &run.stats;
    let mut out = format!(
        "sessions admitted ........... fresh={} resumed={} rejoined={}\n\
         overload shed ............... busy={} slow-reader={} heartbeat={}\n\
         protocol errors ............. {} (handshake timeouts: {})\n\
         sessions reaped ............. {}\n\
         transport ................... frames={} socket-writes={} reactor-wakes={}\n\
         grants served ............... {}\n\
         alternation violations ...... {}\n\
         events recorded ............. {} (last {} kept)\n\
         runtime restarts ............ {}\n",
        s.fresh,
        s.resumed,
        s.rejoined,
        s.shed_busy,
        s.shed_slow,
        s.heartbeat_drops,
        s.protocol_errors,
        s.handshake_timeouts,
        s.reaped,
        s.frames_out,
        s.socket_writes,
        s.reactor_wakes,
        run.meals,
        run.alternation_violations,
        run.events_total,
        run.events.len(),
        run.restarts.len(),
    );
    if let Some(scale) = &run.scale {
        out += &format!(
            "scale kernel ................ n={} eats={} mistakes={} final_tick={}\n",
            scale.n,
            scale.eats.iter().map(|&e| u64::from(e)).sum::<u64>(),
            scale.mistakes,
            scale.final_tick
        );
    }
    out
}

/// `ekbd loadgen …` — drive a client fleet against a serve instance.
pub fn cmd_loadgen(parsed: &Parsed) -> Result<(), ArgError> {
    use ekbd_metrics::Summary;
    use ekbd_net::{run_load, LoadPlan};

    let addr = net_addr(parsed, "connect")?;
    let clients: usize = parsed.get_parsed("clients", 4usize)?;
    if clients == 0 {
        return Err(ArgError::BadValue {
            flag: "--clients".into(),
            value: "0".into(),
            expected: "a positive fleet size",
        });
    }
    let kill: f64 = parsed.get_parsed("kill", 0.0f64)?;
    if !(0.0..=1.0).contains(&kill) {
        return Err(ArgError::BadValue {
            flag: "--kill".into(),
            value: kill.to_string(),
            expected: "a fraction in [0, 1]",
        });
    }
    let multiplex: usize = parsed.get_parsed("multiplex", 1usize)?;
    if multiplex == 0 {
        return Err(ArgError::BadValue {
            flag: "--multiplex".into(),
            value: "0".into(),
            expected: "at least one process per connection",
        });
    }
    let plan = LoadPlan {
        clients,
        sessions_per_client: parsed.get_parsed("sessions", 10usize)?,
        think_ms: parsed.get_parsed("think-ms", 5u64)?,
        kill_fraction: kill,
        seed: parsed.get_parsed("seed", 7u64)?,
        multiplex,
        ..LoadPlan::default()
    };
    let report = run_load(&addr, &plan);
    let lat = Summary::of(report.latencies_ms.iter().copied());
    println!(
        "== ekbd loadgen: {clients} clients × {} processes × {} sessions ==\n",
        multiplex, plan.sessions_per_client
    );
    println!(
        "sessions completed .......... {}/{}",
        report.completed_sessions, report.planned_sessions
    );
    println!(
        "grant latency (ms) .......... p50={} p99={} p999={} max={}",
        lat.p50, lat.p99, lat.p999, lat.max
    );
    println!(
        "kills / reconnects .......... {}/{}",
        report.killed, report.reconnected
    );
    for r in &report.readmissions {
        println!("  p{} readmitted via {} in {} ms", r.process, r.path, r.ms);
    }
    println!("busy retries absorbed ....... {}", report.busy_retries);
    for e in &report.errors {
        println!("error: {e}");
    }
    if report.errors.is_empty() && report.completed_sessions == report.planned_sessions {
        println!("\nverdict ..................... PASS");
    } else {
        println!("\nverdict ..................... FAIL");
    }
    Ok(())
}

/// Dispatches a parsed command line.
pub fn dispatch(parsed: &Parsed) -> Result<(), ArgError> {
    match parsed.command.as_str() {
        "run" => cmd_run(parsed),
        "stabilize" => cmd_stabilize(parsed),
        "threaded" => cmd_threaded(parsed),
        "campaign" => cmd_campaign(parsed),
        "replay" => cmd_replay(parsed),
        "chaos" => cmd_chaos(parsed),
        "serve" => cmd_serve(parsed),
        "loadgen" => cmd_loadgen(parsed),
        other => Err(ArgError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod pinned;

#[cfg(test)]
mod quiet;

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &str) -> Parsed {
        Parsed::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn scenario_builder_defaults() {
        let s = scenario_from(&parsed("run")).unwrap();
        assert_eq!(s.graph.len(), 5);
        assert_eq!(s.workload.sessions, 20);
    }

    #[test]
    fn scenario_builder_full() {
        let s = scenario_from(&parsed(
            "run --topology grid:3x3 --seed 4 --oracle adversarial:2000:40 \
             --sessions 7 --think 1:9 --eat 2:5 --crash 4:100 --horizon 9999",
        ))
        .unwrap();
        assert_eq!(s.graph.len(), 9);
        assert_eq!(s.seed, 4);
        assert_eq!(s.workload.sessions, 7);
        assert_eq!(s.workload.think, (1, 9));
        assert_eq!(s.crashes, vec![(ProcessId(4), Time(100))]);
        assert_eq!(s.horizon, Time(9999));
    }

    #[test]
    fn state_faults_count_the_corrupt_restarts() {
        let line = |flags: &str| state_faults_line(&scenario_from(&parsed(flags)).unwrap());
        assert_eq!(
            line("run --crash 2:700 --recover 2:2000:corrupt"),
            "state faults ................ recoveries=1 (corrupt 1) corruptions=0"
        );
        assert_eq!(
            line(
                "run --crash 2:700 --recover 2:2000 --crash 3:900 --recover 3:2500:corrupt \
                 --corrupt-state 1:1300"
            ),
            "state faults ................ recoveries=2 (corrupt 1) corruptions=1"
        );
    }

    #[test]
    fn run_command_executes_each_algorithm() {
        for alg in ["alg1", "choy-singh", "naive", "budgeted:2"] {
            let p = parsed(&format!(
                "run --topology ring:4 --sessions 3 --horizon 20000 --algorithm {alg}"
            ));
            cmd_run(&p).unwrap();
        }
    }

    #[test]
    fn scenario_builder_faults_and_link() {
        let s = scenario_from(&parsed(
            "run --topology ring:6 --loss 0.1 --dup 0.05 --reorder 0.2:10 \
             --partition 0,1:500-3000 --link on",
        ))
        .unwrap();
        assert!(!s.faults.is_inert());
        assert!(s.link.is_some());
        let s = scenario_from(&parsed("run --topology ring:4")).unwrap();
        assert!(s.faults.is_inert());
        assert!(s.link.is_none());
    }

    #[test]
    fn run_refuses_channel_noise_without_the_link() {
        // The `--dup` line tripped Lemma 1's debug check before it was
        // refused.
        let dup = "run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --dup 0.1";
        for (line, blamed) in [
            (dup, "--dup"),
            ("run --topology ring:4 --loss 0.1", "--loss"),
            ("run --topology ring:4 --reorder 0.2:8", "--reorder"),
            ("run --topology ring:4 --loss 0 --dup 0.1", "--dup"),
            ("run --topology ring:4 --obs streaming --loss 0.1", "--loss"),
            ("stabilize --topology ring:4 --dup 0.1", "--dup"),
            (
                "campaign --topology ring:4 --seeds 2 --reorder 0.2:8",
                "--reorder",
            ),
        ] {
            match dispatch(&parsed(line)) {
                Err(ArgError::BadValue { flag, .. }) => assert_eq!(flag, blamed, "{line}"),
                other => panic!("{line}: expected an error naming {blamed}, got {other:?}"),
            }
        }
        cmd_run(&parsed(&format!("{dup} --link on"))).unwrap();
        // Zero probabilities are no noise.
        cmd_run(&parsed(
            "run --topology ring:4 --sessions 3 --horizon 20000 --loss 0 --dup 0",
        ))
        .unwrap();
    }

    #[test]
    fn run_command_with_faults_executes() {
        let p = parsed(
            "run --topology ring:4 --sessions 3 --horizon 40000 \
             --loss 0.1 --link on",
        );
        cmd_run(&p).unwrap();
    }

    #[test]
    fn net_commands_validate_their_transport() {
        // No transport at all.
        assert!(matches!(
            cmd_loadgen(&parsed("loadgen --clients 2")),
            Err(ArgError::MissingValue(_))
        ));
        // Both transports at once.
        assert!(matches!(
            cmd_serve(&parsed("serve --listen 127.0.0.1:0 --uds /tmp/x.sock")),
            Err(ArgError::BadValue { .. })
        ));
        // Degenerate fleet and out-of-range kill fraction.
        assert!(matches!(
            cmd_loadgen(&parsed("loadgen --connect 127.0.0.1:1 --clients 0")),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            cmd_loadgen(&parsed(
                "loadgen --connect 127.0.0.1:1 --clients 2 --kill 1.5"
            )),
            Err(ArgError::BadValue { .. })
        ));
    }

    /// A run longer than the event tail: the report's grant count must be
    /// the server's meals counter, not a count over the tail it kept.
    #[test]
    fn serve_reports_meals_from_the_counter_not_the_tail() {
        use ekbd_dining::DiningObs;
        let tail: Vec<ekbd_metrics::SchedEvent> = (0..4)
            .map(|i| {
                let obs = [DiningObs::StartedEating, DiningObs::StoppedEating][i % 2];
                ekbd_metrics::SchedEvent::new(Time(i as u64), ProcessId(0), obs)
            })
            .collect();
        let run = ekbd_net::ServerRun {
            events: tail,
            events_total: 3_000_000,
            meals: 1_500_000,
            alternation_violations: 0,
            link: ekbd_metrics::LinkSummary::default(),
            restarts: Vec::new(),
            scale: None,
            stats: ekbd_net::ServerStats::default(),
        };
        let report = serve_report(&run);
        assert!(
            report.contains("grants served ............... 1500000\n"),
            "{report}"
        );
        assert!(
            report.contains("events recorded ............. 3000000 (last 4 kept)\n"),
            "{report}"
        );
    }

    #[test]
    fn loadgen_drives_a_live_server_end_to_end() {
        // Full stack: a real server on an ephemeral port, the loadgen
        // command pointed at it, kills included.
        let server = ekbd_net::DaemonServer::start(
            ekbd_graph::topology::ring(3),
            &ekbd_net::ServerAddr::Tcp("127.0.0.1:0".into()),
            ekbd_net::ServerConfig::default(),
        )
        .unwrap();
        let ekbd_net::ServerAddr::Tcp(addr) = server.local_addr().clone() else {
            unreachable!("tcp server")
        };
        let p = parsed(&format!(
            "loadgen --connect {addr} --clients 3 --sessions 2 --kill 0.3 --seed 5"
        ));
        cmd_loadgen(&p).unwrap();
        let run = server.shutdown();
        assert_eq!(run.stats.fresh, 3, "every client bound: {:?}", run.stats);
        assert_eq!(
            run.stats.resumed + run.stats.rejoined,
            1,
            "exactly one kill was readmitted: {:?}",
            run.stats
        );
    }

    #[test]
    fn run_command_with_recovery_faults() {
        let p = parsed(
            "run --topology ring:5 --sessions 4 --horizon 60000 --oracle perfect \
             --crash 2:300 --recover 2:2000:corrupt --corrupt-state 4:3000",
        );
        cmd_run(&p).unwrap();
    }

    #[test]
    fn recovery_flags_require_algorithm1() {
        let p = parsed(
            "run --topology ring:4 --algorithm naive --crash 1:100 --recover 1:500 \
             --horizon 5000",
        );
        assert!(cmd_run(&p).is_err());
    }

    #[test]
    fn scenario_builder_journal_and_audit_knobs() {
        let s = scenario_from(&parsed(
            "run --topology ring:5 --journal on --crash 2:100 --recover 2:600 \
             --crash 3:200 --recover 3:700 --storage-fault 2:torn \
             --storage-fault 3:stale --audit-period 25 --audit-strikes 3",
        ))
        .unwrap();
        assert!(s.journal);
        assert_eq!(
            s.storage_faults.fault_for(ProcessId(2)),
            Some(ekbd_journal::StorageFault::TornWrite)
        );
        assert_eq!(
            s.storage_faults.fault_for(ProcessId(3)),
            Some(ekbd_journal::StorageFault::StaleSnapshot)
        );
        assert_eq!(s.audit_period, 25);
        assert_eq!(s.audit_strikes, 3);
        assert!(scenario_from(&parsed("run --journal sideways")).is_err());
        assert!(scenario_from(&parsed("run --storage-fault 2:melted")).is_err());
        // Damage to the journal of a process that never restarts is never
        // read back: the schedule is refused rather than run as if clean.
        assert!(matches!(
            scenario_from(&parsed("run --journal on --storage-fault 1:torn")),
            Err(ArgError::BadValue { flag, .. }) if flag == "--storage-fault"
        ));
    }

    #[test]
    fn recover_schedule_survives_channel_fault_flags() {
        // --loss/--partition replace the fault plan; the --recover schedule
        // must still be applied on top of it, not wiped by it.
        let s = scenario_from(&parsed(
            "run --topology ring:5 --loss 0.05 --partition 2:500-3000 \
             --crash 2:300 --recover 2:2000 --link on",
        ))
        .unwrap();
        assert_eq!(s.recoveries(), vec![(ProcessId(2), Time(2000))]);
        assert!(!s.faults.is_inert());
    }

    #[test]
    fn run_command_with_journal_and_storage_faults() {
        let p = parsed(
            "run --topology ring:5 --sessions 4 --horizon 60000 --oracle perfect \
             --crash 2:300 --recover 2:2000 --journal on --storage-fault 2:rot",
        );
        cmd_run(&p).unwrap();
    }

    #[test]
    fn journal_flags_require_algorithm1() {
        let p = parsed("run --topology ring:4 --algorithm naive --journal on --horizon 5000");
        assert!(cmd_run(&p).is_err());
    }

    #[test]
    fn dump_journal_then_replay_round_trips() {
        let dir = std::env::temp_dir().join(format!("ekbd-cli-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = parsed(&format!(
            "run --topology ring:5 --sessions 4 --horizon 60000 --oracle perfect \
             --crash 2:300 --recover 2:2000 --journal on --dump-journal {}",
            dir.display()
        ));
        cmd_run(&p).unwrap();
        let r = parsed(&format!("replay --dir {}", dir.display()));
        cmd_replay(&r).unwrap();
        // Replay of an empty/missing directory is an error, not silence.
        assert!(cmd_replay(&parsed("replay --dir /nonexistent-ekbd")).is_err());
        assert!(cmd_replay(&parsed("replay")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_flags_outside_their_grammar_are_refused() {
        for line in [
            "run --crash 2",
            "run --crash x:1",
            "run --crash 2:1500:9",
            "run --recover 2",
            "run --crash 2:100 --recover 2:1500:blank",
            "run --crash 2:100 --recover 2:1500:corrupt:x",
            "run --corrupt-state 3",
            "run --loss x",
            "run --loss 0.1:3",
            "run --reorder 0.15",
            "run --partition :500-3000",
            "run --partition 0:500",
            "run --partition 0,1:500:3000",
            "run --churn-plan join:2",
            "run --churn-plan evict:2:500",
            "run --churn-plan join:two:500",
            "run --churn-plan leave:1:700:crash",
        ] {
            assert!(
                scenario_from(&parsed(line)).is_err(),
                "{line} must be refused"
            );
        }
    }

    #[test]
    fn fault_flags_that_would_run_wrong_are_refused() {
        for (line, blamed) in [
            ("run --recover 1:500", "--recover"),
            ("run --crash 1:600 --recover 1:500", "--recover"),
            ("run --journal on --storage-fault 1:torn", "--storage-fault"),
            ("run --partition 0,1:3000-500", "--partition"),
            (
                "run --partition 0:100-900 --partition 0,1:500-1500",
                "--partition",
            ),
            ("run --loss 1.5", "--loss"),
            ("run --topology ring:4 --crash 9:100", "--topology"),
            ("run --churn-plan join:2:500 --crash 2:900", "--churn-plan"),
            ("run --dup 1.5", "--dup"),
            ("run --reorder 2:4", "--reorder"),
            ("run --churn-plan join:2:500,join:2:900", "--churn-plan"),
            ("run --churn-plan leave:1:500,leave:1:900", "--churn-plan"),
            ("run --churn-plan leave:2:500,join:2:900", "--churn-plan"),
            (
                "run --topology ring:4 --churn-plan join:9:500",
                "--churn-plan",
            ),
        ] {
            match scenario_from(&parsed(line)) {
                Err(ArgError::BadValue { flag, .. }) => assert_eq!(flag, blamed, "{line}"),
                other => panic!("{line}: expected an error naming {blamed}, got {other:?}"),
            }
        }
    }

    #[test]
    fn flag_schedules_round_trip_through_the_codec() {
        let p = parsed(
            "run --topology grid:3x3 --seed 7 --horizon 40000 --loss 0.05 --dup 0.05 \
             --reorder 0.1:6 --partition 2:400-1500 --crash 5:300 --recover 5:2500 \
             --crash 0:350 --recover 0:1200:corrupt --corrupt-state 1:800 \
             --storage-fault 5:rot --churn-plan \
             join:2:500,leave:3:700,crash-leave:4:900,replace:6:7:1200",
        );
        let schedule = fault_schedule(&p, "grid:3x3", 7, Time(40_000)).unwrap();
        assert_eq!(schedule.events.len(), 13);
        let parts = schedule.compile(9).unwrap();
        let back = ekbd_chaos::codec::parse(&ekbd_chaos::codec::encode(&schedule)).unwrap();
        assert_eq!(back, schedule);
        assert_eq!(back.compile(9).unwrap(), parts);
    }

    #[test]
    fn scenario_builder_churn_flags() {
        let s = scenario_from(&parsed(
            "run --topology ring:6 --seed 3 --horizon 40000 --churn-rate 800",
        ))
        .unwrap();
        assert!(!s.membership.is_inert());
        let s = scenario_from(&parsed(
            "run --topology ring:6 --churn-plan join:2:5000,leave:4:20000",
        ))
        .unwrap();
        assert_eq!(s.membership.events().len(), 2);
        assert!(
            scenario_from(&parsed("run --churn-rate 500 --churn-plan join:2:100")).is_err(),
            "seeded churn and an explicit plan are mutually exclusive"
        );
        assert!(scenario_from(&parsed("run --churn-rate 0")).is_err());
        assert!(scenario_from(&parsed("run --churn-plan evict:2:100")).is_err());
        assert!(
            scenario_from(&parsed("run --topology ring:4 --churn-plan join:9:100")).is_err(),
            "plan must fit the population"
        );
    }

    #[test]
    fn run_command_with_churn_executes() {
        let p = parsed(
            "run --topology ring:6 --sessions 3 --horizon 60000 --oracle perfect \
             --churn-rate 4000",
        );
        cmd_run(&p).unwrap();
        let p = parsed(
            "run --topology ring:5 --sessions 3 --horizon 60000 --oracle perfect \
             --churn-plan join:2:5000,crash-leave:4:20000",
        );
        cmd_run(&p).unwrap();
    }

    #[test]
    fn churn_requires_algorithm1() {
        let p = parsed("run --topology ring:4 --algorithm naive --churn-rate 800 --horizon 5000");
        assert!(cmd_run(&p).is_err());
    }

    #[test]
    fn replay_distinguishes_missing_from_empty_directory() {
        let missing = cmd_replay(&parsed("replay --dir /nonexistent-ekbd"))
            .unwrap_err()
            .to_string();
        assert!(missing.contains("no such path"), "got: {missing}");
        let dir = std::env::temp_dir().join(format!("ekbd-cli-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let empty = cmd_replay(&parsed(&format!("replay --dir {}", dir.display())))
            .unwrap_err()
            .to_string();
        assert!(empty.contains("holds none"), "got: {empty}");
        assert_ne!(missing, empty, "the two failure modes read differently");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_command_with_timeline() {
        let p = parsed("run --topology ring:4 --sessions 3 --horizon 20000 --timeline 2000");
        cmd_run(&p).unwrap();
    }

    #[test]
    fn stabilize_command_executes_each_protocol() {
        for proto in ["coloring", "mis", "leader", "bfs-tree"] {
            let p = parsed(&format!(
                "stabilize --topology ring:4 --horizon 60000 --protocol {proto} --faults 2"
            ));
            cmd_stabilize(&p).unwrap();
        }
        let p = parsed(
            "stabilize --topology ring:4 --horizon 60000 --protocol token-ring:6 --faults 1",
        );
        cmd_stabilize(&p).unwrap();
    }

    #[test]
    fn bad_flags_surface_errors() {
        assert!(cmd_run(&parsed("run --topology blob:2")).is_err());
        assert!(cmd_run(&parsed("run --timeline soon")).is_err());
        assert!(cmd_stabilize(&parsed("stabilize --protocol sorting")).is_err());
        assert!(cmd_campaign(&parsed("campaign --seeds 0")).is_err());
        assert!(cmd_campaign(&parsed("campaign --seeds 2 --workers few")).is_err());
    }

    #[test]
    fn scale_tier_error_names_the_offending_flag() {
        // The packed tier must say *which* flag is incompatible and point
        // at the dense tier, not just blame --shards generically.
        let err = cmd_run(&parsed("run --topology ring:8 --shards 2 --crash 1:100"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--crash"), "got: {err}");
        assert!(err.contains("dense tier"), "got: {err}");
        let err = cmd_run(&parsed("run --topology ring:8 --shards 2 --journal on"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--journal"), "got: {err}");
    }

    #[test]
    fn scale_tier_refuses_bad_ranges_instead_of_panicking() {
        // `ScaleConfig::validate` asserts on each of these, so the CLI must
        // answer first, with the flag's name. The timer wheel keeps one
        // slot per tick of the longest think, so an unbounded `--think`
        // asked for ≈ 240 GB at 10^10 ticks.
        for (args, flag) in [
            ("--think 0:5", "--think"),
            ("--think 9:3", "--think"),
            (
                "--think 1:65536",
                "--think: expected lo:hi ticks with 1 <= lo <= hi <= 65535",
            ),
            (
                "--think 1:10000000000",
                "--think: expected lo:hi ticks with 1 <= lo <= hi <= 65535",
            ),
            ("--eat 0:5", "--eat"),
            ("--eat 9:3", "--eat"),
            ("--eat 1:65536", "--eat"),
            ("--sessions 0", "--sessions"),
        ] {
            let err = cmd_run(&parsed(&format!("run --topology ring:8 --shards 1 {args}")))
                .unwrap_err()
                .to_string();
            assert!(err.contains(flag), "{args}: {err}");
        }
        cmd_run(&parsed(
            "run --topology ring:8 --shards 1 --think 65535:65535 --eat 65535:65535",
        ))
        .unwrap();
    }

    #[test]
    fn campaign_command_executes_and_verifies() {
        let p = parsed(
            "campaign --topology ring:4 --seeds 3 --sessions 2 --horizon 10000 \
             --workers 2 --verify on",
        );
        cmd_campaign(&p).unwrap();
    }

    #[test]
    fn campaign_command_with_recovery_faults() {
        let p = parsed(
            "campaign --topology ring:5 --seeds 2 --sessions 2 --horizon 30000 \
             --oracle perfect --crash 2:300 --recover 2:2000 --workers auto",
        );
        cmd_campaign(&p).unwrap();
    }

    /// A small planted failure: one never-healing partition wedges the
    /// isolated process's ring neighbors (stalled), padded with noise so
    /// the shrinker has something to discard.
    fn planted_stall() -> ekbd_chaos::FaultSchedule {
        ekbd_chaos::FaultSchedule::new("ring-5", 11, Time(60_000))
            .event(ekbd_chaos::ChaosEvent::Noise(ekbd_chaos::ChannelNoise {
                loss: 0.02,
                dup: 0.0,
                reorder: 0.0,
                reorder_window: 0,
            }))
            .event(ekbd_chaos::ChaosEvent::Partition {
                side: vec![ProcessId(2)],
                start: Time(50),
                heal: Time(60_000),
            })
    }

    #[test]
    fn chaos_explore_small_campaign_is_wait_free() {
        let dir = std::env::temp_dir().join(format!("ekbd-chaos-cli-{}", std::process::id()));
        let p = parsed(&format!(
            "chaos --topology ring-5 --count 2 --seed 3 --intensity light --out {}",
            dir.display()
        ));
        cmd_chaos(&p).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_replay_checks_the_expected_class() {
        let dir = std::env::temp_dir().join(format!("ekbd-chaos-replay-{}", std::process::id()));
        let ok = dir.join("stall.chaos");
        let schedule = planted_stall().expecting(ekbd_chaos::RunClass::Stalled);
        ekbd_chaos::codec::write_artifact(&schedule, &ok).unwrap();
        cmd_chaos(&parsed(&format!("chaos --replay {}", ok.display()))).unwrap();
        // The same schedule tagged with the wrong class must fail loudly.
        let wrong = dir.join("wrong.chaos");
        let mistagged = planted_stall().expecting(ekbd_chaos::RunClass::ExclusionMistake);
        ekbd_chaos::codec::write_artifact(&mistagged, &wrong).unwrap();
        let err = cmd_chaos(&parsed(&format!("chaos --replay {}", wrong.display())))
            .unwrap_err()
            .to_string();
        assert!(err.contains("stalled"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_shrink_writes_a_minimal_artifact() {
        let dir = std::env::temp_dir().join(format!("ekbd-chaos-shrink-{}", std::process::id()));
        let big = dir.join("stall.chaos");
        ekbd_chaos::codec::write_artifact(&planted_stall(), &big).unwrap();
        let out = dir.join("minimal.chaos");
        cmd_chaos(&parsed(&format!(
            "chaos --shrink {} --out {}",
            big.display(),
            out.display()
        )))
        .unwrap();
        let small = ekbd_chaos::codec::read_artifact(&out).unwrap();
        assert_eq!(
            small.events.len(),
            1,
            "the noise padding must be shrunk away"
        );
        assert_eq!(small.expect, Some(ekbd_chaos::RunClass::Stalled));
        // The shrunk artifact replays to the same class.
        cmd_chaos(&parsed(&format!("chaos --replay {}", out.display()))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_flag_errors_surface() {
        assert!(cmd_chaos(&parsed("chaos --replay a --shrink b")).is_err());
        assert!(cmd_chaos(&parsed("chaos --replay /nonexistent-ekbd.chaos")).is_err());
        assert!(cmd_chaos(&parsed("chaos --count 0")).is_err());
        assert!(cmd_chaos(&parsed("chaos --intensity brutal")).is_err());
        assert!(cmd_chaos(&parsed("chaos --topology blob-2 --count 1")).is_err());
        // Shrinking a healthy schedule is a usage error, not a crash.
        let dir = std::env::temp_dir().join(format!("ekbd-chaos-healthy-{}", std::process::id()));
        let path = dir.join("healthy.chaos");
        let healthy = ekbd_chaos::FaultSchedule::new("ring-5", 1, Time(60_000));
        ekbd_chaos::codec::write_artifact(&healthy, &path).unwrap();
        let err = cmd_chaos(&parsed(&format!("chaos --shrink {}", path.display())))
            .unwrap_err()
            .to_string();
        assert!(err.contains("nothing to shrink"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
