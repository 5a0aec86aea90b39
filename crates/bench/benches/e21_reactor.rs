//! E21 — the readiness reactor at scale: a thousand multiplexed
//! sessions on a handful of threads.
//!
//! E20 established that the networked daemon maps connection churn onto
//! the paper's crash-recovery model. E21 measures the rewrite that makes
//! that mapping *cheap*: a readiness-based reactor (vendored epoll, slab
//! of nonblocking connections, no thread-per-connection) plus the
//! `Bind`/`Unbind` sub-channel that multiplexes many dining processes
//! over one socket. Three phases:
//!
//! * **Capacity** — 64 connections × 16 processes = 1024 concurrent
//!   sessions on a 1024-ring, fronting the bit-packed scale kernel
//!   (`BackendSpec::Scale`). Every planned cycle must complete and the
//!   kernel must report **zero** exclusion mistakes: the reactor carries
//!   four-figure session counts on two threads without touching the
//!   guarantees.
//! * **Churn** — a multiplexed fleet over the full threaded runtime with
//!   a journal; 25 % of the *connections* are hard-killed, which crashes
//!   every process bound to them at once. One reconnect per connection
//!   must readmit the whole block (`resumed`/`rejoined`, never fresh),
//!   all cycles must still complete, and the server-side trace must show
//!   zero exclusion mistakes after the last disturbance — the E20 gates,
//!   now with blast-radius > 1 per socket.
//! * **Overload** — a fleet at 2× the admission cap. Surplus is shed
//!   with `Busy` (never queued) while every accepted session completes
//!   with p99 under the bound: shedding protects the admitted.
//!
//! Results go to stdout only. Set `E21_QUICK=1` for the CI smoke run
//! (smaller fleet; every gate still enforced, with the session floor
//! scaled down).

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_graph::topology;
use ekbd_metrics::{ExclusionReport, Summary};
use ekbd_net::{
    run_load, AdmitPath, BackendSpec, ClientConfig, DaemonServer, LoadPlan, LoadReport, ServerAddr,
    ServerConfig,
};
use ekbd_runtime::RuntimeConfig;
use ekbd_sim::Time;

struct Phase {
    name: &'static str,
    conns: usize,
    multiplex: usize,
    report: LoadReport,
    latency: Summary,
    shed_busy: u64,
    admitted: u64,
    wall_s: f64,
    pass: bool,
}

fn loopback() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

fn main() {
    let quick = std::env::var("E21_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    banner(
        "E21",
        "readiness reactor — 1024 multiplexed sessions, kills with per-socket blast radius",
    );
    if quick {
        println!("(E21_QUICK smoke mode: smaller fleet; all gates enforced at scaled floors)\n");
    }

    // ---- Phase 1: capacity — the reactor fronting the packed kernel. ----
    let (cap_conns, cap_mux) = if quick { (16, 4) } else { (64, 16) };
    let cap_sessions_floor = if quick { 64 } else { 1_000 };
    let cap_n = cap_conns * cap_mux;
    let capacity_cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 0xE21 },
        max_sessions: cap_n,
        send_queue: 256,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(cap_n), &loopback(), capacity_cfg)
        .expect("start capacity server");
    let addr = server.local_addr().clone();
    let capacity_plan = LoadPlan {
        clients: cap_conns,
        sessions_per_client: 2,
        think_ms: 0,
        kill_fraction: 0.0,
        seed: 0xE21,
        grant_timeout_ms: 10_000,
        multiplex: cap_mux,
        ..LoadPlan::default()
    };
    let start = std::time::Instant::now();
    let capacity_report = run_load(&addr, &capacity_plan);
    let capacity_wall_s = start.elapsed().as_secs_f64();
    let capacity_run = server.shutdown();
    let scale = capacity_run.scale.expect("scale backend report");

    let g_concurrent = capacity_run.stats.fresh == cap_n as u64 && cap_n >= cap_sessions_floor;
    let g_cap_waitfree = capacity_report.errors.is_empty()
        && capacity_report.completed_sessions == capacity_report.planned_sessions;
    let g_cap_exclusion = scale.mistakes == 0;
    let capacity_pass = g_concurrent && g_cap_waitfree && g_cap_exclusion;
    let capacity = Phase {
        name: "capacity",
        conns: cap_conns,
        multiplex: cap_mux,
        latency: Summary::of(capacity_report.latencies_ms.iter().copied()),
        shed_busy: capacity_run.stats.shed_busy,
        admitted: capacity_run.stats.fresh,
        report: capacity_report,
        wall_s: capacity_wall_s,
        pass: capacity_pass,
    };

    // ---- Phase 2: churn — kills with per-socket blast radius. ----
    let (churn_conns, churn_mux, churn_cycles) = if quick { (4, 2, 4) } else { (8, 4, 6) };
    let churn_n = churn_conns * churn_mux;
    let journal_dir = std::env::temp_dir().join(format!("ekbd-e21-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal dir");
    let churn_cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(journal_dir.clone()),
            ..RuntimeConfig::default()
        },
        max_sessions: churn_n,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(churn_n), &loopback(), churn_cfg)
        .expect("start churn server");
    let addr = server.local_addr().clone();
    let churn_plan = LoadPlan {
        clients: churn_conns,
        sessions_per_client: churn_cycles,
        think_ms: 2,
        kill_fraction: 0.25,
        seed: 0xE21 + 1,
        grant_timeout_ms: 8_000,
        multiplex: churn_mux,
        ..LoadPlan::default()
    };
    let start = std::time::Instant::now();
    let churn_report = run_load(&addr, &churn_plan);
    let churn_wall_s = start.elapsed().as_secs_f64();
    let churn_run = server.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);

    let horizon = churn_run.events.last().map_or(Time(0), |e| e.time);
    let exclusion = ExclusionReport::analyze(
        &topology::ring(churn_n),
        &churn_run.events,
        &|_| None,
        horizon,
    );
    let last_disturbance_ms = churn_run
        .restarts
        .iter()
        .map(|r| r.at_ms)
        .max()
        .unwrap_or(0);
    let mistakes_after = exclusion.after(Time(last_disturbance_ms));

    let min_kills = churn_conns.div_ceil(4);
    let g_errors = churn_report.errors.is_empty();
    let g_kills = churn_report.killed >= min_kills;
    // One kill takes down a whole block: each killed connection must be
    // readmitted in full — primary plus every secondary, never fresh.
    let g_readmit = churn_report.reconnected == churn_report.killed
        && churn_report.readmissions.len() == churn_report.killed * churn_mux
        && churn_report
            .readmissions
            .iter()
            .all(|r| r.path != AdmitPath::Fresh)
        && churn_run.stats.resumed + churn_run.stats.rejoined
            == (churn_report.killed * churn_mux) as u64;
    let g_waitfree = churn_report.completed_sessions == churn_report.planned_sessions;
    let g_exclusion = mistakes_after == 0;
    let churn_pass = g_errors && g_kills && g_readmit && g_waitfree && g_exclusion;
    let churn = Phase {
        name: "churn",
        conns: churn_conns,
        multiplex: churn_mux,
        latency: Summary::of(churn_report.latencies_ms.iter().copied()),
        shed_busy: churn_run.stats.shed_busy,
        admitted: churn_run.stats.fresh,
        report: churn_report,
        wall_s: churn_wall_s,
        pass: churn_pass,
    };

    // ---- Phase 3: overload — 2× the admission cap, shed not queued. ----
    let over_clients = if quick { 6 } else { 12 };
    let over_cap = over_clients / 2;
    let over_cycles = if quick { 4 } else { 8 };
    let overload_cfg = ServerConfig {
        max_sessions: over_cap,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(over_clients), &loopback(), overload_cfg)
        .expect("start overload server");
    let addr = server.local_addr().clone();
    let overload_plan = LoadPlan {
        clients: over_clients,
        sessions_per_client: over_cycles,
        think_ms: 2,
        kill_fraction: 0.0,
        seed: 0xE21 + 2,
        grant_timeout_ms: 5_000,
        client: ClientConfig {
            max_attempts: 3,
            ..ClientConfig::default()
        },
        ..LoadPlan::default()
    };
    let start = std::time::Instant::now();
    let overload_report = run_load(&addr, &overload_plan);
    let overload_wall_s = start.elapsed().as_secs_f64();
    let overload_run = server.shutdown();

    const P99_BOUND_MS: u64 = 1_000;
    let admitted = overload_run.stats.fresh;
    let overload_latency = Summary::of(overload_report.latencies_ms.iter().copied());
    let g_over_cap = admitted == over_cap as u64;
    let g_shed = overload_run.stats.shed_busy > 0
        && overload_report.errors.len() == over_clients - admitted as usize;
    let g_accepted_complete = overload_report.completed_sessions == admitted as usize * over_cycles;
    let g_bounded = overload_latency.p99 <= P99_BOUND_MS;
    let overload_pass = g_over_cap && g_shed && g_accepted_complete && g_bounded;
    let overload = Phase {
        name: "overload",
        conns: over_clients,
        multiplex: 1,
        latency: overload_latency,
        shed_busy: overload_run.stats.shed_busy,
        admitted,
        report: overload_report,
        wall_s: overload_wall_s,
        pass: overload_pass,
    };

    // ---- Tables. ----
    let mut table = Table::new(&[
        "phase",
        "conns",
        "mux",
        "sessions",
        "admitted",
        "planned",
        "done",
        "killed",
        "readmit",
        "shed busy",
        "p50 ms",
        "p99 ms",
        "wall s",
        "verdict",
    ]);
    for p in [&capacity, &churn, &overload] {
        table.row([
            p.name.to_string(),
            p.conns.to_string(),
            p.multiplex.to_string(),
            (p.conns * p.multiplex).to_string(),
            p.admitted.to_string(),
            p.report.planned_sessions.to_string(),
            p.report.completed_sessions.to_string(),
            p.report.killed.to_string(),
            p.report.readmissions.len().to_string(),
            p.shed_busy.to_string(),
            p.latency.p50.to_string(),
            p.latency.p99.to_string(),
            format!("{:.3}", p.wall_s),
            verdict(p.pass),
        ]);
    }
    table.print();

    println!(
        "\nconcurrent sessions ......... {} ({} on {} reactor threads, floor {})",
        verdict(g_concurrent),
        capacity.admitted,
        ServerConfig::default().reactor_threads,
        cap_sessions_floor
    );
    println!(
        "capacity wait-free .......... {} ({}/{} cycles, kernel mistakes {})",
        verdict(g_cap_waitfree && g_cap_exclusion),
        capacity.report.completed_sessions,
        capacity.report.planned_sessions,
        scale.mistakes
    );
    println!(
        "kill quota (≥25% conns) ..... {} ({}/{} connections, {} required)",
        verdict(g_kills),
        churn.report.killed,
        churn.conns,
        min_kills
    );
    println!(
        "block readmit, never fresh .. {} ({} kills × {} processes → {} readmissions; \
         server: {} resumed / {} rejoined)",
        verdict(g_readmit),
        churn.report.killed,
        churn.multiplex,
        churn.report.readmissions.len(),
        churn_run.stats.resumed,
        churn_run.stats.rejoined
    );
    println!(
        "churn wait-free ............. {} ({}/{} cycles)",
        verdict(g_waitfree),
        churn.report.completed_sessions,
        churn.report.planned_sessions
    );
    println!(
        "post-disturbance exclusion .. {} ({} total, {} after t={} ms)",
        verdict(g_exclusion),
        exclusion.total(),
        mistakes_after,
        last_disturbance_ms
    );
    println!(
        "overload shed, not queued ... {} ({} Busy sheds, {} clients refused)",
        verdict(g_shed),
        overload.shed_busy,
        overload.report.errors.len()
    );
    println!(
        "accepted p99 bounded ........ {} ({} ms ≤ {} ms)",
        verdict(g_bounded),
        overload.latency.p99,
        P99_BOUND_MS
    );

    conclude("E21", capacity.pass && churn.pass && overload.pass);
}
