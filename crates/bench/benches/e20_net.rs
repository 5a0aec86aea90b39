//! E20 — networked daemon-as-a-service: fault-tolerant sessions under
//! connection churn.
//!
//! The `ekbd-net` runtime maps network failures onto the paper's
//! crash-recovery fault model: a dead socket is `crash(p)`, a reconnect
//! that binds the process again is `recover(p)` riding the journal
//! fast-resume path (falling back to the blank rejoin handshake). This
//! experiment exercises that mapping end to end over real loopback TCP:
//!
//! * **Churn phase** — a client fleet drives hungry/eat cycles against a
//!   `DaemonServer`; ≥ 25 % of the connections are hard-killed
//!   mid-session (no `Bye`). Every killed client must be readmitted with
//!   its session intact (`resumed`/`rejoined`, never `fresh`), every
//!   planned cycle must still complete (wait-freedom survives the
//!   transport), and the server-side scheduling trace must show **zero**
//!   exclusion mistakes after the last disturbance (Theorem 1 through a
//!   socket). Reported: p50/p99/p999 hungry→eat latency and per-kill
//!   readmission wall time.
//! * **Overload phase** — a fleet twice the admission cap connects at
//!   once. The server must shed the surplus as busy (never queue it)
//!   while every *accepted* session completes all cycles with bounded
//!   p99 latency: shedding protects the admitted.
//!
//! Results go to stdout only. Set `E20_QUICK=1` for the CI smoke run
//! (smaller fleet, fewer cycles; every gate still enforced).

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_graph::topology;
use ekbd_metrics::{ExclusionReport, Summary};
use ekbd_net::{
    run_load, AdmitPath, ClientConfig, DaemonServer, LoadPlan, LoadReport, ServerAddr, ServerConfig,
};
use ekbd_runtime::RuntimeConfig;
use ekbd_sim::Time;

/// One phase's measurements, ready for the table.
struct Phase {
    name: &'static str,
    clients: usize,
    cap: usize,
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
    let quick = std::env::var("E20_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    banner(
        "E20",
        "networked sessions — kill ≥25% of connections mid-run, sessions survive",
    );
    if quick {
        println!("(E20_QUICK smoke mode: smaller fleet and fewer cycles; all gates enforced)\n");
    }

    let (clients, sessions, kill_fraction) = if quick { (5, 4, 0.4) } else { (8, 12, 0.375) };
    let journal_dir = std::env::temp_dir().join(format!("ekbd-e20-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal dir");

    // ---- Churn phase: kills + journal-backed readmission. ----
    let server_cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(journal_dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let max_sessions = server_cfg.max_sessions;
    let server = DaemonServer::start(topology::ring(clients), &loopback(), server_cfg)
        .expect("start churn server");
    let addr = server.local_addr().clone();
    let plan = LoadPlan {
        clients,
        sessions_per_client: sessions,
        think_ms: 2,
        kill_fraction,
        seed: 0xE20,
        grant_timeout_ms: 5_000,
        ..LoadPlan::default()
    };
    let start = std::time::Instant::now();
    let churn_report = run_load(&addr, &plan);
    let churn_wall_s = start.elapsed().as_secs_f64();
    let run = server.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);

    // Safety through the socket: exclusion mistakes in the server-side
    // trace, split at the end of the last disturbance (the final restart
    // the runtime performed). Theorem 1 allows mistakes only before the
    // detector reconverges; after the last readmission there must be none.
    let horizon = run.events.last().map_or(Time(0), |e| e.time);
    let exclusion =
        ExclusionReport::analyze(&topology::ring(clients), &run.events, &|_| None, horizon);
    let last_disturbance_ms = run.restarts.iter().map(|r| r.at_ms).max().unwrap_or(0);
    let mistakes_after = exclusion.after(Time(last_disturbance_ms));

    let min_kills = clients.div_ceil(4); // the ≥ 25 % connection-kill quota
    let g_errors = churn_report.errors.is_empty();
    let g_kills = churn_report.killed >= min_kills;
    let g_readmit = churn_report.reconnected == churn_report.killed
        && churn_report
            .readmissions
            .iter()
            .all(|r| r.path != AdmitPath::Fresh)
        && run.stats.resumed + run.stats.rejoined == churn_report.killed as u64;
    let g_waitfree = churn_report.completed_sessions == churn_report.planned_sessions;
    let g_exclusion = mistakes_after == 0;
    let churn_pass = g_errors && g_kills && g_readmit && g_waitfree && g_exclusion;

    let churn = Phase {
        name: "churn",
        clients,
        cap: max_sessions,
        latency: Summary::of(churn_report.latencies_ms.iter().copied()),
        shed_busy: run.stats.shed_busy,
        admitted: run.stats.fresh,
        report: churn_report,
        wall_s: churn_wall_s,
        pass: churn_pass,
    };

    // ---- Overload phase: fleet at 2× the admission cap, no kills. ----
    // Surplus clients must be shed with `Busy` after their retry budget;
    // the accepted half must complete every cycle with bounded latency.
    let cap = (clients / 2).max(2);
    let overload_server_cfg = ServerConfig {
        max_sessions: cap,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(clients), &loopback(), overload_server_cfg)
        .expect("start overload server");
    let addr = server.local_addr().clone();
    let overload_plan = LoadPlan {
        clients,
        sessions_per_client: sessions,
        think_ms: 2,
        kill_fraction: 0.0,
        seed: 0xE20 + 1,
        grant_timeout_ms: 5_000,
        client: ClientConfig {
            max_attempts: 3,
            ..ClientConfig::default()
        },
        multiplex: 1,
    };
    let start = std::time::Instant::now();
    let overload_report = run_load(&addr, &overload_plan);
    let overload_wall_s = start.elapsed().as_secs_f64();
    let overload_run = server.shutdown();

    const P99_BOUND_MS: u64 = 1_000;
    let admitted = overload_run.stats.fresh;
    let overload_latency = Summary::of(overload_report.latencies_ms.iter().copied());
    let g_cap = admitted == cap as u64;
    let g_shed = overload_run.stats.shed_busy > 0
        && overload_report.errors.len() == clients - admitted as usize;
    let g_accepted_complete = overload_report.completed_sessions == admitted as usize * sessions;
    let g_bounded = overload_latency.p99 <= P99_BOUND_MS;
    let overload_pass = g_cap && g_shed && g_accepted_complete && g_bounded;

    let overload = Phase {
        name: "overload",
        clients,
        cap,
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
        "clients",
        "cap",
        "admitted",
        "planned",
        "done",
        "killed",
        "readmit",
        "shed busy",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "wall s",
        "verdict",
    ]);
    for p in [&churn, &overload] {
        table.row([
            p.name.to_string(),
            p.clients.to_string(),
            p.cap.to_string(),
            p.admitted.to_string(),
            p.report.planned_sessions.to_string(),
            p.report.completed_sessions.to_string(),
            p.report.killed.to_string(),
            p.report.reconnected.to_string(),
            p.shed_busy.to_string(),
            p.latency.p50.to_string(),
            p.latency.p99.to_string(),
            p.latency.p999.to_string(),
            format!("{:.3}", p.wall_s),
            verdict(p.pass),
        ]);
    }
    table.print();

    println!("\nReadmissions (kill → Bound):\n");
    let mut readmit_table = Table::new(&["process", "path", "ms"]);
    for r in &churn.report.readmissions {
        readmit_table.row([
            format!("p{}", r.process),
            r.path.to_string(),
            r.ms.to_string(),
        ]);
    }
    readmit_table.print();

    println!(
        "\nkill quota (≥25%) .......... {} ({}/{} killed, {} required)",
        verdict(g_kills),
        churn.report.killed,
        clients,
        min_kills
    );
    println!(
        "readmission, never fresh .... {} (server: {} resumed / {} rejoined)",
        verdict(g_readmit),
        run.stats.resumed,
        run.stats.rejoined
    );
    println!(
        "wait-freedom end to end ..... {} ({}/{} cycles)",
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

    conclude("E20", churn.pass && overload.pass);
}
