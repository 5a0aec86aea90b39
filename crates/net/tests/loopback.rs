//! Loopback integration tests: a real [`DaemonServer`] on an ephemeral
//! port (and a Unix socket), real clients, real kills.

use ekbd_graph::topology;
use ekbd_net::{
    run_load, AdmitPath, ClientConfig, ClientError, DaemonClient, DaemonServer, LoadPlan,
    MuxClient, MuxEvent, ServerAddr, ServerConfig,
};
use ekbd_runtime::RuntimeConfig;
use std::io::Write;
use std::time::Duration;

fn ephemeral_tcp() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

fn wait_timeout() -> Duration {
    Duration::from_secs(5)
}

#[test]
fn smoke_session_eats_over_tcp() {
    let server =
        DaemonServer::start(topology::ring(5), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut client = DaemonClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    assert_eq!(client.admit_path(), AdmitPath::Fresh);
    client.hungry().unwrap();
    let granted_at = client.wait_granted(wait_timeout()).unwrap();
    let released_at = client.wait_released(wait_timeout()).unwrap();
    assert!(released_at >= granted_at, "release follows grant");
    client.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 1);
    assert!(
        run.events
            .iter()
            .any(|e| e.obs == ekbd_dining::DiningObs::StartedEating),
        "the dining system recorded the meal"
    );
}

#[cfg(unix)]
#[test]
fn smoke_session_eats_over_uds() {
    let path = std::env::temp_dir().join(format!("ekbd-net-uds-{}.sock", std::process::id()));
    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let mut client = DaemonClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    client.hungry().unwrap();
    client.wait_granted(wait_timeout()).unwrap();
    client.wait_released(wait_timeout()).unwrap();
    client.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_client_resumes_its_session() {
    // With a journal directory the reconnect must ride the fast path.
    let dir = std::env::temp_dir().join(format!("ekbd-net-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut client = DaemonClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.hungry().unwrap();
    client.wait_granted(wait_timeout()).unwrap();
    client.wait_released(wait_timeout()).unwrap();

    client.kill();
    let path = client.reconnect().expect("killed client reconnects");
    assert_ne!(path, AdmitPath::Fresh, "credentials revive the session");

    // The revived session still gets fed.
    client.hungry().unwrap();
    client.wait_granted(wait_timeout()).unwrap();
    client.wait_released(wait_timeout()).unwrap();
    client.bye();

    let run = server.shutdown();
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        1,
        "exactly one readmission: {:?}",
        run.stats
    );
    assert_eq!(run.restarts.len(), 1, "exactly one runtime restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_cap_sheds_with_busy() {
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(5), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let a = DaemonClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let b = DaemonClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    let over = DaemonClient::connect(
        &addr,
        2,
        ClientConfig {
            max_attempts: 2,
            ..ClientConfig::default()
        },
    );
    assert!(
        matches!(over, Err(ClientError::Busy { .. })),
        "third session must be shed: {over:?}",
    );
    a.bye();
    b.bye();
    let run = server.shutdown();
    assert!(
        run.stats.shed_busy >= 2,
        "both attempts shed: {:?}",
        run.stats
    );
    assert_eq!(run.stats.fresh, 2, "cap admitted exactly two sessions");
}

#[test]
fn rejects_bad_process_and_double_binding() {
    let server =
        DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let out_of_range = DaemonClient::connect(&addr, 99, ClientConfig::default());
    assert!(
        matches!(
            out_of_range,
            Err(ClientError::Rejected(ekbd_net::wire::REJECT_BAD_PROCESS))
        ),
        "process outside the graph is rejected: {out_of_range:?}",
    );
    let first = DaemonClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let second = DaemonClient::connect(&addr, 0, ClientConfig::default());
    assert!(
        matches!(
            second,
            Err(ClientError::Rejected(ekbd_net::wire::REJECT_ALREADY_BOUND))
        ),
        "a live binding refuses a second connection: {second:?}",
    );
    first.bye();
    server.shutdown();
}

#[test]
fn malformed_frames_close_the_session_never_the_server() {
    let server =
        DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let ServerAddr::Tcp(raw_addr) = server.local_addr().clone() else {
        unreachable!("tcp server")
    };

    // Garbage at handshake time.
    let mut garbage = std::net::TcpStream::connect(&raw_addr).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // Valid magic, hostile length field.
    let mut hostile = std::net::TcpStream::connect(&raw_addr).unwrap();
    let mut frame = b"EKN1".to_vec();
    frame.extend_from_slice(&u16::MAX.to_le_bytes());
    hostile.write_all(&frame).unwrap();
    // A correct session right afterwards still works: the server survived.
    let addr = server.local_addr().clone();
    let mut client = DaemonClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.hungry().unwrap();
    client.wait_granted(wait_timeout()).unwrap();
    client.wait_released(wait_timeout()).unwrap();

    // Mid-session garbage kills only that session.
    let mut alive_then_garbage = DaemonClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    alive_then_garbage.hungry().unwrap();
    alive_then_garbage.wait_granted(wait_timeout()).unwrap();
    drop(garbage);
    drop(hostile);

    client.bye();
    let run = server.shutdown();
    assert!(
        run.stats.protocol_errors >= 2,
        "both hostile connections were counted: {:?}",
        run.stats
    );
}

#[test]
fn mux_client_drives_many_processes_over_one_socket() {
    let server =
        DaemonServer::start(topology::ring(6), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    for p in 1..=3u32 {
        assert_eq!(mux.bind(p).unwrap(), AdmitPath::Fresh);
    }
    assert_eq!(mux.processes(), vec![0, 1, 2, 3]);

    // All four go hungry on the same socket; every one must eat.
    for p in 0..=3u32 {
        mux.hungry(p).unwrap();
    }
    let mut ate = [false; 4];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ate.iter().any(|&e| !e) {
        assert!(std::time::Instant::now() < deadline, "mux fleet starved");
        match mux.next_event(wait_timeout()).unwrap() {
            MuxEvent::Released { process, .. } => ate[process as usize] = true,
            MuxEvent::Granted { .. } => {}
        }
    }

    // Unbinding a secondary is graceful: no crash, no restart.
    mux.unbind(3).unwrap();
    assert!(mux.hungry(3).is_err(), "unbound process refuses requests");
    mux.bye();
    let run = server.shutdown();
    assert_eq!(
        run.stats.fresh, 4,
        "one Hello + three Binds: {:?}",
        run.stats
    );
    assert_eq!(run.restarts.len(), 0, "graceful teardown crashed nobody");
}

#[test]
fn mux_kill_crashes_block_and_reconnect_rebinds_it() {
    let dir = std::env::temp_dir().join(format!("ekbd-net-mux-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    mux.bind(1).unwrap();
    mux.bind(2).unwrap();
    mux.hungry(0).unwrap();
    loop {
        if let MuxEvent::Released { process: 0, .. } = mux.next_event(wait_timeout()).unwrap() {
            break;
        }
    }

    mux.kill();
    let paths = mux.reconnect().expect("mux reconnect");
    assert_eq!(paths.len(), 3, "primary and both secondaries readmitted");
    for (p, path) in &paths {
        assert_ne!(
            *path,
            AdmitPath::Fresh,
            "p{p} readmitted with history, not fresh"
        );
    }

    // The revived block still gets fed.
    mux.hungry(1).unwrap();
    loop {
        if let MuxEvent::Released { process: 1, .. } = mux.next_event(wait_timeout()).unwrap() {
            break;
        }
    }
    mux.bye();
    let run = server.shutdown();
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        3,
        "all three bindings were readmissions: {:?}",
        run.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection killed mid-meal crashes its process, which never releases
/// that meal: its next grant, after the restart, is no alternation
/// violation, though the trace holds two grants and one release.
#[test]
fn a_crash_mid_meal_is_no_alternation_violation() {
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            eat_ms: 400,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    mux.hungry(0).unwrap();
    assert!(matches!(
        mux.next_event(wait_timeout()).unwrap(),
        MuxEvent::Granted { process: 0, .. }
    ));
    mux.kill();
    mux.reconnect().expect("readmitted");
    mux.hungry(0).unwrap();
    loop {
        if let MuxEvent::Released { process: 0, .. } = mux.next_event(wait_timeout()).unwrap() {
            break;
        }
    }
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.restarts.len(), 1);
    assert_eq!((run.meals, run.alternation_violations), (2, 0));
    let count = |obs| run.events.iter().filter(|e| e.obs == obs).count();
    use ekbd_dining::DiningObs::{StartedEating, StoppedEating};
    assert_eq!((count(StartedEating), count(StoppedEating)), (2, 1));
}

#[test]
fn loadgen_multiplexed_fleet_completes() {
    let server =
        DaemonServer::start(topology::ring(8), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let plan = LoadPlan {
        clients: 2,
        sessions_per_client: 3,
        think_ms: 1,
        kill_fraction: 0.0,
        seed: 5,
        grant_timeout_ms: 5_000,
        multiplex: 4,
        ..LoadPlan::default()
    };
    let report = run_load(&addr, &plan);
    let run = server.shutdown();
    assert_eq!(report.errors, Vec::<String>::new(), "no client failed");
    assert_eq!(report.planned_sessions, 2 * 4 * 3);
    assert_eq!(
        report.completed_sessions, report.planned_sessions,
        "every multiplexed cycle completed"
    );
    assert_eq!(
        run.stats.fresh, 8,
        "two connections admitted eight processes"
    );
}

#[test]
fn loadgen_fleet_with_kills_completes_and_readmits() {
    let dir = std::env::temp_dir().join(format!("ekbd-net-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            journal_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let plan = LoadPlan {
        clients: 4,
        sessions_per_client: 4,
        think_ms: 2,
        kill_fraction: 0.5,
        seed: 11,
        grant_timeout_ms: 5_000,
        ..LoadPlan::default()
    };
    let report = run_load(&addr, &plan);
    let run = server.shutdown();
    assert_eq!(report.errors, Vec::<String>::new(), "no client failed");
    assert_eq!(report.killed, 2, "half the fleet was killed");
    assert_eq!(report.reconnected, 2, "every killed client reconnected");
    assert_eq!(
        report.completed_sessions, report.planned_sessions,
        "wait-freedom end to end: every planned session completed"
    );
    assert_eq!(report.readmissions.len(), 2);
    for r in &report.readmissions {
        assert_ne!(r.path, AdmitPath::Fresh, "readmission kept the session");
    }
    assert_eq!(
        run.stats.resumed + run.stats.rejoined,
        2,
        "server agrees on the readmission count: {:?}",
        run.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}
