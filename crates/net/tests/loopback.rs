//! Loopback integration tests: a real [`DaemonServer`] on an ephemeral
//! port (and a Unix socket), real clients, real kills.

use ekbd_graph::topology;
use ekbd_net::{
    run_load, AdmitPath, ClientConfig, ClientError, DaemonServer, LoadPlan, MuxClient, MuxEvent,
    ServerAddr, ServerConfig,
};
use ekbd_runtime::RuntimeConfig;
use std::io::Write;
use std::time::{Duration, Instant};

fn ephemeral_tcp() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

fn wait_timeout() -> Duration {
    Duration::from_secs(5)
}

/// One hungry → granted → released cycle of `process`: the server-side
/// grant and release times.
fn eat_once(client: &mut MuxClient, process: u32) -> (u64, u64) {
    client.hungry(process).unwrap();
    let mut granted_at = None;
    loop {
        match client.next_event(wait_timeout()).unwrap() {
            MuxEvent::Granted { process: p, at_ms } if p == process => granted_at = Some(at_ms),
            MuxEvent::Released { process: p, at_ms } if p == process => {
                if let Some(granted_at) = granted_at {
                    return (granted_at, at_ms);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn smoke_session_eats_over_tcp() {
    let server =
        DaemonServer::start(topology::ring(5), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    assert_eq!(client.admit_path(), AdmitPath::Fresh);
    let (granted_at, released_at) = eat_once(&mut client, 0);
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
    let mut client = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    eat_once(&mut client, 1);
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
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    eat_once(&mut client, 0);

    client.kill();
    let paths = client.reconnect().expect("killed client reconnects");
    assert_eq!(paths.len(), 1);
    assert_ne!(paths[0].1, AdmitPath::Fresh, "the bind revives the session");

    // The revived session still gets fed.
    eat_once(&mut client, 0);
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

/// Connects a new connection with `process` as its primary, retrying
/// while the server still holds `process` for a connection that died.
fn connect_once_released(addr: &ServerAddr, process: u32) -> MuxClient {
    let deadline = Instant::now() + wait_timeout();
    loop {
        match MuxClient::connect(addr, process, ClientConfig::default()) {
            Ok(client) => return client,
            Err(ClientError::Rejected(ekbd_net::wire::REJECT_ALREADY_BOUND))
                if Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("p{process} was not readmitted: {e}"),
        }
    }
}

/// A process is named by its id and nothing else. Once connection A
/// dies, connection B claims A's crashed process with a plain `Bind` and
/// is admitted as a readmission. B holds nothing of A's: the session
/// credentials the protocol once issued never protected a detached
/// process, which is why they could go.
#[test]
fn another_connection_readmits_a_killed_process_without_credentials() {
    let server =
        DaemonServer::start(topology::ring(3), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut a = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    assert_eq!(a.admit_path(), AdmitPath::Fresh);
    a.kill();

    let mut b = connect_once_released(&addr, 0);
    assert_ne!(
        b.admit_path(),
        AdmitPath::Fresh,
        "B readmitted A's crashed process"
    );
    eat_once(&mut b, 0);
    b.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.fresh, 1, "{:?}", run.stats);
    assert_eq!(run.stats.resumed + run.stats.rejoined, 1, "{:?}", run.stats);
    assert_eq!(run.restarts.len(), 1, "B's admission recovered p0");
}

#[test]
fn admission_cap_sheds_with_busy() {
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(5), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let a = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let b = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    let over = MuxClient::connect(
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
    let out_of_range = MuxClient::connect(&addr, 99, ClientConfig::default());
    assert!(
        matches!(
            out_of_range,
            Err(ClientError::Rejected(ekbd_net::wire::REJECT_BAD_PROCESS))
        ),
        "process outside the graph is rejected: {out_of_range:?}",
    );
    let first = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let second = MuxClient::connect(&addr, 0, ClientConfig::default());
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
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    eat_once(&mut client, 0);

    // Mid-session garbage kills only that session.
    let mut alive_then_garbage = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    eat_once(&mut alive_then_garbage, 1);
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
    assert_eq!(run.stats.fresh, 4, "four Binds: {:?}", run.stats);
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
