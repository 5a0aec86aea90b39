//! Session-lifecycle regression tests.
//!
//! Each test here pins one bug from the lifecycle sweep that shipped
//! with the reactor rewrite, and fails on the pre-sweep code:
//!
//! 1. detached sessions were never reaped, so a churned (crash-stop)
//!    fleet permanently exhausted the admission cap;
//! 2. a `Busy` shed was slept on twice — once inside the dial on the
//!    server's hint, once in the retry loop's backoff — and the retry
//!    loops also slept after the *final* failed attempt;
//! 3. `shutdown` snapshotted restart notices before runtime teardown,
//!    dropping a restart racing the shutdown;
//! 4. the Unix-socket listener unconditionally unlinked its path, so a
//!    second server silently stole a live server's socket;
//! 5. a connected-but-silent dialer was counted as a protocol error,
//!    polluting the misbehavior signal operators alert on.
//!
//! And one from the transport rework:
//!
//! 6. a wait whose timeout was zero (or had already passed) reported
//!    `Timeout` without reading the socket, so a caller that only ever
//!    polled never saw a frame the server had pushed.
//!
//! And one from the client write path:
//!
//! 7. `MuxClient`'s `pending` queue was popped and cleared but never
//!    pushed to, so a `Granted`/`Released` that arrived while `bind` or
//!    `unbind` waited for its answer failed the call with `Closed`;
//! 8. the default heartbeat window (5 strikes × 200 ms) convicted a live
//!    client that spent little more than a second between two waits —
//!    which, once a saturated run served 10⁷ cycles, the benchmark's own
//!    clients did while it sorted their grant times.
//!
//! And two from the one admission path:
//!
//! 9. `MuxClient::bind` past the admission cap reported the client's own
//!    `base_backoff_ms` as the server's retry hint;
//! 10. on the scale backend a killed block came back on two paths — the
//!     primary `resumed` (its `Resume`), every other process `fresh` (a
//!     plain `Bind`) — though none of them had lost anything.

use ekbd_graph::topology;
use ekbd_net::{
    AdmitPath, BackendSpec, ClientConfig, ClientError, DaemonServer, MuxClient, MuxEvent,
    ServerAddr, ServerConfig,
};
use ekbd_runtime::{RuntimeConfig, ThreadedDining};
use ekbd_sim::ProcessId;
use std::time::{Duration, Instant};

fn ephemeral_tcp() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

/// Satellite 1: crash-stop clients (killed, never resuming) must not
/// hold their admission slots forever. With a short detach TTL, a
/// churned fleet's slots return to the pool and later clients get in.
#[test]
fn churned_fleet_does_not_exhaust_admission() {
    let cfg = ServerConfig {
        max_sessions: 2,
        detach_ttl_ms: 50,
        busy_retry_ms: 20,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(8), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();

    // Wave one fills the cap, then crash-stops without a Bye.
    let mut a = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let mut b = MuxClient::connect(&addr, 1, ClientConfig::default()).unwrap();
    a.kill();
    b.kill();

    // Wave two targets different processes; without the reaper the dead
    // sessions pin both slots and every attempt here sheds Busy until
    // the retry budget runs out.
    let retrying = ClientConfig {
        base_backoff_ms: 20,
        max_backoff_ms: 100,
        max_attempts: 12,
        ..ClientConfig::default()
    };
    let c = MuxClient::connect(&addr, 4, retrying.clone())
        .expect("slot reclaimed from crash-stopped client");
    let d = MuxClient::connect(&addr, 5, retrying).expect("second slot reclaimed too");
    c.bye();
    d.bye();

    let stats = server.stats();
    assert!(
        stats.reaped >= 2,
        "both dead sessions were reaped: {stats:?}"
    );
    server.shutdown();
}

/// Satellite 2: one shed, one sleep. The dial must return `Busy` with
/// the server's hint immediately; the retry loop honors
/// `max(hint, backoff)` once per retry and never sleeps after the final
/// attempt. The pre-fix client stacked hint + backoff per attempt *and*
/// slept once more before giving up, so its wall time here was
/// ≥ 3 × 200 ms of hint alone plus backoff — comfortably past the bound
/// this test enforces.
#[test]
fn busy_shed_sleeps_the_hint_once_and_never_after_the_last_attempt() {
    let cfg = ServerConfig {
        max_sessions: 0,
        busy_retry_ms: 200,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let client_cfg = ClientConfig {
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        max_attempts: 3,
        ..ClientConfig::default()
    };
    let t0 = Instant::now();
    let out = MuxClient::connect(&addr, 0, client_cfg);
    let elapsed = t0.elapsed();
    assert!(
        matches!(out, Err(ClientError::Busy { hint_ms: 200 })),
        "shed with the server's hint attached: {out:?}"
    );
    // Three attempts, two inter-attempt sleeps of max(200, ~1) ms each:
    // the hint is honored (≥ ~400 ms) but neither stacked with the
    // backoff nor slept a third, terminal time (< 520 ms leaves slack
    // for dial overhead while still failing the double-sleep code).
    assert!(
        elapsed >= Duration::from_millis(350),
        "the server's retry hint was honored: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(520),
        "no stacked or terminal backoff sleeps: {elapsed:?}"
    );
    server.shutdown();
}

/// Satellite 3: a restart racing shutdown must appear in the final run.
/// `Recover` is ordered before `Shutdown` in each process mailbox, so
/// with the snapshot taken *after* teardown the notice is guaranteed;
/// the pre-fix code snapshotted before teardown and lost it.
#[test]
fn shutdown_snapshot_includes_restarts_racing_the_teardown() {
    let sys = ThreadedDining::spawn_recoverable(topology::ring(3), RuntimeConfig::default());
    sys.crash(ProcessId(0));
    // No settling sleep: the recover is still in flight when shutdown
    // begins, which is exactly the race.
    sys.recover(ProcessId(0));
    let run = sys.shutdown_complete(Duration::ZERO);
    assert_eq!(
        run.restarts.len(),
        1,
        "the racing restart must be in the snapshot: {:?}",
        run.restarts
    );
}

/// Satellite 4, stale half: a leftover socket file from a dead server
/// must not block a new one — probe-connect refuses, unlink, bind.
#[cfg(unix)]
#[test]
fn uds_bind_clears_a_stale_socket_file() {
    let path = std::env::temp_dir().join(format!("ekbd-net-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A bound-then-dropped listener leaves the file behind with nobody
    // accepting — the crashed-server shape.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists(), "stale socket file is on disk");

    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .expect("stale file is cleared and the bind succeeds");
    let addr = server.local_addr().clone();
    let client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Satellite 4, live half: a second server must *not* steal the socket
/// out from under a running one. The probe connects, so the bind is
/// refused with `AddrInUse` — and the first server keeps serving.
#[cfg(unix)]
#[test]
fn uds_bind_refuses_a_live_server() {
    let path = std::env::temp_dir().join(format!("ekbd-net-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    )
    .unwrap();

    let second = DaemonServer::start(
        topology::ring(3),
        &ServerAddr::Uds(path.clone()),
        ServerConfig::default(),
    );
    match second {
        Err(e) => assert_eq!(
            e.kind(),
            std::io::ErrorKind::AddrInUse,
            "live server is refused, not stolen: {e}"
        ),
        Ok(_) => panic!("second server must not bind over a live one"),
    }

    // The first server is unharmed — its socket file still answers, and
    // a whole hungry → granted → released cycle runs through it.
    let addr = server.local_addr().clone();
    let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    client.hungry(0).unwrap();
    assert!(matches!(
        client.next_event(Duration::from_secs(5)),
        Ok(MuxEvent::Granted { process: 0, .. })
    ));
    assert!(matches!(
        client.next_event(Duration::from_secs(5)),
        Ok(MuxEvent::Released { process: 0, .. })
    ));
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Satellite 5: a dialer that connects and never speaks is dropped at
/// the handshake deadline and counted as a *timeout*, not a protocol
/// error — it broke no framing rule. The pre-fix server folded both
/// into `protocol_errors`, polluting the signal operators alert on.
#[test]
fn silent_dialer_counts_as_handshake_timeout_not_protocol_error() {
    let cfg = ServerConfig {
        handshake_ms: 100,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(3), &ephemeral_tcp(), cfg).unwrap();
    let ServerAddr::Tcp(raw_addr) = server.local_addr().clone() else {
        unreachable!("tcp server")
    };

    let silent = std::net::TcpStream::connect(&raw_addr).unwrap();
    // Hold the socket open, say nothing, and give the deadline sweep
    // time to convict.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.handshake_timeouts == 1 {
            assert_eq!(
                stats.protocol_errors, 0,
                "silence is not a framing violation: {stats:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "handshake sweep never fired: {stats:?}",
            stats = server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(silent);
    server.shutdown();
}

/// Bug 6: polling with a zero timeout must still make progress. Each
/// poll reads the socket once before it may report `Timeout`, so the
/// pushed `Granted` arrives; the pre-fix client compared the clock
/// first and returned `Timeout` forever. Since `MuxClient::hungry`
/// buffers, the same polls are also what put the request on the wire:
/// a zero-timeout wait writes the buffer, then reads once.
#[test]
fn zero_timeout_polls_receive_pushed_frames() {
    let server =
        DaemonServer::start(topology::ring(4), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let deadline = Instant::now() + Duration::from_secs(5);

    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    mux.hungry(0).unwrap();
    loop {
        match mux.next_event(Duration::ZERO) {
            Ok(MuxEvent::Granted { process: 0, .. }) => break,
            Err(ClientError::Timeout) => {}
            other => panic!("unexpected answer to a poll: {other:?}"),
        }
        assert!(Instant::now() < deadline, "polling never saw the grant");
    }
    mux.bye();
    server.shutdown();
}

/// Bug 7: a table event that arrives while a control call waits for its
/// answer belongs to `next_event`, not to the call. Process 0 asks, its
/// grant and release (immediate on the scale backend: both neighbours
/// think) are given time to reach the socket, and only then is process 2
/// bound — so `bind` reads `Granted{0}` and `Released{0}` before its own
/// `Bound`. The pre-fix client failed the bind with `Closed` at the first
/// of them. (At the parent `hungry` wrote at once and there was no
/// `flush`; delete that line to see this fail there.)
#[test]
fn events_arriving_during_bind_are_queued_for_next_event() {
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 7 },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let wait = Duration::from_secs(5);

    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    mux.hungry(0).unwrap();
    mux.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    mux.bind(2)
        .expect("a grant in flight does not fail the bind");
    assert!(matches!(
        mux.next_event(wait),
        Ok(MuxEvent::Granted { process: 0, .. })
    ));
    assert!(matches!(
        mux.next_event(wait),
        Ok(MuxEvent::Released { process: 0, .. })
    ));

    // The same for `unbind`, with the process just bound doing the eating.
    mux.hungry(2).unwrap();
    mux.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    mux.unbind(2)
        .expect("a grant in flight does not fail the unbind");
    assert!(matches!(
        mux.next_event(wait),
        Ok(MuxEvent::Granted { process: 2, .. })
    ));
    assert!(matches!(
        mux.next_event(wait),
        Ok(MuxEvent::Released { process: 2, .. })
    ));
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
}

/// Bug 8: a client answers `Ping`s only from inside its waits, so the
/// default conviction window must outlast a caller that is alive and
/// busy elsewhere. A second and a half of that — well inside the default
/// 5 s, past the old 1.2 s — leaves the session standing.
#[test]
fn a_live_client_busy_elsewhere_for_a_second_is_not_convicted() {
    let server =
        DaemonServer::start(topology::ring(4), &ephemeral_tcp(), ServerConfig::default()).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    std::thread::sleep(Duration::from_millis(1_600));
    mux.hungry(0).unwrap();
    assert!(matches!(
        mux.next_event(Duration::from_secs(5)),
        Ok(MuxEvent::Granted { process: 0, .. })
    ));
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.heartbeat_drops, 0, "{:?}", run.stats);
}

/// Bug 9: a `bind` past the admission cap reports the server's retry
/// hint, which the refusal now carries, and the connection keeps
/// serving what it has bound. The pre-fix client made the hint up from
/// its own `base_backoff_ms` (10 ms by default).
#[test]
fn bind_past_the_cap_reports_the_servers_busy_hint() {
    let cfg = ServerConfig {
        max_sessions: 1,
        busy_retry_ms: 200,
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(4), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let mut mux = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
    let over = mux.bind(2);
    assert!(
        matches!(over, Err(ClientError::Busy { hint_ms: 200 })),
        "the server's hint: {over:?}"
    );
    assert_eq!(mux.processes(), vec![0]);
    mux.hungry(0).unwrap();
    assert!(matches!(
        mux.next_event(Duration::from_secs(5)),
        Ok(MuxEvent::Granted { process: 0, .. })
    ));
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.shed_busy, 1, "{:?}", run.stats);
}

/// Bug 10: one rule names every readmission's path. On the scale backend
/// nothing crashes, so a killed block of four comes back `resumed`
/// throughout: each process still has its detached slot. The pre-fix
/// server reported the primary `resumed` and the three others `fresh`.
#[test]
fn a_killed_block_on_the_scale_backend_comes_back_on_one_path() {
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: 3 },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(topology::ring(8), &ephemeral_tcp(), cfg).unwrap();
    let addr = server.local_addr().clone();
    let block = [0u32, 1, 2, 3];
    let mut mux = MuxClient::connect(&addr, block[0], ClientConfig::default()).unwrap();
    for &p in &block[1..] {
        assert_eq!(mux.bind(p).unwrap(), AdmitPath::Fresh);
    }
    mux.kill();
    let paths = mux.reconnect().expect("the block is readmitted");
    assert_eq!(
        paths,
        block.map(|p| (p, AdmitPath::Resumed)).to_vec(),
        "every process of the block on the same path"
    );
    mux.bye();
    let run = server.shutdown();
    assert_eq!(
        (run.stats.fresh, run.stats.resumed, run.stats.rejoined),
        (4, 4, 0),
        "{:?}",
        run.stats
    );
}
