//! When a `MuxClient` request reaches the wire.
//!
//! `hungry` buffers; the buffer is written — in call order, in one
//! `write` — by the next wait, by `flush`, or once 16 KiB are waiting;
//! `kill` and `reconnect` drop what was not written. The first tests hold
//! the client to that against a bare listener that speaks EKN1 by hand,
//! so that what is (and is not) on the socket can be read directly; the
//! last one holds `reconnect` to it against a real server.
//! (`regressions.rs::zero_timeout_polls_receive_pushed_frames` is the
//! other half: a zero-timeout wait writes the buffered request and reads
//! once.)

use ekbd_graph::topology;
use ekbd_net::wire::{encode_frame, AdmitPath, Frame, FrameReader};
use ekbd_net::{
    ClientConfig, ClientError, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Encoded size of one `Hungry`.
const HUNGRY_LEN: usize = 15;

/// A `MuxClient` with `processes` bound, and the server's end of its
/// socket: each `Bind` answered with `Bound`, by hand.
fn admitted(processes: &[u32]) -> (MuxClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = ServerAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut mux = MuxClient::connect(&addr, processes[0], ClientConfig::default())
                .expect("the stub admits the primary");
            for &p in &processes[1..] {
                mux.bind(p).expect("the stub binds every secondary");
            }
            mux
        });
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_nodelay(true).unwrap();
        let mut reader = FrameReader::new();
        let mut answered = 0;
        while answered < processes.len() {
            let answer = match reader.next_frame().expect("the client frames correctly") {
                Some(Frame::Bind { process }) => Frame::Bound {
                    process,
                    path: AdmitPath::Fresh,
                },
                Some(other) => panic!("unexpected frame during admission: {other:?}"),
                None => {
                    assert_ne!(reader.fill(&mut peer).unwrap(), 0, "client hung up");
                    continue;
                }
            };
            peer.write_all(&encode_frame(&answer)).unwrap();
            answered += 1;
        }
        assert_eq!(reader.buffered(), 0, "nothing beyond the admission frames");
        (client.join().unwrap(), peer)
    })
}

/// One `read` on the server's end: the bytes it returned, or `None` when
/// nothing arrived within 50 ms.
fn read_once(peer: &mut TcpStream) -> Option<Vec<u8>> {
    peer.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    match peer.read(&mut buf) {
        Ok(n) => {
            buf.truncate(n);
            Some(buf)
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
        Err(e) => panic!("reading the client's bytes: {e}"),
    }
}

fn hungry_frames(processes: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for process in processes {
        bytes.extend_from_slice(&encode_frame(&Frame::Hungry { process }));
    }
    bytes
}

/// Test (i), `flush`: requests stay off the wire until asked for, then
/// arrive together and in call order.
#[test]
fn requests_reach_the_wire_at_flush_in_call_order_and_in_one_write() {
    let processes: Vec<u32> = (0..32).collect();
    let (mut mux, mut peer) = admitted(&processes);
    // Not in id order, so that call order is what the check sees.
    let asked: Vec<u32> = processes.iter().rev().copied().collect();
    for &p in &asked {
        mux.hungry(p).unwrap();
    }
    assert_eq!(read_once(&mut peer), None, "a request left before flush");
    mux.flush().unwrap();
    assert_eq!(read_once(&mut peer), Some(hungry_frames(asked)));
    mux.flush().unwrap();
    assert_eq!(
        read_once(&mut peer),
        None,
        "flush wrote the same bytes twice"
    );
}

/// Test (i), a wait: the same through `next_event`, whose `Pong` to the
/// server's `Ping` shares the buffer — and is written even by the wait
/// that then times out.
#[test]
fn a_wait_writes_the_requests_and_then_its_pong() {
    let (mut mux, mut peer) = admitted(&[4, 5, 6]);
    for p in [6, 4, 5] {
        mux.hungry(p).unwrap();
    }
    assert_eq!(read_once(&mut peer), None, "a request left before the wait");
    peer.write_all(&encode_frame(&Frame::Ping { nonce: 77 }))
        .unwrap();
    assert!(matches!(
        mux.next_event(Duration::ZERO),
        Err(ClientError::Timeout)
    ));
    let mut seen = Vec::new();
    while let Some(bytes) = read_once(&mut peer) {
        seen.extend_from_slice(&bytes);
    }
    let mut expected = hungry_frames([6, 4, 5]);
    expected.extend_from_slice(&encode_frame(&Frame::Pong { nonce: 77 }));
    assert_eq!(seen, expected);
}

/// A wait's timeout counts from the call even when decoded frames are
/// waiting: the second wait below first answers the `Ping`s the first
/// one read past its `Granted`, then meets a silent socket, and times
/// out no sooner than its timeout and not long after.
#[test]
fn a_wait_behind_buffered_pings_times_out_after_its_timeout() {
    let (mut mux, mut peer) = admitted(&[1]);
    let mut bytes = encode_frame(&Frame::Granted {
        process: 1,
        at_ms: 0,
    });
    for nonce in 0..64 {
        bytes.extend_from_slice(&encode_frame(&Frame::Ping { nonce }));
    }
    peer.write_all(&bytes).unwrap();
    assert!(matches!(
        mux.next_event(Duration::from_secs(5)),
        Ok(MuxEvent::Granted { process: 1, .. })
    ));
    let timeout = Duration::from_millis(150);
    let started = Instant::now();
    assert!(matches!(mux.next_event(timeout), Err(ClientError::Timeout)));
    let waited = started.elapsed();
    assert!(
        waited >= timeout && waited < timeout + Duration::from_secs(2),
        "a {timeout:?} wait took {waited:?}"
    );
    let mut seen = Vec::new();
    while let Some(bytes) = read_once(&mut peer) {
        seen.extend_from_slice(&bytes);
    }
    let pongs: Vec<u8> = (0..64)
        .flat_map(|nonce| encode_frame(&Frame::Pong { nonce }))
        .collect();
    assert_eq!(seen, pongs, "every Ping answered, once");
}

/// Test (ii): a caller that fires without ever waiting is written out
/// every 16 KiB — and not before.
#[test]
fn sixteen_kib_of_requests_are_written_without_a_wait() {
    let (mut mux, mut peer) = admitted(&[0]);
    let calls = (16 * 1024usize).div_ceil(HUNGRY_LEN);
    for _ in 0..calls - 1 {
        mux.hungry(0).unwrap();
    }
    assert_eq!(read_once(&mut peer), None, "written below the threshold");
    mux.hungry(0).unwrap();
    let mut seen = 0;
    while let Some(bytes) = read_once(&mut peer) {
        seen += bytes.len();
    }
    assert_eq!(seen, calls * HUNGRY_LEN, "all of it, once");
    // The count starts over.
    mux.hungry(0).unwrap();
    assert_eq!(read_once(&mut peer), None);
}

/// Test (iii): `kill` drops what was not written — the peer sees the
/// close and not one byte before it.
#[test]
fn kill_discards_unwritten_requests() {
    let (mut mux, mut peer) = admitted(&[0, 1]);
    mux.hungry(0).unwrap();
    mux.hungry(1).unwrap();
    mux.kill();
    assert_eq!(read_once(&mut peer), Some(Vec::new()), "end of stream only");
}

/// A dead socket is reported by the wait (or `flush`) that meets it;
/// `hungry` below 16 KiB never touches the socket and cannot fail on it.
#[test]
fn a_write_error_surfaces_from_the_next_wait_not_from_hungry() {
    let (mut mux, peer) = admitted(&[0]);
    drop(peer);
    mux.hungry(0).expect("buffering cannot fail");
    match mux.next_event(Duration::from_secs(5)) {
        Err(ClientError::Io(_) | ClientError::Closed) => {}
        other => panic!("the wait must report the dead socket: {other:?}"),
    }
}

/// Test (iv): requests buffered when the connection dies are not replayed
/// on the next one. Written to the new socket ahead of the re-`Bind`s
/// they would be `Hungry` for unbound processes — a protocol error that
/// closes the connection.
#[test]
fn reconnect_does_not_replay_requests_buffered_before_the_kill() {
    let server = DaemonServer::start(
        topology::ring(8),
        &ServerAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let processes = [0u32, 2, 4];
    let mut mux = MuxClient::connect(&addr, processes[0], ClientConfig::default()).unwrap();
    for &p in &processes[1..] {
        mux.bind(p).unwrap();
    }
    for &p in &processes {
        mux.hungry(p).unwrap();
    }
    mux.kill();
    let paths = mux.reconnect().expect("the whole block is readmitted");
    assert_eq!(
        paths.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
        processes,
        "every binding survives"
    );
    assert_eq!(mux.processes(), processes);

    // The readmitted block works: one meal each.
    for &p in &processes {
        mux.hungry(p).unwrap();
    }
    let mut released = 0;
    while released < processes.len() {
        match mux.next_event(Duration::from_secs(10)).unwrap() {
            MuxEvent::Granted { .. } => {}
            MuxEvent::Released { .. } => released += 1,
        }
    }
    mux.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
}
