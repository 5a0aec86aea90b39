//! The transport under load: what the reactors owe every connection when
//! they batch — a slow reader shed without hurting its neighbours,
//! per-process frame order across reactor threads, and writes and
//! wake-ups that stay far below the frame count.

use ekbd_dining::DiningObs;
use ekbd_graph::topology;
use ekbd_metrics::ExclusionReport;
use ekbd_net::wire::{encode_frame, Frame};
use ekbd_net::{
    BackendSpec, ClientConfig, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig,
    ServerRun,
};
use ekbd_runtime::RuntimeConfig;
use ekbd_sim::Time;
use std::io::Write;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn scale(seed: u64) -> ServerConfig {
    ServerConfig {
        backend: BackendSpec::Scale { seed },
        ..ServerConfig::default()
    }
}

/// Connects `primary` and binds the rest of `processes` behind it.
fn mux(addr: &ServerAddr, processes: &[u32]) -> MuxClient {
    let mut client = MuxClient::connect(addr, processes[0], ClientConfig::default()).unwrap();
    for &p in &processes[1..] {
        client.bind(p).unwrap();
    }
    client
}

/// Drives every process of `client` through `cycles` meals with no think
/// time, and holds the server to strict alternation: per process, a
/// `Granted`, then its `Released`, then the next `Granted`.
fn eat(client: &mut MuxClient, cycles: u32) {
    let processes = client.processes();
    // Per process: meals finished, and whether it is eating right now.
    let mut table: std::collections::HashMap<u32, (u32, bool)> =
        processes.iter().map(|&p| (p, (0, false))).collect();
    for &p in &processes {
        client.hungry(p).unwrap();
    }
    let mut left = processes.len();
    while left > 0 {
        match client.next_event(WAIT).expect("the table keeps serving") {
            MuxEvent::Granted { process, .. } => {
                let (_, eating) = table.get_mut(&process).expect("an event for one of ours");
                assert!(!*eating, "p{process} granted twice without a release");
                *eating = true;
            }
            MuxEvent::Released { process, .. } => {
                let (meals, eating) = table.get_mut(&process).expect("an event for one of ours");
                assert!(*eating, "p{process} released without a grant");
                *eating = false;
                *meals += 1;
                if *meals < cycles {
                    client.hungry(process).unwrap();
                } else {
                    left -= 1;
                }
            }
        }
    }
}

/// Test (i): a connection that asks and never reads is disconnected once
/// its socket stops taking frames, and nobody else notices.
#[cfg(unix)]
#[test]
fn a_reader_that_never_reads_is_shed_and_its_neighbours_keep_eating() {
    const GREEDY: u32 = 1024;
    const POLITE: u32 = 8;
    let path = std::env::temp_dir().join(format!("ekbd-net-slow-{}.sock", std::process::id()));
    let server = DaemonServer::start(
        topology::ring((GREEDY + POLITE) as usize),
        // A Unix socket holds a fixed couple of hundred kilobytes, so the
        // unread frames back up into the server's buffer after a few
        // thousand cycles.
        &ServerAddr::Uds(path.clone()),
        ServerConfig {
            max_sessions: (GREEDY + POLITE) as usize,
            ..scale(3)
        },
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let polite: Vec<u32> = (GREEDY..GREEDY + POLITE).collect();
    let mut polite = mux(&addr, &polite);
    eat(&mut polite, 10);

    // Binds a block without waiting for a single answer, then asks for
    // every process of it round after round until the server hangs up.
    let greedy = std::thread::spawn({
        let path = path.clone();
        move || {
            let mut raw = std::os::unix::net::UnixStream::connect(path).unwrap();
            let mut block = Vec::new();
            for process in 0..GREEDY {
                block.extend_from_slice(&encode_frame(&Frame::Bind { process }));
            }
            raw.write_all(&block).unwrap();
            block.clear();
            for process in 0..GREEDY {
                block.extend_from_slice(&encode_frame(&Frame::Hungry { process }));
            }
            let deadline = Instant::now() + WAIT;
            while raw.write_all(&block).is_ok() {
                assert!(Instant::now() < deadline, "the server never hung up");
            }
        }
    });

    // The polite connection eats all the while, and afterwards.
    while !greedy.is_finished() {
        eat(&mut polite, 5);
    }
    greedy.join().unwrap();
    assert_eq!(server.stats().shed_slow, 1, "{:?}", server.stats());
    eat(&mut polite, 50);
    polite.bye();
    let run = server.shutdown();
    assert_eq!(run.stats.shed_slow, 1, "{:?}", run.stats);
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
    assert_eq!(run.scale.expect("scale backend").mistakes, 0);
    let _ = std::fs::remove_file(&path);
}

const CONNECTIONS: u32 = 4;
const BLOCK: u32 = 32;

/// Four connections of 32 processes on two reactors, dealt out so that
/// ring neighbours always sit on different connections *and* different
/// reactor threads (connections are adopted round-robin in dial order),
/// every process eating `cycles` times with no think time.
fn saturate(cfg: ServerConfig, cycles: u32) -> ServerRun {
    let n = CONNECTIONS * BLOCK;
    let server = DaemonServer::start(
        topology::ring(n as usize),
        &ServerAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            reactor_threads: 2,
            max_sessions: n as usize,
            send_queue: 2 * BLOCK as usize + 8,
            ..cfg
        },
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let mut clients: Vec<MuxClient> = (0..CONNECTIONS)
        .map(|c| {
            let processes: Vec<u32> = (c..n).step_by(CONNECTIONS as usize).collect();
            mux(&addr, &processes)
        })
        .collect();
    std::thread::scope(|scope| {
        for client in &mut clients {
            scope.spawn(move || eat(client, cycles));
        }
    });
    for client in clients {
        client.bye();
    }
    server.shutdown()
}

/// Test (ii): with the kernel stepped by whichever reactor holds its
/// lock, every process still sees its own frames in kernel order.
#[test]
fn frames_of_a_process_keep_kernel_order_across_reactors() {
    let cycles = 400; // × 128 processes: 51 200 cycles
    let run = saturate(scale(11), cycles);
    let total = u64::from(CONNECTIONS * BLOCK * cycles);
    assert!(run.scale.is_some(), "scale backend");
    assert_eq!(
        run.events_total,
        2 * total,
        "one grant and one release a cycle"
    );
    assert_eq!(run.meals, total);
    assert_eq!(run.stats.protocol_errors, 0, "{:?}", run.stats);
    assert_eq!(run.stats.shed_slow, 0, "{:?}", run.stats);
    assert_counters_match_the_tail(&run);
}

/// Recounts from the tail what the server counted as events arrived, on a
/// run short enough for the tail to be the whole trace, and checks
/// exclusion over it and, on the scale backend, the kernel's own count.
fn assert_counters_match_the_tail(run: &ServerRun) {
    let n = (CONNECTIONS * BLOCK) as usize;
    assert_eq!(run.events_total, run.events.len() as u64, "the run fits");
    let mut eating = vec![false; n];
    let (mut meals, mut violations) = (0, 0);
    for e in &run.events {
        let p = e.process.index();
        match e.obs {
            DiningObs::StartedEating => {
                meals += 1;
                violations += u64::from(eating[p]);
                eating[p] = true;
            }
            DiningObs::StoppedEating => {
                violations += u64::from(!eating[p]);
                eating[p] = false;
            }
            _ => {}
        }
    }
    assert_eq!(run.meals, meals, "meals");
    assert_eq!(run.alternation_violations, violations, "alternation");
    assert_eq!(violations, 0);
    let horizon = run.events.last().map_or(Time(0), |e| e.time);
    let exclusion = ExclusionReport::analyze(&topology::ring(n), &run.events, &|_| None, horizon);
    assert_eq!(exclusion.total(), 0, "{:?}", exclusion.mistakes);
    if let Some(scale) = &run.scale {
        assert_eq!(scale.mistakes, 0);
    }
}

/// The same recount on the threaded backend, whose tail also holds the
/// runtime's `BecameHungry`s. Nobody is suspected (the first timeout is a
/// minute), so no exclusion mistake is allowed either.
#[test]
fn the_threaded_backends_counters_agree_with_its_tail() {
    let mut runtime = RuntimeConfig {
        eat_ms: 1,
        ..RuntimeConfig::default()
    };
    runtime.heartbeat.initial_timeout = 60_000;
    let cfg = ServerConfig {
        runtime,
        ..ServerConfig::default()
    };
    let cycles = 20;
    let run = saturate(cfg, cycles);
    assert_eq!(run.meals, u64::from(CONNECTIONS * BLOCK * cycles));
    assert!(run.events_total > 2 * run.meals, "hungry transitions too");
    assert_counters_match_the_tail(&run);
}

/// Test (iii): under load a write carries a pass's worth of frames and a
/// wake-up a batch's worth — at one write and one wake-up per frame both
/// ratios are 1.
fn assert_coalesced(run: &ServerRun) {
    let s = &run.stats;
    assert_eq!(s.protocol_errors + s.shed_slow, 0, "{s:?}");
    assert!(
        s.socket_writes <= s.frames_out / 4,
        "writes per frame: {s:?}"
    );
    assert!(
        s.reactor_wakes <= s.frames_out / 4,
        "wakes per frame: {s:?}"
    );
}

#[test]
fn writes_and_wakes_are_per_pass_on_the_scale_backend() {
    assert_coalesced(&saturate(scale(12), 400));
}

#[test]
fn writes_and_wakes_are_per_pass_on_the_threaded_backend() {
    // The runtime's shortest meal: its 128 philosopher threads then keep
    // both cores busy, which is what saturated means for it.
    let cfg = ServerConfig {
        runtime: RuntimeConfig {
            eat_ms: 1,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    };
    assert_coalesced(&saturate(cfg, 60));
}
