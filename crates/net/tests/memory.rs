//! Bounded server memory: a scale-backend server fed by saturated
//! closed-loop clients keeps its high-water mark flat however long it
//! serves. The server and its clients share this process, so `VmHWM` is
//! the whole deployment's peak resident set.
//!
//! Release mode only, and ignored by default:
//!
//! ```text
//! cargo test --release -p ekbd-net --test memory -- --ignored --nocapture
//! ```
//!
//! prints the resident set as the run goes.

#![cfg(target_os = "linux")]

use ekbd_graph::topology;
use ekbd_metrics::EventTail;
use ekbd_net::{
    BackendSpec, ClientConfig, DaemonServer, MuxClient, MuxEvent, ServerAddr, ServerConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `net-saturated`'s shape: a ring of 1024 processes that never think,
/// two connections of 512.
const N: u32 = 1024;
const CONNECTIONS: u32 = 2;

/// Cycles served before the high-water mark is taken as the baseline. The
/// event tail is full after 2¹⁶ cycles; by this point the kernel, the
/// write buffers and the frame readers have their working size too.
const WARM_UP: u64 = 1_000_000;

const GROWTH_LIMIT_KB: u64 = 4 * 1024;

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// One client's closed loop: every process asks again as soon as it is
/// released, until `stop`; then the meals in progress are finished.
/// Returns the meals this client saw end.
fn eat_until(client: &mut MuxClient, served: &AtomicU64, stop: &AtomicBool) -> u64 {
    let processes = client.processes();
    for &p in &processes {
        client.hungry(p).unwrap();
    }
    let (mut meals, mut asked) = (0u64, processes.len());
    while asked > 0 {
        let MuxEvent::Released { process, .. } = client
            .next_event(Duration::from_secs(10))
            .expect("the table keeps serving")
        else {
            continue;
        };
        meals += 1;
        if meals % 1024 == 0 {
            served.fetch_add(1024, Ordering::Relaxed);
        }
        if stop.load(Ordering::Relaxed) {
            asked -= 1;
        } else {
            client.hungry(process).unwrap();
        }
    }
    meals
}

/// Serves at least `cycles` saturated cycles and holds the high-water mark
/// after [`WARM_UP`] to less than [`GROWTH_LIMIT_KB`] of growth.
fn soak(cycles: u64) {
    if cfg!(debug_assertions) {
        panic!("a soak of {cycles} cycles wants --release");
    }
    let server = DaemonServer::start(
        topology::ring(N as usize),
        &ServerAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            backend: BackendSpec::Scale { seed: 5 },
            reactor_threads: 2,
            max_sessions: N as usize,
            send_queue: 4096,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().clone();
    let mut clients: Vec<MuxClient> = (0..CONNECTIONS)
        .map(|c| {
            let block = N / CONNECTIONS;
            let first = c * block;
            let mut client = MuxClient::connect(&addr, first, ClientConfig::default()).unwrap();
            for p in first + 1..first + block {
                client.bind(p).unwrap();
            }
            client
        })
        .collect();
    let (served, stop) = (AtomicU64::new(0), AtomicBool::new(false));
    let start = Instant::now();
    let (meals, baseline_kb) = std::thread::scope(|scope| {
        let loops: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(|| eat_until(client, &served, &stop)))
            .collect();
        let mut baseline_kb = None;
        let mut next_report = 0;
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let so_far = served.load(Ordering::Relaxed);
            if baseline_kb.is_none() && so_far >= WARM_UP {
                baseline_kb = Some(status_kb("VmHWM"));
            }
            if so_far >= next_report {
                println!(
                    "{so_far:>11} cycles {:>7.1} s  VmRSS {:>7} kB  VmHWM {:>7} kB",
                    start.elapsed().as_secs_f64(),
                    status_kb("VmRSS"),
                    status_kb("VmHWM")
                );
                next_report = so_far + cycles / 10;
            }
            if so_far >= cycles {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let meals: u64 = loops.into_iter().map(|l| l.join().unwrap()).sum();
        (meals, baseline_kb.expect("warm-up is shorter than the run"))
    });
    let peak_kb = status_kb("VmHWM");
    println!(
        "{meals:>11} cycles {:>7.1} s  VmHWM {baseline_kb} kB after warm-up, {peak_kb} kB at the end",
        start.elapsed().as_secs_f64()
    );
    for client in clients {
        client.bye();
    }
    let run = server.shutdown();

    assert!(
        peak_kb - baseline_kb < GROWTH_LIMIT_KB,
        "VmHWM grew {} kB over {meals} cycles after warm-up",
        peak_kb - baseline_kb
    );
    assert_eq!(run.meals, meals, "every grant was released and counted");
    assert_eq!(run.events_total, 2 * meals);
    assert_eq!(run.events.len(), EventTail::CAPACITY, "the tail is full");
    assert_eq!(run.alternation_violations, 0);
    assert_eq!(run.scale.expect("scale backend").mistakes, 0);
    let s = run.stats;
    assert_eq!(
        s.protocol_errors + s.shed_slow + s.heartbeat_drops,
        0,
        "{s:?}"
    );
}

#[test]
#[ignore = "a release-mode soak of about ten seconds"]
fn ten_million_saturated_cycles_keep_the_high_water_mark_flat() {
    soak(10_000_000);
}

#[test]
#[ignore = "a release-mode soak of a minute or two"]
fn a_hundred_million_saturated_cycles_keep_the_high_water_mark_flat() {
    soak(100_000_000);
}
