//! The same Algorithm 1 state machines on real OS threads: crossbeam
//! channels as FIFO links, wall-clock heartbeats as ◇P₁, and a genuine
//! crash (the thread exits mid-protocol).
//!
//! ```sh
//! cargo run --example threaded_ring
//! ```

use ekbd::dining::DiningObs;
use ekbd::graph::{topology, ProcessId};
use ekbd::metrics::ExclusionReport;
use ekbd::runtime::{RuntimeConfig, ThreadedDining};
use ekbd::sim::Time;
use std::time::Duration;

fn main() {
    let graph = topology::ring(5);
    println!("Spawning 5 philosopher threads on a ring (heartbeat ◇P₁, 10ms period)…");
    let sys = ThreadedDining::spawn(graph.clone(), RuntimeConfig::default());
    let tap = sys.tap_events();

    // Phase 1: everyone dines politely.
    for round in 0..10 {
        for i in 0..5 {
            sys.make_hungry(ProcessId::from(i));
        }
        std::thread::sleep(Duration::from_millis(25 + round));
    }
    println!(
        "t={:>4}ms  phase 1 done: {} events so far",
        sys.elapsed_ms(),
        tap.try_iter().count()
    );

    // Phase 2: p0's thread crashes for real; its neighbors keep dining.
    sys.crash(ProcessId(0));
    println!("t={:>4}ms  p0 CRASHED (thread exited)", sys.elapsed_ms());
    for _ in 0..10 {
        for i in 1..5 {
            sys.make_hungry(ProcessId::from(i));
        }
        std::thread::sleep(Duration::from_millis(40));
    }

    let events = sys.shutdown_complete(Duration::from_millis(300)).events;
    let mut eats = [0u32; 5];
    for e in &events {
        if e.obs == DiningObs::StartedEating {
            eats[e.process.index()] += 1;
        }
    }
    println!("\neat sessions per process: {eats:?}");
    assert!(
        (1..5).all(|i| eats[i] > eats[0]),
        "survivors must keep eating after the crash"
    );

    // No false suspicion happens on a local machine with a 100ms initial
    // timeout, so exclusion should be perfect even before "convergence".
    let report = ExclusionReport::analyze(&graph, &events, &|_| None, Time(600_000));
    println!("scheduling mistakes observed: {}", report.total());
    println!("\nWait-freedom on real threads: the crashed thread is suspected by");
    println!("its neighbors' heartbeat detectors (~100ms) and dining continues.");
}
