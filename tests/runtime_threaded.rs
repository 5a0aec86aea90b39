//! Integration of the threaded real-time runtime: the same state machines
//! on OS threads, with wall-clock heartbeats and genuine thread crashes.
//!
//! Timings are deliberately generous — these tests assert liveness shapes,
//! not latency numbers, so they stay robust on loaded CI machines.

use ekbd::dining::DiningObs;
use ekbd::graph::{topology, ProcessId};
use ekbd::metrics::{ExclusionReport, SchedEvent};
use ekbd::runtime::{RuntimeConfig, ThreadedDining};
use ekbd::sim::Time;
use std::time::Duration;

fn eats_per_process(events: &[SchedEvent], n: usize) -> Vec<u32> {
    let mut eats = vec![0u32; n];
    for e in events {
        if e.obs == DiningObs::StartedEating {
            eats[e.process.index()] += 1;
        }
    }
    eats
}

#[test]
fn threaded_clique_schedules_everyone_exclusively() {
    let g = topology::clique(4);
    // A deliberately huge suspicion timeout: on a loaded machine a thread
    // can stall past the default 100 ms and trigger a *legal* ◇WX mistake
    // via false suspicion; with no crash in this test we want the
    // mistake-free regime, so rule false suspicion out entirely.
    let cfg = RuntimeConfig {
        heartbeat: ekbd::detector::HeartbeatConfig {
            period: 10,
            initial_timeout: 60_000,
            timeout_increment: 50,
        },
        eat_ms: 5,
        ..RuntimeConfig::default()
    };
    let sys = ThreadedDining::spawn(g.clone(), cfg);
    for _ in 0..8 {
        for i in 0..4 {
            sys.make_hungry(ProcessId::from(i));
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let events = sys.shutdown_complete(Duration::from_millis(200)).events;
    let eats = eats_per_process(&events, 4);
    assert!(
        eats.iter().all(|&e| e >= 2),
        "everyone eats repeatedly: {eats:?}"
    );
    // No false suspicion on a local machine ⇒ no exclusion mistakes at all.
    let ex = ExclusionReport::analyze(&g, &events, &|_| None, Time(600_000));
    assert_eq!(ex.total(), 0, "{:?}", ex.mistakes);
}

#[test]
fn threaded_crash_mid_protocol_is_tolerated() {
    let g = topology::ring(4);
    let sys = ThreadedDining::spawn(g, RuntimeConfig::default());
    // Warm everyone up, then kill p2 while traffic is flowing.
    for i in 0..4 {
        sys.make_hungry(ProcessId::from(i));
    }
    std::thread::sleep(Duration::from_millis(30));
    sys.crash(ProcessId(2));
    for _ in 0..12 {
        for i in [0usize, 1, 3] {
            sys.make_hungry(ProcessId::from(i));
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let events = sys.shutdown_complete(Duration::from_millis(400)).events;
    let eats = eats_per_process(&events, 4);
    // p1 and p3 are the crash's neighbors; both keep eating after the
    // detector (~100ms) kicks in.
    assert!(eats[1] >= 3 && eats[3] >= 3, "{eats:?}");
}

#[test]
fn threaded_events_are_well_formed() {
    // Event stream sanity: per process, hungry → eat → stop cycles in
    // order, with timestamps non-decreasing.
    let sys = ThreadedDining::spawn(topology::path(3), RuntimeConfig::default());
    for _ in 0..5 {
        for i in 0..3 {
            sys.make_hungry(ProcessId::from(i));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let events = sys.shutdown_complete(Duration::from_millis(150)).events;
    for p in 0..3 {
        let seq: Vec<DiningObs> = events
            .iter()
            .filter(|e| e.process.index() == p)
            .map(|e| e.obs)
            .collect();
        let mut expect = DiningObs::BecameHungry;
        for obs in seq {
            assert_eq!(obs, expect, "p{p} event order");
            expect = match obs {
                DiningObs::BecameHungry => DiningObs::StartedEating,
                DiningObs::StartedEating => DiningObs::StoppedEating,
                _ => DiningObs::BecameHungry,
            };
        }
    }
    let mut last = Time::ZERO;
    for e in events.iter().filter(|e| e.process == ProcessId(0)) {
        assert!(e.time >= last, "timestamps regress");
        last = e.time;
    }
}
