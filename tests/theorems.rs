//! End-to-end checks of the paper's three theorems across topologies,
//! oracles, crash schedules, and seeds.

use ekbd::graph::{random, topology, ConflictGraph, ProcessId};
use ekbd::harness::{Scenario, Workload};
use ekbd::sim::{DelayModel, Time};

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

fn busy_workload() -> Workload {
    Workload {
        sessions: 40,
        think: (1, 100),
        eat: (1, 15),
    }
}

/// Theorem 1 + 2 + 3 on one adversarial run; reused across shapes.
fn check_all_theorems(graph: ConflictGraph, crashes: &[(usize, u64)], seed: u64) {
    let converge = Time(2_500);
    let mut s = Scenario::new(graph)
        .seed(seed)
        .adversarial_oracle(converge, 45)
        .workload(busy_workload())
        .horizon(Time(300_000));
    for &(q, t) in crashes {
        s = s.crash(p(q), Time(t));
    }
    let report = s.run_algorithm1();
    let progress = report.progress();
    assert!(
        progress.wait_free(),
        "Theorem 2 violated (seed {seed}): starving {:?}",
        progress.starving()
    );
    assert_eq!(
        report.exclusion().after(converge),
        0,
        "Theorem 1 violated (seed {seed})"
    );
    assert!(
        report.fairness().max_overtakes_after(converge) <= 2,
        "Theorem 3 violated (seed {seed})"
    );
    assert!(
        report.max_channel_high_water <= 4,
        "§7 channel bound violated (seed {seed})"
    );
}

#[test]
fn theorems_on_ring_with_scattered_crashes() {
    for seed in 0..4 {
        check_all_theorems(topology::ring(8), &[(1, 700), (5, 1_800)], seed);
    }
}

#[test]
fn theorems_on_clique_with_majority_crashes() {
    // Arbitrarily many crashes: 4 of 6 processes die.
    for seed in 0..3 {
        check_all_theorems(
            topology::clique(6),
            &[(0, 400), (2, 900), (4, 1_500), (5, 2_200)],
            seed,
        );
    }
}

#[test]
fn theorems_on_tree_and_grid() {
    check_all_theorems(topology::binary_tree(15), &[(0, 1_000)], 11);
    check_all_theorems(topology::grid(4, 4), &[(5, 600), (10, 1_400)], 12);
}

#[test]
fn theorems_on_random_graphs() {
    for seed in 0..3 {
        let g = random::connected_gnp(12, 0.3, seed + 50);
        check_all_theorems(g, &[(3, 800)], seed);
    }
}

#[test]
fn crash_while_eating_does_not_block_neighbors() {
    // Force p0 to be mid-meal when it crashes: long eats, crash early.
    let report = Scenario::new(topology::ring(5))
        .seed(2)
        .perfect_oracle()
        .workload(Workload {
            sessions: 20,
            think: (1, 10),
            eat: (200, 300),
        })
        .crash(p(0), Time(150)) // during its (probable) first meal
        .horizon(Time(400_000))
        .run_algorithm1();
    assert!(report.progress().wait_free());
    // Its fork-starved neighbors still completed all their sessions.
    for i in [1usize, 4] {
        assert_eq!(report.progress().per_process[i].completed, 20, "p{i}");
    }
}

#[test]
fn heartbeat_detector_end_to_end_under_gst() {
    // A genuinely-implemented ◇P₁ (no scripting): the run must still
    // satisfy all theorems relative to the *measured* convergence time.
    let hb = ekbd::detector::HeartbeatConfig {
        period: 10,
        initial_timeout: 40,
        timeout_increment: 30,
    };
    for seed in 0..3 {
        let report = Scenario::new(topology::ring(6))
            .seed(seed)
            .heartbeat_oracle(hb)
            .delay(DelayModel::Gst {
                gst: Time(1_000),
                pre_max: 150,
                delta: 5,
            })
            .crash(p(3), Time(1_500))
            .workload(busy_workload())
            .horizon(Time(400_000))
            .run_algorithm1();
        let conv = report.detector_convergence();
        assert!(conv < report.horizon, "detector converged (seed {seed})");
        assert!(report.progress().wait_free(), "seed {seed}");
        assert_eq!(report.exclusion().after(conv), 0, "seed {seed}");
        assert!(
            report.fairness().max_overtakes_after(conv) <= 2,
            "seed {seed}"
        );
    }
}

#[test]
fn continuously_hungry_victim_is_overtaken_at_most_twice() {
    // One process (the star hub, lowest priority) is kept continuously
    // hungry by greedy high-priority leaves; in the suffix it may be
    // overtaken at most twice per session by any single neighbor.
    let g = topology::star(5);
    let mut colors = vec![1; 5];
    colors[0] = 0;
    let report = Scenario::new(g)
        .colors(colors)
        .seed(9)
        .workload(Workload {
            sessions: 80,
            think: (1, 4),
            eat: (10, 20),
        })
        .horizon(Time(500_000))
        .run_algorithm1();
    assert!(report.progress().wait_free());
    // Silent oracle and no crashes: the ◇2-BW bound holds from time zero.
    assert!(report.fairness().max_overtakes() <= 2);
}

#[test]
fn quiescence_and_finite_mistakes_are_per_run_bounded() {
    let report = Scenario::new(topology::grid(3, 3))
        .seed(4)
        .adversarial_oracle(Time(2_000), 30)
        .crash(p(4), Time(1_200))
        .workload(busy_workload())
        .horizon(Time(300_000))
        .run_algorithm1();
    let q = report.quiescence();
    assert!(q.quiescent_by(report.horizon));
    assert!(q.total() <= 4 * 4, "≤ 4 messages per live neighbor of p4");
    // Finitely many mistakes: the last one ends strictly before the horizon.
    if let Some(last) = report.exclusion().last_mistake_end() {
        assert!(last < Time(2_100), "mistakes stop at convergence");
    }
}

#[test]
fn no_oracle_no_crash_equals_classic_dining() {
    // With a silent oracle and no crashes Algorithm 1 is a classic dining
    // solution: perpetual exclusion (zero mistakes in the whole run) and
    // 2-bounded waiting throughout.
    for seed in 0..5 {
        let report = Scenario::new(topology::ring(7))
            .seed(seed)
            .workload(busy_workload())
            .horizon(Time(300_000))
            .run_algorithm1();
        assert_eq!(report.exclusion().total(), 0, "seed {seed}");
        assert!(report.fairness().max_overtakes() <= 2, "seed {seed}");
        assert!(report.progress().wait_free(), "seed {seed}");
        assert_eq!(report.progress().total_sessions(), 7 * 40);
    }
}

#[test]
fn probe_detector_end_to_end_under_gst() {
    // The pull-based (probe/echo) round of the ◇P₁ detector drives the
    // same guarantees.
    let cfg = ekbd::detector::HeartbeatConfig {
        period: 10,
        initial_timeout: 60,
        timeout_increment: 30,
    };
    for seed in 0..3 {
        let report = Scenario::new(topology::ring(6))
            .seed(seed)
            .probe_oracle(cfg)
            .delay(DelayModel::Gst {
                gst: Time(1_000),
                pre_max: 150,
                delta: 5,
            })
            .crash(p(3), Time(1_500))
            .workload(busy_workload())
            .horizon(Time(400_000))
            .run_algorithm1();
        let conv = report.detector_convergence();
        assert!(
            conv < report.horizon,
            "probe ◇P₁ must converge (seed {seed})"
        );
        assert!(report.progress().wait_free(), "seed {seed}");
        assert_eq!(report.exclusion().after(conv), 0, "seed {seed}");
        assert!(
            report.fairness().max_overtakes_after(conv) <= 2,
            "seed {seed}"
        );
        assert!(
            report.quiescence().quiescent_by(report.horizon),
            "seed {seed}"
        );
    }
}
