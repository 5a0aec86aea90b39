//! Cross-crate behavior of the baseline algorithms, establishing the
//! contrasts the experiments measure.

use ekbd::baselines::{ChoySinghProcess, HierarchicalProcess, NaivePriorityProcess};
use ekbd::graph::{topology, ProcessId};
use ekbd::harness::{Scenario, Workload};
use ekbd::sim::Time;

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

#[test]
fn choy_singh_is_a_correct_dining_solution_crash_free() {
    // Without crashes the original doorway algorithm is live and safe.
    for seed in 0..4 {
        let report = Scenario::new(topology::ring(6))
            .seed(seed)
            .workload(Workload {
                sessions: 20,
                think: (1, 40),
                eat: (1, 10),
            })
            .horizon(Time(200_000))
            .run_with(|s, q| ChoySinghProcess::from_graph(&s.graph, &s.colors, q));
        assert!(report.progress().wait_free(), "seed {seed}");
        assert_eq!(report.exclusion().total(), 0, "seed {seed}");
        assert!(report.max_channel_high_water <= 4, "seed {seed}");
    }
}

#[test]
fn choy_singh_starves_neighbors_of_crashed_processes() {
    let report = Scenario::new(topology::ring(6))
        .seed(1)
        .crash(p(2), Time(500))
        .workload(Workload {
            sessions: 20,
            think: (1, 80),
            eat: (1, 10),
        })
        .horizon(Time(300_000))
        .run_with(|s, q| ChoySinghProcess::from_graph(&s.graph, &s.colors, q));
    let starving = report.progress().starving();
    assert!(!starving.is_empty(), "someone must starve");
    // Starvation spreads from the crash site: the starved set must include
    // a direct neighbor of p2.
    assert!(
        starving.contains(&p(1)) || starving.contains(&p(3)),
        "a neighbor of the crashed p2 is blocked: {starving:?}"
    );
}

#[test]
fn choy_singh_starvation_spreads_transitively() {
    // On a path, blocking the middle eventually wedges the whole doorway
    // chain: with long enough runs, processes far from the crash starve
    // too (their ack requests pend at a process that is itself blocked
    // inside its hungry session forever).
    let report = Scenario::new(topology::path(5))
        .seed(3)
        .crash(p(2), Time(300))
        .workload(Workload {
            sessions: 50,
            think: (1, 30),
            eat: (1, 8),
        })
        .horizon(Time(400_000))
        .run_with(|s, q| ChoySinghProcess::from_graph(&s.graph, &s.colors, q));
    let starving = report.progress().starving();
    assert!(starving.len() >= 2, "starvation cascades: {starving:?}");
}

#[test]
fn naive_priority_is_wait_free_but_unfair() {
    // Star with a low-priority hub: wait-free (suspicion handles crashes,
    // and here nothing crashes) but the hub is overtaken far more than
    // twice while continuously hungry.
    let g = topology::star(5);
    let mut colors = vec![1; 5];
    colors[0] = 0;
    let report = Scenario::new(g)
        .colors(colors)
        .seed(5)
        .workload(Workload {
            sessions: 60,
            think: (1, 4),
            eat: (8, 16),
        })
        .horizon(Time(400_000))
        .run_with(|s, q| NaivePriorityProcess::from_graph(&s.graph, &s.colors, q));
    assert!(report.progress().wait_free());
    assert!(
        report.fairness().max_overtakes() > 2,
        "no doorway ⇒ unbounded overtaking, got {}",
        report.fairness().max_overtakes()
    );
}

#[test]
fn naive_priority_respects_exclusion_without_oracle_mistakes() {
    let report = Scenario::new(topology::clique(4))
        .seed(8)
        .workload(Workload {
            sessions: 25,
            think: (1, 10),
            eat: (1, 10),
        })
        .horizon(Time(200_000))
        .run_with(|s, q| NaivePriorityProcess::from_graph(&s.graph, &s.colors, q));
    assert_eq!(report.exclusion().total(), 0);
    assert!(report.progress().wait_free());
}

#[test]
fn naive_priority_stays_wait_free_under_crashes_with_oracle() {
    let report = Scenario::new(topology::clique(5))
        .seed(9)
        .perfect_oracle()
        .crash(p(0), Time(400))
        .crash(p(3), Time(900))
        .workload(Workload {
            sessions: 20,
            think: (1, 30),
            eat: (1, 10),
        })
        .horizon(Time(300_000))
        .run_with(|s, q| NaivePriorityProcess::from_graph(&s.graph, &s.colors, q));
    assert!(report.progress().wait_free());
}

#[test]
fn algorithm1_outperforms_baseline_under_identical_crash_schedule() {
    // Same topology, workload, seed, crash schedule: Algorithm 1 completes
    // strictly more sessions than the blocked baseline.
    let make = |_: ()| {
        Scenario::new(topology::star(7))
            .seed(4)
            .crash(p(0), Time(600)) // hub dies; every leaf is its neighbor
            .workload(Workload {
                sessions: 25,
                think: (1, 60),
                eat: (1, 10),
            })
            .horizon(Time(300_000))
    };
    let ours = make(())
        .adversarial_oracle(Time(2_000), 40)
        .run_algorithm1();
    let theirs = make(()).run_with(|s, q| ChoySinghProcess::from_graph(&s.graph, &s.colors, q));
    assert!(ours.progress().wait_free());
    assert!(!theirs.progress().wait_free());
    assert!(
        ours.progress().total_sessions() > theirs.progress().total_sessions(),
        "{} vs {}",
        ours.progress().total_sessions(),
        theirs.progress().total_sessions()
    );
}

/// FNV-1a over the debug rendering of each item, newline-separated.
fn debug_hash<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, item| {
        format!("{item:?}\n")
            .bytes()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

#[test]
fn hierarchical_run_matches_its_literal_digest() {
    // The CLI cannot select this algorithm, so no flag-line table pins it:
    // one run on a grid with a crash in the middle, under ◇P₁.
    let report = Scenario::new(topology::grid(3, 3))
        .seed(6)
        .perfect_oracle()
        .crash(p(4), Time(700))
        .workload(Workload {
            sessions: 12,
            think: (1, 30),
            eat: (1, 10),
        })
        .horizon(Time(200_000))
        .run_with(|s, q| HierarchicalProcess::from_graph(&s.graph, &s.colors, q));
    let got = format!(
        "events={} sched#{:016x} dining_sends={} high_water={}",
        report.events_processed,
        debug_hash(&report.events),
        report.dining_sends,
        report.max_channel_high_water,
    );
    assert_eq!(
        got,
        "events=609 sched#78710894b6dd5ca5 dining_sends=388 high_water=2"
    );
}
