//! Sharded-kernel golden gate (scale-tier satellite): shard-count
//! invariance, rerun byte-identity, a committed table of literal
//! fingerprints, and cross-check against the dense simulator's semantics
//! on small graphs.
//!
//! The packed kernel promises that its result is a pure function of
//! `(graph, colors, seed)` — the shard count and thread interleaving must
//! be unobservable. These tests pin that promise over the reference
//! topologies and both random-graph families.

use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{coloring, random, topology, ConflictGraph};
use ekbd_sim::{run_sharded, InteractiveScale, PackedKernel, ScaleConfig, ScaleRunReport};

fn run(g: &ConflictGraph, shards: usize, seed: u64) -> ScaleRunReport {
    let colors = coloring::greedy(g);
    let part = greedy_edge_cut(g, shards);
    let kernel = PackedKernel::new(g, &colors, &part, ScaleConfig::default().seed(seed));
    run_sharded(kernel)
}

/// Same verdict, per-process eat counts, and full fingerprint for shard
/// counts 1, 2, and 4.
fn assert_shard_invariant(g: &ConflictGraph, seed: u64, label: &str) {
    let one = run(g, 1, seed);
    assert!(one.verdict(), "{label}: single-shard run must pass");
    assert_eq!(one.mistakes, 0, "{label}: fault-free run must be clean");
    for shards in [2, 4] {
        let many = run(g, shards, seed);
        assert_eq!(
            many.verdict(),
            one.verdict(),
            "{label}: verdict diverged at {shards} shards"
        );
        assert_eq!(
            many.eats, one.eats,
            "{label}: per-process eat counts diverged at {shards} shards"
        );
        assert_eq!(
            many.fingerprint(),
            one.fingerprint(),
            "{label}: fingerprint diverged at {shards} shards"
        );
    }
}

#[test]
fn ring_is_shard_count_invariant() {
    assert_shard_invariant(&topology::ring(32), 3, "ring-32");
}

#[test]
fn grid_is_shard_count_invariant() {
    assert_shard_invariant(&topology::grid(6, 6), 7, "grid-6x6");
}

#[test]
fn gnp_is_shard_count_invariant() {
    assert_shard_invariant(&random::connected_gnp(48, 0.1, 5), 9, "gnp-48");
}

#[test]
fn powerlaw_is_shard_count_invariant() {
    assert_shard_invariant(&random::powerlaw(64, 3, 2), 4, "powerlaw-64");
}

#[test]
fn reruns_are_byte_identical_per_shard_count() {
    let g = random::powerlaw(60, 2, 13);
    for shards in [1, 2, 4] {
        let a = run(&g, shards, 21);
        let b = run(&g, shards, 21);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "rerun diverged at {shards} shards"
        );
        assert_eq!(a.eats, b.eats);
        assert_eq!(a.excerpts, b.excerpts);
        assert_eq!(a.final_tick, b.final_tick);
    }
}

#[test]
fn packed_semantics_cross_check_against_full_simulator() {
    // The packed kernel runs the same Algorithm 1 code as the dense
    // `DiningProcess` (`ekbd_sim::alg1`: the S1 words, the guard pass and
    // the action effects), but its scheduling, hashed delays, exclusion
    // check and colour table are its own, so traces are not comparable
    // event by event — the *safety theorems* must hold in both worlds. On the
    // reference topologies the packed run must be mistake-free and
    // wait-free, exactly as the golden-trace-pinned dense simulator is.
    for (g, label) in [
        (topology::ring(8), "ring-8"),
        (topology::clique(6), "clique-6"),
        (topology::grid(3, 4), "grid-3x4"),
    ] {
        let r = run(&g, 2, 17);
        assert!(r.verdict(), "{label}: {}", r.fingerprint());
        assert_eq!(r.mistakes, 0, "{label}: exclusion violated");
        assert_eq!(r.starving, 0, "{label}: wait-freedom violated");
        assert!(
            r.eats.iter().all(|&e| e == ScaleConfig::default().sessions),
            "{label}: every process must finish its sessions"
        );
    }
}

/// Literal fingerprints, committed against the per-slot-guard kernel before
/// the guards were made word-parallel. Every other test here compares runs
/// with each other, so a refactor that changed behaviour *consistently*
/// would pass them; these hold the behaviour absolutely, and with
/// `tests/golden_trace.rs` they are the reference for the guard pass the
/// kernel shares with the dense processes. The set covers
/// degree 0 (`sparse_gnp` has isolated vertices), 1–10 (one guard chunk),
/// 11–20 (two) and ≥ 21 (three).
#[test]
fn fingerprints_match_the_committed_table() {
    let table: [(&str, ConflictGraph, u64, &str); 7] = [
        ("ring-32", topology::ring(32), 3, "packed-scale-v1 n=32 events=882 msgs=690 ticks=167 eats#3872de70f0e012fb mistakes=0 starving=0 lat[n=96 min=4 p50=14 p99=38 max=38 mean=15.1] ex#923257a311cad2d5"),
        ("grid-6x6", topology::grid(6, 6), 7, "packed-scale-v1 n=36 events=1534 msgs=1318 ticks=184 eats#db69daaba98738e2 mistakes=0 starving=0 lat[n=108 min=4 p50=17 p99=33 max=33 mean=18.0] ex#d9799b2a0221f14e"),
        ("gnp-48", random::connected_gnp(48, 0.1, 5), 9, "packed-scale-v1 n=48 events=3786 msgs=3498 ticks=236 eats#a36f9c3d03d10a3e mistakes=0 starving=0 lat[n=144 min=8 p50=31 p99=76 max=80 mean=33.2] ex#16ba893b8a96eb60"),
        ("powerlaw-80", random::powerlaw(80, 3, 11), 9, "packed-scale-v1 n=80 events=5588 msgs=5108 ticks=242 eats#0f9b4c83de4c2447 mistakes=0 starving=0 lat[n=240 min=3 p50=28 p99=82 max=92 mean=30.7] ex#45ec47f2584a5ed7"),
        (
            "sparse-gnp-2000",
            random::sparse_gnp(2000, 6.0 / 1999.0, 1),
            1,
            "packed-scale-v1 n=2000 events=143204 msgs=131204 ticks=287 eats#b2eb0ff7804d85f7 mistakes=0 starving=0 lat[n=6000 min=0 p50=28 p99=81 max=127 mean=30.9] ex#c7a354c1c49ac4c8",
        ),
        ("star-24", topology::star(24), 5, "packed-scale-v1 n=24 events=644 msgs=500 ticks=174 eats#5d60d828f106d830 mistakes=0 starving=0 lat[n=72 min=2 p50=10 p99=32 max=32 mean=13.6] ex#e373cfd12f589bd1"),
        ("clique-22", topology::clique(22), 5, "packed-scale-v1 n=22 events=5060 msgs=4928 ticks=603 eats#e42083b370d34a3a mistakes=0 starving=0 lat[n=66 min=8 p50=126 p99=300 max=300 mean=129.0] ex#f57ec9b8c31d7f71"),
    ];
    for (label, g, seed, want) in &table {
        for shards in [1, 2] {
            assert_eq!(
                run(g, shards, *seed).fingerprint(),
                *want,
                "{label}, seed {seed}, {shards} shard(s)"
            );
        }
    }
}

/// The same for the externally driven kernel: ring-64, 20 rounds of 64
/// injections, each run to quiescence.
#[test]
fn interactive_replay_matches_the_committed_fingerprint() {
    let g = topology::ring(64);
    let colors = coloring::greedy(&g);
    let mut ik = InteractiveScale::new(&g, &colors, ScaleConfig::default().seed(7));
    let mut obs = Vec::new();
    for round in 0..20 {
        for p in 0..64u32 {
            assert!(ik.inject_hungry(p), "round {round}, process {p}");
        }
        while ik.has_pending() {
            ik.step(1 << 20, &mut obs);
        }
        obs.clear();
    }
    assert_eq!(ik.finish().fingerprint(), "packed-scale-v1 n=64 events=10372 msgs=7812 ticks=695 eats#0f33dfb73bfea82b mistakes=0 starving=0 lat[n=1280 min=2 p50=12 p99=28 max=35 mean=11.9] ex#bbba5adadb81d3af");
}
