//! E19 — million-process scale tier (packed kernel, sharded driver).
//!
//! The paper's §7 space bound (`log₂(δ) + 6δ + c` bits per process) is
//! what makes very large instances *representable*; this experiment is
//! the matching throughput characterization. The packed kernel stores
//! Algorithm 1's state in the S1 bit budget (no per-event allocation, no
//! boxed observations) and the sharded driver runs it over N worker
//! shards with a lock-step populated-tick barrier, so the run's result
//! is a pure function of `(graph, colors, seed)` — shard count and
//! thread interleaving are unobservable.
//!
//! Measured here, per random-graph family (sparse G(n,p) and
//! Barabási–Albert power-law) and per node count:
//!
//! * events/s for shard counts 1 / 2 / 4 / 8 (graph built once per
//!   case, so the curve isolates kernel + barrier cost);
//! * bytes per process: the S1 state (`state_bytes()`) and, beside it,
//!   what the event queues held at the end (`queue_bytes`, the wheels'
//!   pending high-water mark);
//! * shard-count invariance — every shard count must produce the same
//!   report fingerprint (verdict, eat counts, latency, excerpts);
//! * rerun byte-identity at the largest case;
//! * peak RSS (`VmHWM`) after the largest case, the scale-tier memory
//!   headline.
//!
//! The multi-shard speedup gate (`shards=4` ≥ 2× `shards=1`) is only
//! enforced when the host actually has ≥ 4 CPUs
//! (`available_parallelism`): on a single-core container the barrier
//! protocol serializes and the ratio is reported informationally.
//!
//! Results go to stdout only. Set `E19_QUICK=1` for the CI smoke run
//! (drops the 100k-node case and the 8-shard column).

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{coloring, random, ConflictGraph};
use ekbd_sim::{run_sharded, PackedKernel, ScaleConfig, ScaleRunReport};

/// One `(family, n, shards)` measurement.
struct Measure {
    family: &'static str,
    n: usize,
    edges: usize,
    max_degree: usize,
    shards: usize,
    cut_edges: usize,
    state_bytes: usize,
    report: ScaleRunReport,
    wall_s: f64,
}

impl Measure {
    fn events_per_s(&self) -> f64 {
        self.report.events as f64 / self.wall_s.max(1e-9)
    }
}

fn run_case(
    family: &'static str,
    g: &ConflictGraph,
    colors: &[u32],
    shards: usize,
    seed: u64,
) -> Measure {
    let part = greedy_edge_cut(g, shards);
    let cut_edges = part.cut_edges(g);
    let kernel = PackedKernel::new(g, colors, &part, ScaleConfig::default().seed(seed));
    let state_bytes = kernel.state_bytes();
    let start = std::time::Instant::now();
    let report = run_sharded(kernel);
    let wall_s = start.elapsed().as_secs_f64();
    Measure {
        family,
        n: g.len(),
        edges: g.edge_count(),
        max_degree: g.max_degree(),
        shards,
        cut_edges,
        state_bytes,
        report,
        wall_s,
    }
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`; 0 off-Linux.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

fn main() {
    let quick = std::env::var("E19_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    banner(
        "E19",
        "scale tier — packed S1 state + sharded kernel over random graph families",
    );
    if quick {
        println!("(E19_QUICK smoke mode: 100k-node case and 8-shard column dropped)\n");
    }

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let node_counts: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    // Graph builders: average degree ≈ 6 for G(n,p) so both families keep
    // a comparable edge budget per node as n grows.
    type GraphBuilder = Box<dyn Fn(usize) -> ConflictGraph>;
    let families: Vec<(&'static str, GraphBuilder)> = vec![
        (
            "sparse-gnp",
            Box::new(|n: usize| random::sparse_gnp(n, 6.0 / (n as f64 - 1.0), 1)),
        ),
        ("powerlaw", Box::new(|n: usize| random::powerlaw(n, 3, 1))),
    ];

    let mut measures: Vec<Measure> = Vec::new();
    let mut all_pass = true;
    let mut shard_invariant = true;
    for (family, build) in &families {
        for &n in node_counts {
            let g = build(n);
            let colors = coloring::greedy(&g);
            let mut base_fp: Option<String> = None;
            for &shards in shard_counts {
                let m = run_case(family, &g, &colors, shards, 0x5ca1e + n as u64);
                all_pass &= m.report.verdict();
                let fp = m.report.fingerprint();
                match &base_fp {
                    None => base_fp = Some(fp),
                    Some(b) => shard_invariant &= fp == *b,
                }
                measures.push(m);
            }
        }
    }
    let rss_kb = peak_rss_kb();

    let mut table = Table::new(&[
        "family",
        "n",
        "edges",
        "maxdeg",
        "shards",
        "cut",
        "state B/proc",
        "queue B/proc",
        "events",
        "events/s",
        "wall s",
        "verdict",
    ]);
    for m in &measures {
        table.row([
            m.family.to_string(),
            m.n.to_string(),
            m.edges.to_string(),
            m.max_degree.to_string(),
            m.shards.to_string(),
            m.cut_edges.to_string(),
            format!("{:.1}", m.state_bytes as f64 / m.n as f64),
            format!("{:.1}", m.report.queue_bytes as f64 / m.n as f64),
            m.report.events.to_string(),
            format!("{:.0}", m.events_per_s()),
            format!("{:.3}", m.wall_s),
            verdict(m.report.verdict()),
        ]);
    }
    table.print();

    // Shard-count scaling at the largest case of each family. The packed
    // run's wall clock is re-measured here, so the ratio is the honest
    // multi-thread effect on this host — meaningful only with ≥ 4 cores.
    let n_top = *node_counts.last().expect("node counts non-empty");
    println!("\nShard speedup at n={n_top} (host has {cores} core(s)):\n");
    let mut su_table = Table::new(&["family", "1-shard events/s", "4-shard events/s", "ratio"]);
    let mut speedup_ok = true;
    for (family, _) in &families {
        let at = |shards: usize| {
            measures
                .iter()
                .find(|m| m.family == *family && m.n == n_top && m.shards == shards)
                .expect("measured")
                .events_per_s()
        };
        let (one, four) = (at(1), at(4));
        let ratio = four / one.max(1e-9);
        if cores >= 4 {
            speedup_ok &= ratio >= 2.0;
        }
        su_table.row([
            family.to_string(),
            format!("{one:.0}"),
            format!("{four:.0}"),
            format!("{ratio:.2}x"),
        ]);
    }
    su_table.print();
    if cores < 4 {
        println!(
            "\n(speedup gate waived: {cores} core(s) < 4 — the lock-step barrier\n serializes shards on this host; ratios above are informational)"
        );
    }

    // Rerun byte-identity at the largest powerlaw case, 4 shards: the
    // report fingerprint (which excludes wall clock) must be stable.
    let g = random::powerlaw(n_top, 3, 1);
    let colors = coloring::greedy(&g);
    let a = run_case("powerlaw", &g, &colors, 4, 0x5ca1e + n_top as u64);
    let b = run_case("powerlaw", &g, &colors, 4, 0x5ca1e + n_top as u64);
    let rerun_identical = a.report.fingerprint() == b.report.fingerprint()
        && a.report.eats == b.report.eats
        && a.report.excerpts == b.report.excerpts;
    println!(
        "\nshard-count invariance ...... {}",
        verdict(shard_invariant)
    );
    println!("rerun byte-identity ......... {}", verdict(rerun_identical));
    println!(
        "peak RSS .................... {:.1} MiB",
        rss_kb as f64 / 1024.0
    );

    conclude(
        "E19",
        all_pass && shard_invariant && rerun_identical && speedup_ok,
    );
}
