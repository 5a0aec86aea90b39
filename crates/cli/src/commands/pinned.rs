//! Literal digests of what the fault and topology flags build.
//!
//! `RUN_DIGESTS` pins the run each flag line produces through
//! `scenario_from`: every fault flag alone and combined, the `heartbeat:`
//! and `probe:` oracles under a crash, `--churn-plan` with all four verbs,
//! `--churn-rate`, both baselines `--algorithm` can select, one
//! `stabilize` and one `campaign` line. A row holds the events
//! processed, a digest of the scheduling events and the `COLUMN_DIGESTS`
//! columns of `tests/golden_trace.rs`.
//! `TOPOLOGY_DIGESTS` pins the graph each topology spec builds, in both
//! spellings of every family, as the adjacency column of `GRAPH_DIGESTS`
//! in `crates/graph/tests/graph_golden.rs`. On a mismatch each test prints
//! its whole computed table.

use super::{run_with_algorithm, scenario_from, stabilize_with};
use crate::args::Parsed;
use crate::spec::AlgorithmSpec;
use ekbd_graph::ConflictGraph;
use ekbd_harness::{Campaign, RunReport};
use ekbd_sim::Time;
use ekbd_stabilize::{ColoringProtocol, StabilizationConfig};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the debug rendering of each item, newline-separated.
fn debug_hash<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(FNV_SEED, |h, item| {
        fnv(fnv(h, format!("{item:?}").as_bytes()), b"\n")
    })
}

fn parsed(line: &str) -> Parsed {
    Parsed::parse(line.split_whitespace().map(String::from)).expect("a valid flag line")
}

fn run_digest(r: &RunReport) -> String {
    format!(
        "events={} sched#{:016x} suspicions={}#{:016x} dining_sends={} to_cut={}#{:016x} quiescence#{:016x} to_crashed={}#{:016x} high_water={} convergence={}",
        r.events_processed,
        debug_hash(&r.events),
        r.suspicions.len(),
        debug_hash(&r.suspicions),
        r.dining_sends,
        r.dining_sends_to_cut.len(),
        debug_hash(&r.dining_sends_to_cut),
        debug_hash(&r.quiescence().per_crashed),
        r.sends_to_crashed.len(),
        debug_hash(&r.sends_to_crashed),
        r.max_channel_high_water,
        r.detector_convergence().0,
    )
}

/// Runs one flag line the way its subcommand does and digests the result.
fn line_digest(line: &str) -> String {
    let p = parsed(line);
    let s = scenario_from(&p).expect("the flag line builds a scenario");
    match p.command.as_str() {
        "run" => {
            let alg = AlgorithmSpec::parse(p.get("algorithm").unwrap_or("alg1")).unwrap();
            run_digest(&run_with_algorithm(&s, &alg).unwrap())
        }
        "stabilize" => {
            let cfg = StabilizationConfig {
                seed: s.seed + 1000,
                think: (1, 8),
                transient_faults: vec![(Time(2_000), 1.into()), (Time(2_400), 4.into())],
            };
            let r = stabilize_with(
                &ColoringProtocol::default(),
                s,
                &cfg,
                &AlgorithmSpec::Algorithm1,
            );
            format!(
                "steps={} converged={:?} {}",
                r.steps_executed,
                r.converged_at,
                run_digest(&r.dining)
            )
        }
        "campaign" => {
            let report = Campaign::new()
                .seeds("pinned", &s, s.seed..s.seed + 3)
                .run_serial();
            format!("merged#{:016x}", fnv(FNV_SEED, report.merged().as_bytes()))
        }
        other => panic!("no digest for `{other}`"),
    }
}

#[rustfmt::skip]
const RUN_DIGESTS: &[(&str, &str)] = &[
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --loss 0.1 --link on",
     "events=930 sched#0e242146459f25ec suspicions=0#cbf29ce484222325 dining_sends=258 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=6 convergence=0"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --dup 0.1 --link on",
     "events=1066 sched#ceff00da586ec258 suspicions=0#cbf29ce484222325 dining_sends=280 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=7 convergence=0"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --reorder 0.2:8 --link on",
     "events=969 sched#941c5f4252904c90 suspicions=0#cbf29ce484222325 dining_sends=260 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=6 convergence=0"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --partition 0,1:500-3000 --link 16:3",
     "events=906 sched#2680b12cab5917ae suspicions=0#cbf29ce484222325 dining_sends=264 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=6 convergence=0"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle perfect --crash 2:700",
     "events=347 sched#2f9b1b5fb39f09e0 suspicions=2#e268b1b74332d67d dining_sends=272 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=0#cbf29ce484222325 high_water=2 convergence=700"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle heartbeat:10:15:30 --crash 2:700",
     "events=45531 sched#802ddad695077fa3 suspicions=2#144f3fb3268fcd4c dining_sends=248 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=5862#2a9b48451e912ebf high_water=4 convergence=720"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle probe:10:15:30 --crash 2:700",
     "events=69826 sched#5dd06d1203e0bf0c suspicions=22#f16ed0a462b9f1f8 dining_sends=266 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=5862#2a9b48451e912ebf high_water=6 convergence=2132"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle perfect --crash 2:700 --recover 2:2000",
     "events=1976 sched#1fdff31187e344db suspicions=4#f2a0aca3dd4dee8d dining_sends=1355 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=0#cbf29ce484222325 high_water=4 convergence=2000"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle perfect --crash 2:700 --recover 2:2000:corrupt",
     "events=1976 sched#1fdff31187e344db suspicions=4#f2a0aca3dd4dee8d dining_sends=1355 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=0#cbf29ce484222325 high_water=4 convergence=2000"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --corrupt-state 3:900 --corrupt-state 1:1300",
     "events=1918 sched#184ccbec00e98d00 suspicions=0#cbf29ce484222325 dining_sends=1325 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=4 convergence=0"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle perfect --crash 1:600 --recover 1:1800 --journal on --storage-fault 1:torn",
     "events=1978 sched#c9cf4a8852766a05 suspicions=4#120865c2997e70e9 dining_sends=1355 to_cut=0#cbf29ce484222325 quiescence#0855352bcd148a7d to_crashed=0#cbf29ce484222325 high_water=4 convergence=1800"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --oracle perfect --churn-plan join:2:500,leave:1:700,crash-leave:3:900,replace:0:4:1200",
     "events=728 sched#947f4e71fed7d382 suspicions=0#cbf29ce484222325 dining_sends=346 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=4 convergence=0"),
    ("run --topology ring:8 --seed 5 --sessions 6 --horizon 30000 --oracle perfect --churn-rate 300",
     "events=1862 sched#f5cda4260f754194 suspicions=0#cbf29ce484222325 dining_sends=1191 to_cut=0#cbf29ce484222325 quiescence#cbf29ce484222325 to_crashed=0#cbf29ce484222325 high_water=4 convergence=0"),
    ("run --topology grid:3x3 --seed 7 --sessions 6 --horizon 40000 --oracle perfect --loss 0.05 --dup 0.05 --reorder 0.1:6 --partition 2:400-1500 --partition 7,8:1600-2500 --crash 5:300 --recover 5:2500 --crash 0:350 --recover 0:1200:corrupt --corrupt-state 1:800 --journal on --storage-fault 5:rot --storage-fault 0:stale --audit-period 40 --link on",
     "events=17134 sched#90fedb0d1d937a40 suspicions=10#85fa638290c9bc0e dining_sends=4476 to_cut=0#cbf29ce484222325 quiescence#0da345026f073018 to_crashed=2#b0e0a4bb85fc4ae7 high_water=184 convergence=2500"),
    ("run --topology clique:5 --seed 9 --sessions 5 --horizon 30000 --oracle adversarial:1500:30 --crash 4:200 --recover 4:900 --journal on --storage-fault 4:dropped",
     "events=1990 sched#4b05322f6fef9f31 suspicions=908#d6a2d918d10da9f5 dining_sends=1344 to_cut=0#cbf29ce484222325 quiescence#93937cf420e92f30 to_crashed=25#a4b3892accfd0d5b high_water=3 convergence=30000"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --algorithm choy-singh --oracle perfect --crash 2:700 --loss 0.05 --link on",
     "events=927 sched#b6c13eeae451eac5 suspicions=2#e268b1b74332d67d dining_sends=268 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=0#cbf29ce484222325 high_water=7 convergence=700"),
    ("run --topology ring:6 --seed 3 --sessions 6 --horizon 30000 --algorithm naive --oracle perfect --crash 2:700 --loss 0.05 --link on",
     "events=460 sched#e05266a48f8428b5 suspicions=2#e268b1b74332d67d dining_sends=124 to_cut=0#cbf29ce484222325 quiescence#48ff45e72ee8112e to_crashed=0#cbf29ce484222325 high_water=5 convergence=700"),
    ("stabilize --topology ring:6 --seed 3 --sessions 6 --horizon 20000 --oracle perfect --crash 2:1000",
     "steps=3 converged=Some(t2426) events=51 sched#07952f7bda18a3a3 suspicions=2#25b9ebbc081d8d2b dining_sends=36 to_cut=2#41730bd85a22ede8 quiescence#ff0e0bae2af79b67 to_crashed=2#41730bd85a22ede8 high_water=2 convergence=1000"),
    ("campaign --topology ring:5 --seed 11 --sessions 5 --horizon 20000 --oracle perfect --crash 1:500 --loss 0.05 --link on",
     "merged#fa202b7cbdb613d5"),
];

#[test]
fn flag_lines_build_the_runs_they_built() {
    let got: Vec<(&str, String)> = RUN_DIGESTS
        .iter()
        .map(|(line, _)| (*line, line_digest(line)))
        .collect();
    if got
        .iter()
        .zip(RUN_DIGESTS)
        .any(|((_, g), (_, want))| g != want)
    {
        let table: String = got
            .iter()
            .map(|(line, d)| format!("    (\"{line}\",\n     \"{d}\"),\n"))
            .collect();
        panic!("flag-line runs moved; computed table:\n{table}");
    }
}

/// FNV-1a over `n`, every neighbor list and the edge list.
fn graph_digest(g: &ConflictGraph) -> u64 {
    let words = |h: u64, ws: &mut dyn Iterator<Item = u32>| {
        ws.fold(fnv(h, b"|"), |h, w| fnv(h, &w.to_le_bytes()))
    };
    let mut h = words(FNV_SEED, &mut std::iter::once(g.len() as u32));
    for p in g.processes() {
        h = words(h, &mut g.neighbors(p).iter().map(|q| q.0));
    }
    words(h, &mut g.edges().flat_map(|e| [e.lo.0, e.hi.0]))
}

fn build(spec: &str) -> ConflictGraph {
    ekbd_graph::topology::from_spec(spec).unwrap()
}

#[rustfmt::skip]
const TOPOLOGY_DIGESTS: &[(&str, u64)] = &[
    ("ring:8", 0x7bd947787c9b378d),
    ("ring-8", 0x7bd947787c9b378d),
    ("path:7", 0xf32f051124c60c18),
    ("path-7", 0xf32f051124c60c18),
    ("star:6", 0x41ce54d495b415c3),
    ("star-6", 0x41ce54d495b415c3),
    ("clique:6", 0xbae969dd5f546bbb),
    ("clique-6", 0xbae969dd5f546bbb),
    ("grid:3x4", 0xc444f099e92ea671),
    ("grid-3x4", 0xc444f099e92ea671),
    ("torus:3x4", 0x53931c9913f14d01),
    ("torus-3x4", 0x53931c9913f14d01),
    ("tree:7", 0x814e07fb1f0e8586),
    ("tree-7", 0x814e07fb1f0e8586),
    ("wheel:6", 0x4d482242ae9cad7b),
    ("wheel-6", 0x4d482242ae9cad7b),
    ("hypercube:3", 0x8f56d6e93b4678ad),
    ("hypercube-3", 0x8f56d6e93b4678ad),
    ("gnp:12:0.3:9", 0x0529f3cf7a43e805),
    ("gnp-12-0.3-9", 0x0529f3cf7a43e805),
    ("gnp-12-0.3", 0x0529f3cf7a43e805),
    ("gnp:12:0.3:7", 0xd74b5bff305adbf9),
    ("gnp:100:1e-3:7", 0x24814a280e50c52d),
    ("gnp:2048:0.002:5", 0x5d2cdda21ec9dc69),
    ("gnp-2048-0.002-5", 0x5d2cdda21ec9dc69),
    ("gnp:2049:0.002:5", 0x101167028e32c9ac),
    ("gnp:3000:0.001:4", 0x7f0709724a03888c),
    ("powerlaw:100:2:5", 0x8cb24943ba6c237d),
    ("powerlaw:3000:3:1", 0x25e7637985a8048c),
];

#[test]
fn topology_specs_build_the_graphs_they_built() {
    let got: Vec<(&str, u64)> = TOPOLOGY_DIGESTS
        .iter()
        .map(|(spec, _)| (*spec, graph_digest(&build(spec))))
        .collect();
    if got != TOPOLOGY_DIGESTS {
        let table: String = got
            .iter()
            .map(|(spec, d)| format!("    (\"{spec}\", 0x{d:016x}),\n"))
            .collect();
        panic!("topology graphs moved; computed table:\n{table}");
    }
}
