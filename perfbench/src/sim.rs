//! The three simulator workloads: `sim-dense`, `sim-chaos`, `sim-packed`.
//!
//! Each runs one deterministic repetition back to back for the length of
//! the window, timing every repetition on its own. Simulated statistics
//! repeat exactly at a seed, so they are checked for identity; host time
//! is what is measured.

use crate::report::{cpu_seconds, fastest, median, peak_rss_kb, Outcome};
use crate::trace::{Tracer, NONE};
use crate::{layers, waiting_for, Run};
use ekbd_chaos::{FaultSchedule, Intensity, RunClass};
use ekbd_graph::partition::{greedy_edge_cut, Partition};
use ekbd_graph::{coloring, random, topology, ConflictGraph};
use ekbd_harness::{run_chaos, RunReport, Scenario, Workload, AUDIT_PERIOD};
use ekbd_sim::{run_sharded, PackedKernel, ScaleConfig, ScaleRunReport, Time};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Unrecorded repetitions run this long before the window opens.
pub const WARMUP: Duration = Duration::from_secs(1);

/// One timed part of a repetition: the whole of it on `sim-dense` and
/// `sim-packed`, one schedule of the sweep on `sim-chaos`.
struct Part {
    wall_s: f64,
    events: u64,
    cycles: u64,
}

/// One repetition: the same parts every time, since the runs are
/// deterministic, and whether its outputs were right.
struct Rep {
    parts: Vec<Part>,
    ok: bool,
}

/// Time of one repetition with each part taken at its fastest over
/// `reps`. With one part this is the fastest repetition; a sweep of a
/// second never escapes the host's bursts whole, but each of its
/// schedules does in some sweep.
fn fast_wall_s(reps: &[Rep]) -> f64 {
    (0..reps[0].parts.len())
        .map(|i| {
            let part: Vec<f64> = reps.iter().map(|r| r.parts[i].wall_s).collect();
            fastest(&part)
        })
        .sum()
}

/// Repeats `rep` through the warm-up and the window, then reports the
/// throughput metrics. In a traced run every other repetition records
/// spans, which prices the tracing.
fn repeat(
    run: &Run,
    out: &mut Outcome,
    tr: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer, u64) -> Rep,
) {
    waiting_for("warm-up");
    tr.on = false;
    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        rep(tr, 0);
    }

    waiting_for("measured window");
    let (mut traced, mut untraced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut index = 0u64;
    while start.elapsed() < run.window {
        index += 1;
        tr.on = run.trace && index.is_multiple_of(2);
        let r = rep(tr, index);
        out.attempted += 1;
        out.failed += u64::from(!r.ok);
        if tr.on {
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    tr.on = run.trace;

    let total = |what: fn(&Part) -> u64| -> u64 { untraced[0].parts.iter().map(what).sum() };
    let (cycles, events) = (total(|p| p.cycles), total(|p| p.events));
    let reps = (untraced.len() + traced.len()) as u64;
    let walls: Vec<f64> = untraced
        .iter()
        .map(|r| r.parts.iter().map(|p| p.wall_s).sum())
        .collect();
    println!(
        "{reps} repetitions of {cycles} cycles and {events} events; median repetition {} s",
        median(&walls)
    );
    let fast_s = fast_wall_s(&untraced);
    out.set("cycles_per_s", cycles as f64 / fast_s);
    out.set("events_per_s", events as f64 / fast_s);
    out.set("cpu_us_per_cycle", cpu_s * 1e6 / (reps * cycles) as f64);
    out.set("peak_rss_kb", peak_rss_kb());
    if !traced.is_empty() {
        out.set("trace.overhead_ratio", fast_wall_s(&traced) / fast_s);
    }
}

/// How often a set-up of microseconds is timed: a fifth of a second in
/// all. A few hundred would be over in the first milliseconds of the
/// process, before the host has it on a warm core, and none need be fast.
const QUICK_SETUPS: usize = 20_000;

/// Times `build` `reps` times and reports `setup_s`, returning the last
/// thing built.
fn set_up<T>(out: &mut Outcome, reps: usize, mut build: impl FnMut(u64) -> T) -> T {
    waiting_for("set-up");
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for i in 0..reps {
        let t = Instant::now();
        built = Some(black_box(build(i as u64)));
        times.push(t.elapsed().as_secs_f64());
    }
    out.set_fastest("setup_s", &times);
    built.expect("at least one set-up")
}

// ---------------------------------------------------------------------
// sim-dense
// ---------------------------------------------------------------------

const DENSE_N: usize = 128;
const DENSE_SESSIONS: u32 = 200;
/// When the adversarial oracle stops making mistakes; ◇WX allows
/// exclusion mistakes only before.
const DENSE_CONVERGES: Time = Time(2_000);

/// E9's full-mode ring-128 case: the dense engine and Algorithm 1,
/// fault-free.
pub fn dense(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    let scenario = set_up(out, QUICK_SETUPS, |i| {
        tr.span("harness.scenario_build", i, || {
            Scenario::new(topology::ring(DENSE_N))
                .seed(run.seed)
                .adversarial_oracle(DENSE_CONVERGES, 50)
                .workload(Workload {
                    sessions: DENSE_SESSIONS,
                    think: (1, 10),
                    eat: (1, 10),
                })
                .horizon(Time(500_000))
        })
    });

    let mut first_events = None;
    let mut last: Option<RunReport> = None;
    repeat(run, out, tr, |tr, i| {
        let t = Instant::now();
        let report = tr.span("sim.dense.run", i, || scenario.run_algorithm1());
        let wall_s = t.elapsed().as_secs_f64();
        let events = report.events_processed;
        let cycles = report.total_eat_sessions() as u64;
        let ok = *first_events.get_or_insert(events) == events
            && cycles == (DENSE_N as u64) * u64::from(DENSE_SESSIONS);
        last = Some(report);
        Rep {
            parts: vec![Part {
                wall_s,
                events,
                cycles,
            }],
            ok,
        }
    });

    let report = last.expect("at least one repetition");
    let cycles = report.total_eat_sessions();
    out.check(
        "every process ate every session",
        cycles == DENSE_N * DENSE_SESSIONS as usize,
        format!("{cycles} eat sessions"),
    );
    let late = report.exclusion().after(DENSE_CONVERGES);
    out.check(
        "no exclusion mistake after the oracle converges",
        late == 0,
        format!("{late} mistakes"),
    );
    if run.trace {
        out.set(
            "sim.dense.ns_per_event",
            median(&tr.durations_ns("sim.dense.run")) / report.events_processed as f64,
        );
        out.set(
            "sim.dense.events_per_eat",
            report.events_processed as f64 / cycles as f64,
        );
        out.set(
            "harness.scenario_build_ns",
            median(&tr.durations_ns("harness.scenario_build")),
        );
        out.set("core.handle_ns", layers::core_handle_ns(tr));
    }
}

// ---------------------------------------------------------------------
// sim-chaos
// ---------------------------------------------------------------------

const CHAOS_TOPOLOGIES: [&str; 4] = ["ring-8", "clique-6", "grid-3x4", "gnp-12-0.3"];
/// Generator seeds on each topology: four of the sixteen E18 gates on,
/// every schedule of which classifies wait-free. Between them they have
/// every fault axis: channel noise and churn in all, partitions in 1 and
/// 3, crashes in 2, 3 and 4, storage damage in 4. `--seed` does not vary
/// this workload's inputs: generator seeds beyond E18's sweep include
/// schedules that fail (clique-6 at 505 and 753, at the commit that
/// added this benchmark) and a workload must not fail, and subsets of
/// the sweep differ by a fifth in cost, which would pass for noise.
/// E18's 64 schedules take four seconds, so a window would time each
/// three times; these 16 take one, and ten samples of a schedule are
/// what it takes for some to run between the host's bursts.
const CHAOS_GENERATOR_SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

/// What one schedule's double run produced.
struct ChaosRun {
    events: u64,
    cycles: u64,
    ok: bool,
    report: RunReport,
}

/// Runs one schedule the way `run_chaos` does. With tracing on, the same
/// steps are taken through the public functions `run_chaos` itself
/// calls, one span each, so the time splits by layer.
fn chaos_schedule(schedule: &FaultSchedule, tr: &mut Tracer, cycle: u64) -> ChaosRun {
    if !tr.on {
        let o = run_chaos(schedule).expect("a generated schedule is valid");
        return ChaosRun {
            events: 2 * o.report.events_processed,
            cycles: 2 * o.report.total_eat_sessions() as u64,
            ok: o.class == RunClass::WaitFree,
            report: o.report,
        };
    }
    let root = tr.begin("harness.chaos", NONE, cycle);
    let step = |tr: &mut Tracer, name| tr.begin(name, root, cycle);

    let s = step(tr, "harness.chaos.compile");
    let scenario = Scenario::chaos(schedule).expect("a generated schedule is valid");
    tr.end(s);
    let s = step(tr, "harness.chaos.run");
    let report = scenario.run_recoverable();
    tr.end(s);
    let s = step(tr, "harness.chaos.run");
    let rerun = scenario.run_recoverable();
    tr.end(s);
    let s = step(tr, "harness.chaos.determinism_check");
    let deterministic = format!("{:?}", report.events) == format!("{:?}", rerun.events);
    tr.end(s);
    let grace = Time(schedule.last_disturbance().0 + 10 * AUDIT_PERIOD);
    let stabilized_at = report.detector_convergence().max(grace);
    let s = step(tr, "metrics.exclusion");
    let mistakes_after = report.exclusion().after(stabilized_at);
    tr.end(s);
    let s = step(tr, "metrics.progress");
    let starving = report.progress().starving();
    tr.end(s);
    // `run_chaos` does not judge fairness; priced here for the layer
    // list only.
    let s = step(tr, "metrics.fairness");
    black_box(report.fairness().max_overtakes());
    tr.end(s);
    tr.end(root);
    ChaosRun {
        events: 2 * report.events_processed,
        cycles: 2 * report.total_eat_sessions() as u64,
        ok: deterministic && mistakes_after == 0 && starving.is_empty(),
        report,
    }
}

/// Composed fault schedules over four small topologies: the dense engine
/// with every fault axis, the recovery layer, journals and the analyses.
pub fn chaos(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    let intensity = Intensity::default_mix();
    let schedules = set_up(out, QUICK_SETUPS / 4, |rep| {
        tr.span("chaos.generate", rep, || {
            CHAOS_GENERATOR_SEEDS
                .flat_map(|seed| CHAOS_TOPOLOGIES.map(|topology| (topology, seed)))
                .map(|(topology, seed)| {
                    FaultSchedule::generate(topology, seed, &intensity)
                        .expect("the generator makes valid schedules")
                })
                .collect::<Vec<FaultSchedule>>()
        })
    });

    let mut first_events = None;
    let mut failing = Vec::new();
    let mut last_reports = Vec::new();
    repeat(run, out, tr, |tr, sweep| {
        let mut rep = Rep {
            parts: Vec::with_capacity(schedules.len()),
            ok: true,
        };
        last_reports.clear();
        for s in &schedules {
            let t = Instant::now();
            let r = chaos_schedule(s, tr, sweep);
            rep.parts.push(Part {
                wall_s: t.elapsed().as_secs_f64(),
                events: r.events,
                cycles: r.cycles,
            });
            if !r.ok && !failing.contains(&(s.topology.clone(), s.seed)) {
                failing.push((s.topology.clone(), s.seed));
            }
            rep.ok &= r.ok;
            last_reports.push(r.report);
        }
        let events: u64 = rep.parts.iter().map(|p| p.events).sum();
        rep.ok &= *first_events.get_or_insert(events) == events;
        rep
    });
    out.check(
        "every schedule wait-free and deterministic",
        failing.is_empty(),
        format!("failing (topology, seed): {failing:?}"),
    );

    if run.trace {
        out.set(
            "chaos.generate_ns",
            tr.mean_ns("chaos.generate") / schedules.len() as f64,
        );
        for (metric, span) in [
            ("harness.chaos.compile_ns", "harness.chaos.compile"),
            ("harness.chaos.run_ns", "harness.chaos.run"),
            (
                "harness.chaos.determinism_check_ns",
                "harness.chaos.determinism_check",
            ),
            ("metrics.exclusion_ns", "metrics.exclusion"),
            ("metrics.progress_ns", "metrics.progress"),
            ("metrics.fairness_ns", "metrics.fairness"),
        ] {
            out.set(metric, tr.mean_ns(span));
        }
        println!(
            "harness.chaos self time per schedule: {} ns outside its steps",
            tr.mean_self_ns("harness.chaos")
        );
        let (mut sent, mut again) = (0u64, 0u64);
        for link in last_reports.iter().filter_map(|r| r.link.as_ref()) {
            sent += link.data_sent;
            again += link.retransmissions;
        }
        out.set(
            "link.retransmit_ratio",
            again as f64 / (sent + again).max(1) as f64,
        );
        out.set("core.recovery.handle_ns", layers::recovery_handle_ns(tr));
        layers::journal_memory(out, tr);
    }
}

// ---------------------------------------------------------------------
// sim-packed
// ---------------------------------------------------------------------

/// Processes of the packed run. The issue sized this at 100 000, where
/// `sparse_gnp` alone takes 7 s; at this size three set-ups and the
/// window fit a run, and the generator's quadratic cost still dominates
/// `setup_s`.
const PACKED_N: usize = 40_000;

struct PackedInput {
    graph: ConflictGraph,
    colors: Vec<u32>,
    one_shard: Partition,
    kernel: PackedKernel,
}

fn packed_config(run: &Run) -> ScaleConfig {
    ScaleConfig::default().seed(run.seed)
}

fn packed_input(run: &Run, tr: &mut Tracer, rep: u64) -> PackedInput {
    let p = 6.0 / (PACKED_N as f64 - 1.0);
    let graph = tr.span("graph.sparse_gnp", rep, || {
        random::sparse_gnp(PACKED_N, p, run.seed)
    });
    let colors = tr.span("graph.greedy_coloring", rep, || coloring::greedy(&graph));
    let one_shard = greedy_edge_cut(&graph, 1);
    let kernel = tr.span("sim.packed.build", rep, || {
        PackedKernel::new(&graph, &colors, &one_shard, packed_config(run))
    });
    PackedInput {
        graph,
        colors,
        one_shard,
        kernel,
    }
}

/// The bit-packed kernel on a sparse random graph, one shard.
pub fn packed(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    let input = set_up(out, 3, |rep| packed_input(run, tr, rep));
    let PackedInput {
        graph,
        colors,
        one_shard,
        kernel,
    } = input;
    let state_bytes = kernel.state_bytes();
    println!(
        "graph: {} processes, {} edges, max degree {}",
        graph.len(),
        graph.edge_count(),
        graph.max_degree()
    );

    let mut next = Some(kernel);
    let mut first_print = None;
    let mut last: Option<ScaleRunReport> = None;
    repeat(run, out, tr, |tr, i| {
        let kernel = next.take().expect("a kernel is built before each run");
        let report = tr.span("sim.packed.run", i, || run_sharded(kernel));
        let wall_s = report.wall_nanos as f64 / 1e9;
        // Rebuilt outside the timed region: a run consumes its kernel.
        next = Some(tr.span("sim.packed.build", i, || {
            PackedKernel::new(&graph, &colors, &one_shard, packed_config(run))
        }));
        let print = report.fingerprint();
        let ok = report.verdict() && *first_print.get_or_insert(print.clone()) == print;
        let rep = Rep {
            parts: vec![Part {
                wall_s,
                events: report.events,
                cycles: report.eats.iter().map(|&e| u64::from(e)).sum(),
            }],
            ok,
        };
        last = Some(report);
        rep
    });

    let report = last.expect("at least one repetition");
    out.check(
        "no exclusion mistake and every process ate",
        report.verdict(),
        format!(
            "{} mistakes, fewest sessions {}",
            report.mistakes,
            report.min_eats()
        ),
    );
    if run.trace {
        let eats: u64 = report.eats.iter().map(|&e| u64::from(e)).sum();
        out.set(
            "state_bytes_per_process",
            state_bytes as f64 / graph.len() as f64,
        );
        out.set("graph.sparse_gnp_s", tr.mean_ns("graph.sparse_gnp") / 1e9);
        out.set(
            "graph.greedy_coloring_s",
            tr.mean_ns("graph.greedy_coloring") / 1e9,
        );
        out.set("sim.packed.build_s", tr.mean_ns("sim.packed.build") / 1e9);
        out.set(
            "sim.packed.ns_per_event",
            median(&tr.durations_ns("sim.packed.run")) / report.events as f64,
        );
        out.set(
            "sim.packed.events_per_eat",
            report.events as f64 / eats as f64,
        );
        out.set(
            "sim.packed.messages_per_eat",
            report.messages as f64 / eats as f64,
        );
        waiting_for("two-shard runs");
        let two_shards = greedy_edge_cut(&graph, 2);
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let kernel = PackedKernel::new(&graph, &colors, &two_shards, packed_config(run));
                run_sharded(kernel).events_per_sec()
            })
            .collect();
        out.set_median("sim.shard.events_per_s_2", &rates);
    }
}
