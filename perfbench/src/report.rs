//! Metric names, sample statistics, output checks and the result line.
//!
//! Every metric the benchmark can print is named in [`END_TO_END`] or
//! [`PER_LAYER`], in step with `BENCHMARK.json` (`tests/smoke.rs` holds
//! the two together). A workload sets the metrics it measures; a
//! per-layer metric of a layer the workload never enters reads 0.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Metrics a user of the system sees, measured with tracing off. Each is
/// defined on all five workloads: a *cycle* is one hungry → eating →
/// released dining session, over the wire on the net workloads and
/// simulated on the sim workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("peak_rss_kb", "kB"),
];

/// Metrics of single layers, from a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Defined on some workloads only, or too noisy on this host to
    // bound, so not end-to-end (see README).
    ("cpu_us_per_cycle", "us"),
    ("grant_p50_us", "us"),
    ("readmit_p50_us", "us"),
    ("events_per_s", "1/s"),
    ("state_bytes_per_process", "B"),
    ("failed_ratio", "ratio"),
    ("checks_failed", "count"),
    ("graph.sparse_gnp_s", "s"),
    ("graph.greedy_coloring_s", "s"),
    ("sim.packed.build_s", "s"),
    ("sim.packed.ns_per_event", "ns"),
    ("sim.packed.events_per_eat", "count"),
    ("sim.packed.messages_per_eat", "count"),
    ("sim.packed.interactive_cycle_ns", "ns"),
    ("sim.packed.interactive_events_per_cycle", "count"),
    ("sim.shard.events_per_s_2", "1/s"),
    ("sim.dense.ns_per_event", "ns"),
    ("sim.dense.events_per_eat", "count"),
    ("core.handle_ns", "ns"),
    ("core.recovery.handle_ns", "ns"),
    ("harness.scenario_build_ns", "ns"),
    ("harness.chaos.compile_ns", "ns"),
    ("harness.chaos.run_ns", "ns"),
    ("harness.chaos.determinism_check_ns", "ns"),
    ("metrics.exclusion_ns", "ns"),
    ("metrics.progress_ns", "ns"),
    ("metrics.fairness_ns", "ns"),
    ("chaos.generate_ns", "ns"),
    ("link.retransmit_ratio", "ratio"),
    ("journal.encode_ns", "ns"),
    ("journal.decode_ns", "ns"),
    ("journal.mem_commit_ns", "ns"),
    ("journal.file_commit_us", "us"),
    ("runtime.spawn_s", "s"),
    ("runtime.grant_p50_us", "us"),
    ("runtime.recover_p50_us", "us"),
    ("runtime.cpu_us_per_cycle", "us"),
    ("runtime.idle_cpu_ratio", "ratio"),
    ("runtime.journal.grant_p50_us", "us"),
    ("runtime.journal.recover_p50_us", "us"),
    ("runtime.journal.cpu_us_per_cycle", "us"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_cycle", "B"),
    ("net.client.hungry_call_us", "us"),
    ("net.client.grant_p90_us", "us"),
    ("net.client.grant_p99_us", "us"),
    ("net.client.grant_ptop_us", "us"),
    ("net.client.grant_samples", "count"),
    ("net.server.start_s", "s"),
    ("net.server.shutdown_s", "s"),
    ("net.server.admit_us", "us"),
    ("net.server.bind_us", "us"),
    ("net.server.rtt_serial_p50_us", "us"),
    ("net.server.rtt_residual_us", "us"),
    ("net.server.stat.accepted", "count"),
    ("net.server.stat.fresh", "count"),
    ("net.server.stat.resumed", "count"),
    ("net.server.stat.rejoined", "count"),
    ("net.server.stat.shed_busy", "count"),
    ("net.server.stat.shed_slow", "count"),
    ("net.server.stat.heartbeat_drops", "count"),
    ("net.server.stat.protocol_errors", "count"),
    ("net.server.stat.handshake_timeouts", "count"),
    ("net.server.stat.reaped", "count"),
    ("net.server.resumed_ratio", "ratio"),
    ("net.server.trace_events", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The `q`-quantile of `sorted` by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `samples` in ascending order; there must be some.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The upper decile of `rates`, each the work done in a window of the same
/// length. Other tenants of a shared host only ever slow a sample down,
/// and in bursts shorter than a run: the fast side of the samples is what
/// the program does when left alone, and repeats from run to run where the
/// median does not (see the README). Not the highest rate, because a
/// window can count work held up in the window before it.
pub fn fast_decile(rates: &[f64]) -> f64 {
    quantile(&sorted(rates), 0.9)
}

/// The shortest of `times`, each the time of the same work: the fast side
/// of samples that a clock has no way to read too short. It needs one
/// undisturbed sample where a decile needs a tenth of them, and a set-up
/// or a fault schedule is timed a few dozen times at most.
pub fn fastest(times: &[f64]) -> f64 {
    sorted(times)[0]
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest percentile of `sorted` with at least ten samples beyond it.
pub fn top_percentile(sorted: &[f64]) -> f64 {
    sorted[sorted.len().saturating_sub(11)]
}

/// Process CPU time so far (user + system, every thread), in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').expect("stat has a command name").1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status has VmHWM")
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cycles and readmissions on the net
    /// workloads, repetitions and schedules on the sim workloads.
    pub attempted: u64,
    /// Operations that failed, plus output checks that failed.
    pub failed: u64,
    checks_failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records and prints one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        println!("{name} = {value} {}", unit_of(name));
        self.store(name, value);
    }

    /// Records the median of `samples` and prints it with its quartiles
    /// and the sample count.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = sorted(samples);
        let m = quantile(&s, 0.5);
        println!(
            "{name} = {m} {} (q1 {} q3 {} n {})",
            unit_of(name),
            quantile(&s, 0.25),
            quantile(&s, 0.75),
            s.len()
        );
        self.store(name, m);
    }

    /// Records the [`fast_decile`] of `rates` and prints it beside their
    /// median, quartiles and count.
    pub fn set_fast_decile(&mut self, name: &'static str, rates: &[f64]) {
        self.set_summary(name, "fast decile", fast_decile(rates), rates);
    }

    /// Records the [`fastest`] of `times` and prints it beside their
    /// median, quartiles and count.
    pub fn set_fastest(&mut self, name: &'static str, times: &[f64]) {
        self.set_summary(name, "fastest", fastest(times), times);
    }

    /// Records `value`, which is the `how` of `samples`.
    fn set_summary(&mut self, name: &'static str, how: &str, value: f64, samples: &[f64]) {
        let s = sorted(samples);
        println!(
            "{name} = {value} {} ({how}; median {} q1 {} q3 {} n {})",
            unit_of(name),
            quantile(&s, 0.5),
            quantile(&s, 0.25),
            quantile(&s, 0.75),
            s.len()
        );
        self.store(name, value);
    }

    fn store(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number");
        self.values.insert(name, value);
    }

    /// One output check. A failed check is printed, counted as a failed
    /// operation and makes the exit status non-zero.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        println!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.checks_failed += 1;
            self.failed += 1;
        }
    }

    /// Prints the result line; true when every operation and check passed.
    pub fn finish(mut self, trace: bool) -> bool {
        let attempted = self.attempted.max(1);
        let failed_ratio = self.failed as f64 / attempted as f64;
        println!(
            "failed_ratio = {failed_ratio} ({} of {attempted}), checks_failed = {}",
            self.failed, self.checks_failed
        );
        self.values.insert("failed_ratio", failed_ratio);
        self.values
            .insert("checks_failed", self.checks_failed as f64);
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("workload did not measure {name}"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is not a metric of this benchmark"))
        .1
}
