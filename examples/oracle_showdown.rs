//! One scenario, five oracles: how detector quality shapes the run.
//!
//! The same clique, workload, seed, and crash, scheduled by Algorithm 1
//! under: the perfect detector `P`, two adversarial ◇P₁ scripts (early
//! and late convergence), and the real heartbeat detector with push
//! (heartbeat) and pull (probe/echo) rounds. Compare mistakes,
//! convergence, overtaking, and detection latency.
//!
//! ```sh
//! cargo run --release --example oracle_showdown
//! ```

use ekbd::detector::HeartbeatConfig;
use ekbd::graph::{topology, ProcessId};
use ekbd::harness::{RunReport, Scenario, Workload};
use ekbd::metrics::DetectorQualityReport;
use ekbd::sim::{DelayModel, Time};

fn base() -> Scenario {
    Scenario::new(topology::clique(5))
        .seed(8)
        .delay(DelayModel::Gst {
            gst: Time(1_000),
            pre_max: 100,
            delta: 6,
        })
        .crash(ProcessId(1), Time(2_000))
        .workload(Workload {
            sessions: 40,
            think: (1, 120),
            eat: (1, 15),
        })
        .horizon(Time(300_000))
}

fn describe(name: &str, report: &RunReport) {
    let conv = report.detector_convergence();
    let ex = report.exclusion();
    let quality = DetectorQualityReport::analyze(
        &report.graph,
        &report.suspicions,
        &report.crashes,
        report.horizon,
    );
    println!(
        "{name:<22} conv={:<6} mistakes={:<3} (after conv: {}) overtakes≤{} fp={} detect-latency={:?} starving={:?}",
        format!("{conv}"),
        ex.total(),
        ex.after(conv),
        report.fairness().max_overtakes_after(conv),
        quality.false_positives,
        quality.max_detection_latency(),
        report.progress().starving(),
    );
    assert!(report.progress().wait_free());
    assert_eq!(ex.after(conv), 0);
}

fn main() {
    println!("clique-5, crash p1@2000, identical workload & seed — only the oracle differs\n");
    describe("perfect P", &base().perfect_oracle().run_algorithm1());
    describe(
        "adversarial (conv 500)",
        &base().adversarial_oracle(Time(500), 30).run_algorithm1(),
    );
    describe(
        "adversarial (conv 4000)",
        &base().adversarial_oracle(Time(4_000), 30).run_algorithm1(),
    );
    describe(
        "heartbeat (t/o 50)",
        &base()
            .heartbeat_oracle(HeartbeatConfig {
                period: 10,
                initial_timeout: 50,
                timeout_increment: 30,
            })
            .run_algorithm1(),
    );
    describe(
        "probe/echo (t/o 80)",
        &base()
            .probe_oracle(HeartbeatConfig {
                period: 10,
                initial_timeout: 80,
                timeout_increment: 30,
            })
            .run_algorithm1(),
    );
    println!(
        "\nEvery oracle — even the wildly misbehaving ones — yields a wait-free,\n\
         eventually-clean schedule; only the length of the messy prefix and the\n\
         crash-detection latency differ. That is Theorems 1–3 in one screen."
    );
}
