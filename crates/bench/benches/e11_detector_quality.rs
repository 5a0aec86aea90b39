//! E11 — heartbeat ◇P₁ tuning under partial synchrony.
//!
//! The paper assumes a ◇P₁ module and cites its implementability under
//! partial synchrony [7, 13, 14]. This experiment characterizes the
//! implementation trade-off on the GST delay model: an aggressive initial
//! timeout detects crashes fast but pays false positives (and therefore
//! scheduling mistakes) before adapting; a conservative timeout is
//! mistake-free but slow to detect. In every configuration the dining
//! layer's eventual properties hold relative to the *measured*
//! convergence time — that is the robustness the paper buys by tolerating
//! unreliable detectors.

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_detector::HeartbeatConfig;
use ekbd_graph::{topology, ProcessId};
use ekbd_harness::{Scenario, Workload};
use ekbd_metrics::DetectorQualityReport;
use ekbd_sim::{DelayModel, Time};

fn main() {
    banner(
        "E11",
        "heartbeat ◇P₁ tuning — detection latency vs false positives vs mistakes",
    );
    let mut table = Table::new(&[
        "detector",
        "initial timeout",
        "false positives",
        "max detect latency",
        "complete",
        "mistakes(total)",
        "mistakes(after conv)",
        "wait-free",
        "verdict",
    ]);
    let mut all_ok = true;
    let mut fp_series = Vec::new();
    for (kind, initial_timeout) in [
        ("heartbeat", 15u64),
        ("heartbeat", 40),
        ("heartbeat", 120),
        ("heartbeat", 400),
        ("probe", 40),
        ("probe", 120),
        ("probe", 400),
    ] {
        let mut fps = 0u64;
        let mut latency = 0u64;
        let mut complete = true;
        let mut mistakes = 0usize;
        let mut after = 0usize;
        let mut wait_free = true;
        let seeds = 4;
        for seed in 0..seeds {
            let base = Scenario::new(topology::ring(6)).seed(seed);
            let cfg = HeartbeatConfig {
                period: 10,
                initial_timeout,
                timeout_increment: 30,
            };
            let base = if kind == "heartbeat" {
                base.heartbeat_oracle(cfg)
            } else {
                base.probe_oracle(cfg)
            };
            let report = base
                .delay(DelayModel::Gst {
                    gst: Time(1_200),
                    pre_max: 100,
                    delta: 6,
                })
                .crash(ProcessId(2), Time(2_500))
                .workload(Workload {
                    sessions: 50,
                    think: (1, 120),
                    eat: (1, 12),
                })
                .horizon(Time(400_000))
                .run_algorithm1();
            let quality = DetectorQualityReport::analyze(
                &report.graph,
                &report.suspicions,
                &report.crashes,
                report.horizon,
            );
            fps += quality.false_positives;
            complete &= quality.complete();
            latency = latency.max(quality.max_detection_latency().unwrap_or(0));
            let conv = report.detector_convergence();
            mistakes += report.exclusion().total();
            after += report.exclusion().after(conv);
            wait_free &= report.progress().wait_free();
        }
        if kind == "heartbeat" {
            fp_series.push(fps);
        }
        let ok = complete && after == 0 && wait_free;
        all_ok &= ok;
        table.row([
            kind.to_string(),
            initial_timeout.to_string(),
            fps.to_string(),
            latency.to_string(),
            complete.to_string(),
            mistakes.to_string(),
            after.to_string(),
            wait_free.to_string(),
            verdict(ok),
        ]);
    }
    table.print();
    let shape_ok = fp_series.first() >= fp_series.last();
    println!(
        "\nShape: false positives fall as the initial timeout grows ({:?});\n\
         regardless of tuning, completeness holds, post-convergence mistakes\n\
         are zero, and nobody starves — ◇P₁'s unreliability is fully absorbed.",
        fp_series
    );
    conclude("E11", all_ok && shape_ok);
}
