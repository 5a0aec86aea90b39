//! Keeps the benchmark alive: every workload runs a one-second window
//! with every check on, untraced and traced, and `BENCHMARK.json` names
//! exactly what the program prints.
//!
//! One test, because the workloads time themselves and must not share
//! the two cores with each other.

use std::collections::BTreeSet;
use std::process::Command;

/// The strings that follow `marker` up to the next `"` in `text`.
fn quoted_after<'a>(text: &'a str, marker: &str) -> BTreeSet<&'a str> {
    text.split(marker)
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// The `"name"`s of one list of `BENCHMARK.json`.
fn contract_names<'a>(contract: &'a str, list: &str) -> BTreeSet<&'a str> {
    let from = contract
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let section = &contract[from..];
    let section = &section[..section.find(']').expect("the list is closed")];
    quoted_after(section, "\"name\": \"")
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_contract_metrics() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the repository");
    for workload in contract_names(&contract, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {result}"
            );
            let printed: BTreeSet<&str> = result
                .split("\": {\"value\": ")
                .filter_map(|before| before.rsplit('"').next())
                .take(result.matches("\"value\"").count())
                .collect();
            assert_eq!(
                printed,
                contract_names(&contract, list),
                "{workload} --trace {trace} against BENCHMARK.json {list}"
            );
        }
    }
}
