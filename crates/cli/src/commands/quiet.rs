//! The quiescence gate of the crash-recovery stack.
//!
//! Algorithm 1 and the link layer fall silent once the workload is done;
//! the recovery layer's audit cannot stop (a transient fault may strike a
//! quiet process at any time), but it backs off to one pass every
//! `period · 2^K` ticks ([`AUDIT_BACKOFF_CAP`]). These runs are the restart
//! rows of `ekbd run` that ROADMAP measured: their last meal lands within
//! a few thousand ticks, so everything from 60 000 to 240 000 ticks is the
//! quiet tail.

use super::{run_with_algorithm, scenario_from};
use crate::args::Parsed;
use crate::spec::AlgorithmSpec;
use ekbd_harness::{RunReport, AUDIT_BACKOFF_CAP};

const H: u64 = 60_000;

/// `(flag line, events it added from H to 4H when every process audited
/// every period)`, the latter measured with `ekbd run` before the audit
/// timer backed off.
const ROWS: [(&str, u64); 2] = [
    (
        "run --topology ring:8 --seed 3 --sessions 6 --oracle perfect --crash 2:700 --recover 2:2000",
        86_400,
    ),
    (
        "run --topology ring:8 --seed 3 --sessions 6 --oracle perfect --crash 2:700 --recover 2:2000 \
         --journal on --link on",
        204_312,
    ),
];

fn run(line: &str, horizon: u64) -> RunReport {
    let line = format!("{line} --horizon {horizon}");
    let parsed = Parsed::parse(line.split_whitespace().map(String::from)).expect("a valid line");
    let s = scenario_from(&parsed).expect("the line builds a scenario");
    run_with_algorithm(&s, &AlgorithmSpec::Algorithm1).expect("a recoverable run")
}

#[test]
fn recovery_runs_go_quiet() {
    for (line, flat_growth) in ROWS {
        let short = run(line, H);
        let long = run(line, 4 * H);
        assert_eq!(
            short.total_eat_sessions(),
            long.total_eat_sessions(),
            "{line}: every meal is eaten by {H}"
        );
        assert!(long.progress().starving().is_empty(), "{line}: wait-free");
        let growth = long.events_processed - short.events_processed;
        // A quiet process audits 2^K times less often; 0.8 leaves room
        // for the few passes at shorter delays while it backs off.
        let bound = flat_growth as f64 / (0.8 * f64::from(1u32 << AUDIT_BACKOFF_CAP));
        assert!(
            growth as f64 <= bound,
            "{line}: {growth} events from {H} to {} ticks, over the bound {bound:.0} \
             ({flat_growth} when every audit ran at the base period)",
            4 * H
        );
    }
}
