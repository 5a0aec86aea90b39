//! Shared infrastructure for the experiment suite.
//!
//! The paper (Song & Pike, DSN 2007) proves its claims rather than
//! measuring them — it contains no tables or figures. The reproduction
//! therefore regenerates a quantitative experiment for every theorem and
//! every §7 claim; each experiment is a `harness = false` bench target in
//! this crate (run `cargo bench` to regenerate them all):
//!
//! | target | claim |
//! |---|---|
//! | `e1_safety` | Theorem 1 — eventual weak exclusion |
//! | `e2_progress` | Theorem 2 — wait-freedom (vs. Choy–Singh baseline) |
//! | `e3_fairness` | Theorem 3 — eventual 2-bounded waiting (vs. naive priority) |
//! | `e4_space` | §7 — `log₂(δ) + 6δ + c` bits per process |
//! | `e5_channels` | §7 — ≤ 4 messages in transit per edge, `O(log n)`-bit messages |
//! | `e6_quiescence` | §7 — communication with the crashed ceases |
//! | `e7_stabilization` | §1 — daemon-scheduled self-stabilization under crashes |
//! | `e8_oracle_sensitivity` | §1 — mistakes shrink with oracle quality; perpetual WX needs `P` |
//! | `e10_ack_budget` | ablation — the ack budget m is the "k": ◇(m+1)-BW |
//! | `e11_detector_quality` | §2 — ◇P₁ implementability: heartbeat & probe tuning sweep |
//! | `e12_message_cost` | engineering context — doorway cost vs. baselines |
//! | `e13_partitionable` | §8 — ◇P₁ and the daemon survive crash partitions |
//! | `e14_unreliable_channels` | beyond the paper — theorems survive lossy channels behind `ekbd-link` |
//! | `e15_crash_recovery` | beyond the paper — crash/recover/corrupt rejoin via the audit handshake |
//! | `e16_journal` | beyond the paper — durable journal, storage faults, post-mortem replay |
//! | `e17_churn` | beyond the paper — dynamic membership churn with online admission |
//! | `e18_chaos` | beyond the paper — composed chaos schedules + automatic shrinking |
//! | `e19_scale` | beyond the paper — packed S1-state kernel sharded over 10⁵-node graphs |
//! | `e20_net` | beyond the paper — networked sessions survive connection churn |
//! | `e21_reactor` | beyond the paper — readiness reactor: 1024 multiplexed sessions, blast-radius kills |
//!
//! This library crate holds the plain-text table writer and small helpers
//! the experiment binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A plain-text aligned table, printed to stdout.
///
/// ```
/// use ekbd_bench::Table;
/// let mut t = Table::new(&["n", "mistakes", "verdict"]);
/// t.row([format!("{}", 8), format!("{}", 0), "PASS".into()]);
/// let s = t.render();
/// assert!(s.contains("mistakes"));
/// assert!(s.contains("PASS"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row<const N: usize>(&mut self, cells: [String; N]) {
        assert_eq!(N, self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row from a vector (checked at runtime).
    pub fn row_vec(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                let _ = write!(out, "{}{}  ", c, " ".repeat(pad));
            }
            out.pop();
            out.pop();
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id}: {claim} ===\n");
}

/// PASS/FAIL cell for claim checks.
pub fn verdict(ok: bool) -> String {
    if ok {
        "PASS".into()
    } else {
        "FAIL".into()
    }
}

/// Prints the experiment's overall verdict line (greppable).
pub fn conclude(id: &str, ok: bool) {
    println!("\n[{}] overall: {}\n", id, if ok { "PASS" } else { "FAIL" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_wrong_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(["only-one".into()]);
    }

    #[test]
    fn verdict_strings() {
        assert_eq!(verdict(true), "PASS");
        assert_eq!(verdict(false), "FAIL");
    }
}
