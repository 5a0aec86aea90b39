//! Every indexed performance claim, re-derived from its committed rows.
//!
//! `docs/claims/CLAIMS.tsv` indexes the claims: one row each, naming the
//! PR, the workload, the metric, which direction is better, the bound the
//! median ratio (change ÷ parent) must meet, and two rows files written by
//! `tools/ab.sh --record`: the claim's sitting and its A/A (one executable
//! against itself). This test recomputes each claim from the runs
//! themselves and checks standing rule (ii) of ROADMAP.md:
//!
//! * at least ten pairs, every run clear of failed operations and checks;
//! * the change wins at least nine pairs in ten, and the median ratio
//!   meets the bound;
//! * the gap between the medians is wider than the parent's q1–q3;
//! * the A/A is a real A/A on the same workload and window, and its own
//!   ratio does not meet the bound, so the claim stands clear of the
//!   host's noise;
//! * in index order, every rows file's seeds are above every earlier
//!   file's, so no claim reuses a seed.
//!
//! Run with `--nocapture` to see each claim's derived figures.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn claims_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/claims")
}

/// One metric of one run: a row of a rows file, less its `first` column.
#[derive(Clone, Debug)]
struct Run {
    parent: bool,
    pair: u32,
    seed: u64,
    metric: String,
    value: f64,
}

/// One `tools/ab.sh --record` file: its `#` header and every run's
/// metrics.
#[derive(Clone, Debug)]
struct Rows {
    header: BTreeMap<String, String>,
    runs: Vec<Run>,
}

impl Rows {
    /// Reads `file`, relative to `docs/claims/` or absolute.
    fn load(file: &str) -> Rows {
        let path = claims_dir().join(file);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut header = BTreeMap::new();
        let mut runs = Vec::new();
        let mut columns = false;
        for (i, line) in text.lines().enumerate() {
            let at = || format!("{file}:{}", i + 1);
            if let Some(rest) = line.strip_prefix("# ") {
                let (key, value) = rest.split_once('\t').unwrap_or_else(|| panic!("{}", at()));
                header.insert(key.to_string(), value.to_string());
            } else if !columns {
                assert_eq!(line, "side\tpair\tseed\tfirst\tmetric\tvalue", "{}", at());
                columns = true;
            } else {
                let f: Vec<&str> = line.split('\t').collect();
                assert_eq!(f.len(), 6, "{}", at());
                assert!(f[0] == "parent" || f[0] == "change", "{}", at());
                runs.push(Run {
                    parent: f[0] == "parent",
                    pair: f[1].parse().unwrap_or_else(|_| panic!("{}", at())),
                    seed: f[2].parse().unwrap_or_else(|_| panic!("{}", at())),
                    metric: f[4].to_string(),
                    value: f[5].parse().unwrap_or_else(|_| panic!("{}", at())),
                });
            }
        }
        assert!(columns && !runs.is_empty(), "{file}: no runs");
        Rows { header, runs }
    }

    fn get(&self, key: &str) -> &str {
        self.header.get(key).map_or("", String::as_str)
    }

    /// `(parent, change)` values of `metric`, one pair each, in pair order.
    fn pairs(&self, metric: &str) -> Vec<(f64, f64)> {
        let mut by_pair: BTreeMap<u32, (Option<f64>, Option<f64>)> = BTreeMap::new();
        for run in self.runs.iter().filter(|run| run.metric == metric) {
            let cell = by_pair.entry(run.pair).or_default();
            let slot = if run.parent { &mut cell.0 } else { &mut cell.1 };
            assert!(slot.is_none(), "pair {} has two runs of a side", run.pair);
            *slot = Some(run.value);
        }
        by_pair
            .into_iter()
            .map(|(pair, (p, c))| match (p, c) {
                (Some(p), Some(c)) => (p, c),
                _ => panic!("pair {pair} lacks a side of {metric}"),
            })
            .collect()
    }

    fn seeds(&self) -> (u64, u64) {
        let seeds = self.runs.iter().map(|run| run.seed);
        (seeds.clone().min().unwrap(), seeds.max().unwrap())
    }

    /// The same runs with the two sides' labels exchanged.
    fn swapped(&self) -> Rows {
        self.swapped_in(|_| true)
    }

    /// The same runs with the two sides' labels exchanged in the pairs
    /// `pick` names.
    fn swapped_in(&self, pick: impl Fn(u32) -> bool) -> Rows {
        let mut rows = self.clone();
        for run in rows.runs.iter_mut().filter(|run| pick(run.pair)) {
            run.parent = !run.parent;
        }
        rows
    }
}

/// Quantile `q` of `values`, linear between ranks, as `tools/ab.sh`
/// prints it.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    if lo + 1 >= v.len() {
        return v[v.len() - 1];
    }
    v[lo] + (pos - lo as f64) * (v[lo + 1] - v[lo])
}

/// One row of the index.
#[derive(Clone, Debug)]
struct Claim {
    pr: String,
    workload: String,
    metric: String,
    lower_is_better: bool,
    bound: f64,
    rows: String,
    aa_rows: String,
}

impl Claim {
    /// Whether the change's value `c` beats the parent's `p`.
    fn better(&self, p: f64, c: f64) -> bool {
        if self.lower_is_better {
            c < p
        } else {
            c > p
        }
    }
}

fn index() -> Vec<Claim> {
    let path = claims_dir().join("CLAIMS.tsv");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    assert_eq!(
        lines.next(),
        Some("pr\tworkload\tmetric\tbetter\tbound\trows\taa_rows"),
        "CLAIMS.tsv column header"
    );
    lines
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 7, "CLAIMS.tsv: {line}");
            assert!(f[3] == "lower" || f[3] == "higher", "CLAIMS.tsv: {line}");
            Claim {
                pr: f[0].to_string(),
                workload: f[1].to_string(),
                metric: f[2].to_string(),
                lower_is_better: f[3] == "lower",
                bound: f[4].parse().expect("bound"),
                rows: f[5].to_string(),
                aa_rows: f[6].to_string(),
            }
        })
        .collect()
}

/// What a claim's rows give.
#[derive(Debug)]
struct Derived {
    pairs: usize,
    wins: usize,
    parent_median: f64,
    change_median: f64,
    parent_q1: f64,
    parent_q3: f64,
    ratio: f64,
}

fn derive(rows: &Rows, claim: &Claim) -> Derived {
    let pairs = rows.pairs(&claim.metric);
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (parent_median, change_median) = (quantile(&parent, 0.5), quantile(&change, 0.5));
    Derived {
        pairs: pairs.len(),
        wins: pairs.iter().filter(|&&(p, c)| claim.better(p, c)).count(),
        parent_median,
        change_median,
        parent_q1: quantile(&parent, 0.25),
        parent_q3: quantile(&parent, 0.75),
        ratio: change_median / parent_median,
    }
}

fn meets(claim: &Claim, ratio: f64) -> bool {
    if claim.lower_is_better {
        ratio <= claim.bound
    } else {
        ratio >= claim.bound
    }
}

/// Rule (ii) on one claim, given its rows and its A/A's.
fn verify(claim: &Claim, rows: &Rows, aa: &Rows) -> Result<Derived, String> {
    let name = format!("PR {} {} {}", claim.pr, claim.workload, claim.metric);
    if rows.get("workload") != claim.workload || rows.get("A/A") != "no" {
        return Err(format!(
            "{name}: {} is not an A/B of {}",
            claim.rows, claim.workload
        ));
    }
    if rows.get("parent") == rows.get("change") {
        return Err(format!("{name}: both sides were built from one commit"));
    }
    for (file, r) in [(&claim.rows, rows), (&claim.aa_rows, aa)] {
        let failed = |run: &&Run| {
            (run.metric == "failed_ratio" || run.metric == "checks_failed") && run.value != 0.0
        };
        if let Some(run) = r.runs.iter().find(failed) {
            return Err(format!(
                "{name}: {file} pair {} has {} = {}",
                run.pair, run.metric, run.value
            ));
        }
    }
    let d = derive(rows, claim);
    if d.pairs < 10 {
        return Err(format!("{name}: {} pairs, rule (ii) asks for ten", d.pairs));
    }
    if d.wins * 10 < d.pairs * 9 {
        return Err(format!(
            "{name}: the change wins {} of {} pairs, under nine in ten",
            d.wins, d.pairs
        ));
    }
    if !meets(claim, d.ratio) {
        return Err(format!(
            "{name}: median ratio {:.4} misses the bound {}",
            d.ratio, claim.bound
        ));
    }
    let gap = (d.change_median - d.parent_median).abs();
    if gap <= d.parent_q3 - d.parent_q1 {
        return Err(format!(
            "{name}: the medians are {gap} apart, within the parent's q1–q3 {}–{}",
            d.parent_q1, d.parent_q3
        ));
    }
    let same = ["workload", "seconds", "trace"]
        .iter()
        .all(|k| aa.get(k) == rows.get(k));
    if aa.get("A/A") != "yes" || aa.get("parent") != aa.get("change") || !same {
        return Err(format!(
            "{name}: {} is not an A/A of the claim's sitting",
            claim.aa_rows
        ));
    }
    let aa_ratio = derive(aa, claim).ratio;
    if meets(claim, aa_ratio) {
        return Err(format!(
            "{name}: the A/A reads {aa_ratio:.4}, itself within the bound {}",
            claim.bound
        ));
    }
    Ok(d)
}

#[test]
fn every_indexed_claim_holds_on_its_rows() {
    let claims = index();
    assert!(!claims.is_empty(), "the index lists no claim");
    let mut highest: Option<(u64, String)> = None;
    for claim in &claims {
        let (rows, aa) = (Rows::load(&claim.rows), Rows::load(&claim.aa_rows));
        let d = verify(claim, &rows, &aa).unwrap_or_else(|e| panic!("{e}"));
        let aa_ratio = derive(&aa, claim).ratio;
        println!(
            "PR {} {} {}: {} → {} ({:.3}×; parent q1–q3 {} – {}), {} of {} pairs; A/A {:.3}×",
            claim.pr,
            claim.workload,
            claim.metric,
            d.parent_median,
            d.change_median,
            d.ratio,
            d.parent_q1,
            d.parent_q3,
            d.wins,
            d.pairs,
            aa_ratio
        );
        for (file, r) in [(&claim.rows, &rows), (&claim.aa_rows, &aa)] {
            let (lo, hi) = r.seeds();
            if let Some((top, earlier)) = &highest {
                assert!(
                    lo > *top,
                    "{file}: seed {lo} is not above {earlier}'s highest, {top}"
                );
            }
            highest = Some((hi, file.clone()));
        }
    }
}

/// A committed sitting read the other way round is a loss, and must fail.
#[test]
fn swapping_the_sides_of_a_committed_sitting_fails_its_claim() {
    for claim in &index() {
        let (rows, aa) = (Rows::load(&claim.rows), Rows::load(&claim.aa_rows));
        assert!(
            verify(claim, &rows.swapped(), &aa).is_err(),
            "{}: holds with parent and change exchanged",
            claim.rows
        );
    }
}

/// A committed sitting with its sides exchanged in just enough of the
/// pairs the change won to leave it under nine in ten (8 of 10, 10 of 12)
/// must fail on its pair wins.
#[test]
fn a_sitting_one_pair_win_short_of_nine_in_ten_fails() {
    for claim in &index() {
        let (rows, aa) = (Rows::load(&claim.rows), Rows::load(&claim.aa_rows));
        let d = derive(&rows, claim);
        let (pairs, needed) = (d.pairs, (d.pairs * 9).div_ceil(10));
        let ids: BTreeSet<u32> = rows
            .runs
            .iter()
            .filter(|run| run.metric == claim.metric)
            .map(|run| run.pair)
            .collect();
        let won: Vec<u32> = ids
            .into_iter()
            .zip(rows.pairs(&claim.metric))
            .filter(|&(_, (p, c))| claim.better(p, c))
            .map(|(pair, _)| pair)
            .collect();
        let flip = &won[..won.len() + 1 - needed];
        let mutated = rows.swapped_in(|pair| flip.contains(&pair));
        assert_eq!(derive(&mutated, claim).wins, needed - 1, "{}", claim.rows);
        let err = verify(claim, &mutated, &aa).expect_err(&claim.rows);
        assert!(
            err.contains(&format!("wins {} of {pairs} pairs", needed - 1)),
            "{}: {err}",
            claim.rows
        );
    }
}

/// A bound a little beyond what the rows give must fail.
#[test]
fn a_bound_past_what_the_rows_support_fails() {
    for claim in &index() {
        let (rows, aa) = (Rows::load(&claim.rows), Rows::load(&claim.aa_rows));
        let ratio = derive(&rows, claim).ratio;
        let tighter = Claim {
            bound: if claim.lower_is_better {
                ratio * 0.99
            } else {
                ratio * 1.01
            },
            ..claim.clone()
        };
        assert!(verify(&tighter, &rows, &aa).is_err(), "{}", claim.rows);
    }
}

/// `tools/ab.sh` on two stand-ins for perfbench whose figures are known:
/// the tables it prints are the same bytes with and without `--record`,
/// the rows it records give back the stubs' median ratio and pair wins,
/// and one stub on both sides is recorded as an A/A.
#[cfg(unix)]
#[test]
fn ab_sh_records_what_it_prints_on_stub_executables() {
    use std::os::unix::fs::PermissionsExt;
    use std::process::Command;

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ab-stubs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A stub prints perfbench's result lines, its `cycles_per_s` an
    // arithmetic expression in the `--seed` it was handed.
    let stub = |name: &str, cycles: &str| {
        let path = dir.join(name);
        let script = format!(
            "#!/usr/bin/env bash\n\
             while [[ $# -gt 0 ]]; do [[ $1 == --seed ]] && seed=$2; shift; done\n\
             echo \"setup_s = 0.0$seed s\"\n\
             echo \"cycles_per_s = $(({cycles})) 1/s\"\n\
             echo \"peak_rss_kb = $((1000 + seed)) kB\"\n\
             echo \"check exclusion: ok (stub)\"\n\
             echo \"failed_ratio = 0 (0 of 1), checks_failed = 0\"\n"
        );
        std::fs::write(&path, script).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path.to_str().unwrap().to_string()
    };
    // Seeds 1–4: the parent reads 1000, 2000, 3000, 4000 (median 2500,
    // q1–q3 1750–3250); the change 2000, 4000, 2900, 8000 (median 3450),
    // ahead in every pair but the third.
    let parent = stub("parent", "1000 * seed");
    let change = stub("change", "seed == 3 ? 2900 : 2000 * seed");
    let commit = "0123456789abcdef0123456789abcdef01234567";
    std::fs::write(format!("{parent}.commit"), commit).unwrap();

    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (logs, record, aa_record) = (path("logs"), path("record"), path("aa"));
    // `ab.sh --seconds 1 --logs LOGS [--record DIR] PARENT CHANGE sim-packed 1 2 3 4`,
    // its stdout.
    let ab = |record: Option<&str>, change: &str| {
        let mut cmd = Command::new("bash");
        cmd.arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("tools/ab.sh"))
            .args(["--seconds", "1", "--logs", &logs]);
        if let Some(dir) = record {
            cmd.args(["--record", dir]);
        }
        let out = cmd
            .args([&parent, change, "sim-packed", "1", "2", "3", "4"])
            .output()
            .expect("run tools/ab.sh");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "ab.sh: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let plain = ab(None, &change);
    assert_eq!(
        plain,
        ab(Some(&record), &change),
        "--record changed the printed tables"
    );
    let row = "| 3 | 3 | parent | 3000 | 2900 | 0.97 |";
    assert!(plain.contains(row), "{plain}");

    let rows = Rows::load(&format!("{record}/rows.tsv"));
    assert_eq!(rows.get("parent"), commit);
    assert!(rows.get("change").starts_with("sha256:"), "{rows:?}");
    assert_eq!(rows.get("workload"), "sim-packed");
    assert_eq!(rows.get("seconds"), "1");
    assert_eq!(rows.get("A/A"), "no");
    let claim = Claim {
        pr: "stub".to_string(),
        workload: "sim-packed".to_string(),
        metric: "cycles_per_s".to_string(),
        lower_is_better: false,
        bound: 1.0,
        rows: format!("{record}/rows.tsv"),
        aa_rows: format!("{aa_record}/rows.tsv"),
    };
    let d = derive(&rows, &claim);
    assert_eq!((d.pairs, d.wins), (4, 3), "{d:?}");
    assert_eq!((d.parent_median, d.change_median), (2500.0, 3450.0));
    assert_eq!((d.parent_q1, d.parent_q3), (1750.0, 3250.0));
    assert_eq!(d.ratio, 1.38);

    ab(Some(&aa_record), &parent);
    let aa = Rows::load(&claim.aa_rows);
    assert_eq!(aa.get("A/A"), "yes");
    assert_eq!((aa.get("parent"), aa.get("change")), (commit, commit));
    assert_eq!(derive(&aa, &claim).ratio, 1.0);
    // Four pairs carry no claim: the rows go through the same check as an
    // indexed claim's and are refused for it.
    let err = verify(&claim, &rows, &aa).expect_err("four pairs");
    assert!(err.contains("4 pairs, rule (ii) asks for ten"), "{err}");
}

#[test]
fn quantiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.5), 2.5);
    assert_eq!(quantile(&v, 0.25), 1.75);
    assert_eq!(quantile(&v, 0.75), 3.25);
    assert_eq!(quantile(&[7.0], 0.25), 7.0);
}
