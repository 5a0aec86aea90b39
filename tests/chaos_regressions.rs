//! Replays every committed chaos artifact under `tests/chaos-regressions/`
//! and checks it reproduces exactly the class its `expect` line records.
//!
//! Two kinds of artifact live there: schedules that must *keep failing*
//! the same way (they pin the watchdog's classification), and shrunk
//! repros of fixed bugs tagged `expect wait-free` (they pin the fix).
//! Either drifting is a regression. A known defect that is not yet fixed
//! is committed with the class it has today and a comment saying so
//! (`clique-6-seed505-mistake.chaos`, `clique-6-seed753-mistake.chaos`,
//! `grid-3x4-seed80-mistake.chaos`, `gnp-12-0.3-seed141-mistake.chaos`);
//! its fix flips the artifact to `expect wait-free`.

use ekbd_chaos::codec;
use ekbd_harness::run_chaos;
use std::path::PathBuf;

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/chaos-regressions")
}

#[test]
fn committed_artifacts_reproduce_their_recorded_class() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(artifact_dir())
        .expect("tests/chaos-regressions exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "chaos"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed chaos artifacts");
    for path in paths {
        let schedule =
            codec::read_artifact(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let expected = schedule
            .expect
            .unwrap_or_else(|| panic!("{}: missing `expect` line", path.display()));
        let outcome = run_chaos(&schedule).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            outcome.class,
            expected,
            "{}: replayed to {}, artifact expects {} (repro: {})",
            path.display(),
            outcome.class,
            expected,
            codec::replay_command(&path)
        );
    }
}

#[test]
fn committed_artifacts_are_in_canonical_form() {
    // `encode ∘ parse` is the identity on the directive lines; keeping
    // artifacts canonical (modulo leading comments) means regenerating
    // one from the shrinker produces a clean diff.
    for entry in std::fs::read_dir(artifact_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "chaos") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let schedule = codec::parse(&text).unwrap();
        let canonical = codec::encode(&schedule);
        let stripped: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            stripped,
            canonical,
            "{}: directive lines are not in canonical order/form",
            path.display()
        );
    }
}
