//! Text codec for [`FaultSchedule`]: a line-oriented, diff-friendly
//! format so failing schedules can be committed as regression artifacts
//! and replayed from the CLI (`ekbd chaos --replay FILE`).
//!
//! Grammar (one directive per line, `#` starts a comment):
//!
//! ```text
//! ekbd-chaos v1
//! topology ring-8
//! seed 42
//! horizon 120000
//! expect stalled                  # optional
//! noise loss=0.05 dup=0.02 reorder=0.1 window=8
//! partition 3,4 500 3000          # side start heal
//! crash 2 700
//! recover 2 1400 corrupt          # trailing `corrupt` optional
//! corrupt 5 900
//! storage 2 torn                  # torn | rot | stale | dropped
//! join 7 800
//! leave 6 1200 graceful           # graceful | crash
//! ```
//!
//! Floats are emitted with Rust's shortest round-trip formatting, so
//! `encode ∘ parse` is the identity on every schedule the generator can
//! produce.

use crate::schedule::{ChannelNoise, ChaosEvent, FaultSchedule, RunClass, ScheduleError};
use ekbd_journal::StorageFault;
use ekbd_sim::{ProcessId, Time};
use std::fmt::Write as _;
use std::path::Path;

/// Magic first line of every schedule file.
pub const HEADER: &str = "ekbd-chaos v1";

/// Serialize a schedule to its canonical text form.
pub fn encode(schedule: &FaultSchedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "topology {}", schedule.topology);
    let _ = writeln!(out, "seed {}", schedule.seed);
    let _ = writeln!(out, "horizon {}", schedule.horizon.0);
    if let Some(class) = schedule.expect {
        let _ = writeln!(out, "expect {}", class.as_str());
    }
    for ev in &schedule.events {
        match ev {
            ChaosEvent::Noise(n) => {
                let _ = writeln!(
                    out,
                    "noise loss={:?} dup={:?} reorder={:?} window={}",
                    n.loss, n.dup, n.reorder, n.reorder_window
                );
            }
            ChaosEvent::Partition { side, start, heal } => {
                let ids: Vec<String> = side.iter().map(|p| p.0.to_string()).collect();
                let _ = writeln!(out, "partition {} {} {}", ids.join(","), start.0, heal.0);
            }
            ChaosEvent::Crash { process, at } => {
                let _ = writeln!(out, "crash {} {}", process.0, at.0);
            }
            ChaosEvent::Recover {
                process,
                at,
                corrupt,
            } => {
                let tail = if *corrupt { " corrupt" } else { "" };
                let _ = writeln!(out, "recover {} {}{tail}", process.0, at.0);
            }
            ChaosEvent::Corrupt { process, at } => {
                let _ = writeln!(out, "corrupt {} {}", process.0, at.0);
            }
            ChaosEvent::Storage { process, mode } => {
                let _ = writeln!(out, "storage {} {}", process.0, mode.name());
            }
            ChaosEvent::Join { process, at } => {
                let _ = writeln!(out, "join {} {}", process.0, at.0);
            }
            ChaosEvent::Leave {
                process,
                at,
                graceful,
            } => {
                let kind = if *graceful { "graceful" } else { "crash" };
                let _ = writeln!(out, "leave {} {} {kind}", process.0, at.0);
            }
        }
    }
    out
}

/// Parses one fault directive from its fields: the words after the
/// directive on a schedule line, or an `ekbd run` fault flag's value split
/// on `:`. The directives and their fields are the grammar's; a field too
/// many is refused like a field too few.
///
/// Like [`parse`], this only checks shape: whether the event fits a
/// schedule is [`FaultSchedule::validate`]'s question.
pub fn parse_event(directive: &str, fields: &[&str]) -> Result<ChaosEvent, &'static str> {
    let time = |f: &str| f.parse().map(Time).map_err(|_| "expected a number");
    let process = |f: &str| {
        f.parse()
            .map(ProcessId)
            .map_err(|_| "expected a process id")
    };
    Ok(match (directive, fields) {
        ("noise", fields) => {
            let mut noise = ChannelNoise::inert();
            for field in fields {
                let (k, v) = field.split_once('=').ok_or("noise fields are key=value")?;
                match k {
                    "loss" => noise.loss = v.parse().map_err(|_| "bad loss")?,
                    "dup" => noise.dup = v.parse().map_err(|_| "bad dup")?,
                    "reorder" => noise.reorder = v.parse().map_err(|_| "bad reorder")?,
                    "window" => noise.reorder_window = v.parse().map_err(|_| "bad window")?,
                    _ => return Err("unknown noise field"),
                }
            }
            ChaosEvent::Noise(noise)
        }
        ("partition", [side, start, heal]) => ChaosEvent::Partition {
            side: side
                .split(',')
                .map(process)
                .collect::<Result<_, _>>()
                .map_err(|_| "bad partition side")?,
            start: time(start)?,
            heal: time(heal)?,
        },
        ("crash", [p, at]) => ChaosEvent::Crash {
            process: process(p)?,
            at: time(at)?,
        },
        ("recover", [p, at, tail @ ..]) => ChaosEvent::Recover {
            process: process(p)?,
            at: time(at)?,
            corrupt: match tail {
                [] => false,
                ["corrupt"] => true,
                _ => return Err("trailing field must be `corrupt`"),
            },
        },
        ("corrupt", [p, at]) => ChaosEvent::Corrupt {
            process: process(p)?,
            at: time(at)?,
        },
        ("storage", [p, mode]) => ChaosEvent::Storage {
            process: process(p)?,
            mode: StorageFault::from_name(mode).ok_or("storage mode is torn|rot|stale|dropped")?,
        },
        ("join", [p, at]) => ChaosEvent::Join {
            process: process(p)?,
            at: time(at)?,
        },
        ("leave", [p, at, kind]) => ChaosEvent::Leave {
            process: process(p)?,
            at: time(at)?,
            graceful: match *kind {
                "graceful" => true,
                "crash" => false,
                _ => return Err("leave kind is graceful|crash"),
            },
        },
        _ => return Err("unknown directive, or the wrong number of fields for it"),
    })
}

/// Parse the canonical text form back into a schedule.
///
/// Parsing only checks shape; call [`FaultSchedule::validate`] on the
/// result before running it.
pub fn parse(text: &str) -> Result<FaultSchedule, ScheduleError> {
    let err = |line: usize, msg: &str| ScheduleError::Parse {
        line,
        msg: msg.to_string(),
    };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (first_no, first) = lines.next().ok_or_else(|| err(1, "empty schedule"))?;
    if first != HEADER {
        return Err(err(first_no, "missing `ekbd-chaos v1` header"));
    }

    let mut topology: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut horizon: Option<Time> = None;
    let mut expect: Option<RunClass> = None;
    let mut events = Vec::new();

    for (no, line) in lines {
        let mut words = line.split_whitespace();
        let key = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        let one = |i: usize| -> Result<&str, ScheduleError> {
            rest.get(i).copied().ok_or_else(|| err(no, "missing field"))
        };
        let num = |i: usize| -> Result<u64, ScheduleError> {
            one(i)?.parse().map_err(|_| err(no, "expected a number"))
        };
        match key {
            "topology" => topology = Some(one(0)?.to_string()),
            "seed" => seed = Some(num(0)?),
            "horizon" => horizon = Some(Time(num(0)?)),
            "expect" => {
                expect = Some(RunClass::parse(one(0)?).ok_or_else(|| err(no, "unknown run class"))?)
            }
            directive => events.push(parse_event(directive, &rest).map_err(|msg| err(no, msg))?),
        }
    }

    Ok(FaultSchedule {
        topology: topology.ok_or_else(|| err(0, "missing `topology` line"))?,
        seed: seed.ok_or_else(|| err(0, "missing `seed` line"))?,
        horizon: horizon.ok_or_else(|| err(0, "missing `horizon` line"))?,
        events,
        expect,
    })
}

/// Write a schedule to `path` in canonical form.
pub fn write_artifact(schedule: &FaultSchedule, path: &Path) -> Result<(), ScheduleError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| ScheduleError::Io(e.to_string()))?;
    }
    std::fs::write(path, encode(schedule)).map_err(|e| ScheduleError::Io(e.to_string()))
}

/// Read and parse a schedule from `path`.
pub fn read_artifact(path: &Path) -> Result<FaultSchedule, ScheduleError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScheduleError::Io(format!("{}: {e}", path.display())))?;
    parse(&text)
}

/// The exact command line that reproduces a failing schedule, printed
/// next to every invariant failure so the repro is one paste away.
pub fn replay_command(path: &Path) -> String {
    format!("ekbd chaos --replay {}", path.display())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChannelNoise;

    fn sample() -> FaultSchedule {
        FaultSchedule::new("ring-8", 42, Time(120_000))
            .event(ChaosEvent::Noise(ChannelNoise {
                loss: 0.05,
                dup: 0.02,
                reorder: 0.125,
                reorder_window: 8,
            }))
            .event(ChaosEvent::Partition {
                side: vec![ProcessId(3), ProcessId(4)],
                start: Time(500),
                heal: Time(3_000),
            })
            .event(ChaosEvent::Crash {
                process: ProcessId(2),
                at: Time(700),
            })
            .event(ChaosEvent::Recover {
                process: ProcessId(2),
                at: Time(1_400),
                corrupt: true,
            })
            .event(ChaosEvent::Corrupt {
                process: ProcessId(5),
                at: Time(900),
            })
            .event(ChaosEvent::Storage {
                process: ProcessId(2),
                mode: StorageFault::StaleSnapshot,
            })
            .event(ChaosEvent::Join {
                process: ProcessId(7),
                at: Time(800),
            })
            .event(ChaosEvent::Leave {
                process: ProcessId(6),
                at: Time(1_200),
                graceful: false,
            })
            .expecting(RunClass::WaitFree)
    }

    #[test]
    fn encode_parse_round_trips() {
        let s = sample();
        let text = encode(&s);
        let back = parse(&text).unwrap();
        assert_eq!(back, s);
        // Canonical form is a fixpoint.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a regression artifact
ekbd-chaos v1

topology clique-6   # the canonical clique
seed 9
horizon 50000
crash 1 700   # take one down
";
        let s = parse(text).unwrap();
        assert_eq!(s.topology, "clique-6");
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.expect, None);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "ekbd-chaos v1\ntopology ring-8\nseed 1\nhorizon 100\nfrobnicate 1 2\n";
        match parse(text) {
            Err(ScheduleError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("").is_err());
        assert!(parse("not-a-header\n").is_err());
        let no_seed = "ekbd-chaos v1\ntopology ring-8\nhorizon 100\n";
        assert!(matches!(parse(no_seed), Err(ScheduleError::Parse { .. })));
    }

    #[test]
    fn directives_take_exactly_their_fields() {
        assert_eq!(
            parse_event("recover", &["2", "1400", "corrupt"]),
            Ok(ChaosEvent::Recover {
                process: ProcessId(2),
                at: Time(1_400),
                corrupt: true,
            })
        );
        for (directive, fields) in [
            ("crash", &["1", "700", "9"][..]),
            ("crash", &["1"][..]),
            ("recover", &["2", "1400", "blank"][..]),
            ("recover", &["2", "1400", "corrupt", "x"][..]),
            ("storage", &["2", "melted"][..]),
            ("leave", &["6", "1200"][..]),
            ("partition", &["", "500", "3000"][..]),
            ("noise", &["loss"][..]),
            ("frobnicate", &["1"][..]),
        ] {
            assert!(
                parse_event(directive, fields).is_err(),
                "{directive} {fields:?} must be refused"
            );
        }
    }

    #[test]
    fn artifact_files_round_trip() {
        let dir = std::env::temp_dir().join("ekbd-chaos-codec-test");
        let path = dir.join("sample.chaos");
        let s = sample();
        write_artifact(&s, &path).unwrap();
        let back = read_artifact(&path).unwrap();
        assert_eq!(back, s);
        assert!(replay_command(&path).starts_with("ekbd chaos --replay "));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
