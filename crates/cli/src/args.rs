//! Minimal `--flag value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// Errors from command-line parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of `run`, `stabilize`, `threaded`,
    /// `campaign`, `replay`, `chaos`, `serve`, `loadgen`.
    UnknownCommand(String),
    /// A flag the subcommand does not read.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag, with its leading `--`.
        flag: String,
    },
    /// A flag was given without a value.
    MissingValue(String),
    /// A positional token appeared where a `--flag` was expected.
    UnexpectedToken(String),
    /// A value failed to parse.
    BadValue {
        /// The flag concerned.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => {
                write!(
                    f,
                    "missing subcommand (run | stabilize | threaded | campaign | replay | chaos | serve | loadgen)"
                )
            }
            ArgError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            ArgError::UnknownFlag { command, flag } => {
                write!(f, "unknown flag {flag} for `ekbd {command}`")
            }
            ArgError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token '{t}'"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "bad value '{value}' for {flag}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The flags every subcommand that builds a dense `Scenario` reads.
const SCENARIO_FLAGS: &str = "topology seed horizon sessions think eat oracle loss dup reorder \
     partition crash recover corrupt-state journal storage-fault audit-period audit-strikes \
     churn-rate churn-plan link";

/// Each subcommand, whether it takes [`SCENARIO_FLAGS`], and the flags it
/// reads besides.
const COMMANDS: &[(&str, bool, &str)] = &[
    ("run", true, "algorithm timeline dump-journal obs shards"),
    ("stabilize", true, "algorithm protocol faults"),
    ("campaign", true, "seeds workers verify"),
    ("threaded", false, "n window-ms crash recover-ms"),
    ("replay", false, "dir"),
    (
        "chaos",
        false,
        "topology count seed intensity out replay shrink",
    ),
    (
        "serve",
        false,
        "listen uds topology serve-ms max-sessions send-queue heartbeat-ms journal-dir \
         reactor-threads backend",
    ),
    (
        "loadgen",
        false,
        "connect uds clients sessions kill think-ms seed multiplex",
    ),
];

/// A parsed command line: the subcommand plus its `--flag value` pairs
/// (repeated flags accumulate, e.g. `--crash`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand.
    pub command: String,
    /// Flag → values, in the order given.
    pub flags: BTreeMap<String, Vec<String>>,
}

impl Parsed {
    /// Parses `args` (without the program name). A flag the subcommand
    /// does not read is refused rather than dropped.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Parsed, ArgError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let Some(&(_, scenario, own)) = COMMANDS.iter().find(|(c, ..)| *c == command) else {
            return Err(ArgError::UnknownCommand(command));
        };
        let lists = |flags: &str, name: &str| flags.split_whitespace().any(|f| f == name);
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedToken(tok));
            };
            let read = lists(own, name) || (scenario && lists(SCENARIO_FLAGS, name));
            if !read {
                return Err(ArgError::UnknownFlag { command, flag: tok });
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(tok.clone()))?;
            flags.entry(name.to_string()).or_default().push(value);
        }
        Ok(Parsed { command, flags })
    }

    /// The last value of `flag`, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .get(flag)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of `flag`.
    pub fn get_all(&self, flag: &str) -> &[String] {
        self.flags.get(flag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The last value of `flag`, parsed, or `default`.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: format!("--{flag}"),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A `lo:hi` range flag, or `default`.
    pub fn get_range(&self, flag: &str, default: (u64, u64)) -> Result<(u64, u64), ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => {
                let bad = || ArgError::BadValue {
                    flag: format!("--{flag}"),
                    value: v.to_string(),
                    expected: "lo:hi",
                };
                let (lo, hi) = v.split_once(':').ok_or_else(bad)?;
                let lo = lo.parse().map_err(|_| bad())?;
                let hi = hi.parse().map_err(|_| bad())?;
                Ok((lo, hi))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Parsed, ArgError> {
        Parsed::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse("run --topology ring:8 --seed 7 --crash 1:100 --crash 2:200").unwrap();
        assert_eq!(p.command, "run");
        assert_eq!(p.get("topology"), Some("ring:8"));
        assert_eq!(p.get("seed"), Some("7"));
        assert_eq!(
            p.get_all("crash"),
            &["1:100".to_string(), "2:200".to_string()]
        );
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(parse(""), Err(ArgError::MissingCommand));
        assert!(matches!(parse("fly"), Err(ArgError::UnknownCommand(_))));
        assert!(matches!(
            parse("run --seed"),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse("run stray"),
            Err(ArgError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn refuses_flags_the_command_does_not_read() {
        for (line, flag) in [
            (
                "run --topology ring:4 --sesions 2 --horizon 2000",
                "--sesions",
            ),
            ("run --engine legacy", "--engine"),
            ("threaded --n 4 --sessions 2", "--sessions"),
            ("chaos --loss 0.1", "--loss"),
        ] {
            let command = line.split_whitespace().next().unwrap().to_string();
            let err = parse(line).unwrap_err();
            assert_eq!(
                err,
                ArgError::UnknownFlag {
                    command,
                    flag: flag.into()
                },
                "{line}"
            );
            assert!(err.to_string().contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn accepts_every_flag_ci_and_the_docs_pass() {
        for line in [
            "run --topology ring:6 --oracle adversarial:2000:40 --seed 42 --sessions 8 \
             --horizon 200000 --think 1:30 --eat 1:10 --algorithm alg1 --timeline 3000",
            "run --topology grid:3x4 --oracle perfect --crash 0:500 --recover 0:2200:corrupt \
             --corrupt-state 2:2600 --journal on --storage-fault 1:torn --audit-period 50 \
             --audit-strikes 2 --dump-journal out",
            "run --loss 0.2 --dup 0.1 --reorder 0.2:8 --partition 0:2000-9000 --link on",
            "run --churn-rate 800",
            "run --churn-plan join:2:5000",
            "run --obs streaming",
            "run --topology ring:8 --shards 2",
            "stabilize --protocol coloring --topology ring:6 --seed 3 --faults 2 \
             --algorithm alg1 --oracle perfect --crash 1:100 --horizon 60000",
            "threaded --n 4 --window-ms 400 --crash 1 --recover-ms 150",
            "campaign --topology ring:4 --seeds 3 --workers 2 --verify on --sessions 2",
            "replay --dir e16-journals",
            "chaos --topology ring-8 --count 3 --seed 5 --intensity light --out d",
            "chaos --replay a.chaos",
            "chaos --shrink a.chaos --out b.chaos",
            "serve --listen 127.0.0.1:47201 --topology ring:32 --backend scale:7 \
             --serve-ms 5000 --max-sessions 64 --send-queue 64 --heartbeat-ms 200 \
             --journal-dir j --reactor-threads 2",
            "serve --uds /tmp/ekbd.sock",
            "loadgen --connect 127.0.0.1:47201 --clients 4 --multiplex 8 --sessions 3 \
             --kill 0.3 --think-ms 5 --seed 7",
            "loadgen --uds /tmp/ekbd.sock",
        ] {
            assert!(parse(line).is_ok(), "{line}: {:?}", parse(line));
        }
    }

    #[test]
    fn typed_getters() {
        let p = parse("run --seed 9 --think 1:30").unwrap();
        assert_eq!(p.get_parsed("seed", 0u64).unwrap(), 9);
        assert_eq!(p.get_parsed("horizon", 5u64).unwrap(), 5, "default");
        assert_eq!(p.get_range("think", (0, 0)).unwrap(), (1, 30));
        assert_eq!(p.get_range("eat", (2, 4)).unwrap(), (2, 4), "default");
        let p = parse("run --seed nope").unwrap();
        assert!(p.get_parsed("seed", 0u64).is_err());
        let p = parse("run --think 1-30").unwrap();
        assert!(p.get_range("think", (0, 0)).is_err());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingCommand.to_string().contains("subcommand"));
        let e = ArgError::BadValue {
            flag: "--x".into(),
            value: "y".into(),
            expected: "z",
        };
        assert!(e.to_string().contains("expected z"));
    }
}
