//! The repo benchmark: five workloads measured from outside the program.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run measures one workload in this process, so CPU time and peak
//! memory are that workload's own. It prints every metric by name and
//! unit, checks the program's outputs, and ends with one JSON line;
//! `--trace 0` reports the end-to-end metrics and `--trace 1` the
//! per-layer ones. Without `--workload` it runs all five, each in a
//! child process. See `README.md` beside this package for what each
//! workload and metric is for.

mod layers;
mod net;
mod report;
mod sim;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;
use trace::Tracer;

/// A workload measures itself into the outcome, recording spans when the
/// run is traced.
type Workload = fn(&Run, &mut Outcome, &mut Tracer);

const WORKLOADS: &[(&str, Workload)] = &[
    ("net-saturated", net::saturated),
    ("net-churn", net::churn),
    ("sim-dense", sim::dense),
    ("sim-chaos", sim::chaos),
    ("sim-packed", sim::packed),
];

/// Beyond set-up, warm-up and the measured window a run may take this
/// long before the watchdog ends it.
const WATCHDOG_SLACK: Duration = Duration::from_secs(60);

/// What the main thread is waiting for, for the watchdog to name.
static WAITING_FOR: Mutex<&str> = Mutex::new("start");

/// Names the wait the run is entering.
pub fn waiting_for(what: &'static str) {
    *WAITING_FOR.lock().expect("no panic while naming a wait") = what;
}

/// The inputs of one run.
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for journals; inside the build directory, removed on exit.
    pub scratch: PathBuf,
}

/// splitmix64: the benchmark's own seeded stream, so inputs depend on
/// `--seed` alone.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scratch directory, removed when the run ends, by a panic too.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        println!("== {name} ==");
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("start a child run");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let Some(&(name, workload)) = WORKLOADS.iter().find(|(n, _)| n == name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("perfbench: no workload {name}; choose one of {names:?}");
        return ExitCode::from(2);
    };

    // Everything the run writes goes beside the executable, which is in
    // the build directory of the checkout wherever the run was started.
    let build_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .expect("directory of this program");
    let scratch = Scratch(build_dir.join(format!("perfbench-scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        scratch: scratch.0.clone(),
    };

    let limit = run.window + WATCHDOG_SLACK;
    let watched = scratch.0.clone();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let wait = *WAITING_FOR.lock().expect("no panic while naming a wait");
        eprintln!("perfbench: watchdog: {name} still in `{wait}` after {limit:?}");
        let _ = std::fs::remove_dir_all(&watched);
        std::process::exit(3);
    });

    println!(
        "workload {name}, seed {}, window {:?}, trace {}, {} core(s), loopback TCP",
        run.seed,
        run.window,
        run.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.trace, std::time::Instant::now());
    workload(&run, &mut out, &mut tracer);
    if run.trace {
        let path = build_dir.join(format!("perfbench-trace-{name}.jsonl"));
        if let Err(e) = tracer.dump(&path) {
            eprintln!("perfbench: trace not written to {}: {e}", path.display());
        }
    }
    drop(scratch);
    if out.finish(run.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
