//! E17 — beyond the paper: dynamic membership under churn.
//!
//! The membership layer admits and retires processes at runtime: a joiner
//! is colored online ((δ+1) greedy over its present neighborhood, no
//! survivor ever recolors) and greets every conflict edge with the rejoin
//! handshake it shares with crash recovery; a graceful leaver drains its
//! edges, while a crash-stop departure leaves its forks to the audit's
//! departed-edge reclaim. Checks:
//!
//! * **Churn sweep** (ring-8 / clique-6 / grid-3x4 / Gnp-12-0.3, seeded
//!   churn at one event per ~400/100/50 ticks): every run stays wait-free
//!   with zero ◇WX mistakes for everyone present — in particular zero
//!   post-convergence mistakes for the continuously-present core — and
//!   every joiner reaches its first critical section (the join → first
//!   eat latency is reported per cell).
//! * **Scripted lifecycle** (ring-8): an explicit join / graceful leave /
//!   crash-stop leave / leave-then-rejoin-as-new-id plan lands every
//!   transition: joiners eat only after joining, leavers never eat after
//!   leaving, and the continuously-present survivors keep eating after
//!   the last change.
//! * **Determinism** (every sweep cell): re-running the same seed yields
//!   a byte-identical event trace.
//! * **Golden traces** (churn-free configs): attaching an *inert*
//!   membership plan changes nothing — the trace is byte-identical to a
//!   run with no membership configured at all.
//!
//! Set `E17_QUICK=1` for a reduced sweep (CI).

use ekbd_bench::{banner, conclude, verdict, Table};
use ekbd_graph::{random, topology, ConflictGraph, ProcessId};
use ekbd_harness::{RunReport, Scenario, Workload};
use ekbd_sim::{MembershipPlan, Time};

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

fn base(graph: ConflictGraph, seed: u64) -> Scenario {
    Scenario::new(graph)
        .seed(seed)
        .perfect_oracle()
        .workload(Workload {
            sessions: 8,
            think: (1, 30),
            eat: (1, 8),
        })
        .horizon(Time(120_000))
}

/// The core churn gate: wait-freedom and zero exclusion mistakes for
/// everyone not excused by a departure, total and post-convergence.
fn healthy(report: &RunReport) -> bool {
    let conv = report.detector_convergence();
    report.progress().wait_free()
        && report.exclusion().total() == 0
        && report.exclusion().after(conv) == 0
}

fn main() {
    banner(
        "E17",
        "every-step exclusion, wait-freedom, and joiner admission hold through dynamic membership churn",
    );
    let quick = std::env::var("E17_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let seeds: Vec<u64> = if quick {
        (42..=43).collect()
    } else {
        (42..=47).collect()
    };
    let periods: &[u64] = if quick { &[400, 50] } else { &[400, 100, 50] };
    println!(
        "Seeded churn: about a quarter of each population joins and another\n\
         quarter leaves (mixed graceful/crash-stop), paced at one event per\n\
         ~period ticks. Perfect oracle, 8 sessions per process, {} seeds\n\
         per cell.{}\n",
        seeds.len(),
        if quick { " (E17_QUICK)" } else { "" }
    );

    let topologies: Vec<(&str, ConflictGraph)> = vec![
        ("ring-8", topology::ring(8)),
        ("clique-6", topology::clique(6)),
        ("grid-3x4", topology::grid(3, 4)),
        ("gnp-12-0.3", random::connected_gnp(12, 0.3, 9)),
    ];
    let mut all_ok = true;

    // ---- Part A: churn sweep ---------------------------------------------
    let mut table = Table::new(&[
        "topology",
        "period",
        "joins",
        "leaves",
        "median join→eat (ticks)",
        "mistakes",
        "deterministic",
        "verdict",
    ]);
    for (name, graph) in &topologies {
        for &period in periods {
            let mut ok = true;
            let mut joins = 0usize;
            let mut leaves = 0usize;
            let mut mistakes = 0usize;
            let mut admit: Vec<u64> = Vec::new();
            let mut deterministic = true;
            for &seed in &seeds {
                let scenario = base(graph.clone(), seed).churn(period);
                let report = scenario.run_recoverable();
                ok &= healthy(&report);
                mistakes += report.exclusion().total();
                joins += report.joins.len();
                leaves += report.departures.len();
                for a in report.admissions() {
                    // Every joiner must actually be admitted; the latency
                    // is the E17 headline number.
                    match a.time_to_first_eat() {
                        Some(lat) => admit.push(lat),
                        None => ok = false,
                    }
                }
                if seed == seeds[0] {
                    let again = base(graph.clone(), seed).churn(period).run_recoverable();
                    deterministic &= report.events == again.events;
                }
            }
            ok &= deterministic;
            // Seeded churn is non-inert for every sweep population (n >= 6).
            ok &= joins > 0 && leaves > 0;
            admit.sort_unstable();
            all_ok &= ok;
            table.row([
                name.to_string(),
                period.to_string(),
                joins.to_string(),
                leaves.to_string(),
                admit
                    .get(admit.len() / 2)
                    .map_or("-".into(), |m| m.to_string()),
                mistakes.to_string(),
                deterministic.to_string(),
                verdict(ok),
            ]);
        }
    }
    table.print();

    // ---- Part B: scripted lifecycle --------------------------------------
    println!(
        "\nScripted lifecycle (ring-8): p2 joins at 3000, p4 leaves\n\
         gracefully at 30000, p6 crash-stops at 45000, and p5 is replaced\n\
         by the fresh id p3 at 60000. Joiners must eat only after joining,\n\
         leavers never after leaving, and the continuously-present p0, p1,\n\
         p7 — made hungry again at 70000, after the workload has long\n\
         drained — must still eat in the post-churn system.\n"
    );
    let mut table = Table::new(&[
        "seed",
        "p2 join→eat",
        "p3 join→eat",
        "leavers silent",
        "core eats after",
        "verdict",
    ]);
    for &seed in &seeds {
        let plan = MembershipPlan::new()
            .join(p(2), Time(3_000))
            .leave(p(4), Time(30_000))
            .crash_leave(p(6), Time(45_000))
            .replace(p(5), p(3), Time(60_000));
        let report = base(topology::ring(8), seed)
            .membership(plan)
            .hunger(p(0), Time(70_000))
            .hunger(p(1), Time(70_000))
            .hunger(p(7), Time(70_000))
            .run_recoverable();
        let mut ok = healthy(&report);
        let adm = report.admissions();
        let lat = |q: ProcessId| {
            adm.iter()
                .find(|a| a.process == q)
                .and_then(|a| a.time_to_first_eat())
        };
        ok &= lat(p(2)).is_some() && lat(p(3)).is_some();
        // No one may eat before joining or after leaving.
        let eats = |q: ProcessId| {
            report
                .events
                .iter()
                .filter(|e| e.process == q && e.obs == ekbd_dining::DiningObs::StartedEating)
                .map(|e| e.time)
                .collect::<Vec<_>>()
        };
        ok &= eats(p(2)).iter().all(|&t| t >= Time(3_000));
        ok &= eats(p(3)).iter().all(|&t| t >= Time(60_000));
        let leavers_silent = eats(p(4)).iter().all(|&t| t < Time(30_000))
            && eats(p(6)).iter().all(|&t| t < Time(45_000))
            && eats(p(5)).iter().all(|&t| t < Time(60_000));
        ok &= leavers_silent;
        let core_after = [0, 1, 7]
            .iter()
            .all(|&i| eats(p(i)).iter().any(|&t| t >= Time(70_000)));
        ok &= core_after;
        all_ok &= ok;
        table.row([
            seed.to_string(),
            lat(p(2)).map_or("never".into(), |l| l.to_string()),
            lat(p(3)).map_or("never".into(), |l| l.to_string()),
            leavers_silent.to_string(),
            core_after.to_string(),
            verdict(ok),
        ]);
    }
    table.print();

    // ---- Part C: golden traces on churn-free configs ---------------------
    println!(
        "\nGolden traces: a run with an inert membership plan attached must\n\
         be byte-identical to one with no membership configured — the\n\
         membership layer is pay-for-what-you-use.\n"
    );
    let mut table = Table::new(&["topology", "byte-identical", "verdict"]);
    for (name, graph) in &topologies {
        let plain = base(graph.clone(), seeds[0]).run_recoverable();
        let inert = base(graph.clone(), seeds[0])
            .membership(MembershipPlan::new())
            .run_recoverable();
        let ok = plain.events == inert.events;
        all_ok &= ok;
        table.row([name.to_string(), ok.to_string(), verdict(ok)]);
    }
    table.print();

    println!(
        "\nMembership reuses the machinery recovery already proved out: a\n\
         join is a rejoin under a fresh identity, a graceful leave is a\n\
         drained teardown, and a crash-stop leave is one more thing the\n\
         audit reclaims — so churn never costs a continuously-present\n\
         process its safety or its next meal."
    );
    conclude("E17", all_ok);
}
