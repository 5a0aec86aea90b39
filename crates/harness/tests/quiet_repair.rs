//! Damage to a process whose audit timer has backed off is repaired within
//! [`quiet_repair_bound`].
//!
//! A ring runs its workload to the end and then idles for ten capped audit
//! periods, so every process audits only every `period · 2^K` ticks. Then
//! one process has one edge's bits flipped — a duplicate fork, a missing
//! fork or a missing token — and the run goes on until every edge again
//! holds exactly one fork and one token. Every edge is struck, at sixteen
//! phases of the capped period: the slow cases are those where the
//! repairing endpoint's partner audits first, and only the snap-back of
//! its timer keeps them inside the bound.

use ekbd_detector::ScriptedOracle;
use ekbd_dining::{DiningAlgorithm, DiningObs, RecoverableDining, RecoveryMsg, DEFAULT_STRIKES};
use ekbd_graph::{coloring, topology, ConflictGraph, ProcessId};
use ekbd_harness::{
    quiet_repair_bound, AnyDetector, DinerHost, Envelope, HostCmd, HostObs, Workload,
    AUDIT_BACKOFF_CAP, AUDIT_PERIOD,
};
use ekbd_sim::{Context, DelayModel, Node, NodeEvent, SimConfig, Simulator, Time};
use std::collections::BTreeSet;

/// Per-edge flag bits of Algorithm 1's state word.
const FORK: u8 = 0x10;
const TOKEN: u8 = 0x20;
/// The default delay model's largest delay.
const MAX_DELAY: u64 = 8;

/// A host whose external input is a corruption with a chosen entropy
/// word, so a test can pick the bits the fault flips.
struct Damageable(DinerHost<RecoverableDining>);

impl Node for Damageable {
    type Msg = Envelope<RecoveryMsg>;
    type Ext = u64;
    type Obs = HostObs;

    fn handle(&mut self, ev: NodeEvent<Self::Msg, u64>, ctx: &mut Context<'_, Self::Msg, HostObs>) {
        let ev: NodeEvent<Self::Msg, HostCmd> = match ev {
            NodeEvent::External(entropy) => NodeEvent::Corrupt { entropy },
            NodeEvent::Start => NodeEvent::Start,
            NodeEvent::Message { from, msg } => NodeEvent::Message { from, msg },
            NodeEvent::Timer { tag } => NodeEvent::Timer { tag },
            other => unreachable!("no restarts or membership here: {other:?}"),
        };
        self.0.handle(ev, ctx);
    }
}

fn alg(sim: &Simulator<Damageable>, p: ProcessId) -> &RecoverableDining {
    sim.node(p).0.algorithm()
}

/// Every edge holds exactly one fork and one token.
fn edges_whole(sim: &Simulator<Damageable>, g: &ConflictGraph) -> bool {
    g.edges().all(|e| {
        let (a, b) = (alg(sim, e.lo), alg(sim, e.hi));
        a.holds_fork(e.hi) != b.holds_fork(e.lo) && a.holds_token(e.hi) != b.holds_token(e.lo)
    })
}

/// Ring-6 through three meals each, then ten capped audit periods of
/// nothing. The silent oracle suspects no one, so every edge is audited.
fn quiet_ring() -> (Simulator<Damageable>, ConflictGraph) {
    let g = topology::ring(6);
    let colors = coloring::greedy(&g);
    let workload = Workload {
        sessions: 3,
        think: (1, 25),
        eat: (1, 10),
    };
    let cfg = SimConfig::default()
        .n(g.len())
        .seed(17)
        .delay(DelayModel::Uniform {
            min: 1,
            max: MAX_DELAY,
        });
    let mut sim = Simulator::new(cfg, |p, _| {
        let alg = RecoverableDining::from_graph(&g, &colors, p);
        let det = AnyDetector::Scripted(ScriptedOracle::silent());
        Damageable(DinerHost::new(alg, det, workload).with_audit_period(AUDIT_PERIOD))
    });
    sim.run_until(Time(5_000));
    let meals = sim
        .observations()
        .iter()
        .filter(|o| matches!(o.obs, HostObs::Sched(DiningObs::StoppedEating)))
        .count();
    assert_eq!(meals, 18, "every meal is eaten by t5000");
    sim.run_until(Time(5_000 + 10 * (AUDIT_PERIOD << AUDIT_BACKOFF_CAP)));
    assert!(edges_whole(&sim, &g), "the quiet ring is whole");
    (sim, g)
}

/// For every process `p` and edge `p–q` that `holds` picks (by whether
/// `p` holds the edge's fork and token), an entropy word whose corruption
/// of `p` flips exactly `mask` on that edge and sends nothing.
fn damages(
    sim: &Simulator<Damageable>,
    g: &ConflictGraph,
    mask: u8,
    holds: fn(bool, bool) -> bool,
) -> Vec<(ProcessId, ProcessId, u64)> {
    let mut found = Vec::new();
    for p in g.processes() {
        let before = alg(sim, p);
        for &q in g.neighbors(p) {
            if !holds(before.holds_fork(q), before.holds_token(q)) {
                continue;
            }
            let exactly = |entropy: &u64| {
                let mut trial = before.clone();
                let mut sends = Vec::new();
                trial.inject_corruption(*entropy, &BTreeSet::new(), &mut sends);
                let flips =
                    |r: ProcessId| before.inner().edge_flags(r) ^ trial.inner().edge_flags(r);
                sends.is_empty()
                    && g.neighbors(p)
                        .iter()
                        .all(|&r| flips(r) == if r == q { mask } else { 0 })
            };
            let entropy = (0..20_000u64).find(exactly).unwrap_or_else(|| {
                panic!("no corruption of {p} flips exactly {mask:#x} on {p}–{q}")
            });
            found.push((p, q, entropy));
        }
    }
    found
}

#[test]
fn quiet_damage_is_repaired_within_the_bound() {
    let bound = quiet_repair_bound(AUDIT_PERIOD, DEFAULT_STRIKES, MAX_DELAY);
    type Holds = fn(bool, bool) -> bool;
    let cases: [(&str, u8, Holds); 4] = [
        // Forged at the token holder, whose token is lost with it: only
        // the exchange of snapshots can see both.
        ("duplicate fork", FORK | TOKEN, |fork, token| !fork && token),
        // Forged beside the token: the holder's own audit discharges it.
        ("duplicate fork beside a token", FORK, |fork, token| {
            !fork && token
        }),
        ("missing fork", FORK, |fork, _| fork),
        ("missing token", TOKEN, |_, token| token),
    ];
    let cap = AUDIT_PERIOD << AUDIT_BACKOFF_CAP;
    for (label, mask, holds) in cases {
        let (sim, g) = quiet_ring();
        let targets = damages(&sim, &g, mask, holds);
        assert_eq!(targets.len(), g.edge_count(), "{label}: one target an edge");
        let mut worst = 0;
        // Every edge, struck at every phase of the capped audit period.
        for (p, q, entropy) in targets {
            for offset in (0..cap).step_by(AUDIT_PERIOD as usize / 2) {
                let (mut sim, g) = quiet_ring();
                sim.run_until(Time(sim.now().0 + offset));
                let repairs = |sim: &Simulator<Damageable>| {
                    g.processes()
                        .map(|p| {
                            let s = alg(sim, p).stats();
                            s.repairs + s.local_repairs
                        })
                        .sum::<u64>()
                };
                let repairs_before = repairs(&sim);
                let at = Time(sim.now().0 + 1);
                sim.schedule_external(p, at, entropy);
                let mut damaged = false;
                let repaired = loop {
                    let Some(now) = sim.step() else {
                        panic!("{label}: the run ended unrepaired")
                    };
                    let whole = edges_whole(&sim, &g);
                    if !damaged {
                        damaged = !whole;
                        assert!(now <= at, "{label}: the corruption at {at} broke nothing");
                    } else if whole {
                        break now;
                    }
                    assert!(
                        now.0 <= at.0 + bound,
                        "{label} on {p}–{q} at {at}: not repaired within {bound} ticks"
                    );
                };
                assert!(
                    repairs(&sim) > repairs_before,
                    "{label}: the audit repaired it"
                );
                worst = worst.max(repaired.0 - at.0);
            }
        }
        // Some strike waited on a backed-off audit: a timer at the base
        // period repairs every one of these within this many ticks.
        let flat = AUDIT_PERIOD * (1 + u64::from(DEFAULT_STRIKES)) + 3 * MAX_DELAY;
        assert!(
            flat < worst && worst <= bound,
            "{label}: worst repair {worst} ticks, expected in ({flat}, {bound}]"
        );
    }
}
