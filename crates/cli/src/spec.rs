//! Textual specifications for topologies, oracles, algorithms, and
//! protocols, as used by the CLI flags.

use crate::args::ArgError;
use ekbd_detector::{HeartbeatConfig, ProbeConfig};
use ekbd_graph::{random, topology, ConflictGraph, ProcessId};
use ekbd_journal::StorageFault;
use ekbd_link::LinkConfig;
use ekbd_sim::{MembershipPlan, Time};

fn bad(flag: &'static str, value: &str, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
    }
}

/// A topology specification, e.g. `ring:8`, `grid:3x4`, `gnp:12:0.3:7`.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// `ring:n`
    Ring(usize),
    /// `path:n`
    Path(usize),
    /// `star:n`
    Star(usize),
    /// `clique:n`
    Clique(usize),
    /// `grid:RxC`
    Grid(usize, usize),
    /// `torus:RxC`
    Torus(usize, usize),
    /// `tree:n`
    Tree(usize),
    /// `wheel:n`
    Wheel(usize),
    /// `hypercube:d`
    Hypercube(u32),
    /// `gnp:n:p:seed` (connected variant)
    Gnp(usize, f64, u64),
    /// `powerlaw:n:m:seed` (Barabási–Albert preferential attachment)
    Powerlaw(usize, usize, u64),
}

/// Node count above which `gnp:` builds through the O(n + edges)
/// geometric-skip sampler instead of the O(n²) coin-flip walk. The two
/// samplers draw different RNG streams, so the threshold keeps every
/// paper-scale graph — and with it every golden trace — byte-identical
/// while making 10⁵-node specs tractable.
const SPARSE_GNP_THRESHOLD: usize = 2_048;

impl TopologySpec {
    /// Parses a topology spec string.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        const EXPECT: &str =
            "ring:n | path:n | star:n | clique:n | grid:RxC | torus:RxC | tree:n | wheel:n | hypercube:d | gnp:n:p:seed | powerlaw:n:m:seed";
        let err = || bad("--topology", s, EXPECT);
        let mut parts = s.split(':');
        let kind = parts.next().ok_or_else(err)?;
        let rest: Vec<&str> = parts.collect();
        let one = |rest: &[&str]| -> Result<usize, ArgError> {
            rest.first().ok_or_else(err)?.parse().map_err(|_| err())
        };
        let dims = |rest: &[&str]| -> Result<(usize, usize), ArgError> {
            let (a, b) = rest
                .first()
                .ok_or_else(err)?
                .split_once('x')
                .ok_or_else(err)?;
            Ok((a.parse().map_err(|_| err())?, b.parse().map_err(|_| err())?))
        };
        Ok(match kind {
            "ring" => TopologySpec::Ring(one(&rest)?),
            "path" => TopologySpec::Path(one(&rest)?),
            "star" => TopologySpec::Star(one(&rest)?),
            "clique" => TopologySpec::Clique(one(&rest)?),
            "tree" => TopologySpec::Tree(one(&rest)?),
            "wheel" => TopologySpec::Wheel(one(&rest)?),
            "hypercube" => TopologySpec::Hypercube(one(&rest)? as u32),
            "grid" => {
                let (r, c) = dims(&rest)?;
                TopologySpec::Grid(r, c)
            }
            "torus" => {
                let (r, c) = dims(&rest)?;
                TopologySpec::Torus(r, c)
            }
            "gnp" => {
                if rest.len() != 3 {
                    return Err(err());
                }
                TopologySpec::Gnp(
                    rest[0].parse().map_err(|_| err())?,
                    rest[1].parse().map_err(|_| err())?,
                    rest[2].parse().map_err(|_| err())?,
                )
            }
            "powerlaw" => {
                if rest.len() != 3 {
                    return Err(err());
                }
                let m: usize = rest[1].parse().map_err(|_| err())?;
                if m == 0 {
                    return Err(err());
                }
                TopologySpec::Powerlaw(
                    rest[0].parse().map_err(|_| err())?,
                    m,
                    rest[2].parse().map_err(|_| err())?,
                )
            }
            _ => return Err(err()),
        })
    }

    /// Builds the conflict graph.
    pub fn build(&self) -> ConflictGraph {
        match *self {
            TopologySpec::Ring(n) => topology::ring(n),
            TopologySpec::Path(n) => topology::path(n),
            TopologySpec::Star(n) => topology::star(n),
            TopologySpec::Clique(n) => topology::clique(n),
            TopologySpec::Grid(r, c) => topology::grid(r, c),
            TopologySpec::Torus(r, c) => topology::torus(r, c),
            TopologySpec::Tree(n) => topology::binary_tree(n),
            TopologySpec::Wheel(n) => topology::wheel(n),
            TopologySpec::Hypercube(d) => topology::hypercube(d),
            TopologySpec::Gnp(n, p, seed) if n <= SPARSE_GNP_THRESHOLD => {
                random::connected_gnp(n, p, seed)
            }
            TopologySpec::Gnp(n, p, seed) => random::sparse_gnp(n, p, seed),
            TopologySpec::Powerlaw(n, m, seed) => random::powerlaw(n, m, seed),
        }
    }
}

/// An oracle specification: `silent`, `perfect`,
/// `adversarial:<converge>:<burst>`, or
/// `heartbeat:<period>:<timeout>:<increment>`.
#[derive(Clone, Debug, PartialEq)]
pub enum OracleArg {
    /// Never suspects.
    Silent,
    /// Exact crash knowledge.
    Perfect,
    /// Scripted worst case.
    Adversarial {
        /// Convergence time.
        converge: Time,
        /// Burst length.
        burst: u64,
    },
    /// Real heartbeat implementation.
    Heartbeat(HeartbeatConfig),
    /// Real pull-based probe/echo implementation.
    Probe(ProbeConfig),
}

impl OracleArg {
    /// Parses an oracle spec string.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        const EXPECT: &str = "silent | perfect | adversarial:converge:burst | \
             heartbeat:period:timeout:increment | probe:period:timeout:increment";
        let err = || bad("--oracle", s, EXPECT);
        let parts: Vec<&str> = s.split(':').collect();
        Ok(match parts.as_slice() {
            ["silent"] => OracleArg::Silent,
            ["perfect"] => OracleArg::Perfect,
            ["adversarial", c, b] => OracleArg::Adversarial {
                converge: Time(c.parse().map_err(|_| err())?),
                burst: b.parse().map_err(|_| err())?,
            },
            ["heartbeat", p, t, i] => OracleArg::Heartbeat(HeartbeatConfig {
                period: p.parse().map_err(|_| err())?,
                initial_timeout: t.parse().map_err(|_| err())?,
                timeout_increment: i.parse().map_err(|_| err())?,
            }),
            ["probe", p, t, i] => OracleArg::Probe(ProbeConfig {
                period: p.parse().map_err(|_| err())?,
                initial_timeout: t.parse().map_err(|_| err())?,
                timeout_increment: i.parse().map_err(|_| err())?,
            }),
            _ => return Err(err()),
        })
    }
}

/// A dining-algorithm specification: `alg1`, `choy-singh`, `naive`, or
/// `budgeted:<m>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// The paper's Algorithm 1.
    Algorithm1,
    /// The crash-oblivious Choy–Singh baseline.
    ChoySingh,
    /// Naive priority dining (no doorway).
    Naive,
    /// Algorithm 1 with a generalized ack budget.
    Budgeted(u32),
}

impl AlgorithmSpec {
    /// Parses an algorithm spec string.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        const EXPECT: &str = "alg1 | choy-singh | naive | budgeted:m";
        let err = || bad("--algorithm", s, EXPECT);
        Ok(match s {
            "alg1" => AlgorithmSpec::Algorithm1,
            "choy-singh" => AlgorithmSpec::ChoySingh,
            "naive" => AlgorithmSpec::Naive,
            other => match other.split_once(':') {
                Some(("budgeted", m)) => AlgorithmSpec::Budgeted(m.parse().map_err(|_| err())?),
                _ => return Err(err()),
            },
        })
    }
}

/// A stabilizing-protocol specification: `coloring`, `coloring-adv`,
/// `mis`, `token-ring:<k>`, `bfs-tree`, `leader`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// (δ+1)-coloring with random faults.
    Coloring,
    /// (δ+1)-coloring with adversarial (conflict-creating) faults.
    ColoringAdversarial,
    /// Maximal independent set.
    Mis,
    /// Dijkstra's K-state ring.
    TokenRing(u32),
    /// BFS distances from p0.
    BfsTree,
    /// Max-id leader election.
    Leader,
}

impl ProtocolSpec {
    /// Parses a protocol spec string.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        const EXPECT: &str = "coloring | coloring-adv | mis | token-ring:k | bfs-tree | leader";
        let err = || bad("--protocol", s, EXPECT);
        Ok(match s {
            "coloring" => ProtocolSpec::Coloring,
            "coloring-adv" => ProtocolSpec::ColoringAdversarial,
            "mis" => ProtocolSpec::Mis,
            "bfs-tree" => ProtocolSpec::BfsTree,
            "leader" => ProtocolSpec::Leader,
            other => match other.split_once(':') {
                Some(("token-ring", k)) => ProtocolSpec::TokenRing(k.parse().map_err(|_| err())?),
                _ => return Err(err()),
            },
        })
    }
}

/// Parses a `--reorder p:window` spec, e.g. `0.15:12`.
pub fn parse_reorder(s: &str) -> Result<(f64, u64), ArgError> {
    let err = || bad("--reorder", s, "probability:window (e.g. 0.15:12)");
    let (p, w) = s.split_once(':').ok_or_else(err)?;
    Ok((p.parse().map_err(|_| err())?, w.parse().map_err(|_| err())?))
}

/// Parses a `--partition procs:start-heal` spec, e.g. `0,1:500-3000`:
/// processes 0 and 1 are cut off from the rest between ticks 500 and 3000.
pub fn parse_partition(s: &str) -> Result<(Vec<ProcessId>, Time, Time), ArgError> {
    let err = || bad("--partition", s, "procs:start-heal (e.g. 0,1:500-3000)");
    let (procs, window) = s.split_once(':').ok_or_else(err)?;
    let side: Vec<ProcessId> = procs
        .split(',')
        .map(|p| p.parse::<usize>().map(ProcessId::from).map_err(|_| err()))
        .collect::<Result<_, _>>()?;
    let (start, heal) = window.split_once('-').ok_or_else(err)?;
    let start = Time(start.parse().map_err(|_| err())?);
    let heal = Time(heal.parse().map_err(|_| err())?);
    if side.is_empty() || start >= heal {
        return Err(err());
    }
    Ok((side, start, heal))
}

/// Parses a `--link on|base:cap` spec: `on` for the default retransmission
/// tuning, or an explicit `retransmit_base:max_backoff_exp` pair.
pub fn parse_link(s: &str) -> Result<LinkConfig, ArgError> {
    let err = || bad("--link", s, "on | retransmit_base:max_backoff_exp");
    if s == "on" {
        return Ok(LinkConfig::default());
    }
    let (base, cap) = s.split_once(':').ok_or_else(err)?;
    Ok(LinkConfig::default()
        .retransmit_base(base.parse().map_err(|_| err())?)
        .max_backoff_exp(cap.parse().map_err(|_| err())?))
}

/// Parses a `process:time` crash spec.
pub fn parse_crash(s: &str) -> Result<(ProcessId, Time), ArgError> {
    let err = || bad("--crash", s, "process:time");
    let (p, t) = s.split_once(':').ok_or_else(err)?;
    Ok((
        ProcessId::from(p.parse::<usize>().map_err(|_| err())?),
        Time(t.parse().map_err(|_| err())?),
    ))
}

/// Parses a `--recover process:time[:corrupt]` spec: restart a crashed
/// process at `time` with blank state, or (with the `corrupt` suffix) with
/// adversarially scrambled state.
pub fn parse_recover(s: &str) -> Result<(ProcessId, Time, bool), ArgError> {
    let err = || bad("--recover", s, "process:time[:corrupt]");
    let mut parts = s.split(':');
    let p = parts.next().ok_or_else(err)?;
    let t = parts.next().ok_or_else(err)?;
    let corrupt = match parts.next() {
        None => false,
        Some("corrupt") => true,
        Some(_) => return Err(err()),
    };
    if parts.next().is_some() {
        return Err(err());
    }
    Ok((
        ProcessId::from(p.parse::<usize>().map_err(|_| err())?),
        Time(t.parse().map_err(|_| err())?),
        corrupt,
    ))
}

/// Parses a `--corrupt-state process:time` spec: flip fork/token/request
/// bits of a live process mid-run.
pub fn parse_corrupt_state(s: &str) -> Result<(ProcessId, Time), ArgError> {
    let err = || bad("--corrupt-state", s, "process:time");
    let (p, t) = s.split_once(':').ok_or_else(err)?;
    Ok((
        ProcessId::from(p.parse::<usize>().map_err(|_| err())?),
        Time(t.parse().map_err(|_| err())?),
    ))
}

/// Parses a `--churn-plan` membership schedule: comma-separated events,
/// each `join:p:t` (the initially-absent `p` joins at `t`), `leave:p:t`
/// (graceful departure), `crash-leave:p:t` (crash-stop departure), or
/// `replace:old:new:t` (`old` crash-stops and the fresh id `new` joins in
/// its place). Population fit is validated against the scenario later.
pub fn parse_churn_plan(s: &str) -> Result<MembershipPlan, ArgError> {
    let err = || {
        bad(
            "--churn-plan",
            s,
            "comma-separated membership events: join:p:t | leave:p:t | \
             crash-leave:p:t | replace:old:new:t",
        )
    };
    let pid = |f: &str| f.parse::<usize>().map(ProcessId::from).map_err(|_| err());
    let time = |f: &str| f.parse::<u64>().map(Time).map_err(|_| err());
    let mut plan = MembershipPlan::new();
    for ev in s.split(',') {
        let fields: Vec<&str> = ev.split(':').collect();
        plan = match fields.as_slice() {
            ["join", p, t] => plan.join(pid(p)?, time(t)?),
            ["leave", p, t] => plan.leave(pid(p)?, time(t)?),
            ["crash-leave", p, t] => plan.crash_leave(pid(p)?, time(t)?),
            ["replace", old, new, t] => plan.replace(pid(old)?, pid(new)?, time(t)?),
            _ => return Err(err()),
        };
    }
    if plan.is_inert() {
        return Err(err());
    }
    Ok(plan)
}

/// Parses a `--storage-fault process:mode` spec: corrupt the named
/// process's stable-storage journal at load time.
pub fn parse_storage_fault(s: &str) -> Result<(ProcessId, StorageFault), ArgError> {
    let err = || bad("--storage-fault", s, "process:torn|rot|stale|dropped");
    let (p, mode) = s.split_once(':').ok_or_else(err)?;
    let mode = match mode {
        "torn" => StorageFault::TornWrite,
        "rot" => StorageFault::BitRot,
        "stale" => StorageFault::StaleSnapshot,
        "dropped" => StorageFault::DroppedSync,
        _ => return Err(err()),
    };
    Ok((
        ProcessId::from(p.parse::<usize>().map_err(|_| err())?),
        mode,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_round_trip() {
        assert_eq!(TopologySpec::parse("ring:8"), Ok(TopologySpec::Ring(8)));
        assert_eq!(
            TopologySpec::parse("grid:3x4"),
            Ok(TopologySpec::Grid(3, 4))
        );
        assert_eq!(
            TopologySpec::parse("gnp:12:0.3:7"),
            Ok(TopologySpec::Gnp(12, 0.3, 7))
        );
        assert_eq!(
            TopologySpec::parse("hypercube:3"),
            Ok(TopologySpec::Hypercube(3))
        );
        assert!(TopologySpec::parse("blob:3").is_err());
        assert!(TopologySpec::parse("grid:3").is_err());
        assert_eq!(TopologySpec::parse("torus:3x4").unwrap().build().len(), 12);
        assert_eq!(TopologySpec::parse("wheel:6").unwrap().build().len(), 6);
        assert_eq!(
            TopologySpec::parse("tree:7").unwrap().build().edge_count(),
            6
        );
        assert_eq!(
            TopologySpec::parse("path:5").unwrap().build().edge_count(),
            4
        );
        assert_eq!(
            TopologySpec::parse("star:5").unwrap().build().max_degree(),
            4
        );
        assert_eq!(
            TopologySpec::parse("clique:4")
                .unwrap()
                .build()
                .edge_count(),
            6
        );
        assert!(TopologySpec::parse("gnp:12:0.3:7")
            .unwrap()
            .build()
            .is_connected());
        assert_eq!(
            TopologySpec::parse("powerlaw:100:2:5"),
            Ok(TopologySpec::Powerlaw(100, 2, 5))
        );
        let pl = TopologySpec::parse("powerlaw:100:2:5").unwrap().build();
        assert_eq!(pl.len(), 100);
        assert!(pl.is_connected());
        assert!(TopologySpec::parse("powerlaw:100:0:5").is_err());
        assert!(TopologySpec::parse("powerlaw:100:2").is_err());
    }

    #[test]
    fn gnp_spec_keeps_the_legacy_sampler_at_paper_scale() {
        // The golden traces pin the small-graph RNG stream: below the
        // sparse threshold the spec must keep building via connected_gnp.
        let spec = TopologySpec::parse("gnp:60:0.08:3").unwrap();
        let direct = random::connected_gnp(60, 0.08, 3);
        assert!(spec.build().edges().eq(direct.edges()));
    }

    #[test]
    fn oracle_specs() {
        assert_eq!(OracleArg::parse("silent"), Ok(OracleArg::Silent));
        assert_eq!(OracleArg::parse("perfect"), Ok(OracleArg::Perfect));
        assert_eq!(
            OracleArg::parse("adversarial:2000:40"),
            Ok(OracleArg::Adversarial {
                converge: Time(2000),
                burst: 40
            })
        );
        assert!(matches!(
            OracleArg::parse("heartbeat:10:50:25"),
            Ok(OracleArg::Heartbeat(_))
        ));
        assert!(matches!(
            OracleArg::parse("probe:10:50:25"),
            Ok(OracleArg::Probe(_))
        ));
        assert!(OracleArg::parse("psychic").is_err());
        assert!(OracleArg::parse("adversarial:2000").is_err());
    }

    #[test]
    fn algorithm_specs() {
        assert_eq!(AlgorithmSpec::parse("alg1"), Ok(AlgorithmSpec::Algorithm1));
        assert_eq!(
            AlgorithmSpec::parse("choy-singh"),
            Ok(AlgorithmSpec::ChoySingh)
        );
        assert_eq!(AlgorithmSpec::parse("naive"), Ok(AlgorithmSpec::Naive));
        assert_eq!(
            AlgorithmSpec::parse("budgeted:3"),
            Ok(AlgorithmSpec::Budgeted(3))
        );
        assert!(AlgorithmSpec::parse("budgeted:x").is_err());
        assert!(AlgorithmSpec::parse("dijkstra").is_err());
    }

    #[test]
    fn protocol_specs() {
        assert_eq!(ProtocolSpec::parse("coloring"), Ok(ProtocolSpec::Coloring));
        assert_eq!(
            ProtocolSpec::parse("coloring-adv"),
            Ok(ProtocolSpec::ColoringAdversarial)
        );
        assert_eq!(
            ProtocolSpec::parse("token-ring:7"),
            Ok(ProtocolSpec::TokenRing(7))
        );
        assert_eq!(ProtocolSpec::parse("bfs-tree"), Ok(ProtocolSpec::BfsTree));
        assert_eq!(ProtocolSpec::parse("leader"), Ok(ProtocolSpec::Leader));
        assert!(ProtocolSpec::parse("sorting").is_err());
    }

    #[test]
    fn crash_spec() {
        assert_eq!(parse_crash("2:1500"), Ok((ProcessId(2), Time(1500))));
        assert!(parse_crash("2").is_err());
        assert!(parse_crash("x:1").is_err());
    }

    #[test]
    fn recovery_specs() {
        assert_eq!(
            parse_recover("2:1500"),
            Ok((ProcessId(2), Time(1500), false))
        );
        assert_eq!(
            parse_recover("2:1500:corrupt"),
            Ok((ProcessId(2), Time(1500), true))
        );
        assert!(parse_recover("2:1500:blank").is_err());
        assert!(parse_recover("2:1500:corrupt:x").is_err());
        assert!(parse_recover("2").is_err());
        assert_eq!(parse_corrupt_state("3:900"), Ok((ProcessId(3), Time(900))));
        assert!(parse_corrupt_state("3").is_err());
    }

    #[test]
    fn fault_specs() {
        assert_eq!(parse_reorder("0.15:12"), Ok((0.15, 12)));
        assert!(parse_reorder("0.15").is_err());
        assert_eq!(
            parse_partition("0,1:500-3000"),
            Ok((vec![ProcessId(0), ProcessId(1)], Time(500), Time(3000)))
        );
        assert!(
            parse_partition("0,1:3000-500").is_err(),
            "must heal after start"
        );
        assert!(parse_partition(":500-3000").is_err());
        assert!(parse_partition("0:500").is_err());
    }

    #[test]
    fn link_specs() {
        assert_eq!(parse_link("on"), Ok(LinkConfig::default()));
        assert_eq!(
            parse_link("32:4"),
            Ok(LinkConfig::default().retransmit_base(32).max_backoff_exp(4))
        );
        assert!(parse_link("soon").is_err());
    }
    #[test]
    fn churn_plan_specs() {
        let plan = parse_churn_plan("join:2:500,leave:1:700,crash-leave:3:900").unwrap();
        assert_eq!(plan.events().len(), 3);
        assert_eq!(plan.join_time(ProcessId(2)), Some(Time(500)));
        assert_eq!(plan.departure_time(ProcessId(1)), Some(Time(700)));
        let plan = parse_churn_plan("replace:0:4:1200").unwrap();
        assert_eq!(plan.departure_time(ProcessId(0)), Some(Time(1200)));
        assert_eq!(plan.join_time(ProcessId(4)), Some(Time(1200)));
        assert!(parse_churn_plan("").is_err(), "an inert plan is an error");
        assert!(parse_churn_plan("join:2").is_err());
        assert!(parse_churn_plan("evict:2:500").is_err());
        assert!(parse_churn_plan("join:two:500").is_err());
    }
}
