//! Textual specifications for oracles, algorithms, protocols and the
//! link layer, as used by the CLI flags. Topology specs are
//! `ekbd_graph::topology::from_spec`'s, and the fault flags are read by the
//! chaos codec's directive parser.

use crate::args::ArgError;
use ekbd_detector::HeartbeatConfig;
use ekbd_link::LinkConfig;
use ekbd_sim::Time;

fn bad(flag: &'static str, value: &str, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
    }
}

/// An oracle specification: `silent`, `perfect`,
/// `adversarial:<converge>:<burst>`,
/// `heartbeat:<period>:<timeout>:<increment>`, or
/// `probe:<period>:<timeout>:<increment>`.
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
    /// Real heartbeat implementation, pushing heartbeats.
    Heartbeat(HeartbeatConfig),
    /// The same implementation with probe/echo rounds.
    Probe(HeartbeatConfig),
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
            [round @ ("heartbeat" | "probe"), p, t, i] => {
                let cfg = HeartbeatConfig {
                    period: p.parse().map_err(|_| err())?,
                    initial_timeout: t.parse().map_err(|_| err())?,
                    timeout_increment: i.parse().map_err(|_| err())?,
                };
                if *round == "probe" {
                    OracleArg::Probe(cfg)
                } else {
                    OracleArg::Heartbeat(cfg)
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn link_specs() {
        assert_eq!(parse_link("on"), Ok(LinkConfig::default()));
        assert_eq!(
            parse_link("32:4"),
            Ok(LinkConfig::default().retransmit_base(32).max_backoff_exp(4))
        );
        assert!(parse_link("soon").is_err());
    }
}
