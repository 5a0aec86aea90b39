use ekbd_detector::{
    DetectorEvent, DetectorModule, DetectorOutput, HeartbeatDetector, ScriptedOracle, SuspicionView,
};
use ekbd_graph::ProcessId;
use std::collections::BTreeSet;

/// A closed sum of the workspace's detector implementations, so hosts and
/// simulators stay non-generic in the detector dimension.
#[derive(Clone, Debug)]
pub enum AnyDetector {
    /// A deterministic scripted oracle (silent, perfect, or adversarial).
    Scripted(ScriptedOracle),
    /// The heartbeat + adaptive timeout implementation, pushing or probing.
    Heartbeat(HeartbeatDetector),
}

impl SuspicionView for AnyDetector {
    fn suspects(&self, q: ProcessId) -> bool {
        match self {
            AnyDetector::Scripted(d) => d.suspects(q),
            AnyDetector::Heartbeat(d) => d.suspects(q),
        }
    }
}

impl DetectorModule for AnyDetector {
    fn handle(&mut self, ev: DetectorEvent, out: &mut DetectorOutput) {
        match self {
            AnyDetector::Scripted(d) => d.handle(ev, out),
            AnyDetector::Heartbeat(d) => d.handle(ev, out),
        }
    }

    fn suspect_set(&self) -> BTreeSet<ProcessId> {
        match self {
            AnyDetector::Scripted(d) => d.suspect_set(),
            AnyDetector::Heartbeat(d) => d.suspect_set(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_sim::Time;

    #[test]
    fn delegation_round_trip() {
        let mut d = AnyDetector::Scripted(ScriptedOracle::perfect([(ProcessId(1), Time(5))]));
        let mut out = DetectorOutput::new();
        d.handle(DetectorEvent::Start { now: Time::ZERO }, &mut out);
        assert!(!d.suspects(ProcessId(1)));
        let mut out = DetectorOutput::new();
        d.handle(
            DetectorEvent::Timer {
                now: Time(5),
                tag: 0,
            },
            &mut out,
        );
        assert!(out.changed);
        assert!(d.suspects(ProcessId(1)));
        assert_eq!(d.suspect_set().len(), 1);
    }
}
