//! Eventually perfect failure detectors (◇P and its local refinement ◇P₁).
//!
//! The paper's algorithm is driven by a *locally scope-restricted* eventually
//! perfect failure detector ◇P₁ (Song & Pike, DSN 2007, §2), which must
//! satisfy, with respect to a process's neighbors in the conflict graph:
//!
//! * **Local strong completeness** — every crashed process is eventually and
//!   permanently suspected by all correct neighbors;
//! * **Local eventual strong accuracy** — for every run, there is a time
//!   after which no correct process is suspected by any correct neighbor.
//!
//! ◇P₁ may therefore commit finitely many false positives before an unknown
//! convergence time. This crate provides:
//!
//! * [`DetectorModule`] — the pure state-machine interface a detector
//!   implementation exposes to its host process (runtime-agnostic, like the
//!   dining layer itself);
//! * [`HeartbeatDetector`] — the classic Chandra–Toueg construction:
//!   periodic rounds plus adaptive timeouts. A round pushes heartbeats
//!   ([`HeartbeatDetector::new`]) or pulls probe/echo round trips
//!   ([`HeartbeatDetector::probing`], Chen–Toueg style, at twice the
//!   per-round message cost). Under the simulator's GST delay model it
//!   genuinely satisfies ◇P₁;
//! * [`ScriptedOracle`] — a deterministic oracle whose suspicion history is
//!   given up front. Tests use it to drive *worst-case* pre-convergence
//!   behaviour (mutual false suspicions, late convergence) that an honest
//!   heartbeat detector would only produce by chance;
//! * [`ScriptedOracle::perfect`] — an oracle that suspects exactly the
//!   crashed processes, exactly from their crash times (the stronger
//!   detector `P`, used as a reference point in experiment E8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heartbeat;
mod module;
mod scripted;

pub use heartbeat::{HeartbeatConfig, HeartbeatDetector};
pub use module::{
    epoch_timer_tag, DetectorEvent, DetectorModule, DetectorMsg, DetectorOutput, SuspicionView,
};
pub use scripted::{ScriptedOracle, SuspicionChange};
