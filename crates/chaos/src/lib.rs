//! Unified chaos engine for the ekbd workspace: composed fault
//! schedules, seeded exploration, and automatic failing-schedule
//! shrinking.
//!
//! The paper's ◇k-bounded-waiting guarantee quantifies over *arbitrarily
//! hostile* daemons, but each single-axis gate (channel faults, crashes,
//! storage damage, churn) only probes one slice of that adversary space.
//! This crate supplies the substrate for composite adversaries:
//!
//! * [`FaultSchedule`] — one serializable schedule composing every fault
//!   axis, compiled down to the per-axis plans the simulator consumes
//!   ([`FaultSchedule::parts`]) and validated for cross-axis
//!   contradictions ([`FaultSchedule::validate`]);
//! * [`codec`] — a line-oriented text format so failing schedules become
//!   committed regression artifacts replayable via `ekbd chaos --replay`;
//! * [`FaultSchedule::generate`] — a seeded generator with tunable
//!   [`Intensity`] distributions; every schedule is a pure function of
//!   `(topology, seed, intensity)`;
//! * [`shrink`](shrink()) — ddmin over schedule events: re-run each
//!   candidate deterministically and keep the smaller schedule whenever
//!   it reproduces the same [`RunClass`], down to local minimality;
//! * [`Coverage`] — which axis combinations a campaign exercised per
//!   topology, and which pairs were never composed.
//!
//! The harness side (building a `Scenario` from a schedule, running it,
//! classifying the outcome) lives in `ekbd-harness`, which depends on
//! this crate; this crate stays a leaf over `ekbd-graph` / `ekbd-sim` /
//! `ekbd-journal` so every layer above can share the schedule type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod coverage;
mod gen;
mod schedule;
pub mod shrink;

pub use coverage::{combo_name, Coverage};
pub use gen::{Intensity, GEN_HORIZON, GEN_WINDOW};
pub use schedule::{
    Axis, ChannelNoise, ChaosEvent, FaultSchedule, RunClass, ScheduleError, ScheduleParts,
};
pub use shrink::{is_subsequence, shrink, ShrinkStats};
