//! Scenario runner: wires a dining algorithm, a failure detector, the
//! discrete-event simulator, and the metrics checkers into one declarative
//! experiment.
//!
//! The moving parts:
//!
//! * [`DinerHost`] — a [`Node`](ekbd_sim::Node) hosting one
//!   [`DiningAlgorithm`](ekbd_dining::DiningAlgorithm) next to one [`AnyDetector`], multiplexing their
//!   traffic, driving the workload (think → hungry → eat → think cycles),
//!   and emitting observations for the metrics layer;
//! * [`Scenario`] — topology + coloring + seed + delay model + oracle +
//!   workload + crash schedule + horizon, with a builder API;
//! * [`RunReport`] — everything measured in a run, with accessors producing
//!   the `ekbd-metrics` reports for each of the paper's claims.
//!
//! # Example
//!
//! ```
//! use ekbd_harness::{Scenario, Workload};
//! use ekbd_graph::topology;
//! use ekbd_sim::Time;
//!
//! // Five diners on a ring, one crash, adversarial oracle until t=2000.
//! let report = Scenario::new(topology::ring(5))
//!     .seed(42)
//!     .adversarial_oracle(Time(2_000), 50)
//!     .workload(Workload { sessions: 10, think: (5, 50), eat: (5, 20) })
//!     .crash(ekbd_graph::ProcessId(2), Time(500))
//!     .horizon(Time(60_000))
//!     .run_algorithm1();
//!
//! // Theorem 2 (wait-freedom): no correct process starves.
//! assert!(report.progress().wait_free());
//! // Theorem 1 (◇WX): no mistakes after the detector converged.
//! let convergence = report.detector_convergence();
//! assert_eq!(report.exclusion().after(convergence), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod chaos;
mod detector;
mod host;
mod live;
mod lives;
mod report;
mod scenario;
mod streaming;

pub use campaign::{Campaign, CampaignJob, CampaignReport, CampaignRun};
pub use chaos::{
    emit_repro_artifact, reproduces, run_chaos, shrink_failing, ChaosOutcome, CHAOS_WORKLOAD,
};
pub use detector::AnyDetector;
pub use host::{
    derived_audit_period, quiet_repair_bound, DinerHost, Envelope, HostCmd, HostObs, HostWorkload,
    AUDIT_BACKOFF_CAP, AUDIT_PERIOD,
};
pub use live::LiveRun;
pub use report::{Admission, MembershipTag, Readmission, RunReport};
pub use scenario::{OracleSpec, Scenario, Workload};
pub use streaming::StreamingRunReport;
