//! Threaded real-time runtime for the dining state machines.
//!
//! The dining layer ([`DiningAlgorithm`](ekbd_dining::DiningAlgorithm)) and
//! the detector layer ([`DetectorModule`](ekbd_detector::DetectorModule))
//! are pure state machines, and so is the host that wires them together
//! with the link and recovery layers
//! ([`DinerHost`](ekbd_harness::DinerHost), driven through an
//! [`ekbd_sim::Context`]). Each process thread here runs that same host,
//! the one the discrete-event simulator runs: one thread per process,
//! crossbeam channels as the reliable FIFO links, wall-clock milliseconds
//! as the time base, and a live
//! [`HeartbeatDetector`](ekbd_detector::HeartbeatDetector) as ◇P₁.
//!
//! Dining traffic can be wrapped by the [`ekbd_link`] reliable link layer
//! (`RuntimeConfig::link`). Channel faults (loss, duplication, reordering)
//! are modelled on the simulator only, where runs are replayable.
//!
//! Crashes are real: under the crash-stop algorithm a crashed process's
//! thread exits, its channel receivers drop, and from then on it neither
//! sends nor receives — exactly the paper's crash-fault model. Under the
//! crash-recovery variant ([`ThreadedDining::spawn_recoverable`]) the
//! thread instead parks with all volatile state discarded, and can later
//! be restarted with blank state and a fresh incarnation via
//! [`ThreadedDining::recover`]; the periodic audit
//! (`RuntimeConfig::audit_ms`) runs as on the simulator.
//!
//! This crate exists to demonstrate runtime-independence and to back
//! `ekbd serve`, where a disconnect is `crash(p)` and a reconnect is
//! `recover(p)`. Membership churn and state faults, like channel faults,
//! are modelled on the simulator only, where runs are replayable.
//!
//! # Example
//!
//! ```
//! use ekbd_runtime::{ThreadedDining, RuntimeConfig};
//! use ekbd_graph::{topology, ProcessId};
//!
//! let sys = ThreadedDining::spawn(topology::ring(3), RuntimeConfig::default());
//! for i in 0..3 {
//!     sys.make_hungry(ProcessId(i));
//! }
//! let events = sys.shutdown_complete(std::time::Duration::from_millis(300)).events;
//! // Everyone ate at least once.
//! let eaters: std::collections::BTreeSet<_> = events.iter()
//!     .filter(|e| e.obs == ekbd_dining::DiningObs::StartedEating)
//!     .map(|e| e.process)
//!     .collect();
//! assert_eq!(eaters.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod process;
mod system;

pub use system::{RestartNotice, RestartWatch, RuntimeConfig, RuntimeRun, ThreadedDining};
