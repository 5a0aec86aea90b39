//! Deterministic discrete-event simulation of asynchronous message-passing
//! systems with crash faults and partial synchrony.
//!
//! The paper's computational model (§2) is an asynchronous message-passing
//! system with reliable FIFO channels, unbounded message delays and relative
//! process speeds, and crash faults, augmented with enough partial synchrony
//! to implement the eventually perfect failure detector ◇P. This crate is
//! that substrate:
//!
//! * [`Simulator`] — a seeded, fully deterministic discrete-event kernel.
//!   Processes are [`Node`] state machines; every run with the same seed and
//!   schedule produces the identical trace, which is what makes the paper's
//!   *eventual* properties (finitely many mistakes, infinite suffixes)
//!   checkable in finite executions.
//! * [`DelayModel`] — message-delay distributions, including the
//!   Dwork–Lynch–Stockmeyer **global stabilization time** (GST) model: delays
//!   are adversarially large before GST and bounded by Δ afterwards, which is
//!   exactly the partial synchrony the paper cites as sufficient for ◇P.
//! * Reliable FIFO channels with per-edge in-transit accounting (high-water
//!   marks feed the paper's "at most four messages per edge" claim, §7).
//! * Crash injection: a crashed process ceases execution without warning;
//!   messages addressed to it after the crash are counted (for the
//!   quiescence claim, §7) and discarded on delivery. Beyond the paper's
//!   crash-*stop* model, a crashed process may be scheduled to *recover*
//!   ([`Simulator::schedule_recovery`]) with blank or adversarially
//!   corrupted state and a fresh incarnation number, and live processes may
//!   suffer transient state corruption
//!   ([`Simulator::schedule_corruption`]) — the crash-recovery +
//!   transient-fault model of the self-stabilization literature.
//! * Dynamic membership: a seeded [`MembershipPlan`] schedules join and
//!   leave events over a fixed maximum population, so the conflict graph
//!   itself becomes part of the fault model. Initially-absent processes
//!   boot mid-run ([`Simulator::schedule_join`]) with a fresh incarnation;
//!   present processes depart permanently ([`Simulator::schedule_leave`]),
//!   either gracefully (one final drain event) or crash-stop.
//! * Adversarial channel faults beyond the paper's model: a seeded
//!   [`FaultPlan`] adds per-edge message loss, duplication, bounded
//!   reordering, and timed link partitions that heal — all recorded in the
//!   kernel trace and exactly as deterministic per seed as a fault-free run.
//!   The `ekbd-link` crate restores reliable FIFO delivery on top.
//! * [`alg1`] — Algorithm 1's per-edge S1 bits and the actions over them,
//!   shared by `ekbd-dining`'s processes and the packed [`PackedKernel`].
//!   It lives here because `ekbd-dining` already depends on this crate.
//!
//! # Example
//!
//! ```
//! use ekbd_sim::{Simulator, SimConfig, Node, NodeEvent, Context, ProcessId, StreamSink, Time};
//!
//! /// A node that greets its successor once and notes the echo it gets back.
//! struct Echo { n: usize }
//! impl Node for Echo {
//!     type Msg = &'static str;
//!     type Ext = ();
//!     type Obs = String;
//!     fn handle(&mut self, ev: NodeEvent<Self::Msg, Self::Ext>,
//!               ctx: &mut Context<'_, Self::Msg, Self::Obs>) {
//!         match ev {
//!             NodeEvent::Start => {
//!                 let next = ProcessId::from((ctx.id().index() + 1) % self.n);
//!                 ctx.send(next, "hello");
//!             }
//!             NodeEvent::Message { from, msg: "hello" } => ctx.send(from, "world"),
//!             NodeEvent::Message { from, .. } => ctx.observe(format!("done with {from}")),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default().seed(7), |_, _| Echo { n: 3 });
//! sim.run();
//! assert_eq!(sim.observations().len(), 3);
//!
//! // Any `StreamSink` can take the log's place; this one only counts.
//! struct Count(usize);
//! impl StreamSink<String> for Count {
//!     fn record(&mut self, _: Time, _: ProcessId, _: String) {
//!         self.0 += 1;
//!     }
//! }
//! let mut sim = Simulator::with_sink(SimConfig::default().seed(7), Count(0), |_, _| Echo { n: 3 });
//! sim.run();
//! assert_eq!(sim.into_sink().0, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg1;
mod event;
mod fault;
mod membership;
mod network;
mod node;
pub mod obs;
pub mod packed;
pub mod shard;
mod sim;
mod slots;
mod time;
mod trace;

pub use ekbd_graph::ProcessId;
pub use fault::{CorruptionSpec, FaultPlan, FaultPlanError, LinkFault, Partition, RecoverySpec};
pub use membership::{MembershipEvent, MembershipPlan, MembershipPlanError};
pub use network::{ChannelStats, DelayModel};
pub use node::{Context, Node, NodeEvent};
pub use obs::{LatencyHistogram, Reservoir, StreamSink};
pub use packed::{EatExcerpt, EatObs, InteractiveScale, PackedKernel, ScaleConfig};
pub use shard::{run_sharded, ScaleRunReport};
pub use sim::{SimConfig, Simulator};
pub use time::{Duration, Time};
pub use trace::{Observation, TraceEvent, TraceKind};
