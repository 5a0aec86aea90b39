//! Baseline dining algorithms the paper is compared against.
//!
//! * [`ChoySinghProcess`] — the *original* asynchronous-doorway algorithm of
//!   Choy & Singh (ACM TOPLAS 1995) that Algorithm 1 refines: forks +
//!   doorway, but **no failure detector** and **unlimited acks per hungry
//!   session**. Crash-oblivious: a neighbor that crashes while holding a
//!   fork, or inside the doorway, blocks it forever — the starvation the
//!   paper's §1 argues makes stabilization impossible without crash-fault
//!   detection.
//! * [`NaivePriorityProcess`] — fork collection with static color
//!   priorities but **no doorway**. It uses ◇P₁, so it stays wait-free in
//!   our experiments' finite workloads, but nothing bounds how often a
//!   high-priority diner overtakes a continuously hungry low-priority
//!   neighbor: the contrast that motivates the doorway and the ◇2-BW claim
//!   (experiment E3).
//!
//! * [`HierarchicalProcess`] — Dijkstra's resource-hierarchy dining:
//!   forks acquired one at a time in a global order (no doorway, no
//!   deadlock by construction). Starvation-free but low-concurrency: the
//!   ordered chains serialize, which experiment E12 quantifies against
//!   Algorithm 1's doorway.
//!
//! All of them implement [`DiningAlgorithm`], so every harness, metric,
//! and benchmark in the workspace runs them unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choy_singh;
mod hierarchical;
mod naive;
mod table;

pub use choy_singh::ChoySinghProcess;
pub use hierarchical::HierarchicalProcess;
pub use naive::NaivePriorityProcess;
