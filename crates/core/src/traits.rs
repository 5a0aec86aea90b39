use crate::recovery::{RecoveryStats, RestartEvent};
use ekbd_detector::SuspicionView;
use ekbd_graph::ProcessId;
use std::fmt;

/// The dining phase of a process (Song & Pike §2): *thinking* (executing
/// independently), *hungry* (requesting shared resources), or *eating*
/// (inside the critical section).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DinerState {
    /// Executing independently; may become hungry at any time.
    Thinking,
    /// Requesting shared resources; a *hungry session* lasts from becoming
    /// hungry until scheduled to eat.
    Hungry,
    /// Using shared resources in the critical section; always finite for
    /// correct processes.
    Eating,
}

impl fmt::Display for DinerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DinerState::Thinking => "thinking",
            DinerState::Hungry => "hungry",
            DinerState::Eating => "eating",
        };
        f.write_str(s)
    }
}

/// Inputs to a [`DiningAlgorithm`].
///
/// `Hungry` and `DoneEating` are the environment actions (Action 1 and the
/// trigger of Action 10 in Algorithm 1); the rest is transport and oracle
/// plumbing.
#[derive(Clone, Debug)]
pub enum DiningInput<M> {
    /// The application asks to be scheduled (legal only while thinking).
    Hungry,
    /// The application finished its critical section (legal only while
    /// eating). Correct processes always eventually issue this.
    DoneEating,
    /// A dining-layer message arrived on the FIFO channel `from → self`.
    Message {
        /// The sender.
        from: ProcessId,
        /// The payload.
        msg: M,
    },
    /// The local failure-detector output changed; oracle-guarded actions
    /// must be re-evaluated.
    SuspicionChange,
}

/// Scheduling-relevant transitions, emitted by hosts for the metrics layer.
///
/// Hosts derive these by diffing [`DiningAlgorithm::state`] and
/// [`DiningAlgorithm::inside_doorway`] around each [`DiningAlgorithm::handle`]
/// call, so algorithms cannot forget to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiningObs {
    /// Transitioned thinking → hungry.
    BecameHungry,
    /// Entered the doorway (Algorithm 1, Action 5).
    EnteredDoorway,
    /// Transitioned hungry → eating.
    StartedEating,
    /// Transitioned eating → thinking.
    StoppedEating,
    /// Left the doorway (Algorithm 1, Action 10).
    ExitedDoorway,
}

/// A dining-philosophers algorithm as a pure, runtime-agnostic state
/// machine.
///
/// Implementations receive [`DiningInput`]s, may consult the local failure
/// detector through the supplied [`SuspicionView`], and append outgoing
/// messages to `sends`. All the algorithms in this workspace — Algorithm 1
/// ([`DiningProcess`](crate::DiningProcess)) and every baseline — implement
/// this trait, so harnesses, metrics, examples, and benchmarks are shared.
pub trait DiningAlgorithm {
    /// The algorithm's wire-message type.
    type Msg: Clone + fmt::Debug;

    /// This process's id.
    fn id(&self) -> ProcessId;

    /// Handles one input, appending outgoing `(destination, message)` pairs
    /// to `sends`.
    fn handle(
        &mut self,
        input: DiningInput<Self::Msg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    );

    /// Current dining phase.
    fn state(&self) -> DinerState;

    /// Whether the process is inside the doorway (always `false` for
    /// algorithms without one).
    fn inside_doorway(&self) -> bool {
        false
    }

    /// Size of the per-process protocol state in bits, as accounted in the
    /// paper's §7 space analysis (`log₂(δ) + 6δ + c` for Algorithm 1).
    fn state_bits(&self) -> usize;

    /// Informs the algorithm of the host's current time (simulation tick
    /// or elapsed milliseconds) before an input is handled. Purely
    /// observational — algorithms that journal use it to stamp records
    /// with a commit-time tick; the default is a no-op.
    fn note_now(&mut self, now: u64) {
        let _ = now;
    }

    // ----- crash-recovery extension (default: crash-stop, no-ops) -------

    /// Whether this algorithm implements the crash-recovery protocol
    /// (rejoin handshake + periodic audit). Hosts only arm the audit timer,
    /// check for [`wakes`](Self::wakes) and deliver restart/corruption
    /// events when this returns `true`.
    fn supports_recovery(&self) -> bool {
        false
    }

    /// The process restarted after a crash with a fresh `incarnation`
    /// (1-based restart count, the one counter kept in stable storage).
    /// Volatile dining state was lost; `corruption` carries an entropy seed
    /// when the reboot additionally scrambled the rebuilt state. The
    /// implementation re-initializes itself and appends any rejoin traffic
    /// to `sends`.
    fn restart(
        &mut self,
        incarnation: u64,
        corruption: Option<u64>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (incarnation, corruption, suspicion, sends);
    }

    /// A transient fault flipped state bits of this (live) process;
    /// `entropy` seeds the deterministic choice of which bits.
    fn inject_corruption(
        &mut self,
        entropy: u64,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (entropy, suspicion, sends);
    }

    /// One round of the periodic state audit: retry unfinished rejoins,
    /// repair locally detectable damage, and exchange per-edge fork/token
    /// snapshots with live peers.
    fn audit(&mut self, suspicion: &dyn SuspicionView, sends: &mut Vec<(ProcessId, Self::Msg)>) {
        let _ = (suspicion, sends);
    }

    /// Whether the last [`audit`](Self::audit) found nothing to do: it
    /// repaired nothing, the process is thinking, every edge is synced and
    /// no strike is pending. Hosts back the audit timer off while this
    /// holds.
    fn audit_clean(&self) -> bool {
        false
    }

    /// How many inputs so far were observable wakes: anything that may
    /// need an audit soon (dining traffic, a handshake, hunger, a
    /// suspicion change, a membership notice, or an audit snapshot that
    /// left a strike pending or repaired something). Hosts compare it
    /// across each step and snap a backed-off audit timer back. Monotone
    /// over the process's lifetime; a transient corruption is not a wake.
    fn wakes(&self) -> u64 {
        0
    }

    /// Recovery-layer counters, when the algorithm keeps them (`None` for
    /// crash-stop algorithms).
    fn recovery_stats(&self) -> Option<RecoveryStats> {
        None
    }

    // ----- dynamic-membership extension (default: fixed graph, no-ops) --

    /// Whether this algorithm supports runtime membership changes (joining
    /// the system mid-run, neighbor insertion/teardown). Hosts only deliver
    /// join/leave and peer-change events when this returns `true`.
    fn supports_membership(&self) -> bool {
        false
    }

    /// The (initially absent) process boots into the system at runtime
    /// with a fresh `incarnation` (≥ 1; shares the restart counter with
    /// [`DiningAlgorithm::restart`]). The implementation initializes its
    /// edges unsynced and appends introduction traffic (the rejoin
    /// handshake) to `sends`.
    fn join(
        &mut self,
        incarnation: u64,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (incarnation, suspicion, sends);
    }

    /// The process is leaving the system gracefully; this is the last
    /// input it will ever handle. The implementation discharges held
    /// resources (forks owed to waiting neighbors, deferred acks) into
    /// `sends` so no survivor starves waiting on the departed node.
    fn retire(&mut self, sends: &mut Vec<(ProcessId, Self::Msg)>) {
        let _ = sends;
    }

    /// A new neighbor `q` with priority `color` joined the system: grow
    /// the conflict edge `self ↔ q`. The edge boots with canonical
    /// fork/token placement by color order; the joiner's rejoin handshake
    /// then establishes the live session.
    fn add_peer(
        &mut self,
        q: ProcessId,
        color: u32,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (q, color, suspicion, sends);
    }

    /// Neighbor `q` left the system after draining gracefully: tear the
    /// conflict edge down completely and re-evaluate guards that no longer
    /// wait on it.
    fn remove_peer(
        &mut self,
        q: ProcessId,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (q, suspicion, sends);
    }

    /// Neighbor `q` crash-stopped out of the system without draining: mark
    /// the edge departed so the audit path can reclaim whatever `q` held
    /// (a fork leaked by a dead neighbor must be reminted, not waited on).
    fn peer_departed(
        &mut self,
        q: ProcessId,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, Self::Msg)>,
    ) {
        let _ = (q, suspicion, sends);
    }

    /// Per-restart path log — whether each restart replayed its journal
    /// (and how its edges split between the fast resume and the rejoin
    /// fallback) or rebooted blank. `None` for algorithms without one.
    fn restart_log(&self) -> Option<Vec<RestartEvent>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diner_state_displays() {
        assert_eq!(DinerState::Thinking.to_string(), "thinking");
        assert_eq!(DinerState::Hungry.to_string(), "hungry");
        assert_eq!(DinerState::Eating.to_string(), "eating");
    }
}
