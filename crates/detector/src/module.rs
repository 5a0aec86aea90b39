use ekbd_sim::{Duration, ProcessId, Time};
use std::collections::BTreeSet;

/// Wire messages exchanged by failure-detector modules.
///
/// Only the heartbeat implementation actually sends anything; oracles are
/// silent. Keeping the type shared lets host processes multiplex detector
/// traffic next to application traffic with a single envelope enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorMsg {
    /// "I am alive" — periodic push heartbeat.
    Heartbeat,
    /// "Are you alive?" — pull-based liveness query.
    Probe,
    /// "Yes" — the answer to a [`DetectorMsg::Probe`].
    Echo,
    /// "I am back" — broadcast by a process restarting after a crash
    /// (crash-recovery fault model), stamped with its new incarnation
    /// epoch. Receivers withdraw their (correct!) suspicion of the sender,
    /// but only if the epoch is newer than any previously refuted one, so a
    /// late copy from an older incarnation cannot mask a later crash.
    Alive {
        /// The sender's incarnation epoch.
        epoch: u64,
    },
}

/// Inputs to a [`DetectorModule`], delivered by the host process.
#[derive(Clone, Copy, Debug)]
pub enum DetectorEvent {
    /// Delivered once before anything else.
    Start {
        /// Current time.
        now: Time,
    },
    /// A detector timer (set through [`DetectorOutput::timers`]) fired.
    Timer {
        /// Current time.
        now: Time,
        /// The tag given when the timer was set.
        tag: u64,
    },
    /// A detector message arrived.
    Message {
        /// Current time.
        now: Time,
        /// The sender.
        from: ProcessId,
        /// The payload.
        msg: DetectorMsg,
    },
    /// This process itself restarted after a crash with a new incarnation
    /// epoch. The module resets its volatile monitoring state and
    /// announces the restart ([`DetectorMsg::Alive`]) so neighbors can
    /// refute their suspicion of it.
    Recovered {
        /// Current time.
        now: Time,
        /// This process's new incarnation epoch.
        epoch: u64,
    },
}

/// Effects requested by a [`DetectorModule`] in response to an event.
#[derive(Debug, Default)]
pub struct DetectorOutput {
    /// Messages to send.
    pub sends: Vec<(ProcessId, DetectorMsg)>,
    /// Timers to set, as `(delay, tag)`; redelivered as
    /// [`DetectorEvent::Timer`].
    pub timers: Vec<(Duration, u64)>,
    /// Whether the suspect set changed while handling this event. Hosts use
    /// this to re-evaluate guards that mention the detector (Actions 5 and 9
    /// of Algorithm 1 are guarded on `j ∈ ◇P₁`).
    pub changed: bool,
}

impl DetectorOutput {
    /// An output with no effects.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stamps a detector timer tag with an incarnation epoch.
///
/// Periodic detectors re-arm their timer from the timer handler, which means
/// a timer chain armed before a crash would keep firing into the recovered
/// incarnation and drive suspicion checks against a grace period that no
/// longer exists. Stamping the epoch into the tag (and accepting only
/// current-epoch tags) kills the stale chain at its first post-restart
/// firing.
///
/// The epoch is masked to 30 bits so the stamped tag stays far below the
/// host (`1 << 40`) and link (`1 << 41`) tag namespaces; `base` occupies the
/// low byte.
pub fn epoch_timer_tag(base: u64, epoch: u64) -> u64 {
    debug_assert!(base < 0x100, "detector base tags live in the low byte");
    base | ((epoch & 0x3FFF_FFFF) << 8)
}

/// A read-only view of a suspect set, as consumed by the dining layer.
///
/// Algorithm 1 queries its local ◇P₁ module in the guards of Actions 5
/// (enter the doorway) and 9 (eat); this trait is exactly that query.
pub trait SuspicionView {
    /// Whether `q` is currently suspected.
    fn suspects(&self, q: ProcessId) -> bool;
}

impl SuspicionView for BTreeSet<ProcessId> {
    fn suspects(&self, q: ProcessId) -> bool {
        self.contains(&q)
    }
}

/// A failure-detector module: a pure state machine hosted inside a process.
///
/// The host forwards [`DetectorEvent`]s, applies the requested
/// [`DetectorOutput`] effects, and consults [`suspects`](SuspicionView::suspects)
/// whenever the application layer evaluates an oracle-guarded action.
pub trait DetectorModule: SuspicionView {
    /// Handles one event, accumulating effects into `out`.
    fn handle(&mut self, ev: DetectorEvent, out: &mut DetectorOutput);

    /// Snapshot of the current suspect set (sorted).
    fn suspect_set(&self) -> BTreeSet<ProcessId>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btreeset_is_a_suspicion_view() {
        let mut s = BTreeSet::new();
        s.insert(ProcessId(3));
        assert!(s.suspects(ProcessId(3)));
        assert!(!s.suspects(ProcessId(1)));
    }

    #[test]
    fn default_output_is_empty() {
        let out = DetectorOutput::new();
        assert!(out.sends.is_empty());
        assert!(out.timers.is_empty());
        assert!(!out.changed);
    }

    #[test]
    fn epoch_tags_are_distinct_per_epoch_and_below_host_namespace() {
        let t0 = epoch_timer_tag(1, 0);
        let t1 = epoch_timer_tag(1, 1);
        let t2 = epoch_timer_tag(2, 1);
        assert_eq!(t0, 1);
        assert_ne!(t0, t1);
        assert_ne!(t1, t2);
        // Even an absurd epoch stays out of the host/link tag namespaces.
        assert!(epoch_timer_tag(2, u64::MAX) < (1 << 40));
    }
}
