use crate::obs::StreamSink;
use crate::time::{Duration, Time};
use crate::ProcessId;
use rand::rngs::StdRng;

/// An input delivered to a [`Node`] by the simulator.
#[derive(Debug)]
pub enum NodeEvent<M, E> {
    /// Fired once for every process at time zero, before any other event.
    Start,
    /// A message arrived on the FIFO channel `from → self`.
    Message {
        /// The sender.
        from: ProcessId,
        /// The payload.
        msg: M,
    },
    /// A timer set via [`Context::set_timer`] fired.
    Timer {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// An externally scheduled event (workload input such as "become
    /// hungry" or "stop eating") arrived.
    External(E),
    /// The process restarts after a crash (crash-recovery fault model).
    ///
    /// All volatile state is presumed lost; the node must rebuild itself
    /// from its immutable configuration. `incarnation` is the simulator's
    /// per-process restart counter (the paper-standard "one counter in
    /// stable storage" assumption), strictly increasing across restarts.
    Recover {
        /// 1-based restart count; strictly greater than any value this
        /// process observed in a previous life.
        incarnation: u64,
        /// When `Some`, the restarted state is adversarially corrupted:
        /// the node should derive deterministic bit flips from this
        /// entropy instead of rebooting blank.
        corruption: Option<u64>,
    },
    /// A transient fault flips state bits of this (live) process.
    ///
    /// `entropy` is a deterministic per-event random word the node uses to
    /// decide which bits to flip.
    Corrupt {
        /// Seeded entropy word for the corruption.
        entropy: u64,
    },
    /// The (initially absent) process boots into the system at runtime
    /// (dynamic membership). Delivered instead of [`NodeEvent::Start`];
    /// the node initializes itself and introduces itself to its present
    /// neighbors.
    Join {
        /// The simulator's per-process restart counter, shared with
        /// [`NodeEvent::Recover`]: a joiner boots at incarnation ≥ 1, so a
        /// later crash + recovery of the same process keeps the counter
        /// strictly increasing.
        incarnation: u64,
    },
    /// The process is leaving the system gracefully; this is the last
    /// event it will ever handle. Outgoing sends still go out, so the node
    /// should discharge held resources (forks, deferred acks) here.
    Leave,
}

/// A process in the simulated system.
///
/// Nodes are *pure state machines*: all interaction with the outside world
/// goes through the [`Context`] passed to [`Node::handle`]. This is what
/// lets the same node — the harness's `DinerHost` with its algorithm,
/// detector and link layer — run unchanged on the discrete-event
/// simulator and on the threaded real-time runtime.
pub trait Node {
    /// Message type exchanged between nodes. `Clone` is required so the
    /// network can inject duplicate copies under a fault plan.
    type Msg: Clone;
    /// Externally injected events (the workload interface).
    type Ext;
    /// Observations emitted for metrics/checkers.
    type Obs;

    /// Handles one event, possibly sending messages, setting timers, and
    /// emitting observations via `ctx`.
    fn handle(
        &mut self,
        ev: NodeEvent<Self::Msg, Self::Ext>,
        ctx: &mut Context<'_, Self::Msg, Self::Obs>,
    );
}

/// Messages a handler sent, as `(destination, message)`, in send order.
type Sends<M> = Vec<(ProcessId, M)>;
/// Timers a handler armed, as `(delay, tag)`, in arming order.
type Timers = Vec<(Duration, u64)>;

/// The effect interface handed to [`Node::handle`].
///
/// Effects are buffered and applied by the caller (the simulator, or a
/// runtime thread) after the handler returns, so a handler always sees a
/// consistent snapshot of time.
pub struct Context<'a, M, O> {
    pub(crate) id: ProcessId,
    pub(crate) now: Time,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) sends: Sends<M>,
    pub(crate) timers: Timers,
    pub(crate) observations: &'a mut dyn StreamSink<O>,
}

impl<'a, M, O> Context<'a, M, O> {
    /// Builds a context around caller-owned effect buffers, so a host loop
    /// (the simulator, or the threaded runtime's process threads) can
    /// recycle them across events instead of allocating per dispatch.
    /// Observations go straight into `observations`, stamped with `id` and
    /// `now`.
    pub fn with_buffers(
        id: ProcessId,
        now: Time,
        rng: &'a mut StdRng,
        sends: Sends<M>,
        timers: Timers,
        observations: &'a mut dyn StreamSink<O>,
    ) -> Self {
        Context {
            id,
            now,
            rng,
            sends,
            timers,
            observations,
        }
    }

    /// Hands back the send and timer buffers, in the order the handler
    /// filled them, for the caller to apply and then reuse.
    pub fn into_buffers(self) -> (Sends<M>, Timers) {
        (self.sends, self.timers)
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` over the reliable FIFO channel.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arranges a [`NodeEvent::Timer`] with `tag` to fire after `delay`
    /// ticks (at least one tick in the future).
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.timers.push((delay.max(1), tag));
    }

    /// Emits an observation for the metrics layer.
    pub fn observe(&mut self, obs: O) {
        self.observations.record(self.now, self.id, obs);
    }

    /// Deterministic per-simulation random source.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Observation;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut log: Vec<Observation<u32>> = Vec::new();
        let mut ctx: Context<'_, &str, u32> = Context::with_buffers(
            ProcessId(2),
            Time(7),
            &mut rng,
            Vec::new(),
            Vec::new(),
            &mut log,
        );
        assert_eq!(ctx.id(), ProcessId(2));
        assert_eq!(ctx.now(), Time(7));
        ctx.send(ProcessId(0), "hi");
        ctx.set_timer(0, 9); // clamped to 1
        ctx.observe(41);
        assert_eq!(ctx.sends, vec![(ProcessId(0), "hi")]);
        assert_eq!(ctx.timers, vec![(1, 9)]);
        drop(ctx);
        // The observation is stamped and stored in place.
        assert_eq!(log.len(), 1);
        assert_eq!(
            (log[0].time, log[0].process, log[0].obs),
            (Time(7), ProcessId(2), 41)
        );
    }
}
