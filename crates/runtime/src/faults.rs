//! Sender-side channel fault injection for the threaded runtime.
//!
//! A lighter mirror of the simulator's [`ekbd_sim::FaultPlan`]: crossbeam
//! channels deliver reliably and in order, so every injectable fault is
//! decided at the sender — drop the frame (loss), send it twice
//! (duplication), or hold it back one slot so the next frame to the same
//! destination overtakes it (reorder). Partitions stay simulator-only;
//! the threaded runtime exists to demonstrate runtime-independence, not
//! to re-measure the experiments.
//!
//! Fault decisions are drawn from a per-process seeded stream, so the
//! *decisions* are reproducible even though thread interleaving is not.

use crossbeam_channel::Sender;
use ekbd_graph::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Decorrelates the fault stream from any other use of the same seed
/// (the same constant the simulator uses for its fault stream).
const FAULT_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Uniform channel faults applied to every payload frame a process sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelFaults {
    /// Probability a frame is dropped instead of sent.
    pub loss: f64,
    /// Probability a sent frame is transmitted twice.
    pub dup: f64,
    /// Probability a sent frame is held back and overtaken by the next
    /// frame to the same destination (pairwise swap; like loss, only
    /// safe under the link layer's retransmission).
    pub reorder: f64,
    /// Seed of the per-process fault streams.
    pub seed: u64,
}

impl Default for ChannelFaults {
    fn default() -> Self {
        ChannelFaults {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            seed: 0,
        }
    }
}

impl ChannelFaults {
    /// Loss-only faults.
    pub fn lossy(loss: f64, seed: u64) -> Self {
        ChannelFaults {
            loss,
            seed,
            ..ChannelFaults::default()
        }
    }

    /// Sets the duplication probability.
    pub fn duplication(mut self, dup: f64) -> Self {
        self.dup = dup;
        self
    }

    /// Sets the reorder probability.
    pub fn reorder(mut self, reorder: f64) -> Self {
        self.reorder = reorder;
        self
    }

    /// Whether this configuration faults nothing (the default).
    pub fn is_inert(&self) -> bool {
        self.loss <= 0.0 && self.dup <= 0.0 && self.reorder <= 0.0
    }
}

/// Deterministic entropy for process-state faults (restart corruption and
/// live bit flips): the threaded mirror of the simulator's per-event fault
/// entropy, with an explicit `nonce` (incarnation or injection counter)
/// standing in for virtual time, which the threaded runtime does not have.
pub fn state_entropy(seed: u64, p: ProcessId, nonce: u64) -> u64 {
    ekbd_graph::random::mix64(
        seed ^ (p.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ nonce.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// A process's outgoing channels, wrapped with fault injection.
///
/// Only a process thread's wire traffic (dining, link and detector
/// frames) goes through [`send`](Self::send), which rolls the loss,
/// duplication and reorder dice per frame. Control traffic (hungry,
/// crash, membership and shutdown commands) never passes through here:
/// the system handle writes it straight to each thread's channel.
pub(crate) struct LossyLinks<T: Clone> {
    txs: HashMap<ProcessId, Sender<T>>,
    faults: ChannelFaults,
    rng: StdRng,
    /// One held-back frame per destination: a frame stashed here is
    /// emitted *after* the next frame to the same destination, swapping
    /// the pair's order.
    held: HashMap<ProcessId, T>,
}

impl<T: Clone> LossyLinks<T> {
    /// Wraps `txs` for the process at `index` in the system.
    pub fn new(txs: HashMap<ProcessId, Sender<T>>, faults: ChannelFaults, index: usize) -> Self {
        let stream = faults.seed ^ FAULT_STREAM_SALT.wrapping_mul(index as u64 + 1);
        LossyLinks {
            txs,
            faults,
            rng: StdRng::seed_from_u64(stream),
            held: HashMap::new(),
        }
    }

    /// Sends `msg` to `to`, subject to loss, duplication, and pairwise
    /// reordering. A send to a crashed (exited) neighbor fails silently —
    /// exactly the crash model. A held-back frame with no successor is
    /// never flushed, which is indistinguishable from loss and equally
    /// covered by the link layer's retransmission.
    pub fn send(&mut self, to: ProcessId, msg: T) {
        if self.faults.loss > 0.0 && self.rng.gen_bool(self.faults.loss.clamp(0.0, 1.0)) {
            return;
        }
        let dup = self.faults.dup > 0.0 && self.rng.gen_bool(self.faults.dup.clamp(0.0, 1.0));
        let hold = self.faults.reorder > 0.0
            && !self.held.contains_key(&to)
            && self.rng.gen_bool(self.faults.reorder.clamp(0.0, 1.0));
        if hold {
            self.held.insert(to, msg);
            return;
        }
        let overtaken = self.held.remove(&to);
        if let Some(tx) = self.txs.get(&to) {
            let _ = tx.send(msg.clone());
            if dup {
                let _ = tx.send(msg);
            }
            if let Some(earlier) = overtaken {
                let _ = tx.send(earlier);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn links(faults: ChannelFaults) -> (LossyLinks<u32>, crossbeam_channel::Receiver<u32>) {
        let (tx, rx) = unbounded();
        let txs = [(ProcessId(1), tx)].into_iter().collect();
        (LossyLinks::new(txs, faults, 0), rx)
    }

    #[test]
    fn default_is_inert_and_delivers_everything_once() {
        assert!(ChannelFaults::default().is_inert());
        let (mut l, rx) = links(ChannelFaults::default());
        for i in 0..100 {
            l.send(ProcessId(1), i);
        }
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn loss_drops_and_dup_doubles() {
        let (mut l, rx) = links(ChannelFaults::lossy(0.5, 42).duplication(0.5));
        for i in 0..200 {
            l.send(ProcessId(1), i);
        }
        let got: Vec<u32> = rx.try_iter().collect();
        assert!(got.len() < 200, "half the frames should be lost");
        let dups = got.len() - got.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!(dups > 0, "some frames should arrive twice");
    }

    #[test]
    fn state_entropy_is_deterministic_and_spread() {
        let a = state_entropy(1, ProcessId(0), 1);
        assert_eq!(a, state_entropy(1, ProcessId(0), 1));
        assert_ne!(a, state_entropy(2, ProcessId(0), 1));
        assert_ne!(a, state_entropy(1, ProcessId(1), 1));
        assert_ne!(a, state_entropy(1, ProcessId(0), 2));
    }

    #[test]
    fn fault_decisions_are_seed_deterministic() {
        let run = |seed| {
            let (mut l, rx) = links(ChannelFaults::lossy(0.3, seed).duplication(0.2));
            for i in 0..100 {
                l.send(ProcessId(1), i);
            }
            rx.try_iter().collect::<Vec<u32>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn certain_reorder_swaps_adjacent_pairs() {
        assert!(!ChannelFaults::default().reorder(0.5).is_inert());
        let (mut l, rx) = links(ChannelFaults::default().reorder(1.0));
        for i in 0..6 {
            l.send(ProcessId(1), i);
        }
        // Every frame is held until the next one overtakes it.
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![1, 0, 3, 2, 5, 4]);
    }

    #[test]
    fn reorder_decisions_are_seed_deterministic() {
        let run = |seed| {
            let (mut l, rx) = links(
                ChannelFaults::lossy(0.2, seed)
                    .duplication(0.1)
                    .reorder(0.4),
            );
            for i in 0..200 {
                l.send(ProcessId(1), i);
            }
            rx.try_iter().collect::<Vec<u32>>()
        };
        let once = run(11);
        assert_eq!(once, run(11));
        assert_ne!(once, run(12));
        // Some pair actually arrived out of order.
        assert!(
            once.windows(2).any(|w| w[0] > w[1]),
            "reorder at p=0.4 over 200 frames must swap at least one pair"
        );
    }
}
