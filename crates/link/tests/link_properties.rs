//! Property tests for the reliable link layer.
//!
//! An adversarial channel driver applies an arbitrary schedule of frame
//! drops, duplications, reorderings (frames are picked out of the in-flight
//! set in arbitrary order), and timer fires. The properties checked are the
//! two halves of exactly-once FIFO delivery between correct processes:
//!
//! * **No duplication, no reordering:** at every instant the receiver's
//!   output is a prefix of the sent sequence.
//! * **No permanent loss:** once the adversary stops (frames flow and
//!   timers fire faithfully), every payload is delivered.
//!
//! The tests also hold the layer to its buffer contract: every call of
//! either endpoint appends to one caller-owned [`LinkActions`] that no
//! endpoint ever clears, `stats().delivered` moves by exactly the payloads
//! a call released, and the order in which an endpoint first meets its
//! peers changes nothing it does.

use ekbd_link::{LinkActions, LinkConfig, LinkEndpoint, LinkMsg, LinkStats};
use ekbd_sim::ProcessId;
use proptest::prelude::*;

const ALICE: ProcessId = ProcessId(0);
const BOB: ProcessId = ProcessId(1);
/// Marks the entry the channel plants at the front of each list of the
/// shared action buffer; no endpoint ever talks to it.
const SENTINEL: ProcessId = ProcessId(99);

/// A frame in flight: `to_bob` gives its direction.
#[derive(Clone, Debug)]
struct Flight {
    to_bob: bool,
    frame: LinkMsg<u32>,
}

/// The adversarial channel between one sending endpoint (alice) and one
/// receiving endpoint (bob). Only alice originates payloads; acks flow back.
/// Alice may also talk to silent bystanders, whose traffic is dropped.
struct Channel {
    alice: LinkEndpoint<u32>,
    bob: LinkEndpoint<u32>,
    in_flight: Vec<Flight>,
    /// Epochs of alice's armed retransmission timers toward bob, oldest
    /// first.
    timers: Vec<u64>,
    /// Payloads surfaced by bob's endpoint, in surfacing order.
    got: Vec<u32>,
    /// Every frame alice addressed to bob, in order.
    to_bob: Vec<LinkMsg<u32>>,
    /// The one action buffer every call of either endpoint appends to. The
    /// channel drains it after each call but never empties it: a sentinel
    /// stays at the front of each list, which an endpoint that cleared
    /// the caller's buffer would take with it.
    out: LinkActions<u32>,
}

impl Channel {
    fn new() -> Self {
        // A small retransmit base keeps healing cheap; the driver ignores
        // the delay value anyway (it fires timers explicitly).
        let cfg = LinkConfig::default().retransmit_base(1).max_backoff_exp(2);
        let out = LinkActions {
            sends: vec![(
                SENTINEL,
                LinkMsg::Ack {
                    cum: 0,
                    inc: 0,
                    dst_inc: 0,
                },
            )],
            timers: vec![(SENTINEL, 0, 0)],
            delivered: vec![(SENTINEL, 0)],
        };
        Channel {
            alice: LinkEndpoint::new(ALICE, cfg),
            bob: LinkEndpoint::new(BOB, cfg),
            in_flight: Vec::new(),
            timers: Vec::new(),
            got: Vec::new(),
            to_bob: Vec::new(),
            out,
        }
    }

    /// Takes what the last endpoint call appended to the shared buffer.
    fn appended(&mut self) -> LinkActions<u32> {
        let out = &mut self.out;
        assert!(
            out.sends[0].0 == SENTINEL
                && out.timers[0].0 == SENTINEL
                && out.delivered[0].0 == SENTINEL,
            "an endpoint cleared the caller's buffer"
        );
        LinkActions {
            sends: out.sends.drain(1..).collect(),
            timers: out.timers.drain(1..).collect(),
            delivered: out.delivered.drain(1..).collect(),
        }
    }

    /// Routes what alice's last call appended: bob's frames go in flight,
    /// a bystander's are dropped.
    fn absorb_alice(&mut self) {
        let out = self.appended();
        for (to, frame) in out.sends {
            if to == BOB {
                self.to_bob.push(frame.clone());
                self.in_flight.push(Flight {
                    to_bob: true,
                    frame,
                });
            }
        }
        self.timers.extend(
            out.timers
                .iter()
                .filter(|&&(to, _, _)| to == BOB)
                .map(|&(_, _, e)| e),
        );
        assert!(out.delivered.is_empty(), "alice receives only acks");
    }

    fn send(&mut self, payload: u32) {
        self.alice.send(BOB, payload, &mut self.out);
        self.absorb_alice();
    }

    /// Alice's first or later contact with silent bystander `q`: a send
    /// for even ids, a suspicion for odd ones.
    fn contact(&mut self, q: u32) {
        if q.is_multiple_of(2) {
            self.alice.send(ProcessId(q), 1_000, &mut self.out);
        } else {
            self.alice.on_suspect(ProcessId(q));
        }
        self.absorb_alice();
    }

    fn fire_timer(&mut self, epoch: u64) {
        self.alice.on_timer(BOB, epoch, &mut self.out);
        self.absorb_alice();
    }

    fn unsuspect(&mut self) {
        self.alice.on_unsuspect(BOB, &mut self.out);
        self.absorb_alice();
    }

    /// Delivers one in-flight frame to its destination endpoint.
    fn deliver(&mut self, flight: Flight) {
        if flight.to_bob {
            self.bob.on_message(ALICE, flight.frame, &mut self.out);
            let out = self.appended();
            self.got.extend(out.delivered.iter().map(|&(_, v)| v));
            assert_eq!(
                self.bob.stats().delivered,
                self.got.len() as u64,
                "the counter moves by exactly what each call released"
            );
            for (_, ack) in out.sends {
                self.in_flight.push(Flight {
                    to_bob: false,
                    frame: ack,
                });
            }
        } else {
            self.alice.on_message(BOB, flight.frame, &mut self.out);
            self.absorb_alice();
        }
    }

    /// Everything a run shows of the link toward bob: what bob surfaced,
    /// what alice put on the wire for him, and both endpoints' counters.
    fn outcome(&self) -> (Vec<u32>, Vec<LinkMsg<u32>>, LinkStats, LinkStats) {
        (
            self.got.clone(),
            self.to_bob.clone(),
            self.alice.stats(),
            self.bob.stats(),
        )
    }

    /// The receiver's output must always be a prefix of the sent sequence —
    /// this single check rules out duplication, reordering, and corruption.
    fn output_is_prefix(&self) -> bool {
        self.got.iter().enumerate().all(|(i, &v)| v == i as u32)
    }

    /// Runs the channel faithfully (deliver everything, fire every timer)
    /// until nothing is outstanding. Returns false if it fails to converge.
    fn heal(&mut self) -> bool {
        for _ in 0..10_000 {
            if self.in_flight.is_empty()
                && self.timers.is_empty()
                && self.alice.unacked_to(BOB) == 0
            {
                return true;
            }
            let frames = std::mem::take(&mut self.in_flight);
            for flight in frames {
                self.deliver(flight);
            }
            let epochs = std::mem::take(&mut self.timers);
            for epoch in epochs {
                self.fire_timer(epoch);
            }
        }
        false
    }
}

/// Runs one adversarial schedule over `n` payloads. Alice contacts the
/// `early` bystanders before the schedule starts and one `late` bystander
/// before each step, so bob's place among her peers varies with them.
fn run_schedule(n: usize, schedule: &[(u8, usize)], early: &[u32], late: &[u32]) -> Channel {
    let mut ch = Channel::new();
    for &q in early {
        ch.contact(q);
    }
    let mut next_payload = 0u32;
    for (step, &(fate, idx)) in schedule.iter().enumerate() {
        if let Some(&q) = late.get(step) {
            ch.contact(q);
        }
        match fate {
            // Inject a fresh payload (interleaved with channel chaos).
            0..=19 => {
                if (next_payload as usize) < n {
                    ch.send(next_payload);
                    next_payload += 1;
                }
            }
            // Fire one of alice's armed timers, in arbitrary order.
            20..=34 => {
                if !ch.timers.is_empty() {
                    let epoch = ch.timers.remove(idx % ch.timers.len());
                    ch.fire_timer(epoch);
                }
            }
            // Drop an arbitrary in-flight frame (data or ack).
            35..=54 => {
                if !ch.in_flight.is_empty() {
                    let k = idx % ch.in_flight.len();
                    ch.in_flight.swap_remove(k);
                }
            }
            // Deliver an arbitrary in-flight frame twice (duplication).
            55..=69 => {
                if !ch.in_flight.is_empty() {
                    let k = idx % ch.in_flight.len();
                    let flight = ch.in_flight.swap_remove(k);
                    ch.deliver(flight.clone());
                    ch.deliver(flight);
                }
            }
            // Deliver an arbitrary in-flight frame once (reordering:
            // the pick ignores send order).
            _ => {
                if !ch.in_flight.is_empty() {
                    let k = idx % ch.in_flight.len();
                    let flight = ch.in_flight.swap_remove(k);
                    ch.deliver(flight);
                }
            }
        }
        assert!(
            ch.output_is_prefix(),
            "mid-run output {:?} is not a prefix of the sent sequence",
            ch.got
        );
    }
    // Queue whatever the schedule did not get around to sending.
    while (next_payload as usize) < n {
        ch.send(next_payload);
        next_payload += 1;
    }
    ch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exactly-once FIFO delivery survives arbitrary loss/dup/reorder
    /// schedules: the output never shows a payload twice or out of order,
    /// and once the adversary stops, nothing is permanently lost. The
    /// order in which alice first meets her other peers changes nothing
    /// toward bob.
    #[test]
    fn arbitrary_fault_schedules_never_duplicate_nor_permanently_lose(
        n in 1usize..16,
        schedule in proptest::collection::vec((0u8..100u8, 0usize..64usize), 0..160),
        bystanders in proptest::collection::vec(2u32..10, 0..8),
    ) {
        let mut ch = run_schedule(n, &schedule, &[], &bystanders);
        let reversed: Vec<u32> = bystanders.iter().rev().copied().collect();
        let mut other = run_schedule(n, &schedule, &reversed, &[]);
        prop_assert_eq!(ch.outcome(), other.outcome(), "bystander order leaked");

        // Adversary stops: the layer must heal.
        prop_assert!(ch.heal(), "retransmission failed to converge");
        prop_assert!(other.heal(), "retransmission failed to converge");
        prop_assert_eq!(
            &ch.got,
            &(0..n as u32).collect::<Vec<_>>(),
            "exactly-once FIFO delivery after healing"
        );
        prop_assert_eq!(ch.outcome(), other.outcome(), "bystander order leaked");
    }

    /// Suspicion pauses never destroy frames: an arbitrary schedule of
    /// suspect/unsuspect flips around a lossy channel still ends with
    /// every payload delivered exactly once after the pause lifts.
    #[test]
    fn false_suspicions_only_pause_never_lose(
        n in 1usize..12,
        flips in proptest::collection::vec((0u8..4u8, 0usize..64usize), 0..60),
    ) {
        let mut ch = Channel::new();
        for k in 0..n as u32 {
            ch.send(k);
        }
        for (kind, idx) in flips {
            match kind {
                0 => ch.alice.on_suspect(BOB),
                1 => ch.unsuspect(),
                // Drop a frame while flapping.
                2 => {
                    if !ch.in_flight.is_empty() {
                        let k = idx % ch.in_flight.len();
                        ch.in_flight.swap_remove(k);
                    }
                }
                // Deliver a frame while flapping.
                _ => {
                    if !ch.in_flight.is_empty() {
                        let k = idx % ch.in_flight.len();
                        let flight = ch.in_flight.swap_remove(k);
                        ch.deliver(flight);
                    }
                }
            }
            prop_assert!(ch.output_is_prefix());
        }
        // Retract any standing suspicion, then heal.
        ch.unsuspect();
        prop_assert!(ch.heal(), "recovery failed to converge");
        prop_assert_eq!(&ch.got, &(0..n as u32).collect::<Vec<_>>());
    }
}
