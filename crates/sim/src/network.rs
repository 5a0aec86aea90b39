use crate::fault::{FaultPlan, LinkFault};
use crate::time::{Duration, Time};
use crate::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the run seed to derive the fault-decision RNG stream, so
/// fault sampling never perturbs the delay/algorithm stream: a run with an
/// inert [`FaultPlan`] is event-for-event identical to one with no plan.
const FAULT_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Message-delay distribution of the simulated network.
///
/// The paper's system model is asynchronous (unbounded delays) with enough
/// partial synchrony to implement ◇P. [`DelayModel::Gst`] realizes the
/// Dwork–Lynch–Stockmeyer formulation the paper cites: an unknown global
/// stabilization time after which every message delay is bounded by Δ.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly `d ≥ 1` ticks.
    Fixed(Duration),
    /// Delays drawn uniformly from `[min, max]`.
    Uniform {
        /// Minimum delay (clamped to ≥ 1).
        min: Duration,
        /// Maximum delay (inclusive).
        max: Duration,
    },
    /// Partial synchrony: before `gst`, delays are drawn uniformly from
    /// `[1, pre_max]` (adversarially large); from `gst` on, uniformly from
    /// `[1, delta]`. The failure-detector layer does not know `gst`.
    Gst {
        /// Global stabilization time.
        gst: Time,
        /// Worst-case delay before stabilization.
        pre_max: Duration,
        /// Delay bound Δ after stabilization.
        delta: Duration,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 8 }
    }
}

impl DelayModel {
    /// Samples a delay for a message sent at `now`.
    pub(crate) fn sample(&self, now: Time, rng: &mut StdRng) -> Duration {
        let d = match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => rng.gen_range(min..=max.max(min)),
            DelayModel::Gst {
                gst,
                pre_max,
                delta,
            } => {
                let bound = if now < gst { pre_max } else { delta };
                rng.gen_range(1..=bound.max(1))
            }
        };
        d.max(1)
    }

    /// The post-stabilization delay bound, if this model has one.
    pub fn eventual_bound(&self) -> Duration {
        match *self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => max.max(min).max(1),
            DelayModel::Gst { delta, .. } => delta.max(1),
        }
    }
}

/// Per-channel bookkeeping exposed after a run.
///
/// `in_transit` counts both directions of the unordered pair `{a, b}`, which
/// is the unit of the paper's §7 claim that *at most four messages are in
/// transit between each pair of neighbors at any time*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages currently in flight on the pair (both directions).
    pub in_transit: usize,
    /// Maximum simultaneous in-flight messages observed on the pair.
    pub high_water: usize,
    /// Total messages ever sent on the pair.
    pub total: u64,
    /// Messages destroyed in transit (random loss or partition cut).
    pub dropped: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages that escaped the FIFO floor and may overtake older ones.
    pub reordered: u64,
}

/// Delivery times of every copy of one send: at most a primary and one
/// duplicate, held inline so a send allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Deliveries {
    times: [Time; 2],
    len: u8,
}

impl Deliveries {
    const EMPTY: Deliveries = Deliveries {
        times: [Time::ZERO; 2],
        len: 0,
    };

    #[inline]
    fn push(&mut self, t: Time) {
        self.times[self.len as usize] = t;
        self.len += 1;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn as_slice(&self) -> &[Time] {
        &self.times[..self.len as usize]
    }
}

impl PartialEq for Deliveries {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Deliveries {}

/// What the network decided to do with one logical send.
///
/// The simulator turns each entry of `deliveries` into a `Deliver` event;
/// the flags drive kernel-trace records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SendDisposition {
    /// Delivery times of every copy that will arrive (empty if lost).
    pub deliveries: Deliveries,
    /// The message was destroyed by random loss.
    pub lost: bool,
    /// The message was destroyed by an active partition.
    pub cut_by_partition: bool,
    /// A duplicate copy was injected (second entry of `deliveries`).
    pub duplicated: bool,
    /// The primary copy bypassed the FIFO floor.
    pub reordered: bool,
}

/// Channel/edge bookkeeping.
///
/// Each ordered channel `(from, to)` is interned to a dense `u32` id on
/// first use via an `n × n` index table, and each unordered pair to a dense
/// edge id, so the per-message FIFO floor and stats are flat `Vec` reads.
/// The per-channel [`LinkFault`] spec is resolved once at intern time
/// instead of per send.
struct Channels {
    n: usize,
    /// `from.index() * n + to.index()` → channel id; `u32::MAX` = unassigned.
    chan_of: Vec<u32>,
    /// Per channel: last scheduled delivery time (the FIFO floor).
    floor: Vec<Time>,
    /// Per channel: the link-fault spec in force, interned once.
    fault: Vec<LinkFault>,
    /// Per channel: owning unordered-edge id.
    edge_of: Vec<u32>,
    /// Per edge: stats for the unordered pair.
    stats: Vec<ChannelStats>,
    /// Per edge: canonical `(lo, hi)` endpoints, in intern order.
    edges: Vec<(ProcessId, ProcessId)>,
}

fn unordered(a: ProcessId, b: ProcessId) -> (ProcessId, ProcessId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Channels {
    fn new(n: usize) -> Self {
        Channels {
            n,
            chan_of: vec![u32::MAX; n * n],
            floor: Vec::new(),
            fault: Vec::new(),
            edge_of: Vec::new(),
            stats: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Dense id of the ordered channel `from → to`, interning on first use.
    #[inline]
    fn channel(&mut self, from: ProcessId, to: ProcessId, faults: &FaultPlan) -> usize {
        let slot = from.index() * self.n + to.index();
        let id = self.chan_of[slot];
        if id != u32::MAX {
            return id as usize;
        }
        self.intern(slot, from, to, faults)
    }

    #[cold]
    fn intern(&mut self, slot: usize, from: ProcessId, to: ProcessId, faults: &FaultPlan) -> usize {
        let id = self.floor.len();
        self.chan_of[slot] = id as u32;
        self.floor.push(Time::ZERO);
        self.fault.push(faults.fault_for(from, to));
        let reverse = self.chan_of[to.index() * self.n + from.index()];
        let edge = if reverse != u32::MAX {
            self.edge_of[reverse as usize]
        } else {
            let e = self.stats.len() as u32;
            self.stats.push(ChannelStats::default());
            self.edges.push(unordered(from, to));
            e
        };
        self.edge_of.push(edge);
        id
    }

    /// Channel id if `from → to` has carried traffic.
    #[inline]
    fn lookup(&self, from: ProcessId, to: ProcessId) -> Option<usize> {
        let id = self.chan_of[from.index() * self.n + to.index()];
        (id != u32::MAX).then_some(id as usize)
    }
}

/// The network fabric: reliable FIFO by default, adversarial under a
/// [`FaultPlan`].
///
/// Without faults, every message sent is eventually delivered exactly once,
/// uncorrupted, in per-ordered-channel FIFO order. FIFO is enforced by never
/// scheduling a delivery earlier than the previously scheduled delivery on
/// the same ordered channel (ties broken by scheduling sequence in the event
/// queue). A fault plan may drop, duplicate, or reorder messages and cut
/// links during partitions; all decisions come from a dedicated RNG stream
/// so runs stay deterministic per seed. The delay model and fault plan are
/// owned by the caller and passed by reference per send.
pub(crate) struct Network {
    /// Dedicated RNG for fault decisions (seed XOR [`FAULT_STREAM_SALT`]).
    fault_rng: StdRng,
    channels: Channels,
    /// Messages sent to each destination after it crashed, by send time.
    to_crashed: Vec<(Time, ProcessId, ProcessId)>,
}

impl Network {
    pub fn new(n: usize, seed: u64) -> Self {
        Network {
            fault_rng: StdRng::seed_from_u64(seed ^ FAULT_STREAM_SALT),
            channels: Channels::new(n),
            to_crashed: Vec::new(),
        }
    }

    /// Decides the fate of a message sent at `now` on the ordered channel
    /// `from → to` and updates accounting.
    ///
    /// The fault-free path computes the FIFO-respecting delivery time
    /// exactly as the seed simulator did. Under a fault plan the message may
    /// additionally be dropped (loss or partition), duplicated, or allowed
    /// to overtake the FIFO floor.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_send(
        &mut self,
        delay: &DelayModel,
        faults: &FaultPlan,
        now: Time,
        from: ProcessId,
        to: ProcessId,
        dest_crashed: bool,
        rng: &mut StdRng,
    ) -> SendDisposition {
        if dest_crashed {
            self.to_crashed.push((now, from, to));
        }

        let mut disposition = SendDisposition {
            deliveries: Deliveries::EMPTY,
            lost: false,
            cut_by_partition: false,
            duplicated: false,
            reordered: false,
        };

        let c = &mut self.channels;
        let ch = c.channel(from, to, faults);
        let edge = c.edge_of[ch] as usize;
        c.stats[edge].total += 1;
        let fault = c.fault[ch];

        if !faults.partitions.is_empty() && faults.partitioned(from, to, now) {
            c.stats[edge].dropped += 1;
            disposition.cut_by_partition = true;
            return disposition;
        }
        if fault.loss > 0.0 && self.fault_rng.gen_bool(fault.loss.clamp(0.0, 1.0)) {
            c.stats[edge].dropped += 1;
            disposition.lost = true;
            return disposition;
        }

        let raw = now + delay.sample(now, rng);
        let reordered =
            fault.reorder > 0.0 && self.fault_rng.gen_bool(fault.reorder.clamp(0.0, 1.0));
        let delivery = if reordered {
            // Escape the FIFO floor: deliver at the raw sampled time plus
            // bounded jitter, possibly overtaking older messages. The floor
            // is left untouched so later traffic is not delayed behind the
            // straggler.
            c.stats[edge].reordered += 1;
            disposition.reordered = true;
            if fault.reorder_window > 0 {
                raw + self.fault_rng.gen_range(0..=fault.reorder_window)
            } else {
                raw
            }
        } else {
            let t = raw.max(c.floor[ch]);
            c.floor[ch] = t;
            t
        };
        disposition.deliveries.push(delivery);
        let s = &mut c.stats[edge];
        s.in_transit += 1;
        s.high_water = s.high_water.max(s.in_transit);

        if fault.dup > 0.0 && self.fault_rng.gen_bool(fault.dup.clamp(0.0, 1.0)) {
            // The duplicate takes an independently sampled delay and ignores
            // the FIFO floor — a classic retransmission ghost.
            let extra = now + delay.sample(now, &mut self.fault_rng);
            disposition.deliveries.push(extra);
            disposition.duplicated = true;
            s.duplicated += 1;
            s.in_transit += 1;
            s.high_water = s.high_water.max(s.in_transit);
        }
        disposition
    }

    /// Marks a message on `from → to` as delivered (or discarded at a
    /// crashed destination).
    pub fn complete_delivery(&mut self, from: ProcessId, to: ProcessId) {
        let c = &mut self.channels;
        let ch = c.lookup(from, to).expect("delivery without matching send");
        let s = &mut c.stats[c.edge_of[ch] as usize];
        debug_assert!(s.in_transit > 0, "channel accounting underflow");
        s.in_transit = s.in_transit.saturating_sub(1);
    }

    pub fn stats(&self, a: ProcessId, b: ProcessId) -> ChannelStats {
        let c = &self.channels;
        c.lookup(a, b)
            .or_else(|| c.lookup(b, a))
            .map(|ch| c.stats[c.edge_of[ch] as usize])
            .unwrap_or_default()
    }

    /// Stats per unordered pair, in intern order.
    pub fn all_stats(&self) -> impl Iterator<Item = ((ProcessId, ProcessId), ChannelStats)> + '_ {
        let c = &self.channels;
        c.edges.iter().copied().zip(c.stats.iter().copied())
    }

    /// `(send_time, from, to)` records of messages addressed to already
    /// crashed processes — the raw material of the quiescence experiment.
    pub fn sends_to_crashed(&self) -> &[(Time, ProcessId, ProcessId)] {
        &self.to_crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    const N: usize = 8;

    /// A network plus the plan/delay it is driven with, so tests keep the
    /// old one-object call shape.
    struct Rig {
        net: Network,
        delay: DelayModel,
        plan: FaultPlan,
    }

    impl Rig {
        fn new(delay: DelayModel, plan: FaultPlan, seed: u64) -> Self {
            Rig {
                net: Network::new(N, seed),
                delay,
                plan,
            }
        }

        fn send(
            &mut self,
            now: Time,
            from: ProcessId,
            to: ProcessId,
            dest_crashed: bool,
            rng: &mut StdRng,
        ) -> SendDisposition {
            self.net
                .schedule_send(&self.delay, &self.plan, now, from, to, dest_crashed, rng)
        }
    }

    #[test]
    fn fixed_delay_is_fixed() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = DelayModel::Fixed(5);
        for t in [0u64, 10, 1000] {
            assert_eq!(m.sample(Time(t), &mut rng), 5);
        }
        assert_eq!(m.eventual_bound(), 5);
    }

    #[test]
    fn uniform_delay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::Uniform { min: 2, max: 9 };
        for _ in 0..200 {
            let d = m.sample(Time(0), &mut rng);
            assert!((2..=9).contains(&d));
        }
        assert_eq!(m.eventual_bound(), 9);
    }

    #[test]
    fn gst_delay_shrinks_after_stabilization() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::Gst {
            gst: Time(100),
            pre_max: 1000,
            delta: 4,
        };
        let mut saw_large_pre = false;
        for _ in 0..300 {
            let pre = m.sample(Time(50), &mut rng);
            assert!((1..=1000).contains(&pre));
            saw_large_pre |= pre > 4;
            let post = m.sample(Time(100), &mut rng);
            assert!((1..=4).contains(&post));
        }
        assert!(
            saw_large_pre,
            "pre-GST delays should exceed delta sometimes"
        );
        assert_eq!(m.eventual_bound(), 4);
    }

    #[test]
    fn delay_never_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(DelayModel::Fixed(0).sample(Time(0), &mut rng), 1);
        let m = DelayModel::Uniform { min: 0, max: 0 };
        assert_eq!(m.sample(Time(0), &mut rng), 1);
    }

    fn reliable(delay: DelayModel) -> Rig {
        Rig::new(delay, FaultPlan::default(), 0)
    }

    /// One delivery time from a fault-free send.
    fn sole(d: SendDisposition) -> Time {
        assert_eq!(d.deliveries.len(), 1, "fault-free send must deliver once");
        d.deliveries.as_slice()[0]
    }

    #[test]
    fn fifo_preserved_even_with_random_delays() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut rig = reliable(DelayModel::Uniform { min: 1, max: 100 });
        let mut last = Time::ZERO;
        for t in 0..50u64 {
            let d = sole(rig.send(Time(t), p(0), p(1), false, &mut rng));
            assert!(d >= last, "delivery times must be monotone per channel");
            last = d;
        }
    }

    #[test]
    fn in_transit_accounting() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rig = reliable(DelayModel::Fixed(10));
        rig.send(Time(0), p(0), p(1), false, &mut rng);
        rig.send(Time(1), p(1), p(0), false, &mut rng);
        rig.send(Time(2), p(0), p(1), false, &mut rng);
        let s = rig.net.stats(p(1), p(0));
        assert_eq!(s.in_transit, 3);
        assert_eq!(s.high_water, 3);
        assert_eq!(s.total, 3);
        rig.net.complete_delivery(p(0), p(1));
        let s = rig.net.stats(p(0), p(1));
        assert_eq!(s.in_transit, 2);
        assert_eq!(s.high_water, 3, "high water mark is sticky");
    }

    #[test]
    fn records_sends_to_crashed() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut rig = reliable(DelayModel::Fixed(1));
        rig.send(Time(3), p(0), p(1), true, &mut rng);
        rig.send(Time(4), p(0), p(2), false, &mut rng);
        assert_eq!(rig.net.sends_to_crashed(), &[(Time(3), p(0), p(1))]);
    }

    /// Regression test: per-edge stats are keyed on the *unordered* pair, so
    /// high-water marks (the §7 "four messages per edge" unit) must be
    /// identical no matter which `(from, to)` orientation is queried, and no
    /// matter which direction the traffic flowed.
    #[test]
    fn edge_stats_are_orientation_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut rig = reliable(DelayModel::Fixed(10));
        // Interleave both orientations, including an asymmetric count.
        rig.send(Time(0), p(3), p(1), false, &mut rng);
        rig.send(Time(1), p(1), p(3), false, &mut rng);
        rig.send(Time(2), p(3), p(1), false, &mut rng);
        rig.send(Time(3), p(3), p(1), false, &mut rng);
        assert_eq!(rig.net.stats(p(1), p(3)), rig.net.stats(p(3), p(1)));
        let s = rig.net.stats(p(1), p(3));
        assert_eq!(s.total, 4, "both directions accumulate on one pair");
        assert_eq!(s.high_water, 4);
        // Deliveries completed with either orientation drain the same pair.
        rig.net.complete_delivery(p(3), p(1));
        rig.net.complete_delivery(p(1), p(3));
        assert_eq!(rig.net.stats(p(1), p(3)), rig.net.stats(p(3), p(1)));
        assert_eq!(rig.net.stats(p(1), p(3)).in_transit, 2);
        assert_eq!(
            rig.net.stats(p(1), p(3)).high_water,
            4,
            "high water must be orientation-independent and sticky"
        );
    }

    #[test]
    fn loss_drops_messages_and_counts_them() {
        let mut rng = StdRng::seed_from_u64(8);
        let plan = FaultPlan::new().loss(1.0);
        let mut rig = Rig::new(DelayModel::Fixed(5), plan, 8);
        let d = rig.send(Time(0), p(0), p(1), false, &mut rng);
        assert!(d.lost);
        assert!(d.deliveries.is_empty());
        let s = rig.net.stats(p(0), p(1));
        assert_eq!((s.total, s.dropped, s.in_transit), (1, 1, 0));
    }

    #[test]
    fn duplication_schedules_two_copies() {
        let mut rng = StdRng::seed_from_u64(9);
        let plan = FaultPlan::new().duplication(1.0);
        let mut rig = Rig::new(DelayModel::Fixed(5), plan, 9);
        let d = rig.send(Time(0), p(0), p(1), false, &mut rng);
        assert!(d.duplicated);
        assert_eq!(d.deliveries.len(), 2);
        let s = rig.net.stats(p(0), p(1));
        assert_eq!((s.total, s.duplicated, s.in_transit), (1, 1, 2));
    }

    #[test]
    fn partition_cuts_cross_traffic_until_heal() {
        let mut rng = StdRng::seed_from_u64(10);
        let plan = FaultPlan::new().partition(vec![p(0)], Time(10), Time(20));
        let mut rig = Rig::new(DelayModel::Fixed(1), plan, 10);
        let cut = rig.send(Time(15), p(0), p(1), false, &mut rng);
        assert!(cut.cut_by_partition && cut.deliveries.is_empty());
        let healed = rig.send(Time(20), p(0), p(1), false, &mut rng);
        assert_eq!(healed.deliveries.len(), 1);
        let s = rig.net.stats(p(0), p(1));
        assert_eq!((s.total, s.dropped), (2, 1));
    }

    #[test]
    fn reordered_message_can_overtake_the_fifo_floor() {
        let mut rng = StdRng::seed_from_u64(11);
        let plan = FaultPlan::new().reorder(1.0, 0);
        let mut rig = Rig::new(DelayModel::Uniform { min: 1, max: 100 }, plan, 11);
        let mut overtook = false;
        let mut last = Time::ZERO;
        for t in 0..100u64 {
            let d = rig.send(Time(t), p(0), p(1), false, &mut rng);
            assert!(d.reordered);
            let dt = sole(d);
            overtook |= dt < last;
            last = last.max(dt);
        }
        assert!(overtook, "full reordering should beat the floor sometimes");
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new().loss(0.3).duplication(0.2).reorder(0.2, 8);
            let mut rng = StdRng::seed_from_u64(42);
            let mut rig = Rig::new(DelayModel::Uniform { min: 1, max: 9 }, plan, seed);
            (0..200u64)
                .map(|t| rig.send(Time(t), p(0), p(1), false, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same fault seed, same dispositions");
        assert_ne!(run(5), run(6), "fault stream must depend on the seed");
        // FNV-1a over the debug rendering of the 200 dispositions.
        let digest = run(5)
            .iter()
            .flat_map(|d| format!("{d:?}\n").into_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            digest, 0xb951_2e2e_ecc0_aee3,
            "the committed fault stream moved"
        );
    }

    #[test]
    fn inert_plan_matches_fault_free_network_exactly() {
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        let mut plain = reliable(DelayModel::Uniform { min: 1, max: 50 });
        let mut inert = Rig::new(
            DelayModel::Uniform { min: 1, max: 50 },
            FaultPlan::new().loss(0.0),
            999,
        );
        for t in 0..100u64 {
            let a = plain.send(Time(t), p(0), p(1), false, &mut rng_a);
            let b = inert.send(Time(t), p(0), p(1), false, &mut rng_b);
            assert_eq!(a, b, "inert plan must not perturb the delay stream");
        }
    }
}
