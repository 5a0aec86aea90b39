//! Aggregated link-layer health of one run.

use ekbd_link::LinkStats;

/// System-wide totals of the `ekbd-link` recovery layer's [`LinkStats`] — what
/// the fault-injection experiments (e14) report alongside the paper's
/// theorem checks. Counter fields sum over all processes; `max_unacked`
/// takes the maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkSummary {
    /// Logical payloads handed to the link layer by the application.
    pub payloads_sent: u64,
    /// First transmissions of data frames.
    pub data_sent: u64,
    /// Frames sent again by retransmission timers or post-suspicion
    /// recovery.
    pub retransmissions: u64,
    /// Ack frames sent.
    pub acks_sent: u64,
    /// Received frames discarded as already-delivered duplicates.
    pub duplicates_suppressed: u64,
    /// Received frames parked out of order awaiting a gap fill.
    pub out_of_order_buffered: u64,
    /// Payloads released to the application (exactly once each).
    pub delivered: u64,
    /// Pause-then-resume cycles triggered by retracted suspicions.
    pub recoveries: u64,
    /// High-water mark of distinct unacked payloads from any process to any
    /// single peer — the per-edge channel-occupancy bound of §7 restated
    /// for lossy channels (in *distinct payloads* rather than in-flight
    /// copies).
    pub max_unacked: usize,
}

impl LinkSummary {
    /// Folds one process's counters into the system-wide summary.
    pub fn absorb(&mut self, s: &LinkStats) {
        self.payloads_sent += s.payloads_sent;
        self.data_sent += s.data_sent;
        self.retransmissions += s.retransmissions;
        self.acks_sent += s.acks_sent;
        self.duplicates_suppressed += s.duplicates_suppressed;
        self.out_of_order_buffered += s.out_of_order_buffered;
        self.delivered += s.delivered;
        self.recoveries += s.recoveries;
        self.max_unacked = self.max_unacked.max(s.max_unacked);
    }

    /// Retransmissions per first transmission — the channel's effective
    /// redundancy overhead (0 on a clean channel).
    pub fn retransmit_ratio(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.data_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_maxes_the_high_water() {
        let mut s = LinkSummary::default();
        s.absorb(&LinkStats {
            payloads_sent: 10,
            data_sent: 10,
            retransmissions: 2,
            acks_sent: 8,
            duplicates_suppressed: 1,
            out_of_order_buffered: 3,
            delivered: 8,
            recoveries: 1,
            max_unacked: 2,
            ..LinkStats::default()
        });
        s.absorb(&LinkStats {
            payloads_sent: 5,
            data_sent: 5,
            acks_sent: 5,
            delivered: 5,
            max_unacked: 4,
            ..LinkStats::default()
        });
        assert_eq!(s.payloads_sent, 15);
        assert_eq!(s.data_sent, 15);
        assert_eq!(s.retransmissions, 2);
        assert_eq!(s.acks_sent, 13);
        assert_eq!(s.duplicates_suppressed, 1);
        assert_eq!(s.out_of_order_buffered, 3);
        assert_eq!(s.delivered, 13);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.max_unacked, 4, "high-water takes the max, not the sum");
    }

    #[test]
    fn retransmit_ratio_handles_zero() {
        let mut s = LinkSummary::default();
        assert_eq!(s.retransmit_ratio(), 0.0);
        s.absorb(&LinkStats {
            data_sent: 10,
            retransmissions: 5,
            ..LinkStats::default()
        });
        assert!((s.retransmit_ratio() - 0.5).abs() < 1e-12);
    }
}
