use ekbd_graph::coloring::Color;
use ekbd_graph::ProcessId;
use ekbd_sim::alg1::Msg;

/// Wire messages of Algorithm 1.
///
/// Exactly four message types exist (§7): `ping`/`ack` implement the revised
/// doorway protocol, `request`/`fork` the fork-collection scheme. Between any
/// neighbor pair at most one fork, one token (request), and one ping-or-ack
/// per direction-initiator can be in transit, which bounds every channel at
/// four messages (claim S2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiningMsg {
    /// Doorway request: "may I enter?" (Action 2).
    Ping,
    /// Doorway grant (Actions 3 and 10).
    Ack,
    /// Fork request carrying the requester's static color; sending it
    /// transfers the edge's token to the receiver (Action 6).
    Request {
        /// The requester's color (priority).
        color: Color,
    },
    /// The edge's fork (Actions 7 and 10).
    Fork,
}

impl DiningMsg {
    /// Payload size in bits, per the paper's §7 accounting: `ping`, `ack`
    /// and `fork` carry only the sender id (supplied by the transport);
    /// `request` additionally encodes the color, which needs `⌈log₂ n⌉`
    /// bits for an n-process system (colors are bounded by δ + 1 ≤ n).
    pub fn payload_bits(&self, n: usize) -> usize {
        match self {
            DiningMsg::Request { .. } => {
                // ⌈log₂ n⌉ = number of bits needed to index n values.
                (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
            }
            _ => 0,
        }
    }
}

/// Where a shared Algorithm 1 action's sends go: slot `j` is
/// `neighbors[j]`, and a request carries the sender's `color`.
pub(crate) fn outbox<'a>(
    neighbors: &'a [ProcessId],
    color: Color,
    sends: &'a mut Vec<(ProcessId, DiningMsg)>,
) -> impl FnMut(usize, Msg) + 'a {
    move |j, msg| {
        let msg = match msg {
            Msg::Ping => DiningMsg::Ping,
            Msg::Ack => DiningMsg::Ack,
            Msg::Request => DiningMsg::Request { color },
            Msg::Fork => DiningMsg::Fork,
        };
        sends.push((neighbors[j], msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_payload_is_logarithmic() {
        let m = DiningMsg::Request { color: 3 };
        assert_eq!(m.payload_bits(2), 1);
        assert_eq!(m.payload_bits(16), 4);
        assert_eq!(m.payload_bits(17), 5);
        assert_eq!(m.payload_bits(1024), 10);
    }

    #[test]
    fn control_messages_carry_no_payload() {
        for m in [DiningMsg::Ping, DiningMsg::Ack, DiningMsg::Fork] {
            assert_eq!(m.payload_bits(1024), 0);
        }
    }
}
