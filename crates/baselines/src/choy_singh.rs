use ekbd_detector::SuspicionView;
use ekbd_dining::{DinerState, DiningAlgorithm, DiningInput, DiningMsg};
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};

use crate::table::{neighbors_in, Table, FORK, TOKEN};

/// Per-neighbor flags beside the fork and token (no `replied`: the
/// original doorway grants acks without a per-session limit).
const PINGED: u8 = 1 << 2;
const ACK: u8 = 1 << 3;
const DEFERRED: u8 = 1 << 4;

/// The original Choy–Singh asynchronous-doorway dining algorithm, as
/// described in §3 of Song & Pike before their two modifications.
///
/// Differences from Algorithm 1:
///
/// 1. **No failure detector.** The doorway guard requires *all* acks and
///    the eating guard *all* forks; a crashed neighbor therefore blocks its
///    hungry neighbors forever (no wait-freedom).
/// 2. **Unlimited acks.** A hungry process outside the doorway grants every
///    ping (the original rule: defer only while inside the doorway), so a
///    neighbor can overtake more than twice while it waits.
///
/// The message protocol (ping/ack, token/fork with color priorities, FIFO
/// channels) is otherwise identical, which isolates the contribution of
/// ◇P₁ and of the revised doorway in the experiments.
#[derive(Clone, Debug)]
pub struct ChoySinghProcess {
    table: Table,
    state: DinerState,
    inside: bool,
}

impl ChoySinghProcess {
    /// Creates the process; fork/token placement mirrors Algorithm 1 (fork
    /// at the higher-color endpoint).
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        ChoySinghProcess {
            table: Table::new(id, color, neighbors),
            state: DinerState::Thinking,
            inside: false,
        }
    }

    /// Creates the process from a colored conflict graph.
    pub fn from_graph(g: &ConflictGraph, colors: &[Color], id: ProcessId) -> Self {
        Self::new(id, colors[id.index()], neighbors_in(g, colors, id))
    }

    fn internal_actions(&mut self, sends: &mut Vec<(ProcessId, DiningMsg)>) {
        // Request acks (outside the doorway).
        if self.state == DinerState::Hungry && !self.inside {
            for j in 0..self.table.len() {
                if !self.table.get(j, PINGED) && !self.table.get(j, ACK) {
                    sends.push((self.table.at(j), DiningMsg::Ping));
                    self.table.set(j, PINGED, true);
                }
            }
            // Enter the doorway: ALL acks required — no oracle substitute.
            if (0..self.table.len()).all(|j| self.table.get(j, ACK)) {
                self.inside = true;
                for j in 0..self.table.len() {
                    self.table.set(j, ACK, false);
                }
            }
        }
        // Request forks (inside the doorway).
        if self.state == DinerState::Hungry && self.inside {
            for j in 0..self.table.len() {
                self.table.request(j, sends);
            }
            // Eat: ALL forks required.
            if (0..self.table.len()).all(|j| self.table.get(j, FORK)) {
                self.state = DinerState::Eating;
            }
        }
    }
}

impl DiningAlgorithm for ChoySinghProcess {
    type Msg = DiningMsg;

    fn id(&self) -> ProcessId {
        self.table.id
    }

    fn handle(
        &mut self,
        input: DiningInput<DiningMsg>,
        _suspicion: &dyn SuspicionView, // crash-oblivious: never consulted
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        match input {
            DiningInput::Hungry => {
                if self.state == DinerState::Thinking {
                    self.state = DinerState::Hungry;
                }
            }
            DiningInput::DoneEating => {
                if self.state == DinerState::Eating {
                    self.inside = false;
                    self.state = DinerState::Thinking;
                    for j in 0..self.table.len() {
                        if self.table.get(j, TOKEN) && self.table.get(j, FORK) {
                            self.table.give_fork(j, sends);
                        }
                        if self.table.get(j, DEFERRED) {
                            sends.push((self.table.at(j), DiningMsg::Ack));
                            self.table.set(j, DEFERRED, false);
                        }
                    }
                }
            }
            DiningInput::Message { from, msg } => {
                let j = self.table.idx(from);
                match msg {
                    DiningMsg::Ping => {
                        // Original rule: defer only while inside the doorway.
                        if self.inside {
                            self.table.set(j, DEFERRED, true);
                        } else {
                            sends.push((from, DiningMsg::Ack));
                        }
                    }
                    DiningMsg::Ack => {
                        let useful = self.state == DinerState::Hungry && !self.inside;
                        self.table.set(j, ACK, useful);
                        self.table.set(j, PINGED, false);
                    }
                    DiningMsg::Request { color } => {
                        self.table.take_token(j);
                        let grant = !self.inside
                            || (self.state == DinerState::Hungry && self.table.color < color);
                        if grant {
                            self.table.give_fork(j, sends);
                        }
                    }
                    DiningMsg::Fork => self.table.take_fork(j),
                }
            }
            DiningInput::SuspicionChange => {}
        }
        self.internal_actions(sends);
    }

    fn state(&self) -> DinerState {
        self.state
    }

    fn inside_doorway(&self) -> bool {
        self.inside
    }

    /// 2 (state) + 1 (inside) + ⌈log₂(δ+1)⌉ (color) + 5δ (one flag fewer
    /// than Algorithm 1: no `replied`).
    fn state_bits(&self) -> usize {
        2 + 1 + self.table.width() + 5 * self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    fn none() -> BTreeSet<ProcessId> {
        BTreeSet::new()
    }

    #[test]
    fn two_process_handshake_completes() {
        let mut hi = ChoySinghProcess::new(p(0), 1, [(p(1), 0)]);
        let mut lo = ChoySinghProcess::new(p(1), 0, [(p(0), 1)]);
        let mut out = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut out);
        assert_eq!(out, vec![(p(0), DiningMsg::Ping)]);
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(1), DiningMsg::Ack)]);
        let mut out = Vec::new();
        lo.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut out,
        );
        assert!(lo.inside_doorway());
        assert_eq!(out, vec![(p(0), DiningMsg::Request { color: 0 })]);
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(1), DiningMsg::Fork)]);
        lo.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut Vec::new(),
        );
        assert_eq!(lo.state(), DinerState::Eating);
    }

    #[test]
    fn suspicion_is_ignored() {
        // Even with every neighbor suspected, the crash-oblivious doorway
        // still waits for real acks: no progress.
        let mut lo = ChoySinghProcess::new(p(1), 0, [(p(0), 1)]);
        let everyone: BTreeSet<ProcessId> = [p(0)].into_iter().collect();
        let mut out = Vec::new();
        lo.handle(DiningInput::Hungry, &everyone, &mut out);
        assert_eq!(lo.state(), DinerState::Hungry);
        assert!(!lo.inside_doorway());
        assert_eq!(
            out,
            vec![(p(0), DiningMsg::Ping)],
            "still pings, still waits"
        );
    }

    #[test]
    fn hungry_process_grants_unlimited_acks() {
        // The original doorway has no `replied` limit: a hungry process
        // outside the doorway acks every ping.
        let mut lo = ChoySinghProcess::new(p(1), 0, [(p(0), 1)]);
        lo.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        for _ in 0..3 {
            let mut out = Vec::new();
            lo.handle(
                DiningInput::Message {
                    from: p(0),
                    msg: DiningMsg::Ping,
                },
                &none(),
                &mut out,
            );
            assert_eq!(out, vec![(p(0), DiningMsg::Ack)]);
        }
    }

    #[test]
    fn state_bits_smaller_than_algorithm1() {
        let cs = ChoySinghProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        assert_eq!(cs.state_bits(), 2 + 1 + 2 + 10);
    }
}
