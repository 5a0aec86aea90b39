use ekbd_detector::SuspicionView;
use ekbd_dining::{DinerState, DiningAlgorithm, DiningInput, DiningMsg};
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};

use crate::table::{neighbors_in, Table, FORK};

/// Set on a neighbor whose fork request waits until this process has eaten.
const DEFERRED: u8 = 1 << 2;

/// Dijkstra's resource-hierarchy dining: forks are acquired **one at a
/// time in a global order** (here: neighbor id order), and a held fork is
/// never released while hungry.
///
/// Acquiring in a fixed global order makes the wait-for graph acyclic, so
/// the algorithm is deadlock-free *and* starvation-free without any
/// doorway — the textbook alternative to Choy–Singh. Its weaknesses are
/// exactly what the experiments show:
///
/// * **no crash tolerance** (this implementation takes ◇P₁ for the eat
///   guard like Algorithm 1, so it stays wait-free in our runs; drop the
///   oracle and it blocks like Choy–Singh);
/// * **low concurrency**: holding fork `k` while waiting for fork `k+1`
///   serializes long chains, which shows up as higher hungry-session
///   latency and lower throughput in E12.
#[derive(Clone, Debug)]
pub struct HierarchicalProcess {
    table: Table,
    state: DinerState,
    /// Index of the next fork to acquire (in sorted-neighbor order).
    cursor: usize,
}

impl HierarchicalProcess {
    /// Creates the process; initial fork placement mirrors Algorithm 1
    /// (fork at the higher color, token at the lower).
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        HierarchicalProcess {
            table: Table::new(id, color, neighbors),
            state: DinerState::Thinking,
            cursor: 0,
        }
    }

    /// Creates the process from a colored conflict graph.
    pub fn from_graph(g: &ConflictGraph, colors: &[Color], id: ProcessId) -> Self {
        Self::new(id, colors[id.index()], neighbors_in(g, colors, id))
    }

    fn internal_actions(
        &mut self,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        if self.state != DinerState::Hungry {
            return;
        }
        // Advance the cursor over forks already held or owned by suspects,
        // requesting at most ONE outstanding fork at a time (the ordered
        // acquisition that makes the wait-for graph acyclic).
        while self.cursor < self.table.len() {
            let j = self.cursor;
            if self.table.get(j, FORK) || suspicion.suspects(self.table.at(j)) {
                self.cursor += 1;
            } else {
                self.table.request(j, sends);
                return; // wait for this fork before touching the next
            }
        }
        self.state = DinerState::Eating;
    }
}

impl DiningAlgorithm for HierarchicalProcess {
    type Msg = DiningMsg;

    fn id(&self) -> ProcessId {
        self.table.id
    }

    fn handle(
        &mut self,
        input: DiningInput<DiningMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        match input {
            DiningInput::Hungry => {
                if self.state == DinerState::Thinking {
                    self.state = DinerState::Hungry;
                    self.cursor = 0;
                }
            }
            DiningInput::DoneEating => {
                if self.state == DinerState::Eating {
                    self.state = DinerState::Thinking;
                    self.cursor = 0;
                    for j in 0..self.table.len() {
                        if self.table.get(j, DEFERRED) && self.table.get(j, FORK) {
                            self.table.give_fork(j, sends);
                            self.table.set(j, DEFERRED, false);
                        }
                    }
                }
            }
            DiningInput::Message { from, msg } => {
                let j = self.table.idx(from);
                match msg {
                    DiningMsg::Request { .. } => {
                        self.table.take_token(j);
                        // A hungry process holding the fork keeps it only
                        // while it has not passed it in acquisition order:
                        // holding lower-order forks while granting
                        // higher-order ones would break the hierarchy, so
                        // defer iff eating, or hungry and this fork is at
                        // or below the cursor (already "locked in").
                        let locked = match self.state {
                            DinerState::Eating => true,
                            DinerState::Hungry => j < self.cursor.min(self.table.len()),
                            DinerState::Thinking => false,
                        };
                        if locked {
                            self.table.set(j, DEFERRED, true);
                        } else {
                            self.table.give_fork(j, sends);
                        }
                    }
                    DiningMsg::Fork => self.table.take_fork(j),
                    DiningMsg::Ping | DiningMsg::Ack => {
                        debug_assert!(false, "hierarchical dining has no doorway traffic");
                    }
                }
            }
            DiningInput::SuspicionChange => {}
        }
        self.internal_actions(suspicion, sends);
    }

    fn state(&self) -> DinerState {
        self.state
    }

    /// 2 (state) + ⌈log₂(δ+1)⌉ (color) + ⌈log₂(δ+1)⌉ (cursor) + 3δ.
    fn state_bits(&self) -> usize {
        2 + 2 * self.table.width() + 3 * self.table.len()
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
    fn requests_forks_one_at_a_time() {
        // p1 with neighbors p0 (higher color) and p2 (higher color): holds
        // neither fork, must request p0's first, p2's only after.
        let mut proc_ = HierarchicalProcess::new(p(1), 0, [(p(0), 1), (p(2), 2)]);
        let mut out = Vec::new();
        proc_.handle(DiningInput::Hungry, &none(), &mut out);
        assert_eq!(out, vec![(p(0), DiningMsg::Request { color: 0 })]);
        // First fork arrives → only now the second request goes out.
        let mut out = Vec::new();
        proc_.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(2), DiningMsg::Request { color: 0 })]);
        let mut out = Vec::new();
        proc_.handle(
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut out,
        );
        assert_eq!(proc_.state(), DinerState::Eating);
    }

    #[test]
    fn locked_forks_are_deferred_until_exit() {
        let mut proc_ = HierarchicalProcess::new(p(1), 0, [(p(0), 1), (p(2), 2)]);
        proc_.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        proc_.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut Vec::new(),
        );
        // p0's fork is now "locked in" (cursor has moved past it): a
        // request for it is deferred even though p1 is still hungry.
        let mut out = Vec::new();
        proc_.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Request { color: 1 },
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "locked fork deferred");
        // Finish acquiring and eating; exit returns the deferred fork.
        proc_.handle(
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut Vec::new(),
        );
        assert_eq!(proc_.state(), DinerState::Eating);
        let mut out = Vec::new();
        proc_.handle(DiningInput::DoneEating, &none(), &mut out);
        assert_eq!(out, vec![(p(0), DiningMsg::Fork)]);
    }

    #[test]
    fn thinking_holder_grants_immediately() {
        let mut holder = HierarchicalProcess::new(p(0), 1, [(p(1), 0)]);
        let mut out = Vec::new();
        holder.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(1), DiningMsg::Fork)]);
    }

    #[test]
    fn suspicion_skips_dead_fork_owners() {
        let mut proc_ = HierarchicalProcess::new(p(1), 0, [(p(0), 1), (p(2), 2)]);
        let suspects: BTreeSet<ProcessId> = [p(0), p(2)].into_iter().collect();
        let mut out = Vec::new();
        proc_.handle(DiningInput::Hungry, &suspects, &mut out);
        assert_eq!(proc_.state(), DinerState::Eating, "wait-free via ◇P₁");
        assert!(out.is_empty());
    }

    #[test]
    fn state_bits_accounting() {
        let h = HierarchicalProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        assert_eq!(h.state_bits(), 2 + 2 + 2 + 6);
    }
}
