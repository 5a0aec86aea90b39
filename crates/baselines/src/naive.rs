use ekbd_detector::SuspicionView;
use ekbd_dining::{DinerState, DiningAlgorithm, DiningInput, DiningMsg};
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};

use crate::table::{neighbors_in, Table, FORK, TOKEN};

/// Fork collection with static color priorities and **no doorway**.
///
/// The hungry process requests every missing fork; the holder grants unless
/// it is eating or is itself hungry with the higher color. Eating requires
/// every fork to be held or its holder suspected (so the algorithm is
/// crash-tolerant via ◇P₁, like Algorithm 1's phase 2 alone).
///
/// What it lacks is *fairness*: nothing stops a higher-color neighbor from
/// re-acquiring a contested fork again and again while a lower-color diner
/// stays hungry. The overtaking count is bounded only by the neighbor's
/// appetite — this is the baseline the asynchronous doorway (and the
/// paper's ◇2-BW theorem) improves on, measured in experiment E3.
#[derive(Clone, Debug)]
pub struct NaivePriorityProcess {
    table: Table,
    state: DinerState,
}

impl NaivePriorityProcess {
    /// Creates the process; fork at the higher-color endpoint, token at the
    /// lower, as in Algorithm 1.
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        NaivePriorityProcess {
            table: Table::new(id, color, neighbors),
            state: DinerState::Thinking,
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
        for j in 0..self.table.len() {
            self.table.request(j, sends);
        }
        let all = (0..self.table.len())
            .all(|j| self.table.get(j, FORK) || suspicion.suspects(self.table.at(j)));
        if all {
            self.state = DinerState::Eating;
        }
    }
}

impl DiningAlgorithm for NaivePriorityProcess {
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
                }
            }
            DiningInput::DoneEating => {
                if self.state == DinerState::Eating {
                    self.state = DinerState::Thinking;
                    for j in 0..self.table.len() {
                        if self.table.get(j, TOKEN) && self.table.get(j, FORK) {
                            self.table.give_fork(j, sends);
                        }
                    }
                }
            }
            DiningInput::Message { from, msg } => {
                let j = self.table.idx(from);
                match msg {
                    DiningMsg::Request { color } => {
                        self.table.take_token(j);
                        // Defer while eating, or while hungry with the
                        // higher color; grant otherwise.
                        let grant = match self.state {
                            DinerState::Eating => false,
                            DinerState::Hungry => self.table.color < color,
                            DinerState::Thinking => true,
                        };
                        if grant {
                            self.table.give_fork(j, sends);
                        }
                    }
                    DiningMsg::Fork => self.table.take_fork(j),
                    DiningMsg::Ping | DiningMsg::Ack => {
                        debug_assert!(false, "naive dining has no doorway traffic");
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

    /// 2 (state) + ⌈log₂(δ+1)⌉ (color) + 2δ (fork, token).
    fn state_bits(&self) -> usize {
        2 + self.table.width() + 2 * self.table.len()
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
    fn fork_transfer_lets_low_color_eat() {
        let mut hi = NaivePriorityProcess::new(p(0), 1, [(p(1), 0)]);
        let mut lo = NaivePriorityProcess::new(p(1), 0, [(p(0), 1)]);
        let mut out = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut out);
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
        assert_eq!(out, vec![(p(1), DiningMsg::Fork)], "thinking holder grants");
        let mut out = Vec::new();
        lo.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut out,
        );
        assert_eq!(lo.state(), DinerState::Eating);
    }

    #[test]
    fn hungry_higher_color_defers_lower_request() {
        let mut hi = NaivePriorityProcess::new(p(0), 1, [(p(1), 0)]);
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        assert_eq!(hi.state(), DinerState::Eating, "held its only fork");
        // Make a fresh hungry-but-not-eating hi with two neighbors.
        let mut hi = NaivePriorityProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        let mut out = Vec::new();
        hi.handle(DiningInput::Hungry, &none(), &mut out);
        assert_eq!(hi.state(), DinerState::Hungry, "fork from p2 missing");
        assert_eq!(out, vec![(p(2), DiningMsg::Request { color: 1 })]);
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "hungry higher color defers");
    }

    #[test]
    fn suspicion_substitutes_for_forks() {
        let mut lo = NaivePriorityProcess::new(p(1), 0, [(p(0), 1)]);
        let everyone: BTreeSet<ProcessId> = [p(0)].into_iter().collect();
        let mut out = Vec::new();
        lo.handle(DiningInput::Hungry, &everyone, &mut out);
        assert_eq!(lo.state(), DinerState::Eating, "wait-free via ◇P₁");
    }

    #[test]
    fn exit_grants_deferred_requests() {
        let mut hi = NaivePriorityProcess::new(p(0), 1, [(p(1), 0)]);
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        assert_eq!(hi.state(), DinerState::Eating);
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "eating holder defers");
        let mut out = Vec::new();
        hi.handle(DiningInput::DoneEating, &none(), &mut out);
        assert_eq!(out, vec![(p(1), DiningMsg::Fork)]);
    }

    #[test]
    fn state_bits_is_leanest() {
        let n = NaivePriorityProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        assert_eq!(n.state_bits(), 2 + 2 + 4);
    }
}
