use crate::msg::DiningMsg;
use crate::process::DiningProcess;
use crate::traits::{DinerState, DiningAlgorithm, DiningInput};
use ekbd_detector::SuspicionView;
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};

/// Algorithm 1 with a **generalized doorway ack budget** — the knob behind
/// the paper's title.
///
/// Algorithm 1 grants at most *one* ack per neighbor per hungry session
/// (the `replied` bit), which yields eventual **2**-bounded waiting: a
/// neighbor can enter the doorway once on a fresh ack and once more on an
/// ack that was already in flight. Generalizing `replied` from a bit to a
/// counter with budget `m` yields eventual **(m+1)**-bounded waiting by
/// the same argument: `m` acks granted during the session plus at most one
/// in flight from just before it started.
///
/// `BudgetedDiningProcess::new(.., 1)` is behaviorally identical to
/// [`DiningProcess`]; larger budgets trade fairness for doorway throughput
/// (fewer deferred acks ⇒ less blocking). The `e10_ack_budget` experiment
/// measures exactly the predicted `k = m + 1` staircase.
///
/// All other guarantees (◇WX safety, wait-freedom, fork uniqueness,
/// channel bounds, quiescence) are unaffected: the budget only changes
/// *when* acks are granted, never the fork protocol. So this *is* a
/// [`DiningProcess`] plus one counter per neighbor: a ping is answered
/// here, with `replied` set by the grant that spends the budget, and every
/// other input goes to the inner process.
#[derive(Clone, Debug)]
pub struct BudgetedDiningProcess {
    inner: DiningProcess,
    budget: u32,
    /// Acks granted to each neighbor during the current hungry session
    /// (the generalized `replied`).
    granted: Vec<u32>,
}

impl BudgetedDiningProcess {
    /// Creates the process with the given ack `budget ≥ 1` per neighbor
    /// per hungry session.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` (a zero budget deadlocks two hungry
    /// neighbors outside the doorway), on self-neighbors, or on improper
    /// colors.
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
        budget: u32,
    ) -> Self {
        assert!(budget >= 1, "ack budget must be at least 1");
        let inner = DiningProcess::new(id, color, neighbors);
        BudgetedDiningProcess {
            granted: vec![0; inner.neighbors().len()],
            inner,
            budget,
        }
    }

    /// Creates the process from a colored conflict graph.
    pub fn from_graph(g: &ConflictGraph, colors: &[Color], id: ProcessId, budget: u32) -> Self {
        Self::new(
            id,
            colors[id.index()],
            g.neighbors(id).iter().map(|&q| (q, colors[q.index()])),
            budget,
        )
    }

    /// The configured ack budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Whether this process currently holds the fork shared with `q`.
    pub fn holds_fork(&self, q: ProcessId) -> bool {
        self.inner.holds_fork(q)
    }

    /// Whether this process currently holds the token shared with `q`.
    pub fn holds_token(&self, q: ProcessId) -> bool {
        self.inner.holds_token(q)
    }
}

impl DiningAlgorithm for BudgetedDiningProcess {
    type Msg = DiningMsg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn handle(
        &mut self,
        input: DiningInput<DiningMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        let outside = !self.inner.inside_doorway();
        let input = match input {
            DiningInput::Message {
                from,
                msg: DiningMsg::Ping,
            } => {
                // Generalized Action 3; what is left of the event is the
                // internal actions, which is all a suspicion change runs.
                let j = self.inner.slot(from);
                let hungry = self.inner.state() == DinerState::Hungry;
                let spent = hungry && self.granted[j] + 1 >= self.budget;
                if self.inner.ping(j, spent) {
                    sends.push((from, DiningMsg::Ack));
                    if hungry {
                        self.granted[j] += 1;
                    }
                }
                DiningInput::SuspicionChange
            }
            other => other,
        };
        self.inner.handle(input, suspicion, sends);
        if outside && self.inner.inside_doorway() {
            self.granted.fill(0);
        }
    }

    fn state(&self) -> DinerState {
        self.inner.state()
    }

    fn inside_doorway(&self) -> bool {
        self.inner.inside_doorway()
    }

    /// `log₂(δ) + (5 + ⌈log₂(budget+1)⌉)·δ + c`: the `replied` bit becomes
    /// a ⌈log₂(budget+1)⌉-bit counter.
    fn state_bits(&self) -> usize {
        let delta = self.granted.len();
        let color_bits = (usize::BITS - delta.max(1).leading_zeros()) as usize;
        let counter_bits = (u32::BITS - self.budget.leading_zeros()) as usize;
        2 + 1 + color_bits + (5 + counter_bits) * delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiningProcess;
    use std::collections::BTreeSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    fn none() -> BTreeSet<ProcessId> {
        BTreeSet::new()
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_budget() {
        let _ = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0)], 0);
    }

    #[test]
    fn budget_m_grants_m_acks_then_defers() {
        let mut proc_ = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0)], 3);
        proc_.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        for round in 0..3 {
            let mut out = Vec::new();
            proc_.handle(
                DiningInput::Message {
                    from: p(1),
                    msg: DiningMsg::Ping,
                },
                &none(),
                &mut out,
            );
            assert_eq!(out, vec![(p(1), DiningMsg::Ack)], "grant {round}");
        }
        let mut out = Vec::new();
        proc_.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "budget exhausted ⇒ deferred");
    }

    #[test]
    fn budget_resets_on_doorway_entry() {
        let mut proc_ = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0)], 1);
        proc_.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        proc_.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut Vec::new(),
        );
        // Enter the doorway via the neighbor's ack; fork already held ⇒ eats.
        proc_.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut Vec::new(),
        );
        assert_eq!(proc_.state(), DinerState::Eating);
        // Exit; new session: the budget is fresh again.
        proc_.handle(DiningInput::DoneEating, &none(), &mut Vec::new());
        proc_.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        let mut out = Vec::new();
        proc_.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert!(out.contains(&(p(1), DiningMsg::Ack)));
    }

    #[test]
    fn budget_one_mirrors_algorithm_one() {
        // Drive both implementations through the same event sequence and
        // compare every output and state.
        let mut reference = DiningProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        let mut budgeted = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)], 1);
        let script: Vec<DiningInput<DiningMsg>> = vec![
            DiningInput::Hungry,
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Ack,
            },
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Fork,
            },
            DiningInput::DoneEating,
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
        ];
        for input in script {
            let mut a = Vec::new();
            let mut b = Vec::new();
            reference.handle(input.clone(), &none(), &mut a);
            budgeted.handle(input, &none(), &mut b);
            assert_eq!(a, b);
            assert_eq!(reference.state(), budgeted.state());
            assert_eq!(reference.inside_doorway(), budgeted.inside_doorway());
        }
    }

    #[test]
    fn state_bits_grow_with_budget() {
        let b1 = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0)], 1);
        let b3 = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0)], 3);
        assert_eq!(b1.state_bits(), 2 + 1 + 1 + 6); // counter bit = 1
        assert_eq!(b3.state_bits(), 2 + 1 + 1 + 7); // counter bits = 2
        assert_eq!(b1.budget(), 1);
    }
}
