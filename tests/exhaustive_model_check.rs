//! Exhaustive model checking of Algorithm 1 on small instances.
//!
//! Unlike the randomized fuzzers, this explores **every** reachable
//! configuration of the composed system (process states × channel
//! contents × remaining workload) by memoized depth-first search over all
//! interleavings of message deliveries and environment actions, and
//! asserts in every reachable state:
//!
//! * **safety** — with an accurate-from-the-start oracle (only genuinely
//!   crashed processes suspected), no two live neighbors are ever eating
//!   simultaneously, in *any* schedule (perpetual weak exclusion, the
//!   special case of Theorem 1 where convergence happened at time 0);
//! * **fork/token conservation** (Lemmas 1.1–1.2), counting in-flight
//!   messages;
//! * **channel bound** — every directed channel holds ≤ 2 messages, i.e.
//!   ≤ 4 per edge (§7);
//! * **deadlock-freedom** — every *terminal* state (no deliveries or
//!   environment actions possible) has no live hungry process: progress
//!   cannot wedge, under any schedule.
//!
//! This is the strongest correctness statement in the test suite: for
//! these instances the theorems hold not just on sampled runs but on the
//! complete reachable state space. `DiningProcess` keeps its flags as the
//! S1 words of `ekbd_sim::alg1` and runs that module's guard pass and
//! actions, which the packed scale kernel runs too, so the search covers
//! the one encoding both tiers share.

use ekbd::dining::{DinerState, DiningAlgorithm, DiningInput, DiningMsg, DiningProcess};
use ekbd::graph::{ConflictGraph, ProcessId};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// The composed system configuration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct World {
    procs: Vec<DiningProcess>,
    /// One FIFO queue per directed edge, indexed as in `Model::dirs`.
    chans: Vec<VecDeque<DiningMsg>>,
    /// Hungry sessions each process may still start.
    sessions_left: Vec<u8>,
}

struct Model {
    graph: ConflictGraph,
    /// Directed edges (from, to) in a fixed order.
    dirs: Vec<(ProcessId, ProcessId)>,
    crashed: Vec<bool>,
    /// Static, exact suspicion: each live process suspects exactly its
    /// crashed neighbors from time zero.
    suspects: Vec<BTreeSet<ProcessId>>,
    /// Safety valve for the search.
    max_states: usize,
}

impl Model {
    fn new(graph: ConflictGraph, colors: &[u32], crashed_ids: &[usize]) -> Self {
        let n = graph.len();
        let crashed: Vec<bool> = (0..n).map(|i| crashed_ids.contains(&i)).collect();
        let suspects: Vec<BTreeSet<ProcessId>> = (0..n)
            .map(|i| {
                graph
                    .neighbors(ProcessId::from(i))
                    .iter()
                    .copied()
                    .filter(|q| crashed[q.index()])
                    .collect()
            })
            .collect();
        let mut dirs = Vec::new();
        for e in graph.edges() {
            dirs.push((e.lo, e.hi));
            dirs.push((e.hi, e.lo));
        }
        let _ = colors;
        Model {
            graph,
            dirs,
            crashed,
            suspects,
            max_states: 6_000_000,
        }
    }

    fn initial(&self, colors: &[u32], sessions: u8) -> World {
        let procs = self
            .graph
            .processes()
            .map(|p| DiningProcess::from_graph(&self.graph, colors, p))
            .collect();
        World {
            procs,
            chans: vec![VecDeque::new(); self.dirs.len()],
            sessions_left: vec![sessions; self.graph.len()],
        }
    }

    fn dir_index(&self, from: ProcessId, to: ProcessId) -> usize {
        self.dirs
            .iter()
            .position(|&(f, t)| f == from && t == to)
            .expect("message sent on a non-edge")
    }

    /// Applies one input to process `p`, routing its sends.
    fn apply(&self, w: &mut World, p: ProcessId, input: DiningInput<DiningMsg>) {
        let mut sends = Vec::new();
        let sus = &self.suspects[p.index()];
        w.procs[p.index()].handle(input, sus, &mut sends);
        for (to, msg) in sends {
            w.chans[self.dir_index(p, to)].push_back(msg);
        }
    }

    /// All successor worlds.
    fn successors(&self, w: &World) -> Vec<World> {
        let mut next = Vec::new();
        // Deliveries: head of each nonempty channel.
        for (d, &(from, to)) in self.dirs.iter().enumerate() {
            if w.chans[d].is_empty() {
                continue;
            }
            let mut w2 = w.clone();
            let msg = w2.chans[d].pop_front().expect("nonempty");
            if !self.crashed[to.index()] {
                self.apply(&mut w2, to, DiningInput::Message { from, msg });
            }
            next.push(w2);
        }
        // Environment: hunger and meal endings.
        for i in 0..w.procs.len() {
            if self.crashed[i] {
                continue;
            }
            let p = ProcessId::from(i);
            if w.procs[i].state() == DinerState::Thinking && w.sessions_left[i] > 0 {
                let mut w2 = w.clone();
                w2.sessions_left[i] -= 1;
                self.apply(&mut w2, p, DiningInput::Hungry);
                next.push(w2);
            }
            if w.procs[i].state() == DinerState::Eating {
                let mut w2 = w.clone();
                self.apply(&mut w2, p, DiningInput::DoneEating);
                next.push(w2);
            }
        }
        next
    }

    /// Invariants that must hold in every reachable world.
    fn check(&self, w: &World) {
        for e in self.graph.edges() {
            let (a, b) = (e.lo, e.hi);
            let live = |q: ProcessId| !self.crashed[q.index()];
            // Safety: with exact suspicion from time 0, exclusion is
            // perpetual for live pairs.
            if live(a) && live(b) {
                assert!(
                    !(w.procs[a.index()].state() == DinerState::Eating
                        && w.procs[b.index()].state() == DinerState::Eating),
                    "live neighbors {a} and {b} eating simultaneously"
                );
            }
            // Conservation (drops only happen at crashed endpoints).
            let wire = |pred: &dyn Fn(&DiningMsg) -> bool| -> usize {
                w.chans[self.dir_index(a, b)]
                    .iter()
                    .filter(|m| pred(m))
                    .count()
                    + w.chans[self.dir_index(b, a)]
                        .iter()
                        .filter(|m| pred(m))
                        .count()
            };
            let forks = w.procs[a.index()].holds_fork(b) as usize
                + w.procs[b.index()].holds_fork(a) as usize
                + wire(&|m| matches!(m, DiningMsg::Fork));
            let tokens = w.procs[a.index()].holds_token(b) as usize
                + w.procs[b.index()].holds_token(a) as usize
                + wire(&|m| matches!(m, DiningMsg::Request { .. }));
            if live(a) && live(b) {
                assert_eq!(forks, 1, "fork conservation on {e:?}");
                assert_eq!(tokens, 1, "token conservation on {e:?}");
            } else {
                assert!(forks <= 1 && tokens <= 1, "duplication on {e:?}");
            }
        }
        // §7: at most 2 messages per directed channel (4 per edge).
        for (d, q) in w.chans.iter().enumerate() {
            assert!(
                q.len() <= 2,
                "channel {:?} holds {} messages",
                self.dirs[d],
                q.len()
            );
        }
    }

    /// Memoized DFS over the full reachable state space. Returns the number
    /// of distinct states and the number of terminal states seen.
    fn explore(&self, start: World) -> (usize, usize) {
        let mut seen: HashSet<World> = HashSet::new();
        let mut stack = vec![start];
        let mut terminals = 0usize;
        while let Some(w) = stack.pop() {
            if !seen.insert(w.clone()) {
                continue;
            }
            assert!(
                seen.len() <= self.max_states,
                "state space exceeded {} states",
                self.max_states
            );
            self.check(&w);
            let succ = self.successors(&w);
            if succ.is_empty() {
                terminals += 1;
                // Deadlock-freedom / liveness: a terminal world has no
                // live hungry process (everyone who wanted to eat ate).
                for i in 0..w.procs.len() {
                    if !self.crashed[i] {
                        assert_ne!(
                            w.procs[i].state(),
                            DinerState::Hungry,
                            "p{i} wedged hungry in a terminal state"
                        );
                    }
                }
            } else {
                stack.extend(succ);
            }
        }
        (seen.len(), terminals)
    }
}

fn path2() -> (ConflictGraph, Vec<u32>) {
    (ConflictGraph::from_pairs(2, &[(0, 1)]), vec![1, 0])
}

fn path3() -> (ConflictGraph, Vec<u32>) {
    (
        ConflictGraph::from_pairs(3, &[(0, 1), (1, 2)]),
        vec![1, 0, 2],
    )
}

fn path4() -> (ConflictGraph, Vec<u32>) {
    (
        ConflictGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3)]),
        vec![1, 0, 2, 1],
    )
}

fn triangle() -> (ConflictGraph, Vec<u32>) {
    (
        ConflictGraph::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]),
        vec![0, 1, 2],
    )
}

#[test]
fn exhaustive_two_processes_two_sessions() {
    let (g, colors) = path2();
    let model = Model::new(g, &colors, &[]);
    let start = model.initial(&colors, 2);
    let (states, terminals) = model.explore(start);
    println!("2-path: {states} states, {terminals} terminal");
    assert!(states > 100, "the search actually explored something");
    assert!(terminals >= 1);
}

#[test]
fn exhaustive_three_path_two_sessions() {
    let (g, colors) = path3();
    let model = Model::new(g, &colors, &[]);
    let start = model.initial(&colors, 2);
    let (states, _) = model.explore(start);
    println!("3-path: {states} states");
    assert!(states > 5_000);
}

#[test]
fn exhaustive_four_path_one_session() {
    let (g, colors) = path4();
    let model = Model::new(g, &colors, &[]);
    let start = model.initial(&colors, 1);
    let (states, terminals) = model.explore(start);
    println!("4-path, one session: {states} states, {terminals} terminal");
    assert!(states > 10_000);
}

/// ≈ 4.7 · 10⁵ states: longer in a debug build than the rest of this
/// file together, so it is left to an optimized run
/// (`cargo test --release --test exhaustive_model_check -- --ignored`).
#[test]
#[ignore]
fn exhaustive_four_path_two_sessions() {
    let (g, colors) = path4();
    let model = Model::new(g, &colors, &[]);
    let start = model.initial(&colors, 2);
    let (states, terminals) = model.explore(start);
    println!("4-path, two sessions: {states} states, {terminals} terminal");
    assert!(states > 100_000);
}

#[test]
fn exhaustive_triangle_two_sessions() {
    let (g, colors) = triangle();
    let model = Model::new(g, &colors, &[]);
    let start = model.initial(&colors, 2);
    let (states, _) = model.explore(start);
    println!("triangle: {states} states");
    assert!(states > 10_000);
}

#[test]
fn exhaustive_with_crashed_neighbor() {
    // p1 (the middle of a 3-path) is crashed from the start and exactly
    // suspected by both neighbors: in EVERY schedule both outer processes
    // complete their sessions (wait-freedom, exhaustively).
    let (g, colors) = path3();
    let model = Model::new(g, &colors, &[1]);
    let start = model.initial(&colors, 2);
    let (states, terminals) = model.explore(start);
    println!("3-path with crashed middle: {states} states, {terminals} terminal");
    assert!(terminals >= 1);
}

#[test]
fn exhaustive_two_processes_one_crashed() {
    // The lone live process must always reach its meals despite the dead
    // fork holder.
    let (g, colors) = path2();
    let model = Model::new(g, &colors, &[0]); // p0 (fork holder) dead
    let start = model.initial(&colors, 3);
    let (states, terminals) = model.explore(start);
    println!("2-path, fork holder dead: {states} states, {terminals} terminal");
    assert!(terminals >= 1);
}
