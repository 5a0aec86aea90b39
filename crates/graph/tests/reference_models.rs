//! The graph layer against reference models on random edge lists.
//!
//! Each reference below is the straightforward form of what the crate
//! computes — a `BTreeSet` per vertex for the adjacency, one `Vec` of
//! neighbor colors per vertex for `greedy`, a BFS that re-queues vertices
//! for `greedy_edge_cut` — kept here so the tuned implementations are
//! checked against them, output for output and error for error.

use ekbd_graph::coloring::{self, Color};
use ekbd_graph::partition::greedy_edge_cut;
use ekbd_graph::{ConflictGraph, Edge, GraphError, ProcessId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet, VecDeque};

fn pid(i: u32) -> ProcessId {
    ProcessId(i)
}

/// The construction contract: the first self-loop or out-of-range end in
/// input order (a self-loop is reported before its range), else the
/// smallest duplicated canonical edge, else sorted edges and sorted,
/// symmetric neighbor sets.
fn reference_new(
    n: usize,
    pairs: &[(ProcessId, ProcessId)],
) -> Result<(Vec<BTreeSet<ProcessId>>, Vec<Edge>), GraphError> {
    let mut edges = Vec::new();
    for &(a, b) in pairs {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        for v in [a, b] {
            if v.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
        }
        edges.push(Edge::new(a, b));
    }
    edges.sort();
    if let Some(w) = edges.windows(2).find(|w| w[0] == w[1]) {
        return Err(GraphError::DuplicateEdge(w[0]));
    }
    let mut adjacency = vec![BTreeSet::new(); n];
    for e in &edges {
        adjacency[e.lo.index()].insert(e.hi);
        adjacency[e.hi.index()].insert(e.lo);
    }
    Ok((adjacency, edges))
}

/// Greedy coloring in id order, collecting each vertex's neighbor colors
/// into a fresh `Vec`.
fn reference_greedy(g: &ConflictGraph) -> Vec<Color> {
    let mut colors: Vec<Option<Color>> = vec![None; g.len()];
    for p in g.processes() {
        let used: Vec<Color> = g
            .neighbors(p)
            .iter()
            .filter_map(|&q| colors[q.index()])
            .collect();
        let c = (0..).find(|c| !used.contains(c)).expect("finite palette");
        colors[p.index()] = Some(c);
    }
    colors.into_iter().map(|c| c.unwrap_or(0)).collect()
}

/// LDG-style placement in BFS order, pushing every unplaced neighbor of a
/// placed vertex (duplicates included) and skipping placed ones on pop.
fn reference_edge_cut(g: &ConflictGraph, shards: usize) -> Vec<u32> {
    let n = g.len();
    let capacity = n.div_ceil(shards).max(1);
    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0usize; shards];
    let mut score = vec![0i64; shards];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if assignment[start] != u32::MAX {
            continue;
        }
        queue.push_back(ProcessId::from(start));
        while let Some(p) = queue.pop_front() {
            if assignment[p.index()] != u32::MAX {
                continue;
            }
            score.iter_mut().for_each(|s| *s = 0);
            for &q in g.neighbors(p) {
                let s = assignment[q.index()];
                if s != u32::MAX {
                    score[s as usize] += 2;
                }
            }
            let mut best = usize::MAX;
            let mut best_score = i64::MIN;
            for s in 0..shards {
                if loads[s] >= capacity {
                    continue;
                }
                let v = score[s] - (loads[s] * 2 / capacity) as i64;
                if v > best_score {
                    best_score = v;
                    best = s;
                }
            }
            let chosen = if best == usize::MAX {
                (0..shards).min_by_key(|&s| loads[s]).unwrap()
            } else {
                best
            };
            assignment[p.index()] = chosen as u32;
            loads[chosen] += 1;
            for &q in g.neighbors(p) {
                if assignment[q.index()] == u32::MAX {
                    queue.push_back(q);
                }
            }
        }
    }
    assignment
}

/// A valid edge list over `0..n` in the drawn order and orientation: ends
/// reduced mod `n`, self-loops and repeats of an earlier edge dropped.
fn valid_pairs(n: usize, raw: &[(u32, u32)]) -> Vec<(ProcessId, ProcessId)> {
    if n == 0 {
        return Vec::new();
    }
    let n = u32::try_from(n).expect("small n");
    let mut seen = HashSet::new();
    raw.iter()
        .map(|&(a, b)| (pid(a % n), pid(b % n)))
        .filter(|&(a, b)| a != b && seen.insert(Edge::new(a, b)))
        .collect()
}

/// Plants one fault into a valid list at position `at`: `0` none, `1` a
/// self-loop, `2` a repeat of an existing edge in either orientation, `3`
/// an out-of-range end.
fn plant(
    n: usize,
    mut pairs: Vec<(ProcessId, ProcessId)>,
    kind: u8,
    at: usize,
    v: u32,
    flip: bool,
) -> Vec<(ProcessId, ProcessId)> {
    let bound = u32::try_from(n).expect("small n");
    let inside = if bound == 0 { 0 } else { v % bound };
    let planted = match kind {
        1 => Some((pid(inside), pid(inside))),
        2 if !pairs.is_empty() => Some(pairs[at % pairs.len()]),
        3 => Some((pid(inside), pid(bound + v % 3))),
        _ => None,
    };
    if let Some((a, b)) = planted {
        let pair = if flip { (b, a) } else { (a, b) };
        let pos = at % (pairs.len() + 1);
        pairs.insert(pos, pair);
    }
    pairs
}

fn graph_strategy() -> impl Strategy<Value = ConflictGraph> {
    (
        0usize..=64,
        proptest::collection::vec((0u32..64, 0u32..64), 0..240),
    )
        .prop_map(|(n, raw)| ConflictGraph::new(n, valid_pairs(n, &raw)).expect("valid list"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ConflictGraph::new` agrees with the model on every list: the same
    /// error, or the same edges and neighbor lists.
    #[test]
    fn construction_matches_the_btreeset_model(
        n in 0usize..=64,
        raw in proptest::collection::vec((0u32..64, 0u32..64), 0..240),
        kind in 0u8..4,
        at in 0usize..1024,
        v in 0u32..64,
        flip in 0u8..2,
    ) {
        let pairs = plant(n, valid_pairs(n, &raw), kind, at, v, flip == 1);
        let got = ConflictGraph::new(n, pairs.iter().copied());
        match (got, reference_new(n, &pairs)) {
            (Err(e), Err(want)) => prop_assert_eq!(e, want),
            (Ok(g), Ok((adjacency, edges))) => {
                prop_assert_eq!(g.len(), n);
                prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
                prop_assert_eq!(g.edge_count(), edges.len());
                for p in g.processes() {
                    let want: Vec<ProcessId> = adjacency[p.index()].iter().copied().collect();
                    prop_assert_eq!(g.neighbors(p), &want[..], "neighbors of {}", p);
                    prop_assert_eq!(g.degree(p), want.len());
                }
                let max = adjacency.iter().map(BTreeSet::len).max().unwrap_or(0);
                prop_assert_eq!(g.max_degree(), max);
            }
            (got, want) => prop_assert!(false, "got {:?}, model {:?}", got.map(|_| ()), want.map(|_| ())),
        }
    }

    /// `greedy` colors exactly as the per-vertex-`Vec` reference.
    #[test]
    fn greedy_matches_the_reference(g in graph_strategy()) {
        prop_assert_eq!(coloring::greedy(&g), reference_greedy(&g));
    }

    /// `greedy_edge_cut` places every vertex where the re-queueing BFS
    /// does, at every shard count from 1 to 8.
    #[test]
    fn edge_cut_matches_the_reference(g in graph_strategy()) {
        for shards in 1..=8 {
            prop_assert_eq!(
                greedy_edge_cut(&g, shards).assignment,
                reference_edge_cut(&g, shards),
                "{} shards", shards
            );
        }
    }
}
