//! Greedy edge-cut partitioning of a conflict graph across shards.
//!
//! The sharded simulation kernel (`ekbd-sim::shard`) assigns each process to
//! exactly one worker thread; every conflict edge whose endpoints land on
//! different shards becomes cross-shard message traffic that must flow
//! through the per-window barrier exchange. The partitioner's job is to
//! keep that cut small while keeping shard populations balanced, and to be
//! **deterministic**: the same `(graph, shards)` input always yields the
//! same assignment, so sharded runs replay byte-identically.
//!
//! The algorithm is linear-time greedy placement in BFS order (LDG-style
//! streaming partitioning): visit vertices in a breadth-first order from
//! the lowest-id vertex of each component, and place each vertex on the
//! shard holding most of its already-placed neighbors, penalized by shard
//! fullness and subject to a hard capacity of `⌈n / shards⌉`. Ties break
//! toward the lower shard id. BFS order keeps neighborhoods contiguous,
//! which is what makes the greedy score informative.

use crate::{ConflictGraph, ProcessId};

/// A placement of every process onto one of `shards` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[p.index()]` is the shard of process `p`.
    pub assignment: Vec<u32>,
    /// Number of shards (some may be empty when `shards > n`).
    pub shards: usize,
}

impl Partition {
    /// The shard of process `p`.
    pub fn shard_of(&self, p: ProcessId) -> usize {
        self.assignment[p.index()] as usize
    }

    /// Process ids grouped by shard, each group sorted ascending.
    pub fn members(&self) -> Vec<Vec<ProcessId>> {
        let mut out = vec![Vec::new(); self.shards];
        for (i, &s) in self.assignment.iter().enumerate() {
            out[s as usize].push(ProcessId::from(i));
        }
        out
    }

    /// Number of conflict edges whose endpoints are on different shards.
    pub fn cut_edges(&self, g: &ConflictGraph) -> usize {
        g.edges()
            .filter(|e| self.assignment[e.lo.index()] != self.assignment[e.hi.index()])
            .count()
    }
}

/// Partitions `g` into `shards` balanced parts with a small edge cut.
///
/// Deterministic in `(g, shards)`. Shard sizes never exceed
/// `⌈n / shards⌉`, so even adversarial graphs cannot starve a worker.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn greedy_edge_cut(g: &ConflictGraph, shards: usize) -> Partition {
    assert!(shards > 0, "shard count must be positive");
    let n = g.len();
    if shards == 1 {
        // One shard of capacity `n`: every vertex lands on it.
        return Partition {
            assignment: vec![0; n],
            shards,
        };
    }
    let capacity = n.div_ceil(shards).max(1);
    let mut assignment: Vec<u32> = vec![u32::MAX; n];
    let mut loads: Vec<usize> = vec![0; shards];
    let mut score: Vec<i64> = vec![0; shards];
    // The BFS order itself: each vertex is queued once, when first
    // reached, and placed when its turn comes.
    let mut queued = vec![false; n];
    let mut order: Vec<ProcessId> = Vec::with_capacity(n);
    let mut head = 0;
    for start in 0..n {
        if queued[start] {
            continue;
        }
        queued[start] = true;
        order.push(ProcessId::from(start));
        while let Some(&p) = order.get(head) {
            head += 1;
            // Score = placed neighbors on the shard, minus a fullness
            // penalty so early vertices spread instead of piling onto
            // shard 0 (the classic LDG balance term).
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
                let fullness = (loads[s] * 2 / capacity) as i64;
                let v = score[s] - fullness;
                if v > best_score {
                    best_score = v;
                    best = s;
                }
            }
            let chosen = if best == usize::MAX {
                // All shards at capacity can only happen transiently from
                // rounding; fall back to the least-loaded shard.
                (0..shards).min_by_key(|&s| loads[s]).unwrap()
            } else {
                best
            };
            assignment[p.index()] = chosen as u32;
            loads[chosen] += 1;
            for &q in g.neighbors(p) {
                if !queued[q.index()] {
                    queued[q.index()] = true;
                    order.push(q);
                }
            }
        }
    }
    Partition { assignment, shards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random, topology};

    #[test]
    fn covers_every_process_within_capacity() {
        let g = random::connected_gnp(100, 0.05, 5);
        for shards in [1, 2, 3, 4, 8] {
            let part = greedy_edge_cut(&g, shards);
            assert_eq!(part.assignment.len(), 100);
            assert!(part.assignment.iter().all(|&s| (s as usize) < shards));
            let cap = 100usize.div_ceil(shards);
            for (s, m) in part.members().iter().enumerate() {
                assert!(m.len() <= cap, "shard {s} over capacity: {}", m.len());
            }
        }
    }

    #[test]
    fn single_shard_has_no_cut() {
        let g = topology::grid(6, 6);
        let part = greedy_edge_cut(&g, 1);
        assert_eq!(part.cut_edges(&g), 0);
        assert!(part.assignment.iter().all(|&s| s == 0));
    }

    #[test]
    fn is_deterministic() {
        let g = random::powerlaw(500, 3, 2);
        assert_eq!(greedy_edge_cut(&g, 4), greedy_edge_cut(&g, 4));
    }

    #[test]
    fn ring_cut_is_near_minimal() {
        // A ring split into k contiguous arcs cuts exactly k edges; greedy
        // BFS placement should stay within a small constant of that.
        let g = topology::ring(64);
        let part = greedy_edge_cut(&g, 4);
        assert!(
            part.cut_edges(&g) <= 8,
            "ring-64 cut {} too large",
            part.cut_edges(&g)
        );
    }

    #[test]
    fn beats_round_robin_on_grid() {
        let g = topology::grid(16, 16);
        let part = greedy_edge_cut(&g, 4);
        let rr = Partition {
            assignment: (0..g.len()).map(|i| (i % 4) as u32).collect(),
            shards: 4,
        };
        assert!(
            part.cut_edges(&g) < rr.cut_edges(&g),
            "greedy {} >= round-robin {}",
            part.cut_edges(&g),
            rr.cut_edges(&g)
        );
    }

    #[test]
    fn more_shards_than_processes() {
        let g = topology::ring(3);
        let part = greedy_edge_cut(&g, 8);
        assert_eq!(part.assignment.len(), 3);
        assert_eq!(part.members().len(), 8);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn rejects_zero_shards() {
        let _ = greedy_edge_cut(&topology::ring(4), 0);
    }
}
