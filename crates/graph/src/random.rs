//! Seeded random-graph generators.
//!
//! Everything here is deterministic in the seed, so property tests across
//! the workspace can shrink on `(seed, n, p)` triples and replay failures
//! exactly.

use crate::{ConflictGraph, ProcessId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// splitmix64's finalizer: a bijective mix of one word. The fault streams
/// (process-state entropy, storage damage, churn plans, the chaos
/// generator) hash their own inputs into a word and finish it here.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 stream over `state`: advance it by the
/// golden-ratio increment and return the mixed word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// Erdős–Rényi `G(n, p)`: each of the `n·(n-1)/2` possible edges is present
/// independently with probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> ConflictGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((ProcessId::from(i), ProcessId::from(j)));
            }
        }
    }
    ConflictGraph::new(n, edges).expect("gnp edges are valid by construction")
}

/// A connected variant of [`gnp`]: starts from a uniformly random spanning
/// tree (random-permutation attachment) and sprinkles extra `G(n, p)` edges
/// on top.
///
/// Connectivity matters for experiments that route hunger through every
/// process: an isolated vertex trivially satisfies every dining property.
pub fn connected_gnp(n: usize, p: f64, seed: u64) -> ConflictGraph {
    if n == 0 {
        return ConflictGraph::from_pairs(0, &[]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut edges: Vec<(ProcessId, ProcessId)> = Vec::new();
    for k in 1..n {
        // Attach the k-th vertex of the permutation to a random earlier one.
        let parent = order[rng.gen_range(0..k)];
        edges.push((ProcessId::from(order[k]), ProcessId::from(parent)));
    }
    let mut have: std::collections::HashSet<crate::Edge> =
        edges.iter().map(|&(a, b)| crate::Edge::new(a, b)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let e = crate::Edge::new(ProcessId::from(i), ProcessId::from(j));
            if !have.contains(&e) && rng.gen_bool(p.clamp(0.0, 1.0)) {
                have.insert(e);
                edges.push((ProcessId::from(i), ProcessId::from(j)));
            }
        }
    }
    ConflictGraph::new(n, edges).expect("connected_gnp edges are valid by construction")
}

/// Sparse `G(n, p)` via geometric edge skipping: instead of flipping a coin
/// per candidate pair (`O(n²)` RNG draws), jump straight to the next present
/// edge with a geometric skip length, so work is `O(n + m)`.
///
/// The sampled distribution is exactly `G(n, p)`, but the *stream of RNG
/// draws* differs from [`gnp`], so for a given seed the two generators
/// produce different (equally valid) graphs. Small-graph call sites that
/// have golden traces keyed to [`gnp`] must keep using it; the CLI only
/// routes to this generator above a size threshold.
pub fn sparse_gnp(n: usize, p: f64, seed: u64) -> ConflictGraph {
    let p = p.clamp(0.0, 1.0);
    if n < 2 || p <= 0.0 {
        return ConflictGraph::new(n, Vec::new()).expect("empty graph is valid");
    }
    if p >= 1.0 {
        return gnp(n, 1.0, seed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Candidate pairs (i, j), i < j, enumerated lexicographically as a flat
    // index; `log(1 - u) / log(1 - p)` skips are i.i.d. geometric.
    let total = n as u64 * (n as u64 - 1) / 2;
    let ln_q = (1.0 - p).ln();
    let mut cursor: u64 = 0;
    // Row `i` holds the n-1-i pairs (i, i+1..n) and starts at flat index
    // `row_start`. The cursor only moves forward, so the row is carried
    // from edge to edge, not found again from row 0.
    let (mut i, mut row_start) = (0u64, 0u64);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / ln_q).floor() as u64;
        cursor = match cursor.checked_add(skip) {
            Some(c) => c,
            None => break,
        };
        if cursor >= total {
            break;
        }
        while cursor - row_start >= n as u64 - 1 - i {
            row_start += n as u64 - 1 - i;
            i += 1;
        }
        let j = i + 1 + (cursor - row_start);
        edges.push((ProcessId::from(i as usize), ProcessId::from(j as usize)));
        cursor += 1;
    }
    ConflictGraph::new(n, edges).expect("sparse_gnp edges are valid by construction")
}

/// Seeded Barabási–Albert-style power-law graph: starts from a clique on
/// `m + 1` vertices, then attaches each new vertex to `m` distinct existing
/// vertices chosen with probability proportional to their current degree
/// (preferential attachment via the repeated-endpoints list).
///
/// The resulting degree distribution has a heavy tail (`P(deg = d) ∝ d⁻³`
/// asymptotically) — hubs of degree `≫ m` alongside a majority at exactly
/// `m` — which is the contention regime where distributed daemons differ
/// most from central ones.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn powerlaw(n: usize, m: usize, seed: u64) -> ConflictGraph {
    assert!(m > 0, "attachment count m must be positive");
    let core = (m + 1).min(n);
    let mut edges: Vec<(ProcessId, ProcessId)> = Vec::new();
    // `targets` lists every edge endpoint once per incidence, so uniform
    // sampling from it is degree-proportional sampling of vertices.
    let mut targets: Vec<usize> = Vec::with_capacity(2 * n * m);
    for i in 0..core {
        for j in (i + 1)..core {
            edges.push((ProcessId::from(i), ProcessId::from(j)));
            targets.push(i);
            targets.push(j);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(m);
    for v in core..n {
        picked.clear();
        while picked.len() < m {
            let t = targets[rng.gen_range(0..targets.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((ProcessId::from(v), ProcessId::from(t)));
            targets.push(v);
            targets.push(t);
        }
    }
    ConflictGraph::new(n, edges).expect("powerlaw edges are valid by construction")
}

/// A random `d`-regular-ish graph built by edge switching over a ring
/// (degree is exactly `d` when `n·d` is even and `d < n`; otherwise falls
/// back to the nearest feasible construction).
///
/// Used where experiments want to hold degree constant while growing `n`.
pub fn regularish(n: usize, d: usize, seed: u64) -> ConflictGraph {
    assert!(d < n.max(1), "degree must be < n");
    if n == 0 || d == 0 {
        return ConflictGraph::new(n, Vec::new()).expect("empty graph is valid");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Circulant base graph: connect each i to i±1, i±2, …, i±⌈d/2⌉.
    let half = d / 2;
    let mut set = std::collections::BTreeSet::new();
    for i in 0..n {
        for k in 1..=half {
            set.insert(crate::Edge::new(
                ProcessId::from(i),
                ProcessId::from((i + k) % n),
            ));
        }
        if d % 2 == 1 && n.is_multiple_of(2) {
            // Perfect matching across the ring for odd degree.
            set.insert(crate::Edge::new(
                ProcessId::from(i),
                ProcessId::from((i + n / 2) % n),
            ));
        }
    }
    // Randomize with double-edge swaps that preserve the degree sequence.
    let mut edges: Vec<crate::Edge> = set.iter().copied().collect();
    let swaps = edges.len() * 4;
    for _ in 0..swaps {
        if edges.len() < 2 {
            break;
        }
        let a = rng.gen_range(0..edges.len());
        let b = rng.gen_range(0..edges.len());
        if a == b {
            continue;
        }
        let (e1, e2) = (edges[a], edges[b]);
        let (x, y, u, v) = (e1.lo, e1.hi, e2.lo, e2.hi);
        if x == u || x == v || y == u || y == v {
            continue;
        }
        let n1 = crate::Edge::new(x, u);
        let n2 = crate::Edge::new(y, v);
        if set.contains(&n1) || set.contains(&n2) {
            continue;
        }
        set.remove(&e1);
        set.remove(&e2);
        set.insert(n1);
        set.insert(n2);
        edges[a] = n1;
        edges[b] = n2;
    }
    ConflictGraph::new(n, set.into_iter().map(|e| (e.lo, e.hi)))
        .expect("edge swaps preserve validity")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first three outputs of splitmix64 seeded with 0.
        let mut state = 0;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn gnp_is_deterministic_in_seed() {
        let a = gnp(20, 0.3, 42);
        let b = gnp(20, 0.3, 42);
        assert_eq!(a, b);
        let c = gnp(20, 0.3, 43);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn connected_gnp_is_connected() {
        for seed in 0..20 {
            let g = connected_gnp(25, 0.05, seed);
            assert!(g.is_connected(), "seed {seed} produced disconnected graph");
        }
    }

    #[test]
    fn connected_gnp_handles_tiny() {
        assert!(connected_gnp(0, 0.5, 7).is_empty());
        assert_eq!(connected_gnp(1, 0.5, 7).len(), 1);
        assert_eq!(connected_gnp(2, 0.0, 7).edge_count(), 1);
    }

    #[test]
    fn regularish_has_uniform_degree_when_feasible() {
        let g = regularish(12, 4, 5);
        assert!(g.processes().all(|p| g.degree(p) == 4));
        let g = regularish(10, 3, 9);
        assert!(g.processes().all(|p| g.degree(p) == 3));
    }

    #[test]
    fn regularish_deterministic() {
        assert_eq!(regularish(16, 4, 11), regularish(16, 4, 11));
    }

    #[test]
    #[should_panic(expected = "degree must be < n")]
    fn regularish_rejects_degree_ge_n() {
        let _ = regularish(4, 4, 0);
    }

    #[test]
    fn sparse_gnp_is_deterministic_in_seed() {
        let a = sparse_gnp(200, 0.05, 42);
        let b = sparse_gnp(200, 0.05, 42);
        assert_eq!(a, b);
        let c = sparse_gnp(200, 0.05, 43);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn sparse_gnp_extremes() {
        assert_eq!(sparse_gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(sparse_gnp(10, 1.0, 1).edge_count(), 45);
        assert!(sparse_gnp(0, 0.5, 1).is_empty());
        assert_eq!(sparse_gnp(1, 0.5, 1).len(), 1);
    }

    /// `sparse_gnp` as it was before the row was carried across edges:
    /// every edge unranked from row 0. Quadratic, and the reference for
    /// the edge sequence.
    fn sparse_gnp_from_row_zero(n: usize, p: f64, seed: u64) -> ConflictGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        let total = n as u64 * (n as u64 - 1) / 2;
        let ln_q = (1.0 - p).ln();
        let mut cursor: u64 = 0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            cursor += (u.ln() / ln_q).floor() as u64;
            if cursor >= total {
                break;
            }
            let (mut i, mut idx, mut row) = (0u64, cursor, n as u64 - 1);
            while idx >= row {
                idx -= row;
                i += 1;
                row -= 1;
            }
            let j = i + 1 + idx;
            edges.push((ProcessId::from(i as usize), ProcessId::from(j as usize)));
            cursor += 1;
        }
        ConflictGraph::new(n, edges).unwrap()
    }

    #[test]
    fn sparse_gnp_emits_the_edges_of_the_row_zero_unranking() {
        for (n, p, seed) in [
            (2, 0.5, 1),
            (3, 0.9, 2),
            (50, 0.3, 3),
            (257, 0.02, 4),
            (1000, 0.004, 5),
            (3000, 0.0005, 6),
        ] {
            let (fast, slow) = (sparse_gnp(n, p, seed), sparse_gnp_from_row_zero(n, p, seed));
            assert!(fast.edges().eq(slow.edges()), "n {n} p {p} seed {seed}");
        }
    }

    #[test]
    fn sparse_gnp_edge_density_matches_p() {
        // 500 vertices, p = 0.02 → expected m ≈ 2495, sd ≈ 49. Accept ±5 sd.
        let g = sparse_gnp(500, 0.02, 7);
        let m = g.edge_count() as f64;
        assert!((2250.0..=2750.0).contains(&m), "edge count {m} implausible");
    }

    #[test]
    fn powerlaw_is_deterministic_in_seed() {
        let a = powerlaw(300, 3, 9);
        let b = powerlaw(300, 3, 9);
        assert_eq!(a, b);
        let c = powerlaw(300, 3, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn powerlaw_shape() {
        let n = 400;
        let m = 3;
        let g = powerlaw(n, m, 11);
        assert_eq!(g.len(), n);
        assert!(g.is_connected(), "BA attachment keeps the graph connected");
        // Every vertex after the core attaches with exactly m edges; the
        // core is a clique on m+1 vertices.
        assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
        assert!(g.processes().all(|p| g.degree(p) >= m));
    }

    #[test]
    fn powerlaw_has_heavy_tail() {
        let n = 1000;
        let m = 2;
        let g = powerlaw(n, m, 3);
        let mut degs: Vec<usize> = g.processes().map(|p| g.degree(p)).collect();
        degs.sort_unstable();
        let max = *degs.last().unwrap();
        let median = degs[n / 2];
        // Preferential attachment: hubs grow ≫ the median (which stays ≈ m),
        // unlike gnp where max/median is O(1). 8× is conservative at n=1000.
        assert!(median <= 2 * m, "median degree {median} should stay near m");
        assert!(
            max >= 8 * median,
            "max degree {max} vs median {median}: no heavy tail"
        );
        // Degree-counting sanity: ~half of all vertices sit at exactly m.
        let at_m = degs.iter().filter(|&&d| d == m).count();
        assert!(
            at_m * 3 >= n,
            "expected a large mass at degree m, got {at_m}"
        );
    }

    #[test]
    fn powerlaw_tiny_instances() {
        assert!(powerlaw(0, 2, 1).is_empty());
        assert_eq!(powerlaw(1, 2, 1).edge_count(), 0);
        // n=3, m=2: core clique on min(m+1, n) = 3 vertices.
        assert_eq!(powerlaw(3, 2, 1).edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "attachment count m must be positive")]
    fn powerlaw_rejects_zero_m() {
        let _ = powerlaw(10, 0, 1);
    }
}
