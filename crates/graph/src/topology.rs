//! Standard conflict-graph families used by the experiments.
//!
//! Dijkstra's original dining philosophers live on a [`ring`]; Lynch's
//! generalization admits arbitrary conflict graphs, so the experiment
//! suite sweeps over the families below to exercise low-degree, high-degree,
//! and irregular instances.

use crate::{random, ConflictGraph, ProcessId};

/// The topology spec grammar [`from_spec`] reads, for error messages.
pub const SPEC_GRAMMAR: &str = "ring:n | path:n | star:n | clique:n | grid:RxC | torus:RxC | \
     tree:n | wheel:n | hypercube:d | gnp:n:p:seed | powerlaw:n:m:seed, or the dash form \
     (ring-8, grid-3x4, gnp-n-p[-seed], whose seed defaults to 9); a ring needs n ≥ 3, a star \
     n ≥ 1, a wheel n ≥ 4, a torus R, C ≥ 3 and a hypercube d ≤ 16";

/// Node count above which a `gnp` spec builds through
/// [`random::sparse_gnp`] instead of the O(n²) coin-flip walk of
/// [`random::connected_gnp`]. The two samplers draw different RNG streams,
/// so the threshold keeps every paper-scale graph — and with it every
/// golden trace — byte-identical while making 10⁵-node specs tractable.
const SPARSE_GNP_THRESHOLD: usize = 2_048;

/// Builds the graph a topology spec names, or `None` if the spec is not
/// in [`SPEC_GRAMMAR`] or names a size its family cannot build (a ring
/// under 3, a star of 0, a wheel under 4, a torus under 3×3, a hypercube
/// over dimension 16).
///
/// The separator is the character right after the family name: `:` (the
/// `ekbd run` spelling, `ring:8`, `gnp:100:1e-3:7`) or `-` (the chaos
/// schedules' spelling, `ring-8`, `gnp-12-0.3`). Only the dash form of
/// `gnp` may omit its seed, and `powerlaw` has only the colon form.
pub fn from_spec(spec: &str) -> Option<ConflictGraph> {
    let split = spec.find([':', '-'])?;
    let (family, rest) = spec.split_at(split);
    let dash = rest.starts_with('-');
    let fields: Vec<&str> = rest[1..].split(if dash { '-' } else { ':' }).collect();
    let size = |s: &str| s.parse::<usize>().ok();
    let dims = |s: &str| {
        let (r, c) = s.split_once('x')?;
        Some((size(r)?, size(c)?))
    };
    let gnp = |n: &str, p: &str, seed: u64| {
        let (n, p) = (size(n)?, p.parse().ok()?);
        Some(if n <= SPARSE_GNP_THRESHOLD {
            random::connected_gnp(n, p, seed)
        } else {
            random::sparse_gnp(n, p, seed)
        })
    };
    Some(match (family, fields.as_slice()) {
        // The sizes each constructor asserts on are refused here instead.
        ("ring", [n]) => ring(size(n).filter(|&n| n >= 3)?),
        ("path", [n]) => path(size(n)?),
        ("star", [n]) => star(size(n).filter(|&n| n >= 1)?),
        ("clique", [n]) => clique(size(n)?),
        ("tree", [n]) => binary_tree(size(n)?),
        ("wheel", [n]) => wheel(size(n).filter(|&n| n >= 4)?),
        ("hypercube", [d]) => hypercube(d.parse().ok().filter(|&d| d <= 16)?),
        ("grid", [d]) => {
            let (r, c) = dims(d)?;
            grid(r, c)
        }
        ("torus", [d]) => {
            let (r, c) = dims(d).filter(|&(r, c)| r >= 3 && c >= 3)?;
            torus(r, c)
        }
        ("gnp", [n, p, seed]) => gnp(n, p, seed.parse().ok()?)?,
        ("gnp", [n, p]) if dash => gnp(n, p, 9)?,
        ("powerlaw", [n, m, seed]) if !dash => {
            let m = size(m).filter(|&m| m > 0)?;
            random::powerlaw(size(n)?, m, seed.parse().ok()?)
        }
        _ => return None,
    })
}

/// A cycle `p0 - p1 - … - p(n-1) - p0` (Dijkstra's classic table).
///
/// # Panics
///
/// Panics if `n < 3` — smaller rings degenerate to duplicate edges.
pub fn ring(n: usize) -> ConflictGraph {
    assert!(n >= 3, "a ring needs at least 3 processes");
    let edges = (0..n).map(|i| (ProcessId::from(i), ProcessId::from((i + 1) % n)));
    ConflictGraph::new(n, edges).expect("ring construction is always valid")
}

/// A simple path `p0 - p1 - … - p(n-1)`.
pub fn path(n: usize) -> ConflictGraph {
    let edges = (1..n).map(|i| (ProcessId::from(i - 1), ProcessId::from(i)));
    ConflictGraph::new(n, edges).expect("path construction is always valid")
}

/// A star: `p0` is the hub, connected to every other process.
///
/// The hub has degree `n - 1`, the maximum-contention shape used in the
/// space-bound experiment (claim S1).
pub fn star(n: usize) -> ConflictGraph {
    assert!(n >= 1, "a star needs at least 1 process");
    let edges = (1..n).map(|i| (ProcessId(0), ProcessId::from(i)));
    ConflictGraph::new(n, edges).expect("star construction is always valid")
}

/// The complete graph `K_n`: every pair of processes conflicts.
///
/// This is the worst case (`δ = n - 1`) used for the `O(n)`-bits space
/// claim in §7 of the paper.
pub fn clique(n: usize) -> ConflictGraph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((ProcessId::from(i), ProcessId::from(j)));
        }
    }
    ConflictGraph::new(n, edges).expect("clique construction is always valid")
}

/// A `rows × cols` grid with 4-neighbor adjacency.
pub fn grid(rows: usize, cols: usize) -> ConflictGraph {
    let id = |r: usize, c: usize| ProcessId::from(r * cols + c);
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    ConflictGraph::new(rows * cols, edges).expect("grid construction is always valid")
}

/// A complete binary tree with `n` nodes (node `i` has children `2i+1`,
/// `2i+2`).
///
/// Sparse, partitionable by crashes — the shape for which the paper notes
/// ◇P₁ remains implementable (§8).
pub fn binary_tree(n: usize) -> ConflictGraph {
    let mut edges = Vec::new();
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                edges.push((ProcessId::from(i), ProcessId::from(child)));
            }
        }
    }
    ConflictGraph::new(n, edges).expect("tree construction is always valid")
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices: `i` and `j` are
/// adjacent iff they differ in exactly one bit.
///
/// Regular of degree `d` with logarithmic diameter — a standard shape for
/// scaling experiments that hold degree low while growing `n`.
pub fn hypercube(d: u32) -> ConflictGraph {
    assert!(d <= 16, "2^{d} vertices is beyond experiment scale");
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d as usize / 2);
    for i in 0..n {
        for b in 0..d {
            let j = i ^ (1 << b);
            if i < j {
                edges.push((ProcessId::from(i), ProcessId::from(j)));
            }
        }
    }
    ConflictGraph::new(n, edges).expect("hypercube construction is always valid")
}

/// A `rows × cols` torus: the grid with wrap-around rows and columns
/// (4-regular for `rows, cols ≥ 3`).
pub fn torus(rows: usize, cols: usize) -> ConflictGraph {
    assert!(rows >= 3 && cols >= 3, "a torus needs both dimensions ≥ 3");
    let id = |r: usize, c: usize| ProcessId::from(r * cols + c);
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols)));
            edges.push((id(r, c), id((r + 1) % rows, c)));
        }
    }
    ConflictGraph::new(rows * cols, edges).expect("torus construction is always valid")
}

/// A wheel: a hub (`p0`) connected to every vertex of an outer ring
/// `p1 … p(n-1)`.
///
/// Combines the star's central contention with the ring's local
/// contention; the hub has degree `n - 1`, ring vertices degree 3.
pub fn wheel(n: usize) -> ConflictGraph {
    assert!(n >= 4, "a wheel needs a hub and a ring of at least 3");
    let mut edges: Vec<(ProcessId, ProcessId)> =
        (1..n).map(|i| (ProcessId(0), ProcessId::from(i))).collect();
    for i in 1..n {
        let next = if i == n - 1 { 1 } else { i + 1 };
        edges.push((ProcessId::from(i), ProcessId::from(next)));
    }
    ConflictGraph::new(n, edges).expect("wheel construction is always valid")
}

/// The complete bipartite graph `K_{a,b}`: every one of the first `a`
/// vertices conflicts with every one of the remaining `b`.
///
/// Models client/server-style contention (two classes, all conflicts
/// across); 2-colorable, so only two priority levels exist.
pub fn complete_bipartite(a: usize, b: usize) -> ConflictGraph {
    let mut edges = Vec::with_capacity(a * b);
    for i in 0..a {
        for j in 0..b {
            edges.push((ProcessId::from(i), ProcessId::from(a + j)));
        }
    }
    ConflictGraph::new(a + b, edges).expect("bipartite construction is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_in_either_spelling() {
        for (colon, dash) in [
            ("ring:8", "ring-8"),
            ("grid:3x4", "grid-3x4"),
            ("hypercube:3", "hypercube-3"),
            ("gnp:12:0.3:9", "gnp-12-0.3-9"),
        ] {
            let (a, b) = (from_spec(colon).unwrap(), from_spec(dash).unwrap());
            assert!(a.edges().eq(b.edges()), "{colon} and {dash} differ");
        }
        assert!(from_spec("gnp-12-0.3")
            .unwrap()
            .edges()
            .eq(random::connected_gnp(12, 0.3, 9).edges()));
        assert_eq!(from_spec("gnp:100:1e-3:7").unwrap().len(), 100);
        assert_eq!(from_spec("torus:3x4").unwrap().len(), 12);
        assert_eq!(from_spec("tree-7").unwrap().edge_count(), 6);
        assert_eq!(from_spec("powerlaw:100:2:5").unwrap().len(), 100);
    }

    #[test]
    fn specs_outside_the_grammar_are_refused() {
        for spec in [
            "blob:3",
            "ring",
            "ring:",
            "ring:8:9",
            "ring-8-9",
            "grid:3",
            "grid-3x4x5",
            "gnp:12:0.3",
            "gnp-12-0.3-9-1",
            "gnp:12-0.3:9",
            "powerlaw:100:0:5",
            "powerlaw:100:2",
            "powerlaw-100-2-5",
            // Sizes the constructors assert on.
            "ring:2",
            "ring-0",
            "star:0",
            "wheel:3",
            "torus:2x3",
            "torus-3x2",
            "hypercube:17",
        ] {
            assert!(from_spec(spec).is_none(), "{spec} must be refused");
        }
    }

    #[test]
    fn gnp_specs_keep_the_legacy_sampler_at_paper_scale() {
        // The golden traces pin the small-graph RNG stream: up to the
        // sparse threshold a spec must keep building via connected_gnp.
        let direct = random::connected_gnp(60, 0.08, 3);
        assert!(from_spec("gnp:60:0.08:3")
            .unwrap()
            .edges()
            .eq(direct.edges()));
        let sparse = random::sparse_gnp(3_000, 0.001, 4);
        assert!(from_spec("gnp:3000:0.001:4")
            .unwrap()
            .edges()
            .eq(sparse.edges()));
    }

    #[test]
    fn ring_shape() {
        let g = ring(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.processes().all(|p| g.degree(p) == 2));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small() {
        let _ = ring(2);
    }

    #[test]
    fn path_shape() {
        let g = path(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(ProcessId(0)), 1);
        assert_eq!(g.degree(ProcessId(1)), 2);
        assert!(g.is_connected());
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(ProcessId(0)), 5);
        assert_eq!(g.max_degree(), 5);
        assert!((1..6).all(|i| g.degree(ProcessId::from(i)) == 1));
    }

    #[test]
    fn clique_shape() {
        let g = clique(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_connected());
        assert_eq!(clique(1).edge_count(), 0);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.len(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3);
        assert_eq!(g.len(), 8);
        assert_eq!(g.edge_count(), 12);
        assert!(g.processes().all(|p| g.degree(p) == 3));
        assert!(g.is_connected());
        let g0 = hypercube(0);
        assert_eq!(g0.len(), 1);
        assert_eq!(g0.edge_count(), 0);
    }

    #[test]
    fn torus_shape() {
        let g = torus(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 24);
        assert!(g.processes().all(|p| g.degree(p) == 4));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "dimensions ≥ 3")]
    fn torus_too_small() {
        let _ = torus(2, 5);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.degree(ProcessId(0)), 5);
        assert!((1..6).all(|i| g.degree(ProcessId::from(i)) == 3));
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_connected());
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(ProcessId(0)), 3);
        assert_eq!(g.degree(ProcessId(3)), 2);
        // Bipartite: two colors suffice.
        let colors = crate::coloring::greedy(&g);
        assert_eq!(crate::coloring::palette_size(&colors), 2);
    }

    #[test]
    fn tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(ProcessId(0)), 2);
        assert_eq!(g.degree(ProcessId(1)), 3);
        assert!(g.is_connected());
    }
}
