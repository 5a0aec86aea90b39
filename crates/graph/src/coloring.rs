//! Node colorings used as static process priorities.
//!
//! Algorithm 1 resolves fork conflicts in favor of the neighbor with the
//! higher color, so it requires a coloring in which *no two neighbors share
//! a color*. The paper notes that "standard node-coloring approximation
//! algorithms can compute such colorings in polynomial time using only
//! `O(δ)` distinct values" (§3.1); [`greedy`] and [`dsatur`] are two such
//! algorithms, both guaranteed to use at most `δ + 1` colors.

use crate::{ConflictGraph, ProcessId};
use std::fmt;

/// A color, i.e. a static process priority. Higher color = higher priority.
pub type Color = u32;

/// Error returned by [`validate`] when a coloring is not proper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColoringError {
    /// The coloring assigns colors to a different number of vertices than
    /// the graph has.
    LengthMismatch {
        /// Number of colors supplied.
        colors: usize,
        /// Number of vertices in the graph.
        vertices: usize,
    },
    /// Two neighbors share a color.
    MonochromaticEdge {
        /// First endpoint.
        a: ProcessId,
        /// Second endpoint.
        b: ProcessId,
        /// The shared color.
        color: Color,
    },
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColoringError::LengthMismatch { colors, vertices } => write!(
                f,
                "coloring has {colors} entries but the graph has {vertices} vertices"
            ),
            ColoringError::MonochromaticEdge { a, b, color } => {
                write!(f, "neighbors {a} and {b} share color {color}")
            }
        }
    }
}

impl std::error::Error for ColoringError {}

/// Checks that `colors` is a proper coloring of `g`.
///
/// # Errors
///
/// Returns the first violation found, if any.
pub fn validate(g: &ConflictGraph, colors: &[Color]) -> Result<(), ColoringError> {
    if colors.len() != g.len() {
        return Err(ColoringError::LengthMismatch {
            colors: colors.len(),
            vertices: g.len(),
        });
    }
    for e in g.edges() {
        let (ca, cb) = (colors[e.lo.index()], colors[e.hi.index()]);
        if ca == cb {
            return Err(ColoringError::MonochromaticEdge {
                a: e.lo,
                b: e.hi,
                color: ca,
            });
        }
    }
    Ok(())
}

/// Greedy coloring in process-id order; uses at most `δ + 1` colors.
pub fn greedy(g: &ConflictGraph) -> Vec<Color> {
    let mut colors: Vec<Color> = vec![0; g.len()];
    // `taken[c] == p + 1` while `p` is being colored iff a smaller-id
    // neighbor (one already colored) holds `c`; one array serves every
    // vertex. No color exceeds `δ`, so `δ + 1` entries suffice.
    let mut taken = vec![0usize; g.max_degree() + 1];
    for p in g.processes() {
        let mark = p.index() + 1;
        for &q in g.neighbors(p).iter().take_while(|&&q| q < p) {
            taken[colors[q.index()] as usize] = mark;
        }
        let c = taken.iter().position(|&t| t != mark).expect("δ + 1 colors");
        colors[p.index()] = Color::try_from(c).expect("palette fits u32");
    }
    colors
}

/// DSATUR coloring (Brélaz 1979): repeatedly colors the uncolored vertex
/// with the highest *saturation* (number of distinct neighbor colors),
/// breaking ties by degree then id. Also bounded by `δ + 1` colors and
/// typically tighter than [`greedy`] on irregular graphs.
pub fn dsatur(g: &ConflictGraph) -> Vec<Color> {
    let n = g.len();
    let mut colors: Vec<Option<Color>> = vec![None; n];
    for _ in 0..n {
        // Select the uncolored vertex with maximum (saturation, degree, -id).
        let next = g
            .processes()
            .filter(|p| colors[p.index()].is_none())
            .max_by_key(|&p| {
                let mut sat: Vec<Color> = g
                    .neighbors(p)
                    .iter()
                    .filter_map(|&q| colors[q.index()])
                    .collect();
                sat.sort_unstable();
                sat.dedup();
                (sat.len(), g.degree(p), std::cmp::Reverse(p.index()))
            })
            .expect("an uncolored vertex remains");
        let used: Vec<Color> = g
            .neighbors(next)
            .iter()
            .filter_map(|&q| colors[q.index()])
            .collect();
        let c = (0..).find(|c| !used.contains(c)).expect("finite palette");
        colors[next.index()] = Some(c);
    }
    colors.into_iter().map(|c| c.unwrap_or(0)).collect()
}

/// Number of distinct colors used by a coloring.
pub fn palette_size(colors: &[Color]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn greedy_is_proper_and_bounded() {
        for g in [
            topology::ring(7),
            topology::clique(6),
            topology::star(9),
            topology::grid(4, 5),
            topology::binary_tree(15),
        ] {
            let colors = greedy(&g);
            validate(&g, &colors).unwrap();
            assert!(palette_size(&colors) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn dsatur_is_proper_and_bounded() {
        for g in [
            topology::ring(8),
            topology::clique(5),
            topology::star(10),
            topology::grid(3, 3),
            topology::binary_tree(10),
        ] {
            let colors = dsatur(&g);
            validate(&g, &colors).unwrap();
            assert!(palette_size(&colors) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn dsatur_colors_odd_ring_with_three() {
        let colors = dsatur(&topology::ring(9));
        assert_eq!(palette_size(&colors), 3);
    }

    #[test]
    fn greedy_colors_bipartite_grid_with_two() {
        let colors = greedy(&topology::grid(4, 4));
        assert_eq!(palette_size(&colors), 2);
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let g = topology::ring(4);
        assert_eq!(
            validate(&g, &[0, 1, 0]),
            Err(ColoringError::LengthMismatch {
                colors: 3,
                vertices: 4
            })
        );
    }

    #[test]
    fn validate_catches_monochromatic_edge() {
        let g = topology::path(3);
        let err = validate(&g, &[1, 1, 0]).unwrap_err();
        assert!(matches!(
            err,
            ColoringError::MonochromaticEdge { color: 1, .. }
        ));
        assert!(err.to_string().contains("share color"));
    }

    #[test]
    fn clique_needs_n_colors() {
        let g = topology::clique(6);
        assert_eq!(palette_size(&greedy(&g)), 6);
        assert_eq!(palette_size(&dsatur(&g)), 6);
    }

    #[test]
    fn empty_graph_coloring() {
        let g = crate::ConflictGraph::from_pairs(0, &[]);
        assert!(greedy(&g).is_empty());
        assert!(dsatur(&g).is_empty());
        validate(&g, &[]).unwrap();
    }
}
