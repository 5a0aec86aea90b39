use std::fmt;

/// Identifier of a process (diner) in the conflict graph.
///
/// Process ids are dense indices `0..n` assigned at graph construction;
/// they double as vector indices throughout the workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the id as a `usize` suitable for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(v: usize) -> Self {
        ProcessId(u32::try_from(v).expect("process id exceeds u32::MAX"))
    }
}

/// An undirected edge of the conflict graph, stored in canonical
/// (smaller-endpoint-first) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// The endpoint with the smaller process id.
    pub lo: ProcessId,
    /// The endpoint with the larger process id.
    pub hi: ProcessId,
}

impl Edge {
    /// Creates the canonical edge between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (the conflict graph has no self-loops).
    pub fn new(a: ProcessId, b: ProcessId) -> Self {
        assert!(a != b, "conflict graph has no self-loops");
        if a < b {
            Edge { lo: a, hi: b }
        } else {
            Edge { lo: b, hi: a }
        }
    }

    /// Returns the endpoint opposite to `p`, or `None` if `p` is not an
    /// endpoint of this edge.
    pub fn other(&self, p: ProcessId) -> Option<ProcessId> {
        if p == self.lo {
            Some(self.hi)
        } else if p == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

/// Errors produced when constructing a [`ConflictGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: ProcessId,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// An edge connected a vertex to itself.
    SelfLoop(ProcessId),
    /// The same edge appeared twice.
    DuplicateEdge(Edge),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph of {n} vertices")
            }
            GraphError::SelfLoop(p) => write!(f, "self-loop at {p}"),
            GraphError::DuplicateEdge(e) => write!(f, "duplicate edge {e:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable undirected conflict graph over processes `0..n`.
///
/// Neighbor lists are kept sorted, and edges are deduplicated and
/// validated at construction, so downstream code can rely on canonical
/// iteration order — essential for deterministic simulation.
///
/// The lists live in one compressed-sparse-row array: `p`'s neighbors
/// are `adj[offsets[p]..offsets[p + 1]]`, so a graph is two allocations
/// whatever its size, and walking every list walks memory in order. The
/// lists are also the only edge list: each edge is read off its lower
/// endpoint's list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictGraph {
    /// `n + 1` list boundaries into `adj`; `offsets[n] == adj.len()`.
    offsets: Vec<u32>,
    /// Every neighbor list, concatenated in process order.
    adj: Vec<ProcessId>,
}

impl ConflictGraph {
    /// Builds a conflict graph over `n` vertices from an edge list.
    ///
    /// Edges may be given in either orientation; they are canonicalized.
    /// The sorted list that validates them is dropped on return.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an edge is out of range, a self-loop, or
    /// a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if the graph has `2^31` or more edges (list offsets are
    /// `u32`).
    pub fn new(
        n: usize,
        edge_list: impl IntoIterator<Item = (ProcessId, ProcessId)>,
    ) -> Result<Self, GraphError> {
        let edge_list = edge_list.into_iter();
        let mut edges = Vec::with_capacity(edge_list.size_hint().0);
        for (a, b) in edge_list {
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
        edges.sort_unstable();
        if let Some(w) = edges.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge(w[0]));
        }
        let total = u32::try_from(2 * edges.len()).expect("list offsets are u32");
        // Pass 1 counts the degree of `v` into `offsets[v + 2]`, so after
        // the prefix sum `offsets[p + 1]` is where `p`'s list starts. Pass
        // 2 uses it as `p`'s write cursor and leaves it at the list's end,
        // which is where `p + 1`'s list starts: the finished offsets.
        let mut offsets = vec![0u32; n + 1];
        for e in &edges {
            for v in [e.lo, e.hi] {
                if let Some(d) = offsets.get_mut(v.index() + 2) {
                    *d += 1;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Pass 2: in sorted edge order, `v`'s list receives its smaller
        // neighbors (edges `(lo, v)`, by `lo`) before its larger ones
        // (edges `(v, hi)`, by `hi`), so every list comes out sorted.
        let mut adj = vec![ProcessId(0); 2 * edges.len()];
        for e in &edges {
            for (v, w) in [(e.lo, e.hi), (e.hi, e.lo)] {
                let cursor = &mut offsets[v.index() + 1];
                adj[*cursor as usize] = w;
                *cursor += 1;
            }
        }
        debug_assert_eq!(offsets[n], total);
        Ok(ConflictGraph { offsets, adj })
    }

    /// Builds a graph from `usize` pairs; convenience for literals.
    ///
    /// # Panics
    ///
    /// Panics on invalid edges; use [`ConflictGraph::new`] for fallible
    /// construction.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Self {
        Self::new(
            n,
            pairs
                .iter()
                .map(|&(a, b)| (ProcessId::from(a), ProcessId::from(b))),
        )
        .expect("invalid edge list")
    }

    /// Number of vertices (processes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// All canonical edges in sorted order: each process's neighbors
    /// above itself, process by process.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.processes().flat_map(move |lo| {
            let list = self.neighbors(lo);
            list[list.partition_point(|&q| q < lo)..]
                .iter()
                .map(move |&hi| Edge { lo, hi })
        })
    }

    /// Sorted neighbor list of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: ProcessId) -> &[ProcessId] {
        let i = p.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `p`.
    #[inline]
    pub fn degree(&self, p: ProcessId) -> usize {
        let i = p.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree `δ` of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Whether `a` and `b` are neighbors.
    pub fn are_neighbors(&self, a: ProcessId, b: ProcessId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all process ids `0..n`.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.len()).map(ProcessId::from)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![ProcessId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(p) = stack.pop() {
            for &q in self.neighbors(p) {
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    count += 1;
                    stack.push(q);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn edge_canonicalizes_orientation() {
        assert_eq!(Edge::new(p(3), p(1)), Edge::new(p(1), p(3)));
        let e = Edge::new(p(2), p(5));
        assert_eq!(e.lo, p(2));
        assert_eq!(e.hi, p(5));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(p(1), p(4));
        assert_eq!(e.other(p(1)), Some(p(4)));
        assert_eq!(e.other(p(4)), Some(p(1)));
        assert_eq!(e.other(p(2)), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(p(2), p(2));
    }

    #[test]
    fn graph_construction_and_queries() {
        let g = ConflictGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(p(1)), &[p(0), p(2)]);
        assert_eq!(g.degree(p(0)), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.are_neighbors(p(0), p(3)));
        assert!(!g.are_neighbors(p(0), p(2)));
        assert!(g.is_connected());
    }

    #[test]
    fn graph_rejects_out_of_range() {
        let err = ConflictGraph::new(2, vec![(p(0), p(2))]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: p(2), n: 2 });
    }

    #[test]
    fn graph_rejects_self_loop() {
        let err = ConflictGraph::new(3, vec![(p(1), p(1))]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(p(1)));
    }

    #[test]
    fn graph_rejects_duplicate_even_reversed() {
        let err = ConflictGraph::new(3, vec![(p(0), p(1)), (p(1), p(0))]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge(Edge::new(p(0), p(1))));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = ConflictGraph::from_pairs(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = ConflictGraph::from_pairs(0, &[]);
        assert!(g0.is_empty());
        assert!(g0.is_connected());
        let g1 = ConflictGraph::from_pairs(1, &[]);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1.max_degree(), 0);
        assert!(g1.is_connected());
    }

    #[test]
    fn edges_sorted_canonically() {
        let g = ConflictGraph::from_pairs(4, &[(3, 2), (1, 0), (2, 0)]);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            [
                Edge::new(p(0), p(1)),
                Edge::new(p(0), p(2)),
                Edge::new(p(2), p(3)),
            ]
        );
    }

    /// The lists are one exact-size array: no per-list slack, no spare
    /// capacity, one boundary per process plus the end. They are the
    /// graph's only heap, and its only edge list.
    #[test]
    fn csr_layout_has_no_slack() {
        let graphs = [
            ConflictGraph::from_pairs(0, &[]),
            ConflictGraph::from_pairs(3, &[]),
            ConflictGraph::from_pairs(5, &[(4, 0), (2, 1), (0, 1), (3, 4)]),
            crate::random::sparse_gnp(2_000, 3.0 / 1_999.0, 4),
            crate::random::powerlaw(1_000, 3, 5),
            crate::topology::clique(9),
        ];
        for g in &graphs {
            assert_eq!(g.adj.len(), 2 * g.edge_count());
            assert_eq!(g.adj.capacity(), g.adj.len());
            assert_eq!(g.offsets.len(), g.len() + 1);
            assert_eq!(g.offsets[g.len()] as usize, g.adj.len());
            assert_eq!(g.edge_count(), g.edges().count());
            // Exhaustive, so a third field stops this test compiling.
            let ConflictGraph { offsets, adj: _ } = g;
            assert_eq!(offsets.capacity(), offsets.len());
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", p(7)), "p7");
        assert_eq!(format!("{:?}", p(7)), "p7");
        let err = GraphError::SelfLoop(p(1));
        assert!(err.to_string().contains("self-loop"));
    }
}
