//! The neighbor table every baseline keeps: its own id and color, its
//! neighbors sorted by id, and one byte of flags per neighbor.

use ekbd_dining::DiningMsg;
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};

/// The flags every baseline starts from. An algorithm's own flags take
/// the bits above these.
pub(crate) const FORK: u8 = 1 << 0;
pub(crate) const TOKEN: u8 = 1 << 1;

/// One process's neighbors and per-neighbor flags.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    pub(crate) id: ProcessId,
    pub(crate) color: Color,
    neighbors: Vec<ProcessId>,
    vars: Vec<u8>,
}

impl Table {
    /// Sorts the neighbors by id and puts each edge's fork at its
    /// higher-color end and its token at the lower, as in Algorithm 1.
    pub(crate) fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        let mut pairs: Vec<(ProcessId, Color)> = neighbors.into_iter().collect();
        pairs.sort_unstable_by_key(|&(q, _)| q);
        let (neighbors, vars) = pairs
            .into_iter()
            .map(|(q, qcolor)| {
                assert!(q != id, "a process is not its own neighbor");
                assert!(qcolor != color, "coloring must be proper");
                (q, if color > qcolor { FORK } else { TOKEN })
            })
            .unzip();
        Table {
            id,
            color,
            neighbors,
            vars,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbor at index `j`.
    pub(crate) fn at(&self, j: usize) -> ProcessId {
        self.neighbors[j]
    }

    /// The index of neighbor `q`.
    pub(crate) fn idx(&self, q: ProcessId) -> usize {
        self.neighbors
            .binary_search(&q)
            .unwrap_or_else(|_| panic!("{q} is not a neighbor of {}", self.id))
    }

    pub(crate) fn get(&self, j: usize, f: u8) -> bool {
        self.vars[j] & f != 0
    }

    pub(crate) fn set(&mut self, j: usize, f: u8, v: bool) {
        if v {
            self.vars[j] |= f;
        } else {
            self.vars[j] &= !f;
        }
    }

    /// Asks neighbor `j` for the fork, spending the token, if this
    /// process holds the token and not the fork.
    pub(crate) fn request(&mut self, j: usize, sends: &mut Vec<(ProcessId, DiningMsg)>) {
        if self.get(j, TOKEN) && !self.get(j, FORK) {
            sends.push((self.neighbors[j], DiningMsg::Request { color: self.color }));
            self.set(j, TOKEN, false);
        }
    }

    /// Neighbor `j`'s request arrived with the token.
    pub(crate) fn take_token(&mut self, j: usize) {
        debug_assert!(self.get(j, FORK), "request without fork");
        self.set(j, TOKEN, true);
    }

    /// Neighbor `j`'s fork arrived.
    pub(crate) fn take_fork(&mut self, j: usize) {
        debug_assert!(!self.get(j, FORK), "duplicate fork");
        self.set(j, FORK, true);
    }

    /// Hands neighbor `j` the fork.
    pub(crate) fn give_fork(&mut self, j: usize, sends: &mut Vec<(ProcessId, DiningMsg)>) {
        sends.push((self.neighbors[j], DiningMsg::Fork));
        self.set(j, FORK, false);
    }

    /// ⌈log₂(δ+1)⌉: the bits of a color (δ + 1 colors suffice) or of an
    /// index among the neighbors.
    pub(crate) fn width(&self) -> usize {
        (usize::BITS - self.len().max(1).leading_zeros()) as usize
    }
}

/// `id`'s neighbors in `g`, with their colors.
pub(crate) fn neighbors_in<'a>(
    g: &'a ConflictGraph,
    colors: &'a [Color],
    id: ProcessId,
) -> impl Iterator<Item = (ProcessId, Color)> + 'a {
    g.neighbors(id).iter().map(|&q| (q, colors[q.index()]))
}
