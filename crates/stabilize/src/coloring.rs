use crate::protocol::Protocol;
use ekbd_graph::{ConflictGraph, ProcessId};
use rand::rngs::StdRng;
use rand::Rng;

/// Self-stabilizing (δ+1)-coloring.
///
/// State: a color in `0..=δ`. A process is enabled when it shares its
/// color with a *live-relevant* neighbor of smaller id or any neighbor
/// (symmetric rule): here, enabled iff some neighbor has the same color;
/// the action recolors to the smallest color absent from the neighborhood.
///
/// Under local mutual exclusion two conflicting neighbors never recolor
/// from the same view, so every executed step strictly reduces the
/// conflict count restricted to the stepping process — the classic
/// convergence argument. Without exclusion (or during ◇WX mistakes) two
/// neighbors can pick the same color simultaneously; the conflict persists
/// as a fresh transient fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColoringProtocol {
    /// When set, transient faults are worst-case: the corrupted process
    /// clones the color of one of its neighbors (guaranteed conflict)
    /// instead of drawing a random color.
    pub adversarial_faults: bool,
}

impl ColoringProtocol {
    /// Coloring with worst-case (conflict-creating) transient faults.
    pub fn adversarial() -> Self {
        ColoringProtocol {
            adversarial_faults: true,
        }
    }
}

impl Protocol for ColoringProtocol {
    type State = u32;

    fn name(&self) -> &'static str {
        "coloring"
    }

    fn random_config(&self, g: &ConflictGraph, rng: &mut StdRng) -> Vec<u32> {
        let palette = g.max_degree() as u32 + 1;
        (0..g.len()).map(|_| rng.gen_range(0..palette)).collect()
    }

    fn corrupt(&self, p: ProcessId, states: &[u32], g: &ConflictGraph, rng: &mut StdRng) -> u32 {
        let neighbors = g.neighbors(p);
        if self.adversarial_faults && !neighbors.is_empty() {
            // Clone a random neighbor's color: a guaranteed fresh conflict.
            let q = neighbors[rng.gen_range(0..neighbors.len())];
            states[q.index()]
        } else {
            rng.gen_range(0..g.max_degree() as u32 + 1)
        }
    }

    fn enabled(&self, p: ProcessId, view: &[u32], g: &ConflictGraph) -> bool {
        g.neighbors(p)
            .iter()
            .any(|&q| view[q.index()] == view[p.index()])
    }

    fn target(&self, p: ProcessId, view: &[u32], g: &ConflictGraph) -> u32 {
        let used: Vec<u32> = g.neighbors(p).iter().map(|&q| view[q.index()]).collect();
        (0..)
            .find(|c| !used.contains(c))
            .expect("palette large enough")
    }

    fn legitimate(
        &self,
        states: &[u32],
        g: &ConflictGraph,
        alive: &dyn Fn(ProcessId) -> bool,
    ) -> bool {
        // Every edge with at least one live endpoint must be bichromatic: a
        // live process can always escape a conflict (δ+1 colors), even one
        // with a frozen crashed neighbor.
        g.edges()
            .all(|e| (!alive(e.lo) && !alive(e.hi)) || states[e.lo.index()] != states[e.hi.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_graph::topology;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    #[test]
    fn enabled_iff_conflicting() {
        let g = topology::path(3);
        let proto = ColoringProtocol::default();
        let view = vec![0, 0, 1];
        assert!(proto.enabled(p(0), &view, &g));
        assert!(proto.enabled(p(1), &view, &g));
        assert!(!proto.enabled(p(2), &view, &g));
    }

    #[test]
    fn target_picks_smallest_free_color() {
        let g = topology::star(4);
        let proto = ColoringProtocol::default();
        let view = vec![0, 0, 1, 2];
        assert_eq!(proto.target(p(0), &view, &g), 3);
        let view = vec![0, 1, 1, 2];
        assert_eq!(proto.target(p(0), &view, &g), 0);
    }

    #[test]
    fn sequential_central_daemon_converges() {
        // Pure protocol check (no daemon): repeatedly step any enabled
        // process; must reach legitimacy.
        let g = topology::grid(3, 3);
        let proto = ColoringProtocol::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut states = proto.random_config(&g, &mut rng);
        let alive = |_: ProcessId| true;
        let mut steps = 0;
        while !proto.legitimate(&states, &g, &alive) {
            let next = g
                .processes()
                .find(|&q| proto.enabled(q, &states, &g))
                .expect("illegitimate ⇒ someone enabled");
            states[next.index()] = proto.target(next, &states, &g);
            steps += 1;
            assert!(steps < 10_000, "coloring failed to converge");
        }
        ekbd_graph::coloring::validate(&g, &states).unwrap();
    }

    #[test]
    fn legitimacy_ignores_dead_dead_edges() {
        // Path 0-1-2 with states [0, 0, 1]: the 0-1 edge conflicts.
        let g = topology::path(3);
        let proto = ColoringProtocol::default();
        let states = vec![0, 0, 1];
        // Everyone alive: illegitimate.
        assert!(!proto.legitimate(&states, &g, &|_| true));
        // p0 alive, p1 dead: a live process still touches the conflicting
        // edge, so it remains illegitimate (p0 can recolor away).
        assert!(!proto.legitimate(&states, &g, &|q| q != p(1)));
        // Only p2 alive: the 0-0 conflict is between two dead processes and
        // is ignored; the 1-2 edge is bichromatic — legitimate.
        assert!(proto.legitimate(&states, &g, &|q| q == p(2)));
    }
}
