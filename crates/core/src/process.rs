use crate::msg::{outbox, DiningMsg};
use crate::traits::{DinerState, DiningAlgorithm, DiningInput};
use ekbd_detector::SuspicionView;
use ekbd_graph::coloring::Color;
use ekbd_graph::{ConflictGraph, ProcessId};
use ekbd_sim::alg1::{self, ACK, DEFERRED, FORK, PINGED, REPLIED, TOKEN};

/// The per-process state machine of Algorithm 1.
///
/// All ten actions of the paper are implemented verbatim:
///
/// | Action | Trigger here | Paper lines |
/// |---|---|---|
/// | 1 — become hungry | [`DiningInput::Hungry`] | 1–2 |
/// | 2 — request acks | internal, evaluated after every event | 3–5 |
/// | 3 — receive ping | [`DiningInput::Message`] (`Ping`) | 6–10 |
/// | 4 — receive ack | [`DiningInput::Message`] (`Ack`) | 11–13 |
/// | 5 — enter doorway | internal | 14–17 |
/// | 6 — request forks | internal | 18–20 |
/// | 7 — receive request | [`DiningInput::Message`] (`Request`) | 21–24 |
/// | 8 — receive fork | [`DiningInput::Message`] (`Fork`) | 25–26 |
/// | 9 — eat | internal | 27–28 |
/// | 10 — exit | [`DiningInput::DoneEating`] | 29–35 |
///
/// Internal actions (2, 5, 6, 9) are guarded commands; after handling any
/// event the machine evaluates them in the enabling order 2 → 5 → 6 → 9,
/// which is a legal weakly-fair schedule (an action enabled after an event
/// fires before the next event is handled).
///
/// The per-neighbour variables (`pinged`, `ack`, `replied`, `deferred`,
/// `fork`, `token`) are §7's `6δ` bits, stored as the S1 words of
/// [`ekbd_sim::alg1`], and every action that reads or writes them is that
/// module's — the packed scale kernel runs the same code. What is this
/// type's own: the phase and doorway bit, the suspicion view, and messages
/// that carry the requester's colour.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DiningProcess {
    id: ProcessId,
    color: Color,
    /// Sorted neighbor ids; slot `j` of `vars` is `neighbors[j]`'s.
    neighbors: Vec<ProcessId>,
    state: DinerState,
    inside: bool,
    vars: Vec<u64>,
    /// Tolerate lemma violations (crash-recovery / corruption hardening).
    hardened: bool,
}

impl DiningProcess {
    /// Creates the process `id` with static priority `color` and the given
    /// neighbors (each with *its* color, used only for the initial fork and
    /// token placement: fork at the higher-color endpoint, token at the
    /// lower, §3.1).
    ///
    /// # Panics
    ///
    /// Panics if a neighbor shares `color` (the coloring must be proper) or
    /// if a neighbor is `id` itself.
    pub fn new(
        id: ProcessId,
        color: Color,
        neighbors: impl IntoIterator<Item = (ProcessId, Color)>,
    ) -> Self {
        let mut pairs: Vec<(ProcessId, Color)> = neighbors.into_iter().collect();
        pairs.sort_unstable_by_key(|&(q, _)| q);
        let mut ids = Vec::with_capacity(pairs.len());
        let mut vars = vec![0; alg1::words_for(pairs.len())];
        for (j, (q, qcolor)) in pairs.into_iter().enumerate() {
            assert!(q != id, "a process is not its own neighbor");
            assert!(
                qcolor != color,
                "neighbors {id} and {q} share color {color}: coloring must be proper"
            );
            ids.push(q);
            alg1::place(&mut vars, j, color > qcolor);
        }
        DiningProcess {
            id,
            color,
            neighbors: ids,
            state: DinerState::Thinking,
            inside: false,
            vars,
            hardened: false,
        }
    }

    /// Creates the process `id` from a conflict graph and a proper coloring
    /// (as produced by [`ekbd_graph::coloring`]).
    pub fn from_graph(g: &ConflictGraph, colors: &[Color], id: ProcessId) -> Self {
        Self::new(
            id,
            colors[id.index()],
            g.neighbors(id).iter().map(|&q| (q, colors[q.index()])),
        )
    }

    /// This process's static priority.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Sorted neighbor ids.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.neighbors
    }

    /// `q`'s slot in the S1 words: its index in `neighbors`.
    pub(crate) fn slot(&self, q: ProcessId) -> usize {
        self.neighbors
            .binary_search(&q)
            .unwrap_or_else(|_| panic!("{q} is not a neighbor of {}", self.id))
    }

    fn has(&self, q: ProcessId, f: u8) -> bool {
        alg1::get(&self.vars, self.slot(q), f)
    }

    /// Whether this process currently holds the fork shared with `q`.
    pub fn holds_fork(&self, q: ProcessId) -> bool {
        self.has(q, FORK)
    }

    /// Whether this process currently holds the token shared with `q`.
    pub fn holds_token(&self, q: ProcessId) -> bool {
        self.has(q, TOKEN)
    }

    /// Whether a ping to `q` is pending (Lemma 2.2 allows at most one).
    pub fn ping_pending(&self, q: ProcessId) -> bool {
        self.has(q, PINGED)
    }

    /// Whether this process is deferring a ping from `q`.
    pub fn deferring_ack(&self, q: ProcessId) -> bool {
        self.has(q, DEFERRED)
    }

    /// Whether this process has sent `q` an ack during its current hungry
    /// session (the ◇2-BW `replied` flag).
    pub fn replied_to(&self, q: ProcessId) -> bool {
        self.has(q, REPLIED)
    }

    /// Action 3 on slot `j`: whether the ping is answered now. An answer
    /// sets `replied` to `reply`, which Algorithm 1 makes "hungry" and
    /// [`BudgetedDiningProcess`](crate::BudgetedDiningProcess) makes
    /// "this grant spends the budget".
    pub(crate) fn ping(&mut self, j: usize, reply: bool) -> bool {
        alg1::ping(&mut self.vars, j, self.inside, reply)
    }

    // ----- dynamic-membership support -----------------------------------

    /// Rewrites `vars` after `edit` inserted or removed one neighbour's
    /// flags; the slots after it move by one.
    fn reslot(&mut self, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut flags: Vec<u8> = (0..self.neighbors.len())
            .map(|j| alg1::flags(&self.vars, j))
            .collect();
        edit(&mut flags);
        self.vars = vec![0; alg1::words_for(flags.len())];
        for (j, &f) in flags.iter().enumerate() {
            alg1::store(&mut self.vars, j, f);
        }
    }

    /// Grows the conflict edge to a newly joined neighbor `q` with priority
    /// `qcolor`. The edge boots with the §3.1 initial placement (fork bit at
    /// the higher color, token at the lower); session flags start clear, so
    /// an in-flight hungry session of `self` simply extends its guard set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is already a neighbor, is `id` itself, or shares
    /// `color` (the incremental recoloring must keep the coloring proper).
    pub fn add_neighbor(&mut self, q: ProcessId, qcolor: Color) {
        assert!(q != self.id, "a process is not its own neighbor");
        assert!(
            qcolor != self.color,
            "neighbors {} and {q} share color {}: coloring must be proper",
            self.id,
            self.color
        );
        let j = self
            .neighbors
            .binary_search(&q)
            .expect_err("already a neighbor");
        let placement = if self.color > qcolor { FORK } else { TOKEN };
        self.reslot(|flags| flags.insert(j, placement));
        self.neighbors.insert(j, q);
    }

    /// Tears down the conflict edge to the departed neighbor `q`, dropping
    /// whatever edge state (fork, token, deferrals) this side held. Guards
    /// that quantified over `q` must be re-evaluated by the caller — a
    /// hungry process may become able to enter the doorway or eat.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a neighbor.
    pub fn remove_neighbor(&mut self, q: ProcessId) {
        let j = self.slot(q);
        self.reslot(|flags| {
            flags.remove(j);
        });
        self.neighbors.remove(j);
    }

    // ----- crash-recovery / self-stabilization support ------------------

    /// Switches the lemma `debug_assert!`s from "panic" to "tolerate".
    ///
    /// Under the crash-stop model Lemmas 1.1/1.2 are invariants and their
    /// violation is a bug; under crash-recovery with state corruption they
    /// fail *legitimately and transiently* (a stale request crossing a
    /// rejoin, a flipped fork bit) and the audit-and-repair layer restores
    /// them. The crash-recovery wrapper hardens its inner process.
    pub fn harden(&mut self) {
        self.hardened = true;
    }

    /// The raw per-neighbor flags of the edge to `q` (low six bits:
    /// `PINGED`, `ACK`, `REPLIED`, `DEFERRED`, `FORK`, `TOKEN`) — what the
    /// stable-storage journal snapshots on every commit.
    pub fn edge_flags(&self, q: ProcessId) -> u8 {
        alg1::flags(&self.vars, self.slot(q))
    }

    /// The S1 words, slot `j` being `neighbors()[j]`'s edge.
    pub(crate) fn vars(&self) -> &[u64] {
        &self.vars
    }

    /// The S1 words for the crash-recovery layer's surgery by slot (rejoin
    /// handshake, journal replay, audit repairs, corruption) — never
    /// written this way by Algorithm 1 itself.
    pub(crate) fn vars_mut(&mut self) -> &mut [u64] {
        &mut self.vars
    }

    /// Factory reset: thinking, outside the doorway, and every slot back at
    /// §3.1's initial placement, `higher(j)` saying whether this side
    /// outranks slot `j`'s neighbour.
    pub(crate) fn reset(&mut self, higher: impl Fn(usize) -> bool) {
        self.state = DinerState::Thinking;
        self.inside = false;
        self.vars.fill(0);
        for j in 0..self.neighbors.len() {
            alg1::place(&mut self.vars, j, higher(j));
        }
    }

    /// Local audit-and-repair of slot `j`: clears flag states unreachable
    /// under Algorithm 1 (so only producible by corruption or a botched
    /// rejoin) and discharges them safely. Returns whether anything was
    /// repaired.
    ///
    /// * `ack`/`replied` set while not hungry-outside-the-doorway — both are
    ///   cleared on doorway entry and only set while hungry, so this is
    ///   residue; cleared.
    /// * `deferred` set while thinking outside the doorway — exit clears all
    ///   deferrals and a thinking process never defers, so this ping would
    ///   be deferred forever; grant the ack now and clear.
    /// * `token && fork` co-located while outside the doorway — a deferred
    ///   fork request is encoded as token+fork *inside* a session and exit
    ///   discharges it, so outside one the pair can only come from
    ///   corruption (directly, or via the audit exchange recreating a lost
    ///   fork/token next to the surviving one). Left alone it starves a
    ///   peer waiting inside the doorway whose request was consumed;
    ///   discharge it exactly as exit would — the fork travels to the
    ///   peer, the token stays.
    ///
    /// The crash-recovery layer calls it on synced edges to live members
    /// only: an unsynced edge's state is owned by the resume/rejoin
    /// protocol (a journaled mid-session `token+fork` pair is *legitimate*
    /// there, and a discharge sent into a suppressed edge would silently
    /// destroy the fork).
    pub(crate) fn audit_local(
        &mut self,
        j: usize,
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) -> bool {
        let q = self.neighbors[j];
        let flags = alg1::flags(&self.vars, j);
        let hungry_outside = self.state == DinerState::Hungry && !self.inside;
        let mut repaired = false;
        if !hungry_outside && flags & (ACK | REPLIED) != 0 {
            alg1::set(&mut self.vars, j, ACK | REPLIED, false);
            repaired = true;
        }
        if self.state == DinerState::Thinking && !self.inside && flags & DEFERRED != 0 {
            sends.push((q, DiningMsg::Ack));
            alg1::set(&mut self.vars, j, DEFERRED, false);
            repaired = true;
        }
        if !self.inside && flags & (TOKEN | FORK) == TOKEN | FORK {
            sends.push((q, DiningMsg::Fork));
            alg1::set(&mut self.vars, j, FORK, false);
            repaired = true;
        }
        repaired
    }
}

impl DiningAlgorithm for DiningProcess {
    type Msg = DiningMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn handle(
        &mut self,
        input: DiningInput<DiningMsg>,
        suspicion: &dyn SuspicionView,
        sends: &mut Vec<(ProcessId, DiningMsg)>,
    ) {
        let hungry = self.state == DinerState::Hungry;
        match input {
            DiningInput::Hungry => {
                debug_assert!(
                    self.hardened || self.state == DinerState::Thinking,
                    "{}: Hungry is only legal while thinking",
                    self.id
                );
                if self.state == DinerState::Thinking {
                    self.state = DinerState::Hungry;
                }
            }
            DiningInput::DoneEating => {
                debug_assert!(
                    self.hardened || self.state == DinerState::Eating,
                    "{}: DoneEating is only legal while eating",
                    self.id
                );
                if self.state == DinerState::Eating {
                    // Action 10 (lines 29–35).
                    self.inside = false;
                    self.state = DinerState::Thinking;
                    let slots = 0..self.neighbors.len();
                    let sink = outbox(&self.neighbors, self.color, sends);
                    alg1::exit(&mut self.vars, slots, sink);
                }
            }
            DiningInput::Message { from, msg } => {
                let j = self.slot(from);
                let answer = match msg {
                    DiningMsg::Ping => self.ping(j, hungry).then_some(DiningMsg::Ack),
                    DiningMsg::Ack => {
                        alg1::ack(&mut self.vars, j, hungry && !self.inside);
                        None
                    }
                    DiningMsg::Request { color } => {
                        debug_assert!(
                            self.hardened || alg1::get(&self.vars, j, FORK),
                            "Lemma 1.1 violated: {} received a request from {from} without holding the fork",
                            self.id
                        );
                        // A fork can only be granted if actually held —
                        // under the crash-recovery fault model a stale
                        // request may arrive after the edge was
                        // re-canonicalized with the fork on the requester's
                        // side.
                        let outranked = hungry && self.color < color;
                        alg1::request(&mut self.vars, j, self.inside, outranked)
                            .then_some(DiningMsg::Fork)
                    }
                    DiningMsg::Fork => {
                        debug_assert!(
                            self.hardened || !alg1::get(&self.vars, j, FORK),
                            "Lemma 1.2 violated: duplicate fork between {} and {from}",
                            self.id
                        );
                        alg1::fork(&mut self.vars, j);
                        None
                    }
                };
                sends.extend(answer.map(|msg| (from, msg)));
            }
            DiningInput::SuspicionChange => {}
        }
        if self.state == DinerState::Hungry {
            let neighbors = &self.neighbors;
            let eats = alg1::hungry(
                &mut self.vars,
                0..neighbors.len(),
                &mut self.inside,
                |j| suspicion.suspects(neighbors[j]),
                outbox(neighbors, self.color, sends),
            );
            if eats {
                self.state = DinerState::Eating;
            }
        }
    }

    fn state(&self) -> DinerState {
        self.state
    }

    fn inside_doorway(&self) -> bool {
        self.inside
    }

    /// §7: `log₂(δ) + 6δ + c` bits — 2 for `state`, 1 for `inside`,
    /// `⌈log₂(δ+1)⌉` for the color, and 6 per neighbor.
    fn state_bits(&self) -> usize {
        let delta = self.neighbors.len();
        // ⌈log₂(δ+1)⌉ bits index the δ+1 possible colors (at least 1 bit).
        let color_bits = (usize::BITS - delta.max(1).leading_zeros()) as usize;
        2 + 1 + color_bits + 6 * delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::from(i)
    }

    fn none() -> BTreeSet<ProcessId> {
        BTreeSet::new()
    }

    fn sus(ids: &[usize]) -> BTreeSet<ProcessId> {
        ids.iter().map(|&i| p(i)).collect()
    }

    /// A two-process pair: `hi` (color 1, starts with fork) and `lo`
    /// (color 0, starts with token).
    fn pair() -> (DiningProcess, DiningProcess) {
        let hi = DiningProcess::new(p(0), 1, [(p(1), 0)]);
        let lo = DiningProcess::new(p(1), 0, [(p(0), 1)]);
        (hi, lo)
    }

    #[test]
    fn initial_fork_and_token_placement() {
        let (hi, lo) = pair();
        assert!(hi.holds_fork(p(1)) && !hi.holds_token(p(1)));
        assert!(!lo.holds_fork(p(0)) && lo.holds_token(p(0)));
        assert_eq!(hi.state(), DinerState::Thinking);
        assert!(!hi.inside_doorway());
    }

    #[test]
    #[should_panic(expected = "share color")]
    fn rejects_improper_coloring() {
        let _ = DiningProcess::new(p(0), 1, [(p(1), 1)]);
    }

    #[test]
    #[should_panic(expected = "not its own neighbor")]
    fn rejects_self_neighbor() {
        let _ = DiningProcess::new(p(0), 1, [(p(0), 0)]);
    }

    #[test]
    fn action2_hungry_sends_pings_once() {
        let (mut hi, _) = pair();
        let mut out = Vec::new();
        hi.handle(DiningInput::Hungry, &none(), &mut out);
        assert_eq!(out, vec![(p(1), DiningMsg::Ping)]);
        assert!(hi.ping_pending(p(1)));
        // Re-evaluating internal actions must not duplicate the ping
        // (Lemma 2.2: at most one pending ping per direction).
        let mut out = Vec::new();
        hi.handle(DiningInput::SuspicionChange, &none(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn action3_thinking_process_grants_ack_without_replied() {
        let (mut hi, _) = pair();
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(1), DiningMsg::Ack)]);
        assert!(
            !hi.replied_to(p(1)),
            "replied is only set when the granter is hungry (line 10)"
        );
    }

    #[test]
    fn action3_hungry_process_grants_one_ack_then_defers() {
        let (mut hi, _) = pair();
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert_eq!(out, vec![(p(1), DiningMsg::Ack)]);
        assert!(hi.replied_to(p(1)), "hungry granter records the reply");

        // A second ping within the same hungry session is deferred: this is
        // the revised doorway that yields eventual 2-bounded waiting.
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(hi.deferring_ack(p(1)));
    }

    #[test]
    fn action4_ack_only_counts_while_hungry_outside() {
        let (mut hi, _) = pair();
        // Ack while thinking: pinged cleared, ack not recorded.
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut Vec::new(),
        );
        assert!(!hi.inside_doorway());
        // Become hungry: pings go out; the ack arrives; doorway entered.
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut out,
        );
        assert!(hi.inside_doorway(), "all acks collected ⇒ Action 5 fires");
        assert!(
            hi.state() == DinerState::Eating,
            "hi already held the only fork ⇒ Action 9 fires too"
        );
    }

    #[test]
    fn action5_resets_ack_and_replied_on_entry() {
        let (mut hi, _) = pair();
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        // Grant an ack to the neighbor while hungry: replied = true.
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut Vec::new(),
        );
        assert!(hi.replied_to(p(1)));
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut Vec::new(),
        );
        assert!(hi.inside_doorway());
        assert!(!hi.replied_to(p(1)), "replied resets on doorway entry");
    }

    #[test]
    fn suspicion_substitutes_for_missing_ack_and_fork() {
        // lo has neither the fork nor (ever) an ack from its crashed
        // neighbor; suspicion lets it enter the doorway and eat (the crux of
        // wait-freedom).
        let (_, mut lo) = pair();
        let suspects = sus(&[0]);
        let mut out = Vec::new();
        lo.handle(DiningInput::Hungry, &suspects, &mut out);
        assert_eq!(lo.state(), DinerState::Eating);
        assert!(lo.inside_doorway());
        // It pinged and token-requested nobody useful — but messages to the
        // crashed neighbor are allowed; check only that it ate.
    }

    #[test]
    fn full_two_process_handshake_lower_color_wins_fork() {
        let (mut hi, mut lo) = pair();
        // lo becomes hungry: ping out.
        let mut m1 = Vec::new();
        lo.handle(DiningInput::Hungry, &none(), &mut m1);
        assert_eq!(m1, vec![(p(0), DiningMsg::Ping)]);
        // hi (thinking) acks.
        let mut m2 = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut m2,
        );
        assert_eq!(m2, vec![(p(1), DiningMsg::Ack)]);
        // lo receives ack → enters doorway → spends token on a fork request.
        let mut m3 = Vec::new();
        lo.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut m3,
        );
        assert!(lo.inside_doorway());
        assert_eq!(m3, vec![(p(0), DiningMsg::Request { color: 0 })]);
        assert!(!lo.holds_token(p(0)), "token travels with the request");
        // hi is outside the doorway → grants the fork (Action 7).
        let mut m4 = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut m4,
        );
        assert_eq!(m4, vec![(p(1), DiningMsg::Fork)]);
        assert!(!hi.holds_fork(p(1)));
        assert!(
            hi.holds_token(p(1)),
            "token stays with the deferred granter"
        );
        // lo receives the fork → eats.
        let mut m5 = Vec::new();
        lo.handle(
            DiningInput::Message {
                from: p(0),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut m5,
        );
        assert_eq!(lo.state(), DinerState::Eating);
        assert!(m5.is_empty());
        // lo exits: no deferred requests, nothing to send.
        let mut m6 = Vec::new();
        lo.handle(DiningInput::DoneEating, &none(), &mut m6);
        assert_eq!(lo.state(), DinerState::Thinking);
        assert!(!lo.inside_doorway());
        assert!(m6.is_empty());
    }

    #[test]
    fn action7_defers_while_eating_and_grants_on_exit() {
        let (mut hi, _lo) = pair();
        // hi eats first (it holds the fork; the lone neighbor acks).
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ack,
            },
            &none(),
            &mut Vec::new(),
        );
        assert_eq!(hi.state(), DinerState::Eating);
        // A request arrives while eating: deferred (token retained).
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "eating processes defer fork requests");
        assert!(hi.holds_token(p(1)) && hi.holds_fork(p(1)));
        // Exit grants the deferred fork (Action 10, lines 32–33).
        let mut out = Vec::new();
        hi.handle(DiningInput::DoneEating, &none(), &mut out);
        assert_eq!(out, vec![(p(1), DiningMsg::Fork)]);
        assert!(!hi.holds_fork(p(1)));
        assert!(hi.holds_token(p(1)));
    }

    #[test]
    fn action7_priority_resolves_doorway_symmetry() {
        // A hungry process inside the doorway grants fork requests from
        // higher-color neighbors and defers those from lower-color ones —
        // the paper's color-based symmetry breaking (line 23).
        //
        // Star around p0 (color 1), leaves p1 (color 0), p2 (color 2),
        // p3 (color 3). Initially p0 holds fork(p1) and tokens for p2, p3.
        let mut p0 = DiningProcess::new(p(0), 1, [(p(1), 0), (p(2), 2), (p(3), 3)]);
        let mut out = Vec::new();
        p0.handle(DiningInput::Hungry, &none(), &mut out);
        assert_eq!(
            out,
            vec![
                (p(1), DiningMsg::Ping),
                (p(2), DiningMsg::Ping),
                (p(3), DiningMsg::Ping)
            ]
        );
        // All three leaves (thinking) ack; p0 enters the doorway and spends
        // both tokens requesting the missing forks.
        let mut out = Vec::new();
        for j in [1, 2, 3] {
            p0.handle(
                DiningInput::Message {
                    from: p(j),
                    msg: DiningMsg::Ack,
                },
                &none(),
                &mut out,
            );
        }
        assert!(p0.inside_doorway());
        assert_eq!(p0.state(), DinerState::Hungry);
        assert!(out.contains(&(p(2), DiningMsg::Request { color: 1 })));
        assert!(out.contains(&(p(3), DiningMsg::Request { color: 1 })));
        // p2 grants its fork; p3's is still missing, so p0 stays hungry
        // inside the doorway holding fork(p1) and fork(p2).
        p0.handle(
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Fork,
            },
            &none(),
            &mut Vec::new(),
        );
        assert_eq!(p0.state(), DinerState::Hungry);
        // Request from the HIGHER-color p2 (it got the token with p0's
        // request): hungry insider with lower color must grant — and, since
        // Action 6 is still enabled (token back, fork gone), immediately
        // re-request the fork. This is the fork bouncing Lemma 2.3 talks
        // about: "i may lose forks to its neighbors in High_i before i eats".
        let mut out = Vec::new();
        p0.handle(
            DiningInput::Message {
                from: p(2),
                msg: DiningMsg::Request { color: 2 },
            },
            &none(),
            &mut out,
        );
        assert_eq!(
            out,
            vec![
                (p(2), DiningMsg::Fork),
                (p(2), DiningMsg::Request { color: 1 })
            ]
        );
        assert!(!p0.holds_fork(p(2)));
        // Request from the LOWER-color p1: hungry insider with higher color
        // defers (token retained alongside the fork).
        let mut out = Vec::new();
        p0.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Request { color: 0 },
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty(), "higher-color hungry insider defers");
        assert!(p0.holds_fork(p(1)) && p0.holds_token(p(1)));
    }

    #[test]
    fn exit_sends_deferred_acks() {
        let (mut hi, _) = pair();
        hi.handle(DiningInput::Hungry, &sus(&[1]), &mut Vec::new());
        assert_eq!(hi.state(), DinerState::Eating);
        // Ping arrives while inside: deferred.
        let mut out = Vec::new();
        hi.handle(
            DiningInput::Message {
                from: p(1),
                msg: DiningMsg::Ping,
            },
            &none(),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(hi.deferring_ack(p(1)));
        let mut out = Vec::new();
        hi.handle(DiningInput::DoneEating, &none(), &mut out);
        assert_eq!(out, vec![(p(1), DiningMsg::Ack)]);
        assert!(!hi.deferring_ack(p(1)));
    }

    #[test]
    fn state_bits_matches_paper_formula() {
        let g = ekbd_graph::topology::star(9);
        let colors = ekbd_graph::coloring::greedy(&g);
        let hub = DiningProcess::from_graph(&g, &colors, p(0));
        let leaf = DiningProcess::from_graph(&g, &colors, p(3));
        // hub: δ = 8 ⇒ 2 + 1 + ⌈log₂ 9⌉ + 48 = 2 + 1 + 4 + 48 = 55.
        assert_eq!(hub.state_bits(), 55);
        // leaf: δ = 1 ⇒ 2 + 1 + 1 + 6 = 10.
        assert_eq!(leaf.state_bits(), 10);
    }

    #[test]
    fn from_graph_places_forks_by_color() {
        let g = ekbd_graph::topology::ring(5);
        let colors = ekbd_graph::coloring::greedy(&g);
        for e in g.edges() {
            let a = DiningProcess::from_graph(&g, &colors, e.lo);
            let b = DiningProcess::from_graph(&g, &colors, e.hi);
            let fork_count = a.holds_fork(e.hi) as u32 + b.holds_fork(e.lo) as u32;
            let token_count = a.holds_token(e.hi) as u32 + b.holds_token(e.lo) as u32;
            assert_eq!(fork_count, 1, "exactly one fork per edge");
            assert_eq!(token_count, 1, "exactly one token per edge");
            let holder = if a.holds_fork(e.hi) { &a } else { &b };
            let other = if a.holds_fork(e.hi) { &b } else { &a };
            assert!(
                holder.color() > other.color(),
                "fork starts at higher color"
            );
        }
    }

    #[test]
    fn add_neighbor_inserts_sorted_with_canonical_placement() {
        let mut p1 = DiningProcess::new(p(1), 1, [(p(3), 2)]);
        p1.add_neighbor(p(0), 0); // lower id, lower color
        p1.add_neighbor(p(5), 3); // higher id, higher color
        assert_eq!(p1.neighbors(), &[p(0), p(3), p(5)]);
        assert!(p1.holds_fork(p(0)) && !p1.holds_token(p(0)));
        assert!(!p1.holds_fork(p(5)) && p1.holds_token(p(5)));
    }

    #[test]
    fn add_neighbor_extends_an_in_flight_hungry_session() {
        // hi is hungry outside the doorway when a new neighbor appears: the
        // next internal-action pass must ping it before the doorway opens.
        let (mut hi, _) = pair();
        hi.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        hi.add_neighbor(p(2), 4);
        let mut out = Vec::new();
        hi.handle(DiningInput::SuspicionChange, &none(), &mut out);
        assert_eq!(out, vec![(p(2), DiningMsg::Ping)]);
        assert!(!hi.inside_doorway(), "new edge gates the doorway");
    }

    #[test]
    fn remove_neighbor_unblocks_waiting_guards() {
        // lo waits on its only neighbor's ack and fork; removing the edge
        // leaves no guard unsatisfied, so the next pass eats.
        let (_, mut lo) = pair();
        lo.handle(DiningInput::Hungry, &none(), &mut Vec::new());
        assert_eq!(lo.state(), DinerState::Hungry);
        lo.remove_neighbor(p(0));
        assert!(lo.neighbors().is_empty());
        lo.handle(DiningInput::SuspicionChange, &none(), &mut Vec::new());
        assert_eq!(lo.state(), DinerState::Eating);
    }

    #[test]
    #[should_panic(expected = "share color")]
    fn add_neighbor_rejects_improper_coloring() {
        let (mut hi, _) = pair();
        hi.add_neighbor(p(2), 1);
    }

    #[test]
    #[should_panic(expected = "already a neighbor")]
    fn add_neighbor_rejects_duplicates() {
        let (mut hi, _) = pair();
        hi.add_neighbor(p(1), 2);
    }

    #[test]
    fn eating_ignores_suspicion_changes() {
        let (mut hi, _) = pair();
        hi.handle(DiningInput::Hungry, &sus(&[1]), &mut Vec::new());
        assert_eq!(hi.state(), DinerState::Eating);
        let mut out = Vec::new();
        hi.handle(DiningInput::SuspicionChange, &none(), &mut out);
        assert_eq!(hi.state(), DinerState::Eating, "eating is not revoked");
        assert!(out.is_empty());
    }
}
