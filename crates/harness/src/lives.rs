//! Where interrupted lives end, decided as the run goes. [`Lives`] holds
//! each process's cut instants (a crash followed by a restart, a
//! departure) and open hungry, eating and doorway state, and writes every
//! scheduling event to a [`Column`] already closed: the dense report's
//! event vector, or `()` for a streaming run, which reads only the state.
//!
//! A cut applies before its process's first event at or after it. It
//! closes an open eating interval and the doorway at the cut instant and
//! drops the `BecameHungry` of the session it aborted. A tick's closers
//! land at the end of that tick, after every recorded event of the tick,
//! by process id, whether the process's own event at the cut instant or
//! the tick's close applied the cut; one process's `StoppedEating` comes
//! before its `ExitedDoorway`. The one edit to the column is the removal
//! of the aborted `BecameHungry`s when the run finishes.

use crate::report::cut_time;
use ekbd_dining::DiningObs;
use ekbd_graph::ProcessId;
use ekbd_metrics::SchedEvent;
use ekbd_sim::Time;

/// Where [`Lives`] writes the closed event stream.
pub(crate) trait Column {
    fn push(&mut self, e: SchedEvent);
    fn len(&self) -> usize;
    /// Removes the events at the ascending indices `dropped`.
    fn remove_sorted(&mut self, dropped: &[usize]);
}

impl Column for Vec<SchedEvent> {
    fn push(&mut self, e: SchedEvent) {
        Vec::push(self, e);
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn remove_sorted(&mut self, dropped: &[usize]) {
        let mut kept = dropped.first().map_or(self.len(), |&d| d);
        for (k, &d) in dropped.iter().enumerate() {
            let end = dropped.get(k + 1).map_or(self.len(), |&next| next);
            self.copy_within(d + 1..end, kept);
            kept += end - d - 1;
        }
        self.truncate(kept);
    }
}

impl Column for () {
    fn push(&mut self, _: SchedEvent) {}
    fn len(&self) -> usize {
        0
    }
    fn remove_sorted(&mut self, _: &[usize]) {}
}

/// One process's cuts and open intervals.
#[derive(Default)]
struct Life {
    /// When it is out of the computation for good (see [`cut_time`]).
    cut: Option<Time>,
    /// Interrupting cuts still to apply, latest first.
    pending: Vec<Time>,
    /// The open hungry session: when it began and its column index.
    hungry: Option<(Time, usize)>,
    eating: Option<Time>,
    inside: bool,
}

/// Every process's lives over one run (module doc).
#[derive(Default)]
pub(crate) struct Lives {
    lives: Vec<Life>,
    /// Every interrupting cut by instant, then process; `due` are applied.
    queue: Vec<(Time, ProcessId)>,
    due: usize,
    /// The last event's instant, and the closers of a tick not yet written.
    now: Time,
    closing: Vec<SchedEvent>,
    /// Column indices of aborted `BecameHungry`s.
    dropped: Vec<usize>,
}

impl Lives {
    /// A crash followed by a restart interrupts a life at the latest crash
    /// before the restart; a departure ends it.
    pub(crate) fn new(
        n: usize,
        horizon: Time,
        crashes: &[(ProcessId, Time)],
        recoveries: &[(ProcessId, Time)],
        departures: &[(ProcessId, Time, bool)],
    ) -> Self {
        let mut lives: Vec<Life> = (0..n)
            .map(|i| Life {
                cut: cut_time(ProcessId::from(i), horizon, crashes, recoveries, departures),
                ..Life::default()
            })
            .collect();
        let restarts = recoveries.iter().filter_map(|&(p, r)| {
            let crash = crashes.iter().filter(|&&(q, t)| q == p && t <= r);
            crash.map(|&(_, t)| (p, t)).max_by_key(|&(_, t)| t)
        });
        for (p, c) in restarts.chain(departures.iter().map(|&(p, t, _)| (p, t))) {
            lives[p.index()].pending.push(c);
        }
        let mut queue = Vec::new();
        for (i, life) in lives.iter_mut().enumerate() {
            life.pending.sort_unstable_by(|a, b| b.cmp(a));
            life.pending.dedup();
            queue.extend(life.pending.iter().map(|&c| (c, ProcessId::from(i))));
        }
        queue.sort_unstable();
        Lives {
            lives,
            queue,
            ..Lives::default()
        }
    }

    /// When `p` is out of the computation for good, if ever.
    pub(crate) fn cut(&self, p: ProcessId) -> Option<Time> {
        self.lives[p.index()].cut
    }

    /// Since when `p` has been eating, if it is.
    pub(crate) fn eating(&self, p: ProcessId) -> Option<Time> {
        self.lives[p.index()].eating
    }

    pub(crate) fn hungry(&self, p: ProcessId) -> bool {
        self.lives[p.index()].hungry.is_some()
    }

    /// Closes every tick before `t`: writes the closers of the last
    /// event's tick, then applies each cut before `t` that no event of its
    /// process has, a tick at a time.
    pub(crate) fn advance(&mut self, t: Time, column: &mut impl Column) {
        let due = self.queue.get(self.due).is_some_and(|&(c, _)| c < t);
        if t > self.now && (due || !self.closing.is_empty()) {
            self.close_ticks(t, column);
        }
    }

    #[cold]
    fn close_ticks(&mut self, t: Time, column: &mut impl Column) {
        let mut tick = self.now;
        while let Some(&(at, p)) = self.queue.get(self.due).filter(|&&(c, _)| c < t) {
            if at != tick {
                self.push_closers(column);
                tick = at;
            }
            self.due += 1;
            if self.lives[p.index()].pending.last() == Some(&at) {
                self.interrupt(p);
            }
        }
        self.push_closers(column);
    }

    /// Writes one tick's closers, by process id.
    fn push_closers(&mut self, column: &mut impl Column) {
        self.closing.sort_by_key(|e| e.process);
        self.closing.drain(..).for_each(|e| column.push(e));
    }

    /// Records `p`'s observation at `t` once the ticks before `t` are
    /// closed and `p`'s cuts up to `t` applied. Returns when the hungry
    /// session a `StartedEating` completes began.
    pub(crate) fn observe(
        &mut self,
        t: Time,
        p: ProcessId,
        obs: DiningObs,
        column: &mut impl Column,
    ) -> Option<Time> {
        self.advance(t, column);
        self.now = t;
        while self.lives[p.index()]
            .pending
            .last()
            .is_some_and(|&c| c <= t)
        {
            self.interrupt(p);
        }
        let life = &mut self.lives[p.index()];
        let mut began = None;
        match obs {
            DiningObs::BecameHungry => life.hungry = Some((t, column.len())),
            DiningObs::StartedEating => {
                began = life.hungry.take().map(|(h, _)| h);
                life.eating = Some(t);
            }
            DiningObs::StoppedEating => life.eating = None,
            DiningObs::EnteredDoorway => life.inside = true,
            DiningObs::ExitedDoorway => life.inside = false,
        }
        column.push(SchedEvent::new(t, p, obs));
        began
    }

    /// Applies every cut left and removes the aborted hungry sessions.
    pub(crate) fn finish(&mut self, column: &mut impl Column) {
        self.advance(Time(u64::MAX), column);
        self.dropped.sort_unstable();
        column.remove_sorted(&self.dropped);
    }

    /// Applies `p`'s next cut: drops the hungry session it aborts and
    /// adds its closers to the tick's.
    #[cold]
    fn interrupt(&mut self, p: ProcessId) {
        let life = &mut self.lives[p.index()];
        let at = life.pending.pop().expect("a pending cut");
        self.dropped.extend(life.hungry.take().map(|(_, k)| k));
        if life.eating.take().is_some() {
            self.closing
                .push(SchedEvent::new(at, p, DiningObs::StoppedEating));
        }
        if std::mem::take(&mut life.inside) {
            self.closing
                .push(SchedEvent::new(at, p, DiningObs::ExitedDoorway));
        }
    }
}
