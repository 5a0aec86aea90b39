//! The daemon server: a dining backend exposed over TCP or Unix-domain
//! sockets, one session per dining process, many sessions per connection.
//!
//! # Threading model
//!
//! No async runtime — a small readiness-based reactor over the vendored
//! epoll shim (the crate's `poll` module):
//!
//! * an **acceptor** thread blocks on the (nonblocking) listener and a
//!   shutdown eventfd, and hands accepted sockets to the reactors
//!   round-robin;
//! * **N reactor threads** ([`ServerConfig::reactor_threads`]) each own a
//!   slab of nonblocking connections and work in *passes*. One pass is
//!   one `epoll_wait` batch: read every ready socket once, decode its
//!   frames at a cursor, collect the `Hungry` requests, take the commands
//!   other threads posted, run the timers (heartbeat strikes, handshake
//!   deadlines, the detach-TTL reaper on reactor 0), hand the collected
//!   requests to the backend under one lock, and only then write — each
//!   connection that has anything to say gets one `write` for all of it.
//!   There are no per-connection threads and no writer threads; a
//!   connection still holding more than [`ServerConfig::send_queue`]
//!   frames' worth of bytes after its write is a slow reader and is
//!   disconnected;
//! * on the **scale backend** that is all: the packed kernel lives behind
//!   the backend mutex and is stepped by whichever reactor holds it (see
//!   *Who owns the kernel* below);
//! * on the **threaded backend** one **event pump** thread blocks on the
//!   runtime's live event tap, translates each batch of `StartedEating` /
//!   `StoppedEating` into process-tagged `Granted` / `Released` frames
//!   grouped by connection, and posts one batch per owning reactor. It
//!   ends when the runtime is torn down and the tap disconnects.
//!
//! Cross-thread work reaches a reactor through two queues — commands
//! (adopted sockets, admission verdicts, shutdown) and encoded frames —
//! and an eventfd that is written only when a queue goes from empty to
//! non-empty, so a burst costs one wake-up, not one per item.
//!
//! Blocking work never runs on a reactor: a readmission that must wait
//! for the runtime's recovery notice is parked on a short-lived admission
//! worker thread, which sleeps on the runtime's own publish signal
//! ([`RestartWatch::wait_past`]) and posts its verdict back to the
//! reactor's queue. The connection keeps being served meanwhile.
//!
//! # Who owns the kernel
//!
//! Nobody permanently. The scale backend's [`InteractiveScale`], its
//! event log and its scratch sit behind the backend mutex, and a reactor
//! that ends a pass with `Hungry` requests takes the lock once, injects
//! them all, steps the kernel to quiescence, logs and stamps the eat
//! transitions, and encodes each as a frame straight into the write
//! buffer of the connection that owns the process. The owner is read
//! from a dense per-process table of packed `(reactor, slot,
//! generation)` words that admission and detach keep — the same word a
//! `Hungry` is validated against, so neither path takes a lock or scans.
//!
//! **The lock-order rule.** A frame for a connection another reactor owns
//! cannot be written here; it goes to that reactor's frame queue, one
//! batch per reactor, *before the kernel lock is released*. And a reactor
//! drains its own frame queue *after taking the kernel lock* and before
//! it encodes anything of its own. Together: if reactor A produced frames
//! for process `p` under an earlier hold of the lock than reactor B, B
//! has A's frames in `p`'s write buffer before its own — per-process
//! frame order on the wire equals kernel lock order. Nothing else is ever
//! done under the kernel lock: no socket call, no session-table lock, no
//! teardown (a connection found over its cap is shed at the write, after
//! the lock is gone).
//!
//! # One admission path
//!
//! A process is named by its id and nothing else. Every admission is a
//! `Bind { process }`, answered with `Bound { process, path }` or
//! `BindReject { process, code, retry_after_ms }`; a connection's first
//! frame must be one, and any number may follow — the gateway/proxy
//! shape, where one socket fronts a whole fleet of dining processes.
//! Event frames are process-tagged so the client can demultiplex. An
//! ungraceful disconnect crashes every process bound on the connection;
//! `Unbind` detaches one gracefully and `Bye` all of them.
//!
//! # Fault-tolerant sessions
//!
//! A connection death is mapped onto the paper's crash-recovery fault
//! model: each bound process is crashed in the dining system, and its
//! session slot is kept *detached* server-side. Whichever connection
//! binds the process next revives it, and the `Bound` tags which
//! recovery path the new incarnation took — the journal fast-resume or
//! the blank rejoin handshake — straight from the runtime's
//! [`RestartNotice`] stream. A process that detached without crashing
//! is readmitted `resumed` while its slot exists, and a process with no
//! slot is `fresh`. Detached slots do not live forever: after
//! [`ServerConfig::detach_ttl_ms`] without a rebind the reaper deletes
//! the slot, returning its admission capacity (the crash-stop case).
//!
//! # Backends
//!
//! [`BackendSpec::Threaded`] runs the full [`ThreadedDining`] runtime —
//! one OS thread per philosopher, journal recovery, the works.
//! [`BackendSpec::Scale`] fronts the bit-packed scale-tier kernel
//! ([`ekbd_sim::InteractiveScale`]) instead, stepped on the reactor
//! threads themselves for up to hundreds of thousands of processes. The
//! scale kernel is fault-free, so disconnects there detach without
//! crashing and every readmission is trivially `resumed`.
//!
//! # Overload shedding
//!
//! Admission is capped ([`ServerConfig::max_sessions`]): a `Bind` past
//! the cap is answered with `BindReject { code: REJECT_BUSY }` carrying
//! a retry hint, and nothing is allocated server-side. Established
//! sessions are never shed by admission pressure — only by their own
//! slow reading or heartbeat silence.
//!
//! # Fail-stop
//!
//! A panic on any server thread stops the whole server (`FailStop`):
//! every connection closes, which is `crash(p)` for every bound process,
//! and nothing is served from state the panic may have left half-updated.

use crate::conn::{Conn, Listener, ServerAddr};
use crate::poll::Waker;
use crate::wire::{
    encode_frame_into, AdmitPath, Frame, FrameReader, OVERHEAD, REJECT_ALREADY_BOUND,
    REJECT_BAD_PROCESS, REJECT_BUSY,
};
use crossbeam_channel::Receiver;
use ekbd_dining::{DiningObs, RecoveryMsg, RestartPath};
use ekbd_graph::{coloring, ConflictGraph, ProcessId};
use ekbd_metrics::{EventTail, LinkSummary, SchedEvent};
use ekbd_runtime::{RestartNotice, RestartWatch, RuntimeConfig, ThreadedDining};
use ekbd_sim::{EatObs, InteractiveScale, ScaleConfig, ScaleRunReport, Time};
use rawpoll::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::any::Any;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reserved poll token for a wakeup eventfd (a reactor's, or the
/// acceptor's shutdown signal); connection tokens are slab indices and
/// can never reach it.
const WAKER_TOKEN: u64 = u64::MAX;

/// Bytes of one `Granted` / `Released` on the wire — what a frame of
/// [`ServerConfig::send_queue`] is worth when the cap is applied to a
/// byte buffer.
const EVENT_FRAME_BYTES: usize = OVERHEAD + 13;

/// Which dining backend a server fronts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// The full crash-recovery runtime: one OS thread per philosopher,
    /// journal resume, restart notices.
    Threaded,
    /// The bit-packed scale-tier kernel in interactive mode, stepped by
    /// the reactor threads. Fault-free: disconnects detach without
    /// crashing.
    Scale {
        /// Kernel seed; virtual-time dynamics are a pure function of it.
        seed: u64,
    },
}

/// Configuration of a [`DaemonServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The threaded dining runtime under the sessions (ignored by the
    /// scale backend).
    pub runtime: RuntimeConfig,
    /// Which backend to front.
    pub backend: BackendSpec,
    /// Reactor threads sharing the connection load (at most 256).
    pub reactor_threads: usize,
    /// Admission cap: a `Bind` that would create session number
    /// `max_sessions + 1` is refused with `REJECT_BUSY` instead.
    pub max_sessions: usize,
    /// Capacity, in frames, of each connection's write buffer. A session
    /// whose buffer still holds more than this many event frames' worth
    /// of bytes after the socket took what it would (a reader too slow
    /// for its own event stream) is disconnected rather than allowed to
    /// hold memory hostage.
    pub send_queue: usize,
    /// Heartbeat sweep period in milliseconds. A session silent for 25
    /// sweeps in a row (5 s at the default) is declared dead.
    pub heartbeat_ms: u64,
    /// Retry hint carried in `REJECT_BUSY` refusals, in milliseconds.
    pub busy_retry_ms: u32,
    /// Handshake deadline in milliseconds: a dialer that has not sent
    /// its first `Bind` by then is dropped (counted in
    /// [`ServerStats::handshake_timeouts`], *not* as a protocol error).
    pub handshake_ms: u64,
    /// Detached-session time-to-live in milliseconds: a session that
    /// stays detached this long is reaped and its admission slot
    /// reclaimed. Covers the crash-stop client that will never come
    /// back.
    pub detach_ttl_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime: RuntimeConfig::default(),
            backend: BackendSpec::Threaded,
            reactor_threads: 2,
            max_sessions: 64,
            send_queue: 64,
            heartbeat_ms: 200,
            busy_retry_ms: 100,
            handshake_ms: 2_000,
            detach_ttl_ms: 30_000,
        }
    }
}

/// Monotonic counters published by a running server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Sessions admitted fresh (first binding of a process).
    pub fresh: u64,
    /// Readmissions that rode the journal fast-resume path (or a
    /// graceful detach where nothing was lost).
    pub resumed: u64,
    /// Readmissions that fell back to the blank rejoin handshake.
    pub rejoined: u64,
    /// `Bind`s refused with `REJECT_BUSY` at the admission cap.
    pub shed_busy: u64,
    /// Connections disconnected for filling their write buffer.
    pub shed_slow: u64,
    /// Connections disconnected by the heartbeat suspicion gate.
    pub heartbeat_drops: u64,
    /// Connections dropped for malformed or out-of-protocol frames.
    pub protocol_errors: u64,
    /// Dialers dropped for silence at the handshake deadline — connected
    /// but never spoke. Deliberately *not* a protocol error: the peer
    /// broke no framing rule, it just never said anything.
    pub handshake_timeouts: u64,
    /// Detached sessions deleted by the TTL reaper.
    pub reaped: u64,
    /// Frames queued to connections (answers, pings and events alike).
    pub frames_out: u64,
    /// Socket `write` calls the reactors issued. Under load one write
    /// carries every frame a pass produced for its connection, so this
    /// falls well below [`frames_out`](Self::frames_out).
    pub socket_writes: u64,
    /// Eventfd wake-ups posted to reactors by other threads: one per
    /// burst of commands or frames, not one per item.
    pub reactor_wakes: u64,
}

#[derive(Default)]
struct AtomicStats {
    accepted: AtomicU64,
    fresh: AtomicU64,
    resumed: AtomicU64,
    rejoined: AtomicU64,
    shed_busy: AtomicU64,
    shed_slow: AtomicU64,
    heartbeat_drops: AtomicU64,
    protocol_errors: AtomicU64,
    handshake_timeouts: AtomicU64,
    reaped: AtomicU64,
    frames_out: AtomicU64,
    socket_writes: AtomicU64,
    reactor_wakes: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            rejoined: self.rejoined.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            shed_slow: self.shed_slow.load(Ordering::Relaxed),
            heartbeat_drops: self.heartbeat_drops.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            handshake_timeouts: self.handshake_timeouts.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            socket_writes: self.socket_writes.load(Ordering::Relaxed),
            reactor_wakes: self.reactor_wakes.load(Ordering::Relaxed),
        }
    }
}

/// Everything a stopped server hands back.
pub struct ServerRun {
    /// The last [`EventTail::CAPACITY`] (2¹⁷) events of the dining
    /// system's scheduling trace, oldest first: the whole trace when
    /// [`events_total`](Self::events_total) equals its length, and only
    /// then is an analysis over it one of the whole run.
    pub events: Vec<SchedEvent>,
    /// Every event the backend recorded, kept in `events` or not.
    pub events_total: u64,
    /// Meals served: grants (`StartedEating`), counted as they happened.
    pub meals: u64,
    /// Breaks of per-process grant/release alternation, counted as events
    /// arrived: a release with no grant open, or a grant while one is. A
    /// crash ends a meal without a release, so on the threaded backend a
    /// grant after a restart of the process is not one.
    pub alternation_violations: u64,
    /// Link-layer counters (all zero when the reliable link is off, and
    /// for the scale backend).
    pub link: LinkSummary,
    /// Every restart the runtime performed, tagged with its path —
    /// snapshotted *after* runtime teardown, so restarts completing
    /// during the shutdown window are never dropped.
    pub restarts: Vec<RestartNotice>,
    /// The scale kernel's run report, when the scale backend served.
    pub scale: Option<ScaleRunReport>,
    /// Final server counters.
    pub stats: ServerStats,
}

// ---------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------

/// The scale backend: an [`InteractiveScale`] kernel with what a reactor
/// needs to turn one step of it into frames. It has no thread of its
/// own — whichever reactor holds the backend mutex drives it.
struct ScaleService {
    kernel: InteractiveScale,
    /// The latest eat transitions, wall-clock stamped: what
    /// [`ServerRun::events`] returns.
    log: EventTail,
    tally: Tally,
    /// Scratch for the observations of one hold of the lock.
    obs: Vec<EatObs>,
    /// Epoch of the `at_ms` stamps.
    start: Instant,
}

impl ScaleService {
    fn new(graph: &ConflictGraph, seed: u64) -> ScaleService {
        let colors = coloring::greedy(graph);
        ScaleService {
            kernel: InteractiveScale::new(graph, &colors, ScaleConfig::default().seed(seed)),
            log: EventTail::new(),
            tally: Tally::new(graph.len()),
            obs: Vec::new(),
            start: Instant::now(),
        }
    }
}

/// What the server counts as eat transitions arrive, on either backend:
/// [`ServerRun::meals`] and [`ServerRun::alternation_violations`].
#[derive(Default)]
struct Tally {
    meals: u64,
    violations: u64,
    /// Per process: the stamp of its open grant, or [`Tally::THINKING`].
    granted_at: Vec<u64>,
}

impl Tally {
    const THINKING: u64 = u64::MAX;

    fn new(n: usize) -> Tally {
        Tally {
            granted_at: vec![Self::THINKING; n],
            ..Tally::default()
        }
    }

    /// Counts one grant (`started`) or release of `process` at `at_ms`.
    /// `restarted_since(p, t)` says whether `p` restarted at or after `t`:
    /// a crash ends a meal without a release.
    fn observe(
        &mut self,
        process: u32,
        started: bool,
        at_ms: u64,
        restarted_since: impl Fn(u32, u64) -> bool,
    ) {
        let open = &mut self.granted_at[process as usize];
        if started {
            self.meals += 1;
            if *open != Self::THINKING && !restarted_since(process, *open) {
                self.violations += 1;
            }
            *open = at_ms;
        } else if std::mem::replace(open, Self::THINKING) == Self::THINKING {
            self.violations += 1;
        }
    }
}

/// The dining system behind the sessions.
enum Backend {
    Threaded(ThreadedDining<RecoveryMsg>),
    Scale(ScaleService),
}

// ---------------------------------------------------------------------
// Session table
// ---------------------------------------------------------------------

/// Where a bound process's live connection lives: which reactor, which
/// slab slot, and the attachment generation (slots are reused;
/// generations are not, and are never 0). Packs into one word so the
/// per-process owner table can be read without a lock.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ConnRef {
    reactor: usize,
    slot: usize,
    gen: u32,
}

impl ConnRef {
    /// Most reactors a server runs: the owner word keeps 8 bits for one.
    const MAX_REACTORS: usize = 1 << 8;
    /// Slab slots a reactor may use: the owner word keeps 24 bits for one.
    const MAX_SLOTS: usize = 1 << 24;
    /// The owner word of a process nobody is bound to.
    const UNBOUND: u64 = 0;

    fn pack(self) -> u64 {
        debug_assert!(self.reactor < Self::MAX_REACTORS && self.slot < Self::MAX_SLOTS);
        debug_assert_ne!(self.gen, 0);
        (self.reactor as u64) << 56 | (self.slot as u64) << 32 | u64::from(self.gen)
    }

    fn unpack(word: u64) -> Option<ConnRef> {
        (word != Self::UNBOUND).then_some(ConnRef {
            reactor: (word >> 56) as usize,
            slot: (word >> 32) as usize & (Self::MAX_SLOTS - 1),
            gen: word as u32,
        })
    }
}

/// Server-side session state for one dining process. Survives connection
/// deaths: the owner word clears but the slot remains — until the
/// detach-TTL reaper deletes it.
struct Session {
    /// An admission for this slot is in flight (its recovery wait runs
    /// on a worker thread, outside the sessions lock).
    binding: bool,
    /// When the session last detached; `None` while attached. The reaper
    /// deletes detached slots older than the TTL.
    detached_at: Option<Instant>,
}

struct ServerInner {
    cfg: ServerConfig,
    /// `Option` so [`DaemonServer::shutdown`] can take the backend out
    /// for consuming teardown while other threads still hold the `Arc`.
    backend: Mutex<Option<Backend>>,
    /// The threaded runtime's restart notices; `None` on the scale
    /// backend, which can neither crash nor recover a process.
    restarts: Option<RestartWatch>,
    sessions: Mutex<HashMap<u32, Session>>,
    /// Per-process owner words ([`ConnRef::pack`], or
    /// [`ConnRef::UNBOUND`]): which connection a process's event frames
    /// go to and whose `Hungry` it accepts. Written under the sessions
    /// lock by admission and detach; read lock-free on every frame.
    owners: Vec<AtomicU64>,
    /// Per-process crashed-awaiting-recovery flags. Lives *outside* the
    /// session table so reaping a crashed session does not forget that
    /// the underlying process still needs `recover` on readmission.
    crashed: Mutex<Vec<bool>>,
    /// Per-process count of restart notices already consumed, so each
    /// readmission waits for *its* notice, not a historical one. Also
    /// outside the session table, for the same reason.
    restarts_seen: Mutex<Vec<usize>>,
    /// The reactors' inboxes, for the acceptor, the pump, the admission
    /// workers and one another. Set once at startup (reactors need the
    /// inner first).
    reactors: OnceLock<Vec<Arc<ReactorShared>>>,
    /// Wakes the acceptor out of its poll to exit: at shutdown, or when
    /// the server fails.
    stop_accepting: Waker,
    /// The name of the first server thread that panicked; set once, and
    /// from then on the server serves nothing (see [`FailStop`]).
    failed: OnceLock<String>,
    next_generation: AtomicU32,
    stats: AtomicStats,
    /// Makes the next reactor to hold the backend lock for `Hungry`
    /// requests panic there, after it injected them and before it steps.
    #[cfg(test)]
    plant_panic: std::sync::atomic::AtomicBool,
}

impl ServerInner {
    /// Runs `f` on the threaded runtime. A no-op on the scale backend,
    /// without touching the kernel lock: its kernel is fault-free, so a
    /// vanished client just stops injecting hunger.
    fn with_runtime(&self, f: impl FnOnce(&ThreadedDining<RecoveryMsg>)) {
        if self.restarts.is_none() {
            return;
        }
        let backend = self.backend.lock().expect("backend lock poisoned");
        if let Some(Backend::Threaded(sys)) = backend.as_ref() {
            f(sys);
        }
    }

    fn reactors(&self) -> &[Arc<ReactorShared>] {
        self.reactors.get().expect("reactors are set at startup")
    }

    /// Whether a server thread panicked: then nothing is served again.
    fn failed(&self) -> bool {
        self.failed.get().is_some()
    }

    /// The connection `process` is bound to, if any. `Acquire` pairs with
    /// the `Release` stores of admission and detach.
    fn owner(&self, process: u32) -> Option<ConnRef> {
        let word = self.owners.get(process as usize)?.load(Ordering::Acquire);
        ConnRef::unpack(word)
    }

    /// A fresh attachment generation; never 0, which is how an owner
    /// word says "unbound".
    fn next_generation(&self) -> u32 {
        loop {
            let gen = self.next_generation.fetch_add(1, Ordering::Relaxed);
            if gen != 0 {
                return gen;
            }
        }
    }

    /// Claims the binding slot for `process` under the lock: validates,
    /// creates the slot if admission allows, and marks it `binding` so
    /// concurrent binds of the same process observe `ALREADY_BOUND`. On
    /// success returns the admission path, or `None` for a crashed
    /// process, whose path is known only once it has recovered
    /// ([`recover_and_classify`](Self::recover_and_classify)). A refusal
    /// is its `REJECT_*` code; the caller counts `shed_busy`.
    fn claim_binding(&self, process: u32) -> Result<Option<AdmitPath>, u8> {
        if process as usize >= self.owners.len() {
            return Err(REJECT_BAD_PROCESS);
        }
        let mut sessions = self.sessions.lock().expect("sessions lock poisoned");
        if self.owner(process).is_some() {
            return Err(REJECT_ALREADY_BOUND);
        }
        let full = sessions.len() >= self.cfg.max_sessions;
        let path = match sessions.get_mut(&process) {
            Some(slot) if slot.binding => return Err(REJECT_ALREADY_BOUND),
            Some(slot) => {
                slot.binding = true;
                AdmitPath::Resumed
            }
            None if full => return Err(REJECT_BUSY),
            None => {
                sessions.insert(
                    process,
                    Session {
                        binding: true,
                        detached_at: None,
                    },
                );
                AdmitPath::Fresh
            }
        };
        let crashed = self.crashed.lock().expect("crashed flags poisoned")[process as usize];
        Ok((!crashed).then_some(path))
    }

    /// Completes a claimed binding: publishes the connection as the
    /// process's owner.
    fn complete_admission(&self, process: u32, path: AdmitPath, conn: ConnRef) {
        {
            let mut sessions = self.sessions.lock().expect("sessions lock poisoned");
            let slot = sessions.get_mut(&process).expect("claimed binding exists");
            slot.binding = false;
            slot.detached_at = None;
            self.owners[process as usize].store(conn.pack(), Ordering::Release);
        }
        self.count_admission(path);
    }

    /// Unwinds a claimed binding whose connection died before it
    /// completed: the slot detaches and no admission is counted.
    fn release_claim(&self, process: u32) {
        let mut sessions = self.sessions.lock().expect("sessions lock poisoned");
        if let Some(slot) = sessions.get_mut(&process) {
            slot.binding = false;
            slot.detached_at = Some(Instant::now());
        }
    }

    /// Detaches `process` if `gen` still owns its attachment. Returns
    /// whether this call performed the detach (the process may have been
    /// rebound since). An ungraceful detach marks the process crashed
    /// when the backend can recover it.
    fn detach_process(&self, process: u32, gen: u32, graceful: bool) -> bool {
        {
            let mut sessions = self.sessions.lock().expect("sessions lock poisoned");
            let Some(slot) = sessions.get_mut(&process) else {
                return false;
            };
            if self.owner(process).is_none_or(|c| c.gen != gen) {
                return false;
            }
            self.owners[process as usize].store(ConnRef::UNBOUND, Ordering::Release);
            slot.detached_at = Some(Instant::now());
        }
        if !graceful && self.restarts.is_some() {
            self.crashed.lock().expect("crashed flags poisoned")[process as usize] = true;
        }
        true
    }

    /// The detach-TTL reaper (reactor 0's timer): deletes sessions that
    /// have been detached longer than the TTL. Their admission capacity
    /// returns to the pool; a crashed process stays crashed in the
    /// backend until some future `Bind` revives it.
    fn reap_detached(&self) {
        let ttl = Duration::from_millis(self.cfg.detach_ttl_ms.max(1));
        let mut sessions = self.sessions.lock().expect("sessions lock poisoned");
        let before = sessions.len();
        sessions.retain(|&p, s| {
            self.owner(p).is_some() || s.binding || s.detached_at.is_none_or(|t| t.elapsed() < ttl)
        });
        let reaped = (before - sessions.len()) as u64;
        if reaped > 0 {
            self.stats.reaped.fetch_add(reaped, Ordering::Relaxed);
        }
    }

    /// Revives a crashed process whose binding this thread has claimed
    /// and reports which recovery path its new incarnation took, woken by
    /// the runtime's publish of the restart notice. Blocking — runs on
    /// admission worker threads only, never on a reactor. The claim keeps
    /// every other admission off `p` meanwhile.
    fn recover_and_classify(&self, p: u32) -> AdmitPath {
        let pid = ProcessId(p);
        let seen = self.restarts_seen.lock().expect("restart counts poisoned")[p as usize];
        self.with_runtime(|sys| sys.recover(pid));
        let noticed = self
            .restarts
            .as_ref()
            .and_then(|watch| watch.wait_past(pid, seen, Duration::from_secs(3)));
        self.crashed.lock().expect("crashed flags poisoned")[p as usize] = false;
        match noticed {
            Some((count, notice)) => {
                self.restarts_seen.lock().expect("restart counts poisoned")[p as usize] = count;
                match notice.event.path {
                    RestartPath::Journal { .. } => AdmitPath::Resumed,
                    RestartPath::Blank { .. } => AdmitPath::Rejoined,
                }
            }
            // The notice never surfaced (system shutting down, or the
            // process was not actually crashed): claim the weak path.
            None => AdmitPath::Rejoined,
        }
    }

    fn count_admission(&self, path: AdmitPath) {
        match path {
            AdmitPath::Fresh => self.stats.fresh.fetch_add(1, Ordering::Relaxed),
            AdmitPath::Resumed => self.stats.resumed.fetch_add(1, Ordering::Relaxed),
            AdmitPath::Rejoined => self.stats.rejoined.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Marks the server failed when a panic unwinds it; the acceptor then
/// stops, and each reactor closes its connections without calling the
/// backend and exits. Every server thread holds one for its whole life.
/// A reactor holds a second one over the backend lock, dropped before the
/// lock's guard: the server is marked failed before the lock is released
/// poisoned, so a thread that finds the poison is never named the first to
/// fail. A thread that finds a lock poisoned panics in turn.
struct FailStop<'a>(&'a ServerInner);

impl Drop for FailStop<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let (inner, me) = (self.0, std::thread::current());
        let name = me.name().unwrap_or("an unnamed server thread");
        if inner.failed.set(name.to_string()).is_ok() {
            inner.stop_accepting.wake();
            for shared in inner.reactors.get().into_iter().flatten() {
                shared.waker.wake();
            }
        }
    }
}

/// The session frame a backend event becomes, if it is one a client sees.
fn event_frame(process: u32, started: bool, at_ms: u64) -> Frame {
    if started {
        Frame::Granted { process, at_ms }
    } else {
        Frame::Released { process, at_ms }
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// Cross-thread commands into a reactor.
enum Cmd {
    /// Adopt a freshly accepted connection into the slab.
    Adopt(Conn),
    /// An admission worker finished its recovery wait.
    AdmissionDone {
        slot: usize,
        gen: u32,
        process: u32,
        path: AdmitPath,
    },
    /// Close every connection and exit once the slab drains.
    Shutdown,
}

/// Frames encoded on another thread for one connection of a reactor.
struct Outbound {
    slot: usize,
    gen: u32,
    bytes: Vec<u8>,
    frames: u64,
}

/// A reactor's inbox. The eventfd is written only when a queue goes from
/// empty to non-empty: whoever finds it non-empty knows a wake-up is
/// already on its way (or the reactor is mid-pass and will look).
struct ReactorShared {
    cmds: Mutex<Vec<Cmd>>,
    frames: Mutex<Vec<Outbound>>,
    waker: Waker,
}

impl ReactorShared {
    fn post(&self, cmd: Cmd, stats: &AtomicStats) {
        let was_empty = {
            let mut cmds = self.cmds.lock().expect("command queue poisoned");
            cmds.push(cmd);
            cmds.len() == 1
        };
        if was_empty {
            self.wake(stats);
        }
    }

    /// Moves `batch` into the frame queue, leaving it empty.
    fn post_frames(&self, batch: &mut Vec<Outbound>, stats: &AtomicStats) {
        let was_empty = {
            let mut frames = self.frames.lock().expect("frame queue poisoned");
            let was_empty = frames.is_empty();
            frames.append(batch);
            was_empty
        };
        if was_empty {
            self.wake(stats);
        }
    }

    fn wake(&self, stats: &AtomicStats) {
        stats.reactor_wakes.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
    }
}

/// Event frames on their way to connections the encoding thread does not
/// own, grouped by connection and batched by owning reactor.
struct Outbox {
    by_reactor: Vec<Vec<Outbound>>,
}

impl Outbox {
    fn new(reactors: usize) -> Outbox {
        Outbox {
            by_reactor: (0..reactors).map(|_| Vec::new()).collect(),
        }
    }

    fn push(&mut self, to: ConnRef, frame: &Frame) {
        let batch = &mut self.by_reactor[to.reactor];
        // A batch mostly alternates between a few connections: look at
        // the latest first.
        let at = batch
            .iter()
            .rposition(|o| o.slot == to.slot && o.gen == to.gen)
            .unwrap_or_else(|| {
                batch.push(Outbound {
                    slot: to.slot,
                    gen: to.gen,
                    bytes: Vec::new(),
                    frames: 0,
                });
                batch.len() - 1
            });
        encode_frame_into(frame, &mut batch[at].bytes);
        batch[at].frames += 1;
    }

    /// Posts every non-empty batch: one queue lock, and at most one
    /// wake-up, per reactor.
    fn post(&mut self, reactors: &[Arc<ReactorShared>], stats: &AtomicStats) {
        for (batch, shared) in self.by_reactor.iter_mut().zip(reactors) {
            if !batch.is_empty() {
                shared.post_frames(batch, stats);
            }
        }
    }
}

/// Connection lifecycle within a reactor.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the first frame, which must be a `Bind`, under
    /// deadline.
    Handshaking,
    /// Serving: frames flow, including further `Bind`s.
    Open,
    /// Terminal answer queued; close once the write buffer drains.
    Draining,
}

/// One slab entry: a nonblocking connection with its read and write
/// buffers.
struct ConnEntry {
    conn: Conn,
    /// Attachment generation shared by every process bound on this
    /// connection; stale cross-thread commands are discarded by it.
    gen: u32,
    reader: FrameReader,
    /// Encoded frames the socket has not taken yet, back to back.
    wbuf: Vec<u8>,
    /// In the reactor's dirty list: `wbuf` changed (or the socket became
    /// writable) this pass and gets its one write at the end of it.
    dirty: bool,
    /// Readiness mask currently registered with the poller.
    interest: u32,
    phase: Phase,
    /// Processes bound on this connection, in bind order.
    bound: Vec<u32>,
    /// Consecutive silent heartbeat sweeps; any inbound byte resets it.
    strikes: u32,
    /// Outstanding admission workers; the slot is not reusable until
    /// they all report back, even after death.
    pending: u32,
    dead: bool,
    /// Handshake deadline; `None` once admitted.
    deadline: Option<Instant>,
}

struct Reactor {
    inner: Arc<ServerInner>,
    shared: Arc<ReactorShared>,
    index: usize,
    poller: Epoll,
    slab: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    nonce: u32,
    shutting_down: bool,
    /// `Hungry` requests decoded this pass, handed to the backend
    /// together at its end.
    hungry: Vec<u32>,
    /// Slots whose entry is `dirty`, written at the end of the pass.
    dirty: Vec<usize>,
    /// Frames the kernel produced under this reactor's hold of the lock
    /// for connections of other reactors.
    outbox: Outbox,
    /// This pass's share of [`ServerStats::frames_out`] and
    /// [`ServerStats::socket_writes`], published at its end.
    frames_out: u64,
    socket_writes: u64,
    /// When the detach-TTL reaper runs next: reactor 0 only.
    next_reap: Option<Instant>,
}

impl Reactor {
    fn new(
        inner: Arc<ServerInner>,
        shared: Arc<ReactorShared>,
        index: usize,
        reactors: usize,
    ) -> io::Result<Reactor> {
        let poller = Epoll::new()?;
        poller.add(shared.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        Ok(Reactor {
            inner,
            shared,
            index,
            poller,
            slab: Vec::new(),
            free: Vec::new(),
            nonce: 0,
            shutting_down: false,
            hungry: Vec::new(),
            dirty: Vec::new(),
            outbox: Outbox::new(reactors),
            frames_out: 0,
            socket_writes: 0,
            next_reap: (index == 0).then(Instant::now),
        })
    }

    fn run(mut self) {
        let inner = Arc::clone(&self.inner);
        let _fail = FailStop(&inner);
        let beat = Duration::from_millis(self.inner.cfg.heartbeat_ms.max(1));
        let reap_every = Duration::from_millis((self.inner.cfg.detach_ttl_ms / 4).clamp(5, 250));
        let mut next_beat = Instant::now() + beat;
        let mut events: Vec<(u64, u32)> = Vec::new();
        while !(self.shutting_down && self.slab.iter().all(Option::is_none)) {
            if inner.failed() {
                // Returning drops the slab, which closes every connection
                // without a call into the backend; sockets queued for
                // adoption close with the queue.
                let mut cmds = self.shared.cmds.lock().expect("command queue poisoned");
                return cmds.clear();
            }
            let now = Instant::now();
            let mut wake_at = next_beat;
            let deadlines = self.slab.iter().flatten().filter_map(|e| e.deadline);
            for at in deadlines.chain(self.next_reap) {
                wake_at = wake_at.min(at);
            }
            let timeout = wake_at.saturating_duration_since(now).as_millis().min(100) as i32;
            events.clear();
            let _ = self.poller.wait(&mut events, 128, timeout);
            for &(token, ready) in &events {
                if token == WAKER_TOKEN {
                    self.shared.waker.drain();
                } else {
                    self.handle_event(token as usize, ready);
                }
            }
            self.take_frames();
            self.drain_cmds();
            let now = Instant::now();
            if now >= next_beat {
                self.heartbeat();
                next_beat = now + beat;
            }
            self.sweep_deadlines(now);
            if self.next_reap.is_some_and(|at| now >= at) {
                self.inner.reap_detached();
                self.next_reap = Some(now + reap_every);
            }
            self.serve_hungry();
            while let Some(slot) = self.dirty.pop() {
                self.flush(slot);
            }
            self.publish_counts();
        }
    }

    fn publish_counts(&mut self) {
        let stats = &self.inner.stats;
        if self.frames_out > 0 {
            let n = std::mem::take(&mut self.frames_out);
            stats.frames_out.fetch_add(n, Ordering::Relaxed);
        }
        if self.socket_writes > 0 {
            let n = std::mem::take(&mut self.socket_writes);
            stats.socket_writes.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn drain_cmds(&mut self) {
        let cmds = std::mem::take(&mut *self.shared.cmds.lock().expect("command queue poisoned"));
        for cmd in cmds {
            match cmd {
                Cmd::Adopt(conn) => self.adopt(conn),
                Cmd::AdmissionDone {
                    slot,
                    gen,
                    process,
                    path,
                } => self.admission_done(slot, gen, process, path),
                Cmd::Shutdown => {
                    self.shutting_down = true;
                    for slot in 0..self.slab.len() {
                        self.conn_end(slot, false);
                    }
                }
            }
        }
    }

    /// Moves the frames other threads encoded for this reactor's
    /// connections into their write buffers. Only buffers are touched, so
    /// this is safe under the kernel lock — where the lock-order rule of
    /// the module docs needs it.
    fn take_frames(&mut self) {
        let batch = std::mem::take(&mut *self.shared.frames.lock().expect("frame queue poisoned"));
        for out in batch {
            if let Some(wbuf) = self.writable(out.slot, out.gen) {
                wbuf.extend_from_slice(&out.bytes);
                self.frames_out += out.frames;
            }
        }
    }

    /// The write buffer of `slot`, if a live connection of generation
    /// `gen` sits there — marked for this pass's write.
    fn writable(&mut self, slot: usize, gen: u32) -> Option<&mut Vec<u8>> {
        let entry = self.slab.get_mut(slot)?.as_mut()?;
        if entry.dead || entry.gen != gen {
            return None;
        }
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(slot);
        }
        Some(&mut entry.wbuf)
    }

    fn queue_frame(&mut self, slot: usize, frame: &Frame) {
        let Some(gen) = self.slab[slot].as_ref().map(|e| e.gen) else {
            return;
        };
        if let Some(wbuf) = self.writable(slot, gen) {
            encode_frame_into(frame, wbuf);
            self.frames_out += 1;
        }
    }

    /// Hands the pass's `Hungry` requests to the backend under one hold
    /// of its lock. On the scale backend this reactor then *is* the
    /// kernel's driver: it steps to quiescence and turns every eat
    /// transition into a frame in its owner's write buffer.
    fn serve_hungry(&mut self) {
        if self.hungry.is_empty() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let mut backend = inner.backend.lock().expect("backend lock poisoned");
        // Dropped before `backend`: a panic below marks the server failed
        // before it poisons the lock (see `FailStop`).
        let _fail = FailStop(&inner);
        let scale = match backend.as_mut() {
            Some(Backend::Scale(scale)) => scale,
            Some(Backend::Threaded(sys)) => {
                for p in self.hungry.drain(..) {
                    sys.make_hungry(ProcessId(p));
                }
                return;
            }
            // Taken out by shutdown.
            None => return self.hungry.clear(),
        };
        // Lock-order rule, first half: frames other reactors produced
        // for our connections under earlier holds go in before ours.
        self.take_frames();
        for p in self.hungry.drain(..) {
            scale.kernel.inject_hungry(p);
        }
        #[cfg(test)]
        if inner.plant_panic.swap(false, Ordering::SeqCst) {
            panic!("planted under the backend lock");
        }
        scale.obs.clear();
        while scale.kernel.has_pending() {
            scale.kernel.step(1 << 16, &mut scale.obs);
        }
        let at_ms = scale.start.elapsed().as_millis() as u64;
        for o in &scale.obs {
            let obs = if o.started {
                DiningObs::StartedEating
            } else {
                DiningObs::StoppedEating
            };
            scale
                .log
                .push(SchedEvent::new(Time(at_ms), ProcessId(o.process), obs));
            // The scale kernel never crashes a process.
            scale
                .tally
                .observe(o.process, o.started, at_ms, |_, _| false);
            let Some(owner) = inner.owner(o.process) else {
                continue;
            };
            let frame = event_frame(o.process, o.started, at_ms);
            if owner.reactor != self.index {
                self.outbox.push(owner, &frame);
            } else if let Some(wbuf) = self.writable(owner.slot, owner.gen) {
                encode_frame_into(&frame, wbuf);
                self.frames_out += 1;
            }
        }
        // Second half: what is theirs is in their queue before the lock
        // is released.
        self.outbox.post(inner.reactors(), &inner.stats);
    }

    fn adopt(&mut self, conn: Conn) {
        if self.shutting_down {
            conn.kill();
            return;
        }
        if conn.set_nonblocking(true).is_err() {
            conn.kill();
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None if self.slab.len() < ConnRef::MAX_SLOTS => {
                self.slab.push(None);
                self.slab.len() - 1
            }
            None => {
                conn.kill();
                return;
            }
        };
        let gen = self.inner.next_generation();
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .poller
            .add(conn.raw_fd(), interest, slot as u64)
            .is_err()
        {
            conn.kill();
            self.free.push(slot);
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(self.inner.cfg.handshake_ms.max(1));
        self.slab[slot] = Some(ConnEntry {
            conn,
            gen,
            reader: FrameReader::new(),
            wbuf: Vec::new(),
            dirty: false,
            interest,
            phase: Phase::Handshaking,
            bound: Vec::new(),
            strikes: 0,
            pending: 0,
            dead: false,
            deadline: Some(deadline),
        });
    }

    fn handle_event(&mut self, slot: usize, ready: u32) {
        let Some(entry) = self.slab.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if entry.dead {
            return;
        }
        let gen = entry.gen;
        if ready & EPOLLERR != 0 {
            self.conn_failed(slot);
            return;
        }
        if ready & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.do_read(slot);
        }
        if ready & EPOLLOUT != 0 {
            // Room again: the write happens with the rest, at the end of
            // the pass.
            self.writable(slot, gen);
        }
    }

    /// Reads the socket once, then decodes. One read is enough: a short
    /// one means the socket is empty, and after a full one the poller —
    /// level-triggered — reports the connection again on the next pass.
    fn do_read(&mut self, slot: usize) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        match entry.reader.fill(&mut entry.conn) {
            // EOF without Bye.
            Ok(0) => return self.conn_failed(slot),
            Ok(_) => {
                entry.strikes = 0;
                // Read-and-discard so the peer never sees a reset before
                // our terminal answer flushes.
                if entry.phase == Phase::Draining {
                    entry.reader.clear();
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return self.conn_failed(slot),
        }
        self.process_frames(slot);
    }

    /// Decodes and dispatches buffered frames until the connection
    /// drains or dies. The first frame must be a `Bind`: it opens the
    /// connection and clears the handshake deadline.
    fn process_frames(&mut self, slot: usize) {
        loop {
            let Some(entry) = self.slab[slot].as_mut() else {
                return;
            };
            if entry.dead || entry.phase == Phase::Draining {
                return;
            }
            let frame = match entry.reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    self.close_protocol_error(slot);
                    return;
                }
            };
            if entry.phase == Phase::Handshaking {
                if !matches!(frame, Frame::Bind { .. }) {
                    self.close_protocol_error(slot);
                    return;
                }
                entry.phase = Phase::Open;
                entry.deadline = None;
            }
            self.dispatch_open(slot, frame);
        }
    }

    /// The one admission: claim, then either complete inline or park the
    /// recovery wait of a crashed process on a worker. A refusal that
    /// leaves the connection with nothing bound and nothing in flight
    /// closes it once the answer is written.
    fn on_bind(&mut self, slot: usize, process: u32) {
        let inner = Arc::clone(&self.inner);
        match inner.claim_binding(process) {
            Ok(Some(path)) => self.finish_admission(slot, process, path),
            Ok(None) => self.spawn_admission(slot, process),
            Err(code) => {
                let busy = code == REJECT_BUSY;
                if busy {
                    inner.stats.shed_busy.fetch_add(1, Ordering::Relaxed);
                }
                let answer = Frame::BindReject {
                    process,
                    code,
                    retry_after_ms: if busy { inner.cfg.busy_retry_ms } else { 0 },
                };
                let idle = self.slab[slot]
                    .as_ref()
                    .is_some_and(|e| e.bound.is_empty() && e.pending == 0);
                if idle {
                    self.drain_close(slot, &answer);
                } else {
                    self.queue_frame(slot, &answer);
                }
            }
        }
    }

    /// Parks a crashed-process admission on a worker thread; the reactor
    /// keeps serving the connection and the verdict comes back as a
    /// command.
    fn spawn_admission(&mut self, slot: usize, process: u32) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        entry.pending += 1;
        let gen = entry.gen;
        let inner = Arc::clone(&self.inner);
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("ekbd-net-admit".into())
            .spawn(move || {
                let _fail = FailStop(&inner);
                let path = inner.recover_and_classify(process);
                shared.post(
                    Cmd::AdmissionDone {
                        slot,
                        gen,
                        process,
                        path,
                    },
                    &inner.stats,
                );
            });
        if spawned.is_err() {
            // Could not spawn: unwind the claim and drop the connection.
            let entry = self.slab[slot].as_mut().expect("checked above");
            entry.pending -= 1;
            self.inner.release_claim(process);
            self.conn_end(slot, false);
        }
    }

    fn admission_done(&mut self, slot: usize, gen: u32, process: u32, path: AdmitPath) {
        let Some(entry) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            // The slot can only be freed once pending drops to zero, so
            // a missing entry means bookkeeping is broken.
            debug_assert!(false, "admission verdict for a freed slot");
            self.inner.release_claim(process);
            return;
        };
        entry.pending -= 1;
        if entry.dead || entry.gen != gen {
            self.inner.release_claim(process);
            self.gc(slot);
            return;
        }
        self.finish_admission(slot, process, path);
    }

    /// Installs a decided admission and answers the client.
    fn finish_admission(&mut self, slot: usize, process: u32, path: AdmitPath) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        let gen = entry.gen;
        entry.bound.push(process);
        self.inner.complete_admission(
            process,
            path,
            ConnRef {
                reactor: self.index,
                slot,
                gen,
            },
        );
        self.queue_frame(slot, &Frame::Bound { process, path });
    }

    fn dispatch_open(&mut self, slot: usize, frame: Frame) {
        match frame {
            Frame::Hungry { process } => {
                let entry = self.slab[slot].as_ref().expect("dispatch on live slot");
                let me = ConnRef {
                    reactor: self.index,
                    slot,
                    gen: entry.gen,
                };
                if self.inner.owner(process) == Some(me) {
                    self.hungry.push(process);
                } else {
                    self.close_protocol_error(slot);
                }
            }
            Frame::Ping { nonce } => {
                self.queue_frame(slot, &Frame::Pong { nonce });
            }
            Frame::Pong { .. } => {}
            Frame::Bind { process } => self.on_bind(slot, process),
            Frame::Unbind { process } => {
                let entry = self.slab[slot].as_mut().expect("dispatch on live slot");
                let gen = entry.gen;
                if let Some(pos) = entry.bound.iter().position(|&p| p == process) {
                    entry.bound.swap_remove(pos);
                    self.inner.detach_process(process, gen, true);
                    self.queue_frame(slot, &Frame::Unbound { process });
                } else {
                    self.close_protocol_error(slot);
                }
            }
            Frame::Bye => self.conn_end(slot, true),
            // Anything else is out of protocol mid-session.
            _ => self.close_protocol_error(slot),
        }
    }

    /// Queues an answer frame and closes once it flushes.
    fn drain_close(&mut self, slot: usize, frame: &Frame) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        entry.phase = Phase::Draining;
        entry.deadline = None;
        entry.reader.clear();
        self.queue_frame(slot, frame);
    }

    /// The connection's one write of the pass: hands the socket all of
    /// the buffer, keeps what it would not take and re-arms `EPOLLOUT`
    /// for it, sheds a reader that is too far behind, and finishes a
    /// draining close once nothing is left.
    fn flush(&mut self, slot: usize) {
        let Some(entry) = self.slab[slot].as_mut() else {
            return;
        };
        entry.dirty = false;
        if entry.dead {
            return;
        }
        // One write: a short one means the socket is full, and the
        // poller reports it writable again when it is not.
        while !entry.wbuf.is_empty() {
            self.socket_writes += 1;
            match entry.conn.write(&entry.wbuf) {
                Ok(0) => return self.conn_failed(slot),
                Ok(n) => {
                    entry.wbuf.drain(..n);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.conn_failed(slot),
            }
        }
        let cap = self.inner.cfg.send_queue.max(1) * EVENT_FRAME_BYTES;
        if entry.wbuf.len() > cap {
            // The reader is slower than its own event stream.
            self.inner.stats.shed_slow.fetch_add(1, Ordering::Relaxed);
            return self.conn_end(slot, false);
        }
        let drained = entry.wbuf.is_empty();
        let want = EPOLLIN | EPOLLRDHUP | if drained { 0 } else { EPOLLOUT };
        if want != entry.interest
            && self
                .poller
                .modify(entry.conn.raw_fd(), want, slot as u64)
                .is_ok()
        {
            entry.interest = want;
        }
        if drained && entry.phase == Phase::Draining {
            self.conn_end(slot, true);
        }
    }

    /// Suspicion gate: consecutive silent sweeps tolerated before a
    /// session is declared dead. Any inbound frame resets the count, so a
    /// session only times out after `HEARTBEAT_STRIKES × heartbeat_ms` of
    /// total silence — one missed beat is suspicion, not conviction. The
    /// window is 5 s at the default 200 ms: a client answers `Ping`s only
    /// from inside its waits, so the window must outlast whatever a live
    /// caller does between two of them, and a silent client blocks no
    /// neighbour (meals are timed by the daemon) — conviction only
    /// reclaims its slot.
    const HEARTBEAT_STRIKES: u32 = 25;

    /// One heartbeat sweep over this reactor's open connections.
    fn heartbeat(&mut self) {
        self.nonce = self.nonce.wrapping_add(1);
        let nonce = self.nonce;
        let mut dead: Vec<usize> = Vec::new();
        let mut ping: Vec<usize> = Vec::new();
        for (slot, entry) in self.slab.iter_mut().enumerate() {
            let Some(entry) = entry else { continue };
            if entry.dead || entry.phase != Phase::Open {
                continue;
            }
            entry.strikes += 1;
            if entry.strikes > Self::HEARTBEAT_STRIKES {
                dead.push(slot);
            } else {
                ping.push(slot);
            }
        }
        for slot in dead {
            self.inner
                .stats
                .heartbeat_drops
                .fetch_add(1, Ordering::Relaxed);
            self.conn_end(slot, false);
        }
        for slot in ping {
            self.queue_frame(slot, &Frame::Ping { nonce });
        }
    }

    /// Drops handshakes that blew their deadline: counted as timeouts,
    /// not protocol errors — silence breaks no framing rule.
    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| {
                let e = e.as_ref()?;
                (!e.dead && e.phase == Phase::Handshaking && e.deadline.is_some_and(|d| d <= now))
                    .then_some(slot)
            })
            .collect();
        for slot in expired {
            self.fail_handshake(slot, true);
        }
    }

    fn close_protocol_error(&mut self, slot: usize) {
        self.inner
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        self.conn_end(slot, false);
    }

    /// A handshake that never completed: `timeout` separates the silent
    /// dialer from the one that broke framing or hung up mid-word.
    fn fail_handshake(&mut self, slot: usize, timeout: bool) {
        let counter = if timeout {
            &self.inner.stats.handshake_timeouts
        } else {
            &self.inner.stats.protocol_errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.conn_end(slot, false);
    }

    /// The socket failed or hung up without a `Bye`: a handshake that
    /// never completed is the dialer's protocol failure; an established
    /// session crashes its processes.
    fn conn_failed(&mut self, slot: usize) {
        let handshaking = self.slab[slot]
            .as_ref()
            .is_some_and(|e| e.phase == Phase::Handshaking);
        if handshaking {
            self.fail_handshake(slot, false);
        } else {
            self.conn_end(slot, false);
        }
    }

    /// The single teardown path: detaches every bound process (crashing
    /// them if ungraceful), deregisters, and hard-closes. The slot is
    /// recycled once outstanding admission workers report back.
    fn conn_end(&mut self, slot: usize, graceful: bool) {
        let (bound, gen) = {
            let Some(entry) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if entry.dead {
                return;
            }
            entry.dead = true;
            // Harmless if it fails: closing the socket deregisters it too.
            let _ = self.poller.delete(entry.conn.raw_fd());
            entry.conn.kill();
            entry.wbuf = Vec::new();
            entry.reader = FrameReader::new();
            (std::mem::take(&mut entry.bound), entry.gen)
        };
        for p in bound {
            if self.inner.detach_process(p, gen, graceful) && !graceful {
                self.inner.with_runtime(|sys| sys.crash(ProcessId(p)));
            }
        }
        self.gc(slot);
    }

    /// Frees a dead slot once no admission worker can still address it.
    /// (The dirty list may still name it: a write to a freed or reused
    /// slot finds nothing to send.)
    fn gc(&mut self, slot: usize) {
        let freeable = self.slab[slot]
            .as_ref()
            .is_some_and(|e| e.dead && e.pending == 0);
        if freeable {
            self.slab[slot] = None;
            self.free.push(slot);
        }
    }
}

/// How long the event pump keeps gathering a batch under load before it
/// posts. The runtime's events trickle in one at a time, so a batch cut
/// at the first empty tap carries a frame or two, and every post costs
/// each reactor a wake-up and each connection a write. Bounds the delay a
/// busy table adds to a grant; a quiet one adds none.
const PUMP_LINGER: Duration = Duration::from_micros(200);

/// The threaded backend's event pump: turns each batch of the runtime's
/// live events into frames grouped by owning connection and posts one
/// batch per reactor. A batch of two frames or more that follows the last
/// post within [`PUMP_LINGER`] is held open for up to that long. Blocks on
/// the tap; ends when the tap disconnects, and returns what it counted.
fn pump_events(inner: &ServerInner, tap: &Receiver<SchedEvent>) -> Tally {
    let reactors = inner.reactors();
    let mut outbox = Outbox::new(reactors.len());
    let mut tally = Tally::new(inner.owners.len());
    let restarted_since = |p: u32, t: u64| {
        inner
            .restarts
            .as_ref()
            .is_some_and(|watch| watch.restarted_since(ProcessId(p), t))
    };
    // When frames last went out: a table that posts again within the
    // linger is busy.
    let mut posted_at: Option<Instant> = None;
    while let Ok(first) = tap.recv() {
        let busy = posted_at.is_some_and(|at| at.elapsed() < PUMP_LINGER);
        let until = Instant::now() + PUMP_LINGER;
        let mut next = Some(first);
        let mut frames = 0;
        while let Some(e) = next.take() {
            for e in std::iter::once(e).chain(tap.try_iter()) {
                let started = match e.obs {
                    DiningObs::StartedEating => true,
                    DiningObs::StoppedEating => false,
                    _ => continue,
                };
                let process = e.process.0;
                tally.observe(process, started, e.time.0, restarted_since);
                if let Some(owner) = inner.owner(process) {
                    outbox.push(owner, &event_frame(process, started, e.time.0));
                    frames += 1;
                }
            }
            // A lone frame, or the first batch after a lull, goes out now.
            // Otherwise give the philosophers the core and take what they
            // add until the linger is up.
            if frames < 2 || !busy {
                break;
            }
            while next.is_none() && Instant::now() < until {
                std::thread::yield_now();
                next = tap.try_recv().ok();
            }
        }
        if frames > 0 {
            posted_at = Some(Instant::now());
        }
        outbox.post(reactors, &inner.stats);
    }
    tally
}

/// The acceptor: hands each accepted socket to the reactors in turn until
/// its waker fires, at shutdown or when the server fails.
fn accept_loop(inner: &ServerInner, listener: &Listener, mut poller: Epoll) {
    let _fail = FailStop(inner);
    let reactors = inner.reactors();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut next = 0usize;
    loop {
        events.clear();
        poller
            .wait(&mut events, 8, -1)
            .expect("wait on the acceptor's own poller");
        if events.iter().any(|&(token, _)| token == WAKER_TOKEN) {
            return;
        }
        while let Ok(conn) = listener.accept() {
            inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let to = &reactors[next % reactors.len()];
            to.post(Cmd::Adopt(conn), &inner.stats);
            next = next.wrapping_add(1);
            if inner.failed() {
                // The reactor may have abandoned its queue before the
                // post: closing the socket is left to nobody else.
                to.cmds.lock().expect("command queue poisoned").clear();
                return;
            }
        }
    }
}

/// A panicked server thread's name and payload.
type Panic = (Option<String>, Box<dyn Any + Send>);

/// Joins a server thread, keeping its panic with the thread's name.
fn join<T>(handle: JoinHandle<T>, panics: &mut Vec<Panic>) -> Option<T> {
    let name = handle.thread().name().map(String::from);
    handle
        .join()
        .map_err(|payload| panics.push((name, payload)))
        .ok()
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A running daemon server. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaves threads running; always shut down.
pub struct DaemonServer {
    inner: Arc<ServerInner>,
    acceptor: JoinHandle<()>,
    reactors: Vec<JoinHandle<()>>,
    /// The threaded backend's event pump; the scale backend has none.
    pump: Option<JoinHandle<Tally>>,
    local_addr: ServerAddr,
}

impl DaemonServer {
    /// Binds `addr`, spawns the configured backend over `graph`, and
    /// starts serving sessions.
    pub fn start(graph: ConflictGraph, addr: &ServerAddr, cfg: ServerConfig) -> io::Result<Self> {
        let (listener, local_addr) = Listener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (backend, restarts, tap) = match cfg.backend {
            BackendSpec::Threaded => {
                let sys = ThreadedDining::spawn_recoverable(graph.clone(), cfg.runtime.clone());
                let (restarts, tap) = (sys.restart_watch(), sys.tap_events());
                (Backend::Threaded(sys), Some(restarts), Some(tap))
            }
            BackendSpec::Scale { seed } => {
                (Backend::Scale(ScaleService::new(&graph, seed)), None, None)
            }
        };
        let n_reactors = cfg.reactor_threads.clamp(1, ConnRef::MAX_REACTORS);
        let inner = Arc::new(ServerInner {
            cfg,
            backend: Mutex::new(Some(backend)),
            restarts,
            sessions: Mutex::new(HashMap::new()),
            owners: (0..graph.len())
                .map(|_| AtomicU64::new(ConnRef::UNBOUND))
                .collect(),
            crashed: Mutex::new(vec![false; graph.len()]),
            restarts_seen: Mutex::new(vec![0; graph.len()]),
            reactors: OnceLock::new(),
            stop_accepting: Waker::new()?,
            failed: OnceLock::new(),
            next_generation: AtomicU32::new(1),
            stats: AtomicStats::default(),
            #[cfg(test)]
            plant_panic: Default::default(),
        });

        let mut shareds = Vec::with_capacity(n_reactors);
        let mut reactors = Vec::with_capacity(n_reactors);
        for i in 0..n_reactors {
            let shared = Arc::new(ReactorShared {
                cmds: Mutex::new(Vec::new()),
                frames: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            });
            let reactor = Reactor::new(Arc::clone(&inner), Arc::clone(&shared), i, n_reactors)?;
            shareds.push(shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("ekbd-net-reactor-{i}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor thread"),
            );
        }
        inner
            .reactors
            .set(shareds)
            .unwrap_or_else(|_| unreachable!("reactors set once"));

        let acceptor = {
            let inner = Arc::clone(&inner);
            let mut poller = Epoll::new()?;
            poller.add(listener.raw_fd(), EPOLLIN, 0)?;
            poller.add(inner.stop_accepting.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
            // Probe once so a broken poller fails startup, not the accept
            // loop.
            poller.wait(&mut Vec::new(), 1, 0)?;
            std::thread::Builder::new()
                .name("ekbd-net-accept".into())
                .spawn(move || accept_loop(&inner, &listener, poller))
                .expect("spawn acceptor thread")
        };

        let pump = tap.map(|tap| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ekbd-net-pump".into())
                .spawn(move || {
                    let _fail = FailStop(&inner);
                    let tally = pump_events(&inner, &tap);
                    // Shutdown takes the backend before it drops the
                    // runtime's taps; a tap that ends under a backend still
                    // in place lost a process thread, and the runtime will
                    // grant nothing more.
                    let torn_down = inner.backend.lock().is_ok_and(|b| b.is_none());
                    assert!(torn_down, "the threaded backend lost a process thread");
                    tally
                })
                .expect("spawn pump thread")
        });

        Ok(DaemonServer {
            inner,
            acceptor,
            reactors,
            pump,
            local_addr,
        })
    }

    /// The resolved listen address (TCP port `0` becomes the actual
    /// kernel-assigned port) — what clients should dial.
    pub fn local_addr(&self) -> &ServerAddr {
        &self.local_addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot()
    }

    /// Stops accepting, closes every connection (crashing their bound
    /// processes, as any ungraceful disconnect does), tears the backend
    /// down, and returns the full run record. Restart notices are
    /// snapshotted *after* the runtime joins, so a recovery racing the
    /// shutdown still lands in [`ServerRun::restarts`].
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a server thread, after the teardown: a
    /// server whose inside broke does not hand back a run record as if it
    /// had not. The payload is that of the first thread to fail; a
    /// detached admission worker's is lost, and its thread is named
    /// instead.
    pub fn shutdown(self) -> ServerRun {
        self.inner.stop_accepting.wake();
        let mut panics = Vec::new();
        join(self.acceptor, &mut panics);
        for shared in self.inner.reactors() {
            shared.post(Cmd::Shutdown, &self.inner.stats);
        }
        for handle in self.reactors {
            join(handle, &mut panics);
        }
        // A panic may have poisoned the backend. It is taken only to be
        // torn down: the runtime's threads must be joined.
        #[allow(clippy::disallowed_methods)]
        let backend = self
            .inner
            .backend
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mut tally = Tally::default();
        let (events, events_total, link, restarts, scale) = match backend {
            Some(Backend::Threaded(sys)) => {
                let run = sys.shutdown_complete(Duration::ZERO);
                (run.events, run.events_total, run.link, run.restarts, None)
            }
            // A kernel a panic may have left half-stepped is dropped, not
            // finished.
            Some(Backend::Scale(_)) if self.inner.failed() => Default::default(),
            Some(Backend::Scale(scale)) => {
                let report = scale.kernel.finish();
                tally = scale.tally;
                let total = scale.log.total();
                let events = scale.log.into_vec();
                (
                    events,
                    total,
                    LinkSummary::default(),
                    Vec::new(),
                    Some(report),
                )
            }
            None => unreachable!("only shutdown takes the backend, and it runs once"),
        };
        // The runtime is gone and with it the tap's senders: the pump has
        // seen the disconnect.
        if let Some(pumped) = self.pump.and_then(|pump| join(pump, &mut panics)) {
            tally = pumped;
        }
        // The first thread to fail goes first; the rest keep join order.
        let first = self.inner.failed.get();
        panics.sort_by_key(|(name, _)| first.is_some() && name.as_ref() != first);
        if let Some((_, payload)) = panics.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
        if let Some(first) = first {
            panic!("{first} panicked, and the server stopped");
        }
        ServerRun {
            events,
            events_total,
            meals: tally.meals,
            alternation_violations: tally.violations,
            link,
            restarts,
            scale,
            stats: self.inner.stats.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_graph::topology;

    #[test]
    fn owner_words_round_trip_and_never_read_as_unbound() {
        for conn in [
            ConnRef {
                reactor: 0,
                slot: 0,
                gen: 1,
            },
            ConnRef {
                reactor: ConnRef::MAX_REACTORS - 1,
                slot: ConnRef::MAX_SLOTS - 1,
                gen: u32::MAX,
            },
        ] {
            assert_ne!(conn.pack(), ConnRef::UNBOUND);
            assert!(ConnRef::unpack(conn.pack()) == Some(conn));
        }
        assert!(ConnRef::unpack(ConnRef::UNBOUND).is_none());
    }

    /// A server whose inside broke does not hand back a run record as if
    /// it had not: the thread's panic comes out of `shutdown`, after the
    /// teardown.
    #[test]
    fn shutdown_re_raises_the_panic_of_a_server_thread() {
        let cfg = ServerConfig {
            backend: BackendSpec::Scale { seed: 1 },
            ..ServerConfig::default()
        };
        let addr = ServerAddr::Tcp("127.0.0.1:0".into());
        let mut server = DaemonServer::start(topology::ring(3), &addr, cfg).unwrap();
        // Stands in for a reactor that hit a bug.
        server
            .reactors
            .push(std::thread::spawn(|| panic!("reactor broke")));
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
        let payload = raised.err().expect("shutdown re-raises the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"reactor broke"));
    }

    /// The runtime's event tap ends while a backend is still in place, as
    /// it does when a process thread dies: the pump must fail the whole
    /// server. Every connection then reads EOF within a second, and
    /// `shutdown` hands back the pump's payload.
    #[test]
    fn a_tap_that_ends_under_a_live_backend_stops_the_whole_server() {
        use crate::{ClientConfig, ClientError, MuxClient, MuxEvent};
        let cfg = ServerConfig {
            backend: BackendSpec::Threaded,
            ..ServerConfig::default()
        };
        let addr = ServerAddr::Tcp("127.0.0.1:0".into());
        let server = DaemonServer::start(topology::ring(4), &addr, cfg.clone()).unwrap();
        let addr = server.local_addr().clone();
        let mut client = MuxClient::connect(&addr, 0, ClientConfig::default()).unwrap();
        client.hungry(0).unwrap();
        let wait = Duration::from_secs(5);
        while !matches!(client.next_event(wait).unwrap(), MuxEvent::Released { .. }) {}
        // Stands in for a runtime that lost a thread: the pump's tap ends,
        // and a backend stays in place.
        let fresh = ThreadedDining::spawn_recoverable(topology::ring(4), cfg.runtime);
        let old = server
            .inner
            .backend
            .lock()
            .unwrap()
            .replace(Backend::Threaded(fresh));
        let stopped = Instant::now();
        if let Some(Backend::Threaded(sys)) = old {
            sys.shutdown_complete(Duration::ZERO);
        }
        let closed = loop {
            match client.next_event(Duration::from_secs(1)) {
                Ok(_) => continue,
                Err(ClientError::Closed | ClientError::Io(_)) => break true,
                Err(_) => break false,
            }
        };
        let late = stopped.elapsed();
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
        let payload = raised.err().map(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "a non-str payload".into())
        });
        let report = format!("closed: {closed} in {late:?}; shutdown: {payload:?}");
        assert!(closed && late < Duration::from_secs(1), "{report}");
        assert_eq!(
            payload.as_deref(),
            Some("the threaded backend lost a process thread"),
            "{report}"
        );
    }

    /// A reactor panics while it holds the backend lock, between injecting
    /// a `Hungry` and stepping the kernel. Every connection must then read
    /// EOF within a second, a new dialer must not be served, and
    /// `shutdown` must hand back the planted payload.
    #[test]
    fn a_panic_under_the_backend_lock_stops_the_whole_server() {
        use crate::{ClientConfig, ClientError, MuxClient, MuxEvent};
        let cfg = ServerConfig {
            backend: BackendSpec::Scale { seed: 1 },
            ..ServerConfig::default()
        };
        let addr = ServerAddr::Tcp("127.0.0.1:0".into());
        let server = DaemonServer::start(topology::ring(8), &addr, cfg).unwrap();
        let addr = server.local_addr().clone();
        let wait = Duration::from_secs(5);
        // Four connections, dealt to the two reactors in turn; 0, 2, 4
        // and 6 share no edge, so each eats once at once.
        let mut clients: Vec<(u32, MuxClient)> = (0..4)
            .map(|i| {
                let p = 2 * i;
                (
                    p,
                    MuxClient::connect(&addr, p, ClientConfig::default()).unwrap(),
                )
            })
            .collect();
        for (p, c) in &mut clients {
            c.hungry(*p).unwrap();
            while !matches!(c.next_event(wait).unwrap(), MuxEvent::Released { .. }) {}
        }
        // What one connection sees next: a grant, or a closed socket.
        fn outcome(c: &mut MuxClient, until: Instant) -> &'static str {
            loop {
                let left = until.saturating_duration_since(Instant::now());
                match c.next_event(left) {
                    Ok(MuxEvent::Granted { .. }) => return "granted",
                    Ok(MuxEvent::Released { .. }) => {}
                    Err(ClientError::Closed | ClientError::Io(_)) => return "closed",
                    Err(ClientError::Timeout) => return "open and silent",
                    Err(e) => panic!("unexpected client error: {e}"),
                }
            }
        }
        server.inner.plant_panic.store(true, Ordering::SeqCst);
        let planted = Instant::now();
        let deadline = planted + Duration::from_secs(1);
        let (_, first) = &mut clients[0];
        first.hungry(0).unwrap();
        let mut seen = vec![(0, outcome(first, deadline))];
        for (p, c) in clients.iter_mut().skip(1) {
            // A write into a closed socket is a closed socket too.
            let asked = c.hungry(*p).and_then(|()| c.flush());
            let got = if asked.is_err() {
                "closed"
            } else {
                outcome(c, deadline)
            };
            seen.push((*p, got));
        }
        let late = planted.elapsed();
        let dial = ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        };
        let redial = match MuxClient::connect(&addr, 1, dial) {
            Ok(_) => "served",
            Err(ClientError::Closed | ClientError::Io(_)) => "closed",
            Err(ClientError::Timeout) => "open and silent",
            Err(_) => "refused by frame",
        };
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
        let payload = raised.err().map(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "a non-str payload".into())
        });
        let report = format!(
            "after the panic: {seen:?} in {late:?}; a new dialer: {redial}; shutdown: {payload:?}"
        );
        assert!(seen.iter().all(|&(_, got)| got == "closed"), "{report}");
        assert!(late < Duration::from_secs(1), "{report}");
        assert_eq!(redial, "closed", "{report}");
        assert_eq!(
            payload.as_deref(),
            Some("planted under the backend lock"),
            "{report}"
        );
    }
}
