//! The two network workloads, `net-saturated` and `net-churn`, and the
//! closed-loop load driver they share with the layer probes.
//!
//! A dining process cannot be hungry twice, so the loop is closed: each
//! process asks again only after its last meal was released (plus think
//! time). The driver is one thread per connection, `min(cores, 2)`
//! connections, each multiplexing a block of processes.

use crate::report::{
    cpu_seconds, fast_decile, peak_rss_kb, quantile, sorted, top_percentile, Outcome,
};
use crate::sim::WARMUP;
use crate::trace::{SpanId, Tracer, NONE};
use crate::{layers, splitmix, waiting_for, Run};
use ekbd_graph::{topology, ConflictGraph};
use ekbd_metrics::ExclusionReport;
use ekbd_net::{
    AdmitPath, BackendSpec, ClientConfig, ClientError, DaemonServer, MuxClient, MuxEvent,
    ServerAddr, ServerConfig, ServerRun,
};
use ekbd_runtime::RuntimeConfig;
use ekbd_sim::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A cycle not granted within this long is a failed operation.
const GRANT_DEADLINE: Duration = Duration::from_secs(2);
/// How often the driver looks for cycles past [`GRANT_DEADLINE`].
const DEADLINE_SCAN: Duration = Duration::from_millis(100);
/// Shortest wait handed to the table: a zero timeout would return
/// without reading the socket.
const MIN_WAIT: Duration = Duration::from_micros(100);
/// No cut this close to the end: the run ends on a stretch in which
/// exclusion can be judged.
const CUT_FREE_TAIL: Duration = Duration::from_millis(1500);
/// Connections, one driver thread each.
const CONNECTIONS: usize = 2;

/// A grant or a release of one process.
pub enum TableEvent {
    Granted(u32),
    Released(u32),
}

/// What the load driver needs from a dining service: the networked
/// server through a [`MuxClient`], or the runtime with no sockets.
pub trait Table {
    /// Asks for `process` to eat.
    fn hungry(&mut self, process: u32) -> Result<(), String>;
    /// The next event of any driven process, or `None` after `timeout`.
    fn next_event(&mut self, timeout: Duration) -> Result<Option<TableEvent>, String>;
    /// Cuts every driven process off and readmits it; returns how many
    /// came back with their state lost.
    fn cut_and_readmit(&mut self) -> Result<u64, String>;
    /// The processes this table drives: one contiguous block.
    fn processes(&self) -> Vec<u32>;
}

impl Table for MuxClient {
    fn hungry(&mut self, process: u32) -> Result<(), String> {
        MuxClient::hungry(self, process).map_err(|e| e.to_string())
    }

    fn next_event(&mut self, timeout: Duration) -> Result<Option<TableEvent>, String> {
        match MuxClient::next_event(self, timeout) {
            Ok(MuxEvent::Granted { process, .. }) => Ok(Some(TableEvent::Granted(process))),
            Ok(MuxEvent::Released { process, .. }) => Ok(Some(TableEvent::Released(process))),
            Err(ClientError::Timeout) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn cut_and_readmit(&mut self) -> Result<u64, String> {
        let bound = MuxClient::processes(self).len();
        self.kill();
        let paths = self.reconnect().map_err(|e| e.to_string())?;
        if paths.len() != bound {
            return Err(format!("{} of {bound} bindings readmitted", paths.len()));
        }
        Ok(paths
            .iter()
            .filter(|(_, path)| *path == AdmitPath::Fresh)
            .count() as u64)
    }

    fn processes(&self) -> Vec<u32> {
        MuxClient::processes(self)
    }
}

/// How the driven processes behave, and for how long.
#[derive(Clone)]
pub struct Plan {
    /// Think time between a release and the next request, microseconds.
    pub think_us: (u64, u64),
    /// First cut, measured from the start of the first window, and the
    /// period of the cuts after it; `None` for a table that is never cut.
    pub cuts: Option<(Duration, Duration)>,
    /// Seed of the think times.
    pub seed: u64,
    /// Whether odd windows record spans.
    pub trace: bool,
    /// Unmeasured time before the first window.
    pub warmup: Duration,
    /// Length of one measurement window. Short windows let some escape
    /// the host's bursts of interference; a paced workload needs them
    /// long enough to hold a steady count of cycles.
    pub window: Duration,
    /// Number of windows.
    pub windows: usize,
    /// Read the peak resident set when this many cycles have been served
    /// since the tables were set up, not at the end. A server that logs
    /// every event holds memory in step with the cycles it has served, so
    /// at the end of a window its footprint is a second throughput figure,
    /// and a worse one the faster it ran.
    pub rss_at_cycle: Option<u64>,
}

/// What the driver threads of one measurement share.
#[derive(Default)]
struct Shared {
    /// Cycles served so far, warm-up included.
    cycles: AtomicU64,
    /// `VmHWM` in kB when [`Plan::rss_at_cycle`] was reached; 0 before.
    rss_kb: AtomicU64,
}

/// When a driver thread measures and stops.
#[derive(Clone, Copy)]
struct Clock {
    /// Start of the first window; the warm-up runs until then.
    measure_from: Instant,
    window: Duration,
    windows: usize,
}

impl Clock {
    fn edge(&self, w: usize) -> Instant {
        self.measure_from + self.window * w as u32
    }

    fn end(&self) -> Instant {
        self.edge(self.windows)
    }

    /// The window `at` falls in, if any.
    fn window_of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.measure_from)?;
        let w = (since.as_nanos() / self.window.as_nanos()) as usize;
        (w < self.windows).then_some(w)
    }
}

/// What one window saw.
#[derive(Clone, Default)]
pub struct Window {
    /// Cycles released in the window.
    pub cycles: u64,
    /// Hungry → granted time of each grant in the window, nanoseconds.
    pub grant_ns: Vec<u32>,
}

/// What one driver thread saw.
struct Driven {
    windows: Vec<Window>,
    /// Cut → readmitted time of each cut, microseconds.
    readmit_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    tracer: Tracer,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Thinking,
    Hungry,
    Eating,
}

struct Slot {
    process: u32,
    phase: Phase,
    asked_at: Instant,
    cycle: u64,
    span: SpanId,
}

/// Drives the table's processes through the warm-up and the windows.
fn drive<T: Table>(
    table: &mut T,
    plan: &Plan,
    clock: Clock,
    shared: &Shared,
    tracer: Tracer,
) -> Driven {
    let mut seen = Driven {
        windows: vec![Window::default(); clock.windows],
        readmit_us: Vec::new(),
        attempted: 0,
        failed: 0,
        error: None,
        tracer,
    };
    if let Err(e) = drive_loop(table, plan, clock, shared, &mut seen) {
        seen.failed += 1;
        seen.error = Some(e);
    }
    seen
}

fn drive_loop<T: Table>(
    table: &mut T,
    plan: &Plan,
    clock: Clock,
    shared: &Shared,
    seen: &mut Driven,
) -> Result<(), String> {
    let processes = table.processes();
    let Driven {
        windows,
        readmit_us,
        attempted,
        failed,
        tracer,
        ..
    } = seen;
    let start = Instant::now();
    let end = clock.end();
    let mut rng = plan.seed;
    let mut cycles_started = 0u64;
    let mut slots: Vec<Slot> = processes
        .iter()
        .map(|&process| Slot {
            process,
            phase: Phase::Thinking,
            asked_at: start,
            cycle: 0,
            span: NONE,
        })
        .collect();
    // A connection's processes are one contiguous block.
    let first = processes[0];
    let slot_of = |process: u32| {
        let j = process.wrapping_sub(first) as usize;
        (j < processes.len()).then_some(j)
    };
    // Thinking slots by the time their think ends.
    let mut due: BinaryHeap<Reverse<(Instant, usize)>> =
        (0..slots.len()).map(|j| Reverse((start, j))).collect();
    let mut next_cut = plan.cuts.map(|(first, _)| clock.measure_from + first);
    let mut next_scan = start + DEADLINE_SCAN;
    tracer.on = false;

    loop {
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        if plan.trace {
            tracer.on = clock.window_of(now).is_some_and(|w| w % 2 == 1);
        }

        if next_cut.is_some_and(|at| now >= at) {
            let span = tracer.begin("client.reconnect", NONE, cycles_started);
            let fresh = table.cut_and_readmit()?;
            tracer.end(span);
            readmit_us.push(now.elapsed().as_secs_f64() * 1e6);
            *attempted += slots.len() as u64;
            *failed += fresh;
            // Whatever was in flight died with the connection.
            let now = Instant::now();
            due.clear();
            for (j, slot) in slots.iter_mut().enumerate() {
                slot.phase = Phase::Thinking;
                due.push(Reverse((now, j)));
            }
            let period = plan.cuts.expect("a cut was due").1;
            next_cut = next_cut
                .map(|at| at + period)
                .filter(|&at| at + CUT_FREE_TAIL <= end);
            continue;
        }

        while let Some(&Reverse((at, j))) = due.peek() {
            if at > now {
                break;
            }
            due.pop();
            ask(table, &mut slots[j], tracer, &mut cycles_started)?;
        }

        if now >= next_scan {
            next_scan = now + DEADLINE_SCAN;
            for slot in &mut slots {
                if slot.phase == Phase::Hungry && now - slot.asked_at > GRANT_DEADLINE {
                    *attempted += 1;
                    *failed += 1;
                    // Asking again is idempotent: the daemon ignores a
                    // request from a process that is not thinking.
                    ask(table, slot, tracer, &mut cycles_started)?;
                }
            }
        }

        let mut wake = end.min(next_scan);
        if let Some(&Reverse((at, _))) = due.peek() {
            wake = wake.min(at);
        }
        if let Some(at) = next_cut {
            wake = wake.min(at);
        }
        let timeout = wake.saturating_duration_since(now).max(MIN_WAIT);
        match table.next_event(timeout)? {
            None => {}
            Some(TableEvent::Granted(process)) => {
                let Some(j) = slot_of(process) else { continue };
                let slot = &mut slots[j];
                if slot.phase == Phase::Hungry {
                    let now = Instant::now();
                    slot.phase = Phase::Eating;
                    tracer.end(slot.span);
                    if let Some(w) = clock.window_of(now) {
                        let waited = (now - slot.asked_at).as_nanos();
                        windows[w]
                            .grant_ns
                            .push(waited.min(u32::MAX as u128) as u32);
                    }
                }
            }
            Some(TableEvent::Released(process)) => {
                let Some(j) = slot_of(process) else { continue };
                let slot = &mut slots[j];
                match slot.phase {
                    Phase::Eating => {
                        let now = Instant::now();
                        slot.phase = Phase::Thinking;
                        if let Some(w) = clock.window_of(now) {
                            windows[w].cycles += 1;
                            *attempted += 1;
                        }
                        // Relaxed: a count, publishing nothing else.
                        let served = shared.cycles.fetch_add(1, Ordering::Relaxed) + 1;
                        if plan.rss_at_cycle == Some(served) {
                            shared.rss_kb.store(peak_rss_kb() as u64, Ordering::Relaxed);
                        }
                        let (lo, hi) = plan.think_us;
                        if hi == 0 {
                            ask(table, slot, tracer, &mut cycles_started)?;
                        } else {
                            let think = lo + splitmix(&mut rng) % (hi - lo + 1);
                            due.push(Reverse((now + Duration::from_micros(think), j)));
                        }
                    }
                    // A meal from before a cut just ended, so the request
                    // sent since was ignored: ask again.
                    Phase::Hungry => ask(table, slot, tracer, &mut cycles_started)?,
                    Phase::Thinking => {}
                }
            }
        }
    }
}

/// Sends one request and stamps the slot.
fn ask<T: Table>(
    table: &mut T,
    slot: &mut Slot,
    tracer: &mut Tracer,
    cycles_started: &mut u64,
) -> Result<(), String> {
    if slot.phase != Phase::Hungry {
        *cycles_started += 1;
        slot.cycle = *cycles_started;
        slot.span = tracer.begin("cycle", NONE, slot.cycle);
    }
    slot.phase = Phase::Hungry;
    slot.asked_at = Instant::now();
    let call = tracer.begin("client.hungry_call", slot.span, slot.cycle);
    let sent = table.hungry(slot.process);
    tracer.end(call);
    sent
}

// ---------------------------------------------------------------------
// The two workloads
// ---------------------------------------------------------------------

fn loopback() -> ServerAddr {
    ServerAddr::Tcp("127.0.0.1:0".into())
}

/// A server with every process of `graph` bound, split in equal blocks
/// over [`CONNECTIONS`] connections.
struct Service {
    server: DaemonServer,
    clients: Vec<MuxClient>,
}

fn start_service(graph: &ConflictGraph, cfg: ServerConfig, seed: u64, tr: &mut Tracer) -> Service {
    let server = tr.span("net.server.start", 0, || {
        DaemonServer::start(graph.clone(), &loopback(), cfg).expect("start the server on loopback")
    });
    let addr = server.local_addr().clone();
    let block = graph.len() / CONNECTIONS;
    // The connections are admitted side by side, each on a thread of its
    // own, as the driver threads will use them.
    let admitted: Vec<(MuxClient, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let first = (c * block) as u32;
                let client_cfg = ClientConfig {
                    seed: seed ^ u64::from(first),
                    read_timeout_ms: 1,
                    ..ClientConfig::default()
                };
                let (addr, mut tr) = (&addr, tr.child());
                scope.spawn(move || {
                    let mut client = tr.span("net.server.admit", u64::from(first), || {
                        MuxClient::connect(addr, first, client_cfg)
                            .expect("connect and be admitted")
                    });
                    for p in first + 1..first + block as u32 {
                        tr.span("net.server.bind", u64::from(p), || {
                            client.bind(p).expect("bind a process")
                        });
                    }
                    (client, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("admission thread panicked"))
            .collect()
    });
    let mut clients = Vec::new();
    for (client, spans) in admitted {
        clients.push(client);
        tr.absorb(spans);
    }
    Service { server, clients }
}

fn stop_service(service: Service, tr: &mut Tracer) -> ServerRun {
    for client in service.clients {
        client.bye();
    }
    tr.span("net.server.shutdown", 0, || service.server.shutdown())
}

/// Sets the service up several times, reporting `setup_s`, and keeps the
/// last one.
fn set_up(
    out: &mut Outcome,
    tr: &mut Tracer,
    graph: &ConflictGraph,
    seed: u64,
    cfg: &ServerConfig,
) -> Service {
    waiting_for("set-up");
    // A set-up is a few hundred wake-ups of a few milliseconds in all, so
    // single ones differ by half; stopping the server again takes 50 ms.
    const REPS: usize = 31;
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        if let Some(previous) = last.take() {
            stop_service(previous, tr);
        }
        let t = Instant::now();
        last = Some(start_service(graph, cfg.clone(), seed, tr));
        times.push(t.elapsed().as_secs_f64());
    }
    out.set_fastest("setup_s", &times);
    last.expect("at least one set-up")
}

/// What the driver threads saw together.
pub struct Measured {
    /// Per window, summed over the threads.
    windows: Vec<Window>,
    /// CPU time of the whole process in each window, seconds.
    cpu_s: Vec<f64>,
    /// Cut → readmitted time of every cut, microseconds.
    pub readmit_us: Vec<f64>,
    window: Duration,
    /// `VmHWM` in kB at [`Plan::rss_at_cycle`], if that was set and reached.
    rss_kb_at_cycle: Option<f64>,
}

impl Measured {
    /// The windows that ran with tracing off (`traced` false) or on: in a
    /// traced run the odd windows carry the tracing.
    fn windows(&self, run_traced: bool, traced: bool) -> impl Iterator<Item = (&Window, f64)> {
        self.windows
            .iter()
            .zip(self.cpu_s.iter().copied())
            .enumerate()
            .filter(move |(i, _)| (run_traced && i % 2 == 1) == traced)
            .map(|(_, w)| w)
    }

    /// Cycles per second of every such window.
    pub fn cycles_per_s(&self, run_traced: bool, traced: bool) -> Vec<f64> {
        self.windows(run_traced, traced)
            .map(|(w, _)| w.cycles as f64 / self.window.as_secs_f64())
            .collect()
    }

    /// Process CPU time over the untraced windows, divided by their
    /// cycles, microseconds.
    pub fn cpu_us_per_cycle(&self, run_traced: bool) -> f64 {
        let (cpu, cycles) = self
            .windows(run_traced, false)
            .fold((0.0, 0u64), |(cpu, cycles), (w, c)| {
                (cpu + c, cycles + w.cycles)
            });
        cpu * 1e6 / cycles.max(1) as f64
    }

    /// Every grant time, microseconds.
    pub fn grants_us(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.grant_ns.iter().map(|&ns| f64::from(ns) / 1e3))
            .collect()
    }
}

/// Runs one driver thread per table through the plan, while this thread
/// reads the process's CPU time at every window edge. Failures go to
/// `out`, spans to `tr`.
pub fn drive_all<T: Table + Send>(
    out: &mut Outcome,
    tr: &mut Tracer,
    tables: &mut [T],
    plan: &Plan,
) -> Measured {
    let clock = Clock {
        measure_from: Instant::now() + plan.warmup,
        window: plan.window,
        windows: plan.windows,
    };
    let connections = tables.len() as u32;
    let shared = Shared::default();
    let mut cpu = Vec::with_capacity(plan.windows + 1);
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = tables
            .iter_mut()
            .enumerate()
            .map(|(c, table)| {
                let mut plan = plan.clone();
                plan.seed ^= (c as u64 + 1) << 32;
                // Tables are cut in turn, one period apart.
                plan.cuts = plan
                    .cuts
                    .map(|(first, period)| (first + period * c as u32, period * connections));
                let (shared, tracer) = (&shared, tr.child());
                scope.spawn(move || drive(table, &plan, clock, shared, tracer))
            })
            .collect();
        waiting_for("warm-up");
        for w in 0..=plan.windows {
            std::thread::sleep(clock.edge(w).saturating_duration_since(Instant::now()));
            cpu.push(cpu_seconds());
            waiting_for("measured window");
        }
        waiting_for("driver threads to stop");
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });

    let mut seen = Measured {
        windows: vec![Window::default(); plan.windows],
        cpu_s: cpu.windows(2).map(|edge| edge[1] - edge[0]).collect(),
        readmit_us: Vec::new(),
        window: plan.window,
        rss_kb_at_cycle: Some(shared.rss_kb.into_inner())
            .filter(|&kb| kb > 0)
            .map(|kb| kb as f64),
    };
    for d in driven {
        out.attempted += d.attempted;
        out.failed += d.failed;
        if let Some(e) = d.error {
            println!("driver error: {e}");
        }
        for (sum, w) in seen.windows.iter_mut().zip(d.windows) {
            sum.cycles += w.cycles;
            sum.grant_ns.extend(w.grant_ns);
        }
        seen.readmit_us.extend(d.readmit_us);
        tr.absorb(d.tracer);
    }
    seen
}

/// Drives the service through the plan and reports the metrics of a net
/// workload.
fn measure(run: &Run, out: &mut Outcome, tr: &mut Tracer, service: &mut Service, plan: &Plan) {
    let seen = drive_all(out, tr, &mut service.clients, plan);
    let total: u64 = seen.windows.iter().map(|w| w.cycles).sum();
    println!(
        "{total} cycles in {} windows of {:?}, {} cuts",
        plan.windows,
        plan.window,
        seen.readmit_us.len()
    );
    // A window can be shorter than a stall the host imposes; a second
    // without a meal is the daemon's.
    let per_second = (Duration::from_secs(1).as_nanos() / plan.window.as_nanos()) as usize;
    out.check(
        "cycles completed in every second",
        seen.windows
            .chunks(per_second)
            .all(|second| second.iter().any(|w| w.cycles > 0)),
        format!("{total} cycles"),
    );

    let rates = seen.cycles_per_s(run.trace, false);
    out.set_fast_decile("cycles_per_s", &rates);
    out.set("cpu_us_per_cycle", seen.cpu_us_per_cycle(run.trace));
    if let (Some(at), None) = (plan.rss_at_cycle, seen.rss_kb_at_cycle) {
        println!("fewer than {at} cycles served: peak_rss_kb is read at the end of the window");
    }
    out.set(
        "peak_rss_kb",
        seen.rss_kb_at_cycle.unwrap_or_else(peak_rss_kb),
    );
    let grants = seen.grants_us();
    if !grants.is_empty() {
        let grants = sorted(&grants);
        out.set("grant_p50_us", quantile(&grants, 0.5));
        if run.trace {
            out.set("net.client.grant_p90_us", quantile(&grants, 0.90));
            out.set("net.client.grant_p99_us", quantile(&grants, 0.99));
            out.set("net.client.grant_ptop_us", top_percentile(&grants));
            out.set("net.client.grant_samples", grants.len() as f64);
        }
    }
    if !seen.readmit_us.is_empty() {
        out.set_median("readmit_p50_us", &seen.readmit_us);
    }
    if !run.trace {
        return;
    }
    let traced = seen.cycles_per_s(true, true);
    if !traced.is_empty() {
        out.set(
            "trace.overhead_ratio",
            fast_decile(&rates) / fast_decile(&traced),
        );
    }
    out.set(
        "net.client.hungry_call_us",
        tr.mean_ns("client.hungry_call") / 1e3,
    );
}

/// Checks and layer metrics every net workload takes from a stopped
/// server.
fn server_report(run: &Run, out: &mut Outcome, tr: &Tracer, stopped: &ServerRun) {
    let s = &stopped.stats;
    out.check(
        "no protocol error, slow-reader shed or heartbeat drop",
        s.protocol_errors == 0 && s.shed_slow == 0 && s.heartbeat_drops == 0,
        format!(
            "protocol_errors {} shed_slow {} heartbeat_drops {}",
            s.protocol_errors, s.shed_slow, s.heartbeat_drops
        ),
    );
    if !run.trace {
        return;
    }
    for (name, value) in [
        ("net.server.stat.accepted", s.accepted),
        ("net.server.stat.fresh", s.fresh),
        ("net.server.stat.resumed", s.resumed),
        ("net.server.stat.rejoined", s.rejoined),
        ("net.server.stat.shed_busy", s.shed_busy),
        ("net.server.stat.shed_slow", s.shed_slow),
        ("net.server.stat.heartbeat_drops", s.heartbeat_drops),
        ("net.server.stat.protocol_errors", s.protocol_errors),
        ("net.server.stat.handshake_timeouts", s.handshake_timeouts),
        ("net.server.stat.reaped", s.reaped),
    ] {
        out.set(name, value as f64);
    }
    out.set(
        "net.server.resumed_ratio",
        s.resumed as f64 / (s.resumed + s.rejoined).max(1) as f64,
    );
    out.set("net.server.trace_events", stopped.events.len() as f64);
    out.set("net.server.start_s", tr.mean_ns("net.server.start") / 1e9);
    out.set(
        "net.server.shutdown_s",
        tr.mean_ns("net.server.shutdown") / 1e9,
    );
    out.set("net.server.admit_us", tr.mean_ns("net.server.admit") / 1e3);
    out.set("net.server.bind_us", tr.mean_ns("net.server.bind") / 1e3);
}

/// Processes of `net-saturated`. The issue sized it at 256. With 128
/// requests in flight a connection, threads block and wake once in six
/// cycles, and what a wake-up costs is the host's to decide: ten runs
/// spread 10 to 16 % and twice over 25 %. With 512 in flight each wake-up
/// finds four times the frames, throughput is up by a half and, runs
/// alternating with the smaller ring, spread 3 and 8 %.
const SATURATED_N: usize = 1024;

/// A ring of processes that never think, against the packed kernel:
/// every cycle is frames, reactor dispatch, the backend hop and flushes.
pub fn saturated(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    let graph = topology::ring(SATURATED_N);
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed: run.seed },
        reactor_threads: 2,
        max_sessions: SATURATED_N,
        send_queue: 4096,
        ..ServerConfig::default()
    };
    let mut service = set_up(out, tr, &graph, run.seed, &cfg);
    // A tenth of a second holds 24 000 cycles and is short enough for
    // some windows to run between the host's bursts.
    let window = Duration::from_millis(100);
    let plan = Plan {
        think_us: (0, 0),
        cuts: None,
        seed: run.seed,
        trace: run.trace,
        warmup: WARMUP,
        window,
        windows: (run.window.as_millis() / window.as_millis()) as usize,
        // 1.5 M logged events: midway between two doublings of the log.
        rss_at_cycle: Some(750_000),
    };
    measure(run, out, tr, &mut service, &plan);
    waiting_for("server shutdown");
    let stopped = stop_service(service, tr);

    let mistakes = stopped.scale.as_ref().map(|s| s.mistakes);
    out.check(
        "the kernel saw no exclusion mistake",
        mistakes == Some(0),
        format!("{mistakes:?} mistakes"),
    );
    server_report(run, out, tr, &stopped);
    if run.trace {
        waiting_for("layer probes");
        let codec_ns = layers::wire(out, tr);
        layers::interactive_kernel(out, tr, SATURATED_N, run.seed);
        layers::serial_round_trip(out, tr, run.seed, codec_ns);
    }
}

const CHURN_N: usize = 8;

/// Eight paced processes on a ring over the threaded runtime, one of the
/// two connections cut and readmitted every second.
pub fn churn(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    let graph = topology::ring(CHURN_N);
    // No journal directory: a file commit is two fsyncs, which set the
    // grant time (12 to 60 ms against 0.15 to 0.4) and move every metric by a
    // fifth from run to run on this host. The traced run prices journals
    // in `journal.file_commit_us` and `runtime.journal.*`.
    let cfg = ServerConfig {
        max_sessions: CHURN_N,
        ..ServerConfig::default()
    };
    let mut service = set_up(out, tr, &graph, run.seed, &cfg);
    let plan = churn_plan(run);
    measure(run, out, tr, &mut service, &plan);
    waiting_for("server shutdown");
    let stopped = stop_service(service, tr);

    let horizon = stopped.events.last().map_or(Time(0), |e| e.time);
    let exclusion = ExclusionReport::analyze(&graph, &stopped.events, &|_| None, horizon);
    // A restarted process may resume a stale view of its forks, which the
    // audit repairs; as in the chaos harness, mistakes are judged once
    // ten audit periods have passed since the last restart.
    let last_restart = stopped.restarts.iter().map(|r| r.at_ms).max().unwrap_or(0);
    let stable_from = last_restart + 10 * RuntimeConfig::default().audit_ms;
    let late = exclusion.after(Time(stable_from));
    out.check(
        "no exclusion mistake once the last restart has settled",
        late == 0,
        format!(
            "{late} mistakes after {stable_from} ms, {} over {} ms",
            exclusion.total(),
            horizon.0
        ),
    );
    let readmitted = stopped.stats.resumed + stopped.stats.rejoined;
    out.check(
        "every cut process was readmitted as resumed or rejoined",
        stopped.stats.fresh == CHURN_N as u64 && readmitted == stopped.restarts.len() as u64,
        format!(
            "fresh {} resumed {} rejoined {} restarts {}",
            stopped.stats.fresh,
            stopped.stats.resumed,
            stopped.stats.rejoined,
            stopped.restarts.len()
        ),
    );
    server_report(run, out, tr, &stopped);
    if run.trace {
        waiting_for("layer probes");
        layers::runtime(run, out, tr, &plan, false);
        layers::runtime(run, out, tr, &plan, true);
        layers::journal_file(run, out, tr);
    }
}

/// The pacing of `net-churn`, shared with the runtime probe: a paced
/// second holds a steady 265 cycles, and one cut.
fn churn_plan(run: &Run) -> Plan {
    let second = Duration::from_secs(1);
    Plan {
        think_us: (10_000, 30_000),
        cuts: Some((second / 2, second)),
        seed: run.seed,
        trace: run.trace,
        warmup: WARMUP,
        window: second,
        windows: run.window.as_secs() as usize,
        rss_at_cycle: None,
    }
}
