//! Probes of single layers, run at the end of a traced workload.
//!
//! Each probe calls one layer's public functions directly, with no other
//! layer in the way, so that a later change to that layer has a number
//! of its own. The server's inside is opaque here: its share of a round
//! trip is what is left after the wire and kernel probes are subtracted.

use crate::net::{drive_all, Plan, Table, TableEvent};
use crate::report::{cpu_seconds, median, Outcome};
use crate::trace::Tracer;
use crate::{waiting_for, Run};
use crossbeam_channel::Receiver;
use ekbd_dining::{
    DinerState, DiningAlgorithm, DiningInput, DiningObs, DiningProcess, ProcessId,
    RecoverableDining, RecoveryMsg,
};
use ekbd_graph::{coloring, topology, ConflictGraph};
use ekbd_journal::{
    BootPath, EdgeRecord, FileJournal, JournalRecord, JournalStore, MemJournal, ResyncPath,
};
use ekbd_metrics::SchedEvent;
use ekbd_net::wire::{decode_frame, encode_frame, Frame};
use ekbd_net::{BackendSpec, ClientConfig, DaemonServer, MuxClient, ServerAddr, ServerConfig};
use ekbd_runtime::{RuntimeConfig, ThreadedDining};
use ekbd_sim::{InteractiveScale, ScaleConfig};
use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` inside a span and returns how long it took, in nanoseconds.
fn timed(tr: &mut Tracer, name: &'static str, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    tr.span(name, 0, f);
    t.elapsed().as_nanos() as f64
}

// ---------------------------------------------------------------------
// core
// ---------------------------------------------------------------------

/// Hand-drives a pair of neighbours through alternating meals, every
/// message delivered at once, and returns the mean time of one
/// `DiningAlgorithm::handle` call.
fn pair_handle_ns<A: DiningAlgorithm>(
    tr: &mut Tracer,
    span: &'static str,
    make: impl Fn(&ConflictGraph, &[u32], ProcessId) -> A,
) -> f64 {
    const MEALS: u32 = 200_000;
    let g = topology::path(2);
    let colors = coloring::greedy(&g);
    let mut pair = [
        make(&g, &colors, ProcessId(0)),
        make(&g, &colors, ProcessId(1)),
    ];
    let nobody: BTreeSet<ProcessId> = BTreeSet::new();
    let mut inbox: VecDeque<(ProcessId, DiningInput<A::Msg>)> = VecDeque::new();
    let mut sends = Vec::new();
    let mut handled = 0u64;
    let mut settle = |pair: &mut [A; 2], to: ProcessId, input: DiningInput<A::Msg>| {
        inbox.push_back((to, input));
        while let Some((to, input)) = inbox.pop_front() {
            pair[to.index()].handle(input, &nobody, &mut sends);
            handled += 1;
            for (dest, msg) in sends.drain(..) {
                inbox.push_back((dest, DiningInput::Message { from: to, msg }));
            }
        }
    };
    let ns = timed(tr, span, || {
        for meal in 0..MEALS {
            let eater = ProcessId(meal % 2);
            settle(&mut pair, eater, DiningInput::Hungry);
            assert!(
                pair[eater.index()].state() == DinerState::Eating,
                "a hungry process with a live neighbour eats"
            );
            settle(&mut pair, eater, DiningInput::DoneEating);
        }
    });
    ns / handled as f64
}

/// `core.handle_ns`: Algorithm 1's state machine alone.
pub fn core_handle_ns(tr: &mut Tracer) -> f64 {
    pair_handle_ns(tr, "core.handle", DiningProcess::from_graph)
}

/// `core.recovery.handle_ns`: the same meals through the recovery layer.
pub fn recovery_handle_ns(tr: &mut Tracer) -> f64 {
    pair_handle_ns(tr, "core.recovery.handle", RecoverableDining::from_graph)
}

// ---------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------

/// The record a ring process commits: two conflict edges.
fn ring_record(seq: u64) -> JournalRecord {
    let edge = |peer| EdgeRecord {
        peer,
        peer_inc: 1,
        flags: 0b10_1101,
        synced: true,
        resume_pending: false,
        resync: ResyncPath::None,
    };
    JournalRecord {
        seq,
        tick: 40 * seq,
        incarnation: 1,
        phase: (seq % 3) as u8,
        doorway: seq.is_multiple_of(2),
        boot: BootPath::Genesis,
        edges: vec![edge(1), edge(7)],
    }
}

/// `journal.encode_ns`, `journal.decode_ns`, `journal.mem_commit_ns`.
pub fn journal_memory(out: &mut Outcome, tr: &mut Tracer) {
    const RECORDS: u64 = 200_000;
    let records: Vec<JournalRecord> = (1..=RECORDS).map(ring_record).collect();
    let mut encoded = Vec::with_capacity(records.len());
    let ns = timed(tr, "journal.encode", || {
        for r in &records {
            encoded.push(black_box(r).encode());
        }
    });
    out.set("journal.encode_ns", ns / RECORDS as f64);
    let ns = timed(tr, "journal.decode", || {
        for bytes in &encoded {
            black_box(JournalRecord::decode(black_box(bytes)).expect("own encoding decodes"));
        }
    });
    out.set("journal.decode_ns", ns / RECORDS as f64);
    let mut store = MemJournal::new();
    let ns = timed(tr, "journal.mem_commit", || {
        for bytes in &encoded {
            store.commit(bytes);
        }
    });
    out.check(
        "the memory journal took every commit",
        store.commit_seq() == RECORDS,
        format!("{} commits", store.commit_seq()),
    );
    out.set("journal.mem_commit_ns", ns / RECORDS as f64);
}

/// `journal.file_commit_us`: the commit `net-churn` pays on every state
/// transition of every process.
pub fn journal_file(run: &Run, out: &mut Outcome, tr: &mut Tracer) {
    const RECORDS: u64 = 2_000;
    let mut store = FileJournal::new(run.scratch.join("probe.ekj"));
    let encoded: Vec<Vec<u8>> = (1..=RECORDS).map(|s| ring_record(s).encode()).collect();
    let ns = timed(tr, "journal.file_commit", || {
        for bytes in &encoded {
            store.commit(bytes);
        }
    });
    out.check(
        "the file journal reads back its last commit",
        store.load().as_ref() == encoded.last(),
        format!("{} commits", store.commit_seq()),
    );
    out.set("journal.file_commit_us", ns / RECORDS as f64 / 1e3);
}

// ---------------------------------------------------------------------
// net.wire
// ---------------------------------------------------------------------

/// `net.wire.*` over the three frames of a cycle. Returns the codec time
/// of one request and its grant: two encodes and two decodes.
pub fn wire(out: &mut Outcome, tr: &mut Tracer) -> f64 {
    const ROUNDS: u32 = 200_000;
    let frames = [
        Frame::Hungry { process: 201 },
        Frame::Granted {
            process: 201,
            at_ms: 12_345,
        },
        Frame::Released {
            process: 201,
            at_ms: 12_346,
        },
    ];
    let count = f64::from(ROUNDS) * frames.len() as f64;
    let ns = timed(tr, "net.wire.encode", || {
        for _ in 0..ROUNDS {
            for f in &frames {
                black_box(encode_frame(black_box(f)));
            }
        }
    });
    let encode_ns = ns / count;
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let ns = timed(tr, "net.wire.decode", || {
        for _ in 0..ROUNDS {
            for bytes in &encoded {
                black_box(decode_frame(black_box(bytes)).expect("own encoding decodes"));
            }
        }
    });
    let decode_ns = ns / count;
    out.set("net.wire.encode_ns", encode_ns);
    out.set("net.wire.decode_ns", decode_ns);
    out.set(
        "net.wire.bytes_per_cycle",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
    );
    2.0 * (encode_ns + decode_ns)
}

// ---------------------------------------------------------------------
// sim.packed, interactive
// ---------------------------------------------------------------------

/// Feeds the interactive kernel on ring-`n` rounds of `batch` requests,
/// each round run to quiescence as the server's scale backend does.
/// Returns nanoseconds and kernel events per cycle.
fn interactive_cycle(tr: &mut Tracer, n: usize, batch: u32, rounds: u32, seed: u64) -> (f64, f64) {
    let g = topology::ring(n);
    let colors = coloring::greedy(&g);
    let mut kernel = InteractiveScale::new(&g, &colors, ScaleConfig::default().seed(seed));
    let mut obs = Vec::new();
    let mut eaten = 0u64;
    let ns = timed(tr, "sim.packed.interactive", || {
        for _ in 0..rounds {
            for p in 0..batch {
                kernel.inject_hungry(p);
            }
            while kernel.has_pending() {
                kernel.step(1 << 16, &mut obs);
            }
            eaten += obs.iter().filter(|o| o.started).count() as u64;
            obs.clear();
        }
    });
    let cycles = u64::from(batch) * u64::from(rounds);
    assert_eq!(eaten, cycles, "every injected request is granted");
    let report = kernel.finish();
    assert_eq!(report.mistakes, 0, "the interactive kernel keeps exclusion");
    (ns / cycles as f64, report.events as f64 / cycles as f64)
}

/// `sim.packed.interactive_*`: the kernel's share of a `net-saturated`
/// cycle, on the same ring of `n`.
pub fn interactive_kernel(out: &mut Outcome, tr: &mut Tracer, n: usize, seed: u64) {
    let (ns, events) = interactive_cycle(tr, n, n as u32, 500, seed);
    out.set("sim.packed.interactive_cycle_ns", ns);
    out.set("sim.packed.interactive_events_per_cycle", events);
}

// ---------------------------------------------------------------------
// net.server, one request in flight
// ---------------------------------------------------------------------

/// `net.server.rtt_serial_p50_us` and `net.server.rtt_residual_us`: one
/// process with one request in flight against the scale backend on
/// ring-8, then the same requests straight into the kernel. What is left
/// after the codec and the kernel is reactor, thread hops and flushes.
pub fn serial_round_trip(out: &mut Outcome, tr: &mut Tracer, seed: u64, codec_ns: f64) {
    waiting_for("serial round trips");
    let cfg = ServerConfig {
        backend: BackendSpec::Scale { seed },
        ..ServerConfig::default()
    };
    let server = DaemonServer::start(
        topology::ring(8),
        &ServerAddr::Tcp("127.0.0.1:0".into()),
        cfg,
    )
    .expect("start the server on loopback");
    let client_cfg = ClientConfig {
        read_timeout_ms: 1,
        ..ClientConfig::default()
    };
    let client =
        MuxClient::connect(server.local_addr(), 0, client_cfg).expect("connect and be admitted");
    let plan = Plan {
        think_us: (0, 0),
        cuts: None,
        seed,
        trace: false,
        warmup: Duration::from_millis(200),
        window: Duration::from_secs(1),
        windows: 2,
        rss_at_cycle: None,
    };
    let mut tables = [client];
    let seen = drive_all(out, tr, &mut tables, &plan);
    let [client] = tables;
    client.bye();
    server.shutdown();

    let rtt_us = median(&seen.grants_us());
    let (kernel_ns, _) = interactive_cycle(tr, 8, 1, 100_000, seed);
    out.set("net.server.rtt_serial_p50_us", rtt_us);
    out.set(
        "net.server.rtt_residual_us",
        rtt_us - (codec_ns + kernel_ns) / 1e3,
    );
}

// ---------------------------------------------------------------------
// runtime, no sockets
// ---------------------------------------------------------------------

/// Half of the threaded runtime's ring, driven through its own tap.
struct RuntimeTable<'a> {
    sys: &'a ThreadedDining<RecoveryMsg>,
    tap: Receiver<SchedEvent>,
    first: u32,
    len: u32,
    recover_us: Vec<f64>,
}

impl Table for RuntimeTable<'_> {
    fn hungry(&mut self, process: u32) -> Result<(), String> {
        self.sys.make_hungry(ProcessId(process));
        Ok(())
    }

    fn next_event(&mut self, timeout: Duration) -> Result<Option<TableEvent>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(e) = self.tap.recv_timeout(left) else {
                return Ok(None);
            };
            let p = e.process.0;
            if p < self.first || p >= self.first + self.len {
                continue;
            }
            match e.obs {
                DiningObs::StartedEating => return Ok(Some(TableEvent::Granted(p))),
                DiningObs::StoppedEating => return Ok(Some(TableEvent::Released(p))),
                _ => {}
            }
        }
    }

    /// What the server does when a connection dies and comes back:
    /// `crash(p)` for the block, then `recover(p)` one by one, each
    /// waited for through the restart notices.
    fn cut_and_readmit(&mut self) -> Result<u64, String> {
        let block = self.first..self.first + self.len;
        for p in block.clone() {
            self.sys.crash(ProcessId(p));
        }
        for p in block {
            let restarts_of = |sys: &ThreadedDining<RecoveryMsg>| {
                sys.restart_paths()
                    .iter()
                    .filter(|n| n.process == ProcessId(p))
                    .count()
            };
            let before = restarts_of(self.sys);
            let t = Instant::now();
            self.sys.recover(ProcessId(p));
            while restarts_of(self.sys) == before {
                if t.elapsed() > Duration::from_secs(3) {
                    return Err(format!("p{p} did not restart within 3 s"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            self.recover_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(0)
    }

    fn processes(&self) -> Vec<u32> {
        (self.first..self.first + self.len).collect()
    }
}

/// `runtime.*`: `net-churn`'s ring, pacing and cuts on the threaded
/// runtime with no server and no sockets; and `runtime.journal.*`, the
/// same with a file journal per process, which `net-churn` leaves out.
pub fn runtime(run: &Run, out: &mut Outcome, tr: &mut Tracer, plan: &Plan, journaled: bool) {
    waiting_for("runtime probe");
    let mut cfg = RuntimeConfig::default();
    if journaled {
        let journal_dir = run.scratch.join("journal-runtime");
        std::fs::create_dir_all(&journal_dir).expect("create the journal directory");
        cfg.journal_dir = Some(journal_dir);
    }
    let t = Instant::now();
    let sys = tr.span("runtime.spawn", u64::from(journaled), || {
        ThreadedDining::spawn_recoverable(topology::ring(8), cfg)
    });
    let spawn_s = t.elapsed().as_secs_f64();

    let mut tables: Vec<RuntimeTable> = [0, 4]
        .into_iter()
        .map(|first| RuntimeTable {
            sys: &sys,
            tap: sys.tap_events(),
            first,
            len: 4,
            recover_us: Vec::new(),
        })
        .collect();
    let plan = Plan {
        trace: false,
        warmup: Duration::from_millis(500),
        windows: 3,
        ..plan.clone()
    };
    let seen = drive_all(out, tr, &mut tables, &plan);
    let recover_us: Vec<f64> = tables.into_iter().flat_map(|t| t.recover_us).collect();
    let grant_p50_us = median(&seen.grants_us());
    let cpu_us_per_cycle = seen.cpu_us_per_cycle(false);
    if journaled {
        out.set("runtime.journal.grant_p50_us", grant_p50_us);
        out.set("runtime.journal.cpu_us_per_cycle", cpu_us_per_cycle);
        out.set_median("runtime.journal.recover_p50_us", &recover_us);
    } else {
        out.set("runtime.spawn_s", spawn_s);
        out.set("runtime.grant_p50_us", grant_p50_us);
        out.set("runtime.cpu_us_per_cycle", cpu_us_per_cycle);
        out.set_median("runtime.recover_p50_us", &recover_us);
        // Nobody is hungry now: what heartbeats, audits and timers cost.
        let idle = Duration::from_secs(1);
        let cpu0 = cpu_seconds();
        std::thread::sleep(idle);
        out.set(
            "runtime.idle_cpu_ratio",
            (cpu_seconds() - cpu0) / idle.as_secs_f64(),
        );
    }
    sys.shutdown_complete(Duration::ZERO);
}
