//! Load generator: a fleet of daemon clients driving hungry/eat churn
//! against a server, with a scripted connection-kill fault plan.
//!
//! Client `i` is one [`MuxClient`] connection fronting the block of
//! [`LoadPlan::multiplex`] processes starting at `i × multiplex` (a
//! block of one by default), and runs a fixed number of hungry →
//! granted → released sessions per process. A deterministic subset of
//! the fleet is killed mid-run (socket hard-close, no `Bye`) and must
//! reconnect, binding its block again; the report records the grant
//! latencies, every readmission (path and wall time), and the shedding
//! the fleet absorbed.

use crate::client::{ClientConfig, ClientError, MuxClient, MuxEvent};
use crate::conn::ServerAddr;
use crate::wire::AdmitPath;
use std::time::{Duration, Instant};

/// What the fleet should do.
#[derive(Clone, Debug)]
pub struct LoadPlan {
    /// Fleet size: connections, each binding a block of
    /// [`multiplex`](Self::multiplex) processes, so the served graph must
    /// have at least `clients × multiplex` processes.
    pub clients: usize,
    /// Hungry → granted → released cycles per process.
    pub sessions_per_client: usize,
    /// Think time between cycles, in milliseconds.
    pub think_ms: u64,
    /// Fraction of the fleet killed mid-run (`ceil(fraction × clients)`
    /// clients, chosen deterministically from `seed`).
    pub kill_fraction: f64,
    /// Seed for the kill choice and per-client backoff jitter.
    pub seed: u64,
    /// Per-client policy (the seed inside is overridden per client).
    pub client: ClientConfig,
    /// Per-wait deadline for a grant, in milliseconds. A client re-sends
    /// `Hungry` on expiry (a request can be lost to a crash) up to three
    /// times before recording an error. A granted process that is not
    /// released within it is an error too.
    pub grant_timeout_ms: u64,
    /// Dining processes per connection: client `i` is a [`MuxClient`]
    /// fronting the process block `[i·multiplex, (i+1)·multiplex)` over
    /// a single socket. The default, 1, is one process per connection.
    pub multiplex: usize,
}

impl Default for LoadPlan {
    fn default() -> Self {
        LoadPlan {
            clients: 4,
            sessions_per_client: 10,
            think_ms: 5,
            kill_fraction: 0.0,
            seed: 7,
            client: ClientConfig::default(),
            grant_timeout_ms: 2_000,
            multiplex: 1,
        }
    }
}

/// One readmission a killed client completed.
#[derive(Clone, Copy, Debug)]
pub struct Readmission {
    /// The readmitted dining process.
    pub process: u32,
    /// The admission path the server reported in its `Bound`.
    pub path: AdmitPath,
    /// Wall time from the kill to being readmitted, in milliseconds.
    pub ms: u64,
}

/// What the fleet experienced.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Latency of every completed cycle, milliseconds: client-side wall
    /// clock from its first `Hungry` to its `Released`, re-sent requests
    /// included.
    pub latencies_ms: Vec<u64>,
    /// Every readmission, in completion order.
    pub readmissions: Vec<Readmission>,
    /// Clients the plan killed.
    pub killed: usize,
    /// Killed clients that got readmitted.
    pub reconnected: usize,
    /// Busy refusals absorbed across the fleet's retry loops.
    pub busy_retries: u64,
    /// Cycles completed across the fleet.
    pub completed_sessions: usize,
    /// Cycles the plan asked for across the fleet.
    pub planned_sessions: usize,
    /// Per-client failures, for the caller's verdict.
    pub errors: Vec<String>,
}

/// Which clients the plan kills: exactly `ceil(fraction × clients)` of
/// them, rotated by the seed so the set is deterministic but not just a
/// prefix of the id space.
pub fn kill_set(clients: usize, fraction: f64, seed: u64) -> Vec<bool> {
    let k = ((fraction.clamp(0.0, 1.0) * clients as f64).ceil()) as usize;
    let rot = if clients == 0 {
        0
    } else {
        (seed as usize) % clients
    };
    (0..clients)
        .map(|i| (i + rot) % clients.max(1) < k)
        .collect()
}

#[derive(Default)]
struct ClientOutcome {
    latencies_ms: Vec<u64>,
    readmissions: Vec<Readmission>,
    killed: bool,
    busy_retries: u64,
    completed: usize,
    error: Option<String>,
}

/// Runs the whole plan against `addr`, one thread per client, and
/// aggregates the fleet's experience.
pub fn run_load(addr: &ServerAddr, plan: &LoadPlan) -> LoadReport {
    let kills = kill_set(plan.clients, plan.kill_fraction, plan.seed);
    let multiplex = plan.multiplex.max(1);
    let mut handles = Vec::with_capacity(plan.clients);
    for (i, &kill_me) in kills.iter().enumerate() {
        let addr = addr.clone();
        let plan = plan.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("ekbd-loadgen-{i}"))
                .spawn(move || run_connection(&addr, &plan, i, kill_me))
                .expect("spawn loadgen client thread"),
        );
    }
    let mut report = LoadReport {
        planned_sessions: plan.clients * multiplex * plan.sessions_per_client,
        ..LoadReport::default()
    };
    for h in handles {
        let outcome = match h.join() {
            Ok(o) => o,
            Err(_) => ClientOutcome {
                error: Some("client thread panicked".into()),
                ..ClientOutcome::default()
            },
        };
        report.latencies_ms.extend(outcome.latencies_ms);
        if outcome.killed {
            report.killed += 1;
        }
        if !outcome.readmissions.is_empty() {
            report.reconnected += 1;
        }
        report.readmissions.extend(outcome.readmissions);
        report.busy_retries += outcome.busy_retries;
        report.completed_sessions += outcome.completed;
        if let Some(e) = outcome.error {
            report.errors.push(e);
        }
    }
    report
}

/// Per-process cycle state inside a multiplexed client.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MuxState {
    Thinking,
    Hungry,
    Eating,
}

/// Drives one [`MuxClient`] fronting a block of `plan.multiplex` dining
/// processes: all cycles interleave over the single socket, demuxed by
/// the process tag on every event frame. The kill point hard-closes the
/// socket once half the block's cycles are done, which crashes *every*
/// process bound to it; one `reconnect` binds the block again, and each
/// process's readmission path is recorded.
fn run_connection(
    addr: &ServerAddr,
    plan: &LoadPlan,
    client_index: usize,
    kill_me: bool,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let k = plan.multiplex.max(1);
    let base = (client_index * k) as u32;
    let cfg = ClientConfig {
        seed: plan.seed ^ (u64::from(base).wrapping_mul(0x9E37_79B9)),
        ..plan.client.clone()
    };
    let mut client = match MuxClient::connect(addr, base, cfg) {
        Ok(c) => c,
        Err(e) => {
            outcome.error = Some(format!("client{client_index}: connect failed: {e}"));
            return outcome;
        }
    };
    for j in 1..k {
        if let Err(e) = client.bind(base + j as u32) {
            outcome.error = Some(format!(
                "client{client_index}: bind p{} failed: {e}",
                base + j as u32
            ));
            outcome.busy_retries += client.busy_retries;
            return outcome;
        }
    }

    struct Slot {
        state: MuxState,
        remaining: usize,
        ready_at: Instant,
        /// The cycle's first `Hungry`: its latency runs from here.
        asked_at: Instant,
        /// The latest `Hungry`, or the `Granted`: the wait in the
        /// current state runs from here.
        sent_at: Instant,
        resends: u32,
    }
    let now = Instant::now();
    let mut slots: Vec<Slot> = (0..k)
        .map(|_| Slot {
            state: MuxState::Thinking,
            remaining: plan.sessions_per_client,
            ready_at: now,
            asked_at: now,
            sent_at: now,
            resends: 0,
        })
        .collect();
    let total = k * plan.sessions_per_client;
    let kill_at = kill_me.then(|| (total / 2).max(1));
    let grant_timeout = Duration::from_millis(plan.grant_timeout_ms.max(1));
    // Short poll tick so newly-thought-out processes go hungry promptly
    // even while another process's grant is pending.
    let tick = grant_timeout.min(Duration::from_millis(25));

    loop {
        if kill_at == Some(outcome.completed) && !outcome.killed {
            client.kill();
            outcome.killed = true;
            let t0 = Instant::now();
            match client.reconnect() {
                Ok(paths) => {
                    let ms = t0.elapsed().as_millis() as u64;
                    for (process, path) in paths {
                        outcome.readmissions.push(Readmission { process, path, ms });
                    }
                    // Everything in flight died with the socket; restart
                    // the interrupted cycles from thinking.
                    let now = Instant::now();
                    for s in &mut slots {
                        s.state = MuxState::Thinking;
                        s.ready_at = now;
                        s.resends = 0;
                    }
                }
                Err(e) => {
                    outcome.error = Some(format!("client{client_index}: reconnect failed: {e}"));
                    outcome.busy_retries += client.busy_retries;
                    return outcome;
                }
            }
        }
        // Start the cycles whose think time is up, and police the waits:
        // a `Hungry` sent into a just-crashed incarnation is legitimately
        // lost and re-requesting is idempotent, but a process that is
        // never released, or starves through three resends, is an error.
        let now = Instant::now();
        for (j, s) in slots.iter_mut().enumerate() {
            let process = base + j as u32;
            let overdue = now.duration_since(s.sent_at) > grant_timeout;
            let failure = match s.state {
                MuxState::Thinking if s.remaining > 0 && now >= s.ready_at => {
                    s.state = MuxState::Hungry;
                    s.asked_at = now;
                    s.sent_at = now;
                    let sent = client.hungry(process);
                    sent.err().map(|e| format!("hungry p{process} failed: {e}"))
                }
                MuxState::Hungry if overdue && s.resends >= 3 => {
                    Some(format!("p{process} starved past {} resends", s.resends))
                }
                MuxState::Hungry if overdue => {
                    s.resends += 1;
                    s.sent_at = now;
                    let sent = client.hungry(process);
                    sent.err()
                        .map(|e| format!("re-hungry p{process} failed: {e}"))
                }
                MuxState::Eating if overdue => Some(format!("p{process} never released")),
                _ => None,
            };
            if let Some(failure) = failure {
                outcome.error = Some(format!("client{client_index}: {failure}"));
                outcome.busy_retries += client.busy_retries;
                return outcome;
            }
        }
        if slots.iter().all(|s| s.remaining == 0) {
            break;
        }
        match client.next_event(tick) {
            Ok(MuxEvent::Granted { process, .. }) => {
                let j = process.wrapping_sub(base) as usize;
                if let Some(s) = slots.get_mut(j) {
                    if s.state == MuxState::Hungry {
                        s.state = MuxState::Eating;
                        s.sent_at = Instant::now();
                    }
                }
            }
            Ok(MuxEvent::Released { process, .. }) => {
                let j = process.wrapping_sub(base) as usize;
                if let Some(s) = slots.get_mut(j) {
                    if s.state == MuxState::Eating {
                        s.state = MuxState::Thinking;
                        s.remaining -= 1;
                        s.resends = 0;
                        s.ready_at = Instant::now() + Duration::from_millis(plan.think_ms);
                        outcome
                            .latencies_ms
                            .push(s.asked_at.elapsed().as_millis() as u64);
                        outcome.completed += 1;
                    }
                }
            }
            // Overdue waits are policed at the top of the loop.
            Err(ClientError::Timeout) => {}
            Err(e) => {
                outcome.error = Some(format!("client{client_index}: event pump failed: {e}"));
                outcome.busy_retries += client.busy_retries;
                return outcome;
            }
        }
    }
    outcome.busy_retries += client.busy_retries;
    client.bye();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_set_is_exact_and_deterministic() {
        for clients in [1usize, 4, 7, 10] {
            for (fraction, want) in [(0.0, 0), (0.25, clients.div_ceil(4)), (1.0, clients)] {
                let set = kill_set(clients, fraction, 99);
                assert_eq!(
                    set.iter().filter(|&&k| k).count(),
                    want,
                    "clients={clients} fraction={fraction}"
                );
                assert_eq!(set, kill_set(clients, fraction, 99), "deterministic");
            }
        }
    }

    #[test]
    fn kill_set_rotates_with_the_seed() {
        let a = kill_set(8, 0.25, 0);
        let b = kill_set(8, 0.25, 3);
        assert_ne!(a, b, "different seeds pick different victims");
    }
}
