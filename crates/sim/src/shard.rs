//! Multi-threaded driver for the packed kernel: one worker per shard,
//! conservative time-window barriers, deterministic by construction.
//!
//! # Protocol
//!
//! Every message in the packed kernel takes at least one tick, so a shard
//! that has processed every event at tick `t` cannot receive anything new
//! *for* tick `t` — the lookahead window is one tick. The drive loop is
//! therefore lock-step per populated tick:
//!
//! 1. each worker processes its local events at tick `t`, appending
//!    cross-shard events (with their delivery ticks) to per-destination
//!    outboxes — the "batched event horizon" exchange;
//! 2. **barrier A** — all outboxes complete;
//! 3. each worker checks the sessions it started at `t` against their
//!    neighbours' shared `since` words, which no shard writes until the
//!    next tick (see [`packed`](crate::packed)), drains the inboxes
//!    addressed to it into its timer wheel and publishes the earliest tick
//!    it now has scheduled;
//! 4. **barrier B** — all published; every worker independently computes
//!    the same global minimum and jumps there (empty ticks are skipped
//!    entirely, so quiescing runs cost no idle barriers).
//!
//! # Why the result is shard-count invariant
//!
//! Each event is processed by the one shard owning its target, at the same
//! tick, in the same canonical intra-tick order (packed words sort by
//! `(to, kind, slot)` regardless of which shard produced them), with
//! delays that are stateless hashes of per-channel history. By induction
//! over populated ticks, the global state sequence — and hence the merged
//! report — is identical for every shard count, and trivially identical
//! across reruns. The exclusion check reads only that state, at each
//! tick's end, so its count is invariant too.
//! [`ScaleRunReport::fingerprint`] is the gate.

use crate::packed::PackedKernel;
pub use crate::packed::{EatExcerpt, ScaleConfig, ScaleRunReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Runs the kernel to quiescence (or its horizon) with one OS thread per
/// shard, returning the merged report. With a single shard no threads are
/// spawned. The result is bit-identical to
/// [`PackedKernel::run_sequential`] on the same kernel.
pub fn run_sharded(kernel: PackedKernel) -> ScaleRunReport {
    let started = std::time::Instant::now();
    let k = kernel.shards.len();
    if k == 1 {
        let mut report = kernel.run_sequential();
        report.wall_nanos = started.elapsed().as_nanos().max(1);
        return report;
    }
    let cfg = kernel.config.clone();
    let horizon = cfg.horizon;
    let mut kernel = kernel;
    let owner = std::mem::take(&mut kernel.owner);

    // mailboxes[src][dst]: events src produced for dst in the current
    // window. Only src writes before barrier A; only dst drains after it,
    // so every lock is uncontended — the Mutex exists to satisfy the
    // compiler's aliasing rules, not to arbitrate.
    type Mailbox = Mutex<Vec<(u64, u64)>>;
    let mailboxes: Vec<Vec<Mailbox>> = (0..k)
        .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    // next_at[s]: earliest pending tick in shard s, published in step 3.
    let next_at: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(k);

    let shard_states: Vec<_> = std::mem::take(&mut kernel.shards);
    let finished: Vec<Mutex<Option<crate::packed::ShardHandle>>> =
        (0..k).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for (sid, mut shard) in shard_states.into_iter().enumerate() {
            let cfg = &cfg;
            let owner = &owner;
            let mailboxes = &mailboxes;
            let next_at = &next_at;
            let barrier = &barrier;
            let finished = &finished;
            scope.spawn(move || {
                let mut out: Vec<Vec<(u64, u64)>> = (0..k).map(|_| Vec::new()).collect();
                let mut now = 0u64;
                // Prime the consensus with the pre-scheduled first hungers.
                next_at[sid].store(shard.next_event_after(0), Ordering::Relaxed);
                barrier.wait();
                loop {
                    let next = (0..k)
                        .map(|s| next_at[s].load(Ordering::Relaxed))
                        .min()
                        .expect("at least one shard");
                    if next == u64::MAX || next > horizon {
                        break;
                    }
                    now = next;
                    shard.process_tick(cfg, owner, now, &mut out);
                    for (dst, batch) in out.iter_mut().enumerate() {
                        if !batch.is_empty() {
                            mailboxes[sid][dst]
                                .lock()
                                .expect("mailbox lock")
                                .append(batch);
                        }
                    }
                    // A: all outboxes complete. No shard writes process state
                    // until B, so the check reads each `since` word as `now`
                    // left it.
                    barrier.wait();
                    shard.check_starts(now);
                    for row in mailboxes.iter() {
                        let mut inbox = row[sid].lock().expect("mailbox lock");
                        shard.accept(now, &mut inbox);
                    }
                    next_at[sid].store(shard.next_event_after(now), Ordering::Relaxed);
                    barrier.wait(); // B: all minima published
                }
                *finished[sid].lock().expect("result lock") = Some(shard.into_handle(now));
            });
        }
    });

    let shards = finished
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("worker finished")
        })
        .collect::<Vec<_>>();
    kernel.owner = owner;
    let final_tick = shards.iter().map(|h| h.final_tick).max().unwrap_or(0);
    kernel.shards = shards.into_iter().map(|h| h.state).collect();
    kernel.into_report(final_tick, started.elapsed().as_nanos().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ekbd_graph::partition::greedy_edge_cut;
    use ekbd_graph::{coloring, random, topology, ConflictGraph};

    fn kernel(g: &ConflictGraph, shards: usize, seed: u64) -> PackedKernel {
        let colors: Vec<u32> = coloring::greedy(g);
        let part = greedy_edge_cut(g, shards);
        PackedKernel::new(g, &colors, &part, ScaleConfig::default().seed(seed))
    }

    #[test]
    fn sequential_matches_threaded_on_ring() {
        let g = topology::ring(24);
        let seq = kernel(&g, 3, 7).run_sequential();
        let thr = run_sharded(kernel(&g, 3, 7));
        assert_eq!(seq.fingerprint(), thr.fingerprint());
        assert_eq!(seq.eats, thr.eats);
    }

    #[test]
    fn fingerprint_is_shard_count_invariant() {
        let g = random::connected_gnp(60, 0.08, 3);
        let one = run_sharded(kernel(&g, 1, 5));
        assert!(
            one.verdict(),
            "fault-free run must pass: {}",
            one.fingerprint()
        );
        for shards in [2, 3, 4, 8] {
            let many = run_sharded(kernel(&g, shards, 5));
            assert_eq!(
                one.fingerprint(),
                many.fingerprint(),
                "shards={shards} diverged"
            );
            assert_eq!(one.eats, many.eats);
        }
    }

    #[test]
    fn reruns_are_byte_identical() {
        let g = random::powerlaw(80, 3, 11);
        let a = run_sharded(kernel(&g, 4, 9));
        let b = run_sharded(kernel(&g, 4, 9));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.excerpts, b.excerpts);
    }

    #[test]
    fn every_process_completes_its_sessions() {
        let g = topology::grid(6, 5);
        let r = run_sharded(kernel(&g, 2, 2));
        assert!(r.verdict(), "{}", r.fingerprint());
        assert_eq!(r.starving, 0);
        assert!(r.eats.iter().all(|&e| e == ScaleConfig::default().sessions));
        assert_eq!(
            r.latency.count(),
            r.eats.iter().map(|&e| e as u64).sum::<u64>()
        );
        assert!(r.mistakes == 0);
        assert!(r.events > 0 && r.messages > 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let g = topology::ring(16);
        let a = run_sharded(kernel(&g, 2, 1));
        let b = run_sharded(kernel(&g, 2, 2));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
