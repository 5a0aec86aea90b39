//! Parallel multi-run campaigns: fan a seed × topology × fault-plan matrix
//! across worker threads and merge the per-run reports deterministically.
//!
//! Each job is an independent [`Scenario`] run — its own simulator, its own
//! RNG streams — so runs parallelize embarrassingly. Workers pull jobs from
//! a shared atomic cursor; results are deposited into per-job slots and
//! merged **in job order**, never completion order, so the merged report of
//! a parallel campaign is byte-identical to the serial one (enforced by the
//! golden-trace test suite).

use crate::report::RunReport;
use crate::scenario::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of campaign work: a labelled scenario. It runs Algorithm 1,
/// or the crash-recovery-hardened variant when the scenario
/// [`needs_recoverable`](Scenario::needs_recoverable).
#[derive(Clone, Debug)]
pub struct CampaignJob {
    /// Display label (topology/fault-plan identity; the seed is tracked
    /// separately).
    pub label: String,
    /// The scenario to run.
    pub scenario: Scenario,
}

/// One finished campaign run.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// The job's label.
    pub label: String,
    /// The seed the run used.
    pub seed: u64,
    /// The full per-run report.
    pub report: RunReport,
    /// Wall-clock time of this run (excluded from [`CampaignReport::merged`]).
    pub wall: Duration,
}

/// All results of a campaign, in job order.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-job results, in the order the jobs were added (not completion
    /// order).
    pub runs: Vec<CampaignRun>,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignReport {
    /// Deterministic merged digest: one line per run, in job order, from
    /// seed-pure quantities only (no wall-clock times). A parallel campaign
    /// over the same jobs produces the byte-identical string as a serial
    /// one.
    pub fn merged(&self) -> String {
        let mut out = String::new();
        let mut sessions = 0usize;
        let mut events = 0u64;
        let mut msgs = 0u64;
        let mut all_wait_free = true;
        for r in &self.runs {
            let progress = r.report.progress();
            let wait_free = progress.wait_free();
            all_wait_free &= wait_free;
            sessions += r.report.total_eat_sessions();
            events += r.report.events_processed;
            msgs += r.report.total_messages;
            out.push_str(&format!(
                "{} seed={} sessions={} events={} msgs={} dropped={} dup={} \
                 wait_free={} mistakes={} max_overtakes={} high_water={}",
                r.label,
                r.seed,
                r.report.total_eat_sessions(),
                r.report.events_processed,
                r.report.total_messages,
                r.report.messages_dropped,
                r.report.messages_duplicated,
                wait_free,
                r.report.exclusion().total(),
                r.report.fairness().max_overtakes(),
                r.report.max_channel_high_water,
            ));
            // Membership columns appear only for churned runs, so the
            // digests of fixed-population campaigns are byte-stable across
            // this feature.
            if !r.report.joins.is_empty() || !r.report.departures.is_empty() {
                let admitted = r
                    .report
                    .admissions()
                    .iter()
                    .filter(|a| a.first_eat.is_some())
                    .count();
                out.push_str(&format!(
                    " joins={} leaves={} admitted={}",
                    r.report.joins.len(),
                    r.report.departures.len(),
                    admitted,
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "TOTAL runs={} sessions={} events={} msgs={} wait_free={}\n",
            self.runs.len(),
            sessions,
            events,
            msgs,
            all_wait_free,
        ));
        out
    }

    /// Sum of simulator events processed across all runs.
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.report.events_processed).sum()
    }

    /// Sum of completed eat sessions across all runs.
    pub fn total_sessions(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.report.total_eat_sessions())
            .sum()
    }
}

/// A batch of scenario runs executed across `std::thread::scope` workers.
///
/// ```
/// use ekbd_harness::{Campaign, Scenario, Workload};
/// use ekbd_graph::topology;
/// use ekbd_sim::Time;
///
/// let base = Scenario::new(topology::ring(4))
///     .workload(Workload { sessions: 2, think: (1, 10), eat: (1, 5) })
///     .horizon(Time(5_000));
/// let report = Campaign::new().seeds("ring-4", &base, 0..4).run();
/// assert_eq!(report.runs.len(), 4);
/// assert!(report.merged().contains("TOTAL runs=4"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Adds one job.
    pub fn job(mut self, label: impl Into<String>, scenario: Scenario) -> Self {
        self.jobs.push(CampaignJob {
            label: label.into(),
            scenario,
        });
        self
    }

    /// Fans `base` across `seeds`: one job per seed, sharing `label`.
    /// Combine with repeated calls (different topologies or fault plans) to
    /// build a full seed × topology × fault-plan matrix.
    pub fn seeds(
        mut self,
        label: impl Into<String>,
        base: &Scenario,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Self {
        let label = label.into();
        for seed in seeds {
            self.jobs.push(CampaignJob {
                label: label.clone(),
                scenario: base.clone().seed(seed),
            });
        }
        self
    }

    /// Fans `base` across `seeds` with a *per-seed* churn plan: each job
    /// reseeds the scenario and re-derives its membership schedule from
    /// that seed (see [`Scenario::churn`]), so a churn-rate sweep explores
    /// a different join/leave interleaving per seed.
    pub fn churn_seeds(
        mut self,
        label: impl Into<String>,
        base: &Scenario,
        period: u64,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Self {
        let label = label.into();
        for seed in seeds {
            self.jobs.push(CampaignJob {
                label: label.clone(),
                scenario: base.clone().seed(seed).churn(period),
            });
        }
        self
    }

    /// Number of jobs queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job on one worker per available CPU (at most one per job).
    pub fn run(&self) -> CampaignReport {
        self.run_with_workers(default_workers())
    }

    /// Runs every job on the calling thread, in job order.
    pub fn run_serial(&self) -> CampaignReport {
        self.run_with_workers(1)
    }

    /// Runs every job across exactly `workers` threads (clamped to
    /// `[1, jobs]`). Results land in job order regardless of which worker
    /// finished first, so the merged report is worker-count-independent.
    pub fn run_with_workers(&self, workers: usize) -> CampaignReport {
        let started = Instant::now();
        let workers = workers.clamp(1, self.jobs.len().max(1));
        let slots: Vec<Mutex<Option<CampaignRun>>> =
            self.jobs.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = self.jobs.get(i) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let report = run_job(job);
                    *slots[i].lock().expect("campaign slot poisoned") = Some(CampaignRun {
                        label: job.label.clone(),
                        seed: job.scenario.seed,
                        report,
                        wall: t0.elapsed(),
                    });
                });
            }
        });
        let runs = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("campaign slot poisoned")
                    .expect("worker pool drained every job")
            })
            .collect();
        CampaignReport {
            runs,
            wall: started.elapsed(),
            workers,
        }
    }
}

fn run_job(job: &CampaignJob) -> RunReport {
    if job.scenario.needs_recoverable() {
        job.scenario.run_recoverable()
    } else {
        job.scenario.run_algorithm1()
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use ekbd_graph::{topology, ProcessId};
    use ekbd_sim::Time;

    fn base(n: usize) -> Scenario {
        Scenario::new(topology::ring(n))
            .workload(Workload {
                sessions: 2,
                think: (1, 10),
                eat: (1, 5),
            })
            .horizon(Time(5_000))
    }

    #[test]
    fn parallel_merged_report_matches_serial_byte_for_byte() {
        let campaign =
            Campaign::new()
                .seeds("ring-4", &base(4), 0..4)
                .seeds("ring-5", &base(5), 10..12);
        let serial = campaign.run_serial();
        let parallel = campaign.run_with_workers(4);
        assert_eq!(serial.runs.len(), 6);
        assert_eq!(serial.merged(), parallel.merged());
        assert_eq!(serial.workers, 1);
    }

    #[test]
    fn runs_stay_in_job_order() {
        let report = Campaign::new().seeds("r", &base(4), [7, 3, 5]).run();
        let seeds: Vec<u64> = report.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![7, 3, 5], "job order, not completion order");
    }

    #[test]
    fn recovery_plans_run_the_recoverable_variant() {
        let scenario = base(4)
            .perfect_oracle()
            .crash(ProcessId(1), Time(100))
            .recover(ProcessId(1), Time(800));
        assert!(scenario.needs_recoverable());
        let report = Campaign::new().job("rec", scenario).run_serial();
        assert_eq!(report.runs[0].report.incarnations[1], 1);
    }

    #[test]
    fn churned_campaigns_pick_recoverable_and_tag_the_digest() {
        let scenario = base(8).churn(500);
        assert!(scenario.needs_recoverable());
        let report = Campaign::new()
            .churn_seeds("churn", &base(8), 500, 0..2)
            .run_serial();
        assert_eq!(report.runs.len(), 2);
        let digest = report.merged();
        assert!(digest.contains("joins="), "churned digest: {digest}");
        // Different seeds re-derive different plans.
        assert_ne!(
            report.runs[0].report.joins, report.runs[1].report.joins,
            "per-seed churn plans should differ"
        );
        // Fixed-population digests keep the legacy column set.
        let plain = Campaign::new().seeds("plain", &base(4), 0..1).run_serial();
        assert!(!plain.merged().contains("joins="));
    }

    #[test]
    fn merged_digest_is_deterministic_across_repeat_runs() {
        let campaign = Campaign::new().seeds("ring-4", &base(4), 0..3);
        assert_eq!(campaign.run().merged(), campaign.run_serial().merged());
    }
}
