//! A std-only scoped-thread worker pool for batch derivation.
//!
//! Per-site, per-class model derivations are independent (the paper's
//! pipeline touches one local site at a time), so a batch of them is
//! embarrassingly parallel. [`run_jobs`] fans indexed jobs out to the
//! calling thread plus scoped worker threads — each worker owns a deque
//! seeded round-robin and steals from the back of its neighbours' when its
//! own runs dry — and returns the results **in job order**, so callers
//! observe output independent of the worker count or interleaving.
//! Determinism therefore only requires that each job's *inputs* (seeds,
//! configs) not depend on scheduling; the [`crate::derive::derive_all`]
//! layer guarantees that by splitting per-job RNG streams from the root
//! seed with stable keys.
//!
//! Worker counts default to [`std::thread::available_parallelism`] and are
//! clamped to the job count; `Some(1)` degenerates to running every job on
//! the calling thread, which is the reference serial order.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the pool did, for instrumentation.
///
/// `workers`, `steals` and the queue depths are **scheduling-dependent**:
/// when recorded as telemetry they must live under the `pool.sched.` metric
/// prefix (see [`mdbs_obs::telemetry::SCHEDULING_METRIC_PREFIXES`]) so that
/// determinism comparisons strip them. `jobs_completed` is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Workers that ran jobs: the calling thread (worker 0) plus the
    /// `workers - 1` threads spawned beside it.
    pub workers: usize,
    /// Jobs executed (always the full job count — the pool never drops).
    pub jobs_completed: usize,
    /// Cross-worker steals observed.
    pub steals: u64,
    /// Largest initial per-worker queue depth.
    pub max_queue_depth: usize,
}

/// Resolves a requested worker count: `None` → the machine's available
/// parallelism (1 when unknown); any request is clamped to `1..=jobs`
/// (zero jobs still yields one notional worker).
pub fn effective_workers(requested: Option<usize>, jobs: usize) -> usize {
    requested
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, jobs.max(1))
}

/// Runs every job on a pool of `workers` workers and returns the results in
/// job order, plus a [`PoolReport`]. The calling thread is worker 0 and
/// only `workers - 1` scoped threads are spawned, so a one-job batch runs
/// inline.
///
/// `f` receives the job's index and the job itself; it must not panic (a
/// panicking job propagates out of `run_jobs` once the scope unwinds).
///
/// `F: Fn + Sync` keeps every order-sensitive fold (ledger, registry,
/// flight recorder, maintenance: all `&mut self`) on the calling thread,
/// which folds the job-ordered results serially. A `Fn` closure cannot
/// borrow what it captures mutably, so a worker cannot call one:
///
/// ```compile_fail,E0596
/// use mdbs_core::{pool, CorrectionConfig, CorrectionLedger};
///
/// let mut ledger = CorrectionLedger::new(CorrectionConfig::default());
/// let ledger = &mut ledger;
/// let costs = vec![1.0_f64, 2.0, 3.0];
/// pool::run_jobs(costs, 2, |_, c| ledger.observe("oracle", "S1", c, c));
/// ```
// lint:allow(no-raw-threads): this file IS the sanctioned thread pool; everything else fans out through it
#[allow(clippy::disallowed_methods)]
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> (Vec<R>, PoolReport)
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let total = jobs.len();
    let workers = workers.clamp(1, total.max(1));

    // Deal jobs round-robin into per-worker deques.
    let queues: Vec<Mutex<VecDeque<(usize, J)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        queues[index % workers]
            .lock()
            .expect("queue lock")
            .push_back((index, job));
    }
    let max_queue_depth = queues
        .iter()
        .map(|q| q.lock().expect("queue lock").len())
        .max()
        .unwrap_or(0);

    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    // One worker's loop: own work first (front), then steal from a
    // neighbour's back; returns once every deque is empty.
    let work = |me: usize| loop {
        let mut next = queues[me].lock().expect("queue lock").pop_front();
        if next.is_none() {
            for other in (0..workers).filter(|&w| w != me) {
                let stolen = queues[other].lock().expect("queue lock").pop_back();
                if stolen.is_some() {
                    steals.fetch_add(1, Ordering::Relaxed);
                    next = stolen;
                    break;
                }
            }
        }
        let Some((index, job)) = next else { return };
        *slots[index].lock().expect("result slot") = Some(f(index, job));
    };

    // The calling thread is worker 0, so a one-worker batch spawns nothing.
    std::thread::scope(|scope| {
        let work = &work;
        for me in 1..workers {
            scope.spawn(move || work(me));
        }
        work(0);
    });

    let results: Vec<R> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every job produces a result")
        })
        .collect();
    let report = PoolReport {
        workers,
        jobs_completed: total,
        steals: steals.into_inner(),
        max_queue_depth,
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_regardless_of_workers() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let jobs: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8] {
            // Spawned workers hold their first job until the caller has run
            // one, so the caller's own front job cannot be stolen first.
            let caller_ran = AtomicBool::new(false);
            let (results, report) = run_jobs(jobs.clone(), workers, |_, j| {
                let me = std::thread::current().id();
                if me == caller {
                    caller_ran.store(true, Ordering::SeqCst);
                } else {
                    while !caller_ran.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                (j * j, me)
            });
            let (squares, ran_on): (Vec<u64>, Vec<_>) = results.into_iter().unzip();
            assert_eq!(squares, expected, "workers={workers}");
            assert_eq!(report.jobs_completed, 40);
            assert_eq!(report.workers, workers);
            // At most `workers` threads ran jobs, and the caller was one.
            let mut distinct = Vec::new();
            for id in ran_on {
                if !distinct.contains(&id) {
                    distinct.push(id);
                }
            }
            assert!(distinct.len() <= workers, "workers={workers}");
            assert!(distinct.contains(&caller), "workers={workers}");
        }
    }

    #[test]
    fn one_job_batch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 8] {
            let (ran_on, report) = run_jobs(vec![()], workers, |_, ()| std::thread::current().id());
            assert_eq!(ran_on, vec![caller], "workers={workers}");
            assert_eq!(report.workers, 1, "nothing is spawned beside the caller");
        }
    }

    #[test]
    fn index_argument_matches_job_position() {
        let jobs = vec!["a", "b", "c"];
        let (results, _) = run_jobs(jobs, 2, |i, j| format!("{i}:{j}"));
        assert_eq!(results, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let (results, report) = run_jobs(vec![1, 2], 8, |_, j| j + 1);
        assert_eq!(results, vec![2, 3]);
        assert_eq!(report.workers, 2, "workers clamp to the job count");
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let (results, report) = run_jobs(Vec::<u8>::new(), 4, |_, j| j);
        assert!(results.is_empty());
        assert_eq!(report.jobs_completed, 0);
    }

    #[test]
    fn queue_depth_reflects_round_robin_deal() {
        let (_, report) = run_jobs((0..10).collect::<Vec<u32>>(), 4, |_, j| j);
        // ceil(10 / 4) = 3 jobs on the fullest queue.
        assert_eq!(report.max_queue_depth, 3);
    }

    #[test]
    fn effective_workers_clamps_and_defaults() {
        assert_eq!(effective_workers(Some(4), 10), 4);
        assert_eq!(effective_workers(Some(0), 10), 1);
        assert_eq!(effective_workers(Some(99), 3), 3);
        assert_eq!(effective_workers(Some(2), 0), 1);
        assert!(effective_workers(None, 64) >= 1);
    }
}
