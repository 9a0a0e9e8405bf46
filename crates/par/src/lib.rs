//! # wiser-par
//!
//! A minimal bounded worker pool for the OptiWISE pipeline. The build
//! environment is hermetic (no crates.io access), so this is a std-only
//! stand-in for `rayon`-style fan-out, providing exactly the two shapes the
//! pipeline needs:
//!
//! * [`WorkerPool`] — a fixed number of worker threads consuming `'static`
//!   jobs from a queue. Panics inside jobs are caught and surfaced by
//!   [`WorkerPool::finish`]; dropping the pool drains the queue and joins
//!   every worker.
//! * [`par_map`] — a scoped, *ordered* parallel map over borrowed data:
//!   results come back in input order regardless of which worker finished
//!   first, which is what makes the pipeline's merged output deterministic
//!   under any `--jobs` setting.
//!
//! Neither shape knows about cancellation. A stopped run is the
//! [`CancelToken`]'s business: the simulator, sampler and DBI engine poll it
//! at instruction boundaries, and a fan-out that must not start new work
//! once it fires checks [`CancelToken::cause`] at the top of each task.

#![warn(missing_docs)]

mod cancel;

pub use cancel::{CancelCause, CancelToken};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// A failure inside a pool: one or more tasks panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolError {
    /// Number of tasks that panicked.
    pub panics: usize,
    /// Payload of the first panic, stringified.
    pub first: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker task(s) panicked; first: {}",
            self.panics, self.first
        )
    }
}

impl std::error::Error for PoolError {}

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded pool of worker threads consuming queued jobs.
///
/// Jobs run in submission order across `threads` workers. A job that panics
/// does not kill its worker: the panic is recorded and reported by
/// [`WorkerPool::finish`]. Dropping the pool without calling `finish` still
/// drains the queue (every submitted job runs) and joins all workers, but
/// swallows recorded panics.
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    panics: Arc<Mutex<Vec<String>>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let panics = Arc::clone(&panics);
                thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeuing, never
                    // while running the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(poisoned) => poisoned.into_inner().recv(),
                    };
                    let Ok(job) = job else {
                        break; // queue closed and drained
                    };
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                        let msg = panic_message(payload);
                        match panics.lock() {
                            Ok(mut p) => p.push(msg),
                            Err(poisoned) => poisoned.into_inner().push(msg),
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            panics,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job to the queue.
    ///
    /// # Panics
    ///
    /// Panics if called after [`WorkerPool::finish`] consumed the sender
    /// (impossible through the public API, which takes `self` by value).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool accepts jobs until finished")
            .send(Box::new(job))
            .expect("workers outlive the queue");
    }

    /// Closes the queue, runs every remaining job, joins all workers and
    /// reports task panics.
    ///
    /// # Errors
    ///
    /// Returns a [`PoolError`] if any submitted job panicked.
    pub fn finish(mut self) -> Result<(), PoolError> {
        self.join_all();
        let panics = match self.panics.lock() {
            Ok(p) => p.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        match panics.first() {
            None => Ok(()),
            Some(first) => Err(PoolError {
                panics: panics.len(),
                first: first.clone(),
            }),
        }
    }

    fn join_all(&mut self) {
        drop(self.tx.take()); // close the queue: workers exit once drained
        for handle in self.workers.drain(..) {
            // Worker bodies catch job panics, so join only fails if the
            // loop itself panicked — nothing useful to do beyond moving on.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning the
/// results **in input order** — the deterministic-merge primitive used for
/// per-module analysis shards.
///
/// With `threads <= 1` (or a single item) this degrades to a plain
/// sequential map on the calling thread, with identical results and panic
/// semantics.
///
/// # Errors
///
/// Returns a [`PoolError`] if `f` panicked for any item; surviving results
/// are discarded.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);

    let worker = |_worker_id: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("each index is dispatched exactly once");
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r),
            Err(payload) => panics
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(panic_message(payload)),
        }
    };

    if threads == 1 {
        worker(0);
    } else {
        thread::scope(|s| {
            for w in 1..threads {
                s.spawn(move || worker(w));
            }
            worker(0);
        });
    }

    let panics = panics.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(first) = panics.first() {
        return Err(PoolError {
            panics: panics.len(),
            first: first.clone(),
        });
    }
    Ok(results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every index produced a result")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 4, 9] {
            let items: Vec<u64> = (0..100).collect();
            let out = par_map(threads, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            })
            .unwrap();
            let expected: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_panic_surfaces_as_error() {
        let err = par_map(4, vec![1, 2, 3, 4, 5], |_, x| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x
        })
        .unwrap_err();
        assert!(err.panics >= 1);
        assert!(err.first.contains("boom"), "{err}");
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn par_map_sequential_panic_also_errors() {
        let err = par_map(1, vec![1], |_, _| -> u32 { panic!("solo") }).unwrap_err();
        assert_eq!(err.panics, 1);
        assert!(err.first.contains("solo"));
    }

    #[test]
    fn par_map_handles_empty_and_excess_threads() {
        let out: Vec<u32> = par_map(8, Vec::<u32>::new(), |_, x| x).unwrap();
        assert!(out.is_empty());
        let out = par_map(64, vec![7u32], |_, x| x + 1).unwrap();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn pool_runs_all_jobs_and_finishes_clean() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50u64 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.finish().unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), (0..50).sum::<u64>());
    }

    #[test]
    fn pool_drains_queue_on_drop() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..40 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No finish(): Drop must still run every queued job.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn pool_reports_task_panic_as_error() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..10 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                if i == 4 {
                    panic!("task {i} failed");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let err = pool.finish().unwrap_err();
        assert_eq!(err.panics, 1);
        assert!(err.first.contains("task 4 failed"), "{err}");
        // A panicking task does not kill its worker: the rest still ran.
        assert_eq!(done.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.finish().unwrap();
        assert!(available_jobs() >= 1);
    }
}
