//! A zero-dependency thread-pool executor with scoped fork-join.
//!
//! The per-tile materialization loops of the engine's `insert` and
//! `retile` — cut, compress and store each tile — are embarrassingly
//! parallel once the tiling has produced the tile set. (Reads do not use
//! the pool: a query runs its plan's batched reads on the calling thread,
//! since splitting a query into bands never measured faster.) This crate
//! provides the substrate: a fixed pool of worker threads (std only:
//! threads, mutexes, condvars) plus a scoped scatter/gather API in the
//! style of `std::thread::scope`, so tasks may borrow from the caller's
//! stack. The engine writes each operation's task
//! body once and hands it to [`scatter_on`], which runs it on the pool when
//! one is attached and inline on the caller's thread when none is.
//!
//! Two deadlock-avoidance properties matter because many server sessions
//! scatter onto one pool at once, and a scatter may nest another:
//!
//! - **Caller participation**: a thread waiting on its own scope executes
//!   that scope's queued tasks instead of sleeping, so a scatter completes
//!   even when every pool worker is occupied (including on a pool of one
//!   worker, or when a worker itself opens a nested scope).
//! - **Scope-local queues**: pool workers pick up *tickets* pointing at a
//!   scope's private queue; a waiting caller only ever runs its own scope's
//!   tasks, never an unrelated request's.
//!
//! Pool gauges (`exec.queue_depth`, `exec.busy_workers`, `exec.tasks`) and
//! per-task spans flow into `tilestore-obs`.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use tilestore_obs::{Counter, Gauge};

/// Locks a mutex, recovering from poisoning: an executor must keep working
/// after a task panicked while a lock was held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task with its lifetime erased. Safety: only [`Scope::spawn`] creates
/// these, and the owning scope joins every task before the borrowed data
/// can expire.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between a scope handle, the pool workers holding its
/// tickets, and the waiting caller.
struct ScopeShared {
    state: Mutex<ScopeState>,
    done: Condvar,
    panicked: AtomicBool,
}

struct ScopeState {
    queue: VecDeque<Task>,
    /// Tasks spawned but not yet finished (queued or running).
    pending: usize,
}

impl ScopeShared {
    fn new() -> Self {
        ScopeShared {
            state: Mutex::new(ScopeState {
                queue: VecDeque::new(),
                pending: 0,
            }),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    /// Pops and runs one queued task. Returns false when the queue was
    /// empty (tasks may still be running elsewhere).
    fn run_one(&self) -> bool {
        let task = lock(&self.state).queue.pop_front();
        let Some(task) = task else { return false };
        let _span = tilestore_obs::tracer().span_with("exec_task", String::new);
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.panicked.store(true, Ordering::Release);
        }
        let mut st = lock(&self.state);
        st.pending -= 1;
        if st.pending == 0 {
            self.done.notify_all();
        }
        true
    }

    /// Runs this scope's remaining queued tasks on the calling thread, then
    /// blocks until every spawned task has finished.
    fn join(&self) {
        loop {
            if self.run_one() {
                continue;
            }
            let mut st = lock(&self.state);
            loop {
                if st.pending == 0 {
                    return;
                }
                if !st.queue.is_empty() {
                    break; // help with the newly spawned work
                }
                st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

struct PoolInner {
    /// Tickets: each runs one task of the referenced scope (a no-op if the
    /// scope's caller already ran it while waiting).
    queue: Mutex<VecDeque<Arc<ScopeShared>>>,
    available: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    /// True on a single-core machine: scope tickets are not worth a worker
    /// wakeup there, because the joining caller drains the scope queue
    /// itself and every wakeup is a context switch off that caller.
    solo_core: bool,
    queue_depth: Arc<Gauge>,
    busy_workers: Arc<Gauge>,
    tasks: Arc<Counter>,
}

impl PoolInner {
    fn inject(&self, ticket: Arc<ScopeShared>) {
        let mut q = lock(&self.queue);
        q.push_back(ticket);
        self.queue_depth.set(q.len() as i64);
        drop(q);
        self.available.notify_one();
    }

    fn worker_loop(&self) {
        loop {
            let scope = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(scope) = q.pop_front() {
                        self.queue_depth.set(q.len() as i64);
                        break scope;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self
                        .available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.busy_workers.add(1);
            self.tasks.inc();
            scope.run_one();
            self.busy_workers.add(-1);
        }
    }
}

/// A fixed pool of worker threads with scoped fork-join scatter/gather.
///
/// ```
/// let pool = tilestore_exec::ThreadPool::new(2);
/// let items = vec![1u64, 2, 3, 4];
/// let doubled = pool.scatter(items, |_, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// A pool with `workers` threads (clamped to at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let reg = tilestore_obs::metrics();
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            solo_core: std::thread::available_parallelism().is_ok_and(|n| n.get() == 1),
            queue_depth: reg.gauge("exec.queue_depth"),
            busy_workers: reg.gauge("exec.busy_workers"),
            tasks: reg.counter("exec.tasks"),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tilestore-exec-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn with_default_workers() -> Self {
        let n = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ThreadPool::new(n)
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Opens a fork-join scope: tasks spawned inside may borrow data that
    /// outlives the `scope` call, and all of them are guaranteed to have
    /// finished when `scope` returns — even if `f` or a task panics.
    ///
    /// The calling thread participates: while waiting it executes its own
    /// scope's queued tasks, so progress does not depend on free workers.
    ///
    /// # Panics
    /// Re-raises a panic of `f`; panics if any spawned task panicked.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let shared = Arc::new(ScopeShared::new());
        let scope = Scope {
            pool: self,
            shared: Arc::clone(&shared),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The join below is the soundness anchor for the lifetime erasure in
        // `spawn`: it runs on every exit path, so no task outlives `'env`.
        shared.join();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                assert!(
                    !shared.panicked.load(Ordering::Acquire),
                    "a task spawned in a ThreadPool scope panicked"
                );
                value
            }
        }
    }

    /// Scatter/gather: runs `f(index, item)` for every item on the pool
    /// (the caller participating) and returns the results in input order.
    ///
    /// # Panics
    /// Propagates task panics, like [`ThreadPool::scope`].
    pub fn scatter<'env, T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(usize, T) -> R + Sync + 'env,
    {
        let n = items.len();
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let f = &f;
        self.scope(|scope| {
            for ((i, item), slot) in items.into_iter().enumerate().zip(results.iter_mut()) {
                scope.spawn(move || *slot = Some(f(i, item)));
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("scope joined every task"))
            .collect()
    }
}

/// Runs `f(index, item)` for every item and returns the results in input
/// order: scattered on `pool` like [`ThreadPool::scatter`], or inline on the
/// calling thread when there is no pool or fewer than two items. This is the
/// one place that chooses between the two, so a caller writes its task body
/// once.
///
/// # Panics
/// Propagates task panics, like [`ThreadPool::scatter`].
pub fn scatter_on<'env, T, R, F>(pool: Option<&ThreadPool>, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'env,
    R: Send + 'env,
    F: Fn(usize, T) -> R + Sync + 'env,
{
    match pool {
        Some(pool) if items.len() > 1 => pool.scatter(items, f),
        _ => items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect(),
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.available.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Handle for spawning tasks inside a [`ThreadPool::scope`] call.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    shared: Arc<ScopeShared>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the pool. The task may borrow anything that
    /// outlives the enclosing [`ThreadPool::scope`] call.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `ThreadPool::scope` joins every spawned task before it
        // returns, on panic paths included, so the closure and its borrows
        // never outlive `'env`. The transmute only erases that lifetime.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        {
            let mut st = lock(&self.shared.state);
            st.pending += 1;
            st.queue.push_back(task);
        }
        // On a single core a worker can only run this task by preempting
        // the caller, who will drain the scope queue in `join` anyway —
        // skip the ticket and save the wakeup churn. Progress never
        // depends on tickets: `join` runs every queued task itself.
        if !self.pool.inner.solo_core {
            self.pool.inner.inject(Arc::clone(&self.shared));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scatter_preserves_order_and_borrows() {
        let pool = ThreadPool::new(4);
        let base = vec![10u64, 20, 30, 40, 50];
        let base_ref = &base;
        let out = pool.scatter((0..5).collect(), |i, x: usize| base_ref[x] + i as u64);
        assert_eq!(out, vec![10, 21, 32, 43, 54]);
    }

    #[test]
    fn scope_tasks_mutate_disjoint_borrows() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 64];
        let (left, right) = data.split_at_mut(32);
        pool.scope(|scope| {
            scope.spawn(|| left.iter_mut().for_each(|v| *v = 1));
            scope.spawn(|| right.iter_mut().for_each(|v| *v = 2));
        });
        assert!(data[..32].iter().all(|&v| v == 1));
        assert!(data[32..].iter().all(|&v| v == 2));
    }

    #[test]
    fn single_worker_pool_cannot_deadlock_on_nested_scopes() {
        // The caller participates in its own scope, so even a pool of one
        // worker completes a scatter issued from inside an outer scatter
        // task that itself occupies the only worker.
        let pool = Arc::new(ThreadPool::new(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let outer = Arc::clone(&pool);
        std::thread::spawn(move || {
            let parts = outer.scatter(vec![(); 4], |_, ()| {
                outer
                    .scatter(vec![1u64, 2, 3], |_, x| x * 2)
                    .iter()
                    .sum::<u64>()
            });
            tx.send(parts.iter().sum::<u64>()).unwrap();
        });
        let total = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("nested scatter deadlocked");
        assert_eq!(total, 4 * 12);
    }

    #[test]
    fn scatter_on_without_a_pool_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let out = scatter_on(None, vec![3u64, 1, 2], |i, x| {
            assert_eq!(std::thread::current().id(), caller, "ran off-thread");
            (i, x * 10)
        });
        assert_eq!(out, vec![(0, 30), (1, 10), (2, 20)]);
        // With a pool the order is the same.
        let pool = ThreadPool::new(2);
        let pooled = scatter_on(Some(&pool), vec![3u64, 1, 2], |i, x| (i, x * 10));
        assert_eq!(pooled, out);
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let finished2 = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom"));
                scope.spawn(move || {
                    finished2.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err());
        // The sibling task still ran to completion before the panic surfaced.
        assert_eq!(finished.load(Ordering::Relaxed), 1);
        // The pool survives a poisoned scope and keeps executing.
        assert_eq!(pool.scatter(vec![5u64], |_, x| x + 1), vec![6]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.workers(), 3);
        drop(pool); // must not hang
    }
}
