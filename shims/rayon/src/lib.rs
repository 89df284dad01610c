//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! The build environment has no crates.io access, so data parallelism is
//! provided by a small work-stealing-free scheduler on `std::thread::scope`:
//! a locked work queue of items, results placed back by original index so
//! ordering semantics match rayon's indexed parallel iterators.
//!
//! **One thread budget.** A parallel call over `n` items at
//! `threads = current_num_threads()` runs `w = min(threads, n)` workers: the
//! calling thread is one of them and `w - 1` scoped threads are spawned.
//! Each worker runs its items on a share of the budget, `threads / w`
//! (at least 1, as `w <= threads`), which [`current_num_threads`] reports
//! inside the worker. A parallel call made from inside a worker (a kernel's
//! row panels inside a campaign cell, say) therefore splits only that share:
//! at two threads it runs inline on the worker's own thread and spawns
//! nothing, and at 16 threads each of 3 outer workers still gets 5. The
//! caller's own budget comes back when its share of the call returns or
//! unwinds.
//!
//! **Panics.** An item that panics aborts the whole call: the remaining
//! workers drain the queue, then the call re-raises an item's panic, with
//! its original payload, on the calling thread. Callers that need per-item
//! isolation catch the panic inside the item closure.
//!
//! **No persistent pool.** Running borrowed closures on long-lived threads
//! needs `unsafe` lifetime erasure, which this workspace confines to its SIMD
//! layer. The measured cost of the spawning scheduler came from nested calls
//! spawning threads of their own, and the budget removes those in safe code.
//!
//! Supported surface (what the workspace's kernels and sweeps call):
//!
//! * `(a..b).into_par_iter().map(f).collect::<Vec<_>>()`
//! * `vec.into_par_iter().map(f).collect::<Vec<_>>()` / `.for_each(f)`
//! * `slice.par_chunks_mut(n).enumerate().for_each(f)`
//! * [`join`]`(a, b)`: `a` on the caller and `b` on one spawned thread,
//!   each on half the budget. On a one-thread budget it runs `a` to the end
//!   and then `b` on the caller, so `a` must never wait for `b`.
//! * [`current_num_threads`]
//!
//! Shim extensions for tests: [`set_thread_count_override`] and
//! [`parallel_calls`].

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Process-wide worker-count override (0 = none). A shim extension beyond
/// the real rayon API: tests that need to compare worker counts set this
/// instead of mutating `RAYON_NUM_THREADS`, which is read only once.
static THREAD_COUNT_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `RAYON_NUM_THREADS`, else the machine's available parallelism, resolved
/// on first use.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// This thread's share of the thread budget while it is a worker of a
    /// parallel call (0 = not a worker: the process-wide count applies).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// Parallel calls made from this thread that ran on more than one worker.
    static PARALLEL_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Forces [`current_num_threads`] to report `n` outside parallel workers
/// (shim-only test hook; `0` clears the override). Data-race-free, unlike
/// env mutation.
pub fn set_thread_count_override(n: usize) {
    THREAD_COUNT_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of parallel calls made from this thread that ran on more than one
/// worker (shim extension, like [`set_thread_count_override`]). Tests read it
/// to tell a kernel that split its rows from one that ran serially. The count
/// is per thread, so tests running side by side never see each other's
/// calls; a call made inside a split call's worker counts on that worker's
/// thread.
pub fn parallel_calls() -> usize {
    PARALLEL_CALLS.with(Cell::get)
}

/// Number of threads a parallel call made from this thread may use.
///
/// Inside a worker of a parallel call this is the worker's share of the
/// budget. Elsewhere it honours the test override, then `RAYON_NUM_THREADS`
/// (like the real rayon; read on first use, later changes are ignored), and
/// falls back to the machine's available parallelism.
pub fn current_num_threads() -> usize {
    let share = BUDGET.with(Cell::get);
    if share > 0 {
        return share;
    }
    let forced = THREAD_COUNT_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Sets this thread's budget share for the guard's lifetime and restores the
/// previous one on drop, including during unwinding.
struct BudgetGuard {
    previous: usize,
}

impl BudgetGuard {
    fn enter(share: usize) -> Self {
        BudgetGuard {
            previous: BUDGET.with(|budget| budget.replace(share)),
        }
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        // `try_with` cannot panic, which a drop during unwinding must not.
        let _ = BUDGET.try_with(|budget| budget.set(self.previous));
    }
}

/// Core executor: applies `f` to every `(index, item)` pair across the
/// calling thread and `w - 1` scoped threads and returns results in input
/// order (see the module docs for the budget and panic rules).
fn run_indexed<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    let workers = threads.min(n);
    if workers <= 1 {
        // One worker's share is the whole budget, so the caller's own
        // budget stands.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    PARALLEL_CALLS.with(|calls| calls.set(calls.get() + 1));
    let share = threads / workers;
    // The lock is held only to pop an item, never while one runs.
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let _budget = BudgetGuard::enter(share);
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for helper in helpers {
            match helper.join() {
                Ok(done) => results.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results (the real rayon signature).
///
/// At a budget of two or more threads, `oper_a` runs on the calling thread
/// and `oper_b` on one spawned thread, each on `threads / 2` of the budget
/// (the call counts in [`parallel_calls`]). At a budget of one thread both
/// run on the caller, `oper_a` to the end first: `oper_a` must never wait
/// for something only `oper_b` does, or it waits forever.
///
/// If either closure panics, the call still waits for the other one, then
/// re-raises the panic with its original payload (`oper_a`'s if both
/// panicked).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_num_threads();
    if threads <= 1 {
        let a = oper_a();
        return (a, oper_b());
    }
    PARALLEL_CALLS.with(|calls| calls.set(calls.get() + 1));
    let share = threads / 2;
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let _budget = BudgetGuard::enter(share);
            oper_b()
        });
        let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _budget = BudgetGuard::enter(share);
            oper_a()
        }));
        match (a, helper.join()) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(payload), _) | (Ok(_), Err(payload)) => std::panic::resume_unwind(payload),
        }
    })
}

/// An indexed parallel iterator over owned items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Maps every item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pairs every item with its index, preserving order semantics.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        run_indexed(self.items, |_, x| f(x));
    }
}

/// The result of [`ParIter::map`]; consumed by [`ParMap::collect`] or
/// [`ParMap::for_each`].
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, F> ParMap<I, F>
where
    I: Send,
{
    /// Executes the map in parallel and collects results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        C: FromIterator<R>,
    {
        let f = self.f;
        run_indexed(self.items, |_, x| f(x)).into_iter().collect()
    }

    /// Executes the map in parallel, discarding results.
    pub fn for_each<R, G>(self, g: G)
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        G: Fn(R) + Sync,
    {
        let f = self.f;
        run_indexed(self.items, |_, x| g(f(x)));
    }
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type produced by the iterator.
    type Item: Send;

    /// Converts `self` into an indexed parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Parallel mutable chunking of slices (`rayon::slice::ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into mutable chunks of at most `chunk_size` elements
    /// that can be processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(
            chunk_size > 0,
            "par_chunks_mut: chunk size must be non-zero"
        );
        ParChunksMut {
            chunks: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Parallel iterator over mutable slice chunks.
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its chunk index.
    pub fn enumerate(self) -> ParEnumeratedChunks<'a, T> {
        ParEnumeratedChunks {
            chunks: self.chunks,
        }
    }

    /// Runs `f` on every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        run_indexed(self.chunks, |_, chunk| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParEnumeratedChunks<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParEnumeratedChunks<'a, T> {
    /// Runs `f` on every `(chunk_index, chunk)` pair in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        run_indexed(self.chunks, |i, chunk| f((i, chunk)));
    }
}

/// One-stop imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join, parallel_calls, BudgetGuard};
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex, PoisonError};
    use std::thread::{self, ThreadId};

    // Each test pins its thread count with a `BudgetGuard` on the test
    // thread: the budget is thread-local and outranks every process-wide
    // setting, so tests running in parallel cannot disturb one another.

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data = vec![0u64; 10_000];
        data.par_chunks_mut(97).enumerate().for_each(|(ci, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 97 + j) as u64 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn vec_into_par_iter_for_each_runs_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        items.into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn nested_call_at_two_threads_runs_inline_on_the_worker() {
        let _threads = BudgetGuard::enter(2);
        let checks: Vec<bool> = (0..2)
            .into_par_iter()
            .map(|_| {
                let worker = thread::current().id();
                let inner: Vec<(ThreadId, usize)> = (0..8)
                    .into_par_iter()
                    .map(|_| (thread::current().id(), current_num_threads()))
                    .collect();
                current_num_threads() == 1
                    && inner
                        .iter()
                        .all(|&(id, threads)| id == worker && threads == 1)
            })
            .collect();
        assert_eq!(checks, [true, true]);
    }

    #[test]
    fn nested_call_sees_its_workers_share_of_the_budget() {
        let _threads = BudgetGuard::enter(4);
        let shares: Vec<Vec<usize>> = (0..2)
            .into_par_iter()
            .map(|_| {
                (0..3)
                    .into_par_iter()
                    .map(|_| current_num_threads())
                    .collect()
            })
            .collect();
        // Each outer worker owns 4 / 2 = 2 threads; its nested 3-item call
        // runs 2 workers of 2 / 2 = 1 thread each.
        assert_eq!(shares, [[1, 1, 1], [1, 1, 1]]);
        let outer: Vec<usize> = (0..2)
            .into_par_iter()
            .map(|_| current_num_threads())
            .collect();
        assert_eq!(outer, [2, 2]);
        assert_eq!(current_num_threads(), 4);
    }

    #[test]
    fn call_uses_at_most_w_threads_including_the_caller() {
        let workers = 3;
        let _threads = BudgetGuard::enter(workers);
        // The first `workers` items block until all of them have started,
        // which only `workers` distinct threads can do at once.
        let barrier = Barrier::new(workers);
        let seen = Mutex::new(HashSet::new());
        (0..64).into_par_iter().for_each(|i| {
            if i < workers {
                barrier.wait();
            }
            seen.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(thread::current().id());
        });
        let seen = seen.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(seen.len(), workers);
        assert!(seen.contains(&thread::current().id()));
    }

    #[test]
    fn panicking_item_reaches_the_caller_and_restores_the_budget() {
        let _threads = BudgetGuard::enter(4);
        // Every item panics, so each worker stops at its first item and the
        // caller, left with items the 3 helpers cannot take, unwinds through
        // its own budget guard.
        let caught = std::panic::catch_unwind(|| {
            (0..16).into_par_iter().for_each(|_| panic!("item failed"));
        });
        let payload = caught.expect_err("the item's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item failed"));
        assert_eq!(current_num_threads(), 4);
    }

    #[test]
    fn only_calls_that_split_are_counted_on_the_calling_thread() {
        let _threads = BudgetGuard::enter(2);
        let before = parallel_calls();
        let _: Vec<usize> = (0..1).into_par_iter().map(|i| i).collect();
        assert_eq!(parallel_calls(), before, "one item runs inline");
        let inner: Vec<usize> = (0..2)
            .into_par_iter()
            .map(|_| {
                let nested = parallel_calls();
                let _: Vec<usize> = (0..4).into_par_iter().map(|i| i).collect();
                parallel_calls() - nested
            })
            .collect();
        assert_eq!(parallel_calls(), before + 1);
        assert_eq!(inner, [0, 0], "a worker's one-thread share runs inline");
    }

    #[test]
    fn order_is_preserved_when_item_costs_are_uneven() {
        let _threads = BudgetGuard::enter(4);
        let out: Vec<u64> = (0..40)
            .into_par_iter()
            .map(|i| {
                // Early items are the slowest, so they finish last.
                let mut acc = i as u64;
                for step in 0..(40 - i) * 20_000 {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(step as u64));
                }
                std::hint::black_box(acc);
                i as u64
            })
            .collect();
        assert_eq!(out, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn join_on_one_thread_runs_a_to_the_end_then_b_on_the_caller() {
        let _threads = BudgetGuard::enter(1);
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        let push = |step: &'static str| {
            order
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((step, thread::current().id()));
        };
        let before = parallel_calls();
        let (a, b) = join(
            || {
                push("a starts");
                push("a ends");
                1
            },
            || {
                push("b");
                current_num_threads()
            },
        );
        assert_eq!((a, b), (1, 1));
        assert_eq!(parallel_calls(), before, "a one-thread join runs inline");
        let order = order.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(
            order,
            [("a starts", caller), ("a ends", caller), ("b", caller)]
        );
    }

    #[test]
    fn join_splits_the_budget_and_runs_b_on_a_second_thread() {
        let _threads = BudgetGuard::enter(4);
        let caller = thread::current().id();
        // Each side waits for the other, which only two threads can do.
        let barrier = Barrier::new(2);
        let before = parallel_calls();
        let (a, b) = join(
            || {
                barrier.wait();
                (thread::current().id(), current_num_threads())
            },
            || {
                barrier.wait();
                (thread::current().id(), current_num_threads())
            },
        );
        assert_eq!(parallel_calls(), before + 1);
        assert_eq!(a, (caller, 2));
        assert_ne!(b.0, caller);
        assert_eq!(b.1, 2);
        assert_eq!(current_num_threads(), 4);
    }

    #[test]
    fn join_reraises_either_sides_panic_after_both_sides_end() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for threads in [1, 2] {
            let _threads = BudgetGuard::enter(threads);
            let b_ran = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                join(
                    || -> usize { panic!("a failed") },
                    || b_ran.store(true, Ordering::SeqCst),
                )
            });
            let payload = caught.expect_err("a's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"a failed"));
            // On two threads `b` was already running and is waited for; on
            // one thread the panic ends the call before `b` starts.
            assert_eq!(b_ran.load(Ordering::SeqCst), threads == 2);
            let caught =
                std::panic::catch_unwind(|| join(|| 1, || -> usize { panic!("b failed") }));
            let payload = caught.expect_err("b's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"b failed"));
            assert_eq!(current_num_threads(), threads);
        }
    }
}
