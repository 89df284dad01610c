//! The (stage, step) wavefront that runs [`SpikingNetwork`]'s forward and
//! backward passes over their time steps.
//!
//! A pass over `T` time steps through a chain of stages (layers) is a grid
//! of tasks. Task `(s, t)` is stage `s` at step `t`: it reads the output of
//! `(s − 1, t)` and the state that `(s, t − 1)` left in stage `s`, and
//! nothing else. So it may run once those two are done, and every schedule
//! that waits for them computes the same bits: each stage still runs its own
//! steps in order on the same inputs, and the last stage's outputs come back
//! in step order. The serial loop is one such schedule; this module runs the
//! grid on the two workers of one [`falvolt_tensor::join`], which take the
//! deepest ready stage first so outputs are consumed as soon as they exist.
//! At a one-thread budget the first worker drains every task on the caller,
//! in exactly the serial loop's (step, stage) order, and the second finds
//! nothing left.
//!
//! **Errors.** A failed task blocks every task after it in (step, stage)
//! order, while the tasks before it still run, so the pass returns the error
//! the serial loop would return: that of the earliest failing task.
//!
//! **Panics.** A panicking task marks the board and wakes the other worker,
//! which then stops taking tasks; `join` re-raises the original payload once
//! both workers have returned.
//!
//! [`SpikingNetwork`]: crate::SpikingNetwork

use crate::{Result, SnnError};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `task` on every (stage, step) pair of `stages` × `0..steps` and
/// returns the last stage's outputs in step order.
///
/// `task(stage, s, t, input)` runs stage `s` at step `t`; `input` is what
/// stage `s − 1` returned at step `t` (`None` for stage 0, which makes its
/// own input). Every stage but the last must return `Some`; the last stage's
/// `Some` outputs are collected.
///
/// # Errors
///
/// Returns the error of the failing task earliest in (step, stage) order.
pub(crate) fn run<S, X, F>(stages: Vec<&mut S>, steps: usize, task: F) -> Result<Vec<X>>
where
    S: ?Sized + Send,
    X: Send,
    F: Fn(&mut S, usize, usize, Option<X>) -> Result<Option<X>> + Sync,
{
    let wavefront = Wavefront {
        board: Mutex::new(Board::new(stages, steps)),
        wake: Condvar::new(),
        task,
    };
    falvolt_tensor::join(|| wavefront.work(), || wavefront.work());
    wavefront
        .board
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .finish()
}

/// The shared state of one wavefront: the task board, the signal a worker
/// waits on while the other runs the only ready stage, and the task.
struct Wavefront<'s, S: ?Sized, X, F> {
    board: Mutex<Board<'s, S, X>>,
    wake: Condvar,
    task: F,
}

/// What has run, what waits and what came out.
struct Board<'s, S: ?Sized, X> {
    /// Each stage's state, taken out while a worker runs one of its tasks
    /// (so no two tasks of one stage ever overlap).
    stages: Vec<Option<&'s mut S>>,
    /// Steps each stage has finished.
    done: Vec<usize>,
    /// Per stage, the outputs of the stage before it that it has yet to
    /// read, oldest step first.
    queued: Vec<VecDeque<X>>,
    /// The last stage's outputs, in step order.
    outputs: Vec<X>,
    steps: usize,
    /// The failure earliest in (step, stage) order: `(step, stage, error)`.
    failure: Option<(usize, usize, SnnError)>,
    /// A task panicked: no worker takes another task.
    panicked: bool,
}

/// A task taken off the board: stage, step, the stage's state and its input.
type Task<'s, S, X> = (usize, usize, &'s mut S, Option<X>);

impl<'s, S: ?Sized, X> Board<'s, S, X> {
    fn new(stages: Vec<&'s mut S>, steps: usize) -> Self {
        let n = stages.len();
        Board {
            stages: stages.into_iter().map(Some).collect(),
            done: vec![0; n],
            queued: (0..n).map(|_| VecDeque::new()).collect(),
            outputs: Vec::with_capacity(steps),
            steps,
            failure: None,
            panicked: false,
        }
    }

    /// Takes the deepest ready task: its stage is idle and has steps left,
    /// its input exists, and no earlier task in (step, stage) order failed.
    fn take_ready(&mut self) -> Option<Task<'s, S, X>> {
        for s in (0..self.stages.len()).rev() {
            let t = self.done[s];
            let blocked = self
                .failure
                .as_ref()
                .is_some_and(|&(ft, fs, _)| (ft, fs) < (t, s));
            if t == self.steps || blocked || (s > 0 && self.queued[s].is_empty()) {
                continue;
            }
            if let Some(stage) = self.stages[s].take() {
                // Stage 0's queue stays empty: it makes its own input.
                let input = self.queued[s].pop_front();
                return Some((s, t, stage, input));
            }
        }
        None
    }

    /// Whether no task is running.
    fn idle(&self) -> bool {
        self.stages.iter().all(Option::is_some)
    }

    /// Returns stage `s`'s state after its step `t` and files the result.
    fn finish_task(&mut self, s: usize, t: usize, stage: &'s mut S, result: Result<Option<X>>) {
        self.stages[s] = Some(stage);
        self.done[s] += 1;
        match result {
            Ok(Some(out)) if s + 1 < self.stages.len() => self.queued[s + 1].push_back(out),
            Ok(Some(out)) => self.outputs.push(out),
            Ok(None) => {}
            Err(error) => {
                if self
                    .failure
                    .as_ref()
                    .is_none_or(|&(ft, fs, _)| (t, s) < (ft, fs))
                {
                    self.failure = Some((t, s, error));
                }
            }
        }
    }

    fn finish(self) -> Result<Vec<X>> {
        match self.failure {
            Some((_, _, error)) => Err(error),
            None => Ok(self.outputs),
        }
    }
}

impl<'s, S, X, F> Wavefront<'s, S, X, F>
where
    S: ?Sized,
    F: Fn(&mut S, usize, usize, Option<X>) -> Result<Option<X>>,
{
    fn lock(&self) -> MutexGuard<'_, Board<'s, S, X>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: takes ready tasks until none is left to run or a task
    /// panicked, and waits while only the other worker's running task can
    /// make one ready.
    fn work(&self) {
        let mut board = self.lock();
        loop {
            if board.panicked {
                return;
            }
            let Some((s, t, stage, input)) = board.take_ready() else {
                if board.idle() {
                    return;
                }
                board = self
                    .wake
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(board);
            let alarm = PanicAlarm(self);
            let result = (self.task)(&mut *stage, s, t, input);
            drop(alarm);
            board = self.lock();
            board.finish_task(s, t, stage, result);
            self.wake.notify_all();
        }
    }
}

/// Held while a task runs: if the task unwinds, marks the board and wakes
/// the other worker, which would otherwise wait for this task forever.
struct PanicAlarm<'w, 's, S: ?Sized, X, F>(&'w Wavefront<'s, S, X, F>);

impl<S: ?Sized, X, F> Drop for PanicAlarm<'_, '_, S, X, F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .board
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .panicked = true;
            self.0.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    // These hold at any thread budget; `tests/bptt_wavefront.rs` runs
    // networks through the wavefront at budgets of one to four threads.
    use super::run;
    use crate::SnnError;
    use std::sync::{Mutex, PoisonError};

    fn push<T>(log: &Mutex<Vec<T>>, entry: T) {
        log.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(entry);
    }

    fn take<T>(log: Mutex<Vec<T>>) -> Vec<T> {
        log.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stage state: a running hash of every input the stage has read.
    fn step(acc: &mut u64, t: usize, input: Option<u64>) -> u64 {
        *acc = acc
            .wrapping_mul(31)
            .wrapping_add(input.unwrap_or(t as u64 + 7));
        *acc
    }

    #[test]
    fn outputs_equal_the_serial_loops_and_follow_both_dependencies() {
        let (stages, steps) = (5, 7);
        let mut serial_state = vec![0u64; stages];
        let mut serial = Vec::new();
        for t in 0..steps {
            let mut x = None;
            for acc in &mut serial_state {
                x = Some(step(acc, t, x));
            }
            serial.extend(x);
        }
        let log = Mutex::new(Vec::new());
        let mut state = vec![0u64; stages];
        let outputs = run(state.iter_mut().collect(), steps, |acc, s, t, x| {
            push(&log, (s, t));
            Ok(Some(step(acc, t, x)))
        })
        .unwrap_or_default();
        assert_eq!(outputs, serial);
        assert_eq!(state, serial_state);
        let order = take(log);
        assert_eq!(order.len(), stages * steps);
        let position = |task| order.iter().position(|&o| o == task);
        for (i, &(s, t)) in order.iter().enumerate() {
            if s > 0 {
                assert!(position((s - 1, t)) < Some(i), "{order:?}");
            }
            if t > 0 {
                assert!(position((s, t - 1)) < Some(i), "{order:?}");
            }
        }
    }

    #[test]
    fn the_earliest_failure_in_step_stage_order_wins() {
        let ran = Mutex::new(Vec::new());
        let mut state = [(); 3];
        let result = run(state.iter_mut().collect(), 5, |_, s, t, _: Option<()>| {
            push(&ran, (t, s));
            match (s, t) {
                // Stage 0 fails later in (step, stage) order than stage 2
                // does, but on two workers it may fail first in time.
                (0, 3) => Err(SnnError::invalid_input("stage 0, step 3")),
                (2, 2) => Err(SnnError::invalid_input("stage 2, step 2")),
                _ => Ok(Some(())),
            }
        });
        assert_eq!(
            result.err(),
            Some(SnnError::invalid_input("stage 2, step 2"))
        );
        let ran = take(ran);
        // Every task before the failure ran; after it, only stage 0 may have
        // run ahead, and only up to its own failing step.
        for key in (0..3)
            .flat_map(|t| (0..3).map(move |s| (t, s)))
            .filter(|&key| key < (2, 2))
        {
            assert!(ran.contains(&key), "{key:?} missing from {ran:?}");
        }
        assert!(
            ran.iter()
                .all(|&(t, s)| (t, s) <= (2, 2) || (s == 0 && t <= 3)),
            "{ran:?}"
        );
    }
}
