//! How a run's simulated cores execute on the host and pass the turn.
//!
//! The schedule — which core's operation comes next — is decided in
//! `machine.rs` from simulated state alone. This module only carries it
//! out, through three functions on [`Shared`]: run the workers, wait for a
//! core's turn, give the turn up. There are two ways to do that, chosen at
//! build time and identical in every simulated result:
//!
//! * **Contexts** (x86-64 Unix): the cores are [`crate::coop`] contexts on
//!   the thread that called `Machine::run`. A core that finds the turn is
//!   not its own switches straight to the core that holds it, so waiting
//!   costs a register swap, and giving the turn up costs nothing — the
//!   next core is resumed by whoever waits for it.
//!
//! * **Threads** (everything else, or `--cfg hastm_thread_gate`): one
//!   scoped host thread per core, parked on a per-core condition variable
//!   until the core giving up the turn wakes it.

use parking_lot::MutexGuard;

use crate::machine::{Shared, SimState, WorkerFn};

/// First panic payload of a run's workers.
pub(crate) type Payload = Box<dyn std::any::Any + Send + 'static>;

#[cfg(all(target_arch = "x86_64", unix, not(hastm_thread_gate)))]
mod imp {
    use super::*;
    use crate::coop::{Group, Task};

    /// Per-machine host resources of the gate: the cores' contexts, whose
    /// stacks are kept from run to run.
    pub(crate) struct Turns(Group);

    impl Turns {
        pub(crate) fn new(cores: usize) -> Turns {
            Turns(Group::new(cores))
        }
    }

    impl Shared {
        /// Runs `workers[i]` on core `i` until all have returned.
        pub(crate) fn run_workers(&self, workers: Vec<WorkerFn<'_>>) -> Result<(), Payload> {
            let tasks = workers
                .into_iter()
                .enumerate()
                .map(|(id, worker)| Box::new(move || self.run_core(id, worker)) as Task<'_>)
                .collect();
            let first = self.next_core().expect("every worker's core is active");
            // A finished (or panicked) worker has deactivated its core;
            // control passes to the core whose turn it now is.
            self.turns.0.run(tasks, first, &|_| self.next_core())
        }

        /// Returns the locked state once the gate admits `core`, running
        /// the cores ahead of it in the meantime.
        pub(crate) fn wait_turn(&self, core: usize) -> MutexGuard<'_, SimState> {
            loop {
                let st = self.state.lock();
                let Some(owner) = st.turn_owner(core) else {
                    return st;
                };
                drop(st);
                // Every context locks the state on this one thread: a
                // guard held across the switch would deadlock the next
                // core's first operation.
                debug_assert!(
                    self.state.try_lock().is_some(),
                    "core {core} switches away while holding the state guard"
                );
                self.turns.0.switch_to(owner);
            }
        }

        /// Gives up the turn `core` took with [`Shared::wait_turn`]. The
        /// next core needs no waking: it runs when someone waits for it.
        pub(crate) fn handoff(&self, st: MutexGuard<'_, SimState>, _core: usize) {
            drop(st);
        }

        fn next_core(&self) -> Option<usize> {
            self.state.lock().min_active().map(|(_, id)| id)
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", unix, not(hastm_thread_gate))))]
mod imp {
    use super::*;
    use parking_lot::Condvar;

    /// Per-machine host resources of the gate: one condition variable per
    /// core, so giving up the turn wakes exactly the core that gets it.
    pub(crate) struct Turns(Box<[Condvar]>);

    impl Turns {
        pub(crate) fn new(cores: usize) -> Turns {
            Turns((0..cores).map(|_| Condvar::new()).collect())
        }
    }

    impl Shared {
        /// Runs `workers[i]` on core `i` until all have returned.
        pub(crate) fn run_workers(&self, workers: Vec<WorkerFn<'_>>) -> Result<(), Payload> {
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .into_iter()
                    .enumerate()
                    .map(|(id, worker)| scope.spawn(move || self.run_core(id, worker)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            results.into_iter().try_for_each(|r| r)
        }

        /// Blocks until the gate admits `core`, then returns the locked
        /// state.
        pub(crate) fn wait_turn(&self, core: usize) -> MutexGuard<'_, SimState> {
            let mut st = self.state.lock();
            while st.turn_owner(core).is_some() {
                self.turns.0[core].wait(&mut st);
            }
            st
        }

        /// Gives up the turn `core` took with [`Shared::wait_turn`] and
        /// wakes the core that gets it. No wakeup is lost: whatever changes
        /// the turn (a clock advance, a priority re-draw, a deactivation)
        /// happens under the lock released here, and a waiter parks only
        /// after re-checking the turn under that same lock.
        pub(crate) fn handoff(&self, st: MutexGuard<'_, SimState>, core: usize) {
            let next = st.min_active();
            drop(st);
            if let Some((_, id)) = next {
                if id != core {
                    self.turns.0[id].notify_one();
                }
            }
        }
    }
}

pub(crate) use imp::Turns;
