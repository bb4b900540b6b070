//! How a run's simulated cores execute on the host, hold the simulator
//! state, and pass the turn.
//!
//! The schedule — which core's operation comes next — is decided in
//! `machine.rs` from simulated state alone ([`SimState::admission`]). This
//! module only carries it out: it owns the cell the state sits in
//! ([`StateCell`], whose guard is [`StateGuard`]) and three functions on
//! [`Shared`] — run the workers, wait for a core's turn, give the turn up.
//! There are two ways to do that, chosen at build time and identical in
//! every simulated result:
//!
//! * **Contexts** (x86-64 Unix): the cores are [`crate::coop`] contexts on
//!   the thread that called `Machine::run`, so exactly one of them can
//!   touch the state at a time and the cell is a `RefCell`: taking the
//!   guard is an exclusive borrow, checked but never waited for. A core
//!   that finds the turn is not its own switches straight to the core that
//!   holds it, so waiting costs a register swap, and giving the turn up
//!   costs nothing — the next core is resumed by whoever waits for it.
//!
//! * **Threads** (everything else, or `--cfg hastm_thread_gate`): one
//!   scoped host thread per core, the state behind a mutex, each core
//!   parked on its own condition variable until the core giving up the
//!   turn wakes it.
//!
//! Either way the cell is not re-entrant: a second `lock` while a guard is
//! alive panics on contexts and self-deadlocks on threads.

use crate::machine::{Bound, Shared, SimState, WorkerFn};

/// First panic payload of a run's workers.
pub(crate) type Payload = Box<dyn std::any::Any + Send + 'static>;

#[cfg(all(target_arch = "x86_64", unix, not(hastm_thread_gate)))]
mod imp {
    use std::cell::{RefCell, RefMut};

    use super::*;
    use crate::coop::{Group, Task};

    /// Where a machine's [`SimState`] lives: every context of a run is on
    /// one host thread, so exclusive access is a borrow.
    pub(crate) struct StateCell(RefCell<SimState>);

    /// Exclusive access to the state; an open quantum is a kept guard.
    pub(crate) type StateGuard<'a> = RefMut<'a, SimState>;

    impl StateCell {
        pub(crate) fn new(state: SimState) -> StateCell {
            StateCell(RefCell::new(state))
        }

        /// Takes the state.
        ///
        /// # Panics
        ///
        /// Panics if a guard is alive (a core re-entered the cell, or
        /// switched away holding its guard).
        #[inline]
        pub(crate) fn lock(&self) -> StateGuard<'_> {
            self.0.borrow_mut()
        }

        /// The state of a machine nothing else can reach.
        pub(crate) fn get_mut(&mut self) -> &mut SimState {
            self.0.get_mut()
        }
    }

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

        /// Returns the state once the gate admits `core`, with the bound
        /// it was admitted against, running the cores ahead of it in the
        /// meantime.
        pub(crate) fn wait_turn(&self, core: usize) -> (StateGuard<'_>, Bound) {
            let st = self.state.lock();
            let owner = match st.admission(core) {
                Ok(bound) => return (st, bound),
                Err(owner) => owner,
            };
            drop(st);
            // Every context takes the state on this one thread: a guard
            // held across the switch would fail the next core's first
            // operation.
            debug_assert!(
                self.state.0.try_borrow_mut().is_ok(),
                "core {core} switches away while holding the state guard"
            );
            self.turns.0.switch_to(owner);
            // A suspended core is resumed by a waiter that found it to be
            // the one to wait for, or by `next_core`: both name the minimal
            // active core, and nothing ran in between, so being resumed
            // *is* admission. Only the bound has to be computed afresh.
            let st = self.state.lock();
            match st.admission(core) {
                Ok(bound) => (st, bound),
                Err(owner) => unreachable!("core {core} resumed in core {owner}'s turn"),
            }
        }

        /// Gives up the turn `core` took with [`Shared::wait_turn`], or
        /// publishes any other change of the turn made under `st`. The
        /// next core needs no waking: it runs when someone waits for it.
        #[inline]
        pub(crate) fn handoff(&self, st: StateGuard<'_>, _core: usize) {
            drop(st);
        }

        fn next_core(&self) -> Option<usize> {
            self.state.lock().min_active().map(|(_, id)| id)
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", unix, not(hastm_thread_gate))))]
mod imp {
    use parking_lot::{Condvar, Mutex, MutexGuard};

    use super::*;

    /// Where a machine's [`SimState`] lives: the cores are host threads,
    /// so exclusive access is a lock.
    pub(crate) struct StateCell(Mutex<SimState>);

    /// Exclusive access to the state; an open quantum is a kept guard.
    pub(crate) type StateGuard<'a> = MutexGuard<'a, SimState>;

    impl StateCell {
        pub(crate) fn new(state: SimState) -> StateCell {
            StateCell(Mutex::new(state))
        }

        /// Takes the state, blocking while another core holds it (forever,
        /// if the caller's own thread does).
        #[inline]
        pub(crate) fn lock(&self) -> StateGuard<'_> {
            self.0.lock()
        }

        /// The state of a machine nothing else can reach.
        pub(crate) fn get_mut(&mut self) -> &mut SimState {
            self.0.get_mut()
        }
    }

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
        /// state and the bound it was admitted against.
        pub(crate) fn wait_turn(&self, core: usize) -> (StateGuard<'_>, Bound) {
            let mut st = self.state.lock();
            loop {
                if let Ok(bound) = st.admission(core) {
                    return (st, bound);
                }
                self.turns.0[core].wait(&mut st);
            }
        }

        /// Gives up the turn `core` took with [`Shared::wait_turn`] — or
        /// publishes any other change of the turn made under `st`, such as
        /// a core's deferred stall cycles — and wakes the core that gets
        /// it. No wakeup is lost: whatever changes the turn (a clock
        /// advance, a priority re-draw, a deactivation) happens under the
        /// lock released here, and a waiter parks only after re-checking
        /// the turn under that same lock.
        pub(crate) fn handoff(&self, st: StateGuard<'_>, core: usize) {
            let next = st.min_active();
            drop(st);
            if let Some((_, id)) = next {
                if id != core {
                    self.turns.0[id].notify_one();
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use std::sync::mpsc;
        use std::time::Duration;

        use crate::addr::Addr;
        use crate::config::MachineConfig;
        use crate::cpu::Cpu;
        use crate::machine::Machine;

        /// Core 0 takes one turn and then only stalls, which on a plain
        /// run leaves its published clock behind. Core 1 runs past that
        /// stale clock, gives up its quantum and parks behind it. When
        /// core 0 then publishes its stalls it is far ahead and parks too
        /// — so the publication itself has to wake core 1, as any other
        /// change of the turn does. Without that wake-up both cores sleep
        /// for good, which this test turns into a failure.
        ///
        /// Core 0 publishes only after core 1 has said (over a host
        /// channel) that its next op is the one that parks. Should core 0
        /// nevertheless win the race to the lock, core 1 sees the
        /// published clock and is admitted without a wake-up; the run must
        /// complete either way.
        #[test]
        fn publishing_deferred_stalls_wakes_the_core_parked_behind_them() {
            const STALL: u64 = 1_000_000;
            let (parking, parked) = mpsc::channel();
            let (done, finished) = mpsc::channel();
            let host = std::thread::spawn(move || {
                let mut machine = Machine::new(MachineConfig::with_cores(2));
                let report = machine.run(vec![
                    Box::new(move |cpu: &mut Cpu| {
                        cpu.store_u64(Addr(0x100), 1);
                        let published = cpu.now();
                        cpu.tick(STALL);
                        assert_eq!(cpu.now(), published + STALL);
                        parked.recv().expect("core 1 reports before it parks");
                        cpu.load_u64(Addr(0x100));
                    }),
                    Box::new(move |cpu: &mut Cpu| {
                        cpu.load_u64(Addr(0x200));
                        // Far past what core 0's one store cost, far short
                        // of its stall.
                        cpu.tick(STALL / 2);
                        parking.send(()).expect("core 0 is listening");
                        cpu.load_u64(Addr(0x200));
                    }),
                ]);
                done.send(report).expect("the test is waiting");
            });
            let report = finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a core parked behind deferred stalls was never woken");
            host.join().expect("the run panicked");
            assert!(report.cores[0].cycles > STALL);
            assert!(report.cores[1].cycles < STALL);
        }
    }
}

pub(crate) use imp::{StateCell, StateGuard, Turns};
