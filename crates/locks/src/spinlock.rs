//! Spinlocks implemented with simulated CAS on simulated memory.

use hastm_sim::{Addr, Cpu, SimHeap};

/// A test-and-test-and-set spinlock with exponential backoff.
///
/// The lock word lives on its own cache line so acquisitions by different
/// cores contend only on coherence traffic for that line.
///
/// # Examples
///
/// ```
/// use hastm_locks::SpinLock;
/// use hastm_sim::{Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let lock = SpinLock::alloc(&machine.heap());
/// machine.run_one(|cpu| {
///     lock.acquire(cpu);
///     // ... critical section ...
///     lock.release(cpu);
/// });
/// ```
#[derive(Copy, Clone, Debug)]
pub struct SpinLock {
    word: Addr,
}

impl SpinLock {
    /// Allocates a lock on its own cache line (initially free).
    pub fn alloc(heap: &SimHeap) -> Self {
        SpinLock {
            word: heap.alloc_line(),
        }
    }

    /// The lock word's address.
    pub fn addr(&self) -> Addr {
        self.word
    }

    /// Spins until the lock is held by this core.
    pub fn acquire(&self, cpu: &mut Cpu<'_>) {
        let mut backoff = 4u64;
        loop {
            // Test-and-test-and-set: spin on a plain load first.
            if cpu.load_u64(self.word) == 0 && cpu.cas_u64(self.word, 0, 1) == 0 {
                return;
            }
            cpu.tick(backoff);
            backoff = (backoff * 2).min(1024);
        }
    }

    /// Attempts one acquisition without spinning.
    pub fn try_acquire(&self, cpu: &mut Cpu<'_>) -> bool {
        cpu.load_u64(self.word) == 0 && cpu.cas_u64(self.word, 0, 1) == 0
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the lock was not held.
    pub fn release(&self, cpu: &mut Cpu<'_>) {
        // A peek, not a load: the check must cost no simulated cycles, or
        // debug and release builds would disagree on every lock cell.
        debug_assert_eq!(cpu.peek_u64(self.word), 1, "release of free lock");
        cpu.store_u64(self.word, 0);
    }
}

/// A FIFO ticket lock: fair under contention, at the cost of a second
/// contended word.
#[derive(Copy, Clone, Debug)]
pub struct TicketLock {
    /// Next ticket to hand out.
    next: Addr,
    /// Ticket currently being served.
    serving: Addr,
}

impl TicketLock {
    /// Allocates a ticket lock (two words on one line; the serving word is
    /// what waiters spin on).
    pub fn alloc(heap: &SimHeap) -> Self {
        let base = heap.alloc_line();
        TicketLock {
            next: base,
            serving: base.offset(8),
        }
    }

    /// Takes a ticket and spins until served.
    pub fn acquire(&self, cpu: &mut Cpu<'_>) {
        // Fetch-and-increment via CAS loop.
        let my_ticket = loop {
            let t = cpu.load_u64(self.next);
            if cpu.cas_u64(self.next, t, t + 1) == t {
                break t;
            }
            cpu.tick(8);
        };
        loop {
            if cpu.load_u64(self.serving) == my_ticket {
                return;
            }
            cpu.tick(16);
        }
    }

    /// Passes the lock to the next ticket holder.
    pub fn release(&self, cpu: &mut Cpu<'_>) {
        let s = cpu.load_u64(self.serving);
        cpu.store_u64(self.serving, s + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm_sim::{Machine, MachineConfig, WorkerFn};

    fn counter_test(acquire_release: impl Fn(&mut hastm_sim::Cpu, Addr) + Sync) -> u64 {
        let mut m = Machine::new(MachineConfig::with_cores(4));
        let heap = m.heap();
        let counter = heap.alloc_line();
        let f = &acquire_release;
        let workers: Vec<WorkerFn<'_>> = (0..4)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    for _ in 0..25 {
                        f(cpu, counter);
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        m.peek_u64(counter)
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        let mut m = Machine::new(MachineConfig::with_cores(4));
        let heap = m.heap();
        let lock = SpinLock::alloc(&heap);
        let counter = heap.alloc_line();
        let workers: Vec<WorkerFn<'_>> = (0..4)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    for _ in 0..25 {
                        lock.acquire(cpu);
                        let v = cpu.load_u64(counter);
                        cpu.tick(10); // widen the race window
                        cpu.store_u64(counter, v + 1);
                        lock.release(cpu);
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        assert_eq!(m.peek_u64(counter), 100);
    }

    #[test]
    fn unlocked_increments_race() {
        // Sanity check that the mutual-exclusion test actually needed the
        // lock: unsynchronized read-tick-write loses updates.
        let total = counter_test(|cpu, counter| {
            let v = cpu.load_u64(counter);
            cpu.tick(10);
            cpu.store_u64(counter, v + 1);
        });
        assert!(total < 100, "expected lost updates, got {total}");
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let mut m = Machine::new(MachineConfig::default());
        let lock = SpinLock::alloc(&m.heap());
        m.run_one(|cpu| {
            assert!(lock.try_acquire(cpu));
            assert!(!lock.try_acquire(cpu));
            lock.release(cpu);
            assert!(lock.try_acquire(cpu));
            lock.release(cpu);
        });
    }

    #[test]
    fn ticket_lock_mutual_exclusion_and_fairness() {
        let mut m = Machine::new(MachineConfig::with_cores(4));
        let heap = m.heap();
        let lock = TicketLock::alloc(&heap);
        let counter = heap.alloc_line();
        let workers: Vec<WorkerFn<'_>> = (0..4)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    for _ in 0..10 {
                        lock.acquire(cpu);
                        let v = cpu.load_u64(counter);
                        cpu.tick(10);
                        cpu.store_u64(counter, v + 1);
                        lock.release(cpu);
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        assert_eq!(m.peek_u64(counter), 40);
    }

    #[test]
    fn contended_lock_costs_more_than_uncontended() {
        let run = |cores: usize| {
            let mut m = Machine::new(MachineConfig::with_cores(cores));
            let heap = m.heap();
            let lock = SpinLock::alloc(&heap);
            let counter = heap.alloc_line();
            let per_core = 200 / cores as u64;
            let workers: Vec<WorkerFn<'_>> = (0..cores)
                .map(|_| {
                    Box::new(move |cpu: &mut hastm_sim::Cpu| {
                        for _ in 0..per_core {
                            lock.acquire(cpu);
                            let v = cpu.load_u64(counter);
                            cpu.tick(50);
                            cpu.store_u64(counter, v + 1);
                            lock.release(cpu);
                        }
                    }) as WorkerFn<'_>
                })
                .collect();
            m.run(workers).makespan()
        };
        let t1 = run(1);
        let t4 = run(4);
        // A coarse lock with fixed total work cannot speed up and pays
        // coherence overhead: 4-core makespan must not beat single core by
        // more than noise.
        assert!(
            t4 * 10 >= t1 * 9,
            "coarse lock should not scale: t1={t1} t4={t4}"
        );
    }
}
