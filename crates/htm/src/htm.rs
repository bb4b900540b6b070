//! A bounded, cache-resident hardware transactional memory.
//!
//! Speculative stores are buffered (lazy version management) and become
//! visible at commit; the read and write footprints are tracked at
//! cache-line granularity through the simulator's watch sets, so
//!
//! * a remote store to any accessed line aborts the transaction,
//! * a remote load of a speculatively written line aborts it, and
//! * losing any tracked line to L1 eviction or inclusive-L2
//!   back-invalidation aborts it — the *spurious* abort class whose impact
//!   on scaling the paper demonstrates in §7.4.

use hastm_sim::words::RedoLog;
use hastm_sim::{counters, Addr, Cpu, ViolationCause, WatchKind};

/// Why a hardware transaction aborted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HtmAbort {
    /// A remote access conflicted with the transaction's footprint.
    Conflict,
    /// A tracked line fell out of the cache (capacity/conflict/inclusion):
    /// the transaction did not fit the hardware.
    Capacity,
    /// The user aborted.
    Explicit,
    /// An injected transient abort (interrupt, TLB shootdown) from
    /// [`hastm_sim::ViolationCause::Spurious`]. No cache line was lost, so
    /// it must not count as capacity pressure; retrying in hardware is
    /// reasonable.
    Spurious,
}

impl std::fmt::Display for HtmAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtmAbort::Conflict => write!(f, "coherence conflict"),
            HtmAbort::Capacity => write!(f, "hardware capacity exceeded"),
            HtmAbort::Explicit => write!(f, "user abort"),
            HtmAbort::Spurious => write!(f, "spurious abort"),
        }
    }
}

impl std::error::Error for HtmAbort {}

counters! {
    /// Counters for one hardware-transactional thread.
    pub struct HtmStats {
        /// Committed hardware transactions.
        commits: "htm.commits",
        /// Aborts from true coherence conflicts.
        aborts_conflict: "htm.aborts.conflict",
        /// Aborts from capacity/eviction (spurious).
        aborts_capacity: "htm.aborts.capacity",
        /// User aborts.
        aborts_explicit: "htm.aborts.explicit",
        /// Injected transient aborts ([`HtmAbort::Spurious`]).
        aborts_spurious: "htm.aborts.spurious",
    }
}

impl HtmStats {
    /// All aborts.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_explicit + self.aborts_spurious
    }
}

/// What a hardware thread keeps from one attempt to the next: the
/// speculative store buffer and the last commit's write transitions. Each
/// attempt clears them rather than building new ones, so a warm thread's
/// attempts never call the allocator. [`HtmThread::with_logs`] and
/// [`HtmThread::into_logs`] carry them past a thread that borrows its core
/// for one attempt only, as the hybrid's hardware path does.
#[derive(Debug, Default)]
pub struct HtmLogs {
    /// Speculative store buffer: each written word's last value, in
    /// first-write order (the commit's write-back order).
    buffer: RedoLog,
    last_commit: (u64, Vec<(Addr, u64, u64)>),
}

impl HtmLogs {
    /// The last successful commit's publish clock and write transitions
    /// `(addr, pre-commit value, committed value)`, in store order — the
    /// value changes the hardware transaction made, captured at the
    /// indivisible commit instant (for serializability-verification
    /// journals).
    pub fn last_commit(&self) -> (u64, &[(Addr, u64, u64)]) {
        (self.last_commit.0, &self.last_commit.1)
    }
}

/// One thread's hardware-TM execution state.
pub struct HtmThread<'c, 'm> {
    pub(crate) cpu: &'c mut Cpu<'m>,
    stats: HtmStats,
    rng: u64,
    logs: HtmLogs,
}

impl std::fmt::Debug for HtmThread<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmThread")
            .field("stats", &self.stats)
            .finish()
    }
}

/// An in-flight hardware transaction (borrows the thread, whose store
/// buffer it fills).
pub struct HtmTxn<'t, 'c, 'm> {
    thread: &'t mut HtmThread<'c, 'm>,
}

impl std::fmt::Debug for HtmTxn<'_, '_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmTxn")
            .field("buffered_words", &self.write_set_len())
            .finish()
    }
}

impl<'c, 'm> HtmThread<'c, 'm> {
    /// Creates the thread state over a core.
    pub fn new(cpu: &'c mut Cpu<'m>) -> Self {
        Self::with_logs(cpu, HtmLogs::default())
    }

    /// Creates the thread state over a core, reusing `logs` (from
    /// [`HtmThread::into_logs`]) so that no attempt allocates once they
    /// are warm.
    pub fn with_logs(cpu: &'c mut Cpu<'m>, logs: HtmLogs) -> Self {
        HtmThread {
            cpu,
            stats: HtmStats::default(),
            rng: 0x2545_f491_4f6c_dd1d,
            logs,
        }
    }

    /// Gives the core back, keeping the logs for the next thread.
    pub fn into_logs(self) -> HtmLogs {
        self.logs
    }

    /// This thread's statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// The underlying CPU (for non-transactional work).
    pub fn cpu(&mut self) -> &mut Cpu<'m> {
        self.cpu
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Runs `f` as a hardware transaction, retrying on conflicts and
    /// capacity aborts until it commits.
    ///
    /// Beware: a transaction whose footprint can never fit the L1 will
    /// retry forever — precisely the unboundedness problem hybrid schemes
    /// paper over with a software fallback. Use
    /// [`HtmThread::attempt_atomic`] to observe aborts.
    pub fn atomic<R>(
        &mut self,
        mut f: impl FnMut(&mut HtmTxn<'_, 'c, 'm>) -> Result<R, HtmAbort>,
    ) -> R {
        let mut attempt = 0u32;
        loop {
            match self.attempt_atomic(&mut f) {
                Ok(r) => return r,
                Err(_) => {
                    let base = 32u64 << attempt.min(8);
                    let wait = base + self.next_rand() % base;
                    self.cpu.tick(wait);
                    attempt += 1;
                }
            }
        }
    }

    /// Runs one hardware attempt of `f`.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the attempt could not commit; speculative
    /// state is discarded.
    pub fn attempt_atomic<R>(
        &mut self,
        f: impl FnOnce(&mut HtmTxn<'_, 'c, 'm>) -> Result<R, HtmAbort>,
    ) -> Result<R, HtmAbort> {
        self.cpu.clear_watches();
        self.cpu.trace(hastm_sim::TraceEvent::HtmBegin);
        self.cpu.exec(2); // txn begin setup
        self.cpu.tick(8); // hardware checkpoint (register/state snapshot)
        self.logs.buffer.clear();
        match f(&mut HtmTxn { thread: self }) {
            Ok(r) => match self.try_commit() {
                Ok(()) => {
                    self.stats.commits += 1;
                    self.cpu.trace(hastm_sim::TraceEvent::HtmCommit);
                    Ok(r)
                }
                Err(cause) => {
                    self.record_abort(cause);
                    Err(cause)
                }
            },
            Err(cause) => {
                self.cpu.clear_watches();
                self.record_abort(cause);
                Err(cause)
            }
        }
    }

    fn record_abort(&mut self, cause: HtmAbort) {
        match cause {
            HtmAbort::Conflict => self.stats.aborts_conflict += 1,
            HtmAbort::Capacity => self.stats.aborts_capacity += 1,
            HtmAbort::Explicit => self.stats.aborts_explicit += 1,
            HtmAbort::Spurious => self.stats.aborts_spurious += 1,
        }
        self.cpu.trace(hastm_sim::TraceEvent::HtmAbort {
            cause: match cause {
                HtmAbort::Conflict => "conflict",
                HtmAbort::Capacity => "capacity",
                HtmAbort::Explicit => "explicit",
                HtmAbort::Spurious => "spurious",
            },
        });
    }

    fn try_commit(&mut self) -> Result<(), HtmAbort> {
        self.cpu.exec(2); // commit sequence
        self.cpu.tick(8); // hardware commit (ordering point)

        // The violation re-check and the write-back publish as ONE
        // indivisible step; otherwise two transactions that both passed
        // their checks could interleave write-backs and lose updates. The
        // clock before the commit op is the op's start — the instant the
        // stores publish.
        let publish_clock = self.cpu.now();
        let logs = &mut self.logs;
        self.cpu
            .commit_stores(&logs.buffer, &mut logs.last_commit.1)
            .map_err(|v| match v.cause {
                ViolationCause::Eviction => HtmAbort::Capacity,
                ViolationCause::Spurious => HtmAbort::Spurious,
                _ => HtmAbort::Conflict,
            })?;
        logs.last_commit.0 = publish_clock;
        Ok(())
    }
}

impl<'m> HtmTxn<'_, '_, 'm> {
    /// The underlying simulated CPU (e.g. for gated heap allocation).
    pub fn cpu(&mut self) -> &mut Cpu<'m> {
        self.thread.cpu
    }
}

impl HtmTxn<'_, '_, '_> {
    /// Transactionally loads a word.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the transaction has already been doomed
    /// by a conflict or capacity event (eager abort detection).
    pub fn read(&mut self, addr: Addr) -> Result<u64, HtmAbort> {
        if let Some(v) = self.thread.logs.buffer.get(addr.0) {
            self.thread.cpu.exec(1); // store-buffer forward
            return Ok(v);
        }
        // Load and watch in one logical-time step: a remote commit landing
        // between a load and a later watch would escape conflict detection.
        let v = self.thread.cpu.load_watch_u64(addr, WatchKind::Read);
        self.check()?;
        Ok(v)
    }

    /// Transactionally stores a word (buffered until commit).
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the transaction is already doomed.
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), HtmAbort> {
        // Bring the line in (a real HTM writes into the L1 speculatively)
        // and track it for conflicts, in one logical-time step.
        self.thread.cpu.load_watch_u64(addr, WatchKind::Write);
        self.thread.logs.buffer.insert(addr.0, value);
        self.check()?;
        Ok(())
    }

    /// Explicitly aborts.
    ///
    /// # Errors
    ///
    /// Always returns `Err(HtmAbort::Explicit)`.
    pub fn abort<R>(&mut self) -> Result<R, HtmAbort> {
        Err(HtmAbort::Explicit)
    }

    /// Words currently buffered.
    pub fn write_set_len(&self) -> usize {
        self.thread.logs.buffer.len()
    }

    /// Executes instructions inside the transaction (ILP-amortized).
    pub fn thread_tick(&mut self, cycles: u64) {
        self.thread.cpu.exec(cycles);
    }

    /// Charges raw stall cycles (un-amortizable dependent chains).
    pub fn thread_stall(&mut self, cycles: u64) {
        self.thread.cpu.tick(cycles);
    }

    /// Whether the transaction is already doomed.
    ///
    /// # Errors
    ///
    /// Returns the pending abort cause, if any.
    pub fn status(&mut self) -> Result<(), HtmAbort> {
        self.check()
    }

    fn check(&mut self) -> Result<(), HtmAbort> {
        match self.thread.cpu.violation() {
            None => Ok(()),
            Some(v) => Err(match v.cause {
                ViolationCause::Eviction => HtmAbort::Capacity,
                ViolationCause::Spurious => HtmAbort::Spurious,
                _ => HtmAbort::Conflict,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm_sim::{CacheConfig, Machine, MachineConfig, WorkerFn};

    #[test]
    fn read_write_commit() {
        let mut m = Machine::new(MachineConfig::default());
        let heap = m.heap();
        let a = heap.alloc(8);
        let (v, _) = m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            th.atomic(|tx| {
                tx.write(a, 5)?;
                tx.read(a)
            })
        });
        assert_eq!(v, 5);
        assert_eq!(m.peek_u64(a), 5);
    }

    #[test]
    fn aborted_txn_leaves_memory_untouched() {
        let mut m = Machine::new(MachineConfig::default());
        let heap = m.heap();
        let a = heap.alloc(8);
        m.poke_u64(a, 1);
        m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            let r: Result<(), _> = th.attempt_atomic(|tx| {
                tx.write(a, 99)?;
                tx.abort()
            });
            assert_eq!(r, Err(HtmAbort::Explicit));
            assert_eq!(th.stats().aborts_explicit, 1);
        });
        assert_eq!(m.peek_u64(a), 1, "buffered store discarded");
    }

    #[test]
    fn speculative_reads_see_own_writes() {
        let mut m = Machine::new(MachineConfig::default());
        let heap = m.heap();
        let a = heap.alloc(8);
        let (v, _) = m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            th.atomic(|tx| {
                tx.write(a, 10)?;
                let x = tx.read(a)?;
                tx.write(a, x + 1)?;
                tx.read(a)
            })
        });
        assert_eq!(v, 11);
    }

    #[test]
    fn capacity_abort_on_overflow() {
        // Tiny L1: 2 sets x 2 ways = 4 lines. A 8-line transaction cannot
        // fit and must abort with Capacity.
        let mut m = Machine::new(MachineConfig {
            l1: CacheConfig::new(2, 2),
            ..MachineConfig::default()
        });
        let heap = m.heap();
        let base = heap.alloc_aligned(8 * 64, 64);
        m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            let r: Result<(), _> = th.attempt_atomic(|tx| {
                for i in 0..8 {
                    tx.read(Addr(base.0 + i * 64))?;
                }
                Ok(())
            });
            assert_eq!(r, Err(HtmAbort::Capacity));
            assert_eq!(th.stats().aborts_capacity, 1);
        });
    }

    #[test]
    fn remote_store_aborts_reader() {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let heap = m.heap();
        let a = heap.alloc(8);
        let outcome = std::sync::Mutex::new(None);
        let outcome_ref = &outcome;
        m.run(vec![
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut th = HtmThread::new(cpu);
                let r: Result<(), _> = th.attempt_atomic(|tx| {
                    tx.read(a)?;
                    // Dawdle so the other core's store lands mid-txn.
                    for _ in 0..100 {
                        tx.thread_tick(100);
                    }
                    tx.read(a)?;
                    Ok(())
                });
                *outcome_ref.lock().unwrap() = Some(r);
            }) as WorkerFn<'_>,
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                cpu.tick(2_000);
                cpu.store_u64(a, 77);
            }) as WorkerFn<'_>,
        ]);
        assert_eq!(
            outcome.lock().unwrap().unwrap(),
            Err(HtmAbort::Conflict),
            "remote store must abort the hardware reader"
        );
    }

    #[test]
    fn remote_load_aborts_speculative_writer() {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let heap = m.heap();
        let a = heap.alloc(8);
        let outcome = std::sync::Mutex::new(None);
        let outcome_ref = &outcome;
        m.run(vec![
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut th = HtmThread::new(cpu);
                let r: Result<(), _> = th.attempt_atomic(|tx| {
                    tx.write(a, 5)?;
                    for _ in 0..100 {
                        tx.thread_tick(100);
                    }
                    tx.read(a)?;
                    Ok(())
                });
                *outcome_ref.lock().unwrap() = Some(r);
            }) as WorkerFn<'_>,
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                cpu.tick(2_000);
                let _ = cpu.load_u64(a);
            }) as WorkerFn<'_>,
        ]);
        assert_eq!(outcome.lock().unwrap().unwrap(), Err(HtmAbort::Conflict));
    }

    #[test]
    fn write_buffer_capacity_is_bounded_by_cache() {
        // Speculatively written lines are watched; writing more distinct
        // lines than the L1 holds must abort with Capacity.
        let mut m = Machine::new(MachineConfig {
            l1: CacheConfig::new(2, 2),
            ..MachineConfig::default()
        });
        let heap = m.heap();
        let base = heap.alloc_aligned(16 * 64, 64);
        m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            let r: Result<(), _> = th.attempt_atomic(|tx| {
                for i in 0..8 {
                    tx.write(Addr(base.0 + i * 64), i)?;
                }
                Ok(())
            });
            assert_eq!(r, Err(HtmAbort::Capacity));
        });
        // Nothing leaked to memory.
        for i in 0..8 {
            assert_eq!(m.peek_u64(Addr(base.0 + i * 64)), 0);
        }
    }

    #[test]
    fn status_reports_doom_early() {
        let mut m = Machine::new(MachineConfig {
            l1: CacheConfig::new(2, 2),
            ..MachineConfig::default()
        });
        let heap = m.heap();
        let base = heap.alloc_aligned(16 * 64, 64);
        m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            let r: Result<(), _> = th.attempt_atomic(|tx| {
                for i in 0..8 {
                    let _ = tx.read(Addr(base.0 + i * 64));
                }
                tx.status()
            });
            assert_eq!(r, Err(HtmAbort::Capacity), "doom detected before commit");
        });
    }

    #[test]
    fn write_set_len_counts_distinct_words() {
        let mut m = Machine::new(MachineConfig::default());
        let heap = m.heap();
        let a = heap.alloc(16);
        m.run_one(|cpu| {
            let mut th = HtmThread::new(cpu);
            th.atomic(|tx| {
                tx.write(a, 1)?;
                tx.write(a, 2)?; // same word: buffered once
                tx.write(a.offset(8), 3)?;
                assert_eq!(tx.write_set_len(), 2);
                Ok(())
            });
        });
        assert_eq!(m.peek_u64(a), 2);
        assert_eq!(m.peek_u64(a.offset(8)), 3);
    }

    #[test]
    fn atomic_retries_until_commit() {
        // Conflicting increments from two cores must still sum correctly.
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let heap = m.heap();
        let a = heap.alloc(8);
        let workers: Vec<WorkerFn<'_>> = (0..2)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut th = HtmThread::new(cpu);
                    for _ in 0..25 {
                        th.atomic(|tx| {
                            let v = tx.read(a)?;
                            tx.write(a, v + 1)
                        });
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        assert_eq!(m.peek_u64(a), 50);
    }
}
