//! Best-case hybrid transactional memory (HyTM), after Figure 14 and
//! \[17\]\[23\]\[29\].
//!
//! A transaction first executes in hardware. Inside the hardware
//! transaction, every read checks that the datum's transaction record is
//! in the shared state (so no concurrent *software* transaction owns it),
//! and every write additionally logs the record so the commit can bump its
//! version number — notifying concurrent software transactions of the
//! update. If hardware execution keeps failing, the transaction falls back
//! to the full software STM.
//!
//! This is the paper's comparison baseline; its key structural contrast
//! with HASTM is that **the software path gets no hardware help at all**,
//! and the hardware path inherits all HTM restrictions (capacity,
//! context-switch intolerance, spurious aborts).

use hastm::{
    Abort, Granularity, ObjRef, OracleMode, RecValue, StmRuntime, TmContext, TxResult, TxThread,
};
use hastm_sim::{counters, Addr, Cpu};

use crate::htm::{HtmAbort, HtmThread, HtmTxn};

counters! {
    /// Counters for one hybrid thread: what each transaction cost on the
    /// hardware path before it committed there or fell back to software.
    pub struct HytmStats {
        /// Transactions committed on the hardware path.
        hw_commits: "hytm.hw_commits",
        /// Transactions that fell back to and committed on the software path.
        sw_commits: "hytm.sw_commits",
        /// Hardware attempts aborted by conflicts (coherence or a record owned
        /// by a software transaction).
        hw_aborts_conflict: "hytm.hw_aborts.conflict",
        /// Hardware attempts aborted by capacity/eviction.
        hw_aborts_capacity: "hytm.hw_aborts.capacity",
        /// Hardware attempts aborted by injected transient events
        /// ([`HtmAbort::Spurious`]); retried in hardware like conflicts, but
        /// counted separately so fault-injection coverage can observe them.
        hw_aborts_spurious: "hytm.hw_aborts.spurious",
    }
}

impl HytmStats {
    /// Committed transactions, on either path.
    pub fn commits(&self) -> u64 {
        self.hw_commits + self.sw_commits
    }

    /// Aborted hardware attempts of any cause.
    pub fn aborts(&self) -> u64 {
        self.hw_aborts_conflict + self.hw_aborts_capacity + self.hw_aborts_spurious
    }
}

/// One thread's hybrid-TM execution state (hardware first, software STM
/// fallback).
pub struct HytmThread<'c, 'm> {
    tx: TxThread<'c, 'm>,
    hw_attempts: u32,
    stats: HytmStats,
}

impl std::fmt::Debug for HytmThread<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HytmThread")
            .field("hw_attempts", &self.hw_attempts)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'c, 'm> HytmThread<'c, 'm> {
    /// Creates a hybrid thread that tries hardware `hw_attempts` times per
    /// transaction before falling back to software.
    pub fn new(runtime: &'c StmRuntime, cpu: &'c mut Cpu<'m>, hw_attempts: u32) -> Self {
        HytmThread {
            tx: TxThread::new(runtime, cpu),
            hw_attempts,
            stats: HytmStats::default(),
        }
    }

    /// This thread's statistics.
    pub fn stats(&self) -> &HytmStats {
        &self.stats
    }

    /// The underlying software-transaction thread (fallback path).
    pub fn software(&mut self) -> &mut TxThread<'c, 'm> {
        &mut self.tx
    }

    /// Allocates an object outside any transaction.
    pub fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        self.tx.alloc_obj(data_words)
    }

    /// Runs `f` as a transaction: hardware first, software on repeated
    /// hardware failure. Retries until commit.
    pub fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        let runtime = self.tx.runtime();
        for attempt in 0..self.hw_attempts {
            let mut hth = HtmThread::new(self.tx.cpu());
            let outcome = hth.attempt_atomic(|txn| {
                let mut ctx = HybridHwCtx {
                    txn,
                    runtime,
                    written: Vec::new(),
                };
                let r = f(&mut ctx).map_err(|_| {
                    // TmContext reported failure; surface the hardware
                    // cause if there is one, else treat as a conflict with
                    // a software transaction.
                    ctx.txn.status().err().unwrap_or(HtmAbort::Conflict)
                })?;
                // Bump the version of every written record inside the
                // hardware transaction so concurrent software readers
                // observe the update (Figure 14's commit obligation).
                for (rec, ver) in std::mem::take(&mut ctx.written) {
                    ctx.txn.write(rec, RecValue(ver).bump().0)?;
                }
                Ok(r)
            });
            match outcome {
                Ok(r) => {
                    self.stats.hw_commits += 1;
                    if runtime.config().oracle != OracleMode::Off {
                        // Journal the hardware commit's write transitions so
                        // concurrent software transactions' reads of them
                        // verify (see hastm::oracle). Record and data
                        // addresses both land in the journal; only data
                        // addresses are ever looked up.
                        let (clock, writes) = hth.last_commit();
                        let writes = writes.to_vec();
                        drop(hth);
                        let epoch = self.tx.cpu().run_epoch();
                        runtime.oracle_log().record_commit(epoch, clock, &writes);
                    }
                    return r;
                }
                Err(HtmAbort::Capacity) => self.stats.hw_aborts_capacity += 1,
                Err(HtmAbort::Spurious) => self.stats.hw_aborts_spurious += 1,
                Err(_) => self.stats.hw_aborts_conflict += 1,
            }
            let wait = 64u64 << attempt.min(8);
            self.tx.cpu().tick(wait);
        }
        // Software fallback: the plain STM, unaccelerated.
        let r = self.tx.atomic(|tx| f(tx));
        self.stats.sw_commits += 1;
        r
    }
}

/// [`TmContext`] implementation for the hardware path.
struct HybridHwCtx<'x, 't, 'c, 'm> {
    txn: &'x mut HtmTxn<'t, 'c, 'm>,
    runtime: &'x StmRuntime,
    /// Records written by this transaction and their pre-write versions.
    written: Vec<(Addr, u64)>,
}

impl HybridHwCtx<'_, '_, '_, '_> {
    fn record_for(&mut self, obj: ObjRef, addr: Addr) -> Addr {
        match self.runtime.config().granularity {
            Granularity::Object => obj.header(),
            Granularity::CacheLine => {
                self.txn.thread_tick(3); // hash sequence
                self.runtime.rec_table().record_for(addr)
            }
        }
    }

    /// Figure 14's shared-state check: load the record inside the hardware
    /// transaction (so it is watched) and verify no software transaction
    /// owns it.
    fn check_record(&mut self, rec: Addr) -> TxResult<u64> {
        let recval = self.txn.read(rec).map_err(|_| Abort::Conflict)?;
        self.txn.thread_tick(2); // isShared test + branch
                                 // The shared-state test is a dependent load->test->branch chain on
                                 // the critical path of every access; unlike the STM's barrier (whose
                                 // logging is independent work the OOO core overlaps, §7.3), nothing
                                 // hides its resolution.
        self.txn.thread_stall(2);
        if !RecValue(recval).is_version() {
            // Owned by a software transaction: contention policy aborts the
            // hardware attempt.
            return Err(Abort::Conflict);
        }
        Ok(recval)
    }
}

impl TmContext for HybridHwCtx<'_, '_, '_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        let addr = obj.word(index);
        // HybridRead is an out-of-line barrier function (Figure 14), unlike
        // the *inlined* STM/HASTM sequences of Figures 4-9: call, prologue,
        // return.
        self.txn.thread_tick(4);
        self.txn.thread_tick(1); // gettxnrec table-base / TLS access
        let rec = self.record_for(obj, addr);
        self.check_record(rec)?;
        self.txn.read(addr).map_err(|_| Abort::Conflict)
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        let addr = obj.word(index);
        self.txn.thread_tick(4); // HybridWrite call overhead (Figure 14)
        self.txn.thread_tick(1); // gettxnrec table-base / TLS access
        let rec = self.record_for(obj, addr);
        let recval = self.check_record(rec)?;
        if !self.written.iter().any(|&(r, _)| r == rec) {
            self.txn.thread_tick(2); // logWrite
            self.written.push((rec, recval));
        }
        self.txn.write(addr, value).map_err(|_| Abort::Conflict)
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        let (obj, header) = self.runtime.alloc_obj_shell(self.txn.cpu(), data_words);
        // Initialize the header inside the transaction; if the hardware
        // transaction aborts, the unpublished object is simply discarded.
        let _ = self.txn.write(obj.header(), header);
        obj
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        self.txn.status().map_err(|_| Abort::Conflict)
    }

    fn ctx_work(&mut self, cycles: u64) {
        self.txn.thread_tick(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm::StmConfig;
    use hastm_sim::{CacheConfig, Machine, MachineConfig, WorkerFn};

    fn setup(cfg: StmConfig) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let rt = StmRuntime::new(&mut m, cfg);
        (m, rt)
    }

    #[test]
    fn hybrid_commits_in_hardware() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut hy = HytmThread::new(&rt, cpu, 4);
            let o = hy.alloc_obj(1);
            hy.atomic(|ctx| {
                ctx.ctx_write(o, 0, 7)?;
                ctx.ctx_read(o, 0)
            });
            let v = hy.atomic(|ctx| ctx.ctx_read(o, 0));
            assert_eq!(hy.stats().hw_commits, 2);
            assert_eq!(hy.stats().sw_commits, 0);
            v
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn hybrid_bumps_record_versions() {
        // A software transaction that read the record before a hardware
        // commit must fail validation afterwards.
        let (mut m, rt) = setup(StmConfig::stm(Granularity::Object));
        m.run_one(|cpu| {
            let mut hy = HytmThread::new(&rt, cpu, 4);
            let o = hy.alloc_obj(1);
            let rec_before = hy.software().cpu().load_u64(o.header());
            hy.atomic(|ctx| ctx.ctx_write(o, 0, 1));
            let rec_after = hy.software().cpu().load_u64(o.header());
            assert_ne!(rec_before, rec_after, "version bumped by HW commit");
            assert!(RecValue(rec_after).is_version());
        });
    }

    #[test]
    fn hybrid_falls_back_to_software_on_capacity() {
        // L1 too small for the transaction: the HW path always aborts with
        // Capacity, the SW path commits.
        let mut m = Machine::new(MachineConfig {
            cores: 1,
            l1: CacheConfig::new(2, 2),
            ..MachineConfig::default()
        });
        let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut hy = HytmThread::new(&rt, cpu, 2);
            let objs: Vec<ObjRef> = {
                let tx = hy.software();
                (0..16)
                    .map(|_| {
                        let o = tx.alloc_obj(1);
                        // Spread across lines.
                        tx.cpu().store_u64(o.word(0), 0);
                        o
                    })
                    .collect()
            };
            let sum = hy.atomic(|ctx| {
                let mut s = 0;
                for o in &objs {
                    s += ctx.ctx_read(*o, 0)?;
                    ctx.ctx_write(*o, 0, 1)?;
                }
                Ok(s)
            });
            assert_eq!(sum, 0);
            assert_eq!(hy.stats().sw_commits, 1, "fell back to software");
            assert_eq!(hy.stats().hw_aborts_capacity, 2);
        });
    }

    #[test]
    fn hardware_aborts_when_software_owns_record() {
        // Core 1 holds a record in a software transaction while core 0
        // tries a hardware transaction on the same object.
        let (mut m, rt) = setup(StmConfig::stm(Granularity::Object));
        let (o, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.alloc_obj(1)
        });
        let rt_ref = &rt;
        m.run(vec![
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                // Give core 1 time to acquire the record.
                cpu.tick(5_000);
                let mut hy = HytmThread::new(rt_ref, cpu, 1);
                let v = hy.atomic(|ctx| ctx.ctx_read(o, 0));
                // Fell back to software (which waits out the owner).
                assert_eq!(hy.stats().hw_aborts_conflict, 1);
                assert_eq!(hy.stats().sw_commits, 1);
                assert_eq!(v, 9);
            }) as WorkerFn<'_>,
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                tx.atomic(|tx| {
                    tx.write_word(o, 0, 9)?;
                    // Hold ownership long enough for core 0's HW attempt.
                    tx.cpu().tick(50_000);
                    Ok(())
                });
            }) as WorkerFn<'_>,
        ]);
    }

    #[test]
    fn concurrent_hybrid_increments_are_atomic() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (o, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| tx.write_word(o, 0, 0));
            o
        });
        let rt_ref = &rt;
        let workers: Vec<WorkerFn<'_>> = (0..2)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut hy = HytmThread::new(rt_ref, cpu, 4);
                    for _ in 0..20 {
                        hy.atomic(|ctx| {
                            let v = ctx.ctx_read(o, 0)?;
                            ctx.ctx_write(o, 0, v + 1)
                        });
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.atomic(|tx| tx.read_word(o, 0))
        });
        assert_eq!(v, 40);
    }
}
