//! Sequential and coarse-lock critical-section executors implementing the
//! scheme-independent [`TmContext`] interface.

use hastm::{ObjRef, StmRuntime, TmContext, TxResult};
use hastm_sim::Cpu;

use crate::spinlock::SpinLock;

/// Direct (unsynchronized) access to simulated memory through the common
/// context interface. Used standalone for sequential baselines and inside
/// [`LockExec`] critical sections.
pub struct DirectCtx<'x, 'm> {
    cpu: &'x mut Cpu<'m>,
    runtime: &'x StmRuntime,
}

impl std::fmt::Debug for DirectCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectCtx").finish_non_exhaustive()
    }
}

impl<'x, 'm> DirectCtx<'x, 'm> {
    /// Wraps a CPU and runtime (the runtime is used only for allocation).
    pub fn new(runtime: &'x StmRuntime, cpu: &'x mut Cpu<'m>) -> Self {
        DirectCtx { cpu, runtime }
    }
}

impl TmContext for DirectCtx<'_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        Ok(self.cpu.load_u64(obj.word(index)))
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        self.cpu.store_u64(obj.word(index), value);
        Ok(())
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        let (obj, header) = self.runtime.alloc_obj_shell(self.cpu, data_words);
        self.cpu.store_u64(obj.header(), header);
        obj
    }

    /// The simulated heap is garbage-collected: nothing to do.
    fn ctx_free(&mut self, _: ObjRef, _: u32) {}

    fn ctx_work(&mut self, cycles: u64) {
        self.cpu.exec(cycles);
    }
}

/// Sequential executor: runs critical sections with no synchronization at
/// all. This is the paper's "sequential execution time" baseline in Figure
/// 16 ("an ideal unbounded HW TM implementation would execute no faster
/// than the sequential execution time").
pub struct SeqExec<'c, 'm> {
    cpu: &'c mut Cpu<'m>,
    runtime: &'c StmRuntime,
}

impl std::fmt::Debug for SeqExec<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqExec").finish_non_exhaustive()
    }
}

impl<'c, 'm> SeqExec<'c, 'm> {
    /// Creates a sequential executor.
    pub fn new(runtime: &'c StmRuntime, cpu: &'c mut Cpu<'m>) -> Self {
        SeqExec { cpu, runtime }
    }

    /// Runs one critical section.
    pub fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        let mut ctx = DirectCtx::new(self.runtime, self.cpu);
        f(&mut ctx).expect("sequential execution cannot abort")
    }

    /// Allocates an object.
    pub fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        let mut ctx = DirectCtx::new(self.runtime, self.cpu);
        ctx.ctx_alloc(data_words)
    }

    /// The executor's CPU, for clock reads and stalls outside sections.
    pub fn cpu(&mut self) -> &mut Cpu<'m> {
        self.cpu
    }
}

/// Coarse-grained-lock executor: every critical section acquires one
/// global spinlock.
pub struct LockExec<'c, 'm> {
    cpu: &'c mut Cpu<'m>,
    runtime: &'c StmRuntime,
    lock: SpinLock,
}

impl std::fmt::Debug for LockExec<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockExec")
            .field("lock", &self.lock)
            .finish_non_exhaustive()
    }
}

impl<'c, 'm> LockExec<'c, 'm> {
    /// Creates an executor guarding its sections with `lock` (share the
    /// same `SpinLock` across threads for a global lock).
    pub fn new(runtime: &'c StmRuntime, cpu: &'c mut Cpu<'m>, lock: SpinLock) -> Self {
        LockExec { cpu, runtime, lock }
    }

    /// Runs one critical section under the lock.
    pub fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        self.lock.acquire(self.cpu);
        let r = {
            let mut ctx = DirectCtx::new(self.runtime, self.cpu);
            f(&mut ctx).expect("lock-based execution cannot abort")
        };
        self.lock.release(self.cpu);
        r
    }

    /// Allocates an object (outside the lock; allocation is thread-safe).
    pub fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        let mut ctx = DirectCtx::new(self.runtime, self.cpu);
        ctx.ctx_alloc(data_words)
    }

    /// The executor's CPU, for clock reads and stalls outside sections.
    pub fn cpu(&mut self) -> &mut Cpu<'m> {
        self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm::{Granularity, StmConfig};
    use hastm_sim::{Machine, MachineConfig, WorkerFn};

    fn setup(cores: usize) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::with_cores(cores));
        let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
        (m, rt)
    }

    #[test]
    fn seq_exec_roundtrip() {
        let (mut m, rt) = setup(1);
        let (v, _) = m.run_one(|cpu| {
            let mut ex = SeqExec::new(&rt, cpu);
            let o = ex.alloc_obj(1);
            ex.atomic(|ctx| ctx.ctx_write(o, 0, 3));
            ex.atomic(|ctx| ctx.ctx_read(o, 0))
        });
        assert_eq!(v, 3);
    }

    #[test]
    fn lock_exec_serializes_increments() {
        let (mut m, rt) = setup(4);
        let lock = SpinLock::alloc(rt.heap());
        let (o, _) = m.run_one(|cpu| {
            let mut ex = SeqExec::new(&rt, cpu);
            ex.alloc_obj(1)
        });
        let rt_ref = &rt;
        let workers: Vec<WorkerFn<'_>> = (0..4)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut ex = LockExec::new(rt_ref, cpu, lock);
                    for _ in 0..25 {
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(o, 0)?;
                            ctx.ctx_write(o, 0, v + 1)
                        });
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        m.run(workers);
        assert_eq!(m.peek_u64(o.word(0)), 100);
    }
}
