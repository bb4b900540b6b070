//! A scheme-independent interface for code running inside a critical
//! section / transaction.
//!
//! The paper's evaluation runs the *same* data-structure code under
//! coarse-grained locks, the base STM, HASTM variants, and best-case HyTM.
//! [`TmContext`] is that common surface: transactional reads/writes of
//! object words plus allocation. Each synchronization scheme provides an
//! executor that repeatedly runs a closure over a `TmContext`
//! implementation (`TxThread` here; lock/sequential/HyTM executors live in
//! the `hastm-locks`, `hastm-htm`, and `hastm-workloads` crates).

use crate::config::TxResult;
use crate::runtime::ObjRef;
use crate::txn::TxThread;

/// Operations available inside one atomic region, independent of how the
/// region is implemented.
pub trait TmContext {
    /// Reads data word `index` of `obj`.
    ///
    /// # Errors
    ///
    /// Returns the abort cause when the enclosing transaction must roll
    /// back (never errs for lock-based or sequential execution).
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64>;

    /// Writes data word `index` of `obj`.
    ///
    /// # Errors
    ///
    /// Returns the abort cause when the enclosing transaction must roll
    /// back.
    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()>;

    /// Allocates a fresh object with `data_words` payload words.
    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef;

    /// Bounds doomed-transaction ("zombie") execution: long pointer chases
    /// call this periodically; optimistic schemes revalidate and abort if
    /// inconsistent.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the execution is already doomed.
    fn ctx_guard(&mut self) -> TxResult<()> {
        Ok(())
    }

    /// Charges `cycles` of application compute (compares, branches,
    /// address arithmetic around the memory accesses). Charged identically
    /// under every scheme, so it calibrates the app-to-overhead ratio
    /// without biasing comparisons.
    fn ctx_work(&mut self, cycles: u64);
}

/// A transaction executor: the backend abstraction over *how* atomic
/// regions run. The simulator-backed executors (`TxThread` here, the
/// lock/sequential/HyTM executors, and `hastm-workloads`' scheme-erased
/// `ThreadExec`) and the host-thread TL2 backend in `hastm-native` all
/// implement this, so harness code written against `TmExec` — workload
/// setup, operation streams, digest sweeps — runs unchanged on simulated
/// cycles or on real hardware.
///
/// `atomic` is generic over the closure's result, so the trait is not
/// object-safe; callers that need dynamic dispatch hold a concrete
/// executor and erase at the [`TmContext`] layer instead (which is what
/// the data structures already do).
pub trait TmExec {
    /// Runs `f` as one atomic region, retrying on aborts until it
    /// commits, and returns its result.
    fn atomic<R>(&mut self, f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R
    where
        Self: Sized;

    /// Runs `f` as one atomic region **declared read-only**. Backends
    /// with a snapshot path ([`crate::Versioning::Multi`] on the
    /// simulator, the k-versioned TL2 stripes on the native backend) read
    /// a consistent snapshot and commit without validation — the region
    /// cannot conflict-abort. `f` must not write. The default falls back
    /// to [`TmExec::atomic`] for backends without one.
    fn atomic_ro<R>(&mut self, f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R
    where
        Self: Sized,
    {
        self.atomic(f)
    }

    /// Allocates an object with `data_words` payload words outside any
    /// atomic region.
    fn alloc_obj(&mut self, data_words: u32) -> ObjRef;

    /// The executor's monotonic clock, read outside any atomic region:
    /// simulated cycles on the simulator backends, host nanoseconds on the
    /// native TL2 backend. Open-loop drivers (the OLTP traffic mill) stamp
    /// per-transaction arrival and completion with this. The default (a
    /// constant 0) is for executors with no meaningful clock; latency
    /// accounting on top of it degenerates gracefully to all-zero samples.
    fn clock(&mut self) -> u64 {
        0
    }

    /// Blocks (simulated stall or host spin) until [`TmExec::clock`]
    /// reaches `tick`; returns immediately if it already has. Open-loop
    /// drivers use this to hold each transaction until its scheduled
    /// arrival.
    fn idle_until(&mut self, tick: u64) {
        let _ = tick;
    }
}

impl TmContext for TxThread<'_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        self.read_word(obj, index)
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        self.write_word(obj, index, value)
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        self.alloc_obj(data_words)
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        self.validate_now()
    }

    fn ctx_work(&mut self, cycles: u64) {
        self.cpu().exec(cycles);
    }
}

impl TmExec for TxThread<'_, '_> {
    fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        TxThread::atomic(self, |tx| f(tx))
    }

    fn atomic_ro<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        TxThread::atomic_ro(self, |tx| f(tx))
    }

    fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        TxThread::alloc_obj(self, data_words)
    }

    fn clock(&mut self) -> u64 {
        self.cpu().now()
    }

    fn idle_until(&mut self, tick: u64) {
        self.cpu().idle_until(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Granularity, StmConfig};
    use crate::runtime::StmRuntime;
    use hastm_sim::{Machine, MachineConfig};

    /// Generic increment usable under any scheme.
    fn bump(ctx: &mut dyn TmContext, obj: ObjRef) -> TxResult<u64> {
        let v = ctx.ctx_read(obj, 0)?;
        ctx.ctx_write(obj, 0, v + 1)?;
        ctx.ctx_guard()?;
        Ok(v + 1)
    }

    #[test]
    fn txthread_implements_context() {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| bump(tx, o));
            tx.atomic(|tx| bump(tx, o))
        });
        assert_eq!(v, 2);
    }
}
