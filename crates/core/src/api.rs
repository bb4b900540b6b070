//! The user-facing transaction API: `atomic` blocks, closed nesting with
//! partial rollback, and `retry`/`orElse` condition synchronization.

use crate::config::{Abort, TxResult, TxnKind};
use crate::stats::Category;
use crate::txn::TxThread;

/// Maximum local retries of a nested transaction before the conflict is
/// escalated to the parent.
const NESTED_RETRY_LIMIT: u32 = 8;

impl<'c, 'm> TxThread<'c, 'm> {
    /// Runs `f` as a transaction, retrying on conflicts until it commits,
    /// and returns its result. This is the runtime entry point for a
    /// language-level `atomic { ... }` block.
    ///
    /// If a transaction is already active, this is a **nested** transaction
    /// and behaves like [`TxThread::nested`] except that non-local aborts
    /// restart the outermost transaction (flat `atomic` composition).
    ///
    /// `Err(Abort::Retry)` from `f` implements the `retry` primitive: the
    /// transaction rolls back and re-executes after a (simulated) wait.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns `Err(Abort::Explicit)`; use
    /// [`TxThread::try_atomic`] for abortable transactions.
    pub fn atomic<R>(&mut self, mut f: impl FnMut(&mut Self) -> TxResult<R>) -> R {
        if self.is_active() {
            match self.nested(&mut f) {
                Ok(r) => return r,
                Err(Abort::Explicit) => panic!("explicit abort inside atomic; use try_atomic"),
                Err(cause) => {
                    // Non-local conflict: the enclosing atomic loop will
                    // observe the error and restart from the top. We cannot
                    // unwind to it from here, so surface as a panic only if
                    // there is no enclosing `atomic` to catch it — which
                    // cannot happen because `is_active()` implied one.
                    // Propagation happens via the TxResult of the enclosing
                    // closure, so re-raise by... aborting to the top level.
                    // The enclosing closure must use `?`; we emulate that by
                    // panicking with a typed payload that the top-level
                    // `atomic` catches.
                    std::panic::panic_any(EscalatedAbort(cause));
                }
            }
        }
        match self.try_atomic(f) {
            Ok(r) => r,
            Err(_) => panic!("explicit abort inside atomic; use try_atomic"),
        }
    }

    /// Like [`TxThread::atomic`], but `Err(Abort::Explicit)` from `f`
    /// rolls the transaction back and surfaces as `Err(Abort::Explicit)`
    /// instead of panicking (user-initiated abort, §2).
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort::Explicit)` iff `f` requested it; all other abort
    /// causes are retried internally.
    pub fn try_atomic<R>(&mut self, f: impl FnMut(&mut Self) -> TxResult<R>) -> Result<R, Abort> {
        self.try_atomic_kind(TxnKind::ReadWrite, f)
    }

    /// Runs `f` as a transaction declared **read-only**
    /// ([`TxnKind::ReadOnly`]), retrying until it commits.
    ///
    /// Under [`crate::Versioning::Multi`] the transaction reads a
    /// consistent snapshot at its start stamp and commits without
    /// validation — it cannot conflict-abort, so `f` runs exactly once
    /// (unless it requests `retry`). Under [`crate::Versioning::Single`]
    /// this is [`TxThread::atomic`]. Writing inside `f` is a bug and
    /// panics on the snapshot path.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active, if `f` writes on the
    /// snapshot path, or if `f` returns `Err(Abort::Explicit)` (use
    /// [`TxThread::try_atomic_ro`]).
    pub fn atomic_ro<R>(&mut self, f: impl FnMut(&mut Self) -> TxResult<R>) -> R {
        assert!(!self.is_active(), "atomic_ro requires no enclosing txn");
        match self.try_atomic_kind(TxnKind::ReadOnly, f) {
            Ok(r) => r,
            Err(_) => panic!("explicit abort inside atomic_ro; use try_atomic_ro"),
        }
    }

    /// [`TxThread::atomic_ro`] with `Err(Abort::Explicit)` surfaced to the
    /// caller instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns `Err(Abort::Explicit)` iff `f` requested it.
    pub fn try_atomic_ro<R>(
        &mut self,
        f: impl FnMut(&mut Self) -> TxResult<R>,
    ) -> Result<R, Abort> {
        self.try_atomic_kind(TxnKind::ReadOnly, f)
    }

    fn try_atomic_kind<R>(
        &mut self,
        kind: TxnKind,
        mut f: impl FnMut(&mut Self) -> TxResult<R>,
    ) -> Result<R, Abort> {
        assert!(!self.is_active(), "try_atomic requires no enclosing txn");
        let mut attempt: u32 = 0;
        loop {
            // The span starts *before* `begin` and the roll-back in `abort`
            // runs before the span is captured, so their bookkeeping cycles
            // land in App (per its contract: "application work, begin/abort
            // bookkeeping") — every cycle of the attempt is attributed to
            // exactly one category and the breakdown sums to elapsed time.
            let t_begin = self.cpu.now();
            let non_app_before = self.stats.breakdown.total() - self.stats.breakdown.app;
            match kind {
                TxnKind::ReadWrite => self.begin(attempt),
                TxnKind::ReadOnly => self.begin_ro(attempt),
            }
            // Captured now: the commit/abort hooks consume `self.phase`.
            let attempt_phase = self.phase;
            let outcome = match catch_escalation(|| f(self)) {
                Ok(body) => body.and_then(|r| self.commit().map(|()| r)),
                Err(cause) => Err(cause),
            };
            if let Err(cause) = &outcome {
                self.abort(*cause);
            }
            // Attribute un-categorized transaction time to App.
            let span = self.cpu.now() - t_begin;
            let non_app_after = self.stats.breakdown.total() - self.stats.breakdown.app;
            let overhead = non_app_after - non_app_before;
            self.attribute(Category::App, span.saturating_sub(overhead));
            if let Some(p) = attempt_phase {
                // HyTM cost-model instrumentation: time-in-phase and the
                // phase's fast-path penalty (non-application cycles).
                self.stats.phase_cycles[p.idx()] += span;
                self.stats.phase_overhead_cycles[p.idx()] += overhead;
            }
            match outcome {
                Ok(r) => return Ok(r),
                Err(cause) => {
                    if cause == Abort::Explicit {
                        return Err(Abort::Explicit);
                    }
                    // Exponential backoff with jitter before re-executing;
                    // `retry` waits longer (condition polling).
                    let shift = attempt.min(8);
                    let base = match cause {
                        Abort::Retry => 256u64 << shift.min(4),
                        _ => 32u64 << shift,
                    };
                    let wait = base + self.next_rand() % base;
                    self.timed(Category::Contention, |t| t.cpu.tick(wait));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Runs `f` as a closed nested transaction with partial rollback.
    ///
    /// On a conflict that involves only state read/written *inside* the
    /// nested scope, the nested transaction is rolled back to its savepoint
    /// and retried locally (up to a bounded number of times) without
    /// disturbing the parent. Conflicts touching the parent's footprint —
    /// or explicit aborts and retries — roll back the nested scope and
    /// propagate.
    ///
    /// # Errors
    ///
    /// Propagates the abort cause when the parent must handle it.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn nested<R>(&mut self, mut f: impl FnMut(&mut Self) -> TxResult<R>) -> TxResult<R> {
        assert!(self.is_active(), "nested requires an active transaction");
        self.stats.nested_begins += 1;
        let sp = self.savepoint();
        self.savepoints.push(sp);
        let mut local_attempt = 0;
        let result = loop {
            match f(self) {
                Ok(r) => break Ok(r),
                Err(cause) => {
                    self.rollback_to(sp);
                    self.stats.nested_rollbacks += 1;
                    let local = cause == Abort::Conflict
                        && local_attempt < NESTED_RETRY_LIMIT
                        && self.parent_portion_valid(sp);
                    if !local {
                        break Err(cause);
                    }
                    local_attempt += 1;
                    let wait = 32u64 << local_attempt.min(6);
                    let jitter = self.next_rand() % wait;
                    self.timed(Category::Contention, |t| t.cpu.tick(wait + jitter));
                }
            }
        };
        self.savepoints.pop();
        result
    }

    /// `orElse` composition (§2, §5): runs `f`; if it calls
    /// [`TxThread::retry_now`], rolls it back and runs `g`; if both retry,
    /// propagates `Retry` so the enclosing atomic waits.
    ///
    /// # Errors
    ///
    /// Propagates aborts from whichever alternative ran.
    pub fn or_else<R>(
        &mut self,
        f: impl FnMut(&mut Self) -> TxResult<R>,
        g: impl FnMut(&mut Self) -> TxResult<R>,
    ) -> TxResult<R> {
        match self.nested(f) {
            Err(Abort::Retry) => self.nested(g),
            other => other,
        }
    }

    /// The `retry` primitive: aborts and blocks until (a change suggests)
    /// the transaction might take a different path. Use as
    /// `return tx.retry_now();`.
    ///
    /// # Errors
    ///
    /// Always returns `Err(Abort::Retry)`.
    pub fn retry_now<R>(&mut self) -> TxResult<R> {
        Err(Abort::Retry)
    }

    /// User-initiated abort. Use as `return tx.abort_now();` inside
    /// [`TxThread::try_atomic`].
    ///
    /// # Errors
    ///
    /// Always returns `Err(Abort::Explicit)`.
    pub fn abort_now<R>(&mut self) -> TxResult<R> {
        Err(Abort::Explicit)
    }
}

/// Payload for aborts escalated out of an inner flat `atomic`.
struct EscalatedAbort(Abort);

/// Runs `f`, converting an [`EscalatedAbort`] panic back into its cause.
fn catch_escalation<R>(f: impl FnOnce() -> TxResult<R>) -> Result<TxResult<R>, Abort> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    match result {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<EscalatedAbort>() {
            Ok(esc) => Err(esc.0),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Granularity, StmConfig};
    use crate::runtime::StmRuntime;
    use hastm_sim::{Machine, MachineConfig};

    fn setup(config: StmConfig) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        (m, rt)
    }

    #[test]
    fn atomic_commits_and_returns() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| {
                tx.write_word(o, 0, 5)?;
                tx.read_word(o, 0)
            })
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn try_atomic_explicit_abort_rolls_back() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| tx.write_word(o, 0, 1));
            let r: Result<(), Abort> = tx.try_atomic(|tx| {
                tx.write_word(o, 0, 99)?;
                tx.abort_now()
            });
            assert_eq!(r, Err(Abort::Explicit));
            let v = tx.atomic(|tx| tx.read_word(o, 0));
            assert_eq!(v, 1, "explicit abort rolled back the write");
            assert_eq!(tx.stats().aborts_explicit, 1);
        });
    }

    #[test]
    #[should_panic(expected = "use try_atomic")]
    fn atomic_panics_on_explicit_abort() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.atomic(|tx| tx.abort_now::<()>());
        });
    }

    #[test]
    fn nested_commit_merges_into_parent() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(2);
            tx.atomic(|tx| {
                tx.write_word(o, 0, 10)?;
                tx.nested(|tx| tx.write_word(o, 1, 20))?;
                Ok(())
            });
            tx.atomic(|tx| Ok((tx.read_word(o, 0)?, tx.read_word(o, 1)?)))
        });
        assert_eq!(v, (10, 20));
    }

    #[test]
    fn nested_explicit_abort_partially_rolls_back() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(2);
            tx.atomic(|tx| {
                tx.write_word(o, 0, 10)?;
                let inner: TxResult<()> = tx.nested(|tx| {
                    tx.write_word(o, 1, 99)?;
                    Err(Abort::Explicit)
                });
                assert_eq!(inner, Err(Abort::Explicit));
                // Parent continues: its own write survives, nested one is
                // rolled back.
                Ok(())
            });
            tx.atomic(|tx| Ok((tx.read_word(o, 0)?, tx.read_word(o, 1)?)))
        });
        assert_eq!(v, (10, 0), "nested write undone, parent write kept");
    }

    #[test]
    fn nested_atomic_composes() {
        // An `atomic` inside an `atomic` is a nested transaction.
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| {
                tx.write_word(o, 0, 1)?;
                let inner = tx.atomic(|tx| tx.read_word(o, 0));
                tx.write_word(o, 0, inner + 1)?;
                tx.read_word(o, 0)
            })
        });
        assert_eq!(v, 2);
        // Nested bookkeeping visible.
    }

    #[test]
    fn or_else_takes_second_branch_on_retry() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let (v, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(1);
            tx.atomic(|tx| {
                tx.or_else(
                    |tx| {
                        let v = tx.read_word(o, 0)?;
                        if v == 0 {
                            tx.retry_now()
                        } else {
                            Ok(v)
                        }
                    },
                    |tx| {
                        tx.write_word(o, 0, 7)?;
                        Ok(100)
                    },
                )
            })
        });
        assert_eq!(v, 100, "first branch retried; second ran");
    }

    #[test]
    fn retry_blocks_until_condition_changes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Producer/consumer across two cores: the consumer `retry`s until
        // the producer publishes a value. (The object is allocated in a
        // setup run; host-side blocking inside workers would stall the
        // logical-clock gate.)
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
        let (o, _) = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.alloc_obj(1)
        });
        let got = AtomicU64::new(0);
        let got_ref = &got;
        let rt_ref = &rt;
        m.run(vec![
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                // Let the consumer start retrying first.
                tx.cpu().tick(20_000);
                tx.atomic(|tx| tx.write_word(o, 0, 42));
            }),
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                let v = tx.atomic(|tx| {
                    let v = tx.read_word(o, 0)?;
                    if v == 0 {
                        tx.retry_now()
                    } else {
                        Ok(v)
                    }
                });
                got_ref.store(v, Ordering::Relaxed);
            }),
        ]);
        assert_eq!(got.load(Ordering::Relaxed), 42);
    }
}
