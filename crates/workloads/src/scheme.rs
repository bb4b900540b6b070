//! Synchronization schemes under comparison and their per-thread
//! executors.
//!
//! Every evaluation figure compares the *same* workload code running under
//! different concurrency-control schemes; [`Scheme`] names them and
//! [`ThreadExec`] gives each thread a uniform `atomic(closure)` interface
//! over whichever machinery the scheme needs.

use hastm::{
    Granularity, MetricsSnapshot, ModePolicy, ObjRef, StmConfig, StmRuntime, TmContext, TmExec,
    TxResult, TxThread, TxnStats,
};
use hastm_htm::{HytmStats, HytmThread};
use hastm_locks::{LockExec, SeqExec, SpinLock};
use hastm_sim::{counters, Cpu, RunReport};

/// A concurrency-control scheme from the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unsynchronized single-thread execution (Figure 16's baseline).
    Sequential,
    /// Coarse-grained spinlock.
    Lock,
    /// The base software TM (§4).
    Stm,
    /// Full HASTM: cautious/aggressive controlled per thread count (§6).
    Hastm,
    /// HASTM under the named mode policy, whatever the thread count:
    /// [`ModePolicy::AlwaysCautious`] is the paper's "HASTM-Cautious" (§5),
    /// [`ModePolicy::NaiveAggressive`] the always-aggressive-first strawman
    /// of Figures 21–22 ("Naïve Aggressive").
    HastmUnder(ModePolicy),
    /// HASTM with the mark-bit filter disabled (Figure 17,
    /// "HASTM-NoReuse").
    HastmNoReuse,
    /// Best-case hybrid TM (hardware path with record checks, Figure 14).
    Hytm,
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 8] = [
        Scheme::Sequential,
        Scheme::Lock,
        Scheme::Stm,
        Scheme::HastmUnder(ModePolicy::AlwaysCautious),
        Scheme::Hastm,
        Scheme::HastmNoReuse,
        Scheme::HastmUnder(ModePolicy::NaiveAggressive),
        Scheme::Hytm,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Sequential => "Sequential",
            Scheme::Lock => "Lock",
            Scheme::Stm => "STM",
            Scheme::HastmUnder(ModePolicy::AlwaysCautious) => "HASTM-Cautious",
            Scheme::HastmUnder(ModePolicy::NaiveAggressive) => "Naive-Aggressive",
            Scheme::Hastm | Scheme::HastmUnder(_) => "HASTM",
            Scheme::HastmNoReuse => "HASTM-NoReuse",
            Scheme::Hytm => "Hybrid-TM",
        }
    }

    /// The STM runtime configuration this scheme needs: the one map from a
    /// scheme to its runtime. `threads` selects the mode policy of
    /// [`Scheme::Hastm`] and [`Scheme::HastmNoReuse`]: single-threaded runs
    /// use the aggressive-after-commit policy, multi-threaded runs the
    /// abort-ratio watermark (§6). [`Scheme::HastmUnder`] names its own.
    pub fn stm_config(self, granularity: Granularity, threads: usize) -> StmConfig {
        let hastm_policy = if threads <= 1 {
            ModePolicy::SingleThreadAggressive
        } else {
            ModePolicy::AbortRatioWatermark
        };
        match self {
            Scheme::Sequential | Scheme::Lock | Scheme::Stm | Scheme::Hytm => {
                StmConfig::stm(granularity)
            }
            Scheme::Hastm => StmConfig::hastm(granularity, hastm_policy),
            Scheme::HastmUnder(policy) => StmConfig::hastm(granularity, policy),
            Scheme::HastmNoReuse => {
                let mut c = StmConfig::hastm(granularity, hastm_policy);
                c.no_reuse = true;
                c
            }
        }
    }

    /// Whether this scheme runs transactions through the STM/HASTM engine.
    pub fn is_stm_based(self) -> bool {
        matches!(
            self,
            Scheme::Stm | Scheme::Hastm | Scheme::HastmUnder(_) | Scheme::HastmNoReuse
        )
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

counters! {
    /// Everything one executor counted, whichever engine runs its scheme.
    /// A part the scheme does not use stays zero; lock and sequential
    /// executors count nothing.
    pub struct ExecStats {
        /// The STM engine's counters. Zero under [`Scheme::Hytm`] as well:
        /// a transaction its software fallback commits is a
        /// `hytm.sw_commits`.
        txn: TxnStats,
        /// The hybrid's cost per path, hardware against software.
        hytm: HytmStats,
    }
}

impl ExecStats {
    /// Committed transactions.
    pub fn commits(&self) -> u64 {
        self.txn.commits + self.hytm.commits()
    }

    /// Aborted attempts.
    pub fn aborts(&self) -> u64 {
        self.txn.aborts() + self.hytm.aborts()
    }
}

/// A simulator run's whole registry: [`MetricsSnapshot::collect`]'s keys, then `hytm.*`.
pub fn sim_registry(txn: &TxnStats, hytm: &HytmStats, report: &RunReport) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot::collect(txn, report);
    snapshot.extend(hytm.entries());
    snapshot
}

enum Inner<'c, 'm> {
    Seq(SeqExec<'c, 'm>),
    Lock(LockExec<'c, 'm>),
    Stm(TxThread<'c, 'm>),
    Hytm(HytmThread<'c, 'm>),
}

/// One thread's executor for a chosen scheme.
pub struct ThreadExec<'c, 'm> {
    inner: Inner<'c, 'm>,
}

impl std::fmt::Debug for ThreadExec<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            Inner::Seq(_) => "Seq",
            Inner::Lock(_) => "Lock",
            Inner::Stm(_) => "Stm",
            Inner::Hytm(_) => "Hytm",
        };
        f.debug_struct("ThreadExec").field("kind", &kind).finish()
    }
}

impl<'c, 'm> ThreadExec<'c, 'm> {
    /// Builds the executor for `scheme`. `lock` must be the shared global
    /// lock when `scheme` is [`Scheme::Lock`] (ignored otherwise).
    pub fn new(
        scheme: Scheme,
        runtime: &'c StmRuntime,
        cpu: &'c mut Cpu<'m>,
        lock: SpinLock,
    ) -> Self {
        let inner = match scheme {
            Scheme::Sequential => Inner::Seq(SeqExec::new(runtime, cpu)),
            Scheme::Lock => Inner::Lock(LockExec::new(runtime, cpu, lock)),
            Scheme::Hytm => Inner::Hytm(HytmThread::new(runtime, cpu)),
            _ => Inner::Stm(TxThread::new(runtime, cpu)),
        };
        ThreadExec { inner }
    }

    /// What this executor has counted so far.
    pub fn stats(&self) -> ExecStats {
        match &self.inner {
            Inner::Stm(tx) => ExecStats {
                txn: tx.stats().clone(),
                ..ExecStats::default()
            },
            Inner::Hytm(hy) => ExecStats {
                hytm: hy.stats().clone(),
                ..ExecStats::default()
            },
            Inner::Seq(_) | Inner::Lock(_) => ExecStats::default(),
        }
    }

    /// HyTM statistics, if applicable ([`Self::stats`] carries them for
    /// every scheme; `benchmark/` calls this one).
    pub fn hytm_stats(&self) -> Option<HytmStats> {
        match &self.inner {
            Inner::Hytm(hy) => Some(hy.stats().clone()),
            _ => None,
        }
    }

    fn cpu(&mut self) -> &mut Cpu<'m> {
        match &mut self.inner {
            Inner::Seq(e) => e.cpu(),
            Inner::Lock(e) => e.cpu(),
            Inner::Stm(tx) => tx.cpu(),
            Inner::Hytm(hy) => hy.software().cpu(),
        }
    }
}

impl TmExec for ThreadExec<'_, '_> {
    fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        match &mut self.inner {
            Inner::Seq(e) => e.atomic(f),
            Inner::Lock(e) => e.atomic(f),
            Inner::Stm(tx) => tx.atomic(|tx| f(tx)),
            Inner::Hytm(hy) => hy.atomic(f),
        }
    }

    /// Under an STM-based scheme this takes the snapshot-read path
    /// (abort-free when the runtime keeps multi-version rings); every
    /// other scheme — and an STM runtime configured
    /// [`hastm::Versioning::Single`] — executes it as an ordinary atomic
    /// region, so callers can route lookups through this unconditionally.
    fn atomic_ro<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        match &mut self.inner {
            Inner::Stm(tx) => tx.atomic_ro(|tx| f(tx)),
            _ => self.atomic(f),
        }
    }

    fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        match &mut self.inner {
            Inner::Seq(e) => e.alloc_obj(data_words),
            Inner::Lock(e) => e.alloc_obj(data_words),
            Inner::Stm(tx) => tx.alloc_obj(data_words),
            Inner::Hytm(hy) => hy.alloc_obj(data_words),
        }
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
    use hastm_sim::{Machine, MachineConfig};

    #[test]
    fn config_selection() {
        let c = Scheme::Hastm.stm_config(Granularity::Object, 1);
        assert_eq!(c.mode_policy, ModePolicy::SingleThreadAggressive);
        let c = Scheme::Hastm.stm_config(Granularity::Object, 4);
        assert!(matches!(c.mode_policy, ModePolicy::AbortRatioWatermark));
        let c = Scheme::HastmNoReuse.stm_config(Granularity::CacheLine, 1);
        assert!(c.no_reuse);
        assert!(!Scheme::Hytm.is_stm_based());
        let naive = Scheme::HastmUnder(ModePolicy::NaiveAggressive);
        assert!(naive.is_stm_based());
        let c = naive.stm_config(Granularity::Object, 4);
        assert_eq!(c.mode_policy, ModePolicy::NaiveAggressive);
    }

    #[test]
    fn every_scheme_runs_an_increment() {
        for scheme in Scheme::ALL {
            let mut m = Machine::new(MachineConfig::default());
            let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
            let lock = SpinLock::alloc(rt.heap());
            let (v, _) = m.run_one(|cpu| {
                let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
                let o = ex.alloc_obj(1);
                ex.atomic(|ctx| ctx.ctx_write(o, 0, 1));
                ex.atomic(|ctx| {
                    let v = ctx.ctx_read(o, 0)?;
                    ctx.ctx_write(o, 0, v + 41)?;
                    ctx.ctx_read(o, 0)
                })
            });
            assert_eq!(v, 42, "scheme {scheme}");
        }
    }

    #[test]
    fn stats_accessors_match_scheme() {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, Scheme::Hastm.stm_config(Granularity::CacheLine, 1));
        let lock = SpinLock::alloc(rt.heap());
        let mut one_write = |scheme| {
            m.run_one(|cpu| {
                let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
                let o = ex.alloc_obj(1);
                ex.atomic(|ctx| ctx.ctx_write(o, 0, 1));
                (ex.stats(), ex.hytm_stats())
            })
            .0
        };
        let (s, hytm) = one_write(Scheme::Lock);
        assert_eq!(s, ExecStats::default(), "the lock scheme counts nothing");
        assert!(hytm.is_none());
        let (s, hytm) = one_write(Scheme::Hastm);
        assert_eq!((s.txn.commits, s.hytm.commits()), (1, 0));
        assert!(hytm.is_none());
        let (s, hytm) = one_write(Scheme::Hytm);
        assert_eq!(hytm.expect("hytm stats").hw_commits, 1);
        assert_eq!((s.txn.commits, s.commits()), (0, 1));
        let registry = s.entries();
        let get = |key| registry.iter().find(|e| e.0 == key).expect(key).1;
        assert!(get("hytm.hw_commits") + get("hytm.sw_commits") > 0);
    }

    #[test]
    fn ctx_work_charges_cycles_under_every_scheme() {
        for scheme in Scheme::ALL {
            let mut m = Machine::new(MachineConfig::default());
            let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
            let lock = SpinLock::alloc(rt.heap());
            let ((), report) = m.run_one(|cpu| {
                let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
                ex.atomic(|ctx| {
                    ctx.ctx_work(1000);
                    Ok(())
                });
            });
            assert!(
                report.makespan() >= 1000 / 3,
                "{scheme}: app work must advance the clock"
            );
        }
    }

    #[test]
    fn atomic_ro_reads_under_every_scheme_and_versioning() {
        use hastm::Versioning;
        for scheme in Scheme::ALL {
            for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
                let mut m = Machine::new(MachineConfig::default());
                let cfg = scheme
                    .stm_config(Granularity::CacheLine, 1)
                    .with_versioning(versioning);
                let rt = StmRuntime::new(&mut m, cfg);
                let lock = SpinLock::alloc(rt.heap());
                let (v, _) = m.run_one(|cpu| {
                    let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
                    let o = ex.alloc_obj(1);
                    ex.atomic(|ctx| ctx.ctx_write(o, 0, 7));
                    ex.atomic_ro(|ctx| ctx.ctx_read(o, 0))
                });
                assert_eq!(v, 7, "scheme {scheme} versioning {versioning:?}");
                if scheme.is_stm_based() && versioning.is_multi() {
                    // The read-only region must have taken the snapshot
                    // path, not a plain transaction.
                    let mut m2 = Machine::new(MachineConfig::default());
                    let rt2 = StmRuntime::new(
                        &mut m2,
                        scheme
                            .stm_config(Granularity::CacheLine, 1)
                            .with_versioning(versioning),
                    );
                    let lock2 = SpinLock::alloc(rt2.heap());
                    m2.run_one(|cpu| {
                        let mut ex = ThreadExec::new(scheme, &rt2, cpu, lock2);
                        let o = ex.alloc_obj(1);
                        ex.atomic(|ctx| ctx.ctx_write(o, 0, 7));
                        ex.atomic_ro(|ctx| ctx.ctx_read(o, 0));
                        let s = ex.stats().txn;
                        assert_eq!(s.ro_commits, 1, "scheme {scheme}");
                        assert_eq!(s.ro_aborts, 0, "scheme {scheme}");
                    });
                }
            }
        }
    }

    /// `TmExec::atomic`'s contract: a closure's `Err(Abort::Explicit)`
    /// panics, out of `atomic` and `atomic_ro` alike, on every executor.
    #[test]
    fn explicit_abort_panics_on_every_executor() {
        use hastm::{Abort, Versioning};
        use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panics(ex: &mut impl TmExec, read_only: bool) -> bool {
            let abort = |_: &mut dyn TmContext| Err::<(), _>(Abort::Explicit);
            catch_unwind(AssertUnwindSafe(|| match read_only {
                false => ex.atomic(abort),
                true => ex.atomic_ro(abort),
            }))
            .is_err()
        }
        for read_only in [false, true] {
            for scheme in Scheme::ALL {
                let mut m = Machine::new(MachineConfig::default());
                let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
                let lock = SpinLock::alloc(rt.heap());
                let (panicked, _) = m
                    .run_one(|cpu| panics(&mut ThreadExec::new(scheme, &rt, cpu, lock), read_only));
                assert!(panicked, "{scheme}, read-only {read_only}");
            }
            for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
                let rt = NativeRuntime::new(NativeConfig {
                    versioning,
                    ..NativeConfig::default()
                });
                let panicked = panics(&mut NativeExec::new(&rt), read_only);
                assert!(panicked, "native {versioning:?}, read-only {read_only}");
            }
        }
    }

    /// A transactional write inside `atomic_ro`: on a snapshot path
    /// (`Multi { k: 3 }` under the simulator's STM family, or
    /// `NativeRoTxn`) it panics, with one message on both backends; where
    /// `atomic_ro` runs as `atomic` (`Single`, or a scheme without
    /// snapshots) the write commits.
    #[test]
    fn a_write_inside_atomic_ro_panics_only_on_a_snapshot_path() {
        use hastm::Versioning;
        use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        const MESSAGE: &str = "transactional write inside an atomic_ro region on a snapshot path";

        /// Writes inside `atomic_ro`: the panic's message, or `None` once
        /// the write reads back committed.
        fn write_in_ro(ex: &mut impl TmExec) -> Option<String> {
            let o = ex.alloc_obj(1);
            let out = catch_unwind(AssertUnwindSafe(|| {
                ex.atomic_ro(|ctx| ctx.ctx_write(o, 0, 7))
            }));
            match out {
                Ok(()) => {
                    assert_eq!(ex.atomic(|ctx| ctx.ctx_read(o, 0)), 7, "the write commits");
                    None
                }
                Err(payload) => Some(match payload.downcast::<String>() {
                    Ok(message) => *message,
                    Err(payload) => payload
                        .downcast_ref::<&str>()
                        .expect("a message")
                        .to_string(),
                }),
            }
        }
        for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
            for scheme in Scheme::ALL {
                let mut m = Machine::new(MachineConfig::default());
                let cfg = scheme
                    .stm_config(Granularity::CacheLine, 1)
                    .with_versioning(versioning);
                let rt = StmRuntime::new(&mut m, cfg);
                let lock = SpinLock::alloc(rt.heap());
                let (panic, _) =
                    m.run_one(|cpu| write_in_ro(&mut ThreadExec::new(scheme, &rt, cpu, lock)));
                let snapshot = scheme.is_stm_based() && versioning.is_multi();
                assert_eq!(
                    panic.as_deref(),
                    snapshot.then_some(MESSAGE),
                    "{scheme}, {versioning:?}"
                );
            }
            let rt = NativeRuntime::new(NativeConfig {
                versioning,
                ..NativeConfig::default()
            });
            let panic = write_in_ro(&mut NativeExec::new(&rt));
            assert_eq!(
                panic.as_deref(),
                versioning.is_multi().then_some(MESSAGE),
                "native {versioning:?}"
            );
        }
    }

    /// `TmContext::ctx_free`'s contract, on every executor. A free in an
    /// attempt that aborts is void. After a commit only the native
    /// executor hands the object out again, and only the executor that
    /// freed it; under `Multi`, not while a snapshot pinned before the
    /// free is still pinned. Whatever `ctx_alloc` returns reads 0.
    #[test]
    fn only_the_native_executor_that_freed_an_object_reuses_it() {
        use hastm::{Abort, TxThread, Versioning};
        use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
        use std::sync::Barrier;

        /// A two-word object, allocated inside a region, that reads 0.
        fn alloc(ex: &mut impl TmExec) -> ObjRef {
            ex.atomic(|ctx| {
                let obj = ctx.ctx_alloc(2);
                assert_eq!((ctx.ctx_read(obj, 0)?, ctx.ctx_read(obj, 1)?), (0, 0));
                Ok(obj)
            })
        }

        /// Frees a written object in an attempt that aborts (where
        /// attempts can), then in one that commits, and calls `between`
        /// on it before this executor allocates again; returns whether
        /// that allocation returned it.
        fn lifetime(ex: &mut impl TmExec, aborts: bool, between: impl FnOnce(ObjRef)) -> bool {
            let (obj, holder) = (ex.alloc_obj(2), ex.alloc_obj(1));
            ex.atomic(|ctx| {
                ctx.ctx_write(obj, 0, 7)?;
                ctx.ctx_write(obj, 1, 7)
            });
            let mut attempts = 0;
            ex.atomic(|ctx| {
                attempts += 1;
                if aborts && attempts == 1 {
                    ctx.ctx_free(obj, 2);
                    return Err(Abort::Conflict);
                }
                ctx.ctx_write(holder, 0, 1)
            });
            assert_ne!(alloc(ex), obj, "a free in an aborted attempt is void");
            ex.atomic(|ctx| {
                ctx.ctx_write(holder, 0, 2)?;
                ctx.ctx_free(obj, 2);
                Ok(())
            });
            between(obj);
            alloc(ex) == obj
        }

        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
        let (reused, _) = m.run_one(|cpu| lifetime(&mut TxThread::new(&rt, cpu), true, drop));
        assert!(!reused, "TxThread");
        for scheme in Scheme::ALL {
            let mut m = Machine::new(MachineConfig::default());
            let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
            let lock = SpinLock::alloc(rt.heap());
            let aborts = !matches!(scheme, Scheme::Sequential | Scheme::Lock);
            let (reused, _) = m.run_one(|cpu| {
                lifetime(&mut ThreadExec::new(scheme, &rt, cpu, lock), aborts, drop)
            });
            assert!(!reused, "{scheme}");
        }
        for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
            let rt = NativeRuntime::new(NativeConfig {
                versioning,
                ..NativeConfig::default()
            });
            let mut other = NativeExec::new(&rt);
            let reused = lifetime(&mut NativeExec::new(&rt), true, |obj| {
                assert_ne!(
                    alloc(&mut other),
                    obj,
                    "native {versioning:?}: another executor"
                );
            });
            assert!(reused, "native {versioning:?}");
        }

        // A snapshot pinned before the free holds the object back.
        let rt = NativeRuntime::new(NativeConfig {
            versioning: Versioning::Multi { k: 3 },
            ..NativeConfig::default()
        });
        let mut ex = NativeExec::new(&rt);
        let (obj, holder) = (ex.alloc_obj(2), ex.alloc_obj(1));
        let (pinned, unpin) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                NativeExec::new(&rt).atomic_ro(|_| {
                    pinned.wait();
                    unpin.wait();
                    Ok(())
                })
            });
            pinned.wait();
            ex.atomic(|ctx| {
                ctx.ctx_write(holder, 0, 1)?;
                ctx.ctx_free(obj, 2);
                Ok(())
            });
            let used = rt.heap().used_words();
            assert_ne!(alloc(&mut ex), obj, "freed after a live pin");
            assert_eq!(rt.heap().used_words(), used + 3, "fresh heap words");
            unpin.wait();
        });
        assert_eq!(alloc(&mut ex), obj, "taken back once the pin is gone");
        assert_eq!(ex.stats().recycled, 1);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Scheme::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Scheme::ALL.len());
    }
}
