//! Synchronization schemes under comparison and their per-thread
//! executors.
//!
//! Every evaluation figure compares the *same* workload code running under
//! different concurrency-control schemes; [`Scheme`] names them and
//! [`ThreadExec`] gives each thread a uniform `atomic(closure)` interface
//! over whichever machinery the scheme needs.

use hastm::{
    Granularity, ModePolicy, ObjRef, StmConfig, StmRuntime, TmContext, TmExec, TxResult, TxThread,
    TxnStats,
};
use hastm_htm::{HytmStats, HytmThread};
use hastm_locks::{LockExec, SeqExec, SpinLock};
use hastm_sim::{counters, Cpu};

/// A concurrency-control scheme from the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unsynchronized single-thread execution (Figure 16's baseline).
    Sequential,
    /// Coarse-grained spinlock.
    Lock,
    /// The base software TM (§4).
    Stm,
    /// HASTM pinned to cautious mode (§5; "Cautious"/"HASTM-Cautious").
    HastmCautious,
    /// Full HASTM: cautious/aggressive controlled per thread count (§6).
    Hastm,
    /// HASTM with the mark-bit filter disabled (Figure 17,
    /// "HASTM-NoReuse").
    HastmNoReuse,
    /// Always-aggressive-first strawman (Figures 21–22,
    /// "Naïve Aggressive").
    NaiveAggressive,
    /// Best-case hybrid TM (hardware path with record checks, Figure 14).
    Hytm,
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 8] = [
        Scheme::Sequential,
        Scheme::Lock,
        Scheme::Stm,
        Scheme::HastmCautious,
        Scheme::Hastm,
        Scheme::HastmNoReuse,
        Scheme::NaiveAggressive,
        Scheme::Hytm,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Sequential => "Sequential",
            Scheme::Lock => "Lock",
            Scheme::Stm => "STM",
            Scheme::HastmCautious => "HASTM-Cautious",
            Scheme::Hastm => "HASTM",
            Scheme::HastmNoReuse => "HASTM-NoReuse",
            Scheme::NaiveAggressive => "Naive-Aggressive",
            Scheme::Hytm => "Hybrid-TM",
        }
    }

    /// The STM runtime configuration this scheme needs. `threads` selects
    /// the HASTM mode policy: single-threaded runs use the
    /// aggressive-after-commit policy, multi-threaded runs the abort-ratio
    /// watermark (§6).
    pub fn stm_config(self, granularity: Granularity, threads: usize) -> StmConfig {
        let hastm_policy = if threads <= 1 {
            ModePolicy::SingleThreadAggressive
        } else {
            ModePolicy::AbortRatioWatermark { watermark: 0.1 }
        };
        match self {
            Scheme::Sequential | Scheme::Lock | Scheme::Stm | Scheme::Hytm => {
                StmConfig::stm(granularity)
            }
            Scheme::HastmCautious => StmConfig::hastm_cautious(granularity),
            Scheme::Hastm => StmConfig::hastm(granularity, hastm_policy),
            Scheme::HastmNoReuse => {
                let mut c = StmConfig::hastm(granularity, hastm_policy);
                c.no_reuse = true;
                c
            }
            Scheme::NaiveAggressive => StmConfig::hastm(granularity, ModePolicy::NaiveAggressive),
        }
    }

    /// [`Self::stm_config`] with `policy` in place of the mode policy the
    /// thread count selects. The override applies to [`Scheme::Hastm`]
    /// only: every other scheme's policy is what makes it that scheme.
    pub fn stm_config_under(
        self,
        granularity: Granularity,
        threads: usize,
        policy: Option<ModePolicy>,
    ) -> StmConfig {
        let mut c = self.stm_config(granularity, threads);
        if let (Some(p), Scheme::Hastm) = (policy, self) {
            c.mode_policy = p;
        }
        c
    }

    /// Whether this scheme runs transactions through the STM/HASTM engine.
    pub fn is_stm_based(self) -> bool {
        matches!(
            self,
            Scheme::Stm
                | Scheme::HastmCautious
                | Scheme::Hastm
                | Scheme::HastmNoReuse
                | Scheme::NaiveAggressive
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
            Scheme::Hytm => Inner::Hytm(HytmThread::new(runtime, cpu, 4)),
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
        assert!(matches!(
            c.mode_policy,
            ModePolicy::AbortRatioWatermark { .. }
        ));
        let c = Scheme::HastmNoReuse.stm_config(Granularity::CacheLine, 1);
        assert!(c.no_reuse);
        assert!(!Scheme::Hytm.is_stm_based());
        assert!(Scheme::NaiveAggressive.is_stm_based());
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

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Scheme::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Scheme::ALL.len());
    }
}
