//! Native-backend differential checks: the same workload definitions as
//! the simulator suite ([`crate::workload`]), run on **host threads** over
//! the [`hastm_native`] TL2 runtime and cross-checked against the
//! simulator's sequential reference.
//!
//! The native backend trades the simulator's deterministic schedule
//! exploration for *real* interleavings, so only the
//! interleaving-independent halves of the invariants apply:
//!
//! * **counter** — the final sum must be exactly `threads × ops`;
//! * **partitioned maps** — each thread's keys stay inside its own
//!   partition, so the final abstract map state (its digest) must equal a
//!   **simulated sequential reference** applying the identical operation
//!   streams — the sim-vs-native differential at the heart of
//!   `hastm-check --backend both`.
//!
//! There is no shrinking here (host schedules are not replayable); a
//! failure reports the exact trial parameters instead, which rerun the
//! same streams under fresh host interleavings.

use hastm::{PhasedParams, Versioning};
use hastm_native::{NativeConfig, NativeStats};
use hastm_workloads::{Definition, NativeSession};

use crate::{snapshot_abort_free, Backend, Workload};

/// One native differential trial.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NativeTrial {
    /// Workload under test.
    pub workload: Workload,
    /// Stream seed (shared with the simulated reference).
    pub seed: u64,
    /// Host threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops: u64,
    /// Whether the native mark-bit filter emulation is enabled.
    pub mark_filter: bool,
    /// Version retention of the TL2 runtime. Under [`Versioning::Multi`]
    /// the map workloads' lookups run as read-only snapshot transactions,
    /// which must commit abort-free.
    pub versioning: Versioning,
    /// Whether the PhTM-style global phase controller runs (with the
    /// hair-trigger [`phased_params`], so small trials actually sweep the
    /// lattice — serial-lock phase included — and recover).
    pub phased: bool,
}

/// Phase parameters for phased native trials: hair-trigger demotion with
/// a short recovery window, so even a 16-op trial can descend to the
/// serial phase and climb back out.
pub fn phased_params() -> PhasedParams {
    PhasedParams {
        demote_after: 1,
        promote_after: 4,
        hysteresis: 2,
        hw_retry_budget: 2,
    }
}

impl std::fmt::Display for NativeTrial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "native/{} seed={} threads={} ops={} filter={} v={}{}",
            self.workload.slug(),
            self.seed,
            self.threads,
            self.ops,
            if self.mark_filter { "on" } else { "off" },
            self.versioning.depth().max(1),
            if self.phased { " phased" } else { "" },
        )
    }
}

/// Outcome of one passing native trial.
#[derive(Clone, Debug)]
pub struct NativeOutcome {
    /// Final-state digest (counter cell fold or map digest).
    pub state: u64,
    /// Merged TL2 counters across the worker threads.
    pub stats: NativeStats,
}

/// The host-thread backend: one [`NativeSession`] per trial, and the
/// verdict: the snapshot guarantee, then the workload's own check.
pub(crate) struct Native<'a>(pub(crate) &'a NativeTrial);

impl Backend for Native<'_> {
    type Outcome = Result<NativeOutcome, String>;

    fn run<W: Definition>(self, w: &W) -> Self::Outcome {
        let trial = self.0;
        let session = NativeSession::new(NativeConfig {
            // The check workloads are tiny; a small heap keeps trials cheap.
            heap_words: 1 << 16,
            stripes: 1 << 12,
            mark_filter: trial.mark_filter,
            versioning: trial.versioning,
            phased: trial.phased.then(phased_params),
            ..NativeConfig::default()
        });
        let (shared, run) = session.run_definition(w, trial.threads);
        // The map streams' gets run through `atomic_ro`, so multi-version
        // trials exercise the native snapshot path.
        snapshot_abort_free(trial.versioning, run.stats.ro_aborts)?;
        let state = session.judge(w, &shared)?;
        Ok(NativeOutcome {
            state,
            stats: run.stats,
        })
    }
}

/// Runs one native trial.
///
/// # Errors
///
/// Returns the violated invariant (lost counter increments, map digest
/// divergence from the simulated sequential reference, or OLTP ledger
/// divergence from the closed-form expected balances).
pub fn run_native_trial(trial: &NativeTrial) -> Result<NativeOutcome, String> {
    let backend = Native(trial);
    trial
        .workload
        .run_on(trial.seed, trial.threads, trial.ops, backend)
}

/// Configuration for a native suite sweep.
#[derive(Clone, Debug)]
pub struct NativeCheckConfig {
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Host thread counts to sweep.
    pub thread_counts: Vec<usize>,
    /// Operations per thread per trial.
    pub ops: u64,
    /// Workloads to run (defaults to all five).
    pub workloads: Vec<Workload>,
    /// Mark-filter settings to sweep. Defaults to off alone, which is
    /// [`NativeConfig`]'s default: the filter emulation is unsound
    /// (DESIGN §9c), so a sweep of it is a sweep for its known write skew.
    pub filter_modes: Vec<bool>,
    /// Versioning settings to sweep (defaults to single-version and a
    /// 3-deep multi-version ring).
    pub versionings: Vec<Versioning>,
    /// Phase-controller settings to sweep (defaults to both off and on).
    pub phased_modes: Vec<bool>,
}

impl Default for NativeCheckConfig {
    fn default() -> Self {
        NativeCheckConfig {
            seeds: 32,
            start_seed: 0,
            thread_counts: vec![1, 2, 4, 8],
            ops: 16,
            workloads: Workload::ALL.to_vec(),
            filter_modes: vec![false],
            versionings: vec![Versioning::Single, Versioning::Multi { k: 3 }],
            phased_modes: vec![false, true],
        }
    }
}

/// One native invariant violation (not shrinkable — host interleavings
/// are not replayable — so the trial parameters are the repro).
#[derive(Clone, Debug)]
pub struct NativeFailure {
    /// The failing trial.
    pub trial: NativeTrial,
    /// Its failure detail.
    pub detail: String,
}

/// Native suite outcome.
#[derive(Clone, Debug, Default)]
pub struct NativeSuiteReport {
    /// Trials executed.
    pub trials: u64,
    /// Every invariant violation found.
    pub failures: Vec<NativeFailure>,
    /// TL2 counters merged across every passing trial.
    pub stats: NativeStats,
}

/// Sweeps workloads × thread counts × filter modes × versionings across
/// the seed range, calling `on_trial` after each trial with its pass/fail
/// status.
pub fn run_native_suite(
    cfg: &NativeCheckConfig,
    mut on_trial: impl FnMut(&NativeTrial, bool),
) -> NativeSuiteReport {
    let mut report = NativeSuiteReport::default();
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for &threads in &cfg.thread_counts {
            for &mark_filter in &cfg.filter_modes {
                for &versioning in &cfg.versionings {
                    for &phased in &cfg.phased_modes {
                        for &workload in &cfg.workloads {
                            let trial = NativeTrial {
                                workload,
                                seed,
                                threads,
                                ops: cfg.ops,
                                mark_filter,
                                versioning,
                                phased,
                            };
                            let outcome = run_native_trial(&trial);
                            report.trials += 1;
                            on_trial(&trial, outcome.is_ok());
                            match outcome {
                                Ok(out) => report.stats.merge(&out.stats),
                                Err(detail) => {
                                    report.failures.push(NativeFailure { trial, detail })
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm::TmExec;
    use hastm_native::{NativeExec, NativeRuntime};

    #[test]
    fn native_trials_pass_on_every_workload() {
        let _guard = crate::tests::TEST_LOCK.lock().unwrap();
        for workload in Workload::ALL {
            for filter in [true, false] {
                for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
                    for phased in [false, true] {
                        let trial = NativeTrial {
                            workload,
                            seed: 7,
                            threads: 3,
                            ops: 12,
                            mark_filter: filter,
                            versioning,
                            phased,
                        };
                        run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn forced_serial_native_counter_is_exact_and_all_serial() {
        use hastm::{Phase, PhaseEvent};
        // Promotion out of Serial is unreachable, and the phase is driven
        // to Serial before the workers start: every single commit must go
        // through the irrevocable serial-lock path, and the counter must
        // still be exact.
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 14,
            stripes: 1 << 10,
            phased: Some(PhasedParams {
                demote_after: 1,
                promote_after: 1 << 20,
                hysteresis: 1,
                hw_retry_budget: 2,
            }),
            ..NativeConfig::default()
        });
        let ps = rt.phase_state().expect("phased runtime");
        while ps.phase() != Phase::Serial {
            ps.on_event(PhaseEvent::CapacityAbort);
        }
        let cell = {
            let mut ex = NativeExec::new(&rt);
            ex.alloc_obj(1)
        };
        let merged = std::sync::Mutex::new(NativeStats::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut ex = NativeExec::new(&rt);
                    for _ in 0..200 {
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(cell, 0)?;
                            ctx.ctx_write(cell, 0, v + 1)
                        });
                    }
                    merged.lock().unwrap().merge(ex.stats());
                });
            }
        });
        assert_eq!(rt.peek(cell.word(0)), 4 * 200);
        let st = merged.into_inner().unwrap();
        assert_eq!(st.commits, 4 * 200);
        assert_eq!(st.serial_commits, 4 * 200, "every commit serial: {st:?}");
        assert_eq!(st.aborts(), 0, "the serial phase has no abort path");
    }

    #[test]
    fn multi_version_map_trial_snapshot_reads_abort_free() {
        let trial = NativeTrial {
            workload: Workload::Map,
            seed: 3,
            threads: 4,
            ops: 24,
            mark_filter: false,
            versioning: Versioning::Multi { k: 3 },
            phased: false,
        };
        let out = run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
        assert!(
            out.stats.ro_commits > 0,
            "gets must run as snapshot transactions: {:?}",
            out.stats
        );
        assert_eq!(out.stats.ro_aborts, 0);
        assert!(out.stats.snapshot_reads > 0);
    }

    #[test]
    fn small_suite_is_clean() {
        let _guard = crate::tests::TEST_LOCK.lock().unwrap();
        let cfg = NativeCheckConfig {
            seeds: 2,
            thread_counts: vec![1, 2],
            ops: 8,
            ..NativeCheckConfig::default()
        };
        let report = run_native_suite(&cfg, |_, _| {});
        assert_eq!(report.trials, 2 * 2 * 2 * 2 * 5);
        assert!(
            report.failures.is_empty(),
            "native suite failures: {:?}",
            report.failures
        );
        assert!(report.stats.commits > 0);
        assert_eq!(
            report.stats.ro_aborts, 0,
            "no snapshot aborts anywhere in the sweep"
        );
    }
}
