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

use hastm::Versioning;
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
    /// Version retention of the TL2 runtime. Under [`Versioning::Multi`]
    /// the map workloads' lookups run as read-only snapshot transactions,
    /// which must commit abort-free.
    pub versioning: Versioning,
}

impl std::fmt::Display for NativeTrial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "native/{} seed={} threads={} ops={} v={}",
            self.workload.slug(),
            self.seed,
            self.threads,
            self.ops,
            self.versioning.depth().max(1),
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
            versioning: trial.versioning,
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
}

/// The version retentions every native sweep crosses: single-version and
/// a 3-deep multi-version ring.
pub const VERSIONINGS: [Versioning; 2] = [Versioning::Single, Versioning::Multi { k: 3 }];

impl Default for NativeCheckConfig {
    fn default() -> Self {
        NativeCheckConfig {
            seeds: 32,
            start_seed: 0,
            thread_counts: vec![1, 2, 4, 8],
            ops: 16,
            workloads: Workload::ALL.to_vec(),
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

/// Sweeps workloads × thread counts × [`VERSIONINGS`] across the seed
/// range, calling `on_trial` after each trial with its pass/fail status.
pub fn run_native_suite(
    cfg: &NativeCheckConfig,
    mut on_trial: impl FnMut(&NativeTrial, bool),
) -> NativeSuiteReport {
    let mut report = NativeSuiteReport::default();
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for &threads in &cfg.thread_counts {
            for versioning in VERSIONINGS {
                for &workload in &cfg.workloads {
                    let trial = NativeTrial {
                        workload,
                        seed,
                        threads,
                        ops: cfg.ops,
                        versioning,
                    };
                    let outcome = run_native_trial(&trial);
                    report.trials += 1;
                    on_trial(&trial, outcome.is_ok());
                    match outcome {
                        Ok(out) => report.stats.merge(&out.stats),
                        Err(detail) => report.failures.push(NativeFailure { trial, detail }),
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
    use hastm_sim::mutant::arm;

    #[test]
    fn native_trials_pass_on_every_workload() {
        let _quiet = arm(None);
        for workload in Workload::ALL {
            for versioning in VERSIONINGS {
                let trial = NativeTrial {
                    workload,
                    seed: 7,
                    threads: 3,
                    ops: 12,
                    versioning,
                };
                run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
            }
        }
    }

    /// Trials far longer than a sweep's still fit the one native heap.
    /// Eight threads, the most a native sweep runs, for the most live
    /// words.
    #[test]
    fn long_map_trials_fit_their_heap() {
        let _quiet = arm(None);
        for workload in [Workload::Map, Workload::Bst, Workload::BTree] {
            let trial = NativeTrial {
                workload,
                seed: 0,
                threads: 8,
                ops: 20_000,
                versioning: Versioning::Single,
            };
            run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
        }
    }

    #[test]
    fn multi_version_map_trial_snapshot_reads_abort_free() {
        let _quiet = arm(None);
        let trial = NativeTrial {
            workload: Workload::Map,
            seed: 3,
            threads: 4,
            ops: 24,
            versioning: Versioning::Multi { k: 3 },
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
        let _quiet = arm(None);
        let cfg = NativeCheckConfig {
            seeds: 2,
            thread_counts: vec![1, 2],
            ops: 8,
            ..NativeCheckConfig::default()
        };
        let report = run_native_suite(&cfg, |_, _| {});
        assert_eq!(report.trials, 2 * 2 * 2 * 5);
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
