//! Sim-vs-native differential suite for the OLTP traffic mill, mirroring
//! `native_differential.rs`: the mill runs on real host threads over the
//! TL2 runtime at 1/2/4/8 threads across 32 seeds, and the final ledger must match the closed-form expectation —
//! the same interleaving-independent reference the simulator backend is
//! checked against, so zero divergence here is zero sim-vs-native
//! divergence.
//!
//! These are the invariants `hastm-check --workload oltp --backend both`
//! sweeps; the test pins them into `cargo test` so a regression in either
//! backend's mill cannot land silently.

use hastm::Versioning;
use hastm_check::native::{run_native_suite, run_native_trial, NativeCheckConfig, NativeTrial};
use hastm_check::{run_trial, Combo, Sched, Trial, Workload};

const SEEDS: u64 = 32;

#[test]
fn oltp_matches_reference_across_seeds_and_threads() {
    let cfg = NativeCheckConfig {
        seeds: SEEDS,
        start_seed: 0,
        thread_counts: vec![1, 2, 4, 8],
        ops: 12,
        workloads: vec![Workload::Oltp],
    };
    // Each point runs single- and multi-version, phased and not.
    let expected = cfg.seeds * (cfg.thread_counts.len() * 2 * 2 * cfg.workloads.len()) as u64;
    let report = run_native_suite(&cfg, |_, _| {});
    assert_eq!(report.trials, expected);
    assert!(
        report.failures.is_empty(),
        "{} native oltp divergence(s), first: {} — {}",
        report.failures.len(),
        report.failures[0].trial,
        report.failures[0].detail
    );
    assert!(report.stats.commits > 0);
}

#[test]
fn sim_and_native_digests_agree_directly() {
    // Belt and braces on top of the shared closed-form check: the exact
    // ledger digest the simulator's STM run produces must equal the one
    // the native TL2 run produces for the same (seed, threads) point.
    for seed in 0..6u64 {
        for threads in [2usize, 4] {
            let trial = NativeTrial {
                workload: Workload::Oltp,
                seed,
                threads,
                ops: 12,
                versioning: Versioning::Single,
                phased: false,
            };
            let native = run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
            // Base STM at line granularity under the fuzzed schedule.
            let sim = run_trial(&Trial {
                combo: Combo::parse("stm:line:full").unwrap(),
                workload: Workload::Oltp,
                seed,
                threads,
                ops: 12,
                sched: Sched::Fuzzed,
            })
            .unwrap_or_else(|e| panic!("sim oltp seed={seed} threads={threads}: {e}"))
            .state;
            assert_eq!(
                native.state, sim,
                "seed {seed} threads {threads}: native ledger digest diverges from the sim's"
            );
        }
    }
}

#[test]
fn oversubscribed_mill_still_converges() {
    // 8 host threads on any core count forces preemption mid-transaction
    // (including inside the open-loop idle spins); TL2 must still converge
    // to the closed-form ledger.
    let trial = NativeTrial {
        workload: Workload::Oltp,
        seed: 99,
        threads: 8,
        ops: 24,
        versioning: Versioning::Multi { k: 3 },
        phased: false,
    };
    run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
}
