//! Determinism regression tests: the simulator's contract is that a run is
//! a pure function of its configuration and seed — *including* cycle
//! counts, cache statistics, and the final memory image — at any thread
//! count and under either schedule policy.
//!
//! These exist because the `hastm-check` determinism sweep has twice
//! caught real regressions the functional tests missed:
//!
//! * HTM watch/violation operations bypassing the logical-clock gate, so
//!   abort timing (and the makespan) depended on host thread scheduling;
//! * worker threads racing on the bump allocator, so heap layout — and
//!   with it cache behavior — permuted run to run.
//!
//! Both bugs left final *values* correct and only wobbled the timing, so
//! an exact [`hastm_sim::RunReport`] comparison is the assertion here.

use hastm::OracleMode;
use hastm_sim::{MachineConfig, SchedulePolicy};
use hastm_workloads::{run_workload, Scheme, Structure, WorkloadConfig};

/// A small-but-contended configuration that exercises aborts, log
/// overflow-free paths, and cross-core invalidations.
fn config(scheme: Scheme, threads: usize, schedule: SchedulePolicy) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_default(Structure::HashTable, scheme, threads);
    cfg.ops_per_thread = 60;
    cfg.key_range = 64;
    cfg.prepopulate = 32;
    cfg.machine = MachineConfig {
        schedule,
        ..MachineConfig::default()
    };
    cfg.oracle = OracleMode::Panic;
    cfg
}

/// Runs `cfg` twice and asserts the *entire* observable outcome matches:
/// makespan, every per-core and machine-wide counter, merged transaction
/// statistics, and the final-state digest.
fn assert_reproducible(cfg: &WorkloadConfig, label: &str) {
    let a = run_workload(cfg);
    let b = run_workload(cfg);
    assert_eq!(a.cycles, b.cycles, "{label}: makespan diverged");
    assert_eq!(a.report, b.report, "{label}: simulator counters diverged");
    assert_eq!(a.txn, b.txn, "{label}: transaction stats diverged");
    assert_eq!(a.total_ops, b.total_ops, "{label}: op counts diverged");
    assert_eq!(a.digest, b.digest, "{label}: final state diverged");
}

#[test]
fn deterministic_schedule_reproduces_at_every_thread_count() {
    for scheme in [Scheme::Stm, Scheme::Hastm, Scheme::Hytm] {
        for threads in [1, 2, 4] {
            let cfg = config(scheme, threads, SchedulePolicy::Deterministic);
            assert_reproducible(&cfg, &format!("{scheme:?} x{threads} deterministic"));
        }
    }
}

#[test]
fn fuzzed_schedule_is_equally_reproducible() {
    // Fuzzing perturbs priorities and injects cache pressure, but from a
    // seeded RNG: the exploration itself must replay exactly.
    for scheme in [Scheme::Stm, Scheme::Hastm, Scheme::Hytm] {
        for threads in [2, 4] {
            let cfg = config(scheme, threads, SchedulePolicy::Fuzzed { seed: 0xfeed });
            assert_reproducible(&cfg, &format!("{scheme:?} x{threads} fuzzed"));
        }
    }
}

#[test]
fn fuzz_seeds_actually_change_the_schedule() {
    // Two different fuzz seeds must explore different interleavings (else
    // the fuzzer is a no-op); the workload's final answer must not care.
    let a = run_workload(&config(
        Scheme::Hastm,
        4,
        SchedulePolicy::Fuzzed { seed: 1 },
    ));
    let b = run_workload(&config(
        Scheme::Hastm,
        4,
        SchedulePolicy::Fuzzed { seed: 2 },
    ));
    assert_ne!(
        a.cycles, b.cycles,
        "different fuzz seeds should produce different schedules"
    );
}

#[test]
fn workload_seed_changes_the_run_but_stays_deterministic() {
    let mut cfg = config(Scheme::Stm, 2, SchedulePolicy::Deterministic);
    cfg.seed = 1;
    let a = run_workload(&cfg);
    assert_reproducible(&cfg, "seed 1");
    cfg.seed = 2;
    let b = run_workload(&cfg);
    assert_ne!(
        (a.cycles, a.digest),
        (b.cycles, b.digest),
        "different workload seeds should differ in schedule or state"
    );
}
