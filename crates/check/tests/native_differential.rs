//! Sim-vs-native differential regression suite: every check workload
//! (counter, hash map, BST, B-tree) runs on real host threads over the
//! TL2 runtime at 1/2/4/8 threads across 32 seeds, and its final state
//! must be identical to the simulator's sequential reference for the
//! same operation streams.
//!
//! These are the invariants `hastm-check --backend both` sweeps; the test
//! pins them into `cargo test` so a native-runtime regression cannot land
//! silently. Trial sizes are kept small — the property needs many
//! (seed, thread-count) points, not long streams.

use hastm::Versioning;
use hastm_check::native::{run_native_suite, run_native_trial, NativeCheckConfig, NativeTrial};
use hastm_check::Workload;

const SEEDS: u64 = 32;

fn sweep(workloads: Vec<Workload>, thread_counts: Vec<usize>, ops: u64) {
    let cfg = NativeCheckConfig {
        seeds: SEEDS,
        start_seed: 0,
        thread_counts,
        ops,
        workloads,
    };
    // Each point runs single- and multi-version, phased and not.
    let expected = cfg.seeds * (cfg.thread_counts.len() * 2 * 2 * cfg.workloads.len()) as u64;
    let report = run_native_suite(&cfg, |_, _| {});
    assert_eq!(report.trials, expected);
    assert!(
        report.failures.is_empty(),
        "{} native divergence(s), first: {} — {}",
        report.failures.len(),
        report.failures[0].trial,
        report.failures[0].detail
    );
    assert!(report.stats.commits > 0);
}

#[test]
fn counter_matches_reference_across_seeds_and_threads() {
    sweep(vec![Workload::Counter], vec![1, 2, 4, 8], 24);
}

#[test]
fn hash_map_matches_reference_across_seeds_and_threads() {
    sweep(vec![Workload::Map], vec![1, 2, 4, 8], 12);
}

#[test]
fn bst_matches_reference_across_seeds_and_threads() {
    sweep(vec![Workload::Bst], vec![1, 2, 4, 8], 12);
}

#[test]
fn btree_matches_reference_across_seeds_and_threads() {
    sweep(vec![Workload::BTree], vec![1, 2, 4, 8], 12);
}

#[test]
fn single_and_multi_versioning_agree_on_final_state() {
    // Snapshot reads are a pure read-path optimisation: for identical
    // trials the k-deep version rings must never change the final state a
    // writer-visible observer reports. (The shared reference check inside
    // `run_native_trial` already pins each run to the sim's sequential
    // state; this additionally pins the two versioning modes to each
    // other.)
    for workload in Workload::ALL {
        for seed in 0..4 {
            let outcome = |versioning| {
                run_native_trial(&NativeTrial {
                    workload,
                    seed,
                    threads: 4,
                    ops: 16,
                    versioning,
                    phased: false,
                })
                .unwrap_or_else(|e| panic!("{workload:?} seed={seed}: {e}"))
            };
            assert_eq!(
                outcome(Versioning::Single).state,
                outcome(Versioning::Multi { k: 3 }).state,
                "{workload:?} seed={seed}: version rings changed the final state"
            );
        }
    }
}

#[test]
fn multi_version_ro_scans_sweep_abort_free_across_thread_counts() {
    // The zero-RO-abort guarantee at every thread count the differential
    // suite exercises: under Multi(k) the map workload's read-only gets
    // and scans must commit on their snapshot without a single abort —
    // on the hash table and on the BST, whose lookups walk pointers a
    // concurrent rotation rewrites. `run_native_trial` itself fails the
    // trial on any RO abort under Multi; this sweep drives that check
    // across 1/2/4/8 host threads.
    let (mut ro_commits, mut snapshot_reads, mut versions_published) = (0u64, 0u64, 0u64);
    for workload in [Workload::Map, Workload::Bst] {
        for threads in [1usize, 2, 4, 8] {
            for seed in 0..6 {
                let trial = NativeTrial {
                    workload,
                    seed,
                    threads,
                    ops: 16,
                    versioning: Versioning::Multi { k: 3 },
                    phased: false,
                };
                let out = run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
                assert!(out.stats.commits > 0, "{trial}: no commits recorded");
                assert_eq!(
                    out.stats.ro_aborts, 0,
                    "{trial}: read-only snapshot aborted"
                );
                ro_commits += out.stats.ro_commits;
                snapshot_reads += out.stats.snapshot_reads;
                versions_published += out.stats.versions_published;
            }
        }
    }
    assert!(
        ro_commits > 0 && snapshot_reads > 0,
        "the sweep never took the read-only snapshot path"
    );
    assert!(versions_published > 0, "writers never published a version");
}

#[test]
fn phased_and_unphased_agree_on_final_state() {
    // The phase controller may reorder and serialize execution, but it
    // must never change what the workloads commit — phased and unphased
    // twins of a trial land on the same final state (both are already
    // pinned to the simulated sequential reference inside
    // `run_native_trial`; this pins them to each other too).
    for workload in Workload::ALL {
        for seed in 0..4 {
            let outcome = |phased| {
                run_native_trial(&NativeTrial {
                    workload,
                    seed,
                    threads: 4,
                    ops: 16,
                    versioning: Versioning::Single,
                    phased,
                })
                .unwrap_or_else(|e| panic!("{workload:?} seed={seed}: {e}"))
            };
            assert_eq!(
                outcome(true).state,
                outcome(false).state,
                "{workload:?} seed={seed}: the phase controller changed the final state"
            );
        }
    }
}

#[test]
fn oversubscribed_thread_count_still_converges() {
    // 8 host threads on any core count (this suite also runs on 1-CPU
    // hosts) forces preemption mid-transaction; TL2 must still converge
    // to the reference state.
    for workload in [Workload::Counter, Workload::Bst] {
        for versioning in [Versioning::Single, Versioning::Multi { k: 3 }] {
            let trial = NativeTrial {
                workload,
                seed: 99,
                threads: 8,
                ops: 32,
                versioning,
                phased: false,
            };
            run_native_trial(&trial).unwrap_or_else(|e| panic!("{trial}: {e}"));
        }
    }
}
