//! Cross-crate integration: language-environment features (GC suspension,
//! context switches, default-ISA correctness) and mode-policy behavior,
//! end to end.

use hastm::{Granularity, Mode, ModePolicy, OracleMode, StmConfig, StmRuntime, TxThread};
use hastm_sim::{IsaLevel, Machine, MachineConfig, WorkerFn};
use hastm_workloads::{run_workload, Scheme, Structure, WorkloadConfig};

/// The §3.3 default ISA: HASTM software runs unchanged and stays correct,
/// merely unaccelerated (every validation is a software walk).
#[test]
fn default_isa_level_correct_but_unaccelerated() {
    let run = |isa: IsaLevel| {
        let mut machine = Machine::new(MachineConfig {
            isa,
            ..MachineConfig::default()
        });
        let runtime = StmRuntime::new(
            &mut machine,
            StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive),
        );
        machine
            .run_one(|cpu| {
                let mut tx = TxThread::new(&runtime, cpu);
                let o = tx.alloc_obj(1);
                for i in 0..30u64 {
                    tx.atomic(|tx| {
                        let v = tx.read_word(o, 0)?;
                        tx.write_word(o, 0, v + i)
                    });
                }
                let total = tx.atomic(|tx| tx.read_word(o, 0));
                (total, tx.stats().clone())
            })
            .0
    };
    let (full_total, full_stats) = run(IsaLevel::Full);
    let (def_total, def_stats) = run(IsaLevel::Default);
    assert_eq!(full_total, def_total, "same answers on both ISA levels");
    assert_eq!(full_total, (0..30u64).sum::<u64>());
    assert!(
        full_stats.validations_skipped > 0,
        "full ISA skips validations"
    );
    assert_eq!(
        def_stats.validations_skipped, 0,
        "default ISA conservatively never skips"
    );
    assert_eq!(def_stats.read_fast_path, 0, "default ISA never filters");
}

/// Aggressive mode on the default ISA immediately aborts (counter is
/// conservatively nonzero) and re-executes cautiously — still correct.
#[test]
fn default_isa_aggressive_falls_back() {
    let mut machine = Machine::new(MachineConfig {
        isa: IsaLevel::Default,
        ..MachineConfig::default()
    });
    let runtime = StmRuntime::new(
        &mut machine,
        StmConfig::hastm(Granularity::Object, ModePolicy::NaiveAggressive),
    );
    machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let o = tx.alloc_obj(1);
        let mut modes = Vec::new();
        tx.atomic(|tx| {
            modes.push(tx.mode());
            let v = tx.read_word(o, 0)?;
            tx.write_word(o, 0, v + 1)
        });
        assert_eq!(
            modes,
            vec![Mode::Aggressive, Mode::Cautious],
            "aggressive attempt, cautious re-execution"
        );
        assert_eq!(tx.stats().commits, 1);
        assert!(
            tx.stats().aborts_mark_dirty >= 1,
            "aggressive attempt must abort on the default ISA"
        );
        assert_eq!(tx.stats().cautious_commits, 1);
    });
}

/// A garbage collection pause in the middle of concurrent transactional
/// execution: the paused thread's transaction survives while other cores
/// keep committing.
#[test]
fn gc_pause_amid_concurrency() {
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    let runtime = StmRuntime::new(
        &mut machine,
        StmConfig::hastm_cautious(Granularity::Object).with_oracle(OracleMode::Record),
    );
    let (objs, _) = machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let a = tx.alloc_obj(2);
        let b = tx.alloc_obj(2);
        tx.atomic(|tx| {
            tx.write_word(a, 0, 10)?;
            tx.write_word(b, 0, 20)?;
            Ok(())
        });
        (a, b)
    });
    let (a, b) = objs;
    let rt = &runtime;
    machine.run(vec![
        Box::new(move |cpu: &mut hastm_sim::Cpu| {
            let mut tx = TxThread::new(rt, cpu);
            // Long transaction on `a` with a GC pause + relocation inside.
            tx.atomic(|tx| {
                let v = tx.read_word(a, 0)?;
                tx.write_word(a, 1, v * 2)?;
                let moved = {
                    let mut gc = tx.suspend();
                    gc.relocate_object(a, 2)
                };
                tx.write_word(moved, 0, v + 1)?;
                Ok(())
            });
            assert_eq!(tx.stats().commits, 1);
            assert_eq!(tx.stats().aborts(), 0, "GC never aborts the mutator");
            assert_eq!(tx.stats().oracle_violations, 0);
        }) as WorkerFn<'_>,
        Box::new(move |cpu: &mut hastm_sim::Cpu| {
            let mut tx = TxThread::new(rt, cpu);
            // Unrelated traffic on `b` throughout.
            for _ in 0..40 {
                tx.atomic(|tx| {
                    let v = tx.read_word(b, 0)?;
                    tx.write_word(b, 0, v + 1)
                });
            }
            assert_eq!(tx.stats().oracle_violations, 0);
        }) as WorkerFn<'_>,
    ]);
    assert_eq!(machine.peek_u64(b.word(0)), 60);
    assert_eq!(runtime.verify_serializability(&machine), []);
}

/// Transactions survive context switches on every core of a concurrent
/// run (HTM cannot do this; HASTM pays one software validation).
#[test]
fn context_switches_amid_concurrency() {
    let mut machine = Machine::new(MachineConfig::with_cores(3));
    let runtime = StmRuntime::new(
        &mut machine,
        StmConfig::hastm(Granularity::Object, ModePolicy::AbortRatioWatermark),
    );
    let (counter, _) = machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        tx.alloc_obj(1)
    });
    let rt = &runtime;
    machine.run(
        (0..3)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut tx = TxThread::new(rt, cpu);
                    for i in 0..30u64 {
                        tx.atomic(|tx| {
                            let v = tx.read_word(counter, 0)?;
                            if i % 7 == 0 {
                                tx.context_switch(5_000);
                            }
                            tx.write_word(counter, 0, v + 1)
                        });
                    }
                }) as WorkerFn<'_>
            })
            .collect(),
    );
    assert_eq!(machine.peek_u64(counter.word(0)), 90);
}

/// The single-thread policy follows the paper: first transaction cautious,
/// then aggressive after each commit, cautious again on re-execution.
#[test]
fn single_thread_policy_transitions() {
    let mut machine = Machine::new(MachineConfig::default());
    let runtime = StmRuntime::new(
        &mut machine,
        StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive),
    );
    machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let o = tx.alloc_obj(1);
        let mut modes = Vec::new();
        for _ in 0..4 {
            tx.atomic(|tx| {
                modes.push(tx.mode());
                let v = tx.read_word(o, 0)?;
                tx.write_word(o, 0, v + 1)
            });
        }
        assert_eq!(
            modes,
            vec![
                Mode::Cautious,
                Mode::Aggressive,
                Mode::Aggressive,
                Mode::Aggressive
            ]
        );
    });
}

/// The watermark policy stays cautious while aborts/dirty commits are
/// frequent, protecting multi-core runs from aggressive re-execution storms
/// (the Figure 21/22 mechanism).
#[test]
fn watermark_policy_stays_cautious_under_interference() {
    let mut cfg = WorkloadConfig::paper_default(Structure::BTree, Scheme::Hastm, 4);
    cfg.ops_per_thread = 150;
    cfg.prepopulate = 2048;
    cfg.key_range = 4096;
    cfg.machine = MachineConfig {
        l1: hastm_sim::CacheConfig::new(64, 4),
        l2: hastm_sim::CacheConfig::new(256, 8),
        prefetch_next_line: true,
        ..MachineConfig::default()
    };
    let hastm = run_workload(&cfg);
    cfg.scheme = Scheme::HastmUnder(ModePolicy::NaiveAggressive);
    let naive = run_workload(&cfg);
    assert!(
        hastm.txn.aborts_mark_dirty < naive.txn.aborts_mark_dirty,
        "watermark avoids spurious aborts: {} vs naive {}",
        hastm.txn.aborts_mark_dirty,
        naive.txn.aborts_mark_dirty
    );
    assert!(
        naive.txn.aggressive_commits > hastm.txn.aggressive_commits,
        "naive keeps gambling on aggressive mode"
    );
}
