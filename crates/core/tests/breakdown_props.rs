//! Property test for [`hastm::TimeBreakdown`] accounting: every cycle a
//! thread spends inside `atomic`/`try_atomic` must land in exactly one
//! category, so the per-thread breakdown total equals the cycles elapsed
//! across its transaction calls — across random configs, schedules, core
//! counts, and conflict mixes, including aborted and re-executed attempts.

use hastm::{
    BarrierKind, Granularity, ModePolicy, ObjRef, StmConfig, StmRuntime, TimeBreakdown, TxThread,
};
use hastm_sim::{
    reconcile_mark_discards, Machine, MachineConfig, PhaseSums, RunReport, SchedulePolicy,
    TraceConfig, TraceLog, WorkerFn,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Number of shared objects; small so concurrent threads conflict often.
const CELLS: usize = 4;

#[derive(Clone, Debug)]
struct Scenario {
    granularity: Granularity,
    barrier: BarrierKind,
    policy: ModePolicy,
    schedule: SchedulePolicy,
    threads: usize,
    txns_per_thread: usize,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            prop_oneof![Just(Granularity::Object), Just(Granularity::CacheLine)],
            prop_oneof![Just(BarrierKind::Stm), Just(BarrierKind::Hastm)],
            prop_oneof![
                Just(ModePolicy::AlwaysCautious),
                Just(ModePolicy::SingleThreadAggressive),
                Just(ModePolicy::default()),
            ],
        ),
        (
            prop_oneof![
                Just(SchedulePolicy::Deterministic),
                (0..4u64).prop_map(|seed| SchedulePolicy::Fuzzed { seed }),
                (0..4u64, 2..4u32).prop_map(|(seed, depth)| SchedulePolicy::Pct { seed, depth }),
            ],
            1..=3usize,
            1..=6usize,
            any::<u64>(),
        ),
    )
        .prop_map(
            |((granularity, barrier, policy), (schedule, threads, txns_per_thread, seed))| {
                Scenario {
                    granularity,
                    barrier,
                    policy,
                    schedule,
                    threads,
                    txns_per_thread,
                    seed,
                }
            },
        )
}

/// Runs the scenario and returns, per thread, the cycles spent inside its
/// transaction calls alongside its final breakdown total.
fn run(s: &Scenario) -> Vec<(u64, u64)> {
    let mut m = Machine::new(MachineConfig {
        schedule: s.schedule,
        ..MachineConfig::with_cores(s.threads)
    });
    let config = match s.barrier {
        BarrierKind::Stm => StmConfig::stm(s.granularity),
        BarrierKind::Hastm => StmConfig::hastm(s.granularity, s.policy),
    };
    let rt = StmRuntime::new(&mut m, config);
    let (cells, _) = m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        (0..CELLS).map(|_| tx.alloc_obj(2)).collect::<Vec<ObjRef>>()
    });

    let results: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    let rt_ref = &rt;
    let cells_ref = &cells;
    let results_ref = &results;
    let workers: Vec<WorkerFn<'_>> = (0..s.threads)
        .map(|tid| {
            let base = s.seed ^ ((tid as u64) << 17);
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                let mut elapsed = 0u64;
                for i in 0..s.txns_per_thread {
                    let pick = (base.wrapping_mul(i as u64 + 1)) as usize % CELLS;
                    let t0 = tx.cpu().now();
                    tx.atomic(|tx| {
                        let v = tx.read_word(cells_ref[pick], 0)?;
                        tx.write_word(cells_ref[pick], 0, v + 1)?;
                        tx.write_word(cells_ref[(pick + 1) % CELLS], 1, v)
                    });
                    elapsed += tx.cpu().now() - t0;
                }
                let total = tx.stats().breakdown.total();
                results_ref.lock().unwrap().push((tid, elapsed, total));
            }) as WorkerFn<'_>
        })
        .collect();
    m.run(workers);

    let mut per_thread = results.into_inner().unwrap();
    per_thread.sort_unstable();
    per_thread.into_iter().map(|(_, e, t)| (e, t)).collect()
}

/// Runs the scenario with event tracing armed and returns the summed
/// per-thread breakdown, the trace and the run's report.
fn run_traced(s: &Scenario) -> (TimeBreakdown, TraceLog, RunReport) {
    let mut m = Machine::new(MachineConfig {
        schedule: s.schedule,
        ..MachineConfig::with_cores(s.threads)
    });
    m.set_tracing(Some(TraceConfig));
    let config = match s.barrier {
        BarrierKind::Stm => StmConfig::stm(s.granularity),
        BarrierKind::Hastm => StmConfig::hastm(s.granularity, s.policy),
    };
    let rt = StmRuntime::new(&mut m, config);
    let (cells, _) = m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        (0..CELLS).map(|_| tx.alloc_obj(2)).collect::<Vec<ObjRef>>()
    });

    let merged: Mutex<TimeBreakdown> = Mutex::new(TimeBreakdown::default());
    let rt_ref = &rt;
    let cells_ref = &cells;
    let merged_ref = &merged;
    let workers: Vec<WorkerFn<'_>> = (0..s.threads)
        .map(|tid| {
            let base = s.seed ^ ((tid as u64) << 17);
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt_ref, cpu);
                for i in 0..s.txns_per_thread {
                    let pick = (base.wrapping_mul(i as u64 + 1)) as usize % CELLS;
                    tx.atomic(|tx| {
                        let v = tx.read_word(cells_ref[pick], 0)?;
                        tx.write_word(cells_ref[pick], 0, v + 1)?;
                        tx.write_word(cells_ref[(pick + 1) % CELLS], 1, v)
                    });
                }
                merged_ref.lock().unwrap().merge(&tx.stats().breakdown);
            }) as WorkerFn<'_>
        })
        .collect();
    let report = m.run(workers);
    let log = m.take_trace().expect("tracing was armed");
    (merged.into_inner().unwrap(), log, report)
}

/// A breakdown in the trace's shape.
fn as_sums(bd: &TimeBreakdown) -> PhaseSums {
    PhaseSums {
        tls: bd.tls,
        read_barrier: bd.read_barrier,
        write_barrier: bd.write_barrier,
        validate: bd.validate,
        commit: bd.commit,
        contention: bd.contention,
        app: bd.app,
    }
}

/// A run with more than 65 536 events on one core: the trace holds every
/// event, so both reconciliations hold exactly.
#[test]
fn a_long_traced_run_reconciles_exactly() {
    let s = Scenario {
        granularity: Granularity::CacheLine,
        barrier: BarrierKind::Hastm,
        policy: ModePolicy::default(),
        schedule: SchedulePolicy::Fuzzed { seed: 3 },
        threads: 2,
        txns_per_thread: 1_500,
        seed: 11,
    };
    let (bd, log, report) = run_traced(&s);
    let longest = log.per_core.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        longest > 65_536,
        "only {longest} events on the busiest core"
    );
    assert_eq!(log.phase_sums(), as_sums(&bd));
    let lost: Vec<u64> = report.cores.iter().map(|c| c.marked_lines_lost).collect();
    assert!(lost.iter().sum::<u64>() > 0, "no marked line was lost");
    reconcile_mark_discards(&log, &lost).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn breakdown_categories_sum_to_transaction_cycles(s in scenario()) {
        for (tid, (elapsed, total)) in run(&s).into_iter().enumerate() {
            prop_assert_eq!(
                elapsed,
                total,
                "thread {} of {:?}: breakdown total {} != cycles in atomic {}",
                tid,
                &s,
                total,
                elapsed
            );
        }
    }

    /// Cross-validation against the event trace: the cycle deltas the
    /// trace's `Phase` events carry must sum, per category, to exactly the
    /// run's merged [`TimeBreakdown`] — the trace and the counters are two
    /// views of the same attribution stream, and neither may drop or
    /// double-count a cycle.
    #[test]
    fn trace_phase_sums_equal_breakdown_categories(s in scenario()) {
        let (bd, log, _) = run_traced(&s);
        let sums = log.phase_sums();
        for (name, traced, counted) in [
            ("tls", sums.tls, bd.tls),
            ("read_barrier", sums.read_barrier, bd.read_barrier),
            ("write_barrier", sums.write_barrier, bd.write_barrier),
            ("validate", sums.validate, bd.validate),
            ("commit", sums.commit, bd.commit),
            ("contention", sums.contention, bd.contention),
            ("app", sums.app, bd.app),
        ] {
            prop_assert_eq!(
                traced, counted,
                "category {} of {:?}: trace sums {} != breakdown {}",
                name, &s, traced, counted
            );
        }
    }
}
