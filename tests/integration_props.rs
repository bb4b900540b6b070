//! Property-based cross-crate tests: the simulator against a flat-memory
//! oracle, the TM engine against serializability invariants, and the data
//! structures against a reference map — all under randomized inputs.

use hastm::{Granularity, ModePolicy, ObjRef, OracleMode, StmConfig, StmRuntime, TmExec, TxThread};
use hastm_locks::SpinLock;
use hastm_sim::{Addr, Machine, MachineConfig, WorkerFn};
use hastm_workloads::{check_against_reference, BTree, Bst, HashTable, Scheme, ThreadExec};
use proptest::prelude::*;

/// A single-core op against the simulator.
#[derive(Clone, Debug)]
enum SimOp {
    Load(u8),
    Store(u8, u64),
    LoadSetMark(u8),
    LoadTestMark(u8),
    LoadResetMark(u8),
    ResetMarkAll,
    Cas(u8, u64, u64),
}

fn sim_op() -> impl Strategy<Value = SimOp> {
    prop_oneof![
        any::<u8>().prop_map(SimOp::Load),
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| SimOp::Store(a, v)),
        any::<u8>().prop_map(SimOp::LoadSetMark),
        any::<u8>().prop_map(SimOp::LoadTestMark),
        any::<u8>().prop_map(SimOp::LoadResetMark),
        Just(SimOp::ResetMarkAll),
        (any::<u8>(), any::<u64>(), any::<u64>()).prop_map(|(a, e, n)| SimOp::Cas(a, e, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Values read through the cache hierarchy always equal a flat-memory
    /// oracle's, regardless of evictions, marks, or CAS traffic; and the
    /// mark counter only moves forward between explicit resets.
    #[test]
    fn simulator_matches_flat_memory_oracle(ops in proptest::collection::vec(sim_op(), 1..200)) {
        // Use a tiny cache so evictions actually happen.
        let mut machine = Machine::new(MachineConfig {
            l1: hastm_sim::CacheConfig::new(4, 2),
            l2: hastm_sim::CacheConfig::new(8, 2),
            ..MachineConfig::default()
        });
        machine.run_one(|cpu| {
            let mut oracle = std::collections::HashMap::<u64, u64>::new();
            let addr_of = |a: u8| Addr(0x1_0000 + (a as u64) * 8);
            cpu.reset_mark_counter();
            let mut last_counter = 0;
            for op in &ops {
                match *op {
                    SimOp::Load(a) => {
                        let v = cpu.load_u64(addr_of(a));
                        prop_assert_eq!(v, oracle.get(&(a as u64)).copied().unwrap_or(0));
                    }
                    SimOp::Store(a, v) => {
                        cpu.store_u64(addr_of(a), v);
                        oracle.insert(a as u64, v);
                    }
                    SimOp::LoadSetMark(a) => {
                        let v = cpu.load_set_mark_u64(addr_of(a));
                        prop_assert_eq!(v, oracle.get(&(a as u64)).copied().unwrap_or(0));
                    }
                    SimOp::LoadTestMark(a) => {
                        let (v, _) = cpu.load_test_mark_u64(addr_of(a));
                        prop_assert_eq!(v, oracle.get(&(a as u64)).copied().unwrap_or(0));
                    }
                    SimOp::LoadResetMark(a) => {
                        let v = cpu.load_reset_mark_u64(addr_of(a));
                        prop_assert_eq!(v, oracle.get(&(a as u64)).copied().unwrap_or(0));
                    }
                    SimOp::ResetMarkAll => cpu.reset_mark_all(),
                    SimOp::Cas(a, e, n) => {
                        let old = cpu.cas_u64(addr_of(a), e, n);
                        let expect_old = oracle.get(&(a as u64)).copied().unwrap_or(0);
                        prop_assert_eq!(old, expect_old);
                        if old == e {
                            oracle.insert(a as u64, n);
                        }
                    }
                }
                let c = cpu.read_mark_counter();
                prop_assert!(c >= last_counter, "mark counter is monotone");
                last_counter = c;
            }
            Ok(())
        }).0?;
    }

    /// A marked line that is still marked was never remotely written since
    /// marking: loadtestmark==true implies the loaded value equals the
    /// value captured at loadsetmark time, across random single-core
    /// streams (single core: only evictions can clear marks).
    #[test]
    fn surviving_marks_imply_unchanged_remotely(ops in proptest::collection::vec(sim_op(), 1..150)) {
        let mut machine = Machine::new(MachineConfig {
            l1: hastm_sim::CacheConfig::new(4, 2),
            ..MachineConfig::default()
        });
        machine.run_one(|cpu| {
            let addr_of = |a: u8| Addr(0x2_0000 + (a as u64) * 8);
            // marked_at[a] = value when we last loadsetmark'ed it.
            let mut marked_at = std::collections::HashMap::<u8, u64>::new();
            for op in &ops {
                match *op {
                    SimOp::LoadSetMark(a) => {
                        let v = cpu.load_set_mark_u64(addr_of(a));
                        marked_at.insert(a, v);
                    }
                    SimOp::LoadTestMark(a) => {
                        let (v, marked) = cpu.load_test_mark_u64(addr_of(a));
                        if marked {
                            // Single core, own stores excluded from the map
                            // below, so the value must match.
                            if let Some(&seen) = marked_at.get(&a) {
                                prop_assert_eq!(v, seen);
                            }
                        }
                    }
                    SimOp::Store(a, v) => {
                        cpu.store_u64(addr_of(a), v);
                        // Own store: update expectation (marks survive).
                        if marked_at.contains_key(&a) {
                            marked_at.insert(a, v);
                        }
                    }
                    SimOp::Load(a) => {
                        cpu.load_u64(addr_of(a));
                    }
                    SimOp::LoadResetMark(a) => {
                        cpu.load_reset_mark_u64(addr_of(a));
                        marked_at.remove(&a);
                    }
                    SimOp::ResetMarkAll => {
                        cpu.reset_mark_all();
                        marked_at.clear();
                    }
                    SimOp::Cas(a, e, n) => {
                        let old = cpu.cas_u64(addr_of(a), e, n);
                        if old == e && marked_at.contains_key(&a) {
                            marked_at.insert(a, n);
                        }
                    }
                }
            }
            Ok(())
        }).0?;
    }
}

/// One random map operation.
#[derive(Clone, Debug)]
struct MapOps(Vec<(u8, u64)>);

fn map_ops(max_key: u64) -> impl Strategy<Value = MapOps> {
    proptest::collection::vec((any::<u8>(), 0..max_key), 1..250).prop_map(MapOps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every structure matches a reference BTreeMap on random op streams,
    /// under the full HASTM stack (single thread, aggressive mode active).
    #[test]
    fn structures_match_reference_under_hastm(ops in map_ops(48), which in 0..3usize) {
        let mut machine = Machine::new(MachineConfig::default());
        let runtime = StmRuntime::new(
            &mut machine,
            StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive),
        );
        machine.run_one(|cpu| {
            let mut tx = TxThread::new(&runtime, cpu);
            match which {
                0 => {
                    let m = tx.atomic(|tx| Ok(HashTable::create(tx, 16)));
                    tx.atomic(|tx| { check_against_reference(&m, tx, &ops.0); Ok(()) });
                }
                1 => {
                    let m = tx.atomic(|tx| Ok(Bst::create(tx)));
                    tx.atomic(|tx| {
                        check_against_reference(&m, tx, &ops.0);
                        m.check_invariants(tx)?;
                        Ok(())
                    });
                }
                _ => {
                    let m = tx.atomic(|tx| BTree::create(tx));
                    tx.atomic(|tx| {
                        check_against_reference(&m, tx, &ops.0);
                        m.check_invariants(tx)?;
                        Ok(())
                    });
                }
            }
        });
    }

    /// Concurrent random increments across schemes never lose updates
    /// (serializability of read-modify-write), checked against the exact
    /// expected sum.
    #[test]
    fn no_lost_updates_under_any_scheme(
        seed in any::<u64>(),
        scheme_idx in 0..6usize,
        cores in 2..4usize,
    ) {
        let scheme = [
            Scheme::Lock,
            Scheme::Stm,
            Scheme::HastmUnder(ModePolicy::AlwaysCautious),
            Scheme::Hastm,
            Scheme::HastmUnder(ModePolicy::NaiveAggressive),
            Scheme::Hytm,
        ][scheme_idx];
        let mut machine = Machine::new(MachineConfig::with_cores(cores));
        let runtime = StmRuntime::new(
            &mut machine,
            scheme
                .stm_config(Granularity::CacheLine, cores)
                .with_oracle(OracleMode::Record),
        );
        let lock = SpinLock::alloc(runtime.heap());
        let rt = &runtime;
        let (cells, _) = machine.run_one(|cpu| {
            let mut ex = ThreadExec::new(Scheme::Sequential, rt, cpu, lock);
            let cells: Vec<ObjRef> = (0..4)
                .map(|_| {
                    let mut o = ObjRef::NULL;
                    ex.atomic(|ctx| {
                        o = ctx.ctx_alloc(1);
                        Ok(())
                    });
                    o
                })
                .collect();
            cells
        });
        let cells_ref = &cells;
        let per_thread = 40u64;
        let workers: Vec<WorkerFn<'_>> = (0..cores)
            .map(|tid| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut ex = ThreadExec::new(scheme, rt, cpu, lock);
                    let mut rng = seed | 1 ^ ((tid as u64) << 32);
                    for _ in 0..per_thread {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let cell = cells_ref[(rng % 4) as usize];
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(cell, 0)?;
                            ctx.ctx_write(cell, 0, v + 1)
                        });
                    }
                    assert_eq!(ex.stats().txn.oracle_violations, 0, "{scheme}");
                }) as WorkerFn<'_>
            })
            .collect();
        machine.run(workers);
        let violations = runtime.verify_serializability(&machine);
        prop_assert!(violations.is_empty(), "oracle violations: {:?}", violations);
        let total: u64 = cells.iter().map(|c| machine.peek_u64(c.word(0))).sum();
        prop_assert_eq!(total, per_thread * cores as u64, "scheme {}", scheme);
    }
}
