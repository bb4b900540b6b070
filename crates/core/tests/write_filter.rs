//! Tests for the §5 write-barrier/undo-log filtering extension (second
//! mark filter): correctness under nesting, rollback, contention, and
//! concurrency — and that it actually pays on write-heavy transactions.

use hastm::{Abort, Granularity, ModePolicy, ObjRef, OracleMode, StmConfig, StmRuntime, TxThread};
use hastm_sim::{Machine, MachineConfig, WorkerFn};

fn cfg(filter_writes: bool) -> StmConfig {
    let mut c = StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive);
    c.filter_writes = filter_writes;
    c
}

#[test]
fn repeat_writes_take_fast_path() {
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, cfg(true));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(2);
        tx.atomic(|tx| {
            for i in 0..10 {
                tx.write_word(o, 0, i)?;
            }
            Ok(())
        });
        assert_eq!(tx.stats().write_fast_path, 9, "writes 2..10 filtered");
        assert_eq!(tx.stats().undo_elided, 9, "one undo entry suffices");
        let v = tx.atomic(|tx| tx.read_word(o, 0));
        assert_eq!(v, 9);
    });
}

#[test]
fn filtered_writes_roll_back_to_pretxn_value() {
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, cfg(true));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(1);
        tx.atomic(|tx| tx.write_word(o, 0, 100));
        let r: Result<(), Abort> = tx.try_atomic(|tx| {
            tx.write_word(o, 0, 1)?;
            tx.write_word(o, 0, 2)?; // elided undo
            tx.write_word(o, 0, 3)?; // elided undo
            tx.abort_now()
        });
        assert!(r.is_err());
        let v = tx.atomic(|tx| tx.read_word(o, 0));
        assert_eq!(v, 100, "rollback restores the pre-transaction value");
    });
}

#[test]
fn nested_scopes_get_their_own_undo_entries() {
    // An address written before a savepoint and again inside the nested
    // scope must NOT be elided, or partial rollback would restore the
    // pre-transaction value instead of the at-savepoint value.
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, cfg(true));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(1);
        tx.atomic(|tx| tx.write_word(o, 0, 5));
        tx.atomic(|tx| {
            tx.write_word(o, 0, 10)?; // parent writes 10
            let inner: Result<(), Abort> = tx.nested(|tx| {
                tx.write_word(o, 0, 20)?; // nested writes 20 (fresh scope)
                tx.write_word(o, 0, 21)?; // elided within the scope
                Err(Abort::Explicit)
            });
            assert!(inner.is_err());
            // Partial rollback must land on 10, not 5.
            assert_eq!(tx.read_word(o, 0)?, 10);
            Ok(())
        });
        let v = tx.atomic(|tx| tx.read_word(o, 0));
        assert_eq!(v, 10);
    });
}

#[test]
fn rollback_clears_write_filter_marks() {
    // A record acquired in a rolled-back nested scope must not satisfy the
    // write-filter fast path afterwards (it is no longer owned).
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, cfg(true));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(1);
        tx.atomic(|tx| {
            let inner: Result<(), Abort> = tx.nested(|tx| {
                tx.write_word(o, 0, 1)?;
                Err(Abort::Explicit)
            });
            assert!(inner.is_err());
            let fast_before = tx.stats().write_fast_path;
            tx.write_word(o, 0, 2)?; // must re-acquire, not fast-path
            assert_eq!(tx.stats().write_fast_path, fast_before);
            Ok(())
        });
        let v = tx.atomic(|tx| tx.read_word(o, 0));
        assert_eq!(v, 2);
    });
}

#[test]
fn concurrent_increments_stay_atomic_with_write_filter() {
    let mut m = Machine::new(MachineConfig::with_cores(4));
    let mut c = StmConfig::hastm(Granularity::Object, ModePolicy::AbortRatioWatermark)
        .with_oracle(OracleMode::Record);
    c.filter_writes = true;
    let rt = StmRuntime::new(&mut m, c);
    let (o, _) = m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        tx.alloc_obj(1)
    });
    let rt_ref = &rt;
    m.run(
        (0..4)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut tx = TxThread::new(rt_ref, cpu);
                    for _ in 0..50 {
                        tx.atomic(|tx| {
                            let v = tx.read_word(o, 0)?;
                            tx.write_word(o, 0, v + 1)?;
                            tx.write_word(o, 0, v + 1)?; // repeat write
                            Ok(())
                        });
                    }
                    assert_eq!(tx.stats().oracle_violations, 0);
                }) as WorkerFn<'_>
            })
            .collect(),
    );
    assert_eq!(m.peek_u64(o.word(0)), 200);
    assert_eq!(rt.verify_serializability(&m), []);
}

#[test]
fn write_filter_reduces_cycles_on_write_heavy_transactions() {
    fn run(filter: bool) -> u64 {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, cfg(filter));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let objs: Vec<ObjRef> = (0..8).map(|_| tx.alloc_obj(4)).collect();
            // Warm-up.
            tx.atomic(|tx| {
                for o in &objs {
                    tx.write_word(*o, 0, 0)?;
                }
                Ok(())
            });
            let t0 = tx.cpu().now();
            for round in 0..20u64 {
                tx.atomic(|tx| {
                    for o in &objs {
                        // Accumulator pattern: the same word is rewritten
                        // repeatedly, so both the record re-acquisition and
                        // the duplicate undo entries are filterable.
                        for k in 0..8 {
                            tx.write_word(*o, 0, round * 8 + k)?;
                        }
                    }
                    Ok(())
                });
            }
            tx.cpu().now() - t0
        })
        .0
    }
    let without = run(false);
    let with = run(true);
    assert!(
        with < without,
        "write filtering must pay on write-heavy transactions: {with} vs {without}"
    );
}
