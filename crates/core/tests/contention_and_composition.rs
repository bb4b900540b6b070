//! End-to-end tests for contention management, `orElse`
//! composition, record-table aliasing, and log-overflow behavior.

use hastm::{Abort, Granularity, ModePolicy, ObjRef, StmConfig, StmRuntime, TxThread};
use hastm_sim::{Machine, MachineConfig, WorkerFn};

/// Bounded backoff makes progress under a two-core hot-spot.
#[test]
fn contention_policies_all_make_progress() {
    let mut m = Machine::new(MachineConfig::with_cores(2));
    let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::Object));
    let (o, _) = m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        tx.alloc_obj(1)
    });
    let rt_ref = &rt;
    m.run(
        (0..2)
            .map(|_| {
                Box::new(move |cpu: &mut hastm_sim::Cpu| {
                    let mut tx = TxThread::new(rt_ref, cpu);
                    for _ in 0..40 {
                        tx.atomic(|tx| {
                            let v = tx.read_word(o, 0)?;
                            // Hold ownership for a while to force the
                            // other core into contention handling.
                            tx.cpu().tick(50);
                            tx.write_word(o, 0, v + 1)
                        });
                    }
                }) as WorkerFn<'_>
            })
            .collect(),
    );
    assert_eq!(m.peek_u64(o.word(0)), 80);
}

/// `orElse` composes three alternatives; the first non-retrying branch
/// wins and earlier branches leave no side effects.
#[test]
fn or_else_chains_compose() {
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(
        &mut m,
        StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive),
    );
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let flags = tx.alloc_obj(3);
        let out = tx.alloc_obj(1);
        tx.atomic(|tx| tx.write_word(flags, 1, 1)); // only option B enabled
        let taken = tx.atomic(|tx| {
            tx.or_else(
                |tx| {
                    tx.write_word(out, 0, 0xA)?; // speculative side effect
                    if tx.read_word(flags, 0)? == 0 {
                        tx.retry_now()
                    } else {
                        Ok('A')
                    }
                },
                |tx| {
                    tx.or_else(
                        |tx| {
                            tx.write_word(out, 0, 0xB)?;
                            if tx.read_word(flags, 1)? == 0 {
                                tx.retry_now()
                            } else {
                                Ok('B')
                            }
                        },
                        |tx| {
                            tx.write_word(out, 0, 0xC)?;
                            Ok('C')
                        },
                    )
                },
            )
        });
        assert_eq!(taken, 'B');
        let v = tx.atomic(|tx| tx.read_word(out, 0));
        assert_eq!(v, 0xB, "branch A's side effect was rolled back");
    });
}

/// Cache-line granularity hashes distinct addresses 256 KiB apart onto the
/// same record (bits 6–17): aliased false conflicts must stay *correct*.
#[test]
fn record_table_aliasing_is_safe() {
    let mut m = Machine::new(MachineConfig::with_cores(2));
    let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::CacheLine));
    // Two objects exactly 256 KiB apart share a transaction record.
    let heap = rt.heap().clone();
    let a_base = heap.alloc_aligned(16, 64);
    let mut b_base = heap.alloc_aligned(16, 64);
    while (b_base.0 & 0x3ffc0) != (a_base.0 & 0x3ffc0) {
        b_base = heap.alloc_aligned(16, 64);
    }
    assert_ne!(a_base, b_base);
    assert_eq!(
        rt.rec_table().record_for(a_base),
        rt.rec_table().record_for(b_base),
        "setup: the two objects must alias"
    );
    let a = ObjRef(hastm_sim::Addr(a_base.0 - 8));
    let b = ObjRef(hastm_sim::Addr(b_base.0 - 8));
    let rt_ref = &rt;
    m.run(vec![
        Box::new(move |cpu: &mut hastm_sim::Cpu| {
            let mut tx = TxThread::new(rt_ref, cpu);
            for _ in 0..50 {
                tx.atomic(|tx| {
                    let v = tx.read_word(a, 0)?;
                    tx.write_word(a, 0, v + 1)
                });
            }
        }) as WorkerFn<'_>,
        Box::new(move |cpu: &mut hastm_sim::Cpu| {
            let mut tx = TxThread::new(rt_ref, cpu);
            for _ in 0..50 {
                tx.atomic(|tx| {
                    let v = tx.read_word(b, 0)?;
                    tx.write_word(b, 0, v + 1)
                });
            }
        }) as WorkerFn<'_>,
    ]);
    assert_eq!(m.peek_u64(a.word(0)), 50);
    assert_eq!(m.peek_u64(b.word(0)), 50);
}

/// Log regions overflow into fresh chunks without corrupting transactions:
/// 5 000 distinct objects written, then read, pass the 4 096 entries of a
/// log chunk in the read, write and undo logs alike.
#[test]
fn log_overflow_keeps_transactions_correct() {
    const OBJS: u64 = 5000;
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, StmConfig::stm(Granularity::Object));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let objs: Vec<ObjRef> = (0..OBJS).map(|_| tx.alloc_obj(1)).collect();
        tx.atomic(|tx| {
            for (i, o) in objs.iter().enumerate() {
                tx.write_word(*o, 0, i as u64)?;
            }
            Ok(())
        });
        let sum = tx.atomic(|tx| {
            let mut s = 0;
            for o in &objs {
                s += tx.read_word(*o, 0)?;
            }
            Ok(s)
        });
        assert_eq!(sum, (0..OBJS).sum());
    });
}

/// A user abort inside a *nested* scope that the parent converts into a
/// fallback path (abort-as-control-flow, §2's user-initiated aborts).
#[test]
fn nested_user_abort_as_control_flow() {
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, StmConfig::hastm_cautious(Granularity::Object));
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(2);
        let outcome = tx.atomic(|tx| {
            let tried: Result<(), Abort> = tx.nested(|tx| {
                tx.write_word(o, 0, 999)?;
                tx.abort_now() // business-rule failure
            });
            if tried.is_err() {
                tx.write_word(o, 1, 1)?; // record the failure instead
            }
            Ok(tried.is_err())
        });
        assert!(outcome);
        let (a, b) = tx.atomic(|tx| Ok((tx.read_word(o, 0)?, tx.read_word(o, 1)?)));
        assert_eq!(a, 0, "nested write rolled back");
        assert_eq!(b, 1, "fallback write committed");
    });
}
