//! Cross-crate integration: the same workloads produce the same *answers*
//! under every synchronization scheme, and concurrent executions are
//! serializable (the [`hastm::Oracle`] validates every commit).

use hastm::{Granularity, ModePolicy, ObjRef, OracleMode, StmConfig, StmRuntime, TmExec, TxThread};
use hastm_locks::SpinLock;
use hastm_sim::{Machine, MachineConfig, WorkerFn};
use hastm_workloads::{Scheme, ThreadExec};

#[test]
fn single_thread_results_identical_across_schemes() {
    let mut reference: Option<Vec<u64>> = None;
    for scheme in Scheme::ALL {
        for granularity in [Granularity::Object, Granularity::CacheLine] {
            let mut machine = Machine::new(MachineConfig::default());
            let runtime = StmRuntime::new(
                &mut machine,
                scheme
                    .stm_config(granularity, 1)
                    .with_oracle(OracleMode::Record),
            );
            let lock = SpinLock::alloc(runtime.heap());
            let (values, _) = machine.run_one(|cpu| {
                let mut ex = ThreadExec::new(scheme, &runtime, cpu, lock);
                let objs: Vec<ObjRef> = (0..8)
                    .map(|_| {
                        let mut o = ObjRef::NULL;
                        ex.atomic(|ctx| {
                            o = ctx.ctx_alloc(2);
                            Ok(())
                        });
                        o
                    })
                    .collect();
                // A deterministic little computation with cross-object flow.
                for round in 0u64..20 {
                    ex.atomic(|ctx| {
                        let src = objs[(round % 8) as usize];
                        let dst = objs[((round + 3) % 8) as usize];
                        let a = ctx.ctx_read(src, 0)?;
                        let b = ctx.ctx_read(dst, 1)?;
                        ctx.ctx_write(dst, 0, a + b + round)?;
                        ctx.ctx_write(src, 1, a ^ round)?;
                        Ok(())
                    });
                }
                let mut out = Vec::new();
                for o in &objs {
                    ex.atomic(|ctx| {
                        out.push(ctx.ctx_read(*o, 0)?);
                        out.push(ctx.ctx_read(*o, 1)?);
                        Ok(())
                    });
                }
                assert_eq!(ex.stats().txn.oracle_violations, 0, "{scheme}");
                out
            });
            assert_eq!(runtime.verify_serializability(&machine), []);
            match &reference {
                None => reference = Some(values),
                Some(r) => assert_eq!(
                    r, &values,
                    "scheme {scheme} / {granularity:?} diverged from reference"
                ),
            }
        }
    }
}

/// The money-conservation stress from the examples, as a regression test
/// for the nested-rollback/mark-filter interaction: `cfg`'s nested
/// transfers on `cores` cores, the same transfers unnested, and the nested
/// ones again on two cores, each with the oracle recording and no
/// violation recorded.
fn conservation(cfg: StmConfig, cores: usize, transfers: u32) {
    for (cores, nested) in [(cores, true), (cores, false), (2, true)] {
        transfer_money(cfg.clone(), cores, transfers, nested);
    }
}

fn transfer_money(scheme_cfg: StmConfig, cores: usize, transfers: u32, nested: bool) {
    let mut machine = Machine::new(MachineConfig::with_cores(cores));
    let runtime = StmRuntime::new(&mut machine, scheme_cfg.with_oracle(OracleMode::Record));
    let n_accts = 12u64;
    let (accounts, _) = machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let accounts: Vec<ObjRef> = (0..n_accts).map(|_| tx.alloc_obj(1)).collect();
        tx.atomic(|tx| {
            for a in &accounts {
                tx.write_word(*a, 0, 500)?;
            }
            Ok(())
        });
        accounts
    });
    let rt = &runtime;
    let accts = &accounts;
    let workers: Vec<WorkerFn<'_>> = (0..cores)
        .map(|teller| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(rt, cpu);
                let mut rng = 0xdead_beef_u64 ^ ((teller as u64) << 24);
                for _ in 0..transfers {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let from = accts[(rng % n_accts) as usize];
                    let to = accts[((rng >> 9) % n_accts) as usize];
                    let amount = 1 + rng % 40;
                    if from == to {
                        continue;
                    }
                    let withdraw = |tx: &mut TxThread| {
                        let b = tx.read_word(from, 0)?;
                        if b < amount {
                            return tx.retry_now();
                        }
                        tx.write_word(from, 0, b - amount)
                    };
                    let deposit = |tx: &mut TxThread| {
                        let b = tx.read_word(to, 0)?;
                        tx.write_word(to, 0, b + amount)
                    };
                    tx.atomic(|tx| {
                        if nested {
                            tx.nested(withdraw)?;
                            tx.nested(deposit)
                        } else {
                            withdraw(tx)?;
                            deposit(tx)
                        }
                    });
                }
                assert_eq!(tx.stats().oracle_violations, 0, "teller {teller}");
            }) as WorkerFn<'_>
        })
        .collect();
    machine.run(workers);
    assert_eq!(runtime.verify_serializability(&machine), []);
    let total: u64 = accounts.iter().map(|a| machine.peek_u64(a.word(0))).sum();
    assert_eq!(total, n_accts * 500, "money conserved");
}

#[test]
fn conservation_stm() {
    conservation(StmConfig::stm(Granularity::Object), 4, 120);
}

#[test]
fn conservation_hastm_watermark() {
    conservation(
        StmConfig::hastm(Granularity::Object, ModePolicy::AbortRatioWatermark),
        4,
        120,
    );
}

#[test]
fn conservation_hastm_cautious() {
    conservation(StmConfig::hastm_cautious(Granularity::Object), 4, 120);
}

#[test]
fn conservation_naive_aggressive() {
    conservation(
        StmConfig::hastm(Granularity::Object, ModePolicy::NaiveAggressive),
        4,
        120,
    );
}

#[test]
fn conservation_cacheline_granularity() {
    conservation(
        StmConfig::hastm(Granularity::CacheLine, ModePolicy::AbortRatioWatermark),
        3,
        120,
    );
}

#[test]
fn runs_are_deterministic() {
    fn one() -> (u64, u64) {
        let mut machine = Machine::new(MachineConfig::with_cores(3));
        let runtime = StmRuntime::new(
            &mut machine,
            StmConfig::hastm(Granularity::CacheLine, ModePolicy::AbortRatioWatermark),
        );
        let (obj, _) = machine.run_one(|cpu| {
            let mut tx = TxThread::new(&runtime, cpu);
            tx.alloc_obj(1)
        });
        let rt = &runtime;
        let report = machine.run(
            (0..3)
                .map(|_| {
                    Box::new(move |cpu: &mut hastm_sim::Cpu| {
                        let mut tx = TxThread::new(rt, cpu);
                        for _ in 0..60 {
                            tx.atomic(|tx| {
                                let v = tx.read_word(obj, 0)?;
                                tx.write_word(obj, 0, v + 1)
                            });
                        }
                    }) as WorkerFn<'_>
                })
                .collect(),
        );
        (machine.peek_u64(obj.word(0)), report.makespan())
    }
    let a = one();
    let b = one();
    assert_eq!(a.0, 180, "all increments applied");
    assert_eq!(a, b, "cycle-exact determinism");
}
