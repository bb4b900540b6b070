//! Micro-probes: host nanoseconds per call into one public function of
//! one layer, timed from outside. They run in every traced invocation
//! and do not depend on the workload, so a layer's probe can be read
//! next to the end-to-end number it is predicted to move.
//!
//! To add a probe: time the call with [`ns_per_iter`] inside the function
//! of the layer it belongs to, `out.set` it under a new
//! `<crate>.<module>.<what>_ns` name, and add that name to
//! `spec::PER_LAYER` and to `BENCHMARK.json`.

use std::hint::black_box;
use std::time::Instant;

use hastm::{
    Granularity, ModePolicy, ObjRef, StmConfig, StmRuntime, TmContext, TmExec, TxThread, Versioning,
};
use hastm_htm::HtmThread;
use hastm_locks::SpinLock;
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
use hastm_sim::{Addr, Cpu, Machine, MachineConfig, SimHeap, WorkerFn, LINE_SIZE};
use hastm_workloads::oltp::{apply_txn, initial_balance, thread_txns, ACCOUNT_WORDS};
use hastm_workloads::{OltpConfig, Scheme, ThreadExec};

use crate::run::Layers;
use crate::stats;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// Iteration scale: smoke runs only prove the probes execute.
#[derive(Copy, Clone)]
struct Scale(u64);

impl Scale {
    fn iters(self, full: u64) -> u64 {
        (full / self.0).max(8)
    }
}

/// Median over [`BATCHES`] batches of the host ns one iteration takes.
/// `batch(n)` must run the probed call `n` times.
fn ns_per_iter(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(iters / 4 + 1); // warm caches and lazy state
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::sort(&mut samples);
    stats::median(&samples)
}

/// Like [`ns_per_iter`] for calls that need untimed preparation each
/// time: `once()` prepares, then returns the ns its timed part took.
fn ns_per_call(iters: u64, timer_pair_ns: f64, mut once: impl FnMut() -> u64) -> f64 {
    for _ in 0..iters / 4 + 1 {
        once();
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| (0..iters).map(|_| once()).sum::<u64>() as f64 / iters as f64)
        .collect();
    stats::sort(&mut samples);
    (stats::median(&samples) - timer_pair_ns).max(0.0)
}

/// Runs every probe and files the results.
pub fn run_all(out: &mut Layers, smoke: bool) {
    let scale = Scale(if smoke { 200 } else { 1 });
    let timer_pair_ns = ns_per_iter(scale.iters(200_000), |n| {
        for _ in 0..n {
            black_box(black_box(Instant::now()).elapsed());
        }
    });
    out.set("benchmark.timer_pair_ns", timer_pair_ns);
    sim_machine(out, scale);
    sim_memory_and_marks(out, scale);
    core_stm(out, scale, timer_pair_ns);
    htm_and_locks(out, scale);
    native_tl2(out, scale, timer_pair_ns);
    let oltp = OltpConfig::paper_default(1);
    let gen_txns = scale.iters(20_000);
    let gen = OltpConfig {
        txns_per_thread: gen_txns,
        ..oltp
    };
    out.set(
        "workloads.oltp.gen_ns_per_txn",
        ns_per_iter(1, |_| {
            black_box(thread_txns(&gen, 0));
        }) / gen_txns as f64,
    );
}

fn one_core() -> Machine {
    Machine::new(MachineConfig::default())
}

/// `sim.machine`: what the gate costs per operation with nobody to hand
/// off to, with a peer to hand off to after every operation, and what
/// spawning a run costs.
fn sim_machine(out: &mut Layers, scale: Scale) {
    let iters = scale.iters(400_000);
    let (solo, _) = one_core().run_one(|cpu| {
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                cpu.exec(1);
            }
        })
    });
    out.set("sim.machine.gate_ns_per_op_1c", solo);
    // The same call seen as `sim.cpu`: with one core the gate admits
    // immediately, so this is the op-dispatch cost.
    out.set("sim.cpu.exec_ns", solo);

    // Two cores issuing equal-cost ops stay in lockstep: whichever ran
    // last is overtaken, so every op ends in a handoff to the other host
    // thread.
    let iters = scale.iters(20_000);
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let workers: Vec<WorkerFn<'_>> = (0..2)
                .map(|_| {
                    Box::new(move |cpu: &mut Cpu| {
                        for _ in 0..iters {
                            cpu.exec(1);
                        }
                    }) as WorkerFn<'_>
                })
                .collect();
            let start = Instant::now();
            machine.run(workers);
            start.elapsed().as_nanos() as f64 / (2 * iters) as f64
        })
        .collect();
    stats::sort(&mut samples);
    let duo = stats::median(&samples);
    out.set("sim.machine.gate_ns_per_op_2c", duo);
    out.set("sim.machine.handoff_ns", duo - solo);

    let spawn = ns_per_iter(scale.iters(400), |n| {
        for _ in 0..n {
            let idle: Vec<WorkerFn<'_>> = (0..2)
                .map(|_| Box::new(|_: &mut Cpu| {}) as WorkerFn<'_>)
                .collect();
            machine.run(idle);
        }
    });
    out.set("sim.machine.run_spawn_us", spawn / 1e3);
}

/// Host ns per `op` on one line after another of a `bytes`-sized working
/// set, cycling: a set larger than a cache level misses that level on
/// every access (LRU, sequential sweep).
fn sweep(
    cpu: &mut Cpu<'_>,
    heap: &SimHeap,
    iters: u64,
    bytes: u64,
    mut op: impl FnMut(&mut Cpu<'_>, Addr),
) -> f64 {
    let base = cpu.alloc_aligned(heap, bytes, LINE_SIZE);
    let lines = bytes / LINE_SIZE;
    let mut next = 0;
    ns_per_iter(iters.max(2 * lines), |n| {
        for _ in 0..n {
            op(cpu, base.offset(next * LINE_SIZE));
            next = (next + 1) % lines;
        }
    })
}

/// `sim.hierarchy` / `sim.cache` / `sim.cpu`: one load, store, CAS or
/// mark instruction against working sets sized inside the L1 (32 KiB),
/// inside the L2 (2 MiB) and beyond it.
fn sim_memory_and_marks(out: &mut Layers, scale: Scale) {
    let mut machine = one_core();
    let heap = machine.heap();
    let iters = scale.iters(200_000);
    machine.run_one(|cpu| {
        let l1 = 16 << 10;
        let load = |cpu: &mut Cpu<'_>, a: Addr| {
            black_box(cpu.load_u64(a));
        };
        out.set(
            "sim.hierarchy.l1_hit_ns",
            sweep(cpu, &heap, iters, l1, load),
        );
        out.set(
            "sim.hierarchy.l2_hit_ns",
            sweep(cpu, &heap, iters, 512 << 10, load),
        );
        out.set(
            "sim.hierarchy.mem_ns",
            sweep(cpu, &heap, iters, 8 << 20, load),
        );
        out.set(
            "sim.hierarchy.store_ns",
            sweep(cpu, &heap, iters, l1, |cpu, a| cpu.store_u64(a, 1)),
        );
        out.set(
            "sim.hierarchy.cas_ns",
            sweep(cpu, &heap, iters, l1, |cpu, a| {
                black_box(cpu.cas_u64(a, 0, 0));
            }),
        );
        out.set(
            "sim.cpu.mark_set_ns",
            sweep(cpu, &heap, iters, l1, |cpu, a| {
                black_box(cpu.load_set_mark_u64(a));
            }),
        );
        out.set(
            "sim.cpu.mark_test_ns",
            sweep(cpu, &heap, iters, l1, |cpu, a| {
                black_box(cpu.load_test_mark_u64(a));
            }),
        );
        // Clearing a filter that has marks to clear: re-mark a few lines
        // between resets, and subtract the marking.
        let marked = cpu.alloc_aligned(&heap, 8 * LINE_SIZE, LINE_SIZE);
        let mut mark_then = |reset: bool| {
            ns_per_iter(iters / 8, |n| {
                for _ in 0..n {
                    for line in 0..8 {
                        black_box(cpu.load_set_mark_u64(marked.offset(line * LINE_SIZE)));
                    }
                    if reset {
                        cpu.reset_mark_all();
                    }
                }
            })
        };
        let with_reset = mark_then(true);
        out.set(
            "sim.cpu.mark_reset_all_ns",
            (with_reset - mark_then(false)).max(0.0),
        );
    });
}

/// Objects (one cache line each) the STM probes read and write.
const OBJS: u32 = 64;

/// Runs `f` with a `TxThread` on a fresh one-core machine and [`OBJS`]
/// objects, one per cache line (so 64 reads are 64 read-set entries at
/// cache-line granularity).
fn with_tx(config: StmConfig, f: impl FnOnce(&mut TxThread<'_, '_>, &[ObjRef]) + Send) {
    let mut machine = one_core();
    let runtime = StmRuntime::new(&mut machine, config);
    machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let objs: Vec<ObjRef> = (0..OBJS).map(|_| tx.alloc_obj(7)).collect();
        f(&mut tx, &objs);
    });
}

/// `core.barrier` / `core.txn`: the STM runtime through `TxThread` on a
/// one-core machine.
fn core_stm(out: &mut Layers, scale: Scale, timer_pair_ns: f64) {
    let iters = scale.iters(2_000);
    with_tx(StmConfig::stm(Granularity::CacheLine), |tx, objs| {
        let empty = ns_per_iter(iters * 8, |n| {
            for _ in 0..n {
                tx.atomic(|_| Ok(()));
            }
        });
        out.set("core.txn.empty_ns", empty);
        // Per-barrier costs: a transaction of 64 reads (or writes), minus
        // the empty transaction, per barrier.
        let reads = ns_per_iter(iters, |n| {
            for _ in 0..n {
                tx.atomic(|tx| {
                    for &o in objs {
                        black_box(tx.read_word(o, 0)?);
                    }
                    Ok(())
                });
            }
        });
        out.set(
            "core.barrier.read_ns_stm",
            (reads - empty).max(0.0) / f64::from(OBJS),
        );
        let writes = ns_per_iter(iters, |n| {
            for _ in 0..n {
                tx.atomic(|tx| {
                    for &o in objs {
                        tx.write_word(o, 0, 1)?;
                    }
                    Ok(())
                });
            }
        });
        out.set(
            "core.barrier.write_ns",
            (writes - empty).max(0.0) / f64::from(OBJS),
        );
        out.set(
            "core.txn.commit_ns_8w",
            ns_per_iter(iters, |n| {
                for _ in 0..n {
                    tx.atomic(|tx| {
                        for &o in &objs[..8] {
                            tx.write_word(o, 0, 1)?;
                        }
                        Ok(())
                    });
                }
            }),
        );
        // A forced full validation of a 64-entry read set, timed inside
        // the transaction that built it.
        out.set(
            "core.txn.validate_ns_64r",
            ns_per_call(iters, timer_pair_ns, || {
                tx.atomic(|tx| {
                    for &o in objs {
                        black_box(tx.read_word(o, 0)?);
                    }
                    let start = Instant::now();
                    tx.validate_now()?;
                    Ok(start.elapsed().as_nanos() as u64)
                })
            }),
        );
    });

    // HASTM: the first read of a line marks it, later reads of the same
    // line inside the transaction take the two-instruction filtered path.
    let hastm = StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive);
    with_tx(hastm, |tx, objs| {
        const REPEATS: u32 = 16;
        let first_touch = ns_per_iter(iters, |n| {
            for _ in 0..n {
                tx.atomic(|tx| {
                    for &o in objs {
                        black_box(tx.read_word(o, 0)?);
                    }
                    Ok(())
                });
            }
        });
        let with_repeats = ns_per_iter(iters / 4, |n| {
            for _ in 0..n {
                tx.atomic(|tx| {
                    for _ in 0..=REPEATS {
                        for &o in objs {
                            black_box(tx.read_word(o, 0)?);
                        }
                    }
                    Ok(())
                });
            }
        });
        out.set(
            "core.barrier.read_ns_hastm_filtered",
            (with_repeats - first_touch).max(0.0) / f64::from(REPEATS * OBJS),
        );
    });
}

/// `htm` and `locks`: an empty hardware transaction, the hardware-commit
/// share of the HyTM executor on the OLTP stream (whose 64-key tail is the
/// candidate for a capacity fallback to software), and one uncontended
/// spinlock round trip.
fn htm_and_locks(out: &mut Layers, scale: Scale) {
    let iters = scale.iters(100_000);
    let mut machine = one_core();
    let heap = machine.heap();
    machine.run_one(|cpu| {
        let mut htm = HtmThread::new(cpu);
        out.set(
            "htm.txn.empty_ns",
            ns_per_iter(iters, |n| {
                for _ in 0..n {
                    htm.atomic(|_| Ok(()));
                }
            }),
        );
        let lock = SpinLock::alloc(&heap);
        out.set(
            "locks.spinlock.acquire_release_ns",
            ns_per_iter(iters, |n| {
                for _ in 0..n {
                    lock.acquire(cpu);
                    lock.release(cpu);
                }
            }),
        );
    });

    let mut machine = one_core();
    let runtime = StmRuntime::new(&mut machine, StmConfig::stm(Granularity::CacheLine));
    let lock = SpinLock::alloc(runtime.heap());
    let cfg = OltpConfig {
        txns_per_thread: scale.iters(2_000),
        ..OltpConfig::paper_default(1)
    };
    let stream = thread_txns(&cfg, 0);
    let (hytm, _) = machine.run_one(|cpu| {
        let mut ex = ThreadExec::new(Scheme::Hytm, &runtime, cpu, lock);
        let accounts: Vec<ObjRef> = (0..cfg.accounts)
            .map(|key| {
                let obj = ex.alloc_obj(ACCOUNT_WORDS);
                ex.atomic(|ctx| ctx.ctx_write(obj, 0, initial_balance(key)));
                obj
            })
            .collect();
        for txn in &stream {
            apply_txn(&mut ex, &accounts, txn);
        }
        ex.hytm_stats().expect("HyTM executor")
    });
    out.set(
        "htm.hw_commit_share",
        hytm.hw_commits as f64 / (hytm.hw_commits + hytm.sw_commits).max(1) as f64,
    );
}

/// `native.tl2` / `native.heap` / `native.exec`: the shared words every
/// native transaction touches, and the stages of one transaction through
/// the manual `NativeTxn` API, single-threaded (no contention: these are
/// the floor the 2-thread workloads sit on).
fn native_tl2(out: &mut Layers, scale: Scale, timer_pair_ns: f64) {
    const WORDS: u32 = 64;
    let iters = scale.iters(400_000);
    // `alloc_obj_ns` bump-allocates 4 words per call and nothing is
    // reclaimed, so its iterations size the heap.
    let alloc_iters = iters / 8;
    let config = |mark_filter: bool, versioning: Versioning| NativeConfig {
        heap_words: (alloc_iters as usize * (BATCHES + 1) + 16) * 4 + 4_096,
        mark_filter,
        versioning,
        ..NativeConfig::default()
    };

    let rt = NativeRuntime::new(config(true, Versioning::Single));
    let obj = rt.alloc_obj(WORDS);
    let addr = obj.word(0).0;
    let stripe = rt.stripe_of(addr);
    out.set(
        "native.tl2.clock_read_ns",
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                black_box(rt.clock());
            }
        }),
    );
    out.set(
        "native.tl2.stripe_state_ns",
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                black_box(rt.stripe_state(black_box(stripe)));
            }
        }),
    );
    out.set(
        "native.heap.load_ns",
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                black_box(rt.heap().load(black_box(addr)));
            }
        }),
    );
    out.set(
        "native.tl2.alloc_obj_ns",
        ns_per_iter(alloc_iters, |n| {
            for _ in 0..n {
                black_box(rt.alloc_obj(3));
            }
        }),
    );

    let mut ex = NativeExec::new(&rt);
    out.set(
        "native.exec.empty_txn_ns",
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                ex.atomic(|_| Ok(()));
            }
        }),
    );
    out.set(
        "native.exec.begin_ns",
        ns_per_iter(iters, |n| {
            for _ in 0..n {
                black_box(&ex.txn());
            }
        }),
    );
    // Reads: a transaction sweeping the same 64 words over and over. With
    // the filter on and no committer about, every read after the first
    // sweep is a filter hit; with it off, every read is a full sandwich.
    let read_ns = |ex: &mut NativeExec<'_>| {
        ns_per_iter(iters / u64::from(WORDS), |n| {
            for _ in 0..n {
                let mut txn = ex.txn();
                for i in 0..WORDS {
                    black_box(txn.ctx_read(obj, i).expect("uncontended read"));
                }
                txn.rollback();
            }
        }) / f64::from(WORDS)
    };
    out.set("native.exec.read_fast_ns", read_ns(&mut ex));
    let plain = NativeRuntime::new(NativeConfig {
        heap_words: 4_096,
        ..config(false, Versioning::Single)
    });
    let plain_obj = plain.alloc_obj(WORDS);
    assert_eq!(plain_obj, obj, "same layout on both runtimes");
    out.set(
        "native.exec.read_slow_ns",
        read_ns(&mut NativeExec::new(&plain)),
    );

    for (name, words) in [
        ("native.exec.commit_ns_1w", 1),
        ("native.exec.commit_ns_8w", 8),
        ("native.exec.commit_ns_64w", 64),
    ] {
        let ns = ns_per_call(iters / (8 * words), timer_pair_ns, || {
            let mut txn = ex.txn();
            for i in 0..words as u32 {
                txn.ctx_write(obj, i, 1).expect("buffered write");
            }
            let start = Instant::now();
            txn.commit().expect("uncontended commit");
            start.elapsed().as_nanos() as u64
        });
        out.set(name, ns);
    }

    // Snapshot path: every word has a version ring to probe.
    let multi = NativeRuntime::new(NativeConfig {
        heap_words: 4_096,
        ..config(true, Versioning::Multi { k: 3 })
    });
    let ring_obj = multi.alloc_obj(WORDS);
    let mut ro = NativeExec::new(&multi);
    ro.atomic(|ctx| {
        for i in 0..WORDS {
            ctx.ctx_write(ring_obj, i, 1)?;
        }
        Ok(())
    });
    let ro_begin = ns_per_iter(iters / 4, |n| {
        for _ in 0..n {
            ro.atomic_ro(|_| Ok(()));
        }
    });
    out.set("native.exec.ro_begin_ns", ro_begin);
    let ro_sweep = ns_per_iter(iters / u64::from(WORDS), |n| {
        for _ in 0..n {
            ro.atomic_ro(|ctx| {
                for i in 0..WORDS {
                    black_box(ctx.ctx_read(ring_obj, i)?);
                }
                Ok(())
            });
        }
    });
    out.set(
        "native.exec.ro_snapshot_read_ns",
        (ro_sweep - ro_begin).max(0.0) / f64::from(WORDS),
    );
}
