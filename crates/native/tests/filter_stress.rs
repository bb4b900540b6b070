//! Stress test for the mark-bit filter emulation: commit-epoch bumps must
//! invalidate stale per-thread filters.
//!
//! The deterministic core interleaving, built with the write-back pause
//! hook and a pair of barriers:
//!
//! 1. a reader warms its filter on two cells whose values satisfy an
//!    invariant (`A + B == TOTAL`);
//! 2. a writer transaction updates both cells (preserving the invariant)
//!    and is **paused mid write-back** — after storing `A`, before
//!    storing `B` — exactly the window where memory is torn;
//! 3. the paused-out reader attempts both reads through its (now stale)
//!    filter.
//!
//! With the epoch checks in place the fast path must refuse (the writer
//! bumped the commit epoch before its first store) and the slow path must
//! abort on the held stripe lock — the reader can never observe the torn
//! state. With `Mutant::NoEpochCheck` armed (which drops exactly the epoch
//! checks) the reader sails through its stale filter and returns a torn
//! sum, and the same test must catch it: the suite guards the filter
//! protocol. Arming is process-global, so every test here holds an arming
//! guard while it runs.

use std::sync::{Arc, Barrier};

use hastm::{Abort, ObjRef, TmContext, TmExec};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, WritebackHook};
use hastm_sim::mutant::{arm, prove, Mutant};

const TOTAL: u64 = 1_000;

struct Rig {
    rt: Arc<NativeRuntime>,
    a: ObjRef,
    b: ObjRef,
}

fn rig() -> Rig {
    let rt = Arc::new(NativeRuntime::new(NativeConfig {
        heap_words: 1 << 10,
        stripes: 1 << 8,
        mark_filter: true,
        ..NativeConfig::default()
    }));
    let (a, b) = {
        let mut ex = NativeExec::new(&rt);
        let a = ex.alloc_obj(1);
        let b = ex.alloc_obj(1);
        ex.atomic(|ctx| {
            ctx.ctx_write(a, 0, TOTAL / 2)?;
            ctx.ctx_write(b, 0, TOTAL - TOTAL / 2)
        });
        (a, b)
    };
    Rig { rt, a, b }
}

/// Runs the deterministic torn-window interleaving once and returns what
/// the reader observed through its stale filter: `Ok(sum)` if both reads
/// were served, `Err` if the protocol refused.
fn paused_writer_round(rig: &Rig, shift: u64) -> Result<u64, Abort> {
    let Rig { rt, a, b } = rig;

    // 1. Warm the reader's filter on both cells under a quiet epoch.
    let mut reader = NativeExec::new(rt);
    let warm = reader.atomic(|ctx| {
        let va = ctx.ctx_read(*a, 0)?;
        let vb = ctx.ctx_read(*b, 0)?;
        Ok(va + vb)
    });
    assert_eq!(warm, TOTAL, "setup violates the invariant");

    // 2. Writer thread, paused after its first write-back store.
    let reader_go = Arc::new(Barrier::new(2));
    let reader_done = Arc::new(Barrier::new(2));
    let hook: WritebackHook = {
        let reader_go = Arc::clone(&reader_go);
        let reader_done = Arc::clone(&reader_done);
        Arc::new(move |done, total| {
            assert_eq!(total, 2, "writer txn writes exactly two words");
            if done == 1 {
                reader_go.wait();
                reader_done.wait();
            }
        })
    };
    rt.set_writeback_hook(Some(hook));
    let writer = std::thread::spawn({
        let rt = Arc::clone(rt);
        let (a, b) = (*a, *b);
        move || {
            let mut ex = NativeExec::new(&rt);
            ex.atomic(|ctx| {
                let va = ctx.ctx_read(a, 0)?;
                let vb = ctx.ctx_read(b, 0)?;
                ctx.ctx_write(a, 0, va + shift)?;
                ctx.ctx_write(b, 0, vb - shift)
            });
        }
    });

    // 3. Mid-torn-window, the reader tries its stale filter. A single
    //    explicit attempt — the atomic retry loop would spin against the
    //    paused writer.
    reader_go.wait();
    let observed = {
        let mut txn = reader.txn();
        let result = (|| {
            let va = txn.ctx_read(*a, 0)?;
            let vb = txn.ctx_read(*b, 0)?;
            Ok(va + vb)
        })();
        match result {
            Ok(sum) => txn.commit().map(|()| sum),
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    };
    reader_done.wait();
    writer.join().unwrap();
    rt.set_writeback_hook(None);
    observed
}

/// The filter protocol with its epoch checks in place.
mod checked {
    use super::*;

    /// The reader must never observe the torn window: every attempt
    /// through the stale filter is refused — and with the epoch checks
    /// dropped, every one of the 8 rounds must serve it, torn by exactly
    /// the writer's in-flight shift.
    #[test]
    fn stale_filter_never_serves_the_torn_window() {
        let rounds = |_| {
            let rig = rig();
            let torn = (1..=8)
                .filter(|&shift| match paused_writer_round(&rig, shift) {
                    Err(Abort::Conflict) => false,
                    Err(other) => panic!("unexpected abort cause {other:?}"),
                    Ok(sum) => {
                        // A served A (written back) and B (not yet): torn
                        // by exactly the writer's in-flight shift.
                        assert_eq!(sum, TOTAL + shift, "shift {shift}: served mid write-back");
                        true
                    }
                })
                .count();
            match torn {
                0 => Ok(()),
                n => Err(format!(
                    "the stale filter served the torn window in {n}/8 rounds"
                )),
            }
        };
        prove(Mutant::NoEpochCheck, 1, rounds, |d| d.contains(" 8/8 "));
    }

    /// After the writer finishes, a fresh read must see the post-commit
    /// state — the epoch bump invalidated the stale filter, and the next
    /// slow read rebuilds it for the new window.
    #[test]
    fn epoch_bump_invalidates_then_rebuilds_the_filter() {
        let _quiet = arm(None);
        let rig = rig();
        let mut reader = NativeExec::new(&rig.rt);
        let (a, b) = (rig.a, rig.b);
        let warm = reader.atomic(|ctx| {
            let va = ctx.ctx_read(a, 0)?;
            let vb = ctx.ctx_read(b, 0)?;
            Ok(va + vb)
        });
        assert_eq!(warm, TOTAL);
        let fast_before = reader.stats().fast_reads;

        // An independent writer moves the epoch.
        let mut writer = NativeExec::new(&rig.rt);
        writer.atomic(|ctx| {
            let va = ctx.ctx_read(a, 0)?;
            let vb = ctx.ctx_read(b, 0)?;
            ctx.ctx_write(a, 0, va + 11)?;
            ctx.ctx_write(b, 0, vb - 11)
        });

        // The stale filter must not serve these reads (slow path sees the
        // committed values), and the invariant still holds.
        let after = reader.atomic(|ctx| {
            let va = ctx.ctx_read(a, 0)?;
            let vb = ctx.ctx_read(b, 0)?;
            Ok(va + vb)
        });
        assert_eq!(after, TOTAL);
        assert_eq!(
            reader.stats().fast_reads,
            fast_before,
            "reads after a foreign commit must all take the slow path"
        );

        // The slow reads rebuilt the filter for the new window: the next
        // transaction fast-paths again.
        let again = reader.atomic(|ctx| {
            let va = ctx.ctx_read(a, 0)?;
            let vb = ctx.ctx_read(b, 0)?;
            Ok(va + vb)
        });
        assert_eq!(again, TOTAL);
        assert!(
            reader.stats().fast_reads > fast_before,
            "filter must rebuild after the epoch settles: {:?}",
            reader.stats()
        );
    }

    /// Anti-dependency cycle stress: thread 1 runs `Y := X + 1`, thread 2
    /// runs `X := Y + 1`, both reading through warm filters whenever the
    /// epoch allows. Every serializable history ends with the last
    /// committer's cell exactly one above the other, so at quiescence
    /// `|X - Y| == 1`. A commit that publishes against a stale fast read
    /// — e.g. an epoch-anchor check that is not atomic with the epoch
    /// bump, leaving a window for the other thread's whole commit —
    /// lets both transactions read the pre-state and converge the cells
    /// (`X == Y`), which this asserts against.
    #[test]
    fn fast_read_write_cycle_stays_serializable() {
        let _quiet = arm(None);
        for round in 0..20 {
            let rt = Arc::new(NativeRuntime::new(NativeConfig {
                heap_words: 1 << 10,
                stripes: 1 << 8,
                mark_filter: true,
                ..NativeConfig::default()
            }));
            let (x, y) = {
                let mut ex = NativeExec::new(&rt);
                let x = ex.alloc_obj(1);
                let y = ex.alloc_obj(1);
                ex.atomic(|ctx| {
                    ctx.ctx_write(x, 0, 0)?;
                    ctx.ctx_write(y, 0, 0)
                });
                (x, y)
            };
            std::thread::scope(|s| {
                for (src, dst) in [(x, y), (y, x)] {
                    let rt = Arc::clone(&rt);
                    s.spawn(move || {
                        let mut ex = NativeExec::new(&rt);
                        for _ in 0..200 {
                            ex.atomic(|ctx| {
                                let v = ctx.ctx_read(src, 0)?;
                                ctx.ctx_write(dst, 0, v + 1)
                            });
                        }
                    });
                }
            });
            let (vx, vy) = (rt.peek(x.word(0)), rt.peek(y.word(0)));
            assert_eq!(
                vx.abs_diff(vy),
                1,
                "round {round}: X={vx} Y={vy} is not a serializable outcome"
            );
        }
    }

    /// Live-race stress (no pausing): concurrent invariant-preserving
    /// writers and filter-warmed readers; no reader may ever see a torn
    /// sum.
    #[test]
    fn live_race_never_tears_reads() {
        let _quiet = arm(None);
        let rig = rig();
        let rounds = 300;
        std::thread::scope(|s| {
            let writer = {
                let rt = Arc::clone(&rig.rt);
                let (a, b) = (rig.a, rig.b);
                s.spawn(move || {
                    let mut ex = NativeExec::new(&rt);
                    for i in 0..rounds {
                        let shift = (i % 7) + 1;
                        ex.atomic(|ctx| {
                            let va = ctx.ctx_read(a, 0)?;
                            let vb = ctx.ctx_read(b, 0)?;
                            ctx.ctx_write(a, 0, va.wrapping_add(shift))?;
                            ctx.ctx_write(b, 0, vb.wrapping_sub(shift))
                        });
                    }
                })
            };
            let reader = {
                let rt = Arc::clone(&rig.rt);
                let (a, b) = (rig.a, rig.b);
                s.spawn(move || {
                    let mut ex = NativeExec::new(&rt);
                    for _ in 0..rounds {
                        let sum = ex.atomic(|ctx| {
                            let va = ctx.ctx_read(a, 0)?;
                            let vb = ctx.ctx_read(b, 0)?;
                            Ok(va.wrapping_add(vb))
                        });
                        assert_eq!(sum, TOTAL, "torn read under live race");
                    }
                })
            };
            writer.join().unwrap();
            reader.join().unwrap();
        });
    }
}
