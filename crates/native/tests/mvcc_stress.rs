//! Stress tests for multi-version snapshot reads on the native TL2
//! backend: a read-only region's snapshot must stay consistent — and the
//! region abort-free — no matter how hard concurrent writers churn the
//! version rings.
//!
//! Companion to `filter_stress.rs`, which pins the mark-filter fast-read
//! protocol with the same zero-sum-ledger technique. Here the invariant
//! under attack is snapshot isolation: every cell a read-only scan
//! observes must come from the single committed prefix at the scan's
//! `rv`, even when writers have published (and pruned) generations of
//! newer versions mid-scan.
#![cfg(not(feature = "seeded-bug"))]

use std::sync::{Arc, Barrier};

use hastm::{ObjRef, TmExec, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};

const CELLS: usize = 8;

/// Initial value of ledger cell `i`; the scan invariant is that any
/// consistent snapshot sums to `total()`.
fn initial(i: usize) -> u64 {
    50 * (i as u64 + 1)
}

fn total() -> u64 {
    (0..CELLS).map(initial).sum()
}

fn multi_rt(k: usize, mark_filter: bool) -> Arc<NativeRuntime> {
    Arc::new(NativeRuntime::new(NativeConfig {
        heap_words: 1 << 10,
        stripes: 1 << 8,
        mark_filter,
        versioning: Versioning::Multi { k },
        ..NativeConfig::default()
    }))
}

fn ledger(rt: &NativeRuntime) -> Vec<ObjRef> {
    let mut ex = NativeExec::new(rt);
    let cells: Vec<ObjRef> = (0..CELLS).map(|_| ex.alloc_obj(1)).collect();
    ex.atomic(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            ctx.ctx_write(*c, 0, initial(i))?;
        }
        Ok(())
    });
    cells
}

/// Deterministic ring-churn interleaving: a read-only scan reads one
/// cell, then (pinned at its `rv`) waits while a writer commits 12
/// zero-sum shifts — several times the k=2 ring depth, so every churned
/// cell's un-pinned versions are published *and pruned* mid-scan — and
/// only then reads the remaining cells. Snapshot isolation requires the
/// scan to observe exactly the pre-writer ledger, not merely a balanced
/// one, and to commit without an abort: the pruning floor must have kept
/// every version the pinned `rv` can need.
#[test]
fn pinned_snapshot_outlives_ring_churn_from_racing_commits() {
    for mark_filter in [false, true] {
        pinned_snapshot_outlives_ring_churn(multi_rt(2, mark_filter));
    }
}

fn pinned_snapshot_outlives_ring_churn(rt: Arc<NativeRuntime>) {
    let cells = ledger(&rt);
    let writer_go = Arc::new(Barrier::new(2));
    let writer_done = Arc::new(Barrier::new(2));

    let writer = std::thread::spawn({
        let rt = Arc::clone(&rt);
        let cells = cells.clone();
        let writer_go = Arc::clone(&writer_go);
        let writer_done = Arc::clone(&writer_done);
        move || {
            writer_go.wait();
            let mut ex = NativeExec::new(&rt);
            for round in 0..12u64 {
                let from = (round as usize) % CELLS;
                let to = (from + 1) % CELLS;
                let shift = round % 7 + 1;
                ex.atomic(|ctx| {
                    let vf = ctx.ctx_read(cells[from], 0)?;
                    let vt = ctx.ctx_read(cells[to], 0)?;
                    ctx.ctx_write(cells[from], 0, vf - shift)?;
                    ctx.ctx_write(cells[to], 0, vt + shift)
                });
            }
            let stats = ex.stats().clone();
            writer_done.wait();
            stats
        }
    });

    let mut reader = NativeExec::new(&rt);
    let mut released = false;
    let observed = reader.atomic_ro(|ctx| {
        let first = ctx.ctx_read(cells[0], 0)?;
        // Release the writer exactly once, mid-scan; a snapshot region
        // never retries under Multi, so the barriers meet exactly once.
        if !released {
            released = true;
            writer_go.wait();
            writer_done.wait();
        }
        let mut vals = vec![first];
        for c in &cells[1..] {
            vals.push(ctx.ctx_read(*c, 0)?);
        }
        Ok(vals)
    });
    let writer_stats = writer.join().unwrap();

    let expected: Vec<u64> = (0..CELLS).map(initial).collect();
    assert_eq!(
        observed, expected,
        "the pinned scan must see the exact pre-writer ledger"
    );
    let stats = reader.stats();
    assert_eq!(stats.ro_commits, 1);
    assert_eq!(stats.ro_aborts, 0, "snapshot region aborted: {stats:?}");
    assert_eq!(stats.snapshot_reads, CELLS as u64);
    assert_eq!(writer_stats.commits, 12);
    assert!(
        writer_stats.versions_published >= 24,
        "every written-back word must publish a ring entry: {writer_stats:?}"
    );

    // Once the pin is gone, a fresh snapshot sees the shifted ledger —
    // still conserved, but no longer the initial distribution.
    let after = reader.atomic_ro(|ctx| {
        let mut vals = Vec::with_capacity(CELLS);
        for c in &cells {
            vals.push(ctx.ctx_read(*c, 0)?);
        }
        Ok(vals)
    });
    assert_eq!(after.iter().sum::<u64>(), total());
    assert_ne!(after, expected, "the writer's shifts must be visible");
}

/// Live-race stress (no pausing): two invariant-preserving writers churn
/// the ledger while two snapshot scanners — slowed per-cell so their
/// regions span many commits — repeatedly sum it. Every scan must
/// balance, and under Multi(k) not one may abort.
#[test]
fn live_ro_scans_conserve_the_ledger_and_never_abort() {
    for mark_filter in [false, true] {
        live_ro_scans_conserve_the_ledger(multi_rt(3, mark_filter));
    }
}

fn live_ro_scans_conserve_the_ledger(rt: Arc<NativeRuntime>) {
    let cells = ledger(&rt);
    let rounds = 300u64;
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let rt = &rt;
                let cells = &cells;
                s.spawn(move || {
                    let mut ex = NativeExec::new(rt);
                    for i in 0..rounds {
                        let from = ((i + w) % CELLS as u64) as usize;
                        let to = ((i * 3 + w * 5 + 1) % CELLS as u64) as usize;
                        if from == to {
                            continue;
                        }
                        let shift = i % 5 + 1;
                        ex.atomic(|ctx| {
                            let vf = ctx.ctx_read(cells[from], 0)?;
                            let vt = ctx.ctx_read(cells[to], 0)?;
                            ctx.ctx_write(cells[from], 0, vf.wrapping_sub(shift))?;
                            ctx.ctx_write(cells[to], 0, vt.wrapping_add(shift))
                        });
                    }
                })
            })
            .collect();
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let rt = &rt;
                let cells = &cells;
                s.spawn(move || {
                    let mut ex = NativeExec::new(rt);
                    for _ in 0..rounds {
                        let sum = ex.atomic_ro(|ctx| {
                            let mut sum = 0u64;
                            for c in cells {
                                ctx.ctx_work(50);
                                sum = sum.wrapping_add(ctx.ctx_read(*c, 0)?);
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, total(), "torn snapshot under live race");
                    }
                    let st = ex.stats();
                    assert_eq!(st.ro_commits, rounds);
                    assert_eq!(st.ro_aborts, 0, "read-only snapshot aborted: {st:?}");
                    assert!(st.snapshot_reads >= rounds * CELLS as u64);
                })
            })
            .collect();
        for t in writers.into_iter().chain(scanners) {
            t.join().unwrap();
        }
    });

    // Quiescent conservation: the writers' zero-sum shifts (wrapping)
    // leave the ledger total exactly where it started.
    let final_sum = cells
        .iter()
        .fold(0u64, |acc, c| acc.wrapping_add(rt.peek(c.word(0))));
    assert_eq!(final_sum, total(), "ledger total drifted under churn");
}

/// Scans against commits that never pause: one writer moves value round
/// a ledger whose cells share four stripes for as long as two scanners
/// are at it, so on a host with a CPU to spare most snapshot reads find
/// their stripe moved past `rv` and take the ring — at `k = 1` the ring
/// a commit is turning over or spilling as they read it. Every scan must
/// still see one committed prefix.
#[test]
fn scans_racing_a_tireless_writer_read_whole_rings() {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    /// Counts a scanner out however it ends, so a failed one fails the
    /// test instead of leaving the writer going.
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, SeqCst);
        }
    }
    for k in [1, 2] {
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 10,
            stripes: 4,
            versioning: Versioning::Multi { k },
            ..NativeConfig::default()
        });
        let cells = ledger(&rt);
        let scanning = AtomicUsize::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ex = NativeExec::new(&rt);
                for i in 0.. {
                    if scanning.load(SeqCst) == 0 {
                        break;
                    }
                    let (from, to) = (cells[i % CELLS], cells[(i * 3 + 1) % CELLS]);
                    ex.atomic(|ctx| {
                        let vf = ctx.ctx_read(from, 0)?;
                        ctx.ctx_write(from, 0, vf.wrapping_sub(1))?;
                        let vt = ctx.ctx_read(to, 0)?;
                        ctx.ctx_write(to, 0, vt.wrapping_add(1))
                    });
                }
            });
            for scanner in 0..2 {
                let (rt, cells, scanning) = (&rt, &cells, &scanning);
                s.spawn(move || {
                    let _done = Done(scanning);
                    let mut ex = NativeExec::new(rt);
                    for round in 0..20_000 {
                        let sum = ex.atomic_ro(|ctx| {
                            let mut sum = 0u64;
                            for c in cells {
                                // Every seventh scan dawdles, and pins.
                                ctx.ctx_work(if (round + scanner) % 7 == 0 { 300 } else { 5 });
                                sum = sum.wrapping_add(ctx.ctx_read(*c, 0)?);
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, total(), "k={k}: torn snapshot");
                    }
                    assert_eq!(ex.stats().ro_aborts, 0);
                });
            }
        });
        for c in &cells {
            let ring = rt.ring_versions(c.word(0));
            assert!(ring.windows(2).all(|pair| pair[0] < pair[1]), "{ring:?}");
        }
    }
}
