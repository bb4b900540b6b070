//! Stress tests for multi-version snapshot reads on the native TL2
//! backend: a read-only region's snapshot must stay consistent — and the
//! region abort-free — no matter how hard concurrent writers churn the
//! version rings.
//!
//! The invariant under attack is snapshot isolation: every cell a read-only scan
//! observes must come from the single committed prefix at the scan's
//! `rv`, even when writers have published (and pruned) generations of
//! newer versions mid-scan.

use std::sync::{Arc, Barrier};

use hastm::{ObjRef, TmContext, TmExec, TxResult, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
use hastm_sim::mutant::{prove, Mutant};

const CELLS: usize = 8;

/// Initial value of ledger cell `i`; the scan invariant is that any
/// consistent snapshot sums to `total()`.
fn initial(i: usize) -> u64 {
    50 * (i as u64 + 1)
}

fn total() -> u64 {
    (0..CELLS).map(initial).sum()
}

fn multi_rt(k: usize) -> Arc<NativeRuntime> {
    Arc::new(NativeRuntime::new(NativeConfig {
        heap_words: 1 << 10,
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
    let rt = multi_rt(2);
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
    let rt = multi_rt(3);
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
/// the ledger, half its cells a commit, for as long as two scanners are
/// at it, so on a host with a CPU to spare about half the snapshot reads
/// find their cell moved past `rv` and take the ring — at `k = 1` the
/// ring a commit is turning over or spilling as they read it. Every scan
/// must still see one committed prefix.
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
            versioning: Versioning::Multi { k },
            ..NativeConfig::default()
        });
        let cells = ledger(&rt);
        let scanning = AtomicUsize::new(2);
        let ring_reads: u64 = std::thread::scope(|s| {
            s.spawn(|| {
                let mut ex = NativeExec::new(&rt);
                for i in 0.. {
                    if scanning.load(SeqCst) == 0 {
                        break;
                    }
                    // Two transfers over four distinct cells, half the
                    // ledger: the second is the first moved by CELLS / 2.
                    ex.atomic(|ctx| {
                        for shift in [0, CELLS / 2] {
                            let from = cells[(i + shift) % CELLS];
                            let to = cells[(i * 3 + 1 + shift) % CELLS];
                            let vf = ctx.ctx_read(from, 0)?;
                            ctx.ctx_write(from, 0, vf.wrapping_sub(1))?;
                            let vt = ctx.ctx_read(to, 0)?;
                            ctx.ctx_write(to, 0, vt.wrapping_add(1))?;
                        }
                        Ok(())
                    });
                }
            });
            let mut scanners = vec![];
            for scanner in 0..2 {
                let (rt, cells, scanning) = (&rt, &cells, &scanning);
                scanners.push(s.spawn(move || {
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
                    ex.stats().ring_reads
                }));
            }
            scanners.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Scans that never outlived a commit would pass without a ring.
        assert!(ring_reads > 0, "k={k}: no snapshot read took the ring");
        for c in &cells {
            let ring = rt.ring_versions(c.word(0));
            assert!(ring.windows(2).all(|pair| pair[0] < pair[1]), "{ring:?}");
        }
    }
}

/// Nodes each writer of the node round links before it only overwrites.
const NODES: usize = 48;

/// One writer commit of a list round, given the writer's executor, the
/// top of its list, its sum cell, the nodes it has linked (top last)
/// and the commit's number, `i`: it changes the list and the sum cell
/// together.
type WriterStep = fn(&mut NativeExec<'_>, ObjRef, ObjRef, &mut Vec<ObjRef>, u64);

/// The node round's step: link a node this transaction allocates — its
/// words get no history at this commit — or overwrite one an earlier
/// commit of this writer linked.
fn link_or_overwrite(
    ex: &mut NativeExec<'_>,
    head: ObjRef,
    sum: ObjRef,
    nodes: &mut Vec<ObjRef>,
    i: u64,
) {
    if nodes.len() < NODES && (nodes.len() < 8 || i.is_multiple_of(3)) {
        nodes.push(ex.atomic(|ctx| push(ctx, head, sum, i)));
    } else {
        let node = nodes[(i as usize * 7) % nodes.len()];
        ex.atomic(|ctx| {
            let (value, total) = (ctx.ctx_read(node, 0)?, ctx.ctx_read(sum, 0)?);
            ctx.ctx_write(node, 0, value + i)?;
            ctx.ctx_write(sum, 0, total + i)
        });
    }
}

/// The unlink round's step: past four nodes, unlink and free the top
/// node on odd commits; otherwise link a node this transaction allocates,
/// which the free list serves once the floor allows. A scan's two commits
/// start at an even count (each wants two more), so they are an unlink
/// and then a push.
fn unlink_or_push(
    ex: &mut NativeExec<'_>,
    head: ObjRef,
    sum: ObjRef,
    nodes: &mut Vec<ObjRef>,
    i: u64,
) {
    if nodes.len() < 4 || i.is_multiple_of(2) {
        nodes.push(ex.atomic(|ctx| push(ctx, head, sum, i)));
        return;
    }
    ex.atomic(|ctx| {
        let top = ObjRef(hastm_sim::Addr(ctx.ctx_read(head, 0)?));
        let (value, next, total) = (
            ctx.ctx_read(top, 0)?,
            ctx.ctx_read(top, 1)?,
            ctx.ctx_read(sum, 0)?,
        );
        ctx.ctx_write(head, 0, next)?;
        ctx.ctx_write(sum, 0, total - value)?;
        ctx.ctx_free(top, 2);
        Ok(())
    });
    nodes.pop();
}

/// Links a new node holding `i` on top of `head`'s list and adds `i` to
/// `sum`; returns the node.
fn push(ctx: &mut dyn TmContext, head: ObjRef, sum: ObjRef, i: u64) -> TxResult<ObjRef> {
    let node = ctx.ctx_alloc(2);
    let (top, total) = (ctx.ctx_read(head, 0)?, ctx.ctx_read(sum, 0)?);
    ctx.ctx_write(node, 0, i)?;
    ctx.ctx_write(node, 1, top)?;
    ctx.ctx_write(head, 0, node.0 .0)?;
    ctx.ctx_write(sum, 0, total + i)?;
    Ok(node)
}

/// What the clean runs of a list round count: snapshot reads that took
/// a ring, and objects the writers took back from their free lists.
#[derive(Debug)]
struct Counted {
    ring_reads: u64,
    recycled: u64,
}

/// One run of a list round: two writers change their lists with `step`
/// while two snapshot scans check that a writer's list sums to its sum
/// cell, each scan waiting between the two for that writer to commit
/// twice. `Err` names the first scan whose snapshot broke the invariant.
fn list_round(step: WriterStep) -> Result<Counted, String> {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
    use std::time::{Duration, Instant};
    const WRITERS: usize = 2;
    const SCANS: usize = 1_000;
    /// Far longer than any list a writer keeps: a walk this long is
    /// going round a cycle no committed state has.
    const WALK: usize = 10 * NODES;
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, SeqCst);
        }
    }
    let rt = NativeRuntime::new(NativeConfig {
        heap_words: 1 << 16,
        versioning: Versioning::Multi { k: 3 },
        ..NativeConfig::default()
    });
    // Per writer, the top of its list and the sum of its nodes' values,
    // allocated outside any transaction.
    let mut setup = NativeExec::new(&rt);
    let heads: Vec<ObjRef> = (0..WRITERS).map(|_| setup.alloc_obj(1)).collect();
    let sums: Vec<ObjRef> = (0..WRITERS).map(|_| setup.alloc_obj(1)).collect();
    let scanning = AtomicUsize::new(2);
    // Each writer's commits so far, and how many the scans want: a writer
    // commits only while a scan waits on it.
    let commits: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
    let wanted: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (rt, heads, sums, scanning) = (&rt, &heads, &sums, &scanning);
                let (commits, wanted) = (&commits[w], &wanted[w]);
                s.spawn(move || {
                    let mut ex = NativeExec::new(rt);
                    let mut nodes: Vec<ObjRef> = Vec::new();
                    for i in 1u64.. {
                        while commits.load(SeqCst) >= wanted.load(SeqCst) {
                            if scanning.load(SeqCst) == 0 {
                                return ex.stats().recycled;
                            }
                            std::thread::yield_now();
                        }
                        step(&mut ex, heads[w], sums[w], &mut nodes, i);
                        commits.fetch_add(1, SeqCst);
                    }
                    unreachable!()
                })
            })
            .collect();
        let scanners: Vec<_> = (0..2)
            .map(|scanner| {
                let (rt, heads, sums, scanning) = (&rt, &heads, &sums, &scanning);
                let (commits, wanted) = (&commits, &wanted);
                s.spawn(move || {
                    let _done = Done(scanning);
                    let mut ex = NativeExec::new(rt);
                    for scan in 0..SCANS {
                        let torn = ex.atomic_ro(|ctx| {
                            for w in 0..WRITERS {
                                let total = ctx.ctx_read(sums[w], 0)?;
                                // Pinned at `rv` until the writer has
                                // committed twice more (or a second has
                                // passed, lest a failed writer hang this).
                                let (from, since) = (commits[w].load(SeqCst), Instant::now());
                                wanted[w].fetch_max(from + 2, SeqCst);
                                while commits[w].load(SeqCst) < from + 2
                                    && since.elapsed() < Duration::from_secs(1)
                                {
                                    std::thread::yield_now();
                                }
                                let (mut at, mut seen) = (ctx.ctx_read(heads[w], 0)?, 0u64);
                                for _ in 0..WALK {
                                    if at == 0 {
                                        break;
                                    }
                                    let node = ObjRef(hastm_sim::Addr(at));
                                    seen = seen.wrapping_add(ctx.ctx_read(node, 0)?);
                                    at = ctx.ctx_read(node, 1)?;
                                }
                                let torn = |what: String| {
                                    Ok(Some(format!(
                                        "scanner {scanner}, scan {scan}: writer {w}'s {what}"
                                    )))
                                };
                                if at != 0 {
                                    return torn(format!("list does not end in {WALK} nodes"));
                                }
                                if seen != total {
                                    return torn(format!(
                                        "nodes sum to {seen}, its sum cell says {total}"
                                    ));
                                }
                            }
                            Ok(None)
                        });
                        if let Some(torn) = torn {
                            return Err(torn);
                        }
                    }
                    assert_eq!(ex.stats().ro_aborts, 0);
                    Ok(ex.stats().ring_reads)
                })
            })
            .collect();
        let ring_reads = scanners
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<Result<u64, String>>()?;
        let recycled = writers.into_iter().map(|h| h.join().unwrap()).sum();
        Ok(Counted {
            ring_reads,
            recycled,
        })
    })
}

/// Writers link nodes they allocate inside the transaction — whose
/// words a commit publishes no history for — and later overwrite nodes
/// their earlier commits linked, while two snapshot scans check that a
/// writer's list sums to its sum cell, each scan waiting between the two
/// for that writer to commit twice. An overwrite that published no
/// history either (with `Mutant::EverFresh` armed) hands a scan pinned
/// before it the new value beside the old sum.
#[test]
fn scans_of_nodes_linked_and_overwritten_in_transactions_stay_whole() {
    let clean = prove(
        Mutant::EverFresh,
        4,
        |_| list_round(link_or_overwrite),
        |d| d.contains("sum to"),
    );
    assert!(
        clean.iter().all(|c| c.ring_reads > 0),
        "no snapshot read took a ring: {clean:?}"
    );
}

/// Writers unlink and free their top node on every other commit and link
/// a node they allocate on the others, while the scans stay pinned across
/// two of a writer's commits. The free list must not hand a node a pinned
/// scan can still reach to the push that follows its unlink: that push's
/// words publish no history (they have none), so the scan would read the
/// new life's value, or link, where the old one was. With
/// `Mutant::RecycleEarly` armed it does; disarmed, the writers still take
/// nodes back once no scan predates their unlink.
#[test]
fn scans_of_nodes_unlinked_and_freed_in_transactions_stay_whole() {
    let clean = prove(
        Mutant::RecycleEarly,
        4,
        |_| list_round(unlink_or_push),
        |d| d.contains("sum to") || d.contains("does not end"),
    );
    assert!(
        clean.iter().all(|c| c.recycled > 0),
        "no writer took a freed node back: {clean:?}"
    );
}
