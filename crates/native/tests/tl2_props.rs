//! Property tests for the native TL2 commit protocol:
//!
//! * a committed transaction's write-back matches a host-side model, the
//!   written stripes advance to the commit's write version, and every
//!   lock is released;
//! * every word is its own stripe: a commit moves the versions of exactly
//!   the words it wrote, and words a former lock table's length apart do
//!   not conflict;
//! * no read of a locked-or-newer stripe survives validation — at read
//!   time (the lock–load–lock sandwich) and at commit time (read-set
//!   revalidation);
//! * a failed commit is invisible: heap words and lock words are exactly
//!   as before the attempt (it still took a write version, which a
//!   read-only commit never does);
//! * write-back is atomic under the held locks: at every point during
//!   write-back, every written stripe's lock bit is observably held;
//! * the redo log is a map: against a `HashMap` reference, a read sees
//!   the attempt's last write to that word, and the commit stores the
//!   last value per address and holds each written word's lock;
//! * under live races, transfers conserve their total; with a reader
//!   parked inside the read sandwich, or a committer parked between
//!   validation and write-back, no reader sees a torn sum and an
//!   anti-dependency cycle ends in a serializable state;
//! * a read of a stripe held by a commit parked between validation and
//!   write-back aborts, so the two transactions cannot both commit.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use hastm::{Abort, ObjRef, TmContext, TmExec};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, WritebackHook};
use proptest::prelude::*;

fn runtime() -> NativeRuntime {
    NativeRuntime::new(NativeConfig::default())
}

const CELLS: usize = 8;

fn alloc_cells(ex: &mut NativeExec<'_>) -> Vec<ObjRef> {
    (0..CELLS)
        .map(|i| {
            let c = ex.alloc_obj(1);
            ex.atomic(|ctx| ctx.ctx_write(c, 0, 100 + i as u64));
            c
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Commit write-back matches a host-side model; written stripes
    /// advance to the commit's write version; all locks are released.
    #[test]
    fn committed_writeback_matches_model(
        writes in proptest::collection::vec((0..CELLS as u8, any::<u64>()), 1..16),
    ) {
        let rt = runtime();
        let mut ex = NativeExec::new(&rt);
        let cells = alloc_cells(&mut ex);
        let mut model: HashMap<u8, u64> =
            (0..CELLS as u8).map(|i| (i, 100 + u64::from(i))).collect();

        let writes_ref = &writes;
        let cells_ref = &cells;
        ex.atomic(|ctx| {
            for &(cell, value) in writes_ref {
                ctx.ctx_write(cells_ref[cell as usize], 0, value)?;
            }
            // Reads inside the txn see the redo log.
            for &(cell, _) in writes_ref {
                let last = writes_ref
                    .iter()
                    .rev()
                    .find(|&&(c, _)| c == cell)
                    .map(|&(_, v)| v)
                    .unwrap();
                assert_eq!(ctx.ctx_read(cells_ref[cell as usize], 0)?, last);
            }
            Ok(())
        });
        for &(cell, value) in &writes {
            model.insert(cell, value);
        }

        let wv = rt.clock();
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(rt.peek(cell.word(0)), model[&(i as u8)], "cell {}", i);
            let st = rt.stripe_state(rt.stripe_of(cell.word(0).0));
            prop_assert!(!st.locked, "stripe of cell {} left locked", i);
            if writes.iter().any(|&(c, _)| c as usize == i) {
                prop_assert_eq!(
                    st.version, wv,
                    "written stripe of cell {} must advance to the commit wv", i
                );
            }
        }
    }

    /// Every word has a lock of its own: a commit moves the versions of
    /// exactly the words it wrote, to its `wv`, and leaves every other
    /// allocated word's as it was — whatever earlier commits left where,
    /// and however the written words sit among the rest.
    #[test]
    fn a_commit_moves_exactly_the_versions_of_the_words_it_wrote(
        sizes in proptest::collection::vec(1..24u32, 1..6),
        earlier in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..24),
        writes in proptest::collection::vec((any::<usize>(), any::<u64>()), 1..16),
    ) {
        let rt = runtime();
        let mut ex = NativeExec::new(&rt);
        let words: Vec<(ObjRef, u32)> = sizes
            .iter()
            .flat_map(|&n| {
                let obj = ex.alloc_obj(n);
                (0..n).map(move |i| (obj, i))
            })
            .collect();
        let word = |at: usize| words[at % words.len()];
        for &(at, value) in &earlier {
            let (obj, i) = word(at);
            ex.atomic(|ctx| ctx.ctx_write(obj, i, value));
        }
        let version = |addr: u64| rt.stripe_state(rt.stripe_of(addr)).version;
        let allocated: Vec<u64> = (0..rt.heap().used_words() as u64).map(|w| w << 3).collect();
        let before: Vec<u64> = allocated.iter().map(|&addr| version(addr)).collect();

        let written: BTreeSet<u64> = writes
            .iter()
            .map(|&(at, _)| word(at))
            .map(|(obj, i)| obj.word(i).0)
            .collect();
        ex.atomic(|ctx| {
            for &(at, value) in &writes {
                let (obj, i) = word(at);
                ctx.ctx_write(obj, i, value)?;
            }
            Ok(())
        });
        let wv = rt.clock();
        for (&addr, &was) in allocated.iter().zip(&before) {
            let expect = if written.contains(&addr) { wv } else { was };
            prop_assert_eq!(version(addr), expect, "word at {:#x}", addr);
        }
    }

    /// A slow-path read of a stripe someone else holds locked aborts at
    /// read time, and a stripe whose version moved past the reader's rv
    /// aborts at read time — the lock–load–lock sandwich.
    #[test]
    fn locked_or_newer_read_aborts_at_read_time(
        cell in 0..CELLS as u8,
        value in any::<u64>(),
    ) {
        let rt = runtime();
        let mut setup = NativeExec::new(&rt);
        let cells = alloc_cells(&mut setup);
        let addr = cells[cell as usize].word(0);
        let stripe = rt.stripe_of(addr.0);

        // Locked by a stalled committer: read aborts.
        {
            let mut ex = NativeExec::new(&rt);
            let pre = rt.debug_lock_stripe(stripe).expect("unlocked");
            let mut txn = ex.txn();
            prop_assert_eq!(txn.ctx_read(cells[cell as usize], 0), Err(Abort::Conflict));
            txn.rollback();
            rt.debug_unlock_stripe(stripe, pre);
        }

        // Newer than rv: a commit lands after the snapshot, read aborts.
        {
            let mut reader = NativeExec::new(&rt);
            let mut writer = NativeExec::new(&rt);
            let mut txn = reader.txn();
            writer.atomic(|ctx| ctx.ctx_write(cells[cell as usize], 0, value));
            prop_assert_eq!(txn.ctx_read(cells[cell as usize], 0), Err(Abort::Conflict));
            txn.rollback();
        }
    }

    /// A read that validated at read time but whose stripe moves past rv
    /// before commit is caught by commit-time revalidation, and the
    /// failed commit leaves heap and lock words untouched.
    #[test]
    fn stale_read_set_fails_commit_and_failed_commit_is_invisible(
        read_cell in 0..CELLS as u8,
        cell_offset in 1..CELLS as u8,
        value in any::<u64>(),
    ) {
        let write_cell = (read_cell + cell_offset) % CELLS as u8;
        let rt = runtime();
        let mut victim = NativeExec::new(&rt);
        let cells = alloc_cells(&mut victim);
        let write_addr = cells[write_cell as usize].word(0);
        let before_value = rt.peek(write_addr);
        let before_lock = rt.stripe_state(rt.stripe_of(write_addr.0));

        let mut txn = victim.txn();
        let seen = txn.ctx_read(cells[read_cell as usize], 0).unwrap();
        assert_eq!(seen, 100 + u64::from(read_cell));
        txn.ctx_write(cells[write_cell as usize], 0, value).unwrap();

        // Interference: another thread commits to the stripe we read.
        let mut other = NativeExec::new(&rt);
        other.atomic(|ctx| {
            let v = ctx.ctx_read(cells[read_cell as usize], 0)?;
            ctx.ctx_write(cells[read_cell as usize], 0, v + 1)
        });

        let clock = rt.clock();
        prop_assert_eq!(txn.commit(), Err(Abort::Conflict));
        prop_assert_eq!(rt.clock(), clock + 1, "the failed commit took a wv too");
        prop_assert_eq!(
            rt.peek(write_addr), before_value,
            "failed commit must not write back"
        );
        let after_lock = rt.stripe_state(rt.stripe_of(write_addr.0));
        prop_assert!(!after_lock.locked);
        prop_assert_eq!(
            after_lock.version, before_lock.version,
            "failed commit must restore the pre-lock version"
        );

        let clock = rt.clock();
        let read = victim.atomic(|ctx| ctx.ctx_read(cells[read_cell as usize], 0));
        prop_assert_eq!(read, seen + 1);
        prop_assert_eq!(rt.clock(), clock, "a read-only commit takes no wv");
    }
}

/// Words 2^16 apart — one lock table's length apart when words were
/// hashed onto a table of 2^16 stripes, and so sharing a lock — each have
/// their own: a commit to one neither aborts a reader of the other at read
/// time nor fails that reader's commit-time validation.
#[test]
fn words_a_table_apart_do_not_conflict() {
    const APART: u32 = 1 << 16;
    let rt = NativeRuntime::new(NativeConfig::default());
    let obj = rt.alloc_obj(APART + 2);
    let (mut reader, mut writer) = (NativeExec::new(&rt), NativeExec::new(&rt));
    let mut txn = reader.txn();
    assert_eq!(txn.ctx_read(obj, 0), Ok(0));
    writer.atomic(|ctx| ctx.ctx_write(obj, APART, 7));
    assert_eq!(
        txn.ctx_read(obj, 0),
        Ok(0),
        "read after the far word's commit"
    );
    txn.ctx_write(obj, 1, 1).unwrap();
    assert_eq!(txn.commit(), Ok(()), "the read still validates");
    assert_eq!((rt.peek(obj.word(1)), rt.peek(obj.word(APART))), (1, 7));
}

/// Words of the redo-log object: five times the summary word's 64 bits,
/// so distinct words collide in it.
const LOG_WORDS: u32 = 320;

/// One write-back hook call: `(done, total)` and the stripes held then.
type HookCall = (usize, usize, BTreeSet<usize>);

fn initial_word(word: u32) -> u64 {
    1_000 + u64::from(word)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// One attempt's reads and writes against a `HashMap`: read-after-write
    /// and overwrite at every log length (a few entries, scanned; hundreds,
    /// indexed), words that share a summary bit. Then the commit, watched
    /// from the write-back hook: one store per distinct address, exactly
    /// the written words' locks held, and afterwards the last value per
    /// address in the heap.
    #[test]
    fn redo_log_matches_a_hashmap_reference(
        ops in proptest::collection::vec((0..LOG_WORDS, any::<u64>(), any::<bool>()), 1..400),
        narrow in any::<bool>(),
    ) {
        let rt = Arc::new(NativeRuntime::new(NativeConfig::default()));
        let mut ex = NativeExec::new(&rt);
        let obj = ex.alloc_obj(LOG_WORDS);
        ex.atomic(|ctx| {
            for word in 0..LOG_WORDS {
                ctx.ctx_write(obj, word, initial_word(word))?;
            }
            Ok(())
        });
        for word in 0..LOG_WORDS {
            prop_assert_eq!(rt.peek(obj.word(word)), initial_word(word));
        }

        // A narrow case keeps to five words that share one summary bit, so
        // most writes overwrite and every lookup is a hit.
        let word_of = |word: u32| if narrow { word % 5 * 64 } else { word };
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut txn = ex.txn();
        for &(word, value, write) in &ops {
            let word = word_of(word);
            if write {
                txn.ctx_write(obj, word, value).unwrap();
                model.insert(word, value);
            } else {
                let expect = model.get(&word).copied().unwrap_or(initial_word(word));
                prop_assert_eq!(txn.ctx_read(obj, word), Ok(expect), "word {}", word);
            }
        }

        let stripes = (0..LOG_WORDS).map(|w| rt.stripe_of(obj.word(w).0)).collect::<Vec<_>>();
        let written: BTreeSet<usize> =
            model.keys().map(|&w| rt.stripe_of(obj.word(w).0)).collect();
        let seen: Arc<Mutex<Vec<HookCall>>> = Arc::default();
        let hook: WritebackHook = {
            let (rt, seen, stripes) = (Arc::clone(&rt), Arc::clone(&seen), stripes.clone());
            Arc::new(move |done, total| {
                let locked = stripes.iter().copied().filter(|&s| rt.stripe_state(s).locked).collect();
                seen.lock().unwrap().push((done, total, locked));
            })
        };
        rt.set_writeback_hook(Some(hook));
        let committed = txn.commit();
        rt.set_writeback_hook(None);
        prop_assert_eq!(committed, Ok(()));

        let seen = seen.lock().unwrap();
        if model.is_empty() {
            prop_assert!(seen.is_empty(), "a read-only commit writes nothing back");
        } else {
            prop_assert_eq!(seen.len(), model.len() + 1, "one store per distinct address");
            for (i, (done, total, locked)) in seen.iter().enumerate() {
                prop_assert_eq!((*done, *total), (i, model.len()));
                prop_assert_eq!(locked, &written, "exactly the written words' locks are held");
            }
        }
        let wv = rt.clock();
        for word in 0..LOG_WORDS {
            let expect = model.get(&word).copied().unwrap_or(initial_word(word));
            prop_assert_eq!(rt.peek(obj.word(word)), expect, "word {}", word);
        }
        for stripe in stripes {
            let st = rt.stripe_state(stripe);
            prop_assert!(!st.locked);
            prop_assert_eq!(st.version == wv, written.contains(&stripe), "stripe {}", stripe);
        }
    }
}

/// From validation to the last store every written stripe's lock bit is
/// held, and the heap transitions happen one word at a time under those
/// locks — observed from inside the write-back hook.
#[test]
fn writeback_holds_every_written_stripe_lock() {
    let rt = Arc::new(runtime());
    let mut ex = NativeExec::new(&rt);
    let cells = alloc_cells(&mut ex);
    let written: Vec<usize> = cells.iter().map(|c| rt.stripe_of(c.word(0).0)).collect();

    let violation = Arc::new(AtomicBool::new(false));
    let hook: WritebackHook = {
        let violation = Arc::clone(&violation);
        let rt = Arc::clone(&rt);
        let written = written.clone();
        Arc::new(move |_done, _total| {
            for &s in &written {
                if !rt.stripe_state(s).locked {
                    violation.store(true, Ordering::SeqCst);
                }
            }
        })
    };
    rt.set_writeback_hook(Some(hook));
    ex.atomic(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            ctx.ctx_write(*c, 0, 7 + i as u64)?;
        }
        Ok(())
    });
    rt.set_writeback_hook(None);

    assert!(
        !violation.load(Ordering::SeqCst),
        "write-back observed an unlocked written stripe"
    );
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(rt.peek(c.word(0)), 7 + i as u64);
    }
}

/// Concurrent randomized transfers conserve the total balance — the
/// classic atomicity smoke for the whole protocol under real contention.
#[test]
fn concurrent_transfers_conserve_total_balance() {
    let rt = runtime();
    let mut setup = NativeExec::new(&rt);
    let accounts: Vec<ObjRef> = (0..4)
        .map(|_| {
            let a = setup.alloc_obj(1);
            setup.atomic(|ctx| ctx.ctx_write(a, 0, 1_000));
            a
        })
        .collect();
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let rt = &rt;
            let accounts = &accounts;
            s.spawn(move || {
                let mut ex = NativeExec::new(rt);
                let mut x = tid.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for _ in 0..400 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x % 4) as usize;
                    // Distinct from `from`: a self-transfer would fold
                    // both writes into one redo-log slot.
                    let to = (from + 1 + ((x >> 8) % 3) as usize) % 4;
                    let amount = (x >> 16) % 50;
                    ex.atomic(|ctx| {
                        let f = ctx.ctx_read(accounts[from], 0)?;
                        if f >= amount {
                            let t = ctx.ctx_read(accounts[to], 0)?;
                            ctx.ctx_write(accounts[from], 0, f - amount)?;
                            ctx.ctx_write(accounts[to], 0, t + amount)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    let total: u64 = accounts.iter().map(|a| rt.peek(a.word(0))).sum();
    assert_eq!(total, 4_000, "balance not conserved");
}

/// Runs `txn` on its own thread with `rt`'s write-back hook parking its
/// commit between validation and write-back, and `meanwhile` on this
/// thread while it is parked; returns both results.
fn with_parked_commit<A: Send, B>(
    rt: &Arc<NativeRuntime>,
    txn: impl FnOnce() -> A + Send,
    meanwhile: impl FnOnce() -> B,
) -> (A, B) {
    let (parked, resume) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let hook: WritebackHook = {
        let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
        Arc::new(move |done, _total| {
            if done == 0 {
                parked.wait();
                resume.wait();
            }
        })
    };
    rt.set_writeback_hook(Some(hook));
    std::thread::scope(|s| {
        let parked_txn = s.spawn(txn);
        parked.wait();
        rt.set_writeback_hook(None);
        let other = meanwhile();
        resume.wait();
        (parked_txn.join().unwrap(), other)
    })
}

/// Anti-dependency cycle: T1 runs `Y := X + 1`, T2 runs `X := Y + 1`.
/// Every serializable history ends with the last committer's cell exactly
/// one above the other, so `|X - Y| == 1`. T1 reads `X`, then T2 commits
/// and parks holding `X`'s lock, its value not yet written back; T1's
/// commit must then fail read-set validation. A commit that publishes
/// against that stale read leaves both cells at 1. Each transaction takes
/// each role once.
#[test]
fn anti_dependency_cycle_stays_serializable() {
    for round in 0..2 {
        let rt = Arc::new(runtime());
        let (mut t1, mut t2) = (NativeExec::new(&rt), NativeExec::new(&rt));
        let (x, y) = (t1.alloc_obj(1), t1.alloc_obj(1));
        t1.atomic(|ctx| {
            ctx.ctx_write(x, 0, 0)?;
            ctx.ctx_write(y, 0, 0)
        });
        let (src, dst) = if round == 0 { (x, y) } else { (y, x) };
        let mut t1_txn = t1.txn();
        let seen = t1_txn.ctx_read(src, 0).unwrap();
        let (t2_commit, t1_commit) = with_parked_commit(
            &rt,
            || {
                let mut txn = t2.txn();
                let v = txn.ctx_read(dst, 0).unwrap();
                txn.ctx_write(src, 0, v + 1).unwrap();
                txn.commit()
            },
            || {
                t1_txn.ctx_write(dst, 0, seen + 1).unwrap();
                t1_txn.commit()
            },
        );
        assert_eq!(t2_commit, Ok(()), "round {round}");
        assert_eq!(t1_commit, Err(Abort::Conflict), "round {round}");
        t1.atomic(|ctx| {
            let v = ctx.ctx_read(src, 0)?;
            ctx.ctx_write(dst, 0, v + 1)
        });
        let (vx, vy) = (rt.peek(x.word(0)), rt.peek(y.word(0)));
        assert_eq!(
            vx.abs_diff(vy),
            1,
            "round {round}: X={vx} Y={vy} is not a serializable outcome"
        );
    }
}

/// What `live_race_never_tears_reads`' writer keeps its two cells summing to.
const TOTAL: u64 = 1_000;

/// A reader of two cells a writer keeps summing to [`TOTAL`] never sees a
/// torn sum. A read-only attempt commits without validation, so the
/// sandwich's second lock-word check is all that stops a value stored
/// after its first check. The read hook parks the reader right there, on
/// `b` with `a` already read, while the writer commits a transfer; its
/// write-back hook parks the writer once between validation and
/// write-back, so the reader also tries `a` under a held lock.
#[test]
fn live_race_never_tears_reads() {
    let rt = Arc::new(runtime());
    let (mut reader, mut writer) = (NativeExec::new(&rt), NativeExec::new(&rt));
    let (a, b) = (writer.alloc_obj(1), writer.alloc_obj(1));
    writer.atomic(|ctx| {
        ctx.ctx_write(a, 0, TOTAL / 2)?;
        ctx.ctx_write(b, 0, TOTAL - TOTAL / 2)
    });
    let transfer = |ex: &mut NativeExec<'_>, shift: u64| {
        ex.atomic(|ctx| {
            let va = ctx.ctx_read(a, 0)?;
            let vb = ctx.ctx_read(b, 0)?;
            ctx.ctx_write(a, 0, va + shift)?;
            ctx.ctx_write(b, 0, vb - shift)
        })
    };
    let sum = |ex: &mut NativeExec<'_>| {
        let mut txn = ex.txn();
        let va = txn.ctx_read(a, 0)?;
        let vb = txn.ctx_read(b, 0)?;
        txn.commit()?;
        Ok(va + vb)
    };

    // The reader parked inside the sandwich while a transfer commits.
    let (parked, resume) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let b_addr = b.word(0).0;
    rt.set_read_hook(Some({
        let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
        Arc::new(move |addr| {
            if addr == b_addr {
                parked.wait();
                resume.wait();
            }
        })
    }));
    let inside = std::thread::scope(|s| {
        let read = s.spawn(|| sum(&mut reader));
        parked.wait();
        rt.set_read_hook(None);
        transfer(&mut writer, 3);
        resume.wait();
        read.join().unwrap()
    });
    assert_eq!(inside, Err(Abort::Conflict), "a torn read got through");

    // A transfer parked with both locks held: the reader's first check.
    let (commit, outside) =
        with_parked_commit(&rt, || transfer(&mut writer, 5), || sum(&mut reader));
    assert_eq!((commit, outside), ((), Err(Abort::Conflict)));
    assert_eq!(sum(&mut reader), Ok(TOTAL));
    assert_eq!(
        (rt.peek(a.word(0)), rt.peek(b.word(0))),
        (TOTAL / 2 + 8, TOTAL - TOTAL / 2 - 8)
    );
}

/// T2 reads `y` and writes `x`; the hook's `(0, n)` call parks its
/// commit where the write stripe is locked and the read set validated but
/// nothing is written back. T1, which reads `x` and would write `y`,
/// runs inside that window: its read finds `x`'s stripe locked and
/// aborts, so the two cannot both commit having read what the other
/// overwrote (write skew; DESIGN §9c tells how the deleted native mark
/// filter let exactly this through).
#[test]
fn a_read_of_a_stripe_held_by_a_parked_commit_aborts() {
    let rt = Arc::new(runtime());
    let (mut t1, mut t2) = (NativeExec::new(&rt), NativeExec::new(&rt));
    let (x, y) = (t1.alloc_obj(1), t1.alloc_obj(1));
    t1.atomic(|ctx| {
        ctx.ctx_write(x, 0, 1)?;
        ctx.ctx_write(y, 0, 1)
    });

    let (parked, resume) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let hook: WritebackHook = {
        let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
        Arc::new(move |done, _total| {
            if done == 0 {
                parked.wait();
                resume.wait();
            }
        })
    };
    rt.set_writeback_hook(Some(hook));
    let (t1_read, t2_commit) = std::thread::scope(|s| {
        let t2_commit = s.spawn(|| {
            let mut txn = t2.txn();
            let seen = txn.ctx_read(y, 0).unwrap();
            txn.ctx_write(x, 0, seen + 1).unwrap();
            txn.commit()
        });
        parked.wait();
        let mut txn = t1.txn();
        let read = txn.ctx_read(x, 0);
        txn.rollback();
        resume.wait();
        (read, t2_commit.join().unwrap())
    });
    rt.set_writeback_hook(None);

    assert_eq!(t2_commit, Ok(()));
    assert_eq!(t1_read, Err(Abort::Conflict), "TL2 sees T2's lock");
    assert_eq!((rt.peek(x.word(0)), rt.peek(y.word(0))), (2, 1));
}
