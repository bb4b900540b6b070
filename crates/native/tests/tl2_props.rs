//! Property tests for the native TL2 commit protocol:
//!
//! * a committed transaction's write-back matches a host-side model, the
//!   written stripes advance to the commit's write version, and every
//!   lock is released;
//! * no read of a locked-or-newer stripe survives validation — at read
//!   time (the lock–load–lock sandwich) and at commit time (read-set
//!   revalidation);
//! * a failed commit is invisible: heap words and lock words are exactly
//!   as before the attempt;
//! * write-back is atomic under the held locks: at every point during
//!   write-back, every written stripe's lock bit is observably held;
//! * the redo log is a map: against a `HashMap` reference, a read sees
//!   the attempt's last write to that word, and the commit stores the
//!   last value per address and locks each written stripe once.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use hastm::{Abort, ObjRef, TmContext, TmExec};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, WritebackHook};
use proptest::prelude::*;

fn runtime(mark_filter: bool) -> NativeRuntime {
    NativeRuntime::new(NativeConfig {
        heap_words: 1 << 12,
        stripes: 1 << 10,
        mark_filter,
        ..NativeConfig::default()
    })
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
        mark_filter in any::<bool>(),
    ) {
        let rt = runtime(mark_filter);
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

    /// A slow-path read of a stripe someone else holds locked aborts at
    /// read time, and a stripe whose version moved past the reader's rv
    /// aborts at read time — the lock–load–lock sandwich.
    #[test]
    fn locked_or_newer_read_aborts_at_read_time(
        cell in 0..CELLS as u8,
        value in any::<u64>(),
    ) {
        let rt = runtime(false);
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
        mark_filter in any::<bool>(),
    ) {
        let write_cell = (read_cell + cell_offset) % CELLS as u8;
        let rt = runtime(mark_filter);
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

        prop_assert_eq!(txn.commit(), Err(Abort::Conflict));
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
    }
}

/// Words of the redo-log object: five times the summary word's 64 bits
/// and twenty times [`LOG_STRIPES`], so distinct words collide in both.
const LOG_WORDS: u32 = 320;
const LOG_STRIPES: usize = 16;

/// One write-back hook call: `(done, total)` and the stripes held then.
type HookCall = (usize, usize, BTreeSet<usize>);

fn initial_word(word: u32) -> u64 {
    1_000 + u64::from(word)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// One attempt's reads and writes against a `HashMap`: read-after-write
    /// and overwrite at every log length (a few entries, scanned; hundreds,
    /// indexed), words that share a summary bit, many words per stripe.
    /// Then the commit, watched from the write-back hook: one store per
    /// distinct address, exactly the written stripes locked, and afterwards
    /// the last value per address in the heap.
    #[test]
    fn redo_log_matches_a_hashmap_reference(
        ops in proptest::collection::vec((0..LOG_WORDS, any::<u64>(), any::<bool>()), 1..400),
        narrow in any::<bool>(),
        mark_filter in any::<bool>(),
    ) {
        let rt = Arc::new(NativeRuntime::new(NativeConfig {
            heap_words: 1 << 10,
            stripes: LOG_STRIPES,
            mark_filter,
            ..NativeConfig::default()
        }));
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

        // A narrow case keeps to five words that share one summary bit and
        // one stripe, so most writes overwrite and every lookup is a hit.
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

        let written: BTreeSet<usize> =
            model.keys().map(|&w| rt.stripe_of(obj.word(w).0)).collect();
        let seen: Arc<Mutex<Vec<HookCall>>> = Arc::default();
        let hook: WritebackHook = {
            let (rt, seen) = (Arc::clone(&rt), Arc::clone(&seen));
            Arc::new(move |done, total| {
                let locked = (0..LOG_STRIPES).filter(|&s| rt.stripe_state(s).locked).collect();
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
                prop_assert_eq!(locked, &written, "exactly the written stripes are held");
            }
        }
        let wv = rt.clock();
        for word in 0..LOG_WORDS {
            let expect = model.get(&word).copied().unwrap_or(initial_word(word));
            prop_assert_eq!(rt.peek(obj.word(word)), expect, "word {}", word);
        }
        for stripe in 0..LOG_STRIPES {
            let st = rt.stripe_state(stripe);
            prop_assert!(!st.locked);
            prop_assert_eq!(st.version == wv, written.contains(&stripe), "stripe {}", stripe);
        }
    }
}

/// From validation to the last store every written stripe's lock bit is
/// held, by the first store the commit epoch (filter on) has moved, and
/// the heap transitions happen one word at a time under those locks —
/// observed from inside the write-back hook.
#[test]
fn writeback_holds_every_written_stripe_lock() {
    let rt = Arc::new(runtime(true));
    let mut ex = NativeExec::new(&rt);
    let cells = alloc_cells(&mut ex);
    let stripes: Vec<usize> = cells.iter().map(|c| rt.stripe_of(c.word(0).0)).collect();

    let violation = Arc::new(AtomicBool::new(false));
    let epoch_before = rt.epoch();
    let hook: WritebackHook = {
        let violation = Arc::clone(&violation);
        let rt = Arc::clone(&rt);
        let stripes = stripes.clone();
        Arc::new(move |done, _total| {
            for &s in &stripes {
                if !rt.stripe_state(s).locked {
                    violation.store(true, Ordering::SeqCst);
                }
            }
            // The epoch must bump before the first store is visible: not
            // yet at `(0, n)`, which is the last thing before the bump.
            if (rt.epoch() == epoch_before) != (done == 0) {
                violation.store(true, Ordering::SeqCst);
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
        "write-back observed an unlocked written stripe or an unbumped epoch"
    );
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(rt.peek(c.word(0)), 7 + i as u64);
    }
}

/// Concurrent randomized transfers conserve the total balance — the
/// classic atomicity smoke for the whole protocol under real contention.
#[test]
fn concurrent_transfers_conserve_total_balance() {
    for mark_filter in [false, true] {
        let rt = runtime(mark_filter);
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
        assert_eq!(
            total, 4_000,
            "mark_filter={mark_filter}: balance not conserved"
        );
    }
}

/// The epoch is the filter's: with the filter off no commit — writing,
/// read-only or aborted — moves it, and with it on every writing commit
/// still does.
#[test]
fn only_filter_on_commits_touch_the_epoch() {
    for mark_filter in [false, true] {
        let rt = runtime(mark_filter);
        let mut ex = NativeExec::new(&rt);
        let cells = alloc_cells(&mut ex);
        let mut other = NativeExec::new(&rt);
        for round in 0..16u64 {
            ex.atomic(|ctx| {
                let v = ctx.ctx_read(cells[0], 0)?;
                ctx.ctx_write(cells[1], 0, v + round)
            });
            assert_eq!(ex.atomic(|ctx| ctx.ctx_read(cells[1], 0)), 100 + round);
            // A commit that fails validation.
            let mut doomed = ex.txn();
            doomed.ctx_read(cells[2], 0).unwrap();
            doomed.ctx_write(cells[3], 0, round).unwrap();
            other.atomic(|ctx| ctx.ctx_write(cells[2], 0, round));
            assert_eq!(doomed.commit(), Err(Abort::Conflict));
        }
        let writing_commits = CELLS as u64 + 2 * 16;
        assert_eq!(
            rt.clock(),
            writing_commits + 16,
            "the doomed commits took a wv too"
        );
        let expected = if mark_filter { writing_commits } else { 0 };
        assert_eq!(rt.epoch(), expected, "mark_filter={mark_filter}");
    }
}

/// **The filter's defect, as a specimen** (DESIGN §9c; ROADMAP item 1,
/// the filter's deletion): delete this test with the filter. T1 reads `x` on the fast
/// path and writes `y`; T2 reads `y` on the slow path and writes `x`. The
/// hook's `(0, n)` call parks T2 where the protocol has its hole — write
/// stripe locked, read set validated, epoch not yet bumped — and T1 runs
/// start to finish inside that window: its fast read of `x` looks at no
/// lock, and its commit finds the epoch where its filter left it. Both
/// commit, each having read what the other overwrote: write skew, which
/// no serial order of the two produces. Plain TL2 (filter off) refuses
/// T1's read, because `x`'s stripe is locked.
#[test]
fn filter_admits_write_skew_in_the_validate_to_epoch_bump_window() {
    for mark_filter in [true, false] {
        let rt = Arc::new(runtime(mark_filter));
        let (mut t1, mut t2) = (NativeExec::new(&rt), NativeExec::new(&rt));
        let (x, y) = (t1.alloc_obj(1), t1.alloc_obj(1));
        t1.atomic(|ctx| {
            ctx.ctx_write(x, 0, 1)?;
            ctx.ctx_write(y, 0, 1)
        });
        // A slow read files `x`'s stripe in T1's filter.
        assert_eq!(t1.atomic(|ctx| ctx.ctx_read(x, 0)), 1);

        let (parked, resume) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let hook: WritebackHook = {
            let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
            let t2_thread = AtomicBool::new(true);
            Arc::new(move |done, _total| {
                // T2's commit is the first to get here; T1's, inside the
                // window, must not park.
                if done == 0 && t2_thread.swap(false, Ordering::SeqCst) {
                    parked.wait();
                    resume.wait();
                }
            })
        };
        rt.set_writeback_hook(Some(hook));
        let (t1_read, t1_commit, t2_commit) = std::thread::scope(|s| {
            let t2_commit = s.spawn(|| {
                let mut txn = t2.txn();
                let seen = txn.ctx_read(y, 0).unwrap();
                txn.ctx_write(x, 0, seen + 1).unwrap();
                txn.commit()
            });
            parked.wait();
            let mut txn = t1.txn();
            let read = txn.ctx_read(x, 0);
            let commit = read.and_then(|seen| {
                assert!(txn.used_fast_path());
                txn.ctx_write(y, 0, seen + 1)?;
                txn.commit()
            });
            resume.wait();
            (read, commit, t2_commit.join().unwrap())
        });
        rt.set_writeback_hook(None);

        assert_eq!(t2_commit, Ok(()));
        if mark_filter {
            assert_eq!((t1_read, t1_commit), (Ok(1), Ok(())), "the window closed?");
            assert_eq!(
                (rt.peek(x.word(0)), rt.peek(y.word(0))),
                (2, 2),
                "serially, whoever ran second would have read a 2 and written a 3"
            );
        } else {
            assert_eq!(t1_read, Err(Abort::Conflict), "TL2 sees T2's lock");
            assert_eq!((rt.peek(x.word(0)), rt.peek(y.word(0))), (2, 1));
        }
    }
}
