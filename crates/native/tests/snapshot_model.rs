//! Model test for snapshot reads: whichever way a read inside an
//! `atomic_ro` region is served — from the word itself while its stripe
//! has not moved past the region's `rv`, from the version ring once it
//! has, or from the heap for a word no commit ever wrote — it returns the
//! value the word had when the region began.
//!
//! Nothing races here. One thread drives a writer executor and a reader
//! executor by hand: the reader's region is opened after a prefix of the
//! history (which pins its `rv` through its live-snapshot slot), and the
//! rest of the history commits from *inside* the region's closure, with
//! every word re-read after every commit. The runtime has two stripes, so
//! every word aliases half the others and a commit to one word moves the
//! version of words it never touched.
#![cfg(not(feature = "seeded-bug"))]

use hastm::{ObjRef, TmExec, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};
use proptest::prelude::*;

/// Words commits may write.
const WRITTEN: u32 = 6;
/// Words past them that no commit ever writes (their rings never exist).
const UNTOUCHED: u32 = 2;
const WORDS: u32 = WRITTEN + UNTOUCHED;

/// One committed transaction: `(word, value)` writes, applied in order.
type Commit = Vec<(u32, u64)>;

fn runtime(k: usize, mark_filter: bool) -> NativeRuntime {
    NativeRuntime::new(NativeConfig {
        heap_words: 64,
        stripes: 2,
        mark_filter,
        versioning: Versioning::Multi { k },
        ..NativeConfig::default()
    })
}

fn apply(writer: &mut NativeExec<'_>, obj: ObjRef, commit: &Commit) {
    writer.atomic(|ctx| {
        for &(word, value) in commit {
            ctx.ctx_write(obj, word, value)?;
        }
        Ok(())
    });
}

/// Opens a region after `history[..pin]`, commits the rest from inside it
/// and checks every word against the model after every step, and the
/// reader's counters against which reads the model says had to go past
/// the current version.
fn pinned_region_sees_its_prefix(
    history: &[Commit],
    pin: usize,
    k: usize,
    mark_filter: bool,
) -> Result<(), TestCaseError> {
    let rt = runtime(k, mark_filter);
    let mut writer = NativeExec::new(&rt);
    let mut reader = NativeExec::new(&rt);
    let obj = writer.alloc_obj(WORDS);
    let stripe = |word: u32| rt.stripe_of(obj.word(word).0);

    let mut model = [0u64; WORDS as usize];
    for commit in &history[..pin] {
        apply(&mut writer, obj, commit);
        for &(word, value) in commit {
            model[word as usize] = value;
        }
    }

    // Stripes some commit has written since the region began: a read of a
    // word on one of them cannot be served from the current version.
    let mut moved = [false; 2];
    let (mut reads, mut past_current) = (0u64, 0u64);
    let mut wrong = Vec::new();
    reader.atomic_ro(|ctx| {
        for step in pin..=history.len() {
            for word in 0..WORDS {
                let got = ctx.ctx_read(obj, word)?;
                reads += 1;
                past_current += u64::from(moved[stripe(word)]);
                if got != model[word as usize] {
                    wrong.push((step, word, got));
                }
            }
            if let Some(commit) = history.get(step) {
                apply(&mut writer, obj, commit);
                for &(word, _) in commit {
                    moved[stripe(word)] = true;
                }
            }
        }
        Ok(())
    });
    prop_assert!(
        wrong.is_empty(),
        "pinned after {} commits, expected {:?}; (step, word, got) = {:?}",
        pin,
        model,
        wrong
    );
    let stats = reader.stats();
    prop_assert_eq!(stats.ro_aborts, 0);
    prop_assert_eq!(stats.snapshot_reads, reads);
    prop_assert_eq!(
        stats.ring_reads,
        past_current,
        "exactly the reads of moved stripes go past the current version"
    );
    for word in WRITTEN..WORDS {
        prop_assert!(rt.ring_versions(obj.word(word)).is_empty());
    }
    // With the region over nothing is pinned: one more commit per word
    // prunes every ring back to its depth.
    for word in 0..WRITTEN {
        apply(&mut writer, obj, &vec![(word, 1)]);
        prop_assert!(rt.ring_versions(obj.word(word)).len() <= k.max(1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_pinned_rv_reads_the_model_at_rv(
        history in proptest::collection::vec(
            proptest::collection::vec((0..WRITTEN, 1..u64::MAX), 1..4),
            1..10,
        ),
        k in 1usize..4,
        mark_filter in any::<bool>(),
    ) {
        for pin in 0..=history.len() {
            pinned_region_sees_its_prefix(&history, pin, k, mark_filter)?;
        }
    }
}

/// The three ways a snapshot read is served, one word each, told apart by
/// the counters.
#[test]
fn each_path_serves_its_case() {
    let rt = runtime(3, false);
    let mut writer = NativeExec::new(&rt);
    let mut reader = NativeExec::new(&rt);
    let obj = writer.alloc_obj(WORDS);
    let stripe = |word: u32| rt.stripe_of(obj.word(word).0);
    // Words 0 and 2 share a stripe with the never-written word 6; word 1
    // is on the other one.
    assert_eq!(stripe(0), stripe(2));
    assert_eq!(stripe(0), stripe(6));
    assert_ne!(stripe(0), stripe(1));
    apply(&mut writer, obj, &vec![(0, 10), (1, 11)]);

    reader.atomic_ro(|ctx| {
        // Nothing has moved: all three from the current version.
        assert_eq!(ctx.ctx_read(obj, 0)?, 10);
        assert_eq!(ctx.ctx_read(obj, 1)?, 11);
        assert_eq!(ctx.ctx_read(obj, 6)?, 0);
        // A commit to word 2 moves the stripe of words 0 and 6 past rv,
        // and overwrites word 0 for good measure.
        apply(&mut writer, obj, &vec![(2, 22), (0, 20)]);
        assert_eq!(ctx.ctx_read(obj, 1)?, 11, "untouched stripe: still current");
        assert_eq!(
            ctx.ctx_read(obj, 0)?,
            10,
            "ring entry at rv, not the new 20"
        );
        assert_eq!(ctx.ctx_read(obj, 2)?, 0, "ring seed: the pre-image");
        assert_eq!(ctx.ctx_read(obj, 6)?, 0, "no ring: the frozen heap word");
        Ok(())
    });
    let stats = reader.stats();
    assert_eq!(stats.snapshot_reads, 7);
    assert_eq!(stats.ring_reads, 3, "{stats:?}");
    assert!(rt.ring_versions(obj.word(6)).is_empty());
    assert_eq!(rt.ring_versions(obj.word(2)).first(), Some(&0));
    assert_eq!(reader.atomic_ro(|ctx| ctx.ctx_read(obj, 0)), 20);
}

/// A region pinned before a word's ring turns over many times still reads
/// what it pinned: the ring spills instead of dropping the entry. A second
/// region pinned half-way keeps the newer half alive once the first is
/// over, and with nobody pinned the ring is `k` slots again.
#[test]
fn a_pinned_region_outlives_many_turns_of_the_ring() {
    const K: usize = 2;
    let rt = runtime(K, false);
    let mut writer = NativeExec::new(&rt);
    let (mut early, mut late) = (NativeExec::new(&rt), NativeExec::new(&rt));
    let obj = writer.alloc_obj(WORDS);
    let ringed = || rt.ring_versions(obj.word(0));
    apply(&mut writer, obj, &vec![(0, 100)]);

    early.atomic_ro(|ctx| {
        for turn in 1..=5 * K as u64 {
            apply(&mut writer, obj, &vec![(0, 100 + turn)]);
            assert_eq!(ctx.ctx_read(obj, 0)?, 100, "after {turn} commits");
        }
        // The pinned entry and everything since (the seed went with the
        // first commit: the pinned entry serves whoever it served).
        assert_eq!(ringed().len(), 1 + 5 * K, "{:?}", ringed());
        late.atomic_ro(|ctx| {
            for turn in 1..=5 * K as u64 {
                apply(&mut writer, obj, &vec![(0, 200 + turn)]);
                assert_eq!(ctx.ctx_read(obj, 0)?, 100 + 5 * K as u64);
            }
            Ok(())
        });
        assert_eq!(ctx.ctx_read(obj, 0)?, 100, "the older pin still holds");
        Ok(())
    });
    assert_eq!(
        ringed().len(),
        1 + 10 * K,
        "both regions' history: {:?}",
        ringed()
    );
    // A commit from inside a region pinned at the newest version cuts
    // everything older than what that region reads.
    late.atomic_ro(|ctx| {
        let newest = ctx.ctx_read(obj, 0)?;
        apply(&mut writer, obj, &vec![(0, 300)]);
        assert!(ringed().len() <= K + 1, "{:?}", ringed());
        assert_eq!(ctx.ctx_read(obj, 0)?, newest);
        Ok(())
    });
    apply(&mut writer, obj, &vec![(0, 301)]);
    assert_eq!(ringed().len(), K);
    assert_eq!(early.stats().ring_reads, 5 * K as u64 + 1);
    assert_eq!(writer.stats().versions_published, 10 * K as u64 + 3);
    assert_eq!(
        writer.stats().versions_reclaimed,
        writer.stats().versions_published + 1 - K as u64,
        "all but the ring's k entries, seed included"
    );
}

/// Two words on one stripe share a lock word, not a ring: commits to
/// either move the stripe past a pinned region's `rv`, the region reads
/// each word's own history, and a word nobody wrote has none.
#[test]
fn words_aliased_onto_one_stripe_keep_their_own_rings() {
    let rt = runtime(2, false);
    let mut writer = NativeExec::new(&rt);
    let mut reader = NativeExec::new(&rt);
    let obj = writer.alloc_obj(WORDS);
    let stripe = |word: u32| rt.stripe_of(obj.word(word).0);
    assert!(stripe(0) == stripe(2) && stripe(0) == stripe(6));
    apply(&mut writer, obj, &vec![(0, 10)]);
    apply(&mut writer, obj, &vec![(2, 12)]);

    reader.atomic_ro(|ctx| {
        for turn in 1..=6u64 {
            // Alternately one word, the other, and both.
            let commit: Commit = match turn % 3 {
                0 => vec![(0, 10 + turn), (2, 12 + turn)],
                1 => vec![(0, 10 + turn)],
                _ => vec![(2, 12 + turn)],
            };
            apply(&mut writer, obj, &commit);
            assert_eq!(ctx.ctx_read(obj, 0)?, 10, "turn {turn}");
            assert_eq!(ctx.ctx_read(obj, 2)?, 12, "turn {turn}");
            assert_eq!(ctx.ctx_read(obj, 6)?, 0, "turn {turn}");
        }
        Ok(())
    });
    assert_eq!(
        reader.stats().ring_reads,
        18,
        "every read was past the stripe's version"
    );
    // Commits 1 and 2, then turns 1, 3, 4, 6 wrote word 0 and turns
    // 2, 3, 5, 6 word 2; the clock ticked once per commit. Each ring
    // starts at the entry the region (rv = 2) reads.
    assert_eq!(rt.ring_versions(obj.word(0)), [1, 3, 5, 6, 8]);
    assert_eq!(rt.ring_versions(obj.word(2)), [2, 4, 5, 7, 8]);
    assert!(rt.ring_versions(obj.word(6)).is_empty());
}

/// Readers that arrive while the write-back hook has a committer parked
/// mid-commit — one word's ring turned over and its value stored, the
/// other's not yet — wait for the stripes and then read a whole pair: the
/// old one for a region pinned before the commit, the new one for a
/// region begun during it. Never one word of each.
#[test]
fn readers_of_a_half_written_commit_wait_and_read_whole_pairs() {
    use std::sync::{Arc, Barrier};
    // k = 1: the commit cannot leave the old entry where it was.
    let rt = Arc::new(runtime(1, false));
    let mut writer = NativeExec::new(&rt);
    let obj = writer.alloc_obj(WORDS);
    assert_ne!(rt.stripe_of(obj.word(0).0), rt.stripe_of(obj.word(1).0));
    apply(&mut writer, obj, &vec![(0, 10), (1, 11)]);

    let (parked, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    rt.set_writeback_hook(Some({
        let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
        Arc::new(move |done, total| {
            if (done, total) == (1, 2) {
                parked.wait();
                release.wait();
            }
        })
    }));
    let pair = |ex: &mut NativeExec<'_>, begun: &Barrier| {
        ex.atomic_ro(|ctx| {
            // Once for "the region has its rv", once for "now read".
            begun.wait();
            begun.wait();
            // Word 1 first: the one the parked commit has not reached.
            let second = ctx.ctx_read(obj, 1)?;
            Ok((ctx.ctx_read(obj, 0)?, second))
        })
    };
    let pinned = Barrier::new(2);
    std::thread::scope(|s| {
        let old = s.spawn(|| {
            let mut ex = NativeExec::new(&rt);
            let pair = pair(&mut ex, &pinned);
            (pair, ex.stats().ring_reads)
        });
        pinned.wait();
        let commit = s.spawn(|| apply(&mut writer, obj, &vec![(0, 20), (1, 21)]));
        parked.wait();
        pinned.wait();
        assert_eq!((rt.peek(obj.word(0)), rt.peek(obj.word(1))), (20, 11));
        let new = s.spawn(|| {
            let mut ex = NativeExec::new(&rt);
            let pair = pair(&mut ex, &Barrier::new(1));
            (pair, ex.stats().ring_reads)
        });
        // Both readers are spinning on a locked stripe by now, or will
        // find one; either way what they return is the same.
        std::thread::sleep(std::time::Duration::from_millis(20));
        release.wait();
        commit.join().unwrap();
        assert_eq!(
            old.join().unwrap(),
            ((10, 11), 2),
            "pinned before the commit"
        );
        assert_eq!(
            new.join().unwrap(),
            ((20, 21), 0),
            "begun during the commit"
        );
    });
    rt.set_writeback_hook(None);
}
