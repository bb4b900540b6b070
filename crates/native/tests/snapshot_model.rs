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
