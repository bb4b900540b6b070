//! Zero-allocation regression test for the native per-access and
//! per-attempt paths.
//!
//! An attempt's read set, redo log, lock list and allocation list belong
//! to the executor and are cleared, not rebuilt, so once an executor is
//! warm a transaction of ordinary size begins, reads, writes, aborts,
//! retries and commits without calling the allocator; so does a snapshot
//! region. Under `Multi` the one place a writing commit may allocate is
//! version-ring publication, and only to claim a chunk of rings: one per
//! 256 heap words, the first time a commit writes any of them, and one
//! per 256 blocks of history that live snapshots pin past a ring's `k`
//! slots. A counting `#[global_allocator]`, armed only around the
//! measured loops, turns any regression into a test failure.
//!
//! The allocator is process-wide but the tests here run on parallel
//! threads, so the armed flag and the count are thread-local: a window
//! counts the arming thread's allocations only.
#![cfg(not(feature = "seeded-bug"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hastm::{Abort, ObjRef, TmExec, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator neither allocates nor registers anything.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` counting this thread's allocations; returns how many.
fn armed(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    ARMED.set(true);
    f();
    ARMED.set(false);
    ALLOCS.get()
}

const WORDS: u32 = 8;

fn runtime(mark_filter: bool, versioning: Versioning) -> NativeRuntime {
    NativeRuntime::new(NativeConfig {
        heap_words: 1 << 12,
        stripes: 1 << 8,
        mark_filter,
        versioning,
        ..NativeConfig::default()
    })
}

/// Eight reads and eight writes, each word read before it is written and
/// again after (a redo-log hit).
fn read_modify_write(ex: &mut NativeExec<'_>, obj: ObjRef) {
    ex.atomic(|ctx| {
        for i in 0..WORDS {
            let v = ctx.ctx_read(obj, i)?;
            ctx.ctx_write(obj, i, v + 1)?;
            assert_eq!(ctx.ctx_read(obj, i)?, v + 1);
        }
        Ok(())
    });
}

/// The same transaction, with a first attempt that allocates a node and
/// then aborts, and a retry that gets the node back.
fn abort_then_retry(ex: &mut NativeExec<'_>, obj: ObjRef) {
    let mut attempts = 0;
    ex.atomic(|ctx| {
        attempts += 1;
        ctx.ctx_alloc(2);
        for i in 0..WORDS {
            let v = ctx.ctx_read(obj, i)?;
            ctx.ctx_write(obj, i, v + 1)?;
        }
        if attempts == 1 {
            return Err(Abort::Conflict);
        }
        Ok(())
    });
}

fn sum_ro(ex: &mut NativeExec<'_>, obj: ObjRef) -> u64 {
    ex.atomic_ro(|ctx| {
        let mut sum = 0u64;
        for i in 0..WORDS {
            sum = sum.wrapping_add(ctx.ctx_read(obj, i)?);
        }
        Ok(sum)
    })
}

#[test]
fn warm_single_version_paths_do_not_allocate() {
    for mark_filter in [false, true] {
        let rt = runtime(mark_filter, Versioning::Single);
        let mut ex = NativeExec::new(&rt);
        let obj = ex.alloc_obj(WORDS);
        // One round of each shape sizes every log.
        read_modify_write(&mut ex, obj);
        abort_then_retry(&mut ex, obj);
        sum_ro(&mut ex, obj);

        let allocs = armed(|| (0..64).for_each(|_| read_modify_write(&mut ex, obj)));
        assert_eq!(allocs, 0, "filter={mark_filter}: atomic allocated");
        let allocs = armed(|| (0..64).for_each(|_| abort_then_retry(&mut ex, obj)));
        assert_eq!(allocs, 0, "filter={mark_filter}: abort + retry allocated");
        let allocs = armed(|| (0..64).for_each(|_| assert!(sum_ro(&mut ex, obj) > 0)));
        assert_eq!(allocs, 0, "filter={mark_filter}: atomic_ro allocated");
        assert_eq!(ex.stats().aborts_conflict, 65);
    }
}

/// Heap words one chunk of version rings serves (`heap.rs`).
const CHUNK_WORDS: u32 = 256;

#[test]
fn multi_version_commits_allocate_only_for_ring_publication() {
    let rt = runtime(false, Versioning::Multi { k: 3 });
    let mut ex = NativeExec::new(&rt);
    let obj = ex.alloc_obj(WORDS);
    let neighbour = ex.alloc_obj(WORDS);
    // Past the chunk the first two objects are in, and in one piece.
    ex.alloc_obj(2 * CHUNK_WORDS);
    let far = ex.alloc_obj(WORDS);
    assert_eq!(far.word(0).0 >> 3 >> 8, far.word(WORDS - 1).0 >> 3 >> 8);
    // One commit claims the chunk of `obj`'s rings; the first region
    // claims the executor's snapshot slot.
    read_modify_write(&mut ex, obj);
    abort_then_retry(&mut ex, obj);
    sum_ro(&mut ex, obj);

    let allocs = armed(|| (0..64).for_each(|_| assert!(sum_ro(&mut ex, obj) > 0)));
    assert_eq!(allocs, 0, "snapshot regions allocated");
    // Seeding a ring, filling it and turning it over all happen inside
    // its chunk.
    let allocs = armed(|| {
        (0..64).for_each(|_| read_modify_write(&mut ex, obj));
        (0..64).for_each(|_| abort_then_retry(&mut ex, obj));
        read_modify_write(&mut ex, neighbour);
    });
    assert_eq!(allocs, 0, "commits over a claimed chunk allocated");
    // The same transaction over words whose chunk nobody has written to:
    // the one new piece of work is claiming it.
    let allocs = armed(|| read_modify_write(&mut ex, far));
    assert_eq!(allocs, 1, "a first write claims its chunk, once");
    assert_eq!(ex.stats().ring_reads, 0, "nothing ever moved past a region");

    // A pinned snapshot makes every ring it can still read spill: the
    // first spill claims the spill chunk, the next sixty find room in it,
    // and once the region is over the blocks are reused, not claimed anew.
    let mut writer = NativeExec::new(&rt);
    read_modify_write(&mut writer, obj);
    let pinned = |writer: &mut NativeExec<'_>, ex: &mut NativeExec<'_>| {
        ex.atomic_ro(|ctx| {
            let before = ctx.ctx_read(obj, 0)?;
            let allocs = armed(|| (0..64).for_each(|_| read_modify_write(writer, obj)));
            assert_eq!(ctx.ctx_read(obj, 0)?, before, "the snapshot moved");
            Ok(allocs)
        })
    };
    assert_eq!(pinned(&mut writer, &mut ex), 1, "spills claim one chunk");
    read_modify_write(&mut writer, obj);
    assert_eq!(
        pinned(&mut writer, &mut ex),
        0,
        "freed spill blocks are reused"
    );
    assert!(ex.stats().ring_reads > 0);
}
