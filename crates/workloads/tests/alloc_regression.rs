//! Zero-allocation regression test for every simulated executor.
//!
//! Whatever scheme runs it, a warm transaction keeps its per-attempt sets
//! in structures it clears rather than rebuilds — the STM's logs and
//! ownership maps, the HTM's store buffer and line-watch sets, the hybrid's
//! record list — so once an executor is warm a read-modify-write
//! transaction calls the allocator zero times, and so does a hybrid
//! hardware attempt that aborts and is retried. A counting
//! `#[global_allocator]`, armed only around the measured loops, turns any
//! regression into a test failure.
//!
//! The allocator is process-wide but the tests here run on parallel
//! threads, so the armed flag and the count are thread-local: a window
//! counts the arming thread's allocations only. Each window is opened
//! inside the simulated core's closure, so it counts that core's thread
//! however the machine runs its cores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hastm::{Abort, Granularity, ObjRef, StmRuntime, TmExec};
use hastm_locks::SpinLock;
use hastm_sim::{Machine, MachineConfig};
use hastm_workloads::{Scheme, ThreadExec};

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

/// Eight reads and eight writes, each word read before it is written and
/// again after (a write-set hit). With `abort_first`, the first attempt
/// gives up after its writes and the retry commits.
fn read_modify_write(ex: &mut ThreadExec<'_, '_>, obj: ObjRef, abort_first: bool) {
    let mut attempts = 0;
    ex.atomic(|ctx| {
        attempts += 1;
        for i in 0..WORDS {
            let v = ctx.ctx_read(obj, i)?;
            ctx.ctx_write(obj, i, v + 1)?;
            assert_eq!(ctx.ctx_read(obj, i)?, v + 1);
        }
        if abort_first && attempts == 1 {
            return Err(Abort::Conflict);
        }
        Ok(())
    });
}

#[test]
fn warm_transactions_do_not_allocate_under_any_scheme() {
    for scheme in Scheme::ALL {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
        let lock = SpinLock::alloc(rt.heap());
        let (allocs, _) = m.run_one(|cpu| {
            let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
            let obj = ex.alloc_obj(WORDS);
            // One round sizes every log and touches every simulated page.
            read_modify_write(&mut ex, obj, false);
            armed(|| (0..50).for_each(|_| read_modify_write(&mut ex, obj, false)))
        });
        assert_eq!(allocs, 0, "{scheme}: 50 warm transactions allocated");
    }
}

#[test]
fn a_hybrid_hardware_abort_and_its_retry_do_not_allocate() {
    let scheme = Scheme::Hytm;
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(&mut m, scheme.stm_config(Granularity::CacheLine, 1));
    let lock = SpinLock::alloc(rt.heap());
    let (allocs, _) = m.run_one(|cpu| {
        let mut ex = ThreadExec::new(scheme, &rt, cpu, lock);
        let obj = ex.alloc_obj(WORDS);
        read_modify_write(&mut ex, obj, true);
        let before = ex.stats().hytm;
        let allocs = armed(|| read_modify_write(&mut ex, obj, true));
        let after = ex.stats().hytm;
        assert_eq!(
            (after.hw_aborts_conflict, after.hw_commits),
            (before.hw_aborts_conflict + 1, before.hw_commits + 1),
            "one hardware attempt aborted and the next committed in hardware"
        );
        allocs
    });
    assert_eq!(allocs, 0, "a hybrid hardware abort + retry allocated");
}
