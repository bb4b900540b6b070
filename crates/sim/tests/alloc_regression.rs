//! Zero-per-access-allocation regression test.
//!
//! The simulator's hot paths — `MemSystem::access`/`mark_access`, watch
//! registration, `flush_caches`, and `Cpu` load/store/mark stepping — must
//! not allocate once structures are warm: the watch table is a flat
//! open-addressed array cleared by generation bump, the snapshot paths
//! reuse a scratch buffer, and sparse memory pages only allocate on first
//! touch (plus the page table's amortised growth). A counting `#[global_allocator]` (armed only around the hot
//! loops) turns any regression into a test failure.
//!
//! The allocator is process-wide but the tests here run on parallel
//! threads, so the armed flag and the count are thread-local: a window
//! counts the arming thread's allocations only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hastm_sim::hierarchy::MemSystem;
use hastm_sim::{
    AccessKind, Addr, FilterId, LineId, Machine, MachineConfig, MarkOp, WatchKind, LINE_SIZE,
};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator neither allocates nor registers anything.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BIGGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BIGGEST.set(BIGGEST.get().max(size));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` counting this thread's allocations; returns how many.
fn armed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.set(0);
    BIGGEST.set(0);
    ARMED.set(true);
    let r = f();
    ARMED.set(false);
    (r, ALLOCS.get())
}

const LINES: u64 = 24;

#[test]
fn hot_paths_do_not_allocate_once_warm() {
    // ---- MemSystem: access / mark / watch / violation ----
    let config = MachineConfig::with_cores(2);
    let mut sys = MemSystem::new(&config);
    // Warm every line the loop touches on both cores and pre-grow the
    // watch table past its initial capacity so the armed loop never
    // triggers a growth reallocation.
    for i in 0..4 * LINES {
        sys.watch(0, LineId(i), WatchKind::Read);
    }
    sys.clear_watches(0);
    for i in 0..LINES {
        sys.access(0, Addr(i * LINE_SIZE), AccessKind::Store);
        sys.access(1, Addr(i * LINE_SIZE), AccessKind::Load);
    }
    let ((), allocs) = armed(|| {
        for _ in 0..16 {
            for i in 0..LINES {
                let addr = Addr(i * LINE_SIZE);
                sys.access(0, addr, AccessKind::Load);
                sys.access(0, addr, AccessKind::Store);
                sys.access(1, addr, AccessKind::Load);
                sys.mark_access(0, addr, 8, MarkOp::Set, FilterId::READ);
                sys.mark_access(0, addr, 8, MarkOp::Test, FilterId::READ);
                sys.watch(0, LineId(i), WatchKind::Read);
            }
            let _ = sys.violation(0);
            let _ = sys.watched_lines(0);
            sys.clear_watches(0);
        }
    });
    assert_eq!(allocs, 0, "MemSystem access/mark/watch loop allocated");

    // ---- flush_caches: the snapshot scratch buffer is reused ----
    // First flush (unarmed) sizes the scratch to this resident footprint.
    sys.flush_caches();
    for i in 0..LINES {
        sys.access(0, Addr(i * LINE_SIZE), AccessKind::Store);
    }
    let ((), allocs) = armed(|| sys.flush_caches());
    assert_eq!(allocs, 0, "repeat flush_caches allocated");

    // ---- Cpu/Machine stepping: loads, stores, mark instructions ----
    let mut machine = Machine::new(MachineConfig::default());
    let ((), report) = machine.run_one(|cpu| {
        // Warm the sparse memory pages and the caches, then arm.
        for i in 0..LINES {
            cpu.store_u64(Addr(i * LINE_SIZE), i);
        }
        cpu.reset_mark_counter();
        let ((), allocs) = armed(|| {
            for _ in 0..16 {
                for i in 0..LINES {
                    let addr = Addr(i * LINE_SIZE);
                    cpu.store_u64(addr, i ^ 1);
                    let _ = cpu.load_u64(addr);
                    let _ = cpu.load_set_mark_u64(addr);
                    let _ = cpu.load_test_mark_u64(addr);
                }
                let _ = cpu.read_mark_counter();
            }
        });
        assert_eq!(allocs, 0, "Cpu stepping loop allocated");
    });
    assert!(report.makespan() > 0);
}

#[test]
fn simulated_memory_allocates_once_per_fresh_page() {
    const PAGE: u64 = 4096;
    const WARM_PAGES: u64 = 64;
    // Heap pages are found by index, the low addresses tests use through
    // the fallback map: neither lookup may allocate on a resident page.
    let mut machine = Machine::new(MachineConfig::default());
    let base = machine.heap().alloc_aligned(WARM_PAGES * PAGE, PAGE).0;
    let words: Vec<Addr> = (0..WARM_PAGES)
        // A different line of each page, so they spread over the L1's sets.
        .map(|p| Addr(base + p * PAGE + (p % 64) * LINE_SIZE))
        .chain([Addr(0x100), Addr(0x2040), Addr(0x9008)])
        .collect();
    machine.run_one(|cpu| {
        let round = |cpu: &mut hastm_sim::Cpu, v: u64| {
            for &w in &words {
                cpu.store_u64(w, v);
                let seen = cpu.load_u64(w);
                cpu.cas_u64(w, seen, seen + 1);
                let _ = cpu.load_set_mark_u64(w);
                let _ = cpu.load_test_mark_u64(w);
            }
        };
        round(cpu, 0); // touches every page and sizes every cache set
        let ((), allocs) = armed(|| (1..5).for_each(|v| round(cpu, v)));
        assert_eq!(allocs, 0, "accesses to resident pages allocated");
    });

    // A first store allocates the page and nothing else, but for the page
    // table doubling now and then.
    const FRESH_PAGES: u64 = 1024;
    let mut mem = hastm_sim::mem::Memory::new();
    let ((), allocs) = armed(|| {
        for p in 0..FRESH_PAGES {
            mem.write_u64(Addr(hastm_sim::heap::HEAP_BASE + p * PAGE), p);
        }
    });
    assert_eq!(mem.resident_pages() as u64, FRESH_PAGES);
    assert!(
        (FRESH_PAGES..=FRESH_PAGES + 12).contains(&allocs),
        "{allocs} allocations for {FRESH_PAGES} fresh pages"
    );
}

// ---------------------------------------------------------------------------
// Tracing must be free when off
// ---------------------------------------------------------------------------

/// A contended two-core workload used to compare traced, disabled-trace,
/// and never-traced machines. Exercises every event-emitting path (cache
/// misses, remote-write line losses, mark sets/discards, counter bumps).
fn trace_probe_workers<'env>() -> Vec<hastm_sim::WorkerFn<'env>> {
    (0..2)
        .map(|tid| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                cpu.reset_mark_counter();
                for i in 0..LINES {
                    let addr = Addr(((tid as u64 * 7 + i) % LINES) * LINE_SIZE);
                    cpu.store_u64(addr, i);
                    let _ = cpu.load_set_mark_u64(addr);
                    let _ = cpu.load_test_mark_u64(addr);
                }
                let _ = cpu.read_mark_counter();
            }) as hastm_sim::WorkerFn<'env>
        })
        .collect()
}

#[test]
fn disabled_tracing_is_allocation_free_and_bit_identical() {
    // Reference: a machine that has never heard of tracing.
    let mut never = Machine::new(MachineConfig::with_cores(2));
    let baseline = never.run(trace_probe_workers());

    // A machine that traced one run, then disarmed: its subsequent runs
    // must produce bit-identical reports (tracing is an observation, not a
    // participant) …
    let mut toggled = Machine::new(MachineConfig::with_cores(2));
    toggled.set_tracing(Some(hastm_sim::TraceConfig));
    toggled.run(trace_probe_workers());
    let log = toggled.take_trace().expect("tracing was armed");
    assert!(
        log.total_events() > 0,
        "the probe workload must emit events"
    );
    toggled.set_tracing(None);
    assert!(
        toggled.take_trace().is_none(),
        "disarmed machine has no log"
    );

    // … so compare fresh machines: never-traced vs armed-then-disarmed
    // constructions, same workload.
    let mut disabled = Machine::new(MachineConfig::with_cores(2));
    disabled.set_tracing(Some(hastm_sim::TraceConfig));
    disabled.set_tracing(None);
    let report = disabled.run(trace_probe_workers());
    assert_eq!(
        report, baseline,
        "disabled tracing must leave the run bit-identical"
    );

    // And the disabled-tracing hot path must not allocate: re-run the
    // MemSystem loop from the main test on a disarmed system.
    let config = MachineConfig::with_cores(2);
    let mut sys = MemSystem::new(&config);
    assert!(!sys.tracing());
    for i in 0..LINES {
        sys.access(0, Addr(i * LINE_SIZE), AccessKind::Store);
        sys.access(1, Addr(i * LINE_SIZE), AccessKind::Load);
    }
    let ((), allocs) = armed(|| {
        for _ in 0..16 {
            for i in 0..LINES {
                let addr = Addr(i * LINE_SIZE);
                sys.access(0, addr, AccessKind::Load);
                sys.access(0, addr, AccessKind::Store);
                sys.access(1, addr, AccessKind::Load);
                sys.mark_access(0, addr, 8, MarkOp::Set, FilterId::READ);
                sys.mark_access(0, addr, 8, MarkOp::Test, FilterId::READ);
            }
        }
    });
    assert_eq!(allocs, 0, "disabled-tracing MemSystem loop allocated");
}

#[test]
fn warm_multi_core_runs_allocate_no_stacks() {
    // A machine keeps what its cores run on from one run to the next. The
    // first two-core run may allocate it (a stack per core where cores are
    // contexts); later runs allocate only small per-run bookkeeping —
    // nothing near the size of a stack.
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    machine.run(trace_probe_workers());
    let (_, allocs) = armed(|| {
        for _ in 0..4 {
            machine.run(trace_probe_workers());
        }
    });
    assert!(
        BIGGEST.get() < 64 << 10,
        "a warm run made a {}-byte allocation (of {allocs})",
        BIGGEST.get()
    );
}
