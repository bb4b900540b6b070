//! The shared state of the native TL2 runtime: the global version clock,
//! the heap with a versioned write-lock beside every word, and the
//! live-snapshot slots and version rings of `Multi`, none of them sized
//! by the configuration ([`crate::heap::HEAP_WORDS`]).
//!
//! ## Protocol (TL2, per-word locks)
//!
//! * Every 8-byte heap word is its own **stripe**: it owns a versioned
//!   write-lock word, `version << 1 | locked`, in the same cache line
//!   ([`NativeHeap`]). Locking CASes `v << 1` to `(v << 1) | 1`, so the
//!   pre-lock version stays readable while the stripe is held. No two
//!   words share a lock, so no commit moves the version of a word it did
//!   not write.
//! * A transaction snapshots the global clock at begin (`rv`). Reads use
//!   the lock–load–lock sandwich: the stripe must be unlocked with
//!   `version <= rv` both before and after the value load.
//! * Writers buffer into a redo log, then at commit: lock the write
//!   stripes in ascending order, increment the clock to obtain `wv`,
//!   revalidate the read set against `rv`, write back, and release every
//!   stripe at `wv`.
//!
//! The paper's mark-bit filter lives in the simulator only: real ISAs
//! have no mark bits, and a read that checks no per-location metadata
//! cannot see a committer that has validated but not yet written back
//! (DESIGN §9c).

use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Release, SeqCst},
};
use std::sync::{Arc, Mutex};

use hastm::mvcc::LiveSnapshots;
use hastm::{ObjRef, Versioning};
use hastm_sim::words::CachePadded;
use hastm_sim::{counters, Addr};

use crate::heap::{NativeHeap, VersionStore};

/// Configuration of one [`NativeRuntime`].
#[derive(Clone, Debug)]
pub struct NativeConfig {
    /// Ignored: every heap has [`crate::heap::HEAP_WORDS`] words. Kept
    /// only until `benchmark/` drops it.
    pub heap_words: usize,
    /// Ignored: the native mark-bit filter is gone (DESIGN §9c), and every
    /// read takes the TL2 sandwich. Kept only until `benchmark/`, which
    /// still sets it, is edited to drop it.
    pub mark_filter: bool,
    /// Version management: [`Versioning::Single`] is plain TL2;
    /// [`Versioning::Multi`] keeps a k-slot ring of committed
    /// `(version, value)` pairs beside every written word, giving read-only
    /// transactions ([`crate::NativeExec`]'s `atomic_ro`) an abort-free
    /// snapshot-read path with no lock–load–lock sandwich — for up to
    /// [`hastm::mvcc::SNAPSHOT_SLOTS`] executors at a time; the regions of
    /// any more run validated, as under `Single`.
    pub versioning: Versioning,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            heap_words: 1 << 20,
            mark_filter: false,
            versioning: Versioning::Single,
        }
    }
}

/// Decoded state of one stripe's (word's) lock word.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StripeState {
    /// Version of the last committed write to the word.
    pub version: u64,
    /// Whether a committing writer currently holds the stripe.
    pub locked: bool,
}

counters! {
    /// Per-thread counters of the native backend, merged across threads by
    /// the harnesses. A counter that means what one of the simulator's
    /// means goes by the simulator's key; `native.*` is what only TL2 has.
    pub struct NativeStats {
        /// Committed transactions.
        commits: "txn.commits",
        /// Aborts from read/lock validation conflicts.
        aborts_conflict: "txn.aborts.conflict",
        /// Always zero: nothing counts it since the native filter was
        /// deleted. Kept only until `benchmark/`, which still reads it, is
        /// edited to drop it.
        aborts_filter_stale: "native.aborts.filter_stale",
        /// Always zero: nothing counts it since the native filter was
        /// deleted. Kept only until `benchmark/`, which still reads it, is
        /// edited to drop it.
        fast_reads: "native.read.fast",
        /// Reads served by the full TL2 sandwich.
        slow_reads: "native.read.slow",
        /// Committed read-only (`atomic_ro`) transactions. Under
        /// [`Versioning::Multi`] these ran on the snapshot path; under
        /// [`Versioning::Single`] (or with every live-snapshot slot owned)
        /// they fell back to ordinary transactions and are counted under
        /// `commits` only.
        ro_commits: "txn.ro.commits",
        /// Aborted snapshot read-only attempts. Structurally zero — snapshot
        /// reads spin past locked stripes instead of aborting and snapshot
        /// commits validate nothing — but counted so harnesses can *assert*
        /// the zero rather than assume it.
        ro_aborts: "txn.ro.aborts",
        /// Reads served by the snapshot path (current version, version ring
        /// or frozen-word fallback), read-set-free.
        snapshot_reads: "txn.ro.snapshot_reads",
        /// Snapshot reads that fell past the current version — the stripe
        /// had moved beyond the region's `rv` — and went to the version ring
        /// (or its never-written heap fallback). Counted inside
        /// `snapshot_reads` too.
        ring_reads: "native.ro.ring_reads",
        /// `(version, value)` pairs published into version rings by this
        /// thread's writing commits.
        versions_published: "txn.ro.versions_published",
        /// Ring entries reclaimed by this thread's commit-time pruning.
        versions_reclaimed: "native.ro.versions_reclaimed",
        /// Blocks this thread's commits claimed from the version store's
        /// pool: a word's head block on its first publication, and a spill
        /// block when the word had no retired one (`2 + 2k` words each).
        blocks_claimed: "native.ro.blocks_claimed",
        /// Objects `ctx_alloc` took from the executor's free list that a
        /// commit had freed (not the unpublished allocations of attempts
        /// that did not commit, which it also takes back).
        recycled: "native.heap.recycled",
    }
}

impl NativeStats {
    /// Total aborted attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict
    }
}

/// Test hook invoked by a commit as `(words_written, words_total)` — once
/// with `(0, n)` when the read set has validated and nothing is published
/// yet, and once after each store. Lets the stress tests freeze a
/// committer while it holds its stripe locks.
pub type WritebackHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// Test hook invoked by an optimistic read with the word's address,
/// between the sandwich's first lock-word check and its value load. Lets
/// a stress test freeze a reader inside the sandwich. Only builds with
/// [`hastm_sim::mutant::PLANTED`] call it.
pub type ReadHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Bounded spins when acquiring a write lock before giving up and
/// aborting (keeps commit lock-acquisition livelock-free).
const MAX_LOCK_SPINS: u32 = 128;

/// Shared state of the native backend; threads hold `&NativeRuntime` and
/// drive it through per-thread [`crate::NativeExec`]s.
pub struct NativeRuntime {
    /// The words and, beside each, its lock.
    heap: NativeHeap,
    /// Bumped by every writing commit, so it sits on a line pair of its
    /// own, away from `heap` and `cfg`, which every read of every thread
    /// loads.
    clock: CachePadded<AtomicU64>,
    cfg: NativeConfig,
    hook_armed: AtomicBool,
    hook: Mutex<Option<WritebackHook>>,
    read_hook_armed: AtomicBool,
    read_hook: Mutex<Option<ReadHook>>,
    start: std::time::Instant,
    /// The version rings (`Some` only under [`Versioning::Multi`]).
    /// Writers publish here *before* each write-back store: a ring's
    /// first entry, seeded at version 0, is the word's pre-transactional
    /// image, read from the heap.
    versions: Option<VersionStore>,
    /// The live-snapshot registry (`Some` only under `Multi`): a slot
    /// holds its owner's snapshot `rv` while an `atomic_ro` region runs,
    /// and commit-time pruning keeps every version a pinned reader can
    /// still need.
    snapshots: Option<LiveSnapshots>,
}

impl NativeRuntime {
    /// Builds a runtime with the given configuration.
    pub fn new(cfg: NativeConfig) -> Self {
        let multi = cfg.versioning.is_multi();
        let versions = multi.then(|| VersionStore::new(cfg.versioning.depth()));
        NativeRuntime {
            heap: NativeHeap::new(),
            clock: CachePadded::new(AtomicU64::new(0)),
            cfg,
            hook_armed: AtomicBool::new(false),
            hook: Mutex::new(None),
            read_hook_armed: AtomicBool::new(false),
            read_hook: Mutex::new(None),
            start: std::time::Instant::now(),
            versions,
            snapshots: multi.then(LiveSnapshots::default),
        }
    }

    /// Nanoseconds elapsed since the runtime was built — the native
    /// backend's wall clock for the [`hastm::TmExec::clock`] seam (the
    /// host analog of the simulator's cycle counter).
    pub fn nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &NativeConfig {
        &self.cfg
    }

    /// The heap.
    pub fn heap(&self) -> &NativeHeap {
        &self.heap
    }

    /// Stripe index of a byte address: its word index, since every word
    /// has its own lock.
    pub fn stripe_of(&self, byte: u64) -> usize {
        (byte >> 3) as usize
    }

    /// Decoded lock word of `stripe`.
    pub fn stripe_state(&self, stripe: usize) -> StripeState {
        let raw = self.lock_word(stripe);
        StripeState {
            version: raw >> 1,
            locked: raw & 1 == 1,
        }
    }

    /// Current global version clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(SeqCst)
    }

    /// Snapshots the clock for a beginning transaction.
    pub(crate) fn read_version(&self) -> u64 {
        self.clock.load(SeqCst)
    }

    /// Claims a fresh write version.
    pub(crate) fn next_write_version(&self) -> u64 {
        self.clock.fetch_add(1, SeqCst) + 1
    }

    /// Raw lock word of `stripe`.
    pub(crate) fn lock_word(&self, stripe: usize) -> u64 {
        // Acquire: pairs with `unlock_stripe`'s release, so a reader that
        // sees a stripe released at `wv` sees that commit's write-back
        // (and ring entries), and its value load stays after this load.
        self.heap.lock(stripe).load(Acquire)
    }

    /// Tries to lock `stripe`, spinning at most [`MAX_LOCK_SPINS`] times.
    /// Returns the pre-lock version on success.
    pub(crate) fn try_lock_stripe(&self, stripe: usize) -> Option<u64> {
        let lock = self.heap.lock(stripe);
        for _ in 0..=MAX_LOCK_SPINS {
            // Acquire: only a guess for the CAS, which is the lock's RMW.
            let cur = lock.load(Acquire);
            if cur & 1 == 0 {
                if lock.compare_exchange(cur, cur | 1, SeqCst, SeqCst).is_ok() {
                    return Some(cur >> 1);
                }
            } else {
                std::hint::spin_loop();
            }
        }
        None
    }

    /// Releases `stripe` at version `version`.
    pub(crate) fn unlock_stripe(&self, stripe: usize, version: u64) {
        // Release: every write-back store (and ring publication) of the
        // holder is visible to whoever acquires the released word.
        self.heap.lock(stripe).store(version << 1, Release);
    }

    /// The live-snapshot registry of a `Multi` runtime; `None` under
    /// `Single`, which has no snapshot regions.
    pub(crate) fn snapshots(&self) -> Option<&LiveSnapshots> {
        self.snapshots.as_ref()
    }

    /// The version rings of a `Multi` runtime.
    pub(crate) fn versions(&self) -> &VersionStore {
        self.versions.as_ref().expect("only Multi keeps versions")
    }

    /// Test-only: the version stamps currently ringed for `addr`, at rest.
    #[doc(hidden)]
    pub fn ring_versions(&self, addr: Addr) -> Vec<u64> {
        self.versions
            .as_ref()
            .map_or_else(Vec::new, |versions| versions.versions(addr.0))
    }

    /// Allocates an object: one (unused, zero) header word plus
    /// `data_words` payload words, laid out exactly like the simulated
    /// heap so [`ObjRef::word`] arithmetic agrees.
    pub fn alloc_obj(&self, data_words: u32) -> ObjRef {
        let base = self.heap.alloc_words(1 + data_words as usize);
        ObjRef(Addr(base))
    }

    /// Non-transactional read of one word — for post-quiescence
    /// inspection by tests and harnesses only.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.heap.load(addr.0)
    }

    /// Installs (or clears) the write-back pause hook. Test-only
    /// machinery; the armed flag keeps the common commit path to one
    /// relaxed boolean load.
    #[doc(hidden)]
    pub fn set_writeback_hook(&self, hook: Option<WritebackHook>) {
        self.hook_armed.store(hook.is_some(), SeqCst);
        *self.hook.lock().unwrap() = hook;
    }

    /// The current hook, if armed.
    pub(crate) fn writeback_hook(&self) -> Option<WritebackHook> {
        if !self.hook_armed.load(std::sync::atomic::Ordering::Relaxed) {
            return None;
        }
        self.hook.lock().unwrap().clone()
    }

    /// Installs (or clears) the read pause hook. Test-only machinery,
    /// called only in builds with [`hastm_sim::mutant::PLANTED`]; there
    /// the armed flag keeps every other read to one relaxed boolean load.
    #[doc(hidden)]
    pub fn set_read_hook(&self, hook: Option<ReadHook>) {
        self.read_hook_armed.store(hook.is_some(), SeqCst);
        *self.read_hook.lock().unwrap() = hook;
    }

    /// Calls the read hook, if armed, for the word at `addr` (the lock is
    /// not held during the call, so the hook may disarm itself).
    pub(crate) fn read_paused(&self, addr: u64) {
        if !self
            .read_hook_armed
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return;
        }
        let hook = self.read_hook.lock().unwrap().clone();
        if let Some(h) = hook {
            h(addr);
        }
    }

    /// Test-only: force-lock a stripe (as if a committer stalled holding
    /// it). Returns the pre-lock version, or `None` if already locked.
    #[doc(hidden)]
    pub fn debug_lock_stripe(&self, stripe: usize) -> Option<u64> {
        self.try_lock_stripe(stripe)
    }

    /// Test-only: release a stripe locked by [`Self::debug_lock_stripe`].
    #[doc(hidden)]
    pub fn debug_unlock_stripe(&self, stripe: usize, version: u64) {
        self.unlock_stripe(stripe, version);
    }
}

impl std::fmt::Debug for NativeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeRuntime")
            .field("heap", &self.heap)
            .field("clock", &self.clock())
            .field("versioning", &self.cfg.versioning)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_encodes_version_and_held_bit() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let s = rt.stripe_of(rt.alloc_obj(1).word(0).0);
        assert_eq!(
            rt.stripe_state(s),
            StripeState {
                version: 0,
                locked: false
            }
        );
        let pre = rt.try_lock_stripe(s).expect("unlocked stripe locks");
        assert_eq!(pre, 0);
        assert!(rt.stripe_state(s).locked);
        assert_eq!(rt.stripe_state(s).version, 0, "version visible while held");
        assert!(
            rt.try_lock_stripe(s).is_none(),
            "held stripe rejects lockers"
        );
        rt.unlock_stripe(s, 5);
        assert_eq!(
            rt.stripe_state(s),
            StripeState {
                version: 5,
                locked: false
            }
        );
    }
}
