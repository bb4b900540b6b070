//! The shared state of the native TL2 runtime: the global version clock,
//! the per-stripe versioned write-lock table, the live-snapshot slots and
//! version rings of `Multi`, and the commit epoch of the opt-in emulation
//! of the paper's mark-bit filter.
//!
//! ## Protocol (TL2, word-stripe variant)
//!
//! * Every 8-byte heap word hashes to one **stripe**; each stripe owns a
//!   versioned write-lock word: `version << 1 | locked`. Locking CASes
//!   `v << 1` to `(v << 1) | 1`, so the pre-lock version stays readable
//!   while the stripe is held.
//! * A transaction snapshots the global clock at begin (`rv`). Reads use
//!   the lock–load–lock sandwich: the stripe must be unlocked with
//!   `version <= rv` both before and after the value load.
//! * Writers buffer into a redo log, then at commit: lock the write
//!   stripes in ascending order, increment the clock to obtain `wv`,
//!   revalidate the read set against `rv`, write back, and release every
//!   stripe at `wv`.
//!
//! ## Mark-bit filter emulation (opt-in)
//!
//! Real ISAs have no mark bits, so with [`NativeConfig::mark_filter`] on
//! the backend emulates the paper's *filter* with per-thread state
//! (`NativeExec`) plus one word here: a global **commit epoch**, bumped
//! by every writing commit after validation and before write-back. While
//! it stands still no transaction has committed a write, and a read of a
//! stripe the thread filed under that epoch needs no sandwich and no
//! read-set entry. The emulation is not sound (DESIGN §9c) and is off by
//! default; with it off nothing reads or writes the epoch.

use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Acquire, Release, SeqCst},
};
use std::sync::{Arc, Mutex};

use hastm::{ObjRef, PhasedParams, SharedModeState, Versioning};
use hastm_sim::{counters, Addr};

use crate::heap::{CachePadded, NativeHeap, VersionStore};

/// Configuration of one [`NativeRuntime`].
#[derive(Clone, Debug)]
pub struct NativeConfig {
    /// Heap capacity in 8-byte words.
    pub heap_words: usize,
    /// Stripe-lock table size (rounded up to a power of two).
    pub stripes: usize,
    /// Enable the mark-bit filter emulation (the HASTM analog). Off by
    /// default, which is plain TL2 (the STM analog): the emulation is not
    /// sound (DESIGN §9c) and loses at every thread count.
    pub mark_filter: bool,
    /// Bounded spins when acquiring a write lock before giving up and
    /// aborting (keeps commit lock-acquisition livelock-free).
    pub max_lock_spins: u32,
    /// Per-thread filter capacity in stripes; reads past it stay on the
    /// slow path (mirrors finite mark-bit cache capacity).
    pub filter_capacity: usize,
    /// Version management: [`Versioning::Single`] is plain TL2;
    /// [`Versioning::Multi`] keeps a k-slot ring of committed
    /// `(version, value)` pairs beside every written word, giving read-only
    /// transactions ([`crate::NativeExec`]'s `atomic_ro`) an abort-free
    /// snapshot-read path with no lock–load–lock sandwich — for up to
    /// [`RO_SLOTS`] executors at a time; the regions of any more run
    /// validated, as under `Single`.
    pub versioning: Versioning,
    /// Enable the PhTM-style global phase controller
    /// ([`hastm::ModePolicy::Phased`]'s native twin): executors enter the
    /// shared phase word before every attempt, the `Cautious` phase
    /// suppresses the filter fast path, and the `Serial` phase runs
    /// irrevocable transactions under the global token (no validation,
    /// no aborts). `None` keeps the plain free-running TL2 scheme.
    pub phased: Option<PhasedParams>,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            heap_words: 1 << 20,
            stripes: 1 << 16,
            mark_filter: false,
            max_lock_spins: 128,
            filter_capacity: 4096,
            versioning: Versioning::Single,
            phased: None,
        }
    }
}

/// Decoded state of one stripe lock word.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StripeState {
    /// Version of the last committed write to the stripe.
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
        /// Aborts from a stale filter detected at commit time.
        aborts_filter_stale: "native.aborts.filter_stale",
        /// Reads served by the filter fast path (no sandwich, no read-set
        /// entry).
        fast_reads: "native.read.fast",
        /// Reads served by the full TL2 sandwich.
        slow_reads: "native.read.slow",
        /// Writing commits that kept their filter alive across the commit
        /// (the single-thread reuse win of §6).
        filter_retained: "native.filter_retained",
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
        /// Committed irrevocable (serial-phase) transactions. Non-zero only
        /// under [`NativeConfig::phased`]; counted inside `commits` too.
        serial_commits: "phase.serial_commits",
        /// Phase transitions this thread's events published. Non-zero only
        /// under [`NativeConfig::phased`].
        phase_transitions: "phase.transitions",
    }
}

impl NativeStats {
    /// Total aborted attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_filter_stale
    }
}

/// Test hook invoked by a commit as `(words_written, words_total)` — once
/// with `(0, n)` when the read set has validated and nothing is published
/// yet (no store, no epoch bump), and once after each store. Lets the
/// stress tests freeze a committer while it holds its stripe locks. With
/// [`NativeConfig::mark_filter`] on, the bump that follows `(0, n)` is
/// also the commit's last check — of its fast reads' window — so a
/// commit may still abort after `(0, n)`, having stored nothing.
pub type WritebackHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// Live-snapshot slots of a `Multi` runtime: how many executors can be
/// inside, or between, snapshot regions at once. One more runs its
/// read-only regions as ordinary transactions until a slot is given back.
pub const RO_SLOTS: usize = 64;
/// A slot no executor owns.
const RO_FREE: u64 = u64::MAX;
/// An owned slot outside any region. Like [`RO_FREE`] it is above every
/// clock value, so a floor scan passes over it.
pub(crate) const RO_IDLE: u64 = u64::MAX - 1;

/// Shared state of the native backend; threads hold `&NativeRuntime` and
/// drive it through per-thread [`crate::NativeExec`]s.
pub struct NativeRuntime {
    heap: NativeHeap,
    locks: Box<[AtomicU64]>,
    stripe_mask: u64,
    /// Bumped by every writing commit — the epoch only with the filter on
    /// — so each sits on a line pair of its own, away from `stripe_mask`,
    /// `locks` and `cfg`, which every read of every thread loads.
    clock: CachePadded<AtomicU64>,
    epoch: CachePadded<AtomicU64>,
    cfg: NativeConfig,
    hook_armed: AtomicBool,
    hook: Mutex<Option<WritebackHook>>,
    start: std::time::Instant,
    /// The version rings (`Some` only under [`Versioning::Multi`]).
    /// Writers publish here *before* each write-back store: a ring's
    /// first entry, seeded at version 0, is the word's pre-transactional
    /// image, read from the heap.
    versions: Option<VersionStore>,
    /// Live read-only snapshot registry (empty under `Single`): a slot
    /// holds its owner's snapshot `rv` while an `atomic_ro` region runs.
    /// Each is alone on its line pair — committers scan the claimed ones,
    /// an owner stores to its own twice per region — and commit-time
    /// pruning keeps every version a registered reader can still need.
    ro_slots: Box<[CachePadded<AtomicU64>]>,
    /// One past the highest slot ever claimed: where a floor scan stops.
    ro_high: AtomicUsize,
    /// The scheme-wide phase machine (`Some` only under
    /// [`NativeConfig::phased`]) — the same [`SharedModeState`] the
    /// simulator backend gates, here driven by real `SeqCst` atomics.
    phase: Option<SharedModeState>,
}

impl NativeRuntime {
    /// Builds a runtime with the given configuration.
    pub fn new(cfg: NativeConfig) -> Self {
        let stripes = cfg.stripes.next_power_of_two().max(2);
        let locks: Vec<AtomicU64> = (0..stripes).map(|_| AtomicU64::new(0)).collect();
        let multi = cfg.versioning.is_multi();
        let versions = multi.then(|| VersionStore::new(cfg.heap_words, cfg.versioning.depth()));
        let ro_slots = if multi { RO_SLOTS } else { 0 };
        let phase = cfg.phased.map(SharedModeState::new);
        NativeRuntime {
            heap: NativeHeap::new(cfg.heap_words),
            locks: locks.into_boxed_slice(),
            stripe_mask: (stripes - 1) as u64,
            clock: CachePadded::new(AtomicU64::new(0)),
            epoch: CachePadded::new(AtomicU64::new(0)),
            cfg,
            hook_armed: AtomicBool::new(false),
            hook: Mutex::new(None),
            start: std::time::Instant::now(),
            versions,
            ro_slots: (0..ro_slots)
                .map(|_| CachePadded::new(AtomicU64::new(RO_FREE)))
                .collect(),
            ro_high: AtomicUsize::new(0),
            phase,
        }
    }

    /// The shared phase machine, when the runtime is phased.
    pub fn phase_state(&self) -> Option<&SharedModeState> {
        self.phase.as_ref()
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

    /// Stripe index of a byte address (8-byte striping, like the
    /// word-granular lock tables of the TL2 lineage).
    pub fn stripe_of(&self, byte: u64) -> usize {
        ((byte >> 3) & self.stripe_mask) as usize
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

    /// Current commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Snapshots the clock for a beginning transaction.
    pub(crate) fn read_version(&self) -> u64 {
        self.clock.load(SeqCst)
    }

    /// Claims a fresh write version.
    pub(crate) fn next_write_version(&self) -> u64 {
        self.clock.fetch_add(1, SeqCst) + 1
    }

    /// Bumps the commit epoch (validation passed, write-back imminent;
    /// filter on only); returns the pre-bump value so the committer can
    /// tell whether its own filter was still current.
    pub(crate) fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, SeqCst)
    }

    /// Raw lock word of `stripe`.
    pub(crate) fn lock_word(&self, stripe: usize) -> u64 {
        // Acquire: pairs with `unlock_stripe`'s release, so a reader that
        // sees a stripe released at `wv` sees that commit's write-back
        // (and ring entries), and its value load stays after this load.
        self.locks[stripe].load(Acquire)
    }

    /// Tries to lock `stripe`, spinning at most `max_lock_spins` times.
    /// Returns the pre-lock version on success.
    pub(crate) fn try_lock_stripe(&self, stripe: usize) -> Option<u64> {
        let lock = &self.locks[stripe];
        for _ in 0..=self.cfg.max_lock_spins {
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
        self.locks[stripe].store(version << 1, Release);
    }

    /// Whether the runtime keeps multi-version rings.
    pub fn is_multi(&self) -> bool {
        self.cfg.versioning.is_multi()
    }

    /// Claims a live-snapshot slot for one executor, which gives it back
    /// when dropped; `None` while all [`RO_SLOTS`] are owned (and always
    /// under `Single`, which has none). The slot is idle; `atomic_ro`
    /// stores its `rv` there for the duration of a region so pruning
    /// cannot reclaim versions the region can still read.
    pub(crate) fn claim_ro_slot(&self) -> Option<usize> {
        let claim = |slot: &CachePadded<AtomicU64>| {
            slot.load(Acquire) == RO_FREE
                && slot
                    .compare_exchange(RO_FREE, RO_IDLE, SeqCst, SeqCst)
                    .is_ok()
        };
        let slot = self.ro_slots.iter().position(claim)?;
        self.ro_high.fetch_max(slot + 1, SeqCst);
        Some(slot)
    }

    /// Live-snapshot slot `slot`.
    pub(crate) fn ro_slot(&self, slot: usize) -> &AtomicU64 {
        &self.ro_slots[slot]
    }

    /// Gives a claimed slot back.
    pub(crate) fn release_ro_slot(&self, slot: usize) {
        self.ro_slots[slot].store(RO_FREE, Release);
    }

    /// Reclamation floor for commit-time pruning: the minimum of every
    /// live snapshot's `rv` and the clock *as sampled before the scan*,
    /// taken without a lock. The clamp covers what the scan can miss — a
    /// slot claimed past `ro_high` as loaded, or the `rv` store of a
    /// region just beginning: that reader's claim, its store and then its
    /// `rv` clock load all come after the missing load in the `SeqCst`
    /// total order, which the clamp's clock load precedes, so
    /// `rv >= clamp >= floor` and the prune keeps everything it needs (an
    /// entry is dropped only when its successor's version is `<= floor`,
    /// so the successor still serves any `rv >= floor`).
    pub(crate) fn ro_floor(&self) -> u64 {
        let clamp = self.clock.load(SeqCst);
        let high = self.ro_high.load(SeqCst);
        let live = self.ro_slots[..high].iter().map(|s| s.load(SeqCst));
        live.fold(clamp, u64::min)
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

    /// Test-only: force-lock a stripe (as if a committer stalled holding
    /// it). Returns the pre-lock version, or `None` if already locked.
    #[doc(hidden)]
    pub fn debug_lock_stripe(&self, stripe: usize) -> Option<u64> {
        let cur = self.locks[stripe].load(SeqCst);
        if cur & 1 == 1 {
            return None;
        }
        self.locks[stripe]
            .compare_exchange(cur, cur | 1, SeqCst, SeqCst)
            .ok()
            .map(|prev| prev >> 1)
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
            .field("stripes", &self.locks.len())
            .field("clock", &self.clock())
            .field("epoch", &self.epoch())
            .field("mark_filter", &self.cfg.mark_filter)
            .field("versioning", &self.cfg.versioning)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_encodes_version_and_held_bit() {
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 64,
            stripes: 8,
            ..NativeConfig::default()
        });
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

    #[test]
    fn adjacent_words_fall_in_distinct_stripes() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let o = rt.alloc_obj(4);
        let stripes: Vec<usize> = (0..4).map(|i| rt.stripe_of(o.word(i).0)).collect();
        let unique: std::collections::HashSet<&usize> = stripes.iter().collect();
        assert_eq!(unique.len(), 4, "8-byte striping separates adjacent words");
    }
}
