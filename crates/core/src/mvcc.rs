//! Multi-version concurrency: what both backends share — the live-snapshot
//! registry [`LiveSnapshots`] and the reclamation rule [`reclaimable`] —
//! and the simulator's committed-version store [`VersionStore`], which
//! backs [`crate::config::Versioning::Multi`].
//!
//! ## The shared rule
//!
//! A version may be dropped once its successor — the next newer version of
//! the same word — is at or below the *floor*, the oldest snapshot a live
//! reader may still take: every live and future reader then resolves to
//! the successor or later. A reader pins its snapshot in one of
//! [`SNAPSHOT_SLOTS`] padded slots *before* it captures it
//! (register-then-capture), and the floor is the minimum of the clock,
//! sampled before the slot scan, and every pinned slot. The clamp covers
//! what the scan can miss: a reader whose pin the scan did not see takes
//! its snapshot from a clock load after the clamp's, so at or above the
//! floor. An executor that finds every slot owned runs its read-only
//! regions as ordinary transactions until one is given back.
//!
//! ## The simulator's store
//!
//! Each transactionally written word gets a bounded ring of committed
//! `(stamp, value)` pairs, ordered by commit stamp. Commit stamps are
//! issued by a global counter *inside* the store lock, atomically with
//! publication, so a reader that captures `current_stamp()` as its start
//! stamp is guaranteed that every commit with stamp ≤ start is fully
//! published — the snapshot at `start` is closed.
//!
//! A ring is seeded with the pre-transactional image `(0, old)` the first
//! time its word is write-barriered (the STM is eager, so the pre-image is
//! exactly the undo-log `old` value — a committed value regardless of
//! whether the seeding writer later commits or aborts). Stamp 0 is older
//! than every possible start stamp, so *any address that ever had a ring
//! can serve any read-only transaction*: that, plus the shared rule, is the
//! structural "zero read-only aborts" guarantee.
//!
//! Reclamation (`prune`, called after each publication and from the GC
//! safepoint) drops `ring[0]` only while the ring is over its depth bound
//! and `ring[1]` is [`reclaimable`] under the floor. Every ring entry's
//! stamp is at or below the current stamp, so with no live reader the
//! clamp drops whatever is over depth. Rings may temporarily exceed their
//! depth while an old reader pins history; the newest entry is never
//! dropped. The store is host bookkeeping: the simulated thread that
//! touches it does so inside a gated op, which is what orders it.

use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Acquire, Release, SeqCst},
};
use std::sync::Mutex;

use hastm_sim::mutant::{armed, Mutant};
use hastm_sim::words::{CachePadded, WordTable};

/// Whether a version whose successor is at `successor` may be dropped
/// under `floor` ([`LiveSnapshots::floor`]): the successor serves every
/// live and future reader.
#[inline]
pub fn reclaimable(successor: u64, floor: u64) -> bool {
    successor <= floor
}

/// Live-snapshot slots of one multi-version runtime, on either backend:
/// how many executors can be inside, or between, snapshot regions at once.
pub const SNAPSHOT_SLOTS: usize = 64;
/// A slot no executor owns.
const FREE: u64 = u64::MAX;
/// An owned slot outside any region. Like [`FREE`] it is above every
/// clock value, so a floor scan passes over it.
const IDLE: u64 = u64::MAX - 1;

/// The live-snapshot registry: [`SNAPSHOT_SLOTS`] slots, each alone on its
/// line pair — committers scan the claimed ones, an owner stores to its
/// own twice per region — that hold their owner's snapshot while a
/// read-only region runs. Lock-free, so the native backend's committers
/// scan it while readers pin; the simulator runs the same code inside
/// gated ops.
pub struct LiveSnapshots {
    slots: Box<[CachePadded<AtomicU64>]>,
    /// One past the highest slot ever claimed: where a floor scan stops.
    high: AtomicUsize,
}

impl Default for LiveSnapshots {
    fn default() -> Self {
        LiveSnapshots {
            slots: (0..SNAPSHOT_SLOTS)
                .map(|_| CachePadded::new(AtomicU64::new(FREE)))
                .collect(),
            high: AtomicUsize::new(0),
        }
    }
}

impl LiveSnapshots {
    /// Claims an idle slot for one executor, which gives it back with
    /// [`LiveSnapshots::release`]; `None` while every slot is owned.
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        let claim = |slot: &CachePadded<AtomicU64>| {
            slot.load(Acquire) == FREE && slot.compare_exchange(FREE, IDLE, SeqCst, SeqCst).is_ok()
        };
        let slot = self.slots.iter().position(claim)?;
        self.high.fetch_max(slot + 1, SeqCst);
        Some(slot)
    }

    /// Gives a claimed slot back.
    #[inline]
    pub fn release(&self, slot: usize) {
        self.slots[slot].store(FREE, Release);
    }

    /// Register-then-capture: stores a `clock` reading in `slot` *first*,
    /// then returns a second reading as the region's snapshot. A floor scan
    /// that saw the store is at or below the snapshot; one that missed it
    /// is covered by its own clock clamp. Both stay `SeqCst`: the argument
    /// orders this store before this thread's next load, which only
    /// `SeqCst` does.
    #[inline]
    pub fn pin(&self, slot: usize, clock: impl Fn() -> u64) -> u64 {
        self.slots[slot].store(clock(), SeqCst);
        clock()
    }

    /// Idles `slot` at the end of its owner's region. Release: the
    /// region's loads stay before it; a scan that still sees the old
    /// snapshot only reclaims less.
    #[inline]
    pub fn unpin(&self, slot: usize) {
        self.slots[slot].store(IDLE, Release);
    }

    /// The reclamation floor: the minimum of `clamp`, a clock reading the
    /// caller took *before* this scan, and every pinned snapshot. Taken
    /// without a lock. A slot claimed past `high` as loaded, or a pin the
    /// scan misses, belongs to a reader whose snapshot comes from a clock
    /// load after the clamp's in the `SeqCst` order, so it is at or above
    /// the floor and [`reclaimable`] keeps what it reads.
    #[inline]
    pub fn floor(&self, clamp: u64) -> u64 {
        let high = self.high.load(SeqCst);
        let live = self.slots[..high].iter().map(|slot| slot.load(SeqCst));
        live.fold(clamp, u64::min)
    }
}

/// Counters describing version traffic, drained into
/// [`crate::TxnStats`]-level reporting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionStoreStats {
    /// Versions published by committing writers (seeds excluded).
    pub published: u64,
    /// Versions reclaimed by pruning.
    pub reclaimed: u64,
    /// High-water mark of any single ring's length.
    pub max_ring_len: u64,
}

#[derive(Default)]
struct Rings {
    /// `addr ->` its ring's index in `rings`.
    index: WordTable<u32>,
    /// Ascending `(stamp, value)` rings, never empty once created.
    rings: Vec<Vec<(u64, u64)>>,
    /// Last issued commit stamp (0 = "before all transactions").
    stamp: u64,
    stats: VersionStoreStats,
}

impl Rings {
    /// Where `addr`'s ring is in `rings`, created empty if it has none.
    fn ring_index(&mut self, addr: u64) -> usize {
        let fresh = self.rings.len();
        let i = *self.index.get_or_insert(addr, fresh as u32) as usize;
        if i == fresh {
            self.rings.push(Vec::new());
        }
        i
    }

    fn get(&self, addr: u64) -> Option<&[(u64, u64)]> {
        let i = self.index.get(addr)?;
        Some(&self.rings[i as usize])
    }
}

fn prune(depth: usize, floor: u64, ring: &mut Vec<(u64, u64)>, stats: &mut VersionStoreStats) {
    while ring.len() > depth && reclaimable(ring[1].0, floor) {
        ring.remove(0);
        stats.reclaimed += 1;
    }
    stats.max_ring_len = stats.max_ring_len.max(ring.len() as u64);
}

/// Host-side committed-version store shared by every [`crate::TxThread`]
/// of one [`crate::StmRuntime`].
///
/// All operations are pure host bookkeeping (no simulated memory traffic):
/// under the cooperative simulator each call is atomic with respect to
/// every other simulated thread, which is exactly the atomicity the
/// protocol needs between stamp issue and publication.
pub struct VersionStore {
    depth: usize,
    snapshots: LiveSnapshots,
    inner: Mutex<Rings>,
}

impl std::fmt::Debug for VersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("VersionStore")
            .field("depth", &self.depth)
            .field("rings", &inner.rings.len())
            .field("stamp", &inner.stamp)
            .finish_non_exhaustive()
    }
}

impl VersionStore {
    /// A store retaining `depth` (≥ 1) versions per ring.
    pub fn new(depth: usize) -> Self {
        VersionStore {
            depth: depth.max(1),
            snapshots: LiveSnapshots::default(),
            inner: Mutex::new(Rings::default()),
        }
    }

    /// Configured ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The live-snapshot registry whose floor pruning respects: a
    /// read-only transaction pins [`VersionStore::current_stamp`] in its
    /// thread's slot.
    pub fn snapshots(&self) -> &LiveSnapshots {
        &self.snapshots
    }

    /// The last issued commit stamp — the start stamp for a read-only
    /// transaction beginning now.
    pub fn current_stamp(&self) -> u64 {
        self.inner.lock().unwrap().stamp
    }

    /// Seeds `addr`'s ring with the committed pre-image `(0, old)` if the
    /// ring does not exist yet. Called from the write barrier *before* the
    /// eager in-place store, where `old` is the undo-log value.
    pub fn seed(&self, addr: u64, old: u64) {
        let mut inner = self.inner.lock().unwrap();
        let i = inner.ring_index(addr);
        let ring = &mut inner.rings[i];
        if ring.is_empty() {
            ring.push((0, old));
        }
    }

    /// Issues the next commit stamp and publishes `writes` under it, in
    /// one atomic step. Later duplicates in `writes` win (program order of
    /// an eager writer). Returns the issued stamp.
    pub fn commit_publish(&self, writes: &[(u64, u64)]) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let floor = self.snapshots.floor(stamp);
        for &(addr, value) in writes {
            let i = inner.ring_index(addr);
            let Rings { rings, stats, .. } = &mut *inner;
            let ring = &mut rings[i];
            match ring.last_mut() {
                Some(last) if last.0 == stamp => last.1 = value,
                _ => {
                    ring.push((stamp, value));
                    stats.published += 1;
                }
            }
            prune(self.depth, floor, ring, stats);
        }
        stamp
    }

    /// Snapshot read: the value of the newest version of `addr` with
    /// stamp ≤ `start`, or `None` if `addr` has no ring (never
    /// transactionally written — memory itself is the committed value).
    pub fn snapshot_read(&self, addr: u64, start: u64) -> Option<u64> {
        // `Mutant::SnapshotOneAhead` admits one-too-new a version: newest
        // stamp ≤ start+1 instead of ≤ start. A read-only scan racing a
        // writer can then observe a torn (half-new) snapshot, which the
        // oracle's stamp journal and the differential suites must catch.
        let start = if armed(Mutant::SnapshotOneAhead) {
            start.saturating_add(1)
        } else {
            start
        };
        let inner = self.inner.lock().unwrap();
        let ring = inner.get(addr)?;
        debug_assert!(!ring.is_empty());
        let idx = ring.partition_point(|&(stamp, _)| stamp <= start);
        // idx ≥ 1 always: under the reclamation rule every retained
        // prefix is servable (ring[0].stamp ≤ any live start), and rings
        // are seeded at stamp 0.
        idx.checked_sub(1).map(|i| ring[i].1)
    }

    /// Prunes every ring against the current floor. Invoked from the GC
    /// safepoint so history pinned by a completed reader does not linger
    /// until the next commit touches its ring.
    pub fn prune_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        let floor = self.snapshots.floor(inner.stamp);
        let Rings { rings, stats, .. } = &mut *inner;
        for ring in rings {
            prune(self.depth, floor, ring, stats);
        }
    }

    /// Version-traffic counters.
    pub fn stats(&self) -> VersionStoreStats {
        self.inner.lock().unwrap().stats
    }

    /// Test/diagnostic view of one ring (stamps only).
    pub fn ring_stamps(&self, addr: u64) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        let ring = inner.get(addr).unwrap_or_default();
        ring.iter().map(|&(s, _)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotone_and_publication_is_atomic_with_issue() {
        let s = VersionStore::new(2);
        assert_eq!(s.current_stamp(), 0);
        let t1 = s.commit_publish(&[(8, 10)]);
        let t2 = s.commit_publish(&[(8, 20), (16, 5)]);
        assert_eq!((t1, t2), (1, 2));
        assert_eq!(s.snapshot_read(8, 1), Some(10));
        assert_eq!(s.snapshot_read(8, 2), Some(20));
        assert_eq!(s.snapshot_read(16, 1), None, "no ring before its seed");
        assert_eq!(s.snapshot_read(16, 2), Some(5));
    }

    #[test]
    fn seed_serves_reads_older_than_the_first_commit() {
        let s = VersionStore::new(3);
        s.seed(8, 111);
        let t = s.commit_publish(&[(8, 222)]);
        assert_eq!(s.snapshot_read(8, t - 1), Some(111));
        assert_eq!(s.snapshot_read(8, t), Some(222));
        // Re-seeding is a no-op once the ring exists.
        s.seed(8, 999);
        assert_eq!(s.snapshot_read(8, 0), Some(111));
    }

    #[test]
    fn duplicate_writes_in_one_commit_keep_the_last() {
        let s = VersionStore::new(4);
        let t = s.commit_publish(&[(8, 1), (8, 2), (8, 3)]);
        assert_eq!(s.snapshot_read(8, t), Some(3));
        assert_eq!(s.ring_stamps(8), vec![t]);
        assert_eq!(s.stats().published, 1);
    }

    #[test]
    fn pruning_respects_depth_and_live_readers() {
        let s = VersionStore::new(2);
        s.seed(8, 0);
        let t1 = s.commit_publish(&[(8, 1)]);
        let slot = s.snapshots().claim().unwrap();
        s.snapshots().pin(slot, || 0); // pins the stamp-0 seed
        let _t2 = s.commit_publish(&[(8, 2)]);
        let t3 = s.commit_publish(&[(8, 3)]);
        // Ring over depth (4 > 2) but fully pinned by the start-0 reader:
        // dropping ring[0] would need ring[1].stamp (=t1) ≤ 0.
        assert_eq!(s.ring_stamps(8).len(), 4, "pinned history is retained");
        assert_eq!(s.snapshot_read(8, 0), Some(0));
        s.snapshots().unpin(slot);
        s.prune_all();
        let stamps = s.ring_stamps(8);
        assert_eq!(stamps.len(), 2, "unpinned ring prunes to depth");
        assert_eq!(*stamps.last().unwrap(), t3, "newest survives");
        assert!(stamps[0] >= t1, "oldest entries dropped first");
        assert_eq!(s.stats().reclaimed, 2);
    }

    #[test]
    fn depth_one_keeps_only_the_newest_when_unpinned() {
        let s = VersionStore::new(1);
        s.seed(8, 7);
        let t1 = s.commit_publish(&[(8, 1)]);
        assert_eq!(s.ring_stamps(8), vec![t1], "seed reclaimed at depth 1");
        assert_eq!(s.snapshot_read(8, t1), Some(1));
    }

    #[test]
    fn snapshot_read_never_returns_a_too_new_version() {
        let s = VersionStore::new(8);
        let slot = s.snapshots().claim().unwrap();
        assert_eq!(s.snapshots().pin(slot, || s.current_stamp()), 0);
        for i in 1..=6u64 {
            s.commit_publish(&[(8, i * 10)]);
        }
        for start in 1..=6u64 {
            assert_eq!(s.snapshot_read(8, start), Some(start * 10));
        }
        s.snapshots().release(slot);
    }

    #[test]
    fn the_floor_is_the_clamp_or_the_oldest_pinned_snapshot() {
        let live = LiveSnapshots::default();
        assert_eq!(live.floor(7), 7, "nothing claimed: the clamp");
        let slots: Vec<usize> = (0..SNAPSHOT_SLOTS).map(|_| live.claim().unwrap()).collect();
        assert_eq!(live.claim(), None, "every slot owned");
        assert_eq!(live.floor(7), 7, "idle slots pin nothing");
        assert_eq!(live.pin(slots[40], || 3), 3);
        assert_eq!(live.pin(slots[2], || 5), 5);
        assert_eq!(live.floor(7), 3);
        assert_eq!(live.floor(1), 1, "a clamp below every pin");
        live.unpin(slots[40]);
        assert_eq!(live.floor(7), 5);
        live.release(slots[2]);
        assert_eq!(live.floor(7), 7);
        assert_eq!(live.claim(), Some(2), "a released slot is claimed again");
        assert!(reclaimable(5, 5) && !reclaimable(6, 5));
    }
}
