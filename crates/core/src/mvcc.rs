//! Multi-version concurrency: the committed-version store backing
//! [`crate::config::Versioning::Multi`].
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
//! can serve any read-only transaction*: that, plus the reclamation
//! invariant below, is the structural "zero read-only aborts" guarantee.
//!
//! Reclamation (`prune`, called after each publication and from the GC
//! safepoint) drops `ring[0]` only while the ring is over its depth bound
//! *and* `ring[1].stamp ≤ floor`, where `floor` is the oldest live
//! read-only start stamp (`u64::MAX` when none are live). If
//! `ring[1].stamp ≤ floor`, every live and future reader resolves to index
//! ≥ 1, so `ring[0]` is unreachable. Rings may temporarily exceed their
//! depth while an old reader pins history; the newest entry is never
//! dropped.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use hastm_sim::mutant::{armed, Mutant};

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
struct VersionStoreInner {
    /// `addr ->` ascending `(stamp, value)` ring.
    rings: HashMap<u64, Vec<(u64, u64)>>,
    /// Last issued commit stamp (0 = "before all transactions").
    stamp: u64,
    /// Live read-only start stamps (multiset: `stamp -> count`).
    live: BTreeMap<u64, usize>,
    stats: VersionStoreStats,
}

impl VersionStoreInner {
    fn floor(&self) -> u64 {
        self.live.keys().next().copied().unwrap_or(u64::MAX)
    }

    fn prune_ring(
        depth: usize,
        floor: u64,
        ring: &mut Vec<(u64, u64)>,
        stats: &mut VersionStoreStats,
    ) {
        while ring.len() > depth && ring[1].0 <= floor {
            ring.remove(0);
            stats.reclaimed += 1;
        }
        stats.max_ring_len = stats.max_ring_len.max(ring.len() as u64);
    }
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
    inner: Mutex<VersionStoreInner>,
}

impl std::fmt::Debug for VersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("VersionStore")
            .field("depth", &self.depth)
            .field("rings", &inner.rings.len())
            .field("stamp", &inner.stamp)
            .field("live_ro", &inner.live.len())
            .finish()
    }
}

impl VersionStore {
    /// A store retaining `depth` (≥ 1) versions per ring.
    pub fn new(depth: usize) -> Self {
        VersionStore {
            depth: depth.max(1),
            inner: Mutex::new(VersionStoreInner::default()),
        }
    }

    /// Configured ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The last issued commit stamp — the start stamp for a read-only
    /// transaction beginning now.
    pub fn current_stamp(&self) -> u64 {
        self.inner.lock().unwrap().stamp
    }

    /// Registers a live read-only transaction starting at `start`,
    /// pinning versions with stamp ≤ `start` against reclamation.
    pub fn register_ro(&self, start: u64) {
        *self.inner.lock().unwrap().live.entry(start).or_insert(0) += 1;
    }

    /// Deregisters a read-only transaction; its pinned history becomes
    /// reclaimable (lazily, at the next prune).
    pub fn deregister_ro(&self, start: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.live.get_mut(&start) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                inner.live.remove(&start);
            }
            None => debug_assert!(false, "deregistering an unregistered RO start {start}"),
        }
    }

    /// Seeds `addr`'s ring with the committed pre-image `(0, old)` if the
    /// ring does not exist yet. Called from the write barrier *before* the
    /// eager in-place store, where `old` is the undo-log value.
    pub fn seed(&self, addr: u64, old: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.rings.entry(addr).or_insert_with(|| vec![(0, old)]);
    }

    /// Issues the next commit stamp and publishes `writes` under it, in
    /// one atomic step. Later duplicates in `writes` win (program order of
    /// an eager writer). Returns the issued stamp.
    pub fn commit_publish(&self, writes: &[(u64, u64)]) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let floor = inner.floor();
        let VersionStoreInner { rings, stats, .. } = &mut *inner;
        for &(addr, value) in writes {
            let ring = rings.entry(addr).or_default();
            match ring.last_mut() {
                Some(last) if last.0 == stamp => last.1 = value,
                _ => {
                    ring.push((stamp, value));
                    stats.published += 1;
                }
            }
            VersionStoreInner::prune_ring(self.depth, floor, ring, stats);
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
        let ring = inner.rings.get(&addr)?;
        debug_assert!(!ring.is_empty());
        let idx = ring.partition_point(|&(stamp, _)| stamp <= start);
        // idx ≥ 1 always: under the reclamation invariant every retained
        // prefix is servable (ring[0].stamp ≤ any live start), and rings
        // are seeded at stamp 0.
        idx.checked_sub(1).map(|i| ring[i].1)
    }

    /// Prunes every ring against the current oldest live read-only start.
    /// Invoked from the GC safepoint so history pinned by a completed
    /// reader does not linger until the next commit touches its ring.
    pub fn prune_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        let floor = inner.floor();
        let depth = self.depth;
        let VersionStoreInner { rings, stats, .. } = &mut *inner;
        for ring in rings.values_mut() {
            VersionStoreInner::prune_ring(depth, floor, ring, stats);
        }
    }

    /// Version-traffic counters.
    pub fn stats(&self) -> VersionStoreStats {
        self.inner.lock().unwrap().stats
    }

    /// Test/diagnostic view of one ring (stamps only).
    pub fn ring_stamps(&self, addr: u64) -> Vec<u64> {
        self.inner
            .lock()
            .unwrap()
            .rings
            .get(&addr)
            .map(|r| r.iter().map(|&(s, _)| s).collect())
            .unwrap_or_default()
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
        s.register_ro(0); // pins the stamp-0 seed
        let _t2 = s.commit_publish(&[(8, 2)]);
        let t3 = s.commit_publish(&[(8, 3)]);
        // Ring over depth (4 > 2) but fully pinned by the start-0 reader:
        // dropping ring[0] would need ring[1].stamp (=t1) ≤ 0.
        assert_eq!(s.ring_stamps(8).len(), 4, "pinned history is retained");
        assert_eq!(s.snapshot_read(8, 0), Some(0));
        s.deregister_ro(0);
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
        s.register_ro(0);
        for i in 1..=6u64 {
            s.commit_publish(&[(8, i * 10)]);
        }
        for start in 1..=6u64 {
            assert_eq!(s.snapshot_read(8, start), Some(start * 10));
        }
        s.deregister_ro(0);
    }
}
