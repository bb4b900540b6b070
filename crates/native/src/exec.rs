//! Per-thread execution: [`NativeExec`] (the host-thread analog of the
//! simulator executors, with the retry loop and the attempt's logs) and
//! [`NativeTxn`] (one transaction attempt, implementing [`TmContext`] so
//! the unmodified data structures run on it).
//!
//! An optimistic read has one path, the TL2 lock–load–lock sandwich, and
//! a commit touches the clock and the words it writes, nothing else.
//! There is no native mark filter: a read that skips the per-word lock
//! check cannot see a committer that has validated but not yet written
//! back (DESIGN §9c).
//!
//! ## Where an attempt's state lives
//!
//! The read set, the redo log, the commit's lock list and the attempt's
//! allocations and frees belong to the executor and are cleared — not
//! rebuilt — by each attempt, so a warm executor begins, reads, writes,
//! aborts and commits without touching the allocator
//! (`tests/alloc_regression.rs`). What a commit frees goes on the
//! executor's free list (`FreeList`, DESIGN §9b).

use std::collections::VecDeque;

use hastm::mvcc::{reclaimable, LiveSnapshots};
use hastm::{Abort, ObjRef, TmContext, TmExec, TxResult};
use hastm_sim::mutant::{armed, Mutant};
use hastm_sim::words::RedoLog;

use crate::tl2::{NativeRuntime, NativeStats, WritebackHook};

/// Every transaction kind's `ctx_work`: one spin per simulated cycle keeps
/// relative app-work costs without a simulated clock.
#[inline]
fn app_work(cycles: u64) {
    (0..cycles).for_each(|_| std::hint::spin_loop());
}

/// One host thread's executor over a shared [`NativeRuntime`].
pub struct NativeExec<'r> {
    rt: &'r NativeRuntime,
    stats: NativeStats,
    backoff: u64,
    /// This executor's live-snapshot registry slot (idle when no
    /// `atomic_ro` region is running), claimed from the runtime by the
    /// first read-only region and given back on drop.
    ro_slot: Option<usize>,
    /// The current attempt's reads, as stripes (validated again at
    /// commit).
    reads: Vec<usize>,
    /// The current attempt's redo log.
    writes: RedoLog,
    /// The commit's lock list: the written stripes, ascending, each with
    /// the version it held before this commit locked it.
    locks: Vec<(usize, u64)>,
    /// Everything the current attempt allocated. A commit publishes
    /// them; otherwise the next attempt puts them back on `free`.
    attempt_allocs: Vec<Stamped>,
    /// `(data_words, object)` of everything the current attempt freed:
    /// onto `free` at a writing commit, dropped otherwise.
    attempt_frees: Vec<(u32, ObjRef)>,
    /// Objects this executor may hand out again.
    free: FreeList,
    /// Every object a committed attempt allocated — kept only while
    /// [`Mutant::EverFresh`] is armed, which takes them all for fresh.
    ever_allocs: Vec<Stamped>,
}

/// An object with its free-list stamp: the write version of the commit
/// that freed it, or 0 for an object no commit has published.
#[derive(Copy, Clone, Debug)]
struct Stamped {
    words: u32,
    obj: ObjRef,
    stamp: u64,
}

impl Stamped {
    /// Whether byte address `addr` is one of the object's data words.
    fn holds(&self, addr: u64) -> bool {
        (self.obj.0 .0..self.obj.word(self.words).0).contains(&addr)
    }
}

/// One executor's free list: per object size, a queue of `(stamp,
/// object)`. A commit appends what it freed, so each queue's stamps rise
/// from front to back, except that what an attempt that did not commit
/// allocated goes to the front: it was taken from the heap (stamp 0) or
/// from the front once the floor had passed its stamp, and the floor
/// never falls back.
#[derive(Debug, Default)]
struct FreeList(Vec<(u32, VecDeque<(u64, ObjRef)>)>);

impl FreeList {
    /// The queue of objects of `words` data words.
    fn queue(&mut self, words: u32) -> &mut VecDeque<(u64, ObjRef)> {
        let i = match self.0.iter().position(|&(size, _)| size == words) {
            Some(i) => i,
            None => {
                self.0.push((words, VecDeque::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }
}

/// Whether an object freed by the commit at `stamp` may be handed out
/// again: under `Multi`, once the floor has reached `stamp`, so that every
/// pinned snapshot sees it unlinked; under `Single`, which pins none, at
/// once — an optimistic reader that still holds its address finds its
/// stripes moved past its `rv` by the next life's commit and aborts.
fn reusable(rt: &NativeRuntime, stamp: u64) -> bool {
    let Some(live) = rt.snapshots() else {
        return true;
    };
    reclaimable(stamp, live.floor(rt.clock())) || armed(Mutant::RecycleEarly)
}

impl<'r> NativeExec<'r> {
    /// Builds an executor for the current thread.
    pub fn new(rt: &'r NativeRuntime) -> Self {
        NativeExec {
            rt,
            stats: NativeStats::default(),
            backoff: 0x9e37_79b9_7f4a_7c15,
            ro_slot: None,
            reads: Vec::new(),
            writes: RedoLog::new(),
            locks: Vec::new(),
            attempt_allocs: Vec::new(),
            attempt_frees: Vec::new(),
            free: FreeList::default(),
            ever_allocs: Vec::new(),
        }
    }

    /// The shared runtime.
    pub fn runtime(&self) -> &'r NativeRuntime {
        self.rt
    }

    /// This thread's counters so far.
    pub fn stats(&self) -> &NativeStats {
        &self.stats
    }

    /// Begins one explicit transaction attempt. Most callers want
    /// [`TmExec::atomic`]; the explicit form exists for the protocol
    /// property tests, which need to interleave attempts by hand.
    pub fn txn(&mut self) -> NativeTxn<'_, 'r> {
        self.reset_attempt();
        let rv = self.rt.read_version();
        NativeTxn { exec: self, rv }
    }

    /// Empties the logs for a new attempt. Whatever the previous attempt
    /// allocated or freed is still listed only if it did not commit (it
    /// aborted, waited on `Retry`, or was dropped): its frees are void,
    /// and what it allocated goes back to the front of the free list with
    /// the stamp it came with. Sound because such an object was not
    /// stored to in that attempt (writes are buffered) and its address
    /// never left this thread.
    fn reset_attempt(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.attempt_frees.clear();
        for s in self.attempt_allocs.drain(..) {
            self.free.queue(s.words).push_front((s.stamp, s.obj));
        }
    }

    /// Allocates inside an attempt: the front of the free list's queue of
    /// the size if it may be reused, the shared heap otherwise. An object
    /// a commit freed still holds its last life's words, so its every
    /// word is logged as 0: it reads as a fresh one does, and its commit
    /// writes all of it.
    fn attempt_alloc(&mut self, data_words: u32) -> ObjRef {
        let queue = self.free.queue(data_words);
        let taken = match queue.front() {
            Some(&(stamp, _)) if reusable(self.rt, stamp) => queue.pop_front(),
            _ => None,
        };
        let (stamp, obj) = taken.unwrap_or_else(|| (0, self.rt.alloc_obj(data_words)));
        if stamp > 0 {
            self.stats.recycled += 1;
            for i in 0..data_words {
                self.writes.insert(obj.word(i).0, 0);
            }
        }
        self.attempt_allocs.push(Stamped {
            words: data_words,
            obj,
            stamp,
        });
        obj
    }

    /// Writes the (sorted) redo log back at `wv`. Under Multi, each
    /// word's `(wv, value)` is published into its version ring *before*
    /// the store (the ring's seed is the pre-image, read from the heap)
    /// and pruned of what no reader at or above the floor can need, while
    /// the caller holds the stripes' locks, which is what lets a snapshot
    /// reader take the ring and the word as one whole. A word of an object
    /// this attempt allocated publishes nothing unless it already has a
    /// history (a recycled object's word may, from its last life): only this
    /// commit's stores make the object reachable, and a recycled one was
    /// taken only once every pinned snapshot saw it unlinked, so no
    /// snapshot older than `wv` can read it, and the word's first later
    /// overwrite seeds version 0 with the value stored here, which is what
    /// every snapshot that can reach it reads.
    fn write_back(&mut self, wv: u64, hook: Option<WritebackHook>) {
        let rt = self.rt;
        let total = self.writes.len();
        let floor = rt.snapshots().map(|live| live.floor(rt.clock()));
        let fresh = match floor {
            Some(_) if armed(Mutant::EverFresh) => {
                self.ever_allocs.extend_from_slice(&self.attempt_allocs);
                &self.ever_allocs
            }
            _ => &self.attempt_allocs,
        };
        for (done, &(addr, value)) in self.writes.entries().iter().enumerate() {
            if let Some(floor) = floor {
                let no_history = || !rt.versions().has_history(addr);
                if !(fresh.iter().any(|s| s.holds(addr)) && no_history()) {
                    let pre_image = rt.heap().load(addr);
                    let (claimed, reclaimed) =
                        rt.versions().publish(addr, wv, value, pre_image, floor);
                    self.stats.versions_published += 1;
                    self.stats.blocks_claimed += claimed;
                    self.stats.versions_reclaimed += reclaimed;
                }
            }
            rt.heap().store(addr, value);
            if let Some(h) = &hook {
                h(done + 1, total);
            }
        }
    }

    /// The runtime's live-snapshot registry and this executor's slot in
    /// it, claimed on first use; `None` while the runtime has none to give.
    fn ro_slot(&mut self) -> Option<(&'r LiveSnapshots, usize)> {
        let live = self.rt.snapshots()?;
        self.ro_slot = self.ro_slot.or_else(|| live.claim());
        Some((live, self.ro_slot?))
    }

    /// Deterministic-per-thread bounded backoff between attempts.
    fn backoff(&mut self, attempt: u32) {
        self.backoff ^= self.backoff << 13;
        self.backoff ^= self.backoff >> 7;
        self.backoff ^= self.backoff << 17;
        if attempt < 3 {
            for _ in 0..(self.backoff % (8 << attempt)) {
                std::hint::spin_loop();
            }
        } else {
            // On oversubscribed hosts the lock holder needs the core.
            std::thread::yield_now();
        }
    }
}

impl Drop for NativeExec<'_> {
    fn drop(&mut self) {
        if let (Some(slot), Some(live)) = (self.ro_slot, self.rt.snapshots()) {
            live.release(slot);
        }
    }
}

impl std::fmt::Debug for NativeExec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeExec")
            .field("stats", &self.stats)
            .finish()
    }
}

/// What [`TmExec`] says `Err(Abort::Explicit)` out of `atomic` or
/// `atomic_ro` does: the native backend has no `try_` form to surface it.
#[cold]
fn explicit_abort(region: &str) -> ! {
    panic!("explicit abort inside {region} (unsupported on the native backend)")
}

impl TmExec for NativeExec<'_> {
    fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        let mut attempt: u32 = 0;
        loop {
            let mut txn = self.txn();
            let outcome = match f(&mut txn) {
                Ok(r) => txn.commit().map(|()| r),
                Err(cause) => {
                    // Read-time validation failures (the sandwich) never
                    // reach commit(), so they are counted here; commit()
                    // counts only its own commit-time aborts.
                    if matches!(cause, Abort::Conflict) {
                        txn.exec.stats.aborts_conflict += 1;
                    }
                    txn.rollback();
                    Err(cause)
                }
            };
            match outcome {
                Ok(r) => {
                    self.stats.commits += 1;
                    return r;
                }
                Err(Abort::Explicit) => explicit_abort("atomic"),
                // `retry` condition wait: no condition variables here, so
                // poll with a yield like the simulator's timed wait.
                Err(Abort::Retry) => std::thread::yield_now(),
                Err(_) => {}
            }
            attempt = attempt.saturating_add(1);
            self.backoff(attempt);
        }
    }

    /// Under `Multi` a snapshot region, which cannot abort — for the first
    /// [`hastm::mvcc::SNAPSHOT_SLOTS`] executors of the runtime to ask (a
    /// slot is an executor's until it is dropped). Any further executor, like
    /// every executor under `Single`, gets [`TmExec::atomic`].
    fn atomic_ro<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        // No version rings under Single, no live-snapshot slot left under
        // Multi: the region runs as an ordinary (validated, abortable)
        // transaction.
        let Some((live, slot)) = self.ro_slot() else {
            return self.atomic(f);
        };
        let rt = self.rt;
        loop {
            // Register-then-capture (`LiveSnapshots::pin`): every version
            // this region can need outlives it.
            let rv = live.pin(slot, || rt.clock());
            let out = f(&mut NativeRoTxn { exec: self, rv });
            live.unpin(slot);
            match out {
                Ok(r) => {
                    self.stats.ro_commits += 1;
                    self.stats.commits += 1;
                    return r;
                }
                Err(Abort::Retry) => {
                    // User condition wait, not a conflict: the snapshot
                    // path itself cannot abort. Counted like the
                    // simulator backend counts it.
                    self.stats.ro_aborts += 1;
                    std::thread::yield_now();
                }
                Err(Abort::Explicit) => explicit_abort("atomic_ro"),
                Err(cause) => unreachable!("snapshot reads cannot conflict-abort: {cause:?}"),
            }
        }
    }

    fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        self.rt.alloc_obj(data_words)
    }

    fn clock(&mut self) -> u64 {
        self.rt.nanos()
    }

    fn idle_until(&mut self, tick: u64) {
        loop {
            let now = self.rt.nanos();
            if now >= tick {
                return;
            }
            // Open-loop gaps are typically sub-microsecond, so spin; only
            // yield when the wait is long enough for the OS to matter.
            if tick - now > 100_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One transaction attempt on one thread; its logs live in the executor.
/// Dropping it without calling [`NativeTxn::commit`] abandons the attempt
/// (nothing was published).
pub struct NativeTxn<'e, 'r> {
    exec: &'e mut NativeExec<'r>,
    rv: u64,
}

impl NativeTxn<'_, '_> {
    /// The clock snapshot this attempt reads against.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    fn read_word_at(&mut self, addr: u64) -> TxResult<u64> {
        if let Some(buffered) = self.exec.writes.get(addr) {
            return Ok(buffered);
        }
        let rt = self.exec.rt;
        let stripe = rt.stripe_of(addr);
        // The TL2 lock–load–lock sandwich.
        let v1 = rt.lock_word(stripe);
        if v1 & 1 == 1 || (v1 >> 1) > self.rv {
            return Err(Abort::Conflict);
        }
        let value = rt.heap().load(addr);
        if rt.lock_word(stripe) != v1 {
            return Err(Abort::Conflict);
        }
        self.exec.reads.push(stripe);
        self.exec.stats.slow_reads += 1;
        Ok(value)
    }

    /// Commits the attempt: lock (sorted), claim `wv`, validate reads,
    /// write back, release at `wv`. The commit touches the clock and the
    /// stripes it writes, nothing else.
    ///
    /// # Errors
    ///
    /// Returns the abort cause; heap words and lock words are untouched
    /// by a failed commit.
    pub fn commit(self) -> TxResult<()> {
        let NativeTxn { exec, rv } = self;
        let rt = exec.rt;
        if exec.writes.is_empty() {
            exec.attempt_allocs.clear();
            return Ok(());
        }

        // Deterministic ascending lock order forbids lock-order cycles.
        // The sorted log's addresses are distinct, and so are their
        // stripes (versions filled in as each is locked).
        exec.writes.sort();
        exec.locks.clear();
        exec.locks.extend(
            exec.writes
                .entries()
                .iter()
                .map(|&(addr, _)| (rt.stripe_of(addr), 0)),
        );
        let release = |held: &[(usize, u64)]| {
            for &(stripe, version) in held {
                rt.unlock_stripe(stripe, version);
            }
        };
        for i in 0..exec.locks.len() {
            match rt.try_lock_stripe(exec.locks[i].0) {
                // A write-only stripe whose version moved past rv is fine:
                // TL2 permits the blind overwrite. Stripes we also *read*
                // are validated against rv below using the pre-lock version.
                Some(pre_version) => exec.locks[i].1 = pre_version,
                None => {
                    release(&exec.locks[..i]);
                    exec.stats.aborts_conflict += 1;
                    return Err(Abort::Conflict);
                }
            }
        }

        let wv = rt.next_write_version();

        // Revalidate every read: unchanged since rv and not locked by
        // anyone else. For a stripe we hold, the pre-lock version is what
        // matters; one somebody else holds is as good as newer.
        for &stripe in &exec.reads {
            let version = match exec.locks.binary_search_by_key(&stripe, |&(s, _)| s) {
                Ok(i) => exec.locks[i].1,
                Err(_) => match rt.lock_word(stripe) {
                    raw if raw & 1 == 1 => u64::MAX,
                    raw => raw >> 1,
                },
            };
            if version > rv {
                release(&exec.locks);
                exec.stats.aborts_conflict += 1;
                return Err(Abort::Conflict);
            }
        }

        // Validation is over and nothing is published yet: say so to the
        // test hook, `(0, n)`.
        let hook = rt.writeback_hook();
        if let Some(h) = &hook {
            h(0, exec.writes.len());
        }
        exec.write_back(wv, hook);
        for &(stripe, _) in &exec.locks {
            rt.unlock_stripe(stripe, wv);
        }
        exec.attempt_allocs.clear();
        // What the commit freed goes on the free list, stamped `wv`: the
        // version that unlinked it.
        for (words, obj) in exec.attempt_frees.drain(..) {
            exec.free.queue(words).push_back((wv, obj));
        }
        Ok(())
    }

    /// Abandons the attempt: nothing was published, and the executor's
    /// next attempt empties the logs, voids the frees and reuses the
    /// allocations.
    pub fn rollback(self) {}
}

impl TmContext for NativeTxn<'_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        self.read_word_at(obj.word(index).0)
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        self.exec.writes.insert(obj.word(index).0, value);
        Ok(())
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        self.exec.attempt_alloc(data_words)
    }

    fn ctx_free(&mut self, obj: ObjRef, data_words: u32) {
        self.exec.attempt_frees.push((data_words, obj));
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        // TL2 reads are opaque (each is validated against rv when served),
        // so a doomed transaction can never observe an inconsistent
        // snapshot; there is nothing to revalidate mid-flight.
        Ok(())
    }

    fn ctx_work(&mut self, cycles: u64) {
        app_work(cycles);
    }
}

impl std::fmt::Debug for NativeTxn<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeTxn")
            .field("rv", &self.rv)
            .field("reads", &self.exec.reads.len())
            .field("writes", &self.exec.writes.len())
            .finish()
    }
}

/// One read-only snapshot region (only under
/// [`hastm::Versioning::Multi`]): reads resolve at the region's `rv` —
/// from the word itself while its stripe has not moved past `rv`, from
/// the version rings otherwise — with no read set and no commit-time
/// validation, so the region cannot conflict-abort, no matter how many
/// writers race it.
pub struct NativeRoTxn<'e, 'r> {
    exec: &'e mut NativeExec<'r>,
    rv: u64,
}

impl NativeRoTxn<'_, '_> {
    /// The clock snapshot this region reads at.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    fn snapshot_read_at(&mut self, addr: u64) -> u64 {
        let rt = self.exec.rt;
        let stripe = rt.stripe_of(addr);
        self.exec.stats.snapshot_reads += 1;
        loop {
            // Wait out committing writers: once the stripe is observed
            // unlocked, every commit to it with wv <= rv has fully
            // written back and published its ring entries (writers lock
            // stripes before claiming wv, and this region read `rv` from
            // the clock after that claim, so the lock is visible here;
            // any later locker's wv exceeds our rv — its entries are
            // newer than the snapshot and harmless).
            let v1 = loop {
                let word = rt.lock_word(stripe);
                if word & 1 == 0 {
                    break word;
                }
                std::hint::spin_loop();
            };
            // Versions are unique and rise per word, so the same unlocked
            // lock word on both sides of some loads means no commit to the
            // word stored or published in between (a reader that sees a
            // written-back value or ring entry also sees its lock held or
            // moved; an aborted locker restores the version but never
            // stored).
            let stable = || rt.lock_word(stripe) == v1;
            let ringed = || rt.versions().lookup(addr, self.rv, stable);
            let value = rt.heap().load(addr);
            if v1 >> 1 <= self.rv {
                // Current version first: nothing newer than rv has been
                // committed to the word, so the heap word is the
                // snapshot's value.
                if stable() {
                    debug_assert!(
                        ringed().flatten().is_none_or(|(_, ringed)| ringed == value),
                        "current-version read of {addr:#x} at rv={} disagrees with its ring",
                        self.rv
                    );
                    return value;
                }
                continue;
            }
            // The word has moved past rv: its ring, or — for one its
            // allocating commit stored without history (`write_back`) —
            // the heap word just loaded, what any region reaching it reads.
            // The ring's head is written under the word's lock, so like
            // the word it is whole if the lock word has not changed.
            // Entries all newer than rv would mean pruning dropped a
            // version this region had pinned: flagged in debug builds,
            // served the oldest one left in release.
            let value = match ringed() {
                None => continue,
                Some(None) => value,
                Some(Some((version, ringed))) => {
                    debug_assert!(
                        version <= self.rv,
                        "snapshot rv={} has no version <= rv for addr {addr:#x}: pruning \
                         reclaimed a pinned version (oldest left is {version})",
                        self.rv
                    );
                    ringed
                }
            };
            self.exec.stats.ring_reads += 1;
            return value;
        }
    }
}

impl TmContext for NativeRoTxn<'_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        Ok(self.snapshot_read_at(obj.word(index).0))
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        let _ = (obj, index, value);
        panic!("transactional write inside an atomic_ro region on a snapshot path")
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        self.exec.rt.alloc_obj(data_words)
    }

    fn ctx_free(&mut self, _: ObjRef, _: u32) {
        // A snapshot region writes nothing, so it unlinks nothing: there
        // is nothing to take back.
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        // The snapshot is consistent by construction; nothing to
        // revalidate and no way to be doomed.
        Ok(())
    }

    fn ctx_work(&mut self, cycles: u64) {
        app_work(cycles);
    }
}

impl std::fmt::Debug for NativeRoTxn<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeRoTxn").field("rv", &self.rv).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::SeqCst;

    use super::*;
    use crate::tl2::NativeConfig;

    #[test]
    fn read_write_commit_roundtrip() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(2);
        ex.atomic(|ctx| {
            ctx.ctx_write(o, 0, 41)?;
            ctx.ctx_write(o, 1, 1)
        });
        let v = ex.atomic(|ctx| {
            let a = ctx.ctx_read(o, 0)?;
            let b = ctx.ctx_read(o, 1)?;
            Ok(a + b)
        });
        assert_eq!(v, 42);
        assert_eq!(ex.stats().commits, 2);
    }

    #[test]
    fn buffered_writes_are_invisible_until_commit_and_read_back() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        ex.atomic(|ctx| {
            ctx.ctx_write(o, 0, 9)?;
            assert_eq!(rt.peek(o.word(0)), 0, "redo log defers the store");
            assert_eq!(ctx.ctx_read(o, 0)?, 9, "reads see own writes");
            Ok(())
        });
        assert_eq!(rt.peek(o.word(0)), 9, "commit wrote back");
    }

    #[test]
    fn read_time_conflicts_are_counted() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut setup = NativeExec::new(&rt);
        let o = setup.alloc_obj(1);
        setup.atomic(|ctx| ctx.ctx_write(o, 0, 1));
        let stripe = rt.stripe_of(o.word(0).0);

        let mut ex = NativeExec::new(&rt);
        let pre = rt.debug_lock_stripe(stripe).expect("unlocked");
        let mut first_try = true;
        let v = ex.atomic(|ctx| {
            if first_try {
                first_try = false;
                let err = ctx.ctx_read(o, 0).unwrap_err();
                // Surface the read-time conflict through the retry loop,
                // then unblock the stripe for the second attempt.
                rt.debug_unlock_stripe(stripe, pre);
                return Err(err);
            }
            ctx.ctx_read(o, 0)
        });
        assert_eq!(v, 1);
        assert_eq!(
            ex.stats().aborts_conflict,
            1,
            "read-time abort must be counted: {:?}",
            ex.stats()
        );
    }

    fn multi_rt(k: usize) -> NativeRuntime {
        NativeRuntime::new(NativeConfig {
            versioning: hastm::Versioning::Multi { k },
            ..NativeConfig::default()
        })
    }

    #[test]
    fn atomic_ro_reads_committed_state_and_counts_as_ro_commit() {
        let rt = multi_rt(3);
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(2);
        ex.atomic(|ctx| {
            ctx.ctx_write(o, 0, 10)?;
            ctx.ctx_write(o, 1, 32)
        });
        let v = ex.atomic_ro(|ctx| Ok(ctx.ctx_read(o, 0)? + ctx.ctx_read(o, 1)?));
        assert_eq!(v, 42);
        assert_eq!(ex.stats().ro_commits, 1);
        assert_eq!(ex.stats().ro_aborts, 0);
        assert_eq!(ex.stats().snapshot_reads, 2);
    }

    #[test]
    fn atomic_ro_falls_back_to_plain_transactions_under_single() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        ex.atomic(|ctx| ctx.ctx_write(o, 0, 7));
        let v = ex.atomic_ro(|ctx| ctx.ctx_read(o, 0));
        assert_eq!(v, 7);
        assert_eq!(ex.stats().ro_commits, 0, "Single has no snapshot path");
        assert_eq!(ex.stats().snapshot_reads, 0);
    }

    #[test]
    fn an_executor_without_a_snapshot_slot_runs_validated_until_one_is_given_back() {
        let rt = multi_rt(2);
        let mut setup = NativeExec::new(&rt);
        let o = setup.alloc_obj(1);
        setup.atomic(|ctx| ctx.ctx_write(o, 0, 7));
        let slots = hastm::mvcc::SNAPSHOT_SLOTS;
        let mut owners: Vec<_> = (0..slots).map(|_| NativeExec::new(&rt)).collect();
        for ex in &mut owners {
            assert_eq!(ex.atomic_ro(|ctx| ctx.ctx_read(o, 0)), 7);
            assert_eq!(ex.stats().ro_commits, 1, "a slot each");
        }
        let mut extra = NativeExec::new(&rt);
        assert_eq!(extra.atomic_ro(|ctx| ctx.ctx_read(o, 0)), 7);
        let st = extra.stats();
        assert_eq!((st.commits, st.ro_commits), (1, 0), "every slot is owned");
        assert_eq!((st.slow_reads, st.snapshot_reads), (1, 0));
        // Pruning still sees all 64 owners: pin the last one's snapshot.
        let pinned = owners.last_mut().unwrap();
        let (live, slot) = pinned.ro_slot().unwrap();
        let rv = live.pin(slot, || rt.clock());
        for i in 8..12 {
            setup.atomic(|ctx| ctx.ctx_write(o, 0, i));
        }
        let mut txn = NativeRoTxn { exec: pinned, rv };
        assert_eq!(txn.snapshot_read_at(o.word(0).0), 7);
        owners.pop();
        assert_eq!(extra.atomic_ro(|ctx| ctx.ctx_read(o, 0)), 11);
        let st = extra.stats();
        assert_eq!((st.commits, st.ro_commits), (2, 1), "the dropped slot");
        assert_eq!(st.snapshot_reads, 1);
    }

    #[test]
    fn snapshot_read_ignores_versions_published_after_rv() {
        let rt = multi_rt(4);
        let mut a = NativeExec::new(&rt);
        let mut b = NativeExec::new(&rt);
        let o = a.alloc_obj(1);
        a.atomic(|ctx| ctx.ctx_write(o, 0, 1));
        // Pin a snapshot by hand (slot + rv), then let B commit past it.
        let (live, slot) = a.ro_slot().unwrap();
        let rv = live.pin(slot, || rt.clock());
        b.atomic(|ctx| ctx.ctx_write(o, 0, 2));
        b.atomic(|ctx| ctx.ctx_write(o, 0, 3));
        let mut txn = NativeRoTxn { exec: &mut a, rv };
        assert_eq!(txn.snapshot_read_at(o.word(0).0), 1, "snapshot at rv");
        live.unpin(slot);
        assert_eq!(rt.peek(o.word(0)), 3, "memory moved on past the snapshot");
    }

    #[test]
    fn ring_miss_falls_back_to_the_frozen_heap_word() {
        let rt = multi_rt(2);
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        // Never transactionally written: no ring exists.
        assert_eq!(rt.ring_versions(o.word(0)), Vec::<u64>::new());
        let v = ex.atomic_ro(|ctx| ctx.ctx_read(o, 0));
        assert_eq!(v, 0, "frozen pre-transactional value");
    }

    #[test]
    fn rings_seed_pre_image_and_prune_to_depth_without_live_readers() {
        let rt = multi_rt(2);
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        for i in 1..=6u64 {
            ex.atomic(|ctx| ctx.ctx_write(o, 0, i * 10));
        }
        let versions = rt.ring_versions(o.word(0));
        assert_eq!(versions.len(), 2, "pruned to k with no live snapshots");
        assert!(ex.stats().versions_published >= 6, "{:?}", ex.stats());
        assert!(ex.stats().versions_reclaimed >= 4, "{:?}", ex.stats());
    }

    #[test]
    fn live_snapshot_pins_its_versions_past_depth() {
        let rt = multi_rt(1);
        let mut a = NativeExec::new(&rt);
        let mut b = NativeExec::new(&rt);
        let o = a.alloc_obj(1);
        a.atomic(|ctx| ctx.ctx_write(o, 0, 1));
        let (live, slot) = a.ro_slot().unwrap();
        let rv = live.pin(slot, || rt.clock());
        for i in 2..=5u64 {
            b.atomic(|ctx| ctx.ctx_write(o, 0, i));
        }
        assert!(
            rt.ring_versions(o.word(0)).len() > 1,
            "pinned snapshot holds history past k=1: {:?}",
            rt.ring_versions(o.word(0))
        );
        let mut txn = NativeRoTxn { exec: &mut a, rv };
        assert_eq!(txn.snapshot_read_at(o.word(0).0), 1);
        live.unpin(slot);
        // Next commit prunes with no live readers.
        b.atomic(|ctx| ctx.ctx_write(o, 0, 6));
        assert_eq!(rt.ring_versions(o.word(0)).len(), 1);
    }

    #[test]
    fn concurrent_ro_scans_see_consistent_snapshots_and_never_abort() {
        use std::sync::atomic::AtomicBool;
        let rt = multi_rt(3);
        let mut setup = NativeExec::new(&rt);
        // Zero-sum ledger: writers move value between cells, every
        // snapshot must see the invariant total.
        let cells: Vec<ObjRef> = (0..8).map(|_| setup.alloc_obj(1)).collect();
        setup.atomic(|ctx| {
            for c in &cells {
                ctx.ctx_write(*c, 0, 100)?;
            }
            Ok(())
        });
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let cells = &cells;
                let stop = &stop;
                let rt = &rt;
                s.spawn(move || {
                    let mut ex = NativeExec::new(rt);
                    let mut i = t;
                    while !stop.load(SeqCst) {
                        let (from, to) = (cells[i % 8], cells[(i + 3) % 8]);
                        ex.atomic(|ctx| {
                            let a = ctx.ctx_read(from, 0)?;
                            let b = ctx.ctx_read(to, 0)?;
                            ctx.ctx_write(from, 0, a.wrapping_sub(1))?;
                            ctx.ctx_write(to, 0, b + 1)
                        });
                        i += 1;
                    }
                });
            }
            let mut ro = NativeExec::new(&rt);
            for _ in 0..300 {
                let total = ro.atomic_ro(|ctx| {
                    let mut sum = 0u64;
                    for c in cells.iter() {
                        sum = sum.wrapping_add(ctx.ctx_read(*c, 0)?);
                    }
                    Ok(sum)
                });
                assert_eq!(total, 800, "snapshot must see the conserved sum");
            }
            assert_eq!(ro.stats().ro_commits, 300);
            assert_eq!(ro.stats().ro_aborts, 0);
            stop.store(true, SeqCst);
        });
    }

    /// The words of an object its committing attempt allocated get no
    /// history at that commit; the first overwrite seeds version 0 with
    /// what the allocating commit stored, and a snapshot pinned between
    /// the two commits reads that.
    #[test]
    fn a_commit_publishes_nothing_for_the_objects_it_allocated() {
        let rt = multi_rt(3);
        let mut writer = NativeExec::new(&rt);
        let mut reader = NativeExec::new(&rt);
        let head = writer.alloc_obj(1);
        let node = writer.atomic(|ctx| {
            let node = ctx.ctx_alloc(2);
            ctx.ctx_write(node, 0, 11)?;
            ctx.ctx_write(node, 1, 12)?;
            ctx.ctx_write(head, 0, node.0 .0)?;
            Ok(node)
        });
        let wv1 = rt.clock();
        assert_eq!(rt.ring_versions(head.word(0)), vec![0, wv1]);
        for i in 0..2 {
            assert_eq!(rt.ring_versions(node.word(i)), Vec::<u64>::new());
        }
        let (live, slot) = reader.ro_slot().unwrap();
        let rv = live.pin(slot, || rt.clock());
        writer.atomic(|ctx| ctx.ctx_write(node, 0, 21));
        let wv2 = rt.clock();
        assert_eq!(rt.ring_versions(node.word(0)), vec![0, wv2]);
        let mut txn = NativeRoTxn {
            exec: &mut reader,
            rv,
        };
        assert_eq!(txn.snapshot_read_at(node.word(0).0), 11);
        assert_eq!(txn.snapshot_read_at(node.word(1).0), 12);
        live.unpin(slot);
        let st = writer.stats();
        assert_eq!((st.versions_published, st.blocks_claimed), (2, 2), "{st:?}");
    }

    /// A stack of two-word nodes: `head` holds the top node's address.
    fn push_node(ctx: &mut dyn TmContext, head: ObjRef, value: u64) -> TxResult<()> {
        let node = ctx.ctx_alloc(2);
        let top = ctx.ctx_read(head, 0)?;
        ctx.ctx_write(node, 0, value)?;
        ctx.ctx_write(node, 1, top)?;
        ctx.ctx_write(head, 0, node.word(0).0)
    }

    /// Pops the stack non-transactionally; returns the values top-down.
    fn drain_stack(rt: &NativeRuntime, head: ObjRef) -> Vec<u64> {
        let mut values = Vec::new();
        let mut at = rt.peek(head.word(0));
        while at != 0 {
            values.push(rt.peek(hastm_sim::Addr(at)));
            at = rt.peek(hastm_sim::Addr(at + 8));
        }
        values
    }

    const ROUNDS: u64 = 10_000;
    /// Header plus two data words.
    const NODE_WORDS: usize = 3;

    fn assert_one_node_per_commit(rt: &NativeRuntime, head: ObjRef, used_before: usize) {
        assert_eq!(
            rt.heap().used_words() - used_before,
            ROUNDS as usize * NODE_WORDS,
            "the heap must advance by one node per commit, not per attempt"
        );
        let values = drain_stack(rt, head);
        assert!(
            values.iter().copied().eq((0..ROUNDS).rev()),
            "every committed node is its own object"
        );
    }

    #[test]
    fn aborted_attempts_hand_their_allocations_to_the_retry() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut ex = NativeExec::new(&rt);
        let head = ex.alloc_obj(1);
        let used = rt.heap().used_words();
        for round in 0..ROUNDS {
            let mut attempts = 0;
            ex.atomic(|ctx| {
                attempts += 1;
                push_node(ctx, head, round)?;
                if attempts == 1 {
                    return Err(Abort::Conflict);
                }
                Ok(())
            });
        }
        assert_one_node_per_commit(&rt, head, used);
        assert_eq!(ex.stats().aborts_conflict, ROUNDS);
    }

    #[test]
    fn rolled_back_and_dropped_manual_attempts_hand_their_allocations_on() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut ex = NativeExec::new(&rt);
        let head = ex.alloc_obj(1);
        let used = rt.heap().used_words();
        for round in 0..ROUNDS {
            {
                let mut txn = ex.txn();
                push_node(&mut txn, head, round).unwrap();
                if round % 2 == 0 {
                    txn.rollback();
                }
                // Odd rounds just let the attempt go out of scope.
            }
            let mut txn = ex.txn();
            push_node(&mut txn, head, round).unwrap();
            txn.commit().unwrap();
        }
        assert_one_node_per_commit(&rt, head, used);
    }

    #[test]
    fn concurrent_counter_loses_no_increments() {
        let rt = NativeRuntime::new(NativeConfig::default());
        let mut setup = NativeExec::new(&rt);
        let cell = setup.alloc_obj(1);
        setup.atomic(|ctx| ctx.ctx_write(cell, 0, 0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut ex = NativeExec::new(&rt);
                    for _ in 0..500 {
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(cell, 0)?;
                            ctx.ctx_write(cell, 0, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(rt.peek(cell.word(0)), 4 * 500);
    }
}
