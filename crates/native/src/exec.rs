//! Per-thread execution: [`NativeExec`] (the host-thread analog of the
//! simulator executors, with the retry loop, the attempt's logs and the
//! mark-bit filter state) and [`NativeTxn`] (one transaction attempt,
//! implementing [`TmContext`] so the unmodified data structures run on
//! it).
//!
//! ## The filter: opt-in, and not sound
//!
//! With [`crate::NativeConfig::mark_filter`] on, a read of a stripe in
//! the thread's filter returns `load(value); load(epoch)` with no
//! sandwich and no read-set entry, accepted iff the epoch equals the
//! filter's. Every writing commit bumps the epoch *after* validation and
//! *before* its first store, so an unchanged epoch means no store since
//! the filter window opened; a transaction anchors to the window of its
//! *first* fast read (`fast_epoch`) and must commit in it, which a writer
//! checks atomically with its own bump (the `fetch_add`'s return value).
//! What that misses is the other side of the bump: a committer that has
//! locked and validated but not yet bumped is invisible to a fast read of
//! a stripe it holds, and two transactions whose reads and writes cross
//! can both commit — write skew. DESIGN §9c has the whole account,
//! `tests/tl2_props.rs` the specimen, ROADMAP item 2 the deletion. With
//! the filter off, which is the default, none of this runs and nothing
//! touches the epoch.
//!
//! The `seeded-bug` cargo feature removes the epoch checks altogether;
//! `tests/filter_stress.rs` proves the resulting stale-filter reads are
//! caught by the stress suite.
//!
//! ## Where an attempt's state lives
//!
//! The read set, the redo log, the commit's lock list and the attempt's
//! allocations belong to the executor and are cleared — not rebuilt — by
//! each attempt, so a warm executor begins, reads, writes, aborts and
//! commits without touching the allocator (`tests/alloc_regression.rs`).

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Release, SeqCst},
};

use hastm::phase::{Access, Entry, Wait};
use hastm::{Abort, Mode, ObjRef, PhaseEvent, TmContext, TmExec, TxResult};

use crate::tl2::{NativeRuntime, NativeStats, WritebackHook, RO_IDLE};

/// `false` only under the `seeded-bug` mutation: the filter fast path
/// and commit skip their epoch checks, silently trusting stale filters.
const EPOCH_CHECKS: bool = cfg!(not(feature = "seeded-bug"));

/// Source of serial-token owner ids: one per executor, low bit set so an
/// id can never collide with the token's "free" value (0).
static NEXT_TOKEN_ID: AtomicU64 = AtomicU64::new(0);

/// Open-addressed `u64 → u32` table for keys that are already spread
/// (stripe indices, word addresses): one multiply to hash, linear
/// probing, no removal, and a generation stamp per slot so `clear` costs
/// nothing. The executor's filter and the redo log's index are both one
/// of these.
struct WordTable {
    /// Power-of-two length (or empty before the first insert); a slot is
    /// live iff its `gen` equals the table's, which is never 0 — what a
    /// never-written slot carries.
    slots: Vec<Slot>,
    gen: u32,
    len: usize,
}

#[derive(Copy, Clone, Default)]
struct Slot {
    key: u64,
    value: u32,
    gen: u32,
}

impl WordTable {
    const MIN_SLOTS: usize = 64;

    fn new() -> Self {
        WordTable {
            slots: Vec::new(),
            gen: 1,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Fibonacci hashing: the top bits of `key × 2⁶⁴/φ`.
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    fn get(&self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.gen != self.gen {
                return None;
            }
            if slot.key == key {
                return Some(slot.value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `key`, or overwrites its value.
    fn insert(&mut self, key: u64, value: u32) {
        // At most half full, so a probe always meets a dead slot.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = &mut self.slots[i];
            if slot.gen != self.gen {
                *slot = Slot {
                    key,
                    value,
                    gen: self.gen,
                };
                self.len += 1;
                return;
            }
            if slot.key == key {
                slot.value = value;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); doubled]);
        self.len = 0;
        for slot in old {
            if slot.gen == self.gen {
                self.insert(slot.key, slot.value);
            }
        }
    }

    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped: slots of 2³² clears ago would look live.
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
    }
}

/// One attempt's redo log: `(byte address, pending value)` in insertion
/// order behind a one-word address summary, so a read of a word the
/// attempt has not written — nearly every read — costs one bit test.
/// A summary hit scans the log; past [`RedoLog::SCAN_MAX`] entries the
/// log keeps an address index, so a 10³-word write set is not quadratic.
struct RedoLog {
    entries: Vec<(u64, u64)>,
    /// Bit `(addr >> 3) & 63` is set for every logged address.
    summary: u64,
    /// Address → position in `entries`; maintained only while the log is
    /// longer than [`RedoLog::SCAN_MAX`].
    index: WordTable,
}

impl RedoLog {
    /// Longest log searched by scanning: eight pairs are one cache-line
    /// pair. Measured on the reference host (EXPERIMENTS.md, "What the
    /// native read and commit paths measured here"): an index from the
    /// first write costs 3 ns per write on the ≤ 8-word write sets every
    /// hash-table update has; 8 and 16 read the same within noise; no
    /// index at all is 74–217 ns per write from 256 words up.
    const SCAN_MAX: usize = 8;

    fn new() -> Self {
        RedoLog {
            entries: Vec::new(),
            summary: 0,
            index: WordTable::new(),
        }
    }

    fn summary_bit(addr: u64) -> u64 {
        1 << ((addr >> 3) & 63)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    fn position(&self, addr: u64) -> Option<usize> {
        if self.summary & Self::summary_bit(addr) == 0 {
            return None;
        }
        if self.entries.len() > Self::SCAN_MAX {
            self.index.get(addr).map(|i| i as usize)
        } else {
            self.entries.iter().position(|&(a, _)| a == addr)
        }
    }

    /// The attempt's pending value for `addr`, if it wrote one.
    fn get(&self, addr: u64) -> Option<u64> {
        self.position(addr).map(|i| self.entries[i].1)
    }

    fn insert(&mut self, addr: u64, value: u64) {
        if let Some(i) = self.position(addr) {
            self.entries[i].1 = value;
            return;
        }
        self.summary |= Self::summary_bit(addr);
        self.entries.push((addr, value));
        let n = self.entries.len();
        if n == Self::SCAN_MAX + 1 {
            for (i, &(a, _)) in self.entries.iter().enumerate() {
                self.index.insert(a, i as u32);
            }
        } else if n > Self::SCAN_MAX {
            self.index.insert(addr, (n - 1) as u32);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.summary = 0;
        self.index.clear();
    }

    /// Sorts the log by address for write-back. This ends the attempt:
    /// positions move, so the index is dropped and lookups are over.
    fn sort(&mut self) {
        self.index.clear();
        self.entries.sort_unstable_by_key(|&(addr, _)| addr);
    }
}

/// The native access to the phase word: its steps are `SeqCst` atomics
/// already, so they are called directly. A wait spins; from the 65th
/// pause of one entry on it yields, because on an oversubscribed host the
/// thread it waits for — the token holder, or an optimistic transaction
/// the drain waits on — needs the core.
#[derive(Default)]
struct HostWord {
    pauses: u32,
}

impl Access for HostWord {
    fn sync<T>(&mut self, step: impl FnOnce() -> T) -> T {
        step()
    }

    fn pause(&mut self, _: Wait) {
        self.pauses = self.pauses.saturating_add(1);
        if self.pauses > 64 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One host thread's executor over a shared [`NativeRuntime`].
pub struct NativeExec<'r> {
    rt: &'r NativeRuntime,
    /// Stripes read while the epoch was exactly `filter_epoch`.
    filter: WordTable,
    filter_epoch: u64,
    stats: NativeStats,
    backoff: u64,
    /// This executor's live-snapshot registry slot (idle when no
    /// `atomic_ro` region is running), claimed from the runtime by the
    /// first read-only region and given back on drop.
    ro_slot: Option<usize>,
    /// This executor's serial-token owner id (always odd, never 0).
    token_id: u64,
    /// Whether the current attempt may serve reads from the filter fast
    /// path. Always `true` unphased; under a phase controller the
    /// `Cautious` phase (and post-budget `Hw` re-executions) clear it, so
    /// every read takes the fully validated slow path.
    fast_path_ok: bool,
    /// The current attempt's slow-path reads, as stripes (validated
    /// again at commit).
    reads: Vec<usize>,
    /// The current attempt's redo log.
    writes: RedoLog,
    /// The commit's lock list: the written stripes, ascending, each with
    /// the version it held before this commit locked it.
    locks: Vec<(usize, u64)>,
    /// `(data_words, object)` of everything the current attempt
    /// allocated. A commit publishes them; otherwise the next attempt
    /// moves them to `spare_allocs`.
    attempt_allocs: Vec<(u32, ObjRef)>,
    /// Objects of attempts that did not commit, handed out again before
    /// the shared heap is asked. Sound because such an object was never
    /// stored to (writes are buffered) and its address never left this
    /// thread.
    spare_allocs: Vec<(u32, ObjRef)>,
}

impl<'r> NativeExec<'r> {
    /// Builds an executor for the current thread.
    pub fn new(rt: &'r NativeRuntime) -> Self {
        NativeExec {
            rt,
            filter: WordTable::new(),
            filter_epoch: 0,
            stats: NativeStats::default(),
            backoff: 0x9e37_79b9_7f4a_7c15,
            ro_slot: None,
            token_id: (NEXT_TOKEN_ID.fetch_add(1, SeqCst) << 1) | 1,
            fast_path_ok: true,
            reads: Vec::new(),
            writes: RedoLog::new(),
            locks: Vec::new(),
            attempt_allocs: Vec::new(),
            spare_allocs: Vec::new(),
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
        NativeTxn {
            exec: self,
            rv,
            fast_epoch: None,
        }
    }

    /// Empties the logs for a new attempt. Whatever the previous attempt
    /// allocated is still listed only if it did not commit (it aborted,
    /// waited on `Retry`, or was dropped), so those objects become
    /// spares.
    fn reset_attempt(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.spare_allocs.append(&mut self.attempt_allocs);
    }

    /// Allocates inside an attempt: a spare of the same size if there is
    /// one, the shared heap otherwise.
    fn attempt_alloc(&mut self, data_words: u32) -> ObjRef {
        let spare = self
            .spare_allocs
            .iter()
            .rposition(|&(words, _)| words == data_words);
        let obj = match spare {
            Some(i) => self.spare_allocs.swap_remove(i).1,
            None => self.rt.alloc_obj(data_words),
        };
        self.attempt_allocs.push((data_words, obj));
        obj
    }

    /// Fills `locks` with the redo log's stripes, ascending and distinct
    /// (versions zeroed), and sorts the log itself for write-back.
    fn collect_write_stripes(&mut self) {
        let rt = self.rt;
        self.writes.sort();
        self.locks.clear();
        self.locks.extend(
            self.writes
                .entries()
                .iter()
                .map(|&(addr, _)| (rt.stripe_of(addr), 0)),
        );
        self.locks.sort_unstable();
        self.locks.dedup();
    }

    /// Validation is over and nothing is published yet: says so to the
    /// test hook, `(0, n)`, and — only with the filter on, the one
    /// configuration that reads it — bumps the epoch. Returns the hook
    /// for [`Self::write_back`] and the pre-bump epoch.
    fn announce(&self) -> (Option<WritebackHook>, Option<u64>) {
        let hook = self.rt.writeback_hook();
        if let Some(h) = &hook {
            h(0, self.writes.len());
        }
        let filter = self.rt.config().mark_filter;
        (hook, filter.then(|| self.rt.bump_epoch()))
    }

    /// Writes the (sorted) redo log back at `wv`. Under Multi, each
    /// word's `(wv, value)` is published into its version ring *before*
    /// the store (the ring's seed is the pre-image, read from the heap)
    /// and pruned of what no reader at or above the floor can need, while
    /// the caller holds the stripes — by lock, or by being alone in the
    /// serial phase — which is what lets a snapshot reader take the ring
    /// and the word as one whole.
    fn write_back(&mut self, wv: u64, hook: Option<WritebackHook>) {
        let rt = self.rt;
        let total = self.writes.len();
        let floor = rt.is_multi().then(|| rt.ro_floor());
        for (done, &(addr, value)) in self.writes.entries().iter().enumerate() {
            if let Some(floor) = floor {
                let pre_image = rt.heap().load(addr);
                self.stats.versions_published += 1;
                self.stats.versions_reclaimed +=
                    rt.versions().publish(addr, wv, value, pre_image, floor);
            }
            rt.heap().store(addr, value);
            if let Some(h) = &hook {
                h(done + 1, total);
            }
        }
    }

    /// This executor's live-snapshot registry slot, claimed on first use;
    /// `None` while the runtime has none to give.
    fn ro_slot(&mut self) -> Option<&'r AtomicU64> {
        let rt = self.rt;
        self.ro_slot = self.ro_slot.or_else(|| rt.claim_ro_slot());
        self.ro_slot.map(|slot| rt.ro_slot(slot))
    }

    /// Enters the global phase gate for one attempt; `None` when the
    /// runtime has no phase controller.
    fn phase_enter(&mut self) -> Option<Entry> {
        let ps = self.rt.phase_state()?;
        Some(ps.enter(self.token_id, &mut HostWord::default()))
    }

    /// Leaves the phase gate, feeding the attempt's outcome to the
    /// transition heuristics (when it has one) and counting any phase
    /// transition this thread's event published.
    fn phase_leave(&mut self, entry: Option<Entry>, ev: Option<PhaseEvent>) {
        let Some(entry) = entry else {
            return;
        };
        let ps = self.rt.phase_state().expect("a phase was entered");
        let moved = ps.leave(entry, self.token_id, ev, &mut HostWord::default());
        if moved.is_some() {
            self.stats.phase_transitions += 1;
        }
    }

    /// Runs one irrevocable attempt under the held serial token: plain
    /// heap reads (checked against the redo log for read-after-write),
    /// buffered writes, and a commit with no locks, no validation, and no
    /// abort path. The commit still claims a write version, bumps the
    /// epoch when there are filters to kill (every one anchored before
    /// it is stale now), publishes version-ring entries under `Multi`,
    /// and advances the written stripes to `wv`, so it is
    /// indistinguishable from an ordinary commit to every later reader.
    /// The token is released on exit.
    fn run_serial<R>(
        &mut self,
        f: &mut impl FnMut(&mut dyn TmContext) -> TxResult<R>,
    ) -> TxResult<R> {
        let rt = self.rt;
        self.reset_attempt();
        let out = f(&mut NativeSerialTxn { exec: self });
        if out.is_ok() {
            if !self.writes.is_empty() {
                self.collect_write_stripes();
                let wv = rt.next_write_version();
                let (hook, prev_epoch) = self.announce();
                self.write_back(wv, hook);
                for &(stripe, _) in &self.locks {
                    rt.unlock_stripe(stripe, wv);
                }
                if let Some(prev_epoch) = prev_epoch {
                    // Our own filter died with the epoch like everyone
                    // else's.
                    self.filter.clear();
                    self.filter_epoch = prev_epoch + 1;
                }
            }
            self.attempt_allocs.clear();
            self.stats.commits += 1;
            self.stats.serial_commits += 1;
        }
        // Otherwise `retry` (a condition wait): nothing was published, so
        // giving the token back is a complete rollback (the next attempt
        // empties the logs).
        let event = out.is_ok().then_some(PhaseEvent::SerialCommit);
        self.phase_leave(Some(Entry::Serial), event);
        out
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
        if let Some(slot) = self.ro_slot {
            self.rt.release_ro_slot(slot);
        }
    }
}

impl std::fmt::Debug for NativeExec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeExec")
            .field("filter_len", &self.filter.len())
            .field("filter_epoch", &self.filter_epoch)
            .field("stats", &self.stats)
            .finish()
    }
}

impl TmExec for NativeExec<'_> {
    fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        let mut attempt: u32 = 0;
        loop {
            let entry = self.phase_enter();
            if let Some(Entry::Serial) = entry {
                match self.run_serial(&mut f) {
                    Ok(r) => return r,
                    Err(Abort::Explicit) => {
                        panic!("explicit abort inside atomic (unsupported on the native backend)")
                    }
                    Err(_) => {
                        // Only `retry` reaches here: serial attempts
                        // cannot conflict-abort.
                        std::thread::yield_now();
                        attempt = attempt.saturating_add(1);
                        continue;
                    }
                }
            }
            self.fast_path_ok = match entry {
                Some(Entry::Optimistic(p)) => {
                    let budget = self
                        .rt
                        .config()
                        .phased
                        .map_or(1, |params| params.hw_retry_budget);
                    matches!(p.mode_for(attempt, budget), Mode::Aggressive)
                }
                _ => true,
            };
            let stale_before = self.stats.aborts_filter_stale;
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
                    self.phase_leave(entry, Some(PhaseEvent::CleanCommit));
                    return r;
                }
                Err(Abort::Explicit) => {
                    panic!("explicit abort inside atomic (unsupported on the native backend)")
                }
                Err(Abort::Retry) => {
                    self.phase_leave(entry, None);
                    // `retry` condition wait: no condition variables here,
                    // so poll with a yield like the simulator's timed wait.
                    std::thread::yield_now();
                }
                Err(_) => {
                    // A stale-filter abort is capacity pressure (the
                    // spurious-HTM analog); a validation failure is a
                    // true data conflict.
                    let ev = if self.stats.aborts_filter_stale > stale_before {
                        PhaseEvent::CapacityAbort
                    } else {
                        PhaseEvent::ConflictAbort
                    };
                    self.phase_leave(entry, Some(ev));
                }
            }
            attempt = attempt.saturating_add(1);
            self.backoff(attempt);
        }
    }

    /// Under `Multi` a snapshot region, which cannot abort — for the
    /// first [`crate::RO_SLOTS`] executors of the runtime to ask (a slot
    /// is an executor's until it is dropped). Any further executor, like
    /// every executor under `Single`, gets [`TmExec::atomic`].
    fn atomic_ro<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        // No version rings under Single, no live-snapshot slot left under
        // Multi: the region runs as an ordinary (validated, abortable)
        // transaction.
        let Some(slot) = self.ro_slot() else {
            return self.atomic(f);
        };
        let rt = self.rt;
        loop {
            // Snapshot regions enter the phase gate too: they count into
            // the active window (so the serial drain really means
            // "alone"), and in the serial phase they run irrevocably
            // under the token — mirroring the simulator backend, where a
            // serial read-only begin stays a full transaction.
            let entry = self.phase_enter();
            if let Some(Entry::Serial) = entry {
                match self.run_serial(&mut f) {
                    Ok(r) => return r,
                    Err(Abort::Explicit) => panic!(
                        "explicit abort inside atomic_ro (unsupported on the native backend)"
                    ),
                    Err(_) => {
                        std::thread::yield_now();
                        continue;
                    }
                }
            }
            // Register-then-capture: store a clock lower bound into the
            // live-snapshot slot *first*, then capture `rv` from a second
            // clock load. A pruning scan that saw the store uses a floor
            // <= slot <= rv; one that missed it is covered by the scan's
            // own clock clamp (see `NativeRuntime::ro_floor`). Either
            // way, every version this region can need outlives it. Both
            // stay `SeqCst`: the argument orders this store before this
            // thread's next load, which only `SeqCst` does.
            slot.store(rt.clock(), SeqCst);
            let rv = rt.clock();
            let out = f(&mut NativeRoTxn { exec: self, rv });
            // Release: the region's loads stay before the slot goes idle;
            // a scan that still sees the old `rv` only prunes less.
            slot.store(RO_IDLE, Release);
            match out {
                Ok(r) => {
                    self.stats.ro_commits += 1;
                    self.stats.commits += 1;
                    self.phase_leave(entry, Some(PhaseEvent::CleanCommit));
                    return r;
                }
                Err(Abort::Retry) => {
                    // User condition wait, not a conflict: the snapshot
                    // path itself cannot abort. Counted like the
                    // simulator backend counts it, and fed to no
                    // heuristic (a wait is not an outcome).
                    self.stats.ro_aborts += 1;
                    self.phase_leave(entry, None);
                    std::thread::yield_now();
                }
                Err(Abort::Explicit) => {
                    panic!("explicit abort inside atomic_ro (unsupported on the native backend)")
                }
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
    /// Epoch window the txn's fast-path reads are anchored to (set by the
    /// first fast read). Commit must observe this exact epoch: fast reads
    /// carry no read-set entry, so "no commit since the window opened" is
    /// their only commit-time revalidation. Anchoring to the *first* fast
    /// read's window — not the possibly-rebased `filter_epoch` — is what
    /// keeps a later slow-read rebase from laundering a stale fast read.
    fast_epoch: Option<u64>,
}

impl NativeTxn<'_, '_> {
    /// The clock snapshot this attempt reads against.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// Whether any read was served by the filter fast path.
    pub fn used_fast_path(&self) -> bool {
        self.fast_epoch.is_some()
    }

    fn read_word_at(&mut self, addr: u64) -> TxResult<u64> {
        if let Some(buffered) = self.exec.writes.get(addr) {
            return Ok(buffered);
        }
        let rt = self.exec.rt;
        let stripe = rt.stripe_of(addr);
        let filtered = rt.config().mark_filter
            && self.exec.fast_path_ok
            && self.exec.filter.get(stripe as u64).is_some();
        if filtered {
            let value = rt.heap().load(addr);
            if !EPOCH_CHECKS {
                self.fast_epoch.get_or_insert(self.exec.filter_epoch);
                self.exec.stats.fast_reads += 1;
                return Ok(value);
            }
            if rt.epoch() != self.exec.filter_epoch {
                // A commit moved the epoch: every filter entry is stale.
                self.exec.filter.clear();
            } else if self
                .fast_epoch
                .is_none_or(|fe| fe == self.exec.filter_epoch)
            {
                self.fast_epoch.get_or_insert(self.exec.filter_epoch);
                self.exec.stats.fast_reads += 1;
                return Ok(value);
            }
            // else: earlier fast reads are anchored to an older window;
            // mixing windows would leave them unvalidatable at commit, so
            // this read takes the slow path (the commit epoch check will
            // settle the older anchors).
        }
        // Slow path: the TL2 lock–load–lock sandwich. `e0` pins the epoch
        // window this read can be filed under; it must be taken before
        // the value load (filing the read under a *later* window would
        // let the fast path treat pre-window values as current).
        let e0 = if rt.config().mark_filter {
            rt.epoch()
        } else {
            0
        };
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
        if rt.config().mark_filter {
            if self.exec.filter_epoch != e0 {
                self.exec.filter.clear();
                self.exec.filter_epoch = e0;
            }
            // File the stripe only if the window is still open.
            if rt.epoch() == e0 && self.exec.filter.len() < rt.config().filter_capacity {
                self.exec.filter.insert(stripe as u64, 0);
            }
        }
        Ok(value)
    }

    /// Commits the attempt: lock (sorted), claim `wv`, validate reads and
    /// — with the filter on — the filter window, bumping the epoch; write
    /// back, release at `wv`. With the filter off the commit touches the
    /// clock and the stripes it writes, nothing else.
    ///
    /// # Errors
    ///
    /// Returns the abort cause; the heap and lock table are untouched by
    /// a failed commit.
    pub fn commit(self) -> TxResult<()> {
        let NativeTxn {
            exec,
            rv,
            fast_epoch,
        } = self;
        let rt = exec.rt;
        if exec.writes.is_empty() {
            if EPOCH_CHECKS && fast_epoch.is_some_and(|fe| rt.epoch() != fe) {
                exec.filter.clear();
                exec.stats.aborts_filter_stale += 1;
                return Err(Abort::Conflict);
            }
            exec.attempt_allocs.clear();
            return Ok(());
        }

        // Deterministic ascending lock order forbids lock-order cycles.
        exec.collect_write_stripes();
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

        // Revalidate every slow read: unchanged since rv and not locked
        // by anyone else. For a stripe we hold, the pre-lock version is
        // what matters; one somebody else holds is as good as newer.
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
        // Advisory early-out on an already-stale anchor: cheaper than the
        // authoritative check below (no spurious epoch bump to invalidate
        // other threads' filters), but a plain load — a racing committer
        // can still slip in after it, so it decides nothing on its own.
        if EPOCH_CHECKS && fast_epoch.is_some_and(|fe| rt.epoch() != fe) {
            release(&exec.locks);
            exec.filter.clear();
            exec.stats.aborts_filter_stale += 1;
            return Err(Abort::Conflict);
        }

        // Publish: with the filter on, epoch first (fast-path readers
        // must never observe a store from this commit under the old
        // epoch; with it off nobody reads the epoch), then write back
        // under the held locks, then release at wv. The fetch_add's
        // return value doubles as the *authoritative* fast-read
        // revalidation: `prev_epoch == fast_epoch` means no writing
        // commit anywhere landed between the anchor window opening and
        // this commit claiming publication — checked and bumped in one
        // atomic step, so no commit can slide into a gap between them.
        let (hook, prev_epoch) = exec.announce();
        if EPOCH_CHECKS && fast_epoch.is_some_and(|fe| prev_epoch != Some(fe)) {
            // Nothing has been stored yet, so aborting is still safe;
            // the wasted bump only costs other threads their filters.
            release(&exec.locks);
            exec.filter.clear();
            exec.stats.aborts_filter_stale += 1;
            return Err(Abort::Conflict);
        }
        exec.write_back(wv, hook);
        for &(stripe, _) in &exec.locks {
            rt.unlock_stripe(stripe, wv);
        }
        exec.attempt_allocs.clear();

        // Filter upkeep: if no other commit intervened since the filter
        // window opened, the window simply advances over our own commit —
        // the filter (plus our written stripes) stays valid. This is the
        // native analog of mark bits surviving the thread's own commits.
        if let Some(prev_epoch) = prev_epoch {
            if EPOCH_CHECKS && prev_epoch == exec.filter_epoch {
                exec.filter_epoch = prev_epoch + 1;
                for &(stripe, _) in &exec.locks {
                    if exec.filter.len() >= rt.config().filter_capacity {
                        break;
                    }
                    exec.filter.insert(stripe as u64, 0);
                }
                exec.stats.filter_retained += 1;
            } else if EPOCH_CHECKS {
                exec.filter.clear();
                exec.filter_epoch = prev_epoch + 1;
            }
        }
        Ok(())
    }

    /// Abandons the attempt: nothing was published, and the executor's
    /// next attempt empties the logs and reuses the allocations.
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

    fn ctx_guard(&mut self) -> TxResult<()> {
        // TL2 reads are opaque (each is validated against rv when served),
        // so a doomed transaction can never observe an inconsistent
        // snapshot; there is nothing to revalidate mid-flight.
        Ok(())
    }

    fn ctx_work(&mut self, cycles: u64) {
        // Keep relative app-work costs present (the cycle counts are
        // small per-op constants) without a simulated clock: one spin per
        // simulated cycle.
        for _ in 0..cycles {
            std::hint::spin_loop();
        }
    }
}

impl std::fmt::Debug for NativeTxn<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeTxn")
            .field("rv", &self.rv)
            .field("reads", &self.exec.reads.len())
            .field("writes", &self.exec.writes.len())
            .field("fast_epoch", &self.fast_epoch)
            .finish()
    }
}

/// One irrevocable (serial-phase) attempt: the token holder is provably
/// alone — the active window drained to zero before it started — so
/// reads are plain heap loads (checked against the executor's redo log
/// first for read-after-write), writes buffer into that log, and the
/// commit in [`NativeExec`]'s serial path publishes with no locks, no
/// validation, and no abort path.
struct NativeSerialTxn<'e, 'r> {
    exec: &'e mut NativeExec<'r>,
}

impl TmContext for NativeSerialTxn<'_, '_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        let addr = obj.word(index).0;
        Ok(self
            .exec
            .writes
            .get(addr)
            .unwrap_or_else(|| self.exec.rt.heap().load(addr)))
    }

    fn ctx_write(&mut self, obj: ObjRef, index: u32, value: u64) -> TxResult<()> {
        self.exec.writes.insert(obj.word(index).0, value);
        Ok(())
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        self.exec.attempt_alloc(data_words)
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        // Irrevocable: the snapshot is memory itself, never inconsistent.
        Ok(())
    }

    fn ctx_work(&mut self, cycles: u64) {
        for _ in 0..cycles {
            std::hint::spin_loop();
        }
    }
}

impl std::fmt::Debug for NativeSerialTxn<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeSerialTxn")
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
            // Versions are unique and rise per stripe, so the same
            // unlocked word on both sides of some loads means no commit —
            // to this word or any word aliased onto the stripe — stored
            // or published in between (a reader that sees a written-back
            // value or ring entry also sees its stripe locked or moved;
            // an aborted locker restores the version but never stored; a
            // serial-phase committer, which stores without locking, is
            // alone: this region counts into the window it drained).
            let stable = || rt.lock_word(stripe) == v1;
            let ringed = || rt.versions().lookup(addr, self.rv, stable);
            let value = rt.heap().load(addr);
            if v1 >> 1 <= self.rv {
                // Current version first: nothing newer than rv has been
                // committed to the stripe, so the heap word is the
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
            // The stripe has moved past rv: the word's ring, or — for a
            // word no commit has ever written, so that it has none — the
            // heap word just loaded, still its pre-transactional value.
            // The ring's head is written under the stripe lock, so like
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
        panic!("transactional write inside an atomic_ro (read-only) region")
    }

    fn ctx_alloc(&mut self, data_words: u32) -> ObjRef {
        self.exec.rt.alloc_obj(data_words)
    }

    fn ctx_guard(&mut self) -> TxResult<()> {
        // The snapshot is consistent by construction; nothing to
        // revalidate and no way to be doomed.
        Ok(())
    }

    fn ctx_work(&mut self, cycles: u64) {
        for _ in 0..cycles {
            std::hint::spin_loop();
        }
    }
}

impl std::fmt::Debug for NativeRoTxn<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeRoTxn").field("rv", &self.rv).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tl2::NativeConfig;

    fn small_rt(mark_filter: bool) -> NativeRuntime {
        NativeRuntime::new(NativeConfig {
            heap_words: 1 << 12,
            stripes: 1 << 8,
            mark_filter,
            ..NativeConfig::default()
        })
    }

    #[test]
    fn read_write_commit_roundtrip() {
        for filter in [false, true] {
            let rt = small_rt(filter);
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
            assert_eq!(v, 42, "filter={filter}");
            assert_eq!(ex.stats().commits, 2);
        }
    }

    #[test]
    fn buffered_writes_are_invisible_until_commit_and_read_back() {
        let rt = small_rt(true);
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
    fn filter_serves_repeat_reads_and_survives_own_commits() {
        let rt = small_rt(true);
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        ex.atomic(|ctx| ctx.ctx_write(o, 0, 1));
        for i in 2..10u64 {
            ex.atomic(|ctx| {
                let v = ctx.ctx_read(o, 0)?;
                ctx.ctx_write(o, 0, v + 1)
            });
            assert_eq!(rt.peek(o.word(0)), i);
        }
        assert!(
            ex.stats().fast_reads >= 7,
            "single-thread reuse must hit the fast path: {:?}",
            ex.stats()
        );
        assert!(ex.stats().filter_retained >= 7, "{:?}", ex.stats());
    }

    #[test]
    fn no_filter_config_never_fast_paths() {
        let rt = small_rt(false);
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        for _ in 0..8 {
            ex.atomic(|ctx| {
                let v = ctx.ctx_read(o, 0)?;
                ctx.ctx_write(o, 0, v + 1)
            });
        }
        assert_eq!(ex.stats().fast_reads, 0);
        assert_eq!(rt.peek(o.word(0)), 8);
    }

    #[test]
    fn stale_fast_anchor_aborts_writer_commit() {
        let rt = small_rt(true);
        let mut a = NativeExec::new(&rt);
        let mut b = NativeExec::new(&rt);
        let x = a.alloc_obj(1);
        let y = a.alloc_obj(1);
        a.atomic(|ctx| {
            ctx.ctx_write(x, 0, 5)?;
            ctx.ctx_write(y, 0, 0)
        });
        // Warm A's filter on x (read-only commit keeps the filter).
        a.atomic(|ctx| ctx.ctx_read(x, 0).map(|_| ()));

        let mut txn = a.txn();
        let rx = txn.ctx_read(x, 0).unwrap();
        assert_eq!(rx, 5);
        assert!(txn.used_fast_path(), "warmed stripe must fast-path");
        txn.ctx_write(y, 0, rx + 1).unwrap();

        // B commits a write to x — the anchor window is gone, so A's
        // fast-read value is stale and its commit must refuse.
        b.atomic(|ctx| ctx.ctx_write(x, 0, 7));
        assert_eq!(txn.commit(), Err(Abort::Conflict));
        assert_eq!(a.stats().aborts_filter_stale, 1, "{:?}", a.stats());
        assert_eq!(rt.peek(y.word(0)), 0, "refused commit must not publish");
    }

    #[test]
    fn read_time_conflicts_are_counted() {
        let rt = small_rt(false);
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
            heap_words: 1 << 12,
            stripes: 1 << 8,
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
        let rt = small_rt(true);
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
        let mut owners: Vec<_> = (0..crate::RO_SLOTS).map(|_| NativeExec::new(&rt)).collect();
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
        pinned.ro_slot().unwrap().store(rt.clock(), SeqCst);
        let rv = rt.clock();
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
        a.ro_slot().unwrap().store(rt.clock(), SeqCst);
        let rv = rt.clock();
        b.atomic(|ctx| ctx.ctx_write(o, 0, 2));
        b.atomic(|ctx| ctx.ctx_write(o, 0, 3));
        let mut txn = NativeRoTxn { exec: &mut a, rv };
        assert_eq!(txn.snapshot_read_at(o.word(0).0), 1, "snapshot at rv");
        a.ro_slot().unwrap().store(RO_IDLE, SeqCst);
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
        a.ro_slot().unwrap().store(rt.clock(), SeqCst);
        let rv = rt.clock();
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
        a.ro_slot().unwrap().store(RO_IDLE, SeqCst);
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

    fn phased_rt(params: hastm::PhasedParams, versioning: hastm::Versioning) -> NativeRuntime {
        NativeRuntime::new(NativeConfig {
            heap_words: 1 << 12,
            stripes: 1 << 8,
            versioning,
            phased: Some(params),
            ..NativeConfig::default()
        })
    }

    /// Hair-trigger params: every bad event demotes one level, and the
    /// promote threshold is high enough that `Serial`, once reached,
    /// sticks for the remainder of the run.
    fn hair_trigger() -> hastm::PhasedParams {
        hastm::PhasedParams {
            demote_after: 1,
            promote_after: 1 << 20,
            hysteresis: 1,
            hw_retry_budget: 2,
        }
    }

    #[test]
    fn phased_counter_is_exact_and_reaches_the_serial_phase() {
        let rt = phased_rt(hair_trigger(), hastm::Versioning::Single);
        let mut setup = NativeExec::new(&rt);
        let cell = setup.alloc_obj(1);
        setup.atomic(|ctx| ctx.ctx_write(cell, 0, 0));
        let merged = std::sync::Mutex::new(NativeStats::default());
        // Every thread's first attempt reads, then waits for the other
        // three to have read too: one of the four commits and three abort
        // — the three demotions to `Serial` — however few CPUs the host
        // lends this test. Later attempts race as they come.
        let all_have_read = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut ex = NativeExec::new(&rt);
                    let mut first_attempt = true;
                    for _ in 0..2000 {
                        ex.atomic(|ctx| {
                            let v = ctx.ctx_read(cell, 0)?;
                            if std::mem::take(&mut first_attempt) {
                                all_have_read.wait();
                            }
                            ctx.ctx_work(50);
                            ctx.ctx_write(cell, 0, v + 1)
                        });
                    }
                    merged.lock().unwrap().merge(ex.stats());
                });
            }
        });
        assert_eq!(rt.peek(cell.word(0)), 4 * 2000, "lost updates under Phased");
        let st = merged.into_inner().unwrap();
        assert_eq!(st.commits, 4 * 2000);
        assert!(st.phase_transitions > 0, "hair-trigger params never moved");
        assert!(
            st.serial_commits > 0,
            "contention never reached the serial phase: {st:?}"
        );
        assert_eq!(
            rt.phase_state().expect("phased runtime").phase(),
            hastm::Phase::Serial,
            "promote_after is unreachable, the scheme must end serial"
        );
    }

    #[test]
    fn phased_snapshot_scans_stay_consistent_through_serial_commits() {
        // Writers demoting the scheme to serial must not tear concurrent
        // snapshot scans: serial commits publish version-ring entries
        // like any other commit.
        let rt = phased_rt(hair_trigger(), hastm::Versioning::Multi { k: 3 });
        let mut setup = NativeExec::new(&rt);
        let cells: Vec<ObjRef> = (0..8).map(|_| setup.alloc_obj(1)).collect();
        setup.atomic(|ctx| {
            for c in &cells {
                ctx.ctx_write(*c, 0, 100)?;
            }
            Ok(())
        });
        use std::sync::atomic::AtomicBool;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (cells, stop, rt) = (&cells, &stop, &rt);
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
            for _ in 0..200 {
                let total = ro.atomic_ro(|ctx| {
                    let mut sum = 0u64;
                    for c in cells.iter() {
                        sum = sum.wrapping_add(ctx.ctx_read(*c, 0)?);
                    }
                    Ok(sum)
                });
                assert_eq!(total, 800, "scan tore across a serial commit");
            }
            stop.store(true, SeqCst);
        });
    }

    #[test]
    fn serial_commit_advances_stripes_epoch_and_rings() {
        for mark_filter in [false, true] {
            serial_commit_advances_stripes_and_rings_and_the_epoch_iff(mark_filter);
        }
    }

    fn serial_commit_advances_stripes_and_rings_and_the_epoch_iff(mark_filter: bool) {
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 12,
            stripes: 1 << 8,
            mark_filter,
            versioning: hastm::Versioning::Multi { k: 2 },
            phased: Some(hair_trigger()),
            ..NativeConfig::default()
        });
        let ps = rt.phase_state().expect("phased runtime");
        // Force the phase to Serial by hand, then run one transaction.
        while ps.phase() != hastm::Phase::Serial {
            ps.on_event(hastm::PhaseEvent::CapacityAbort);
        }
        let mut ex = NativeExec::new(&rt);
        let o = ex.alloc_obj(1);
        ex.atomic(|ctx| ctx.ctx_write(o, 0, 99));
        assert_eq!(rt.peek(o.word(0)), 99);
        assert_eq!(ex.stats().serial_commits, 1, "{:?}", ex.stats());
        assert_eq!(
            rt.epoch(),
            u64::from(mark_filter),
            "a serial commit kills filters, and touches the epoch for nothing else"
        );
        let stripe = rt.stripe_of(o.word(0).0);
        let state = rt.stripe_state(stripe);
        assert!(!state.locked);
        assert!(state.version > 0, "stripe version must advance");
        assert!(
            !rt.ring_versions(o.word(0)).is_empty(),
            "serial writes must publish ring history"
        );
        assert_eq!(ps.token_holder(), 0, "token released after commit");
    }

    #[test]
    fn word_table_survives_growth_and_a_wrapped_generation() {
        let mut table = WordTable::new();
        assert_eq!(table.get(7), None, "empty table has no slots to probe");
        for key in 0..1_000u64 {
            table.insert(key * 8, key as u32);
        }
        table.insert(8, 99);
        assert_eq!(table.len(), 1_000, "an overwrite adds nothing");
        assert_eq!(table.get(8), Some(99));
        assert!((2..1_000u64).all(|k| table.get(k * 8) == Some(k as u32)));
        assert_eq!(table.get(4), None);

        // Two clears from the wrap: the first is a stamp bump, the second
        // must wipe, or slots stamped 2^32 clears ago would come back.
        table.gen = u32::MAX - 1;
        table.insert(16, 1);
        table.clear();
        assert_eq!((table.len(), table.get(16)), (0, None));
        table.insert(24, 2);
        table.clear();
        assert_eq!(table.gen, 1);
        assert_eq!(table.get(24), None);
        table.insert(32, 3);
        assert_eq!(table.get(32), Some(3));
        assert_eq!(table.get(8), None, "pre-wrap entries stay dead");
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
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 16,
            ..NativeConfig::default()
        });
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
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 16,
            ..NativeConfig::default()
        });
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
    fn serial_attempts_that_wait_hand_their_allocations_to_the_retry() {
        let rt = NativeRuntime::new(NativeConfig {
            heap_words: 1 << 16,
            phased: Some(hair_trigger()),
            ..NativeConfig::default()
        });
        let ps = rt.phase_state().expect("phased runtime");
        while ps.phase() != hastm::Phase::Serial {
            ps.on_event(hastm::PhaseEvent::CapacityAbort);
        }
        let mut ex = NativeExec::new(&rt);
        let head = ex.alloc_obj(1);
        let used = rt.heap().used_words();
        for round in 0..ROUNDS {
            let mut attempts = 0;
            ex.atomic(|ctx| {
                attempts += 1;
                push_node(ctx, head, round)?;
                if attempts == 1 {
                    // The one way a serial attempt does not commit.
                    return Err(Abort::Retry);
                }
                Ok(())
            });
        }
        assert_eq!(ex.stats().serial_commits, ROUNDS, "{:?}", ex.stats());
        assert_one_node_per_commit(&rt, head, used);
    }

    #[test]
    fn concurrent_counter_loses_no_increments() {
        for filter in [false, true] {
            let rt = small_rt(filter);
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
            assert_eq!(rt.peek(cell.word(0)), 4 * 500, "filter={filter}");
        }
    }
}
