//! Serializability oracle: shadow read logging, a committed-write
//! journal, and the commit checks.
//!
//! The oracle shadows every transactional read at *data* granularity —
//! independent of the record table, the mark bits, and the barrier fast
//! paths — and verifies that each committed transaction was serializable.
//! The check has two parts with different soundness mechanics:
//!
//! * **Written addresses (inline, exact).** A read of an address the
//!   transaction later wrote must have seen the oldest undo entry's old
//!   value. Strict 2PL makes this race-free: from first write to release
//!   nobody else can touch the address, and a mismatch means memory
//!   changed between our read and our first write — a committed or dirty
//!   remote write our validation failed to catch. Checked in
//!   [`Oracle::commit_evidence`] at commit, before the locks drop.
//!
//! * **Read-only addresses (deferred, journal-based).** Comparing a
//!   read-only address against *current* memory at commit is unsound: a
//!   concurrent transaction may legally commit to it between our
//!   validation and any later inspection (in host time the two race; in
//!   simulated time the gate admits cores whose clocks lie inside our
//!   validation's cycle window). The seed's `HASTM_PARANOIA` checker had
//!   exactly this bug and fired on legal histories. Instead, every commit
//!   appends its write set's `(old, new)` transitions to a shared
//!   journal, stamped with the simulated clock *while the 2PL locks are
//!   still held*, and every commit's remaining reads become an
//!   [`Obligation`]. After the run quiesces, [`OracleLog::verify`] checks
//!   each obligation for a **serialization point**: some instant `t`
//!   inside the transaction's lifetime at which every non-own-write read
//!   matches the committed value of its address. Dirty reads (values no
//!   commit ever produced) and non-repeatable reads (two reads of one
//!   address that no single instant satisfies) have no such `t` and are
//!   flagged; legal concurrent updates do and are not.
//!
//! Because logical clocks reset at each [`hastm_sim::Machine::run`], all
//! journal entries and obligations carry the machine's run epoch; entries
//! from different runs never mix, and a first write in a *later* epoch
//! still supplies (via its `old` value) the committed value an earlier
//! epoch's read should have seen.
//!
//! The oracle used to hang off the `HASTM_PARANOIA` environment variable;
//! it is now a first-class, always-compiled component selected by
//! [`crate::StmConfig::oracle`], with per-commit evidence recorded in
//! [`crate::TxnStats`] and violations surfaced by
//! [`crate::StmRuntime::verify_serializability`].

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use hastm_sim::Addr;

use crate::log::UndoEntry;

/// Whether and how the serializability oracle runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// Oracle off: no shadow bookkeeping, no journaling, no checking. The
    /// measured configuration — the oracle is a verification aid, not part
    /// of the reproduced system.
    #[default]
    Off,
    /// Check and panic with full diagnostics on the first unserializable
    /// commit (inline violations panic at the commit; deferred ones panic
    /// inside [`crate::StmRuntime::verify_serializability`]). What the
    /// integration tests use: a violation is a bug in the STM/HASTM
    /// implementation, never a legal outcome.
    Panic,
    /// Check and record violations without panicking: inline ones in
    /// [`crate::TxnStats::oracle_violations`], deferred ones in the return
    /// value of [`crate::StmRuntime::verify_serializability`]. What the
    /// `hastm-check` differential runner uses, so a violation can be
    /// shrunk and replayed instead of tearing the harness down.
    Record,
}

/// One unserializable read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// Data address of the offending read.
    pub addr: Addr,
    /// Value the transaction observed.
    pub seen: u64,
    /// Committed value the read should have observed.
    pub expected: u64,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {} saw {:#x}, committed value {:#x}",
            self.addr, self.seen, self.expected
        )
    }
}

/// Evidence produced by the inline (written-address) part of one commit's
/// check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitEvidence {
    /// Reads the oracle cross-checked for this commit (inline + deferred).
    pub reads_checked: u64,
    /// Inline violations: reads of addresses this transaction wrote that
    /// did not see the pre-transaction value (exact; empty for a
    /// serializable commit).
    pub violations: Vec<OracleViolation>,
}

/// One committed transaction's deferred proof obligation: its reads of
/// addresses it did not write, to be checked against the committed-write
/// journal after the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Run epoch the transaction executed in.
    pub epoch: u64,
    /// Core that committed it.
    pub core: usize,
    /// Clock at transaction begin (serialization points at or after this).
    pub t_begin: u64,
    /// Clock at commit, locks still held (serialization points up to this).
    pub t_end: u64,
    /// `(address, value seen)` for every non-own-write read of an address
    /// the transaction did not write.
    pub reads: Vec<(Addr, u64)>,
}

/// One obligation for which no serialization point exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializationViolation {
    /// The failed obligation's core.
    pub core: usize,
    /// The failed obligation's run epoch.
    pub epoch: u64,
    /// The transaction's `[begin, commit]` clock window.
    pub window: (u64, u64),
    /// The failing read at the best candidate point (the one satisfying
    /// the most reads).
    pub read: OracleViolation,
    /// Candidate serialization points examined.
    pub candidates: usize,
}

impl std::fmt::Display for SerializationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core {} (run {}, window [{}, {}]): no serialization point among {} candidates; at the best point, {}",
            self.core, self.epoch, self.window.0, self.window.1, self.candidates, self.read
        )
    }
}

/// A read-only transaction's deferred snapshot obligation (multi-version
/// runtimes only): every read must equal the committed value at the
/// transaction's start stamp.
///
/// Unlike [`Obligation`], there is no window of candidate serialization
/// points — the snapshot protocol fixes the serialization point to the
/// start stamp, so the check is exact. Clock-based windows would be
/// unsound here: a writer can take stamp `s+1` at the same simulated
/// clock at which the reader captured start stamp `s`, so clock overlap
/// says nothing about stamp order. The stamp-keyed journal does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoObligation {
    /// Core that ran the read-only transaction.
    pub core: usize,
    /// Run epoch (diagnostic only; stamps are runtime-global).
    pub epoch: u64,
    /// The transaction's start stamp: its entire snapshot.
    pub start: u64,
    /// `(address, value seen)` for every snapshot read.
    pub reads: Vec<(Addr, u64)>,
}

/// One committed multi-version write transition, keyed by commit stamp.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct StampedWrite {
    /// Commit stamp issued by the version store.
    stamp: u64,
    /// Committed value before this write.
    old: u64,
    /// Committed value from this stamp on.
    new: u64,
}

/// One committed write transition (the address is the journal key).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct JournalWrite {
    /// Clock at which the commit published (stamped before lock release).
    clock: u64,
    /// Committed value before this write.
    old: u64,
    /// Committed value from this write on.
    new: u64,
}

#[derive(Debug, Default)]
struct OracleLogInner {
    /// Committed write transitions per (run epoch, address), append order
    /// (per-address 2PL serializes committers, so appends are clock-sorted
    /// per key).
    journal: HashMap<(u64, Addr), Vec<JournalWrite>>,
    /// Deferred per-commit proof obligations, commit order per core.
    obligations: Vec<Obligation>,
    /// Stamp-keyed committed transitions per address (multi-version
    /// runtimes). Stamps are issued inside the version-store lock, so
    /// per-address appends arrive stamp-sorted; stamps never reset, so no
    /// epoch key is needed.
    versioned: HashMap<Addr, Vec<StampedWrite>>,
    /// Read-only snapshot obligations, commit order per core.
    ro_obligations: Vec<RoObligation>,
}

/// The shared, runtime-wide oracle state: the committed-write journal and
/// the deferred obligations. One per [`crate::StmRuntime`]; all methods
/// are thread-safe (workers append concurrently during a run).
#[derive(Debug, Default)]
pub struct OracleLog {
    inner: Mutex<OracleLogInner>,
}

impl OracleLog {
    /// Appends one commit's write transitions, stamped `clock` within
    /// `epoch`. Must be called while the committing transaction still
    /// holds its write locks (so per-address append order is the commit
    /// order).
    pub fn record_commit(&self, epoch: u64, clock: u64, writes: &[(Addr, u64, u64)]) {
        if writes.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for &(addr, old, new) in writes {
            inner
                .journal
                .entry((epoch, addr))
                .or_default()
                .push(JournalWrite { clock, old, new });
        }
    }

    /// Queues a committed transaction's deferred read obligations.
    pub fn record_obligation(&self, obligation: Obligation) {
        if obligation.reads.is_empty() {
            return;
        }
        self.inner.lock().unwrap().obligations.push(obligation);
    }

    /// Appends one commit's write transitions to the stamp-keyed journal
    /// (multi-version runtimes). `stamp` is the commit stamp the version
    /// store issued for this commit; call while the write locks are still
    /// held, with the same first-write-order `(addr, old, new)` triples as
    /// [`OracleLog::record_commit`].
    pub fn record_versioned_commit(&self, stamp: u64, writes: &[(Addr, u64, u64)]) {
        if writes.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for &(addr, old, new) in writes {
            inner
                .versioned
                .entry(addr)
                .or_default()
                .push(StampedWrite { stamp, old, new });
        }
    }

    /// Queues a committed read-only transaction's snapshot obligation.
    pub fn record_ro_obligation(&self, obligation: RoObligation) {
        if obligation.reads.is_empty() {
            return;
        }
        self.inner.lock().unwrap().ro_obligations.push(obligation);
    }

    /// Whether any obligations (read-write or read-only) are queued (test
    /// aid).
    pub fn has_obligations(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        !inner.obligations.is_empty() || !inner.ro_obligations.is_empty()
    }

    /// Checks every queued obligation against the journal and drains both.
    ///
    /// `peek` must read current memory (used for addresses no commit ever
    /// wrote — their committed value never changed, so the post-run
    /// contents are the value every read should have seen). Call only
    /// after the machine has quiesced ([`hastm_sim::Machine::run`]
    /// returned): obligations can reference journal entries that lagging
    /// cores append late in host time.
    pub fn verify(&self, mut peek: impl FnMut(Addr) -> u64) -> Vec<SerializationViolation> {
        let mut inner = self.inner.lock().unwrap();
        let inner = std::mem::take(&mut *inner);
        let journal = inner.journal;
        // Defensive: per-address entries should already be clock-sorted
        // (2PL), but the check below requires it, so don't assume.
        let mut sorted: HashMap<(u64, Addr), Vec<JournalWrite>> = journal;
        for entries in sorted.values_mut() {
            entries.sort_by_key(|w| w.clock);
        }
        // For an address with no entries in an obligation's epoch, its
        // first write in the *next* epoch that has one still records (as
        // `old`) the committed value throughout the earlier epoch.
        let mut epochs_of: HashMap<Addr, Vec<u64>> = HashMap::new();
        for &(epoch, addr) in sorted.keys() {
            epochs_of.entry(addr).or_default().push(epoch);
        }
        for epochs in epochs_of.values_mut() {
            epochs.sort_unstable();
        }
        let committed_value_at =
            |addr: Addr, epoch: u64, t: u64, peek: &mut dyn FnMut(Addr) -> u64| -> u64 {
                if let Some(entries) = sorted.get(&(epoch, addr)) {
                    match entries.iter().rev().find(|w| w.clock <= t) {
                        Some(w) => w.new,
                        None => entries[0].old,
                    }
                } else if let Some(&later) = epochs_of
                    .get(&addr)
                    .and_then(|es| es.iter().find(|&&e| e > epoch))
                {
                    sorted[&(later, addr)][0].old
                } else {
                    peek(addr)
                }
            };
        let mut violations = Vec::new();
        for ob in &inner.obligations {
            // Candidate serialization points: transaction begin, plus
            // every instant the committed value of a read address changed
            // inside the transaction's window.
            let mut candidates = vec![ob.t_begin];
            for &(addr, _) in &ob.reads {
                if let Some(entries) = sorted.get(&(ob.epoch, addr)) {
                    candidates.extend(
                        entries
                            .iter()
                            .map(|w| w.clock)
                            .filter(|&c| c > ob.t_begin && c <= ob.t_end),
                    );
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut best: Option<(usize, OracleViolation)> = None;
            let mut satisfied = false;
            for &t in &candidates {
                let mut ok = 0;
                let mut first_bad = None;
                for &(addr, seen) in &ob.reads {
                    let expected = committed_value_at(addr, ob.epoch, t, &mut peek);
                    if expected == seen {
                        ok += 1;
                    } else if first_bad.is_none() {
                        first_bad = Some(OracleViolation {
                            addr,
                            seen,
                            expected,
                        });
                    }
                }
                match first_bad {
                    None => {
                        satisfied = true;
                        break;
                    }
                    Some(v) => {
                        if best.as_ref().is_none_or(|(bk, _)| ok > *bk) {
                            best = Some((ok, v));
                        }
                    }
                }
            }
            if !satisfied {
                let (_, read) = best.expect("candidates is never empty");
                violations.push(SerializationViolation {
                    core: ob.core,
                    epoch: ob.epoch,
                    window: (ob.t_begin, ob.t_end),
                    read,
                    candidates: candidates.len(),
                });
            }
        }
        // Read-only snapshot obligations: exact, stamp-keyed. The expected
        // value of `addr` at start stamp `s` is the newest stamped write
        // with stamp ≤ s; before the first stamped write it is that
        // write's `old` (the pre-image); with no stamped writes at all the
        // address never transactionally changed, so current memory is the
        // committed value (as above).
        let mut stamped = inner.versioned;
        for entries in stamped.values_mut() {
            entries.sort_by_key(|w| w.stamp);
        }
        for ob in &inner.ro_obligations {
            for &(addr, seen) in &ob.reads {
                let expected = match stamped.get(&addr) {
                    Some(entries) => match entries.iter().rev().find(|w| w.stamp <= ob.start) {
                        Some(w) => w.new,
                        None => entries[0].old,
                    },
                    None => peek(addr),
                };
                if expected != seen {
                    violations.push(SerializationViolation {
                        core: ob.core,
                        epoch: ob.epoch,
                        window: (ob.start, ob.start),
                        read: OracleViolation {
                            addr,
                            seen,
                            expected,
                        },
                        candidates: 1,
                    });
                    break; // one violation per obligation is plenty
                }
            }
        }
        violations
    }
}

/// The per-thread oracle: shadow read/write logs plus the inline commit
/// check.
///
/// All methods are cheap no-ops when constructed with
/// [`OracleMode::Off`].
#[derive(Debug, Default)]
pub struct Oracle {
    mode: OracleMode,
    /// Every transactional read: (data address, value seen,
    /// had-this-transaction-already-written-it). Includes fast-path and
    /// aggressive-mode unlogged reads — that is the point.
    shadow_reads: Vec<(Addr, u64, bool)>,
    /// Data addresses written so far in the current transaction.
    shadow_writes: HashSet<Addr>,
    /// Run epoch captured at transaction begin.
    epoch: u64,
    /// Clock at transaction begin.
    t_begin: u64,
}

impl Oracle {
    /// An oracle in the given mode.
    pub fn new(mode: OracleMode) -> Self {
        Oracle {
            mode,
            ..Oracle::default()
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> OracleMode {
        self.mode
    }

    /// Whether the oracle is doing any work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != OracleMode::Off
    }

    /// Clears shadow state at transaction begin and captures the begin
    /// instant (`epoch`, `now`).
    pub(crate) fn begin(&mut self, epoch: u64, now: u64) {
        if !self.enabled() {
            return;
        }
        self.shadow_reads.clear();
        self.shadow_writes.clear();
        self.epoch = epoch;
        self.t_begin = now;
    }

    /// Records a transactional read of `addr` observing `value`.
    #[inline]
    pub(crate) fn note_read(&mut self, addr: Addr, value: u64) {
        if !self.enabled() {
            return;
        }
        let own = self.shadow_writes.contains(&addr);
        self.shadow_reads.push((addr, value, own));
    }

    /// Records a transactional write of `addr`.
    #[inline]
    pub(crate) fn note_write(&mut self, addr: Addr) {
        if !self.enabled() {
            return;
        }
        self.shadow_writes.insert(addr);
    }

    /// Savepoint over the shadow read log (for nested partial rollback).
    pub(crate) fn mark(&self) -> usize {
        self.shadow_reads.len()
    }

    /// Partially rolls back to `mark`: truncates shadow reads and rebuilds
    /// the shadow write set from the surviving undo log (writes undone by
    /// the rollback are no longer "own writes").
    pub(crate) fn rollback_to(&mut self, mark: usize, surviving_undo: &[UndoEntry]) {
        if !self.enabled() {
            return;
        }
        self.shadow_reads.truncate(mark);
        self.shadow_writes = surviving_undo.iter().map(|u| u.addr).collect();
    }

    /// Splits the committing transaction's reads into the exact inline
    /// check and the deferred obligation.
    ///
    /// Reads of addresses in `undo_log` (addresses this transaction wrote)
    /// are checked against the *oldest* undo entry's old value — the
    /// pre-transaction committed value, exact under strict 2PL. All other
    /// non-own-write reads go into the returned [`Obligation`] (empty
    /// `reads` if there are none), checked post-run against the journal.
    /// `core` and `t_end` stamp the obligation; call before releasing
    /// write locks.
    pub(crate) fn commit_evidence(
        &self,
        undo_log: &[UndoEntry],
        core: usize,
        t_end: u64,
    ) -> (CommitEvidence, Obligation) {
        debug_assert!(self.enabled(), "commit_evidence on a disabled oracle");
        let mut pre_txn: HashMap<Addr, u64> = HashMap::new();
        for u in undo_log {
            pre_txn.entry(u.addr).or_insert(u.old);
        }
        let mut evidence = CommitEvidence::default();
        let mut obligation = Obligation {
            epoch: self.epoch,
            core,
            t_begin: self.t_begin,
            t_end,
            reads: Vec::new(),
        };
        for &(addr, seen, after_own_write) in &self.shadow_reads {
            if after_own_write {
                continue;
            }
            evidence.reads_checked += 1;
            match pre_txn.get(&addr) {
                Some(&expected) => {
                    if seen != expected {
                        evidence.violations.push(OracleViolation {
                            addr,
                            seen,
                            expected,
                        });
                    }
                }
                None => obligation.reads.push((addr, seen)),
            }
        }
        (evidence, obligation)
    }

    /// The shadow reads of a committing read-only transaction, for its
    /// [`RoObligation`] (read-only transactions have no own writes to
    /// exempt).
    pub(crate) fn ro_reads(&self) -> Vec<(Addr, u64)> {
        self.shadow_reads.iter().map(|&(a, v, _)| (a, v)).collect()
    }

    /// The journal entries for this commit: per written address (in first-
    /// write order), its pre-transaction value from the oldest undo entry
    /// and its final value via `peek` (exact: the locks are still held).
    pub(crate) fn journal_writes(
        undo_log: &[UndoEntry],
        mut peek: impl FnMut(Addr) -> u64,
    ) -> Vec<(Addr, u64, u64)> {
        let mut seen = HashSet::new();
        let mut writes = Vec::new();
        for u in undo_log {
            if seen.insert(u.addr) {
                writes.push((u.addr, u.old, peek(u.addr)));
            }
        }
        writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undo(addr: u64, old: u64) -> UndoEntry {
        UndoEntry {
            addr: Addr(addr),
            old,
            meta: 0,
        }
    }

    #[test]
    fn off_mode_does_no_bookkeeping() {
        let mut o = Oracle::new(OracleMode::Off);
        assert!(!o.enabled());
        o.note_read(Addr(0x10), 1);
        o.note_write(Addr(0x10));
        assert_eq!(o.mark(), 0, "disabled oracle records nothing");
    }

    #[test]
    fn written_addresses_check_inline_and_read_only_defer() {
        let mut o = Oracle::new(OracleMode::Record);
        o.begin(1, 100);
        o.note_read(Addr(0x10), 7); // read-only: deferred
        o.note_read(Addr(0x20), 5); // read-then-write: inline
        o.note_write(Addr(0x20));
        o.note_read(Addr(0x20), 99); // own write: exempt
        let (ev, ob) = o.commit_evidence(&[undo(0x20, 5)], 2, 250);
        assert_eq!(ev.reads_checked, 2);
        assert!(ev.violations.is_empty());
        assert_eq!(ob.reads, vec![(Addr(0x10), 7)]);
        assert_eq!((ob.epoch, ob.core, ob.t_begin, ob.t_end), (1, 2, 100, 250));
    }

    #[test]
    fn stale_read_of_written_address_is_an_inline_violation() {
        let mut o = Oracle::new(OracleMode::Record);
        o.begin(1, 0);
        o.note_read(Addr(0x10), 7);
        o.note_write(Addr(0x10));
        let (ev, _) = o.commit_evidence(&[undo(0x10, 8)], 0, 10);
        assert_eq!(
            ev.violations,
            vec![OracleViolation {
                addr: Addr(0x10),
                seen: 7,
                expected: 8,
            }]
        );
        assert!(ev.violations[0].to_string().contains("0x10"));
    }

    #[test]
    fn oldest_undo_entry_wins() {
        let mut o = Oracle::new(OracleMode::Record);
        o.begin(1, 0);
        o.note_read(Addr(0x30), 1);
        o.note_write(Addr(0x30));
        // Two undo entries for the same address: the first (oldest) holds
        // the pre-transaction value.
        let (ev, _) = o.commit_evidence(&[undo(0x30, 1), undo(0x30, 2)], 0, 10);
        assert!(ev.violations.is_empty());
    }

    #[test]
    fn rollback_truncates_reads_and_rebuilds_writes() {
        let mut o = Oracle::new(OracleMode::Panic);
        o.begin(3, 0);
        o.note_write(Addr(0x40));
        o.note_read(Addr(0x50), 3);
        let mark = o.mark();
        o.note_write(Addr(0x60));
        o.note_read(Addr(0x70), 4);
        // Nested scope aborts: only 0x40's undo entry survives.
        o.rollback_to(mark, &[undo(0x40, 0)]);
        assert_eq!(o.mark(), 1, "post-savepoint reads dropped");
        // 0x60 is no longer an own write: a read of it is checked again.
        o.note_read(Addr(0x60), 9);
        let (ev, ob) = o.commit_evidence(&[undo(0x40, 0)], 0, 10);
        assert_eq!(ev.reads_checked, 2);
        assert!(ev.violations.is_empty());
        assert_eq!(ob.reads, vec![(Addr(0x50), 3), (Addr(0x60), 9)]);
    }

    #[test]
    fn journal_writes_dedup_to_first_entry() {
        let writes =
            Oracle::journal_writes(&[undo(0x10, 1), undo(0x20, 7), undo(0x10, 2)], |a| a.0);
        assert_eq!(writes, vec![(Addr(0x10), 1, 0x10), (Addr(0x20), 7, 0x20)]);
    }

    // ------------------------------------------------------------------
    // OracleLog::verify
    // ------------------------------------------------------------------

    fn ob(epoch: u64, window: (u64, u64), reads: &[(u64, u64)]) -> Obligation {
        Obligation {
            epoch,
            core: 0,
            t_begin: window.0,
            t_end: window.1,
            reads: reads.iter().map(|&(a, v)| (Addr(a), v)).collect(),
        }
    }

    #[test]
    fn read_consistent_at_begin_passes() {
        let log = OracleLog::default();
        // X committed 1 -> 2 at clock 50; our transaction [0, 100] read 1.
        log.record_commit(1, 50, &[(Addr(0x10), 1, 2)]);
        log.record_obligation(ob(1, (0, 100), &[(0x10, 1)]));
        assert!(log.verify(|_| unreachable!()).is_empty());
    }

    #[test]
    fn read_of_legally_updated_value_passes() {
        let log = OracleLog::default();
        // X: 1 -> 2 at clock 50, 2 -> 3 at clock 80. A transaction with
        // window [10, 60] that read 2 serializes at t in [50, 60].
        log.record_commit(1, 50, &[(Addr(0x10), 1, 2)]);
        log.record_commit(1, 80, &[(Addr(0x10), 2, 3)]);
        log.record_obligation(ob(1, (10, 60), &[(0x10, 2)]));
        assert!(log.verify(|_| unreachable!()).is_empty());
    }

    #[test]
    fn dirty_read_has_no_serialization_point() {
        let log = OracleLog::default();
        // X only ever committed 1 -> 2; a read of 99 (a speculative value
        // some aborted transaction wrote in place) matches no committed
        // state.
        log.record_commit(1, 50, &[(Addr(0x10), 1, 2)]);
        log.record_obligation(ob(1, (0, 100), &[(0x10, 99)]));
        let v = log.verify(|_| unreachable!());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].read.seen, 99);
        assert!(v[0].to_string().contains("no serialization point"));
    }

    #[test]
    fn inconsistent_snapshot_is_flagged() {
        let log = OracleLog::default();
        // X and Y both flip 0 -> 1 atomically-ish at distinct commits;
        // reading X's new value but Y's old value from *after* X's commit
        // is unserializable if Y committed before X.
        log.record_commit(1, 30, &[(Addr(0x20), 0, 1)]); // Y: 0 -> 1
        log.record_commit(1, 50, &[(Addr(0x10), 0, 1)]); // X: 0 -> 1
                                                         // Read X == 1 (so t >= 50) and Y == 0 (so t < 30): impossible.
        log.record_obligation(ob(1, (0, 100), &[(0x10, 1), (0x20, 0)]));
        let v = log.verify(|_| unreachable!());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn non_repeatable_read_is_flagged() {
        let log = OracleLog::default();
        log.record_commit(1, 50, &[(Addr(0x10), 1, 2)]);
        // One transaction read both 1 and 2 from X: no single instant.
        log.record_obligation(ob(1, (0, 100), &[(0x10, 1), (0x10, 2)]));
        assert_eq!(log.verify(|_| unreachable!()).len(), 1);
    }

    #[test]
    fn never_written_addresses_fall_back_to_memory() {
        let log = OracleLog::default();
        log.record_obligation(ob(1, (0, 100), &[(0x10, 42)]));
        assert!(log
            .verify(|a| if a == Addr(0x10) { 42 } else { 0 })
            .is_empty());
        log.record_obligation(ob(1, (0, 100), &[(0x10, 42)]));
        assert_eq!(log.verify(|_| 7).len(), 1, "memory disagrees");
    }

    #[test]
    fn later_epoch_first_write_supplies_earlier_epochs_value() {
        let log = OracleLog::default();
        // Epoch 2 committed X: 5 -> 9. An epoch-1 read of X must have seen
        // 5 (the value throughout epoch 1), even though current memory
        // says 9.
        log.record_commit(2, 10, &[(Addr(0x10), 5, 9)]);
        log.record_obligation(ob(1, (0, 100), &[(0x10, 5)]));
        assert!(log.verify(|_| unreachable!()).is_empty());
        log.record_commit(2, 10, &[(Addr(0x10), 5, 9)]);
        log.record_obligation(ob(1, (0, 100), &[(0x10, 9)]));
        assert_eq!(
            log.verify(|_| unreachable!()).len(),
            1,
            "epoch-1 reads cannot see epoch-2 values"
        );
    }

    fn ro_ob(start: u64, reads: &[(u64, u64)]) -> RoObligation {
        RoObligation {
            core: 0,
            epoch: 1,
            start,
            reads: reads.iter().map(|&(a, v)| (Addr(a), v)).collect(),
        }
    }

    #[test]
    fn ro_snapshot_at_start_stamp_passes() {
        let log = OracleLog::default();
        log.record_versioned_commit(1, &[(Addr(0x10), 0, 10)]);
        log.record_versioned_commit(2, &[(Addr(0x10), 10, 20)]);
        // Start stamp 1: must see 10, regardless of the later commit.
        log.record_ro_obligation(ro_ob(1, &[(0x10, 10)]));
        assert!(log.verify(|_| unreachable!()).is_empty());
    }

    #[test]
    fn ro_read_of_a_too_new_version_is_flagged() {
        let log = OracleLog::default();
        log.record_versioned_commit(1, &[(Addr(0x10), 0, 10)]);
        log.record_versioned_commit(2, &[(Addr(0x10), 10, 20)]);
        // Start stamp 1 but saw stamp-2's value: exactly the off-by-one
        // the seeded snapshot mutation introduces.
        log.record_ro_obligation(ro_ob(1, &[(0x10, 20)]));
        let v = log.verify(|_| unreachable!());
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].read.seen, v[0].read.expected), (20, 10));
        assert_eq!(
            v[0].window,
            (1, 1),
            "RO serialization point is the start stamp"
        );
    }

    #[test]
    fn ro_read_before_first_stamped_write_expects_the_pre_image() {
        let log = OracleLog::default();
        log.record_versioned_commit(5, &[(Addr(0x10), 7, 8)]);
        log.record_ro_obligation(ro_ob(4, &[(0x10, 7)]));
        assert!(log.verify(|_| unreachable!()).is_empty());
        log.record_versioned_commit(5, &[(Addr(0x10), 7, 8)]);
        log.record_ro_obligation(ro_ob(4, &[(0x10, 8)]));
        assert_eq!(log.verify(|_| unreachable!()).len(), 1);
    }

    #[test]
    fn ro_read_of_an_untouched_address_checks_memory() {
        let log = OracleLog::default();
        log.record_ro_obligation(ro_ob(3, &[(0x40, 42)]));
        assert!(log.verify(|_| 42).is_empty());
        log.record_ro_obligation(ro_ob(3, &[(0x40, 42)]));
        assert_eq!(log.verify(|_| 7).len(), 1);
    }

    #[test]
    fn verify_drains() {
        let log = OracleLog::default();
        log.record_obligation(ob(1, (0, 10), &[(0x10, 1)]));
        assert!(log.has_obligations());
        assert_eq!(log.verify(|_| 0).len(), 1);
        assert!(!log.has_obligations());
        assert!(log.verify(|_| 0).is_empty(), "second verify sees nothing");
    }
}
