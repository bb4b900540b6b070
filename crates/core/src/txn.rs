//! Per-thread transaction state: the descriptor, begin/commit/abort,
//! validation, and rollback. Barrier code sequences live in
//! [`crate::barrier`]; the user-facing `atomic`/nesting API in
//! [`crate::api`].

use hastm_sim::mutant::{armed, Mutant};
use hastm_sim::words::WordTable;
use hastm_sim::{Addr, Cpu};

use crate::config::{Abort, BarrierKind, Mode, ModePolicy, StmConfig, TxResult, TxnKind};
use crate::log::{LogRegion, ReadEntry, Savepoint, UndoEntry, WriteEntry};
use crate::mode::{AbortClass, ModeController};
use crate::oracle::{Oracle, RoObligation};
use crate::phase::{Access, Entry, Phase, PhaseEvent, Wait};
use crate::record::RecValue;
use crate::runtime::{ObjRef, StmRuntime};
use crate::stats::{Category, TxnStats};

/// Descriptor layout offsets (within the 64-byte descriptor line).
const DESC_RDLOG_PTR: u64 = 8;
const DESC_WRLOG_PTR: u64 = 16;
const DESC_UNDOLOG_PTR: u64 = 24;
const DESC_MODE: u64 = 32;

/// Words per log entry.
const READ_ENTRY_WORDS: u32 = 2; // rec, version
const WRITE_ENTRY_WORDS: u32 = 2; // rec, prev version
const UNDO_ENTRY_WORDS: u32 = 3; // addr, old value, GC metadata

/// Entries per chunk of each simulated log region: a transaction that logs
/// more overflows into further chunks.
const LOG_CAPACITY: u32 = 4096;

/// One thread's transactional execution context.
///
/// Owns the thread's simulated descriptor, logs, mode controller, and
/// statistics, and borrows the thread's [`Cpu`] for the duration of the
/// run. Created inside a worker closure:
///
/// ```
/// use hastm::{StmConfig, StmRuntime, TxThread, Granularity};
/// use hastm_sim::{Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let runtime = StmRuntime::new(&mut machine, StmConfig::stm(Granularity::CacheLine));
/// let (sum, _report) = machine.run_one(|cpu| {
///     let mut tx = TxThread::new(&runtime, cpu);
///     let obj = tx.alloc_obj(2);
///     tx.atomic(|tx| {
///         tx.write_word(obj, 0, 20)?;
///         tx.write_word(obj, 1, 22)?;
///         Ok(())
///     });
///     tx.atomic(|tx| Ok(tx.read_word(obj, 0)? + tx.read_word(obj, 1)?))
/// });
/// assert_eq!(sum, 42);
/// ```
pub struct TxThread<'c, 'm> {
    pub(crate) cpu: &'c mut Cpu<'m>,
    pub(crate) runtime: &'c StmRuntime,
    /// Simulated address of this thread's transaction descriptor. Its value
    /// is what owned records hold.
    pub(crate) desc: Addr,
    pub(crate) read_set: Vec<ReadEntry>,
    pub(crate) write_set: Vec<WriteEntry>,
    pub(crate) undo_log: Vec<UndoEntry>,
    /// rec -> index into `write_set` for records this transaction owns.
    pub(crate) owned: WordTable<u32>,
    pub(crate) rd_region: LogRegion,
    pub(crate) wr_region: LogRegion,
    pub(crate) undo_region: LogRegion,
    pub(crate) mode: Mode,
    pub(crate) controller: ModeController,
    pub(crate) savepoints: Vec<Savepoint>,
    pub(crate) active: bool,
    pub(crate) reads_since_validation: u32,
    pub(crate) stats: TxnStats,
    pub(crate) rng_state: u64,
    /// Commit-time serializability oracle ([`crate::StmConfig::oracle`]);
    /// a no-op in the default [`crate::OracleMode::Off`].
    pub(crate) oracle: Oracle,
    /// With `filter_writes`: addr -> undo index of its first entry in the
    /// current transaction (dedup within the innermost nesting scope).
    pub(crate) undo_logged: WordTable<u32>,
    /// Declared kind of the in-flight transaction.
    pub(crate) kind: TxnKind,
    /// Snapshot start stamp of an in-flight read-only transaction
    /// ([`crate::Versioning::Multi`] only).
    pub(crate) ro_start: u64,
    /// This thread's live-snapshot slot in the version store, claimed by
    /// its first read-only transaction and given back on drop.
    ro_slot: Option<usize>,
    /// The global phase this attempt entered under (`None` unless the
    /// policy is [`ModePolicy::Phased`]).
    pub(crate) phase: Option<Phase>,
    /// Whether this attempt runs on the irrevocable serial path (holding
    /// the global token; no validation, no conflict aborts).
    pub(crate) serial: bool,
    /// `(capacity, conflict)` marked-loss counters sampled at the start
    /// of an aggressive attempt, for abort-cause classification.
    pub(crate) loss_base: (u64, u64),
}

impl std::fmt::Debug for TxThread<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxThread")
            .field("desc", &self.desc)
            .field("mode", &self.mode)
            .field("active", &self.active)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .finish_non_exhaustive()
    }
}

impl<'c, 'm> TxThread<'c, 'm> {
    /// Creates the thread context, allocating its descriptor and log
    /// regions from the runtime's heap.
    pub fn new(runtime: &'c StmRuntime, cpu: &'c mut Cpu<'m>) -> Self {
        let heap = runtime.heap();
        let desc = cpu.alloc_aligned(heap, 64, 64);
        let rd_region = LogRegion::new(
            cpu,
            heap,
            desc.offset(DESC_RDLOG_PTR),
            LOG_CAPACITY,
            READ_ENTRY_WORDS,
        );
        let wr_region = LogRegion::new(
            cpu,
            heap,
            desc.offset(DESC_WRLOG_PTR),
            LOG_CAPACITY,
            WRITE_ENTRY_WORDS,
        );
        let undo_region = LogRegion::new(
            cpu,
            heap,
            desc.offset(DESC_UNDOLOG_PTR),
            LOG_CAPACITY,
            UNDO_ENTRY_WORDS,
        );
        // Initialize the descriptor's mode word.
        cpu.store_u64(desc.offset(DESC_MODE), Mode::Cautious as u64);
        let controller = ModeController::new(runtime.config().mode_policy);
        TxThread {
            cpu,
            runtime,
            desc,
            read_set: Vec::new(),
            write_set: Vec::new(),
            undo_log: Vec::new(),
            owned: WordTable::new(),
            rd_region,
            wr_region,
            undo_region,
            mode: Mode::Cautious,
            controller,
            savepoints: Vec::new(),
            active: false,
            reads_since_validation: 0,
            stats: TxnStats::default(),
            rng_state: 0x9e37_79b9_7f4a_7c15 ^ (desc.0 << 1),
            oracle: Oracle::new(runtime.config().oracle),
            undo_logged: WordTable::new(),
            kind: TxnKind::ReadWrite,
            ro_start: 0,
            ro_slot: None,
            phase: None,
            serial: false,
            loss_base: (0, 0),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StmConfig {
        self.runtime.config()
    }

    /// The shared runtime this thread runs against.
    pub fn runtime(&self) -> &'c StmRuntime {
        self.runtime
    }

    /// Whether a transaction is currently executing.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Current mode of the in-flight transaction.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Declared kind of the in-flight transaction.
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// Whether the in-flight transaction runs the wait-free snapshot-read
    /// path: declared read-only *and* the runtime keeps multiple versions.
    /// (Under [`crate::Versioning::Single`] a read-only transaction is an
    /// ordinary transaction that happens not to write.)
    pub fn is_snapshot(&self) -> bool {
        self.kind == TxnKind::ReadOnly && self.runtime.version_store().is_some()
    }

    /// This thread's transaction statistics.
    pub fn stats(&self) -> &TxnStats {
        &self.stats
    }

    /// Mutable access to the thread's CPU (for application work between
    /// transactions; inside a transaction, use the transactional API).
    pub fn cpu(&mut self) -> &mut Cpu<'m> {
        self.cpu
    }

    /// Mode-controller diagnostics (current dirty ratio).
    pub fn dirty_ratio(&self) -> f64 {
        self.controller.dirty_ratio()
    }

    pub(crate) fn hastm(&self) -> bool {
        self.runtime.config().barrier == BarrierKind::Hastm
    }

    /// Cheap xorshift for backoff jitter (deterministic per thread).
    pub(crate) fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// This thread's serializability oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Debug-only (oracle on): asserts write-set/owned-map/memory agreement.
    pub(crate) fn check_ownership(&mut self, site: &str) {
        if !self.oracle.enabled() {
            return;
        }
        for (i, w) in self.write_set.iter().enumerate() {
            let cur = self.cpu.peek_u64(w.rec);
            assert!(
                cur == RecValue::owned_by(self.desc).0,
                "ownership invariant broken at {site}: write_set[{i}] rec {} prev {:?} but memory holds {cur:#x} (desc {})",
                w.rec,
                w.prev,
                self.desc
            );
            assert_eq!(
                self.owned.get(w.rec.0),
                Some(i as u32),
                "owned map desync at {site}"
            );
        }
    }

    /// Measures a span of simulated cycles and attributes it to `cat`.
    ///
    /// Cycles the closure already attributed itself (a nested `timed`, or
    /// an explicit `breakdown.add` such as `handle_contention`'s wait) are
    /// excluded, so every simulated cycle lands in exactly one category and
    /// the breakdown total never exceeds elapsed time.
    pub(crate) fn timed<T>(&mut self, cat: Category, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = self.cpu.now();
        let attributed0 = self.stats.breakdown.total();
        let r = f(self);
        let dt = self.cpu.now() - t0;
        let nested = self.stats.breakdown.total() - attributed0;
        self.attribute(cat, dt.saturating_sub(nested));
        r
    }

    /// Adds `cycles` to `cat` in the breakdown and mirrors the attribution
    /// into the structured trace (when armed) as a `Phase` event. Every
    /// breakdown update funnels through here, which is what makes the
    /// trace-vs-breakdown reconciliation exact: a lossless trace's
    /// per-phase sums equal the `TimeBreakdown` by construction.
    pub(crate) fn attribute(&mut self, cat: Category, cycles: u64) {
        self.stats.breakdown.add(cat, cycles);
        if cycles > 0 {
            self.cpu.trace(hastm_sim::TraceEvent::Phase {
                phase: cat.phase(),
                cycles,
            });
        }
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begins a top-level transaction attempt.
    pub(crate) fn begin(&mut self, attempt: u32) {
        debug_assert!(!self.active, "begin while active");
        self.phase = None;
        self.serial = false;
        let rt = self.runtime;
        if let Some(ps) = rt.phase_state() {
            let entry = ps.enter(self.token_id(), self);
            self.phase = Some(entry.phase());
            self.serial = entry == Entry::Serial;
        }
        self.kind = TxnKind::ReadWrite;
        self.cpu.trace(hastm_sim::TraceEvent::TxnBegin { attempt });
        self.active = true;
        self.reads_since_validation = 0;
        self.read_set.clear();
        self.write_set.clear();
        self.undo_log.clear();
        self.owned.clear();
        self.savepoints.clear();
        self.rd_region.reset();
        self.wr_region.reset();
        self.undo_region.reset();
        if self.oracle.enabled() {
            let (epoch, now) = (self.cpu.run_epoch(), self.cpu.now());
            self.oracle.begin(epoch, now);
        }
        self.undo_logged.clear();
        self.mode = match self.phase {
            // Serial attempts bypass barriers entirely; the descriptor
            // mode is published as cautious so any (impossible) slow-path
            // reader of it sees the safe value.
            Some(_) if self.serial => Mode::Cautious,
            Some(p) if self.hastm() => {
                let budget = match self.runtime.config().mode_policy {
                    ModePolicy::Phased(params) => params.hw_retry_budget,
                    _ => 1,
                };
                p.mode_for(attempt, budget)
            }
            Some(_) => Mode::Cautious,
            None if self.hastm() => self.controller.mode_for(attempt),
            None => Mode::Cautious,
        };
        // Publish the mode in the descriptor (read by barrier slow paths).
        self.cpu
            .store_u64(self.desc.offset(DESC_MODE), self.mode as u64);
        if self.hastm() {
            // Every attempt starts from a clean mark slate: cautious mode's
            // 2-instruction fast path is sound only under the invariant
            // "marked => logged or owned by THIS transaction". The paper's
            // measurements clear marks between transactions too, forgoing
            // Figure 10's inter-atomic reuse.
            self.cpu.reset_mark_all();
            self.cpu.reset_mark_counter();
            if self.runtime.config().filter_writes {
                // The write filter's invariant ("write-marked => owned by
                // this transaction") never spans transactions.
                self.cpu.reset_mark_all_f(hastm_sim::FilterId::WRITE);
            }
            if self.mode == Mode::Aggressive {
                // Baseline for abort-cause classification: a dirty-counter
                // abort is attributed to whichever loss class (capacity vs
                // remote-writer conflict) grew more during the attempt.
                self.loss_base = self.cpu.marked_loss_by_cause();
            }
        }
        if let Some(p) = self.phase {
            self.stats.phase_begins[p.idx()] += 1;
        }
    }

    /// Begins a top-level transaction attempt declared
    /// [`TxnKind::ReadOnly`].
    ///
    /// Under [`crate::Versioning::Multi`] this arms the snapshot-read
    /// path: the transaction pins the version store's current commit stamp
    /// in its thread's live-snapshot slot (holding history against
    /// reclamation) as its start stamp, reads the newest version ≤ start
    /// of every word, and commits without validation — it cannot
    /// conflict-abort. Under [`crate::Versioning::Single`], or with every
    /// slot owned by other threads, it is an ordinary [`begin`].
    pub(crate) fn begin_ro(&mut self, attempt: u32) {
        self.begin(attempt);
        if self.serial {
            // The serial phase runs read-only regions irrevocably too:
            // the token holder is alone, so direct reads are already a
            // consistent snapshot and no version-store registration is
            // needed (the kind stays ReadWrite on purpose — the snapshot
            // machinery must not engage).
            return;
        }
        let Some(store) = self.runtime.version_store() else {
            return;
        };
        // The claim needs no gated op: an idle slot pins nothing, and with
        // no more threads than slots every claim succeeds.
        self.ro_slot = self.ro_slot.or_else(|| store.snapshots().claim());
        let Some(slot) = self.ro_slot else {
            return;
        };
        self.kind = TxnKind::ReadOnly;
        // Pin and capture the stamp inside the gated op: the version store
        // is side-band host state the gate cannot order on its own, and a
        // racing writer's stamp issue must deterministically land before
        // or after this capture. Doing both under one gated op also means
        // no commit can slip between registration and capture.
        let pin = || store.snapshots().pin(slot, || store.current_stamp());
        self.ro_start = self.cpu.exec_sync(2, pin); // load global stamp + register
    }

    /// Idles the in-flight snapshot transaction's slot: the history it
    /// pinned becomes reclaimable (lazily, at the next prune).
    fn ro_unpin(&self) {
        let store = self
            .runtime
            .version_store()
            .expect("a snapshot has a store");
        store
            .snapshots()
            .unpin(self.ro_slot.expect("a snapshot has a slot"));
    }

    /// Validates the read set (Figure 2 / Figure 6). Returns whether the
    /// mark counter was dirty (always `false` for the pure-software STM),
    /// or an abort if a version changed.
    pub(crate) fn validate(&mut self) -> TxResult<bool> {
        self.reads_since_validation = 0;
        if self.hastm() {
            let counter = self.cpu.read_mark_counter();
            self.cpu.exec(1); // branch on counter
            if counter == 0 {
                // No marked line was snooped or evicted: every record this
                // transaction marked still holds the version it held when
                // marked, so validation is free (Figure 6).
                self.stats.validations_skipped += 1;
                return Ok(false);
            }
            if self.mode == Mode::Aggressive {
                // No read log to fall back on (§6): spurious or real, the
                // transaction must abort and re-execute cautiously.
                return Err(Abort::MarkCounterDirty);
            }
            self.software_validate()?;
            return Ok(true);
        }
        self.software_validate()?;
        Ok(false)
    }

    /// Full software read-set walk (Figure 2).
    fn software_validate(&mut self) -> TxResult<()> {
        // `Mutant::SkippedRevalidation`: the slow path "revalidates" by
        // not walking the read set at all, so doomed transactions commit
        // on stale reads. Both periodic and commit-time validation route
        // through here, for the base STM and for HASTM's cautious
        // fallback alike — the oracle and the explorer must each flag the
        // resulting lost updates.
        if armed(Mutant::SkippedRevalidation) {
            return Ok(());
        }
        self.stats.validations_full += 1;
        for i in 0..self.read_set.len() {
            let entry = self.read_set[i];
            let cur = RecValue(self.cpu.load_u64(entry.rec));
            self.cpu.exec(2); // compare + branch
            if cur == entry.version {
                continue;
            }
            // The record may legitimately differ because *we* own it now:
            // it must then have been acquired at exactly the version we
            // logged when reading.
            if cur.is_owned() && cur.owner() == self.desc {
                if let Some(wi) = self.owned.get(entry.rec.0) {
                    if self.write_set[wi as usize].prev == entry.version {
                        continue;
                    }
                }
            }
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// Validates if the periodic-validation budget is exhausted. Called
    /// after read barriers; bounds the work a doomed transaction can do.
    pub(crate) fn maybe_validate(&mut self) -> TxResult<()> {
        self.reads_since_validation += 1;
        if self.reads_since_validation >= self.runtime.config().validation_period {
            self.timed(Category::Validate, |t| t.validate())?;
        }
        Ok(())
    }

    /// Forces a validation now. Public so long traversals can bound zombie
    /// execution explicitly (e.g. every N hops of a pointer chase).
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the read set is no longer consistent.
    pub fn validate_now(&mut self) -> TxResult<()> {
        if self.is_snapshot() {
            // Snapshot reads are consistent by construction; there is no
            // read set to validate and nothing that could abort.
            return Ok(());
        }
        self.timed(Category::Validate, |t| t.validate())?;
        Ok(())
    }

    /// Attempts to commit the in-flight transaction.
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        debug_assert!(self.active);
        if self.serial {
            self.commit_serial();
            return Ok(());
        }
        if self.is_snapshot() {
            self.commit_snapshot();
            return Ok(());
        }
        let dirty = self.timed(Category::Validate, |t| t.validate())?;
        self.oracle_on_commit();
        self.publish_versions();
        self.timed(Category::Commit, |t| {
            // Release every owned record with an incremented version so
            // concurrent readers detect the update (strict 2PL release).
            for i in 0..t.write_set.len() {
                let w = t.write_set[i];
                t.cpu.store_u64(w.rec, w.prev.bump().0);
                t.cpu.exec(1);
            }
        });
        self.stats.commits += 1;
        self.cpu.trace(hastm_sim::TraceEvent::TxnCommit);
        match self.mode {
            Mode::Aggressive => self.stats.aggressive_commits += 1,
            Mode::Cautious => self.stats.cautious_commits += 1,
        }
        if self.hastm() {
            self.controller.on_commit(dirty);
        }
        self.phase_commit_hook(dirty);
        self.active = false;
        Ok(())
    }

    /// Commit-time serializability-oracle bookkeeping: evidence, journal
    /// append, and the deferred obligation. A no-op when the oracle is
    /// off.
    fn oracle_on_commit(&mut self) {
        if self.oracle.enabled() {
            // Evidence is collected BEFORE the locks drop: the undo
            // pre-images and final values are exact only while no other
            // transaction can touch the written addresses, and the journal
            // append must precede the release so per-address journal order
            // is commit order. (Host-side peeks of lock-protected
            // addresses; no simulated cost — the oracle is a verification
            // aid, not part of the measured system.)
            let cpu = &mut *self.cpu;
            let writes = Oracle::journal_writes(&self.undo_log, |addr| cpu.peek_u64(addr));
            let (evidence, obligation) =
                self.oracle
                    .commit_evidence(&self.undo_log, cpu.id(), cpu.now());
            let log = self.runtime.oracle_log();
            log.record_commit(obligation.epoch, obligation.t_end, &writes);
            log.record_obligation(obligation);
            self.stats.oracle_commits_checked += 1;
            self.stats.oracle_reads_checked += evidence.reads_checked;
            self.stats.oracle_violations += evidence.violations.len() as u64;
        }
    }

    /// Publishes this commit's final values into the version rings
    /// ([`crate::Versioning::Multi`] only; a no-op otherwise).
    fn publish_versions(&mut self) {
        if let Some(store) = self.runtime.version_store() {
            // Publish this commit's final values into the version rings
            // *before* releasing the records: stamp issue + publication is
            // one atomic host-side step, and until the release no other
            // writer can re-acquire these addresses, so per-address stamp
            // order is commit order. Empty write sets publish nothing and
            // issue no stamp.
            let cpu = &mut *self.cpu;
            let journal = Oracle::journal_writes(&self.undo_log, |addr| cpu.peek_u64(addr));
            if !journal.is_empty() {
                let writes: Vec<(u64, u64)> =
                    journal.iter().map(|&(a, _, new)| (a.0, new)).collect();
                // Stamp issue + publication runs inside a gated op so its
                // order against concurrent snapshot-stamp captures and ring
                // probes is fixed by the deterministic admission schedule,
                // not by the store's own lock.
                let stamp = cpu.exec_sync(1, || store.commit_publish(&writes));
                self.stats.versions_published += writes.len() as u64;
                if self.oracle.enabled() {
                    self.runtime
                        .oracle_log()
                        .record_versioned_commit(stamp, &journal);
                }
            }
        }
    }

    /// Commits an irrevocable serial-phase transaction. The token holder
    /// is provably alone (every optimistic transaction drained before it
    /// started and none can re-enter while the published phase stays
    /// [`Phase::Serial`]), so there is nothing to validate and no records
    /// to release — writes went to memory directly, with undo entries
    /// kept only for user-initiated aborts. Version publication still
    /// runs so MVCC snapshot readers that begin after the serial phase
    /// see correctly stamped history.
    fn commit_serial(&mut self) {
        debug_assert!(self.serial);
        debug_assert!(self.write_set.is_empty(), "serial path acquired a record");
        self.oracle_on_commit();
        self.publish_versions();
        self.timed(Category::Commit, |t| t.cpu.exec(1));
        self.stats.commits += 1;
        self.stats.serial_commits += 1;
        self.cpu.trace(hastm_sim::TraceEvent::TxnCommit);
        match self.mode {
            Mode::Aggressive => self.stats.aggressive_commits += 1,
            Mode::Cautious => self.stats.cautious_commits += 1,
        }
        if self.hastm() {
            self.controller.on_commit(false);
        }
        self.phase_commit_hook(false);
        self.active = false;
    }

    /// This thread's serial-token holder id (odd, so never the token's
    /// "free" value).
    fn token_id(&self) -> u64 {
        self.desc.0 | 1
    }

    /// Phase bookkeeping at commit: per-phase counters, then out of the
    /// phase gate with the heuristic event that may publish a transition.
    /// A no-op outside [`ModePolicy::Phased`].
    fn phase_commit_hook(&mut self, dirty: bool) {
        let Some(p) = self.phase.take() else {
            return;
        };
        self.stats.phase_commits[p.idx()] += 1;
        let event = if self.serial {
            PhaseEvent::SerialCommit
        } else if dirty {
            PhaseEvent::DirtyCommit
        } else {
            PhaseEvent::CleanCommit
        };
        self.leave_phase(p, Some(event));
    }

    /// Phase bookkeeping at abort: per-phase per-cause counters, then out
    /// of the phase gate with — for interference-caused aborts — the
    /// heuristic event. User-initiated aborts (retry, explicit) are not
    /// interference and feed no event.
    fn phase_abort_hook(&mut self, cause: Abort, class: Option<AbortClass>) {
        let Some(p) = self.phase.take() else {
            return;
        };
        debug_assert!(
            !self.serial || matches!(cause, Abort::Retry | Abort::Explicit),
            "serial transactions cannot conflict-abort (got {cause:?})"
        );
        let event = match class {
            Some(AbortClass::Conflict) => {
                self.stats.phase_aborts_conflict[p.idx()] += 1;
                Some(PhaseEvent::ConflictAbort)
            }
            Some(AbortClass::Capacity) => {
                self.stats.phase_aborts_capacity[p.idx()] += 1;
                Some(PhaseEvent::CapacityAbort)
            }
            None => None,
        };
        self.leave_phase(p, event);
    }

    /// Leaves the phase gate entered under `p`, counting a transition the
    /// event published.
    fn leave_phase(&mut self, p: Phase, event: Option<PhaseEvent>) {
        let rt = self.runtime;
        let ps = rt.phase_state().expect("a phase was entered");
        let entry = if std::mem::take(&mut self.serial) {
            Entry::Serial
        } else {
            Entry::Optimistic(p)
        };
        if ps.leave(entry, self.token_id(), event, self).is_some() {
            self.stats.phase_transitions += 1;
        }
    }

    /// Classifies a dirty-mark-counter abort by which loss class grew
    /// more during the attempt. Ties (including zero/zero, e.g. a counter
    /// bump from a whole-filter reset) default to capacity — the paper's
    /// conservative reading: indistinguishable losses are treated as the
    /// kind no backoff policy could fix.
    fn classify_mark_dirty(&mut self) -> AbortClass {
        let (cap, conf) = self.cpu.marked_loss_by_cause();
        let (cap0, conf0) = self.loss_base;
        if conf.saturating_sub(conf0) > cap.saturating_sub(cap0) {
            AbortClass::Conflict
        } else {
            AbortClass::Capacity
        }
    }

    /// Commits a snapshot read-only transaction: no validation, no locks
    /// to release, nothing that can fail. The reads were consistent by
    /// construction (every one resolved against the closed snapshot at
    /// `ro_start`), so the only work is the oracle obligation and
    /// deregistration.
    fn commit_snapshot(&mut self) {
        debug_assert!(self.is_snapshot());
        debug_assert!(
            self.write_set.is_empty() && self.undo_log.is_empty(),
            "snapshot transaction acquired records"
        );
        if self.oracle.enabled() {
            let reads = self.oracle.ro_reads();
            self.stats.oracle_commits_checked += 1;
            self.stats.oracle_reads_checked += reads.len() as u64;
            self.runtime
                .oracle_log()
                .record_ro_obligation(RoObligation {
                    core: self.cpu.id(),
                    epoch: self.cpu.run_epoch(),
                    start: self.ro_start,
                    reads,
                });
        }
        self.cpu.exec(1); // commit is a single deregistering store
        self.ro_unpin();
        self.stats.commits += 1;
        self.stats.ro_commits += 1;
        self.cpu.trace(hastm_sim::TraceEvent::TxnCommit);
        match self.mode {
            Mode::Aggressive => self.stats.aggressive_commits += 1,
            Mode::Cautious => self.stats.cautious_commits += 1,
        }
        self.phase_commit_hook(false);
        self.active = false;
    }

    /// Aborts the in-flight transaction: rolls back the undo log (eager
    /// version management) and releases owned records.
    pub(crate) fn abort(&mut self, cause: Abort) {
        debug_assert!(self.active);
        if self.is_snapshot() {
            // Only user-initiated aborts can reach here: the snapshot path
            // has no validation and acquires no records, so `Conflict` and
            // `MarkCounterDirty` are structurally impossible.
            debug_assert!(
                matches!(cause, Abort::Retry | Abort::Explicit),
                "snapshot read-only transaction aborted with {cause:?}"
            );
            self.stats.ro_aborts += 1;
            self.ro_unpin();
        }
        // Roll back newest-first so overlapping writes restore correctly.
        for i in (0..self.undo_log.len()).rev() {
            let u = self.undo_log[i];
            self.cpu.store_u64(u.addr, u.old);
            self.cpu.exec(1);
        }
        for i in 0..self.write_set.len() {
            let w = self.write_set[i];
            self.cpu.store_u64(w.rec, w.prev.bump().0);
            self.cpu.exec(1);
        }
        self.stats.record_abort(cause);
        self.cpu.trace(hastm_sim::TraceEvent::TxnAbort {
            cause: cause.slug(),
        });
        // Thread the abort's cause class (conflict vs capacity) to the
        // controller and the phase heuristics: a record conflict is a
        // conflict by construction; a dirty mark counter is classified by
        // which loss counter grew during the attempt.
        let class = match cause {
            Abort::Conflict => Some(AbortClass::Conflict),
            Abort::MarkCounterDirty => Some(self.classify_mark_dirty()),
            Abort::Retry | Abort::Explicit => None,
        };
        if self.hastm() {
            // Discard all marks: released records must not satisfy a later
            // transaction's fast path as if they were logged or owned.
            self.cpu.reset_mark_all();
            if let Some(class) = class {
                self.controller.on_abort(class);
            }
        }
        self.phase_abort_hook(cause, class);
        self.active = false;
    }

    // ------------------------------------------------------------------
    // Nested-transaction support (partial rollback)
    // ------------------------------------------------------------------

    /// Takes a savepoint over the three logs.
    pub(crate) fn savepoint(&self) -> Savepoint {
        Savepoint {
            reads: self.read_set.len(),
            writes: self.write_set.len(),
            undos: self.undo_log.len(),
            shadow_reads: self.oracle.mark(),
        }
    }

    /// Partially rolls back to `sp`: restores data written since the
    /// savepoint and releases records acquired since it, leaving the
    /// enclosing transaction's state intact.
    ///
    /// Two HASTM-specific obligations keep partial rollback sound with
    /// respect to the mark-bit filter (whose fast path trusts "marked ⇒
    /// covered by this transaction's validation"):
    ///
    /// * the read set is **not** truncated — records read (and marked)
    ///   inside the aborted scope stay logged, keeping dirty-counter
    ///   commits covered for any later fast-path read of them; and
    /// * every *released* record is appended to the read set at its
    ///   release version. A record that was only *written* in the aborted
    ///   scope stays marked but would otherwise have no entry at all: a
    ///   later fast-path read of it, followed by a remote update and a
    ///   dirty-counter commit, would slip through software validation —
    ///   an unserializable commit (caught by the [`crate::Oracle`]).
    ///
    /// Clean-counter commits need neither: intact marks guarantee no
    /// remote writes touched anything this transaction read.
    pub(crate) fn rollback_to(&mut self, sp: Savepoint) {
        for i in (sp.undos..self.undo_log.len()).rev() {
            let u = self.undo_log[i];
            self.cpu.store_u64(u.addr, u.old);
            self.cpu.exec(1);
        }
        self.undo_log.truncate(sp.undos);
        let hastm = self.hastm();
        let filter_writes = hastm && self.runtime.config().filter_writes;
        let heap = self.runtime.heap();
        for i in sp.writes..self.write_set.len() {
            let w = self.write_set[i];
            let released = w.prev.bump();
            self.cpu.store_u64(w.rec, released.0);
            self.cpu.exec(1);
            if filter_writes {
                // Released => no longer owned: the write filter must not
                // fast-path this record any more.
                self.cpu
                    .load_reset_mark_u64_f(hastm_sim::FilterId::WRITE, w.rec);
            }
            if hastm {
                // Keep the (still marked) record validated: log the
                // release version as a read.
                self.read_set.push(ReadEntry {
                    rec: w.rec,
                    version: released,
                });
                self.rd_region
                    .append(self.cpu, heap, &[w.rec.0, released.0]);
            }
        }
        self.write_set.truncate(sp.writes);
        self.owned.retain(|_, wi| (wi as usize) < sp.writes);
        if self.runtime.config().filter_writes {
            // Drop dedup entries for undo records that no longer exist.
            self.undo_logged.retain(|_, idx| (idx as usize) < sp.undos);
        }
        self.oracle.rollback_to(sp.shadow_reads, &self.undo_log);
        self.check_ownership("rollback_to");
    }

    /// Validates only the enclosing transaction's portion of the read set
    /// (entries below `sp`); used to decide whether a nested conflict can
    /// be retried locally or must abort the parent.
    pub(crate) fn parent_portion_valid(&mut self, sp: Savepoint) -> bool {
        for i in 0..sp.reads {
            let entry = self.read_set[i];
            let cur = RecValue(self.cpu.load_u64(entry.rec));
            self.cpu.exec(2);
            if cur == entry.version {
                continue;
            }
            if cur.is_owned() && cur.owner() == self.desc {
                if let Some(wi) = self.owned.get(entry.rec.0) {
                    if self.write_set[wi as usize].prev == entry.version {
                        continue;
                    }
                }
            }
            return false;
        }
        true
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates a fresh transactional object with `data_words` words of
    /// payload (minimum object size 16 bytes) and initializes its header
    /// record to the shared state at version 1.
    pub fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        let (obj, header) = self.runtime.alloc_obj_shell(self.cpu, data_words);
        self.cpu.store_u64(obj.header(), header);
        obj
    }
}

impl Drop for TxThread<'_, '_> {
    fn drop(&mut self) {
        if let (Some(slot), Some(store)) = (self.ro_slot, self.runtime.version_store()) {
            store.snapshots().release(slot);
        }
    }
}

/// The simulator's access to the phase word: each step is one gated op,
/// each wait is charged to contention.
impl Access for TxThread<'_, '_> {
    fn sync<T>(&mut self, step: impl FnOnce() -> T) -> T {
        self.cpu.exec_sync(1, step)
    }

    fn pause(&mut self, wait: Wait) {
        let cycles = match wait {
            Wait::Drain => 64,
            Wait::Token(spins) => 64 + (spins & 63),
        };
        self.timed(Category::Contention, |t| t.cpu.tick(cycles));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Granularity;
    use hastm_sim::{Machine, MachineConfig};

    fn setup(config: StmConfig) -> (Machine, StmRuntime) {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        (m, rt)
    }

    #[test]
    fn begin_commit_empty() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.begin(0);
            assert!(tx.is_active());
            tx.commit().expect("empty commit");
            assert!(!tx.is_active());
            assert_eq!(tx.stats().commits, 1);
        });
    }

    #[test]
    fn abort_rolls_back_undo_in_reverse() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let heap = rt.heap().clone();
        let target = heap.alloc(8);
        m.run_one(|cpu| {
            cpu.store_u64(target, 1);
            let mut tx = TxThread::new(&rt, cpu);
            tx.begin(0);
            // Two overlapping undo entries for the same word.
            tx.undo_log.push(UndoEntry {
                addr: target,
                old: 1,
                meta: 0,
            });
            tx.cpu.store_u64(target, 2);
            tx.undo_log.push(UndoEntry {
                addr: target,
                old: 2,
                meta: 0,
            });
            tx.cpu.store_u64(target, 3);
            tx.abort(Abort::Conflict);
            assert_eq!(tx.cpu.load_u64(target), 1, "reverse-order rollback");
            assert_eq!(tx.stats().aborts_conflict, 1);
        });
    }

    #[test]
    fn hastm_empty_txn_skips_validation() {
        let (mut m, rt) = setup(StmConfig::hastm_cautious(Granularity::CacheLine));
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            tx.begin(0);
            tx.commit().unwrap();
            assert_eq!(tx.stats().validations_skipped, 1);
            assert_eq!(tx.stats().validations_full, 0);
        });
    }

    #[test]
    fn alloc_obj_initializes_header() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::Object));
        let hdr = m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let o = tx.alloc_obj(2);
            o.header()
        });
        assert_eq!(m.peek_u64(hdr.0), RecValue::INITIAL.0);
    }

    #[test]
    fn savepoint_rollback_restores_partial_state() {
        let (mut m, rt) = setup(StmConfig::stm(Granularity::CacheLine));
        let heap = rt.heap().clone();
        let a = heap.alloc(8);
        let b = heap.alloc(8);
        m.run_one(|cpu| {
            cpu.store_u64(a, 10);
            cpu.store_u64(b, 20);
            let mut tx = TxThread::new(&rt, cpu);
            tx.begin(0);
            tx.undo_log.push(UndoEntry {
                addr: a,
                old: 10,
                meta: 0,
            });
            tx.cpu.store_u64(a, 11);
            let sp = tx.savepoint();
            tx.undo_log.push(UndoEntry {
                addr: b,
                old: 20,
                meta: 0,
            });
            tx.cpu.store_u64(b, 21);
            tx.rollback_to(sp);
            assert_eq!(tx.cpu.load_u64(a), 11, "pre-savepoint write survives");
            assert_eq!(tx.cpu.load_u64(b), 20, "post-savepoint write undone");
            assert_eq!(tx.undo_log.len(), 1);
            tx.abort(Abort::Explicit);
            assert_eq!(tx.cpu.load_u64(a), 10, "full abort undoes the rest");
        });
    }
}
