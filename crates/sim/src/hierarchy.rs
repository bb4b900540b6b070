//! Multi-core cache hierarchy: per-core L1s kept coherent with MESI, a
//! shared inclusive L2, the HASTM mark bits / mark counter, and line-watch
//! sets used by the HTM baseline.
//!
//! Mark-bit semantics implemented here (paper §3):
//!
//! * mark bits live in the L1 tag, one per 16-byte sub-block;
//! * a line brought into the L1 starts with all mark bits clear;
//! * when a *marked* line leaves the L1 — capacity/conflict eviction, snoop
//!   invalidation caused by another core's store, or back-invalidation from
//!   an inclusive L2 eviction — the owning thread's saturating **mark
//!   counter** is incremented;
//! * `resetmarkall` clears every mark bit and increments the counter;
//! * at [`IsaLevel::Default`] no mark state exists and every mark-setting or
//!   mark-clearing instruction conservatively increments the counter, making
//!   software fall back to its slow paths while remaining correct.
//!
//! # Visibility contract with the scheduler
//!
//! Everything in this module — cache state, watch sets, mark bits and
//! counters, coherence side effects on *other* cores (invalidations,
//!   downgrades, back-invalidations, watch violations) — is mutated only
//! from inside a gated operation, i.e. while the executing core holds the
//! machine's state guard, so a remote core observes the effects exactly
//! when it is next admitted. Nothing here is read outside the guard, so
//! coherence events that change which core the gate favors next are
//! always visible to the handoff computation.

use crate::addr::{subblock_mask, Addr, LineId};
use crate::cache::{Cache, FilterId, Mesi, NUM_FILTERS};
use crate::config::{IsaLevel, MachineConfig, L1_HIT, L2_HIT, MEM, STORE_LATENCY_CAP, UPGRADE};
use crate::mutant::{armed, Mutant};
use crate::stats::{CoreStats, MachineStats};
use crate::trace::{LossCause, TimedEvent, TraceConfig, TraceEvent, TraceLog, TraceRecorder};
use crate::words::WordTable;

/// Whether an access reads or writes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (or the load half of `loadtestmark` etc.).
    Load,
    /// A plain store (requires exclusive ownership; latency capped by the
    /// store buffer at 2 cycles).
    Store,
    /// An atomic read-modify-write: same coherence behavior as a store but
    /// fully serializing (uncapped latency).
    Rmw,
}

/// Mark manipulation performed together with a load.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MarkOp {
    /// `loadsetmark`: set the covered mark bits.
    Set,
    /// `loadresetmark`: clear the covered mark bits.
    Reset,
    /// `loadtestmark`: report the logical AND of the covered mark bits.
    Test,
}

/// How a line-watch (HTM read/write set membership) was registered.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WatchKind {
    /// Transactionally read: violated by a remote store or by losing the
    /// line to eviction/back-invalidation.
    Read,
    /// Transactionally (speculatively) written: additionally violated by a
    /// remote load, which would otherwise observe unbuffered state.
    Write,
}

/// Why a watch was violated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ViolationCause {
    /// Another core stored to the watched line (true data conflict).
    RemoteWrite,
    /// Another core loaded a line in the speculative write set.
    RemoteRead,
    /// The watched line left this core's L1 (capacity/conflict eviction or
    /// inclusive-L2 back-invalidation) — a *spurious* abort cause for HTM.
    Eviction,
    /// An injected non-coherence abort ([`MemSystem::inject_spurious_abort`])
    /// modeling interrupts, TLB shootdowns, and other transient events real
    /// HTMs abort on. Distinct from [`ViolationCause::Eviction`]: no line
    /// actually left the cache, so capacity-driven fallback heuristics must
    /// not treat it as capacity pressure.
    Spurious,
}

/// A recorded watch violation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WatchViolation {
    /// The line whose watch fired.
    pub line: LineId,
    /// Why.
    pub cause: ViolationCause,
}

/// HTM line-watch set: each watched line's kind, in a [`WordTable`] keyed
/// by line number, beside the first violation recorded against the set.
///
/// Watches are registered on every transactional access, probed on every
/// coherence event, and dropped wholesale at commit/abort — the hottest
/// bookkeeping in the simulator after the caches themselves. The table
/// registers a watch in one probe, clears with a counter bump, and keeps
/// its slots across clears, so a warm set never touches the heap.
#[derive(Debug, Default)]
struct WatchSet {
    lines: WordTable<WatchKind>,
    violation: Option<WatchViolation>,
}

impl WatchSet {
    #[inline]
    fn get(&self, line: LineId) -> Option<WatchKind> {
        self.lines.get(line.0)
    }

    fn insert(&mut self, line: LineId, kind: WatchKind) {
        let held = self.lines.get_or_insert(line.0, kind);
        // A write watch subsumes a read watch, never the reverse.
        if kind == WatchKind::Write {
            *held = WatchKind::Write;
        }
    }

    fn clear(&mut self) {
        self.lines.clear();
        self.violation = None;
    }

    #[inline]
    fn violate(&mut self, line: LineId, cause: ViolationCause) {
        // Fast path: cores running non-transactional phases have empty
        // watch sets, and a doomed core keeps only its first violation —
        // skip the probe in both cases. This sits on the store/invalidation
        // broadcast path, which every remote store takes once per core.
        if self.lines.is_empty() || self.violation.is_some() {
            return;
        }
        if self.get(line).is_some() {
            self.violation = Some(WatchViolation { line, cause });
        }
    }

    /// Records a violation against an arbitrary watched line regardless of
    /// which line a coherence event touched — the shape of a spurious
    /// abort: the table's first line in slot order. No-op when the set is
    /// empty (no transaction to doom) or already violated. Returns whether
    /// a violation was recorded.
    fn force_violation(&mut self, cause: ViolationCause) -> bool {
        if self.violation.is_some() {
            return false;
        }
        let Some((line, _)) = self.lines.first() else {
            return false;
        };
        self.violation = Some(WatchViolation {
            line: LineId(line),
            cause,
        });
        true
    }
}

/// The coherent memory system shared by all cores.
#[derive(Debug)]
pub struct MemSystem {
    l1s: Vec<Cache>,
    l2: Cache,
    isa: IsaLevel,
    prefetch: bool,
    /// Saturating mark counters: `[core][filter]`.
    mark_counters: Vec<[u64; NUM_FILTERS]>,
    watches: Vec<WatchSet>,
    /// Per-core event counters (cycles are filled in by the scheduler).
    pub core_stats: Vec<CoreStats>,
    /// Machine-wide counters.
    pub machine_stats: MachineStats,
    /// Reused line-id buffer for the snapshot paths (`flush_caches`), so
    /// those entry points stop allocating a fresh `Vec` per call.
    scratch: Vec<LineId>,
    /// Structured event recorder (see [`crate::trace`]). `None` keeps every
    /// emission site a single never-taken branch.
    trace: Option<TraceRecorder>,
}

impl MemSystem {
    /// A memory system matching `config`, with all caches empty and every
    /// mark counter at its architected default of "all ones" (the paper
    /// notes the counter need not be context-switched because it can be
    /// restored to all ones, which conservatively forces software
    /// validation).
    pub fn new(config: &MachineConfig) -> Self {
        let cores = config.cores;
        MemSystem {
            l1s: (0..cores).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            isa: config.isa,
            prefetch: config.prefetch_next_line,
            mark_counters: vec![[u64::MAX; NUM_FILTERS]; cores],
            watches: (0..cores).map(|_| WatchSet::default()).collect(),
            core_stats: vec![CoreStats::default(); cores],
            machine_stats: MachineStats::default(),
            scratch: Vec::new(),
            trace: None,
        }
    }

    /// Whether structured tracing is armed.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Arms (or disarms, with `None`) the structured event recorder.
    pub(crate) fn set_trace(&mut self, config: Option<TraceConfig>) {
        let cores = self.cores();
        self.trace = config.map(|TraceConfig| TraceRecorder::new(cores));
    }

    /// Clears all recorded events (run start).
    pub(crate) fn trace_reset(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.reset();
        }
    }

    /// Stamps and routes all staged events at logical `cycle`.
    pub(crate) fn trace_flush(&mut self, cycle: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.flush(cycle);
        }
    }

    /// End-of-gated-op hook: records the gate admission of global op `op`
    /// by `core`, then stamps and routes everything the op staged.
    pub(crate) fn trace_op_end(&mut self, core: usize, op: u64, cycle: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.op_end(core, op, cycle);
        }
    }

    /// Appends a worker's pre-stamped local events to `core`'s stream.
    pub(crate) fn trace_push_stamped(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        if let Some(t) = self.trace.as_mut() {
            t.push_stamped(core, events);
        }
    }

    /// Spills a dropping worker's leftover events into `core`'s tail.
    pub(crate) fn trace_push_tail(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        if let Some(t) = self.trace.as_mut() {
            t.push_tail(core, events);
        }
    }

    /// Harvests the recorded trace, leaving the recorder armed and empty.
    pub(crate) fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.as_mut().map(|t| t.take())
    }

    /// Stages an event against the affected `core`; stamped and routed at
    /// the end of the current gated op. One never-taken branch when off.
    #[inline]
    fn stage(&mut self, core: usize, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.stage(core, ev);
        }
    }

    /// Raises a spurious watch violation on `core`: its current
    /// transaction (if any) observes [`ViolationCause::Spurious`] at the
    /// next violation check, without any cache state changing. Models
    /// interrupt/TLB-shootdown aborts. Returns whether a transaction was
    /// actually doomed (false when `core` holds no watches).
    pub fn inject_spurious_abort(&mut self, core: usize) -> bool {
        self.watches[core].force_violation(ViolationCause::Spurious)
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// Mutable access to a core's counters (used by the CPU layer for
    /// events, like CAS, that the memory system cannot classify itself).
    pub fn core_stats_mut(&mut self, core: usize) -> &mut CoreStats {
        &mut self.core_stats[core]
    }

    /// Resets all per-run statistics (not cache or mark state).
    pub fn reset_stats(&mut self) {
        for s in &mut self.core_stats {
            *s = CoreStats::default();
        }
        self.machine_stats = MachineStats::default();
    }

    /// Empties every cache, losing all mark bits (counters are bumped as if
    /// the marked lines were evicted) and violating all watches.
    pub fn flush_caches(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for core in 0..self.cores() {
            scratch.clear();
            scratch.extend(self.l1s[core].iter().map(|l| l.id));
            for &id in &scratch {
                let line = self.l1s[core].remove(id).expect("resident");
                if line.is_marked() {
                    self.bump_counters_for_loss(core, &line);
                    self.core_stats[core].marked_lines_lost += 1;
                    self.core_stats[core].marked_lost_capacity += 1;
                }
                self.watches[core].violate(id, ViolationCause::Eviction);
            }
        }
        scratch.clear();
        scratch.extend(self.l2.iter().map(|l| l.id));
        for &id in &scratch {
            self.l2.remove(id);
        }
        self.scratch = scratch;
    }

    fn bump_mark_counter(&mut self, core: usize, filter: FilterId) {
        let c = &mut self.mark_counters[core][filter.idx()];
        *c = c.saturating_add(1);
        self.stage(core, TraceEvent::MarkCounterBump { filter: filter.0 });
    }

    /// Bumps every filter whose marks a lost line carried.
    fn bump_counters_for_loss(&mut self, core: usize, line: &crate::cache::Line) {
        for f in line.marked_filters() {
            self.bump_mark_counter(core, f);
        }
    }

    /// The architected mark counter of `core` for `filter`.
    pub fn mark_counter(&self, core: usize, filter: FilterId) -> u64 {
        self.mark_counters[core][filter.idx()]
    }

    /// `resetmarkcounter`.
    pub fn reset_mark_counter(&mut self, core: usize, filter: FilterId) {
        self.mark_counters[core][filter.idx()] = 0;
    }

    /// `resetmarkall`: clears all of `core`'s mark bits in `filter` and
    /// increments that filter's counter. At [`IsaLevel::Default`] only the
    /// increment happens.
    pub fn reset_mark_all(&mut self, core: usize, filter: FilterId) {
        if self.isa == IsaLevel::Full {
            self.l1s[core].clear_all_marks(filter);
        }
        self.bump_mark_counter(core, filter);
        self.core_stats[core].mark_resets += 1;
    }

    /// Handles a line being pushed out of `core`'s L1 (eviction, remote
    /// store, or back-invalidation): mark-counter bump if marked, watch
    /// violation, trace events.
    fn on_l1_loss(&mut self, core: usize, line: crate::cache::Line, cause: LossCause) {
        self.stage(
            core,
            TraceEvent::LineLoss {
                line: line.id,
                cause,
            },
        );
        if line.is_marked() {
            self.bump_counters_for_loss(core, &line);
            self.core_stats[core].marked_lines_lost += 1;
            match cause {
                LossCause::Remote => self.core_stats[core].marked_lost_conflict += 1,
                LossCause::Eviction | LossCause::BackInval => {
                    self.core_stats[core].marked_lost_capacity += 1
                }
            }
            // `Mutant::DroppedDiscardEvent` swallows the event of a loss
            // to an inclusive-L2 back-invalidation; the stats above still
            // count it, so only the trace-vs-stats reconciliation sees it.
            if !(cause == LossCause::BackInval && armed(Mutant::DroppedDiscardEvent)) {
                self.stage(
                    core,
                    TraceEvent::MarkDiscard {
                        line: line.id,
                        cause,
                    },
                );
            }
        }
        let violation = match cause {
            LossCause::Remote => ViolationCause::RemoteWrite,
            LossCause::Eviction | LossCause::BackInval => ViolationCause::Eviction,
        };
        self.watches[core].violate(line.id, violation);
    }

    /// Invalidates `line` from every L1 except `writer`'s (remote store).
    fn invalidate_others(&mut self, writer: usize, line: LineId) {
        for core in 0..self.cores() {
            if core == writer {
                continue;
            }
            if let Some(victim) = self.l1s[core].remove(line) {
                self.core_stats[core].invalidations_received += 1;
                self.on_l1_loss(core, victim, LossCause::Remote);
            } else {
                // Not resident, but an HTM write-buffer entry may still be
                // watched (the buffered line need not be cached).
                self.watches[core].violate(line, ViolationCause::RemoteWrite);
            }
        }
    }

    /// Downgrades `line` to Shared in every L1 except `reader`'s and fires
    /// remote-read violations on write-watches.
    fn downgrade_others(&mut self, reader: usize, line: LineId) -> bool {
        let mut other_has = false;
        for core in 0..self.cores() {
            if core == reader {
                continue;
            }
            if let Some(l) = self.l1s[core].lookup(line) {
                l.state = Mesi::Shared;
                other_has = true;
            }
            if self.watches[core].get(line) == Some(WatchKind::Write) {
                self.watches[core].violate(line, ViolationCause::RemoteRead);
            }
        }
        other_has
    }

    /// Brings `line`, which the L2 was just probed for and does not hold,
    /// into the L2, evicting a victim if its set is full.
    fn l2_fill(&mut self, line: LineId) {
        if let Some(victim) = self.l2.insert(line, Mesi::Exclusive) {
            self.l2_evicted(victim.id);
        }
    }

    /// Accounts for `line` having left the L2 and, the L2 being
    /// inclusive, back-invalidates every L1 copy of it.
    fn l2_evicted(&mut self, line: LineId) {
        self.machine_stats.l2_evictions += 1;
        self.stage(0, TraceEvent::L2Evict { line });
        for core in 0..self.cores() {
            if let Some(victim) = self.l1s[core].remove(line) {
                self.machine_stats.back_invalidations += 1;
                self.on_l1_loss(core, victim, LossCause::BackInval);
            }
        }
    }

    /// Evicts the `nth` (modulo residency) resident line from `core`'s L1
    /// as capacity pressure would: the line's marks are lost (bumping the
    /// mark counter) and its watches are violated, exactly like an organic
    /// eviction. Used by the fuzzed scheduler to exercise the §7.4
    /// spurious-loss paths on demand. Returns whether a line was evicted.
    pub fn inject_l1_eviction(&mut self, core: usize, nth: usize) -> bool {
        let resident = self.l1s[core].resident_lines();
        if resident == 0 {
            return false;
        }
        let id = self.l1s[core]
            .nth_resident(nth % resident)
            .expect("resident line");
        let victim = self.l1s[core].remove(id).expect("resident");
        self.on_l1_loss(core, victim, LossCause::Eviction);
        true
    }

    /// Evicts the `nth` (modulo residency) line from the shared L2 and
    /// back-invalidates every L1 copy — the same effect as an organic L2
    /// conflict eviction ("prefetches and speculative accesses from one
    /// core kick out marked cache lines from another core", §7.4). Returns
    /// whether a line was evicted.
    pub fn inject_back_invalidation(&mut self, nth: usize) -> bool {
        let resident = self.l2.resident_lines();
        if resident == 0 {
            return false;
        }
        let id = self.l2.nth_resident(nth % resident).expect("resident line");
        self.l2.remove(id);
        self.l2_evicted(id);
        true
    }

    /// Makes `line` resident in `core`'s L1 with sufficient permission,
    /// returning `(latency, was_miss)`. Only the hit arm is here, forced
    /// into every op that reaches it: it resolves almost every access once
    /// caches are warm, on a single `lookup`. The Shared→Modified upgrade
    /// (whose snoop walks the other L1s) and the miss are out of line, so
    /// their frames and saved registers are paid only when they run.
    #[inline(always)]
    fn ensure_resident(&mut self, core: usize, line: LineId, kind: AccessKind) -> (u64, bool) {
        let Some(l) = self.l1s[core].lookup(line) else {
            return (self.fill(core, line, kind), true);
        };
        let needs_upgrade = match (kind, l.state) {
            (AccessKind::Load, _) | (_, Mesi::Modified) => false,
            (_, Mesi::Exclusive) => {
                l.state = Mesi::Modified;
                false
            }
            (_, Mesi::Shared) => true,
        };
        self.core_stats[core].l1_hits += 1;
        if needs_upgrade {
            return (self.upgrade(core, line), false);
        }
        (L1_HIT, false)
    }

    /// A write hit on a Shared line: invalidates the other copies and
    /// takes the line to Modified. Returns the latency.
    #[inline(never)]
    fn upgrade(&mut self, core: usize, line: LineId) -> u64 {
        self.invalidate_others(core, line);
        self.l1s[core].lookup(line).expect("resident").state = Mesi::Modified;
        L1_HIT + UPGRADE
    }

    /// An L1 miss: snoops the other L1s, probes the L2 once (refreshing
    /// the line there if it hits), fills the L2 and then the L1. Returns
    /// the latency.
    #[inline(never)]
    fn fill(&mut self, core: usize, line: LineId, kind: AccessKind) -> u64 {
        self.core_stats[core].l1_misses += 1;
        let other_has_before = (0..self.cores()).any(|c| c != core && self.l1s[c].contains(line));
        // The snoops below touch only L1s, so probing the L2 here leaves
        // every L2 stamp what a probe after them would have made it.
        let in_l2 = self.l2.lookup(line).is_some();

        let state = match kind {
            AccessKind::Store | AccessKind::Rmw => {
                self.invalidate_others(core, line);
                Mesi::Modified
            }
            AccessKind::Load if self.downgrade_others(core, line) => Mesi::Shared,
            AccessKind::Load => Mesi::Exclusive,
        };

        let service = if in_l2 || other_has_before {
            self.core_stats[core].l2_hits += 1;
            L2_HIT
        } else {
            self.core_stats[core].mem_accesses += 1;
            MEM
        };
        if !in_l2 {
            self.l2_fill(line);
        }
        if let Some(victim) = self.l1s[core].insert(line, state) {
            self.on_l1_loss(core, victim, LossCause::Eviction);
        }
        service
    }

    /// Next-line prefetch after a miss on `line`: fills (and pollutes) the
    /// L1 off the critical path; charged no latency.
    #[cold]
    fn prefetch_after(&mut self, core: usize, line: LineId) {
        let next = LineId(line.0 + 1);
        if !self.l1s[core].contains(next) {
            self.core_stats[core].prefetch_fills += 1;
            self.ensure_resident(core, next, AccessKind::Load);
        }
    }

    /// Performs a plain load or store by `core` at `addr`, returning the
    /// latency in cycles. (Data itself lives in [`crate::mem::Memory`].)
    #[inline(always)]
    pub fn access(&mut self, core: usize, addr: Addr, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Load => self.core_stats[core].loads += 1,
            AccessKind::Store | AccessKind::Rmw => self.core_stats[core].stores += 1,
        }
        let line = addr.line();
        let (mut lat, was_miss) = self.ensure_resident(core, line, kind);
        self.stage(
            core,
            TraceEvent::CacheAccess {
                line,
                write: kind != AccessKind::Load,
                miss: was_miss,
            },
        );
        if kind == AccessKind::Store {
            // Store-buffer absorption: the fill happens off the critical
            // path; cache-state effects above are already applied.
            lat = lat.min(STORE_LATENCY_CAP);
        }
        if self.prefetch && was_miss {
            self.prefetch_after(core, line);
        }
        lat
    }

    /// Performs a mark-variant load covering `len` bytes at `addr` against
    /// `filter`, returning `(latency, test_result)`. `test_result` is
    /// meaningful only for [`MarkOp::Test`] and is the logical AND of the
    /// covered mark bits.
    #[inline(always)]
    pub fn mark_access(
        &mut self,
        core: usize,
        addr: Addr,
        len: u64,
        op: MarkOp,
        filter: FilterId,
    ) -> (u64, bool) {
        self.core_stats[core].loads += 1;
        match op {
            MarkOp::Set => self.core_stats[core].mark_sets += 1,
            MarkOp::Test => self.core_stats[core].mark_tests += 1,
            MarkOp::Reset => {}
        }
        let line = addr.line();
        let (latency, was_miss) = self.ensure_resident(core, line, AccessKind::Load);
        // Mark the line `ensure_resident` just refreshed or filled, before
        // the prefetch below: that fills the next line, which lands in
        // another set unless the L1 has only one, so marks and LRU order
        // are as if the line were marked after it.
        let marked = match self.isa {
            IsaLevel::Full => Some(self.l1s[core].mark(filter, op, subblock_mask(addr, len))),
            IsaLevel::Default => None,
        };
        self.stage(
            core,
            TraceEvent::CacheAccess {
                line,
                write: false,
                miss: was_miss,
            },
        );
        if self.prefetch && was_miss {
            self.prefetch_after(core, line);
        }

        let Some(result) = marked else {
            // §3.3 default behavior: loadsetmark increments the counter,
            // loadresetmark is a plain load, loadtestmark clears the flag.
            if op == MarkOp::Set {
                self.bump_mark_counter(core, filter);
            }
            return (latency, false);
        };
        if op == MarkOp::Set {
            self.stage(core, TraceEvent::MarkSet { line });
        }
        if op == MarkOp::Test && result {
            self.core_stats[core].mark_test_hits += 1;
        }
        (latency, result)
    }

    /// Registers an HTM-style watch on `line` for `core`. A `Write` watch
    /// subsumes an existing `Read` watch; a `Read` watch never downgrades a
    /// `Write` watch.
    pub fn watch(&mut self, core: usize, line: LineId, kind: WatchKind) {
        self.watches[core].insert(line, kind);
    }

    /// Clears `core`'s watch set and any pending violation.
    pub fn clear_watches(&mut self, core: usize) {
        self.watches[core].clear();
    }

    /// The first violation recorded against `core`'s watch set, if any.
    pub fn violation(&self, core: usize) -> Option<WatchViolation> {
        self.watches[core].violation
    }

    /// Number of lines currently watched by `core`.
    pub fn watched_lines(&self, core: usize) -> usize {
        self.watches[core].lines.len()
    }

    /// Number of lines resident in `core`'s L1 marked in `filter`
    /// (test/debug aid).
    pub fn marked_lines(&self, core: usize, filter: FilterId) -> usize {
        self.l1s[core].marked_lines(filter)
    }

    /// Whether `line` is resident in `core`'s L1 (test/debug aid).
    pub fn l1_contains(&self, core: usize, line: LineId) -> bool {
        self.l1s[core].contains(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn sys(cores: usize) -> MemSystem {
        let cfg = MachineConfig {
            cores,
            l1: CacheConfig::new(4, 2),
            l2: CacheConfig::new(16, 4),
            isa: IsaLevel::Full,
            prefetch_next_line: false,
            ..MachineConfig::default()
        };
        MemSystem::new(&cfg)
    }

    const A: Addr = Addr(0x1000);
    const B: Addr = Addr(0x2000);

    #[test]
    fn cold_miss_then_hit() {
        let mut s = sys(1);
        let miss = s.access(0, A, AccessKind::Load);
        assert_eq!(miss, MEM);
        let hit = s.access(0, A, AccessKind::Load);
        assert_eq!(hit, L1_HIT);
        assert_eq!(s.core_stats[0].l1_hits, 1);
        assert_eq!(s.core_stats[0].l1_misses, 1);
        assert_eq!(s.core_stats[0].mem_accesses, 1);
    }

    #[test]
    fn l2_services_second_core() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        let lat = s.access(1, A, AccessKind::Load);
        assert_eq!(lat, L2_HIT);
        assert_eq!(s.core_stats[1].l2_hits, 1);
    }

    #[test]
    fn exclusive_then_shared_states() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        assert_eq!(s.l1s[0].peek(A.line()).unwrap().state, Mesi::Exclusive);
        s.access(1, A, AccessKind::Load);
        assert_eq!(s.l1s[0].peek(A.line()).unwrap().state, Mesi::Shared);
        assert_eq!(s.l1s[1].peek(A.line()).unwrap().state, Mesi::Shared);
    }

    #[test]
    fn store_invalidates_other_copies() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        s.access(1, A, AccessKind::Store);
        assert!(!s.l1_contains(0, A.line()));
        assert_eq!(s.l1s[1].peek(A.line()).unwrap().state, Mesi::Modified);
        assert_eq!(s.core_stats[0].invalidations_received, 1);
    }

    #[test]
    fn shared_store_pays_upgrade() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        s.access(1, A, AccessKind::Load);
        // A plain store's visible latency is absorbed by the store buffer,
        // but the invalidation still happens; an RMW pays the full
        // round-trip.
        let lat = s.access(0, A, AccessKind::Store);
        assert_eq!(lat, STORE_LATENCY_CAP);
        assert!(!s.l1_contains(1, A.line()));
        s.access(1, A, AccessKind::Load);
        let lat_rmw = s.access(0, A, AccessKind::Rmw);
        assert_eq!(lat_rmw, L1_HIT + UPGRADE);
        assert!(!s.l1_contains(1, A.line()));
    }

    #[test]
    fn every_l1_hit_arm_by_kind_and_state() {
        use AccessKind::{Load, Rmw, Store};
        use Mesi::{Exclusive, Modified, Shared};
        let (hit, up, cap) = (L1_HIT, L1_HIT + UPGRADE, STORE_LATENCY_CAP);
        // (kind, core 0's state before, latency, state after, core 1's
        // invalidations)
        let table = [
            (Load, Modified, hit, Modified, 0),
            (Load, Exclusive, hit, Exclusive, 0),
            (Load, Shared, hit, Shared, 0),
            (Store, Modified, hit.min(cap), Modified, 0),
            (Store, Exclusive, hit.min(cap), Modified, 0),
            (Store, Shared, up.min(cap), Modified, 1),
            (Rmw, Modified, hit, Modified, 0),
            (Rmw, Exclusive, hit, Modified, 0),
            (Rmw, Shared, up, Modified, 1),
        ];
        for (kind, before, lat, after, invals) in table {
            let mut s = sys(2);
            let warm: &[(usize, AccessKind)] = match before {
                Modified => &[(0, Store)],
                Exclusive => &[(0, Load)],
                Shared => &[(0, Load), (1, Load)],
            };
            for &(core, k) in warm {
                s.access(core, A, k);
            }
            assert_eq!(s.l1s[0].peek(A.line()).unwrap().state, before);
            s.reset_stats();
            let case = format!("{kind:?} on {before:?}");
            assert_eq!(s.access(0, A, kind), lat, "{case}: latency");
            assert_eq!(s.l1s[0].peek(A.line()).unwrap().state, after, "{case}");
            assert_eq!(s.core_stats[0].l1_hits, 1, "{case}: l1_hits");
            assert_eq!(s.core_stats[0].l1_misses, 0, "{case}: l1_misses");
            let got = s.core_stats[1].invalidations_received;
            assert_eq!(got, invals, "{case}: invalidations");
        }
    }

    #[test]
    fn an_l1_miss_served_by_the_l2_refreshes_the_l2_line() {
        // Lines 0, 16, 32, 48, 64 share L2 set 0 (4 ways) and L1 set 0 (2
        // ways), so line 0 leaves the L1 but stays in the L2.
        let line = |k: u64| Addr(16 * 64 * k);
        let mut s = sys(1);
        for k in 0..4 {
            s.access(0, line(k), AccessKind::Load);
        }
        assert!(!s.l1_contains(0, line(0).line()));
        s.access(0, line(0), AccessKind::Load);
        assert_eq!(s.core_stats[0].l2_hits, 1, "the L2 serves line 0");
        // The L2 set is full; its least recently used line is now 16.
        s.access(0, line(4), AccessKind::Load);
        assert!(s.l2.contains(line(0).line()), "line 0 was refreshed");
        assert!(!s.l2.contains(line(1).line()), "line 16 is the victim");
        assert!(s.l1_contains(0, line(0).line()));
        assert_eq!(s.machine_stats.back_invalidations, 0);
    }

    // --- Figure 1 state machine: mark bits ---

    #[test]
    fn loadsetmark_sets_and_loadtestmark_sees_it() {
        let mut s = sys(1);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(t);
        // A different sub-block of the same line is not marked.
        let (_, t2) = s.mark_access(0, A.offset(16), 8, MarkOp::Test, FilterId::READ);
        assert!(!t2);
        assert_eq!(s.core_stats[0].mark_test_hits, 1);
        assert_eq!(s.core_stats[0].mark_tests, 2);
    }

    #[test]
    fn loadresetmark_clears() {
        let mut s = sys(1);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Reset, FilterId::READ);
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(!t);
    }

    #[test]
    fn line_granularity_marks_all_subblocks() {
        let mut s = sys(1);
        s.mark_access(0, A.line_base(), 64, MarkOp::Set, FilterId::READ);
        for sb in 0..4 {
            let (_, t) = s.mark_access(
                0,
                A.line_base().offset(16 * sb),
                8,
                MarkOp::Test,
                FilterId::READ,
            );
            assert!(t, "sub-block {sb} marked");
        }
        // Whole-line test is the AND of all four.
        let (_, t) = s.mark_access(0, A.line_base(), 64, MarkOp::Test, FilterId::READ);
        assert!(t);
    }

    #[test]
    fn whole_line_test_is_and_of_bits() {
        let mut s = sys(1);
        s.mark_access(0, A.line_base(), 8, MarkOp::Set, FilterId::READ); // only sub-block 0
        let (_, t) = s.mark_access(0, A.line_base(), 64, MarkOp::Test, FilterId::READ);
        assert!(!t, "AND over partially marked line is false");
    }

    #[test]
    fn remote_store_discards_marks_and_bumps_counter() {
        let mut s = sys(2);
        s.reset_mark_counter(0, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        assert_eq!(s.mark_counter(0, FilterId::READ), 0);
        s.access(1, A, AccessKind::Store);
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        assert_eq!(s.core_stats[0].marked_lines_lost, 1);
        // Re-testing re-fetches the line; marks are gone.
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(!t);
    }

    #[test]
    fn remote_load_does_not_discard_marks() {
        let mut s = sys(2);
        s.reset_mark_counter(0, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.access(1, A, AccessKind::Load);
        assert_eq!(s.mark_counter(0, FilterId::READ), 0);
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(t, "shared read keeps the mark");
    }

    #[test]
    fn capacity_eviction_of_marked_line_bumps_counter() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        // L1 is 4 sets x 2 ways; lines 0x40*k with k ≡ same set collide.
        // Set index = line_id & 3. Lines with id 0,4,8 share set 0.
        let l0 = Addr(0);
        let l4 = Addr(4 * 64);
        let l8 = Addr(8 * 64);
        s.mark_access(0, l0, 8, MarkOp::Set, FilterId::READ);
        s.access(0, l4, AccessKind::Load);
        s.access(0, l8, AccessKind::Load); // evicts l0 (LRU)
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        assert!(!s.l1_contains(0, l0.line()));
    }

    #[test]
    fn reset_mark_all_clears_and_increments() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.mark_access(0, B, 8, MarkOp::Set, FilterId::READ);
        assert_eq!(s.marked_lines(0, FilterId::READ), 2);
        s.reset_mark_all(0, FilterId::READ);
        assert_eq!(s.marked_lines(0, FilterId::READ), 0);
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        // Lines themselves stay resident (it's not a flush).
        assert!(s.l1_contains(0, A.line()));
    }

    #[test]
    fn mark_counter_defaults_to_all_ones() {
        let s = sys(1);
        assert_eq!(s.mark_counter(0, FilterId::READ), u64::MAX);
    }

    #[test]
    fn mark_counter_saturates() {
        let mut s = sys(1);
        // Already at MAX; resetmarkall must not wrap.
        s.reset_mark_all(0, FilterId::READ);
        assert_eq!(s.mark_counter(0, FilterId::READ), u64::MAX);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1_copies() {
        // L2 of 16 sets x 4 ways: lines 0, 16, 32, 48, 64 share L2 set 0
        // (and L1 set 0, of 2 ways). Re-touching the marked line before each
        // fill keeps it the L1's most recent, so the L1 evicts only the
        // others; the L2, which an L1 hit does not refresh, evicts it first.
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        let mk = Addr(0);
        s.mark_access(0, mk, 8, MarkOp::Set, FilterId::READ);
        for k in 1..=4u64 {
            s.access(0, mk, AccessKind::Load);
            s.access(0, Addr(16 * 64 * k), AccessKind::Load);
        }
        assert_eq!(s.machine_stats.l2_evictions, 1, "L2 set 0 overflowed once");
        assert_eq!(s.machine_stats.back_invalidations, 1);
        assert!(!s.l1_contains(0, mk.line()), "marked line back-invalidated");
        assert_eq!(s.mark_counter(0, FilterId::READ), 1, "marks lost");
    }

    #[test]
    fn default_isa_level_is_conservative() {
        let cfg = MachineConfig {
            cores: 1,
            isa: IsaLevel::Default,
            ..MachineConfig::default()
        };
        let mut s = MemSystem::new(&cfg);
        s.reset_mark_counter(0, FilterId::READ);
        // loadsetmark increments the counter instead of marking.
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        // loadtestmark always reports unmarked.
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(!t);
        // resetmarkall still increments.
        s.reset_mark_all(0, FilterId::READ);
        assert_eq!(s.mark_counter(0, FilterId::READ), 2);
    }

    // --- watch sets (HTM substrate) ---

    #[test]
    fn read_watch_violated_by_remote_store() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        s.watch(0, A.line(), WatchKind::Read);
        assert!(s.violation(0).is_none());
        s.access(1, A, AccessKind::Store);
        let v = s.violation(0).expect("violated");
        assert_eq!(v.cause, ViolationCause::RemoteWrite);
        assert_eq!(v.line, A.line());
    }

    #[test]
    fn read_watch_not_violated_by_remote_load() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        s.watch(0, A.line(), WatchKind::Read);
        s.access(1, A, AccessKind::Load);
        assert!(s.violation(0).is_none());
    }

    #[test]
    fn write_watch_violated_by_remote_load() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Store);
        s.watch(0, A.line(), WatchKind::Write);
        s.access(1, A, AccessKind::Load);
        let v = s.violation(0).expect("violated");
        assert_eq!(v.cause, ViolationCause::RemoteRead);
    }

    #[test]
    fn eviction_violates_watch() {
        let mut s = sys(1);
        let l0 = Addr(0);
        s.access(0, l0, AccessKind::Load);
        s.watch(0, l0.line(), WatchKind::Read);
        s.access(0, Addr(4 * 64), AccessKind::Load);
        s.access(0, Addr(8 * 64), AccessKind::Load); // evicts l0
        let v = s.violation(0).expect("capacity violation");
        assert_eq!(v.cause, ViolationCause::Eviction);
    }

    #[test]
    fn clear_watches_resets_violation() {
        let mut s = sys(2);
        s.access(0, A, AccessKind::Load);
        s.watch(0, A.line(), WatchKind::Read);
        s.access(1, A, AccessKind::Store);
        assert!(s.violation(0).is_some());
        s.clear_watches(0);
        assert!(s.violation(0).is_none());
        assert_eq!(s.watched_lines(0), 0);
    }

    #[test]
    fn write_watch_subsumes_read() {
        let mut s = sys(2);
        s.watch(0, A.line(), WatchKind::Read);
        s.watch(0, A.line(), WatchKind::Write);
        s.watch(0, A.line(), WatchKind::Read); // must not downgrade
        s.access(1, A, AccessKind::Load);
        assert!(s.violation(0).is_some(), "still a write watch");
    }

    #[test]
    fn prefetcher_fills_next_line() {
        let cfg = MachineConfig {
            cores: 1,
            prefetch_next_line: true,
            ..MachineConfig::default()
        };
        let mut s = MemSystem::new(&cfg);
        s.access(0, Addr(0x1000), AccessKind::Load);
        assert!(
            s.l1_contains(0, Addr(0x1040).line()),
            "next line prefetched"
        );
        assert_eq!(s.core_stats[0].prefetch_fills, 1);
        // The prefetched line now hits.
        let lat = s.access(0, Addr(0x1040), AccessKind::Load);
        assert_eq!(lat, L1_HIT);
        // Hits do not prefetch.
        s.access(0, Addr(0x1000), AccessKind::Load);
        assert_eq!(s.core_stats[0].prefetch_fills, 1);
    }

    #[test]
    fn prefetch_also_serves_mark_loads() {
        let cfg = MachineConfig {
            cores: 1,
            prefetch_next_line: true,
            ..MachineConfig::default()
        };
        let mut s = MemSystem::new(&cfg);
        s.mark_access(0, Addr(0x2000), 8, MarkOp::Set, FilterId::READ);
        assert!(s.l1_contains(0, Addr(0x2040).line()));
    }

    #[test]
    fn store_latency_is_capped_but_rmw_is_not() {
        let mut s = sys(1);
        // Cold store: full miss handled off the critical path.
        let lat = s.access(0, Addr(0x9000), AccessKind::Store);
        assert_eq!(lat, STORE_LATENCY_CAP);
        // Cold RMW: pays the whole memory latency.
        let lat = s.access(0, Addr(0xa000), AccessKind::Rmw);
        assert_eq!(lat, MEM);
    }

    #[test]
    fn filters_are_independent() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.reset_mark_counter(0, FilterId::WRITE);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        // Filter 1 does not see filter 0's mark.
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::WRITE);
        assert!(!t);
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(t);
        // resetmarkall on filter 1 leaves filter 0's marks alone.
        s.reset_mark_all(0, FilterId::WRITE);
        let (_, t) = s.mark_access(0, A, 8, MarkOp::Test, FilterId::READ);
        assert!(t);
        assert_eq!(s.mark_counter(0, FilterId::READ), 0);
        assert_eq!(s.mark_counter(0, FilterId::WRITE), 1);
    }

    #[test]
    fn line_loss_bumps_every_marked_filter() {
        let mut s = sys(2);
        s.reset_mark_counter(0, FilterId::READ);
        s.reset_mark_counter(0, FilterId::WRITE);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::WRITE);
        s.access(1, A, AccessKind::Store);
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        assert_eq!(s.mark_counter(0, FilterId::WRITE), 1);
    }

    #[test]
    fn line_loss_spares_unmarked_filter() {
        let mut s = sys(2);
        s.reset_mark_counter(0, FilterId::READ);
        s.reset_mark_counter(0, FilterId::WRITE);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.access(1, A, AccessKind::Store);
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        assert_eq!(s.mark_counter(0, FilterId::WRITE), 0);
    }

    #[test]
    fn flush_caches_loses_marks_and_watches() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        s.watch(0, A.line(), WatchKind::Read);
        s.flush_caches();
        assert_eq!(s.mark_counter(0, FilterId::READ), 1);
        assert!(s.violation(0).is_some());
        assert!(!s.l1_contains(0, A.line()));
        // Next access is a cold miss again.
        let lat = s.access(0, A, AccessKind::Load);
        assert_eq!(lat, MEM);
    }

    // --- Fuzzed-scheduler pressure injection ---

    #[test]
    fn injected_l1_eviction_behaves_like_organic_eviction() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.mark_access(0, A, 8, MarkOp::Set, FilterId::READ);
        // Only one resident line, so any `nth` selects it.
        assert!(s.inject_l1_eviction(0, 13));
        assert!(!s.l1_contains(0, A.line()));
        assert_eq!(s.mark_counter(0, FilterId::READ), 1, "marked loss bumps");
        assert_eq!(s.core_stats[0].marked_lines_lost, 1);
        // Nothing left to evict.
        assert!(!s.inject_l1_eviction(0, 0));
    }

    #[test]
    fn injected_eviction_of_unmarked_line_leaves_counter_alone() {
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.access(0, A, AccessKind::Load);
        assert!(s.inject_l1_eviction(0, 0));
        assert_eq!(s.mark_counter(0, FilterId::READ), 0);
        assert_eq!(s.core_stats[0].marked_lines_lost, 0);
    }

    #[test]
    fn injected_back_invalidation_reaches_marked_l1_copies() {
        let mut s = sys(2);
        s.reset_mark_counter(1, FilterId::READ);
        s.mark_access(1, A, 8, MarkOp::Set, FilterId::READ);
        assert!(s.inject_back_invalidation(7));
        assert!(!s.l1_contains(1, A.line()), "inclusive victim leaves L1s");
        assert_eq!(s.mark_counter(1, FilterId::READ), 1);
        assert!(s.machine_stats.back_invalidations >= 1);
        assert!(s.machine_stats.l2_evictions >= 1);
    }

    #[test]
    fn injected_back_invalidation_on_empty_l2_is_noop() {
        let mut s = sys(1);
        assert!(!s.inject_back_invalidation(0));
        assert_eq!(s.machine_stats.l2_evictions, 0);
    }

    // --- eviction / replacement edge cases ---

    #[test]
    fn eviction_bumps_only_the_marked_filters_counter() {
        // A line marked only in the WRITE filter, discarded on capacity
        // eviction, must bump exactly that filter's counter.
        let mut s = sys(1);
        s.reset_mark_counter(0, FilterId::READ);
        s.reset_mark_counter(0, FilterId::WRITE);
        let l0 = Addr(0);
        s.mark_access(0, l0, 8, MarkOp::Set, FilterId::WRITE);
        s.access(0, Addr(4 * 64), AccessKind::Load);
        s.access(0, Addr(8 * 64), AccessKind::Load); // evicts l0 (LRU)
        assert!(!s.l1_contains(0, l0.line()));
        assert_eq!(s.mark_counter(0, FilterId::WRITE), 1);
        assert_eq!(s.mark_counter(0, FilterId::READ), 0);
        assert_eq!(s.core_stats[0].marked_lines_lost, 1);
    }

    #[test]
    fn back_invalidation_violates_watch_with_eviction_cause() {
        let mut s = sys(2);
        s.access(1, A, AccessKind::Load);
        s.watch(1, A.line(), WatchKind::Read);
        assert!(s.inject_back_invalidation(0));
        let v = s.violation(1).expect("watched line back-invalidated");
        assert_eq!(v.cause, ViolationCause::Eviction);
        assert_eq!(v.line, A.line());
    }

    #[test]
    fn lru_tie_breaks_toward_older_insertion() {
        // Two untouched-since-insert lines in one set: the earlier insert
        // holds the strictly smaller LRU tick and must be the victim.
        let mut s = sys(1);
        let l0 = Addr(0);
        let l4 = Addr(4 * 64);
        let l8 = Addr(8 * 64);
        s.access(0, l0, AccessKind::Load);
        s.access(0, l4, AccessKind::Load);
        s.access(0, l8, AccessKind::Load); // set 0 full: victim must be l0
        assert!(!s.l1_contains(0, l0.line()));
        assert!(s.l1_contains(0, l4.line()));
        assert!(s.l1_contains(0, l8.line()));
    }

    // --- watch-set table mechanics ---

    #[test]
    fn watch_set_survives_growth_past_initial_capacity() {
        let mut s = sys(2);
        // Register far more watches than the initial slot count; lines are
        // spread across the address space so probing and growth both run.
        for i in 0..200u64 {
            s.watch(0, LineId(i * 3 + 1), WatchKind::Read);
        }
        assert_eq!(s.watched_lines(0), 200);
        // Re-registering existing lines must not inflate the count.
        for i in 0..200u64 {
            s.watch(0, LineId(i * 3 + 1), WatchKind::Write);
        }
        assert_eq!(s.watched_lines(0), 200);
        // A remote load now violates (Write watch upheld through growth).
        s.access(1, Addr((7 * 3 + 1) * 64), AccessKind::Load);
        let v = s.violation(0).expect("write watch fires after growth");
        assert_eq!(v.cause, ViolationCause::RemoteRead);
        s.clear_watches(0);
        assert_eq!(s.watched_lines(0), 0);
        assert!(s.violation(0).is_none());
    }

    #[test]
    fn cleared_watches_do_not_resurface_across_generations() {
        let mut s = sys(2);
        s.watch(0, A.line(), WatchKind::Read);
        s.clear_watches(0);
        // The slot still physically holds the stale entry; a remote store
        // must not see it as live.
        s.access(1, A, AccessKind::Store);
        assert!(s.violation(0).is_none(), "stale generation must be dead");
        // Re-watching the same line in the new generation works. Core 0
        // loads first so core 1's copy is demoted to Shared and its next
        // store raises coherence traffic instead of hitting silently.
        s.access(0, A, AccessKind::Load);
        s.watch(0, A.line(), WatchKind::Read);
        assert_eq!(s.watched_lines(0), 1);
        s.access(1, A, AccessKind::Store);
        assert!(s.violation(0).is_some());
    }
}
