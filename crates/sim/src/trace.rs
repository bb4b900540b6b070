//! Structured tracing and metrics: typed events with cycle timestamps, a
//! per-core ring-buffer recorder, a Chrome/Perfetto `trace_events` JSON
//! exporter, and trace-vs-statistics reconciliation checks.
//!
//! # Zero cost when off
//!
//! The recorder lives in the memory system as an `Option<TraceRecorder>`;
//! every emission site is a single `is_some()` branch when tracing is
//! disabled, no allocation happens, and the simulated run is bit-identical
//! to a never-traced run (tracing charges no cycles and is never a gated
//! operation, so it cannot shift the global op counter or the schedule).
//!
//! # Determinism
//!
//! Events are staged while the executing core holds the machine's state
//! lock and are routed to the *affected* core's ring at the end of each
//! gated operation, in gate order. The only host-racy moment — a worker's
//! `Cpu` dropping with locally buffered events — lands in a separate
//! per-core tail buffer, so the harvested [`TraceLog`] is a pure function
//! of the configuration and seed regardless of host thread timing.

use crate::addr::LineId;

/// Configuration for the trace recorder.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum retained events per core. When a ring overflows, the oldest
    /// events are overwritten and [`TraceLog::dropped`] counts the loss
    /// (reconciliation checks are skipped on lossy traces).
    pub per_core_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            per_core_capacity: 65_536,
        }
    }
}

/// Why a line left an L1 (the mark-discard / watch-violation paths).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LossCause {
    /// Capacity/conflict eviction from the owning L1.
    Eviction,
    /// Snooped away by a remote core's store.
    Remote,
    /// Back-invalidated by an inclusive-L2 eviction.
    BackInval,
}

impl LossCause {
    /// Short label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            LossCause::Eviction => "eviction",
            LossCause::Remote => "remote-write",
            LossCause::BackInval => "back-invalidation",
        }
    }
}

/// Transactional work category, mirrored from the STM layer's
/// `Category` (the simulator cannot depend on the STM crate; the STM maps
/// its categories onto this enum when emitting [`TraceEvent::Phase`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Thread-local-state access at barrier entry.
    Tls,
    /// Read barriers.
    ReadBarrier,
    /// Write barriers (including undo logging).
    WriteBarrier,
    /// Read-set validation.
    Validate,
    /// Commit processing.
    Commit,
    /// Contention handling (backoff waits).
    Contention,
    /// Application work inside the transaction.
    App,
}

/// All phases, in the order used by [`PhaseSums`].
pub const TXN_PHASES: [TxnPhase; 7] = [
    TxnPhase::Tls,
    TxnPhase::ReadBarrier,
    TxnPhase::WriteBarrier,
    TxnPhase::Validate,
    TxnPhase::Commit,
    TxnPhase::Contention,
    TxnPhase::App,
];

impl TxnPhase {
    /// Stable label used by the Chrome exporter and summarizer.
    pub fn label(self) -> &'static str {
        match self {
            TxnPhase::Tls => "tls",
            TxnPhase::ReadBarrier => "read_barrier",
            TxnPhase::WriteBarrier => "write_barrier",
            TxnPhase::Validate => "validate",
            TxnPhase::Commit => "commit",
            TxnPhase::Contention => "contention",
            TxnPhase::App => "app",
        }
    }
}

/// One typed trace event. The `core` an event belongs to is the *affected*
/// core (e.g. a back-invalidation event lands on the core that lost the
/// line, not the core whose access triggered it).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The gate admitted this core for global op `op` (one per gated op).
    GateAdmit {
        /// Global gated-op index.
        op: u64,
    },
    /// A demand data access (load/store/RMW or mark-variant load).
    CacheAccess {
        /// Line touched.
        line: LineId,
        /// Store or RMW.
        write: bool,
        /// Missed the L1.
        miss: bool,
    },
    /// A line left this core's L1.
    LineLoss {
        /// Line lost.
        line: LineId,
        /// Why.
        cause: LossCause,
    },
    /// The shared L2 evicted a line (back-invalidations follow as
    /// [`TraceEvent::LineLoss`] on each victim core when inclusive).
    L2Evict {
        /// Line evicted.
        line: LineId,
    },
    /// Mark bits were set on a line (`loadsetmark` family).
    MarkSet {
        /// Line marked.
        line: LineId,
    },
    /// A *marked* line was discarded, losing its mark bits.
    MarkDiscard {
        /// Line whose marks were lost.
        line: LineId,
        /// Why.
        cause: LossCause,
    },
    /// The saturating mark counter was incremented.
    MarkCounterBump {
        /// Filter index whose counter bumped.
        filter: u8,
    },
    /// A hardware transaction attempt began.
    HtmBegin,
    /// A hardware transaction committed.
    HtmCommit,
    /// A hardware transaction aborted.
    HtmAbort {
        /// Stable cause label ("conflict", "capacity", …).
        cause: &'static str,
    },
    /// A software transaction attempt began.
    TxnBegin {
        /// Retry attempt number (0 = first try).
        attempt: u32,
    },
    /// A software transaction committed.
    TxnCommit,
    /// A software transaction aborted.
    TxnAbort {
        /// Stable cause label ("conflict", "mark-dirty", …).
        cause: &'static str,
    },
    /// `cycles` of transactional work attributed to `phase` (emitted by the
    /// STM layer at the same point it updates its `TimeBreakdown`, so the
    /// per-phase sums of a lossless trace equal the breakdown exactly).
    Phase {
        /// Work category.
        phase: TxnPhase,
        /// Cycles attributed.
        cycles: u64,
    },
}

/// An event stamped with the logical cycle at which it was recorded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Logical-clock timestamp (the affected/executing core's clock at the
    /// end of the gated op that produced the event).
    pub cycle: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// Anything that can receive trace events. The simulator's built-in
/// implementation is [`TraceRecorder`]; tests can implement this to collect
/// events differently.
pub trait TraceSink {
    /// Records `ev` against `core` at logical `cycle`.
    fn record(&mut self, core: usize, cycle: u64, ev: TraceEvent);
}

/// Fixed-capacity per-core event ring.
#[derive(Clone, Debug)]
struct Ring {
    buf: Vec<TimedEvent>,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            start: 0,
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TimedEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Contents oldest-first, leaving the ring empty (capacity retained).
    fn drain_ordered(&mut self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        self.buf.clear();
        self.start = 0;
        out
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

/// The built-in ring-buffer recorder. Owned by the memory system (under
/// the machine's state lock); harvested through `Machine::take_trace`.
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Vec<Ring>,
    /// Worker-exit spill: events a `Cpu` still held locally when it was
    /// dropped. Kept apart from the rings because drops happen at
    /// host-racy times relative to other cores' flushes.
    tails: Vec<Vec<TimedEvent>>,
    /// Events staged during the current gated op, `(affected_core, event)`,
    /// stamped and routed at op end.
    pending: Vec<(usize, TraceEvent)>,
}

impl TraceRecorder {
    /// A recorder for `cores` cores with per-core capacity from `config`.
    pub fn new(cores: usize, config: &TraceConfig) -> Self {
        TraceRecorder {
            rings: (0..cores)
                .map(|_| Ring::new(config.per_core_capacity))
                .collect(),
            tails: vec![Vec::new(); cores],
            pending: Vec::with_capacity(64),
        }
    }

    /// Stages an event for the affected core; routed at the next flush.
    #[inline]
    pub(crate) fn stage(&mut self, core: usize, ev: TraceEvent) {
        self.pending.push((core, ev));
    }

    /// Stamps every staged event with `cycle` and routes it to the
    /// affected core's ring.
    pub(crate) fn flush(&mut self, cycle: u64) {
        for (core, ev) in self.pending.drain(..) {
            self.rings[core].push(TimedEvent { cycle, ev });
        }
    }

    /// Appends pre-stamped events (a `Cpu`'s local buffer) to `core`'s
    /// ring, clearing the buffer.
    pub(crate) fn push_stamped(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        for ev in events.drain(..) {
            self.rings[core].push(ev);
        }
    }

    /// Spills a dropping `Cpu`'s leftover events into `core`'s tail.
    pub(crate) fn push_tail(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        self.tails[core].append(events);
    }

    /// Clears all retained events (run start).
    pub(crate) fn reset(&mut self) {
        for r in &mut self.rings {
            r.reset();
        }
        for t in &mut self.tails {
            t.clear();
        }
        self.pending.clear();
    }

    /// Harvests everything recorded so far, leaving the recorder armed and
    /// empty.
    pub(crate) fn take(&mut self) -> TraceLog {
        self.flush(u64::MAX); // stamp any stragglers (normally empty)
        let mut per_core = Vec::with_capacity(self.rings.len());
        let mut dropped = Vec::with_capacity(self.rings.len());
        for (ring, tail) in self.rings.iter_mut().zip(self.tails.iter_mut()) {
            dropped.push(ring.dropped);
            let mut events = ring.drain_ordered();
            events.append(tail);
            ring.dropped = 0;
            per_core.push(events);
        }
        TraceLog { per_core, dropped }
    }
}

impl TraceSink for TraceRecorder {
    #[inline]
    fn record(&mut self, core: usize, cycle: u64, ev: TraceEvent) {
        self.rings[core].push(TimedEvent { cycle, ev });
    }
}

/// Per-phase cycle totals extracted from a trace. Field-for-field the
/// shape of the STM layer's `TimeBreakdown`, so the two can be compared
/// directly.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSums {
    /// TLS-access cycles.
    pub tls: u64,
    /// Read-barrier cycles.
    pub read_barrier: u64,
    /// Write-barrier cycles.
    pub write_barrier: u64,
    /// Validation cycles.
    pub validate: u64,
    /// Commit cycles.
    pub commit: u64,
    /// Contention cycles.
    pub contention: u64,
    /// Application cycles.
    pub app: u64,
}

impl PhaseSums {
    /// Adds `cycles` to the slot for `phase`.
    pub fn add(&mut self, phase: TxnPhase, cycles: u64) {
        match phase {
            TxnPhase::Tls => self.tls += cycles,
            TxnPhase::ReadBarrier => self.read_barrier += cycles,
            TxnPhase::WriteBarrier => self.write_barrier += cycles,
            TxnPhase::Validate => self.validate += cycles,
            TxnPhase::Commit => self.commit += cycles,
            TxnPhase::Contention => self.contention += cycles,
            TxnPhase::App => self.app += cycles,
        }
    }

    /// The slot for `phase`.
    pub fn get(&self, phase: TxnPhase) -> u64 {
        match phase {
            TxnPhase::Tls => self.tls,
            TxnPhase::ReadBarrier => self.read_barrier,
            TxnPhase::WriteBarrier => self.write_barrier,
            TxnPhase::Validate => self.validate,
            TxnPhase::Commit => self.commit,
            TxnPhase::Contention => self.contention,
            TxnPhase::App => self.app,
        }
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        TXN_PHASES.iter().map(|&p| self.get(p)).sum()
    }
}

/// A harvested trace: per-core event streams plus per-core drop counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events per core, oldest first.
    pub per_core: Vec<Vec<TimedEvent>>,
    /// Events lost to ring overflow, per core (0 everywhere for a lossless
    /// trace).
    pub dropped: Vec<u64>,
}

impl TraceLog {
    /// Total retained events across all cores.
    pub fn total_events(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// Whether any core's ring overflowed.
    pub fn dropped_any(&self) -> bool {
        self.dropped.iter().any(|&d| d > 0)
    }

    /// Iterates `(core, event)` over every retained event.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, &TimedEvent)> {
        self.per_core
            .iter()
            .enumerate()
            .flat_map(|(core, evs)| evs.iter().map(move |e| (core, e)))
    }

    /// Sums [`TraceEvent::Phase`] cycles per category across all cores.
    pub fn phase_sums(&self) -> PhaseSums {
        let mut sums = PhaseSums::default();
        for (_, e) in self.iter_all() {
            if let TraceEvent::Phase { phase, cycles } = e.ev {
                sums.add(phase, cycles);
            }
        }
        sums
    }

    /// Count of [`TraceEvent::MarkDiscard`] events per core.
    pub fn mark_discards(&self) -> Vec<u64> {
        self.per_core
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|e| matches!(e.ev, TraceEvent::MarkDiscard { .. }))
                    .count() as u64
            })
            .collect()
    }

    /// All [`TraceEvent::GateAdmit`] op indices, across cores, sorted.
    pub fn gate_ops(&self) -> Vec<u64> {
        let mut ops: Vec<u64> = self
            .iter_all()
            .filter_map(|(_, e)| match e.ev {
                TraceEvent::GateAdmit { op } => Some(op),
                _ => None,
            })
            .collect();
        ops.sort_unstable();
        ops
    }
}

/// Reconciles the trace against the per-core `marked_lines_lost` counters:
/// every marked-line loss the hardware counted must appear in the trace as
/// a [`TraceEvent::MarkDiscard`]. Catches event-emission bugs (see
/// [`crate::mutant::Mutant::DroppedDiscardEvent`]) the aggregate statistics
/// alone cannot.
///
/// # Errors
///
/// Returns a description of the first core whose counts disagree, or of a
/// lossy ring (overflowed traces cannot be reconciled).
pub fn reconcile_mark_discards(log: &TraceLog, marked_lines_lost: &[u64]) -> Result<(), String> {
    if log.dropped_any() {
        return Err(format!(
            "trace ring overflowed (dropped per core: {:?}); raise per_core_capacity",
            log.dropped
        ));
    }
    let discards = log.mark_discards();
    for (core, &lost) in marked_lines_lost.iter().enumerate() {
        let seen = discards.get(core).copied().unwrap_or(0);
        if seen != lost {
            return Err(format!(
                "core {core}: {seen} MarkDiscard trace events but marked_lines_lost = {lost}"
            ));
        }
    }
    Ok(())
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn event_name(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::GateAdmit { .. } => "gate_admit",
        TraceEvent::CacheAccess { miss: false, .. } => "cache_hit",
        TraceEvent::CacheAccess { miss: true, .. } => "cache_miss",
        TraceEvent::LineLoss { .. } => "line_loss",
        TraceEvent::L2Evict { .. } => "l2_evict",
        TraceEvent::MarkSet { .. } => "mark_set",
        TraceEvent::MarkDiscard { .. } => "mark_discard",
        TraceEvent::MarkCounterBump { .. } => "mark_counter_bump",
        TraceEvent::HtmBegin => "htm_begin",
        TraceEvent::HtmCommit => "htm_commit",
        TraceEvent::HtmAbort { .. } => "htm_abort",
        TraceEvent::TxnBegin { .. } => "txn_begin",
        TraceEvent::TxnCommit => "txn_commit",
        TraceEvent::TxnAbort { .. } => "txn_abort",
        TraceEvent::Phase { .. } => "phase",
    }
}

fn event_args(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::GateAdmit { op } => format!("{{\"op\":{op}}}"),
        TraceEvent::CacheAccess { line, write, .. } => {
            format!("{{\"line\":{},\"write\":{write}}}", line.0)
        }
        TraceEvent::LineLoss { line, cause } | TraceEvent::MarkDiscard { line, cause } => {
            format!("{{\"line\":{},\"cause\":\"{}\"}}", line.0, cause.label())
        }
        TraceEvent::L2Evict { line } | TraceEvent::MarkSet { line } => {
            format!("{{\"line\":{}}}", line.0)
        }
        TraceEvent::MarkCounterBump { filter } => format!("{{\"filter\":{filter}}}"),
        TraceEvent::HtmAbort { cause } | TraceEvent::TxnAbort { cause } => {
            let mut s = String::from("{\"cause\":\"");
            push_json_escaped(&mut s, cause);
            s.push_str("\"}");
            s
        }
        TraceEvent::TxnBegin { attempt } => format!("{{\"attempt\":{attempt}}}"),
        TraceEvent::Phase { cycles, .. } => format!("{{\"cycles\":{cycles}}}"),
        _ => String::from("{}"),
    }
}

/// Renders a trace as Chrome/Perfetto `trace_events` JSON (the
/// JSON-array format `chrome://tracing` and <https://ui.perfetto.dev>
/// open directly). Layout: process 0 holds one instant-event track per
/// core; process 1 holds the transaction-phase duration events, one track
/// per core with the phase as the event name. One event per line, so the
/// tiny schema checker ([`validate_chrome_trace`]) and text tools can
/// process it without a JSON parser.
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut out = String::with_capacity(128 * log.total_events() + 64);
    out.push_str("[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for core in 0..log.per_core.len() {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{core},\"ts\":0,\"args\":{{\"name\":\"core {core} events\"}}}}"
            ),
            &mut out,
        );
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{core},\"ts\":0,\"args\":{{\"name\":\"core {core} txn phases\"}}}}"
            ),
            &mut out,
        );
    }
    for (core, e) in log.iter_all() {
        let line = match e.ev {
            TraceEvent::Phase { phase, cycles } => {
                let ts = e.cycle.saturating_sub(cycles);
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{cycles},\"pid\":1,\"tid\":{core},\"args\":{}}}",
                    phase.label(),
                    event_args(&e.ev)
                )
            }
            _ => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{core},\"s\":\"t\",\"args\":{}}}",
                event_name(&e.ev),
                e.cycle,
                event_args(&e.ev)
            ),
        };
        emit(line, &mut out);
    }
    out.push_str("\n]\n");
    out
}

/// Tiny Chrome `trace_events` schema checker (no JSON parser): the
/// document must be a JSON array with one complete event object per line,
/// each carrying the required `name`/`ph`/`ts`/`pid`/`tid` keys, `X`
/// events additionally a `dur`. Returns the number of events.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let body = json.trim();
    let body = body
        .strip_prefix('[')
        .ok_or("trace must be a JSON array (missing '[')")?;
    let body = body
        .strip_suffix(']')
        .ok_or("trace must be a JSON array (missing ']')")?;
    let mut events = 0usize;
    for (i, raw) in body.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {}: event is not an object: {line}", i + 1));
        }
        if line.matches('{').count() != line.matches('}').count() {
            return Err(format!("line {}: unbalanced braces", i + 1));
        }
        for key in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            if !line.contains(key) {
                return Err(format!("line {}: missing required key {key}", i + 1));
            }
        }
        if line.contains("\"ph\":\"X\"") && !line.contains("\"dur\":") {
            return Err(format!("line {}: complete event without dur", i + 1));
        }
        events += 1;
    }
    if events == 0 {
        return Err("trace contains no events".into());
    }
    Ok(events)
}

/// Renders a human-readable per-core timeline of the interesting events
/// (transaction lifecycle, phases, HTM outcomes, mark discards), capped at
/// `max_lines_per_core` lines per core. This is what `hastm-check` prints
/// when the explorer shrinks a failure to a minimal trace.
pub fn summarize(log: &TraceLog, max_lines_per_core: usize) -> String {
    let mut out = String::new();
    for (core, events) in log.per_core.iter().enumerate() {
        let mut lines: Vec<String> = Vec::new();
        for e in events {
            let text = match e.ev {
                TraceEvent::TxnBegin { attempt } => format!("txn begin (attempt {attempt})"),
                TraceEvent::TxnCommit => "txn commit".into(),
                TraceEvent::TxnAbort { cause } => format!("txn abort ({cause})"),
                TraceEvent::HtmBegin => "htm begin".into(),
                TraceEvent::HtmCommit => "htm commit".into(),
                TraceEvent::HtmAbort { cause } => format!("htm abort ({cause})"),
                TraceEvent::MarkDiscard { line, cause } => {
                    format!("marked line {} lost ({})", line.0, cause.label())
                }
                TraceEvent::Phase { phase, cycles } => {
                    format!("{}: {cycles} cycles", phase.label())
                }
                _ => continue,
            };
            lines.push(format!("    @{:<8} {text}", e.cycle));
        }
        if lines.is_empty() {
            continue;
        }
        out.push_str(&format!("  core {core}:\n"));
        let shown = lines.len().min(max_lines_per_core);
        for l in &lines[..shown] {
            out.push_str(l);
            out.push('\n');
        }
        if lines.len() > shown {
            out.push_str(&format!("    … (+{} more events)\n", lines.len() - shown));
        }
    }
    if out.is_empty() {
        out.push_str("  (no transactional events recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, ev: TraceEvent) -> TimedEvent {
        TimedEvent { cycle, ev }
    }

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5u64 {
            r.push(ev(i, TraceEvent::GateAdmit { op: i }));
        }
        assert_eq!(r.dropped, 2);
        let out = r.drain_ordered();
        let cycles: Vec<u64> = out.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn recorder_routes_pending_to_affected_core() {
        let mut rec = TraceRecorder::new(2, &TraceConfig::default());
        rec.stage(1, TraceEvent::MarkCounterBump { filter: 0 });
        rec.stage(0, TraceEvent::L2Evict { line: LineId(7) });
        rec.flush(42);
        let log = rec.take();
        assert_eq!(log.per_core[0].len(), 1);
        assert_eq!(log.per_core[1].len(), 1);
        assert_eq!(log.per_core[1][0].cycle, 42);
        assert!(!log.dropped_any());
    }

    #[test]
    fn phase_sums_accumulate_per_category() {
        let log = TraceLog {
            per_core: vec![vec![
                ev(
                    10,
                    TraceEvent::Phase {
                        phase: TxnPhase::ReadBarrier,
                        cycles: 4,
                    },
                ),
                ev(
                    20,
                    TraceEvent::Phase {
                        phase: TxnPhase::ReadBarrier,
                        cycles: 6,
                    },
                ),
                ev(
                    30,
                    TraceEvent::Phase {
                        phase: TxnPhase::App,
                        cycles: 5,
                    },
                ),
            ]],
            dropped: vec![0],
        };
        let sums = log.phase_sums();
        assert_eq!(sums.read_barrier, 10);
        assert_eq!(sums.app, 5);
        assert_eq!(sums.total(), 15);
    }

    #[test]
    fn reconcile_catches_missing_discard() {
        let log = TraceLog {
            per_core: vec![vec![ev(
                5,
                TraceEvent::MarkDiscard {
                    line: LineId(1),
                    cause: LossCause::Remote,
                },
            )]],
            dropped: vec![0],
        };
        assert!(reconcile_mark_discards(&log, &[1]).is_ok());
        assert!(reconcile_mark_discards(&log, &[2]).is_err());
    }

    #[test]
    fn chrome_export_is_valid_and_counts_events() {
        let log = TraceLog {
            per_core: vec![vec![
                ev(3, TraceEvent::GateAdmit { op: 0 }),
                ev(
                    9,
                    TraceEvent::Phase {
                        phase: TxnPhase::Commit,
                        cycles: 6,
                    },
                ),
                ev(9, TraceEvent::TxnCommit),
            ]],
            dropped: vec![0],
        };
        let json = chrome_trace_json(&log);
        let n = validate_chrome_trace(&json).expect("valid trace");
        // 3 events + 2 thread_name metadata records.
        assert_eq!(n, 5);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":6"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[\n]\n").is_err());
        assert!(validate_chrome_trace("[\n{\"name\":\"x\"}\n]").is_err());
    }

    #[test]
    fn summary_reports_lifecycle() {
        let log = TraceLog {
            per_core: vec![
                vec![
                    ev(1, TraceEvent::TxnBegin { attempt: 0 }),
                    ev(40, TraceEvent::TxnCommit),
                ],
                vec![],
            ],
            dropped: vec![0, 0],
        };
        let s = summarize(&log, 10);
        assert!(s.contains("core 0"));
        assert!(s.contains("txn begin"));
        assert!(!s.contains("core 1"), "empty cores are omitted");
    }
}
