//! Structured tracing and metrics: typed events with cycle timestamps, an
//! exact per-core recorder, a Chrome/Perfetto `trace_events` JSON
//! exporter, the run's schedule derived from its events, and
//! trace-vs-statistics reconciliation checks.
//!
//! # Zero cost when off
//!
//! The recorder lives in the memory system as an `Option<TraceRecorder>`;
//! every emission site is a single `is_some()` branch when tracing is
//! disabled, no allocation happens, and the simulated run is bit-identical
//! to a never-traced run (tracing charges no cycles and is never a gated
//! operation, so it cannot shift the global op counter or the schedule).
//!
//! # Exact
//!
//! Each core's stream is a plain growing vector: a trace holds every event
//! of the run, so memory is linear in the run's length, and every
//! reconciliation applies to every trace.
//!
//! # Determinism
//!
//! Events are staged while the executing core holds the machine's state
//! lock and are routed to the *affected* core's stream at the end of each
//! gated operation, in gate order. The only host-racy moment — a worker's
//! `Cpu` dropping with locally buffered events — lands in a separate
//! per-core tail buffer, so the harvested [`TraceLog`] is a pure function
//! of the configuration and seed regardless of host thread timing.

use crate::addr::LineId;

/// Arms the trace recorder (`Machine::set_tracing(Some(TraceConfig))`).
/// It has nothing left to set: every trace is exact. `Default` stays for
/// callers that spell it `TraceConfig::default()` (`benchmark/`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig;

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

/// Events each core's stream has room for before it first grows: a
/// checker trial fits, so tracing one costs no regrowth copies. Only a
/// starting size; a stream grows as far as the run goes.
const STREAM_RESERVE: usize = 1 << 14;

/// The run's recorder: one exact event stream per core. Owned by the
/// memory system (under the machine's state lock); harvested through
/// `Machine::take_trace`.
#[derive(Debug)]
pub struct TraceRecorder {
    /// Each core's events, in routing order.
    streams: Vec<Vec<TimedEvent>>,
    /// Worker-exit spill: events a `Cpu` still held locally when it was
    /// dropped. Kept apart from the streams because drops happen at
    /// host-racy times relative to other cores' flushes.
    tails: Vec<Vec<TimedEvent>>,
    /// Events staged during the current gated op, `(affected_core, event)`,
    /// stamped and routed at op end.
    pending: Vec<(usize, TraceEvent)>,
}

impl TraceRecorder {
    /// A recorder for `cores` cores.
    pub fn new(cores: usize) -> Self {
        TraceRecorder {
            streams: (0..cores)
                .map(|_| Vec::with_capacity(STREAM_RESERVE))
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
    /// affected core's stream.
    pub(crate) fn flush(&mut self, cycle: u64) {
        for (core, ev) in self.pending.drain(..) {
            self.streams[core].push(TimedEvent { cycle, ev });
        }
    }

    /// End of gated op `op` by `core` at `cycle`: records the gate
    /// admission, then routes everything the op staged — so an op's own
    /// events follow its [`TraceEvent::GateAdmit`] in `core`'s stream.
    pub(crate) fn op_end(&mut self, core: usize, op: u64, cycle: u64) {
        self.streams[core].push(TimedEvent {
            cycle,
            ev: TraceEvent::GateAdmit { op },
        });
        self.flush(cycle);
    }

    /// Appends pre-stamped events (a `Cpu`'s local buffer) to `core`'s
    /// stream, clearing the buffer.
    pub(crate) fn push_stamped(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        self.streams[core].append(events);
    }

    /// Spills a dropping `Cpu`'s leftover events into `core`'s tail.
    pub(crate) fn push_tail(&mut self, core: usize, events: &mut Vec<TimedEvent>) {
        self.tails[core].append(events);
    }

    /// Clears all recorded events (run start).
    pub(crate) fn reset(&mut self) {
        for events in self.streams.iter_mut().chain(&mut self.tails) {
            events.clear();
        }
        self.pending.clear();
    }

    /// Harvests everything recorded so far, leaving the recorder armed and
    /// empty.
    pub(crate) fn take(&mut self) -> TraceLog {
        self.flush(u64::MAX); // stamp any stragglers (normally empty)
        let per_core = self
            .streams
            .iter_mut()
            .zip(&mut self.tails)
            .map(|(stream, tail)| {
                let mut events = std::mem::take(stream);
                events.append(tail);
                events
            })
            .collect();
        TraceLog { per_core }
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

/// One gated op of a run, derived from its trace by
/// [`TraceLog::schedule`]: which core the gate admitted for the op, and
/// the memory line the op touched (if it made a data access).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleEvent {
    /// Global gated-op index, 0-based.
    pub op: u64,
    /// Core that executed the op.
    pub core: usize,
    /// `(line, was_write)` of the op's data access, when it made one.
    /// Multi-access ops (e.g. HTM commit write-back) give their last
    /// access.
    pub line: Option<(LineId, bool)>,
}

/// A harvested trace: every event of the run, per core.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events per core, oldest first.
    pub per_core: Vec<Vec<TimedEvent>>,
}

impl TraceLog {
    /// Total events across all cores.
    pub fn total_events(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// Iterates `(core, event)` over every event.
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

    /// The run's schedule, in op order: for each
    /// [`TraceEvent::GateAdmit`], the admitted core and the last
    /// [`TraceEvent::CacheAccess`] that follows it in that core's stream
    /// (an op's own events come right after its admission, before the
    /// core's next one). Each core's stream holds its ops in order, so the
    /// streams merge by op without a sort.
    pub fn schedule(&self) -> Vec<ScheduleEvent> {
        let is_admit = |e: &TimedEvent| matches!(e.ev, TraceEvent::GateAdmit { .. });
        // Per core, the index of its next unmerged admission (or the end).
        let mut next: Vec<usize> = self
            .per_core
            .iter()
            .map(|events| events.iter().position(is_admit).unwrap_or(events.len()))
            .collect();
        let mut schedule = Vec::with_capacity(self.total_events() / 2);
        loop {
            let mut first: Option<(u64, usize)> = None;
            for (core, events) in self.per_core.iter().enumerate() {
                if let Some(TimedEvent {
                    ev: TraceEvent::GateAdmit { op },
                    ..
                }) = events.get(next[core])
                {
                    if first.is_none_or(|(lowest, _)| *op < lowest) {
                        first = Some((*op, core));
                    }
                }
            }
            let Some((op, core)) = first else {
                return schedule;
            };
            let events = &self.per_core[core];
            let mut line = None;
            let mut i = next[core] + 1;
            while let Some(e) = events.get(i).filter(|e| !is_admit(e)) {
                if let TraceEvent::CacheAccess { line: l, write, .. } = e.ev {
                    line = Some((l, write));
                }
                i += 1;
            }
            next[core] = i;
            schedule.push(ScheduleEvent { op, core, line });
        }
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
/// Returns a description of the first core whose counts disagree.
pub fn reconcile_mark_discards(log: &TraceLog, marked_lines_lost: &[u64]) -> Result<(), String> {
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
    fn recorder_routes_pending_to_affected_core() {
        let mut rec = TraceRecorder::new(2);
        rec.stage(1, TraceEvent::MarkCounterBump { filter: 0 });
        rec.stage(0, TraceEvent::L2Evict { line: LineId(7) });
        rec.flush(42);
        let log = rec.take();
        assert_eq!(log.per_core[0].len(), 1);
        assert_eq!(log.per_core[1].len(), 1);
        assert_eq!(log.per_core[1][0].cycle, 42);
    }

    #[test]
    fn schedule_takes_each_ops_core_and_final_line() {
        let access = |line, write| TraceEvent::CacheAccess {
            line: LineId(line),
            write,
            miss: false,
        };
        let mut rec = TraceRecorder::new(2);
        // Op 0 by core 1: two accesses, the last one counts. Op 1 by core
        // 0 stages a loss on core 1, which is not an access of op 0.
        rec.stage(1, access(3, false));
        rec.stage(1, access(4, true));
        rec.op_end(1, 0, 10);
        rec.stage(
            1,
            TraceEvent::LineLoss {
                line: LineId(4),
                cause: LossCause::Remote,
            },
        );
        rec.stage(0, access(4, true));
        rec.op_end(0, 1, 12);
        // Op 2 by core 1: a stall, no access.
        rec.op_end(1, 2, 20);
        let schedule = rec.take().schedule();
        let got: Vec<_> = schedule.iter().map(|e| (e.op, e.core, e.line)).collect();
        assert_eq!(
            got,
            vec![
                (0, 1, Some((LineId(4), true))),
                (1, 0, Some((LineId(4), true))),
                (2, 1, None),
            ]
        );
    }

    #[test]
    fn a_stream_keeps_every_event() {
        let mut rec = TraceRecorder::new(1);
        for op in 0..200_000 {
            rec.op_end(0, op, op);
        }
        let log = rec.take();
        assert_eq!(log.total_events(), 200_000);
        assert_eq!(log.gate_ops(), (0..200_000).collect::<Vec<u64>>());
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
        };
        let s = summarize(&log, 10);
        assert!(s.contains("core 0"));
        assert!(s.contains("txn begin"));
        assert!(!s.contains("core 1"), "empty cores are omitted");
    }
}
