//! Per-thread transaction statistics, the execution-time breakdown used
//! by Figures 12 and 17, and the unified counters registry
//! ([`MetricsSnapshot`]) that concatenates the stack's counter tables into
//! one machine-readable dump.

use crate::config::Abort;
use hastm_sim::{counters, CoreStats, RunReport, TxnPhase};

/// Category of transactional work, for time attribution (Figure 12).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Category {
    /// Thread-local-state access at barrier entry (`gettxndesc`).
    TlsAccess,
    /// Read barriers.
    ReadBarrier,
    /// Write barriers (including undo logging).
    WriteBarrier,
    /// Read-set validation (periodic and commit-time).
    Validate,
    /// Commit processing (write-set release).
    Commit,
    /// Contention handling (waiting on owned records).
    Contention,
    /// Application work inside the transaction.
    App,
}

impl Category {
    /// The simulator-side trace phase this category maps onto (the trace
    /// layer cannot depend on this crate, so the mapping lives here).
    pub fn phase(self) -> TxnPhase {
        match self {
            Category::TlsAccess => TxnPhase::Tls,
            Category::ReadBarrier => TxnPhase::ReadBarrier,
            Category::WriteBarrier => TxnPhase::WriteBarrier,
            Category::Validate => TxnPhase::Validate,
            Category::Commit => TxnPhase::Commit,
            Category::Contention => TxnPhase::Contention,
            Category::App => TxnPhase::App,
        }
    }
}

counters! {
    /// Cycle totals per [`Category`].
    pub struct TimeBreakdown {
        /// `gettxndesc` / TLS cycles.
        tls: "breakdown.tls",
        /// Read-barrier cycles.
        read_barrier: "breakdown.read_barrier",
        /// Write-barrier cycles.
        write_barrier: "breakdown.write_barrier",
        /// Validation cycles.
        validate: "breakdown.validate",
        /// Commit cycles.
        commit: "breakdown.commit",
        /// Contention-management cycles.
        contention: "breakdown.contention",
        /// Everything else (application work, begin/abort bookkeeping).
        app: "breakdown.app",
    }
}

impl TimeBreakdown {
    /// Adds `cycles` to `cat`.
    pub fn add(&mut self, cat: Category, cycles: u64) {
        match cat {
            Category::TlsAccess => self.tls += cycles,
            Category::ReadBarrier => self.read_barrier += cycles,
            Category::WriteBarrier => self.write_barrier += cycles,
            Category::Validate => self.validate += cycles,
            Category::Commit => self.commit += cycles,
            Category::Contention => self.contention += cycles,
            Category::App => self.app += cycles,
        }
    }

    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.tls
            + self.read_barrier
            + self.write_barrier
            + self.validate
            + self.commit
            + self.contention
            + self.app
    }

    /// STM overhead cycles: everything except application work.
    pub fn overhead(&self) -> u64 {
        self.total() - self.app
    }
}

counters! {
    /// Counters kept by each transactional thread.
    pub struct TxnStats {
        /// Committed transactions (top-level).
        commits: "txn.commits",
        /// Aborts due to validation/contention conflicts.
        aborts_conflict: "txn.aborts.conflict",
        /// Aggressive-mode aborts due to a dirty mark counter.
        aborts_mark_dirty: "txn.aborts.mark_dirty",
        /// User-requested retries (condition synchronization).
        aborts_retry: "txn.aborts.retry",
        /// User-requested aborts.
        aborts_explicit: "txn.aborts.explicit",
        /// Nested transactions begun.
        nested_begins: "txn.nested.begins",
        /// Nested transactions partially rolled back.
        nested_rollbacks: "txn.nested.rollbacks",
        /// Read barriers that took the 2-instruction mark-filtered fast path.
        read_fast_path: "txn.read.fast_path",
        /// Read barriers that took a slow path.
        read_slow_path: "txn.read.slow_path",
        /// Read barriers whose logging was elided by aggressive mode.
        reads_unlogged: "txn.read.unlogged",
        /// Write barriers that took the write-filter fast path (§5 extension).
        write_fast_path: "txn.write.fast_path",
        /// Undo-log appends elided by write filtering (§5 extension).
        undo_elided: "txn.write.undo_elided",
        /// Validations satisfied by a zero mark counter alone.
        validations_skipped: "txn.validate.skipped",
        /// Validations that walked the read set.
        validations_full: "txn.validate.full",
        /// Transactions that committed in aggressive mode.
        aggressive_commits: "txn.commit.aggressive",
        /// Transactions that committed in cautious mode.
        cautious_commits: "txn.commit.cautious",
        /// Times a barrier found the record owned by another transaction.
        contention_encounters: "txn.contention.encounters",
        /// Commits the serializability oracle checked (linearization evidence;
        /// zero unless [`crate::StmConfig::oracle`] is on).
        oracle_commits_checked: "txn.oracle.commits_checked",
        /// Reads the oracle cross-checked against the pre-transaction image.
        oracle_reads_checked: "txn.oracle.reads_checked",
        /// Unserializable reads the oracle found (only nonzero in
        /// [`crate::OracleMode::Record`]; `Panic` mode dies on the first).
        oracle_violations: "txn.oracle.violations",
        /// Snapshot read-only transactions committed
        /// ([`crate::Versioning::Multi`] only; a subset of `commits`).
        ro_commits: "txn.ro.commits",
        /// Snapshot read-only transactions aborted. Only user-initiated
        /// retries/aborts can land here — the snapshot path cannot
        /// conflict-abort, which the test battery asserts as "zero RO aborts".
        ro_aborts: "txn.ro.aborts",
        /// Reads served by the snapshot path (version ring or ring-miss
        /// memory image).
        snapshot_reads: "txn.ro.snapshot_reads",
        /// Versions this thread's commits published into the version rings.
        versions_published: "txn.ro.versions_published",
        /// Attempts begun in each global phase (indexed by
        /// [`crate::Phase::idx`]; all-zero unless the policy is
        /// [`crate::ModePolicy::Phased`]).
        phase_begins: [
            "phase.hw.begins",
            "phase.aggr.begins",
            "phase.caut.begins",
            "phase.serial.begins"
        ],
        /// Commits landed in each global phase.
        phase_commits: [
            "phase.hw.commits",
            "phase.aggr.commits",
            "phase.caut.commits",
            "phase.serial.commits"
        ],
        /// Conflict-classified aborts per phase.
        phase_aborts_conflict: [
            "phase.hw.aborts_conflict",
            "phase.aggr.aborts_conflict",
            "phase.caut.aborts_conflict",
            "phase.serial.aborts_conflict"
        ],
        /// Capacity-classified aborts per phase.
        phase_aborts_capacity: [
            "phase.hw.aborts_capacity",
            "phase.aggr.aborts_capacity",
            "phase.caut.aborts_capacity",
            "phase.serial.aborts_capacity"
        ],
        /// Cycles spent executing attempts in each phase (time-in-phase, the
        /// HyTM cost-model numerator).
        phase_cycles: ["phase.hw.cycles", "phase.aggr.cycles", "phase.caut.cycles", "phase.serial.cycles"],
        /// Non-application (barrier/validate/commit/contention) cycles of
        /// those attempts — the per-phase fast-path penalty.
        phase_overhead_cycles: [
            "phase.hw.overhead_cycles",
            "phase.aggr.overhead_cycles",
            "phase.caut.overhead_cycles",
            "phase.serial.overhead_cycles"
        ],
        /// Phase transitions this thread published.
        phase_transitions: "phase.transitions",
        /// Transactions committed on the irrevocable serial path (a subset of
        /// `commits`).
        serial_commits: "phase.serial_commits",
        /// Execution-time breakdown.
        breakdown: TimeBreakdown,
    }
}

impl TxnStats {
    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_mark_dirty + self.aborts_retry + self.aborts_explicit
    }

    /// Records an abort of the given cause.
    pub fn record_abort(&mut self, cause: Abort) {
        match cause {
            Abort::Conflict => self.aborts_conflict += 1,
            Abort::MarkCounterDirty => self.aborts_mark_dirty += 1,
            Abort::Retry => self.aborts_retry += 1,
            Abort::Explicit => self.aborts_explicit += 1,
        }
    }
}

/// Per-transaction latency samples and their serving-style summary
/// statistics (p50/p99, mean, max) — the unit is whatever clock the
/// executor's [`crate::TmExec::clock`] exposes: simulated cycles on the
/// simulator backends, host nanoseconds on the native TL2 backend.
///
/// Samples are kept exact (the OLTP mill records at most a few thousand
/// transactions per thread), so quantiles are true order statistics
/// rather than histogram-bucket approximations, and two backends that
/// observe the same latencies report bit-identical quantiles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// Records one transaction's latency.
    pub fn record(&mut self, latency: u64) {
        self.samples.push(latency);
    }

    /// Merges another thread's samples in.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The nearest-rank `q`-quantile (`q` in `(0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantiles([q])[0]
    }

    /// The nearest-rank quantile for each of `qs`, from one sort of the
    /// samples.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        if self.samples.is_empty() {
            return [0; N];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        qs.map(|q| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        })
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Integer mean; 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let sum: u128 = self.samples.iter().map(|&s| u128::from(s)).sum();
        (sum / self.samples.len() as u128) as u64
    }
}

/// A flat, ordered registry of counters under stable dotted names, with a
/// machine-readable JSON dump. A counter is declared once, as a row of its
/// owner's [`counters!`] table (`txn.*`, `phase.*` and `breakdown.*` here,
/// `sim.*` in `hastm-sim`, `htm.*`/`hytm.*` in `hastm-htm`, `native.*` in
/// `hastm-native`); a snapshot is those tables' entries concatenated,
/// plus the few values derived from them. This is the single place
/// harnesses should read counters from instead of spelunking the stats
/// structs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// Collects a snapshot from an aggregated [`TxnStats`] and the run's
    /// [`RunReport`]: each struct's [`counters!`] rows (per-core counters
    /// summed), plus the five values derived from them.
    pub fn collect(txn: &TxnStats, report: &RunReport) -> Self {
        let mut cores = CoreStats::default();
        for c in &report.cores {
            cores.merge(c);
        }
        let mut snap = MetricsSnapshot::default();
        snap.extend(txn.entries());
        snap.extend([
            ("txn.aborts", txn.aborts()),
            ("breakdown.total", txn.breakdown.total()),
            ("breakdown.overhead", txn.breakdown.overhead()),
        ]);
        snap.extend(cores.entries());
        snap.extend(report.machine.entries());
        snap.extend([
            ("sim.makespan", report.makespan()),
            ("sim.cores", report.cores.len() as u64),
        ]);
        snap
    }

    /// Appends counters — any [`counters!`] struct's `entries()`, or
    /// values derived from them.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = (&'static str, u64)>) {
        self.entries.extend(entries);
    }

    /// Appends serving-style latency counters from `latency` (the OLTP
    /// mill's per-transaction samples) under fixed `latency.*` names, so a
    /// snapshot from an open-loop run carries its p50/p99 alongside the
    /// commit/abort/breakdown registry.
    pub fn push_latency(&mut self, latency: &LatencyStats) {
        let [p50, p90, p99] = latency.quantiles([0.50, 0.90, 0.99]);
        self.entries.extend([
            ("latency.count", latency.count()),
            ("latency.p50", p50),
            ("latency.p90", p90),
            ("latency.p99", p99),
            ("latency.max", latency.max()),
            ("latency.mean", latency.mean()),
        ]);
    }

    /// The counters, in stable registration order.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries
    }

    /// Looks up a counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the registry as a flat JSON object, one counter per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 * self.entries.len() + 4);
        out.push_str("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            out.push_str(&format!("  \"{name}\": {value}"));
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_are_nearest_rank() {
        let mut lat = LatencyStats::default();
        for v in [50, 10, 40, 30, 20] {
            lat.record(v);
        }
        assert_eq!(lat.count(), 5);
        assert_eq!(lat.quantile(0.50), 30);
        assert_eq!(lat.quantile(0.99), 50);
        assert_eq!(lat.quantile(1.0), 50);
        assert_eq!(lat.max(), 50);
        assert_eq!(lat.mean(), 30);

        let mut other = LatencyStats::default();
        other.record(60);
        lat.merge(&other);
        assert_eq!(lat.count(), 6);
        assert_eq!(lat.max(), 60);

        let empty = LatencyStats::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0);
    }

    #[test]
    fn snapshot_carries_latency_entries() {
        let mut lat = LatencyStats::default();
        lat.record(7);
        lat.record(9);
        let mut snap = MetricsSnapshot::default();
        snap.push_latency(&lat);
        assert_eq!(snap.get("latency.count"), Some(2));
        assert_eq!(snap.get("latency.p50"), Some(7));
        assert_eq!(snap.get("latency.p99"), Some(9));
        assert_eq!(snap.get("latency.mean"), Some(8));
    }

    #[test]
    fn breakdown_totals() {
        let mut b = TimeBreakdown::default();
        b.add(Category::ReadBarrier, 10);
        b.add(Category::App, 5);
        b.add(Category::Validate, 3);
        assert_eq!(b.total(), 18);
        assert_eq!(b.overhead(), 13);
    }

    #[test]
    fn abort_recording() {
        let mut s = TxnStats::default();
        s.record_abort(Abort::Conflict);
        s.record_abort(Abort::MarkCounterDirty);
        s.record_abort(Abort::Retry);
        assert_eq!(s.aborts(), 3);
        assert_eq!(s.aborts_mark_dirty, 1);
    }
}
