//! STM/HASTM configuration and abort causes.

use crate::oracle::OracleMode;

/// Conflict-detection granularity (§4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Managed-environment style: every object carries a transaction record
    /// in its header word; conflicts are detected per object.
    Object,
    /// Unmanaged style: data addresses hash into a global record table;
    /// conflicts are detected per cache line.
    #[default]
    CacheLine,
}

/// Which read/write barrier family a thread runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// The base software-only barriers of §4 (Figures 3–4).
    #[default]
    Stm,
    /// The hardware-accelerated barriers of §5–6 (Figures 5, 7, 8, 9).
    Hastm,
}

/// Transaction execution mode under HASTM (§6).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// §5: barriers are filtered by mark bits, reads are still logged, and
    /// validation falls back to software when the mark counter is dirty.
    #[default]
    Cautious,
    /// §6: reads are additionally *not* logged; the transaction can only
    /// commit if the mark counter stayed zero, otherwise it aborts and
    /// re-executes cautiously.
    Aggressive,
}

/// Policy deciding the mode of each transaction attempt (§6, §7.4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum ModePolicy {
    /// Never use aggressive mode (the paper's "Cautious"/"HASTM-Cautious").
    AlwaysCautious,
    /// Single-threaded policy: "always changes to aggressive mode after a
    /// transaction commits". Re-executions after an abort run cautiously.
    SingleThreadAggressive,
    /// Multi-threaded policy: go aggressive only while the running ratio of
    /// transactions that observed a dirty mark counter stays below the low
    /// watermark ([`crate::mode::WATERMARK`]). This is what makes HASTM
    /// "start off in cautious mode and remain in cautious mode till the
    /// number of evictions/invalidations is below a threshold" (§7.4).
    #[default]
    AbortRatioWatermark,
    /// The naïve strawman of Figures 21–22 (an HTM-with-software-fallback
    /// analogue): always try aggressive first, re-execute cautiously after
    /// an abort.
    NaiveAggressive,
    /// PhTM-style *global* phase machine: all threads of a runtime share a
    /// CAS-published phase indicator (`Hw → Aggressive → Cautious →
    /// Serial`, with recovery transitions back up) driven by
    /// capacity-abort persistence and hysteresis. The `Serial` phase runs
    /// transactions irrevocably under a global token — no validation, no
    /// aborts. See [`crate::phase`].
    Phased(crate::phase::PhasedParams),
}

impl ModePolicy {
    /// The phased policy with default tuning.
    pub fn phased() -> Self {
        ModePolicy::Phased(crate::phase::PhasedParams::default())
    }
}

/// How many committed versions each record retains.
///
/// [`Versioning::Single`] is the paper's system: one committed value per
/// word, read-only transactions validate like everyone else.
/// [`Versioning::Multi`] keeps a `k`-deep ring of committed
/// `(stamp, value)` pairs so transactions opened with
/// [`TxnKind::ReadOnly`] read a consistent snapshot (newest version with
/// stamp ≤ their start stamp) and commit without validation — they can
/// never abort.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Versioning {
    /// Single committed version per record (the measured configuration).
    #[default]
    Single,
    /// `k`-deep version ring; enables the snapshot-read path.
    Multi {
        /// Ring depth (clamped to ≥ 1). Depth 1 still snapshots: readers
        /// see the newest committed value at their start stamp.
        k: usize,
    },
}

impl Versioning {
    /// Ring depth under [`Versioning::Multi`] (min 1), else 0.
    pub fn depth(self) -> usize {
        match self {
            Versioning::Single => 0,
            Versioning::Multi { k } => k.max(1),
        }
    }

    /// Whether the snapshot-read machinery is active.
    pub fn is_multi(self) -> bool {
        matches!(self, Versioning::Multi { .. })
    }
}

/// Whether a transaction declares itself read-only at begin.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TxnKind {
    /// Ordinary read-write transaction: full barriers, validation, 2PL.
    #[default]
    ReadWrite,
    /// Declared read-only: under [`Versioning::Multi`] it reads the
    /// snapshot at its start stamp and commits without validation;
    /// under [`Versioning::Single`] it behaves like a read-write
    /// transaction that happens not to write.
    ReadOnly,
}

/// Per-runtime STM configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmConfig {
    /// Conflict-detection granularity.
    pub granularity: Granularity,
    /// Barrier family.
    pub barrier: BarrierKind,
    /// Mode policy (only meaningful with [`BarrierKind::Hastm`]).
    pub mode_policy: ModePolicy,
    /// Validate the read set after this many read barriers (bounds the work
    /// a doomed "zombie" transaction can perform).
    pub validation_period: u32,
    /// Ablation (Figure 17, "HASTM-NoReuse"): disable the mark-bit *filter*
    /// fast path while keeping read-log elimination and mark-counter
    /// validation.
    pub no_reuse: bool,
    /// §5 extension: "an implementation could also filter STM write barrier
    /// and undo logging operations using additional mark bits." Uses the
    /// hardware's second mark filter to skip record re-acquisition on
    /// repeat writes and to elide duplicate undo entries within a nesting
    /// scope. Off by default (the paper's measured configuration).
    pub filter_writes: bool,
    /// Serializability-oracle mode ([`crate::Oracle`]): commit-time
    /// cross-checking of every transactional read against the
    /// pre-transaction memory image. Off by default (verification aid, not
    /// part of the measured system).
    pub oracle: OracleMode,
    /// Version retention: [`Versioning::Single`] (paper) or a k-deep
    /// multi-version ring enabling abort-free snapshot reads for
    /// [`TxnKind::ReadOnly`] transactions.
    pub versioning: Versioning,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            granularity: Granularity::CacheLine,
            barrier: BarrierKind::Stm,
            mode_policy: ModePolicy::default(),
            validation_period: 16,
            no_reuse: false,
            filter_writes: false,
            oracle: OracleMode::default(),
            versioning: Versioning::default(),
        }
    }
}

impl StmConfig {
    /// Base STM configuration (software-only barriers).
    pub fn stm(granularity: Granularity) -> Self {
        StmConfig {
            granularity,
            barrier: BarrierKind::Stm,
            ..StmConfig::default()
        }
    }

    /// Full HASTM with the given mode policy.
    pub fn hastm(granularity: Granularity, mode_policy: ModePolicy) -> Self {
        StmConfig {
            granularity,
            barrier: BarrierKind::Hastm,
            mode_policy,
            ..StmConfig::default()
        }
    }

    /// HASTM pinned to cautious mode (Figure 15/17 "Cautious").
    pub fn hastm_cautious(granularity: Granularity) -> Self {
        Self::hastm(granularity, ModePolicy::AlwaysCautious)
    }

    /// The same configuration with the serializability oracle in `mode`.
    #[must_use]
    pub fn with_oracle(mut self, mode: OracleMode) -> Self {
        self.oracle = mode;
        self
    }

    /// The same configuration with the given versioning scheme.
    #[must_use]
    pub fn with_versioning(mut self, versioning: Versioning) -> Self {
        self.versioning = versioning;
        self
    }
}

/// Why a transaction (or one attempt of it) stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Abort {
    /// Read-set validation found a changed version, or contention
    /// management gave up on an owned record.
    Conflict,
    /// Aggressive mode observed a nonzero mark counter: either a true
    /// conflict or a spurious marked-line loss — indistinguishable without a
    /// read log, so the transaction re-executes cautiously (§6).
    MarkCounterDirty,
    /// The user requested `retry` (condition synchronization, §5).
    Retry,
    /// The user explicitly aborted the transaction.
    Explicit,
}

impl Abort {
    /// The cause's short name — what trace events and coverage reports
    /// call it.
    pub fn slug(self) -> &'static str {
        match self {
            Abort::Conflict => "conflict",
            Abort::MarkCounterDirty => "mark-dirty",
            Abort::Retry => "retry",
            Abort::Explicit => "explicit",
        }
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "data conflict"),
            Abort::MarkCounterDirty => write!(f, "mark counter dirty in aggressive mode"),
            Abort::Retry => write!(f, "user retry"),
            Abort::Explicit => write!(f, "user abort"),
        }
    }
}

impl std::error::Error for Abort {}

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = StmConfig::default();
        assert_eq!(c.granularity, Granularity::CacheLine);
        assert!(!c.no_reuse);
        assert_eq!(c.oracle, OracleMode::Off, "oracle off in measured config");
    }

    #[test]
    fn with_oracle_only_changes_oracle() {
        let c = StmConfig::hastm_cautious(Granularity::Object).with_oracle(OracleMode::Record);
        assert_eq!(c.oracle, OracleMode::Record);
        assert_eq!(
            StmConfig {
                oracle: OracleMode::Off,
                ..c
            },
            StmConfig::hastm_cautious(Granularity::Object)
        );
    }

    #[test]
    fn constructors() {
        let s = StmConfig::stm(Granularity::Object);
        assert_eq!(s.barrier, BarrierKind::Stm);
        let h = StmConfig::hastm_cautious(Granularity::CacheLine);
        assert_eq!(h.barrier, BarrierKind::Hastm);
        assert_eq!(h.mode_policy, ModePolicy::AlwaysCautious);
    }

    #[test]
    fn versioning_defaults_and_depth() {
        assert_eq!(StmConfig::default().versioning, Versioning::Single);
        assert_eq!(Versioning::Single.depth(), 0);
        assert_eq!(Versioning::Multi { k: 0 }.depth(), 1, "depth clamps to 1");
        assert_eq!(Versioning::Multi { k: 3 }.depth(), 3);
        assert!(Versioning::Multi { k: 3 }.is_multi());
        let c = StmConfig::stm(Granularity::Object).with_versioning(Versioning::Multi { k: 2 });
        assert_eq!(c.versioning, Versioning::Multi { k: 2 });
    }

    #[test]
    fn abort_displays() {
        assert_eq!(Abort::Conflict.to_string(), "data conflict");
        assert!(Abort::MarkCounterDirty.to_string().contains("mark counter"));
    }
}
