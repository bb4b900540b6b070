//! # hastm — Hardware-Accelerated Software Transactional Memory
//!
//! A full reproduction of the TM system from *"Architectural Support for
//! Software Transactional Memory"* (Saha, Adl-Tabatabai, Jacobson — MICRO
//! 2006), built on the mark-bit ISA extension simulated by [`hastm_sim`].
//!
//! The crate implements:
//!
//! * the **base STM** of §4 (McRT-style): eager version management
//!   (in-place updates + undo log), strict two-phase locking for writes,
//!   optimistic versioned reads, periodic and commit-time validation, and
//!   both object- and cache-line-granularity conflict detection;
//! * **HASTM** (§5): mark-bit-filtered read barriers that collapse from 12
//!   (or 16) instructions to 2, and mark-counter-based validation that
//!   skips the read-set walk entirely when no marked line was lost;
//! * **aggressive mode** (§6): read-set logging elided wholesale, with
//!   abort-and-re-execute-cautiously on a dirty mark counter, governed by a
//!   mode controller (always-cautious / single-thread / abort-ratio
//!   watermark / naïve-always-aggressive);
//! * the **language-integration surface** of §2: closed nested transactions
//!   with partial rollback, `retry`/`orElse` condition synchronization,
//!   user aborts, bounded-backoff contention management with diagnostics,
//!   and GC suspension with log inspection and object relocation that does
//!   *not* abort the suspended transaction.
//!
//! ## Quick start
//!
//! ```
//! use hastm::{Granularity, ModePolicy, StmConfig, StmRuntime, TxThread};
//! use hastm_sim::{Machine, MachineConfig};
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let config = StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive);
//! let runtime = StmRuntime::new(&mut machine, config);
//!
//! let (value, _report) = machine.run_one(|cpu| {
//!     let mut tx = TxThread::new(&runtime, cpu);
//!     let account = tx.alloc_obj(1);
//!     tx.atomic(|tx| tx.write_word(account, 0, 100));
//!     tx.atomic(|tx| {
//!         let v = tx.read_word(account, 0)?;
//!         tx.write_word(account, 0, v + 1)?;
//!         tx.read_word(account, 0)
//!     })
//! });
//! assert_eq!(value, 101);
//! ```

pub mod api;
pub mod barrier;
pub mod config;
pub mod context;
pub mod gc;
pub mod log;
pub mod mode;
pub mod mvcc;
pub mod oracle;
pub mod phase;
pub mod record;
pub mod runtime;
pub mod stats;
pub mod txn;

pub use config::{
    Abort, BarrierKind, Granularity, Mode, ModePolicy, StmConfig, TxResult, TxnKind, Versioning,
};
pub use context::{TmContext, TmExec};
pub use gc::Inspector;
pub use log::{ReadEntry, Savepoint, UndoEntry, WriteEntry};
pub use mode::{AbortClass, ModeController};
pub use mvcc::{VersionStore, VersionStoreStats};
pub use oracle::{
    CommitEvidence, Obligation, Oracle, OracleLog, OracleMode, OracleViolation, RoObligation,
    SerializationViolation,
};
pub use phase::{Phase, PhaseEvent, PhasedParams, SharedModeState};
pub use record::{RecValue, RecordTable};
pub use runtime::{ObjRef, StmRuntime};
pub use stats::{Category, LatencyStats, MetricsSnapshot, TimeBreakdown, TxnStats};
pub use txn::TxThread;
