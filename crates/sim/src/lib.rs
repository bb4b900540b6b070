//! # hastm-sim — the HASTM paper's hardware substrate, in software
//!
//! An execution-driven, deterministic multi-core memory-hierarchy simulator
//! implementing the ISA extension proposed by *"Architectural Support for
//! Software Transactional Memory"* (Saha, Adl-Tabatabai, Jacobson — MICRO
//! 2006): per-thread **mark bits** on 16-byte L1 sub-blocks plus a
//! saturating **mark counter**, exposed through six instructions
//! (`loadsetmark`, `loadresetmark`, `loadtestmark`, `resetmarkall`,
//! `resetmarkcounter`, `readmarkcounter`).
//!
//! The simulator models:
//!
//! * per-core L1 caches kept coherent with MESI, plus a shared, optionally
//!   inclusive L2 (inclusive-L2 back-invalidation is one of the paper's
//!   sources of spurious marked-line loss in multi-core runs);
//! * mark bits that are discarded — bumping the mark counter — whenever a
//!   marked line is evicted, snooped away by a remote store, or
//!   back-invalidated;
//! * the paper's §3.3 *default implementation* ([`IsaLevel::Default`]) under
//!   which marking software stays correct but unaccelerated;
//! * line-watch sets used by the companion `hastm-htm` crate to build a
//!   bounded HTM;
//! * the word table and write log ([`words`]) in which every executor —
//!   the watch sets, the STM, the HTM and the native backend — keeps its
//!   per-attempt sets;
//! * a conservative logical-clock scheduler that makes multi-core
//!   interleavings fully deterministic and charges every instruction an
//!   explicit cycle cost.
//!
//! ## Quick start
//!
//! ```
//! use hastm_sim::{Addr, Machine, MachineConfig};
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let ((), report) = machine.run_one(|cpu| {
//!     cpu.reset_mark_counter();
//!     cpu.store_u64(Addr(0x1000), 42);
//!     let value = cpu.load_set_mark_u64(Addr(0x1000));
//!     assert_eq!(value, 42);
//!     let (_, marked) = cpu.load_test_mark_u64(Addr(0x1000));
//!     assert!(marked, "line still cached, mark intact");
//!     assert_eq!(cpu.read_mark_counter(), 0, "no marked line was lost");
//! });
//! assert!(report.makespan() > 0);
//! ```

pub mod addr;
pub mod cache;
pub mod config;
#[cfg(all(target_arch = "x86_64", unix, not(hastm_thread_gate)))]
mod coop;
pub mod cpu;
mod gate;
pub mod heap;
pub mod hierarchy;
pub mod machine;
pub mod mem;
pub mod mutant;
pub mod stats;
pub mod trace;
pub mod words;

pub use addr::{Addr, LineId, LINE_SIZE, SUBBLOCKS_PER_LINE, SUBBLOCK_SIZE};
pub use cache::{FilterId, NUM_FILTERS};
pub use config::{
    CacheConfig, CostModel, FaultEvent, FaultKind, IsaLevel, MachineConfig, Preemption,
    SchedulePolicy,
};
pub use cpu::Cpu;
pub use heap::SimHeap;
pub use hierarchy::{AccessKind, MarkOp, ViolationCause, WatchKind, WatchViolation};
pub use machine::{Machine, ScheduleEvent, WorkerFn, PCT_CHANGE_HORIZON};
pub use stats::{CoreStats, MachineStats, RunReport};
pub use trace::{
    chrome_trace_json, reconcile_mark_discards, summarize, validate_chrome_trace, LossCause,
    PhaseSums, TimedEvent, TraceConfig, TraceEvent, TraceLog, TraceRecorder, TraceSink, TxnPhase,
    TXN_PHASES,
};
