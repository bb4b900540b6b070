//! # hastm-locks — lock-based baselines on simulated memory
//!
//! The paper's lock baselines (Figures 11, 16, 18–20) use coarse-grained
//! locking: each data-structure operation acquires one global lock. These
//! spinlocks live *in simulated memory*, so acquisition traffic (the lock
//! line ping-ponging between cores) is modeled by the same cache hierarchy
//! the TM systems run on.
//!
//! The crate also provides the sequential and lock-based critical-section
//! executors used by the workload drivers.

pub mod exec;
pub mod spinlock;

pub use exec::{DirectCtx, LockExec, SeqExec};
pub use spinlock::SpinLock;
