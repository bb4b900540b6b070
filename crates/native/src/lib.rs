//! # hastm-native — host-thread TL2 backend
//!
//! A second execution backend for the HASTM workloads: instead of the
//! cycle-level simulator, transactions run on **real host threads** over
//! a shared [`NativeHeap`] of `AtomicU64` words, synchronized by a
//! TL2-style timestamp-ordered STM ([Dice, Shalev, Shavit 2006]):
//!
//! * a global version clock ([`NativeRuntime::clock`]),
//! * per-stripe versioned write-locks (`version << 1 | locked`),
//! * commit-time lock → validate → write-back → release-at-`wv`.
//!
//! [`NativeConfig::default`] is that and nothing else. Two things are
//! opt-in: `versioning: Multi { k }` keeps a k-slot ring of committed
//! versions beside every written word, so `atomic_ro` regions read a
//! snapshot and never abort; and `mark_filter: true` emulates the paper's
//! mark-bit fast path as a per-thread stripe filter plus a global commit
//! epoch (a filtered read is two loads — value, epoch — mirroring the
//! two-instruction marked read barrier). The emulation is **off by
//! default because it is not sound** — it admits write skew about once
//! in 10⁹ transactions; [`exec`] says what is known — and it loses at
//! every thread count.
//!
//! The backend exists for *differential testing* (the same workloads run
//! on the simulator and natively, and must agree) and for native
//! throughput numbers (`benchmark/`); it is not a production STM — in
//! particular, a committed transaction's allocations are never reclaimed
//! (an aborted attempt's are reused by the same executor).
//!
//! [Dice, Shalev, Shavit 2006]: https://doi.org/10.1007/11864219_14

pub mod exec;
pub mod heap;
pub mod tl2;
mod zeroed;

pub use exec::{NativeExec, NativeRoTxn, NativeTxn};
pub use heap::NativeHeap;
pub use tl2::{NativeConfig, NativeRuntime, NativeStats, StripeState, WritebackHook};
