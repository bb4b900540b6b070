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
//! snapshot and never abort; and `phased` runs the PhTM-style phase
//! controller, whose serial phase is irrevocable. The paper's mark-bit
//! filter has no native counterpart: every optimistic read takes the TL2
//! sandwich (DESIGN §9c says why).
//!
//! The backend exists for *differential testing* (the same workloads run
//! on the simulator and natively, and must agree) and for native
//! throughput numbers (`benchmark/`); it is not a production STM — in
//! particular, an object a commit frees (`TmContext::ctx_free`) is
//! reused only by the executor that freed it, and memory is never given
//! back to the heap.
//!
//! [Dice, Shalev, Shavit 2006]: https://doi.org/10.1007/11864219_14

pub mod exec;
pub mod heap;
pub mod tl2;
mod zeroed;

pub use exec::{NativeExec, NativeRoTxn, NativeTxn};
pub use heap::NativeHeap;
pub use tl2::{NativeConfig, NativeRuntime, NativeStats, StripeState, WritebackHook};
