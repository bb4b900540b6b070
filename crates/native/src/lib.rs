//! # hastm-native — host-thread TL2 backend
//!
//! A second execution backend for the HASTM workloads: instead of the
//! cycle-level simulator, transactions run on **real host threads** over
//! a shared [`NativeHeap`] of `AtomicU64` words, synchronized by a
//! TL2-style timestamp-ordered STM ([Dice, Shalev, Shavit 2006]):
//!
//! * a global version clock ([`NativeRuntime::clock`]),
//! * a versioned write-lock (`version << 1 | locked`) beside every heap
//!   word, in the word's own cache line,
//! * commit-time lock → validate → write-back → release-at-`wv`.
//!
//! [`NativeConfig::default`] is that and nothing else. One thing is
//! opt-in: `versioning: Multi { k }` keeps a k-slot ring of committed
//! versions beside every written word, so `atomic_ro` regions read a
//! snapshot and never abort. Every region runs this one optimistic
//! protocol: there is no phase controller and no serial lane (the
//! simulator's phase lattice chooses between a hardware and a software
//! path, and this backend has only the one). The paper's mark-bit filter
//! has no native counterpart either: every optimistic read takes the TL2
//! sandwich (DESIGN §9c says why).
//!
//! The backend exists for *differential testing* (the same workloads run
//! on the simulator and natively, and must agree) and for native
//! throughput numbers (`benchmark/`); it is not a production STM — in
//! particular, an object a commit frees (`TmContext::ctx_free`) is
//! reused only by the executor that freed it, and memory is never given
//! back to the heap. Nor is the heap sized: every runtime reserves
//! [`heap::HEAP_WORDS`] words, and its version blocks come from one pool.
//!
//! [Dice, Shalev, Shavit 2006]: https://doi.org/10.1007/11864219_14

pub mod exec;
pub mod heap;
pub mod tl2;
mod zeroed;

pub use exec::{NativeExec, NativeRoTxn, NativeTxn};
pub use heap::NativeHeap;
pub use tl2::{NativeConfig, NativeRuntime, NativeStats, ReadHook, StripeState, WritebackHook};
