//! # hastm-workloads — the paper's evaluation workloads
//!
//! The transactional data structures (chained hashtable, rotating BST,
//! B-tree), the synthetic critical-section kernels, and the benchmark
//! driver used to regenerate the evaluation figures of *"Architectural
//! Support for Software Transactional Memory"* (MICRO 2006).
//!
//! Every workload is written once against the scheme-independent
//! [`hastm::TmContext`] interface and runs unchanged under sequential
//! execution, coarse locks, the base STM, all HASTM variants, and
//! best-case HyTM — exactly how the paper structures its comparisons.
//!
//! ## Quick start
//!
//! ```
//! use hastm_workloads::{run_workload, Scheme, Structure, WorkloadConfig};
//!
//! let mut cfg = WorkloadConfig::paper_default(Structure::Bst, Scheme::Hastm, 1);
//! cfg.ops_per_thread = 50; // keep the doc test fast
//! cfg.prepopulate = 32;
//! let result = run_workload(&cfg);
//! assert!(result.cycles > 0);
//! ```

pub mod bst;
pub mod btree;
pub mod driver;
pub mod hashtable;
pub mod map;
pub mod oltp;
pub mod scheme;
pub mod session;
pub mod synthetic;

pub use bst::Bst;
pub use btree::BTree;
pub use driver::{
    run_workload, run_workload_traced, AnyMap, Structure, WorkloadConfig, WorkloadResult,
};
pub use hashtable::HashTable;
pub use map::{check_against_reference, TxMap};
pub use oltp::{
    run_oltp_native, run_oltp_sim, Mill, OltpConfig, OltpMetrics, OltpNativeConfig,
    OltpNativeResult, OltpSimConfig, OltpSimResult, OltpTxn,
};
pub use scheme::{sim_registry, ExecStats, Scheme, ThreadExec};
pub use session::{
    AtRest, Definition, NativeRun, NativeSession, Peek, RunPlan, SimRun, SimSession,
};
pub use synthetic::{
    analyze, generate_stream, run_kernel, KernelParams, KernelResult, KernelStream, TraceAnalysis,
    WorkloadProfile, PROFILES,
};

/// FNV-1a over the little-endian bytes of `words`: the map and ledger state
/// digests sum it per `(key, value)` pair, so resident order does not matter.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
