//! # hastm-htm — bounded HTM and best-case HyTM baselines
//!
//! The comparison points the paper evaluates HASTM against (§7.3, Figure
//! 14): a **bounded hardware transactional memory** built on the
//! simulator's line-watch facility, and the **hybrid TM** barriers that
//! let a hardware transaction coexist with concurrent software
//! transactions by checking transaction records.
//!
//! The HTM here is deliberately simple, matching published HyTM
//! assumptions:
//!
//! * speculative stores are buffered (written back at commit) and capped
//!   by the L1's capacity/associativity — losing a transactionally
//!   accessed line to eviction aborts the transaction (a *spurious*
//!   abort);
//! * conflicts are detected at cache-line granularity from coherence
//!   traffic: a remote store to any accessed line, or a remote load of a
//!   speculatively written line, aborts;
//! * there is no escape mechanism: context switches, GC pauses, and
//!   overflow all abort — exactly the restrictions HASTM removes.
//!
//! Following the paper, the HyTM numbers produced by [`HytmThread`] are
//! *best-case*: "The HyTM execution time shown in the graphs below is that
//! of the transaction executing solely as a hardware transaction."

pub mod htm;
pub mod hybrid;

pub use htm::{HtmAbort, HtmStats, HtmThread, HtmTxn};
pub use hybrid::{HytmStats, HytmThread};
