//! # hastm-bench — the paper's evaluation, regenerated
//!
//! One runner per evaluation figure of *"Architectural Support for
//! Software Transactional Memory"* (MICRO 2006). `all-figs --fig N`
//! prints the rows/series of Figure N; plain `all-figs` runs the whole
//! evaluation and `EXPERIMENTS.md` records the measured shapes against the
//! paper's claims.
//!
//! Experiment sizes scale with the `HASTM_BENCH_SCALE` environment
//! variable: `quick` (CI-sized; `ci` is an alias), `standard` (default),
//! or `full`.

pub mod figures;
pub mod oltp;
pub mod phases;
pub mod sweep;
pub mod table;

pub use figures::*;
pub use sweep::{sweep_selected, FigureRun, SweepConfig, SweepReport};
pub use table::Table;

/// Experiment scale, from `HASTM_BENCH_SCALE`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny runs for CI and tests.
    Quick,
    /// Default size: minutes for the whole evaluation.
    Standard,
    /// Larger runs for tighter ratios.
    Full,
}

impl Scale {
    /// Reads the scale from the environment (default: `Standard`).
    pub fn from_env() -> Scale {
        match std::env::var("HASTM_BENCH_SCALE").as_deref() {
            Ok("quick") | Ok("ci") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Standard,
        }
    }

    /// Operations per thread for data-structure workloads.
    pub fn ops(self) -> u64 {
        match self {
            Scale::Quick => 150,
            Scale::Standard => 600,
            Scale::Full => 2_000,
        }
    }

    /// Pre-populated keys.
    pub fn prepopulate(self) -> u64 {
        match self {
            Scale::Quick => 128,
            Scale::Standard => 384,
            Scale::Full => 1_024,
        }
    }

    /// Key range (2x prepopulate keeps structures about half full).
    pub fn key_range(self) -> u64 {
        self.prepopulate() * 2
    }

    /// Critical sections for synthetic kernels.
    pub fn sections(self) -> u32 {
        match self {
            Scale::Quick => 40,
            Scale::Standard => 150,
            Scale::Full => 400,
        }
    }
}
