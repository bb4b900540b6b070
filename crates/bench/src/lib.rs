//! # hastm-bench — the paper's evaluation, regenerated
//!
//! One runner per evaluation figure of *"Architectural Support for
//! Software Transactional Memory"* (MICRO 2006). `all-figs --fig N`
//! prints the rows/series of Figure N, and `--fig phases` / `--fig
//! ablation` this reproduction's mode-policy and write-filter tables;
//! plain `all-figs` runs them all and `EXPERIMENTS.md` records the
//! measured shapes against the paper's claims.
//!
//! Experiment sizes scale with the `HASTM_BENCH_SCALE` environment
//! variable: `quick` (CI-sized; `ci` is an alias), `standard` (default),
//! or `full`. Any other value is an error, not a default.

pub mod figures;
pub mod oltp;
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

/// Reads environment variable `name`; `None` when it is unset.
pub(crate) fn env_value(name: &str) -> Result<Option<String>, String> {
    std::env::var_os(name)
        .map(|value| value.into_string())
        .transpose()
        .map_err(|value| format!("{name}={value:?} is not valid unicode"))
}

/// Unwraps what a binary read from its environment, or prints the error
/// and exits 2 (a typo must not run a different experiment).
pub fn env_or_exit<T>(read: Result<T, String>) -> T {
    read.unwrap_or_else(|problem| {
        eprintln!("error: {problem}");
        std::process::exit(2);
    })
}

impl Scale {
    /// Reads the scale from `HASTM_BENCH_SCALE` (unset: `Standard`).
    ///
    /// # Errors
    ///
    /// As [`Scale::parse`].
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(env_value("HASTM_BENCH_SCALE")?.as_deref())
    }

    /// The scale `HASTM_BENCH_SCALE` names when set to `value`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted values for any other one.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("standard") => Ok(Scale::Standard),
            Some("quick" | "ci") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "HASTM_BENCH_SCALE={other:?}: want quick, ci, standard or full (unset: standard)"
            )),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_its_four_names_and_unset_and_rejects_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::Standard));
        assert_eq!(Scale::parse(Some("standard")), Ok(Scale::Standard));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("ci")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for typo in ["fulll", "Quick", "", " ci"] {
            let problem = Scale::parse(Some(typo)).unwrap_err();
            assert!(problem.contains(&format!("{typo:?}")), "{problem}");
            assert!(problem.contains("quick, ci, standard or full"), "{problem}");
        }
    }
}
