//! Mutation test for the phased global-mode controller.
//!
//! The `phase-seeded-bug` feature mutates `hastm::phase::refresh_view` so
//! a retrying phase entry keeps its *stale* phase bits after a CAS
//! failure: when a transition is published between the entrant's read and
//! its successful retry CAS, the entrant silently re-publishes the old
//! phase — the classic lost-transition bug in a packed-word phase machine.
//!
//! The detector is a phase-accounting oracle. With promotion disabled
//! (`promote_after` unreachable) the controller can only walk *down* the
//! four-level lattice `HW → aggressive → cautious → serial`, so a run can
//! publish at most **3** transitions, ever. A fourth transition is
//! impossible unless somebody un-published one — exactly what the seeded
//! bug does, after which the controller demotes again and the count
//! betrays it. (State corruption is also accepted as detection: the
//! un-publish can reopen optimistic entry while a serial transaction is
//! already running irrevocably.)
//!
//! These tests prove the phase battery earns its keep: the seeded lost
//! transition must be caught within a 16-seed budget, and the same sweep
//! must be green — and non-vacuous — without the mutation.
//!
//! Run with:
//!
//! ```text
//! cargo test -p hastm-check --features phase-seeded-bug --test phase_mutation
//! cargo test -p hastm-check --test phase_mutation   # unmutated: green
//! ```

use hastm::{ModePolicy, PhasedParams};
use hastm_check::{run_trial_observed, Combo, RunPlan, Sched, Trial, Workload};

/// Seeds the detection sweeps may spend, per the issue's detection bound.
const SEED_BUDGET: u64 = 16;

/// The lattice depth: with promotion disabled the phase can only demote
/// `HW → aggressive → cautious → serial`, so no honest run publishes more
/// transitions than this.
const LATTICE_DEPTH: u64 = 3;

/// Demote-only phased policy: hair-trigger demotion, promotion disabled
/// (no streak can reach `promote_after`), so the published transition
/// count is bounded by the lattice depth — the invariant the seeded
/// lost-transition bug cannot help but violate.
fn demote_only() -> ModePolicy {
    ModePolicy::Phased(PhasedParams {
        demote_after: 1,
        promote_after: 1 << 30,
        hysteresis: 1,
        hw_retry_budget: 2,
    })
}

/// The matrix points the mutation can bite on: contended workloads under
/// phased combos, where entry-CAS retries race demotion publications.
fn phased_trials(seed: u64) -> Vec<Trial> {
    let mut combo = Combo::parse("hastm:obj:full").expect("base combo parses");
    combo.policy = Some(demote_only());
    [Workload::Counter, Workload::Bst]
        .iter()
        .map(|&workload| Trial {
            combo,
            workload,
            seed,
            threads: 4,
            ops: 32,
            sched: Sched::Fuzzed,
        })
        .collect()
}

/// Runs one trial and returns `Some(detail)` when it betrays the lost
/// transition — by overflowing the demote-only lattice bound, or by
/// corrupting state outright.
fn detect(trial: &Trial) -> Option<String> {
    let (res, obs) = run_trial_observed(trial, &RunPlan::default());
    if let Err(detail) = res {
        return Some(format!("state corruption: {detail}"));
    }
    if obs.phase_transitions > LATTICE_DEPTH {
        return Some(format!(
            "transition-count oracle: {} transitions published under a \
             demote-only policy (lattice depth {LATTICE_DEPTH}); a \
             transition was lost and re-driven",
            obs.phase_transitions
        ));
    }
    None
}

#[cfg(feature = "phase-seeded-bug")]
mod mutated {
    use super::*;

    /// The seeded lost transition must be caught within the 16-seed
    /// budget. Seeds are swept in order so the budget is exact and the
    /// test deterministic.
    #[test]
    fn lost_transition_is_caught_within_the_seed_budget() {
        for seed in 0..SEED_BUDGET {
            for trial in phased_trials(seed) {
                if let Some(detail) = detect(&trial) {
                    eprintln!("caught at seed {seed}: {trial}: {detail}");
                    return;
                }
            }
        }
        panic!("the seeded lost transition survived {SEED_BUDGET} seeds undetected");
    }
}

#[cfg(not(feature = "phase-seeded-bug"))]
mod unmutated {
    use super::*;

    /// The exact sweep the mutated twin runs must be green without the
    /// mutation — the detector detects the bug, not its own noise.
    #[test]
    fn the_same_sweep_is_green_without_the_mutation() {
        for seed in 0..SEED_BUDGET {
            for trial in phased_trials(seed) {
                if let Some(detail) = detect(&trial) {
                    panic!("unmutated {trial} tripped the detector: {detail}");
                }
            }
        }
    }

    /// Non-vacuity: the sweep must walk the whole demote-only lattice
    /// (all 3 transitions) and commit inside the serial phase, so the
    /// mutated twin's entry-retry window is genuinely exercised right up
    /// against the bound the oracle enforces.
    #[test]
    fn the_sweep_exercises_the_full_lattice_and_the_serial_phase() {
        let mut max_transitions = 0u64;
        let mut serial_commits = 0u64;
        for seed in 0..SEED_BUDGET {
            for trial in phased_trials(seed) {
                let (res, obs) = run_trial_observed(&trial, &RunPlan::default());
                res.unwrap_or_else(|e| panic!("{trial}: {e}"));
                max_transitions = max_transitions.max(obs.phase_transitions);
                serial_commits += obs.serial_commits;
            }
        }
        assert_eq!(
            max_transitions, LATTICE_DEPTH,
            "the sweep never walked the full demote-only lattice"
        );
        assert!(
            serial_commits > 0,
            "the sweep never reached the serial phase"
        );
    }
}
