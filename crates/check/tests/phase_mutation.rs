//! The `StalePhaseView` row of the mutation table, beside the disarmed
//! checks that keep its detector honest.
//!
//! The detector is a phase-accounting oracle. With promotion disabled the
//! controller can only walk *down* the lattice `Hw → Aggressive → Cautious
//! → Serial`, so an honest run publishes at most [`LATTICE_DEPTH`]
//! transitions. A lost transition gets re-driven and overflows that bound
//! (or corrupts state outright, reopening optimistic entry while a serial
//! transaction runs).
//!
//! ```text
//! cargo test -p hastm-check --test phase_mutation
//! ```

use hastm::{ModePolicy, PhasedParams};
use hastm_check::{run_trial_observed, Combo, Observation, RunPlan, Sched, Trial, Workload};
use hastm_sim::mutant::{arm, prove, Mutant};

/// Seeds the sweep spends: the detection budget.
const SEED_BUDGET: u64 = 16;

/// The most transitions an honest demote-only run can publish.
const LATTICE_DEPTH: u64 = 3;

/// The phased trials of one seed: contended workloads under a
/// hair-trigger, demote-only policy, where entry-CAS retries race demotion
/// publications.
fn phased_trials(seed: u64) -> impl Iterator<Item = Trial> {
    let mut combo = Combo::parse("hastm:obj:full").unwrap();
    combo.policy = Some(ModePolicy::Phased(PhasedParams {
        demote_after: 1,
        promote_after: 1 << 30,
        hysteresis: 1,
        hw_retry_budget: 2,
    }));
    [Workload::Counter, Workload::Bst]
        .map(move |workload| Trial {
            combo,
            workload,
            seed,
            threads: 4,
            ops: 32,
            sched: Sched::Fuzzed,
        })
        .into_iter()
}

/// One trial under the transition-count oracle.
fn phased_verdict(trial: &Trial) -> Result<Observation, String> {
    let (res, obs) = run_trial_observed(trial, &RunPlan::default());
    res.map_err(|detail| format!("state corruption: {detail}"))?;
    if obs.stats.txn.phase_transitions > LATTICE_DEPTH {
        return Err(format!(
            "transition-count oracle: {} transitions under a demote-only \
             policy (lattice depth {LATTICE_DEPTH}) in {trial}",
            obs.stats.txn.phase_transitions
        ));
    }
    Ok(obs)
}

/// Seed `seed` of the sweep, both trials.
fn sweep(seed: u64) -> Result<Vec<Observation>, String> {
    phased_trials(seed).map(|t| phased_verdict(&t)).collect()
}

#[test]
fn stale_phase_view_is_caught_by_the_transition_count_oracle() {
    prove(Mutant::StalePhaseView, SEED_BUDGET, sweep, |d| {
        d.starts_with("transition-count oracle") || d.starts_with("state corruption")
    });
}

mod unmutated {
    use super::*;

    /// The whole sweep with nothing armed (holding the arming lock, so the
    /// proof above cannot arm the mutant under it).
    fn clean_sweep() -> Vec<Observation> {
        let _quiet = arm(None);
        (0..SEED_BUDGET)
            .flat_map(|seed| sweep(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}")))
            .collect()
    }

    #[test]
    fn the_same_sweep_is_green_without_the_mutation() {
        assert_eq!(clean_sweep().len() as u64, SEED_BUDGET * 2);
    }

    /// Non-vacuity: the sweep walks the whole lattice and commits inside
    /// the serial phase, right up against the oracle's bound.
    #[test]
    fn the_sweep_exercises_the_full_lattice_and_the_serial_phase() {
        let observed = clean_sweep();
        assert_eq!(
            observed.iter().map(|o| o.stats.txn.phase_transitions).max(),
            Some(LATTICE_DEPTH),
            "the sweep never walked the full demote-only lattice"
        );
        assert!(
            observed
                .iter()
                .map(|o| o.stats.txn.serial_commits)
                .sum::<u64>()
                > 0,
            "the sweep never reached the serial phase"
        );
    }
}
