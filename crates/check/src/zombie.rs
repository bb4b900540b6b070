//! Opacity-violation ("zombie") scenarios: fault-injected OLTP schedules
//! engineered so that doomed transactions read inconsistent state, plus
//! the detection harness that proves the serializability oracle flags any
//! zombie that actually commits.
//!
//! A *zombie* is a transaction that has already lost a conflict but keeps
//! executing on stale reads (the sandboxing literature's term). The STM's
//! defense is software read-set revalidation — periodic, at `ctx_guard`,
//! and at commit. Each scenario here is tuned to maximize the windows
//! that defense must close:
//!
//! * **delayed validation** — `validation_period` is raised to `u32::MAX`,
//!   so the periodic walk never fires and everything rides on the
//!   commit-time (and `ctx_guard`) walk;
//! * **forced evictions / back-invalidations / spurious watch violations**
//!   — an injected fault plan knocks marked lines out of the caches,
//!   dirtying HASTM mark counters so the cautious scheme cannot take its
//!   hardware shortcut and must fall into the software walk;
//! * **hot, skewed traffic** — a 12-account θ=1.1 mill with back-to-back
//!   arrivals, so cross-thread read-write overlap is the common case, not
//!   the exception.
//!
//! Against an *unmutated* tree the scenarios are green: the slow-path walk
//! catches every doomed transaction, the ledger matches the closed form,
//! and the oracle settles clean. With `Mutant::SkippedRevalidation` armed
//! the walk silently succeeds, zombies commit, and [`run_zombie_scenario`]
//! must report the damage — via the oracle and/or ledger divergence. The
//! `mutants` integration test proves both directions.

use hastm::{Granularity, ModePolicy};
use hastm_sim::{FaultEvent, FaultKind, SchedulePolicy};
use hastm_workloads::oltp::{
    check_ledger, expected_balances, run_oltp_sim, OltpConfig, OltpSimConfig,
};
use hastm_workloads::Scheme;

/// One zombie scenario: a scheme whose transactions run through the
/// software revalidation slow path, plus the seed that picks the fuzzed
/// interleaving and traffic.
#[derive(Copy, Clone, Debug)]
pub struct ZombieScenario {
    /// Scheme under attack ([`Scheme::Stm`] or HASTM-Cautious,
    /// [`Scheme::HastmUnder`]`(AlwaysCautious)`; both route commit-time
    /// validation through the software walk).
    pub scheme: Scheme,
    /// Conflict-detection granularity.
    pub granularity: Granularity,
    /// Traffic + schedule seed.
    pub seed: u64,
}

/// The scenario matrix for one seed: both slow-path schemes at cache-line
/// granularity (line granularity maximizes false-sharing-driven record
/// churn, widening the zombie windows).
pub fn scenarios(seed: u64) -> Vec<ZombieScenario> {
    [Scheme::Stm, Scheme::HastmUnder(ModePolicy::AlwaysCautious)]
        .into_iter()
        .map(|scheme| ZombieScenario {
            scheme,
            granularity: Granularity::CacheLine,
            seed,
        })
        .collect()
}

/// Builds the fault-injected mill configuration of a scenario.
pub fn scenario_config(sc: &ZombieScenario) -> OltpSimConfig {
    let oltp = OltpConfig {
        threads: 3,
        txns_per_thread: 24,
        accounts: 12,
        zipf_theta: 1.1,
        read_pct: 40,
        txn_keys: 3,
        large_txn_pct: 5,
        large_txn_keys: 6,
        flash_phases: 2,
        // Back-to-back arrivals: every thread is always behind, so
        // transactions overlap maximally.
        mean_arrival_gap: 50,
        seed: sc.seed,
    };
    let mut cfg = OltpSimConfig::new(oltp, sc.scheme, sc.granularity);
    cfg.machine.schedule = SchedulePolicy::Fuzzed { seed: sc.seed };
    // Delayed validation: the periodic read-set walk never fires;
    // commit-time revalidation is the only line of defense.
    cfg.validation_period = Some(u32::MAX);
    // Rotating fault plan: forced L1 evictions, inclusive-L2
    // back-invalidations, and spurious watch violations, staggered across
    // cores through the whole run.
    cfg.faults = (0..18u64)
        .map(|i| FaultEvent {
            at_op: 25 + 35 * i,
            core: (i % 3) as usize,
            kind: match i % 3 {
                0 => FaultKind::EvictL1 { nth: i as usize },
                1 => FaultKind::BackInvalidate { nth: i as usize },
                _ => FaultKind::SpuriousAbort,
            },
        })
        .collect();
    cfg
}

/// What a passing (green) scenario run exposed — the coverage facts the
/// unmutated test asserts.
#[derive(Clone, Debug)]
pub struct ZombieReport {
    /// Software read-set walks performed (must be nonzero unmutated: the
    /// mutated code path is genuinely exercised).
    pub validations_full: u64,
    /// Top-level commits.
    pub commits: u64,
}

/// Runs one zombie scenario and checks it: the serializability oracle
/// must settle clean, total balance must be conserved, and the final
/// ledger must equal the closed form.
///
/// # Errors
///
/// Returns a description of the detected damage — an oracle
/// serializability violation or a ledger divergence — which is exactly
/// what `Mutant::SkippedRevalidation` must provoke.
pub fn run_zombie_scenario(sc: &ZombieScenario) -> Result<ZombieReport, String> {
    let cfg = scenario_config(sc);
    let expected = expected_balances(&cfg.oltp);
    let r = run_oltp_sim(&cfg);
    if r.oracle_violations > 0 {
        return Err(format!(
            "oracle: {} serializability violations (zombie committed on stale reads) [{:?} seed {}]",
            r.oracle_violations, sc.scheme, sc.seed
        ));
    }
    check_ledger(&r.balances, &expected)
        .map_err(|e| format!("{e} [{:?} seed {}]", sc.scheme, sc.seed))?;
    Ok(ZombieReport {
        validations_full: r.txn.validations_full,
        commits: r.metrics.commits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm_sim::mutant::arm;

    /// The scenarios are green on the unmutated tree and genuinely drive
    /// the software revalidation walk (the mutation's target) — asserted
    /// here so the in-crate suite catches a scenario that rots into
    /// vacuity. The mutated direction lives in `tests/mutants.rs`.
    #[test]
    fn scenarios_are_green_and_exercise_the_slow_path() {
        let _quiet = arm(None);
        for sc in scenarios(1) {
            let report = run_zombie_scenario(&sc)
                .unwrap_or_else(|e| panic!("{:?} must be green unmutated: {e}", sc.scheme));
            assert!(
                report.validations_full > 0,
                "{:?}: the scenario must exercise software revalidation",
                sc.scheme
            );
            assert!(report.commits >= 3 * 24);
        }
    }

    #[test]
    fn fault_injected_mill_pinned_before_the_run_session_still_holds() {
        let _quiet = arm(None);
        // scheme → (balances digest, makespan, software read-set walks,
        // commits, aborts) of `scenario_config` at seed 1, generated by
        // the `run_oltp_sim` that armed its own fault plan: the session
        // must fire the same faults at the same gated ops.
        for (sc, pin) in scenarios(1).iter().zip([
            (0x0f9e_a69d_a64d_a96e_u64, 12_990, 115, 72, 13),
            (0x0f9e_a69d_a64d_a96e_u64, 572_837, 55, 72, 31),
        ]) {
            let r = run_oltp_sim(&scenario_config(sc));
            assert_eq!(
                (
                    r.digest,
                    r.metrics.elapsed,
                    r.txn.validations_full,
                    r.metrics.commits,
                    r.metrics.aborts
                ),
                pin,
                "{:?}",
                sc.scheme
            );
        }
    }
}
