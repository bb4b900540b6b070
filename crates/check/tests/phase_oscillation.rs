//! Oscillation stress for the phased global-mode controller: fault
//! injection plus PCT schedules hunt for HW↔SW phase ping-pong, and every
//! scenario is held to the hysteresis-derived transition ceiling.
//!
//! The phase controller ignores events until `hysteresis` of them have
//! accumulated since the last transition, so a run that observes `E`
//! commit/abort events can publish at most `E / hysteresis` transitions —
//! no adversarial schedule or fault storm may exceed that. The campaign
//! sweeps fuzzed and PCT schedules crossed with spurious-abort and
//! back-invalidation storms (the two fault kinds that feed the
//! capacity-abort heuristics) over the contended workloads and asserts:
//!
//! * **correctness under storms** — every trial still matches its
//!   sequential reference (the phase machine never trades safety for
//!   throughput, even while thrashing);
//! * **per-scenario ceiling** — `transitions ≤ events/hysteresis + 1` for
//!   every single trial;
//! * **campaign rate ceiling** — the aggregate rate stays under 80
//!   transitions per 1000 transaction events (hysteresis 16 caps the
//!   theoretical worst case at 62.5/1k);
//! * **non-vacuity** — the campaign provokes real transitions and reaches
//!   the serial phase somewhere, so the ceilings are tested, not idle.
//!
//! The worst scenario the campaign finds is additionally pinned as its own
//! regression test below.

use hastm::{ModePolicy, PhasedParams};
use hastm_check::{run_trial_plan, Combo, RunPlan, Sched, Trial, Workload};
use hastm_sim::{FaultEvent, FaultKind};

/// Hysteresis window under stress; the ceilings below are derived from it.
const HYSTERESIS: u32 = 16;

/// Hair-trigger demotion with slow promotion under a wide hysteresis
/// window: the adversarial sweet spot — storms can demote on two bad
/// events, so only the hysteresis window itself limits the oscillation.
fn stress_policy() -> ModePolicy {
    ModePolicy::Phased(PhasedParams {
        demote_after: 2,
        promote_after: 4,
        hysteresis: HYSTERESIS,
        hw_retry_budget: 2,
    })
}

fn stress_combo() -> Combo {
    let mut combo = Combo::parse("hastm:obj:full").expect("base combo parses");
    combo.policy = Some(stress_policy());
    combo
}

/// One fault-storm shape, applied to the measured run only.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Storm {
    /// Unperturbed (schedule jitter only).
    None,
    /// Spurious watch violations every `period` gated ops, rotating over
    /// the cores — the interrupt/TLB-shootdown pattern that manufactures
    /// capacity-class aborts out of thin air.
    Spurious { period: u64 },
    /// Inclusive-L2 back-invalidations every `period` gated ops — capacity
    /// pressure that evicts marked lines under every core at once.
    BackInvalidate { period: u64 },
}

impl Storm {
    fn slug(self) -> String {
        match self {
            Storm::None => "none".into(),
            Storm::Spurious { period } => format!("spurious@{period}"),
            Storm::BackInvalidate { period } => format!("backinval@{period}"),
        }
    }

    fn plan(self, cores: usize) -> RunPlan {
        let mut plan = RunPlan::default();
        match self {
            Storm::None => {}
            Storm::Spurious { period } => {
                for i in 0..24u64 {
                    plan.faults.push(FaultEvent {
                        at_op: (i + 1) * period,
                        core: (i as usize) % cores,
                        kind: FaultKind::SpuriousAbort,
                    });
                }
            }
            Storm::BackInvalidate { period } => {
                for i in 0..24u64 {
                    plan.faults.push(FaultEvent {
                        at_op: (i + 1) * period,
                        core: 0,
                        kind: FaultKind::BackInvalidate { nth: i as usize },
                    });
                }
            }
        }
        plan
    }
}

/// One campaign point and what it observed.
#[derive(Clone, Debug)]
struct Scenario {
    workload: Workload,
    sched: Sched,
    storm: Storm,
    seed: u64,
    transitions: u64,
    events: u64,
    serial_commits: u64,
}

impl Scenario {
    /// Transitions per 1000 transaction events (0 when nothing ran).
    fn rate_per_1k(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.transitions as f64 * 1000.0 / self.events as f64
        }
    }
}

fn run_scenario(workload: Workload, sched: Sched, storm: Storm, seed: u64) -> Scenario {
    let threads = 4;
    let trial = Trial {
        combo: stress_combo(),
        workload,
        seed,
        threads,
        ops: 24,
        sched,
    };
    let plan = storm.plan(threads);
    let (fp, obs) = run_trial_plan(&trial, &plan).unwrap_or_else(|e| {
        panic!(
            "{} storm={} diverged under stress: {e}",
            trial,
            storm.slug()
        )
    });
    // The fingerprint is only reachable when the reference check passed;
    // make the safety claim explicit anyway.
    assert!(fp.state != 0 || workload == Workload::Counter);
    Scenario {
        workload,
        sched,
        storm,
        seed,
        transitions: obs.stats.txn.phase_transitions,
        events: obs.stats.commits() + obs.stats.aborts(),
        serial_commits: obs.stats.txn.serial_commits,
    }
}

fn campaign() -> Vec<Scenario> {
    let mut out = Vec::new();
    for workload in [Workload::Counter, Workload::Bst] {
        for sched in [
            Sched::Fuzzed,
            Sched::Pct { depth: 3 },
            Sched::Pct { depth: 8 },
        ] {
            for storm in [
                Storm::None,
                Storm::Spurious { period: 40 },
                Storm::BackInvalidate { period: 50 },
            ] {
                for seed in 0..4 {
                    out.push(run_scenario(workload, sched, storm, seed));
                }
            }
        }
    }
    out
}

#[test]
fn oscillation_campaign_respects_the_transition_ceiling() {
    let scenarios = campaign();

    // Per-scenario hard ceiling: the hysteresis window admits at most one
    // transition per `HYSTERESIS` events (+1 slack for the window in
    // flight when the run ends).
    for s in &scenarios {
        assert!(
            s.transitions <= s.events / u64::from(HYSTERESIS) + 1,
            "{:?} {} storm={} seed={}: {} transitions over {} events \
             breaches the hysteresis-{HYSTERESIS} ceiling",
            s.workload,
            s.sched,
            s.storm.slug(),
            s.seed,
            s.transitions,
            s.events,
        );
    }

    // Campaign-wide rate ceiling: hysteresis 16 bounds the theoretical
    // worst case at 62.5 transitions per 1k events; 80/1k leaves room for
    // end-of-run windows without admitting real ping-pong (an uncontrolled
    // oscillator would exceed 200/1k).
    let transitions: u64 = scenarios.iter().map(|s| s.transitions).sum();
    let events: u64 = scenarios.iter().map(|s| s.events).sum();
    let rate = transitions as f64 * 1000.0 / events as f64;
    assert!(
        rate <= 80.0,
        "campaign oscillates at {rate:.1} transitions/1k events (ceiling 80)"
    );

    // Non-vacuity: the storms must actually provoke the controller, and
    // at least one scenario must drain into the serial phase — otherwise
    // the ceilings above were never exercised.
    assert!(
        transitions > 0,
        "no scenario produced a single phase transition; the stress is idle"
    );
    assert!(
        scenarios.iter().any(|s| s.serial_commits > 0),
        "no scenario reached the serial phase"
    );

    // Report the worst offender so a future ceiling breach names its
    // scenario immediately.
    let worst = scenarios
        .iter()
        .max_by(|a, b| a.rate_per_1k().total_cmp(&b.rate_per_1k()))
        .expect("campaign is non-empty");
    eprintln!(
        "worst oscillation: {:?} {} storm={} seed={} -> {} transitions / {} events ({:.1}/1k)",
        worst.workload,
        worst.sched,
        worst.storm.slug(),
        worst.seed,
        worst.transitions,
        worst.events,
        worst.rate_per_1k()
    );
}

#[test]
fn worst_known_scenario_stays_bounded() {
    // The campaign's worst offender, pinned as a standalone regression:
    // the BST under a fuzzed schedule with a spurious-abort storm (9
    // transitions over 146 events, 61.6/1k — right at the theoretical
    // ceiling). The sim is deterministic, so this scenario reproduces
    // exactly; if a controller change pushes it past the hysteresis
    // ceiling, this test names the breach without re-running the whole
    // campaign.
    let s = run_scenario(
        Workload::Bst,
        Sched::Fuzzed,
        Storm::Spurious { period: 40 },
        2,
    );
    assert!(
        s.transitions <= s.events / u64::from(HYSTERESIS) + 1,
        "pinned worst scenario breached the ceiling: {} transitions over {} events",
        s.transitions,
        s.events
    );
    assert!(
        s.rate_per_1k() <= 80.0,
        "pinned worst scenario oscillates at {:.1}/1k",
        s.rate_per_1k()
    );
}
