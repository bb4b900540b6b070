//! The quantum gate must admit exactly the per-op reference schedule on
//! every differential workload.
//!
//! Every binary runs the simulator's default run-until-overtaken quantum
//! gate; [`GateMode::PerOp`] is the reference implementation it is meant to
//! be schedule-identical to. The check matrix used to carry a `:perop`
//! twin of every single-version combination to assert that; this test
//! asserts the same property directly — every swept scheme (and every
//! HASTM mode policy) × every workload, under fuzzed and PCT schedules,
//! must produce a bit-equal fingerprint *and* an identical recorded
//! op-by-op schedule under both gates.

use hastm::{Granularity, Versioning};
use hastm_check::{run_trial_plan, schedule_hash, Combo, RunPlan, Sched, Trial, Workload};
use hastm_sim::{GateMode, IsaLevel};

#[test]
fn per_op_and_quantum_gates_agree_on_every_scheme_and_workload() {
    let combos: Vec<Combo> = Combo::all()
        .into_iter()
        .filter(|c| {
            c.granularity == Granularity::Object
                && c.isa == IsaLevel::Full
                && c.versioning == Versioning::Single
        })
        .collect();
    assert_eq!(
        combos.len(),
        10,
        "6 swept schemes, hastm under each of 5 policies"
    );

    let mut compared = 0;
    for combo in combos {
        for workload in Workload::ALL {
            for sched in [Sched::Fuzzed, Sched::Pct { depth: 3 }] {
                for seed in [1, 2] {
                    let trial = Trial {
                        combo,
                        workload,
                        seed,
                        threads: 3,
                        ops: 8,
                        sched,
                    };
                    let under = |gate| {
                        let plan = RunPlan {
                            record_schedule: true,
                            gate,
                            ..RunPlan::default()
                        };
                        let (fp, obs) = run_trial_plan(&trial, &plan)
                            .unwrap_or_else(|e| panic!("{trial} under {gate:?}: {e}"));
                        (fp, obs.schedule.len(), schedule_hash(&obs.schedule))
                    };
                    assert_eq!(
                        under(GateMode::PerOp),
                        under(GateMode::Quantum),
                        "{trial}: the quantum gate left the per-op schedule"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 10 * 5 * 2 * 2);
}
