//! The one equivalence property behind [`GateMode`]: the run-until-overtaken
//! quantum gate admits exactly the schedule of the per-op reference gate.
//!
//! Random straight-line programs — loads, stores, CASes, `exec_sync`
//! sections, plain instructions and stalls over a few contended lines, on
//! 2–4 cores — run under both gates on the deterministic, fuzzed and PCT
//! schedules. Everything observable must be bit-equal: what each core's
//! ops returned, the recorded op-by-op admission log, the full
//! [`RunReport`] (every per-core and machine counter, every clock), and
//! final memory. `PerOp` exists to be this reference; nothing outside the
//! test suites selects it.

use hastm_sim::{Addr, Cpu, GateMode, Machine, MachineConfig, SchedulePolicy, WorkerFn};
use proptest::prelude::*;

/// Shared words: 16 consecutive words, so two cache lines are contended and
/// falsely shared.
const SLOTS: u64 = 16;

#[derive(Copy, Clone, Debug)]
enum Op {
    Load(u64),
    Store(u64, u64),
    /// `cas(slot, expected, new)`; small value ranges make hits common.
    Cas(u64, u64, u64),
    /// A gated host-side section (how the STM runtime touches host state).
    Sync(u64),
    Exec(u64),
    Tick(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SLOTS).prop_map(Op::Load),
        (0..SLOTS, 0..4u64).prop_map(|(s, v)| Op::Store(s, v)),
        (0..SLOTS, 0..4u64, 0..4u64).prop_map(|(s, e, n)| Op::Cas(s, e, n)),
        (1..6u64).prop_map(Op::Sync),
        (1..20u64).prop_map(Op::Exec),
        (1..40u64).prop_map(Op::Tick),
    ]
}

fn schedule() -> impl Strategy<Value = SchedulePolicy> {
    prop_oneof![
        Just(SchedulePolicy::Deterministic),
        any::<u64>().prop_map(|seed| SchedulePolicy::Fuzzed { seed }),
        (any::<u64>(), 1..5u32).prop_map(|(seed, depth)| SchedulePolicy::Pct { seed, depth }),
    ]
}

/// Runs one program per core and returns everything observable.
fn run(
    programs: &[Vec<Op>],
    schedule: SchedulePolicy,
    gate: GateMode,
) -> impl PartialEq + std::fmt::Debug {
    let mut machine = Machine::new(MachineConfig {
        gate,
        schedule,
        ..MachineConfig::with_cores(programs.len())
    });
    let base = machine.heap().alloc_aligned(SLOTS * 8, 64);
    let word = move |slot: u64| Addr(base.0 + slot * 8);
    machine.set_record_schedule(true);
    let mut returned: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let workers: Vec<WorkerFn<'_>> = programs
        .iter()
        .zip(&mut returned)
        .map(|(program, returned)| {
            Box::new(move |cpu: &mut Cpu| {
                let mut host = 0u64;
                for &op in program {
                    returned.push(match op {
                        Op::Load(s) => cpu.load_u64(word(s)),
                        Op::Store(s, v) => {
                            cpu.store_u64(word(s), v);
                            cpu.now()
                        }
                        Op::Cas(s, e, n) => cpu.cas_u64(word(s), e, n),
                        Op::Sync(insns) => cpu.exec_sync(insns, || {
                            host += 1;
                            host
                        }),
                        Op::Exec(insns) => {
                            cpu.exec(insns);
                            cpu.now()
                        }
                        Op::Tick(cycles) => {
                            cpu.tick(cycles);
                            cpu.now()
                        }
                    });
                }
            }) as WorkerFn<'_>
        })
        .collect();
    let report = machine.run(workers);
    let log = machine.take_schedule_log();
    let memory: Vec<u64> = (0..SLOTS).map(|s| machine.peek_u64(word(s))).collect();
    (returned, log, report, memory)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn quantum_gate_replays_the_per_op_schedule_op_for_op(
        programs in proptest::collection::vec(proptest::collection::vec(op(), 0..40), 2..5),
        schedule in schedule(),
    ) {
        let per_op = run(&programs, schedule, GateMode::PerOp);
        let quantum = run(&programs, schedule, GateMode::Quantum);
        prop_assert_eq!(per_op, quantum);
    }
}
