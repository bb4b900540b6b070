//! The two equivalence properties behind the gate's shortcuts.
//!
//! Random straight-line programs — loads, stores, CASes, `exec_sync`
//! sections, plain instructions and stalls over a few contended lines, on
//! 2–4 cores — run twice, and everything observable must be bit-equal:
//! what each core's ops returned, the order the `exec_sync` sections ran
//! in, the full [`RunReport`] (every per-core and machine counter, every
//! clock), and final memory.
//!
//! * The run-until-overtaken quantum gate admits exactly the schedule of
//!   the per-op reference gate, on the deterministic, fuzzed and PCT
//!   schedules; here the recorded op-by-op admission log is compared too.
//!   `PerOp` exists to be this reference; nothing outside the test suites
//!   selects it.
//! * A *plain* run — nothing recorded, traced, fuzzed or planned, which is
//!   what every figure is made of — takes `Cpu`'s short epilogue and lets
//!   stalls take no turn; a recorded run of the same programs does
//!   neither, and is the reference.

use std::sync::Mutex;

use hastm_sim::{
    Addr, Cpu, GateMode, Machine, MachineConfig, RunReport, ScheduleEvent, SchedulePolicy, WorkerFn,
};
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

fn stall() -> impl Strategy<Value = Op> {
    prop_oneof![(1..20u64).prop_map(Op::Exec), (1..40u64).prop_map(Op::Tick),]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0..SLOTS).prop_map(Op::Load),
        1 => (0..SLOTS, 0..4u64).prop_map(|(s, v)| Op::Store(s, v)),
        1 => (0..SLOTS, 0..4u64, 0..4u64).prop_map(|(s, e, n)| Op::Cas(s, e, n)),
        1 => (1..6u64).prop_map(Op::Sync),
        2 => stall(),
    ]
}

/// Programs shaped by what a plain run defers: single ops between short
/// runs of stalls, now and then a run longer than any cap on consecutive
/// deferrals `Cpu` could sensibly have (it is 16), and often stalls last.
fn stalling_program() -> impl Strategy<Value = Vec<Op>> {
    let piece = prop_oneof![
        4 => op().prop_map(|op| vec![op]),
        3 => proptest::collection::vec(stall(), 2..6),
        1 => proptest::collection::vec(stall(), 17..48),
    ];
    (
        proptest::collection::vec(piece, 0..12),
        proptest::collection::vec(stall(), 0..4),
    )
        .prop_map(|(pieces, tail)| pieces.into_iter().flatten().chain(tail).collect())
}

fn schedule() -> impl Strategy<Value = SchedulePolicy> {
    prop_oneof![
        Just(SchedulePolicy::Deterministic),
        any::<u64>().prop_map(|seed| SchedulePolicy::Fuzzed { seed }),
        (any::<u64>(), 1..5u32).prop_map(|(seed, depth)| SchedulePolicy::Pct { seed, depth }),
    ]
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// What each core's ops returned (the clock, for ops that return
    /// nothing).
    returned: Vec<Vec<u64>>,
    /// Which core ran each `exec_sync` section, in the order they ran.
    syncs: Vec<usize>,
    /// The admission log; empty unless the run was recorded.
    log: Vec<ScheduleEvent>,
    report: RunReport,
    memory: Vec<u64>,
}

/// Runs one program per core, recording the schedule or not.
fn run(programs: &[Vec<Op>], schedule: SchedulePolicy, gate: GateMode, record: bool) -> Observed {
    let mut machine = Machine::new(MachineConfig {
        gate,
        schedule,
        ..MachineConfig::with_cores(programs.len())
    });
    let base = machine.heap().alloc_aligned(SLOTS * 8, 64);
    let word = move |slot: u64| Addr(base.0 + slot * 8);
    machine.set_record_schedule(record);
    let mut returned: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let syncs = Mutex::new(Vec::new());
    let workers: Vec<WorkerFn<'_>> = programs
        .iter()
        .zip(&mut returned)
        .map(|(program, returned)| {
            let syncs = &syncs;
            Box::new(move |cpu: &mut Cpu| {
                for &op in program {
                    returned.push(match op {
                        Op::Load(s) => cpu.load_u64(word(s)),
                        Op::Store(s, v) => {
                            cpu.store_u64(word(s), v);
                            cpu.now()
                        }
                        Op::Cas(s, e, n) => cpu.cas_u64(word(s), e, n),
                        Op::Sync(insns) => {
                            let id = cpu.id();
                            cpu.exec_sync(insns, || {
                                let mut syncs = syncs.lock().expect("no section panics");
                                syncs.push(id);
                                syncs.len() as u64
                            })
                        }
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
    Observed {
        returned,
        syncs: syncs.into_inner().expect("no section panics"),
        log: machine.take_schedule_log(),
        report,
        memory: (0..SLOTS).map(|s| machine.peek_u64(word(s))).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn quantum_gate_replays_the_per_op_schedule_op_for_op(
        programs in proptest::collection::vec(proptest::collection::vec(op(), 0..40), 2..5),
        schedule in schedule(),
    ) {
        let per_op = run(&programs, schedule, GateMode::PerOp, true);
        let quantum = run(&programs, schedule, GateMode::Quantum, true);
        prop_assert_eq!(per_op, quantum);
    }

    #[test]
    fn plain_runs_match_recorded_runs(
        programs in proptest::collection::vec(stalling_program(), 2..5),
        gate in prop_oneof![Just(GateMode::PerOp), Just(GateMode::Quantum)],
    ) {
        let plain = run(&programs, SchedulePolicy::Deterministic, gate, false);
        let recorded = run(&programs, SchedulePolicy::Deterministic, gate, true);
        prop_assert!(plain.log.is_empty(), "the plain run was recorded");
        // (An `exec` short of a whole cycle is no op and leaves no entry.)
        let ops = programs.iter().flatten().filter(|op| !matches!(op, Op::Exec(_)));
        prop_assert!(recorded.log.len() >= ops.count(), "the recorded run was not");
        prop_assert_eq!(plain, Observed { log: Vec::new(), ..recorded });
    }
}
