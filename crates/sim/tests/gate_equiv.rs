//! The two equivalence properties behind the gate's shortcuts.
//!
//! Random straight-line programs — loads, stores, CASes, `exec_sync`
//! sections, plain instructions and stalls over a few contended lines, on
//! 1–4 cores — run twice, and everything observable must be bit-equal:
//! what each core's ops returned, the order the `exec_sync` sections ran
//! in, the [`RunReport`] (every per-core counter, every clock), and final
//! memory.
//!
//! * A core that is the only active core keeps the turn from op to op
//!   without asking the gate (the solo hold). The reference is the same
//!   programs run beside one more core that stalls past every other
//!   core's clock before its one load: no real core is ever alone there,
//!   so every op of theirs is admitted by the gate.
//! * A *plain* run — nothing traced, fuzzed or planned, which is what
//!   every figure is made of — takes `Cpu`'s short epilogue and lets
//!   stalls take no turn; a traced run of the same programs does neither,
//!   and is the reference for those two. It is not the reference for
//!   admission: tracing installs no pin, rank or jitter, so the traced
//!   run's gate compares clocks directly just as the plain run's does.
//!   That shortcut is checked against the general priority rule by
//!   `machine::tests::clock_only_admission_matches_the_priority_rule`.

use std::sync::Mutex;

use hastm_sim::{
    Addr, Cpu, Machine, MachineConfig, RunReport, ScheduleEvent, TraceConfig, WorkerFn,
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

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// What each core's ops returned (the clock, for ops that return
    /// nothing).
    returned: Vec<Vec<u64>>,
    /// Which core ran each `exec_sync` section, in the order they ran.
    syncs: Vec<usize>,
    /// The schedule derived from the run's trace; empty unless the run was
    /// traced.
    log: Vec<ScheduleEvent>,
    report: RunReport,
    memory: Vec<u64>,
}

/// Runs one program per core on the deterministic schedule, traced or
/// not. With `bystander`, one more core first stalls past every other
/// core's clock and then loads a line of its own, so no other core ever
/// runs alone; its entry in the report is dropped.
fn run(programs: &[Vec<Op>], traced: bool, bystander: bool) -> Observed {
    let cores = programs.len();
    let mut machine = Machine::new(MachineConfig::with_cores(cores + usize::from(bystander)));
    let base = machine.heap().alloc_aligned(SLOTS * 8, 64);
    let word = move |slot: u64| Addr(base.0 + slot * 8);
    let own_line = machine.heap().alloc_aligned(64, 64);
    machine.set_tracing(traced.then_some(TraceConfig));
    let mut returned: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let syncs = Mutex::new(Vec::new());
    let mut workers: Vec<WorkerFn<'_>> = programs
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
    if bystander {
        workers.push(Box::new(move |cpu: &mut Cpu| {
            cpu.tick(u64::MAX / 4);
            cpu.load_u64(own_line);
        }));
    }
    let mut report = machine.run(workers);
    report.cores.truncate(cores);
    Observed {
        returned,
        syncs: syncs.into_inner().expect("no section panics"),
        log: machine
            .take_trace()
            .map_or_else(Vec::new, |log| log.schedule()),
        report,
        memory: (0..SLOTS).map(|s| machine.peek_u64(word(s))).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_core_alone_runs_as_it_does_beside_a_bystander(
        programs in proptest::collection::vec(stalling_program(), 1..5),
    ) {
        let alone = run(&programs, false, false);
        let beside = run(&programs, false, true);
        // The bystander's load moves the machine-wide counters.
        prop_assert_eq!(alone.returned, beside.returned);
        prop_assert_eq!(alone.syncs, beside.syncs);
        prop_assert_eq!(alone.report.cores, beside.report.cores);
        prop_assert_eq!(alone.memory, beside.memory);
    }

    #[test]
    fn plain_runs_match_recorded_runs(
        programs in proptest::collection::vec(stalling_program(), 2..5),
    ) {
        let plain = run(&programs, false, false);
        let traced = run(&programs, true, false);
        prop_assert!(plain.log.is_empty(), "the plain run was traced");
        // (An `exec` short of a whole cycle is no op and leaves no entry.)
        let ops = programs.iter().flatten().filter(|op| !matches!(op, Op::Exec(_)));
        prop_assert!(traced.log.len() >= ops.count(), "the traced run was not");
        prop_assert_eq!(plain, Observed { log: Vec::new(), ..traced });
    }
}
