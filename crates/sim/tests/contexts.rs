//! What `Machine::run` owes its callers however the cores execute on the
//! host — as contexts on the calling thread (x86-64 Unix) or as host
//! threads: a worker's panic comes back as the original payload with
//! nothing leaked and the machine still usable, worker code gets a real
//! stack, idle and many workers are fine, a worker that only stalls does
//! not keep the others from running, and a machine is not tied to the
//! thread or the call depth it last ran at.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use hastm_sim::{Addr, Cpu, GateMode, Machine, MachineConfig, RunReport, WorkerFn, LINE_SIZE};

/// `cores` workers that each CAS-increment one shared word `rounds`
/// times: every increment contends, so the cores hand the turn back and
/// forth for the whole run.
fn counting_workers<'env>(cores: usize, rounds: u64) -> Vec<WorkerFn<'env>> {
    (0..cores)
        .map(|_| {
            Box::new(move |cpu: &mut Cpu| {
                for _ in 0..rounds {
                    loop {
                        let v = cpu.load_u64(Addr(0x100));
                        if cpu.cas_u64(Addr(0x100), v, v + 1) == v {
                            break;
                        }
                    }
                }
            }) as WorkerFn<'env>
        })
        .collect()
}

fn counting_run(machine: &mut Machine, cores: usize, rounds: u64) -> (u64, RunReport) {
    let before = machine.peek_u64(Addr(0x100));
    let report = machine.run(counting_workers(cores, rounds));
    (machine.peek_u64(Addr(0x100)) - before, report)
}

/// Bumps a counter when dropped: stands for anything a worker owns.
struct Owned<'a>(&'a AtomicUsize);

impl Drop for Owned<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_panic_mid_run_is_reraised_leaks_nothing_and_leaves_the_machine_usable() {
    const CORES: usize = 4;
    for gate in [GateMode::Quantum, GateMode::PerOp] {
        let mut machine = Machine::new(MachineConfig {
            gate,
            ..MachineConfig::with_cores(CORES)
        });
        for culprit in 0..CORES {
            let dropped = AtomicUsize::new(0);
            let workers: Vec<WorkerFn<'_>> = (0..CORES)
                .map(|id| {
                    let captured = Owned(&dropped);
                    let dropped = &dropped;
                    Box::new(move |cpu: &mut Cpu| {
                        let _captured = captured;
                        let _local = Owned(dropped);
                        // Private lines: long quanta, so the others are
                        // in the middle of one when the culprit panics.
                        let mine = Addr(0x1000 + id as u64 * LINE_SIZE);
                        for i in 0..200 {
                            cpu.store_u64(mine, i);
                            if id == culprit && i == 100 {
                                panic!("core {culprit} gives up");
                            }
                        }
                    }) as WorkerFn<'_>
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| machine.run(workers)))
                .expect_err("the culprit's panic must come out of run");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("core {culprit} gives up").as_str()),
                "run must re-raise the worker's own payload"
            );
            assert_eq!(
                dropped.load(Ordering::Relaxed),
                2 * CORES,
                "every worker's captures and locals are dropped, the culprit's by unwinding"
            );
            for id in (0..CORES).filter(|&id| id != culprit) {
                assert_eq!(
                    machine.peek_u64(Addr(0x1000 + id as u64 * LINE_SIZE)),
                    199,
                    "core {id} must run to completion after core {culprit} panicked"
                );
            }
            // The same machine runs again, and deterministically so.
            let (count, _) = counting_run(&mut machine, CORES, 20);
            assert_eq!(count, CORES as u64 * 20);
        }
    }
}

#[test]
fn a_lone_worker_panics_straight_through_run() {
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        machine.run_one(|cpu| {
            cpu.store_u64(Addr(0x100), 7);
            panic!("alone");
        })
    }))
    .expect_err("the worker panics");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"alone"));
    assert_eq!(machine.peek_u64(Addr(0x100)), 7);
    assert_eq!(counting_run(&mut machine, 2, 10).0, 20);
}

#[test]
fn one_payload_comes_out_when_every_worker_panics() {
    let mut machine = Machine::new(MachineConfig::with_cores(3));
    let workers: Vec<WorkerFn<'_>> = (0..3)
        .map(|id| {
            Box::new(move |cpu: &mut Cpu| {
                // Core 2 panics first in simulated time and core 0 is the
                // lowest-numbered: which counts as "first" is the gate
                // mechanism's business, that it is one of them is not.
                cpu.tick(1000 - 100 * id as u64);
                cpu.load_u64(Addr(0x40));
                panic!("core {id}");
            }) as WorkerFn<'_>
        })
        .collect();
    let payload =
        catch_unwind(AssertUnwindSafe(|| machine.run(workers))).expect_err("all workers panic");
    let message = payload.downcast_ref::<String>().expect("formatted message");
    assert!(message.starts_with("core "), "{message}");
    assert_eq!(counting_run(&mut machine, 3, 5).0, 15);
}

#[test]
fn a_worker_can_recurse_ten_thousand_frames_deep() {
    // Unoptimised frames are at their largest in a debug build; 10 k of
    // them with a gated op at every level must fit a worker's stack, as
    // they fit the 2 MiB a host thread gets.
    fn descend(cpu: &mut Cpu, depth: u64) -> u64 {
        if depth == 0 {
            return cpu.load_u64(Addr(0x100));
        }
        cpu.tick(1);
        descend(cpu, depth - 1) + 1
    }
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    let depths = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let workers: Vec<WorkerFn<'_>> = depths
        .iter()
        .map(|slot| {
            Box::new(move |cpu: &mut Cpu| {
                slot.store(descend(cpu, 10_000) as usize, Ordering::Relaxed);
            }) as WorkerFn<'_>
        })
        .collect();
    machine.run(workers);
    for slot in &depths {
        assert_eq!(slot.load(Ordering::Relaxed), 10_000);
    }
}

#[test]
fn workers_without_a_gated_op_just_return() {
    let mut machine = Machine::new(MachineConfig::with_cores(4));
    // All idle.
    let ran = AtomicUsize::new(0);
    let report = machine.run(
        (0..4)
            .map(|_| {
                Box::new(|_: &mut Cpu| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as WorkerFn<'_>
            })
            .collect(),
    );
    assert_eq!(ran.load(Ordering::Relaxed), 4);
    assert_eq!(report.makespan(), 0);
    // Idle workers among busy ones, in every position.
    for busy in 0..4 {
        let workers: Vec<WorkerFn<'_>> = (0..4)
            .map(|id| {
                Box::new(move |cpu: &mut Cpu| {
                    if id == busy {
                        for i in 0..50 {
                            cpu.store_u64(Addr(0x200), i);
                        }
                    }
                }) as WorkerFn<'_>
            })
            .collect();
        let report = machine.run(workers);
        assert_eq!(report.cores[busy].stores, 50);
        assert_eq!(machine.peek_u64(Addr(0x200)), 49);
    }
}

#[test]
fn a_core_that_only_stalls_lets_the_others_run_and_loses_no_cycle() {
    // Core 0 spins on host state only core 1 will set. A stall need not
    // take a turn (on a plain run `Cpu::tick` defers it), but contexts
    // switch nowhere else: were no stall ever to take one, core 1 would
    // never run. The spin is bounded so that this fails instead of hanging.
    const GIVE_UP: u64 = 50_000_000;
    for gate in [GateMode::Quantum, GateMode::PerOp] {
        let mut machine = Machine::new(MachineConfig {
            gate,
            ..MachineConfig::with_cores(2)
        });
        let done = AtomicBool::new(false);
        let mut ticks = 0;
        let report = machine.run(vec![
            Box::new(|cpu: &mut Cpu| {
                while !done.load(Ordering::Acquire) && ticks < GIVE_UP {
                    cpu.tick(1);
                    ticks += 1;
                }
            }),
            Box::new(|cpu: &mut Cpu| {
                for i in 0..8 {
                    cpu.store_u64(Addr(0x100 + i * LINE_SIZE), i);
                }
                done.store(true, Ordering::Release);
            }),
        ]);
        assert!(ticks < GIVE_UP, "core 1 never got to run ({gate:?})");
        assert_eq!(report.cores[1].stores, 8);
        // Every stall is in the reported clock, whether a turn published
        // it or the end of the worker did.
        assert_eq!(report.cores[0].cycles, ticks, "{gate:?}");
    }
}

#[test]
fn eight_cores_take_turns_identically_under_both_gates() {
    let run = |gate| {
        let mut machine = Machine::new(MachineConfig {
            gate,
            ..MachineConfig::with_cores(8)
        });
        // Fewer workers than cores first: only their contexts are needed.
        let few = counting_run(&mut machine, 3, 30);
        let all = counting_run(&mut machine, 8, 30);
        (few, all)
    };
    let quantum = run(GateMode::Quantum);
    assert_eq!(quantum.0 .0, 90);
    assert_eq!(quantum.1 .0, 240);
    assert_eq!(quantum, run(GateMode::PerOp));
}

#[test]
fn a_machine_can_move_to_another_host_thread_between_runs() {
    let mut home = Machine::new(MachineConfig::with_cores(2));
    let mut moved = Machine::new(MachineConfig::with_cores(2));
    let first = counting_run(&mut home, 2, 40);
    assert_eq!(first, counting_run(&mut moved, 2, 40));
    // Second run: one machine stays, the other runs on a new thread (its
    // cores' stacks, if it has any, were made on this one).
    let at_home = counting_run(&mut home, 2, 40);
    let (away, mut moved) = std::thread::spawn(move || {
        let result = counting_run(&mut moved, 2, 40);
        (result, moved)
    })
    .join()
    .expect("the run on the other thread succeeds");
    assert_eq!(at_home, away);
    // And back again.
    assert_eq!(
        counting_run(&mut home, 2, 40),
        counting_run(&mut moved, 2, 40)
    );
}

#[test]
fn a_worker_can_run_another_machine_to_completion() {
    // The inner machine's run starts on an outer core's stack, in the
    // middle of the outer run, and must neither disturb nor be disturbed
    // by the outer cores taking turns around it.
    let reference = counting_run(&mut Machine::new(MachineConfig::with_cores(3)), 3, 25);

    let mut outer = Machine::new(MachineConfig::with_cores(2));
    let mut inner = Machine::new(MachineConfig::with_cores(3));
    let inner_result = std::sync::Mutex::new(None);
    let workers: Vec<WorkerFn<'_>> = vec![
        Box::new(|cpu: &mut Cpu| {
            for i in 0..100 {
                cpu.store_u64(Addr(0x300), i);
                if i == 50 {
                    let result = counting_run(&mut inner, 3, 25);
                    *inner_result.lock().unwrap() = Some(result);
                }
            }
        }),
        Box::new(|cpu: &mut Cpu| {
            for i in 0..100 {
                cpu.store_u64(Addr(0x340), i);
            }
        }),
    ];
    let nested = outer.run(workers);
    assert_eq!(
        inner_result.into_inner().unwrap().as_ref(),
        Some(&reference)
    );

    // The outer run's simulated result does not depend on what its worker
    // did on the host between two of its operations.
    let mut plain = Machine::new(MachineConfig::with_cores(2));
    let workers: Vec<WorkerFn<'_>> = [0x300u64, 0x340]
        .into_iter()
        .map(|addr| {
            Box::new(move |cpu: &mut Cpu| {
                for i in 0..100 {
                    cpu.store_u64(Addr(addr), i);
                }
            }) as WorkerFn<'_>
        })
        .collect();
    assert_eq!(nested, plain.run(workers));
}
