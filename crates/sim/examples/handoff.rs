//! Host nanoseconds per simulated load when two cores run in lockstep —
//! every load hands the turn to the other core — against the same loop on
//! one core. `cargo run --release -p hastm-sim --example handoff`.

use std::time::Instant;

use hastm_sim::{Addr, Cpu, Machine, MachineConfig, WorkerFn, LINE_SIZE};

const LOADS: u64 = 2_000_000;

/// Best of five runs of `cores` workers that each load their own line
/// `LOADS` times: equal costs, so the clocks leapfrog on every op.
fn ns_per_load(cores: usize) -> f64 {
    let mut machine = Machine::new(MachineConfig::with_cores(cores));
    let best = (0..5)
        .map(|_| {
            let workers: Vec<WorkerFn<'_>> = (0..cores as u64)
                .map(|id| {
                    Box::new(move |cpu: &mut Cpu| {
                        for _ in 0..LOADS {
                            cpu.load_u64(Addr(0x1000 + id * LINE_SIZE));
                        }
                    }) as WorkerFn<'_>
                })
                .collect();
            let start = Instant::now();
            std::hint::black_box(machine.run(workers));
            start.elapsed()
        })
        .min()
        .expect("five runs");
    best.as_nanos() as f64 / (cores as u64 * LOADS) as f64
}

fn main() {
    println!("1 core:  {:6.1} ns per load", ns_per_load(1));
    println!("2 cores: {:6.1} ns per load (lockstep)", ns_per_load(2));
}
