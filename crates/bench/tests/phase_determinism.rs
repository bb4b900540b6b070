//! Determinism of the phased-policy comparison: every `PhasePoint` is a
//! pure function of `(case, scale)` — the two gate admission modes are
//! schedule-identical, and host-thread placement of the sweep cannot leak
//! into simulated results. A Phased run must therefore be bit-identical
//! under the per-op reference gate and across 1/4/8 host sweep threads;
//! any drift means host concurrency or gate bookkeeping leaked into the
//! simulated phase machine.

use hastm_bench::phases::{
    phase_cases, phase_points, run_phase_case, PhaseCase, PhasePoint, PhaseRun,
};
use hastm_bench::Scale;
use hastm_sim::GateMode;

const SCALE: Scale = Scale::Quick;

/// Runs every case fanned out over `threads` host workers (cases are
/// dealt round-robin), returning points in case order.
fn points_on_host_threads(threads: usize) -> Vec<PhasePoint> {
    let cases = phase_cases();
    let mut slots: Vec<Option<PhasePoint>> = vec![None; cases.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let cases: Vec<(usize, PhaseCase)> = cases
                .iter()
                .copied()
                .enumerate()
                .skip(worker)
                .step_by(threads)
                .collect();
            handles.push(scope.spawn(move || {
                cases
                    .into_iter()
                    .map(|(i, case)| (i, run_phase_case(case, SCALE)))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, point) in handle.join().expect("worker panicked") {
                slots[i] = Some(point);
            }
        }
    });
    slots
        .into_iter()
        .map(|p| p.expect("all cases ran"))
        .collect()
}

#[test]
fn phase_points_are_bit_identical_across_gate_modes() {
    let quantum = phase_points(SCALE);
    let perop: Vec<PhasePoint> = phase_cases()
        .into_iter()
        .map(|case| {
            let mut run = PhaseRun::of(case, SCALE);
            run.machine_mut().gate = GateMode::PerOp;
            run.measure(case)
        })
        .collect();
    assert_eq!(
        quantum, perop,
        "quantum and per-op gates produced different phase points"
    );
    // Non-vacuity: the phased rows actually exercised the controller.
    assert!(
        quantum.iter().any(|p| p.transitions > 0),
        "no phased point published a transition; the comparison is idle"
    );
}

#[test]
fn phase_points_are_bit_identical_across_host_thread_counts() {
    let serial = points_on_host_threads(1);
    for threads in [4usize, 8] {
        let parallel = points_on_host_threads(threads);
        assert_eq!(
            serial, parallel,
            "{threads} host threads produced different phase points than 1"
        );
    }
}
