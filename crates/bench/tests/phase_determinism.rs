//! Determinism of the phased-policy comparison (`all-figs --fig phases`):
//! every cell of the table is a pure function of the cell — the two gate
//! admission modes are schedule-identical, and host-thread placement of
//! the sweep cannot leak into simulated results. A phased run must
//! therefore be bit-identical under the per-op reference gate and across
//! 1/4/8 host sweep threads; any drift means host concurrency or gate
//! bookkeeping leaked into the simulated phase machine.
//!
//! `golden_parallel` holds the same cells to the pin; these tests compare
//! runs with each other, so they hold even while the pin awaits a re-bless.

use hastm_bench::figures::{figure, run_cell_on, CellOutput};
use hastm_bench::{sweep_selected, Scale, SweepConfig};
use hastm_sim::GateMode;

const SCALE: Scale = Scale::Quick;

#[test]
fn phase_points_are_bit_identical_across_gate_modes() {
    let cells = figure("phases").cells(SCALE);
    let quantum: Vec<CellOutput> = cells
        .iter()
        .map(|cell| run_cell_on(cell, GateMode::Quantum))
        .collect();
    let perop: Vec<CellOutput> = cells
        .iter()
        .map(|cell| run_cell_on(cell, GateMode::PerOp))
        .collect();
    assert_eq!(
        quantum, perop,
        "quantum and per-op gates produced different phase points"
    );
    // Non-vacuity: the phased rows actually exercised the controller.
    assert!(
        quantum.iter().any(|out| out.txn().phase_transitions > 0),
        "no phased point published a transition; the comparison is idle"
    );
}

#[test]
fn phase_points_are_bit_identical_across_host_thread_counts() {
    // Every cell's whole `CellOutput` and the rendered table.
    let sweep = |threads| {
        let report = sweep_selected(&["phases"], SCALE, &SweepConfig { threads });
        (report.cells, report.figures[0].table.render())
    };
    let serial = sweep(1);
    for threads in [4usize, 8] {
        assert_eq!(
            serial,
            sweep(threads),
            "{threads} host threads produced different phases cells or table than 1"
        );
    }
}
