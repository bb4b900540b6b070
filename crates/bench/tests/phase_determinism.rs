//! Determinism of the phased-policy comparison (`all-figs --fig phases`):
//! every cell of the table is a pure function of the cell — host-thread
//! placement of the sweep cannot leak into simulated results. A phased run
//! must therefore be bit-identical across 1/4/8 host sweep threads; any
//! drift means host concurrency leaked into the simulated phase machine.
//!
//! `golden_parallel` holds the same cells to the pin; this test compares
//! runs with each other, so it holds even while the pin awaits a re-bless.

use hastm_bench::{sweep_selected, Scale, SweepConfig};

const SCALE: Scale = Scale::Quick;

#[test]
fn phase_points_are_bit_identical_across_host_thread_counts() {
    // Every cell's whole `CellOutput` and the rendered table.
    let sweep = |threads| {
        let report = sweep_selected(&["phases"], SCALE, &SweepConfig { threads });
        (report.cells, report.figures[0].table.render())
    };
    let serial = sweep(1);
    // Non-vacuity: the phased rows actually exercised the controller.
    assert!(
        serial
            .0
            .iter()
            .any(|(_, out)| out.txn().phase_transitions > 0),
        "no phased point published a transition; the comparison is idle"
    );
    for threads in [4usize, 8] {
        assert_eq!(
            serial,
            sweep(threads),
            "{threads} host threads produced different phases cells or table than 1"
        );
    }
}
