//! Golden determinism tests for the figure sweep.
//!
//! 1. The parallel sweep's rendered tables must be byte-identical to the
//!    serial builders' for a representative slice of the evaluation — a
//!    deep-thread figure (fig11), the time-breakdown figure (fig12), the
//!    HASTM counterpart sweep (fig15), single-thread ratio figures
//!    (fig16/fig17), and an interference-machine scaling figure (fig21) —
//!    at CI scale.
//!    `verify: true` additionally re-runs every cell serially inside the
//!    sweep and asserts each `CellOutput` (cycles, counters, digest, txn
//!    stats) matches the parallel one exactly.
//! 2. The run-until-overtaken quantum gate must admit exactly the per-op
//!    reference schedule: every cell of the cross-scheduler slice
//!    produces a bit-equal `CellOutput` — including the embedded
//!    `RunReport` (all per-core and machine counters) — under both
//!    `GateMode`s, and the rendered tables match byte-for-byte.
//!
//! The cross-scheduler slice covers fig13 (pure analysis, exercising the
//! zero-cell path), fig14 (the best-case HyTM scaling figure) and fig21,
//! plus fig11 — the deepest multi-core figure — and two more scaling
//! figures for breadth.

use hastm_bench::figures::{run_cell_gated, FIGURES};
use hastm_bench::{fig11, fig12, fig15, fig16, fig17, fig21, sweep_selected, Scale, SweepConfig};
use hastm_sim::GateMode;

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let scale = Scale::Quick; // = HASTM_BENCH_SCALE=ci
    let config = SweepConfig {
        threads: 4,
        verify: true,
        gate: GateMode::default(),
    };
    let report = sweep_selected(
        &["fig11", "fig12", "fig15", "fig16", "fig17", "fig21"],
        scale,
        &config,
    );
    let serial = [
        fig11(scale),
        fig12(scale),
        fig15(scale),
        fig16(scale),
        fig17(scale),
        fig21(scale),
    ];
    assert_eq!(report.figures.len(), serial.len());
    for (run, serial_table) in report.figures.iter().zip(&serial) {
        assert_eq!(
            run.table.render(),
            serial_table.render(),
            "{}: parallel table must be byte-identical to serial",
            run.name
        );
    }
    assert!(report.unique_cells > 0);
    assert!(report.simulated_cycles > 0);
}

#[test]
fn gate_modes_produce_bit_identical_outputs() {
    let scale = Scale::Quick;
    let figs = ["fig11", "fig13", "fig14", "fig15", "fig17", "fig21"];

    // Cell-level: full CellOutput (cycles + RunReport counters + digest +
    // txn stats) bit-equality per cell, across every cell the slice
    // declares.
    let mut cells_checked = 0;
    for name in figs {
        let fig = FIGURES.iter().find(|f| f.name == name).expect(name);
        for cell in (fig.cells)(scale) {
            let per_op = run_cell_gated(&cell, GateMode::PerOp);
            let quantum = run_cell_gated(&cell, GateMode::Quantum);
            assert_eq!(
                per_op,
                quantum,
                "{name}: cell {} diverged across gate modes",
                cell.label()
            );
            cells_checked += 1;
        }
    }
    assert!(
        cells_checked > 0,
        "cross-scheduler slice declared no cells to compare"
    );

    // Table-level: the whole sweep renders byte-identically under either
    // gate (fig13's zero-cell analysis table included).
    let render = |gate: GateMode| {
        let config = SweepConfig {
            threads: 2,
            verify: false,
            gate,
        };
        sweep_selected(&figs, scale, &config)
            .figures
            .iter()
            .map(|f| f.table.render())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render(GateMode::PerOp),
        render(GateMode::Quantum),
        "sweep tables must not depend on the gate mode"
    );
}
