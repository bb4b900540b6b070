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
//!    reference schedule: every *multi-core* cell of *every* figure
//!    produces a bit-equal `WorkloadResult` — including the embedded
//!    `RunReport` (all per-core and machine counters) — under both
//!    `GateMode`s. Solo cells and kernel replays run one core, which
//!    never hands off, so the gate cannot matter to them.

use std::collections::HashSet;

use hastm_bench::figures::{figure, Cell, FIGURES};
use hastm_bench::{sweep_selected, Scale, SweepConfig};
use hastm_sim::GateMode;
use hastm_workloads::run_workload;

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let scale = Scale::Quick; // = HASTM_BENCH_SCALE=ci
    let config = SweepConfig {
        threads: 4,
        verify: true,
    };
    let names = ["fig11", "fig12", "fig15", "fig16", "fig17", "fig21"];
    let report = sweep_selected(&names, scale, &config);
    assert_eq!(report.figures.len(), names.len());
    for (run, name) in report.figures.iter().zip(names) {
        assert_eq!(
            run.table.render(),
            figure(name).serial(scale).render(),
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
    let mut seen: HashSet<Cell> = HashSet::new();
    let multi_core: Vec<Cell> = FIGURES
        .iter()
        .flat_map(|fig| fig.cells(scale))
        .filter(|cell| cell.cores() > 1 && seen.insert(cell.clone()))
        .collect();
    assert!(
        multi_core.len() >= 30,
        "every figure's multi-core cells, deduplicated; got {}",
        multi_core.len()
    );
    for cell in &multi_core {
        let under = |gate| {
            let mut cfg = cell.workload_config().expect("multi-core cells are Ds");
            cfg.machine.gate = gate;
            run_workload(&cfg)
        };
        assert_eq!(
            under(GateMode::PerOp),
            under(GateMode::Quantum),
            "cell {} diverged across gate modes",
            cell.label()
        );
    }
}
