//! Golden tests for the figure sweep, against the pin in `tests/pins/`.
//!
//! A 4-thread sweep of all 14 tables at ci scale must reproduce the pin:
//! every unique cell's pin line (cycles, digest and a hash of the whole
//! `CellOutput`: counters, txn stats, the embedded `RunReport`) and the
//! rendered tables. The tables pin is the 1-thread output (`smoke` holds
//! `HASTM_SWEEP_THREADS=1 all-figs` to it), so the parallel sweep is
//! bit-identical to the serial one.

mod pins;

use hastm::TxnStats;
use hastm_bench::figures::{Cell, CellOutput, FIGURES};
use hastm_bench::{sweep_selected, Scale, SweepConfig};

const SCALE: Scale = Scale::Quick; // = HASTM_BENCH_SCALE=ci

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let names: Vec<&str> = FIGURES.iter().map(|fig| fig.name).collect();
    let report = sweep_selected(&names, SCALE, &SweepConfig { threads: 4 });
    let tables: String = report
        .figures
        .iter()
        .map(|run| run.table.render() + "\n")
        .collect();
    pins::check(&[
        (pins::CELLS, &pins::cells_text(&report.cells)),
        (pins::TABLES, &tables),
    ]);
}

#[test]
fn the_pin_names_the_first_moved_cell() {
    let cells: Vec<(Cell, CellOutput)> = [(true, 1), (false, 1), (true, 4)]
        .into_iter()
        .map(|(filter_writes, rewrites)| {
            let cell = Cell::WriteFilter {
                filter_writes,
                rewrites,
            };
            let output = CellOutput::Txn {
                cycles: 1_000 * u64::from(rewrites),
                digest: 7,
                txn: TxnStats::default(),
            };
            (cell, output)
        })
        .collect();
    let pinned = pins::cells_text(&cells);
    assert_eq!(pins::first_moved(pins::CELLS, &pinned, &pinned), None);
    let mut moved = cells.clone();
    if let CellOutput::Txn { cycles, .. } = &mut moved[1].1 {
        *cycles += 1;
    }
    let message = pins::first_moved(pins::CELLS, &pinned, &pins::cells_text(&moved))
        .expect("one more cycle moves the pin");
    assert!(
        message.starts_with("cells.txt:2: cell `writefilter/off x1` moved"),
        "{message}"
    );
    // A table line is named by the table it is in.
    let table = "== Figure 1: t ==\nrow 1\n\n== Figure 2: u ==\nrow 2\n";
    let message = pins::first_moved(pins::TABLES, table, &table.replace("row 2", "row 3"))
        .expect("a changed row moves the pin");
    assert!(
        message.starts_with("tables.txt:5: table `Figure 2: u` moved"),
        "{message}"
    );
}
