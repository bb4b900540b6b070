//! Parallel figure sweep: a work-queue executor over figure [`Cell`]s.
//!
//! Every figure declares its cells up front ([`FIGURES`]); the sweep
//! deduplicates them across figures and hands them out to N host threads
//! through a shared cursor. Because [`run_cell`] is deterministic (the
//! simulator's worker interleaving is fixed by its logical-clock turn
//! gate, not by host scheduling), the rendered tables are bit-identical to
//! a serial run —
//! [`SweepConfig::verify`] re-runs every cell on the coordinating thread
//! and asserts exactly that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::figures::{run_cell, Cell, CellOutput, FIGURES};
use crate::table::Table;
use crate::Scale;

/// Sweep tuning.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Host worker threads draining the cell queue.
    pub threads: usize,
    /// Re-run every cell serially after the parallel pass and assert the
    /// outputs are bit-identical (doubles the work; for tests and CI).
    pub verify: bool,
}

impl SweepConfig {
    /// Threads from `HASTM_SWEEP_THREADS` (default: host parallelism),
    /// verification off.
    pub fn from_env() -> SweepConfig {
        let threads = std::env::var("HASTM_SWEEP_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        SweepConfig {
            threads,
            verify: false,
        }
    }
}

/// Per-figure outcome of a sweep.
#[derive(Clone, Debug)]
pub struct FigureRun {
    /// Figure name (`fig11` ... `fig22`).
    pub name: &'static str,
    /// The rendered table (bit-identical to the serial builder's).
    pub table: Table,
    /// Cells the figure declared.
    pub cells: usize,
    /// Declared cells first claimed by this figure (cells shared with an
    /// earlier figure are counted there).
    pub fresh_cells: usize,
    /// Sum of simulated makespans over the declared cells.
    pub simulated_cycles: u64,
    /// Wall time attributed to this figure: each declared cell's
    /// single-cell wall time divided by the number of swept figures that
    /// declare it. Shared cells are split *proportionally*, so summing
    /// `cell_seconds` over all figures reconciles with the sum over the
    /// distinct executed cells (a figure whose cells are all shared no
    /// longer reports 0 wall time against nonzero simulated cycles).
    pub cell_seconds: f64,
    /// Names of the other swept figures this figure shares at least one
    /// deduplicated cell with (the figures its `cell_seconds` is split
    /// against).
    pub dedup_shared_with: Vec<&'static str>,
}

/// Outcome of a whole sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-figure outcomes, in presentation order.
    pub figures: Vec<FigureRun>,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time (enqueue to last table rendered).
    pub wall: Duration,
    /// Distinct cells executed.
    pub unique_cells: usize,
    /// Total simulated cycles over the distinct cells (each executed cell
    /// counted once, however many figures share it).
    pub simulated_cycles: u64,
    /// Distinct single-core cells (1-thread data-structure cells and
    /// kernels) and their summed single-cell wall seconds.
    pub solo_cells: usize,
    /// Summed wall seconds of the distinct single-core cells.
    pub solo_cell_seconds: f64,
    /// Distinct multi-core cells (≥ 2 simulated cores) — where the
    /// scheduler's host-synchronization cost concentrates.
    pub multi_cells: usize,
    /// Summed wall seconds of the distinct multi-core cells.
    pub multi_cell_seconds: f64,
}

impl SweepReport {
    /// Tables in presentation order.
    pub fn tables(&self) -> Vec<&Table> {
        self.figures.iter().map(|f| &f.table).collect()
    }
}

/// Sweeps every figure. See [`sweep_selected`].
pub fn sweep(scale: Scale, config: &SweepConfig) -> SweepReport {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    sweep_selected(&names, scale, config)
}

/// Sweeps the named figures (names as in [`FIGURES`]) on
/// `config.threads` host threads and renders their tables.
///
/// # Panics
///
/// Panics on an unknown figure name, if a builder requests a cell its
/// figure did not declare, if a worker panics, or — under
/// `config.verify` — if any parallel cell output differs from the serial
/// re-run.
pub fn sweep_selected(names: &[&str], scale: Scale, config: &SweepConfig) -> SweepReport {
    let start = Instant::now();
    let figures: Vec<_> = names
        .iter()
        .map(|name| {
            FIGURES
                .iter()
                .find(|f| f.name == *name)
                .unwrap_or_else(|| panic!("unknown figure {name:?}"))
        })
        .collect();

    // Declare and dedup cells across figures, preserving first-seen order.
    let mut index_of: HashMap<Cell, usize> = HashMap::new();
    let mut jobs: Vec<Cell> = Vec::new();
    // (declared cell indices, fresh count) per figure.
    let mut declared: Vec<(Vec<usize>, usize)> = Vec::new();
    for fig in &figures {
        let cells = (fig.cells)(scale);
        let mut indices = Vec::with_capacity(cells.len());
        let mut fresh = 0;
        for cell in cells {
            let next = jobs.len();
            let idx = *index_of.entry(cell.clone()).or_insert_with(|| {
                jobs.push(cell);
                fresh += 1;
                next
            });
            indices.push(idx);
        }
        declared.push((indices, fresh));
    }

    let outputs = run_cells(&jobs, config.threads);

    if config.verify {
        for (cell, (output, _)) in jobs.iter().zip(&outputs) {
            let serial = run_cell(cell);
            assert!(
                serial == *output,
                "parallel output diverged from serial for cell {} ({cell:?})",
                cell.label()
            );
        }
    }

    // Per-figure deduplicated declarations, and — for the proportional
    // wall-time split — how many swept figures claim each cell.
    let fig_unique: Vec<Vec<usize>> = declared
        .iter()
        .map(|(indices, _)| {
            let mut uniq = Vec::new();
            for &i in indices {
                if !uniq.contains(&i) {
                    uniq.push(i);
                }
            }
            uniq
        })
        .collect();
    let mut claims = vec![0usize; jobs.len()];
    for uniq in &fig_unique {
        for &i in uniq {
            claims[i] += 1;
        }
    }

    // Render tables through a resolver answering from the completed jobs.
    let mut runs = Vec::with_capacity(figures.len());
    for (pos, (fig, (indices, fresh))) in figures.iter().zip(&declared).enumerate() {
        let mut resolve = |cell: &Cell| -> CellOutput {
            let idx = *index_of.get(cell).unwrap_or_else(|| {
                panic!(
                    "{}: builder requested undeclared cell {} ({cell:?})",
                    fig.name,
                    cell.label()
                )
            });
            outputs[idx].0.clone()
        };
        let table = (fig.build)(scale, &mut resolve);
        let simulated_cycles = indices.iter().map(|&i| outputs[i].0.cycles()).sum();
        // Split each declared cell's wall time evenly across the figures
        // that declare it, so the per-figure times sum back to the total.
        let mut cell_seconds = 0.0;
        for &i in &fig_unique[pos] {
            cell_seconds += outputs[i].1 / claims[i] as f64;
        }
        let dedup_shared_with: Vec<&'static str> = figures
            .iter()
            .enumerate()
            .filter(|&(other, _)| {
                other != pos
                    && fig_unique[other]
                        .iter()
                        .any(|i| fig_unique[pos].contains(i))
            })
            .map(|(_, f)| f.name)
            .collect();
        runs.push(FigureRun {
            name: fig.name,
            table,
            cells: indices.len(),
            fresh_cells: *fresh,
            simulated_cycles,
            cell_seconds,
            dedup_shared_with,
        });
    }

    let (mut solo_cells, mut solo_cell_seconds) = (0, 0.0);
    let (mut multi_cells, mut multi_cell_seconds) = (0, 0.0);
    for (cell, (_, secs)) in jobs.iter().zip(&outputs) {
        if cell.cores() > 1 {
            multi_cells += 1;
            multi_cell_seconds += secs;
        } else {
            solo_cells += 1;
            solo_cell_seconds += secs;
        }
    }

    SweepReport {
        figures: runs,
        threads: config.threads,
        wall: start.elapsed(),
        unique_cells: jobs.len(),
        simulated_cycles: outputs.iter().map(|(o, _)| o.cycles()).sum(),
        solo_cells,
        solo_cell_seconds,
        multi_cells,
        multi_cell_seconds,
    }
}

/// Runs `jobs` on `threads` workers, each claiming the next unclaimed
/// index from a shared cursor; returns each cell's output and its
/// single-cell wall time, indexed like `jobs`. A worker's panic is
/// re-raised when the scope joins it.
fn run_cells(jobs: &[Cell], threads: usize) -> Vec<(CellOutput, f64)> {
    // Relaxed: the cursor only hands out indices; results are published
    // through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(CellOutput, f64)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.min(jobs.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let t0 = Instant::now();
                let output = run_cell(job);
                let secs = t0.elapsed().as_secs_f64();
                *slots[i].lock().expect("result slot") = Some((output, secs));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("queue drained, every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_defaults_to_parallelism() {
        // No env override in the test runner process is guaranteed, so
        // just assert the invariants the sweep relies on.
        let c = SweepConfig::from_env();
        assert!(c.threads >= 1);
        assert!(!c.verify);
    }

    #[test]
    fn selected_sweep_matches_serial_tables() {
        let config = SweepConfig {
            threads: 3,
            verify: false,
        };
        let report = sweep_selected(&["fig13", "fig12"], Scale::Quick, &config);
        assert_eq!(report.figures.len(), 2);
        assert_eq!(report.figures[0].name, "fig13");
        assert_eq!(report.figures[0].cells, 0, "fig13 is pure analysis");
        let serial = crate::figures::fig12(Scale::Quick);
        assert_eq!(
            report.figures[1].table.render(),
            serial.render(),
            "parallel fig12 table must be bit-identical to serial"
        );
        assert_eq!(report.unique_cells, 3);
        assert!(report.figures[1].simulated_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        sweep_selected(
            &["fig99"],
            Scale::Quick,
            &SweepConfig {
                threads: 1,
                verify: false,
            },
        );
    }

    #[test]
    fn shared_cells_are_attributed_once() {
        // fig16 and fig17 share nine 1-thread cells (Sequential, HASTM,
        // and STM per structure); the second figure must count them as
        // non-fresh.
        let config = SweepConfig {
            threads: 4,
            verify: false,
        };
        let report = sweep_selected(&["fig16", "fig17"], Scale::Quick, &config);
        let f16 = &report.figures[0];
        let f17 = &report.figures[1];
        assert_eq!(f16.fresh_cells, f16.cells);
        assert_eq!(f17.fresh_cells, f17.cells - 9, "9 shared cells");
        assert_eq!(report.unique_cells, f16.cells + f17.cells - 9);
    }
}
