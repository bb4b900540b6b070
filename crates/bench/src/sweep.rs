//! Parallel figure sweep: a work-queue executor over figure [`Cell`]s.
//!
//! Every figure's cells are known up front ([`Figure::cells`]); the sweep
//! deduplicates them across figures and hands them out to N host threads
//! through a shared cursor. Because [`run_cell`] is deterministic (the
//! simulator's worker interleaving is fixed by its logical-clock turn
//! gate, not by host scheduling), the rendered tables are bit-identical at
//! any thread count: `hastm-bench`'s tests hold a 4-thread and a 1-thread
//! sweep to one pinned copy of every cell and table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::figures::{figure, run_cell, Cell, CellOutput, Figure};
use crate::table::Table;
use crate::Scale;

/// Sweep tuning.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Host worker threads draining the cell queue.
    pub threads: usize,
}

impl SweepConfig {
    /// Threads from `HASTM_SWEEP_THREADS` (unset: host parallelism).
    ///
    /// # Errors
    ///
    /// As [`SweepConfig::parse_threads`].
    pub fn from_env() -> Result<SweepConfig, String> {
        let value = crate::env_value("HASTM_SWEEP_THREADS")?;
        Ok(SweepConfig {
            threads: Self::parse_threads(value.as_deref())?,
        })
    }

    /// The thread count `HASTM_SWEEP_THREADS` names when set to `value`.
    ///
    /// # Errors
    ///
    /// Returns a message saying what is accepted for anything but a
    /// number of at least 1.
    pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
        match value {
            None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
            Some(text) => text.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                format!(
                    "HASTM_SWEEP_THREADS={text:?}: want a thread count of at least 1 \
                     (unset: host parallelism)"
                )
            }),
        }
    }
}

/// Per-figure outcome of a sweep.
#[derive(Clone, Debug)]
pub struct FigureRun {
    /// Figure name (`fig11` ... `fig22`).
    pub name: &'static str,
    /// The rendered table (bit-identical at any thread count).
    pub table: Table,
    /// Cells the figure declared.
    pub cells: usize,
    /// Declared cells first claimed by this figure (cells shared with an
    /// earlier figure are counted there).
    pub fresh_cells: usize,
    /// Sum of simulated makespans over the declared cells.
    pub simulated_cycles: u64,
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
    /// The distinct cells executed, in first-seen order, with their
    /// outputs.
    pub cells: Vec<(Cell, CellOutput)>,
}

/// Sweeps the named figures (names as in [`crate::FIGURES`]) on
/// `config.threads` host threads and renders their tables.
///
/// # Panics
///
/// Panics on an unknown figure name or if a worker panics.
pub fn sweep_selected(names: &[&str], scale: Scale, config: &SweepConfig) -> SweepReport {
    let start = Instant::now();
    let figures: Vec<&Figure> = names.iter().map(|name| figure(name)).collect();

    // Declare and dedup cells across figures, preserving first-seen order.
    let mut index_of: HashMap<Cell, usize> = HashMap::new();
    let mut jobs: Vec<Cell> = Vec::new();
    // (declared cell indices, fresh count) per figure.
    let mut declared: Vec<(Vec<usize>, usize)> = Vec::new();
    for fig in &figures {
        let cells = fig.cells(scale);
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

    // Render tables through a resolver answering from the completed jobs.
    let mut runs = Vec::with_capacity(figures.len());
    for (fig, (indices, fresh)) in figures.iter().zip(&declared) {
        let mut resolve = |cell: &Cell| match index_of.get(cell) {
            Some(&idx) => outputs[idx].clone(),
            // A request `Figure::cells` did not see (the canned outputs
            // steered the builder elsewhere): computed here, serially.
            None => run_cell(cell),
        };
        let table = fig.table(scale, &mut resolve);
        let simulated_cycles = indices.iter().map(|&i| outputs[i].cycles()).sum();
        runs.push(FigureRun {
            name: fig.name,
            table,
            cells: indices.len(),
            fresh_cells: *fresh,
            simulated_cycles,
        });
    }

    SweepReport {
        figures: runs,
        threads: config.threads,
        wall: start.elapsed(),
        cells: jobs.into_iter().zip(outputs).collect(),
    }
}

/// Runs `jobs` on `threads` workers, each claiming the next unclaimed
/// index from a shared cursor; returns each cell's output, indexed like
/// `jobs`. A worker's panic is re-raised when the scope joins it.
fn run_cells(jobs: &[Cell], threads: usize) -> Vec<CellOutput> {
    // Relaxed: the cursor only hands out indices; results are published
    // through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutput>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.min(jobs.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *slots[i].lock().expect("result slot") = Some(run_cell(job));
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
        // Unset: host parallelism, whatever it is here.
        assert!(SweepConfig::parse_threads(None).unwrap() >= 1);
        assert_eq!(SweepConfig::parse_threads(Some("1")), Ok(1));
        assert_eq!(SweepConfig::parse_threads(Some("12")), Ok(12));
        for typo in ["abc", "0", "", "-1", "2.5", "4 "] {
            let problem = SweepConfig::parse_threads(Some(typo)).unwrap_err();
            assert!(problem.contains(&format!("{typo:?}")), "{problem}");
            assert!(problem.contains("at least 1"), "{problem}");
        }
    }

    #[test]
    fn selected_sweep_matches_serial_tables() {
        let config = SweepConfig { threads: 3 };
        let report = sweep_selected(&["fig13", "fig12"], Scale::Quick, &config);
        assert_eq!(report.figures.len(), 2);
        assert_eq!(report.figures[0].name, "fig13");
        assert_eq!(report.figures[0].cells, 0, "fig13 is pure analysis");
        // The pinned tables are a serial ci-scale run (`smoke`'s
        // `HASTM_SWEEP_THREADS=1 all-figs`).
        let fig12 = report.figures[1].table.render();
        assert!(
            include_str!("../tests/pins/tables.txt").contains(&fig12),
            "parallel fig12 table must be bit-identical to the pinned serial one:\n{fig12}"
        );
        assert_eq!(report.cells.len(), 3);
        assert!(report.figures[1].simulated_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        sweep_selected(&["fig99"], Scale::Quick, &SweepConfig { threads: 1 });
    }

    #[test]
    fn shared_cells_are_attributed_once() {
        // fig16 and fig17 share nine 1-thread cells (Sequential, HASTM,
        // and STM per structure); the second figure must count them as
        // non-fresh.
        let config = SweepConfig { threads: 4 };
        let report = sweep_selected(&["fig16", "fig17"], Scale::Quick, &config);
        let f16 = &report.figures[0];
        let f17 = &report.figures[1];
        assert_eq!(f16.fresh_cells, f16.cells);
        assert_eq!(f17.fresh_cells, f17.cells - 9, "9 shared cells");
        assert_eq!(report.cells.len(), f16.cells + f17.cells - 9);
    }
}
