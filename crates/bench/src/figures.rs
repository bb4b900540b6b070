//! Runners regenerating each evaluation figure of the paper.
//!
//! Absolute cycle counts are a property of this simulator, not of the
//! authors' (proprietary) one; what these runners reproduce — and what
//! `EXPERIMENTS.md` compares — is each figure's *shape*: who wins, by
//! roughly what factor, and where the crossovers fall.
//!
//! ## Cells
//!
//! Every figure is decomposed into [`Cell`]s — hashable descriptions of
//! one simulator run. [`run_cell`] maps a cell to its [`CellOutput`]
//! deterministically (same cell, same output, always), which is what lets
//! the parallel sweep in [`crate::sweep`] execute cells on host threads in
//! any order and still render bit-identical tables: a figure's builder
//! only *requests* the cells it needs and folds their outputs into a
//! [`Table`]; where the outputs come from is the resolver's business. The
//! requests are also the figure's only cell list — [`Figure::cells`] runs
//! the builder against canned outputs and records what it asks for.

use std::collections::{HashMap, HashSet};

use hastm::Granularity;
use hastm_sim::{CacheConfig, MachineConfig};
use hastm_workloads::{
    analyze, generate_stream, run_kernel, run_workload, KernelParams, KernelResult, Scheme,
    Structure, WorkloadConfig, WorkloadResult, PROFILES,
};

use crate::table::{pct, ratio, Table};
use crate::Scale;

/// Named machine description used by a cell (kept as an enum rather than a
/// [`MachineConfig`] so cells stay cheap to hash and compare).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MachinePreset {
    /// The default machine of the single-thread figures.
    Default,
    /// The multi-core scaling machine (Figures 18-20): a next-line
    /// prefetcher and a modest shared inclusive L2 give cross-core
    /// interference without starving a single core.
    Scaling,
    /// The spurious-abort machine (Figures 21-22): a paper-era small L1
    /// plus a small shared inclusive L2 maximize the two §7.4 interference
    /// sources — prefetches kicking out marked lines and inclusive-L2
    /// back-invalidations — which is the regime in which the naïve
    /// always-aggressive policy pays for its re-executions.
    Interference,
}

impl MachinePreset {
    /// The concrete machine description.
    pub fn config(self) -> MachineConfig {
        match self {
            MachinePreset::Default => MachineConfig::default(),
            MachinePreset::Scaling => MachineConfig {
                prefetch_next_line: true,
                ..MachineConfig::default()
            },
            MachinePreset::Interference => MachineConfig {
                l1: CacheConfig::new(64, 4),  // 16 KiB 4-way (paper-era P4-class L1)
                l2: CacheConfig::new(256, 8), // 128 KiB shared, inclusive
                prefetch_next_line: true,
                ..MachineConfig::default()
            },
        }
    }
}

/// One independently runnable simulator job. The identity of a cell fully
/// determines its output, so cells double as memoization keys.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A data-structure workload run (Figures 11, 12, 16-22).
    Ds {
        /// Data structure under test.
        structure: Structure,
        /// Synchronization scheme.
        scheme: Scheme,
        /// Worker threads (= simulated cores).
        threads: usize,
        /// Experiment scale.
        scale: Scale,
        /// Machine description.
        machine: MachinePreset,
        /// Structure-size multiplier (scaling figures use 16 so
        /// transactions are long enough for interference to land inside).
        size_mult: u64,
    },
    /// A synthetic critical-section kernel replay (Figure 15).
    Kernel {
        /// Synchronization scheme.
        scheme: Scheme,
        /// Percent of memory operations that are loads.
        load_pct: u32,
        /// Load miss rate in percent (reuse is `100 - miss`).
        miss_pct: u32,
        /// Number of critical sections replayed.
        sections: u32,
    },
}

impl Cell {
    /// Short human label for progress reporting.
    pub fn label(&self) -> String {
        match self {
            Cell::Ds {
                structure,
                scheme,
                threads,
                machine,
                size_mult,
                ..
            } => format!(
                "{}/{} {}p{}{}",
                structure.label().to_lowercase(),
                scheme.label().to_lowercase(),
                threads,
                match machine {
                    MachinePreset::Default => "",
                    MachinePreset::Scaling => " scaling",
                    MachinePreset::Interference => " interference",
                },
                if *size_mult > 1 {
                    format!(" x{size_mult}")
                } else {
                    String::new()
                }
            ),
            Cell::Kernel {
                scheme,
                load_pct,
                miss_pct,
                ..
            } => format!(
                "kernel/{} load{} miss{}",
                scheme.label().to_lowercase(),
                load_pct,
                miss_pct
            ),
        }
    }

    /// Simulated cores the cell runs on (kernels are single-core replays).
    pub fn cores(&self) -> usize {
        match self {
            Cell::Ds { threads, .. } => *threads,
            Cell::Kernel { .. } => 1,
        }
    }

    /// The workload a [`Cell::Ds`] runs (`None` for a kernel replay).
    /// Public so the cross-gate test can run a cell's exact workload under
    /// the per-op reference gate.
    pub fn workload_config(&self) -> Option<WorkloadConfig> {
        let Cell::Ds {
            structure,
            scheme,
            threads,
            scale,
            machine,
            size_mult,
        } = *self
        else {
            return None;
        };
        let mut cfg = WorkloadConfig::paper_default(structure, scheme, threads);
        // Total work is fixed across thread counts (scaling experiments
        // divide the same op budget among threads).
        let total_ops = scale.ops() * 4;
        cfg.ops_per_thread = (total_ops / threads as u64).max(1);
        cfg.prepopulate = scale.prepopulate() * size_mult;
        cfg.key_range = cfg.prepopulate * 2;
        cfg.granularity = Granularity::CacheLine;
        cfg.machine = machine.config();
        if size_mult > 1 {
            // Scaling experiments: the adaptive watermark policy governs
            // HASTM at every thread count (the single-thread
            // always-aggressive policy would thrash on the interference
            // machine).
            cfg.mode_policy_override =
                Some(hastm::ModePolicy::AbortRatioWatermark { watermark: 0.1 });
        }
        Some(cfg)
    }
}

/// Output of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutput {
    /// Output of a [`Cell::Ds`] run.
    Ds(WorkloadResult),
    /// Output of a [`Cell::Kernel`] run.
    Kernel(KernelResult),
}

impl CellOutput {
    /// Makespan in simulated cycles.
    pub fn cycles(&self) -> u64 {
        match self {
            CellOutput::Ds(r) => r.cycles,
            CellOutput::Kernel(r) => r.cycles,
        }
    }

    fn ds(&self) -> &WorkloadResult {
        match self {
            CellOutput::Ds(r) => r,
            CellOutput::Kernel(_) => panic!("expected a data-structure cell output"),
        }
    }
}

/// Runs one cell. Pure up to determinism: equal cells produce equal
/// outputs in any process, on any thread, in any order.
pub fn run_cell(cell: &Cell) -> CellOutput {
    match *cell {
        Cell::Ds { .. } => {
            let cfg = cell
                .workload_config()
                .expect("every Ds cell has a workload");
            CellOutput::Ds(run_workload(&cfg))
        }
        Cell::Kernel {
            scheme,
            load_pct,
            miss_pct,
            sections,
        } => {
            let params = KernelParams {
                load_pct,
                load_reuse_pct: 100 - miss_pct,
                store_reuse_pct: 40,
                sections,
                ..KernelParams::default()
            };
            let stream = generate_stream(&params);
            CellOutput::Kernel(run_kernel(scheme, &stream))
        }
    }
}

/// A memoizing serial resolver: runs each distinct cell once, in calling
/// order, on the current thread, so repeated cells (e.g. a figure's shared
/// baseline) cost one simulation.
pub fn serial_resolver() -> impl FnMut(&Cell) -> CellOutput {
    let mut memo: HashMap<Cell, CellOutput> = HashMap::new();
    move |cell: &Cell| {
        memo.entry(cell.clone())
            .or_insert_with(|| run_cell(cell))
            .clone()
    }
}

fn ds_cell(structure: Structure, scheme: Scheme, threads: usize, scale: Scale) -> Cell {
    Cell::Ds {
        structure,
        scheme,
        threads,
        scale,
        machine: MachinePreset::Default,
        size_mult: 1,
    }
}

fn thread_counts(scale: Scale, deep: bool) -> Vec<usize> {
    match (scale, deep) {
        (Scale::Quick, _) => vec![1, 2, 4],
        (_, false) => vec![1, 2, 4],
        (Scale::Standard, true) => vec![1, 2, 4, 8],
        (Scale::Full, true) => vec![1, 2, 4, 8, 16],
    }
}

/// Figure 11: STM (cache-line granularity, coarse atomic sections) versus
/// coarse-grained locks as processors scale. Times are relative to the
/// single-thread lock time of the same structure.
fn fig11(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let threads = thread_counts(scale, true);
    let mut headers = vec!["series".to_string()];
    headers.extend(threads.iter().map(|t| format!("{t}p")));
    let mut table = Table {
        title: "Figure 11: STM vs lock scaling on TM workloads".into(),
        headers,
        rows: vec![],
        notes: vec![],
    };
    for structure in Structure::ALL {
        let lock1 = run(&ds_cell(structure, Scheme::Lock, 1, scale)).cycles();
        for scheme in [Scheme::Lock, Scheme::Stm] {
            let mut row = vec![format!("{structure}_{}", scheme.label().to_lowercase())];
            for &t in &threads {
                let r = run(&ds_cell(structure, scheme, t, scale));
                row.push(ratio(r.cycles(), lock1));
            }
            table.rows.push(row);
        }
    }
    table.note("relative to 1-thread lock; expected: locks flat/degrading, STM ~2x at 1p but scaling down with cores");
    table
}

/// Figure 12: where the base STM's time goes (read barrier, validation,
/// commit, write barrier, TLS access, application), single thread.
fn fig12(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Figure 12: STM execution time breakdown (single thread, % of transactional time)",
        &[
            "structure",
            "rdbar%",
            "validate%",
            "commit%",
            "wrbar%",
            "tls%",
            "app%",
        ],
    );
    for structure in Structure::ALL {
        let out = run(&ds_cell(structure, Scheme::Stm, 1, scale));
        let r = out.ds();
        let b = &r.txn.breakdown;
        let total = b.total().max(1) as f64;
        table.row(vec![
            structure.to_string(),
            pct(b.read_barrier as f64 / total),
            pct(b.validate as f64 / total),
            pct(b.commit as f64 / total),
            pct(b.write_barrier as f64 / total),
            pct(b.tls as f64 / total),
            pct(b.app as f64 / total),
        ]);
    }
    table.note("expected: read barrier + validation dominate the STM overhead (§7.1)");
    table
}

/// Figure 13: critical-section load fraction and cache reuse across the
/// Java/pthreads workload profiles. (Pure trace analysis — no simulator
/// cells.)
pub fn fig13() -> Table {
    let mut table = Table::new(
        "Figure 13: ratio of loads and cache reuse inside critical sections",
        &["workload", "loads%", "load_reuse%", "store_reuse%"],
    );
    for p in PROFILES {
        let a = analyze(&generate_stream(&p.params(0x13)));
        table.row(vec![
            p.name.to_string(),
            pct(a.load_fraction),
            pct(a.load_reuse),
            pct(a.store_reuse),
        ]);
    }
    table
        .note("expected: loads >70% of memory ops in almost all workloads; load reuse mostly >50%");
    table
}

const FIG15_MISSES: [u32; 3] = [60, 50, 40];
const FIG15_LOADS: [u32; 4] = [60, 70, 80, 90];

/// Figure 15: synthetic-kernel comparison of Cautious / HASTM / Hybrid
/// against the STM baseline while sweeping load fraction (60–90 %) and
/// load miss rate (40–60 %, i.e. reuse 60–40 %).
fn fig15(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Figure 15: TM performance comparison (execution time relative to STM)",
        &["miss%", "load%", "Cautious", "HASTM", "Hybrid"],
    );
    for miss_pct in FIG15_MISSES {
        for load_pct in FIG15_LOADS {
            let mut cycles = |scheme| {
                run(&Cell::Kernel {
                    scheme,
                    load_pct,
                    miss_pct,
                    sections: scale.sections(),
                })
                .cycles()
            };
            let stm = cycles(Scheme::Stm);
            let cautious = cycles(Scheme::HastmCautious);
            let hastm = cycles(Scheme::Hastm);
            let hybrid = cycles(Scheme::Hytm);
            table.row(vec![
                miss_pct.to_string(),
                load_pct.to_string(),
                ratio(cautious, stm),
                ratio(hastm, stm),
                ratio(hybrid, stm),
            ]);
        }
    }
    table.note("expected: HASTM >= Hybrid at 60% reuse (40% miss); within ~10% below at 40% reuse; cautious worst at low load/low reuse");
    table
}

/// A single-thread table of `schemes` per structure, each relative to
/// sequential execution (Figures 16 and 17).
fn vs_sequential(
    mut table: Table,
    schemes: [Scheme; 4],
    scale: Scale,
    run: &mut dyn FnMut(&Cell) -> CellOutput,
) -> Table {
    for structure in Structure::ALL {
        let seq = run(&ds_cell(structure, Scheme::Sequential, 1, scale)).cycles();
        let mut row = vec![structure.to_string()];
        for scheme in schemes {
            let cycles = run(&ds_cell(structure, scheme, 1, scale)).cycles();
            row.push(ratio(cycles, seq));
        }
        table.row(row);
    }
    table
}

/// Figure 16: single-thread execution time of the TM schemes relative to
/// sequential execution.
fn fig16(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let table = Table::new(
        "Figure 16: relative execution time for TM schemes (1 thread, vs sequential)",
        &["structure", "HASTM", "Hybrid-TM", "STM", "Lock"],
    );
    let schemes = [Scheme::Hastm, Scheme::Hytm, Scheme::Stm, Scheme::Lock];
    let mut table = vs_sequential(table, schemes, scale, run);
    table.note("expected: HASTM ~= Hybrid << STM; smallest HASTM gain on the hashtable (low reuse), largest on the btree (high reuse)");
    table
}

/// Figure 17: HASTM ablation — full HASTM, cautious-only, and no-reuse
/// (filter disabled) against the STM, relative to sequential.
fn fig17(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let table = Table::new(
        "Figure 17: performance breakdown for HASTM (1 thread, vs sequential)",
        &[
            "structure",
            "HASTM",
            "HASTM-Cautious",
            "HASTM-NoReuse",
            "STM",
        ],
    );
    let schemes = [
        Scheme::Hastm,
        Scheme::HastmCautious,
        Scheme::HastmNoReuse,
        Scheme::Stm,
    ];
    let mut table = vs_sequential(table, schemes, scale, run);
    table.note("expected: hashtable gains come from log elimination + validation (NoReuse ~= HASTM), trees also from reuse; cautious-only can exceed STM time");
    table
}

/// One multi-core scaling figure (14, 18–22): a row per scheme, a column
/// per core count, each cell relative to single-core lock time on the
/// same structure and machine.
#[derive(Copy, Clone, Debug)]
pub struct Scaling {
    /// Table title.
    pub title: &'static str,
    /// Data structure under test.
    pub structure: Structure,
    /// One row each.
    pub schemes: &'static [Scheme],
    /// Machine description.
    pub machine: MachinePreset,
    /// The paper's shape, as the table's first note.
    pub expected: &'static str,
}

impl Scaling {
    fn table(&self, scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
        let threads = thread_counts(scale, false);
        let mut headers = vec!["scheme".to_string()];
        headers.extend(threads.iter().map(|t| format!("{t} core")));
        let mut table = Table {
            title: self.title.into(),
            headers,
            rows: vec![],
            notes: vec![],
        };
        // Larger structures than the single-thread figures: transactions
        // must be long enough for cross-core interference to land inside
        // them.
        let mut cycles = |scheme, cores| {
            run(&Cell::Ds {
                structure: self.structure,
                scheme,
                threads: cores,
                scale,
                machine: self.machine,
                size_mult: 16,
            })
            .cycles()
        };
        let lock1 = cycles(Scheme::Lock, 1);
        for &scheme in self.schemes {
            let mut row = vec![scheme.label().to_string()];
            for &t in &threads {
                row.push(ratio(cycles(scheme, t), lock1));
            }
            table.rows.push(row);
        }
        table.note(self.expected);
        table.note(match self.machine {
            MachinePreset::Default => "machine: default single-core machine",
            MachinePreset::Scaling => "machine: default caches + next-line prefetcher",
            MachinePreset::Interference => {
                "machine: next-line prefetcher + small shared inclusive L2 (interference sources of §7.4)"
            }
        });
        table
    }
}

/// A figure's table builder: renders the table at the given scale,
/// requesting each cell's output through the resolver.
pub type BuildFn = fn(Scale, &mut dyn FnMut(&Cell) -> CellOutput) -> Table;

/// How a figure's table is built.
#[derive(Copy, Clone)]
pub enum Build {
    /// By a function of its own.
    Table(BuildFn),
    /// As one row of the multi-core scaling family.
    Scaling(Scaling),
}

/// One figure in the registry. Its cells are whatever its builder asks
/// for ([`Figure::cells`]); nothing else lists them.
#[derive(Copy, Clone)]
pub struct Figure {
    /// Short name (`fig11` ... `fig22`).
    pub name: &'static str,
    /// The table builder.
    pub build: Build,
}

impl Figure {
    /// Renders the table, requesting each cell's output through `run`.
    pub fn table(&self, scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
        match &self.build {
            Build::Table(build) => build(scale, run),
            Build::Scaling(scaling) => scaling.table(scale, run),
        }
    }

    /// The table computed serially on this thread, each distinct cell
    /// simulated once.
    pub fn serial(&self, scale: Scale) -> Table {
        self.table(scale, &mut serial_resolver())
    }

    /// The cells the builder requests at `scale`, deduplicated, in
    /// first-seen order: the builder is run against a resolver that
    /// records each request and answers it with a canned output, so
    /// nothing is simulated.
    pub fn cells(&self, scale: Scale) -> Vec<Cell> {
        let mut seen = HashSet::new();
        let mut cells = Vec::new();
        self.table(scale, &mut |cell| {
            if seen.insert(cell.clone()) {
                cells.push(cell.clone());
            }
            match cell {
                Cell::Ds { .. } => CellOutput::Ds(WorkloadResult {
                    cycles: 1,
                    total_ops: 1,
                    ..WorkloadResult::default()
                }),
                Cell::Kernel { .. } => CellOutput::Kernel(KernelResult {
                    cycles: 1,
                    ..KernelResult::default()
                }),
            }
        });
        cells
    }
}

const SCALING_SCHEMES: &[Scheme] = &[Scheme::Hastm, Scheme::Stm, Scheme::Lock];
const AGGRESSIVE_SCHEMES: &[Scheme] = &[Scheme::Hastm, Scheme::NaiveAggressive, Scheme::Stm];

/// Every figure in presentation order. Figure 13 is pure trace analysis
/// and requests no cells.
pub const FIGURES: [Figure; 12] = [
    Figure {
        name: "fig11",
        build: Build::Table(fig11),
    },
    Figure {
        name: "fig12",
        build: Build::Table(fig12),
    },
    Figure {
        name: "fig13",
        build: Build::Table(|_, _| fig13()),
    },
    // The HyTM rows are the paper's upper bound for a hybrid scheme: every
    // transaction fits in hardware, so software barriers vanish entirely.
    Figure {
        name: "fig14",
        build: Build::Scaling(Scaling {
            title: "Figure 14: best-case HyTM scaling vs HASTM and STM (BST)",
            structure: Structure::Bst,
            schemes: &[Scheme::Hytm, Scheme::Hastm, Scheme::Stm],
            machine: MachinePreset::Scaling,
            expected: "expected: best-case HyTM fastest (hardware barriers are free); HASTM lands between HyTM and STM",
        }),
    },
    Figure {
        name: "fig15",
        build: Build::Table(fig15),
    },
    Figure {
        name: "fig16",
        build: Build::Table(fig16),
    },
    Figure {
        name: "fig17",
        build: Build::Table(fig17),
    },
    Figure {
        name: "fig18",
        build: Build::Scaling(Scaling {
            title: "Figure 18: multi-core scaling for BST",
            structure: Structure::Bst,
            schemes: SCALING_SCHEMES,
            machine: MachinePreset::Scaling,
            expected: "expected: HASTM best overall; coarse lock does not scale (root lock for rotations)",
        }),
    },
    Figure {
        name: "fig19",
        build: Build::Scaling(Scaling {
            title: "Figure 19: multi-core scaling for Btree",
            structure: Structure::BTree,
            schemes: SCALING_SCHEMES,
            machine: MachinePreset::Scaling,
            expected: "expected: HASTM still best, but its edge over STM shrinks with cores (marked lines lost to cross-core interference force software validation)",
        }),
    },
    Figure {
        name: "fig20",
        build: Build::Scaling(Scaling {
            title: "Figure 20: multi-core scaling for hash table",
            structure: Structure::HashTable,
            schemes: SCALING_SCHEMES,
            machine: MachinePreset::Scaling,
            expected: "expected: low contention; HASTM scales as well as STM and stays fastest",
        }),
    },
    // HASTM versus the naïve always-aggressive policy versus STM, on the
    // machine with both §7.4 interference sources.
    Figure {
        name: "fig21",
        build: Build::Scaling(Scaling {
            title: "Figure 21: BST scaling (different TM schemes)",
            structure: Structure::Bst,
            schemes: AGGRESSIVE_SCHEMES,
            machine: MachinePreset::Interference,
            expected: "expected: naive-aggressive scales worst (spurious aborts force re-executions); HASTM unaffected (stays cautious under interference)",
        }),
    },
    Figure {
        name: "fig22",
        build: Build::Scaling(Scaling {
            title: "Figure 22: Btree scaling (different TM schemes)",
            structure: Structure::BTree,
            schemes: AGGRESSIVE_SCHEMES,
            machine: MachinePreset::Interference,
            expected: "expected: same shape as Figure 21 on the btree",
        }),
    },
];

/// The figure called `name` (`fig11` ... `fig22`).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn figure(name: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("unknown figure {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_has_twelve_rows() {
        let t = fig13();
        assert_eq!(t.rows.len(), 12);
        for r in 0..t.rows.len() {
            assert!(t.cell_f64(r, 1) > 60.0, "loads dominate");
        }
    }

    #[test]
    fn fig16_quick_shape() {
        let t = figure("fig16").serial(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for r in 0..3 {
            let hastm = t.cell_f64(r, 1);
            let stm = t.cell_f64(r, 3);
            // The hashtable has almost no reuse, so HASTM's win there is
            // small (§7.3) and can be within noise at quick scale.
            let slack = if t.rows[r][0] == "Hashtable" {
                1.05
            } else {
                1.0
            };
            assert!(
                hastm < stm * slack,
                "HASTM must not lose to STM on {}: {hastm} vs {stm}",
                t.rows[r][0]
            );
            assert!(hastm >= 0.9, "HASTM cannot beat sequential: {hastm}");
        }
        // The btree's high reuse gives HASTM its largest win.
        let btree_gain = t.cell_f64(2, 3) / t.cell_f64(2, 1);
        let hash_gain = t.cell_f64(1, 3) / t.cell_f64(1, 1);
        assert!(
            btree_gain > hash_gain,
            "btree gain {btree_gain} should exceed hashtable gain {hash_gain}"
        );
    }

    #[test]
    fn fig12_read_barrier_dominates() {
        let t = figure("fig12").serial(Scale::Quick);
        for r in 0..t.rows.len() {
            let rd = t.cell_f64(r, 1);
            let val = t.cell_f64(r, 2);
            let commit = t.cell_f64(r, 3);
            assert!(
                rd + val > commit,
                "read barrier + validation should dominate commit"
            );
        }
    }

    #[test]
    fn cell_dedup_keeps_declaration_order() {
        let cells = figure("fig11").cells(Scale::Quick);
        let unique: std::collections::HashSet<&Cell> = cells.iter().collect();
        assert_eq!(unique.len(), cells.len(), "no duplicates");
        // The Lock 1p baseline is also the first row cell; it appears once.
        let lock1 = ds_cell(Structure::Bst, Scheme::Lock, 1, Scale::Quick);
        assert_eq!(cells.iter().filter(|&c| *c == lock1).count(), 1);
    }
}
