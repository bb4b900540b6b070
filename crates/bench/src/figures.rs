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
//! any order and still render bit-identical tables: each `figNN_with`
//! builder only *declares* which cells it needs and how to fold their
//! outputs into a [`Table`]; where the outputs come from is the resolver's
//! business.

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
/// order, on the current thread. The `figNN(scale)` entry points use one
/// of these, so repeated cells (e.g. a figure's shared baseline) cost one
/// simulation.
pub fn serial_resolver() -> impl FnMut(&Cell) -> CellOutput {
    let mut memo: HashMap<Cell, CellOutput> = HashMap::new();
    move |cell: &Cell| {
        memo.entry(cell.clone())
            .or_insert_with(|| run_cell(cell))
            .clone()
    }
}

/// Cell accumulator that preserves first-seen order while dropping
/// duplicates (figures reuse baselines across rows).
#[derive(Default)]
struct CellList {
    seen: HashSet<Cell>,
    cells: Vec<Cell>,
}

impl CellList {
    fn push(&mut self, cell: Cell) {
        if self.seen.insert(cell.clone()) {
            self.cells.push(cell);
        }
    }

    fn into_vec(self) -> Vec<Cell> {
        self.cells
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

fn scaled_cell(
    structure: Structure,
    scheme: Scheme,
    threads: usize,
    scale: Scale,
    machine: MachinePreset,
) -> Cell {
    Cell::Ds {
        structure,
        scheme,
        threads,
        scale,
        machine,
        size_mult: 16,
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

/// Cells of Figure 11.
pub fn fig11_cells(scale: Scale) -> Vec<Cell> {
    let threads = thread_counts(scale, true);
    let mut cells = CellList::default();
    for structure in Structure::ALL {
        cells.push(ds_cell(structure, Scheme::Lock, 1, scale));
        for scheme in [Scheme::Lock, Scheme::Stm] {
            for &t in &threads {
                cells.push(ds_cell(structure, scheme, t, scale));
            }
        }
    }
    cells.into_vec()
}

/// Figure 11 rendered through `run` (see module docs).
pub fn fig11_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
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

/// Figure 11: STM (cache-line granularity, coarse atomic sections) versus
/// coarse-grained locks as processors scale. Times are relative to the
/// single-thread lock time of the same structure.
pub fn fig11(scale: Scale) -> Table {
    fig11_with(scale, &mut serial_resolver())
}

/// Cells of Figure 12.
pub fn fig12_cells(scale: Scale) -> Vec<Cell> {
    Structure::ALL
        .iter()
        .map(|&s| ds_cell(s, Scheme::Stm, 1, scale))
        .collect()
}

/// Figure 12 rendered through `run`.
pub fn fig12_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
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

/// Figure 12: where the base STM's time goes (read barrier, validation,
/// commit, write barrier, TLS access, application), single thread.
pub fn fig12(scale: Scale) -> Table {
    fig12_with(scale, &mut serial_resolver())
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

const FIG14_SCHEMES: [Scheme; 3] = [Scheme::Hytm, Scheme::Hastm, Scheme::Stm];

/// Cells of Figure 14.
pub fn fig14_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::Bst,
        &FIG14_SCHEMES,
        scale,
        MachinePreset::Scaling,
    )
}

/// Figure 14 rendered through `run`.
pub fn fig14_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 14: best-case HyTM scaling vs HASTM and STM (BST)",
        Structure::Bst,
        &FIG14_SCHEMES,
        scale,
        MachinePreset::Scaling,
        "expected: best-case HyTM fastest (hardware barriers are free); HASTM lands between HyTM and STM",
        run,
    )
}

/// Figure 14: multi-core BST scaling of best-case HyTM against HASTM and
/// the base STM (relative to single-core lock time). The HyTM rows are
/// the paper's upper bound for a hybrid scheme: every transaction fits in
/// hardware, so software barriers vanish entirely.
pub fn fig14(scale: Scale) -> Table {
    fig14_with(scale, &mut serial_resolver())
}

const FIG15_MISSES: [u32; 3] = [60, 50, 40];
const FIG15_LOADS: [u32; 4] = [60, 70, 80, 90];
const FIG15_SCHEMES: [Scheme; 4] = [
    Scheme::Stm,
    Scheme::HastmCautious,
    Scheme::Hastm,
    Scheme::Hytm,
];

fn kernel_cell(scheme: Scheme, load_pct: u32, miss_pct: u32, scale: Scale) -> Cell {
    Cell::Kernel {
        scheme,
        load_pct,
        miss_pct,
        sections: scale.sections(),
    }
}

/// Cells of Figure 15.
pub fn fig15_cells(scale: Scale) -> Vec<Cell> {
    let mut cells = CellList::default();
    for miss in FIG15_MISSES {
        for load in FIG15_LOADS {
            for scheme in FIG15_SCHEMES {
                cells.push(kernel_cell(scheme, load, miss, scale));
            }
        }
    }
    cells.into_vec()
}

/// Figure 15 rendered through `run`.
pub fn fig15_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Figure 15: TM performance comparison (execution time relative to STM)",
        &["miss%", "load%", "Cautious", "HASTM", "Hybrid"],
    );
    for miss in FIG15_MISSES {
        for load in FIG15_LOADS {
            let stm = run(&kernel_cell(Scheme::Stm, load, miss, scale)).cycles();
            let cautious = run(&kernel_cell(Scheme::HastmCautious, load, miss, scale)).cycles();
            let hastm = run(&kernel_cell(Scheme::Hastm, load, miss, scale)).cycles();
            let hybrid = run(&kernel_cell(Scheme::Hytm, load, miss, scale)).cycles();
            table.row(vec![
                miss.to_string(),
                load.to_string(),
                ratio(cautious, stm),
                ratio(hastm, stm),
                ratio(hybrid, stm),
            ]);
        }
    }
    table.note("expected: HASTM >= Hybrid at 60% reuse (40% miss); within ~10% below at 40% reuse; cautious worst at low load/low reuse");
    table
}

/// Figure 15: synthetic-kernel comparison of Cautious / HASTM / Hybrid
/// against the STM baseline while sweeping load fraction (60–90 %) and
/// load miss rate (40–60 %, i.e. reuse 60–40 %).
pub fn fig15(scale: Scale) -> Table {
    fig15_with(scale, &mut serial_resolver())
}

const FIG16_SCHEMES: [Scheme; 4] = [Scheme::Hastm, Scheme::Hytm, Scheme::Stm, Scheme::Lock];

/// Cells of Figure 16.
pub fn fig16_cells(scale: Scale) -> Vec<Cell> {
    let mut cells = CellList::default();
    for structure in Structure::ALL {
        cells.push(ds_cell(structure, Scheme::Sequential, 1, scale));
        for scheme in FIG16_SCHEMES {
            cells.push(ds_cell(structure, scheme, 1, scale));
        }
    }
    cells.into_vec()
}

/// Figure 16 rendered through `run`.
pub fn fig16_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Figure 16: relative execution time for TM schemes (1 thread, vs sequential)",
        &["structure", "HASTM", "Hybrid-TM", "STM", "Lock"],
    );
    for structure in Structure::ALL {
        let seq = run(&ds_cell(structure, Scheme::Sequential, 1, scale)).cycles();
        let mut row = vec![structure.to_string()];
        for scheme in FIG16_SCHEMES {
            let cycles = run(&ds_cell(structure, scheme, 1, scale)).cycles();
            row.push(ratio(cycles, seq));
        }
        table.row(row);
    }
    table.note("expected: HASTM ~= Hybrid << STM; smallest HASTM gain on the hashtable (low reuse), largest on the btree (high reuse)");
    table
}

/// Figure 16: single-thread execution time of the TM schemes relative to
/// sequential execution.
pub fn fig16(scale: Scale) -> Table {
    fig16_with(scale, &mut serial_resolver())
}

const FIG17_SCHEMES: [Scheme; 4] = [
    Scheme::Hastm,
    Scheme::HastmCautious,
    Scheme::HastmNoReuse,
    Scheme::Stm,
];

/// Cells of Figure 17.
pub fn fig17_cells(scale: Scale) -> Vec<Cell> {
    let mut cells = CellList::default();
    for structure in Structure::ALL {
        cells.push(ds_cell(structure, Scheme::Sequential, 1, scale));
        for scheme in FIG17_SCHEMES {
            cells.push(ds_cell(structure, scheme, 1, scale));
        }
    }
    cells.into_vec()
}

/// Figure 17 rendered through `run`.
pub fn fig17_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Figure 17: performance breakdown for HASTM (1 thread, vs sequential)",
        &[
            "structure",
            "HASTM",
            "HASTM-Cautious",
            "HASTM-NoReuse",
            "STM",
        ],
    );
    for structure in Structure::ALL {
        let seq = run(&ds_cell(structure, Scheme::Sequential, 1, scale)).cycles();
        let mut row = vec![structure.to_string()];
        for scheme in FIG17_SCHEMES {
            let cycles = run(&ds_cell(structure, scheme, 1, scale)).cycles();
            row.push(ratio(cycles, seq));
        }
        table.row(row);
    }
    table.note("expected: hashtable gains come from log elimination + validation (NoReuse ~= HASTM), trees also from reuse; cautious-only can exceed STM time");
    table
}

/// Figure 17: HASTM ablation — full HASTM, cautious-only, and no-reuse
/// (filter disabled) against the STM, relative to sequential.
pub fn fig17(scale: Scale) -> Table {
    fig17_with(scale, &mut serial_resolver())
}

fn scaling_cells(
    structure: Structure,
    schemes: &[Scheme],
    scale: Scale,
    machine: MachinePreset,
) -> Vec<Cell> {
    let threads = thread_counts(scale, false);
    let mut cells = CellList::default();
    cells.push(scaled_cell(structure, Scheme::Lock, 1, scale, machine));
    for &scheme in schemes {
        for &t in &threads {
            cells.push(scaled_cell(structure, scheme, t, scale, machine));
        }
    }
    cells.into_vec()
}

fn scaling_figure(
    title: &str,
    structure: Structure,
    schemes: &[Scheme],
    scale: Scale,
    machine: MachinePreset,
    expected: &str,
    run: &mut dyn FnMut(&Cell) -> CellOutput,
) -> Table {
    let threads = thread_counts(scale, false);
    let mut headers = vec!["scheme".to_string()];
    headers.extend(threads.iter().map(|t| format!("{t} core")));
    let mut table = Table {
        title: title.into(),
        headers,
        rows: vec![],
        notes: vec![],
    };
    // Larger structures than the single-thread figures: transactions must
    // be long enough for cross-core interference to land inside them.
    let lock1 = run(&scaled_cell(structure, Scheme::Lock, 1, scale, machine)).cycles();
    for &scheme in schemes {
        let mut row = vec![scheme.label().to_string()];
        for &t in &threads {
            let r = run(&scaled_cell(structure, scheme, t, scale, machine));
            row.push(ratio(r.cycles(), lock1));
        }
        table.rows.push(row);
    }
    table.note(expected);
    table.note(match machine {
        MachinePreset::Default => "machine: default single-core machine",
        MachinePreset::Scaling => "machine: default caches + next-line prefetcher",
        MachinePreset::Interference => {
            "machine: next-line prefetcher + small shared inclusive L2 (interference sources of §7.4)"
        }
    });
    table
}

const SCALING_SCHEMES: [Scheme; 3] = [Scheme::Hastm, Scheme::Stm, Scheme::Lock];
const AGGRESSIVE_SCHEMES: [Scheme; 3] = [Scheme::Hastm, Scheme::NaiveAggressive, Scheme::Stm];

/// Cells of Figure 18.
pub fn fig18_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::Bst,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
    )
}

/// Figure 18 rendered through `run`.
pub fn fig18_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 18: multi-core scaling for BST",
        Structure::Bst,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
        "expected: HASTM best overall; coarse lock does not scale (root lock for rotations)",
        run,
    )
}

/// Figure 18: multi-core scaling for the BST (HASTM / STM / Lock, relative
/// to single-core lock time).
pub fn fig18(scale: Scale) -> Table {
    fig18_with(scale, &mut serial_resolver())
}

/// Cells of Figure 19.
pub fn fig19_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::BTree,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
    )
}

/// Figure 19 rendered through `run`.
pub fn fig19_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 19: multi-core scaling for Btree",
        Structure::BTree,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
        "expected: HASTM still best, but its edge over STM shrinks with cores (marked lines lost to cross-core interference force software validation)",
        run,
    )
}

/// Figure 19: multi-core scaling for the B-tree.
pub fn fig19(scale: Scale) -> Table {
    fig19_with(scale, &mut serial_resolver())
}

/// Cells of Figure 20.
pub fn fig20_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::HashTable,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
    )
}

/// Figure 20 rendered through `run`.
pub fn fig20_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 20: multi-core scaling for hash table",
        Structure::HashTable,
        &SCALING_SCHEMES,
        scale,
        MachinePreset::Scaling,
        "expected: low contention; HASTM scales as well as STM and stays fastest",
        run,
    )
}

/// Figure 20: multi-core scaling for the hash table (low contention).
pub fn fig20(scale: Scale) -> Table {
    fig20_with(scale, &mut serial_resolver())
}

/// Cells of Figure 21.
pub fn fig21_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::Bst,
        &AGGRESSIVE_SCHEMES,
        scale,
        MachinePreset::Interference,
    )
}

/// Figure 21 rendered through `run`.
pub fn fig21_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 21: BST scaling (different TM schemes)",
        Structure::Bst,
        &AGGRESSIVE_SCHEMES,
        scale,
        MachinePreset::Interference,
        "expected: naive-aggressive scales worst (spurious aborts force re-executions); HASTM unaffected (stays cautious under interference)",
        run,
    )
}

/// Figure 21: BST scaling of HASTM versus the naïve always-aggressive
/// policy versus STM.
pub fn fig21(scale: Scale) -> Table {
    fig21_with(scale, &mut serial_resolver())
}

/// Cells of Figure 22.
pub fn fig22_cells(scale: Scale) -> Vec<Cell> {
    scaling_cells(
        Structure::BTree,
        &AGGRESSIVE_SCHEMES,
        scale,
        MachinePreset::Interference,
    )
}

/// Figure 22 rendered through `run`.
pub fn fig22_with(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    scaling_figure(
        "Figure 22: Btree scaling (different TM schemes)",
        Structure::BTree,
        &AGGRESSIVE_SCHEMES,
        scale,
        MachinePreset::Interference,
        "expected: same shape as Figure 21 on the btree",
        run,
    )
}

/// Figure 22: B-tree scaling of HASTM versus naïve-aggressive versus STM.
pub fn fig22(scale: Scale) -> Table {
    fig22_with(scale, &mut serial_resolver())
}

/// A figure's table builder: renders the table at the given scale,
/// requesting each cell's output through the resolver.
pub type BuildFn = fn(Scale, &mut dyn FnMut(&Cell) -> CellOutput) -> Table;

/// One figure in the registry: its cell declaration and its table builder.
#[derive(Copy, Clone)]
pub struct Figure {
    /// Short name (`fig11` ... `fig22`).
    pub name: &'static str,
    /// Cells the builder will request (deduplicated, declaration order).
    pub cells: fn(Scale) -> Vec<Cell>,
    /// Renders the table, requesting outputs through the resolver. The
    /// resolver must answer every cell in `cells` (the sweep precomputes
    /// exactly that set).
    pub build: BuildFn,
}

/// Every figure in presentation order. Figure 13 is pure trace analysis
/// and declares no cells.
pub const FIGURES: [Figure; 12] = [
    Figure {
        name: "fig11",
        cells: fig11_cells,
        build: fig11_with,
    },
    Figure {
        name: "fig12",
        cells: fig12_cells,
        build: fig12_with,
    },
    Figure {
        name: "fig13",
        cells: |_| Vec::new(),
        build: |_, _| fig13(),
    },
    Figure {
        name: "fig14",
        cells: fig14_cells,
        build: fig14_with,
    },
    Figure {
        name: "fig15",
        cells: fig15_cells,
        build: fig15_with,
    },
    Figure {
        name: "fig16",
        cells: fig16_cells,
        build: fig16_with,
    },
    Figure {
        name: "fig17",
        cells: fig17_cells,
        build: fig17_with,
    },
    Figure {
        name: "fig18",
        cells: fig18_cells,
        build: fig18_with,
    },
    Figure {
        name: "fig19",
        cells: fig19_cells,
        build: fig19_with,
    },
    Figure {
        name: "fig20",
        cells: fig20_cells,
        build: fig20_with,
    },
    Figure {
        name: "fig21",
        cells: fig21_cells,
        build: fig21_with,
    },
    Figure {
        name: "fig22",
        cells: fig22_cells,
        build: fig22_with,
    },
];

/// Every figure, in order, computed serially with one shared memo (cells
/// repeated across figures — e.g. the fig16/fig17 sequential baselines —
/// run once).
pub fn all_figures(scale: Scale) -> Vec<Table> {
    let mut resolver = serial_resolver();
    FIGURES
        .iter()
        .map(|f| (f.build)(scale, &mut resolver))
        .collect()
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
        let t = fig16(Scale::Quick);
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
        let t = fig12(Scale::Quick);
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
    fn declared_cells_cover_every_figure_request() {
        // Each builder must request only cells its `cells` fn declared —
        // the parallel sweep precomputes exactly the declared set.
        for fig in FIGURES {
            let declared: std::collections::HashSet<Cell> =
                (fig.cells)(Scale::Quick).into_iter().collect();
            let mut requested = Vec::new();
            // Resolve with canned outputs: no simulation, just record.
            let mut probe = |cell: &Cell| {
                requested.push(cell.clone());
                match cell {
                    Cell::Ds { .. } => CellOutput::Ds(WorkloadResult {
                        cycles: 1,
                        report: Default::default(),
                        txn: Default::default(),
                        total_ops: 1,
                        digest: 0,
                    }),
                    Cell::Kernel { .. } => CellOutput::Kernel(KernelResult {
                        cycles: 1,
                        report: Default::default(),
                        txn: Default::default(),
                    }),
                }
            };
            let _ = (fig.build)(Scale::Quick, &mut probe);
            for cell in &requested {
                assert!(
                    declared.contains(cell),
                    "{}: builder requested undeclared cell {:?}",
                    fig.name,
                    cell
                );
            }
        }
    }

    #[test]
    fn cell_dedup_keeps_declaration_order() {
        let cells = fig11_cells(Scale::Quick);
        let unique: std::collections::HashSet<&Cell> = cells.iter().collect();
        assert_eq!(unique.len(), cells.len(), "no duplicates");
        // The Lock 1p baseline is also the first row cell; it appears once.
        let lock1 = ds_cell(Structure::Bst, Scheme::Lock, 1, Scale::Quick);
        assert_eq!(cells.iter().filter(|&c| *c == lock1).count(), 1);
    }
}
