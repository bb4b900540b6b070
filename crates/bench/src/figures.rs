//! Runners regenerating each evaluation figure of the paper, plus two
//! tables of this reproduction's own: the `phases` mode-policy comparison
//! and the §5 write-filter `ablation`.
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

use std::collections::HashSet;

use hastm::{
    Granularity, ModePolicy, ObjRef, OracleMode, Phase, StmConfig, StmRuntime, TxThread, TxnStats,
};
use hastm_sim::{CacheConfig, Machine, MachineConfig};
use hastm_workloads::{
    analyze, generate_stream, run_kernel, run_oltp_sim, run_workload, KernelParams, KernelResult,
    OltpSimConfig, Scheme, Structure, WorkloadConfig, WorkloadResult, PROFILES,
};

use crate::oltp::mill_config;
use crate::table::{pct, ratio, share, Table};
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
        /// HASTM under the PhTM-style phased mode policy
        /// ([`ModePolicy::phased`]) in place of the one `size_mult` and
        /// the thread count select (the `phases` table).
        phased: bool,
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
    /// The OLTP traffic mill at the paper-default skew (θ = 0.9), its
    /// oracle off (the `phases` table).
    Mill {
        /// Synchronization scheme.
        scheme: Scheme,
        /// Experiment scale.
        scale: Scale,
        /// As for [`Cell::Ds`].
        phased: bool,
    },
    /// The single-core accumulator kernel of the write-filter ablation.
    WriteFilter {
        /// Whether the second mark filter guards the write barrier.
        filter_writes: bool,
        /// Times each hot word is rewritten per transaction.
        rewrites: u32,
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
                phased,
                ..
            } => format!(
                "{}/{} {}p{}{}{}",
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
                },
                if *phased { " phased" } else { "" }
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
            Cell::Mill { scheme, phased, .. } => format!(
                "mill/{}{}",
                scheme.label().to_lowercase(),
                if *phased { " phased" } else { "" }
            ),
            Cell::WriteFilter {
                filter_writes,
                rewrites,
            } => format!(
                "writefilter/{} x{rewrites}",
                if *filter_writes { "on" } else { "off" }
            ),
        }
    }

    /// Simulated cores the cell runs on (kernels are single-core replays).
    pub fn cores(&self) -> usize {
        match self {
            Cell::Ds { threads, .. } => *threads,
            Cell::Mill { scale, .. } => mill_config(*scale, MILL_THETA).threads,
            Cell::Kernel { .. } | Cell::WriteFilter { .. } => 1,
        }
    }
}

/// The mill's skew in [`Cell::Mill`].
const MILL_THETA: f64 = 0.9;

/// Output of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutput {
    /// Output of a [`Cell::Ds`] run.
    Ds(WorkloadResult),
    /// Output of a [`Cell::Kernel`] run.
    Kernel(KernelResult),
    /// Output of a [`Cell::Mill`] or [`Cell::WriteFilter`] run.
    Txn {
        /// Simulated cycles: the mill's makespan, the kernel's measured
        /// transactions.
        cycles: u64,
        /// Digest of the final state: the mill's balances, the kernel's
        /// hot words.
        digest: u64,
        /// STM statistics, merged across cores.
        txn: TxnStats,
    },
}

impl CellOutput {
    /// Makespan in simulated cycles.
    pub fn cycles(&self) -> u64 {
        match self {
            CellOutput::Ds(r) => r.cycles,
            CellOutput::Kernel(r) => r.cycles,
            CellOutput::Txn { cycles, .. } => *cycles,
        }
    }

    /// STM statistics (zeroed for non-STM schemes).
    pub fn txn(&self) -> &TxnStats {
        match self {
            CellOutput::Ds(r) => &r.txn,
            CellOutput::Kernel(r) => &r.txn,
            CellOutput::Txn { txn, .. } => txn,
        }
    }

    fn ds(&self) -> &WorkloadResult {
        match self {
            CellOutput::Ds(r) => r,
            _ => panic!("expected a data-structure cell output"),
        }
    }
}

/// Runs one cell. Pure up to determinism: equal cells produce equal
/// outputs in any process, on any thread, in any order.
pub fn run_cell(cell: &Cell) -> CellOutput {
    match *cell {
        Cell::Ds {
            structure,
            scheme,
            threads,
            scale,
            machine,
            size_mult,
            phased,
        } => {
            let mut cfg = WorkloadConfig::paper_default(structure, scheme, threads);
            // Total work is fixed across thread counts (scaling experiments
            // divide the same op budget among threads).
            let total_ops = scale.ops() * 4;
            cfg.ops_per_thread = (total_ops / threads as u64).max(1);
            cfg.prepopulate = scale.prepopulate() * size_mult;
            cfg.key_range = cfg.prepopulate * 2;
            cfg.machine = machine.config();
            if phased {
                cfg.mode_policy_override = Some(ModePolicy::phased());
            } else if size_mult > 1 {
                // Scaling experiments: the adaptive watermark policy
                // governs HASTM at every thread count (the single-thread
                // always-aggressive policy would thrash on the
                // interference machine).
                cfg.mode_policy_override = Some(ModePolicy::AbortRatioWatermark);
            }
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
        Cell::Mill {
            scheme,
            scale,
            phased,
        } => {
            let mut cfg = OltpSimConfig::new(
                mill_config(scale, MILL_THETA),
                scheme,
                Granularity::CacheLine,
            );
            cfg.oracle = OracleMode::Off;
            if phased {
                cfg.mode_policy_override = Some(ModePolicy::phased());
            }
            let r = run_oltp_sim(&cfg);
            CellOutput::Txn {
                cycles: r.metrics.elapsed,
                digest: r.digest,
                txn: r.txn,
            }
        }
        Cell::WriteFilter {
            filter_writes,
            rewrites,
        } => accumulate(filter_writes, rewrites),
    }
}

/// The write-filter ablation's kernel: each of 100 transactions rewrites
/// 16 hot words `rewrites` times each (running sums, counters — the
/// write-locality pattern the filter targets) under single-thread HASTM
/// at object granularity.
fn accumulate(filter_writes: bool, rewrites: u32) -> CellOutput {
    let mut config = StmConfig::hastm(Granularity::Object, ModePolicy::SingleThreadAggressive);
    config.filter_writes = filter_writes;
    let mut machine = Machine::new(MachineConfig::default());
    let runtime = StmRuntime::new(&mut machine, config);
    machine
        .run_one(|cpu| {
            let mut tx = TxThread::new(&runtime, cpu);
            let objs: Vec<ObjRef> = (0..16).map(|_| tx.alloc_obj(2)).collect();
            tx.atomic(|tx| {
                for o in &objs {
                    tx.write_word(*o, 0, 0)?;
                }
                Ok(())
            });
            let t0 = tx.cpu().now();
            for round in 0..100u64 {
                tx.atomic(|tx| {
                    for o in &objs {
                        for k in 0..rewrites as u64 {
                            let v = tx.read_word(*o, 0)?;
                            tx.write_word(*o, 0, v + round + k)?;
                        }
                    }
                    Ok(())
                });
            }
            let cycles = tx.cpu().now() - t0;
            let digest = objs.iter().fold(0, |d: u64, o| {
                d.rotate_left(7) ^ tx.cpu().peek_u64(o.word(0))
            });
            CellOutput::Txn {
                cycles,
                digest,
                txn: tx.stats().clone(),
            }
        })
        .0
}

fn ds_cell(structure: Structure, scheme: Scheme, threads: usize, scale: Scale) -> Cell {
    Cell::Ds {
        structure,
        scheme,
        threads,
        scale,
        machine: MachinePreset::Default,
        size_mult: 1,
        phased: false,
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
                phased: false,
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

/// The HyTM cost-model table: the Figure 21/22 interference regime, an
/// uncontended control and the OLTP mill under three HASTM mode policies —
/// the naïve always-aggressive strawman, the adaptive abort-ratio
/// watermark and the PhTM-style phased controller — with makespan and the
/// per-phase counters (transitions, serial commits, time in each phase).
///
/// The naïve and watermark points of the interference regimes are
/// Figures 21/22's own 4-core cells, so they run once.
fn phases(scale: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Phased execution: mode-policy comparison (HyTM cost model)",
        &[
            "workload", "policy", "cycles", "vs naive", "commits", "aborts", "trans", "serial",
            "hw", "aggr", "caut", "ser",
        ],
    );
    // A data-structure regime is a Figure 21/22-style cell; `None` is the
    // mill.
    let workloads = [
        (
            "bst interference",
            Some((Structure::Bst, MachinePreset::Interference, 4)),
        ),
        (
            "btree interference",
            Some((Structure::BTree, MachinePreset::Interference, 4)),
        ),
        (
            "bst uncontended",
            Some((Structure::Bst, MachinePreset::Default, 2)),
        ),
        ("oltp mill", None),
    ];
    let policies = [
        ("naive", Scheme::NaiveAggressive, false),
        ("watermark", Scheme::Hastm, false),
        ("phased", Scheme::Hastm, true),
    ];
    for (workload, ds) in workloads {
        let cell = |scheme, phased| match ds {
            Some((structure, machine, threads)) => Cell::Ds {
                structure,
                scheme,
                threads,
                scale,
                machine,
                size_mult: 16,
                phased,
            },
            None => Cell::Mill {
                scheme,
                scale,
                phased,
            },
        };
        let naive = run(&cell(Scheme::NaiveAggressive, false)).cycles();
        for (policy, scheme, phased) in policies {
            let out = run(&cell(scheme, phased));
            let txn = out.txn();
            let in_phase =
                |phase: Phase| share(txn.phase_cycles[phase.idx()], txn.phase_cycles.iter().sum());
            table.row(vec![
                workload.to_string(),
                policy.to_string(),
                out.cycles().to_string(),
                ratio(out.cycles(), naive),
                txn.commits.to_string(),
                txn.aborts().to_string(),
                txn.phase_transitions.to_string(),
                txn.serial_commits.to_string(),
                in_phase(Phase::Hw),
                in_phase(Phase::Aggressive),
                in_phase(Phase::Cautious),
                in_phase(Phase::Serial),
            ]);
        }
    }
    table
        .note("expected: phased beats naive-aggressive on the interference workloads (it stops re-executing doomed aggressive attempts) and stays within a few percent of the watermark policy when uncontended")
        .note("hw/aggr/caut/ser columns: share of transaction cycles spent in each phase (phased policy only)");
    table
}

/// The §5 write-filtering extension ("an implementation could also filter
/// STM write barrier and undo logging operations using additional mark
/// bits"), implemented on the hardware's second mark filter and measured
/// against baseline HASTM on the store-heavy accumulator kernel. The
/// kernel's size does not depend on the scale.
fn ablation(_: Scale, run: &mut dyn FnMut(&Cell) -> CellOutput) -> Table {
    let mut table = Table::new(
        "Ablation: write-barrier + undo-log filtering (second mark filter, §5 extension)",
        &[
            "rewrites/word",
            "HASTM",
            "HASTM+writefilter",
            "wr fast paths",
            "undo elided",
        ],
    );
    for rewrites in [1, 2, 4, 8] {
        let base = run(&Cell::WriteFilter {
            filter_writes: false,
            rewrites,
        });
        let filtered = run(&Cell::WriteFilter {
            filter_writes: true,
            rewrites,
        });
        table.row(vec![
            rewrites.to_string(),
            "1.00".into(),
            ratio(filtered.cycles(), base.cycles()),
            filtered.txn().write_fast_path.to_string(),
            filtered.txn().undo_elided.to_string(),
        ]);
    }
    table.note("relative to baseline HASTM; expected: filtering pays increasingly as write locality grows, and is roughly neutral at 1 rewrite");
    table
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

/// One figure (or table) in the registry. Its cells are whatever its
/// builder asks for ([`Figure::cells`]); nothing else lists them.
#[derive(Copy, Clone)]
pub struct Figure {
    /// Short name (`fig11` ... `fig22`, `phases`, `ablation`).
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
                Cell::Mill { .. } | Cell::WriteFilter { .. } => CellOutput::Txn {
                    cycles: 1,
                    digest: 0,
                    txn: TxnStats::default(),
                },
            }
        });
        cells
    }
}

const SCALING_SCHEMES: &[Scheme] = &[Scheme::Hastm, Scheme::Stm, Scheme::Lock];
const AGGRESSIVE_SCHEMES: &[Scheme] = &[Scheme::Hastm, Scheme::NaiveAggressive, Scheme::Stm];

/// Every figure in presentation order, then the two tables of this
/// reproduction's own. Figure 13 is pure trace analysis and requests no
/// cells.
pub const FIGURES: [Figure; 14] = [
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
    Figure {
        name: "phases",
        build: Build::Table(phases),
    },
    Figure {
        name: "ablation",
        build: Build::Table(ablation),
    },
];

/// The figure called `name` (`fig11` ... `fig22`, `phases`, `ablation`).
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
    use crate::sweep::{sweep_selected, SweepConfig};

    /// Figure `name` at quick scale, through the sweep.
    fn quick(name: &str) -> Table {
        let config = SweepConfig { threads: 2 };
        sweep_selected(&[name], Scale::Quick, &config).figures[0]
            .table
            .clone()
    }

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
        let t = quick("fig16");
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
        let t = quick("fig12");
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
