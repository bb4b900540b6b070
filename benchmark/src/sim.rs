//! The two simulator workloads: the figure sweep's cells timed from
//! outside, one `run_workload` call per cell.
//!
//! `sim_solo` runs every cell on one simulated core, so no gate handoff
//! ever happens and host time is op dispatch, the memory model and the
//! STM runtime. `sim_multi` runs two simulated cores on two host threads,
//! where the gate handoff dominates. Simulated results are deterministic,
//! so every pass must reproduce the first pass bit for bit, and — for the
//! default seed — the committed golden.

use std::path::Path;
use std::time::Instant;

use hastm::MetricsSnapshot;
use hastm_sim::TraceConfig;
use hastm_workloads::{
    run_workload, run_workload_traced, Scheme, Structure, WorkloadConfig, WorkloadResult,
};

use crate::affinity::Confined;
use crate::json::Value;
use crate::run::{Bench, Estimator, LatSummary, Layers, PassSample};
use crate::spans::{SpanId, Tracer};

/// Which of the two simulator workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimKind {
    Solo,
    Multi,
}

impl SimKind {
    fn threads(self) -> usize {
        match self {
            SimKind::Solo => 1,
            SimKind::Multi => 2,
        }
    }

    fn schemes(self) -> &'static [Scheme] {
        match self {
            SimKind::Solo => &[
                Scheme::Sequential,
                Scheme::Lock,
                Scheme::Stm,
                Scheme::Hastm,
                Scheme::Hytm,
            ],
            SimKind::Multi => &[Scheme::Stm, Scheme::Hastm, Scheme::Hytm],
        }
    }

    /// Operations per simulated thread in one cell. Sized so one pass
    /// over all cells takes about a second on the 2-CPU reference host:
    /// several passes fit a run and their median is steady.
    pub fn ops_per_thread(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (SimKind::Solo, false) => 5_000,
            (SimKind::Multi, false) => 100,
            (SimKind::Solo, true) => 200,
            (SimKind::Multi, true) => 4,
        }
    }
}

const STRUCTURES: [Structure; 3] = [Structure::HashTable, Structure::Bst, Structure::BTree];

/// One cell of the sweep.
struct Cell {
    name: String,
    cfg: WorkloadConfig,
}

fn cells(kind: SimKind, seed: u64, ops_per_thread: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for structure in STRUCTURES {
        for &scheme in kind.schemes() {
            let mut cfg = WorkloadConfig::paper_default(structure, scheme, kind.threads());
            cfg.ops_per_thread = ops_per_thread;
            cfg.seed = seed;
            out.push(Cell {
                name: format!("{}/{}", structure.label(), scheme.label()),
                cfg,
            });
        }
    }
    out
}

/// Σ over cores of the measured run's final clocks.
fn core_cycles(r: &WorkloadResult) -> u64 {
    r.report.total(|c| c.cycles)
}

/// The golden record of one cell: the headline outputs plus every counter
/// of the metrics registry, by name.
fn golden_entry(r: &WorkloadResult) -> Value {
    let counters = MetricsSnapshot::collect(&r.txn, &r.report)
        .entries()
        .iter()
        .map(|&(name, v)| (name.to_string(), Value::u64(v)))
        .collect();
    Value::Obj(vec![
        ("cycles".into(), Value::u64(r.cycles)),
        ("digest".into(), Value::u64(r.digest)),
        ("total_ops".into(), Value::u64(r.total_ops)),
        ("core_cycles".into(), Value::u64(core_cycles(r))),
        ("counters".into(), Value::Obj(counters)),
    ])
}

/// Names of the golden fields whose value differs from the run's. Only
/// names the golden carries are compared, so a later counter added to the
/// registry does not invalidate a blessed file.
fn golden_mismatches(golden: &Value, r: &WorkloadResult) -> Vec<String> {
    let actual = golden_entry(r);
    let mut bad = Vec::new();
    for (key, want) in golden.as_obj().unwrap_or(&[]) {
        if key == "counters" {
            for (name, want) in want.as_obj().unwrap_or(&[]) {
                if actual.get("counters").and_then(|c| c.get(name)) != Some(want) {
                    bad.push(name.clone());
                }
            }
        } else if actual.get(key) != Some(want) {
            bad.push(key.clone());
        }
    }
    bad
}

/// A simulator workload and what its passes have shown so far.
pub struct SimBench {
    kind: SimKind,
    seed: u64,
    ops_per_thread: u64,
    /// Parsed golden file, when this run is comparable to it.
    golden: Option<Value>,
    /// First pass's results: the reference every later pass must equal.
    reference: Vec<WorkloadResult>,
    /// Host ns spent in each cell, summed over timed passes.
    cell_wall_ns: Vec<u64>,
    cell_names: Vec<String>,
    /// Whether the last pass managed to confine its threads to one CPU.
    confined: bool,
    failures: Vec<String>,
}

impl SimBench {
    /// `golden_path` is consulted only for the default seed at full size;
    /// any other seed relies on pass-to-pass identity alone.
    pub fn new(kind: SimKind, seed: u64, smoke: bool, golden_path: Option<&Path>) -> Self {
        // A golden that is missing or does not parse is an empty one:
        // every cell then fails as "not in the golden".
        let golden = golden_path.map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|text| crate::json::parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("golden {}: {e} (regenerate it with --bless)", p.display());
                    Value::Obj(Vec::new())
                })
        });
        SimBench {
            kind,
            seed,
            ops_per_thread: kind.ops_per_thread(smoke),
            golden,
            reference: Vec::new(),
            cell_wall_ns: Vec::new(),
            cell_names: Vec::new(),
            confined: false,
            failures: Vec::new(),
        }
    }

    /// The golden document for the reference pass (for `--bless`).
    fn golden_document(&self) -> Value {
        let cells = self
            .cell_names
            .iter()
            .zip(&self.reference)
            .map(|(name, r)| (name.clone(), golden_entry(r)))
            .collect();
        Value::Obj(vec![
            ("seed".into(), Value::u64(self.seed)),
            ("ops_per_thread".into(), Value::u64(self.ops_per_thread)),
            ("cells".into(), Value::Obj(cells)),
        ])
    }

    /// Checks one pass's results; returns how many cells failed.
    fn verify(&mut self, results: Vec<WorkloadResult>) -> u64 {
        let mut failed = vec![false; results.len()];
        if self.reference.is_empty() {
            if let Some(golden) = &self.golden {
                for (i, r) in results.iter().enumerate() {
                    let name = &self.cell_names[i];
                    match golden.get("cells").and_then(|c| c.get(name)) {
                        None => {
                            failed[i] = true;
                            self.failures.push(format!("{name}: not in the golden"));
                        }
                        Some(entry) => {
                            let bad = golden_mismatches(entry, r);
                            if !bad.is_empty() {
                                failed[i] = true;
                                self.failures
                                    .push(format!("{name}: differs from golden in {bad:?}"));
                            }
                        }
                    }
                }
            }
            if self.kind == SimKind::Solo {
                // One core means one op order: every scheme must leave
                // the structure in the same abstract state.
                let per = self.kind.schemes().len();
                for (s, group) in results.chunks(per).enumerate() {
                    for (j, r) in group.iter().enumerate() {
                        if r.digest != group[0].digest {
                            failed[s * per + j] = true;
                            self.failures.push(format!(
                                "{}: digest {:#x} differs from {}'s {:#x}",
                                self.cell_names[s * per + j],
                                r.digest,
                                self.cell_names[s * per],
                                group[0].digest
                            ));
                        }
                    }
                }
            }
            self.reference = results;
        } else {
            for (i, (r, want)) in results.iter().zip(&self.reference).enumerate() {
                if r != want {
                    failed[i] = true;
                    self.failures.push(format!(
                        "{}: pass result differs from the first pass (cycles {} vs {})",
                        self.cell_names[i], r.cycles, want.cycles
                    ));
                }
            }
        }
        failed.iter().filter(|&&f| f).count() as u64
    }
}

impl Bench for SimBench {
    fn estimator(&self) -> Estimator {
        Estimator::BestPass
    }

    fn pass(&mut self, tr: &mut Tracer, parent: SpanId, traced: bool, timed: bool) -> PassSample {
        // Two simulated cores alternate, they never run at once: keep
        // their host threads (spawned inside `run_workload`, inheriting
        // this thread's CPU set) on one CPU. See `affinity`.
        let confined = (self.kind == SimKind::Multi)
            .then(Confined::to_one_cpu)
            .flatten();
        self.confined = confined.is_some();
        // Set-up: build the cell list, then build, populate and digest
        // every cell's machine with no measured operation — the fixed
        // cost a sweep pays per cell before its first measured op.
        let setup_start = Instant::now();
        let setup = tr.open("setup", Some(parent));
        let build = tr.open("build", Some(setup));
        let cells = cells(self.kind, self.seed, self.ops_per_thread);
        self.cell_names = cells.iter().map(|c| c.name.clone()).collect();
        self.cell_wall_ns.resize(cells.len(), 0);
        tr.close(build);
        let populate = tr.open("populate", Some(setup));
        for cell in &cells {
            let mut cfg = cell.cfg.clone();
            cfg.ops_per_thread = 0;
            std::hint::black_box(run_workload(&cfg));
        }
        tr.close(populate);
        tr.close(setup);
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut results = Vec::with_capacity(cells.len());
        let mut ns_per_op = Vec::with_capacity(cells.len());
        let mut wall_ns = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            let start = Instant::now();
            let result = if traced {
                run_workload_traced(&cell.cfg, Some(TraceConfig::default())).0
            } else {
                run_workload(&cell.cfg)
            };
            let end = Instant::now();
            tr.record(format!("cell[{}]", cell.name), Some(parent), 0, start, end);
            let ns = end.duration_since(start).as_nanos() as u64;
            wall_ns += ns;
            if timed {
                self.cell_wall_ns[i] += ns;
            }
            ns_per_op.push(ns as f64 / result.total_ops.max(1) as f64);
            results.push(result);
        }

        let verify = tr.open("verify", Some(parent));
        let ops = results.iter().map(|r| r.total_ops).sum();
        let cycles = results.iter().map(core_cycles).sum();
        let attempted = results.len() as u64;
        let failed = self.verify(results);
        tr.close(verify);

        PassSample {
            setup_s,
            wall_s: wall_ns as f64 / 1e9,
            ops,
            sim_cycles: cycles,
            lat: LatSummary::of(&mut ns_per_op),
            attempted,
            failed,
        }
    }

    fn failures(&self) -> &[String] {
        &self.failures
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cells", self.cell_names.len() as u64),
            ("simulated_cores", self.kind.threads() as u64),
            ("ops_per_thread", self.ops_per_thread),
            ("confined_to_one_cpu", u64::from(self.confined)),
        ]
    }

    fn golden(&self) -> Option<Value> {
        Some(self.golden_document())
    }

    fn layers(&self, out: &mut Layers) {
        let total = |f: fn(&hastm_sim::CoreStats) -> u64| -> f64 {
            self.reference
                .iter()
                .map(|r| r.report.total(f))
                .sum::<u64>() as f64
        };
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let l1_hits = total(|c| c.l1_hits);
        let l1_misses = total(|c| c.l1_misses);
        out.set("sim.hierarchy.memops", total(|c| c.memory_ops()));
        out.set(
            "sim.hierarchy.l1_hit_share",
            share(l1_hits, l1_hits + l1_misses),
        );
        out.set(
            "sim.hierarchy.l2_hit_share",
            share(total(|c| c.l2_hits), l1_misses),
        );
        out.set(
            "sim.hierarchy.invalidations",
            total(|c| c.invalidations_received),
        );
        out.set(
            "sim.hierarchy.back_invalidations",
            self.reference
                .iter()
                .map(|r| r.report.machine.back_invalidations)
                .sum::<u64>() as f64,
        );
        out.set(
            "sim.cpu.mark_test_hit_share",
            share(total(|c| c.mark_test_hits), total(|c| c.mark_tests)),
        );
        out.set("sim.cpu.marked_lines_lost", total(|c| c.marked_lines_lost));

        let mut txn = hastm::TxnStats::default();
        for r in &self.reference {
            txn.merge(&r.txn);
        }
        let (commits, aborts) = (txn.commits as f64, txn.aborts() as f64);
        out.set("core.txn.commits", commits);
        out.set("core.txn.aborts", aborts);
        out.set("core.txn.abort_share", share(aborts, commits + aborts));
        let reads = (txn.read_fast_path + txn.read_slow_path) as f64;
        out.set(
            "core.barrier.filter_hit_share",
            share(txn.read_fast_path as f64, reads),
        );
        let b = &txn.breakdown;
        let all = b.total() as f64;
        for (name, cycles) in [
            ("tls", b.tls),
            ("read_barrier", b.read_barrier),
            ("write_barrier", b.write_barrier),
            ("validate", b.validate),
            ("commit", b.commit),
            ("contention", b.contention),
            ("app", b.app),
        ] {
            out.set(
                &format!("core.txn.simcycle_share.{name}"),
                share(cycles as f64, all),
            );
        }

        let wall: u64 = self.cell_wall_ns.iter().sum();
        let seq: u64 = self
            .cell_names
            .iter()
            .zip(&self.cell_wall_ns)
            .filter(|(name, _)| name.ends_with(Scheme::Sequential.label()))
            .map(|(_, &ns)| ns)
            .sum();
        out.set("workloads.seq_wall_share", share(seq as f64, wall as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_comparison_names_the_field_that_moved() {
        let cell = &cells(SimKind::Solo, 7, 20)[0];
        let r = run_workload(&cell.cfg);
        let golden = golden_entry(&r);
        assert!(golden_mismatches(&golden, &r).is_empty());

        let mut moved = r.clone();
        moved.cycles += 1;
        moved.report.cores[0].loads += 1;
        let bad = golden_mismatches(&golden, &moved);
        assert_eq!(bad, vec!["cycles".to_string(), "sim.loads".to_string()]);
    }

    #[test]
    fn corrupted_golden_and_diverging_pass_both_fail_cells() {
        let mut bench = SimBench::new(SimKind::Solo, 7, true, None);
        let mut tr = Tracer::new(false);
        let first = bench.pass(&mut tr, 0, false, false);
        assert_eq!(
            (first.attempted, first.failed),
            (15, 0),
            "{:?}",
            bench.failures
        );

        // Corrupt one golden entry: the next fresh bench must fail that
        // cell and no other.
        let mut doc = bench.golden_document();
        let Value::Obj(top) = &mut doc else {
            unreachable!()
        };
        let Value::Obj(cells) = &mut top[2].1 else {
            unreachable!()
        };
        let Value::Obj(entry) = &mut cells[4].1 else {
            unreachable!()
        };
        entry[0].1 = Value::u64(1);
        let mut against = SimBench::new(SimKind::Solo, 7, true, None);
        against.golden = Some(doc);
        let sample = against.pass(&mut tr, 0, false, false);
        assert_eq!(sample.failed, 1, "{:?}", against.failures);

        // A later pass that differs from the first fails too.
        bench.reference[3].cycles += 1;
        let second = bench.pass(&mut tr, 0, false, true);
        assert_eq!(second.failed, 1);
    }
}
