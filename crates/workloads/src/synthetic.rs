//! Synthetic critical-section kernels (§7.2–7.3).
//!
//! The paper evaluates single-thread TM performance on "a number of micro
//! benchmarks \[emulating\] the memory characteristics of the critical
//! regions in the Java/pthreads workloads": the percentage of loads varies
//! from 60–90 %, the load cache-reuse rate from 40–60 %, and store reuse
//! is held at 40 % (Figure 15). It also characterizes twelve applications'
//! critical sections by load fraction and load cache reuse (Figure 13).
//!
//! A kernel is a pre-generated stream of critical sections; each section
//! is a sequence of loads/stores over cache-line-sized objects, where a
//! *reusing* access targets a line already touched earlier in the same
//! section and a *fresh* access takes the next line from a large arena.
//! The same stream is replayed under every scheme, so comparisons differ
//! only in synchronization machinery.

use hastm::{ObjRef, TmExec, TxnStats};
use hastm_htm::HytmStats;
use hastm_sim::{MachineConfig, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scheme::{Scheme, ThreadExec};
use crate::session::{RunPlan, SimSession};

/// Words usable per line-object (64-byte line minus the header word).
const WORDS_PER_LINE: u32 = 7;

/// Parameters of a synthetic kernel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Memory operations per critical section.
    pub ops_per_section: u32,
    /// Number of critical sections executed.
    pub sections: u32,
    /// Percent of operations that are loads (the rest are stores).
    pub load_pct: u32,
    /// Percent of loads that re-touch a line already accessed in the same
    /// section.
    pub load_reuse_pct: u32,
    /// Percent of stores that re-touch such a line (the paper holds this
    /// at 40 %).
    pub store_reuse_pct: u32,
    /// Lines in the kernel's working set. Critical sections draw their
    /// "fresh" (not-yet-touched-in-this-section) lines from this warm pool,
    /// as the paper's critical regions repeatedly traverse the same shared
    /// structures; reuse percentages are *intra-section* properties.
    pub working_set_lines: u32,
    /// Stream seed.
    pub seed: u64,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            ops_per_section: 48,
            sections: 150,
            load_pct: 80,
            load_reuse_pct: 50,
            store_reuse_pct: 40,
            working_set_lines: 256,
            seed: 0xfeed,
        }
    }
}

/// One pre-generated access: `(is_load, line_index, word_in_line)`.
type Access = (bool, u32, u32);

/// A pre-generated kernel stream.
#[derive(Clone, Debug)]
pub struct KernelStream {
    sections: Vec<Vec<Access>>,
    /// Distinct lines referenced.
    pub lines: u32,
    params: KernelParams,
}

impl KernelStream {
    /// The parameters this stream was generated from.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }
}

/// Generates the deterministic access stream for `params`.
pub fn generate_stream(params: &KernelParams) -> KernelStream {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let arena_lines: u32 = params.working_set_lines;
    assert!(
        arena_lines as usize > params.ops_per_section as usize,
        "working set must exceed section footprint"
    );
    let mut sections = Vec::with_capacity(params.sections as usize);
    let mut max_line = 0;
    for _ in 0..params.sections {
        let mut accessed: Vec<u32> = Vec::new();
        let mut ops = Vec::with_capacity(params.ops_per_section as usize);
        for _ in 0..params.ops_per_section {
            let is_load = rng.gen_range(0..100) < params.load_pct;
            let reuse_pct = if is_load {
                params.load_reuse_pct
            } else {
                params.store_reuse_pct
            };
            let reuse = !accessed.is_empty() && rng.gen_range(0..100) < reuse_pct;
            let line = if reuse {
                accessed[rng.gen_range(0..accessed.len())]
            } else {
                // Draw a warm line not yet touched in this section.
                loop {
                    let l = rng.gen_range(0..arena_lines);
                    if !accessed.contains(&l) {
                        break l;
                    }
                }
            };
            if !accessed.contains(&line) {
                accessed.push(line);
            }
            max_line = max_line.max(line);
            ops.push((is_load, line, rng.gen_range(0..WORDS_PER_LINE)));
        }
        sections.push(ops);
    }
    KernelStream {
        sections,
        lines: max_line + 1,
        params: *params,
    }
}

/// Trace statistics of a stream (the Figure 13 characterization).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceAnalysis {
    /// Fraction of memory operations that are loads.
    pub load_fraction: f64,
    /// Fraction of loads that touch a line already accessed earlier in the
    /// same critical section.
    pub load_reuse: f64,
    /// Same, for stores.
    pub store_reuse: f64,
}

/// Measures load fraction and intra-section cache-line reuse from the
/// trace itself, the way the paper's workload analysis does.
pub fn analyze(stream: &KernelStream) -> TraceAnalysis {
    let (mut loads, mut stores, mut load_hits, mut store_hits) = (0u64, 0u64, 0u64, 0u64);
    for section in &stream.sections {
        let mut seen = std::collections::HashSet::new();
        for &(is_load, line, _) in section {
            let hit = !seen.insert(line);
            if is_load {
                loads += 1;
                load_hits += u64::from(hit);
            } else {
                stores += 1;
                store_hits += u64::from(hit);
            }
        }
    }
    TraceAnalysis {
        load_fraction: loads as f64 / (loads + stores).max(1) as f64,
        load_reuse: load_hits as f64 / loads.max(1) as f64,
        store_reuse: store_hits as f64 / stores.max(1) as f64,
    }
}

/// Result of running a kernel under one scheme.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelResult {
    /// Makespan in simulated cycles.
    pub cycles: u64,
    /// Simulator counters.
    pub report: RunReport,
    /// STM statistics (zeroed for non-STM schemes).
    pub txn: TxnStats,
    /// Hybrid-TM statistics (zeroed unless the scheme is [`Scheme::Hytm`]).
    pub hytm: HytmStats,
}

/// Replays `stream` under `scheme` on a single core and reports timing.
pub fn run_kernel(scheme: Scheme, stream: &KernelStream) -> KernelResult {
    let mut session = SimSession::new(
        scheme,
        MachineConfig::default(),
        scheme.stm_config(hastm::Granularity::CacheLine, 1),
    );
    // One line-aligned object per distinct line.
    let heap = session.heap();
    let objs: Vec<ObjRef> = (0..stream.lines)
        .map(|_| ObjRef(heap.alloc_aligned(64, 64)))
        .collect();

    let replay = |ex: &mut ThreadExec<'_, '_>, _core: usize| {
        for section in &stream.sections {
            ex.atomic(|ctx| {
                let mut acc = 0u64;
                for &(is_load, line, word) in section {
                    ctx.ctx_work(2); // address generation + loop control
                    let obj = objs[line as usize];
                    if is_load {
                        acc = acc.wrapping_add(ctx.ctx_read(obj, word)?);
                    } else {
                        ctx.ctx_write(obj, word, acc)?;
                    }
                }
                Ok(acc)
            });
        }
    };

    // Warmup pass: the paper measures steady state; a cold run would be
    // dominated by compulsory misses on the arena and record table.
    session.run(&RunPlan::default(), replay);
    let run = session.run(&RunPlan::default(), replay);
    KernelResult {
        cycles: run.report.makespan(),
        report: run.report,
        txn: run.stats.txn,
        hytm: run.stats.hytm,
    }
}

/// A named application profile for the Figure 13 characterization.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Application name as it appears in the paper.
    pub name: &'static str,
    /// Percent loads inside critical sections.
    pub load_pct: u32,
    /// Percent load cache reuse.
    pub load_reuse_pct: u32,
    /// Percent store cache reuse.
    pub store_reuse_pct: u32,
}

impl WorkloadProfile {
    /// Kernel parameters emulating this profile.
    pub fn params(&self, seed: u64) -> KernelParams {
        KernelParams {
            load_pct: self.load_pct,
            load_reuse_pct: self.load_reuse_pct,
            store_reuse_pct: self.store_reuse_pct,
            seed,
            ..KernelParams::default()
        }
    }
}

/// The twelve Java Grande / pthreads applications of Figure 13, with
/// critical-section load fractions and reuse rates matching the paper's
/// reported shape (loads ≳ 70 % of memory operations, load reuse mostly
/// above 50 %).
pub const PROFILES: [WorkloadProfile; 12] = [
    WorkloadProfile {
        name: "moldyn",
        load_pct: 85,
        load_reuse_pct: 62,
        store_reuse_pct: 40,
    },
    WorkloadProfile {
        name: "montecarlo",
        load_pct: 88,
        load_reuse_pct: 55,
        store_reuse_pct: 40,
    },
    WorkloadProfile {
        name: "raytracer",
        load_pct: 80,
        load_reuse_pct: 65,
        store_reuse_pct: 42,
    },
    WorkloadProfile {
        name: "crypt",
        load_pct: 72,
        load_reuse_pct: 48,
        store_reuse_pct: 38,
    },
    WorkloadProfile {
        name: "lufact",
        load_pct: 82,
        load_reuse_pct: 58,
        store_reuse_pct: 40,
    },
    WorkloadProfile {
        name: "series",
        load_pct: 92,
        load_reuse_pct: 75,
        store_reuse_pct: 45,
    },
    WorkloadProfile {
        name: "sor",
        load_pct: 86,
        load_reuse_pct: 70,
        store_reuse_pct: 44,
    },
    WorkloadProfile {
        name: "sparsematrix",
        load_pct: 78,
        load_reuse_pct: 52,
        store_reuse_pct: 38,
    },
    WorkloadProfile {
        name: "pmd",
        load_pct: 75,
        load_reuse_pct: 55,
        store_reuse_pct: 40,
    },
    WorkloadProfile {
        name: "apache",
        load_pct: 71,
        load_reuse_pct: 50,
        store_reuse_pct: 39,
    },
    WorkloadProfile {
        name: "kingate",
        load_pct: 68,
        load_reuse_pct: 45,
        store_reuse_pct: 37,
    },
    WorkloadProfile {
        name: "bp-vision",
        load_pct: 90,
        load_reuse_pct: 78,
        store_reuse_pct: 46,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let p = KernelParams::default();
        let a = generate_stream(&p);
        let b = generate_stream(&p);
        assert_eq!(a.sections, b.sections);
    }

    #[test]
    fn analysis_tracks_parameters() {
        let p = KernelParams {
            load_pct: 80,
            load_reuse_pct: 50,
            store_reuse_pct: 40,
            sections: 100,
            ops_per_section: 64,
            working_set_lines: 256,
            seed: 3,
        };
        let a = analyze(&generate_stream(&p));
        assert!((a.load_fraction - 0.80).abs() < 0.05, "{a:?}");
        // Measured reuse is a little below the target because the first
        // access of a section can never reuse.
        assert!((a.load_reuse - 0.50).abs() < 0.08, "{a:?}");
        assert!((a.store_reuse - 0.40).abs() < 0.10, "{a:?}");
    }

    #[test]
    fn kernel_runs_under_all_tm_schemes() {
        let p = KernelParams {
            sections: 10,
            ops_per_section: 24,
            ..KernelParams::default()
        };
        let stream = generate_stream(&p);
        for scheme in [
            Scheme::Sequential,
            Scheme::Stm,
            Scheme::HastmUnder(hastm::ModePolicy::AlwaysCautious),
            Scheme::Hastm,
            Scheme::Hytm,
        ] {
            let r = run_kernel(scheme, &stream);
            assert!(r.cycles > 0, "{scheme}");
        }
    }

    #[test]
    fn hastm_beats_stm_at_high_reuse() {
        let p = KernelParams {
            load_pct: 90,
            load_reuse_pct: 60,
            sections: 60,
            ..KernelParams::default()
        };
        let stream = generate_stream(&p);
        let stm = run_kernel(Scheme::Stm, &stream);
        let hastm = run_kernel(Scheme::Hastm, &stream);
        assert!(
            hastm.cycles < stm.cycles,
            "hastm={} stm={}",
            hastm.cycles,
            stm.cycles
        );
        // The filter actually fired.
        assert!(hastm.txn.read_fast_path > 0);
    }

    #[test]
    fn profiles_have_paper_shape() {
        for p in PROFILES {
            let a = analyze(&generate_stream(&p.params(1)));
            assert!(a.load_fraction > 0.6, "{}: {a:?}", p.name);
        }
        // Most profiles exceed 50% load reuse, as in Figure 13.
        let high = PROFILES
            .iter()
            .filter(|p| analyze(&generate_stream(&p.params(1))).load_reuse > 0.45)
            .count();
        assert!(high >= 8, "only {high} profiles show high reuse");
    }
}
