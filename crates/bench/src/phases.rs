//! Phased-policy comparison: the HyTM cost-model table.
//!
//! Re-runs the Figure 21/22 interference regime (the machine on which the
//! naïve always-aggressive strawman pays for its re-executions), an
//! uncontended control, and the OLTP traffic mill under three HASTM mode
//! policies — [`ModePolicy::NaiveAggressive`], the adaptive
//! [`ModePolicy::AbortRatioWatermark`], and the PhTM-style
//! [`ModePolicy::Phased`] controller — and reports makespan plus the
//! per-phase cost-model counters (time-in-phase, transitions,
//! aborts-by-cause-by-phase, serial commits).
//!
//! Every point is a pure function of `(case, scale)`: the simulator is
//! deterministic, so `crates/bench/tests/phase_determinism.rs` asserts
//! bit-equal points across host-thread placements — and, flipping
//! [`PhaseRun`]'s machine to the per-op reference gate, across both gate
//! admission modes. Shared by the `phases` table binary and the `perf`
//! binary (BENCH.json `phases` section).

use hastm::{Granularity, ModePolicy, OracleMode, Phase, PhasedParams, TxnStats};
use hastm_sim::MachineConfig;
use hastm_workloads::{run_oltp_sim, run_workload, Scheme, Structure, WorkloadConfig};

use crate::figures::{Cell, MachinePreset};
use crate::oltp::mill_config;
use crate::table::{ratio, Table};
use crate::Scale;
use hastm_workloads::OltpSimConfig;

/// The three policies the table compares, in baseline-first order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The strawman: always retry aggressively, never fall back.
    Naive,
    /// The adaptive abort-ratio watermark (the repo's prior best).
    Watermark,
    /// The PhTM-style global phase controller at its default parameters.
    Phased,
}

impl PolicyKind {
    /// All policies, baseline first.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Naive, PolicyKind::Watermark, PolicyKind::Phased];

    /// Stable label used in tables and BENCH.json.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Naive => "naive",
            PolicyKind::Watermark => "watermark",
            PolicyKind::Phased => "phased",
        }
    }

    /// The concrete mode policy.
    pub fn policy(self) -> ModePolicy {
        match self {
            PolicyKind::Naive => ModePolicy::NaiveAggressive,
            PolicyKind::Watermark => ModePolicy::AbortRatioWatermark { watermark: 0.1 },
            PolicyKind::Phased => ModePolicy::Phased(PhasedParams::default()),
        }
    }
}

/// The workload regimes the comparison covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PhaseWorkload {
    /// Figure 21 regime: BST on the interference machine, 4 threads.
    BstInterference,
    /// Figure 22 regime: B-tree on the interference machine, 4 threads.
    BTreeInterference,
    /// Uncontended control: BST on the default machine, 2 threads, large
    /// structure — the regime where an adaptive policy must cost nothing.
    BstUncontended,
    /// The OLTP traffic mill at the paper-default skew (θ = 0.9).
    OltpMill,
}

impl PhaseWorkload {
    /// All workload regimes, interference first.
    pub const ALL: [PhaseWorkload; 4] = [
        PhaseWorkload::BstInterference,
        PhaseWorkload::BTreeInterference,
        PhaseWorkload::BstUncontended,
        PhaseWorkload::OltpMill,
    ];

    /// Stable label used in tables and BENCH.json.
    pub fn label(self) -> &'static str {
        match self {
            PhaseWorkload::BstInterference => "bst interference",
            PhaseWorkload::BTreeInterference => "btree interference",
            PhaseWorkload::BstUncontended => "bst uncontended",
            PhaseWorkload::OltpMill => "oltp mill",
        }
    }
}

/// One `(workload, policy)` comparison point — the unit of work the
/// determinism test fans out across host threads.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PhaseCase {
    /// Workload regime.
    pub workload: PhaseWorkload,
    /// Mode policy under test.
    pub policy: PolicyKind,
}

/// Every comparison point, in render order (policies grouped by
/// workload, baseline first).
pub fn phase_cases() -> Vec<PhaseCase> {
    let mut cases = Vec::new();
    for workload in PhaseWorkload::ALL {
        for policy in PolicyKind::ALL {
            cases.push(PhaseCase { workload, policy });
        }
    }
    cases
}

/// Measured output of one comparison point. Integer-only on purpose: the
/// determinism test compares points with `==` across gate modes and host
/// placements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhasePoint {
    /// The case this point measured.
    pub case: PhaseCase,
    /// Makespan in simulated cycles.
    pub cycles: u64,
    /// Final-state digest (map digest or balances digest).
    pub digest: u64,
    /// Top-level commits.
    pub commits: u64,
    /// Aborted attempts, all causes.
    pub aborts: u64,
    /// Published phase transitions (zero for the non-phased policies).
    pub transitions: u64,
    /// Commits inside the serial (irrevocable) phase.
    pub serial_commits: u64,
    /// Per-phase transaction cycles (`Phase::idx()`-indexed; all zero for
    /// the non-phased policies).
    pub phase_cycles: [u64; 4],
    /// Per-phase commits.
    pub phase_commits: [u64; 4],
    /// Per-phase conflict aborts.
    pub phase_aborts_conflict: [u64; 4],
    /// Per-phase capacity-class aborts (marked-line loss).
    pub phase_aborts_capacity: [u64; 4],
    /// Per-phase fast-path penalty: cycles spent in barrier overhead
    /// (read/write barriers, validation, commit) rather than useful work —
    /// the HyTM cost-model quantity the phase controller trades against
    /// re-execution.
    pub phase_overhead_cycles: [u64; 4],
}

impl PhasePoint {
    fn from_txn(case: PhaseCase, cycles: u64, digest: u64, txn: &TxnStats) -> PhasePoint {
        PhasePoint {
            case,
            cycles,
            digest,
            commits: txn.commits,
            aborts: txn.aborts(),
            transitions: txn.phase_transitions,
            serial_commits: txn.serial_commits,
            phase_cycles: txn.phase_cycles,
            phase_commits: txn.phase_commits,
            phase_aborts_conflict: txn.phase_aborts_conflict,
            phase_aborts_capacity: txn.phase_aborts_capacity,
            phase_overhead_cycles: txn.phase_overhead_cycles,
        }
    }
}

/// The fully-built simulator run behind one comparison point.
#[derive(Clone, Debug)]
pub enum PhaseRun {
    /// The OLTP traffic mill.
    Mill(OltpSimConfig),
    /// A data-structure workload.
    Ds(WorkloadConfig),
}

impl PhaseRun {
    /// The run a case stands for at `scale`.
    pub fn of(case: PhaseCase, scale: Scale) -> PhaseRun {
        let policy = case.policy.policy();
        let (structure, machine, threads) = match case.workload {
            PhaseWorkload::OltpMill => {
                let mut cfg = OltpSimConfig::new(
                    mill_config(scale, 0.9),
                    Scheme::Hastm,
                    Granularity::CacheLine,
                );
                cfg.oracle = OracleMode::Off;
                cfg.mode_policy_override = Some(policy);
                return PhaseRun::Mill(cfg);
            }
            PhaseWorkload::BstInterference => (Structure::Bst, MachinePreset::Interference, 4),
            PhaseWorkload::BTreeInterference => (Structure::BTree, MachinePreset::Interference, 4),
            PhaseWorkload::BstUncontended => (Structure::Bst, MachinePreset::Default, 2),
        };
        // The Figure 21/22 cell (fixed total op budget divided among
        // threads, 16x structure size so transactions are long enough for
        // interference to land inside them), under this case's policy.
        let cell = Cell::Ds {
            structure,
            scheme: Scheme::Hastm,
            threads,
            scale,
            machine,
            size_mult: 16,
        };
        let mut cfg = cell.workload_config().expect("a Ds cell");
        cfg.mode_policy_override = Some(policy);
        PhaseRun::Ds(cfg)
    }

    /// The simulated machine the run is configured with.
    pub fn machine_mut(&mut self) -> &mut MachineConfig {
        match self {
            PhaseRun::Mill(cfg) => &mut cfg.machine,
            PhaseRun::Ds(cfg) => &mut cfg.machine,
        }
    }

    /// Runs it and measures `case`'s point.
    pub fn measure(&self, case: PhaseCase) -> PhasePoint {
        match self {
            PhaseRun::Mill(cfg) => {
                let r = run_oltp_sim(cfg);
                PhasePoint::from_txn(case, r.metrics.elapsed, r.digest, &r.txn)
            }
            PhaseRun::Ds(cfg) => {
                let r = run_workload(cfg);
                PhasePoint::from_txn(case, r.cycles, r.digest, &r.txn)
            }
        }
    }
}

/// Runs one comparison point. Pure up to determinism: equal
/// `(case, scale)` produce equal points in any process, on any thread, in
/// any order.
pub fn run_phase_case(case: PhaseCase, scale: Scale) -> PhasePoint {
    PhaseRun::of(case, scale).measure(case)
}

/// Runs every comparison point serially, in render order.
pub fn phase_points(scale: Scale) -> Vec<PhasePoint> {
    phase_cases()
        .into_iter()
        .map(|case| run_phase_case(case, scale))
        .collect()
}

/// Percent of `part` in `total`, rendered compactly.
fn share(part: u64, total: u64) -> String {
    if total == 0 {
        "-".into()
    } else {
        format!("{:.0}%", part as f64 * 100.0 / total as f64)
    }
}

/// Renders the comparison table from precomputed points.
pub fn phases_table_from(points: &[PhasePoint]) -> Table {
    let mut table = Table::new(
        "Phased execution: mode-policy comparison (HyTM cost model)",
        &[
            "workload", "policy", "cycles", "vs naive", "commits", "aborts", "trans", "serial",
            "hw", "aggr", "caut", "ser",
        ],
    );
    for point in points {
        let naive = points
            .iter()
            .find(|p| p.case.workload == point.case.workload && p.case.policy == PolicyKind::Naive)
            .expect("baseline point present");
        let total_phase_cycles: u64 = point.phase_cycles.iter().sum();
        table.row(vec![
            point.case.workload.label().to_string(),
            point.case.policy.label().to_string(),
            point.cycles.to_string(),
            ratio(point.cycles, naive.cycles),
            point.commits.to_string(),
            point.aborts.to_string(),
            point.transitions.to_string(),
            point.serial_commits.to_string(),
            share(point.phase_cycles[Phase::Hw.idx()], total_phase_cycles),
            share(
                point.phase_cycles[Phase::Aggressive.idx()],
                total_phase_cycles,
            ),
            share(
                point.phase_cycles[Phase::Cautious.idx()],
                total_phase_cycles,
            ),
            share(point.phase_cycles[Phase::Serial.idx()], total_phase_cycles),
        ]);
    }
    table
        .note("expected: phased beats naive-aggressive on the interference workloads (it stops re-executing doomed aggressive attempts) and stays within a few percent of the watermark policy when uncontended")
        .note("hw/aggr/caut/ser columns: share of transaction cycles spent in each phase (phased policy only)");
    table
}

/// The comparison table at the given scale.
pub fn phases_table(scale: Scale) -> Table {
    phases_table_from(&phase_points(scale))
}
