//! Serving-metrics sweep for the OLTP traffic mill: a 3-point Zipf-θ
//! sweep run on both execution backends (the cycle-accurate simulator and
//! the host-thread TL2 runtime), reporting the serving-style numbers the
//! mill was built to expose — p50/p99 latency, goodput, and abort-retry
//! amplification. Shared by the `perf` binary (BENCH.json `oltp` section)
//! and the `oltp` table binary.

use hastm::{Granularity, OracleMode};
use hastm_workloads::{
    run_oltp_native, run_oltp_sim, OltpConfig, OltpMetrics, OltpNativeConfig, OltpSimConfig, Scheme,
};

use crate::Scale;

/// The skew sweep: near-uniform, the paper-default skew, and a hot-key
/// regime past θ=1 where the head dominates.
pub const THETA_SWEEP: [f64; 3] = [0.6, 0.9, 1.2];

/// One measured point of the sweep. Latency units are simulated cycles on
/// the simulator backend and host nanoseconds on the native backend;
/// goodput is committed txns per million clock units (per Mcycle / per
/// millisecond respectively).
#[derive(Clone, Debug)]
pub struct ServingRow {
    /// Zipfian skew of the point.
    pub theta: f64,
    /// Median serving latency (clock units).
    pub p50: u64,
    /// 99th-percentile serving latency (clock units).
    pub p99: u64,
    /// Committed txns per million clock units.
    pub goodput: f64,
    /// Attempts per commit.
    pub amplification: f64,
    /// Top-level commits.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
}

impl ServingRow {
    fn from_metrics(theta: f64, m: &OltpMetrics) -> ServingRow {
        let [p50, p99] = m.latency.quantiles([0.50, 0.99]);
        ServingRow {
            theta,
            p50,
            p99,
            goodput: m.goodput_per_munit(),
            amplification: m.abort_retry_amplification(),
            commits: m.commits,
            aborts: m.aborts,
        }
    }
}

/// The traffic configuration for one sweep point. One shared config drives
/// both backends so the transaction streams are bit-identical; only the
/// clock unit of `mean_arrival_gap` differs in interpretation (cycles vs
/// nanoseconds).
pub fn mill_config(scale: Scale, theta: f64) -> OltpConfig {
    let (threads, txns_per_thread) = match scale {
        Scale::Quick => (4, 48),
        Scale::Standard => (4, 256),
        Scale::Full => (8, 512),
    };
    OltpConfig {
        threads,
        txns_per_thread,
        accounts: 256,
        zipf_theta: theta,
        read_pct: 50,
        txn_keys: 4,
        large_txn_pct: 2,
        large_txn_keys: hastm_workloads::oltp::HTM_OVERFLOW_KEYS,
        flash_phases: 4,
        mean_arrival_gap: 600,
        seed: 0x5eed,
    }
}

/// Runs the θ sweep on the simulator under HASTM at cache-line
/// granularity (the paper's measured configuration; the oracle is off for
/// measured runs).
pub fn sim_sweep(scale: Scale) -> Vec<ServingRow> {
    THETA_SWEEP
        .iter()
        .map(|&theta| {
            let mut cfg = OltpSimConfig::new(
                mill_config(scale, theta),
                Scheme::Hastm,
                Granularity::CacheLine,
            );
            cfg.oracle = OracleMode::Off;
            let r = run_oltp_sim(&cfg);
            ServingRow::from_metrics(theta, &r.metrics)
        })
        .collect()
}

/// Runs the θ sweep on host threads over the TL2 runtime at its default
/// configuration, the mark-bit filter off.
pub fn native_sweep(scale: Scale) -> Vec<ServingRow> {
    THETA_SWEEP
        .iter()
        .map(|&theta| {
            let cfg = OltpNativeConfig {
                oltp: mill_config(scale, theta),
                native: Default::default(),
            };
            let r = run_oltp_native(&cfg);
            ServingRow::from_metrics(theta, &r.metrics)
        })
        .collect()
}
