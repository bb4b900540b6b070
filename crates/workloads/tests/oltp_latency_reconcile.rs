//! Latency-reconciliation property: the mill's per-transaction latency
//! accounting must agree with the trace-event timelines for the same seed.
//!
//! The mill computes each transaction's completion stamp with a `clock()`
//! read immediately after the atomic section returns; the tracer stamps
//! `TxnCommit` inside the commit sequence. Nothing charges simulated
//! cycles between the two, so on trace-enabled simulator runs the mill's
//! `ends` must equal the per-core `TxnCommit` stamps *exactly* — and the
//! serving percentiles (p50/p99) recomputed from the trace must equal the
//! mill's own. This extends the PR 5 trace golden tests from "the trace is
//! internally consistent" to "the trace grounds the serving metrics".

use hastm::{Granularity, LatencyStats};
use hastm_sim::{TraceConfig, TraceEvent};
use hastm_workloads::oltp::{thread_txns, OltpConfig, OltpSimConfig};
use hastm_workloads::{run_oltp_sim, Scheme};

fn traced_run(seed: u64, scheme: Scheme) -> (hastm_workloads::OltpSimResult, OltpConfig) {
    let oltp = OltpConfig {
        seed,
        ..OltpConfig::quick(3)
    };
    let mut cfg = OltpSimConfig::new(oltp.clone(), scheme, Granularity::Object);
    cfg.trace = Some(TraceConfig);
    (run_oltp_sim(&cfg), oltp)
}

/// Commit stamps from the trace, per core, in commit order.
fn commit_stamps(trace: &hastm_sim::TraceLog) -> Vec<Vec<u64>> {
    trace
        .per_core
        .iter()
        .map(|events| {
            events
                .iter()
                .filter(|e| matches!(e.ev, TraceEvent::TxnCommit))
                .map(|e| e.cycle)
                .collect()
        })
        .collect()
}

#[test]
fn mill_ends_equal_trace_commit_stamps_exactly() {
    for seed in [0u64, 7, 0x5eed] {
        for scheme in [Scheme::Stm, Scheme::Hastm] {
            let (r, _) = traced_run(seed, scheme);
            let trace = r.trace.as_ref().expect("tracing was armed");
            let stamps = commit_stamps(trace);
            for (tid, mill) in r.per_thread.iter().enumerate() {
                assert_eq!(
                    mill.ends, stamps[tid],
                    "{scheme:?} seed {seed} core {tid}: mill completion stamps \
                     must equal the TxnCommit trace stamps"
                );
            }
        }
    }
}

#[test]
fn percentiles_recomputed_from_the_trace_agree() {
    for seed in [1u64, 42] {
        let (r, oltp) = traced_run(seed, Scheme::Stm);
        let trace = r.trace.as_ref().expect("tracing was armed");
        let stamps = commit_stamps(trace);
        // Rebuild the open-loop latency samples from scratch: the arrival
        // schedule from the seeded generator, the completion stamps from
        // the trace, the epoch from the mill result.
        let mut rebuilt = LatencyStats::default();
        for (tid, mill) in r.per_thread.iter().enumerate() {
            let txns = thread_txns(&oltp, tid);
            assert_eq!(stamps[tid].len(), txns.len());
            for (txn, &end) in txns.iter().zip(&stamps[tid]) {
                rebuilt.record(end.saturating_sub(mill.epoch + txn.arrival));
            }
        }
        assert_eq!(rebuilt.count(), r.metrics.latency.count());
        assert_eq!(rebuilt.quantile(0.50), r.metrics.p50(), "seed {seed}: p50");
        assert_eq!(rebuilt.quantile(0.99), r.metrics.p99(), "seed {seed}: p99");
        assert_eq!(rebuilt.max(), r.metrics.latency.max());
    }
}

#[test]
fn latency_is_deterministic_per_seed_and_sensitive_to_seed() {
    let (a, _) = traced_run(9, Scheme::Stm);
    let (b, _) = traced_run(9, Scheme::Stm);
    assert_eq!(a.metrics.latency, b.metrics.latency);
    assert_eq!(a.per_thread, b.per_thread);
    let (c, _) = traced_run(10, Scheme::Stm);
    assert_ne!(
        a.per_thread, c.per_thread,
        "different seeds must yield different timelines"
    );
}
