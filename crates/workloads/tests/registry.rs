//! The metrics registry, end to end.
//!
//! 1. Snapshots pinned at the commit before the counter tables were
//!    introduced (`tests/pins/*.json`, `MetricsSnapshot::to_json` output):
//!    every key a pin carries must keep its value.
//! 2. Every `counters!` struct merges and names every one of its fields,
//!    and no key repeats within a full simulator or native snapshot.
//! 3. The mill both of those snapshots come from is one definition: run on
//!    either session it ends at the closed-form ledger, and so do the two
//!    runners built on it.

use std::collections::HashSet;

use hastm::{Granularity, MetricsSnapshot, TimeBreakdown, TxnStats};
use hastm_htm::{HtmStats, HytmStats};
use hastm_native::{NativeConfig, NativeStats};
use hastm_sim::MachineConfig;
use hastm_sim::{CoreStats, MachineStats};
use hastm_workloads::oltp::{balances_digest, expected_balances};
use hastm_workloads::{
    generate_stream, run_kernel, run_oltp_native, run_oltp_sim, run_workload, ExecStats,
    KernelParams, Mill, NativeSession, OltpConfig, OltpNativeConfig, OltpSimConfig, RunPlan,
    Scheme, SimSession, Structure, WorkloadConfig,
};

/// Asserts `snapshot` agrees with every `"key": value` line of `pin`.
fn assert_holds(what: &str, pin: &str, snapshot: &MetricsSnapshot) {
    let mut pinned = 0;
    for line in pin.lines() {
        let Some((key, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue; // the braces
        };
        let value: u64 = value.parse().expect("pinned value");
        assert_eq!(
            snapshot.get(key.trim_matches('"')),
            Some(value),
            "{what}: {key}"
        );
        pinned += 1;
    }
    assert!(pinned >= 77, "{what}: the pin carries the whole registry");
}

fn assert_unique_keys(what: &str, snapshot: &MetricsSnapshot) {
    let mut seen = HashSet::new();
    for (key, _) in snapshot.entries() {
        assert!(seen.insert(key), "{what}: key {key} repeats");
    }
}

#[test]
fn pinned_snapshots_hold() {
    for (scheme, pin) in [
        (Scheme::Stm, include_str!("pins/workload_bst_stm_2p.json")),
        (
            Scheme::Hastm,
            include_str!("pins/workload_bst_hastm_2p.json"),
        ),
        (Scheme::Hytm, include_str!("pins/workload_bst_hytm_2p.json")),
        (Scheme::Lock, include_str!("pins/workload_bst_lock_2p.json")),
    ] {
        let r = run_workload(&WorkloadConfig::paper_default(Structure::Bst, scheme, 2));
        let what = format!("bst/{scheme} 2p");
        assert_holds(&what, pin, &MetricsSnapshot::collect(&r.txn, &r.report));
        assert_holds(&what, pin, &r.snapshot());
        assert_unique_keys(&what, &r.snapshot());
        if scheme == Scheme::Hytm {
            // The pin's `txn.commits = 0` stands; the commits are under
            // the hybrid's own keys.
            let get = |key| r.snapshot().get(key).unwrap();
            assert_eq!(
                get("hytm.hw_commits") + get("hytm.sw_commits"),
                r.total_ops,
                "every op of the run committed on one of the two paths"
            );
        }
    }
    let cfg = OltpSimConfig::new(OltpConfig::quick(2), Scheme::Hastm, Granularity::CacheLine);
    let r = run_oltp_sim(&cfg);
    let pin = include_str!("pins/oltp_sim_hastm_2p.json");
    assert_holds("oltp sim", pin, &r.snapshot);
    assert_unique_keys("oltp sim", &r.snapshot);
    assert_eq!(r.digest, quick_ledger_digest());
}

/// Digest of the ledger `OltpConfig::quick(2)` must end at.
fn quick_ledger_digest() -> u64 {
    balances_digest(&expected_balances(&OltpConfig::quick(2)))
}

#[test]
fn one_mill_definition_ends_at_the_ledger_on_both_sessions() {
    let mill = Mill::new(&OltpConfig::quick(2));

    let stm = Scheme::Hastm.stm_config(Granularity::CacheLine, 2);
    let mut sim = SimSession::new(Scheme::Hastm, MachineConfig::with_cores(2), stm);
    let (accounts, run) = sim.run_definition(&mill, &RunPlan::default());
    assert_eq!(sim.judge(&mill, &accounts), Ok(quick_ledger_digest()));
    assert_eq!(run.outputs.len(), 2, "one mill result per core");
    assert!(run.stats.commits() >= 2 * 64);

    let native = NativeSession::new(NativeConfig::default());
    let (accounts, run) = native.run_definition(&mill, 2);
    assert_eq!(native.judge(&mill, &accounts), Ok(quick_ledger_digest()));
    assert_eq!(run.outputs.len(), 2, "one mill result per thread");
    assert!(run.stats.commits >= 2 * 64);
}

/// `run_kernel`, pinned at the commit before the run harnesses became one
/// session: a 40-section default kernel, cycles (`sim.makespan`) and the
/// whole registry.
#[test]
fn pinned_kernel_snapshots_hold() {
    let stream = generate_stream(&KernelParams {
        sections: 40,
        ..KernelParams::default()
    });
    for (scheme, pin) in [
        (Scheme::Stm, include_str!("pins/kernel_stm.json")),
        (Scheme::Hastm, include_str!("pins/kernel_hastm.json")),
        (Scheme::Hytm, include_str!("pins/kernel_hytm.json")),
    ] {
        let r = run_kernel(scheme, &stream);
        let mut snapshot = MetricsSnapshot::collect(&r.txn, &r.report);
        snapshot.extend(r.hytm.entries());
        assert_eq!(snapshot.get("sim.makespan"), Some(r.cycles));
        assert_holds(&format!("kernel/{scheme}"), pin, &snapshot);
    }
}

/// Sets every counter of `$stats` to a distinct value through the struct,
/// merges the struct into itself and expects every entry doubled, under
/// as many distinct keys as there are counters.
macro_rules! assert_table_is_whole {
    ($($stats:ident),*) => {$({
        let mut stats = $stats::default();
        for (i, counter) in stats.counters_mut().into_iter().enumerate() {
            *counter = i as u64 + 1;
        }
        let before = stats.entries();
        let values: Vec<u64> = before.iter().map(|e| e.1).collect();
        let n = values.len() as u64;
        assert_eq!(values, (1..=n).collect::<Vec<_>>(), stringify!($stats));
        let keys: HashSet<&str> = before.iter().map(|e| e.0).collect();
        assert_eq!(keys.len(), before.len(), "{}: a key repeats", stringify!($stats));
        stats.merge(&stats.clone());
        for ((key, was), (_, now)) in before.iter().zip(stats.entries()) {
            assert_eq!(now, 2 * was, "{}: {key}", stringify!($stats));
        }
    })*};
}

#[test]
fn every_counter_table_merges_and_names_every_field() {
    assert_table_is_whole!(
        TimeBreakdown,
        TxnStats,
        CoreStats,
        MachineStats,
        HtmStats,
        HytmStats,
        NativeStats,
        ExecStats
    );
}

#[test]
fn native_mill_fills_the_registry_under_the_simulators_keys() {
    let r = run_oltp_native(&OltpNativeConfig {
        oltp: OltpConfig::quick(2),
        native: NativeConfig::default(),
    });
    assert_unique_keys("oltp native", &r.snapshot);
    assert_eq!(r.digest, quick_ledger_digest());
    let get = |key| r.snapshot.get(key).unwrap_or_else(|| panic!("no {key}"));
    assert_eq!(get("txn.commits"), r.stats.commits);
    assert!(get("txn.commits") >= r.metrics.total_txns);
    assert_eq!(get("txn.aborts"), r.stats.aborts());
    assert_eq!(get("latency.count"), r.metrics.total_txns);
    for key in [
        "txn.aborts.conflict",
        "txn.ro.commits",
        "txn.ro.aborts",
        "txn.ro.snapshot_reads",
        "txn.ro.versions_published",
        "native.read.slow",
    ] {
        get(key);
    }
    assert_eq!(get("native.heap.recycled"), 0, "the mill frees nothing");
}
