//! OLTP traffic-mill serving metrics: the 3-point Zipf-θ sweep on both
//! execution backends — the cycle-accurate simulator running HASTM at
//! cache-line granularity, and the host-thread TL2 runtime at its default
//! configuration (mark-bit filter off) — as a `hastm-bench` table. Scale via
//! `HASTM_BENCH_SCALE=quick|standard|full`.

use hastm_bench::oltp::{mill_config, native_sweep, sim_sweep, ServingRow};
use hastm_bench::{env_or_exit, Scale, Table};

fn rows(table: &mut Table, backend: &str, rows: &[ServingRow]) {
    for r in rows {
        table.row(vec![
            backend.to_string(),
            format!("{:.1}", r.theta),
            r.p50.to_string(),
            r.p99.to_string(),
            format!("{:.2}", r.goodput),
            format!("{:.3}", r.amplification),
            r.commits.to_string(),
            r.aborts.to_string(),
        ]);
    }
}

fn main() {
    let scale = env_or_exit(Scale::from_env());
    let cfg = mill_config(scale, 0.0);
    let mut table = Table::new(
        "OLTP traffic mill — serving metrics across Zipf skew",
        &[
            "backend", "θ", "p50", "p99", "goodput", "amplify", "commits", "aborts",
        ],
    );
    rows(&mut table, "sim hastm:line", &sim_sweep(scale));
    rows(&mut table, "native tl2", &native_sweep(scale));
    table
        .note(format!(
            "{} threads x {} txns/thread, {} accounts, {}% reads, {}% {}-key tail",
            cfg.threads,
            cfg.txns_per_thread,
            cfg.accounts,
            cfg.read_pct,
            cfg.large_txn_pct,
            cfg.large_txn_keys,
        ))
        .note(
            "latency/goodput units: simulated cycles and txns/Mcycle on the sim backend, \
             nanoseconds and txns/ms on the native backend",
        )
        .note("open-loop arrivals: latency = completion - scheduled arrival, queueing included");
    table.print();
}
