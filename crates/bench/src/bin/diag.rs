//! Diagnostics: per-scheme execution breakdowns on the evaluation
//! workloads and kernels. Not a paper figure — a tool for understanding
//! where cycles go and whether the mode controller behaves.
//!
//! Usage: `cargo run --release -p hastm-bench --bin diag`
//!
//! With `--trace-out FILE` the tool additionally runs one representative
//! workload (HASTM on the B-tree, 2 threads) with event tracing armed and
//! writes its measured run as Chrome `trace_events` JSON — open it in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. With
//! `--metrics-out FILE` the same run's unified counters registry
//! ([`hastm::MetricsSnapshot`]) is dumped as flat JSON.

use hastm_workloads::{
    generate_stream, run_kernel, run_workload, run_workload_traced, KernelParams, Scheme,
    Structure, WorkloadConfig,
};

fn workload_diag() {
    println!("== data-structure diagnostics (1 thread, paper defaults) ==");
    for structure in [Structure::Bst, Structure::BTree, Structure::HashTable] {
        println!("-- {structure} --");
        for scheme in [
            Scheme::Sequential,
            Scheme::Hytm,
            Scheme::Hastm,
            Scheme::HastmCautious,
            Scheme::Stm,
        ] {
            let mut cfg = WorkloadConfig::paper_default(structure, scheme, 1);
            cfg.ops_per_thread = 600;
            cfg.prepopulate = 384;
            cfg.key_range = 768;
            let r = run_workload(&cfg);
            let b = &r.txn.breakdown;
            println!(
                "{:16} cyc/op {:7.0}  rd={:7} wr={:6} val={:6} commit={:5} tls={:5} app={:7}  fast={} slow={} unlogged={} skipval={} fullval={}",
                scheme.label(),
                r.cycles_per_op(),
                b.read_barrier,
                b.write_barrier,
                b.validate,
                b.commit,
                b.tls,
                b.app,
                r.txn.read_fast_path,
                r.txn.read_slow_path,
                r.txn.reads_unlogged,
                r.txn.validations_skipped,
                r.txn.validations_full,
            );
        }
    }
}

fn multicore_diag() {
    println!("== multicore mode-controller diagnostics (btree, interference machine) ==");
    for scheme in [Scheme::Hastm, Scheme::NaiveAggressive, Scheme::Stm] {
        for threads in [1usize, 2, 4] {
            let mut cfg = WorkloadConfig::paper_default(Structure::BTree, scheme, threads);
            cfg.mode_policy_override =
                Some(hastm::ModePolicy::AbortRatioWatermark { watermark: 0.1 });
            cfg.ops_per_thread = 600 / threads as u64;
            cfg.prepopulate = 2048;
            cfg.key_range = 4096;
            cfg.machine = hastm_sim::MachineConfig {
                l1: hastm_sim::CacheConfig::new(64, 4),
                l2: hastm_sim::CacheConfig::new(256, 8),
                prefetch_next_line: true,
                ..hastm_sim::MachineConfig::default()
            };
            let r = run_workload(&cfg);
            println!(
                "{:17} {}T cyc/op {:6.0} commits={} ab_conf={} ab_dirty={} aggr={} caut={} marked_lost={} backinv={}",
                scheme.label(),
                threads,
                r.cycles_per_op(),
                r.txn.commits,
                r.txn.aborts_conflict,
                r.txn.aborts_mark_dirty,
                r.txn.aggressive_commits,
                r.txn.cautious_commits,
                r.report.total(|c| c.marked_lines_lost),
                r.report.machine.back_invalidations
            );
        }
    }
}

fn kernel_diag() {
    println!("== synthetic kernel diagnostics (load 90%, reuse 60%) ==");
    let params = KernelParams {
        load_pct: 90,
        load_reuse_pct: 60,
        sections: 100,
        ..KernelParams::default()
    };
    let stream = generate_stream(&params);
    for scheme in [
        Scheme::Sequential,
        Scheme::Hytm,
        Scheme::Hastm,
        Scheme::HastmCautious,
        Scheme::Stm,
    ] {
        let r = run_kernel(scheme, &stream);
        let b = &r.txn.breakdown;
        println!(
            "{:16} cycles={:8} rd={:7} wr={:6} val={:6} fast={} slow={} unlogged={} l1miss={}",
            scheme.label(),
            r.cycles,
            b.read_barrier,
            b.write_barrier,
            b.validate,
            r.txn.read_fast_path,
            r.txn.read_slow_path,
            r.txn.reads_unlogged,
            r.report.cores[0].l1_misses
        );
    }
}

/// Runs the representative traced workload and writes the requested
/// artifacts. Exits nonzero on I/O failure or (internal bug) an invalid
/// emitted trace.
fn trace_diag(trace_out: Option<&str>, metrics_out: Option<&str>) {
    let mut cfg = WorkloadConfig::paper_default(Structure::BTree, Scheme::Hastm, 2);
    cfg.ops_per_thread = 300;
    cfg.prepopulate = 384;
    cfg.key_range = 768;
    let (r, log) = run_workload_traced(&cfg, Some(hastm_sim::TraceConfig::default()));
    if let Some(path) = trace_out {
        let log = log.as_ref().expect("tracing was armed");
        let json = hastm_sim::chrome_trace_json(log);
        if let Err(e) = hastm_sim::validate_chrome_trace(&json) {
            eprintln!("error: emitted invalid trace JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "trace: {} events from {} @ {} -> {path}",
            log.total_events(),
            cfg.scheme.label(),
            cfg.structure,
        );
    }
    if let Some(path) = metrics_out {
        let snapshot = r.snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics: {} counters -> {path}", snapshot.entries().len());
    }
}

fn main() {
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = it.next(),
            "--metrics-out" => metrics_out = it.next(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: diag [--trace-out FILE] [--metrics-out FILE]");
                std::process::exit(2);
            }
        }
    }
    if trace_out.is_some() || metrics_out.is_some() {
        trace_diag(trace_out.as_deref(), metrics_out.as_deref());
        return;
    }
    workload_diag();
    multicore_diag();
    kernel_diag();
}
