//! Performance baseline for the figure sweep: runs the full evaluation
//! through the parallel sweep and emits machine-readable `BENCH.json`
//! (schema 8: throughput totals — including solo-core vs multi-core cell
//! throughput, where the scheduler's host-side cost lives — then per-figure
//! rows for every figure that declares cells with dedup attribution, then a
//! `native` section measuring the host-thread TL2 backend's committed
//! txns/sec at 1/2/4/8 threads with the mark-bit filter on and off, then an
//! `mvcc` section measuring the read-heavy mix under multi-version snapshot
//! reads vs single-version — including the structural zero-RO-abort
//! counters and the writer-side publication overhead — then an `oltp`
//! section with serving-style metrics — p50/p99 latency, goodput,
//! abort-retry amplification — for a 3-point Zipf-θ sweep of the OLTP
//! traffic mill on both backends, then a `phases` section comparing the
//! naïve, watermark, and PhTM-style phased HASTM mode policies on the
//! interference, uncontended, and OLTP regimes with per-phase cost-model
//! counters), optionally gating against a stored baseline (schema 1 through
//! 8).
//!
//! ```text
//! perf [--out BENCH.json] [--check BASELINE.json] [--tolerance 0.25]
//!      [--threads N]
//! ```
//!
//! `--check` compares this run's `cells_per_sec` against the baseline
//! file's and exits nonzero if throughput regressed by more than the
//! tolerance (default 25 %, the CI gate). Scale comes from
//! `HASTM_BENCH_SCALE` as everywhere else.

use std::fmt::Write as _;

use hastm_bench::oltp::{native_sweep, sim_sweep, ServingRow};
use hastm_bench::phases::{phase_points, PhasePoint};
use hastm_bench::{sweep, Scale, SweepConfig, SweepReport};
use hastm_workloads::{run_native_workload, NativeWorkloadConfig, Structure};

struct Args {
    out: String,
    check: Option<String>,
    tolerance: f64,
    threads: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH.json".to_string(),
        check: None,
        tolerance: 0.25,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("perf: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--check" => args.check = Some(value("--check")),
            "--tolerance" => {
                let v = value("--tolerance");
                args.tolerance = v.parse().unwrap_or_else(|_| {
                    eprintln!("perf: bad --tolerance {v:?}");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let v = value("--threads");
                args.threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("perf: bad --threads {v:?}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "usage: perf [--out FILE] [--check BASELINE] [--tolerance F] [--threads N]  (unknown arg {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Standard => "standard",
        Scale::Full => "full",
    }
}

/// Per-cell throughput over summed single-cell wall seconds (cells run
/// interleaved on the sweep's worker pool, so elapsed wall time cannot be
/// attributed to one class; summed per-cell time can).
fn class_rate(cells: usize, cell_seconds: f64) -> f64 {
    cells as f64 / cell_seconds.max(1e-9)
}

/// One native-backend measurement row: same workload, same seed, filter
/// on and off.
struct NativeRow {
    threads: usize,
    filter_txns_per_sec: f64,
    nofilter_txns_per_sec: f64,
    fast_read_pct: f64,
}

/// Measures the host-thread TL2 backend on the paper-default hash-table
/// mix (20 % updates, 1024-key range) at each thread count. The row keys
/// deliberately avoid the substring `cells_per_sec` so the first-occurrence
/// extraction used by `--check` keeps reading the simulator totals.
fn native_rows() -> Vec<NativeRow> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let run = |mark_filter: bool| {
                let mut cfg = NativeWorkloadConfig::paper_default(Structure::HashTable, threads);
                cfg.native.mark_filter = mark_filter;
                run_native_workload(&cfg)
            };
            let with = run(true);
            let without = run(false);
            let reads = with.stats.fast_reads + with.stats.slow_reads;
            NativeRow {
                threads,
                filter_txns_per_sec: with.txns_per_sec(),
                nofilter_txns_per_sec: without.txns_per_sec(),
                fast_read_pct: if reads == 0 {
                    0.0
                } else {
                    with.stats.fast_reads as f64 * 100.0 / reads as f64
                },
            }
        })
        .collect()
}

/// One multi-version measurement row: the read-heavy mix (4 % updates,
/// read-only gets) under `Multi(3)` snapshot rings vs the identical mix
/// under `Single`.
struct MvccRow {
    threads: usize,
    snapshot_txns_per_sec: f64,
    single_txns_per_sec: f64,
    ro_commits: u64,
    ro_aborts: u64,
    snapshot_reads: u64,
    versions_published: u64,
}

/// Measures multi-version snapshot reads on the host-thread backend:
/// the read-heavy hash-table mix at each thread count under `Multi(3)`
/// and under `Single` (same streams, so the ratio is the snapshot path's
/// effect), plus the zero-RO-abort counters the suite guarantees. The
/// row keys deliberately avoid the substring `cells_per_sec` (see
/// `render_json`).
fn mvcc_rows() -> Vec<MvccRow> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let run = |versioning: hastm::Versioning| {
                let mut cfg = NativeWorkloadConfig::read_heavy(Structure::HashTable, threads);
                cfg.native.versioning = versioning;
                run_native_workload(&cfg)
            };
            let multi = run(hastm::Versioning::Multi { k: 3 });
            let single = run(hastm::Versioning::Single);
            MvccRow {
                threads,
                snapshot_txns_per_sec: multi.txns_per_sec(),
                single_txns_per_sec: single.txns_per_sec(),
                ro_commits: multi.stats.ro_commits,
                ro_aborts: multi.stats.ro_aborts,
                snapshot_reads: multi.stats.snapshot_reads,
                versions_published: multi.stats.versions_published,
            }
        })
        .collect()
}

/// Writer-side cost of version publication: the paper-default 20 %-update
/// mix (no read-only declarations, so every transaction is a potential
/// writer) under `Multi(3)` vs `Single` at 4 threads.
struct WriterOverhead {
    multi_txns_per_sec: f64,
    single_txns_per_sec: f64,
}

fn writer_overhead() -> WriterOverhead {
    let run = |versioning: hastm::Versioning| {
        let mut cfg = NativeWorkloadConfig::paper_default(Structure::HashTable, 4);
        cfg.native.versioning = versioning;
        run_native_workload(&cfg)
    };
    WriterOverhead {
        multi_txns_per_sec: run(hastm::Versioning::Multi { k: 3 }).txns_per_sec(),
        single_txns_per_sec: run(hastm::Versioning::Single).txns_per_sec(),
    }
}

/// What `main` measured, one field per `BENCH.json` section.
#[derive(Clone, Copy)]
struct Measured<'a> {
    report: &'a SweepReport,
    native: &'a [NativeRow],
    mvcc: &'a [MvccRow],
    writer: &'a WriterOverhead,
    oltp_sim: &'a [ServingRow],
    oltp_native: &'a [ServingRow],
    phases: &'a [PhasePoint],
}

/// Renders `BENCH.json` (schema 8). The `totals` object precedes the
/// `figures` array on purpose — and its scalar `cells_per_sec` precedes
/// the `solo`/`multi` sub-objects — because the regression gate extracts
/// `cells_per_sec` by first occurrence; earlier-schema baselines therefore
/// stay readable by `--check` and this file stays readable by older
/// gates. The `native`, `mvcc`, and `oltp` row keys deliberately avoid
/// that substring for the same reason.
fn render_json(scale: Scale, measured: &Measured<'_>) -> String {
    let Measured {
        report,
        native,
        mvcc,
        writer,
        oltp_sim,
        oltp_native,
        phases,
    } = *measured;
    let wall_s = report.wall.as_secs_f64();
    let cells_per_sec = report.unique_cells as f64 / wall_s.max(1e-9);
    let cycles_per_sec = report.simulated_cycles as f64 / wall_s.max(1e-9);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": 8,");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale_name(scale));
    let _ = writeln!(s, "  \"host_threads\": {},", report.threads);
    s.push_str("  \"totals\": {\n");
    let _ = writeln!(s, "    \"wall_ms\": {:.3},", wall_s * 1e3);
    let _ = writeln!(s, "    \"cells\": {},", report.unique_cells);
    let _ = writeln!(s, "    \"cells_per_sec\": {cells_per_sec:.3},");
    let _ = writeln!(
        s,
        "    \"solo\": {{ \"cells\": {}, \"cell_seconds\": {:.3}, \"cells_per_sec\": {:.3} }},",
        report.solo_cells,
        report.solo_cell_seconds,
        class_rate(report.solo_cells, report.solo_cell_seconds),
    );
    let _ = writeln!(
        s,
        "    \"multi\": {{ \"cells\": {}, \"cell_seconds\": {:.3}, \"cells_per_sec\": {:.3} }},",
        report.multi_cells,
        report.multi_cell_seconds,
        class_rate(report.multi_cells, report.multi_cell_seconds),
    );
    let _ = writeln!(s, "    \"simulated_cycles\": {},", report.simulated_cycles);
    let _ = writeln!(s, "    \"simulated_cycles_per_sec\": {cycles_per_sec:.1}");
    s.push_str("  },\n");
    s.push_str("  \"figures\": [\n");
    // fig13 is pure trace analysis and declares no cells; zero-cell rows
    // carry no throughput signal, so they are dropped from the report.
    let with_cells: Vec<_> = report.figures.iter().filter(|f| f.cells > 0).collect();
    for (i, fig) in with_cells.iter().enumerate() {
        let comma = if i + 1 < with_cells.len() { "," } else { "" };
        let shared: Vec<String> = fig
            .dedup_shared_with
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect();
        let _ = writeln!(
            s,
            "    {{ \"name\": \"{}\", \"cells\": {}, \"fresh_cells\": {}, \"wall_ms\": {:.3}, \"simulated_cycles\": {}, \"dedup_shared_with\": [{}] }}{comma}",
            fig.name,
            fig.cells,
            fig.fresh_cells,
            fig.cell_seconds * 1e3,
            fig.simulated_cycles,
            shared.join(", "),
        );
    }
    s.push_str("  ],\n");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str("  \"native\": {\n");
    let _ = writeln!(s, "    \"host_cpus\": {host_cpus},");
    s.push_str("    \"workload\": \"hash-table, 20% updates, 1024-key range, 1000 ops/thread\",\n");
    s.push_str("    \"rows\": [\n");
    let base = native
        .iter()
        .find(|r| r.threads == 1)
        .map_or(0.0, |r| r.filter_txns_per_sec);
    for (i, row) in native.iter().enumerate() {
        let comma = if i + 1 < native.len() { "," } else { "" };
        let speedup = if base > 0.0 {
            row.filter_txns_per_sec / base
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "      {{ \"threads\": {}, \"filter_txns_per_sec\": {:.1}, \"nofilter_txns_per_sec\": {:.1}, \"fast_read_pct\": {:.1}, \"speedup_vs_1\": {speedup:.3} }}{comma}",
            row.threads, row.filter_txns_per_sec, row.nofilter_txns_per_sec, row.fast_read_pct,
        );
    }
    s.push_str("    ]\n  },\n");
    s.push_str("  \"mvcc\": {\n");
    s.push_str(
        "    \"workload\": \"hash-table, 4% updates, read-only gets, 1024-key range, 1000 ops/thread, k=3 rings\",\n",
    );
    s.push_str("    \"rows\": [\n");
    for (i, row) in mvcc.iter().enumerate() {
        let comma = if i + 1 < mvcc.len() { "," } else { "" };
        let snapshot_over_single = if row.single_txns_per_sec > 0.0 {
            row.snapshot_txns_per_sec / row.single_txns_per_sec
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "      {{ \"threads\": {}, \"snapshot_txns_per_sec\": {:.1}, \"single_txns_per_sec\": {:.1}, \"snapshot_over_single\": {snapshot_over_single:.3}, \"ro_commits\": {}, \"ro_aborts\": {}, \"snapshot_reads\": {}, \"versions_published\": {} }}{comma}",
            row.threads,
            row.snapshot_txns_per_sec,
            row.single_txns_per_sec,
            row.ro_commits,
            row.ro_aborts,
            row.snapshot_reads,
            row.versions_published,
        );
    }
    s.push_str("    ],\n");
    let writer_ratio = if writer.single_txns_per_sec > 0.0 {
        writer.multi_txns_per_sec / writer.single_txns_per_sec
    } else {
        0.0
    };
    let _ = writeln!(
        s,
        "    \"writer_overhead\": {{ \"workload\": \"paper-default 20% updates, 4 threads\", \"multi_txns_per_sec\": {:.1}, \"single_txns_per_sec\": {:.1}, \"multi_over_single\": {writer_ratio:.3} }}",
        writer.multi_txns_per_sec, writer.single_txns_per_sec,
    );
    s.push_str("  },\n");
    s.push_str("  \"oltp\": {\n");
    s.push_str(
        "    \"workload\": \"bank mill, 256 accounts, 50% reads, 2% HTM-overflow tail, flash crowds\",\n",
    );
    let _ = writeln!(
        s,
        "    \"sim\": {{ \"scheme\": \"hastm:line\", \"units\": \"cycles\", \"rows\": [\n{}    ] }},",
        serving_rows(oltp_sim, "mcycle"),
    );
    let _ = writeln!(
        s,
        "    \"native\": {{ \"scheme\": \"tl2+filter\", \"units\": \"nanos\", \"rows\": [\n{}    ] }}",
        serving_rows(oltp_native, "msec"),
    );
    s.push_str("  },\n");
    // Phased-policy comparison (HyTM cost model). Row keys deliberately
    // avoid the substring `cells_per_sec` (see the schema note above);
    // makespans are reported as `sim_cycles`.
    s.push_str("  \"phases\": {\n");
    s.push_str("    \"gate\": \"quantum\",\n");
    s.push_str("    \"rows\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{ \"workload\": \"{}\", \"policy\": \"{}\", \"sim_cycles\": {}, \"commits\": {}, \"aborts\": {}, \"transitions\": {}, \"serial_commits\": {}, \"phase_cycles\": [{}, {}, {}, {}], \"phase_commits\": [{}, {}, {}, {}], \"phase_overhead_cycles\": [{}, {}, {}, {}] }}{comma}",
            p.case.workload.label(),
            p.case.policy.label(),
            p.cycles,
            p.commits,
            p.aborts,
            p.transitions,
            p.serial_commits,
            p.phase_cycles[0],
            p.phase_cycles[1],
            p.phase_cycles[2],
            p.phase_cycles[3],
            p.phase_commits[0],
            p.phase_commits[1],
            p.phase_commits[2],
            p.phase_commits[3],
            p.phase_overhead_cycles[0],
            p.phase_overhead_cycles[1],
            p.phase_overhead_cycles[2],
            p.phase_overhead_cycles[3],
        );
    }
    s.push_str("    ]\n  }\n}\n");
    s
}

/// Serving-metric rows for the `oltp` section. `p50`/`p99` are in the
/// backend's clock units; `goodput_txns_per_*` names the unit explicitly
/// (per Mcycle on the simulator, per millisecond on host threads).
fn serving_rows(rows: &[ServingRow], unit: &str) -> String {
    let mut s = String::new();
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{ \"theta\": {:.1}, \"p50\": {}, \"p99\": {}, \"goodput_txns_per_{unit}\": {:.3}, \"abort_retry_amplification\": {:.4}, \"commits\": {}, \"aborts\": {} }}{comma}",
            row.theta, row.p50, row.p99, row.goodput, row.amplification, row.commits, row.aborts,
        );
    }
    s
}

/// First-occurrence numeric extraction (`"key": 123.4`); the emitter
/// guarantees the totals object comes first.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args = parse_args();
    let mut config = SweepConfig::from_env();
    if let Some(t) = args.threads {
        config.threads = t.max(1);
    }
    let scale = Scale::from_env();
    eprintln!(
        "perf: sweeping all figures at {scale:?} scale on {} host thread(s)...",
        config.threads
    );
    let report = sweep(scale, &config);
    eprintln!("perf: measuring the native host-thread backend...");
    let native = native_rows();
    eprintln!("perf: measuring multi-version snapshot reads vs single-version...");
    let mvcc = mvcc_rows();
    let writer = writer_overhead();
    eprintln!("perf: running the OLTP serving-metrics sweep on both backends...");
    let oltp_sim = sim_sweep(scale);
    let oltp_native = native_sweep(scale);
    eprintln!("perf: comparing HASTM mode policies (naive / watermark / phased)...");
    let phases = phase_points(scale);
    let json = render_json(
        scale,
        &Measured {
            report: &report,
            native: &native,
            mvcc: &mvcc,
            writer: &writer,
            oltp_sim: &oltp_sim,
            oltp_native: &oltp_native,
            phases: &phases,
        },
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("perf: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    let cells_per_sec = extract_number(&json, "cells_per_sec").expect("own json");
    eprintln!(
        "perf: {} cells in {:.1}s → {:.2} cells/sec, {:.0} simulated cycles/sec → {}",
        report.unique_cells,
        report.wall.as_secs_f64(),
        cells_per_sec,
        extract_number(&json, "simulated_cycles_per_sec").expect("own json"),
        args.out,
    );
    eprintln!(
        "perf: solo-core {} cells → {:.2} cells/sec; multi-core {} cells → {:.2} cells/sec (per summed cell time)",
        report.solo_cells,
        class_rate(report.solo_cells, report.solo_cell_seconds),
        report.multi_cells,
        class_rate(report.multi_cells, report.multi_cell_seconds),
    );
    for row in &native {
        eprintln!(
            "perf: native {} thread(s) → {:.0} txns/sec (filter on, {:.0}% fast reads), {:.0} txns/sec (filter off)",
            row.threads, row.filter_txns_per_sec, row.fast_read_pct, row.nofilter_txns_per_sec,
        );
    }
    for row in &mvcc {
        eprintln!(
            "perf: mvcc {} thread(s) → {:.0} txns/sec (snapshot, {} ro commits / {} ro aborts), {:.0} txns/sec (single)",
            row.threads,
            row.snapshot_txns_per_sec,
            row.ro_commits,
            row.ro_aborts,
            row.single_txns_per_sec,
        );
    }
    eprintln!(
        "perf: mvcc writer overhead (20% updates, 4 threads) → {:.0} txns/sec multi vs {:.0} single",
        writer.multi_txns_per_sec, writer.single_txns_per_sec,
    );
    for (backend, unit, rows) in [("sim", "cycles", &oltp_sim), ("native", "ns", &oltp_native)] {
        for row in rows.iter() {
            eprintln!(
                "perf: oltp {backend} θ={:.1} → p50 {} / p99 {} {unit}, goodput {:.2}, amplification {:.3}",
                row.theta, row.p50, row.p99, row.goodput, row.amplification,
            );
        }
    }
    for p in &phases {
        eprintln!(
            "perf: phases {} / {} → {} cycles, {} commits, {} aborts, {} transitions, {} serial commits",
            p.case.workload.label(),
            p.case.policy.label(),
            p.cycles,
            p.commits,
            p.aborts,
            p.transitions,
            p.serial_commits,
        );
    }
    if let Some(baseline_path) = args.check {
        let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let base = extract_number(&baseline, "cells_per_sec").unwrap_or_else(|| {
            eprintln!("perf: no cells_per_sec in baseline {baseline_path}");
            std::process::exit(1);
        });
        let floor = base * (1.0 - args.tolerance);
        if cells_per_sec < floor {
            eprintln!(
                "perf: REGRESSION — {cells_per_sec:.2} cells/sec is more than {:.0}% below baseline {base:.2} (floor {floor:.2})",
                args.tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf: within tolerance — {cells_per_sec:.2} cells/sec vs baseline {base:.2} (floor {floor:.2})"
        );
    }
}
