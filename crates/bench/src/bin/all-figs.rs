//! Regenerates every evaluation figure via the parallel cell sweep.
//!
//! Tables go to stdout in presentation order (bit-identical at any thread
//! count *and* under either gate mode — the simulator is deterministic per
//! cell and the per-op and quantum gates are schedule-identical); progress
//! and the summary go to stderr so stdout stays diffable. Scale via
//! `HASTM_BENCH_SCALE`, host threads via `HASTM_SWEEP_THREADS`
//! (default: host parallelism), `--gate perop|quantum` selects the
//! gate admission mode, and `--verify` re-runs every cell serially and
//! asserts the parallel outputs match.

use hastm_bench::{sweep, Scale, SweepConfig};
use hastm_sim::GateMode;

fn main() {
    let mut config = SweepConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verify" => config.verify = true,
            "--serial" => config.threads = 1,
            "--gate" => {
                config.gate = match args.next().as_deref() {
                    Some("perop") => GateMode::PerOp,
                    Some("quantum") => GateMode::Quantum,
                    other => {
                        eprintln!("--gate takes perop|quantum (got {other:?})");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "usage: all-figs [--verify] [--serial] [--gate perop|quantum]  \
                     (unknown arg {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::from_env();
    eprintln!(
        "running full evaluation at {scale:?} scale on {} host thread(s) ({:?} gate){}...",
        config.threads,
        config.gate,
        if config.verify {
            " with serial verification"
        } else {
            ""
        }
    );
    let report = sweep(scale, &config);
    for fig in &report.figures {
        fig.table.print();
    }
    eprintln!(
        "swept {} unique cells across {} figures in {:.1}s ({} threads)",
        report.unique_cells,
        report.figures.len(),
        report.wall.as_secs_f64(),
        report.threads,
    );
}
