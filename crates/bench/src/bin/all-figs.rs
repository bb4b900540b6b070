//! Regenerates the evaluation figures via the parallel cell sweep: all of
//! them, or with `--fig N` (repeatable) just Figure N.
//!
//! Tables go to stdout in presentation order (bit-identical at any thread
//! count — the simulator is deterministic per cell); progress and the
//! summary go to stderr so stdout stays diffable. Scale via
//! `HASTM_BENCH_SCALE`, host threads via `HASTM_SWEEP_THREADS` (default:
//! host parallelism), and `--verify` re-runs every cell serially and
//! asserts the parallel outputs match.

use hastm_bench::{env_or_exit, sweep_selected, Scale, SweepConfig, FIGURES};

fn usage(problem: &str) -> ! {
    eprintln!("usage: all-figs [--fig N]... [--verify] [--serial]  ({problem})");
    std::process::exit(2);
}

fn main() {
    let mut config = env_or_exit(SweepConfig::from_env());
    let mut selected: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verify" => config.verify = true,
            "--serial" => config.threads = 1,
            "--fig" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--fig needs a figure number"));
                match FIGURES
                    .iter()
                    .find(|f| f.name.strip_prefix("fig") == Some(&n))
                {
                    Some(fig) => selected.push(fig.name),
                    None => usage(&format!("no Figure {n}; have 11-22")),
                }
            }
            other => usage(&format!("unknown arg {other:?}")),
        }
    }
    if selected.is_empty() {
        selected = FIGURES.iter().map(|f| f.name).collect();
    }
    let scale = env_or_exit(Scale::from_env());
    eprintln!(
        "running {} figure(s) at {scale:?} scale on {} host thread(s){}...",
        selected.len(),
        config.threads,
        if config.verify {
            " with serial verification"
        } else {
            ""
        }
    );
    let report = sweep_selected(&selected, scale, &config);
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
