//! Regenerates the evaluation figures and the reproduction's own tables
//! via the parallel cell sweep: all of them, or with `--fig N` (repeatable,
//! each figure at most once) just Figure N, or `--fig phases` /
//! `--fig ablation` just that table.
//!
//! Tables go to stdout in presentation order (bit-identical at any thread
//! count — the simulator is deterministic per cell); progress and the
//! summary go to stderr so stdout stays diffable. Scale via
//! `HASTM_BENCH_SCALE`, host threads via `HASTM_SWEEP_THREADS` (default:
//! host parallelism). At ci scale stdout is pinned in
//! `crates/bench/tests/pins/tables.txt`.

use hastm_bench::{env_or_exit, sweep_selected, Scale, SweepConfig, FIGURES};

fn usage(problem: &str) -> ! {
    eprintln!("usage: all-figs [--fig N|phases|ablation]...  ({problem})");
    std::process::exit(2);
}

fn main() {
    let config = env_or_exit(SweepConfig::from_env());
    let mut selected: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage("--fig needs a figure number or table name"));
                // A figure goes by its number, a table by its name.
                match FIGURES
                    .iter()
                    .find(|f| f.name.strip_prefix("fig").unwrap_or(f.name) == n)
                {
                    // Named twice, it would print twice.
                    Some(fig) if selected.contains(&fig.name) => {
                        usage(&format!("--fig {n} given twice"))
                    }
                    Some(fig) => selected.push(fig.name),
                    None => usage(&format!("no Figure {n}; have 11-22, phases and ablation")),
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
        "running {} table(s) at {scale:?} scale on {} host thread(s)...",
        selected.len(),
        config.threads,
    );
    let report = sweep_selected(&selected, scale, &config);
    for fig in &report.figures {
        fig.table.print();
    }
    eprintln!(
        "swept {} unique cells across {} tables in {:.1}s ({} threads)",
        report.cells.len(),
        report.figures.len(),
        report.wall.as_secs_f64(),
        report.threads,
    );
}
