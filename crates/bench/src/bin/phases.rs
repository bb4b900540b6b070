//! Phased-execution comparison table: the Figure 21/22 interference
//! regime, an uncontended control, and the OLTP mill under the naïve
//! always-aggressive, abort-ratio-watermark, and PhTM-style phased mode
//! policies, with per-phase HyTM cost-model counters.
//!
//! ```text
//! phases [--gate quantum|perop]
//! ```
//!
//! The gate admission modes are schedule-identical, so the table must be
//! bit-identical across both `--gate` choices (the
//! `phase_determinism` test enforces this). Scale via
//! `HASTM_BENCH_SCALE=quick|standard|full`.

use hastm_sim::GateMode;

fn main() {
    let mut gate = GateMode::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("phases: --gate needs a value (quantum|perop)");
                    std::process::exit(2);
                });
                gate = match v.as_str() {
                    "quantum" => GateMode::Quantum,
                    "perop" => GateMode::PerOp,
                    other => {
                        eprintln!("phases: unknown gate {other:?} (quantum|perop)");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("usage: phases [--gate quantum|perop]  (unknown arg {other:?})");
                std::process::exit(2);
            }
        }
    }
    let scale = hastm_bench::Scale::from_env();
    hastm_bench::phases::phases_table(scale, gate).print();
}
