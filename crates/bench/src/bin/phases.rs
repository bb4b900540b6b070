//! Phased-execution comparison table: the Figure 21/22 interference
//! regime, an uncontended control, and the OLTP mill under the naïve
//! always-aggressive, abort-ratio-watermark, and PhTM-style phased mode
//! policies, with per-phase HyTM cost-model counters. Scale via
//! `HASTM_BENCH_SCALE=quick|standard|full`.

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("usage: phases  (unknown arg {arg:?})");
        std::process::exit(2);
    }
    let scale = hastm_bench::env_or_exit(hastm_bench::Scale::from_env());
    hastm_bench::phases::phases_table(scale).print();
}
