//! Command-line entry point for the differential-testing harness.
//!
//! ```text
//! # Sweep the full 84-combination matrix across 100 seeds:
//! cargo run -p hastm-check --release -- --seeds 100
//!
//! # PCT sweep: 200 depth-3 schedules over every workload:
//! cargo run -p hastm-check --release -- --pct 200 --depth 3 --coverage
//!
//! # Bounded-exhaustive enumeration of a tiny counter workload:
//! cargo run -p hastm-check --release -- --explore --combo stm:obj:full \
//!     --threads 2 --ops 2 --bound 2
//!
//! # Reproduce one (possibly shrunk) failing trial exactly:
//! cargo run -p hastm-check --release -- --replay \
//!     --workload counter --combo hastm:obj:full:watermark \
//!     --sched pct:3 --seed 17 --threads 3 --ops 8
//! ```

use std::process::ExitCode;

use hastm_check::explore::{explore, ExploreConfig};
use hastm_check::native::{run_native_suite, NativeCheckConfig, NativeTrial};
use hastm_check::{
    check_trial_plan, parse_trace, run_suite, run_trial_observed, CheckConfig, Combo, Observation,
    RunPlan, Sched, Trial, Workload,
};
use hastm_sim::{chrome_trace_json, reconcile_mark_discards, validate_chrome_trace, TraceConfig};

const USAGE: &str = "\
hastm-check: seeded differential-testing harness for the HASTM reproduction

USAGE:
    hastm-check [--seeds N] [--start-seed N] [--threads N] [--ops N]
                [--sched S] [--backend B] [--workload W] [--combo C]
                [--coverage] [--quiet]
    hastm-check --pct N [--depth D] [--threads N] [--ops N] [--coverage]
    hastm-check --explore [--combo C] [--workload W] [--threads N] [--ops N]
                [--bound B] [--max-runs N] [--seed N]
    hastm-check --replay --workload W --combo C --seed N [--sched S]
                [--threads N] [--ops N] [--trace T] [--trace-out FILE]
    hastm-check --validate-trace FILE
    hastm-check --list-combos

OPTIONS:
    --seeds N        consecutive seeds to sweep            [default: 50]
    --start-seed N   first seed                            [default: 0]
    --threads N      worker threads per trial              [default: 3]
    --ops N          operations per thread per trial       [default: 32]
    --sched S        schedule policy: fuzzed | pct:<depth> | det
                                                           [default: fuzzed]
    --backend B      execution backend: sim | native | both [default: sim]
                     native runs the workloads on real host threads over
                     the TL2 runtime (1/2/4/8 threads, the mark filter
                     off as by default, single- and multi-version, phased
                     and not) and differential-checks final states
                     against the simulator's sequential reference
    --pct N          shorthand for --seeds N --sched pct:<depth> --coverage
    --depth D        PCT depth for --pct                   [default: 3]
    --coverage       record schedules; print interleaving coverage
    --explore        bounded-exhaustive preemption-trace enumeration
    --bound B        max preemptions per trace             [default: 2]
    --max-runs N     exploration run budget                [default: 2000]
    --quiet          only print failures and the summary
    --replay         run exactly one trial and report pass/fail
    --workload W     workload: counter | map | bst | btree | oltp
                     (suite mode sweeps all five; passing one restricts the
                     sim and native sweeps to it) [explore default: counter]
    --combo C        combination scheme:gran:isa[:policy][:v1|v2|v3], e.g.
                     hastm:obj:full:watermark or stm:line:full:v3 (policy
                     only for hastm; versioning suffix optional, default
                     v1 = single-version, v2|v3 = k-deep snapshot rings;
                     see --list-combos for the 84 swept; in suite mode
                     restricts the sim sweep to this single combination)
    --seed N         replay/explore seed                   [default: 0]
    --trace T        replay preemption trace, e.g. 12@1,30@0
    --trace-out FILE write the replayed run's event trace as Chrome
                     trace_events JSON (open in Perfetto / chrome://tracing),
                     cross-checked against the run's TimeBreakdown and
                     mark-loss counters
    --validate-trace FILE
                     check that FILE is well-formed Chrome trace JSON, print
                     its event count, and exit
    --list-combos    print every combination slug and exit
    --help           this text
";

#[derive(Copy, Clone, PartialEq, Eq, Default)]
enum Backend {
    #[default]
    Sim,
    Native,
    Both,
}

impl Backend {
    fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            "both" => Ok(Backend::Both),
            other => Err(format!("unknown backend `{other}` (sim|native|both)")),
        }
    }
}

#[derive(Default)]
struct Args {
    replay: bool,
    list_combos: bool,
    explore: bool,
    quiet: bool,
    coverage: bool,
    seeds: u64,
    start_seed: u64,
    threads: usize,
    ops: Option<u64>,
    workload: Option<Workload>,
    combo: Option<Combo>,
    seed: u64,
    sched: Sched,
    pct: Option<u64>,
    depth: u32,
    bound: usize,
    max_runs: u64,
    trace: Option<String>,
    trace_out: Option<String>,
    validate_trace: Option<String>,
    backend: Backend,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        threads: 3,
        depth: 3,
        bound: 2,
        max_runs: 2_000,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--replay" => args.replay = true,
            "--list-combos" => args.list_combos = true,
            "--explore" => args.explore = true,
            "--quiet" => args.quiet = true,
            "--coverage" => args.coverage = true,
            "--seeds" => args.seeds = num(&value("--seeds")?)?,
            "--start-seed" => args.start_seed = num(&value("--start-seed")?)?,
            "--threads" => args.threads = num(&value("--threads")?)? as usize,
            "--ops" => args.ops = Some(num(&value("--ops")?)?),
            "--seed" => args.seed = num(&value("--seed")?)?,
            "--sched" => args.sched = Sched::parse(&value("--sched")?)?,
            "--pct" => args.pct = Some(num(&value("--pct")?)?),
            "--depth" => args.depth = num(&value("--depth")?)? as u32,
            "--bound" => args.bound = num(&value("--bound")?)? as usize,
            "--max-runs" => args.max_runs = num(&value("--max-runs")?)?,
            "--trace" => args.trace = Some(value("--trace")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--validate-trace" => args.validate_trace = Some(value("--validate-trace")?),
            "--backend" => args.backend = Backend::parse(&value("--backend")?)?,
            "--workload" => args.workload = Some(Workload::parse(&value("--workload")?)?),
            "--combo" => args.combo = Some(Combo::parse(&value("--combo")?)?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(runs) = args.pct {
        args.seeds = runs;
        args.sched = Sched::Pct { depth: args.depth };
        args.coverage = true;
    }
    if args.threads == 0 || args.ops == Some(0) {
        return Err("--threads and --ops must be at least 1".into());
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// Writes the observed run's event trace as Chrome trace JSON and
/// cross-checks it: the JSON must validate, the per-phase cycle sums must
/// equal the run's summed `TimeBreakdown` (when the scheme exposes one and
/// no ring overflowed), and the per-core `MarkDiscard` event counts must
/// equal the machine's `marked_lines_lost` counters.
fn write_trace_out(path: &str, obs: &Observation) -> Result<(), String> {
    let log = obs
        .trace
        .as_ref()
        .ok_or("internal: tracing was armed but no trace came back")?;
    let json = chrome_trace_json(log);
    let events =
        validate_chrome_trace(&json).map_err(|e| format!("emitted invalid trace JSON: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("  trace: {events} records -> {path} (valid Chrome trace JSON)");

    if log.dropped_any() {
        println!("  warning: trace ring overflowed; skipping trace/stats reconciliation");
        return Ok(());
    }
    let sums = log.phase_sums();
    let bd = &obs.breakdown;
    if bd.total() == 0 && sums.total() > 0 {
        // HyTM / lock / sequential schemes keep no TimeBreakdown, but the
        // HyTM software fallback still emits phase events.
        println!("  note: scheme exposes no TimeBreakdown; skipping phase reconciliation");
    } else {
        for (name, traced, counted) in [
            ("tls", sums.tls, bd.tls),
            ("read_barrier", sums.read_barrier, bd.read_barrier),
            ("write_barrier", sums.write_barrier, bd.write_barrier),
            ("validate", sums.validate, bd.validate),
            ("commit", sums.commit, bd.commit),
            ("contention", sums.contention, bd.contention),
            ("app", sums.app, bd.app),
        ] {
            if traced != counted {
                return Err(format!(
                    "trace/breakdown mismatch for {name}: trace sums {traced} cycles, \
                     TimeBreakdown counted {counted}"
                ));
            }
        }
        println!(
            "  reconciled: per-phase trace sums equal the TimeBreakdown ({} cycles)",
            sums.total()
        );
    }
    if let Some(report) = &obs.report {
        let lost: Vec<u64> = report.cores.iter().map(|c| c.marked_lines_lost).collect();
        reconcile_mark_discards(log, &lost)?;
        println!(
            "  reconciled: MarkDiscard events equal marked_lines_lost ({} total)",
            lost.iter().sum::<u64>()
        );
    }
    Ok(())
}

fn run_validate_trace(path: &str) -> Result<ExitCode, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    match validate_chrome_trace(&json) {
        Ok(events) => {
            println!("OK: {path} is well-formed Chrome trace JSON ({events} records)");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("FAIL: {path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn replay(args: &Args) -> Result<ExitCode, String> {
    let trial = Trial {
        combo: args.combo.ok_or("--replay needs --combo")?,
        workload: args.workload.ok_or("--replay needs --workload")?,
        seed: args.seed,
        threads: args.threads,
        ops: args.ops.unwrap_or(32),
        sched: args.sched,
    };
    let plan = RunPlan {
        preemptions: parse_trace(args.trace.as_deref().unwrap_or(""))?,
        trace: args.trace_out.as_ref().map(|_| TraceConfig::default()),
        ..RunPlan::default()
    };
    println!("replaying {trial}");
    let verdict = check_trial_plan(&trial, &plan, true);
    if let Some(path) = &args.trace_out {
        // Harvest the trace from a dedicated observed run so a *failing*
        // replay still leaves a trace file behind (the whole point of
        // replaying a shrunk repro).
        let (_, obs) = run_trial_observed(&trial, &plan);
        write_trace_out(path, &obs)?;
    }
    match verdict {
        Ok(_) => {
            println!("PASS: every invariant held (determinism re-checked)");
            Ok(ExitCode::SUCCESS)
        }
        Err(detail) => {
            println!("FAIL: {detail}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_explore(args: &Args) -> ExitCode {
    let defaults = ExploreConfig::default();
    let cfg = ExploreConfig {
        combo: args.combo.unwrap_or(defaults.combo),
        workload: args.workload.unwrap_or(defaults.workload),
        seed: args.seed,
        threads: args.threads.min(3),
        ops: args.ops.unwrap_or(2),
        bound: args.bound,
        max_runs: args.max_runs,
        ..defaults
    };
    println!(
        "exploring {} on {} (threads={}, ops={}, bound={}, budget={} runs)",
        cfg.workload.slug(),
        cfg.combo,
        cfg.threads,
        cfg.ops,
        cfg.bound,
        cfg.max_runs
    );
    let report = explore(&cfg);
    println!(
        "  {} runs, {} pruned as duplicate schedules{}",
        report.runs,
        report.pruned,
        if report.truncated {
            " (budget exhausted before the frontier drained)"
        } else {
            ""
        }
    );
    println!("  coverage: {}", report.coverage.summary());
    match report.failure {
        None => {
            println!("OK: every enumerated interleaving matched the serial oracle");
            ExitCode::SUCCESS
        }
        Some(f) => {
            println!("\nFAIL  trace [{}]", hastm_check::trace_slug(&f.trace));
            println!("      {}", f.detail);
            println!(
                "      shrunk to: [{}] ({})",
                hastm_check::trace_slug(&f.shrunk),
                f.shrunk_detail
            );
            println!("      replay: {}", f.replay);
            println!("      timeline of the shrunk repro:");
            print!("{}", f.timeline);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    parse_args()
        .and_then(|args| dispatch(&args))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.list_combos {
        for combo in Combo::all() {
            println!("{combo}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &args.validate_trace {
        return run_validate_trace(path);
    }
    if args.replay {
        return replay(args);
    }
    if args.explore {
        return Ok(run_explore(args));
    }
    let mut clean = true;
    if args.backend != Backend::Native {
        clean &= run_sim_suite(args);
    }
    if args.backend != Backend::Sim {
        clean &= run_native_backend(args);
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The per-trial callback both suites report through: failing trials as
/// they happen, and a progress line every tenth finished seed.
fn reporter<'a, T: std::fmt::Display + 'a>(
    args: &'a Args,
    label: &'a str,
    per_seed: u64,
    seed_of: fn(&T) -> u64,
) -> impl FnMut(&T, bool) + 'a {
    let mut done = 0u64;
    move |trial, ok| {
        if !ok {
            println!("FAIL  {trial}");
        }
        done += 1;
        if !args.quiet && done.is_multiple_of(per_seed) {
            let seed_no = seed_of(trial) - args.start_seed + 1;
            if seed_no.is_multiple_of(10) || seed_no == args.seeds {
                println!("  {label}seed {seed_no}/{}", args.seeds);
            }
        }
    }
}

fn run_sim_suite(args: &Args) -> bool {
    let mut cfg = CheckConfig {
        seeds: args.seeds,
        start_seed: args.start_seed,
        threads: args.threads,
        ops: args.ops.unwrap_or(32),
        sched: args.sched,
        coverage: args.coverage,
        ..CheckConfig::default()
    };
    if let Some(w) = args.workload {
        cfg.workloads = vec![w];
    }
    if let Some(c) = args.combo {
        cfg.combos = vec![c];
    }
    let combos = cfg.combos.len();
    let workloads = cfg.workloads.len();
    if !args.quiet {
        println!(
            "sweeping {combos} combinations x {workloads} workloads x {} seeds \
             ({} trials; sched={}, threads={}, ops={})",
            cfg.seeds,
            combos as u64 * workloads as u64 * cfg.seeds,
            cfg.sched,
            cfg.threads,
            cfg.ops,
        );
    }

    let per_seed = (combos * workloads) as u64;
    let report = run_suite(&cfg, reporter(args, "", per_seed, |t: &Trial| t.seed));

    if args.coverage {
        println!("coverage: {}", report.coverage.summary());
    }
    if report.failures.is_empty() {
        println!(
            "OK: {} trials, 0 violations (determinism re-checked on seed {})",
            report.trials, cfg.start_seed
        );
        true
    } else {
        println!("\n{} violation(s):", report.failures.len());
        for f in &report.failures {
            println!("\nFAIL  {}", f.trial);
            println!("      {}", f.detail);
            println!("      shrunk to: {}", f.shrunk);
            println!("      ({})", f.shrunk_detail);
            println!("      replay: {}", f.replay);
        }
        false
    }
}

fn run_native_backend(args: &Args) -> bool {
    let mut cfg = NativeCheckConfig {
        seeds: args.seeds,
        start_seed: args.start_seed,
        ops: args.ops.unwrap_or(16),
        ..NativeCheckConfig::default()
    };
    if let Some(w) = args.workload {
        cfg.workloads = vec![w];
    }
    let per_seed = (cfg.thread_counts.len()
        * cfg.filter_modes.len()
        * cfg.versionings.len()
        * cfg.phased_modes.len()
        * cfg.workloads.len()) as u64;
    if !args.quiet {
        println!(
            "native backend: {} workloads x threads {:?} x filter {:?} x {} versionings \
             x phased on/off x {} seeds ({} trials; ops={}, host cpus={})",
            cfg.workloads.len(),
            cfg.thread_counts,
            cfg.filter_modes,
            cfg.versionings.len(),
            cfg.seeds,
            per_seed * cfg.seeds,
            cfg.ops,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
    }
    let on_trial = reporter(args, "native ", per_seed, |t: &NativeTrial| t.seed);
    let report = run_native_suite(&cfg, on_trial);
    if report.failures.is_empty() {
        let counted: Vec<String> = report
            .stats
            .entries()
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|(key, n)| format!("{key} {n}"))
            .collect();
        println!(
            "OK: {} native trials, 0 divergences from the simulated reference ({})",
            report.trials,
            counted.join(", "),
        );
        true
    } else {
        println!("\n{} native violation(s):", report.failures.len());
        for f in &report.failures {
            println!("\nFAIL  {}", f.trial);
            println!("      {}", f.detail);
        }
        false
    }
}
