//! Command-line entry point for the differential-testing harness.
//!
//! ```text
//! # Sweep the full 56-combination matrix across 100 seeds:
//! cargo run -p hastm-check --release -- --seeds 100
//!
//! # PCT sweep: 200 depth-3 schedules over every workload:
//! cargo run -p hastm-check --release -- --seeds 200 --sched pct:3 --coverage
//!
//! # Bounded-exhaustive enumeration of a tiny counter workload:
//! cargo run -p hastm-check --release -- --explore --combo stm:obj:full \
//!     --threads 2 --ops 2 --bound 2
//!
//! # Reproduce one (possibly shrunk) failing trial, with its trace and metrics:
//! cargo run -p hastm-check --release -- --replay \
//!     --workload counter --combo hastm:obj:full:watermark \
//!     --sched pct:3 --seed 17 --threads 3 --ops 8 \
//!     --trace-out trace.json --metrics-out metrics.json
//!
//! # Every sweep CI runs, each checked against its expected result:
//! cargo run -p hastm-check --release -- --ci
//! ```

mod ci;
use std::process::ExitCode;

use hastm_check::explore::{explore, ExploreConfig};
use hastm_check::native::{run_native_suite, NativeCheckConfig, NativeTrial, VERSIONINGS};
use hastm_check::{
    check_trial_plan, parse_trace, run_suite, CheckConfig, Combo, Observation, RunPlan, Sched,
    Trial, Workload,
};
use hastm_sim::{chrome_trace_json, reconcile_mark_discards, validate_chrome_trace, TraceConfig};
use hastm_workloads::sim_registry;

const USAGE: &str = "\
hastm-check: seeded differential-testing harness for the HASTM reproduction

USAGE:
    hastm-check [--seeds N] [--start-seed N] [--threads N] [--ops N]
                [--sched S] [--backend B] [--workload W] [--combo C]
                [--coverage] [--quiet]
    hastm-check --explore [--combo C] [--workload W] [--threads N] [--ops N]
                [--bound B] [--max-runs N] [--seed N]
    hastm-check --replay --workload W --combo C --seed N [--sched S]
                [--threads N] [--ops N] [--trace T] [--trace-out FILE]
                [--metrics-out FILE]
    hastm-check --list-combos
    hastm-check --ci

Each form takes only the options it lists.

OPTIONS:
    --seeds N        consecutive seeds to sweep            [default: 50]
    --start-seed N   first seed                            [default: 0]
    --threads N      worker threads per trial              [default: 3]
                     (at most 64, the snapshot registry's slots: past
                     them, read-only regions would run validated, not on
                     snapshots; --explore: 1 to 3, default 2; native
                     backend: sweeps 1/2/4/8 unless given)
    --ops N          operations per thread per trial       [default: 32]
                     (native backend: default 16); at most 1048576 (2^20)
                     on every backend, since each thread's operations are
                     generated before its trial runs (24 B each for the
                     map workloads)
    --sched S        schedule policy: fuzzed | pct:<depth> | det
                                                           [default: fuzzed]
    --backend B      execution backend: sim | native | both [default: sim]
                     native runs the workloads on real host threads over
                     the TL2 runtime (--threads, single- and multi-version)
                     and differential-checks final states against the
                     simulator's sequential reference
    --coverage       trace the measured runs; print interleaving coverage
    --explore        bounded-exhaustive preemption-trace enumeration
    --bound B        max preemptions per trace             [default: 2]
    --max-runs N     exploration run budget                [default: 2000]
    --quiet          only print failures and the summary
    --replay         run exactly one trial and report pass/fail
    --workload W     workload: counter | map | bst | btree | oltp
                     (suite mode sweeps all five; passing one restricts the
                     sim and native sweeps to it) [explore default: counter]
    --combo C        combination scheme:gran:isa[:policy][:v1|v2|v3], e.g.
                     hastm:obj:full:watermark or stm:line:full:v3 (line
                     only where records are read, not for seq|lock;
                     default only for the hastm barriers; policy only for
                     hastm; versioning suffix optional, default v1 =
                     single-version, v2|v3 = k-deep snapshot rings; see
                     --list-combos for the 56 swept; in suite mode
                     restricts the sim sweep to this single combination)
    --seed N         replay/explore seed                   [default: 0]
    --trace T        replay preemption trace, e.g. 12@1,30@0
    --trace-out FILE write the replayed run's event trace as Chrome
                     trace_events JSON (open in Perfetto / chrome://tracing),
                     cross-checked against the run's TimeBreakdown and
                     mark-loss counters
    --metrics-out FILE
                     write the replayed run's metrics registry as one flat
                     JSON object of dotted counter keys
    --list-combos    print every combination slug and exit
    --ci             run every sweep CI runs, each as a child process, and
                     check each one's output against its expected lines
    --help           this text
";

/// The most worker threads a trial runs: one per slot of the live-snapshot
/// registry both backends share.
const MAX_THREADS: usize = hastm::mvcc::SNAPSHOT_SLOTS;

/// The most operations a thread runs in one trial, on any backend. A
/// trial builds each thread's operation stream before it starts, so past
/// a bound a mistyped `--ops` would fail an allocation, not a parse. This
/// one is over 50 times the longest trial any test or `--ci` row runs.
const MAX_OPS: u64 = 1 << 20;

#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
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

#[derive(Debug, Default)]
struct Args {
    /// The [`USAGE`] form given: its own flag, or "the suite".
    form: &'static str,
    quiet: bool,
    coverage: bool,
    seeds: u64,
    start_seed: u64,
    threads: Option<usize>,
    ops: Option<u64>,
    workload: Option<Workload>,
    combo: Option<Combo>,
    seed: u64,
    sched: Sched,
    bound: usize,
    max_runs: u64,
    trace: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    backend: Backend,
}

/// Parses the arguments after the program name. The form is the first
/// line of [`USAGE`] whose own flag is given (else the suite's), and every
/// flag given must be one that line lists.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        bound: 2,
        max_runs: 2_000,
        ..Args::default()
    };
    let mut given = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--replay" | "--list-combos" | "--explore" | "--ci" => {}
            "--quiet" => args.quiet = true,
            "--coverage" => args.coverage = true,
            "--seeds" => args.seeds = num(&value("--seeds")?)?,
            "--start-seed" => args.start_seed = num(&value("--start-seed")?)?,
            "--threads" => args.threads = Some(num(&value("--threads")?)? as usize),
            "--ops" => args.ops = Some(num(&value("--ops")?)?),
            "--seed" => args.seed = num(&value("--seed")?)?,
            "--sched" => args.sched = Sched::parse(&value("--sched")?)?,
            "--bound" => args.bound = num(&value("--bound")?)? as usize,
            "--max-runs" => args.max_runs = num(&value("--max-runs")?)?,
            "--trace" => args.trace = Some(value("--trace")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--backend" => args.backend = Backend::parse(&value("--backend")?)?,
            "--workload" => args.workload = Some(Workload::parse(&value("--workload")?)?),
            "--combo" => args.combo = Some(Combo::parse(&value("--combo")?)?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        // A second value would silently override the first, so the run
        // would not be the one the first value names.
        if given.contains(&arg) {
            return Err(format!("{arg} given twice"));
        }
        given.push(arg);
    }
    let (_, synopsis) = USAGE.split_once("USAGE:").expect("USAGE has a synopsis");
    let (synopsis, _) = synopsis.split_once("OPTIONS:").expect("and options");
    let words = |line: &'static str| line.split(|c: char| "[] \n".contains(c));
    let mut lines = synopsis.split("hastm-check ").skip(1);
    let suite = lines.next().expect("the suite's line comes first");
    let (form, line) = lines
        .map(|line| (words(line).next().unwrap_or_default(), line))
        .find(|(own, _)| given.iter().any(|g| g == own))
        .unwrap_or(("the suite", suite));
    if let Some(flag) = given.iter().find(|g| !words(line).any(|w| w == *g)) {
        return Err(format!("{flag} does not apply to {form}"));
    }
    args.form = form;
    if args.threads == Some(0) || args.ops == Some(0) {
        return Err("--threads and --ops must be at least 1".into());
    }
    if args.threads > Some(MAX_THREADS) {
        return Err(format!("--threads must be at most {MAX_THREADS}"));
    }
    if args.ops > Some(MAX_OPS) {
        return Err(format!("--ops must be at most {MAX_OPS}"));
    }
    if form == "--explore" && *args.threads.get_or_insert(ExploreConfig::default().threads) > 3 {
        return Err("--explore runs 1 to 3 threads".into());
    }
    // An exploration that runs nothing would still print `OK`.
    if args.max_runs == 0 {
        return Err("--max-runs must be at least 1".into());
    }
    // A sweep that runs no seed would still print `OK`.
    if args.seeds == 0 || args.start_seed.checked_add(args.seeds).is_none() {
        return Err("--seeds must be at least 1 and --start-seed plus it below 2^64".into());
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

/// Writes the observed run's event trace as Chrome trace JSON and
/// cross-checks it: the JSON must validate, the per-phase cycle sums must
/// equal the run's summed `TimeBreakdown` (when the scheme exposes one),
/// and the per-core `MarkDiscard` event counts must
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

    let sums = log.phase_sums();
    let bd = &obs.stats.txn.breakdown;
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
    let cores = &obs.report.cores;
    let lost: Vec<u64> = cores.iter().map(|c| c.marked_lines_lost).collect();
    reconcile_mark_discards(log, &lost)?;
    println!(
        "  reconciled: MarkDiscard events equal marked_lines_lost ({} total)",
        lost.iter().sum::<u64>()
    );
    Ok(())
}

/// Writes the observed run's metrics registry as flat JSON.
fn write_metrics_out(path: &str, obs: &Observation) -> Result<(), String> {
    let snapshot = sim_registry(&obs.stats.txn, &obs.stats.hytm, &obs.report);
    std::fs::write(path, snapshot.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("  metrics: {} counters -> {path}", snapshot.entries().len());
    Ok(())
}

/// The one trial `--replay` runs and its plan, checked before anything
/// runs: every directive of `--trace` must name a core the trial has.
fn replay_trial(args: &Args) -> Result<(Trial, RunPlan), String> {
    let trial = Trial {
        combo: args.combo.ok_or("--replay needs --combo")?,
        workload: args.workload.ok_or("--replay needs --workload")?,
        seed: args.seed,
        threads: args.threads.unwrap_or(3),
        ops: args.ops.unwrap_or(32),
        sched: args.sched,
    };
    let preemptions = parse_trace(args.trace.as_deref().unwrap_or(""))?;
    let threads = trial.effective_threads();
    if let Some(p) = preemptions.iter().find(|p| p.core >= threads) {
        return Err(format!(
            "trace directive `{}@{}` names core {}, but {} runs {threads} thread(s)",
            p.at_op, p.core, p.core, trial.combo
        ));
    }
    let plan = RunPlan {
        preemptions,
        trace: args.trace_out.as_ref().map(|_| TraceConfig),
        ..RunPlan::default()
    };
    Ok((trial, plan))
}

fn replay(args: &Args) -> Result<ExitCode, String> {
    let (trial, plan) = replay_trial(args)?;
    println!("replaying {trial}");
    // The first run's observation comes back failing or not, so a failing
    // replay still leaves its trace and metrics files behind (the whole
    // point of replaying a shrunk repro).
    let (verdict, obs) = check_trial_plan(&trial, &plan, true);
    if let Some(path) = &args.trace_out {
        write_trace_out(path, &obs)?;
    }
    if let Some(path) = &args.metrics_out {
        write_metrics_out(path, &obs)?;
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
        threads: args.threads.unwrap_or(defaults.threads),
        ops: args.ops.unwrap_or(2),
        bound: args.bound,
        max_runs: args.max_runs,
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
    parse_args(std::env::args().skip(1))
        .and_then(|args| dispatch(&args))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.form == "--list-combos" {
        for combo in Combo::all() {
            println!("{combo}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.form == "--replay" {
        return replay(args);
    }
    if args.form == "--explore" {
        return Ok(run_explore(args));
    }
    if args.form == "--ci" {
        return ci::run();
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
        threads: args.threads.unwrap_or(3),
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

/// The native sweep the suite flags describe: `--threads N` sweeps `[N]`
/// alone, and unset keeps [`NativeCheckConfig`]'s host thread counts.
fn native_config(args: &Args) -> NativeCheckConfig {
    let mut cfg = NativeCheckConfig {
        seeds: args.seeds,
        start_seed: args.start_seed,
        ops: args.ops.unwrap_or(16),
        ..NativeCheckConfig::default()
    };
    if let Some(threads) = args.threads {
        cfg.thread_counts = vec![threads];
    }
    if let Some(w) = args.workload {
        cfg.workloads = vec![w];
    }
    cfg
}

fn run_native_backend(args: &Args) -> bool {
    let cfg = native_config(args);
    let per_seed = (cfg.thread_counts.len() * VERSIONINGS.len() * cfg.workloads.len()) as u64;
    if !args.quiet {
        println!(
            "native backend: {} workloads x threads {:?} x {} versionings \
             x {} seeds ({} trials; ops={}, host cpus={})",
            cfg.workloads.len(),
            cfg.thread_counts,
            VERSIONINGS.len(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn pct_depth_is_checked_as_sched_parse_checks_it() {
        // Neither form that takes `--sched` may wrap 2^32 to 0 or saturate
        // 0 to 1: a failure would then print a replay with
        // `--sched pct:0`, which `--replay` rejects.
        for form in [
            "--seeds 1",
            "--replay --workload counter --combo stm:obj:full",
        ] {
            for bad in ["0", "4294967296", "-1", "three"] {
                let err = parse(&format!("{form} --sched pct:{bad}")).unwrap_err();
                assert!(err.starts_with(&format!("pct depth `{bad}`")), "{err}");
            }
            let args = parse(&format!("{form} --sched pct:4294967295")).unwrap();
            assert_eq!(args.sched, Sched::Pct { depth: u32::MAX });
        }
    }

    #[test]
    fn each_form_rejects_the_flags_its_usage_does_not_list() {
        for (line, flag, form) in [
            // The suite sweeps from --start-seed; --seed used to be
            // dropped silently.
            ("--seed 7", "--seed", "the suite"),
            ("--explore --trace 1@0", "--trace", "--explore"),
            (
                "--replay --workload counter --bound 2",
                "--bound",
                "--replay",
            ),
            ("--replay --explore", "--replay", "--explore"),
            ("--list-combos --quiet", "--quiet", "--list-combos"),
            ("--ci --seeds 49", "--seeds", "--ci"),
            // Only a replay has one run whose registry it could write.
            (
                "--seeds 1 --metrics-out m.json",
                "--metrics-out",
                "the suite",
            ),
            (
                "--explore --metrics-out m.json",
                "--metrics-out",
                "--explore",
            ),
            (
                "--list-combos --metrics-out m.json",
                "--metrics-out",
                "--list-combos",
            ),
            ("--ci --metrics-out m.json", "--metrics-out", "--ci"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, format!("{flag} does not apply to {form}"), "{line}");
        }
    }

    #[test]
    fn the_documented_command_lines_parse() {
        for line in [
            "--seeds 50",
            "--seeds 5 --sched pct:3 --coverage --quiet",
            "--combo stm:line:full:v3 --seeds 64 --quiet",
            "--workload oltp --backend both --seeds 16 --quiet",
            "--explore --combo stm:obj:full --threads 2 --ops 2 --bound 2",
            "--replay --workload counter --combo hastm:obj:full --seed 0 --threads 2 \
             --ops 4 --trace 4@1,9@0 --trace-out trace.json --metrics-out metrics.json",
            "--replay --workload counter --combo hytm:obj:full --sched det --seed 0",
            "--list-combos",
            "--ci",
        ] {
            parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn a_replay_trace_naming_a_core_the_trial_lacks_is_an_error() {
        let trial = |rest: &str| {
            replay_trial(&parse(&format!("--replay --workload counter {rest}")).unwrap())
        };
        for (rest, threads) in [
            ("--combo stm:obj:full --threads 2 --ops 2 --trace 5@9", 2),
            ("--combo stm:obj:full --threads 2 --trace 0@1,3@2", 2),
            ("--combo stm:obj:full --trace 4@3", 3),
            // A `seq:` combo runs one thread whatever `--threads` says.
            ("--combo seq:obj:full --threads 4 --trace 0@1", 1),
        ] {
            let err = trial(rest).unwrap_err();
            assert!(
                err.ends_with(&format!("runs {threads} thread(s)")),
                "{rest}: {err}"
            );
        }
        let (_, plan) = trial("--combo stm:obj:full --threads 2 --trace 0@1").expect("core 1 of 2");
        assert_eq!(plan.preemptions.len(), 1);
    }

    #[test]
    fn a_sweep_that_would_run_nothing_is_an_error() {
        for line in [
            "--seeds 0",
            "--backend native --seeds 0",
            "--start-seed 18446744073709551615 --seeds 2",
            "--start-seed 18446744073709551615 --seeds 1",
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.starts_with("--seeds must be at least 1"),
                "{line}: {err}"
            );
        }
        let last = parse("--start-seed 18446744073709551614 --seeds 1").unwrap();
        assert_eq!((last.start_seed, last.seeds), (u64::MAX - 1, 1));
    }

    #[test]
    fn a_flag_given_twice_is_an_error() {
        // A pasted replay line with a stray second value must not run a
        // different trial than its first value names.
        for (line, flag) in [
            (
                "--replay --workload counter --combo stm:obj:full --combo seq:obj:full \
                 --seed 0 --threads 2 --ops 2",
                "--combo",
            ),
            (
                "--seeds 1 --seeds 2 --workload counter --combo stm:obj:full --quiet",
                "--seeds",
            ),
            ("--quiet --quiet", "--quiet"),
        ] {
            assert_eq!(parse(line).unwrap_err(), format!("{flag} given twice"));
        }
    }

    #[test]
    fn an_exploration_that_would_run_nothing_is_an_error() {
        assert_eq!(
            parse("--explore --max-runs 0").unwrap_err(),
            "--max-runs must be at least 1"
        );
        // A bound of 0 still runs the base schedule.
        assert_eq!(parse("--explore --bound 0 --max-runs 1").unwrap().bound, 0);
    }

    #[test]
    fn explore_defaults_to_its_own_thread_count_and_rejects_more_than_three() {
        let threads = |line| parse(line).unwrap().threads;
        assert_eq!(threads("--explore"), Some(ExploreConfig::default().threads));
        assert_eq!(threads("--explore --threads 3"), Some(3));
        assert_eq!(
            parse("--explore --threads 9").unwrap_err(),
            "--explore runs 1 to 3 threads"
        );
        assert_eq!(parse("--threads 9").unwrap().threads, Some(9));
    }

    #[test]
    fn the_native_sweep_takes_its_thread_count_and_ops_from_the_flags() {
        let cfg = |line| native_config(&parse(line).unwrap());
        let given = cfg("--backend native --threads 2 --ops 8 --workload map");
        assert_eq!(given.thread_counts, [2]);
        assert_eq!(given.ops, 8);
        assert_eq!(given.workloads, [Workload::Map]);
        // Unset: every host thread count, and the native default of 16 ops
        // the usage text states.
        let default = cfg("--backend native --seeds 64 --quiet");
        assert_eq!(
            default.thread_counts,
            NativeCheckConfig::default().thread_counts
        );
        assert_eq!(default.ops, 16);
        assert!(USAGE.contains("(native backend: default 16)"));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse("--seeds").unwrap_err(), "--seeds needs a value");
        assert_eq!(parse("--bogus").unwrap_err(), "unknown argument `--bogus`");
        // PCT sweeps are spelled `--seeds N --sched pct:D --coverage`.
        assert_eq!(parse("--pct 5").unwrap_err(), "unknown argument `--pct`");
        assert_eq!(
            parse("--seeds 5 --depth 3").unwrap_err(),
            "unknown argument `--depth`"
        );
    }

    #[test]
    fn more_threads_than_snapshot_slots_is_a_usage_error() {
        // A native trial spawns one host thread per worker.
        for line in [
            "--backend native --threads 65",
            "--threads 65",
            "--replay --workload counter --combo stm:obj:full --threads 65",
            "--threads 18446744073709551615",
        ] {
            assert_eq!(
                parse(line).unwrap_err(),
                "--threads must be at most 64",
                "{line}"
            );
        }
        let cfg = native_config(&parse("--backend both --threads 64").unwrap());
        assert_eq!(cfg.thread_counts, [64]);
    }

    #[test]
    fn ops_past_the_bound_is_a_usage_error_on_every_backend() {
        // Caught before a stream is built, not as a failed allocation in
        // the middle of the sweep.
        for form in [
            "--backend sim",
            "--backend native",
            "--backend both --threads 64",
            "--replay --workload map --combo stm:obj:full --seed 0",
            "--explore",
        ] {
            for ops in [MAX_OPS + 1, u64::MAX] {
                let line = format!("{form} --ops {ops}");
                let err = parse(&line).unwrap_err();
                assert_eq!(err, "--ops must be at most 1048576", "{line}");
            }
            let max = parse(&format!("{form} --ops {MAX_OPS}")).unwrap();
            assert_eq!(max.ops, Some(MAX_OPS), "{form}");
        }
        assert!(USAGE.contains("at most 1048576 (2^20)"));
    }
}
