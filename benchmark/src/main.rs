//! `hastm-benchmark`: end-to-end and per-layer performance of the
//! simulator as a host program and of the native TL2 backend.
//!
//! ```text
//! hastm-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!                     [--smoke] [--bless] [--repeat N] [--out FILE]
//! hastm-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1`). Without `--workload` it runs every workload,
//! each in a process of its own (`--repeat N` times, reporting the median
//! run; a second `--out` makes it two alternating sets for `compare`). See `README.md` beside this crate.

mod affinity;
mod json;
mod native;
mod probes;
mod run;
mod sim;
mod spans;
mod spec;
mod stats;
mod suite;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use run::{Opts, Report};
use spec::{DEFAULT_SEED, WORKLOADS};

/// Seconds one run measures when `--seconds` is absent; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  hastm-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                      [--smoke] [--bless] [--inject-wrong-tally]
                      [--repeat N] [--out FILE [--out FILE]]
  hastm-benchmark compare A.json B.json
workloads: sim_solo sim_multi native_mix native_ro native_oltp";

/// The benchmark's own directory, fixed when it was built from source.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Cli {
    opts: Opts,
    all_workloads: bool,
    /// Untraced runs per workload when running them all; the median run
    /// is reported.
    repeat: usize,
    /// Result files to write when running them all, one set of runs each.
    out: Vec<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            bless: false,
            inject_wrong_tally: false,
            home: home(),
        },
        all_workloads: true,
        repeat: 1,
        out: Vec::new(),
    };
    let mut explicit_seconds = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.opts.workload = name;
                cli.all_workloads = false;
            }
            "--seed" => {
                let text = value("a number")?;
                cli.opts.seed = parse_u64(&text).ok_or(format!("bad --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("a number")?;
                cli.opts.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad --seconds {text:?}"))?;
                explicit_seconds = true;
            }
            "--trace" => {
                // Bare `--trace` means on; the regression driver passes
                // an explicit 0 or 1.
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.opts.smoke = true,
            "--bless" => cli.opts.bless = true,
            "--inject-wrong-tally" => cli.opts.inject_wrong_tally = true,
            "--repeat" => {
                let text = value("a count")?;
                cli.repeat = text
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or(format!("bad --repeat {text:?}"))?;
            }
            "--out" => cli.out.push(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.opts.smoke && !explicit_seconds {
        cli.opts.seconds = 0.2;
    }
    Ok(cli)
}

/// First line of a command's standard output, or "unknown".
fn tool_line(program: &str, args: &[&str], ceiling: &Path) -> String {
    Command::new(program)
        .args(args)
        // Keep git from walking up out of the checkout.
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What every result record is stamped with.
fn stamp(opts: &Opts) -> Vec<(String, Value)> {
    let home = opts.home.to_string_lossy().into_owned();
    let repo = opts.home.parent().unwrap_or(&opts.home);
    let ceiling = repo.parent().unwrap_or(repo);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    vec![
        ("unix_time".into(), Value::u64(unix_time)),
        ("host_cpus".into(), Value::u64(run::host_cpus() as u64)),
        (
            "rustc".into(),
            Value::str(tool_line("rustc", &["-V"], ceiling)),
        ),
        (
            "commit".into(),
            Value::str(tool_line(
                "git",
                &["-C", &home, "rev-parse", "HEAD"],
                ceiling,
            )),
        ),
        ("seed".into(), Value::u64(opts.seed)),
        ("seconds".into(), Value::f64(opts.seconds)),
        ("smoke".into(), Value::Bool(opts.smoke)),
    ]
}

/// One run's full record: stamp, sizes and the result line's fields.
fn record(opts: &Opts, report: &Report) -> Value {
    let mut entries = stamp(opts);
    entries.push(("workload".into(), Value::str(report.workload.as_str())));
    entries.push(("trace".into(), Value::Bool(report.trace)));
    entries.push(("passes".into(), Value::u64(report.passes as u64)));
    let sizes = report
        .sizes
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::u64(v)))
        .collect();
    entries.push(("sizes".into(), Value::Obj(sizes)));
    let per_pass = report
        .per_pass
        .iter()
        .map(|(k, v)| {
            (
                k.to_string(),
                Value::Arr(v.iter().map(|&x| Value::f64(x)).collect()),
            )
        })
        .collect();
    entries.push(("per_pass".into(), Value::Obj(per_pass)));
    if let Value::Obj(result) = report.result_line() {
        entries.extend(result);
    }
    Value::Obj(entries)
}

/// Appends `line` to `out/history.jsonl`, so results form a trajectory.
fn append_history(home: &Path, line: &Value) -> std::io::Result<()> {
    let out = home.join("out");
    std::fs::create_dir_all(&out)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("history.jsonl"))?;
    writeln!(file, "{line}")
}

fn run_one(opts: &Opts) -> ExitCode {
    let report = match run::run(opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {:#x} trace {} passes {} sizes {:?}",
        report.workload,
        opts.seed,
        u8::from(report.trace),
        report.passes,
        report.sizes
    );
    print!("{}", report.table());
    for line in &report.failures {
        eprintln!("FAILED: {line}");
    }
    if let Err(e) = append_history(&opts.home, &record(opts, &report)) {
        eprintln!("error: cannot append to out/history.jsonl: {e}");
        return ExitCode::from(2);
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(cli) if cli.all_workloads => suite::run_all(&cli.opts, cli.repeat, &cli.out),
            Ok(cli) => run_one(&cli.opts),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, [a, b])) if cmd == "compare" => match suite::compare(a, b, &home()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::END_TO_END;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_style_arguments_parse() {
        let cli = parse_run(&args(&[
            "--workload",
            "native_ro",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert!(!cli.all_workloads);
        assert_eq!(cli.opts.workload, "native_ro");
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (7, 10.0, true)
        );
        let off = parse_run(&args(&["--trace", "0", "--seed", "0x5eed"])).expect("parses");
        assert!(off.all_workloads && !off.opts.trace);
        assert_eq!(off.opts.seed, DEFAULT_SEED);
        assert!(
            parse_run(&args(&["--trace"]))
                .expect("bare flag")
                .opts
                .trace
        );
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--frobnicate"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and the runner must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let path = home().parent().expect("repo root").join("BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        let pairs = |key: &str| -> Vec<(String, String)> {
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect()
        };
        let want = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), want(&END_TO_END));
        for (name, better) in names("end_to_end", "name")
            .iter()
            .zip(names("end_to_end", "better"))
        {
            let want = if name == spec::HIGHER_IS_BETTER {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(better, want, "{name}");
        }
        assert_eq!(pairs("per_layer"), want(&spec::PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        for name in spec::EXACT_ON_SIM {
            assert!(spec::PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        }
    }

    /// `--smoke`: all five workloads and the traced path, tiny sizes.
    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        let out = home()
            .join("out")
            .join(format!("smoke-test-{}", std::process::id()));
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 42,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    bless: false,
                    inject_wrong_tally: false,
                    // Results land under a directory of this test's own;
                    // the goldens are not consulted in smoke mode.
                    home: out.clone(),
                };
                let report = run::run(&opts).expect("runs");
                assert!(report.correct(), "{workload}: {:?}", report.failures);
                assert!(report.attempted >= 1);
                let expected = if trace {
                    spec::PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected);
                if !trace {
                    for m in &report.metrics {
                        assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
                    }
                } else {
                    let trace_file = out.join("out").join(format!("trace-{workload}.json"));
                    let text = std::fs::read_to_string(trace_file).expect("trace written");
                    let doc = json::parse(&text).expect("trace is JSON");
                    let events = doc
                        .get("traceEvents")
                        .and_then(Value::as_arr)
                        .expect("events");
                    assert!(events.len() > 10, "{workload}: {} spans", events.len());
                }
            }
        }
        std::fs::remove_dir_all(&out).expect("clean up");
    }
}
