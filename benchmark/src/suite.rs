//! Running every workload, each in a child process of its own, and
//! comparing two such sets of results.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::run::Opts;
use crate::spec::{self, END_TO_END, WORKLOADS};
use crate::stats;

/// Runs one workload in a child process and parses the result line it
/// prints last; the flag says whether the child exited with status 0.
fn child_run(
    exe: &Path,
    opts: &Opts,
    workload: &str,
    trace: bool,
) -> Result<(Value, bool), String> {
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    for (flag, on) in [
        ("--smoke", opts.smoke),
        ("--bless", opts.bless),
        ("--inject-wrong-tally", opts.inject_wrong_tally),
    ] {
        if on {
            cmd.arg(flag);
        }
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let result = text.lines().last().and_then(|l| json::parse(l).ok());
    match result {
        Some(result @ Value::Obj(_)) => Ok((result, output.status.success())),
        _ => Err("printed no result".into()),
    }
}

/// Folds repeated runs of one workload into one result: every metric's
/// median over the runs, `attempted` and `failed` summed.
fn median_of_runs(runs: &[Value]) -> Vec<(String, Value)> {
    let sum = |key: &str| {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_u64())
            .sum::<u64>()
    };
    let first = runs[0]
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[]);
    let metrics = first
        .iter()
        .map(|(name, entry)| {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
            let unit = entry.get("unit").cloned().unwrap_or(Value::Null);
            let median = stats::Summary::of(&values).median;
            let folded = vec![
                ("value".to_string(), Value::f64(median)),
                ("unit".to_string(), unit),
            ];
            (name.clone(), Value::Obj(folded))
        })
        .collect();
    let failed = sum("failed");
    vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::u64(sum("attempted"))),
        ("failed".into(), Value::u64(failed)),
        ("runs".into(), Value::u64(runs.len() as u64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]
}

/// Runs every workload, each in a child process of its own (so peak
/// memory and allocator state are per workload), untraced and — with
/// `--trace` — traced as well.
pub fn run_all(opts: &Opts, repeat: usize, out: &[PathBuf]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    // One set of results per `--out` file (at least one). With two, the
    // sets' runs alternate, so slow drift of the host lands on both alike
    // and `compare` sees what one build does to itself.
    let sets = out.len().max(1);
    let mut results = vec![Vec::new(); sets];
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            // Only the untraced run's numbers are compared within bounds,
            // so only it is worth repeating.
            let runs = if trace { 1 } else { repeat };
            let mut repeats = vec![Vec::new(); sets];
            for _ in 0..runs {
                for set in &mut repeats {
                    match child_run(&exe, opts, workload, trace) {
                        Ok((result, success)) => {
                            ok &= success;
                            set.push(result);
                        }
                        Err(e) => {
                            eprintln!("error: {workload} (trace {trace}): {e}");
                            ok = false;
                        }
                    }
                }
            }
            for (set, repeats) in results.iter_mut().zip(&repeats) {
                if !repeats.is_empty() {
                    let mut entries = vec![
                        ("workload".to_string(), Value::str(workload)),
                        ("trace".to_string(), Value::Bool(trace)),
                    ];
                    entries.extend(median_of_runs(repeats));
                    set.push(Value::Obj(entries));
                }
            }
        }
    }

    println!("\n== end-to-end summary (seed {:#x}) ==", opts.seed);
    print!("{:<12}", "workload");
    for (name, unit) in END_TO_END {
        print!(" {:>20}", format!("{name} [{unit}]"));
    }
    println!(" {:>10}", "failed");
    for r in results
        .iter()
        .flatten()
        .filter(|r| r.get("trace") == Some(&Value::Bool(false)))
    {
        print!(
            "{:<12}",
            r.get("workload").and_then(Value::as_str).unwrap_or("?")
        );
        for (name, _) in END_TO_END {
            print!(" {:>20.4}", metric_value(r, name).unwrap_or(f64::NAN));
        }
        println!(
            " {:>10}",
            r.get("failed").and_then(Value::as_u64).unwrap_or(0)
        );
    }

    for (path, results) in out.iter().zip(results) {
        let mut doc = crate::stamp(opts);
        doc.push(("results".into(), Value::Arr(results)));
        if let Err(e) = std::fs::write(path, Value::Obj(doc).pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(home: &Path) -> Result<Vec<(String, f64)>, String> {
    let path = home.parent().unwrap_or(home).join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "malformed end_to_end entry".into())
        })
        .collect()
}

/// Compares the two `--out` files of one `run --trace` of one build: every
/// end-to-end metric of every workload must agree within its bound, and
/// every count the simulator workloads derive from simulated statistics
/// must agree exactly.
pub fn compare(a_path: &str, b_path: &str, home: &Path) -> Result<bool, String> {
    let load = |path: &str| -> Result<Vec<Value>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text)?;
        let results = doc.get("results").and_then(Value::as_arr);
        Ok(results.ok_or(format!("{path}: no results"))?.to_vec())
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(home)?;
    let mut ok = true;
    println!(
        "{:<12} {:<40} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ra in &a {
        let key = |r: &Value| (r.get("workload").cloned(), r.get("trace").cloned());
        let workload = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = b.iter().find(|rb| key(rb) == key(ra)) else {
            println!("{workload:<12} missing from {b_path}");
            ok = false;
            continue;
        };
        if ra.get("trace") == Some(&Value::Bool(false)) {
            for (name, bound) in &bounds {
                let (Some(x), Some(y)) = (metric_value(ra, name), metric_value(rb, name)) else {
                    println!("{workload:<12} {name:<40} missing");
                    ok = false;
                    continue;
                };
                let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
                let verdict = if diff > *bound { "  OVER" } else { "" };
                ok &= diff <= *bound;
                println!(
                    "{workload:<12} {name:<40} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.0}%{verdict}",
                    diff * 100.0,
                    bound * 100.0
                );
            }
        } else if workload.starts_with("sim_") {
            for name in spec::EXACT_ON_SIM {
                let (x, y) = (metric_value(ra, name), metric_value(rb, name));
                let verdict = if x == y { "" } else { "  DIFFERS" };
                ok &= x == y;
                println!(
                    "{workload:<12} {name:<40} {:>16} {:>16} {:>9} {:>7}{verdict}",
                    x.unwrap_or(f64::NAN),
                    y.unwrap_or(f64::NAN),
                    "exact",
                    ""
                );
            }
        }
        for r in [ra, rb] {
            if r.get("failed").and_then(Value::as_u64) != Some(0) {
                println!("{workload:<12} has failed operations");
                ok = false;
            }
        }
    }
    Ok(ok)
}
