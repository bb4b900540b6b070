//! `hastm-check --ci`: every sweep CI runs, each once (a trial is a pure function of
//! combo, workload, seed, threads, ops and sched), and the starts of the lines its output
//! must contain. Native rows pin the count and verdict, not the timing-dependent counters.

/// Name, arguments, expected line starts. The `trace-*` rows leave their files in the
/// working directory.
const ROWS: &[(&str, &str, &[&str])] = &[
    ("suite", "--seeds 50 --quiet", &["OK: 14000 trials, 0 violations (determinism re-checked on seed 0)"]),
    ("pct", "--seeds 5 --sched pct:3 --coverage --quiet", &[
        "coverage: 1400 runs, 1295 distinct schedules, 18 conflict-pair orderings, 3 abort causes [conflict, hw-conflict, mark-dirty]",
        "OK: 1400 trials, 0 violations (determinism re-checked on seed 0)",
    ]),
    // The default fuzzed schedule injects cache pressure after ops: the derived schedule's
    // ordering of an op's own events against that fallout.
    ("coverage-fuzzed", "--seeds 3 --coverage --quiet", &[
        "coverage: 840 runs, 721 distinct schedules, 18 conflict-pair orderings, 5 abort causes [conflict, hw-capacity, hw-conflict, hw-fallback, mark-dirty]",
        "OK: 840 trials, 0 violations (determinism re-checked on seed 0)",
    ]),
    ("explore-stm", "--explore --combo stm:obj:full --threads 2 --ops 2 --bound 2", &[
        "  818 runs, 486 pruned as duplicate schedules",
        "  coverage: 818 runs, 332 distinct schedules, 6 conflict-pair orderings, 1 abort causes [conflict]",
    ]),
    ("explore-hytm", "--explore --combo hytm:obj:full --threads 2 --ops 2 --bound 2", &[
        "  359 runs, 179 pruned as duplicate schedules",
        "  coverage: 359 runs, 180 distinct schedules, 4 conflict-pair orderings, 1 abort causes [hw-conflict]",
    ]),
    ("native", "--backend native --seeds 64 --quiet", &["OK: 2560 native trials, 0 divergences from the simulated reference"]),
    ("oltp", "--workload oltp --backend both --seeds 16 --quiet", &[
        "OK: 896 trials, 0 violations (determinism re-checked on seed 0)",
        "OK: 128 native trials, 0 divergences from the simulated reference",
    ]),
    ("trace-stm", "--replay --workload counter --combo hastm:obj:full --seed 0 --threads 2 --ops 4 --trace 4@1,9@0 --trace-out trace-stm.json --metrics-out metrics-stm.json", &[
        "  trace: 632 records -> trace-stm.json (valid Chrome trace JSON)",
        "  reconciled: per-phase trace sums equal the TimeBreakdown (755 cycles)",
        "  reconciled: MarkDiscard events equal marked_lines_lost (2 total)",
        "  metrics: 86 counters -> metrics-stm.json",
    ]),
    ("trace-hytm", "--replay --workload map --combo hytm:obj:full --seed 1 --threads 2 --ops 8 --trace-out trace-hytm.json", &[
        "  trace: 1809 records -> trace-hytm.json (valid Chrome trace JSON)",
    ]),
    // Seeds 0-49 of this combo are the suite row's.
    ("snapshot-v3", "--combo stm:line:full:v3 --start-seed 50 --seeds 14 --quiet", &["OK: 70 trials, 0 violations (determinism re-checked on seed 50)"]),
];

/// Runs every row in order as a child process of this binary. A row fails
/// on a nonzero exit or a missing line: its output and replay command are
/// printed, and the exit code is 1.
pub fn run() -> Result<std::process::ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut clean = true;
    for &(name, args, expect) in ROWS {
        let start = std::time::Instant::now();
        let out = std::process::Command::new(&exe)
            .args(args.split_whitespace())
            .output();
        let out = out.map_err(|e| format!("running {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        let missing = expect
            .iter()
            .filter(|e| !text.lines().any(|line| line.starts_with(*e)));
        let missing: Vec<_> = missing.collect();
        let ok = out.status.success() && missing.is_empty();
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{name:<15} {secs:>6.1} s  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            clean = false;
            print!("{text}");
            for line in missing {
                println!("  expected a line starting with: {line}");
            }
            println!("  replay: cargo run --release -p hastm-check -- {args}");
        }
    }
    Ok(std::process::ExitCode::from(u8::from(!clean)))
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_row_is_a_command_line_the_usage_accepts() {
        for &(name, args, _) in super::ROWS {
            let args = crate::parse_args(args.split_whitespace().map(String::from));
            let form = args.unwrap_or_else(|e| panic!("{name}: {e}")).form;
            assert_ne!(form, "--ci", "{name}");
        }
    }
}
