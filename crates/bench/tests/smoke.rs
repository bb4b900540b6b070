//! Smoke tests: `all-figs --fig N` must run every figure to completion at
//! quick scale and print a well-formed table. These catch wiring rot (a
//! figure whose config panics, a scheme that deadlocks at some thread
//! count) without asserting anything about the numbers themselves.

use std::process::{Command, Output};

/// Runs `all-figs` with `args` at quick scale.
fn all_figs(args: &[&str]) -> Output {
    all_figs_under(args, ("HASTM_BENCH_SCALE", "quick"))
}

/// Runs `all-figs` with `args` and one environment variable set.
fn all_figs_under(args: &[&str], (name, value): (&str, &str)) -> Output {
    let exe = env!("CARGO_BIN_EXE_all-figs");
    Command::new(exe)
        .args(args)
        .env(name, value)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"))
}

/// Runs the given figures and returns stdout.
fn run_figs(figs: &[&str]) -> String {
    let args: Vec<&str> = figs.iter().flat_map(|fig| ["--fig", fig]).collect();
    let out = all_figs(&args);
    assert!(
        out.status.success(),
        "all-figs {args:?} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

/// A figure table is recognizable by its title line and at least one data
/// row containing a numeric cell.
fn assert_looks_like_table(fig: &str, stdout: &str) {
    assert!(
        stdout.contains(&format!("Figure {fig}")),
        "output lacks a 'Figure {fig}' title:\n{stdout}"
    );
    // Data rows follow the dashed header separator and carry numeric
    // cells (ratios like "1.07" or raw counts).
    let data_lines = stdout
        .lines()
        .skip_while(|l| !l.starts_with('-'))
        .skip(1)
        .filter(|l| l.chars().any(|c| c.is_ascii_digit()))
        .count();
    assert!(
        data_lines >= 1,
        "no data rows in figure {fig} output:\n{stdout}"
    );
}

macro_rules! fig_smoke {
    ($($name:ident, $fig:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_looks_like_table($fig, &run_figs(&[$fig]));
        }
    )*};
}

fig_smoke! {
    fig11_runs, "11";
    fig12_runs, "12";
    fig13_runs, "13";
    fig14_runs, "14";
    fig15_runs, "15";
    fig16_runs, "16";
    fig17_runs, "17";
    fig18_runs, "18";
    fig19_runs, "19";
    fig20_runs, "20";
    fig21_runs, "21";
    fig22_runs, "22";
}

#[test]
fn repeated_fig_flags_select_in_flag_order() {
    let stdout = run_figs(&["13", "12"]);
    let (f13, f12) = (stdout.find("Figure 13"), stdout.find("Figure 12"));
    assert!(f13.is_some() && f13 < f12, "13 then 12:\n{stdout}");
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [&["--fig", "23"][..], &["--fig"], &["--gate", "perop"]] {
        let out = all_figs(args);
        assert_eq!(out.status.code(), Some(2), "all-figs {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: all-figs"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "no table on a usage error");
    }
}

#[test]
fn a_malformed_environment_is_an_error_not_a_default() {
    for (var, accepted) in [
        (
            ("HASTM_BENCH_SCALE", "fulll"),
            "quick, ci, standard or full",
        ),
        (("HASTM_SWEEP_THREADS", "abc"), "at least 1"),
        (("HASTM_SWEEP_THREADS", "0"), "at least 1"),
    ] {
        let out = all_figs_under(&["--fig", "13"], var);
        assert_eq!(out.status.code(), Some(2), "{var:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var.1) && stderr.contains(accepted),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no table from a mistyped experiment");
    }
}
