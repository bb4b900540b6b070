//! The figure pin, checked in beside this file. `cells.txt` has one line
//! per unique cell of every `FIGURES` table at `HASTM_BENCH_SCALE=ci`, in
//! sweep order; `tables.txt` is exactly the stdout of
//! `HASTM_BENCH_SCALE=ci all-figs`. Simulated results are golden values:
//! a change that moves one fails [`check`], which names the first moved
//! cell or table and prints the `cp` that blesses the new pin.
//! `tables_standard.txt`, the stdout of `HASTM_BENCH_SCALE=standard
//! all-figs`, is held by CI's release build only.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use hastm_bench::figures::{Cell, CellOutput};

/// The cells file.
pub const CELLS: &str = "cells.txt";
/// The tables file.
pub const TABLES: &str = "tables.txt";

/// The directory the pin files live in.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/pins")
}

/// The pinned text of `file`.
pub fn pinned(file: &str) -> String {
    std::fs::read_to_string(dir().join(file)).unwrap_or_default()
}

/// One cell's pin line: its label, simulated cycles, final-state digest
/// (`-` for a kernel replay, which keeps none) and a 64-bit FNV-1a of the
/// whole output's `Debug` text, which covers every counter it carries.
pub fn cell_line(cell: &Cell, output: &CellOutput) -> String {
    let digest = match output {
        CellOutput::Ds(r) => r.digest.to_string(),
        CellOutput::Txn { digest, .. } => digest.to_string(),
        CellOutput::Kernel(_) => "-".into(),
    };
    let hash = format!("{output:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!(
        "{} | cycles {} | digest {digest} | output {hash:016x}",
        cell.label(),
        output.cycles()
    )
}

/// The cells file for `cells`, one [`cell_line`] each.
pub fn cells_text(cells: &[(Cell, CellOutput)]) -> String {
    cells
        .iter()
        .map(|(cell, output)| cell_line(cell, output) + "\n")
        .collect()
}

/// Where `actual` first departs from the `pinned` text of `file`, naming
/// the cell (for a cell line) or the table the line belongs to; `None`
/// when the two are equal.
pub fn first_moved(file: &str, pinned: &str, actual: &str) -> Option<String> {
    let (was, now): (Vec<&str>, Vec<&str>) =
        (pinned.split('\n').collect(), actual.split('\n').collect());
    let i = (0..was.len().max(now.len())).find(|&i| was.get(i) != now.get(i))?;
    let lines = if i < now.len() { &now } else { &was };
    let what = match lines[i].split_once(" | ") {
        Some((label, _)) => format!("cell `{label}`"),
        None => lines[..=i]
            .iter()
            .rev()
            .find_map(|line| line.strip_prefix("== "))
            .map(|title| title.trim_end_matches(" =="))
            .map_or_else(
                || "the first table".into(),
                |title| format!("table `{title}`"),
            ),
    };
    let shown = |lines: &[&str]| {
        lines
            .get(i)
            .map_or("(no line)".into(), |l| format!("{l:?}"))
    };
    Some(format!(
        "{file}:{}: {what} moved\n  pinned: {}\n  now:    {}",
        i + 1,
        shown(&was),
        shown(&now)
    ))
}

/// Asserts that each `(file, actual text)` equals its pin. On a mismatch
/// every actual text is written to `CARGO_TARGET_TMPDIR` and the test
/// fails with the first moved line of each file that moved and the `cp`
/// that blesses them all.
pub fn check(actual: &[(&str, &str)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter_map(|&(file, text)| first_moved(file, &pinned(file), text))
        .collect();
    if moved.is_empty() {
        return;
    }
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let written: Vec<String> = actual
        .iter()
        .map(|&(file, text)| {
            let path = tmp.join(file);
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
            path.display().to_string()
        })
        .collect();
    panic!(
        "simulated results moved from the pin:\n{}\n\
         If the move is intended, bless the new pin and say so in CHANGES.md:\n  cp {} {}/",
        moved.join("\n"),
        written.join(" "),
        dir().display()
    );
}
