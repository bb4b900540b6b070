//! Plain-text result tables for the figure harness.

/// A printable result table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Figure title ("Figure 16: Relative execution time for TM schemes").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (first cell is the row label).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// A table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Parses a cell back to `f64` (test helper).
    pub fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col].parse().expect("numeric cell")
    }
}

/// Formats a ratio with two decimals.
pub fn ratio(value: u64, baseline: u64) -> String {
    format!("{:.2}", value as f64 / baseline.max(1) as f64)
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Percent of `part` in `total`, rendered compactly (`-` for no total).
pub fn share(part: u64, total: u64) -> String {
    if total == 0 {
        "-".into()
    } else {
        format!("{:.0}%", part as f64 * 100.0 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Figure X", &["scheme", "cycles"]);
        t.row(vec!["STM".into(), "100".into()]);
        t.row(vec!["HASTM".into(), "55".into()]);
        t.note("lower is better");
        let s = t.render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("note: lower is better"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(ratio(150, 100), "1.50");
        assert_eq!(pct(0.825), "82.5");
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["2.50".into()]);
        assert!((t.cell_f64(0, 0) - 2.5).abs() < 1e-9);
    }
}
