//! Minimal fixed-width table formatting for the figure printouts.

use std::fmt::Write as _;

/// A printable table with a title, column headers and rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Appends a row: `label`, then `cells`.
    pub fn labelled_row(
        &mut self,
        label: &str,
        cells: impl IntoIterator<Item = String>,
    ) -> &mut Self {
        self.row(std::iter::once(label.to_string()).chain(cells).collect())
    }

    /// Appends a footnote line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The cell under `column` in the first row holding a cell equal to
    /// `row` (usually its label, e.g. `geomean`).
    pub fn cell(&self, row: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let cells = self.rows.iter().find(|r| r.iter().any(|c| c == row))?;
        cells.get(col).map(String::as_str)
    }

    /// The first cell of every row (its label, e.g. a model name).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.rows
            .iter()
            .filter_map(|r| r.first().map(String::as_str))
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a ratio as `12.3x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = Table::new("demo", &["model", "speedup"]);
        t.labelled_row("VGG-16", [ratio(1.5)]);
        t.row(vec!["BERT".into(), ratio(12.25)]);
        t.note("normalized to baseline");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1.50x"));
        assert!(s.contains("12.25x"));
        assert!(s.contains("note: normalized"));
        assert_eq!(t.cell("BERT", "speedup"), Some("12.25x"));
        assert_eq!(t.cell("BERT", "latency"), None);
        assert_eq!(t.cell("GPT-2", "speedup"), None);
        assert_eq!(t.labels().collect::<Vec<_>>(), ["VGG-16", "BERT"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ratio(2.0), "2.00x");
        assert_eq!(pct(0.316), "31.6%");
    }
}
