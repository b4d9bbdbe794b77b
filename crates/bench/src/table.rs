//! Tabular experiment output and run-scale selection.

/// How much work an experiment run should do.
///
/// `Quick` keeps each experiment in the seconds range (used by tests,
/// goldens and the repository benchmark); `Full` approaches the paper's methodology (368-chip
/// populations, 800-iteration campaigns, 20 workload mixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced populations and iteration counts; same code paths.
    #[default]
    Quick,
    /// Paper-scale parameters.
    Full,
}

impl Scale {
    /// Picks `q` under `Quick` and `f` under `Full`.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// A printable experiment result: a title, column headers, and string rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Experiment title (figure/table reference plus description).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each must match `columns` in length.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (assumptions, paper comparison points).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new<S: Into<String>>(title: S, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Appends a note line printed under the table.
    pub fn note<S: Into<String>>(&mut self, s: S) {
        self.notes.push(s.into());
    }

    /// Serializes the table to the golden TSV format: `# title:` /
    /// `# note:` comment lines plus tab-separated header and data rows.
    /// The format round-trips through [`Table::from_tsv`] and diffs
    /// cleanly under version control.
    ///
    /// # Panics
    /// Panics if any cell, column, title, or note contains a tab or
    /// newline (no cell produced by the experiment harnesses does).
    pub fn to_tsv(&self) -> String {
        let clean = |s: &str, what: &str| {
            assert!(
                !s.contains('\t') && !s.contains('\n'),
                "{what} may not contain tabs or newlines: {s:?}"
            );
        };
        clean(&self.title, "title");
        let mut out = String::new();
        out.push_str(&format!("# title: {}\n", self.title));
        for c in &self.columns {
            clean(c, "column");
        }
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for row in &self.rows {
            for cell in row {
                clean(cell, "cell");
            }
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        for n in &self.notes {
            clean(n, "note");
            out.push_str(&format!("# note: {n}\n"));
        }
        out
    }

    /// Parses a table from the golden TSV format written by
    /// [`Table::to_tsv`]. Unknown `#` comment lines are ignored, so
    /// goldens can carry provenance headers.
    ///
    /// # Errors
    /// Returns a description of the malformed line if the text has no
    /// header row or a data row's width disagrees with the header.
    pub fn from_tsv(text: &str) -> core::result::Result<Self, String> {
        let mut table = Table::default();
        let mut saw_header = false;
        for (lineno, line) in text.lines().enumerate() {
            if let Some(title) = line.strip_prefix("# title: ") {
                table.title = title.to_string();
            } else if let Some(note) = line.strip_prefix("# note: ") {
                table.notes.push(note.to_string());
            } else if line.starts_with('#') || line.trim().is_empty() {
                continue;
            } else if !saw_header {
                table.columns = line.split('\t').map(str::to_string).collect();
                saw_header = true;
            } else {
                let row: Vec<String> = line.split('\t').map(str::to_string).collect();
                if row.len() != table.columns.len() {
                    return Err(format!(
                        "line {}: row has {} cells, header has {} columns",
                        lineno + 1,
                        row.len(),
                        table.columns.len()
                    ));
                }
                table.rows.push(row);
            }
        }
        if !saw_header {
            return Err("no header row found".to_string());
        }
        Ok(table)
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float compactly for table cells.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert_eq!(Scale::default(), Scale::Quick);
    }

    #[test]
    fn table_builds_and_renders() {
        let mut t = Table::new("Test", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("## Test"));
        assert!(s.contains("bb"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("T", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn tsv_roundtrip_preserves_everything() {
        let mut t = Table::new("Fig. X — demo", &["vendor", "rate"]);
        t.push_row(vec!["A".into(), "1.430e-7".into()]);
        t.push_row(vec!["B".into(), "2.51x".into()]);
        t.note("paper: something");
        t.note("second note");
        let text = t.to_tsv();
        let back = Table::from_tsv(&text).unwrap();
        assert_eq!(t, back);
        // Stable under a second roundtrip.
        assert_eq!(back.to_tsv(), text);
    }

    #[test]
    fn tsv_ignores_unknown_comments_and_blank_lines() {
        let text = "# provenance: seed 9\n# title: T\n\na\tb\n1\t2\n# note: n\n";
        let t = Table::from_tsv(text).unwrap();
        assert_eq!(t.title, "T");
        assert_eq!(t.columns, vec!["a", "b"]);
        assert_eq!(t.rows, vec![vec!["1".to_string(), "2".to_string()]]);
        assert_eq!(t.notes, vec!["n"]);
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(Table::from_tsv("# title: only\n").is_err());
        assert!(Table::from_tsv("a\tb\n1\t2\t3\n").is_err());
    }

    #[test]
    #[should_panic(expected = "tabs or newlines")]
    fn tsv_rejects_tab_in_cell() {
        let mut t = Table::new("T", &["a"]);
        t.push_row(vec!["has\ttab".into()]);
        t.to_tsv();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1.5), "1.500");
        assert_eq!(fmt_f(1.43e-7), "1.430e-7");
        assert_eq!(fmt_pct(0.5), "50.00%");
    }
}
