//! Generic text tables, plus the standard per-cell results table.


/// A rectangular table with a title, column headers and string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Title line printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table { title: title.into(), headers, rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render with aligned ASCII columns.
    pub fn render_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a probability the way the paper's tables do (three decimals).
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", vec!["model".into(), "A".into(), "M".into()]);
        t.push_row(vec!["GPT-4".into(), "0.921".into(), "0.003".into()]);
        t.push_row(vec!["Llama-2-7B".into(), "0.201".into(), "0.789".into()]);
        t
    }

    #[test]
    fn ascii_aligns_columns() {
        let s = sample().render_ascii();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Both data rows start their second column at the same offset.
        let off1 = lines[3].find("0.921").unwrap();
        let off2 = lines[4].find("0.201").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new("x", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(0.9214), "0.921");
        assert_eq!(fmt3(0.0), "0.000");
        assert_eq!(fmt3(1.0), "1.000");
    }
}
