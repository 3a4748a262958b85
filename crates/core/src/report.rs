//! Plain-text rendering for the experiment harness: aligned tables and
//! ASCII bar charts, so `repro` can print figure/table lookalikes to a
//! terminal or log file.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// ```
/// use hpcfail_core::report::TextTable;
/// let mut t = TextTable::new(&["system", "failures/yr"]);
/// t.row(&["7", "1159.0"]);
/// t.row(&["2", "17.0"]);
/// let s = t.render();
/// assert!(s.contains("system"));
/// assert!(s.lines().count() == 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated to the header width.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let mut row: Vec<String> = cells
            .iter()
            .take(self.headers.len())
            .map(|s| s.to_string())
            .collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Render with right-padded columns, a header underline, and `\n`
    /// line endings.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Render a horizontal ASCII bar scaled so `max_value` fills `width`
/// characters. Returns an empty bar for non-positive or NaN values.
pub fn bar(value: f64, max_value: f64, width: usize) -> String {
    if !value.is_finite() || value <= 0.0 || max_value <= 0.0 || width == 0 {
        return String::new();
    }
    let n = ((value / max_value) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

/// Format a float with sensible precision for report output: integers
/// without decimals, small values with more digits.
pub fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == x.trunc() && x.abs() < 1e9 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn fmt_pct(fraction: f64) -> String {
    if fraction.is_finite() {
        format!("{:.1}%", fraction * 100.0)
    } else {
        "n/a".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["a", "longer"]);
        t.row(&["xxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx"));
        // Columns align: "longer" and "1" start at the same offset.
        let h_off = lines[0].find("longer").unwrap();
        let r_off = lines[2].find('1').unwrap();
        assert_eq!(h_off, r_off);
    }

    #[test]
    fn short_and_long_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1"]); // padded
        t.row(&["1", "2", "3"]); // truncated
        assert_eq!(t.rows.len(), 2);
        let s = t.render();
        assert!(!s.contains('3'));
    }

    #[test]
    fn bars() {
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(-1.0, 10.0, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
        // Tiny positive values still show one tick.
        assert_eq!(bar(0.01, 10.0, 10), "#");
        // Values above max are clamped.
        assert_eq!(bar(100.0, 10.0, 10), "##########");
    }

    #[test]
    fn num_formatting() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(1159.0), "1159");
        assert_eq!(fmt_num(355.4), "355");
        assert_eq!(fmt_num(2.345), "2.35");
        assert_eq!(fmt_num(0.0784), "0.0784");
        assert_eq!(fmt_num(f64::NAN), "NaN");
        assert_eq!(fmt_pct(0.62), "62.0%");
        assert_eq!(fmt_pct(f64::NAN), "n/a");
    }
}
