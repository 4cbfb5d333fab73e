//! Plain-text rendering of tables and bar charts.
//!
//! The `repro` harness prints every reproduced table and figure to the
//! terminal; these helpers keep the formatting consistent and
//! deterministic.

/// Horizontal alignment of a table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellAlign {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers) — the default.
    #[default]
    Right,
}

/// A simple monospace table renderer.
///
/// # Example
///
/// ```
/// use symfail_stats::AsciiTable;
///
/// let mut t = AsciiTable::new(vec!["panic".into(), "%".into()]);
/// t.add_row(vec!["KERN-EXEC 3".into(), "56.31".into()]);
/// let s = t.render();
/// assert!(s.contains("KERN-EXEC 3"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<CellAlign>,
}

impl AsciiTable {
    /// Creates a table with the given header cells.
    pub fn new(header: Vec<String>) -> Self {
        let aligns = vec![CellAlign::default(); header.len()];
        Self {
            header,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Sets the alignment of column `i` (ignored if out of range).
    pub fn set_align(&mut self, i: usize, align: CellAlign) -> &mut Self {
        if let Some(a) = self.aligns.get_mut(i) {
            *a = align;
        }
        self
    }

    /// Appends a data row; missing cells render empty, surplus cells
    /// are truncated to the header width.
    pub fn add_row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[CellAlign]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match aligns[i] {
                    CellAlign::Left => {
                        line.push_str(cell);
                        line.extend(std::iter::repeat_n(' ', pad));
                    }
                    CellAlign::Right => {
                        line.extend(std::iter::repeat_n(' ', pad));
                        line.push_str(cell);
                    }
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths, &self.aligns));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.extend(std::iter::repeat_n('-', rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

/// Renders a horizontal bar chart of `(label, value)` pairs, scaling
/// the longest bar to `max_width` characters. Values must be
/// non-negative; negative values are clamped to zero.
///
/// # Example
///
/// ```
/// let s = symfail_stats::render_bar_chart(
///     &[("one app".to_string(), 55.0), ("two apps".to_string(), 25.0)],
///     20,
/// );
/// assert!(s.contains('#'));
/// ```
pub fn render_bar_chart(series: &[(String, f64)], max_width: usize) -> String {
    let max = series
        .iter()
        .map(|(_, v)| v.max(0.0))
        .fold(0.0_f64, f64::max);
    let label_w = series
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, value) in series {
        let v = value.max(0.0);
        let bar = if max > 0.0 {
            ((v / max) * max_width as f64).round() as usize
        } else {
            0
        };
        let pad = label_w - label.chars().count();
        out.push_str(label);
        out.extend(std::iter::repeat_n(' ', pad));
        out.push_str(" | ");
        out.extend(std::iter::repeat_n('#', bar));
        out.push_str(&format!(" {v:.2}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = AsciiTable::new(vec!["name".into(), "count".into()]);
        t.set_align(0, CellAlign::Left);
        t.add_row(vec!["a-very-long-label".into(), "1".into()]);
        t.add_row(vec!["b".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // right-aligned numeric column: "1" ends at same offset as "12345"
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn short_rows_are_padded_and_long_rows_truncated() {
        let mut t = AsciiTable::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["x".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(!s.contains('3'));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = AsciiTable::new(vec!["h".into()]);
        let s = t.render();
        assert!(s.starts_with('h'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let s = render_bar_chart(&[("big".into(), 100.0), ("half".into(), 50.0)], 10);
        let lines: Vec<&str> = s.lines().collect();
        let bars: Vec<usize> = lines
            .iter()
            .map(|l| l.chars().filter(|&c| c == '#').count())
            .collect();
        assert_eq!(bars[0], 10);
        assert_eq!(bars[1], 5);
    }

    #[test]
    fn bar_chart_handles_zero_and_negative() {
        let s = render_bar_chart(&[("z".into(), 0.0), ("n".into(), -5.0)], 10);
        assert!(!s.contains('#'));
        assert!(s.contains("0.00"));
    }

    #[test]
    fn bar_chart_empty_series() {
        assert_eq!(render_bar_chart(&[], 10), "");
    }
}
