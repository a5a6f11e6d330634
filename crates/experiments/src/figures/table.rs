//! Plain-text table rendering for the figures' output.

use std::fmt;

/// A simple aligned text table: a header row plus data rows.
///
/// The `repro` binary prints each figure's series as one of these, so the
/// output can be diffed across runs and pasted next to the paper's plots.
///
/// # Examples
///
/// ```
/// use gossip_experiments::figures::Table;
///
/// let mut t = Table::new(vec!["fanout", "offline", "10s"]);
/// t.row(vec!["7".into(), "100.0".into(), "97.4".into()]);
/// let text = t.to_string();
/// assert!(text.contains("fanout"));
/// assert!(text.contains("97.4"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Table { header, rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["x", "value"]);
        t.row(vec!["1".into(), "10.0".into()]);
        t.row(vec!["100".into(), "7.5".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows");
        assert!(lines[0].contains('x'));
        assert!(lines[1].starts_with('-'));
        // All rows have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["one"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_panics() {
        Table::new(Vec::<String>::new());
    }
}
