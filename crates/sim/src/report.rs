//! Report rendering: ASCII tables, CSV export and textual "figures".
//!
//! The `bench` crate's binaries use these to print each of the paper's
//! tables and figures in a form that can be eyeballed against the original
//! and diffed between runs.

use crate::series::Series;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let mut header_line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            header_line.push_str(&format!("{:width$}  ", h, width = widths[i]));
        }
        out.push_str(header_line.trim_end());
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate().take(ncols) {
                line.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    /// Render as CSV (headers then rows). Cells containing commas or quotes
    /// are quoted.
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A textual "figure": a set of named series over a shared x axis, rendered
/// either as aligned columns (one column per series) or CSV.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl Figure {
    /// Create a figure with axis labels.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The contained series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// The figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Collect the union of x values across all series, sorted.
    fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        xs
    }

    /// Render as an aligned text table: first column is x, one column per
    /// series.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!("{} ({} vs {})", self.title, self.y_label, self.x_label),
            &std::iter::once(self.x_label.as_str())
                .chain(self.series.iter().map(|s| s.label.as_str()))
                .collect::<Vec<_>>(),
        );
        for x in self.x_values() {
            let mut row = vec![format_num(x)];
            for s in &self.series {
                row.push(s.y_at(x).map(format_num).unwrap_or_default());
            }
            table.add_row(&row);
        }
        table.render()
    }

    /// Render as CSV with an x column and one column per series.
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(
            "",
            &std::iter::once(self.x_label.as_str())
                .chain(self.series.iter().map(|s| s.label.as_str()))
                .collect::<Vec<_>>(),
        );
        for x in self.x_values() {
            let mut row = vec![format_num(x)];
            for s in &self.series {
                row.push(s.y_at(x).map(format_num).unwrap_or_default());
            }
            table.add_row(&row);
        }
        table.to_csv()
    }
}

/// Format a number compactly: integers without decimals, otherwise 3
/// significant decimals.
pub fn format_num(x: f64) -> String {
    if x.fract().abs() < 1e-9 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Table 1: Power", &["Board", "Idle (W)", "Spinning (W)"]);
        t.add_row(&row(&["Cubieboard2", "1.43", "2.61"]));
        t.add_row(&row(&["Cubietruck", "1.72", "2.86"]));
        let out = t.render();
        assert!(out.contains("== Table 1: Power =="));
        assert!(out.contains("Cubieboard2"));
        assert!(out.contains("Idle (W)"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "Table 1: Power");
        // Columns align: every data line has the board name padded to width.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn table_pads_and_truncates_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.add_row(&row(&["1"]));
        t.add_row(&row(&["1", "2", "3"]));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "1,");
        assert_eq!(lines[2], "1,2");
    }

    #[test]
    fn csv_escapes_special_chars() {
        let mut t = Table::new("t", &["desc", "n"]);
        t.add_row(&row(&["hello, world", "1"]));
        t.add_row(&row(&["say \"hi\"", "2"]));
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\",1"));
        assert!(csv.contains("\"say \"\"hi\"\"\",2"));
    }

    #[test]
    fn figure_renders_series_columns() {
        let mut f = Figure::new("Figure 3", "parallel sequences", "time (s)");
        f.add_series(Series::from_points(
            "C xenstored",
            [(50.0, 300.0), (100.0, 700.0)],
        ));
        f.add_series(Series::from_points(
            "Jitsu xenstored",
            [(50.0, 50.0), (100.0, 100.0)],
        ));
        let out = f.render();
        assert!(out.contains("Figure 3"));
        assert!(out.contains("C xenstored"));
        assert!(out.contains("Jitsu xenstored"));
        assert!(out.contains("50"));
        let csv = f.to_csv();
        assert!(csv.starts_with("parallel sequences,C xenstored,Jitsu xenstored"));
        assert_eq!(f.series().len(), 2);
        assert_eq!(f.title(), "Figure 3");
    }

    #[test]
    fn figure_handles_mismatched_x() {
        let mut f = Figure::new("f", "x", "y");
        f.add_series(Series::from_points("a", [(1.0, 1.0)]));
        f.add_series(Series::from_points("b", [(2.0, 2.0)]));
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "1,1,");
        assert_eq!(lines[2], "2,,2");
    }

    #[test]
    fn format_num_behaviour() {
        assert_eq!(format_num(3.0), "3");
        assert_eq!(format_num(1.23456), "1.235");
        assert_eq!(format_num(-2.0), "-2");
    }
}
