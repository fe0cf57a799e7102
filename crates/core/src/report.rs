//! Tables, series and experiment results with CSV/Markdown emitters.

/// A labelled series of `(x, y)` points — one curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"(5x4)"`).
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Largest y value.
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// y value at the largest x.
    pub fn y_last(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }
}

/// A rectangular table: named columns, rows of numbers or text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (each cell already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a pre-formatted row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }

    /// Builds a table from x/y series: first column is x, one column per
    /// series.
    pub fn from_series(title: impl Into<String>, x_name: &str, series: &[Series]) -> Self {
        let mut cols = vec![x_name.to_string()];
        cols.extend(series.iter().map(|s| s.label.clone()));
        let mut t = Self {
            title: title.into(),
            columns: cols,
            rows: Vec::new(),
        };
        // union of x values, sorted
        let mut xs: Vec<f64> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for x in xs {
            let mut row = vec![format!("{x}")];
            for s in series {
                let cell = s
                    .points
                    .iter()
                    .find(|p| (p.0 - x).abs() < 1e-12)
                    .map(|p| format!("{:.4}", p.1))
                    .unwrap_or_default();
                row.push(cell);
            }
            t.rows.push(row);
        }
        t
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// A named assertion against the paper's expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is being checked.
    pub name: String,
    /// Whether the reproduction satisfies it.
    pub pass: bool,
    /// Human-readable numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// Creates a check.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// The output of one experiment driver.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"fig5"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Result tables (figures are emitted as tables of their series).
    pub tables: Vec<Table>,
    /// Shape checks against the paper.
    pub checks: Vec<Check>,
    /// Free-form notes (substitutions, caveats).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            ..Self::default()
        }
    }

    /// All checks passed?
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Renders the whole result as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for n in &self.notes {
            out.push_str(&format!("> {n}\n"));
        }
        out.push('\n');
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.checks.is_empty() {
            out.push_str("| check | verdict | detail |\n|---|---|---|\n");
            for c in &self.checks {
                out.push_str(&format!(
                    "| {} | {} | {} |\n",
                    c.name,
                    if c.pass { "PASS" } else { "FAIL" },
                    c.detail
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("(2x2)");
        s.push(1.0, 0.5);
        s.push(2.0, 0.8);
        assert_eq!(s.y_max(), 0.8);
        assert_eq!(s.y_last(), Some(0.8));
    }

    #[test]
    fn csv_rendering() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn table_from_series_aligns_x() {
        let mut s1 = Series::new("a");
        s1.push(1.0, 10.0);
        s1.push(2.0, 20.0);
        let mut s2 = Series::new("b");
        s2.push(2.0, 200.0);
        let t = Table::from_series("f", "x", &[s1, s2]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][2], ""); // b has no x=1 point
        assert_eq!(t.rows[1][1], "20.0000");
    }

    #[test]
    fn experiment_verdicts() {
        let mut r = ExperimentResult::new("fig5", "efficiency");
        r.checks.push(Check::new("ok", true, ""));
        assert!(r.all_pass());
        r.checks.push(Check::new("bad", false, ""));
        assert!(!r.all_pass());
        assert!(r.to_markdown().contains("FAIL"));
    }
}
