//! Output support for the `reproduce` binary, which runs the experiment
//! drivers of `subsonic::experiments` and writes one CSV per table plus a
//! Markdown summary into `results/`.

use std::fs;
use std::path::Path;
use subsonic::ExperimentResult;

/// Writes an experiment's tables as CSV files and returns the Markdown
/// summary block.
pub fn emit_result(result: &ExperimentResult, out_dir: &Path) -> std::io::Result<String> {
    fs::create_dir_all(out_dir)?;
    for (i, t) in result.tables.iter().enumerate() {
        let name = if result.tables.len() == 1 {
            format!("{}.csv", result.id)
        } else {
            format!("{}_{}.csv", result.id, i)
        };
        fs::write(out_dir.join(name), t.to_csv())?;
    }
    Ok(result.to_markdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic::{Check, Table};

    #[test]
    fn emit_writes_csvs() {
        let mut r = ExperimentResult::new("demo", "demo experiment");
        let mut t = Table::new("t", &["x"]);
        t.push_row(vec!["1".into()]);
        r.tables.push(t);
        r.checks.push(Check::new("c", true, "d"));
        let dir = std::env::temp_dir().join("subsonic_emit_test");
        let md = emit_result(&r, &dir).unwrap();
        assert!(md.contains("PASS"));
        assert!(dir.join("demo.csv").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
