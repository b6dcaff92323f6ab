//! Machine-readable benchmark reports.
//!
//! Every bench target writes a `BENCH_<name>.json` file at the
//! repository root next to the human-readable console output, so the
//! performance trajectory is tracked PR-over-PR: the committed
//! `BENCH_*.json` files are what the CI perf-regression
//! guard (`bench_guard`) compares fresh runs against.
//!
//! The format is deliberately flat — a single JSON object of string
//! and number fields, printed by [`tydi_obs::json`] in its indented
//! form so diffs stay readable. Metrics are rounded to 4 decimals when
//! they are recorded, which keeps ratios precise enough to compare.

use std::io;
use std::path::{Path, PathBuf};
use tydi_obs::json::{self, Json};

/// A flat metric report for one benchmark target.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Json)>,
}

impl BenchReport {
    /// Starts a report for the bench target `name` (the file becomes
    /// `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Records a numeric metric (times in milliseconds, ratios, sizes).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.add_metric(key, value);
        self
    }

    /// Records a numeric metric through a mutable reference (for
    /// benches that accumulate metrics across helper functions),
    /// rounded to 4 decimals.
    pub fn add_metric(&mut self, key: impl Into<String>, value: f64) {
        let rounded = (value * 1e4).round() / 1e4;
        self.fields.push((key.into(), rounded.into()));
    }

    /// Records a string annotation (units, configuration notes).
    pub fn text(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into().into()));
        self
    }

    /// Renders the JSON document: the `bench` name, then the fields
    /// in recording order.
    pub fn to_json(&self) -> String {
        let mut members = vec![("bench".to_string(), Json::from(&self.name))];
        members.extend(self.fields.iter().cloned());
        format!("{:#}\n", Json::Object(members))
    }

    /// Writes `BENCH_<name>.json` at the repository root, returning
    /// the path written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = repo_root().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Reads a numeric field out of a `BENCH_*.json` document. Returns
/// `None` when the document does not parse, or the key is missing or
/// not a number.
pub fn read_metric(json: &str, key: &str) -> Option<f64> {
    json::parse(json).ok()?.get(key)?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_metrics() {
        let report = BenchReport::new("demo")
            .text("units", "ms")
            .metric("cold_ms", 12.25)
            .metric("speedup", 3.5)
            .metric("n", 1024.0);
        let json = report.to_json();
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        assert_eq!(read_metric(&json, "cold_ms"), Some(12.25));
        assert_eq!(read_metric(&json, "speedup"), Some(3.5));
        assert_eq!(read_metric(&json, "n"), Some(1024.0));
        assert_eq!(read_metric(&json, "missing"), None);
        assert_eq!(read_metric(&json, "units"), None);
    }

    #[test]
    fn metrics_round_to_four_decimals() {
        let json = BenchReport::new("demo").metric("x", 2.0).to_json();
        assert!(json.contains("\"x\": 2\n"), "{json}");
        let json = BenchReport::new("demo").metric("x", 0.125).to_json();
        assert!(json.contains("\"x\": 0.125"), "{json}");
        let json = BenchReport::new("demo").metric("x", 2.0 / 3.0).to_json();
        assert_eq!(read_metric(&json, "x"), Some(0.6667), "{json}");
    }
}
