//! Machine-readable benchmark reports.
//!
//! Every bench target writes a `BENCH_<name>.json` file at the
//! repository root next to the human-readable console output, so the
//! performance trajectory is tracked PR-over-PR: the committed
//! `BENCH_*.json` files are what the CI perf-regression
//! guard (`bench_guard`) compares fresh runs against.
//!
//! The format is deliberately flat — a single JSON object of string
//! and number fields — so the guard (and any future dashboard) can
//! read it without a JSON library: `"key": value` pairs, one per
//! line, numbers printed with enough precision to diff ratios.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A flat metric report for one benchmark target.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Field)>,
}

#[derive(Debug, Clone)]
enum Field {
    Number(f64),
    Text(String),
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
    /// benches that accumulate metrics across helper functions).
    pub fn add_metric(&mut self, key: impl Into<String>, value: f64) {
        self.fields.push((key.into(), Field::Number(value)));
    }

    /// Records a string annotation (units, configuration notes).
    pub fn text(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), Field::Text(value.into())));
        self
    }

    /// Renders the JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": {:?},", self.name);
        for (i, (key, field)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            match field {
                Field::Number(v) => {
                    // Up to 4 decimals, trailing zeros trimmed, so
                    // diffs stay readable and ratios keep precision.
                    let mut text = format!("{v:.4}");
                    while text.contains('.') && (text.ends_with('0') || text.ends_with('.')) {
                        text.pop();
                    }
                    let _ = writeln!(out, "  {key:?}: {text}{comma}");
                }
                Field::Text(v) => {
                    let _ = writeln!(out, "  {key:?}: {v:?}{comma}");
                }
            }
        }
        out.push_str("}\n");
        out
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

/// Reads a numeric field out of a flat `BENCH_*.json` document
/// without a JSON parser (the format is line-oriented; see the
/// module docs). Returns `None` when the key is missing or not a
/// number.
pub fn read_metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    for line in json.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix(&needle) {
            let value = rest.trim().trim_end_matches(',').trim();
            if let Ok(v) = value.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
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
    fn numbers_trim_trailing_zeros() {
        let json = BenchReport::new("demo").metric("x", 2.0).to_json();
        assert!(json.contains("\"x\": 2\n"), "{json}");
        let json = BenchReport::new("demo").metric("x", 0.125).to_json();
        assert!(json.contains("\"x\": 0.125"), "{json}");
    }
}
