//! Order statistics and small numeric helpers.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values`, interpolated linearly between
/// the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The scaling exponent `k` of `t ~ size^k` fitted through two points.
pub fn exponent(small: (f64, f64), large: (f64, f64)) -> f64 {
    let (size_a, time_a) = small;
    let (size_b, time_b) = large;
    if time_a <= 0.0 || time_b <= 0.0 || size_a <= 0.0 || size_b <= size_a {
        return 0.0;
    }
    (time_b / time_a).ln() / (size_b / size_a).ln()
}

/// Samples of one kind of operation, grouped into named classes (one
/// design, one query, one job kind on one file).
#[derive(Debug, Default)]
pub struct Classes {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Classes {
    /// Adds one sample (milliseconds) to `class`.
    pub fn add(&mut self, class: &str, ms: f64) {
        self.samples.entry(class.to_string()).or_default().push(ms);
    }

    /// Fewest samples in any class.
    pub fn min_class_count(&self) -> usize {
        self.samples.values().map(Vec::len).min().unwrap_or(0)
    }

    /// The geometric mean over classes of each class's `q`-quantile.
    /// Each class weighs the same however many samples it has, so a
    /// mix of cheap and expensive operations gives a steady figure.
    pub fn geomean_quantile(&self, q: f64) -> f64 {
        let per_class: Vec<f64> = self.samples.values().map(|v| quantile(v, q)).collect();
        geomean(&per_class)
    }

    /// Each class's median as a JSON object, for the run record.
    pub fn medians_json(&self) -> String {
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|(name, v)| format!("\"{name}\":{:.4}", median(v)))
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    /// The median of one class.
    pub fn class_median(&self, class: &str) -> Option<f64> {
        self.samples.get(class).map(|v| median(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        let ramp: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(quantile(&ramp, 0.9), 900.0);
    }

    #[test]
    fn exponent_of_a_square_law_is_two() {
        let k = exponent((10.0, 1.0), (40.0, 16.0));
        assert!((k - 2.0).abs() < 1e-9);
    }
}
