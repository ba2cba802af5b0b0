//! Metrics, order statistics and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The nearest-rank `p`-th percentile of ascending `sorted`: the
/// smallest element with at least `p`% of the samples at or below it.
/// `None` if empty.
pub fn percentile<T: Copy>(sorted: &[T], p: usize) -> Option<T> {
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted.get(rank - 1).copied()
}

/// The `p`-th percentile of unsorted floats (0 for no samples).
pub fn percentile_f64(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p).unwrap_or(0.0)
}

/// The median of `values`, averaging the middle pair (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-name medians of metric lists that share one name order (one list
/// per repetition of a run).
///
/// # Panics
///
/// Panics if the lists disagree on names (a benchmark bug).
pub fn median_metrics(reps: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = reps
                .iter()
                .map(|rep| {
                    assert_eq!(rep[i].name, m.name, "repetitions report different metrics");
                    rep[i].value
                })
                .collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric by name with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values have no JSON form; they read as 0 and the
        // run is marked incorrect by the caller.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Whether `name` is a valid metric or unit token.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/' | b'%'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 99), Some(10));
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 50), Some(5));
        assert_eq!(percentile(&[7, 9], 99), Some(9));
        assert_eq!(percentile::<u64>(&[], 50), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("a_b", "ms", 1.25), metric("c", "1/s", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }
}
