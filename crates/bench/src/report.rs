//! The structured result every experiment returns, and the one shape of
//! a multi-experiment document: [`sweep_json`] builds it, and
//! [`mask_timing`] cuts it down to the fields that are byte-deterministic
//! per (experiment, seed).  `BENCH_baseline.json` is such a document;
//! the tests and `bench-diff` compare against it through these two
//! functions and report the [`first_difference`].

use crate::experiments::ExperimentId;
use crate::json::Json;

/// The outcome of one experiment run: a title, the rows of its table and a
/// summary of the headline quantities.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Which experiment produced the report.
    pub id: ExperimentId,
    /// One-line description of what the experiment checks.
    pub title: &'static str,
    /// The base seed every internal seed was offset by.
    pub base_seed: u64,
    /// One JSON object per table row.
    pub rows: Vec<Json>,
    /// Headline quantities (agreement counts, gap totals, ...).
    pub summary: Vec<(String, Json)>,
}

impl ExperimentReport {
    /// Serializes the full report as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("experiment", Json::from(self.id.as_str())),
            ("title", Json::from(self.title)),
            ("base_seed", Json::from(self.base_seed)),
            ("rows", Json::Array(self.rows.clone())),
            ("summary", Json::Object(self.summary.clone())),
        ])
    }

    /// Renders the report as a human-readable text table.
    pub fn render_text(&self) -> String {
        let mut out = format!("[{}] {}\n", self.id.as_str().to_uppercase(), self.title);
        for row in &self.rows {
            out.push_str("  ");
            out.push_str(&row.to_compact_string());
            out.push('\n');
        }
        if !self.summary.is_empty() {
            out.push_str("  summary: ");
            out.push_str(&Json::Object(self.summary.clone()).to_compact_string());
            out.push('\n');
        }
        out
    }
}

/// The `--experiment all` document: the base seed and every report, in
/// order.  `run-experiments` writes exactly this for more than one
/// experiment, and `BENCH_baseline.json` is its seed-42 rendering.
pub fn sweep_json(base_seed: u64, reports: &[ExperimentReport]) -> Json {
    Json::object([
        ("base_seed", Json::from(base_seed)),
        (
            "experiments",
            Json::Array(reports.iter().map(ExperimentReport::to_json).collect()),
        ),
    ])
}

/// Drops every measured wall-clock field — any object key ending in
/// `_per_sec` or `elapsed_ms` (`functions_per_sec`, `p99_elapsed_ms`, ...),
/// at any depth.  What is left is byte-deterministic per (experiment,
/// seed) and identical for every `--jobs` value, `stats` counters included.
pub fn mask_timing(json: &Json) -> Json {
    match json {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .filter(|(key, _)| !key.ends_with("_per_sec") && !key.ends_with("elapsed_ms"))
                .map(|(key, value)| (key.clone(), mask_timing(value)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(mask_timing).collect()),
        other => other.clone(),
    }
}

/// The first line on which two renderings differ, as its 1-based number
/// and the two lines (`<end>` past the last line of the shorter one);
/// `None` when they are equal.
pub fn first_difference<'a>(
    current: &'a str,
    baseline: &'a str,
) -> Option<(usize, &'a str, &'a str)> {
    let current: Vec<&str> = current.lines().collect();
    let baseline: Vec<&str> = baseline.lines().collect();
    let line = |lines: &[&'a str], i: usize| lines.get(i).copied().unwrap_or("<end>");
    (0..current.len().max(baseline.len()))
        .find(|&i| current.get(i) != baseline.get(i))
        .map(|i| (i + 1, line(&current, i), line(&baseline, i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_timing_drops_only_wall_clock_keys() {
        let doc = Json::object([
            ("functions_per_sec", Json::from(9u64)),
            ("budget_ms", Json::from(10_000u64)),
            (
                "rows",
                Json::array([Json::object([
                    ("p99_elapsed_ms", Json::from(3u64)),
                    ("spilled", Json::from(2u64)),
                ])]),
            ),
        ]);
        let expected = Json::object([
            ("budget_ms", Json::from(10_000u64)),
            (
                "rows",
                Json::array([Json::object([("spilled", Json::from(2u64))])]),
            ),
        ]);
        assert_eq!(mask_timing(&doc), expected);
    }

    #[test]
    fn first_difference_reports_the_line_and_a_missing_tail() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nb\n", "a\nc\n"), Some((2, "b", "c")));
        assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, "<end>", "b")));
    }
}
