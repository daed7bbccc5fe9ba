//! The structured result every experiment returns.

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
