//! `bench-diff` — compares a `run-experiments --json` artifact (the fresh
//! `BENCH_pr.json`, or one experiment's report) with the committed
//! `BENCH_baseline.json`.
//!
//! ```text
//! bench-diff [--require-all] BENCH_pr.json BENCH_baseline.json
//! ```
//!
//! Every current experiment, matched to the baseline *by name*, must equal
//! its baseline report once [`mask_timing`] has dropped the measured
//! wall-clock fields (`*_per_sec`, `*elapsed_ms`): rows, summaries,
//! declared `budget_ms` and the embedded `stats` pass counters alike.
//! Matching by name lets a single-experiment artifact diff against the
//! full baseline; `--require-all` additionally fails the run when any
//! baseline experiment is missing from the current artifact (a sweep that
//! silently dropped an experiment would otherwise pass every per-pair
//! check).  A change that moves a deterministic field on purpose edits
//! exactly those values in `BENCH_baseline.json`.
//!
//! Three checks cover what identity cannot:
//!
//! * **throughput floor** — the masked `*_per_sec` summaries must stay at
//!   or above a quarter of the baseline value;
//! * **domain invariants** of the current artifact — no coloring may use
//!   fewer colors than `Maxlive` (the E13 `chordal_colors` vs `maxlive`
//!   columns), and every `*spill*` field except the `spiller` strategy
//!   label is a non-negative number;
//! * **timing placement** — wall clock lives only at the top level of a
//!   summary, so the mask never hides a deterministic field.
//!
//! Exit code 0 means no regression; 1 lists every difference.

use coalesce_bench::report::{first_difference, mask_timing};
use coalesce_bench::Json;
use std::process::ExitCode;

fn experiments_of(doc: &Json) -> Vec<&Json> {
    match doc.get("experiments").and_then(Json::as_array) {
        Some(items) => items.iter().collect(),
        // A single-experiment file is its own report object.
        None => vec![doc],
    }
}

fn experiment_name(e: &Json) -> &str {
    e.get("experiment")
        .and_then(Json::as_str)
        .unwrap_or("<unnamed>")
}

/// Masked identity of every current experiment with its baseline namesake.
fn compare(current: &Json, baseline: &Json, require_all: bool, problems: &mut Vec<String>) {
    let current_experiments = experiments_of(current);
    let baseline_experiments = experiments_of(baseline);

    if require_all {
        for base in &baseline_experiments {
            let name = experiment_name(base);
            if !current_experiments
                .iter()
                .any(|e| experiment_name(e) == name)
            {
                problems.push(format!(
                    "{name}: baseline experiment missing from the current artifact \
                     (--require-all)"
                ));
            }
        }
    }

    for experiment in current_experiments {
        let name = experiment_name(experiment);
        // An experiment the baseline has never seen cannot be checked —
        // that is an error, not a skip.
        let Some(base) = baseline_experiments
            .iter()
            .find(|e| experiment_name(e) == name)
        else {
            problems.push(format!("{name}: experiment not present in the baseline"));
            continue;
        };
        let (now, then) = (
            mask_timing(experiment).to_pretty_string(),
            mask_timing(base).to_pretty_string(),
        );
        if let Some((line, now, then)) = first_difference(&now, &then) {
            problems.push(format!(
                "{name}: differs from the baseline outside timing fields, first at \
                 line {line} of its report: `{}` vs baseline `{}`",
                now.trim(),
                then.trim()
            ));
        }
    }
}

/// Domain invariants of the current artifact: `chordal_colors ≥ maxlive`
/// wherever both appear in one object (a proper coloring can never beat
/// the clique bound `ω = Maxlive`), and every `*spill*` field holds a
/// non-negative number.  Values are visited recursively so nested
/// per-allocator arrays are covered too.
fn check_domain_invariants(context: &str, value: &Json, problems: &mut Vec<String>) {
    match value {
        Json::Object(pairs) => {
            let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if let (Some(colors), Some(maxlive)) = (
                field("chordal_colors").and_then(Json::as_u64),
                field("maxlive").and_then(Json::as_u64),
            ) {
                if colors < maxlive {
                    problems.push(format!(
                        "{context}: chordal_colors {colors} below maxlive {maxlive}"
                    ));
                }
            }
            for (key, v) in pairs {
                // `spiller` (E17's strategy column) is a name, not a
                // quantity.
                if key.contains("spill")
                    && key != "spiller"
                    && !matches!(v, Json::Object(_) | Json::Array(_))
                    && v.as_u64().is_none()
                {
                    problems.push(format!(
                        "{context}: spill field `{key}` is not a non-negative number: {v}"
                    ));
                }
                check_domain_invariants(context, v, problems);
            }
        }
        Json::Array(items) => {
            for item in items {
                check_domain_invariants(context, item, problems);
            }
        }
        _ => {}
    }
}

fn check_current_invariants(current: &Json, problems: &mut Vec<String>) {
    for experiment in experiments_of(current) {
        let name = experiment_name(experiment);
        if let Some(rows) = experiment.get("rows").and_then(Json::as_array) {
            for (i, row) in rows.iter().enumerate() {
                check_domain_invariants(&format!("{name} row {i}"), row, problems);
            }
        }
    }
}

/// Timing fields live ONLY at the top level of an experiment summary
/// (`budget_ms`, `elapsed_ms`, `*_elapsed_ms`): a `_ns`/`_us`/`_ms` key in
/// a row, or nested anywhere inside a summary value (such as a `stats`
/// pass-counter object), would leak nondeterministic wall clock into
/// byte-compared data.  Wall clock belongs in the summary top level or the
/// `--trace-out` sidecar, nowhere else.
fn check_timing_placement(current: &Json, problems: &mut Vec<String>) {
    fn reject_timing_keys(context: &str, value: &Json, problems: &mut Vec<String>) {
        match value {
            Json::Object(pairs) => {
                for (key, v) in pairs {
                    if key.ends_with("_ns") || key.ends_with("_us") || key.ends_with("_ms") {
                        problems.push(format!(
                            "{context}: timing field `{key}` outside the summary top level"
                        ));
                    }
                    reject_timing_keys(context, v, problems);
                }
            }
            Json::Array(items) => {
                for item in items {
                    reject_timing_keys(context, item, problems);
                }
            }
            _ => {}
        }
    }
    for experiment in experiments_of(current) {
        let name = experiment_name(experiment);
        if let Some(rows) = experiment.get("rows").and_then(Json::as_array) {
            for (i, row) in rows.iter().enumerate() {
                reject_timing_keys(&format!("{name} row {i}"), row, problems);
            }
        }
        if let Some(Json::Object(pairs)) = experiment.get("summary") {
            for (key, v) in pairs {
                // The top-level key itself is the sanctioned home for
                // timing; only its *nested* contents are checked.
                reject_timing_keys(&format!("{name} summary `{key}`"), v, problems);
            }
        }
    }
}

/// Measured throughput (E16's `functions_per_sec`) drifts run to run —
/// the identity comparison masks it — but a *collapse* is a regression:
/// every summary `*_per_sec` field present in both artifacts must stay at
/// or above a quarter of the baseline value.
fn check_throughput_floor(current: &Json, baseline: &Json, problems: &mut Vec<String>) {
    let baseline_experiments = experiments_of(baseline);
    for experiment in experiments_of(current) {
        let name = experiment_name(experiment);
        let base_summary = baseline_experiments
            .iter()
            .find(|e| experiment_name(e) == name)
            .and_then(|e| e.get("summary"));
        let (Some(Json::Object(pairs)), Some(Json::Object(base_pairs))) =
            (experiment.get("summary"), base_summary)
        else {
            continue;
        };
        for (key, base_value) in base_pairs {
            if !key.ends_with("_per_sec") {
                continue;
            }
            let current_value = pairs
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64());
            let (Some(base), Some(now)) = (base_value.as_u64(), current_value) else {
                problems.push(format!(
                    "{name}: throughput `{key}` missing or non-numeric in the current artifact"
                ));
                continue;
            };
            if now < base / 4 {
                problems.push(format!(
                    "{name}: throughput `{key}` collapsed: {now} vs baseline {base} \
                     (floor: baseline / 4)"
                ));
            }
        }
    }
}

/// Every problem of `current` against `baseline`; empty means no regression.
fn diff(current: &Json, baseline: &Json, require_all: bool) -> Vec<String> {
    let mut problems = Vec::new();
    compare(current, baseline, require_all, &mut problems);
    check_current_invariants(current, &mut problems);
    check_timing_placement(current, &mut problems);
    check_throughput_floor(current, baseline, &mut problems);
    problems
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--require-all");
    let require_all = args.len() != before;
    let [current_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: bench-diff [--require-all] <current.json> <baseline.json>");
        return ExitCode::FAILURE;
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let problems = diff(&current, &baseline, require_all);
    if problems.is_empty() {
        println!("bench-diff: {current_path} matches {baseline_path} outside timing fields");
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("bench-diff: {problem}");
        }
        eprintln!("bench-diff: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_bench::report::sweep_json;
    use coalesce_bench::{ExperimentId, ExperimentReport};

    /// A small counter-bearing report with a measured throughput field.
    fn report(id: ExperimentId, per_sec: u64, victims: u64) -> ExperimentReport {
        ExperimentReport {
            id,
            title: "test report",
            base_seed: 42,
            rows: vec![Json::object([
                ("spiller", Json::from("belady")),
                ("spilled", Json::from(3u64)),
            ])],
            summary: vec![
                ("functions_per_sec".into(), Json::from(per_sec)),
                ("elapsed_ms".into(), Json::from(per_sec % 7)),
                (
                    "stats".into(),
                    Json::object([("spill.victims", Json::from(victims))]),
                ),
            ],
        }
    }

    /// The two-experiment baseline the tests diff against.
    fn baseline() -> Json {
        sweep_json(
            42,
            &[
                report(ExperimentId::E16, 800, 9),
                report(ExperimentId::E17, 800, 5),
            ],
        )
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(diff(&baseline(), &baseline(), true), Vec::<String>::new());
    }

    #[test]
    fn a_changed_stats_counter_fails() {
        let current = sweep_json(
            42,
            &[
                report(ExperimentId::E16, 800, 9),
                report(ExperimentId::E17, 800, 6),
            ],
        );
        let problems = diff(&current, &baseline(), true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("e17:"), "{problems:?}");
        assert!(problems[0].contains("\"spill.victims\": 6"), "{problems:?}");
    }

    #[test]
    fn throughput_may_drift_down_to_the_floor_but_not_below() {
        let at = |per_sec| {
            sweep_json(
                42,
                &[
                    report(ExperimentId::E16, per_sec, 9),
                    report(ExperimentId::E17, 800, 5),
                ],
            )
        };
        for per_sec in [200, 3_500] {
            assert_eq!(diff(&at(per_sec), &baseline(), true), Vec::<String>::new());
        }
        let problems = diff(&at(199), &baseline(), true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("collapsed"), "{problems:?}");
    }

    #[test]
    fn a_single_experiment_artifact_matches_the_baseline_by_name() {
        let single = report(ExperimentId::E17, 1_000, 5).to_json();
        assert_eq!(diff(&single, &baseline(), false), Vec::<String>::new());
        let changed = report(ExperimentId::E17, 1_000, 4).to_json();
        assert_eq!(diff(&changed, &baseline(), false).len(), 1);
    }

    #[test]
    fn require_all_fails_when_a_baseline_experiment_is_missing() {
        let partial = sweep_json(42, &[report(ExperimentId::E16, 800, 9)]);
        assert_eq!(diff(&partial, &baseline(), false), Vec::<String>::new());
        let problems = diff(&partial, &baseline(), true);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("e17:"), "{problems:?}");
        assert!(problems[0].contains("--require-all"), "{problems:?}");
    }

    #[test]
    fn an_experiment_unknown_to_the_baseline_fails() {
        let other = report(ExperimentId::E18, 800, 5).to_json();
        let problems = diff(&other, &baseline(), false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("not present in the baseline"));
    }

    #[test]
    fn timing_keys_are_rejected_outside_the_summary_top_level() {
        // A row smuggling wall clock, and a stats object doing the same.
        let doc = Json::object([
            ("experiment", Json::from("e16")),
            (
                "rows",
                Json::Array(vec![Json::object([
                    ("spilled", Json::from(3u64)),
                    ("elapsed_ns", Json::from(12u64)),
                ])]),
            ),
            (
                "summary",
                Json::object([
                    ("elapsed_ms", Json::from(5u64)),
                    ("budget_ms", Json::from(10_000u64)),
                    (
                        "stats",
                        Json::object([("spill.victims_us", Json::from(9u64))]),
                    ),
                ]),
            ),
        ]);
        let mut problems = Vec::new();
        check_timing_placement(&doc, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("elapsed_ns"));
        assert!(problems[1].contains("spill.victims_us"));
    }

    #[test]
    fn summary_top_level_timing_keys_are_allowed() {
        let doc = Json::object([
            ("experiment", Json::from("e16")),
            ("rows", Json::Array(vec![])),
            (
                "summary",
                Json::object([
                    ("functions_per_sec", Json::from(100u64)),
                    ("elapsed_ms", Json::from(5u64)),
                    ("stats", Json::object([("solver.nodes", Json::from(1u64))])),
                ]),
            ),
        ]);
        let mut problems = Vec::new();
        check_timing_placement(&doc, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn domain_check_accepts_labels_and_rejects_bad_quantities() {
        let good = Json::object([
            ("spiller", Json::from("belady")),
            ("spill_weight", Json::from(7u64)),
        ]);
        let mut problems = Vec::new();
        check_domain_invariants("row", &good, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        let bad = Json::object([("spill_weight", Json::from("seven"))]);
        check_domain_invariants("row", &bad, &mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("spill_weight"));
    }
}
