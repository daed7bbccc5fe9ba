//! The per-layer metric set of the traced run and how it is derived from
//! the benchmark's spans and the library's deterministic counters.

use crate::measure::{Outcome, Tracer};
use coalesce_stats::Counters;

/// Every per-layer metric, in print order, with its unit.  A traced run
/// prints all of them for every workload; a stage the workload never
/// reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.ms", "ms"),
    ("graph.from_edges_ms", "ms"),
    ("graph.clique_tree_ms", "ms"),
    ("graph.clique_tree_calls", "count"),
    ("graph.fillin_ms", "ms"),
    ("graph.is_chordal_ms", "ms"),
    ("graph.smallest_last_ms", "ms"),
    ("graph.parse_ms", "ms"),
    ("graph.dsatur_ms", "ms"),
    ("ir.ssa_ms", "ms"),
    ("ir.liveness_ms", "ms"),
    ("ir.liveness_calls", "count"),
    ("ir.maxlive_ms", "ms"),
    ("ir.interference_ms", "ms"),
    ("ir.spill_pressure_ms", "ms"),
    ("ir.spill_everywhere_ms", "ms"),
    ("ir.spill_belady_ms", "ms"),
    ("ir.out_of_ssa_ms", "ms"),
    ("core.affinity_ms", "ms"),
    ("core.conservative_ms", "ms"),
    ("core.merge_accept_ratio", "ratio"),
    ("core.irc_ms", "ms"),
    ("core.irc_calls", "count"),
    ("core.theorem5_query_ms", "ms"),
    ("core.theorem5_queries", "count"),
    ("core.chordal_coalesce_ms", "ms"),
    ("alloc.self_ms", "ms"),
    ("alloc.biased_select_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.dimacs_p50_ms", "ms"),
    ("serve.challenge_p50_ms", "ms"),
    ("serve.cfg_p50_ms", "ms"),
    ("serve.module_slice_p50_ms", "ms"),
    ("serve.repeat_vs_first_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("layer.graph_ms", "ms"),
    ("layer.ir_ms", "ms"),
    ("layer.core_ms", "ms"),
    ("layer.alloc_ms", "ms"),
    ("layer.serve_ms", "ms"),
    ("liveness.worklist_iterations", "count"),
    ("spill.victims", "count"),
    ("spill.blocks_rebuilt", "count"),
    ("belady.evictions", "count"),
    ("mcs.bucket_ops", "count"),
    ("cliquetree.nodes", "count"),
    ("spilled_values", "count"),
    ("reloads", "count"),
    ("remaining_move_weight", "weight"),
    ("remaining_move_share", "ratio"),
    ("degraded_ratio", "ratio"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Library counters reported under their own names.
const COUNTERS: &[&str] = &[
    "liveness.worklist_iterations",
    "spill.victims",
    "spill.blocks_rebuilt",
    "belady.evictions",
    "mcs.bucket_ops",
    "cliquetree.nodes",
];

/// The measured layers (span-name prefixes) and their self-time metric.
const LAYERS: [(&str, &str); 5] = [
    ("graph", "layer.graph_ms"),
    ("ir", "layer.ir_ms"),
    ("core", "layer.core_ms"),
    ("alloc", "layer.alloc_ms"),
    ("serve", "layer.serve_ms"),
];

/// Call counts reported for a span name.
const CALLS: &[(&str, &str)] = &[
    ("ir.liveness", "ir.liveness_calls"),
    ("core.irc", "core.irc_calls"),
    ("graph.clique_tree", "graph.clique_tree_calls"),
    ("core.theorem5_query", "core.theorem5_queries"),
];

/// Overwrites (or appends) one per-layer metric.
pub fn set(out: &mut Outcome, name: &'static str, value: f64) {
    match out.metrics.iter_mut().find(|m| m.name == name) {
        Some(m) => m.value = value,
        None => {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("count", |(_, u)| u);
            out.push(name, value, unit);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Pushes the full per-layer set: span self times by stage and by layer,
/// call counts, counters, and — against the spans named `root` — the
/// workload's coverage (time in stage spans rather than in the `glue`
/// spans' own bodies) and the tracing overhead relative to `untraced_ms`,
/// the same work timed without spans.
pub fn push_per_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    counters: &Counters,
    root: &str,
    glue: &[&str],
    untraced_ms: f64,
) {
    for &(name, unit) in PER_LAYER {
        out.push(name, 0.0, unit);
    }
    let totals = tracer.totals();
    for (span, total) in &totals {
        if let Some(&(name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix("_ms") == Some(span))
        {
            set(out, name, total.self_ms);
        }
        if let Some(&(_, name)) = CALLS.iter().find(|(s, _)| s == span) {
            set(out, name, total.calls as f64);
        }
    }
    for (layer, name) in LAYERS {
        let ms: f64 = totals
            .iter()
            .filter(|(span, _)| span.split('.').next() == Some(layer))
            .fold(0.0, |sum, (_, t)| sum + t.self_ms);
        set(out, name, ms);
    }
    if let Some(alloc) = totals.get("alloc") {
        set(out, "alloc.self_ms", alloc.self_ms);
    }
    for &name in COUNTERS {
        set(out, name, counters.get(name) as f64);
    }
    let accepted = counters.get("coalesce.merges_accepted") as f64;
    let rejected = counters.get("coalesce.merges_rejected") as f64;
    set(
        out,
        "core.merge_accept_ratio",
        ratio(accepted, accepted + rejected),
    );

    let root_ms = totals.get(root).map_or(0.0, |t| t.total_ms);
    let glue_ms = glue
        .iter()
        .filter_map(|g| totals.get(g))
        .fold(0.0, |sum, t| sum + t.self_ms);
    set(out, "coverage", ratio(root_ms - glue_ms, root_ms));
    set(out, "trace_overhead", ratio(root_ms, untraced_ms) - 1.0);
}

/// Sets the per-layer code-quality metrics from the run's deterministic
/// figures.
pub fn set_deterministic(out: &mut Outcome) {
    let figure = |name: &str| out.deterministic.get(name).copied().unwrap_or(0) as f64;
    let degraded = ratio(figure("degraded_answers"), figure("ok_answers"));
    let remaining = figure("remaining_move_weight");
    let moves = remaining + figure("coalesced_weight");
    let values = [
        ("spilled_values", figure("spilled_values")),
        ("reloads", figure("reloads")),
        ("remaining_move_weight", remaining),
        ("remaining_move_share", ratio(remaining, moves)),
        ("degraded_ratio", degraded),
    ];
    for (name, value) in values {
        set(out, name, value);
    }
}
