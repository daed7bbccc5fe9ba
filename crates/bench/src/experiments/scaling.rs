//! E15 — data-structure scaling: flat-graph construction, bitset liveness
//! and incremental spilling at production-ish sizes.
//!
//! The complexity results of the paper only matter at scale; this
//! experiment drives the PR-5 data-structure work end to end:
//!
//! * **interval rows** (`n ∈ {5 000, 20 000, 50 000}`) bulk-build
//!   bounded-degree random interval graphs ([`Graph::from_edges`] under
//!   [`random_interval_graph`]), construct the clique tree, and answer a
//!   batch of Theorem-5 queries through one prepared session — the same
//!   pipeline the E5 sweep runs at a tenth of the size;
//! * **CFG rows** generate structured programs of *thousands of blocks*
//!   ([`ShapeProfile`] region grammars scaled up), run the bitset liveness
//!   and the streaming interference construction, check the Theorem 1
//!   invariants, and spill to a tight `k` — the path whose per-victim full
//!   liveness recomputation used to dominate E13-style sweeps.
//!
//! Every row field is deterministic (sizes, edge counts, ω, spill counts),
//! so the report is byte-identical for any `--jobs`; the wall-clock side
//! is enforced by the budget tests in `tests/experiment_runner.rs`, and the
//! experiment's declared `budget_ms` rides in the summary, where
//! `BENCH_baseline.json` pins it like every other deterministic field.

use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_core::incremental::PreparedChordal;
use coalesce_gen::cfg::{generate, CfgParams, ShapeProfile};
use coalesce_gen::graphs::random_interval_graph;
use coalesce_graph::{Graph, VertexId};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::spill::{tight_k, SpillInput, SpillerKind};
use coalesce_ir::{ssa, Function};

/// Vertex counts of the interval-graph rows.
///
/// Unlike the E5 sweep (whose interval lengths grow with `n`, giving the
/// ~2-million-edge `n = 5000` instance), the scaling rows keep the maximum
/// interval length **fixed**, so degree is bounded and the edge count grows
/// linearly — the regime where the flat adjacency representation, not the
/// asymptotics, decides the wall clock.
pub const E15_INTERVAL_SIZES: [usize; 3] = [5_000, 20_000, 50_000];

/// Maximum interval length of the scaling instances (span is `4n`).
pub const E15_MAX_LEN: usize = 257;

/// The CFG-row profiles, swept at thousands-of-blocks scale.
pub const E15_CFG_PROFILES: [ShapeProfile; 2] =
    [ShapeProfile::IntBranchy, ShapeProfile::FpLoopNest];

/// Builds the interval graph of one scaling row (seeded by
/// `base_seed + 1500 + n`); the budget tests build their instances here,
/// so the timed code path is exactly the reported one.
pub fn e15_interval_graph(base_seed: u64, n: usize) -> Graph {
    let mut rng = coalesce_gen::rng(base_seed + 1500 + n as u64);
    random_interval_graph(n, 4 * n, E15_MAX_LEN, &mut rng).0
}

/// Generator parameters of one CFG scaling row: the profile's region mix
/// with the top-level region count scaled until the program has thousands
/// of basic blocks (the per-profile counts are tuned so every row lands
/// above 2 000 blocks without ballooning the densest profile).
pub fn e15_cfg_params(profile: ShapeProfile) -> CfgParams {
    let mut params = profile.params(8);
    params.regions = match profile {
        ShapeProfile::FpLoopNest => 180,
        _ => 400,
    };
    params
}

/// Generates the program of one CFG scaling row (seeded by
/// `base_seed + 1550 +` the profile's sweep position).
pub fn e15_cfg_program(base_seed: u64, profile: ShapeProfile) -> Function {
    let position = ShapeProfile::ALL
        .iter()
        .position(|&p| p == profile)
        .unwrap() as u64;
    generate(
        &e15_cfg_params(profile),
        &mut coalesce_gen::rng(base_seed + 1550 + position),
    )
}

/// One interval-graph scaling row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E15IntervalRow {
    /// Number of vertices.
    pub n: usize,
    /// Number of interference edges of the built graph.
    pub edges: usize,
    /// Clique number, read off the clique tree.
    pub omega: usize,
    /// Number of clique-tree nodes (maximal cliques).
    pub tree_nodes: usize,
    /// Theorem-5 queries answered through the prepared session.
    pub queries: usize,
    /// How many of the queried pairs were coalescible at `k = ω`.
    pub coalescible: usize,
}

/// Computes one interval scaling row: bulk build, clique tree, and a batch
/// of prepared-session queries at `k = ω`.
pub fn e15_interval_row(base_seed: u64, n: usize) -> E15IntervalRow {
    let graph = e15_interval_graph(base_seed, n);
    let session = PreparedChordal::prepare(&graph).expect("interval graphs are chordal");
    let omega = session.omega();
    // The first 30 non-adjacent pairs by ascending vertex order, exactly
    // like the E5 pairing, but found by scanning the sorted neighbor rows.
    let pairs: Vec<(VertexId, VertexId)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (VertexId::new(a), VertexId::new(b))))
        .filter(|&(a, b)| !graph.has_edge(a, b))
        .take(30)
        .collect();
    let coalescible = pairs
        .iter()
        .filter(|&&(a, b)| {
            session
                .query(&graph, omega, a, b)
                .expect("chordal instance within hypotheses")
                .is_coalescible()
        })
        .count();
    E15IntervalRow {
        n,
        edges: graph.num_edges(),
        omega,
        tree_nodes: session.tree().num_nodes(),
        queries: pairs.len(),
        coalescible,
    }
}

/// One CFG scaling row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E15CfgRow {
    /// Shape profile of the generated program.
    pub profile: ShapeProfile,
    /// Basic blocks of the program.
    pub blocks: usize,
    /// Variables of the program (before spilling).
    pub vars: usize,
    /// φ-functions of the program.
    pub phis: usize,
    /// Layout footprint of the program in bytes
    /// ([`Function::ir_bytes`]).
    pub ir_bytes: usize,
    /// The program is strict SSA.
    pub strict_ssa: bool,
    /// Precise `Maxlive` of the SSA form.
    pub maxlive: usize,
    /// Interference edges of the SSA interference graph.
    pub interference_edges: usize,
    /// Affinities extracted alongside the interferences.
    pub affinities: usize,
    /// The SSA interference graph is chordal with ω = `Maxlive`
    /// (Theorem 1).
    pub chordal_omega_is_maxlive: bool,
    /// The tight register count the program was spilled to.
    pub k: usize,
    /// Variables spilled by `spill_to_pressure` at `k`.
    pub spilled: usize,
    /// Reload temporaries the rewrite inserted.
    pub reloads: usize,
    /// Precise `Maxlive` after spilling (≤ `k` unless an instruction's
    /// operands alone exceed it).
    pub maxlive_after: usize,
}

/// Computes one CFG scaling row: generate, analyse, and spill to a tight
/// `k` with the incrementally patched liveness.
pub fn e15_cfg_row(base_seed: u64, profile: ShapeProfile) -> E15CfgRow {
    let f = e15_cfg_program(base_seed, profile);
    let input = SpillInput::analyze(&f);
    let maxlive = input.maxlive();
    let ig = InterferenceGraph::build_with(
        &f,
        input.liveness(),
        BuildOptions {
            kind: InterferenceKind::Intersection,
            ..Default::default()
        },
    );
    let omega = PreparedChordal::prepare(&ig.graph).map(|s| s.omega());
    let run = input.spill(SpillerKind::PressureGreedy, tight_k(maxlive));
    E15CfgRow {
        profile,
        blocks: f.num_blocks(),
        vars: f.num_vars(),
        phis: f.num_phis(),
        ir_bytes: f.ir_bytes(),
        strict_ssa: ssa::is_strict(&f),
        maxlive,
        interference_edges: ig.graph.num_edges(),
        affinities: ig.affinities.len(),
        chordal_omega_is_maxlive: omega == Some(maxlive),
        k: run.k,
        spilled: run.spilled.len(),
        reloads: run.reloads,
        maxlive_after: run.maxlive_after(),
    }
}

/// The row descriptors of the E15 sweep, in report order.
#[derive(Debug, Clone, Copy)]
enum RowSpec {
    Interval(usize),
    Cfg(ShapeProfile),
}

fn row_specs() -> Vec<RowSpec> {
    E15_INTERVAL_SIZES
        .iter()
        .map(|&n| RowSpec::Interval(n))
        .chain(E15_CFG_PROFILES.iter().map(|&p| RowSpec::Cfg(p)))
        .collect()
}

fn interval_row_json(r: &E15IntervalRow) -> Json {
    Json::object([
        ("kind", Json::from("interval")),
        ("n", Json::from(r.n)),
        ("edges", Json::from(r.edges)),
        ("omega", Json::from(r.omega)),
        ("tree_nodes", Json::from(r.tree_nodes)),
        ("queries", Json::from(r.queries)),
        ("coalescible", Json::from(r.coalescible)),
    ])
}

fn cfg_row_json(r: &E15CfgRow) -> Json {
    Json::object([
        ("kind", Json::from("cfg")),
        ("profile", Json::from(r.profile.name())),
        ("blocks", Json::from(r.blocks)),
        ("vars", Json::from(r.vars)),
        ("phis", Json::from(r.phis)),
        ("ir_bytes", Json::from(r.ir_bytes)),
        ("strict_ssa", Json::from(r.strict_ssa)),
        ("maxlive", Json::from(r.maxlive)),
        ("interference_edges", Json::from(r.interference_edges)),
        ("affinities", Json::from(r.affinities)),
        (
            "chordal_omega_is_maxlive",
            Json::from(r.chordal_omega_is_maxlive),
        ),
        ("k", Json::from(r.k)),
        ("spilled", Json::from(r.spilled)),
        ("reloads", Json::from(r.reloads)),
        ("maxlive_after", Json::from(r.maxlive_after)),
    ])
}

/// Runs E15 with row-level parallelism and packages the report; the rows
/// fan over the worker pool and come back in spec order, so the serialized
/// report is byte-identical for every `jobs` value.
pub fn e15_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let specs = row_specs();
    let computed: Vec<(Json, coalesce_stats::Counters)> = par_map(&specs, jobs, |&spec| {
        let _span = coalesce_stats::span!("e15/row");
        let (mut row, stats) = coalesce_stats::collect(|| match spec {
            RowSpec::Interval(n) => interval_row_json(&e15_interval_row(base_seed, n)),
            RowSpec::Cfg(profile) => cfg_row_json(&e15_cfg_row(base_seed, profile)),
        });
        row.push_counters(&stats);
        (row, stats)
    });
    let mut totals = coalesce_stats::Counters::default();
    for (_, stats) in &computed {
        totals.merge(stats);
    }
    let rows: Vec<Json> = computed.into_iter().map(|(row, _)| row).collect();
    let total_edges: u64 = rows
        .iter()
        .filter_map(|r| {
            r.get("edges")
                .or_else(|| r.get("interference_edges"))
                .and_then(Json::as_u64)
        })
        .sum();
    let min_cfg_blocks = rows
        .iter()
        .filter_map(|r| r.get("blocks").and_then(Json::as_u64))
        .min()
        .unwrap_or(0);
    let invariants_hold = rows.iter().all(|r| {
        ["strict_ssa", "chordal_omega_is_maxlive"]
            .iter()
            .all(|key| r.get(key).and_then(Json::as_bool) != Some(false))
    });
    ExperimentReport {
        id: ExperimentId::E15,
        title: ExperimentId::E15.title(),
        base_seed,
        rows,
        summary: vec![
            ("interval_rows".into(), Json::from(E15_INTERVAL_SIZES.len())),
            ("cfg_rows".into(), Json::from(E15_CFG_PROFILES.len())),
            ("total_edges".into(), Json::from(total_edges)),
            ("min_cfg_blocks".into(), Json::from(min_cfg_blocks)),
            ("invariants_hold".into(), Json::from(invariants_hold)),
            ("stats".into(), Json::counters(&totals)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_row_is_bounded_degree_and_chordal() {
        // A small off-sweep size keeps this unit test quick while pinning
        // the row semantics (the sweep sizes run in the integration suite).
        let row = e15_interval_row(0, 600);
        assert_eq!(row.n, 600);
        assert!(row.edges > 0);
        assert!(row.omega >= 1 && row.omega < 600);
        assert!(row.tree_nodes >= 1);
        assert_eq!(row.queries, 30);
    }

    #[test]
    fn cfg_rows_reach_thousands_of_blocks_and_hold_theorem_1() {
        for profile in E15_CFG_PROFILES {
            let f = e15_cfg_program(42, profile);
            assert!(
                f.num_blocks() >= 2000,
                "{profile}: {} blocks, wanted >= 2000",
                f.num_blocks()
            );
        }
    }

    #[test]
    fn report_rows_cover_both_kinds_in_order() {
        let specs = row_specs();
        assert_eq!(
            specs.len(),
            E15_INTERVAL_SIZES.len() + E15_CFG_PROFILES.len()
        );
        assert!(matches!(specs[0], RowSpec::Interval(5_000)));
        assert!(matches!(specs[specs.len() - 1], RowSpec::Cfg(_)));
    }
}
