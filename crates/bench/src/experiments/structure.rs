//! E5, E7, E9 — the structural results: the polynomial chordal algorithm,
//! chordality of SSA interference graphs, and clique lifting.

use super::v;
use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_core::incremental::{incremental_exact_with, ChordalIncremental};
use coalesce_gen::graphs::random_interval_graph;
use coalesce_gen::programs::{random_ssa_program, ProgramParams};
use coalesce_graph::lift::lift_by_clique;
use coalesce_graph::solver::ExactSolver;
use coalesce_graph::{chordal, greedy, Graph, VertexId};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;

// ---------------------------------------------------------------------------
// E5 — Theorem 5 / Figure 5: polynomial chordal algorithm vs exact search.
// ---------------------------------------------------------------------------

/// The generation recipe of the E5 instances (seeded by `base_seed + n`).
fn e5_graph(base_seed: u64, n: usize) -> Graph {
    let mut rng = coalesce_gen::rng(base_seed + n as u64);
    random_interval_graph(n, 3 * n, n / 2 + 2, &mut rng).0
}

/// The first 30 non-adjacent vertex pairs of an E5 instance.
fn e5_pairs(graph: &Graph, n: usize) -> Vec<(VertexId, VertexId)> {
    (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (v(a), v(b))))
        .filter(|&(a, b)| !graph.has_edge(a, b))
        .take(30)
        .collect()
}

/// One E5 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E5Row {
    /// Number of vertices of the instance.
    pub n: usize,
    /// Clique number of the instance.
    pub omega: usize,
    /// Number of incremental queries run.
    pub queries: usize,
    /// Queries on which the polynomial algorithm agreed with exact search
    /// (`None` when the instance was too large to run the exact search).
    pub agreement: Option<usize>,
}

/// Computes one E5 row; the exact cross-check runs only for `n ≤ 30`.
///
/// The clique tree and `ω` are prepared once per instance
/// ([`ChordalIncremental`]), so the multi-thousand-vertex rows pay the
/// (linear) tree-construction cost once instead of once per query; `ω`
/// is read off the prepared session rather than recomputed.
pub fn e5_row(base_seed: u64, n: usize) -> E5Row {
    let graph = e5_graph(base_seed, n);
    let session = ChordalIncremental::prepare(&graph).expect("interval graphs are chordal");
    let omega = session.omega();
    let pairs = e5_pairs(&graph, n);
    let mut exact = ExactSolver::new();
    let mut agree = 0;
    for &(a, b) in &pairs {
        let fast = session
            .query(omega, a, b)
            .expect("chordal instance within hypotheses")
            .is_coalescible();
        if n <= 30 {
            let slow = incremental_exact_with(&mut exact, &graph, omega, a, b).is_coalescible();
            if fast == slow {
                agree += 1;
            }
        }
    }
    E5Row {
        n,
        omega,
        queries: pairs.len(),
        agreement: (n <= 30).then_some(agree),
    }
}

/// The instance sizes of the E5 sweep.  The small sizes are cross-checked
/// against the exact solver; the 500-to-5000-vertex sizes exercise the
/// polynomial chordal algorithm at production-ish scale (the Theorem 5
/// side is the one that must stay cheap as instances grow).  The
/// multi-thousand sizes became affordable when the clique-tree pipeline
/// went linear (bucket-queue MCS + Blair–Peyton construction); at
/// n = 5000 the instance has ~2 million interference edges.
pub const E5_SIZES: [usize; 7] = [15, 30, 60, 500, 1000, 2000, 5000];

/// Runs E5 with row-level parallelism and packages the report.
pub fn e5_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let rows: Vec<E5Row> = par_map(&E5_SIZES, jobs, |&n| e5_row(base_seed, n));
    let checked: usize = rows
        .iter()
        .filter_map(|r| r.agreement.map(|_| r.queries))
        .sum();
    let agreed: usize = rows.iter().filter_map(|r| r.agreement).sum();
    ExperimentReport {
        id: ExperimentId::E5,
        title: ExperimentId::E5.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("n", Json::from(r.n)),
                    ("omega", Json::from(r.omega)),
                    ("queries", Json::from(r.queries)),
                    ("agreement", r.agreement.map_or(Json::Null, Json::from)),
                ])
            })
            .collect(),
        summary: vec![
            ("checked_queries".into(), Json::from(checked)),
            ("agreed_queries".into(), Json::from(agreed)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E7 — Theorem 1 / Property 1: SSA interference graphs are chordal.
// ---------------------------------------------------------------------------

/// One E7 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E7Row {
    /// Seed of the generated SSA program.
    pub seed: u64,
    /// Whether the interference graph is chordal (Theorem 1).
    pub chordal: bool,
    /// Whether ω equals the program's precise Maxlive.
    pub omega_is_maxlive: bool,
    /// Whether the graph is greedy-ω-colorable (Property 1).
    pub greedy_omega_colorable: bool,
}

impl E7Row {
    /// The conjunction Theorem 1 + Property 1 assert.
    pub fn invariant_holds(&self) -> bool {
        self.chordal && self.omega_is_maxlive && self.greedy_omega_colorable
    }
}

/// Generates the E7 program for one seed and builds its intersection-based
/// interference graph.
pub fn e7_interference(seed: u64) -> (InterferenceGraph, usize) {
    let mut rng = coalesce_gen::rng(seed);
    let f = random_ssa_program(&ProgramParams::default(), &mut rng);
    let live = Liveness::compute(&f);
    let ig = InterferenceGraph::build_with(
        &f,
        &live,
        BuildOptions {
            kind: InterferenceKind::Intersection,
            ..Default::default()
        },
    );
    let maxlive = live.maxlive_precise(&f);
    (ig, maxlive)
}

/// Computes one E7 row.
pub fn e7_row(seed: u64) -> E7Row {
    let (ig, maxlive) = e7_interference(seed);
    let chordal_ok = chordal::is_chordal(&ig.graph);
    let omega = chordal::chordal_clique_number(&ig.graph);
    E7Row {
        seed,
        chordal: chordal_ok,
        omega_is_maxlive: omega == Some(maxlive),
        greedy_omega_colorable: greedy::is_greedy_k_colorable(&ig.graph, omega.unwrap_or(0)),
    }
}

/// Runs E7 with row-level parallelism and packages the report.
pub fn e7_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let seeds: Vec<u64> = (0..10u64).map(|s| base_seed + 70 + s).collect();
    let rows: Vec<E7Row> = par_map(&seeds, jobs, |&s| e7_row(s));
    let holds = rows.iter().filter(|r| r.invariant_holds()).count();
    ExperimentReport {
        id: ExperimentId::E7,
        title: ExperimentId::E7.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("seed", Json::from(r.seed)),
                    ("chordal", Json::from(r.chordal)),
                    ("omega_is_maxlive", Json::from(r.omega_is_maxlive)),
                    (
                        "greedy_omega_colorable",
                        Json::from(r.greedy_omega_colorable),
                    ),
                ])
            })
            .collect(),
        summary: vec![
            ("programs".into(), Json::from(rows.len())),
            ("theorem_1_holds".into(), Json::from(holds)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E9 — Property 2: clique lifting preserves the structural predicates.
// ---------------------------------------------------------------------------

/// One E9 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E9Row {
    /// The lift amount `p`.
    pub p: usize,
    /// Chordality of the base graph.
    pub base_chordal: bool,
    /// Chordality after lifting by a `p`-clique.
    pub lifted_chordal: bool,
    /// Greedy-ω-colorability of the base graph.
    pub base_greedy: bool,
    /// Greedy-(ω+p)-colorability of the lifted graph.
    pub lifted_greedy: bool,
}

/// Builds the E9 base graph (a random interval graph) and its ω.
pub fn e9_instance(base_seed: u64) -> (Graph, usize) {
    let mut rng = coalesce_gen::rng(base_seed + 90);
    let (g, _) = random_interval_graph(15, 25, 5, &mut rng);
    let omega = chordal::chordal_clique_number(&g).expect("interval graphs are chordal");
    (g, omega)
}

/// Computes the E9 rows for `p ∈ {1, 2, 3}`.
pub fn e9_rows(base_seed: u64) -> Vec<E9Row> {
    let (g, omega) = e9_instance(base_seed);
    (1..=3usize)
        .map(|p| {
            let lifted = lift_by_clique(&g, p);
            E9Row {
                p,
                base_chordal: chordal::is_chordal(&g),
                lifted_chordal: chordal::is_chordal(&lifted.graph),
                base_greedy: greedy::is_greedy_k_colorable(&g, omega),
                lifted_greedy: greedy::is_greedy_k_colorable(&lifted.graph, omega + p),
            }
        })
        .collect()
}

/// Runs E9 and packages the report.
pub fn e9_report(base_seed: u64) -> ExperimentReport {
    let rows = e9_rows(base_seed);
    let preserved = rows
        .iter()
        .filter(|r| r.base_chordal == r.lifted_chordal && r.base_greedy == r.lifted_greedy)
        .count();
    ExperimentReport {
        id: ExperimentId::E9,
        title: ExperimentId::E9.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("p", Json::from(r.p)),
                    ("base_chordal", Json::from(r.base_chordal)),
                    ("lifted_chordal", Json::from(r.lifted_chordal)),
                    ("base_greedy", Json::from(r.base_greedy)),
                    ("lifted_greedy", Json::from(r.lifted_greedy)),
                ])
            })
            .collect(),
        summary: vec![("lifts_preserving_predicates".into(), Json::from(preserved))],
    }
}
