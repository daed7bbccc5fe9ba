//! E1, E2, E4, E6 — the four NP-completeness reductions, run both ways:
//! the source problem solved exactly vs the coalescing problem solved
//! exactly (the paper's equivalences), plus the heuristic gaps.

use super::v;
use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_core::incremental::incremental_exact_with;
use coalesce_core::optimistic::{decoalesce_exact, optimistic_coalesce};
use coalesce_core::{aggressive_exact, aggressive_heuristic};
use coalesce_gen::graphs::random_graph;
use coalesce_graph::solver::ExactSolver;
use coalesce_graph::Graph;
use coalesce_reduce::multiway_cut::{self, AggressiveReduction, MultiwayCutInstance};
use coalesce_reduce::vertex_cover::{self, VertexCoverInstance};
use coalesce_reduce::{colorability, sat};
use rand::Rng;

// ---------------------------------------------------------------------------
// E1 — Theorem 2 / Figure 1: multiway cut ↔ aggressive coalescing.
// ---------------------------------------------------------------------------

/// One E1 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E1Row {
    /// Seed of the generated multiway-cut instance.
    pub seed: u64,
    /// Minimum multiway cut of the source instance.
    pub min_cut: usize,
    /// Uncoalesced affinities of the optimal aggressive coalescing.
    pub exact_uncoalesced: usize,
    /// Uncoalesced affinities of the greedy aggressive heuristic.
    pub heuristic_uncoalesced: usize,
}

impl E1Row {
    /// Theorem 2's equivalence: the minimum cut equals the optimum.
    pub fn invariant_holds(&self) -> bool {
        self.min_cut == self.exact_uncoalesced
    }
}

/// Builds the E1 instance for one seed: a random 7-vertex graph with three
/// terminals, reduced to an aggressive-coalescing instance.
pub fn e1_instance(seed: u64) -> (MultiwayCutInstance, AggressiveReduction) {
    let mut rng = coalesce_gen::rng(seed);
    let g = random_graph(7, 0.4, &mut rng);
    let instance = MultiwayCutInstance::new(g, vec![v(0), v(1), v(2)]);
    let reduction = multiway_cut::reduce_to_aggressive(&instance);
    (instance, reduction)
}

/// Computes one E1 row.
pub fn e1_row(seed: u64) -> E1Row {
    let (instance, reduction) = e1_instance(seed);
    let exact = aggressive_exact(&reduction.instance);
    let heur = aggressive_heuristic(&reduction.instance);
    E1Row {
        seed,
        min_cut: instance.minimum_cut(),
        exact_uncoalesced: exact.stats.uncoalesced(),
        heuristic_uncoalesced: heur.stats.uncoalesced(),
    }
}

/// Computes the E1 rows for `count` consecutive seeds over `jobs` threads.
pub fn e1_rows_with_jobs(base_seed: u64, count: u64, jobs: usize) -> Vec<E1Row> {
    let seeds: Vec<u64> = (0..count).map(|s| base_seed + s).collect();
    par_map(&seeds, jobs, |&s| e1_row(s))
}

/// Runs E1 with row-level parallelism and packages the report.
pub fn e1_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let rows = e1_rows_with_jobs(base_seed, 4, jobs);
    let equal = rows.iter().filter(|r| r.invariant_holds()).count();
    ExperimentReport {
        id: ExperimentId::E1,
        title: ExperimentId::E1.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("seed", Json::from(r.seed)),
                    ("min_cut", Json::from(r.min_cut)),
                    ("exact_uncoalesced", Json::from(r.exact_uncoalesced)),
                    ("heuristic_uncoalesced", Json::from(r.heuristic_uncoalesced)),
                    ("equal", Json::from(r.invariant_holds())),
                ])
            })
            .collect(),
        summary: vec![
            ("instances".into(), Json::from(rows.len())),
            ("exact_matches_cut".into(), Json::from(equal)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E2 — Theorem 3 / Figure 2: k-colorability ↔ conservative coalescing.
// ---------------------------------------------------------------------------

/// One E2 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2Row {
    /// Seed of the generated source graph.
    pub seed: u64,
    /// Register count of the query.
    pub k: usize,
    /// Whether the source graph is k-colorable.
    pub colorable: bool,
    /// Whether zero-budget conservative coalescing coalesced everything.
    pub all_coalesced: bool,
}

impl E2Row {
    /// Theorem 3's equivalence.
    pub fn invariant_holds(&self) -> bool {
        self.colorable == self.all_coalesced
    }
}

/// Builds the E2 source graph and its conservative reduction for one seed.
pub fn e2_instance(seed: u64) -> (Graph, colorability::ConservativeReduction) {
    let mut rng = coalesce_gen::rng(seed);
    let g = random_graph(6, 0.5, &mut rng);
    let reduction = colorability::reduce_to_conservative(&g);
    (g, reduction)
}

/// Computes the E2 rows (three seeds, `k ∈ {2, 3}` each).
pub fn e2_rows(base_seed: u64) -> Vec<E2Row> {
    let mut rows = Vec::new();
    for s in 0..3u64 {
        let seed = base_seed + 10 + s;
        let (g, reduction) = e2_instance(seed);
        for k in [2usize, 3] {
            let exact =
                coalesce_core::conservative::conservative_exact(&reduction.instance, k, false);
            rows.push(E2Row {
                seed,
                k,
                colorable: colorability::is_k_colorable(&g, k),
                all_coalesced: exact.stats.uncoalesced() == 0,
            });
        }
    }
    rows
}

/// Runs E2 and packages the report.
pub fn e2_report(base_seed: u64) -> ExperimentReport {
    let rows = e2_rows(base_seed);
    let matches = rows.iter().filter(|r| r.invariant_holds()).count();
    ExperimentReport {
        id: ExperimentId::E2,
        title: ExperimentId::E2.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("seed", Json::from(r.seed)),
                    ("k", Json::from(r.k)),
                    ("colorable", Json::from(r.colorable)),
                    ("all_coalesced", Json::from(r.all_coalesced)),
                    ("agree", Json::from(r.invariant_holds())),
                ])
            })
            .collect(),
        summary: vec![
            ("queries".into(), Json::from(rows.len())),
            ("agreement".into(), Json::from(matches)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E4 — Theorem 4 / Figure 4: 3SAT ↔ incremental coalescibility.
// ---------------------------------------------------------------------------

/// One E4 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E4Row {
    /// Seed of the generated formula.
    pub seed: u64,
    /// Whether the 3SAT formula is satisfiable.
    pub satisfiable: bool,
    /// Whether the reduced incremental query is coalescible.
    pub coalescible: bool,
    /// Vertex count of the reduced graph.
    pub graph_vertices: usize,
    /// Search-tree nodes the exact solver expanded on the query.
    pub nodes_expanded: u64,
    /// Transposition-table hits during the query.
    pub memo_hits: u64,
}

impl E4Row {
    /// Theorem 4's equivalence.
    pub fn invariant_holds(&self) -> bool {
        self.satisfiable == self.coalescible
    }
}

/// Generates the E4 random 3SAT formula for one seed (4 variables, 9
/// clauses near the phase transition).
pub fn e4_formula(seed: u64) -> sat::Cnf {
    let mut rng = coalesce_gen::rng(seed);
    let clauses: Vec<Vec<sat::Literal>> = (0..9)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let var = rng.gen_range(0..4);
                    if rng.gen_bool(0.5) {
                        sat::Literal::pos(var)
                    } else {
                        sat::Literal::neg(var)
                    }
                })
                .collect()
        })
        .collect();
    sat::Cnf::new(4, clauses)
}

/// Computes one E4 row, including the exact solver's instrumentation.
pub fn e4_row(seed: u64) -> E4Row {
    let formula = e4_formula(seed);
    let reduction = sat::reduce_3sat_to_incremental(&formula);
    let mut solver = ExactSolver::new();
    let answer = incremental_exact_with(&mut solver, &reduction.graph, 3, reduction.x, reduction.y);
    let stats = solver.take_stats();
    E4Row {
        seed,
        satisfiable: formula.is_satisfiable(),
        coalescible: answer.is_coalescible(),
        graph_vertices: reduction.graph.num_vertices(),
        nodes_expanded: stats.nodes_expanded,
        memo_hits: stats.memo_hits,
    }
}

/// Runs E4 with row-level parallelism and packages the report.
pub fn e4_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let seeds: Vec<u64> = (0..6u64).map(|s| base_seed + 40 + s).collect();
    let rows: Vec<E4Row> = par_map(&seeds, jobs, |&s| e4_row(s));
    let agreement = rows.iter().filter(|r| r.invariant_holds()).count();
    ExperimentReport {
        id: ExperimentId::E4,
        title: ExperimentId::E4.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("seed", Json::from(r.seed)),
                    ("satisfiable", Json::from(r.satisfiable)),
                    ("coalescible", Json::from(r.coalescible)),
                    ("graph_vertices", Json::from(r.graph_vertices)),
                    ("nodes_expanded", Json::from(r.nodes_expanded)),
                    ("memo_hits", Json::from(r.memo_hits)),
                    ("agree", Json::from(r.invariant_holds())),
                ])
            })
            .collect(),
        summary: vec![
            ("formulas".into(), Json::from(rows.len())),
            ("agreement".into(), Json::from(agreement)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E6 — Theorem 6 / Figures 6–7: vertex cover ↔ optimistic de-coalescing.
// ---------------------------------------------------------------------------

/// One E6 table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E6Row {
    /// Name of the fixed source graph (P4, C4, C5).
    pub name: &'static str,
    /// Minimum vertex cover of the source graph.
    pub min_cover: usize,
    /// Minimum number of de-coalescings restoring greedy-k-colorability.
    pub exact_decoalescing: usize,
    /// Affinities the optimistic heuristic gave up on.
    pub heuristic_gave_up: usize,
}

impl E6Row {
    /// Theorem 6's equivalence.
    pub fn invariant_holds(&self) -> bool {
        self.min_cover == self.exact_decoalescing
    }
}

/// The three fixed degree-≤3 source graphs E6 uses.
pub fn e6_cases() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "P4",
            Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3))]),
        ),
        (
            "C4",
            Graph::with_edges(4, (0..4).map(|i| (v(i), v((i + 1) % 4)))),
        ),
        (
            "C5",
            Graph::with_edges(5, (0..5).map(|i| (v(i), v((i + 1) % 5)))),
        ),
    ]
}

/// Computes the E6 rows (the fixed graphs are seed-independent).
pub fn e6_rows() -> Vec<E6Row> {
    e6_cases()
        .into_iter()
        .map(|(name, g)| {
            let instance = VertexCoverInstance::new(g);
            let cover = instance.minimum_cover();
            let reduction = vertex_cover::reduce_to_optimistic(&instance);
            let (exact, _) = decoalesce_exact(&reduction.instance, reduction.k)
                .expect("Theorem 6 instances admit a de-coalescing");
            let heuristic = optimistic_coalesce(&reduction.instance, reduction.k);
            E6Row {
                name,
                min_cover: cover,
                exact_decoalescing: exact,
                heuristic_gave_up: heuristic.stats.uncoalesced(),
            }
        })
        .collect()
}

/// Runs E6 and packages the report.
pub fn e6_report(base_seed: u64) -> ExperimentReport {
    let rows = e6_rows();
    let equal = rows.iter().filter(|r| r.invariant_holds()).count();
    ExperimentReport {
        id: ExperimentId::E6,
        title: ExperimentId::E6.title(),
        base_seed,
        rows: rows
            .iter()
            .map(|r| {
                Json::object([
                    ("graph", Json::from(r.name)),
                    ("min_cover", Json::from(r.min_cover)),
                    ("exact_decoalescing", Json::from(r.exact_decoalescing)),
                    ("heuristic_gave_up", Json::from(r.heuristic_gave_up)),
                    ("equal", Json::from(r.invariant_holds())),
                ])
            })
            .collect(),
        summary: vec![
            ("cases".into(), Json::from(rows.len())),
            ("exact_matches_cover".into(), Json::from(equal)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_min_cut_equals_exact_aggressive_on_three_seeds() {
        for row in e1_rows_with_jobs(0, 3, 1) {
            assert!(
                row.invariant_holds(),
                "seed {}: min cut {} != exact uncoalesced {}",
                row.seed,
                row.min_cut,
                row.exact_uncoalesced
            );
        }
    }

    #[test]
    fn e6_exact_decoalescing_matches_minimum_cover() {
        for row in e6_rows() {
            assert!(row.invariant_holds(), "{}: {:?}", row.name, row);
        }
    }
}
