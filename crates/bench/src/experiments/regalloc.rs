//! E13, E14 — the program-level workload experiments.
//!
//! These experiments close the loop between the structured-CFG generator
//! (`coalesce_gen::cfg`), the `ir` liveness/interference pipeline, the
//! end-to-end allocators (`coalesce_alloc::pipeline`) and the coalescing
//! strategies (`coalesce_core`):
//!
//! * **E13** sweeps every [`ShapeProfile`] × [`PressureLevel`] pair, pipes
//!   each generated program through liveness/interference, checks the
//!   Theorem 1 invariants (chordal SSA graph, chordal coloring with
//!   exactly `Maxlive` colors) and runs every [`AllocatorKind`](coalesce_alloc::pipeline::AllocatorKind) at both a
//!   generous (`k = Maxlive`) and a tight register count, reporting
//!   spills, remaining move weight and colors vs. `Maxlive` per row;
//! * **E14** lowers the same workloads into challenge-style coalescing
//!   instances (spill to `k`, out of SSA) and runs the `coalesce_core`
//!   strategy zoo — aggressive, Briggs, Briggs+George, brute-force,
//!   optimistic, IRC, chordal — head-to-head on the affinity graphs.

use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_alloc::pipeline::{compare_allocators, AllocationReport};
use coalesce_core::affinity::AffinityGraph;
use coalesce_core::chordal_strategy::{chordal_conservative_coalesce, ChordalMode};
use coalesce_core::conservative::{conservative_coalesce, ConservativeRule};
use coalesce_core::optimistic::optimistic_coalesce;
use coalesce_core::{aggressive_heuristic, irc, CoalescingStats};
use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_graph::chordal;
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::loops::{is_reducible, LoopInfo};
use coalesce_ir::{out_of_ssa, spill, ssa, Function};

/// Resolves a profile filter: an empty filter means the full sweep.
fn sweep_profiles(filter: &[ShapeProfile]) -> Vec<ShapeProfile> {
    if filter.is_empty() {
        ShapeProfile::ALL.to_vec()
    } else {
        filter.to_vec()
    }
}

// ---------------------------------------------------------------------------
// E13 — generator sweep through the end-to-end allocators.
// ---------------------------------------------------------------------------

/// Deterministic seed offset of one (profile, pressure) cell, independent
/// of any `--profile` filtering so filtered runs reproduce the same rows.
fn cell_seed(base_seed: u64, profile: ShapeProfile, level: PressureLevel) -> u64 {
    let p = ShapeProfile::ALL
        .iter()
        .position(|&x| x == profile)
        .unwrap() as u64;
    let l = PressureLevel::ALL.iter().position(|&x| x == level).unwrap() as u64;
    base_seed + 1300 + p * 10 + l
}

/// Generates the E13/E14 input program of one sweep cell.
pub fn workload_program(base_seed: u64, profile: ShapeProfile, level: PressureLevel) -> Function {
    let params = profile.params(level.pressure());
    generate(
        &params,
        &mut coalesce_gen::rng(cell_seed(base_seed, profile, level)),
    )
}

/// One E13 row: the structural facts of one generated program and the
/// allocator comparison at one register count.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Shape profile of the generated program.
    pub profile: ShapeProfile,
    /// Pressure level of the generated program.
    pub pressure: PressureLevel,
    /// Seed the program was generated from.
    pub seed: u64,
    /// Register count of this row's allocator runs.
    pub k: usize,
    /// Basic blocks of the program.
    pub blocks: usize,
    /// Variables of the program.
    pub vars: usize,
    /// φ-functions of the program.
    pub phis: usize,
    /// Layout footprint of the program in bytes
    /// ([`Function::ir_bytes`]).
    pub ir_bytes: usize,
    /// Natural loops detected in the CFG.
    pub loops: usize,
    /// Maximum loop-nesting depth.
    pub max_loop_depth: u32,
    /// `Maxlive` of the SSA form.
    pub maxlive: usize,
    /// The program is strict SSA (always true — recorded as an invariant).
    pub strict_ssa: bool,
    /// The CFG is reducible (always true without the irreducible knob).
    pub reducible: bool,
    /// The SSA interference graph is chordal (Theorem 1).
    pub chordal: bool,
    /// Colors used by the chordal (perfect-elimination) coloring of the
    /// SSA interference graph; equals `maxlive` by Theorem 1.
    pub chordal_colors: usize,
    /// One report per allocator configuration at `k` registers.
    pub reports: Vec<AllocationReport>,
    /// Pass counters collected while the row was computed: the shared
    /// facts passes (liveness, interference, chordal coloring) plus this
    /// row's allocator runs.  Seed-deterministic.
    pub stats: coalesce_stats::Counters,
}

impl E13Row {
    /// The acceptance invariant: the chordal allocator colors the SSA
    /// interference graph with exactly `Maxlive` colors.
    pub fn chordal_colors_eq_maxlive(&self) -> bool {
        self.chordal && self.chordal_colors == self.maxlive
    }
}

/// Computes the two E13 rows (generous and tight `k`) of one sweep cell.
pub fn e13_rows(base_seed: u64, profile: ShapeProfile, level: PressureLevel) -> Vec<E13Row> {
    let _span = coalesce_stats::span!("e13/cell");
    let f = workload_program(base_seed, profile, level);
    // Pass counters of the shared facts passes, collected once per cell
    // and merged into every row of the cell.
    let (facts, facts_stats) = coalesce_stats::collect(|| {
        let _span = coalesce_stats::span!("e13/facts");
        let live = Liveness::compute(&f);
        let maxlive = live.maxlive_precise(&f);
        let ig = InterferenceGraph::build_with(
            &f,
            &live,
            BuildOptions {
                kind: InterferenceKind::Intersection,
                ..Default::default()
            },
        );
        let chordal_coloring = chordal::chordal_coloring(&ig.graph);
        let chordal_colors = chordal_coloring.as_ref().map_or(0, |c| c.num_colors());
        let info = LoopInfo::compute(&f);
        E13Row {
            profile,
            pressure: level,
            seed: cell_seed(base_seed, profile, level),
            k: 0,
            blocks: f.num_blocks(),
            vars: f.num_vars(),
            phis: f.num_phis(),
            ir_bytes: f.ir_bytes(),
            loops: info.num_loops(),
            max_loop_depth: info.depth.iter().copied().max().unwrap_or(0),
            maxlive,
            strict_ssa: ssa::is_strict(&f),
            reducible: is_reducible(&f),
            chordal: chordal_coloring.is_some(),
            chordal_colors,
            reports: Vec::new(),
            stats: coalesce_stats::Counters::default(),
        }
    });
    let maxlive = facts.maxlive;
    let tight = spill::tight_k(maxlive);
    let mut ks = vec![maxlive.max(1)];
    if tight < maxlive {
        ks.push(tight);
    }
    ks.into_iter()
        .map(|k| {
            let _span = coalesce_stats::span!("e13/alloc");
            let (reports, mut stats) = coalesce_stats::collect(|| compare_allocators(&f, k));
            stats.merge(&facts_stats);
            E13Row {
                k,
                reports,
                stats,
                ..facts.clone()
            }
        })
        .collect()
}

fn allocator_json(r: &AllocationReport) -> Json {
    Json::object([
        ("allocator", Json::from(r.kind.name())),
        ("valid", Json::from(r.valid)),
        ("spilled_values", Json::from(r.spilled_values)),
        ("reloads_inserted", Json::from(r.reloads_inserted)),
        ("total_moves", Json::from(r.moves.total_moves)),
        ("eliminated_moves", Json::from(r.moves.eliminated_moves)),
        ("total_weight", Json::from(r.moves.total_weight)),
        ("remaining_weight", Json::from(r.moves.remaining_weight())),
        ("registers_used", Json::from(r.registers_used)),
        ("maxlive", Json::from(r.maxlive)),
    ])
}

fn e13_row_json(row: &E13Row) -> Json {
    Json::object([
        ("profile", Json::from(row.profile.name())),
        ("pressure", Json::from(row.pressure.name())),
        ("seed", Json::from(row.seed)),
        ("k", Json::from(row.k)),
        ("blocks", Json::from(row.blocks)),
        ("vars", Json::from(row.vars)),
        ("phis", Json::from(row.phis)),
        ("ir_bytes", Json::from(row.ir_bytes)),
        ("loops", Json::from(row.loops)),
        ("max_loop_depth", Json::from(row.max_loop_depth as u64)),
        ("maxlive", Json::from(row.maxlive)),
        ("strict_ssa", Json::from(row.strict_ssa)),
        ("reducible", Json::from(row.reducible)),
        ("chordal", Json::from(row.chordal)),
        ("chordal_colors", Json::from(row.chordal_colors)),
        (
            "chordal_colors_eq_maxlive",
            Json::from(row.chordal_colors_eq_maxlive()),
        ),
        (
            "allocators",
            Json::Array(row.reports.iter().map(allocator_json).collect()),
        ),
        ("stats", Json::counters(&row.stats)),
    ])
}

/// Runs E13 with an explicit profile filter (empty = all) and a row-level
/// worker fan-out.
pub fn e13_report_filtered(
    base_seed: u64,
    jobs: usize,
    profiles: &[ShapeProfile],
) -> ExperimentReport {
    let cells: Vec<(ShapeProfile, PressureLevel)> = sweep_profiles(profiles)
        .into_iter()
        .flat_map(|p| PressureLevel::ALL.into_iter().map(move |l| (p, l)))
        .collect();
    let rows: Vec<E13Row> = par_map(&cells, jobs, |&(p, l)| e13_rows(base_seed, p, l))
        .into_iter()
        .flatten()
        .collect();
    let all_valid = rows.iter().all(|r| r.reports.iter().all(|a| a.valid));
    let all_chordal_eq = rows.iter().all(E13Row::chordal_colors_eq_maxlive);
    let all_strict = rows.iter().all(|r| r.strict_ssa);
    let all_reducible = rows.iter().all(|r| r.reducible);
    let mut totals = coalesce_stats::Counters::default();
    for row in &rows {
        totals.merge(&row.stats);
    }
    ExperimentReport {
        id: ExperimentId::E13,
        title: ExperimentId::E13.title(),
        base_seed,
        rows: rows.iter().map(e13_row_json).collect(),
        summary: vec![
            ("rows".into(), Json::from(rows.len())),
            ("all_strict_ssa".into(), Json::from(all_strict)),
            ("all_reducible".into(), Json::from(all_reducible)),
            (
                "all_chordal_colors_eq_maxlive".into(),
                Json::from(all_chordal_eq),
            ),
            ("all_assignments_valid".into(), Json::from(all_valid)),
            ("stats".into(), Json::counters(&totals)),
        ],
    }
}

// ---------------------------------------------------------------------------
// E14 — generated corpus through the coalescing strategies.
// ---------------------------------------------------------------------------

/// One strategy's outcome on an E14 instance.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy name as reported in JSON.
    pub name: &'static str,
    /// Coalescing statistics against the instance affinities.
    pub stats: CoalescingStats,
}

/// One E14 row: a lowered workload and every strategy's result on it.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Shape profile of the source program.
    pub profile: ShapeProfile,
    /// Seed the program was generated from.
    pub seed: u64,
    /// Register count the instance was spilled to.
    pub k: usize,
    /// Interference-graph vertices of the lowered program.
    pub vertices: usize,
    /// Interference edges.
    pub interferences: usize,
    /// Affinities (coalescing candidates).
    pub affinities: usize,
    /// Total affinity weight.
    pub total_weight: u64,
    /// Whether the lowered interference graph is still chordal.
    pub chordal: bool,
    /// Per-strategy outcomes, in fixed order.
    pub strategies: Vec<StrategyOutcome>,
    /// Actual spills of the IRC allocator at `k`.
    pub irc_spills: usize,
    /// Pass counters collected across the whole row (lowering plus the
    /// strategy zoo).  Seed-deterministic.
    pub stats: coalesce_stats::Counters,
}

/// Deterministic seed of one profile's E14 instance (offset from the E13
/// cell seed so the two sweeps draw distinct programs).
pub fn e14_seed(base_seed: u64, profile: ShapeProfile) -> u64 {
    cell_seed(base_seed, profile, PressureLevel::Medium) + 100
}

/// Generates the pre-spill program of one profile's E14 instance — the
/// [`e14_instance`] input before spilling and SSA destruction, exposed so
/// the verification harness can regenerate and re-audit the lowering.
pub fn e14_program(base_seed: u64, profile: ShapeProfile) -> Function {
    let params = profile.params(PressureLevel::Medium.pressure());
    generate(
        &params,
        &mut coalesce_gen::rng(e14_seed(base_seed, profile)),
    )
}

/// Builds the E14 instance of one profile: generate at medium pressure,
/// spill to `k`, translate out of SSA, extract the affinity graph.
pub fn e14_instance(base_seed: u64, profile: ShapeProfile, k: usize) -> (AffinityGraph, u64) {
    let seed = e14_seed(base_seed, profile);
    let mut f = e14_program(base_seed, profile);
    spill::spill_to_pressure(&mut f, k);
    out_of_ssa::destruct_ssa(&mut f);
    let live = Liveness::compute(&f);
    let ig = InterferenceGraph::build(&f, &live);
    (AffinityGraph::from_interference(&ig), seed)
}

/// Which of the expensive zoo members to run; the cheap polynomial
/// strategies (aggressive, Briggs, Briggs+George, optimistic, IRC) always
/// run.
#[derive(Debug, Clone, Copy)]
pub struct ZooConfig {
    /// Run [`ConservativeRule::BruteForce`] (a full greedy `k`-coloring
    /// check per candidate — quadratic-ish in instance size).
    pub brute_force: bool,
    /// Run the Theorem-5 chordal strategy where applicable (a prepared
    /// clique-tree session per graph state, rebuilt after each accepted
    /// merge).
    pub chordal: bool,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            brute_force: true,
            chordal: true,
        }
    }
}

impl ZooConfig {
    /// A configuration that drops the superlinear members on instances too
    /// large for them — the bound corpus mode applies so a streaming run
    /// over multi-thousand-vertex files stays near the structural pass's
    /// cost.
    pub fn bounded(edges: usize, affinities: usize) -> Self {
        let small = edges <= 100_000 && affinities <= 2_000;
        ZooConfig {
            brute_force: small,
            chordal: small,
        }
    }
}

/// Runs the strategy zoo on one affinity instance at `k` registers.
pub fn run_strategy_zoo(ag: &AffinityGraph, k: usize) -> (Vec<StrategyOutcome>, usize) {
    run_strategy_zoo_with(ag, k, ZooConfig::default())
}

/// Runs the strategy zoo with an explicit [`ZooConfig`].
pub fn run_strategy_zoo_with(
    ag: &AffinityGraph,
    k: usize,
    config: ZooConfig,
) -> (Vec<StrategyOutcome>, usize) {
    let mut strategies = vec![StrategyOutcome {
        name: "aggressive",
        stats: aggressive_heuristic(ag).stats,
    }];
    for (name, rule) in [
        ("briggs", ConservativeRule::Briggs),
        ("briggs_george", ConservativeRule::BriggsGeorge),
    ] {
        strategies.push(StrategyOutcome {
            name,
            stats: conservative_coalesce(ag, k, rule).stats,
        });
    }
    if config.brute_force {
        strategies.push(StrategyOutcome {
            name: "brute_force",
            stats: conservative_coalesce(ag, k, ConservativeRule::BruteForce).stats,
        });
    }
    strategies.push(StrategyOutcome {
        name: "optimistic",
        stats: optimistic_coalesce(ag, k).stats,
    });
    if config.chordal {
        if let Some(result) = chordal_conservative_coalesce(ag, k, ChordalMode::MergeWitnessClass) {
            strategies.push(StrategyOutcome {
                name: "chordal",
                stats: result.stats,
            });
        }
    }
    let irc = irc::allocate(ag, k);
    strategies.push(StrategyOutcome {
        name: "irc",
        stats: irc.stats,
    });
    (strategies, irc.num_spills())
}

/// The per-strategy JSON object shared by the E14 rows and the corpus
/// runner: `{name: {coalesced, coalesced_weight}, ...}` in zoo order.
pub fn strategies_json(strategies: &[StrategyOutcome]) -> Json {
    Json::Object(
        strategies
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    Json::object([
                        ("coalesced", Json::from(s.stats.coalesced)),
                        ("coalesced_weight", Json::from(s.stats.coalesced_weight)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Computes one E14 row.
pub fn e14_row(base_seed: u64, profile: ShapeProfile) -> E14Row {
    let _span = coalesce_stats::span!("e14/row");
    let k = 6;
    let ((ag, seed, strategies, irc_spills), stats) = coalesce_stats::collect(|| {
        let (ag, seed) = e14_instance(base_seed, profile, k);
        let (strategies, irc_spills) = run_strategy_zoo(&ag, k);
        (ag, seed, strategies, irc_spills)
    });
    E14Row {
        profile,
        seed,
        k,
        vertices: ag.graph.num_vertices(),
        interferences: ag.graph.num_edges(),
        affinities: ag.num_affinities(),
        total_weight: ag.total_weight(),
        chordal: chordal::is_chordal(&ag.graph),
        strategies,
        irc_spills,
        stats,
    }
}

impl E14Row {
    /// Sanity invariant: no strategy reports more coalesced weight than
    /// the instance has.
    pub fn weights_within_total(&self) -> bool {
        self.strategies.iter().all(|s| {
            s.stats.coalesced_weight <= self.total_weight && s.stats.coalesced <= s.stats.total
        })
    }
}

fn e14_row_json(row: &E14Row) -> Json {
    Json::object([
        ("profile", Json::from(row.profile.name())),
        ("seed", Json::from(row.seed)),
        ("k", Json::from(row.k)),
        ("vertices", Json::from(row.vertices)),
        ("interferences", Json::from(row.interferences)),
        ("affinities", Json::from(row.affinities)),
        ("total_weight", Json::from(row.total_weight)),
        ("chordal", Json::from(row.chordal)),
        ("strategies", strategies_json(&row.strategies)),
        ("irc_spills", Json::from(row.irc_spills)),
        (
            "weights_within_total",
            Json::from(row.weights_within_total()),
        ),
        ("stats", Json::counters(&row.stats)),
    ])
}

/// Runs E14 with an explicit profile filter (empty = all) and a row-level
/// worker fan-out.
pub fn e14_report_filtered(
    base_seed: u64,
    jobs: usize,
    profiles: &[ShapeProfile],
) -> ExperimentReport {
    let profiles = sweep_profiles(profiles);
    let rows: Vec<E14Row> = par_map(&profiles, jobs, |&p| e14_row(base_seed, p));
    let all_within = rows.iter().all(E14Row::weights_within_total);
    let total_weight: u64 = rows.iter().map(|r| r.total_weight).sum();
    let mut totals = coalesce_stats::Counters::default();
    for row in &rows {
        totals.merge(&row.stats);
    }
    ExperimentReport {
        id: ExperimentId::E14,
        title: ExperimentId::E14.title(),
        base_seed,
        rows: rows.iter().map(e14_row_json).collect(),
        summary: vec![
            ("rows".into(), Json::from(rows.len())),
            ("total_weight".into(), Json::from(total_weight)),
            ("all_weights_within_total".into(), Json::from(all_within)),
            ("stats".into(), Json::counters(&totals)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_rows_satisfy_the_acceptance_invariants() {
        for profile in ShapeProfile::ALL {
            let rows = e13_rows(0, profile, PressureLevel::Low);
            assert!(!rows.is_empty());
            for row in &rows {
                assert!(row.strict_ssa);
                assert!(row.reducible);
                assert!(row.chordal);
                assert!(row.chordal_colors_eq_maxlive(), "{profile}");
                for report in &row.reports {
                    assert!(report.valid, "{profile} {}", report.kind);
                }
            }
        }
    }

    #[test]
    fn e13_generous_k_needs_no_ssa_spills() {
        let rows = e13_rows(0, ShapeProfile::FpLoopNest, PressureLevel::Medium);
        let generous = &rows[0];
        assert_eq!(generous.k, generous.maxlive);
        for report in &generous.reports {
            // The SSA-based allocators spill to pressure first: at
            // k = Maxlive there is nothing to spill.
            if report.kind.name().starts_with("ssa/") {
                assert_eq!(report.spilled_values, 0, "{}", report.kind);
            }
        }
    }

    #[test]
    fn e14_rows_run_every_strategy() {
        let row = e14_row(0, ShapeProfile::IntBranchy);
        assert!(row.affinities > 0, "lowering must create affinities");
        let names: Vec<&str> = row.strategies.iter().map(|s| s.name).collect();
        for expected in [
            "aggressive",
            "briggs",
            "briggs_george",
            "brute_force",
            "optimistic",
            "irc",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(row.weights_within_total());
    }

    #[test]
    fn profile_filter_restricts_the_sweep() {
        let full = e13_report_filtered(0, 1, &[]);
        let filtered = e13_report_filtered(0, 1, &[ShapeProfile::IntBranchy]);
        assert!(filtered.rows.len() < full.rows.len());
        // Filtered rows are a prefix of the full sweep (same seeds).
        for (a, b) in filtered.rows.iter().zip(&full.rows) {
            assert_eq!(a.to_compact_string(), b.to_compact_string());
        }
    }
}
