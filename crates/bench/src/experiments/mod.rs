//! The E1–E18 experiments of the reproduction, as reusable library code.
//!
//! Each experiment is a function from a *base seed* to an
//! [`ExperimentReport`]; base seed 0 reproduces the tables the original
//! in-bench implementation printed.  The per-experiment modules also expose
//! their instance builders, so tests and budget checks time exactly the
//! reported code path.

pub mod allocators;
pub mod module;
pub mod reductions;
pub mod regalloc;
pub mod scaling;
pub mod soak;
pub mod spillers;
pub mod strategies;
pub mod structure;

use crate::json::Json;
use crate::report::ExperimentReport;
use coalesce_gen::cfg::ShapeProfile;
use coalesce_graph::VertexId;
use std::fmt;
use std::str::FromStr;

/// Shorthand used throughout the experiment modules.
pub(crate) fn v(i: usize) -> VertexId {
    VertexId::new(i)
}

/// Identifier of one experiment (E1–E17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExperimentId {
    /// Theorem 2 / Figure 1: multiway cut vs optimal aggressive coalescing.
    E1,
    /// Theorem 3 / Figure 2: k-colorability vs conservative coalescing.
    E2,
    /// Figure 3: local conservative rules vs simultaneous coalescing.
    E3,
    /// Theorem 4 / Figure 4: 3SAT vs incremental coalescibility.
    E4,
    /// Theorem 5 / Figure 5: polynomial chordal algorithm vs exact search.
    E5,
    /// Theorem 6 / Figures 6–7: vertex cover vs optimistic de-coalescing.
    E6,
    /// Theorem 1 / Property 1: SSA interference graphs are chordal.
    E7,
    /// Challenge-style strategy comparison table.
    E8,
    /// Property 2: clique lifting preserves the structural predicates.
    E9,
    /// End-to-end allocator comparison (Chaitin–Briggs vs SSA-based).
    E10,
    /// Theorem-5-guided chordal strategy vs the local rules.
    E11,
    /// Live-range splitting / coalescing interplay.
    E12,
    /// Structured-CFG generator sweep through the end-to-end allocators.
    E13,
    /// Generated program corpus through the coalescing strategies.
    E14,
    /// Data-structure scaling: flat graphs, bitset liveness, incremental
    /// spilling at production-ish sizes.
    E15,
    /// Whole-module parallel allocation over the flat IR: a 1000-function
    /// generated module spilled to tight `k`, fanned over `--jobs`.
    E16,
    /// Rival spilling strategies: spill-everywhere vs pressure-greedy vs
    /// Belady MIN over the E13 workload grid and an E16 module slice,
    /// reporting loop-weighted spill weight and wall clock per spiller.
    E17,
    /// Chaos soak of the allocation service: a seeded fault-injected
    /// request trace through the `coalesce-serve` worker pool, asserting
    /// the zero-crash invariant.
    E18,
}

impl ExperimentId {
    /// Every experiment, in order.
    pub const ALL: [ExperimentId; 18] = [
        ExperimentId::E1,
        ExperimentId::E2,
        ExperimentId::E3,
        ExperimentId::E4,
        ExperimentId::E5,
        ExperimentId::E6,
        ExperimentId::E7,
        ExperimentId::E8,
        ExperimentId::E9,
        ExperimentId::E10,
        ExperimentId::E11,
        ExperimentId::E12,
        ExperimentId::E13,
        ExperimentId::E14,
        ExperimentId::E15,
        ExperimentId::E16,
        ExperimentId::E17,
        ExperimentId::E18,
    ];

    /// The wall-clock budget (milliseconds) the experiment's hot path must
    /// stay within in release builds, for the experiments that carry a
    /// perf-regression guard.  The value is embedded in the report summary
    /// (deterministic — it is a constant, so the baseline pins it like any
    /// other field), and `tests/experiment_runner.rs` enforces the actual
    /// wall clock.
    pub fn budget_ms(self) -> Option<u64> {
        match self {
            ExperimentId::E4 => Some(2_000),
            ExperimentId::E5 => Some(5_000),
            ExperimentId::E15 => Some(5_000),
            ExperimentId::E16 => Some(10_000),
            ExperimentId::E17 => Some(10_000),
            ExperimentId::E18 => Some(10_000),
            _ => None,
        }
    }

    /// One-line description of what the experiment checks; used as the
    /// report title and by the CLI's `--list`.
    pub fn title(self) -> &'static str {
        match self {
            ExperimentId::E1 => "multiway cut vs optimal aggressive coalescing (must be equal)",
            ExperimentId::E2 => {
                "k-colorability vs zero-budget conservative coalescing (must match)"
            }
            ExperimentId::E3 => "permutation gadgets: moves coalesced by each strategy",
            ExperimentId::E4 => {
                "random 3SAT near the phase transition: SAT vs coalescible (must match)"
            }
            ExperimentId::E5 => {
                "chordal incremental coalescing: agreement with exact search and scaling"
            }
            ExperimentId::E6 => {
                "vertex cover vs minimum de-coalescing (must be equal); heuristic gap"
            }
            ExperimentId::E7 => {
                "SSA interference graphs: chordal, omega = Maxlive, greedy-omega-colorable"
            }
            ExperimentId::E8 => {
                "challenge-style instances: % affinity weight coalesced / IRC spills"
            }
            ExperimentId::E9 => "Property 2 lifting: predicates preserved from k to k + p",
            ExperimentId::E10 => {
                "end-to-end allocators: spills and remaining moves per configuration"
            }
            ExperimentId::E11 => {
                "Theorem-5-guided coalescing on chordal instances (weight removed / total)"
            }
            ExperimentId::E12 => {
                "live-range splitting then coalescing (moves removed / moves added)"
            }
            ExperimentId::E13 => {
                "SPEC-like CFG workloads: end-to-end allocators per shape profile x pressure"
            }
            ExperimentId::E14 => {
                "generated program corpus through the coalescing strategies (weight / spills)"
            }
            ExperimentId::E15 => {
                "data-structure scaling: bulk graphs, bitset liveness, incremental spilling"
            }
            ExperimentId::E16 => {
                "whole-module parallel allocation: 1000-function module over the flat IR"
            }
            ExperimentId::E17 => {
                "rival spillers: everywhere vs pressure-greedy vs Belady (weight / wall clock)"
            }
            ExperimentId::E18 => {
                "chaos soak: fault-injected request trace through the allocation service"
            }
        }
    }

    /// The lowercase id used on the command line and in JSON ("e1"…"e12").
    pub fn as_str(self) -> &'static str {
        match self {
            ExperimentId::E1 => "e1",
            ExperimentId::E2 => "e2",
            ExperimentId::E3 => "e3",
            ExperimentId::E4 => "e4",
            ExperimentId::E5 => "e5",
            ExperimentId::E6 => "e6",
            ExperimentId::E7 => "e7",
            ExperimentId::E8 => "e8",
            ExperimentId::E9 => "e9",
            ExperimentId::E10 => "e10",
            ExperimentId::E11 => "e11",
            ExperimentId::E12 => "e12",
            ExperimentId::E13 => "e13",
            ExperimentId::E14 => "e14",
            ExperimentId::E15 => "e15",
            ExperimentId::E16 => "e16",
            ExperimentId::E17 => "e17",
            ExperimentId::E18 => "e18",
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown experiment id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment `{}` (expected e1..e{})",
            self.0,
            ExperimentId::ALL.len()
        )
    }
}

impl std::error::Error for UnknownExperiment {}

impl FromStr for ExperimentId {
    type Err = UnknownExperiment;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        ExperimentId::ALL
            .into_iter()
            .find(|id| id.as_str() == lower)
            .ok_or_else(|| UnknownExperiment(s.to_owned()))
    }
}

/// Runs one experiment with the given base seed, serially.
pub fn run_experiment(id: ExperimentId, base_seed: u64) -> ExperimentReport {
    run_experiment_with_jobs(id, base_seed, 1)
}

/// Runs one experiment with the given base seed, fanning its per-seed /
/// per-size rows over up to `jobs` worker threads where the experiment
/// supports it (E1, E4, E5, E7, E13–E17 — the ones whose rows
/// are independent and heavy enough to matter).  Row order, and therefore
/// the serialized report's deterministic fields, is identical for every
/// `jobs` value (E16's two measured throughput counters are the only
/// fields that vary).
pub fn run_experiment_with_jobs(id: ExperimentId, base_seed: u64, jobs: usize) -> ExperimentReport {
    run_experiment_filtered(id, base_seed, jobs, &[])
}

/// Like [`run_experiment_with_jobs`], restricting the E13/E14 workload
/// sweeps to the given shape profiles (empty = all profiles; the filter is
/// ignored by every other experiment).  This is the function behind the
/// CLI's `--profile`.
pub fn run_experiment_filtered(
    id: ExperimentId,
    base_seed: u64,
    jobs: usize,
    profiles: &[ShapeProfile],
) -> ExperimentReport {
    let _span = coalesce_stats::span!(id.as_str());
    let mut report = match id {
        ExperimentId::E1 => reductions::e1_report_with_jobs(base_seed, jobs),
        ExperimentId::E2 => reductions::e2_report(base_seed),
        ExperimentId::E3 => strategies::e3_report(base_seed),
        ExperimentId::E4 => reductions::e4_report_with_jobs(base_seed, jobs),
        ExperimentId::E5 => structure::e5_report_with_jobs(base_seed, jobs),
        ExperimentId::E6 => reductions::e6_report(base_seed),
        ExperimentId::E7 => structure::e7_report_with_jobs(base_seed, jobs),
        ExperimentId::E8 => strategies::e8_report(base_seed),
        ExperimentId::E9 => structure::e9_report(base_seed),
        ExperimentId::E10 => allocators::e10_report(base_seed),
        ExperimentId::E11 => strategies::e11_report(base_seed),
        ExperimentId::E12 => allocators::e12_report(base_seed),
        ExperimentId::E13 => regalloc::e13_report_filtered(base_seed, jobs, profiles),
        ExperimentId::E14 => regalloc::e14_report_filtered(base_seed, jobs, profiles),
        ExperimentId::E15 => scaling::e15_report_with_jobs(base_seed, jobs),
        ExperimentId::E16 => module::e16_report_with_jobs(base_seed, jobs),
        ExperimentId::E17 => spillers::e17_report_with_jobs(base_seed, jobs),
        ExperimentId::E18 => soak::e18_report_with_jobs(base_seed, jobs),
    };
    // Experiments with a wall-clock regression guard carry their declared
    // budget in the summary, where the baseline pins it (the value is a
    // constant, so reports stay byte-identical across runs and `--jobs`
    // values).
    if let Some(ms) = id.budget_ms() {
        report.summary.push(("budget_ms".into(), Json::from(ms)));
    }
    report
}

/// Runs a batch of experiments, fanning whole experiments (and, within
/// each, its rows) over worker threads.  The `jobs` budget is split
/// between the two levels — `min(jobs, #experiments)` outer workers, and
/// the remaining factor to each experiment's row fan-out — so the total
/// thread count stays ~`jobs` rather than `jobs²`.  The reports come
/// back in input order, so the serialized output of a `jobs = N` run is
/// byte-identical to the serial one.  This is the function behind the
/// CLI's `--jobs`.
pub fn run_reports(ids: &[ExperimentId], base_seed: u64, jobs: usize) -> Vec<ExperimentReport> {
    run_reports_filtered(ids, base_seed, jobs, &[])
}

/// Like [`run_reports`], restricting the E13/E14 sweeps to the given shape
/// profiles (empty = all).
pub fn run_reports_filtered(
    ids: &[ExperimentId],
    base_seed: u64,
    jobs: usize,
    profiles: &[ShapeProfile],
) -> Vec<ExperimentReport> {
    let outer_jobs = jobs.clamp(1, ids.len().max(1));
    let row_jobs = (jobs / outer_jobs).max(1);
    crate::par::par_map(ids, outer_jobs, |&id| {
        run_experiment_filtered(id, base_seed, row_jobs, profiles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::mask_timing;

    /// A report's deterministic rendering, timing fields dropped.
    fn masked(report: &ExperimentReport) -> String {
        mask_timing(&report.to_json()).to_pretty_string()
    }

    #[test]
    fn ids_round_trip_through_strings() {
        for id in ExperimentId::ALL {
            assert_eq!(id.as_str().parse::<ExperimentId>().unwrap(), id);
            assert_eq!(
                id.as_str().to_uppercase().parse::<ExperimentId>().unwrap(),
                id
            );
        }
        assert!("e19".parse::<ExperimentId>().is_err());
        assert!("".parse::<ExperimentId>().is_err());
    }

    #[test]
    fn experiments_run_and_serialize_deterministically() {
        // Since the pruned `ExactSolver` landed, even E4's exact
        // incremental searches are fast enough to run here in debug.
        for id in ExperimentId::ALL {
            let a = masked(&run_experiment(id, 0));
            let b = masked(&run_experiment(id, 0));
            assert_eq!(a, b, "{id} must serialize identically across runs");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn row_parallelism_does_not_change_reports() {
        for id in [
            ExperimentId::E1,
            ExperimentId::E4,
            ExperimentId::E7,
            ExperimentId::E13,
            ExperimentId::E14,
            ExperimentId::E15,
            ExperimentId::E16,
            ExperimentId::E17,
        ] {
            let serial = masked(&run_experiment_with_jobs(id, 3, 1));
            let parallel = masked(&run_experiment_with_jobs(id, 3, 4));
            assert_eq!(serial, parallel, "{id} rows must not depend on --jobs");
        }
    }
}
