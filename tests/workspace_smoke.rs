//! Workspace smoke tests: the cross-crate wiring the whole repository
//! depends on.  These intentionally exercise one fixed-seed path through
//! every layer (gen → ir → core → alloc → bench) so a broken manifest or
//! dependency edge fails loudly and immediately.

use coalesce_alloc::pipeline::{run_allocator, AllocatorKind};
use coalesce_bench::experiments::reductions;
use coalesce_bench::{run_experiment, ExperimentId};
use coalesce_gen::programs::{random_ssa_program, ProgramParams};

/// Every allocator configuration must produce a *valid* assignment (no two
/// interfering variables in the same register) on a fixed-seed program.
#[test]
fn every_allocator_kind_yields_a_valid_assignment_on_a_fixed_seed_program() {
    let params = ProgramParams {
        diamonds: 3,
        ops_per_block: 3,
        pressure: 5,
        phis_per_join: 2,
    };
    let f = random_ssa_program(&params, &mut coalesce_gen::rng(12345));
    for kind in AllocatorKind::all() {
        let report = run_allocator(&f, 4, kind);
        assert!(
            report.valid,
            "{} produced an invalid assignment on the fixed-seed program",
            kind
        );
        assert!(report.registers_used <= 4, "{} overused registers", kind);
    }
}

/// E1's paper invariant (Theorem 2): the minimum multiway cut equals the
/// uncoalesced count of the *exact* aggressive coalescing, pinned on three
/// fixed seeds.
#[test]
fn e1_min_multiway_cut_equals_exact_aggressive_uncoalesced_on_three_seeds() {
    for row in reductions::e1_rows_with_jobs(0, 3, 1) {
        assert_eq!(
            row.min_cut, row.exact_uncoalesced,
            "seed {}: Theorem 2 equivalence violated",
            row.seed
        );
        // The heuristic can only do worse than (or equal to) the optimum.
        assert!(row.heuristic_uncoalesced >= row.exact_uncoalesced);
    }
}

/// The experiment reports serialize deterministically — the property the
/// `run-experiments --json` perf artifacts rely on.
#[test]
fn experiment_reports_serialize_deterministically() {
    for id in [ExperimentId::E1, ExperimentId::E3, ExperimentId::E6] {
        let a = run_experiment(id, 0).to_json().to_pretty_string();
        let b = run_experiment(id, 0).to_json().to_pretty_string();
        assert_eq!(a, b, "{id} report must be byte-identical across runs");
    }
}
