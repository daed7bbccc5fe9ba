//! Cross-crate integration tests for the end-to-end allocators
//! (`coalesce-alloc`) on generated programs (`coalesce-gen`).
//!
//! These tests check the properties the paper's framing relies on:
//!
//! * every allocator configuration produces a *valid* assignment (no two
//!   interfering variables share a register) on arbitrary generated
//!   programs;
//! * in the two-phase SSA-based allocator, the number of spills does not
//!   depend on the coalescing strategy (spilling is decided before
//!   coalescing), while stronger coalescing strategies never remove fewer
//!   moves;
//! * the Chaitin–Briggs loop terminates and stays valid even under extreme
//!   register pressure.

use coalesce_alloc::chaitin::{chaitin_allocate, ChaitinConfig};
use coalesce_alloc::pipeline::{compare_allocators, run_allocator, AllocatorKind};
use coalesce_alloc::ssa_based::{ssa_allocate, CoalescingStrategy};
use coalesce_gen::programs::{random_ssa_program, ProgramParams};

fn program(seed: u64, pressure: usize) -> coalesce_ir::Function {
    let params = ProgramParams {
        diamonds: 3,
        ops_per_block: 3,
        pressure,
        phis_per_join: 2,
    };
    random_ssa_program(&params, &mut coalesce_gen::rng(seed))
}

#[test]
fn all_allocators_produce_valid_assignments_on_generated_programs() {
    for seed in 0..4u64 {
        let f = program(seed, 6);
        for k in [3usize, 5, 8] {
            for report in compare_allocators(&f, k) {
                assert!(
                    report.valid,
                    "seed {seed}, k {k}: {} produced an invalid allocation",
                    report.kind
                );
                assert!(report.registers_used <= k);
            }
        }
    }
}

#[test]
fn two_phase_spill_count_is_independent_of_the_coalescing_strategy() {
    for seed in 0..4u64 {
        let f = program(seed, 7);
        let k = 4;
        let baseline = ssa_allocate(&f, k, CoalescingStrategy::None);
        for strategy in CoalescingStrategy::ALL {
            let outcome = ssa_allocate(&f, k, strategy);
            assert_eq!(
                outcome.spilled_values.len(),
                baseline.spilled_values.len(),
                "seed {seed}: {strategy:?} changed the first-phase spill count"
            );
            assert_eq!(
                outcome.reloads_inserted, baseline.reloads_inserted,
                "seed {seed}: {strategy:?} changed the first-phase reload count"
            );
        }
    }
}

#[test]
fn stronger_conservative_rules_never_coalesce_fewer_moves() {
    // Briggs ⊆ Briggs+George in acceptance power; the run is incremental so
    // strict dominance is not guaranteed in theory, but on these generated
    // programs the weight ordering is identical and the subsumption holds.
    for seed in 0..4u64 {
        let f = program(seed, 6);
        let k = 5;
        let briggs = ssa_allocate(&f, k, CoalescingStrategy::Briggs);
        let both = ssa_allocate(&f, k, CoalescingStrategy::BriggsGeorge);
        assert!(
            both.coalesced >= briggs.coalesced,
            "seed {seed}: Briggs+George coalesced {} < Briggs {}",
            both.coalesced,
            briggs.coalesced
        );
    }
}

#[test]
fn ssa_interference_graphs_seen_by_the_allocator_are_chordal() {
    for seed in 0..6u64 {
        let f = program(seed, 5);
        let outcome = ssa_allocate(&f, 4, CoalescingStrategy::Briggs);
        assert!(outcome.ssa_graph_chordal, "seed {seed}: Theorem 1 violated");
    }
}

#[test]
fn chaitin_loop_terminates_and_validates_under_extreme_pressure() {
    for seed in 0..3u64 {
        let f = program(seed, 9);
        for k in [2usize, 3] {
            let outcome = chaitin_allocate(&f, ChaitinConfig::new(k));
            assert!(outcome.rounds <= 8);
            assert!(
                outcome.assignment.is_valid(&outcome.function, k),
                "seed {seed} k {k}: invalid final assignment"
            );
        }
    }
}

#[test]
fn reports_expose_the_move_removal_ordering_of_the_paper() {
    // Aggregate over several programs: optimistic / brute force remove at
    // least as much move weight as the purely local Briggs rule, which
    // removes at least as much as no coalescing (biased coloring only).
    let k = 5;
    let mut weight_none = 0u64;
    let mut weight_briggs = 0u64;
    let mut weight_brute = 0u64;
    let mut weight_opt = 0u64;
    for seed in 0..5u64 {
        let f = program(seed, 6);
        let report = |strategy| {
            run_allocator(&f, k, AllocatorKind::SsaBased(strategy))
                .moves
                .eliminated_weight
        };
        weight_none += report(CoalescingStrategy::None);
        weight_briggs += report(CoalescingStrategy::Briggs);
        weight_brute += report(CoalescingStrategy::BruteForce);
        weight_opt += report(CoalescingStrategy::Optimistic);
    }
    assert!(weight_briggs >= weight_none);
    assert!(weight_brute + weight_opt >= 2 * weight_none);
    assert!(weight_opt >= weight_briggs.saturating_sub(weight_briggs / 4));
}

/// 19 φ arguments of one value `x`, from 19 predecessors at loop depth 18,
/// plus a chain of 19 copies at depth 18: `19 · 10^18` exceeds `u64::MAX`,
/// so every weight sum over them must saturate instead of wrapping (or
/// panicking under overflow checks).
fn saturating_weights_program() -> coalesce_ir::Function {
    use coalesce_ir::FunctionBuilder;
    let mut b = FunctionBuilder::new("saturate");
    let entry = b.entry_block();
    let x = b.def(entry, "x");
    let c = b.def(entry, "c");
    let preds: Vec<_> = (0..19).map(|_| b.new_block()).collect();
    let join = b.new_block();
    let hot = b.new_block();
    b.set_loop_depth(hot, 18);
    b.jump(entry, preds[0]);
    for (i, &p) in preds.iter().enumerate() {
        b.set_loop_depth(p, 18);
        match preds.get(i + 1) {
            Some(&next) => b.branch(p, c, join, next),
            None => b.jump(p, join),
        }
    }
    let args: Vec<_> = preds.iter().map(|&p| (p, x)).collect();
    let mut y = b.phi(join, "p", &args);
    b.jump(join, hot);
    for i in 0..19 {
        y = b.copy(hot, format!("y{i}"), y);
    }
    b.ret(hot, &[y]);
    b.finish()
}

#[test]
fn weight_sums_saturate_instead_of_wrapping() {
    use coalesce_alloc::biased::biased_select;
    use coalesce_core::affinity::{Affinity, AffinityGraph, Coalescing};
    use coalesce_graph::{Graph, VertexId};
    use coalesce_ir::spill::{SpillInput, SpillerKind};
    use coalesce_ir::{InterferenceGraph, Liveness, Var};

    let f = saturating_weights_program();
    let (x, c, p) = (Var::new(0), Var::new(1), Var::new(2));

    // The 19 φ arguments merge into one saturated affinity.
    let ig = InterferenceGraph::build(&f, &Liveness::compute(&f));
    let phi = ig.affinities.iter().find(|a| (a.a, a.b) == (x, p)).unwrap();
    assert_eq!(phi.weight, u64::MAX);
    assert_eq!(ig.total_affinity_weight(), u64::MAX);

    // Coalescing statistics over the saturated affinity.
    let ag = AffinityGraph::from_interference(&ig);
    assert_eq!(ag.total_weight(), u64::MAX);
    let stats = Coalescing::identity(&ag.graph).stats(&ag.affinities);
    assert_eq!(stats.total_weight, u64::MAX);
    assert_eq!(stats.coalesced_weight, 0);

    // x's spill cost saturates; spilling it with c sums past u64::MAX.
    let run = SpillInput::analyze(&f).spill(SpillerKind::Everywhere, 0);
    assert!(run.spilled.contains(&x) && run.spilled.contains(&c));
    assert_eq!(run.spill_weight, u64::MAX);

    // The lowered function's 19 φ copies and 19 chain copies all weigh
    // 10^18: the move costs saturate, whatever the allocator removes.
    for strategy in CoalescingStrategy::ALL {
        let outcome = ssa_allocate(&f, 4, strategy);
        let costs = outcome.assignment.move_costs(&outcome.function);
        assert_eq!(costs.total_weight, u64::MAX, "{strategy:?}");
        assert!(costs.eliminated_weight <= costs.total_weight);
    }

    // Biased select sums the weights of same-colored partners: vertex 2
    // prefers color 0 with weight `u64::MAX + 5`, saturated.
    let ag = AffinityGraph::new(
        Graph::new(3),
        vec![
            Affinity::weighted(VertexId::new(0), VertexId::new(2), u64::MAX),
            Affinity::weighted(VertexId::new(1), VertexId::new(2), 5),
        ],
    );
    let order = [0, 1, 2].map(VertexId::new);
    let select = biased_select(&ag, 2, &order);
    assert_eq!(select.coloring.color_of(VertexId::new(2)), Some(0));
}
