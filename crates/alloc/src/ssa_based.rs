//! The two-phase, SSA-based register allocator.
//!
//! The paper's §1 describes the allocator architecture that recent SSA
//! results enable (Appel–George, Hack–Grund–Goos, Bouchez et al., Brisk et
//! al., Pereira–Palsberg): because the interference graph of a strict SSA
//! program is chordal with `ω = Maxlive` (Theorem 1), one can
//!
//! 1. **spill first**, bringing `Maxlive` down to the number of registers
//!    `k` while the graph is still chordal and easy to reason about;
//! 2. **then color and coalesce**, with *no additional spill*: the graph is
//!    `k`-colorable by construction, and the whole difficulty moves to the
//!    coalescing of the many copies that the out-of-SSA translation (and
//!    any live-range splitting) introduced — exactly the regime in which
//!    the paper shows conservative coalescing is hard and local rules are
//!    too weak.
//!
//! [`ssa_allocate`] implements that pipeline on top of the rest of the
//! workspace: spill to pressure (`coalesce_ir::spill`), translate out of
//! SSA (`coalesce_ir::out_of_ssa`), coalesce with a configurable strategy
//! (`coalesce_core`), then run a biased select phase ([`crate::biased`])
//! over the coalesced graph.

use crate::assignment::RegisterAssignment;
use crate::biased;
use coalesce_core::affinity::AffinityGraph;
use coalesce_core::affinity::Coalescing;
use coalesce_core::conservative::{conservative_coalesce, ConservativeRule};
use coalesce_core::optimistic::optimistic_coalesce;
use coalesce_graph::{greedy, VertexId};
use coalesce_ir::function::{Function, Var};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::SpillerKind;
use coalesce_ir::{out_of_ssa, ssa};

/// Which coalescing strategy the second phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalescingStrategy {
    /// No coalescing at all: rely only on the biased select phase.
    None,
    /// Incremental conservative coalescing with Briggs' rule.
    Briggs,
    /// Incremental conservative coalescing with Briggs' and George's rules.
    BriggsGeorge,
    /// Incremental conservative coalescing with the brute-force test
    /// (merge, then check greedy-`k`-colorability of the whole graph).
    BruteForce,
    /// Optimistic coalescing: aggressive merge then de-coalescing.
    Optimistic,
}

impl CoalescingStrategy {
    /// All strategies, in the order the comparison tables report them.
    pub const ALL: [CoalescingStrategy; 5] = [
        CoalescingStrategy::None,
        CoalescingStrategy::Briggs,
        CoalescingStrategy::BriggsGeorge,
        CoalescingStrategy::BruteForce,
        CoalescingStrategy::Optimistic,
    ];

    /// Short human-readable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            CoalescingStrategy::None => "none",
            CoalescingStrategy::Briggs => "briggs",
            CoalescingStrategy::BriggsGeorge => "briggs+george",
            CoalescingStrategy::BruteForce => "brute-force",
            CoalescingStrategy::Optimistic => "optimistic",
        }
    }
}

/// Outcome of the two-phase allocator.
#[derive(Debug, Clone)]
pub struct SsaAllocOutcome {
    /// The lowered function (spilled, out of SSA).
    pub function: Function,
    /// The final register assignment.
    pub assignment: RegisterAssignment,
    /// Values spilled by the first phase.
    pub spilled_values: Vec<Var>,
    /// Reload temporaries inserted by the first phase.
    pub reloads_inserted: usize,
    /// `Maxlive` of the lowered function (after spilling).
    pub maxlive: usize,
    /// Whether the pre-spill SSA interference graph was chordal (it always
    /// should be — recorded as a sanity signal for the experiments).
    pub ssa_graph_chordal: bool,
    /// Number of affinities (move-related pairs) in the lowered function.
    pub affinities: usize,
    /// Affinities removed by the coalescing phase (same class).
    pub coalesced: usize,
    /// Additional moves removed "for free" by the biased select phase
    /// (endpoints in different classes that still got the same color).
    pub bias_eliminated: usize,
    /// Vertices the select phase could not color (should be empty when the
    /// spilling phase reached `Maxlive ≤ k`; non-empty values are counted
    /// as extra spills by the report).
    pub uncolored: Vec<Var>,
}

/// Runs the two-phase SSA-based allocator with `k` registers and the given
/// coalescing strategy.
///
/// The input is converted to SSA first if it is not already in SSA form.
/// Spilling uses the default [`SpillerKind::PressureGreedy`] strategy; use
/// [`ssa_allocate_with_spiller`] to pick another spiller from the zoo.
pub fn ssa_allocate(f: &Function, k: usize, strategy: CoalescingStrategy) -> SsaAllocOutcome {
    ssa_allocate_with_spiller(f, k, strategy, SpillerKind::PressureGreedy)
}

/// Like [`ssa_allocate`], with the pressure-lowering phase delegated to an
/// explicit [`SpillerKind`] (both the main round on the SSA form and the
/// corrective round after the out-of-SSA translation use it).
pub fn ssa_allocate_with_spiller(
    f: &Function,
    k: usize,
    strategy: CoalescingStrategy,
    spiller: SpillerKind,
) -> SsaAllocOutcome {
    let mut function = if ssa::is_ssa(f) {
        f.clone()
    } else {
        ssa::construct_ssa(f)
    };

    // Record the Theorem 1 sanity signal on the SSA form before any rewrite.
    let ssa_graph_chordal = {
        let live = Liveness::compute(&function);
        let ig = InterferenceGraph::build(&function, &live);
        coalesce_graph::chordal::is_chordal(&ig.graph)
    };

    // Phase 1: spill to pressure, then translate out of SSA.
    let spill_result = spiller.run(&mut function, k);
    out_of_ssa::destruct_ssa(&mut function);
    // Lowering can locally bump the pressure back up (copy cycles need a
    // temporary); one cheap corrective round keeps the promise of the
    // two-phase design as close as the spiller allows.
    let correction = spiller.run(&mut function, k);

    let liveness = Liveness::compute(&function);
    let maxlive = liveness.maxlive_precise(&function);
    let ig = InterferenceGraph::build(&function, &liveness);
    let ag = AffinityGraph::from_interference(&ig);

    // Phase 2: coalesce, then biased select on the coalesced graph.
    let coalescing = match strategy {
        CoalescingStrategy::None => Coalescing::identity(&ag.graph),
        CoalescingStrategy::Briggs => {
            conservative_coalesce(&ag, k, ConservativeRule::Briggs).coalescing
        }
        CoalescingStrategy::BriggsGeorge => {
            conservative_coalesce(&ag, k, ConservativeRule::BriggsGeorge).coalescing
        }
        CoalescingStrategy::BruteForce => {
            conservative_coalesce(&ag, k, ConservativeRule::BruteForce).coalescing
        }
        CoalescingStrategy::Optimistic => optimistic_coalesce(&ag, k).coalescing,
    };
    let mut coalescing = coalescing;
    let coalesced = ag
        .affinities
        .iter()
        .filter(|aff| coalescing.class_of(aff.a) == coalescing.class_of(aff.b))
        .count();

    // Build the residual affinity graph on class representatives so that the
    // biased select can still chase the uncoalesced moves.  Only the class
    // map is read from here on, so the merged graph moves out.
    let merged_graph = std::mem::take(&mut coalescing.merged_graph);
    let residual_affinities: Vec<coalesce_core::affinity::Affinity> = ag
        .affinities
        .iter()
        .filter_map(|aff| {
            let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
            if ra == rb || merged_graph.has_edge(ra, rb) {
                None
            } else {
                Some(coalesce_core::affinity::Affinity::weighted(
                    ra, rb, aff.weight,
                ))
            }
        })
        .collect();
    let residual = AffinityGraph {
        graph: merged_graph,
        affinities: residual_affinities,
    };

    // `smallest_last_order` already returns the select (stack-pop) order,
    // which uses at most `col(G)` colors — so a greedy-`k`-colorable merged
    // graph is always fully colored here.
    let order = greedy::smallest_last_order(&residual.graph);
    let select = biased::biased_select(&residual, k, &order);

    // Count the moves removed purely by color coincidence (not by class
    // merging).
    let bias_eliminated = ag
        .affinities
        .iter()
        .filter(|aff| {
            let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
            ra != rb
                && matches!(
                    (select.coloring.color_of(ra), select.coloring.color_of(rb)),
                    (Some(ca), Some(cb)) if ca == cb
                )
        })
        .count();

    // Expand class colors to variables.
    let mut assignment = RegisterAssignment::new();
    let mut uncolored = Vec::new();
    for i in 0..function.num_vars() {
        let var = Var::new(i);
        let vertex = VertexId::new(i);
        if !ag.graph.is_live(vertex) {
            continue;
        }
        let rep = coalescing.class_of(vertex);
        match select.coloring.color_of(rep) {
            Some(c) => assignment.assign(var, c),
            None => {
                assignment.spill(var);
                uncolored.push(var);
            }
        }
    }

    let mut spilled_values = spill_result.spilled;
    spilled_values.extend(correction.spilled);

    SsaAllocOutcome {
        assignment,
        spilled_values,
        reloads_inserted: spill_result.reloads + correction.reloads,
        maxlive,
        ssa_graph_chordal,
        affinities: ag.num_affinities(),
        coalesced,
        bias_eliminated,
        uncolored,
        function,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_ir::function::FunctionBuilder;

    fn diamond_chain() -> Function {
        let mut b = FunctionBuilder::new("chain");
        let entry = b.entry_block();
        let mut current = entry;
        let mut x = b.def(entry, "x0");
        for d in 0..3 {
            let c = b.def(current, format!("c{d}"));
            let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
            b.branch(current, c, t, e);
            let yt = b.op(t, format!("t{d}"), &[x]);
            b.jump(t, join);
            let ye = b.op(e, format!("e{d}"), &[x]);
            b.jump(e, join);
            x = b.phi(join, format!("x{}", d + 1), &[(t, yt), (e, ye)]);
            current = join;
        }
        b.ret(current, &[x]);
        b.finish()
    }

    #[test]
    fn two_phase_allocation_is_valid_and_spill_free_at_generous_k() {
        let f = diamond_chain();
        for strategy in CoalescingStrategy::ALL {
            let outcome = ssa_allocate(&f, 4, strategy);
            assert!(outcome.ssa_graph_chordal, "{strategy:?}");
            assert!(outcome.spilled_values.is_empty(), "{strategy:?}");
            assert!(outcome.uncolored.is_empty(), "{strategy:?}");
            assert!(
                outcome.assignment.is_valid(&outcome.function, 4),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn out_of_ssa_lowering_creates_affinities_and_coalescing_removes_them() {
        let f = diamond_chain();
        let none = ssa_allocate(&f, 4, CoalescingStrategy::None);
        assert!(none.affinities > 0);
        let brute = ssa_allocate(&f, 4, CoalescingStrategy::BruteForce);
        assert!(brute.coalesced >= 1);
        // Coalescing (plus bias) never removes fewer moves than bias alone.
        let removed_none = none.coalesced + none.bias_eliminated;
        let removed_brute = brute.coalesced + brute.bias_eliminated;
        assert!(removed_brute >= removed_none.min(brute.affinities));
    }

    #[test]
    fn pressure_is_reduced_to_k_under_tight_registers() {
        let f = diamond_chain();
        let outcome = ssa_allocate(&f, 2, CoalescingStrategy::BriggsGeorge);
        assert!(
            outcome.maxlive <= 2 + 1,
            "maxlive {} too high",
            outcome.maxlive
        );
        assert!(outcome.assignment.is_valid(&outcome.function, 2));
    }

    #[test]
    fn non_ssa_input_is_converted_first() {
        let mut b = FunctionBuilder::new("non_ssa");
        let entry = b.entry_block();
        let next = b.new_block();
        let x = b.def(entry, "x");
        b.jump(entry, next);
        let y = b.op(next, "y", &[x]);
        b.copy_to(next, x, y); // redefinition: not SSA
        b.ret(next, &[x]);
        let f = b.finish();
        assert!(!ssa::is_ssa(&f));
        let outcome = ssa_allocate(&f, 2, CoalescingStrategy::Briggs);
        assert!(outcome.assignment.is_valid(&outcome.function, 2));
    }

    #[test]
    fn every_spiller_kind_yields_a_valid_allocation() {
        let f = diamond_chain();
        for spiller in SpillerKind::ALL {
            let outcome =
                ssa_allocate_with_spiller(&f, 3, CoalescingStrategy::BriggsGeorge, spiller);
            assert!(
                outcome.assignment.is_valid(&outcome.function, 3),
                "{spiller:?}"
            );
            assert!(outcome.uncolored.is_empty(), "{spiller:?}");
        }
    }

    #[test]
    fn default_spiller_matches_the_explicit_pressure_greedy_path() {
        let f = diamond_chain();
        let a = ssa_allocate(&f, 3, CoalescingStrategy::Briggs);
        let b = ssa_allocate_with_spiller(
            &f,
            3,
            CoalescingStrategy::Briggs,
            SpillerKind::PressureGreedy,
        );
        assert_eq!(a.spilled_values, b.spilled_values);
        assert_eq!(a.reloads_inserted, b.reloads_inserted);
        assert_eq!(a.maxlive, b.maxlive);
    }

    #[test]
    fn strategy_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            CoalescingStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), CoalescingStrategy::ALL.len());
    }
}
