//! One-call comparison of the allocator configurations.
//!
//! The end-to-end experiments (E8, E10) ask the same question the paper's
//! introduction asks: *for a given program and register count, how do the
//! allocator families compare in spills and in remaining moves?*  This
//! module runs every configuration on the same input function and collects
//! one [`AllocationReport`] per configuration — the rows of the printed
//! tables.

use crate::assignment::{MoveCosts, RegisterAssignment};
use crate::chaitin::{chaitin_allocate, ChaitinConfig};
use crate::ssa_based::{ssa_allocate, CoalescingStrategy};
use coalesce_ir::function::Function;
use std::fmt;

/// An allocator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// The Chaitin–Briggs loop (iterated register coalescing inside, spill
    /// code insertion and rebuild outside).
    ChaitinBriggs,
    /// The two-phase SSA-based allocator with the given coalescing strategy
    /// for its second phase.
    SsaBased(CoalescingStrategy),
}

impl AllocatorKind {
    /// Every configuration the comparison tables report, in order.
    pub fn all() -> Vec<AllocatorKind> {
        let mut kinds = vec![AllocatorKind::ChaitinBriggs];
        kinds.extend(
            CoalescingStrategy::ALL
                .iter()
                .map(|&s| AllocatorKind::SsaBased(s)),
        );
        kinds
    }

    /// Short name used in tables.
    pub fn name(self) -> String {
        match self {
            AllocatorKind::ChaitinBriggs => "chaitin-briggs".to_string(),
            AllocatorKind::SsaBased(s) => format!("ssa/{}", s.name()),
        }
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The measurements reported for one allocator configuration on one input.
#[derive(Debug, Clone)]
pub struct AllocationReport {
    /// Which configuration produced this row.
    pub kind: AllocatorKind,
    /// Number of registers the run targeted.
    pub registers: usize,
    /// Whether the final assignment passed validation.
    pub valid: bool,
    /// Values spilled to memory (first-phase spills plus any vertex the
    /// coloring could not handle).
    pub spilled_values: usize,
    /// Reload temporaries inserted by spill code.
    pub reloads_inserted: usize,
    /// Move metrics of the final assignment on the final (lowered) function.
    pub moves: MoveCosts,
    /// Number of distinct registers actually used.
    pub registers_used: usize,
    /// `Maxlive` of the final (lowered) function — the lower bound any
    /// spill-free coloring must meet, reported so tables can show colors
    /// vs. pressure side by side.
    pub maxlive: usize,
}

impl AllocationReport {
    /// Formats the report as one row of a comparison table.
    pub fn row(&self) -> String {
        format!(
            "{:<22} k={:<2} spills={:<3} reloads={:<3} moves {}/{} removed (weight {}/{}) regs={} maxlive={} {}",
            self.kind.name(),
            self.registers,
            self.spilled_values,
            self.reloads_inserted,
            self.moves.eliminated_moves,
            self.moves.total_moves,
            self.moves.eliminated_weight,
            self.moves.total_weight,
            self.registers_used,
            self.maxlive,
            if self.valid { "ok" } else { "INVALID" },
        )
    }
}

impl fmt::Display for AllocationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.row())
    }
}

/// The concrete outputs of one allocator run: the final lowered function
/// and the register assignment over its variables.  [`run_allocator`]
/// summarises these into an [`AllocationReport`]; the verifier audits them
/// directly.
#[derive(Debug)]
pub struct AllocationArtifacts {
    /// The final function, with spill/reload code inserted.
    pub function: Function,
    /// The final register assignment over `function`'s variables.
    pub assignment: RegisterAssignment,
}

/// Runs one allocator configuration on `f` with `k` registers, returning
/// both the summary report and the final function + assignment.
pub fn run_allocator_with_artifacts(
    f: &Function,
    k: usize,
    kind: AllocatorKind,
) -> (AllocationReport, AllocationArtifacts) {
    let lowered_maxlive = |function: &Function| {
        coalesce_ir::liveness::Liveness::compute(function).maxlive_precise(function)
    };
    match kind {
        AllocatorKind::ChaitinBriggs => {
            let outcome = chaitin_allocate(f, ChaitinConfig::new(k));
            let moves = outcome.assignment.move_costs(&outcome.function);
            // Variables left in memory by the final round on top of those
            // the spill rounds already count.
            let mut spilled_in_rounds = vec![false; outcome.function.num_vars()];
            for v in &outcome.spilled_values {
                spilled_in_rounds[v.index()] = true;
            }
            let extra_spills = outcome
                .assignment
                .spilled()
                .iter()
                .filter(|v| !spilled_in_rounds[v.index()])
                .count();
            let report = AllocationReport {
                kind,
                registers: k,
                valid: outcome.assignment.is_valid(&outcome.function, k),
                spilled_values: outcome.spilled_values.len() + extra_spills,
                reloads_inserted: outcome.reloads_inserted,
                moves,
                registers_used: outcome.assignment.registers_used(),
                maxlive: lowered_maxlive(&outcome.function),
            };
            (
                report,
                AllocationArtifacts {
                    function: outcome.function,
                    assignment: outcome.assignment,
                },
            )
        }
        AllocatorKind::SsaBased(strategy) => {
            let outcome = ssa_allocate(f, k, strategy);
            let moves = outcome.assignment.move_costs(&outcome.function);
            let report = AllocationReport {
                kind,
                registers: k,
                valid: outcome.assignment.is_valid(&outcome.function, k),
                spilled_values: outcome.spilled_values.len() + outcome.uncolored.len(),
                reloads_inserted: outcome.reloads_inserted,
                moves,
                registers_used: outcome.assignment.registers_used(),
                maxlive: outcome.maxlive,
            };
            (
                report,
                AllocationArtifacts {
                    function: outcome.function,
                    assignment: outcome.assignment,
                },
            )
        }
    }
}

/// Runs one allocator configuration on `f` with `k` registers.
pub fn run_allocator(f: &Function, k: usize, kind: AllocatorKind) -> AllocationReport {
    let _span = coalesce_stats::span!("alloc/run");
    coalesce_stats::counter!("alloc.runs");
    run_allocator_with_artifacts(f, k, kind).0
}

/// Runs every allocator configuration on `f` with `k` registers.
pub fn compare_allocators(f: &Function, k: usize) -> Vec<AllocationReport> {
    AllocatorKind::all()
        .into_iter()
        .map(|kind| run_allocator(f, k, kind))
        .collect()
}

/// Formats a full comparison as a printable multi-line table.
pub fn comparison_table(reports: &[AllocationReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_ir::function::FunctionBuilder;

    fn sample_function() -> Function {
        let mut b = FunctionBuilder::new("sample");
        let entry = b.entry_block();
        let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
        let a = b.def(entry, "a");
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let x = b.op(t, "x", &[a]);
        b.jump(t, join);
        let y = b.op(e, "y", &[a]);
        b.jump(e, join);
        let m = b.phi(join, "m", &[(t, x), (e, y)]);
        let n = b.copy(join, "n", m);
        b.ret(join, &[n]);
        b.finish()
    }

    #[test]
    fn every_configuration_produces_a_valid_report_on_an_easy_input() {
        let f = sample_function();
        let reports = compare_allocators(&f, 4);
        assert_eq!(reports.len(), AllocatorKind::all().len());
        for r in &reports {
            assert!(r.valid, "{} produced an invalid allocation", r.kind);
            assert_eq!(r.spilled_values, 0, "{} spilled on an easy input", r.kind);
            assert!(r.registers_used <= 4);
        }
    }

    #[test]
    fn reports_render_as_single_rows() {
        let f = sample_function();
        let reports = compare_allocators(&f, 3);
        let table = comparison_table(&reports);
        assert_eq!(table.lines().count(), reports.len());
        for r in &reports {
            assert!(!r.row().is_empty());
            assert!(format!("{r}").contains("k=3"));
        }
    }

    #[test]
    fn coalescing_strategies_never_remove_fewer_weighted_moves_than_no_coalescing() {
        let f = sample_function();
        let none = run_allocator(&f, 3, AllocatorKind::SsaBased(CoalescingStrategy::None));
        let brute = run_allocator(
            &f,
            3,
            AllocatorKind::SsaBased(CoalescingStrategy::BruteForce),
        );
        assert!(brute.moves.eliminated_weight + 1 >= none.moves.eliminated_weight);
    }

    #[test]
    fn allocator_names_are_unique() {
        let names: std::collections::BTreeSet<String> =
            AllocatorKind::all().into_iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), AllocatorKind::all().len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(AllocatorKind::ChaitinBriggs.to_string(), "chaitin-briggs");
        assert_eq!(
            AllocatorKind::SsaBased(CoalescingStrategy::Optimistic).to_string(),
            "ssa/optimistic"
        );
    }
}
