//! Live-range splitting by copy insertion.
//!
//! Splitting — "adding register-to-register moves" (§1) — is the inverse
//! lever of coalescing: it cuts long live ranges into smaller pieces so
//! that the allocator can place different pieces in different registers (or
//! spill only some of them), at the price of move instructions that the
//! coalescer may later remove again.  The paper repeatedly stresses that
//! the *interplay* between splitting and coalescing is hard to control;
//! the end-to-end experiments (E8 and the splitting ablation) need an
//! actual splitting pass to exhibit that interplay.
//!
//! The transformation implemented here is **block-boundary splitting**: for
//! every block `B` and every variable `x` that is live on entry to `B` and
//! used inside `B`, a fresh name `x'` is introduced, a copy `x' ← x` is
//! inserted at the top of `B` (after any φ-functions), and the uses of `x`
//! inside `B` that occur before `x` is redefined are renamed to `x'`.  The
//! original `x` keeps carrying the value across `B` for later blocks, so
//! the transformation is semantics-preserving on arbitrary (SSA or
//! non-SSA) strict code; every inserted copy is a new affinity for the
//! coalescer.
//!
//! When `x` is *not* live out of `B` (and not used by a later redefinition
//! point), its live range now ends at the inserted copy, which is the
//! pressure-reducing effect splitting is used for in practice.

use crate::function::{Function, Instr, Var};
use crate::liveness::Liveness;

/// Statistics returned by the splitting passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplitStats {
    /// Number of copy instructions inserted.
    pub copies_inserted: usize,
    /// Number of fresh variables introduced.
    pub new_variables: usize,
    /// Number of (block, variable) pairs that were split.
    pub split_points: usize,
}

/// Splits every variable at every block boundary where it is live-in and
/// locally used.  Returns statistics about the inserted copies.
///
/// The function is left valid (it still passes [`Function::validate`]); the
/// caller typically recomputes [`Liveness`] and rebuilds the interference
/// graph afterwards.
pub fn split_at_block_boundaries(f: &mut Function) -> SplitStats {
    let vars: Vec<Var> = (0..f.num_vars()).map(Var::new).collect();
    split_variables_at_block_boundaries(f, &vars)
}

/// Splits only the given variables at block boundaries.  Variables not
/// live-in or not used in a block are left untouched in that block; a
/// variable listed twice is split once.
pub fn split_variables_at_block_boundaries(f: &mut Function, vars: &[Var]) -> SplitStats {
    let liveness = Liveness::compute(f);
    let mut stats = SplitStats::default();
    for b in f.block_ids() {
        // The copies go to the top of the block (after any φ-functions),
        // each before the previous one, in one splice per block.
        let phi_end = f.num_phis_in(b);
        let mut copies: Vec<(usize, Instr)> = Vec::new();
        for &x in vars {
            if !liveness.is_live_in(b, x) {
                continue;
            }
            // Find the uses of x in the block body (and terminator) that
            // happen before x is redefined; skip φ-functions entirely
            // (their arguments are uses on the incoming edges).
            let mut redefined_at: Option<usize> = None;
            let mut has_use = false;
            for (i, instr) in f.block_instrs(b).enumerate() {
                if instr.is_phi() {
                    // A φ defining x counts as a redefinition at the top.
                    if instr.def() == Some(x) {
                        redefined_at = Some(i);
                        break;
                    }
                    continue;
                }
                if instr.local_uses().contains(&x) {
                    has_use = true;
                }
                if instr.def() == Some(x) {
                    redefined_at = Some(i);
                    break;
                }
            }
            let terminator_uses = redefined_at.is_none() && f.terminator(b).uses().contains(&x);
            if !has_use && !terminator_uses {
                continue;
            }
            if redefined_at.is_some() && !has_use {
                continue;
            }

            // Rename the uses before the redefinition point, then record
            // the copy.
            let fresh = f.derive_var(x, &format!(".split.{}", b.index()));
            let limit = redefined_at.unwrap_or(f.num_instrs(b));
            for i in phi_end..limit.max(phi_end) {
                for u in f.uses_mut(b, i).iter_mut().filter(|u| **u == x) {
                    *u = fresh;
                }
            }
            if redefined_at.is_none() {
                for u in f
                    .terminator_mut(b)
                    .uses_mut()
                    .iter_mut()
                    .filter(|u| **u == x)
                {
                    *u = fresh;
                }
            }
            copies.push((phi_end, Instr::Copy { dst: fresh, src: x }));
            stats.copies_inserted += 1;
            stats.new_variables += 1;
            stats.split_points += 1;
        }
        if !copies.is_empty() {
            copies.reverse();
            f.splice(b, copies);
        }
    }
    debug_assert!(
        f.validate().is_ok(),
        "splitting produced an invalid function"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::interference::InterferenceGraph;

    /// entry defines x and c, branches to two blocks that both use x, which
    /// join and return a φ of their results.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.def(entry, "x");
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.op(t, "y", &[x]);
        b.jump(t, join);
        let z = b.op(e, "z", &[x]);
        b.jump(e, join);
        let w = b.phi(join, "w", &[(t, y), (e, z)]);
        b.ret(join, &[w]);
        b.finish()
    }

    #[test]
    fn splitting_inserts_one_copy_per_block_using_a_live_in() {
        let mut f = diamond();
        let before_copies = f.num_copies();
        let stats = split_at_block_boundaries(&mut f);
        // x is live into both branch blocks and used there; c is consumed by
        // the entry terminator only (not live into any block); y and z are
        // φ-arguments, used on the edges, not inside join's body.
        assert_eq!(stats.copies_inserted, 2);
        assert_eq!(stats.new_variables, 2);
        assert_eq!(f.num_copies(), before_copies + 2);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn splitting_preserves_liveness_derived_interference_soundness() {
        let mut f = diamond();
        split_at_block_boundaries(&mut f);
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        // The split copies appear as affinities.
        assert!(ig.affinity_edges().len() >= 2);
        // Every split variable interferes with nothing it does not overlap:
        // in particular the two per-branch split copies of x never coexist.
        let split_vars: Vec<Var> = (0..f.num_vars())
            .map(Var::new)
            .filter(|&v| f.var_name(v).is_some_and(|n| n.contains(".split.")))
            .collect();
        assert_eq!(split_vars.len(), 2);
        assert!(!ig.interferes(split_vars[0], split_vars[1]));
    }

    #[test]
    fn uses_after_a_redefinition_are_not_renamed() {
        let mut b = FunctionBuilder::new("redef");
        let entry = b.entry_block();
        let body = b.new_block();
        let x = b.def(entry, "x");
        b.jump(entry, body);
        // use x, then redefine x, then use the new x.
        let y = b.op(body, "y", &[x]);
        b.copy_to(body, x, y); // x = y, a redefinition of x
        let z = b.op(body, "z", &[x]);
        b.ret(body, &[z]);
        let mut f = b.finish();

        let stats = split_at_block_boundaries(&mut f);
        assert_eq!(stats.copies_inserted, 1);
        assert!(f.validate().is_ok());
        // The use of x in `y = op(x)` is renamed, the use in `z = op(x)`
        // (after the redefinition) is not.
        let body_block = crate::function::BlockId::new(1);
        let op_uses = |name: &str| -> Vec<Var> {
            f.block_instrs(body_block)
                .find_map(|i| match i {
                    crate::function::InstrView::Op { dst: Some(d), uses }
                        if f.var_name(d) == Some(name) =>
                    {
                        Some(uses.to_vec())
                    }
                    _ => None,
                })
                .unwrap()
        };
        let first_op_uses = op_uses("y");
        let last_op_uses = op_uses("z");
        assert_ne!(
            first_op_uses[0], x,
            "use before redefinition must be renamed"
        );
        assert_eq!(
            last_op_uses[0], x,
            "use after redefinition must keep the original"
        );
    }

    #[test]
    fn splitting_only_selected_variables_leaves_others_alone() {
        let mut f = diamond();
        let x = Var::new(0);
        let stats = split_variables_at_block_boundaries(&mut f, &[x]);
        assert_eq!(stats.copies_inserted, 2);
        let mut g = diamond();
        let none = split_variables_at_block_boundaries(&mut g, &[]);
        assert_eq!(none.copies_inserted, 0);
        assert_eq!(g.num_copies(), diamond().num_copies());
    }

    #[test]
    fn terminator_only_uses_are_split_too() {
        let mut b = FunctionBuilder::new("ret_use");
        let entry = b.entry_block();
        let next = b.new_block();
        let x = b.def(entry, "x");
        b.jump(entry, next);
        b.ret(next, &[x]);
        let mut f = b.finish();
        let stats = split_at_block_boundaries(&mut f);
        assert_eq!(stats.copies_inserted, 1);
        assert!(f.validate().is_ok());
        // The return now uses the split name, which is copy-defined from x.
        match f.terminator(crate::function::BlockId::new(1)) {
            crate::function::Terminator::Return { uses } => {
                assert_eq!(uses.len(), 1);
                assert_ne!(uses[0], x);
            }
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    #[test]
    fn splitting_is_idempotent_on_functions_without_cross_block_uses() {
        let mut b = FunctionBuilder::new("local_only");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.op(entry, "y", &[x]);
        b.ret(entry, &[y]);
        let mut f = b.finish();
        let stats = split_at_block_boundaries(&mut f);
        // Nothing is live across a block boundary, so nothing is split.
        assert_eq!(stats.copies_inserted, 0);
    }
}
