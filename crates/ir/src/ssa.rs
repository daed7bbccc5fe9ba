//! SSA construction and validation.
//!
//! [`construct_ssa`] rewrites a function with arbitrary (multiply-defined)
//! variables into strict SSA form using the classical Cytron et al.
//! algorithm: φ-functions are placed at the iterated dominance frontier of
//! every variable's definition blocks, pruned to the blocks where the
//! variable is live-in, then variables are renamed along the dominator
//! tree.  [`is_ssa`] and [`is_strict`] check the two defining
//! properties of strict SSA that Theorem 1 relies on: unique textual
//! definitions, and definitions dominating uses.

use crate::dom::DominatorTree;
use crate::function::{BlockId, Function, Instr, InstrView, Var};
use crate::liveness::Liveness;
use std::collections::BTreeSet;

/// Returns `true` if every variable of `f` has at most one definition.
pub fn is_ssa(f: &Function) -> bool {
    let mut defined = vec![false; f.num_vars()];
    for (_, _, instr) in f.instructions() {
        if let Some(d) = instr.def() {
            if defined[d.index()] {
                return false;
            }
            defined[d.index()] = true;
        }
    }
    true
}

/// Returns `true` if `f` is in *strict* SSA form: single definitions and
/// every use dominated by the definition of the used variable.
///
/// φ-function arguments are considered used at the end of the corresponding
/// predecessor block.
pub fn is_strict(f: &Function) -> bool {
    if !is_ssa(f) {
        return false;
    }
    let dom = DominatorTree::compute(f);
    // Definition site (block) of every variable.
    let mut def_block: Vec<Option<BlockId>> = vec![None; f.num_vars()];
    let mut def_pos: Vec<usize> = vec![usize::MAX; f.num_vars()];
    for (b, i, instr) in f.instructions() {
        if let Some(d) = instr.def() {
            def_block[d.index()] = Some(b);
            def_pos[d.index()] = i;
        }
    }
    let use_dominated = |used: Var, block: BlockId, pos: usize| -> bool {
        match def_block[used.index()] {
            None => false, // used but never defined
            Some(db) => {
                if db == block {
                    def_pos[used.index()] < pos
                } else {
                    dom.dominates(db, block)
                }
            }
        }
    };
    for b in f.block_ids() {
        if !dom.is_reachable(b) {
            continue;
        }
        for (i, instr) in f.block_instrs(b).enumerate() {
            match instr {
                InstrView::Phi { args, .. } => {
                    for a in args {
                        // Used at the end of the predecessor.
                        if !use_dominated(a.value, a.pred, usize::MAX - 1) {
                            return false;
                        }
                    }
                }
                _ => {
                    for &v in instr.local_uses() {
                        if !use_dominated(v, b, i) {
                            return false;
                        }
                    }
                }
            }
        }
        for &v in f.terminator(b).uses() {
            if !use_dominated(v, b, usize::MAX - 1) {
                return false;
            }
        }
    }
    true
}

/// Converts `f` into strict SSA form.
///
/// Singly-defined variables are left untouched; every other variable gets
/// fresh names per definition and φ-functions at the blocks of its
/// iterated dominance frontier where it is live-in (pruned SSA: a dead φ
/// would need an argument from a predecessor the variable may not reach).
///
/// # Panics
///
/// Panics if a reachable use has no reaching definition on some path (the
/// input must be a *strict* program in the paper's sense).  A variable
/// that is dead where its definitions meet, such as one a lowered function
/// defines only inside a loop, gets no φ there and needs no definition
/// before the loop.
pub fn construct_ssa(f: &Function) -> Function {
    let mut out = f.clone();
    let dom = DominatorTree::compute(&out);
    let preds = out.predecessors();

    // 1. Collect definition blocks per original variable.
    let num_orig = out.num_vars();
    let mut def_blocks: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); num_orig];
    let mut def_count: Vec<usize> = vec![0; num_orig];
    for (b, _, instr) in out.instructions() {
        if let Some(d) = instr.def() {
            def_blocks[d.index()].insert(b);
            def_count[d.index()] += 1;
        }
    }
    // A variable needs renaming as soon as it has more than one textual
    // definition (even within a single block).
    let needs_rename: Vec<bool> = def_count.iter().map(|&c| c > 1).collect();

    // 2. Place φ-functions at iterated dominance frontiers where the
    // variable is live-in, defining the *original* variable for now
    // (renaming replaces both the def and the args).  Each block's φs are
    // appended to its φ-group in placement order, with one splice per
    // block.
    let frontiers = dom.dominance_frontiers(&out);
    let live = Liveness::compute(f);
    let mut placed: Vec<Vec<(usize, Instr)>> = vec![Vec::new(); out.num_blocks()];
    for (v, blocks) in def_blocks.iter().enumerate() {
        if blocks.len() <= 1 {
            // A single static definition never needs a φ for correctness of
            // renaming (its definition dominates every use in a strict
            // program).
            continue;
        }
        let var = Var::new(v);
        let mut work: Vec<BlockId> = blocks.iter().copied().collect();
        let mut has_phi: BTreeSet<BlockId> = BTreeSet::new();
        while let Some(b) = work.pop() {
            for &y in &frontiers[b.index()] {
                if has_phi.insert(y) && live.is_live_in(y, var) {
                    let args: Vec<(BlockId, Var)> =
                        preds[y.index()].iter().map(|&p| (p, var)).collect();
                    let pos = out.num_phis_in(y);
                    placed[y.index()].push((pos, Instr::Phi { dst: var, args }));
                    if !blocks.contains(&y) {
                        work.push(y);
                    }
                }
            }
        }
    }
    for (y, phis) in out.block_ids().zip(placed) {
        if !phis.is_empty() {
            out.splice(y, phis);
        }
    }

    // 3. Rename in place along the dominator tree.
    let mut stacks: Vec<Vec<Var>> = vec![Vec::new(); num_orig];
    let children = dom.children();

    // Recursive renaming over the dominator tree, iteratively with an
    // explicit stack of (block, phase) where phase 0 = enter, 1 = exit.
    #[derive(Clone, Copy)]
    enum Phase {
        Enter,
        Exit,
    }
    let mut stack = vec![(out.entry, Phase::Enter)];
    // Remember how many names each block pushed per variable, to pop on exit.
    let mut pushed: Vec<Vec<(usize, usize)>> = vec![Vec::new(); out.num_blocks()];

    while let Some((b, phase)) = stack.pop() {
        match phase {
            Phase::Enter => {
                stack.push((b, Phase::Exit));
                let mut pushes: Vec<(usize, usize)> = Vec::new();
                // Rename uses, then definitions, inside the block.  A φ's
                // args are renamed from the predecessors (below).
                for i in 0..out.num_instrs(b) {
                    for u in out.uses_mut(b, i) {
                        *u = rename_use(*u, &stacks, num_orig, &needs_rename);
                    }
                    if let Some(d) = out.instr(b, i).def() {
                        let nd = rename_def(
                            d,
                            &mut stacks,
                            &mut pushes,
                            &mut out,
                            f,
                            num_orig,
                            &needs_rename,
                            b,
                        );
                        out.set_def(b, i, nd);
                    }
                }
                for u in out.terminator_mut(b).uses_mut() {
                    *u = rename_use(*u, &stacks, num_orig, &needs_rename);
                }

                // Fill in φ arguments of the successors coming from `b`.
                for s in out.successors(b) {
                    for i in 0..out.num_phis_in(s) {
                        for a in out.phi_args_mut(s, i) {
                            if a.pred == b {
                                a.value = rename_use(a.value, &stacks, num_orig, &needs_rename);
                            }
                        }
                    }
                }

                pushed[b.index()] = pushes;
                for &c in children[b.index()].iter().rev() {
                    stack.push((c, Phase::Enter));
                }
            }
            Phase::Exit => {
                for &(ov, n) in &pushed[b.index()] {
                    for _ in 0..n {
                        stacks[ov].pop();
                    }
                }
            }
        }
    }

    out
}

fn rename_use(v: Var, stacks: &[Vec<Var>], num_orig: usize, needs_rename: &[bool]) -> Var {
    if v.index() < num_orig && needs_rename[v.index()] {
        *stacks[v.index()].last().unwrap_or_else(|| {
            panic!("use of {v:?} with no reaching definition (non-strict program)")
        })
    } else {
        v
    }
}

#[allow(clippy::too_many_arguments)]
fn rename_def(
    d: Var,
    stacks: &mut [Vec<Var>],
    pushes: &mut Vec<(usize, usize)>,
    renamed: &mut Function,
    original: &Function,
    num_orig: usize,
    needs_rename: &[bool],
    b: BlockId,
) -> Var {
    if d.index() < num_orig && needs_rename[d.index()] {
        let nv = match original.var_name(d) {
            Some(n) => {
                let name = format!("{n}_{}", b.index());
                renamed.new_var(name)
            }
            None => renamed.new_var(""),
        };
        stacks[d.index()].push(nv);
        pushes.push((d.index(), 1));
        nv
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;

    /// A diamond where `x` is assigned in both branches and used after.
    fn non_ssa_diamond() -> Function {
        let mut b = FunctionBuilder::new("f");
        let entry = b.entry_block();
        let then_ = b.new_block();
        let else_ = b.new_block();
        let join = b.new_block();
        let c = b.def(entry, "c");
        let x = b.def(entry, "x"); // x = ...
        b.branch(entry, c, then_, else_);
        // then: x = op(x)
        b.function_mut().push_instr(
            then_,
            Instr::Op {
                dst: Some(x),
                uses: vec![x],
            },
        );
        b.jump(then_, join);
        // else: x = op()
        b.function_mut().push_instr(
            else_,
            Instr::Op {
                dst: Some(x),
                uses: vec![],
            },
        );
        b.jump(else_, join);
        b.ret(join, &[x]);
        b.finish()
    }

    #[test]
    fn detects_non_ssa() {
        let f = non_ssa_diamond();
        assert!(!is_ssa(&f));
        assert!(!is_strict(&f));
    }

    #[test]
    fn construction_produces_strict_ssa() {
        let f = non_ssa_diamond();
        let ssa = construct_ssa(&f);
        assert!(ssa.validate().is_ok(), "{}", ssa);
        assert!(is_ssa(&ssa), "{}", ssa);
        assert!(is_strict(&ssa), "{}", ssa);
        // A φ for x must have been inserted at the join block.
        assert_eq!(ssa.num_phis(), 1);
    }

    #[test]
    fn already_ssa_function_gets_no_phis() {
        let mut b = FunctionBuilder::new("straight");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.op(entry, "y", &[x]);
        b.ret(entry, &[y]);
        let f = b.finish();
        assert!(is_ssa(&f));
        assert!(is_strict(&f));
        let ssa = construct_ssa(&f);
        assert_eq!(ssa.num_phis(), 0);
        assert_eq!(ssa.num_vars(), f.num_vars());
    }

    #[test]
    fn loop_variable_gets_phi_at_header() {
        // i = 0; while (c) { i = op(i); }  return i
        let mut b = FunctionBuilder::new("loop");
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        let i = b.def(entry, "i");
        b.jump(entry, header);
        b.branch(header, c, body, exit);
        b.function_mut().push_instr(
            body,
            Instr::Op {
                dst: Some(i),
                uses: vec![i],
            },
        );
        b.jump(body, header);
        b.ret(exit, &[i]);
        let f = b.finish();
        assert!(!is_ssa(&f));
        let ssa = construct_ssa(&f);
        assert!(is_ssa(&ssa), "{}", ssa);
        assert!(is_strict(&ssa), "{}", ssa);
        // The loop header needs a φ for i.
        assert!(ssa.block_instrs(header).any(|ins| ins.is_phi()));
    }

    #[test]
    fn strictness_rejects_use_before_def() {
        // Uses y in entry without defining it anywhere dominating.
        let mut b = FunctionBuilder::new("bad");
        let entry = b.entry_block();
        let later = b.new_block();
        let y = b.fresh_var("y");
        let _ = b.op(entry, "x", &[y]);
        b.jump(entry, later);
        b.function_mut().push_instr(
            later,
            Instr::Op {
                dst: Some(y),
                uses: vec![],
            },
        );
        b.ret(later, &[]);
        let f = b.finish();
        assert!(is_ssa(&f)); // singly defined...
        assert!(!is_strict(&f)); // ...but the def does not dominate the use
    }

    #[test]
    fn ssa_construction_is_idempotent_on_its_output() {
        let f = non_ssa_diamond();
        let ssa = construct_ssa(&f);
        let again = construct_ssa(&ssa);
        assert_eq!(again.num_phis(), ssa.num_phis());
        assert_eq!(again.num_vars(), ssa.num_vars());
    }
}
