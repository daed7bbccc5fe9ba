//! Out-of-SSA translation: φ elimination.
//!
//! φ-functions are not machine code; going out of SSA replaces them with
//! register-to-register moves on the incoming edges.  This is where the
//! bulk of the coalesceable copies of the paper's aggressive-coalescing
//! problem comes from: translating out of SSA *while minimizing the number
//! of remaining moves* is exactly aggressive coalescing (§1, §3).
//!
//! The implementation:
//!
//! 1. splits critical edges (an edge from a block with several successors
//!    to a block with several predecessors) by inserting a fresh empty
//!    block, so that copies can be placed on the edge;
//! 2. gathers, for every incoming edge of a block with φs, the *parallel
//!    copy* `(dst₁ ← v₁, dst₂ ← v₂, …)`;
//! 3. sequentializes each parallel copy, introducing a temporary when the
//!    copies form a cycle (the classic *swap problem*), and appends the
//!    resulting copy instructions to the predecessor block;
//! 4. removes the φ-functions.

use crate::function::{BlockId, Function, Instr, InstrView, Terminator, Var};

/// Statistics returned by [`destruct_ssa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutOfSsaStats {
    /// Number of critical edges that were split.
    pub split_edges: usize,
    /// Number of φ-functions removed.
    pub phis_removed: usize,
    /// Number of copy instructions inserted.
    pub copies_inserted: usize,
    /// Number of cycle-breaking temporaries introduced.
    pub temps_introduced: usize,
}

/// Splits every critical edge of `f` by inserting an empty forwarding block.
///
/// Returns the number of edges split.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let mut split = 0;
    loop {
        let preds = f.predecessors();
        let mut found = None;
        'outer: for b in f.block_ids() {
            let succs = f.successors(b);
            if succs.len() < 2 {
                continue;
            }
            for s in succs {
                if preds[s.index()].len() >= 2 {
                    found = Some((b, s));
                    break 'outer;
                }
            }
        }
        let Some((from, to)) = found else { break };
        // Insert a forwarding block on the edge from -> to.
        let depth = f.loop_depth(from).min(f.loop_depth(to));
        let mid = f.add_block(Terminator::Jump(to), depth);
        f.terminator_mut(from).replace_successor(to, mid);
        // Redirect φ arguments in `to` that referred to `from`.
        for i in 0..f.num_phis_in(to) {
            for a in f.phi_args_mut(to, i) {
                if a.pred == from {
                    a.pred = mid;
                }
            }
        }
        split += 1;
    }
    split
}

/// Sequentializes a parallel copy `(dst_i ← src_i)` into an ordered list of
/// copies, introducing fresh temporaries (via `fresh_temp`) to break cycles.
///
/// All destinations must be pairwise distinct.  Copies whose source equals
/// their destination are dropped.
pub fn sequentialize_parallel_copy(
    copies: &[(Var, Var)],
    mut fresh_temp: impl FnMut() -> Var,
) -> (Vec<(Var, Var)>, usize) {
    let mut pending: Vec<(Var, Var)> = copies.iter().copied().filter(|(d, s)| d != s).collect();
    let mut out = Vec::new();
    let mut temps = 0;
    while !pending.is_empty() {
        // A copy is *free* if its destination is not the source of any other
        // pending copy: emitting it clobbers nothing still needed.
        let free_pos = pending
            .iter()
            .position(|&(d, _)| !pending.iter().any(|&(_, s2)| s2 == d));
        match free_pos {
            Some(i) => {
                let (d, s) = pending.remove(i);
                out.push((d, s));
            }
            None => {
                // Every destination is still needed as a source: the pending
                // copies contain a cycle.  Break it by saving one source.
                let (d0, s0) = pending[0];
                let t = fresh_temp();
                temps += 1;
                out.push((t, s0));
                // The copy (d0 <- s0) becomes (d0 <- t); all other pending
                // copies reading s0 keep reading s0 (it is still intact until
                // d0 is written, and d0 <- t is now free to be deferred).
                pending[0] = (d0, t);
                // Additionally, any pending copy whose source is d0 must be
                // emitted before d0 is overwritten; the loop handles this
                // because (d0 <- t)'s destination d0 is still a source, so it
                // stays non-free until those copies are emitted.
                let _ = s0;
            }
        }
    }
    (out, temps)
}

/// Translates `f` out of SSA: splits critical edges, replaces φ-functions by
/// copies on the incoming edges, and returns statistics.
pub fn destruct_ssa(f: &mut Function) -> OutOfSsaStats {
    let mut stats = OutOfSsaStats {
        split_edges: split_critical_edges(f),
        ..OutOfSsaStats::default()
    };

    // Collect parallel copies per predecessor edge.
    let mut per_pred: Vec<Vec<(Var, Var)>> = vec![Vec::new(); f.num_blocks()];
    for b in f.block_ids() {
        let phis: Vec<(Var, Vec<(BlockId, Var)>)> = f
            .phis(b)
            .filter_map(|i| match i {
                InstrView::Phi { dst, args } => {
                    Some((dst, args.iter().map(|a| (a.pred, a.value)).collect()))
                }
                _ => None,
            })
            .collect();
        for (dst, args) in &phis {
            for (pred, v) in args {
                per_pred[pred.index()].push((*dst, *v));
            }
        }
        stats.phis_removed += phis.len();
        // Remove the φs from the block in place.
        f.remove_phis(b);
    }

    let block_ids: Vec<BlockId> = f.block_ids().collect();
    for b in block_ids {
        let copies = std::mem::take(&mut per_pred[b.index()]);
        if copies.is_empty() {
            continue;
        }
        let (seq, temps) = {
            let func: &mut Function = f;
            // Cycle-breaking temporaries are unnamed: they are release-path
            // artifacts, displayed as dense indices.
            sequentialize_parallel_copy(&copies, || func.new_var(""))
        };
        stats.temps_introduced += temps;
        for (dst, src) in seq {
            f.push_instr(b, Instr::Copy { dst, src });
            stats.copies_inserted += 1;
        }
    }
    debug_assert!(f.validate().is_ok());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::liveness::Liveness;
    use crate::ssa;

    fn diamond_with_phi() -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.def(t, "y");
        b.jump(t, j);
        let z = b.def(e, "z");
        b.jump(e, j);
        let w = b.phi(j, "w", &[(t, y), (e, z)]);
        b.ret(j, &[w]);
        b.finish()
    }

    #[test]
    fn destruct_replaces_phi_with_copies() {
        let mut f = diamond_with_phi();
        let stats = destruct_ssa(&mut f);
        assert_eq!(stats.phis_removed, 1);
        assert_eq!(stats.copies_inserted, 2);
        assert_eq!(f.num_phis(), 0);
        assert_eq!(f.num_copies(), 2);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn critical_edge_is_split() {
        // entry branches to {a, join}; a jumps to join; join has a φ.
        // The edge entry -> join is critical.
        let mut b = FunctionBuilder::new("critical");
        let entry = b.entry_block();
        let a = b.new_block();
        let join = b.new_block();
        let c = b.def(entry, "c");
        let x0 = b.def(entry, "x0");
        b.branch(entry, c, a, join);
        let x1 = b.def(a, "x1");
        b.jump(a, join);
        let p = b.phi(join, "p", &[(entry, x0), (a, x1)]);
        b.ret(join, &[p]);
        let mut f = b.finish();
        let stats = destruct_ssa(&mut f);
        assert_eq!(stats.split_edges, 1);
        assert_eq!(stats.phis_removed, 1);
        assert!(f.validate().is_ok());
        // The copy for the entry->join edge must be in the new block, not in
        // entry (where it would wrongly execute on the other path too).
        let new_block = BlockId::new(f.num_blocks() - 1);
        assert_eq!(f.num_instrs(new_block), 1);
        assert!(f.instr(new_block, 0).is_copy());
    }

    #[test]
    fn swap_problem_introduces_a_temporary() {
        // Parallel copy {a <- b, b <- a} needs a temp.
        let a = Var::new(0);
        let b = Var::new(1);
        let t = Var::new(2);
        let (seq, temps) = sequentialize_parallel_copy(&[(a, b), (b, a)], || t);
        assert_eq!(temps, 1);
        assert_eq!(seq.len(), 3);
        // Simulate the sequence and check it implements the parallel copy.
        let mut env = [10, 20, 0]; // a=10, b=20
        for (d, s) in &seq {
            env[d.index()] = env[s.index()];
        }
        assert_eq!(env[a.index()], 20);
        assert_eq!(env[b.index()], 10);
    }

    #[test]
    fn chain_copy_needs_no_temporary() {
        // {a <- b, b <- c} can be ordered a <- b, then b <- c.
        let a = Var::new(0);
        let b = Var::new(1);
        let c = Var::new(2);
        let (seq, temps) = sequentialize_parallel_copy(&[(b, c), (a, b)], || unreachable!());
        assert_eq!(temps, 0);
        assert_eq!(seq, vec![(a, b), (b, c)]);
    }

    #[test]
    fn self_copy_is_dropped() {
        let a = Var::new(0);
        let (seq, temps) = sequentialize_parallel_copy(&[(a, a)], || unreachable!());
        assert!(seq.is_empty());
        assert_eq!(temps, 0);
    }

    #[test]
    fn three_cycle_parallel_copy() {
        // {a <- b, b <- c, c <- a}: rotation, one temp.
        let a = Var::new(0);
        let b = Var::new(1);
        let c = Var::new(2);
        let t = Var::new(3);
        let (seq, temps) = sequentialize_parallel_copy(&[(a, b), (b, c), (c, a)], || t);
        assert_eq!(temps, 1);
        let mut env = [1, 2, 3, 0];
        for (d, s) in &seq {
            env[d.index()] = env[s.index()];
        }
        assert_eq!(&env[0..3], &[2, 3, 1]);
    }

    #[test]
    fn out_of_ssa_output_has_same_observable_liveness_shape() {
        // After destruction, the function still validates, has no φs, and
        // the φ result is now defined by copies in both predecessors.
        let mut f = diamond_with_phi();
        let w_uses_before = f.terminator(BlockId::new(3)).uses().len();
        destruct_ssa(&mut f);
        assert!(ssa::is_ssa(&f) || f.num_copies() == 2);
        let live = Liveness::compute(&f);
        // w is defined on both sides, so it is live into the join block now.
        let w = f.terminator(BlockId::new(3)).uses()[0];
        assert!(live.is_live_in(BlockId::new(3), w));
        assert_eq!(w_uses_before, 1);
    }
}
