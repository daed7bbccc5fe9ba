//! Equivalence pin for the flat pressure spiller.
//!
//! `coalesce_ir::spill::spill_to_pressure_from` once kept its candidate
//! set and unspillable marks in `BTreeSet`s, its inverted victim → blocks
//! index as one `BTreeMap` of reference counts per variable, and cloned a
//! block's live-out set for every block statistic it rebuilt;
//! `spill_all_candidates` collected each round's candidates into a
//! `BTreeSet`.  The flat rewrite (multiset index rows, a dense candidate
//! list with a position index, `Vec<bool>` marks, reused statistics and a
//! reused live cursor) must decide exactly what the maps decided.
//! [`reference`] keeps the map-based passes verbatim; the tests compare
//! victims, reloads, the printed rewrite and the collected counters
//! (`spill.victims`, `spill.blocks_rebuilt`) on every CFG shape × pressure
//! profile and on module-drawn functions, at `tight_k` and at `k = 12`,
//! and on the corrective round the SSA allocator runs on lowered
//! (non-SSA) functions, where one block can close several segments of the
//! same variable.
//!
//! The same module keeps, verbatim, the rewrite passes as they stood
//! before in-place operand substitution and block splices: the
//! spill-everywhere rewrite (which the reference spillers above call),
//! SSA construction (with only the pruned φ placement added),
//! block-boundary splitting and out-of-SSA with its
//! critical-edge splitting.  They call the removed single-instruction
//! edits through [`legacy_edits`] (and name `Terminator` without its
//! `crate::function::` path).  The rewrite pins compare the printed
//! function, the variable count (the `derive_var` order), the returned
//! statistics and the collected counters on the E13 grid, E17's windowed
//! program and E17's module slice.

use coalesce_bench::experiments::module::e16_specs;
use coalesce_bench::experiments::regalloc::workload_program;
use coalesce_bench::experiments::spillers::{windowed_program, E17_MODULE_FUNCTIONS};
use coalesce_gen::cfg::{generate, CfgParams, PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::function::{Function, Var};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::out_of_ssa::destruct_ssa;
use coalesce_ir::spill::{
    spill_all_candidates, spill_costs, spill_everywhere, spill_to_pressure, spill_to_pressure_from,
    tight_k, SpillResult,
};
use coalesce_ir::splitting::split_variables_at_block_boundaries;
use coalesce_ir::ssa::{construct_ssa, is_ssa, is_strict};
use proptest::prelude::*;

mod legacy_edits;

/// The map-based pressure spiller, its block statistics and the naive
/// spill-everywhere baseline as they stood before the flat storage, and
/// the rewrite passes as they stood before the in-place edits, copied
/// verbatim.
#[allow(clippy::pedantic)]
mod reference {
    use super::legacy_edits::LegacyEdits;
    use coalesce_ir::dom::DominatorTree;
    use coalesce_ir::function::{BlockId, Function, Instr, InstrView, Terminator, Var};
    use coalesce_ir::liveness::Liveness;
    use coalesce_ir::out_of_ssa::{sequentialize_parallel_copy, OutOfSsaStats};
    use coalesce_ir::spill::{SpillResult, SpillRewrite};
    use coalesce_ir::splitting::SplitStats;
    use std::collections::{BTreeMap, BTreeSet};

    /// Per-block spill-candidate statistics, derived from one backward walk of
    /// the block's live points:
    ///
    /// * `contributions[(v, c)]` — variable `v` is live at `c` program points
    ///   of this block (the pressure-reduction benefit of spilling it);
    /// * `candidates` — variables live at at least one point of this block
    ///   whose pressure exceeds the target `k`;
    /// * `maxlive` — the precise per-block `Maxlive` (dead definitions and
    ///   simultaneously live φ results included).
    ///
    /// The walk tracks liveness *segments* instead of materialising per-point
    /// sets: a variable's live points inside a block are contiguous runs
    /// delimited by its definition and last use, so one insert/remove event
    /// pair yields the whole count, and over-pressure membership reduces to
    /// comparing the segment against the latest over-pressured point index.
    #[derive(Debug, Clone, Default)]
    struct BlockSpillStats {
        contributions: Vec<(Var, u64)>,
        candidates: Vec<Var>,
        maxlive: usize,
    }

    /// Computes the [`BlockSpillStats`] of one block against the current
    /// liveness solution.  `birth` is a scratch array of at least `num_vars`
    /// entries (contents irrelevant between calls).
    fn block_spill_stats(
        f: &Function,
        liveness: &Liveness,
        b: BlockId,
        k: usize,
        birth: &mut Vec<u32>,
    ) -> BlockSpillStats {
        let n = f.num_instrs(b);
        if birth.len() < f.num_vars() {
            birth.resize(f.num_vars(), 0);
        }
        let mut stats = BlockSpillStats::default();
        // The walk starts at point n: live-out plus the terminator's uses.
        let mut live = liveness.live_out(b).clone();
        for &u in f.terminator(b).uses() {
            live.insert(u);
        }
        for v in live.iter() {
            birth[v.index()] = n as u32;
        }
        stats.maxlive = live.len();
        // Index of the lowest (most recently seen, walking backwards)
        // over-pressured point; `u32::MAX` while none was seen.
        let mut min_over = if live.len() > k { n as u32 } else { u32::MAX };
        for (i, instr) in f.block_instrs(b).enumerate().rev() {
            if let Some(d) = instr.def() {
                // Pressure of the definition point: the set after the
                // instruction plus the defined value if it is dead there (a
                // dead definition still occupies a register — this keeps
                // Maxlive equal to ω of the SSA interference graph, Thm 1).
                if !instr.is_phi() {
                    stats.maxlive = stats
                        .maxlive
                        .max(live.len() + usize::from(!live.contains(d)));
                }
                if live.remove(d) {
                    // Close the segment: d was live at points i+1 ..= birth.
                    let first = birth[d.index()];
                    stats.contributions.push((d, u64::from(first) - i as u64));
                    if min_over <= first {
                        stats.candidates.push(d);
                    }
                }
            }
            for &u in instr.local_uses() {
                if live.insert(u) {
                    birth[u.index()] = i as u32;
                }
            }
            stats.maxlive = stats.maxlive.max(live.len());
            if live.len() > k {
                min_over = i as u32;
            }
        }
        // Flush the segments still open at the block entry (live-in).
        for v in live.iter() {
            let first = birth[v.index()];
            stats.contributions.push((v, u64::from(first) + 1));
            if min_over <= first {
                stats.candidates.push(v);
            }
        }
        // φ results are all simultaneously live at the block entry together
        // with the live-in set.
        let phi_defs = f.phis(b).filter_map(|p| p.def()).count();
        if phi_defs > 0 {
            stats.maxlive = stats.maxlive.max(liveness.live_in(b).len() + phi_defs);
        }
        stats
    }

    /// [`spill_to_pressure`] starting from an already solved analysis of `f`:
    /// its `liveness` (patched in place as victims are rewritten) and its
    /// [`spill_costs`].
    pub fn spill_to_pressure_from(
        f: &mut Function,
        k: usize,
        mut liveness: Liveness,
        spill_cost: &[u64],
    ) -> SpillResult {
        let _span = coalesce_stats::span!("ir/spill/pressure");
        let mut result = SpillResult::default();
        let mut not_spillable: BTreeSet<Var> = BTreeSet::new();
        // Every iteration patches the liveness solution in place via
        // `apply_spill_rewrite` (the patch is exact, see its docs).  Spill
        // costs only change for rewritten variables, and those are never
        // reconsidered (`not_spillable`), so the up-front costs serve every
        // iteration.
        // Block of each variable's definition (first definition for non-SSA
        // inputs): the one block whose statistics a rewrite can change even
        // when the victim is live at none of its boundaries.
        let mut def_block: Vec<Option<BlockId>> = vec![None; f.num_vars()];
        for (b, _, instr) in f.instructions() {
            if let Some(d) = instr.def() {
                def_block[d.index()].get_or_insert(b);
            }
        }
        // Per-block candidate statistics plus the global aggregates derived
        // from them: per-variable point counts, and the candidate set with a
        // per-variable reference count (how many blocks currently list it).
        //
        // Two extra indices make accepting a victim sublinear:
        //
        // * `pressure_count[m]` counts the blocks whose cached precise Maxlive
        //   is `m`, and `cur_max` points at the top non-empty bucket (it only
        //   ever needs correcting downwards at the loop head, so the whole
        //   pass scans each bucket level at most once);
        // * `blocks_of[v]` is the inverted contribution index: the blocks
        //   whose statistics currently mention `v`, with a reference count per
        //   block (a non-SSA input can close several segments of one variable
        //   in one block).  For a victim it is exactly the set of blocks whose
        //   statistics its removal can change, which replaces the old
        //   O(blocks) boundary-liveness scan.
        let mut birth: Vec<u32> = Vec::new();
        let mut occurrences: Vec<u64> = vec![0; f.num_vars()];
        let mut candidate_refs: Vec<u32> = vec![0; f.num_vars()];
        let mut candidates: BTreeSet<Var> = BTreeSet::new();
        let mut blocks_of: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); f.num_vars()];
        let mut pressure_count: Vec<u32> = Vec::new();
        let mut cur_max: usize = 0;
        let mut stats: Vec<BlockSpillStats> = Vec::with_capacity(f.num_blocks());
        for b in f.block_ids() {
            let s = block_spill_stats(f, &liveness, b, k, &mut birth);
            for &(v, c) in &s.contributions {
                occurrences[v.index()] += c;
                *blocks_of[v.index()].entry(b.index() as u32).or_insert(0) += 1;
            }
            for &v in &s.candidates {
                candidate_refs[v.index()] += 1;
                if candidate_refs[v.index()] == 1 {
                    candidates.insert(v);
                }
            }
            if s.maxlive >= pressure_count.len() {
                pressure_count.resize(s.maxlive + 1, 0);
            }
            pressure_count[s.maxlive] += 1;
            cur_max = cur_max.max(s.maxlive);
            stats.push(s);
        }
        // Epoch-stamped scratch replacing the per-victim `vec![false; blocks]`
        // allocation: a block is in the current victim's affected set iff its
        // stamp equals the current epoch.
        let mut affected_stamp: Vec<u32> = vec![0; f.num_blocks()];
        let mut affected_epoch: u32 = 0;
        let mut affected: Vec<usize> = Vec::new();
        // Pass totals, reported once on exit: accepted victims and how many
        // block statistics their rewrites forced us to rebuild.
        let mut victims: u64 = 0;
        let mut blocks_rebuilt: u64 = 0;

        loop {
            // Re-find the global Maxlive: per-block pressures retracted since
            // the last iteration can only have emptied buckets at or below
            // `cur_max`, so walking the pointer down is exact.
            while cur_max > 0 && pressure_count[cur_max] == 0 {
                cur_max -= 1;
            }
            if cur_max <= k {
                break;
            }
            // Pick the candidate minimizing cost/benefit (compared by cross
            // multiplication to stay in integers); ties fall to the higher
            // benefit, then to the lower variable index, so the choice is
            // deterministic.
            let candidate = candidates
                .iter()
                .copied()
                .filter(|v| !not_spillable.contains(v))
                .min_by(|&a, &b| {
                    let (ca, cb) = (spill_cost[a.index()], spill_cost[b.index()]);
                    let (oa, ob) = (occurrences[a.index()], occurrences[b.index()]);
                    (u128::from(ca) * u128::from(ob))
                        .cmp(&(u128::from(cb) * u128::from(oa)))
                        .then(ob.cmp(&oa))
                        .then(a.cmp(&b))
                });
            let Some(victim) = candidate else { break };
            if occurrences[victim.index()] <= 2 {
                // Already as short-lived as a reload temp; spilling it cannot
                // reduce pressure.  Mark and retry with another candidate.
                not_spillable.insert(victim);
                continue;
            }
            // Blocks whose statistics the rewrite can change: the ones the
            // victim contributes live points to (the inverted index — a
            // superset of the blocks it is boundary-live through), its
            // definition block, and every block the rewrite touches (collected
            // below).  Recomputation is idempotent, so a superset of the truly
            // changed blocks is safe and yields identical statistics.
            affected_epoch += 1;
            affected.clear();
            for &bi in blocks_of[victim.index()].keys() {
                let bi = bi as usize;
                if affected_stamp[bi] != affected_epoch {
                    affected_stamp[bi] = affected_epoch;
                    affected.push(bi);
                }
            }
            if let Some(b) = def_block[victim.index()] {
                if affected_stamp[b.index()] != affected_epoch {
                    affected_stamp[b.index()] = affected_epoch;
                    affected.push(b.index());
                }
            }
            let vars_before = f.num_vars();
            let rewrite = spill_everywhere(f, victim, &mut result);
            liveness.apply_spill_rewrite(victim, &rewrite.phi_pred_reloads);
            for &b in &rewrite.modified_blocks {
                if affected_stamp[b.index()] != affected_epoch {
                    affected_stamp[b.index()] = affected_epoch;
                    affected.push(b.index());
                }
            }
            occurrences.resize(f.num_vars(), 0);
            candidate_refs.resize(f.num_vars(), 0);
            blocks_of.resize(f.num_vars(), BTreeMap::new());
            // Retract the affected blocks' old statistics and fold in the
            // recomputed ones; everything else is untouched by construction.
            // The retract/fold pairs commute across blocks, but sort anyway so
            // the recomputation order is deterministic.
            affected.sort_unstable();
            for &bi in &affected {
                let b = BlockId::new(bi);
                let old = std::mem::take(&mut stats[bi]);
                for (v, c) in old.contributions {
                    occurrences[v.index()] -= c;
                    let refs = blocks_of[v.index()]
                        .get_mut(&(bi as u32))
                        .expect("inverted index out of sync with block statistics");
                    *refs -= 1;
                    if *refs == 0 {
                        blocks_of[v.index()].remove(&(bi as u32));
                    }
                }
                for v in old.candidates {
                    candidate_refs[v.index()] -= 1;
                    if candidate_refs[v.index()] == 0 {
                        candidates.remove(&v);
                    }
                }
                pressure_count[old.maxlive] -= 1;
                let s = block_spill_stats(f, &liveness, b, k, &mut birth);
                for &(v, c) in &s.contributions {
                    occurrences[v.index()] += c;
                    *blocks_of[v.index()].entry(bi as u32).or_insert(0) += 1;
                }
                for &v in &s.candidates {
                    candidate_refs[v.index()] += 1;
                    if candidate_refs[v.index()] == 1 {
                        candidates.insert(v);
                    }
                }
                if s.maxlive >= pressure_count.len() {
                    pressure_count.resize(s.maxlive + 1, 0);
                }
                pressure_count[s.maxlive] += 1;
                cur_max = cur_max.max(s.maxlive);
                stats[bi] = s;
            }
            // Never re-spill a reload temporary (or the victim itself): reload
            // temps of early spills can grow long again as later reloads are
            // inserted between them and their use, and re-spilling them would
            // loop forever without lowering the pressure.
            not_spillable.insert(victim);
            not_spillable.extend((vars_before..f.num_vars()).map(Var::new));
            result.spilled.push(victim);
            victims += 1;
            blocks_rebuilt += affected.len() as u64;
        }
        coalesce_stats::counter!("spill.victims", victims);
        coalesce_stats::counter!("spill.blocks_rebuilt", blocks_rebuilt);
        result
    }

    /// The naive *spill-everywhere* baseline strategy: in each round, every
    /// variable live through an over-pressured point (and long enough to be
    /// worth spilling) is spilled, and rounds repeat until `Maxlive ≤ k` or no
    /// spillable candidate remains.
    ///
    /// The first round reads `liveness`, the caller's solution for `f`; every
    /// later round deliberately recomputes liveness from scratch.  The pass
    /// makes no cost/benefit choice — it is the strawman the loop-aware
    /// incremental spiller and the Belady spiller are measured against in E17.
    pub fn spill_all_candidates(f: &mut Function, k: usize, mut liveness: Liveness) -> SpillResult {
        let _span = coalesce_stats::span!("ir/spill/everywhere");
        let mut result = SpillResult::default();
        let mut not_spillable: BTreeSet<Var> = BTreeSet::new();
        let mut birth: Vec<u32> = Vec::new();
        loop {
            let mut occurrences = vec![0u64; f.num_vars()];
            let mut candidates: BTreeSet<Var> = BTreeSet::new();
            let mut maxlive = 0usize;
            for b in f.block_ids() {
                let s = block_spill_stats(f, &liveness, b, k, &mut birth);
                for &(v, c) in &s.contributions {
                    occurrences[v.index()] += c;
                }
                candidates.extend(s.candidates.iter().copied());
                maxlive = maxlive.max(s.maxlive);
            }
            if maxlive <= k {
                break;
            }
            // Same spillability rules as the incremental spiller: never touch
            // reload temporaries or anything as short-lived as one.
            let victims: Vec<Var> = candidates
                .into_iter()
                .filter(|v| !not_spillable.contains(v) && occurrences[v.index()] > 2)
                .collect();
            if victims.is_empty() {
                break;
            }
            coalesce_stats::counter!("spill.victims", victims.len() as u64);
            for victim in victims {
                let vars_before = f.num_vars();
                spill_everywhere(f, victim, &mut result);
                not_spillable.insert(victim);
                not_spillable.extend((vars_before..f.num_vars()).map(Var::new));
                result.spilled.push(victim);
            }
            liveness = Liveness::compute(f);
        }
        result
    }

    /// Rewrites `f` so that `victim` is reloaded into a fresh temporary before
    /// every use (spill-everywhere).  The original definition of `victim` is
    /// kept (it represents the value being stored to memory) but the variable
    /// itself dies immediately after its definition.
    ///
    /// Returns the [`SpillRewrite`] describing what changed: the φ-argument
    /// reloads (the only reload temporaries whose live range crosses a block
    /// boundary — what [`Liveness::apply_spill_rewrite`] consumes) and the
    /// blocks whose code was touched (what the incremental candidate
    /// bookkeeping of [`spill_to_pressure`] consumes).
    pub fn spill_everywhere(
        f: &mut Function,
        victim: Var,
        result: &mut SpillResult,
    ) -> SpillRewrite {
        let mut rewrite = SpillRewrite::default();
        let block_ids: Vec<BlockId> = f.block_ids().collect();
        for b in block_ids {
            // Rewrite φ arguments: reload at the end of the predecessor.
            let mut pending_pred_reloads: Vec<(BlockId, Var)> = Vec::new();
            {
                let nb = f.num_instrs(b);
                for i in 0..nb {
                    // Copy out the argument list only when this φ mentions the
                    // victim; the view borrow ends before the rewrite below.
                    let rewrite_phi = match f.instr(b, i) {
                        InstrView::Phi { dst, args } if args.iter().any(|a| a.value == victim) => {
                            Some((
                                dst,
                                args.iter().map(|a| (a.pred, a.value)).collect::<Vec<_>>(),
                            ))
                        }
                        _ => None,
                    };
                    if let Some((dst, mut args)) = rewrite_phi {
                        for (p, v) in args.iter_mut() {
                            if *v == victim {
                                let reload = f.derive_var(victim, "_reload");
                                pending_pred_reloads.push((*p, reload));
                                *v = reload;
                            }
                        }
                        f.replace_instr(b, i, Instr::Phi { dst, args });
                        rewrite.modified_blocks.push(b);
                    }
                }
            }
            for (pred, reload) in pending_pred_reloads {
                f.emit_op(pred, Some(reload), &[]);
                result.reloads += 1;
                rewrite.modified_blocks.push(pred);
                rewrite.phi_pred_reloads.push((pred, reload));
            }

            // Rewrite ordinary uses inside the block.
            let mut i = 0;
            while i < f.num_instrs(b) {
                let uses_victim = match f.instr(b, i) {
                    InstrView::Op { uses, .. } => uses.contains(&victim),
                    InstrView::Copy { src, .. } => src == victim,
                    InstrView::Phi { .. } => false,
                };
                if uses_victim {
                    rewrite.modified_blocks.push(b);
                    let reload = f.derive_var(victim, "_reload");
                    let new_instr = match f.instr(b, i).to_instr() {
                        Instr::Op { dst, uses } => Instr::Op {
                            dst,
                            uses: uses
                                .into_iter()
                                .map(|u| if u == victim { reload } else { u })
                                .collect(),
                        },
                        Instr::Copy { dst, .. } => Instr::Copy { dst, src: reload },
                        phi @ Instr::Phi { .. } => phi,
                    };
                    f.replace_instr(b, i, new_instr);
                    f.insert_instr(
                        b,
                        i,
                        Instr::Op {
                            dst: Some(reload),
                            uses: Vec::new(),
                        },
                    );
                    result.reloads += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }

            // Rewrite terminator uses.
            let term_uses_victim = f.terminator(b).uses().contains(&victim);
            if term_uses_victim {
                rewrite.modified_blocks.push(b);
                let reload = f.derive_var(victim, "_reload");
                let new_term = match f.terminator(b).clone() {
                    Terminator::Branch {
                        cond,
                        then_block,
                        else_block,
                    } => Terminator::Branch {
                        cond: if cond == victim { reload } else { cond },
                        then_block,
                        else_block,
                    },
                    Terminator::Return { uses } => Terminator::Return {
                        uses: uses
                            .into_iter()
                            .map(|u| if u == victim { reload } else { u })
                            .collect(),
                    },
                    t @ Terminator::Jump(_) => t,
                };
                *f.terminator_mut(b) = new_term;
                f.emit_op(b, Some(reload), &[]);
                result.reloads += 1;
            }
        }
        debug_assert!(f.validate().is_ok());
        rewrite
    }

    /// Converts `f` into strict SSA form.
    ///
    /// Variables that are already singly-defined and only used in their defining
    /// block are left untouched; all others get φ-functions at their iterated
    /// dominance frontier and fresh names per definition.
    ///
    /// # Panics
    ///
    /// Panics if a reachable use has no reaching definition on some path (the
    /// input must be a *strict* program in the paper's sense).
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

        // 2. Place φ-functions at iterated dominance frontiers.
        let frontiers = dom.dominance_frontiers(&out);
        let live = Liveness::compute(f);
        // phi_placed[v] = blocks where a φ for original variable v was inserted.
        let mut phi_for: BTreeMap<(BlockId, usize), usize> = BTreeMap::new(); // (block, orig var) -> instr index
        for (v, blocks) in def_blocks.iter().enumerate() {
            if blocks.len() <= 1 {
                // A single static definition never needs a φ for correctness of
                // renaming (its definition dominates every use in a strict
                // program).
                continue;
            }
            let mut work: Vec<BlockId> = blocks.iter().copied().collect();
            let mut has_phi: BTreeSet<BlockId> = BTreeSet::new();
            while let Some(b) = work.pop() {
                for &y in &frontiers[b.index()] {
                    if has_phi.insert(y) && live.is_live_in(y, Var::new(v)) {
                        // Insert a φ defining the *original* variable v for now;
                        // renaming will replace both the def and the args.
                        let var = Var::new(v);
                        let args: Vec<(BlockId, Var)> =
                            preds[y.index()].iter().map(|&p| (p, var)).collect();
                        let pos = out.num_phis_in(y);
                        out.insert_instr(y, pos, Instr::Phi { dst: var, args });
                        phi_for.insert((y, v), pos);
                        if !blocks.contains(&y) {
                            work.push(y);
                        }
                    }
                }
            }
        }

        // 3. Rename along the dominator tree.
        let mut stacks: Vec<Vec<Var>> = vec![Vec::new(); num_orig];
        let children = dom.children();
        let mut renamed = out.clone();

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

        let orig_of = |v: Var, num_orig: usize| -> Option<usize> {
            if v.index() < num_orig {
                Some(v.index())
            } else {
                None
            }
        };

        while let Some((b, phase)) = stack.pop() {
            match phase {
                Phase::Enter => {
                    stack.push((b, Phase::Exit));
                    let mut pushes: Vec<(usize, usize)> = Vec::new();
                    // Rename definitions and uses inside the block.
                    let nb = renamed.num_instrs(b);
                    for i in 0..nb {
                        let instr = renamed.instr(b, i).to_instr();
                        let new_instr = match instr {
                            Instr::Phi { dst, args } => {
                                // Only the def is renamed here; args are renamed
                                // from the predecessors (below).
                                let o = orig_of(dst, num_orig);
                                let new_dst = match o {
                                    Some(ov) if needs_rename[ov] => {
                                        let nv = match f.var_name(Var::new(ov)) {
                                            Some(n) => {
                                                let name = format!("{n}_{}", b.index());
                                                renamed.new_var(name)
                                            }
                                            None => renamed.new_var(""),
                                        };
                                        stacks[ov].push(nv);
                                        pushes.push((ov, 1));
                                        nv
                                    }
                                    _ => dst,
                                };
                                Instr::Phi { dst: new_dst, args }
                            }
                            Instr::Op { dst, uses } => {
                                let new_uses: Vec<Var> = uses
                                    .iter()
                                    .map(|&u| rename_use(u, &stacks, num_orig, &needs_rename))
                                    .collect();
                                let new_dst = dst.map(|d| {
                                    rename_def(
                                        d,
                                        &mut stacks,
                                        &mut pushes,
                                        &mut renamed,
                                        f,
                                        num_orig,
                                        &needs_rename,
                                        b,
                                    )
                                });
                                Instr::Op {
                                    dst: new_dst,
                                    uses: new_uses,
                                }
                            }
                            Instr::Copy { dst, src } => {
                                let new_src = rename_use(src, &stacks, num_orig, &needs_rename);
                                let new_dst = rename_def(
                                    dst,
                                    &mut stacks,
                                    &mut pushes,
                                    &mut renamed,
                                    f,
                                    num_orig,
                                    &needs_rename,
                                    b,
                                );
                                Instr::Copy {
                                    dst: new_dst,
                                    src: new_src,
                                }
                            }
                        };
                        renamed.replace_instr(b, i, new_instr);
                    }
                    // Rename terminator uses.
                    let term = renamed.terminator(b).clone();
                    let new_term = match term {
                        Terminator::Branch {
                            cond,
                            then_block,
                            else_block,
                        } => Terminator::Branch {
                            cond: rename_use(cond, &stacks, num_orig, &needs_rename),
                            then_block,
                            else_block,
                        },
                        Terminator::Return { uses } => Terminator::Return {
                            uses: uses
                                .iter()
                                .map(|&u| rename_use(u, &stacks, num_orig, &needs_rename))
                                .collect(),
                        },
                        t @ Terminator::Jump(_) => t,
                    };
                    *renamed.terminator_mut(b) = new_term;

                    // Fill in φ arguments of the successors coming from `b`.
                    for s in renamed.successors(b) {
                        let ns = renamed.num_instrs(s);
                        for i in 0..ns {
                            let phi = match renamed.instr(s, i) {
                                InstrView::Phi { dst, args } => Some((
                                    dst,
                                    args.iter().map(|a| (a.pred, a.value)).collect::<Vec<_>>(),
                                )),
                                _ => None,
                            };
                            let Some((dst, args)) = phi else { break };
                            let new_args: Vec<(BlockId, Var)> = args
                                .iter()
                                .map(|&(p, v)| {
                                    if p == b {
                                        (p, rename_use(v, &stacks, num_orig, &needs_rename))
                                    } else {
                                        (p, v)
                                    }
                                })
                                .collect();
                            renamed.replace_instr(
                                s,
                                i,
                                Instr::Phi {
                                    dst,
                                    args: new_args,
                                },
                            );
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

        renamed
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

    /// Splits only the given variables at block boundaries.  Variables not
    /// live-in or not used in a block are left untouched in that block.
    pub fn split_variables_at_block_boundaries(f: &mut Function, vars: &[Var]) -> SplitStats {
        let liveness = Liveness::compute(f);
        let mut stats = SplitStats::default();
        let blocks: Vec<_> = f.block_ids().collect();
        for b in blocks {
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

                // Insert the copy and rename.
                let fresh = f.derive_var(x, &format!(".split.{}", b.index()));
                let phi_end = f.num_phis_in(b);
                // Rename uses before the redefinition point (indices shift by one
                // after the insertion, so rename first, then insert).
                let limit = redefined_at.unwrap_or(f.num_instrs(b));
                for i in phi_end..limit.max(phi_end) {
                    let mut instr = f.instr(b, i).to_instr();
                    if rename_uses(&mut instr, x, fresh) {
                        f.replace_instr(b, i, instr);
                    }
                }
                if redefined_at.is_none() {
                    rename_terminator_uses(f.terminator_mut(b), x, fresh);
                }
                f.insert_instr(b, phi_end, Instr::Copy { dst: fresh, src: x });
                stats.copies_inserted += 1;
                stats.new_variables += 1;
                stats.split_points += 1;
            }
        }
        debug_assert!(
            f.validate().is_ok(),
            "splitting produced an invalid function"
        );
        stats
    }

    fn rename_uses(instr: &mut Instr, from: Var, to: Var) -> bool {
        let mut changed = false;
        match instr {
            Instr::Op { uses, .. } => {
                for u in uses.iter_mut() {
                    if *u == from {
                        *u = to;
                        changed = true;
                    }
                }
            }
            Instr::Copy { src, .. } => {
                if *src == from {
                    *src = to;
                    changed = true;
                }
            }
            Instr::Phi { .. } => {}
        }
        changed
    }

    fn rename_terminator_uses(term: &mut Terminator, from: Var, to: Var) {
        match term {
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => {
                if *cond == from {
                    *cond = to;
                }
            }
            Terminator::Return { uses } => {
                for u in uses.iter_mut() {
                    if *u == from {
                        *u = to;
                    }
                }
            }
        }
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
            for i in 0..f.num_instrs(to) {
                let redirected = match f.instr(to, i) {
                    InstrView::Phi { dst, args } if args.iter().any(|a| a.pred == from) => Some((
                        dst,
                        args.iter()
                            .map(|a| (if a.pred == from { mid } else { a.pred }, a.value))
                            .collect::<Vec<_>>(),
                    )),
                    _ => None,
                };
                if let Some((dst, args)) = redirected {
                    f.replace_instr(to, i, Instr::Phi { dst, args });
                }
            }
            split += 1;
        }
        split
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
            // Remove the φs from the block (in place, no order-array growth).
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
}

/// Every generator shape profile at every pressure level.
fn cfg_grid() -> Vec<Function> {
    let mut out = Vec::new();
    for (i, profile) in ShapeProfile::ALL.into_iter().enumerate() {
        for (j, level) in PressureLevel::ALL.into_iter().enumerate() {
            let params = profile.params(level.pressure());
            out.push(generate(
                &params,
                &mut coalesce_gen::rng(61 + 3 * i as u64 + j as u64),
            ));
        }
    }
    out
}

fn module_functions(seed: u64) -> Vec<Function> {
    module_specs(&ModuleParams { functions: 8 }, seed)
        .iter()
        .map(|s| s.generate())
        .collect()
}

/// The register counts each function is spilled to: its `tight_k` and
/// the module workload's `k = 12`.
fn ks(f: &Function) -> Vec<usize> {
    let maxlive = Liveness::compute(f).maxlive_precise(f);
    let mut ks = vec![tight_k(maxlive), 12];
    ks.dedup();
    ks
}

/// Runs the flat and the reference pressure spiller on clones of `f` at
/// `k` and asserts the same victims, reloads, rewrite and counters.
/// Returns the flat rewrite and the number of victims.
fn assert_same_pressure(f: &Function, k: usize) -> (Function, usize) {
    let (liveness, costs) = (Liveness::compute(f), spill_costs(f));
    let ((result, g), counters) = coalesce_stats::collect(|| {
        let mut g = f.clone();
        let result = spill_to_pressure_from(&mut g, k, liveness.clone(), &costs);
        (result, g)
    });
    let ((old_result, old_g), old_counters) = coalesce_stats::collect(|| {
        let mut g = f.clone();
        let result = reference::spill_to_pressure_from(&mut g, k, liveness, &costs);
        (result, g)
    });
    assert_same_result(f, k, (&result, &g), (&old_result, &old_g));
    assert_eq!(counters, old_counters, "{}: counters at k = {k}", f.name);
    (g, result.spilled.len())
}

/// Same as [`assert_same_pressure`] for the naive spill-everywhere
/// baseline.
fn assert_same_everywhere(f: &Function, k: usize) {
    let liveness = Liveness::compute(f);
    let ((result, g), counters) = coalesce_stats::collect(|| {
        let mut g = f.clone();
        let result = spill_all_candidates(&mut g, k, liveness.clone());
        (result, g)
    });
    let ((old_result, old_g), old_counters) = coalesce_stats::collect(|| {
        let mut g = f.clone();
        let result = reference::spill_all_candidates(&mut g, k, liveness);
        (result, g)
    });
    assert_same_result(f, k, (&result, &g), (&old_result, &old_g));
    assert_eq!(counters, old_counters, "{}: counters at k = {k}", f.name);
}

fn assert_same_result(
    f: &Function,
    k: usize,
    (result, g): (&SpillResult, &Function),
    (old_result, old_g): (&SpillResult, &Function),
) {
    assert_eq!(
        result.spilled, old_result.spilled,
        "{}: victims at k = {k}",
        f.name
    );
    assert_eq!(
        result.reloads, old_result.reloads,
        "{}: reloads at k = {k}",
        f.name
    );
    assert_eq!(
        g.to_string(),
        old_g.to_string(),
        "{}: rewrite at k = {k}",
        f.name
    );
}

/// Both spillers on `f` at each of its `ks`, then the SSA allocator's
/// corrective round: the flat rewrite is lowered out of SSA and spilled
/// again at the same `k` by both implementations.  Returns the number of
/// pressure-spiller victims over all rounds.
fn assert_same_spills(f: &Function) -> usize {
    let mut victims = 0;
    for k in ks(f) {
        let (mut lowered, first) = assert_same_pressure(f, k);
        destruct_ssa(&mut lowered);
        victims += first + assert_same_pressure(&lowered, k).1;
        assert_same_everywhere(f, k);
        assert_same_everywhere(&lowered, k);
    }
    victims
}

#[test]
fn flat_spiller_matches_the_map_reference_on_every_cfg_profile() {
    let victims: usize = cfg_grid().iter().map(assert_same_spills).sum();
    assert!(victims > 0, "the CFG grid exercised no spill");
}

/// Spilled and lowered functions at a register count well below their
/// pressure: copies out of SSA redefine variables, so some blocks close
/// several segments of the same variable and the index rows hold one
/// entry per segment.
#[test]
fn flat_spiller_matches_the_map_reference_on_lowered_functions() {
    let mut victims = 0;
    let functions = cfg_grid()
        .into_iter()
        .chain((0..6).flat_map(module_functions));
    for f in functions {
        let maxlive = Liveness::compute(&f).maxlive_precise(&f);
        let (mut lowered, _) = assert_same_pressure(&f, tight_k(maxlive));
        destruct_ssa(&mut lowered);
        for k in [3, tight_k(maxlive) - 1] {
            victims += assert_same_pressure(&lowered, k).1;
            assert_same_everywhere(&lowered, k);
        }
    }
    assert!(victims > 0, "no lowered function needed a spill");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_spiller_matches_the_map_reference_on_module_functions(seed in 0u64..1_000) {
        for f in module_functions(seed) {
            assert_same_spills(&f);
        }
    }
}

/// The rewrite pins' inputs: the E13 grid, E17's windowed program and
/// E17's module slice, plus each profile with two irreducible regions
/// (the only generated shape with critical edges), each with its
/// pressure-spilled and lowered (non-SSA) form.
fn rewrite_inputs() -> Vec<Function> {
    let grid = ShapeProfile::ALL.into_iter().flat_map(|profile| {
        PressureLevel::ALL
            .into_iter()
            .map(move |level| workload_program(42, profile, level))
    });
    let slice = e16_specs(42)
        .into_iter()
        .take(E17_MODULE_FUNCTIONS)
        .map(|spec| spec.generate());
    let irreducible = ShapeProfile::ALL
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let params = CfgParams {
                irreducible_regions: 2,
                ..profile.params(PressureLevel::Medium.pressure())
            };
            generate(&params, &mut coalesce_gen::rng(97 + i as u64))
        });
    let mut out = Vec::new();
    for f in grid
        .chain([windowed_program(42)])
        .chain(slice)
        .chain(irreducible)
    {
        let mut lowered = f.clone();
        let k = tight_k(Liveness::compute(&f).maxlive_precise(&f));
        spill_to_pressure(&mut lowered, k);
        destruct_ssa(&mut lowered);
        out.push(f);
        out.push(lowered);
    }
    out
}

/// Asserts that two rewrites of `f` print the same function with the
/// same variable count, return the same summary and collect the same
/// counters.
fn assert_same_rewrite<T: std::fmt::Debug + PartialEq>(
    f: &Function,
    pass: &str,
    ((summary, g), counters): ((T, Function), coalesce_stats::Counters),
    ((old_summary, old_g), old_counters): ((T, Function), coalesce_stats::Counters),
) {
    assert_eq!(summary, old_summary, "{}: {pass} summary", f.name);
    assert_eq!(
        g.num_vars(),
        old_g.num_vars(),
        "{}: {pass} variables",
        f.name
    );
    assert_eq!(
        g.to_string(),
        old_g.to_string(),
        "{}: {pass} rewrite",
        f.name
    );
    assert_eq!(counters, old_counters, "{}: {pass} counters", f.name);
}

type Everywhere = fn(&mut Function, Var, &mut SpillResult) -> coalesce_ir::spill::SpillRewrite;

/// Replays `victims` through `rewrite` one call at a time: every call's
/// `SpillRewrite` (debug-printed) and the accumulated reload count.
fn replay(f: &Function, victims: &[Var], rewrite: Everywhere) -> ((Vec<String>, usize), Function) {
    let mut g = f.clone();
    let mut result = SpillResult::default();
    let calls = victims
        .iter()
        .map(|&victim| format!("{:?}", rewrite(&mut g, victim, &mut result)))
        .collect();
    ((calls, result.reloads), g)
}

#[test]
fn spill_everywhere_matches_the_verbatim_rewrite() {
    let mut reloads = 0;
    for f in rewrite_inputs() {
        let k = tight_k(Liveness::compute(&f).maxlive_precise(&f));
        let victims = spill_to_pressure(&mut f.clone(), k).spilled;
        let new = coalesce_stats::collect(|| replay(&f, &victims, spill_everywhere));
        let old = coalesce_stats::collect(|| replay(&f, &victims, reference::spill_everywhere));
        reloads += (new.0).0 .1;
        assert_same_rewrite(&f, "spill_everywhere", new, old);
    }
    assert!(reloads > 0, "no spill_everywhere call inserted a reload");
}

/// Both implementations place a φ only where its variable is live-in
/// (the verbatim copy with that one condition added), so every input,
/// lowered ones included, converts to strict SSA, and at least one
/// non-SSA input is renamed.
#[test]
fn construct_ssa_matches_the_verbatim_renaming() {
    let mut renamed = 0;
    for f in rewrite_inputs() {
        let new = coalesce_stats::collect(|| ((), construct_ssa(&f)));
        let old = coalesce_stats::collect(|| ((), reference::construct_ssa(&f)));
        assert!(is_strict(&(new.0).1), "{}: not strict SSA", f.name);
        renamed += usize::from(!is_ssa(&f));
        assert_same_rewrite(&f, "construct_ssa", new, old);
    }
    assert!(renamed > 0, "no non-SSA input was renamed");
}

#[test]
fn block_boundary_splitting_matches_the_verbatim_pass() {
    let mut copies = 0;
    for f in rewrite_inputs() {
        let all: Vec<Var> = (0..f.num_vars()).map(Var::new).collect();
        let every_third: Vec<Var> = all.iter().copied().step_by(3).collect();
        for vars in [&all, &every_third] {
            let new = coalesce_stats::collect(|| {
                let mut g = f.clone();
                (split_variables_at_block_boundaries(&mut g, vars), g)
            });
            let old = coalesce_stats::collect(|| {
                let mut g = f.clone();
                (
                    reference::split_variables_at_block_boundaries(&mut g, vars),
                    g,
                )
            });
            copies += (new.0).0.copies_inserted;
            assert_same_rewrite(&f, "splitting", new, old);
        }
    }
    assert!(copies > 0, "no split copy was inserted");
}

#[test]
fn critical_edge_splitting_matches_the_verbatim_out_of_ssa() {
    let mut split_edges = 0;
    for f in rewrite_inputs() {
        let new = coalesce_stats::collect(|| {
            let mut g = f.clone();
            (destruct_ssa(&mut g), g)
        });
        let old = coalesce_stats::collect(|| {
            let mut g = f.clone();
            (reference::destruct_ssa(&mut g), g)
        });
        split_edges += (new.0).0.split_edges;
        assert_same_rewrite(&f, "destruct_ssa", new, old);
    }
    assert!(split_edges > 0, "no critical edge was split");
}
