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

use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::function::Function;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::out_of_ssa::destruct_ssa;
use coalesce_ir::spill::{
    spill_all_candidates, spill_costs, spill_to_pressure_from, tight_k, SpillResult,
};
use proptest::prelude::*;

/// The map-based pressure spiller, its block statistics and the naive
/// spill-everywhere baseline as they stood before the flat storage,
/// copied verbatim.
#[allow(clippy::pedantic)]
mod reference {
    use coalesce_ir::function::{BlockId, Function, Var};
    use coalesce_ir::liveness::Liveness;
    use coalesce_ir::spill::{spill_everywhere, SpillResult};
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
        for u in f.terminator(b).uses() {
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
