//! Spilling passes.
//!
//! The two-phase register allocators the paper discusses (Appel–George,
//! Hack et al.) first spill enough variables to bring `Maxlive` down to the
//! number of registers `k`, and only then color/coalesce.  This module
//! provides the simple *spill-everywhere* strategy used by the evaluation
//! harness: a spilled variable lives in memory and is reloaded into a fresh
//! short-lived temporary right before every use, so its contribution to the
//! register pressure shrinks to single program points.
//!
//! The spill-candidate choice is Chaitin-style and loop-aware: among the
//! variables live at an over-pressured point, it picks the one with the
//! lowest *spill cost per freed program point*, where the cost of spilling
//! a variable is the `10^loop_depth`-weighted count of the stores and
//! reloads the rewrite would insert (the same dynamic-execution-count
//! estimate that weights affinities and move costs).  A value that idles
//! across a hot loop is spilled long before one that is rewritten inside
//! it.
//!
//! The pass is **incremental end to end and sublinear per victim**: after
//! the up-front setup, accepting a victim costs time proportional to the
//! victim's own footprint (the blocks it contributes live points to plus
//! the blocks its rewrite touches), not to the whole function:
//!
//! * liveness is solved once and then patched in place after each rewrite
//!   ([`Liveness::apply_spill_rewrite`]) — a spilled variable is live at no
//!   block boundary afterwards, and the only reload temporaries that cross
//!   a boundary are the φ-argument ones;
//! * the per-block candidate statistics (precise per-block `Maxlive`,
//!   per-variable live-point counts, over-pressure membership) are cached
//!   in `BlockSpillStats` and recomputed only for the blocks a rewrite
//!   actually touched or the victim contributed live points to — the
//!   latter set comes from an inverted index (variable → contributing
//!   blocks) maintained alongside the statistics, so no global liveness
//!   scan is needed to find it;
//! * the global `Maxlive` is maintained as a bucket count over the cached
//!   per-block pressures (`pressure_count[m]` = number of blocks whose
//!   precise `Maxlive` is `m`): a retract/fold of one block moves one unit
//!   between buckets, and the loop head re-finds the maximum by scanning
//!   the top bucket pointer downwards — monotone over the whole pass, so
//!   O(1) amortized instead of an O(blocks) rescan per iteration;
//! * the affected-block set itself is collected through an epoch-stamped
//!   scratch array, so no per-victim `vec![false; num_blocks]` allocation
//!   remains;
//! * spill costs never change for a variable that was not itself rewritten,
//!   so they are computed once up front.
//!
//! On the E15 `fp-loopnest` instance (2110 blocks, 647 victims) the whole
//! spilling phase runs in ≈ 0.25 s release — ≈ 0.4 ms per victim, against
//! the ≈ 2.1 ms/victim (≈ 3.1 s for ≈ 1480 victims on the larger
//! pre-flat-IR instance) recorded when the incremental pass landed.  The
//! remaining per-victim cost is proportional to the victim's footprint
//! (the statistics of every block it contributes live points to are
//! rebuilt), which dominates the two global scans this revision removed;
//! see the README for the measured numbers.
//!
//! The module also hosts the [`SpillerKind`] strategy zoo: the loop-aware
//! incremental spiller above, the naive spill-everywhere baseline
//! ([`spill_all_candidates`]), and the Belady `MIN` spiller of
//! [`crate::belady`].
//!
//! # Spill and measure
//!
//! Every consumer that spills a function to a pressure target — the
//! E15/E16/E17 experiments, the verifier harness and the service's spill
//! ladder — goes through one type pair:
//!
//! * [`SpillInput::analyze`] solves liveness, the precise `Maxlive` and
//!   the [`spill_costs`] of the input once; callers that also build
//!   interference or audit the input read the same solution through
//!   [`SpillInput::liveness`];
//! * [`SpillInput::spill`] runs one [`SpillerKind`] on a clone of the
//!   input, handing the pressure-greedy and spill-everywhere passes that
//!   analysis instead of letting them solve it again, and returns a
//!   [`SpillRun`]: the victims, the reloads, their pre-spill
//!   `spill_weight` and the rewritten function;
//! * [`SpillRun::liveness_after`] / [`SpillRun::maxlive_after`] solve the
//!   rewritten function's liveness from scratch, so the post-spill check
//!   never trusts the spiller's incrementally patched state, and callers
//!   that do not check pay nothing.
//!
//! [`tight_k`] is the one definition of the tight register count
//! (`Maxlive / 2`, at least 3) the experiments and the service spill to.

use crate::function::{BlockId, Function, Instr, InstrView, Var};
use crate::liveness::{Liveness, VarSet};

/// Largest loop depth that still gets its own `10^depth` weight.
///
/// `10^19` is the largest power of ten a `u64` can hold, so the old
/// `10u64.saturating_pow(depth)` collapsed every depth ≥ 20 onto
/// `u64::MAX`: all victims defined that deep compared *equal* on cost and
/// the choice silently fell to the tie-break order.  Clamping the exponent
/// at 18 keeps the weight an exact power of ten with headroom for the
/// per-access `saturating_add` accumulation; depths beyond the cap share
/// one (finite, documented) weight instead of a saturated sentinel.
pub const MAX_WEIGHT_DEPTH: u32 = 18;

/// The `10^depth` dynamic-execution-count weight of a block at loop depth
/// `depth`, with the exponent clamped at [`MAX_WEIGHT_DEPTH`].
///
/// Distinct depths up to the cap map to strictly increasing weights (the
/// regression test pins this); depths past the cap all weigh `10^18`.
pub fn loop_weight(depth: u32) -> u64 {
    10u64.pow(depth.min(MAX_WEIGHT_DEPTH))
}

/// Result of a spilling pass.
#[derive(Debug, Clone, Default)]
pub struct SpillResult {
    /// Variables that were spilled (original, pre-rewrite names).
    pub spilled: Vec<Var>,
    /// Number of reload temporaries introduced.
    pub reloads: usize,
}

/// What one [`spill_everywhere`] rewrite did to the function, in the terms
/// the incremental bookkeeping needs.
#[derive(Debug, Clone, Default)]
pub struct SpillRewrite {
    /// φ-argument reloads as `(predecessor, reload)` pairs — the only
    /// reload temporaries whose live range crosses a block boundary,
    /// which is exactly what [`Liveness::apply_spill_rewrite`] consumes.
    pub phi_pred_reloads: Vec<(BlockId, Var)>,
    /// Blocks whose instruction list or terminator changed (may contain
    /// duplicates).
    pub modified_blocks: Vec<BlockId>,
}

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
/// A non-SSA block can close several segments of one variable, so a
/// variable may appear in `contributions` (and `candidates`) more than
/// once.
#[derive(Debug, Clone, Default)]
struct BlockSpillStats {
    contributions: Vec<(Var, u64)>,
    candidates: Vec<Var>,
    maxlive: usize,
}

/// Scratch reused across [`block_spill_stats`] calls: the segment start
/// of every open variable (contents irrelevant between calls) and the
/// live cursor of the backward walk.
#[derive(Debug, Default)]
struct StatsScratch {
    birth: Vec<u32>,
    live: VarSet,
}

/// Computes the [`BlockSpillStats`] of one block against the current
/// liveness solution into `stats`, reusing its allocations.
fn block_spill_stats(
    f: &Function,
    liveness: &Liveness,
    b: BlockId,
    k: usize,
    scratch: &mut StatsScratch,
    stats: &mut BlockSpillStats,
) {
    let n = f.num_instrs(b);
    let StatsScratch { birth, live } = scratch;
    if birth.len() < f.num_vars() {
        birth.resize(f.num_vars(), 0);
    }
    stats.contributions.clear();
    stats.candidates.clear();
    // The walk starts at point n: live-out plus the terminator's uses.
    live.copy_from(liveness.live_out(b));
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
}

/// The tight register count the experiments and the service spill to:
/// half of the precise `Maxlive`, but at least 3.
pub fn tight_k(maxlive: usize) -> usize {
    (maxlive / 2).max(3)
}

/// The pre-spill analysis of one function, solved once and shared by
/// every spill of it: liveness, the precise `Maxlive` and the
/// [`spill_costs`] that price the victims.
#[derive(Debug)]
pub struct SpillInput<'f> {
    function: &'f Function,
    liveness: Liveness,
    maxlive: usize,
    costs: Vec<u64>,
}

impl<'f> SpillInput<'f> {
    /// Solves the analysis of `f`.
    pub fn analyze(f: &'f Function) -> Self {
        let liveness = Liveness::compute(f);
        let maxlive = liveness.maxlive_precise(f);
        SpillInput {
            function: f,
            liveness,
            maxlive,
            costs: spill_costs(f),
        }
    }

    /// The analysed function.
    pub fn function(&self) -> &'f Function {
        self.function
    }

    /// The liveness solution of the input.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The precise `Maxlive` of the input.
    pub fn maxlive(&self) -> usize {
        self.maxlive
    }

    /// Runs `kind` on a clone of the input towards `Maxlive ≤ k`.
    ///
    /// Every spiller starts from this analysis instead of solving
    /// liveness again; the result is exactly that of [`SpillerKind::run`]
    /// on a clone.
    pub fn spill(&self, kind: SpillerKind, k: usize) -> SpillRun {
        let mut function = self.function.clone();
        let result = match kind {
            SpillerKind::Everywhere => {
                spill_all_candidates(&mut function, k, self.liveness.clone())
            }
            SpillerKind::PressureGreedy => {
                spill_to_pressure_from(&mut function, k, self.liveness.clone(), &self.costs)
            }
            SpillerKind::Belady => {
                crate::belady::spill_belady_from(&mut function, k, &self.liveness)
            }
        };
        // Victims are pre-spill variables, so the pre-spill costs price
        // them: the weight of the chosen victims, not of the reload temps.
        // The costs saturate at `u64::MAX`, and so does their sum.
        let spill_weight = result
            .spilled
            .iter()
            .fold(0u64, |sum, v| sum.saturating_add(self.costs[v.index()]));
        SpillRun {
            k,
            maxlive: self.maxlive,
            spilled: result.spilled,
            reloads: result.reloads,
            spill_weight,
            function,
        }
    }
}

/// One spiller's rewrite of a [`SpillInput`].
#[derive(Debug)]
pub struct SpillRun {
    /// The register bound the spiller was asked to reach.
    pub k: usize,
    /// Precise `Maxlive` of the input.
    pub maxlive: usize,
    /// Variables the spiller chose (pre-rewrite names).
    pub spilled: Vec<Var>,
    /// Reload temporaries the rewrite inserted.
    pub reloads: usize,
    /// `Σ` pre-spill [`spill_costs`] over the victims.
    pub spill_weight: u64,
    /// The rewritten function.
    pub function: Function,
}

impl SpillRun {
    /// Liveness of the rewritten function, solved from scratch.
    pub fn liveness_after(&self) -> Liveness {
        Liveness::compute(&self.function)
    }

    /// Precise `Maxlive` of the rewritten function, from a fresh liveness
    /// solution.
    pub fn maxlive_after(&self) -> usize {
        self.liveness_after().maxlive_precise(&self.function)
    }
}

/// Spills variables of `f` until `Maxlive ≤ k` (or no candidate remains),
/// using a spill-everywhere rewrite.  Returns the list of spilled variables
/// and rewrites `f` in place.
///
/// Variables that are already "short-lived" (live at only one point, e.g.
/// reload temporaries) are never selected, which guarantees termination.
pub fn spill_to_pressure(f: &mut Function, k: usize) -> SpillResult {
    let (liveness, costs) = (Liveness::compute(f), spill_costs(f));
    spill_to_pressure_from(f, k, liveness, &costs)
}

/// The global aggregates of the cached per-block statistics, maintained by
/// folding in and retracting one block's [`BlockSpillStats`] at a time:
///
/// * `occurrences[v]` — live points of `v` summed over all blocks;
/// * `candidates` — the variables some block currently lists as an
///   over-pressure candidate, in no particular order, with
///   `candidate_refs[v]` counting the listings and `candidate_pos[v]` the
///   position of a listed `v` (so a retract swap-removes it in O(1));
/// * `blocks_of` — the inverted contribution index ([`BlockChains`]): one
///   entry per segment of `v` some block's statistics close, so a block
///   appears once per segment (a non-SSA input can close several segments
///   of one variable in one block).  For a victim its distinct entries are
///   exactly the blocks whose statistics its removal can change, which
///   replaces an O(blocks) boundary-liveness scan;
/// * `pressure_count[m]` — the blocks whose cached precise Maxlive is `m`,
///   with `cur_max` pointing at the top non-empty bucket (it only ever
///   needs correcting downwards, so a whole pass scans each bucket level
///   at most once).
///
/// Every aggregate is a flat buffer, so a spill call allocates a constant
/// number of them however many variables it indexes.
#[derive(Debug, Default)]
struct PressureIndex {
    occurrences: Vec<u64>,
    candidate_refs: Vec<u32>,
    candidate_pos: Vec<u32>,
    candidates: Vec<Var>,
    blocks_of: BlockChains,
    pressure_count: Vec<u32>,
    cur_max: usize,
}

impl PressureIndex {
    /// Makes room for variables `0..num_vars`.
    fn grow(&mut self, num_vars: usize) {
        self.occurrences.resize(num_vars, 0);
        self.candidate_refs.resize(num_vars, 0);
        self.candidate_pos.resize(num_vars, 0);
        self.blocks_of.grow(num_vars);
    }

    /// Adds the statistics `s` of block `b`.
    fn fold(&mut self, b: u32, s: &BlockSpillStats) {
        for &(v, c) in &s.contributions {
            self.occurrences[v.index()] += c;
            self.blocks_of.link(v, b);
        }
        for &v in &s.candidates {
            self.candidate_refs[v.index()] += 1;
            if self.candidate_refs[v.index()] == 1 {
                self.candidate_pos[v.index()] = self.candidates.len() as u32;
                self.candidates.push(v);
            }
        }
        if s.maxlive >= self.pressure_count.len() {
            self.pressure_count.resize(s.maxlive + 1, 0);
        }
        self.pressure_count[s.maxlive] += 1;
        self.cur_max = self.cur_max.max(s.maxlive);
    }

    /// Removes the statistics `s` that [`PressureIndex::fold`] added for
    /// block `b`.
    fn retract(&mut self, b: u32, s: &BlockSpillStats) {
        for &(v, c) in &s.contributions {
            self.occurrences[v.index()] -= c;
            self.blocks_of.unlink(v, b);
        }
        for &v in &s.candidates {
            self.candidate_refs[v.index()] -= 1;
            if self.candidate_refs[v.index()] == 0 {
                let at = self.candidate_pos[v.index()] as usize;
                self.candidates.swap_remove(at);
                if let Some(&moved) = self.candidates.get(at) {
                    self.candidate_pos[moved.index()] = at as u32;
                }
            }
        }
        self.pressure_count[s.maxlive] -= 1;
    }
}

/// End of a chain in [`BlockChains`].
const NIL: u32 = u32::MAX;

/// A multiset of blocks per variable, kept in one arena: `head[v]` starts
/// `v`'s singly linked chain of `(block, next)` entries, and `free` lists
/// the entries [`BlockChains::unlink`] freed, for reuse.  The chain order
/// is unspecified.
#[derive(Debug, Default)]
struct BlockChains {
    head: Vec<u32>,
    entries: Vec<(u32, u32)>,
    free: Vec<u32>,
}

impl BlockChains {
    /// Makes room for variables `0..num_vars`.
    fn grow(&mut self, num_vars: usize) {
        self.head.resize(num_vars, NIL);
    }

    /// Adds one entry of block `b` to `v`'s chain.
    fn link(&mut self, v: Var, b: u32) {
        #[cfg(test)]
        tests::log_chain_edit(true, v, b);
        let next = self.head[v.index()];
        let at = if let Some(at) = self.free.pop() {
            self.entries[at as usize] = (b, next);
            at
        } else {
            self.entries.push((b, next));
            self.entries.len() as u32 - 1
        };
        self.head[v.index()] = at;
    }

    /// Removes one entry of block `b` from `v`'s chain.
    ///
    /// # Panics
    ///
    /// Panics if the chain holds no entry of `b`.
    fn unlink(&mut self, v: Var, b: u32) {
        #[cfg(test)]
        tests::log_chain_edit(false, v, b);
        let mut prev = NIL;
        let mut at = self.head[v.index()];
        while at != NIL && self.entries[at as usize].0 != b {
            prev = at;
            at = self.entries[at as usize].1;
        }
        assert!(
            at != NIL,
            "inverted index out of sync with block statistics"
        );
        let next = self.entries[at as usize].1;
        if prev == NIL {
            self.head[v.index()] = next;
        } else {
            self.entries[prev as usize].1 = next;
        }
        self.free.push(at);
    }

    /// The blocks of `v`'s chain, one per entry.
    fn blocks(&self, v: Var) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.head[v.index()];
        std::iter::from_fn(move || {
            // `NIL` indexes past every entry.
            let (b, next) = *self.entries.get(at as usize)?;
            at = next;
            Some(b)
        })
    }
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
    // Every iteration patches the liveness solution in place via
    // `apply_spill_rewrite` (the patch is exact, see its docs).  Spill
    // costs only change for rewritten variables, and those are never
    // reconsidered (`not_spillable`, which grows with `num_vars`), so the
    // up-front costs serve every iteration.
    let mut not_spillable: Vec<bool> = vec![false; f.num_vars()];
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
    // from them; a rebuild retracts a block's old statistics, refills
    // them in place and folds them back in.
    let mut scratch = StatsScratch::default();
    let mut index = PressureIndex::default();
    index.grow(f.num_vars());
    let mut stats: Vec<BlockSpillStats> = Vec::with_capacity(f.num_blocks());
    for b in f.block_ids() {
        let mut s = BlockSpillStats::default();
        block_spill_stats(f, &liveness, b, k, &mut scratch, &mut s);
        index.fold(b.index() as u32, &s);
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
        while index.cur_max > 0 && index.pressure_count[index.cur_max] == 0 {
            index.cur_max -= 1;
        }
        if index.cur_max <= k {
            break;
        }
        // Pick the candidate minimizing cost/benefit (compared by cross
        // multiplication to stay in integers); ties fall to the higher
        // benefit, then to the lower variable index.  The order is total,
        // so the pick does not depend on the candidate list's order.
        let occurrences = &index.occurrences;
        let candidate = index
            .candidates
            .iter()
            .copied()
            .filter(|v| !not_spillable[v.index()])
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
            not_spillable[victim.index()] = true;
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
        let touched = index
            .blocks_of
            .blocks(victim)
            .map(|bi| bi as usize)
            .chain(def_block[victim.index()].map(BlockId::index));
        for bi in touched {
            if affected_stamp[bi] != affected_epoch {
                affected_stamp[bi] = affected_epoch;
                affected.push(bi);
            }
        }
        let rewrite = spill_everywhere(f, victim, &mut result);
        liveness.apply_spill_rewrite(victim, &rewrite.phi_pred_reloads);
        for &b in &rewrite.modified_blocks {
            if affected_stamp[b.index()] != affected_epoch {
                affected_stamp[b.index()] = affected_epoch;
                affected.push(b.index());
            }
        }
        // Never re-spill a reload temporary (or the victim itself): reload
        // temps of early spills can grow long again as later reloads are
        // inserted between them and their use, and re-spilling them would
        // loop forever without lowering the pressure.
        not_spillable[victim.index()] = true;
        not_spillable.resize(f.num_vars(), true);
        index.grow(f.num_vars());
        // Retract the affected blocks' old statistics and fold in the
        // recomputed ones; everything else is untouched by construction.
        // The retract/fold pairs commute across blocks, but sort anyway so
        // the recomputation order is deterministic.
        affected.sort_unstable();
        for &bi in &affected {
            let s = &mut stats[bi];
            index.retract(bi as u32, s);
            block_spill_stats(f, &liveness, BlockId::new(bi), k, &mut scratch, s);
            index.fold(bi as u32, s);
        }
        result.spilled.push(victim);
        victims += 1;
        blocks_rebuilt += affected.len() as u64;
    }
    coalesce_stats::counter!("spill.victims", victims);
    coalesce_stats::counter!("spill.blocks_rebuilt", blocks_rebuilt);
    result
}

/// Estimated dynamic cost of spilling each variable, indexed by variable:
/// one store at the definition plus one reload per use, each weighted by
/// [`loop_weight`] of the block the access happens in (φ arguments are
/// reloaded at the end of the corresponding predecessor, so they count at
/// the predecessor's depth).  The weight's exponent is clamped at
/// [`MAX_WEIGHT_DEPTH`] so distinct depths up to the cap stay strictly
/// ordered instead of saturating to a shared `u64::MAX`.
pub fn spill_costs(f: &Function) -> Vec<u64> {
    let mut cost = vec![0u64; f.num_vars()];
    for b in f.block_ids() {
        let weight = loop_weight(f.loop_depth(b));
        for instr in f.block_instrs(b) {
            if let Some(d) = instr.def() {
                cost[d.index()] = cost[d.index()].saturating_add(weight);
            }
            match instr {
                InstrView::Phi { args, .. } => {
                    for a in args {
                        let w = loop_weight(f.loop_depth(a.pred));
                        cost[a.value.index()] = cost[a.value.index()].saturating_add(w);
                    }
                }
                _ => {
                    for &u in instr.local_uses() {
                        cost[u.index()] = cost[u.index()].saturating_add(weight);
                    }
                }
            }
        }
        for &u in f.terminator(b).uses() {
            cost[u.index()] = cost[u.index()].saturating_add(weight);
        }
    }
    cost
}

/// The spilling strategies the evaluation harness can compare (E17).
///
/// All three lower register pressure by rewriting spilled variables into
/// short-lived reload temporaries; they differ in *which* variables they
/// pick and in how finely they split live ranges:
///
/// * [`SpillerKind::Everywhere`] — the naive baseline: every over-pressure
///   candidate is spilled outright, round after round, until the pressure
///   target is met or nothing spillable remains;
/// * [`SpillerKind::PressureGreedy`] — the loop-aware incremental spiller
///   of [`spill_to_pressure`], picking one victim at a time by
///   cost/benefit;
/// * [`SpillerKind::Belady`] — the Braun–Hack-style Belady `MIN` spiller
///   of [`crate::belady`], ranking values by next-use distance and
///   splitting live ranges at block boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpillerKind {
    /// Spill every over-pressure candidate outright (naive baseline).
    Everywhere,
    /// Loop-aware incremental cost/benefit spiller ([`spill_to_pressure`]).
    PressureGreedy,
    /// Braun–Hack Belady `MIN` with next-use distances ([`crate::belady`]).
    Belady,
}

impl SpillerKind {
    /// All strategies, in comparison order.
    pub const ALL: [SpillerKind; 3] = [
        SpillerKind::Everywhere,
        SpillerKind::PressureGreedy,
        SpillerKind::Belady,
    ];

    /// Stable human-readable name (used in reports and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            SpillerKind::Everywhere => "everywhere",
            SpillerKind::PressureGreedy => "pressure-greedy",
            SpillerKind::Belady => "belady",
        }
    }

    /// Runs this strategy on `f`, spilling towards `Maxlive ≤ k`.
    pub fn run(self, f: &mut Function, k: usize) -> SpillResult {
        match self {
            SpillerKind::Everywhere => {
                let liveness = Liveness::compute(f);
                spill_all_candidates(f, k, liveness)
            }
            SpillerKind::PressureGreedy => spill_to_pressure(f, k),
            SpillerKind::Belady => crate::belady::spill_belady(f, k),
        }
    }
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
    let mut not_spillable: Vec<bool> = vec![false; f.num_vars()];
    let mut scratch = StatsScratch::default();
    let mut stats = BlockSpillStats::default();
    let mut occurrences: Vec<u64> = Vec::new();
    let mut is_candidate: Vec<bool> = Vec::new();
    loop {
        occurrences.clear();
        occurrences.resize(f.num_vars(), 0);
        is_candidate.clear();
        is_candidate.resize(f.num_vars(), false);
        let mut maxlive = 0usize;
        for b in f.block_ids() {
            block_spill_stats(f, &liveness, b, k, &mut scratch, &mut stats);
            for &(v, c) in &stats.contributions {
                occurrences[v.index()] += c;
            }
            for &v in &stats.candidates {
                is_candidate[v.index()] = true;
            }
            maxlive = maxlive.max(stats.maxlive);
        }
        if maxlive <= k {
            break;
        }
        // Same spillability rules as the incremental spiller: never touch
        // reload temporaries or anything as short-lived as one.  Victims
        // are spilled in ascending variable order.
        let victims: Vec<Var> = (0..f.num_vars())
            .filter(|&i| is_candidate[i] && !not_spillable[i] && occurrences[i] > 2)
            .map(Var::new)
            .collect();
        if victims.is_empty() {
            break;
        }
        coalesce_stats::counter!("spill.victims", victims.len() as u64);
        for victim in victims {
            spill_everywhere(f, victim, &mut result);
            not_spillable[victim.index()] = true;
            not_spillable.resize(f.num_vars(), true);
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
pub fn spill_everywhere(f: &mut Function, victim: Var, result: &mut SpillResult) -> SpillRewrite {
    let mut rewrite = SpillRewrite::default();
    // Reload definitions per block at pre-insertion positions (appends at
    // `num_instrs`, in the order recorded); each block is spliced once at
    // the end, so no position shifts mid-rewrite.
    let mut inserts: Vec<Vec<(usize, Instr)>> = vec![Vec::new(); f.num_blocks()];
    let reload = |t: Var| Instr::Op {
        dst: Some(t),
        uses: Vec::new(),
    };
    for b in f.block_ids() {
        let n = f.num_instrs(b);
        // Rewrite φ arguments: reload at the end of the predecessor.
        let mut pending_pred_reloads: Vec<(BlockId, Var)> = Vec::new();
        for i in 0..f.num_phis_in(b) {
            let before = pending_pred_reloads.len();
            for a in 0..f.phi_args_mut(b, i).len() {
                if f.phi_args_mut(b, i)[a].value == victim {
                    let t = f.derive_var(victim, "_reload");
                    let arg = &mut f.phi_args_mut(b, i)[a];
                    arg.value = t;
                    pending_pred_reloads.push((arg.pred, t));
                }
            }
            if pending_pred_reloads.len() > before {
                rewrite.modified_blocks.push(b);
            }
        }
        for (pred, t) in pending_pred_reloads {
            inserts[pred.index()].push((f.num_instrs(pred), reload(t)));
            result.reloads += 1;
            rewrite.modified_blocks.push(pred);
            rewrite.phi_pred_reloads.push((pred, t));
        }

        // Rewrite ordinary uses inside the block.
        for i in 0..n {
            if !f.instr(b, i).local_uses().contains(&victim) {
                continue;
            }
            rewrite.modified_blocks.push(b);
            let t = f.derive_var(victim, "_reload");
            for u in f.uses_mut(b, i).iter_mut().filter(|u| **u == victim) {
                *u = t;
            }
            inserts[b.index()].push((i, reload(t)));
            result.reloads += 1;
        }

        // Rewrite terminator uses.
        if f.terminator(b).uses().contains(&victim) {
            rewrite.modified_blocks.push(b);
            let t = f.derive_var(victim, "_reload");
            for u in f
                .terminator_mut(b)
                .uses_mut()
                .iter_mut()
                .filter(|u| **u == victim)
            {
                *u = t;
            }
            inserts[b.index()].push((n, reload(t)));
            result.reloads += 1;
        }
    }
    for (b, mut block_inserts) in f.block_ids().zip(inserts) {
        if !block_inserts.is_empty() {
            // A φ-argument reload can be recorded for a block before that
            // block's own use reloads; the stable sort restores position
            // order and keeps the appends in recording order.
            block_inserts.sort_by_key(|&(p, _)| p);
            f.splice(b, block_inserts);
        }
    }
    debug_assert!(f.validate().is_ok());
    rewrite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FunctionBuilder, Instr, Terminator};
    use crate::out_of_ssa::destruct_ssa;
    use std::cell::RefCell;

    thread_local! {
        /// The [`BlockChains`] edits `(linked, var, block)` made on this
        /// thread while recording is on (`Some`).
        static CHAIN_LOG: RefCell<Option<Vec<(bool, Var, u32)>>> = const { RefCell::new(None) };
    }

    /// Records one chain edit if recording is on.
    pub(super) fn log_chain_edit(linked: bool, v: Var, b: u32) {
        CHAIN_LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push((linked, v, b));
            }
        });
    }

    /// Spills a clone of `f` with the pressure spiller at `k`, returning
    /// the rewrite and the chain edits the call made.
    fn recorded_spill(f: &Function, k: usize) -> (Function, Vec<(bool, Var, u32)>) {
        CHAIN_LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        let mut g = f.clone();
        spill_to_pressure(&mut g, k);
        let log = CHAIN_LOG
            .with(|log| log.borrow_mut().take())
            .unwrap_or_default();
        (g, log)
    }

    /// `g`, a function of the generator crate's build of this crate,
    /// rebuilt instruction by instruction as a function of this build.
    macro_rules! local_copy {
        ($g:expr) => {{
            let g = &mut $g;
            assert_eq!(g.entry.index(), 0, "generated entry is block 0");
            let mut builder = FunctionBuilder::new(g.name.clone());
            let f = builder.function_mut();
            // Generated variables are unnamed.
            for _ in 0..g.num_vars() {
                f.new_var("");
            }
            for b in g.block_ids() {
                let term = g.terminator(b);
                let succ: Vec<BlockId> =
                    term.successors().map(|s| BlockId::new(s.index())).collect();
                let uses: Vec<Var> = term.uses().iter().map(|u| Var::new(u.index())).collect();
                let term = match succ[..] {
                    [] => Terminator::Return { uses },
                    [to] => Terminator::Jump(to),
                    [then_block, else_block] => Terminator::Branch {
                        cond: uses[0],
                        then_block,
                        else_block,
                    },
                    _ => unreachable!("at most two successors"),
                };
                let local = if b.index() == 0 {
                    *f.terminator_mut(BlockId::new(0)) = term;
                    f.set_loop_depth(BlockId::new(0), g.loop_depth(b));
                    BlockId::new(0)
                } else {
                    f.add_block(term, g.loop_depth(b))
                };
                for i in 0..g.num_instrs(b) {
                    let instr = g.instr(b, i);
                    let def = instr.def().map(|d| Var::new(d.index()));
                    let uses: Vec<Var> = instr
                        .local_uses()
                        .iter()
                        .map(|u| Var::new(u.index()))
                        .collect();
                    let (is_copy, is_phi) = (instr.is_copy(), instr.is_phi());
                    let instr = if is_phi {
                        let args = g.phi_args_mut(b, i).iter();
                        let args = args
                            .map(|a| (BlockId::new(a.pred.index()), Var::new(a.value.index())))
                            .collect();
                        Instr::Phi {
                            dst: def.unwrap(),
                            args,
                        }
                    } else if is_copy {
                        Instr::Copy {
                            dst: def.unwrap(),
                            src: uses[0],
                        }
                    } else {
                        Instr::Op { dst: def, uses }
                    };
                    f.push_instr(local, instr);
                }
            }
            let f = builder.finish();
            assert_eq!(f.to_string(), g.to_string(), "local copy of {}", g.name);
            f
        }};
    }

    /// Applies `log` to a fresh [`BlockChains`] and to a `Vec<Vec<u32>>`
    /// multiset per variable, comparing the edited variable's blocks after
    /// every step and every variable's at the end.
    fn assert_chains_match_rows(log: &[(bool, Var, u32)]) {
        let mut chains = BlockChains::default();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let sorted = |mut blocks: Vec<u32>| {
            blocks.sort_unstable();
            blocks
        };
        for (step, &(linked, v, b)) in log.iter().enumerate() {
            if v.index() >= rows.len() {
                chains.grow(v.index() + 1);
                rows.resize_with(v.index() + 1, Vec::new);
            }
            let row = &mut rows[v.index()];
            if linked {
                chains.link(v, b);
                row.push(b);
            } else {
                chains.unlink(v, b);
                let at = row.iter().position(|&x| x == b).expect("reference row");
                row.swap_remove(at);
            }
            assert_eq!(
                sorted(chains.blocks(v).collect()),
                sorted(rows[v.index()].clone()),
                "{v:?} after step {step}"
            );
        }
        for (i, row) in rows.iter().enumerate() {
            let v = Var::new(i);
            assert_eq!(
                sorted(chains.blocks(v).collect()),
                sorted(row.clone()),
                "{v:?}"
            );
        }
    }

    /// The chain edits of the pressure spiller on the seed-42 module
    /// functions and one E15 CFG scaling program (thousands of blocks), at
    /// `tight_k` and at the module's `k = 12`, and on their spilled forms
    /// lowered out of SSA (where one block can close several segments of a
    /// variable), replayed on the arena and on per-variable `Vec` rows.
    #[test]
    fn block_chains_match_vec_rows_on_recorded_spills() {
        let mut functions: Vec<Function> = coalesce_gen::module::module_specs(
            &coalesce_gen::module::ModuleParams { functions: 120 },
            42,
        )
        .iter()
        .map(|spec| local_copy!(spec.generate()))
        .collect();
        // One E15 CFG scaling program, the int-branchy row's at seed 42
        // (`e15_cfg_program`): thousands of blocks.
        let mut params = coalesce_gen::cfg::ShapeProfile::IntBranchy.params(8);
        params.regions = 400;
        let mut big = coalesce_gen::cfg::generate(&params, &mut coalesce_gen::rng(42 + 1550));
        let big = local_copy!(big);
        assert!(big.num_blocks() >= 2_000, "{} blocks", big.num_blocks());
        functions.push(big);
        let (mut unlinks, mut lowered_unlinks) = (0, 0);
        for f in &functions {
            let maxlive = Liveness::compute(f).maxlive_precise(f);
            let k = tight_k(maxlive);
            for k in [k, 12] {
                let (_, log) = recorded_spill(f, k);
                assert_chains_match_rows(&log);
                unlinks += log.iter().filter(|e| !e.0).count();
            }
            let (mut lowered, _) = recorded_spill(f, k);
            destruct_ssa(&mut lowered);
            for k in [3, k - 1] {
                let (_, log) = recorded_spill(&lowered, k);
                assert_chains_match_rows(&log);
                lowered_unlinks += log.iter().filter(|e| !e.0).count();
            }
        }
        // About 295 000 and 224 000.
        assert!(
            unlinks > 100_000 && lowered_unlinks > 100_000,
            "{unlinks} / {lowered_unlinks} unlinks"
        );
    }

    /// A straight-line block with `n` values all live at the same point.
    fn high_pressure(n: usize) -> Function {
        let mut b = FunctionBuilder::new("pressure");
        let entry = b.entry_block();
        let vars: Vec<Var> = (0..n).map(|i| b.def(entry, format!("v{i}"))).collect();
        let _sum = b.op(entry, "sum", &vars);
        b.ret(entry, &[]);
        b.finish()
    }

    #[test]
    fn no_spill_needed_below_threshold() {
        let mut f = high_pressure(3);
        let live = Liveness::compute(&f);
        assert_eq!(live.maxlive_precise(&f), 3);
        let result = spill_to_pressure(&mut f, 4);
        assert!(result.spilled.is_empty());
    }

    #[test]
    fn spilling_reduces_maxlive() {
        let mut f = high_pressure(6);
        let before = Liveness::compute(&f).maxlive_precise(&f);
        assert_eq!(before, 6);
        let result = spill_to_pressure(&mut f, 6);
        assert!(result.spilled.is_empty());
        // Note: with all six operands feeding a single instruction, every
        // reload is live at the use, so pressure at that point cannot drop
        // below 6; ask for 6 and we are already there.
        assert!(Liveness::compute(&f).maxlive_precise(&f) <= 6);
    }

    #[test]
    fn spilling_long_live_range_helps() {
        // x is live across a long chain; spilling it removes the overlap.
        let mut b = FunctionBuilder::new("long");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let mut prev = b.def(entry, "a0");
        for i in 1..5usize {
            prev = b.op(entry, format!("a{i}"), &[prev]);
        }
        let last = b.op(entry, "use_x", &[x, prev]);
        b.ret(entry, &[last]);
        let mut f = b.finish();
        let before = Liveness::compute(&f).maxlive_precise(&f);
        assert_eq!(before, 2);
        let result = spill_to_pressure(&mut f, 1);
        // x (or the chain variable) gets spilled; pressure can only go so
        // low because the final op uses two operands at once.
        assert!(!result.spilled.is_empty() || before <= 1);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn spill_everywhere_rewrites_uses() {
        let mut b = FunctionBuilder::new("f");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.op(entry, "y", &[x]);
        let z = b.op(entry, "z", &[x, y]);
        b.ret(entry, &[z, x]);
        let mut f = b.finish();
        let mut result = SpillResult::default();
        spill_everywhere(&mut f, x, &mut result);
        assert_eq!(result.reloads, 3);
        // x itself no longer appears as a use anywhere.
        for (_, _, instr) in f.instructions() {
            assert!(!instr.local_uses().contains(&x));
        }
        for bid in f.block_ids() {
            assert!(!f.terminator(bid).uses().contains(&x));
        }
    }

    #[test]
    fn spill_costs_weight_uses_by_loop_depth() {
        // x is used inside a depth-2 loop body, y only outside it.
        let mut b = FunctionBuilder::new("cost");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.set_loop_depth(body, 2);
        let x = b.def(entry, "x");
        let y = b.def(entry, "y");
        let c = b.def(entry, "c");
        b.jump(entry, body);
        b.effect(body, &[x]);
        b.branch(body, c, body, exit);
        b.ret(exit, &[y]);
        let f = b.finish();
        let costs = spill_costs(&f);
        assert_eq!(costs[x.index()], 1 + 100); // store + loop-body use
        assert_eq!(costs[y.index()], 1 + 1); // store + use at exit
        assert_eq!(costs[c.index()], 1 + 100); // store + loop-body branch
    }

    #[test]
    fn loop_weights_stay_strictly_ordered_up_to_the_depth_cap() {
        // The old `10u64.saturating_pow(depth)` collapsed every depth ≥ 20
        // onto `u64::MAX`, so victims at distinct very deep nests compared
        // equal on cost.  The clamped weight keeps all depths up to the
        // cap strictly ordered and finite.
        for d in 0..MAX_WEIGHT_DEPTH {
            assert!(
                loop_weight(d) < loop_weight(d + 1),
                "weights for depths {d} and {} must stay ordered",
                d + 1
            );
        }
        // Past the cap the weight pins at the exact power 10^18 — not the
        // saturated sentinel the old code produced.
        assert_eq!(loop_weight(MAX_WEIGHT_DEPTH), 10u64.pow(18));
        assert_eq!(loop_weight(MAX_WEIGHT_DEPTH + 1), 10u64.pow(18));
        assert_eq!(loop_weight(u32::MAX), 10u64.pow(18));
        assert!(loop_weight(u32::MAX) < u64::MAX);
    }

    #[test]
    fn spill_costs_order_victims_across_very_deep_nests() {
        // Two values used at depths 17 and 18 of a deep nest: their costs
        // must differ (the old saturating weights kept them ordered too,
        // but depths 20 vs 25 collapsed — exercise the cap boundary).
        let mut b = FunctionBuilder::new("deep");
        let entry = b.entry_block();
        let d17 = b.new_block();
        let d18 = b.new_block();
        let d25 = b.new_block();
        let d30 = b.new_block();
        b.set_loop_depth(d17, 17);
        b.set_loop_depth(d18, 18);
        b.set_loop_depth(d25, 25);
        b.set_loop_depth(d30, 30);
        let x = b.def(entry, "x");
        let y = b.def(entry, "y");
        let p = b.def(entry, "p");
        let q = b.def(entry, "q");
        b.jump(entry, d17);
        b.effect(d17, &[x]);
        b.jump(d17, d18);
        b.effect(d18, &[y]);
        b.jump(d18, d25);
        b.effect(d25, &[p]);
        b.jump(d25, d30);
        b.effect(d30, &[q]);
        b.ret(d30, &[]);
        let f = b.finish();
        let costs = spill_costs(&f);
        // Below the cap: strictly ordered by depth.
        assert!(costs[x.index()] < costs[y.index()]);
        // At and past the cap: equal by design (documented), but finite.
        assert_eq!(costs[p.index()], costs[q.index()]);
        assert!(costs[q.index()] < u64::MAX / 2);
    }

    #[test]
    fn spill_all_candidates_lowers_pressure_like_the_greedy_spiller() {
        // Five values defined together and used one by one: all of them
        // overlap at the definition cluster, and all are long-lived, so
        // the naive baseline spills every one of them in a single round.
        let mut b = FunctionBuilder::new("baseline");
        let entry = b.entry_block();
        let vars: Vec<Var> = (0..5).map(|i| b.def(entry, format!("x{i}"))).collect();
        for &v in &vars {
            b.effect(entry, &[v]);
        }
        b.ret(entry, &[]);
        let mut f = b.finish();
        let liveness = Liveness::compute(&f);
        assert_eq!(liveness.maxlive_precise(&f), 5);
        let result = spill_all_candidates(&mut f, 2, liveness);
        assert!(f.validate().is_ok());
        assert_eq!(result.spilled.len(), 5);
        assert!(Liveness::compute(&f).maxlive_precise(&f) <= 2);
    }

    #[test]
    fn loop_aware_choice_spills_the_value_idle_across_the_loop() {
        // Both `hot` and `idle` are live through a loop body that is over
        // pressure, but only `hot` is used inside it; the loop-aware cost
        // must pick `idle` even though both free the same pressure points.
        let mut b = FunctionBuilder::new("loop_spill");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.set_loop_depth(body, 1);
        let idle = b.def(entry, "idle");
        let hot = b.def(entry, "hot");
        let c = b.def(entry, "c");
        b.jump(entry, body);
        let t = b.op(body, "t", &[hot]);
        b.effect(body, &[t, hot]);
        b.branch(body, c, body, exit);
        b.effect(exit, &[idle, hot]);
        b.ret(exit, &[]);
        let mut f = b.finish();
        let result = spill_to_pressure(&mut f, 3);
        assert!(
            result.spilled.contains(&idle),
            "expected `idle` to be spilled, got {:?}",
            result.spilled
        );
        assert!(!result.spilled.contains(&hot));
        assert!(f.validate().is_ok());
    }

    #[test]
    fn tight_k_halves_maxlive_but_keeps_three_registers() {
        assert_eq!([0, 5, 6, 7, 8, 21].map(tight_k), [3, 3, 3, 3, 4, 10]);
    }

    #[test]
    fn spill_terminates_when_target_unreachable() {
        // Asking for pressure 0 can never fully succeed; the pass must not
        // loop forever.
        let mut f = high_pressure(3);
        let _ = spill_to_pressure(&mut f, 0);
        assert!(f.validate().is_ok());
    }
}
