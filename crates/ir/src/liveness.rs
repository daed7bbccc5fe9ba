//! Live-variable analysis and `Maxlive`.
//!
//! Standard backward dataflow over the CFG, with the usual SSA convention
//! for φ-functions: a φ's arguments are used at the end of the
//! corresponding predecessor blocks, and a φ's result is defined at the
//! entry of its own block.
//!
//! `Maxlive` — the maximum number of variables simultaneously live at a
//! program point — is the quantity Theorem 1 equates with the clique number
//! of an SSA interference graph, and the lower bound that the spilling
//! phase of a two-phase allocator drives below the register count `k`.
//!
//! # Representation
//!
//! Live sets are dense bitsets over variable indices ([`VarSet`]): the
//! solver is a worklist iteration whose transfer functions are word-wide
//! OR/AND-NOT operations, [`Liveness::live_in`]/[`Liveness::live_out`]
//! return borrowed set views, and the per-point queries
//! ([`Liveness::for_each_point_rev`]) stream one reusable cursor set
//! backwards through a block instead of materialising a cloned set per
//! program point.  The transfer functions read the flat IR directly:
//! walking a block is an iteration over its contiguous order slice, and an
//! instruction's uses are borrowed pool slices
//! ([`InstrView::local_uses`](crate::function::InstrView::local_uses)) —
//! no per-instruction `Vec` clone anywhere in the fixpoint.  The spiller
//! patches the solution in place after each rewrite
//! ([`Liveness::apply_spill_rewrite`]) rather than re-running the
//! fixpoint.

use crate::function::{BlockId, Function, InstrView, Var};
use std::collections::VecDeque;

const WORD_BITS: usize = 64;

/// A dense bitset over [`Var`] indices.
///
/// The workhorse of the liveness representation: membership is one
/// shift/mask, unions are word-wide ORs, and iteration walks set bits in
/// ascending variable order.  The set grows automatically when a variable
/// beyond the current capacity is inserted (spilling introduces fresh
/// reload temporaries after the initial analysis).
#[derive(Debug, Clone, Default)]
pub struct VarSet {
    words: Vec<u64>,
    len: usize,
}

impl VarSet {
    /// Creates an empty set with room for `capacity` variables.
    pub fn new(capacity: usize) -> Self {
        VarSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every variable.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Returns `true` if `v` is in the set.
    pub fn contains(&self, v: Var) -> bool {
        let (w, b) = (v.index() / WORD_BITS, v.index() % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Inserts `v`; returns `true` if it was new.  Grows the capacity if
    /// `v` lies beyond it.
    pub fn insert(&mut self, v: Var) -> bool {
        let (w, b) = (v.index() / WORD_BITS, v.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let inserted = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += usize::from(inserted);
        inserted
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        let (w, b) = (v.index() / WORD_BITS, v.index() % WORD_BITS);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let removed = *word & (1 << b) != 0;
        *word &= !(1 << b);
        self.len -= usize::from(removed);
        removed
    }

    /// Makes `self` a copy of `other` (reusing the allocation).
    pub fn copy_from(&mut self, other: &VarSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Unions `other` into `self`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &VarSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        let mut len = 0usize;
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            let merged = *dst | src;
            changed |= merged != *dst;
            *dst = merged;
            len += merged.count_ones() as usize;
        }
        for &word in &self.words[other.words.len()..] {
            len += word.count_ones() as usize;
        }
        self.len = len;
        changed
    }

    /// The backing words: bit `v % 64` of word `v / 64` is set iff `v` is
    /// a member.  Bits past the last word are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the members in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(Var::new(w * WORD_BITS + b))
            })
        })
    }
}

impl PartialEq for VarSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(&a, &b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for VarSet {}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let mut set = VarSet::default();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

/// Result of liveness analysis for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    live_in: Vec<VarSet>,
    live_out: Vec<VarSet>,
}

impl Liveness {
    /// Runs the analysis on `f`: a worklist fixpoint over bitset transfer
    /// functions, seeded with every block in reverse index order (a good
    /// approximation of postorder for the structured CFGs the generators
    /// emit, so most blocks converge in one visit).
    pub fn compute(f: &Function) -> Self {
        let _span = coalesce_stats::span!("ir/liveness");
        let n = f.num_blocks();
        let mut live = Liveness {
            live_in: vec![VarSet::new(f.num_vars()); n],
            live_out: vec![VarSet::new(f.num_vars()); n],
        };
        let preds = f.predecessors();
        live.solve(f, &preds, (0..n).rev().map(BlockId::new));
        live
    }

    /// Worklist solver: (re)processes the seed blocks and propagates every
    /// `live_in` change to the block's predecessors until the fixpoint.
    fn solve(
        &mut self,
        f: &Function,
        preds: &[Vec<BlockId>],
        seeds: impl Iterator<Item = BlockId>,
    ) {
        let n = f.num_blocks();
        let mut queued = vec![false; n];
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        for b in seeds {
            if !queued[b.index()] {
                queued[b.index()] = true;
                queue.push_back(b);
            }
        }
        // Scratch sets reused across iterations: `out` accumulates the
        // block's live-out, `flow` stages each successor's contribution.
        let mut out = VarSet::new(f.num_vars());
        let mut flow = VarSet::new(f.num_vars());
        // Local tally, reported once after the fixpoint: the worklist loop
        // is the hottest path in the analysis.
        let mut iterations: u64 = 0;
        while let Some(b) = queue.pop_front() {
            iterations += 1;
            queued[b.index()] = false;
            // live-out(b) = ∪_{s ∈ succ(b)} (live-in(s) \ phidefs(s)) ∪ phiuses(s from b)
            out.clear();
            for s in f.successors(b) {
                flow.copy_from(&self.live_in[s.index()]);
                for phi in f.phis(s) {
                    if let InstrView::Phi { dst, args } = phi {
                        flow.remove(dst);
                        for a in args {
                            if a.pred == b {
                                flow.insert(a.value);
                            }
                        }
                    }
                }
                out.union_with(&flow);
            }
            // live-in(b) computed by walking the block backwards.
            flow.copy_from(&out);
            for &v in f.terminator(b).uses() {
                flow.insert(v);
            }
            for instr in f.block_instrs(b).rev() {
                if let Some(d) = instr.def() {
                    flow.remove(d);
                }
                for &u in instr.local_uses() {
                    flow.insert(u);
                }
            }
            if out != self.live_out[b.index()] {
                std::mem::swap(&mut self.live_out[b.index()], &mut out);
            }
            if flow != self.live_in[b.index()] {
                std::mem::swap(&mut self.live_in[b.index()], &mut flow);
                for &p in &preds[b.index()] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
        coalesce_stats::counter!("liveness.worklist_iterations", iterations);
    }

    /// Variables live at the entry of `b` (φ results excluded — they are
    /// defined by the φs themselves).
    pub fn live_in(&self, b: BlockId) -> &VarSet {
        &self.live_in[b.index()]
    }

    /// Variables live at the exit of `b`.
    pub fn live_out(&self, b: BlockId) -> &VarSet {
        &self.live_out[b.index()]
    }

    /// Streams the live sets of every program point of `b` to `visit`, in
    /// **reverse** order: the visit starts at point `n = |instrs|` (the
    /// live-out set including the terminator's uses) and steps backwards to
    /// point `0` (the set live immediately before the first instruction).
    /// One cursor set is reused for the whole walk — no per-point
    /// allocation; the callback must not retain the reference.
    ///
    /// Point `i` is the set of variables live immediately before
    /// instruction `i`, exactly the rows [`Liveness::live_points`]
    /// materialises.
    pub fn for_each_point_rev(
        &self,
        f: &Function,
        b: BlockId,
        mut visit: impl FnMut(usize, &VarSet),
    ) {
        let mut live = self.live_out[b.index()].clone();
        for &v in f.terminator(b).uses() {
            live.insert(v);
        }
        visit(f.num_instrs(b), &live);
        for (i, instr) in f.block_instrs(b).enumerate().rev() {
            if let Some(d) = instr.def() {
                live.remove(d);
            }
            for &u in instr.local_uses() {
                live.insert(u);
            }
            visit(i, &live);
        }
    }

    /// Returns the sequence of live sets at every program point of `b`,
    /// materialised in forward order: point `i` is the set of variables
    /// live immediately before instruction `i`; the last entry is the
    /// live-out set including the terminator's uses.
    ///
    /// Allocates one [`VarSet`] per point — hot paths stream through
    /// [`Liveness::for_each_point_rev`] instead.
    pub fn live_points(&self, f: &Function, b: BlockId) -> Vec<VarSet> {
        let mut points = vec![VarSet::default(); f.num_instrs(b) + 1];
        self.for_each_point_rev(f, b, |i, live| points[i] = live.clone());
        points
    }

    /// The precise `Maxlive` over every program point of `f`, including
    /// points between instructions inside blocks (where a freshly defined
    /// variable and the still-live variables overlap).
    ///
    /// A single counting pass per block over the streamed point cursor —
    /// no per-point set is materialised.
    pub fn maxlive_precise(&self, f: &Function) -> usize {
        let mut max = 0;
        for b in f.block_ids() {
            // Walk the points backwards; when the cursor stands at point
            // `i + 1` the pressure of instruction `i`'s definition point is
            // known (a defined value occupies a register at its definition
            // even when dead, which keeps Maxlive equal to the clique
            // number of the SSA interference graph — Theorem 1 — in the
            // presence of dead code).
            self.for_each_point_rev(f, b, |i, live| {
                max = max.max(live.len());
                if i > 0 {
                    let instr = f.instr(b, i - 1);
                    if !instr.is_phi() {
                        if let Some(d) = instr.def() {
                            max = max.max(live.len() + usize::from(!live.contains(d)));
                        }
                    }
                }
            });
            // Also count φ results together with live-in (they are all live
            // simultaneously at the block entry in the SSA semantics).
            let phi_defs = f.phis(b).filter_map(|p| p.def()).count();
            if phi_defs > 0 {
                max = max.max(self.live_in[b.index()].len() + phi_defs);
            }
        }
        max
    }

    /// Returns `true` if variable `v` is live at the entry of block `b`.
    pub fn is_live_in(&self, b: BlockId, v: Var) -> bool {
        self.live_in[b.index()].contains(v)
    }

    /// Patches the solution in place after a spill-everywhere rewrite of
    /// `victim` ([`crate::spill::spill_everywhere`]), instead of re-running
    /// the whole fixpoint.  The patch is **exact**:
    ///
    /// * every use of `victim` was replaced by a fresh reload temporary, so
    ///   `victim` is live at no block boundary any more — its bit is
    ///   cleared everywhere;
    /// * ordinary and terminator reload temporaries live entirely inside
    ///   one block, so no boundary set changes for them;
    /// * a φ-argument reload is defined at the end of its predecessor and
    ///   consumed by the φ, so it joins exactly that predecessor's
    ///   live-out set (`phi_pred_reloads`, as reported by the rewrite);
    /// * every other variable keeps its block-level transfer function, so
    ///   its liveness is untouched.
    ///
    /// The incremental-vs-recompute equivalence is pinned by the
    /// `cfg_workloads` property tests.
    pub fn apply_spill_rewrite(&mut self, victim: Var, phi_pred_reloads: &[(BlockId, Var)]) {
        for set in self.live_in.iter_mut().chain(self.live_out.iter_mut()) {
            set.remove(victim);
        }
        for &(pred, reload) in phi_pred_reloads {
            self.live_out[pred.index()].insert(reload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FunctionBuilder, Instr};

    fn members(set: &VarSet) -> Vec<Var> {
        set.iter().collect()
    }

    #[test]
    fn varset_insert_remove_iter() {
        let mut s = VarSet::new(4);
        assert!(s.insert(Var::new(3)));
        assert!(s.insert(Var::new(100))); // auto-grow
        assert!(!s.insert(Var::new(3)));
        assert_eq!(s.len(), 2);
        assert_eq!(members(&s), vec![Var::new(3), Var::new(100)]);
        assert!(s.remove(Var::new(3)));
        assert!(!s.remove(Var::new(3)));
        assert!(!s.remove(Var::new(500))); // out of range
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn varset_equality_ignores_capacity() {
        let mut a = VarSet::new(1);
        let mut b = VarSet::new(1000);
        a.insert(Var::new(0));
        b.insert(Var::new(0));
        assert_eq!(a, b);
        b.insert(Var::new(999));
        assert_ne!(a, b);
    }

    #[test]
    fn varset_union_reports_changes() {
        let mut a: VarSet = [Var::new(1)].into_iter().collect();
        let b: VarSet = [Var::new(1), Var::new(70)].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn straight_line_liveness() {
        let mut b = FunctionBuilder::new("straight");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.def(entry, "y");
        let z = b.op(entry, "z", &[x, y]);
        b.ret(entry, &[z]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        assert!(live.live_in(entry).is_empty());
        assert!(live.live_out(entry).is_empty());
        // x and y are both live just before z's definition.
        let points = live.live_points(&f, entry);
        assert_eq!(members(&points[2]), vec![x, y]);
        assert_eq!(live.maxlive_precise(&f), 2);
    }

    #[test]
    fn streamed_points_match_the_materialised_ones() {
        let mut b = FunctionBuilder::new("stream");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.op(entry, "y", &[x]);
        let z = b.op(entry, "z", &[x, y]);
        b.ret(entry, &[z]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let points = live.live_points(&f, entry);
        let mut seen = vec![false; points.len()];
        live.for_each_point_rev(&f, entry, |i, set| {
            assert_eq!(*set, points[i], "point {i}");
            seen[i] = true;
        });
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn value_live_across_branch() {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.def(entry, "x");
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.op(t, "y", &[x]);
        b.jump(t, j);
        let z = b.op(e, "z", &[x]);
        b.jump(e, j);
        let w = b.phi(j, "w", &[(t, y), (e, z)]);
        b.ret(j, &[w]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        assert!(live.live_out(entry).contains(x));
        assert!(live.is_live_in(t, x));
        assert!(live.is_live_in(e, x));
        // y is live out of `t` (φ use), but not live into `j` (φ handles it).
        assert!(live.live_out(t).contains(y));
        assert!(!live.is_live_in(j, y));
        assert!(!live.is_live_in(j, w));
    }

    #[test]
    fn loop_carried_value_is_live_around_the_loop() {
        let mut b = FunctionBuilder::new("loop");
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        let i0 = b.def(entry, "i0");
        b.jump(entry, header);
        let i1 = b.fresh_var("i1");
        let iphi = b.phi(header, "iphi", &[(entry, i0), (body, i1)]);
        b.branch(header, c, body, exit);
        b.function_mut().push_instr(
            body,
            Instr::Op {
                dst: Some(i1),
                uses: vec![iphi],
            },
        );
        b.jump(body, header);
        b.ret(exit, &[iphi]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        // The branch condition is live around the whole loop.
        assert!(live.is_live_in(header, c));
        assert!(live.live_out(body).contains(c));
        // The φ result is live through the body and out of the loop.
        assert!(live.is_live_in(body, iphi));
        assert!(live.is_live_in(exit, iphi));
        assert!(live.live_out(body).contains(i1));
        assert!(live.maxlive_precise(&f) >= 2);
    }

    #[test]
    fn dead_definition_is_not_live_anywhere() {
        let mut b = FunctionBuilder::new("dead");
        let entry = b.entry_block();
        let next = b.new_block();
        let x = b.def(entry, "x");
        let d = b.def(entry, "dead");
        b.jump(entry, next);
        b.ret(next, &[x]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        assert!(live.live_out(entry).contains(x));
        assert!(!live.live_out(entry).contains(d));
        assert!(!live.is_live_in(next, d));
    }

    #[test]
    fn maxlive_counts_simultaneously_live_phis() {
        // Two φs at the join: both results live simultaneously.
        let mut b = FunctionBuilder::new("two_phis");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let a1 = b.def(t, "a1");
        let b1 = b.def(t, "b1");
        b.jump(t, j);
        let a2 = b.def(e, "a2");
        let b2 = b.def(e, "b2");
        b.jump(e, j);
        let pa = b.phi(j, "pa", &[(t, a1), (e, a2)]);
        let pb = b.phi(j, "pb", &[(t, b1), (e, b2)]);
        b.ret(j, &[pa, pb]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        assert!(live.maxlive_precise(&f) >= 2);
    }
}
