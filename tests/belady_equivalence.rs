//! Equivalence pin for the planned Belady spiller.
//!
//! The next-use distances and per-block scans of `coalesce_ir::belady`
//! once kept every distance in per-block `BTreeMap`s and rebuilt a
//! `BTreeMap` of use positions per block in every decision round.  The
//! current pass derives a per-operand plan once per call, solves the
//! distances on the caller's liveness and rewrites through dense arrays;
//! it must decide exactly what the maps decided.  [`reference`] keeps the
//! map-based pass verbatim; the tests compare boundary distances, victim
//! order, reload positions, the `SpillResult`, the printed rewrite and the
//! collected counters on every CFG shape × pressure profile and on
//! module-drawn functions, at `k` = 0, 2, `tight_k` and `Maxlive`, and on
//! the first 500 functions of the default seed-42 module at `tight_k`.
//! The counters are collected around `SpillInput::spill`, so the liveness
//! the pass reads may charge nothing there; the standalone
//! `SpillerKind::run`, which solves its own liveness, must produce the
//! same rewrite.  A last property pins the documented key sets of the
//! distance lists to the live-in and live-out sets.

use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::belady::{belady_decisions, NextUse};
use coalesce_ir::function::{Function, Var};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{tight_k, SpillInput, SpillerKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

mod legacy_edits;

/// The map-based next-use fixpoint, block scan and rewrite as they stood
/// before the flat storage and the in-place edits, copied verbatim (only
/// the span is dropped, the decision items made public, and the removed
/// `replace_instr`/`insert_instr` come from [`legacy_edits`]).
#[allow(clippy::pedantic)]
mod reference {
    use super::legacy_edits::LegacyEdits;
    use coalesce_ir::function::{BlockId, Function, Instr, InstrView, Terminator, Var};
    use coalesce_ir::spill::SpillResult;
    use std::collections::BTreeMap;

    /// Extra next-use distance charged to an edge that leaves a loop (the
    /// successor's loop depth is smaller than the block's).
    ///
    /// Any use only reachable through such an edge happens at most once per
    /// loop *execution* rather than once per iteration, so it should lose
    /// every eviction contest against values the loop itself still needs.
    /// The constant merely has to dominate realistic in-loop distances; it is
    /// added with saturating arithmetic, so nested exits cannot overflow.
    pub const LOOP_EXIT_DISTANCE: u64 = 100_000;

    /// Sentinel distance for "no further use on any path".
    const INFINITE: u64 = u64::MAX;

    /// Next-use distances at block boundaries, in instruction slots.
    ///
    /// Distances follow the conventions of the per-block scan: inside a block
    /// of `n` instructions, ordinary instruction `i` is at distance `i` from
    /// the entry, the terminator at `n`, and crossing the block costs `n + 1`
    /// slots.  A φ-argument toward a successor counts as a use at distance 0
    /// past the predecessor's exit (plus the loop-exit penalty of the edge, if
    /// any); φ-results are definitions at their block's entry and therefore
    /// never appear in that block's entry map.
    #[derive(Debug, Clone)]
    pub struct NextUse {
        /// `entry[b][v]` — distance from the entry of block `b` to the nearest
        /// use of `v`.  For strict SSA input the key set is exactly the
        /// live-in set of `b`.
        pub entry: Vec<BTreeMap<Var, u64>>,
        /// `exit[b][v]` — distance from the exit of block `b` (past its
        /// terminator) to the nearest use of `v` on any outgoing path.
        pub exit: Vec<BTreeMap<Var, u64>>,
    }

    fn merge_min(m: &mut BTreeMap<Var, u64>, v: Var, d: u64) {
        let e = m.entry(v).or_insert(u64::MAX);
        if d < *e {
            *e = d;
        }
    }

    impl NextUse {
        /// Computes the boundary next-use distances of `f` by a backward
        /// min-plus fixpoint (a shortest-distance problem: all block lengths
        /// are positive, so the iteration converges).
        pub fn compute(f: &Function) -> NextUse {
            let nb = f.num_blocks();
            let mut entry: Vec<BTreeMap<Var, u64>> = vec![BTreeMap::new(); nb];
            let mut exit: Vec<BTreeMap<Var, u64>> = vec![BTreeMap::new(); nb];
            loop {
                let mut changed = false;
                for bi in (0..nb).rev() {
                    let b = BlockId::new(bi);
                    let n = f.num_instrs(b) as u64;
                    // Exit map: best distance over all outgoing edges.
                    let mut out: BTreeMap<Var, u64> = BTreeMap::new();
                    for s in f.successors(b) {
                        let penalty = if f.loop_depth(s) < f.loop_depth(b) {
                            LOOP_EXIT_DISTANCE
                        } else {
                            0
                        };
                        for (&v, &d) in &entry[s.index()] {
                            merge_min(&mut out, v, d.saturating_add(penalty));
                        }
                        // φ-arguments along this edge are used right at the
                        // predecessor's exit.
                        for phi in f.phis(s) {
                            if let InstrView::Phi { args, .. } = phi {
                                for a in args {
                                    if a.pred == b {
                                        merge_min(&mut out, a.value, penalty);
                                    }
                                }
                            }
                        }
                    }
                    // Entry map: local backward transfer over the block.
                    let mut m: BTreeMap<Var, u64> = BTreeMap::new();
                    for (&v, &d) in &out {
                        m.insert(v, (n + 1).saturating_add(d));
                    }
                    for &u in f.terminator(b).uses() {
                        merge_min(&mut m, u, n);
                    }
                    for (i, instr) in f.block_instrs(b).enumerate().rev() {
                        if let Some(d) = instr.def() {
                            m.remove(&d);
                        }
                        for &u in instr.local_uses() {
                            m.insert(u, i as u64);
                        }
                    }
                    if out != exit[bi] {
                        exit[bi] = out;
                        changed = true;
                    }
                    if m != entry[bi] {
                        entry[bi] = m;
                        changed = true;
                    }
                }
                if !changed {
                    return NextUse { entry, exit };
                }
            }
        }
    }

    /// One value of the modelled register file `W`.
    #[derive(Debug, Clone)]
    struct Resident {
        /// The (original) variable this register holds.
        var: Var,
        /// Distance from the current block's entry to its next use.
        next_use: u64,
        /// A per-block reload temporary: it *is* the spill access, so it can
        /// never itself be evicted.
        pinned: bool,
    }

    /// Evicts the evictable resident with the furthest next use (ties broken
    /// toward the higher variable index, deterministically).  Pinned reload
    /// temporaries and the `protect`ed operands of the current instruction are
    /// never evicted; returns `None` when nothing can go (the register file is
    /// then allowed to overflow — the same structural floor the other spillers
    /// hit when one instruction's operands alone exceed `k`).
    fn evict_furthest(w: &mut Vec<Resident>, protect: &[Var]) -> Option<Resident> {
        let mut best: Option<usize> = None;
        for (j, r) in w.iter().enumerate() {
            if r.pinned || protect.contains(&r.var) {
                continue;
            }
            let better = match best {
                None => true,
                Some(bj) => (r.next_use, r.var) > (w[bj].next_use, w[bj].var),
            };
            if better {
                best = Some(j);
            }
        }
        if best.is_some() {
            coalesce_stats::counter!("belady.evictions");
        }
        best.map(|j| w.swap_remove(j))
    }

    /// Spills variables of `f` towards `Maxlive ≤ k` with the Belady `MIN`
    /// rule and rewrites `f` in place (one reload temporary per block and
    /// spilled value — live-range splitting at block boundaries).  Returns the
    /// spilled variables in decision order.
    ///
    /// Like the other spillers, the result can stay above `k` at structurally
    /// forced points; for this pass the floor is its own result at `k = 0`
    /// (spill everything through the same one-reload-per-block rewrite): a
    /// reload temporary stays live between a block's first and last served
    /// use of its victim, so overlapping reload spans can congest a point no
    /// matter what `k` is, on top of the operand/φ pressure no spiller can
    /// remove.  One further slot is conceded at definitions whose value
    /// bypasses the register file — a dead result, or one whose own next use
    /// is the furthest of all (Belady then stores it right after the
    /// definition) — because the store still occupies the defining register
    /// at that single point.  `tests/ir_backend.rs` pins the resulting
    /// contract: `maxlive_precise ≤ max(k + 1, the pass's own k = 0 floor)`.
    pub fn spill_belady(f: &mut Function, k: usize) -> SpillResult {
        let decisions = belady_decisions(f, k);
        rewrite_spilled(f, decisions)
    }

    /// What phase 1 decided: the victims in decision order, plus — per (block,
    /// victim) — the position of the first use the model had to serve from
    /// memory in that block (`n` for a block of `n` instructions when the
    /// first such use is the terminator or an outgoing φ-argument).  The
    /// rewrite places each reload temporary exactly there; uses before that
    /// point were served by the still-resident original value and keep it.
    pub struct BeladyDecisions {
        pub order: Vec<Var>,
        pub reloads: BTreeMap<(usize, Var), u64>,
    }

    /// Phase 1 (analysis only): which values end up in memory, in the order
    /// the decisions were made, and where each block first reloads them.
    ///
    /// The per-block scans are iterated to a fixpoint of the global spill
    /// set.  A single pass is not enough: the blocks are scanned in index
    /// order, so a block inside a loop can spill a value whose next-iteration
    /// use an earlier-scanned block already decided to serve from a register —
    /// the two models then disagree across the back edge, and the value would
    /// stay live through the spilling block.  Re-scanning with the
    /// accumulated victims (which only grow, so the iteration terminates)
    /// makes every block see the same memory-resident set; at the fixpoint
    /// every surviving direct use is a resident use, which is what lets the
    /// modelled register file bound the rewritten pressure.
    pub fn belady_decisions(f: &Function, k: usize) -> BeladyDecisions {
        let next_use = NextUse::compute(f);
        let mut spilled = vec![false; f.num_vars()];
        let mut order: Vec<Var> = Vec::new();
        loop {
            let victims_before = order.len();
            let reloads = belady_scan(f, k, &next_use, &mut spilled, &mut order);
            if order.len() == victims_before {
                return BeladyDecisions { order, reloads };
            }
        }
    }

    /// One decision round: scans every block against the current global spill
    /// set (extending it), and returns the reload positions this round would
    /// imply.
    fn belady_scan(
        f: &Function,
        k: usize,
        next_use: &NextUse,
        spilled: &mut [bool],
        order: &mut Vec<Var>,
    ) -> BTreeMap<(usize, Var), u64> {
        let mut reloads: BTreeMap<(usize, Var), u64> = BTreeMap::new();
        for b in f.block_ids() {
            let n = f.num_instrs(b);
            // Local use positions per variable, in increasing order:
            // instruction index for ordinary uses, `n` for terminator uses and
            // φ-arguments toward successors (both happen at the block's end
            // and are served by the same per-block reload temporary).
            let mut use_pos: BTreeMap<Var, Vec<u64>> = BTreeMap::new();
            for (i, instr) in f.block_instrs(b).enumerate() {
                for &u in instr.local_uses() {
                    use_pos.entry(u).or_default().push(i as u64);
                }
            }
            for &u in f.terminator(b).uses() {
                use_pos.entry(u).or_default().push(n as u64);
            }
            for s in f.successors(b) {
                for phi in f.phis(s) {
                    if let InstrView::Phi { args, .. } = phi {
                        for a in args {
                            if a.pred == b {
                                use_pos.entry(a.value).or_default().push(n as u64);
                            }
                        }
                    }
                }
            }
            let exit_b = &next_use.exit[b.index()];
            // Next use of `v` strictly after position `pos`; `local_only`
            // stops at the block's end (the horizon of a reload temporary),
            // otherwise the exit distance extends the search across the
            // boundary.
            let next_after = |v: Var, pos: i64, local_only: bool| -> u64 {
                if let Some(ps) = use_pos.get(&v) {
                    for &p in ps {
                        if (p as i64) > pos {
                            return p;
                        }
                    }
                }
                if local_only {
                    return INFINITE;
                }
                match exit_b.get(&v) {
                    Some(&d) => (n as u64 + 1).saturating_add(d),
                    None => INFINITE,
                }
            };

            // Block entry: φ-results are defined here no matter what — even
            // the dead or already-spilled ones occupy a register at the entry
            // point (they are all simultaneously live with the live-in set),
            // so they consume entry capacity without entering `W`.  Then the
            // nearest-used live-in values fill the remaining capacity; the
            // rest start (or stay) in memory.
            let mut w: Vec<Resident> = Vec::new();
            let mut entry_overhead = 0usize;
            for phi in f.phis(b) {
                if let Some(d) = phi.def() {
                    if spilled[d.index()] {
                        entry_overhead += 1;
                        continue;
                    }
                    let nu = next_after(d, -1, false);
                    if nu == INFINITE {
                        entry_overhead += 1;
                        continue;
                    }
                    w.push(Resident {
                        var: d,
                        next_use: nu,
                        pinned: false,
                    });
                }
            }
            let entry_capacity = k.saturating_sub(entry_overhead);
            let mut entries: Vec<(u64, Var)> = next_use.entry[b.index()]
                .iter()
                .filter(|(v, _)| !spilled[v.index()])
                .map(|(&v, &d)| (d, v))
                .collect();
            entries.sort_unstable();
            for (_, v) in entries {
                if w.len() < entry_capacity {
                    let nu = next_after(v, -1, false);
                    w.push(Resident {
                        var: v,
                        next_use: nu,
                        pinned: false,
                    });
                } else if !spilled[v.index()] {
                    spilled[v.index()] = true;
                    order.push(v);
                }
            }

            // Forward scan: ordinary instructions, then the block's end point
            // (terminator uses plus outgoing φ-arguments) as position `n`.
            for (i, instr) in f.block_instrs(b).enumerate() {
                if instr.is_phi() {
                    continue;
                }
                let mut uses: Vec<Var> = instr.local_uses().to_vec();
                uses.sort_unstable();
                uses.dedup();
                // Every operand must be resident; spilled (or evicted-here)
                // operands enter as pinned reload temporaries.
                for &u in &uses {
                    if w.iter().any(|r| r.var == u) {
                        continue;
                    }
                    if !spilled[u.index()] {
                        spilled[u.index()] = true;
                        order.push(u);
                    }
                    if w.len() >= k {
                        if let Some(evicted) = evict_furthest(&mut w, &uses) {
                            if !spilled[evicted.var.index()] {
                                spilled[evicted.var.index()] = true;
                                order.push(evicted.var);
                            }
                        }
                    }
                    reloads.entry((b.index(), u)).or_insert(i as u64);
                    w.push(Resident {
                        var: u,
                        next_use: next_after(u, i as i64, true),
                        pinned: true,
                    });
                }
                // Operands consumed: advance their next use, drop the dead.
                w.retain_mut(|r| {
                    if !uses.contains(&r.var) {
                        return true;
                    }
                    r.next_use = next_after(r.var, i as i64, r.pinned);
                    r.next_use != INFINITE
                });
                // The result takes a register of its own — unless its own next
                // use is the furthest of all (then Belady's rule spills the
                // freshly defined value itself: store after the definition,
                // reload at its distant uses).
                if let Some(d) = instr.def() {
                    if !spilled[d.index()] && !w.iter().any(|r| r.var == d) {
                        let nu = next_after(d, i as i64, false);
                        if nu != INFINITE {
                            let mut insert = true;
                            if w.len() >= k {
                                let protect = uses.clone();
                                let best = w
                                    .iter()
                                    .filter(|r| !r.pinned && !protect.contains(&r.var))
                                    .map(|r| (r.next_use, r.var))
                                    .max();
                                match best {
                                    Some(b) if b > (nu, d) => {
                                        let evicted = evict_furthest(&mut w, &protect)
                                            .expect("a furthest evictable resident exists");
                                        if !spilled[evicted.var.index()] {
                                            spilled[evicted.var.index()] = true;
                                            order.push(evicted.var);
                                        }
                                    }
                                    _ => {
                                        // The definition itself is the
                                        // furthest-used (or nothing can go):
                                        // it starts its life in memory.
                                        spilled[d.index()] = true;
                                        order.push(d);
                                        insert = false;
                                    }
                                }
                            }
                            if insert {
                                w.push(Resident {
                                    var: d,
                                    next_use: nu,
                                    pinned: false,
                                });
                            }
                        }
                    }
                }
            }
            // Block end: terminator uses and φ-arguments toward successors.
            let mut end_uses: Vec<Var> = f.terminator(b).uses().to_vec();
            for s in f.successors(b) {
                for phi in f.phis(s) {
                    if let InstrView::Phi { args, .. } = phi {
                        for a in args {
                            if a.pred == b {
                                end_uses.push(a.value);
                            }
                        }
                    }
                }
            }
            end_uses.sort_unstable();
            end_uses.dedup();
            for &u in &end_uses {
                if w.iter().any(|r| r.var == u) {
                    continue;
                }
                if !spilled[u.index()] {
                    spilled[u.index()] = true;
                    order.push(u);
                }
                if w.len() >= k {
                    if let Some(evicted) = evict_furthest(&mut w, &end_uses) {
                        if !spilled[evicted.var.index()] {
                            spilled[evicted.var.index()] = true;
                            order.push(evicted.var);
                        }
                    }
                }
                reloads.entry((b.index(), u)).or_insert(n as u64);
                w.push(Resident {
                    var: u,
                    next_use: n as u64,
                    pinned: true,
                });
            }
            // W is discarded here: the next block rebuilds it from its own
            // entry state (live-range splitting at the boundary).
        }
        reloads
    }

    /// Phase 2: rewrites the uses the model served from memory through one
    /// reload temporary per (block, value), placed at the block's first
    /// recorded reload position and covering every later use in the block
    /// (ordinary, terminator, and φ-arguments toward successors).  Uses before
    /// that position were made while the value was still resident and keep the
    /// original variable.  The original definitions are kept (they are the
    /// stores), and every temporary's live range is contained in the victim's
    /// original one.
    fn rewrite_spilled(f: &mut Function, decisions: BeladyDecisions) -> SpillResult {
        let mut result = SpillResult {
            spilled: decisions.order,
            reloads: 0,
        };
        // Group the recorded reloads per block: `(position, victim)` pairs.
        let mut events: Vec<Vec<(u64, Var)>> = vec![Vec::new(); f.num_blocks()];
        for (&(bi, v), &p) in &decisions.reloads {
            events[bi].push((p, v));
        }
        let block_ids: Vec<BlockId> = f.block_ids().collect();
        for b in block_ids {
            if events[b.index()].is_empty() {
                continue;
            }
            let n = f.num_instrs(b) as u64;
            // Allocate the temporaries.  A use at position `i` is served by
            // the temporary iff `i >= pos_of[victim]`; terminator uses and
            // φ-arguments sit at position `n`, past every recorded position.
            let mut temp_of: BTreeMap<Var, Var> = BTreeMap::new();
            let mut pos_of: BTreeMap<Var, u64> = BTreeMap::new();
            for &(p, v) in &events[b.index()] {
                let t = f.derive_var(v, "_reload");
                temp_of.insert(v, t);
                pos_of.insert(v, p);
                result.reloads += 1;
            }
            // Rewrite the ordinary uses (position-gated) and the terminator,
            // before any insertion shifts the indices.
            for i in 0..f.num_instrs(b) {
                let view = f.instr(b, i);
                let served = |u: &Var| -> bool { pos_of.get(u).is_some_and(|&p| i as u64 >= p) };
                if view.is_phi() || !view.local_uses().iter().any(served) {
                    continue;
                }
                let new_instr = match f.instr(b, i).to_instr() {
                    Instr::Op { dst, uses } => Instr::Op {
                        dst,
                        uses: uses
                            .into_iter()
                            .map(|u| if served(&u) { temp_of[&u] } else { u })
                            .collect(),
                    },
                    Instr::Copy { dst, src } => Instr::Copy {
                        dst,
                        src: if served(&src) { temp_of[&src] } else { src },
                    },
                    phi @ Instr::Phi { .. } => phi,
                };
                f.replace_instr(b, i, new_instr);
            }
            if f.terminator(b)
                .uses()
                .iter()
                .any(|u| temp_of.contains_key(u))
            {
                let new_term = match f.terminator(b).clone() {
                    Terminator::Branch {
                        cond,
                        then_block,
                        else_block,
                    } => Terminator::Branch {
                        cond: temp_of.get(&cond).copied().unwrap_or(cond),
                        then_block,
                        else_block,
                    },
                    Terminator::Return { uses } => Terminator::Return {
                        uses: uses
                            .into_iter()
                            .map(|u| temp_of.get(&u).copied().unwrap_or(u))
                            .collect(),
                    },
                    t @ Terminator::Jump(_) => t,
                };
                *f.terminator_mut(b) = new_term;
            }
            // Rewrite φ-arguments in the successors: the per-block temporary
            // is defined before the block's end, so it is a legal value along
            // every outgoing edge.
            let succs: Vec<BlockId> = f.successors(b).collect();
            for s in succs {
                for i in 0..f.num_phis_in(s) {
                    let rewrite_phi = match f.instr(s, i) {
                        InstrView::Phi { dst, args }
                            if args
                                .iter()
                                .any(|a| a.pred == b && temp_of.contains_key(&a.value)) =>
                        {
                            Some((
                                dst,
                                args.iter().map(|a| (a.pred, a.value)).collect::<Vec<_>>(),
                            ))
                        }
                        _ => None,
                    };
                    if let Some((dst, mut args)) = rewrite_phi {
                        for (p, v) in args.iter_mut() {
                            if *p == b {
                                if let Some(&t) = temp_of.get(v) {
                                    *v = t;
                                }
                            }
                        }
                        f.replace_instr(s, i, Instr::Phi { dst, args });
                    }
                }
            }
            // Insert the reload definitions, highest position first so the
            // recorded indices stay valid; position `n` (a first use at the
            // terminator or along an outgoing edge) appends at the block's
            // end.
            let mut by_pos = events[b.index()].clone();
            by_pos.sort_unstable_by(|a, b| b.cmp(a));
            for (p, v) in by_pos {
                let t = temp_of[&v];
                if p >= n {
                    f.emit_op(b, Some(t), &[]);
                } else {
                    f.insert_instr(
                        b,
                        p as usize,
                        Instr::Op {
                            dst: Some(t),
                            uses: Vec::new(),
                        },
                    );
                }
            }
        }
        debug_assert!(f.validate().is_ok());
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
                &mut coalesce_gen::rng(41 + 3 * i as u64 + j as u64),
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

/// A distance map as the var-sorted list `NextUse` stores.
fn as_list(m: &BTreeMap<Var, u64>) -> Vec<(Var, u64)> {
    m.iter().map(|(&v, &d)| (v, d)).collect()
}

/// The reload positions as the sorted `(block, victim, position)` list
/// `BeladyDecisions` stores.
fn as_triples(m: &BTreeMap<(usize, Var), u64>) -> Vec<(usize, Var, u64)> {
    m.iter().map(|(&(b, v), &p)| (b, v, p)).collect()
}

/// Asserts that the planned pass and [`reference`] agree on `f` at `k`:
/// the decisions, and on the `SpillInput` path the spill result, the
/// rewritten function and the counters (so the liveness the pass reads
/// charges nothing to a caller that collects counters around the spill).
/// The standalone [`SpillerKind::run`], which solves its own liveness,
/// must rewrite exactly as the `SpillInput` path does.
fn assert_same_belady_at(f: &Function, input: &SpillInput, k: usize) {
    let decisions = belady_decisions(f, input.liveness(), k);
    let old_decisions = reference::belady_decisions(f, k);
    assert_eq!(
        decisions.order, old_decisions.order,
        "victim order at k = {k}"
    );
    assert_eq!(
        decisions.reloads,
        as_triples(&old_decisions.reloads),
        "reload positions at k = {k}"
    );

    let (run, counters) = coalesce_stats::collect(|| input.spill(SpillerKind::Belady, k));
    let ((old_result, old_f), old_counters) = coalesce_stats::collect(|| {
        let mut g = f.clone();
        let result = reference::spill_belady(&mut g, k);
        (result, g)
    });
    assert_eq!(run.spilled, old_result.spilled, "spilled at k = {k}");
    assert_eq!(run.reloads, old_result.reloads, "reloads at k = {k}");
    let printed = run.function.to_string();
    assert_eq!(printed, old_f.to_string(), "rewrite at k = {k}");
    assert_eq!(counters, old_counters, "counters at k = {k}");

    let mut g = f.clone();
    let standalone = SpillerKind::Belady.run(&mut g, k);
    assert_eq!(standalone.spilled, run.spilled, "run: spilled at k = {k}");
    assert_eq!(standalone.reloads, run.reloads, "run: reloads at k = {k}");
    assert_eq!(g.to_string(), printed, "run: rewrite at k = {k}");
}

/// Asserts that the planned pass and [`reference`] agree on `f`: boundary
/// distances, and everything [`assert_same_belady_at`] checks at every
/// `k` of interest.
fn assert_same_belady(f: &Function) {
    let flat = NextUse::compute(f);
    let old = reference::NextUse::compute(f);
    for b in f.block_ids() {
        assert_eq!(
            flat.entry(b),
            as_list(&old.entry[b.index()]),
            "entry of {b:?}"
        );
        assert_eq!(flat.exit(b), as_list(&old.exit[b.index()]), "exit of {b:?}");
    }
    let input = SpillInput::analyze(f);
    let maxlive = input.maxlive();
    let mut ks = vec![0, 2, tight_k(maxlive), maxlive];
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        assert_same_belady_at(f, &input, k);
    }
}

/// Asserts that the keys of every entry (exit) list are exactly the
/// live-in (live-out) set of the block.
fn assert_keys_are_live_sets(f: &Function) {
    let nu = NextUse::compute(f);
    let live = Liveness::compute(f);
    let keys = |l: &[(Var, u64)]| l.iter().map(|&(v, _)| v).collect::<BTreeSet<_>>();
    for b in f.block_ids() {
        assert_eq!(
            keys(nu.entry(b)),
            live.live_in(b).iter().collect(),
            "entry of {b:?}"
        );
        assert_eq!(
            keys(nu.exit(b)),
            live.live_out(b).iter().collect(),
            "exit of {b:?}"
        );
    }
}

#[test]
fn flat_belady_matches_the_map_reference_on_every_cfg_profile() {
    for f in cfg_grid() {
        assert_same_belady(&f);
    }
}

#[test]
fn next_use_keys_are_the_live_sets_on_every_cfg_profile() {
    for f in cfg_grid() {
        assert_keys_are_live_sets(&f);
    }
}

/// The module whose slices the service's benchmark trace requests: the
/// first 500 functions of the default seed-42 module, at `tight_k`.
#[test]
fn planned_belady_matches_the_map_reference_on_the_seed_42_module() {
    for spec in module_specs(&ModuleParams::default(), 42).iter().take(500) {
        let f = spec.generate();
        let input = SpillInput::analyze(&f);
        assert_same_belady_at(&f, &input, tight_k(input.maxlive()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_belady_matches_the_map_reference_on_module_functions(seed in 0u64..1_000) {
        for f in module_functions(seed) {
            assert_same_belady(&f);
        }
    }

    #[test]
    fn next_use_keys_are_the_live_sets_on_module_functions(seed in 0u64..1_000) {
        for f in module_functions(seed) {
            assert_keys_are_live_sets(&f);
        }
    }
}
