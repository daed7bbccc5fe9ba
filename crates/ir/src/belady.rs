//! Braun–Hack-style Belady (`MIN`) spilling for SSA-form programs.
//!
//! Where the Chaitin-style spiller of [`crate::spill`] picks whole-range
//! victims by loop-weighted cost/benefit, this pass ports Belady's `MIN`
//! page-replacement rule to register allocation, following Braun & Hack
//! (*Register Spilling and Live-Range Splitting for SSA-form Programs*):
//! walk each block with a model of the `k`-entry register file `W`, and
//! whenever a value must enter a full `W`, evict the resident value whose
//! *next use* is furthest away.
//!
//! Three ingredients make the local rule work on whole programs:
//!
//! * **next-use distances** at block boundaries ([`NextUse`]): a backward
//!   min-plus fixpoint gives, for every block, the distance (in
//!   instruction slots) from its entry and from its exit to the nearest
//!   upcoming use of each value.  Edges that leave a loop are penalised
//!   with [`LOOP_EXIT_DISTANCE`], so a value whose only future use lies
//!   past the loop looks "far" everywhere inside it and is evicted before
//!   anything the loop itself touches;
//! * **live-range splitting at block boundaries**: the register-file model
//!   is rebuilt at every block entry, and a spilled value is reloaded into
//!   one fresh temporary *per block in which the model actually reloads
//!   it*, starting at the first non-resident use and serving every later
//!   use in that block (including terminator uses and φ-arguments toward
//!   successors), so no reload temporary outlives its block except along
//!   the φ-edges it explicitly feeds;
//! * **a global spill set, iterated to a fixpoint**: once a value is
//!   evicted anywhere it is treated as memory-resident *everywhere*, and
//!   the per-block scans are repeated with the accumulated victims until a
//!   round adds none — without this, a block inside a loop could spill a
//!   value an earlier-scanned block already decided to keep in a register
//!   for the next iteration, and the two models would disagree across the
//!   back edge.  The rewrite then replaces exactly the uses the fixpoint
//!   model served from memory; uses made while the value was still
//!   resident keep the original variable, so the rewritten pressure tracks
//!   the modelled register file point for point, and every reload
//!   temporary's live range is contained in the victim's original one —
//!   the rewrite never increases the pressure at any program point.
//!
//! The pass is wired into the strategy zoo as
//! [`SpillerKind::Belady`](crate::spill::SpillerKind::Belady) and compared
//! against the other spillers in experiment E17.

use crate::function::{BlockId, Function, Instr, InstrView, Terminator, Var};
use crate::spill::SpillResult;
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

/// Rows of a compressed (CSR) per-block table: row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            start: vec![0],
            items: Vec::new(),
        }
    }

    /// Ends the current row at the items pushed so far.
    fn close_row(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.close_row();
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// A dense `Var`-indexed map over one function's variables, emptied in
/// O(1) by bumping a generation stamp.
struct StampedMap {
    stamp: Vec<u32>,
    value: Vec<u64>,
    /// The keys inserted since the last [`StampedMap::clear`].
    keys: Vec<Var>,
    now: u32,
}

impl StampedMap {
    fn new(num_vars: usize) -> Self {
        StampedMap {
            stamp: vec![0; num_vars],
            value: vec![0; num_vars],
            keys: Vec::new(),
            now: 1,
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.now = self.now.wrapping_add(1);
        if self.now == 0 {
            self.stamp.fill(0);
            self.now = 1;
        }
    }

    fn get(&self, v: Var) -> Option<u64> {
        (self.stamp[v.index()] == self.now).then(|| self.value[v.index()])
    }

    fn insert(&mut self, v: Var, x: u64) {
        if self.stamp[v.index()] != self.now {
            self.stamp[v.index()] = self.now;
            self.keys.push(v);
        }
        self.value[v.index()] = x;
    }

    /// Lowers the value of `v` to `x` (inserting it if absent).
    fn lower(&mut self, v: Var, x: u64) {
        match self.get(v) {
            Some(old) if old <= x => {}
            _ => self.insert(v, x),
        }
    }

    /// Replaces `out` with the entries, sorted by variable.
    fn sorted_into(&mut self, out: &mut Vec<(Var, u64)>) {
        self.keys.sort_unstable();
        out.clear();
        out.extend(self.keys.iter().map(|&v| (v, self.value[v.index()])));
    }
}

/// What the decision phase reads of each block, extracted once per
/// function (the function does not change until the rewrite).
struct BlockFacts {
    /// Successors with the loop-exit penalty of the edge, in terminator
    /// order.
    succs: Rows<(BlockId, u64)>,
    /// `(v, i)`: the first use `i` of `v` not preceded by a definition of
    /// `v` in the block (`n` for the terminator), sorted by variable.
    gen: Rows<(Var, u64)>,
    /// The variables the block defines, sorted.
    kill: Rows<Var>,
    /// φ-arguments toward the successors, each with its edge's penalty.
    phi_args: Rows<(Var, u64)>,
    /// The variables the block uses (ordinarily, at its terminator, or as
    /// a φ-argument toward a successor), sorted.  The `j`-th entry of
    /// block `b` owns row `used.start[b] + j` of `use_pos`.
    used: Rows<Var>,
    /// Distinct use positions per (block, used variable), increasing:
    /// instruction index, or `n` for terminator uses and φ-arguments.
    use_pos: Rows<u32>,
}

impl BlockFacts {
    fn of(f: &Function) -> Self {
        let mut facts = BlockFacts {
            succs: Rows::new(),
            gen: Rows::new(),
            kill: Rows::new(),
            phi_args: Rows::new(),
            used: Rows::new(),
            use_pos: Rows::new(),
        };
        // A variable is marked once it is defined or used in the block.
        let mut seen = StampedMap::new(f.num_vars());
        let mut gen: Vec<(Var, u64)> = Vec::new();
        let mut kill: Vec<Var> = Vec::new();
        let mut uses: Vec<(Var, u32)> = Vec::new();
        for b in f.block_ids() {
            let n = f.num_instrs(b);
            let mut add_succ = |s: BlockId| {
                let penalty = if f.loop_depth(s) < f.loop_depth(b) {
                    LOOP_EXIT_DISTANCE
                } else {
                    0
                };
                facts.succs.items.push((s, penalty));
            };
            match f.terminator(b) {
                Terminator::Jump(s) => add_succ(*s),
                Terminator::Branch {
                    then_block,
                    else_block,
                    ..
                } => {
                    add_succ(*then_block);
                    add_succ(*else_block);
                }
                Terminator::Return { .. } => {}
            }
            facts.succs.close_row();

            seen.clear();
            gen.clear();
            kill.clear();
            uses.clear();
            for (i, instr) in f.block_instrs(b).enumerate() {
                for &u in instr.local_uses() {
                    uses.push((u, i as u32));
                    if seen.get(u).is_none() {
                        seen.insert(u, 0);
                        gen.push((u, i as u64));
                    }
                }
                if let Some(d) = instr.def() {
                    seen.insert(d, 0);
                    kill.push(d);
                }
            }
            for &u in f.terminator(b).uses() {
                uses.push((u, n as u32));
                if seen.get(u).is_none() {
                    seen.insert(u, 0);
                    gen.push((u, n as u64));
                }
            }
            for &(s, penalty) in facts.succs.row(b.index()) {
                for phi in f.phis(s) {
                    if let InstrView::Phi { args, .. } = phi {
                        for a in args.iter().filter(|a| a.pred == b) {
                            facts.phi_args.items.push((a.value, penalty));
                            uses.push((a.value, n as u32));
                        }
                    }
                }
            }
            facts.phi_args.close_row();
            gen.sort_unstable();
            facts.gen.push_row(gen.iter().copied());
            kill.sort_unstable();
            kill.dedup();
            facts.kill.push_row(kill.iter().copied());
            uses.sort_unstable();
            uses.dedup();
            for group in uses.chunk_by(|a, b| a.0 == b.0) {
                facts.used.items.push(group[0].0);
                facts.use_pos.push_row(group.iter().map(|&(_, p)| p));
            }
            facts.used.close_row();
        }
        facts
    }
}

/// Next-use distances at block boundaries, in instruction slots.
///
/// Distances follow the conventions of the per-block scan: inside a block
/// of `n` instructions, ordinary instruction `i` is at distance `i` from
/// the entry, the terminator at `n`, and crossing the block costs `n + 1`
/// slots.  A φ-argument toward a successor counts as a use at distance 0
/// past the predecessor's exit (plus the loop-exit penalty of the edge, if
/// any); φ-results are definitions at their block's entry and therefore
/// never appear in that block's entry list.
#[derive(Debug, Clone)]
pub struct NextUse {
    entry: Vec<Vec<(Var, u64)>>,
    exit: Vec<Vec<(Var, u64)>>,
}

impl NextUse {
    /// Computes the boundary next-use distances of `f`: a backward min-plus
    /// fixpoint (a shortest-distance problem: all block lengths are
    /// positive, so it has exactly one solution).
    pub fn compute(f: &Function) -> NextUse {
        NextUse::solve(f, &BlockFacts::of(f))
    }

    /// `(v, d)` pairs sorted by variable: `d` is the distance from the
    /// entry of block `b` to the nearest use of `v`.  For strict SSA input
    /// the variables are exactly the live-in set of `b`.
    pub fn entry(&self, b: BlockId) -> &[(Var, u64)] {
        &self.entry[b.index()]
    }

    /// `(v, d)` pairs sorted by variable: `d` is the distance from the exit
    /// of block `b` (past its terminator) to the nearest use of `v` on any
    /// outgoing path.  For strict SSA input the variables are exactly the
    /// live-out set of `b`.
    pub fn exit(&self, b: BlockId) -> &[(Var, u64)] {
        &self.exit[b.index()]
    }

    /// The fixpoint, by a predecessor worklist seeded in reverse block
    /// order: a block is revisited only when a successor's entry list
    /// changed, and its entry list is recomputed only when its exit list
    /// did.  The solution is unique, so the visit order cannot change it.
    fn solve(f: &Function, facts: &BlockFacts) -> NextUse {
        let nb = f.num_blocks();
        let mut entry: Vec<Vec<(Var, u64)>> = vec![Vec::new(); nb];
        let mut exit: Vec<Vec<(Var, u64)>> = vec![Vec::new(); nb];
        let preds = f.predecessors();
        let mut best = StampedMap::new(f.num_vars());
        let (mut out, mut m) = (Vec::new(), Vec::new());
        let mut visited = vec![false; nb];
        let mut queued = vec![true; nb];
        let mut work: Vec<usize> = (0..nb).collect();
        while let Some(bi) = work.pop() {
            queued[bi] = false;
            // Exit list: best distance over all outgoing edges; φ-arguments
            // along an edge are used right at the predecessor's exit.
            best.clear();
            for &(s, penalty) in facts.succs.row(bi) {
                for &(v, d) in &entry[s.index()] {
                    best.lower(v, d.saturating_add(penalty));
                }
            }
            for &(v, penalty) in facts.phi_args.row(bi) {
                best.lower(v, penalty);
            }
            best.sorted_into(&mut out);
            if visited[bi] && out == exit[bi] {
                continue;
            }
            visited[bi] = true;
            std::mem::swap(&mut exit[bi], &mut out);
            // Entry list: a local first use wins; otherwise a value live
            // past the exit and not defined here is `n + 1` slots further.
            let n = f.num_instrs(BlockId::new(bi)) as u64;
            let (gen, kill) = (facts.gen.row(bi), facts.kill.row(bi));
            let mut gi = 0;
            m.clear();
            for &(v, d) in &exit[bi] {
                while gi < gen.len() && gen[gi].0 < v {
                    m.push(gen[gi]);
                    gi += 1;
                }
                if gi < gen.len() && gen[gi].0 == v {
                    m.push(gen[gi]);
                    gi += 1;
                } else if kill.binary_search(&v).is_err() {
                    m.push((v, (n + 1).saturating_add(d)));
                }
            }
            m.extend_from_slice(&gen[gi..]);
            if m != entry[bi] {
                std::mem::swap(&mut entry[bi], &mut m);
                for &p in &preds[bi] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        work.push(p.index());
                    }
                }
            }
        }
        NextUse { entry, exit }
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
    let _span = coalesce_stats::span!("ir/spill/belady");
    let decisions = belady_decisions(f, k);
    rewrite_spilled(f, decisions)
}

/// What the decision phase decided: the victims in decision order, plus —
/// per (block index, victim) — the position of the first use the model
/// had to serve from memory in that block (`n` for a block of `n`
/// instructions when the first such use is the terminator or an outgoing
/// φ-argument).  The rewrite places each reload temporary exactly there;
/// uses before that point were served by the still-resident original
/// value and keep it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeladyDecisions {
    /// The spilled variables, in decision order.
    pub order: Vec<Var>,
    /// First reload position per `(block index, victim)`.
    pub reloads: BTreeMap<(usize, Var), u64>,
}

/// Phase 1 (analysis only) of [`spill_belady`]: which values end up in
/// memory, in the order the decisions were made, and where each block
/// first reloads them.
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
    let facts = BlockFacts::of(f);
    let next_use = NextUse::solve(f, &facts);
    let mut scan = BlockScan {
        f,
        k,
        facts: &facts,
        next_use: &next_use,
        slot: StampedMap::new(f.num_vars()),
        exit: StampedMap::new(f.num_vars()),
        w: Vec::new(),
        entries: Vec::new(),
        uses: Vec::new(),
        end_uses: Vec::new(),
    };
    let mut spilled = vec![false; f.num_vars()];
    let mut order: Vec<Var> = Vec::new();
    let mut reloads: Vec<(usize, Var, u64)> = Vec::new();
    loop {
        let victims_before = order.len();
        reloads.clear();
        for b in f.block_ids() {
            scan.block(b, &mut spilled, &mut order, &mut reloads);
        }
        if order.len() == victims_before {
            break;
        }
    }
    // Within a block, reload positions are recorded in increasing order,
    // so the first record of a (block, victim) pair is its reload point.
    let mut first = BTreeMap::new();
    for (bi, v, p) in reloads {
        first.entry((bi, v)).or_insert(p);
    }
    BeladyDecisions {
        order,
        reloads: first,
    }
}

/// The per-block scan of one decision round, with the buffers it reuses
/// across blocks and rounds.
struct BlockScan<'a> {
    f: &'a Function,
    k: usize,
    facts: &'a BlockFacts,
    next_use: &'a NextUse,
    /// The block's `use_pos` row of each variable it uses.
    slot: StampedMap,
    /// The block's exit distances.
    exit: StampedMap,
    w: Vec<Resident>,
    entries: Vec<(u64, Var)>,
    uses: Vec<Var>,
    end_uses: Vec<Var>,
}

impl BlockScan<'_> {
    /// Scans block `b` against the current global spill set (extending it)
    /// and appends the `(block, victim, position)` reloads it implies.
    fn block(
        &mut self,
        b: BlockId,
        spilled: &mut [bool],
        order: &mut Vec<Var>,
        reloads: &mut Vec<(usize, Var, u64)>,
    ) {
        let BlockScan {
            f,
            k,
            facts,
            next_use,
            slot,
            exit,
            w,
            entries,
            uses,
            end_uses,
        } = self;
        let (f, k, facts) = (*f, *k, *facts);
        let (bi, n) = (b.index(), f.num_instrs(b) as u64);
        // Local use positions per variable, in increasing order:
        // instruction index for ordinary uses, `n` for terminator uses and
        // φ-arguments toward successors (both happen at the block's end
        // and are served by the same per-block reload temporary).
        let first_row = facts.used.start[bi] as usize;
        slot.clear();
        end_uses.clear();
        for (j, &v) in facts.used.row(bi).iter().enumerate() {
            slot.insert(v, (first_row + j) as u64);
            if facts.use_pos.row(first_row + j).last() == Some(&(n as u32)) {
                end_uses.push(v);
            }
        }
        exit.clear();
        for &(v, d) in next_use.exit(b) {
            exit.insert(v, d);
        }
        let (slot, exit) = (&*slot, &*exit);
        // Next use of `v` at or after position `from`; `local_only` stops
        // at the block's end (the horizon of a reload temporary),
        // otherwise the exit distance extends the search across the
        // boundary.
        let next_after = |v: Var, from: u64, local_only: bool| -> u64 {
            if let Some(row) = slot.get(v) {
                let ps = facts.use_pos.row(row as usize);
                if let Some(&p) = ps.iter().find(|&&p| u64::from(p) >= from) {
                    return u64::from(p);
                }
            }
            if local_only {
                return INFINITE;
            }
            match exit.get(v) {
                Some(d) => (n + 1).saturating_add(d),
                None => INFINITE,
            }
        };

        // Block entry: φ-results are defined here no matter what — even
        // the dead or already-spilled ones occupy a register at the entry
        // point (they are all simultaneously live with the live-in set),
        // so they consume entry capacity without entering `W`.  Then the
        // nearest-used live-in values fill the remaining capacity; the
        // rest start (or stay) in memory.
        w.clear();
        let mut entry_overhead = 0usize;
        for phi in f.phis(b) {
            if let Some(d) = phi.def() {
                if spilled[d.index()] {
                    entry_overhead += 1;
                    continue;
                }
                let nu = next_after(d, 0, false);
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
        entries.clear();
        entries.extend(
            next_use
                .entry(b)
                .iter()
                .filter(|(v, _)| !spilled[v.index()])
                .map(|&(v, d)| (d, v)),
        );
        entries.sort_unstable();
        for &(_, v) in entries.iter() {
            if w.len() < entry_capacity {
                let nu = next_after(v, 0, false);
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
            let i = i as u64;
            uses.clear();
            uses.extend_from_slice(instr.local_uses());
            uses.sort_unstable();
            uses.dedup();
            // Every operand must be resident; spilled (or evicted-here)
            // operands enter as pinned reload temporaries.
            for &u in uses.iter() {
                if w.iter().any(|r| r.var == u) {
                    continue;
                }
                if !spilled[u.index()] {
                    spilled[u.index()] = true;
                    order.push(u);
                }
                if w.len() >= k {
                    if let Some(evicted) = evict_furthest(w, uses) {
                        if !spilled[evicted.var.index()] {
                            spilled[evicted.var.index()] = true;
                            order.push(evicted.var);
                        }
                    }
                }
                reloads.push((bi, u, i));
                w.push(Resident {
                    var: u,
                    next_use: next_after(u, i + 1, true),
                    pinned: true,
                });
            }
            // Operands consumed: advance their next use, drop the dead.
            w.retain_mut(|r| {
                if !uses.contains(&r.var) {
                    return true;
                }
                r.next_use = next_after(r.var, i + 1, r.pinned);
                r.next_use != INFINITE
            });
            // The result takes a register of its own — unless its own next
            // use is the furthest of all (then Belady's rule spills the
            // freshly defined value itself: store after the definition,
            // reload at its distant uses).
            if let Some(d) = instr.def() {
                if !spilled[d.index()] && !w.iter().any(|r| r.var == d) {
                    let nu = next_after(d, i + 1, false);
                    if nu != INFINITE {
                        let mut insert = true;
                        if w.len() >= k {
                            let best = w
                                .iter()
                                .filter(|r| !r.pinned && !uses.contains(&r.var))
                                .map(|r| (r.next_use, r.var))
                                .max();
                            match best {
                                Some(b) if b > (nu, d) => {
                                    let evicted = evict_furthest(w, uses)
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
        for &u in end_uses.iter() {
            if w.iter().any(|r| r.var == u) {
                continue;
            }
            if !spilled[u.index()] {
                spilled[u.index()] = true;
                order.push(u);
            }
            if w.len() >= k {
                if let Some(evicted) = evict_furthest(w, end_uses) {
                    if !spilled[evicted.var.index()] {
                        spilled[evicted.var.index()] = true;
                        order.push(evicted.var);
                    }
                }
            }
            reloads.push((bi, u, n));
            w.push(Resident {
                var: u,
                next_use: n,
                pinned: true,
            });
        }
        // W is discarded here: the next block rebuilds it from its own
        // entry state (live-range splitting at the boundary).
    }
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
        // Rewrite the ordinary uses (position-gated) and the terminator in
        // place; positions are the pre-insertion ones until the splice.
        for i in 0..f.num_instrs(b) {
            for u in f.uses_mut(b, i) {
                if pos_of.get(u).is_some_and(|&p| i as u64 >= p) {
                    *u = temp_of[u];
                }
            }
        }
        for u in f.terminator_mut(b).uses_mut() {
            if let Some(&t) = temp_of.get(u) {
                *u = t;
            }
        }
        // Rewrite φ-arguments in the successors: the per-block temporary
        // is defined before the block's end, so it is a legal value along
        // every outgoing edge.
        for s in f.successors(b) {
            for i in 0..f.num_phis_in(s) {
                for a in f.phi_args_mut(s, i) {
                    if a.pred == b {
                        if let Some(&t) = temp_of.get(&a.value) {
                            a.value = t;
                        }
                    }
                }
            }
        }
        // Insert the reload definitions in one splice.  Reloads at the same
        // position keep ascending variable order; position `n` (a first use
        // at the terminator or along an outgoing edge) appends at the
        // block's end in descending order.
        let mut by_pos = std::mem::take(&mut events[b.index()]);
        by_pos.sort_unstable();
        let appended = by_pos.partition_point(|&(p, _)| p < n);
        by_pos[appended..].reverse();
        f.splice(
            b,
            by_pos.into_iter().map(|(p, v)| {
                let instr = Instr::Op {
                    dst: Some(temp_of[&v]),
                    uses: Vec::new(),
                };
                (p.min(n) as usize, instr)
            }),
        );
    }
    debug_assert!(f.validate().is_ok());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::liveness::Liveness;

    #[test]
    fn next_use_distances_in_a_straight_line_block() {
        let mut b = FunctionBuilder::new("line");
        let entry = b.entry_block();
        let x = b.def(entry, "x"); // position 0
        let y = b.def(entry, "y"); // position 1
        let _z = b.op(entry, "z", &[x]); // position 2: uses x
        b.ret(entry, &[y]); // terminator at position 3
        let f = b.finish();
        let nu = NextUse::compute(&f);
        // Nothing is live at the function entry, and the exit of the only
        // block has no successors.
        assert!(nu.entry(entry).is_empty());
        assert!(nu.exit(entry).is_empty());
    }

    #[test]
    fn next_use_crosses_blocks_and_charges_loop_exits() {
        // entry -> body (depth 1) -> body | exit; `far` is used only in
        // `exit`, `near` inside `body`.
        let mut b = FunctionBuilder::new("loop");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.set_loop_depth(body, 1);
        let far = b.def(entry, "far");
        let near = b.def(entry, "near");
        let c = b.def(entry, "c");
        b.jump(entry, body);
        b.effect(body, &[near]);
        b.branch(body, c, body, exit);
        b.effect(exit, &[far]);
        b.ret(exit, &[]);
        let f = b.finish();
        let nu = NextUse::compute(&f);
        let distance = |v: Var| {
            let e = nu.entry(body);
            e.binary_search_by_key(&v, |&(u, _)| u).map(|i| e[i].1)
        };
        // `near` is used at the body's first instruction; `far` only past
        // the loop exit, so its distance carries the penalty.
        assert_eq!(distance(near), Ok(0));
        assert!(distance(far).unwrap() >= LOOP_EXIT_DISTANCE);
        assert!(distance(far).unwrap() < INFINITE);
    }

    #[test]
    fn belady_prefers_evicting_the_furthest_value() {
        // Three values live across a long stretch, k = 2: the one whose
        // use comes last must be the one spilled.
        let mut b = FunctionBuilder::new("minrule");
        let entry = b.entry_block();
        let a = b.def(entry, "a");
        let m = b.def(entry, "m");
        let z = b.def(entry, "z");
        b.effect(entry, &[a]);
        b.effect(entry, &[m]);
        b.effect(entry, &[z]);
        b.ret(entry, &[]);
        let mut f = b.finish();
        let result = spill_belady(&mut f, 2);
        assert!(f.validate().is_ok());
        assert!(
            result.spilled.contains(&z),
            "expected the furthest-used value to be spilled, got {:?}",
            result.spilled
        );
        assert!(!result.spilled.contains(&a));
    }

    #[test]
    fn belady_keeps_loop_resident_values_over_loop_idle_ones() {
        // Same shape as the greedy spiller's loop test: `idle` crosses the
        // loop unused, `hot` is used every iteration.  The loop-exit
        // penalty must make Belady evict `idle`.
        let mut b = FunctionBuilder::new("loop_belady");
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
        let result = spill_belady(&mut f, 3);
        assert!(f.validate().is_ok());
        assert!(
            result.spilled.contains(&idle),
            "expected `idle` to be spilled, got {:?}",
            result.spilled
        );
        assert!(!result.spilled.contains(&hot));
    }

    #[test]
    fn belady_rewrite_never_increases_pressure() {
        let mut b = FunctionBuilder::new("noninc");
        let entry = b.entry_block();
        let vars: Vec<Var> = (0..8).map(|i| b.def(entry, format!("v{i}"))).collect();
        for pair in vars.chunks(2) {
            b.effect(entry, pair);
        }
        b.ret(entry, &[vars[0]]);
        let mut f = b.finish();
        let before = Liveness::compute(&f).maxlive_precise(&f);
        let _ = spill_belady(&mut f, 3);
        assert!(f.validate().is_ok());
        let after = Liveness::compute(&f).maxlive_precise(&f);
        assert!(after <= before, "pressure rose from {before} to {after}");
    }

    #[test]
    fn belady_splits_ranges_at_block_boundaries() {
        // A value used in two far-apart blocks gets one reload temp per
        // using block once spilled, not a single long-lived one.
        let mut b = FunctionBuilder::new("split");
        let entry = b.entry_block();
        let mid = b.new_block();
        let last = b.new_block();
        let x = b.def(entry, "x");
        let vars: Vec<Var> = (0..4).map(|i| b.def(entry, format!("v{i}"))).collect();
        b.effect(entry, &vars);
        b.jump(entry, mid);
        b.effect(mid, &[x]);
        b.jump(mid, last);
        b.effect(last, &[x]);
        b.ret(last, &[]);
        let mut f = b.finish();
        let result = spill_belady(&mut f, 2);
        assert!(f.validate().is_ok());
        if result.spilled.contains(&x) {
            // One reload per using block.
            let x_name = f.var_name(x).unwrap().to_owned();
            let reloads_for_x = (0..f.num_vars())
                .map(Var::new)
                .filter(|v| {
                    f.var_name(*v)
                        .is_some_and(|n| n.starts_with(&format!("{x_name}_reload")))
                })
                .count();
            assert_eq!(reloads_for_x, 2);
        }
    }
}
