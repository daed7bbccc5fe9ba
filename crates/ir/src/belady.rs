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
//! # The plan
//!
//! Nothing a decision round reads depends on the spill set except `W`
//! itself, so everything else is derived once per call, before the first
//! round, into a flat per-block plan:
//!
//! * one backward walk per block records, for every distinct operand of
//!   every instruction and for every definition, where its next use lies:
//!   at a later position of the block, past the block's exit (then the
//!   distance is the block length plus the solved exit distance), or
//!   nowhere.  The same walk yields the first use of every φ definition
//!   and live-in value, and the block's end uses (terminator uses and
//!   φ-arguments toward successors);
//! * the distance solve runs on the caller's [`Liveness`]: the keys of the
//!   entry (exit) distances are exactly the block's live-in (live-out)
//!   set, so the distances live in arrays aligned to those sorted sets,
//!   and every edge gathers its successor's entry distances through index
//!   lists built once;
//! * the live-in values are sorted once by entry distance, the order in
//!   which a round admits them into `W`.
//!
//! A round then only moves values in and out of `W`.  The rewrite reads
//! the decisions through dense per-variable arrays.
//!
//! The pass is wired into the strategy zoo as
//! [`SpillerKind::Belady`](crate::spill::SpillerKind::Belady) and compared
//! against the other spillers in experiment E17.

use crate::function::{BlockId, Function, Instr, InstrView, Var};
use crate::liveness::Liveness;
use crate::spill::SpillResult;

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

/// Rows of a compressed (CSR) table: row `i` is
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    /// An empty table with room for `rows` rows of `items` items in all.
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            start,
            items: Vec::with_capacity(items),
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

    /// The item indices of row `i`.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.start[i] as usize..self.start[i + 1] as usize
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.range(i)]
    }
}

/// Where the next use of a value lies, seen from a point of a block of
/// `n` instructions.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// At this position of the block: an instruction index, or `n` for
    /// the block's end (terminator uses and outgoing φ-arguments).
    At(u32),
    /// Past the block's exit: `n + 1` slots plus the exit distance stored
    /// at this index of the flat exit array of [`NextUse`].
    Past(u32),
    /// On no path.
    Never,
}

impl Next {
    /// The distance as a reload temporary sees it: the temporary dies at
    /// the block's end, so only a use inside the block counts.
    fn local(self) -> u64 {
        match self {
            Next::At(p) => u64::from(p),
            Next::Past(_) | Next::Never => INFINITE,
        }
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
///
/// The entry (exit) list of a block has one pair per member of its
/// live-in (live-out) set, in ascending variable order: the distances are
/// solved in arrays aligned to the [`Liveness`] sets.
#[derive(Debug, Clone)]
pub struct NextUse {
    entry: Rows<(Var, u64)>,
    exit: Rows<(Var, u64)>,
}

impl NextUse {
    /// Computes the boundary next-use distances of `f`: a backward min-plus
    /// fixpoint (a shortest-distance problem: all block lengths are
    /// positive, so it has exactly one solution) over the live sets of a
    /// fresh liveness solution.
    pub fn compute(f: &Function) -> NextUse {
        Plan::build(f, &Liveness::compute(f)).next_use
    }

    /// `(v, d)` pairs sorted by variable: `d` is the distance from the
    /// entry of block `b` to the nearest use of `v`; the variables are the
    /// live-in set of `b`.
    pub fn entry(&self, b: BlockId) -> &[(Var, u64)] {
        self.entry.row(b.index())
    }

    /// `(v, d)` pairs sorted by variable: `d` is the distance from the exit
    /// of block `b` (past its terminator) to the nearest use of `v` on any
    /// outgoing path; the variables are the live-out set of `b`.
    pub fn exit(&self, b: BlockId) -> &[(Var, u64)] {
        self.exit.row(b.index())
    }

    /// The distance of `next`, seen from a point of a block of `n`
    /// instructions.
    fn distance(&self, next: Next, n: u64) -> u64 {
        match next {
            Next::At(p) => u64::from(p),
            Next::Past(j) => (n + 1).saturating_add(self.exit.items[j as usize].1),
            Next::Never => INFINITE,
        }
    }

    /// The fixpoint, by a predecessor worklist seeded in reverse block
    /// order: a block is revisited only when a successor's entry
    /// distances changed, and its entry distances are recomputed only when
    /// its exit distances did.  The solution is unique, so the visit order
    /// cannot change it.
    fn solve(&mut self, f: &Function, flow: &Flow) {
        let Flow {
            edges,
            gather,
            phi_args,
            through,
        } = flow;
        let nb = f.num_blocks();
        let preds = predecessors(nb, edges);
        let mut out: Vec<u64> = Vec::new();
        let mut visited = vec![false; nb];
        let mut queued = vec![true; nb];
        let mut work: Vec<usize> = (0..nb).collect();
        while let Some(bi) = work.pop() {
            queued[bi] = false;
            // Exit distances: best over all outgoing edges; φ-arguments
            // along an edge are used right at the predecessor's exit.
            let exits = self.exit.range(bi);
            let base = exits.start;
            out.clear();
            out.resize(exits.len(), INFINITE);
            for e in edges.range(bi) {
                let (s, penalty) = edges.items[e];
                let entry = self.entry.row(s.index());
                for (&(_, d), &j) in entry.iter().zip(gather.row(e)) {
                    let best = &mut out[j as usize - base];
                    *best = (*best).min(d.saturating_add(penalty));
                }
            }
            for &(j, penalty) in phi_args.row(bi) {
                let best = &mut out[j as usize - base];
                *best = (*best).min(penalty);
            }
            let exit = &mut self.exit.items[exits];
            if visited[bi] && exit.iter().zip(&out).all(|(&(_, d), &o)| d == o) {
                continue;
            }
            visited[bi] = true;
            for (pair, &d) in exit.iter_mut().zip(&out) {
                pair.1 = d;
            }
            // Entry distances: a local first use wins; otherwise a value
            // live past the exit and not defined here is `n + 1` slots
            // further.
            let n = f.num_instrs(BlockId::new(bi)) as u64;
            let mut changed = false;
            for t in self.entry.range(bi) {
                let d = self.distance(through[t], n);
                changed |= self.entry.items[t].1 != d;
                self.entry.items[t].1 = d;
            }
            if changed {
                for &p in preds.row(bi) {
                    if !queued[p as usize] {
                        queued[p as usize] = true;
                        work.push(p as usize);
                    }
                }
            }
        }
    }
}

/// The control flow the distance solve reads, in flat indices of the
/// [`NextUse`] lists.
struct Flow {
    /// Each block's successors with the loop-exit penalty of the edge.
    edges: Rows<(BlockId, u64)>,
    /// One row per edge, in the order of `edges.items`: for each entry
    /// pair of the edge's successor, the flat index of the same variable
    /// in the block's exit list.
    gather: Rows<u32>,
    /// Each block's φ-arguments toward its successors, as (flat exit
    /// index, penalty of the edge).
    phi_args: Rows<(u32, u64)>,
    /// Per flat entry index: the value's first use in the block if it is
    /// an instruction or terminator use, otherwise past the exit.
    through: Vec<Next>,
}

/// The predecessors of every block, one entry per edge of `edges`.
fn predecessors(nb: usize, edges: &Rows<(BlockId, u64)>) -> Rows<u32> {
    let mut preds = Rows {
        start: vec![0u32; nb + 1],
        items: vec![0u32; edges.items.len()],
    };
    for &(s, _) in &edges.items {
        preds.start[s.index() + 1] += 1;
    }
    for i in 0..nb {
        preds.start[i + 1] += preds.start[i];
    }
    let mut fill = preds.start.clone();
    for b in 0..nb {
        for &(s, _) in edges.row(b) {
            preds.items[fill[s.index()] as usize] = b as u32;
            fill[s.index()] += 1;
        }
    }
    preds
}

/// One non-φ instruction of a block, as a decision round reads it.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Index of the instruction in its block.
    pos: u32,
    /// Its distinct operands are `op_vars[ops_start..ops_end]` of the plan.
    ops_start: u32,
    ops_end: u32,
    /// The variable it defines, if any.
    def: Option<Var>,
    /// Next use of the definition after the instruction.
    def_next: Next,
}

/// Everything the decision rounds read, derived once per call (the
/// function does not change until the rewrite).
struct Plan {
    next_use: NextUse,
    /// The non-φ instructions of each block, in order.
    steps: Rows<Step>,
    /// The distinct operands of every step, sorted by variable, and where
    /// each one is used next after its step.
    op_vars: Vec<Var>,
    op_next: Vec<Next>,
    /// Per block: the φ definitions with their first use.
    phis: Rows<(Var, Next)>,
    /// Per block: the live-in values with their first use, by ascending
    /// entry distance (ties toward the lower variable).
    entries: Rows<(Var, Next)>,
    /// Per block: the distinct terminator uses and φ-arguments toward
    /// successors, sorted.
    end_uses: Rows<Var>,
}

impl Plan {
    /// One backward walk per block, then the distance solve, then the
    /// entry order.
    fn build(f: &Function, live: &Liveness) -> Plan {
        let (nb, instrs) = (f.num_blocks(), f.num_instrs_total());
        let live_ins = f.block_ids().map(|b| live.live_in(b).len()).sum();
        let live_outs = f.block_ids().map(|b| live.live_out(b).len()).sum();
        let mut next_use = NextUse {
            entry: Rows::with_capacity(nb, live_ins),
            exit: Rows::with_capacity(nb, live_outs),
        };
        for b in f.block_ids() {
            next_use
                .entry
                .push_row(live.live_in(b).iter().map(|v| (v, INFINITE)));
            next_use
                .exit
                .push_row(live.live_out(b).iter().map(|v| (v, INFINITE)));
        }
        let mut plan = Plan {
            next_use,
            steps: Rows::with_capacity(nb, instrs),
            op_vars: Vec::with_capacity(2 * instrs),
            op_next: Vec::with_capacity(2 * instrs),
            phis: Rows::with_capacity(nb, 0),
            entries: Rows::with_capacity(nb, live_ins),
            end_uses: Rows::with_capacity(nb, nb),
        };
        // The capacities are estimates: most blocks have one successor.
        let mut flow = Flow {
            edges: Rows::with_capacity(nb, 2 * nb),
            gather: Rows::with_capacity(2 * nb, live_outs),
            phi_args: Rows::with_capacity(nb, 0),
            through: Vec::with_capacity(live_ins),
        };
        // Per flat entry index: the value's first use in the block.
        let mut first: Vec<Next> = Vec::with_capacity(live_ins);
        // The walk's cursor: where each variable is used next, seen from
        // the current point (`Never` outside the block being walked).
        let mut next = vec![Next::Never; f.num_vars()];
        let mut end_uses: Vec<Var> = Vec::new();
        for b in f.block_ids() {
            end_uses.clear();
            plan.link(f, b, &mut flow, &mut end_uses);
            plan.walk(
                f,
                b,
                &mut next,
                &mut end_uses,
                &mut flow.through,
                &mut first,
            );
        }
        plan.next_use.solve(f, &flow);

        let mut order: Vec<(u64, Var, Next)> = Vec::new();
        for bi in 0..nb {
            let entries = plan.next_use.entry.range(bi);
            order.clear();
            order.extend(
                plan.next_use.entry.items[entries.clone()]
                    .iter()
                    .zip(&first[entries])
                    .map(|(&(v, d), &at)| (d, v, at)),
            );
            order.sort_unstable_by_key(|&(d, v, _)| (d, v));
            plan.entries
                .push_row(order.iter().map(|&(_, v, at)| (v, at)));
        }
        plan
    }

    /// The flat index of `v` in the exit list of block `bi`, if it is live
    /// out there.
    fn exit_index(&self, bi: usize, v: Var) -> Option<u32> {
        let exits = self.next_use.exit.range(bi);
        self.next_use.exit.items[exits.clone()]
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|j| (exits.start + j) as u32)
    }

    /// Appends block `b`'s edges, their entry-to-exit index lists and its
    /// outgoing φ-arguments to `flow`, and the φ-argument values to
    /// `end_uses`.  A successor's live-in set excludes its φ definitions,
    /// so it is a subset of the block's live-out set.
    fn link(&self, f: &Function, b: BlockId, flow: &mut Flow, end_uses: &mut Vec<Var>) {
        let exits = self.next_use.exit.range(b.index());
        let exit = &self.next_use.exit.items[exits.clone()];
        for s in f.successors(b) {
            let penalty = if f.loop_depth(s) < f.loop_depth(b) {
                LOOP_EXIT_DISTANCE
            } else {
                0
            };
            flow.edges.items.push((s, penalty));
            let mut j = 0;
            for &(v, _) in self.next_use.entry(s) {
                while exit[j].0 != v {
                    j += 1;
                }
                flow.gather.items.push((exits.start + j) as u32);
            }
            flow.gather.close_row();
            for phi in f.phis(s) {
                if let InstrView::Phi { args, .. } = phi {
                    for a in args.iter().filter(|a| a.pred == b) {
                        let j = self.exit_index(b.index(), a.value);
                        flow.phi_args
                            .items
                            .push((j.expect("a φ-argument is live out"), penalty));
                        end_uses.push(a.value);
                    }
                }
            }
        }
        flow.edges.close_row();
        flow.phi_args.close_row();
    }

    /// Lays out block `b`'s steps and walks them backwards from the
    /// block's exit with the cursor `next`, recording every operand's and
    /// definition's next use; then records the first uses of the φ
    /// definitions and live-in values (`through` and `first`, aligned to
    /// the entry list).  `end_uses` holds the outgoing φ-arguments on
    /// entry; the cursor is left all `Never` again.
    fn walk(
        &mut self,
        f: &Function,
        b: BlockId,
        next: &mut [Next],
        end_uses: &mut Vec<Var>,
        through: &mut Vec<Next>,
        first: &mut Vec<Next>,
    ) {
        let (bi, n) = (b.index(), f.num_instrs(b) as u32);
        // The walk starts past the block's end.
        let exits = self.next_use.exit.range(bi);
        for (j, &(v, _)) in self.next_use.exit.items[exits.clone()].iter().enumerate() {
            next[v.index()] = Next::Past((exits.start + j) as u32);
        }
        let term_uses = f.terminator(b).uses();
        end_uses.extend_from_slice(term_uses);
        end_uses.sort_unstable();
        end_uses.dedup();
        for &u in end_uses.iter() {
            next[u.index()] = Next::At(n);
        }
        self.end_uses.push_row(end_uses.iter().copied());

        let (first_step, first_op) = (self.steps.items.len(), self.op_vars.len());
        for (i, instr) in f.block_instrs(b).enumerate() {
            if instr.is_phi() {
                continue;
            }
            let ops_start = self.op_vars.len();
            for &u in instr.local_uses() {
                if !self.op_vars[ops_start..].contains(&u) {
                    self.op_vars.push(u);
                }
            }
            self.op_vars[ops_start..].sort_unstable();
            self.steps.items.push(Step {
                pos: i as u32,
                ops_start: ops_start as u32,
                ops_end: self.op_vars.len() as u32,
                def: instr.def(),
                def_next: Next::Never,
            });
        }
        self.steps.close_row();
        self.op_next.resize(self.op_vars.len(), Next::Never);
        for step in self.steps.items[first_step..].iter_mut().rev() {
            if let Some(d) = step.def {
                step.def_next = next[d.index()];
            }
            let ops = step.ops_start as usize..step.ops_end as usize;
            for (&u, at) in self.op_vars[ops.clone()].iter().zip(&mut self.op_next[ops]) {
                *at = next[u.index()];
                next[u.index()] = Next::At(step.pos);
            }
        }

        // The cursor now stands at the block's entry.
        self.phis.push_row(
            f.phis(b)
                .filter_map(|phi| phi.def())
                .map(|d| (d, next[d.index()])),
        );
        for &(v, _) in self.next_use.entry(b) {
            let at = next[v.index()];
            first.push(at);
            // The entry distance counts instruction and terminator uses,
            // not φ-arguments: a value whose only local use is an outgoing
            // φ-argument is reached past the exit.
            through.push(match at {
                Next::At(p) if p == n && !term_uses.contains(&v) => {
                    self.exit_index(bi, v).map_or(Next::Never, Next::Past)
                }
                at => at,
            });
        }

        let exit = self.next_use.exit.items[exits].iter().map(|&(v, _)| v);
        let touched = exit.chain(end_uses.iter().copied());
        for v in touched.chain(self.op_vars[first_op..].iter().copied()) {
            next[v.index()] = Next::Never;
        }
    }

    /// Scans block `b` against the current global spill set (extending
    /// it) and appends the `(block, victim, position)` reloads it implies.
    fn scan(&self, f: &Function, b: BlockId, k: usize, round: &mut Round) {
        let Round {
            w,
            spilled,
            order,
            reloads,
        } = round;
        let (bi, n) = (b.index(), f.num_instrs(b) as u64);
        let distance = |next: Next| self.next_use.distance(next, n);
        let mut spill = |spilled: &mut [bool], v: Var| {
            if !spilled[v.index()] {
                spilled[v.index()] = true;
                order.push(v);
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
        for &(d, at) in self.phis.row(bi) {
            let nu = distance(at);
            if spilled[d.index()] || nu == INFINITE {
                entry_overhead += 1;
                continue;
            }
            w.push(Resident {
                var: d,
                next_use: nu,
                pinned: false,
            });
        }
        let entry_capacity = k.saturating_sub(entry_overhead);
        for &(v, at) in self.entries.row(bi) {
            if spilled[v.index()] {
                continue;
            }
            if w.len() < entry_capacity {
                w.push(Resident {
                    var: v,
                    next_use: distance(at),
                    pinned: false,
                });
            } else {
                spill(spilled, v);
            }
        }

        // Forward scan: ordinary instructions, then the block's end point
        // (terminator uses plus outgoing φ-arguments) as position `n`.
        for step in self.steps.row(bi) {
            let i = u64::from(step.pos);
            let ops = step.ops_start as usize..step.ops_end as usize;
            let (uses, nexts) = (&self.op_vars[ops.clone()], &self.op_next[ops]);
            // Every operand must be resident; spilled (or evicted-here)
            // operands enter as pinned reload temporaries.
            for (&u, &at) in uses.iter().zip(nexts) {
                if w.iter().any(|r| r.var == u) {
                    continue;
                }
                spill(spilled, u);
                if w.len() >= k {
                    if let Some(evicted) = evict_furthest(w, uses) {
                        spill(spilled, evicted.var);
                    }
                }
                reloads.push((bi, u, i));
                w.push(Resident {
                    var: u,
                    next_use: at.local(),
                    pinned: true,
                });
            }
            // Operands consumed: advance their next use, drop the dead.
            w.retain_mut(|r| {
                let Some(j) = uses.iter().position(|&u| u == r.var) else {
                    return true;
                };
                r.next_use = if r.pinned {
                    nexts[j].local()
                } else {
                    distance(nexts[j])
                };
                r.next_use != INFINITE
            });
            // The result takes a register of its own — unless its own next
            // use is the furthest of all (then Belady's rule spills the
            // freshly defined value itself: store after the definition,
            // reload at its distant uses).
            let Some(d) = step.def else { continue };
            if spilled[d.index()] || w.iter().any(|r| r.var == d) {
                continue;
            }
            let nu = distance(step.def_next);
            if nu == INFINITE {
                continue;
            }
            if w.len() >= k {
                let best = w
                    .iter()
                    .filter(|r| !r.pinned && !uses.contains(&r.var))
                    .map(|r| (r.next_use, r.var))
                    .max();
                if best.is_some_and(|b| b > (nu, d)) {
                    let evicted =
                        evict_furthest(w, uses).expect("a furthest evictable resident exists");
                    spill(spilled, evicted.var);
                } else {
                    // The definition itself is the furthest-used (or
                    // nothing can go): it starts its life in memory.
                    spill(spilled, d);
                    continue;
                }
            }
            w.push(Resident {
                var: d,
                next_use: nu,
                pinned: false,
            });
        }
        // Block end: terminator uses and φ-arguments toward successors.
        let end_uses = self.end_uses.row(bi);
        for &u in end_uses {
            if w.iter().any(|r| r.var == u) {
                continue;
            }
            spill(spilled, u);
            if w.len() >= k {
                if let Some(evicted) = evict_furthest(w, end_uses) {
                    spill(spilled, evicted.var);
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

/// What the decision rounds extend: the register-file model `W` (reused
/// across blocks), the global spill set with its decision order, and the
/// current round's `(block, victim, position)` reload records.
struct Round {
    w: Vec<Resident>,
    spilled: Vec<bool>,
    order: Vec<Var>,
    reloads: Vec<(usize, Var, u64)>,
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
///
/// Solves liveness first; [`spill_belady_from`] starts from a solution
/// the caller already holds.
pub fn spill_belady(f: &mut Function, k: usize) -> SpillResult {
    let liveness = Liveness::compute(f);
    spill_belady_from(f, k, &liveness)
}

/// [`spill_belady`] with `liveness`, the caller's solution for `f`.
pub fn spill_belady_from(f: &mut Function, k: usize, liveness: &Liveness) -> SpillResult {
    let _span = coalesce_stats::span!("ir/spill/belady");
    let decisions = belady_decisions(f, liveness, k);
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
    /// `(block index, victim, first reload position)`, sorted by block
    /// and victim, one entry per pair.
    pub reloads: Vec<(usize, Var, u64)>,
}

/// Phase 1 (analysis only) of [`spill_belady`]: which values end up in
/// memory, in the order the decisions were made, and where each block
/// first reloads them.  `liveness` is the caller's solution for `f`.
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
pub fn belady_decisions(f: &Function, liveness: &Liveness, k: usize) -> BeladyDecisions {
    let plan = Plan::build(f, liveness);
    let mut round = Round {
        w: Vec::new(),
        spilled: vec![false; f.num_vars()],
        order: Vec::new(),
        reloads: Vec::new(),
    };
    loop {
        let victims_before = round.order.len();
        round.reloads.clear();
        for b in f.block_ids() {
            plan.scan(f, b, k, &mut round);
        }
        if round.order.len() == victims_before {
            break;
        }
    }
    // Keep each (block, victim) pair's smallest position: its reload
    // point.
    let Round {
        order, mut reloads, ..
    } = round;
    reloads.sort_unstable();
    reloads.dedup_by_key(|&mut (bi, v, _)| (bi, v));
    BeladyDecisions { order, reloads }
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
    // Per victim of the current block: its reload temporary and the
    // position from which the temporary serves its uses.  Temporaries lie
    // past the original variables, so looking one up finds nothing.
    let mut temp_of: Vec<Option<Var>> = vec![None; f.num_vars()];
    let mut pos_of: Vec<u64> = vec![0; f.num_vars()];
    let served = |temp_of: &[Option<Var>], u: Var| temp_of.get(u.index()).copied().flatten();
    let mut by_pos: Vec<(u64, Var)> = Vec::new();
    for events in decisions.reloads.chunk_by(|a, b| a.0 == b.0) {
        let b = BlockId::new(events[0].0);
        let n = f.num_instrs(b) as u64;
        for &(_, v, p) in events {
            temp_of[v.index()] = Some(f.derive_var(v, "_reload"));
            pos_of[v.index()] = p;
            result.reloads += 1;
        }
        // Rewrite the ordinary uses (position-gated: a use at position `i`
        // is served by the temporary iff `i >= pos_of[victim]`) and the
        // terminator in place; positions are the pre-insertion ones until
        // the splice.
        for i in 0..f.num_instrs(b) {
            for u in f.uses_mut(b, i) {
                if let Some(t) = served(&temp_of, *u) {
                    if i as u64 >= pos_of[u.index()] {
                        *u = t;
                    }
                }
            }
        }
        for u in f.terminator_mut(b).uses_mut() {
            if let Some(t) = served(&temp_of, *u) {
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
                        if let Some(t) = served(&temp_of, a.value) {
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
        by_pos.clear();
        by_pos.extend(events.iter().map(|&(_, v, p)| (p, v)));
        by_pos.sort_unstable();
        let appended = by_pos.partition_point(|&(p, _)| p < n);
        by_pos[appended..].reverse();
        f.splice(
            b,
            by_pos.iter().map(|&(p, v)| {
                let instr = Instr::Op {
                    dst: temp_of[v.index()],
                    uses: Vec::new(),
                };
                (p.min(n) as usize, instr)
            }),
        );
        for &(_, v, _) in events {
            temp_of[v.index()] = None;
        }
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
