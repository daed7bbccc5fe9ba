//! An iterated-register-coalescing (IRC) style allocator.
//!
//! The paper frames every coalescing problem inside Chaitin-like register
//! allocators (George & Appel's *iterated register coalescing* being the
//! canonical one).  This module provides a compact version of that
//! framework operating directly on an [`AffinityGraph`]:
//!
//! * **simplify** — remove non-move-related vertices of degree < `k`;
//! * **coalesce** — conservatively merge move-related vertices using the
//!   Briggs/George tests;
//! * **freeze** — when neither applies, give up the moves of a low-degree
//!   move-related vertex so it becomes simplifiable;
//! * **potential spill** — when everything has degree ≥ `k`, push the
//!   vertex of largest degree and hope it still gets a color;
//! * **select** — pop the stack and assign colors; vertices that get no
//!   color become **actual spills**.
//!
//! The candidates come from George & Appel's worklists rather than from a
//! scan of every move for every vertex.  A move is *active* while it is
//! not frozen and its two class representatives differ and are both still
//! in the working graph; a vertex is move-related iff it has an active
//! move.  Each representative keeps the indices of its moves (a merge
//! appends the absorbed vertex's list to the survivor's) and a count of
//! its active moves.  An inactive move never becomes active again:
//! freezing is permanent, a merged class stays merged and a removed vertex
//! stays removed.  So the counts only fall, apart from the sum a merge
//! takes, and the coalesce phase can drop a move for good the first time
//! it finds it inactive.  Two bitsets split the live vertices of degree
//! < `k`: the *simplify* set holds those without an active move, the
//! *freeze* set those with one.  A vertex moves between them whenever its
//! degree or its count changes.  Simplify and freeze take the lowest index
//! of their set, which is the vertex the textbook scan of the vertices
//! from 0 finds, and the coalesce phase visits the still-active moves in
//! index order; so every step picks what the scan picked.
//!
//! The allocator returns the coloring, the coalescing it performed and the
//! set of actual spills, which is the "resulting spills" metric used by the
//! challenge-style experiment (E8).

use crate::affinity::{AffinityGraph, Coalescing, CoalescingStats};
use crate::conservative::merge_tests;
use coalesce_graph::coloring::ColorScratch;
use coalesce_graph::{Coloring, Graph, VertexId};

/// Result of running the IRC-style allocator.
#[derive(Debug, Clone)]
pub struct IrcResult {
    /// Colors assigned to the representatives of each coalesced class (and
    /// through them to every original vertex; use [`IrcResult::color_of`]).
    pub coloring: Coloring,
    /// The coalescing performed by the conservative coalesce phase.
    pub coalescing: Coalescing,
    /// Original vertices whose class had to be spilled.
    pub spilled: Vec<VertexId>,
    /// Statistics of the coalescing against the instance affinities.
    pub stats: CoalescingStats,
}

impl IrcResult {
    /// Color of an original vertex: the color of its class representative.
    /// `None` if the class was spilled.
    pub fn color_of(&self, v: VertexId) -> Option<usize> {
        let rep = self.coalescing.class_of_immutable(v);
        self.coloring.color_of(rep)
    }

    /// Number of actual spills.
    pub fn num_spills(&self) -> usize {
        self.spilled.len()
    }
}

/// Runs the IRC-style allocation with `k` registers.
///
/// Affinity endpoints must be live vertices of `ag.graph`.
///
/// Every step makes the decision of the textbook scan, read off the
/// worklists instead of recomputed:
///
/// * simplify removes the lowest-index live vertex of degree < `k` with
///   no active move (the first of the simplify set);
/// * coalesce merges along the lowest-index active move that passes
///   Briggs or George, freezing the constrained moves it meets on the
///   way; it scans only the moves not yet seen inactive, in index order;
/// * freeze gives up every move of the lowest-index live vertex of
///   degree < `k` that still has an active move (the first of the freeze
///   set);
/// * potential spill removes the live vertex of largest `(degree, id)`.
///
/// The counts are kept exact at each change: a removal takes one from the
/// partner of each of the vertex's active moves; a merge of `rb` into `ra`
/// leaves `ra` with both counts minus two per active move between them;
/// a freeze takes one from both ends of each move it freezes.  The vertices
/// whose degree or count changed — the neighbors and partners of a removed
/// vertex, the survivor of a merge and its new row, both ends of a frozen
/// move — move between the sets.
pub fn allocate(ag: &AffinityGraph, k: usize) -> IrcResult {
    let mut coalescing = Coalescing::identity(&ag.graph);
    // The select stack of class representatives.
    let mut stack: Vec<VertexId> = Vec::new();
    // Working copy of the merged graph; vertices are physically removed as
    // they are simplified or spilled, so degrees reflect the residual graph
    // and a class representative is still in play iff it is live here.
    let mut work = coalescing.merged_graph.clone();
    let mut lists = Worklists::new(ag, &mut coalescing, &work, k);

    loop {
        // --- simplify ---
        if let Some(v) = lists.simplify.first() {
            lists.remove(&mut work, &mut coalescing, v);
            stack.push(v);
            continue;
        }

        // --- coalesce (Briggs, then George, both directions) ---
        if let Some((ra, rb)) = lists.coalesce_candidate(&work, &mut coalescing) {
            lists.merge(&mut work, &mut coalescing, ra, rb);
            continue;
        }

        // --- freeze ---
        if let Some(v) = lists.freeze.first() {
            lists.freeze_moves_of(&work, &mut coalescing, v);
            continue;
        }

        // --- potential spill ---
        let candidate = work.vertices().max_by_key(|&v| (work.degree(v), v.index()));
        match candidate {
            Some(v) => {
                lists.remove(&mut work, &mut coalescing, v);
                stack.push(v);
            }
            None => break, // graph empty: done
        }
    }

    // --- select ---
    let full_graph = &coalescing.merged_graph;
    let mut coloring = Coloring::new(full_graph.capacity());
    let mut spilled_rep = vec![false; full_graph.capacity()];
    let mut used = ColorScratch::new();
    while let Some(v) = stack.pop() {
        used.begin();
        for n in full_graph.neighbors(v) {
            if let Some(c) = coloring.color_of(n) {
                used.mark(c);
            }
        }
        match used.first_free() {
            c if c < k => coloring.assign(v, c),
            _ => spilled_rep[v.index()] = true,
        }
    }

    // Expand spilled representatives to original vertices (ascending).
    let spilled: Vec<VertexId> = ag
        .graph
        .vertices()
        .filter(|&v| spilled_rep[coalescing.class_of(v).index()])
        .collect();

    let stats = coalescing.stats(&ag.affinities);
    IrcResult {
        coloring,
        coalescing,
        spilled,
        stats,
    }
}

/// A set of vertex indices that answers "lowest member" in `O(n / 64)`.
struct VertexSet(Vec<u64>);

impl VertexSet {
    fn new(capacity: usize) -> Self {
        VertexSet(vec![0; capacity.div_ceil(64)])
    }

    fn set(&mut self, v: VertexId, member: bool) {
        let (word, bit) = (v.index() / 64, 1u64 << (v.index() % 64));
        if member {
            self.0[word] |= bit;
        } else {
            self.0[word] &= !bit;
        }
    }

    fn first(&self) -> Option<VertexId> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|i| VertexId::new(64 * i + self.0[i].trailing_zeros() as usize))
    }
}

/// The worklist state of [`allocate`].
struct Worklists {
    k: usize,
    /// Move endpoints (original vertices), by move index.
    moves: Vec<(VertexId, VertexId)>,
    /// Frozen moves are never considered for coalescing again.
    frozen: Vec<bool>,
    /// Move indices incident to each class representative.
    moves_of: Vec<Vec<u32>>,
    /// Number of active moves of each live class representative.
    active: Vec<u32>,
    /// Live vertices of degree < `k` with no active move.
    simplify: VertexSet,
    /// Live vertices of degree < `k` with an active move.
    freeze: VertexSet,
    /// Ascending indices of the moves not yet seen inactive: the coalesce
    /// phase's candidates, compacted as it scans them.
    pending: Vec<u32>,
    /// Scratch copy of the neighbor row of a vertex being removed.
    row: Vec<VertexId>,
}

impl Worklists {
    fn new(ag: &AffinityGraph, coalescing: &mut Coalescing, work: &Graph, k: usize) -> Self {
        let capacity = work.capacity();
        let moves: Vec<(VertexId, VertexId)> = ag.affinities.iter().map(|a| (a.a, a.b)).collect();
        let mut lists = Worklists {
            k,
            frozen: vec![false; moves.len()],
            moves_of: vec![Vec::new(); capacity],
            active: vec![0; capacity],
            simplify: VertexSet::new(capacity),
            freeze: VertexSet::new(capacity),
            pending: Vec::with_capacity(moves.len()),
            row: Vec::new(),
            moves,
        };
        for i in 0..lists.moves.len() {
            let (a, b) = lists.moves[i];
            lists.moves_of[a.index()].push(i as u32);
            lists.moves_of[b.index()].push(i as u32);
            if let Some((ra, rb)) = lists.active_ends(work, coalescing, i) {
                lists.active[ra.index()] += 1;
                lists.active[rb.index()] += 1;
                lists.pending.push(i as u32);
            }
        }
        for v in work.vertices() {
            lists.refresh(work, v);
        }
        lists
    }

    /// The class representatives of move `i`'s ends, if the move is active.
    fn active_ends(
        &self,
        work: &Graph,
        coalescing: &mut Coalescing,
        i: usize,
    ) -> Option<(VertexId, VertexId)> {
        if self.frozen[i] {
            return None;
        }
        let (a, b) = self.moves[i];
        let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
        (ra != rb && work.is_live(ra) && work.is_live(rb)).then_some((ra, rb))
    }

    /// Puts `v` into the set its degree and active count now call for.
    fn refresh(&mut self, work: &Graph, v: VertexId) {
        let low = work.is_live(v) && work.degree(v) < self.k;
        let related = self.active[v.index()] > 0;
        self.simplify.set(v, low && !related);
        self.freeze.set(v, low && related);
    }

    /// Freezes active move `i` between representatives `ra` and `rb`.
    fn freeze_move(&mut self, work: &Graph, i: usize, ra: VertexId, rb: VertexId) {
        self.frozen[i] = true;
        for r in [ra, rb] {
            self.active[r.index()] -= 1;
            self.refresh(work, r);
        }
    }

    /// Removes `v` from the working graph (simplify or potential spill).
    fn remove(&mut self, work: &mut Graph, coalescing: &mut Coalescing, v: VertexId) {
        // A partner that is not a neighbor keeps its degree, so it can be
        // refreshed before the removal; the neighbors are refreshed after.
        for j in 0..self.moves_of[v.index()].len() {
            let i = self.moves_of[v.index()][j] as usize;
            if let Some((ra, rb)) = self.active_ends(work, coalescing, i) {
                let partner = if ra == v { rb } else { ra };
                self.active[partner.index()] -= 1;
                self.refresh(work, partner);
            }
        }
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        row.extend_from_slice(work.neighbor_row(v));
        work.remove_vertex(v);
        self.refresh(work, v);
        for &n in &row {
            self.refresh(work, n);
        }
        self.row = row;
    }

    /// The coalesce phase's pick: the lowest-index active move that passes
    /// Briggs or George.  Constrained moves met before it are frozen, and
    /// moves seen inactive leave [`Worklists::pending`].
    fn coalesce_candidate(
        &mut self,
        work: &Graph,
        coalescing: &mut Coalescing,
    ) -> Option<(VertexId, VertexId)> {
        let k = self.k;
        let (mut read, mut write) = (0, 0);
        let mut pick = None;
        while read < self.pending.len() {
            let i = self.pending[read] as usize;
            read += 1;
            let Some((ra, rb)) = self.active_ends(work, coalescing, i) else {
                continue;
            };
            if work.has_edge(ra, rb) {
                // Constrained move: never coalescible; freeze it.
                self.freeze_move(work, i, ra, rb);
                continue;
            }
            if merge_tests(work, k, ra, rb).briggs_or_george() {
                // The merge makes this move inactive: drop it.
                pick = Some((ra, rb));
                break;
            }
            self.pending[write] = i as u32;
            write += 1;
        }
        self.pending.copy_within(read.., write);
        self.pending.truncate(self.pending.len() - (read - write));
        pick
    }

    /// Coalesces the classes of `ra` and `rb` into `ra`.
    fn merge(&mut self, work: &mut Graph, coalescing: &mut Coalescing, ra: VertexId, rb: VertexId) {
        // Active moves of `rb` that lead to `ra` die with the merge.
        let mut between = 0;
        for j in 0..self.moves_of[rb.index()].len() {
            let i = self.moves_of[rb.index()][j] as usize;
            if matches!(self.active_ends(work, coalescing, i), Some((x, y)) if x == ra || y == ra) {
                between += 1;
            }
        }
        self.active[ra.index()] = self.active[ra.index()] + self.active[rb.index()] - 2 * between;
        self.active[rb.index()] = 0;
        let absorbed = std::mem::take(&mut self.moves_of[rb.index()]);
        self.moves_of[ra.index()].extend(absorbed);
        work.merge(ra, rb);
        coalescing.merge(ra, rb);
        self.refresh(work, rb);
        self.refresh(work, ra);
        for &n in work.neighbor_row(ra) {
            self.refresh(work, n);
        }
    }

    /// Freezes every active move of representative `v` (an inactive move
    /// stays inactive whether frozen or not).
    fn freeze_moves_of(&mut self, work: &Graph, coalescing: &mut Coalescing, v: VertexId) {
        for j in 0..self.moves_of[v.index()].len() {
            let i = self.moves_of[v.index()][j] as usize;
            if let Some((ra, rb)) = self.active_ends(work, coalescing, i) {
                self.freeze_move(work, i, ra, rb);
            }
        }
        // Otherwise the freeze step would pick `v` again, forever.
        assert_eq!(self.active[v.index()], 0, "{v} keeps an active move");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::Affinity;
    use coalesce_graph::Graph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(v(i), v(j));
            }
        }
        g
    }

    /// Checks that the produced coloring is proper on the original graph
    /// restricted to non-spilled vertices, and that coalesced vertices get
    /// equal colors.
    fn check_allocation(ag: &AffinityGraph, k: usize, result: &IrcResult) {
        for (a, b) in ag.graph.edges() {
            if let (Some(ca), Some(cb)) = (result.color_of(a), result.color_of(b)) {
                assert_ne!(ca, cb, "interfering vertices {a} and {b} share a color");
            }
        }
        for v in ag.graph.vertices() {
            if !result.spilled.contains(&v) {
                let c = result.color_of(v).expect("non-spilled vertex has a color");
                assert!(c < k);
            }
        }
    }

    #[test]
    fn colors_a_small_colorable_graph_without_spills() {
        let g = complete(3);
        let ag = AffinityGraph::new(g, vec![]);
        let res = allocate(&ag, 3);
        assert_eq!(res.num_spills(), 0);
        check_allocation(&ag, 3, &res);
    }

    #[test]
    fn spills_when_registers_are_insufficient() {
        let g = complete(5);
        let ag = AffinityGraph::new(g, vec![]);
        let res = allocate(&ag, 3);
        assert!(res.num_spills() >= 1);
        check_allocation(&ag, 3, &res);
    }

    #[test]
    fn coalesces_safe_moves() {
        // Two parallel chains with affinities between their ends; plenty of
        // registers, so everything coalesces and nothing spills.
        let mut g = Graph::new(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(2), v(3));
        let ag = AffinityGraph::new(
            g,
            vec![Affinity::new(v(0), v(2)), Affinity::new(v(1), v(3))],
        );
        let res = allocate(&ag, 3);
        assert_eq!(res.num_spills(), 0);
        assert_eq!(res.stats.coalesced, 2);
        check_allocation(&ag, 3, &res);
        assert_eq!(res.color_of(v(0)), res.color_of(v(2)));
        assert_eq!(res.color_of(v(1)), res.color_of(v(3)));
    }

    #[test]
    fn constrained_moves_are_frozen_not_coalesced() {
        let g = Graph::with_edges(2, [(v(0), v(1))]);
        let ag = AffinityGraph {
            graph: g,
            affinities: vec![Affinity::new(v(0), v(1))],
        };
        let res = allocate(&ag, 2);
        assert_eq!(res.stats.coalesced, 0);
        check_allocation(&ag, 2, &res);
    }

    #[test]
    fn allocation_handles_the_empty_graph() {
        let ag = AffinityGraph::new(Graph::new(0), vec![]);
        let res = allocate(&ag, 4);
        assert_eq!(res.num_spills(), 0);
        assert_eq!(res.stats.total, 0);
    }

    #[test]
    fn coalescing_does_not_cause_extra_spills_on_greedy_colorable_inputs() {
        // A ladder graph (greedy-3-colorable) with rung affinities.
        let n = 6;
        let mut g = Graph::new(2 * n);
        for i in 0..n {
            g.add_edge(v(i), v(n + i));
            if i + 1 < n {
                g.add_edge(v(i), v(i + 1));
                g.add_edge(v(n + i), v(n + i + 1));
            }
        }
        let affs = (0..n - 1)
            .map(|i| Affinity::new(v(i), v(n + i + 1)))
            .collect();
        let ag = AffinityGraph::new(g, affs);
        let res = allocate(&ag, 4);
        assert_eq!(res.num_spills(), 0);
        check_allocation(&ag, 4, &res);
    }
}
