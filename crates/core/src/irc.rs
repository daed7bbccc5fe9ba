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
//! The allocator returns the coloring, the coalescing it performed and the
//! set of actual spills, which is the "resulting spills" metric used by the
//! challenge-style experiment (E8).

use crate::affinity::{AffinityGraph, Coalescing, CoalescingStats};
use crate::conservative::{briggs_test, george_test};
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
pub fn allocate(ag: &AffinityGraph, k: usize) -> IrcResult {
    let mut coalescing = Coalescing::identity(&ag.graph);

    // Move-related representative pairs (kept up to date lazily).
    let moves: Vec<(VertexId, VertexId)> = ag.affinities.iter().map(|a| (a.a, a.b)).collect();

    // The select stack of class representatives.
    let mut stack: Vec<VertexId> = Vec::new();
    // Frozen moves no longer considered for coalescing, by move index.
    let mut frozen = vec![false; moves.len()];

    // Working copy of the merged graph; vertices are physically removed as
    // they are simplified or spilled, so degrees reflect the residual graph
    // and a class representative is still in play iff it is live here.
    let mut work = coalescing.merged_graph.clone();

    let is_move_related =
        |frozen: &[bool], coalescing: &mut Coalescing, work: &Graph, v: VertexId| {
            moves.iter().zip(frozen).any(|(&(a, b), &frozen)| {
                if frozen {
                    return false;
                }
                let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                ra != rb && work.is_live(ra) && work.is_live(rb) && (ra == v || rb == v)
            })
        };

    loop {
        // --- simplify ---
        let simplifiable = work
            .vertices()
            .find(|&v| work.degree(v) < k && !is_move_related(&frozen, &mut coalescing, &work, v));
        if let Some(v) = simplifiable {
            work.remove_vertex(v);
            stack.push(v);
            continue;
        }

        // --- coalesce (Briggs, then George, both directions) ---
        let mut coalesced_something = false;
        for (i, &(a, b)) in moves.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
            if ra == rb || !work.is_live(ra) || !work.is_live(rb) {
                continue;
            }
            if work.has_edge(ra, rb) {
                // Constrained move: never coalescible; freeze it.
                frozen[i] = true;
                continue;
            }
            let ok = briggs_test(&work, k, ra, rb)
                || george_test(&work, k, ra, rb)
                || george_test(&work, k, rb, ra);
            if ok {
                work.merge(ra, rb);
                coalescing.merge(ra, rb);
                coalesced_something = true;
                break;
            }
        }
        if coalesced_something {
            continue;
        }

        // --- freeze ---
        let freezable = work
            .vertices()
            .find(|&v| work.degree(v) < k && is_move_related(&frozen, &mut coalescing, &work, v));
        if let Some(v) = freezable {
            for (i, &(a, b)) in moves.iter().enumerate() {
                let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                if ra == v || rb == v {
                    frozen[i] = true;
                }
            }
            continue;
        }

        // --- potential spill ---
        let candidate = work.vertices().max_by_key(|&v| (work.degree(v), v.index()));
        match candidate {
            Some(v) => {
                work.remove_vertex(v);
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
