//! Greedy-k-colorability: the Chaitin/Briggs simplification scheme and the
//! coloring number `col(G)`.
//!
//! A graph is *greedy-k-colorable* iff repeatedly removing a vertex of
//! degree `< k` (in the remaining graph) eliminates all vertices.  The
//! elimination order, reversed, yields a `k`-coloring by the greedy select
//! phase.  The smallest such `k` is the coloring number `col(G)`, computed
//! by a *smallest-last* ordering: `col(G) = 1 + max_i δ(G_i)` where `G_i`
//! is the graph after removing the `i` smallest-degree-last vertices
//! (Jensen & Toft, reference \[23\] of the paper).
//!
//! Property 1 of the paper — a `k`-colorable chordal graph is
//! greedy-k-colorable — is exercised by the property tests of this crate
//! and of the benchmark harness (experiment E7).

use crate::coloring::{greedy_coloring_in_order, Coloring};
use crate::graph::{Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of running the greedy elimination scheme with bound `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simplification {
    /// Vertices removed, in removal order.  If the graph is
    /// greedy-k-colorable this contains every live vertex.
    pub removed: Vec<VertexId>,
    /// Vertices that could not be removed (every one of them has degree at
    /// least `k` in the residual subgraph).  Empty iff the graph is
    /// greedy-k-colorable.
    pub stuck: Vec<VertexId>,
}

impl Simplification {
    /// Returns `true` if the elimination removed every vertex.
    pub fn succeeded(&self) -> bool {
        self.stuck.is_empty()
    }
}

/// Runs the greedy elimination scheme: repeatedly removes a live vertex of
/// degree `< k` until none remains.
///
/// The order in which candidate vertices are removed does not affect
/// success (the scheme is confluent), so we remove the smallest candidate
/// identifier first for determinism.
pub fn simplify(g: &Graph, k: usize) -> Simplification {
    let cap = g.capacity();
    let mut degree = vec![0usize; cap];
    let mut present = vec![false; cap];
    for v in g.vertices() {
        degree[v.index()] = g.degree(v);
        present[v.index()] = true;
    }
    let mut worklist: Vec<VertexId> = g.vertices().filter(|v| degree[v.index()] < k).collect();
    let mut removed = Vec::new();
    let mut in_worklist = vec![false; cap];
    for v in &worklist {
        in_worklist[v.index()] = true;
    }
    // Process as a stack; confluence makes the order irrelevant for success.
    while let Some(v) = worklist.pop() {
        if !present[v.index()] {
            continue;
        }
        if degree[v.index()] >= k {
            // Degree may have been stale; re-check later if it drops.
            in_worklist[v.index()] = false;
            continue;
        }
        present[v.index()] = false;
        removed.push(v);
        for u in g.neighbors(v) {
            if present[u.index()] {
                degree[u.index()] -= 1;
                if degree[u.index()] < k && !in_worklist[u.index()] {
                    in_worklist[u.index()] = true;
                    worklist.push(u);
                }
            }
        }
    }
    let stuck: Vec<VertexId> = g.vertices().filter(|v| present[v.index()]).collect();
    Simplification { removed, stuck }
}

/// Returns `true` iff the live part of `g` is greedy-k-colorable.
///
/// ```
/// use coalesce_graph::{Graph, greedy};
/// // K4 is greedy-4-colorable but not greedy-3-colorable.
/// let mut k4 = Graph::new(4);
/// for i in 0..4usize { for j in (i + 1)..4usize { k4.add_edge(i.into(), j.into()); } }
/// assert!(greedy::is_greedy_k_colorable(&k4, 4));
/// assert!(!greedy::is_greedy_k_colorable(&k4, 3));
/// ```
pub fn is_greedy_k_colorable(g: &Graph, k: usize) -> bool {
    simplify(g, k).succeeded()
}

/// Computes the coloring number `col(G)`: the smallest `k` such that `g` is
/// greedy-k-colorable, via a smallest-last ordering.
///
/// For the empty graph this is 0; for a graph with vertices but no edges it
/// is 1.
pub fn coloring_number(g: &Graph) -> usize {
    smallest_last_peel(g).1
}

/// Returns a smallest-last ordering of the live vertices: the order in which
/// [`coloring_number`] removes them, **reversed** (so that greedily coloring
/// in this order uses at most `col(G)` colors).
pub fn smallest_last_order(g: &Graph) -> Vec<VertexId> {
    let mut removal = smallest_last_peel(g).0;
    removal.reverse();
    removal
}

/// The smallest-last peel shared by [`coloring_number`] and
/// [`smallest_last_order`]: repeatedly removes the live vertex of minimum
/// `(residual degree, id)`, returning the removal order and
/// `1 + max` degree at removal (0 for the empty graph).
///
/// The candidates sit in a lazy-deletion min-heap keyed on
/// `(degree, id)`: degrees only fall, so a popped entry whose degree is
/// stale (or whose vertex is gone) is skipped, and the first current entry
/// is the minimum over the remaining vertices.
fn smallest_last_peel(g: &Graph) -> (Vec<VertexId>, usize) {
    let cap = g.capacity();
    let mut degree = vec![0usize; cap];
    let mut present = vec![false; cap];
    let mut heap = BinaryHeap::with_capacity(g.num_vertices());
    for v in g.vertices() {
        degree[v.index()] = g.degree(v);
        present[v.index()] = true;
        heap.push(Reverse((degree[v.index()], v)));
    }
    let mut removal = Vec::with_capacity(g.num_vertices());
    let mut col = 0usize;
    while let Some(Reverse((d, v))) = heap.pop() {
        if !present[v.index()] || d != degree[v.index()] {
            continue;
        }
        col = col.max(d + 1);
        present[v.index()] = false;
        removal.push(v);
        for u in g.neighbors(v) {
            if present[u.index()] {
                degree[u.index()] -= 1;
                heap.push(Reverse((degree[u.index()], u)));
            }
        }
    }
    (removal, col)
}

/// Colors a greedy-k-colorable graph with at most `k` colors by coloring the
/// vertices in the reverse of their elimination order (the Chaitin select
/// phase).  Returns `None` if the graph is not greedy-k-colorable.
pub fn greedy_coloring(g: &Graph, k: usize) -> Option<Coloring> {
    let simplification = simplify(g, k);
    if !simplification.succeeded() {
        return None;
    }
    let order: Vec<VertexId> = simplification.removed.into_iter().rev().collect();
    let coloring = greedy_coloring_in_order(g, &order);
    debug_assert!(coloring.max_color_bound() <= k);
    Some(coloring)
}

/// Finds a subgraph witnessing non-greedy-k-colorability: the set of stuck
/// vertices, in which every vertex has degree at least `k` (within the set).
/// Returns `None` if the graph is greedy-k-colorable.
pub fn high_degree_core(g: &Graph, k: usize) -> Option<Vec<VertexId>> {
    let s = simplify(g, k);
    if s.succeeded() {
        None
    } else {
        Some(s.stuck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chordal;

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i.into(), j.into());
            }
        }
        g
    }

    fn cycle(n: usize) -> Graph {
        Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        )
    }

    #[test]
    fn empty_graph_is_greedy_0_colorable() {
        assert!(is_greedy_k_colorable(&Graph::new(0), 0));
        assert_eq!(coloring_number(&Graph::new(0)), 0);
    }

    #[test]
    fn edgeless_graph_has_coloring_number_1() {
        let g = Graph::new(4);
        assert_eq!(coloring_number(&g), 1);
        assert!(is_greedy_k_colorable(&g, 1));
        assert!(!is_greedy_k_colorable(&g, 0));
    }

    #[test]
    fn clique_coloring_number_is_its_size() {
        for n in 1..6 {
            assert_eq!(coloring_number(&complete(n)), n);
        }
    }

    #[test]
    fn cycle_coloring_number_is_three() {
        // Every cycle has col = 3 (all degrees are 2).
        for n in 3..8 {
            assert_eq!(coloring_number(&cycle(n)), 3);
            assert!(is_greedy_k_colorable(&cycle(n), 3));
            assert!(!is_greedy_k_colorable(&cycle(n), 2));
        }
    }

    #[test]
    fn greedy_coloring_of_cycle_is_proper() {
        let g = cycle(6);
        let c = greedy_coloring(&g, 3).unwrap();
        assert!(c.is_proper(&g));
        assert!(c.max_color_bound() <= 3);
        assert!(greedy_coloring(&g, 2).is_none());
    }

    #[test]
    fn high_degree_core_of_k4_at_k3() {
        let g = complete(4);
        let core = high_degree_core(&g, 3).unwrap();
        assert_eq!(core.len(), 4);
        assert!(high_degree_core(&g, 4).is_none());
    }

    #[test]
    fn simplification_removes_in_valid_order() {
        // Star K_{1,3}: center has degree 3 but leaves peel off first.
        let mut g = Graph::new(4);
        for leaf in 1..4usize {
            g.add_edge(0.into(), leaf.into());
        }
        let s = simplify(&g, 2);
        assert!(s.succeeded());
        assert_eq!(s.removed.len(), 4);
        // The center must be removed last or after enough leaves are gone.
        let pos_center = s
            .removed
            .iter()
            .position(|&v| v == VertexId::new(0))
            .unwrap();
        assert!(pos_center >= 2);
    }

    #[test]
    fn property_1_k_colorable_chordal_implies_greedy_k_colorable() {
        // A chordal graph with omega = 3: two triangles sharing an edge plus
        // a pendant vertex.
        let mut g = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        );
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        assert!(chordal::is_chordal(&g));
        let omega = chordal::chordal_clique_number(&g).unwrap();
        assert!(is_greedy_k_colorable(&g, omega));
    }

    #[test]
    fn smallest_last_order_colors_within_col() {
        let g = cycle(5);
        let order = smallest_last_order(&g);
        let c = greedy_coloring_in_order(&g, &order);
        assert!(c.is_proper(&g));
        assert!(c.max_color_bound() <= coloring_number(&g));
    }

    #[test]
    fn greedy_k_colorable_graph_that_is_not_chordal() {
        // C4 is greedy-3-colorable (degrees 2 < 3) but not chordal: the two
        // classes are incomparable, as discussed in the paper.
        let g = cycle(4);
        assert!(is_greedy_k_colorable(&g, 3));
        assert!(!chordal::is_chordal(&g));
    }
}
