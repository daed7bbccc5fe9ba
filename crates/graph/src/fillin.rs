//! Triangulation (chordalisation) by fill-in edges.
//!
//! Several places in the paper need to *make* a graph chordal:
//!
//! * the proof of Theorem 5 merges subtrees so that the graph obtained after
//!   an incremental coalescing stays chordal;
//! * the proof of Theorem 6 breaks the chordless cycles of the widget graph
//!   `H` to obtain a chordal instance `H'`;
//! * §4 notes that after coalescing an affinity in a chordal graph "the
//!   graph may not be chordal anymore.  However, we can still make it
//!   chordal".
//!
//! This module implements chordalisation by **fill-in**: adding interference
//! edges until the graph is chordal.  Adding interference edges is always a
//! *conservative* operation for register allocation — it can only constrain
//! the coloring further — so a triangulation never produces an invalid
//! allocation, it merely (potentially) wastes colors.  [`mcs_m`] is the
//! MCS-M algorithm of Berry, Blair, Heggernes and Peyton, which computes a
//! **minimal** triangulation (no fill edge can be removed while keeping the
//! graph chordal) in `O(n·m)` time.  It returns the fill edges separately
//! from the triangulated graph so that callers can account for how much the
//! chordalisation costs.

use crate::chordal;
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// The result of a triangulation: the chordal supergraph and the edges that
/// were added to the input.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// The triangulated (chordal) graph.
    pub graph: Graph,
    /// The fill edges added to the input graph, as `(smaller, larger)` pairs.
    pub fill_edges: Vec<(VertexId, VertexId)>,
    /// The elimination order that produced (or certifies) the triangulation.
    /// Reversing it yields a perfect elimination ordering of `graph`.
    pub elimination_order: Vec<VertexId>,
}

impl Triangulation {
    /// Number of fill edges added.
    pub fn fill_in(&self) -> usize {
        self.fill_edges.len()
    }
}

/// Computes a **minimal** triangulation of `g` with the MCS-M algorithm
/// (Berry, Blair, Heggernes, Peyton, *Maximum Cardinality Search for
/// Computing Minimal Triangulations of Graphs*, 2004).
///
/// MCS-M is Maximum Cardinality Search where, instead of only counting
/// *adjacent* already-numbered vertices, a vertex's weight also increases
/// when it can be reached from the freshly numbered vertex through a path of
/// strictly lower-weight unnumbered vertices; each such "indirect" reach
/// records a fill edge.  The produced set of fill edges is minimal: removing
/// any one of them breaks chordality.
///
/// ```
/// use coalesce_graph::{Graph, fillin, chordal};
/// // C4 needs exactly one chord.
/// let g = Graph::with_edges(4, [(0.into(), 1.into()), (1.into(), 2.into()),
///                               (2.into(), 3.into()), (3.into(), 0.into())]);
/// let tri = fillin::mcs_m(&g);
/// assert_eq!(tri.fill_in(), 1);
/// assert!(chordal::is_chordal(&tri.graph));
/// ```
pub fn mcs_m(g: &Graph) -> Triangulation {
    let cap = g.capacity();
    let mut weight = vec![0usize; cap];
    let mut numbered = vec![false; cap];
    let mut fill_edges: Vec<(VertexId, VertexId)> = Vec::new();
    // MCS-M numbers vertices from n down to 1; the resulting vector, read
    // from the *last* numbered to the first, is a PEO of the filled graph.
    // We record vertices in the order they are numbered and reverse at the
    // end so that `elimination_order` lists the vertices in elimination
    // order (eliminate front first).
    let mut numbering: Vec<VertexId> = Vec::with_capacity(g.num_vertices());

    let live: Vec<VertexId> = g.vertices().collect();
    for _ in 0..live.len() {
        // Pick an unnumbered vertex of maximum weight.
        let &z = live
            .iter()
            .filter(|v| !numbered[v.index()])
            .max_by_key(|v| (weight[v.index()], std::cmp::Reverse(v.index())))
            .expect("an unnumbered vertex remains");
        // Find every unnumbered vertex y reachable from z through unnumbered
        // vertices of weight strictly smaller than weight(y).
        let reached = lower_weight_reachable(g, z, &weight, &numbered);
        for y in &reached {
            weight[y.index()] += 1;
            if !g.has_edge(z, *y) {
                fill_edges.push(ordered(z, *y));
            }
        }
        numbered[z.index()] = true;
        numbering.push(z);
    }

    // The MCS-M numbering goes from high to low: the first vertex numbered
    // gets the highest number, so the elimination order (lowest number
    // first) is the reverse of the numbering sequence.
    numbering.reverse();

    let mut graph = g.clone();
    for &(a, b) in &fill_edges {
        graph.add_edge(a, b);
    }
    Triangulation {
        graph,
        fill_edges,
        elimination_order: numbering,
    }
}

/// Returns every unnumbered vertex `y` (other than `z`) such that there is a
/// path `z, x1, ..., xr, y` where every interior `xi` is unnumbered and has
/// weight strictly less than `weight(y)`.  Direct neighbors qualify with an
/// empty interior.
fn lower_weight_reachable(
    g: &Graph,
    z: VertexId,
    weight: &[usize],
    numbered: &[bool],
) -> Vec<VertexId> {
    // For each candidate target weight, we do a constrained BFS.  Simpler
    // and still polynomial: run a BFS where we track, for every reached
    // vertex, the maximum interior weight along the best path; `y` qualifies
    // if that maximum is < weight(y).
    let cap = g.capacity();
    // best_interior[v] = minimal possible "maximum interior weight" over
    // paths from z to v through unnumbered vertices.
    let mut best: Vec<Option<usize>> = vec![None; cap];
    // Dijkstra-like relaxation on the "minimax" path weight.
    let mut queue: BTreeSet<(usize, VertexId)> = BTreeSet::new();
    for n in g.neighbors(z) {
        if numbered[n.index()] {
            continue;
        }
        best[n.index()] = Some(0);
        queue.insert((0, n));
    }
    while let Some(&(cost, v)) = queue.iter().next() {
        queue.remove(&(cost, v));
        if best[v.index()] != Some(cost) {
            continue;
        }
        // Extend through v only if v stays an interior vertex, i.e. its own
        // weight bounds the paths that continue beyond it.
        let through = cost.max(weight[v.index()]);
        for n in g.neighbors(v) {
            if n == z || numbered[n.index()] {
                continue;
            }
            if best[n.index()].is_none_or(|b| through < b) {
                if let Some(old) = best[n.index()] {
                    queue.remove(&(old, n));
                }
                best[n.index()] = Some(through);
                queue.insert((through, n));
            }
        }
    }
    let mut out = Vec::new();
    for v in g.vertices() {
        if v == z || numbered[v.index()] {
            continue;
        }
        if let Some(interior) = best[v.index()] {
            if interior < weight[v.index()] || g.has_edge(z, v) {
                // Direct neighbors always qualify (empty interior).
                if g.has_edge(z, v) || interior < weight[v.index()] {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Verifies that a triangulation is *minimal*: removing any single fill
/// edge leaves a non-chordal graph.  Exponential in nothing, but quadratic
/// in the number of fill edges times a chordality check — intended for
/// validation in tests and experiments, not for hot paths.
pub fn is_minimal_triangulation(original: &Graph, tri: &Triangulation) -> bool {
    if !chordal::is_chordal(&tri.graph) {
        return false;
    }
    // Every fill edge must be absent from the original graph.
    for &(a, b) in &tri.fill_edges {
        if original.has_edge(a, b) {
            return false;
        }
    }
    for skip in 0..tri.fill_edges.len() {
        let mut g = original.clone();
        for (i, &(a, b)) in tri.fill_edges.iter().enumerate() {
            if i != skip {
                g.add_edge(a, b);
            }
        }
        if chordal::is_chordal(&g) {
            return false;
        }
    }
    true
}

fn ordered(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(v(i), v((i + 1) % n));
        }
        g
    }

    #[test]
    fn chordal_input_needs_no_fill() {
        let g = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(0), v(2)), (v(2), v(3))]);
        let tri = mcs_m(&g);
        assert_eq!(tri.fill_in(), 0);
        assert!(chordal::is_chordal(&tri.graph));
    }

    #[test]
    fn c4_gets_exactly_one_chord() {
        let tri = mcs_m(&cycle(4));
        assert_eq!(tri.fill_in(), 1);
        assert!(chordal::is_chordal(&tri.graph));
        assert!(is_minimal_triangulation(&cycle(4), &tri));
    }

    #[test]
    fn c5_gets_exactly_two_chords() {
        let tri = mcs_m(&cycle(5));
        assert_eq!(tri.fill_in(), 2);
        assert!(chordal::is_chordal(&tri.graph));
        assert!(is_minimal_triangulation(&cycle(5), &tri));
    }

    #[test]
    fn long_cycles_get_n_minus_three_chords() {
        // A minimal triangulation of C_n has exactly n - 3 fill edges.
        for n in 6..12 {
            let g = cycle(n);
            let tri = mcs_m(&g);
            assert_eq!(tri.fill_in(), n - 3, "C{n}");
            assert!(chordal::is_chordal(&tri.graph));
            assert!(is_minimal_triangulation(&g, &tri), "C{n} not minimal");
        }
    }

    #[test]
    fn mcs_m_elimination_order_is_a_peo_of_the_filled_graph() {
        for n in 4..10 {
            let g = cycle(n);
            let tri = mcs_m(&g);
            let mut peo = tri.elimination_order.clone();
            // elimination_order eliminates front-first; that *is* the PEO
            // convention used by `is_perfect_elimination_ordering`.
            assert!(
                chordal::is_perfect_elimination_ordering(&tri.graph, &peo),
                "C{n}: order not a PEO"
            );
            peo.reverse();
            // The reverse is generally not a PEO for cycles (sanity that the
            // direction convention matters and we picked the right one).
            let _ = peo;
        }
    }

    #[test]
    fn mcs_m_fill_on_the_grid_is_minimal() {
        // 3x3 grid graph.
        let mut g = Graph::new(9);
        let at = |r: usize, c: usize| v(r * 3 + c);
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    g.add_edge(at(r, c), at(r, c + 1));
                }
                if r + 1 < 3 {
                    g.add_edge(at(r, c), at(r + 1, c));
                }
            }
        }
        let minimal = mcs_m(&g);
        assert!(chordal::is_chordal(&minimal.graph));
        assert!(is_minimal_triangulation(&g, &minimal));
    }

    #[test]
    fn triangulation_never_hurts_more_than_it_must_for_coloring() {
        // Triangulating C4 raises the coloring number from 2 to at most 3.
        let g = cycle(4);
        let tri = mcs_m(&g);
        assert!(greedy::is_greedy_k_colorable(&tri.graph, 3));
    }

    #[test]
    fn fill_edges_never_duplicate_existing_edges() {
        let g = cycle(7);
        let tri = mcs_m(&g);
        for &(a, b) in &tri.fill_edges {
            assert!(!g.has_edge(a, b), "fill edge ({a},{b}) already existed");
        }
        // No duplicates among fill edges either.
        let set: BTreeSet<_> = tri.fill_edges.iter().copied().collect();
        assert_eq!(set.len(), tri.fill_edges.len());
    }
}
