//! Lexicographic breadth-first search (LexBFS).
//!
//! LexBFS is the second classical linear-time vertex ordering used to
//! recognise chordal graphs (the first being Maximum Cardinality Search,
//! see [`crate::chordal`]).  Visiting vertices in LexBFS order and reversing
//! the order yields a perfect elimination ordering exactly when the graph is
//! chordal [Rose, Tarjan, Lueker 1976; Golumbic 1980], the reference the
//! paper cites for its chordal-graph machinery.
//!
//! The implementation here is the straightforward partition-refinement
//! formulation: `O((n + m) log n)` with ordered sets, which is more than
//! fast enough for interference graphs of the sizes the experiments use,
//! and considerably easier to audit than the linked-list `O(n + m)` variant.
//!
//! Besides recognition, LexBFS orderings are useful on their own:
//!
//! * they provide an alternative *simplicial elimination* order for coloring
//!   chordal interference graphs (Theorem 1 / Property 1 of the paper);
//! * the **last** vertex of a LexBFS sweep of a chordal graph is simplicial,
//!   which gives a cheap way to peel chordal graphs.

use crate::chordal;
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// Result of a LexBFS sweep: the visit order and, for each vertex, its
/// position in that order.
#[derive(Debug, Clone)]
pub struct LexBfsOrder {
    /// Vertices in visit order (first visited first).
    pub order: Vec<VertexId>,
    /// `position[v.index()]` is the visit rank of `v`, or `usize::MAX` for
    /// vertices that are not live in the graph.
    pub position: Vec<usize>,
}

impl LexBfsOrder {
    /// Returns the visit rank of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not visited (not live in the swept graph).
    pub fn rank(&self, v: VertexId) -> usize {
        let r = self.position[v.index()];
        assert!(r != usize::MAX, "vertex {v} was not visited by LexBFS");
        r
    }

    /// Returns the visit order reversed, which is a perfect elimination
    /// ordering whenever the swept graph is chordal.
    pub fn reversed(&self) -> Vec<VertexId> {
        let mut rev = self.order.clone();
        rev.reverse();
        rev
    }
}

/// Runs a LexBFS sweep over the live vertices of `g`, breaking ties in
/// favour of smaller vertex identifiers.
///
/// ```
/// use coalesce_graph::{Graph, lexbfs};
/// let g = Graph::with_edges(4, [(0.into(), 1.into()), (1.into(), 2.into()), (2.into(), 3.into())]);
/// let sweep = lexbfs::lexbfs(&g);
/// assert_eq!(sweep.order.len(), 4);
/// assert_eq!(sweep.order[0].index(), 0);
/// ```
pub fn lexbfs(g: &Graph) -> LexBfsOrder {
    lexbfs_from(g, None)
}

/// Runs a LexBFS sweep starting at `start` (if given and live); remaining
/// ties are broken in favour of smaller vertex identifiers.
///
/// # Panics
///
/// Panics if `start` is provided but not live in `g`.
pub fn lexbfs_from(g: &Graph, start: Option<VertexId>) -> LexBfsOrder {
    if let Some(s) = start {
        assert!(g.is_live(s), "LexBFS start vertex {s} is not live");
    }
    // Partition refinement: an ordered list of cells; the next vertex is
    // always taken from the first cell.  Visiting a vertex splits every cell
    // into (neighbors, non-neighbors), neighbors first.
    let mut cells: Vec<Vec<VertexId>> = vec![g.vertices().collect()];
    if let Some(s) = start {
        // Move the requested start to the front of the initial cell.
        let cell = &mut cells[0];
        if let Some(pos) = cell.iter().position(|&v| v == s) {
            cell.remove(pos);
            cell.insert(0, s);
        }
    }
    let mut order = Vec::with_capacity(g.num_vertices());
    let mut position = vec![usize::MAX; g.capacity()];

    while let Some(front) = cells.first_mut() {
        if front.is_empty() {
            cells.remove(0);
            continue;
        }
        let v = front.remove(0);
        position[v.index()] = order.len();
        order.push(v);
        let neighbors: BTreeSet<VertexId> = g.neighbors(v).collect();
        // Refine every remaining cell against N(v).
        let mut refined: Vec<Vec<VertexId>> = Vec::with_capacity(cells.len() * 2);
        for cell in cells.drain(..) {
            let (inside, outside): (Vec<VertexId>, Vec<VertexId>) =
                cell.into_iter().partition(|u| neighbors.contains(u));
            if !inside.is_empty() {
                refined.push(inside);
            }
            if !outside.is_empty() {
                refined.push(outside);
            }
        }
        cells = refined;
    }

    LexBfsOrder { order, position }
}

/// Chordality test via LexBFS: the reverse of a LexBFS order is a perfect
/// elimination ordering iff the graph is chordal.
///
/// This is an independent implementation from
/// [`crate::chordal::is_chordal`] (which uses Maximum Cardinality Search);
/// the two are cross-checked against each other in the tests and in the
/// workspace property tests.
pub fn is_chordal_lexbfs(g: &Graph) -> bool {
    let sweep = lexbfs(g);
    chordal::is_perfect_elimination_ordering(g, &sweep.reversed())
}

/// Returns a perfect elimination ordering computed with LexBFS, or `None`
/// if the graph is not chordal.
pub fn perfect_elimination_ordering_lexbfs(g: &Graph) -> Option<Vec<VertexId>> {
    let sweep = lexbfs(g);
    let rev = sweep.reversed();
    if chordal::is_perfect_elimination_ordering(g, &rev) {
        Some(rev)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn lexbfs_visits_every_live_vertex_exactly_once() {
        let mut g = Graph::with_edges(
            6,
            [
                (v(0), v(1)),
                (v(1), v(2)),
                (v(2), v(3)),
                (v(3), v(4)),
                (v(4), v(5)),
            ],
        );
        g.remove_vertex(v(3));
        let sweep = lexbfs(&g);
        assert_eq!(sweep.order.len(), 5);
        let unique: BTreeSet<VertexId> = sweep.order.iter().copied().collect();
        assert_eq!(unique.len(), 5);
        assert!(!unique.contains(&v(3)));
        for &u in &sweep.order {
            assert_eq!(sweep.order[sweep.rank(u)], u);
        }
    }

    #[test]
    fn lexbfs_on_disconnected_graph_covers_all_components() {
        let g = Graph::with_edges(5, [(v(0), v(1)), (v(3), v(4))]);
        let sweep = lexbfs(&g);
        assert_eq!(sweep.order.len(), 5);
    }

    #[test]
    fn reverse_lexbfs_is_peo_on_chordal_graphs() {
        // A chordal "fan": triangle chain.
        let g = Graph::with_edges(
            5,
            [
                (v(0), v(1)),
                (v(0), v(2)),
                (v(1), v(2)),
                (v(1), v(3)),
                (v(2), v(3)),
                (v(2), v(4)),
                (v(3), v(4)),
            ],
        );
        assert!(chordal::is_chordal(&g));
        assert!(is_chordal_lexbfs(&g));
        let peo = perfect_elimination_ordering_lexbfs(&g).expect("chordal graph has a PEO");
        assert!(chordal::is_perfect_elimination_ordering(&g, &peo));
    }

    #[test]
    fn lexbfs_rejects_the_four_cycle() {
        let g = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3)), (v(3), v(0))]);
        assert!(!is_chordal_lexbfs(&g));
        assert!(perfect_elimination_ordering_lexbfs(&g).is_none());
    }

    #[test]
    fn lexbfs_and_mcs_agree_on_chordality() {
        // Structured family: cycles with and without chords.
        for n in 3..9 {
            let mut cycle = Graph::new(n);
            for i in 0..n {
                cycle.add_edge(v(i), v((i + 1) % n));
            }
            assert_eq!(
                chordal::is_chordal(&cycle),
                is_chordal_lexbfs(&cycle),
                "C{n}"
            );
            // Fully chorded from vertex 0: a fan, always chordal.
            let mut fan = cycle.clone();
            for i in 2..n - 1 {
                fan.add_edge(v(0), v(i));
            }
            assert_eq!(
                chordal::is_chordal(&fan),
                is_chordal_lexbfs(&fan),
                "fan {n}"
            );
        }
    }

    #[test]
    fn coloring_along_reverse_lexbfs_is_optimal_on_chordal_graphs() {
        // Greedy coloring along a PEO (reversed: along the LexBFS order
        // itself, processing simplicial-last first) uses exactly omega
        // colors on chordal graphs.
        let g = Graph::with_edges(
            6,
            [
                (v(0), v(1)),
                (v(0), v(2)),
                (v(1), v(2)),
                (v(2), v(3)),
                (v(3), v(4)),
                (v(2), v(4)),
                (v(4), v(5)),
            ],
        );
        assert!(chordal::is_chordal(&g));
        let peo = perfect_elimination_ordering_lexbfs(&g).unwrap();
        // Color in reverse elimination order.
        let mut order = peo.clone();
        order.reverse();
        let coloring = coloring::greedy_coloring_in_order(&g, &order);
        assert!(coloring.is_proper(&g));
        assert_eq!(
            coloring.num_colors(),
            chordal::chordal_clique_number(&g).unwrap()
        );
    }

    #[test]
    fn lexbfs_from_honours_the_requested_start() {
        let g = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3))]);
        let sweep = lexbfs_from(&g, Some(v(2)));
        assert_eq!(sweep.order[0], v(2));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn lexbfs_from_dead_vertex_panics() {
        let mut g = Graph::new(3);
        g.remove_vertex(v(1));
        let _ = lexbfs_from(&g, Some(v(1)));
    }
}
