//! Graph coloring: the [`Coloring`] assignment type, greedy coloring over an
//! order, DSATUR, and an exact backtracking `k`-coloring solver that
//! optionally supports *same-color constraints* (the question asked by
//! incremental conservative coalescing: "is there a `k`-coloring `f` with
//! `f(x) = f(y)`?").
//!
//! Every first-fit select shares the [`ColorScratch`] epoch-stamped "used
//! colors" array: [`greedy_coloring_in_order`] (which
//! [`crate::chordal::chordal_coloring`] runs over the reversed perfect
//! elimination order), the IRC select phase and the biased select of the
//! allocators: one `Vec<u32>` slot per color, stamped with the current
//! vertex's epoch.  Marking a neighbor color and finding the first free
//! color are O(1) and O(colors) array operations with no per-vertex
//! allocation.

use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// A (partial) assignment of colors to vertices.
///
/// Colors are small integers `0, 1, 2, ...` interpreted as register names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<Option<usize>>,
}

impl Coloring {
    /// Creates an empty coloring able to hold vertices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Coloring {
            colors: vec![None; capacity],
        }
    }

    /// Assigns color `c` to vertex `v` (overwriting any previous color).
    pub fn assign(&mut self, v: VertexId, c: usize) {
        if v.index() >= self.colors.len() {
            self.colors.resize(v.index() + 1, None);
        }
        self.colors[v.index()] = Some(c);
    }

    /// Returns the color of `v`, if assigned.
    pub fn color_of(&self, v: VertexId) -> Option<usize> {
        self.colors.get(v.index()).copied().flatten()
    }

    /// Number of distinct colors used.
    pub fn num_colors(&self) -> usize {
        self.colors
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Largest color index used plus one (0 if nothing is colored).
    pub fn max_color_bound(&self) -> usize {
        self.colors
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(0, |c| c + 1)
    }

    /// Returns `true` if every **live** vertex of `g` has a color and no two
    /// adjacent vertices share a color.
    pub fn is_proper(&self, g: &Graph) -> bool {
        for v in g.vertices() {
            if self.color_of(v).is_none() {
                return false;
            }
        }
        for (u, v) in g.edges() {
            if self.color_of(u) == self.color_of(v) {
                return false;
            }
        }
        true
    }

    /// Iterates over `(vertex, color)` pairs of colored vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        self.colors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (VertexId::new(i), c)))
    }
}

/// Reusable epoch-stamped "used colors" scratch for greedy first-fit
/// coloring sweeps.
///
/// One `u32` stamp per color, reused across vertices: a color counts as
/// used by the current vertex's neighbors iff its stamp equals the current
/// epoch, so "clearing" the set for the next vertex is a single counter
/// increment instead of a fresh `BTreeSet` allocation.  The rare epoch
/// wrap-around zeroes the stamps explicitly, so stale marks can never
/// alias a live epoch.
#[derive(Debug, Default)]
pub struct ColorScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl ColorScratch {
    /// Creates an empty scratch; it grows on demand as colors are marked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the next vertex: every color becomes unused.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `color` as used by a neighbor of the current vertex.
    pub fn mark(&mut self, color: usize) {
        if color >= self.stamp.len() {
            self.stamp.resize(color + 1, 0);
        }
        self.stamp[color] = self.epoch;
    }

    /// Returns `true` if `color` is marked for the current vertex.
    pub fn is_marked(&self, color: usize) -> bool {
        self.stamp.get(color) == Some(&self.epoch)
    }

    /// Smallest color not marked for the current vertex (first fit).
    pub fn first_free(&self) -> usize {
        let mut c = 0;
        while c < self.stamp.len() && self.stamp[c] == self.epoch {
            c += 1;
        }
        c
    }
}

/// Colors the vertices of `g` greedily in the given order: each vertex gets
/// the smallest color unused by its already-colored neighbors.
///
/// This is the coloring scheme of Chaitin-like allocators (the "select"
/// phase), applied to an arbitrary order.  The used-color set is tracked
/// in a [`ColorScratch`] shared across the sweep.
pub fn greedy_coloring_in_order(g: &Graph, order: &[VertexId]) -> Coloring {
    let mut coloring = Coloring::new(g.capacity());
    let mut scratch = ColorScratch::new();
    for &v in order {
        scratch.begin();
        for u in g.neighbors(v) {
            if let Some(c) = coloring.color_of(u) {
                scratch.mark(c);
            }
        }
        coloring.assign(v, scratch.first_free());
    }
    coloring
}

/// DSATUR heuristic coloring: repeatedly colors the uncolored vertex with the
/// highest *saturation* (number of distinct colors among its neighbors),
/// breaking ties by degree.  Returns a proper coloring of the live vertices.
pub fn dsatur(g: &Graph) -> Coloring {
    let cap = g.capacity();
    let mut coloring = Coloring::new(cap);
    let mut neighbor_colors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); cap];
    let mut uncolored: BTreeSet<VertexId> = g.vertices().collect();
    while !uncolored.is_empty() {
        let &v = uncolored
            .iter()
            .max_by_key(|v| (neighbor_colors[v.index()].len(), g.degree(**v)))
            .expect("non-empty");
        let mut c = 0;
        while neighbor_colors[v.index()].contains(&c) {
            c += 1;
        }
        coloring.assign(v, c);
        uncolored.remove(&v);
        for u in g.neighbors(v) {
            neighbor_colors[u.index()].insert(c);
        }
    }
    coloring
}

/// Exact `k`-coloring of the live part of `g`.
///
/// `same_color` is a list of vertex pairs that must receive **equal** colors
/// (the coalescing constraints of the incremental conservative coalescing
/// problem).  Returns a proper coloring satisfying the constraints, or
/// `None` if none exists.
///
/// This is a convenience wrapper over [`crate::solver::ExactSolver`] with
/// the default (fully pruned) configuration; construct a solver directly to
/// configure the prunings or read the search instrumentation.
pub fn exact_k_coloring(
    g: &Graph,
    k: usize,
    same_color: &[(VertexId, VertexId)],
) -> Option<Coloring> {
    crate::solver::ExactSolver::new().k_coloring(g, k, same_color)
}

/// Exact chromatic number of the live part of `g` (exponential worst case;
/// routed through [`crate::solver::ExactSolver`]).
pub fn chromatic_number(g: &Graph) -> usize {
    crate::solver::ExactSolver::new().chromatic_number(g)
}

/// Returns `true` iff the live part of `g` admits a proper `k`-coloring.
pub fn is_k_colorable(g: &Graph, k: usize) -> bool {
    exact_k_coloring(g, k, &[]).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        )
    }

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i.into(), j.into());
            }
        }
        g
    }

    #[test]
    fn coloring_assign_and_query() {
        let mut c = Coloring::new(2);
        assert_eq!(c.color_of(0.into()), None);
        c.assign(0.into(), 3);
        assert_eq!(c.color_of(0.into()), Some(3));
    }

    #[test]
    fn proper_coloring_check() {
        let g = Graph::with_edges(2, [(0.into(), 1.into())]);
        let mut c = Coloring::new(2);
        c.assign(0.into(), 0);
        c.assign(1.into(), 0);
        assert!(!c.is_proper(&g));
        c.assign(1.into(), 1);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn color_scratch_epochs_reset_between_vertices() {
        let mut s = ColorScratch::new();
        s.begin();
        s.mark(0);
        s.mark(1);
        s.mark(3);
        assert_eq!(s.first_free(), 2);
        s.begin();
        // Previous epoch's marks are gone without any clearing work.
        assert_eq!(s.first_free(), 0);
        s.mark(0);
        assert_eq!(s.first_free(), 1);
        assert!(s.is_marked(0));
        assert!(!s.is_marked(1));
        assert!(!s.is_marked(7));
    }

    #[test]
    fn greedy_in_order_colors_path_with_two_colors() {
        let g = Graph::with_edges(4, (1..4).map(|i| (VertexId::new(i - 1), VertexId::new(i))));
        let order: Vec<VertexId> = g.vertices().collect();
        let c = greedy_coloring_in_order(&g, &order);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn dsatur_on_odd_cycle_uses_three_colors() {
        let g = cycle(5);
        let c = dsatur(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 3);
    }

    #[test]
    fn dsatur_on_even_cycle_uses_two_colors() {
        let g = cycle(6);
        let c = dsatur(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn exact_coloring_of_clique() {
        let g = complete(4);
        assert!(exact_k_coloring(&g, 3, &[]).is_none());
        let c = exact_k_coloring(&g, 4, &[]).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(chromatic_number(&g), 4);
    }

    #[test]
    fn exact_coloring_of_odd_cycle() {
        let g = cycle(7);
        assert!(!is_k_colorable(&g, 2));
        assert!(is_k_colorable(&g, 3));
        assert_eq!(chromatic_number(&g), 3);
    }

    #[test]
    fn exact_coloring_with_equality_constraint() {
        // Path 0-1-2: with 2 colors, 0 and 2 must share a color; forcing
        // 0 and 1 to share a color is impossible.
        let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
        let c = exact_k_coloring(&g, 2, &[(0.into(), 2.into())]).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.color_of(0.into()), c.color_of(2.into()));
        assert!(exact_k_coloring(&g, 2, &[(0.into(), 1.into())]).is_none());
    }

    #[test]
    fn equality_constraints_chain_transitively() {
        // 5 independent vertices, constraints 0=1, 1=2: all three share a color.
        let g = Graph::new(5);
        let c = exact_k_coloring(&g, 1, &[(0.into(), 1.into()), (1.into(), 2.into())]).unwrap();
        assert_eq!(c.color_of(0.into()), c.color_of(2.into()));
    }

    #[test]
    fn constraint_on_adjacent_vertices_is_unsatisfiable() {
        let g = Graph::with_edges(2, [(0.into(), 1.into())]);
        assert!(exact_k_coloring(&g, 5, &[(0.into(), 1.into())]).is_none());
    }

    #[test]
    fn chromatic_number_of_bipartite_graph() {
        // K_{2,3}
        let mut g = Graph::new(5);
        for a in 0..2usize {
            for b in 2..5usize {
                g.add_edge(a.into(), b.into());
            }
        }
        assert_eq!(chromatic_number(&g), 2);
    }

    #[test]
    fn wheel_chromatic_number_depends_on_cycle_parity() {
        // Even rims are 2-chromatic, so the wheel needs 3 colors; odd rims
        // are 3-chromatic, so the wheel needs 4.
        for (rim, chi) in [(4usize, 3usize), (5, 4), (6, 3), (7, 4)] {
            let mut wheel = cycle(rim);
            let hub = wheel.add_vertex();
            for i in 0..rim {
                wheel.add_edge(hub, i.into());
            }
            assert_eq!(chromatic_number(&wheel), chi, "W_{rim}");
        }
    }

    #[test]
    fn chromatic_number_of_empty_graph() {
        assert_eq!(chromatic_number(&Graph::new(0)), 0);
        assert_eq!(chromatic_number(&Graph::new(3)), 1);
    }

    #[test]
    fn exact_coloring_respects_retired_vertices() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        g.remove_vertex(2.into());
        // Remaining live graph is a path v-0-1: 2-colorable.
        assert!(is_k_colorable(&g, 2));
    }
}
