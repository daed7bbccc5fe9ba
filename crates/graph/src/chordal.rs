//! Chordal graph machinery: Maximum Cardinality Search, perfect elimination
//! orderings, chordality testing, optimal coloring of chordal graphs, and
//! clique number computation.
//!
//! Chordal graphs are central to the paper: Theorem 1 shows that the
//! interference graph of a strict SSA program is chordal with clique number
//! equal to `Maxlive`, and Theorem 5 gives a polynomial incremental
//! conservative coalescing algorithm on chordal graphs.
//!
//! A graph is *chordal* iff every cycle of length at least 4 has a chord,
//! or equivalently iff it admits a *perfect elimination ordering* (PEO):
//! an ordering `v1, ..., vn` such that for every `vi`, the neighbors of
//! `vi` occurring **later** in the ordering form a clique.  Maximum
//! Cardinality Search (MCS) produces such an ordering exactly when the
//! graph is chordal (Golumbic, *Algorithmic Graph Theory and Perfect
//! Graphs*, the reference \[20\] of the paper).

use crate::coloring::{greedy_coloring_in_order, Coloring};
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// "No vertex / no position" sentinel of the `u32` sweep arrays.
const NONE: u32 = u32::MAX;

/// The result of one [`CliqueForest::sweep`]: the MCS visit order, the
/// chordality verdict, and the Blair–Peyton clique-tree skeleton derived
/// from the same run, stored flat.
///
/// Everything is computed in a single `O(V + E)` sweep (the adjacency
/// rows are flat sorted slices, so the neighbor scans carry no
/// per-element set overhead), which is what
/// makes [`chordal_maximal_cliques`] and
/// [`crate::cliquetree::CliqueTree::build`] linear instead of quadratic.
/// A forest swept again reuses every buffer, so re-sweeping a graph of a
/// size seen before allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct CliqueForest {
    /// Vertices in MCS **visit** order (first visited first).  The reverse
    /// is the elimination order [`maximum_cardinality_search`] returns.
    pub visit_order: Vec<VertexId>,
    /// `true` iff the reverse of `visit_order` is a perfect elimination
    /// ordering, i.e. iff the graph is chordal.  When `false` the forest
    /// holds no cliques.
    pub chordal: bool,
    /// The maximal cliques in discovery order (at most one per vertex),
    /// stored contiguously: clique `i` is `members[starts[i]..starts[i + 1]]`,
    /// in ascending vertex order.
    members: Vec<VertexId>,
    starts: Vec<usize>,
    /// Clique-tree parent of each clique (`parent[0] == 0`): the
    /// Blair–Peyton parent link, or the previous clique for the first
    /// clique of each further connected component (an empty-separator
    /// stitch, so the node set always forms a single tree).  Every parent
    /// precedes its child, so the tree is rooted at clique 0.
    pub parent: Vec<usize>,
    scratch: McsScratch,
}

/// The per-vertex arrays of the MCS visit loop and of the
/// Tarjan–Yannakakis check, kept between sweeps.
#[derive(Debug, Clone, Default)]
struct McsScratch {
    weight: Vec<u32>,
    /// Visit position, [`NONE`] while unvisited.
    visit_pos: Vec<u32>,
    clique_of: Vec<u32>,
    /// `buckets[w]` holds candidates whose weight may be `w`; only the
    /// first `len` of a sweep are in use, the rest keep their capacity.
    buckets: Vec<Vec<VertexId>>,
    mark: Vec<u32>,
    /// The deferred neighborhoods of the chordality check as one linked
    /// arena: `deferred_head[v]` starts `v`'s list of `(vertex, next)`
    /// entries in `deferred`.
    deferred_head: Vec<u32>,
    deferred: Vec<(VertexId, u32)>,
}

/// Clears `v` and refills it with `len` copies of `value`, reusing its
/// allocation.
fn reset(v: &mut Vec<u32>, len: usize, value: u32) {
    v.clear();
    v.resize(len, value);
}

impl CliqueForest {
    /// Sweeps `g` into a fresh forest.
    pub(crate) fn of(g: &Graph) -> Self {
        let mut forest = CliqueForest::default();
        forest.sweep(g);
        forest
    }

    /// Number of maximal cliques found.
    pub(crate) fn num_cliques(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Clique `i`, in ascending vertex order.
    pub(crate) fn clique(&self, i: usize) -> &[VertexId] {
        &self.members[self.starts[i]..self.starts[i + 1]]
    }

    /// The cliques in discovery order.
    pub(crate) fn cliques(&self) -> impl Iterator<Item = &[VertexId]> + Clone + '_ {
        self.starts.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// Runs MCS with a bucket queue over `g` and derives the maximal
    /// cliques and the clique-tree parents directly from the run,
    /// following Blair & Peyton's clique-tree algorithm (*An Introduction
    /// to Chordal Graphs and Clique Trees*, Fig. 4; the MCS treatment is
    /// Golumbic's, the paper's reference [20]).  Overwrites the previous
    /// contents.
    ///
    /// The visit loop is the classical lazy-deletion bucket queue: every
    /// unvisited vertex has a valid entry in `buckets[weight(v)]`, stale
    /// entries are skipped on pop, and the running maximum only ever rises
    /// by one per visit, so the whole selection costs `O(V + E)`.
    ///
    /// A vertex *starts a new clique* exactly when its visited-neighbor
    /// count fails to grow past the previous vertex's (Blair–Peyton); its
    /// visited neighborhood `M(v)` seeds the clique and the tree edge goes
    /// to the clique of the most recently visited vertex of `M(v)`.
    /// Chordality is then verified by a Tarjan–Yannakakis pass over the
    /// elimination order (timestamped neighborhood bitmap, no per-edge set
    /// lookups), so the whole routine does `O(V + E)` work, slice scans
    /// included.
    pub(crate) fn sweep(&mut self, g: &Graph) {
        let cap = g.capacity();
        let n = g.num_vertices();
        // Vertex ids are u32; the deferred arena holds at most one entry
        // per edge, so its u32 links cannot wrap either.
        debug_assert!(g.num_edges() < NONE as usize);
        let s = &mut self.scratch;
        reset(&mut s.weight, cap, 0);
        reset(&mut s.visit_pos, cap, NONE);
        reset(&mut s.clique_of, cap, NONE);
        self.visit_order.clear();
        self.members.clear();
        self.starts.clear();
        self.parent.clear();

        for bucket in &mut s.buckets {
            bucket.clear();
        }
        if s.buckets.is_empty() {
            s.buckets.push(Vec::new());
        }
        s.buckets[0].extend(g.vertices());
        // Buckets in use: one past the largest weight reached so far.
        let mut num_buckets = 1usize;
        let mut max_w = 0usize;
        // Visited-neighbor count of the previously visited vertex; MAX is the
        // "no previous vertex" sentinel so the first vertex starts a clique.
        let mut prev_card = usize::MAX;
        // Pops (valid and stale) plus pushes; reported once at the end so the
        // hot loop only touches a local.
        let mut bucket_ops: u64 = 0;

        while self.visit_order.len() < n {
            let v = loop {
                match s.buckets[max_w].pop() {
                    Some(c)
                        if s.visit_pos[c.index()] == NONE
                            && s.weight[c.index()] as usize == max_w =>
                    {
                        bucket_ops += 1;
                        break c;
                    }
                    Some(_) => {
                        bucket_ops += 1;
                        continue; // stale entry
                    }
                    None => max_w -= 1, // bucket exhausted; the max can only drop
                }
            };
            let pos = self.visit_order.len() as u32;
            s.visit_pos[v.index()] = pos;
            self.visit_order.push(v);
            let card = s.weight[v.index()] as usize;

            if prev_card == usize::MAX || card <= prev_card {
                // v begins a new clique C_s = M(v) ∪ {v}: M(v), the
                // already-visited neighbors, seeds it (ascending, as the
                // row is sorted).
                let clique = self.starts.len();
                self.starts.push(self.members.len());
                let mut m_last: Option<VertexId> = None;
                for &u in g.neighbor_row(v) {
                    let u_pos = s.visit_pos[u.index()];
                    if u_pos != NONE {
                        self.members.push(u);
                        if m_last.is_none_or(|l| u_pos > s.visit_pos[l.index()]) {
                            m_last = Some(u);
                        }
                    }
                }
                debug_assert_eq!(self.members.len() - self.starts[clique], card);
                self.parent.push(match m_last {
                    // Tree edge to the clique of the most recent M(v) member;
                    // M(v) (the separator) is contained in that clique.
                    Some(last) => s.clique_of[last.index()] as usize,
                    // New connected component (or the first clique): stitch
                    // it to the previous clique so the forest stays one tree.
                    None => clique.saturating_sub(1),
                });
            }
            // v joins the clique under construction, in sorted position.
            let start = self.starts[self.starts.len() - 1];
            let at = start + self.members[start..].partition_point(|&u| u < v);
            self.members.insert(at, v);
            s.clique_of[v.index()] = (self.starts.len() - 1) as u32;
            prev_card = card;

            // Bump the unvisited neighbors' weights into their new buckets.
            for &u in g.neighbor_row(v) {
                if s.visit_pos[u.index()] == NONE {
                    let w = s.weight[u.index()] as usize + 1;
                    s.weight[u.index()] = w as u32;
                    if w == num_buckets {
                        num_buckets += 1;
                        if s.buckets.len() < num_buckets {
                            s.buckets.push(Vec::new());
                        }
                    }
                    s.buckets[w].push(u);
                    bucket_ops += 1;
                }
            }
            // The maximum weight can rise by at most one per visit.
            if max_w + 1 < num_buckets {
                max_w += 1;
            }
        }
        self.starts.push(self.members.len());

        // Tarjan–Yannakakis chordality test over the elimination order (the
        // reverse of the visit order).  Each vertex defers its later
        // (earlier-visited) neighborhood minus its parent to that parent,
        // which must contain the deferred set in its own neighborhood; a
        // timestamped bitmap makes every membership test O(1), so the whole
        // pass is O(V + E) with no per-edge set lookups.
        let mut chordal = true;
        reset(&mut s.mark, cap, NONE);
        reset(&mut s.deferred_head, cap, NONE);
        s.deferred.clear();
        'elimination: for i in (0..n).rev() {
            let v = self.visit_order[i];
            let i = i as u32;
            // Mark N(v) and find the parent: the most recently visited
            // member of M(v).
            let mut parent: Option<VertexId> = None;
            for &u in g.neighbor_row(v) {
                s.mark[u.index()] = i;
                let u_pos = s.visit_pos[u.index()];
                if u_pos < i && parent.is_none_or(|p| u_pos > s.visit_pos[p.index()]) {
                    parent = Some(u);
                }
            }
            let mut entry = s.deferred_head[v.index()];
            while entry != NONE {
                let (w, next) = s.deferred[entry as usize];
                if s.mark[w.index()] != i {
                    chordal = false;
                    break 'elimination;
                }
                entry = next;
            }
            if let Some(p) = parent {
                for &u in g.neighbor_row(v) {
                    if s.visit_pos[u.index()] < i && u != p {
                        let head = &mut s.deferred_head[p.index()];
                        s.deferred.push((u, *head));
                        *head = (s.deferred.len() - 1) as u32;
                    }
                }
            }
        }

        coalesce_stats::counter!("mcs.bucket_ops", bucket_ops);
        coalesce_stats::counter!("cliquetree.nodes", self.num_cliques() as u64);
        self.chordal = chordal;
        if !chordal {
            self.members.clear();
            self.starts.truncate(1);
            self.parent.clear();
        }
    }
}

/// Runs Maximum Cardinality Search on the live part of `g`.
///
/// Returns the vertices in **elimination order**: the returned sequence is a
/// perfect elimination ordering iff `g` is chordal.  (MCS itself numbers
/// vertices from `n` down to `1`; we return the order `1..n`, i.e. the
/// reverse of the visit order.)
///
/// Runs in `O(V + E)` via a bucket queue with lazy deletion.
///
/// ```
/// use coalesce_graph::{Graph, chordal};
/// let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
/// let order = chordal::maximum_cardinality_search(&g);
/// assert_eq!(order.len(), 3);
/// ```
pub fn maximum_cardinality_search(g: &Graph) -> Vec<VertexId> {
    let mut order = CliqueForest::of(g).visit_order;
    order.reverse();
    order
}

/// Checks whether `order` (a permutation of the live vertices of `g`) is a
/// perfect elimination ordering of `g`.
///
/// Uses the classical parent test: for each vertex `v`, let `p` be its first
/// later neighbor in the order; every other later neighbor of `v` must also
/// be a neighbor of `p`.
pub fn is_perfect_elimination_ordering(g: &Graph, order: &[VertexId]) -> bool {
    if order.len() != g.num_vertices() {
        return false;
    }
    let cap = g.capacity();
    let mut position = vec![usize::MAX; cap];
    for (i, &v) in order.iter().enumerate() {
        if !g.is_live(v) || position[v.index()] != usize::MAX {
            return false;
        }
        position[v.index()] = i;
    }
    for &v in order {
        let pv = position[v.index()];
        // Later neighbors of v.
        let mut later: Vec<VertexId> = g
            .neighbors(v)
            .filter(|u| position[u.index()] > pv)
            .collect();
        if later.len() <= 1 {
            continue;
        }
        later.sort_by_key(|u| position[u.index()]);
        let parent = later[0];
        for &u in &later[1..] {
            if !g.has_edge(parent, u) {
                return false;
            }
        }
    }
    true
}

/// Returns a perfect elimination ordering of `g`, or `None` if `g` is not
/// chordal.  `O(V + E)`: the chordality verdict comes out of the same MCS
/// sweep that produces the order.
pub fn perfect_elimination_ordering(g: &Graph) -> Option<Vec<VertexId>> {
    let forest = CliqueForest::of(g);
    forest.chordal.then(|| {
        let mut order = forest.visit_order;
        order.reverse();
        order
    })
}

/// Returns `true` iff the live part of `g` is a chordal graph.
///
/// ```
/// use coalesce_graph::{Graph, chordal};
/// // C4 is the smallest non-chordal graph.
/// let c4 = Graph::with_edges(4, [
///     (0.into(), 1.into()), (1.into(), 2.into()),
///     (2.into(), 3.into()), (3.into(), 0.into()),
/// ]);
/// assert!(!chordal::is_chordal(&c4));
/// ```
pub fn is_chordal(g: &Graph) -> bool {
    perfect_elimination_ordering(g).is_some()
}

/// Returns `true` if `v` is a *simplicial* vertex of `g`, i.e. its
/// neighborhood is a clique.  Every chordal graph has a simplicial vertex
/// (used by Property 1 of the paper).
pub fn is_simplicial(g: &Graph, v: VertexId) -> bool {
    let nbrs: Vec<VertexId> = g.neighbors(v).collect();
    g.is_clique(&nbrs)
}

/// Finds a simplicial vertex of `g`, if any.
pub fn find_simplicial_vertex(g: &Graph) -> Option<VertexId> {
    g.vertices().find(|&v| is_simplicial(g, v))
}

/// Computes the clique number `ω(G)` of a **chordal** graph in linear
/// time: it is the size of the largest clique the Blair–Peyton sweep
/// discovers (equivalently `1 + max_v |later neighbors of v|` over a
/// perfect elimination ordering).
///
/// Returns `None` if `g` is not chordal (use [`crate::cliques`] for general
/// graphs).
pub fn chordal_clique_number(g: &Graph) -> Option<usize> {
    let forest = CliqueForest::of(g);
    forest
        .chordal
        .then(|| forest.cliques().map(<[VertexId]>::len).max().unwrap_or(0))
}

/// Enumerates the maximal cliques of a **chordal** graph, in `O(V + E)`.
///
/// The cliques fall out of the Blair–Peyton MCS sweep directly: a new
/// clique starts exactly when a vertex's visited-neighbor count stops
/// growing, so no subset checks between candidate cliques are needed.  A
/// chordal graph on `n` vertices has at most `n` maximal cliques.
///
/// Returns `None` if `g` is not chordal.
pub fn chordal_maximal_cliques(g: &Graph) -> Option<Vec<BTreeSet<VertexId>>> {
    let forest = CliqueForest::of(g);
    forest.chordal.then(|| {
        forest
            .cliques()
            .map(|c| c.iter().copied().collect())
            .collect()
    })
}

/// Returns one maximum clique of a **chordal** graph — a witness for the
/// `ω(G)` value reported by [`chordal_clique_number`], usable as an
/// independently checkable certificate (every pair must be adjacent and the
/// size must equal the claimed clique number).
///
/// Returns `None` if `g` is not chordal.
pub fn chordal_max_clique(g: &Graph) -> Option<Vec<VertexId>> {
    let forest = CliqueForest::of(g);
    forest.chordal.then(|| {
        forest
            .cliques()
            .max_by_key(|c| c.len())
            .map(<[VertexId]>::to_vec)
            .unwrap_or_default()
    })
}

/// Optimally colors a **chordal** graph with `ω(G)` colors by coloring the
/// vertices in reverse perfect elimination order, greedily.
///
/// Returns `None` if `g` is not chordal.
pub fn chordal_coloring(g: &Graph) -> Option<Coloring> {
    let mut order = perfect_elimination_ordering(g)?;
    order.reverse();
    Some(greedy_coloring_in_order(g, &order))
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
    fn empty_and_single_vertex_are_chordal() {
        assert!(is_chordal(&Graph::new(0)));
        assert!(is_chordal(&Graph::new(1)));
        assert_eq!(chordal_clique_number(&Graph::new(0)), Some(0));
        assert_eq!(chordal_clique_number(&Graph::new(1)), Some(1));
    }

    #[test]
    fn trees_and_cliques_are_chordal() {
        let path = Graph::with_edges(4, (1..4).map(|i| (VertexId::new(i - 1), VertexId::new(i))));
        assert!(is_chordal(&path));
        assert!(is_chordal(&complete(5)));
    }

    #[test]
    fn cycles_of_length_at_least_4_are_not_chordal() {
        assert!(is_chordal(&cycle(3)));
        assert!(!is_chordal(&cycle(4)));
        assert!(!is_chordal(&cycle(5)));
        assert!(!is_chordal(&cycle(6)));
    }

    #[test]
    fn chorded_cycle_is_chordal() {
        let mut g = cycle(5);
        g.add_edge(0.into(), 2.into());
        g.add_edge(0.into(), 3.into());
        assert!(is_chordal(&g));
    }

    #[test]
    fn clique_number_of_clique() {
        assert_eq!(chordal_clique_number(&complete(4)), Some(4));
    }

    #[test]
    fn clique_number_of_triangle_with_pendant() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        assert_eq!(chordal_clique_number(&g), Some(3));
    }

    #[test]
    fn non_chordal_reports_none() {
        assert_eq!(chordal_clique_number(&cycle(4)), None);
        assert!(chordal_coloring(&cycle(4)).is_none());
        assert!(chordal_maximal_cliques(&cycle(4)).is_none());
    }

    #[test]
    fn chordal_coloring_is_optimal_on_interval_like_graph() {
        // Interval graph: [0,2], [1,3], [2,4], [5,6] -> clique number 2... build explicitly:
        let mut g = Graph::new(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let coloring = chordal_coloring(&g).unwrap();
        assert!(coloring.is_proper(&g));
        assert_eq!(coloring.num_colors(), 2);
        assert_eq!(chordal_clique_number(&g), Some(2));
    }

    #[test]
    fn chordal_coloring_uses_omega_colors_on_clique() {
        let g = complete(5);
        let c = chordal_coloring(&g).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 5);
    }

    #[test]
    fn simplicial_vertices() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        assert!(is_simplicial(&g, v));
        assert!(is_simplicial(&g, 1.into()));
        assert!(find_simplicial_vertex(&cycle(4)).is_none());
    }

    #[test]
    fn maximal_cliques_of_two_triangles_sharing_an_edge() {
        // Triangles {0,1,2} and {1,2,3}.
        let g = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        );
        let cliques = chordal_maximal_cliques(&g).unwrap();
        assert_eq!(cliques.len(), 2);
        assert!(cliques.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn peo_check_rejects_wrong_order_on_path() {
        // For the path 0-1-2, the order [1, 0, 2] is not a PEO because 1's
        // later neighbors {0, 2} are not adjacent.
        let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
        assert!(!is_perfect_elimination_ordering(
            &g,
            &[1.into(), 0.into(), 2.into()]
        ));
        assert!(is_perfect_elimination_ordering(
            &g,
            &[0.into(), 2.into(), 1.into()]
        ));
    }

    #[test]
    fn peo_check_rejects_non_permutations() {
        let g = Graph::new(2);
        assert!(!is_perfect_elimination_ordering(&g, &[0.into()]));
        assert!(!is_perfect_elimination_ordering(&g, &[0.into(), 0.into()]));
    }
}
