//! Incremental conservative coalescing (§4, Theorems 4 and 5).
//!
//! The incremental problem asks, for a single affinity `(x, y)`, whether the
//! graph admits a `k`-coloring in which `x` and `y` share a color.  The
//! paper shows this is NP-complete on arbitrary `k`-colorable graphs
//! (Theorem 4) but polynomial on chordal graphs (Theorem 5).  This module
//! provides both sides:
//!
//! * [`incremental_exact`] — exponential exact answer on arbitrary graphs
//!   (backtracking `k`-coloring with an equality constraint), used for
//!   validation and for the Theorem 4 reduction experiments;
//! * [`chordal_incremental`] — the polynomial algorithm of Theorem 5: walk
//!   the clique-tree path between the two vertices and search for a chain of
//!   pairwise-disjoint vertex intervals, padded with "short intervals" up to
//!   capacity `k`, linking `I_x` to `I_y`.  On success it returns the whole
//!   color class (the set of vertices to merge with `x` and `y`), which
//!   keeps the graph chordal when contracted (the strategy sketched after
//!   Theorem 5).

use coalesce_graph::cliquetree::CliqueTree;
use coalesce_graph::solver::ExactSolver;
use coalesce_graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// Answer of an incremental coalescing query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalAnswer {
    /// The two vertices can share a color; the payload is a *witness color
    /// class*: a set of vertices (containing both endpoints) that can all be
    /// merged while keeping the graph `k`-colorable.
    Coalescible(BTreeSet<VertexId>),
    /// No `k`-coloring gives the two vertices the same color.
    NotCoalescible,
}

impl IncrementalAnswer {
    /// Returns `true` for [`IncrementalAnswer::Coalescible`].
    pub fn is_coalescible(&self) -> bool {
        matches!(self, IncrementalAnswer::Coalescible(_))
    }
}

/// Exact incremental conservative coalescing on an arbitrary graph:
/// search for a `k`-coloring with `f(x) = f(y)` via a fresh
/// [`ExactSolver`] (worst-case exponential, but pruned, decomposed and
/// memoized).
pub fn incremental_exact(graph: &Graph, k: usize, x: VertexId, y: VertexId) -> IncrementalAnswer {
    incremental_exact_with(&mut ExactSolver::new(), graph, k, x, y)
}

/// Like [`incremental_exact`], but runs on a caller-supplied solver so the
/// search instrumentation ([`coalesce_graph::solver::SolverStats`])
/// accumulates across queries and the pruning configuration can be chosen.
pub fn incremental_exact_with(
    solver: &mut ExactSolver,
    graph: &Graph,
    k: usize,
    x: VertexId,
    y: VertexId,
) -> IncrementalAnswer {
    if graph.has_edge(x, y) {
        return IncrementalAnswer::NotCoalescible;
    }
    match solver.k_coloring(graph, k, &[(x, y)]) {
        Some(coloring) => {
            let target = coloring.color_of(x);
            let class: BTreeSet<VertexId> = graph
                .vertices()
                .filter(|&v| coloring.color_of(v) == target)
                .collect();
            IncrementalAnswer::Coalescible(class)
        }
        None => IncrementalAnswer::NotCoalescible,
    }
}

/// Polynomial incremental conservative coalescing on a **chordal** graph
/// (Theorem 5).
///
/// Returns `None` if `graph` is not chordal or `k < ω(G)` (the instance is
/// outside the theorem's hypotheses); otherwise answers the query.
///
/// # Algorithm
///
/// 1. If `x` and `y` interfere the answer is no; if their subtrees lie in
///    different connected components the answer is trivially yes.
/// 2. Build a clique tree and take the tree path `P` from a node containing
///    `x` to a node containing `y`, trimmed so that `x` occurs only at the
///    start and `y` only at the end.
/// 3. Restrict every vertex's subtree to `P`: by the junction property each
///    becomes an interval of path positions.
/// 4. `x` and `y` can share a color iff there is a chain of pairwise
///    disjoint intervals starting with `I_x`, ending with `I_y`, covering
///    all positions of `P`, where a position can also be covered by a
///    virtual "short interval" as long as fewer than `k` real intervals
///    cross it (the padding of the proof, generalised from `ω(G)` to `k`).
///    This is decided by a left-to-right marking over interval endpoints.
pub fn chordal_incremental(
    graph: &Graph,
    k: usize,
    x: VertexId,
    y: VertexId,
) -> Option<IncrementalAnswer> {
    ChordalIncremental::prepare(graph)?.query(k, x, y)
}

/// A prepared Theorem-5 oracle that **owns** its clique tree and `ω(G)`
/// without borrowing the graph.
///
/// This is the building block behind both session types: a caller that
/// mutates its working graph between queries (the chordal coalescing
/// strategy merges vertices and adds fill edges) keeps the graph by value
/// and calls [`PreparedChordal::rebuild`] only when the graph actually
/// changed, which reuses the session's buffers instead of allocating a
/// fresh tree.  The graph passed to [`PreparedChordal::query`] must be the
/// one the session was last built from (unchanged since): the
/// borrow-holding [`ChordalIncremental`] wrapper enforces that statically,
/// and `query` checks the graph's live vertex and edge counts in debug
/// builds.
#[derive(Debug, Clone)]
pub struct PreparedChordal {
    tree: CliqueTree,
    omega: usize,
    chordal: bool,
    /// Live vertex and edge counts of the graph the session was built from.
    vertices: usize,
    edges: usize,
}

impl PreparedChordal {
    /// Builds the clique tree of `graph` once; `ω(G)` is read off the tree
    /// (its largest clique), so preparation is a single MCS sweep.
    ///
    /// Returns `None` if `graph` is not chordal.
    pub fn prepare(graph: &Graph) -> Option<Self> {
        let mut session = PreparedChordal {
            tree: CliqueTree::default(),
            omega: 0,
            chordal: false,
            vertices: 0,
            edges: 0,
        };
        session.rebuild(graph).then_some(session)
    }

    /// Re-prepares the session in place for `graph` (one MCS sweep into
    /// the session's own buffers).  Returns `false` if `graph` is not
    /// chordal; every query then answers `None` until a rebuild succeeds.
    pub fn rebuild(&mut self, graph: &Graph) -> bool {
        self.chordal = self.tree.rebuild(graph);
        self.omega = self.tree.clique_number();
        self.vertices = graph.num_vertices();
        self.edges = graph.num_edges();
        self.chordal
    }

    /// The clique number `ω(G)` of the prepared graph.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The clique tree the session walks.
    pub fn tree(&self) -> &CliqueTree {
        &self.tree
    }

    /// Answers one incremental query; same semantics as
    /// [`chordal_incremental`] (`None` when the instance is outside the
    /// theorem's hypotheses).  `graph` must be the exact graph this
    /// session was last built from.
    pub fn query(
        &self,
        graph: &Graph,
        k: usize,
        x: VertexId,
        y: VertexId,
    ) -> Option<IncrementalAnswer> {
        debug_assert!(
            graph.num_vertices() == self.vertices && graph.num_edges() == self.edges,
            "stale session: prepared for {} vertices / {} edges, queried on {} / {}",
            self.vertices,
            self.edges,
            graph.num_vertices(),
            graph.num_edges()
        );
        if !self.chordal || !graph.is_live(x) || !graph.is_live(y) || x == y {
            return None;
        }
        if k < self.omega {
            return None;
        }
        if graph.has_edge(x, y) {
            return Some(IncrementalAnswer::NotCoalescible);
        }
        let tree = &self.tree;
        let nx = tree.any_node_containing(x)?;
        let ny = tree.any_node_containing(y)?;
        let full_path = tree.path_between(nx, ny);

        // Trim the path: start at the last node containing x, end at the first
        // node containing y after that.
        let contains = |n: usize, v: VertexId| tree.clique(n).binary_search(&v).is_ok();
        let last_x = full_path
            .iter()
            .rposition(|&n| contains(n, x))
            .expect("path starts in T_x");
        let first_y = full_path
            .iter()
            .position(|&n| contains(n, y))
            .expect("path ends in T_y");
        if first_y <= last_x {
            // The subtrees touch a common clique: impossible since x and y do
            // not interfere; defensive fallback.
            return Some(IncrementalAnswer::NotCoalescible);
        }
        let path = &full_path[last_x..=first_y];
        let len = path.len();

        // Intervals of every vertex restricted to the path.
        let mut intervals = tree.intervals_on_path(path);
        // Occupancy per position (how many real intervals cross it).
        let mut occupancy = vec![0usize; len];
        let (mut ix, mut iy) = (None, None);
        for &(v, start, end) in &intervals {
            for slot in &mut occupancy[start..=end] {
                *slot += 1;
            }
            if v == x {
                ix = Some((start, end));
            } else if v == y {
                iy = Some((start, end));
            }
        }
        let (ix_start, ix_end) = ix.expect("x occurs on the trimmed path");
        let (iy_start, iy_end) = iy.expect("y occurs on the trimmed path");
        debug_assert_eq!(ix_start, 0);
        debug_assert_eq!(iy_end, len - 1);

        // The other intervals by starting position (ties by vertex), for the
        // marking sweep's cursor.
        intervals.retain(|&(v, _, _)| v != x && v != y);
        intervals.sort_unstable_by_key(|&(v, start, _)| (start, v));

        // reach[p] is set when positions 0..p are covered by a chain of
        // disjoint intervals starting with I_x.  To keep the sweep linear-ish
        // we store the predecessor interval per boundary instead of full
        // chains.
        #[derive(Clone, Copy)]
        enum Via {
            Short,
            Vertex(VertexId, usize), // vertex and the boundary its interval started from
        }
        let mut reach: Vec<Option<Via>> = vec![None; len + 1];
        reach[ix_end + 1] = Some(Via::Vertex(x, 0));
        let mut next = 0;
        for p in ix_end + 1..len {
            // Intervals starting before p can no longer be taken.
            while intervals.get(next).is_some_and(|&(_, start, _)| start < p) {
                next += 1;
            }
            if reach[p].is_none() {
                continue;
            }
            // Cross position p with a virtual short interval (capacity permitting).
            if occupancy[p] < k && reach[p + 1].is_none() {
                reach[p + 1] = Some(Via::Short);
            }
            // Or take a real interval starting exactly at p.
            for &(v, _, end) in intervals[next..].iter().take_while(|&&(_, s, _)| s == p) {
                if reach[end + 1].is_none() {
                    reach[end + 1] = Some(Via::Vertex(v, p));
                }
            }
        }

        // y's interval must start exactly at a reachable boundary.
        if reach[iy_start].is_none() {
            return Some(IncrementalAnswer::NotCoalescible);
        }

        // Reconstruct the witness class by walking the Via chain backwards from
        // the boundary where I_y starts.
        let mut class: BTreeSet<VertexId> = BTreeSet::new();
        class.insert(x);
        class.insert(y);
        let mut boundary = iy_start;
        while boundary > 0 {
            match reach[boundary].expect("reachable boundary has a predecessor") {
                Via::Short => boundary -= 1,
                Via::Vertex(v, started_from) => {
                    if v != x {
                        class.insert(v);
                    }
                    boundary = started_from;
                }
            }
        }
        Some(IncrementalAnswer::Coalescible(class))
    }
}

/// A prepared chordal incremental-coalescing session over a borrowed,
/// immutable graph.
///
/// [`chordal_incremental`] recomputes the clique tree and `ω(G)` on every
/// call, which dominates its cost on large graphs; batch workloads (the E5
/// sweeps query the same thousand-vertex graph dozens of times) prepare a
/// session once and run [`ChordalIncremental::query`] per pair instead.
/// Strategies that mutate their working graph between queries use the
/// underlying [`PreparedChordal`] directly and rebuild it after a change.
#[derive(Debug, Clone)]
pub struct ChordalIncremental<'g> {
    graph: &'g Graph,
    prepared: PreparedChordal,
}

impl<'g> ChordalIncremental<'g> {
    /// Builds the clique tree of `graph` once (a single MCS sweep).
    ///
    /// Returns `None` if `graph` is not chordal.
    pub fn prepare(graph: &'g Graph) -> Option<Self> {
        Some(ChordalIncremental {
            graph,
            prepared: PreparedChordal::prepare(graph)?,
        })
    }

    /// The clique number `ω(G)` of the prepared graph.
    pub fn omega(&self) -> usize {
        self.prepared.omega()
    }

    /// The clique tree the session walks.
    pub fn tree(&self) -> &CliqueTree {
        self.prepared.tree()
    }

    /// Answers one incremental query against the prepared graph; same
    /// semantics as [`chordal_incremental`] (`None` when the instance is
    /// outside the theorem's hypotheses).
    pub fn query(&self, k: usize, x: VertexId, y: VertexId) -> Option<IncrementalAnswer> {
        self.prepared.query(self.graph, k, x, y)
    }
}

/// Applies a witness class returned by [`chordal_incremental`] or
/// [`incremental_exact`]: merges every vertex of the class into one.
///
/// Returns the representative vertex.
///
/// # Panics
///
/// Panics if the class contains interfering vertices (a valid witness never
/// does).
pub fn apply_class(graph: &mut Graph, class: &BTreeSet<VertexId>) -> VertexId {
    let mut iter = class.iter().copied();
    let rep = iter.next().expect("class is non-empty");
    for v in iter {
        graph.merge(rep, v);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_graph::{chordal, greedy};

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// An interval graph: vertices are intervals [a, b] on a line; two
    /// vertices interfere iff the intervals overlap.
    fn interval_graph(intervals: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(intervals.len());
        for i in 0..intervals.len() {
            for j in i + 1..intervals.len() {
                let (a1, b1) = intervals[i];
                let (a2, b2) = intervals[j];
                if a1.max(a2) <= b1.min(b2) {
                    g.add_edge(v(i), v(j));
                }
            }
        }
        g
    }

    #[test]
    fn adjacent_vertices_are_never_coalescible() {
        let g = Graph::with_edges(2, [(v(0), v(1))]);
        assert_eq!(
            incremental_exact(&g, 4, v(0), v(1)),
            IncrementalAnswer::NotCoalescible
        );
        assert_eq!(
            chordal_incremental(&g, 4, v(0), v(1)),
            Some(IncrementalAnswer::NotCoalescible)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale session")]
    fn querying_a_session_after_the_graph_changed_panics_in_debug_builds() {
        let mut g = Graph::with_edges(3, [(v(0), v(1))]);
        let session = PreparedChordal::prepare(&g).expect("a path is chordal");
        g.add_edge(v(1), v(2));
        session.query(&g, 2, v(0), v(2));
    }

    #[test]
    fn a_failed_rebuild_answers_nothing_until_a_rebuild_succeeds() {
        let path = Graph::with_edges(3, [(v(0), v(1)), (v(1), v(2))]);
        let c4 = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3)), (v(3), v(0))]);
        let mut session = PreparedChordal::prepare(&path).expect("a path is chordal");
        assert!(!session.rebuild(&c4));
        assert_eq!(session.query(&c4, 2, v(0), v(2)), None);
        assert!(session.rebuild(&path));
        assert!(session.query(&path, 2, v(0), v(2)).is_some());
    }

    #[test]
    fn different_components_are_always_coalescible() {
        let g = Graph::with_edges(4, [(v(0), v(1)), (v(2), v(3))]);
        let ans = chordal_incremental(&g, 2, v(0), v(2)).unwrap();
        assert!(ans.is_coalescible());
        assert!(incremental_exact(&g, 2, v(0), v(2)).is_coalescible());
    }

    #[test]
    fn path_endpoints_share_color_with_two_colors() {
        // Path 0-1-2: 0 and 2 can share a color with k = 2.
        let g = Graph::with_edges(3, [(v(0), v(1)), (v(1), v(2))]);
        let ans = chordal_incremental(&g, 2, v(0), v(2)).unwrap();
        assert!(ans.is_coalescible());
        if let IncrementalAnswer::Coalescible(class) = ans {
            assert!(class.contains(&v(0)) && class.contains(&v(2)));
            assert!(!class.contains(&v(1)));
        }
    }

    #[test]
    fn figure_5_style_covering_and_blocking_intervals() {
        // Figure 5 of the paper illustrates the two outcomes of the interval
        // covering: either a chain of disjoint intervals links I_x to I_y
        // (same color possible) or not.
        //
        // Positive case: x = [0,1], y = [4,5], blocker z = [1,4] adjacent to
        // both.  ω = 2 and a 2-coloring with x = y exists (x-z-y is an even
        // obstruction-free path), and the chain is simply I_x, I_y linked
        // through short-interval slack? no -- through the boundary after z
        // never being needed because z never forces a middle position beyond
        // capacity: positions between the cliques {x,z} and {z,y} are only
        // two, both covered by I_x and I_y.
        let g_yes = interval_graph(&[(0, 1), (4, 5), (1, 4), (2, 3)]);
        let yes = chordal_incremental(&g_yes, 2, v(0), v(1)).unwrap();
        assert!(yes.is_coalescible());
        assert!(incremental_exact(&g_yes, 2, v(0), v(1)).is_coalescible());

        // Negative case: an odd path x - z - w - y at ω = k = 2 forces x and
        // y to take different colors; no disjoint-interval chain exists.
        let g_no = interval_graph(&[(0, 1), (3, 4), (1, 2), (2, 3)]);
        let no = chordal_incremental(&g_no, 2, v(0), v(1)).unwrap();
        assert_eq!(no, IncrementalAnswer::NotCoalescible);
        assert_eq!(
            incremental_exact(&g_no, 2, v(0), v(1)),
            IncrementalAnswer::NotCoalescible
        );
    }

    #[test]
    fn chordal_algorithm_agrees_with_exact_on_small_interval_graphs() {
        // Systematic agreement check over a family of interval graphs,
        // including denser and longer instances (the pruned `ExactSolver`
        // keeps the exact side fast enough to sweep every pair and three
        // `k` values per graph).
        let families: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 2), (1, 3), (2, 4), (3, 5), (4, 6)],
            vec![(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)],
            vec![(0, 4), (1, 2), (3, 5), (5, 6), (2, 3)],
            vec![(0, 0), (0, 1), (1, 1), (2, 3), (3, 4), (2, 4)],
            vec![
                (0, 2),
                (1, 4),
                (2, 6),
                (3, 5),
                (5, 8),
                (6, 9),
                (7, 10),
                (8, 11),
                (9, 12),
                (11, 13),
            ],
            vec![
                (0, 5),
                (0, 3),
                (1, 2),
                (2, 7),
                (4, 6),
                (5, 9),
                (6, 8),
                (7, 11),
                (8, 10),
                (9, 12),
                (10, 13),
                (12, 14),
            ],
        ];
        for intervals in families {
            let g = interval_graph(&intervals);
            let omega = chordal::chordal_clique_number(&g).unwrap();
            for k in omega..omega + 3 {
                for a in 0..intervals.len() {
                    for b in a + 1..intervals.len() {
                        if g.has_edge(v(a), v(b)) {
                            continue;
                        }
                        let fast = chordal_incremental(&g, k, v(a), v(b))
                            .unwrap()
                            .is_coalescible();
                        let slow = incremental_exact(&g, k, v(a), v(b)).is_coalescible();
                        assert_eq!(
                            fast, slow,
                            "disagreement on {intervals:?} k={k} pair=({a},{b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witness_class_is_interference_free_and_mergeable() {
        let g = interval_graph(&[(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)]);
        let omega = chordal::chordal_clique_number(&g).unwrap();
        if let Some(IncrementalAnswer::Coalescible(class)) =
            chordal_incremental(&g, omega, v(0), v(3))
        {
            assert!(class.contains(&v(0)) && class.contains(&v(3)));
            // No two class members interfere.
            let members: Vec<VertexId> = class.iter().copied().collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    assert!(!g.has_edge(a, b));
                }
            }
            // Merging the class keeps the graph k-colorable (and chordal).
            let mut merged = g.clone();
            apply_class(&mut merged, &class);
            assert!(chordal::is_chordal(&merged));
            assert!(greedy::is_greedy_k_colorable(&merged, omega));
        } else {
            panic!("expected a coalescible answer");
        }
    }

    #[test]
    fn non_chordal_input_is_rejected() {
        let c4 = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3)), (v(3), v(0))]);
        assert!(chordal_incremental(&c4, 3, v(0), v(2)).is_none());
    }

    #[test]
    fn k_below_omega_is_rejected() {
        let mut g = Graph::new(3);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        g.add_edge(v(0), v(2));
        let extra = g.add_vertex();
        assert!(chordal_incremental(&g, 2, v(0), extra).is_none());
        assert!(chordal_incremental(&g, 3, v(0), extra).is_some());
    }

    #[test]
    fn larger_k_makes_more_pairs_coalescible() {
        // An odd chain x - a - b - y at omega = 2: with k = omega the two
        // endpoints are forced to different colors; with k = omega + 1 the
        // extra color (short-interval slack in the covering) makes the pair
        // coalescible.
        let g = interval_graph(&[(0, 0), (0, 2), (2, 4), (4, 4)]);
        let omega = chordal::chordal_clique_number(&g).unwrap();
        assert_eq!(omega, 2);
        let tight = chordal_incremental(&g, 2, v(0), v(3)).unwrap();
        let loose = chordal_incremental(&g, 3, v(0), v(3)).unwrap();
        assert_eq!(tight, IncrementalAnswer::NotCoalescible);
        assert!(loose.is_coalescible());
        // Exact agrees on both counts.
        assert!(!incremental_exact(&g, 2, v(0), v(3)).is_coalescible());
        assert!(incremental_exact(&g, 3, v(0), v(3)).is_coalescible());
    }
}
