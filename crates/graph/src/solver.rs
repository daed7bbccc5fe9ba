//! The exact-decision engine behind every exponential query in the
//! workspace: [`ExactSolver`] answers "is there a proper `k`-coloring of
//! `G`, optionally with same-color constraints?" and produces a witness
//! coloring.
//!
//! The naive backtracker the repository started with explored the whole
//! graph at once and re-derived the same dead ends over and over; on the
//! Theorem 4 reduction graphs (~90 vertices, `k = 3`) a single query took
//! tens of seconds.  This solver layers five classical prunings on top of
//! DSATUR-ordered backtracking:
//!
//! 1. **Connected-component decomposition** — after the same-color pairs
//!    are contracted, each component is colored independently, so the
//!    search cost is exponential in the largest component instead of the
//!    whole graph.
//! 2. **Clique-based lower-bound pruning** — a greedily grown maximal
//!    clique of each component rejects the query outright when the clique
//!    exceeds `k`.
//! 3. **Clique seeding** — the vertices of that clique are pre-assigned
//!    the distinct colors `0..c`, which is a valid symmetry reduction
//!    (every proper coloring is color-permutation-equivalent to one that
//!    extends the seed) and anchors the saturation counters immediately.
//! 4. **Fresh-color symmetry breaking** — at every branch the candidate
//!    colors are the colors currently *in use* plus at most one fresh one
//!    (all unused colors are interchangeable).
//! 5. **A transposition table over canonical residual subproblems** — the
//!    extendability of a partial proper coloring depends only on which
//!    vertices remain uncolored, on the *frontier* of every color class
//!    in use (the set of uncolored vertices it forbids), and on how many
//!    fresh colors remain.  Failed residuals are memoized as sorted
//!    frontier bitsets, so a dead end reached again through a different
//!    assignment order — or through a different coloring of the finished
//!    region with the same frontier — is cut immediately.
//!
//! Every query records [`SolverStats`] (nodes expanded, prunes, memo
//! hits), which the experiment reports surface.

use crate::coloring::Coloring;
use crate::graph::{Graph, VertexId};
use std::collections::HashSet;

/// Maximum number of memoized dead ends kept per component search; once
/// the table is full, further dead ends are no longer recorded (lookups
/// continue).  Bounds memory on adversarial instances.
const MEMO_CAPACITY: usize = 1 << 20;

/// Instrumentation counters accumulated over the queries run by one
/// [`ExactSolver`].  `reset` with [`ExactSolver::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Search-tree nodes expanded (one per vertex-selection step).
    pub nodes_expanded: u64,
    /// Branches cut because a vertex had no admissible color.
    pub saturation_prunes: u64,
    /// Components rejected by the clique lower bound without any search.
    pub clique_prunes: u64,
    /// Dead ends answered from the transposition table.
    pub memo_hits: u64,
    /// Dead ends recorded into the transposition table.
    pub memo_entries: u64,
    /// Connected components solved by backtracking (trivial components
    /// short-circuited by `k >= n` count too).
    pub components_solved: u64,
}

impl SolverStats {
    fn absorb(&mut self, other: &SolverStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.saturation_prunes += other.saturation_prunes;
        self.clique_prunes += other.clique_prunes;
        self.memo_hits += other.memo_hits;
        self.memo_entries += other.memo_entries;
        self.components_solved += other.components_solved;
    }
}

/// The exact `k`-coloring decision engine.  See the module documentation
/// for the pruning arsenal.
///
/// ```
/// use coalesce_graph::{Graph, solver::ExactSolver};
///
/// let mut g = Graph::new(4);
/// for i in 0..4usize {
///     for j in i + 1..4 {
///         g.add_edge(i.into(), j.into());
///     }
/// }
/// let mut solver = ExactSolver::new();
/// assert!(solver.k_coloring(&g, 3, &[]).is_none());
/// assert!(solver.k_coloring(&g, 4, &[]).is_some());
/// assert!(solver.stats().clique_prunes >= 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    stats: SolverStats,
}

impl ExactSolver {
    /// Creates a solver with zeroed counters.
    pub fn new() -> Self {
        ExactSolver::default()
    }

    /// The counters accumulated since construction or the last
    /// [`ExactSolver::take_stats`].
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take_stats(&mut self) -> SolverStats {
        std::mem::take(&mut self.stats)
    }

    /// Finds a proper `k`-coloring of the live part of `g` in which every
    /// pair of `same_color` receives equal colors, or proves none exists.
    ///
    /// Pairs are contracted up front (transitively, via union-find); a
    /// pair whose classes interfere makes the query trivially infeasible.
    pub fn k_coloring(
        &mut self,
        g: &Graph,
        k: usize,
        same_color: &[(VertexId, VertexId)],
    ) -> Option<Coloring> {
        // Contract the same-color pairs on a scratch copy.
        let mut scratch = g.clone();
        let mut dsu = crate::dsu::DisjointSets::new(g.capacity());
        for &(x, y) in same_color {
            let rx = VertexId::new(dsu.find(x.index()));
            let ry = VertexId::new(dsu.find(y.index()));
            if rx == ry {
                continue;
            }
            if scratch.has_edge(rx, ry) {
                return None;
            }
            scratch.merge(rx, ry);
            dsu.union_into(rx.index(), ry.index());
        }

        let (dense, originals) = scratch.compact();
        let coloring = self.solve_dense(&dense, k)?;

        // Map colors back to every original vertex through its
        // representative.
        let mut rep_color = vec![None; g.capacity()];
        for (i, &orig) in originals.iter().enumerate() {
            rep_color[orig.index()] = coloring.color_of(VertexId::new(i));
        }
        let mut result = Coloring::new(g.capacity());
        for v in g.vertices() {
            let rep = dsu.find(v.index());
            if let Some(c) = rep_color[rep] {
                result.assign(v, c);
            }
        }
        Some(result)
    }

    /// Returns `true` iff the live part of `g` admits a proper
    /// `k`-coloring.
    pub fn is_k_colorable(&mut self, g: &Graph, k: usize) -> bool {
        self.k_coloring(g, k, &[]).is_some()
    }

    /// Exact chromatic number of the live part of `g`: searches upward
    /// from the greedy-clique lower bound to the DSATUR upper bound.
    pub fn chromatic_number(&mut self, g: &Graph) -> usize {
        if g.num_vertices() == 0 {
            return 0;
        }
        let (dense, _) = g.compact();
        let upper = crate::coloring::dsatur(&dense).max_color_bound();
        let adj = dense_adjacency(&dense);
        let lower = greedy_clique(&adj).len().max(1);
        for k in lower..upper {
            if self.solve_dense(&dense, k).is_some() {
                return k;
            }
        }
        upper
    }

    /// Colors a dense graph (identifiers `0..n`, no retired vertices),
    /// one connected component at a time.
    fn solve_dense(&mut self, dense: &Graph, k: usize) -> Option<Coloring> {
        let n = dense.num_vertices();
        if n == 0 {
            return Some(Coloring::new(0));
        }
        if k == 0 {
            return None;
        }
        // Report search effort to the per-pass sink as deltas, so nested
        // queries on one solver are counted exactly once.
        let before = self.stats;
        let result = self.solve_dense_inner(dense, k);
        coalesce_stats::counter!(
            "solver.nodes",
            self.stats.nodes_expanded - before.nodes_expanded
        );
        coalesce_stats::counter!("solver.memo_hits", self.stats.memo_hits - before.memo_hits);
        result
    }

    fn solve_dense_inner(&mut self, dense: &Graph, k: usize) -> Option<Coloring> {
        let n = dense.num_vertices();
        let mut coloring = Coloring::new(n);
        for comp in dense.connected_components() {
            // Component-local dense subgraph; `locals[i]` is the dense id
            // of local vertex `i`.
            let keep = comp.iter().copied().collect();
            let (sub, locals) = dense.induced_subgraph(&keep);
            let local_colors = self.solve_component(&sub, k)?;
            for (i, &orig) in locals.iter().enumerate() {
                coloring.assign(orig, local_colors[i]);
            }
        }
        Some(coloring)
    }

    /// Colors one connected dense component, or proves it impossible.
    fn solve_component(&mut self, sub: &Graph, k: usize) -> Option<Vec<usize>> {
        let n = sub.num_vertices();
        self.stats.components_solved += 1;
        if k >= n {
            // Distinct colors always work; skip the search entirely.
            return Some((0..n).collect());
        }
        let adj = dense_adjacency(sub);

        let clique = greedy_clique(&adj);
        if clique.len() > k {
            self.stats.clique_prunes += 1;
            return None;
        }
        let mut colors: Vec<Option<u32>> = vec![None; n];
        for (c, &v) in clique.iter().enumerate() {
            colors[v] = Some(c as u32);
        }
        let assigned = clique.len();

        // Register the seed assignment in the counters before the search
        // takes ownership of them.
        // nbr_color_count[v][c] = colored neighbors of v with color c.
        let mut nbr_color_count = vec![vec![0u32; k]; n];
        let mut sat_count = vec![0u32; n];
        let mut color_usage = vec![0u32; k];
        for (v, color) in colors.iter().enumerate() {
            if let Some(c) = *color {
                color_usage[c as usize] += 1;
                for &u in &adj[v] {
                    let slot = &mut nbr_color_count[u as usize][c as usize];
                    *slot += 1;
                    if *slot == 1 {
                        sat_count[u as usize] += 1;
                    }
                }
            }
        }

        let mut search = Search {
            adj: &adj,
            k,
            colors,
            nbr_color_count,
            sat_count,
            color_usage,
            memo: HashSet::new(),
            stats: SolverStats::default(),
        };
        let ok = search.backtrack(assigned);
        self.stats.absorb(&search.stats);
        ok.then(|| {
            search
                .colors
                .iter()
                .map(|c| c.expect("all vertices colored") as usize)
                .collect()
        })
    }
}

/// Adjacency lists of a dense graph as flat `u32` vectors, the hot-path
/// representation the search iterates over.
fn dense_adjacency(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.num_vertices();
    let mut adj = vec![Vec::new(); n];
    for (u, v) in g.edges() {
        adj[u.index()].push(v.index() as u32);
        adj[v.index()].push(u.index() as u32);
    }
    adj
}

/// Grows a maximal clique greedily from the highest-degree vertex:
/// vertices are scanned in decreasing degree order and added when adjacent
/// to every member so far.  Deterministic; linear-ish; a valid lower bound
/// for the chromatic number.
fn greedy_clique(adj: &[Vec<u32>]) -> Vec<usize> {
    let n = adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(adj[v].len()), v));
    let mut clique: Vec<usize> = Vec::new();
    // adjacent_count[v] = members of the clique adjacent to v.
    let mut adjacent_count = vec![0usize; n];
    for v in order {
        if adjacent_count[v] == clique.len() {
            clique.push(v);
            for &u in &adj[v] {
                adjacent_count[u as usize] += 1;
            }
        }
    }
    clique
}

/// The in-flight state of one component search.
struct Search<'a> {
    adj: &'a [Vec<u32>],
    k: usize,
    colors: Vec<Option<u32>>,
    nbr_color_count: Vec<Vec<u32>>,
    sat_count: Vec<u32>,
    color_usage: Vec<u32>,
    memo: HashSet<Box<[u64]>>,
    stats: SolverStats,
}

impl Search<'_> {
    fn bump(&mut self, u: usize, c: usize) {
        let slot = &mut self.nbr_color_count[u][c];
        *slot += 1;
        if *slot == 1 {
            self.sat_count[u] += 1;
        }
    }

    fn unbump(&mut self, u: usize, c: usize) {
        let slot = &mut self.nbr_color_count[u][c];
        *slot -= 1;
        if *slot == 0 {
            self.sat_count[u] -= 1;
        }
    }

    /// Canonical key of the *residual subproblem* left by the current
    /// partial assignment.  Extendability depends only on
    ///
    /// * which vertices are still uncolored (the induced subgraph on them
    ///   is fixed by the input graph),
    /// * for each color class in use, *which uncolored vertices it
    ///   forbids* (its colored members interact with the rest of the
    ///   search only through that frontier), and
    /// * how many classes are in use (fresh colors left: `k - used`).
    ///
    /// The key is the uncolored bitset followed by the per-class
    /// forbidden-frontier bitsets in sorted order, so color permutations
    /// — and even *different* colorings of the finished region with the
    /// same frontier — collide, which is exactly what makes transposition
    /// hits possible.
    fn canonical_key(&self) -> Box<[u64]> {
        let n = self.colors.len();
        let words = n.div_ceil(64);
        let mut uncolored = vec![0u64; words];
        for (v, color) in self.colors.iter().enumerate() {
            if color.is_none() {
                uncolored[v / 64] |= 1u64 << (v % 64);
            }
        }
        let mut frontiers: Vec<Vec<u64>> = Vec::new();
        for c in 0..self.k {
            if self.color_usage[c] == 0 {
                continue;
            }
            let mut frontier = vec![0u64; words];
            for v in 0..n {
                if self.colors[v].is_none() && self.nbr_color_count[v][c] > 0 {
                    frontier[v / 64] |= 1u64 << (v % 64);
                }
            }
            frontiers.push(frontier);
        }
        frontiers.sort_unstable();
        let mut key = uncolored;
        key.extend(frontiers.into_iter().flatten());
        key.into_boxed_slice()
    }

    fn backtrack(&mut self, assigned: usize) -> bool {
        let n = self.colors.len();
        if assigned == n {
            return true;
        }
        self.stats.nodes_expanded += 1;

        let memo_key = if assigned > 0 {
            let key = self.canonical_key();
            if self.memo.contains(&key) {
                self.stats.memo_hits += 1;
                return false;
            }
            Some(key)
        } else {
            None
        };

        // DSATUR selection: uncolored vertex with the most distinctly
        // colored neighbors, ties by degree, then index (determinism).
        let mut best = usize::MAX;
        let mut best_rank = (0u32, 0usize);
        for v in 0..n {
            if self.colors[v].is_some() {
                continue;
            }
            let rank = (self.sat_count[v], self.adj[v].len());
            if best == usize::MAX || rank > best_rank {
                best = v;
                best_rank = rank;
            }
        }
        let v = best;

        if (self.sat_count[v] as usize) < self.k {
            // Candidate colors: every color in use, plus the first unused
            // one (all unused colors are interchangeable).
            let mut fresh_tried = false;
            for c in 0..self.k {
                if self.color_usage[c] == 0 {
                    if fresh_tried {
                        continue;
                    }
                    fresh_tried = true;
                }
                if self.nbr_color_count[v][c] > 0 {
                    continue;
                }
                self.colors[v] = Some(c as u32);
                self.color_usage[c] += 1;
                for i in 0..self.adj[v].len() {
                    let u = self.adj[v][i] as usize;
                    self.bump(u, c);
                }
                if self.backtrack(assigned + 1) {
                    return true;
                }
                self.colors[v] = None;
                self.color_usage[c] -= 1;
                for i in 0..self.adj[v].len() {
                    let u = self.adj[v][i] as usize;
                    self.unbump(u, c);
                }
            }
        } else {
            self.stats.saturation_prunes += 1;
        }

        if let Some(key) = memo_key {
            if self.memo.len() < MEMO_CAPACITY {
                self.memo.insert(key);
                self.stats.memo_entries += 1;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed repository's brute-force exact solver, kept verbatim as a
    /// cross-validation oracle: plain backtracking in vertex order, no
    /// decomposition, no memoization, only the trivial `max_used + 2`
    /// symmetry bound.
    pub(crate) fn oracle_k_coloring(g: &Graph, k: usize) -> bool {
        fn go(
            g: &Graph,
            k: usize,
            colors: &mut Vec<Option<usize>>,
            v: usize,
            max_used: usize,
        ) -> bool {
            let n = colors.len();
            if v == n {
                return true;
            }
            let limit = k.min(max_used + 2);
            for c in 0..limit {
                let vid = VertexId::new(v);
                if g.neighbors(vid).any(|u| colors[u.index()] == Some(c)) {
                    continue;
                }
                colors[v] = Some(c);
                if go(g, k, colors, v + 1, max_used.max(c)) {
                    return true;
                }
                colors[v] = None;
            }
            false
        }
        let (dense, _) = g.compact();
        let n = dense.num_vertices();
        if n == 0 {
            return true;
        }
        if k == 0 {
            return false;
        }
        go(&dense, k, &mut vec![None; n], 0, 0)
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

    fn cycle(n: usize) -> Graph {
        Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        )
    }

    /// Deterministic pseudo-random graph without pulling in the gen crate
    /// (which would be a dependency cycle): SplitMix64-driven G(n, p).
    fn scrambled_graph(n: usize, density_pct: u64, seed: u64) -> Graph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if next() % 100 < density_pct {
                    g.add_edge(i.into(), j.into());
                }
            }
        }
        g
    }

    #[test]
    fn clique_needs_exactly_n_colors() {
        let g = complete(5);
        let mut s = ExactSolver::new();
        assert!(s.k_coloring(&g, 4, &[]).is_none());
        let c = s.k_coloring(&g, 5, &[]).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(s.chromatic_number(&g), 5);
        assert!(s.stats().clique_prunes >= 1);
    }

    #[test]
    fn components_are_colored_independently() {
        // Two disjoint triangles: the clique seed and decomposition solve
        // each component without global branching.
        let mut g = complete(3);
        let offset = g.capacity();
        for _ in 0..3 {
            g.add_vertex();
        }
        for i in 0..3usize {
            for j in i + 1..3 {
                g.add_edge((offset + i).into(), (offset + j).into());
            }
        }
        let mut s = ExactSolver::new();
        let c = s.k_coloring(&g, 3, &[]).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(s.stats().components_solved, 2);
    }

    #[test]
    fn same_color_constraints_contract_transitively() {
        let g = Graph::new(5);
        let mut s = ExactSolver::new();
        let c = s
            .k_coloring(&g, 1, &[(0.into(), 1.into()), (1.into(), 2.into())])
            .unwrap();
        assert_eq!(c.color_of(0.into()), c.color_of(2.into()));
    }

    #[test]
    fn interfering_same_color_pair_is_infeasible() {
        let g = Graph::with_edges(2, [(0.into(), 1.into())]);
        let mut s = ExactSolver::new();
        assert!(s.k_coloring(&g, 5, &[(0.into(), 1.into())]).is_none());
    }

    #[test]
    fn odd_cycles_against_the_oracle() {
        let mut s = ExactSolver::new();
        for n in [5usize, 7, 9] {
            let g = cycle(n);
            for k in 1..=4usize {
                assert_eq!(
                    s.is_k_colorable(&g, k),
                    oracle_k_coloring(&g, k),
                    "C_{n} with k = {k}"
                );
            }
        }
    }

    #[test]
    fn random_graphs_agree_with_the_oracle_for_every_config() {
        for seed in 0..40u64 {
            let n = 4 + (seed % 6) as usize;
            let g = scrambled_graph(n, 30 + (seed % 5) * 15, seed);
            for k in 1..=4usize {
                let got = ExactSolver::new().k_coloring(&g, k, &[]);
                assert_eq!(
                    got.is_some(),
                    oracle_k_coloring(&g, k),
                    "seed {seed} n {n} k {k}"
                );
                if let Some(c) = got {
                    assert!(c.is_proper(&g));
                }
            }
        }
    }

    #[test]
    fn witness_colorings_respect_retired_vertices() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        g.remove_vertex(2.into());
        let mut s = ExactSolver::new();
        let c = s.k_coloring(&g, 2, &[]).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.color_of(2.into()), None);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut s = ExactSolver::new();
        s.is_k_colorable(&cycle(7), 3);
        assert!(s.stats().nodes_expanded > 0);
        let taken = s.take_stats();
        assert!(taken.nodes_expanded > 0);
        assert_eq!(*s.stats(), SolverStats::default());
    }

    #[test]
    fn memoization_prunes_repeated_dead_ends() {
        // The Mycielski graph M5 (23 vertices, chromatic number 5,
        // triangle-free): the `k = 4` refutation branches enough that
        // distinct colorings of finished regions leave identical residual
        // subproblems, which is exactly what the table catches.
        let mut g = Graph::with_edges(2, [(VertexId::new(0), VertexId::new(1))]);
        for _ in 0..3 {
            let n = g.capacity();
            for _ in 0..n + 1 {
                g.add_vertex();
            }
            let edges: Vec<_> = g
                .edges()
                .filter(|&(u, v)| u.index() < n && v.index() < n)
                .collect();
            for (u, v) in edges {
                g.add_edge(VertexId::new(n + u.index()), v);
                g.add_edge(u, VertexId::new(n + v.index()));
            }
            for i in 0..n {
                g.add_edge(VertexId::new(2 * n), VertexId::new(n + i));
            }
        }
        let mut memoized = ExactSolver::new();
        assert!(!memoized.is_k_colorable(&g, 4));
        assert!(memoized.stats().memo_hits > 0, "{:?}", memoized.stats());
    }

    #[test]
    fn chromatic_numbers_match_known_values() {
        let mut s = ExactSolver::new();
        assert_eq!(s.chromatic_number(&Graph::new(0)), 0);
        assert_eq!(s.chromatic_number(&Graph::new(3)), 1);
        assert_eq!(s.chromatic_number(&cycle(6)), 2);
        assert_eq!(s.chromatic_number(&cycle(7)), 3);
        assert_eq!(s.chromatic_number(&complete(4)), 4);
    }
}
