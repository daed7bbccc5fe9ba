//! The undirected [`Graph`] type and its [`VertexId`] handle.
//!
//! The graph is designed around the needs of register coalescing:
//!
//! * vertices are created up front (one per variable / live range) and keep
//!   **stable identifiers** for their whole life;
//! * coalescing two variables is a vertex **merge** ([`Graph::merge`]): the
//!   second vertex is retired and its edges are folded into the first;
//! * the usual structural queries (degree, neighbors, edge iteration,
//!   induced subgraphs) are available on the *live* part of the graph.
//!
//! # Representation
//!
//! Adjacency is stored CSR-style as one **sorted flat row** (`Vec<VertexId>`)
//! per vertex rather than a `BTreeSet` per vertex: neighbor iteration is a
//! cache-friendly slice scan ([`Graph::neighbor_row`] exposes the row
//! directly), `has_edge` is a binary search (`O(log d)`, no pointer
//! chasing), and bulk construction ([`Graph::from_edges`]) fills, sorts and
//! deduplicates whole rows at once instead of paying a set insertion per
//! edge.  Merging folds the retired row into the surviving one with a
//! single two-pointer union plus one binary-searched splice per incident
//! row, and a union-find alias array ([`Graph::representative`]) keeps
//! resolving retired identifiers to the vertex that absorbed them.

use std::collections::BTreeSet;
use std::fmt;

/// A handle to a vertex of a [`Graph`].
///
/// Identifiers are dense indices assigned in creation order.  They remain
/// valid (as names) after merges, but a merged-away vertex is no longer
/// *live*: structural queries on it panic, mirroring the fact that a
/// coalesced variable no longer exists as a separate entity.
///
/// ```
/// use coalesce_graph::VertexId;
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// let w: VertexId = 3.into();
/// assert_eq!(v, w);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex identifier from a dense index.
    pub fn new(index: usize) -> Self {
        VertexId(u32::try_from(index).expect("vertex index exceeds u32::MAX"))
    }

    /// Returns the dense index of this vertex.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for VertexId {
    fn from(index: usize) -> Self {
        VertexId::new(index)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An undirected graph with stable vertex identifiers and vertex merging.
///
/// Self-loops are rejected (a variable never interferes with itself) and
/// parallel edges are collapsed.  Adjacency is one sorted flat row per
/// vertex, so `has_edge` is a binary search over the smaller endpoint's row
/// (`O(log d)`), neighbor iteration is a contiguous slice scan, and merging
/// two vertices is a sorted-row union: `O(d_from + d_into)` for the union
/// itself plus one binary-searched splice in each row incident to the
/// retired vertex.
///
/// ```
/// use coalesce_graph::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// assert_eq!(g.degree(1.into()), 2);
/// assert!(g.has_edge(0.into(), 1.into()));
/// assert!(!g.has_edge(0.into(), 2.into()));
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    /// Sorted neighbor row per vertex (empty for retired vertices).
    adj: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    /// Union-find alias forest over merges: `alias[i]` steps from a retired
    /// vertex toward the vertex that absorbed it (identity for live or
    /// removed vertices).
    alias: Vec<u32>,
    num_live: usize,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices, numbered `0..n`.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            alias: (0..n).map(|i| i as u32).collect(),
            num_live: n,
            num_edges: 0,
        }
    }

    /// Creates a graph with `n` vertices and the given edges.
    ///
    /// Routes through the bulk [`Graph::from_edges`] construction, so large
    /// edge lists do not pay a per-edge sorted insertion.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop is given.
    pub fn with_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        Self::from_edges(n, edges)
    }

    /// Bulk-builds a graph with `n` vertices from an edge list (duplicate
    /// edges are collapsed).  The rows are counted, filled, sorted and
    /// deduplicated wholesale — `O(m log d)` with flat-array constants —
    /// instead of one ordered insertion per edge, which is what makes
    /// multi-million-edge interval instances cheap to construct.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop is given.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let edges: Vec<(VertexId, VertexId)> = edges.into_iter().collect();
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            assert!(
                u.index() < n && v.index() < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            assert_ne!(u, v, "self-loops are not allowed");
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut adj: Vec<Vec<VertexId>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(u, v) in &edges {
            adj[u.index()].push(v);
            adj[v.index()].push(u);
        }
        let mut num_edges = 0usize;
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
            num_edges += row.len();
        }
        Graph {
            adj,
            alive: vec![true; n],
            alias: (0..n).map(|i| i as u32).collect(),
            num_live: n,
            num_edges: num_edges / 2,
        }
    }

    /// Adds a fresh isolated vertex and returns its identifier.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::new(self.adj.len());
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.alias.push(id.0);
        self.num_live += 1;
        id
    }

    /// Total number of vertex identifiers ever created (live or retired).
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of live vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_live
    }

    /// Number of edges between live vertices.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns `true` if `v` names a live (non-merged, non-removed) vertex.
    pub fn is_live(&self, v: VertexId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    fn assert_live(&self, v: VertexId) {
        assert!(
            self.is_live(v),
            "vertex {v} is not live (merged away, removed, or out of range)"
        );
    }

    /// Inserts `v` into a sorted row unless present; returns `true` if new.
    /// Appends without a search when `v` belongs at the end (the common
    /// case for construction in ascending order).
    fn row_insert(row: &mut Vec<VertexId>, v: VertexId) -> bool {
        match row.last() {
            Some(&last) if last < v => {
                row.push(v);
                true
            }
            Some(&last) if last == v => false,
            _ => match row.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    row.insert(pos, v);
                    true
                }
            },
        }
    }

    /// Removes `v` from a sorted row if present; returns `true` if removed.
    fn row_remove(row: &mut Vec<VertexId>, v: VertexId) -> bool {
        match row.binary_search(&v) {
            Ok(pos) => {
                row.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Adds the undirected edge `(u, v)`.  Returns `true` if the edge is new.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not live or if `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.assert_live(u);
        self.assert_live(v);
        assert_ne!(u, v, "self-loops are not allowed");
        let added = Self::row_insert(&mut self.adj[u.index()], v);
        if added {
            Self::row_insert(&mut self.adj[v.index()], u);
            self.num_edges += 1;
        }
        added
    }

    /// Removes the undirected edge `(u, v)` if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.assert_live(u);
        self.assert_live(v);
        let removed = Self::row_remove(&mut self.adj[u.index()], v);
        if removed {
            Self::row_remove(&mut self.adj[v.index()], u);
            self.num_edges -= 1;
        }
        removed
    }

    /// Returns `true` if the edge `(u, v)` is present between two live
    /// vertices.  `O(log d)`: a binary search over the sparser endpoint's
    /// row.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        let (row, target) = if self.adj[u.index()].len() <= self.adj[v.index()].len() {
            (&self.adj[u.index()], v)
        } else {
            (&self.adj[v.index()], u)
        };
        row.binary_search(&target).is_ok()
    }

    /// Degree of a live vertex.
    pub fn degree(&self, v: VertexId) -> usize {
        self.assert_live(v);
        self.adj[v.index()].len()
    }

    /// Iterates over the neighbors of a live vertex, in ascending order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.assert_live(v);
        self.adj[v.index()].iter().copied()
    }

    /// The neighbor row of a live vertex as a borrowed sorted slice — the
    /// zero-copy view the hot loops (MCS sweeps, interference scans) use.
    pub fn neighbor_row(&self, v: VertexId) -> &[VertexId] {
        self.assert_live(v);
        &self.adj[v.index()]
    }

    /// Iterates over the live vertices in increasing identifier order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| VertexId::new(i))
    }

    /// Iterates over the edges `(u, v)` with `u < v`, between live vertices.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.adj[u.index()]
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Removes a live vertex and all its incident edges.
    pub fn remove_vertex(&mut self, v: VertexId) {
        self.assert_live(v);
        let nbrs = std::mem::take(&mut self.adj[v.index()]);
        for u in nbrs {
            Self::row_remove(&mut self.adj[u.index()], v);
            self.num_edges -= 1;
        }
        self.alive[v.index()] = false;
        self.num_live -= 1;
    }

    /// Merges vertex `from` into vertex `into` (contraction).
    ///
    /// All edges incident to `from` are transferred to `into`; `from` is
    /// retired.  This is exactly the effect of coalescing the two variables.
    /// The surviving row is the two-pointer union of the two sorted rows;
    /// each neighbor of `from` pays one binary-searched splice to swap
    /// `from` for `into` in its own row, and the alias forest records
    /// `from → into` so [`Graph::representative`] keeps resolving the
    /// retired identifier.
    ///
    /// # Panics
    ///
    /// Panics if the two vertices are adjacent (interfering variables cannot
    /// be coalesced), if either is not live, or if `from == into`.
    pub fn merge(&mut self, into: VertexId, from: VertexId) {
        self.assert_live(into);
        self.assert_live(from);
        assert_ne!(into, from, "cannot merge a vertex with itself");
        assert!(
            !self.has_edge(into, from),
            "cannot merge adjacent (interfering) vertices {into} and {from}"
        );
        let from_row = std::mem::take(&mut self.adj[from.index()]);
        self.num_edges -= from_row.len();
        for &u in &from_row {
            Self::row_remove(&mut self.adj[u.index()], from);
        }
        let into_row = std::mem::take(&mut self.adj[into.index()]);
        let mut merged: Vec<VertexId> = Vec::with_capacity(into_row.len() + from_row.len());
        let (mut i, mut j) = (0, 0);
        while i < into_row.len() || j < from_row.len() {
            let next = match (into_row.get(i), from_row.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    // Neighbor of both: the edge already exists.
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(_), Some(&b)) | (None, Some(&b)) => {
                    // Neighbor of `from` only: transfer the edge.
                    j += 1;
                    Self::row_insert(&mut self.adj[b.index()], into);
                    self.num_edges += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, None) => unreachable!(),
            };
            merged.push(next);
        }
        self.adj[into.index()] = merged;
        self.alive[from.index()] = false;
        self.alias[from.index()] = into.0;
        self.num_live -= 1;
    }

    /// Resolves a (possibly retired) identifier through the merge aliases to
    /// the vertex that currently carries its edges: the identity for a
    /// vertex that was never merged away, otherwise the representative the
    /// chain of [`Graph::merge`] calls folded it into.
    ///
    /// ```
    /// use coalesce_graph::Graph;
    /// let mut g = Graph::new(3);
    /// g.merge(0.into(), 2.into());
    /// g.merge(1.into(), 0.into());
    /// assert_eq!(g.representative(2.into()), 1.into());
    /// ```
    pub fn representative(&self, v: VertexId) -> VertexId {
        let mut cur = v.index();
        while self.alias[cur] as usize != cur {
            cur = self.alias[cur] as usize;
        }
        VertexId::new(cur)
    }

    /// Returns the subgraph induced by `keep`, together with the mapping
    /// from new (dense) vertex identifiers back to the original ones.
    ///
    /// Vertices in `keep` that are not live are ignored.
    pub fn induced_subgraph(&self, keep: &BTreeSet<VertexId>) -> (Graph, Vec<VertexId>) {
        let originals: Vec<VertexId> = self.vertices().filter(|v| keep.contains(v)).collect();
        let mut index_of = vec![usize::MAX; self.capacity()];
        for (i, &v) in originals.iter().enumerate() {
            index_of[v.index()] = i;
        }
        let mut sub = Graph::new(originals.len());
        for (i, &v) in originals.iter().enumerate() {
            for u in self.neighbors(v) {
                let j = index_of[u.index()];
                if j != usize::MAX && j > i {
                    sub.add_edge(VertexId::new(i), VertexId::new(j));
                }
            }
        }
        (sub, originals)
    }

    /// Returns a dense copy of the live part of the graph: vertices are
    /// renumbered `0..num_vertices()` in increasing original-identifier
    /// order.  Also returns the original identifier of each new vertex.
    pub fn compact(&self) -> (Graph, Vec<VertexId>) {
        let keep: BTreeSet<VertexId> = self.vertices().collect();
        self.induced_subgraph(&keep)
    }

    /// Maximum degree over live vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Returns the complement graph restricted to live vertices, using the
    /// same identifiers (retired identifiers stay retired).
    pub fn complement(&self) -> Graph {
        let mut g = Graph {
            adj: vec![Vec::new(); self.capacity()],
            alive: self.alive.clone(),
            alias: self.alias.clone(),
            num_live: self.num_live,
            num_edges: 0,
        };
        let verts: Vec<VertexId> = self.vertices().collect();
        for (i, &u) in verts.iter().enumerate() {
            for &v in &verts[i + 1..] {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Returns the connected components of the live part of the graph.
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let mut seen = vec![false; self.capacity()];
        let mut comps = Vec::new();
        for start in self.vertices() {
            if seen[start.index()] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start.index()] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for u in self.neighbors(v) {
                    if !seen[u.index()] {
                        seen[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
            comp.sort();
            comps.push(comp);
        }
        comps
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({} vertices, {} edges: ",
            self.num_vertices(),
            self.num_edges()
        )?;
        let mut first = true;
        for (u, v) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::with_edges(n, (1..n).map(|i| (VertexId::new(i - 1), VertexId::new(i))))
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut g = Graph::new(2);
        assert!(g.add_edge(0.into(), 1.into()));
        assert!(!g.add_edge(1.into(), 0.into()));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(1);
        g.add_edge(0.into(), 0.into());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn bulk_self_loop_panics() {
        Graph::from_edges(2, [(VertexId::new(1), VertexId::new(1))]);
    }

    #[test]
    fn bulk_construction_collapses_duplicates() {
        let g = Graph::from_edges(
            3,
            [
                (VertexId::new(0), VertexId::new(1)),
                (VertexId::new(1), VertexId::new(0)),
                (VertexId::new(2), VertexId::new(1)),
                (VertexId::new(0), VertexId::new(1)),
            ],
        );
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1.into()), 2);
        let nbrs: Vec<_> = g.neighbors(1.into()).collect();
        assert_eq!(nbrs, vec![VertexId::new(0), VertexId::new(2)]);
    }

    #[test]
    fn degree_and_neighbors() {
        let g = path(4);
        assert_eq!(g.degree(0.into()), 1);
        assert_eq!(g.degree(1.into()), 2);
        let nbrs: Vec<_> = g.neighbors(1.into()).collect();
        assert_eq!(nbrs, vec![VertexId::new(0), VertexId::new(2)]);
        assert_eq!(g.neighbor_row(1.into()), &nbrs[..]);
    }

    #[test]
    fn neighbor_rows_stay_sorted_under_unordered_insertion() {
        let mut g = Graph::new(5);
        for u in [3usize, 1, 4, 2] {
            g.add_edge(0.into(), u.into());
        }
        assert_eq!(
            g.neighbor_row(0.into()),
            &[1.into(), 2.into(), 3.into(), 4.into()]
        );
    }

    #[test]
    fn remove_edge_updates_counts() {
        let mut g = path(3);
        assert!(g.remove_edge(0.into(), 1.into()));
        assert!(!g.remove_edge(0.into(), 1.into()));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0.into(), 1.into()));
    }

    #[test]
    fn remove_vertex_drops_incident_edges() {
        let mut g = path(3);
        g.remove_vertex(1.into());
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_live(1.into()));
    }

    #[test]
    fn merge_transfers_edges() {
        // 0-1, 2-3 ; merging 0 and 2 gives a vertex adjacent to 1 and 3.
        let mut g = Graph::with_edges(4, [(0.into(), 1.into()), (2.into(), 3.into())]);
        g.merge(0.into(), 2.into());
        assert!(g.has_edge(0.into(), 1.into()));
        assert!(g.has_edge(0.into(), 3.into()));
        assert!(!g.is_live(2.into()));
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn merge_collapses_parallel_edges() {
        // 0-1 and 2-1: merging 0,2 must keep a single edge to 1.
        let mut g = Graph::with_edges(3, [(0.into(), 1.into()), (2.into(), 1.into())]);
        g.merge(0.into(), 2.into());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1.into()), 1);
    }

    #[test]
    fn merge_keeps_rows_sorted() {
        // Interleaved neighborhoods: the union must come out sorted.
        let mut g = Graph::with_edges(
            7,
            [
                (0.into(), 2.into()),
                (0.into(), 5.into()),
                (1.into(), 3.into()),
                (1.into(), 4.into()),
                (1.into(), 6.into()),
            ],
        );
        g.merge(0.into(), 1.into());
        assert_eq!(
            g.neighbor_row(0.into()),
            &[2.into(), 3.into(), 4.into(), 5.into(), 6.into()]
        );
        for u in [2usize, 3, 4, 5, 6] {
            assert!(g.has_edge(0.into(), u.into()));
            assert_eq!(g.neighbor_row(u.into()), &[0.into()]);
        }
    }

    #[test]
    #[should_panic(expected = "interfering")]
    fn merge_adjacent_panics() {
        let mut g = Graph::with_edges(2, [(0.into(), 1.into())]);
        g.merge(0.into(), 1.into());
    }

    #[test]
    fn representative_follows_merge_chains() {
        let mut g = Graph::new(4);
        assert_eq!(g.representative(3.into()), 3.into());
        g.merge(0.into(), 2.into());
        g.merge(1.into(), 0.into());
        assert_eq!(g.representative(2.into()), 1.into());
        assert_eq!(g.representative(0.into()), 1.into());
        assert_eq!(g.representative(1.into()), 1.into());
        assert_eq!(g.representative(3.into()), 3.into());
    }

    #[test]
    fn induced_subgraph_maps_back() {
        let g = path(5);
        let keep: BTreeSet<VertexId> = [0usize, 1, 3].into_iter().map(VertexId::new).collect();
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 1); // only 0-1 survives
        assert_eq!(
            map,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(3)]
        );
    }

    #[test]
    fn complement_of_path() {
        let g = path(3);
        let c = g.complement();
        assert_eq!(c.num_edges(), 1);
        assert!(c.has_edge(0.into(), 2.into()));
    }

    #[test]
    fn connected_components_of_two_paths() {
        let mut g = path(3);
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, b);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut g = path(4);
        g.remove_vertex(1.into());
        let (c, map) = g.compact();
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(map.len(), 3);
        // Only edge 2-3 survives, mapped to dense ids 1-2.
        assert_eq!(c.num_edges(), 1);
        assert!(c.has_edge(1.into(), 2.into()));
    }
}
