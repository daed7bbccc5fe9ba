//! Clique trees of chordal graphs.
//!
//! A chordal graph is the intersection graph of a family of subtrees of a
//! tree (Golumbic, Thm 4.8 — the characterisation invoked in the proofs of
//! Theorem 1 and Theorem 5 of the paper).  The canonical such tree is the
//! *clique tree*: its nodes are the maximal cliques of the graph and, for
//! every vertex `v`, the set of nodes whose clique contains `v` induces a
//! connected subtree (the *induced-subtree* or *junction* property).
//!
//! Theorem 5's polynomial incremental conservative coalescing algorithm
//! works on a path of this tree; [`CliqueTree::path_between`] provides it.

use crate::chordal::CliqueForest;
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// A clique tree of a chordal graph.
///
/// Nodes are indexed `0..num_nodes()`; each node carries a maximal clique of
/// the underlying graph.  For a disconnected chordal graph the components'
/// clique trees are stitched together with (empty-intersection) edges so the
/// structure is always a single tree, which keeps path queries total; the
/// induced-subtree property per vertex is unaffected because a vertex only
/// appears in cliques of its own component.
///
/// Everything is stored flat: the cliques back to back, the tree adjacency
/// and the vertex→node index as CSR arrays.  [`CliqueTree::rebuild`]
/// refills them in place, so rebuilding over graphs of a size seen before
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CliqueTree {
    /// The sweep's cliques and parent links (plus its reusable scratch).
    /// The tree is rooted at node 0: every other node's parent has a
    /// smaller index.
    forest: CliqueForest,
    /// Depth of each node below node 0.
    depth: Vec<usize>,
    /// Tree neighbors of node `i`: `adjacency[adjacency_start[i]..adjacency_start[i + 1]]`,
    /// its parent first, then its children in ascending order.
    adjacency_start: Vec<usize>,
    adjacency: Vec<usize>,
    /// For each vertex index, the (ascending) tree nodes whose clique
    /// contains it — the subtree `T_v`, precomputed so the per-vertex
    /// queries on the Theorem-5 hot path don't scan every clique; laid
    /// out like `adjacency`.
    containing_start: Vec<usize>,
    containing: Vec<usize>,
}

/// Fills the CSR pair `(start, items)` with `rows` rows from `(row,
/// item)` pairs, keeping each row's items in iteration order.
fn fill_csr(
    start: &mut Vec<usize>,
    items: &mut Vec<usize>,
    rows: usize,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
) {
    start.clear();
    start.resize(rows + 2, 0);
    for (row, _) in pairs.clone() {
        start[row + 2] += 1;
    }
    for i in 2..start.len() {
        start[i] += start[i - 1];
    }
    // start[row + 1] is now where row begins; placing an item advances it,
    // so it ends where row + 1 begins.
    items.clear();
    items.resize(start[rows + 1], 0);
    for (row, item) in pairs {
        items[start[row + 1]] = item;
        start[row + 1] += 1;
    }
    start.pop();
}

impl CliqueTree {
    /// Builds a clique tree of the live part of `g` in `O(V + E)`: the
    /// maximal cliques *and* the tree edges both come out of a single
    /// Blair–Peyton MCS sweep ([`crate::chordal`]'s clique-forest
    /// machinery), so no pairwise clique intersections or spanning-tree
    /// search is needed.
    ///
    /// Returns `None` if `g` is not chordal.
    pub fn build(g: &Graph) -> Option<Self> {
        let mut tree = CliqueTree::default();
        tree.rebuild(g).then_some(tree)
    }

    /// Rebuilds the tree in place for `g`, reusing every buffer; the
    /// result equals [`CliqueTree::build`]'s.  Returns `false` (leaving an
    /// empty tree) if `g` is not chordal.
    pub fn rebuild(&mut self, g: &Graph) -> bool {
        self.forest.sweep(g);
        let forest = &self.forest;
        let nodes = forest.num_cliques();
        self.depth.clear();
        for i in 0..nodes {
            let depth = if i == 0 {
                0
            } else {
                self.depth[forest.parent[i]] + 1
            };
            self.depth.push(depth);
        }
        let parent = &forest.parent;
        let edges = (1..nodes).flat_map(|i| [(i, parent[i]), (parent[i], i)]);
        fill_csr(&mut self.adjacency_start, &mut self.adjacency, nodes, edges);
        let memberships = forest
            .cliques()
            .enumerate()
            .flat_map(|(i, clique)| clique.iter().map(move |v| (v.index(), i)));
        fill_csr(
            &mut self.containing_start,
            &mut self.containing,
            g.capacity(),
            memberships,
        );
        forest.chordal
    }

    /// Number of tree nodes (maximal cliques).
    pub fn num_nodes(&self) -> usize {
        self.forest.num_cliques()
    }

    /// The maximal clique carried by node `i`, in ascending vertex order.
    pub fn clique(&self, i: usize) -> &[VertexId] {
        self.forest.clique(i)
    }

    /// Tree neighbors of node `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[self.adjacency_start[i]..self.adjacency_start[i + 1]]
    }

    /// Clique number of the underlying graph: size of the largest clique
    /// (0 for the empty graph).
    pub fn clique_number(&self) -> usize {
        self.forest
            .cliques()
            .map(<[VertexId]>::len)
            .max()
            .unwrap_or(0)
    }

    /// Nodes whose clique contains vertex `v` (the subtree `T_v`), in
    /// ascending node order.  `O(1)`: served from the precomputed
    /// vertex→node index.
    pub fn nodes_containing(&self, v: VertexId) -> &[usize] {
        match self.containing_start.get(v.index() + 1) {
            Some(&end) => &self.containing[self.containing_start[v.index()]..end],
            None => &[],
        }
    }

    /// Some node whose clique contains `v`, if any.  `O(1)`.
    pub fn any_node_containing(&self, v: VertexId) -> Option<usize> {
        self.nodes_containing(v).first().copied()
    }

    /// The unique tree path from node `from` to node `to` (inclusive),
    /// walked up the parent links to the nearest common ancestor.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn path_between(&self, from: usize, to: usize) -> Vec<usize> {
        assert!(from < self.num_nodes() && to < self.num_nodes());
        let parent = &self.forest.parent;
        let (mut a, mut b) = (from, to);
        while self.depth[a] > self.depth[b] {
            a = parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = parent[b];
        }
        while a != b {
            a = parent[a];
            b = parent[b];
        }
        let up = self.depth[from] - self.depth[a];
        let down = self.depth[to] - self.depth[a];
        let mut path = vec![0; up + down + 1];
        let mut node = from;
        for slot in &mut path[..=up] {
            *slot = node;
            node = parent[node];
        }
        let mut node = to;
        for slot in path[up..].iter_mut().rev() {
            *slot = node;
            node = parent[node];
        }
        path
    }

    /// Checks the induced-subtree (junction) property: for every vertex, the
    /// nodes containing it form a connected subtree.  Mostly useful in tests
    /// and debug assertions.
    pub fn has_junction_property(&self) -> bool {
        for v in 0..self.containing_start.len().saturating_sub(1) {
            let v = VertexId::new(v);
            let nodes = self.nodes_containing(v);
            if nodes.len() <= 1 {
                continue;
            }
            // BFS restricted to `nodes`.
            let node_set: BTreeSet<usize> = nodes.iter().copied().collect();
            let mut seen = BTreeSet::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(nodes[0]);
            seen.insert(nodes[0]);
            while let Some(n) = queue.pop_front() {
                for &m in self.neighbors(n) {
                    if node_set.contains(&m) && seen.insert(m) {
                        queue.push_back(m);
                    }
                }
            }
            if seen.len() != nodes.len() {
                return false;
            }
        }
        true
    }

    /// Restriction of every vertex's subtree to a tree path: for the given
    /// path (a sequence of node indices), returns for each vertex that
    /// appears on the path the contiguous interval `[first, last]` of path
    /// positions whose cliques contain it.
    ///
    /// By the junction property the occurrences of a vertex along a tree
    /// path are contiguous, so the interval fully describes them.  The
    /// intervals come in ascending vertex order.
    pub fn intervals_on_path(&self, path: &[usize]) -> Vec<(VertexId, usize, usize)> {
        // Every (vertex, position) occurrence, sorted; each vertex's run
        // then collapses to its first and last position.
        let mut intervals: Vec<(VertexId, usize, usize)> = path
            .iter()
            .enumerate()
            .flat_map(|(pos, &node)| self.clique(node).iter().map(move |&v| (v, pos, pos)))
            .collect();
        intervals.sort_unstable();
        intervals.dedup_by(|later, first| {
            let same = later.0 == first.0;
            if same {
                first.2 = later.2;
            }
            same
        });
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> Graph {
        // Triangles {0,1,2} and {1,2,3} sharing edge 1-2.
        Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        )
    }

    #[test]
    fn build_rejects_non_chordal_graphs() {
        let c4 = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (1.into(), 2.into()),
                (2.into(), 3.into()),
                (3.into(), 0.into()),
            ],
        );
        assert!(CliqueTree::build(&c4).is_none());
    }

    #[test]
    fn clique_tree_of_two_triangles() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.clique_number(), 3);
        assert!(t.has_junction_property());
        assert_eq!(t.neighbors(0).len(), 1);
    }

    #[test]
    fn junction_property_on_longer_interval_graph() {
        // Interval graph of intervals [0,1],[1,2],[2,3],[3,4],[1,3].
        let mut g = Graph::new(5);
        let intervals = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)];
        for i in 0..5 {
            for j in i + 1..5 {
                let (a1, b1) = intervals[i];
                let (a2, b2) = intervals[j];
                if a1.max(a2) <= b1.min(b2) {
                    g.add_edge(i.into(), j.into());
                }
            }
        }
        let t = CliqueTree::build(&g).unwrap();
        assert!(t.has_junction_property());
    }

    #[test]
    fn path_between_endpoints() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        let p = t.path_between(0, 1);
        assert_eq!(p, vec![0, 1]);
        assert_eq!(t.path_between(1, 1), vec![1]);
    }

    #[test]
    fn disconnected_graph_still_yields_single_tree() {
        // Two disjoint edges.
        let g = Graph::with_edges(4, [(0.into(), 1.into()), (2.into(), 3.into())]);
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 2);
        // A path must exist between any two nodes.
        let p = t.path_between(0, 1);
        assert_eq!(p.len(), 2);
        assert!(t.has_junction_property());
    }

    #[test]
    fn nodes_containing_and_intervals() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        let shared = t.nodes_containing(1.into());
        assert_eq!(shared.len(), 2);
        let only0 = t.nodes_containing(0.into());
        assert_eq!(only0.len(), 1);
        let path = t.path_between(0, 1);
        let intervals = t.intervals_on_path(&path);
        // Vertex 1 and 2 span both positions; vertices 0 and 3 span one.
        let find = |v: usize| {
            intervals
                .iter()
                .find(|(x, _, _)| *x == VertexId::new(v))
                .copied()
                .unwrap()
        };
        assert_eq!((find(1).1, find(1).2), (0, 1));
        assert_eq!((find(2).1, find(2).2), (0, 1));
        assert_eq!(find(0).1, find(0).2);
        assert_eq!(find(3).1, find(3).2);
    }

    #[test]
    fn clique_tree_of_clique_is_single_node() {
        let mut g = Graph::new(4);
        for i in 0..4usize {
            for j in i + 1..4usize {
                g.add_edge(i.into(), j.into());
            }
        }
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.clique_number(), 4);
    }
}
