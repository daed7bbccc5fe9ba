//! Vertex cover and the reduction to optimistic coalescing / de-coalescing
//! (Theorem 6, Figures 6–7).
//!
//! The paper reduces vertex cover on graphs of maximum degree 3 to the
//! de-coalescing problem with `k = 4`: every vertex `v` of the source graph
//! becomes a *structure* with a central affinity `(A_v, A_v')`, and the
//! coalesced graph is greedy-4-colorable iff the set of structures whose
//! central affinity is de-coalesced forms a vertex cover.
//!
//! The hexagon widgets of Figure 6 are only shown graphically in the paper;
//! this module uses a functionally equivalent reconstruction of the
//! per-vertex structure (10 vertices) with the three properties the proof
//! relies on, each verified by the tests:
//!
//! 1. while the central pair is **coalesced** and at least one incident
//!    edge's partner structure is intact, the structure contains a subgraph
//!    of minimum degree ≥ 4 and cannot be simplified;
//! 2. if the central pair is **de-coalesced**, the whole structure (branch
//!    vertices included) is eliminated by the greedy scheme regardless of
//!    its neighbors, relieving them;
//! 3. if every incident edge is covered by the other endpoint (all partner
//!    branches eliminated), the structure is eliminated even while
//!    coalesced.
//!
//! Consequently the minimum number of de-coalesced affinities equals the
//! minimum vertex cover, which the tests check against the exact solvers.
//! Unlike the paper's gadget the reconstruction is not chordal; the
//! greedy-4-colorability of the original (de-coalesced) graph — the
//! property the problem statement requires — is preserved.

use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_graph::{Graph, VertexId};

/// A vertex-cover instance.
#[derive(Debug, Clone)]
pub struct VertexCoverInstance {
    /// The graph to cover.
    pub graph: Graph,
}

impl VertexCoverInstance {
    /// Wraps a graph.
    pub fn new(graph: Graph) -> Self {
        VertexCoverInstance { graph }
    }

    /// Exact minimum vertex cover size (branch and bound on edges).
    pub fn minimum_cover(&self) -> usize {
        let edges: Vec<(VertexId, VertexId)> = self.graph.edges().collect();
        let mut best = self.graph.num_vertices();
        let mut chosen: Vec<VertexId> = Vec::new();
        fn search(edges: &[(VertexId, VertexId)], chosen: &mut Vec<VertexId>, best: &mut usize) {
            if chosen.len() >= *best {
                return;
            }
            let uncovered = edges
                .iter()
                .find(|(u, v)| !chosen.contains(u) && !chosen.contains(v));
            match uncovered {
                None => *best = chosen.len(),
                Some(&(u, v)) => {
                    chosen.push(u);
                    search(edges, chosen, best);
                    chosen.pop();
                    chosen.push(v);
                    search(edges, chosen, best);
                    chosen.pop();
                }
            }
        }
        search(&edges, &mut chosen, &mut best);
        best
    }
}

/// Handles into one per-vertex structure of the reduction.
#[derive(Debug, Clone)]
pub struct Structure {
    /// The two endpoints of the central affinity.
    pub a: VertexId,
    /// Second endpoint of the central affinity.
    pub a_prime: VertexId,
    /// The three branch vertices (one per potential incident edge).
    pub branches: [VertexId; 3],
}

/// The output of the Theorem 6 reduction.
#[derive(Debug, Clone)]
pub struct OptimisticReduction {
    /// The optimistic-coalescing instance: greedy-4-colorable graph, one
    /// affinity per source vertex, all affinities simultaneously
    /// coalescible.
    pub instance: AffinityGraph,
    /// Per source vertex, its structure's handles (indexed like the source
    /// graph's vertex identifiers).
    pub structures: Vec<Structure>,
    /// The register count of the instance (always 4).
    pub k: usize,
}

/// Builds one per-vertex structure into `graph` and returns its handles.
fn build_structure(graph: &mut Graph) -> Structure {
    // Core vertices c1..c5, central pair A / A', branches b1..b3.
    let c: Vec<VertexId> = (0..5).map(|_| graph.add_vertex()).collect();
    let (c1, c2, c3, c4, c5) = (c[0], c[1], c[2], c[3], c[4]);
    let a = graph.add_vertex();
    let a_prime = graph.add_vertex();
    let b: Vec<VertexId> = (0..3).map(|_| graph.add_vertex()).collect();

    // Core edges: c5 adjacent to all of c1..c4, plus c1-c2, c1-c3, c2-c4,
    // c3-c4 (so internal core degrees are c1..c4: 3, c5: 4).
    for &ci in &c[0..4] {
        graph.add_edge(c5, ci);
    }
    graph.add_edge(c1, c2);
    graph.add_edge(c1, c3);
    graph.add_edge(c2, c4);
    graph.add_edge(c3, c4);

    // Central pair: A'' (coalesced) must be adjacent to c1, c2, c3 and all
    // branches; split so that each half has degree 3 and is simplifiable
    // once de-coalesced.
    graph.add_edge(a, c1);
    graph.add_edge(a, c2);
    graph.add_edge(a, b[0]);
    graph.add_edge(a_prime, c3);
    graph.add_edge(a_prime, b[1]);
    graph.add_edge(a_prime, b[2]);

    // Branches: each adjacent to c4, c5 and the central pair (above); the
    // fourth neighbor is the partner branch of the adjacent structure.
    for &bi in &b {
        graph.add_edge(bi, c4);
        graph.add_edge(bi, c5);
    }

    Structure {
        a,
        a_prime,
        branches: [b[0], b[1], b[2]],
    }
}

/// Builds the optimistic-coalescing instance of Theorem 6 from a vertex
/// cover instance whose graph has maximum degree 3.
///
/// # Panics
///
/// Panics if some vertex of the source graph has degree greater than 3.
pub fn reduce_to_optimistic(instance: &VertexCoverInstance) -> OptimisticReduction {
    let source = &instance.graph;
    assert!(
        source.max_degree() <= 3,
        "the Theorem 6 reduction requires maximum degree 3"
    );
    let mut graph = Graph::new(0);
    let mut structures: Vec<Structure> = Vec::new();
    let mut by_source: Vec<Option<usize>> = vec![None; source.capacity()];
    let originals: Vec<VertexId> = source.vertices().collect();
    for (i, &v) in originals.iter().enumerate() {
        structures.push(build_structure(&mut graph));
        by_source[v.index()] = Some(i);
    }
    // Connect one branch of each endpoint's structure per source edge.
    let mut used: Vec<usize> = vec![0; structures.len()];
    for (u, v) in source.edges() {
        let iu = by_source[u.index()].expect("live source vertex");
        let iv = by_source[v.index()].expect("live source vertex");
        let bu = structures[iu].branches[used[iu]];
        let bv = structures[iv].branches[used[iv]];
        used[iu] += 1;
        used[iv] += 1;
        graph.add_edge(bu, bv);
    }
    let affinities = structures
        .iter()
        .map(|s| Affinity::new(s.a, s.a_prime))
        .collect();
    OptimisticReduction {
        instance: AffinityGraph::new(graph, affinities),
        structures,
        k: 4,
    }
}

/// Given a set of source vertices (a candidate cover), returns the kept-
/// affinity coalescing in which exactly the structures *outside* the set
/// stay coalesced, and reports whether the resulting graph is
/// greedy-4-colorable.
pub fn decoalesce_cover(
    reduction: &OptimisticReduction,
    cover: &[usize],
) -> (coalesce_core::Coalescing, bool) {
    let mut coalescing = coalesce_core::Coalescing::identity(&reduction.instance.graph);
    for (i, s) in reduction.structures.iter().enumerate() {
        if !cover.contains(&i) {
            coalescing
                .merge(s.a, s.a_prime)
                .expect("central pairs never interfere");
        }
    }
    let ok = coalesce_graph::greedy::is_greedy_k_colorable(&coalescing.merged_graph, reduction.k);
    (coalescing, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_core::optimistic::{all_affinities_coalescible, decoalesce_exact};
    use coalesce_graph::greedy;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn path(n: usize) -> VertexCoverInstance {
        VertexCoverInstance::new(Graph::with_edges(n, (1..n).map(|i| (v(i - 1), v(i)))))
    }

    fn cycle(n: usize) -> VertexCoverInstance {
        VertexCoverInstance::new(Graph::with_edges(n, (0..n).map(|i| (v(i), v((i + 1) % n)))))
    }

    #[test]
    fn exact_vertex_cover_on_known_graphs() {
        assert_eq!(path(2).minimum_cover(), 1);
        assert_eq!(path(4).minimum_cover(), 2);
        assert_eq!(cycle(4).minimum_cover(), 2);
        assert_eq!(cycle(5).minimum_cover(), 3);
        assert_eq!(VertexCoverInstance::new(Graph::new(3)).minimum_cover(), 0);
    }

    #[test]
    fn reduction_instance_is_well_formed() {
        let inst = path(3);
        let r = reduce_to_optimistic(&inst);
        // 10 vertices per structure.
        assert_eq!(r.instance.graph.num_vertices(), 30);
        assert_eq!(r.instance.num_affinities(), 3);
        // The de-coalesced graph is greedy-4-colorable and all affinities
        // can be coalesced simultaneously (the problem's preconditions).
        assert!(greedy::is_greedy_k_colorable(&r.instance.graph, 4));
        assert!(all_affinities_coalescible(&r.instance));
    }

    #[test]
    fn coalescing_everything_blocks_the_greedy_scheme() {
        // With at least one edge, coalescing every central pair leaves a
        // stuck subgraph.
        let r = reduce_to_optimistic(&path(2));
        let (_, ok) = decoalesce_cover(&r, &[]);
        assert!(!ok);
    }

    #[test]
    fn decoalescing_a_cover_restores_colorability() {
        let inst = path(3); // edges (0,1), (1,2); {1} is a cover
        let r = reduce_to_optimistic(&inst);
        let (_, ok_cover) = decoalesce_cover(&r, &[1]);
        assert!(ok_cover);
        let (_, ok_non_cover) = decoalesce_cover(&r, &[0]);
        assert!(!ok_non_cover, "{{0}} does not cover edge (1,2)");
        let (_, ok_both_ends) = decoalesce_cover(&r, &[0, 2]);
        assert!(ok_both_ends);
    }

    #[test]
    fn minimum_decoalescing_equals_minimum_vertex_cover() {
        for inst in [path(2), path(3), path(4), cycle(3), cycle(4)] {
            let cover = inst.minimum_cover();
            let r = reduce_to_optimistic(&inst);
            let (decoalesced, _) =
                decoalesce_exact(&r.instance, r.k).expect("base graph is greedy-4-colorable");
            assert_eq!(
                decoalesced, cover,
                "minimum de-coalescing must equal minimum vertex cover"
            );
        }
    }

    #[test]
    fn isolated_vertices_need_no_decoalescing() {
        let inst = VertexCoverInstance::new(Graph::new(2));
        let r = reduce_to_optimistic(&inst);
        let (decoalesced, _) = decoalesce_exact(&r.instance, r.k).unwrap();
        assert_eq!(decoalesced, 0);
    }

    #[test]
    #[should_panic(expected = "maximum degree 3")]
    fn degree_four_source_graphs_are_rejected() {
        let mut g = Graph::new(5);
        for i in 1..5 {
            g.add_edge(v(0), v(i));
        }
        reduce_to_optimistic(&VertexCoverInstance::new(g));
    }

    #[test]
    fn optimistic_heuristic_result_is_always_colorable_on_reductions() {
        let r = reduce_to_optimistic(&cycle(4));
        let res = coalesce_core::optimistic::optimistic_coalesce(&r.instance, r.k);
        assert!(greedy::is_greedy_k_colorable(
            &res.coalescing.merged_graph,
            r.k
        ));
        // The heuristic gives up at least as many affinities as the optimum
        // (= the minimum vertex cover of C4, which is 2).
        assert!(res.stats.uncoalesced() >= 2);
    }
}
