//! Property-based tests for the graph-substrate extensions: LexBFS,
//! minimal triangulation, file formats and the Theorem-5-guided chordal
//! coalescing strategy.

use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_core::chordal_strategy::{
    chordal_conservative_coalesce, result_is_k_colorable, ChordalMode,
};
use coalesce_gen::graphs;
use coalesce_graph::format::{from_challenge, to_challenge, to_dimacs, ChallengeFile};
use coalesce_graph::{chordal, cliques, coloring, fillin, format, greedy, lexbfs, Graph, VertexId};
use proptest::prelude::*;

fn arbitrary_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(any::<bool>(), len).prop_map(move |mask| {
            let mut g = Graph::new(n);
            for (present, &(i, j)) in mask.iter().zip(&pairs) {
                if *present {
                    g.add_edge(VertexId::new(i), VertexId::new(j));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lexbfs_and_mcs_agree_on_chordality(g in arbitrary_graph(9)) {
        prop_assert_eq!(chordal::is_chordal(&g), lexbfs::is_chordal_lexbfs(&g));
    }

    #[test]
    fn mcs_m_produces_a_chordal_supergraph_with_a_valid_peo(g in arbitrary_graph(9)) {
        let tri = fillin::mcs_m(&g);
        prop_assert!(chordal::is_chordal(&tri.graph));
        prop_assert!(chordal::is_perfect_elimination_ordering(
            &tri.graph,
            &tri.elimination_order
        ));
        // Fill edges are new edges.
        for &(a, b) in &tri.fill_edges {
            prop_assert!(!g.has_edge(a, b));
            prop_assert!(tri.graph.has_edge(a, b));
        }
        // Chordal inputs need no fill.
        if chordal::is_chordal(&g) {
            prop_assert_eq!(tri.fill_in(), 0);
        }
    }

    #[test]
    fn mcs_m_fill_is_minimal_on_small_graphs(g in arbitrary_graph(7)) {
        let tri = fillin::mcs_m(&g);
        prop_assert!(fillin::is_minimal_triangulation(&g, &tri));
    }

    #[test]
    fn dimacs_round_trip_preserves_edges(g in arbitrary_graph(10)) {
        let text = to_dimacs(&g);
        let parsed = format::from_dimacs(&text).expect("writer output parses");
        prop_assert_eq!(parsed.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(parsed.has_edge(u, v));
        }
    }

    #[test]
    fn challenge_round_trip_preserves_instances(
        g in arbitrary_graph(8),
        weights in proptest::collection::vec(1u64..100, 0..6),
        k in 2usize..8,
    ) {
        // Build affinities between non-adjacent pairs.
        let live: Vec<VertexId> = g.vertices().collect();
        let mut affinities = Vec::new();
        let mut it = weights.iter();
        'outer: for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if !g.has_edge(a, b) {
                    match it.next() {
                        Some(&w) => affinities.push((a, b, w)),
                        None => break 'outer,
                    }
                }
            }
        }
        let file = ChallengeFile { graph: g.clone(), affinities: affinities.clone(), registers: Some(k) };
        let parsed = from_challenge(&to_challenge(&file)).expect("round trip");
        prop_assert_eq!(parsed.registers, Some(k));
        prop_assert_eq!(parsed.affinities, affinities);
        prop_assert_eq!(parsed.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn chordal_strategy_outputs_are_k_colorable_on_random_interval_graphs(
        seed in 0u64..500,
        n in 4usize..12,
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let (g, _intervals) = graphs::random_interval_graph(n, 8, 3, &mut rng);
        prop_assume!(chordal::is_chordal(&g));
        let omega = chordal::chordal_clique_number(&g).unwrap_or(0).max(1);
        let k = omega + 1;
        // Affinities between the first few non-adjacent pairs.
        let live: Vec<VertexId> = g.vertices().collect();
        let mut affinities = Vec::new();
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if !g.has_edge(a, b) && affinities.len() < 5 {
                    affinities.push(Affinity::new(a, b));
                }
            }
        }
        let ag = AffinityGraph::new(g, affinities);
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let result = chordal_conservative_coalesce(&ag, k, mode)
                .expect("chordal instance within hypotheses");
            prop_assert!(result_is_k_colorable(&result, k));
        }
    }
}

#[test]
fn named_families_expose_the_expected_structure_to_the_strategies() {
    // The interval staircase (each of 20 unit intervals overlapping the next
    // 3) is the "easy" chordal case: every strategy can run on it and the
    // coloring number equals the clique number.
    let mut g = Graph::new(20);
    for i in 0..20usize {
        for j in i + 1..(i + 4).min(20) {
            g.add_edge(i.into(), j.into());
        }
    }
    assert!(chordal::is_chordal(&g));
    assert_eq!(cliques::clique_number(&g), 4);
    assert_eq!(greedy::coloring_number(&g), 4);

    // The Mycielski graph M4 (the Grötzsch graph) is the adversarial case:
    // clique number 2, chromatic number 4 — greedy reasoning about colors
    // is maximally wrong.
    let m4 = mycielski(4);
    assert_eq!(m4.num_vertices(), 11);
    assert_eq!(cliques::clique_number(&m4), 2);
    assert_eq!(coloring::chromatic_number(&m4), 4);
    assert!(!chordal::is_chordal(&m4));
}

/// The Mycielski graph `M_i`: `M_2 = K_2`, and each step adds a shadow of
/// every vertex (adjacent to that vertex's neighbors) plus an apex adjacent
/// to every shadow.  Triangle-free with chromatic number `i`.
fn mycielski(i: usize) -> Graph {
    let mut g = Graph::with_edges(2, [(0.into(), 1.into())]);
    for _ in 2..i {
        let n = g.capacity();
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut next = Graph::new(2 * n + 1);
        for (u, v) in edges {
            next.add_edge(u, v);
            next.add_edge(VertexId::new(n + u.index()), v);
            next.add_edge(u, VertexId::new(n + v.index()));
        }
        for s in n..2 * n {
            next.add_edge(VertexId::new(2 * n), VertexId::new(s));
        }
        g = next;
    }
    g
}
