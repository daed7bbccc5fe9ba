//! Cross-validation of the pruned exact-coalescing engine against the
//! seed repository's brute-force semantics.
//!
//! The fast [`ExactSolver`] (component decomposition, clique seeding,
//! symmetry breaking, transposition table) must be *provably equivalent*
//! to the naive backtracker it replaced: on random small graphs the
//! solver must return the same yes/no answer as a verbatim copy of the
//! seed's brute force, and on chordal instances the
//! polynomial Theorem 5 algorithm must agree with the exact engine.

use coalesce_core::incremental::{chordal_incremental, incremental_exact, ChordalIncremental};
use coalesce_graph::solver::ExactSolver;
use coalesce_graph::{chordal, coloring, Graph, VertexId};
use proptest::prelude::*;

/// The seed repository's exact `k`-colorability decision, kept as the
/// cross-validation oracle: plain backtracking in vertex order with the
/// trivial `max_used + 2` symmetry bound — no decomposition, no clique
/// pruning, no memoization.
fn oracle_is_k_colorable(g: &Graph, k: usize) -> bool {
    fn go(g: &Graph, k: usize, colors: &mut Vec<Option<usize>>, v: usize, max_used: usize) -> bool {
        if v == colors.len() {
            return true;
        }
        let vid = VertexId::new(v);
        for c in 0..k.min(max_used + 2) {
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

/// The oracle extended with one same-color constraint, by contracting the
/// pair first (exactly what the seed's `exact_k_coloring` did).
fn oracle_same_color_k_colorable(g: &Graph, k: usize, x: VertexId, y: VertexId) -> bool {
    if g.has_edge(x, y) {
        return false;
    }
    let mut merged = g.clone();
    merged.merge(x, y);
    oracle_is_k_colorable(&merged, k)
}

/// Strategy: a random undirected graph on `n ≤ 9` vertices given as an
/// edge bitmask over the C(9, 2) = 36 possible edges.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..9, proptest::collection::vec(any::<bool>(), 36)).prop_map(|(n, mask)| {
        let mut g = Graph::new(n);
        let mut idx = 0;
        for i in 0..n {
            for j in i + 1..n {
                if mask[idx % mask.len()] {
                    g.add_edge(VertexId::new(i), VertexId::new(j));
                }
                idx += 1;
            }
        }
        g
    })
}

/// Strategy: a random interval graph (always chordal), larger than the
/// ones the pre-solver agreement tests could afford.
fn arbitrary_interval_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0usize..16, 1usize..6), 2..14).prop_map(|intervals| {
        let n = intervals.len();
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                let (a1, l1) = intervals[i];
                let (a2, l2) = intervals[j];
                let (b1, b2) = (a1 + l1, a2 + l2);
                if a1.max(a2) <= b1.min(b2) {
                    g.add_edge(VertexId::new(i), VertexId::new(j));
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plain k-colorability: the solver equals the seed brute force, and
    /// returned witnesses are proper.
    #[test]
    fn solver_matches_oracle_on_random_graphs(g in arbitrary_graph(), k in 1usize..5) {
        let witness = ExactSolver::new().k_coloring(&g, k, &[]);
        prop_assert_eq!(
            witness.is_some(),
            oracle_is_k_colorable(&g, k),
            "{:?} with k = {}",
            g,
            k
        );
        if let Some(c) = witness {
            prop_assert!(c.is_proper(&g));
        }
    }

    /// Same-color constraints: the constrained query equals the oracle on
    /// the contracted graph, and witnesses respect the constraint.
    #[test]
    fn constrained_solver_matches_oracle(g in arbitrary_graph(), k in 1usize..4) {
        let verts: Vec<VertexId> = g.vertices().collect();
        prop_assume!(verts.len() >= 2);
        let (x, y) = (verts[0], verts[verts.len() - 1]);
        prop_assume!(x != y);
        let expected = oracle_same_color_k_colorable(&g, k, x, y);
        let witness = coloring::exact_k_coloring(&g, k, &[(x, y)]);
        prop_assert_eq!(witness.is_some(), expected);
        if let Some(c) = witness {
            prop_assert!(c.is_proper(&g));
            prop_assert_eq!(c.color_of(x), c.color_of(y));
        }
    }

    /// The chromatic number computed by the pruned engine equals the
    /// smallest k the oracle accepts.
    #[test]
    fn chromatic_number_matches_oracle(g in arbitrary_graph()) {
        let chromatic = coloring::chromatic_number(&g);
        prop_assert!(oracle_is_k_colorable(&g, chromatic));
        if chromatic > 0 {
            prop_assert!(!oracle_is_k_colorable(&g, chromatic - 1));
        }
    }

    /// Theorem 5 agreement at scale: the polynomial chordal algorithm and
    /// the exact engine answer identically on every non-adjacent pair of
    /// larger interval graphs, for three k values — and the prepared
    /// session answers like the one-shot entry point.
    #[test]
    fn chordal_incremental_matches_exact_on_larger_instances(g in arbitrary_interval_graph()) {
        let omega = chordal::chordal_clique_number(&g).unwrap();
        let session = ChordalIncremental::prepare(&g).unwrap();
        prop_assert_eq!(session.omega(), omega);
        let verts: Vec<VertexId> = g.vertices().collect();
        for k in [omega, omega + 1, omega + 2] {
            for (i, &a) in verts.iter().enumerate() {
                for &b in &verts[i + 1..] {
                    if g.has_edge(a, b) {
                        continue;
                    }
                    let fast = session.query(k, a, b).unwrap().is_coalescible();
                    let slow = incremental_exact(&g, k, a, b).is_coalescible();
                    prop_assert_eq!(fast, slow, "pair ({}, {}), k = {}", a, b, k);
                    let one_shot = chordal_incremental(&g, k, a, b).unwrap().is_coalescible();
                    prop_assert_eq!(one_shot, fast, "session/one-shot split on ({}, {})", a, b);
                }
            }
        }
    }
}
