//! Conservative coalescing (§4 of the paper).
//!
//! Conservative coalescing removes as many moves as possible while keeping
//! the interference graph colorable with the `k` available registers.  The
//! general problem is NP-complete even in very restricted settings
//! (Theorem 3); real allocators therefore use *incremental* local tests.
//! This module implements the three tests discussed in the paper —
//!
//! * **Briggs**: merge `u` and `v` if the merged vertex has fewer than `k`
//!   neighbors of degree ≥ `k`;
//! * **George**: merge `u` into `v` if every neighbor of `u` of degree ≥ `k`
//!   is already a neighbor of `v` (tested in both directions, as suggested
//!   in §4 for the spilling-free setting);
//! * **Brute force**: merge on a scratch graph and keep the merge iff the
//!   graph remains greedy-`k`-colorable (the linear-time check mentioned in
//!   §4);
//!
//! — plus an exponential [`conservative_exact`] used to measure how far the
//! local rules are from the optimum on small instances.  Briggs' test and
//! George's test in both directions come from one walk over the two
//! neighbor rows, [`merge_tests`], which IRC's coalesce step shares.

use crate::affinity::{Affinity, AffinityGraph, Coalescing, CoalescingStats};
use coalesce_graph::{coloring, greedy, Graph, VertexId};

/// Which conservative test to apply to each affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConservativeRule {
    /// Briggs' test.
    Briggs,
    /// George's test (both directions).
    George,
    /// Briggs' test, then George's test if Briggs fails.
    BriggsGeorge,
    /// The extended George test of §4 (both directions), then Briggs'.
    ///
    /// "George's rule can be extended by considering that only the
    /// neighbors of `u`, with at most `(k − 1)` neighbors of degree ≥ `k`,
    /// need to be neighbors of `v`" — i.e. a neighbor of `u` that is itself
    /// easy to simplify can be ignored by the subsumption test.
    ExtendedGeorge,
    /// Merge on a scratch graph and keep it iff the result stays
    /// greedy-`k`-colorable.
    BruteForce,
}

/// Result of a conservative coalescing run.
#[derive(Debug, Clone)]
pub struct ConservativeResult {
    /// The computed coalescing.
    pub coalescing: Coalescing,
    /// Summary statistics against the instance's affinities.
    pub stats: CoalescingStats,
}

/// Briggs' and George's verdicts on merging `a` and `b` in the current
/// (partially coalesced) graph, from one [`merge_tests`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeTests {
    /// Briggs' verdict: the merged vertex has fewer than `k` neighbors of
    /// significant degree (≥ `k`).
    pub briggs: bool,
    /// George's verdict in the direction "merge `a` into `b`".
    pub george_a_into_b: bool,
    /// George's verdict in the direction "merge `b` into `a`".
    pub george_b_into_a: bool,
}

impl MergeTests {
    /// The Briggs-then-George rule: Briggs, or George in either direction.
    pub fn briggs_or_george(&self) -> bool {
        self.briggs || self.george_a_into_b || self.george_b_into_a
    }
}

/// Runs Briggs' test and George's test in both directions on merging `a`
/// and `b`, in one two-pointer walk over their sorted neighbor rows.
///
/// Every vertex other than `a` and `b` in either row is a neighbor of the
/// merged vertex, met once by the walk:
///
/// * in both rows, it loses one degree in the merged graph (its two edges
///   become one), so Briggs counts it when `degree − 1 ≥ k`; George
///   accepts a common neighbor in both directions;
/// * in one row only, Briggs counts it when `degree ≥ k`, and then George
///   fails in the direction that merges that row's vertex away.
///
/// Each neighbor costs one degree read, in place of a binary search into
/// the other row per neighbor and per test.  The walk stops early once
/// `k` significant neighbors are counted and both George directions have
/// failed, since no verdict can change after that.
pub fn merge_tests(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> MergeTests {
    let (row_a, row_b) = (graph.neighbor_row(a), graph.neighbor_row(b));
    let mut significant = 0;
    let (mut george_a_into_b, mut george_b_into_a) = (true, true);
    let (mut i, mut j) = (0, 0);
    loop {
        let (n, degree, only_a, only_b) = match (row_a.get(i), row_b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                (x, graph.degree(x) - 1, false, false)
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                (x, graph.degree(x), true, false)
            }
            (Some(&x), None) => {
                i += 1;
                (x, graph.degree(x), true, false)
            }
            (_, Some(&y)) => {
                j += 1;
                (y, graph.degree(y), false, true)
            }
            (None, None) => break,
        };
        if n == a || n == b || degree < k {
            continue;
        }
        significant += 1;
        george_a_into_b &= !only_a;
        george_b_into_a &= !only_b;
        if significant >= k && !george_a_into_b && !george_b_into_a {
            break;
        }
    }
    MergeTests {
        briggs: significant < k,
        george_a_into_b,
        george_b_into_a,
    }
}

/// Briggs' test on the *current* (partially coalesced) graph: the vertex
/// obtained by merging `a` and `b` has fewer than `k` neighbors of
/// significant degree (≥ `k`).  Reads [`merge_tests`].
pub fn briggs_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    merge_tests(graph, k, a, b).briggs
}

/// George's test on the current graph, in the direction "merge `a` into
/// `b`": every neighbor of `a` with degree ≥ `k` is also a neighbor of `b`.
/// Reads [`merge_tests`].
pub fn george_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    merge_tests(graph, k, a, b).george_a_into_b
}

/// The extended George test of §4, in the direction "merge `a` into `b`":
/// every neighbor of `a` must be of degree < `k`, or a neighbor of `b`, or
/// itself guaranteed to be peeled by the greedy scheme *after the merge*
/// (it has at most `(k − 1)` neighbors of significant degree, counting the
/// merged vertex).
///
/// The plain George test only skips neighbors of degree < `k`; the extended
/// test also skips neighbors that stay Briggs-safe once `a` and `b` are
/// merged, accepting strictly more merges while still preserving
/// greedy-`k`-colorability: such a neighbor is always removed by the
/// exhaustive degree-< `k` peeling, so the residual graph is again a
/// subgraph of the original one with the merged vertex's neighborhood
/// contained in `b`'s.
pub fn extended_george_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    graph.neighbors(a).filter(|&n| n != b).all(|n| {
        if graph.degree(n) < k || graph.has_edge(n, b) {
            return true;
        }
        // n is a significant neighbor not subsumed by b: it is still safe to
        // ignore if it stays Briggs-safe in the merged graph, i.e. it keeps
        // fewer than k significant neighbors.  Degrees of vertices other
        // than the merged one never increase, so counting significance in
        // the current graph over-approximates; the merged vertex itself is
        // conservatively assumed significant (+1).
        let significant_others = graph
            .neighbors(n)
            .filter(|&m| m != a && m != b && graph.degree(m) >= k)
            .count();
        significant_others + 1 < k
    })
}

/// Brute-force conservative test: perform the merge on a scratch copy and
/// check greedy-`k`-colorability of the whole graph.
pub fn brute_force_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    let mut scratch = graph.clone();
    scratch.merge(a, b);
    greedy::is_greedy_k_colorable(&scratch, k)
}

/// Incremental conservative coalescing of all affinities using the given
/// rule: affinities are processed by decreasing weight and merged when the
/// rule accepts the merge on the current graph.
///
/// The input graph is expected to be greedy-`k`-colorable (the setting of
/// §4: a Chaitin-like allocator after enough spilling, or a two-phase
/// allocator after the spilling phase); the result then remains
/// greedy-`k`-colorable for every rule.
pub fn conservative_coalesce(
    ag: &AffinityGraph,
    k: usize,
    rule: ConservativeRule,
) -> ConservativeResult {
    let _span = coalesce_stats::span!("core/coalesce/conservative");
    let mut coalescing = Coalescing::identity(&ag.graph);
    // Rejected rule decisions, reported once at the fixpoint (accepted
    // merges are counted by `Coalescing::merge` for every strategy).
    let mut rejected: u64 = 0;
    // Keep looping over the affinities until a fixed point: a merge can make
    // a previously rejected merge acceptable.
    let affinities = ag.affinities_by_weight();
    let mut changed = true;
    while changed {
        changed = false;
        for aff in &affinities {
            let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
            if ra == rb || coalescing.merged_graph.has_edge(ra, rb) {
                continue;
            }
            let graph = &coalescing.merged_graph;
            let ok = match rule {
                ConservativeRule::Briggs => briggs_test(graph, k, ra, rb),
                ConservativeRule::George => {
                    let tests = merge_tests(graph, k, ra, rb);
                    tests.george_a_into_b || tests.george_b_into_a
                }
                ConservativeRule::BriggsGeorge => merge_tests(graph, k, ra, rb).briggs_or_george(),
                ConservativeRule::ExtendedGeorge => {
                    briggs_test(graph, k, ra, rb)
                        || extended_george_test(graph, k, ra, rb)
                        || extended_george_test(graph, k, rb, ra)
                }
                ConservativeRule::BruteForce => brute_force_test(graph, k, ra, rb),
            };
            if ok {
                coalescing.merge(ra, rb);
                changed = true;
            } else {
                rejected += 1;
            }
        }
    }
    coalesce_stats::counter!("coalesce.merges_rejected", rejected);
    let stats = coalescing.stats(&ag.affinities);
    ConservativeResult { coalescing, stats }
}

/// Exact conservative coalescing: over all subsets of affinities, find a
/// coalescing that keeps the merged graph `k`-colorable and minimises the
/// weight of uncoalesced affinities.  Exponential; small instances only.
///
/// `require_greedy` selects the target class: when `true` the merged graph
/// must be greedy-`k`-colorable (the practically relevant variant), when
/// `false` plain `k`-colorability is required (the paper's base problem).
pub fn conservative_exact(
    ag: &AffinityGraph,
    k: usize,
    require_greedy: bool,
) -> ConservativeResult {
    let affinities = ag.affinities_by_weight();
    let colorable = |graph: &Graph| -> bool {
        if require_greedy {
            greedy::is_greedy_k_colorable(graph, k)
        } else {
            coloring::is_k_colorable(graph, k)
        }
    };
    let mut best: Option<(u64, Coalescing)> = None;

    fn search(
        affinities: &[Affinity],
        colorable: &dyn Fn(&Graph) -> bool,
        index: usize,
        current: &Coalescing,
        lost: u64,
        best: &mut Option<(u64, Coalescing)>,
    ) {
        if let Some((best_lost, _)) = best {
            if lost >= *best_lost {
                return;
            }
        }
        if index == affinities.len() {
            if colorable(&current.merged_graph) {
                *best = Some((lost, current.clone()));
            }
            return;
        }
        let aff = affinities[index];
        let mut cur = current.clone();
        if cur.can_merge(aff.a, aff.b) {
            cur.merge(aff.a, aff.b);
            search(affinities, colorable, index + 1, &cur, lost, best);
        } else if cur.same_class(aff.a, aff.b) {
            search(affinities, colorable, index + 1, current, lost, best);
            return;
        }
        search(
            affinities,
            colorable,
            index + 1,
            current,
            lost + aff.weight,
            best,
        );
    }

    let identity = Coalescing::identity(&ag.graph);
    search(&affinities, &colorable, 0, &identity, 0, &mut best);
    let (_, mut coalescing) = best.unwrap_or_else(|| (0, Coalescing::identity(&ag.graph)));
    let stats = coalescing.stats(&ag.affinities);
    ConservativeResult { coalescing, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// The permutation gadget of Figure 3 (left): a permutation of `n`
    /// values at register pressure `2n - 2`... here built directly: vertices
    /// u1..un (sources) and v1..vn (destinations); every ui interferes with
    /// every vj except j == i, and affinities (ui, vi).
    fn permutation_gadget(n: usize) -> AffinityGraph {
        let mut g = Graph::new(2 * n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    g.add_edge(v(i), v(n + j));
                }
            }
        }
        let affs = (0..n).map(|i| Affinity::new(v(i), v(n + i))).collect();
        AffinityGraph::new(g, affs)
    }

    #[test]
    fn briggs_accepts_low_degree_merges() {
        // Two isolated vertices can always be merged for any k >= 1.
        let g = Graph::new(2);
        assert!(briggs_test(&g, 1, v(0), v(1)));
    }

    #[test]
    fn george_accepts_subsumed_neighborhoods() {
        // N(0) = {2}, N(1) = {2, 3}, with 2-3 interfering so that 3 is a
        // significant neighbor at k = 2: merging 0 into 1 is safe under
        // George (0's significant neighbors are all neighbors of 1), but the
        // opposite direction is rejected because 3 is not a neighbor of 0.
        let g = Graph::with_edges(4, [(v(0), v(2)), (v(1), v(2)), (v(1), v(3)), (v(2), v(3))]);
        assert!(george_test(&g, 2, v(0), v(1)));
        assert!(!george_test(&g, 2, v(1), v(0)));
    }

    #[test]
    fn extended_george_accepts_everything_plain_george_accepts() {
        // Random-ish structured graphs: whenever plain George accepts a
        // merge, extended George must accept it too.
        let g = Graph::with_edges(
            6,
            [
                (v(0), v(2)),
                (v(1), v(2)),
                (v(1), v(3)),
                (v(2), v(3)),
                (v(3), v(4)),
                (v(4), v(5)),
                (v(2), v(5)),
            ],
        );
        for k in 2..5 {
            for a in 0..6 {
                for b in 0..6 {
                    if a == b || g.has_edge(v(a), v(b)) {
                        continue;
                    }
                    if george_test(&g, k, v(a), v(b)) {
                        assert!(
                            extended_george_test(&g, k, v(a), v(b)),
                            "extended George rejected a plain-George merge ({a},{b}) at k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extended_george_is_conservative_on_exhaustive_small_graphs() {
        // Exhaustively check on all graphs over 5 vertices (up to 2^10 edge
        // subsets) that an extended-George-accepted merge never destroys
        // greedy-k-colorability.
        let pairs: Vec<(usize, usize)> = (0..5)
            .flat_map(|i| (i + 1..5).map(move |j| (i, j)))
            .collect();
        for mask in 0u32..(1 << pairs.len()) {
            let mut g = Graph::new(5);
            for (bit, &(i, j)) in pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    g.add_edge(v(i), v(j));
                }
            }
            for k in 2..4 {
                if !greedy::is_greedy_k_colorable(&g, k) {
                    continue;
                }
                for a in 0..5 {
                    for b in a + 1..5 {
                        if g.has_edge(v(a), v(b)) {
                            continue;
                        }
                        let accepted = extended_george_test(&g, k, v(a), v(b))
                            || extended_george_test(&g, k, v(b), v(a));
                        if accepted {
                            let mut merged = g.clone();
                            merged.merge(v(a), v(b));
                            assert!(
                                greedy::is_greedy_k_colorable(&merged, k),
                                "extended George broke greedy-{k}-colorability on mask {mask:#x} merging ({a},{b})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extended_george_coalesces_strictly_more_than_plain_george_somewhere() {
        // A significant neighbor of `a` that is not a neighbor of `b` but is
        // Briggs-safe: plain George refuses, extended George accepts.
        //
        // k = 3.  n is adjacent to a and to two other significant vertices
        // (degree 3 each), so deg(n) = 3 ≥ k but n has only 2 significant
        // neighbors besides {a, b}... build it explicitly.
        let mut g = Graph::new(8);
        let (a, b, n) = (v(0), v(1), v(2));
        // n adjacent to a: the neighbor George must subsume.
        g.add_edge(a, n);
        // Give n degree 3 with two low-degree extra neighbors, so n is
        // significant but Briggs-safe (no significant neighbor besides the
        // future merged vertex).
        g.add_edge(n, v(3));
        g.add_edge(n, v(4));
        // Give b some unrelated neighbors so merging is non-trivial.
        g.add_edge(b, v(5));
        g.add_edge(b, v(6));
        // And make a adjacent to one of b's neighbors so George has something
        // to subsume successfully.
        g.add_edge(a, v(5));
        let k = 3;
        assert!(g.degree(n) >= k);
        assert!(!g.has_edge(n, b));
        assert!(!george_test(&g, k, a, b), "plain George should refuse");
        assert!(
            extended_george_test(&g, k, a, b),
            "extended George should accept"
        );
        // And the merge is indeed safe.
        assert!(brute_force_test(&g, k, a, b));
    }

    #[test]
    fn permutation_gadget_is_coalesced_by_brute_force_but_not_by_briggs() {
        // Figure 3: for a permutation of size 4 at k = 6... we use the pure
        // gadget with k = 4: each ui and vi have degree 3; coalescing all
        // four affinities yields K4 which is greedy-4-colorable, but after
        // the first merge the merged vertex has degree 6 >= k and Briggs
        // alone gets stuck when embedded in a high-degree context.  On the
        // standalone gadget Briggs succeeds (neighbors have low degree), so
        // we check the embedded variant separately in the gen crate; here we
        // check that brute force fully coalesces the gadget.
        let ag = permutation_gadget(4);
        let brute = conservative_coalesce(&ag, 4, ConservativeRule::BruteForce);
        assert_eq!(brute.stats.uncoalesced(), 0);
        assert!(greedy::is_greedy_k_colorable(
            &brute.coalescing.merged_graph,
            4
        ));
    }

    #[test]
    fn conservative_never_breaks_greedy_k_colorability() {
        let ag = permutation_gadget(3);
        for rule in [
            ConservativeRule::Briggs,
            ConservativeRule::George,
            ConservativeRule::BriggsGeorge,
            ConservativeRule::BruteForce,
        ] {
            let res = conservative_coalesce(&ag, 3, rule);
            assert!(
                greedy::is_greedy_k_colorable(&res.coalescing.merged_graph, 3),
                "{rule:?} broke greedy-3-colorability"
            );
        }
    }

    #[test]
    fn exact_conservative_on_figure_3_incremental_trap() {
        // Figure 3 (right): coalescing both (a, b) and (a, c) keeps the
        // graph greedy-3-colorable, but coalescing only (a, b) does not.
        //
        // Gadget: x-z, y-z, b-x, b-y, c-x, c-y, c-z, a-z.  Merging {a, b}
        // creates a vertex adjacent to x, y, z while c keeps x and y at high
        // degree: the residual {merged, x, y, z, c} subgraph has minimum
        // degree 3 and the greedy scheme is stuck.  Merging {a, b, c}
        // collapses b and c, which lowers the degrees of x and y back below
        // 3, so the graph peels.
        let mut g = Graph::new(6);
        let (a, b, c, x, y, z) = (v(0), v(1), v(2), v(3), v(4), v(5));
        g.add_edge(x, z);
        g.add_edge(y, z);
        g.add_edge(b, x);
        g.add_edge(b, y);
        g.add_edge(c, x);
        g.add_edge(c, y);
        g.add_edge(c, z);
        g.add_edge(a, z);
        assert!(greedy::is_greedy_k_colorable(&g, 3));
        // Coalescing only (a, b) breaks greedy-3-colorability...
        assert!(!brute_force_test(&g, 3, a, b));
        // ...but coalescing both (a, b) and (a, c) restores it.
        let mut both = g.clone();
        both.merge(a, b);
        both.merge(a, c);
        assert!(greedy::is_greedy_k_colorable(&both, 3));

        let ag = AffinityGraph::new(g, vec![Affinity::new(a, b), Affinity::new(a, c)]);
        let exact = conservative_exact(&ag, 3, true);
        let briggs = conservative_coalesce(&ag, 3, ConservativeRule::Briggs);
        // Exact finds the simultaneous solution; a purely incremental Briggs
        // pass cannot (each single merge is rejected or unsafe).
        assert_eq!(exact.stats.uncoalesced(), 0);
        assert!(exact.stats.coalesced_weight >= briggs.stats.coalesced_weight);
        assert!(greedy::is_greedy_k_colorable(
            &exact.coalescing.merged_graph,
            3
        ));
        assert_eq!(briggs.stats.coalesced, 0);
    }

    #[test]
    fn exact_with_plain_colorability_can_coalesce_more_than_greedy_target() {
        // A 4-cycle with k = 2 is 2-colorable but not greedy-2-colorable;
        // an isolated pair of affine vertices merged into it does not change
        // that.  Plain-colorability exact coalescing accepts solutions whose
        // merged graph is 2-colorable.
        let mut g = Graph::new(6);
        g.add_edge(v(0), v(1));
        g.add_edge(v(1), v(2));
        g.add_edge(v(2), v(3));
        g.add_edge(v(3), v(0));
        let ag = AffinityGraph::new(g, vec![Affinity::new(v(4), v(5))]);
        let plain = conservative_exact(&ag, 2, false);
        assert_eq!(plain.stats.uncoalesced(), 0);
        let greedy_target = conservative_exact(&ag, 2, true);
        // With the greedy-2-colorable requirement the whole instance is
        // infeasible (the C4 core is never greedy-2-colorable), so the
        // fallback keeps everything uncoalesced.
        assert!(greedy_target.stats.coalesced <= plain.stats.coalesced);
    }

    #[test]
    fn all_rules_respect_interference() {
        let mut g = Graph::new(3);
        g.add_edge(v(0), v(1));
        let ag = AffinityGraph::new(
            g,
            vec![Affinity::new(v(1), v(2)), Affinity::new(v(0), v(2))],
        );
        for rule in [
            ConservativeRule::Briggs,
            ConservativeRule::George,
            ConservativeRule::BriggsGeorge,
            ConservativeRule::BruteForce,
        ] {
            let mut res = conservative_coalesce(&ag, 2, rule);
            // 2 can join at most one of {0, 1}.
            assert!(res.stats.coalesced <= 1);
            let classes = res.coalescing.classes();
            for class in classes {
                let members: Vec<VertexId> = class.into_iter().collect();
                for (i, &x) in members.iter().enumerate() {
                    for &y in &members[i + 1..] {
                        assert!(!ag.graph.has_edge(x, y));
                    }
                }
            }
        }
    }
}
