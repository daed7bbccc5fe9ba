//! Affinity graphs and coalescing maps.
//!
//! An [`AffinityGraph`] is the object every coalescing problem of the paper
//! is stated on: an interference graph `G = (V, E)` together with a set of
//! weighted *affinities* `A` (the register-to-register moves).  A
//! [`Coalescing`] is the paper's function `f`: a partition of the vertices
//! into color classes such that no class contains an interference, tracked
//! incrementally as vertices are merged.

use coalesce_graph::{DisjointSets, Graph, VertexId};
use std::collections::BTreeSet;

/// A weighted affinity between two vertices of an interference graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity {
    /// One endpoint.
    pub a: VertexId,
    /// The other endpoint.
    pub b: VertexId,
    /// Benefit of coalescing the two endpoints (e.g. dynamic execution
    /// count of the move).
    pub weight: u64,
}

impl Affinity {
    /// Creates an affinity with weight 1.
    pub fn new(a: VertexId, b: VertexId) -> Self {
        Affinity { a, b, weight: 1 }
    }

    /// Creates a weighted affinity.
    pub fn weighted(a: VertexId, b: VertexId, weight: u64) -> Self {
        Affinity { a, b, weight }
    }
}

/// An interference graph together with its affinities.
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    /// The interference graph.
    pub graph: Graph,
    /// The affinities (coalescing candidates).
    pub affinities: Vec<Affinity>,
}

impl AffinityGraph {
    /// Creates an affinity graph from its two components.
    ///
    /// # Panics
    ///
    /// Panics if an affinity joins two interfering vertices — such a move
    /// can never be coalesced and the front end should not emit it as a
    /// candidate.  (The paper's constructions never produce one either.)
    pub fn new(graph: Graph, affinities: Vec<Affinity>) -> Self {
        for aff in &affinities {
            assert!(
                !graph.has_edge(aff.a, aff.b),
                "affinity between interfering vertices {} and {}",
                aff.a,
                aff.b
            );
        }
        AffinityGraph { graph, affinities }
    }

    /// Creates an affinity graph from an IR interference graph.
    pub fn from_interference(ig: &coalesce_ir::InterferenceGraph) -> Self {
        let affinities = ig
            .affinity_edges()
            .into_iter()
            .filter(|(a, b, _)| !ig.graph.has_edge(*a, *b))
            .map(|(a, b, weight)| Affinity { a, b, weight })
            .collect();
        AffinityGraph {
            graph: ig.graph.clone(),
            affinities,
        }
    }

    /// Total weight of all affinities (saturating at `u64::MAX`).
    pub fn total_weight(&self) -> u64 {
        self.affinities
            .iter()
            .fold(0, |sum, a| sum.saturating_add(a.weight))
    }

    /// Number of affinities.
    pub fn num_affinities(&self) -> usize {
        self.affinities.len()
    }

    /// Affinities sorted by decreasing weight (the priority order used by
    /// most heuristics: expensive moves first).
    pub fn affinities_by_weight(&self) -> Vec<Affinity> {
        let mut sorted = self.affinities.clone();
        sorted.sort_by(|x, y| {
            y.weight
                .cmp(&x.weight)
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        sorted
    }
}

/// The paper's coalescing function `f`, tracked as a partition of the
/// original vertices plus the contracted interference graph.
#[derive(Debug, Clone)]
pub struct Coalescing {
    /// The contracted graph: one live vertex per class, retaining the
    /// identifier of the class representative.
    pub merged_graph: Graph,
    classes: DisjointSets,
}

impl Coalescing {
    /// The identity coalescing (nothing merged yet).
    pub fn identity(graph: &Graph) -> Self {
        Coalescing {
            merged_graph: graph.clone(),
            classes: DisjointSets::new(graph.capacity()),
        }
    }

    /// Representative of the class of `v` (the surviving graph vertex).
    pub fn class_of(&mut self, v: VertexId) -> VertexId {
        VertexId::new(self.classes.find(v.index()))
    }

    /// Representative of the class of `v` without mutating internal state.
    pub fn class_of_immutable(&self, v: VertexId) -> VertexId {
        VertexId::new(self.classes.find_immutable(v.index()))
    }

    /// Returns `true` if `a` and `b` are in the same class.
    pub fn same_class(&mut self, a: VertexId, b: VertexId) -> bool {
        self.class_of(a) == self.class_of(b)
    }

    /// Returns `true` if coalescing `a` and `b` is currently possible: they
    /// are in different classes and their classes do not interfere.
    pub fn can_merge(&mut self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.class_of(a), self.class_of(b));
        ra != rb && !self.merged_graph.has_edge(ra, rb)
    }

    /// Coalesces `a` and `b` (merges their classes).  Returns the surviving
    /// representative, or `None` if the merge is impossible (same class is
    /// reported as `Some` of the common representative).
    pub fn merge(&mut self, a: VertexId, b: VertexId) -> Option<VertexId> {
        let (ra, rb) = (self.class_of(a), self.class_of(b));
        if ra == rb {
            return Some(ra);
        }
        if self.merged_graph.has_edge(ra, rb) {
            return None;
        }
        self.merged_graph.merge(ra, rb);
        self.classes.union_into(ra.index(), rb.index());
        // The one point every strategy funnels its accepted merges through.
        coalesce_stats::counter!("coalesce.merges_accepted");
        Some(ra)
    }

    /// The classes of the partition as sorted vertex sets, one per class
    /// (singleton classes included), restricted to vertices that are live in
    /// the *original* graph capacity.
    pub fn classes(&mut self) -> Vec<BTreeSet<VertexId>> {
        self.classes
            .groups()
            .into_iter()
            .map(|g| g.into_iter().map(VertexId::new).collect())
            .collect()
    }

    /// Statistics of this coalescing with respect to a set of affinities.
    pub fn stats(&mut self, affinities: &[Affinity]) -> CoalescingStats {
        let mut stats = CoalescingStats::default();
        for aff in affinities {
            stats.total += 1;
            stats.total_weight = stats.total_weight.saturating_add(aff.weight);
            if self.same_class(aff.a, aff.b) {
                stats.coalesced += 1;
                stats.coalesced_weight = stats.coalesced_weight.saturating_add(aff.weight);
            }
        }
        stats
    }
}

/// Summary of how many affinities (and how much weight) a coalescing
/// removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescingStats {
    /// Total number of affinities considered.
    pub total: usize,
    /// Number of coalesced affinities.
    pub coalesced: usize,
    /// Total affinity weight.
    pub total_weight: u64,
    /// Coalesced affinity weight.
    pub coalesced_weight: u64,
}

impl CoalescingStats {
    /// Number of affinities left uncoalesced.
    pub fn uncoalesced(&self) -> usize {
        self.total - self.coalesced
    }

    /// Weight of the affinities left uncoalesced.
    pub fn uncoalesced_weight(&self) -> u64 {
        self.total_weight - self.coalesced_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn identity_coalescing_has_everything_uncoalesced() {
        let g = Graph::with_edges(3, [(v(0), v(1))]);
        let affs = vec![Affinity::new(v(1), v(2)), Affinity::new(v(0), v(2))];
        let ag = AffinityGraph::new(g, affs.clone());
        let mut c = Coalescing::identity(&ag.graph);
        let stats = c.stats(&affs);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.uncoalesced(), 2);
    }

    #[test]
    #[should_panic(expected = "affinity between interfering")]
    fn affinity_on_interference_is_rejected() {
        let g = Graph::with_edges(2, [(v(0), v(1))]);
        AffinityGraph::new(g, vec![Affinity::new(v(0), v(1))]);
    }

    #[test]
    fn merge_updates_graph_and_classes() {
        // 0-1 interfere; 2 is affine to both.
        let g = Graph::with_edges(3, [(v(0), v(1))]);
        let mut c = Coalescing::identity(&g);
        assert!(c.can_merge(v(0), v(2)));
        let rep = c.merge(v(0), v(2)).unwrap();
        assert_eq!(rep, v(0));
        assert!(c.same_class(v(0), v(2)));
        // Now the class {0,2} interferes with 1 through 0.
        assert!(!c.can_merge(v(2), v(1)));
        assert_eq!(c.merge(v(2), v(1)), None);
    }

    #[test]
    fn merge_is_idempotent_on_same_class() {
        let g = Graph::new(3);
        let mut c = Coalescing::identity(&g);
        c.merge(v(0), v(1)).unwrap();
        assert_eq!(c.merge(v(1), v(0)), Some(v(0)));
        assert_eq!(c.merged_graph.num_vertices(), 2);
    }

    #[test]
    fn stats_account_for_weights() {
        let g = Graph::new(4);
        let affs = vec![
            Affinity::weighted(v(0), v(1), 10),
            Affinity::weighted(v(2), v(3), 5),
        ];
        let mut c = Coalescing::identity(&g);
        c.merge(v(0), v(1)).unwrap();
        let s = c.stats(&affs);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.coalesced_weight, 10);
        assert_eq!(s.uncoalesced_weight(), 5);
    }

    #[test]
    fn transitive_interference_blocks_merges() {
        // Coalescing 0-2 and then 2-4 merges {0,2,4}; if 4 interferes with
        // 1 and 1 interferes with 0, nothing blocks, but a direct edge
        // between any member of the class and 3 blocks 3 from joining.
        let g = Graph::with_edges(5, [(v(0), v(3))]);
        let mut c = Coalescing::identity(&g);
        c.merge(v(0), v(2)).unwrap();
        c.merge(v(2), v(4)).unwrap();
        assert!(!c.can_merge(v(4), v(3)));
    }

    #[test]
    fn affinities_by_weight_is_sorted_descending() {
        let g = Graph::new(4);
        let ag = AffinityGraph::new(
            g,
            vec![
                Affinity::weighted(v(0), v(1), 1),
                Affinity::weighted(v(1), v(2), 100),
                Affinity::weighted(v(2), v(3), 10),
            ],
        );
        let sorted = ag.affinities_by_weight();
        let weights: Vec<u64> = sorted.iter().map(|a| a.weight).collect();
        assert_eq!(weights, vec![100, 10, 1]);
    }

    #[test]
    fn from_interference_drops_interfering_affinities() {
        use coalesce_ir::function::FunctionBuilder;
        // y = x but x stays live: under the Intersection kind they interfere
        // and the affinity must be dropped.
        let mut b = FunctionBuilder::new("f");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.copy(entry, "y", x);
        b.ret(entry, &[x, y]);
        let f = b.finish();
        let live = coalesce_ir::Liveness::compute(&f);
        let ig = coalesce_ir::interference::InterferenceGraph::build_with(
            &f,
            &live,
            coalesce_ir::interference::BuildOptions {
                kind: coalesce_ir::interference::InterferenceKind::Intersection,
                ..Default::default()
            },
        );
        let ag = AffinityGraph::from_interference(&ig);
        assert!(ag.affinities.is_empty());
    }
}
