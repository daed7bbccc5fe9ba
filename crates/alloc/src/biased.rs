//! Biased coloring: a select phase that removes moves for free.
//!
//! §1 of the paper lists "smarter coloring schemes favoring more
//! coalescing, such as biased coloring" among the refinements of
//! Chaitin-like allocators.  Biased coloring does not merge vertices at
//! all: during the select phase it simply *prefers*, for a move-related
//! vertex, a color already given to one of its affinity partners.  Every
//! move whose two ends happen to land on the same color disappears without
//! ever risking the colorability of the graph, which makes the technique a
//! useful complement to (not a replacement for) conservative coalescing.
//!
//! The entry point [`biased_select`] colors an [`AffinityGraph`] along a
//! caller-provided select order (the two-phase allocator passes
//! [`coalesce_graph::greedy::smallest_last_order`]), with `k` colors, and
//! reports which vertices could not be colored.  Each vertex reads its
//! preferences from its own `(partner, weight)` list and its forbidden
//! colors from the shared [`ColorScratch`] of the first-fit sweeps, so a
//! step costs its degree plus its affinity count.

use coalesce_core::affinity::AffinityGraph;
use coalesce_graph::coloring::ColorScratch;
use coalesce_graph::{Coloring, VertexId};

/// Result of a biased select pass.
#[derive(Debug, Clone)]
pub struct BiasedSelect {
    /// The (partial) coloring produced; uncolorable vertices are absent.
    pub coloring: Coloring,
    /// Vertices that could not receive any of the `k` colors.
    pub uncolored: Vec<VertexId>,
}

/// Colors the vertices of `ag.graph` in `select_order` with at most `k`
/// colors, preferring for each vertex a color already used by one of its
/// affinity partners.
///
/// The preferred color is the one with the largest total affinity weight
/// towards the vertex's colored partners (ties to the smaller color) that
/// no neighbor holds; without one, the vertex takes the first free color.
/// Vertices for which no color is free are left uncolored and reported in
/// [`BiasedSelect::uncolored`]; callers treat them as spills.
pub fn biased_select(ag: &AffinityGraph, k: usize, select_order: &[VertexId]) -> BiasedSelect {
    let graph = &ag.graph;
    let mut coloring = Coloring::new(graph.capacity());
    let mut uncolored = Vec::new();

    // Affinity partners of each vertex, with the affinity weight (a
    // self-affinity lists its vertex once).
    let mut partners: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); graph.capacity()];
    for aff in &ag.affinities {
        partners[aff.a.index()].push((aff.b, aff.weight));
        if aff.b != aff.a {
            partners[aff.b.index()].push((aff.a, aff.weight));
        }
    }

    let mut forbidden = ColorScratch::new();
    let mut preference: Vec<(u64, usize)> = Vec::new();
    for &v in select_order {
        forbidden.begin();
        for n in graph.neighbors(v) {
            if let Some(c) = coloring.color_of(n) {
                forbidden.mark(c);
            }
        }
        // Preferred colors: those of already-colored affinity partners, by
        // decreasing total affinity weight towards that color.
        preference.clear();
        for &(other, weight) in &partners[v.index()] {
            if let Some(c) = coloring.color_of(other) {
                match preference.iter_mut().find(|(_, pc)| *pc == c) {
                    Some(entry) => entry.0 += weight,
                    None => preference.push((weight, c)),
                }
            }
        }
        let chosen = preference
            .iter()
            .filter(|&&(_, c)| c < k && !forbidden.is_marked(c))
            .min_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
            .map(|&(_, c)| c)
            .or_else(|| Some(forbidden.first_free()).filter(|&c| c < k));
        match chosen {
            Some(c) => coloring.assign(v, c),
            None => uncolored.push(v),
        }
    }

    BiasedSelect {
        coloring,
        uncolored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_core::affinity::Affinity;
    use coalesce_graph::{greedy, Graph};

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Biased select in smallest-last order, the order the two-phase
    /// allocator uses.
    fn biased_coloring(ag: &AffinityGraph, k: usize) -> BiasedSelect {
        biased_select(ag, k, &greedy::smallest_last_order(&ag.graph))
    }

    /// Affinities whose two endpoints ended up with the same color.
    fn moves_eliminated(ag: &AffinityGraph, result: &BiasedSelect) -> usize {
        ag.affinities
            .iter()
            .filter(|aff| {
                matches!(
                    (result.coloring.color_of(aff.a), result.coloring.color_of(aff.b)),
                    (Some(ca), Some(cb)) if ca == cb
                )
            })
            .count()
    }

    #[test]
    fn bias_gives_affinity_partners_the_same_color_when_possible() {
        // 0 - 1 interfere; 2 is affine to 0 and interferes with 1.
        let g = Graph::with_edges(3, [(v(0), v(1)), (v(1), v(2))]);
        let ag = AffinityGraph::new(g, vec![Affinity::new(v(0), v(2))]);
        let result = biased_coloring(&ag, 2);
        assert!(result.uncolored.is_empty());
        assert_eq!(moves_eliminated(&ag, &result), 1);
        assert_eq!(
            result.coloring.color_of(v(0)),
            result.coloring.color_of(v(2))
        );
    }

    #[test]
    fn unbiased_is_never_worse_than_zero_moves() {
        // With no affinities the pass degenerates to plain greedy select.
        let g = Graph::with_edges(3, [(v(0), v(1)), (v(1), v(2)), (v(0), v(2))]);
        let ag = AffinityGraph::new(g, vec![]);
        let result = biased_coloring(&ag, 3);
        assert!(result.uncolored.is_empty());
        assert_eq!(moves_eliminated(&ag, &result), 0);
        assert!(result.coloring.is_proper(&ag.graph));
    }

    #[test]
    fn bias_is_overridden_when_the_preferred_color_is_forbidden() {
        // 0 and 2 are affine but both interfere with each other's only free
        // color through vertex 1: force a blocked bias.
        // Graph: 0-1, 1-2, 0-2 is NOT an edge but 2 also interferes with 3
        // which will take the color of 0.
        let g = Graph::with_edges(4, [(v(0), v(1)), (v(1), v(2)), (v(2), v(3)), (v(0), v(2))]);
        let ag = AffinityGraph::new(g, vec![Affinity::new(v(0), v(3))]);
        let result = biased_select(&ag, 2, &[v(0), v(1), v(2), v(3)]);
        // 0 -> color 0, 1 -> color 1, 2 -> color 0 is forbidden (edge 0-2),
        // so 2 -> ... wait for k = 2: 2 is adjacent to 0 (c0) and 1 (c1): no
        // color left, so 2 is uncolored; 3 prefers 0's color 0 and its only
        // colored neighbor is 2 (uncolored), so the bias succeeds.
        assert_eq!(result.coloring.color_of(v(0)), Some(0));
        assert_eq!(result.coloring.color_of(v(3)), Some(0));
        assert_eq!(moves_eliminated(&ag, &result), 1);
        assert_eq!(result.uncolored, vec![v(2)]);
    }

    #[test]
    fn coloring_is_always_proper_on_the_colored_part() {
        let g = Graph::with_edges(
            6,
            [
                (v(0), v(1)),
                (v(1), v(2)),
                (v(2), v(3)),
                (v(3), v(4)),
                (v(4), v(5)),
                (v(5), v(0)),
                (v(0), v(3)),
            ],
        );
        let ag = AffinityGraph::new(
            g,
            vec![Affinity::new(v(1), v(4)), Affinity::new(v(2), v(5))],
        );
        let result = biased_coloring(&ag, 3);
        assert!(result.uncolored.is_empty());
        assert!(result.coloring.is_proper(&ag.graph));
    }

    #[test]
    fn weight_breaks_ties_between_preferred_colors() {
        // Vertex 4 is affine to 0 (weight 1, color 0) and to 1 (weight 10,
        // color 1); it must prefer color 1.
        let g = Graph::with_edges(5, [(v(0), v(1)), (v(2), v(3))]);
        let ag = AffinityGraph::new(
            g,
            vec![
                Affinity::weighted(v(4), v(0), 1),
                Affinity::weighted(v(4), v(1), 10),
            ],
        );
        let result = biased_select(&ag, 2, &[v(0), v(1), v(2), v(3), v(4)]);
        assert_eq!(
            result.coloring.color_of(v(1)),
            result.coloring.color_of(v(4))
        );
        assert_eq!(moves_eliminated(&ag, &result), 1);
    }
}
