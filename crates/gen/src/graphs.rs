//! Random graph generators.

use coalesce_graph::{Graph, VertexId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Erdős–Rényi random graph `G(n, p)`.
pub fn random_graph(n: usize, p: f64, rng: &mut ChaCha8Rng) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(VertexId::new(i), VertexId::new(j));
            }
        }
    }
    g
}

/// Random interval graph on `n` vertices: each vertex is an interval with a
/// random start in `0..span` and a random length in `1..=max_len`.  Interval
/// graphs are chordal, so this doubles as a chordal-graph generator whose
/// clique number is the maximum interval overlap.
///
/// Edges are produced by a sweep over the intervals in start order
/// (`O(n log n + n·ω)` rather than the all-pairs `O(n²)`), so the
/// generator scales to the multi-thousand-vertex instances of the E5
/// sweep.  The random draws — and therefore the generated graph — are
/// identical to the old all-pairs implementation for any seed.
pub fn random_interval_graph(
    n: usize,
    span: usize,
    max_len: usize,
    rng: &mut ChaCha8Rng,
) -> (Graph, Vec<(usize, usize)>) {
    let span = span.max(1);
    let max_len = max_len.max(1);
    let intervals: Vec<(usize, usize)> = (0..n)
        .map(|_| {
            let start = rng.gen_range(0..span);
            let len = rng.gen_range(1..=max_len);
            (start, start + len)
        })
        .collect();
    // Sweep: visit intervals by increasing start; the active list holds
    // exactly the earlier-started intervals still covering the current
    // start, and each of them overlaps the new interval.  The overlap
    // pairs are collected into one flat list and handed to the bulk
    // `Graph::from_edges` constructor, so the multi-million-edge E5/E15
    // instances never pay a per-edge sorted insertion.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| intervals[i].0);
    let mut active: Vec<usize> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for &i in &order {
        let (start, _) = intervals[i];
        active.retain(|&j| intervals[j].1 >= start);
        for &j in &active {
            edges.push((VertexId::new(i), VertexId::new(j)));
        }
        active.push(i);
    }
    (Graph::from_edges(n, edges), intervals)
}

/// Random connected chordal graph built by the "add a vertex adjacent to a
/// random clique" process: vertex `i` is connected to a random clique of at
/// most `max_clique - 1` earlier vertices, which keeps the graph chordal
/// with clique number at most `max_clique`.
pub fn random_chordal_graph(n: usize, max_clique: usize, rng: &mut ChaCha8Rng) -> Graph {
    let mut g = Graph::new(n);
    // cliques[i] = a maximal clique the vertex i belongs to, as a seed for
    // later attachments.
    let mut cliques: Vec<Vec<VertexId>> = Vec::new();
    for i in 0..n {
        let vi = VertexId::new(i);
        if i == 0 {
            cliques.push(vec![vi]);
            continue;
        }
        // Pick an existing clique and a random subset of it.
        let base = &cliques[rng.gen_range(0..cliques.len())];
        let take = rng.gen_range(0..base.len().min(max_clique.saturating_sub(1)) + 1);
        let mut chosen: Vec<VertexId> = base.clone();
        while chosen.len() > take {
            let idx = rng.gen_range(0..chosen.len());
            chosen.swap_remove(idx);
        }
        for &u in &chosen {
            g.add_edge(vi, u);
        }
        chosen.push(vi);
        cliques.push(chosen);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_graph::{chordal, cliques};

    #[test]
    fn random_graph_respects_density_extremes() {
        let mut r = crate::rng(1);
        let empty = random_graph(10, 0.0, &mut r);
        assert_eq!(empty.num_edges(), 0);
        let full = random_graph(10, 1.0, &mut r);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn interval_graphs_are_chordal() {
        for seed in 0..10 {
            let mut r = crate::rng(seed);
            let (g, _) = random_interval_graph(20, 30, 6, &mut r);
            assert!(chordal::is_chordal(&g), "seed {seed}");
        }
    }

    #[test]
    fn chordal_generator_is_chordal_and_respects_clique_bound() {
        for seed in 0..10 {
            let mut r = crate::rng(seed);
            let g = random_chordal_graph(25, 4, &mut r);
            assert!(chordal::is_chordal(&g), "seed {seed}");
            assert!(cliques::clique_number(&g) <= 4, "seed {seed}");
        }
    }

    #[test]
    fn interval_sweep_matches_the_all_pairs_construction() {
        // The sweep-based edge construction must produce exactly the edge
        // set of the reference all-pairs overlap test, for every seed.
        for seed in 0..10 {
            let mut r = crate::rng(seed);
            let (g, intervals) = random_interval_graph(60, 90, 20, &mut r);
            let mut reference = Graph::new(intervals.len());
            for i in 0..intervals.len() {
                for j in i + 1..intervals.len() {
                    let (a1, b1) = intervals[i];
                    let (a2, b2) = intervals[j];
                    if a1.max(a2) <= b1.min(b2) {
                        reference.add_edge(VertexId::new(i), VertexId::new(j));
                    }
                }
            }
            let got: Vec<_> = g.edges().collect();
            let want: Vec<_> = reference.edges().collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn generators_scale_to_thousands_of_vertices() {
        // Both chordal-family generators must handle the multi-thousand
        // sizes the E5 sweep now uses.
        let mut r = crate::rng(3);
        let (g, _) = random_interval_graph(5000, 15000, 2502, &mut r);
        assert_eq!(g.num_vertices(), 5000);
        assert!(chordal::is_chordal(&g));
        let mut r = crate::rng(4);
        let h = random_chordal_graph(5000, 8, &mut r);
        assert_eq!(h.num_vertices(), 5000);
        assert!(chordal::is_chordal(&h));
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = random_graph(15, 0.3, &mut crate::rng(42));
        let b = random_graph(15, 0.3, &mut crate::rng(42));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }
}
