//! Clique machinery for general graphs: maximal clique enumeration
//! (Bron–Kerbosch with pivoting) and exact maximum clique, used when the
//! graph is not known to be chordal.

use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// Enumerates all maximal cliques of the live part of `g` using
/// Bron–Kerbosch with pivoting.
///
/// Exponential in the worst case; intended for the small instances used to
/// validate reductions.  For chordal graphs prefer
/// [`crate::chordal::chordal_maximal_cliques`], which is `O(V + E)` (the
/// Blair–Peyton enumeration off a single MCS sweep).
pub fn maximal_cliques(g: &Graph) -> Vec<BTreeSet<VertexId>> {
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    let mut cliques = Vec::new();
    let p: BTreeSet<VertexId> = g.vertices().collect();
    let r = BTreeSet::new();
    let x = BTreeSet::new();
    bron_kerbosch(g, r, p, x, &mut cliques);
    cliques
}

fn bron_kerbosch(
    g: &Graph,
    r: BTreeSet<VertexId>,
    mut p: BTreeSet<VertexId>,
    mut x: BTreeSet<VertexId>,
    out: &mut Vec<BTreeSet<VertexId>>,
) {
    if p.is_empty() && x.is_empty() {
        out.push(r);
        return;
    }
    // Pivot: vertex of P ∪ X with most neighbors in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| g.neighbors(u).filter(|v| p.contains(v)).count())
        .expect("P or X non-empty");
    let pivot_nbrs: BTreeSet<VertexId> = g.neighbors(pivot).collect();
    let candidates: Vec<VertexId> = p
        .iter()
        .copied()
        .filter(|v| !pivot_nbrs.contains(v))
        .collect();
    for v in candidates {
        let nbrs: BTreeSet<VertexId> = g.neighbors(v).collect();
        let mut r2 = r.clone();
        r2.insert(v);
        let p2: BTreeSet<VertexId> = p.intersection(&nbrs).copied().collect();
        let x2: BTreeSet<VertexId> = x.intersection(&nbrs).copied().collect();
        bron_kerbosch(g, r2, p2, x2, out);
        p.remove(&v);
        x.insert(v);
    }
}

/// Returns the clique number `ω(G)` of the live part of `g` (exponential
/// time for general graphs).
pub fn clique_number(g: &Graph) -> usize {
    maximal_cliques(g)
        .iter()
        .map(BTreeSet::len)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chordal;

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i.into(), j.into());
            }
        }
        g
    }

    fn cycle(n: usize) -> Graph {
        Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        )
    }

    #[test]
    fn clique_number_of_complete_graph() {
        assert_eq!(clique_number(&complete(5)), 5);
    }

    #[test]
    fn clique_number_of_cycle() {
        assert_eq!(clique_number(&cycle(3)), 3);
        assert_eq!(clique_number(&cycle(5)), 2);
    }

    #[test]
    fn maximal_cliques_of_path() {
        let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 2);
        assert!(cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn maximal_cliques_include_isolated_vertices() {
        let g = Graph::new(2);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 2);
        assert!(cliques.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn agrees_with_chordal_enumeration_on_chordal_graphs() {
        // Two triangles sharing an edge.
        let g = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        );
        let mut bk = maximal_cliques(&g);
        let mut ch = chordal::chordal_maximal_cliques(&g).unwrap();
        bk.sort();
        ch.sort();
        assert_eq!(bk, ch);
        assert_eq!(
            clique_number(&g),
            chordal::chordal_clique_number(&g).unwrap()
        );
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        assert!(maximal_cliques(&Graph::new(0)).is_empty());
        assert_eq!(clique_number(&Graph::new(0)), 0);
    }
}
