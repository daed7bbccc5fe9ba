//! Equivalence suite for the coloring layer: the IRC allocator, Briggs'
//! test, biased select, the smallest-last peel and chordal coloring run
//! on the graph's own state (liveness of the working graph, one
//! [`ColorScratch`](coalesce_graph::coloring::ColorScratch) first-fit
//! kernel, one tournament-tree peel) instead of the `BTreeSet` shadow
//! state and duplicate loops they replaced.  [`reference`] keeps those
//! versions verbatim; every test asserts identical outputs on random
//! graphs with retired (merged or removed) vertices and random weighted
//! affinities, on the affinity graphs of every generator shape profile at
//! every pressure level, and on a sample of module functions.  The
//! worklist IRC is also pinned on challenge instances, dense `G(n, p)` at
//! small `k`, and affinity chains and stars with repeated pairs.
//!
//! Briggs' and George's tests now read one two-pointer walk over the two
//! neighbor rows ([`merge_tests`]), and the smallest-last peel runs on a
//! tournament tree; [`scan_reference`] keeps the row scans and the
//! lazy-deletion heap they replaced verbatim, and the coloring-layer
//! check compares the walk's three verdicts, `george_test` in both
//! directions and the peel against them.

use coalesce_alloc::biased::biased_select;
use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_core::conservative::{briggs_test, george_test, merge_tests};
use coalesce_core::irc::{self, IrcResult};
use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::challenge::{challenge_instance, ChallengeParams};
use coalesce_gen::graphs::{random_chordal_graph, random_graph};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_graph::{chordal, greedy, Graph, VertexId};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::out_of_ssa::destruct_ssa;
use coalesce_ir::Function;
use proptest::prelude::*;
use rand::Rng;

/// The coloring-layer functions as they stood before the shadow state
/// was removed, copied verbatim.
mod reference {
    use coalesce_core::affinity::{AffinityGraph, Coalescing};
    use coalesce_core::conservative::george_test;
    use coalesce_core::irc::IrcResult;
    use coalesce_graph::chordal::perfect_elimination_ordering;
    use coalesce_graph::{Coloring, Graph, VertexId};
    use std::collections::BTreeSet;

    /// Runs the IRC-style allocation with `k` registers.
    pub fn allocate(ag: &AffinityGraph, k: usize) -> IrcResult {
        let mut coalescing = Coalescing::identity(&ag.graph);

        // Move-related representative pairs (kept up to date lazily).
        let moves: Vec<(VertexId, VertexId)> = ag.affinities.iter().map(|a| (a.a, a.b)).collect();

        // The select stack of class representatives, plus whether they were
        // pushed as potential spills.
        let mut stack: Vec<(VertexId, bool)> = Vec::new();
        // Representatives already removed from the working graph.
        let mut removed: BTreeSet<VertexId> = BTreeSet::new();
        // Frozen moves no longer considered for coalescing.
        let mut frozen: BTreeSet<usize> = BTreeSet::new();

        // Working copy of the merged graph; vertices are physically removed as
        // they are simplified so that degrees reflect the residual graph.
        let mut work = coalescing.merged_graph.clone();

        let is_move_related = |moves: &[(VertexId, VertexId)],
                               frozen: &BTreeSet<usize>,
                               coalescing: &mut Coalescing,
                               removed: &BTreeSet<VertexId>,
                               v: VertexId| {
            moves.iter().enumerate().any(|(i, &(a, b))| {
                if frozen.contains(&i) {
                    return false;
                }
                let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                ra != rb && !removed.contains(&ra) && !removed.contains(&rb) && (ra == v || rb == v)
            })
        };

        loop {
            // --- simplify ---
            let simplifiable = work.vertices().find(|&v| {
                work.degree(v) < k
                    && !is_move_related(&moves, &frozen, &mut coalescing, &removed, v)
            });
            if let Some(v) = simplifiable {
                work.remove_vertex(v);
                removed.insert(v);
                stack.push((v, false));
                continue;
            }

            // --- coalesce (Briggs, then George, both directions) ---
            let mut coalesced_something = false;
            for (i, &(a, b)) in moves.iter().enumerate() {
                if frozen.contains(&i) {
                    continue;
                }
                let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                if ra == rb || removed.contains(&ra) || removed.contains(&rb) {
                    continue;
                }
                if work.has_edge(ra, rb) {
                    // Constrained move: never coalescible; freeze it.
                    frozen.insert(i);
                    continue;
                }
                let ok = briggs_test(&work, k, ra, rb)
                    || george_test(&work, k, ra, rb)
                    || george_test(&work, k, rb, ra);
                if ok {
                    work.merge(ra, rb);
                    coalescing.merge(ra, rb);
                    coalesced_something = true;
                    break;
                }
            }
            if coalesced_something {
                continue;
            }

            // --- freeze ---
            let freezable = work.vertices().find(|&v| {
                work.degree(v) < k && is_move_related(&moves, &frozen, &mut coalescing, &removed, v)
            });
            if let Some(v) = freezable {
                for (i, &(a, b)) in moves.iter().enumerate() {
                    let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                    if ra == v || rb == v {
                        frozen.insert(i);
                    }
                }
                continue;
            }

            // --- potential spill ---
            let candidate = work.vertices().max_by_key(|&v| (work.degree(v), v.index()));
            match candidate {
                Some(v) => {
                    work.remove_vertex(v);
                    removed.insert(v);
                    stack.push((v, true));
                }
                None => break, // graph empty: done
            }
        }

        // --- select ---
        let full_graph = &coalescing.merged_graph;
        let mut coloring = Coloring::new(full_graph.capacity());
        let mut spilled_reps: Vec<VertexId> = Vec::new();
        while let Some((v, _potential)) = stack.pop() {
            let used: BTreeSet<usize> = full_graph
                .neighbors(v)
                .filter_map(|n| coloring.color_of(n))
                .collect();
            let color = (0..k).find(|c| !used.contains(c));
            match color {
                Some(c) => coloring.assign(v, c),
                None => spilled_reps.push(v),
            }
        }

        // Expand spilled representatives to original vertices.
        let mut spilled: Vec<VertexId> = Vec::new();
        for class in coalescing.classes() {
            let rep = coalescing.class_of(*class.iter().next().expect("non-empty class"));
            if spilled_reps.contains(&rep) {
                for v in class {
                    if ag.graph.is_live(v) {
                        spilled.push(v);
                    }
                }
            }
        }
        spilled.sort();
        spilled.dedup();

        let stats = coalescing.stats(&ag.affinities);
        IrcResult {
            coloring,
            coalescing,
            spilled,
            stats,
        }
    }

    /// Briggs' test on the *current* (partially coalesced) graph: the vertex
    /// obtained by merging `a` and `b` has fewer than `k` neighbors of
    /// significant degree (≥ `k`).
    pub fn briggs_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
        let mut significant = 0usize;
        let mut counted: std::collections::BTreeSet<VertexId> = std::collections::BTreeSet::new();
        for &x in [a, b].iter() {
            for n in graph.neighbors(x) {
                if n == a || n == b || !counted.insert(n) {
                    continue;
                }
                // Degree of n in the merged graph: if n is adjacent to both a and
                // b, merging reduces its degree by one.
                let mut degree = graph.degree(n);
                if graph.has_edge(n, a) && graph.has_edge(n, b) {
                    degree -= 1;
                }
                if degree >= k {
                    significant += 1;
                }
            }
        }
        significant < k
    }

    /// Result of a biased select pass.
    #[allow(dead_code)] // The two counters have no counterpart left to compare.
    #[derive(Debug, Clone)]
    pub struct BiasedSelect {
        /// The (partial) coloring produced; uncolorable vertices are absent.
        pub coloring: Coloring,
        /// Vertices that could not receive any of the `k` colors.
        pub uncolored: Vec<VertexId>,
        /// Number of affinities whose endpoints ended up with equal colors.
        pub moves_eliminated: usize,
        /// Number of affinities where the bias had to be overridden (the
        /// preferred color was forbidden by an interference).
        pub bias_blocked: usize,
    }

    /// Colors the vertices of `ag.graph` in `select_order` with at most `k`
    /// colors, preferring for each vertex a color already used by one of its
    /// affinity partners.
    ///
    /// Vertices for which no color is free are left uncolored and reported in
    /// [`BiasedSelect::uncolored`]; callers treat them as spills.
    pub fn biased_select(ag: &AffinityGraph, k: usize, select_order: &[VertexId]) -> BiasedSelect {
        let graph = &ag.graph;
        let mut coloring = Coloring::new(graph.capacity());
        let mut uncolored = Vec::new();
        let mut bias_blocked = 0usize;

        // Affinity partners of each vertex.
        let mut partners: Vec<Vec<VertexId>> = vec![Vec::new(); graph.capacity()];
        for aff in &ag.affinities {
            partners[aff.a.index()].push(aff.b);
            partners[aff.b.index()].push(aff.a);
        }

        for &v in select_order {
            let forbidden: BTreeSet<usize> = graph
                .neighbors(v)
                .filter_map(|n| coloring.color_of(n))
                .collect();
            // Preferred colors: those of already-colored affinity partners, by
            // decreasing total affinity weight towards that color.
            let mut preference: Vec<(u64, usize)> = Vec::new();
            for aff in &ag.affinities {
                let other = if aff.a == v {
                    Some(aff.b)
                } else if aff.b == v {
                    Some(aff.a)
                } else {
                    None
                };
                if let Some(other) = other {
                    if let Some(c) = coloring.color_of(other) {
                        if let Some(entry) = preference.iter_mut().find(|(_, pc)| *pc == c) {
                            entry.0 += aff.weight;
                        } else {
                            preference.push((aff.weight, c));
                        }
                    }
                }
            }
            preference.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

            let mut chosen = None;
            for &(_, c) in &preference {
                if c < k && !forbidden.contains(&c) {
                    chosen = Some(c);
                    break;
                }
            }
            if chosen.is_none() && !preference.is_empty() {
                bias_blocked += 1;
            }
            if chosen.is_none() {
                chosen = (0..k).find(|c| !forbidden.contains(c));
            }
            match chosen {
                Some(c) => coloring.assign(v, c),
                None => uncolored.push(v),
            }
        }

        let moves_eliminated = ag
            .affinities
            .iter()
            .filter(|aff| {
                matches!(
                    (coloring.color_of(aff.a), coloring.color_of(aff.b)),
                    (Some(ca), Some(cb)) if ca == cb
                )
            })
            .count();

        BiasedSelect {
            coloring,
            uncolored,
            moves_eliminated,
            bias_blocked,
        }
    }

    /// Computes the coloring number `col(G)`: the smallest `k` such that `g` is
    /// greedy-k-colorable, via a smallest-last ordering.
    ///
    /// For the empty graph this is 0; for a graph with vertices but no edges it
    /// is 1.
    pub fn coloring_number(g: &Graph) -> usize {
        if g.num_vertices() == 0 {
            return 0;
        }
        let cap = g.capacity();
        let mut degree = vec![0usize; cap];
        let mut present = vec![false; cap];
        for v in g.vertices() {
            degree[v.index()] = g.degree(v);
            present[v.index()] = true;
        }
        let mut col = 0usize;
        for _ in 0..g.num_vertices() {
            let v = g
                .vertices()
                .filter(|v| present[v.index()])
                .min_by_key(|v| (degree[v.index()], v.index()))
                .expect("live vertex remains");
            col = col.max(degree[v.index()] + 1);
            present[v.index()] = false;
            for u in g.neighbors(v) {
                if present[u.index()] {
                    degree[u.index()] -= 1;
                }
            }
        }
        col
    }

    /// Returns a smallest-last ordering of the live vertices: the order in which
    /// [`coloring_number`] removes them, **reversed** (so that greedily coloring
    /// in this order uses at most `col(G)` colors).
    pub fn smallest_last_order(g: &Graph) -> Vec<VertexId> {
        let cap = g.capacity();
        let mut degree = vec![0usize; cap];
        let mut present = vec![false; cap];
        for v in g.vertices() {
            degree[v.index()] = g.degree(v);
            present[v.index()] = true;
        }
        let mut removal = Vec::with_capacity(g.num_vertices());
        for _ in 0..g.num_vertices() {
            let v = g
                .vertices()
                .filter(|v| present[v.index()])
                .min_by_key(|v| (degree[v.index()], v.index()))
                .expect("live vertex remains");
            present[v.index()] = false;
            removal.push(v);
            for u in g.neighbors(v) {
                if present[u.index()] {
                    degree[u.index()] -= 1;
                }
            }
        }
        removal.reverse();
        removal
    }

    /// Optimally colors a **chordal** graph with `ω(G)` colors by coloring the
    /// vertices in reverse perfect elimination order, greedily.
    ///
    /// Returns `None` if `g` is not chordal.
    pub fn chordal_coloring(g: &Graph) -> Option<Coloring> {
        let order = perfect_elimination_ordering(g)?;
        let mut coloring = Coloring::new(g.capacity());
        // Epoch-stamped used-color scratch shared across the sweep: same
        // first-fit choice (hence byte-identical colorings) as the former
        // per-vertex `BTreeSet`, without the per-vertex allocation.
        let mut scratch = coalesce_graph::coloring::ColorScratch::new();
        for &v in order.iter().rev() {
            scratch.begin();
            for u in g.neighbors(v) {
                if let Some(c) = coloring.color_of(u) {
                    scratch.mark(c);
                }
            }
            coloring.assign(v, scratch.first_free());
        }
        Some(coloring)
    }
}

/// Briggs' and George's row scans and the lazy-deletion smallest-last
/// peel as they stood before the one-walk test and the tournament tree,
/// copied verbatim.
mod scan_reference {
    use coalesce_graph::{Graph, VertexId};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Briggs' test on the *current* (partially coalesced) graph: the vertex
    /// obtained by merging `a` and `b` has fewer than `k` neighbors of
    /// significant degree (≥ `k`).
    ///
    /// Each neighbor of the merged vertex is counted once: every neighbor of
    /// `a` other than `b`, then every neighbor of `b` other than `a` that `a`
    /// does not already reach.  A common neighbor loses one degree in the
    /// merged graph (its two edges become one).
    pub fn briggs_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
        let significant_of_a = graph
            .neighbors(a)
            .filter(|&n| n != b && graph.degree(n) - usize::from(graph.has_edge(n, b)) >= k)
            .count();
        let significant_of_b_only = graph
            .neighbors(b)
            .filter(|&n| n != a && !graph.has_edge(n, a) && graph.degree(n) >= k)
            .count();
        significant_of_a + significant_of_b_only < k
    }

    /// George's test on the current graph, in the direction "merge `a` into
    /// `b`": every neighbor of `a` with degree ≥ `k` is also a neighbor of `b`.
    pub fn george_test(graph: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
        graph
            .neighbors(a)
            .filter(|&n| n != b)
            .all(|n| graph.degree(n) < k || graph.has_edge(n, b))
    }

    /// The smallest-last peel shared by [`coloring_number`] and
    /// [`smallest_last_order`]: repeatedly removes the live vertex of minimum
    /// `(residual degree, id)`, returning the removal order and
    /// `1 + max` degree at removal (0 for the empty graph).
    ///
    /// The candidates sit in a lazy-deletion min-heap keyed on
    /// `(degree, id)`: degrees only fall, so a popped entry whose degree is
    /// stale (or whose vertex is gone) is skipped, and the first current entry
    /// is the minimum over the remaining vertices.
    fn smallest_last_peel(g: &Graph) -> (Vec<VertexId>, usize) {
        let cap = g.capacity();
        let mut degree = vec![0usize; cap];
        let mut present = vec![false; cap];
        let mut heap = BinaryHeap::with_capacity(g.num_vertices());
        for v in g.vertices() {
            degree[v.index()] = g.degree(v);
            present[v.index()] = true;
            heap.push(Reverse((degree[v.index()], v)));
        }
        let mut removal = Vec::with_capacity(g.num_vertices());
        let mut col = 0usize;
        while let Some(Reverse((d, v))) = heap.pop() {
            if !present[v.index()] || d != degree[v.index()] {
                continue;
            }
            col = col.max(d + 1);
            present[v.index()] = false;
            removal.push(v);
            for u in g.neighbors(v) {
                if present[u.index()] {
                    degree[u.index()] -= 1;
                    heap.push(Reverse((degree[u.index()], u)));
                }
            }
        }
        (removal, col)
    }

    /// Computes the coloring number `col(G)`: the smallest `k` such that `g` is
    /// greedy-k-colorable, via a smallest-last ordering.
    ///
    /// For the empty graph this is 0; for a graph with vertices but no edges it
    /// is 1.
    pub fn coloring_number(g: &Graph) -> usize {
        smallest_last_peel(g).1
    }

    /// Returns a smallest-last ordering of the live vertices: the order in which
    /// [`coloring_number`] removes them, **reversed** (so that greedily coloring
    /// in this order uses at most `col(G)` colors).
    pub fn smallest_last_order(g: &Graph) -> Vec<VertexId> {
        let mut removal = smallest_last_peel(g).0;
        removal.reverse();
        removal
    }
}

/// Asserts that [`irc::allocate`] and [`reference::allocate`] agree on
/// `ag` at `k`: per-vertex colors, the representative coloring, the
/// spilled vertices, the statistics and the coalescing classes.
fn assert_same_irc(ag: &AffinityGraph, k: usize) {
    let new: IrcResult = irc::allocate(ag, k);
    let old: IrcResult = reference::allocate(ag, k);
    for v in ag.graph.vertices() {
        assert_eq!(new.color_of(v), old.color_of(v), "color of {v} at k = {k}");
    }
    assert_eq!(new.coloring, old.coloring, "coloring at k = {k}");
    assert_eq!(new.spilled, old.spilled, "spilled at k = {k}");
    assert_eq!(new.stats, old.stats, "stats at k = {k}");
    let (mut new_classes, mut old_classes) = (new.coalescing, old.coalescing);
    assert_eq!(
        new_classes.classes(),
        old_classes.classes(),
        "classes at k = {k}"
    );
}

/// Asserts that [`biased_select`] and [`reference::biased_select`] color
/// the same vertices the same way along `order`.
fn assert_same_biased(ag: &AffinityGraph, k: usize, order: &[VertexId]) {
    let new = biased_select(ag, k, order);
    let old = reference::biased_select(ag, k, order);
    assert_eq!(new.coloring, old.coloring, "biased coloring at k = {k}");
    assert_eq!(new.uncolored, old.uncolored, "uncolored at k = {k}");
}

/// Asserts that every function of the coloring layer agrees with
/// [`reference`] and [`scan_reference`] on `ag`, at each of `ks`.
/// Briggs' and George's tests run on every affinity pair and on every
/// pair among the first 64 live vertices.
fn assert_same_coloring_layer(ag: &AffinityGraph, ks: &[usize]) {
    let g = &ag.graph;
    let order = greedy::smallest_last_order(g);
    assert_eq!(
        order,
        reference::smallest_last_order(g),
        "smallest-last order"
    );
    assert_eq!(
        order,
        scan_reference::smallest_last_order(g),
        "smallest-last order against the lazy heap"
    );
    assert_eq!(
        greedy::coloring_number(g),
        reference::coloring_number(g),
        "coloring number"
    );
    assert_eq!(
        greedy::coloring_number(g),
        scan_reference::coloring_number(g),
        "coloring number against the lazy heap"
    );
    assert_eq!(
        chordal::chordal_coloring(g),
        reference::chordal_coloring(g),
        "chordal coloring"
    );
    let ascending: Vec<VertexId> = g.vertices().collect();
    let sample = &ascending[..ascending.len().min(64)];
    let pairs = ag
        .affinities
        .iter()
        .map(|aff| (aff.a, aff.b))
        .chain(sample.iter().flat_map(|&a| {
            sample
                .iter()
                .filter(move |&&b| b != a)
                .map(move |&b| (a, b))
        }));
    for (a, b) in pairs {
        for &k in ks {
            assert_eq!(
                briggs_test(g, k, a, b),
                reference::briggs_test(g, k, a, b),
                "Briggs on ({a}, {b}) at k = {k}"
            );
            assert_same_merge_tests(g, k, a, b);
        }
    }
    for &k in ks {
        assert_same_irc(ag, k);
        assert_same_biased(ag, k, &order);
        assert_same_biased(ag, k, &ascending);
    }
}

/// Asserts that the one-walk [`merge_tests`] and [`george_test`] in both
/// directions give the verdicts of the [`scan_reference`] row scans on
/// merging `a` and `b` at `k`.
fn assert_same_merge_tests(g: &Graph, k: usize, a: VertexId, b: VertexId) {
    let walk = merge_tests(g, k, a, b);
    let briggs = scan_reference::briggs_test(g, k, a, b);
    let (a_into_b, b_into_a) = (
        scan_reference::george_test(g, k, a, b),
        scan_reference::george_test(g, k, b, a),
    );
    let at = format!("({a}, {b}) at k = {k}");
    assert_eq!(walk.briggs, briggs, "walk's Briggs on {at}");
    assert_eq!(walk.george_a_into_b, a_into_b, "walk's George a→b on {at}");
    assert_eq!(walk.george_b_into_a, b_into_a, "walk's George b→a on {at}");
    assert_eq!(
        walk.briggs_or_george(),
        briggs || a_into_b || b_into_a,
        "walk's Briggs+George on {at}"
    );
    assert_eq!(george_test(g, k, a, b), a_into_b, "George a→b on {at}");
    assert_eq!(george_test(g, k, b, a), b_into_a, "George b→a on {at}");
}

/// Up to `count` weighted affinities between random non-adjacent pairs of
/// `g`'s live vertices.
fn random_affinities(g: &Graph, count: usize, rng: &mut impl Rng) -> Vec<Affinity> {
    let live: Vec<VertexId> = g.vertices().collect();
    if live.len() < 2 {
        return Vec::new();
    }
    (0..count)
        .filter_map(|_| {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            (a != b && !g.has_edge(a, b)).then(|| Affinity::weighted(a, b, rng.gen_range(1..5u64)))
        })
        .collect()
}

/// A random graph with some vertices merged away and some removed, plus
/// random weighted affinities between non-adjacent live vertices.  Small
/// weights and repeated pairs make equal-weight preferences common.
fn random_instance(seed: u64) -> AffinityGraph {
    let mut rng = coalesce_gen::rng(seed);
    let n = rng.gen_range(2..40usize);
    let density = f64::from(rng.gen_range(1..60u32)) / 100.0;
    let mut g = coalesce_gen::graphs::random_graph(n, density, &mut rng);
    for _ in 0..rng.gen_range(0..=n / 4) {
        let a = VertexId::new(rng.gen_range(0..n));
        let b = VertexId::new(rng.gen_range(0..n));
        if a != b && g.is_live(a) && g.is_live(b) && !g.has_edge(a, b) {
            g.merge(a, b);
        }
    }
    for _ in 0..rng.gen_range(0..=n / 4) {
        let v = VertexId::new(rng.gen_range(0..n));
        if g.is_live(v) {
            g.remove_vertex(v);
        }
    }
    let live = g.num_vertices();
    let affinities = if live >= 2 {
        let count = rng.gen_range(0..3 * live);
        random_affinities(&g, count, &mut rng)
    } else {
        Vec::new()
    };
    AffinityGraph::new(g, affinities)
}

/// The SSA interference graph of `f` (φ affinities) and that of its
/// out-of-SSA lowering (copy affinities), each with the register counts
/// the allocators meet: a starved 2, `tight_k` and `Maxlive`.
fn function_instances(f: &Function) -> Vec<(AffinityGraph, Vec<usize>)> {
    let mut lowered = f.clone();
    destruct_ssa(&mut lowered);
    [f, &lowered]
        .into_iter()
        .map(|f| {
            let live = Liveness::compute(f);
            let maxlive = live.maxlive_precise(f);
            let ag = AffinityGraph::from_interference(&InterferenceGraph::build(f, &live));
            let ks = vec![2, coalesce_ir::spill::tight_k(maxlive), maxlive];
            (ag, ks)
        })
        .collect()
}

/// Affinity chains and stars over a sparse random graph, every link
/// repeated up to three times in either direction: accepted merges chain
/// classes together, so later moves reach their ends through multi-way
/// merged representatives and freezes meet moves that are already
/// internal to a class.
fn chain_and_star_instance(seed: u64) -> AffinityGraph {
    let mut rng = coalesce_gen::rng(seed);
    let n = rng.gen_range(4..40usize);
    let density = f64::from(rng.gen_range(0..30u32)) / 100.0;
    let g = random_graph(n, density, &mut rng);
    let mut links = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        // A chain along a random walk of vertex ids.
        let mut at = rng.gen_range(0..n);
        for _ in 0..rng.gen_range(2..n) {
            let next = rng.gen_range(0..n);
            links.push((at, next));
            at = next;
        }
        // A star around a random center.
        let center = rng.gen_range(0..n);
        for _ in 0..rng.gen_range(2..n) {
            links.push((center, rng.gen_range(0..n)));
        }
    }
    let mut affinities = Vec::new();
    for (a, b) in links {
        let (a, b) = (VertexId::new(a), VertexId::new(b));
        if a == b || g.has_edge(a, b) {
            continue;
        }
        for _ in 0..rng.gen_range(1..=3) {
            let weight = rng.gen_range(1..4u64);
            let (x, y) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            affinities.push(Affinity::weighted(x, y, weight));
        }
    }
    AffinityGraph::new(g, affinities)
}

/// The serve traffic: challenge instances at the register count they
/// target, and starved at one and two registers.
#[test]
fn irc_matches_the_reference_on_challenge_instances() {
    for i in 0..24u64 {
        let params = ChallengeParams::at_scale(24 + 8 * (i as usize % 6), 3 + i as usize % 4);
        let inst = challenge_instance(&params, &mut coalesce_gen::rng(0x6368 ^ i));
        for k in [inst.registers, 1, 2] {
            assert_same_irc(&inst.affinity_graph, k);
        }
    }
}

/// Dense `G(n, p)` at small `k`: most vertices stay significant, so the
/// freeze and potential-spill steps run often.
#[test]
fn irc_matches_the_reference_on_dense_graphs() {
    let mut rng = coalesce_gen::rng(0x6465_6e73);
    for _ in 0..120 {
        let n = rng.gen_range(2..=60usize);
        let p = f64::from(rng.gen_range(30..90u32)) / 100.0;
        let g = random_graph(n, p, &mut rng);
        let count = rng.gen_range(0..2 * n);
        let affinities = random_affinities(&g, count, &mut rng);
        let ag = AffinityGraph::new(g, affinities);
        for k in 1..=5 {
            assert_same_irc(&ag, k);
        }
    }
}

#[test]
fn irc_matches_the_reference_on_affinity_chains_and_stars() {
    for seed in 0..300 {
        let ag = chain_and_star_instance(seed);
        for k in 1..=4 {
            assert_same_irc(&ag, k);
        }
    }
}

#[test]
fn coloring_layer_matches_the_reference_on_every_cfg_profile() {
    for (i, profile) in ShapeProfile::ALL.into_iter().enumerate() {
        for (j, level) in PressureLevel::ALL.into_iter().enumerate() {
            let params = profile.params(level.pressure());
            let f = generate(
                &params,
                &mut coalesce_gen::rng(41 + 3 * i as u64 + j as u64),
            );
            for (ag, ks) in function_instances(&f) {
                assert_same_coloring_layer(&ag, &ks);
            }
        }
    }
}

#[test]
fn coloring_layer_matches_the_reference_on_module_functions() {
    for spec in module_specs(&ModuleParams { functions: 12 }, 42) {
        for (ag, ks) in function_instances(&spec.generate()) {
            assert_same_coloring_layer(&ag, &ks);
        }
    }
}

#[test]
fn chordal_coloring_matches_the_reference_on_chordal_graphs() {
    let mut rng = coalesce_gen::rng(7);
    for n in [0, 1, 5, 20, 60, 150] {
        let g: Graph = random_chordal_graph(n, 8, &mut rng);
        let coloring = chordal::chordal_coloring(&g);
        assert!(coloring.is_some(), "n = {n}");
        assert_eq!(coloring, reference::chordal_coloring(&g), "n = {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coloring_layer_matches_the_reference_on_random_graphs(seed in 0u64..1_000_000) {
        let ag = random_instance(seed);
        assert_same_coloring_layer(&ag, &[0, 1, 2, 3, 4, 6]);
    }
}
