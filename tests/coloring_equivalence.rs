//! Equivalence suite for the coloring layer: the IRC allocator, Briggs'
//! test, biased select, the smallest-last peel and chordal coloring run
//! on the graph's own state (liveness of the working graph, one
//! [`ColorScratch`](coalesce_graph::coloring::ColorScratch) first-fit
//! kernel, one lazy-heap peel) instead of the `BTreeSet` shadow state and
//! duplicate loops they replaced.  [`reference`] keeps those versions
//! verbatim; every test asserts identical outputs on random graphs with
//! retired (merged or removed) vertices and random weighted affinities,
//! on the affinity graphs of every generator shape profile at every
//! pressure level, and on a sample of module functions.

use coalesce_alloc::biased::biased_select;
use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_core::conservative::briggs_test;
use coalesce_core::irc::{self, IrcResult};
use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::graphs::random_chordal_graph;
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
/// [`reference`] on `ag`, at each of `ks`.  Briggs' test runs on every
/// affinity pair and on every pair among the first 64 live vertices.
fn assert_same_coloring_layer(ag: &AffinityGraph, ks: &[usize]) {
    let g = &ag.graph;
    let order = greedy::smallest_last_order(g);
    assert_eq!(
        order,
        reference::smallest_last_order(g),
        "smallest-last order"
    );
    assert_eq!(
        greedy::coloring_number(g),
        reference::coloring_number(g),
        "coloring number"
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
        }
    }
    for &k in ks {
        assert_same_irc(ag, k);
        assert_same_biased(ag, k, &order);
        assert_same_biased(ag, k, &ascending);
    }
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
    let live: Vec<VertexId> = g.vertices().collect();
    let mut affinities = Vec::new();
    if live.len() >= 2 {
        for _ in 0..rng.gen_range(0..3 * live.len()) {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a != b && !g.has_edge(a, b) {
                affinities.push(Affinity::weighted(a, b, rng.gen_range(1..5u64)));
            }
        }
    }
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
