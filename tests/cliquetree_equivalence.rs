//! Equivalence and fuzz suite for the linear (Blair–Peyton) clique-tree
//! pipeline and the hardened DIMACS/challenge parsers.
//!
//! The Blair–Peyton construction replaced a quadratic pipeline (subset
//! checks between candidate cliques + all-pairs Kruskal); these tests pin
//! the new construction to the old one's observable behavior: the same
//! maximal-clique set, a tree with the junction property, and the same
//! clique number.  A second pin holds the flat clique storage and
//! the in-place rebuild to the `BTreeSet` layout they replaced, kept
//! verbatim in [`reference`]: same visit order, cliques, tree edges,
//! path intervals, Theorem-5 answers and strategy results.  The
//! reference keeps the Tarjan–Yannakakis chordality pass the sweep no
//! longer runs (its cliques certify chordality instead), so the verdict is
//! also pinned on non-chordal graphs: random `G(n, p)`, chorded cycles,
//! and graphs after vertex removals and merges.  The parser fuzz covers
//! duplicate problem lines, self-loops and truncated files, which must all
//! be rejected instead of silently mangling the instance.

use coalesce_core::affinity::AffinityGraph;
use coalesce_core::chordal_strategy::{chordal_conservative_coalesce, ChordalMode};
use coalesce_core::incremental::PreparedChordal;
use coalesce_gen::graphs::{random_chordal_graph, random_interval_graph};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_graph::cliquetree::CliqueTree;
use coalesce_graph::format::{from_challenge, from_dimacs, to_challenge, to_dimacs, ChallengeFile};
use coalesce_graph::{chordal, Graph, VertexId};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

/// The `BTreeSet`-based clique forest, clique tree, Theorem-5 query and
/// chordal strategy as they stood before the flat layout, copied
/// verbatim (the strategy additionally reports each graph state it
/// prepares a session for).
mod reference {
    use coalesce_core::affinity::{AffinityGraph, Coalescing};
    use coalesce_core::chordal_strategy::{ChordalMode, ChordalStrategyResult};
    use coalesce_core::incremental::IncrementalAnswer;
    use coalesce_graph::{fillin, Graph, VertexId};
    use std::collections::BTreeSet;

    pub struct CliqueForest {
        pub visit_order: Vec<VertexId>,
        pub chordal: bool,
        pub cliques: Vec<BTreeSet<VertexId>>,
        pub tree_edges: Vec<(usize, usize)>,
    }

    pub fn mcs_clique_forest(g: &Graph) -> CliqueForest {
        let cap = g.capacity();
        let n = g.num_vertices();
        let mut weight = vec![0usize; cap];
        let mut visited = vec![false; cap];
        let mut visit_pos = vec![usize::MAX; cap];
        let mut clique_of = vec![usize::MAX; cap];
        let mut visit_order: Vec<VertexId> = Vec::with_capacity(n);
        let mut cliques: Vec<BTreeSet<VertexId>> = Vec::new();
        let mut tree_edges: Vec<(usize, usize)> = Vec::new();

        // buckets[w] holds candidates whose weight may be w; a vertex's entry
        // in buckets[weight(v)] is always valid, older entries are stale.
        let mut buckets: Vec<Vec<VertexId>> = vec![g.vertices().collect()];
        let mut max_w = 0usize;
        // Visited-neighbor count of the previously visited vertex; MAX is the
        // "no previous vertex" sentinel so the first vertex starts a clique.
        let mut prev_card = usize::MAX;
        // Pops (valid and stale) plus pushes; reported once at the end so the
        // hot loop only touches a local.
        let mut bucket_ops: u64 = 0;

        while visit_order.len() < n {
            let v = loop {
                match buckets[max_w].pop() {
                    Some(c) if !visited[c.index()] && weight[c.index()] == max_w => {
                        bucket_ops += 1;
                        break c;
                    }
                    Some(_) => {
                        bucket_ops += 1;
                        continue; // stale entry
                    }
                    None => max_w -= 1, // bucket exhausted; the max can only drop
                }
            };
            visited[v.index()] = true;
            visit_pos[v.index()] = visit_order.len();
            visit_order.push(v);
            let card = weight[v.index()];

            if prev_card == usize::MAX || card <= prev_card {
                // M(v): the already-visited neighbors, and the one visited
                // last (only clique starters need the set materialised).
                let mut m_last: Option<VertexId> = None;
                let mut m_v: Vec<VertexId> = Vec::with_capacity(card);
                for u in g.neighbors(v) {
                    if visited[u.index()] && u != v {
                        m_v.push(u);
                        if m_last.is_none_or(|l| visit_pos[u.index()] > visit_pos[l.index()]) {
                            m_last = Some(u);
                        }
                    }
                }
                debug_assert_eq!(m_v.len(), card);
                // v begins a new clique C_s = M(v) ∪ {v}.
                let s = cliques.len();
                match m_last {
                    // Tree edge to the clique of the most recent M(v) member;
                    // M(v) (the separator) is contained in that clique.
                    Some(last) => tree_edges.push((s, clique_of[last.index()])),
                    // New connected component: stitch it to the previous
                    // clique so the forest stays one tree (empty separator).
                    None if s > 0 => tree_edges.push((s, s - 1)),
                    None => {}
                }
                let mut clique: BTreeSet<VertexId> = m_v.iter().copied().collect();
                clique.insert(v);
                cliques.push(clique);
            } else {
                // v joins the clique under construction.
                cliques
                    .last_mut()
                    .expect("a clique exists once a vertex was visited")
                    .insert(v);
            }
            clique_of[v.index()] = cliques.len() - 1;
            prev_card = card;

            // Bump the unvisited neighbors' weights into their new buckets.
            for u in g.neighbors(v) {
                if !visited[u.index()] {
                    let w = weight[u.index()] + 1;
                    weight[u.index()] = w;
                    if w >= buckets.len() {
                        buckets.resize(w + 1, Vec::new());
                    }
                    buckets[w].push(u);
                    bucket_ops += 1;
                }
            }
            // The maximum weight can rise by at most one per visit.
            if max_w + 1 < buckets.len() {
                max_w += 1;
            }
        }

        // Tarjan–Yannakakis chordality test over the elimination order (the
        // reverse of the visit order).  Each vertex defers its later
        // (earlier-visited) neighborhood minus its parent to that parent,
        // which must contain the deferred set in its own neighborhood; a
        // timestamped bitmap makes every membership test O(1), so the whole
        // pass is O(V + E) with no per-edge set lookups.
        let mut chordal = true;
        let mut mark = vec![usize::MAX; cap];
        let mut deferred: Vec<Vec<VertexId>> = vec![Vec::new(); cap];
        'elimination: for i in (0..n).rev() {
            let v = visit_order[i];
            for u in g.neighbors(v) {
                mark[u.index()] = i;
            }
            for w in deferred[v.index()].drain(..) {
                if mark[w.index()] != i {
                    chordal = false;
                    break 'elimination;
                }
            }
            // Parent: the most recently visited member of M(v).
            let mut parent: Option<VertexId> = None;
            for u in g.neighbors(v) {
                if visit_pos[u.index()] < i
                    && parent.is_none_or(|p| visit_pos[u.index()] > visit_pos[p.index()])
                {
                    parent = Some(u);
                }
            }
            if let Some(p) = parent {
                for u in g.neighbors(v) {
                    if visit_pos[u.index()] < i && u != p {
                        deferred[p.index()].push(u);
                    }
                }
            }
        }

        coalesce_stats::counter!("mcs.bucket_ops", bucket_ops);
        coalesce_stats::counter!("cliquetree.nodes", cliques.len() as u64);

        CliqueForest {
            visit_order,
            chordal,
            cliques,
            tree_edges,
        }
    }

    pub struct CliqueTree {
        cliques: Vec<BTreeSet<VertexId>>,
        adjacency: Vec<Vec<usize>>,
        containing: Vec<Vec<usize>>,
    }

    impl CliqueTree {
        pub fn build(g: &Graph) -> Option<Self> {
            let forest = mcs_clique_forest(g);
            if !forest.chordal {
                return None;
            }
            let cliques = forest.cliques;
            let mut adjacency = vec![Vec::new(); cliques.len()];
            for &(a, b) in &forest.tree_edges {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
            let mut containing = vec![Vec::new(); g.capacity()];
            for (i, clique) in cliques.iter().enumerate() {
                for &v in clique {
                    containing[v.index()].push(i);
                }
            }
            Some(CliqueTree {
                cliques,
                adjacency,
                containing,
            })
        }

        pub fn num_nodes(&self) -> usize {
            self.cliques.len()
        }

        pub fn clique(&self, i: usize) -> &BTreeSet<VertexId> {
            &self.cliques[i]
        }

        pub fn neighbors(&self, i: usize) -> &[usize] {
            &self.adjacency[i]
        }

        pub fn clique_number(&self) -> usize {
            self.cliques.iter().map(BTreeSet::len).max().unwrap_or(0)
        }

        pub fn nodes_containing(&self, v: VertexId) -> &[usize] {
            self.containing
                .get(v.index())
                .map_or(&[], |nodes| nodes.as_slice())
        }

        pub fn any_node_containing(&self, v: VertexId) -> Option<usize> {
            self.nodes_containing(v).first().copied()
        }

        pub fn path_between(&self, from: usize, to: usize) -> Vec<usize> {
            assert!(from < self.num_nodes() && to < self.num_nodes());
            if from == to {
                return vec![from];
            }
            // BFS parent pointers.
            let mut parent = vec![usize::MAX; self.num_nodes()];
            let mut queue = std::collections::VecDeque::new();
            parent[from] = from;
            queue.push_back(from);
            while let Some(n) = queue.pop_front() {
                if n == to {
                    break;
                }
                for &m in &self.adjacency[n] {
                    if parent[m] == usize::MAX {
                        parent[m] = n;
                        queue.push_back(m);
                    }
                }
            }
            assert!(parent[to] != usize::MAX, "clique tree must be connected");
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            path
        }

        pub fn intervals_on_path(&self, path: &[usize]) -> Vec<(VertexId, usize, usize)> {
            use std::collections::BTreeMap;
            let mut first_last: BTreeMap<VertexId, (usize, usize)> = BTreeMap::new();
            for (pos, &node) in path.iter().enumerate() {
                for &v in &self.cliques[node] {
                    first_last
                        .entry(v)
                        .and_modify(|fl| fl.1 = pos)
                        .or_insert((pos, pos));
                }
            }
            first_last
                .into_iter()
                .map(|(v, (a, b))| (v, a, b))
                .collect()
        }
    }

    pub struct PreparedChordal {
        tree: CliqueTree,
        omega: usize,
    }

    impl PreparedChordal {
        pub fn prepare(graph: &Graph) -> Option<Self> {
            let tree = CliqueTree::build(graph)?;
            let omega = tree.clique_number();
            Some(PreparedChordal { tree, omega })
        }

        pub fn query(
            &self,
            graph: &Graph,
            k: usize,
            x: VertexId,
            y: VertexId,
        ) -> Option<IncrementalAnswer> {
            if !graph.is_live(x) || !graph.is_live(y) || x == y {
                return None;
            }
            if k < self.omega {
                return None;
            }
            if graph.has_edge(x, y) {
                return Some(IncrementalAnswer::NotCoalescible);
            }
            let tree = &self.tree;
            let nx = tree.any_node_containing(x)?;
            let ny = tree.any_node_containing(y)?;
            let full_path = tree.path_between(nx, ny);

            // Trim the path: start at the last node containing x, end at the first
            // node containing y after that.
            let last_x = full_path
                .iter()
                .rposition(|&n| tree.clique(n).contains(&x))
                .expect("path starts in T_x");
            let first_y = full_path
                .iter()
                .position(|&n| tree.clique(n).contains(&y))
                .expect("path ends in T_y");
            if first_y <= last_x {
                // The subtrees touch a common clique: impossible since x and y do
                // not interfere; defensive fallback.
                return Some(IncrementalAnswer::NotCoalescible);
            }
            let path: Vec<usize> = full_path[last_x..=first_y].to_vec();
            let len = path.len();

            // Intervals of every vertex restricted to the path.
            let intervals = tree.intervals_on_path(&path);
            // Occupancy per position (how many real intervals cross it).
            let mut occupancy = vec![0usize; len];
            for &(_, start, end) in &intervals {
                for slot in occupancy.iter_mut().take(end + 1).skip(start) {
                    *slot += 1;
                }
            }

            // Index intervals by starting position for the marking sweep.
            let mut starting_at: Vec<Vec<(VertexId, usize, usize)>> = vec![Vec::new(); len];
            let mut ix = None;
            let mut iy = None;
            for &(v, start, end) in &intervals {
                if v == x {
                    ix = Some((start, end));
                } else if v == y {
                    iy = Some((start, end));
                } else {
                    starting_at[start].push((v, start, end));
                }
            }
            let (ix_start, ix_end) = ix.expect("x occurs on the trimmed path");
            let (iy_start, iy_end) = iy.expect("y occurs on the trimmed path");
            debug_assert_eq!(ix_start, 0);
            debug_assert_eq!(iy_end, len - 1);

            // reachable[p] == Some(chain) means positions 0..p are covered by a chain
            // of disjoint intervals starting with I_x; chain records the real
            // vertices used (besides x).  To keep the sweep linear-ish we store the
            // predecessor interval per boundary instead of full chains.
            #[derive(Clone)]
            enum Via {
                Short,
                Vertex(VertexId, usize), // vertex and the boundary its interval started from
            }
            let mut reach: Vec<Option<Via>> = vec![None; len + 1];
            reach[ix_end + 1] = Some(Via::Vertex(x, 0));
            for p in ix_end + 1..=len {
                if reach[p].is_none() {
                    continue;
                }
                if p == len {
                    break;
                }
                // Cross position p with a virtual short interval (capacity permitting).
                if occupancy[p] < k && reach[p + 1].is_none() {
                    reach[p + 1] = Some(Via::Short);
                }
                // Or take a real interval starting exactly at p.
                for &(v, start, end) in &starting_at[p] {
                    debug_assert_eq!(start, p);
                    if reach[end + 1].is_none() {
                        reach[end + 1] = Some(Via::Vertex(v, p));
                    }
                }
            }

            // y's interval must start exactly at a reachable boundary.
            if reach[iy_start].is_none() {
                return Some(IncrementalAnswer::NotCoalescible);
            }

            // Reconstruct the witness class by walking the Via chain backwards from
            // the boundary where I_y starts.
            let mut class: BTreeSet<VertexId> = BTreeSet::new();
            class.insert(x);
            class.insert(y);
            let mut boundary = iy_start;
            while boundary > 0 {
                match reach[boundary]
                    .clone()
                    .expect("reachable boundary has a predecessor")
                {
                    Via::Short => boundary -= 1,
                    Via::Vertex(v, started_from) => {
                        if v != x {
                            class.insert(v);
                        }
                        boundary = started_from;
                    }
                }
            }
            Some(IncrementalAnswer::Coalescible(class))
        }
    }

    /// The strategy loop over [`PreparedChordal`]; `on_state` sees every
    /// working-graph state a session is prepared for.
    pub fn chordal_conservative_coalesce(
        ag: &AffinityGraph,
        k: usize,
        mode: ChordalMode,
        mut on_state: impl FnMut(&Graph),
    ) -> Option<ChordalStrategyResult> {
        on_state(&ag.graph);
        let session = PreparedChordal::prepare(&ag.graph)?;
        if session.omega > k {
            return None;
        }
        let mut session = Some(session);

        let mut coalescing = Coalescing::identity(&ag.graph);
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
                continue;
            }
            let answer = match session.as_ref().and_then(|s| s.query(&work, k, ra, rb)) {
                Some(answer) => answer,
                None => {
                    skipped_out_of_class += 1;
                    continue;
                }
            };
            let IncrementalAnswer::Coalescible(witness) = answer else {
                continue;
            };

            match mode {
                ChordalMode::MergeWitnessClass => {
                    let mut members: Vec<VertexId> = witness.into_iter().collect();
                    members.sort();
                    let target = ra;
                    for &m in &members {
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
            on_state(&work);
            session = PreparedChordal::prepare(&work).or_else(|| {
                let tri = fillin::mcs_m(&work);
                for &(a, b) in &tri.fill_edges {
                    work.add_edge(a, b);
                }
                fill_edges_added += tri.fill_edges.len();
                on_state(&work);
                PreparedChordal::prepare(&work)
            });
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
}

/// Checks the flat clique tree of `g` — built fresh and rebuilt in place
/// into `session` — against [`reference`]: visit order, chordality, the
/// cliques in order, tree edges, `nodes_containing` and its first node,
/// the intervals on sampled tree paths, and the Theorem-5 answer (with its
/// witness) of every pair in `pairs` at each `k` in `ks`.
fn assert_matches_reference(
    g: &Graph,
    session: &mut PreparedChordal,
    pairs: &[(VertexId, VertexId)],
    ks: std::ops::Range<usize>,
) {
    let old = reference::mcs_clique_forest(g);
    let order: Vec<VertexId> = old.visit_order.iter().rev().copied().collect();
    assert_eq!(chordal::maximum_cardinality_search(g), order);
    assert_eq!(chordal::is_chordal(g), old.chordal);
    assert_eq!(
        chordal::perfect_elimination_ordering(g),
        old.chordal.then(|| order.clone())
    );
    assert_eq!(session.rebuild(g), old.chordal);
    let Some(old_tree) = reference::CliqueTree::build(g) else {
        assert!(CliqueTree::build(g).is_none());
        assert!(chordal::chordal_maximal_cliques(g).is_none());
        assert_eq!(session.tree().num_nodes(), 0);
        for v in (0..g.capacity() + 2).map(VertexId::new) {
            assert_eq!(session.tree().any_node_containing(v), None);
        }
        return;
    };
    assert_eq!(chordal::chordal_maximal_cliques(g), Some(old.cliques));
    let fresh = CliqueTree::build(g).expect("chordal");
    for tree in [&fresh, session.tree()] {
        assert_eq!(tree.num_nodes(), old_tree.num_nodes());
        assert_eq!(tree.clique_number(), old_tree.clique_number());
        for i in 0..tree.num_nodes() {
            let old_clique: Vec<VertexId> = old_tree.clique(i).iter().copied().collect();
            assert_eq!(tree.clique(i), old_clique.as_slice(), "clique {i}");
            assert_eq!(
                tree.neighbors(i),
                old_tree.neighbors(i),
                "tree edges at {i}"
            );
        }
        assert!(tree.has_junction_property());
        for v in (0..g.capacity() + 2).map(VertexId::new) {
            let old_nodes = old_tree.nodes_containing(v);
            assert_eq!(tree.nodes_containing(v), old_nodes);
            assert_eq!(tree.any_node_containing(v), old_nodes.first().copied());
        }
        let nodes = tree.num_nodes();
        let stride = nodes / 12 + 1;
        for a in (0..nodes).step_by(stride) {
            for b in (0..nodes).rev().step_by(stride) {
                let path = tree.path_between(a, b);
                assert_eq!(path, old_tree.path_between(a, b), "path {a} -> {b}");
                assert_eq!(
                    tree.intervals_on_path(&path),
                    old_tree.intervals_on_path(&path)
                );
            }
        }
    }
    let old_session = reference::PreparedChordal::prepare(g).expect("chordal");
    let new_session = PreparedChordal::prepare(g).expect("chordal");
    for k in ks {
        for &(x, y) in pairs {
            let expected = old_session.query(g, k, x, y);
            assert_eq!(new_session.query(g, k, x, y), expected, "k={k} ({x}, {y})");
            assert_eq!(
                session.query(g, k, x, y),
                expected,
                "rebuilt, k={k} ({x}, {y})"
            );
        }
    }
}

/// Every pair of live vertices of `g`.
fn all_pairs(g: &Graph) -> Vec<(VertexId, VertexId)> {
    let live: Vec<VertexId> = g.vertices().collect();
    let mut pairs = Vec::new();
    for (i, &a) in live.iter().enumerate() {
        pairs.extend(live[i + 1..].iter().map(|&b| (a, b)));
    }
    pairs
}

/// The φ-affinity instance of function `index` of a seeded module, with
/// `k = Maxlive` (the `module-chordal` benchmark's instances).
fn module_instance(seed: u64, index: usize) -> (AffinityGraph, usize) {
    let spec = module_specs(
        &ModuleParams {
            functions: index + 1,
        },
        seed,
    )[index];
    let f = spec.generate();
    let live = Liveness::compute(&f);
    let options = BuildOptions {
        kind: InterferenceKind::Intersection,
        phi_affinities: true,
        copy_affinities: false,
    };
    let ig = InterferenceGraph::build_with(&f, &live, options);
    (
        AffinityGraph::from_interference(&ig),
        live.maxlive_precise(&f),
    )
}

/// The pre-Blair–Peyton enumeration, kept verbatim as the reference: for
/// every vertex of a perfect elimination ordering, `{v} ∪ {later
/// neighbors}` is a candidate clique, and the maximal candidates under
/// set inclusion are the maximal cliques.
fn subset_check_maximal_cliques(g: &Graph) -> Option<Vec<BTreeSet<VertexId>>> {
    let order = chordal::perfect_elimination_ordering(g)?;
    let cap = g.capacity();
    let mut position = vec![usize::MAX; cap];
    for (i, &v) in order.iter().enumerate() {
        position[v.index()] = i;
    }
    let mut cliques: Vec<BTreeSet<VertexId>> = Vec::new();
    for &v in &order {
        let mut clique: BTreeSet<VertexId> = g
            .neighbors(v)
            .filter(|u| position[u.index()] > position[v.index()])
            .collect();
        clique.insert(v);
        if !cliques.iter().any(|c| clique.is_subset(c)) {
            cliques.retain(|c| !c.is_subset(&clique));
            cliques.push(clique);
        }
    }
    Some(cliques)
}

/// Strategy: a random interval graph (always chordal) of up to 40 vertices.
fn arbitrary_interval_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0usize..40, 1usize..12), 1..40).prop_map(|intervals| {
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

/// `G(n, p)` with edge probability `percent`%.
fn gnp_graph(n: usize, percent: u32, rng: &mut impl Rng) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_range(0u32..100) < percent {
                g.add_edge(VertexId::new(i), VertexId::new(j));
            }
        }
    }
    g
}

/// Strategy: `G(n, p)` with `n ≤ 16` and the edge probability `p` drawn
/// from the whole range, so sparse (mostly chordal) and dense (mostly not)
/// graphs both occur.
fn arbitrary_gnp_graph() -> impl Strategy<Value = Graph> {
    (1usize..17, 0u32..=100, 0u64..1_000_000)
        .prop_map(|(n, percent, seed)| gnp_graph(n, percent, &mut coalesce_gen::rng(seed)))
}

/// Strategy: a cycle of 4 to 19 vertices with up to `n` random chords, so
/// the chords sometimes triangulate it and sometimes leave a hole.
fn arbitrary_chorded_cycle() -> impl Strategy<Value = Graph> {
    (4usize..20, 0u64..1_000_000).prop_map(|(n, seed)| {
        let mut rng = coalesce_gen::rng(seed);
        let mut g = Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        );
        for _ in 0..rng.gen_range(0..=n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                g.add_edge(VertexId::new(a), VertexId::new(b));
            }
        }
        g
    })
}

/// [`assert_matches_reference`] on any graph, chordal or not: every pair
/// is queried at `k = ω` and `ω + 1` when there is a clique tree.
fn assert_verdict_and_tree_match(g: &Graph, session: &mut PreparedChordal) {
    let omega = chordal::chordal_clique_number(g).unwrap_or(0);
    assert_matches_reference(g, session, &all_pairs(g), omega..omega + 2);
}

fn sorted(mut cliques: Vec<BTreeSet<VertexId>>) -> Vec<BTreeSet<VertexId>> {
    cliques.sort();
    cliques
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole equivalence: the Blair–Peyton enumeration yields exactly
    /// the clique set of the old subset-check enumeration, and the tree
    /// built from the same sweep has the junction property.
    #[test]
    fn blair_peyton_matches_the_subset_check_enumeration(g in arbitrary_interval_graph()) {
        let new = chordal::chordal_maximal_cliques(&g).expect("interval graphs are chordal");
        let old = subset_check_maximal_cliques(&g).expect("interval graphs are chordal");
        prop_assert_eq!(sorted(new.clone()), sorted(old));
        // Every clique really is a clique, and the tree is junction-valid.
        for clique in &new {
            let members: Vec<VertexId> = clique.iter().copied().collect();
            for (i, &u) in members.iter().enumerate() {
                prop_assert!(members[i + 1..].iter().all(|&v| g.has_edge(u, v)));
            }
        }
        let tree = CliqueTree::build(&g).expect("interval graphs are chordal");
        prop_assert_eq!(tree.num_nodes(), new.len());
        prop_assert!(tree.has_junction_property());
        prop_assert_eq!(
            Some(tree.clique_number()),
            chordal::chordal_clique_number(&g)
        );
    }

    /// Same equivalence on the clique-attachment chordal generator, whose
    /// shape (many small separators, disconnected pieces possible) differs
    /// from interval graphs.
    #[test]
    fn blair_peyton_matches_on_attachment_chordal_graphs(seed in 0u64..400, n in 1usize..40) {
        let mut rng = coalesce_gen::rng(seed);
        let g = random_chordal_graph(n, 5, &mut rng);
        let new = chordal::chordal_maximal_cliques(&g).expect("generator output is chordal");
        let old = subset_check_maximal_cliques(&g).expect("generator output is chordal");
        prop_assert_eq!(sorted(new), sorted(old));
        let tree = CliqueTree::build(&g).expect("generator output is chordal");
        prop_assert!(tree.has_junction_property());
    }

    /// `nodes_containing` and the first-node array behind
    /// `any_node_containing` must agree with a scan of the cliques, for
    /// every vertex.
    #[test]
    fn nodes_containing_index_matches_a_full_scan(g in arbitrary_interval_graph()) {
        let tree = CliqueTree::build(&g).expect("interval graphs are chordal");
        for v in g.vertices() {
            let scanned: Vec<usize> = (0..tree.num_nodes())
                .filter(|&i| tree.clique(i).contains(&v))
                .collect();
            prop_assert_eq!(tree.nodes_containing(v), scanned.as_slice());
            prop_assert_eq!(tree.any_node_containing(v), scanned.first().copied());
        }
    }

    /// The flat layout against the verbatim `BTreeSet` reference on
    /// interval graphs: every pair queried at `k = ω` and `ω + 1`, with
    /// one session prepared for `h`, rebuilt in place for `g`, then for
    /// `h` again.
    #[test]
    fn flat_clique_tree_matches_the_btreeset_reference_on_interval_graphs(
        g in arbitrary_interval_graph(),
        h in arbitrary_interval_graph(),
    ) {
        let mut session = PreparedChordal::prepare(&h).expect("interval graphs are chordal");
        for graph in [&g, &h] {
            let omega = chordal::chordal_clique_number(graph).expect("interval graphs are chordal");
            assert_matches_reference(graph, &mut session, &all_pairs(graph), omega..omega + 2);
        }
    }

    /// The same pin on attachment-chordal graphs (small separators,
    /// disconnected pieces), plus a non-chordal cycle in between so the
    /// in-place rebuild also recovers from a failed sweep.
    #[test]
    fn flat_clique_tree_matches_the_btreeset_reference_on_attachment_graphs(
        seed in 0u64..400,
        n in 1usize..40,
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let g = random_chordal_graph(n, 5, &mut rng);
        let omega = chordal::chordal_clique_number(&g).expect("generator output is chordal");
        let c5 = Graph::with_edges(5, (0..5).map(|i| (VertexId::new(i), VertexId::new((i + 1) % 5))));
        let mut session = PreparedChordal::prepare(&g).expect("generator output is chordal");
        assert_matches_reference(&c5, &mut session, &all_pairs(&c5), 2..4);
        assert_matches_reference(&g, &mut session, &all_pairs(&g), omega..omega + 2);
    }

    /// The chordality verdict (and, when chordal, the whole tree) against
    /// the reference's Tarjan–Yannakakis pass on random `G(n, p)` at every
    /// density, with one session rebuilt in place across both graphs.
    #[test]
    fn sweep_verdict_matches_tarjan_yannakakis_on_random_graphs(
        g in arbitrary_gnp_graph(),
        h in arbitrary_gnp_graph(),
    ) {
        let mut session = PreparedChordal::prepare(&Graph::new(0)).expect("empty graph");
        assert_verdict_and_tree_match(&g, &mut session);
        assert_verdict_and_tree_match(&h, &mut session);
    }

    /// The same pin on cycles with random chords: a chordless cycle of
    /// length at least 4 is the obstruction every non-chordal graph has.
    #[test]
    fn sweep_verdict_matches_tarjan_yannakakis_on_chorded_cycles(g in arbitrary_chorded_cycle()) {
        let mut session = PreparedChordal::prepare(&Graph::new(0)).expect("empty graph");
        assert_verdict_and_tree_match(&g, &mut session);
    }

    /// The same pin along random edits of a chordal or `G(n, p)` graph:
    /// vertex removals (which leave identifier gaps) and merges of
    /// non-adjacent pairs (which can break chordality), checking every
    /// intermediate graph with one session rebuilt in place.
    #[test]
    fn sweep_verdict_matches_tarjan_yannakakis_after_removals_and_merges(
        seed in 0u64..1_000_000,
        n in 2usize..24,
        start_chordal in any::<bool>(),
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let mut g = if start_chordal {
            random_chordal_graph(n, 4, &mut rng)
        } else {
            let percent = rng.gen_range(0u32..=100);
            gnp_graph(n, percent, &mut rng)
        };
        let mut session = PreparedChordal::prepare(&Graph::new(0)).expect("empty graph");
        assert_verdict_and_tree_match(&g, &mut session);
        while g.num_vertices() > 1 {
            let live: Vec<VertexId> = g.vertices().collect();
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a == b || g.has_edge(a, b) {
                g.remove_vertex(a);
            } else {
                g.merge(a, b);
            }
            assert_verdict_and_tree_match(&g, &mut session);
        }
    }

    /// Round trip plus mutation fuzz for the DIMACS parser: the writer's
    /// output parses back to the same graph; appending a duplicate problem
    /// line, appending a self-loop, or truncating the last edge line must
    /// every one turn into a `ParseError`.
    #[test]
    fn dimacs_round_trip_and_mutations(seed in 0u64..500, n in 2usize..30) {
        let mut rng = coalesce_gen::rng(seed);
        let (g, _) = random_interval_graph(n, 2 * n, n / 2 + 1, &mut rng);
        let text = to_dimacs(&g);
        let parsed = from_dimacs(&text).expect("writer output parses");
        prop_assert_eq!(parsed.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(parsed.has_edge(u, v));
        }

        let duplicated = format!("{text}p edge {n} 0\n");
        prop_assert!(from_dimacs(&duplicated).is_err(), "duplicate p must be rejected");

        let self_loop = format!("{text}e 1 1\n");
        prop_assert!(from_dimacs(&self_loop).is_err(), "self-loop must be rejected");

        if g.num_edges() > 0 {
            let truncated: String = text
                .lines()
                .take(text.lines().count() - 1)
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert!(from_dimacs(&truncated).is_err(), "truncation must be detected");
        }
    }

    /// The same round trip and mutation fuzz for the challenge parser,
    /// including the affinity-count check.
    #[test]
    fn challenge_round_trip_and_mutations(seed in 0u64..500, n in 2usize..24, k in 2usize..9) {
        let mut rng = coalesce_gen::rng(seed);
        let (g, _) = random_interval_graph(n, 2 * n, n / 2 + 1, &mut rng);
        // Affinities between the first few non-adjacent pairs.
        let live: Vec<VertexId> = g.vertices().collect();
        let mut affinities = Vec::new();
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if !g.has_edge(a, b) && affinities.len() < 6 {
                    affinities.push((a, b, 1 + (a.index() + b.index()) as u64));
                }
            }
        }
        let file = ChallengeFile {
            graph: g.clone(),
            affinities: affinities.clone(),
            registers: Some(k),
        };
        let text = to_challenge(&file);
        let parsed = from_challenge(&text).expect("writer output parses");
        prop_assert_eq!(parsed.registers, Some(k));
        prop_assert_eq!(&parsed.affinities, &affinities);
        prop_assert_eq!(parsed.graph.num_edges(), g.num_edges());

        let duplicated = format!("{text}p coalesce {n} 0 0\n");
        prop_assert!(from_challenge(&duplicated).is_err(), "duplicate p must be rejected");

        let self_loop = format!("{text}e 1 1\n");
        prop_assert!(from_challenge(&self_loop).is_err(), "self-loop must be rejected");

        if !affinities.is_empty() {
            // Dropping the last line (an `a` line) desynchronizes the
            // declared affinity count.
            let truncated: String = text
                .lines()
                .take(text.lines().count() - 1)
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert!(from_challenge(&truncated).is_err(), "truncation must be detected");
        }
    }
}

proptest! {
    // Each case replays two whole strategy runs against the reference.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Along the merge sequences of the chordal strategy on module
    /// functions, every working-graph state matches the reference (one
    /// session rebuilt in place throughout, queried on the instance's
    /// affinities), and the strategy result is identical in both modes.
    #[test]
    fn chordal_strategy_matches_the_btreeset_reference_on_module_functions(
        seed in 0u64..1000,
        index in 0usize..24,
    ) {
        let (ag, k) = module_instance(seed, index);
        let pairs: Vec<(VertexId, VertexId)> = ag.affinities.iter().map(|a| (a.a, a.b)).collect();
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let mut session = PreparedChordal::prepare(&ag.graph).expect("SSA graphs are chordal");
            let old = reference::chordal_conservative_coalesce(&ag, k, mode, |g| {
                let live: Vec<(VertexId, VertexId)> = pairs
                    .iter()
                    .map(|&(a, b)| (g.representative(a), g.representative(b)))
                    .collect();
                assert_matches_reference(g, &mut session, &live, k..k + 1);
            });
            let new = chordal_conservative_coalesce(&ag, k, mode);
            let (Some(mut old), Some(mut new)) = (old, new) else {
                panic!("k = Maxlive instances are accepted by both");
            };
            prop_assert_eq!(new.coalescing.classes(), old.coalescing.classes());
            prop_assert_eq!(new.stats, old.stats);
            prop_assert_eq!(new.fill_edges_added, old.fill_edges_added);
            prop_assert_eq!(new.artificial_merges, old.artificial_merges);
            prop_assert_eq!(new.skipped_out_of_class, old.skipped_out_of_class);
        }
    }
}

/// Deterministic spot checks for shapes proptest rarely hits: stars,
/// disconnected graphs, isolated vertices, cliques.
#[test]
fn blair_peyton_handles_degenerate_shapes() {
    // Empty and edgeless graphs.
    assert_eq!(
        chordal::chordal_maximal_cliques(&Graph::new(0)),
        Some(vec![])
    );
    let isolated = Graph::new(3);
    let cliques = chordal::chordal_maximal_cliques(&isolated).unwrap();
    assert_eq!(cliques.len(), 3);
    let tree = CliqueTree::build(&isolated).unwrap();
    assert_eq!(tree.num_nodes(), 3);
    assert!(tree.has_junction_property());
    // A path exists between any two stitched components.
    assert_eq!(tree.path_between(0, 2).len(), 3);

    // A star K_{1,5}: 5 maximal cliques (the edges), all sharing the hub.
    let mut star = Graph::new(6);
    for leaf in 1..6 {
        star.add_edge(VertexId::new(0), VertexId::new(leaf));
    }
    let new = sorted(chordal::chordal_maximal_cliques(&star).unwrap());
    let old = sorted(subset_check_maximal_cliques(&star).unwrap());
    assert_eq!(new, old);
    assert_eq!(new.len(), 5);
    let tree = CliqueTree::build(&star).unwrap();
    assert!(tree.has_junction_property());
    assert_eq!(tree.nodes_containing(VertexId::new(0)).len(), 5);

    // A graph whose merged (dead) vertices leave identifier gaps.
    let mut merged = Graph::with_edges(
        5,
        [
            (VertexId::new(0), VertexId::new(1)),
            (VertexId::new(2), VertexId::new(3)),
            (VertexId::new(3), VertexId::new(4)),
        ],
    );
    merged.merge(VertexId::new(0), VertexId::new(2));
    let new = sorted(chordal::chordal_maximal_cliques(&merged).unwrap());
    let old = sorted(subset_check_maximal_cliques(&merged).unwrap());
    assert_eq!(new, old);
    let tree = CliqueTree::build(&merged).unwrap();
    assert!(tree.has_junction_property());
    // Dead vertices are in no clique.
    assert!(tree.nodes_containing(VertexId::new(2)).is_empty());
    assert_eq!(tree.any_node_containing(VertexId::new(2)), None);
    // Out-of-range identifiers are simply absent.
    assert!(tree.nodes_containing(VertexId::new(99)).is_empty());
}
