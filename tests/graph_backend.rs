//! Equivalence suite for the PR-5 data-structure backends.
//!
//! The sorted-row adjacency `Graph` replaced the `BTreeSet`-per-vertex
//! representation, and the bitset worklist `Liveness` replaced the cloned
//! `BTreeSet` dataflow; these tests pin both to verbatim reference
//! implementations of the old behavior — same edge sets, degrees, merge
//! results and chordality verdicts on random interval and
//! clique-attachment graphs, and identical per-block / per-point live sets
//! on generated CFG programs, including across the incremental
//! `apply_spill_rewrite` patch the spiller relies on.

use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::graphs::{random_chordal_graph, random_interval_graph};
use coalesce_graph::{chordal, Graph, VertexId};
use coalesce_ir::function::{BlockId, Function, InstrView, Var};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{spill_everywhere, SpillResult};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Reference graph: the seed's BTreeSet-adjacency implementation, verbatim.
// ---------------------------------------------------------------------------

/// The old adjacency-set graph, kept as the behavioral reference for edge
/// bookkeeping and merging.
#[derive(Clone, Default)]
struct SetGraph {
    adj: Vec<BTreeSet<usize>>,
    alive: Vec<bool>,
    num_edges: usize,
}

impl SetGraph {
    fn new(n: usize) -> Self {
        SetGraph {
            adj: vec![BTreeSet::new(); n],
            alive: vec![true; n],
            num_edges: 0,
        }
    }

    fn add_edge(&mut self, u: usize, v: usize) {
        assert!(self.alive[u] && self.alive[v] && u != v);
        if self.adj[u].insert(v) {
            self.adj[v].insert(u);
            self.num_edges += 1;
        }
    }

    fn merge(&mut self, into: usize, from: usize) {
        assert!(self.alive[into] && self.alive[from] && into != from);
        assert!(!self.adj[into].contains(&from));
        let nbrs: Vec<usize> = self.adj[from].iter().copied().collect();
        for u in nbrs {
            self.adj[u].remove(&from);
            self.num_edges -= 1;
            if self.adj[into].insert(u) {
                self.adj[u].insert(into);
                self.num_edges += 1;
            }
        }
        self.adj[from].clear();
        self.alive[from] = false;
    }

    fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, row) in self.adj.iter().enumerate() {
            if !self.alive[u] {
                continue;
            }
            for &v in row {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    fn degrees(&self) -> Vec<(usize, usize)> {
        self.adj
            .iter()
            .enumerate()
            .filter(|(u, _)| self.alive[*u])
            .map(|(u, row)| (u, row.len()))
            .collect()
    }
}

fn flat_edges(g: &Graph) -> Vec<(usize, usize)> {
    g.edges().map(|(u, v)| (u.index(), v.index())).collect()
}

fn flat_degrees(g: &Graph) -> Vec<(usize, usize)> {
    g.vertices().map(|v| (v.index(), g.degree(v))).collect()
}

fn assert_same_graph(flat: &Graph, reference: &SetGraph) {
    assert_eq!(flat.num_edges(), reference.num_edges);
    assert_eq!(flat_edges(flat), reference.edges());
    assert_eq!(flat_degrees(flat), reference.degrees());
}

/// Strategy: an edge list over up to 24 vertices, with duplicates.
fn arbitrary_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..80).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .collect::<Vec<_>>()
            }),
        )
    })
}

proptest! {
    /// Bulk construction, incremental insertion and the reference all
    /// agree on the edge set and the degrees, duplicates included.
    #[test]
    fn bulk_and_incremental_construction_match_the_reference(
        (n, edges) in arbitrary_edge_list()
    ) {
        let bulk = Graph::from_edges(
            n,
            edges.iter().map(|&(a, b)| (VertexId::new(a), VertexId::new(b))),
        );
        let mut incremental = Graph::new(n);
        let mut reference = SetGraph::new(n);
        for &(a, b) in &edges {
            incremental.add_edge(VertexId::new(a), VertexId::new(b));
            reference.add_edge(a, b);
        }
        assert_same_graph(&bulk, &reference);
        assert_same_graph(&incremental, &reference);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    prop_assert_eq!(
                        bulk.has_edge(VertexId::new(a), VertexId::new(b)),
                        reference.adj[a].contains(&b)
                    );
                }
            }
        }
    }

    /// Random valid merge sequences leave the flat graph and the reference
    /// with identical edges, degrees and edge counts.
    #[test]
    fn merge_sequences_match_the_reference(
        (n, edges) in arbitrary_edge_list(),
        merge_picks in proptest::collection::vec((0usize..24, 0usize..24), 0..12)
    ) {
        let mut flat = Graph::from_edges(
            n,
            edges.iter().map(|&(a, b)| (VertexId::new(a), VertexId::new(b))),
        );
        let mut reference = SetGraph::new(n);
        for &(a, b) in &edges {
            reference.add_edge(a, b);
        }
        for (a, b) in merge_picks {
            let (a, b) = (a % n, b % n);
            if a == b || !flat.is_live(VertexId::new(a)) || !flat.is_live(VertexId::new(b)) {
                continue;
            }
            if flat.has_edge(VertexId::new(a), VertexId::new(b)) {
                continue;
            }
            flat.merge(VertexId::new(a), VertexId::new(b));
            reference.merge(a, b);
            prop_assert_eq!(flat.representative(VertexId::new(b)), VertexId::new(a));
            assert_same_graph(&flat, &reference);
        }
    }
}

#[test]
fn chordality_verdicts_match_across_construction_paths() {
    // Interval graphs (chordal by construction) and clique-attachment
    // graphs, built via the generator (bulk path for intervals) and
    // rebuilt per-edge: identical verdicts, cliques and clique numbers.
    for seed in 0..12u64 {
        let mut rng = coalesce_gen::rng(seed);
        let (g, _) = random_interval_graph(40, 60, 12, &mut rng);
        let mut rng = coalesce_gen::rng(seed + 100);
        let h = random_chordal_graph(35, 5, &mut rng);
        for g in [g, h] {
            let rebuilt = Graph::from_edges(g.capacity(), g.edges());
            assert!(chordal::is_chordal(&g), "seed {seed}");
            assert_eq!(
                chordal::is_chordal(&g),
                chordal::is_chordal(&rebuilt),
                "seed {seed}"
            );
            assert_eq!(
                chordal::chordal_clique_number(&g),
                chordal::chordal_clique_number(&rebuilt),
                "seed {seed}"
            );
            assert_eq!(
                chordal::chordal_maximal_cliques(&g),
                chordal::chordal_maximal_cliques(&rebuilt),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn non_chordal_graphs_stay_non_chordal_through_the_bulk_path() {
    for n in 4..10usize {
        let cycle = Graph::from_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        );
        assert!(!chordal::is_chordal(&cycle), "C{n}");
    }
}

// ---------------------------------------------------------------------------
// Reference liveness: the seed's BTreeSet dataflow, verbatim.
// ---------------------------------------------------------------------------

struct SetLiveness {
    live_in: Vec<BTreeSet<Var>>,
    live_out: Vec<BTreeSet<Var>>,
}

impl SetLiveness {
    /// The old round-robin iterate-to-fixpoint implementation.
    fn compute(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut live_in: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let b = BlockId::new(bi);
                let mut out: BTreeSet<Var> = BTreeSet::new();
                for s in f.successors(b) {
                    let mut from_s = live_in[s.index()].clone();
                    for phi in f.phis(s) {
                        if let InstrView::Phi { dst, args } = phi {
                            from_s.remove(&dst);
                            for a in args {
                                if a.pred == b {
                                    from_s.insert(a.value);
                                }
                            }
                        }
                    }
                    out.extend(from_s);
                }
                let mut live = out.clone();
                for &v in f.terminator(b).uses() {
                    live.insert(v);
                }
                for instr in f.block_instrs(b).rev() {
                    if let Some(d) = instr.def() {
                        live.remove(&d);
                    }
                    for &u in instr.local_uses() {
                        live.insert(u);
                    }
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if live != live_in[bi] {
                    live_in[bi] = live;
                    changed = true;
                }
            }
        }
        SetLiveness { live_in, live_out }
    }
}

fn assert_same_liveness(f: &Function, bitset: &Liveness, reference: &SetLiveness) {
    for b in f.block_ids() {
        let bits_in: Vec<Var> = bitset.live_in(b).iter().collect();
        let ref_in: Vec<Var> = reference.live_in[b.index()].iter().copied().collect();
        assert_eq!(bits_in, ref_in, "live-in of {b:?} diverged");
        let bits_out: Vec<Var> = bitset.live_out(b).iter().collect();
        let ref_out: Vec<Var> = reference.live_out[b.index()].iter().copied().collect();
        assert_eq!(bits_out, ref_out, "live-out of {b:?} diverged");
    }
}

/// The generated CFG workloads the equivalence is checked on: every shape
/// profile at low pressure plus one medium-pressure loop nest.
fn workload_functions() -> Vec<Function> {
    let mut out = Vec::new();
    for (i, profile) in ShapeProfile::ALL.into_iter().enumerate() {
        let params = profile.params(PressureLevel::Low.pressure());
        out.push(generate(&params, &mut coalesce_gen::rng(7 + i as u64)));
    }
    let params = ShapeProfile::FpLoopNest.params(PressureLevel::Medium.pressure());
    out.push(generate(&params, &mut coalesce_gen::rng(23)));
    out
}

#[test]
fn bitset_liveness_matches_the_btreeset_reference_on_generated_cfgs() {
    for (i, f) in workload_functions().into_iter().enumerate() {
        let bitset = Liveness::compute(&f);
        let reference = SetLiveness::compute(&f);
        assert_same_liveness(&f, &bitset, &reference);
        // The streamed per-point cursor agrees with a reference backward
        // walk too (spot-check the first blocks to keep the test quick).
        for b in f.block_ids().take(16) {
            let points = bitset.live_points(&f, b);
            let n_instrs = f.num_instrs(b);
            let mut live = reference.live_out[b.index()].clone();
            for &v in f.terminator(b).uses() {
                live.insert(v);
            }
            let expect: Vec<Var> = live.iter().copied().collect();
            let got: Vec<Var> = points[n_instrs].iter().collect();
            assert_eq!(got, expect, "program {i}: point {n_instrs} of {b:?}");
            for (j, instr) in f.block_instrs(b).enumerate().rev() {
                if let Some(d) = instr.def() {
                    live.remove(&d);
                }
                for &u in instr.local_uses() {
                    live.insert(u);
                }
                let expect: Vec<Var> = live.iter().copied().collect();
                let got: Vec<Var> = points[j].iter().collect();
                assert_eq!(got, expect, "program {i}: point {j} of {b:?}");
            }
        }
    }
}

#[test]
fn incremental_spill_patch_equals_a_full_recomputation() {
    // Spill a handful of victims from each workload; after every rewrite
    // the patched liveness must equal a from-scratch fixpoint exactly
    // (`Liveness` compares by set contents).
    for f in workload_functions() {
        let mut f = f;
        let mut liveness = Liveness::compute(&f);
        let costs = coalesce_ir::spill::spill_costs(&f);
        // Victims: the most expensive variables with at least one use —
        // a deterministic, rewrite-heavy selection.
        let mut by_cost: Vec<Var> = (0..f.num_vars()).map(Var::new).collect();
        by_cost.sort_by_key(|v| std::cmp::Reverse(costs[v.index()]));
        let mut spilled = 0;
        for victim in by_cost {
            if spilled >= 5 {
                break;
            }
            // Only spill variables that actually appear as uses.
            let used = f
                .instructions()
                .any(|(_, _, i)| i.local_uses().contains(&victim))
                || f.block_ids().any(|b| {
                    f.terminator(b).uses().contains(&victim)
                        || f.phis(b).any(|p| match p {
                            InstrView::Phi { args, .. } => args.iter().any(|a| a.value == victim),
                            _ => false,
                        })
                });
            if !used {
                continue;
            }
            let mut result = SpillResult::default();
            let rewrite = spill_everywhere(&mut f, victim, &mut result);
            liveness.apply_spill_rewrite(victim, &rewrite.phi_pred_reloads);
            assert_eq!(
                liveness,
                Liveness::compute(&f),
                "patched liveness diverged after spilling {victim:?}"
            );
            spilled += 1;
        }
        assert!(spilled > 0, "workload produced no spillable victim");
    }
}

#[test]
fn spill_to_pressure_still_lowers_pressure_on_random_programs() {
    // End-to-end guard over the incremental spiller on less structured
    // inputs than the workload generator produces.
    for seed in 0..6u64 {
        let mut rng = coalesce_gen::rng(seed * 31 + 5);
        let params = coalesce_gen::programs::ProgramParams::default();
        let mut f = coalesce_gen::programs::random_ssa_program(&params, &mut rng);
        let before = Liveness::compute(&f).maxlive_precise(&f);
        if before <= 3 {
            continue;
        }
        let k = (before / 2).max(2) + (rng.gen_range(0..2) as usize);
        let result = coalesce_ir::spill::spill_to_pressure(&mut f, k);
        assert!(f.validate().is_ok(), "seed {seed}");
        let after = Liveness::compute(&f).maxlive_precise(&f);
        assert!(
            after <= before,
            "seed {seed}: pressure rose from {before} to {after}"
        );
        if !result.spilled.is_empty() {
            assert!(result.reloads > 0, "seed {seed}");
        }
    }
}
