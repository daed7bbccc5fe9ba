//! Equivalence suite for the compact IR backend.
//!
//! The compact `Function` (16-byte instruction records owned by their
//! blocks, pooled operands) replaced the per-block `Vec<Instr>` layout; these
//! tests pin the analyses that consume it to verbatim reference
//! implementations of the old per-block-`Vec` behavior, materialized
//! through [`Function::block_instrs_owned`]: identical live-in/live-out
//! sets, identical interference edges and affinities (both interference
//! kinds), identical spill costs, and an identical spill-victim sequence
//! from a from-scratch reference spiller — on generated CFG and module
//! workloads.  This mirrors what `tests/graph_backend.rs` does for the
//! PR-5 graph and liveness backends.
//!
//! PR 7 adds the Belady spiller: its boundary next-use distances are
//! pinned to an independent per-variable Dijkstra reference (the pass
//! itself solves a min-plus worklist over per-block lists), and every
//! [`spill::SpillerKind`] is held to the common pressure contract
//! `Maxlive ≤ max(k, structural floor)`.
//!
//! The shared spill-and-measure path ([`SpillInput`] / `SpillRun`) is
//! pinned to a verbatim copy of the hand-wired sequence it replaced, for
//! every spiller, on module functions and the E13 grid.

use coalesce_bench::experiments::module::e16_specs;
use coalesce_bench::experiments::regalloc::workload_program;
use coalesce_bench::experiments::spillers::{windowed_program, E17_MODULE_FUNCTIONS};
use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::belady::{NextUse, LOOP_EXIT_DISTANCE};
use coalesce_ir::function::{
    BlockId, Function, FunctionBuilder, Instr, InstrView, Terminator, Var,
};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::out_of_ssa::destruct_ssa;
use coalesce_ir::spill::{self, spill_everywhere, SpillInput, SpillResult, SpillerKind};
use coalesce_ir::splitting::split_at_block_boundaries;
use coalesce_ir::ssa::construct_ssa;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

// ---------------------------------------------------------------------------
// The old layout, rematerialized: one owned Vec<Instr> per block.
// ---------------------------------------------------------------------------

/// A function snapshot in the pre-flat layout: per-block owned instruction
/// vectors.  Every reference implementation below walks these vectors the
/// way the old passes walked `f.block(b).instrs`.
struct OwnedBlocks {
    instrs: Vec<Vec<Instr>>,
}

impl OwnedBlocks {
    fn of(f: &Function) -> Self {
        OwnedBlocks {
            instrs: f.block_ids().map(|b| f.block_instrs_owned(b)).collect(),
        }
    }

    fn block(&self, b: BlockId) -> &[Instr] {
        &self.instrs[b.index()]
    }
}

// ---------------------------------------------------------------------------
// Reference liveness: the old BTreeSet dataflow over owned blocks.
// ---------------------------------------------------------------------------

struct RefLiveness {
    live_in: Vec<BTreeSet<Var>>,
    live_out: Vec<BTreeSet<Var>>,
}

impl RefLiveness {
    /// The old round-robin iterate-to-fixpoint implementation, walking the
    /// owned per-block vectors.
    fn compute(f: &Function, owned: &OwnedBlocks) -> Self {
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
                    for phi in owned.block(s).iter().filter(|i| i.is_phi()) {
                        if let Instr::Phi { dst, args } = phi {
                            from_s.remove(dst);
                            for &(pred, value) in args {
                                if pred == b {
                                    from_s.insert(value);
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
                for instr in owned.block(b).iter().rev() {
                    if let Some(d) = instr.def() {
                        live.remove(&d);
                    }
                    for u in instr.local_uses() {
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
        RefLiveness { live_in, live_out }
    }
}

fn assert_same_liveness(f: &Function, flat: &Liveness, reference: &RefLiveness) {
    for b in f.block_ids() {
        let flat_in: Vec<Var> = flat.live_in(b).iter().collect();
        let ref_in: Vec<Var> = reference.live_in[b.index()].iter().copied().collect();
        assert_eq!(flat_in, ref_in, "live-in of {b:?} diverged");
        let flat_out: Vec<Var> = flat.live_out(b).iter().collect();
        let ref_out: Vec<Var> = reference.live_out[b.index()].iter().copied().collect();
        assert_eq!(flat_out, ref_out, "live-out of {b:?} diverged");
    }
}

// ---------------------------------------------------------------------------
// Reference interference: the old per-block backward walk, verbatim.
// ---------------------------------------------------------------------------

type EdgeSet = BTreeSet<(Var, Var)>;
type AffinityMap = BTreeMap<(Var, Var), u64>;

/// The old interference construction over owned instruction vectors: φ
/// results pairwise and against live-in, definition edges against the
/// live-after set of a backward walk (with Chaitin's copy exception), and
/// weight-summed affinity dedup on unordered pairs.
fn reference_interference(
    f: &Function,
    owned: &OwnedBlocks,
    live: &RefLiveness,
    kind: InterferenceKind,
) -> (EdgeSet, AffinityMap) {
    let mut edges = EdgeSet::new();
    let add = |a: Var, b: Var, edges: &mut EdgeSet| {
        if a != b {
            edges.insert(if a < b { (a, b) } else { (b, a) });
        }
    };
    let mut affinities = AffinityMap::new();
    let affine = |a: Var, b: Var, w: u64, map: &mut AffinityMap| {
        let key = if a <= b { (a, b) } else { (b, a) };
        *map.entry(key).or_insert(0) += w;
    };
    for b in f.block_ids() {
        let weight = 10u64.saturating_pow(f.loop_depth(b));
        let instrs = owned.block(b);

        let phi_defs: Vec<Var> = instrs
            .iter()
            .filter(|i| i.is_phi())
            .filter_map(|i| i.def())
            .collect();
        for (i, &p) in phi_defs.iter().enumerate() {
            for &q in &phi_defs[i + 1..] {
                add(p, q, &mut edges);
            }
            for &v in &live.live_in[b.index()] {
                if v != p {
                    add(p, v, &mut edges);
                }
            }
        }

        // Backward per-point walk: at the top of each loop iteration
        // `cursor` is exactly the set live after instruction `i`.
        let mut cursor: BTreeSet<Var> = live.live_out[b.index()].clone();
        for &v in f.terminator(b).uses() {
            cursor.insert(v);
        }
        for instr in instrs.iter().rev() {
            if let Some(d) = instr.def() {
                for &v in &cursor {
                    if v == d {
                        continue;
                    }
                    if kind == InterferenceKind::Chaitin {
                        if let Instr::Copy { src, .. } = instr {
                            if v == *src {
                                continue;
                            }
                        }
                    }
                    add(d, v, &mut edges);
                }
                cursor.remove(&d);
            }
            for u in instr.local_uses() {
                cursor.insert(u);
            }
        }

        for instr in instrs {
            match instr {
                Instr::Copy { dst, src } if dst != src => {
                    affine(*dst, *src, weight, &mut affinities);
                }
                Instr::Phi { dst, args } => {
                    for &(pred, value) in args {
                        if value != *dst {
                            let w = 10u64.saturating_pow(f.loop_depth(pred));
                            affine(*dst, value, w, &mut affinities);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    (edges, affinities)
}

fn flat_edges(ig: &InterferenceGraph) -> EdgeSet {
    ig.graph
        .edges()
        .map(|(u, v)| {
            let (a, b) = (Var::new(u.index()), Var::new(v.index()));
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect()
}

fn flat_affinities(ig: &InterferenceGraph) -> AffinityMap {
    ig.affinities
        .iter()
        .map(|a| {
            let key = if a.a <= a.b { (a.a, a.b) } else { (a.b, a.a) };
            (key, a.weight)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Reference spill costs and the from-scratch reference spiller.
// ---------------------------------------------------------------------------

/// The old spill-cost computation over owned instruction vectors: a store
/// at the definition plus a reload per use at `10^loop_depth` (φ arguments
/// at the predecessor's depth).
fn reference_spill_costs(f: &Function, owned: &OwnedBlocks) -> Vec<u64> {
    let mut cost = vec![0u64; f.num_vars()];
    for b in f.block_ids() {
        let weight = 10u64.saturating_pow(f.loop_depth(b));
        for instr in owned.block(b) {
            if let Some(d) = instr.def() {
                cost[d.index()] = cost[d.index()].saturating_add(weight);
            }
            match instr {
                Instr::Phi { args, .. } => {
                    for &(pred, value) in args {
                        let w = 10u64.saturating_pow(f.loop_depth(pred));
                        cost[value.index()] = cost[value.index()].saturating_add(w);
                    }
                }
                _ => {
                    for u in instr.local_uses() {
                        cost[u.index()] = cost[u.index()].saturating_add(weight);
                    }
                }
            }
        }
        for &u in f.terminator(b).uses() {
            cost[u.index()] = cost[u.index()].saturating_add(weight);
        }
    }
    cost
}

/// Per-block candidate statistics computed from scratch over the owned
/// layout — the quantities `spill_to_pressure` keeps incrementally.
#[derive(Default)]
struct RefBlockStats {
    contributions: Vec<(Var, u64)>,
    candidates: Vec<Var>,
    maxlive: usize,
}

fn ref_block_stats(
    f: &Function,
    owned: &OwnedBlocks,
    live: &RefLiveness,
    b: BlockId,
    k: usize,
) -> RefBlockStats {
    let instrs = owned.block(b);
    let n = instrs.len();
    let mut stats = RefBlockStats::default();
    let mut birth: BTreeMap<Var, u32> = BTreeMap::new();
    let mut cursor: BTreeSet<Var> = live.live_out[b.index()].clone();
    for &u in f.terminator(b).uses() {
        cursor.insert(u);
    }
    for &v in &cursor {
        birth.insert(v, n as u32);
    }
    stats.maxlive = cursor.len();
    let mut min_over = if cursor.len() > k { n as u32 } else { u32::MAX };
    for (i, instr) in instrs.iter().enumerate().rev() {
        if let Some(d) = instr.def() {
            if !instr.is_phi() {
                stats.maxlive = stats
                    .maxlive
                    .max(cursor.len() + usize::from(!cursor.contains(&d)));
            }
            if cursor.remove(&d) {
                let first = birth[&d];
                stats.contributions.push((d, u64::from(first) - i as u64));
                if min_over <= first {
                    stats.candidates.push(d);
                }
            }
        }
        for u in instr.local_uses() {
            if cursor.insert(u) {
                birth.insert(u, i as u32);
            }
        }
        stats.maxlive = stats.maxlive.max(cursor.len());
        if cursor.len() > k {
            min_over = i as u32;
        }
    }
    for &v in &cursor {
        let first = birth[&v];
        stats.contributions.push((v, u64::from(first) + 1));
        if min_over <= first {
            stats.candidates.push(v);
        }
    }
    let phi_defs = instrs.iter().filter(|i| i.is_phi()).count();
    if phi_defs > 0 {
        stats.maxlive = stats.maxlive.max(live.live_in[b.index()].len() + phi_defs);
    }
    stats
}

/// The seed's spiller structure: full liveness fixpoint and whole-function
/// candidate statistics recomputed from scratch before every victim, over
/// the owned layout.  The victim comparator and the not-spillable rules
/// are the ones `spill_to_pressure` uses, so the selected sequence must be
/// identical; only the mutation primitive (`spill_everywhere`) is shared.
fn reference_spill_to_pressure(f: &mut Function, k: usize) -> SpillResult {
    let mut result = SpillResult::default();
    let mut not_spillable: BTreeSet<Var> = BTreeSet::new();
    let spill_cost = reference_spill_costs(f, &OwnedBlocks::of(f));
    loop {
        let owned = OwnedBlocks::of(f);
        let live = RefLiveness::compute(f, &owned);
        let mut occurrences = vec![0u64; f.num_vars()];
        let mut candidates: BTreeSet<Var> = BTreeSet::new();
        let mut maxlive = 0;
        for b in f.block_ids() {
            let s = ref_block_stats(f, &owned, &live, b, k);
            for &(v, c) in &s.contributions {
                occurrences[v.index()] += c;
            }
            candidates.extend(&s.candidates);
            maxlive = maxlive.max(s.maxlive);
        }
        if maxlive <= k {
            break;
        }
        let candidate = candidates
            .iter()
            .copied()
            .filter(|v| !not_spillable.contains(v))
            .min_by(|&a, &b| {
                let (ca, cb) = (spill_cost[a.index()], spill_cost[b.index()]);
                let (oa, ob) = (occurrences[a.index()], occurrences[b.index()]);
                (u128::from(ca) * u128::from(ob))
                    .cmp(&(u128::from(cb) * u128::from(oa)))
                    .then(ob.cmp(&oa))
                    .then(a.cmp(&b))
            });
        let Some(victim) = candidate else { break };
        if occurrences[victim.index()] <= 2 {
            not_spillable.insert(victim);
            continue;
        }
        let vars_before = f.num_vars();
        spill_everywhere(f, victim, &mut result);
        not_spillable.insert(victim);
        not_spillable.extend((vars_before..f.num_vars()).map(Var::new));
        result.spilled.push(victim);
    }
    result
}

// ---------------------------------------------------------------------------
// Reference next-use distances: per-variable Dijkstra over block exits.
// ---------------------------------------------------------------------------

/// Boundary next-use distances as per-block maps.
struct RefNextUse {
    entry: Vec<BTreeMap<Var, u64>>,
    exit: Vec<BTreeMap<Var, u64>>,
}

/// An independent implementation of the [`NextUse`] boundary distances.
///
/// Where `NextUse::compute` solves all variables at once by a min-plus
/// worklist over per-block distance lists, this reference treats each
/// variable separately as a shortest-path problem over block exits: the
/// local summaries (entry-visible first use, kill set) are extracted per
/// block from the owned layout, and the exit distances are settled by
/// Dijkstra with the block-crossing cost `n + 1` and the loop-exit penalty
/// as edge weights.
/// Same conventions: ordinary use at its instruction index, terminator at
/// `n`, φ-arguments toward a successor at distance 0 past the
/// predecessor's exit.
fn reference_next_use(f: &Function, owned: &OwnedBlocks) -> RefNextUse {
    let nb = f.num_blocks();
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); nb];
    for b in f.block_ids() {
        for s in f.successors(b) {
            preds[s.index()].push(b);
        }
    }
    // Local summaries: first entry-visible use position per variable (φ
    // results are defined at the entry, so a definition anywhere hides all
    // later local uses), and the set of variables the block (re)defines.
    let mut local_first: Vec<BTreeMap<Var, u64>> = vec![BTreeMap::new(); nb];
    let mut killed: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); nb];
    for b in f.block_ids() {
        let instrs = owned.block(b);
        for (i, instr) in instrs.iter().enumerate() {
            for u in instr.local_uses() {
                if !killed[b.index()].contains(&u) {
                    local_first[b.index()].entry(u).or_insert(i as u64);
                }
            }
            if let Some(d) = instr.def() {
                killed[b.index()].insert(d);
            }
        }
        for &u in f.terminator(b).uses() {
            if !killed[b.index()].contains(&u) {
                local_first[b.index()]
                    .entry(u)
                    .or_insert(instrs.len() as u64);
            }
        }
    }
    // φ-arguments per CFG edge: a use at distance 0 past the predecessor's
    // exit.
    let mut edge_phi: BTreeMap<(usize, usize), BTreeSet<Var>> = BTreeMap::new();
    for s in f.block_ids() {
        for instr in owned.block(s).iter().filter(|i| i.is_phi()) {
            if let Instr::Phi { args, .. } = instr {
                for &(pred, value) in args {
                    edge_phi
                        .entry((pred.index(), s.index()))
                        .or_default()
                        .insert(value);
                }
            }
        }
    }
    let penalty = |b: BlockId, s: BlockId| -> u64 {
        if f.loop_depth(s) < f.loop_depth(b) {
            LOOP_EXIT_DISTANCE
        } else {
            0
        }
    };

    let mut exit: Vec<BTreeMap<Var, u64>> = vec![BTreeMap::new(); nb];
    for vi in 0..f.num_vars() {
        let v = Var::new(vi);
        let mut dist: Vec<u64> = vec![u64::MAX; nb];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        // Multi-source initialization: uses visible without crossing a
        // whole successor (φ-arguments on the edge, entry-visible local
        // uses of the successor).
        for b in f.block_ids() {
            let mut best = u64::MAX;
            for s in f.successors(b) {
                let p = penalty(b, s);
                if edge_phi
                    .get(&(b.index(), s.index()))
                    .is_some_and(|set| set.contains(&v))
                {
                    best = best.min(p);
                }
                if let Some(&d) = local_first[s.index()].get(&v) {
                    best = best.min(p.saturating_add(d));
                }
            }
            if best < u64::MAX {
                dist[b.index()] = best;
                heap.push(Reverse((best, b.index())));
            }
        }
        // Settle: crossing block `b` costs `n_b + 1` plus the edge penalty
        // into it, and is only possible where `b` does not redefine `v`.
        while let Some(Reverse((d, bi))) = heap.pop() {
            if d > dist[bi] {
                continue;
            }
            if killed[bi].contains(&v) {
                continue;
            }
            let through = (owned.block(BlockId::new(bi)).len() as u64 + 1).saturating_add(d);
            for &p in &preds[bi] {
                let cand = penalty(p, BlockId::new(bi)).saturating_add(through);
                if cand < dist[p.index()] {
                    dist[p.index()] = cand;
                    heap.push(Reverse((cand, p.index())));
                }
            }
        }
        for (bi, &d) in dist.iter().enumerate() {
            if d != u64::MAX {
                exit[bi].insert(v, d);
            }
        }
    }

    let mut entry: Vec<BTreeMap<Var, u64>> = vec![BTreeMap::new(); nb];
    for bi in 0..nb {
        entry[bi] = local_first[bi].clone();
        let n = owned.block(BlockId::new(bi)).len() as u64;
        for (&v, &d) in &exit[bi] {
            if killed[bi].contains(&v) {
                continue;
            }
            let through = (n + 1).saturating_add(d);
            let e = entry[bi].entry(v).or_insert(u64::MAX);
            if through < *e {
                *e = through;
            }
        }
    }
    RefNextUse { entry, exit }
}

/// Compares every `(block, variable, distance)` triple of both boundary
/// lists of `NextUse::compute` with [`reference_next_use`].
fn assert_next_use_matches_the_reference(f: &Function) {
    let fixpoint = NextUse::compute(f);
    let reference = reference_next_use(f, &OwnedBlocks::of(f));
    let triples = |m: &BTreeMap<Var, u64>| m.iter().map(|(&v, &d)| (v, d)).collect::<Vec<_>>();
    for b in f.block_ids() {
        assert_eq!(
            fixpoint.entry(b),
            triples(&reference.entry[b.index()]),
            "entry list of {b:?} diverged in {}",
            f.name
        );
        assert_eq!(
            fixpoint.exit(b),
            triples(&reference.exit[b.index()]),
            "exit list of {b:?} diverged in {}",
            f.name
        );
    }
}

// ---------------------------------------------------------------------------
// Workloads: the graph_backend CFG mix plus module-drawn functions.
// ---------------------------------------------------------------------------

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

fn module_functions(seed: u64) -> Vec<Function> {
    module_specs(&ModuleParams { functions: 6 }, seed)
        .iter()
        .map(|s| s.generate())
        .collect()
}

/// The non-SSA forms the SSA allocator builds interference on: `f`
/// spilled to its `tight_k` and lowered out of SSA, then after the
/// corrective spill round at the same `k`.
fn lowered_forms(f: &Function) -> [Function; 2] {
    let input = SpillInput::analyze(f);
    let k = spill::tight_k(input.maxlive());
    let mut lowered = input.spill(SpillerKind::PressureGreedy, k).function;
    destruct_ssa(&mut lowered);
    let mut corrected = lowered.clone();
    spill::spill_to_pressure(&mut corrected, k);
    [lowered, corrected]
}

/// Number of variables of `f` with more than one definition.
fn multiply_defined(f: &Function) -> usize {
    let mut defs = vec![0usize; f.num_vars()];
    for (_, _, instr) in f.instructions() {
        if let Some(d) = instr.def() {
            defs[d.index()] += 1;
        }
    }
    defs.iter().filter(|&&n| n > 1).count()
}

/// Asserts that the flat interference build of `f` equals the
/// owned-layout reference under both interference definitions: the edge
/// set, the edge count, and the weight-summed affinities.
fn assert_same_interference(f: &Function) {
    let owned = OwnedBlocks::of(f);
    let live = Liveness::compute(f);
    let reference = RefLiveness::compute(f, &owned);
    for kind in [InterferenceKind::Intersection, InterferenceKind::Chaitin] {
        let ig = InterferenceGraph::build_with(
            f,
            &live,
            BuildOptions {
                kind,
                ..Default::default()
            },
        );
        let (ref_edges, ref_affinities) = reference_interference(f, &owned, &reference, kind);
        assert_eq!(
            ig.graph.num_edges(),
            ref_edges.len(),
            "{kind:?} edge count in {}",
            f.name
        );
        assert_eq!(flat_edges(&ig), ref_edges, "{kind:?} edges in {}", f.name);
        assert_eq!(
            flat_affinities(&ig),
            ref_affinities,
            "{kind:?} affinities in {}",
            f.name
        );
        // One affinity per unordered pair, normalised and ordered by pair.
        assert!(
            ig.affinities
                .windows(2)
                .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b))
                && ig.affinities.iter().all(|a| a.a <= a.b),
            "{kind:?} affinities not merged in {}",
            f.name
        );
    }
}

// ---------------------------------------------------------------------------
// The equivalence tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flat-arena liveness equals the owned-layout BTreeSet reference on
    /// module-drawn functions of every profile/pressure/size mix.
    #[test]
    fn flat_liveness_matches_the_owned_layout_reference(seed in 0u64..48) {
        for f in module_functions(seed) {
            let owned = OwnedBlocks::of(&f);
            let flat = Liveness::compute(&f);
            let reference = RefLiveness::compute(&f, &owned);
            assert_same_liveness(&f, &flat, &reference);
        }
    }

    /// Flat-arena interference equals the owned-layout reference — same
    /// edge set and the same weight-summed affinities — under both
    /// interference definitions, on the SSA input and on its lowered forms
    /// ([`lowered_forms`]), where variables have several definitions and
    /// the build emits the same edge more than once.
    #[test]
    fn flat_interference_matches_the_owned_layout_reference(seed in 0u64..32) {
        let mut multi_def = 0;
        for f in module_functions(seed * 31 + 1) {
            for g in std::iter::once(f.clone()).chain(lowered_forms(&f)) {
                assert_same_interference(&g);
                multi_def += multiply_defined(&g);
            }
        }
        prop_assert!(multi_def > 0, "no lowered function redefines a variable");
    }

    /// Flat-arena spill costs equal the owned-layout reference.
    #[test]
    fn flat_spill_costs_match_the_owned_layout_reference(seed in 0u64..48) {
        for f in module_functions(seed * 17 + 3) {
            let owned = OwnedBlocks::of(&f);
            prop_assert_eq!(spill::spill_costs(&f), reference_spill_costs(&f, &owned));
        }
    }

    /// The Belady pass's min-plus fixpoint boundary distances equal the
    /// per-variable Dijkstra reference on module-drawn functions.
    #[test]
    fn next_use_fixpoint_matches_the_dijkstra_reference(seed in 0u64..32) {
        for f in module_functions(seed * 13 + 11) {
            assert_next_use_matches_the_reference(&f);
        }
    }

    /// Every spiller in the zoo upholds the common pressure contract on
    /// module-drawn functions: a valid rewrite whose precise `Maxlive` is
    /// at most `max(k + 1, the strategy's own floor)`, where the floor is
    /// the strategy's result at `k = 0` — the pressure that survives
    /// spilling *everything spillable* through that strategy's own rewrite
    /// (one instruction's operands, or a block entry's simultaneously-live
    /// φ-results, can alone exceed `k`; Belady's one-reload-per-block
    /// splitting keeps a temporary alive between a block's first and last
    /// served use of a victim; and the greedy spiller's reload temporaries
    /// are themselves unspillable — no run of the same strategy can go
    /// below what its own rewrite leaves behind).  The `+ 1` concedes the
    /// slot a spilled value's store still occupies at its single
    /// definition point under the *precise* metric, which charges dead
    /// definitions too (see `spill_belady`).  The spilled set and reload
    /// count of each strategy must also be reproducible.
    #[test]
    fn every_spiller_meets_the_pressure_target_up_to_the_floor(seed in 0u64..24) {
        for f in module_functions(seed * 29 + 5) {
            let k = spill::tight_k(Liveness::compute(&f).maxlive_precise(&f));
            for spiller in SpillerKind::ALL {
                let mut floor_f = f.clone();
                let _ = spiller.run(&mut floor_f, 0);
                let floor = Liveness::compute(&floor_f).maxlive_precise(&floor_f);
                let mut g = f.clone();
                let result = spiller.run(&mut g, k);
                prop_assert!(g.validate().is_ok(), "{} broke the function", spiller.name());
                let after = Liveness::compute(&g).maxlive_precise(&g);
                prop_assert!(
                    after <= (k + 1).max(floor),
                    "{}: Maxlive {} above max(k + 1 = {}, floor = {})",
                    spiller.name(), after, k + 1, floor
                );
                let mut g2 = f.clone();
                let result2 = spiller.run(&mut g2, k);
                prop_assert_eq!(
                    result.spilled, result2.spilled,
                    "{} victim sequence not reproducible", spiller.name()
                );
                prop_assert_eq!(result.reloads, result2.reloads);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-built edge cases of the interference bit matrix.
// ---------------------------------------------------------------------------

/// Builds `f` under both interference definitions.
fn both_kinds(f: &Function) -> [InterferenceGraph; 2] {
    let live = Liveness::compute(f);
    [InterferenceKind::Intersection, InterferenceKind::Chaitin].map(|kind| {
        InterferenceGraph::build_with(
            f,
            &live,
            BuildOptions {
                kind,
                ..Default::default()
            },
        )
    })
}

/// Exactly `n` variables: the first `n - 2` are defined together, every
/// third one dies at an effect, then the last two (which straddle a word
/// boundary for `n` = 65 and 129) are defined next to the survivors,
/// which stay live into a second block.
fn word_boundary_function(n: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("words{n}"));
    let (entry, tail) = (b.entry_block(), b.new_block());
    let mut vars: Vec<Var> = (0..n - 2).map(|_| b.def(entry, "")).collect();
    let early: Vec<Var> = vars.iter().copied().step_by(3).collect();
    b.effect(entry, &early);
    vars.push(b.def(entry, ""));
    vars.push(b.def(entry, ""));
    b.jump(entry, tail);
    let late: Vec<Var> = vars
        .iter()
        .copied()
        .filter(|v| v.index() % 3 != 0)
        .collect();
    b.ret(tail, &late);
    let f = b.finish();
    assert_eq!(f.num_vars(), n);
    f
}

/// `y = x` while another definition of `y` also sees `x` live.  With
/// `copy_first` the other definition comes later in the block, so the
/// reverse walk reaches it before the copy.
fn redefined_copy_destination(copy_first: bool) -> (Function, Var, Var) {
    let mut b = FunctionBuilder::new(format!("copy_dst_redefined_{copy_first}"));
    let entry = b.entry_block();
    let x = b.def(entry, "x");
    let y = b.fresh_var("y");
    if copy_first {
        b.copy_to(entry, y, x);
        b.effect(entry, &[y]);
        b.function_mut().emit_op(entry, Some(y), &[]);
    } else {
        b.function_mut().emit_op(entry, Some(y), &[]);
        b.effect(entry, &[y]);
        b.copy_to(entry, y, x);
    }
    b.ret(entry, &[x, y]);
    (b.finish(), x, y)
}

/// The bit-matrix build at its edge cases, each equal to the
/// owned-layout reference under both interference definitions: rows that
/// cross word boundaries (63, 64, 65 and 129 variables), a Chaitin copy
/// whose destination meets the source through another definition, `x =
/// x`, dead definitions and dead φs, and a φ group with an empty live-in
/// set.
#[test]
fn interference_matrix_edge_cases_match_the_reference() {
    for n in [63, 64, 65, 129] {
        let f = word_boundary_function(n);
        assert_same_interference(&f);
        let (first, last) = (Var::new(1), Var::new(n - 1));
        for ig in both_kinds(&f) {
            assert!(ig.interferes(first, last) && ig.interferes(last, first));
            assert!(!ig.interferes(Var::new(0), last));
        }
    }

    for copy_first in [true, false] {
        let (f, x, y) = redefined_copy_destination(copy_first);
        assert_same_interference(&f);
        for ig in both_kinds(&f) {
            assert!(ig.interferes(x, y), "copy_first = {copy_first}");
        }
    }

    // x = x while y is live: only the x–y edge.
    let mut b = FunctionBuilder::new("self_copy");
    let entry = b.entry_block();
    let x = b.def(entry, "x");
    let y = b.def(entry, "y");
    b.copy_to(entry, x, x);
    b.ret(entry, &[x, y]);
    let f = b.finish();
    assert_same_interference(&f);
    for ig in both_kinds(&f) {
        assert_eq!(ig.graph.num_edges(), 1);
        assert!(ig.interferes(x, y));
        assert!(ig.affinities.is_empty());
    }

    // Dead definitions and a dead φ: a dead value still interferes with
    // everything live across its definition, a dead φ with the other φ
    // and with the block's live-in set.
    let mut b = FunctionBuilder::new("dead_values");
    let entry = b.entry_block();
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    let c = b.def(entry, "c");
    let a = b.def(entry, "a");
    let dead_entry = b.def(entry, "dead_entry");
    b.branch(entry, c, t, e);
    let y = b.def(t, "y");
    let dead_then = b.op(t, "dead_then", &[a]);
    b.jump(t, j);
    let z = b.def(e, "z");
    b.jump(e, j);
    let w = b.phi(j, "w", &[(t, y), (e, z)]);
    let dead_phi = b.phi(j, "dead_phi", &[(t, a), (e, a)]);
    b.ret(j, &[w, a]);
    let f = b.finish();
    assert_same_interference(&f);
    for ig in both_kinds(&f) {
        assert!(ig.interferes(dead_entry, a) && ig.interferes(dead_entry, c));
        assert!(ig.interferes(dead_then, a) && ig.interferes(dead_then, y));
        assert!(ig.interferes(dead_phi, w) && ig.interferes(dead_phi, a));
    }

    // Three φs, two of them dead, at a join with an empty live-in set.
    let mut b = FunctionBuilder::new("phi_group");
    let entry = b.entry_block();
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    let c = b.def(entry, "c");
    b.branch(entry, c, t, e);
    let left: Vec<Var> = (0..3).map(|_| b.def(t, "")).collect();
    b.jump(t, j);
    let right: Vec<Var> = (0..3).map(|_| b.def(e, "")).collect();
    b.jump(e, j);
    let phis: Vec<Var> = (0..3)
        .map(|i| b.phi(j, "", &[(t, left[i]), (e, right[i])]))
        .collect();
    b.ret(j, &phis[..1]);
    let f = b.finish();
    assert!(Liveness::compute(&f).live_in(j).is_empty());
    assert_same_interference(&f);
    for ig in both_kinds(&f) {
        assert!(ig.interferes(phis[0], phis[1]));
        assert!(ig.interferes(phis[0], phis[2]));
        assert!(ig.interferes(phis[1], phis[2]));
    }
}

/// The next-use pin of the proptest above, on every CFG profile of
/// [`workload_functions`].
#[test]
fn next_use_fixpoint_matches_the_dijkstra_reference_on_cfg_profiles() {
    for f in workload_functions() {
        assert_next_use_matches_the_reference(&f);
    }
}

/// The incremental spiller picks the same victims in the same order (and
/// inserts the same number of reloads) as the from-scratch reference
/// spiller over the owned layout, on every workload profile.
#[test]
fn incremental_spiller_matches_the_from_scratch_reference_victim_sequence() {
    for (i, f) in workload_functions().into_iter().enumerate() {
        let k = spill::tight_k(Liveness::compute(&f).maxlive_precise(&f));
        let mut flat_f = f.clone();
        let flat = spill::spill_to_pressure(&mut flat_f, k);
        let mut ref_f = f.clone();
        let reference = reference_spill_to_pressure(&mut ref_f, k);
        assert_eq!(
            flat.spilled, reference.spilled,
            "workload {i}: victim sequence diverged at k = {k}"
        );
        assert_eq!(flat.reloads, reference.reloads, "workload {i}");
        assert!(
            !flat.spilled.is_empty(),
            "workload {i}: no spill pressure at k = {k}"
        );
        // Both rewrites leave valid functions with the same final Maxlive.
        assert!(flat_f.validate().is_ok() && ref_f.validate().is_ok());
        assert_eq!(
            Liveness::compute(&flat_f).maxlive_precise(&flat_f),
            Liveness::compute(&ref_f).maxlive_precise(&ref_f),
            "workload {i}"
        );
    }
}

/// Spot-check on module-drawn small functions too: the spiller equivalence
/// holds across the generator's profile/pressure/size mix.
#[test]
fn incremental_spiller_matches_the_reference_on_module_functions() {
    for f in module_functions(5) {
        let k = spill::tight_k(Liveness::compute(&f).maxlive_precise(&f));
        let mut flat_f = f.clone();
        let flat = spill::spill_to_pressure(&mut flat_f, k);
        let mut ref_f = f.clone();
        let reference = reference_spill_to_pressure(&mut ref_f, k);
        assert_eq!(flat.spilled, reference.spilled);
        assert_eq!(flat.reloads, reference.reloads);
    }
}

// ---------------------------------------------------------------------------
// The spill-and-measure path, pinned to the hand-wired sequence it replaced.
// ---------------------------------------------------------------------------

/// What a spill-and-measure caller reports, plus the rewritten function
/// (compared through its `Debug` rendering).
#[derive(Debug, PartialEq)]
struct Measured {
    maxlive: usize,
    k: usize,
    spilled: Vec<Var>,
    reloads: usize,
    spill_weight: u64,
    maxlive_after: usize,
    function: String,
}

/// The six-step sequence the experiments, the verifier harness and the
/// service each wired by hand before `SpillInput`/`SpillRun`, verbatim.
fn hand_wired_spill(f: &Function, kind: SpillerKind) -> Measured {
    let maxlive = Liveness::compute(f).maxlive_precise(f);
    let k = spill::tight_k(maxlive);
    let costs = spill::spill_costs(f);
    let mut spilled_f = f.clone();
    let result = kind.run(&mut spilled_f, k);
    let spill_weight = result.spilled.iter().map(|v| costs[v.index()]).sum::<u64>();
    let maxlive_after = Liveness::compute(&spilled_f).maxlive_precise(&spilled_f);
    Measured {
        maxlive,
        k,
        spilled: result.spilled,
        reloads: result.reloads,
        spill_weight,
        maxlive_after,
        function: format!("{spilled_f:?}"),
    }
}

fn assert_spill_run_matches_hand_wired(f: &Function) {
    let input = SpillInput::analyze(f);
    let k = spill::tight_k(input.maxlive());
    for kind in SpillerKind::ALL {
        let run = input.spill(kind, k);
        let measured = Measured {
            maxlive: run.maxlive,
            k: run.k,
            maxlive_after: run.maxlive_after(),
            function: format!("{:?}", run.function),
            spilled: run.spilled,
            reloads: run.reloads,
            spill_weight: run.spill_weight,
        };
        assert_eq!(measured, hand_wired_spill(f, kind), "{}", kind.name());
    }
    let (mut from, mut plain) = (f.clone(), f.clone());
    let reused =
        spill::spill_to_pressure_from(&mut from, k, Liveness::compute(f), &spill::spill_costs(f));
    let solved = spill::spill_to_pressure(&mut plain, k);
    assert_eq!(
        (reused.spilled, reused.reloads),
        (solved.spilled, solved.reloads)
    );
    assert_eq!(format!("{from:?}"), format!("{plain:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SpillInput::analyze(f).spill(kind, k)` reproduces the hand-wired
    /// sequence field for field on module-drawn functions.
    #[test]
    fn spill_run_matches_the_hand_wired_sequence_on_module_functions(seed in 0u64..48) {
        for f in module_functions(seed * 37 + 7) {
            assert_spill_run_matches_hand_wired(&f);
        }
    }
}

/// The same pin over the E13 workload grid.
#[test]
fn spill_run_matches_the_hand_wired_sequence_on_the_e13_grid() {
    for profile in ShapeProfile::ALL {
        for pressure in PressureLevel::ALL {
            assert_spill_run_matches_hand_wired(&workload_program(42, profile, pressure));
        }
    }
}

/// `SpillRun` prices victims by indexing the pre-spill costs, so every
/// spiller must name only pre-spill variables as victims (`SpillResult`'s
/// documented contract) — checked over the E17 grid and module slice.
#[test]
fn every_victim_is_a_pre_spill_variable() {
    let grid = ShapeProfile::ALL.into_iter().flat_map(|profile| {
        PressureLevel::ALL
            .into_iter()
            .map(move |pressure| workload_program(42, profile, pressure))
    });
    let slice = e16_specs(42)
        .into_iter()
        .take(E17_MODULE_FUNCTIONS)
        .map(|spec| spec.generate());
    for f in grid.chain([windowed_program(42)]).chain(slice) {
        let k = spill::tight_k(Liveness::compute(&f).maxlive_precise(&f));
        for kind in SpillerKind::ALL {
            let result = kind.run(&mut f.clone(), k);
            assert!(
                result.spilled.iter().all(|v| v.index() < f.num_vars()),
                "{} named a victim outside the {} pre-spill variables: {:?}",
                kind.name(),
                f.num_vars(),
                result.spilled
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Storage left behind by the rewrite passes.
// ---------------------------------------------------------------------------

/// `Function::ir_bytes` as its documented formula gives it over live
/// content only: 16 bytes per instruction record, 4 per value operand of
/// a live op or copy, 8 per argument of a live φ, 12 per block and
/// 16 + 4·uses per terminator.
fn live_bytes(f: &Function) -> usize {
    let instrs: usize = f
        .instructions()
        .map(|(_, _, i)| match i {
            InstrView::Op { uses, .. } => 16 + 4 * uses.len(),
            InstrView::Copy { .. } => 16 + 4,
            InstrView::Phi { args, .. } => 16 + 8 * args.len(),
        })
        .sum();
    let terminators: usize = f
        .block_ids()
        .map(|b| match f.terminator(b) {
            Terminator::Return { uses } => 16 + 4 * uses.len(),
            _ => 16,
        })
        .sum();
    instrs + 12 * f.num_blocks() + terminators
}

/// Bytes of every φ-argument in `f`.
fn phi_arg_bytes(f: &Function) -> usize {
    f.instructions()
        .map(|(_, _, i)| match i {
            InstrView::Phi { args, .. } => 8 * args.len(),
            _ => 0,
        })
        .sum()
}

/// A non-SSA loop that SSA construction accepts: `x` is defined before
/// the loop and redefined in its body, so the header gets a φ.
fn redefined_in_a_loop() -> Function {
    let mut b = FunctionBuilder::new("loop");
    let (entry, header, body, exit) =
        (b.entry_block(), b.new_block(), b.new_block(), b.new_block());
    let x = b.def(entry, "x");
    b.jump(entry, header);
    let c = b.op(header, "c", &[x]);
    b.branch(header, c, body, exit);
    b.function_mut().push_instr(
        body,
        Instr::Op {
            dst: Some(x),
            uses: vec![x, c],
        },
    );
    b.jump(body, header);
    b.ret(exit, &[x]);
    b.finish()
}

/// Every rewrite edits operands in place and splices insertions into
/// the block it edits, so no spiller, per-victim `spill_everywhere` call,
/// splitting or SSA construction leaves storage behind: `ir_bytes` equals
/// its formula over live content.  Out-of-SSA leaves exactly the pooled
/// arguments of the φs it removes.
#[test]
fn rewrites_leave_no_dead_storage() {
    let functions = workload_functions()
        .into_iter()
        .chain((0..4).flat_map(module_functions));
    for f in functions {
        assert_eq!(f.ir_bytes(), live_bytes(&f), "{}: generated", f.name);
        let k = spill::tight_k(Liveness::compute(&f).maxlive_precise(&f));
        for kind in SpillerKind::ALL {
            let mut g = f.clone();
            kind.run(&mut g, k);
            assert_eq!(g.ir_bytes(), live_bytes(&g), "{}: {}", f.name, kind.name());
        }
        let mut g = f.clone();
        for victim in spill::spill_to_pressure(&mut f.clone(), k).spilled {
            spill_everywhere(&mut g, victim, &mut SpillResult::default());
            assert_eq!(g.ir_bytes(), live_bytes(&g), "{}: spill_everywhere", f.name);
        }

        let mut split = f.clone();
        split_at_block_boundaries(&mut split);
        assert_eq!(
            split.ir_bytes(),
            live_bytes(&split),
            "{}: splitting",
            f.name
        );

        let mut lowered = f.clone();
        let stats = destruct_ssa(&mut lowered);
        assert_eq!(stats.phis_removed, f.num_phis(), "{}: out of SSA", f.name);
        assert_eq!(
            lowered.ir_bytes() - live_bytes(&lowered),
            phi_arg_bytes(&f),
            "{}: out of SSA",
            f.name
        );
    }
    for f in workload_functions()
        .into_iter()
        .chain([redefined_in_a_loop()])
    {
        let g = construct_ssa(&f);
        assert_eq!(g.ir_bytes(), live_bytes(&g), "{}: SSA construction", f.name);
    }
}

/// A block of `len` distinct copies `%i = %0`, as owned instructions.
fn copy_block(len: usize, first_dst: usize) -> Vec<Instr> {
    (0..len)
        .map(|i| Instr::Copy {
            dst: Var::new(first_dst + i),
            src: Var::new(0),
        })
        .collect()
}

/// Splices `insertions` into a one-block function holding `len` copies
/// and checks the result against `Vec::insert` on the owned block, each
/// insertion shifted by the number inserted before it.
fn assert_splice_matches_vec_insert(len: usize, insertions: &[(usize, Instr)]) {
    let mut b = FunctionBuilder::new("splice");
    let entry = b.entry_block();
    let mut model = copy_block(len, 1);
    for instr in &model {
        b.function_mut().push_instr(entry, instr.clone());
    }
    let mut f = b.function_mut().clone();
    f.splice(entry, insertions.iter().cloned());
    for (shift, (pos, instr)) in insertions.iter().enumerate() {
        model.insert(pos + shift, instr.clone());
    }
    assert_eq!(
        f.block_instrs_owned(entry),
        model,
        "{insertions:?} into {len}"
    );
    assert_eq!(f.ir_bytes(), live_bytes(&f), "{insertions:?} into {len}");
}

#[test]
fn splice_handles_equal_positions_appends_and_no_insertions() {
    let ops = |dsts: &[usize]| -> Vec<Instr> {
        dsts.iter()
            .map(|&d| Instr::Op {
                dst: Some(Var::new(d)),
                uses: vec![Var::new(0), Var::new(1)],
            })
            .collect()
    };
    for len in [0, 1, 5] {
        assert_splice_matches_vec_insert(len, &[]);
        let appends: Vec<(usize, Instr)> = ops(&[40, 41]).into_iter().map(|i| (len, i)).collect();
        assert_splice_matches_vec_insert(len, &appends);
        let equal: Vec<(usize, Instr)> = ops(&[50, 51, 52])
            .into_iter()
            .map(|i| (len / 2, i))
            .collect();
        assert_splice_matches_vec_insert(len, &equal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random non-decreasing positions, repeats and appends included,
    /// with op, copy and φ insertions of varying operand counts.
    #[test]
    fn splice_matches_a_vec_insert_model(
        len in 0usize..10,
        raw in proptest::collection::vec((0usize..16, 0u8..3, 0usize..4), 0..12),
    ) {
        let mut insertions: Vec<(usize, Instr)> = raw
            .iter()
            .enumerate()
            .map(|(n, &(pos, kind, operands))| {
                let dst = Var::new(100 + n);
                let instr = match kind {
                    0 => Instr::Op { dst: Some(dst), uses: (0..operands).map(Var::new).collect() },
                    1 => Instr::Copy { dst, src: Var::new(operands) },
                    _ => Instr::Phi {
                        dst,
                        args: (0..operands).map(|p| (BlockId::new(p), Var::new(p))).collect(),
                    },
                };
                (pos % (len + 1), instr)
            })
            .collect();
        insertions.sort_by_key(|&(pos, _)| pos);
        assert_splice_matches_vec_insert(len, &insertions);
    }
}
