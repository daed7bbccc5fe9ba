//! `module-chordal`: Theorem-5 conservative coalescing on the chordal
//! interference graphs of strict-SSA functions.
//!
//! Set-up turns each function of the shared module into its
//! live-range-intersection interference graph (an edge list), its
//! φ-affinities and `k = Maxlive`.  The op receives only those lists: it
//! builds the graph with [`Graph::from_edges`] and runs
//! [`chordal_conservative_coalesce`] with the witness-class repair, so the
//! MCS / clique-tree code of `graph` and the Theorem-5 query of `core` do
//! all the work and `ir` is never called.

use crate::measure::{self, CpuClock, Outcome, Tracer};
use crate::module::generate_module;
use coalesce_core::affinity::{Affinity, AffinityGraph, Coalescing, CoalescingStats};
use coalesce_core::chordal_strategy::{chordal_conservative_coalesce, ChordalMode};
use coalesce_core::incremental::{incremental_exact, IncrementalAnswer, PreparedChordal};
use coalesce_graph::chordal::{
    chordal_clique_number, chordal_max_clique, perfect_elimination_ordering,
};
use coalesce_graph::{fillin, ExactSolver, Graph, VertexId};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use coalesce_stats::Counters;
use coalesce_verify::{verify, ChordalCtx, CoalesceCtx, VerifyCtx, VerifyLevel};
use std::hint::black_box;
use std::time::Instant;

/// One function's coalescing instance, as handed to the op.
#[derive(Debug, Clone)]
pub struct ChordalInput {
    /// Vertex count (one vertex per variable).
    pub vertices: usize,
    /// Interference edges.
    pub edges: Vec<(VertexId, VertexId)>,
    /// φ-affinities between non-interfering variables.
    pub affinities: Vec<Affinity>,
    /// Register count: the function's `Maxlive`.
    pub k: usize,
}

impl ChordalInput {
    fn graph(&self) -> Graph {
        Graph::from_edges(self.vertices, self.edges.iter().copied())
    }

    fn affinity_graph(&self, graph: Graph) -> AffinityGraph {
        AffinityGraph {
            graph,
            affinities: self.affinities.clone(),
        }
    }
}

/// Builds the instances of the shared module.
pub fn prepare_inputs(seed: u64, functions: usize) -> Vec<ChordalInput> {
    let options = BuildOptions {
        kind: InterferenceKind::Intersection,
        phi_affinities: true,
        copy_affinities: false,
    };
    generate_module(seed, functions)
        .iter()
        .map(|f| {
            let live = Liveness::compute(f);
            let ig = InterferenceGraph::build_with(f, &live, options);
            let affinities = ig
                .affinity_edges()
                .into_iter()
                .filter(|&(a, b, _)| !ig.graph.has_edge(a, b))
                .map(|(a, b, w)| Affinity::weighted(a, b, w))
                .collect();
            ChordalInput {
                vertices: ig.graph.capacity(),
                edges: ig.graph.edges().collect(),
                affinities,
                k: live.maxlive_precise(f),
            }
        })
        .collect()
}

/// The deterministic outcome of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChordalSummary {
    /// Affinity statistics of the coalescing.
    pub stats: CoalescingStats,
    /// Fill edges added to keep the working graph chordal.
    pub fill_edges_added: usize,
    /// Vertices merged beyond affinity endpoints.
    pub artificial_merges: usize,
    /// Affinities skipped outside the theorem's hypotheses.
    pub skipped_out_of_class: usize,
}

fn classes_of(coalescing: &mut Coalescing) -> Vec<Vec<VertexId>> {
    coalescing
        .classes()
        .into_iter()
        .filter(|c| c.len() > 1)
        .map(|c| c.into_iter().collect())
        .collect()
}

/// The op: build the graph from the edge list and coalesce.
fn coalesce(input: &ChordalInput) -> Option<(ChordalSummary, Coalescing)> {
    let ag = input.affinity_graph(Graph::from_edges(
        input.vertices,
        input.edges.iter().copied(),
    ));
    chordal_conservative_coalesce(&ag, input.k, ChordalMode::MergeWitnessClass).map(|r| {
        let summary = ChordalSummary {
            stats: r.stats,
            fill_edges_added: r.fill_edges_added,
            artificial_merges: r.artificial_merges,
            skipped_out_of_class: r.skipped_out_of_class,
        };
        (summary, r.coalescing)
    })
}

/// Contracts `graph` by `classes`.
fn contract(graph: &Graph, classes: &[Vec<VertexId>]) -> Graph {
    let mut rep: Vec<VertexId> = (0..graph.capacity()).map(VertexId::new).collect();
    for class in classes {
        for &v in class {
            rep[v.index()] = class[0];
        }
    }
    let edges = graph
        .edges()
        .map(|(a, b)| (rep[a.index()], rep[b.index()]))
        .filter(|(a, b)| a != b);
    Graph::from_edges(graph.capacity(), edges)
}

/// Largest graph whose Theorem-5 answers are cross-checked against the
/// exponential exact query.
const EXACT_SAMPLE_MAX_VERTICES: usize = 160;
/// One function in this many is in the exact cross-check sample.
const EXACT_SAMPLE_STRIDE: u64 = 16;
/// Affinities queried per sampled function.
const EXACT_SAMPLE_QUERIES: usize = 3;

/// Checks one op's classes independently of the strategy: the input's
/// chordality and `ω = k` certificates, interference-free classes that
/// each coalesce an affinity, a `k`-colorable contraction, and — for a
/// seeded sample — Theorem-5 answers equal to the exact query.
fn check(
    input: &ChordalInput,
    classes: Option<&[Vec<VertexId>]>,
    seed: u64,
    index: usize,
) -> Option<String> {
    let Some(classes) = classes else {
        return Some("strategy rejected a chordal instance with k = Maxlive".to_string());
    };
    let graph = input.graph();
    let peo = perfect_elimination_ordering(&graph);
    let clique = chordal_max_clique(&graph);

    // Witness-class merging contracts whole colour classes, so a class is
    // connected by the affinities the strategy accepted *and* by its
    // witnesses, which the result does not record.  The checker's
    // connectivity half therefore gets each class's own chain; what stays
    // checked is that classes are interference-free and that every class
    // coalesces at least one affinity.
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for class in classes {
        if !input
            .affinities
            .iter()
            .any(|a| class.contains(&a.a) && class.contains(&a.b))
        {
            return Some(format!("class {class:?} coalesces no affinity"));
        }
        pairs.extend(class.windows(2).map(|w| (w[0], w[1])));
    }
    let mut cx = VerifyCtx::at(VerifyLevel::Boundaries, "module-chordal");
    cx.chordal = Some(ChordalCtx {
        graph: &graph,
        peo: peo.as_deref(),
        claimed_omega: Some(input.k),
        clique: clique.as_deref(),
    });
    cx.coalesce = Some(CoalesceCtx {
        graph: &graph,
        affinities: &pairs,
        classes,
    });
    if let Some(v) = verify(&cx).first() {
        return Some(v.to_string());
    }

    let merged = contract(&graph, classes);
    let colorable = match chordal_clique_number(&merged) {
        Some(omega) => {
            let mut cx = VerifyCtx::at(VerifyLevel::Boundaries, "module-chordal/merged");
            let (peo, clique) = (
                perfect_elimination_ordering(&merged),
                chordal_max_clique(&merged),
            );
            cx.chordal = Some(ChordalCtx {
                graph: &merged,
                peo: peo.as_deref(),
                claimed_omega: Some(omega),
                clique: clique.as_deref(),
            });
            omega <= input.k && verify(&cx).is_empty()
        }
        None => ExactSolver::new()
            .k_coloring(&merged, input.k, &[])
            .is_some_and(|c| c.is_proper(&merged) && c.num_colors() <= input.k),
    };
    if !colorable {
        return Some(format!("contracted graph is not {}-colorable", input.k));
    }

    if measure::sampled(seed, index, EXACT_SAMPLE_STRIDE)
        && graph.num_vertices() <= EXACT_SAMPLE_MAX_VERTICES
    {
        let Some(session) = PreparedChordal::prepare(&graph) else {
            return Some("no clique tree for a certified chordal graph".to_string());
        };
        for aff in input.affinities.iter().take(EXACT_SAMPLE_QUERIES) {
            let fast = session.query(&graph, input.k, aff.a, aff.b);
            let exact = incremental_exact(&graph, input.k, aff.a, aff.b);
            let agrees = match (&fast, &exact) {
                (
                    Some(IncrementalAnswer::Coalescible(witness)),
                    IncrementalAnswer::Coalescible(_),
                ) => {
                    witness.contains(&aff.a)
                        && witness.contains(&aff.b)
                        && witness
                            .iter()
                            .all(|&x| witness.iter().all(|&y| !graph.has_edge(x, y)))
                }
                (Some(IncrementalAnswer::NotCoalescible), IncrementalAnswer::NotCoalescible) => {
                    true
                }
                _ => false,
            };
            if !agrees {
                return Some(format!(
                    "Theorem-5 answer for ({}, {}) disagrees with the exact query",
                    aff.a, aff.b
                ));
            }
        }
    }
    None
}

/// Move weight left and removed across the module.
fn moves(summaries: &[Option<ChordalSummary>]) -> (u64, u64) {
    let stats = summaries.iter().flatten().map(|s| s.stats);
    stats.fold((0, 0), |(r, c), s| {
        (r + s.uncoalesced_weight(), c + s.coalesced_weight)
    })
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, min_ops: usize, functions: usize) -> Outcome {
    let (setup_s, inputs) = measure::median_setup(|| prepare_inputs(seed, functions));
    let timed = measure::timed_passes(
        &inputs,
        &[CpuClock::CALLER],
        seconds,
        min_ops,
        coalesce,
        |result| {
            let (summary, mut coalescing) = result.unzip();
            (summary, coalescing.as_mut().map(classes_of))
        },
        |(summary, _), result| summary.as_ref() == result.as_ref().map(|(s, _)| s),
    );

    let mut out = timed.outcome();
    let mut bad = vec![false; inputs.len()];
    for (i, (input, (_, classes))) in inputs.iter().zip(&timed.first).enumerate() {
        if let Some(why) = check(input, classes.as_deref(), seed, i) {
            bad[i] = true;
            out.problems.push(format!("function {i}: {why}"));
        }
    }
    out.failed = timed.failed(&bad);
    out.problems.truncate(5);

    out.push("setup_s", setup_s, "s");
    measure::push_health_metrics(&mut out);
    let summaries: Vec<_> = timed.first.into_iter().map(|(s, _)| s).collect();
    let (remaining, coalesced) = moves(&summaries);
    measure::push_moves(&mut out, remaining, coalesced);
    out
}

/// Stage-by-stage replay of `chordal_conservative_coalesce` in
/// witness-class mode.
fn replay_strategy(
    tr: &Tracer,
    ag: &AffinityGraph,
    k: usize,
) -> Option<(ChordalSummary, Coalescing)> {
    let session = tr.span("graph.clique_tree", || PreparedChordal::prepare(&ag.graph))?;
    if session.omega() > k {
        return None;
    }
    let mut session = Some(session);
    let mut coalescing = tr.span("core.coalescing_init", || Coalescing::identity(&ag.graph));
    let mut work = tr.span("graph.clone", || ag.graph.clone());
    let (mut fill_edges_added, mut artificial_merges, mut skipped_out_of_class) = (0, 0, 0);
    for aff in tr.span("core.affinity_order", || ag.affinities_by_weight()) {
        let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
        if ra == rb || work.has_edge(ra, rb) {
            continue;
        }
        let answer = session
            .as_ref()
            .and_then(|s| tr.span("core.theorem5_query", || s.query(&work, k, ra, rb)));
        let Some(answer) = answer else {
            skipped_out_of_class += 1;
            continue;
        };
        let IncrementalAnswer::Coalescible(witness) = answer else {
            continue;
        };
        tr.span("core.merge_witness", || {
            for m in witness {
                if m == ra || coalescing.class_of(m) == ra {
                    continue;
                }
                work.merge(ra, m);
                coalescing.merge(ra, m);
                if m != rb {
                    artificial_merges += 1;
                }
            }
        });
        session = tr
            .span("graph.clique_tree", || {
                drop(session.take());
                PreparedChordal::prepare(&work)
            })
            .or_else(|| {
                let tri = tr.span("graph.fillin", || fillin::mcs_m(&work));
                for &(a, b) in &tri.fill_edges {
                    work.add_edge(a, b);
                }
                fill_edges_added += tri.fill_edges.len();
                tr.span("graph.clique_tree", || PreparedChordal::prepare(&work))
            });
    }
    let stats = tr.span("core.stats", || coalescing.stats(&ag.affinities));
    let summary = ChordalSummary {
        stats,
        fill_edges_added,
        artificial_merges,
        skipped_out_of_class,
    };
    Some((summary, coalescing))
}

/// Spans whose self time is glue of the entry point rather than a stage.
const GLUE: &[&str] = &["op", "core.chordal_coalesce"];

/// The traced run: the untraced op over one module pass, then the
/// stage-by-stage replay, with replay fidelity and counter identity
/// checked.
pub fn run_traced(seed: u64, functions: usize, tracer: &Tracer) -> Outcome {
    let gen_start = Instant::now();
    let inputs = prepare_inputs(seed, functions);
    let gen_ms = measure::ms(gen_start.elapsed());

    // The untraced op and the replay alternate which goes first per
    // function, so neither always runs on the warmer cache.
    let n = inputs.len();
    let (mut entry, mut replays) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut entry_counters, mut replay_counters) = (Counters::default(), Counters::default());
    for (i, input) in inputs.iter().enumerate() {
        let mut run_entry = || {
            let (timed, counters) = coalesce_stats::collect(|| {
                let t = Instant::now();
                let result = coalesce(black_box(input));
                (t.elapsed(), result)
            });
            entry.push(timed);
            entry_counters.merge(&counters);
        };
        let mut run_replay = || {
            let (replay, counters) = coalesce_stats::collect(|| {
                tracer.span("op", || {
                    let graph = tracer.span("graph.from_edges", || input.graph());
                    let ag = input.affinity_graph(graph);
                    tracer.span("core.chordal_coalesce", || {
                        replay_strategy(tracer, &ag, input.k)
                    })
                })
            });
            replays.push(replay);
            replay_counters.merge(&counters);
        };
        if i % 2 == 0 {
            run_entry();
            run_replay();
        } else {
            run_replay();
            run_entry();
        }
    }
    let entry_ms: f64 = entry.iter().map(|(d, _)| measure::ms(*d)).sum();
    let mut out = Outcome {
        attempted: n as u64,
        ..Outcome::default()
    };
    let mut summaries = Vec::with_capacity(n);
    for (i, ((_, entry), replay)) in entry.into_iter().zip(replays).enumerate() {
        let (summary, mut coalescing) = entry.unzip();
        let classes = coalescing.as_mut().map(classes_of);
        let (replay_summary, mut replay_coalescing) = replay.unzip();
        let faithful =
            replay_summary == summary && replay_coalescing.as_mut().map(classes_of) == classes;
        let verdict = check(&inputs[i], classes.as_deref(), seed, i);
        if !faithful || verdict.is_some() {
            out.failed += 1;
            out.problems.push(match verdict {
                Some(why) => format!("function {i}: {why}"),
                None => format!("function {i}: replay diverges from the entry point"),
            });
        }
        summaries.push(summary);
    }
    out.problems.truncate(5);
    if entry_counters != replay_counters {
        out.problems
            .push("replay counters differ from the entry point's".to_string());
    }

    crate::layers::push_per_layer(&mut out, tracer, &replay_counters, "op", GLUE, entry_ms);
    crate::layers::set(&mut out, "gen.ms", gen_ms);
    let (remaining, coalesced) = moves(&summaries);
    measure::record_moves(&mut out, remaining, coalesced);
    out.record_counters(&replay_counters);
    crate::layers::set_deterministic(&mut out);
    out
}
