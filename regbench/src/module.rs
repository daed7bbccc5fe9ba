//! `module-ssa` and `module-chaitin`: whole-module register allocation at
//! a fixed register file.
//!
//! Both workloads allocate every function of one seeded
//! [`coalesce_gen::module::module_specs`] module through the allocator's
//! public entry point, [`run_allocator_with_artifacts`]:
//!
//! * `module-ssa` runs the two-phase allocator of the paper's §1
//!   (`ssa/briggs+george` with the pressure-greedy spiller): spill,
//!   out-of-SSA, liveness, conservative coalescing and biased select,
//!   never IRC;
//! * `module-chaitin` runs the Chaitin–Briggs loop, where iterated
//!   register coalescing does almost all of the work.
//!
//! The traced run replays both entry points stage by stage through the
//! same public calls the library makes, inside benchmark spans, and
//! checks that the replay reproduces the entry point exactly.

use crate::measure::{self, CpuClock, Outcome, Tracer};
use coalesce_alloc::assignment::{MoveCosts, RegisterAssignment};
use coalesce_alloc::pipeline::{run_allocator_with_artifacts, AllocationReport, AllocatorKind};
use coalesce_alloc::{
    biased, chaitin_allocate, ssa_allocate_with_spiller, ChaitinConfig, CoalescingStrategy,
};
use coalesce_core::affinity::{Affinity, AffinityGraph, Coalescing};
use coalesce_core::conservative::{conservative_coalesce, ConservativeRule};
use coalesce_core::irc;
use coalesce_gen::cfg::{PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, FunctionSpec, ModuleParams};
use coalesce_graph::{chordal, greedy, VertexId};
use coalesce_ir::function::{Function, Var};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{self, SpillerKind};
use coalesce_ir::{out_of_ssa, ssa};
use coalesce_stats::Counters;
use coalesce_verify::{verify, AllocCtx, VerifyCtx, VerifyLevel};
use std::hint::black_box;
use std::time::Instant;

/// The register file every module workload allocates to.
pub const K: usize = 12;

/// Which allocator a module workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// The Chaitin–Briggs loop (`module-chaitin`).
    Chaitin,
    /// The two-phase SSA allocator with Briggs+George coalescing
    /// (`module-ssa`).
    Ssa,
}

impl Allocator {
    fn kind(self) -> AllocatorKind {
        match self {
            Allocator::Chaitin => AllocatorKind::ChaitinBriggs,
            Allocator::Ssa => AllocatorKind::SsaBased(CoalescingStrategy::BriggsGeorge),
        }
    }
}

/// Generates the module every module workload shares.
///
/// The seed draws each function's body (the spec seeds of
/// [`module_specs`]), but not the mix: function `i` takes the `i`-th
/// profile × pressure × size class in a fixed rotation, with one region
/// twice as likely as two or three, as in `module_specs`.  Every seed then
/// has the same number of functions of each class, so two seeds' figures
/// differ by the bodies alone, not by how many heavy functions were drawn.
pub fn generate_module(seed: u64, functions: usize) -> Vec<Function> {
    const REGIONS: [usize; 4] = [1, 1, 2, 3];
    let classes = ShapeProfile::ALL.len() * PressureLevel::ALL.len() * REGIONS.len();
    module_specs(&ModuleParams { functions }, seed)
        .into_iter()
        .map(|spec| {
            let class = spec.index % classes;
            FunctionSpec {
                profile: ShapeProfile::ALL[class % ShapeProfile::ALL.len()],
                pressure: PressureLevel::ALL
                    [class / ShapeProfile::ALL.len() % PressureLevel::ALL.len()],
                regions: REGIONS[class / (ShapeProfile::ALL.len() * PressureLevel::ALL.len())],
                ..spec
            }
            .generate()
        })
        .collect()
}

/// The deterministic part of an [`AllocationReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// The allocator's own validity flag.
    pub valid: bool,
    /// Values spilled.
    pub spilled_values: usize,
    /// Reload instructions inserted.
    pub reloads: usize,
    /// Move costs of the final assignment.
    pub moves: MoveCosts,
    /// `Maxlive` of the final function.
    pub maxlive: usize,
    /// Distinct registers used.
    pub registers_used: usize,
}

impl From<&AllocationReport> for Summary {
    fn from(r: &AllocationReport) -> Self {
        Summary {
            valid: r.valid,
            spilled_values: r.spilled_values,
            reloads: r.reloads_inserted,
            moves: r.moves,
            maxlive: r.maxlive,
            registers_used: r.registers_used,
        }
    }
}

/// Audits one allocation with the independent verifier at the
/// `boundaries` level; returns a reason when it fails.
fn check_allocation(
    summary: &Summary,
    function: &Function,
    assignment: &RegisterAssignment,
) -> Option<String> {
    if !summary.valid {
        return Some("allocator reported an invalid assignment".to_string());
    }
    let mut cx = VerifyCtx::at(VerifyLevel::Boundaries, "module");
    cx.function = Some(function);
    cx.assume_ssa = false;
    cx.allocation = Some(AllocCtx { assignment, k: K });
    verify(&cx).first().map(ToString::to_string)
}

/// Sums of the deterministic code-quality figures over one module pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Quality {
    spilled_values: u64,
    reloads: u64,
    remaining_move_weight: u64,
    coalesced_weight: u64,
}

impl Quality {
    fn of<'a>(summaries: impl IntoIterator<Item = &'a Summary>) -> Quality {
        let mut q = Quality::default();
        for s in summaries {
            q.spilled_values += s.spilled_values as u64;
            q.reloads += s.reloads as u64;
            q.remaining_move_weight += s.moves.remaining_weight();
            q.coalesced_weight += s.moves.eliminated_weight;
        }
        q
    }

    fn record(&self, out: &mut Outcome) {
        out.deterministic.extend([
            ("spilled_values", self.spilled_values),
            ("reloads", self.reloads),
        ]);
    }
}

/// The end-to-end run: allocate the module in whole passes until
/// `seconds` have elapsed (at least three passes and `min_ops` ops),
/// then check every output outside the timed phase.
pub fn run(alloc: Allocator, seed: u64, seconds: f64, min_ops: usize, functions: usize) -> Outcome {
    let (setup_s, module) = measure::median_setup(|| generate_module(seed, functions));
    let kind = alloc.kind();
    let timed = measure::timed_passes(
        &module,
        &[CpuClock::CALLER],
        seconds,
        min_ops,
        |f| run_allocator_with_artifacts(f, K, kind),
        |(report, artifacts)| (Summary::from(&report), artifacts),
        |(summary, _), (report, _)| *summary == Summary::from(report),
    );

    let mut out = timed.outcome();
    let mut bad = vec![false; module.len()];
    for (i, (summary, artifacts)) in timed.first.iter().enumerate() {
        if let Some(why) = check_allocation(summary, &artifacts.function, &artifacts.assignment) {
            bad[i] = true;
            out.problems.push(format!("function {i}: {why}"));
        }
    }
    out.failed = timed.failed(&bad);
    out.problems.truncate(5);

    out.push("setup_s", setup_s, "s");
    measure::push_health_metrics(&mut out);
    let quality = Quality::of(timed.first.iter().map(|(s, _)| s));
    measure::push_moves(
        &mut out,
        quality.remaining_move_weight,
        quality.coalesced_weight,
    );
    quality.record(&mut out);
    out
}

/// What one allocation produced, as the inner entry point
/// (`chaitin_allocate` / `ssa_allocate_with_spiller`) reports it: rounds
/// and the spilled set are not part of the allocator's report.
#[derive(Debug)]
struct Allocation {
    function: Function,
    assignment: RegisterAssignment,
    rounds: usize,
    spilled: Vec<Var>,
    reloads: usize,
}

impl Allocation {
    /// True when `self` and `other` are the same allocation.
    fn matches(&self, other: &Allocation) -> bool {
        self.produced(&other.function, &other.assignment)
            && (self.rounds, &self.spilled, self.reloads)
                == (other.rounds, &other.spilled, other.reloads)
    }

    /// True when this allocation ends in `function` and `assignment`.
    fn produced(&self, function: &Function, assignment: &RegisterAssignment) -> bool {
        let key = |a: &RegisterAssignment| (a.iter().collect::<Vec<_>>(), a.spilled().to_vec());
        self.function.to_string() == function.to_string()
            && key(&self.assignment) == key(assignment)
    }
}

fn inner_entry(alloc: Allocator, f: &Function) -> Allocation {
    match alloc {
        Allocator::Chaitin => {
            let o = chaitin_allocate(f, ChaitinConfig::new(K));
            Allocation {
                function: o.function,
                assignment: o.assignment,
                rounds: o.rounds,
                spilled: o.spilled_values,
                reloads: o.reloads_inserted,
            }
        }
        Allocator::Ssa => {
            let o = ssa_allocate_with_spiller(
                f,
                K,
                CoalescingStrategy::BriggsGeorge,
                SpillerKind::PressureGreedy,
            );
            Allocation {
                function: o.function,
                assignment: o.assignment,
                rounds: 1,
                spilled: o.spilled_values,
                reloads: o.reloads_inserted,
            }
        }
    }
}

/// Replays `RegisterAssignment::validate` + `is_valid` stage by stage.
fn replay_validate(tr: &Tracer, f: &Function, a: &RegisterAssignment) -> bool {
    let live = tr.span("ir.liveness", || Liveness::compute(f));
    let ig = tr.span("ir.interference", || InterferenceGraph::build(f, &live));
    tr.span("alloc.validate", || {
        let complete = (0..f.num_vars()).all(|i| {
            let v = Var::new(i);
            match a.register_of(v) {
                Some(r) => r < K,
                None => a.is_spilled(v),
            }
        });
        complete
            && ig.graph.edges().all(|(x, y)| {
                let (rx, ry) = (
                    a.register_of(Var::new(x.index())),
                    a.register_of(Var::new(y.index())),
                );
                !(rx.is_some() && rx == ry)
            })
    })
}

/// Stage-by-stage replay of `chaitin_allocate` plus the report
/// `run_allocator_with_artifacts` derives from it.
fn replay_chaitin(tr: &Tracer, f: &Function) -> (Summary, Allocation) {
    tr.span("alloc", || {
        let max_rounds = ChaitinConfig::new(K).max_rounds.max(1);
        let mut function = tr.span("ir.clone", || f.clone());
        let mut spilled: Vec<Var> = Vec::new();
        let mut reloads = 0usize;
        let mut rounds = 0usize;
        let result = loop {
            rounds += 1;
            let liveness = tr.span("ir.liveness", || Liveness::compute(&function));
            let ig = tr.span("ir.interference", || {
                InterferenceGraph::build(&function, &liveness)
            });
            let ag = tr.span("core.affinity", || AffinityGraph::from_interference(&ig));
            let result = tr.span("core.irc", || irc::allocate(&ag, K));
            let spills: Vec<Var> = result.spilled.iter().map(|v| Var::new(v.index())).collect();
            if spills.is_empty() || rounds == max_rounds {
                break result;
            }
            let mut spill_result = spill::SpillResult::default();
            tr.span("ir.spill_everywhere", || {
                for victim in &spills {
                    spill::spill_everywhere(&mut function, *victim, &mut spill_result);
                }
            });
            reloads += spill_result.reloads;
            spilled.extend(spills);
        };
        let mut assignment = RegisterAssignment::new();
        for i in 0..function.num_vars() {
            match result.color_of(VertexId::new(i)) {
                Some(c) => assignment.assign(Var::new(i), c),
                None => assignment.spill(Var::new(i)),
            }
        }
        for &v in &spilled {
            if assignment.register_of(v).is_none() {
                assignment.spill(v);
            }
        }
        let moves = tr.span("alloc.move_costs", || assignment.move_costs(&function));
        let valid = replay_validate(tr, &function, &assignment);
        let extra = assignment
            .spilled()
            .iter()
            .filter(|v| !spilled.contains(v))
            .count();
        let liveness = tr.span("ir.liveness", || Liveness::compute(&function));
        let maxlive = tr.span("ir.maxlive", || liveness.maxlive_precise(&function));
        let summary = Summary {
            valid,
            spilled_values: spilled.len() + extra,
            reloads,
            moves,
            maxlive,
            registers_used: assignment.registers_used(),
        };
        let allocation = Allocation {
            function,
            assignment,
            rounds,
            spilled,
            reloads,
        };
        (summary, allocation)
    })
}

/// Stage-by-stage replay of `ssa_allocate_with_spiller` (pressure-greedy,
/// Briggs+George) plus the report `run_allocator_with_artifacts` derives
/// from it.
fn replay_ssa(tr: &Tracer, f: &Function) -> (Summary, Allocation) {
    tr.span("alloc", || {
        let spiller = SpillerKind::PressureGreedy;
        let mut function = tr.span("ir.ssa", || {
            if ssa::is_ssa(f) {
                f.clone()
            } else {
                ssa::construct_ssa(f)
            }
        });
        {
            let live = tr.span("ir.liveness", || Liveness::compute(&function));
            let ig = tr.span("ir.interference", || {
                InterferenceGraph::build(&function, &live)
            });
            tr.span("graph.is_chordal", || chordal::is_chordal(&ig.graph));
        }
        let first = tr.span("ir.spill_pressure", || spiller.run(&mut function, K));
        tr.span("ir.out_of_ssa", || out_of_ssa::destruct_ssa(&mut function));
        let correction = tr.span("ir.spill_pressure", || spiller.run(&mut function, K));
        let liveness = tr.span("ir.liveness", || Liveness::compute(&function));
        let maxlive = tr.span("ir.maxlive", || liveness.maxlive_precise(&function));
        let ig = tr.span("ir.interference", || {
            InterferenceGraph::build(&function, &liveness)
        });
        let ag = tr.span("core.affinity", || AffinityGraph::from_interference(&ig));
        let mut coalescing: Coalescing = tr.span("core.conservative", || {
            conservative_coalesce(&ag, K, ConservativeRule::BriggsGeorge).coalescing
        });

        let merged_graph = coalescing.merged_graph.clone();
        let residual_affinities: Vec<Affinity> = ag
            .affinities
            .iter()
            .filter_map(|aff| {
                let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
                (ra != rb && !merged_graph.has_edge(ra, rb))
                    .then(|| Affinity::weighted(ra, rb, aff.weight))
            })
            .collect();
        let residual = AffinityGraph {
            graph: merged_graph,
            affinities: residual_affinities,
        };
        let order = tr.span("graph.smallest_last", || {
            greedy::smallest_last_order(&residual.graph)
        });
        let select = tr.span("alloc.biased_select", || {
            biased::biased_select(&residual, K, &order)
        });

        let mut assignment = RegisterAssignment::new();
        let mut uncolored = 0usize;
        for i in 0..function.num_vars() {
            let vertex = VertexId::new(i);
            if !ag.graph.is_live(vertex) {
                continue;
            }
            match select.coloring.color_of(coalescing.class_of(vertex)) {
                Some(c) => assignment.assign(Var::new(i), c),
                None => {
                    assignment.spill(Var::new(i));
                    uncolored += 1;
                }
            }
        }
        let mut spilled = first.spilled;
        spilled.extend(correction.spilled);
        let reloads = first.reloads + correction.reloads;
        let moves = tr.span("alloc.move_costs", || assignment.move_costs(&function));
        let valid = replay_validate(tr, &function, &assignment);
        let summary = Summary {
            valid,
            spilled_values: spilled.len() + uncolored,
            reloads,
            moves,
            maxlive,
            registers_used: assignment.registers_used(),
        };
        let allocation = Allocation {
            function,
            assignment,
            rounds: 1,
            spilled,
            reloads,
        };
        (summary, allocation)
    })
}

/// Spans whose self time is glue of the entry point rather than a stage.
const GLUE: &[&str] = &["alloc"];

/// The traced run: the untraced entry point over one module pass, its
/// inner allocator call, and the stage-by-stage replay, with replay
/// fidelity and counter identity checked.
pub fn run_traced(alloc: Allocator, seed: u64, functions: usize, tracer: &Tracer) -> Outcome {
    let gen_start = Instant::now();
    let module = generate_module(seed, functions);
    let gen_ms = measure::ms(gen_start.elapsed());
    let kind = alloc.kind();
    let n = module.len();

    // The inner call runs first and doubles as the warm-up pass; the entry
    // point and the replay then alternate which goes first per function,
    // so neither always runs on the warmer cache.
    let inner: Vec<Allocation> = module.iter().map(|f| inner_entry(alloc, f)).collect();
    let (mut entry, mut replays) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut entry_counters, mut replay_counters) = (Counters::default(), Counters::default());
    for (i, f) in module.iter().enumerate() {
        let mut run_entry = || {
            let (timed, counters) = coalesce_stats::collect(|| {
                let t = Instant::now();
                let (report, artifacts) = run_allocator_with_artifacts(black_box(f), K, kind);
                (t.elapsed(), Summary::from(&report), artifacts)
            });
            entry.push(timed);
            entry_counters.merge(&counters);
        };
        let mut run_replay = || {
            let (replay, counters) = coalesce_stats::collect(|| match alloc {
                Allocator::Chaitin => replay_chaitin(tracer, f),
                Allocator::Ssa => replay_ssa(tracer, f),
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

    let mut out = Outcome {
        attempted: module.len() as u64,
        ..Outcome::default()
    };
    let (mut rounds, mut limit_hits) = (0usize, 0usize);
    let max_rounds = ChaitinConfig::new(K).max_rounds;
    for (i, ((_, summary, artifacts), (inner, (replay_summary, replay)))) in
        entry.iter().zip(inner.iter().zip(&replays)).enumerate()
    {
        rounds += replay.rounds;
        limit_hits += usize::from(replay.rounds == max_rounds);
        let faithful = replay_summary == summary
            && replay.matches(inner)
            && inner.produced(&artifacts.function, &artifacts.assignment);
        let verified = check_allocation(summary, &artifacts.function, &artifacts.assignment);
        if !faithful || verified.is_some() {
            out.failed += 1;
            out.problems.push(match verified {
                Some(why) => format!("function {i}: {why}"),
                None => format!("function {i}: replay diverges from the entry point"),
            });
        }
    }
    out.problems.truncate(5);
    if entry_counters != replay_counters {
        out.problems
            .push("replay counters differ from the entry point's".to_string());
    }

    let entry_ms: f64 = entry.iter().map(|(d, _, _)| measure::ms(*d)).sum();
    crate::layers::push_per_layer(&mut out, tracer, &replay_counters, "alloc", GLUE, entry_ms);
    crate::layers::set(&mut out, "gen.ms", gen_ms);
    let quality = Quality::of(entry.iter().map(|(_, s, _)| s));
    quality.record(&mut out);
    measure::record_moves(
        &mut out,
        quality.remaining_move_weight,
        quality.coalesced_weight,
    );
    out.record_counters(&replay_counters);
    crate::layers::set_deterministic(&mut out);
    if alloc == Allocator::Chaitin {
        out.push(
            "alloc.chaitin_rounds_mean",
            rounds as f64 / n.max(1) as f64,
            "rounds",
        );
        out.push("alloc.chaitin_round_limit_hits", limit_hits as f64, "count");
    }
    out
}
