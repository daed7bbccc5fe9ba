//! Seeded fault injectors — the verifier's own test harness.
//!
//! Each [`Fault`] builds the clean pipeline artifacts for a small
//! hand-written program, corrupts exactly one of them the way a real bug
//! would (a dropped interference edge, a moved reload, a miscolored
//! vertex, a broken φ, an unreachable block...), and runs the suite on
//! the affected boundary.  The suite must flag the corruption with the
//! fault's [`Fault::expected_rule`]; on the uncorrupted artifacts it must
//! stay silent ([`verify_clean_sample`]).

use crate::{
    verify, AllocCtx, ChordalCtx, CoalesceCtx, InterferenceCtx, SpillCtx, VerifyCtx, VerifyLevel,
    Violation,
};
use coalesce_alloc::pipeline::{run_allocator_with_artifacts, AllocatorKind};
use coalesce_alloc::{CoalescingStrategy, RegisterAssignment};
use coalesce_graph::chordal::{
    chordal_clique_number, chordal_max_clique, perfect_elimination_ordering,
};
use coalesce_graph::VertexId;
use coalesce_ir::function::{BlockId, FunctionBuilder, Instr, Terminator};
use coalesce_ir::interference::{BuildOptions, InterferenceKind};
use coalesce_ir::spill::{spill_everywhere, spill_to_pressure, SpillResult};
use coalesce_ir::{Function, InstrView, InterferenceGraph, Liveness, Var};

/// The clean artifacts of one pipeline run over [`sample_program`].
#[derive(Debug)]
pub struct SampleArtifacts {
    /// The strict-SSA input function.
    pub function: Function,
    /// Audited liveness of `function`.
    pub liveness: Liveness,
    /// Audited intersection-interference graph of `function`.
    pub ig: InterferenceGraph,
    /// PEO witness for the graph's chordality.
    pub peo: Vec<VertexId>,
    /// Clique number of the graph.
    pub omega: usize,
    /// Maximum-clique witness for `omega`.
    pub clique: Vec<VertexId>,
    /// The function after spilling to `spill_k`.
    pub spilled: Function,
    /// Audited liveness of `spilled`.
    pub spilled_liveness: Liveness,
    /// Victims the spiller evicted.
    pub victims: Vec<Var>,
    /// Audited post-spill `Maxlive`.
    pub spilled_maxlive: usize,
    /// Pressure target the spill pass ran at.
    pub spill_k: usize,
    /// Final lowered function of the SSA-based allocator.
    pub alloc_function: Function,
    /// Its final register assignment.
    pub alloc_assignment: RegisterAssignment,
    /// Register count the allocator ran at.
    pub alloc_k: usize,
}

/// A small strict-SSA program with a diamond, a loop, and enough register
/// pressure (`Maxlive` 5) that spilling to `k = 3` evicts real victims.
pub fn sample_program() -> Function {
    let mut b = FunctionBuilder::new("mutation-sample");
    let entry = b.entry_block();
    let (left, right, join, header, body, exit) = (
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
    );
    let c = b.def(entry, "c");
    let x = b.def(entry, "x");
    let y = b.def(entry, "y");
    let z = b.def(entry, "z");
    let w = b.def(entry, "w");
    b.branch(entry, c, left, right);
    let l1 = b.op(left, "l1", &[x, y]);
    b.jump(left, join);
    let r1 = b.op(right, "r1", &[y, z]);
    b.jump(right, join);
    let p = b.phi(join, "p", &[(left, l1), (right, r1)]);
    b.jump(join, header);
    b.set_loop_depth(header, 1);
    b.set_loop_depth(body, 1);
    let i2 = b.fresh_var("i2");
    let i = b.phi(header, "i", &[(join, p), (body, i2)]);
    b.branch(header, c, body, exit);
    let t = b.op(body, "t", &[i, x, w]);
    b.function_mut().emit_op(body, Some(i2), &[t]);
    b.jump(body, header);
    b.ret(exit, &[i, w, z]);
    b.finish()
}

/// Builds the full clean artifact set over [`sample_program`].
pub fn sample_artifacts() -> SampleArtifacts {
    let function = sample_program();
    let liveness = Liveness::compute(&function);
    let ig = InterferenceGraph::build_with(
        &function,
        &liveness,
        BuildOptions {
            kind: InterferenceKind::Intersection,
            ..BuildOptions::default()
        },
    );
    let peo = perfect_elimination_ordering(&ig.graph)
        .expect("strict-SSA intersection graph must be chordal");
    let omega = chordal_clique_number(&ig.graph).expect("chordal");
    let clique = chordal_max_clique(&ig.graph).expect("chordal");

    let spill_k = 3;
    let mut spilled = function.clone();
    let result = spill_to_pressure(&mut spilled, spill_k);
    assert!(!result.spilled.is_empty(), "sample must force spills");
    let spilled_liveness = Liveness::compute(&spilled);
    let spilled_maxlive = spilled_liveness.maxlive_precise(&spilled);

    let alloc_k = 5;
    let (_, artifacts) = run_allocator_with_artifacts(
        &function,
        alloc_k,
        AllocatorKind::SsaBased(CoalescingStrategy::Briggs),
    );

    SampleArtifacts {
        function,
        liveness,
        ig,
        peo,
        omega,
        clique,
        spilled,
        spilled_liveness,
        victims: result.spilled,
        spilled_maxlive,
        spill_k,
        alloc_function: artifacts.function,
        alloc_assignment: artifacts.assignment,
        alloc_k,
    }
}

/// One seeded fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Remove one interference edge the liveness demands.
    DropInterferenceEdge,
    /// Add an interference edge with no simultaneous-liveness witness.
    AddSpuriousEdge,
    /// Swap a reload with the instruction that consumes it.
    MoveReload,
    /// Give an interfering pair the same register.
    MiscolorVertex,
    /// Assign a register `>= k`.
    RegisterOutOfRange,
    /// Leave a variable with neither register nor spill slot.
    MissingAssignment,
    /// Point a φ argument at a non-predecessor block.
    BreakPhi,
    /// Define an already-defined variable a second time.
    DuplicateDef,
    /// Add a block no edge reaches.
    UnreachableBlock,
    /// Bypass a terminator to an out-of-range block.
    BadTerminator,
    /// Clear a genuinely live variable from every claimed live set.
    CorruptLiveness,
    /// Repeat a vertex inside a claimed PEO.
    CorruptPeo,
    /// Claim an omega one larger than the witness supports.
    InflateOmega,
    /// Insert a use that keeps a spilled victim live across a boundary.
    ResurrectVictim,
    /// Claim a post-spill Maxlive one lower than reality.
    UnderclaimMaxlive,
    /// Merge two interfering vertices with no affinity between them.
    BogusCoalesce,
}

impl Fault {
    /// Every injector, in catalog order.
    pub const ALL: [Fault; 16] = [
        Fault::DropInterferenceEdge,
        Fault::AddSpuriousEdge,
        Fault::MoveReload,
        Fault::MiscolorVertex,
        Fault::RegisterOutOfRange,
        Fault::MissingAssignment,
        Fault::BreakPhi,
        Fault::DuplicateDef,
        Fault::UnreachableBlock,
        Fault::BadTerminator,
        Fault::CorruptLiveness,
        Fault::CorruptPeo,
        Fault::InflateOmega,
        Fault::ResurrectVictim,
        Fault::UnderclaimMaxlive,
        Fault::BogusCoalesce,
    ];

    /// The rule id the suite must report for this fault.
    pub fn expected_rule(self) -> &'static str {
        match self {
            Fault::DropInterferenceEdge => crate::rules::INTERFERENCE_MISSING_EDGE.id,
            Fault::AddSpuriousEdge => crate::rules::INTERFERENCE_SPURIOUS_EDGE.id,
            Fault::MoveReload => crate::rules::SSA_DOMINANCE.id,
            Fault::MiscolorVertex => crate::rules::ALLOC_INTERFERENCE_OVERLAP.id,
            Fault::RegisterOutOfRange => crate::rules::ALLOC_REGISTER_BOUND.id,
            Fault::MissingAssignment => crate::rules::ALLOC_UNASSIGNED.id,
            Fault::BreakPhi => crate::rules::SSA_PHI_COHERENCE.id,
            Fault::DuplicateDef => crate::rules::SSA_SINGLE_DEF.id,
            Fault::UnreachableBlock => crate::rules::CFG_ENTRY_REACHABLE.id,
            Fault::BadTerminator => crate::rules::CFG_TERMINATOR_EDGES.id,
            Fault::CorruptLiveness => crate::rules::LIVE_TRANSFER.id,
            Fault::CorruptPeo => crate::rules::CERT_PEO_INVALID.id,
            Fault::InflateOmega => crate::rules::CERT_CLIQUE_INVALID.id,
            Fault::ResurrectVictim => crate::rules::SPILL_VICTIM_LIVE.id,
            Fault::UnderclaimMaxlive => crate::rules::SPILL_MAXLIVE_EXCEEDED.id,
            Fault::BogusCoalesce => crate::rules::ALLOC_BOGUS_COALESCE.id,
        }
    }

    /// Injects this fault into freshly built clean artifacts and runs the
    /// suite at [`VerifyLevel::Paranoid`] on the affected boundary.
    pub fn inject_and_verify(self) -> Vec<Violation> {
        let mut a = sample_artifacts();
        let site = "mutation";
        match self {
            Fault::DropInterferenceEdge => {
                let (u, v) = a.ig.graph.edges().next().expect("graph has edges");
                a.ig.graph.remove_edge(u, v);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&a.function);
                cx.interference = Some(InterferenceCtx {
                    ig: &a.ig,
                    kind: InterferenceKind::Intersection,
                });
                verify(&cx)
            }
            Fault::AddSpuriousEdge => {
                let pair = non_adjacent_pair(&a.ig).expect("graph is not complete");
                a.ig.graph.add_edge(pair.0, pair.1);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&a.function);
                cx.interference = Some(InterferenceCtx {
                    ig: &a.ig,
                    kind: InterferenceKind::Intersection,
                });
                verify(&cx)
            }
            Fault::MoveReload => {
                // Spill one victim by hand so the reload sits right before
                // its use, then swap the two instructions.
                let mut f = a.function.clone();
                let x = Var::new(1); // `x`, used by ops in two blocks
                let mut result = SpillResult::default();
                spill_everywhere(&mut f, x, &mut result);
                let (b, i) = reload_before_use(&f).expect("spill must insert a reload");
                let mut instrs = f.block_instrs_owned(b);
                instrs.swap(i, i + 1);
                f.set_block_instrs(b, &instrs);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&f);
                verify(&cx)
            }
            Fault::MiscolorVertex => {
                let live = crate::reference::RefLiveness::compute(&a.alloc_function);
                let pairs = crate::reference::interference_pairs(
                    &a.alloc_function,
                    &live,
                    InterferenceKind::Chaitin,
                );
                let key = pairs
                    .iter()
                    .find(|&&k| {
                        let p = Var::new((k >> 32) as usize);
                        let q = Var::new((k & 0xffff_ffff) as usize);
                        a.alloc_assignment.register_of(p).is_some()
                            && a.alloc_assignment.register_of(q).is_some()
                    })
                    .copied()
                    .expect("some interfering pair is fully colored");
                let p = Var::new((key >> 32) as usize);
                let q = Var::new((key & 0xffff_ffff) as usize);
                let r = a.alloc_assignment.register_of(q).unwrap();
                a.alloc_assignment.assign(p, r);
                verify(&alloc_ctx(
                    site,
                    &a.alloc_function,
                    &a.alloc_assignment,
                    a.alloc_k,
                ))
            }
            Fault::RegisterOutOfRange => {
                a.alloc_assignment.assign(Var::new(0), a.alloc_k);
                verify(&alloc_ctx(
                    site,
                    &a.alloc_function,
                    &a.alloc_assignment,
                    a.alloc_k,
                ))
            }
            Fault::MissingAssignment => {
                let mut f = a.alloc_function.clone();
                f.new_var("orphan");
                verify(&alloc_ctx(site, &f, &a.alloc_assignment, a.alloc_k))
            }
            Fault::BreakPhi => {
                let mut f = a.function.clone();
                let join = BlockId::new(3);
                let args = f.phi_args_mut(join, 0);
                assert!(!args.is_empty(), "join block starts with a phi");
                args[0].pred = join; // join is not its own predecessor
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&f);
                verify(&cx)
            }
            Fault::DuplicateDef => {
                let mut f = a.function.clone();
                let y = Var::new(2);
                f.push_instr(
                    BlockId::new(1),
                    Instr::Op {
                        dst: Some(y),
                        uses: vec![],
                    },
                );
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&f);
                verify(&cx)
            }
            Fault::UnreachableBlock => {
                let mut f = a.function.clone();
                f.add_block(Terminator::Return { uses: vec![] }, 0);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&f);
                verify(&cx)
            }
            Fault::BadTerminator => {
                let mut f = a.function.clone();
                let bogus = BlockId::new(f.num_blocks() + 10);
                *f.terminator_mut(BlockId::new(6)) = Terminator::Jump(bogus);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&f);
                verify(&cx)
            }
            Fault::CorruptLiveness => {
                // `x` is live into the left block; clearing it everywhere
                // breaks the backward-walk equation there.
                a.liveness.apply_spill_rewrite(Var::new(1), &[]);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&a.function);
                cx.liveness = Some(&a.liveness);
                verify(&cx)
            }
            Fault::CorruptPeo => {
                let last = a.peo.len() - 1;
                a.peo[last] = a.peo[0];
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.chordal = Some(ChordalCtx {
                    graph: &a.ig.graph,
                    peo: Some(&a.peo),
                    claimed_omega: None,
                    clique: None,
                });
                verify(&cx)
            }
            Fault::InflateOmega => {
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.chordal = Some(ChordalCtx {
                    graph: &a.ig.graph,
                    peo: None,
                    claimed_omega: Some(a.omega + 1),
                    clique: Some(&a.clique),
                });
                verify(&cx)
            }
            Fault::ResurrectVictim => {
                let victim = a.victims[0];
                a.spilled.emit_op(BlockId::new(6), None, &[victim]);
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&a.spilled);
                cx.spill = Some(SpillCtx {
                    victims: &a.victims,
                    // Keep the claim honest so only the victim rule fires.
                    claimed_maxlive: a.spilled_maxlive + 1,
                    victims_die: true,
                });
                verify(&cx)
            }
            Fault::UnderclaimMaxlive => {
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.function = Some(&a.spilled);
                cx.spill = Some(SpillCtx {
                    victims: &a.victims,
                    claimed_maxlive: a.spilled_maxlive - 1,
                    victims_die: true,
                });
                verify(&cx)
            }
            Fault::BogusCoalesce => {
                let (u, v) = a.ig.graph.edges().next().expect("graph has edges");
                let classes = vec![vec![u, v]];
                let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
                cx.coalesce = Some(CoalesceCtx {
                    graph: &a.ig.graph,
                    affinities: &[],
                    classes: &classes,
                });
                verify(&cx)
            }
        }
    }
}

fn alloc_ctx<'a>(
    site: &'a str,
    f: &'a Function,
    assignment: &'a RegisterAssignment,
    k: usize,
) -> VerifyCtx<'a> {
    let mut cx = VerifyCtx::at(VerifyLevel::Paranoid, site);
    cx.function = Some(f);
    cx.assume_ssa = false; // the lowered function is out of SSA
    cx.allocation = Some(AllocCtx { assignment, k });
    cx
}

fn non_adjacent_pair(ig: &InterferenceGraph) -> Option<(VertexId, VertexId)> {
    let vertices: Vec<VertexId> = ig.graph.vertices().collect();
    for (i, &u) in vertices.iter().enumerate() {
        for &v in &vertices[i + 1..] {
            if !ig.graph.has_edge(u, v) {
                return Some((u, v));
            }
        }
    }
    None
}

/// Finds a `(block, position)` where a reload (an op defining a fresh
/// variable from no uses) immediately precedes the instruction that uses
/// it.
fn reload_before_use(f: &Function) -> Option<(BlockId, usize)> {
    for b in f.block_ids() {
        let instrs: Vec<InstrView<'_>> = f.block_instrs(b).collect();
        for i in 0..instrs.len().saturating_sub(1) {
            let InstrView::Op {
                dst: Some(d),
                uses: &[],
            } = instrs[i]
            else {
                continue;
            };
            if instrs[i + 1].local_uses().contains(&d) {
                return Some((b, i));
            }
        }
    }
    None
}

/// Runs the suite at [`VerifyLevel::Paranoid`] over every boundary of the
/// *clean* sample artifacts; any violation here is a verifier bug.
pub fn verify_clean_sample() -> Vec<Violation> {
    let a = sample_artifacts();
    let mut out = Vec::new();

    let mut ssa_cx = VerifyCtx::at(VerifyLevel::Paranoid, "clean/ssa");
    ssa_cx.function = Some(&a.function);
    ssa_cx.liveness = Some(&a.liveness);
    ssa_cx.interference = Some(InterferenceCtx {
        ig: &a.ig,
        kind: InterferenceKind::Intersection,
    });
    ssa_cx.chordal = Some(ChordalCtx {
        graph: &a.ig.graph,
        peo: Some(&a.peo),
        claimed_omega: Some(a.omega),
        clique: Some(&a.clique),
    });
    out.extend(verify(&ssa_cx));

    let mut spill_cx = VerifyCtx::at(VerifyLevel::Paranoid, "clean/spill");
    spill_cx.function = Some(&a.spilled);
    spill_cx.liveness = Some(&a.spilled_liveness);
    spill_cx.spill = Some(SpillCtx {
        victims: &a.victims,
        claimed_maxlive: a.spilled_maxlive,
        victims_die: true,
    });
    out.extend(verify(&spill_cx));

    out.extend(verify(&alloc_ctx(
        "clean/alloc",
        &a.alloc_function,
        &a.alloc_assignment,
        a.alloc_k,
    )));
    out
}

/// Deterministic *textual* fault injectors for wire-format instances
/// (DIMACS / challenge files, JSONL request lines).
///
/// Where [`Fault`] corrupts in-memory pipeline artifacts to exercise the
/// verifier, `TextFault` corrupts the *bytes a server receives* to
/// exercise the parsers and the request path: every variant must turn into
/// a typed parse/validation error (or a structured protocol error), never
/// a panic or an allocation blow-up.  The E18 chaos soak injects these
/// into its request trace at a configurable rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFault {
    /// Cut the text roughly in half mid-line (a truncated upload).
    TruncateTail,
    /// Multiply a declared count on the problem line (count mismatch).
    InflateDeclaredCount,
    /// Declare an absurd vertex count (hostile allocation-sizing input).
    HugeDeclaredCount,
    /// Rewrite the first edge to reference an out-of-range vertex.
    OutOfRangeVertex,
    /// Rewrite the first edge into a self-loop.
    SelfLoop,
    /// Replace a numeric field with a non-numeric token.
    NonNumericField,
    /// Append a line with an unknown type marker.
    UnknownLineType,
    /// Splice raw non-format bytes into the middle of the text.
    GarbageBytes,
}

impl TextFault {
    /// Every textual fault, in a stable order (index with a seeded draw).
    pub const ALL: [TextFault; 8] = [
        TextFault::TruncateTail,
        TextFault::InflateDeclaredCount,
        TextFault::HugeDeclaredCount,
        TextFault::OutOfRangeVertex,
        TextFault::SelfLoop,
        TextFault::NonNumericField,
        TextFault::UnknownLineType,
        TextFault::GarbageBytes,
    ];

    /// A stable identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            TextFault::TruncateTail => "truncate-tail",
            TextFault::InflateDeclaredCount => "inflate-declared-count",
            TextFault::HugeDeclaredCount => "huge-declared-count",
            TextFault::OutOfRangeVertex => "out-of-range-vertex",
            TextFault::SelfLoop => "self-loop",
            TextFault::NonNumericField => "non-numeric-field",
            TextFault::UnknownLineType => "unknown-line-type",
            TextFault::GarbageBytes => "garbage-bytes",
        }
    }

    /// Applies the fault to a DIMACS/challenge-style instance text.
    ///
    /// Deterministic: the output depends only on `self` and `text`.  The
    /// result is guaranteed to differ from well-formed input (each variant
    /// introduces a violation the parsers are specified to reject), though
    /// on degenerate inputs (e.g. empty text) some variants reduce to
    /// appending garbage — still a guaranteed parse error.
    pub fn apply(self, text: &str) -> String {
        match self {
            TextFault::TruncateTail => {
                let cut = text.len() / 2;
                // Respect UTF-8 boundaries; instance text is ASCII anyway.
                let mut cut = cut.min(text.len());
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.get(..cut).unwrap_or("").to_string()
            }
            TextFault::InflateDeclaredCount => rewrite_problem_line(text, |fields| {
                if let Some(last) = fields.last_mut() {
                    last.push('7');
                }
            }),
            TextFault::HugeDeclaredCount => rewrite_problem_line(text, |fields| {
                if let Some(first) = fields.first_mut() {
                    *first = "999999999999".to_string();
                }
            }),
            TextFault::OutOfRangeVertex => rewrite_first_edge(text, "e 1 999999"),
            TextFault::SelfLoop => rewrite_first_edge(text, "e 1 1"),
            TextFault::NonNumericField => rewrite_first_edge(text, "e one 2"),
            TextFault::UnknownLineType => format!("{text}z 1 2\n"),
            TextFault::GarbageBytes => {
                let mid = {
                    let mut m = text.len() / 2;
                    while m > 0 && !text.is_char_boundary(m) {
                        m -= 1;
                    }
                    m
                };
                format!("{}\u{1}\u{2}!!garbage!!{}", &text[..mid], &text[mid..])
            }
        }
    }
}

/// Rewrites the numeric fields of the first `p ...` problem line.
fn rewrite_problem_line(text: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let mut done = false;
    let mut out = String::new();
    for line in text.lines() {
        if !done && line.trim_start().starts_with('p') {
            let mut tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            // Keep the `p <kind>` prefix, edit the numeric tail.
            let mut tail: Vec<String> = tokens.split_off(2.min(tokens.len()));
            edit(&mut tail);
            tokens.extend(tail);
            out.push_str(&tokens.join(" "));
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    if !done {
        // No problem line to corrupt: prepend a hostile one instead.
        return format!("p edge 999999999999 0\n{out}");
    }
    out
}

/// Replaces the first `e ...` line with `replacement` (appends one when
/// the text has no edge lines — a guaranteed count mismatch either way).
fn rewrite_first_edge(text: &str, replacement: &str) -> String {
    let mut done = false;
    let mut out = String::new();
    for line in text.lines() {
        if !done && line.trim_start().starts_with('e') {
            out.push_str(replacement);
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    if !done {
        out.push_str(replacement);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sample_has_no_violations() {
        let violations = verify_clean_sample();
        assert!(
            violations.is_empty(),
            "clean pipeline flagged: {violations:#?}"
        );
    }

    #[test]
    fn every_fault_is_caught_with_the_expected_rule() {
        for fault in Fault::ALL {
            let violations = fault.inject_and_verify();
            let expected = fault.expected_rule();
            assert!(
                violations.iter().any(|v| v.rule == expected),
                "{fault:?}: expected rule {expected}, got {violations:#?}"
            );
        }
    }

    #[test]
    fn every_text_fault_breaks_a_valid_challenge_file() {
        // A clean 4-vertex coalescing instance that both parsers accept.
        let clean = "p coalesce 4 2 1\nk 3\ne 1 2\ne 3 4\na 1 3 5\n";
        assert!(coalesce_graph::format::from_challenge(clean).is_ok());
        for fault in TextFault::ALL {
            let corrupted = fault.apply(clean);
            assert!(
                coalesce_graph::format::from_challenge(&corrupted).is_err(),
                "{}: corrupted text must not parse:\n{corrupted}",
                fault.name()
            );
            // Deterministic: same fault + text, same bytes.
            assert_eq!(corrupted, fault.apply(clean), "{}", fault.name());
        }
    }

    #[test]
    fn sample_program_is_strict_ssa_with_pressure() {
        let f = sample_program();
        assert!(coalesce_ir::ssa::is_strict(&f));
        let live = Liveness::compute(&f);
        assert_eq!(live.maxlive_precise(&f), 5);
    }
}
