//! The standard checker suite.
//!
//! Each checker audits one kind of artifact when the context carries it and
//! is silent otherwise.  All checkers are read-only and compare against the
//! [`crate::reference`] implementations, never against the audited code.

use crate::reference::{
    check_clique, check_peo, interference_pairs, pair_key, transfer_in, transfer_out, RefCfg,
    RefDoms, RefGraph, RefLiveness,
};
use crate::{rules, Rule, Verifier, VerifyCtx, Violation};
use coalesce_ir::function::{BlockId, Function, InstrView};
use coalesce_ir::Var;
use std::collections::BTreeSet;

/// At most this many violations are reported per rule per boundary; one
/// summary violation notes the remainder.
const MAX_REPORTS: usize = 5;

/// Boundaries-level size gates: full liveness recomputation is skipped
/// above this many blocks, full interference recomputation above this many
/// instructions (paranoid ignores both).
const BOUNDARIES_RECOMPUTE_BLOCKS: usize = 512;
const BOUNDARIES_INTERFERENCE_INSTRS: usize = 20_000;

/// Sampling stride target for per-block transfer-equation checks at the
/// boundaries level.
const BOUNDARIES_TRANSFER_BLOCKS: usize = 256;

/// The full suite, in audit order.
pub fn standard_suite() -> [&'static dyn Verifier; 8] {
    [
        &CfgChecker,
        &SsaChecker,
        &LivenessChecker,
        &InterferenceChecker,
        &SpillChecker,
        &AllocChecker,
        &CertChecker,
        &CoalesceChecker,
    ]
}

/// Accumulates at most [`MAX_REPORTS`] violations per rule, then one
/// summary line.
struct Capped<'a> {
    out: &'a mut Vec<Violation>,
    rule: Rule,
    count: usize,
}

impl<'a> Capped<'a> {
    fn new(out: &'a mut Vec<Violation>, rule: Rule) -> Self {
        Capped {
            out,
            rule,
            count: 0,
        }
    }

    fn push(&mut self, location: String, explanation: String) {
        self.count += 1;
        if self.count <= MAX_REPORTS {
            self.out
                .push(Violation::new(self.rule, location, explanation));
        }
    }

    fn finish(self, site: &str) {
        if self.count > MAX_REPORTS {
            self.out.push(Violation::new(
                self.rule,
                site.to_string(),
                format!("...and {} more", self.count - MAX_REPORTS),
            ));
        }
    }
}

fn set_diff_summary(expected: &BTreeSet<Var>, actual: &BTreeSet<Var>) -> String {
    let missing: Vec<Var> = expected.difference(actual).take(4).copied().collect();
    let extra: Vec<Var> = actual.difference(expected).take(4).copied().collect();
    format!("missing {missing:?}, spurious {extra:?}")
}

fn as_btree(set: &coalesce_ir::VarSet) -> BTreeSet<Var> {
    set.iter().collect()
}

// ---------------------------------------------------------------------
// CFG well-formedness.
// ---------------------------------------------------------------------

/// Entry reachability and terminator/edge agreement.
#[derive(Debug)]
pub struct CfgChecker;

impl Verifier for CfgChecker {
    fn name(&self) -> &'static str {
        "cfg"
    }

    fn rules(&self) -> &'static [Rule] {
        &[rules::CFG_ENTRY_REACHABLE, rules::CFG_TERMINATOR_EDGES]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let Some(f) = cx.function else { return };
        let site = cx.site;

        // Terminator targets and uses in range.
        let mut terms = Capped::new(out, rules::CFG_TERMINATOR_EDGES);
        for b in f.block_ids() {
            for s in f.terminator(b).successors() {
                if s.index() >= f.num_blocks() {
                    terms.push(
                        format!("{site}:{b}"),
                        format!("terminator targets out-of-range block {s}"),
                    );
                }
            }
            for &v in f.terminator(b).uses() {
                if v.index() >= f.num_vars() {
                    terms.push(
                        format!("{site}:{b}"),
                        format!("terminator uses out-of-range variable {v}"),
                    );
                }
            }
        }
        terms.finish(site);

        // Entry reachability over the reference CFG.
        let cfg = RefCfg::build(f);
        let mut reach = Capped::new(out, rules::CFG_ENTRY_REACHABLE);
        for b in f.block_ids() {
            if !cfg.reachable[b.index()] {
                reach.push(
                    format!("{site}:{b}"),
                    format!("block {b} is unreachable from entry {}", f.entry),
                );
            }
        }
        reach.finish(site);
    }
}

// ---------------------------------------------------------------------
// Strict SSA.
// ---------------------------------------------------------------------

/// Single definitions, definitions dominating uses, and φ/predecessor
/// agreement.
#[derive(Debug)]
pub struct SsaChecker;

/// A use position inside a block; the block end (φ-argument and terminator
/// uses) sorts after every instruction.
const BLOCK_END: usize = usize::MAX;

impl SsaChecker {
    fn def_sites(
        f: &Function,
        out: &mut Vec<Violation>,
        site: &str,
    ) -> Vec<Option<(usize, usize)>> {
        let mut defs: Vec<Option<(usize, usize)>> = vec![None; f.num_vars()];
        let mut single = Capped::new(out, rules::SSA_SINGLE_DEF);
        for (b, i, instr) in f.instructions() {
            let Some(d) = instr.def() else { continue };
            if d.index() >= f.num_vars() {
                continue; // reported by the CFG checker's range rules
            }
            match defs[d.index()] {
                Some((fb, fi)) => single.push(
                    format!("{site}:{b}"),
                    format!("{d} defined at b{fb}[{fi}] and again at {b}[{i}]"),
                ),
                None => defs[d.index()] = Some((b.index(), i)),
            }
        }
        single.finish(site);
        defs
    }
}

impl Verifier for SsaChecker {
    fn name(&self) -> &'static str {
        "ssa"
    }

    fn rules(&self) -> &'static [Rule] {
        &[
            rules::SSA_SINGLE_DEF,
            rules::SSA_DOMINANCE,
            rules::SSA_PHI_COHERENCE,
        ]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let Some(f) = cx.function else { return };
        if !cx.assume_ssa {
            return;
        }
        let site = cx.site;
        let cfg = RefCfg::build(f);
        let defs = Self::def_sites(f, out, site);

        // φ coherence: block-head position and argument/predecessor
        // agreement as multisets.
        let mut phis = Capped::new(out, rules::SSA_PHI_COHERENCE);
        for b in f.block_ids() {
            let mut seen_non_phi = false;
            for (i, instr) in f.block_instrs(b).enumerate() {
                let InstrView::Phi { args, .. } = instr else {
                    seen_non_phi = true;
                    continue;
                };
                if seen_non_phi {
                    phis.push(
                        format!("{site}:{b}"),
                        format!("phi at position {i} after a non-phi instruction"),
                    );
                }
                let mut arg_preds: Vec<usize> = args.iter().map(|a| a.pred.index()).collect();
                arg_preds.sort_unstable();
                let mut actual = cfg.preds[b.index()].clone();
                actual.sort_unstable();
                if arg_preds != actual {
                    phis.push(
                        format!("{site}:{b}"),
                        format!(
                            "phi argument predecessors {arg_preds:?} do not match actual predecessors {actual:?}"
                        ),
                    );
                }
            }
        }
        phis.finish(site);

        // Dominance: every use reached by its definition.  Uses in
        // unreachable blocks are skipped (strictness is a property of
        // executable paths).
        let doms = RefDoms::compute(f, &cfg);
        let mut dom = Capped::new(out, rules::SSA_DOMINANCE);
        let check_use = |v: Var, ub: usize, up: usize, what: &str, dom: &mut Capped<'_>| {
            if v.index() >= f.num_vars() {
                dom.push(
                    format!("{site}:b{ub}"),
                    format!("{what} uses out-of-range variable {v}"),
                );
                return;
            }
            let Some((db, dp)) = defs[v.index()] else {
                dom.push(
                    format!("{site}:b{ub}"),
                    format!("{what} uses {v}, which has no definition"),
                );
                return;
            };
            let ok = if db == ub {
                dp < up
            } else {
                doms.dominates(db, ub)
            };
            if !ok {
                dom.push(
                    format!("{site}:b{ub}"),
                    format!(
                        "{what} uses {v} but its definition at b{db}[{dp}] does not dominate it"
                    ),
                );
            }
        };
        for b in f.block_ids() {
            if !cfg.reachable[b.index()] {
                continue;
            }
            for (i, instr) in f.block_instrs(b).enumerate() {
                if let InstrView::Phi { args, .. } = instr {
                    for a in args {
                        if a.pred.index() < f.num_blocks() && cfg.reachable[a.pred.index()] {
                            check_use(a.value, a.pred.index(), BLOCK_END, "phi argument", &mut dom);
                        }
                    }
                } else {
                    for &u in instr.local_uses() {
                        check_use(u, b.index(), i, &format!("instruction {i}"), &mut dom);
                    }
                }
            }
            for &u in f.terminator(b).uses() {
                check_use(u, b.index(), BLOCK_END, "terminator", &mut dom);
            }
        }
        dom.finish(site);
    }
}

// ---------------------------------------------------------------------
// Liveness consistency.
// ---------------------------------------------------------------------

/// Transfer-equation agreement on (sampled) blocks, plus a full
/// independent fixpoint recomputation when the level allows.
///
/// The two rules are deliberately separate: the transfer equations are
/// local and accept any consistent over-approximation (a variable
/// spuriously live around a cycle with no use still satisfies them); only
/// the full least-fixpoint recomputation rejects those, so `boundaries`
/// size-gates it while `paranoid` always runs it.
#[derive(Debug)]
pub struct LivenessChecker;

impl Verifier for LivenessChecker {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn rules(&self) -> &'static [Rule] {
        &[rules::LIVE_TRANSFER, rules::LIVE_RECOMPUTE]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let (Some(f), Some(live)) = (cx.function, cx.liveness) else {
            return;
        };
        let site = cx.site;
        let n = f.num_blocks();
        let stride = if cx.level.is_paranoid() {
            1
        } else {
            n.div_ceil(BOUNDARIES_TRANSFER_BLOCKS).max(1)
        };
        let mut transfer = Capped::new(out, rules::LIVE_TRANSFER);
        for b in (0..n).step_by(stride) {
            let block = BlockId::new(b);
            let claimed_in = as_btree(live.live_in(block));
            let claimed_out = as_btree(live.live_out(block));
            let expected_out = transfer_out(f, b, |s| as_btree(live.live_in(BlockId::new(s))));
            if expected_out != claimed_out {
                transfer.push(
                    format!("{site}:{block}"),
                    format!(
                        "live-out violates the transfer equation: {}",
                        set_diff_summary(&expected_out, &claimed_out)
                    ),
                );
            }
            let expected_in = transfer_in(f, b, &claimed_out);
            if expected_in != claimed_in {
                transfer.push(
                    format!("{site}:{block}"),
                    format!(
                        "live-in violates the backward walk from live-out: {}",
                        set_diff_summary(&expected_in, &claimed_in)
                    ),
                );
            }
        }
        transfer.finish(site);

        if cx.level.is_paranoid() || n <= BOUNDARIES_RECOMPUTE_BLOCKS {
            let reference = RefLiveness::compute(f);
            let mut recompute = Capped::new(out, rules::LIVE_RECOMPUTE);
            for b in 0..n {
                let block = BlockId::new(b);
                let claimed_in = as_btree(live.live_in(block));
                let claimed_out = as_btree(live.live_out(block));
                if reference.live_in[b] != claimed_in {
                    recompute.push(
                        format!("{site}:{block}"),
                        format!(
                            "live-in differs from the reference fixpoint: {}",
                            set_diff_summary(&reference.live_in[b], &claimed_in)
                        ),
                    );
                }
                if reference.live_out[b] != claimed_out {
                    recompute.push(
                        format!("{site}:{block}"),
                        format!(
                            "live-out differs from the reference fixpoint: {}",
                            set_diff_summary(&reference.live_out[b], &claimed_out)
                        ),
                    );
                }
            }
            recompute.finish(site);
        }
    }
}

// ---------------------------------------------------------------------
// Interference soundness and completeness.
// ---------------------------------------------------------------------

/// Every edge must be backed by a simultaneous-liveness witness
/// (soundness) and every witnessed pair must be an edge (completeness),
/// under the interference definition the graph claims to implement.
#[derive(Debug)]
pub struct InterferenceChecker;

impl Verifier for InterferenceChecker {
    fn name(&self) -> &'static str {
        "interference"
    }

    fn rules(&self) -> &'static [Rule] {
        &[
            rules::INTERFERENCE_MISSING_EDGE,
            rules::INTERFERENCE_SPURIOUS_EDGE,
        ]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let (Some(f), Some(icx)) = (cx.function, cx.interference) else {
            return;
        };
        if !cx.level.is_paranoid() && f.num_instrs_total() > BOUNDARIES_INTERFERENCE_INSTRS {
            return;
        }
        let site = cx.site;
        let reference = RefLiveness::compute(f);
        let expected = interference_pairs(f, &reference, icx.kind);
        let mut actual = std::collections::HashSet::with_capacity(expected.len());
        for (a, b) in icx.ig.graph.edges() {
            actual.insert(pair_key(a.index(), b.index()));
        }
        let unpack = |key: u64| {
            (
                Var::new((key >> 32) as usize),
                Var::new((key & 0xffff_ffff) as usize),
            )
        };
        let mut missing = Capped::new(out, rules::INTERFERENCE_MISSING_EDGE);
        for &key in &expected {
            if !actual.contains(&key) {
                let (a, b) = unpack(key);
                missing.push(
                    site.to_string(),
                    format!("{a} and {b} are simultaneously live but share no edge"),
                );
            }
        }
        missing.finish(site);
        let mut spurious = Capped::new(out, rules::INTERFERENCE_SPURIOUS_EDGE);
        for &key in &actual {
            if !expected.contains(&key) {
                let (a, b) = unpack(key);
                spurious.push(
                    site.to_string(),
                    format!("edge {a}–{b} has no simultaneous-liveness witness"),
                );
            }
        }
        spurious.finish(site);
    }
}

// ---------------------------------------------------------------------
// Spill correctness.
// ---------------------------------------------------------------------

/// Post-spill claims: victims live at no block boundary (when the spiller
/// guarantees it) and recomputed `Maxlive` at most the claimed value.
/// Reload-before-use ordering on every path is covered by the SSA
/// dominance rule over the rewritten function.
#[derive(Debug)]
pub struct SpillChecker;

impl Verifier for SpillChecker {
    fn name(&self) -> &'static str {
        "spill"
    }

    fn rules(&self) -> &'static [Rule] {
        &[rules::SPILL_VICTIM_LIVE, rules::SPILL_MAXLIVE_EXCEEDED]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let (Some(f), Some(scx)) = (cx.function, cx.spill) else {
            return;
        };
        let site = cx.site;
        let reference = RefLiveness::compute(f);
        if scx.victims_die {
            let mut victims = Capped::new(out, rules::SPILL_VICTIM_LIVE);
            for &v in scx.victims {
                if reference.live_at_any_boundary(v) {
                    victims.push(
                        site.to_string(),
                        format!("spilled victim {v} is still live at a block boundary"),
                    );
                }
            }
            victims.finish(site);
        }
        let maxlive = reference.maxlive_precise(f);
        if maxlive > scx.claimed_maxlive {
            out.push(Violation::new(
                rules::SPILL_MAXLIVE_EXCEEDED,
                site.to_string(),
                format!(
                    "recomputed Maxlive {maxlive} exceeds the claimed {}",
                    scx.claimed_maxlive
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Allocation validity.
// ---------------------------------------------------------------------

/// Final-assignment audit: complete, within the register bound, and
/// overlap-free against independently recomputed (Chaitin) interference of
/// the final function.
#[derive(Debug)]
pub struct AllocChecker;

impl Verifier for AllocChecker {
    fn name(&self) -> &'static str {
        "alloc"
    }

    fn rules(&self) -> &'static [Rule] {
        &[
            rules::ALLOC_INTERFERENCE_OVERLAP,
            rules::ALLOC_REGISTER_BOUND,
            rules::ALLOC_UNASSIGNED,
        ]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let (Some(f), Some(acx)) = (cx.function, cx.allocation) else {
            return;
        };
        let site = cx.site;
        let mut bound = Capped::new(out, rules::ALLOC_REGISTER_BOUND);
        for i in 0..f.num_vars() {
            let v = Var::new(i);
            if let Some(r) = acx.assignment.register_of(v) {
                if r >= acx.k {
                    bound.push(
                        site.to_string(),
                        format!("{v} assigned register {r} with k = {}", acx.k),
                    );
                }
            }
        }
        bound.finish(site);
        let mut unassigned = Capped::new(out, rules::ALLOC_UNASSIGNED);
        for i in 0..f.num_vars() {
            let v = Var::new(i);
            if acx.assignment.register_of(v).is_none() && !acx.assignment.is_spilled(v) {
                unassigned.push(
                    site.to_string(),
                    format!("{v} has neither a register nor a spill slot"),
                );
            }
        }
        unassigned.finish(site);

        let reference = RefLiveness::compute(f);
        let pairs = interference_pairs(
            f,
            &reference,
            coalesce_ir::interference::InterferenceKind::Chaitin,
        );
        let mut overlap = Capped::new(out, rules::ALLOC_INTERFERENCE_OVERLAP);
        for &key in &pairs {
            let a = Var::new((key >> 32) as usize);
            let b = Var::new((key & 0xffff_ffff) as usize);
            if let (Some(ra), Some(rb)) =
                (acx.assignment.register_of(a), acx.assignment.register_of(b))
            {
                if ra == rb {
                    overlap.push(
                        site.to_string(),
                        format!("interfering {a} and {b} both hold register {ra}"),
                    );
                }
            }
        }
        overlap.finish(site);
    }
}

// ---------------------------------------------------------------------
// Certificates.
// ---------------------------------------------------------------------

/// PEO witnesses for chordality verdicts and clique witnesses for ω
/// claims, checked against an adjacency copy of the subject graph.
#[derive(Debug)]
pub struct CertChecker;

impl Verifier for CertChecker {
    fn name(&self) -> &'static str {
        "certificates"
    }

    fn rules(&self) -> &'static [Rule] {
        &[rules::CERT_PEO_INVALID, rules::CERT_CLIQUE_INVALID]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let Some(ccx) = cx.chordal else { return };
        let site = cx.site;
        let rg = RefGraph::build(ccx.graph);
        let mut peo_omega = None;
        if let Some(order) = ccx.peo {
            match check_peo(&rg, order) {
                Ok(omega) => peo_omega = Some(omega),
                Err(why) => out.push(Violation::new(
                    rules::CERT_PEO_INVALID,
                    site.to_string(),
                    format!("claimed PEO fails the parent test: {why}"),
                )),
            }
        }
        if let Some(claimed) = ccx.claimed_omega {
            if let Some(clique) = ccx.clique {
                if let Err(why) = check_clique(&rg, clique, claimed) {
                    out.push(Violation::new(
                        rules::CERT_CLIQUE_INVALID,
                        site.to_string(),
                        format!("omega witness rejected: {why}"),
                    ));
                }
            }
            if let Some(from_peo) = peo_omega {
                if from_peo != claimed {
                    out.push(Violation::new(
                        rules::CERT_CLIQUE_INVALID,
                        site.to_string(),
                        format!("claimed omega {claimed} but the PEO implies {from_peo}"),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coalescing classes.
// ---------------------------------------------------------------------

/// Every merged class must be connected by affinity edges and contain no
/// interference edge of the original graph.
#[derive(Debug)]
pub struct CoalesceChecker;

impl Verifier for CoalesceChecker {
    fn name(&self) -> &'static str {
        "coalesce"
    }

    fn rules(&self) -> &'static [Rule] {
        &[rules::ALLOC_BOGUS_COALESCE]
    }

    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>) {
        let Some(ccx) = cx.coalesce else { return };
        let site = cx.site;
        let rg = RefGraph::build(ccx.graph);
        let mut bogus = Capped::new(out, rules::ALLOC_BOGUS_COALESCE);
        for (ci, class) in ccx.classes.iter().enumerate() {
            if class.len() < 2 {
                continue;
            }
            let members: BTreeSet<usize> = class.iter().map(|v| v.index()).collect();
            for (i, &a) in class.iter().enumerate() {
                for &b in &class[i + 1..] {
                    if rg.has(a.index(), b.index()) {
                        bogus.push(
                            format!("{site}:class{ci}"),
                            format!(
                                "merged vertices {} and {} interfere in the original graph",
                                a.index(),
                                b.index()
                            ),
                        );
                    }
                }
            }
            // Affinity connectivity via union-find over the class members.
            let idx: Vec<usize> = members.iter().copied().collect();
            let slot = |v: usize| idx.binary_search(&v).ok();
            let mut parent: Vec<usize> = (0..idx.len()).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for &(a, b) in ccx.affinities {
                if let (Some(sa), Some(sb)) = (slot(a.index()), slot(b.index())) {
                    let (ra, rb) = (find(&mut parent, sa), find(&mut parent, sb));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
            let root = find(&mut parent, 0);
            if (1..idx.len()).any(|i| find(&mut parent, i) != root) {
                bogus.push(
                    format!("{site}:class{ci}"),
                    format!(
                        "class {:?} is not connected by affinity edges",
                        idx.iter().take(8).collect::<Vec<_>>()
                    ),
                );
            }
        }
        bogus.finish(site);
    }
}
