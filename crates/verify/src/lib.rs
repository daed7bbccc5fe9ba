//! Certificate-checking verifier layer for the coalescing pipeline.
//!
//! Bouchez–Darte–Rastello's results are checkable claims: strict SSA
//! implies a chordal interference graph, a perfect elimination ordering
//! witnesses chordality, `Maxlive` witnesses k-colorability.  This crate
//! audits what the pipeline actually emits at every pass boundary, in the
//! spirit of LLVM's `-verify-machineinstrs`:
//!
//! * a [`Verifier`] trait with structured [`Violation`] diagnostics (rule
//!   id, location, explanation) and a machine-checkable rule catalog
//!   ([`rules::CATALOG`]);
//! * a [`VerifyLevel`] knob — `off` (free), `boundaries` (structural and
//!   local-equation checks, recompute sampled/size-gated), `paranoid`
//!   (full independent recomputation of every analysis);
//! * independent reference implementations ([`reference`](mod@reference)) — the verifier
//!   never calls the dominator tree, liveness solver, interference builder
//!   or chordality machinery it audits; it recomputes from the defining
//!   equations with its own data structures;
//! * a mutation harness ([`mutation`]) that seeds known faults and checks
//!   the suite flags each with the right rule id — the verifier's own
//!   test suite.
//!
//! The verifier is strictly read-only: audits never mutate the artifacts
//! they check, so experiment output is byte-identical with or without
//! verification.

pub mod checks;
pub mod mutation;
pub mod reference;

use coalesce_alloc::RegisterAssignment;
use coalesce_graph::{Graph, VertexId};
use coalesce_ir::interference::InterferenceKind;
use coalesce_ir::{Function, InterferenceGraph, Liveness, Var};
use std::fmt;

/// How much verification effort to spend at each pipeline boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum VerifyLevel {
    /// No verification (the hot-path default).
    #[default]
    Off,
    /// Structural checks plus local consistency equations at every
    /// boundary; full recomputation only on small inputs.
    Boundaries,
    /// Full independent recomputation of every audited analysis,
    /// regardless of input size.
    Paranoid,
}

impl VerifyLevel {
    /// Every level, in increasing strictness.
    pub const ALL: [VerifyLevel; 3] = [
        VerifyLevel::Off,
        VerifyLevel::Boundaries,
        VerifyLevel::Paranoid,
    ];

    /// The CLI spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Boundaries => "boundaries",
            VerifyLevel::Paranoid => "paranoid",
        }
    }

    /// `true` unless the level is [`VerifyLevel::Off`].
    pub fn is_on(self) -> bool {
        self != VerifyLevel::Off
    }

    /// `true` for [`VerifyLevel::Paranoid`].
    pub fn is_paranoid(self) -> bool {
        self == VerifyLevel::Paranoid
    }
}

impl std::str::FromStr for VerifyLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyLevel::Off),
            "boundaries" => Ok(VerifyLevel::Boundaries),
            "paranoid" => Ok(VerifyLevel::Paranoid),
            other => Err(format!(
                "unknown verify level `{other}` (expected off, boundaries or paranoid)"
            )),
        }
    }
}

impl fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule of the verifier's catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable kebab-case identifier, e.g. `ssa-dominance`.
    pub id: &'static str,
    /// One-line statement of the invariant the rule enforces.
    pub summary: &'static str,
}

/// The rule catalog: every invariant the suite can report, by stable id.
pub mod rules {
    use super::Rule;

    /// Every block is reachable from the entry block.
    pub const CFG_ENTRY_REACHABLE: Rule = Rule {
        id: "cfg-entry-reachable",
        summary: "every block is reachable from the entry block",
    };
    /// Terminators only reference in-range blocks and variables.
    pub const CFG_TERMINATOR_EDGES: Rule = Rule {
        id: "cfg-terminator-edges",
        summary: "terminator successors and uses are in range",
    };
    /// Flat-arena block ranges are in bounds, disjoint, and alias-free.
    pub const CFG_BLOCK_RANGES: Rule = Rule {
        id: "cfg-block-ranges",
        summary: "flat-arena block ranges are in bounds, disjoint and alias-free",
    };
    /// Every variable has at most one textual definition.
    pub const SSA_SINGLE_DEF: Rule = Rule {
        id: "ssa-single-def",
        summary: "every variable has exactly one definition",
    };
    /// Every use is dominated by its definition (strict SSA).
    pub const SSA_DOMINANCE: Rule = Rule {
        id: "ssa-dominance",
        summary: "every use is dominated by its definition",
    };
    /// φs sit at block heads with one argument per predecessor.
    pub const SSA_PHI_COHERENCE: Rule = Rule {
        id: "ssa-phi-coherence",
        summary: "phis sit at block heads with one argument per predecessor edge",
    };
    /// Claimed live sets satisfy the dataflow transfer equations.
    pub const LIVE_TRANSFER: Rule = Rule {
        id: "live-transfer",
        summary: "claimed live-in/out sets satisfy the transfer equations",
    };
    /// Claimed live sets equal an independent fixpoint recomputation.
    pub const LIVE_RECOMPUTE: Rule = Rule {
        id: "live-recompute",
        summary: "claimed live sets equal an independently recomputed fixpoint",
    };
    /// Every simultaneously-live pair has an interference edge.
    pub const INTERFERENCE_MISSING_EDGE: Rule = Rule {
        id: "interference-missing-edge",
        summary: "every simultaneously-live pair is present as an edge (completeness)",
    };
    /// Every interference edge is backed by a simultaneous-liveness witness.
    pub const INTERFERENCE_SPURIOUS_EDGE: Rule = Rule {
        id: "interference-spurious-edge",
        summary: "every edge has a simultaneous-liveness witness (soundness)",
    };
    /// Spilled victims are live at no block boundary after rewriting.
    pub const SPILL_VICTIM_LIVE: Rule = Rule {
        id: "spill-victim-live",
        summary: "spilled victims are live at no block boundary after rewriting",
    };
    /// Post-spill register pressure does not exceed the claimed value.
    pub const SPILL_MAXLIVE_EXCEEDED: Rule = Rule {
        id: "spill-maxlive-exceeded",
        summary: "post-spill Maxlive is at most the claimed value",
    };
    /// No two interfering variables share a register.
    pub const ALLOC_INTERFERENCE_OVERLAP: Rule = Rule {
        id: "alloc-interference-overlap",
        summary: "no two interfering variables share a register",
    };
    /// Every assigned register is below the register count `k`.
    pub const ALLOC_REGISTER_BOUND: Rule = Rule {
        id: "alloc-register-bound",
        summary: "every assigned register is below k",
    };
    /// Every variable is either assigned a register or spilled.
    pub const ALLOC_UNASSIGNED: Rule = Rule {
        id: "alloc-unassigned",
        summary: "every variable has a register or a spill slot",
    };
    /// Coalesced classes are affinity-connected and interference-free.
    pub const ALLOC_BOGUS_COALESCE: Rule = Rule {
        id: "alloc-bogus-coalesce",
        summary: "coalesced classes are affinity-connected and interference-free",
    };
    /// A claimed PEO really is a perfect elimination ordering.
    pub const CERT_PEO_INVALID: Rule = Rule {
        id: "cert-peo-invalid",
        summary: "a chordality verdict's PEO witness passes the parent test",
    };
    /// A claimed ω is witnessed by an actual clique of that size.
    pub const CERT_CLIQUE_INVALID: Rule = Rule {
        id: "cert-clique-invalid",
        summary: "an omega claim is witnessed by a clique of exactly that size",
    };
    /// A service response failed its own boundary re-verification.
    pub const SERVE_RESPONSE_UNVERIFIED: Rule = Rule {
        id: "serve-response-unverified",
        summary: "every service answer passes its boundary re-verification",
    };
    /// A service worker died instead of isolating a fault.
    pub const SERVE_WORKER_DIED: Rule = Rule {
        id: "serve-worker-died",
        summary: "every service worker survives fault injection to a clean exit",
    };

    /// The full catalog, in boundary order.
    pub const CATALOG: [Rule; 20] = [
        CFG_ENTRY_REACHABLE,
        CFG_TERMINATOR_EDGES,
        CFG_BLOCK_RANGES,
        SSA_SINGLE_DEF,
        SSA_DOMINANCE,
        SSA_PHI_COHERENCE,
        LIVE_TRANSFER,
        LIVE_RECOMPUTE,
        INTERFERENCE_MISSING_EDGE,
        INTERFERENCE_SPURIOUS_EDGE,
        SPILL_VICTIM_LIVE,
        SPILL_MAXLIVE_EXCEEDED,
        ALLOC_INTERFERENCE_OVERLAP,
        ALLOC_REGISTER_BOUND,
        ALLOC_UNASSIGNED,
        ALLOC_BOGUS_COALESCE,
        CERT_PEO_INVALID,
        CERT_CLIQUE_INVALID,
        SERVE_RESPONSE_UNVERIFIED,
        SERVE_WORKER_DIED,
    ];
}

/// One structured diagnostic: which rule failed, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id from [`rules::CATALOG`].
    pub rule: &'static str,
    /// Where the violation was found (site, block, variable...).
    pub location: String,
    /// Human-readable explanation with the concrete witnesses.
    pub explanation: String,
}

impl Violation {
    /// Builds a violation of `rule` at `location`.
    pub fn new(rule: Rule, location: impl Into<String>, explanation: impl Into<String>) -> Self {
        Violation {
            rule: rule.id,
            location: location.into(),
            explanation: explanation.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.location, self.explanation)
    }
}

/// The interference artifact under audit.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceCtx<'a> {
    /// The interference graph the hot path built.
    pub ig: &'a InterferenceGraph,
    /// Which interference definition it claims to implement.
    pub kind: InterferenceKind,
}

/// The spill-pass claims under audit (over the post-spill function).
#[derive(Debug, Clone, Copy)]
pub struct SpillCtx<'a> {
    /// Variables the spiller claims to have evicted.
    pub victims: &'a [Var],
    /// The `Maxlive` the pass claims the rewritten function has.
    pub claimed_maxlive: usize,
    /// Whether this spiller guarantees victims are live at no block
    /// boundary afterwards (true for spill-everywhere-style rewrites;
    /// false for Belady splitting, which may keep a victim resident).
    pub victims_die: bool,
}

/// The register-allocation artifact under audit (over `VerifyCtx::function`,
/// which must be the final lowered function).
#[derive(Debug, Clone, Copy)]
pub struct AllocCtx<'a> {
    /// The final assignment.
    pub assignment: &'a RegisterAssignment,
    /// Target register count.
    pub k: usize,
}

/// Chordality/ω certificates under audit.
#[derive(Debug, Clone, Copy)]
pub struct ChordalCtx<'a> {
    /// The graph the certificates are about.
    pub graph: &'a Graph,
    /// A claimed perfect elimination ordering witnessing chordality.
    pub peo: Option<&'a [VertexId]>,
    /// A claimed clique number.
    pub claimed_omega: Option<usize>,
    /// A claimed maximum clique witnessing `claimed_omega`.
    pub clique: Option<&'a [VertexId]>,
}

/// A coalescing result under audit: merged classes must be connected by
/// affinities and contain no interference edge of the original graph.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceCtx<'a> {
    /// The *original* (pre-merge) interference graph.
    pub graph: &'a Graph,
    /// The affinity edges the coalescer was allowed to merge along.
    pub affinities: &'a [(VertexId, VertexId)],
    /// The merged classes (singletons may be omitted).
    pub classes: &'a [Vec<VertexId>],
}

/// Everything one boundary hands to the suite.  Absent artifacts simply
/// skip their checks, so one ctx type serves every boundary.
#[derive(Debug, Clone, Copy)]
pub struct VerifyCtx<'a> {
    /// Verification effort.
    pub level: VerifyLevel,
    /// Which boundary this is, for diagnostics (e.g. `e13/int-branchy/low/spill`).
    pub site: &'a str,
    /// The function at this boundary, if any.
    pub function: Option<&'a Function>,
    /// Whether `function` claims to be in strict SSA form (post-SSA-destruction
    /// and post-Chaitin functions do not).
    pub assume_ssa: bool,
    /// Claimed liveness over `function`.
    pub liveness: Option<&'a Liveness>,
    /// Claimed interference graph over `function`.
    pub interference: Option<InterferenceCtx<'a>>,
    /// Spill-pass claims over `function` (the post-spill body).
    pub spill: Option<SpillCtx<'a>>,
    /// Final allocation over `function`.
    pub allocation: Option<AllocCtx<'a>>,
    /// Chordality certificates.
    pub chordal: Option<ChordalCtx<'a>>,
    /// Coalescing classes.
    pub coalesce: Option<CoalesceCtx<'a>>,
}

impl<'a> VerifyCtx<'a> {
    /// An empty context at `level` for boundary `site`; attach artifacts
    /// by setting fields.
    pub fn at(level: VerifyLevel, site: &'a str) -> Self {
        VerifyCtx {
            level,
            site,
            function: None,
            assume_ssa: true,
            liveness: None,
            interference: None,
            spill: None,
            allocation: None,
            chordal: None,
            coalesce: None,
        }
    }
}

/// One member of the checker suite.
pub trait Verifier {
    /// Checker name for diagnostics.
    fn name(&self) -> &'static str;
    /// The rules this checker can report.
    fn rules(&self) -> &'static [Rule];
    /// Audits `cx`, appending any violations to `out`.
    fn run(&self, cx: &VerifyCtx<'_>, out: &mut Vec<Violation>);
}

/// Runs the full standard suite over one boundary context.
///
/// Returns every violation found; empty means the boundary checks out.  At
/// [`VerifyLevel::Off`] this returns immediately.  If the flat-arena block
/// ranges are corrupt, only the CFG checker's findings are returned — the
/// remaining checkers cannot safely read the instruction stream.
pub fn verify(cx: &VerifyCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    if !cx.level.is_on() {
        return out;
    }
    let _span = coalesce_stats::span!("verify/suite");
    let mut checks_run: u64 = 0;
    for checker in checks::standard_suite() {
        checker.run(cx, &mut out);
        checks_run += 1;
        if checker.name() == "cfg" && out.iter().any(|v| v.rule == rules::CFG_BLOCK_RANGES.id) {
            break;
        }
    }
    coalesce_stats::counter!("verify.checks_run", checks_run);
    coalesce_stats::counter!("verify.violations", out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        for level in VerifyLevel::ALL {
            assert_eq!(level.name().parse::<VerifyLevel>().unwrap(), level);
        }
        assert!("bogus".parse::<VerifyLevel>().is_err());
        assert!(VerifyLevel::Off < VerifyLevel::Boundaries);
        assert!(VerifyLevel::Boundaries < VerifyLevel::Paranoid);
        assert!(!VerifyLevel::Off.is_on());
        assert!(VerifyLevel::Paranoid.is_paranoid());
    }

    #[test]
    fn catalog_ids_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in rules::CATALOG {
            assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
            assert!(rule
                .id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()));
            assert!(!rule.summary.is_empty());
        }
    }

    #[test]
    fn off_level_reports_nothing() {
        let cx = VerifyCtx::at(VerifyLevel::Off, "test");
        assert!(verify(&cx).is_empty());
    }

    #[test]
    fn suite_rules_are_all_in_the_catalog() {
        let ids: std::collections::BTreeSet<&str> = rules::CATALOG.iter().map(|r| r.id).collect();
        for checker in checks::standard_suite() {
            for rule in checker.rules() {
                assert!(ids.contains(rule.id), "{} not in catalog", rule.id);
            }
        }
    }
}
