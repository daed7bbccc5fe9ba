//! The request engine: parses, validates, and walks the declared
//! degradation ladder under the request's deadline + work budget.
//!
//! # The ladder
//!
//! | rung         | graph requests                    | CFG / module requests |
//! |--------------|-----------------------------------|-----------------------|
//! | `exact`      | exact search ([`ExactSolver`])    | Belady MIN spiller    |
//! | `chordal_irc`| MCS sweep (ω) + IRC               | pressure-greedy spill |
//! | `greedy`     | DSATUR / spill-everywhere         | spill-everywhere      |
//!
//! Each rung has a *deterministic* cost estimate; a rung runs only when
//! the remaining work budget affords the estimate and the deadline has not
//! expired, otherwise the engine falls to the next rung.  The bottom rung
//! always answers (the floor is linear-time), so work-budget exhaustion
//! degrades but never errors; only a deadline that is already expired at
//! pickup produces `deadline_exceeded`.  Rungs skipped by *size gates*
//! (e.g. exact search on a graph too large to ever finish) do not count
//! as degradation — degradation is strictly "the budget/deadline forced a
//! lower rung than this request was eligible for".
//!
//! Determinism: everything the ladder decides on — parses, structural
//! sizes, collected counters — is a pure function of the request, and the
//! engine keeps no state between requests, so for a fixed request line
//! the chosen rung and every response byte are identical across runs and
//! worker counts.

use crate::budget::{Budget, Exhausted};
use crate::protocol::{ErrorCode, Request, RequestKind, Response, Rung};
use coalesce_core::{allocate, Affinity, AffinityGraph, IrcResult};
use coalesce_gen::cfg::{PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_graph::chordal::{chordal_clique_number, chordal_coloring};
use coalesce_graph::coloring::dsatur;
use coalesce_graph::format::{
    from_challenge_limited, from_dimacs_limited, ParseError, ParseErrorKind, ParseLimits,
};
use coalesce_graph::{ExactSolver, Graph};
use coalesce_ir::spill::{tight_k, SpillInput, SpillerKind};
use coalesce_ir::Function;
use coalesce_stats::json::Json;
use coalesce_verify::VerifyLevel;
use std::time::Instant;

/// Exact-rung size gate: maximum vertices.
pub const EXACT_MAX_VERTICES: usize = 48;
/// Exact-rung size gate: maximum edges.
pub const EXACT_MAX_EDGES: usize = 1_024;
/// Maximum `count` of a `module_slice` request.
pub const MAX_SLICE: usize = 64;

/// Engine policy knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Size caps applied to inline DIMACS/challenge instances.
    pub parse_limits: ParseLimits,
    /// Work budget applied when a request does not carry one
    /// (`None` = unlimited).
    pub default_budget: Option<u64>,
    /// Re-verify answers before responding (`boundaries` or stricter;
    /// `paranoid` checks nothing more than `boundaries` here).
    pub verify: VerifyLevel,
    /// Honour `panic` requests (chaos testing only).
    pub chaos: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // Untrusted inline instances get much stricter caps than the
            // trusted-corpus defaults in `coalesce-graph`.
            parse_limits: ParseLimits {
                max_vertices: 100_000,
                max_edges: 2_000_000,
                max_affinities: 200_000,
            },
            default_budget: None,
            verify: VerifyLevel::Off,
            chaos: false,
        }
    }
}

/// The shared request engine: its configuration and nothing else, so no
/// request can see another's state.  One engine is shared (via `Arc`) by
/// every worker.
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Serves one parsed request.  `now` is the pickup instant deadlines
    /// count from.
    ///
    /// This may panic only via the chaos `panic` kind or a genuine bug in
    /// the passes — the worker loop wraps it in `catch_unwind` either way.
    pub fn execute(&self, req: &Request, now: Instant) -> Response {
        let mut budget = Budget::new(
            now,
            req.deadline_ms,
            req.budget.or(self.config.default_budget),
        );
        // A deadline that has already expired at pickup: nothing can be
        // answered in time, not even the floor rung.
        if let Err(Exhausted::Deadline) = budget.check() {
            return Response::Error {
                id: Some(req.id),
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired before processing began".to_string(),
            };
        }
        match &req.kind {
            RequestKind::Dimacs { text } => self.serve_dimacs(req, text, &mut budget),
            RequestKind::Challenge { text } => self.serve_challenge(req, text, &mut budget),
            RequestKind::Cfg {
                profile,
                pressure,
                seed,
            } => self.serve_cfg(req, *profile, *pressure, *seed, &mut budget),
            RequestKind::ModuleSlice { seed, start, count } => {
                self.serve_module_slice(req, *seed, *start, *count, &mut budget)
            }
            RequestKind::Panic => {
                assert!(
                    !self.config.chaos,
                    "chaos request {}: deliberate worker panic",
                    req.id
                );
                Response::Error {
                    id: Some(req.id),
                    code: ErrorCode::Unsupported,
                    message: "`panic` requests require --chaos".to_string(),
                }
            }
        }
    }

    fn parse_error_response(id: u64, e: &ParseError) -> Response {
        Response::Error {
            id: Some(id),
            code: match e.kind {
                ParseErrorKind::TooLarge => ErrorCode::TooLarge,
                ParseErrorKind::Malformed => ErrorCode::ParseError,
            },
            message: e.to_string(),
        }
    }

    fn serve_dimacs(&self, req: &Request, text: &str, budget: &mut Budget) -> Response {
        let graph = match from_dimacs_limited(text, &self.config.parse_limits) {
            Ok(g) => g,
            Err(e) => return Self::parse_error_response(req.id, &e),
        };
        let n = graph.num_vertices();
        let m = graph.num_edges();
        // Registers beyond n never change a coloring answer; clamping here
        // keeps hostile `k` values from sizing allocations.
        let k = req.k.map(|k| k.clamp(1, n.max(1)));
        let exact_eligible = n <= EXACT_MAX_VERTICES && m <= EXACT_MAX_EDGES;
        let exact_est = (n as u64) * (m as u64) + n as u64 + 1;
        let chordal_est = (n + m + 1) as u64;

        let mut degrade: Option<Exhausted> = None;
        if exact_eligible {
            match rung_allowed(budget, exact_est) {
                Ok(()) => {
                    let mut solver = ExactSolver::new();
                    let (payload, verified) = self.exact_graph_payload(&mut solver, &graph, k);
                    budget.charge(solver.stats().nodes_expanded + n as u64 + 1);
                    return Self::ok(req, "dimacs", Rung::Exact, None, verified, payload);
                }
                Err(e) => degrade = Some(e),
            }
        }
        match rung_allowed(budget, chordal_est) {
            Ok(()) => {
                // One MCS sweep: `None` means not chordal; otherwise the
                // perfect-elimination coloring uses exactly ω colors.
                let coloring = chordal_coloring(&graph);
                budget.charge(chordal_est);
                if let Some(coloring) = coloring {
                    let omega = coloring.num_colors();
                    let verified = self.verify(|| coloring.is_proper(&graph));
                    let mut payload = graph_payload(&graph);
                    payload.push(("chordal".to_string(), Json::Bool(true)));
                    payload.push(("omega".to_string(), Json::from(omega)));
                    payload.push(("colors".to_string(), Json::from(omega)));
                    if let Some(k) = k {
                        payload.push(("k".to_string(), Json::from(k)));
                        payload.push(("colorable".to_string(), Json::Bool(omega <= k)));
                    }
                    let reason = degrade_reason(degrade, exact_eligible);
                    return Self::ok(req, "dimacs", Rung::ChordalIrc, reason, verified, payload);
                }
                // Not chordal: the rung cannot answer; this is structure,
                // not degradation.
            }
            Err(e) => degrade = Some(degrade.unwrap_or(e)),
        }
        // Floor: DSATUR always answers.
        let coloring = dsatur(&graph);
        budget.charge(n as u64 + 1);
        let colors = coloring.num_colors();
        let verified = self.verify(|| coloring.is_proper(&graph));
        let mut payload = graph_payload(&graph);
        payload.push(("chordal".to_string(), Json::Bool(false)));
        payload.push(("colors".to_string(), Json::from(colors)));
        if let Some(k) = k {
            payload.push(("k".to_string(), Json::from(k)));
            payload.push(("colorable".to_string(), Json::Bool(colors <= k)));
        }
        let reason = degrade_reason(degrade, true);
        Self::ok(req, "dimacs", Rung::Greedy, reason, verified, payload)
    }

    fn serve_challenge(&self, req: &Request, text: &str, budget: &mut Budget) -> Response {
        let file = match from_challenge_limited(text, &self.config.parse_limits) {
            Ok(f) => f,
            Err(e) => return Self::parse_error_response(req.id, &e),
        };
        // `AffinityGraph::new` asserts this invariant; on the serving path
        // it must be a typed error, not a panic.
        for &(u, v, _) in &file.affinities {
            if file.graph.has_edge(u, v) {
                return Response::Error {
                    id: Some(req.id),
                    code: ErrorCode::InvalidRequest,
                    message: format!(
                        "affinity between interfering vertices {} and {}",
                        u.index() + 1,
                        v.index() + 1
                    ),
                };
            }
        }
        let n = file.graph.num_vertices();
        let m = file.graph.num_edges();
        let a = file.affinities.len();
        let k = req
            .k
            .or(file.registers)
            .unwrap_or_else(|| file.graph.max_degree() + 1)
            .clamp(1, n.max(1));
        let total_weight = file.total_affinity_weight();
        let affinities: Vec<Affinity> = file
            .affinities
            .iter()
            .map(|&(u, v, w)| Affinity::weighted(u, v, w))
            .collect();
        let exact_eligible = n <= EXACT_MAX_VERTICES && m <= EXACT_MAX_EDGES && a <= 256;
        let exact_est = (n as u64) * (m as u64) + a as u64 + 1;
        let irc_est = (n + m + a + 1) as u64;

        let base_payload = |graph: &Graph| {
            vec![
                ("vertices".to_string(), Json::from(graph.num_vertices())),
                ("edges".to_string(), Json::from(graph.num_edges())),
                ("affinities".to_string(), Json::from(a)),
                ("total_weight".to_string(), Json::from(total_weight)),
                ("k".to_string(), Json::from(k)),
            ]
        };

        let mut degrade: Option<Exhausted> = None;
        if exact_eligible {
            match rung_allowed(budget, exact_est) {
                Ok(()) => {
                    let mut solver = ExactSolver::new();
                    let colorable = solver.is_k_colorable(&file.graph, k);
                    budget.charge(solver.stats().nodes_expanded + 1);
                    let ag = AffinityGraph::new(file.graph.clone(), affinities);
                    let irc = allocate(&ag, k);
                    budget.charge(irc_est);
                    let verified = self.verify(|| irc_is_valid(&ag, k, &irc));
                    let mut payload = base_payload(&ag.graph);
                    payload.push(("colorable".to_string(), Json::Bool(colorable)));
                    payload.push(("irc_spills".to_string(), Json::from(irc.spilled.len())));
                    payload.push((
                        "coalesced_weight".to_string(),
                        Json::from(irc.stats.coalesced_weight),
                    ));
                    return Self::ok(req, "challenge", Rung::Exact, None, verified, payload);
                }
                Err(e) => degrade = Some(e),
            }
        }
        match rung_allowed(budget, irc_est) {
            Ok(()) => {
                let omega = chordal_clique_number(&file.graph);
                budget.charge((n + m + 1) as u64);
                let ag = AffinityGraph::new(file.graph.clone(), affinities);
                let irc = allocate(&ag, k);
                budget.charge(irc_est);
                let verified = self.verify(|| irc_is_valid(&ag, k, &irc));
                let mut payload = base_payload(&ag.graph);
                payload.push(("chordal".to_string(), Json::Bool(omega.is_some())));
                if let Some(omega) = omega {
                    payload.push(("omega".to_string(), Json::from(omega)));
                    payload.push(("colorable".to_string(), Json::Bool(omega <= k)));
                }
                payload.push(("irc_spills".to_string(), Json::from(irc.spilled.len())));
                payload.push((
                    "coalesced_weight".to_string(),
                    Json::from(irc.stats.coalesced_weight),
                ));
                let reason = degrade_reason(degrade, exact_eligible);
                return Self::ok(
                    req,
                    "challenge",
                    Rung::ChordalIrc,
                    reason,
                    verified,
                    payload,
                );
            }
            Err(e) => degrade = Some(degrade.unwrap_or(e)),
        }
        // Floor: DSATUR; vertices pushed past `k` are the spill estimate.
        let coloring = dsatur(&file.graph);
        budget.charge(n as u64 + 1);
        let spilled = (0..file.graph.capacity())
            .filter(|&i| {
                coloring
                    .color_of(coalesce_graph::VertexId::new(i))
                    .is_some_and(|c| c >= k)
            })
            .count();
        let verified = self.verify(|| coloring.is_proper(&file.graph));
        let mut payload = base_payload(&file.graph);
        payload.push(("colors".to_string(), Json::from(coloring.num_colors())));
        payload.push(("spilled_estimate".to_string(), Json::from(spilled)));
        let reason = degrade_reason(degrade, true);
        Self::ok(req, "challenge", Rung::Greedy, reason, verified, payload)
    }

    fn serve_cfg(
        &self,
        req: &Request,
        profile: ShapeProfile,
        pressure: PressureLevel,
        seed: u64,
        budget: &mut Budget,
    ) -> Response {
        let params = profile.params(pressure.pressure());
        let function = coalesce_gen::cfg::generate(&params, &mut coalesce_gen::rng(seed));
        let (rung, reason, outcome) = self.spill_ladder(&function, req.k, budget);
        let mut payload = vec![
            ("profile".to_string(), Json::from(profile.name())),
            ("pressure".to_string(), Json::from(pressure.name())),
            ("seed".to_string(), Json::UInt(seed)),
        ];
        payload.extend(outcome.payload());
        Self::ok(req, "cfg", rung, reason, outcome.verified, payload)
    }

    fn serve_module_slice(
        &self,
        req: &Request,
        seed: u64,
        start: usize,
        count: usize,
        budget: &mut Budget,
    ) -> Response {
        let params = ModuleParams::default();
        if count == 0 || count > MAX_SLICE {
            return Response::Error {
                id: Some(req.id),
                code: ErrorCode::InvalidRequest,
                message: format!("count must be in 1..={MAX_SLICE}"),
            };
        }
        if start.saturating_add(count) > params.functions {
            return Response::Error {
                id: Some(req.id),
                code: ErrorCode::InvalidRequest,
                message: format!(
                    "slice {start}..{} out of range for {} functions",
                    start.saturating_add(count),
                    params.functions
                ),
            };
        }
        // One sequential stream draws the specs, so the prefix ending at
        // the slice is exactly the corpus's first `start + count` specs.
        let specs = module_specs(
            &ModuleParams {
                functions: start + count,
            },
            seed,
        );
        budget.charge(count as u64);
        let mut worst_rung = Rung::Exact;
        let mut reason: Option<&'static str> = None;
        let mut spilled = 0usize;
        let mut reloads = 0usize;
        let mut spill_weight = 0u64;
        let mut maxlive_max = 0usize;
        let mut verified = self.verify(|| true);
        for spec in &specs[start..start + count] {
            let function = spec.generate();
            let (rung, fn_reason, outcome) = self.spill_ladder(&function, req.k, budget);
            worst_rung = worst_rung.max(rung);
            reason = reason.or(fn_reason);
            spilled += outcome.spilled;
            reloads += outcome.reloads;
            spill_weight += outcome.spill_weight;
            maxlive_max = maxlive_max.max(outcome.maxlive);
            if let (Some(v), Some(f)) = (&mut verified, outcome.verified) {
                *v &= f;
            }
        }
        let payload = vec![
            ("seed".to_string(), Json::UInt(seed)),
            ("start".to_string(), Json::from(start)),
            ("functions".to_string(), Json::from(count)),
            ("maxlive_max".to_string(), Json::from(maxlive_max)),
            ("spilled".to_string(), Json::from(spilled)),
            ("reloads".to_string(), Json::from(reloads)),
            ("spill_weight".to_string(), Json::from(spill_weight)),
        ];
        Self::ok(req, "module_slice", worst_rung, reason, verified, payload)
    }

    /// Runs the spiller ladder on one function.  Rung mapping: Belady MIN
    /// (exact), pressure-greedy (chordal/IRC tier), spill-everywhere
    /// (floor — linear, always runs).
    fn spill_ladder(
        &self,
        function: &Function,
        k: Option<usize>,
        budget: &mut Budget,
    ) -> (Rung, Option<&'static str>, SpillOutcome) {
        let instrs = function.num_instrs_total() as u64;
        // The analysis is structural, like `instrs`: it stays outside the
        // charged spill work.
        let input = SpillInput::analyze(function);
        let maxlive = input.maxlive();
        let k = k.map_or_else(|| tight_k(maxlive), |k| k.clamp(2, maxlive.max(2)));
        let ladder = [
            (Rung::Exact, SpillerKind::Belady, instrs * 4 + 1),
            (
                Rung::ChordalIrc,
                SpillerKind::PressureGreedy,
                instrs * 2 + 1,
            ),
        ];
        let mut degrade: Option<Exhausted> = None;
        for (rung, spiller, estimate) in ladder {
            match rung_allowed(budget, estimate) {
                Ok(()) => {
                    let outcome = self.run_spiller(&input, spiller, k, budget);
                    return (rung, degrade_reason(degrade, true), outcome);
                }
                Err(e) => degrade = Some(degrade.unwrap_or(e)),
            }
        }
        let outcome = self.run_spiller(&input, SpillerKind::Everywhere, k, budget);
        (Rung::Greedy, degrade_reason(degrade, true), outcome)
    }

    fn run_spiller(
        &self,
        input: &SpillInput,
        spiller: SpillerKind,
        k: usize,
        budget: &mut Budget,
    ) -> SpillOutcome {
        let (outcome, counters) = coalesce_stats::collect(|| {
            let run = input.spill(spiller, k);
            let maxlive_after = run.maxlive_after();
            // Spillers chase `Maxlive <= k` but per-instruction operand
            // pressure can put a floor above `k` (E17's auditor makes the
            // same allowance), so the boundary check is "spilling never
            // *worsens* pressure" — recomputed independently of the
            // spiller's own claim.
            SpillOutcome {
                function: (input.function().num_blocks(), input.function().num_vars()),
                maxlive: run.maxlive,
                k,
                spilled: run.spilled.len(),
                reloads: run.reloads,
                spill_weight: run.spill_weight,
                maxlive_after,
                verified: self.verify(|| maxlive_after <= run.maxlive.max(k)),
            }
        });
        // Per-request work: the measured counters are
        // deterministic, so charge exactly what the spiller reported
        // (`spill.victims`, liveness iterations, ...).
        budget.charge(counters.total().max(1));
        outcome
    }

    /// The one verification gate: `Some(check())` at `boundaries` and
    /// above, `None` (no `verified` key) when verification is off.
    fn verify(&self, check: impl FnOnce() -> bool) -> Option<bool> {
        self.config.verify.is_on().then(check)
    }

    /// The exact graph rung: with a `k`, an exact `k`-coloring (witnessed);
    /// without one, the chromatic number.  Witness-less answers (a
    /// non-colorable verdict, a chromatic number) carry no `verified` key.
    fn exact_graph_payload(
        &self,
        solver: &mut ExactSolver,
        graph: &Graph,
        k: Option<usize>,
    ) -> (Vec<(String, Json)>, Option<bool>) {
        let mut payload = graph_payload(graph);
        match k {
            Some(k) => {
                let witness = solver.k_coloring(graph, k, &[]);
                payload.push(("k".to_string(), Json::from(k)));
                payload.push(("colorable".to_string(), Json::Bool(witness.is_some())));
                if let Some(c) = &witness {
                    payload.push(("colors".to_string(), Json::from(c.num_colors())));
                }
                let verified =
                    witness.and_then(|c| self.verify(|| c.is_proper(graph) && c.num_colors() <= k));
                (payload, verified)
            }
            None => {
                let chi = solver.chromatic_number(graph);
                payload.push(("chromatic_number".to_string(), Json::from(chi)));
                payload.push(("colors".to_string(), Json::from(chi)));
                (payload, None)
            }
        }
    }

    fn ok(
        req: &Request,
        kind: &'static str,
        rung: Rung,
        degrade_reason: Option<&'static str>,
        verified: Option<bool>,
        payload: Vec<(String, Json)>,
    ) -> Response {
        Response::Ok {
            id: req.id,
            kind,
            rung,
            degraded: degrade_reason.is_some(),
            degrade_reason,
            verified,
            payload,
        }
    }
}

/// Outcome of one spiller run, shared by the `cfg` and `module_slice`
/// paths.
struct SpillOutcome {
    function: (usize, usize),
    maxlive: usize,
    k: usize,
    spilled: usize,
    reloads: usize,
    spill_weight: u64,
    maxlive_after: usize,
    verified: Option<bool>,
}

impl SpillOutcome {
    fn payload(&self) -> Vec<(String, Json)> {
        vec![
            ("blocks".to_string(), Json::from(self.function.0)),
            ("vars".to_string(), Json::from(self.function.1)),
            ("maxlive".to_string(), Json::from(self.maxlive)),
            ("k".to_string(), Json::from(self.k)),
            ("spilled".to_string(), Json::from(self.spilled)),
            ("reloads".to_string(), Json::from(self.reloads)),
            ("spill_weight".to_string(), Json::from(self.spill_weight)),
            ("maxlive_after".to_string(), Json::from(self.maxlive_after)),
        ]
    }
}

/// A rung may run when the deadline has not expired and the budget
/// affords its deterministic cost estimate.
fn rung_allowed(budget: &Budget, estimate: u64) -> Result<(), Exhausted> {
    budget.check()?;
    if budget.affords(estimate) {
        Ok(())
    } else {
        Err(Exhausted::Work)
    }
}

/// Degradation is only reported when the request was eligible for a
/// better rung and a limit (not a size gate) pushed it down.
fn degrade_reason(degrade: Option<Exhausted>, eligible: bool) -> Option<&'static str> {
    if eligible {
        degrade.map(Exhausted::reason)
    } else {
        None
    }
}

/// Checks an IRC allocation against the *original* graph: no interfering
/// pair shares a color, and every non-spilled vertex got a color below
/// `k`.  Colors are read through the class representatives
/// (`IrcResult::color_of`), since the raw coloring only assigns
/// representatives.
fn irc_is_valid(ag: &AffinityGraph, k: usize, irc: &IrcResult) -> bool {
    let proper = ag
        .graph
        .edges()
        .all(|(a, b)| match (irc.color_of(a), irc.color_of(b)) {
            (Some(ca), Some(cb)) => ca != cb,
            _ => true,
        });
    let complete = ag
        .graph
        .vertices()
        .all(|v| irc.spilled.binary_search(&v).is_ok() || irc.color_of(v).is_some_and(|c| c < k));
    proper && complete
}

fn graph_payload(graph: &Graph) -> Vec<(String, Json)> {
    vec![
        ("vertices".to_string(), Json::from(graph.num_vertices())),
        ("edges".to_string(), Json::from(graph.num_edges())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn run(engine: &Engine, line: &str) -> Response {
        let req = parse_request(line).expect("test request parses");
        engine.execute(&req, Instant::now())
    }

    fn ok_fields(resp: &Response) -> (Rung, bool, Option<&'static str>) {
        match resp {
            Response::Ok {
                rung,
                degraded,
                degrade_reason,
                ..
            } => (*rung, *degraded, *degrade_reason),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    /// A chordal 4-path as DIMACS text, small enough for the exact rung.
    const PATH4: &str = "p edge 4 3\\ne 1 2\\ne 2 3\\ne 3 4\\n";

    #[test]
    fn exact_rung_answers_small_graphs() {
        let engine = Engine::new(EngineConfig::default());
        let resp = run(
            &engine,
            &format!(r#"{{"id":1,"kind":"dimacs","text":"{PATH4}","k":2}}"#),
        );
        let (rung, degraded, _) = ok_fields(&resp);
        assert_eq!(rung, Rung::Exact);
        assert!(!degraded);
        let json = resp.to_json();
        assert_eq!(json.get("colorable").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn tiny_budget_degrades_to_the_floor_deterministically() {
        let engine = Engine::new(EngineConfig::default());
        let line = format!(r#"{{"id":2,"kind":"dimacs","text":"{PATH4}","budget":2}}"#);
        let first = run(&engine, &line);
        let (rung, degraded, reason) = ok_fields(&first);
        assert_eq!(rung, Rung::Greedy);
        assert!(degraded);
        assert_eq!(reason, Some("budget"));
        // Same request, same bytes — repeats must not matter.
        for _ in 0..3 {
            assert_eq!(run(&engine, &line), first);
        }
    }

    #[test]
    fn zero_deadline_is_a_deterministic_deadline_exceeded() {
        let engine = Engine::new(EngineConfig::default());
        let resp = run(
            &engine,
            &format!(r#"{{"id":3,"kind":"dimacs","text":"{PATH4}","deadline_ms":0}}"#),
        );
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn interfering_affinity_is_invalid_request_not_a_panic() {
        let engine = Engine::new(EngineConfig::default());
        let resp = run(
            &engine,
            r#"{"id":4,"kind":"challenge","text":"p coalesce 2 1 1\ne 1 2\na 1 2\n"}"#,
        );
        match resp {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                assert!(message.contains("interfering"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_instances_are_too_large() {
        let engine = Engine::new(EngineConfig::default());
        let resp = run(
            &engine,
            r#"{"id":5,"kind":"dimacs","text":"p edge 999999999999 0\n"}"#,
        );
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn cfg_and_module_slice_answer_with_spill_results() {
        let config = EngineConfig {
            verify: VerifyLevel::Boundaries,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        let resp = run(
            &engine,
            r#"{"id":6,"kind":"cfg","profile":"fp-loopnest","pressure":"high","seed":7}"#,
        );
        let (rung, degraded, _) = ok_fields(&resp);
        assert_eq!(
            rung,
            Rung::Exact,
            "unlimited budget answers at the top rung"
        );
        assert!(!degraded);
        let json = resp.to_json();
        assert_eq!(json.get("verified").and_then(Json::as_bool), Some(true));
        assert!(json.get("maxlive_after").and_then(Json::as_u64).is_some());

        let resp = run(
            &engine,
            r#"{"id":7,"kind":"module_slice","seed":42,"start":0,"count":3,"budget":40}"#,
        );
        let (rung, degraded, reason) = ok_fields(&resp);
        assert_eq!(
            rung,
            Rung::Greedy,
            "a 40-unit budget cannot afford the upper rungs"
        );
        assert!(degraded);
        assert_eq!(reason, Some("budget"));
        let json = resp.to_json();
        assert_eq!(json.get("functions").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("verified").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn module_slice_bounds_are_validated() {
        let engine = Engine::new(EngineConfig::default());
        for bad in [
            r#"{"id":8,"kind":"module_slice","seed":1,"start":999,"count":5}"#,
            r#"{"id":9,"kind":"module_slice","seed":1,"start":0,"count":0}"#,
            r#"{"id":10,"kind":"module_slice","seed":1,"start":0,"count":1000}"#,
        ] {
            match run(&engine, bad) {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidRequest),
                other => panic!("expected error for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn panic_kind_is_unsupported_outside_chaos() {
        let engine = Engine::new(EngineConfig::default());
        match run(&engine, r#"{"id":11,"kind":"panic"}"#) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
            other => panic!("expected error, got {other:?}"),
        }
    }
}
