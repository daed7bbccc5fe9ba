//! The graceful-degradation ladder of the allocation service, tested
//! end-to-end through the public engine API: every rung is reachable by
//! budget alone, rung selection is deterministic (budgets are charged
//! against *structural* cost estimates, never wall clock), shrinking the
//! budget never climbs the ladder, the answer from every rung still
//! passes re-verification (and carries no `verified` label when
//! verification is off), and the chordal rung serves the library's ω.

use coalesce_gen::graphs::{random_graph, random_interval_graph};
use coalesce_graph::chordal::{chordal_clique_number, is_chordal};
use coalesce_graph::format::{from_dimacs, to_dimacs};
use coalesce_graph::Graph;
use coalesce_serve::engine::EXACT_MAX_VERTICES;
use coalesce_serve::{parse_request, Engine, EngineConfig, Response, Rung};
use coalesce_stats::json::Json;
use coalesce_verify::VerifyLevel;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

fn verifying_engine() -> Engine {
    Engine::new(EngineConfig {
        verify: VerifyLevel::Boundaries,
        ..EngineConfig::default()
    })
}

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

/// Two triangles joined at a path plus a pendant edge — chordal, with
/// n = 6, m = 7, so the engine's structural estimates put the exact rung
/// at 6·7 + 6 + 1 = 49 units and the chordal rung at 6 + 7 + 1 = 14.
const DIMACS: &str = "p edge 6 7\\ne 1 2\\ne 2 3\\ne 1 3\\ne 3 4\\ne 4 5\\ne 3 5\\ne 5 6\\n";

/// A 6-vertex path with two affinities: n = 6, m = 5, a = 2, so exact
/// costs 6·5 + 2 + 1 = 33 units and chordal-IRC costs 6 + 5 + 2 + 1 = 14.
const CHALLENGE: &str =
    "p coalesce 6 5 2\\nk 3\\ne 1 2\\ne 2 3\\ne 3 4\\ne 4 5\\ne 5 6\\na 1 3 10\\na 2 4 5\\n";

fn dimacs_line(id: u64, budget: Option<u64>) -> String {
    match budget {
        Some(b) => format!(r#"{{"id":{id},"kind":"dimacs","text":"{DIMACS}","k":3,"budget":{b}}}"#),
        None => format!(r#"{{"id":{id},"kind":"dimacs","text":"{DIMACS}","k":3}}"#),
    }
}

fn challenge_line(id: u64, budget: Option<u64>) -> String {
    match budget {
        Some(b) => format!(r#"{{"id":{id},"kind":"challenge","text":"{CHALLENGE}","budget":{b}}}"#),
        None => format!(r#"{{"id":{id},"kind":"challenge","text":"{CHALLENGE}"}}"#),
    }
}

/// Every rung of the graph-coloring ladder is reachable by budget alone,
/// and each rung's answer re-verifies.
#[test]
fn every_dimacs_rung_is_reachable_and_verified() {
    let engine = verifying_engine();
    let cases = [
        (None, Rung::Exact, false),
        (Some(20), Rung::ChordalIrc, true),
        (Some(2), Rung::Greedy, true),
    ];
    for (budget, want_rung, want_degraded) in cases {
        let resp = run(&engine, &dimacs_line(1, budget));
        let (rung, degraded, reason) = ok_fields(&resp);
        assert_eq!(rung, want_rung, "budget {budget:?}");
        assert_eq!(degraded, want_degraded, "budget {budget:?}");
        if want_degraded {
            assert_eq!(reason, Some("budget"));
        }
        assert_eq!(
            resp.to_json().get("verified").and_then(Json::as_bool),
            Some(true),
            "rung {rung:?} must still produce a verifiable answer"
        );
    }
}

/// Same walk for the coalescing (challenge) ladder.
#[test]
fn every_challenge_rung_is_reachable_and_verified() {
    let engine = verifying_engine();
    let cases = [
        (None, Rung::Exact, false),
        (Some(20), Rung::ChordalIrc, true),
        (Some(3), Rung::Greedy, true),
    ];
    for (budget, want_rung, want_degraded) in cases {
        let resp = run(&engine, &challenge_line(2, budget));
        let (rung, degraded, _) = ok_fields(&resp);
        assert_eq!(rung, want_rung, "budget {budget:?}");
        assert_eq!(degraded, want_degraded, "budget {budget:?}");
        assert_eq!(
            resp.to_json().get("verified").and_then(Json::as_bool),
            Some(true),
            "rung {rung:?} must still produce a verifiable answer"
        );
    }
}

/// Shrinking the budget can only descend the ladder, never climb it, and
/// re-running any budget reproduces the identical response (selection is
/// structural, not timing-based).
#[test]
fn rung_selection_is_monotone_in_budget_and_deterministic() {
    let engine = verifying_engine();
    let mut last = Rung::Exact;
    for budget in (1..=60).rev() {
        let line = dimacs_line(3, Some(budget));
        let first = run(&engine, &line);
        let (rung, _, _) = ok_fields(&first);
        assert!(
            rung >= last,
            "budget {budget}: rung {rung:?} climbed above {last:?}"
        );
        last = rung;
        assert_eq!(run(&engine, &line), first, "budget {budget} must replay");
    }
    assert_eq!(last, Rung::Greedy, "budget 1 must land on the floor");
}

/// Graphs over the exact-rung size gate answer at the chordal rung
/// without being flagged degraded: gating by instance size is a
/// configuration fact, not a service failure.
#[test]
fn size_gated_instances_answer_ungraded_at_the_chordal_rung() {
    let engine = verifying_engine();
    let n = EXACT_MAX_VERTICES + 12;
    let mut text = format!("p edge {n} {}\\n", n - 1);
    for i in 1..n {
        text.push_str(&format!("e {i} {}\\n", i + 1));
    }
    let resp = run(
        &engine,
        &format!(r#"{{"id":4,"kind":"dimacs","text":"{text}","k":2}}"#),
    );
    let (rung, degraded, reason) = ok_fields(&resp);
    assert_eq!(rung, Rung::ChordalIrc);
    assert!(!degraded, "size gating is not degradation");
    assert_eq!(reason, None);
    assert_eq!(
        resp.to_json().get("verified").and_then(Json::as_bool),
        Some(true)
    );
}

/// The ladder constant itself is ordered most-precise-first and matches
/// the `Ord` the monotonicity test leans on.
#[test]
fn the_ladder_is_ordered_most_precise_first() {
    assert_eq!(Rung::LADDER, [Rung::Exact, Rung::ChordalIrc, Rung::Greedy]);
    assert!(Rung::Exact < Rung::ChordalIrc && Rung::ChordalIrc < Rung::Greedy);
}

/// With verification off (the default), no answer carries a `verified`
/// key, whichever rung of whichever request kind gave it: the label
/// claims that re-verification ran.
#[test]
fn verification_off_answers_carry_no_verified_key() {
    let engine = Engine::new(EngineConfig::default());
    let requests = [
        ("dimacs with k", dimacs_line(5, None)),
        (
            "dimacs without k",
            format!(r#"{{"id":6,"kind":"dimacs","text":"{DIMACS}"}}"#),
        ),
        ("challenge", challenge_line(7, None)),
        (
            "cfg",
            r#"{"id":8,"kind":"cfg","profile":"fp-loopnest","pressure":"high","seed":7}"#
                .to_string(),
        ),
        (
            "module_slice",
            r#"{"id":9,"kind":"module_slice","seed":42,"start":0,"count":1}"#.to_string(),
        ),
    ];
    // Unlimited, then every power of two down to 1: each ladder's rung
    // estimates fall between two of them.
    let budgets = std::iter::once(None).chain((0..32).rev().map(|i| Some(1u64 << i)));
    for (what, line) in &requests {
        let mut rungs = BTreeSet::new();
        for budget in budgets.clone() {
            let line = match budget {
                Some(b) => format!(r#"{},"budget":{b}}}"#, &line[..line.len() - 1]),
                None => line.clone(),
            };
            let resp = run(&engine, &line);
            let (rung, _, _) = ok_fields(&resp);
            rungs.insert(rung);
            assert_eq!(resp.to_json().get("verified"), None, "{line}");
        }
        assert_eq!(rungs.len(), Rung::LADDER.len(), "{what} reached {rungs:?}");
    }
}

/// The request lines that send `g` to its chordal rung: as DIMACS and as
/// an affinity-free challenge, each with a budget of that rung's estimate
/// (`n + m + 1`), which falls short of the exact estimate once `n >= 4`
/// and `m >= 3`.
fn chordal_rung_lines(g: &Graph, k: usize) -> [String; 2] {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let edges: String = g
        .edges()
        .map(|(u, v)| format!("e {} {}\\n", u.index() + 1, v.index() + 1))
        .collect();
    let budget = n + m + 1;
    [
        format!(
            r#"{{"id":1,"kind":"dimacs","text":"p edge {n} {m}\n{edges}","k":{k},"budget":{budget}}}"#
        ),
        format!(
            r#"{{"id":2,"kind":"challenge","text":"p coalesce {n} {m} 0\nk {k}\n{edges}","budget":{budget}}}"#
        ),
    ]
}

/// Checks the chordal-rung answers for `g` (from [`chordal_rung_lines`])
/// against the library's verdict and clique number of the parsed graph.
fn assert_serves_library_omega(g: &Graph, k: usize, [dimacs, challenge]: &[Response; 2]) {
    let parsed = from_dimacs(&to_dimacs(g)).expect("generated graphs serialize");
    let omega = chordal_clique_number(&parsed);
    assert_eq!(omega.is_some(), is_chordal(&parsed));
    let k = k.min(parsed.num_vertices());
    let (json, rung) = (dimacs.to_json(), ok_fields(dimacs).0);
    let uint = |json: &Json, key: &str| json.get(key).and_then(Json::as_u64).map(|v| v as usize);
    let flag = |json: &Json, key: &str| json.get(key).and_then(Json::as_bool);
    assert_eq!(flag(&json, "chordal"), Some(omega.is_some()));
    assert_eq!(uint(&json, "omega"), omega);
    if let Some(omega) = omega {
        // A non-chordal graph falls to DSATUR, whose colors are not ω.
        assert_eq!(rung, Rung::ChordalIrc);
        assert_eq!(uint(&json, "colors"), Some(omega));
        assert_eq!(flag(&json, "colorable"), Some(omega <= k));
    } else {
        assert_eq!(rung, Rung::Greedy);
    }
    let json = challenge.to_json();
    assert_eq!(ok_fields(challenge).0, Rung::ChordalIrc);
    assert_eq!(flag(&json, "chordal"), Some(omega.is_some()));
    assert_eq!(uint(&json, "omega"), omega);
    assert_eq!(flag(&json, "colorable"), omega.map(|omega| omega <= k));
}

proptest! {
    /// The chordal rung serves the library's chordality verdict and ω for
    /// interval graphs (always chordal) and arbitrary small graphs, as
    /// DIMACS and as challenge, and re-sending a line after a different
    /// graph returns the identical bytes.
    #[test]
    fn chordal_rung_serves_the_library_omega(
        seed in 0u64..1_000_000,
        n in 4usize..14,
        k in 1usize..8,
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let (interval, _) = random_interval_graph(n, n, 4, &mut rng);
        let arbitrary = random_graph(n, 0.5, &mut rng);
        prop_assume!(interval.num_edges() >= 3 && arbitrary.num_edges() >= 3);

        let engine = Engine::new(EngineConfig::default());
        let lines = [chordal_rung_lines(&interval, k), chordal_rung_lines(&arbitrary, k)];
        let serve = |lines: &[String; 2]| lines.clone().map(|line| run(&engine, &line));
        let first = lines.clone().map(|l| serve(&l));
        assert_serves_library_omega(&interval, k, &first[0]);
        assert_serves_library_omega(&arbitrary, k, &first[1]);
        // Each replay follows the other graph's requests.
        for (lines, first) in lines.iter().zip(&first) {
            let again = serve(lines);
            for (a, b) in again.iter().zip(first) {
                prop_assert_eq!(a.to_json().to_compact_string(), b.to_json().to_compact_string());
            }
        }
    }
}
