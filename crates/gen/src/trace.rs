//! Seeded mixed-workload request traces for the allocation service.
//!
//! A trace is a deterministic sequence of JSONL request lines covering
//! every request kind the server speaks — inline DIMACS graphs, inline
//! challenge instances, generated CFG workloads, and module slices — with
//! a configurable sprinkle of already-expired deadlines and tiny work
//! budgets so the degradation ladder is exercised, not just the happy
//! path.  Instance texts are drawn from small per-kind pools, so repeated
//! graphs hit the server's prepared-session caches the way a real client
//! replaying hot functions would.
//!
//! The trace contains only *well-formed* lines; fault injection
//! (truncation, count inflation, garbage bytes, ...) is layered on top by
//! the E18 soak using `coalesce_verify::mutation::TextFault`, which keeps
//! the corruption catalogue next to the verifier that motivates it.

use crate::cfg::{PressureLevel, ShapeProfile};
use crate::challenge::{challenge_instance, ChallengeParams};
use crate::graphs::{random_chordal_graph, random_graph};
use coalesce_graph::format::{to_challenge, to_dimacs, ChallengeFile};
use coalesce_stats::json::Json;
use rand::Rng;

/// Trace shape knobs.
#[derive(Debug, Clone)]
pub struct TraceParams {
    /// Number of request lines to generate.
    pub requests: usize,
    /// Percent of requests stamped with `deadline_ms: 0` (expired at
    /// pickup — the only deadline value that behaves deterministically).
    pub expired_deadline_percent: u32,
    /// Percent of requests stamped with a tiny work budget, forcing the
    /// ladder to degrade.
    pub tiny_budget_percent: u32,
    /// Distinct instances per text pool (smaller = hotter caches).
    pub pool_size: usize,
    /// Largest `count` a `module_slice` request asks for.
    pub max_slice: usize,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            requests: 512,
            expired_deadline_percent: 5,
            tiny_budget_percent: 5,
            pool_size: 12,
            max_slice: 4,
        }
    }
}

/// One generated request: the wire line plus the labels reports bucket
/// by.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// The request id embedded in the line (1-based position).
    pub id: u64,
    /// The request kind label (`dimacs` / `challenge` / `cfg` /
    /// `module_slice`).
    pub kind: &'static str,
    /// True when the line carries `deadline_ms: 0`.
    pub expired_deadline: bool,
    /// True when the line carries a tiny `budget`.
    pub tiny_budget: bool,
    /// The JSONL request line (no trailing newline).
    pub line: String,
}

/// Generates the deterministic request trace for `seed`.
pub fn trace(params: &TraceParams, seed: u64) -> Vec<TraceRequest> {
    let mut rng = crate::rng(seed);
    let pool = params.pool_size.max(1);

    // Per-kind instance pools, generated up front from dedicated seeds so
    // the request mix and the instance contents draw from independent
    // streams.
    let graph_pool: Vec<String> = (0..pool)
        .map(|i| {
            let mut grng = crate::rng(seed ^ 0x6772_6170_6800 | i as u64);
            let n = 8 + (i % 5) * 7;
            let g = if i % 2 == 0 {
                random_chordal_graph(n, 4 + i % 4, &mut grng)
            } else {
                random_graph(n, 0.25, &mut grng)
            };
            to_dimacs(&g)
        })
        .collect();
    let challenge_pool: Vec<String> = (0..pool.min(6))
        .map(|i| {
            let mut crng = crate::rng(seed ^ 0x6368_616c_6c00 | i as u64);
            let cparams = ChallengeParams::at_scale(24 + i * 8, 4 + i % 3);
            let inst = challenge_instance(&cparams, &mut crng);
            let ag = inst.affinity_graph;
            to_challenge(&ChallengeFile {
                affinities: ag.affinities.iter().map(|a| (a.a, a.b, a.weight)).collect(),
                graph: ag.graph,
                registers: Some(inst.registers),
            })
        })
        .collect();

    (0..params.requests)
        .map(|i| {
            let id = i as u64 + 1;
            let mut fields: Vec<(String, Json)> = vec![("id".to_string(), Json::UInt(id))];
            let kind = match rng.gen_range(0..100) {
                0..=29 => {
                    let text = &graph_pool[rng.gen_range(0..graph_pool.len())];
                    fields.push(("kind".to_string(), Json::from("dimacs")));
                    fields.push(("text".to_string(), Json::from(text.as_str())));
                    if rng.gen_range(0..100) < 60 {
                        fields.push(("k".to_string(), Json::from(rng.gen_range(2..9usize))));
                    }
                    "dimacs"
                }
                30..=54 => {
                    let text = &challenge_pool[rng.gen_range(0..challenge_pool.len())];
                    fields.push(("kind".to_string(), Json::from("challenge")));
                    fields.push(("text".to_string(), Json::from(text.as_str())));
                    "challenge"
                }
                55..=79 => {
                    let profile = ShapeProfile::ALL[rng.gen_range(0..ShapeProfile::ALL.len())];
                    let pressure = PressureLevel::ALL[rng.gen_range(0..PressureLevel::ALL.len())];
                    fields.push(("kind".to_string(), Json::from("cfg")));
                    fields.push(("profile".to_string(), Json::from(profile.name())));
                    fields.push(("pressure".to_string(), Json::from(pressure.name())));
                    fields.push(("seed".to_string(), Json::UInt(rng.gen_range(0..32u64))));
                    "cfg"
                }
                _ => {
                    let count = rng.gen_range(1..=params.max_slice.max(1));
                    let start = rng.gen_range(0..64usize);
                    fields.push(("kind".to_string(), Json::from("module_slice")));
                    fields.push(("seed".to_string(), Json::UInt(40 + rng.gen_range(0..3u64))));
                    fields.push(("start".to_string(), Json::from(start)));
                    fields.push(("count".to_string(), Json::from(count)));
                    "module_slice"
                }
            };
            let expired_deadline = rng.gen_range(0..100) < params.expired_deadline_percent;
            if expired_deadline {
                fields.push(("deadline_ms".to_string(), Json::UInt(0)));
            }
            let tiny_budget =
                !expired_deadline && rng.gen_range(0..100) < params.tiny_budget_percent;
            if tiny_budget {
                fields.push(("budget".to_string(), Json::UInt(10)));
            }
            TraceRequest {
                id,
                kind,
                expired_deadline,
                tiny_budget,
                line: Json::Object(fields).to_compact_string(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_mixed() {
        let params = TraceParams {
            requests: 200,
            ..TraceParams::default()
        };
        let a = trace(&params, 42);
        let b = trace(&params, 42);
        assert_eq!(a.len(), 200);
        assert_eq!(
            a.iter().map(|r| r.line.clone()).collect::<Vec<_>>(),
            b.iter().map(|r| r.line.clone()).collect::<Vec<_>>(),
            "same seed, same bytes"
        );
        for kind in ["dimacs", "challenge", "cfg", "module_slice"] {
            assert!(
                a.iter().any(|r| r.kind == kind),
                "200 requests must include some `{kind}`"
            );
        }
        assert!(a.iter().any(|r| r.expired_deadline));
        assert!(a.iter().any(|r| r.tiny_budget));
        let c = trace(&params, 43);
        assert_ne!(
            a.iter().map(|r| r.line.clone()).collect::<Vec<_>>(),
            c.iter().map(|r| r.line.clone()).collect::<Vec<_>>(),
            "different seeds differ"
        );
    }

    #[test]
    fn every_line_is_valid_json_with_the_advertised_id() {
        let params = TraceParams {
            requests: 64,
            ..TraceParams::default()
        };
        for req in trace(&params, 7) {
            let doc = Json::parse(&req.line).expect("trace lines are valid JSON");
            assert_eq!(doc.get("id").and_then(Json::as_u64), Some(req.id));
            assert_eq!(
                doc.get("kind").and_then(Json::as_str),
                Some(req.kind),
                "kind label matches the wire field"
            );
        }
    }

    #[test]
    fn serialized_instances_round_trip_through_the_parsers() {
        let mut rng = crate::rng(3);
        let g = random_graph(20, 0.3, &mut rng);
        let parsed = coalesce_graph::format::from_dimacs(&to_dimacs(&g)).expect("round trip");
        assert_eq!(parsed.num_edges(), g.num_edges());

        let inst = challenge_instance(&ChallengeParams::at_scale(30, 4), &mut rng);
        let text = to_challenge(&ChallengeFile {
            graph: inst.affinity_graph.graph.clone(),
            affinities: inst
                .affinity_graph
                .affinities
                .iter()
                .map(|a| (a.a, a.b, a.weight))
                .collect(),
            registers: Some(inst.registers),
        });
        let file = coalesce_graph::format::from_challenge(&text).expect("round trip");
        assert_eq!(
            file.graph.num_edges(),
            inst.affinity_graph.graph.num_edges()
        );
        assert_eq!(file.affinities.len(), inst.affinity_graph.affinities.len());
        assert_eq!(file.registers, Some(inst.registers));
    }
}
