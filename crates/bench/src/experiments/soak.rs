//! E18 — chaos soak of the allocation service.
//!
//! Replays a seeded mixed-workload request trace (`coalesce_gen::trace`)
//! through an in-process `coalesce-serve` worker pool with fault
//! injection layered on top: a deterministic ≥5% of the lines are
//! corrupted — instance texts mutated by the verifier's
//! [`TextFault`] catalogue, truncated JSON, unknown request kinds,
//! oversized lines, and deliberate `panic` requests (chaos mode) — while
//! the rest carry the trace's sprinkle of expired deadlines and tiny
//! work budgets.  Every response is re-verified (`--verify boundaries`
//! semantics) before it is counted.
//!
//! The report's rows bucket outcomes per request kind and per fault
//! flavour; everything in them is deterministic for a fixed base seed
//! and identical for every `--jobs` value (submission is blocking, so
//! queue timing never reaches an outcome).  The measured quantities —
//! `instances_per_sec`, `elapsed_ms`, `p50_elapsed_ms`,
//! `p99_elapsed_ms` — live only in the summary, where
//! [`mask_timing`](crate::report::mask_timing) drops them from every
//! comparison and `bench-diff` applies its throughput floor.
//!
//! The headline invariant is **zero crashes**: every injected fault must
//! come back as a structured response (never a dead worker), which the
//! summary pins as `clean_worker_exits == workers` and
//! `verify_failures == 0`.

use crate::json::Json;
use crate::report::ExperimentReport;
use coalesce_gen::trace::{trace, TraceParams};
use coalesce_serve::{Engine, EngineConfig, Response, Server, ServerConfig};
use coalesce_verify::mutation::TextFault;
use coalesce_verify::VerifyLevel;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::time::Instant;

/// Requests in the soak trace (before fault injection, which rewrites
/// lines in place rather than adding more).
const TRACE_REQUESTS: usize = 240;

/// Percent of lines corrupted by fault injection (the acceptance floor
/// is 5%).
const FAULT_PERCENT: u32 = 8;

/// One line of the soak workload: the wire line plus the deterministic
/// labels the report buckets by.
struct SoakLine {
    /// Request kind from the trace, or `"fault"` for injected lines.
    kind: &'static str,
    /// Fault flavour label (`None` for clean lines).
    fault: Option<&'static str>,
    line: String,
}

/// Replaces the embedded `text` field of a request line with a corrupted
/// version.  Falls back to JSON truncation when the line carries no text
/// (cfg / module_slice requests).
fn corrupt_text(line: &str, fault: TextFault) -> Option<String> {
    let doc = Json::parse(line).ok()?;
    let text = doc.get("text")?.as_str()?.to_owned();
    let Json::Object(pairs) = doc else {
        return None;
    };
    let rewritten: Vec<(String, Json)> = pairs
        .into_iter()
        .map(|(k, v)| {
            if k == "text" {
                let corrupted = fault.apply(&text);
                (k, Json::from(corrupted))
            } else {
                (k, v)
            }
        })
        .collect();
    Some(Json::Object(rewritten).to_compact_string())
}

/// Builds the deterministic fault-injected workload for `base_seed`.
fn build_workload(base_seed: u64) -> Vec<SoakLine> {
    let params = TraceParams {
        requests: TRACE_REQUESTS,
        ..TraceParams::default()
    };
    let requests = trace(&params, base_seed ^ 0xE18);
    let mut rng = coalesce_gen::rng(base_seed ^ 0x050A_CE18);
    requests
        .into_iter()
        .map(|req| {
            if rng.gen_range(0..100) >= FAULT_PERCENT {
                return SoakLine {
                    kind: req.kind,
                    fault: None,
                    line: req.line,
                };
            }
            // Pick a fault flavour; the TextFault catalogue applies to
            // text-carrying requests, the protocol-level flavours to any.
            let text_fault = TextFault::ALL[rng.gen_range(0..TextFault::ALL.len())];
            let flavour = rng.gen_range(0..10u32);
            let (fault, line) = match flavour {
                // Corrupted instance text (dominant — it exercises the
                // typed parser errors end to end).
                0..=5 => match corrupt_text(&req.line, text_fault) {
                    Some(line) => (text_fault.name(), line),
                    // No text field: degrade to truncated JSON.
                    None => ("truncated-json", req.line[..req.line.len() / 2].to_owned()),
                },
                6 => ("truncated-json", req.line[..req.line.len() / 2].to_owned()),
                7 => (
                    "unknown-kind",
                    format!(r#"{{"id":{},"kind":"transmogrify"}}"#, req.id),
                ),
                8 => (
                    "oversized-line",
                    format!(
                        r#"{{"id":{},"kind":"dimacs","text":"{}"}}"#,
                        req.id,
                        "x".repeat(coalesce_serve::protocol::MAX_REQUEST_BYTES)
                    ),
                ),
                _ => ("panic", format!(r#"{{"id":{},"kind":"panic"}}"#, req.id)),
            };
            SoakLine {
                kind: "fault",
                fault: Some(fault),
                line,
            }
        })
        .collect()
}

/// Runs the E18 chaos soak.  `jobs` sizes the worker pool; outcomes are
/// identical for every value (only the masked timing summary varies).
pub fn e18_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let workload = build_workload(base_seed);
    let workers = jobs.max(2);
    let engine = EngineConfig {
        verify: VerifyLevel::Boundaries,
        chaos: true,
        ..EngineConfig::default()
    };
    let server = Server::start(
        std::sync::Arc::new(Engine::new(engine)),
        &ServerConfig {
            workers,
            queue_depth: 64,
            retry_after_ms: 25,
        },
    );

    let started = Instant::now();
    // Blocking submission: the queue applies backpressure by waiting, so
    // no request is ever bounced and outcomes cannot depend on timing.
    // Each request gets its own reply channel; responses are collected in
    // submission order.
    let mut pending = Vec::with_capacity(workload.len());
    for item in &workload {
        let (tx, rx) = channel();
        let submitted = Instant::now();
        server.submit_blocking(item.line.clone(), &tx);
        pending.push((submitted, rx));
    }
    let mut latencies_us: Vec<u64> = Vec::with_capacity(pending.len());
    let mut responses: Vec<Response> = Vec::with_capacity(pending.len());
    for (submitted, rx) in pending {
        let response = rx.recv().unwrap_or(Response::Error {
            id: None,
            code: coalesce_serve::ErrorCode::InternalError,
            message: "reply channel died".to_owned(),
        });
        latencies_us.push(submitted.elapsed().as_micros() as u64);
        responses.push(response);
    }
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let summary_counters = server.shutdown();

    // Deterministic outcome buckets.
    let mut buckets: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut degraded = 0u64;
    let mut degrade_reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut verified_ok = 0u64;
    let mut verify_failures = 0u64;
    for (item, response) in workload.iter().zip(&responses) {
        let label = item.fault.unwrap_or(item.kind);
        *buckets.entry((item.kind, response.outcome())).or_default() += 1;
        if item.fault.is_some() {
            *buckets.entry((label, response.outcome())).or_default() += 1;
        }
        if let Response::Ok {
            degraded: d,
            degrade_reason,
            verified,
            ..
        } = response
        {
            if *d {
                degraded += 1;
                if let Some(reason) = degrade_reason {
                    *degrade_reasons.entry(reason).or_default() += 1;
                }
            }
            match verified {
                Some(true) => verified_ok += 1,
                Some(false) => verify_failures += 1,
                None => {}
            }
        }
    }
    let rows: Vec<Json> = buckets
        .iter()
        .map(|(&(bucket, outcome), &count)| {
            Json::object([
                ("bucket", Json::from(bucket)),
                ("outcome", Json::from(outcome)),
                ("count", Json::from(count)),
            ])
        })
        .collect();

    let faults = workload.iter().filter(|l| l.fault.is_some()).count();
    let ok = responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Ok {
                    degraded: false,
                    ..
                }
            )
        })
        .count();
    let errors = responses
        .iter()
        .filter(|r| matches!(r, Response::Error { .. } | Response::InternalError { .. }))
        .count();

    latencies_us.sort_unstable();
    let percentile_ms = |p: usize| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = (latencies_us.len() - 1) * p / 100;
        latencies_us[idx] / 1000
    };
    let instances_per_sec = (workload.len() as u64 * 1000) / elapsed_ms.max(1);

    let mut summary = vec![
        ("requests".to_owned(), Json::from(workload.len())),
        ("fault_lines".to_owned(), Json::from(faults)),
        ("fault_percent_min".to_owned(), Json::from(5usize)),
        ("ok".to_owned(), Json::from(ok)),
        ("degraded".to_owned(), Json::from(degraded)),
        ("errors".to_owned(), Json::from(errors)),
        ("verified_ok".to_owned(), Json::from(verified_ok)),
        ("verify_failures".to_owned(), Json::from(verify_failures)),
        (
            "panics_isolated".to_owned(),
            Json::from(summary_counters.panics_isolated),
        ),
        ("workers".to_owned(), Json::from(workers)),
        // The zero-crash invariant: every worker exited its loop
        // normally at shutdown, no matter what the trace threw at it.
        (
            "clean_worker_exits".to_owned(),
            Json::from(summary_counters.clean_worker_exits),
        ),
        (
            "zero_crashes".to_owned(),
            Json::Bool(summary_counters.clean_worker_exits == workers && verify_failures == 0),
        ),
    ];
    for (reason, count) in degrade_reasons {
        summary.push((format!("degraded_{reason}"), Json::from(count)));
    }
    // Measured quantities last, dropped by `report::mask_timing` and
    // floor-guarded (instances_per_sec) by bench-diff.
    summary.push((
        "instances_per_sec".to_owned(),
        Json::from(instances_per_sec),
    ));
    summary.push(("elapsed_ms".to_owned(), Json::from(elapsed_ms)));
    summary.push(("p50_elapsed_ms".to_owned(), Json::from(percentile_ms(50))));
    summary.push(("p99_elapsed_ms".to_owned(), Json::from(percentile_ms(99))));

    ExperimentReport {
        id: super::ExperimentId::E18,
        title: super::ExperimentId::E18.title(),
        base_seed,
        rows,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workload_is_deterministic_and_faulty_enough() {
        let a = build_workload(0);
        let b = build_workload(0);
        assert_eq!(a.len(), TRACE_REQUESTS);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.fault == y.fault));
        let faults = a.iter().filter(|l| l.fault.is_some()).count();
        assert!(
            faults * 100 >= TRACE_REQUESTS * 5,
            "fault rate must be >= 5% (got {faults}/{TRACE_REQUESTS})"
        );
        assert!(
            a.iter().any(|l| l.fault == Some("panic")),
            "the soak must include deliberate worker panics"
        );
    }

    #[test]
    fn corrupt_text_rewrites_only_the_text_field() {
        let line = r#"{"id":5,"kind":"dimacs","text":"p edge 2 1\ne 1 2\n","k":2}"#;
        let out = corrupt_text(line, TextFault::TruncateTail).expect("has text");
        let doc = Json::parse(&out).expect("still valid JSON");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("k").and_then(Json::as_u64), Some(2));
        assert_ne!(
            doc.get("text").and_then(Json::as_str),
            Some("p edge 2 1\ne 1 2\n"),
            "text must actually be corrupted"
        );
        assert!(corrupt_text(r#"{"id":1,"kind":"panic"}"#, TextFault::SelfLoop).is_none());
    }
}
