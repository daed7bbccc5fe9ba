//! `serve-mixed`: a closed-loop replay of a seeded request trace through
//! the allocation service.
//!
//! One client thread keeps one request outstanding against a
//! [`Server`] with one worker, `verify: boundaries`, hot caches (the
//! trace draws its instances from pools of 12), no expired deadlines and
//! 5% tiny work budgets, so the degradation ladder is exercised on a
//! deterministic share of the traffic.

use crate::measure::{self, CpuClock, Outcome, Tracer};
use coalesce_core::{irc, Affinity, AffinityGraph, PreparedChordal};
use coalesce_gen::module::{module_specs, FunctionSpec, ModuleParams};
use coalesce_gen::trace::{trace, TraceParams};
use coalesce_graph::coloring::dsatur;
use coalesce_graph::format::{from_challenge_limited, from_dimacs_limited};
use coalesce_graph::ExactSolver;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{spill_costs, SpillerKind};
use coalesce_ir::Function;
use coalesce_serve::{
    parse_request, Engine, EngineConfig, Request, RequestKind, Response, Rung, Server, ServerConfig,
};
use coalesce_stats::json::Json;
use coalesce_verify::VerifyLevel;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request kinds of the trace, in report order.
const KINDS: [(&str, &str); 4] = [
    ("dimacs", "serve.dimacs_p50_ms"),
    ("challenge", "serve.challenge_p50_ms"),
    ("cfg", "serve.cfg_p50_ms"),
    ("module_slice", "serve.module_slice_p50_ms"),
];

/// One ok answer in this many is re-derived by direct library calls in
/// the end-to-end run (the traced run re-derives all of them).
const DIFFERENTIAL_STRIDE: u64 = 8;

/// The trace is this many seeded segments back to back.  Each segment
/// draws its instances from its own pools of 12, so the caches are hot
/// within a segment, and a run sees 64 times as many distinct instances
/// as one trace would give it — which keeps the figures steady across
/// seeds.
const SEGMENTS: usize = 64;

/// Generates the request lines of the workload.
pub fn trace_lines(seed: u64, requests: usize) -> Vec<String> {
    (0..SEGMENTS)
        .flat_map(|segment| {
            let params = TraceParams {
                requests: requests * (segment + 1) / SEGMENTS - requests * segment / SEGMENTS,
                expired_deadline_percent: 0,
                tiny_budget_percent: 5,
                pool_size: 12,
                max_slice: 4,
            };
            trace(&params, measure::mix(measure::mix(seed) ^ segment as u64))
        })
        .map(|r| r.line)
        .collect()
}

fn engine(verify: VerifyLevel) -> Engine {
    Engine::new(EngineConfig {
        verify,
        ..EngineConfig::default()
    })
}

/// The name the server gives its one worker thread.
const WORKER: &str = "serve-worker-0";

fn start_server() -> Server {
    Server::start(
        Arc::new(engine(VerifyLevel::Boundaries)),
        &ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
}

/// Shuts a server down and reports a worker that did not exit cleanly.
fn stop(server: Server, problems: &mut Vec<String>) {
    let summary = server.shutdown();
    if summary.clean_worker_exits != 1 || summary.panics_isolated != 0 {
        problems.push(format!(
            "service ended with {} clean worker exit(s) and {} panic(s)",
            summary.clean_worker_exits, summary.panics_isolated
        ));
    }
}

fn field<'a>(payload: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    payload.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn expect<T: PartialEq + std::fmt::Debug>(
    what: &str,
    served: Option<T>,
    direct: T,
) -> Result<(), String> {
    match served {
        Some(s) if s == direct => Ok(()),
        other => Err(format!("{what}: served {other:?}, library {direct:?}")),
    }
}

fn payload_u64(payload: &[(String, Json)], key: &str) -> Option<u64> {
    field(payload, key).and_then(Json::as_u64)
}

/// Direct library calls that re-derive an answer: the oracle the served
/// answers are compared with.
#[derive(Default)]
struct Library {
    modules: HashMap<u64, Vec<FunctionSpec>>,
}

impl Library {
    /// Re-derives `resp` for `req` with direct library calls (timed in
    /// `tr`) and compares the fields the service reported.
    fn check(&mut self, tr: &Tracer, req: &Request, resp: &Response) -> Result<(), String> {
        let Response::Ok {
            rung,
            degraded,
            payload,
            ..
        } = resp
        else {
            return Err(format!("`{}` response", resp.status()));
        };
        let limits = EngineConfig::default().parse_limits;
        match &req.kind {
            RequestKind::Dimacs { text } => {
                let graph = tr
                    .span("graph.parse", || from_dimacs_limited(text, &limits))
                    .map_err(|e| e.to_string())?;
                let k = req.k.map(|k| k.clamp(1, graph.num_vertices().max(1)));
                let colors = payload_u64(payload, "colors");
                match (rung, k) {
                    (Rung::Exact, Some(k)) => {
                        let colorable = tr.span("graph.exact", || {
                            ExactSolver::new().k_coloring(&graph, k, &[]).is_some()
                        });
                        expect(
                            "colorable",
                            field(payload, "colorable").and_then(Json::as_bool),
                            colorable,
                        )
                    }
                    (Rung::Exact, None) => {
                        let chi = tr.span("graph.exact", || {
                            ExactSolver::new().chromatic_number(&graph)
                        });
                        expect(
                            "chromatic number",
                            payload_u64(payload, "chromatic_number"),
                            chi as u64,
                        )
                    }
                    (Rung::ChordalIrc, _) => {
                        let session =
                            tr.span("graph.clique_tree", || PreparedChordal::prepare(&graph));
                        let omega = session.map(|s| s.omega() as u64);
                        expect(
                            "omega",
                            payload_u64(payload, "omega"),
                            omega.unwrap_or(u64::MAX),
                        )
                    }
                    (Rung::Greedy, _) => {
                        let coloring = tr.span("graph.dsatur", || dsatur(&graph));
                        expect("colors", colors, coloring.num_colors() as u64)
                    }
                }
            }
            RequestKind::Challenge { text } => {
                let file = tr
                    .span("graph.parse", || from_challenge_limited(text, &limits))
                    .map_err(|e| e.to_string())?;
                let n = file.graph.num_vertices();
                let k = req
                    .k
                    .or(file.registers)
                    .unwrap_or_else(|| file.graph.max_degree() + 1)
                    .clamp(1, n.max(1));
                if *rung == Rung::Greedy {
                    let coloring = tr.span("graph.dsatur", || dsatur(&file.graph));
                    return expect(
                        "colors",
                        payload_u64(payload, "colors"),
                        coloring.num_colors() as u64,
                    );
                }
                let affinities = file
                    .affinities
                    .iter()
                    .map(|&(u, v, w)| Affinity::weighted(u, v, w))
                    .collect();
                let ag = AffinityGraph::new(file.graph, affinities);
                let result = tr.span("core.irc", || irc::allocate(&ag, k));
                expect(
                    "irc spills",
                    payload_u64(payload, "irc_spills"),
                    result.spilled.len() as u64,
                )?;
                expect(
                    "coalesced weight",
                    payload_u64(payload, "coalesced_weight"),
                    result.stats.coalesced_weight,
                )
            }
            RequestKind::Cfg {
                profile,
                pressure,
                seed,
            } => {
                let params = profile.params(pressure.pressure());
                let f = tr.span("gen.generate", || {
                    coalesce_gen::cfg::generate(&params, &mut coalesce_gen::rng(*seed))
                });
                let spill = spill_answer(tr, &f, req.k, spiller_of(*rung));
                expect("maxlive", payload_u64(payload, "maxlive"), spill[0])?;
                expect("k", payload_u64(payload, "k"), spill[1])?;
                expect("spilled", payload_u64(payload, "spilled"), spill[2])?;
                expect("reloads", payload_u64(payload, "reloads"), spill[3])?;
                expect(
                    "spill weight",
                    payload_u64(payload, "spill_weight"),
                    spill[4],
                )
            }
            RequestKind::ModuleSlice { seed, start, count } => {
                // A degraded slice may mix rungs across its functions; only
                // undegraded slices (all Belady) have a single oracle.
                if *degraded || *rung != Rung::Exact {
                    return Ok(());
                }
                let specs = self
                    .modules
                    .entry(*seed)
                    .or_insert_with(|| module_specs(&ModuleParams::default(), *seed));
                let mut sums = [0u64; 5];
                for spec in specs.iter().skip(*start).take(*count) {
                    let f = tr.span("gen.generate", || spec.generate());
                    let spill = spill_answer(tr, &f, req.k, SpillerKind::Belady);
                    sums[0] = sums[0].max(spill[0]);
                    for j in 2..5 {
                        sums[j] += spill[j];
                    }
                }
                expect("maxlive max", payload_u64(payload, "maxlive_max"), sums[0])?;
                expect("spilled", payload_u64(payload, "spilled"), sums[2])?;
                expect("reloads", payload_u64(payload, "reloads"), sums[3])?;
                expect(
                    "spill weight",
                    payload_u64(payload, "spill_weight"),
                    sums[4],
                )
            }
            RequestKind::Panic => Err("panic request answered ok".to_string()),
        }
    }
}

/// The spiller each rung of the CFG ladder runs.
fn spiller_of(rung: Rung) -> SpillerKind {
    match rung {
        Rung::Exact => SpillerKind::Belady,
        Rung::ChordalIrc => SpillerKind::PressureGreedy,
        Rung::Greedy => SpillerKind::Everywhere,
    }
}

/// `[maxlive, k, spilled, reloads, spill_weight]` of spilling `f` the way
/// the service's ladder does.
fn spill_answer(tr: &Tracer, f: &Function, k: Option<usize>, spiller: SpillerKind) -> [u64; 5] {
    let live = tr.span("ir.liveness", || Liveness::compute(f));
    let maxlive = tr.span("ir.maxlive", || live.maxlive_precise(f));
    let k = k.map_or_else(|| (maxlive / 2).max(3), |k| k.clamp(2, maxlive.max(2)));
    let costs = tr.span("ir.spill_costs", || spill_costs(f));
    let mut spilled = f.clone();
    let stage = match spiller {
        SpillerKind::Belady => "ir.spill_belady",
        SpillerKind::PressureGreedy => "ir.spill_pressure",
        SpillerKind::Everywhere => "ir.spill_everywhere",
    };
    let result = tr.span(stage, || spiller.run(&mut spilled, k));
    let weight: u64 = result
        .spilled
        .iter()
        .map(|v| costs.get(v.index()).copied().unwrap_or(0))
        .sum();
    [
        maxlive as u64,
        k as u64,
        result.spilled.len() as u64,
        result.reloads as u64,
        weight,
    ]
}

/// Checks one first-pass answer: status `ok`, re-verified by the service
/// (answers without a witness to re-verify — exact chromatic numbers and
/// non-colorable verdicts — are re-derived instead), and, when
/// `differential` is set, equal to direct library calls.
fn check_answer(
    library: &mut Library,
    tr: &Tracer,
    line: &str,
    resp: &Response,
    differential: bool,
) -> Option<String> {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => return Some(format!("unparseable trace line: {}", e.message)),
    };
    let Response::Ok {
        verified,
        rung,
        kind,
        ..
    } = resp
    else {
        return Some(format!("`{}` response", resp.outcome()));
    };
    let unverifiable = verified.is_none() && *kind == "dimacs" && *rung == Rung::Exact;
    if *verified != Some(true) && !unverifiable {
        return Some(format!("answer carries verified = {verified:?}"));
    }
    if differential || unverifiable {
        if let Err(why) = library.check(tr, &req, resp) {
            return Some(format!("differs from the library: {why}"));
        }
    }
    None
}

/// Records the deterministic figures of one pass of answers: the move
/// weights the `challenge` answers leave and remove, the spills and
/// reloads of the `cfg` and `module_slice` answers, and the number of
/// `ok` and degraded answers.
fn record_quality(out: &mut Outcome, responses: &[Response]) {
    let mut sums = [0u64; 6];
    for resp in responses {
        let Response::Ok {
            kind,
            degraded,
            payload,
            ..
        } = resp
        else {
            continue;
        };
        if *kind == "challenge" {
            let total = payload_u64(payload, "total_weight").unwrap_or(0);
            let merged = payload_u64(payload, "coalesced_weight").unwrap_or(0);
            sums[0] += total.saturating_sub(merged);
            sums[1] += merged;
        }
        sums[2] += payload_u64(payload, "spilled").unwrap_or(0);
        sums[3] += payload_u64(payload, "reloads").unwrap_or(0);
        sums[4] += 1;
        sums[5] += u64::from(*degraded);
    }
    measure::record_moves(out, sums[0], sums[1]);
    let names = [
        "spilled_values",
        "reloads",
        "ok_answers",
        "degraded_answers",
    ];
    out.deterministic
        .extend(names.into_iter().zip(sums[2..].iter().copied()));
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, min_ops: usize, requests: usize) -> Outcome {
    let mut problems = Vec::new();
    let mut setup = measure::SetupTimer::default();
    let mut ready = None;
    for _ in 0..measure::SETUP_REPEATS {
        if let Some((_, server)) = ready.take() {
            stop(server, &mut problems);
        }
        ready = Some(setup.time(|| (trace_lines(seed, requests), start_server())));
    }
    let (lines, server) = ready.expect("SETUP_REPEATS > 0");
    // A request's time is the CPU time the client and the worker spend on
    // it; the worker is the only thread of its name (one server runs).
    let Some(worker) = CpuClock::of_thread_named(WORKER) else {
        stop(server, &mut problems);
        problems.push(format!("no thread named `{WORKER}`"));
        return Outcome {
            attempted: 1,
            failed: 1,
            problems,
            ..Outcome::default()
        };
    };
    let timed = measure::timed_passes(
        &lines,
        &[CpuClock::CALLER, worker],
        seconds,
        min_ops,
        |line| server.execute_blocking(line),
        |resp| resp,
        |first, resp| first == resp,
    );
    stop(server, &mut problems);
    let mut out = timed.outcome();
    out.problems = problems;

    let mut library = Library::default();
    let tracer = Tracer::default();
    let mut bad = vec![false; lines.len()];
    for (i, (line, resp)) in lines.iter().zip(&timed.first).enumerate() {
        let differential = measure::sampled(seed, i, DIFFERENTIAL_STRIDE);
        if let Some(why) = check_answer(&mut library, &tracer, line, resp, differential) {
            bad[i] = true;
            out.problems.push(format!("request {}: {why}", i + 1));
        }
    }
    out.failed = timed.failed(&bad);
    out.problems.truncate(5);

    out.push("setup_s", setup.median_s(), "s");
    measure::push_health_metrics(&mut out);
    record_quality(&mut out, &timed.first);
    let figure = |name: &str| out.deterministic[name];
    let (remaining, coalesced) = (figure("remaining_move_weight"), figure("coalesced_weight"));
    measure::push_moves(&mut out, remaining, coalesced);
    out
}

/// The content of a request line without its id, so repeated instances
/// can be recognised.
fn content_key(line: &str) -> &str {
    line.find(",\"kind\"").map_or(line, |i| &line[i..])
}

/// One inline pass: a fresh engine answering every request, timed as
/// `parse + execute` per request, with the counters it collected.
struct InlinePass {
    engine: Engine,
    times: Vec<Duration>,
    responses: Vec<Response>,
    counters: coalesce_stats::Counters,
}

impl InlinePass {
    fn new(verify: VerifyLevel) -> Self {
        InlinePass {
            engine: engine(verify),
            times: Vec::new(),
            responses: Vec::new(),
            counters: coalesce_stats::Counters::default(),
        }
    }

    /// Answers `line`, inside spans when `tracer` is given.
    fn serve(&mut self, line: &str, tracer: Option<&Tracer>) {
        let engine = &self.engine;
        let t = Instant::now();
        let (resp, counters) = coalesce_stats::collect(|| {
            let parse = || parse_request(black_box(line));
            let execute = |req: &Request| engine.execute(req, Instant::now());
            let req = match tracer {
                Some(tr) => tr.span("serve.parse", parse),
                None => parse(),
            };
            match (req, tracer) {
                (Ok(req), Some(tr)) => tr.span("serve.engine", || execute(&req)),
                (Ok(req), None) => execute(&req),
                (Err(e), _) => Response::from_request_error(e),
            }
        });
        self.times.push(t.elapsed());
        self.responses.push(resp);
        self.counters.merge(&counters);
    }
}

/// The traced run: one pass of the trace through the server and inline
/// through the engine (traced, untraced, and with verification off),
/// then a direct-library replay of every answer.
pub fn run_traced(seed: u64, requests: usize, tracer: &Tracer) -> Outcome {
    let gen_start = Instant::now();
    let lines = trace_lines(seed, requests);
    let gen_ms = measure::ms(gen_start.elapsed());
    let mut out = Outcome {
        attempted: lines.len() as u64,
        ..Outcome::default()
    };

    // Every request goes through four variants — a round trip through the
    // server, and inline on three fresh engines (verification off, on, and
    // on inside spans).  The variant that runs first rotates per request,
    // so none of them always finds the caches cold or warm.
    let server = start_server();
    let (mut round_trips, mut responses) = (Vec::new(), Vec::new());
    let mut unverified = InlinePass::new(VerifyLevel::Off);
    let mut untraced = InlinePass::new(VerifyLevel::Boundaries);
    let mut traced = InlinePass::new(VerifyLevel::Boundaries);
    for (i, line) in lines.iter().enumerate() {
        for step in 0..4 {
            match (i + step) % 4 {
                0 => {
                    let t = Instant::now();
                    responses.push(server.execute_blocking(black_box(line)));
                    round_trips.push(t.elapsed());
                }
                1 => unverified.serve(line, None),
                2 => untraced.serve(line, None),
                _ => traced.serve(line, Some(tracer)),
            }
        }
    }
    stop(server, &mut out.problems);
    if traced.responses != responses || untraced.responses != responses {
        out.problems
            .push("inline engine answers differ from the served answers".to_string());
    }
    if traced.counters != untraced.counters {
        out.problems
            .push("traced counters differ from the untraced pass".to_string());
    }

    let mut library = Library::default();
    for (i, resp) in responses.iter().enumerate() {
        let verdict = tracer.span("replay", || {
            check_answer(&mut library, tracer, &lines[i], resp, true)
        });
        if let Some(why) = verdict {
            out.failed += 1;
            out.problems.push(format!("request {}: {why}", i + 1));
        }
    }
    out.problems.truncate(5);

    let total = |d: &[Duration]| d.iter().map(|&d| measure::ms(d)).sum::<f64>();
    let (round_trip_ms, engine_ms) = (total(&round_trips), total(&untraced.times));
    let traced_ms = total(&traced.times);
    crate::layers::push_per_layer(&mut out, tracer, &traced.counters, "", &[], 0.0);
    crate::layers::set(&mut out, "gen.ms", gen_ms);
    crate::layers::set(&mut out, "serve.queue_wait_ms", round_trip_ms - engine_ms);
    crate::layers::set(&mut out, "coverage", engine_ms / round_trip_ms);
    crate::layers::set(&mut out, "trace_overhead", traced_ms / engine_ms - 1.0);
    crate::layers::set(&mut out, "verify.ms", engine_ms - total(&unverified.times));

    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first_seen: HashMap<&str, f64> = HashMap::new();
    let (mut repeat_ms, mut first_ms) = (0.0, 0.0);
    for ((line, resp), rt) in lines.iter().zip(&responses).zip(&round_trips) {
        let rt = measure::ms(*rt);
        if let Response::Ok { kind, .. } = resp {
            by_kind.entry(kind).or_default().push(rt);
        }
        match first_seen.get(content_key(line)) {
            Some(&first) => {
                repeat_ms += rt;
                first_ms += first;
            }
            None => {
                first_seen.insert(content_key(line), rt);
            }
        }
    }
    for (kind, name) in KINDS {
        let mut times = by_kind.remove(kind).unwrap_or_default();
        crate::layers::set(&mut out, name, measure::median(&mut times));
    }
    if first_ms > 0.0 {
        crate::layers::set(
            &mut out,
            "serve.repeat_vs_first_ratio",
            repeat_ms / first_ms,
        );
    }
    record_quality(&mut out, &responses);
    out.record_counters(&traced.counters);
    crate::layers::set_deterministic(&mut out);
    out
}
