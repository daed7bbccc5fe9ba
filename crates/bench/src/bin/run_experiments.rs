//! `run-experiments` — deterministic CLI driver for the E1–E18 experiments
//! and the streaming corpus analyzer.
//!
//! ```text
//! run-experiments --experiment e1 --seed 0 --json out.json
//! run-experiments --experiment all --json all.json
//! run-experiments --experiment e13 --stats --trace-out trace.json
//! run-experiments --corpus instances/ --jobs 8 --json corpus.jsonl
//! run-experiments --list
//! ```
//!
//! The JSON output is byte-identical across runs for a fixed experiment
//! and seed, so the files can be diffed and archived as `BENCH_*.json`
//! perf-trajectory artifacts.  `--stats` and `--trace-out` only add
//! observability side channels (a stderr table and a chrome://tracing
//! sidecar) — they never change the report JSON.  Corpus mode streams one
//! JSON Lines row per instance file (batched, bounded memory) instead of
//! building a report in memory.

use coalesce_bench::corpus::{collect_corpus_paths, run_corpus, CorpusConfig};
use coalesce_bench::experiments::UnknownExperiment;
use coalesce_bench::report::{sweep_json, ExperimentReport};
use coalesce_bench::verify::{verify_corpus, verify_experiment};
use coalesce_bench::{run_reports_filtered, ExperimentId, Json};
use coalesce_gen::cfg::{ShapeProfile, UnknownProfile};
use coalesce_verify::VerifyLevel;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One CLI flag: the single source of truth for both the parser and the
/// `--help` text, so the two can never drift apart again.
struct FlagSpec {
    long: &'static str,
    short: Option<&'static str>,
    /// Value metavariable (`<ID>`); `None` for boolean flags.
    metavar: Option<&'static str>,
    help: &'static [&'static str],
}

/// Every flag the parser accepts, in help order.  The parse loop looks
/// arguments up HERE (an arg missing from this table is an unknown
/// argument), and [`usage`] renders the help text from the same rows.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        long: "--experiment",
        short: Some("-e"),
        metavar: Some("<ID>"),
        help: &[
            "Experiment to run: e1..e18, or `all` (default: all);",
            "repeatable",
        ],
    },
    FlagSpec {
        long: "--seed",
        short: Some("-s"),
        metavar: Some("<N>"),
        help: &["Base seed offsetting every internal seed (default: 0)"],
    },
    FlagSpec {
        long: "--jobs",
        short: None,
        metavar: Some("<N>"),
        help: &[
            "Worker threads fanning out experiments and rows",
            "(default: 1; output is byte-identical for any N)",
        ],
    },
    FlagSpec {
        long: "--profile",
        short: Some("-p"),
        metavar: Some("<NAME>"),
        help: &[
            "Restrict the E13/E14 workload sweeps to a shape",
            "profile (int-branchy, fp-loopnest, call-heavy);",
            "repeatable, default: all profiles",
        ],
    },
    FlagSpec {
        long: "--json",
        short: Some("-j"),
        metavar: Some("<PATH>"),
        help: &["Write the JSON report to PATH (`-` for stdout)"],
    },
    FlagSpec {
        long: "--corpus",
        short: None,
        metavar: Some("<PATH>"),
        help: &[
            "Analyze a DIMACS/challenge instance file or directory",
            "instead of running experiments; repeatable.  Rows are",
            "streamed as JSON Lines to --json (default: stdout)",
        ],
    },
    FlagSpec {
        long: "--batch",
        short: None,
        metavar: Some("<N>"),
        help: &["Corpus instances processed per batch (default: 64)"],
    },
    FlagSpec {
        long: "--verify",
        short: None,
        metavar: Some("<LEVEL>"),
        help: &[
            "Audit the pipeline boundaries after the run by",
            "regenerating each experiment's inputs and checking",
            "them against independent reference implementations",
            "(off, boundaries, paranoid; default: off).  Exits",
            "nonzero if any violation is found; the JSON report",
            "is unaffected",
        ],
    },
    FlagSpec {
        long: "--stats",
        short: None,
        metavar: None,
        help: &[
            "Print each experiment's pass-counter totals (and,",
            "with --trace-out, the per-span wall-clock totals) as",
            "a table on stderr.  The JSON report is unaffected",
        ],
    },
    FlagSpec {
        long: "--trace-out",
        short: None,
        metavar: Some("<PATH>"),
        help: &[
            "Record hierarchical pass timings and write them to",
            "PATH in chrome://tracing \"trace event format\" JSON",
            "(open in chrome://tracing or Perfetto).  Timings live",
            "only in this sidecar, never in the byte-compared",
            "report",
        ],
    },
    FlagSpec {
        long: "--timeout-ms",
        short: None,
        metavar: Some("<MS>"),
        help: &[
            "Per-experiment wall-clock ceiling.  An experiment",
            "still running after MS milliseconds is abandoned and",
            "its report is replaced by a deterministic stub whose",
            "summary carries `timed_out: true` and the ceiling, so",
            "archived JSON stays diffable even when a run is cut",
            "short",
        ],
    },
    FlagSpec {
        long: "--quiet",
        short: Some("-q"),
        metavar: None,
        help: &["Suppress the human-readable tables on stdout"],
    },
    FlagSpec {
        long: "--list",
        short: None,
        metavar: None,
        help: &["List experiment ids and titles, then exit"],
    },
    FlagSpec {
        long: "--help",
        short: Some("-h"),
        metavar: None,
        help: &["Show this help"],
    },
];

/// Renders the `--help` text from [`FLAGS`] — the usage can't drift from
/// the parser because both read the same table.
fn usage() -> String {
    let mut out = String::from(
        "run-experiments: run the E1-E18 coalescing experiments deterministically\n\
         \n\
         USAGE:\n\
         \x20   run-experiments [OPTIONS]\n\
         \n\
         OPTIONS:\n",
    );
    for spec in FLAGS {
        let mut head = String::new();
        head.push_str(spec.long);
        if let Some(metavar) = spec.metavar {
            head.push(' ');
            head.push_str(metavar);
        }
        for (i, line) in spec.help.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("    {head:<20}{line}\n"));
            } else {
                out.push_str(&format!("    {:<20}{line}\n", ""));
            }
        }
        if let Some(short) = spec.short {
            out.push_str(&format!("    {:<20}(short: {short})\n", ""));
        }
    }
    out
}

#[derive(Debug)]
struct Options {
    experiments: Vec<ExperimentId>,
    seed: u64,
    jobs: usize,
    profiles: Vec<ShapeProfile>,
    json_path: Option<String>,
    corpus: Vec<PathBuf>,
    batch_size: usize,
    verify: VerifyLevel,
    stats: bool,
    trace_out: Option<String>,
    timeout_ms: Option<u64>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut experiments: Option<Vec<ExperimentId>> = None;
    let mut seed: Option<u64> = None;
    let mut jobs = 1usize;
    let mut profiles: Vec<ShapeProfile> = Vec::new();
    let mut json_path = None;
    let mut corpus: Vec<PathBuf> = Vec::new();
    let mut batch_size: Option<usize> = None;
    let mut verify = VerifyLevel::Off;
    let mut stats = false;
    let mut trace_out: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut quiet = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // The flag table is the parser's vocabulary: an argument that
        // doesn't resolve to a spec is unknown, and every spec row is
        // handled by exactly one dispatch arm below.
        let Some(spec) = FLAGS
            .iter()
            .find(|spec| spec.long == arg.as_str() || spec.short == Some(arg.as_str()))
        else {
            return Err(format!("unknown argument `{arg}`\n\n{}", usage()));
        };
        let value = if spec.metavar.is_some() {
            Some(
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{} requires a value", spec.long))?,
            )
        } else {
            None
        };
        let value = |()| value.clone().expect("value parsed for metavar flags");
        match spec.long {
            "--help" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--list" => {
                for id in ExperimentId::ALL {
                    println!("{:<4} {}", id.as_str(), id.title());
                }
                return Ok(None);
            }
            "--experiment" => {
                let value = value(());
                let list = experiments.get_or_insert_with(Vec::new);
                if value.eq_ignore_ascii_case("all") {
                    list.extend(ExperimentId::ALL);
                } else {
                    list.push(
                        value
                            .parse()
                            .map_err(|e: UnknownExperiment| e.to_string())?,
                    );
                }
            }
            "--seed" => {
                let value = value(());
                seed =
                    Some(value.parse().map_err(|_| {
                        format!("--seed expects an unsigned integer, got `{value}`")
                    })?);
            }
            "--jobs" => {
                let value = value(());
                jobs = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or(format!("--jobs expects a positive integer, got `{value}`"))?;
            }
            "--profile" => {
                profiles.push(
                    value(())
                        .parse()
                        .map_err(|e: UnknownProfile| e.to_string())?,
                );
            }
            "--json" => json_path = Some(value(())),
            "--corpus" => corpus.push(PathBuf::from(value(()))),
            "--batch" => {
                let value = value(());
                batch_size = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or(format!("--batch expects a positive integer, got `{value}`"))?,
                );
            }
            "--verify" => verify = value(()).parse()?,
            "--stats" => stats = true,
            "--trace-out" => trace_out = Some(value(())),
            "--timeout-ms" => {
                let value = value(());
                timeout_ms = Some(value.parse().ok().filter(|&n: &u64| n >= 1).ok_or(format!(
                    "--timeout-ms expects a positive integer, got `{value}`"
                ))?);
            }
            "--quiet" => quiet = true,
            other => unreachable!("flag `{other}` is in FLAGS but not dispatched"),
        }
    }

    // Each mode rejects the other's flags rather than silently ignoring
    // them: --experiment/--seed drive only the experiment runner, --batch
    // only the corpus analyzer.
    if !corpus.is_empty() && (experiments.is_some() || seed.is_some() || !profiles.is_empty()) {
        return Err("--corpus cannot be combined with --experiment, --seed or --profile".into());
    }
    if corpus.is_empty() && batch_size.is_some() {
        return Err("--batch only applies to --corpus mode".into());
    }
    if !corpus.is_empty() && (stats || trace_out.is_some() || timeout_ms.is_some()) {
        return Err("--stats, --trace-out and --timeout-ms only apply to experiment mode".into());
    }

    // Dedupe while preserving first-occurrence order, so mixes of `all`
    // and explicit ids never run an experiment twice.
    let mut seen = std::collections::BTreeSet::new();
    let experiments: Vec<ExperimentId> = experiments
        .unwrap_or_else(|| ExperimentId::ALL.to_vec())
        .into_iter()
        .filter(|&id| seen.insert(id))
        .collect();

    // Dedupe profiles the same way.
    let mut seen_profiles = std::collections::BTreeSet::new();
    let profiles: Vec<ShapeProfile> = profiles
        .into_iter()
        .filter(|&p| seen_profiles.insert(p))
        .collect();

    // Like --batch, --profile is mode-specific: reject it rather than
    // silently ignoring it when no selected experiment consumes it.
    if !profiles.is_empty()
        && !experiments
            .iter()
            .any(|&id| id == ExperimentId::E13 || id == ExperimentId::E14)
    {
        return Err("--profile only applies to experiments e13/e14".into());
    }

    Ok(Some(Options {
        experiments,
        seed: seed.unwrap_or(0),
        jobs,
        profiles,
        json_path,
        corpus,
        batch_size: batch_size.unwrap_or(64),
        verify,
        stats,
        trace_out,
        timeout_ms,
        quiet,
    }))
}

/// Corpus mode: expand the corpus arguments, stream JSON Lines rows to the
/// `--json` destination (stdout by default), print the summary.
fn run_corpus_mode(options: &Options) -> ExitCode {
    let mut paths = Vec::new();
    for root in &options.corpus {
        match collect_corpus_paths(root) {
            Ok(found) => paths.extend(found),
            Err(e) => {
                eprintln!("error: cannot read corpus {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let config = CorpusConfig {
        jobs: options.jobs,
        batch_size: options.batch_size,
    };
    let summary = match options.json_path.as_deref() {
        Some(path) if path != "-" => {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut writer = std::io::BufWriter::new(file);
            let summary = run_corpus(&paths, config, &mut writer);
            summary.and_then(|s| writer.flush().map(|()| s))
        }
        _ => {
            let stdout = std::io::stdout();
            let mut writer = std::io::BufWriter::new(stdout.lock());
            let summary = run_corpus(&paths, config, &mut writer);
            summary.and_then(|s| writer.flush().map(|()| s))
        }
    };
    // Certificate audit of the corpus claims: re-parse each instance
    // independently of the streamed pipeline, so the JSON Lines output
    // above is untouched.
    if options.verify.is_on() {
        let flagged = verify_corpus(&paths, options.verify);
        if !flagged.is_empty() {
            for (path, violations) in &flagged {
                for v in violations {
                    eprintln!("verify: {}: {v}", path.display());
                }
            }
            return ExitCode::FAILURE;
        }
        if !options.quiet {
            eprintln!(
                "verify: corpus certificates clean at level `{}`",
                options.verify
            );
        }
    }
    match summary {
        Ok(summary) => {
            if !options.quiet {
                eprintln!(
                    "corpus: {} file(s), {} parse error(s), {} chordal, {} vertices, \
                     {} interferences, {} affinities, {} weight coalesced (best), \
                     {} IRC spills",
                    summary.files,
                    summary.parse_errors,
                    summary.chordal,
                    summary.total_vertices,
                    summary.total_interferences,
                    summary.total_affinities,
                    summary.total_best_coalesced_weight,
                    summary.total_irc_spills,
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: corpus run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The deterministic stand-in for an experiment that blew its
/// `--timeout-ms` ceiling: no rows, and a summary that says so.  The
/// bytes depend only on the id, seed and ceiling, so archived runs with
/// timeouts still diff cleanly.
fn timed_out_report(id: ExperimentId, base_seed: u64, timeout_ms: u64) -> ExperimentReport {
    ExperimentReport {
        id,
        title: id.title(),
        base_seed,
        rows: Vec::new(),
        summary: vec![
            ("timed_out".into(), Json::Bool(true)),
            ("timeout_ms".into(), Json::from(timeout_ms)),
        ],
    }
}

/// Runs each selected experiment on its own thread and waits at most
/// `timeout_ms` for it.  A laggard is abandoned — its thread keeps
/// computing detached, since arbitrary compute can't be cancelled safely
/// — and its slot is filled by [`timed_out_report`].  A worker that dies
/// (panics) is reported the same way rather than taking the driver down.
fn run_reports_with_timeout(options: &Options, timeout_ms: u64) -> Vec<ExperimentReport> {
    options
        .experiments
        .iter()
        .map(|&id| {
            let (tx, rx) = std::sync::mpsc::channel();
            let seed = options.seed;
            let jobs = options.jobs;
            let profiles = options.profiles.clone();
            std::thread::spawn(move || {
                let report = run_reports_filtered(&[id], seed, jobs, &profiles);
                let _ = tx.send(report);
            });
            match rx.recv_timeout(std::time::Duration::from_millis(timeout_ms)) {
                Ok(mut reports) => reports.remove(0),
                Err(_) => {
                    eprintln!(
                        "warning: {} exceeded --timeout-ms {timeout_ms}; emitting stub report",
                        id.as_str()
                    );
                    timed_out_report(id, seed, timeout_ms)
                }
            }
        })
        .collect()
}

/// Prints each report's summary `"stats"` counter object as a stderr
/// table — the human exporter of the pass-counter machinery.
fn print_stats_tables(reports: &[ExperimentReport]) {
    for report in reports {
        let Some(Json::Object(counters)) = report
            .summary
            .iter()
            .find(|(key, _)| key == "stats")
            .map(|(_, v)| v)
        else {
            continue;
        };
        eprintln!("stats: {} (seed {})", report.id.as_str(), report.base_seed);
        for (name, value) in counters {
            if let Some(n) = value.as_u64() {
                eprintln!("  {name:<32}{n:>14}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    if !options.corpus.is_empty() {
        return run_corpus_mode(&options);
    }

    // Tracing is opt-in per run: raise the default level so the spans in
    // the experiment harness and the passes start recording.  Counters
    // are always collected (they are deterministic report fields), so
    // neither flag changes the JSON below by a single byte.
    if options.trace_out.is_some() {
        coalesce_stats::set_default_level(coalesce_stats::Level::Trace);
    }

    let reports = match options.timeout_ms {
        Some(timeout_ms) => run_reports_with_timeout(&options, timeout_ms),
        None => run_reports_filtered(
            &options.experiments,
            options.seed,
            options.jobs,
            &options.profiles,
        ),
    };

    if !options.quiet {
        for report in &reports {
            print!("{}", report.render_text());
        }
    }

    let json = if reports.len() == 1 {
        reports[0].to_json()
    } else {
        sweep_json(options.seed, &reports)
    };

    match options.json_path.as_deref() {
        Some("-") => print!("{}", json.to_pretty_string()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, json.to_pretty_string()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            if !options.quiet {
                println!("wrote {path}");
            }
        }
        None => {}
    }

    if options.stats {
        print_stats_tables(&reports);
    }

    // The timing side channel: drain the recorded spans into the
    // chrome://tracing sidecar (and, with --stats, a stderr span table).
    // Wall clock never reaches the byte-compared report above.
    if let Some(path) = options.trace_out.as_deref() {
        let events = coalesce_stats::trace::take_events();
        if options.stats {
            eprintln!("spans: {} event(s)", events.len());
            for line in coalesce_stats::trace::summary_lines(&events) {
                eprintln!("  {line}");
            }
        }
        let trace = coalesce_stats::trace::chrome_trace_json(&events);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !options.quiet {
            println!("wrote {path} ({} span(s))", events.len());
        }
    }

    // Boundary verification: regenerate each experiment's pipeline from
    // the same seeds and audit it against the independent reference
    // implementations.  The report above is already written — the audit
    // can only fail the process, never change the JSON.
    if options.verify.is_on() {
        let mut total = 0usize;
        for &id in &options.experiments {
            let violations = verify_experiment(id, options.seed, options.verify, options.jobs);
            for v in &violations {
                eprintln!("verify: {}: {v}", id.as_str());
            }
            total += violations.len();
        }
        if total > 0 {
            eprintln!("verify: {total} violation(s) found");
            return ExitCode::FAILURE;
        }
        if !options.quiet {
            eprintln!(
                "verify: all pipeline boundaries clean at level `{}`",
                options.verify
            );
        }
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn every_flag_in_the_table_is_parsed_and_documented() {
        // Parse each boolean flag and each value flag with a dummy value:
        // a FLAGS row without a dispatch arm would hit the unreachable
        // arm, and a row missing from usage() can't happen by
        // construction.  (--help/--list short-circuit to Ok(None).)
        for spec in FLAGS {
            let args: Vec<&str> = match (spec.long, spec.metavar) {
                ("--experiment", _) => vec![spec.long, "e13"],
                ("--profile", _) => vec![spec.long, "int-branchy", "-e", "e13"],
                ("--corpus", _) => vec![spec.long, "some-dir"],
                ("--batch", _) => vec![spec.long, "1", "--corpus", "some-dir"],
                ("--verify", _) => vec![spec.long, "boundaries"],
                ("--json" | "--trace-out", _) => vec![spec.long, "out.json"],
                (_, Some(_)) => vec![spec.long, "1"],
                (_, None) => vec![spec.long],
            };
            assert!(opts(&args).is_ok(), "flag {} must parse", spec.long);
            let text = usage();
            assert!(
                text.contains(spec.long),
                "usage() must document {}",
                spec.long
            );
            if let Some(short) = spec.short {
                assert!(
                    text.contains(&format!("(short: {short})")),
                    "usage() must document the {short} alias"
                );
            }
        }
    }

    #[test]
    fn short_aliases_resolve_to_their_long_flags() {
        let options = opts(&["-e", "e13", "-s", "7", "-q"]).unwrap().unwrap();
        assert_eq!(options.experiments, vec![ExperimentId::E13]);
        assert_eq!(options.seed, 7);
        assert!(options.quiet);
    }

    #[test]
    fn unknown_arguments_are_rejected_with_the_usage_text() {
        let err = opts(&["--nope"]).unwrap_err();
        assert!(err.contains("unknown argument `--nope`"));
        assert!(err.contains("OPTIONS:"), "error must embed the usage");
    }

    #[test]
    fn stats_and_trace_out_are_experiment_mode_only() {
        assert!(opts(&["--stats"]).unwrap().unwrap().stats);
        let err = opts(&["--corpus", "dir", "--stats"]).unwrap_err();
        assert!(err.contains("experiment mode"));
        let err = opts(&["--corpus", "dir", "--trace-out", "t.json"]).unwrap_err();
        assert!(err.contains("experiment mode"));
    }

    #[test]
    fn value_flags_require_a_value() {
        let err = opts(&["--trace-out"]).unwrap_err();
        assert!(err.contains("--trace-out requires a value"));
    }

    #[test]
    fn timeout_ms_parses_and_is_experiment_mode_only() {
        let options = opts(&["--timeout-ms", "5000"]).unwrap().unwrap();
        assert_eq!(options.timeout_ms, Some(5000));
        assert!(opts(&[]).unwrap().unwrap().timeout_ms.is_none());
        let err = opts(&["--timeout-ms", "0"]).unwrap_err();
        assert!(err.contains("positive integer"));
        let err = opts(&["--corpus", "dir", "--timeout-ms", "10"]).unwrap_err();
        assert!(err.contains("experiment mode"));
    }

    #[test]
    fn timed_out_stub_reports_are_deterministic() {
        let a = timed_out_report(ExperimentId::E18, 42, 7)
            .to_json()
            .to_pretty_string();
        let b = timed_out_report(ExperimentId::E18, 42, 7)
            .to_json()
            .to_pretty_string();
        assert_eq!(a, b);
        assert!(a.contains("\"timed_out\": true"));
        assert!(a.contains("\"timeout_ms\": 7"));
        assert!(a.contains("\"rows\": []"));
    }

    #[test]
    fn an_over_budget_experiment_is_replaced_by_the_stub() {
        // A 1ms ceiling trips before any experiment can answer; the stub
        // must fill its slot so the report count (and order) still match
        // the request.
        let options = opts(&["-e", "e16", "--timeout-ms", "1", "-q"])
            .unwrap()
            .unwrap();
        let reports = run_reports_with_timeout(&options, 1);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, ExperimentId::E16);
        assert!(reports[0]
            .summary
            .iter()
            .any(|(k, v)| k == "timed_out" && *v == Json::Bool(true)));
    }
}
