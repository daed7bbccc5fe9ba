//! Command-line entry point of the benchmark.
//!
//! ```text
//! regbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!          [--spans-out FILE]
//! ```
//!
//! Prints a human-readable metric table on stderr and, as the last line
//! of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use coalesce_stats::json::Json;
use regbench::measure::{Outcome, Tracer, MIN_OPS};
use regbench::{Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<std::path::PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: regbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ModuleSsa,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--spans-out" => args.spans_out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn print(outcome: &Outcome) {
    for m in &outcome.metrics {
        eprintln!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<32} {:>16} ops ({} failed)",
        "attempted", outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        eprintln!("problem: {problem}");
    }
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Json::object([
                ("value", Json::Float(m.value)),
                ("unit", Json::from(m.unit)),
            ]),
        )
    });
    let doc = Json::object([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::object(metrics)),
    ]);
    println!("{}", doc.to_compact_string());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let size = args.workload.default_size();
    let outcome = if args.trace {
        let tracer = Tracer::default();
        let outcome = args.workload.run_traced(args.seed, size, &tracer);
        if let Some(path) = &args.spans_out {
            if let Err(e) = tracer.write_chrome_trace(path) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome
    } else {
        args.workload.run(args.seed, args.seconds, MIN_OPS, size)
    };
    print(&outcome);
    ExitCode::SUCCESS
}
