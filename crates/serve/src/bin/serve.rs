//! `serve` — allocation as a service over JSONL.
//!
//! ```text
//! serve < requests.jsonl > responses.jsonl
//! serve --workers 8 --queue-depth 256 --verify boundaries
//! serve --tcp 127.0.0.1:7077
//! echo '{"id":1,"kind":"dimacs","text":"p edge 3 2\ne 1 2\ne 2 3\n","k":2}' | serve
//! ```
//!
//! One request object per stdin line, one response object per stdout
//! line (see `coalesce_serve::protocol`).  The queue is bounded: when it
//! is full the server answers `{"status":"overloaded","retry_after_ms":N}`
//! instead of buffering (use `--blocking` to wait for space instead —
//! deterministic piping).  EOF on stdin drains the queue, joins every
//! worker, and prints a service summary to stderr — the clean-shutdown
//! path the CI soak exercises.

#![deny(clippy::unwrap_used)]

use coalesce_serve::{Engine, EngineConfig, Response, Server, ServerConfig};
use coalesce_verify::VerifyLevel;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One CLI flag: single source of truth for the parser and `--help`
/// (same idiom as `run-experiments`).
struct FlagSpec {
    long: &'static str,
    metavar: Option<&'static str>,
    help: &'static [&'static str],
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        long: "--workers",
        metavar: Some("<N>"),
        help: &["Worker threads serving requests (default: 2)"],
    },
    FlagSpec {
        long: "--queue-depth",
        metavar: Some("<N>"),
        help: &["Bounded queue capacity before backpressure (default: 64)"],
    },
    FlagSpec {
        long: "--retry-after-ms",
        metavar: Some("<MS>"),
        help: &["Retry hint sent on `overloaded` responses (default: 25)"],
    },
    FlagSpec {
        long: "--blocking",
        metavar: None,
        help: &[
            "Wait for queue space instead of answering `overloaded`",
            "(deterministic piping; stdin mode only)",
        ],
    },
    FlagSpec {
        long: "--default-budget",
        metavar: Some("<N>"),
        help: &[
            "Work budget (counter units) applied to requests that",
            "carry none (default: unlimited)",
        ],
    },
    FlagSpec {
        long: "--verify",
        metavar: Some("<LEVEL>"),
        help: &[
            "Re-verify every answer before responding and tag it",
            "with `verified` (off, boundaries, paranoid; default: off;",
            "paranoid does what boundaries does here)",
        ],
    },
    FlagSpec {
        long: "--chaos",
        metavar: None,
        help: &[
            "Honour `panic` requests (fault-injection testing of the",
            "panic-isolation path)",
        ],
    },
    FlagSpec {
        long: "--tcp",
        metavar: Some("<ADDR>"),
        help: &[
            "Listen on ADDR (e.g. 127.0.0.1:7077) instead of stdin;",
            "one JSONL session per connection, shared worker pool",
        ],
    },
    FlagSpec {
        long: "--help",
        metavar: None,
        help: &["Show this help"],
    },
];

fn usage() -> String {
    let mut out = String::from(
        "serve: allocation-as-a-service JSONL server\n\
         \n\
         USAGE:\n\
         \x20   serve [OPTIONS] < requests.jsonl > responses.jsonl\n\
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
                out.push_str(&format!("    {head:<24}{line}\n"));
            } else {
                out.push_str(&format!("    {:<24}{line}\n", ""));
            }
        }
    }
    out
}

struct Options {
    server: ServerConfig,
    engine: EngineConfig,
    blocking: bool,
    tcp: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut server = ServerConfig::default();
    let mut engine = EngineConfig::default();
    let mut blocking = false;
    let mut tcp = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(spec) = FLAGS.iter().find(|spec| spec.long == arg.as_str()) else {
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
        let uint = |name: &str| -> Result<u64, String> {
            let v = value.clone().unwrap_or_default();
            v.parse()
                .map_err(|_| format!("{name} expects an unsigned integer, got `{v}`"))
        };
        match spec.long {
            "--help" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--workers" => {
                server.workers = usize::try_from(uint("--workers")?)
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers expects a positive integer")?;
            }
            "--queue-depth" => {
                server.queue_depth = usize::try_from(uint("--queue-depth")?)
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--queue-depth expects a positive integer")?;
            }
            "--retry-after-ms" => server.retry_after_ms = uint("--retry-after-ms")?,
            "--blocking" => blocking = true,
            "--default-budget" => engine.default_budget = Some(uint("--default-budget")?),
            "--verify" => {
                let v = value.clone().unwrap_or_default();
                engine.verify = v.parse::<VerifyLevel>()?;
            }
            "--chaos" => engine.chaos = true,
            "--tcp" => tcp.clone_from(&value),
            other => unreachable!("flag `{other}` is in FLAGS but not dispatched"),
        }
    }
    if blocking && tcp.is_some() {
        return Err("--blocking only applies to stdin mode".into());
    }
    Ok(Some(Options {
        server,
        engine,
        blocking,
        tcp,
    }))
}

/// Spawns the response writer: drains `rx` and writes one compact JSON
/// line per response, flushing each (clients pipeline against us).
fn spawn_writer<W: Write + Send + 'static>(mut out: W, rx: Receiver<Response>) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut written = 0u64;
        while let Ok(resp) = rx.recv() {
            let line = resp.to_json().to_compact_string();
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                // Client hung up; keep draining so submitters never block
                // on a dead writer.
                continue;
            }
            written += 1;
        }
        written
    })
}

/// One JSONL session: reads lines from `input`, submits each, responses
/// flow through the writer thread.  Returns lines read.
fn pump_session<R: BufRead>(
    input: R,
    server: &Server,
    reply: &Sender<Response>,
    blocking: bool,
) -> u64 {
    let mut lines = 0u64;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if blocking {
            server.submit_blocking(line, reply);
        } else {
            server.try_submit(line, reply);
        }
    }
    lines
}

fn run_stdio(options: &Options) -> ExitCode {
    let engine = Arc::new(Engine::new(options.engine.clone()));
    let server = Server::start(engine, &options.server);
    let (tx, rx) = channel();
    let writer = spawn_writer(std::io::stdout(), rx);

    let stdin = std::io::stdin();
    let submitted = pump_session(stdin.lock(), &server, &tx, options.blocking);

    // EOF: drain the queue, join the pool, then let the writer finish.
    let summary = server.shutdown();
    drop(tx);
    let written = writer.join().unwrap_or(0);
    eprintln!(
        "serve: {submitted} request(s) in, {written} response(s) out, \
         {} panic(s) isolated, {} worker(s) exited cleanly",
        summary.panics_isolated, summary.clean_worker_exits
    );
    ExitCode::SUCCESS
}

fn run_tcp(options: &Options, addr: &str) -> ExitCode {
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serve: listening on {addr}");
    let engine = Arc::new(Engine::new(options.engine.clone()));
    let server = Arc::new(Server::start(engine, &options.server));
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let (tx, rx) = channel();
            let writer = spawn_writer(stream, rx);
            pump_session(std::io::BufReader::new(read_half), &server, &tx, false);
            drop(tx);
            let _ = writer.join();
        });
    }
    ExitCode::SUCCESS
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
    match options.tcp.as_deref() {
        Some(addr) => run_tcp(&options, addr),
        None => run_stdio(&options),
    }
}
