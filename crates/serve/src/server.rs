//! The worker pool: a bounded request queue with explicit backpressure
//! and per-request panic isolation.
//!
//! Requests are submitted as raw JSONL lines together with a reply
//! sender.  `try_submit` never blocks — when the queue is at capacity it
//! immediately answers [`Response::Overloaded`] with a `retry_after_ms`
//! hint, which is the server's *only* overload behaviour: no unbounded
//! buffering, no silent drops.  `submit_blocking` instead waits for queue
//! space (the deterministic mode the E18 soak replays with).
//!
//! Workers never die: each request runs under
//! [`std::panic::catch_unwind`], and a panicking request is answered with
//! [`Response::InternalError`] carrying the panic message *and the
//! offending request line echoed verbatim* so the fault is replayable
//! offline (`serve --chaos < panics.jsonl`).  The pool keeps serving;
//! [`Server::panics_isolated`] counts the saves.

use crate::engine::Engine;
use crate::protocol::{parse_request, ErrorCode, Response};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Worker-pool policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Maximum queued (not yet picked up) requests before backpressure.
    pub queue_depth: usize,
    /// The `retry_after_ms` hint sent on overload.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            retry_after_ms: 25,
        }
    }
}

struct Job {
    line: String,
    reply: Sender<Response>,
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued (workers wait here).
    available: Condvar,
    /// Signalled when a slot frees up (blocking submitters wait here).
    space: Condvar,
    depth: usize,
    engine: Arc<Engine>,
    served: AtomicU64,
    panics_isolated: AtomicU64,
}

/// Locks the queue, recovering from poisoning: a panic that escapes while
/// the lock is held must not take the whole pool down with it.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Final service counters, returned by [`Server::shutdown`] after every
/// worker has been joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Requests served (including error responses).
    pub served: u64,
    /// Worker panics caught and answered as `internal_error`.
    pub panics_isolated: u64,
    /// Workers that exited their loop normally at shutdown — the
    /// zero-worker-death invariant is `clean_worker_exits == workers`.
    pub clean_worker_exits: usize,
}

/// A running worker pool over a shared [`Engine`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    retry_after_ms: u64,
}

impl Server {
    /// Starts `config.workers` worker threads over `engine`.
    pub fn start(engine: Arc<Engine>, config: &ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            depth: config.queue_depth.max(1),
            engine,
            served: AtomicU64::new(0),
            panics_isolated: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        Server {
            shared,
            workers,
            retry_after_ms: config.retry_after_ms,
        }
    }

    /// Submits a request line without blocking.  On a full queue the
    /// overload response is delivered through `reply` immediately and
    /// `false` is returned — explicit backpressure, never buffering.
    pub fn try_submit(&self, line: String, reply: &Sender<Response>) -> bool {
        let overload_id = {
            let mut state = lock_state(&self.shared);
            if state.jobs.len() < self.shared.depth && !state.closed {
                state.jobs.push_back(Job {
                    line,
                    reply: reply.clone(),
                });
                drop(state);
                self.shared.available.notify_one();
                return true;
            }
            drop(state);
            // Recover the id (best effort) so the client can correlate.
            parse_request(&line).map_or_else(|e| e.id, |r| Some(r.id))
        };
        let _ = reply.send(Response::Overloaded {
            id: overload_id,
            retry_after_ms: self.retry_after_ms,
        });
        false
    }

    /// Submits a request line, waiting for queue space instead of
    /// answering `overloaded`.  Deterministic replays (E18) use this so
    /// queue timing never leaks into outcomes.
    pub fn submit_blocking(&self, line: String, reply: &Sender<Response>) {
        let mut state = lock_state(&self.shared);
        while state.jobs.len() >= self.shared.depth && !state.closed {
            state = self
                .shared
                .space
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.jobs.push_back(Job {
            line,
            reply: reply.clone(),
        });
        drop(state);
        self.shared.available.notify_one();
    }

    /// Submits one line and waits for its response — the synchronous
    /// convenience used by tests and the soak harness.
    pub fn execute_blocking(&self, line: &str) -> Response {
        let (tx, rx) = channel();
        self.submit_blocking(line.to_string(), &tx);
        rx.recv().unwrap_or_else(|_| Response::Error {
            id: None,
            code: ErrorCode::InternalError,
            message: "worker dropped the reply channel".to_string(),
        })
    }

    /// Requests served (including error responses) since start.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Worker panics caught and converted to `internal_error` responses.
    pub fn panics_isolated(&self) -> u64 {
        self.shared.panics_isolated.load(Ordering::Relaxed)
    }

    /// Drains the queue and joins every worker.  Queued requests are
    /// still served; new submissions are rejected as overloaded.  The
    /// returned summary is read *after* the join, so it covers every
    /// request the pool ever accepted.
    pub fn shutdown(self) -> ServiceSummary {
        {
            let mut state = lock_state(&self.shared);
            state.closed = true;
        }
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        let mut clean_worker_exits = 0usize;
        for handle in self.workers {
            // A worker that panicked outside the catch_unwind scope would
            // surface here; join errors are deliberately not propagated
            // so shutdown always completes.
            if handle.join().is_ok() {
                clean_worker_exits += 1;
            }
        }
        ServiceSummary {
            served: self.shared.served.load(Ordering::Relaxed),
            panics_isolated: self.shared.panics_isolated.load(Ordering::Relaxed),
            clean_worker_exits,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock_state(shared);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    shared.space.notify_one();
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let response = serve_line(shared, &job.line);
        shared.served.fetch_add(1, Ordering::Relaxed);
        // A receiver that hung up is the client's problem, not ours.
        let _ = job.reply.send(response);
    }
}

/// Parses and executes one line with panic isolation.
fn serve_line(shared: &Shared, line: &str) -> Response {
    let picked_up = Instant::now();
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => return Response::from_request_error(e),
    };
    let id = req.id;
    match catch_unwind(AssertUnwindSafe(|| shared.engine.execute(&req, picked_up))) {
        Ok(response) => response,
        Err(payload) => {
            shared.panics_isolated.fetch_add(1, Ordering::Relaxed);
            Response::InternalError {
                id: Some(id),
                message: panic_message(payload.as_ref()),
                request: line.to_string(),
            }
        }
    }
}

/// Stringifies a panic payload (panics carry `&str` or `String` in
/// practice; anything else gets a generic label).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn chaos_server(workers: usize, queue_depth: usize) -> Server {
        let config = EngineConfig {
            chaos: true,
            ..EngineConfig::default()
        };
        Server::start(
            Arc::new(Engine::new(config)),
            &ServerConfig {
                workers,
                queue_depth,
                retry_after_ms: 5,
            },
        )
    }

    /// Worker threads still running (a finished handle means a dead
    /// worker).
    fn live_workers(server: &Server) -> usize {
        server.workers.iter().filter(|h| !h.is_finished()).count()
    }

    #[test]
    fn serves_and_shuts_down_cleanly() {
        let server = chaos_server(2, 8);
        let resp = server.execute_blocking(
            r#"{"id":1,"kind":"dimacs","text":"p edge 3 2\ne 1 2\ne 2 3\n","k":2}"#,
        );
        assert_eq!(resp.status(), "ok");
        assert_eq!(server.served(), 1);
        assert_eq!(live_workers(&server), 2);
        server.shutdown();
    }

    #[test]
    fn panics_are_isolated_and_echo_the_request() {
        let server = chaos_server(2, 8);
        let line = r#"{"id":13,"kind":"panic"}"#;
        let resp = server.execute_blocking(line);
        match &resp {
            Response::InternalError {
                id,
                message,
                request,
            } => {
                assert_eq!(*id, Some(13));
                assert!(message.contains("chaos request 13"), "{message}");
                assert_eq!(request, line, "offending line echoed for replay");
            }
            other => panic!("expected internal_error, got {other:?}"),
        }
        assert_eq!(server.panics_isolated(), 1);
        // The pool keeps serving after the panic.
        let resp =
            server.execute_blocking(r#"{"id":14,"kind":"dimacs","text":"p edge 2 1\ne 1 2\n"}"#);
        assert_eq!(resp.status(), "ok");
        assert_eq!(live_workers(&server), 2, "no worker died");
        server.shutdown();
    }

    #[test]
    fn full_queue_answers_overloaded_with_retry_hint() {
        // Zero-worker pools are impossible (min 1), so saturate a 1-deep
        // queue with a slow request: a panic request is instant, so use a
        // module slice to hold the worker while we overfill.
        let server = chaos_server(1, 1);
        let (tx, rx) = channel();
        // First job occupies the worker, second fills the queue slot; the
        // third must bounce.  Submission order is deterministic here even
        // though completion isn't — try_submit never blocks.
        let slow = r#"{"id":1,"kind":"module_slice","seed":9,"start":0,"count":8}"#;
        let mut accepted = 0;
        let mut bounced = 0;
        for i in 0..8 {
            let line = if i == 0 {
                slow.to_string()
            } else {
                format!(r#"{{"id":{i},"kind":"panic"}}"#)
            };
            if server.try_submit(line, &tx) {
                accepted += 1;
            } else {
                bounced += 1;
            }
        }
        assert!(
            bounced > 0,
            "a 1-deep queue must bounce some of 8 instant submissions"
        );
        let mut overloads = 0;
        for _ in 0..8 {
            if let Response::Overloaded { retry_after_ms, .. } =
                rx.recv().expect("every submission is answered")
            {
                assert_eq!(retry_after_ms, 5);
                overloads += 1;
            }
        }
        assert_eq!(overloads, bounced);
        assert_eq!(
            accepted + bounced,
            8,
            "every submission answered exactly once"
        );
        server.shutdown();
    }

    #[test]
    fn submit_blocking_never_overloads() {
        let server = chaos_server(1, 1);
        let (tx, rx) = channel();
        for i in 0..16 {
            server.submit_blocking(
                format!(r#"{{"id":{i},"kind":"dimacs","text":"p edge 2 1\ne 1 2\n"}}"#),
                &tx,
            );
        }
        let mut ok = 0;
        for _ in 0..16 {
            let resp = rx.recv().expect("answered");
            assert_eq!(resp.status(), "ok");
            ok += 1;
        }
        assert_eq!(ok, 16);
        server.shutdown();
    }
}
