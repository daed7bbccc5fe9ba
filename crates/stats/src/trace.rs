//! Hierarchical wall-clock spans and the chrome://tracing exporter.
//!
//! Spans form a per-thread tree (`span!("e16/function/liveness")` nested
//! inside `span!("e16/function")`); each completed span is recorded as one
//! complete event (`"ph":"X"`) in the chrome "trace event format", the
//! JSON schema both `chrome://tracing` and Perfetto load directly.
//!
//! Wall-clock data is inherently nondeterministic, so events only ever
//! leave the process via [`take_events`] → [`chrome_trace_json`] (the
//! `--trace-out` sidecar) or a stderr summary — never via the
//! byte-compared experiment reports.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::Level;

/// One completed span, in microseconds since the process trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `"e16/function/liveness"`).
    pub name: &'static str,
    /// Start, µs since the first span of the process.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Small dense per-thread id (chrome's `tid`).
    pub tid: u64,
    /// Nesting depth at the time the span opened (0 = root).
    pub depth: usize,
}

/// Completed events, appended in span-close order.
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// The instant `ts_us` values are relative to (first span wins).
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Source for dense thread ids, assigned on a thread's first span.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

const TID_UNSET: u64 = 0;

thread_local! {
    static TID: Cell<u64> = const { Cell::new(TID_UNSET) };
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == TID_UNSET {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// An open span; records a [`TraceEvent`] when dropped.  `None` when the
/// thread's level is below [`Level::Trace`] — the disabled path costs one
/// level check and allocates nothing.
#[must_use = "a span records on Drop; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(self.depth));
        let epoch = *EPOCH.get_or_init(|| self.start);
        let ts_us = u64::try_from(self.start.saturating_duration_since(epoch).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let event = TraceEvent {
            name: self.name,
            ts_us,
            dur_us,
            tid: thread_tid(),
            depth: self.depth,
        };
        if let Ok(mut events) = EVENTS.lock() {
            events.push(event);
        }
    }
}

/// Opens a span named `name` on the calling thread.  Prefer the
/// [`span!`](crate::span) macro at call sites.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    if crate::level() != Level::Trace {
        return None;
    }
    let depth = SPAN_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Some(SpanGuard {
        name,
        start: Instant::now(),
        depth,
    })
}

/// Drains every completed event recorded so far (across all threads).
pub fn take_events() -> Vec<TraceEvent> {
    EVENTS
        .lock()
        .map(|mut events| std::mem::take(&mut *events))
        .unwrap_or_default()
}

/// Renders events as chrome "trace event format" JSON — the file
/// `--trace-out` writes, loadable by chrome://tracing and Perfetto.
/// Every span is a complete event (`"ph":"X"`) under `pid` 1 with the
/// recording thread's dense `tid`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        for c in e.name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
            e.tid, e.ts_us, e.dur_us, e.depth
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A human span summary for stderr: total wall time per span name, sorted
/// by descending total, with call counts.  Purely informational.
pub fn summary_lines(events: &[TraceEvent]) -> Vec<String> {
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    for e in events {
        match totals.iter_mut().find(|(n, _, _)| *n == e.name) {
            Some((_, total, count)) => {
                *total += e.dur_us;
                *count += 1;
            }
            None => totals.push((e.name, e.dur_us, 1)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
        .into_iter()
        .map(|(name, total_us, count)| {
            format!(
                "{:>10.3} ms  {:>8} calls  {}",
                total_us as f64 / 1000.0,
                count,
                name
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_level;

    /// The open-span nesting depth on this thread.
    fn span_depth() -> usize {
        SPAN_DEPTH.with(Cell::get)
    }

    #[test]
    fn spans_are_inactive_below_trace_level() {
        with_level(Level::Counters, || {
            assert!(span("trace-test/inactive").is_none());
            assert_eq!(span_depth(), 0);
        });
        with_level(Level::Off, || {
            assert!(span("trace-test/inactive-off").is_none());
        });
    }

    #[test]
    fn nested_spans_record_depth_and_restore_it() {
        let events = with_level(Level::Trace, || {
            {
                let _outer = span("trace-test/depth-outer");
                assert_eq!(span_depth(), 1);
                let _inner = span("trace-test/depth-inner");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 0);
            take_events()
        });
        // Other tests may run concurrently; look only at our own names.
        let inner = events
            .iter()
            .find(|e| e.name == "trace-test/depth-inner")
            .expect("inner event recorded");
        let outer = events
            .iter()
            .find(|e| e.name == "trace-test/depth-outer")
            .expect("outer event recorded");
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.tid, outer.tid);
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn chrome_trace_json_has_the_pinned_schema() {
        // Schema shape only: names, phases, pid/tid/args — never durations.
        let events = vec![
            TraceEvent {
                name: "e13/facts",
                ts_us: 0,
                dur_us: 5,
                tid: 1,
                depth: 0,
            },
            TraceEvent {
                name: "e13/alloc \"k=4\"",
                ts_us: 2,
                dur_us: 3,
                tid: 2,
                depth: 1,
            },
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(
            json,
            "{\"traceEvents\":[\
             {\"name\":\"e13/facts\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":5,\"args\":{\"depth\":0}},\
             {\"name\":\"e13/alloc \\\"k=4\\\"\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":2,\"dur\":3,\"args\":{\"depth\":1}}\
             ],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn summary_lines_aggregate_by_name() {
        let events = vec![
            TraceEvent {
                name: "sum/a",
                ts_us: 0,
                dur_us: 1500,
                tid: 1,
                depth: 0,
            },
            TraceEvent {
                name: "sum/b",
                ts_us: 0,
                dur_us: 4000,
                tid: 1,
                depth: 0,
            },
            TraceEvent {
                name: "sum/a",
                ts_us: 0,
                dur_us: 500,
                tid: 2,
                depth: 0,
            },
        ];
        let lines = summary_lines(&events);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("sum/b"), "largest total first: {lines:?}");
        assert!(lines[1].contains("sum/a"));
        assert!(lines[1].contains("2 calls"));
    }
}
