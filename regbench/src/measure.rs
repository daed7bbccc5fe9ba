//! Measurement plumbing shared by every workload: per-op latency
//! statistics, set-up timing, peak memory, the in-memory span tracer of
//! the traced run, and the metric record the benchmark prints.
//!
//! Set-up and ops are timed in calibrated CPU time:
//!
//! * CPU time of the threads that do the work ([`CpuClock`]), not wall
//!   time: on a shared host a wall clock also counts the time other
//!   tenants hold the CPU, and a round trip through the service also
//!   counts how soon the scheduler wakes each side;
//! * scaled to a fixed speed by a [`Probe`] run between ops: a tenant on
//!   the same physical core slows every instruction, for minutes at a
//!   time and by up to a half, which CPU time does not see but the
//!   probe's fixed loop does;
//! * ops run in whole passes over the inputs, and each input's latency is
//!   the median over the passes, so what calibration misses of a slow
//!   spell that covers part of a run does not move the figures either.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A run must time at least this many ops.
pub const MIN_OPS: usize = 1000;

/// A run makes at least this many passes over its inputs, so that each
/// input's median latency is taken over at least three samples.
pub const MIN_PASSES: usize = 3;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (see `BENCHMARK.json`).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted (timed ops in an end-to-end run, replayed ops in a
    /// traced run).
    pub attempted: u64,
    /// Ops whose output failed an independent check.
    pub failed: u64,
    /// Failures that are not tied to one op (replay fidelity, counter
    /// mismatches), with a one-line reason each.
    pub problems: Vec<String>,
    /// Every metric of the run, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Figures that must repeat exactly for a seed — code-quality sums
    /// and library counters — whether the run is traced or not.
    pub deterministic: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// True when every op passed and no run-level problem was found.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records the library counters of the run as deterministic figures.
    pub fn record_counters(&mut self, counters: &coalesce_stats::Counters) {
        self.deterministic
            .extend(counters.entries().iter().copied());
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("regbench reads per-thread CPU clocks and /proc: it runs on 64-bit Linux");

/// The CPU-time clock of one thread of this process (Linux).  Time the
/// host gives to other processes or virtual machines, steal time
/// included, does not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The clock of whichever thread reads it (`CLOCK_THREAD_CPUTIME_ID`).
    pub const CALLER: CpuClock = CpuClock(3);

    /// The clock of thread `tid` of this process, encoded the way
    /// `pthread_getcpuclockid` encodes it.  The kernel brings a running
    /// thread's time up to date when the clock is read, so the reading is
    /// exact while the thread works on another CPU.
    pub fn of_thread(tid: u32) -> CpuClock {
        const CPUCLOCK_PERTHREAD_SCHED: i32 = 4 | 2;
        CpuClock((!(tid as i32) << 3) | CPUCLOCK_PERTHREAD_SCHED)
    }

    /// The clock of the one thread of this process whose name is `name`,
    /// waiting up to a second for a just-spawned thread to take its name.
    /// `None` when no thread, or more than one, has that name.
    pub fn of_thread_named(name: &str) -> Option<CpuClock> {
        for _ in 0..1000 {
            let mut tids = std::fs::read_dir("/proc/self/task")
                .ok()?
                .flatten()
                .filter(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|comm| comm.trim_end() == name)
                })
                .filter_map(|task| task.file_name().to_str()?.parse().ok());
            match (tids.next(), tids.next()) {
                (Some(tid), None) => return Some(CpuClock::of_thread(tid)),
                (Some(_), Some(_)) => return None,
                (None, _) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        None
    }

    /// CPU time the thread has used so far.
    pub fn now(self) -> Duration {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` of 64-bit Linux.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({}) failed", self.0);
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

/// Runs `f` and returns its result with the CPU time the threads of
/// `clocks` spent while it ran.
pub fn cpu_time<T>(clocks: &[CpuClock], f: impl FnOnce() -> T) -> (T, Duration) {
    let read = || clocks.iter().map(|c| c.now()).sum::<Duration>();
    let start = read();
    let value = f();
    (value, read() - start)
}

/// The probe time, in seconds, that calibrated times are scaled to: about
/// the probe's CPU time on the 2-vCPU x86-64 virtual machine the benchmark
/// was written on, when no other tenant slowed it down.
const PROBE_NOMINAL_S: f64 = 25e-6;

/// Op CPU time between two probes (a probe costs 1-2% of it).
const PROBE_EVERY: Duration = Duration::from_millis(2);

/// Probes per calibration window of the timed phase: about half a second
/// of op time is scaled by the median of the probes run within it.
const WINDOW_PROBES: usize = 256;

/// Probes run before each set-up.
const SETUP_PROBES: usize = 64;

/// A fixed loop that keeps the core busy the way compiled graph and IR
/// code does: four independent arithmetic chains, loads and stores into a
/// 4 KiB table and data-dependent branches.  Its code and data never
/// change, so a change in its CPU time is a change in how fast the host
/// runs this thread.  Over one 150-second run of `module-ssa`, pass times
/// moved with a coefficient of variation of 13% and pass time ÷ probe time
/// with 6%; in another such run a dependent multiply chain, which does not
/// compete for the core's issue slots, left 9% of 12%.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u16>,
    times: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            table: (0..2048u64).map(|i| mix(i) as u16).collect(),
            times: Vec::new(),
        }
    }
}

impl Probe {
    /// Runs the loop once and records its CPU time on the calling thread.
    pub fn run(&mut self) {
        let mask = self.table.len() - 1;
        // A fresh start each run keeps the branch predictor from learning
        // the loop, so back-to-back probes run as slowly as lone ones.
        let seed = mix(self.times.len() as u64);
        let (mut a, mut b) = (seed as u32, (seed >> 32) as u32 | 1);
        let (mut c, mut d, mut acc) = (a >> 3, b >> 5, 0u32);
        let start = CpuClock::CALLER.now();
        for step in 0..3_000u32 {
            a = a.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            b ^= b << 13;
            b ^= b >> 17;
            b ^= b << 5;
            c = c.wrapping_add(step).rotate_left(3);
            d = d.wrapping_mul(22_695_477).wrapping_add(1);
            let (i, j) = ((a >> 20) as usize & mask, (b >> 20) as usize & mask);
            let v = self.table[i].wrapping_add(self.table[j]);
            if v & 1 == 0 {
                acc = acc.wrapping_add(c);
            } else {
                acc ^= d;
            }
            if (a ^ b) & 8 == 0 {
                self.table[i] = v;
            }
            if c & 16 == 0 {
                acc = acc.rotate_left(1);
            }
        }
        std::hint::black_box(acc);
        self.times
            .push((CpuClock::CALLER.now() - start).as_secs_f64());
    }

    /// The factor that scales CPU times measured while probes `range` ran
    /// to the nominal speed: nominal ÷ their median time.
    fn scale(&self, range: std::ops::Range<usize>) -> f64 {
        let mut times = self.times[range].to_vec();
        PROBE_NOMINAL_S / median(&mut times)
    }
}

/// Times repeated set-ups in calibrated CPU time.
#[derive(Debug, Default)]
pub struct SetupTimer {
    probe: Probe,
    times: Vec<f64>,
}

impl SetupTimer {
    /// Runs `setup` once, timed, after [`SETUP_PROBES`] probes.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        (0..SETUP_PROBES).for_each(|_| self.probe.run());
        let (value, took) = cpu_time(&[CpuClock::CALLER], setup);
        self.times.push(took.as_secs_f64());
        value
    }

    /// The median set-up time in seconds, scaled by every probe run.
    pub fn median_s(mut self) -> f64 {
        median(&mut self.times) * self.probe.scale(0..self.probe.times.len())
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median of its
/// calibrated CPU times in seconds together with the last result.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut timer = SetupTimer::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        last = Some(timer.time(&mut setup));
    }
    (timer.median_s(), last.expect("SETUP_REPEATS > 0"))
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed phase of an end-to-end run.
#[derive(Debug)]
pub struct Timed<K> {
    /// What the first pass kept of each input's output, for checking.
    pub first: Vec<K>,
    /// Calibrated CPU time of every op, pass after pass.
    pub latencies: Vec<Duration>,
    runs: Vec<u64>,
    mismatches: Vec<u64>,
}

impl<K> Timed<K> {
    /// Failed ops, given which inputs failed their check: every op on a
    /// bad input, plus later ops whose output differed from the first
    /// pass's.
    pub fn failed(&self, bad: &[bool]) -> u64 {
        bad.iter()
            .zip(self.runs.iter().zip(&self.mismatches))
            .map(|(&bad, (&runs, &mismatches))| if bad { runs } else { mismatches })
            .sum()
    }

    /// Each input's median latency over the passes, in milliseconds.
    pub fn per_input_ms(&self) -> Vec<f64> {
        let n = self.runs.len();
        (0..n)
            .map(|i| {
                let mut times: Vec<f64> = self.latencies[i..]
                    .iter()
                    .step_by(n)
                    .map(|&d| ms(d))
                    .collect();
                median(&mut times)
            })
            .collect()
    }

    /// Starts the run's outcome with the timed op count and pushes the
    /// latency and throughput metrics, all over the per-input medians:
    /// `ops_per_s` is one pass's op count ÷ the sum of its medians.
    pub fn outcome(&self) -> Outcome {
        let mut out = Outcome {
            attempted: self.latencies.len() as u64,
            ..Outcome::default()
        };
        let mut sorted = self.per_input_ms();
        sorted.sort_by(f64::total_cmp);
        let busy_s = sorted.iter().sum::<f64>() / 1e3;
        out.push("ops_per_s", sorted.len() as f64 / busy_s, "ops/s");
        out.push("op_p50_ms", percentile(&sorted, 0.50), "ms");
        out.push("op_p99_ms", percentile(&sorted, 0.99), "ms");
        out
    }
}

/// Runs `op` over `inputs` in whole passes until `seconds` of wall time
/// have elapsed and at least [`MIN_PASSES`] passes and `min_ops` ops are
/// done.  Only `op` is timed: the CPU time of the threads of `clocks`,
/// scaled by the probes of its calibration window.  The first pass's
/// outputs go through `keep`; later outputs are compared with what was
/// kept (`same`) and dropped, so memory does not grow with the op count.
pub fn timed_passes<I, T, K>(
    inputs: &[I],
    clocks: &[CpuClock],
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(&I) -> T,
    mut keep: impl FnMut(T) -> K,
    same: impl Fn(&K, &T) -> bool,
) -> Timed<K> {
    assert!(!inputs.is_empty(), "a workload needs at least one input");
    let n = inputs.len();
    let budget = Duration::from_secs_f64(seconds);
    let (mut runs, mut mismatches) = (vec![0; n], vec![0; n]);
    let mut first = Vec::with_capacity(n);
    let mut latencies = Vec::new();
    let mut probe = Probe::default();
    probe.run();
    // Window `w` holds ops `windows[w].0..` and probes `windows[w].1..`, up
    // to where window `w + 1` starts.
    let mut windows = vec![(0, 0)];
    let mut since_probe = Duration::ZERO;
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || latencies.len() < min_ops || start.elapsed() < budget {
        for (i, input) in inputs.iter().enumerate() {
            let (output, took) = cpu_time(clocks, || op(std::hint::black_box(input)));
            latencies.push(took);
            since_probe += took;
            if since_probe >= PROBE_EVERY {
                since_probe = Duration::ZERO;
                probe.run();
                if probe.times.len() - windows[windows.len() - 1].1 == WINDOW_PROBES {
                    windows.push((latencies.len(), probe.times.len()));
                }
            }
            runs[i] += 1;
            if passes == 0 {
                first.push(keep(output));
            } else if !same(&first[i], &output) {
                mismatches[i] += 1;
            }
        }
        passes += 1;
    }
    probe.run();
    // A short last window joins the one before it.
    if windows.len() > 1 && probe.times.len() - windows[windows.len() - 1].1 < WINDOW_PROBES / 4 {
        windows.pop();
    }
    let ends = windows
        .iter()
        .skip(1)
        .copied()
        .chain([(latencies.len(), probe.times.len())]);
    for (&(op_start, probe_start), (op_end, probe_end)) in windows.iter().zip(ends) {
        let scale = probe.scale(probe_start..probe_end);
        for took in &mut latencies[op_start..op_end] {
            *took = took.mul_f64(scale);
        }
    }
    Timed {
        first,
        latencies,
        runs,
        mismatches,
    }
}

/// Pushes `ok_ratio` (ops that passed every check ÷ ops attempted) and
/// `peak_rss_mb`.
pub fn push_health_metrics(out: &mut Outcome) {
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.push("ok_ratio", ok, "ratio");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Records the loop-weighted move weight left and removed over one pass
/// of the inputs as deterministic figures.
pub fn record_moves(out: &mut Outcome, remaining: u64, coalesced: u64) {
    out.deterministic.extend([
        ("remaining_move_weight", remaining),
        ("coalesced_weight", coalesced),
    ]);
}

/// Records the move weights and pushes the end-to-end code-quality
/// metric `coalesced_weight`.
pub fn push_moves(out: &mut Outcome, remaining: u64, coalesced: u64) {
    record_moves(out, remaining, coalesced);
    out.push("coalesced_weight", coalesced as f64, "weight");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A deterministic 64-bit mix (SplitMix64 finalizer), used to draw the
/// seeded samples of the correctness checks.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// True for the seeded one-in-`stride` sample of item `index`.
pub fn sampled(seed: u64, index: usize, stride: u64) -> bool {
    mix(seed ^ mix(index as u64)).is_multiple_of(stride)
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name, `<layer>.<stage>`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Span duration minus the part covered by child spans, summed.
    pub self_ms: f64,
    /// Full span duration, summed.
    pub total_ms: f64,
    /// Number of spans with this name.
    pub calls: u64,
}

/// An in-memory span recorder for the traced run.  The benchmark wraps
/// each call it makes into a library layer in [`Tracer::span`]; spans
/// nest by dynamic extent and are aggregated (or written out) only after
/// the measured work is done.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<u32>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.get();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        self.open.set(Some(index));
        let result = f();
        self.spans.borrow_mut()[index as usize].end_ns = self.now_ns();
        self.open.set(parent);
        result
    }

    /// Self time, total time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, &children) in spans.iter().zip(&child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.self_ms += duration.saturating_sub(children) as f64 / 1e6;
            entry.total_ms += duration as f64 / 1e6;
            entry.calls += 1;
        }
        totals
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`) file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use coalesce_stats::json::Json;
        let spans = self.spans.borrow();
        let events = spans.iter().map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(1)),
            ])
        });
        let doc = Json::object([("traceEvents", Json::array(events))]);
        std::fs::write(path, doc.to_compact_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::default();
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(5)));
        });
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ms >= 5.0);
        assert!(outer.self_ms < outer.total_ms);
        assert!((outer.total_ms - outer.self_ms - inner.total_ms).abs() < 1e-6);
    }

    #[test]
    fn another_threads_cpu_time_is_read_while_it_runs() {
        let (done, stop) = std::sync::mpsc::channel::<()>();
        let spinner = std::thread::Builder::new()
            .name("regbench-spin".to_string())
            .spawn(move || {
                while stop.try_recv().is_err() {
                    std::hint::spin_loop();
                }
            })
            .expect("spawning a thread");
        let clock = CpuClock::of_thread_named("regbench-spin").expect("one thread of that name");
        std::thread::sleep(Duration::from_millis(30));
        let spun = clock.now();
        done.send(()).expect("spinner is running");
        spinner.join().expect("spinner exits");
        assert!(spun >= Duration::from_millis(5), "read {spun:?}");
        assert!(CpuClock::CALLER.now() > Duration::ZERO);
    }

    #[test]
    fn samples_are_seeded() {
        let picks: Vec<bool> = (0..64).map(|i| sampled(7, i, 4)).collect();
        assert_eq!(picks, (0..64).map(|i| sampled(7, i, 4)).collect::<Vec<_>>());
        assert!(picks.iter().any(|&p| p) && picks.iter().any(|&p| !p));
    }
}
