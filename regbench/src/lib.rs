//! The repository benchmark: module-level compile time and code quality
//! of the coalescing allocators, plus a replay through the allocation
//! service, with a traced run that splits the time by layer.
//!
//! See `README.md` in this directory for the metric table, the workloads
//! and how to run them.

pub mod chordal;
pub mod layers;
pub mod measure;
pub mod module;
pub mod serve;

use measure::{Outcome, Tracer};

/// The recorded default workload seed.
pub const DEFAULT_SEED: u64 = 42;

/// A second seed, held out while the benchmark was written, for checking
/// that a claimed gain is not tuned to the default seed.
pub const HELD_OUT_SEED: u64 = 20_070_311;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two-phase SSA allocation of every module function at `k = 12`.
    ModuleSsa,
    /// Chaitin–Briggs allocation of every module function at `k = 12`.
    ModuleChaitin,
    /// Theorem-5 coalescing of each module function's chordal graph.
    ModuleChordal,
    /// Closed-loop replay of a request trace through the service.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ModuleSsa,
        Workload::ModuleChaitin,
        Workload::ModuleChordal,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ModuleSsa => "module-ssa",
            Workload::ModuleChaitin => "module-chaitin",
            Workload::ModuleChordal => "module-chordal",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input size of one pass: functions in the module, or requests in
    /// the trace.
    pub fn default_size(self) -> usize {
        match self {
            Workload::ModuleSsa => 4000,
            Workload::ModuleChaitin => 1000,
            Workload::ModuleChordal => 4000,
            Workload::ServeMixed => 6000,
        }
    }

    /// The end-to-end run: set up, time whole passes of ops for `seconds`
    /// (at least three passes and `min_ops` ops), then check every output.
    pub fn run(self, seed: u64, seconds: f64, min_ops: usize, size: usize) -> Outcome {
        match self {
            Workload::ModuleSsa => {
                module::run(module::Allocator::Ssa, seed, seconds, min_ops, size)
            }
            Workload::ModuleChaitin => {
                module::run(module::Allocator::Chaitin, seed, seconds, min_ops, size)
            }
            Workload::ModuleChordal => chordal::run(seed, seconds, min_ops, size),
            Workload::ServeMixed => serve::run(seed, seconds, min_ops, size),
        }
    }

    /// The traced run: one pass of the same inputs, replayed stage by
    /// stage inside the benchmark's spans.
    pub fn run_traced(self, seed: u64, size: usize, tracer: &Tracer) -> Outcome {
        match self {
            Workload::ModuleSsa => module::run_traced(module::Allocator::Ssa, seed, size, tracer),
            Workload::ModuleChaitin => {
                module::run_traced(module::Allocator::Chaitin, seed, size, tracer)
            }
            Workload::ModuleChordal => chordal::run_traced(seed, size, tracer),
            Workload::ServeMixed => serve::run_traced(seed, size, tracer),
        }
    }
}
