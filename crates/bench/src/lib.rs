//! Reusable experiment library for the CGO'07 register-coalescing
//! reproduction.
//!
//! The E1–E15 experiments (instance generation, exact-vs-heuristic
//! comparison, gap and table computation) live here as ordinary library
//! functions returning structured [`report::ExperimentReport`]s, so that
//! three consumers share one implementation:
//!
//! * the `run-experiments` CLI binary, which runs any experiment
//!   deterministically and serializes the report as JSON;
//! * tests, which pin the paper's equivalences (e.g. E1's *min multiway
//!   cut = optimal aggressive uncoalesced count*) on fixed seeds.
//!
//! Everything is seed-deterministic: the same experiment id and base seed
//! produce byte-identical JSON on every run.

#![warn(missing_docs)]

pub mod corpus;
pub mod experiments;
pub mod par;
pub mod report;
pub mod verify;

pub use coalesce_stats::json;
pub use corpus::{run_corpus, CorpusConfig, CorpusSummary};
pub use experiments::{
    run_experiment, run_experiment_filtered, run_experiment_with_jobs, run_reports,
    run_reports_filtered, ExperimentId,
};
pub use json::Json;
pub use report::ExperimentReport;
