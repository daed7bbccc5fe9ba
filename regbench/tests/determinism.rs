//! Determinism guard: on reduced inputs, the figures that must repeat
//! exactly for a seed — code-quality sums, the degradation count and the
//! library counters — are identical across repeated runs and between
//! the end-to-end and the traced run, and every check passes.

use regbench::measure::Tracer;
use regbench::Workload;
use std::sync::Mutex;

const SEED: u64 = regbench::DEFAULT_SEED;

/// The serve workload finds its worker thread by name, so no two tests may
/// run a server at once.
static ONE_SERVER: Mutex<()> = Mutex::new(());

fn assert_deterministic(workload: Workload, size: usize, min_ops: usize) {
    let _server = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let runs = [
        workload.run(SEED, 0.0, min_ops, size),
        workload.run(SEED, 0.0, min_ops, size),
    ];
    let traced = [
        workload.run_traced(SEED, size, &Tracer::default()),
        workload.run_traced(SEED, size, &Tracer::default()),
    ];
    for outcome in runs.iter().chain(&traced) {
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert!(outcome.attempted >= size as u64);
    }
    assert!(!runs[0].deterministic.is_empty());
    assert_eq!(runs[0].deterministic, runs[1].deterministic);
    assert_eq!(traced[0].deterministic, traced[1].deterministic);
    for (name, value) in &runs[0].deterministic {
        assert_eq!(
            traced[0].deterministic.get(name),
            Some(value),
            "{}: `{name}` differs between the traced and the untraced run",
            workload.name()
        );
    }
    // The traced run also carries the library counters.
    assert!(traced[0].deterministic.len() > runs[0].deterministic.len());
}

#[test]
fn module_ssa_is_deterministic() {
    assert_deterministic(Workload::ModuleSsa, 60, 60);
}

#[test]
fn module_chaitin_is_deterministic() {
    assert_deterministic(Workload::ModuleChaitin, 24, 24);
}

#[test]
fn module_chordal_is_deterministic() {
    assert_deterministic(Workload::ModuleChordal, 60, 60);
}

#[test]
fn serve_mixed_is_deterministic() {
    assert_deterministic(Workload::ServeMixed, 120, 120);
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let _server = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let outcome = workload.run_traced(SEED, 12, &Tracer::default());
        for (name, _) in regbench::layers::PER_LAYER {
            assert!(
                outcome.metrics.iter().any(|m| m.name == *name),
                "{}: missing `{name}`",
                workload.name()
            );
        }
    }
}
