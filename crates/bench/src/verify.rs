//! Boundary verification harness for the experiment pipelines.
//!
//! `run-experiments --verify <level>` audits the E13–E17 pipelines with
//! the independent checkers of `coalesce-verify`.  The harness never
//! instruments the experiment code: every input is **regenerated** from
//! the same seeds the experiments use (the pipelines are deterministic in
//! the base seed alone), each boundary artifact is rebuilt, and the
//! checker suite compares it against reference reimplementations.  The
//! experiment reports are therefore byte-identical with and without
//! `--verify` by construction — verification runs beside the measured
//! code, not inside it.
//!
//! What each experiment's audit covers:
//!
//! * **E13** — per workload cell: CFG/SSA well-formedness, liveness,
//!   interference, the Theorem 1 certificates (PEO + maximum-clique
//!   witness for ω = `Maxlive`), the tight-`k` spill, and a full
//!   allocation at the tight `k`;
//! * **E14** — per profile: the lowered (spilled, out-of-SSA) instance's
//!   CFG, liveness and Chaitin interference graph;
//! * **E15** — interval rows: certificate checks of the prepared-session
//!   ω against the bulk-built graph; CFG rows: the E13-style audit at
//!   thousands-of-blocks scale (plus the spill boundary under
//!   [`VerifyLevel::Paranoid`]);
//! * **E16** — a deterministic sample of module functions (every 10th
//!   under paranoid, every 25th at boundaries) through the SSA and spill
//!   audits;
//! * **E17** — every grid cell × spiller plus a sample of the module
//!   slice, checking reload placement and the post-spill `Maxlive`
//!   claims.
//!
//! Experiments without a pipeline boundary to audit (E1–E12) return no
//! violations.

use crate::experiments::{module, regalloc, scaling, spillers};
use crate::par::par_map;
use crate::ExperimentId;
use coalesce_alloc::pipeline::{run_allocator_with_artifacts, AllocatorKind};
use coalesce_alloc::CoalescingStrategy;
use coalesce_gen::cfg::{PressureLevel, ShapeProfile};
use coalesce_graph::chordal::{
    chordal_clique_number, chordal_max_clique, perfect_elimination_ordering,
};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{self, tight_k, SpillInput, SpillerKind};
use coalesce_ir::Function;
use coalesce_verify::{
    verify, AllocCtx, ChordalCtx, InterferenceCtx, SpillCtx, VerifyCtx, VerifyLevel, Violation,
};
use std::path::PathBuf;

/// Audits one experiment's pipeline boundaries by regenerating its inputs
/// from `base_seed` and running the `coalesce-verify` suite at `level`.
/// Returns every violation found (empty = clean).
pub fn verify_experiment(
    id: ExperimentId,
    base_seed: u64,
    level: VerifyLevel,
    jobs: usize,
) -> Vec<Violation> {
    if !level.is_on() {
        return Vec::new();
    }
    match id {
        ExperimentId::E13 => verify_e13(base_seed, level, jobs),
        ExperimentId::E14 => verify_e14(base_seed, level, jobs),
        ExperimentId::E15 => verify_e15(base_seed, level, jobs),
        ExperimentId::E16 => verify_e16(base_seed, level, jobs),
        ExperimentId::E17 => verify_e17(base_seed, level, jobs),
        ExperimentId::E18 => verify_e18(base_seed, jobs),
        _ => Vec::new(),
    }
}

/// E18: replay the chaos soak (which re-verifies every answer at the
/// `boundaries` level inside the service) and turn its two pinned
/// invariants — zero verification failures, zero worker deaths — into
/// violations.
fn verify_e18(base_seed: u64, jobs: usize) -> Vec<Violation> {
    let report = crate::experiments::soak::e18_report_with_jobs(base_seed, jobs);
    let summary_u64 = |key: &str| {
        report
            .summary
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    let mut violations = Vec::new();
    let failures = summary_u64("verify_failures");
    if failures > 0 {
        violations.push(Violation::new(
            coalesce_verify::rules::SERVE_RESPONSE_UNVERIFIED,
            "e18",
            format!("{failures} service response(s) failed boundary re-verification"),
        ));
    }
    let workers = summary_u64("workers");
    let clean = summary_u64("clean_worker_exits");
    if clean != workers {
        violations.push(Violation::new(
            coalesce_verify::rules::SERVE_WORKER_DIED,
            "e18",
            format!("{clean}/{workers} workers exited cleanly under fault injection"),
        ));
    }
    violations
}

/// The full SSA-input audit of one analysed function: CFG, SSA, liveness,
/// intersection interference, and the Theorem 1 certificates.
fn audit_ssa_function(site: &str, input: &SpillInput, level: VerifyLevel) -> Vec<Violation> {
    let (f, live) = (input.function(), input.liveness());
    let ig = InterferenceGraph::build_with(
        f,
        live,
        BuildOptions {
            kind: InterferenceKind::Intersection,
            ..BuildOptions::default()
        },
    );
    let peo = perfect_elimination_ordering(&ig.graph);
    let omega = chordal_clique_number(&ig.graph);
    let clique = chordal_max_clique(&ig.graph);
    let mut cx = VerifyCtx::at(level, site);
    cx.function = Some(f);
    cx.liveness = Some(live);
    cx.interference = Some(InterferenceCtx {
        ig: &ig,
        kind: InterferenceKind::Intersection,
    });
    cx.chordal = Some(ChordalCtx {
        graph: &ig.graph,
        peo: peo.as_deref(),
        claimed_omega: omega,
        clique: clique.as_deref(),
    });
    verify(&cx)
}

/// The spill-boundary audit: spill (a clone of) the input to the tight `k`
/// with `sp` and check victim deadness, reload placement and the
/// recomputed `Maxlive` against the pipeline's own claim.
fn audit_spill(
    site: &str,
    input: &SpillInput,
    sp: SpillerKind,
    level: VerifyLevel,
) -> Vec<Violation> {
    let run = input.spill(sp, tight_k(input.maxlive()));
    let live_after = run.liveness_after();
    let claimed = live_after.maxlive_precise(&run.function);
    let mut cx = VerifyCtx::at(level, site);
    cx.function = Some(&run.function);
    cx.liveness = Some(&live_after);
    // The Belady spiller splits live ranges at block boundaries: victims
    // may legitimately stay resident across some edges, and the rewrite
    // does not preserve strict SSA, so only the rewrites built on
    // `spill_everywhere` get the stronger checks.
    let everywhere_rewrite = sp != SpillerKind::Belady;
    cx.assume_ssa = everywhere_rewrite;
    cx.spill = Some(SpillCtx {
        victims: &run.spilled,
        claimed_maxlive: claimed,
        victims_die: everywhere_rewrite,
    });
    verify(&cx)
}

/// Audits every spiller's rewrite of `f`, mirroring the E17 cells.
fn audit_spillers(site: &str, f: &Function, level: VerifyLevel) -> Vec<Violation> {
    let input = SpillInput::analyze(f);
    SpillerKind::ALL
        .into_iter()
        .flat_map(|sp| audit_spill(&format!("{site}/{}", sp.name()), &input, sp, level))
        .collect()
}

/// The allocation-boundary audit: run the SSA-based allocator end to end
/// and check the final (out-of-SSA) function and assignment.
fn audit_alloc(site: &str, f: &Function, k: usize, level: VerifyLevel) -> Vec<Violation> {
    let (_, artifacts) =
        run_allocator_with_artifacts(f, k, AllocatorKind::SsaBased(CoalescingStrategy::Briggs));
    let mut cx = VerifyCtx::at(level, site);
    cx.function = Some(&artifacts.function);
    cx.assume_ssa = false; // the lowered program is out of SSA
    cx.allocation = Some(AllocCtx {
        assignment: &artifacts.assignment,
        k,
    });
    verify(&cx)
}

fn verify_e13(base_seed: u64, level: VerifyLevel, jobs: usize) -> Vec<Violation> {
    let cells: Vec<(ShapeProfile, PressureLevel)> = ShapeProfile::ALL
        .into_iter()
        .flat_map(|p| PressureLevel::ALL.into_iter().map(move |l| (p, l)))
        .collect();
    par_map(&cells, jobs, |&(profile, pressure)| {
        let site = format!("e13/{}/{}", profile.name(), pressure.name());
        let f = regalloc::workload_program(base_seed, profile, pressure);
        let input = SpillInput::analyze(&f);
        let mut out = audit_ssa_function(&site, &input, level);
        let maxlive = input.maxlive();
        let k = tight_k(maxlive);
        if k < maxlive {
            out.extend(audit_spill(
                &format!("{site}/spill"),
                &input,
                SpillerKind::PressureGreedy,
                level,
            ));
        }
        out.extend(audit_alloc(
            &format!("{site}/alloc"),
            &f,
            k.min(maxlive.max(1)),
            level,
        ));
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

fn verify_e14(base_seed: u64, level: VerifyLevel, jobs: usize) -> Vec<Violation> {
    let profiles: Vec<ShapeProfile> = ShapeProfile::ALL.to_vec();
    par_map(&profiles, jobs, |&profile| {
        let site = format!("e14/{}", profile.name());
        let k = 6;
        // Recreate the lowering exactly: generate, spill to k, destruct.
        let mut f = regalloc::e14_program(base_seed, profile);
        spill::spill_to_pressure(&mut f, k);
        coalesce_ir::out_of_ssa::destruct_ssa(&mut f);
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        let mut cx = VerifyCtx::at(level, &site);
        cx.function = Some(&f);
        cx.assume_ssa = false; // post-destruction program
        cx.liveness = Some(&live);
        cx.interference = Some(InterferenceCtx {
            ig: &ig,
            kind: InterferenceKind::Chaitin,
        });
        verify(&cx)
    })
    .into_iter()
    .flatten()
    .collect()
}

fn verify_e15(base_seed: u64, level: VerifyLevel, jobs: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    // Interval rows: re-derive the certificates on the bulk-built graph
    // and check them against a reference adjacency copy.
    let sizes: Vec<usize> = scaling::E15_INTERVAL_SIZES.to_vec();
    let interval: Vec<Vec<Violation>> = par_map(&sizes, jobs, |&n| {
        let site = format!("e15/interval/{n}");
        let graph = scaling::e15_interval_graph(base_seed, n);
        let peo = perfect_elimination_ordering(&graph);
        let omega = chordal_clique_number(&graph);
        let clique = chordal_max_clique(&graph);
        let mut cx = VerifyCtx::at(level, &site);
        cx.chordal = Some(ChordalCtx {
            graph: &graph,
            peo: peo.as_deref(),
            claimed_omega: omega,
            clique: clique.as_deref(),
        });
        verify(&cx)
    });
    out.extend(interval.into_iter().flatten());

    // CFG rows: the full SSA audit at thousands-of-blocks scale (the
    // checkers size-gate their expensive passes at the boundaries level).
    let profiles: Vec<ShapeProfile> = scaling::E15_CFG_PROFILES.to_vec();
    let cfg: Vec<Vec<Violation>> = par_map(&profiles, jobs, |&profile| {
        let site = format!("e15/cfg/{}", profile.name());
        let f = scaling::e15_cfg_program(base_seed, profile);
        let input = SpillInput::analyze(&f);
        let mut row = audit_ssa_function(&site, &input, level);
        if level.is_paranoid() {
            row.extend(audit_spill(
                &format!("{site}/spill"),
                &input,
                SpillerKind::PressureGreedy,
                level,
            ));
        }
        row
    });
    out.extend(cfg.into_iter().flatten());
    out
}

fn verify_e16(base_seed: u64, level: VerifyLevel, jobs: usize) -> Vec<Violation> {
    let stride = if level.is_paranoid() { 10 } else { 25 };
    let specs: Vec<(usize, coalesce_gen::module::FunctionSpec)> = module::e16_specs(base_seed)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .collect();
    par_map(&specs, jobs, |(i, spec)| {
        let site = format!("e16/fn{i}");
        let f = spec.generate();
        let input = SpillInput::analyze(&f);
        let mut out = audit_ssa_function(&site, &input, level);
        out.extend(audit_spill(
            &format!("{site}/spill"),
            &input,
            SpillerKind::PressureGreedy,
            level,
        ));
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

fn verify_e17(base_seed: u64, level: VerifyLevel, jobs: usize) -> Vec<Violation> {
    // The grid: every (profile, pressure) cell plus the windowed one,
    // raced through every spiller — exactly the experiment's inputs.
    let mut cells: Vec<(String, Option<(ShapeProfile, PressureLevel)>)> = ShapeProfile::ALL
        .into_iter()
        .flat_map(|p| {
            PressureLevel::ALL
                .into_iter()
                .map(move |l| (format!("e17/{}/{}", p.name(), l.name()), Some((p, l))))
        })
        .collect();
    cells.push(("e17/windowed".to_string(), None));
    let grid: Vec<Vec<Violation>> = par_map(&cells, jobs, |(site, cell)| {
        let f = match cell {
            Some((p, l)) => regalloc::workload_program(base_seed, *p, *l),
            None => spillers::windowed_program(base_seed),
        };
        audit_spillers(site, &f, level)
    });
    let mut out: Vec<Violation> = grid.into_iter().flatten().collect();

    // Module slice: a deterministic sample of the raced prefix.
    let stride = if level.is_paranoid() { 15 } else { 50 };
    let specs: Vec<(usize, coalesce_gen::module::FunctionSpec)> = module::e16_specs(base_seed)
        .into_iter()
        .take(spillers::E17_MODULE_FUNCTIONS)
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .collect();
    let slice: Vec<Vec<Violation>> = par_map(&specs, jobs, |(i, spec)| {
        audit_spillers(&format!("e17/module/fn{i}"), &spec.generate(), level)
    });
    out.extend(slice.into_iter().flatten());
    out
}

/// Re-parses each corpus instance file independently of the streamed
/// pipeline and audits the chordality certificates (PEO witness, ω clique
/// witness) that the corpus rows claim.  Returns per-file violations for
/// files that yield any.
pub fn verify_corpus(paths: &[PathBuf], level: VerifyLevel) -> Vec<(PathBuf, Vec<Violation>)> {
    if !level.is_on() {
        return Vec::new();
    }
    paths
        .iter()
        .filter_map(|path| {
            let graph = parse_instance_graph(path)?;
            let site = format!("corpus/{}", path.display());
            let peo = perfect_elimination_ordering(&graph);
            let omega = chordal_clique_number(&graph);
            if peo.is_none() && omega.is_none() {
                return None; // non-chordal instance: nothing certified
            }
            let clique = chordal_max_clique(&graph);
            let mut cx = VerifyCtx::at(level, &site);
            cx.chordal = Some(ChordalCtx {
                graph: &graph,
                peo: peo.as_deref(),
                claimed_omega: omega,
                clique: clique.as_deref(),
            });
            let violations = verify(&cx);
            (!violations.is_empty()).then(|| (path.clone(), violations))
        })
        .collect()
}

/// Parses one instance file the same way the corpus runner does, without
/// touching its row pipeline.
fn parse_instance_graph(path: &std::path::Path) -> Option<coalesce_graph::Graph> {
    let text = std::fs::read_to_string(path).ok()?;
    let dimacs = matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("col" | "dimacs")
    );
    if dimacs {
        coalesce_graph::format::from_dimacs(&text).ok()
    } else {
        coalesce_graph::format::from_challenge(&text)
            .ok()
            .map(|file| file.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_skips_all_work() {
        assert!(verify_experiment(ExperimentId::E13, 0, VerifyLevel::Off, 1).is_empty());
        assert!(verify_corpus(&[], VerifyLevel::Off).is_empty());
    }

    #[test]
    fn non_pipeline_experiments_have_no_boundaries() {
        assert!(verify_experiment(ExperimentId::E1, 0, VerifyLevel::Paranoid, 1).is_empty());
    }

    #[test]
    fn e13_single_cell_audit_is_clean() {
        let f = regalloc::workload_program(42, ShapeProfile::IntBranchy, PressureLevel::Low);
        let violations =
            audit_ssa_function("test/e13", &SpillInput::analyze(&f), VerifyLevel::Paranoid);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
