//! E17 — rival spilling strategies head-to-head.
//!
//! PR 7 grew the first phase of the two-phase allocator into a *strategy
//! zoo* ([`SpillerKind`]): the naive spill-everywhere baseline, the
//! sublinear pressure-greedy spiller, and the Braun–Hack-style Belady MIN
//! spiller with next-use distances and block-boundary live-range
//! splitting.  This experiment races the three over
//!
//! * the full **E13 workload grid** — every [`ShapeProfile`] ×
//!   [`PressureLevel`] cell, regenerated with [`regalloc::workload_program`]
//!   so the inputs are byte-identical to E13's;
//! * one **windowed cell** — the `FpLoopNest` × `Medium` shape regenerated
//!   with `reuse_window = 3`, which shortens next-use distances and gives
//!   the Belady heuristic locality to exploit;
//! * a **module slice** — the first [`E17_MODULE_FUNCTIONS`] functions of
//!   the E16 module, aggregated per spiller.
//!
//! Every row reports the loop-weighted spill weight (`Σ` pre-spill
//! [`spill_costs`] over the victims), the reload temporaries the
//! rewrite inserted and the precise `Maxlive` after spilling.  Wall clock
//! is *summary-only*: one `<spiller>_elapsed_ms` counter per strategy,
//! dropped by [`mask_timing`] wherever reports are compared, so the
//! report stays byte-identical for every `--jobs` value.
//!
//! [`regalloc::workload_program`]: crate::experiments::regalloc::workload_program
//! [`spill_costs`]: coalesce_ir::spill::spill_costs
//! [`mask_timing`]: crate::report::mask_timing

use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_gen::cfg::{generate, PressureLevel, ShapeProfile};
use coalesce_ir::spill::{tight_k, SpillInput, SpillerKind};
use coalesce_ir::Function;

use super::{module, regalloc};

/// Functions of the E16 module raced through every spiller (the full
/// 1000-function module would dominate the run; a fixed prefix keeps the
/// experiment inside its budget while still sampling every profile ×
/// pressure mix).
pub const E17_MODULE_FUNCTIONS: usize = 150;

/// `reuse_window` of the windowed grid cell.
pub const E17_REUSE_WINDOW: usize = 3;

/// The windowed-cell program: the `FpLoopNest` × `Medium` shape with
/// `reuse_window = 3` (seeded by `base_seed + 1700`), so operands are
/// drawn from the most recent defs and next-use distances stay short.
pub fn windowed_program(base_seed: u64) -> Function {
    let mut params = ShapeProfile::FpLoopNest.params(PressureLevel::Medium.pressure());
    params.reuse_window = E17_REUSE_WINDOW;
    generate(&params, &mut coalesce_gen::rng(base_seed + 1700))
}

/// Deterministic result of one spiller on one input function, plus the
/// measured wall clock of the spill call (summary-only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E17CellStats {
    /// The strategy that produced the row.
    pub spiller: SpillerKind,
    /// Precise `Maxlive` of the input.
    pub maxlive: usize,
    /// The register bound the spiller was asked to reach ([`tight_k`], the
    /// E16 convention).
    pub k: usize,
    /// Variables the strategy spilled.
    pub spilled: usize,
    /// Reload temporaries the rewrite inserted.
    pub reloads: usize,
    /// `Σ` pre-spill [`spill_costs`] over the victims.
    ///
    /// [`spill_costs`]: coalesce_ir::spill::spill_costs
    pub spill_weight: u64,
    /// Precise `Maxlive` after the rewrite.
    pub maxlive_after: usize,
    /// Measured spill-call wall clock in nanoseconds.  **Not** part of any
    /// report row — aggregated into the summary's perf counters only.
    pub elapsed_nanos: u64,
    /// Pass counters of the cell's analyses and spill call (deterministic,
    /// unlike `elapsed_nanos` — these do ride in the rows).
    pub counters: coalesce_stats::Counters,
}

/// Runs one spiller on (a clone of) `f` at the E16-convention `k` and
/// packages the deterministic statistics.
pub fn e17_cell_stats(f: &Function, spiller: SpillerKind) -> E17CellStats {
    let _span = coalesce_stats::span!("e17/cell");
    let ((run, elapsed_nanos, maxlive_after), counters) = coalesce_stats::collect(|| {
        let input = SpillInput::analyze(f);
        let started = std::time::Instant::now();
        let run = input.spill(spiller, tight_k(input.maxlive()));
        let elapsed_nanos = started.elapsed().as_nanos() as u64;
        let maxlive_after = run.maxlive_after();
        (run, elapsed_nanos, maxlive_after)
    });
    E17CellStats {
        spiller,
        maxlive: run.maxlive,
        k: run.k,
        spilled: run.spilled.len(),
        reloads: run.reloads,
        spill_weight: run.spill_weight,
        maxlive_after,
        elapsed_nanos,
        counters,
    }
}

/// One grid work unit: a (profile, pressure) cell, optionally windowed.
#[derive(Debug, Clone, Copy)]
struct GridCell {
    profile: ShapeProfile,
    pressure: PressureLevel,
    reuse_window: usize,
}

impl GridCell {
    fn program(&self, base_seed: u64) -> Function {
        if self.reuse_window == 0 {
            regalloc::workload_program(base_seed, self.profile, self.pressure)
        } else {
            windowed_program(base_seed)
        }
    }
}

fn grid_cells() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for profile in ShapeProfile::ALL {
        for pressure in PressureLevel::ALL {
            cells.push(GridCell {
                profile,
                pressure,
                reuse_window: 0,
            });
        }
    }
    cells.push(GridCell {
        profile: ShapeProfile::FpLoopNest,
        pressure: PressureLevel::Medium,
        reuse_window: E17_REUSE_WINDOW,
    });
    cells
}

fn grid_row_json(cell: &GridCell, f: &Function, s: &E17CellStats) -> Json {
    Json::object([
        ("scope", Json::from("grid")),
        ("spiller", Json::from(s.spiller.name())),
        ("profile", Json::from(cell.profile.name())),
        ("pressure", Json::from(cell.pressure.name())),
        ("reuse_window", Json::from(cell.reuse_window)),
        ("blocks", Json::from(f.num_blocks())),
        ("vars", Json::from(f.num_vars())),
        ("maxlive", Json::from(s.maxlive)),
        ("k", Json::from(s.k)),
        ("spilled", Json::from(s.spilled)),
        ("reloads", Json::from(s.reloads)),
        ("spill_weight", Json::from(s.spill_weight)),
        ("maxlive_after", Json::from(s.maxlive_after)),
        ("stats", Json::counters(&s.counters)),
    ])
}

/// Aggregate of one spiller over the module slice.
#[derive(Debug, Clone, Default)]
struct ModuleAgg {
    functions: usize,
    spilled: usize,
    reloads: usize,
    spill_weight: u64,
    within_k: usize,
    elapsed_nanos: u64,
    counters: coalesce_stats::Counters,
}

impl ModuleAgg {
    fn add(&mut self, s: &E17CellStats) {
        self.functions += 1;
        self.spilled += s.spilled;
        self.reloads += s.reloads;
        self.spill_weight += s.spill_weight;
        self.within_k += usize::from(s.maxlive_after <= s.k);
        self.elapsed_nanos += s.elapsed_nanos;
        self.counters.merge(&s.counters);
    }
}

/// Runs E17 with the grid cells and module functions fanned over `jobs`
/// workers.  Work units come back in input order before aggregation, so
/// every deterministic field of the report is byte-identical for any
/// `jobs` value; only the summary's measured `*_elapsed_ms` counters vary.
pub fn e17_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let started = std::time::Instant::now();
    let mut per_spiller_nanos = [0u64; SpillerKind::ALL.len()];
    let mut per_spiller_weight = [0u64; SpillerKind::ALL.len()];

    // Grid sweep: each work unit regenerates its program (deterministic in
    // the seed alone, so it can run on any worker) and races the zoo.
    let cells = grid_cells();
    let cell_results: Vec<(Function, Vec<E17CellStats>)> = par_map(&cells, jobs, |cell| {
        let f = cell.program(base_seed);
        let stats = SpillerKind::ALL
            .iter()
            .map(|&sp| e17_cell_stats(&f, sp))
            .collect();
        (f, stats)
    });
    let mut rows = Vec::new();
    for (cell, (f, stats)) in cells.iter().zip(&cell_results) {
        for (i, s) in stats.iter().enumerate() {
            rows.push(grid_row_json(cell, f, s));
            per_spiller_nanos[i] += s.elapsed_nanos;
            per_spiller_weight[i] += s.spill_weight;
        }
    }

    // Module slice: a fixed prefix of the E16 module, aggregated per
    // spiller in spec order.
    let specs: Vec<_> = module::e16_specs(base_seed)
        .into_iter()
        .take(E17_MODULE_FUNCTIONS)
        .collect();
    let module_stats: Vec<Vec<E17CellStats>> = par_map(&specs, jobs, |spec| {
        let f = spec.generate();
        SpillerKind::ALL
            .iter()
            .map(|&sp| e17_cell_stats(&f, sp))
            .collect()
    });
    let mut aggs: [ModuleAgg; SpillerKind::ALL.len()] =
        std::array::from_fn(|_| ModuleAgg::default());
    for per_fn in &module_stats {
        for (i, s) in per_fn.iter().enumerate() {
            aggs[i].add(s);
        }
    }
    for (i, spiller) in SpillerKind::ALL.into_iter().enumerate() {
        let a = &aggs[i];
        per_spiller_nanos[i] += a.elapsed_nanos;
        per_spiller_weight[i] += a.spill_weight;
        rows.push(Json::object([
            ("scope", Json::from("module")),
            ("spiller", Json::from(spiller.name())),
            ("functions", Json::from(a.functions)),
            ("spilled", Json::from(a.spilled)),
            ("reloads", Json::from(a.reloads)),
            ("spill_weight", Json::from(a.spill_weight)),
            ("within_k", Json::from(a.within_k)),
            ("stats", Json::counters(&a.counters)),
        ]));
    }

    let mut summary = vec![
        ("grid_cells".to_owned(), Json::from(cells.len())),
        ("module_functions".to_owned(), Json::from(specs.len())),
    ];
    for (i, spiller) in SpillerKind::ALL.into_iter().enumerate() {
        summary.push((
            format!("{}_spill_weight", spiller.name()),
            Json::from(per_spiller_weight[i]),
        ));
    }
    let mut totals = coalesce_stats::Counters::default();
    for (_, stats) in &cell_results {
        for s in stats {
            totals.merge(&s.counters);
        }
    }
    for a in &aggs {
        totals.merge(&a.counters);
    }
    summary.push(("stats".to_owned(), Json::counters(&totals)));
    // Measured, not deterministic: dropped by `report::mask_timing`.
    for (i, spiller) in SpillerKind::ALL.into_iter().enumerate() {
        summary.push((
            format!("{}_elapsed_ms", spiller.name()),
            Json::from(per_spiller_nanos[i] / 1_000_000),
        ));
    }
    summary.push((
        "elapsed_ms".to_owned(),
        Json::from(started.elapsed().as_millis() as u64),
    ));

    ExperimentReport {
        id: ExperimentId::E17,
        title: ExperimentId::E17.title(),
        base_seed,
        rows,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_stats_are_deterministic_per_spiller() {
        let f = regalloc::workload_program(0, ShapeProfile::IntBranchy, PressureLevel::High);
        for spiller in SpillerKind::ALL {
            let mut a = e17_cell_stats(&f, spiller);
            let mut b = e17_cell_stats(&f, spiller);
            // Only the measured wall clock may differ between runs.
            a.elapsed_nanos = 0;
            b.elapsed_nanos = 0;
            assert_eq!(a, b, "{} must be deterministic", spiller.name());
            assert!(a.spilled > 0, "a High-pressure cell must force spills");
            assert!(
                a.maxlive_after <= a.maxlive,
                "{} must not raise Maxlive",
                spiller.name()
            );
        }
    }

    #[test]
    fn windowed_cell_differs_from_the_default_grid_cell() {
        // Same shape parameters and seed, window on vs off: the operand
        // choices (and through the shared RNG stream, possibly the shape)
        // must differ, and both programs must be well-formed.
        let params = ShapeProfile::FpLoopNest.params(PressureLevel::Medium.pressure());
        let plain = generate(&params, &mut coalesce_gen::rng(1700));
        let windowed = windowed_program(0);
        assert!(plain.validate().is_ok());
        assert!(windowed.validate().is_ok());
        assert_ne!(
            format!("{plain:?}"),
            format!("{windowed:?}"),
            "reuse_window = 3 must reshape operand choices"
        );
    }

    #[test]
    fn grid_covers_every_cell_plus_the_windowed_one() {
        let cells = grid_cells();
        assert_eq!(
            cells.len(),
            ShapeProfile::ALL.len() * PressureLevel::ALL.len() + 1
        );
        assert_eq!(cells.last().unwrap().reuse_window, E17_REUSE_WINDOW);
    }
}
