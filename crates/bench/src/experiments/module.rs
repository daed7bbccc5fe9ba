//! E16 — whole-module parallel allocation over the flat IR.
//!
//! The compact IR exists so that allocator-scale workloads are
//! *modules*, not single functions: a [`coalesce_gen::module`] translation
//! unit of 1000 functions (profile × pressure × size drawn per function
//! from one seeded mix) is generated, analysed and spilled to a tight `k`,
//! with the per-function work fanned over the scoped worker pool.  Each
//! [`FunctionSpec`] carries an independent seed, so the fan-out is
//! embarrassingly parallel and the report is **byte-identical for every
//! `--jobs` value**: all row fields are deterministic integers, aggregated
//! in a fixed profile × pressure order.
//!
//! The two measured throughput quantities (`functions_per_sec`,
//! `elapsed_ms`) live only in the summary; [`mask_timing`] drops them
//! from every comparison, and `bench-diff` flags a functions/sec
//! collapse against the baseline.
//!
//! [`mask_timing`]: crate::report::mask_timing

use crate::json::Json;
use crate::par::par_map;
use crate::report::ExperimentReport;
use crate::ExperimentId;
use coalesce_gen::cfg::{PressureLevel, ShapeProfile};
use coalesce_gen::module::{module_specs, FunctionSpec, ModuleParams};
use coalesce_ir::spill::{tight_k, SpillInput, SpillerKind};
use coalesce_ir::ssa;

/// Number of functions in the E16 module.
pub const E16_FUNCTIONS: usize = 1000;

/// The specs of the E16 module (seeded by `base_seed + 1600`); the budget
/// test builds its instances here, so the timed code path is exactly the
/// reported one.
pub fn e16_specs(base_seed: u64) -> Vec<FunctionSpec> {
    module_specs(
        &ModuleParams {
            functions: E16_FUNCTIONS,
        },
        base_seed + 1600,
    )
}

/// Deterministic per-function allocation statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E16FnStats {
    /// Shape profile drawn for the function.
    pub profile: ShapeProfile,
    /// Pressure level drawn for the function.
    pub pressure: PressureLevel,
    /// Instructions (φs and bodies, terminators excluded).
    pub instrs: usize,
    /// Layout footprint of the function in bytes ([`ir_bytes`]).
    ///
    /// [`ir_bytes`]: coalesce_ir::Function::ir_bytes
    pub ir_bytes: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Variables before spilling.
    pub vars: usize,
    /// φ-functions.
    pub phis: usize,
    /// The generated function is strict SSA.
    pub strict_ssa: bool,
    /// Precise `Maxlive`.
    pub maxlive: usize,
    /// The tight register count the function was spilled to.
    pub k: usize,
    /// Variables spilled by `spill_to_pressure` at `k`.
    pub spilled: usize,
    /// Reload temporaries the rewrite inserted.
    pub reloads: usize,
    /// Total spill cost (`Σ 10^depth` store/reload weight) of the victims.
    pub spill_weight: u64,
    /// Pass counters of the function's analyses and spill (deterministic
    /// in the spec alone, like every other field).
    pub counters: coalesce_stats::Counters,
}

/// Generates, analyses and spills one module function.  Deterministic in
/// the spec alone, so it can run on any worker thread.
pub fn e16_fn_stats(spec: &FunctionSpec) -> E16FnStats {
    let _span = coalesce_stats::span!("e16/function");
    let f = spec.generate();
    let (run, counters) = coalesce_stats::collect(|| {
        let input = SpillInput::analyze(&f);
        input.spill(SpillerKind::PressureGreedy, tight_k(input.maxlive()))
    });
    E16FnStats {
        profile: spec.profile,
        pressure: spec.pressure,
        instrs: f.num_instrs_total(),
        ir_bytes: f.ir_bytes(),
        blocks: f.num_blocks(),
        vars: f.num_vars(),
        phis: f.num_phis(),
        strict_ssa: ssa::is_strict(&f),
        maxlive: run.maxlive,
        k: run.k,
        spilled: run.spilled.len(),
        reloads: run.reloads,
        spill_weight: run.spill_weight,
        counters,
    }
}

/// One aggregate row: every module function of one profile × pressure
/// cell, summed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct E16Row {
    /// Functions in the cell.
    pub functions: usize,
    /// Total instructions.
    pub instrs: usize,
    /// Total layout bytes.
    pub ir_bytes: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Total variables.
    pub vars: usize,
    /// Total φ-functions.
    pub phis: usize,
    /// Total spilled variables.
    pub spilled: usize,
    /// Total reload temporaries.
    pub reloads: usize,
    /// Total spill weight.
    pub spill_weight: u64,
    /// Merged pass counters of the cell's functions.
    pub counters: coalesce_stats::Counters,
}

impl E16Row {
    fn add(&mut self, s: &E16FnStats) {
        self.functions += 1;
        self.instrs += s.instrs;
        self.ir_bytes += s.ir_bytes;
        self.blocks += s.blocks;
        self.vars += s.vars;
        self.phis += s.phis;
        self.spilled += s.spilled;
        self.reloads += s.reloads;
        self.spill_weight += s.spill_weight;
        self.counters.merge(&s.counters);
    }

    /// Layout bytes per instruction × 100 (fixed-point, two decimals), so
    /// the footprint rides in the report without float formatting.
    pub fn bytes_per_instr_x100(&self) -> u64 {
        if self.instrs == 0 {
            0
        } else {
            (self.ir_bytes as u64 * 100) / self.instrs as u64
        }
    }
}

fn row_json(profile: ShapeProfile, pressure: PressureLevel, r: &E16Row) -> Json {
    Json::object([
        ("profile", Json::from(profile.name())),
        ("pressure", Json::from(pressure.name())),
        ("functions", Json::from(r.functions)),
        ("instrs", Json::from(r.instrs)),
        ("ir_bytes", Json::from(r.ir_bytes)),
        ("bytes_per_instr_x100", Json::from(r.bytes_per_instr_x100())),
        ("blocks", Json::from(r.blocks)),
        ("vars", Json::from(r.vars)),
        ("phis", Json::from(r.phis)),
        ("spilled", Json::from(r.spilled)),
        ("reloads", Json::from(r.reloads)),
        ("spill_weight", Json::from(r.spill_weight)),
        ("stats", Json::counters(&r.counters)),
    ])
}

/// Runs E16 with the per-function work fanned over `jobs` workers.
///
/// The specs are drawn serially (cheap), the functions are processed in
/// parallel, and the stats come back in module order before aggregation,
/// so every deterministic field of the report is byte-identical for any
/// `jobs` value; only the summary's two throughput counters vary.
pub fn e16_report_with_jobs(base_seed: u64, jobs: usize) -> ExperimentReport {
    let specs = e16_specs(base_seed);
    let started = std::time::Instant::now();
    let stats: Vec<E16FnStats> = par_map(&specs, jobs, e16_fn_stats);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    // Aggregate in the fixed profile × pressure sweep order.
    let mut rows = Vec::new();
    let mut strict_ssa_all = true;
    let mut totals = E16Row::default();
    for s in &stats {
        strict_ssa_all &= s.strict_ssa;
        totals.add(s);
    }
    for profile in ShapeProfile::ALL {
        for pressure in PressureLevel::ALL {
            let mut cell = E16Row::default();
            for s in stats
                .iter()
                .filter(|s| s.profile == profile && s.pressure == pressure)
            {
                cell.add(s);
            }
            rows.push(row_json(profile, pressure, &cell));
        }
    }

    let functions_per_sec = (totals.functions as u64 * 1000) / elapsed_ms.max(1);
    ExperimentReport {
        id: ExperimentId::E16,
        title: ExperimentId::E16.title(),
        base_seed,
        rows,
        summary: vec![
            ("functions".into(), Json::from(totals.functions)),
            ("total_instrs".into(), Json::from(totals.instrs)),
            ("total_ir_bytes".into(), Json::from(totals.ir_bytes)),
            (
                "bytes_per_instr_x100".into(),
                Json::from(totals.bytes_per_instr_x100()),
            ),
            ("total_spilled".into(), Json::from(totals.spilled)),
            ("total_reloads".into(), Json::from(totals.reloads)),
            (
                "aggregate_spill_weight".into(),
                Json::from(totals.spill_weight),
            ),
            ("strict_ssa_all".into(), Json::from(strict_ssa_all)),
            ("stats".into(), Json::counters(&totals.counters)),
            // Measured, not deterministic: dropped by
            // `report::mask_timing`, floor-guarded by `bench-diff`.
            ("functions_per_sec".into(), Json::from(functions_per_sec)),
            ("elapsed_ms".into(), Json::from(elapsed_ms)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_stats_are_deterministic_and_consistent() {
        let specs = e16_specs(0);
        assert_eq!(specs.len(), E16_FUNCTIONS);
        let s1 = e16_fn_stats(&specs[0]);
        let s2 = e16_fn_stats(&specs[0]);
        assert_eq!(s1, s2);
        assert!(s1.strict_ssa);
        assert!(s1.instrs > 0);
        assert!(s1.ir_bytes >= s1.instrs * 16);
        assert!(s1.k >= 3);
    }

    #[test]
    fn rows_cover_the_full_profile_pressure_grid() {
        // A tiny module exercises the aggregation without the full sweep.
        let specs = module_specs(&ModuleParams { functions: 60 }, 1600);
        let stats: Vec<E16FnStats> = specs.iter().map(e16_fn_stats).collect();
        let mut total = 0;
        for profile in ShapeProfile::ALL {
            for pressure in PressureLevel::ALL {
                total += stats
                    .iter()
                    .filter(|s| s.profile == profile && s.pressure == pressure)
                    .count();
            }
        }
        assert_eq!(total, 60, "every function lands in exactly one cell");
    }

    #[test]
    fn bytes_per_instr_fixed_point_rounds_down() {
        let row = E16Row {
            functions: 1,
            instrs: 3,
            ir_bytes: 50,
            ..Default::default()
        };
        assert_eq!(row.bytes_per_instr_x100(), 1666);
        assert_eq!(E16Row::default().bytes_per_instr_x100(), 0);
    }
}
