//! Module-scale workloads: many functions drawn from a seeded profile mix.
//!
//! Real allocator benchmarks (SPEC builds, browser translation units)
//! present the allocator with *modules* of hundreds to thousands of small
//! and medium functions, not one large CFG.  This generator models that
//! shape: [`module_specs`] draws a per-function [`ShapeProfile`] ×
//! [`PressureLevel`] × size mix from one seeded stream, and each resulting
//! [`FunctionSpec`] carries its own derived seed so the actual function
//! bodies can be generated *independently* — in any order, on any thread —
//! without perturbing each other.  This is what lets the E16 experiment fan
//! whole-module allocation over a scoped thread pool and still produce
//! byte-identical output for any `--jobs` value.

use crate::cfg::{self, CfgParams, PressureLevel, ShapeProfile};
use coalesce_ir::function::Function;
use rand::{Rng, RngCore};

/// Parameters of the module generator.
#[derive(Debug, Clone, Copy)]
pub struct ModuleParams {
    /// Number of functions in the module.
    pub functions: usize,
}

impl Default for ModuleParams {
    fn default() -> Self {
        ModuleParams { functions: 1000 }
    }
}

/// A fully determined recipe for one function of a module.
///
/// The spec is cheap to produce (no IR is built) and self-contained:
/// [`FunctionSpec::generate`] depends only on the spec's own fields, so
/// specs can be fanned out to worker threads while the serial drawing in
/// [`module_specs`] fixes the mix once up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionSpec {
    /// Position of the function within the module.
    pub index: usize,
    /// Shape profile drawn for this function.
    pub profile: ShapeProfile,
    /// Pressure level drawn for this function.
    pub pressure: PressureLevel,
    /// Number of top-level regions (function size class, 1–3).
    pub regions: usize,
    /// Independent seed for the function body.
    pub seed: u64,
}

impl FunctionSpec {
    /// The CFG-generator parameters for this spec: the profile's params at
    /// the drawn pressure, scaled down to the drawn region count so module
    /// functions stay small (the realistic regime — and the one that keeps
    /// a 1000-function module tractable in debug test runs).
    pub fn params(&self) -> CfgParams {
        let mut p = self.profile.params(self.pressure.pressure());
        p.regions = self.regions;
        p.max_depth = 2;
        p
    }

    /// Generates the function body.  Deterministic in the spec alone.
    pub fn generate(&self) -> Function {
        cfg::generate(&self.params(), &mut crate::rng(self.seed))
    }
}

/// Draws the per-function mix of a module from one seeded stream.
///
/// Profiles and pressure levels are drawn uniformly from
/// [`ShapeProfile::ALL`] × [`PressureLevel::ALL`]; sizes are skewed toward
/// small functions (1 region twice as likely as 2 or 3), matching the
/// long-tailed size distribution of real translation units.
pub fn module_specs(params: &ModuleParams, base_seed: u64) -> Vec<FunctionSpec> {
    let mut rng = crate::rng(base_seed);
    (0..params.functions)
        .map(|index| {
            let profile = ShapeProfile::ALL[rng.gen_range(0..ShapeProfile::ALL.len())];
            let pressure = PressureLevel::ALL[rng.gen_range(0..PressureLevel::ALL.len())];
            let regions = match rng.gen_range(0..4) {
                0 | 1 => 1,
                2 => 2,
                _ => 3,
            };
            let seed = rng.next_u64();
            FunctionSpec {
                index,
                profile,
                pressure,
                regions,
                seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_independent() {
        let params = ModuleParams { functions: 32 };
        let a = module_specs(&params, 7);
        let b = module_specs(&params, 7);
        assert_eq!(a, b);
        let c = module_specs(&params, 8);
        assert_ne!(a, c);
        // Each spec regenerates the same function on its own.
        let f1 = a[5].generate();
        let f2 = a[5].generate();
        assert_eq!(format!("{f1}"), format!("{f2}"));
    }

    #[test]
    fn a_shorter_draw_is_a_prefix_of_the_full_module() {
        // The service draws only the specs a slice needs; that is sound
        // because one sequential stream fixes every spec in order.
        let full = module_specs(&ModuleParams::default(), 42);
        for functions in [0, 1, 68, 999] {
            let short = module_specs(&ModuleParams { functions }, 42);
            assert_eq!(short[..], full[..functions], "{functions} functions");
        }
    }

    #[test]
    fn generated_module_functions_are_valid_strict_ssa() {
        let params = ModuleParams { functions: 12 };
        for spec in module_specs(&params, 42) {
            let f = spec.generate();
            assert!(f.validate().is_ok(), "spec {spec:?}");
            assert!(coalesce_ir::ssa::is_strict(&f), "spec {spec:?}");
        }
    }

    #[test]
    fn the_mix_covers_every_profile_and_pressure() {
        let params = ModuleParams { functions: 200 };
        let specs = module_specs(&params, 1);
        for profile in ShapeProfile::ALL {
            assert!(specs.iter().any(|s| s.profile == profile), "{profile}");
        }
        for pressure in PressureLevel::ALL {
            assert!(specs.iter().any(|s| s.pressure == pressure));
        }
        assert!(specs.iter().any(|s| s.regions == 1));
        assert!(specs.iter().any(|s| s.regions == 3));
    }
}
