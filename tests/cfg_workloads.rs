//! Property tests for the structured-CFG workload generator
//! (`coalesce_gen::cfg`): strict SSA checked directly against the
//! dominator tree, reducibility when the irreducible knob is off, and the
//! Theorem 1 invariants (chordal SSA interference graph with ω = Maxlive).

use coalesce_gen::cfg::{generate, CfgParams, PressureLevel, ShapeProfile};
use coalesce_graph::chordal;
use coalesce_ir::dom::DominatorTree;
use coalesce_ir::function::{Function, InstrView};
use coalesce_ir::interference::{BuildOptions, InterferenceGraph, InterferenceKind};
use coalesce_ir::liveness::Liveness;
use coalesce_ir::loops::is_reducible;
use proptest::prelude::*;

/// Checks strictness from first principles with `ir::dom`: the single
/// definition of every used variable dominates each of its uses (same
/// block: the def appears earlier; φ arguments count as uses at the end of
/// the corresponding predecessor).
fn defs_dominate_uses(f: &Function) -> Result<(), String> {
    let dom = DominatorTree::compute(f);
    // Definition site of every variable: (block, index in block).
    let mut def_site = vec![None; f.num_vars()];
    for (b, i, instr) in f.instructions() {
        if let Some(d) = instr.def() {
            if def_site[d.index()].is_some() {
                return Err(format!("{d:?} defined twice"));
            }
            def_site[d.index()] = Some((b, i));
        }
    }
    let check = |v: coalesce_ir::function::Var, use_block, use_index: Option<usize>| {
        let Some((def_block, def_index)) = def_site[v.index()] else {
            return Err(format!("{v:?} used but never defined"));
        };
        let ok = if def_block == use_block {
            // Terminator uses (use_index None) come after every in-block def.
            use_index.is_none_or(|i| def_index < i)
        } else {
            dom.dominates(def_block, use_block)
        };
        if ok {
            Ok(())
        } else {
            Err(format!("def of {v:?} does not dominate its use"))
        }
    };
    for (b, i, instr) in f.instructions() {
        if let InstrView::Phi { args, .. } = instr {
            for a in args {
                // A φ argument is a use at the end of `pred`.
                check(a.value, a.pred, None)?;
            }
        } else {
            for &v in instr.local_uses() {
                check(v, b, Some(i))?;
            }
        }
    }
    for b in f.block_ids() {
        for &v in f.terminator(b).uses() {
            check(v, b, None)?;
        }
    }
    Ok(())
}

proptest! {
    /// Every profile × pressure × seed: the generator output is strict SSA
    /// (verified against the dominator tree) and reducible.
    #[test]
    fn generated_cfgs_are_strict_ssa_and_reducible(seed in 0u64..24) {
        for profile in ShapeProfile::ALL {
            let params = profile.params(PressureLevel::Medium.pressure());
            let f = generate(&params, &mut coalesce_gen::rng(seed));
            prop_assert!(f.validate().is_ok());
            prop_assert!(coalesce_ir::ssa::is_ssa(&f));
            if let Err(e) = defs_dominate_uses(&f) {
                prop_assert!(false, "{profile} seed {seed}: {e}");
            }
            prop_assert!(is_reducible(&f), "{profile} seed {seed} not reducible");
        }
    }

    /// Theorem 1 on generated workloads: the intersection interference
    /// graph of the strict SSA form is chordal with ω = Maxlive.
    #[test]
    fn generated_ssa_interference_graphs_are_chordal_with_omega_maxlive(seed in 0u64..12) {
        for profile in ShapeProfile::ALL {
            let params = profile.params(PressureLevel::Low.pressure());
            let f = generate(&params, &mut coalesce_gen::rng(seed));
            let live = Liveness::compute(&f);
            let ig = InterferenceGraph::build_with(
                &f,
                &live,
                BuildOptions {
                    kind: InterferenceKind::Intersection,
                    ..Default::default()
                },
            );
            prop_assert!(chordal::is_chordal(&ig.graph), "{profile} seed {seed}");
            let omega = chordal::chordal_clique_number(&ig.graph).unwrap();
            prop_assert_eq!(omega, live.maxlive_precise(&f), "{} seed {}", profile, seed);
        }
    }

    /// The irreducible knob: still strict SSA (and still chordal — Theorem
    /// 1 needs strictness, not reducibility), but no longer reducible.
    #[test]
    fn irreducible_knob_preserves_strictness_but_breaks_reducibility(seed in 0u64..12) {
        let params = CfgParams {
            irreducible_regions: 1,
            ..CfgParams::default()
        };
        let f = generate(&params, &mut coalesce_gen::rng(seed));
        prop_assert!(f.validate().is_ok());
        if let Err(e) = defs_dominate_uses(&f) {
            prop_assert!(false, "seed {seed}: {e}");
        }
        prop_assert!(!is_reducible(&f), "seed {seed} unexpectedly reducible");
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build_with(
            &f,
            &live,
            BuildOptions {
                kind: InterferenceKind::Intersection,
                ..Default::default()
            },
        );
        prop_assert!(chordal::is_chordal(&ig.graph), "seed {seed}");
    }
}

#[test]
fn chordal_coloring_of_generated_cfgs_uses_exactly_maxlive_colors() {
    // The acceptance invariant behind E13's `chordal_colors` column.
    for profile in ShapeProfile::ALL {
        for level in PressureLevel::ALL {
            let params = profile.params(level.pressure());
            let f = generate(&params, &mut coalesce_gen::rng(9));
            let live = Liveness::compute(&f);
            let ig = InterferenceGraph::build_with(
                &f,
                &live,
                BuildOptions {
                    kind: InterferenceKind::Intersection,
                    ..Default::default()
                },
            );
            let coloring = chordal::chordal_coloring(&ig.graph).expect("chordal");
            assert!(coloring.is_proper(&ig.graph));
            assert_eq!(
                coloring.num_colors(),
                live.maxlive_precise(&f),
                "{profile} {level:?}"
            );
        }
    }
}
