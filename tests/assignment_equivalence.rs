//! Equivalence pin for the flat register assignment.
//!
//! `RegisterAssignment` once kept its registers in a `BTreeMap` and
//! answered `is_spilled` with a scan of the spilled list; it now keeps a
//! dense per-variable register table with a sentinel, a per-variable
//! spilled flag and the ordered spilled list.  [`reference`] keeps the
//! map-based version verbatim.  Random `assign`/`spill` sequences must
//! leave both with the same `register_of`, `is_spilled`, `iter`,
//! `spilled` and `registers_used` after every step; on the seed-42 module
//! functions, the assignments of both allocators, replayed as they are
//! and with random damage (unassigned variables, out-of-range registers,
//! shared registers, re-spills and un-spills), must also give the same
//! `move_costs` and the same `validate` violations in the same order.
//!
//! `validate` no longer builds an interference graph: it walks each block
//! backwards with per-register holder counts.  The reference keeps the
//! graph-based check, so the same comparison also runs on un-lowered SSA
//! functions (φ results of one block checked pairwise and against the
//! live-in set), with damage aimed at what the walk handles specially:
//! copies whose destination takes its source's register (the source is
//! exempt at the copy, and may stay live past it), φ results sharing one
//! register, and registers far above `k` (which share one holder slot
//! that a conflict must be confirmed in).

use coalesce_alloc::assignment::{RegisterAssignment, Violation};
use coalesce_alloc::{chaitin_allocate, ssa_allocate, ChaitinConfig, CoalescingStrategy};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::function::{Function, FunctionBuilder, InstrView, Var};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use proptest::prelude::*;
use rand::Rng;

/// The map-based assignment as it stood before the flat tables, copied
/// verbatim (the violation and cost types are the crate's own).
mod reference {
    use coalesce_alloc::assignment::{MoveCosts, Violation};
    use coalesce_ir::function::{Function, InstrView, Var};
    use coalesce_ir::interference::InterferenceGraph;
    use coalesce_ir::liveness::Liveness;
    use coalesce_ir::spill::loop_weight;
    use std::collections::BTreeMap;

    /// A register assignment for (a lowered version of) a function.
    #[derive(Debug, Clone, Default)]
    pub struct RegisterAssignment {
        /// Register (color) of each variable that received one.
        registers: BTreeMap<Var, usize>,
        /// Variables that live in memory instead of a register.
        spilled: Vec<Var>,
    }

    impl RegisterAssignment {
        /// Creates an empty assignment.
        pub fn new() -> Self {
            Self::default()
        }

        /// Assigns register `r` to variable `v` (overwriting any previous
        /// assignment and removing `v` from the spilled set).
        pub fn assign(&mut self, v: Var, r: usize) {
            self.registers.insert(v, r);
            self.spilled.retain(|&s| s != v);
        }

        /// Marks `v` as spilled (living in memory).
        pub fn spill(&mut self, v: Var) {
            self.registers.remove(&v);
            if !self.spilled.contains(&v) {
                self.spilled.push(v);
            }
        }

        /// The register assigned to `v`, if any.
        pub fn register_of(&self, v: Var) -> Option<usize> {
            self.registers.get(&v).copied()
        }

        /// `true` if `v` was spilled.
        pub fn is_spilled(&self, v: Var) -> bool {
            self.spilled.contains(&v)
        }

        /// The spilled variables.
        pub fn spilled(&self) -> &[Var] {
            &self.spilled
        }

        /// Number of distinct registers actually used.
        pub fn registers_used(&self) -> usize {
            let distinct: std::collections::BTreeSet<usize> =
                self.registers.values().copied().collect();
            distinct.len()
        }

        /// Iterates over `(variable, register)` pairs in variable order.
        pub fn iter(&self) -> impl Iterator<Item = (Var, usize)> + '_ {
            self.registers.iter().map(|(&v, &r)| (v, r))
        }

        /// Validates the assignment against `f`:
        ///
        /// * every variable of `f` either has a register `< k` or is spilled;
        /// * no two *interfering* variables share a register.
        ///
        /// Returns the list of violations (empty means valid).
        pub fn validate(&self, f: &Function, k: usize) -> Vec<Violation> {
            let mut violations = Vec::new();
            let live = Liveness::compute(f);
            let ig = InterferenceGraph::build(f, &live);
            for i in 0..f.num_vars() {
                let v = Var::new(i);
                match self.register_of(v) {
                    Some(r) if r >= k => violations.push(Violation::RegisterOutOfRange {
                        var: v,
                        register: r,
                    }),
                    Some(_) => {}
                    None => {
                        if !self.is_spilled(v) {
                            violations.push(Violation::Unassigned { var: v });
                        }
                    }
                }
            }
            for (a, b) in ig.graph.edges() {
                let (va, vb) = (Var::new(a.index()), Var::new(b.index()));
                if let (Some(ra), Some(rb)) = (self.register_of(va), self.register_of(vb)) {
                    if ra == rb {
                        violations.push(Violation::InterferenceSharesRegister {
                            a: va,
                            b: vb,
                            register: ra,
                        });
                    }
                }
            }
            violations
        }

        /// `true` if [`RegisterAssignment::validate`] reports no violation.
        pub fn is_valid(&self, f: &Function, k: usize) -> bool {
            self.validate(f, k).is_empty()
        }

        /// Move-cost metrics of this assignment on `f`.
        pub fn move_costs(&self, f: &Function) -> MoveCosts {
            let mut costs = MoveCosts::default();
            for b in f.block_ids() {
                let weight = loop_weight(f.loop_depth(b));
                for instr in f.block_instrs(b) {
                    if let InstrView::Copy { dst, src } = instr {
                        costs.total_moves += 1;
                        costs.total_weight = costs.total_weight.saturating_add(weight);
                        let same = match (self.register_of(dst), self.register_of(src)) {
                            (Some(rd), Some(rs)) => rd == rs,
                            _ => false,
                        };
                        if same {
                            costs.eliminated_moves += 1;
                            costs.eliminated_weight =
                                costs.eliminated_weight.saturating_add(weight);
                        }
                    }
                }
            }
            costs
        }
    }
}

/// One edit of an assignment.
#[derive(Debug, Clone, Copy)]
enum Op {
    Assign(Var, usize),
    Spill(Var),
}

/// Applies `ops` to a fresh flat and a fresh reference assignment.
fn replay(ops: &[Op]) -> (RegisterAssignment, reference::RegisterAssignment) {
    let (mut new, mut old) = (
        RegisterAssignment::new(),
        reference::RegisterAssignment::new(),
    );
    for &op in ops {
        apply(&mut new, &mut old, op);
    }
    (new, old)
}

fn apply(new: &mut RegisterAssignment, old: &mut reference::RegisterAssignment, op: Op) {
    match op {
        Op::Assign(v, r) => {
            new.assign(v, r);
            old.assign(v, r);
        }
        Op::Spill(v) => {
            new.spill(v);
            old.spill(v);
        }
    }
}

/// Asserts that `new` and `old` answer every per-variable query the same
/// way on variables `0..vars` (and one past), and agree on `iter`,
/// `spilled` and `registers_used`.
fn assert_same_tables(new: &RegisterAssignment, old: &reference::RegisterAssignment, vars: usize) {
    for i in 0..=vars {
        let v = Var::new(i);
        assert_eq!(new.register_of(v), old.register_of(v), "register of {v:?}");
        assert_eq!(new.is_spilled(v), old.is_spilled(v), "is_spilled({v:?})");
    }
    assert_eq!(
        new.iter().collect::<Vec<_>>(),
        old.iter().collect::<Vec<_>>(),
        "iter"
    );
    assert_eq!(new.spilled(), old.spilled(), "spilled");
    assert_eq!(new.registers_used(), old.registers_used(), "registers_used");
}

/// Asserts that `new` and `old` agree on everything, `f`-dependent
/// metrics at `k` included.
fn assert_same_on(
    new: &RegisterAssignment,
    old: &reference::RegisterAssignment,
    f: &Function,
    k: usize,
) {
    assert_same_tables(new, old, f.num_vars());
    assert_eq!(new.move_costs(f), old.move_costs(f), "move costs");
    assert_eq!(new.validate(f, k), old.validate(f, k), "violations");
    assert_eq!(new.is_valid(f, k), old.is_valid(f, k), "is_valid");
}

/// The edits that rebuild `a` on `f`'s variables in variable order.
fn ops_of(a: &RegisterAssignment, f: &Function) -> Vec<Op> {
    (0..f.num_vars())
        .map(Var::new)
        .filter_map(|v| match a.register_of(v) {
            Some(r) => Some(Op::Assign(v, r)),
            None => a.is_spilled(v).then_some(Op::Spill(v)),
        })
        .collect()
}

/// `ops` with random damage: some edits dropped (unassigned variables),
/// then one random edit per eight variables: a register in `0..k + 2`
/// (shared or out of range, un-spilling a spilled variable) or a spill.
fn damaged(ops: &[Op], vars: usize, k: usize, seed: u64) -> Vec<Op> {
    let mut rng = coalesce_gen::rng(seed);
    let mut out: Vec<Op> = ops
        .iter()
        .copied()
        .filter(|_| !rng.gen_bool(0.02))
        .collect();
    for _ in 0..vars / 8 {
        let v = Var::new(rng.gen_range(0..vars));
        out.push(if rng.gen_bool(0.5) {
            Op::Assign(v, rng.gen_range(0..k + 2))
        } else {
            Op::Spill(v)
        });
    }
    out
}

/// Checks the allocator's own assignment `a` of `f` at `k` against the
/// reference rebuilt from it, then a damaged replay on both sides.
fn assert_same_allocation(a: &RegisterAssignment, f: &Function, k: usize, seed: u64) {
    let ops = ops_of(a, f);
    let (new, old) = replay(&ops);
    assert_same_on(a, &old, f, k);
    assert_same_on(&new, &old, f, k);
    let (new, old) = replay(&damaged(&ops, f.num_vars(), k, seed));
    assert_same_on(&new, &old, f, k);
}

#[test]
fn flat_assignment_matches_the_map_on_the_seed_42_module() {
    const K: usize = 12;
    let mut damaged_invalid = 0;
    for spec in module_specs(&ModuleParams { functions: 200 }, 42) {
        let f = spec.generate();
        let ssa = ssa_allocate(&f, K, CoalescingStrategy::BriggsGeorge);
        assert_same_allocation(&ssa.assignment, &ssa.function, K, spec.seed);
        let chaitin = chaitin_allocate(&f, ChaitinConfig::new(K));
        assert_same_allocation(&chaitin.assignment, &chaitin.function, K, !spec.seed);
        let ops = damaged(
            &ops_of(&ssa.assignment, &ssa.function),
            ssa.function.num_vars(),
            K,
            1,
        );
        damaged_invalid += usize::from(!replay(&ops).0.is_valid(&ssa.function, K));
    }
    // The damage must reach `validate`'s violation lists.
    assert!(
        damaged_invalid > 100,
        "only {damaged_invalid} damaged replays were invalid"
    );
}

/// Two distinct registers far above any `k` (`usize::MAX` itself is the
/// table's sentinel).
const FAR: [usize; 2] = [usize::MAX - 1, usize::MAX - 2];

/// A greedy coloring of `f`'s interference graph in variable order: each
/// variable takes the lowest register none of its colored neighbors holds.
fn greedy_assignment(f: &Function) -> RegisterAssignment {
    let ig = InterferenceGraph::build(f, &Liveness::compute(f));
    let mut a = RegisterAssignment::new();
    for i in 0..f.num_vars() {
        let v = Var::new(i);
        let taken: Vec<usize> = ig
            .graph
            .neighbors(ig.vertex(v))
            .filter_map(|u| a.register_of(ig.var(u)))
            .collect();
        let free = (0..=taken.len()).find(|r| !taken.contains(r));
        a.assign(v, free.expect("one of degree + 1 registers is free"));
    }
    a
}

/// `a`'s edits on `f` followed by targeted damage: the φ results of half
/// the blocks with several φs move to one register, a third of the copies
/// give their destination the source's register, and one variable in
/// sixteen moves to a [`FAR`] register.
fn targeted_damage(a: &RegisterAssignment, f: &Function, seed: u64) -> Vec<Op> {
    let mut rng = coalesce_gen::rng(seed);
    let mut out = ops_of(a, f);
    for b in f.block_ids() {
        let phis: Vec<Var> = f.phis(b).filter_map(|p| p.def()).collect();
        if phis.len() > 1 && rng.gen_bool(0.5) {
            let r = rng.gen_range(0..4);
            out.extend(phis.iter().map(|&p| Op::Assign(p, r)));
        }
        for instr in f.block_instrs(b) {
            if let InstrView::Copy { dst, src } = instr {
                if let Some(r) = a.register_of(src) {
                    if rng.gen_bool(0.3) {
                        out.push(Op::Assign(dst, r));
                    }
                }
            }
        }
    }
    for _ in 0..f.num_vars() / 16 {
        let v = Var::new(rng.gen_range(0..f.num_vars()));
        out.push(Op::Assign(v, FAR[rng.gen_range(0..FAR.len())]));
    }
    out
}

/// Un-lowered SSA functions (greedy colorings of their own graphs) as they
/// are, with random damage and with targeted damage, and the SSA
/// allocator's lowered output with targeted damage.
#[test]
fn walk_matches_the_graph_on_ssa_functions_copies_and_far_registers() {
    const K: usize = 12;
    let (mut with_phis, mut targeted_invalid) = (0, 0);
    for spec in module_specs(&ModuleParams { functions: 200 }, 42) {
        let f = spec.generate();
        with_phis += usize::from(f.num_phis() > 0);
        let colored = greedy_assignment(&f);
        assert_same_allocation(&colored, &f, K, spec.seed);
        let ssa = ssa_allocate(&f, K, CoalescingStrategy::BriggsGeorge);
        for (a, g, seed) in [
            (&colored, &f, spec.seed),
            (&ssa.assignment, &ssa.function, !spec.seed),
        ] {
            let (new, old) = replay(&targeted_damage(a, g, seed));
            assert_same_on(&new, &old, g, K);
            targeted_invalid += usize::from(!old.is_valid(g, K));
        }
    }
    assert!(with_phis > 100, "only {with_phis} functions have φs");
    assert!(
        targeted_invalid > 300,
        "only {targeted_invalid} targeted replays were invalid"
    );
}

/// The cases the walk treats specially, one at a time: a dead φ result
/// sharing the register of a later φ's, a copy whose source stays live
/// sharing its destination's register, and far registers that are equal
/// (a conflict) or distinct (none).
#[test]
fn walk_matches_the_graph_on_phis_live_copy_sources_and_far_registers() {
    let mut b = FunctionBuilder::new("cases");
    let entry = b.entry_block();
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    let c = b.def(entry, "c");
    let x = b.def(entry, "x");
    b.branch(entry, c, t, e);
    let (a1, b1) = (b.def(t, "a1"), b.def(t, "b1"));
    b.jump(t, j);
    let (a2, b2) = (b.def(e, "a2"), b.def(e, "b2"));
    b.jump(e, j);
    let dead = b.phi(j, "dead", &[(t, a1), (e, a2)]);
    let p = b.phi(j, "p", &[(t, b1), (e, b2)]);
    let y = b.copy(j, "y", x);
    let z = b.op(j, "z", &[p]);
    b.ret(j, &[x, y, z]);
    let f = b.finish();
    let vars = [c, x, a1, b1, a2, b2, dead, p, y, z];
    let base: Vec<Op> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| Op::Assign(v, i))
        .collect();
    // `base` gives every variable its own register: `x` holds 1, `p` 7.
    let cases: [&[Op]; 5] = [
        &[Op::Assign(dead, 7)],
        &[Op::Assign(y, 1)],
        &[Op::Assign(x, FAR[0]), Op::Assign(z, FAR[0])],
        &[Op::Assign(x, FAR[0]), Op::Assign(z, FAR[1])],
        &[Op::Assign(x, FAR[0]), Op::Assign(y, FAR[0])],
    ];
    let mut conflicts = Vec::new();
    for case in cases {
        let (new, old) = replay(&[&base[..], case].concat());
        assert_same_on(&new, &old, &f, 12);
        let shares = |v: &Violation| matches!(v, Violation::InterferenceSharesRegister { .. });
        conflicts.push(new.validate(&f, 12).iter().any(shares));
    }
    // The dead φ and the equal far registers conflict; the live copy
    // source and the distinct far registers do not.
    assert_eq!(conflicts, [true, false, true, false, false]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_assignment_matches_the_map_under_random_edits(
        edits in proptest::collection::vec((0usize..24, 0usize..8, any::<bool>()), 0..80)
    ) {
        let (mut new, mut old) = (RegisterAssignment::new(), reference::RegisterAssignment::new());
        for (var, register, assign) in edits {
            let v = Var::new(var);
            apply(&mut new, &mut old, if assign { Op::Assign(v, register) } else { Op::Spill(v) });
            assert_same_tables(&new, &old, 24);
        }
    }
}
