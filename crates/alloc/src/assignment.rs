//! Register assignments: the common output of every allocator.
//!
//! A [`RegisterAssignment`] maps each variable of a lowered function to a
//! register (a color `0..k`) or to memory (spilled).  The module also
//! provides the two cost metrics the experiments report:
//!
//! * **move cost** — the total weight ([`loop_weight`] of the loop depth)
//!   of the copy instructions whose source and destination ended up in
//!   *different* registers (or in memory), i.e. the moves that
//!   coalescing + biased coloring failed to remove;
//! * **spill cost** — the number of spilled values and of reload
//!   temporaries the allocator had to introduce.

use coalesce_ir::function::{Function, InstrView, Var};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::loop_weight;
use std::collections::BTreeMap;
use std::fmt;

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

    /// Number of variables that received a register.
    pub fn num_assigned(&self) -> usize {
        self.registers.len()
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
                    costs.total_weight += weight;
                    let same = match (self.register_of(dst), self.register_of(src)) {
                        (Some(rd), Some(rs)) => rd == rs,
                        _ => false,
                    };
                    if same {
                        costs.eliminated_moves += 1;
                        costs.eliminated_weight += weight;
                    }
                }
            }
        }
        costs
    }
}

/// A single validation problem found by [`RegisterAssignment::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A variable has neither a register nor a spill slot.
    Unassigned {
        /// The offending variable.
        var: Var,
    },
    /// A variable was assigned a register `≥ k`.
    RegisterOutOfRange {
        /// The offending variable.
        var: Var,
        /// The out-of-range register.
        register: usize,
    },
    /// Two interfering variables share a register.
    InterferenceSharesRegister {
        /// First variable.
        a: Var,
        /// Second variable.
        b: Var,
        /// The shared register.
        register: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unassigned { var } => {
                write!(f, "variable {var:?} has no register and no spill slot")
            }
            Violation::RegisterOutOfRange { var, register } => {
                write!(
                    f,
                    "variable {var:?} assigned out-of-range register r{register}"
                )
            }
            Violation::InterferenceSharesRegister { a, b, register } => {
                write!(
                    f,
                    "interfering variables {a:?} and {b:?} both in r{register}"
                )
            }
        }
    }
}

/// Move-removal metrics of an assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveCosts {
    /// Number of copy instructions in the function.
    pub total_moves: usize,
    /// Copies whose source and destination share a register (removable).
    pub eliminated_moves: usize,
    /// Total weight (`Σ loop_weight(depth)`) of all copies.
    pub total_weight: u64,
    /// Weight of the removable copies.
    pub eliminated_weight: u64,
}

impl MoveCosts {
    /// Copies that remain as real machine moves.
    pub fn remaining_moves(&self) -> usize {
        self.total_moves - self.eliminated_moves
    }

    /// Weight of the remaining moves.
    pub fn remaining_weight(&self) -> u64 {
        self.total_weight - self.eliminated_weight
    }

    /// Fraction of the copy weight that was eliminated (1.0 when there is
    /// nothing to eliminate).
    pub fn eliminated_ratio(&self) -> f64 {
        if self.total_weight == 0 {
            1.0
        } else {
            self.eliminated_weight as f64 / self.total_weight as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_ir::function::FunctionBuilder;

    fn two_copy_function() -> (Function, Var, Var, Var) {
        let mut b = FunctionBuilder::new("copies");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.copy(entry, "y", x);
        let z = b.op(entry, "z", &[y]);
        b.ret(entry, &[z, x]);
        (b.finish(), x, y, z)
    }

    #[test]
    fn deep_loop_moves_weigh_the_clamped_loop_weight() {
        // A copy and a φ argument at loop depth 25, past where `10^depth`
        // overflows: the copy and φ affinities and the move cost all weigh
        // the one clamped `loop_weight`.
        let mut b = FunctionBuilder::new("deep");
        let entry = b.entry_block();
        let deep = b.new_block();
        let exit = b.new_block();
        b.set_loop_depth(deep, 25);
        let x = b.def(entry, "x");
        b.jump(entry, deep);
        let y = b.copy(deep, "y", x);
        let z = b.def(deep, "z");
        b.jump(deep, exit);
        let p = b.phi(exit, "p", &[(deep, z)]);
        b.ret(exit, &[p, y]);
        let f = b.finish();

        let ig = InterferenceGraph::build(&f, &Liveness::compute(&f));
        let weight_of = |a: Var, b: Var| {
            ig.affinities
                .iter()
                .find(|aff| (aff.a, aff.b) == (a.min(b), a.max(b)))
                .expect("affinity present")
                .weight
        };
        assert_eq!(weight_of(y, x), loop_weight(25));
        assert_eq!(weight_of(p, z), loop_weight(25));
        let costs = RegisterAssignment::new().move_costs(&f);
        assert_eq!(costs.total_moves, 1);
        assert_eq!(costs.total_weight, loop_weight(25));
    }

    #[test]
    fn assignment_round_trips_registers_and_spills() {
        let mut a = RegisterAssignment::new();
        let v0 = Var::new(0);
        a.assign(v0, 1);
        assert_eq!(a.register_of(v0), Some(1));
        a.spill(v0);
        assert!(a.is_spilled(v0));
        assert_eq!(a.register_of(v0), None);
        a.assign(v0, 0);
        assert!(!a.is_spilled(v0));
        assert_eq!(a.registers_used(), 1);
    }

    #[test]
    fn validate_accepts_a_proper_assignment() {
        let (f, x, y, z) = two_copy_function();
        // x interferes with y and z (it is live until the return).
        let mut a = RegisterAssignment::new();
        a.assign(x, 0);
        a.assign(y, 1);
        a.assign(z, 1);
        assert!(a.is_valid(&f, 2));
    }

    #[test]
    fn validate_reports_shared_register_on_interference() {
        let (f, x, y, z) = two_copy_function();
        let mut a = RegisterAssignment::new();
        a.assign(x, 0);
        a.assign(y, 1);
        a.assign(z, 0); // x and z interfere (x is live across z's definition)
        let violations = a.validate(&f, 2);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::InterferenceSharesRegister { .. })));
        assert!(!a.is_valid(&f, 2));
    }

    #[test]
    fn validate_reports_unassigned_and_out_of_range() {
        let (f, x, y, z) = two_copy_function();
        let mut a = RegisterAssignment::new();
        a.assign(x, 5);
        a.assign(y, 0);
        a.spill(z);
        let violations = a.validate(&f, 2);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::RegisterOutOfRange { register: 5, .. })));
        // z is spilled, so it must not be reported as unassigned.
        assert!(!violations
            .iter()
            .any(|v| matches!(v, Violation::Unassigned { var } if *var == z)));
        for v in &violations {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn move_costs_count_same_register_copies_as_eliminated() {
        let (f, x, y, z) = two_copy_function();
        let mut a = RegisterAssignment::new();
        a.assign(x, 0);
        a.assign(y, 1);
        a.assign(z, 1);
        let costs = a.move_costs(&f);
        assert_eq!(costs.total_moves, 1);
        assert_eq!(costs.eliminated_moves, 0);
        assert_eq!(costs.remaining_moves(), 1);

        // Under Chaitin's interference definition the copy-related x and y
        // do not interfere, so giving them the same register is exactly the
        // coalescing outcome — and the move becomes eliminated.
        let mut coalesced = RegisterAssignment::new();
        coalesced.assign(x, 0);
        coalesced.assign(y, 0);
        coalesced.assign(z, 1);
        assert!(coalesced.is_valid(&f, 2));
        let costs = coalesced.move_costs(&f);
        assert_eq!(costs.eliminated_moves, 1);
        assert_eq!(costs.remaining_moves(), 0);
        assert!((costs.eliminated_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn move_costs_weight_by_loop_depth() {
        let mut b = FunctionBuilder::new("weighted");
        let entry = b.entry_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.set_loop_depth(body, 2);
        let x = b.def(entry, "x");
        let c = b.def(entry, "c");
        b.jump(entry, body);
        let y = b.copy(body, "y", x);
        b.effect(body, &[y]);
        b.branch(body, c, body, exit);
        b.ret(exit, &[x]);
        let f = b.finish();
        let a = RegisterAssignment::new();
        let costs = a.move_costs(&f);
        assert_eq!(costs.total_moves, 1);
        assert_eq!(costs.total_weight, 100);
    }
}
