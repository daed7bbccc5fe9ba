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
//!
//! [`RegisterAssignment::validate`] audits an assignment independently of
//! the allocator that produced it: one liveness solve of its own plus one
//! backward walk per block that counts, per register, the live variables
//! holding it.  It checks the interference relation of
//! [`InterferenceGraph::build`] without building the graph.
//!
//! [`InterferenceGraph::build`]: coalesce_ir::interference::InterferenceGraph::build

use coalesce_ir::function::{Function, InstrView, Var};
use coalesce_ir::liveness::{Liveness, VarSet};
use coalesce_ir::spill::loop_weight;
use std::fmt;

/// Marks a variable without a register in [`RegisterAssignment`]'s table.
const NO_REGISTER: usize = usize::MAX;

/// A register assignment for (a lowered version of) a function.
///
/// Stored flat, indexed by variable: a register table holding each
/// variable's register or the `usize::MAX` sentinel, a per-variable
/// spilled flag, and the spilled variables in the order they were first
/// spilled.  Every lookup is one array read; the tables grow on demand to
/// the highest variable touched.
#[derive(Debug, Clone, Default)]
pub struct RegisterAssignment {
    /// Register (color) of each variable, [`NO_REGISTER`] when it has none.
    registers: Vec<usize>,
    /// Whether each variable lives in memory (it is then in `spilled`).
    spilled_flag: Vec<bool>,
    /// Variables that live in memory instead of a register, in the order
    /// they were spilled.
    spilled: Vec<Var>,
}

impl RegisterAssignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns register `r` to variable `v` (overwriting any previous
    /// assignment and removing `v` from the spilled set).
    ///
    /// # Panics
    ///
    /// Panics if `r` is `usize::MAX`, the table's "no register" sentinel.
    pub fn assign(&mut self, v: Var, r: usize) {
        assert_ne!(r, NO_REGISTER, "register {r} is reserved as a sentinel");
        self.grow_to(v);
        self.registers[v.index()] = r;
        if std::mem::take(&mut self.spilled_flag[v.index()]) {
            self.spilled.retain(|&s| s != v);
        }
    }

    /// Marks `v` as spilled (living in memory).
    pub fn spill(&mut self, v: Var) {
        self.grow_to(v);
        self.registers[v.index()] = NO_REGISTER;
        if !std::mem::replace(&mut self.spilled_flag[v.index()], true) {
            self.spilled.push(v);
        }
    }

    /// Extends both per-variable tables to cover `v`.
    fn grow_to(&mut self, v: Var) {
        if v.index() >= self.registers.len() {
            self.registers.resize(v.index() + 1, NO_REGISTER);
            self.spilled_flag.resize(v.index() + 1, false);
        }
    }

    /// The register assigned to `v`, if any.
    pub fn register_of(&self, v: Var) -> Option<usize> {
        match self.registers.get(v.index()) {
            Some(&r) if r != NO_REGISTER => Some(r),
            _ => None,
        }
    }

    /// `true` if `v` was spilled.
    pub fn is_spilled(&self, v: Var) -> bool {
        self.spilled_flag.get(v.index()).copied().unwrap_or(false)
    }

    /// The spilled variables, in the order they were first spilled.
    pub fn spilled(&self) -> &[Var] {
        &self.spilled
    }

    /// Number of distinct registers actually used.
    pub fn registers_used(&self) -> usize {
        let mut used: Vec<usize> = self.iter().map(|(_, r)| r).collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// Iterates over `(variable, register)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, usize)> + '_ {
        self.registers
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != NO_REGISTER)
            .map(|(i, &r)| (Var::new(i), r))
    }

    /// Validates the assignment against `f`:
    ///
    /// * every variable of `f` either has a register `< k` or is spilled;
    /// * no two *interfering* variables share a register.
    ///
    /// Interference is the relation
    /// [`InterferenceGraph::build`](coalesce_ir::interference::InterferenceGraph::build) adds
    /// edges for (Chaitin's), checked without building the graph: one
    /// independent [`Liveness::compute`] and one backward walk per block
    /// that counts, per register, the live variables holding it.
    ///
    /// Returns the list of violations (empty means valid): range and
    /// unassigned violations in variable order, then the interfering
    /// pairs `(a, b)`, `a < b`, in ascending order — the order of the
    /// graph's edge list.
    pub fn validate(&self, f: &Function, k: usize) -> Vec<Violation> {
        let mut violations = Vec::new();
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
        let mut pairs = self.shared_register_pairs(f, k);
        pairs.sort_unstable();
        pairs.dedup();
        violations.extend(
            pairs
                .into_iter()
                .map(|(a, b)| Violation::InterferenceSharesRegister {
                    a,
                    b,
                    register: self.registers[a.index()],
                }),
        );
        violations
    }

    /// `true` if [`RegisterAssignment::validate`] reports no violation:
    /// one liveness solve plus one walk over the blocks, no graph.
    pub fn is_valid(&self, f: &Function, k: usize) -> bool {
        self.validate(f, k).is_empty()
    }

    /// The pairs of interfering variables of `f` that share a register,
    /// each as `(min, max)`, unsorted and possibly repeated.
    ///
    /// Walks each block backwards from its live-out set plus the
    /// terminator's uses, keeping the live cursor and, per register slot,
    /// the number of cursor members holding it.  Registers below
    /// `min(k, num_vars)` get one slot each (the cap bounds the table for
    /// a huge `k`); every higher register shares one slot, and the
    /// unregistered variables a bin that is never read.  A definition `d`
    /// conflicts when its slot holds more than `d` itself and, for a
    /// copy, its source: a dense slot then holds a conflict for certain,
    /// the shared one possibly.  Either way the cold path scans the cursor
    /// for the exact partners.  At the block entry the cursor is the
    /// live-in set; adding the φ results checks the two rules the graph
    /// adds beyond points: φ results of one block pairwise, and each
    /// against the live-in set.  (Every φ's live-after set contains the
    /// live-in set, so only the pairwise rule, for a dead φ result, can
    /// add a pair the points have not.)
    fn shared_register_pairs(&self, f: &Function, k: usize) -> Vec<(Var, Var)> {
        let liveness = Liveness::compute(f);
        let dense = k.min(f.num_vars());
        let (shared, unregistered) = (dense, dense + 1);
        let slot = |v: Var| match self.registers.get(v.index()) {
            Some(&r) if r < dense => r,
            Some(&NO_REGISTER) | None => unregistered,
            Some(_) => shared,
        };
        let mut holders = vec![0u32; dense + 2];
        let mut live = VarSet::new(f.num_vars());
        let mut pairs = Vec::new();
        // Lists the cursor members other than `d` and `exempt` that hold
        // `d`'s register.
        let scan = |pairs: &mut Vec<(Var, Var)>, live: &VarSet, d: Var, exempt: Option<Var>| {
            let r = self.registers[d.index()];
            for v in live.iter() {
                if v != d && Some(v) != exempt && self.registers.get(v.index()) == Some(&r) {
                    pairs.push((d.min(v), d.max(v)));
                }
            }
        };
        for b in f.block_ids() {
            live.copy_from(liveness.live_out(b));
            for &u in f.terminator(b).uses() {
                live.insert(u);
            }
            holders.fill(0);
            for v in live.iter() {
                holders[slot(v)] += 1;
            }
            for instr in f.block_instrs(b).rev() {
                if let Some(d) = instr.def() {
                    let s = slot(d);
                    if s != unregistered {
                        // The copy's source holds the same value as `d`
                        // at the copy itself (Chaitin's relaxation).
                        let exempt = match instr {
                            InstrView::Copy { src, .. } if src != d => Some(src),
                            _ => None,
                        };
                        let mut others = holders[s] - u32::from(live.contains(d));
                        if let Some(src) = exempt {
                            others -= u32::from(slot(src) == s && live.contains(src));
                        }
                        if others > 0 {
                            scan(&mut pairs, &live, d, exempt);
                        }
                    }
                    if live.remove(d) {
                        holders[slot(d)] -= 1;
                    }
                }
                for &u in instr.local_uses() {
                    if live.insert(u) {
                        holders[slot(u)] += 1;
                    }
                }
            }
            debug_assert!(live == *liveness.live_in(b), "walk ends at live-in");
            for p in f.phis(b).filter_map(|p| p.def()) {
                if live.insert(p) {
                    holders[slot(p)] += 1;
                }
            }
            for p in f.phis(b).filter_map(|p| p.def()) {
                let s = slot(p);
                if s != unregistered && holders[s] > 1 {
                    scan(&mut pairs, &live, p, None);
                }
            }
        }
        pairs
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
                        costs.eliminated_weight = costs.eliminated_weight.saturating_add(weight);
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
    /// Weight of the remaining moves.
    pub fn remaining_weight(&self) -> u64 {
        self.total_weight - self.eliminated_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_ir::function::FunctionBuilder;
    use coalesce_ir::interference::InterferenceGraph;

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
        assert_eq!(costs.remaining_weight(), 0);
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
