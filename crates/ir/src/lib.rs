//! A small SSA compiler intermediate representation.
//!
//! The paper studies coalescing problems on interference graphs extracted
//! from programs, in particular from programs in strict SSA form.  This
//! crate is the compiler substrate of the reproduction:
//!
//! * [`function`]: control-flow graphs of basic blocks that own their
//!   16-byte instruction records (operands in shared pools), with a
//!   builder API and a textual printer;
//! * [`dom`]: dominator trees and dominance frontiers (Cooper–Harvey–Kennedy);
//! * [`ssa`]: SSA construction (φ placement at dominance frontiers and
//!   variable renaming) and strictness/SSA validation;
//! * [`liveness`]: worklist live-variable analysis over dense bitsets
//!   ([`liveness::VarSet`]), streamed per-point live cursors and `Maxlive`;
//! * [`interference`]: interference-graph and affinity construction, with
//!   both the live-range-intersection and the Chaitin definitions of
//!   interference discussed in §2.1 of the paper;
//! * [`out_of_ssa`]: φ elimination with critical-edge splitting, producing
//!   the register-to-register moves whose removal is the aggressive
//!   coalescing problem;
//! * [`spill`]: spilling passes used to lower register pressure to a
//!   target `k` before the coloring/coalescing phase (the "two-phase"
//!   allocator setting of Appel–George and Hack et al.), the
//!   [`spill::SpillerKind`] strategy zoo, and the one spill-and-measure
//!   path ([`spill::SpillInput`] / [`spill::SpillRun`]);
//! * [`belady`]: Braun–Hack-style Belady `MIN` spilling driven by next-use
//!   distances, with live-range splitting at block boundaries.
//!
//! # Example
//!
//! ```
//! use coalesce_ir::function::FunctionBuilder;
//! use coalesce_ir::{interference, liveness};
//!
//! let mut b = FunctionBuilder::new("diamond");
//! let entry = b.entry_block();
//! let (then_, else_, join) = (b.new_block(), b.new_block(), b.new_block());
//! let x = b.def(entry, "x");
//! let c = b.def(entry, "c");
//! b.branch(entry, c, then_, else_);
//! let y = b.op(then_, "y", &[x]);
//! b.jump(then_, join);
//! let z = b.op(else_, "z", &[x]);
//! b.jump(else_, join);
//! let w = b.phi(join, "w", &[(then_, y), (else_, z)]);
//! b.ret(join, &[w]);
//! let f = b.finish();
//!
//! let live = liveness::Liveness::compute(&f);
//! // x and c are both live at entry's branch point.
//! assert!(live.maxlive_precise(&f) >= 2);
//! let ig = interference::InterferenceGraph::build(&f, &live);
//! assert!(ig.graph.num_vertices() >= 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod belady;
pub mod dom;
pub mod function;
pub mod interference;
pub mod liveness;
pub mod loops;
pub mod out_of_ssa;
pub mod spill;
pub mod splitting;
pub mod ssa;

pub use function::{BlockId, Function, FunctionBuilder, Instr, InstrView, PhiArg, Var};
pub use interference::{Affinity, InterferenceGraph};
pub use liveness::{Liveness, VarSet};
pub use loops::LoopInfo;
