//! Functions, basic blocks, instructions and the [`FunctionBuilder`].
//!
//! The IR is deliberately small: an instruction either defines a value from
//! some uses ([`Instr::Op`]), copies a value ([`Instr::Copy`] — the
//! register-to-register moves whose removal is the coalescing problem), or
//! is a φ-function ([`Instr::Phi`]).  Control flow lives in each block's
//! [`Terminator`].
//!
//! # Block-owned layout
//!
//! A [`Function`] stores each block's instructions as one `Vec` of compact
//! records, in block order, rather than as owned enums:
//!
//! * every instruction is one 16-byte record (`kind`, `dst`, and a
//!   `(start, len)` range) owned by its block;
//! * operands live in two shared pools — a [`Var`] pool for `op` uses and
//!   copy sources, a [`PhiArg`] pool for φ-arguments — so reading an
//!   instruction's uses is a slice borrow, not a `Vec` clone;
//! * variable names are optional debug info interned into one shared
//!   string buffer; creating a variable allocates nothing per variable
//!   and display falls back to the dense `%index` form.
//!
//! Reads go through the borrowed [`InstrView`].  Rewrite passes edit in
//! place: [`Function::uses_mut`], [`Function::phi_args_mut`] and
//! [`Function::set_def`] substitute operands and definitions inside the
//! existing record (no rewrite changes an operand count), and
//! [`Function::splice`] inserts into the block it edits.
//! The owned [`Instr`] enum is the exchange form for builders and
//! insertions ([`Function::push_instr`], [`Function::splice`]) and for
//! whole-block read-modify-write ([`Function::block_instrs_owned`] /
//! [`Function::set_block_instrs`]).
//!
//! A record leaves the layout with its instruction, so the records are
//! exactly the live instructions.  Only pooled operands can outlive their
//! instruction: the arguments of φs that [`Function::remove_phis`] drops
//! and the operands of a block that [`Function::set_block_instrs`]
//! replaces stay in the pools, and [`Function::ir_bytes`] counts them.

use std::fmt;

/// A variable (temporary) of a [`Function`].
///
/// Variables are dense indices; optional debug names are interned in the
/// function's name table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Var(u32);

impl Var {
    /// Creates a variable handle from a dense index.
    pub fn new(index: usize) -> Self {
        Var(u32::try_from(index).expect("variable index exceeds u32::MAX"))
    }

    /// Dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic block of a [`Function`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block handle from a dense index.
    pub fn new(index: usize) -> Self {
        BlockId(u32::try_from(index).expect("block index exceeds u32::MAX"))
    }

    /// Dense index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One φ-argument: the value flowing in from one predecessor edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhiArg {
    /// The predecessor block the value arrives from.
    pub pred: BlockId,
    /// The value used at the end of `pred`.
    pub value: Var,
}

/// A non-terminator instruction (owned form).
///
/// This is the exchange form: builders and insertions produce `Instr`
/// values, which the function interns into a block's records and the
/// operand pools ([`Function::push_instr`], [`Function::splice`]).  Reads use the
/// borrowed [`InstrView`] instead, and rewrites of existing instructions
/// edit them in place ([`Function::uses_mut`] and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = op(uses)` — a generic computation; `dst` is `None` for
    /// effect-only instructions (e.g. stores).
    Op {
        /// Defined variable, if any.
        dst: Option<Var>,
        /// Used variables.
        uses: Vec<Var>,
    },
    /// `dst = src` — a register-to-register move, i.e. a coalescing
    /// candidate.
    Copy {
        /// Destination of the move.
        dst: Var,
        /// Source of the move.
        src: Var,
    },
    /// `dst = φ(block₁: v₁, block₂: v₂, ...)` — must appear at the start of
    /// its block, with exactly one argument per predecessor.
    Phi {
        /// Defined variable.
        dst: Var,
        /// One `(predecessor, value)` pair per incoming edge.
        args: Vec<(BlockId, Var)>,
    },
}

impl Instr {
    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            Instr::Op { dst, .. } => *dst,
            Instr::Copy { dst, .. } => Some(*dst),
            Instr::Phi { dst, .. } => Some(*dst),
        }
    }

    /// The variables used by this instruction *at its own program point*.
    ///
    /// φ-functions use their arguments at the end of the corresponding
    /// predecessor, not at their own point, so [`Instr::Phi`] reports no
    /// local uses here; liveness handles φ arguments explicitly.
    pub fn local_uses(&self) -> Vec<Var> {
        match self {
            Instr::Op { uses, .. } => uses.clone(),
            Instr::Copy { src, .. } => vec![*src],
            Instr::Phi { .. } => Vec::new(),
        }
    }

    /// Returns `true` for [`Instr::Copy`].
    pub fn is_copy(&self) -> bool {
        matches!(self, Instr::Copy { .. })
    }

    /// Returns `true` for [`Instr::Phi`].
    pub fn is_phi(&self) -> bool {
        matches!(self, Instr::Phi { .. })
    }
}

/// A borrowed view of one instruction record.
///
/// Uses and φ-arguments are slices into the function's shared operand
/// pools — no allocation per read.  [`InstrView::to_instr`] converts back
/// to the owned [`Instr`] exchange form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrView<'a> {
    /// `dst = op(uses)`; `dst` is `None` for effect-only instructions.
    Op {
        /// Defined variable, if any.
        dst: Option<Var>,
        /// Used variables (a pool slice).
        uses: &'a [Var],
    },
    /// `dst = src`.
    Copy {
        /// Destination of the move.
        dst: Var,
        /// Source of the move.
        src: Var,
    },
    /// `dst = φ(args)`.
    Phi {
        /// Defined variable.
        dst: Var,
        /// One argument per predecessor (a pool slice).
        args: &'a [PhiArg],
    },
}

impl<'a> InstrView<'a> {
    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            InstrView::Op { dst, .. } => *dst,
            InstrView::Copy { dst, .. } => Some(*dst),
            InstrView::Phi { dst, .. } => Some(*dst),
        }
    }

    /// The variables used at this instruction's own program point, as a
    /// borrowed slice (φ-functions report none — their arguments are used
    /// at the predecessor ends).  For `Op` this is a pool slice; for
    /// `Copy` it borrows the single source held inline in the view.
    pub fn local_uses(&self) -> &[Var] {
        match self {
            InstrView::Op { uses, .. } => uses,
            InstrView::Copy { src, .. } => std::slice::from_ref(src),
            InstrView::Phi { .. } => &[],
        }
    }

    /// Returns `true` for [`InstrView::Copy`].
    pub fn is_copy(&self) -> bool {
        matches!(self, InstrView::Copy { .. })
    }

    /// Returns `true` for [`InstrView::Phi`].
    pub fn is_phi(&self) -> bool {
        matches!(self, InstrView::Phi { .. })
    }

    /// Converts the view back to the owned [`Instr`] form.
    pub fn to_instr(&self) -> Instr {
        match *self {
            InstrView::Op { dst, uses } => Instr::Op {
                dst,
                uses: uses.to_vec(),
            },
            InstrView::Copy { dst, src } => Instr::Copy { dst, src },
            InstrView::Phi { dst, args } => Instr::Phi {
                dst,
                args: args.iter().map(|a| (a.pred, a.value)).collect(),
            },
        }
    }
}

/// The control-flow-transferring end of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond`.
    Branch {
        /// Branch condition (a use).
        cond: Var,
        /// Successor taken when the condition holds.
        then_block: BlockId,
        /// Successor taken otherwise.
        else_block: BlockId,
    },
    /// Function return, using `uses`.
    Return {
        /// Values used by the return.
        uses: Vec<Var>,
    },
}

/// The successor blocks of a [`Terminator`], in terminator order: an
/// allocation-free iterator over at most two blocks.  It owns its blocks,
/// so the function may be edited while it is walked.
#[derive(Debug, Clone)]
pub struct Successors(std::iter::Take<std::array::IntoIter<BlockId, 2>>);

impl Iterator for Successors {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Successors {}

impl Terminator {
    /// Successor blocks of this terminator, in order, without allocating.
    pub fn successors(&self) -> Successors {
        let (blocks, len) = match self {
            Terminator::Jump(b) => ([*b; 2], 1),
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => ([*then_block, *else_block], 2),
            Terminator::Return { .. } => ([BlockId::new(0); 2], 0),
        };
        Successors(blocks.into_iter().take(len))
    }

    /// Variables used by this terminator.
    pub fn uses(&self) -> &[Var] {
        match self {
            Terminator::Jump(_) => &[],
            Terminator::Branch { cond, .. } => std::slice::from_ref(cond),
            Terminator::Return { uses } => uses,
        }
    }

    /// The variables used by this terminator, for in-place substitution.
    pub fn uses_mut(&mut self) -> &mut [Var] {
        match self {
            Terminator::Jump(_) => &mut [],
            Terminator::Branch { cond, .. } => std::slice::from_mut(cond),
            Terminator::Return { uses } => uses,
        }
    }

    /// Replaces a successor block (used by critical-edge splitting).
    pub fn replace_successor(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump(b) => {
                if *b == from {
                    *b = to;
                }
            }
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => {
                if *then_block == from {
                    *then_block = to;
                }
                if *else_block == from {
                    *else_block = to;
                }
            }
            Terminator::Return { .. } => {}
        }
    }
}

/// Discriminant of one instruction record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstrKind {
    Op,
    Copy,
    Phi,
}

/// Sentinel for "no destination" in the compact record.
const NO_VAR: u32 = u32::MAX;

/// One 16-byte instruction record: `start`/`len` index the value pool for
/// `Op` (uses) and `Copy` (the single source), and the φ-arg pool for
/// `Phi`.
#[derive(Debug, Clone, Copy)]
struct InstrData {
    kind: InstrKind,
    dst: u32,
    start: u32,
    len: u32,
}

/// Errors reported by [`Function::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A φ-function's predecessor list does not match the block's actual
    /// predecessors.
    PhiArgsMismatch {
        /// Block containing the offending φ.
        block: BlockId,
    },
    /// A φ-function appears after a non-φ instruction.
    PhiNotAtBlockStart {
        /// Block containing the offending φ.
        block: BlockId,
    },
    /// A terminator or instruction references an out-of-range block.
    BadBlockReference {
        /// Block containing the offending reference.
        block: BlockId,
    },
    /// An instruction references an out-of-range variable.
    BadVariable {
        /// Block containing the offending reference.
        block: BlockId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::PhiArgsMismatch { block } => {
                write!(f, "phi arguments do not match predecessors of {block}")
            }
            ValidationError::PhiNotAtBlockStart { block } => {
                write!(f, "phi after non-phi instruction in {block}")
            }
            ValidationError::BadBlockReference { block } => {
                write!(f, "out-of-range block referenced from {block}")
            }
            ValidationError::BadVariable { block } => {
                write!(f, "out-of-range variable referenced from {block}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A function: an entry block, basic blocks that own their instruction
/// records, and a variable table with optional interned names.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (for printing only).
    pub name: String,
    /// The entry block.
    pub entry: BlockId,
    /// Per-block instruction records, in block order.
    blocks: Vec<Vec<InstrData>>,
    /// Shared pool of op uses and copy sources.
    val_pool: Vec<Var>,
    /// Shared pool of φ-arguments.
    phi_pool: Vec<PhiArg>,
    /// Per-block terminator.
    terminators: Vec<Terminator>,
    /// Per-block loop-nesting depth (0 = not in a loop); a copy in a block
    /// gets affinity weight `10^loop_depth`.
    loop_depths: Vec<u32>,
    /// Per-variable `(start, len)` span into `name_buf`; `len == 0` means
    /// the variable is unnamed.
    name_spans: Vec<(u32, u32)>,
    /// Shared buffer all debug names are interned into.
    name_buf: String,
}

impl Function {
    fn empty(name: String) -> Self {
        Function {
            name,
            entry: BlockId::new(0),
            blocks: Vec::new(),
            val_pool: Vec::new(),
            phi_pool: Vec::new(),
            terminators: Vec::new(),
            loop_depths: Vec::new(),
            name_spans: Vec::new(),
            name_buf: String::new(),
        }
    }

    // -------------------------------------------------------------------
    // Shape queries.
    // -------------------------------------------------------------------

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of variables ever created.
    pub fn num_vars(&self) -> usize {
        self.name_spans.len()
    }

    /// Number of instructions in block `b`.
    pub fn num_instrs(&self, b: BlockId) -> usize {
        self.blocks[b.index()].len()
    }

    /// Total number of instructions over all blocks.
    pub fn num_instrs_total(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// The debug name of a variable, if it has one.
    pub fn var_name(&self, v: Var) -> Option<&str> {
        let (start, len) = self.name_spans[v.index()];
        if len == 0 {
            None
        } else {
            Some(&self.name_buf[start as usize..(start + len) as usize])
        }
    }

    /// Displays a variable by its debug name, falling back to the dense
    /// `%index` form when it is unnamed.
    pub fn var_display(&self, v: Var) -> impl fmt::Display + '_ {
        VarDisplay { f: self, v }
    }

    /// Creates a fresh variable.  The name is interned debug info; an empty
    /// name means "unnamed" and costs no storage.
    pub fn new_var(&mut self, name: impl AsRef<str>) -> Var {
        let v = Var::new(self.name_spans.len());
        let name = name.as_ref();
        if name.is_empty() {
            self.name_spans.push((0, 0));
        } else {
            let start = self.name_buf.len() as u32;
            self.name_buf.push_str(name);
            self.name_spans.push((start, name.len() as u32));
        }
        v
    }

    /// Creates a fresh variable whose debug name is `base`'s name with
    /// `suffix` appended — or an unnamed variable when `base` is unnamed,
    /// so rewrites of release-path (unnamed) code allocate no names.
    pub fn derive_var(&mut self, base: Var, suffix: &str) -> Var {
        let v = Var::new(self.name_spans.len());
        let (start, len) = self.name_spans[base.index()];
        if len == 0 {
            self.name_spans.push((0, 0));
        } else {
            let new_start = self.name_buf.len() as u32;
            let base_name = self.name_buf[start as usize..(start + len) as usize].to_owned();
            self.name_buf.push_str(&base_name);
            self.name_buf.push_str(suffix);
            self.name_spans.push((new_start, len + suffix.len() as u32));
        }
        v
    }

    // -------------------------------------------------------------------
    // Block-level accessors.
    // -------------------------------------------------------------------

    /// Iterates over block identifiers in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// The terminator of a block.
    pub fn terminator(&self, b: BlockId) -> &Terminator {
        &self.terminators[b.index()]
    }

    /// Mutable access to the terminator of a block.
    pub fn terminator_mut(&mut self, b: BlockId) -> &mut Terminator {
        &mut self.terminators[b.index()]
    }

    /// Loop-nesting depth of a block.
    pub fn loop_depth(&self, b: BlockId) -> u32 {
        self.loop_depths[b.index()]
    }

    /// Sets the loop-nesting depth of a block.
    pub fn set_loop_depth(&mut self, b: BlockId, depth: u32) {
        self.loop_depths[b.index()] = depth;
    }

    /// Successors of a block, in terminator order, without allocating.
    pub fn successors(&self, b: BlockId) -> Successors {
        self.terminator(b).successors()
    }

    /// Predecessor lists for every block, indexed by block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.num_blocks()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Reverse post-order of the blocks reachable from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.num_blocks()];
        let mut postorder = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-successor-index).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.index()] = true;
        while let Some((b, i)) = stack.pop() {
            if let Some(s) = self.successors(b).nth(i) {
                stack.push((b, i + 1));
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
            }
        }
        postorder.reverse();
        postorder
    }

    // -------------------------------------------------------------------
    // Instruction reads.
    // -------------------------------------------------------------------

    /// Decodes one record into a borrowed view.
    fn view(&self, d: InstrData) -> InstrView<'_> {
        let (s, l) = (d.start as usize, d.len as usize);
        match d.kind {
            InstrKind::Op => InstrView::Op {
                dst: if d.dst == NO_VAR {
                    None
                } else {
                    Some(Var(d.dst))
                },
                uses: &self.val_pool[s..s + l],
            },
            InstrKind::Copy => InstrView::Copy {
                dst: Var(d.dst),
                src: self.val_pool[s],
            },
            InstrKind::Phi => InstrView::Phi {
                dst: Var(d.dst),
                args: &self.phi_pool[s..s + l],
            },
        }
    }

    /// A view of instruction `i` of block `b`.
    pub fn instr(&self, b: BlockId, i: usize) -> InstrView<'_> {
        self.view(self.blocks[b.index()][i])
    }

    /// Iterates over the instructions of block `b` as borrowed views.
    pub fn block_instrs(
        &self,
        b: BlockId,
    ) -> impl DoubleEndedIterator<Item = InstrView<'_>> + ExactSizeIterator + '_ {
        self.blocks[b.index()].iter().map(move |&d| self.view(d))
    }

    /// Iterates over the φ-instructions at the head of block `b`.
    pub fn phis(&self, b: BlockId) -> impl Iterator<Item = InstrView<'_>> + '_ {
        self.block_instrs(b).take_while(|i| i.is_phi())
    }

    /// Number of φ-instructions at the head of block `b`.
    pub fn num_phis_in(&self, b: BlockId) -> usize {
        self.phis(b).count()
    }

    /// Iterates over all instructions as `(block, index-in-block, view)`.
    pub fn instructions(&self) -> impl Iterator<Item = (BlockId, usize, InstrView<'_>)> + '_ {
        self.block_ids().flat_map(move |b| {
            self.block_instrs(b)
                .enumerate()
                .map(move |(i, instr)| (b, i, instr))
        })
    }

    /// Total number of [`Instr::Copy`] instructions.
    pub fn num_copies(&self) -> usize {
        self.instructions().filter(|(_, _, i)| i.is_copy()).count()
    }

    /// Total number of φ-functions.
    pub fn num_phis(&self) -> usize {
        self.instructions().filter(|(_, _, i)| i.is_phi()).count()
    }

    /// Materialises block `b`'s instructions as owned [`Instr`] values
    /// (for read-modify-write rewrites; see [`Function::set_block_instrs`]).
    pub fn block_instrs_owned(&self, b: BlockId) -> Vec<Instr> {
        self.block_instrs(b).map(|v| v.to_instr()).collect()
    }

    /// Footprint of the function's layout in bytes: 16 per instruction
    /// record, 4 per pooled value operand, 8 per pooled φ-argument, 12 per
    /// block (its record count, capacity and loop depth at 4 bytes each)
    /// and 16 + 4·uses per terminator.  Debug names, `Vec` headers and
    /// spare capacity are excluded.  Pooled operands of instructions that
    /// left their block ([`Function::remove_phis`],
    /// [`Function::set_block_instrs`]) are counted, since the pools keep
    /// them; nothing else outlives its instruction.
    pub fn ir_bytes(&self) -> usize {
        let terminator_bytes: usize = self
            .terminators
            .iter()
            .map(|t| match t {
                Terminator::Return { uses } => 16 + 4 * uses.len(),
                _ => 16,
            })
            .sum();
        self.num_instrs_total() * 16
            + self.val_pool.len() * 4
            + self.phi_pool.len() * 8
            + self.blocks.len() * 12
            + terminator_bytes
    }

    // -------------------------------------------------------------------
    // Mutation.
    // -------------------------------------------------------------------

    /// Appends a new block with the given terminator and loop depth.
    pub fn add_block(&mut self, terminator: Terminator, loop_depth: u32) -> BlockId {
        let b = BlockId::new(self.blocks.len());
        // Generated blocks hold about 6.5 records on average; room for 8
        // saves the reallocations of growing from empty while a block is
        // built.
        self.blocks.push(Vec::with_capacity(8));
        self.terminators.push(terminator);
        self.loop_depths.push(loop_depth);
        b
    }

    /// Interns one owned instruction's operands into the pools, returning
    /// its record.
    fn alloc_instr(&mut self, instr: &Instr) -> InstrData {
        match instr {
            Instr::Op { dst, uses } => self.alloc_op(*dst, uses),
            Instr::Copy { dst, src } => {
                let start = self.val_pool.len() as u32;
                self.val_pool.push(*src);
                InstrData {
                    kind: InstrKind::Copy,
                    dst: dst.0,
                    start,
                    len: 1,
                }
            }
            Instr::Phi { dst, args } => {
                let start = self.phi_pool.len() as u32;
                self.phi_pool
                    .extend(args.iter().map(|&(pred, value)| PhiArg { pred, value }));
                InstrData {
                    kind: InstrKind::Phi,
                    dst: dst.0,
                    start,
                    len: args.len() as u32,
                }
            }
        }
    }

    /// Interns an op without going through an owned `Instr` (no temporary
    /// `Vec` for the uses).
    fn alloc_op(&mut self, dst: Option<Var>, uses: &[Var]) -> InstrData {
        let start = self.val_pool.len() as u32;
        self.val_pool.extend_from_slice(uses);
        InstrData {
            kind: InstrKind::Op,
            dst: dst.map_or(NO_VAR, |d| d.0),
            start,
            len: uses.len() as u32,
        }
    }

    /// Appends an instruction at the end of block `b` (no φ-hoisting).
    pub fn push_instr(&mut self, b: BlockId, instr: Instr) {
        let d = self.alloc_instr(&instr);
        self.blocks[b.index()].push(d);
    }

    /// Appends `dst = op(uses)` at the end of block `b` without building an
    /// owned [`Instr`] first.
    pub fn emit_op(&mut self, b: BlockId, dst: Option<Var>, uses: &[Var]) {
        let d = self.alloc_op(dst, uses);
        self.blocks[b.index()].push(d);
    }

    /// Inserts instructions into block `b`, each at its position in the
    /// block as it stands before the call (`pos == num_instrs(b)` appends).
    /// Positions must not decrease; instructions at the same position keep
    /// the given order.  Each insertion shifts the records after it in
    /// place, which suits the few insertions per block a rewrite makes.
    pub fn splice(&mut self, b: BlockId, insertions: impl IntoIterator<Item = (usize, Instr)>) {
        let mut last = 0;
        for (shift, (pos, instr)) in insertions.into_iter().enumerate() {
            debug_assert!(
                last <= pos && pos + shift <= self.blocks[b.index()].len(),
                "splice position out of range or out of order"
            );
            last = pos;
            let d = self.alloc_instr(&instr);
            self.blocks[b.index()].insert(pos + shift, d);
        }
    }

    /// The variables instruction `i` of block `b` uses at its own point
    /// (an op's uses or a copy's source; empty for a φ), for in-place
    /// substitution.
    pub fn uses_mut(&mut self, b: BlockId, i: usize) -> &mut [Var] {
        let d = self.blocks[b.index()][i];
        match d.kind {
            InstrKind::Phi => &mut [],
            InstrKind::Op | InstrKind::Copy => {
                &mut self.val_pool[d.start as usize..(d.start + d.len) as usize]
            }
        }
    }

    /// The arguments of instruction `i` of block `b` if it is a φ (empty
    /// otherwise), for in-place substitution of values or predecessors.
    pub fn phi_args_mut(&mut self, b: BlockId, i: usize) -> &mut [PhiArg] {
        let d = self.blocks[b.index()][i];
        match d.kind {
            InstrKind::Phi => &mut self.phi_pool[d.start as usize..(d.start + d.len) as usize],
            InstrKind::Op | InstrKind::Copy => &mut [],
        }
    }

    /// Renames the variable instruction `i` of block `b` defines.  The
    /// instruction must define one (an effect-only op has nothing to
    /// rename).
    pub fn set_def(&mut self, b: BlockId, i: usize, dst: Var) {
        let d = &mut self.blocks[b.index()][i];
        debug_assert!(d.dst != NO_VAR, "set_def on an effect-only instruction");
        d.dst = dst.0;
    }

    /// Removes every φ-instruction from block `b` in place.  Returns the
    /// number removed.
    pub fn remove_phis(&mut self, b: BlockId) -> usize {
        let block = &mut self.blocks[b.index()];
        let before = block.len();
        block.retain(|d| d.kind != InstrKind::Phi);
        before - block.len()
    }

    /// Replaces block `b`'s whole instruction sequence (the counterpart of
    /// [`Function::block_instrs_owned`] for read-modify-write rewrites).
    pub fn set_block_instrs(&mut self, b: BlockId, instrs: &[Instr]) {
        let records = instrs.iter().map(|i| self.alloc_instr(i)).collect();
        self.blocks[b.index()] = records;
    }

    // -------------------------------------------------------------------
    // Validation and display.
    // -------------------------------------------------------------------

    /// Structural validation: φs at block starts with arguments matching the
    /// actual predecessors, and all block/variable references in range.
    pub fn validate(&self) -> Result<(), ValidationError> {
        // Check block references first: `predecessors()` indexes by
        // successor, so it must only run on a graph whose edges are in
        // range.
        for b in self.block_ids() {
            for s in self.terminator(b).successors() {
                if s.index() >= self.num_blocks() {
                    return Err(ValidationError::BadBlockReference { block: b });
                }
            }
        }
        let preds = self.predecessors();
        for b in self.block_ids() {
            let mut seen_non_phi = false;
            for instr in self.block_instrs(b) {
                if instr.is_phi() {
                    if seen_non_phi {
                        return Err(ValidationError::PhiNotAtBlockStart { block: b });
                    }
                } else {
                    seen_non_phi = true;
                }
                for v in instr.local_uses().iter().copied().chain(instr.def()) {
                    if v.index() >= self.num_vars() {
                        return Err(ValidationError::BadVariable { block: b });
                    }
                }
                if let InstrView::Phi { args, .. } = instr {
                    let arg_preds: std::collections::BTreeSet<BlockId> =
                        args.iter().map(|a| a.pred).collect();
                    let actual: std::collections::BTreeSet<BlockId> =
                        preds[b.index()].iter().copied().collect();
                    if arg_preds != actual || args.len() != preds[b.index()].len() {
                        return Err(ValidationError::PhiArgsMismatch { block: b });
                    }
                    for a in args {
                        if a.value.index() >= self.num_vars() {
                            return Err(ValidationError::BadVariable { block: b });
                        }
                    }
                }
            }
            for &v in self.terminator(b).uses() {
                if v.index() >= self.num_vars() {
                    return Err(ValidationError::BadVariable { block: b });
                }
            }
        }
        Ok(())
    }
}

struct VarDisplay<'a> {
    f: &'a Function,
    v: Var,
}

impl fmt::Display for VarDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.f.var_name(self.v) {
            Some(name) => f.write_str(name),
            None => write!(f, "%{}", self.v.0),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "function {} (entry {}):", self.name, self.entry)?;
        for b in self.block_ids() {
            writeln!(f, "{b}:  (loop depth {})", self.loop_depth(b))?;
            for instr in self.block_instrs(b) {
                match instr {
                    InstrView::Op { dst: Some(d), uses } => {
                        write!(f, "  {} = op(", self.var_display(d))?;
                        for (i, &u) in uses.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{}", self.var_display(u))?;
                        }
                        writeln!(f, ")")?;
                    }
                    InstrView::Op { dst: None, uses } => {
                        write!(f, "  effect(")?;
                        for (i, &u) in uses.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{}", self.var_display(u))?;
                        }
                        writeln!(f, ")")?;
                    }
                    InstrView::Copy { dst, src } => {
                        writeln!(f, "  {} = {}", self.var_display(dst), self.var_display(src))?;
                    }
                    InstrView::Phi { dst, args } => {
                        write!(f, "  {} = phi(", self.var_display(dst))?;
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{}: {}", a.pred, self.var_display(a.value))?;
                        }
                        writeln!(f, ")")?;
                    }
                }
            }
            match self.terminator(b) {
                Terminator::Jump(t) => writeln!(f, "  jump {t}")?,
                Terminator::Branch {
                    cond,
                    then_block,
                    else_block,
                } => writeln!(
                    f,
                    "  branch {} ? {then_block} : {else_block}",
                    self.var_display(*cond)
                )?,
                Terminator::Return { uses } => {
                    write!(f, "  return")?;
                    for &u in uses {
                        write!(f, " {}", self.var_display(u))?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

/// An incremental builder for [`Function`] values.
///
/// The builder starts with a single entry block; blocks default to an empty
/// `return` terminator until a jump/branch/return is attached.  Variable
/// names are optional debug info (pass `""` for an unnamed variable):
/// construction does zero per-variable allocations on the name path.
#[derive(Debug)]
pub struct FunctionBuilder {
    function: Function,
}

impl FunctionBuilder {
    /// Creates a builder for a function with the given name and one entry
    /// block.
    pub fn new(name: impl Into<String>) -> Self {
        let mut function = Function::empty(name.into());
        function.add_block(Terminator::Return { uses: Vec::new() }, 0);
        FunctionBuilder { function }
    }

    /// The entry block created by [`FunctionBuilder::new`].
    pub fn entry_block(&self) -> BlockId {
        self.function.entry
    }

    /// Creates a new, empty block.
    pub fn new_block(&mut self) -> BlockId {
        self.function
            .add_block(Terminator::Return { uses: Vec::new() }, 0)
    }

    /// Sets the loop-nesting depth of a block.
    pub fn set_loop_depth(&mut self, b: BlockId, depth: u32) {
        self.function.set_loop_depth(b, depth);
    }

    /// Creates a fresh variable without emitting an instruction.
    pub fn fresh_var(&mut self, name: impl AsRef<str>) -> Var {
        self.function.new_var(name)
    }

    /// Emits `v = op()` in `b` (a definition with no uses) and returns `v`.
    pub fn def(&mut self, b: BlockId, name: impl AsRef<str>) -> Var {
        let v = self.function.new_var(name);
        self.function.emit_op(b, Some(v), &[]);
        v
    }

    /// Emits `v = op(uses)` in `b` and returns `v`.
    pub fn op(&mut self, b: BlockId, name: impl AsRef<str>, uses: &[Var]) -> Var {
        let v = self.function.new_var(name);
        self.function.emit_op(b, Some(v), uses);
        v
    }

    /// Emits an effect-only instruction using `uses` (e.g. a store).
    pub fn effect(&mut self, b: BlockId, uses: &[Var]) {
        self.function.emit_op(b, None, uses);
    }

    /// Emits a copy `dst = src` where `dst` is a fresh variable; returns `dst`.
    pub fn copy(&mut self, b: BlockId, name: impl AsRef<str>, src: Var) -> Var {
        let dst = self.function.new_var(name);
        self.function.push_instr(b, Instr::Copy { dst, src });
        dst
    }

    /// Emits a copy between two existing variables.
    pub fn copy_to(&mut self, b: BlockId, dst: Var, src: Var) {
        self.function.push_instr(b, Instr::Copy { dst, src });
    }

    /// Emits `v = φ(args)` at the start of `b`'s φ-group and returns `v`.
    pub fn phi(&mut self, b: BlockId, name: impl AsRef<str>, args: &[(BlockId, Var)]) -> Var {
        let v = self.function.new_var(name);
        let pos = self.function.num_phis_in(b);
        self.function.splice(
            b,
            [(
                pos,
                Instr::Phi {
                    dst: v,
                    args: args.to_vec(),
                },
            )],
        );
        v
    }

    /// Terminates `b` with an unconditional jump.
    pub fn jump(&mut self, b: BlockId, target: BlockId) {
        *self.function.terminator_mut(b) = Terminator::Jump(target);
    }

    /// Terminates `b` with a conditional branch on `cond`.
    pub fn branch(&mut self, b: BlockId, cond: Var, then_block: BlockId, else_block: BlockId) {
        *self.function.terminator_mut(b) = Terminator::Branch {
            cond,
            then_block,
            else_block,
        };
    }

    /// Terminates `b` with a return using `uses`.
    pub fn ret(&mut self, b: BlockId, uses: &[Var]) {
        *self.function.terminator_mut(b) = Terminator::Return {
            uses: uses.to_vec(),
        };
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if the function fails [`Function::validate`]; use
    /// [`FunctionBuilder::try_finish`] to get the error instead.
    pub fn finish(self) -> Function {
        self.try_finish().expect("built function must validate")
    }

    /// Finishes construction, returning a validation error if the function
    /// is malformed.
    pub fn try_finish(self) -> Result<Function, ValidationError> {
        self.function.validate()?;
        Ok(self.function)
    }

    /// Access to the function under construction (for advanced surgery such
    /// as raw instruction appends in tests).
    pub fn function_mut(&mut self) -> &mut Function {
        &mut self.function
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.def(entry, "x");
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.op(t, "y", &[x]);
        b.jump(t, j);
        let z = b.op(e, "z", &[x]);
        b.jump(e, j);
        let w = b.phi(j, "w", &[(t, y), (e, z)]);
        b.ret(j, &[w]);
        b.finish()
    }

    #[test]
    fn builder_produces_valid_diamond() {
        let f = diamond();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_vars(), 5);
        assert_eq!(f.num_phis(), 1);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn successors_and_predecessors() {
        let f = diamond();
        assert_eq!(f.successors(BlockId::new(0)).len(), 2);
        let preds = f.predecessors();
        assert_eq!(preds[3].len(), 2);
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_ends_at_exit() {
        let f = diamond();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(*rpo.last().unwrap(), BlockId::new(3));
    }

    #[test]
    fn instruction_def_and_uses() {
        let i = Instr::Copy {
            dst: Var::new(1),
            src: Var::new(0),
        };
        assert_eq!(i.def(), Some(Var::new(1)));
        assert_eq!(i.local_uses(), vec![Var::new(0)]);
        assert!(i.is_copy());
        let p = Instr::Phi {
            dst: Var::new(2),
            args: vec![(BlockId::new(0), Var::new(0))],
        };
        assert!(p.local_uses().is_empty());
        assert!(p.is_phi());
    }

    #[test]
    fn views_round_trip_through_owned_instrs() {
        let f = diamond();
        for (b, i, view) in f.instructions() {
            let owned = view.to_instr();
            assert_eq!(owned.def(), view.def());
            assert_eq!(owned.local_uses(), view.local_uses().to_vec());
            assert_eq!(owned.is_phi(), view.is_phi());
            assert_eq!(owned.is_copy(), view.is_copy());
            let again = f.instr(b, i);
            assert_eq!(again, view);
        }
    }

    #[test]
    fn phi_args_must_match_predecessors() {
        let mut b = FunctionBuilder::new("bad");
        let entry = b.entry_block();
        let next = b.new_block();
        let x = b.def(entry, "x");
        b.jump(entry, next);
        // φ mentions a block that is not a predecessor of `next`.
        let bogus = b.new_block();
        b.phi(next, "p", &[(bogus, x)]);
        b.ret(next, &[]);
        assert!(matches!(
            b.try_finish(),
            Err(ValidationError::PhiArgsMismatch { .. })
        ));
    }

    #[test]
    fn phi_after_non_phi_is_rejected() {
        let mut b = FunctionBuilder::new("bad");
        let entry = b.entry_block();
        let next = b.new_block();
        b.jump(entry, next);
        let x = b.def(next, "x");
        // Manually append a phi after the op to bypass the builder's
        // phi-hoisting.
        b.function_mut().push_instr(
            next,
            Instr::Phi {
                dst: Var::new(5),
                args: vec![(entry, x)],
            },
        );
        assert!(b.try_finish().is_err());
    }

    #[test]
    fn display_contains_variable_names() {
        let f = diamond();
        let printed = f.to_string();
        assert!(printed.contains("phi("));
        assert!(printed.contains("branch"));
        assert!(printed.contains("return"));
        assert!(printed.contains("w = phi("));
    }

    #[test]
    fn unnamed_variables_display_as_indices() {
        let mut b = FunctionBuilder::new("anon");
        let entry = b.entry_block();
        let x = b.def(entry, "");
        let y = b.op(entry, "", &[x]);
        b.ret(entry, &[y]);
        let f = b.finish();
        assert_eq!(f.var_name(x), None);
        assert!(f.to_string().contains("%1 = op(%0)"));
    }

    #[test]
    fn derive_var_keeps_unnamed_unnamed() {
        let mut b = FunctionBuilder::new("derive");
        let entry = b.entry_block();
        let named = b.def(entry, "x");
        let anon = b.def(entry, "");
        b.ret(entry, &[]);
        let mut f = b.finish();
        let d1 = f.derive_var(named, "_reload");
        let d2 = f.derive_var(anon, "_reload");
        assert_eq!(f.var_name(d1), Some("x_reload"));
        assert_eq!(f.var_name(d2), None);
    }

    #[test]
    fn copies_are_counted() {
        let mut b = FunctionBuilder::new("copies");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.copy(entry, "y", x);
        b.copy_to(entry, x, y);
        b.ret(entry, &[y]);
        let f = b.finish();
        assert_eq!(f.num_copies(), 2);
    }

    #[test]
    fn terminator_replace_successor() {
        let mut t = Terminator::Branch {
            cond: Var::new(0),
            then_block: BlockId::new(1),
            else_block: BlockId::new(2),
        };
        t.replace_successor(BlockId::new(2), BlockId::new(5));
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId::new(1), BlockId::new(5)]
        );
    }

    #[test]
    fn loop_depth_defaults_to_zero_and_is_settable() {
        let mut b = FunctionBuilder::new("loopy");
        let entry = b.entry_block();
        let body = b.new_block();
        b.set_loop_depth(body, 2);
        b.jump(entry, body);
        b.jump(body, body);
        let f = b.finish();
        assert_eq!(f.loop_depth(entry), 0);
        assert_eq!(f.loop_depth(body), 2);
    }

    #[test]
    fn validation_rejects_out_of_range_blocks() {
        let mut b = FunctionBuilder::new("bad");
        let entry = b.entry_block();
        b.jump(entry, BlockId::new(7));
        assert!(matches!(
            b.try_finish(),
            Err(ValidationError::BadBlockReference { .. })
        ));
    }

    #[test]
    fn in_place_edits_and_one_splice_leave_no_dead_storage() {
        let mut f = diamond();
        let (entry, t, j) = (BlockId::new(0), BlockId::new(1), BlockId::new(3));
        let (x, y, w) = (Var::new(0), Var::new(2), Var::new(4));
        let pools = |f: &Function| (f.val_pool.len(), f.phi_pool.len());
        let before = pools(&f);
        // Operand, φ-argument, def and terminator substitution in place.
        f.uses_mut(t, 0)[0] = w;
        assert!(f.uses_mut(j, 0).is_empty());
        assert!(f.phi_args_mut(t, 0).is_empty());
        f.phi_args_mut(j, 0)[0].value = x;
        f.set_def(t, 0, w);
        f.terminator_mut(j).uses_mut()[0] = y;
        assert_eq!(
            f.instr(t, 0),
            InstrView::Op {
                dst: Some(w),
                uses: &[w]
            }
        );
        assert!(matches!(f.instr(j, 0), InstrView::Phi { args, .. } if args[0].value == x));
        assert_eq!(f.terminator(j).uses(), &[y]);
        assert_eq!(pools(&f), before);
        // One splice: pre-insertion positions, equal positions in the
        // given order, `num_instrs` appends; one pooled source per copy.
        let copy = |dst: usize| Instr::Copy {
            dst: Var::new(dst),
            src: x,
        };
        f.splice(
            entry,
            [(0, copy(10)), (1, copy(11)), (1, copy(12)), (2, copy(13))],
        );
        let dsts: Vec<usize> = f
            .block_instrs(entry)
            .map(|i| i.def().unwrap().index())
            .collect();
        assert_eq!(dsts, [10, 0, 11, 12, 1, 13]);
        assert_eq!(pools(&f), (before.0 + 4, before.1));
        // Removing a φ drops its record; its two arguments stay pooled.
        assert_eq!(f.remove_phis(j), 1);
        assert_eq!(f.num_instrs(j), 0);
        assert_eq!(f.num_instrs_total(), 8);
        assert_eq!(pools(&f), (before.0 + 4, 2));
    }

    #[test]
    fn set_block_instrs_round_trips() {
        let mut f = diamond();
        let entry = BlockId::new(0);
        let owned = f.block_instrs_owned(entry);
        assert_eq!(owned.len(), 2);
        let mut edited = owned.clone();
        edited.push(Instr::Op {
            dst: None,
            uses: vec![Var::new(0)],
        });
        f.set_block_instrs(entry, &edited);
        assert_eq!(f.num_instrs(entry), 3);
        assert_eq!(f.block_instrs_owned(entry), edited);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn ir_bytes_counts_records_pools_and_blocks() {
        let f = diamond();
        // 5 records; 2 pooled op uses; one φ with 2 pooled arguments;
        // 4 blocks; three 16-byte terminators and a one-use return.  The
        // formula is documented on `ir_bytes`.
        assert_eq!((f.val_pool.len(), f.phi_pool.len()), (2, 2));
        let expected = 5 * 16 + 2 * 4 + 2 * 8 + 4 * 12 + (16 + 16 + 16 + 16 + 4);
        assert_eq!(f.ir_bytes(), expected);
    }
}
