//! The single-instruction edits the rewrite passes used before in-place
//! operand substitution and block splices, rebuilt on the whole-block
//! exchange form (`block_instrs_owned` / `set_block_instrs`) so that the
//! verbatim reference implementations in the equivalence tests keep
//! their original lines.  Only the printed function and the variable
//! numbering are compared, so the arena layout these helpers leave
//! behind does not matter.

use coalesce_ir::function::{BlockId, Function, Instr};

/// `replace_instr` / `insert_instr` as the reference passes call them.
pub trait LegacyEdits {
    /// Replaces the instruction at position `pos` of block `b`.
    fn replace_instr(&mut self, b: BlockId, pos: usize, instr: Instr);
    /// Inserts an instruction at position `pos` of block `b`.
    fn insert_instr(&mut self, b: BlockId, pos: usize, instr: Instr);
}

impl LegacyEdits for Function {
    fn replace_instr(&mut self, b: BlockId, pos: usize, instr: Instr) {
        let mut instrs = self.block_instrs_owned(b);
        instrs[pos] = instr;
        self.set_block_instrs(b, &instrs);
    }

    fn insert_instr(&mut self, b: BlockId, pos: usize, instr: Instr) {
        let mut instrs = self.block_instrs_owned(b);
        instrs.insert(pos, instr);
        self.set_block_instrs(b, &instrs);
    }
}
