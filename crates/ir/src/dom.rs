//! Dominator trees and dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
//! Dominance Algorithm").  The dominance tree is the backbone of both SSA
//! construction (φ placement at dominance frontiers) and of Theorem 1: the
//! live range of an SSA variable is a subtree of the dominance tree, which
//! is why SSA interference graphs are chordal.

use crate::function::{BlockId, Function};

/// Immediate-dominator information for the blocks of a function.
#[derive(Debug, Clone)]
pub struct DominatorTree {
    /// `idom[b]` is the immediate dominator of `b`; the entry block is its
    /// own immediate dominator.  Unreachable blocks have `None`.
    idom: Vec<Option<BlockId>>,
    /// Blocks in reverse post-order (reachable blocks only).
    rpo: Vec<BlockId>,
    entry: BlockId,
}

impl DominatorTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let rpo = f.reverse_postorder();
        let mut rpo_number = vec![usize::MAX; f.num_blocks()];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_number[b.index()] = i;
        }
        let preds = f.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; f.num_blocks()];
        idom[f.entry.index()] = Some(f.entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_number[a.index()] > rpo_number[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while rpo_number[b.index()] > rpo_number[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if rpo_number[p.index()] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        DominatorTree {
            idom,
            rpo,
            entry: f.entry,
        }
    }

    /// Returns `true` if `a` dominates `b` (every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() {
            // b unreachable: nothing dominates it except conventionally itself.
            return a == b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable block has idom");
        }
    }

    /// Returns `true` if `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Blocks in reverse post-order (reachable blocks only).
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Children lists of the dominator tree, indexed by block.
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        let mut children = vec![Vec::new(); self.idom.len()];
        for (i, parent) in self.idom.iter().enumerate() {
            let b = BlockId::new(i);
            if let Some(p) = parent {
                if *p != b {
                    children[p.index()].push(b);
                }
            }
        }
        children
    }

    /// Computes the dominance frontier of every block.
    ///
    /// `DF(b)` is the set of blocks `y` such that `b` dominates a
    /// predecessor of `y` but does not strictly dominate `y`.
    pub fn dominance_frontiers(&self, f: &Function) -> Vec<Vec<BlockId>> {
        let preds = f.predecessors();
        let mut frontiers: Vec<Vec<BlockId>> = vec![Vec::new(); f.num_blocks()];
        for b in f.block_ids() {
            if !self.is_reachable(b) || preds[b.index()].len() < 2 {
                continue;
            }
            let idom_b = self.idom[b.index()].expect("reachable");
            for &p in &preds[b.index()] {
                if !self.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != idom_b {
                    if !frontiers[runner.index()].contains(&b) {
                        frontiers[runner.index()].push(b);
                    }
                    runner = self.idom[runner.index()].expect("reachable");
                }
            }
        }
        frontiers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;

    /// entry -> {then, else} -> join, then join -> exit
    fn diamond_with_exit() -> (Function, [BlockId; 5]) {
        let mut b = FunctionBuilder::new("f");
        let entry = b.entry_block();
        let then_ = b.new_block();
        let else_ = b.new_block();
        let join = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.branch(entry, c, then_, else_);
        b.jump(then_, join);
        b.jump(else_, join);
        b.jump(join, exit);
        b.ret(exit, &[]);
        (b.finish(), [entry, then_, else_, join, exit])
    }

    use crate::function::Function;

    #[test]
    fn idoms_of_diamond() {
        let (f, [entry, then_, else_, join, exit]) = diamond_with_exit();
        let dom = DominatorTree::compute(&f);
        assert_eq!(dom.idom[entry.index()], Some(entry));
        assert_eq!(dom.idom[then_.index()], Some(entry));
        assert_eq!(dom.idom[else_.index()], Some(entry));
        assert_eq!(dom.idom[join.index()], Some(entry));
        assert_eq!(dom.idom[exit.index()], Some(join));
    }

    #[test]
    fn dominates_is_reflexive_and_follows_tree() {
        let (f, [entry, then_, _, join, exit]) = diamond_with_exit();
        let dom = DominatorTree::compute(&f);
        assert!(dom.dominates(entry, exit));
        assert!(dom.dominates(join, exit));
        assert!(!dom.dominates(then_, join));
        assert!(dom.dominates(then_, then_));
    }

    #[test]
    fn dominance_frontiers_of_diamond() {
        let (f, [_, then_, else_, join, exit]) = diamond_with_exit();
        let dom = DominatorTree::compute(&f);
        let df = dom.dominance_frontiers(&f);
        assert_eq!(df[then_.index()], vec![join]);
        assert_eq!(df[else_.index()], vec![join]);
        assert!(df[join.index()].is_empty());
        assert!(df[exit.index()].is_empty());
    }

    #[test]
    fn loop_dominance() {
        // entry -> header; header -> body|exit; body -> header
        let mut b = FunctionBuilder::new("loop");
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.jump(entry, header);
        b.branch(header, c, body, exit);
        b.jump(body, header);
        b.ret(exit, &[]);
        let f = b.finish();
        let dom = DominatorTree::compute(&f);
        assert_eq!(dom.idom[body.index()], Some(header));
        assert_eq!(dom.idom[exit.index()], Some(header));
        // The loop body's dominance frontier contains the header.
        let df = dom.dominance_frontiers(&f);
        assert!(df[body.index()].contains(&header));
        assert!(df[header.index()].contains(&header));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut b = FunctionBuilder::new("unreachable");
        let entry = b.entry_block();
        let dead = b.new_block();
        b.ret(entry, &[]);
        b.ret(dead, &[]);
        let f = b.finish();
        let dom = DominatorTree::compute(&f);
        assert!(!dom.is_reachable(dead));
        assert!(dom.is_reachable(entry));
        assert_eq!(dom.idom[dead.index()], None);
    }

    #[test]
    fn children_lists_match_idoms() {
        let (f, [entry, then_, else_, join, exit]) = diamond_with_exit();
        let dom = DominatorTree::compute(&f);
        let children = dom.children();
        let mut entry_children = children[entry.index()].clone();
        entry_children.sort();
        assert_eq!(entry_children, vec![then_, else_, join]);
        assert_eq!(children[join.index()], vec![exit]);
    }
}
