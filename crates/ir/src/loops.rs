//! Natural-loop detection and loop-nesting depths.
//!
//! Affinity weights in the paper's setting represent "dynamic execution
//! count of the copy instruction" (§2.1); the standard static estimate is
//! `10^depth` where `depth` is the loop-nesting depth of the block holding
//! the copy.  The [`FunctionBuilder`](crate::function::FunctionBuilder)
//! lets callers set depths by hand; this module computes them from the CFG
//! itself so that generated and hand-written programs get consistent
//! weights:
//!
//! * a **back edge** is an edge `t → h` where `h` dominates `t`;
//! * the **natural loop** of a back edge is `h` plus every block that can
//!   reach `t` without passing through `h`;
//! * the **nesting depth** of a block is the number of natural loops that
//!   contain it (loops with the same header are merged, following the usual
//!   convention).

use crate::dom::DominatorTree;
use crate::function::{BlockId, Function};
use std::collections::BTreeSet;

/// One natural loop: its header and its body (which includes the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (the target of the back edge(s)).
    pub header: BlockId,
    /// All blocks of the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// The sources of the back edges that define this loop (the "latches").
    pub latches: Vec<BlockId>,
}

impl NaturalLoop {
    /// Number of blocks in the loop.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// `true` if the loop body is empty (never the case for a detected
    /// loop, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// `true` if `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// The loop forest of a function.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Detected natural loops, one per header (back edges sharing a header
    /// are merged into a single loop).
    pub loops: Vec<NaturalLoop>,
    /// `depth[b.index()]` is the loop-nesting depth of block `b`.
    pub depth: Vec<u32>,
}

impl LoopInfo {
    /// Computes the natural loops and nesting depths of `f`.
    pub fn compute(f: &Function) -> Self {
        let dom = DominatorTree::compute(f);
        Self::compute_with(f, &dom)
    }

    /// Like [`LoopInfo::compute`] but reuses an already computed dominator
    /// tree.
    pub fn compute_with(f: &Function, dom: &DominatorTree) -> Self {
        // 1. Find back edges t -> h with h dominating t, grouped by header.
        let mut latches_by_header: Vec<Vec<BlockId>> = vec![Vec::new(); f.num_blocks()];
        for t in f.block_ids() {
            if !dom.is_reachable(t) {
                continue;
            }
            for h in f.successors(t) {
                if dom.dominates(h, t) {
                    latches_by_header[h.index()].push(t);
                }
            }
        }

        // 2. For every header, gather the merged natural loop by walking
        //    predecessors backwards from each latch, stopping at the header.
        let preds = f.predecessors();
        let mut loops = Vec::new();
        for h in f.block_ids() {
            let latches = latches_by_header[h.index()].clone();
            if latches.is_empty() {
                continue;
            }
            let mut body: BTreeSet<BlockId> = BTreeSet::new();
            body.insert(h);
            let mut stack: Vec<BlockId> = Vec::new();
            for &t in &latches {
                if body.insert(t) {
                    stack.push(t);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &preds[b.index()] {
                    if dom.is_reachable(p) && body.insert(p) {
                        stack.push(p);
                    }
                }
            }
            loops.push(NaturalLoop {
                header: h,
                body,
                latches,
            });
        }

        // 3. Depth = number of loops containing the block.
        let mut depth = vec![0u32; f.num_blocks()];
        for l in &loops {
            for &b in &l.body {
                depth[b.index()] += 1;
            }
        }
        LoopInfo { loops, depth }
    }

    /// Loop-nesting depth of `b`.
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Number of detected loops.
    pub fn num_loops(&self) -> usize {
        self.loops.len()
    }
}

/// Returns `true` when the CFG of `f` is reducible.
///
/// A CFG is reducible iff deleting every *back edge* (an edge `t → h`
/// whose target `h` dominates its source `t`) leaves an acyclic graph:
/// in a reducible CFG every cycle is a natural loop entered through its
/// header, so every retreating edge is a back edge.  Unreachable blocks
/// are ignored (they belong to no execution).
pub fn is_reducible(f: &Function) -> bool {
    let dom = DominatorTree::compute(f);
    // DFS with colors over the CFG minus its back edges; a gray→gray edge
    // is a cycle that no dominating header explains.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; f.num_blocks()];
    // Each frame carries the block's non-back-edge successors, computed
    // once when the block is first pushed.
    let forward_succs = |b: BlockId| -> Vec<BlockId> {
        f.successors(b).filter(|&s| !dom.dominates(s, b)).collect()
    };
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = vec![(f.entry, forward_succs(f.entry), 0)];
    color[f.entry.index()] = GRAY;
    while let Some((b, succs, i)) = stack.pop() {
        if i < succs.len() {
            let s = succs[i];
            stack.push((b, succs, i + 1));
            match color[s.index()] {
                WHITE => {
                    color[s.index()] = GRAY;
                    stack.push((s, forward_succs(s), 0));
                }
                GRAY => return false,
                _ => {}
            }
        } else {
            color[b.index()] = BLACK;
        }
    }
    true
}

/// Computes loop depths from the CFG and stores them into every block's
/// `loop_depth` field, overwriting any hand-set values.  Returns the number
/// of detected loops.
pub fn annotate_loop_depths(f: &mut Function) -> usize {
    let info = LoopInfo::compute(f);
    for b in f.block_ids() {
        f.set_loop_depth(b, info.depth_of(b));
    }
    info.num_loops()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;

    /// entry -> header -> body -> header (loop), header -> exit.
    fn simple_loop() -> Function {
        let mut b = FunctionBuilder::new("loop");
        let entry = b.entry_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.jump(entry, header);
        b.branch(header, c, body, exit);
        let x = b.def(body, "x");
        b.effect(body, &[x]);
        b.jump(body, header);
        b.ret(exit, &[]);
        b.finish()
    }

    #[test]
    fn detects_a_single_natural_loop() {
        let f = simple_loop();
        let info = LoopInfo::compute(&f);
        assert_eq!(info.num_loops(), 1);
        let l = &info.loops[0];
        assert_eq!(l.header, BlockId::new(1));
        assert_eq!(l.len(), 2); // header + body
        assert_eq!(l.latches, vec![BlockId::new(2)]);
        assert!(!l.is_empty());
    }

    #[test]
    fn depths_are_one_inside_the_loop_and_zero_outside() {
        let f = simple_loop();
        let info = LoopInfo::compute(&f);
        assert_eq!(info.depth_of(BlockId::new(0)), 0); // entry
        assert_eq!(info.depth_of(BlockId::new(1)), 1); // header
        assert_eq!(info.depth_of(BlockId::new(2)), 1); // body
        assert_eq!(info.depth_of(BlockId::new(3)), 0); // exit
    }

    #[test]
    fn nested_loops_have_depth_two() {
        // entry -> h1 -> h2 -> b2 -> h2 (inner), h2 -> l1 -> h1 (outer), h1 -> exit.
        let mut b = FunctionBuilder::new("nested");
        let entry = b.entry_block();
        let h1 = b.new_block();
        let h2 = b.new_block();
        let b2 = b.new_block();
        let l1 = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.jump(entry, h1);
        b.branch(h1, c, h2, exit);
        b.branch(h2, c, b2, l1);
        b.jump(b2, h2);
        b.jump(l1, h1);
        b.ret(exit, &[]);
        let f = b.finish();

        let info = LoopInfo::compute(&f);
        assert_eq!(info.num_loops(), 2);
        assert_eq!(info.depth_of(h1), 1);
        assert_eq!(info.depth_of(h2), 2);
        assert_eq!(info.depth_of(b2), 2);
        assert_eq!(info.depth_of(l1), 1);
        assert_eq!(info.depth_of(exit), 0);
        let outer = info.loops.iter().find(|l| l.header == h1).unwrap();
        let inner = info.loops.iter().find(|l| l.header == h2).unwrap();
        assert!(inner.contains(b2));
        assert!(inner.body.is_subset(&outer.body) && inner.len() < outer.len());
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("straight");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        b.ret(entry, &[x]);
        let f = b.finish();
        let info = LoopInfo::compute(&f);
        assert_eq!(info.num_loops(), 0);
        assert_eq!(info.depth_of(entry), 0);
    }

    #[test]
    fn annotate_overwrites_block_depths() {
        let mut f = simple_loop();
        // Pretend a front end set bogus depths.
        for b in f.block_ids() {
            f.set_loop_depth(b, 7);
        }
        let n = annotate_loop_depths(&mut f);
        assert_eq!(n, 1);
        assert_eq!(f.loop_depth(BlockId::new(0)), 0);
        assert_eq!(f.loop_depth(BlockId::new(2)), 1);
    }

    #[test]
    fn natural_loops_and_straight_code_are_reducible() {
        assert!(is_reducible(&simple_loop()));
        let mut b = FunctionBuilder::new("straight");
        let entry = b.entry_block();
        b.ret(entry, &[]);
        assert!(is_reducible(&b.finish()));
    }

    #[test]
    fn two_entry_cycle_is_irreducible() {
        // entry branches to both A and B while A and B form a cycle: the
        // cycle has two entries, so neither node dominates the other and
        // the classic irreducible shape appears.
        let mut b = FunctionBuilder::new("irreducible");
        let entry = b.entry_block();
        let a = b.new_block();
        let bb = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.branch(entry, c, a, bb);
        let ca = b.def(a, "ca");
        b.branch(a, ca, bb, exit);
        b.jump(bb, a);
        b.ret(exit, &[]);
        let f = b.finish();
        assert!(!is_reducible(&f));
        // ...and no natural loop is detected: the cycle has no dominating
        // header.
        assert_eq!(LoopInfo::compute(&f).num_loops(), 0);
    }

    #[test]
    fn self_loop_is_its_own_header_and_latch() {
        let mut b = FunctionBuilder::new("selfloop");
        let entry = b.entry_block();
        let l = b.new_block();
        let exit = b.new_block();
        let c = b.def(entry, "c");
        b.jump(entry, l);
        b.branch(l, c, l, exit);
        b.ret(exit, &[]);
        let f = b.finish();
        let info = LoopInfo::compute(&f);
        assert_eq!(info.num_loops(), 1);
        assert_eq!(info.loops[0].header, l);
        assert_eq!(info.loops[0].latches, vec![l]);
        assert_eq!(info.loops[0].len(), 1);
        assert_eq!(info.depth_of(l), 1);
    }
}
