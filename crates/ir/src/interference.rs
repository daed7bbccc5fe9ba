//! Interference-graph and affinity construction.
//!
//! Following §2.1 of the paper, two variables *interfere* when they cannot
//! share a register.  Two definitions are supported:
//!
//! * [`InterferenceKind::Intersection`] — two variables interfere iff their
//!   live ranges intersect (the definition used for strict programs);
//! * [`InterferenceKind::Chaitin`] — Chaitin et al.'s relaxation: the
//!   source of a copy does not interfere with its destination at the copy
//!   itself (they hold the same value there), which removes exactly the
//!   edges that would make every copy impossible to coalesce.
//!
//! *Affinities* (the dotted edges of the paper's figures) are extracted
//! from copy instructions and, optionally, from φ-functions: coalescing a
//! φ-related pair removes the move that the out-of-SSA translation would
//! otherwise have to insert on the incoming edge.  Affinity weights model
//! dynamic execution counts as `10^loop_depth`, clamped by
//! [`crate::spill::loop_weight`].
//!
//! # Representation
//!
//! The build keeps interference as a dense bit matrix, as the classical
//! Chaitin and Briggs–Cooper–Torczon allocators did: one row of
//! `⌈n/64⌉` words per variable, `n·⌈n/64⌉·8` bytes in all for `n`
//! variables.  Each definition ORs the live-after cursor of the liveness
//! walk into its row a word at a time, one pass closes the matrix under
//! symmetry, and scanning a row's set bits yields it sorted and
//! deduplicated for [`Graph::from_sorted_rows`].  On the seed-42 module
//! (4 000 functions, SSA and lowered forms) the largest function has 637
//! variables, a 51 KB matrix; the largest E15 CFG program (12 648
//! variables) needs about 20 MB for the length of the build.

use crate::function::{Function, InstrView, Var};
use crate::liveness::{Liveness, VarSet};
use crate::spill::loop_weight;
use coalesce_graph::{Graph, VertexId};

/// Which notion of interference to use when building the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterferenceKind {
    /// Live-range intersection (strict-program definition).
    Intersection,
    /// Chaitin's definition: copy sources do not interfere with the copy
    /// destination at the copy itself.
    #[default]
    Chaitin,
}

/// A coalescing candidate: merging `a` and `b` saves `weight` move
/// executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity {
    /// First variable of the move.
    pub a: Var,
    /// Second variable of the move.
    pub b: Var,
    /// Estimated dynamic execution count of the move.
    pub weight: u64,
}

/// An interference graph with affinities, plus the variable ↔ vertex
/// correspondence (vertex `i` is variable `i`).
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    /// The interference graph; vertex `i` corresponds to [`Var::new`]`(i)`.
    pub graph: Graph,
    /// The affinities (coalescing candidates) extracted from the program.
    pub affinities: Vec<Affinity>,
}

/// Options controlling interference-graph construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Interference definition to use.
    pub kind: InterferenceKind,
    /// Whether to add affinities between φ results and their arguments.
    pub phi_affinities: bool,
    /// Whether to add affinities for explicit copy instructions.
    pub copy_affinities: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            kind: InterferenceKind::Chaitin,
            phi_affinities: true,
            copy_affinities: true,
        }
    }
}

impl InterferenceGraph {
    /// Builds the interference graph of `f` with default options
    /// (Chaitin-style interference, copy and φ affinities).
    pub fn build(f: &Function, liveness: &Liveness) -> Self {
        Self::build_with(f, liveness, BuildOptions::default())
    }

    /// Builds the interference graph of `f` with explicit options.
    ///
    /// One pass over the blocks fills an `n × ⌈n/64⌉` bit matrix, `n =
    /// f.num_vars()`, so it takes `n·⌈n/64⌉·8` bytes while it lives:
    ///
    /// * each definition ORs the reverse liveness walk's live-after cursor
    ///   into its row, one word at a time.  A Chaitin copy then clears its
    ///   source's bit again unless the row held it before the OR — another
    ///   definition of the same variable may have made that pair interfere;
    /// * the φ results of a block interfere pairwise, dead ones included.
    ///   Their edges to the block's live-in set need no extra rule: the
    ///   live-after cursor of every φ holds that set;
    /// * the diagonal is cleared, one pass over the set bits closes the
    ///   matrix under symmetry, and each row's set bits are read out in
    ///   ascending order, which is the sorted, deduplicated row
    ///   [`Graph::from_sorted_rows`] takes as it is.
    ///
    /// Affinities on the same unordered pair are merged by one sort of the
    /// normalised `(a ≤ b)` pairs, their weights summed with saturation;
    /// the result is ordered by pair.
    pub fn build_with(f: &Function, liveness: &Liveness, options: BuildOptions) -> Self {
        let mut matrix = BitMatrix::new(f.num_vars());
        let mut affinities = Vec::new();

        for b in f.block_ids() {
            let weight = loop_weight(f.loop_depth(b));

            // Parallel φ definitions at the block entry are simultaneously
            // live; make them pairwise interfere.
            for (i, p) in f.phis(b).filter_map(|p| p.def()).enumerate() {
                for q in f.phis(b).filter_map(|q| q.def()).skip(i + 1) {
                    matrix.set(p, q);
                }
            }

            // Stream the per-point live sets backwards through the block:
            // when the cursor stands at point `i + 1` it is exactly the set
            // live *after* instruction `i`, so the definition edges fall
            // out of one reverse walk with a single reused cursor set.
            liveness.for_each_point_rev(f, b, |point, live_after| {
                if point == 0 {
                    return;
                }
                let instr = f.instr(b, point - 1);
                let Some(d) = instr.def() else {
                    return;
                };
                match instr {
                    InstrView::Copy { src, .. } if options.kind == InterferenceKind::Chaitin => {
                        let held = matrix.contains(d, src);
                        matrix.or_row(d, live_after);
                        if !held {
                            matrix.clear(d, src);
                        }
                    }
                    _ => matrix.or_row(d, live_after),
                }
            });

            for instr in f.block_instrs(b) {
                match instr {
                    InstrView::Copy { dst, src } if options.copy_affinities && dst != src => {
                        affinities.push(Affinity {
                            a: dst,
                            b: src,
                            weight,
                        });
                    }
                    InstrView::Phi { dst, args } if options.phi_affinities => {
                        for a in args {
                            if a.value != dst {
                                let w = loop_weight(f.loop_depth(a.pred));
                                affinities.push(Affinity {
                                    a: dst,
                                    b: a.value,
                                    weight: w,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Deduplicate affinities on the same unordered pair, summing weights.
        for aff in &mut affinities {
            if aff.a > aff.b {
                std::mem::swap(&mut aff.a, &mut aff.b);
            }
        }
        affinities.sort_unstable_by_key(|aff| (aff.a, aff.b));
        affinities.dedup_by(|later, kept| {
            let same = (later.a, later.b) == (kept.a, kept.b);
            if same {
                kept.weight = kept.weight.saturating_add(later.weight);
            }
            same
        });

        InterferenceGraph {
            graph: matrix.into_graph(),
            affinities,
        }
    }

    /// The graph vertex corresponding to a variable.
    pub fn vertex(&self, v: Var) -> VertexId {
        VertexId::new(v.index())
    }

    /// The variable corresponding to a graph vertex.
    pub fn var(&self, v: VertexId) -> Var {
        Var::new(v.index())
    }

    /// Returns `true` if the two variables interfere.
    pub fn interferes(&self, a: Var, b: Var) -> bool {
        self.graph
            .has_edge(VertexId::new(a.index()), VertexId::new(b.index()))
    }

    /// Total weight of all affinities (saturating at `u64::MAX`).
    pub fn total_affinity_weight(&self) -> u64 {
        self.affinities
            .iter()
            .fold(0, |sum, a| sum.saturating_add(a.weight))
    }

    /// Affinities as vertex pairs with weights (for the coalescing crate).
    pub fn affinity_edges(&self) -> Vec<(VertexId, VertexId, u64)> {
        self.affinities
            .iter()
            .map(|a| {
                (
                    VertexId::new(a.a.index()),
                    VertexId::new(a.b.index()),
                    a.weight,
                )
            })
            .collect()
    }
}

/// A square bit matrix over variables: row `v` is `words` `u64`s whose
/// bit `u % 64` of word `u / 64` marks the pair `(v, u)`.
struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    fn index(&self, v: Var, u: Var) -> (usize, u64) {
        (
            v.index() * self.words + u.index() / 64,
            1 << (u.index() % 64),
        )
    }

    fn contains(&self, v: Var, u: Var) -> bool {
        let (w, mask) = self.index(v, u);
        self.bits[w] & mask != 0
    }

    fn set(&mut self, v: Var, u: Var) {
        let (w, mask) = self.index(v, u);
        self.bits[w] |= mask;
    }

    fn clear(&mut self, v: Var, u: Var) {
        let (w, mask) = self.index(v, u);
        self.bits[w] &= !mask;
    }

    /// ORs `set` into row `v`.
    fn or_row(&mut self, v: Var, set: &VarSet) {
        let row = &mut self.bits[v.index() * self.words..][..self.words];
        for (dst, &src) in row.iter_mut().zip(set.words()) {
            *dst |= src;
        }
    }

    /// Clears the diagonal, closes the matrix under symmetry and reads the
    /// rows out as a [`Graph`].
    fn into_graph(mut self) -> Graph {
        let (n, words) = (self.n, self.words);
        for v in 0..n {
            self.bits[v * words + v / 64] &= !(1 << (v % 64));
        }
        // A bit set in row `v` at column `u` sets `(u, v)`; a bit this
        // pass sets is the mirror of one already set, so one pass closes.
        for v in 0..n {
            for w in 0..words {
                let mut word = self.bits[v * words + w];
                while word != 0 {
                    let u = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.bits[u * words + v / 64] |= 1 << (v % 64);
                }
            }
        }
        let rows = (0..n)
            .map(|v| {
                let row = &self.bits[v * words..][..words];
                let degree = row.iter().map(|w| w.count_ones() as usize).sum();
                let mut out = Vec::with_capacity(degree);
                for (w, &word) in row.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        out.push(VertexId::new(w * 64 + word.trailing_zeros() as usize));
                        word &= word - 1;
                    }
                }
                out
            })
            .collect();
        Graph::from_sorted_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::liveness::Liveness;
    use coalesce_graph::chordal;

    #[test]
    fn simultaneously_live_variables_interfere() {
        let mut b = FunctionBuilder::new("f");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.def(entry, "y");
        let z = b.op(entry, "z", &[x, y]);
        b.ret(entry, &[z]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        assert!(ig.interferes(x, y));
        assert!(!ig.interferes(x, z));
        assert!(!ig.interferes(y, z));
    }

    #[test]
    fn chaitin_copy_source_does_not_interfere() {
        // x = ...; y = x; use(x, y): under Chaitin, x and y interfere only
        // because of the later simultaneous use point -- check both kinds on
        // the simpler program where x dies at the copy.
        let mut b = FunctionBuilder::new("copy");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.copy(entry, "y", x);
        b.ret(entry, &[y]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let chaitin = InterferenceGraph::build_with(
            &f,
            &live,
            BuildOptions {
                kind: InterferenceKind::Chaitin,
                ..BuildOptions::default()
            },
        );
        assert!(!chaitin.interferes(x, y));
        assert_eq!(chaitin.affinities.len(), 1);
        assert_eq!(chaitin.affinities[0].weight, 1);
    }

    #[test]
    fn intersection_kind_keeps_copy_interference_when_source_lives_on() {
        // y = x; use(x) afterwards: x is live across y's definition.
        let mut b = FunctionBuilder::new("copy2");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.copy(entry, "y", x);
        b.ret(entry, &[x, y]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let inter = InterferenceGraph::build_with(
            &f,
            &live,
            BuildOptions {
                kind: InterferenceKind::Intersection,
                ..BuildOptions::default()
            },
        );
        assert!(inter.interferes(x, y));
        let chaitin = InterferenceGraph::build(&f, &live);
        // Chaitin ignores the interference at the copy itself, but x is also
        // live at the return together with y; the return is a use, not a
        // def, so no edge is added there either.
        assert!(!chaitin.interferes(x, y));
    }

    #[test]
    fn phi_affinities_are_extracted() {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.def(t, "y");
        b.jump(t, j);
        let z = b.def(e, "z");
        b.jump(e, j);
        let w = b.phi(j, "w", &[(t, y), (e, z)]);
        b.ret(j, &[w]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        let pairs: Vec<(Var, Var)> = ig.affinities.iter().map(|a| (a.a, a.b)).collect();
        assert!(pairs.contains(&(y, w)) || pairs.contains(&(w, y)));
        assert!(pairs.contains(&(z, w)) || pairs.contains(&(w, z)));
        // y and z are never simultaneously live: no interference.
        assert!(!ig.interferes(y, z));
    }

    #[test]
    fn loop_depth_weights_affinities() {
        let mut b = FunctionBuilder::new("weighted");
        let entry = b.entry_block();
        let body = b.new_block();
        b.set_loop_depth(body, 2);
        let x = b.def(entry, "x");
        b.jump(entry, body);
        let y = b.copy(body, "y", x);
        b.effect(body, &[y]);
        b.jump(body, body);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        assert_eq!(ig.affinities.len(), 1);
        assert_eq!(ig.affinities[0].weight, 100);
    }

    #[test]
    fn parallel_phi_results_interfere() {
        let mut b = FunctionBuilder::new("two_phis");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let a1 = b.def(t, "a1");
        let b1 = b.def(t, "b1");
        b.jump(t, j);
        let a2 = b.def(e, "a2");
        let b2 = b.def(e, "b2");
        b.jump(e, j);
        let pa = b.phi(j, "pa", &[(t, a1), (e, a2)]);
        let pb = b.phi(j, "pb", &[(t, b1), (e, b2)]);
        b.ret(j, &[pa, pb]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        assert!(ig.interferes(pa, pb));
        assert!(ig.interferes(a1, b1));
        assert!(!ig.interferes(a1, a2));
    }

    #[test]
    fn ssa_interference_graph_is_chordal_theorem_1() {
        // A slightly larger SSA program: the interference graph must be
        // chordal and its clique number must match Maxlive (Theorem 1).
        let mut b = FunctionBuilder::new("t1");
        let entry = b.entry_block();
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        let a = b.def(entry, "a");
        let bb = b.def(entry, "b");
        let c = b.op(entry, "c", &[a, bb]);
        b.branch(entry, c, t, e);
        let d = b.op(t, "d", &[a]);
        let g = b.op(t, "g", &[d, bb]);
        b.jump(t, j);
        let h = b.op(e, "h", &[bb]);
        b.jump(e, j);
        let p = b.phi(j, "p", &[(t, g), (e, h)]);
        let q = b.op(j, "q", &[p, a]);
        b.ret(j, &[q]);
        let f = b.finish();
        assert!(crate::ssa::is_strict(&f));
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build_with(
            &f,
            &live,
            BuildOptions {
                kind: InterferenceKind::Intersection,
                ..BuildOptions::default()
            },
        );
        assert!(chordal::is_chordal(&ig.graph));
        let omega = chordal::chordal_clique_number(&ig.graph).unwrap();
        assert_eq!(omega, live.maxlive_precise(&f));
    }

    #[test]
    fn duplicate_copies_merge_their_weights() {
        let mut b = FunctionBuilder::new("dups");
        let entry = b.entry_block();
        let x = b.def(entry, "x");
        let y = b.fresh_var("y");
        b.copy_to(entry, y, x);
        b.effect(entry, &[y]);
        b.copy_to(entry, y, x);
        b.ret(entry, &[y]);
        let f = b.finish();
        let live = Liveness::compute(&f);
        let ig = InterferenceGraph::build(&f, &live);
        assert_eq!(ig.affinities.len(), 1);
        assert_eq!(ig.affinities[0].weight, 2);
    }
}
