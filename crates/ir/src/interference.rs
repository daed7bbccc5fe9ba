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

use crate::function::{Function, InstrView, Var};
use crate::liveness::Liveness;
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
    /// One pass over the blocks collects every interference edge into a
    /// flat list — an edge may be emitted more than once, e.g. when a
    /// non-SSA variable is defined several times while the other end is
    /// live — and [`Graph::from_edges`] bulk-builds the sorted,
    /// deduplicated rows at the end.  Affinities on the same unordered pair
    /// are merged by one sort of the normalised `(a ≤ b)` pairs, their
    /// weights summed with saturation; the result is ordered by pair.
    pub fn build_with(f: &Function, liveness: &Liveness, options: BuildOptions) -> Self {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        let mut affinities = Vec::new();

        for b in f.block_ids() {
            let weight = loop_weight(f.loop_depth(b));

            // Parallel φ definitions at the block entry are simultaneously
            // live; make them pairwise interfere.
            let phi_defs: Vec<Var> = f.phis(b).filter_map(|p| p.def()).collect();
            for (i, &p) in phi_defs.iter().enumerate() {
                for &q in &phi_defs[i + 1..] {
                    add_edge(&mut edges, p, q);
                }
                // φ results also interfere with everything live into the
                // block (other than themselves).
                for v in liveness.live_in(b).iter() {
                    if v != p {
                        add_edge(&mut edges, p, v);
                    }
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
                if let Some(d) = instr.def() {
                    for v in live_after.iter() {
                        if v == d {
                            continue;
                        }
                        if options.kind == InterferenceKind::Chaitin {
                            if let InstrView::Copy { src, .. } = instr {
                                if v == src {
                                    continue;
                                }
                            }
                        }
                        add_edge(&mut edges, d, v);
                    }
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
            graph: Graph::from_edges(f.num_vars(), edges),
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

fn add_edge(edges: &mut Vec<(VertexId, VertexId)>, a: Var, b: Var) {
    if a != b {
        edges.push((VertexId::new(a.index()), VertexId::new(b.index())));
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
