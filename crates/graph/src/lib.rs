//! Graph substrate for the register-coalescing reproduction.
//!
//! This crate provides the graph-theoretic machinery that the paper
//! *On the Complexity of Register Coalescing* (Bouchez, Darte, Rastello)
//! relies on:
//!
//! * an undirected [`Graph`] type with efficient vertex **merging**
//!   (contraction), the fundamental operation behind coalescing;
//! * **chordality** testing via Maximum Cardinality Search and perfect
//!   elimination orderings ([`chordal`]), with LexBFS ([`lexbfs`]) kept as
//!   the independent oracle the tests compare against;
//! * **clique trees** of chordal graphs ([`cliquetree`]), used by the
//!   polynomial incremental-coalescing algorithm of Theorem 5;
//! * **minimal triangulation** by MCS-M fill-in ([`fillin`]), which makes a
//!   graph chordal again after a merge;
//! * **greedy-k-colorability** (the Chaitin/Briggs simplification scheme)
//!   and the coloring number `col(G)` ([`greedy`]);
//! * graph **coloring** algorithms: greedy over an order, DSATUR, and
//!   exact solving with optional same-color constraints ([`coloring`]);
//! * the pruned exact-decision engine behind the exponential queries
//!   ([`solver`]): component decomposition, clique seeding, fresh-color
//!   symmetry breaking and a transposition table, with instrumentation;
//! * maximal-clique enumeration and the exact clique number for small
//!   graphs ([`cliques`]);
//! * the DIMACS `.col` and coalescing-challenge text formats ([`mod@format`]);
//! * the **clique lifting** of Property 2 that transports NP-completeness
//!   results from `k` registers to `k + p` registers ([`lift`]);
//! * a small disjoint-set (union-find) utility ([`dsu`]) used to track which
//!   original vertices have been merged together.
//!
//! # Example
//!
//! ```
//! use coalesce_graph::{Graph, chordal, greedy};
//!
//! // A 4-cycle is not chordal; adding a chord makes it chordal.
//! let mut g = Graph::new(4);
//! g.add_edge(0.into(), 1.into());
//! g.add_edge(1.into(), 2.into());
//! g.add_edge(2.into(), 3.into());
//! g.add_edge(3.into(), 0.into());
//! assert!(!chordal::is_chordal(&g));
//! g.add_edge(0.into(), 2.into());
//! assert!(chordal::is_chordal(&g));
//! assert!(greedy::is_greedy_k_colorable(&g, 3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chordal;
pub mod cliques;
pub mod cliquetree;
pub mod coloring;
pub mod dsu;
pub mod fillin;
pub mod format;
pub mod graph;
pub mod greedy;
pub mod lexbfs;
pub mod lift;
pub mod solver;

pub use coloring::Coloring;
pub use dsu::DisjointSets;
pub use graph::{Graph, VertexId};
pub use solver::{ExactSolver, SolverStats};
