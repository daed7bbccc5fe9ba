//! Workload generators for the coalescing experiments.
//!
//! The paper's empirical context — the Appel–George "coalescing challenge",
//! permutations of values at high register pressure, SSA programs — is not
//! redistributable, so this crate generates synthetic workloads with the
//! same structural signatures:
//!
//! * [`graphs`] — random graphs, random interval/chordal graphs, random
//!   greedy-`k`-colorable graphs;
//! * [`programs`] — random structured SSA programs (straight-line blocks and
//!   if/else diamonds with φ-functions) with a configurable register
//!   pressure;
//! * [`cfg`](mod@cfg) — SPEC-like structured CFGs: nested natural loops with
//!   loop-carried φs, if/else and switch regions, call-clobber points and
//!   shape profiles, reducible by construction (with an irreducible knob);
//! * [`module`] — whole modules: 1000+-function translation units whose
//!   per-function shape/pressure/size mix is drawn from one seeded stream,
//!   with independently seeded function bodies safe to generate in
//!   parallel;
//! * [`permutation`] — the Figure 3 gadgets: a permutation of `n` values to
//!   be implemented by parallel moves, optionally embedded in a high-degree
//!   context where the local Briggs/George rules fail;
//! * [`challenge`] — "coalescing challenge"-style instances: interference
//!   graphs of generated programs after spilling to `Maxlive ≤ k` and
//!   translating out of SSA, carrying many parallel-copy affinities;
//! * [`trace`] — seeded mixed-workload JSONL request traces for the
//!   allocation service (`coalesce-serve`) and its E18 chaos soak.
//!
//! All generators take an explicit seed and are fully deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod challenge;
pub mod families;
pub mod graphs;
pub mod module;
pub mod permutation;
pub mod programs;
pub mod trace;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates the deterministic RNG used by every generator in this crate.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}
