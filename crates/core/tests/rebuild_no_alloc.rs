//! In-place re-preparation guarantee: once a [`PreparedChordal`] session
//! has been built over a graph, rebuilding it over that graph again reuses
//! every buffer and performs no heap allocation.
//!
//! Uses a counting global allocator with a *thread-local* tally so the
//! assertion is immune to concurrent test threads allocating.

use coalesce_core::incremental::PreparedChordal;
use coalesce_graph::{Graph, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// An interval graph of `n` staggered live ranges of varying length, plus
/// a few isolated vertices (so the tree has stitched components).
fn interval_graph(n: usize) -> Graph {
    let ranges: Vec<(usize, usize)> = (0..n).map(|i| (i, i + 1 + i * 7 % 5)).collect();
    let mut edges = Vec::new();
    for (i, &(a1, b1)) in ranges.iter().enumerate() {
        for (j, &(a2, b2)) in ranges.iter().enumerate().skip(i + 1) {
            if a1.max(a2) <= b1.min(b2) {
                edges.push((VertexId::new(i), VertexId::new(j)));
            }
        }
    }
    Graph::from_edges(n + 3, edges)
}

#[test]
fn rebuilding_a_session_in_place_does_not_allocate() {
    let mut g = interval_graph(200);
    let mut session = PreparedChordal::prepare(&g).expect("interval graphs are chordal");
    let n = allocations_during(|| {
        for _ in 0..10 {
            assert!(session.rebuild(&g));
        }
    });
    assert_eq!(n, 0, "rebuilding over the same graph must not allocate");

    // Merging live ranges [0, 1] and [2, 7] leaves an interval graph with
    // one vertex fewer; after one warm-up rebuild the session again
    // rebuilds without allocating.
    g.merge(VertexId::new(2), VertexId::new(0));
    assert!(session.rebuild(&g));
    let n = allocations_during(|| assert!(session.rebuild(&g)));
    assert_eq!(n, 0, "rebuilding over a merged graph must not allocate");
}
