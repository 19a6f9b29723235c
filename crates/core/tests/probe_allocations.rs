//! A warm `Δ` probe allocates per `Δ` term, never per segment: replaying
//! eight segments' partials costs exactly the allocations of replaying one.
//! Counted with a thread-local counting allocator, so only the probing
//! thread's allocations are seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xinsight_core::xplainer::SearchContext;
use xinsight_core::{WhyQuery, XPlainerOptions};
use xinsight_data::{Aggregate, DatasetBuilder, SegmentedDataset, Subspace, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter is a const-initialized `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Twelve rows of `X ∈ {a, b}`, `Y ∈ {p, q, r}` and an integer measure
/// (so every exact sum stays a single partial), sealed into `segments`
/// segments.
fn store(segments: usize) -> SegmentedDataset {
    let row = |i: usize| {
        vec![
            Value::from(["a", "b"][i % 2]),
            Value::from(["p", "q", "r"][i % 3]),
            Value::from((i % 5) as f64),
        ]
    };
    let base = 12 - (segments - 1);
    let first: Vec<usize> = (0..base).collect();
    let mut store = SegmentedDataset::from_dataset(
        DatasetBuilder::new()
            .dimension("X", first.iter().map(|&i| ["a", "b"][i % 2]))
            .dimension("Y", first.iter().map(|&i| ["p", "q", "r"][i % 3]))
            .measure("M", first.iter().map(|&i| (i % 5) as f64))
            .build()
            .unwrap(),
    );
    for i in base..12 {
        store = store.append_rows(&[row(i)]).unwrap();
    }
    assert_eq!(store.n_segments(), segments);
    store
}

#[test]
fn a_warm_delta_without_allocates_the_same_over_1_and_8_segments() {
    let query = WhyQuery::new(
        "M",
        Aggregate::Sum,
        Subspace::of("X", "a"),
        Subspace::of("X", "b"),
    )
    .unwrap();
    let options = XPlainerOptions {
        parallel: false,
        ..XPlainerOptions::default()
    };
    let mut counts = Vec::new();
    let mut answers = Vec::new();
    for segments in [1, 8] {
        let store = store(segments);
        let ctx = SearchContext::build(&store, &query, "Y", &options).unwrap();
        let cold = ctx.delta_without(&[0, 2]);
        let mut warm = None;
        counts.push(allocations_during(|| warm = ctx.delta_without(&[0, 2])));
        assert_eq!(warm, cold);
        answers.push(warm.map(f64::to_bits));
    }
    assert_eq!(answers[0], answers[1], "segmentation must not change Δ");
    assert_eq!(
        counts[0], counts[1],
        "allocations per warm probe: {counts:?}"
    );
}
