//! Bounds the heap traffic of design generation: listing, prefix
//! counting, extraction, the DAG build and LUT mapping allocate per
//! window, not per cube. A sparse trained model's windows are mostly
//! empty or single-literal cubes, and the flow lists them into one
//! literal arena instead of a vector each.
//!
//! Two seeded sparse models with 13 windows of 64 features, 400 and 2000
//! clauses, generate with at most `PER_WINDOW` allocations per window
//! (sequential generation, the model moved in). Measured: 72 and 92 per
//! window. A flow that gives every cube (and every extracted cube, mapped
//! LUT and divisor holder list) a vector of its own made 624 per window
//! on the 400-clause model.
//!
//! Measured with a counting global allocator, as in the serving crate's
//! `front_no_alloc` test.

use matador::{AcceleratorDesign, MatadorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsetlin::bits::BitVec;
use tsetlin::model::{IncludeMask, TrainedModel};

/// Counts every allocation/reallocation; frees are not counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation bound per generated window.
const PER_WINDOW: u64 = 120;

/// A seeded model shaped like a trained one: each literal is included
/// with probability 1/200, and a quarter of the clauses copy an earlier
/// clause, so windows share pairs and prefixes.
fn sparse_model(features: usize, classes: usize, clauses_per_class: usize) -> TrainedModel {
    let mut state = 0x5EED_u64;
    let mut next = move |bound: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut masks: Vec<IncludeMask> = Vec::new();
    for _ in 0..classes * clauses_per_class {
        let mask = if !masks.is_empty() && next(4) == 0 {
            masks[next(masks.len())].clone()
        } else {
            let pos: Vec<usize> = (0..features).filter(|_| next(200) == 0).collect();
            let neg: Vec<usize> = (0..features).filter(|_| next(200) == 0).collect();
            IncludeMask {
                pos: BitVec::from_indices(features, &pos),
                neg: BitVec::from_indices(features, &neg),
            }
        };
        masks.push(mask);
    }
    TrainedModel::from_masks(features, classes, clauses_per_class, masks)
}

// One test function: the allocation counter is process-global, and
// cargo runs tests within one binary in parallel.
#[test]
fn generation_allocates_per_window_not_per_cube() {
    let config = MatadorConfig::builder()
        .bus_width(64)
        .build()
        .expect("valid config");
    for clauses_per_class in [40, 200] {
        let model = sparse_model(784, 10, clauses_per_class);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let design = AcceleratorDesign::generate_with_threads(model, config.clone(), 1);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let windows = design.num_hcbs() as u64;
        assert_eq!(windows, 13);
        assert!(
            allocations <= PER_WINDOW * windows,
            "{allocations} allocations for {windows} windows of {} clauses",
            10 * clauses_per_class
        );
        drop(design);
    }
}
