//! Bounds the heap traffic of a warmed [`Front`]: once its buffers have
//! grown, admitting, batching, flushing and delivering a request costs
//! at most 0.02 allocations on average. The input copy reuses a flushed
//! buffer, the reorder stage is a ring, the batch and its inputs live in
//! vectors the front keeps, and a pool flush runs in buffers the pool
//! keeps. What remains is the reply vector each `take_replies` hands out
//! (one allocation per 64-reply block: the front delivers into a buffer
//! sized for the block it last handed out) and the amortised growth of
//! the lifetime logs (latencies, batch records, engine results): 71
//! allocations per 4096 requests.
//!
//! Measured with a counting global allocator, as in the simulator's
//! `no_alloc` test, so a stray per-request clone fails here.

use matador_serve::{Front, FrontOptions, ServeOptions, ShardPool};
use matador_sim::LANES;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsetlin::bits::BitVec;

mod common;

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

const TENANTS: u32 = 4;

/// Submits `blocks` full lane blocks, one request per virtual cycle
/// round-robin over the tenants, and drops the replies after each block
/// as a driver would. Returns the requests admitted.
fn drive(front: &mut Front<'_>, inputs: &[BitVec], blocks: usize) -> u64 {
    let mut admitted = 0;
    for _ in 0..blocks {
        for i in 0..LANES {
            let now = front.now() + 1;
            front.advance_to(now).expect("advance");
            front
                .submit(&inputs[i % inputs.len()], now + 2_000, i as u32 % TENANTS)
                .expect("admitted");
            admitted += 1;
        }
        assert_eq!(front.take_replies().len(), LANES, "one block, one flush");
    }
    admitted
}

// One test function: the allocation counter is process-global, and
// cargo runs tests within one binary in parallel.
#[test]
fn warmed_front_allocates_at_most_once_per_request() {
    let accel = common::accel();
    let options = ServeOptions {
        threads: Some(1),
        ..ServeOptions::turbo(4)
    };
    let pool = ShardPool::with_options(&accel, options).expect("valid options");
    let mut front = Front::new(pool, FrontOptions::new()).expect("valid options");
    let inputs: Vec<BitVec> = (0..LANES)
        .map(|i| BitVec::from_indices(12, &[i % 12, (i * 5) % 12]))
        .collect();

    // Warm: tenant entries, rings, queues, the timer heap and the
    // spare-buffer list reach their steady sizes.
    drive(&mut front, &inputs, 64);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let admitted = drive(&mut front, &inputs, 64);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_request = allocations as f64 / admitted as f64;
    assert!(
        per_request <= 0.02,
        "{allocations} allocations for {admitted} requests ({per_request:.2} per request)"
    );
}
