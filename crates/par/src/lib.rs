//! # matador-par — deterministic scoped-thread parallelism
//!
//! The shared execution substrate behind every hot path of the MATADOR
//! reproduction: per-class Tsetlin Machine feedback, per-window logic
//! optimization in design generation, and the per-dataset rows of the
//! evaluation harnesses.
//!
//! Two properties are load-bearing and tested:
//!
//! 1. **Determinism across thread counts.** Every `par_map*` entry point
//!    collects results in *index* order, regardless of which worker ran
//!    which item, and callers derive all per-item randomness from
//!    [`split_seed`] rather than sharing one RNG stream. An algorithm
//!    built this way is bit-identical at `MATADOR_THREADS=1` and
//!    `MATADOR_THREADS=64` — `tests/parallel_equivalence.rs` in the
//!    workspace root locks this in for trained models, generated
//!    netlists and Table I rows.
//! 2. **No dependencies.** The crate sits below `tsetlin` in the
//!    dependency DAG and is implemented entirely over
//!    [`std::thread::scope`], so it is compatible with the vendored-stub
//!    build environment (no registry access, no `rayon`).
//!
//! ## Thread-count resolution
//!
//! Every entry point takes an explicit worker count. Callers that do not
//! pin one pass [`configured_threads`], which reads the `MATADOR_THREADS`
//! environment variable: unset, `0` or unparseable values resolve to
//! [`available_threads`] (the machine's available parallelism), and `1`
//! forces the sequential in-caller path — the recommended setting for
//! debugging and bisecting, and one leg of the CI matrix.
//!
//! ## Example
//!
//! ```
//! // Squares computed on worker threads, collected in index order.
//! let xs = vec![1u64, 2, 3, 4, 5];
//! let squares = matador_par::par_map_with(4, &xs, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Per-index RNG streams: same derivation no matter who computes it.
//! let a = matador_par::split_seed(42, 0);
//! let b = matador_par::split_seed(42, 1);
//! assert_ne!(a, b);
//! assert_eq!(a, matador_par::split_seed(42, 0));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A worker closure panicked inside a containment-aware entry point
/// ([`try_par_map_mut_with`]). Carries the *lowest* panicked item index
/// (deterministic regardless of which thread ran the item) and the
/// panic payload rendered to a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Lowest item index whose closure invocation panicked.
    pub index: usize,
    /// The panic payload (`&str`/`String` payloads verbatim, anything
    /// else as a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked at item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a caught panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV: &str = "MATADOR_THREADS";

/// The machine's available parallelism (falls back to `1` when the
/// platform cannot report it).
///
/// Read once per process: `std::thread::available_parallelism` reads
/// cgroup files on Linux (tens of µs), and the serving path resolves its
/// thread count on every flush.
pub fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The effective worker count: the `MATADOR_THREADS` override when set to
/// a positive integer, otherwise [`available_threads`].
///
/// `MATADOR_THREADS=1` forces the sequential path (work runs on the
/// calling thread, no workers are spawned); `0` and unparseable values
/// fall back to the default. The variable is re-read on every call so
/// tests and long-lived drivers can change it at runtime.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => available_threads(),
            Ok(n) => n,
        },
        Err(_) => available_threads(),
    }
}

/// Derives an independent RNG seed for stream `stream` of a root seed.
///
/// This is the seed-splitting scheme used throughout the workspace: a
/// SplitMix64-style finalizer over `root ^ (stream * φ64)`, giving
/// decorrelated streams even for consecutive `stream` indices. Callers
/// seed one generator per logical work item — e.g. per class and epoch in
/// TM training — so results never depend on which thread ran the item.
pub fn split_seed(root: u64, stream: u64) -> u64 {
    let mut z = root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in item order (`1` runs sequentially on the calling thread).
///
/// Scheduling is dynamic (an atomic work index), so heterogeneous item
/// costs — logic windows of very different sizes, dataset rows with very
/// different training times — balance automatically. The output order is
/// index order regardless of scheduling.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_with(threads, items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items` on up to `threads` workers,
/// returning results in item order (`1` runs sequentially on the
/// calling thread).
///
/// The index is the item's position in `items` — use it to derive
/// per-item RNG streams with [`split_seed`].
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread (matching the
/// sequential path, where the panic would surface directly).
pub fn par_map_indexed_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Re-assemble in index order: exactly one worker produced each index.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed by exactly one worker"))
        .collect()
}

/// Runs `f(index, &mut item)` over `items` in place, on up to `threads`
/// workers (`1` runs sequentially on the calling thread).
///
/// Items are partitioned into contiguous chunks, one scoped worker per
/// chunk, so each item is mutated by exactly one thread. This is the
/// entry point for per-class TM feedback, where each class owns its
/// clause bank and derives its RNG stream from the index.
///
/// # Panics
///
/// A worker panic propagates to the calling thread when the scope exits.
pub fn par_map_mut_with<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(threads.min(n));
    std::thread::scope(|s| {
        for (ci, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, item) in chunk_items.iter_mut().enumerate() {
                    f(ci * chunk + j, item);
                }
            });
        }
    });
}

/// [`par_map_mut_with`] with **panic containment**: each item's closure
/// invocation runs under [`std::panic::catch_unwind`], so one poisoned
/// item cannot abort its chunk-mates or tear down the calling thread.
///
/// Every item is still attempted — a panic at item `i` does not skip
/// `i+1` — and the workers and caller survive, so the data structure
/// being mapped over stays usable afterwards (the property the serving
/// pool's fault tolerance builds on). Returns the *lowest* panicked
/// index as a typed [`WorkerPanic`], which makes the error value
/// deterministic at any thread count; `Ok(())` when nothing panicked.
///
/// An item whose closure panicked may have been left partially mutated —
/// the caller decides whether that item's state is still meaningful
/// (the serving pool discards and re-dispatches such slices).
///
/// # Errors
///
/// Returns [`WorkerPanic`] naming the lowest panicked item.
pub fn try_par_map_mut_with<T, F>(threads: usize, items: &mut [T], f: F) -> Result<(), WorkerPanic>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let guarded = |i: usize, item: &mut T| -> Option<WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item)))
            .err()
            .map(|payload| WorkerPanic {
                index: i,
                message: panic_message(payload.as_ref()),
            })
    };
    if threads <= 1 || n <= 1 {
        let mut first: Option<WorkerPanic> = None;
        for (i, item) in items.iter_mut().enumerate() {
            if let Some(p) = guarded(i, item) {
                first.get_or_insert(p);
            }
        }
        return match first {
            Some(p) => Err(p),
            None => Ok(()),
        };
    }
    let chunk = n.div_ceil(threads.min(n));
    let chunk_firsts: Vec<Option<WorkerPanic>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, chunk_items)| {
                let guarded = &guarded;
                s.spawn(move || {
                    let mut first: Option<WorkerPanic> = None;
                    for (j, item) in chunk_items.iter_mut().enumerate() {
                        if let Some(p) = guarded(ci * chunk + j, item) {
                            first.get_or_insert(p);
                        }
                    }
                    first
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker closures are panic-contained"))
            .collect()
    });
    // Chunks are contiguous and in index order, so the first chunk with
    // a panic holds the globally lowest panicked index.
    match chunk_firsts.into_iter().flatten().next() {
        Some(p) => Err(p),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn par_map_preserves_index_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_with(threads, &items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items = vec![(); 100];
        let out = par_map_indexed_with(7, &items, |i, ()| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_touches_each_item_once() {
        for threads in [1, 2, 5, 16] {
            let mut items = vec![0u64; 101];
            par_map_mut_with(threads, &mut items, |i, slot| *slot += i as u64 + 1);
            for (i, &v) in items.iter().enumerate() {
                assert_eq!(v, i as u64 + 1, "threads={threads} index={i}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_for_seeded_work() {
        // The property the rest of the workspace builds on: per-index
        // seeded work gives the same answer at any thread count.
        let items: Vec<u64> = (0..64).collect();
        let seq = par_map_indexed_with(1, &items, |i, &x| split_seed(x, i as u64));
        for threads in [2, 4, 32] {
            let par = par_map_indexed_with(threads, &items, |i, &x| split_seed(x, i as u64));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn split_seed_streams_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000u64 {
            assert!(seen.insert(split_seed(7, stream)), "collision at {stream}");
        }
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        assert_ne!(split_seed(7, 3), split_seed(8, 3));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[9u8], |&x| x + 1), vec![10]);
        let mut one = [5u8];
        par_map_mut_with(8, &mut one, |_, x| *x = 6);
        assert_eq!(one, [6]);
    }

    #[test]
    fn trivial_fan_outs_run_on_the_calling_thread() {
        // Explicit threads=1 must never spawn: the closure observes the
        // caller's thread id.
        let caller = std::thread::current().id();
        let many = [0u8; 9];
        let ids = par_map_with(1, &many, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn worker_panic_propagates() {
        let items = vec![0usize; 16];
        let result = std::panic::catch_unwind(|| {
            par_map_indexed_with(4, &items, |i, _| {
                if i == 7 {
                    panic!("boom at 7");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    /// Serializes panic-hook swaps across the containment tests: the
    /// hook is process-global, so concurrent swap/restore would race.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn try_par_map_mut_contains_panics_and_reports_lowest_index() {
        let _guard = HOOK_LOCK.lock().unwrap();
        // Quiet the default panic hook for the intentional panics below.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Deterministic at every thread count (1 and 8 are the CI matrix
        // legs): same typed error, same surviving mutations.
        for threads in [1, 2, 8] {
            let mut items: Vec<u64> = vec![0; 16];
            let err = try_par_map_mut_with(threads, &mut items, |i, slot| {
                if i == 11 || i == 5 {
                    panic!("boom at {i}");
                }
                *slot = i as u64 + 1;
            })
            .expect_err("two items panic");
            assert_eq!(
                err,
                WorkerPanic {
                    index: 5,
                    message: "boom at 5".to_string(),
                },
                "threads={threads}"
            );
            assert!(err.to_string().contains("item 5"), "{err}");
            // Containment: every non-panicking item was still mutated,
            // including the ones *after* the panics in the same chunk.
            for (i, &v) in items.iter().enumerate() {
                let expected = if i == 11 || i == 5 { 0 } else { i as u64 + 1 };
                assert_eq!(v, expected, "threads={threads} index={i}");
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn try_par_map_mut_succeeds_and_stays_reusable_after_a_panic() {
        let _guard = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut items = vec![0u64; 9];
        try_par_map_mut_with(8, &mut items, |i, slot| {
            if i == 0 {
                panic!("poisoned");
            }
            *slot = 1;
        })
        .expect_err("item 0 panics");
        // The same buffer (and the plain entry points) work fine after
        // containment — nothing was torn down.
        try_par_map_mut_with(8, &mut items, |_, slot| *slot += 1).expect("clean run");
        assert_eq!(items[0], 1);
        assert!(items[1..].iter().all(|&v| v == 2));
        let doubled = par_map_with(8, &items, |&v| v * 2);
        assert_eq!(doubled[1..], vec![4; 8]);
        std::panic::set_hook(prev);
    }

    #[test]
    fn env_override_resolution() {
        // Serialize env mutation against other tests in this binary.
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var(THREADS_ENV, "1");
        assert_eq!(configured_threads(), 1);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(configured_threads(), available_threads());
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(configured_threads(), available_threads());
        std::env::remove_var(THREADS_ENV);
        assert_eq!(configured_threads(), available_threads());
        assert!(available_threads() >= 1);
    }
}
