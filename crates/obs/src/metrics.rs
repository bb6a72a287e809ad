//! Metrics core: sharded counters, gauges and log2 histograms behind a
//! [`Registry`], with Prometheus text exposition and structured
//! snapshots.
//!
//! ## Design rules
//!
//! Recording is **atomics-only**: after a handle has been resolved from
//! the registry (which takes a lock and may allocate, so do it at
//! construction/warm-up time), `inc`/`add`/`set`/`record` never lock,
//! never allocate and never branch on anything but the global enable
//! gate. That is what lets the serving stack keep its zero-allocation
//! warmed paths (`crates/sim/tests/no_alloc.rs`) and bit-identical
//! replay (`tests/*_determinism.rs`) with metrics on: a metric is a pure
//! sink, never an input to control flow.
//!
//! The enable gate is one relaxed atomic load. It defaults to **on**,
//! can be forced off for a process with `MATADOR_METRICS=0`, toggled at
//! runtime with [`set_enabled`], and compiled out entirely with the
//! `noop` cargo feature (every record path becomes a constant-false
//! branch the optimizer deletes).

use std::collections::BTreeMap;
use std::fmt::Write as _;
#[cfg(not(feature = "noop"))]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Independent cells a [`Counter`] stripes increments over to keep
/// unrelated threads off each other's cache lines.
pub const COUNTER_SHARDS: usize = 8;

/// Number of log2 buckets in a [`Histogram`]; bucket `i` holds values
/// whose bit length is `i` (so its inclusive upper bound is `2^i - 1`),
/// with the last bucket absorbing everything wider.
pub const HISTOGRAM_BUCKETS: usize = 64;

// --- Global enable gate ------------------------------------------------

// 0 = unresolved (consult MATADOR_METRICS), 1 = off, 2 = on.
#[cfg(not(feature = "noop"))]
static ENABLED_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether metric recording is currently enabled.
///
/// Defaults to on; the first call consults the `MATADOR_METRICS`
/// environment variable (`0`/`off`/`false` disable), after which the
/// check is a single relaxed atomic load. Compiled to a constant `false`
/// under the `noop` feature.
#[cfg(not(feature = "noop"))]
#[inline]
pub fn enabled() -> bool {
    match ENABLED_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve_enabled(),
    }
}

#[cfg(not(feature = "noop"))]
#[cold]
fn resolve_enabled() -> bool {
    let on = !matches!(
        std::env::var("MATADOR_METRICS").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    );
    ENABLED_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether metric recording is currently enabled (always `false`: this
/// build compiled the recorder out with the `noop` feature).
#[cfg(feature = "noop")]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Turns metric recording on or off for the whole process, overriding
/// `MATADOR_METRICS`. A no-op under the `noop` feature.
pub fn set_enabled(on: bool) {
    #[cfg(not(feature = "noop"))]
    ENABLED_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    #[cfg(feature = "noop")]
    let _ = on;
}

// --- Per-thread counter cell hint --------------------------------------

static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CELL_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[inline]
fn cell_index() -> usize {
    CELL_HINT.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_CELL.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            c.set(v);
            v
        }
    })
}

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

// --- Metric kinds ------------------------------------------------------

/// Monotonically increasing event count, striped over
/// [`COUNTER_SHARDS`] cache-line-padded cells so concurrent shard
/// workers don't serialize on one line.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. One relaxed `fetch_add` on the calling thread's cell;
    /// nothing when recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.cells[cell_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all cells.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes the counter (benchmark/test plumbing, not a hot path).
    pub fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// Point-in-time signed value (queue depths, deficits, current plan).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A free-standing gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge. One relaxed store; nothing when disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). One relaxed `fetch_add`; nothing
    /// when disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

/// Fixed-shape log2 histogram: [`HISTOGRAM_BUCKETS`] buckets where
/// bucket `i` counts samples of bit length `i` (inclusive upper bound
/// `2^i - 1`), plus a running sum and count. The shape is fixed at
/// compile time so recording is three relaxed `fetch_add`s and the
/// registry never reallocates.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A free-standing histogram (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Three relaxed `fetch_add`s; nothing when
    /// disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds every sample of `batch` and empties it: the same snapshot as
    /// recording each of them here, for one relaxed `fetch_add` per
    /// non-empty bucket plus two.
    pub fn absorb(&self, batch: &mut HistogramBatch) {
        if batch.count == 0 {
            return;
        }
        for (bucket, &n) in self.buckets.iter().zip(&batch.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(batch.sum, Ordering::Relaxed);
        self.count.fetch_add(batch.count, Ordering::Relaxed);
        *batch = HistogramBatch::new();
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Snapshot of the non-empty buckets as `(inclusive upper bound,
    /// cumulative count ≤ bound)` pairs in ascending-bound order; the
    /// final pair always carries `u64::MAX` (the `+Inf` bucket) and the
    /// total count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                let le = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                buckets.push((le, cumulative));
            }
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count: self.count(),
        }
    }

    /// Zeroes every bucket, the sum and the count.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// The [`Histogram`] bucket of `v`: its bit length, with the last
/// bucket absorbing everything wider.
#[inline]
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Samples bound for one [`Histogram`], kept in plain integers by a
/// single owner and added to the shared histogram in one
/// [`Histogram::absorb`]. Recording costs no atomic operation, so a hot
/// loop records here and publishes once per batch of work. Recording
/// reads the enable gate per sample, as [`Histogram::record`] does.
#[derive(Debug, Clone)]
pub struct HistogramBatch {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    count: u64,
}

impl Default for HistogramBatch {
    fn default() -> Self {
        HistogramBatch {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample locally; nothing when recording is disabled.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_of(v)] += 1;
        // The shared sum wraps like an atomic `fetch_add`; so does this.
        self.sum = self.sum.wrapping_add(v);
        self.count += 1;
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

// --- Registry ----------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// Name + label-set keyed home of every metric. Registration (the only
/// locking, allocating operation) returns an [`Arc`] handle; callers
/// resolve handles once at construction and record through them
/// lock-free afterwards. Registering the same `(name, labels)` twice
/// returns the same underlying metric, so independent components can
/// share a series without coordination.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<(String, String), Entry>>,
}

impl Registry {
    /// An empty registry. Most callers want [`Registry::global`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry the serving stack records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Resolves (registering on first sight) the counter `name{labels}`.
    /// `labels` is a raw Prometheus label body (`tenant="3"`), empty for
    /// none.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn counter(&self, name: &str, labels: &str, help: &'static str) -> Arc<Counter> {
        match self.resolve(name, labels, help, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name}{{{labels}}} already registered with a different kind"),
        }
    }

    /// Resolves (registering on first sight) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn gauge(&self, name: &str, labels: &str, help: &'static str) -> Arc<Gauge> {
        match self.resolve(name, labels, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name}{{{labels}}} already registered with a different kind"),
        }
    }

    /// Resolves (registering on first sight) the histogram
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn histogram(&self, name: &str, labels: &str, help: &'static str) -> Arc<Histogram> {
        match self.resolve(name, labels, help, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name}{{{labels}}} already registered with a different kind"),
        }
    }

    fn resolve(
        &self,
        name: &str,
        labels: &str,
        help: &'static str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .entry((name.to_owned(), labels.to_owned()))
            .or_insert_with(|| Entry {
                help,
                metric: make(),
            })
            .metric
            .clone()
    }

    /// Zeroes every registered metric (benchmark/test plumbing; handles
    /// stay valid).
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("registry poisoned");
        for entry in inner.values() {
            match &entry.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (`# HELP`/`# TYPE` once per family, histogram
    /// `_bucket{le=...}`/`_sum`/`_count` expansion).
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), entry) in inner.iter() {
            if name != last_family {
                let kind = match entry.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {name} {}", entry.help);
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
            last_family = name;
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", name, brace(labels), c.value());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", name, brace(labels), g.value());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for &(le, cumulative) in &snap.buckets {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            brace(&join_labels(labels, &le_label(le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        brace(&join_labels(labels, "le=\"+Inf\"")),
                        snap.count
                    );
                    let _ = writeln!(out, "{name}_sum{} {}", brace(labels), snap.sum);
                    let _ = writeln!(out, "{name}_count{} {}", brace(labels), snap.count);
                }
            }
        }
        out
    }

    /// Structured point-in-time copy of every registered series, in
    /// `(name, labels)` order — the JSON writer's and delta math's view.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let samples = inner
            .iter()
            .map(|((name, labels), entry)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match &entry.metric {
                    Metric::Counter(c) => SampleValue::Counter(c.value()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.value()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { samples }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("series", &n).finish()
    }
}

fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_owned()
    } else {
        format!("{labels},{extra}")
    }
}

fn le_label(le: u64) -> String {
    if le == u64::MAX {
        "le=\"+Inf\"".to_owned()
    } else {
        format!("le=\"{le}\"")
    }
}

// --- Snapshots ---------------------------------------------------------

/// One series captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric family name.
    pub name: String,
    /// Raw Prometheus label body (`tenant="3"`), empty for none.
    pub labels: String,
    /// The captured value.
    pub value: SampleValue,
}

/// Captured value of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram buckets + sum + count.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of a [`Histogram`]: non-empty `(le, cumulative
/// count)` pairs (ascending; `le == u64::MAX` is the `+Inf` bucket)
/// plus the running sum and count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, cumulative count ≤ bound)` pairs.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

/// Point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Every series, in `(name, labels)` order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// The counter `name{labels}`, 0 when absent.
    pub fn counter(&self, name: &str, labels: &str) -> u64 {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .and_then(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Sum of the counter family `name` over every label set.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// `self.counter(...) - earlier.counter(...)` (saturating): the
    /// per-window reading for a counter sampled before and after a run.
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str, labels: &str) -> u64 {
        self.counter(name, labels)
            .saturating_sub(earlier.counter(name, labels))
    }
}

/// Serializes tests that toggle the process-wide enable gate.
#[cfg(all(test, not(feature = "noop")))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn counter_stripes_and_sums() {
        let _g = test_lock();
        set_enabled(true);
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_concurrent_adds_are_lossless() {
        let _g = test_lock();
        set_enabled(true);
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let _g = test_lock();
        set_enabled(true);
        let g = Gauge::new();
        g.set(5);
        g.add(-8);
        assert_eq!(g.value(), -3);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _g = test_lock();
        set_enabled(true);
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 255, 256, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 4 + 255 + 256)
                .wrapping_add(u64::MAX)
        );
        // v=0 → le 0; v=1 → le 1; v∈{2,3} → le 3; v=4 → le 7;
        // v=255 → le 255; v=256 → le 511; u64::MAX → +Inf.
        let les: Vec<u64> = snap.buckets.iter().map(|b| b.0).collect();
        assert_eq!(les, vec![0, 1, 3, 7, 255, 511, u64::MAX]);
        // Cumulative counts are monotone and end at the total.
        assert!(snap.buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(snap.buckets.last().expect("non-empty").1, snap.count);
    }

    #[test]
    fn disabled_recording_is_invisible() {
        let _g = test_lock();
        set_enabled(true);
        let c = Counter::new();
        let h = Histogram::new();
        set_enabled(false);
        c.inc();
        h.record(9);
        set_enabled(true);
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn absorbing_a_batch_matches_recording_each_sample() {
        let _g = test_lock();
        set_enabled(true);
        let direct = Histogram::new();
        let batched = Histogram::new();
        // Two rounds into the same shared histogram: absorb empties the
        // batch, so nothing is added twice.
        for round in [
            &[0u64, 1, 2, 3, 4, 255, 256][..],
            &[7, 7, 1 << 40, u64::MAX],
        ] {
            let mut batch = HistogramBatch::new();
            for &v in round {
                direct.record(v);
                batch.record(v);
            }
            batched.absorb(&mut batch);
            assert_eq!(batched.snapshot(), direct.snapshot());
            // The batch is empty now: absorbing it again adds nothing.
            batched.absorb(&mut batch);
            assert_eq!(batched.snapshot(), direct.snapshot());
        }
    }

    #[test]
    fn disabled_batches_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        let h = Histogram::new();
        let mut batch = HistogramBatch::new();
        batch.record(9);
        set_enabled(true);
        h.absorb(&mut batch);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_dedups_and_renders_prometheus() {
        let _g = test_lock();
        set_enabled(true);
        let r = Registry::new();
        let a = r.counter("t_total", "kind=\"x\"", "test counter");
        let b = r.counter("t_total", "kind=\"x\"", "test counter");
        a.add(3);
        b.add(4);
        let g = r.gauge("t_depth", "", "test gauge");
        g.set(-2);
        let h = r.histogram("t_lat", "", "test histogram");
        h.record(5);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE t_total counter"), "{text}");
        assert!(text.contains("t_total{kind=\"x\"} 7"), "{text}");
        assert!(text.contains("# TYPE t_depth gauge"), "{text}");
        assert!(text.contains("t_depth -2"), "{text}");
        assert!(text.contains("t_lat_bucket{le=\"7\"} 1"), "{text}");
        assert!(text.contains("t_lat_bucket{le=\"127\"} 2"), "{text}");
        assert!(text.contains("t_lat_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("t_lat_sum 105"), "{text}");
        assert!(text.contains("t_lat_count 2"), "{text}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("t_mismatch", "", "as counter");
        r.gauge("t_mismatch", "", "as gauge");
    }

    #[test]
    fn snapshot_deltas() {
        let _g = test_lock();
        set_enabled(true);
        let r = Registry::new();
        let c = r.counter("t_evt_total", "op=\"a\"", "events");
        c.add(2);
        let before = r.snapshot();
        c.add(5);
        let after = r.snapshot();
        assert_eq!(after.counter("t_evt_total", "op=\"a\""), 7);
        assert_eq!(after.counter_delta(&before, "t_evt_total", "op=\"a\""), 5);
        assert_eq!(after.counter_total("t_evt_total"), 7);
        assert_eq!(after.counter("missing", ""), 0);
    }

    #[test]
    fn registry_reset_zeroes_everything() {
        let _g = test_lock();
        set_enabled(true);
        let r = Registry::new();
        let c = r.counter("t_reset_total", "", "events");
        let h = r.histogram("t_reset_lat", "", "latency");
        c.add(9);
        h.record(9);
        r.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().buckets.is_empty());
    }
}

#[cfg(all(test, feature = "noop"))]
mod noop_tests {
    use super::*;

    #[test]
    fn noop_build_records_nothing() {
        assert!(!enabled());
        set_enabled(true); // must be inert
        assert!(!enabled());
        let c = Counter::new();
        c.inc();
        assert_eq!(c.value(), 0);
        let h = Histogram::new();
        h.record(7);
        assert_eq!(h.count(), 0);
        let mut batch = HistogramBatch::new();
        batch.record(7);
        h.absorb(&mut batch);
        assert_eq!(h.count(), 0);
    }
}
