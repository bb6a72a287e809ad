//! # matador-obs — observability for the MATADOR serving stack
//!
//! A dependency-free metrics + tracing layer threaded through the
//! open-submission front-end, the shard pools and the turbo datapath:
//!
//! - [`metrics`]: sharded [`Counter`]s, [`Gauge`]s and fixed-shape log2
//!   [`Histogram`]s (with a non-atomic [`HistogramBatch`] for owners that
//!   publish once per batch of work) behind a [`Registry`], rendered as
//!   Prometheus text ([`Registry::render_prometheus`]) or captured as a
//!   structured [`Snapshot`] for the bench JSON artifacts.
//! - [`flight`]: a bounded ring-buffer [`FlightRecorder`] retaining the
//!   last *N* request [`Lifecycle`]s (submit → admit → batch → shard →
//!   reorder → deliver, stamped on the serving virtual clock).
//!
//! ## The contract with the serving stack
//!
//! Metrics are pure sinks: nothing in the serving stack ever reads a
//! metric to make a decision, so recording cannot perturb the replay
//! determinism the stack guarantees (`tests/*_determinism.rs`), and the
//! atomics-only record path keeps warmed engines allocation-free
//! (`crates/sim/tests/no_alloc.rs`). Recording defaults to **on**; set
//! `MATADOR_METRICS=0` (or call [`set_enabled`]`(false)`) to disable at
//! runtime, or build with the `noop` feature to compile every record
//! path down to a constant-false branch.
//!
//! ```
//! use matador_obs::Registry;
//!
//! matador_obs::set_enabled(true);
//! let requests = Registry::global().counter(
//!     "doc_requests_total",
//!     "tenant=\"0\"",
//!     "Requests seen, by tenant.",
//! );
//! requests.inc();
//! assert!(Registry::global().render_prometheus().contains("doc_requests_total"));
//! ```

pub mod flight;
pub mod metrics;

pub use flight::{FlightRecorder, Lifecycle, TraceId, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    enabled, set_enabled, Counter, Gauge, Histogram, HistogramBatch, HistogramSnapshot, Registry,
    Sample, SampleValue, Snapshot,
};
