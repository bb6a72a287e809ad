//! # matador-serve — sharded, batched inference over pooled engines
//!
//! The serving layer of the reproduction: where `matador-sim` models *one*
//! accelerator behind *one* AXI stream, this crate models the deployed
//! system under load — N engine shards, each behind its own independent
//! AXI stream master, fed from a bounded request queue by a deterministic
//! dispatcher. A pool is either **homogeneous** (one compiled design
//! replicated over every shard) or **heterogeneous** (one [`ShardSpec`] —
//! design, backend, dispatch weight — per shard, the way a real edge
//! deployment serves several bespoke generated designs at once):
//! requests are admitted and routed only to shards whose feature width
//! matches, and the `LatencyAware` policy scores each shard's own
//! beats-per-datapoint cost and observed II, so a fast wide-bus shard
//! absorbs more of a batch than a slow narrow-bus one.
//!
//! Four guarantees are load-bearing:
//!
//! 1. **Determinism.** Predictions (winners *and* class sums) are
//!    bit-identical for any shard count, dispatch policy, worker-thread
//!    count **and engine backend** ([`EngineBackend::CycleAccurate`] or
//!    the bit-sliced [`EngineBackend::Turbo`], which also reproduces
//!    cycle stamps analytically) — sharding and the backend are pure
//!    throughput knobs. Locked in by `tests/serve_determinism.rs` and
//!    `tests/hetero_determinism.rs` at the workspace root.
//! 2. **Typed backpressure.** The [`RequestQueue`] is bounded; admission
//!    beyond the depth fails with [`ServeError::QueueFull`] instead of
//!    unbounded buffering, and [`ShardPool::serve`] demonstrates the
//!    flush-and-retry loop a real driver runs.
//! 3. **Honest aggregation.** The [`ThroughputReport`] merges per-shard
//!    engine/monitor statistics the way the hardware would experience
//!    them: pool wall-clock is the *slowest* shard (shards run
//!    concurrently), datapoints/transfers/stalls add, and latency
//!    percentiles are computed over per-request samples.
//! 4. **Fault tolerance (opt-in).** A pool built with
//!    [`ShardPool::with_fault_plan`] survives shard failures: a
//!    deterministic [`FaultPlan`] (or a genuine engine error) feeds the
//!    per-shard [`health`] circuit breaker, failed slices are
//!    re-dispatched to surviving compatible shards, and replies stay
//!    bit-identical to the fault-free run — faults may delay an answer,
//!    never change it. See the [`fault`] module docs for the taxonomy.
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_serve::{ServeOptions, ShardPool};
//! use matador_sim::{AccelShape, CompiledAccelerator};
//! use tsetlin::bits::BitVec;
//!
//! let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
//! let cubes = vec![vec![
//!     Cube::from_lits([Lit::pos(0)]),
//!     Cube::one(),
//!     Cube::from_lits([Lit::pos(1)]),
//!     Cube::one(),
//! ]];
//! let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//!
//! // Four shards, one design: 4× the stream bandwidth.
//! let mut pool = ShardPool::with_options(&accel, ServeOptions::new(4)).expect("valid options");
//! let batch = vec![BitVec::from_indices(4, &[0]); 16];
//! let predictions = pool.serve(&batch).expect("engines drain");
//! assert!(predictions.iter().all(|p| p.winner == 0));
//! let report = pool.report();
//! assert_eq!(report.datapoints, 16);
//! assert!(report.throughput_inf_s(50.0) > 0.0);
//! ```

pub mod dispatch;
pub mod error;
pub mod fault;
pub mod front;
pub mod health;
pub mod pool;
pub mod queue;
pub mod report;
pub mod session;
pub mod spec;

pub use dispatch::{DispatchPolicy, Dispatcher, ShardLoad, ShardProfile};
pub use error::ServeError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use front::{
    BatchRecord, FlushTrigger, Front, FrontOptions, Reply, ShedNotice, TenantQuota,
    MILLITOKENS_PER_REQUEST,
};
pub use health::{HealthTransition, ShardHealth, PROBE_COOLDOWN_FLUSHES};
pub use matador_sim::{EngineBackend, PartitionPlan};
pub use pool::{PoolShardStats, Prediction, ServeOptions, ShardPool};
pub use queue::{Request, RequestQueue, DEFAULT_QUEUE_DEPTH};
pub use report::{percentile_per_mille, ShardStats, ThroughputReport};
pub use session::ServeSession;
pub use spec::ShardSpec;
