//! The shard pool: N independent engines executing batched prediction
//! requests — over one shared compiled design (the homogeneous
//! constructors) or one design *per shard* (the heterogeneous path).
//!
//! Each shard owns a full engine — its own AXI stream master, HCB
//! register chain and pipeline — exactly as N accelerator instances on
//! the fabric would each sit behind an independent AXI stream. The pool
//! adds the processor-side runtime around them: width-aware
//! deterministic dispatch ([`Dispatcher`]) and result reassembly in
//! submission order.
//!
//! ## One flush datapath
//!
//! [`ShardPool::serve`] is the pool's only entry point: it cuts the
//! caller's slice into [`FLUSH_WINDOW`]-request windows and runs each
//! window as one flush through the same steps over
//! *execution units* — a standalone shard is a unit of one, a partition
//! group's members form one unit. **Plan**: one unit takes the whole
//! flush (a one-unit pool, or a small flush consolidated on a
//! homogeneous turbo pool), or the dispatch policy spreads it over the
//! eligible units. **Execute**: every member of a planned unit runs the
//! unit's slice. **Triage**: a multi-member unit merges its members'
//! partial class sums; a failed member fails its whole unit, which fails
//! a classic flush and is re-planned over the survivors on a resilient
//! pool. **Book**: per-shard statistics, breaker recovery and latencies.
//!
//! ## Determinism guarantee
//!
//! A request's classification depends only on the design of the shard
//! that executed it and the datapoint — never on the shard count, the
//! dispatch policy or the worker-thread count. The dispatcher itself is a
//! pure function of submission order and per-shard load profiles, so the
//! *assignment* is also reproducible run-to-run. On a heterogeneous pool
//! every design sharing a feature width must implement the same model for
//! predictions to stay shard-independent; `tests/serve_determinism.rs`
//! and `tests/hetero_determinism.rs` lock in bit-identical predictions
//! and class sums across shard counts, policies, threads and backends.

use crate::dispatch::{DispatchPolicy, Dispatcher, ShardLoad, ShardProfile};
use crate::error::ServeError;
use crate::fault::{FaultPlan, FaultState, SliceAction, SliceFaults};
use crate::health::{HealthTracker, HealthTransition, ShardHealth};
use crate::report::{ShardStats, ThroughputReport};
use crate::spec::ShardSpec;
use matador_obs::{Counter, Histogram, Registry};
use matador_sim::{
    CompiledAccelerator, EngineBackend, SimEngine, SimError, SimResult, TurboEngine, TurboProgram,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;
use tsetlin::bits::BitVec;

/// A shard's per-flush mean observed II beyond this multiple of the
/// pool's modeled II is treated as a soft fault (`"ii_outlier"`) — the
/// shard is degraded, not quarantined. Conservative: heterogeneous
/// pools legitimately mix IIs a factor of ~2 apart.
const II_OUTLIER_FACTOR: u64 = 4;

/// Requests per flush: [`ShardPool::serve`] runs its batch as
/// consecutive windows of at most this many requests, and a
/// [`crate::Front`] lane block may be no larger. Observable — flush
/// boundaries set shard clocks, latencies and dispatch rotation.
pub const FLUSH_WINDOW: usize = 256;

// Pool turbo engines are pinned to the serial path because a flush slice
// never spans more than one evaluation block.
const _: () = assert!(FLUSH_WINDOW <= matador_sim::BLOCK_LANES);

/// Configuration of a serving runtime instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeOptions {
    /// Engine shards in the pool (≥ 1). Ignored by
    /// [`ShardPool::heterogeneous`] (the spec list sets the count); kept
    /// because homogeneous callers describe a pool with options alone —
    /// `perfbench` builds its pools as `ServeOptions::turbo(shards)`.
    pub shards: usize,
    /// Request→shard assignment policy.
    pub policy: DispatchPolicy,
    /// Whether shard engines model the two-stage (pipelined) class sum.
    /// Each [`ShardSpec`] carries its own; kept for options-only
    /// homogeneous pools, like [`ServeOptions::shards`].
    pub pipelined_sum: bool,
    /// Whether predictions carry the class sums behind each winner.
    pub capture_class_sums: bool,
    /// Worker threads for a flush round that includes cycle-accurate
    /// members, one member per worker (`None` = the
    /// `MATADOR_THREADS`/available-parallelism default). A round of turbo
    /// members only runs serially on the calling thread.
    pub threads: Option<usize>,
    /// A homogeneous turbo pool's consolidation floor, in tape-work cost
    /// per shard (see [`matador_sim::TurboProgram::batch_cost`]): a
    /// flush below it runs whole on one shard. `None` reads the
    /// `MATADOR_CHUNK_THRESHOLD` default at construction; `Some(0)`
    /// spreads every flush. Results are bit-identical at any value.
    pub chunk_threshold: Option<u64>,
    /// Execution engine behind each shard. [`EngineBackend::Turbo`]
    /// produces bit-identical predictions, class sums and cycle stamps
    /// via bit-sliced evaluation and analytic timing. Each [`ShardSpec`]
    /// picks its own; kept for options-only homogeneous pools, like
    /// [`ServeOptions::shards`].
    pub backend: EngineBackend,
}

impl ServeOptions {
    /// Options for a pool of `shards` engines with the defaults: round-robin
    /// dispatch, unpipelined class sums that predictions do not carry,
    /// the default worker-thread count and chunk threshold,
    /// cycle-accurate engines.
    pub fn new(shards: usize) -> Self {
        ServeOptions {
            shards,
            policy: DispatchPolicy::RoundRobin,
            pipelined_sum: false,
            capture_class_sums: false,
            threads: None,
            chunk_threshold: None,
            backend: EngineBackend::CycleAccurate,
        }
    }

    /// [`ServeOptions::new`] on the [`EngineBackend::Turbo`] backend.
    pub fn turbo(shards: usize) -> Self {
        ServeOptions {
            backend: EngineBackend::Turbo,
            ..ServeOptions::new(shards)
        }
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions::new(1)
    }
}

/// Per-shard serving statistics over a pool's lifetime, exposed by
/// [`ShardPool::shard_stats`]. Complements [`crate::ShardStats`] (the
/// engine stream view — cycles, transfers, stalls) with the *dispatch*
/// view: how much work the pool routed to each shard and how fast that
/// shard turned results around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolShardStats {
    /// Shard index.
    pub shard: usize,
    /// Bus beats of work the pool dispatched to this shard (each request
    /// charges its design's packets-per-datapoint).
    pub queued_beats: u64,
    /// Sum of observed result-to-result gaps (cycles) on this shard —
    /// the numerator of its observed steady-state II.
    pub ii_cycles: u64,
    /// Number of gaps behind `ii_cycles`.
    pub ii_samples: u64,
    /// Flushes in which this shard executed at least one request.
    pub flushes_served: u64,
}

/// Pool-level metric handles, resolved once at construction so the flush
/// path never touches the registry lock. Pure sinks: nothing in the pool
/// reads them back, so recording cannot perturb dispatch determinism.
#[derive(Debug, Clone)]
struct PoolMetrics {
    /// `matador_pool_flushes_total` — non-empty flushes executed.
    flushes: Arc<Counter>,
    /// `matador_pool_flushes_consolidated_total` — plans in which a
    /// multi-unit pool ran a whole flush on one unit (a redirect round
    /// that consolidates again counts again).
    consolidated: Arc<Counter>,
    /// `matador_pool_dispatched_total{policy=...}` — requests planned by
    /// the configured dispatch policy (consolidated plans bypass the
    /// policy and are counted above instead).
    dispatched: Arc<Counter>,
    /// `matador_pool_retries_total` — redirect rounds a resilient flush
    /// ran after shard failures (one per re-planning pass, not per
    /// request).
    retries: Arc<Counter>,
    /// `matador_pool_redirects_total` — requests re-dispatched from a
    /// failed shard to a surviving one.
    redirects: Arc<Counter>,
}

impl PoolMetrics {
    fn resolve(policy: DispatchPolicy) -> Self {
        let registry = Registry::global();
        PoolMetrics {
            flushes: registry.counter(
                "matador_pool_flushes_total",
                "",
                "Non-empty flushes executed by the shard pool.",
            ),
            consolidated: registry.counter(
                "matador_pool_flushes_consolidated_total",
                "",
                "Flushes a multi-shard pool consolidated onto a single shard.",
            ),
            dispatched: registry.counter(
                "matador_pool_dispatched_total",
                &format!("policy=\"{}\"", policy.as_label()),
                "Requests planned by the configured dispatch policy.",
            ),
            retries: registry.counter(
                "matador_pool_retries_total",
                "",
                "Redirect rounds run after shard failures.",
            ),
            redirects: registry.counter(
                "matador_pool_redirects_total",
                "",
                "Requests re-dispatched from a failed shard to a surviving one.",
            ),
        }
    }
}

/// Bumps `matador_faults_injected_total{kind=...}` (faults the active
/// plan injected) or, with `detected`, `matador_faults_detected_total`
/// (faults the pool *observed*, injected or genuine: `engine_error`
/// counts there without ever being injected). Resolved lazily: only
/// ever reached when a fault fires, never on the fault-free hot path.
fn count_fault(detected: bool, kind: &'static str) {
    let (name, help) = if detected {
        (
            "matador_faults_detected_total",
            "Shard faults detected by the pool, by kind.",
        )
    } else {
        (
            "matador_faults_injected_total",
            "Faults injected by the active fault plan, by kind.",
        )
    };
    Registry::global()
        .counter(name, &format!("kind=\"{kind}\""), help)
        .inc();
}

/// Per-shard metric handles, registered at pool construction with a
/// `shard="N"` label.
#[derive(Debug, Clone)]
struct ShardMetrics {
    /// `matador_pool_shard_requests_total{shard=...}`.
    requests: Arc<Counter>,
    /// `matador_pool_shard_queued_beats_total{shard=...}`.
    queued_beats: Arc<Counter>,
    /// `matador_pool_shard_ii_cycles{shard=...}` — one sample per flush:
    /// the shard's mean observed result-to-result gap over that flush.
    ii_cycles: Arc<Histogram>,
}

impl ShardMetrics {
    fn resolve(shard: usize) -> Self {
        let registry = Registry::global();
        let labels = format!("shard=\"{shard}\"");
        ShardMetrics {
            requests: registry.counter(
                "matador_pool_shard_requests_total",
                &labels,
                "Requests executed, by shard.",
            ),
            queued_beats: registry.counter(
                "matador_pool_shard_queued_beats_total",
                &labels,
                "Bus beats of work dispatched, by shard.",
            ),
            ii_cycles: registry.histogram(
                "matador_pool_shard_ii_cycles",
                &labels,
                "Observed steady-state II per flush (cycles/result), by shard.",
            ),
        }
    }
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Id assigned at submission (monotonic per pool).
    pub request: u64,
    /// Winning class index.
    pub winner: usize,
    /// Shard that executed the request.
    pub shard: usize,
    /// First packet acceptance → `result_valid`, inclusive, on that shard.
    pub latency_cycles: u64,
    /// Shard-local cycle at which `result_valid` asserted (cumulative
    /// over the shard's lifetime, not per flush). Together with `shard`
    /// this orders completions *within* a flush deterministically — the
    /// key the front-end's reorder stage sequences replies by.
    pub completed_at_cycle: u64,
    /// Class sums behind the winner, when
    /// [`ServeOptions::capture_class_sums`] is set.
    pub class_sums: Option<Vec<i32>>,
}

/// A pool of engine shards serving batched requests.
///
/// # Lifetime and memory
///
/// A pool retains per-request latency samples and each engine's
/// monitor/result/sum logs for its whole lifetime — memory grows with the
/// total requests served, which is what makes the cumulative
/// [`ShardPool::report`] possible. To bound memory, scope a pool to a
/// serving window: take its report, drop it and build a fresh one
/// (engines restart post-reset) rather than holding one pool open
/// indefinitely.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::dag::Sharing;
/// use matador_serve::{ServeOptions, ShardPool};
/// use matador_sim::{AccelShape, CompiledAccelerator};
/// use tsetlin::bits::BitVec;
///
/// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
/// let cubes = vec![vec![
///     Cube::from_lits([Lit::pos(0)]),
///     Cube::one(),
///     Cube::from_lits([Lit::pos(1)]),
///     Cube::one(),
/// ]];
/// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
/// let mut pool = ShardPool::with_options(&accel, ServeOptions::new(2)).expect("valid");
/// let batch = vec![BitVec::from_indices(4, &[0]); 6];
/// let predictions = pool.serve(&batch).expect("drains");
/// assert_eq!(predictions.len(), 6);
/// assert!(predictions.iter().all(|p| p.winner == 0));
/// assert_eq!(pool.report().datapoints, 6);
/// ```
#[derive(Debug)]
pub struct ShardPool<'a> {
    /// One compiled design per shard (all identical on the homogeneous
    /// path).
    designs: Vec<&'a CompiledAccelerator>,
    /// Per-shard static dispatch weights (all 1 on the homogeneous path).
    weights: Vec<u32>,
    engines: Vec<PoolEngine>,
    dispatcher: Dispatcher,
    /// Id of the next request [`ShardPool::serve`] admits.
    next_id: u64,
    capture_sums: bool,
    threads: Option<usize>,
    /// Distinct feature widths the pool admits, ascending.
    widths: Vec<usize>,
    /// Whether each shard models the two-stage (pipelined) class sum —
    /// one extra cycle of result latency on that shard.
    pipelined: Vec<bool>,
    /// Per-request latency samples, pool lifetime.
    latencies: Vec<u64>,
    /// Cost of one lane word on the shared turbo tape — `Some` exactly
    /// when every shard runs the same compiled [`TurboProgram`]
    /// (homogeneous turbo pools), which is what makes shard assignment
    /// result-invisible and consolidation sound.
    shared_chunk_cost: Option<u64>,
    /// Consolidation floor per shard (tape-work cost), resolved once at
    /// construction.
    chunk_threshold: u64,
    /// Pool-level metric handles (resolved once at construction).
    metrics: PoolMetrics,
    /// Per-shard metric handles, shard-index order.
    shard_metrics: Vec<ShardMetrics>,
    /// Per-shard lifetime bookings: the queued-beats and flush counts of
    /// [`ShardPool::shard_stats`] (its II fields come from the engines).
    booked: Vec<PoolShardStats>,
    /// Execution units: each entry lists the member shards that must
    /// jointly execute a request. Standalone shards form singleton
    /// units; a partition group's members share one unit (members in
    /// shard order, units ordered by lead = lowest member index). The
    /// flush plans over units, so a partitioned design is one logical
    /// executor however many shards its slices occupy.
    units: Vec<Vec<usize>>,
    /// Runtime state of the installed [`FaultPlan`] (disarmed and free
    /// on pools without one).
    faults: FaultState,
    /// Per-shard circuit breaker. Present on every pool; only resilient
    /// triage ever records transitions, so a classic pool stays
    /// permanently all-healthy.
    health: HealthTracker,
    /// Whether shard failures are contained, quarantined and redirected
    /// ([`ShardPool::with_fault_plan`]) instead of failing the flush
    /// ([`ServeError::Shard`], the classic fail-fast contract).
    resilient: bool,
    /// Buffers the flush path reuses, so a warmed flush allocates only
    /// the predictions it hands out.
    scratch: FlushScratch,
}

/// What one flush works in, kept by the pool between flushes. The
/// vectors that borrow the engines and the flush's inputs are kept
/// empty, at `'static`, and [`recycle`]d to each round's lifetimes.
#[derive(Default)]
struct FlushScratch {
    /// Request indices (into the flush's inputs) still to serve.
    pending: Vec<usize>,
    /// Per unit: the request indices planned onto it this round.
    plan: Vec<Vec<usize>>,
    /// Per request: its prediction, once a unit has served it.
    slots: Vec<Option<Prediction>>,
    /// Per unit: its slice of the flush's inputs.
    slices: Vec<Cow<'static, [BitVec]>>,
    /// Per shard: its engine, until a member run takes it.
    engines: Vec<Option<&'static mut PoolEngine>>,
    /// The round's member runs, unit order.
    runs: Vec<MemberRun<'static, 'static>>,
    /// The round's member results, for triage.
    results: Vec<MemberResult>,
    /// Shard output buffers between runs.
    outputs: Vec<ShardOutput>,
}

impl std::fmt::Debug for FlushScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushScratch").finish_non_exhaustive()
    }
}

/// Empties `buf` and hands its allocation over as a vector of `U`, which
/// must be `T` at other lifetimes. Collecting a vector's own `IntoIter`
/// into an element type of the same size and alignment reuses its
/// allocation, so a warmed flush keeps its borrowing vectors without a
/// heap call (`tests/front_no_alloc.rs` counts them).
fn recycle<T, U>(mut buf: Vec<T>) -> Vec<U> {
    const {
        assert!(
            size_of::<T>() == size_of::<U>() && align_of::<T>() == align_of::<U>(),
            "recycle keeps the layout"
        );
    }
    buf.clear();
    buf.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// One engine shard behind either execution backend. Both variants expose
/// the same result stream, cycle clock and stream statistics, so the pool
/// (and everything above it) is backend-agnostic. Engines are boxed: a
/// pool holds many, and both variants carry sizeable scratch state.
#[derive(Debug)]
enum PoolEngine {
    Cycle(Box<SimEngine>),
    Turbo(Box<TurboEngine>),
}

/// What one shard produced for its slice of a flush: classifications in
/// submission order, the class sums behind them, and each datapoint's
/// first-packet acceptance cycle.
#[derive(Default)]
struct ShardOutput {
    results: Vec<SimResult>,
    class_sums: Vec<Vec<i32>>,
    first_beats: Vec<u64>,
}

impl PoolEngine {
    /// Advances the shard clock by `n` dead cycles — the timing half of
    /// an injected stall or queue delay.
    fn inject_idle_cycles(&mut self, n: u64) {
        match self {
            PoolEngine::Cycle(e) => e.inject_idle_cycles(n),
            PoolEngine::Turbo(e) => e.inject_idle_cycles(n),
        }
    }

    fn load(&self) -> ShardLoad {
        let (cycles, ii_cycles, ii_samples) = match self {
            PoolEngine::Cycle(e) => (e.cycle(), e.observed_ii_cycles(), e.observed_ii_samples()),
            PoolEngine::Turbo(e) => (e.cycle(), e.observed_ii_cycles(), e.observed_ii_samples()),
        };
        ShardLoad {
            cycles,
            ii_cycles,
            ii_samples,
        }
    }

    fn stats(&self, shard: usize) -> ShardStats {
        let (datapoints, transfers, stall_cycles) = match self {
            PoolEngine::Cycle(e) => (
                e.monitor().datapoints() as u64,
                e.stream_transfers(),
                e.stream_stall_cycles(),
            ),
            PoolEngine::Turbo(e) => (e.datapoints(), e.transfers(), e.stall_cycles()),
        };
        ShardStats {
            shard,
            cycles: self.load().cycles,
            datapoints,
            transfers,
            stall_cycles,
        }
    }

    /// Runs this shard's slice of a flush into `out`, whose buffers it
    /// reuses.
    fn run(
        &mut self,
        inputs: &[BitVec],
        beats_per_request: u64,
        out: &mut ShardOutput,
    ) -> Result<(), SimError> {
        out.results.clear();
        out.class_sums.clear();
        out.first_beats.clear();
        let sums = match self {
            PoolEngine::Cycle(e) => {
                let monitor_before = e.monitor().records().len();
                let sums_before = e.class_sums_log().len();
                out.results = e.run_datapoints(inputs)?;
                // A datapoint's beats transfer back-to-back before the
                // next datapoint's, so fixed-size chunks recover each
                // first-packet acceptance cycle from the monitor (ILA)
                // records.
                let records = &e.monitor().records()[monitor_before..];
                out.first_beats.extend(
                    records
                        .chunks(beats_per_request as usize)
                        .map(|c| c[0].cycle),
                );
                &e.class_sums_log()[sums_before..]
            }
            PoolEngine::Turbo(e) => {
                out.first_beats
                    .extend((0..inputs.len()).map(|i| e.next_first_beat_cycle(i)));
                let sums_before = e.class_sums_log().len();
                e.run_datapoints_into(inputs, &mut out.results)?;
                &e.class_sums_log()[sums_before..]
            }
        };
        out.class_sums.extend_from_slice(sums);
        Ok(())
    }
}

/// How one shard's slice of a flush failed. `Engine` wraps a genuine
/// engine error; `Corrupted` is the parity check catching an injected
/// [`crate::FaultKind::CorruptSum`] — the results exist but must never
/// be served. A panicked slice produces neither: its outcome stays
/// unset (see [`MemberResult::outcome`]).
#[derive(Debug)]
enum SliceError {
    Engine(SimError),
    Corrupted,
}

/// What one member shard's run of a flush round left behind for triage.
struct MemberResult {
    shard: usize,
    beats_per_request: u64,
    /// The shard's load before the run — the baseline of this round's
    /// observed-II delta.
    before: ShardLoad,
    /// Fault directives, planned on the pool thread before execution
    /// (clean on pools without an armed fault plan).
    directives: SliceFaults,
    /// What the slice produced; meaningful only after an `Ok` outcome.
    output: ShardOutput,
    /// `None` until the slice runs — and still `None` afterwards iff the
    /// worker panicked (injected or genuine), which is how triage
    /// detects a lost slice.
    outcome: Option<Result<(), SliceError>>,
}

impl MemberResult {
    /// The hard-fault cause that lost this member's slice, if it was
    /// lost.
    fn failure(&self) -> Option<&'static str> {
        match &self.outcome {
            Some(Ok(_)) => None,
            Some(Err(SliceError::Engine(_))) => Some("engine_error"),
            Some(Err(SliceError::Corrupted)) => Some("corrupt_sum"),
            // An unset outcome after execution means the worker
            // panicked — injected (the directive names it) or genuine.
            None => Some(self.directives.hard.unwrap_or("panic")),
        }
    }
}

/// One member shard's run over its unit's slice, executed on a worker
/// thread.
struct MemberRun<'e, 'i> {
    engine: &'e mut PoolEngine,
    inputs: &'i [BitVec],
    result: MemberResult,
}

impl MemberRun<'_, '_> {
    /// Runs the slice under its fault directives. An injected
    /// [`SliceAction::Panic`] raises a real panic *before* touching the
    /// engine — the worker dies exactly as a genuine bug would, and the
    /// shard clock stays consistent for the eventual recovery probe. A
    /// resilient flush contains the panic; a classic one propagates it.
    fn execute(&mut self) {
        let result = &mut self.result;
        let directives = &result.directives;
        if directives.action == SliceAction::Panic {
            panic!("injected fault: shard worker dies before accepting the slice");
        }
        if directives.pre_delay > 0 {
            self.engine.inject_idle_cycles(directives.pre_delay);
        }
        let run = self
            .engine
            .run(self.inputs, result.beats_per_request, &mut result.output);
        result.outcome = Some(match run {
            Err(error) => Err(SliceError::Engine(error)),
            Ok(()) if result.directives.action == SliceAction::Corrupt => {
                Err(SliceError::Corrupted)
            }
            Ok(()) => Ok(()),
        });
    }
}

/// One shard of a pool under construction.
struct ShardEntry<'a> {
    design: &'a CompiledAccelerator,
    /// The shard's lowered design, which either backend runs.
    program: Arc<TurboProgram>,
    backend: EngineBackend,
    pipelined_sum: bool,
    weight: u32,
    partition_group: Option<u32>,
}

impl<'a> ShardPool<'a> {
    /// Creates a homogeneous pool — every shard runs `accel` — from
    /// explicit [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] when `options.shards == 0`.
    pub fn with_options(
        accel: &'a CompiledAccelerator,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        if options.shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        // The lowered design is immutable: compile it once, share it
        // across shards of either backend.
        let program = Arc::new(TurboProgram::compile(accel));
        let shared_chunk_cost =
            (options.backend == EngineBackend::Turbo).then(|| program.chunk_cost());
        let entries = (0..options.shards)
            .map(|_| ShardEntry {
                design: accel,
                program: Arc::clone(&program),
                backend: options.backend,
                pipelined_sum: options.pipelined_sum,
                weight: 1,
                partition_group: None,
            })
            .collect();
        Self::from_entries(entries, &options, shared_chunk_cost)
    }

    /// Creates a homogeneous pool in **resilient mode** with `plan`
    /// installed: injected faults — and genuine shard failures — are
    /// contained per shard, fed into the health circuit breaker (see
    /// the [`crate::health`] module docs) and the affected requests are
    /// re-dispatched to surviving compatible shards, instead of failing
    /// the whole flush with [`ServeError::Shard`]. Replies stay
    /// bit-identical to the fault-free pool while at least one
    /// compatible shard survives; once none does, flushes fail with
    /// [`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`].
    /// Pass [`FaultPlan::none`] for resilient mode without injection.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardPool::with_options`].
    pub fn with_fault_plan(
        accel: &'a CompiledAccelerator,
        options: ServeOptions,
        plan: FaultPlan,
    ) -> Result<Self, ServeError> {
        let mut pool = Self::with_options(accel, options)?;
        pool.install_fault_plan(plan);
        Ok(pool)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(&plan, self.shards());
        self.resilient = true;
    }

    /// Creates a heterogeneous pool: one engine per [`ShardSpec`], each
    /// owning its spec's design, backend, pipelining and dispatch weight.
    /// The pool admits exactly the feature widths the specs cover;
    /// requests are routed only to shards whose width matches. `options`
    /// contributes the dispatch policy, class-sum capture and
    /// worker-thread count — its `shards`, `backend` and `pipelined_sum`
    /// fields are superseded by the specs, and its chunk threshold is
    /// unused (only a homogeneous turbo pool consolidates).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] for an empty spec list,
    /// [`ServeError::ZeroWeight`] for a zero-weight spec and
    /// [`ServeError::PartitionWidthMismatch`] for a partition group whose
    /// members disagree on the feature width.
    pub fn heterogeneous(
        specs: &'a [ShardSpec],
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        ShardSpec::validate_all(specs)?;
        // Each spec compiles its own program (specs own their designs).
        let entries = specs
            .iter()
            .map(|spec| ShardEntry {
                design: &spec.design,
                program: Arc::new(TurboProgram::compile(&spec.design)),
                backend: spec.backend,
                pipelined_sum: spec.pipelined_sum,
                weight: spec.weight,
                partition_group: spec.partition_group,
            })
            .collect();
        Self::from_entries(entries, &options, None)
    }

    /// The one constructor behind the public ones: builds every shard's
    /// engine from its entry and derives the admitted widths and the
    /// execution units. Every turbo engine is pinned to the serial path:
    /// a flush slice is at most [`FLUSH_WINDOW`] requests, one
    /// evaluation block, which never fans out.
    fn from_entries(
        entries: Vec<ShardEntry<'a>>,
        options: &ServeOptions,
        shared_chunk_cost: Option<u64>,
    ) -> Result<Self, ServeError> {
        let chunk_threshold = options
            .chunk_threshold
            .unwrap_or_else(matador_sim::configured_chunk_threshold);
        let shards = entries.len();
        let mut widths: Vec<usize> = entries.iter().map(|e| e.design.shape().features).collect();
        widths.sort_unstable();
        widths.dedup();
        let units = Self::units_of(&entries);
        let designs = entries.iter().map(|e| e.design).collect();
        let weights = entries.iter().map(|e| e.weight).collect();
        let pipelined = entries.iter().map(|e| e.pipelined_sum).collect();
        let engines = entries.into_iter().map(|entry| {
            // Partition-group members always capture class sums
            // internally: triage needs every member's partial sums to
            // merge the final winner, whether or not the caller asked
            // predictions to carry them.
            let capture = options.capture_class_sums || entry.partition_group.is_some();
            match entry.backend {
                EngineBackend::CycleAccurate => {
                    let mut engine = SimEngine::from_program(entry.program);
                    engine.set_pipelined_sum(entry.pipelined_sum);
                    engine.set_capture_class_sums(capture);
                    PoolEngine::Cycle(Box::new(engine))
                }
                EngineBackend::Turbo => {
                    let mut engine = TurboEngine::from_program(entry.program);
                    engine.set_pipelined_sum(entry.pipelined_sum);
                    engine.set_capture_class_sums(capture);
                    engine.set_chunk_threads(Some(1));
                    PoolEngine::Turbo(Box::new(engine))
                }
            }
        });
        Ok(ShardPool {
            designs,
            weights,
            engines: engines.collect(),
            dispatcher: Dispatcher::new(options.policy),
            next_id: 0,
            capture_sums: options.capture_class_sums,
            threads: options.threads,
            widths,
            pipelined,
            latencies: Vec::new(),
            shared_chunk_cost,
            chunk_threshold,
            metrics: PoolMetrics::resolve(options.policy),
            shard_metrics: (0..shards).map(ShardMetrics::resolve).collect(),
            booked: (0..shards)
                .map(|shard| PoolShardStats {
                    shard,
                    ..PoolShardStats::default()
                })
                .collect(),
            units,
            faults: FaultState::new(&FaultPlan::none(), shards),
            health: HealthTracker::new(shards),
            resilient: false,
            scratch: FlushScratch::default(),
        })
    }

    /// Execution units from the shard entries: a singleton unit per
    /// standalone shard, one multi-member unit per partition group.
    /// Members are in shard order; units are ordered by their lead
    /// (lowest) member, so the layout is a deterministic function of the
    /// entries alone.
    fn units_of(entries: &[ShardEntry<'_>]) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        for (shard, entry) in entries.iter().enumerate() {
            let group = entry.partition_group;
            match units
                .iter()
                .position(|u| group.is_some() && entries[u[0]].partition_group == group)
            {
                Some(unit) => units[unit].push(shard),
                None => units.push(vec![shard]),
            }
        }
        units
    }

    /// Execution units behind dispatch: each entry lists the member
    /// shards that jointly execute a request (singletons for standalone
    /// shards, the whole member set for a partition group).
    pub fn units(&self) -> &[Vec<usize>] {
        &self.units
    }

    /// Whether every member of `unit` is currently eligible for traffic:
    /// a partition group with even one quarantined member cannot serve
    /// (its partial sums would be incomplete), so it is ineligible whole.
    fn unit_eligible(&self, unit: usize) -> bool {
        self.units[unit].iter().all(|&m| self.health.eligible(m))
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The compiled design shard `shard` executes.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn design(&self, shard: usize) -> &'a CompiledAccelerator {
        self.designs[shard]
    }

    /// Distinct feature widths the pool admits, ascending.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.dispatcher.policy()
    }

    /// Per-request latency samples collected so far (flush order).
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Per-shard serving statistics over the pool's lifetime, shard-index
    /// order: bus beats dispatched, observed result-to-result gap sums
    /// and sample counts (the shard's observed steady-state II is
    /// `ii_cycles / ii_samples`), and the number of flushes the shard
    /// actually executed work in. Unlike the global metrics registry,
    /// these are plain per-pool fields — always collected, regardless of
    /// whether metrics recording is enabled.
    pub fn shard_stats(&self) -> Vec<PoolShardStats> {
        self.booked
            .iter()
            .zip(&self.engines)
            .map(|(booked, engine)| {
                let load = engine.load();
                PoolShardStats {
                    ii_cycles: load.ii_cycles,
                    ii_samples: load.ii_samples,
                    ..*booked
                }
            })
            .collect()
    }

    /// Books one member's slice of a served unit: lifetime tracking for
    /// [`ShardPool::shard_stats`] and the per-shard registry metrics. On
    /// a resilient pool (`modeled_ii` is `Some`) the slice also feeds the
    /// circuit breaker, under one rule for every pool shape: a slice with
    /// injected faults was already marked soft; otherwise a mean observed
    /// II beyond [`II_OUTLIER_FACTOR`] × the modeled II is a soft
    /// `"ii_outlier"` fault, and anything else counts toward recovery.
    fn book_member(&mut self, run: &MemberResult, requests: usize, modeled_ii: Option<u64>) {
        let shard = run.shard;
        let beats = run.beats_per_request * requests as u64;
        self.booked[shard].queued_beats += beats;
        self.booked[shard].flushes_served += 1;
        let m = &self.shard_metrics[shard];
        m.requests.add(requests as u64);
        m.queued_beats.add(beats);
        let load = self.engines[shard].load();
        let cycles = load.ii_cycles - run.before.ii_cycles;
        let samples = load.ii_samples - run.before.ii_samples;
        let mean_ii = (samples > 0).then(|| cycles.div_ceil(samples));
        if let Some(ii) = mean_ii {
            m.ii_cycles.record(ii);
        }
        let Some(modeled_ii) = modeled_ii else {
            return;
        };
        if !run.directives.is_clean() {
            return;
        }
        if mean_ii.is_some_and(|ii| ii > II_OUTLIER_FACTOR.saturating_mul(modeled_ii.max(1))) {
            count_fault(true, "ii_outlier");
            self.health.note_soft(shard, "ii_outlier");
        } else {
            self.health.note_clean(shard);
        }
    }

    /// Each shard's cumulative engine cycle count, shard-index order —
    /// the time base [`Prediction::completed_at_cycle`] stamps live on.
    /// A snapshot taken before a flush turns those stamps into per-flush
    /// completion offsets, which is how the front-end maps shard-local
    /// cycles onto its own clock.
    pub fn shard_cycles(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.load().cycles).collect()
    }

    /// [`ShardPool::shard_cycles`] into a buffer the caller reuses.
    pub(crate) fn shard_cycles_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.engines.iter().map(|e| e.load().cycles));
    }

    /// Whether dispatch may route to `shard` right now: every state but
    /// quarantined. The health-aware accessors below fall back to the
    /// whole pool when *no* shard is eligible, so their values stay
    /// defined (admission has already rejected new work by then).
    fn shard_usable(&self, shard: usize) -> bool {
        self.health.eligible(shard) || self.health.eligible_shards() == 0
    }

    /// The pool's minimum possible request latency in cycles: the fastest
    /// *healthy* shard's first-packet→result time for a lone request on
    /// an idle engine (`P` packet beats + 3 fixed stages, +1 when that
    /// shard's class sum is pipelined). No admission schedule can deliver
    /// a reply sooner, so a deadline inside this floor is unmeetable by
    /// construction. Quarantined shards don't count: under brownout the
    /// floor honestly reflects surviving capacity (and rises if the
    /// fastest shard is the one that died).
    pub fn latency_floor_cycles(&self) -> u64 {
        self.designs
            .iter()
            .zip(&self.pipelined)
            .enumerate()
            .filter(|&(shard, _)| self.shard_usable(shard))
            .map(|(_, (design, &pipelined))| {
                design.shape().num_packets() as u64 + 3 + u64::from(pipelined)
            })
            .min()
            .expect("a pool always has at least one shard")
    }

    /// Modeled steady-state cycles per result on one *healthy* shard:
    /// the pooled observed result-to-result gap when any eligible shard
    /// has history, else the bandwidth-bound fallback (the widest
    /// eligible design's beats per datapoint — a deliberately
    /// conservative cold-start estimate). This is the drain model behind
    /// deadline-aware batch coalescing; quarantined shards' history is
    /// excluded so brownout drain estimates track surviving capacity.
    pub fn modeled_ii_cycles(&self) -> u64 {
        let (cycles, samples) = self
            .engines
            .iter()
            .enumerate()
            .filter(|&(shard, _)| self.shard_usable(shard))
            .map(|(_, e)| e.load())
            .fold((0u64, 0u64), |(c, n), load| {
                (c + load.ii_cycles, n + load.ii_samples)
            });
        if samples > 0 {
            cycles.div_ceil(samples)
        } else {
            self.designs
                .iter()
                .enumerate()
                .filter(|&(shard, _)| self.shard_usable(shard))
                .map(|(_, d)| d.shape().num_packets() as u64)
                .max()
                .expect("a pool always has at least one shard")
        }
    }

    /// Units a flush of `pending` requests would actually execute on: 1
    /// when the plan runs it whole on one unit (a one-unit pool, or a
    /// small consolidated flush on a homogeneous turbo pool), else the
    /// count of fully eligible units, never 0. The front-end's drain model
    /// divides by this, not the raw shard count: a consolidated flush
    /// drains serially, a partition group drains as one executor, and a
    /// browned-out pool drains on what survives.
    pub fn flush_spread(&self, pending: usize) -> usize {
        // `whole_flush_unit` is `Some` exactly when the flush runs whole
        // and some shard is eligible; which shard it picks is irrelevant.
        let whole = self.units.len() == 1
            || (self.runs_whole(pending) && self.health.eligible_shards() > 0);
        if pending > 0 && whole {
            1
        } else {
            let eligible = (0..self.units.len()).filter(|&u| self.unit_eligible(u));
            eligible.count().max(1)
        }
    }

    /// Bus beats one datapoint of `width` features costs on the cheapest
    /// compatible shard — the unit the front-end's fair queueing charges
    /// per request. Falls back to 1 for widths the pool does not admit
    /// (admission rejects those before any costing happens).
    pub fn beats_for_width(&self, width: usize) -> u64 {
        self.designs
            .iter()
            .filter(|d| d.shape().features == width)
            .map(|d| d.shape().num_packets() as u64)
            .min()
            .unwrap_or(1)
    }

    /// Checks a datapoint width against the pool's admitted widths.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WidthMismatch`] (single-width pool) or
    /// [`ServeError::NoCompatibleShard`] (mixed pool) for a width no
    /// shard accepts.
    pub fn check_width(&self, got: usize) -> Result<(), ServeError> {
        if self.widths.binary_search(&got).is_ok() {
            return Ok(());
        }
        // A single-width pool keeps the precise single-design diagnostic;
        // a mixed pool reports the whole admission set.
        if let [expected] = self.widths[..] {
            Err(ServeError::WidthMismatch { expected, got })
        } else {
            Err(ServeError::NoCompatibleShard {
                got,
                widths: self.widths.clone(),
            })
        }
    }

    /// Checks that at least one unit serving `width` is currently
    /// eligible for traffic (no quarantined member). Trivially `Ok` on a
    /// classic (non-resilient) pool and whenever every shard is healthy
    /// — the check costs two loads on the fault-free path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShardQuarantined`] (naming a quarantined
    /// member) when exactly one unit serves the width, else
    /// [`ServeError::NoHealthyShard`] — also for a width no shard serves
    /// (call [`ShardPool::check_width`] first for admission diagnostics).
    pub fn check_healthy(&self, width: usize) -> Result<(), ServeError> {
        if !self.resilient || self.health.all_healthy() {
            return Ok(());
        }
        let mut compatible = 0usize;
        let mut blocked = 0usize;
        for members in &self.units {
            if self.designs[members[0]].shape().features != width {
                continue;
            }
            match members.iter().find(|&&m| !self.health.eligible(m)) {
                None => return Ok(()),
                Some(&m) => {
                    compatible += 1;
                    blocked = m;
                }
            }
        }
        if compatible == 1 {
            Err(ServeError::ShardQuarantined { shard: blocked })
        } else {
            Err(ServeError::NoHealthyShard { width })
        }
    }

    /// Current health state of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.health.state(shard)
    }

    /// The health transition log, oldest first — every circuit-breaker
    /// edge with its cause and flush number. Deterministic: same fault
    /// plan + same request stream ⇒ same log at any thread count.
    pub fn health_log(&self) -> &[HealthTransition] {
        self.health.log()
    }

    /// Number of shards currently eligible for traffic.
    pub fn healthy_shards(&self) -> usize {
        self.health.eligible_shards()
    }

    /// Whether the pool contains and redirects shard failures
    /// (constructed via [`ShardPool::with_fault_plan`], or switched by an
    /// operator [`ShardPool::quarantine_shard`]).
    pub fn resilient(&self) -> bool {
        self.resilient
    }

    /// Operator override: quarantine `shard` immediately (e.g. a
    /// planned drain), switching the pool into resilient mode if it was
    /// not already — a classic pool has no machinery to honor the
    /// quarantine otherwise. The shard probes its way back through the
    /// normal circuit-breaker cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn quarantine_shard(&mut self, shard: usize) {
        assert!(shard < self.shards(), "shard {shard} out of range");
        self.resilient = true;
        self.health.force_quarantine(shard);
    }

    /// Serves a whole batch and returns its predictions in input order.
    /// The batch runs as consecutive [`FLUSH_WINDOW`]-request flushes
    /// straight off `inputs`; each flush dispatches its requests only to
    /// shards whose design accepts their width and runs the shard
    /// engines (in parallel on up to `MATADOR_THREADS` workers). Request
    /// ids continue one monotonic sequence across calls.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WidthMismatch`] /
    /// [`ServeError::NoCompatibleShard`] — checked for the *whole* batch
    /// up front, before anything is flushed, so a malformed input cannot
    /// strand already-classified predictions. Returns
    /// [`ServeError::Shard`] (the lowest failing shard) if a shard's
    /// engine fails to drain — a toolflow bug: the failing flush's
    /// requests are dropped and record no latency samples, while
    /// surviving shards' engine counters stay in [`ShardPool::report`].
    /// A resilient pool instead redirects the failed requests and fails
    /// only when no healthy capacity remains
    /// ([`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`]).
    pub fn serve(&mut self, inputs: &[BitVec]) -> Result<Vec<Prediction>, ServeError> {
        let mut out = Vec::with_capacity(inputs.len());
        self.serve_into(inputs, &mut out)?;
        Ok(out)
    }

    /// [`ShardPool::serve`] appending to `out`, which a warmed caller
    /// reuses: the front-end's flush path. On an error `out` keeps only
    /// what it held before the call.
    ///
    /// # Errors
    ///
    /// As for [`ShardPool::serve`].
    pub(crate) fn serve_into(
        &mut self,
        inputs: &[BitVec],
        out: &mut Vec<Prediction>,
    ) -> Result<(), ServeError> {
        for input in inputs {
            self.check_width(input.len())?;
        }
        let before = out.len();
        for window in inputs.chunks(FLUSH_WINDOW) {
            let first_id = self.next_id;
            self.next_id += window.len() as u64;
            if let Err(e) = self.run_flush(first_id, window, out) {
                out.truncate(before);
                return Err(e);
            }
        }
        Ok(())
    }

    /// The one flush datapath (see the module docs): plan, execute and
    /// triage rounds until every request is served, then append the
    /// predictions to `out` in input order. Request `j` of `inputs`
    /// carries id `first_id + j`. A classic pool runs one round; a
    /// resilient pool's rounds terminate because each losing round
    /// quarantines at least one shard and breakers cannot half-open
    /// mid-flush (cooldowns advance only in `begin_flush`).
    fn run_flush(
        &mut self,
        first_id: u64,
        inputs: &[BitVec],
        out: &mut Vec<Prediction>,
    ) -> Result<(), ServeError> {
        self.metrics.flushes.inc();
        if self.resilient {
            // Advance quarantine cooldowns (Quarantined → Probing) before
            // anything is planned, so half-open probes ride ordinary
            // traffic this flush.
            self.health.begin_flush();
        }
        let mut s = std::mem::take(&mut self.scratch);
        let served = self.serve_rounds(first_id, inputs, &mut s);
        if served.is_ok() {
            let predictions = s.slots.drain(..).map(|p| {
                let p = p.expect("every request is served or the flush fails typed");
                self.latencies.push(p.latency_cycles);
                p
            });
            out.extend(predictions);
        }
        self.scratch = s;
        served
    }

    /// The rounds of [`ShardPool::run_flush`], in `s`: every request's
    /// prediction lands in its slot of `s.slots`.
    fn serve_rounds(
        &mut self,
        first_id: u64,
        inputs: &[BitVec],
        s: &mut FlushScratch,
    ) -> Result<(), ServeError> {
        s.slots.clear();
        s.slots.resize_with(inputs.len(), || None);
        s.pending.clear();
        s.pending.extend(0..inputs.len());
        let mut round = 0u64;
        while !s.pending.is_empty() {
            // No healthy capacity for some pending width ⇒ the flush
            // fails typed (its requests are dropped, exactly like the
            // classic [`ServeError::Shard`] contract).
            if self.resilient {
                for &ri in &s.pending {
                    self.check_healthy(inputs[ri].len())?;
                }
            }
            if round > 0 {
                self.metrics.retries.inc();
                self.metrics.redirects.add(s.pending.len() as u64);
            }
            round += 1;
            self.plan(s, inputs);
            self.execute_round(first_id, inputs, s)?;
            // Submission order keeps redirect planning deterministic and
            // independent of which shards failed in what order.
            s.pending.sort_unstable();
        }
        Ok(())
    }

    /// The plan step: fills `s.plan` with per-unit request lists from
    /// `s.pending` (indices into the flush's inputs, submission order,
    /// empty for idle units). One unit takes every pending request when
    /// [`ShardPool::whole_flush_unit`] picks one; otherwise the dispatch
    /// policy spreads them over the eligible units. A unit's profile is
    /// its lead member's (a group's members share one width and beat
    /// cost by construction, and their clocks advance in lockstep) with
    /// its most conservative member's weight.
    fn plan(&mut self, s: &mut FlushScratch, inputs: &[BitVec]) {
        s.plan.resize_with(self.units.len(), Vec::new);
        for indices in &mut s.plan {
            indices.clear();
        }
        if let Some(unit) = self.whole_flush_unit(s.pending.len()) {
            // The dispatcher's round-robin cursors are deliberately left
            // untouched: a consolidated flush never rotates them, which
            // keeps the assignment deterministic for any flush sequence.
            if self.units.len() > 1 {
                self.metrics.consolidated.inc();
            }
            s.plan[unit].extend_from_slice(&s.pending);
            return;
        }
        self.metrics.dispatched.add(s.pending.len() as u64);
        let profiles: Vec<ShardProfile> = self
            .units
            .iter()
            .map(|members| {
                let design = self.designs[members[0]];
                ShardProfile {
                    load: self.engines[members[0]].load(),
                    width: design.shape().features,
                    beats_per_request: design.shape().num_packets() as u64,
                    weight: members
                        .iter()
                        .map(|&m| self.weights[m])
                        .min()
                        .expect("units are non-empty"),
                }
            })
            .collect();
        let eligible: Vec<bool> = (0..self.units.len())
            .map(|u| self.unit_eligible(u))
            .collect();
        let widths: Vec<usize> = s.pending.iter().map(|&ri| inputs[ri].len()).collect();
        let assignment = self.dispatcher.plan(&profiles, &widths, &eligible);
        for (&ri, unit) in s.pending.iter().zip(assignment) {
            s.plan[unit].push(ri);
        }
    }

    /// The unit a flush of `pending` requests runs on whole, if any: the
    /// only unit of a one-unit pool, or — on a homogeneous turbo pool,
    /// whose identical tapes make assignment result-invisible — the
    /// least-loaded eligible shard (tie → lowest index) when the flush
    /// carries less than one consolidation floor of work per shard.
    /// Quarantined shards are never picked, so a redirect round's
    /// re-plan *is* the hop to the least-loaded surviving shard.
    fn whole_flush_unit(&self, pending: usize) -> Option<usize> {
        if self.units.len() == 1 {
            return Some(0);
        }
        if !self.runs_whole(pending) {
            return None;
        }
        // A homogeneous pool's units are its shards, in order.
        (0..self.units.len())
            .filter(|&shard| self.health.eligible(shard))
            .min_by_key(|&shard| (self.engines[shard].load().cycles, shard))
    }

    /// Whether a multi-unit pool consolidates a flush of `pending`
    /// requests onto one shard: only a homogeneous turbo pool does, and
    /// only below its consolidation floor.
    fn runs_whole(&self, pending: usize) -> bool {
        self.shared_chunk_cost.is_some_and(|chunk_cost| {
            let lane_words = pending.div_ceil(matador_sim::LANES) as u64;
            let batch_cost = chunk_cost.saturating_mul(lane_words);
            Self::flush_consolidates(batch_cost, self.chunk_threshold, self.units.len() as u64)
        })
    }

    /// Whether a flush of `batch_cost` tape work (chunk cost × lane
    /// words) may consolidate onto one shard of a `shards`-shard pool.
    ///
    /// The per-shard floor is `chunk_threshold` clamped to
    /// [`matador_sim::DEFAULT_CHUNK_THRESHOLD`], so `u64::MAX` (a
    /// standalone engine's "never chunk" sentinel) cannot saturate the
    /// floor and consolidate every flush. Threshold `0` spreads every
    /// flush; the default and anything above it give the default floor.
    fn flush_consolidates(batch_cost: u64, chunk_threshold: u64, shards: u64) -> bool {
        let spread_floor = chunk_threshold
            .min(matador_sim::DEFAULT_CHUNK_THRESHOLD)
            .saturating_mul(shards);
        batch_cost < spread_floor
    }

    /// Executes one planned round and triages it per unit: served units'
    /// predictions fill their requests' slots, and the requests of
    /// failed units are left in `s.pending` for re-planning (resilient)
    /// or fail the flush (classic). A lost slice contributes *nothing* —
    /// a panicked worker produced no results, a corrupted slice is
    /// discarded, and any member failure discards its whole unit (a lone
    /// partial sum is meaningless) — so every served reply was computed
    /// cleanly by healthy shards, which keeps chaos replies bit-identical
    /// to the fault-free run.
    fn execute_round(
        &mut self,
        first_id: u64,
        inputs: &[BitVec],
        s: &mut FlushScratch,
    ) -> Result<(), ServeError> {
        // A unit carrying the whole flush runs straight off `inputs`; a
        // spread slice is gathered once and shared by the unit's members.
        let mut slices: Vec<Cow<'_, [BitVec]>> = recycle(std::mem::take(&mut s.slices));
        slices.extend(s.plan.iter().map(|indices| {
            if indices.len() == inputs.len() {
                Cow::Borrowed(inputs)
            } else {
                Cow::Owned(indices.iter().map(|&ri| inputs[ri].clone()).collect())
            }
        }));
        // The ii-outlier baseline, from before this round's work lands.
        let modeled_ii = self.resilient.then(|| self.modeled_ii_cycles());

        // Runs in unit order, members contiguous. Fault directives are
        // planned up front on the pool thread — the injector's state is
        // single-threaded, workers only read their own directive.
        let mut engines: Vec<Option<&mut PoolEngine>> = recycle(std::mem::take(&mut s.engines));
        engines.extend(self.engines.iter_mut().map(Some));
        let mut runs: Vec<MemberRun<'_, '_>> = recycle(std::mem::take(&mut s.runs));
        for ((members, indices), slice) in self.units.iter().zip(&s.plan).zip(&slices) {
            if indices.is_empty() {
                continue;
            }
            for &shard in members {
                let engine = engines[shard].take().expect("units partition the shards");
                let directives = if self.faults.armed() {
                    self.faults.plan_slice(shard, indices.len())
                } else {
                    SliceFaults::clean()
                };
                for &label in directives.soft.iter().chain(&directives.hard) {
                    count_fault(false, label);
                }
                runs.push(MemberRun {
                    result: MemberResult {
                        shard,
                        beats_per_request: self.designs[shard].shape().num_packets() as u64,
                        before: engine.load(),
                        directives,
                        output: s.outputs.pop().unwrap_or_default(),
                        outcome: None,
                    },
                    engine,
                    inputs: slice,
                });
            }
        }
        // A round of turbo members runs serially on the caller: a turbo
        // slice is too cheap to repay a worker thread. A round with a
        // cycle-accurate member, ~100× costlier per request, fans out
        // one worker per member.
        let all_turbo = runs
            .iter()
            .all(|run| matches!(run.engine, PoolEngine::Turbo(_)));
        let threads = if all_turbo {
            1
        } else {
            self.threads.unwrap_or_else(matador_par::configured_threads)
        };
        if self.resilient {
            // A contained panic is already recorded as its run's unset
            // outcome; which one surfaced first is irrelevant.
            let _ = matador_par::try_par_map_mut_with(threads, &mut runs, |_, run| run.execute());
        } else {
            matador_par::par_map_mut_with(threads, &mut runs, |_, run| run.execute());
        }
        s.results.clear();
        s.results.extend(runs.drain(..).map(|run| run.result));
        s.runs = recycle(runs);
        s.engines = recycle(engines);
        s.slices = recycle(slices);
        let results = &mut s.results;

        // Classic fail-fast: the lowest failing shard fails the flush
        // before anything is booked (engine errors are the only failure a
        // classic pool observes — it lets panics propagate).
        if !self.resilient {
            let failed = results.iter().filter(|r| r.failure().is_some());
            if let Some(MemberResult {
                shard,
                outcome: Some(Err(SliceError::Engine(error))),
                ..
            }) = failed.min_by_key(|r| r.shard)
            {
                return Err(ServeError::Shard {
                    shard: *shard,
                    error: *error,
                });
            }
        }
        // Soft faults degrade their shard whether or not the slice also
        // died; the breaker sees every injected symptom.
        for r in results.iter() {
            for &label in &r.directives.soft {
                count_fault(true, label);
                self.health.note_soft(r.shard, label);
            }
        }

        s.pending.clear();
        let mut hard_faults: Vec<(usize, &'static str)> = Vec::new();
        let mut rest = &mut results[..];
        for (unit, indices) in s.plan.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let (unit_runs, tail) = std::mem::take(&mut rest).split_at_mut(self.units[unit].len());
            rest = tail;
            let failed: Vec<(usize, &'static str)> = unit_runs
                .iter()
                .filter_map(|r| Some((r.shard, r.failure()?)))
                .collect();
            if !failed.is_empty() {
                hard_faults.extend(failed);
                s.pending.extend(indices);
                continue;
            }
            self.unit_predictions(first_id, indices, unit_runs, &mut s.slots);
            for run in unit_runs.iter() {
                self.book_member(run, indices.len(), modeled_ii);
            }
        }
        for (shard, cause) in hard_faults {
            count_fault(true, cause);
            self.health.note_hard(shard, cause);
        }
        s.outputs.extend(results.drain(..).map(|r| r.output));
        Ok(())
    }

    /// Fills a served unit's request slots with its predictions, in its
    /// slice's order. A lone shard's results are served as they are. A
    /// partition group's partial class sums are merged element-wise into
    /// each winner — exact by the partitioner's contract
    /// ([`matador_sim::CompilePipeline::partition`]: disjoint clause
    /// ranges cut at polarity-preserving boundaries) — and its prediction
    /// carries the slowest member's latency/completion stamp (all parts
    /// stream the same packets, so they agree) and the lead member as
    /// its shard.
    fn unit_predictions(
        &self,
        first_id: u64,
        indices: &[usize],
        runs: &mut [MemberResult],
        slots: &mut [Option<Prediction>],
    ) {
        let lead = runs[0].shard;
        let capture = self.capture_sums;
        if let [run] = runs {
            let output = &mut run.output;
            let stamps = output.results.iter().zip(&output.first_beats);
            for (j, (&ri, (result, &first_beat))) in indices.iter().zip(stamps).enumerate() {
                slots[ri] = Some(Prediction {
                    request: first_id + ri as u64,
                    winner: result.winner,
                    shard: lead,
                    latency_cycles: result.cycle - first_beat + 1,
                    completed_at_cycle: result.cycle,
                    class_sums: capture.then(|| std::mem::take(&mut output.class_sums[j])),
                });
            }
            return;
        }
        for (j, &ri) in indices.iter().enumerate() {
            let mut merged = vec![0i32; runs[0].output.class_sums[j].len()];
            let (mut latency, mut completed) = (0u64, 0u64);
            for output in runs.iter().map(|r| &r.output) {
                for (acc, &s) in merged.iter_mut().zip(&output.class_sums[j]) {
                    *acc += s;
                }
                let cycle = output.results[j].cycle;
                latency = latency.max(cycle - output.first_beats[j] + 1);
                completed = completed.max(cycle);
            }
            slots[ri] = Some(Prediction {
                request: first_id + ri as u64,
                winner: tsetlin::tm::argmax(&merged),
                shard: lead,
                latency_cycles: latency,
                completed_at_cycle: completed,
                class_sums: capture.then_some(merged),
            });
        }
    }

    /// Merges every shard's stream statistics (engine cycles, monitor
    /// datapoint counts, transfers, stalls) and the pool's latency samples
    /// into a whole-pool [`ThroughputReport`].
    pub fn report(&self) -> ThroughputReport {
        let shards = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, e)| e.stats(i))
            .collect();
        ThroughputReport::merge(shards, &self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use matador_sim::AccelShape;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// 8-feature, 2-packet accelerator: class 0 votes for x0, class 1 for
    /// x4 (mirrors the engine's own test design).
    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    /// The same boolean function as [`accel`], recompiled on a 2-bit bus:
    /// 4 packets per datapoint instead of 2. Predictions agree with
    /// `accel()` on every input; only the stream geometry differs.
    fn narrow_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 2,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::one(),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
        ];
        let w2 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        let w3 = vec![Cube::one(); 4];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1, w2, w3], Sharing::Enabled)
    }

    /// A 6-feature design — a different width class entirely.
    fn six_feature_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 3,
            features: 6,
            classes: 2,
            clauses_per_class: 1,
        };
        let w0 = vec![Cube::from_lits([Lit::pos(0)]), Cube::one()];
        let w1 = vec![Cube::one(), Cube::from_lits([Lit::pos(0)])];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    fn inputs(n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    BitVec::from_indices(8, &[0])
                } else {
                    BitVec::from_indices(8, &[4])
                }
            })
            .collect()
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let a = accel();
        assert!(matches!(
            ShardPool::with_options(&a, ServeOptions::new(0)).unwrap_err(),
            ServeError::ZeroShards
        ));
    }

    #[test]
    fn predictions_match_reference_on_every_shard_count() {
        let a = accel();
        let xs = inputs(11);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
            .collect();
        for shards in [1, 2, 3, 8] {
            let mut pool = ShardPool::with_options(&a, ServeOptions::new(shards)).expect("valid");
            let winners: Vec<usize> = pool
                .serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect();
            assert_eq!(winners, expected, "shards={shards}");
        }
    }

    #[test]
    fn round_robin_spreads_requests() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(4)).expect("valid");
        let preds = pool.serve(&inputs(8)).expect("drains");
        let shards: Vec<usize> = preds.iter().map(|p| p.shard).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn width_mismatch_is_typed() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        let err = pool.serve(&[BitVec::zeros(5)]).unwrap_err();
        assert_eq!(
            err,
            ServeError::WidthMismatch {
                expected: 8,
                got: 5
            }
        );
    }

    #[test]
    fn serve_rejects_malformed_batches_atomically() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        // A bad width deep in the batch (past a flush-window boundary)
        // must fail before *anything* runs — no stranded predictions, no
        // phantom datapoints in the report.
        let mut batch = inputs(FLUSH_WINDOW + 1);
        batch.push(BitVec::zeros(5));
        let err = pool.serve(&batch).unwrap_err();
        assert!(matches!(err, ServeError::WidthMismatch { got: 5, .. }));
        assert_eq!(pool.report().datapoints, 0);
        assert!(pool.latencies().is_empty());
        // The pool stays fully usable afterwards.
        assert_eq!(pool.serve(&inputs(7)).expect("drains").len(), 7);
    }

    #[test]
    fn batches_larger_than_the_flush_window_complete_in_order() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(1)).expect("valid");
        let n = 2 * FLUSH_WINDOW + 1;
        let preds = pool.serve(&inputs(n)).expect("drains");
        let ids: Vec<u64> = preds.iter().map(|p| p.request).collect();
        assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        // Two full windows and a one-request tail: three flushes.
        assert_eq!(pool.shard_stats()[0].flushes_served, 3);
        // Ids continue across calls.
        assert_eq!(pool.serve(&inputs(1)).expect("drains")[0].request, n as u64);
    }

    #[test]
    fn latency_matches_single_engine_formula() {
        let a = accel(); // 2 packets → latency 2 + 3
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        let preds = pool.serve(&inputs(4)).expect("drains");
        for p in &preds {
            assert_eq!(p.latency_cycles, 2 + 3, "{p:?}");
        }
        let report = pool.report();
        assert_eq!(report.latency_p50_cycles, 5);
        assert_eq!(report.latency_p99_cycles, 5);
        assert_eq!(report.datapoints, 4);
    }

    #[test]
    fn pipelined_sum_option_adds_one_cycle() {
        let a = accel();
        let mut options = ServeOptions::new(1);
        options.pipelined_sum = true;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let preds = pool.serve(&inputs(2)).expect("drains");
        assert!(preds.iter().all(|p| p.latency_cycles == 2 + 4));
    }

    #[test]
    fn class_sums_captured_when_requested() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.capture_class_sums = true;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let xs = inputs(6);
        let preds = pool.serve(&xs).expect("drains");
        for (x, p) in xs.iter().zip(&preds) {
            assert_eq!(
                p.class_sums.as_deref(),
                Some(a.reference_class_sums(x).as_slice())
            );
        }
        // Off by default: no sums carried.
        let mut plain = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        assert!(plain.serve(&xs).expect("drains")[0].class_sums.is_none());
    }

    #[test]
    fn multi_shard_pool_cycles_beat_single_shard() {
        let a = accel();
        let xs = inputs(32);
        let pool_cycles = |shards: usize| {
            let mut pool = ShardPool::with_options(&a, ServeOptions::new(shards)).expect("valid");
            pool.serve(&xs).expect("drains");
            pool.report().pool_cycles
        };
        let one = pool_cycles(1);
        let four = pool_cycles(4);
        assert!(four < one, "4 shards {four} !< 1 shard {one}");
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let a = accel();
        let xs = inputs(17);
        let run = |threads: usize| {
            let mut options = ServeOptions::new(4);
            options.threads = Some(threads);
            options.capture_class_sums = true;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            (preds, pool.report())
        };
        let sequential = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn least_queued_balances_cumulative_load_across_flushes() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.policy = DispatchPolicy::LeastQueued;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        // First flush: one request lands on shard 0 (tie → lowest index),
        // leaving shard 0 with cycle history and shard 1 idle.
        let first = pool.serve(&inputs(1)).expect("drains");
        assert_eq!(first[0].shard, 0);
        // Second flush: shard 1 has strictly less accumulated load, so it
        // absorbs the next requests until it catches up.
        let second = pool.serve(&inputs(2)).expect("drains");
        assert_eq!(
            second.iter().map(|p| p.shard).collect::<Vec<_>>(),
            vec![1, 1]
        );
    }

    #[test]
    fn least_queued_agrees_with_round_robin_on_predictions() {
        let a = accel();
        let xs = inputs(13);
        let winners = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(3);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            winners(DispatchPolicy::RoundRobin),
            winners(DispatchPolicy::LeastQueued)
        );
    }

    #[test]
    fn empty_serve_is_a_no_op() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        assert!(pool.serve(&[]).expect("trivially drains").is_empty());
        assert_eq!(pool.report().datapoints, 0);
        assert!(pool.shard_stats().iter().all(|s| s.flushes_served == 0));
    }

    #[test]
    fn turbo_backend_is_bit_identical_including_reports() {
        let a = accel();
        let xs = inputs(23);
        for shards in [1usize, 3] {
            for policy in [
                DispatchPolicy::RoundRobin,
                DispatchPolicy::LeastQueued,
                DispatchPolicy::LatencyAware,
            ] {
                let serve_twice = |backend: EngineBackend| {
                    let mut options = ServeOptions::new(shards);
                    options.policy = policy;
                    options.capture_class_sums = true;
                    options.backend = backend;
                    // Shard *assignments* must match the cycle pool too,
                    // so keep the turbo pool on the configured policy: a
                    // zero consolidation floor spreads every flush.
                    options.chunk_threshold = Some(0);
                    let mut pool = ShardPool::with_options(&a, options).expect("valid");
                    // Two batches exercise the cumulative shard clocks the
                    // stateful policies dispatch on.
                    let mut preds = pool.serve(&xs[..9]).expect("drains");
                    preds.extend(pool.serve(&xs[9..]).expect("drains"));
                    (preds, pool.report())
                };
                let cycle = serve_twice(EngineBackend::CycleAccurate);
                let turbo = serve_twice(EngineBackend::Turbo);
                assert_eq!(turbo, cycle, "shards={shards} {policy:?}");
            }
        }
    }

    #[test]
    fn small_turbo_flushes_consolidate_onto_the_least_loaded_shard() {
        let a = accel();
        let xs = inputs(12);
        // Well below one chunk threshold of work per shard: the default
        // round-robin policy would spread, consolidation sends the whole
        // flush to one shard instead.
        let mut pool = ShardPool::with_options(&a, ServeOptions::turbo(4)).expect("valid");
        let first = pool.serve(&xs).expect("infallible");
        assert!(first.iter().all(|p| p.shard == 0), "fresh pool → shard 0");
        // The next flush finds shard 0 loaded and picks an idle shard.
        let second = pool.serve(&xs).expect("infallible");
        assert!(second.iter().all(|p| p.shard == 1), "tie → lowest idle");
        // Winners and latencies are exactly the single-shard answers.
        let mut single = ShardPool::with_options(&a, ServeOptions::turbo(1)).expect("valid");
        let alone = single.serve(&xs).expect("infallible");
        for (p, q) in first.iter().zip(&alone) {
            assert_eq!((p.winner, p.latency_cycles), (q.winner, q.latency_cycles));
        }
    }

    /// Pins the consolidation decision at the three interesting
    /// thresholds. The `u64::MAX` rows are the regression for the
    /// sentinel-overflow bug: pre-fix, `spread_floor` saturated to
    /// `u64::MAX` and a flush of *any* cost consolidated, so a
    /// multi-shard pool sweeping `chunk_threshold = u64::MAX` (the
    /// documented "disable chunk fan-out" sentinel) silently served every
    /// flush from one shard.
    #[test]
    fn consolidation_floor_is_decoupled_from_the_chunk_sentinel() {
        use matador_sim::DEFAULT_CHUNK_THRESHOLD as DEFAULT;
        let consolidates =
            |cost: u64, threshold: u64| ShardPool::flush_consolidates(cost, threshold, 4);
        // Threshold 0: consolidation disabled, every flush spreads.
        assert!(!consolidates(0, 0));
        assert!(!consolidates(1, 0));
        // Default threshold: small flushes consolidate, big ones spread.
        assert!(consolidates(4 * DEFAULT - 1, DEFAULT));
        assert!(!consolidates(4 * DEFAULT, DEFAULT));
        // u64::MAX sentinel: chunking is disabled, but consolidation must
        // keep the *default* floor — a batch past it still spreads over
        // the shards. Pre-fix both asserts below failed.
        assert!(!consolidates(4 * DEFAULT, u64::MAX));
        assert!(!consolidates(u64::MAX, u64::MAX));
        // ... while genuinely small flushes still consolidate at MAX,
        // exactly as they do at the default.
        assert!(consolidates(4 * DEFAULT - 1, u64::MAX));
        // In-between thresholds below the default pass through unclamped.
        assert!(consolidates(4 * 100 - 1, 100));
        assert!(!consolidates(4 * 100, 100));
    }

    #[test]
    fn chunk_sentinel_pool_still_consolidates_small_flushes() {
        // Pool-level companion to the pure-function regression: with the
        // sentinel threshold a small flush behaves exactly as it does at
        // the default — consolidated onto the least-loaded shard — and a
        // zero threshold spreads even a tiny flush round-robin.
        let a = accel();
        let serve_shards = |threshold: u64| {
            let mut options = ServeOptions::turbo(4);
            options.chunk_threshold = Some(threshold);
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&inputs(8))
                .expect("drains")
                .iter()
                .map(|p| p.shard)
                .collect::<Vec<_>>()
        };
        assert_eq!(serve_shards(u64::MAX), vec![0; 8], "sentinel consolidates");
        assert_eq!(
            serve_shards(matador_sim::DEFAULT_CHUNK_THRESHOLD),
            vec![0; 8],
            "default consolidates"
        );
        assert_eq!(
            serve_shards(0),
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            "threshold 0 spreads round-robin"
        );
    }

    #[test]
    fn turbo_convenience_options_select_the_backend() {
        let a = accel();
        let options = ServeOptions::turbo(2);
        assert_eq!(options.backend, EngineBackend::Turbo);
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let preds = pool.serve(&inputs(5)).expect("infallible");
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|p| p.latency_cycles == 2 + 3));
    }

    #[test]
    fn latency_aware_matches_least_queued_on_uniform_load() {
        let a = accel();
        let xs = inputs(12);
        let serve_fresh = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(3);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&xs).expect("drains")
        };
        // From a fresh (uniform) pool the two policies plan identically —
        // same shard assignment, same predictions.
        assert_eq!(
            serve_fresh(DispatchPolicy::LatencyAware),
            serve_fresh(DispatchPolicy::LeastQueued)
        );
    }

    #[test]
    fn latency_aware_beats_least_queued_on_a_skewed_batch() {
        let a = accel(); // 2 packets → a 1-datapoint flush costs 5 cycles
        let run = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(2);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            // Skew the histories: a lone request lands on shard 0.
            pool.serve(&inputs(1)).expect("drains");
            let before: Vec<u64> = pool.report().shards.iter().map(|s| s.cycles).collect();
            let preds = pool.serve(&inputs(8)).expect("drains");
            let makespan = pool
                .report()
                .shards
                .iter()
                .zip(&before)
                .map(|(s, b)| s.cycles - b)
                .max()
                .expect("two shards");
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            (winners, makespan)
        };
        let (lq_winners, lq_makespan) = run(DispatchPolicy::LeastQueued);
        let (la_winners, la_makespan) = run(DispatchPolicy::LatencyAware);
        // Identical answers (dispatch never changes predictions) …
        assert_eq!(la_winners, lq_winners);
        // … but LeastQueued "repays" shard 0's history by overloading
        // shard 1 (3/5 split → 13-cycle drain), while LatencyAware
        // schedules the batch itself evenly (4/4 → 11 cycles).
        assert_eq!(lq_makespan, 13);
        assert_eq!(la_makespan, 11);
    }

    #[test]
    fn drain_model_accessors_reflect_the_designs() {
        let a = accel(); // 2 packets/datapoint
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        assert_eq!(pool.latency_floor_cycles(), 2 + 3);
        assert_eq!(pool.beats_for_width(8), 2);
        assert_eq!(pool.beats_for_width(99), 1, "unserved width falls back");
        // No steady-state history yet: the bandwidth-bound fallback.
        assert_eq!(pool.modeled_ii_cycles(), 2);
        assert_eq!(pool.shard_cycles(), vec![0, 0]);
        pool.serve(&inputs(8)).expect("drains");
        assert!(pool.shard_cycles().iter().all(|&c| c > 0));
        // Back-to-back streaming observes the bandwidth-bound II.
        assert_eq!(pool.modeled_ii_cycles(), 2);
        // A pipelined class sum raises the floor by its extra cycle.
        let mut opts = ServeOptions::new(1);
        opts.pipelined_sum = true;
        let pool = ShardPool::with_options(&a, opts).expect("valid");
        assert_eq!(pool.latency_floor_cycles(), 2 + 4);
    }

    #[test]
    fn completion_stamps_match_shard_clocks() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        let before = pool.shard_cycles();
        let preds = pool.serve(&inputs(6)).expect("drains");
        let after = pool.shard_cycles();
        for p in &preds {
            // Stamps live on the shard-local clock, inside this flush.
            assert!(p.completed_at_cycle > before[p.shard], "{p:?}");
            assert!(p.completed_at_cycle <= after[p.shard], "{p:?}");
        }
        // Within one shard, stamps are strictly increasing in
        // submission order — the reorder stage's ordering key.
        for shard in 0..2 {
            let stamps: Vec<u64> = preds
                .iter()
                .filter(|p| p.shard == shard)
                .map(|p| p.completed_at_cycle)
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        }
    }

    // --- heterogeneous pools ---

    fn hetero_specs() -> Vec<ShardSpec> {
        vec![ShardSpec::new(accel()), ShardSpec::new(narrow_accel())]
    }

    #[test]
    fn empty_spec_list_is_a_typed_error() {
        let specs: Vec<ShardSpec> = Vec::new();
        assert!(matches!(
            ShardPool::heterogeneous(&specs, ServeOptions::new(1)).unwrap_err(),
            ServeError::ZeroShards
        ));
    }

    #[test]
    fn zero_weight_spec_is_a_typed_error() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(accel()).weight(0)];
        assert_eq!(
            ShardPool::heterogeneous(&specs, ServeOptions::new(1)).unwrap_err(),
            ServeError::ZeroWeight { shard: 1 }
        );
    }

    #[test]
    fn mixed_bus_widths_agree_with_the_reference_on_every_request() {
        // Same model compiled on a 4-bit and a 2-bit bus behind one pool:
        // identical predictions regardless of which shard serves which
        // request, under every policy.
        let specs = hetero_specs();
        let xs = inputs(13);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&specs[0].design.reference_class_sums(x)))
            .collect();
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected, "{policy:?}");
            // Both shards actually participated.
            assert!(preds.iter().any(|p| p.shard == 0), "{policy:?}");
            assert!(preds.iter().any(|p| p.shard == 1), "{policy:?}");
        }
    }

    #[test]
    fn no_compatible_shard_is_typed_not_a_panic() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(six_feature_accel())];
        let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(1)).expect("valid");
        assert_eq!(pool.widths(), &[6, 8]);
        // The whole batch is rejected atomically.
        let err = pool
            .serve(&[BitVec::zeros(8), BitVec::zeros(5)])
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::NoCompatibleShard {
                got: 5,
                widths: vec![6, 8],
            }
        );
        assert_eq!(pool.report().datapoints, 0);
    }

    #[test]
    fn mixed_widths_route_only_to_compatible_shards() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(six_feature_accel())];
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let batch = vec![
                BitVec::from_indices(8, &[0]),
                BitVec::from_indices(6, &[0]),
                BitVec::from_indices(8, &[4]),
                BitVec::from_indices(6, &[3]),
            ];
            let preds = pool.serve(&batch).expect("drains");
            let shards: Vec<usize> = preds.iter().map(|p| p.shard).collect();
            // Width 8 → shard 0 only; width 6 → shard 1 only.
            assert_eq!(shards, vec![0, 1, 0, 1], "{policy:?}");
        }
    }

    #[test]
    fn latency_aware_sends_more_to_the_wide_bus_shard() {
        // Shard 0: 2 beats/datapoint (4-bit bus). Shard 1: 4
        // beats/datapoint (2-bit bus). LatencyAware levels queued beats,
        // so the wide shard absorbs ~2× the requests; RoundRobin
        // alternates blindly and drains slower.
        let specs = hetero_specs();
        let makespan = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&inputs(12)).expect("drains");
            let wide = preds.iter().filter(|p| p.shard == 0).count();
            (wide, pool.report().pool_cycles)
        };
        let (rr_wide, rr_cycles) = makespan(DispatchPolicy::RoundRobin);
        let (la_wide, la_cycles) = makespan(DispatchPolicy::LatencyAware);
        assert_eq!(rr_wide, 6);
        assert!(la_wide > rr_wide, "LatencyAware wide-shard share {la_wide}");
        assert!(
            la_cycles < rr_cycles,
            "LatencyAware {la_cycles} !< RoundRobin {rr_cycles}"
        );
    }

    #[test]
    fn weights_bias_dispatch_on_equal_designs() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(accel()).weight(3)];
        let mut options = ServeOptions::new(1);
        options.policy = DispatchPolicy::LeastQueued;
        let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
        let preds = pool.serve(&inputs(8)).expect("drains");
        let to_heavy = preds.iter().filter(|p| p.shard == 1).count();
        assert_eq!(to_heavy, 6, "weight-3 shard absorbs 3/4 of the batch");
    }

    #[test]
    fn heterogeneous_per_shard_backends_are_bit_identical() {
        // One cycle-accurate shard and one turbo shard of the *same*
        // design in one pool: every prediction, class sum, latency and
        // report entry matches a fully cycle-accurate pool.
        let xs = inputs(17);
        let run = |backends: [EngineBackend; 2]| {
            let specs = vec![
                ShardSpec::new(accel()).backend(backends[0]),
                ShardSpec::new(accel()).backend(backends[1]),
            ];
            let mut options = ServeOptions::new(1);
            options.capture_class_sums = true;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            (preds, pool.report())
        };
        let all_cycle = run([EngineBackend::CycleAccurate, EngineBackend::CycleAccurate]);
        let mixed = run([EngineBackend::CycleAccurate, EngineBackend::Turbo]);
        let all_turbo = run([EngineBackend::Turbo, EngineBackend::Turbo]);
        assert_eq!(mixed, all_cycle);
        assert_eq!(all_turbo, all_cycle);
    }

    #[test]
    fn shard_stats_track_dispatched_work_per_shard() {
        let a = accel(); // 2 beats/datapoint
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        assert!(pool
            .shard_stats()
            .iter()
            .all(|s| s.queued_beats == 0 && s.flushes_served == 0 && s.ii_samples == 0));
        pool.serve(&inputs(6)).expect("drains");
        let stats = pool.shard_stats();
        assert_eq!(stats.len(), 2);
        // Round-robin: 3 requests × 2 beats to each shard, one flush each.
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.queued_beats, 6, "{s:?}");
            assert_eq!(s.flushes_served, 1, "{s:?}");
            // 3 results per shard → 2 observed result-to-result gaps.
            assert_eq!(s.ii_samples, 2, "{s:?}");
            assert!(s.ii_cycles > 0, "{s:?}");
        }
    }

    #[test]
    fn shard_stats_attribute_consolidated_flushes_to_one_shard() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::turbo(4)).expect("valid");
        pool.serve(&inputs(12)).expect("infallible");
        let stats = pool.shard_stats();
        // The whole flush consolidated onto shard 0: 12 × 2 beats there,
        // nothing anywhere else.
        assert_eq!(stats[0].queued_beats, 24);
        assert_eq!(stats[0].flushes_served, 1);
        for s in &stats[1..] {
            assert_eq!((s.queued_beats, s.flushes_served), (0, 0), "{s:?}");
        }
    }

    #[test]
    fn heterogeneous_replicated_design_matches_homogeneous_pool() {
        // Two specs replicating one design == the homogeneous 2-shard
        // pool, observation for observation.
        let a = accel();
        let xs = inputs(9);
        let mut homo = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        let homo_preds = homo.serve(&xs).expect("drains");
        let specs = vec![ShardSpec::new(a.clone()), ShardSpec::new(a.clone())];
        let mut hetero = ShardPool::heterogeneous(&specs, ServeOptions::new(2)).expect("valid");
        let hetero_preds = hetero.serve(&xs).expect("drains");
        assert_eq!(hetero_preds, homo_preds);
        assert_eq!(hetero.report(), homo.report());
    }

    #[test]
    fn homogeneous_shards_share_one_program() {
        // Engines built from one `Arc` deref to the same allocation, so
        // pointer equality here is `Arc::ptr_eq` on the engines' programs.
        let a = accel();
        for backend in [EngineBackend::Turbo, EngineBackend::CycleAccurate] {
            let options = ServeOptions {
                backend,
                ..ServeOptions::new(4)
            };
            let pool = ShardPool::with_options(&a, options).expect("valid");
            let programs: Vec<&TurboProgram> = pool
                .engines
                .iter()
                .map(|engine| match (engine, backend) {
                    (PoolEngine::Turbo(e), EngineBackend::Turbo) => e.program(),
                    (PoolEngine::Cycle(e), EngineBackend::CycleAccurate) => e.program(),
                    _ => panic!("a {backend:?} pool runs only {backend:?} engines"),
                })
                .collect();
            assert_eq!(programs.len(), 4, "{backend:?}");
            assert!(
                programs.iter().all(|&p| std::ptr::eq(p, programs[0])),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn heterogeneous_turbo_pool_is_identical_at_any_thread_count() {
        // Mixed stream geometries keep every flush spread over all three
        // shards; 300 requests span two flush windows.
        let specs = vec![
            ShardSpec::new(accel()).backend(EngineBackend::Turbo),
            ShardSpec::new(narrow_accel()).backend(EngineBackend::Turbo),
            ShardSpec::new(accel()).backend(EngineBackend::Turbo),
        ];
        let xs = inputs(300);
        let run = |threads: usize| {
            let mut options = ServeOptions::new(1);
            options.threads = Some(threads);
            options.capture_class_sums = true;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            (preds, pool.report(), pool.shard_stats())
        };
        let (preds, report, stats) = run(1);
        assert!(stats.iter().all(|s| s.flushes_served == 2), "{stats:?}");
        assert_eq!(run(4), (preds, report, stats));
    }

    /// Serializes panic-hook swaps across tests (the hook is process
    /// state) and silences the stderr spew from injected worker panics.
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let _guard = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match result {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    use crate::fault::FaultEvent;
    use crate::FaultKind;

    /// A resilient pool with nothing to inject is observationally the
    /// classic pool: on every pool shape (single shard, consolidated
    /// turbo, cycle-accurate spread, partition group).
    #[test]
    fn empty_fault_plan_matches_the_classic_pool() {
        let a = accel();
        let wide = wide_accel();
        let group = partitioned_specs(&wide, 2, 0);
        let options = |backend: EngineBackend, shards: usize| ServeOptions {
            backend,
            capture_class_sums: true,
            ..ServeOptions::new(shards)
        };
        let xs = inputs(21);
        for shape in [
            "1-shard turbo",
            "4-shard turbo",
            "3-shard cycle",
            "K=2 group",
        ] {
            let run = |resilient: bool| {
                let mut pool = match shape {
                    "1-shard turbo" => {
                        ShardPool::with_options(&a, options(EngineBackend::Turbo, 1))
                    }
                    "4-shard turbo" => {
                        ShardPool::with_options(&a, options(EngineBackend::Turbo, 4))
                    }
                    "3-shard cycle" => {
                        ShardPool::with_options(&a, options(EngineBackend::CycleAccurate, 3))
                    }
                    _ => ShardPool::heterogeneous(&group, options(EngineBackend::CycleAccurate, 2)),
                }
                .expect("valid");
                if resilient {
                    pool.install_fault_plan(FaultPlan::none());
                }
                // Several flushes of uneven size, so breaker bookkeeping
                // runs between flushes too.
                let mut preds = Vec::new();
                for window in xs.chunks(8).chain(xs[..11].chunks(8)) {
                    preds.extend(pool.serve(window).expect("drains"));
                }
                assert_eq!(pool.resilient(), resilient);
                assert!(pool.health_log().is_empty(), "{shape}");
                (preds, pool.report(), pool.shard_stats())
            };
            assert_eq!(run(true), run(false), "{shape}");
        }
    }

    #[test]
    fn injected_panic_redirects_work_and_quarantines_the_shard() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(8);
            let expected: Vec<usize> = xs
                .iter()
                .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
                .collect();
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 0,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            let preds = pool.serve(&xs).expect("the survivor absorbs the slice");
            // Zero drops, correct winners, and nothing served by the
            // shard that died before accepting its slice.
            assert_eq!(preds.len(), xs.len());
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected);
            assert!(preds.iter().all(|p| p.shard == 1));
            assert_eq!(pool.shard_health(0), ShardHealth::Quarantined);
            assert_eq!(pool.shard_health(1), ShardHealth::Healthy);
            let log = pool.health_log();
            assert_eq!(log.len(), 1);
            assert_eq!(
                (log[0].shard, log[0].from, log[0].to, log[0].cause),
                (0, ShardHealth::Healthy, ShardHealth::Quarantined, "panic")
            );
        });
    }

    #[test]
    fn corrupted_results_are_discarded_and_recomputed() {
        let a = accel();
        let xs = inputs(10);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
            .collect();
        let plan = FaultPlan::from_events(vec![FaultEvent {
            shard: 1,
            at_request: 0,
            kind: FaultKind::CorruptSum,
        }]);
        let mut pool = ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
        let preds = pool.serve(&xs).expect("redirected");
        let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
        // The corrupted slice was thrown away whole — every served
        // winner came from a clean run, so they all match the reference.
        assert_eq!(winners, expected);
        assert!(preds.iter().all(|p| p.shard == 0));
        assert_eq!(pool.shard_health(1), ShardHealth::Quarantined);
    }

    #[test]
    fn soft_faults_degrade_without_losing_work() {
        let a = accel();
        let xs = inputs(6);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            shard: 0,
            at_request: 0,
            kind: FaultKind::Stall { cycles: 500 },
        }]);
        let mut pool = ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
        let preds = pool.serve(&xs).expect("stalls only delay");
        assert_eq!(preds.len(), xs.len());
        // The stalled shard still served its slice — degraded, not
        // quarantined — and one clean flush heals it.
        assert!(preds.iter().any(|p| p.shard == 0));
        assert_eq!(pool.shard_health(0), ShardHealth::Degraded);
        pool.serve(&inputs(4)).expect("clean flush");
        assert_eq!(pool.shard_health(0), ShardHealth::Healthy);
    }

    #[test]
    fn killing_the_only_shard_is_a_typed_quarantine_error() {
        with_quiet_panics(|| {
            let a = accel();
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(1), FaultPlan::kill_shard(0, 0))
                    .expect("valid");
            let err = pool.serve(&inputs(4)).unwrap_err();
            assert_eq!(err, ServeError::ShardQuarantined { shard: 0 });
        });
    }

    #[test]
    fn killing_every_shard_leaves_no_healthy_capacity() {
        with_quiet_panics(|| {
            let a = accel();
            let plan = FaultPlan::kill_shard(0, 0).merged(&FaultPlan::kill_shard(1, 0));
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            let err = pool.serve(&inputs(6)).unwrap_err();
            assert_eq!(err, ServeError::NoHealthyShard { width: 8 });
            assert_eq!(pool.healthy_shards(), 0);
        });
    }

    #[test]
    fn killed_shard_mid_trace_loses_no_requests() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(32);
            let mut reference = ShardPool::with_options(&a, ServeOptions::new(4)).expect("valid");
            let expected: Vec<usize> = reference
                .serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect();
            // Shard 1 dies once it has attempted 4 requests — mid-trace,
            // with work already served and more still to come.
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(4), FaultPlan::kill_shard(1, 4))
                    .expect("valid");
            let mut winners = Vec::new();
            for window in xs.chunks(8) {
                winners.extend(
                    pool.serve(window)
                        .expect("survivors absorb")
                        .iter()
                        .map(|p| p.winner),
                );
            }
            assert_eq!(winners, expected);
            assert_eq!(pool.shard_health(1), ShardHealth::Quarantined);
            assert_eq!(pool.healthy_shards(), 3);
        });
    }

    #[test]
    fn quarantined_shard_recovers_through_a_half_open_probe() {
        with_quiet_panics(|| {
            let a = accel();
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 0,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            pool.serve(&inputs(4)).expect("redirected");
            assert_eq!(pool.shard_health(0), ShardHealth::Quarantined);
            // Cooldown counts flushes, not requests: after
            // PROBE_COOLDOWN_FLUSHES the breaker half-opens and a clean
            // probe slice closes it.
            for _ in 0..crate::PROBE_COOLDOWN_FLUSHES {
                pool.serve(&inputs(4)).expect("drains");
            }
            assert_eq!(pool.shard_health(0), ShardHealth::Healthy);
            let preds = pool.serve(&inputs(4)).expect("drains");
            assert!(
                preds.iter().any(|p| p.shard == 0),
                "recovered shard rejoins"
            );
            let states: Vec<(ShardHealth, ShardHealth)> = pool
                .health_log()
                .iter()
                .filter(|t| t.shard == 0)
                .map(|t| (t.from, t.to))
                .collect();
            assert_eq!(
                states,
                vec![
                    (ShardHealth::Healthy, ShardHealth::Quarantined),
                    (ShardHealth::Quarantined, ShardHealth::Probing),
                    (ShardHealth::Probing, ShardHealth::Healthy),
                ]
            );
        });
    }

    #[test]
    fn operator_quarantine_brownouts_admission() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::new(2)).expect("valid");
        assert!(!pool.resilient());
        pool.quarantine_shard(1);
        assert!(pool.resilient());
        assert_eq!(pool.healthy_shards(), 1);
        assert!(pool.check_healthy(8).is_ok());
        pool.quarantine_shard(0);
        assert_eq!(
            pool.check_healthy(8).unwrap_err(),
            ServeError::NoHealthyShard { width: 8 }
        );
    }

    #[test]
    fn chaos_replay_is_bit_identical() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(48);
            let run = |threads: usize| {
                let plan = FaultPlan::seeded(7, 2, 24, 2);
                let mut options = ServeOptions::new(2);
                options.threads = Some(threads);
                let mut pool = ShardPool::with_fault_plan(&a, options, plan).expect("valid");
                let mut preds = Vec::new();
                for window in xs.chunks(8) {
                    preds.extend(pool.serve(window).expect("survivors absorb"));
                }
                (preds, pool.health_log().to_vec())
            };
            let (preds_a, log_a) = run(1);
            let (preds_b, log_b) = run(8);
            assert_eq!(preds_a, preds_b);
            assert_eq!(log_a, log_b);
            assert!(!log_a.is_empty(), "a seeded plan injects something");
        });
    }

    #[test]
    fn seeded_fault_plan_arms_the_injector() {
        let a = accel();
        let plan = FaultPlan::seeded(11, 2, 256, 2);
        let pool = ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
        assert!(pool.resilient());
        assert!(pool.faults.armed());
    }

    /// A partitionable twin of [`accel`]: the same 8-feature, 2-packet
    /// geometry with four clauses per class, so the compile pipeline can
    /// cut it into two clause-range parts.
    fn wide_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 4,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(3)]),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    fn partitioned_specs(a: &CompiledAccelerator, k: usize, group: u32) -> Vec<ShardSpec> {
        use matador_sim::{CompileOptions, CompilePipeline};
        let plan = CompilePipeline::new(CompileOptions::default().with_partitions(k)).partition(a);
        ShardSpec::partitioned(plan, group)
    }

    #[test]
    fn partitioned_group_is_bit_identical_to_monolithic() {
        let a = wide_accel();
        let xs = inputs(9);
        let mono_specs = vec![ShardSpec::new(a.clone())];
        let mut options = ServeOptions::new(1);
        options.capture_class_sums = true;
        let mut mono = ShardPool::heterogeneous(&mono_specs, options).expect("valid");
        let expected = mono.serve(&xs).expect("drains");

        let specs = partitioned_specs(&a, 2, 0);
        assert_eq!(specs.len(), 2, "cpc 4 splits into two parts");
        let mut options = ServeOptions::new(2);
        options.capture_class_sums = true;
        let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
        assert_eq!(pool.units(), &[vec![0, 1]]);
        let preds = pool.serve(&xs).expect("drains");
        // Observation-for-observation identical: winners, merged class
        // sums, latency and completion stamps, and the lead member as
        // the shard attribution (the monolithic pool's only shard is 0,
        // which is also the group's lead).
        assert_eq!(preds, expected);
    }

    #[test]
    fn partition_group_coexists_with_standalone_shards() {
        let a = wide_accel();
        let six = six_feature_accel();
        let mut specs = partitioned_specs(&a, 2, 0);
        specs.push(ShardSpec::new(six.clone()));
        let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(3)).expect("valid");
        assert_eq!(pool.units(), &[vec![0, 1], vec![2]]);
        let wide = inputs(4);
        let narrow: Vec<BitVec> = (0..3)
            .map(|i| {
                if i % 2 == 0 {
                    BitVec::from_indices(6, &[0])
                } else {
                    BitVec::zeros(6)
                }
            })
            .collect();
        let batch: Vec<BitVec> = wide.iter().chain(&narrow).cloned().collect();
        let preds = pool.serve(&batch).expect("drains");
        assert_eq!(preds.len(), 7);
        // Width routes each request: 8-feature inputs to the group
        // (attributed to its lead), 6-feature inputs to the standalone
        // shard — winners matching each design's own reference.
        for (p, x) in preds[..4].iter().zip(&wide) {
            assert_eq!(p.shard, 0);
            assert_eq!(p.winner, tsetlin::tm::argmax(&a.reference_class_sums(x)));
        }
        for (p, x) in preds[4..].iter().zip(&narrow) {
            assert_eq!(p.shard, 2);
            assert_eq!(p.winner, tsetlin::tm::argmax(&six.reference_class_sums(x)));
        }
    }

    #[test]
    fn grouped_flush_spread_counts_units_not_shards() {
        let a = wide_accel();
        let mut specs = partitioned_specs(&a, 2, 0);
        specs.extend(partitioned_specs(&a, 2, 1));
        let pool = ShardPool::heterogeneous(&specs, ServeOptions::new(4)).expect("valid");
        assert_eq!(pool.shards(), 4);
        assert_eq!(pool.units().len(), 2);
        assert_eq!(pool.flush_spread(16), 2);
    }

    #[test]
    fn partitioned_member_panic_redirects_to_the_sibling_group() {
        with_quiet_panics(|| {
            let a = wide_accel();
            let xs = inputs(6);
            let expected: Vec<usize> = xs
                .iter()
                .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
                .collect();
            // Two replica groups of the same partitioned design; one
            // member of group 0 panics on its first slice.
            let mut specs = partitioned_specs(&a, 2, 0);
            specs.extend(partitioned_specs(&a, 2, 1));
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 1,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(4)).expect("valid");
            pool.install_fault_plan(plan);
            let preds = pool.serve(&xs).expect("a sibling unit absorbs the slice");
            // Zero drops, correct winners: the failed unit's whole slice
            // was discarded (a lone partial sum is meaningless) and
            // re-served by a full unit.
            assert_eq!(preds.len(), xs.len());
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected);
            assert!(!pool.health_log().is_empty(), "the panic was observed");
        });
    }

    #[test]
    fn partitioned_group_with_no_sibling_fails_typed_when_a_member_dies() {
        with_quiet_panics(|| {
            let a = wide_accel();
            let specs = partitioned_specs(&a, 2, 0);
            let plan = FaultPlan::kill_shard(1, 0);
            let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(2)).expect("valid");
            pool.install_fault_plan(plan);
            // The only unit serving width 8 has a permanently dead
            // member: the flush must fail typed, never spin.
            let err = pool.serve(&inputs(4)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::ShardQuarantined { shard: 1 }
                        | ServeError::NoHealthyShard { width: 8 }
                ),
                "got {err:?}"
            );
        });
    }

    #[test]
    fn partitioned_serving_is_thread_count_invariant() {
        let a = wide_accel();
        let xs = inputs(13);
        let run = |threads: usize| {
            let specs = partitioned_specs(&a, 2, 0);
            let mut options = ServeOptions::new(2);
            options.capture_class_sums = true;
            options.threads = Some(threads);
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            pool.serve(&xs).expect("drains")
        };
        assert_eq!(run(1), run(8));
    }
}
