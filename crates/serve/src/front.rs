//! Open-submission serving front-end: deadline-aware dynamic batching
//! over a [`ShardPool`].
//!
//! [`ShardPool`] is a batch engine: callers assemble a batch, flush it,
//! and read predictions back. A deployed service does not see batches —
//! it sees a stream of independent `submit(request, deadline, tenant)`
//! calls — so [`Front`] closes that gap with a coalescer that forms
//! batches *dynamically*, flushing when any of three triggers fires:
//!
//! - **Lane-block fill**: the pending set reaches one lane block
//!   (default [`matador_sim::LANES`] = 64 requests) — a full word of the
//!   bit-sliced datapath, the point of diminishing batching returns.
//! - **Deadline pressure**: the tightest pending deadline's slack falls
//!   below the pool's modeled drain time (derived from the engines'
//!   observed initiation intervals via [`ShardPool::modeled_ii_cycles`]),
//!   so waiting any longer would start missing SLOs.
//! - **Idle tick**: no new submission has arrived for a configurable
//!   quiet window, so there is nothing to gain by holding the batch open.
//!
//! Admission is multi-tenant: each tenant carries a token-bucket quota
//! (integer millitokens, so refill arithmetic is exact and replayable)
//! and rejected submissions fail with typed errors —
//! [`ServeError::QuotaExceeded`] names the tenant and a retry horizon,
//! [`ServeError::DeadlineUnmeetable`] rejects deadlines tighter than the
//! pool's latency floor at admission time instead of accepting a
//! guaranteed miss. A batch interleaves its tenants deficit-round-robin
//! style — each tenant's requests go out [`FrontOptions::drr_quantum`]
//! at a time, tenants in id order — so a bursty tenant cannot push a
//! quiet one's request to the back of the batch.
//!
//! Over a resilient pool (see the [`crate::fault`] and [`crate::health`]
//! modules) the front browns out instead of lying: admission rejects
//! widths with no healthy shard left
//! ([`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`]),
//! drain estimates recompute from surviving capacity (quarantined
//! shards drop out of [`ShardPool::flush_spread`] and the modeled II),
//! and — opt-in via [`FrontOptions::shed_on_brownout`] — a flush sheds
//! requests whose deadlines shrank out of reach rather than running
//! them into a guaranteed miss ([`ShedNotice`], [`Front::take_shed`]).
//! [`Front::drain`] is watchdogged: a flush that leaves requests
//! pending surfaces [`ServeError::Stalled`] instead of hanging.
//!
//! Shards complete out of submission order (a lightly loaded shard
//! finishes its slice first), so a reorder stage re-sequences
//! completions into **in-order per-tenant delivery**: replies for a
//! tenant are released strictly by submission sequence, each stamped
//! with the virtual cycle at which it could actually be handed back
//! (its own completion, or the completion of the earlier request that
//! was still holding it).
//!
//! ## Virtual time
//!
//! The front runs on a *virtual* cycle clock, not the wall clock: the
//! driver advances it explicitly ([`Front::advance_to`]) and every
//! trigger, quota refill and delivery stamp is a pure function of the
//! submitted trace. That keeps the workspace determinism contract
//! intact — the same seeded trace replays bit-identically at any
//! `MATADOR_THREADS` and shard count — while a real-time driver would
//! simply map wall-clock time onto the virtual clock.
//!
//! At most one lane block is ever pending: the admit that fills it
//! flushes, and every flush takes the whole pending set, so the front
//! holds one batch and carries nothing from one batch to the next.
//! Admission copies the input once, into a recycled buffer, and appends
//! the request under its round-robin key `(k / drr_quantum, tenant, k)`
//! (`k` counts the tenant's pending requests); a flush sorts by that key
//! and hands the batch to [`ShardPool::serve`] as one slice. Admission
//! is O(1): the tightest pending deadline is cached, and so are the
//! pool's latency floor and modeled II (refreshed after every pool
//! flush, the only place they change) and the *pressure tick*, the
//! tightest deadline minus the drain estimate of the pending set. A
//! pressure check compares the clock against that tick; debug builds
//! assert it agrees with a fresh estimate. Only the newest idle tick can
//! fire, so it is one slot. Deadline-pressure re-checks are bare ticks
//! in a min-heap, run after the idle check at a shared tick. They are
//! lazily cancelled: a stale one re-checks the current state, and the
//! tick at which such a re-check finds pressure is a batch boundary, so
//! every armed tick is kept. A completion that is its tenant's next
//! delivery goes straight out; only out-of-order ones wait in the
//! reorder ring.
//!
//! ## Observability
//!
//! Every front records into [`matador_obs::Registry::global`]:
//! admissions and rejections by outcome, the batch-trigger mix, batch
//! sizes, per-request slack at flush, delivery latency, deadline misses,
//! and per-tenant pending-request gauges (see the README metric table).
//! Slack and latency samples collect in front-local
//! [`matador_obs::HistogramBatch`]es; they, the admitted count and the
//! tenant gauges are published once per flush and when the front is
//! dropped, so at those points the shared series read what per-request
//! recording would have left. Each request also carries a
//! [`matador_obs::TraceId`] through submit → admit → batch → shard →
//! reorder → deliver into a bounded [`matador_obs::FlightRecorder`]
//! ([`Front::flight_recorder`]), dumped to stderr when a flush fails
//! with a typed engine error. Metrics are pure sinks — nothing here
//! reads them back — so instrumentation cannot perturb the replay
//! contract.
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_serve::{Front, FrontOptions, ServeOptions, ShardPool};
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
//! let pool = ShardPool::with_options(&accel, ServeOptions::turbo(2)).expect("valid options");
//!
//! let mut front = Front::new(pool, FrontOptions::new()).expect("valid options");
//! let input = BitVec::from_indices(4, &[0]);
//! for _ in 0..3 {
//!     front.submit(&input, 10_000, 0).expect("admitted");
//! }
//! front.drain().expect("engines drain");
//! let replies = front.take_replies();
//! assert_eq!(replies.len(), 3);
//! assert!(replies.iter().all(|r| r.winner == 0 && r.met_deadline()));
//! ```

use crate::error::ServeError;
use crate::pool::{Prediction, ShardPool, FLUSH_WINDOW};
use crate::report::ThroughputReport;
use matador_obs::{Counter, FlightRecorder, Gauge, Histogram, HistogramBatch, Registry, TraceId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;
use tsetlin::bits::BitVec;

/// Millitokens one request costs against a tenant's bucket. Quotas are
/// kept in integer millitokens so sub-request-per-cycle refill rates
/// stay exact — no floating point in the admission path.
pub const MILLITOKENS_PER_REQUEST: u64 = 1_000;

/// Per-tenant rate limit: a token bucket in requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Bucket capacity in requests: the burst a tenant may submit
    /// back-to-back. Zero admits nothing.
    pub burst_requests: u64,
    /// Refill rate in millitokens per virtual cycle
    /// ([`MILLITOKENS_PER_REQUEST`] = one request). Zero means the
    /// burst is all the tenant ever gets.
    pub millitokens_per_cycle: u64,
}

/// Token bucket in integer millitokens; refill is exact and replayable.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: u64,
    level: u64,
    rate: u64,
    last_refill: u64,
}

impl TokenBucket {
    fn new(quota: TenantQuota, now: u64) -> Self {
        let capacity = quota.burst_requests.saturating_mul(MILLITOKENS_PER_REQUEST);
        TokenBucket {
            capacity,
            level: capacity,
            rate: quota.millitokens_per_cycle,
            last_refill: now,
        }
    }

    /// Takes one request's worth of tokens, or reports how many cycles
    /// until the bucket will have refilled enough (`u64::MAX` when it
    /// never will: a zero rate, or a capacity below one request).
    fn try_take(&mut self, now: u64) -> Result<(), u64> {
        let elapsed = now.saturating_sub(self.last_refill);
        self.level = self
            .level
            .saturating_add(elapsed.saturating_mul(self.rate))
            .min(self.capacity);
        self.last_refill = now;
        if self.level >= MILLITOKENS_PER_REQUEST {
            self.level -= MILLITOKENS_PER_REQUEST;
            Ok(())
        } else if self.rate == 0 || self.capacity < MILLITOKENS_PER_REQUEST {
            Err(u64::MAX)
        } else {
            Err((MILLITOKENS_PER_REQUEST - self.level).div_ceil(self.rate))
        }
    }
}

/// What fired a flush — recorded per batch so a replayed trace can
/// assert batch boundaries, not just final predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The pending set reached one lane block.
    LaneBlockFull,
    /// The tightest pending deadline's slack fell below the modeled
    /// drain time.
    DeadlinePressure,
    /// No submission arrived for the idle window.
    IdleTick,
    /// An explicit [`Front::drain`] at shutdown.
    Drain,
}

impl FlushTrigger {
    /// Stable label for metrics and flight-recorder lines.
    pub fn as_label(&self) -> &'static str {
        match self {
            FlushTrigger::LaneBlockFull => "lane_block_full",
            FlushTrigger::DeadlinePressure => "deadline_pressure",
            FlushTrigger::IdleTick => "idle_tick",
            FlushTrigger::Drain => "drain",
        }
    }
}

/// Stable `reason` labels for admission rejections.
const REJECTION_REASONS: [&str; 5] = [
    "quota_exceeded",
    "deadline_unmeetable",
    "width_mismatch",
    "no_healthy_shard",
    "other",
];

/// The [`REJECTION_REASONS`] index of an admission rejection.
fn rejection_reason(error: &ServeError) -> usize {
    match error {
        ServeError::QuotaExceeded { .. } => 0,
        ServeError::DeadlineUnmeetable { .. } => 1,
        ServeError::WidthMismatch { .. } | ServeError::NoCompatibleShard { .. } => 2,
        ServeError::ShardQuarantined { .. } | ServeError::NoHealthyShard { .. } => 3,
        _ => 4,
    }
}

/// Registry handles the front records through, resolved once at
/// construction so the submit/flush paths never touch the registry
/// lock. Counters/histograms are process-wide series shared by every
/// front in the process (they accumulate, Prometheus-style). The
/// batches and the admitted delta are published by
/// `Front::publish_metrics`.
#[derive(Debug, Clone)]
struct FrontMetrics {
    admitted: Arc<Counter>,
    /// `Front::accepted` as of the last publish.
    admitted_published: u64,
    /// Indexed by [`rejection_reason`].
    rejected: [Arc<Counter>; 5],
    /// Indexed by `FlushTrigger as usize`.
    batches: [Arc<Counter>; 4],
    batch_size: Arc<Histogram>,
    slack_at_flush: Arc<Histogram>,
    slack_batch: HistogramBatch,
    delivery_latency: Arc<Histogram>,
    latency_batch: HistogramBatch,
    deadline_misses: Arc<Counter>,
    shed: Arc<Counter>,
    pending: Arc<Gauge>,
}

impl FrontMetrics {
    fn resolve() -> Self {
        let r = Registry::global();
        let triggers = [
            FlushTrigger::LaneBlockFull,
            FlushTrigger::DeadlinePressure,
            FlushTrigger::IdleTick,
            FlushTrigger::Drain,
        ];
        FrontMetrics {
            admitted: r.counter(
                "matador_front_admitted_total",
                "",
                "Submissions admitted into the pending batch.",
            ),
            admitted_published: 0,
            rejected: REJECTION_REASONS.map(|reason| {
                r.counter(
                    "matador_front_rejected_total",
                    &format!("reason=\"{reason}\""),
                    "Submissions rejected at admission, by outcome.",
                )
            }),
            batches: triggers.map(|trigger| {
                r.counter(
                    "matador_front_batches_total",
                    &format!("trigger=\"{}\"", trigger.as_label()),
                    "Batches flushed, by trigger.",
                )
            }),
            batch_size: r.histogram(
                "matador_front_batch_size",
                "",
                "Requests per flushed batch.",
            ),
            slack_at_flush: r.histogram(
                "matador_front_slack_at_flush_cycles",
                "",
                "Deadline slack remaining when a request was flushed.",
            ),
            slack_batch: HistogramBatch::new(),
            delivery_latency: r.histogram(
                "matador_front_delivery_latency_cycles",
                "",
                "Admission-to-delivery latency per reply.",
            ),
            latency_batch: HistogramBatch::new(),
            deadline_misses: r.counter(
                "matador_front_deadline_misses_total",
                "",
                "Replies delivered after their deadline.",
            ),
            shed: r.counter(
                "matador_front_shed_total",
                "",
                "Admitted requests shed by brownout load shedding.",
            ),
            pending: r.gauge(
                "matador_front_pending_requests",
                "",
                "Requests admitted but not yet flushed.",
            ),
        }
    }
}

/// One dynamically formed batch: when it flushed, why, and how big it
/// was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Virtual cycle at which the batch flushed.
    pub at: u64,
    /// Which trigger fired.
    pub trigger: FlushTrigger,
    /// Requests in the batch (≤ the lane block).
    pub size: usize,
}

/// A delivered reply: the prediction plus the serving timeline the
/// front-end observed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The submitting tenant.
    pub tenant: u32,
    /// Per-tenant submission sequence number (delivery is strictly
    /// in-order per tenant).
    pub seq: u64,
    /// Pool-level request id, for cross-referencing pool diagnostics.
    pub request: u64,
    /// Predicted class index.
    pub winner: usize,
    /// Per-class sums, when the pool captures them.
    pub class_sums: Option<Vec<i32>>,
    /// Shard that executed the request.
    pub shard: usize,
    /// Virtual cycle the request was admitted.
    pub submitted_at: u64,
    /// The absolute deadline the caller asked for.
    pub deadline: u64,
    /// Virtual cycle the reply was released to the caller: its own
    /// completion, or the completion of the earlier same-tenant request
    /// that was still holding it in the reorder stage.
    pub delivered_at: u64,
}

impl Reply {
    /// End-to-end latency as the caller saw it: admission → delivery,
    /// including queueing, batching and reorder wait. A duration on the
    /// same clock as the pool's service-only latency samples (see the
    /// time-base notes on [`crate::report`]).
    pub fn latency_cycles(&self) -> u64 {
        self.delivered_at - self.submitted_at
    }

    /// Whether delivery beat the deadline.
    pub fn met_deadline(&self) -> bool {
        self.delivered_at <= self.deadline
    }
}

/// One request dropped by brownout load shedding
/// ([`FrontOptions::shed_on_brownout`]): at flush time its deadline was
/// already inside the pool's healthy-capacity latency floor, so holding
/// it could only produce a guaranteed deadline miss. Collected via
/// [`Front::take_shed`] — a shed is an explicit, typed outcome the
/// driver reports back to the caller, never a silent timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedNotice {
    /// The submitting tenant.
    pub tenant: u32,
    /// Per-tenant submission sequence number (the reorder stage skips
    /// it, so later replies for the tenant still deliver in order).
    pub seq: u64,
    /// The absolute deadline that became unmeetable.
    pub deadline: u64,
    /// Virtual cycle the request was shed.
    pub shed_at: u64,
}

impl ShedNotice {
    /// The typed error a driver relays to the shed request's caller.
    pub fn as_error(&self) -> ServeError {
        ServeError::Shed {
            tenant: self.tenant,
            seq: self.seq,
        }
    }
}

/// Tuning knobs for the front-end coalescer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontOptions {
    /// Batch-fill flush threshold in requests, and so the bound on
    /// requests pending across all tenants. Defaults to
    /// [`matador_sim::LANES`]: one word of the bit-sliced datapath.
    /// Must be positive and no larger than [`FLUSH_WINDOW`], so a full
    /// lane block runs as one pool flush.
    pub lane_block: usize,
    /// Quiet window after the last submission before an idle flush, in
    /// virtual cycles. Zero disables the idle trigger.
    pub idle_cycles: u64,
    /// Round-robin quantum: a batch takes this many requests per tenant
    /// per round, tenants in id order.
    pub drr_quantum: u64,
    /// Per-tenant rate limit applied to every tenant; `None` admits
    /// without quota.
    pub quota: Option<TenantQuota>,
    /// Request lifecycles retained by the flight recorder
    /// ([`Front::flight_recorder`]); zero rounds up to one.
    pub flight_capacity: usize,
    /// Brownout load shedding: when `true`, a flush sheds queued
    /// requests whose deadlines are already inside the pool's (health-
    /// aware) latency floor instead of running them into a guaranteed
    /// miss. Sheds surface as [`ShedNotice`]s via [`Front::take_shed`].
    /// Default `false`: browned-out pools run everything and report
    /// misses honestly.
    pub shed_on_brownout: bool,
}

impl FrontOptions {
    /// Defaults: lane-block 64, idle window 4096 cycles, quantum 1, no
    /// quota, 256 flight-recorder slots.
    pub fn new() -> Self {
        FrontOptions {
            lane_block: matador_sim::LANES,
            idle_cycles: 4_096,
            drr_quantum: 1,
            quota: None,
            flight_capacity: matador_obs::DEFAULT_FLIGHT_CAPACITY,
            shed_on_brownout: false,
        }
    }
}

impl Default for FrontOptions {
    fn default() -> Self {
        FrontOptions::new()
    }
}

/// An admitted request waiting in the batch.
#[derive(Debug, Clone)]
struct Pending {
    /// Batch position key: `(k / drr_quantum, tenant, k)` for the
    /// tenant's `k`-th pending request. Unique within a batch.
    order: (u64, u32, u64),
    tenant: u32,
    ticket: Ticket,
    input: BitVec,
}

/// What the front keeps about an admitted request besides its input.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    seq: u64,
    deadline: u64,
    submitted_at: u64,
    /// Flight-recorder span carried through batch → shard → delivery.
    trace: TraceId,
}

/// A reorder-ring slot: one per admitted sequence number that the
/// delivery cursor has not passed yet.
#[derive(Debug, Clone)]
enum Slot {
    /// Queued or in flight.
    Waiting,
    /// Dropped by brownout shedding: it will never complete, so the
    /// cursor hops it and later replies are not held hostage.
    Shed,
    /// Completed and parked until every earlier sequence number has
    /// been delivered; `delivered_at` holds the completion time.
    Done(Reply, TraceId),
}

/// Per-tenant serving state: pending count, quota bucket, and the
/// reorder ring.
#[derive(Debug, Clone)]
struct Tenant {
    /// The tenant's requests in the pending batch.
    pending: u64,
    bucket: Option<TokenBucket>,
    next_seq: u64,
    next_deliver_seq: u64,
    /// Slot of sequence number `next_deliver_seq + i` at index `i`.
    ring: VecDeque<Slot>,
    /// Published `pending`, labelled by tenant id.
    depth_gauge: Arc<Gauge>,
}

impl Tenant {
    fn new(id: u32, quota: Option<TenantQuota>, now: u64) -> Self {
        Tenant {
            pending: 0,
            bucket: quota.map(|q| TokenBucket::new(q, now)),
            next_seq: 0,
            next_deliver_seq: 0,
            ring: VecDeque::new(),
            depth_gauge: Registry::global().gauge(
                "matador_front_tenant_queue_depth",
                &format!("tenant=\"{id}\""),
                "Admitted-but-unflushed requests per tenant.",
            ),
        }
    }

    /// The reorder-ring slot of sequence number `seq`.
    fn slot(&mut self, seq: u64) -> &mut Slot {
        &mut self.ring[(seq - self.next_deliver_seq) as usize]
    }
}

/// The open-submission front-end: owns a [`ShardPool`] and turns a
/// stream of per-request submissions into deadline-aware dynamic
/// batches. See the module docs for the full model.
#[derive(Debug)]
pub struct Front<'a> {
    pool: ShardPool<'a>,
    options: FrontOptions,
    /// The virtual clock. Monotonic; advanced by the driver.
    now: u64,
    /// Per-shard virtual cycle at which the shard's previously assigned
    /// work completes. `max(now, busy_until)` is when a new flush's
    /// slice starts executing on that shard.
    busy_until: Vec<u64>,
    tenants: BTreeMap<u32, Tenant>,
    /// Requests admitted and not yet flushed: `batch.len()`, unless a
    /// test has corrupted it.
    pending_total: usize,
    /// The tightest deadline among pending requests.
    tightest: Option<u64>,
    /// The first tick at which the pending set is under deadline
    /// pressure: `tightest` minus the drain estimate of `pending_total`.
    /// Set at admit and cleared by a flush, the only places its inputs
    /// change.
    pressure_at: Option<u64>,
    /// The pool's latency floor and modeled II, refreshed after each
    /// pool flush (the only place health and engine history change).
    floor: u64,
    ii: u64,
    /// Deadline-pressure re-check ticks, earliest first. Stale ones stay
    /// and re-check current state when they fire.
    timers: BinaryHeap<Reverse<u64>>,
    /// The one idle tick that can fire: last admit + `idle_cycles`.
    idle_at: Option<u64>,
    /// The pending requests in admission order; a flush sorts them by
    /// [`Pending::order`] and takes them all (reused across flushes).
    batch: Vec<Pending>,
    /// The flushed batch's inputs, in batch order.
    inputs: Vec<BitVec>,
    /// Flushed input buffers, recycled by admission (≤ `lane_block`).
    spare: Vec<BitVec>,
    /// The flushed batch's predictions, and each shard's cycle counter
    /// before and after the pool ran it (reused across flushes).
    predictions: Vec<Prediction>,
    cycles_before: Vec<u64>,
    cycles_after: Vec<u64>,
    delivered: Vec<Reply>,
    shed: Vec<ShedNotice>,
    batches: Vec<BatchRecord>,
    /// Admission → delivery durations, one per delivered reply.
    latencies: Vec<u64>,
    accepted: u64,
    rejected: u64,
    metrics: FrontMetrics,
    flight: FlightRecorder,
}

impl<'a> Front<'a> {
    /// Wraps `pool` behind the coalescer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroQueueDepth`] when `lane_block` or
    /// `drr_quantum` is zero, and [`ServeError::QueueFull`] (naming
    /// [`FLUSH_WINDOW`]) when `lane_block` is larger than
    /// [`FLUSH_WINDOW`] — a full lane block must run as one pool flush.
    pub fn new(pool: ShardPool<'a>, options: FrontOptions) -> Result<Self, ServeError> {
        if options.lane_block == 0 || options.drr_quantum == 0 {
            return Err(ServeError::ZeroQueueDepth);
        }
        if options.lane_block > FLUSH_WINDOW {
            return Err(ServeError::QueueFull {
                capacity: FLUSH_WINDOW,
            });
        }
        Ok(Front {
            busy_until: vec![0; pool.shards()],
            floor: pool.latency_floor_cycles(),
            ii: pool.modeled_ii_cycles(),
            pool,
            options,
            now: 0,
            tenants: BTreeMap::new(),
            pending_total: 0,
            tightest: None,
            pressure_at: None,
            timers: BinaryHeap::new(),
            idle_at: None,
            batch: Vec::new(),
            inputs: Vec::new(),
            spare: Vec::new(),
            predictions: Vec::new(),
            cycles_before: Vec::new(),
            cycles_after: Vec::new(),
            delivered: Vec::new(),
            shed: Vec::new(),
            batches: Vec::new(),
            latencies: Vec::new(),
            accepted: 0,
            rejected: 0,
            metrics: FrontMetrics::resolve(),
            flight: FlightRecorder::new(options.flight_capacity),
        })
    }

    /// The virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests admitted but not yet flushed, across all tenants.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Submissions admitted over the front's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Submissions rejected (quota, deadline, width, health).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Every batch flushed so far: boundary, trigger and size.
    pub fn batches(&self) -> &[BatchRecord] {
        &self.batches
    }

    /// The wrapped pool (read-only: diagnostics and drain modeling).
    pub fn pool(&self) -> &ShardPool<'a> {
        &self.pool
    }

    /// The flight recorder: the last `flight_capacity` request
    /// lifecycles (including rejections) with virtual-clock stamps.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Modeled cycles to drain `pending` requests: the pool's
    /// per-request initiation interval over the parallel width a flush
    /// of that size would actually use ([`ShardPool::flush_spread`] — a
    /// consolidated flush runs on one shard), plus the latency floor
    /// for the last request to emerge. II and floor are as of the last
    /// pool flush (neither changes in between).
    pub fn drain_estimate_cycles(&self, pending: usize) -> u64 {
        (pending as u64)
            .div_ceil(self.pool.flush_spread(pending) as u64)
            .saturating_mul(self.ii)
            .saturating_add(self.floor)
    }

    /// Submits one request for `tenant` with an absolute virtual-cycle
    /// `deadline`, returning the tenant's submission sequence number.
    /// May flush (and therefore execute) synchronously when the
    /// submission fills a lane block or puts the tightest deadline
    /// under pressure.
    ///
    /// # Errors
    ///
    /// - [`ServeError::WidthMismatch`] / [`ServeError::NoCompatibleShard`]:
    ///   the input's width fits no shard (checked first; never counts
    ///   against quota).
    /// - [`ServeError::DeadlineUnmeetable`]: `deadline` is tighter than
    ///   the pool's latency floor from `now`; rejecting at admission
    ///   beats accepting a guaranteed miss (and does not charge quota).
    /// - [`ServeError::QuotaExceeded`]: the tenant's bucket is empty.
    ///   Tokens are only ever consumed by submissions that are actually
    ///   admitted.
    /// - [`ServeError::Shard`]: a synchronous flush's engine failed.
    pub fn submit(
        &mut self,
        input: &BitVec,
        deadline: u64,
        tenant: u32,
    ) -> Result<u64, ServeError> {
        match self.admit(input, deadline, tenant) {
            Ok(seq) => Ok(seq),
            Err(e) => {
                self.rejected += 1;
                let reason = rejection_reason(&e);
                self.metrics.rejected[reason].inc();
                // Rejections are traced too: the seq the request would
                // have received, with the rejection reason as outcome.
                let seq = self.tenants.get(&tenant).map_or(0, |t| t.next_seq);
                let trace = self.flight.begin(tenant, seq, self.now, deadline);
                self.flight
                    .update(trace, |l| l.rejected = Some(REJECTION_REASONS[reason]));
                Err(e)
            }
        }
    }

    fn admit(&mut self, input: &BitVec, deadline: u64, tenant: u32) -> Result<u64, ServeError> {
        self.pool.check_width(input.len())?;
        // Brownout admission: a resilient pool with every compatible
        // shard quarantined rejects typed up front instead of accepting
        // work it cannot currently run. Free for fault-free pools.
        self.pool.check_healthy(input.len())?;
        let now = self.now;
        let earliest = now.saturating_add(self.floor);
        if deadline < earliest {
            return Err(ServeError::DeadlineUnmeetable { deadline, earliest });
        }
        let quota = self.options.quota;
        let entry = self
            .tenants
            .entry(tenant)
            .or_insert_with(|| Tenant::new(tenant, quota, now));
        if let Some(bucket) = entry.bucket.as_mut() {
            if let Err(retry_cycles) = bucket.try_take(now) {
                return Err(ServeError::QuotaExceeded {
                    tenant,
                    retry_cycles,
                });
            }
        }
        let seq = entry.next_seq;
        entry.next_seq += 1;
        let k = entry.pending;
        entry.pending += 1;
        entry.ring.push_back(Slot::Waiting);
        let input = match self.spare.pop() {
            Some(mut buffer) if buffer.len() == input.len() => {
                buffer.copy_from(input);
                buffer
            }
            _ => input.clone(),
        };
        self.batch.push(Pending {
            order: (k / self.options.drr_quantum, tenant, k),
            tenant,
            ticket: Ticket {
                seq,
                deadline,
                submitted_at: now,
                trace: self.flight.begin(tenant, seq, now, deadline),
            },
            input,
        });
        self.pending_total += 1;
        let tightest = self.tightest.map_or(deadline, |t| t.min(deadline));
        self.tightest = Some(tightest);
        self.accepted += 1;
        self.metrics.pending.set(self.pending_total as i64);
        if self.options.idle_cycles > 0 {
            self.idle_at = Some(now.saturating_add(self.options.idle_cycles));
        }
        if self.pending_total >= self.options.lane_block {
            self.flush_batch(FlushTrigger::LaneBlockFull)?;
            return Ok(seq);
        }
        let guard = self.drain_estimate_cycles(self.pending_total);
        self.pressure_at = Some(tightest.saturating_sub(guard));
        if self.pressured() {
            self.flush_batch(FlushTrigger::DeadlinePressure)?;
        } else {
            // Arm a pressure check for the point at which draining the
            // *current* pending set would start eating this deadline's
            // slack. Lazily cancelled: if the set has grown by then, a
            // fill or an earlier pressure flush already handled it.
            self.timers
                .push(Reverse(deadline.saturating_sub(guard).max(now)));
        }
        Ok(seq)
    }

    /// Advances the virtual clock to `cycle`, firing any timer-driven
    /// flushes (idle ticks, deadline pressure) that fall in between, in
    /// tick order — at a shared tick the idle check runs first.
    /// Monotonic: a `cycle` in the past only processes timers already
    /// due.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] if a timer-driven flush's engine
    /// fails to drain.
    pub fn advance_to(&mut self, cycle: u64) -> Result<(), ServeError> {
        loop {
            let timer = self.timers.peek().map(|&Reverse(tick)| tick);
            let next = self.idle_at.into_iter().chain(timer);
            let Some(tick) = next.min().filter(|&tick| tick <= cycle) else {
                break;
            };
            self.now = self.now.max(tick);
            // Every check due at this tick is consumed. Every admit leaves
            // fewer than `lane_block` requests pending, so one flush empties
            // the set and makes the other checks stale.
            let idle = self.idle_at.take_if(|&mut at| at == tick).is_some();
            let mut recheck = false;
            while self.timers.peek().is_some_and(|&Reverse(at)| at <= tick) {
                self.timers.pop();
                recheck = true;
            }
            if self.pending_total == 0 {
                continue;
            } else if idle {
                self.flush_batch(FlushTrigger::IdleTick)?;
            } else if recheck && self.pressured() {
                self.flush_batch(FlushTrigger::DeadlinePressure)?;
            }
        }
        self.now = self.now.max(cycle);
        Ok(())
    }

    /// Flushes whatever is pending (trigger [`FlushTrigger::Drain`]):
    /// the shutdown path, and the way a closed-loop driver forces
    /// completion.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] if the flush's engine fails,
    /// [`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`]
    /// when a resilient pool has no surviving capacity for the pending
    /// work, and [`ServeError::Stalled`] if requests are still pending
    /// after the flush — the watchdog that turns lost accounting into a
    /// typed error.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        if self.pending_total == 0 {
            return Ok(());
        }
        self.flush_batch(FlushTrigger::Drain)?;
        if self.pending_total > 0 {
            return Err(ServeError::Stalled {
                pending: self.pending_total,
                virtual_clock: self.now,
            });
        }
        Ok(())
    }

    /// Takes every reply delivered since the last call, in delivery
    /// order (per-tenant in-order; across tenants by virtual completion
    /// time, ties broken by shard then request id).
    pub fn take_replies(&mut self) -> Vec<Reply> {
        std::mem::take(&mut self.delivered)
    }

    /// Takes every [`ShedNotice`] recorded since the last call, in shed
    /// order. Empty unless [`FrontOptions::shed_on_brownout`] is set.
    pub fn take_shed(&mut self) -> Vec<ShedNotice> {
        std::mem::take(&mut self.shed)
    }

    /// Corrupts the pending-request accounting, simulating the
    /// lost-request bug class the drain watchdog exists to catch.
    #[cfg(test)]
    fn inject_phantom_pending(&mut self, phantoms: usize) {
        self.pending_total += phantoms;
    }

    /// Front-end throughput report: the pool's per-shard stream
    /// statistics merged with the front's **admission → delivery**
    /// latency samples (queueing and batching included), rather than
    /// the pool's service-only samples.
    pub fn report(&self) -> ThroughputReport {
        ThroughputReport::merge(self.pool.report().shards, &self.latencies)
    }

    /// Whether the tightest pending deadline's slack is at or below the
    /// modeled time to drain the pending set, read from the cached
    /// pressure tick: slack `d − now ≤ g` exactly when
    /// `d.saturating_sub(g) ≤ now`.
    fn pressured(&self) -> bool {
        let pressured = self.pressure_at.is_some_and(|at| at <= self.now);
        debug_assert_eq!(
            pressured,
            self.tightest.is_some_and(|deadline| {
                deadline.saturating_sub(self.now) <= self.drain_estimate_cycles(self.pending_total)
            }),
            "the cached pressure tick is stale"
        );
        pressured
    }

    /// Publishes what the front batches locally: the admitted delta,
    /// the slack and latency samples, and every tenant's pending gauge.
    /// Runs after each flush and on drop, so the shared series then read
    /// what per-request recording would have left.
    fn publish_metrics(&mut self) {
        let m = &mut self.metrics;
        m.admitted.add(self.accepted - m.admitted_published);
        m.admitted_published = self.accepted;
        m.slack_at_flush.absorb(&mut m.slack_batch);
        m.delivery_latency.absorb(&mut m.latency_batch);
        for tenant in self.tenants.values() {
            tenant.depth_gauge.set(tenant.pending as i64);
        }
    }

    /// Takes the whole pending set as one batch, executes it on the
    /// pool, virtualizes the completion times onto the front's clock,
    /// and runs the reorder stage to deliver replies in per-tenant
    /// submission order.
    ///
    /// On a typed engine failure the flight recorder is dumped to
    /// stderr before the error propagates — the black-box read-out.
    fn flush_batch(&mut self, trigger: FlushTrigger) -> Result<(), ServeError> {
        let result = self.flush_batch_inner(trigger);
        self.batch.clear();
        self.publish_metrics();
        if result.is_err() && self.flight.traced() > 0 {
            eprintln!("{}", self.flight.render());
        }
        result
    }

    /// Brownout load shedding: drops every request in the formed batch
    /// whose deadline already sits inside the pool's health-aware
    /// latency floor — running it could only produce a guaranteed miss
    /// on browned-out capacity. Slack decides, so the requests with the
    /// least hope go first; survivors flush normally. Each shed is
    /// recorded as a [`ShedNotice`], counted, traced, and skipped by
    /// the tenant's delivery cursor.
    fn shed_hopeless(&mut self) {
        let now = self.now;
        let earliest = now.saturating_add(self.floor);
        self.batch.retain(|&Pending { tenant, ticket, .. }| {
            if ticket.deadline >= earliest {
                return true;
            }
            self.metrics.shed.inc();
            self.flight
                .update(ticket.trace, |l| l.rejected = Some("shed"));
            let entry = self
                .tenants
                .get_mut(&tenant)
                .expect("admitted requests always have a tenant entry");
            *entry.slot(ticket.seq) = Slot::Shed;
            self.shed.push(ShedNotice {
                tenant,
                seq: ticket.seq,
                deadline: ticket.deadline,
                shed_at: now,
            });
            false
        });
    }

    fn flush_batch_inner(&mut self, trigger: FlushTrigger) -> Result<(), ServeError> {
        // The flush takes every pending request, so nothing pending is
        // left to bound a deadline or count towards a tenant.
        self.pending_total -= self.batch.len();
        self.tightest = None;
        self.pressure_at = None;
        for tenant in self.tenants.values_mut() {
            tenant.pending = 0;
        }
        self.batch.sort_unstable_by_key(|p| p.order);
        if self.options.shed_on_brownout {
            self.shed_hopeless();
        }
        if self.batch.is_empty() {
            return Ok(());
        }
        self.metrics.batches[trigger as usize].inc();
        self.metrics.batch_size.record(self.batch.len() as u64);
        self.metrics.pending.set(self.pending_total as i64);
        let now = self.now;
        for Pending { ticket, .. } in &self.batch {
            self.metrics
                .slack_batch
                .record(ticket.deadline.saturating_sub(now));
            self.flight.update(ticket.trace, |l| {
                l.batched_at = Some(now);
                l.trigger = Some(trigger.as_label());
            });
        }
        // One slice in batch order; `lane_block` ≤ `FLUSH_WINDOW`, so
        // this is one pool flush.
        let inputs = self.batch.iter_mut();
        self.inputs
            .extend(inputs.map(|p| std::mem::replace(&mut p.input, BitVec::zeros(0))));
        self.pool.shard_cycles_into(&mut self.cycles_before);
        let served = self.pool.serve_into(&self.inputs, &mut self.predictions);
        self.floor = self.pool.latency_floor_cycles();
        self.ii = self.pool.modeled_ii_cycles();
        let room = self.options.lane_block.saturating_sub(self.spare.len());
        self.spare.extend(self.inputs.drain(..).take(room));
        served?;
        self.pool.shard_cycles_into(&mut self.cycles_after);
        let (before, after) = (&self.cycles_before, &self.cycles_after);
        let mut predictions = std::mem::take(&mut self.predictions);

        // Virtualize: each shard's slice starts when the shard is next
        // free on the front's clock, and a request completes its
        // shard-local stamp's worth of cycles after that start.
        let first_id = predictions.iter().map(|p| p.request).min().unwrap_or(0);
        for p in &mut predictions {
            let start = self.busy_until[p.shard].max(now);
            p.completed_at_cycle = start.saturating_add(p.completed_at_cycle - before[p.shard]);
        }
        for (shard, (&b, &a)) in before.iter().zip(after).enumerate() {
            if a > b {
                self.busy_until[shard] = self.busy_until[shard].max(now).saturating_add(a - b);
            }
        }
        predictions.sort_unstable_by_key(|p| (p.completed_at_cycle, p.shard, p.request));

        // Reorder stage: a completion that is its tenant's next delivery
        // goes straight out; any other parks in the tenant's ring. Then
        // every parked reply whose predecessors have all completed (or
        // been shed) is released. A reply released by a *later*
        // completion is stamped with that completion's time — it could
        // not have been handed back any earlier.
        for p in predictions.drain(..) {
            let completed_at = p.completed_at_cycle;
            let Pending {
                tenant: tenant_id,
                ticket,
                ..
            } = self.batch[(p.request - first_id) as usize];
            self.flight.update(ticket.trace, |l| {
                l.shard = Some(p.shard);
                l.completed_at = Some(completed_at);
            });
            let tenant = self
                .tenants
                .get_mut(&tenant_id)
                .expect("admitted requests always have a tenant entry");
            let reply = Reply {
                tenant: tenant_id,
                seq: ticket.seq,
                request: p.request,
                winner: p.winner,
                class_sums: p.class_sums,
                shard: p.shard,
                submitted_at: ticket.submitted_at,
                deadline: ticket.deadline,
                delivered_at: completed_at, // raised at release below
            };
            let mut release = |mut reply: Reply, trace: TraceId| {
                reply.delivered_at = reply.delivered_at.max(completed_at);
                let latency = reply.latency_cycles();
                self.latencies.push(latency);
                self.metrics.latency_batch.record(latency);
                if !reply.met_deadline() {
                    self.metrics.deadline_misses.inc();
                }
                self.flight
                    .update(trace, |l| l.delivered_at = Some(reply.delivered_at));
                self.delivered.push(reply);
            };
            if ticket.seq == tenant.next_deliver_seq {
                tenant.ring.pop_front();
                tenant.next_deliver_seq += 1;
                release(reply, ticket.trace);
            } else {
                *tenant.slot(ticket.seq) = Slot::Done(reply, ticket.trace);
            }
            while !matches!(tenant.ring.front(), None | Some(Slot::Waiting)) {
                tenant.next_deliver_seq += 1;
                // A shed sequence number is hopped.
                if let Some(Slot::Done(reply, trace)) = tenant.ring.pop_front() {
                    release(reply, trace);
                }
            }
        }
        self.predictions = predictions;
        self.batches.push(BatchRecord {
            at: self.now,
            trigger,
            size: self.batch.len(),
        });
        Ok(())
    }
}

impl Drop for Front<'_> {
    /// Publishes what the last flush left unpublished: admissions since
    /// then and the tenant gauges they moved.
    fn drop(&mut self) {
        self.publish_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServeOptions;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use matador_sim::{AccelShape, CompiledAccelerator};

    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 4,
            classes: 2,
            clauses_per_class: 2,
        };
        let cubes = vec![vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
        ]];
        CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled)
    }

    fn front<'a>(accel: &'a CompiledAccelerator, options: FrontOptions) -> Front<'a> {
        let pool = ShardPool::with_options(accel, ServeOptions::turbo(2)).expect("valid options");
        Front::new(pool, options).expect("valid options")
    }

    fn class0(width: usize) -> BitVec {
        BitVec::from_indices(width, &[0])
    }

    fn class1(width: usize) -> BitVec {
        BitVec::from_indices(width, &[1])
    }

    #[test]
    fn lane_block_fill_flushes_synchronously() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 4,
                ..FrontOptions::new()
            },
        );
        for i in 0..3 {
            assert_eq!(f.submit(&class0(4), 1_000_000, 0).expect("admitted"), i);
            assert!(f.batches().is_empty());
        }
        f.submit(&class1(4), 1_000_000, 0).expect("admitted");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::LaneBlockFull);
        assert_eq!(f.batches()[0].size, 4);
        assert_eq!(f.pending(), 0);
        let replies = f.take_replies();
        assert_eq!(replies.len(), 4);
        // Per-tenant delivery is strictly in submission order, stamped
        // with non-decreasing delivery times, and classified correctly.
        let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(replies
            .windows(2)
            .all(|w| w[0].delivered_at <= w[1].delivered_at));
        assert_eq!(replies[3].winner, 1);
        assert!(replies.iter().all(|r| r.met_deadline()));
    }

    #[test]
    fn idle_tick_flushes_a_partial_batch() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 100,
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 7).expect("admitted");
        f.advance_to(99).expect("no flush yet");
        assert_eq!(f.pending(), 1);
        f.advance_to(100).expect("idle flush");
        assert_eq!(f.pending(), 0);
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::IdleTick);
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].tenant, 7);
        // The flush happened at the idle tick, so service starts there.
        assert!(replies[0].delivered_at >= 100);
    }

    #[test]
    fn deadline_pressure_flushes_before_slack_runs_out() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        // Loose deadline: parks in the queue.
        f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        assert!(f.batches().is_empty());
        // A deadline just past the unmeetable floor lands inside the
        // drain estimate → immediate pressure flush.
        let tight = f.now() + f.pool().latency_floor_cycles();
        f.submit(&class1(4), tight, 0).expect("admitted");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::DeadlinePressure);
        assert_eq!(f.batches()[0].size, 2);
    }

    #[test]
    fn armed_deadline_timer_fires_under_pressure() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 0, // isolate the deadline trigger
                ..FrontOptions::new()
            },
        );
        let deadline = 10_000;
        f.submit(&class0(4), deadline, 0).expect("admitted");
        assert!(f.batches().is_empty());
        f.advance_to(deadline).expect("pressure flush");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::DeadlinePressure);
        // The flush fired *before* the deadline, with drain-time slack.
        let at = f.batches()[0].at;
        assert!(at < deadline);
        assert!(at + f.drain_estimate_cycles(1) >= deadline);
    }

    #[test]
    fn unmeetable_deadline_rejects_at_admission() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        let floor = f.pool().latency_floor_cycles();
        assert!(floor > 0);
        let err = f.submit(&class0(4), floor - 1, 0).expect_err("rejected");
        assert_eq!(
            err,
            ServeError::DeadlineUnmeetable {
                deadline: floor - 1,
                earliest: floor,
            }
        );
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn quota_rejects_and_refills_deterministically() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                quota: Some(TenantQuota {
                    burst_requests: 2,
                    millitokens_per_cycle: 10, // 1 request / 100 cycles
                }),
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 3).expect("burst 1");
        f.submit(&class0(4), 1_000_000, 3).expect("burst 2");
        let err = f
            .submit(&class0(4), 1_000_000, 3)
            .expect_err("bucket empty");
        assert_eq!(
            err,
            ServeError::QuotaExceeded {
                tenant: 3,
                retry_cycles: 100,
            }
        );
        // Other tenants are unaffected by tenant 3's exhaustion.
        f.submit(&class0(4), 1_000_000, 4)
            .expect("tenant 4 admitted");
        // After the advertised retry horizon the bucket readmits.
        f.advance_to(f.now() + 100).expect("advance");
        f.submit(&class0(4), 1_000_000, 3).expect("refilled");
        assert_eq!(f.accepted(), 4);
        assert_eq!(f.rejected(), 1);
    }

    #[test]
    fn zero_rate_quota_reports_unbounded_retry() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                quota: Some(TenantQuota {
                    burst_requests: 1,
                    millitokens_per_cycle: 0,
                }),
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 0).expect("burst");
        let err = f
            .submit(&class0(4), 1_000_000, 0)
            .expect_err("never refills");
        assert_eq!(
            err,
            ServeError::QuotaExceeded {
                tenant: 0,
                retry_cycles: u64::MAX,
            }
        );

        // A zero burst never admits, whatever the refill rate: its bucket
        // cannot hold one request, so no retry horizon is honest.
        let mut f = front(
            &accel,
            FrontOptions {
                quota: Some(TenantQuota {
                    burst_requests: 0,
                    millitokens_per_cycle: 1_000,
                }),
                ..FrontOptions::new()
            },
        );
        for _ in 0..2 {
            let err = f
                .submit(&class0(4), 1_000_000, 0)
                .expect_err("zero burst admits nothing");
            assert_eq!(
                err,
                ServeError::QuotaExceeded {
                    tenant: 0,
                    retry_cycles: u64::MAX,
                }
            );
            f.advance_to(f.now() + 1_000).expect("advance");
        }
    }

    #[test]
    fn drr_interleaves_a_bursty_tenant_with_a_quiet_one() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 64,
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        // Tenant 0 bursts six requests; tenant 1 submits two.
        for _ in 0..6 {
            f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        }
        for _ in 0..2 {
            f.submit(&class1(4), 1_000_000, 1).expect("admitted");
        }
        f.drain().expect("drains");
        let replies = f.take_replies();
        assert_eq!(replies.len(), 8);
        // DRR gives tenant 1's first request a slot in the first round,
        // not behind tenant 0's whole burst: among the first four batch
        // positions (pool request ids 0..4), both tenants appear.
        let mut ids: Vec<(u64, u32)> = replies.iter().map(|r| (r.request, r.tenant)).collect();
        ids.sort_unstable();
        let first_two: Vec<u32> = ids.iter().take(2).map(|&(_, t)| t).collect();
        assert_eq!(first_two, vec![0, 1]);
        // Per-tenant order still holds.
        for tenant in [0, 1] {
            let seqs: Vec<u64> = replies
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let accel = accel();
        let run = || {
            let mut f = front(
                &accel,
                FrontOptions {
                    lane_block: 4,
                    idle_cycles: 200,
                    ..FrontOptions::new()
                },
            );
            let mut t = 0;
            for i in 0..11u64 {
                t += 37 * (i % 3 + 1);
                f.advance_to(t).expect("advance");
                let input = if i % 2 == 0 { class0(4) } else { class1(4) };
                f.submit(&input, t + 5_000, (i % 3) as u32)
                    .expect("admitted");
            }
            f.advance_to(t + 10_000).expect("advance");
            f.drain().expect("drains");
            (f.take_replies(), f.batches().to_vec())
        };
        let (replies_a, batches_a) = run();
        let (replies_b, batches_b) = run();
        assert_eq!(replies_a, replies_b);
        assert_eq!(batches_a, batches_b);
        assert_eq!(replies_a.len(), 11);
    }

    #[test]
    fn report_uses_admission_to_delivery_latencies() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        // Requests age in the queue before an explicit drain, so the
        // front's latency samples must exceed the pool's service-only
        // samples.
        for _ in 0..3 {
            f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        }
        f.advance_to(5_000).expect("advance");
        f.drain().expect("drains");
        let front_report = f.report();
        let pool_report = f.pool().report();
        assert_eq!(front_report.datapoints, 3);
        assert!(front_report.latency_p50_cycles >= 5_000);
        assert!(front_report.latency_p50_cycles > pool_report.latency_p50_cycles);
        assert_eq!(front_report.shards, pool_report.shards);
    }

    #[test]
    fn admission_saturates_at_the_end_of_the_clock() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        f.advance_to(u64::MAX - 1).expect("advance");
        assert_eq!(
            f.submit(&class0(4), u64::MAX - 1, 0)
                .expect_err("inside the floor"),
            ServeError::DeadlineUnmeetable {
                deadline: u64::MAX - 1,
                earliest: u64::MAX,
            }
        );
        f.submit(&class1(4), u64::MAX, 0).expect("admitted");
        f.drain().expect("drains");
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!((replies[0].winner, replies[0].delivered_at), (1, u64::MAX));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let accel = accel();
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(1)).expect("valid");
        let err = Front::new(
            pool,
            FrontOptions {
                lane_block: FLUSH_WINDOW + 1,
                ..FrontOptions::new()
            },
        )
        .expect_err("lane block must fit one pool flush");
        assert_eq!(
            err,
            ServeError::QueueFull {
                capacity: FLUSH_WINDOW
            }
        );
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(1)).expect("valid");
        assert_eq!(
            Front::new(
                pool,
                FrontOptions {
                    lane_block: 0,
                    ..FrontOptions::new()
                },
            )
            .expect_err("zero lane block"),
            ServeError::ZeroQueueDepth
        );
    }

    #[test]
    fn nothing_is_dropped_under_mixed_triggers() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 3,
                idle_cycles: 50,
                ..FrontOptions::new()
            },
        );
        let mut admitted = 0u64;
        for i in 0..20u64 {
            f.advance_to(i * 29).expect("advance");
            if f.submit(&class0(4), i * 29 + 2_000, (i % 2) as u32).is_ok() {
                admitted += 1;
            }
        }
        f.advance_to(20 * 29 + 5_000).expect("advance");
        f.drain().expect("drains");
        let replies = f.take_replies();
        assert_eq!(replies.len() as u64, admitted);
        assert_eq!(f.accepted(), admitted);
        assert_eq!(f.pending(), 0);
        // Every flush this trace produced is attributed to a trigger
        // and sums back to the admitted count.
        let total: usize = f.batches().iter().map(|b| b.size).sum();
        assert_eq!(total as u64, admitted);
    }

    #[test]
    fn drain_watchdog_turns_lost_pending_into_a_typed_stall() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        f.inject_phantom_pending(3);
        assert_eq!(
            f.drain().expect_err("no flush can retire phantoms"),
            ServeError::Stalled {
                pending: 3,
                virtual_clock: 0,
            }
        );
    }

    #[test]
    fn browned_out_pool_rejects_admission_typed() {
        let accel = accel();
        let mut pool =
            ShardPool::with_options(&accel, ServeOptions::turbo(2)).expect("valid options");
        pool.quarantine_shard(0);
        pool.quarantine_shard(1);
        let mut f = Front::new(pool, FrontOptions::new()).expect("valid options");
        let err = f
            .submit(&class0(4), 1_000_000, 0)
            .expect_err("no healthy shard");
        assert_eq!(err, ServeError::NoHealthyShard { width: 4 });
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn brownout_shed_is_typed_and_skips_the_delivery_cursor() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 8,
                idle_cycles: 0,
                shed_on_brownout: true,
                ..FrontOptions::new()
            },
        );
        let floor = f.pool().latency_floor_cycles();
        // seq 0 is tight, seq 1 is loose; both admissible now.
        f.submit(&class0(4), floor + 10, 0).expect("admitted");
        f.submit(&class1(4), 1_000_000, 0).expect("admitted");
        // Strand seq 0: jump the clock past its usable slack before any
        // timer-driven flush could run it (the direct write stands in
        // for a brownout stretching the drain estimates mid-backlog).
        f.now = floor + 11;
        f.drain().expect("drains");
        let shed = f.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(
            (
                shed[0].tenant,
                shed[0].seq,
                shed[0].deadline,
                shed[0].shed_at
            ),
            (0, 0, floor + 10, floor + 11)
        );
        assert_eq!(shed[0].as_error(), ServeError::Shed { tenant: 0, seq: 0 });
        // seq 1 is not held hostage by the shed predecessor: the
        // delivery cursor hops seq 0 and releases it in order.
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!((replies[0].seq, replies[0].winner), (1, 1));
    }

    #[test]
    fn without_shed_opt_in_stale_deadlines_run_and_miss_honestly() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 8,
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        let floor = f.pool().latency_floor_cycles();
        f.submit(&class0(4), floor + 10, 0).expect("admitted");
        f.now = floor + 11;
        f.drain().expect("drains");
        assert!(f.take_shed().is_empty());
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert!(!replies[0].met_deadline(), "served late, reported honestly");
    }

    #[test]
    fn front_delivers_in_order_over_a_killed_shard() {
        use crate::{FaultPlan, ShardHealth};
        let accel = accel();
        let pool =
            ShardPool::with_fault_plan(&accel, ServeOptions::turbo(2), FaultPlan::kill_shard(0, 0))
                .expect("valid options");
        let mut f = Front::new(
            pool,
            FrontOptions {
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        )
        .expect("valid options");
        for i in 0..6u64 {
            let input = if i % 2 == 0 { class0(4) } else { class1(4) };
            f.submit(&input, 1_000_000, 0).expect("admitted");
        }
        f.drain().expect("the survivor absorbs everything");
        let replies = f.take_replies();
        assert_eq!(replies.len(), 6, "zero drops");
        let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        let winners: Vec<usize> = replies.iter().map(|r| r.winner).collect();
        assert_eq!(winners, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(f.pool().shard_health(0), ShardHealth::Quarantined);
    }
}
