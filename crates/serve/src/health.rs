//! Per-shard health tracking: a circuit breaker over the shard pool.
//!
//! Each shard moves through a four-state machine driven by the faults
//! the pool detects while flushing:
//!
//! ```text
//!             soft fault                    hard fault
//!   Healthy ─────────────▶ Degraded ──────────────────▶ Quarantined
//!      ▲  ▲                   │   ▲                          │
//!      │  │   clean flush     │   │ soft fault               │ cooldown
//!      │  └───────────────────┘   │                          │ expires
//!      │                          │                          ▼
//!      └────────────────────── Probing ◀────────────────────┘
//!            clean flush          │ any fault
//!                                 └────────▶ Quarantined (again)
//! ```
//!
//! *Soft* faults (injected stalls/queue delays, observed-II outliers)
//! only cost time: the shard is marked **Degraded** — still eligible
//! for traffic, but flagged — and recovers to **Healthy** after one
//! clean flush. *Hard* faults (worker panics, corrupted class sums,
//! engine errors, crashes) lose a slice: the shard is **Quarantined**
//! — the circuit breaker opens, dispatch stops routing to it — for a
//! fixed cooldown measured in pool flushes. When the cooldown expires
//! the breaker goes half-open: the shard becomes **Probing**, eligible
//! again for ordinary traffic, and the next flush decides — clean
//! closes the breaker (Healthy), any fault re-opens it (Quarantined,
//! fresh cooldown). A permanently crashed shard therefore oscillates
//! quarantine → probe → failed probe → quarantine forever, never
//! serving a reply.
//!
//! Every transition is appended to an in-memory log ([`HealthTracker::log`])
//! and published to the `matador_shard_health` gauge (one series per
//! shard). The log is part of the deterministic replay surface: the
//! chaos tests assert it is bit-identical across thread counts.

use matador_obs::{Gauge, Registry};
use std::sync::Arc;

/// How many flushes a quarantined shard sits out before the breaker
/// goes half-open and a probe is allowed.
pub const PROBE_COOLDOWN_FLUSHES: u64 = 2;

/// How many consecutive clean flushes a degraded shard needs to be
/// declared healthy again.
const DEGRADED_RECOVERY_FLUSHES: u32 = 1;

/// Health of one shard, as seen by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Recently hit by a soft fault (stall, queue delay, II outlier):
    /// still eligible for traffic, flagged for observation.
    Degraded,
    /// Circuit breaker open: dispatch routes nothing to this shard
    /// until the cooldown expires.
    Quarantined,
    /// Half-open: cooldown expired, the next flush may route traffic
    /// here as a probe. Clean → Healthy; any fault → Quarantined.
    Probing,
}

impl ShardHealth {
    /// Stable label for logs and metric series.
    pub fn as_label(&self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Quarantined => "quarantined",
            ShardHealth::Probing => "probing",
        }
    }

    /// Value published on the `matador_shard_health` gauge: 0 healthy,
    /// 1 degraded, 2 probing, 3 quarantined (higher = worse).
    pub fn as_gauge_value(&self) -> i64 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Probing => 2,
            ShardHealth::Quarantined => 3,
        }
    }

    /// Whether dispatch may route requests to a shard in this state.
    /// Everything but an open breaker is eligible — probing *is*
    /// routing ordinary traffic and watching what happens.
    pub fn eligible(&self) -> bool {
        !matches!(self, ShardHealth::Quarantined)
    }
}

/// One edge of the health state machine, for the transition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The shard that moved.
    pub shard: usize,
    /// Pool flush sequence number at which it moved (1-based; flush 0
    /// means "before any flush", used by operator-forced transitions).
    pub flush: u64,
    /// State before.
    pub from: ShardHealth,
    /// State after.
    pub to: ShardHealth,
    /// Why: a stable label such as `"panic"`, `"corrupt_sum"`,
    /// `"stall"`, `"ii_outlier"`, `"engine_error"`, `"clean"`,
    /// `"cooldown"`, `"operator"`.
    pub cause: &'static str,
}

/// The pool-owned circuit breaker: one state per shard, a transition
/// log, and the `matador_shard_health` gauges.
#[derive(Debug)]
pub struct HealthTracker {
    states: Vec<ShardHealth>,
    /// Consecutive clean flushes while Degraded (recovery counter).
    clean_streak: Vec<u32>,
    /// Remaining cooldown flushes while Quarantined.
    cooldown: Vec<u64>,
    /// Count of shards not currently Healthy — the hot-path fast-out.
    unhealthy: usize,
    /// Pool flush sequence, advanced by [`HealthTracker::begin_flush`].
    flush_seq: u64,
    log: Vec<HealthTransition>,
    gauges: Vec<Arc<Gauge>>,
}

impl HealthTracker {
    pub(crate) fn new(shards: usize) -> Self {
        let gauges = (0..shards)
            .map(|s| {
                Registry::global().gauge(
                    "matador_shard_health",
                    &format!("shard=\"{s}\""),
                    "Shard health state: 0 healthy, 1 degraded, 2 probing, 3 quarantined.",
                )
            })
            .collect::<Vec<_>>();
        for g in &gauges {
            g.set(ShardHealth::Healthy.as_gauge_value());
        }
        HealthTracker {
            states: vec![ShardHealth::Healthy; shards],
            clean_streak: vec![0; shards],
            cooldown: vec![0; shards],
            unhealthy: 0,
            flush_seq: 0,
            log: Vec::new(),
            gauges,
        }
    }

    /// Current state of one shard.
    pub fn state(&self, shard: usize) -> ShardHealth {
        self.states[shard]
    }

    /// The full transition log, oldest first. Deterministic: same
    /// fault plan + same request stream ⇒ same log, at any thread
    /// count.
    pub fn log(&self) -> &[HealthTransition] {
        &self.log
    }

    /// Whether every shard is Healthy — the cheap gate the hot path
    /// checks before doing any health work.
    pub fn all_healthy(&self) -> bool {
        self.unhealthy == 0
    }

    /// Whether dispatch may route to `shard` right now.
    pub fn eligible(&self, shard: usize) -> bool {
        self.states[shard].eligible()
    }

    /// Number of shards currently eligible for traffic.
    pub fn eligible_shards(&self) -> usize {
        if self.unhealthy == 0 {
            self.states.len()
        } else {
            self.states.iter().filter(|s| s.eligible()).count()
        }
    }

    fn transition(&mut self, shard: usize, to: ShardHealth, cause: &'static str) {
        let from = self.states[shard];
        if from == to {
            return;
        }
        if from == ShardHealth::Healthy {
            self.unhealthy += 1;
        }
        if to == ShardHealth::Healthy {
            self.unhealthy -= 1;
        }
        self.states[shard] = to;
        self.gauges[shard].set(to.as_gauge_value());
        self.log.push(HealthTransition {
            shard,
            flush: self.flush_seq,
            from,
            to,
            cause,
        });
    }

    /// Opens a new flush: advances the sequence number and walks
    /// quarantine cooldowns, half-opening breakers whose cooldown
    /// expired (Quarantined → Probing). Called once per pool flush,
    /// before dispatch plans anything.
    pub(crate) fn begin_flush(&mut self) {
        self.flush_seq += 1;
        if self.unhealthy == 0 {
            return;
        }
        for shard in 0..self.states.len() {
            if self.states[shard] == ShardHealth::Quarantined {
                self.cooldown[shard] = self.cooldown[shard].saturating_sub(1);
                if self.cooldown[shard] == 0 {
                    self.transition(shard, ShardHealth::Probing, "cooldown");
                }
            }
        }
    }

    /// Records a soft fault on `shard` (stall, queue delay, observed-II
    /// outlier). Healthy → Degraded; a fault during a probe re-opens
    /// the breaker — half-open tolerates nothing.
    pub(crate) fn note_soft(&mut self, shard: usize, cause: &'static str) {
        match self.states[shard] {
            ShardHealth::Healthy => self.transition(shard, ShardHealth::Degraded, cause),
            ShardHealth::Probing => self.quarantine(shard, cause),
            ShardHealth::Degraded | ShardHealth::Quarantined => {}
        }
        self.clean_streak[shard] = 0;
    }

    /// Records a hard fault on `shard` (panic, corrupted sum, engine
    /// error, crash): the breaker opens from any state.
    pub(crate) fn note_hard(&mut self, shard: usize, cause: &'static str) {
        self.quarantine(shard, cause);
    }

    fn quarantine(&mut self, shard: usize, cause: &'static str) {
        self.cooldown[shard] = PROBE_COOLDOWN_FLUSHES;
        self.clean_streak[shard] = 0;
        self.transition(shard, ShardHealth::Quarantined, cause);
    }

    /// Records a clean (fault-free) flush slice on `shard`. A probe
    /// that comes back clean closes the breaker; a degraded shard
    /// recovers after [`DEGRADED_RECOVERY_FLUSHES`] clean flushes.
    pub(crate) fn note_clean(&mut self, shard: usize) {
        match self.states[shard] {
            ShardHealth::Probing => self.transition(shard, ShardHealth::Healthy, "clean"),
            ShardHealth::Degraded => {
                self.clean_streak[shard] += 1;
                if self.clean_streak[shard] >= DEGRADED_RECOVERY_FLUSHES {
                    self.transition(shard, ShardHealth::Healthy, "clean");
                }
            }
            ShardHealth::Healthy | ShardHealth::Quarantined => {}
        }
    }

    /// Operator override: force `shard` into quarantine (e.g. for a
    /// planned drain). Same breaker semantics — it probes its way back
    /// after the cooldown.
    pub(crate) fn force_quarantine(&mut self, shard: usize) {
        self.quarantine(shard, "operator");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_fault_degrades_and_one_clean_flush_recovers() {
        let mut t = HealthTracker::new(2);
        assert!(t.all_healthy());
        t.begin_flush();
        t.note_soft(0, "stall");
        assert_eq!(t.state(0), ShardHealth::Degraded);
        assert!(t.eligible(0), "degraded shards still take traffic");
        assert!(!t.all_healthy());
        t.begin_flush();
        t.note_clean(0);
        assert_eq!(t.state(0), ShardHealth::Healthy);
        assert!(t.all_healthy());
    }

    #[test]
    fn hard_fault_quarantines_then_probes_then_recovers() {
        let mut t = HealthTracker::new(2);
        t.begin_flush();
        t.note_hard(1, "panic");
        assert_eq!(t.state(1), ShardHealth::Quarantined);
        assert!(!t.eligible(1));
        assert_eq!(t.eligible_shards(), 1);
        // Cooldown: PROBE_COOLDOWN_FLUSHES flushes sit out.
        t.begin_flush();
        assert_eq!(t.state(1), ShardHealth::Quarantined);
        t.begin_flush();
        assert_eq!(t.state(1), ShardHealth::Probing);
        assert!(t.eligible(1), "half-open breaker routes a probe");
        // Clean probe closes the breaker.
        t.note_clean(1);
        assert_eq!(t.state(1), ShardHealth::Healthy);
        assert!(t.all_healthy());
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut t = HealthTracker::new(1);
        t.begin_flush();
        t.note_hard(0, "crash");
        t.begin_flush();
        t.begin_flush();
        assert_eq!(t.state(0), ShardHealth::Probing);
        t.begin_flush();
        t.note_hard(0, "crash");
        assert_eq!(t.state(0), ShardHealth::Quarantined);
        // And a soft fault during a later probe also re-opens it.
        t.begin_flush();
        t.begin_flush();
        assert_eq!(t.state(0), ShardHealth::Probing);
        t.note_soft(0, "stall");
        assert_eq!(t.state(0), ShardHealth::Quarantined);
    }

    #[test]
    fn transition_log_records_every_edge_with_cause() {
        let mut t = HealthTracker::new(2);
        t.begin_flush();
        t.note_hard(0, "corrupt_sum");
        t.begin_flush();
        t.begin_flush();
        t.note_clean(0);
        let log = t.log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            (log[0].from, log[0].to, log[0].cause, log[0].flush),
            (
                ShardHealth::Healthy,
                ShardHealth::Quarantined,
                "corrupt_sum",
                1
            )
        );
        assert_eq!(
            (log[1].from, log[1].to, log[1].cause, log[1].flush),
            (
                ShardHealth::Quarantined,
                ShardHealth::Probing,
                "cooldown",
                3
            )
        );
        assert_eq!(
            (log[2].from, log[2].to, log[2].cause, log[2].flush),
            (ShardHealth::Probing, ShardHealth::Healthy, "clean", 3)
        );
    }

    #[test]
    fn operator_quarantine_uses_the_same_breaker() {
        let mut t = HealthTracker::new(3);
        t.force_quarantine(2);
        assert_eq!(t.state(2), ShardHealth::Quarantined);
        assert_eq!(t.log()[0].cause, "operator");
        assert_eq!(t.log()[0].flush, 0);
    }

    #[test]
    fn labels_and_gauge_values_are_stable() {
        assert_eq!(ShardHealth::Healthy.as_label(), "healthy");
        assert_eq!(ShardHealth::Degraded.as_label(), "degraded");
        assert_eq!(ShardHealth::Probing.as_label(), "probing");
        assert_eq!(ShardHealth::Quarantined.as_label(), "quarantined");
        assert_eq!(ShardHealth::Healthy.as_gauge_value(), 0);
        assert_eq!(ShardHealth::Quarantined.as_gauge_value(), 3);
        assert!(ShardHealth::Probing.eligible());
        assert!(!ShardHealth::Quarantined.eligible());
    }
}
