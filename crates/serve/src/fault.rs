//! Deterministic fault injection for chaos-testing the serving stack.
//!
//! A [`FaultPlan`] is a *schedule*, fixed before the pool runs: each
//! [`FaultEvent`] names a shard, a shard-local request count at which it
//! triggers, and a [`FaultKind`]. Trigger points are counted in
//! **requests the shard has attempted**, not cycles or wall time, so the
//! fault timeline is a pure function of the dispatch plan — which is
//! itself deterministic — and the same seed replays bit-identically at
//! any `MATADOR_THREADS`. Seeded generation derives one SplitMix64
//! stream per shard via [`matador_par::split_seed`], the same
//! seed-splitting discipline the rest of the workspace uses.
//!
//! The plan is installed with [`crate::ShardPool::with_fault_plan`],
//! which also switches the pool into *resilient* mode: injected (and
//! genuine) shard failures feed the per-shard health tracker and the
//! flush re-plans the lost requests over surviving shards instead of
//! poisoning the whole flush. An empty
//! [`FaultPlan::none`] compiles down to a handful of branch checks on
//! the flush path — the zero-overhead default.
//!
//! ## Fault taxonomy
//!
//! | kind                      | model                                     | severity |
//! |---------------------------|-------------------------------------------|----------|
//! | [`FaultKind::Stall`]      | engine holds TVALID low for N cycles      | soft     |
//! | [`FaultKind::QueueDelay`] | slice sits N cycles in the shard's queue  | soft     |
//! | [`FaultKind::Panic`]      | the worker thread panics (one slice)      | hard     |
//! | [`FaultKind::CorruptSum`] | a class-sum word is corrupted in flight   | hard     |
//! | [`FaultKind::Crash`]      | permanent: every later slice panics too   | hard     |
//!
//! Soft faults cost only time. Hard faults lose the slice: a panicked
//! worker never produced results, and a corrupted class-sum word is
//! caught by the result bus's parity check — the pool *discards* the
//! slice rather than serve a possibly-wrong winner, then re-dispatches
//! it to surviving shards. That is what keeps chaos replies bit-identical
//! to the fault-free run: faults may delay an answer, never change it.

use matador_par::split_seed;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What an injected fault does to the shard it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The engine stalls for `cycles` before streaming the slice —
    /// modeled as idle time on the shard clock. Soft: results are
    /// correct, only later.
    Stall {
        /// Idle cycles injected before the slice runs.
        cycles: u64,
    },
    /// The slice sits `cycles` in the shard's input queue before the
    /// first beat is accepted. Timing-wise equivalent to a stall; kept
    /// distinct so chaos traces can tell transport delays from engine
    /// stalls. Soft.
    QueueDelay {
        /// Queue-residency cycles injected before the slice runs.
        cycles: u64,
    },
    /// The worker thread executing the slice panics. The slice produces
    /// nothing; `matador-par`'s containment catches the unwind and the
    /// pool re-dispatches the slice. Hard, one-shot.
    Panic,
    /// A class-sum word of the slice is corrupted in flight. The result
    /// bus's parity check detects it, the whole slice is discarded
    /// (never served) and re-dispatched. Hard, one-shot.
    CorruptSum,
    /// The shard dies permanently: this slice and every later one —
    /// including recovery probes — panics. The health tracker ends up
    /// holding the shard in quarantine forever. Hard, permanent.
    Crash,
}

impl FaultKind {
    /// Stable label for metric series
    /// (`matador_faults_injected_total{kind=...}`).
    pub fn as_label(&self) -> &'static str {
        match self {
            FaultKind::Stall { .. } => "stall",
            FaultKind::QueueDelay { .. } => "queue_delay",
            FaultKind::Panic => "panic",
            FaultKind::CorruptSum => "corrupt_sum",
            FaultKind::Crash => "crash",
        }
    }

    /// Whether the fault loses the slice (vs only delaying it).
    pub fn is_hard(&self) -> bool {
        matches!(
            self,
            FaultKind::Panic | FaultKind::CorruptSum | FaultKind::Crash
        )
    }
}

/// One scheduled fault: fires on `shard` when that shard's attempted-
/// request counter passes `at_request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Shard the fault fires on.
    pub shard: usize,
    /// Shard-local attempted-request count at which it triggers: the
    /// fault fires on the first slice whose request range covers this
    /// count. Requests *attempted* — a slice lost to a panic still
    /// advances the counter, so retries cannot re-trigger the same
    /// one-shot fault forever.
    pub at_request: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of shard faults.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events sorted by `(shard, at_request)`; order within a tie is the
    /// insertion order (stable sort), itself deterministic.
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead. Installing it still
    /// switches the pool into resilient mode (genuine engine failures
    /// get the health/redirect treatment instead of poisoning a flush).
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from explicit events (sorted into canonical order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.shard, e.at_request));
        FaultPlan { events }
    }

    /// The classic chaos drill: `shard` dies permanently once it has
    /// attempted `at_request` requests.
    pub fn kill_shard(shard: usize, at_request: u64) -> Self {
        FaultPlan {
            events: vec![FaultEvent {
                shard,
                at_request,
                kind: FaultKind::Crash,
            }],
        }
    }

    /// Seeded chaos: `faults_per_shard` events per shard, kinds and
    /// trigger points drawn from one SplitMix64 stream per shard
    /// (derived with [`split_seed`], so shard `s`'s schedule never
    /// depends on how many faults another shard drew). Soft faults
    /// dominate the mix (stalls and queue delays), with occasional
    /// corrupted sums and worker panics; permanent crashes are never
    /// generated — compose with [`FaultPlan::kill_shard`] via
    /// [`FaultPlan::merged`] for kill drills. Trigger points land in
    /// `[0, horizon_requests)`.
    pub fn seeded(
        seed: u64,
        shards: usize,
        horizon_requests: u64,
        faults_per_shard: usize,
    ) -> Self {
        let horizon = horizon_requests.max(1);
        let mut events = Vec::with_capacity(shards * faults_per_shard);
        for shard in 0..shards {
            let mut rng = SplitMix64::new(split_seed(seed, shard as u64));
            for _ in 0..faults_per_shard {
                let at_request = rng.next_u64() % horizon;
                let kind = match rng.next_u64() % 8 {
                    0..=2 => FaultKind::Stall {
                        cycles: 8 + rng.next_u64() % 64,
                    },
                    3..=4 => FaultKind::QueueDelay {
                        cycles: 4 + rng.next_u64() % 32,
                    },
                    5..=6 => FaultKind::CorruptSum,
                    _ => FaultKind::Panic,
                };
                events.push(FaultEvent {
                    shard,
                    at_request,
                    kind,
                });
            }
        }
        Self::from_events(events)
    }

    /// This plan plus another's events, in canonical order.
    pub fn merged(&self, other: &FaultPlan) -> Self {
        let mut events = self.events.clone();
        events.extend_from_slice(&other.events);
        Self::from_events(events)
    }

    /// The scheduled events, canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Minimal SplitMix64 stream for seeded plan generation — the same
/// finalizer as [`split_seed`], advanced by the golden-ratio increment.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one shard's next slice must do about faults, planned *before*
/// the slice is handed to a worker (the fault state is pool-owned and
/// single-threaded; workers only read their directive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SliceFaults {
    /// Idle cycles to inject on the shard clock before the run (sum of
    /// triggered stalls and queue delays).
    pub pre_delay: u64,
    /// How the slice's execution ends.
    pub action: SliceAction,
    /// Labels of the soft faults injected (for the
    /// `matador_faults_injected_total` counter), empty on the hot path.
    pub soft: Vec<&'static str>,
    /// Label of the hard fault injected, if any.
    pub hard: Option<&'static str>,
}

/// Terminal behavior of a fault-bracketed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SliceAction {
    /// Run the engine normally.
    Run,
    /// Panic on the worker thread instead of running (the engine is
    /// left untouched — the panic models the worker dying before the
    /// first beat is accepted).
    Panic,
    /// Run the engine, then discard the slice as parity-corrupted.
    Corrupt,
}

impl SliceFaults {
    /// The no-fault directive: run clean, inject nothing.
    pub fn clean() -> Self {
        SliceFaults {
            pre_delay: 0,
            action: SliceAction::Run,
            soft: Vec::new(),
            hard: None,
        }
    }

    /// Whether this directive injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.pre_delay == 0
            && self.action == SliceAction::Run
            && self.soft.is_empty()
            && self.hard.is_none()
    }
}

/// Per-shard runtime fault state: the shard's slice of the plan plus
/// its attempted-request counter.
#[derive(Debug, Clone)]
struct ShardFaultState {
    /// Events for this shard, ascending `at_request`.
    pending: VecDeque<(u64, FaultKind)>,
    /// Requests attempted on this shard so far (executed, panicked or
    /// discarded — every slice advances it by its length).
    attempted: u64,
    /// A [`FaultKind::Crash`] has fired: every slice from now on —
    /// probes included — panics.
    crashed: bool,
}

/// Pool-side fault injector: owns the per-shard schedules and hands the
/// flush path one [`SliceFaults`] directive per slice.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    shards: Vec<ShardFaultState>,
    /// Events (or crashes) still able to fire somewhere — `false` is
    /// the hot-path fast-out.
    armed: bool,
}

impl FaultState {
    pub fn new(plan: &FaultPlan, shards: usize) -> Self {
        let mut per_shard: Vec<VecDeque<(u64, FaultKind)>> = vec![VecDeque::new(); shards];
        for e in plan.events() {
            // Events aimed past the pool (a plan generated for more
            // shards) are dropped rather than wrapped — wrapping would
            // silently retarget the schedule.
            if let Some(q) = per_shard.get_mut(e.shard) {
                q.push_back((e.at_request, e.kind));
            }
        }
        let armed = per_shard.iter().any(|q| !q.is_empty());
        FaultState {
            shards: per_shard
                .into_iter()
                .map(|pending| ShardFaultState {
                    pending,
                    attempted: 0,
                    crashed: false,
                })
                .collect(),
            armed,
        }
    }

    /// Whether any fault can still fire (cheap hot-path gate).
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Plans the directive for `shard`'s next slice of `n` requests and
    /// advances its attempted counter. Every event whose trigger point
    /// falls inside the slice fires; when several hard faults collide on
    /// one slice, `Crash` ≻ `Panic` ≻ `CorruptSum` (the most damaging
    /// wins — the slice is lost either way).
    pub fn plan_slice(&mut self, shard: usize, n: usize) -> SliceFaults {
        let mut out = SliceFaults::clean();
        let state = &mut self.shards[shard];
        let end = state.attempted + n as u64;
        state.attempted = end;
        if state.crashed {
            out.action = SliceAction::Panic;
            out.hard = Some(FaultKind::Crash.as_label());
            return out;
        }
        if !self.armed {
            return out;
        }
        while let Some(&(at, kind)) = state.pending.front() {
            if at >= end {
                break;
            }
            state.pending.pop_front();
            match kind {
                FaultKind::Stall { cycles } | FaultKind::QueueDelay { cycles } => {
                    out.pre_delay += cycles;
                    out.soft.push(kind.as_label());
                }
                FaultKind::Panic => {
                    if out.action != SliceAction::Panic {
                        out.action = SliceAction::Panic;
                        out.hard = Some(kind.as_label());
                    }
                }
                FaultKind::CorruptSum => {
                    if out.action == SliceAction::Run {
                        out.action = SliceAction::Corrupt;
                        out.hard = Some(kind.as_label());
                    }
                }
                FaultKind::Crash => {
                    state.crashed = true;
                    out.action = SliceAction::Panic;
                    out.hard = Some(kind.as_label());
                }
            }
        }
        // A crashed shard keeps `armed` true forever (probes must keep
        // failing); otherwise disarm once every queue is drained.
        if !state.crashed
            && self
                .shards
                .iter()
                .all(|s| s.pending.is_empty() && !s.crashed)
        {
            self.armed = false;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_clean_and_disarmed() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut state = FaultState::new(&plan, 4);
        assert!(!state.armed());
        let d = state.plan_slice(2, 10);
        assert!(d.is_clean());
    }

    #[test]
    fn seeded_plans_replay_bit_identically() {
        let a = FaultPlan::seeded(42, 4, 1000, 3);
        let b = FaultPlan::seeded(42, 4, 1000, 3);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 12);
        assert!(a.events().iter().all(|e| e.at_request < 1000));
        // A different seed reschedules.
        assert_ne!(a, FaultPlan::seeded(43, 4, 1000, 3));
        // Per-shard streams: shard 0's schedule is independent of the
        // shard count.
        let wide = FaultPlan::seeded(42, 8, 1000, 3);
        let shard0 = |p: &FaultPlan| -> Vec<FaultEvent> {
            p.events()
                .iter()
                .copied()
                .filter(|e| e.shard == 0)
                .collect()
        };
        assert_eq!(shard0(&a), shard0(&wide));
    }

    #[test]
    fn events_trigger_at_their_request_counts() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                shard: 0,
                at_request: 5,
                kind: FaultKind::Stall { cycles: 7 },
            },
            FaultEvent {
                shard: 0,
                at_request: 6,
                kind: FaultKind::QueueDelay { cycles: 3 },
            },
            FaultEvent {
                shard: 1,
                at_request: 0,
                kind: FaultKind::CorruptSum,
            },
        ]);
        let mut state = FaultState::new(&plan, 2);
        // Requests 0..5 on shard 0: nothing fires.
        assert!(state.plan_slice(0, 5).is_clean());
        // Requests 5..8 cover both soft events: delays accumulate.
        let d = state.plan_slice(0, 3);
        assert_eq!(d.pre_delay, 10);
        assert_eq!(d.action, SliceAction::Run);
        assert_eq!(d.soft, vec!["stall", "queue_delay"]);
        // Shard 1's first slice is corrupted.
        let d = state.plan_slice(1, 2);
        assert_eq!(d.action, SliceAction::Corrupt);
        assert_eq!(d.hard, Some("corrupt_sum"));
        // Everything has fired: the injector disarms.
        assert!(!state.armed());
    }

    #[test]
    fn crash_is_permanent_and_keeps_probes_failing() {
        let plan = FaultPlan::kill_shard(1, 4);
        let mut state = FaultState::new(&plan, 2);
        assert!(state.plan_slice(1, 4).is_clean(), "before the kill point");
        let d = state.plan_slice(1, 1);
        assert_eq!(d.action, SliceAction::Panic);
        assert_eq!(d.hard, Some("crash"));
        // Every later slice — e.g. a recovery probe — panics too.
        for _ in 0..3 {
            let d = state.plan_slice(1, 1);
            assert_eq!(d.action, SliceAction::Panic);
        }
        assert!(state.armed(), "a crashed shard never disarms");
        // The surviving shard stays clean throughout.
        assert!(state.plan_slice(0, 100).is_clean());
    }

    #[test]
    fn panic_outranks_corrupt_and_crash_outranks_both() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                shard: 0,
                at_request: 0,
                kind: FaultKind::CorruptSum,
            },
            FaultEvent {
                shard: 0,
                at_request: 1,
                kind: FaultKind::Panic,
            },
        ]);
        let mut state = FaultState::new(&plan, 1);
        let d = state.plan_slice(0, 4);
        assert_eq!(d.action, SliceAction::Panic);
        assert_eq!(d.hard, Some("panic"));
    }

    #[test]
    fn attempted_counter_advances_even_for_lost_slices() {
        // A one-shot panic at request 2 must not re-fire when the lost
        // slice is retried on the same shard later.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            shard: 0,
            at_request: 2,
            kind: FaultKind::Panic,
        }]);
        let mut state = FaultState::new(&plan, 1);
        let d = state.plan_slice(0, 4);
        assert_eq!(d.action, SliceAction::Panic);
        // The retry of those same four requests runs clean.
        assert!(state.plan_slice(0, 4).is_clean());
    }

    #[test]
    fn kind_labels_and_severity() {
        assert_eq!(FaultKind::Stall { cycles: 1 }.as_label(), "stall");
        assert_eq!(
            FaultKind::QueueDelay { cycles: 1 }.as_label(),
            "queue_delay"
        );
        assert_eq!(FaultKind::Panic.as_label(), "panic");
        assert_eq!(FaultKind::CorruptSum.as_label(), "corrupt_sum");
        assert_eq!(FaultKind::Crash.as_label(), "crash");
        assert!(!FaultKind::Stall { cycles: 1 }.is_hard());
        assert!(!FaultKind::QueueDelay { cycles: 1 }.is_hard());
        assert!(FaultKind::Panic.is_hard());
        assert!(FaultKind::CorruptSum.is_hard());
        assert!(FaultKind::Crash.is_hard());
    }

    #[test]
    fn merged_plans_interleave_in_canonical_order() {
        let soft = FaultPlan::seeded(7, 2, 100, 2);
        let kill = FaultPlan::kill_shard(1, 50);
        let merged = soft.merged(&kill);
        assert_eq!(merged.events().len(), soft.events().len() + 1);
        assert!(merged
            .events()
            .windows(2)
            .all(|w| (w[0].shard, w[0].at_request) <= (w[1].shard, w[1].at_request)));
    }
}
