//! Bounded ring-buffer flight recorder: the last *N* request lifecycles
//! with virtual-clock stamps, for post-mortem inspection when a serving
//! front hits a typed error.
//!
//! The recorder trades completeness for boundedness: a slot is reused as
//! soon as request `id + capacity` begins, and updates addressed to an
//! evicted id are silently ignored — exactly the behaviour a black box
//! needs (recent history wins, recording never blocks the datapath).
//! After construction every operation is allocation-free: a
//! [`Lifecycle`] is `Copy` and slots are written in place.

use crate::metrics::enabled;

/// Default number of request lifecycles a recorder retains.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Opaque handle for one traced request, issued by
/// [`FlightRecorder::begin`] and threaded through the serving layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// The id handed out while recording is disabled; every operation on
    /// it is a no-op.
    pub const DISABLED: TraceId = TraceId(u64::MAX);
}

/// Everything the recorder knows about one request, filled in stage by
/// stage as the request moves submit → admit → batch → shard → reorder →
/// deliver. All stamps quote the front-end's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lifecycle {
    /// Submitting tenant.
    pub tenant: u32,
    /// Per-tenant submission sequence number.
    pub seq: u64,
    /// Virtual-clock stamp at submission.
    pub submitted_at: u64,
    /// Absolute deadline the submitter asked for.
    pub deadline: u64,
    /// Rejection reason when admission refused the request.
    pub rejected: Option<&'static str>,
    /// Stamp at which the request was flushed into a batch.
    pub batched_at: Option<u64>,
    /// What triggered the flush that carried this request.
    pub trigger: Option<&'static str>,
    /// Pool shard the request executed on.
    pub shard: Option<usize>,
    /// Stamp at which the shard's result was available.
    pub completed_at: Option<u64>,
    /// Stamp at which the reply left the reorder stage.
    pub delivered_at: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    life: Lifecycle,
}

/// Fixed-capacity ring of the most recent [`Lifecycle`]s. Owned by the
/// component doing the tracing (one per [`Front`]); not thread-shared —
/// the front already serializes its own submit/advance path.
///
/// [`Front`]: https://docs.rs/matador-serve
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Option<Slot>>,
    next_id: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` lifecycles
    /// (`capacity == 0` rounds up to 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: vec![None; capacity.max(1)],
            next_id: 0,
        }
    }

    /// Number of lifecycles retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total requests ever traced (including evicted ones).
    pub fn traced(&self) -> u64 {
        self.next_id
    }

    /// Starts tracing a request, evicting the lifecycle `capacity` ids
    /// older. Returns [`TraceId::DISABLED`] (all later stages no-op)
    /// while recording is disabled.
    pub fn begin(&mut self, tenant: u32, seq: u64, submitted_at: u64, deadline: u64) -> TraceId {
        if !enabled() {
            return TraceId::DISABLED;
        }
        let id = self.next_id;
        self.next_id += 1;
        let slot = (id % self.slots.len() as u64) as usize;
        self.slots[slot] = Some(Slot {
            id,
            life: Lifecycle {
                tenant,
                seq,
                submitted_at,
                deadline,
                ..Lifecycle::default()
            },
        });
        TraceId(id)
    }

    /// Applies `f` to the traced lifecycle; a no-op when the id was
    /// [`TraceId::DISABLED`] or its slot has been reused by a newer
    /// request.
    pub fn update(&mut self, id: TraceId, f: impl FnOnce(&mut Lifecycle)) {
        if id == TraceId::DISABLED || self.slots.is_empty() {
            return;
        }
        let slot = (id.0 % self.slots.len() as u64) as usize;
        if let Some(s) = &mut self.slots[slot] {
            if s.id == id.0 {
                f(&mut s.life);
            }
        }
    }

    /// The retained lifecycles, oldest first.
    pub fn lifecycles(&self) -> Vec<Lifecycle> {
        let mut kept: Vec<&Slot> = self.slots.iter().flatten().collect();
        kept.sort_by_key(|s| s.id);
        kept.into_iter().map(|s| s.life).collect()
    }

    /// Human-readable dump: one line per retained request, oldest first,
    /// with every recorded stage stamp.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut kept: Vec<&Slot> = self.slots.iter().flatten().collect();
        kept.sort_by_key(|s| s.id);
        let mut out = format!(
            "flight recorder: {} of {} traced requests retained\n",
            kept.len(),
            self.next_id
        );
        for s in kept {
            let l = &s.life;
            let _ = write!(
                out,
                "#{} tenant={} seq={} submitted={} deadline={}",
                s.id, l.tenant, l.seq, l.submitted_at, l.deadline
            );
            if let Some(reason) = l.rejected {
                let _ = write!(out, " rejected={reason}");
            }
            if let Some(t) = l.batched_at {
                let _ = write!(out, " batched={t}");
            }
            if let Some(trigger) = l.trigger {
                let _ = write!(out, " trigger={trigger}");
            }
            if let Some(shard) = l.shard {
                let _ = write!(out, " shard={shard}");
            }
            if let Some(t) = l.completed_at {
                let _ = write!(out, " completed={t}");
            }
            if let Some(t) = l.delivered_at {
                let _ = write!(out, " delivered={t}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use crate::metrics::set_enabled;

    #[test]
    fn traces_full_lifecycle() {
        let _g = crate::metrics::test_lock();
        set_enabled(true);
        let mut fr = FlightRecorder::new(8);
        let id = fr.begin(2, 0, 10, 500);
        fr.update(id, |l| {
            l.batched_at = Some(40);
            l.trigger = Some("lane_block_full");
        });
        fr.update(id, |l| {
            l.shard = Some(1);
            l.completed_at = Some(90);
        });
        fr.update(id, |l| l.delivered_at = Some(95));
        let lives = fr.lifecycles();
        assert_eq!(lives.len(), 1);
        let l = &lives[0];
        assert_eq!(
            (l.tenant, l.seq, l.submitted_at, l.deadline),
            (2, 0, 10, 500)
        );
        assert_eq!(l.batched_at, Some(40));
        assert_eq!(l.trigger, Some("lane_block_full"));
        assert_eq!(l.shard, Some(1));
        assert_eq!(l.completed_at, Some(90));
        assert_eq!(l.delivered_at, Some(95));
        let text = fr.render();
        assert!(text.contains("tenant=2"), "{text}");
        assert!(text.contains("trigger=lane_block_full"), "{text}");
    }

    #[test]
    fn ring_evicts_oldest_and_ignores_stale_updates() {
        let _g = crate::metrics::test_lock();
        set_enabled(true);
        let mut fr = FlightRecorder::new(4);
        let first = fr.begin(0, 0, 0, 100);
        let ids: Vec<TraceId> = (1..=4).map(|i| fr.begin(0, i, i, 100)).collect();
        // `first` was evicted by the 5th begin; updating it is a no-op.
        fr.update(first, |l| l.delivered_at = Some(1));
        let lives = fr.lifecycles();
        assert_eq!(lives.len(), 4);
        assert!(lives.iter().all(|l| l.delivered_at.is_none()));
        assert_eq!(lives[0].seq, 1, "oldest retained is seq 1");
        // The newest ids still resolve.
        fr.update(ids[3], |l| l.delivered_at = Some(9));
        assert_eq!(fr.lifecycles()[3].delivered_at, Some(9));
        assert_eq!(fr.traced(), 5);
    }

    #[test]
    fn disabled_recording_hands_out_inert_ids() {
        let _g = crate::metrics::test_lock();
        set_enabled(false);
        let mut fr = FlightRecorder::new(4);
        let id = fr.begin(0, 0, 0, 100);
        assert_eq!(id, TraceId::DISABLED);
        fr.update(id, |l| l.delivered_at = Some(1));
        assert!(fr.lifecycles().is_empty());
        set_enabled(true);
    }
}

#[cfg(all(test, feature = "noop"))]
mod noop_tests {
    use super::*;

    #[test]
    fn noop_build_hands_out_inert_ids() {
        let mut fr = FlightRecorder::new(4);
        assert_eq!(fr.begin(0, 0, 0, 1), TraceId::DISABLED);
        assert!(fr.lifecycles().is_empty());
    }
}
