//! Typed failures of the serving runtime.

use matador_sim::SimError;
use std::fmt;

/// Any error produced by the sharded inference runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A pool was requested with zero shards.
    ZeroShards,
    /// A [`crate::Front`] was configured with a zero
    /// [`lane_block`](crate::FrontOptions::lane_block) or
    /// [`drr_quantum`](crate::FrontOptions::drr_quantum) — it could never
    /// batch a request.
    ZeroQueueDepth,
    /// A [`crate::Front`] was configured with a
    /// [`lane_block`](crate::FrontOptions::lane_block) larger than
    /// [`crate::FLUSH_WINDOW`]: a full lane block, the most requests a
    /// front ever holds, must run as one pool flush.
    QueueFull {
        /// The flush window, in lanes, that the lane block exceeds.
        capacity: usize,
    },
    /// A submitted datapoint's width does not match the compiled
    /// accelerator's feature count.
    WidthMismatch {
        /// Feature count the accelerator was compiled for.
        expected: usize,
        /// Width of the rejected datapoint.
        got: usize,
    },
    /// No shard of a heterogeneous pool accepts the submitted datapoint's
    /// width — the pool serves other feature widths entirely.
    NoCompatibleShard {
        /// Width of the rejected datapoint.
        got: usize,
        /// Distinct feature widths the pool's shards do accept, ascending.
        widths: Vec<usize>,
    },
    /// A heterogeneous shard was specified with dispatch weight zero — it
    /// could never be assigned a request.
    ZeroWeight {
        /// Index of the offending shard spec.
        shard: usize,
    },
    /// The members of one partition group serve different feature widths.
    /// A group's shards each hold one slice of the *same* partitioned
    /// design and must execute every request of the group together, so
    /// their admitted widths have to agree — mixed widths would make the
    /// class-sum merge meaningless.
    PartitionWidthMismatch {
        /// The offending partition group id.
        group: u32,
        /// The distinct feature widths found across the group's members,
        /// ascending.
        widths: Vec<usize>,
    },
    /// A tenant's token bucket is empty: the front-end's per-tenant rate
    /// limit rejected the submission. Typed backpressure scoped to one
    /// tenant — other tenants keep being admitted.
    QuotaExceeded {
        /// The rate-limited tenant.
        tenant: u32,
        /// Cycles until the bucket has refilled enough for one request.
        retry_cycles: u64,
    },
    /// A submission's deadline already lies inside the pool's minimum
    /// service latency — no schedule could meet it, so the front-end
    /// rejects at admission instead of accepting a guaranteed miss.
    DeadlineUnmeetable {
        /// The requested absolute deadline (cycles).
        deadline: u64,
        /// The earliest cycle a reply could possibly be delivered.
        earliest: u64,
    },
    /// A shard's cycle engine failed to drain (a hang on that shard).
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// The underlying engine error.
        error: SimError,
    },
    /// The only shard compatible with a request's width is quarantined
    /// by the health tracker (circuit breaker open). The single-shard
    /// sibling of [`ServeError::NoHealthyShard`], mirroring how
    /// [`ServeError::WidthMismatch`] pairs with
    /// [`ServeError::NoCompatibleShard`].
    ShardQuarantined {
        /// The quarantined shard.
        shard: usize,
    },
    /// Several shards accept the request's width, but every one of them
    /// is quarantined — the pool has no healthy capacity for it. Raised
    /// at admission (brownout rejection) and from a flush when the last
    /// compatible shard dies with requests still in flight.
    NoHealthyShard {
        /// Width of the affected request(s).
        width: usize,
    },
    /// [`crate::Front::drain`] flushed the pending set and requests
    /// still read as pending: the front's accounting lost track of
    /// them, and no further flush could retire them. Surfaced by the
    /// drain watchdog instead of a hang or a silent drop.
    Stalled {
        /// Requests still pending when progress stopped.
        pending: usize,
        /// The front's virtual clock at detection.
        virtual_clock: u64,
    },
    /// An admitted request was shed by brownout load shedding: healthy
    /// capacity shrank until its deadline became unmeetable, and the
    /// front was configured to shed rather than hold a guaranteed miss.
    /// Always an explicit, typed outcome — never a silent timeout.
    Shed {
        /// The shed request's tenant.
        tenant: u32,
        /// The tenant-local submission sequence number.
        seq: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ZeroShards => write!(f, "shard pool requires at least one shard"),
            ServeError::ZeroQueueDepth => {
                write!(f, "front lane_block and drr_quantum must be positive")
            }
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "front lane_block exceeds the flush window of {capacity} lanes"
                )
            }
            ServeError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "datapoint width {got} does not match the accelerator's {expected} features"
                )
            }
            ServeError::NoCompatibleShard { got, widths } => {
                let widths: Vec<String> = widths.iter().map(|w| w.to_string()).collect();
                write!(
                    f,
                    "no shard accepts datapoint width {got} (pool serves widths: {})",
                    widths.join(", ")
                )
            }
            ServeError::ZeroWeight { shard } => {
                write!(f, "shard spec {shard} has dispatch weight zero")
            }
            ServeError::PartitionWidthMismatch { group, widths } => {
                let widths: Vec<String> = widths.iter().map(|w| w.to_string()).collect();
                write!(
                    f,
                    "partition group {group} mixes feature widths ({}): members must share one width",
                    widths.join(", ")
                )
            }
            ServeError::QuotaExceeded {
                tenant,
                retry_cycles,
            } => {
                write!(
                    f,
                    "tenant {tenant} quota exhausted: retry in {retry_cycles} cycles"
                )
            }
            ServeError::DeadlineUnmeetable { deadline, earliest } => {
                write!(
                    f,
                    "deadline {deadline} is unmeetable: earliest possible delivery is {earliest}"
                )
            }
            ServeError::Shard { shard, error } => {
                write!(f, "shard {shard} failed: {error}")
            }
            ServeError::ShardQuarantined { shard } => {
                write!(f, "shard {shard} is quarantined (circuit breaker open)")
            }
            ServeError::NoHealthyShard { width } => {
                write!(
                    f,
                    "every shard serving width {width} is quarantined: no healthy capacity"
                )
            }
            ServeError::Stalled {
                pending,
                virtual_clock,
            } => {
                write!(
                    f,
                    "drain stalled at virtual cycle {virtual_clock} with {pending} requests pending"
                )
            }
            ServeError::Shed { tenant, seq } => {
                write!(
                    f,
                    "request {seq} of tenant {tenant} shed under brownout (deadline unmeetable on surviving capacity)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Shard { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        assert!(ServeError::ZeroShards.to_string().contains("shard"));
        assert!(ServeError::QueueFull { capacity: 8 }
            .to_string()
            .contains("flush window of 8 lanes"));
        let e = ServeError::WidthMismatch {
            expected: 784,
            got: 10,
        };
        assert!(e.to_string().contains("784"));
        assert!(e.to_string().contains("10"));
        let e = ServeError::NoCompatibleShard {
            got: 12,
            widths: vec![8, 16],
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("8, 16"));
        assert!(ServeError::ZeroWeight { shard: 2 }
            .to_string()
            .contains("2"));
        let e = ServeError::PartitionWidthMismatch {
            group: 3,
            widths: vec![6, 8],
        };
        assert!(e.to_string().contains("group 3"));
        assert!(e.to_string().contains("6, 8"));
        let e = ServeError::QuotaExceeded {
            tenant: 7,
            retry_cycles: 640,
        };
        assert!(e.to_string().contains("tenant 7"));
        assert!(e.to_string().contains("640"));
        let e = ServeError::DeadlineUnmeetable {
            deadline: 100,
            earliest: 105,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("105"));
        let e = ServeError::ShardQuarantined { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.to_string().contains("quarantined"));
        let e = ServeError::NoHealthyShard { width: 8 };
        assert!(e.to_string().contains("width 8"));
        assert!(e.to_string().contains("healthy"));
        let e = ServeError::Stalled {
            pending: 5,
            virtual_clock: 900,
        };
        assert!(e.to_string().contains("5"));
        assert!(e.to_string().contains("900"));
        let e = ServeError::Shed { tenant: 4, seq: 9 };
        assert!(e.to_string().contains("tenant 4"));
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("shed"));
    }

    #[test]
    fn shard_error_exposes_source() {
        let e = ServeError::Shard {
            shard: 3,
            error: SimError::DrainBoundExceeded {
                max_cycles: 10,
                stalled: true,
                pending_beats: 2,
            },
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
