//! Deterministic request→shard assignment.
//!
//! Every policy is a pure function of the submission order and the
//! per-shard load counters — never of wall-clock time or thread
//! scheduling — so a batch dispatched over N shards produces bit-identical
//! predictions for every N. Load is measured in cycle-equivalent units:
//! the pool feeds in each shard's accumulated engine cycles and the plan
//! adds that shard's `P` beats (bus cycles) per assigned datapoint, so
//! `LeastQueued` levels total shard work across flushes, not just within
//! one.
//!
//! ## Heterogeneous pools
//!
//! Shards need not share a design. Each shard planning input
//! ([`ShardProfile`]) carries the feature width its design accepts, its
//! own beats-per-datapoint cost and a static dispatch weight; requests
//! carry their input width and are only ever assigned to shards whose
//! width matches (admission has already rejected requests no shard can
//! take). On a homogeneous pool every profile is identical, and every
//! policy degenerates to its single-design behavior bit for bit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How pending requests are spread over the shard pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through shards in index order, continuing across flushes.
    /// On a mixed-width pool the cursor skips shards that cannot take the
    /// request, so each width class sees its own round-robin rotation.
    RoundRobin,
    /// Assign each request to the compatible shard with the least
    /// accumulated load (engine cycles already run, plus beats planned so
    /// far this flush, divided by the shard's dispatch weight; ties break
    /// toward the lowest shard index).
    LeastQueued,
    /// Assign each request to the compatible shard with the smallest
    /// estimated drain time for the *current* flush: queued beats planned
    /// so far this flush × the shard's observed steady-state II (result-
    /// to-result cycles; the design's bandwidth-bound II for shards with
    /// no steady-state history), divided by the shard's dispatch weight.
    /// Ties break toward the lowest shard index.
    ///
    /// Unlike [`DispatchPolicy::LeastQueued`] it does not re-balance
    /// historical cycle counts, so a batch always drains as fast as the
    /// current pool allows — history is a sunk cost, not pending work. On
    /// a heterogeneous pool the per-shard beat costs and observed IIs
    /// make a fast narrow-II shard absorb more of the batch than a slow
    /// one.
    LatencyAware,
}

/// Per-shard load snapshot fed to [`Dispatcher::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardLoad {
    /// Cumulative engine cycles — the [`DispatchPolicy::LeastQueued`]
    /// balance signal.
    pub cycles: u64,
    /// Sum of observed result-to-result gaps (cycles) on this shard.
    pub ii_cycles: u64,
    /// Number of gaps behind `ii_cycles`.
    pub ii_samples: u64,
}

/// Everything the dispatcher knows about one shard of a (possibly
/// heterogeneous) pool when planning a flush.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardProfile {
    /// The shard's load snapshot.
    pub load: ShardLoad,
    /// Feature width (booleanized input bits) the shard's design accepts.
    /// A request is only assignable to shards whose width matches.
    pub width: usize,
    /// Bus beats one datapoint costs on this shard — its design's
    /// packets-per-datapoint. Differs across shards when bus widths do.
    pub beats_per_request: u64,
    /// Static dispatch weight (≥ 1): a shard with weight `w` counts its
    /// load as `1/w` of nominal, absorbing proportionally more requests.
    pub weight: u32,
}

impl DispatchPolicy {
    /// Stable label for this policy in metric label values (e.g.
    /// `matador_pool_dispatched_total{policy="least_queued"}`).
    pub fn as_label(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round_robin",
            DispatchPolicy::LeastQueued => "least_queued",
            DispatchPolicy::LatencyAware => "latency_aware",
        }
    }
}

/// Stateful dispatcher: carries the per-width round-robin cursors across
/// flushes.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    /// One round-robin cursor per feature width, counting assignments
    /// within that width's compatible-shard rotation. Kept per width so
    /// mixed-width traffic can never starve a shard: a single shared
    /// cursor would let one width class's picks skip another's shards
    /// indefinitely. Homogeneous pools use exactly one entry, reproducing
    /// the classic single-cursor behavior.
    rr_cursors: BTreeMap<usize, usize>,
}

impl Dispatcher {
    /// Creates a dispatcher with the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher {
            policy,
            rr_cursors: BTreeMap::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Plans shard assignments over a (possibly heterogeneous) pool: one
    /// profile per shard, one input width per request, in request order.
    /// A request is only assigned to shards whose `width` matches its own
    /// and whose `eligible` entry is `true`; an ineligible (quarantined)
    /// shard drops out of every rotation and score comparison, exactly as
    /// if the pool had been built without it. Round-robin cursors count
    /// positions within the *surviving* rotation, so the assignment stays
    /// a pure function of the (deterministic) health timeline.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or some request's width matches no
    /// eligible shard — the pool checks admission and healthy capacity
    /// (returning [`crate::ServeError::NoHealthyShard`]) before planning.
    pub fn plan(
        &mut self,
        profiles: &[ShardProfile],
        request_widths: &[usize],
        eligible: &[bool],
    ) -> Vec<usize> {
        assert!(!profiles.is_empty(), "dispatcher needs at least one shard");
        let shards = profiles.len();
        let compatible = |s: usize, width: usize| profiles[s].width == width && eligible[s];
        match self.policy {
            DispatchPolicy::RoundRobin => {
                // One compatible-shard rotation per distinct width,
                // built lazily once per plan (not per request).
                let mut rotations: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                request_widths
                    .iter()
                    .map(|&width| {
                        let compat = rotations.entry(width).or_insert_with(|| {
                            (0..shards).filter(|&s| compatible(s, width)).collect()
                        });
                        assert!(
                            !compat.is_empty(),
                            "admission guarantees a compatible shard"
                        );
                        let cursor = self.rr_cursors.entry(width).or_insert(0);
                        let s = compat[*cursor % compat.len()];
                        *cursor = (*cursor + 1) % compat.len();
                        s
                    })
                    .collect()
            }
            DispatchPolicy::LeastQueued => {
                let mut load: Vec<u64> = profiles.iter().map(|p| p.load.cycles).collect();
                request_widths
                    .iter()
                    .map(|&width| {
                        let s = (0..shards)
                            .filter(|&s| compatible(s, width))
                            .min_by(|&a, &b| {
                                // load[a]/w[a] vs load[b]/w[b], exactly,
                                // by cross-multiplication in u128.
                                let lhs = u128::from(load[a]) * u128::from(profiles[b].weight);
                                let rhs = u128::from(load[b]) * u128::from(profiles[a].weight);
                                lhs.cmp(&rhs).then(a.cmp(&b))
                            })
                            .expect("admission guarantees a compatible shard");
                        load[s] += profiles[s].beats_per_request;
                        s
                    })
                    .collect()
            }
            DispatchPolicy::LatencyAware => {
                // Estimated marginal cost per streamed beat on shard `s`:
                // its observed steady-state II spread over the beats of a
                // datapoint, defaulting to the bandwidth-bound 1 cycle /
                // beat for shards with no steady-state history, scaled
                // down by the shard's dispatch weight. IEEE arithmetic on
                // these fixed inputs is deterministic, so the plan is a
                // pure function of the profiles.
                let cost_per_beat: Vec<f64> = profiles
                    .iter()
                    .map(|p| {
                        let base = if p.load.ii_samples > 0 && p.beats_per_request > 0 {
                            p.load.ii_cycles as f64
                                / (p.load.ii_samples * p.beats_per_request) as f64
                        } else {
                            1.0
                        };
                        base / f64::from(p.weight)
                    })
                    .collect();
                let mut queued = vec![0u64; shards];
                request_widths
                    .iter()
                    .map(|&width| {
                        let s = (0..shards)
                            .filter(|&s| compatible(s, width))
                            .min_by(|&a, &b| {
                                let score_a = queued[a] as f64 * cost_per_beat[a];
                                let score_b = queued[b] as f64 * cost_per_beat[b];
                                score_a
                                    .partial_cmp(&score_b)
                                    .expect("scores are finite")
                                    .then(a.cmp(&b))
                            })
                            .expect("admission guarantees a compatible shard");
                        queued[s] += profiles[s].beats_per_request;
                        s
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(load: ShardLoad, width: usize, beats: u64) -> ShardProfile {
        ShardProfile {
            load,
            width,
            beats_per_request: beats,
            weight: 1,
        }
    }

    /// Plans over every shard of the pool (an all-true eligibility mask).
    fn plan_all(d: &mut Dispatcher, profiles: &[ShardProfile], widths: &[usize]) -> Vec<usize> {
        d.plan(profiles, widths, &vec![true; profiles.len()])
    }

    /// Plans `requests` equal-cost requests of `beats` beats each over a
    /// homogeneous pool of weight-1 shards with the given loads.
    fn plan_uniform(
        d: &mut Dispatcher,
        loads: &[ShardLoad],
        requests: usize,
        beats: u64,
    ) -> Vec<usize> {
        let profiles: Vec<ShardProfile> = loads.iter().map(|&l| profile(l, 0, beats)).collect();
        plan_all(d, &profiles, &vec![0; requests])
    }

    fn cycles(loads: &[u64]) -> Vec<ShardLoad> {
        loads
            .iter()
            .map(|&cycles| ShardLoad {
                cycles,
                ..ShardLoad::default()
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_and_carries_over() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        assert_eq!(
            plan_uniform(&mut d, &cycles(&[0, 0, 0]), 4, 2),
            vec![0, 1, 2, 0]
        );
        // The cursor continues where the previous flush stopped.
        assert_eq!(plan_uniform(&mut d, &cycles(&[0, 0, 0]), 2, 2), vec![1, 2]);
    }

    #[test]
    fn least_queued_balances_beats() {
        let mut d = Dispatcher::new(DispatchPolicy::LeastQueued);
        // Shard 1 starts loaded: first assignments avoid it.
        assert_eq!(
            plan_uniform(&mut d, &cycles(&[0, 10, 0]), 4, 5),
            vec![0, 2, 0, 2]
        );
    }

    #[test]
    fn least_queued_ties_break_to_lowest_index() {
        let mut d = Dispatcher::new(DispatchPolicy::LeastQueued);
        assert_eq!(plan_uniform(&mut d, &cycles(&[3, 3]), 3, 1), vec![0, 1, 0]);
    }

    #[test]
    fn single_shard_takes_everything() {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut d = Dispatcher::new(policy);
            assert_eq!(plan_uniform(&mut d, &cycles(&[7]), 3, 13), vec![0, 0, 0]);
        }
    }

    #[test]
    fn latency_aware_splits_uniform_shards_evenly() {
        // Uniform observed II (and the no-history fallback) → the plan
        // alternates like LeastQueued on a fresh pool, regardless of how
        // lopsided the *historical* cycle counts are.
        let loads = [
            ShardLoad {
                cycles: 500,
                ii_cycles: 12,
                ii_samples: 6,
            },
            ShardLoad {
                cycles: 0,
                ii_cycles: 2,
                ii_samples: 1,
            },
            ShardLoad::default(),
        ];
        let mut d = Dispatcher::new(DispatchPolicy::LatencyAware);
        assert_eq!(plan_uniform(&mut d, &loads, 6, 2), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn latency_aware_prefers_faster_shards() {
        // Shard 0 observed II 6 cycles/result, shard 1 II 2: shard 1
        // absorbs ~3× the requests of shard 0.
        let loads = [
            ShardLoad {
                cycles: 0,
                ii_cycles: 60,
                ii_samples: 10,
            },
            ShardLoad {
                cycles: 0,
                ii_cycles: 20,
                ii_samples: 10,
            },
        ];
        let mut d = Dispatcher::new(DispatchPolicy::LatencyAware);
        let plan = plan_uniform(&mut d, &loads, 8, 2);
        let to_fast = plan.iter().filter(|&&s| s == 1).count();
        assert_eq!(plan[0], 0, "zero-queue tie breaks to the lowest index");
        assert_eq!(to_fast, 6, "plan {plan:?}");
    }

    #[test]
    fn plans_are_deterministic() {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let a = [
                ShardLoad {
                    cycles: 0,
                    ii_cycles: 9,
                    ii_samples: 2,
                },
                ShardLoad {
                    cycles: 1,
                    ii_cycles: 0,
                    ii_samples: 0,
                },
                ShardLoad {
                    cycles: 2,
                    ii_cycles: 8,
                    ii_samples: 4,
                },
            ];
            let b = [
                ShardLoad {
                    cycles: 5,
                    ii_cycles: 20,
                    ii_samples: 5,
                },
                ShardLoad::default(),
            ];
            let plan_twice = || {
                let mut d = Dispatcher::new(policy);
                (
                    plan_uniform(&mut d, &a, 9, 4),
                    plan_uniform(&mut d, &b, 6, 4),
                )
            };
            assert_eq!(plan_twice(), plan_twice());
        }
    }

    /// A shared cursor would let width-16 picks skip past shard 1
    /// forever on alternating traffic; the per-width cursors guarantee
    /// every compatible shard of a width class gets its turn.
    #[test]
    fn round_robin_never_starves_a_shard_under_mixed_widths() {
        let profiles: Vec<ShardProfile> = [(8usize, 2u64), (8, 2), (16, 4)]
            .iter()
            .map(|&(width, beats)| profile(ShardLoad::default(), width, beats))
            .collect();
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let plan = plan_all(&mut d, &profiles, &[8, 16, 8, 16, 8, 16, 8, 16]);
        assert_eq!(plan, vec![0, 2, 1, 2, 0, 2, 1, 2]);
    }

    /// Two widths, interleaved requests: each width class must rotate
    /// round-robin over its own compatible shards only.
    #[test]
    fn round_robin_skips_incompatible_shards() {
        let profiles: Vec<ShardProfile> = [(8usize, 2u64), (16, 4), (8, 2)]
            .iter()
            .map(|&(width, beats)| profile(ShardLoad::default(), width, beats))
            .collect();
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let plan = plan_all(&mut d, &profiles, &[8, 16, 8, 8, 16, 8]);
        assert_eq!(plan, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_queued_respects_widths_and_per_shard_beats() {
        // Shard 0 (width 8) costs 4 beats/request, shard 1 (width 8)
        // costs 1: least-queued load leveling sends ~4 requests to shard
        // 1 per shard-0 request. Shard 2 takes every width-16 request.
        let mk = |width: usize, beats: u64| profile(ShardLoad::default(), width, beats);
        let profiles = [mk(8, 4), mk(8, 1), mk(16, 2)];
        let mut d = Dispatcher::new(DispatchPolicy::LeastQueued);
        let plan = plan_all(&mut d, &profiles, &[8, 8, 8, 8, 8, 16, 16]);
        assert_eq!(plan[5..], [2, 2]);
        let to_cheap = plan[..5].iter().filter(|&&s| s == 1).count();
        assert_eq!(to_cheap, 4, "plan {plan:?}");
    }

    #[test]
    fn weights_scale_load_in_both_stateful_policies() {
        // Equal loads and beat costs; shard 1 has weight 3 → it absorbs
        // ~3× the requests of shard 0 under both stateful policies.
        for policy in [DispatchPolicy::LeastQueued, DispatchPolicy::LatencyAware] {
            let mk = |weight: u32| ShardProfile {
                load: ShardLoad::default(),
                width: 8,
                beats_per_request: 2,
                weight,
            };
            let profiles = [mk(1), mk(3)];
            let mut d = Dispatcher::new(policy);
            let plan = plan_all(&mut d, &profiles, &[8; 8]);
            let to_heavy = plan.iter().filter(|&&s| s == 1).count();
            assert_eq!(to_heavy, 6, "{policy:?} plan {plan:?}");
        }
    }

    #[test]
    fn latency_aware_prefers_fewer_beats_per_request() {
        // Same feature width served by a wide bus (2 beats/datapoint) and
        // a narrow bus (8 beats/datapoint), no history: the wide shard
        // absorbs ~4× the requests.
        let mk = |beats: u64| profile(ShardLoad::default(), 8, beats);
        let profiles = [mk(8), mk(2)];
        let mut d = Dispatcher::new(DispatchPolicy::LatencyAware);
        let plan = plan_all(&mut d, &profiles, &[8; 10]);
        let to_wide = plan.iter().filter(|&&s| s == 1).count();
        assert_eq!(to_wide, 8, "plan {plan:?}");
    }

    #[test]
    fn plan_excludes_masked_shards_under_every_policy() {
        let profiles: Vec<ShardProfile> = (0..4)
            .map(|_| profile(ShardLoad::default(), 8, 2))
            .collect();
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut d = Dispatcher::new(policy);
            let plan = d.plan(&profiles, &[8; 8], &[true, false, true, true]);
            assert!(
                plan.iter().all(|&s| s != 1),
                "{policy:?} routed to a quarantined shard: {plan:?}"
            );
            assert!(plan.contains(&0) && plan.contains(&2) && plan.contains(&3));
        }
    }

    #[test]
    fn round_robin_rotates_over_the_surviving_shards_only() {
        let profiles: Vec<ShardProfile> = (0..3)
            .map(|_| profile(ShardLoad::default(), 8, 2))
            .collect();
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let plan = d.plan(&profiles, &[8; 6], &[true, false, true]);
        assert_eq!(plan, vec![0, 2, 0, 2, 0, 2]);
        // Shard 1 recovers: the rotation widens again, cursor intact.
        let plan = d.plan(&profiles, &[8; 3], &[true, true, true]);
        assert_eq!(plan.len(), 3);
        assert!(plan.contains(&1), "recovered shard rejoins: {plan:?}");
    }

    #[test]
    fn profile_plans_are_deterministic() {
        let profiles = [
            ShardProfile {
                load: ShardLoad {
                    cycles: 9,
                    ii_cycles: 40,
                    ii_samples: 5,
                },
                width: 8,
                beats_per_request: 2,
                weight: 2,
            },
            profile(ShardLoad::default(), 16, 4),
            profile(ShardLoad::default(), 8, 8),
        ];
        let widths = [8usize, 16, 8, 8, 16, 8, 8];
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let plan_twice = || {
                let mut d = Dispatcher::new(policy);
                (
                    plan_all(&mut d, &profiles, &widths),
                    plan_all(&mut d, &profiles, &widths),
                )
            };
            assert_eq!(plan_twice(), plan_twice());
        }
    }
}
