//! Aggregate pool characterization: per-shard stream statistics merged
//! into whole-pool cycles, latency percentiles and inferences/second.
//!
//! The merge rule mirrors the hardware: shards are independent engines
//! clocked together, so the pool finishes when its *slowest* shard
//! finishes — pool cycles are the maximum over shard cycles, not the sum —
//! while datapoints, transfers and stalls add across shards.
//!
//! ## Latency time base
//!
//! Every latency sample entering [`ThroughputReport::merge`] is a
//! **duration** in cycles, not a timestamp: first-packet acceptance →
//! `result_valid`, measured on the executing shard's own clock. Durations
//! are origin-free, which is what makes cross-pool aggregation sound — a
//! fresh pool's shard clocks restart at zero, and concatenating
//! *timestamps* across pools would silently mix incomparable origins.
//! The front-end's per-request samples are durations on a different span
//! (admission → delivery on the front's virtual clock, so they include
//! queueing, batching and reorder wait); both spans quote the same clock,
//! so their percentiles are directly comparable — the front-end's are an
//! upper bound on the pool's service-only numbers.

use serde::{Deserialize, Serialize};

/// Cumulative stream statistics of one engine shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index within the pool.
    pub shard: usize,
    /// Cycles this shard's engine has run.
    pub cycles: u64,
    /// Datapoints this shard classified.
    pub datapoints: u64,
    /// AXI beats this shard transferred.
    pub transfers: u64,
    /// Cycles this shard's stream spent stalled under backpressure.
    pub stall_cycles: u64,
}

/// Whole-pool latency/throughput characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Per-shard stream statistics, shard-index order.
    pub shards: Vec<ShardStats>,
    /// Pool wall-clock in cycles: the slowest shard's cycle count.
    pub pool_cycles: u64,
    /// Total datapoints classified across the pool.
    pub datapoints: u64,
    /// Median per-request latency in cycles (first packet → result).
    pub latency_p50_cycles: u64,
    /// 95th-percentile per-request latency in cycles.
    pub latency_p95_cycles: u64,
    /// 99th-percentile per-request latency in cycles.
    pub latency_p99_cycles: u64,
    /// 99.9th-percentile per-request latency in cycles — the tail the
    /// serving front-end's SLO gate rides on.
    pub latency_p999_cycles: u64,
}

impl ThroughputReport {
    /// Merges per-shard statistics and the pool-wide per-request latency
    /// samples into one report. `latencies` need not be sorted; each
    /// sample must be a cycle *duration* (see the module docs on the
    /// latency time base).
    pub fn merge(shards: Vec<ShardStats>, latencies: &[u64]) -> ThroughputReport {
        let pool_cycles = shards.iter().map(|s| s.cycles).max().unwrap_or(0);
        let datapoints = shards.iter().map(|s| s.datapoints).sum();
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        ThroughputReport {
            shards,
            pool_cycles,
            datapoints,
            latency_p50_cycles: percentile_per_mille(&sorted, 500),
            latency_p95_cycles: percentile_per_mille(&sorted, 950),
            latency_p99_cycles: percentile_per_mille(&sorted, 990),
            latency_p999_cycles: percentile_per_mille(&sorted, 999),
        }
    }

    /// Aggregate throughput in inferences/second at `clock_mhz`: total
    /// datapoints over the slowest shard's wall-clock.
    pub fn throughput_inf_s(&self, clock_mhz: f64) -> f64 {
        if self.pool_cycles == 0 {
            0.0
        } else {
            self.datapoints as f64 * clock_mhz * 1.0e6 / self.pool_cycles as f64
        }
    }

    /// Total stalled cycles across all shards.
    pub fn stall_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.stall_cycles).sum()
    }

    /// Total AXI transfers across all shards.
    pub fn transfers(&self) -> u64 {
        self.shards.iter().map(|s| s.transfers).sum()
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set (0 when
/// empty), expressed in per-mille so sub-percent tails (p99.9 = 999‰)
/// stay in integer arithmetic — deterministic, no interpolation.
/// Shared by [`ThroughputReport::merge`] and the load generator's
/// tail-latency artifact so both quote the same statistic.
pub fn percentile_per_mille(sorted: &[u64], per_mille: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * u64::from(per_mille))
        .div_ceil(1_000)
        .max(1);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(shard: usize, cycles: u64, datapoints: u64) -> ShardStats {
        ShardStats {
            shard,
            cycles,
            datapoints,
            transfers: datapoints * 2,
            stall_cycles: 0,
        }
    }

    #[test]
    fn pool_cycles_are_the_slowest_shard() {
        let r = ThroughputReport::merge(vec![stats(0, 100, 10), stats(1, 130, 13)], &[5, 6, 7]);
        assert_eq!(r.pool_cycles, 130);
        assert_eq!(r.datapoints, 23);
        assert_eq!(r.transfers(), 46);
    }

    #[test]
    fn throughput_scales_with_shards() {
        // Same 60 datapoints: one shard needs 120 cycles, two shards of 30
        // need 60 each → pool halves its wall-clock, doubling inf/s.
        let one = ThroughputReport::merge(vec![stats(0, 120, 60)], &[6]);
        let two = ThroughputReport::merge(vec![stats(0, 60, 30), stats(1, 60, 30)], &[6]);
        let clock = 50.0;
        assert!((two.throughput_inf_s(clock) / one.throughput_inf_s(clock) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        let r = ThroughputReport::merge(vec![stats(0, 1, 1)], &lat);
        assert_eq!(r.latency_p50_cycles, 50);
        assert_eq!(r.latency_p95_cycles, 95);
        assert_eq!(r.latency_p99_cycles, 99);
        // 100 samples cannot resolve a 1-in-1000 tail: nearest rank for
        // p99.9 is ceil(100 * 999 / 1000) = 100, the maximum.
        assert_eq!(r.latency_p999_cycles, 100);
        let lat: Vec<u64> = (1..=2_000).collect();
        let r = ThroughputReport::merge(vec![stats(0, 1, 1)], &lat);
        assert_eq!(r.latency_p999_cycles, 1_998);
        // Singleton and empty sample sets stay well-defined.
        let single = ThroughputReport::merge(vec![stats(0, 1, 1)], &[42]);
        assert_eq!(single.latency_p50_cycles, 42);
        assert_eq!(single.latency_p99_cycles, 42);
        assert_eq!(single.latency_p999_cycles, 42);
        let empty = ThroughputReport::merge(vec![stats(0, 0, 0)], &[]);
        assert_eq!(empty.latency_p50_cycles, 0);
        assert_eq!(empty.throughput_inf_s(50.0), 0.0);
    }
}
