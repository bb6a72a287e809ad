//! The `Front` batches its per-request metrics and publishes them once
//! per flush and on drop. After a drain, the shared series must read
//! what per-request recording would have left: one admission per
//! accepted request, one slack and one latency sample per reply, and
//! empty tenant queues.
//!
//! One test function: the registry is process-global, and cargo runs
//! the tests of one binary in parallel.

use matador_obs::Registry;
use matador_serve::{FlushTrigger, Front, FrontOptions, ServeOptions, ShardPool, TenantQuota};
use tsetlin::bits::BitVec;

mod common;

const TENANTS: u32 = 3;

fn admitted() -> u64 {
    Registry::global()
        .snapshot()
        .counter("matador_front_admitted_total", "")
}

fn histogram_count(name: &str) -> u64 {
    Registry::global().histogram(name, "", "").count()
}

fn depth(tenant: u32) -> i64 {
    Registry::global()
        .gauge(
            "matador_front_tenant_queue_depth",
            &format!("tenant=\"{tenant}\""),
            "",
        )
        .value()
}

#[test]
fn published_totals_match_per_request_recording() {
    matador_obs::set_enabled(true);
    let accel = common::accel();
    let inputs: Vec<BitVec> = (0..16)
        .map(|i| BitVec::from_indices(12, &[i % 12, (i * 5) % 12]))
        .collect();
    let front = |lane_block| {
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(2)).expect("valid options");
        let options = FrontOptions {
            lane_block,
            idle_cycles: 100,
            quota: Some(TenantQuota {
                burst_requests: 20,
                millitokens_per_cycle: 1,
            }),
            ..FrontOptions::new()
        };
        Front::new(pool, options).expect("valid options")
    };

    // Fill, idle and pressure flushes, quota rejections, then a drain.
    let mut f = front(8);
    let admitted_before = admitted();
    let slack_before = histogram_count("matador_front_slack_at_flush_cycles");
    let latency_before = histogram_count("matador_front_delivery_latency_cycles");
    let floor = f.pool().latency_floor_cycles();
    let mut t = 0;
    for i in 0..150u64 {
        t += [0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 40, 250][i as usize % 12];
        f.advance_to(t).expect("advance");
        let slack = if i % 12 == 10 { floor + 5 } else { 5_000 };
        let _ = f.submit(
            &inputs[i as usize % inputs.len()],
            t + slack,
            (i % 3) as u32,
        );
    }
    f.drain().expect("drains");
    for trigger in [
        FlushTrigger::LaneBlockFull,
        FlushTrigger::DeadlinePressure,
        FlushTrigger::IdleTick,
    ] {
        assert!(
            f.batches().iter().any(|b| b.trigger == trigger),
            "{trigger:?} never fired"
        );
    }
    let replies = f.take_replies().len() as u64;
    assert!(f.rejected() > 0, "the trace hits the quota");
    assert_eq!(replies, f.accepted());
    // A `noop` build records nothing at all.
    let recorded = |n: u64| if matador_obs::enabled() { n } else { 0 };
    assert_eq!(admitted() - admitted_before, recorded(f.accepted()));
    assert_eq!(
        histogram_count("matador_front_slack_at_flush_cycles") - slack_before,
        recorded(replies)
    );
    assert_eq!(
        histogram_count("matador_front_delivery_latency_cycles") - latency_before,
        recorded(replies)
    );
    for tenant in 0..TENANTS {
        assert_eq!(depth(tenant), 0, "tenant {tenant} queue depth");
    }

    // Admissions no flush has published yet are published on drop.
    let mut g = front(64);
    for input in &inputs[..5] {
        g.submit(input, 1_000_000, 0).expect("admitted");
    }
    let before_drop = admitted();
    drop(g);
    assert_eq!(admitted() - before_drop, recorded(5));
    assert_eq!(depth(0), recorded(5) as i64);
}
