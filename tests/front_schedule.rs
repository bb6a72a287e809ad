//! Seeded random schedules through [`Front`], each replayed twice.
//!
//! Every schedule mixes tenants with token-bucket quotas, same-cycle
//! bursts, quiet gaps that fire idle ticks, tight deadlines that fire
//! deadline-pressure flushes (at admission and from re-check timers),
//! unmeetable deadlines, and a resilient pool whose shards take seeded
//! soft faults while one of them is killed mid-schedule. Health changes
//! move the pool's latency floor, modeled II and flush spread, which is
//! what the front's cached pressure tick has to follow: in a debug
//! build every pressure check asserts that the cached tick agrees with
//! a fresh drain estimate. The two replays of a schedule must agree on
//! every reply, batch boundary, shed and rejection, and each seed's
//! outcome is pinned to a recorded digest, so a change of batching
//! order between builds fails here too.
//!
//! The driver also checks the invariant batching rests on: after every
//! `submit` and `advance_to` fewer than `lane_block` requests are
//! pending, and a call that flushed a batch leaves none pending.

use matador_repro::logic::cube::{Cube, Lit};
use matador_repro::logic::dag::Sharing;
use matador_repro::serve::{
    BatchRecord, FaultPlan, FlushTrigger, Front, FrontOptions, Reply, ServeOptions, ShardPool,
    ShedNotice, TenantQuota,
};
use matador_repro::sim::{AccelShape, CompiledAccelerator, TurboProgram};
use matador_repro::tsetlin::bits::BitVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

mod common;

const SHARDS: usize = 4;
const TENANTS: u32 = 5;
const STEPS: usize = 400;

/// A 12-feature, 3-class design: three 4-bit packets per datapoint.
fn accel() -> CompiledAccelerator {
    let shape = AccelShape {
        bus_width: 4,
        features: 12,
        classes: 3,
        clauses_per_class: 4,
    };
    let window = |k: usize| -> Vec<Cube> {
        (0..12)
            .map(|c| match (c + k) % 4 {
                0 => Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
                1 => Cube::from_lits([Lit::pos(2)]),
                2 => Cube::from_lits([Lit::neg(3), Lit::pos(1), Lit::pos(0)]),
                _ => Cube::one(),
            })
            .collect()
    };
    CompiledAccelerator::from_window_cubes(
        shape,
        &[window(0), window(1), window(2)],
        Sharing::Enabled,
    )
}

/// Silences the stderr output of *injected* worker panics (their
/// payload says so) and leaves every other panic reported.
fn quiet_injected_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// FNV-1a digests of each seed's `Outcome` Debug text, seeds 0..8.
const DIGESTS: [u64; 8] = [
    0x8c5f_70ec_4273_c077,
    0x8246_8ce3_cad3_da0a,
    0x91f7_5e28_e0ce_5fb4,
    0x21c1_7f14_7640_3fb6,
    0x2680_a5ca_b03d_1be6,
    0x11f1_0dd9_ef2c_f22d,
    0x7d5a_cc36_4c0c_6b20,
    0x1e47_5fb4_6fc6_98b5,
];

/// Asserts the pending-set invariant after a `submit` or `advance_to`
/// that started with `batches_before` batch records.
fn check_pending(front: &Front<'_>, lane_block: usize, batches_before: usize) {
    assert!(
        front.pending() < lane_block,
        "{} pending with a lane block of {lane_block}",
        front.pending()
    );
    if front.batches().len() > batches_before {
        assert_eq!(front.pending(), 0, "a flush left requests pending");
    }
}

/// `advance_to`, then the pending-set invariant.
fn advance(front: &mut Front<'_>, cycle: u64, lane_block: usize) {
    let batches_before = front.batches().len();
    front.advance_to(cycle).expect("timer flushes drain");
    check_pending(front, lane_block, batches_before);
}

#[derive(Debug, PartialEq)]
struct Outcome {
    replies: Vec<Reply>,
    batches: Vec<BatchRecord>,
    sheds: Vec<ShedNotice>,
    rejections: Vec<String>,
    accepted: u64,
    quarantined: bool,
}

fn run(accel: &CompiledAccelerator, seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cost = TurboProgram::compile(accel).chunk_cost();
    let options = ServeOptions {
        // Even seeds consolidate one lane word and spread two, so the
        // drain estimate is not monotone in the pending count.
        chunk_threshold: Some(if seed.is_multiple_of(2) { cost / 2 } else { 0 }),
        capture_class_sums: true,
        threads: Some(1),
        ..ServeOptions::turbo(SHARDS)
    };
    let plan = FaultPlan::kill_shard(rng.gen_range(0..SHARDS), rng.gen_range(40..400))
        .merged(&FaultPlan::seeded(seed, SHARDS, 800, 2));
    let pool = ShardPool::with_fault_plan(accel, options, plan).expect("valid options");
    let lane_block = [128, 8, 64][seed as usize % 3];
    let mut front = Front::new(
        pool,
        FrontOptions {
            lane_block,
            idle_cycles: [400, 0, 150][seed as usize % 3],
            drr_quantum: rng.gen_range(1..4),
            quota: Some(TenantQuota {
                burst_requests: rng.gen_range(16..64),
                millitokens_per_cycle: rng.gen_range(50..400),
            }),
            shed_on_brownout: seed % 4 != 3,
            ..FrontOptions::new()
        },
    )
    .expect("valid options");
    let inputs: Vec<BitVec> = (0..32)
        .map(|i| BitVec::from_indices(12, &[i % 12, (i * 5) % 12, (i * 7 + 3) % 12]))
        .collect();

    let mut rejections = Vec::new();
    let mut submit = |front: &mut Front<'_>, rng: &mut SmallRng, deadline: u64, step: usize| {
        let input = &inputs[rng.gen_range(0..inputs.len())];
        let tenant = rng.gen_range(0..TENANTS);
        let batches_before = front.batches().len();
        if let Err(e) = front.submit(input, deadline, tenant) {
            rejections.push(format!("{step}:{tenant}:{e}"));
        }
        check_pending(front, lane_block, batches_before);
    };
    let mut t = 0u64;
    for step in 0..STEPS {
        if rng.gen_range(0..20) == 0 {
            // A crowd: a re-check armed while under one lane word is
            // pending finds no pressure once the set has grown past it
            // (the flush would spread), so the request waits for a later
            // check and may be shed.
            t += 1;
            advance(&mut front, t, lane_block);
            for _ in 0..rng.gen_range(40..64) {
                submit(&mut front, &mut rng, t + 8_000, step);
            }
            let guard = front.drain_estimate_cycles(front.pending() + 1) + rng.gen_range(1..40u64);
            submit(&mut front, &mut rng, t + guard, step);
            advance(&mut front, t + 1, lane_block);
            for _ in 0..40 {
                submit(&mut front, &mut rng, t + 8_000, step);
            }
            t += rng.gen_range(300..1_500u64);
            advance(&mut front, t, lane_block);
            continue;
        }
        let (gap, burst) = match rng.gen_range(0..10) {
            0 => (rng.gen_range(300..1_500u64), 1), // quiet: idle ticks, stale timers
            1 => (rng.gen_range(0..20), rng.gen_range(10..100)), // same-cycle burst
            _ => (rng.gen_range(0..40), 1),
        };
        t += gap;
        advance(&mut front, t, lane_block);
        for _ in 0..burst {
            // Slack from just inside the latency floor (unmeetable) to
            // far out; tight ones put the pending set under pressure.
            let floor = front.pool().latency_floor_cycles();
            let slack = match rng.gen_range(0..4) {
                0 => floor - 2 + rng.gen_range(0..60u64),
                _ => floor + rng.gen_range(0..3_000u64),
            };
            submit(&mut front, &mut rng, t + slack, step);
        }
    }
    // Shutdown with work still queued.
    front.drain().expect("drains");
    assert_eq!(front.pending(), 0, "drain left requests pending");
    let quarantined = !front.pool().health_log().is_empty();
    Outcome {
        replies: front.take_replies(),
        batches: front.batches().to_vec(),
        sheds: front.take_shed(),
        rejections,
        accepted: front.accepted(),
        quarantined,
    }
}

#[test]
fn random_schedules_replay_identically_and_keep_every_request() {
    quiet_injected_panics();
    let accel = accel();
    let mut triggers = [0usize; 4];
    let mut sheds = 0;
    let mut digests = [0; 8];
    for seed in 0..8 {
        let first = run(&accel, seed);
        assert_eq!(first, run(&accel, seed), "seed {seed}: replay diverged");
        digests[seed as usize] = common::fnv1a(format!("{first:?}").as_bytes());

        // Every admitted request is delivered or shed, in per-tenant
        // submission order.
        assert_eq!(
            (first.replies.len() + first.sheds.len()) as u64,
            first.accepted,
            "seed {seed}: lost requests"
        );
        for tenant in 0..TENANTS {
            let seqs: Vec<u64> = first
                .replies
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.seq)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: tenant {tenant} out of order"
            );
        }
        assert!(first.quarantined, "seed {seed}: no health transition");
        for b in &first.batches {
            triggers[b.trigger as usize] += 1;
        }
        sheds += first.sheds.len();
    }
    // The schedules reach every trigger and the shed path.
    for trigger in [
        FlushTrigger::LaneBlockFull,
        FlushTrigger::DeadlinePressure,
        FlushTrigger::IdleTick,
        FlushTrigger::Drain,
    ] {
        assert!(triggers[trigger as usize] > 0, "{trigger:?} never fired");
    }
    assert!(sheds > 0, "no request was shed");
    assert_eq!(
        digests, DIGESTS,
        "the batching order or a reply changed: {digests:#018x?}"
    );
}
