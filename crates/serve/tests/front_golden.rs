//! Golden trace for [`Front`]: one seeded open-loop trace whose batch
//! boundaries, replies, sheds and rejections are pinned to recorded
//! values. `tests/front_determinism.rs` compares runs of one build with
//! each other; this file catches a change of behaviour between builds.
//!
//! The trace mixes every path the coalescer has: same-cycle bursts
//! larger than a lane block, idle ticks, deadline-pressure flushes,
//! quota and unmeetable-deadline rejections, and brownout shedding over
//! a pool whose shard 1 dies mid-trace. The shed comes from a deadline
//! re-check that finds no pressure because the pending set grew past one
//! lane word (so the flush would spread over the shards) after the
//! check was armed; the request then waits for the idle tick.

use matador_serve::{
    FaultPlan, FlushTrigger, Front, FrontOptions, ServeError, ServeOptions, ShardPool, TenantQuota,
};
use matador_sim::TurboProgram;
use tsetlin::bits::BitVec;

mod common;

/// SplitMix64: a tiny seeded generator, so the trace needs no crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What one replay produced, rendered for comparison.
struct Outcome {
    batches: String,
    replies: usize,
    reply_digest: u64,
    sheds: String,
    rejections: String,
}

fn trigger_code(trigger: FlushTrigger) -> char {
    match trigger {
        FlushTrigger::LaneBlockFull => 'F',
        FlushTrigger::DeadlinePressure => 'P',
        FlushTrigger::IdleTick => 'I',
        FlushTrigger::Drain => 'D',
    }
}

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

struct Driver<'a> {
    front: Front<'a>,
    inputs: Vec<BitVec>,
    rng: SplitMix,
    submitted: usize,
    rejections: Vec<String>,
}

impl Driver<'_> {
    fn submit(&mut self, deadline: u64, tenant: u32) {
        let input = &self.inputs[self.rng.below(self.inputs.len() as u64) as usize];
        if let Err(e) = self.front.submit(input, deadline, tenant) {
            let label = match e {
                ServeError::QuotaExceeded { retry_cycles, .. } => format!("quota/{retry_cycles}"),
                ServeError::DeadlineUnmeetable { earliest, .. } => format!("unmeetable/{earliest}"),
                other => panic!("unexpected rejection {other:?}"),
            };
            self.rejections
                .push(format!("{}:{tenant}:{label}", self.submitted));
        }
        self.submitted += 1;
    }

    fn advance(&mut self, to: u64) {
        self.front.advance_to(to).expect("timer flushes drain");
    }
}

fn replay() -> Outcome {
    let accel = common::accel();
    let cost = TurboProgram::compile(&accel).chunk_cost();
    let options = ServeOptions {
        // One lane word consolidates onto one shard, two spread over
        // the pool: the drain estimate drops as the pending set grows
        // past 64 requests.
        chunk_threshold: Some(cost / 2),
        capture_class_sums: true,
        threads: Some(1),
        ..ServeOptions::turbo(4)
    };
    let pool = ShardPool::with_fault_plan(&accel, options, FaultPlan::kill_shard(1, 150))
        .expect("valid options");
    let front = Front::new(
        pool,
        FrontOptions {
            lane_block: 128,
            idle_cycles: 400,
            quota: Some(TenantQuota {
                burst_requests: 96,
                millitokens_per_cycle: 400,
            }),
            shed_on_brownout: true,
            ..FrontOptions::new()
        },
    )
    .expect("valid options");
    let floor = front.pool().latency_floor_cycles();
    let inputs = (0..64)
        .map(|i| BitVec::from_indices(12, &[i % 12, (i * 5) % 12, (i * 7 + 3) % 12]))
        .collect();
    let mut d = Driver {
        front,
        inputs,
        rng: SplitMix(0x5EED_F00D),
        submitted: 0,
        rejections: Vec::new(),
    };

    // Steady arrivals with mixed slack.
    let mut t = 0;
    for _ in 0..200 {
        t += d.rng.below(7);
        d.advance(t);
        let slack = floor + 20 + d.rng.below(3_000);
        let tenant = d.rng.below(4) as u32;
        d.submit(t + slack, tenant);
    }
    // A same-cycle burst of 420 (over three lane blocks); tenant 9
    // overdraws its 96-request bucket.
    t += 50;
    d.advance(t);
    for i in 0..300 {
        let slack = 2_000 + d.rng.below(2_000);
        d.submit(t + slack, i % 4);
    }
    for _ in 0..120 {
        d.submit(t + 5_000, 9);
    }
    // Sparse arrivals: each flushes on its idle tick.
    for _ in 0..30 {
        t += 500 + d.rng.below(400);
        d.advance(t);
        let tenant = d.rng.below(4) as u32;
        d.submit(t + 5_000, tenant);
    }
    // Tight deadlines: pressure flushes at admission and from timers,
    // plus deadlines inside the latency floor.
    for _ in 0..40 {
        t += 20 + d.rng.below(40);
        d.advance(t);
        let slack = floor - 2 + d.rng.below(60);
        let tenant = d.rng.below(4) as u32;
        d.submit(t + slack, tenant);
    }
    // The shed: request 64 carries a deadline whose re-check is armed
    // while one lane word is pending; 36 more arrivals push the set past
    // it, the re-check then sees no pressure, and the idle tick finds
    // the deadline inside the floor.
    t += 10_000;
    d.advance(t);
    for i in 0..63 {
        d.submit(t + 8_000, i % 4);
    }
    d.submit(t + 260, 0);
    d.advance(t + 1);
    for i in 0..36 {
        d.submit(t + 8_000, i % 4);
    }
    // Shutdown with work still queued.
    t += 20_000;
    d.advance(t);
    for i in 0..5 {
        d.submit(t + 8_000, i);
    }
    d.front.drain().expect("drains");

    let mut front = d.front;
    let batches: Vec<String> = front
        .batches()
        .iter()
        .map(|b| format!("{}{}:{}", trigger_code(b.trigger), b.at, b.size))
        .collect();
    let replies = front.take_replies();
    let rendered: String = replies
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {} {}\n",
                r.tenant, r.seq, r.winner, r.shard, r.delivered_at
            )
        })
        .collect();
    let sheds: Vec<String> = front
        .take_shed()
        .iter()
        .map(|s| format!("{}:{}:{}:{}", s.tenant, s.seq, s.deadline, s.shed_at))
        .collect();
    Outcome {
        batches: batches.join(" "),
        replies: replies.len(),
        reply_digest: fnv1a(&rendered),
        sheds: sheds.join(" "),
        rejections: d.rejections.join(" "),
    }
}

// Recorded values: a mismatch is a change of behaviour, not noise.
const BATCHES: &str = concat!(
    "P68:16 P88:6 P142:17 P219:28 P313:31 P355:17 P402:14 P516:34 P627:37 ",
    "F677:128 F677:128 F677:128 I1077:12 I1892:1 I2621:1 I3439:1 I4277:1 ",
    "I5123:1 I5773:1 I6365:1 I7058:1 I7635:1 I8498:1 I9006:1 I9579:1 I10146:1 ",
    "I10765:1 I11380:1 I12033:1 I12852:1 I13437:1 I14309:1 I15106:1 I15911:1 ",
    "I16620:1 I17150:1 I18016:1 I18723:1 I19549:1 I20244:1 I20790:1 I21631:1 ",
    "P22188:2 P22202:1 P22238:1 P22288:1 P22351:2 P22409:2 P22484:1 P22549:2 ",
    "P22583:2 P22662:1 P22713:2 P22785:2 P22835:1 P22908:2 P22990:1 P23021:1 ",
    "P23061:1 P23098:1 P23154:1 P23189:1 P23232:1 P23259:1 P23338:1 P23371:1 ",
    "P23397:1 P23438:1 P23495:1 P23581:2 P23620:1 P23644:1 I34045:99 D53644:5",
);
const REPLIES: usize = 768;
const REPLY_DIGEST: u64 = 14631936169187148389;
const SHEDS: &str = "0:159:33904:34045";
const REJECTIONS: &str = concat!(
    "596:9:quota/3 597:9:quota/3 598:9:quota/3 599:9:quota/3 600:9:quota/3 ",
    "601:9:quota/3 602:9:quota/3 603:9:quota/3 604:9:quota/3 605:9:quota/3 ",
    "606:9:quota/3 607:9:quota/3 608:9:quota/3 609:9:quota/3 610:9:quota/3 ",
    "611:9:quota/3 612:9:quota/3 613:9:quota/3 614:9:quota/3 615:9:quota/3 ",
    "616:9:quota/3 617:9:quota/3 618:9:quota/3 619:9:quota/3 ",
    "669:3:unmeetable/22862 685:2:unmeetable/23512",
);

#[test]
fn golden_trace_matches_the_recorded_schedule() {
    let got = replay();
    assert_eq!(got.batches, BATCHES, "batch boundaries");
    assert_eq!(got.sheds, SHEDS, "shed notices");
    assert_eq!(got.rejections, REJECTIONS, "rejections");
    assert_eq!(got.replies, REPLIES, "reply count");
    assert_eq!(
        got.reply_digest, REPLY_DIGEST,
        "replies (tenant, seq, winner, shard, delivered_at)"
    );
}
