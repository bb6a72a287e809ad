//! The bit-sliced turbo inference backend: 64 datapoints per AND word,
//! blocked 4-word strips, and work-sized intra-batch parallelism.
//!
//! A [`TurboProgram`] is the one lowering of a design: every window's
//! folded AND tape (`crate::tape`) on one all-window slot space. Both
//! backends run it. The cycle engine evaluates one window of it on a
//! single lane per accepted beat, because it models the stream cycle by
//! cycle. Nothing about the *answer* needs that: the paper's
//! architecture is fully feed-forward, and its datapath is nothing but
//! AND gates fed by input literals and their inverters. The same tape of
//! `(a, b)` AND pairs is therefore evaluated here over `u64` words where
//! **bit `l` is datapoint `l`** — 64 independent classifications advance
//! per AND.
//!
//! The tapes run over one all-window slot space per strip, in which
//! every window owns an area that starts with a fixed input prefix: the
//! window's bit-sliced inputs, their complements, constant 1 and
//! constant 0, followed by the window's ANDs. The compiler IR's `Input`,
//! `NotInput` and constant instructions are folded into AND operands
//! pointing at that prefix, so they never execute, and the loop over a
//! window's tape has no per-instruction decode. On the KWS-6 design that
//! is 3760 ANDs per lane word out of 4519 IR instructions, and on MNIST
//! 6162 out of 7709 — exactly the hardware's AND2 gate count
//! ([`PassStats::tape_ands`](crate::compile::PassStats::tape_ands)).
//!
//! A strip is bit-sliced once, before any tape runs: one pass per
//! 64-datapoint column reads each request's words once for all windows
//! and transposes each window's 64×64 block into a per-strip input area,
//! from which each window copies its prefix.
//!
//! Class sums are computed the way the hardware's popcount adder tree
//! does them, 64 lanes per word. Clause `j` of a class votes `+` when `j`
//! is even and `−` when odd, so each class has two `(class, sign)`
//! groups of at most `⌈clauses_per_class / 2⌉` clauses:
//!
//! - **Clause-major gather.** A clause's *partials* are its output slots
//!   in the windows where it has a literal (the hardware spends no gate
//!   on the constant-1 rest; a bare literal or a constant points straight
//!   into the prefix). Per group, each clause's partials are ANDed into
//!   its word of a small fired buffer that stays in L1: 6049 partial
//!   ANDs per lane word on KWS-6 and 10148 on MNIST
//!   ([`PassStats::clause_ands_after`](crate::compile::PassStats::clause_ands_after)).
//!   Within a group, clauses run sorted by partial count, so the inner
//!   loop's trip count changes only between runs.
//! - **Carry-save count.** A Harley–Seal carry-save adder tree reduces
//!   the group's fired words to `k = bits(⌈clauses_per_class / 2⌉)` count
//!   bit-planes (8 on KWS-6, 7 on MNIST), plane `p` holding bit `p` of
//!   every lane's count.
//! - **One small transpose per block.** Each class's `+` and `−` planes
//!   share a 64-row block with `⌊64 / 2k⌋` whole classes, so one 64×64
//!   transpose per block and lane-word column turns them into per-lane
//!   `k`-bit fields: 2 transposes per column on KWS-6 and 3 on MNIST
//!   ([`PassStats::sum_transposes`](crate::compile::PassStats::sum_transposes)).
//!   Each sum is written once, as `(+field) − (−field)`.
//!
//! The gather-and-count kernel is compiled for AVX2 and the portable
//! baseline and picked by runtime CPU feature detection
//! ([`host_kernels`]), never `target-cpu`.
//!
//! **One-word strips** (`W = 1`, every 64-lane `Front` flush) have an
//! out-of-line AVX2 kernel of their own, dispatched with the AVX2 count
//! kernel. At one word per slot the clause-major gather is bound by
//! loads: each partial costs an index load and a value load. The kernel
//! instead reads a second copy of the partial list, stored per run
//! partial-major in blocks of four clauses (a short block padded with a
//! constant-1 slot), and ANDs four clauses' partials per
//! `vpgatherdq` into one 256-bit word. It stores only the run's real
//! clauses and counts them as above, and it runs the `W = 1` AND tape
//! without a bounds check per operand (`FoldedWindow::fold` checks once
//! per window that every operand precedes the slot it writes). A
//! gather-order slot layout would stream the partials instead, but it
//! needs copy ops for shared and bare-literal partials: KWS-6 has 6049
//! partials against 3760 tape ANDs. Wider strips keep the clause-major
//! loops: a prototype of the block layout read slower at `W = 4`.
//! Padding is not work: the work counts above count real partials only.
//!
//! Two layers of batch-level amortization sit on top of the original
//! word-parallel scheme:
//!
//! - **Blocked tape dispatch.** AND pairs are not fetched once per
//!   (pair × lane word): each tape visit evaluates a *strip* of up to
//!   [`BLOCK_WORDS`] lane words (256 datapoints), monomorphized per strip
//!   width so a full strip does 4× the work per pair fetched and a ragged
//!   final chunk narrows to exactly the words it needs — batch work is
//!   proportional to `⌈n / 64⌉` lane words at every batch size.
//! - **Chunk fan-out** ([`TurboProgram::class_sums_chunked`]). Large
//!   batches split their lane-word blocks across `matador-par` workers,
//!   governed by a cost model (IR tape instructions × lane words per
//!   worker, see [`TurboProgram::batch_cost`]): batches below
//!   [`configured_chunk_threshold`] per worker stay serial on the caller
//!   so small flushes never pay thread overhead. Lanes are independent,
//!   so the split is bit-invisible — outputs are identical at any worker
//!   count.
//!
//! All evaluation goes through a reusable scratch arena (`TurboScratch`):
//! a warmed [`TurboEngine`] classifies whole batches without touching the
//! allocator (`crates/sim/tests/no_alloc.rs`).
//!
//! Timing needs no simulation either. A drained engine streaming `n`
//! datapoints back-to-back is fully analytic (the same derivation as
//! `SimEngine::drain_bound`): datapoint `i`'s first packet is accepted at
//! `base + i·P`, its `result_valid` fires at `base + i·P + P + 2 (+1
//! pipelined)`, and the engine drains at `base + n·P + 3 (+1)`. The
//! [`TurboEngine`] therefore reproduces the cycle engine's winners, class
//! sums **and** `SimResult::cycle` stamps bit-for-bit — locked in by
//! `crates/sim/tests/turbo_equivalence.rs` and
//! `turbo_chunk_equivalence.rs` — while doing ~64× less logic work per
//! batch.

use crate::accel::{AccelShape, CompiledAccelerator};
use crate::compile::ir::WindowProgram;
use crate::engine::{SimError, SimResult};
use crate::tape::{prefix_slots, FoldedWindow};
use matador_obs::{Counter, Histogram, Registry};
use std::sync::{Arc, OnceLock};
use tsetlin::bits::BitVec;
use tsetlin::tm::argmax;

/// Turbo-datapath metric handles, resolved once per process into a
/// static so the hot path never touches the registry lock — and, after
/// the first batch, never allocates (the zero-alloc contract of
/// `crates/sim/tests/no_alloc.rs` covers runs with metrics enabled).
/// Pure sinks: nothing in the datapath reads them back.
struct TurboMetrics {
    /// `matador_turbo_batches_total` — batch evaluations started.
    batches: Arc<Counter>,
    /// `matador_turbo_datapoints_total` — datapoints classified.
    datapoints: Arc<Counter>,
    /// `matador_turbo_strips_total` — ≤[`BLOCK_LANES`]-datapoint strips
    /// evaluated (the blocked tape-dispatch unit).
    strips: Arc<Counter>,
    /// `matador_turbo_chunk_workers` — chunk fan-out plan per batch: the
    /// worker count the cost model picked (1 = stayed serial).
    chunk_workers: Arc<Histogram>,
}

fn turbo_metrics() -> &'static TurboMetrics {
    static METRICS: OnceLock<TurboMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        // Which kernels this process dispatches to — fixed per host, so
        // gauges set once at resolution.
        let kernels = host_kernels();
        registry
            .gauge(
                "matador_turbo_transpose_avx2",
                "",
                "1 when the AVX2 64x64 transpose kernel is selected, 0 for scalar.",
            )
            .set(i64::from(kernels.transpose == TransposeKernel::Avx2));
        registry
            .gauge(
                "matador_turbo_count_kernel",
                "",
                "Selected count kernel: 0 portable, 1 avx2.",
            )
            .set(kernels.count as i64);
        TurboMetrics {
            batches: registry.counter(
                "matador_turbo_batches_total",
                "",
                "Turbo batch evaluations started.",
            ),
            datapoints: registry.counter(
                "matador_turbo_datapoints_total",
                "",
                "Datapoints classified by the turbo datapath.",
            ),
            strips: registry.counter(
                "matador_turbo_strips_total",
                "",
                "Blocked evaluation strips dispatched (up to 256 datapoints each).",
            ),
            chunk_workers: registry.histogram(
                "matador_turbo_chunk_workers",
                "",
                "Chunk fan-out workers planned per batch (1 = serial).",
            ),
        }
    })
}

/// Number of bit-slice lanes per lane word (one per `u64` bit).
pub const LANES: usize = 64;

/// Lane words evaluated per instruction visit at full strip width.
pub const BLOCK_WORDS: usize = 4;

/// Datapoints per fully-populated evaluation block (one strip).
pub const BLOCK_LANES: usize = LANES * BLOCK_WORDS;

/// Environment variable overriding the chunk-parallelism threshold.
pub const CHUNK_THRESHOLD_ENV: &str = "MATADOR_CHUNK_THRESHOLD";

/// Default minimum [`TurboProgram::batch_cost`] (tape instructions ×
/// lane words) per worker before a batch fans out over `matador-par`.
///
/// At roughly one tape instruction per nanosecond this is ~1 ms of work
/// per worker — comfortably above scoped-thread-spawn overhead, so the
/// fan-out only triggers when it can pay for itself. Tunable per machine
/// with [`CHUNK_THRESHOLD_ENV`].
pub const DEFAULT_CHUNK_THRESHOLD: u64 = 1 << 20;

/// The effective chunk-parallelism threshold: the [`CHUNK_THRESHOLD_ENV`]
/// override when set to an unsigned integer (0 means "always fan out"),
/// otherwise [`DEFAULT_CHUNK_THRESHOLD`]. Re-read on every call, like
/// `matador_par::configured_threads`.
pub fn configured_chunk_threshold() -> u64 {
    match std::env::var(CHUNK_THRESHOLD_ENV) {
        Ok(v) => v.trim().parse::<u64>().unwrap_or(DEFAULT_CHUNK_THRESHOLD),
        Err(_) => DEFAULT_CHUNK_THRESHOLD,
    }
}

/// The 64×64 transpose kernel a process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeKernel {
    /// Portable six-stage butterfly over `u64` rows.
    Scalar,
    /// The same butterfly, four rows per AVX2 vector.
    Avx2,
}

impl TransposeKernel {
    /// Short stable name, as recorded in benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            TransposeKernel::Scalar => "scalar",
            TransposeKernel::Avx2 => "avx2",
        }
    }
}

/// The carry-save count kernel a process dispatches to. The discriminant
/// is the value of the `matador_turbo_count_kernel` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountKernel {
    /// Baseline x86-64 / non-x86 code generation.
    Portable = 0,
    /// Compiled with `avx2` (256-bit logic on a full 4-word strip); a
    /// one-word strip runs the four-clause gather kernel instead.
    Avx2 = 1,
}

impl CountKernel {
    /// Short stable name, as recorded in benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            CountKernel::Portable => "portable",
            CountKernel::Avx2 => "avx2",
        }
    }
}

/// The SIMD kernels the turbo datapath runs on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKernels {
    /// Input bit-slicing / count-plane pivot kernel.
    pub transpose: TransposeKernel,
    /// Class-sum carry-save count kernel.
    pub count: CountKernel,
}

/// The kernels selected for this process, resolved once from runtime CPU
/// feature detection. The choice never depends on `target-cpu`: one
/// binary runs the best kernel every host supports.
pub fn host_kernels() -> HostKernels {
    static KERNELS: OnceLock<HostKernels> = OnceLock::new();
    *KERNELS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2");
            HostKernels {
                transpose: if avx2 {
                    TransposeKernel::Avx2
                } else {
                    TransposeKernel::Scalar
                },
                count: if avx2 {
                    CountKernel::Avx2
                } else {
                    CountKernel::Portable
                },
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            HostKernels {
                transpose: TransposeKernel::Scalar,
                count: CountKernel::Portable,
            }
        }
    })
}

/// In-place transpose of a 64×64 bit matrix: `a[r]` bit `b` becomes
/// `a[b]` bit `r` (LSB-first row/column convention) — the pivot between
/// datapoint-major and lane-major bit layouts on both ends of the
/// datapath (input bit-slicing and count-plane extraction).
fn transpose_64x64(a: &mut [u64]) {
    debug_assert_eq!(a.len(), LANES);
    #[cfg(target_arch = "x86_64")]
    {
        if host_kernels().transpose == TransposeKernel::Avx2 {
            // SAFETY: `host_kernels` selects AVX2 only after confirming
            // it at runtime, and the slice holds exactly `LANES` words.
            unsafe { avx2::transpose_64x64_avx2(a) };
            return;
        }
    }
    transpose_64x64_scalar(a);
}

/// Portable transpose kernel: six butterfly stages over swap anchors.
fn transpose_64x64_scalar(a: &mut [u64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // `(k + j + 1) & !j` steps straight to the next index with bit
        // `j` clear, visiting only the 32 swap anchors per stage.
        let mut k = 0usize;
        while k < LANES {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// AVX2 transpose kernel: the same butterfly network, four rows per
/// vector. Stages `j >= 4` swap whole vectors; `j = 2` pairs 128-bit
/// halves via `vperm2i128`; `j = 1` pairs adjacent quadwords via
/// `vpunpck{l,h}qdq` (unpacking permutes rows within a vector, but the
/// butterfly is element-wise so the inverse unpack restores row order).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{count_planes_body, fill_prefix, prefix_slots, TurboProgram, LANES};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Everything a one-word strip (`W = 1`) does between bit-slicing and
    /// the transpose out: fills each window's prefix and runs its AND
    /// tape over `nodes` (one word per slot), then per `(class, sign)`
    /// group ANDs four clauses' partials per 64-bit gather from
    /// [`TurboProgram::quads`], counts the fired words and files the
    /// planes at their rows of `plane_rows`. Kept out of line, so it
    /// does not grow the wider strips' `block_class_sums` instances.
    ///
    /// The tape reads its operands without a bounds check:
    /// `FoldedWindow::fold` checked that every operand precedes the slot
    /// its pair writes, and this checks once per window that `nodes`
    /// holds the window's area. The gather reads [`TurboProgram::quads`],
    /// whose slots `TurboProgram::from_tapes` checked to lie below
    /// `slots`, which this checks `nodes` to hold.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    pub(super) unsafe fn one_word_strip(
        program: &TurboProgram,
        inputs: &[u64],
        nodes: &mut [u64],
        fired: &mut [u64],
        plane_rows: &mut [u64],
    ) {
        let bits = program.shape.bus_width;
        assert!(nodes.len() >= program.slots);
        let (slot_words, _) = nodes.as_chunks_mut::<1>();
        for (window, columns) in program.windows.iter().zip(inputs.chunks_exact(LANES)) {
            assert!(window.base + window.area(bits) <= slot_words.len());
            fill_prefix(bits, window.base, columns, slot_words);
            let p = slot_words.as_mut_ptr().cast::<u64>();
            let and_base = window.base + prefix_slots(bits);
            for (i, &(a, b)) in window.ands().iter().enumerate() {
                // SAFETY: `fold` checked `a, b < and_base + i`, and
                // `and_base + i` lies in the area asserted above.
                unsafe { *p.add(and_base + i) = *p.add(a as usize) & *p.add(b as usize) };
            }
        }

        let base = slot_words.as_ptr().cast::<i64>();
        let (fired, _) = fired.as_chunks_mut::<1>();
        // `k ≤ 32`: a class's `2k` rows fit one block.
        let mut planes = [[0u64; 1]; LANES / 2];
        let planes = &mut planes[..program.count_bits];
        let mut quads = program.quads.as_slice();
        for group in &program.groups {
            let mut clause = 0;
            for &(count, clauses) in &group.runs {
                let (count, clauses) = (count as usize, clauses as usize);
                let words = &mut fired[clause..clause + clauses];
                clause += clauses;
                if count == 0 {
                    // No literal in any window: the clause always fires.
                    words.fill([!0]);
                    continue;
                }
                let (run, rest) = quads.split_at(count * clauses.div_ceil(4));
                quads = rest;
                for (words, block) in words.chunks_mut(4).zip(run.chunks_exact(count)) {
                    let mut acc = _mm256_set1_epi64x(-1);
                    for quad in block {
                        let index = _mm_loadu_si128(quad.as_ptr().cast());
                        // SAFETY: `from_tapes` checked every slot in
                        // `quads` to be below `slots` ≤ `nodes.len()`
                        // (asserted above) and to fit `i32`.
                        let partials = unsafe { _mm256_i32gather_epi64::<8>(base, index) };
                        acc = _mm256_and_si256(acc, partials);
                    }
                    // A whole block stores straight into `fired` (the
                    // copy through `lanes` measured 5% slower at 64
                    // lanes on KWS-6).
                    if let Ok(words) = <&mut [[u64; 1]; 4]>::try_from(&mut *words) {
                        _mm256_storeu_si256(words.as_mut_ptr().cast(), acc);
                    } else {
                        let mut lanes = [[0u64; 1]; 4];
                        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
                        words.copy_from_slice(&lanes[..words.len()]);
                    }
                }
            }
            count_planes_body(&fired[..clause], planes);
            for (p, &[word]) in planes.iter().enumerate() {
                plane_rows[group.row + p] = word;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_64x64_avx2(a: &mut [u64]) {
        assert_eq!(a.len(), LANES);
        let p = a.as_mut_ptr();
        // Stages j = 32, 16, 8, 4: partners are >= 4 rows apart, so each
        // 4-row vector swaps against the vector `j` rows below it.
        macro_rules! stage {
            ($j:literal, $m:literal) => {
                let mv = _mm256_set1_epi64x($m as u64 as i64);
                let mut base = 0usize;
                while base < LANES {
                    let mut k = base;
                    while k < base + $j {
                        let px = p.add(k) as *mut __m256i;
                        let py = p.add(k + $j) as *mut __m256i;
                        let x = _mm256_loadu_si256(px);
                        let y = _mm256_loadu_si256(py);
                        let t =
                            _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<$j>(x), y), mv);
                        _mm256_storeu_si256(px, _mm256_xor_si256(x, _mm256_slli_epi64::<$j>(t)));
                        _mm256_storeu_si256(py, _mm256_xor_si256(y, t));
                        k += 4;
                    }
                    base += 2 * $j;
                }
            };
        }
        stage!(32, 0x0000_0000_FFFF_FFFFu64);
        stage!(16, 0x0000_FFFF_0000_FFFFu64);
        stage!(8, 0x00FF_00FF_00FF_00FFu64);
        stage!(4, 0x0F0F_0F0F_0F0F_0F0Fu64);
        // Stages j = 2 and j = 1: partners live inside an 8-row group.
        let m2 = _mm256_set1_epi64x(0x3333_3333_3333_3333u64 as i64);
        let m1 = _mm256_set1_epi64x(0x5555_5555_5555_5555u64 as i64);
        let mut g = 0usize;
        while g < LANES {
            let p0 = p.add(g) as *mut __m256i;
            let p1 = p.add(g + 4) as *mut __m256i;
            let v0 = _mm256_loadu_si256(p0); // rows g+0..g+3
            let v1 = _mm256_loadu_si256(p1); // rows g+4..g+7
                                             // j = 2: anchors [r0 r1 r4 r5] against partners [r2 r3 r6 r7].
            let x = _mm256_permute2x128_si256::<0x20>(v0, v1);
            let y = _mm256_permute2x128_si256::<0x31>(v0, v1);
            let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<2>(x), y), m2);
            let x = _mm256_xor_si256(x, _mm256_slli_epi64::<2>(t));
            let y = _mm256_xor_si256(y, t);
            let v0 = _mm256_permute2x128_si256::<0x20>(x, y);
            let v1 = _mm256_permute2x128_si256::<0x31>(x, y);
            // j = 1: even rows [r0 r4 r2 r6] against odd rows [r1 r5 r3 r7].
            let x = _mm256_unpacklo_epi64(v0, v1);
            let y = _mm256_unpackhi_epi64(v0, v1);
            let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<1>(x), y), m1);
            let x = _mm256_xor_si256(x, _mm256_slli_epi64::<1>(t));
            let y = _mm256_xor_si256(y, t);
            _mm256_storeu_si256(p0, _mm256_unpacklo_epi64(x, y));
            _mm256_storeu_si256(p1, _mm256_unpackhi_epi64(x, y));
            g += 8;
        }
    }
}

/// Carry-save adder over lane words: per bit, `a + b + c` as a sum bit
/// and a carry bit.
#[inline(always)]
fn csa<const W: usize>(a: [u64; W], b: [u64; W], c: [u64; W]) -> ([u64; W], [u64; W]) {
    let mut sum = [0; W];
    let mut carry = [0; W];
    for i in 0..W {
        let u = a[i] ^ b[i];
        sum[i] = u ^ c[i];
        carry[i] = (a[i] & b[i]) | (u & c[i]);
    }
    (sum, carry)
}

/// Adds the one-bit-per-lane `x` into the ripple counter `planes`
/// (`planes[p]` holds bit `p` of every lane's count) and returns the
/// carry out of the top plane.
#[inline(always)]
fn ripple<const W: usize>(planes: &mut [[u64; W]], mut x: [u64; W]) -> [u64; W] {
    for plane in planes {
        let carry: [u64; W] = std::array::from_fn(|i| plane[i] & x[i]);
        *plane = std::array::from_fn(|i| plane[i] ^ x[i]);
        x = carry;
    }
    x
}

/// Per-lane counts of set bits over `fired`, as bit-planes: bit `l` of
/// `planes[p][wd]` is bit `p` of how many of `fired[..][wd]` have bit `l`
/// set. `planes` must hold at least `bits(fired.len())` planes.
///
/// A Harley–Seal carry-save tree takes 16 words at a time into the
/// one-bit accumulators `ones`/`twos`/`fours`/`eights` and ripples each
/// block's sixteens carry into the planes above them; the last
/// `fired.len() % 16` words ripple in one at a time.
#[inline(always)]
fn count_planes_body<const W: usize>(fired: &[[u64; W]], planes: &mut [[u64; W]]) {
    planes.fill([0; W]);
    let (low, high) = planes.split_at_mut(planes.len().min(4));
    let (mut ones, mut twos, mut fours, mut eights) = ([0; W], [0; W], [0; W], [0; W]);
    let (blocks, tail) = fired.as_chunks::<16>();
    for d in blocks {
        let (o, twos_a) = csa(ones, d[0], d[1]);
        let (o, twos_b) = csa(o, d[2], d[3]);
        let (t, fours_a) = csa(twos, twos_a, twos_b);
        let (o, twos_a) = csa(o, d[4], d[5]);
        let (o, twos_b) = csa(o, d[6], d[7]);
        let (t, fours_b) = csa(t, twos_a, twos_b);
        let (f, eights_a) = csa(fours, fours_a, fours_b);
        let (o, twos_a) = csa(o, d[8], d[9]);
        let (o, twos_b) = csa(o, d[10], d[11]);
        let (t, fours_a) = csa(t, twos_a, twos_b);
        let (o, twos_a) = csa(o, d[12], d[13]);
        let (o, twos_b) = csa(o, d[14], d[15]);
        let (t, fours_b) = csa(t, twos_a, twos_b);
        let (f, eights_b) = csa(f, fours_a, fours_b);
        let (e, sixteens) = csa(eights, eights_a, eights_b);
        (ones, twos, fours, eights) = (o, t, f, e);
        // No carry leaves the top plane: `planes` fits the whole count.
        ripple(high, sixteens);
    }
    // The accumulators are one bit each, so together with the rippled
    // planes above them they are the count in binary. They hold at most
    // 15 and the tail adds at most 15, so the tail carries out of
    // `eights` at most once per lane: OR-ing the carries sums them.
    let mut bottom = [ones, twos, fours, eights];
    let mut sixteens = [0; W];
    for &x in tail {
        let carry = ripple(&mut bottom, x);
        sixteens = std::array::from_fn(|i| sixteens[i] | carry[i]);
    }
    ripple(high, sixteens);
    for (plane, word) in low.iter_mut().zip(bottom) {
        *plane = word;
    }
}

/// One `(class, sign)` group of the class-sum stage: gathers each
/// clause's partials from the slot space `nodes` into its fired word
/// (see [`SumGroup::runs`]), then counts the fired words into `planes`
/// with [`count_planes_body`]. Returns how many of `partials` the group
/// read. One body, compiled once per [`CountKernel`], so the gather's
/// loads and ANDs widen with the counter's.
#[inline(always)]
fn count_group_body<const W: usize>(
    runs: &[(u32, u32)],
    partials: &[u32],
    nodes: &[[u64; W]],
    fired: &mut [[u64; W]],
    planes: &mut [[u64; W]],
) -> usize {
    let (mut clause, mut read) = (0, 0);
    for &(count, clauses) in runs {
        let (count, clauses) = (count as usize, clauses as usize);
        let run = &partials[read..read + count * clauses];
        read += run.len();
        let words = &mut fired[clause..clause + clauses];
        clause += clauses;
        if count == 0 {
            // No literal in any window: the clause always fires.
            words.fill([!0; W]);
            continue;
        }
        for (word, slots) in words.iter_mut().zip(run.chunks_exact(count)) {
            let mut acc = [!0u64; W];
            for &s in slots {
                let partial = nodes[s as usize];
                acc = std::array::from_fn(|i| acc[i] & partial[i]);
            }
            *word = acc;
        }
    }
    count_planes_body(&fired[..clause], planes);
    read
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_group_avx2<const W: usize>(
    runs: &[(u32, u32)],
    partials: &[u32],
    nodes: &[[u64; W]],
    fired: &mut [[u64; W]],
    planes: &mut [[u64; W]],
) -> usize {
    count_group_body(runs, partials, nodes, fired, planes)
}

/// Dispatches [`count_group_body`] to `kernel`'s compilation.
///
/// # Safety
///
/// The host must support `kernel`'s CPU features — guaranteed for
/// [`host_kernels`]`().count` and for [`CountKernel::Portable`].
unsafe fn count_group<const W: usize>(
    kernel: CountKernel,
    runs: &[(u32, u32)],
    partials: &[u32],
    nodes: &[[u64; W]],
    fired: &mut [[u64; W]],
    planes: &mut [[u64; W]],
) -> usize {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees the host supports the kernel.
        CountKernel::Avx2 => unsafe { count_group_avx2(runs, partials, nodes, fired, planes) },
        _ => count_group_body(runs, partials, nodes, fired, planes),
    }
}

/// Fills the input prefix of the window area at `base` from the window's
/// bit-sliced `columns` (see [`TurboScratch::inputs`]): its bits, their
/// complements, constant 1 and constant 0.
#[inline(always)]
fn fill_prefix<const W: usize>(bits: usize, base: usize, columns: &[u64], nodes: &mut [[u64; W]]) {
    for b in 0..bits {
        let word: [u64; W] = std::array::from_fn(|wi| columns[wi * LANES + b]);
        nodes[base + b] = word;
        nodes[base + bits + b] = word.map(|x| !x);
    }
    nodes[base + 2 * bits] = [!0; W];
    nodes[base + 2 * bits + 1] = [0; W];
}

/// Reusable lane-word scratch arena for a [`TurboProgram`]; every buffer
/// warms to its final (full-strip) size on the first block and is reused
/// for the life of the owner — evaluation itself never allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct TurboScratch {
    /// The strip's bit-sliced inputs, one 64×64 block per window and
    /// lane-word column of a `W`-word strip: after the transpose, word
    /// `b` of block `k*W + wi` is window `k`'s bit `b` for column `wi`'s
    /// 64 datapoints.
    inputs: Vec<u64>,
    /// The all-window slot space, `W` lane words per slot: each window's
    /// input prefix and AND area, window after window.
    nodes: Vec<u64>,
    /// One `(class, sign)` group's fired-clause words, `W` per clause.
    fired: Vec<u64>,
    /// Count planes at their transpose rows, column-major: block `t` of
    /// column `wi` is the 64 words at `(wi * blocks + t) * LANES`.
    planes: Vec<u64>,
}

/// One `(class, sign)` group of the class-sum stage: the clauses of a
/// class whose votes share a sign, counted into one set of planes.
#[derive(Debug, Clone)]
struct SumGroup {
    /// `(partials per clause, clauses)` runs in ascending partial count;
    /// their partial slots sit in [`TurboProgram::partials`] in this
    /// order. Counting is order-free, and a run's fixed inner trip count
    /// keeps the gather loop predictable.
    runs: Vec<(u32, u32)>,
    /// Row of the group's plane 0 within its column's transpose blocks
    /// (`block * LANES + row`); plane `p` goes `p` rows further.
    row: usize,
}

/// A compiled accelerator flattened for bit-sliced batch evaluation.
///
/// Shareable and immutable: compile once per design, evaluate any number
/// of batches. [`TurboEngine`] adds the analytic clock on top, and
/// [`SimEngine`](crate::SimEngine) runs the same program one window and
/// one lane at a time under its cycle-by-cycle model; engines built from
/// one `Arc` share a single copy.
///
/// Every window owns an area of one all-window slot space of `W` lane
/// words per slot. For a `w`-bit bus, window `k`'s area starts at slot
/// `base_k` (the previous window's area end, 0 for the first):
///
/// | slots | content |
/// |---|---|
/// | `base_k + b` for `b < w` | window input bit `b` |
/// | `base_k + w + b` | its complement |
/// | `base_k + 2w` | constant 1 |
/// | `base_k + 2w + 1` | constant 0 |
/// | `base_k + 2w + 2 + i` | the window's `i`-th AND |
///
/// On quick KWS-6 that is 6 × 130 prefix slots plus 3760 ANDs, 4540
/// slots in all. The class-sum stage reads each clause's partials (its
/// output slot in every window where it has a literal) from this space.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::dag::Sharing;
/// use matador_sim::{AccelShape, CompiledAccelerator};
/// use tsetlin::bits::BitVec;
///
/// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
/// let cubes = vec![vec![
///     Cube::from_lits([Lit::pos(0)]),
///     Cube::one(),
///     Cube::from_lits([Lit::pos(1)]),
///     Cube::one(),
/// ]];
/// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
/// let batch = vec![BitVec::from_indices(4, &[0]); 100];
/// assert_eq!(accel.batch_classify(&batch), vec![0; 100]);
/// ```
#[derive(Debug, Clone)]
pub struct TurboProgram {
    shape: AccelShape,
    /// Per window: its area's base slot and folded AND tape.
    windows: Vec<FoldedWindow>,
    /// Per `(class, sign)` group, class-major with `+` first.
    groups: Vec<SumGroup>,
    /// Every clause's partial slots, flat in group → run → clause order.
    /// Constant-1 outputs (the clause has no literal in that window) are
    /// left out — ANDing them is a no-op.
    partials: Vec<u32>,
    /// [`TurboProgram::partials`] again for the one-word-strip kernel:
    /// each run's clauses in blocks of four, one entry per partial
    /// position holding that partial's slot for each of the four
    /// clauses. A short block's missing clauses read constant 1.
    quads: Vec<[u32; 4]>,
    /// Clauses in the largest group: `⌈clauses_per_class / 2⌉`.
    group_len: usize,
    /// Count planes per group, `k = bits(group_len)` (at least 1): the
    /// bit width of a count field.
    count_bits: usize,
    /// Classes per 64-row transpose block, `⌊64 / 2k⌋`: class `c`'s `+`
    /// planes are rows `2k·(c mod cpb)..` and its `−` planes the next `k`.
    classes_per_block: usize,
    /// 64×64 transposes per lane-word column in the class-sum stage.
    sum_blocks: usize,
    /// Slots in the all-window slot space.
    slots: usize,
    /// Total IR tape instructions across windows — the cost-model unit
    /// for one lane word of evaluation.
    tape_len: usize,
}

impl TurboProgram {
    /// Compiles `accel` through the default
    /// [`CompilePipeline`](crate::compile::CompilePipeline) (lower →
    /// CSE → fold, no partitioning) — the convenience entry point.
    /// Callers needing pass toggles, per-pass stats or the design
    /// partitioner use the pipeline directly.
    pub fn compile(accel: &CompiledAccelerator) -> Self {
        crate::compile::CompilePipeline::default()
            .compile(accel)
            .program
    }

    /// Packages already-lowered (and possibly optimized) window tapes
    /// into an executable program: folds each tape onto its window's
    /// area of the slot space (see [`FoldedWindow::fold`], which also
    /// keeps the window's single-lane constant-1 mask and gather for the
    /// cycle engine), regroups the clause partials clause-major per
    /// `(class, sign)` group and lays out the count planes and the
    /// cost-model bookkeeping. The pipeline's exit point, so every pass
    /// combination and every partition part runs folded.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than one 64-lane transpose block.
    pub(crate) fn from_tapes(shape: AccelShape, tapes: Vec<WindowProgram>) -> Self {
        let bits = shape.bus_width;
        assert!(
            bits <= LANES,
            "a {bits}-bit bus exceeds one {LANES}-bit packet"
        );
        let mut windows = Vec::with_capacity(tapes.len());
        // Per window: its constant-1 slot and every clause's output slot.
        let mut outputs = Vec::with_capacity(tapes.len());
        let mut slots = 0;
        for tape in &tapes {
            let (window, clause_slots) = FoldedWindow::fold(tape, bits, slots);
            let one = u32::try_from(slots + 2 * bits).expect("slot space fits u32");
            outputs.push((one, clause_slots));
            slots += window.area(bits);
            windows.push(window);
        }
        // A clause's partials: its output slot in every window where it
        // is not constant 1, in window order.
        let clause_partials = |clause: usize| {
            outputs
                .iter()
                .filter_map(move |(one, slots)| (slots[clause] != *one).then_some(slots[clause]))
        };

        let cpc = shape.clauses_per_class;
        let group_len = cpc.div_ceil(2);
        let count_bits = (usize::BITS - group_len.leading_zeros()).max(1) as usize;
        let classes_per_block = LANES / (2 * count_bits);
        assert!(
            classes_per_block > 0,
            "{cpc} clauses per class overflow a count"
        );
        let mut groups = Vec::with_capacity(2 * shape.classes);
        let mut partials = Vec::new();
        let mut quads = Vec::new();
        for class in 0..shape.classes {
            let row =
                (class / classes_per_block) * LANES + (class % classes_per_block) * 2 * count_bits;
            for sign in 0..2 {
                let mut clauses: Vec<(usize, u32)> = (class * cpc + sign..(class + 1) * cpc)
                    .step_by(2)
                    .map(|clause| {
                        let count = clause_partials(clause).count();
                        (clause, u32::try_from(count).expect("partials fit u32"))
                    })
                    .collect();
                clauses.sort_by_key(|&(_, count)| count);
                let mut runs: Vec<(u32, u32)> = Vec::new();
                let first = partials.len();
                for (clause, count) in clauses {
                    match runs.last_mut() {
                        Some(run) if run.0 == count => run.1 += 1,
                        _ => runs.push((count, 1)),
                    }
                    partials.extend(clause_partials(clause));
                }
                // The same runs, partial-major in blocks of four clauses;
                // a short block reads window 0's constant-1 slot.
                let mut run = &partials[first..];
                for &(count, clauses) in &runs {
                    let count = count as usize;
                    let (slots, rest) = run.split_at(count * clauses as usize);
                    run = rest;
                    if count == 0 {
                        continue;
                    }
                    for block in slots.chunks(4 * count) {
                        quads.extend((0..count).map(|p| {
                            std::array::from_fn(|j| {
                                block.get(j * count + p).map_or(outputs[0].0, |&s| s)
                            })
                        }));
                    }
                }
                groups.push(SumGroup {
                    runs,
                    row: row + sign * count_bits,
                });
            }
        }
        // The one-word-strip kernel gathers through `i32` indices without
        // a bounds check.
        assert!(
            i32::try_from(slots).is_ok() && quads.iter().flatten().all(|&s| (s as usize) < slots),
            "gathered slots lie in a slot space of at most i32::MAX slots"
        );
        TurboProgram {
            shape,
            windows,
            groups,
            partials,
            quads,
            group_len,
            count_bits,
            classes_per_block,
            sum_blocks: shape.classes.div_ceil(classes_per_block),
            slots,
            tape_len: tapes.iter().map(|w| w.ops.len()).sum(),
        }
    }

    /// The architectural shape the program was compiled from.
    pub fn shape(&self) -> &AccelShape {
        &self.shape
    }

    /// Every window's area of the slot space, in window order.
    #[cfg(test)]
    pub(crate) fn windows(&self) -> &[FoldedWindow] {
        &self.windows
    }

    /// Fresh value scratch for [`TurboProgram::eval_lane`]: one `0`/`1`
    /// per slot of the all-window slot space.
    pub(crate) fn lane_scratch(&self) -> Vec<u64> {
        vec![0; self.slots]
    }

    /// Evaluates window `k` on a single lane over its area of `values`
    /// (see [`FoldedWindow::eval_lane`]): bit `b` of `packet` is window
    /// input `b`, and bit `c % 64` of `out[c / 64]` becomes clause `c`'s
    /// partial output. The cycle engine's HCB logic for one beat.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range, `values` is shorter than
    /// [`TurboProgram::lane_scratch`] or `out` is not
    /// `⌈total_clauses / 64⌉` words.
    pub(crate) fn eval_lane(&self, k: usize, packet: u64, values: &mut [u64], out: &mut [u64]) {
        self.windows[k].eval_lane(self.shape.bus_width, packet, values, out);
    }

    /// Clause-AND word-ops per 64-datapoint lane word: the window ×
    /// clause partials that are not the constant-1 slot, each gathered
    /// once into its clause's fired word.
    pub(crate) fn clause_ands(&self) -> usize {
        self.partials.len()
    }

    /// Tape AND word-ops per 64-datapoint lane word after input folding:
    /// the only instructions the evaluator executes.
    pub(crate) fn tape_ands(&self) -> usize {
        self.windows.iter().map(|w| w.ands().len()).sum()
    }

    /// 64×64 transposes per lane-word column in the class-sum stage:
    /// `⌈classes / ⌊64 / 2k⌋⌉` for `k` count planes per sign.
    pub(crate) fn sum_transposes(&self) -> usize {
        self.sum_blocks
    }

    /// IR tape instructions per 64-datapoint lane word — the per-unit
    /// cost in the chunk-parallelism model and in `ShardPool` flush
    /// planning. It counts the instructions before input folding (the
    /// evaluator runs only [`PassStats::tape_ands`] of them), so every
    /// fan-out and consolidation decision stays what it was.
    ///
    /// [`PassStats::tape_ands`]: crate::compile::PassStats::tape_ands
    pub fn chunk_cost(&self) -> u64 {
        self.tape_len as u64
    }

    /// Cost-model estimate for an `n`-datapoint batch: tape instructions
    /// × lane words. A batch fans out over `t` workers only when this is
    /// at least `t ×` the chunk threshold, so every worker gets a
    /// thread-spawn-amortizing amount of work.
    pub fn batch_cost(&self, n: usize) -> u64 {
        self.chunk_cost().saturating_mul(n.div_ceil(LANES) as u64)
    }

    /// Worker count the cost model picks for an `n`-datapoint batch under
    /// a `threads` budget: at most one worker per evaluation block, and
    /// at most [`TurboProgram::batch_cost`]` / threshold` so each worker
    /// clears the serial-spawn break-even. `1` means "stay on the
    /// caller".
    pub fn plan_workers(&self, n: usize, threads: usize, threshold: u64) -> usize {
        let blocks = n.div_ceil(BLOCK_LANES);
        if threads <= 1 || blocks <= 1 {
            return 1;
        }
        let by_cost = self.batch_cost(n) / threshold.max(1);
        usize::try_from(by_cost)
            .unwrap_or(usize::MAX)
            .min(threads)
            .min(blocks)
            .max(1)
    }

    /// Class sums for a whole batch, in input order — bit-identical to
    /// `reference_class_sums` per datapoint. Lane padding is invisible:
    /// a final ragged chunk evaluates only the lane words it needs and
    /// treats unused lanes as all-zero datapoints that are never read
    /// back. Fans out over `matador_par::configured_threads` workers when
    /// the batch clears [`configured_chunk_threshold`] per worker.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from the shape's `features`.
    pub fn class_sums(&self, inputs: &[BitVec]) -> Vec<Vec<i32>> {
        self.class_sums_chunked(inputs, matador_par::configured_threads())
    }

    /// [`TurboProgram::class_sums`] with an explicit worker budget
    /// (`1` runs serially on the caller); the chunk threshold still
    /// resolves via [`configured_chunk_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from the shape's `features`.
    pub fn class_sums_chunked(&self, inputs: &[BitVec], threads: usize) -> Vec<Vec<i32>> {
        self.class_sums_chunked_with(inputs, threads, configured_chunk_threshold())
    }

    /// [`TurboProgram::class_sums_chunked`] with an explicit cost
    /// threshold — the fully-parameterized entry point (property tests
    /// pin both knobs; `0` forces maximal fan-out, `u64::MAX` forces the
    /// serial path).
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from the shape's `features`.
    pub fn class_sums_chunked_with(
        &self,
        inputs: &[BitVec],
        threads: usize,
        threshold: u64,
    ) -> Vec<Vec<i32>> {
        let mut scratches = Vec::new();
        let mut flat = Vec::new();
        self.class_sums_flat_into(inputs, threads, threshold, &mut scratches, &mut flat)
            .unwrap_or_else(|e| panic!("{e}"));
        flat.chunks(self.shape.classes.max(1))
            .map(<[i32]>::to_vec)
            .collect()
    }

    /// Winners for a whole batch (argmax over [`TurboProgram::class_sums`]),
    /// without materializing per-datapoint sum vectors.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from the shape's `features`.
    pub fn classify(&self, inputs: &[BitVec]) -> Vec<usize> {
        let mut scratches = Vec::new();
        let mut flat = Vec::new();
        self.class_sums_flat_into(
            inputs,
            matador_par::configured_threads(),
            configured_chunk_threshold(),
            &mut scratches,
            &mut flat,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        flat.chunks(self.shape.classes.max(1)).map(argmax).collect()
    }

    /// The allocation-free core: class sums for the whole batch, flat
    /// (`out[i*classes..][..classes]` is datapoint `i`), into
    /// caller-owned buffers. `scratches` grows to one arena per worker on
    /// first use and is reused thereafter; warmed callers (the
    /// [`TurboEngine`] serial path) touch the allocator zero times.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidth`] for the first input whose width differs
    /// from the shape's `features` — checked once for the whole batch,
    /// before anything (buffers, metrics) is touched.
    pub(crate) fn class_sums_flat_into(
        &self,
        inputs: &[BitVec],
        threads: usize,
        threshold: u64,
        scratches: &mut Vec<TurboScratch>,
        out: &mut Vec<i32>,
    ) -> Result<(), SimError> {
        let features = self.shape.features;
        if let Some(index) = inputs.iter().position(|x| x.len() != features) {
            return Err(SimError::InputWidth {
                index,
                expected: features,
                got: inputs[index].len(),
            });
        }
        let n = inputs.len();
        let classes = self.shape.classes;
        out.clear();
        out.resize(n * classes, 0);
        if n == 0 || classes == 0 {
            return Ok(());
        }
        let workers = self.plan_workers(n, threads, threshold);
        let kernel = host_kernels().count;
        let metrics = turbo_metrics();
        metrics.batches.inc();
        metrics.datapoints.add(n as u64);
        metrics.strips.add(n.div_ceil(BLOCK_LANES) as u64);
        metrics.chunk_workers.record(workers as u64);
        if scratches.len() < workers {
            scratches.resize_with(workers, TurboScratch::default);
        }
        if workers <= 1 {
            let scratch = &mut scratches[0];
            for (chunk, o) in inputs
                .chunks(BLOCK_LANES)
                .zip(out.chunks_mut(BLOCK_LANES * classes))
            {
                // SAFETY: `kernel` is the host's runtime-detected kernel.
                unsafe { self.chunk_class_sums_into(chunk, kernel, scratch, o) };
            }
            return Ok(());
        }
        // Contiguous, block-aligned spans — one scratch arena per worker.
        // Lanes are independent, so the partition is invisible in `out`.
        let blocks = n.div_ceil(BLOCK_LANES);
        let span = blocks.div_ceil(workers) * BLOCK_LANES;
        struct Span<'s, 'x> {
            scratch: &'s mut TurboScratch,
            inputs: &'x [BitVec],
            out: &'x mut [i32],
        }
        let mut tasks: Vec<Span<'_, '_>> = scratches
            .iter_mut()
            .zip(inputs.chunks(span))
            .zip(out.chunks_mut(span * classes))
            .map(|((scratch, inputs), out)| Span {
                scratch,
                inputs,
                out,
            })
            .collect();
        matador_par::par_map_mut_with(workers, &mut tasks, |_, span| {
            for (chunk, o) in span
                .inputs
                .chunks(BLOCK_LANES)
                .zip(span.out.chunks_mut(BLOCK_LANES * classes))
            {
                // SAFETY: `kernel` is the host's runtime-detected kernel.
                unsafe { self.chunk_class_sums_into(chunk, kernel, span.scratch, o) };
            }
        });
        Ok(())
    }

    /// Evaluates one ≤[`BLOCK_LANES`]-datapoint chunk at the narrowest
    /// strip width that covers it on `kernel`, writing `chunk.len() ×
    /// classes` sums into `out`.
    ///
    /// # Safety
    ///
    /// The host must support `kernel`'s CPU features — guaranteed for
    /// [`host_kernels`]`().count` and for [`CountKernel::Portable`].
    unsafe fn chunk_class_sums_into(
        &self,
        chunk: &[BitVec],
        kernel: CountKernel,
        scratch: &mut TurboScratch,
        out: &mut [i32],
    ) {
        // SAFETY: the caller guarantees the host supports `kernel`.
        unsafe {
            match chunk.len().div_ceil(LANES) {
                0 => {}
                1 => self.block_class_sums::<1>(chunk, kernel, scratch, out),
                2 => self.block_class_sums::<2>(chunk, kernel, scratch, out),
                3 => self.block_class_sums::<3>(chunk, kernel, scratch, out),
                _ => self.block_class_sums::<4>(chunk, kernel, scratch, out),
            }
        }
    }

    /// Strip-width-`W` blocked evaluation of one chunk: bit-slice the
    /// chunk once, fill each window's input prefix and run its AND tape,
    /// then count each `(class, sign)` group's fired clauses into bit
    /// planes and transpose them, one lane-word column at a time, into
    /// per-datapoint class sums. Input widths are already checked.
    ///
    /// # Safety
    ///
    /// As for [`TurboProgram::chunk_class_sums_into`].
    unsafe fn block_class_sums<const W: usize>(
        &self,
        chunk: &[BitVec],
        kernel: CountKernel,
        scratch: &mut TurboScratch,
        out: &mut [i32],
    ) {
        debug_assert!(chunk.len() <= W * LANES);
        let bits = self.shape.bus_width;
        let classes = self.shape.classes;
        debug_assert_eq!(out.len(), chunk.len() * classes);
        // Buffers warm to full-strip size once; narrower strips borrow a
        // prefix, so re-running at any width never reallocates.
        scratch
            .inputs
            .resize(self.windows.len() * BLOCK_WORDS * LANES, 0);
        scratch.nodes.resize(self.slots * BLOCK_WORDS, 0);
        scratch.fired.resize(self.group_len * BLOCK_WORDS, 0);
        scratch
            .planes
            .resize(self.sum_blocks * LANES * BLOCK_WORDS, 0);

        let inputs = &mut scratch.inputs[..self.windows.len() * W * LANES];
        self.bit_slice::<W>(chunk, inputs);
        let (nodes, _) = scratch.nodes[..self.slots * W].as_chunks_mut::<W>();
        let (fired, _) = scratch.fired[..self.group_len * W].as_chunks_mut::<W>();
        let column_words = self.sum_blocks * LANES;
        let plane_rows = &mut scratch.planes[..column_words * W];
        match (W, kernel) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller guarantees the host supports `kernel`.
            (1, CountKernel::Avx2) => unsafe {
                avx2::one_word_strip(
                    self,
                    inputs,
                    nodes.as_flattened_mut(),
                    fired.as_flattened_mut(),
                    plane_rows,
                )
            },
            _ => {
                for (window, columns) in self.windows.iter().zip(inputs.chunks_exact(W * LANES)) {
                    fill_prefix(bits, window.base, columns, nodes);
                    let and_base = window.base + prefix_slots(bits);
                    for (i, &(a, b)) in window.ands().iter().enumerate() {
                        let (a, b) = (nodes[a as usize], nodes[b as usize]);
                        nodes[and_base + i] = std::array::from_fn(|wd| a[wd] & b[wd]);
                    }
                }
                // Per group: gather and count its fired clauses, then
                // file each plane at its transpose row in every column.
                // `k ≤ 32`: a class's `2k` rows fit one block.
                let mut planes = [[0u64; W]; LANES / 2];
                let planes = &mut planes[..self.count_bits];
                let mut partials = self.partials.as_slice();
                for group in &self.groups {
                    // SAFETY: the caller guarantees the host supports it.
                    let read =
                        unsafe { count_group(kernel, &group.runs, partials, nodes, fired, planes) };
                    partials = &partials[read..];
                    for (p, plane) in planes.iter().enumerate() {
                        for (wi, &word) in plane.iter().enumerate() {
                            plane_rows[wi * column_words + group.row + p] = word;
                        }
                    }
                }
            }
        }

        // One lane-word column (64 datapoints) at a time: pivot each
        // block of planes into per-lane fields, then write every sum once
        // as `(+field) − (−field)`.
        let k = self.count_bits;
        let mask = (1u64 << k) - 1;
        for (wi, column) in plane_rows.chunks_exact_mut(column_words).enumerate() {
            let col = wi * LANES;
            if col >= chunk.len() {
                break;
            }
            let n = (chunk.len() - col).min(LANES);
            let out = &mut out[col * classes..][..n * classes];
            for (t, block) in column.chunks_exact_mut(LANES).enumerate() {
                transpose_64x64(block);
                let first = t * self.classes_per_block;
                let last = (first + self.classes_per_block).min(classes);
                for (sums, &word) in out.chunks_exact_mut(classes).zip(&block[..n]) {
                    let mut shift = 0;
                    for sum in &mut sums[first..last] {
                        let pos = (word >> shift) & mask;
                        let neg = (word >> (shift + k)) & mask;
                        *sum = pos as i32 - neg as i32;
                        shift += 2 * k;
                    }
                }
            }
        }
    }

    /// Bit-slices a chunk into `inputs`, one lane-word column at a time:
    /// each request's words are read once, for every window, into row
    /// `l` of the window's 64×64 block for that column, and each block is
    /// then transposed in place, so word `b` holds window bit `b` of the
    /// column's datapoints (datapoint `col + l` → bit `l`). Lanes past
    /// the chunk are all-zero phantom datapoints that are never read
    /// back.
    fn bit_slice<const W: usize>(&self, chunk: &[BitVec], inputs: &mut [u64]) {
        let bits = self.shape.bus_width;
        let windows = self.windows.len();
        for wi in 0..W {
            let col = (wi * LANES).min(chunk.len());
            let rows = &chunk[col..(col + LANES).min(chunk.len())];
            for (l, x) in rows.iter().enumerate() {
                for k in 0..windows {
                    inputs[(k * W + wi) * LANES + l] = x.extract_word(k * bits, bits);
                }
            }
            for k in 0..windows {
                let block = &mut inputs[(k * W + wi) * LANES..][..LANES];
                block[rows.len()..].fill(0);
                transpose_64x64(block);
            }
        }
    }
}

/// Which execution engine a serving shard runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EngineBackend {
    /// The clock-by-clock [`crate::SimEngine`] — ground truth, also used
    /// for trace capture and backpressure/stall studies.
    #[default]
    CycleAccurate,
    /// The bit-sliced [`TurboEngine`]: identical winners, class sums and
    /// cycle stamps, produced ~64 lanes at a time with analytic timing.
    Turbo,
}

/// Drop-in turbo replacement for the back-to-back streaming use of
/// [`crate::SimEngine`]: classifies via [`TurboProgram`] and reproduces
/// the cycle engine's result stream — cycle stamps, cumulative cycle
/// counter, datapoint/transfer counts and observed-II statistics — from
/// the architecture's closed-form timing.
///
/// The engine owns its scratch arenas and flat sum buffer: once warmed it
/// classifies batches allocation-free on the serial path
/// ([`TurboEngine::run_datapoints_into`]; locked by
/// `crates/sim/tests/no_alloc.rs`), and unless pinned to the serial
/// path fans batches of several evaluation blocks out over
/// `matador-par` according to the chunk cost model (see
/// [`TurboEngine::set_chunk_threads`]).
///
/// Deliberately *not* modelled: per-cycle traces, stall injection and
/// mid-stream pipeline state (the engine is always between drained
/// states). Drivers needing those belong on the cycle-accurate backend.
#[derive(Debug, Clone)]
pub struct TurboEngine {
    /// The immutable program, shared by every engine built from the same
    /// `Arc`.
    program: Arc<TurboProgram>,
    /// Scratch arenas reused across runs, one per chunk worker (grow
    /// once, on first use at each worker count).
    scratches: Vec<TurboScratch>,
    /// Flat per-batch class sums (`classes` per datapoint), reused.
    sums_flat: Vec<i32>,
    /// Worker budget for intra-batch chunk fan-out (`None` = resolve
    /// `matador_par::configured_threads` per run).
    chunk_threads: Option<usize>,
    /// Cost threshold per chunk worker, resolved once at construction.
    chunk_threshold: u64,
    pipelined_sum: bool,
    capture_sums: bool,
    cycle: u64,
    results: Vec<SimResult>,
    sums_log: Vec<Vec<i32>>,
    datapoints: u64,
    transfers: u64,
    ii_cycles: u64,
    ii_samples: u64,
}

impl TurboEngine {
    /// Compiles `accel` and creates an engine in the post-reset state.
    /// Pools standing up many shards over one design should compile once
    /// and use [`TurboEngine::from_program`] instead.
    pub fn new(accel: &CompiledAccelerator) -> Self {
        Self::from_program(TurboProgram::compile(accel))
    }

    /// Creates an engine in the post-reset state over an already-compiled
    /// program. The program is immutable, so engines built from one
    /// `Arc` share a single copy and nothing observable changes.
    pub fn from_program(program: impl Into<Arc<TurboProgram>>) -> Self {
        TurboEngine {
            program: program.into(),
            scratches: Vec::new(),
            sums_flat: Vec::new(),
            chunk_threads: None,
            chunk_threshold: configured_chunk_threshold(),
            pipelined_sum: false,
            capture_sums: false,
            cycle: 0,
            results: Vec::new(),
            sums_log: Vec::new(),
            datapoints: 0,
            transfers: 0,
            ii_cycles: 0,
            ii_samples: 0,
        }
    }

    /// The compiled program this engine evaluates.
    pub fn program(&self) -> &TurboProgram {
        &self.program
    }

    /// Models the two-stage (pipelined) class sum — one extra latency
    /// cycle per datapoint, exactly as on the cycle engine.
    pub fn set_pipelined_sum(&mut self, pipelined: bool) {
        self.pipelined_sum = pipelined;
    }

    /// Enables capture of the class sums behind every subsequent result.
    /// Capture copies each datapoint's sums into the log, so it is the
    /// one engine feature that allocates per datapoint.
    pub fn set_capture_class_sums(&mut self, capture: bool) {
        self.capture_sums = capture;
    }

    /// Sets the worker budget for intra-batch chunk fan-out. `None`
    /// (the default) resolves `matador_par::configured_threads` per run;
    /// `Some(1)` pins the serial path. Every [`ShardPool`] turbo engine
    /// is pinned: a pool slice is at most one evaluation block, which
    /// never fans out, and the pool's parallelism is across shards.
    ///
    /// Results are bit-identical at every setting; this is purely a
    /// scheduling knob.
    ///
    /// [`ShardPool`]: https://docs.rs/matador-serve
    pub fn set_chunk_threads(&mut self, threads: Option<usize>) {
        self.chunk_threads = threads;
    }

    /// Overrides the chunk cost threshold resolved at construction (see
    /// [`configured_chunk_threshold`]).
    pub fn set_chunk_threshold(&mut self, threshold: u64) {
        self.chunk_threshold = threshold;
    }

    /// The chunk cost threshold in effect.
    pub fn chunk_threshold(&self) -> u64 {
        self.chunk_threshold
    }

    /// Class sums captured while capture was enabled, in result order.
    pub fn class_sums_log(&self) -> &[Vec<i32>] {
        &self.sums_log
    }

    /// Streams `inputs` back-to-back and returns the classifications in
    /// arrival order, with the cycle stamps the cycle-accurate engine
    /// would produce from the same (drained) starting state.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidth`] if any input's width differs from the
    /// design's features; the batch is checked before any of it runs, so
    /// the clock and counters are left untouched. The turbo path cannot
    /// stall, so it never returns the cycle engine's drain error.
    pub fn run_datapoints(&mut self, inputs: &[BitVec]) -> Result<Vec<SimResult>, SimError> {
        let before = self.results.len();
        self.run_datapoints_extend(inputs)?;
        Ok(self.results[before..].to_vec())
    }

    /// [`TurboEngine::run_datapoints`] appending into a caller-owned
    /// buffer instead of returning a fresh `Vec` — with `out` at
    /// capacity and a warmed engine this performs zero heap allocations
    /// (`crates/sim/tests/no_alloc.rs`).
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidth`], as for [`TurboEngine::run_datapoints`];
    /// `out` is left untouched.
    pub fn run_datapoints_into(
        &mut self,
        inputs: &[BitVec],
        out: &mut Vec<SimResult>,
    ) -> Result<(), SimError> {
        let before = self.results.len();
        self.run_datapoints_extend(inputs)?;
        out.extend_from_slice(&self.results[before..]);
        Ok(())
    }

    /// The shared core: classifies `inputs` and appends to the engine's
    /// own result log.
    fn run_datapoints_extend(&mut self, inputs: &[BitVec]) -> Result<(), SimError> {
        if inputs.is_empty() {
            return Ok(());
        }
        let p = self.program.shape().num_packets() as u64;
        let base = self.cycle;
        // First result P+2(+1) cycles after its first packet (HCB fill +
        // class sum (+ popcount stage) + argmax + output register),
        // steady-state II of P.
        let first_result = base + p + 2 + u64::from(self.pipelined_sum);
        let threads = self
            .chunk_threads
            .unwrap_or_else(matador_par::configured_threads);
        self.program.class_sums_flat_into(
            inputs,
            threads,
            self.chunk_threshold,
            &mut self.scratches,
            &mut self.sums_flat,
        )?;
        let classes = self.program.shape().classes.max(1);
        for (i, sums) in self.sums_flat.chunks(classes).enumerate() {
            self.results.push(SimResult {
                winner: argmax(sums),
                cycle: first_result + i as u64 * p,
            });
            if self.capture_sums {
                self.sums_log.push(sums.to_vec());
            }
        }
        let n = inputs.len() as u64;
        // The engine steps once past the last result before draining.
        self.cycle = base + n * p + 3 + u64::from(self.pipelined_sum);
        self.datapoints += n;
        self.transfers += n * p;
        // Back-to-back results within one run are exactly P apart; runs
        // never contribute a cross-run gap (mirrors SimEngine's per-run
        // II anchor).
        self.ii_cycles += (n - 1) * p;
        self.ii_samples += n - 1;
        Ok(())
    }

    /// Cycle at which datapoint `i` of a run started *now* would have its
    /// first packet accepted (back-to-back streaming from the drained
    /// state): `cycle() + i·P`.
    pub fn next_first_beat_cycle(&self, i: usize) -> u64 {
        self.cycle + i as u64 * self.program.shape().num_packets() as u64
    }

    /// All results so far.
    pub fn results(&self) -> &[SimResult] {
        &self.results
    }

    /// Cycle counter: where the cycle engine's clock would be after the
    /// same run history.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the cycle counter by `n` without running anything — the
    /// analytic twin of [`SimEngine::inject_idle_cycles`]: externally
    /// imposed dead time (queue delay, injected stall) on the shard
    /// clock. Later runs stamp results from the advanced clock;
    /// observed-II statistics are untouched (gaps are within-run only).
    ///
    /// [`SimEngine::inject_idle_cycles`]: crate::SimEngine::inject_idle_cycles
    pub fn inject_idle_cycles(&mut self, n: u64) {
        self.cycle += n;
    }

    /// Datapoints classified since construction.
    pub fn datapoints(&self) -> u64 {
        self.datapoints
    }

    /// AXI beats the equivalent stream would have transferred.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Stall cycles (always 0: the turbo path never backpressures).
    pub fn stall_cycles(&self) -> u64 {
        0
    }

    /// Sum of result-to-result gaps observed within runs, in cycles.
    pub fn observed_ii_cycles(&self) -> u64 {
        self.ii_cycles
    }

    /// Number of gaps behind [`TurboEngine::observed_ii_cycles`].
    pub fn observed_ii_samples(&self) -> u64 {
        self.ii_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimEngine;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;

    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    fn inputs(n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| BitVec::from_indices(8, &[i % 8, (3 * i) % 8]))
            .collect()
    }

    #[test]
    fn transpose_matches_naive() {
        // A full-period LCG fills an irregular matrix.
        let mut m = [0u64; 64];
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for w in &mut m {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *w = s;
        }
        let mut t = m;
        transpose_64x64(&mut t);
        for (r, &row_t) in t.iter().enumerate() {
            for (b, &row_m) in m.iter().enumerate() {
                assert_eq!((row_t >> b) & 1, (row_m >> r) & 1, "element ({r},{b})");
            }
        }
        // Involution: transposing back recovers the original.
        transpose_64x64(&mut t);
        assert_eq!(t, m);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_transpose_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // Nothing to compare on this host.
        }
        let mut s = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..32 {
            let mut m = [0u64; 64];
            for w in &mut m {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *w = s;
            }
            let mut scalar = m;
            transpose_64x64_scalar(&mut scalar);
            let mut vector = m;
            // SAFETY: AVX2 was detected above; the array has 64 words.
            unsafe { avx2::transpose_64x64_avx2(&mut vector) };
            assert_eq!(scalar, vector);
        }
    }

    /// Every count kernel whose CPU features this host has.
    fn supported_count_kernels() -> Vec<CountKernel> {
        let mut kernels = vec![CountKernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(CountKernel::Avx2);
        }
        kernels
    }

    /// Checks every supported count kernel against a per-lane popcount
    /// for a group of `len` clauses at strip width `W`. Clause `i` ANDs
    /// `i % 3` random partials (none: it always fires), so the gather
    /// runs hold 0, 1 and 2 partials per clause.
    fn check_count_kernels<const W: usize>(len: usize, seed: &mut u64) {
        let mut next = || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *seed
        };
        // Mostly-set words push counts into the top plane.
        let nodes: Vec<[u64; W]> = (0..64)
            .map(|_| std::array::from_fn(|_| next() | next()))
            .collect();
        let clauses: Vec<Vec<u32>> = (0..len)
            .map(|i| (0..i % 3).map(|_| (next() >> 58) as u32).collect())
            .collect();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut partials = Vec::new();
        for count in 0..3 {
            let run: Vec<&Vec<u32>> = clauses.iter().filter(|c| c.len() == count).collect();
            if !run.is_empty() {
                runs.push((count as u32, run.len() as u32));
                partials.extend(run.into_iter().flatten());
            }
        }
        let expected: Vec<[u64; W]> = clauses
            .iter()
            .map(|c| {
                c.iter().fold([!0; W], |acc, &s| {
                    std::array::from_fn(|i| acc[i] & nodes[s as usize][i])
                })
            })
            .collect();
        let k = (usize::BITS - len.leading_zeros()).max(1) as usize;
        for kernel in supported_count_kernels() {
            // Stale values must not leak into the result.
            let mut fired = vec![[!0u64; W]; len];
            let mut planes = vec![[!0u64; W]; k];
            // SAFETY: only kernels the host supports are listed.
            let read =
                unsafe { count_group(kernel, &runs, &partials, &nodes, &mut fired, &mut planes) };
            assert_eq!(read, partials.len(), "{kernel:?} len={len} W={W}");
            for wd in 0..W {
                for l in 0..LANES {
                    let naive = expected.iter().filter(|f| (f[wd] >> l) & 1 == 1).count();
                    let got: usize = (0..k)
                        .map(|p| ((planes[p][wd] >> l) as usize & 1) << p)
                        .sum();
                    assert_eq!(got, naive, "{kernel:?} len={len} W={W} word {wd} lane {l}");
                }
            }
        }
    }

    #[test]
    fn count_kernels_match_a_naive_popcount() {
        assert!(supported_count_kernels().contains(&host_kernels().count));
        let mut seed = 0x1319_8A2E_0370_7344u64;
        // Empty, tail-only, one 16-word block either side, and group
        // sizes of quick KWS-6 (150) and CIFAR-2 (500).
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 150, 500] {
            check_count_kernels::<1>(len, &mut seed);
            check_count_kernels::<2>(len, &mut seed);
            check_count_kernels::<3>(len, &mut seed);
            check_count_kernels::<4>(len, &mut seed);
        }
    }

    #[test]
    fn constant_one_partials_are_elided_from_the_work_count() {
        for options in [
            crate::compile::CompileOptions::none(),
            crate::compile::CompileOptions::default(),
        ] {
            let stats = crate::compile::CompilePipeline::new(options)
                .compile(&accel())
                .stats;
            // Window 1 has three `Cube::one()` clauses.
            assert_eq!(
                (stats.clause_ands_before, stats.clause_ands_after),
                (8, 5),
                "{options:?}"
            );
        }
    }

    /// Three 4-bit windows, two classes of four clauses. Clause 0 is
    /// `Cube::one()` in every window, clause 1 in every window but the
    /// middle one, and the last window's outputs are all constant.
    /// Clauses 2 and 3 are equal, so class 0's sum is `1 − x[6]`.
    fn constant_clause_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 12,
            classes: 2,
            clauses_per_class: 4,
        };
        let one = Cube::one;
        let lit = |l: Lit| Cube::from_lits([l]);
        let w0 = vec![
            one(),
            one(),
            lit(Lit::pos(0)),
            lit(Lit::pos(0)),
            lit(Lit::neg(1)),
            lit(Lit::pos(1)),
            one(),
            one(),
        ];
        let w1 = vec![
            one(),
            lit(Lit::pos(2)),
            one(),
            one(),
            lit(Lit::pos(3)),
            one(),
            lit(Lit::neg(0)),
            Cube::from_lits([Lit::neg(2), Lit::pos(1)]),
        ];
        let w2 = vec![one(); 8];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1, w2], Sharing::Enabled)
    }

    #[test]
    fn constant_clauses_match_reference_and_cycle_engine() {
        let a = constant_clause_accel();
        let mut s = 0x4528_21E6_38D0_1377u64;
        let xs: Vec<BitVec> = (0..300)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bits: Vec<usize> = (0..12).filter(|b| (s >> (b + 20)) & 1 == 1).collect();
                BitVec::from_indices(12, &bits)
            })
            .collect();
        let mut cycle = SimEngine::new(&a);
        cycle.set_capture_class_sums(true);
        cycle.run_datapoints(&xs).expect("drains");
        for options in [
            crate::compile::CompileOptions::none(),
            crate::compile::CompileOptions::default(),
        ] {
            let compiled = crate::compile::CompilePipeline::new(options).compile(&a);
            // 4 partials in windows 0 and 1 each, none in window 2.
            assert_eq!(compiled.stats.clause_ands_after, 8, "{options:?}");
            let sums = compiled.program.class_sums(&xs);
            assert_eq!(sums, cycle.class_sums_log(), "{options:?}");
            for (x, s) in xs.iter().zip(&sums) {
                assert_eq!(s, &a.reference_class_sums(x), "{options:?} input {x}");
                // Clause 0 fires in every lane; clause 1 exactly when
                // x[6] (window 1, bit 2) is set.
                assert_eq!(s[0], 1 - i32::from(x.get(6)), "{options:?} input {x}");
            }
        }
    }

    /// Four windows of a 5-bit bus over 17 features, so the last window
    /// holds 2 bits. In window 0 clauses 0 and 1 are the bare literals
    /// `x0` and `¬x4`, so their partials are input-prefix slots. Window
    /// 1's outputs are all constant: `Cube::one()`, or 0 for the
    /// contradictory cubes of clauses 1, 4, 7 and 10. The ragged window
    /// reads its top bit both ways.
    fn folding_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 5,
            features: 17,
            classes: 3,
            clauses_per_class: 4,
        };
        let one = Cube::one;
        let cube = |lits: &[Lit]| Cube::from_lits(lits.iter().copied());
        let (p, n) = (Lit::pos, Lit::neg);
        let w0 = vec![
            cube(&[p(0)]),
            cube(&[n(4)]),
            cube(&[p(1), n(2)]),
            one(),
            cube(&[n(0)]),
            cube(&[p(3)]),
            cube(&[p(1), n(2), p(4)]),
            one(),
            cube(&[p(2)]),
            cube(&[n(1), n(3)]),
            one(),
            cube(&[p(4), p(0)]),
        ];
        let w1 = (0..12)
            .map(|cl| {
                if cl % 3 == 1 {
                    cube(&[p(2), n(2)])
                } else {
                    one()
                }
            })
            .collect();
        let w2 = vec![
            one(),
            cube(&[p(0), p(1)]),
            cube(&[n(3)]),
            cube(&[p(2), n(4)]),
            cube(&[p(0), p(1), n(3)]),
            one(),
            cube(&[n(0)]),
            cube(&[p(4)]),
            one(),
            cube(&[p(1), p(2), p(3)]),
            cube(&[n(2)]),
            one(),
        ];
        let w3 = vec![
            cube(&[p(1)]),
            cube(&[n(1)]),
            cube(&[p(0), n(1)]),
            one(),
            cube(&[n(0)]),
            one(),
            cube(&[p(0), p(1)]),
            cube(&[n(0), n(1)]),
            one(),
            cube(&[p(1)]),
            one(),
            cube(&[n(1)]),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1, w2, w3], Sharing::Enabled)
    }

    /// `n` pseudo-random datapoints of `features` bits.
    fn random_inputs(features: usize, n: usize, mut seed: u64) -> Vec<BitVec> {
        (0..n)
            .map(|_| {
                let bits: Vec<usize> = (0..features)
                    .filter(|_| {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        seed >> 63 == 1
                    })
                    .collect();
                BitVec::from_indices(features, &bits)
            })
            .collect()
    }

    /// `program`'s partial slots split per `(class, sign)` group, then
    /// per clause.
    fn group_clause_partials(program: &TurboProgram) -> Vec<Vec<&[u32]>> {
        let mut read = 0;
        let groups = program
            .groups
            .iter()
            .map(|group| {
                let mut clauses = Vec::new();
                for &(count, n) in &group.runs {
                    for _ in 0..n {
                        clauses.push(&program.partials[read..read + count as usize]);
                        read += count as usize;
                    }
                }
                clauses
            })
            .collect();
        assert_eq!(read, program.partials.len());
        groups
    }

    #[test]
    fn folded_partials_read_the_input_prefix_and_constants() {
        let bits = 5u32;
        for options in [
            crate::compile::CompileOptions::none(),
            crate::compile::CompileOptions::default(),
        ] {
            let program = crate::compile::CompilePipeline::new(options)
                .compile(&folding_accel())
                .program;
            let base = |w: usize| u32::try_from(program.windows[w].base).expect("fits");
            assert_eq!(base(0), 0, "{options:?}");
            // The all-constant window runs no AND; its area follows
            // window 0's.
            let w1 = &program.windows[1];
            assert!(w1.ands().is_empty(), "{options:?}");
            assert_eq!(w1.base, prefix_slots(5) + program.windows[0].ands().len());
            // Groups are class-major with `+` (even clauses) first:
            // clause 0 is in group 0, clause 1 in group 1, clause 4 in
            // group 2. Window 1's contradictory cubes read its area's
            // constant-0 slot.
            let zero = base(1) + 2 * bits + 1;
            let groups = group_clause_partials(&program);
            assert_eq!(groups.len(), 6, "{options:?}");
            let has = |group: usize, slots: &[u32]| {
                groups[group]
                    .iter()
                    .any(|clause| slots.iter().all(|s| clause.contains(s)))
            };
            // Clause 0: `x0` (input slot 0) in window 0, `x1` in window 3.
            assert!(has(0, &[0, base(3) + 1]), "{options:?} clause 0");
            // Clause 1: `¬x4` (complement slot `bits + 4`), constant 0,
            // `¬x1` in window 3.
            assert!(
                has(1, &[bits + 4, zero, base(3) + bits + 1]),
                "{options:?} clause 1"
            );
            // Clause 4: `¬x0` (complement slot `bits`), constant 0, `¬x0`
            // in window 3.
            assert!(
                has(2, &[bits, zero, base(3) + bits]),
                "{options:?} clause 4"
            );
            // Clauses 1, 4, 7 and 10 each read constant 0 once; they sit
            // in groups 1, 2, 3 and 4.
            let reads: Vec<usize> = groups
                .iter()
                .map(|g| {
                    g.iter()
                        .flat_map(|c| c.iter())
                        .filter(|&&s| s == zero)
                        .count()
                })
                .collect();
            assert_eq!(reads, [0, 1, 1, 1, 1, 0], "{options:?}");
            // Constant-1 partials are elided in every window.
            for w in 0..program.windows.len() {
                let one = base(w) + 2 * bits;
                assert!(!program.partials.contains(&one), "{options:?} window {w}");
            }
        }
    }

    /// Asserts that `a`'s turbo class sums equal `reference_class_sums`
    /// and `SimEngine`'s captured sums at strip widths 1–4, full and
    /// ragged, and one word past a whole strip, under both compile
    /// option sets.
    fn assert_sums_match_at_every_strip_width(a: &CompiledAccelerator, seed: u64) {
        let xs = random_inputs(a.shape().features, 257, seed);
        let mut cycle = SimEngine::new(a);
        cycle.set_capture_class_sums(true);
        cycle.run_datapoints(&xs).expect("drains");
        let expected = cycle.class_sums_log();
        for (x, sums) in xs.iter().zip(expected) {
            assert_eq!(sums, &a.reference_class_sums(x), "input {x}");
        }
        for options in [
            crate::compile::CompileOptions::none(),
            crate::compile::CompileOptions::default(),
        ] {
            let program = crate::compile::CompilePipeline::new(options)
                .compile(a)
                .program;
            for n in [1usize, 63, 64, 65, 255, 256, 257] {
                let sums = program.class_sums_chunked_with(&xs[..n], 1, u64::MAX);
                assert_eq!(sums, expected[..n], "{:?} {options:?} n={n}", a.shape());
            }
        }
    }

    #[test]
    fn folded_tapes_match_reference_and_cycle_engine_at_every_strip_width() {
        let a = folding_accel();
        assert_eq!(a.shape().num_packets(), 4, "17 bits on a 5-bit bus");
        assert_sums_match_at_every_strip_width(&a, 0x0B5E_55ED_F01D_ED00);
    }

    /// A pseudo-random design of three windows over a 4-bit bus (10
    /// features, so the last window is 2 bits wide). Class 0's even
    /// clauses are `Cube::one()` in every window: they have no partial
    /// anywhere, fire in every lane and fill class 0's `+` count to its
    /// top plane. Elsewhere a window's cube is `Cube::one()` with
    /// probability 3/4, else one or two random literals.
    fn random_accel(
        classes: usize,
        clauses_per_class: usize,
        mut seed: u64,
    ) -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 10,
            classes,
            clauses_per_class,
        };
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 32
        };
        let windows: Vec<Vec<Cube>> = [4u64, 4, 2]
            .iter()
            .map(|&width| {
                (0..shape.total_clauses())
                    .map(|c| {
                        let r = next();
                        if (c < clauses_per_class && c % 2 == 0) || r % 4 != 0 {
                            return Cube::one();
                        }
                        let lit = |r: u64| {
                            let bit = ((r >> 3) % width) as u32;
                            if r & 4 == 0 {
                                Lit::pos(bit)
                            } else {
                                Lit::neg(bit)
                            }
                        };
                        let second = next();
                        if second % 2 == 0 {
                            Cube::from_lits([lit(r)])
                        } else {
                            Cube::from_lits([lit(r), lit(second)])
                        }
                    })
                    .collect()
            })
            .collect();
        CompiledAccelerator::from_window_cubes(shape, &windows, Sharing::Enabled)
    }

    #[test]
    fn class_sums_match_reference_and_cycle_engine_across_plane_layouts() {
        // (classes, clauses per class, count planes, transposes/column).
        for (classes, cpc, planes, transposes) in [
            // Odd: 3 `+` clauses and 2 `−` per class.
            (3, 5, 2, 1),
            // 4 classes per 64-row block, so the last of 3 is half empty.
            (10, 128, 7, 3),
            (2, 1000, 9, 1),
        ] {
            let a = random_accel(classes, cpc, 0x5EED_0000 + cpc as u64);
            let program = TurboProgram::compile(&a);
            assert_eq!(
                (program.count_bits, program.sum_transposes()),
                (planes, transposes),
                "{classes}x{cpc}"
            );
            assert!(
                program.groups[0].runs[0] == (0, cpc.div_ceil(2) as u32),
                "class 0's `+` clauses have no partial"
            );
            assert_sums_match_at_every_strip_width(&a, 0xC1A5_5000 + cpc as u64);
        }
    }

    /// Ten 4-bit windows, nine classes of 19 clauses, so `+` groups hold
    /// 10 clauses, `−` groups 9, and the 4-bit counts spread the classes
    /// over two transpose blocks. In group `g` the first `1 + g % 9`
    /// clauses share `g % 10` partials and every other clause has its own
    /// partial count, so the runs cover lengths 1–9 (every tail mod 4)
    /// and several groups have a count-0 run. A partial is a bare
    /// literal, a complement, a two-literal AND or a contradiction (the
    /// constant-0 slot).
    fn gather_accel() -> (CompiledAccelerator, usize) {
        let (windows, classes, cpc) = (10usize, 9, 19);
        let shape = AccelShape {
            bus_width: 4,
            features: 4 * windows,
            classes,
            clauses_per_class: cpc,
        };
        let mut cubes = vec![vec![Cube::one(); shape.total_clauses()]; windows];
        let mut partials = 0;
        for g in 0..2 * classes {
            let (class, sign) = (g / 2, g % 2);
            let shared = 1 + g % 9;
            let count = g % 10;
            for (j, clause) in (class * cpc + sign..(class + 1) * cpc)
                .step_by(2)
                .enumerate()
            {
                let count = if j < shared {
                    count
                } else {
                    (count + 1 + j - shared) % 10
                };
                partials += count;
                for t in 0..count {
                    let k = (3 * j + g + t) % windows;
                    let bit = ((j + t) % 4) as u32;
                    cubes[k][clause] = match (g + j + t) % 4 {
                        0 => Cube::from_lits([Lit::pos(bit)]),
                        1 => Cube::from_lits([Lit::neg(bit)]),
                        2 => Cube::from_lits([Lit::pos(bit), Lit::neg((bit + 1) % 4)]),
                        _ => Cube::from_lits([Lit::pos(bit), Lit::neg(bit)]),
                    };
                }
            }
        }
        let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
        (accel, partials)
    }

    /// Class sums of one ≤ 256-input chunk on `kernel`.
    fn chunk_sums(program: &TurboProgram, kernel: CountKernel, xs: &[BitVec]) -> Vec<Vec<i32>> {
        let classes = program.shape.classes;
        let mut out = vec![0; xs.len() * classes];
        let mut scratch = TurboScratch::default();
        // SAFETY: callers pass only kernels the host supports.
        unsafe { program.chunk_class_sums_into(xs, kernel, &mut scratch, &mut out) };
        out.chunks(classes).map(<[i32]>::to_vec).collect()
    }

    #[test]
    fn one_word_strips_match_the_portable_kernel_and_the_reference() {
        let (a, designed) = gather_accel();
        for options in [
            crate::compile::CompileOptions::none(),
            crate::compile::CompileOptions::default(),
        ] {
            let compiled = crate::compile::CompilePipeline::new(options).compile(&a);
            let program = compiled.program;
            let mut lengths: Vec<u32> = program
                .groups
                .iter()
                .flat_map(|g| g.runs.iter().map(|&(_, clauses)| clauses))
                .collect();
            lengths.sort_unstable();
            lengths.dedup();
            assert_eq!(lengths, (1..=9).collect::<Vec<_>>(), "{options:?}");
            assert!(
                program.groups.iter().any(|g| g.runs[0].0 == 0),
                "{options:?}: a count-0 run"
            );
            assert_eq!(program.sum_transposes(), 2, "{options:?}");
            assert_eq!(compiled.stats.clause_ands_after, designed, "{options:?}");
            for (n, seed) in [
                (1usize, 0x51DE_0001u64),
                (63, 0x51DE_0063),
                (64, 0x51DE_0064),
            ] {
                let xs = random_inputs(a.shape().features, n, seed);
                let expected: Vec<Vec<i32>> =
                    xs.iter().map(|x| a.reference_class_sums(x)).collect();
                for kernel in supported_count_kernels() {
                    assert_eq!(
                        chunk_sums(&program, kernel, &xs),
                        expected,
                        "{options:?} {kernel:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_clause_blocks_pad_with_constant_one_and_are_not_counted() {
        let (a, designed) = gather_accel();
        let program = TurboProgram::compile(&a);
        let one = u32::try_from(2 * a.shape().bus_width).expect("fits");
        // Every run's clauses in blocks of four, one quad per partial
        // position; the slots of a short block's missing clauses read
        // window 0's constant 1.
        let mut quads = program.quads.iter();
        let mut read = 0;
        for group in &program.groups {
            for &(count, clauses) in &group.runs {
                let (count, clauses) = (count as usize, clauses as usize);
                let run = &program.partials[read..read + count * clauses];
                read += run.len();
                if count == 0 {
                    continue;
                }
                for block in run.chunks(4 * count) {
                    for p in 0..count {
                        let quad = quads.next().expect("a quad per position");
                        for (j, &slot) in quad.iter().enumerate() {
                            let want = block.get(j * count + p).copied().unwrap_or(one);
                            assert_eq!(slot, want, "block {block:?} position {p}");
                        }
                    }
                }
            }
        }
        assert!(quads.next().is_none());
        assert!(!program.partials.contains(&one));
        let padded = program
            .quads
            .iter()
            .flatten()
            .filter(|&&s| s == one)
            .count();
        assert!(padded > 0, "some run is not a multiple of four");
        assert_eq!(program.quads.len() * 4 - padded, designed);
        // Padding is not work: the counts are the clause partials.
        assert_eq!(program.clause_ands(), designed);
        let stats = crate::compile::CompilePipeline::default().compile(&a).stats;
        assert_eq!(
            (
                stats.clause_ands_after,
                stats.tape_ands,
                stats.sum_transposes
            ),
            (designed, program.tape_ands(), 2)
        );
    }

    #[test]
    #[should_panic(expected = "65-bit bus exceeds one 64-bit packet")]
    fn a_bus_wider_than_a_transpose_block_is_rejected() {
        let shape = AccelShape {
            bus_width: 65,
            features: 65,
            classes: 2,
            clauses_per_class: 2,
        };
        let cubes = vec![vec![Cube::from_lits([Lit::pos(64)]); 4]];
        TurboProgram::compile(&CompiledAccelerator::from_window_cubes(
            shape,
            &cubes,
            Sharing::Enabled,
        ));
    }

    #[test]
    fn tape_ands_equal_the_hardware_and2_gate_count() {
        // `accel()` is all single literals (no gates); the others are not.
        for a in [accel(), constant_clause_accel(), folding_accel()] {
            let gates: usize = a
                .windows()
                .iter()
                .map(matador_logic::dag::LogicDag::and2_count)
                .sum();
            for options in [
                crate::compile::CompileOptions::none(),
                crate::compile::CompileOptions::default(),
            ] {
                let stats = crate::compile::CompilePipeline::new(options)
                    .compile(&a)
                    .stats;
                assert_eq!(stats.tape_ands, gates, "{options:?}");
            }
        }
    }

    #[test]
    fn batch_sums_match_reference_across_chunk_boundaries() {
        let a = accel();
        // Straddles every strip width (1–4 lane words) and the block
        // boundary at 256.
        for n in [0usize, 1, 2, 63, 64, 65, 130, 255, 256, 257, 300] {
            let xs = inputs(n);
            let sums = a.batch_class_sums(&xs);
            assert_eq!(sums.len(), n);
            for (x, s) in xs.iter().zip(&sums) {
                assert_eq!(s, &a.reference_class_sums(x), "n={n} input {x}");
            }
            let winners = a.batch_classify(&xs);
            for (s, w) in sums.iter().zip(&winners) {
                assert_eq!(*w, argmax(s));
            }
        }
    }

    #[test]
    fn chunked_fan_out_is_bit_identical_at_any_worker_count() {
        let a = accel();
        let program = TurboProgram::compile(&a);
        let xs = inputs(1000);
        let serial = program.class_sums_chunked_with(&xs, 1, u64::MAX);
        for threads in [2usize, 3, 8] {
            // Threshold 0 forces maximal fan-out for the thread budget.
            let par = program.class_sums_chunked_with(&xs, threads, 0);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn worker_plan_respects_cost_threshold_and_block_count() {
        let a = accel();
        let program = TurboProgram::compile(&a);
        assert!(program.chunk_cost() > 0);
        // Below one threshold of work: serial no matter the budget.
        assert_eq!(program.plan_workers(64, 16, u64::MAX), 1);
        // Single block: serial.
        assert_eq!(program.plan_workers(BLOCK_LANES, 16, 0), 1);
        // Zero threshold: bounded by blocks and the thread budget.
        assert_eq!(program.plan_workers(4 * BLOCK_LANES, 16, 0), 4);
        assert_eq!(program.plan_workers(64 * BLOCK_LANES, 3, 0), 3);
    }

    #[test]
    fn turbo_engine_matches_cycle_engine_results_and_clock() {
        let a = accel();
        for pipelined in [false, true] {
            let mut cycle = SimEngine::new(&a);
            cycle.set_pipelined_sum(pipelined);
            cycle.set_capture_class_sums(true);
            let mut turbo = TurboEngine::new(&a);
            turbo.set_pipelined_sum(pipelined);
            turbo.set_capture_class_sums(true);
            // Several runs back-to-back exercise the cumulative clock.
            for n in [1usize, 5, 64, 3] {
                let xs = inputs(n);
                let from_cycle = cycle.run_datapoints(&xs).expect("drains");
                let from_turbo = turbo.run_datapoints(&xs).expect("infallible");
                assert_eq!(from_turbo, from_cycle, "pipelined={pipelined} n={n}");
                assert_eq!(turbo.cycle(), cycle.cycle(), "pipelined={pipelined} n={n}");
            }
            assert_eq!(turbo.class_sums_log(), cycle.class_sums_log());
            assert_eq!(turbo.results(), cycle.results());
            assert_eq!(turbo.datapoints(), 73);
            assert_eq!(turbo.transfers(), cycle.stream_transfers());
            assert_eq!(turbo.observed_ii_cycles(), cycle.observed_ii_cycles());
            assert_eq!(turbo.observed_ii_samples(), cycle.observed_ii_samples());
        }
    }

    #[test]
    fn run_datapoints_into_matches_run_datapoints() {
        let a = accel();
        let mut by_value = TurboEngine::new(&a);
        let mut by_buffer = TurboEngine::new(&a);
        by_buffer.set_chunk_threads(Some(1));
        let mut out = Vec::new();
        for n in [5usize, 64, 130] {
            let xs = inputs(n);
            let expected = by_value.run_datapoints(&xs).expect("infallible");
            out.clear();
            by_buffer
                .run_datapoints_into(&xs, &mut out)
                .expect("infallible");
            assert_eq!(out, expected, "n={n}");
        }
        assert_eq!(by_buffer.results(), by_value.results());
        assert_eq!(by_buffer.cycle(), by_value.cycle());
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let a = accel();
        let mut turbo = TurboEngine::new(&a);
        assert!(turbo.run_datapoints(&[]).expect("infallible").is_empty());
        assert_eq!(turbo.cycle(), 0);
        assert_eq!(turbo.datapoints(), 0);
    }

    #[test]
    fn capture_off_keeps_log_empty() {
        let a = accel();
        let mut turbo = TurboEngine::new(&a);
        turbo.run_datapoints(&inputs(5)).expect("infallible");
        assert!(turbo.class_sums_log().is_empty());
        assert_eq!(turbo.results().len(), 5);
    }

    #[test]
    fn engine_rejects_a_wrong_width_batch_before_running_it() {
        let a = accel();
        let mut turbo = TurboEngine::new(&a);
        turbo.run_datapoints(&inputs(3)).expect("widths match");
        let (cycle, datapoints, transfers) = (turbo.cycle(), turbo.datapoints(), turbo.transfers());
        let mut bad = inputs(70);
        bad[65] = BitVec::zeros(7);
        let expected = SimError::InputWidth {
            index: 65,
            expected: 8,
            got: 7,
        };
        assert_eq!(turbo.run_datapoints(&bad), Err(expected));
        let mut out = Vec::new();
        assert_eq!(turbo.run_datapoints_into(&bad, &mut out), Err(expected));
        assert!(out.is_empty());
        assert!(expected.to_string().contains("input width mismatch"));
        assert_eq!(turbo.cycle(), cycle);
        assert_eq!(turbo.datapoints(), datapoints);
        assert_eq!(turbo.transfers(), transfers);
        assert_eq!(turbo.results().len(), 3);
        // The engine is still usable, and its clock continues unbroken.
        let mut reference = TurboEngine::new(&a);
        reference.run_datapoints(&inputs(3)).expect("widths match");
        assert_eq!(
            turbo.run_datapoints(&inputs(5)),
            reference.run_datapoints(&inputs(5))
        );
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics_like_the_cycle_engine() {
        let a = accel();
        a.batch_classify(&[BitVec::zeros(5)]);
    }
}
