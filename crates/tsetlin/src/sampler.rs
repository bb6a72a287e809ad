//! Exact integer forms of the random decisions clause feedback takes.
//!
//! The vendored `rand` turns one `u64` draw `u` into an `f64` as
//! `k · 2⁻⁵³` with `k = u >> 11`. Every feedback decision is a function
//! of that 53-bit integer `k`, so each one is precomputed here as integer
//! work on `k`, with the same result as the `f64` expression it replaces:
//!
//! - `Bernoulli`: `gen::<f64>() < p` is exactly `k < ⌈p·2⁵³⌉`.
//! - `GeometricGaps`: the gap `((k·2⁻⁵³).ln() / (1 − p).ln()) as usize`
//!   between visited literals is read from a table of integer thresholds.
//!   The table is built from that same expression on the running host
//!   (the host's `ln` is the definition of truth) and checked against it
//!   at every bucket and threshold boundary; a `p` whose table does not
//!   check out keeps evaluating the expression itself.
//!
//! Each decision consumes exactly one `u64`, as the `f64` forms did, so a
//! machine trained with these samplers draws the same stream and makes
//! the same decisions.

use rand::RngCore;

/// Largest 53-bit draw `k`.
const K_MAX: u64 = (1 << 53) - 1;

/// Most buckets a gap table may hold before `p` keeps the `ln` path.
const MAX_BUCKETS: usize = 1 << 16;

/// The 53-bit integer behind one `gen::<f64>()` draw.
fn draw53<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// The reference geometric gap for draw `k` with `ln_q = (1 − p).ln()`:
/// how many literals are skipped before the next visit. `k = 0` is
/// `ln 0 = −∞`, an infinite gap that saturates to `usize::MAX`.
fn float_gap(k: u64, ln_q: f64) -> usize {
    let u = k as f64 * (1.0 / (1u64 << 53) as f64);
    (u.ln() / ln_q) as usize
}

/// A Bernoulli(`p`) decision on one draw, as an integer compare.
///
/// `sample` returns what `rng.gen::<f64>() < p` returns on the same draw,
/// for every `p` (NaN included: never).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    /// The decision `gen::<f64>() < p`.
    pub(crate) fn new(p: f64) -> Self {
        // `p·2⁵³` is exact, and `k < x` ⇔ `k < ⌈x⌉` for integer `k`. The
        // saturating cast maps p ≤ 0 and NaN to 0 (never) and p > 2¹¹ to
        // `u64::MAX` (always).
        Bernoulli {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// Draws one `u64` and decides.
    pub(crate) fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        draw53(rng) < self.threshold
    }
}

/// Visits each index of `0..m` independently with probability `p`, by
/// geometric gap sampling, for any `m` up to a fixed `max_len`.
///
/// The expected cost is `O(m·p)` draws rather than `O(m)`. Every gap of
/// `m` or more ends the walk alike, so the table stores gaps capped at
/// `max_len`; that bounds its size by `max_len` as well as by `1/p`, and
/// keeps it small for any `p`.
#[derive(Debug, Clone)]
pub(crate) struct GeometricGaps {
    max_len: usize,
    mode: Mode,
}

#[derive(Debug, Clone)]
enum Mode {
    /// `p ≤ 0`: nothing is visited and nothing drawn.
    Never,
    /// `p ≥ 1`: everything is visited and nothing drawn.
    Every,
    /// The checked threshold table.
    Table(GapTable),
    /// No checked table: evaluate the expression (`ln_q = (1 − p).ln()`).
    Ln(f64),
}

impl GeometricGaps {
    /// Builds the sampler for probability `p` over up to `max_len` indices.
    pub(crate) fn new(p: f64, max_len: usize) -> Self {
        let mode = if p <= 0.0 || max_len == 0 {
            Mode::Never
        } else if p >= 1.0 {
            Mode::Every
        } else {
            let ln_q = (1.0 - p).ln();
            match GapTable::build(ln_q, max_len) {
                Some(table) => Mode::Table(table),
                None => Mode::Ln(ln_q),
            }
        };
        GeometricGaps { max_len, mode }
    }

    /// The gap for draw `k < 2⁵³`, capped at `max_len`: equal to
    /// `min(((k·2⁻⁵³).ln() / (1 − p).ln()) as usize, max_len)`.
    ///
    /// # Panics
    ///
    /// Panics for `p ≤ 0` or `p ≥ 1`, where no gap is ever drawn.
    #[cfg(test)]
    fn gap(&self, k: u64) -> usize {
        match &self.mode {
            Mode::Table(table) => table.gap(k),
            Mode::Ln(ln_q) => float_gap(k, *ln_q).min(self.max_len),
            Mode::Never | Mode::Every => panic!("no gap is drawn at p = 0 or p = 1"),
        }
    }

    /// Calls `visit(i)` for each selected `i` in increasing order, drawing
    /// one `u64` per gap (no draw when `m = 0`, `p ≤ 0` or `p ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `m > max_len`.
    pub(crate) fn for_each<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        m: usize,
        visit: impl FnMut(usize),
    ) {
        assert!(
            m <= self.max_len,
            "walk over {m} indices exceeds the sampler's {}",
            self.max_len
        );
        if m == 0 {
            return;
        }
        match &self.mode {
            Mode::Never => {}
            Mode::Every => (0..m).for_each(visit),
            Mode::Table(table) => walk(rng, m, |k| table.gap(k), visit),
            Mode::Ln(ln_q) => walk(rng, m, |k| float_gap(k, *ln_q).min(m), visit),
        }
    }
}

/// The geometric walk: skip `gap(k)` indices, visit, step past, repeat
/// until the walk leaves `0..m`. `gap` is capped at a bound `≥ m`, which
/// leaves every exit unchanged.
fn walk<R: RngCore + ?Sized>(
    rng: &mut R,
    m: usize,
    gap: impl Fn(u64) -> usize,
    mut visit: impl FnMut(usize),
) {
    let mut i = 0usize;
    loop {
        i += gap(draw53(rng));
        if i >= m {
            return;
        }
        visit(i);
        i += 1;
    }
}

/// Gaps as a lookup: draws are bucketed by the top bits of `k as f64`
/// (exponent plus `52 − shift` mantissa bits, so buckets are
/// log-spaced like the gaps), and each bucket holds at most one change
/// point. Every `k` below the first stored bucket has the capped gap.
#[derive(Debug, Clone)]
struct GapTable {
    shift: u32,
    first: usize,
    buckets: Vec<Bucket>,
}

/// The gap is `below` for draws `k < split`, `above` from `split` on.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    split: u64,
    below: u32,
    above: u32,
}

impl GapTable {
    #[inline]
    fn gap(&self, k: u64) -> usize {
        let b = bucket_of(k, self.shift).saturating_sub(self.first);
        let bucket = self.buckets[b];
        (if k < bucket.split {
            bucket.below
        } else {
            bucket.above
        }) as usize
    }

    /// The table for `ln_q` with gaps capped at `cap`, or `None` if no
    /// table within [`MAX_BUCKETS`] agrees with [`float_gap`] at every
    /// bucket and change-point boundary and their neighbours.
    fn build(ln_q: f64, cap: usize) -> Option<GapTable> {
        if ln_q.is_nan() || ln_q >= 0.0 {
            return None;
        }
        let cap = u32::try_from(cap).ok()?;
        let gap = |k: u64| float_gap(k, ln_q).min(cap as usize) as u32;
        // Draws below `lowest` all read the cap.
        let lowest = first_true(1, K_MAX, |k| gap(k) < cap).min(K_MAX);
        // Refine from one bucket per octave until no bucket holds two
        // change points.
        for shift in (0..=52).rev() {
            let first = bucket_of(lowest, shift);
            let len = bucket_of(K_MAX, shift) - first + 1;
            if len > MAX_BUCKETS {
                return None;
            }
            let mut table = GapTable {
                shift,
                first,
                buckets: Vec::with_capacity(len),
            };
            let filled = (0..len).all(|b| {
                let Some((lo, hi)) = table.range(b) else {
                    // No draw maps here.
                    table.buckets.push(Bucket::default());
                    return true;
                };
                let (below, above) = (gap(lo), gap(hi));
                let split = if below == above {
                    lo
                } else {
                    first_true(lo, hi, |k| gap(k) == above)
                };
                table.buckets.push(Bucket {
                    split,
                    below,
                    above,
                });
                split == lo || gap(split - 1) == below
            });
            if filled {
                let agrees = table.boundaries().all(|k| table.gap(k) as u32 == gap(k));
                return agrees.then_some(table);
            }
        }
        None
    }

    /// The draws `lo..=hi` stored bucket `b` answers for (the first
    /// bucket also answers for every smaller draw), or `None` if empty.
    fn range(&self, b: usize) -> Option<(u64, u64)> {
        let lowest = |b: usize| f64::from_bits((b as u64) << self.shift).ceil() as u64;
        let lo = if b == 0 { 0 } else { lowest(self.first + b) };
        let hi = (lowest(self.first + b + 1) - 1).min(K_MAX);
        (lo <= hi).then_some((lo, hi))
    }

    /// Every bucket edge and change point and the draws either side of
    /// them.
    fn boundaries(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.buckets.len())
            .filter_map(|b| {
                self.range(b)
                    .map(|(lo, hi)| [lo, hi, self.buckets[b].split])
            })
            .flatten()
            .flat_map(|k| [k.saturating_sub(1), k, (k + 1).min(K_MAX)])
    }
}

/// Bucket index of draw `k < 2⁵³`: the top bits of its exact `f64` image
/// (0 for `k = 0`, increasing with `k`). Converting through `i64` is
/// exact below 2⁵³ and takes one instruction.
#[inline]
fn bucket_of(k: u64, shift: u32) -> usize {
    ((k as i64 as f64).to_bits() >> shift) as usize
}

/// Smallest `k` in `lo..=hi` with `pred(k)`, for `pred` false then true
/// over the range; `hi + 1` if it is never true.
fn first_true(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    if !pred(hi) {
        return hi + 1;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The Type I feedback probabilities of one machine, prepared once:
/// `1 − 1/s` (reward a true literal toward include) as an integer
/// compare and `1/s` (erode) as a geometric gap table over the `2n`
/// literals.
#[derive(Debug, Clone)]
pub struct TypeISampler {
    include: Bernoulli,
    erode: GeometricGaps,
}

impl TypeISampler {
    /// The sampler for specificity `s` (> 1, as [`crate::TmParams`]
    /// requires) over clauses of up to `num_features` features.
    pub fn new(specificity: f64, num_features: usize) -> Self {
        let p_low = 1.0 / specificity;
        TypeISampler {
            include: Bernoulli::new(1.0 - p_low),
            erode: GeometricGaps::new(p_low, 2 * num_features),
        }
    }

    /// The `(s − 1)/s` decision.
    pub(crate) fn include(&self) -> Bernoulli {
        self.include
    }

    /// The `1/s` literal walk.
    pub(crate) fn erode(&self) -> &GeometricGaps {
        &self.erode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SPECIFICITIES: [f64; 9] = [2.0, 3.0, 3.5, 4.0, 5.0, 9.0, 10.0, 1.0001, 1e6];
    const LENGTHS: [usize; 4] = [1, 24, 754, 2048];

    /// Checks every table boundary (±1) and `k = 0`; returns the table.
    fn checked(s: f64, m: usize) -> GeometricGaps {
        let p = 1.0 / s;
        let ln_q = (1.0 - p).ln();
        let gaps = GeometricGaps::new(p, m);
        let Mode::Table(table) = &gaps.mode else {
            panic!("s = {s}, m = {m}: no table");
        };
        let want = |k: u64| float_gap(k, ln_q).min(m);
        assert_eq!(gaps.gap(0), m, "s = {s}, m = {m}: k = 0 is an infinite gap");
        for k in table.boundaries() {
            assert_eq!(gaps.gap(k), want(k), "s = {s}, m = {m}, k = {k}");
        }
        gaps
    }

    #[test]
    fn gap_table_matches_ln_at_every_boundary_and_on_random_draws() {
        let mut rng = SmallRng::seed_from_u64(0x6761_7073);
        for s in SPECIFICITIES {
            let ln_q = (1.0 - 1.0 / s).ln();
            let tables: Vec<GeometricGaps> = LENGTHS.iter().map(|&m| checked(s, m)).collect();
            // Uniform draws (what training sees) and log-uniform ones (so
            // every octave, down to k = 1, is hit).
            for i in 0..1_000_000u32 {
                let u = rng.next_u64();
                let k = if i % 2 == 0 {
                    u >> 11
                } else {
                    u >> (11 + u % 53)
                };
                let reference = float_gap(k, ln_q);
                for (gaps, &m) in tables.iter().zip(&LENGTHS) {
                    assert_eq!(gaps.gap(k), reference.min(m), "s = {s}, m = {m}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn table_walk_replays_the_ln_walk() {
        for s in SPECIFICITIES {
            let p = 1.0 / s;
            let ln_q = (1.0 - p).ln();
            for m in LENGTHS {
                let gaps = GeometricGaps::new(p, m);
                let mut fast = SmallRng::seed_from_u64(m as u64);
                let mut slow = fast.clone();
                for _ in 0..200 {
                    let mut got = Vec::new();
                    gaps.for_each(&mut fast, m, |i| got.push(i));
                    let mut want = Vec::new();
                    walk(
                        &mut slow,
                        m,
                        |k| float_gap(k, ln_q).min(m),
                        |i| want.push(i),
                    );
                    assert_eq!(got, want, "s = {s}, m = {m}");
                }
                assert_eq!(fast, slow, "s = {s}, m = {m}: streams diverged");
            }
        }
    }

    #[test]
    fn a_shorter_walk_reads_the_same_table() {
        let gaps = GeometricGaps::new(0.2, 754);
        let ln_q = (0.8f64).ln();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut reference = rng.clone();
        for m in [0, 1, 10, 377, 754] {
            let mut got = Vec::new();
            gaps.for_each(&mut rng, m, |i| got.push(i));
            let mut want = Vec::new();
            if m > 0 {
                walk(
                    &mut reference,
                    m,
                    |k| float_gap(k, ln_q).min(m),
                    |i| want.push(i),
                );
            }
            assert_eq!(got, want, "m = {m}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the sampler")]
    fn a_longer_walk_than_the_table_is_refused() {
        let gaps = GeometricGaps::new(0.2, 24);
        gaps.for_each(&mut SmallRng::seed_from_u64(1), 25, |_| {});
    }

    #[test]
    fn bernoulli_visitor_edge_probabilities() {
        let rng = SmallRng::seed_from_u64(9);
        for (p, visits) in [(0.0, 0), (-1.0, 0), (1.0, 50), (2.0, 50)] {
            let mut after = rng.clone();
            let mut count = 0;
            GeometricGaps::new(p, 50).for_each(&mut after, 50, |_| count += 1);
            assert_eq!(count, visits, "p = {p}");
            assert_eq!(after, rng, "p = {p} drew");
        }
        // 1 − p rounds to 1: ln_q = 0 has no table, and the expression
        // (gap 0 everywhere) is kept.
        let tiny = GeometricGaps::new(1e-17, 8);
        assert!(matches!(tiny.mode, Mode::Ln(_)));
        let mut count = 0;
        tiny.for_each(&mut rng.clone(), 8, |_| count += 1);
        assert_eq!(count, 8);
    }

    #[test]
    fn bernoulli_visitor_hits_expected_fraction() {
        let mut rng = SmallRng::seed_from_u64(42);
        let gaps = GeometricGaps::new(0.1, 100);
        let mut hits = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            gaps.for_each(&mut rng, 100, |_| hits += 1);
        }
        let mean = hits as f64 / trials as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean {mean} not near 10");
    }

    /// `k·2⁻⁵³ < p` decided in `f64`, as `gen::<f64>() < p` does.
    fn float_bernoulli(k: u64, p: f64) -> bool {
        (k as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    #[test]
    fn bernoulli_threshold_matches_the_float_compare() {
        let mut ps = vec![0.0, 1.0, 0.5, 1e-300, -0.25, 1.5, f64::NAN];
        // Every reachable p_update: (T ∓ clamped sum) / 2T.
        for t in [1i32, 8, 15] {
            ps.extend((0..=2 * t).map(|v| f64::from(v) / f64::from(2 * t)));
        }
        // Every p_high = 1 − 1/s.
        ps.extend(SPECIFICITIES.iter().map(|s| 1.0 - 1.0 / s));
        for p in ps {
            let b = Bernoulli::new(p);
            let t = b.threshold;
            for k in [t.saturating_sub(1), t, t + 1, 0, K_MAX] {
                let k = k.min(K_MAX);
                assert_eq!(k < t, float_bernoulli(k, p), "p = {p}, k = {k}");
            }
        }
    }

    #[test]
    fn bernoulli_sample_replays_gen_f64() {
        let mut fast = SmallRng::seed_from_u64(77);
        let mut slow = fast.clone();
        for p in [0.0, 0.2, 8.0 / 30.0, 0.8, 1.0] {
            let b = Bernoulli::new(p);
            for _ in 0..10_000 {
                assert_eq!(b.sample(&mut fast), slow.gen::<f64>() < p, "p = {p}");
            }
        }
    }
}
