//! Common-cube divisor extraction (fast-extract restricted to two-input
//! single-cube divisors).
//!
//! A trained TM window is a *set of cubes* over the same 2W literals. The
//! paper's Fig 3/Fig 5 observation is that literal groups recur across
//! clauses and classes; extracting a recurring pair `a·b` as a shared node
//! converts `count` AND2 instantiations into one divisor plus `count`
//! references — saving `count − 1` gates per extraction. Iterating this to
//! a fixed point (divisors can themselves pair with literals or other
//! divisors) yields the multi-level shared structure that synthesis tools
//! discover with their logic-absorption algorithms.
//!
//! The implementation keeps pair occurrence counts incrementally and uses a
//! lazy max-heap, so each extraction costs `O(cube_len · log)` per
//! rewritten cube rather than a full recount, and it visits only the
//! cubes listed as holding the divisor's rarer operand.
//!
//! The extractor reads its cubes as a [`CubeList`], the slice of the
//! model's window-major literal arena ([`crate::share::WindowLits`]) that
//! window optimization hands it, and only cubes of two or more literals
//! enter it. On a trained model most cubes are empty or a single literal
//! (61% and 24% of perfbench's MNIST design), and skipping them is exact:
//! such a cube holds no pair, so it adds to no count and no divisor can
//! rewrite it, and leaving its literals out keeps item ids ascending in
//! literal order, so ties break as before. Its factored form is the cube
//! itself. [`extract_divisors`] packs a `&[Cube]` into an arena and runs
//! the same extractor.

use crate::cube::{Cube, CubeArena, CubeList, Lit};
use crate::hash::WordMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An element of a factored cube: either an original literal or a reference
/// to an extracted divisor.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Item {
    /// An input literal.
    Lit(Lit),
    /// The `i`-th extracted divisor.
    Div(u32),
}

/// A two-input divisor: the AND of two items.
pub type Divisor = (Item, Item);

/// Result of divisor extraction over a cube set.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Extraction {
    /// Extracted divisors, index `i` referenced as [`Item::Div`]`(i)`.
    /// A divisor's operands only reference literals or *earlier* divisors.
    pub divisors: Vec<Divisor>,
    /// Each input cube rewritten over literals + divisors (sorted).
    pub cubes: Vec<Vec<Item>>,
    /// Whether [`ExtractOptions::max_candidates`] tripped and factoring
    /// was skipped outright — distinguishes "the optimizer gave up on a
    /// pathologically dense input" from "no shareable pairs exist", so
    /// gate-savings reports can flag the shed effort instead of quietly
    /// reading as zero sharing.
    pub budget_exceeded: bool,
}

impl Extraction {
    /// AND2 gates needed by the factored form: one per divisor plus
    /// `len−1` per rewritten cube (before any structural dedup of
    /// identical cubes).
    pub fn and2_cost(&self) -> usize {
        self.divisors.len()
            + self
                .cubes
                .iter()
                .map(|c| c.len().saturating_sub(1))
                .sum::<usize>()
    }

    /// Evaluates rewritten cube `idx` against an input window, resolving
    /// divisors recursively. Used by equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or a literal reads past `input`.
    pub fn eval_cube(&self, idx: usize, input: &tsetlin::bits::BitVec) -> bool {
        self.cubes[idx].iter().all(|&it| self.eval_item(it, input))
    }

    fn eval_item(&self, item: Item, input: &tsetlin::bits::BitVec) -> bool {
        match item {
            Item::Lit(l) => l.eval(input),
            Item::Div(d) => {
                let (a, b) = self.divisors[d as usize];
                self.eval_item(a, input) && self.eval_item(b, input)
            }
        }
    }
}

/// Default candidate-pair budget used by [`ExtractOptions::budgeted`] —
/// the density guard `matador_logic::share` wires through window
/// optimization. Sized well above any trained window (a sparse
/// 2000-clause, 64-bit window sits around 10⁶ candidate pairs) while
/// cutting off the pathological dense regime (under-trained models with
/// near-full include masks reach ~10⁷) where extraction work grows
/// quadratically for negligible gate savings.
pub const DEFAULT_MAX_CANDIDATES: usize = 4_000_000;

/// Options for [`extract_divisors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExtractOptions {
    /// Stop after this many divisors (0 = unbounded).
    pub max_divisors: usize,
    /// Minimum occurrence count for a pair to be extracted (≥ 2).
    pub min_count: usize,
    /// Density budget: when the candidate-pair mass `Σ_cube C(len, 2)`
    /// exceeds this, extraction is skipped outright and cubes pass
    /// through unfactored (0 = unbounded). Structural hashing downstream
    /// still dedups identical cubes, and functional behaviour is
    /// unchanged — only the factoring effort is shed.
    pub max_candidates: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            max_divisors: 0,
            min_count: 2,
            max_candidates: 0,
        }
    }
}

impl ExtractOptions {
    /// Defaults plus the [`DEFAULT_MAX_CANDIDATES`] density budget — what
    /// the model-partitioning path uses, so pathologically dense
    /// (under-trained) windows no longer make generation quadratic-slow.
    pub fn budgeted() -> Self {
        ExtractOptions {
            max_candidates: DEFAULT_MAX_CANDIDATES,
            ..ExtractOptions::default()
        }
    }
}

/// Extracts shared two-input divisors from `cubes` until no pair of items
/// co-occurs in at least `min_count` cubes.
///
/// Deterministic: ties between equally frequent pairs break toward the
/// smallest pair in `Item` order.
///
/// Items are numbered densely while extracting: the distinct literals
/// first, ascending by code, then the divisors in extraction order, so
/// id order is `Item` order; a table indexed by literal code, linear in
/// the largest code, assigns them. Pairs of the first 128 literals (all
/// of a 64-bit window's) are counted in a dense table, every other pair
/// in a hash map, and only the pairs counted seed the heap. Each item
/// keeps the ascending list of cubes that hold it, so applying a divisor
/// visits only the cubes holding its rarer operand. Cubes of fewer than
/// two literals pass through untouched (see the module docs).
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::extract::{extract_divisors, ExtractOptions};
///
/// // Three clauses sharing the pair x0·x1.
/// let cubes = vec![
///     Cube::from_lits([Lit::pos(0), Lit::pos(1), Lit::pos(2)]),
///     Cube::from_lits([Lit::pos(0), Lit::pos(1), Lit::neg(3)]),
///     Cube::from_lits([Lit::pos(0), Lit::pos(1)]),
/// ];
/// let ex = extract_divisors(&cubes, ExtractOptions::default());
/// assert_eq!(ex.divisors.len(), 1);
/// // Naive: 2+2+1 = 5 AND2. Factored: 1 divisor + 1 + 1 + 0 = 3.
/// assert_eq!(ex.and2_cost(), 3);
/// ```
pub fn extract_divisors(cubes: &[Cube], options: ExtractOptions) -> Extraction {
    let arena = CubeArena::from_cubes(cubes);
    factor(arena.list(), options).to_extraction(arena.list())
}

/// The factored form [`factor`] builds: dense item ids, as
/// [`extract_divisors`] numbers them, over the cubes of two or more
/// literals.
#[derive(Debug)]
pub(crate) struct Factored {
    /// The literal of each literal id, ascending by code; ids from
    /// `lits.len()` up are the divisors, in extraction order.
    pub(crate) lits: Vec<Lit>,
    /// Each divisor's two operand ids, the smaller first.
    pub(crate) divisors: Vec<(u32, u32)>,
    /// The rewritten items of every cube of two or more literals, in
    /// cube order, back to back; each is sorted.
    pub(crate) items: Vec<u32>,
    /// Start and length in `items` of each such cube.
    pub(crate) spans: Vec<(u32, u32)>,
    /// See [`Extraction::budget_exceeded`].
    pub(crate) budget_exceeded: bool,
}

impl Factored {
    /// The [`Item`] of id `id`.
    pub(crate) fn item(&self, id: u32) -> Item {
        match self.lits.get(id as usize) {
            Some(&l) => Item::Lit(l),
            None => Item::Div(id - self.lits.len() as u32),
        }
    }

    /// The [`Extraction`] of `cubes`, the list this form was factored
    /// from: a cube of fewer than two literals passes through as is.
    pub(crate) fn to_extraction(&self, cubes: CubeList<'_>) -> Extraction {
        let mut spans = self.spans.iter();
        Extraction {
            divisors: (self.divisors.iter())
                .map(|&(a, b)| (self.item(a), self.item(b)))
                .collect(),
            cubes: cubes
                .iter()
                .map(|lits| match lits.len() {
                    0 | 1 => lits.iter().map(|&l| Item::Lit(l)).collect(),
                    _ => {
                        let &(start, len) = spans.next().expect("one span per factored cube");
                        (self.items[start as usize..(start + len) as usize].iter())
                            .map(|&id| self.item(id))
                            .collect()
                    }
                })
                .collect(),
            budget_exceeded: self.budget_exceeded,
        }
    }
}

/// The extractor behind [`extract_divisors`] and window optimization.
///
/// Only cubes of two or more literals take part: a cube of fewer holds
/// no pair, so no divisor can rewrite it, and its literals neither count
/// toward a pair nor change the order of the ids the others get. The
/// others' items live in one arena; pairs are counted as they are first
/// seen and only those seed the heap.
pub(crate) fn factor(cubes: CubeList<'_>, options: ExtractOptions) -> Factored {
    let min_count = options.min_count.max(2);

    // Sizes: the factored cubes, their items, the largest literal code
    // and the candidate-pair mass the density budget bounds.
    let (mut factored, mut total, mut codes, mut pair_mass) = (0usize, 0usize, 0usize, 0usize);
    for cube in cubes.iter().filter(|c| c.len() >= 2) {
        factored += 1;
        total += cube.len();
        codes = codes.max(cube[cube.len() - 1].code() as usize + 1);
        pair_mass += cube.len() * (cube.len() - 1) / 2;
    }
    // Density early-out: both the initial pair count-up below and the
    // per-extraction rewrite passes scale with the candidate-pair mass,
    // so a budget violation keeps the identity factoring and does no
    // quadratic work.
    let budget_exceeded = options.max_candidates != 0 && pair_mass > options.max_candidates;

    // Every factored cube's items, back to back. A rewrite replaces two
    // items by one, so a cube keeps its start and shrinks in place. The
    // arena first holds literal codes, counted per code.
    let mut items: Vec<u32> = Vec::with_capacity(total);
    let mut spans: Vec<(u32, u32)> = Vec::with_capacity(factored);
    let mut per_code: Vec<u32> = vec![0; codes];
    for cube in cubes.iter().filter(|c| c.len() >= 2) {
        spans.push((items.len() as u32, cube.len() as u32));
        for l in cube {
            per_code[l.code() as usize] += 1;
            items.push(l.code());
        }
    }

    // Dense literal ids, ascending by code. Each literal's holder list
    // is a run of `holders` sized to its occurrences.
    let mut lits: Vec<Lit> = Vec::new();
    let mut holder_runs: Vec<(u32, u32)> = Vec::new();
    let mut next_run = 0u32;
    for (code, n) in per_code.iter_mut().enumerate() {
        if *n != 0 {
            holder_runs.push((next_run, 0));
            next_run += *n;
            *n = lits.len() as u32;
            lits.push(Lit::from_code(code as u32));
        }
    }
    for item in &mut items {
        *item = per_code[*item as usize];
    }
    if budget_exceeded {
        return Factored {
            lits,
            divisors: Vec::new(),
            items,
            spans,
            budget_exceeded,
        };
    }

    let mut holders: Vec<u32> = vec![0; next_run as usize];
    let mut counts = PairCounts::new(lits.len());
    // Heap entries of every pair seen, counted once counting is done.
    let mut seen: Vec<(u32, Reverse<u64>)> = Vec::new();
    for (c, &(start, len)) in spans.iter().enumerate() {
        let cube = &items[start as usize..(start + len) as usize];
        for (i, &a) in cube.iter().enumerate() {
            let run = &mut holder_runs[a as usize];
            holders[(run.0 + run.1) as usize] = c as u32;
            run.1 += 1;
            for &b in &cube[i + 1..] {
                let n = counts.slot(a, b);
                if *n == 0 {
                    seen.push((0, Reverse(pair_key(a, b))));
                }
                *n += 1;
            }
        }
    }
    for (count, Reverse(key)) in &mut seen {
        *count = counts.get((*key >> 32) as u32, *key as u32);
    }
    let mut heap = BinaryHeap::from(seen);

    let mut divisors: Vec<(u32, u32)> = Vec::new();
    let mut rewritten: Vec<u32> = Vec::new();
    while let Some((count, Reverse(key))) = heap.pop() {
        if (count as usize) < min_count {
            break;
        }
        let (a, b) = ((key >> 32) as u32, key as u32);
        // Lazy heap: skip stale entries; re-queue pairs whose count shrank
        // (decrements do not push, so the shrunken count may be absent).
        match counts.get(a, b) {
            c if c == count => {}
            c if c as usize >= min_count => {
                // c < count here (the heap pops maxima first), so re-pushes
                // strictly decrease and the loop terminates.
                heap.push((c, Reverse(key)));
                continue;
            }
            _ => continue,
        }
        if options.max_divisors != 0 && divisors.len() >= options.max_divisors {
            break;
        }
        // The newest divisor outranks every item, so it goes last in a
        // sorted cube.
        let d = (lits.len() + divisors.len()) as u32;
        divisors.push((a, b));
        *counts.slot(a, b) = 0;

        // Rewrite every cube containing both items: only cubes holding
        // the rarer one can. Its run drops the rewritten cubes and any
        // stale entries; the other run is filtered when next used.
        let rarer = if holder_runs[a as usize].1 <= holder_runs[b as usize].1 {
            a
        } else {
            b
        };
        let (run_start, run_len) = holder_runs[rarer as usize];
        let mut kept = 0;
        for r in run_start..run_start + run_len {
            let c = holders[r as usize] as usize;
            let (start, len) = spans[c];
            let (start, len) = (start as usize, len as usize);
            let cube = &mut items[start..start + len];
            let (ia, ib) = (cube.binary_search(&a), cube.binary_search(&b));
            let (Ok(ia), Ok(ib)) = (ia, ib) else {
                let held = if rarer == a { ia } else { ib };
                if held.is_ok() {
                    holders[(run_start + kept) as usize] = c as u32;
                    kept += 1;
                }
                continue;
            };
            debug_assert!(ia < ib);
            // Decrement pair counts of the removed items vs the rest.
            for (k, &t) in cube.iter().enumerate() {
                if k != ia && k != ib {
                    *counts.slot(a.min(t), a.max(t)) -= 1;
                    *counts.slot(b.min(t), b.max(t)) -= 1;
                }
            }
            cube.copy_within(ia + 1..ib, ia);
            cube.copy_within(ib + 1.., ib - 1);
            cube[len - 2] = d;
            spans[c].1 -= 1;
            // Bump the divisor's pair counts vs the remainder.
            for &t in &cube[..len - 2] {
                let n = counts.slot(t, d);
                *n += 1;
                heap.push((*n, Reverse(pair_key(t, d))));
            }
            rewritten.push(c as u32);
        }
        holder_runs[rarer as usize].1 = kept;
        holder_runs.push((holders.len() as u32, rewritten.len() as u32));
        holders.append(&mut rewritten);
    }

    Factored {
        lits,
        divisors,
        items,
        spans,
        budget_exceeded: false,
    }
}

/// Heap key of the item pair `a < b`: its `u64` order is the pair order.
fn pair_key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Literal ids below this count their pairs in [`PairCounts`]'s dense
/// table: the literals of a 64-bit window, a 64 KiB table.
const DENSE_LITS: usize = 128;

/// Co-occurrence counts of item pairs `(a, b)`, `a < b`; an absent pair
/// counts 0.
struct PairCounts {
    /// Ids below this are dense: the first [`DENSE_LITS`] literals.
    dense_ids: usize,
    /// Counts of pairs of dense ids, row `a`, column `b`.
    dense: Vec<u32>,
    /// Counts of the other pairs (those with a divisor or a literal past
    /// the dense ones).
    sparse: WordMap<u64, u32>,
}

impl PairCounts {
    fn new(lits: usize) -> Self {
        let dense_ids = lits.min(DENSE_LITS);
        PairCounts {
            dense_ids,
            dense: vec![0; dense_ids * dense_ids],
            sparse: WordMap::default(),
        }
    }

    fn get(&self, a: u32, b: u32) -> u32 {
        if (b as usize) < self.dense_ids {
            self.dense[a as usize * self.dense_ids + b as usize]
        } else {
            self.sparse.get(&pair_key(a, b)).copied().unwrap_or(0)
        }
    }

    fn slot(&mut self, a: u32, b: u32) -> &mut u32 {
        if (b as usize) < self.dense_ids {
            &mut self.dense[a as usize * self.dense_ids + b as usize]
        } else {
            self.sparse.entry(pair_key(a, b)).or_insert(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{LogicDag, Sharing};
    use crate::share::WindowLits;
    use std::collections::HashMap;
    use tsetlin::bits::BitVec;
    use tsetlin::model::{IncludeMask, TrainedModel};

    type Pair = (Item, Item);

    fn ordered(a: Item, b: Item) -> Pair {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The full-scan extraction [`extract_divisors`] must reproduce:
    /// every extraction scans every cube for the pair, and pair counts
    /// live in one hash map.
    fn extract_divisors_reference(cubes: &[Cube], options: ExtractOptions) -> Extraction {
        let min_count = options.min_count.max(2);
        let mut work: Vec<Vec<Item>> = cubes
            .iter()
            .map(|c| c.lits().iter().map(|&l| Item::Lit(l)).collect())
            .collect();
        if options.max_candidates != 0 {
            let pair_mass: usize = work
                .iter()
                .map(|c| c.len() * c.len().saturating_sub(1) / 2)
                .sum();
            if pair_mass > options.max_candidates {
                return Extraction {
                    divisors: Vec::new(),
                    cubes: work,
                    budget_exceeded: true,
                };
            }
        }
        let mut counts: HashMap<Pair, i64> = HashMap::new();
        for cube in &work {
            for i in 0..cube.len() {
                for j in i + 1..cube.len() {
                    *counts.entry(ordered(cube[i], cube[j])).or_insert(0) += 1;
                }
            }
        }
        let mut heap: BinaryHeap<(i64, Reverse<Pair>)> =
            counts.iter().map(|(&p, &c)| (c, Reverse(p))).collect();
        let mut divisors: Vec<Divisor> = Vec::new();
        while let Some((count, Reverse(pair))) = heap.pop() {
            if count < min_count as i64 {
                break;
            }
            match counts.get(&pair) {
                Some(&c) if c == count => {}
                Some(&c) if c >= min_count as i64 => {
                    heap.push((c, Reverse(pair)));
                    continue;
                }
                _ => continue,
            }
            if options.max_divisors != 0 && divisors.len() >= options.max_divisors {
                break;
            }
            let d = Item::Div(divisors.len() as u32);
            divisors.push(pair);
            counts.remove(&pair);
            for cube in &mut work {
                let ia = cube.binary_search(&pair.0);
                let ib = cube.binary_search(&pair.1);
                let (Ok(ia), Ok(ib)) = (ia, ib) else { continue };
                for (k, &t) in cube.iter().enumerate() {
                    if k != ia && k != ib {
                        decrement(&mut counts, ordered(pair.0, t));
                        decrement(&mut counts, ordered(pair.1, t));
                    }
                }
                cube.remove(ib);
                cube.remove(ia);
                let pos = cube.binary_search(&d).unwrap_or_else(|e| e);
                cube.insert(pos, d);
                for &t in cube.iter() {
                    if t != d {
                        increment(&mut counts, &mut heap, ordered(d, t));
                    }
                }
            }
        }
        Extraction {
            divisors,
            cubes: work,
            budget_exceeded: false,
        }
    }

    fn decrement(counts: &mut HashMap<Pair, i64>, pair: Pair) {
        if let Some(c) = counts.get_mut(&pair) {
            *c -= 1;
            if *c <= 0 {
                counts.remove(&pair);
            }
        }
    }

    fn increment(
        counts: &mut HashMap<Pair, i64>,
        heap: &mut BinaryHeap<(i64, Reverse<Pair>)>,
        pair: Pair,
    ) {
        let c = counts.entry(pair).or_insert(0);
        *c += 1;
        heap.push((*c, Reverse(pair)));
    }

    /// SplitMix64 draws below `bound`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    /// `count` random cubes over a `width`-bit window: each literal is
    /// included with probability `1 / one_in`, and a third of the cubes
    /// copy an earlier cube with one literal toggled, so pairs recur.
    fn random_cubes(width: u32, count: usize, one_in: u64, seed: u64) -> Vec<Cube> {
        let mut next = rng(seed);
        let mut cubes: Vec<Cube> = Vec::with_capacity(count);
        for _ in 0..count {
            let cube = if !cubes.is_empty() && next(3) == 0 {
                let mut lits = cubes[next(cubes.len() as u64) as usize].lits().to_vec();
                let l = Lit::from_code(next(2 * u64::from(width)) as u32);
                match lits.iter().position(|&x| x == l) {
                    Some(i) => {
                        lits.remove(i);
                    }
                    None => lits.push(l),
                }
                Cube::from_lits(lits)
            } else {
                Cube::from_lits(
                    (0..2 * width)
                        .filter(|_| next(one_in) == 0)
                        .map(Lit::from_code),
                )
            };
            cubes.push(cube);
        }
        cubes
    }

    #[test]
    fn matches_the_full_scan_reference() {
        let options = [
            ExtractOptions::default(),
            ExtractOptions {
                max_divisors: 3,
                ..ExtractOptions::default()
            },
            ExtractOptions {
                min_count: 3,
                ..ExtractOptions::default()
            },
            ExtractOptions::budgeted(),
        ];
        let mut seed = 0;
        // Width 100 has literals past the dense pair table.
        for width in [4, 5, 32, 64, 100] {
            let mut extracted = 0;
            // Sparse (trained-like) and dense (under-trained-like) sets.
            for (count, one_in) in [(200, 12), (24, 2)] {
                for _ in 0..2 {
                    seed += 1;
                    let cubes = random_cubes(width, count, one_in, seed);
                    for options in options {
                        let ex = extract_divisors(&cubes, options);
                        assert_eq!(
                            ex,
                            extract_divisors_reference(&cubes, options),
                            "width {width} count {count} one_in {one_in} seed {seed} {options:?}"
                        );
                        extracted += ex.divisors.len();
                    }
                }
            }
            assert!(extracted > 0, "width {width} extracted nothing");
        }
    }

    /// A seeded model whose windows hold every cube shape the arena
    /// path treats apart: empty, single-literal, `x ∧ ¬x` and duplicate
    /// clauses among sparse random ones.
    fn shaped_model(features: usize, clauses: usize, seed: u64) -> TrainedModel {
        let mut next = rng(seed);
        let mut masks: Vec<IncludeMask> = Vec::with_capacity(clauses);
        for _ in 0..clauses {
            let mut mask = IncludeMask::empty(features);
            match next(6) {
                0 => {}
                1 => {
                    let bit = next(features as u64) as usize;
                    if next(2) == 0 {
                        mask.pos.set(bit, true);
                    } else {
                        mask.neg.set(bit, true);
                    }
                }
                2 if !masks.is_empty() => mask = masks[next(masks.len() as u64) as usize].clone(),
                _ => {
                    for bit in 0..features {
                        if next(30) == 0 {
                            mask.pos.set(bit, true);
                        }
                        if next(30) == 0 {
                            mask.neg.set(bit, true);
                        }
                    }
                }
            }
            if next(8) == 0 {
                // x ∧ ¬x on one feature.
                let bit = next(features as u64) as usize;
                mask.pos.set(bit, true);
                mask.neg.set(bit, true);
            }
            masks.push(mask);
        }
        TrainedModel::from_masks(features, 1, clauses, masks)
    }

    #[test]
    fn arena_listing_and_extraction_match_the_references() {
        let mut divisors = 0;
        for (features, clauses, seed) in [(130, 90, 41), (391, 160, 42), (64, 200, 43)] {
            let model = shaped_model(features, clauses, seed);
            for w in [5, 64, 65, 130] {
                let arena = WindowLits::new(&model, w);
                assert_eq!(arena.num_windows(), features.div_ceil(w));
                for k in 0..arena.num_windows() {
                    let at = format!("features {features} seed {seed} W {w} window {k}");
                    let list = arena.window(k);
                    let cubes: Vec<Cube> = model
                        .iter_clauses()
                        .map(|(_, _, mask)| Cube::from_mask(&mask.window(k * w, w)))
                        .collect();
                    assert_eq!(list.to_cubes(), cubes, "{at}");
                    assert_eq!(arena.width(k), w.min(features - k * w), "{at}");
                    for options in [ExtractOptions::default(), ExtractOptions::budgeted()] {
                        let reference = extract_divisors_reference(&cubes, options);
                        let factored = factor(list, options);
                        assert_eq!(factored.to_extraction(list), reference, "{at}");
                        divisors += reference.divisors.len();
                        assert_eq!(extract_divisors(&cubes, options), reference, "{at}");
                        // The DAG read from the factored form is the one
                        // built from the reference extraction.
                        let width = arena.width(k);
                        let got = LogicDag::from_factored(width, list, &factored, Sharing::Enabled);
                        let want = LogicDag::from_extraction(width, &reference, Sharing::Enabled);
                        assert_eq!(got.nodes(), want.nodes(), "{at}");
                        assert_eq!(got.outputs(), want.outputs(), "{at}");
                    }
                }
            }
        }
        assert!(divisors > 0, "no window shared a pair");
    }

    #[test]
    fn budget_early_out_matches_the_reference() {
        for (width, seed) in [(32, 101), (64, 102)] {
            let cubes = random_cubes(width, 40, 2, seed);
            let mass: usize = cubes.iter().map(|c| c.len() * (c.len() - 1) / 2).sum();
            for max_candidates in [mass - 1, mass] {
                let options = ExtractOptions {
                    max_candidates,
                    ..ExtractOptions::default()
                };
                let ex = extract_divisors(&cubes, options);
                assert_eq!(ex.budget_exceeded, max_candidates < mass);
                assert_eq!(ex, extract_divisors_reference(&cubes, options));
            }
        }
    }

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_lits(
            lits.iter()
                .map(|&(b, n)| if n { Lit::neg(b) } else { Lit::pos(b) }),
        )
    }

    #[test]
    fn no_sharing_no_divisors() {
        let cubes = vec![
            cube(&[(0, false), (1, false)]),
            cube(&[(2, false), (3, false)]),
        ];
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        assert!(ex.divisors.is_empty());
        assert_eq!(ex.and2_cost(), 2);
    }

    #[test]
    fn extraction_preserves_function() {
        // Random-ish overlapping cubes over 8 bits.
        let cubes = vec![
            cube(&[(0, false), (1, true), (4, false)]),
            cube(&[(0, false), (1, true), (5, false)]),
            cube(&[(0, false), (1, true)]),
            cube(&[(2, false), (3, false), (0, false), (1, true)]),
            cube(&[(6, true), (7, true)]),
        ];
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        assert!(!ex.divisors.is_empty());
        for v in 0..256u32 {
            let input = BitVec::from_bools((0..8).map(|b| (v >> b) & 1 == 1));
            for (i, c) in cubes.iter().enumerate() {
                assert_eq!(
                    ex.eval_cube(i, &input),
                    c.eval(&input),
                    "cube {i} diverges on input {v:08b}"
                );
            }
        }
    }

    #[test]
    fn extraction_reduces_cost() {
        // 10 cubes all sharing a 3-literal core.
        let core = [(0u32, false), (1, false), (2, true)];
        let cubes: Vec<Cube> = (0..10)
            .map(|i| {
                let mut lits = core.to_vec();
                lits.push((3 + i, false));
                cube(&lits)
            })
            .collect();
        let naive: usize = cubes.iter().map(Cube::and2_cost).sum();
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        assert!(ex.and2_cost() < naive, "{} !< {naive}", ex.and2_cost());
        // Multi-level: the 3-literal core needs two chained divisors.
        assert!(ex.divisors.len() >= 2);
    }

    #[test]
    fn identical_cubes_collapse_to_single_divisor_reference() {
        let c = cube(&[(0, false), (5, true)]);
        let cubes = vec![c.clone(), c.clone(), c];
        let ex = extract_divisors(&cubes, ExtractOptions::default());
        assert_eq!(ex.divisors.len(), 1);
        for rewritten in &ex.cubes {
            assert_eq!(rewritten.len(), 1);
        }
        assert_eq!(ex.and2_cost(), 1);
    }

    #[test]
    fn max_divisors_caps_extraction() {
        let cubes: Vec<Cube> = (0..6)
            .map(|i| cube(&[(0, false), (1, false), (2 + i, false)]))
            .collect();
        let ex = extract_divisors(
            &cubes,
            ExtractOptions {
                max_divisors: 1,
                ..ExtractOptions::default()
            },
        );
        assert_eq!(ex.divisors.len(), 1);
    }

    #[test]
    fn density_budget_skips_factoring_but_preserves_function() {
        // Dense overlapping cubes: mass = 3 * C(6, 2) = 45 pairs.
        let cubes: Vec<Cube> = (0..3)
            .map(|i| {
                cube(&[
                    (0, false),
                    (1, false),
                    (2, true),
                    (3, false),
                    (4, true),
                    (5 + i, false),
                ])
            })
            .collect();
        let over_budget = extract_divisors(
            &cubes,
            ExtractOptions {
                max_candidates: 44,
                ..ExtractOptions::default()
            },
        );
        assert!(over_budget.divisors.is_empty());
        assert!(over_budget.budget_exceeded);
        // Identity factoring: each cube passes through unfactored…
        for (rewritten, original) in over_budget.cubes.iter().zip(&cubes) {
            assert_eq!(rewritten.len(), original.lits().len());
        }
        // …and evaluates exactly like the source cubes.
        for v in 0..256u32 {
            let input = BitVec::from_bools((0..8).map(|b| (v >> b) & 1 == 1));
            for (i, c) in cubes.iter().enumerate() {
                assert_eq!(over_budget.eval_cube(i, &input), c.eval(&input));
            }
        }
        // A budget at the mass is not a violation: factoring proceeds and
        // matches the unbudgeted result.
        let at_budget = extract_divisors(
            &cubes,
            ExtractOptions {
                max_candidates: 45,
                ..ExtractOptions::default()
            },
        );
        assert_eq!(
            at_budget,
            extract_divisors(&cubes, ExtractOptions::default())
        );
        assert!(!at_budget.divisors.is_empty());
        assert!(!at_budget.budget_exceeded);
    }

    #[test]
    fn budgeted_defaults_leave_sparse_inputs_untouched() {
        let cubes = vec![
            cube(&[(0, false), (1, true), (4, false)]),
            cube(&[(0, false), (1, true), (5, false)]),
            cube(&[(0, false), (1, true)]),
        ];
        assert_eq!(
            extract_divisors(&cubes, ExtractOptions::budgeted()),
            extract_divisors(&cubes, ExtractOptions::default())
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let ex = extract_divisors(&[], ExtractOptions::default());
        assert!(ex.divisors.is_empty());
        assert!(ex.cubes.is_empty());
        assert_eq!(ex.and2_cost(), 0);
    }

    #[test]
    fn empty_cubes_stay_empty() {
        let ex = extract_divisors(&[Cube::one(), Cube::one()], ExtractOptions::default());
        assert_eq!(ex.cubes, vec![Vec::<Item>::new(), Vec::new()]);
    }

    #[test]
    fn deterministic_output() {
        let cubes = vec![
            cube(&[(0, false), (1, false), (2, false)]),
            cube(&[(1, false), (2, false), (3, false)]),
            cube(&[(0, false), (2, false), (3, false)]),
        ];
        let a = extract_divisors(&cubes, ExtractOptions::default());
        let b = extract_divisors(&cubes, ExtractOptions::default());
        assert_eq!(a, b);
    }
}
