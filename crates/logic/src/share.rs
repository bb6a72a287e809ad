//! Model-level logic-sharing analysis and window optimization — the
//! quantitative backing for the paper's Fig 3 observation and the Fig 8
//! DON'T TOUCH experiment.
//!
//! A model is listed once, into [`WindowLits`]: one window-major arena of
//! literals plus the end of each (window, clause) cube. Every generation
//! stage reads that arena — prefix-register counting, divisor extraction
//! and the DAG build through [`optimize_window`], and verification's
//! expected clause outputs — so the flow allocates per window, not per
//! cube. [`window_cubes`] is a view of it as [`Cube`] values.

use crate::cube::{Cube, CubeList, Lit};
use crate::dag::{LogicDag, Sharing};
use crate::extract::{factor, ExtractOptions};
use std::collections::HashMap;
use tsetlin::model::{IncludeMask, TrainedModel};

/// Gate-level sharing statistics for one bandwidth window.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowGateStats {
    /// Window index (HCB position).
    pub window: usize,
    /// AND2 gates if every clause's cube is instantiated verbatim.
    pub naive_and2: usize,
    /// AND2 gates after structural hashing only.
    pub hashed_and2: usize,
    /// AND2 gates after divisor extraction + structural hashing.
    pub extracted_and2: usize,
    /// Divisors extracted in this window.
    pub divisors: usize,
}

impl WindowGateStats {
    /// Fraction of naive gates eliminated by the full optimization.
    pub fn reduction(&self) -> f64 {
        if self.naive_and2 == 0 {
            0.0
        } else {
            1.0 - self.extracted_and2 as f64 / self.naive_and2 as f64
        }
    }
}

/// Every window's cubes of a model, listed once from its include masks:
/// one window-major literal arena plus the end of each (window, clause)
/// cube, class-major within a window. Each cube's literals are
/// re-indexed from the window's first feature, in canonical order.
///
/// This is the only form the generation flow lists a model in: window
/// optimization ([`optimize_window`]), prefix-register counting and
/// verification's expected clause outputs all read it, and
/// [`window_cubes`] is a view of it. On trained models most cubes are
/// empty, so the arena costs a few bytes per cube and one allocation per
/// model rather than one per cube.
///
/// # Examples
///
/// ```
/// use matador_logic::share::WindowLits;
/// use tsetlin::bits::BitVec;
/// use tsetlin::model::{IncludeMask, TrainedModel};
///
/// // One clause `x1 ∧ ¬x5` over 8 features, in windows of 4.
/// let mask = IncludeMask {
///     pos: BitVec::from_indices(8, &[1]),
///     neg: BitVec::from_indices(8, &[5]),
/// };
/// let model = TrainedModel::from_masks(8, 1, 1, vec![mask]);
/// let lits = WindowLits::new(&model, 4);
/// assert_eq!(lits.num_windows(), 2);
/// assert_eq!(lits.window(0).to_cubes()[0].to_string(), "x1");
/// assert_eq!(lits.window(1).to_cubes()[0].to_string(), "~x1");
/// ```
#[derive(Debug, Clone)]
pub struct WindowLits {
    window_bits: usize,
    features: usize,
    clauses: usize,
    /// Window 0's cubes' literals in clause order, then window 1's, ….
    lits: Vec<Lit>,
    /// `ends[w * clauses + c]`: the end of cube `(w, c)`, counted from
    /// window `w`'s first literal.
    ends: Vec<u32>,
    /// Where each window's literals start in `lits`, then `lits.len()`.
    starts: Vec<usize>,
}

impl WindowLits {
    /// Lists `model`'s cubes over windows of `window_bits` features (the
    /// last window may be narrower). Literals are read 64 features at a
    /// time from the mask words, in code order (`x_b` before `¬x_b`,
    /// ascending `b`), so nothing is sorted.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is 0.
    pub fn new(model: &TrainedModel, window_bits: usize) -> Self {
        assert!(window_bits > 0, "window width must be positive");
        let n = model.num_features();
        let windows = n.div_ceil(window_bits);
        let masks: Vec<&IncludeMask> = model.iter_clauses().map(|(_, _, mask)| mask).collect();
        let mut lits = Vec::with_capacity(masks.iter().map(|m| m.num_includes()).sum());
        let mut ends = Vec::with_capacity(windows * masks.len());
        let mut starts = Vec::with_capacity(windows + 1);
        for w in 0..windows {
            let (start, end) = (w * window_bits, ((w + 1) * window_bits).min(n));
            let base = lits.len();
            starts.push(base);
            for mask in &masks {
                for at in (start..end).step_by(64) {
                    let width = (end - at).min(64);
                    let pos = mask.pos.extract_word(at, width);
                    let neg = mask.neg.extract_word(at, width);
                    let mut rest = pos | neg;
                    while rest != 0 {
                        let b = rest.trailing_zeros();
                        let bit = (at - start) as u32 + b;
                        if (pos >> b) & 1 == 1 {
                            lits.push(Lit::pos(bit));
                        }
                        if (neg >> b) & 1 == 1 {
                            lits.push(Lit::neg(bit));
                        }
                        rest &= rest - 1;
                    }
                }
                ends.push(u32::try_from(lits.len() - base).expect("window literals fit u32"));
            }
        }
        starts.push(lits.len());
        WindowLits {
            window_bits,
            features: n,
            clauses: masks.len(),
            lits,
            ends,
            starts,
        }
    }

    /// Number of windows (HCBs).
    pub fn num_windows(&self) -> usize {
        self.starts.len() - 1
    }

    /// Features in window `w`: the window width, or fewer in the last.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn width(&self, w: usize) -> usize {
        assert!(w < self.num_windows(), "window out of range");
        self.window_bits.min(self.features - w * self.window_bits)
    }

    /// Window `w`'s cubes, one per clause, class-major.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn window(&self, w: usize) -> CubeList<'_> {
        CubeList::new(
            &self.lits[self.starts[w]..self.starts[w + 1]],
            &self.ends[w * self.clauses..(w + 1) * self.clauses],
        )
    }

    /// Every window's cubes as values, window-major.
    pub fn to_cubes(&self) -> Vec<Vec<Cube>> {
        (0..self.num_windows())
            .map(|w| self.window(w).to_cubes())
            .collect()
    }

    /// Distinct *cumulative* partial-clause signals after each window;
    /// see [`prefix_register_counts`].
    ///
    /// Linear in the listing: each clause carries a prefix-class id that
    /// is refined one window at a time. Two clauses have equal prefixes
    /// through a window exactly when they had equal prefixes before it
    /// and their cubes in it are equal. An empty cube refines no class,
    /// so it maps its clause's class through a table indexed by class id;
    /// only the other cubes are hashed (with the default hasher: the key
    /// is model content), one insert per clause and window.
    pub fn prefix_register_counts(&self) -> Vec<usize> {
        let mut class = vec![0u32; self.clauses];
        // Per class id before the window: its id after it when the cube
        // is empty (`u32::MAX` until one is).
        let mut empty_to: Vec<u32> = Vec::new();
        let mut ids: HashMap<(u32, &[Lit]), u32> = HashMap::with_capacity(self.clauses);
        let mut classes = usize::from(self.clauses > 0);
        let mut counts = Vec::with_capacity(self.num_windows());
        for w in 0..self.num_windows() {
            empty_to.clear();
            empty_to.resize(classes, u32::MAX);
            ids.clear();
            let mut next = 0u32;
            for (id, cube) in class.iter_mut().zip(self.window(w).iter()) {
                let slot = if cube.is_empty() {
                    &mut empty_to[*id as usize]
                } else {
                    ids.entry((*id, cube)).or_insert(u32::MAX)
                };
                if *slot == u32::MAX {
                    *slot = next;
                    next += 1;
                }
                *id = *slot;
            }
            classes = next as usize;
            counts.push(classes);
        }
        counts
    }
}

/// Splits a model into per-window cube lists, clause order preserved
/// (`class`-major), one cube per clause per window: the
/// [`WindowLits`] listing as values.
pub fn window_cubes(model: &TrainedModel, window_bits: usize) -> Vec<Vec<Cube>> {
    WindowLits::new(model, window_bits).to_cubes()
}

/// Optimizes one window's cube list into a [`LogicDag`] over `width`
/// inputs.
///
/// With [`Sharing::Enabled`], divisor extraction runs first (under the
/// [`ExtractOptions::budgeted`] density guard, so pathologically dense
/// under-trained windows skip factoring instead of going quadratic) and
/// the DAG is built straight from the factored form and structurally
/// hashed; with [`Sharing::DontTouch`] each cube becomes its own verbatim
/// AND tree (the pragma'd flow of Fig 8). A caller holding [`Cube`]
/// values packs them with [`crate::cube::CubeArena`].
pub fn optimize_window(width: usize, cubes: CubeList<'_>, sharing: Sharing) -> LogicDag {
    match sharing {
        Sharing::Enabled => {
            let factored = factor(cubes, ExtractOptions::budgeted());
            LogicDag::from_factored(width, cubes, &factored, sharing)
        }
        Sharing::DontTouch => LogicDag::from_cube_list(width, cubes, sharing),
    }
}

/// Computes [`WindowGateStats`] for every window of a model.
pub fn gate_stats(model: &TrainedModel, window_bits: usize) -> Vec<WindowGateStats> {
    let arena = WindowLits::new(model, window_bits);
    (0..arena.num_windows())
        .map(|w| {
            let (cubes, width) = (arena.window(w), arena.width(w));
            let naive: usize = cubes.iter().map(|c| c.len().saturating_sub(1)).sum();
            let hashed = LogicDag::from_cube_list(width, cubes, Sharing::Enabled).and2_count();
            let factored = factor(cubes, ExtractOptions::budgeted());
            let extracted =
                LogicDag::from_factored(width, cubes, &factored, Sharing::Enabled).and2_count();
            WindowGateStats {
                window: w,
                naive_and2: naive,
                hashed_and2: hashed,
                extracted_and2: extracted,
                divisors: factored.divisors.len(),
            }
        })
        .collect()
}

/// Distinct *cumulative* partial-clause signals after each window.
///
/// The partial-clause register of clause `c` after HCB `k` holds
/// `AND` of `c`'s includes over features `[0, (k+1)·W)`. Two clauses whose
/// prefixes are identical can share one register — this is where the
/// slice-register savings of Fig 8 come from. Returns one count per window
/// (DON'T TOUCH designs always hold `total_clauses` registers per window).
/// Counted on the [`WindowLits`] listing
/// ([`WindowLits::prefix_register_counts`]).
pub fn prefix_register_counts(model: &TrainedModel, window_bits: usize) -> Vec<usize> {
    WindowLits::new(model, window_bits).prefix_register_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tsetlin::bits::BitVec;

    fn model() -> TrainedModel {
        let f = 8;
        let mk = |pos: &[usize], neg: &[usize]| IncludeMask {
            pos: BitVec::from_indices(f, pos),
            neg: BitVec::from_indices(f, neg),
        };
        // Window width 4: clauses 0 and 2 share the window-0 cube {x0,x1};
        // clause 1 differs in window 0 but matches clause 3 in window 1.
        TrainedModel::from_masks(
            f,
            2,
            2,
            vec![
                mk(&[0, 1], &[]),
                mk(&[0, 2], &[5]),
                mk(&[0, 1], &[6]),
                mk(&[], &[5]),
            ],
        )
    }

    #[test]
    fn window_cubes_shape() {
        let cubes = window_cubes(&model(), 4);
        assert_eq!(cubes.len(), 2);
        assert_eq!(cubes[0].len(), 4);
        assert_eq!(cubes[0][0].to_string(), "x0 & x1");
        assert_eq!(cubes[1][1].to_string(), "~x1"); // ¬x5 reindexed to window
    }

    #[test]
    fn gate_stats_show_reduction() {
        let stats = gate_stats(&model(), 4);
        // Window 0 naive: (x0&x1)=1, (x0&x2)=1, (x0&x1)=1, ()=0 → 3.
        assert_eq!(stats[0].naive_and2, 3);
        // Hashing merges the duplicate x0&x1.
        assert_eq!(stats[0].hashed_and2, 2);
        assert!(stats[0].extracted_and2 <= stats[0].hashed_and2);
        assert!(stats[0].reduction() > 0.0);
    }

    #[test]
    fn prefix_registers_shrink_with_sharing() {
        let counts = prefix_register_counts(&model(), 4);
        // After window 0: prefixes {x0,x1}, {x0,x2}, {x0,x1}, {} → 3 distinct.
        assert_eq!(counts[0], 3);
        // After window 1 (full clauses): all 4 distinct.
        assert_eq!(counts[1], 4);
    }

    /// The definition: hash every clause's whole prefix through each
    /// window and count the distinct ones.
    fn prefix_register_counts_oracle(model: &TrainedModel, window_bits: usize) -> Vec<usize> {
        let n = model.num_features();
        (0..n.div_ceil(window_bits))
            .map(|w| {
                let prefix_bits = ((w + 1) * window_bits).min(n);
                let distinct: HashSet<(Vec<u64>, Vec<u64>)> = model
                    .iter_clauses()
                    .map(|(_, _, mask)| {
                        let prefix = mask.window(0, prefix_bits);
                        (prefix.pos.words().to_vec(), prefix.neg.words().to_vec())
                    })
                    .collect();
                distinct.len()
            })
            .collect()
    }

    /// A seeded model whose clauses share prefixes of every length: each
    /// clause is either sparse random or a copy of an earlier clause
    /// changed at one random feature.
    fn random_model(
        features: usize,
        classes: usize,
        clauses_per_class: usize,
        seed: u64,
    ) -> TrainedModel {
        let mut state = seed;
        let mut next = move |bound: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut masks: Vec<IncludeMask> = Vec::new();
        for _ in 0..classes * clauses_per_class {
            let mask = if !masks.is_empty() && next(2) == 0 {
                let mut mask = masks[next(masks.len())].clone();
                let bit = next(features);
                if next(2) == 0 {
                    mask.pos.toggle(bit);
                } else {
                    mask.neg.toggle(bit);
                }
                mask
            } else {
                let pos: Vec<usize> = (0..features).filter(|_| next(40) == 0).collect();
                let neg: Vec<usize> = (0..features).filter(|_| next(40) == 0).collect();
                IncludeMask {
                    pos: BitVec::from_indices(features, &pos),
                    neg: BitVec::from_indices(features, &neg),
                }
            };
            masks.push(mask);
        }
        TrainedModel::from_masks(features, classes, clauses_per_class, masks)
    }

    #[test]
    fn prefix_register_counts_match_the_prefix_set_oracle() {
        for (seed, features) in [(1, 50), (2, 200), (3, 200), (4, 391)] {
            let model = random_model(features, 3, 24, seed);
            for w in [1, 3, 7, 64, 65, 130] {
                assert_eq!(
                    prefix_register_counts(&model, w),
                    prefix_register_counts_oracle(&model, w),
                    "seed {seed} features {features} W {w}"
                );
            }
        }
        // The fixture's windows and an empty model.
        assert_eq!(
            prefix_register_counts(&model(), 3),
            prefix_register_counts_oracle(&model(), 3)
        );
        let empty = TrainedModel::from_masks(5, 1, 0, Vec::new());
        assert_eq!(prefix_register_counts(&empty, 2), vec![0; 3]);
    }

    #[test]
    fn window_cubes_match_the_sliced_mask_construction() {
        for (seed, features) in [(5, 784), (6, 377)] {
            let model = random_model(features, 3, 20, seed);
            for w in [64, 5, 130] {
                let reference: Vec<Vec<Cube>> = (0..features.div_ceil(w))
                    .map(|k| {
                        model
                            .iter_clauses()
                            .map(|(_, _, mask)| Cube::from_mask(&mask.window(k * w, w)))
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    window_cubes(&model, w),
                    reference,
                    "seed {seed} features {features} W {w}"
                );
            }
        }
    }

    #[test]
    fn optimize_window_dont_touch_keeps_duplicates() {
        let lits = WindowLits::new(&model(), 4);
        let opt = optimize_window(4, lits.window(0), Sharing::Enabled);
        let dt = optimize_window(4, lits.window(0), Sharing::DontTouch);
        assert!(opt.and2_count() < dt.and2_count());
        // Functional equivalence between modes.
        for v in 0..16u32 {
            let input = BitVec::from_bools((0..4).map(|b| (v >> b) & 1 == 1));
            assert_eq!(opt.eval(&input), dt.eval(&input));
        }
    }
}
