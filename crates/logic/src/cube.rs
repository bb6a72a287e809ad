//! Literals and cubes — the propositional building blocks of a TM clause.
//!
//! A *cube* is a conjunction of literals: exactly the boolean expression a
//! trained clause contributes within one bandwidth window (Fig 2(c) of the
//! paper). MATADOR's resource frugality comes from how often the same cube
//! recurs across clauses and classes, so cubes get value semantics
//! (`Eq`/`Hash`) and a canonical sorted representation.

use std::fmt;
use tsetlin::bits::BitVec;
use tsetlin::model::IncludeMask;

/// A literal: an input bit in positive or negated phase.
///
/// Encoded as `2*bit + phase` (`phase` 1 = negated), which keeps sets of
/// literals sortable and hashable as plain integers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal `x_bit`.
    pub fn pos(bit: u32) -> Lit {
        Lit(bit << 1)
    }

    /// Negated literal `¬x_bit`.
    pub fn neg(bit: u32) -> Lit {
        Lit((bit << 1) | 1)
    }

    /// The input bit index this literal reads.
    pub fn bit(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is negated.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Raw encoding (`2*bit + negated`).
    pub fn code(self) -> u32 {
        self.0
    }

    /// Rebuilds a literal from [`Lit::code`].
    pub fn from_code(code: u32) -> Lit {
        Lit(code)
    }

    /// Evaluates the literal against an input window.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range of `input`.
    pub fn eval(self, input: &BitVec) -> bool {
        input.get(self.bit() as usize) != self.is_negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "~x{}", self.bit())
        } else {
            write!(f, "x{}", self.bit())
        }
    }
}

/// A conjunction of literals in canonical (sorted, deduplicated) order.
///
/// The empty cube is the constant-1 expression — the value HCB 0 seeds the
/// partial-clause registers with.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use tsetlin::bits::BitVec;
///
/// let cube = Cube::from_lits([Lit::pos(0), Lit::neg(2)]);
/// assert_eq!(cube.to_string(), "x0 & ~x2");
/// assert!(cube.eval(&BitVec::from_indices(4, &[0, 3])));
/// assert!(!cube.eval(&BitVec::from_indices(4, &[0, 2])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// The constant-1 cube.
    pub fn one() -> Cube {
        Cube { lits: Vec::new() }
    }

    /// Builds a cube from literals (sorted and deduplicated).
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Cube {
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        Cube { lits }
    }

    /// Builds the cube of one clause window from its include mask.
    pub fn from_mask(mask: &IncludeMask) -> Cube {
        let mut lits = Vec::with_capacity(mask.num_includes());
        for bit in mask.pos.iter_ones() {
            lits.push(Lit::pos(bit as u32));
        }
        for bit in mask.neg.iter_ones() {
            lits.push(Lit::neg(bit as u32));
        }
        lits.sort_unstable();
        Cube { lits }
    }

    /// Wraps literals already ascending by code and distinct.
    pub(crate) fn from_sorted_lits(lits: Vec<Lit>) -> Cube {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "unsorted literals");
        Cube { lits }
    }

    /// The literals, ascending by code.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant-1 cube.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether `lit` appears in the cube (binary search).
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Whether the cube is logically contradictory (contains `x` and `¬x`);
    /// a contradictory cube is the constant 0. Trained TM clauses can
    /// contain contradictions — such clauses never fire.
    pub fn is_contradictory(&self) -> bool {
        contradictory(&self.lits)
    }

    /// Evaluates the conjunction on an input window.
    ///
    /// # Panics
    ///
    /// Panics if any literal reads past `input`'s width.
    pub fn eval(&self, input: &BitVec) -> bool {
        self.lits.iter().all(|l| l.eval(input))
    }

    /// AND-gate cost of instantiating this cube alone: `len-1` two-input
    /// ANDs (0 for empty or single-literal cubes).
    pub fn and2_cost(&self) -> usize {
        self.lits.len().saturating_sub(1)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "1");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl FromIterator<Lit> for Cube {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Cube::from_lits(iter)
    }
}

/// Whether canonical (sorted, distinct) literals hold some `x` and `¬x`:
/// [`Cube::is_contradictory`] of a literal slice.
pub fn contradictory(lits: &[Lit]) -> bool {
    lits.windows(2)
        .any(|w| w[0].bit() == w[1].bit() && w[0].is_negated() != w[1].is_negated())
}

/// A list of cubes stored back to back: one literal slice plus the end
/// of each cube in it. Cube `c` holds `lits[ends[c - 1]..ends[c]]`
/// (from 0 for the first), each in canonical order. This is how the
/// generation flow hands a window to the optimizer: one borrowed arena,
/// no vector per cube (see [`crate::share::WindowLits`]).
#[derive(Debug, Clone, Copy)]
pub struct CubeList<'a> {
    lits: &'a [Lit],
    ends: &'a [u32],
}

impl<'a> CubeList<'a> {
    /// A list over `lits` with per-cube `ends`.
    ///
    /// # Panics
    ///
    /// Panics if `ends` is not ascending or the last end is not
    /// `lits.len()` (an empty list needs empty `lits`).
    pub fn new(lits: &'a [Lit], ends: &'a [u32]) -> Self {
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1]),
            "cube ends must ascend"
        );
        assert_eq!(
            ends.last().map_or(0, |&e| e as usize),
            lits.len(),
            "the last cube must end the literals"
        );
        CubeList { lits, ends }
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the list holds no cube.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every cube's literals, in list order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [Lit]> + 'a {
        let lits = self.lits;
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let cube = &lits[start..end as usize];
            start = end as usize;
            cube
        })
    }

    /// The cubes as values.
    pub fn to_cubes(&self) -> Vec<Cube> {
        self.iter()
            .map(|lits| Cube::from_sorted_lits(lits.to_vec()))
            .collect()
    }
}

/// An owned [`CubeList`]: the literals of `cubes` packed back to back.
/// Lets a caller holding [`Cube`] values reach the list-based entry
/// points ([`crate::share::optimize_window`]).
#[derive(Debug, Clone)]
pub struct CubeArena {
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl CubeArena {
    /// Packs `cubes`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the cubes hold `u32::MAX` literals or more.
    pub fn from_cubes(cubes: &[Cube]) -> Self {
        let mut lits = Vec::with_capacity(cubes.iter().map(Cube::len).sum());
        let ends = cubes
            .iter()
            .map(|cube| {
                lits.extend_from_slice(cube.lits());
                u32::try_from(lits.len()).expect("literal count fits u32")
            })
            .collect();
        CubeArena { lits, ends }
    }

    /// The packed cubes as a list.
    pub fn list(&self) -> CubeList<'_> {
        CubeList {
            lits: &self.lits,
            ends: &self.ends,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding_roundtrip() {
        let l = Lit::neg(42);
        assert_eq!(l.bit(), 42);
        assert!(l.is_negated());
        assert_eq!(Lit::from_code(l.code()), l);
        assert!(!Lit::pos(42).is_negated());
    }

    #[test]
    fn lit_eval_phases() {
        let x = BitVec::from_indices(4, &[1]);
        assert!(Lit::pos(1).eval(&x));
        assert!(!Lit::neg(1).eval(&x));
        assert!(!Lit::pos(0).eval(&x));
        assert!(Lit::neg(0).eval(&x));
    }

    #[test]
    fn cube_canonical_order_and_dedup() {
        let a = Cube::from_lits([Lit::neg(2), Lit::pos(0), Lit::pos(0)]);
        let b = Cube::from_lits([Lit::pos(0), Lit::neg(2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_cube_is_constant_one() {
        let one = Cube::one();
        assert!(one.is_empty());
        assert!(one.eval(&BitVec::zeros(8)));
        assert_eq!(one.to_string(), "1");
        assert_eq!(one.and2_cost(), 0);
    }

    #[test]
    fn from_mask_collects_both_phases() {
        let mask = IncludeMask {
            pos: BitVec::from_indices(8, &[3]),
            neg: BitVec::from_indices(8, &[0, 7]),
        };
        let cube = Cube::from_mask(&mask);
        assert_eq!(cube.to_string(), "~x0 & x3 & ~x7");
        assert_eq!(cube.and2_cost(), 2);
    }

    #[test]
    fn contradiction_detection() {
        let c = Cube::from_lits([Lit::pos(5), Lit::neg(5)]);
        assert!(c.is_contradictory());
        assert!(!Cube::from_lits([Lit::pos(5), Lit::neg(6)]).is_contradictory());
        // A contradictory cube can never fire.
        for bits in [vec![], vec![5usize]] {
            assert!(!c.eval(&BitVec::from_indices(8, &bits)));
        }
    }

    #[test]
    fn contains_uses_canonical_order() {
        let c = Cube::from_lits([Lit::pos(9), Lit::neg(1)]);
        assert!(c.contains(Lit::pos(9)));
        assert!(c.contains(Lit::neg(1)));
        assert!(!c.contains(Lit::pos(1)));
    }
}
