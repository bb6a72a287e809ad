//! Packed bit-vector used throughout the workspace for boolean feature
//! vectors, literal include masks and partial-clause registers.
//!
//! The accelerator operates on 64-bit AXI packets, so a `u64`-word layout is
//! the natural shared representation between the training substrate, the
//! logic optimizer and the cycle-accurate simulator.

use std::fmt;

/// A fixed-length, heap-allocated bit vector packed into `u64` words.
///
/// Bits beyond `len` inside the last word are guaranteed to be zero; every
/// mutating operation restores this invariant, which lets word-level
/// comparisons (`covered_by`, `count_ones`) run without masking.
///
/// # Examples
///
/// ```
/// use tsetlin::bits::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(129));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one bit vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bools: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bools.len());
        for (i, b) in bools.iter().enumerate() {
            if *b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a bit vector of `len` bits whose set positions are `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Builds a bit vector of `len` bits from the low bits of `word`
    /// (bit `i` of the vector reads bit `i` of the word). Word bits at or
    /// beyond `len` are discarded; for `len > 64` the upper bits are zero.
    /// The word-level inverse of [`BitVec::extract_word`].
    pub fn from_word(len: usize, word: u64) -> Self {
        let mut v = BitVec::zeros(len);
        v.assign_word(word);
        v
    }

    /// Overwrites the whole vector with the low bits of `word` (see
    /// [`BitVec::from_word`]) without touching its length or reallocating.
    pub fn assign_word(&mut self, word: u64) {
        let Some(first) = self.words.first_mut() else {
            return;
        };
        *first = word;
        for w in &mut self.words[1..] {
            *w = 0;
        }
        self.mask_tail();
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing words, little-endian bit order (bit `i` lives in word `i/64`,
    /// position `i%64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let w = &mut self.words[i / 64];
        if value {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Flips bit `i` and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn toggle(&mut self, i: usize) -> bool {
        let new = !self.get(i);
        self.set(i, new);
        new
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when every set bit of `self` is also set in `other`
    /// (i.e. `self & other == self`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn covered_by(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *a)
    }

    /// Word-wise AND in place (`self &= other`), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Overwrites `self` with `other`'s bits without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Word-wise AND into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise OR into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise XOR into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise complement (respecting `len`).
    pub fn not(&self) -> BitVec {
        let mut v = BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        v.mask_tail();
        v
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over all bits as booleans, ascending index.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies bits `[start, start+width)` into the low bits of a `u64`.
    /// Bits past `len` read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn extract_word(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64, "cannot extract more than 64 bits");
        if width == 0 || start >= self.len {
            return 0;
        }
        // Word-level read: at most two backing words contribute. Bits past
        // `len` inside the last word are zero by invariant, so no extra
        // end-of-vector masking is needed.
        let wi = start / 64;
        let off = start % 64;
        let mut out = self.words[wi] >> off;
        if off != 0 && wi + 1 < self.words.len() {
            out |= self.words[wi + 1] << (64 - off);
        }
        if width < 64 {
            out &= (1u64 << width) - 1;
        }
        out
    }

    /// Extracts the sub-vector `[start, start+width)`; bits past `len` are
    /// zero-filled (matching the packetizer's zero padding).
    pub fn slice(&self, start: usize, width: usize) -> BitVec {
        let mut out = BitVec::zeros(width);
        for (k, word) in out.words.iter_mut().enumerate() {
            let off = k * 64;
            *word = self.extract_word(start.saturating_add(off), (width - off).min(64));
        }
        out
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(96);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if shown < self.len {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

/// Iterator over set-bit indices of a [`BitVec`], produced by
/// [`BitVec::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.current = self.bv.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_empty_of_ones() {
        let v = BitVec::zeros(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.get(99));
    }

    #[test]
    fn ones_has_exactly_len_ones() {
        let v = BitVec::ones(67);
        assert_eq!(v.count_ones(), 67);
        // tail invariant: word bits past len are zero
        assert_eq!(v.words()[1] >> 3, 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in (0..200).step_by(7) {
            v.set(i, true);
        }
        for i in 0..200 {
            assert_eq!(v.get(i), i % 7 == 0, "bit {i}");
        }
    }

    #[test]
    fn toggle_flips() {
        let mut v = BitVec::zeros(10);
        assert!(v.toggle(3));
        assert!(!v.toggle(3));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn covered_by_subset_semantics() {
        let a = BitVec::from_indices(128, &[1, 64, 127]);
        let b = BitVec::from_indices(128, &[1, 5, 64, 100, 127]);
        assert!(a.covered_by(&b));
        assert!(!b.covered_by(&a));
        assert!(a.covered_by(&a));
    }

    #[test]
    fn not_respects_length() {
        let v = BitVec::from_indices(70, &[0, 69]);
        let n = v.not();
        assert_eq!(n.count_ones(), 68);
        assert!(!n.get(0));
        assert!(!n.get(69));
        assert!(n.get(1));
    }

    #[test]
    fn bitwise_ops() {
        let a = BitVec::from_indices(80, &[0, 10, 70]);
        let b = BitVec::from_indices(80, &[10, 70, 79]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![10, 70]);
        assert_eq!(
            a.or(&b).iter_ones().collect::<Vec<_>>(),
            vec![0, 10, 70, 79]
        );
        assert_eq!(a.xor(&b).iter_ones().collect::<Vec<_>>(), vec![0, 79]);
    }

    #[test]
    fn iter_ones_matches_get() {
        let v = BitVec::from_indices(300, &[0, 63, 64, 65, 128, 299]);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 65, 128, 299]);
    }

    #[test]
    fn extract_word_lsb_first_and_zero_padded() {
        // Matches Fig 4: packets are filled LSB-first and the final packet is
        // zero-padded past the most significant feature bit.
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(65, true);
        assert_eq!(v.extract_word(0, 64), 1);
        assert_eq!(v.extract_word(64, 64), 0b10);
    }

    #[test]
    fn extract_word_matches_per_bit_reference() {
        let v = BitVec::from_indices(200, &[0, 3, 63, 64, 65, 127, 128, 199]);
        for start in [0, 1, 5, 60, 63, 64, 100, 137, 190, 199, 200, 300] {
            for width in [0usize, 1, 3, 7, 17, 32, 63, 64] {
                let mut expect = 0u64;
                for off in 0..width {
                    let i = start + off;
                    if i < v.len() && v.get(i) {
                        expect |= 1 << off;
                    }
                }
                assert_eq!(
                    v.extract_word(start, width),
                    expect,
                    "start {start} width {width}"
                );
            }
        }
    }

    #[test]
    fn from_word_round_trips_extract_word() {
        for len in [1usize, 7, 13, 64, 70] {
            let word = 0xDEAD_BEEF_F00D_1234u64;
            let v = BitVec::from_word(len, word);
            assert_eq!(v.len(), len);
            let expect = if len >= 64 {
                word
            } else {
                word & ((1 << len) - 1)
            };
            assert_eq!(v.extract_word(0, 64.min(len)), expect, "len {len}");
            // Bits past 64 are zero.
            if len > 64 {
                assert!(!v.get(64));
            }
        }
        // Zero-length vectors stay well-formed.
        let mut empty = BitVec::zeros(0);
        empty.assign_word(!0);
        assert_eq!(empty.count_ones(), 0);
    }

    #[test]
    fn assign_word_clears_upper_words() {
        let mut v = BitVec::from_indices(130, &[0, 70, 129]);
        v.assign_word(0b101);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn and_assign_and_copy_from_match_allocating_ops() {
        let a = BitVec::from_indices(80, &[0, 10, 70]);
        let b = BitVec::from_indices(80, &[10, 70, 79]);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c, a.and(&b));
        let mut d = BitVec::zeros(80);
        d.copy_from(&b);
        assert_eq!(d, b);
    }

    #[test]
    fn slice_zero_fills_past_end() {
        let v = BitVec::ones(10);
        let s = v.slice(8, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn slice_matches_per_bit_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let v: BitVec = (0..len).map(|_| rng.gen::<bool>()).collect();
            let random = (0..40).map(|_| (rng.gen_range(0..len + 80), rng.gen_range(0..200)));
            let edges = [(len, 5), (len + 3, 70), (0, len + 70), (usize::MAX, 3)];
            for (start, width) in random.chain(edges) {
                let expect: BitVec = (0..width)
                    .map(|off| start.checked_add(off).is_some_and(|i| i < len && v.get(i)))
                    .collect();
                let got = v.slice(start, width);
                assert_eq!(got, expect, "len {len} start {start} width {width}");
                // The zero-tail invariant holds, so word compares stay valid.
                assert_eq!(got.words(), expect.words());
            }
        }
    }

    #[test]
    fn from_bools_and_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert!(v.get(0) && !v.get(1) && v.get(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitVec::zeros(5).get(5);
    }

    #[test]
    fn display_is_bit_string() {
        let v = BitVec::from_indices(4, &[1, 3]);
        assert_eq!(v.to_string(), "0101");
    }
}
