//! A fast hasher for the integer keys of the optimizer's own tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over integer ids this crate assigns (DAG nodes, extraction
/// items), hashed with [`WordHasher`]. Keys read from a model's contents,
/// such as mask words, keep the default hasher.
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Multiply-rotate hashing of integer words (the FxHash scheme). The keys
/// are ids the crate assigns itself, so SipHash's resistance to chosen
/// keys buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low bits the table
        // indexes with.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }
}
