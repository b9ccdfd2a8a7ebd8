//! A fast, deterministic hasher for the tick path's keyed maps.
//!
//! Every valuation, staleness check and transfer on the tick path is a keyed
//! lookup: oracle prices and write epochs by [`Token`](crate::Token), book
//! indexes by token, protocol accounts by [`Address`](crate::Address) and
//! ledger balances by `(Address, Token)`. std's default `RandomState` runs
//! SipHash-1-3 on each of them. SipHash resists keys crafted to collide,
//! which matters only when an adversary chooses the keys. Here no one does:
//! the keys are engine-generated addresses (derived from labels and seeds)
//! and a closed `Token` enum, and no untrusted input — journal bytes or
//! scenario files — ever keys these maps. So the maps use [`FxHasher`], the
//! multiply-rotate word hash that Firefox and rustc use, which costs one
//! rotate, one xor and one multiply per 8-byte word.
//!
//! [`FxHashMap`] and [`FxHashSet`] build their hashers with
//! [`BuildHasherDefault`], so there is no per-process random key: two maps
//! given the same inserts iterate in the same order in every process. No
//! code may depend on that order, though; iteration stays order-independent
//! (sort, fold or dedup) exactly as it was under `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`] (construct with `::default()`).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`] (construct with `::default()`).
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The Fx multiplier: ⌊2⁶⁴ / π⌋ made odd, as in rustc's `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over 8-byte words. Not collision-resistant against
/// chosen keys; see the [module docs](self) for why that is acceptable here.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        // The tail (an `Address` has 4 bytes past its last full word) is one
        // zero-padded word; the slice's length prefix keeps padding distinct.
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Token};
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn every_token_hashes_distinctly() {
        let hashes: HashSet<u64> = Token::ALL.iter().map(fx).collect();
        assert_eq!(hashes.len(), Token::ALL.len());
    }

    #[test]
    fn labelled_addresses_and_balance_keys_do_not_collide() {
        let addresses: Vec<Address> = (0..10_000)
            .map(|i| Address::from_label(&format!("agent-{i}")))
            .collect();
        let distinct: HashSet<Address> = addresses.iter().copied().collect();
        assert_eq!(distinct.len(), addresses.len());
        let hashes: HashSet<u64> = addresses.iter().map(fx).collect();
        assert_eq!(hashes.len(), addresses.len());
        let pairs: HashSet<u64> = addresses
            .iter()
            .flat_map(|&a| Token::ALL.iter().map(move |&t| fx(&(a, t))))
            .collect();
        assert_eq!(pairs.len(), addresses.len() * Token::ALL.len());
    }

    #[test]
    fn the_address_tail_word_is_hashed() {
        let a = Address([7u8; 20]);
        let mut b = a;
        b.0[19] ^= 1;
        assert_ne!(fx(&a), fx(&b));
    }

    #[test]
    fn iteration_order_repeats_across_maps() {
        let build = || {
            let mut map: FxHashMap<Address, usize> = FxHashMap::default();
            for i in 0..1_000 {
                map.insert(Address::from_label(&format!("order-{i}")), i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
