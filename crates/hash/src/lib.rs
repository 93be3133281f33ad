//! # rsk-hash — seeded non-cryptographic hashing for sketches
//!
//! Every sketch in this workspace locates cells with independent seeded hash
//! functions. The ReliableSketch paper (§6.1.1) uses 32-bit MurmurHash3 and
//! notes that the choice of hash function has little effect on accuracy; we
//! therefore implement MurmurHash3 from scratch (no external crates) and a few
//! cheaper auxiliary mixers used by the workload generators.
//!
//! Provided functions:
//!
//! * [`murmur3_x86_32`] — the 32-bit MurmurHash3 used by all sketches,
//!   verified against the public reference vectors;
//! * [`murmur3_x64_128`] — the 128-bit variant, used where 64-bit digests are
//!   needed (e.g. key scrambling, wide fingerprints);
//! * [`splitmix64`] — a fast 64-bit mixer used for seeding and by the
//!   synthetic workload generators;
//! * [`fnv1a64`] — FNV-1a, kept as an independent second family for tests
//!   that need two unrelated hash functions;
//! * [`crc32`] / [`crc32_seeded`] — the CRC family switch pipelines
//!   compute natively (the Tofino implementation derives its layer
//!   indexes from seeded CRCs, §5.2).
//!
//! The [`HashKey`] trait adapts key types (`u32`, `u64`, byte slices, …) to
//! the hashing functions, and [`HashFamily`] packages *k* independent seeded
//! functions as required by multi-row sketches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod fnv;
mod murmur3;
mod splitmix;

pub use crc::{crc32, crc32_seeded};
pub use fnv::fnv1a64;
pub use murmur3::{murmur3_x64_128, murmur3_x86_32};
pub use splitmix::{splitmix64, SplitMix64};

/// A key type that can be fed to the seeded hash functions.
///
/// Implementations exist for the unsigned integer types used as flow
/// identifiers throughout the workspace (`u32`, `u64`, `u128`) and for the
/// 13-byte network 5-tuple. Integer keys are hashed over their little-endian
/// byte encoding so that results are identical across platforms.
pub trait HashKey: Copy + Eq + core::hash::Hash + core::fmt::Debug {
    /// 32-bit digest of the key under `seed`.
    fn hash32(&self, seed: u32) -> u32;

    /// 64-bit digest of the key under `seed`.
    fn hash64(&self, seed: u32) -> u64;
}

macro_rules! impl_hashkey_int {
    ($($t:ty),*) => {$(
        impl HashKey for $t {
            #[inline]
            fn hash32(&self, seed: u32) -> u32 {
                murmur3_x86_32(&self.to_le_bytes(), seed)
            }
            #[inline]
            fn hash64(&self, seed: u32) -> u64 {
                murmur3_x64_128(&self.to_le_bytes(), seed) as u64
            }
        }
    )*};
}

impl_hashkey_int!(u32, u64, u128);

impl HashKey for [u8; 13] {
    // 13-byte keys are the classic network 5-tuple (src, dst, sport, dport,
    // proto); traces that key on the full 5-tuple use this implementation.
    #[inline]
    fn hash32(&self, seed: u32) -> u32 {
        murmur3_x86_32(self, seed)
    }
    #[inline]
    fn hash64(&self, seed: u32) -> u64 {
        murmur3_x64_128(self, seed) as u64
    }
}

/// A family of `k` independent seeded hash functions mapping keys to array
/// indexes, as used by the row/layer structure of every sketch here.
///
/// Seeds are derived from a single master seed with [`SplitMix64`], so one
/// `u64` reproduces the whole family.
///
/// ```
/// use rsk_hash::HashFamily;
///
/// let family = HashFamily::new(3, 42);
/// let i = family.index(0, &0xabcd_u64, 1024);
/// assert!(i < 1024);
/// // deterministic: the same master seed reproduces the same mapping
/// assert_eq!(i, HashFamily::new(3, 42).index(0, &0xabcd_u64, 1024));
/// // rows are independent: row 1 almost surely maps elsewhere
/// let j = family.index(1, &0xabcd_u64, 1024);
/// let s = family.sign(0, &0xabcd_u64);
/// assert!(s == 1 || s == -1);
/// let _ = j;
/// ```
#[derive(Debug, Clone)]
pub struct HashFamily {
    seeds: Vec<u32>,
}

impl HashFamily {
    /// Build a family of `k` functions from `master_seed`.
    pub fn new(k: usize, master_seed: u64) -> Self {
        let mut sm = SplitMix64::new(master_seed);
        let seeds = (0..k).map(|_| sm.next_u64() as u32).collect();
        Self { seeds }
    }

    /// Number of functions in the family.
    #[inline]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` if the family is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Seed of the `i`-th function (for diagnostics and tests).
    #[inline]
    pub fn seed(&self, i: usize) -> u32 {
        self.seeds[i]
    }

    /// 32-bit digest of `key` under the `i`-th function.
    #[inline]
    pub fn hash<K: HashKey>(&self, i: usize, key: &K) -> u32 {
        key.hash32(self.seeds[i])
    }

    /// Index of `key` into an array of `width` cells under the `i`-th
    /// function.
    ///
    /// Uses the multiply-shift range reduction (`(h * width) >> 32`), which
    /// avoids both the modulo bias and the division of `h % width`.
    #[inline]
    pub fn index<K: HashKey>(&self, i: usize, key: &K, width: usize) -> usize {
        debug_assert!(width > 0, "index into empty array");
        let h = self.hash(i, key) as u64;
        ((h * width as u64) >> 32) as usize
    }

    /// A ±1 sign for `key` under the `i`-th function (used by Count sketch).
    #[inline]
    pub fn sign<K: HashKey>(&self, i: usize, key: &K) -> i64 {
        // take an independent bit: hash under the bitwise-not of the seed
        if key.hash32(!self.seeds[i]) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_reproducible() {
        let a = HashFamily::new(8, 42);
        let b = HashFamily::new(8, 42);
        for i in 0..8 {
            assert_eq!(a.seed(i), b.seed(i));
            assert_eq!(a.hash(i, &0xdead_beefu64), b.hash(i, &0xdead_beefu64));
        }
    }

    #[test]
    fn family_functions_are_distinct() {
        let f = HashFamily::new(16, 7);
        let key = 123456789u64;
        let digests: std::collections::HashSet<u32> = (0..16).map(|i| f.hash(i, &key)).collect();
        assert!(digests.len() >= 15, "seeded functions should disagree");
    }

    #[test]
    fn index_is_in_range() {
        let f = HashFamily::new(4, 99);
        for w in [1usize, 2, 3, 17, 1024, 1_000_003] {
            for k in 0u64..200 {
                let idx = f.index(2, &k, w);
                assert!(idx < w, "index {idx} out of range for width {w}");
            }
        }
    }

    #[test]
    fn index_spreads_uniformly() {
        let f = HashFamily::new(1, 3);
        let w = 64usize;
        let mut hist = vec![0usize; w];
        let n = 64_000u64;
        for k in 0..n {
            hist[f.index(0, &k, w)] += 1;
        }
        let expect = n as usize / w;
        for (i, &c) in hist.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "bucket {i} has {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn sign_is_balanced() {
        let f = HashFamily::new(1, 11);
        let total: i64 = (0u64..10_000).map(|k| f.sign(0, &k)).sum();
        assert!(total.abs() < 500, "signs should be near balanced: {total}");
    }

    #[test]
    fn integer_keys_hash_like_their_le_bytes() {
        let k: u64 = 0x0102_0304_0506_0708;
        assert_eq!(k.hash32(9), murmur3_x86_32(&k.to_le_bytes(), 9));
        let k32: u32 = 0xcafe_babe;
        assert_eq!(k32.hash32(9), murmur3_x86_32(&k32.to_le_bytes(), 9));
    }

    #[test]
    fn tuple13_key_hashes() {
        let a: [u8; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
        let mut b = a;
        b[12] = 0;
        assert_ne!(a.hash32(0), b.hash32(0));
        assert_ne!(a.hash64(0), b.hash64(0));
    }
}
