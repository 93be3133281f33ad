//! Input generation. Everything a run sends is drawn from `--seed` and
//! encoded before any timing starts.

use reliablesketch::api::KeySet;
use reliablesketch::hash::splitmix64;
use reliablesketch::stream::zipf::ZipfSampler;
use reliablesketch::stream::Dataset;
use rsk_serve::protocol::{write_frame, Request};

/// Dense key universe of the serve traffic (`rsk-load`'s default).
pub const UNIVERSE: u64 = 100_000;
/// Zipf skew of the serve traffic (`rsk-load`'s default).
const SKEW: f64 = 1.1;
/// The tenant every serve workload writes and reads.
pub const TENANT: u32 = 0;
/// Top-K depth the read mix asks for.
pub const TOPK_K: u32 = 128;

/// Derive an independent stream seed from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// One length-prefixed frame, ready for `write_all`.
pub fn frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &req.encode()).expect("writing to a Vec cannot fail");
    out
}

/// A pool of pre-encoded ingest batches that a writer cycles through.
pub struct Pool {
    /// Every update's key, in send order.
    pub keys: Vec<u32>,
    /// One encoded `Ingest` frame per batch.
    pub frames: Vec<Vec<u8>>,
}

impl Pool {
    /// `batches × batch` unit updates of Zipf-drawn dense keys.
    pub fn generate(seed: u64, batches: usize, batch: usize) -> Self {
        let mut sampler = ZipfSampler::new(UNIVERSE, SKEW, seed);
        let keys: Vec<u32> = (0..batches * batch)
            .map(|_| sampler.sample() as u32)
            .collect();
        let frames = keys
            .chunks(batch)
            .map(|chunk| {
                frame(&Request::Ingest {
                    tenant: TENANT,
                    items: chunk.iter().map(|&k| (u64::from(k), 1)).collect(),
                })
            })
            .collect();
        Self { keys, frames }
    }

    /// Every update as `(key, value)` pairs.
    pub fn all_items(&self) -> Vec<(u64, u64)> {
        self.keys.iter().map(|&k| (u64::from(k), 1)).collect()
    }
}

/// Kinds of read in the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `QueryCertified` of one key.
    Certified,
    /// `TopK` with `k = TOPK_K`.
    TopK,
    /// `Subpop` of one of [`subpop_sets`].
    Subpop,
}

/// One pre-encoded read.
pub struct Read {
    /// What the read asks.
    pub kind: ReadKind,
    /// The key (certified) or the subpop set index (subpop).
    pub arg: u64,
    /// The encoded frame.
    pub frame: Vec<u8>,
}

/// The three subpop predicates of the read mix, in cycle order: the
/// range `[0, 1024)`, the prefix mask selecting keys `1024..=2047`, and
/// the `hot` keys. Each is small enough for the member-by-member (dense)
/// evaluation path, whose answers the program certifies; larger sets are
/// only probed, see [`decode_sets`].
pub fn subpop_sets(hot: &[u64]) -> [KeySet; 3] {
    [
        KeySet::range(0, 1023),
        KeySet::mask(0x400, !0x3FF),
        KeySet::explicit(hot.to_vec()),
    ]
}

/// Subpop predicates too large to enumerate, so a concurrent tenant
/// answers them by its tracked-key decode: the range `[0, 50 000)`, the
/// prefix mask selecting keys `0..=65 535`, and `rsk-load`'s range
/// `[0, 50 000]` and mask `0b011/0b111`. That path has a known defect:
/// under concurrent ingest its interval can exclude the truth. The
/// serve workloads probe these sets after their timed phase and report
/// the misses apart from the run's verdict.
pub fn decode_sets() -> [KeySet; 4] {
    [
        KeySet::range(0, UNIVERSE / 2 - 1),
        KeySet::mask(0, !0xFFFF),
        KeySet::range(0, UNIVERSE / 2),
        KeySet::mask(0b11, 0b111),
    ]
}

/// The `n` keys with the most occurrences in `keys`.
pub fn hottest(keys: &[u32], n: usize) -> Vec<u64> {
    let mut counts = vec![0u64; UNIVERSE as usize + 1];
    for &k in keys {
        counts[k as usize] += 1;
    }
    let mut order: Vec<u64> = (0..=UNIVERSE).filter(|&k| counts[k as usize] > 0).collect();
    order.sort_by_key(|&k| (std::cmp::Reverse(counts[k as usize]), k));
    order.truncate(n);
    order
}

/// A repeating read mix of `len` reads: in every 20, 18 certified
/// queries of Zipf-drawn keys, one top-K and one subpop, the subpops
/// cycling through the three predicates.
pub fn read_mix(seed: u64, len: usize, sets: &[KeySet; 3]) -> Vec<Read> {
    let mut sampler = ZipfSampler::new(UNIVERSE, SKEW, seed);
    let mut subpops = 0u64;
    (0..len)
        .map(|i| match i % 20 {
            9 => Read {
                kind: ReadKind::TopK,
                arg: 0,
                frame: frame(&Request::TopK {
                    tenant: TENANT,
                    k: TOPK_K,
                }),
            },
            19 => {
                let s = subpops % 3;
                subpops += 1;
                Read {
                    kind: ReadKind::Subpop,
                    arg: s,
                    frame: frame(&Request::Subpop {
                        tenant: TENANT,
                        set: sets[s as usize].clone(),
                    }),
                }
            }
            _ => {
                let key = sampler.sample();
                Read {
                    kind: ReadKind::Certified,
                    arg: key,
                    frame: frame(&Request::QueryCertified {
                        tenant: TENANT,
                        key,
                    }),
                }
            }
        })
        .collect()
}

/// The embedded workload's input: the `DataCenter` model at the paper's
/// 10 M-item scale, as `(key, 1)` pairs.
pub fn datacenter(seed: u64) -> Vec<(u64, u64)> {
    let n = Dataset::DataCenter.spec().paper_items;
    Dataset::DataCenter
        .iter(n, derive(seed, 7))
        .map(|item| (item.key, item.value))
        .collect()
}

/// Exact per-key totals of `items`, sorted by key.
pub fn exact_counts(items: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = items.to_vec();
    sorted.sort_unstable_by_key(|&(k, _)| k);
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (k, v) in sorted {
        match out.last_mut() {
            Some((last, total)) if *last == k => *total += v,
            _ => out.push((k, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliablesketch::core::subpop::DENSE_ENUMERATION_LIMIT;

    /// The timed read mix stays on the dense path and every probe set
    /// takes the decode path: the split between the run's verdict and
    /// the known-defect probes rests on it.
    #[test]
    fn read_mix_sets_are_dense_and_probe_sets_decode() {
        let hot: Vec<u64> = (0..64).collect();
        for set in subpop_sets(&hot) {
            assert!(set.enumerate(DENSE_ENUMERATION_LIMIT).is_some(), "{set:?}");
        }
        for set in decode_sets() {
            assert!(set.enumerate(DENSE_ENUMERATION_LIMIT).is_none(), "{set:?}");
        }
        let [range, mask, _] = subpop_sets(&hot);
        assert_eq!(
            range.enumerate(4096).map(|k| (k[0], k.len())),
            Some((0, 1024))
        );
        assert_eq!(
            mask.enumerate(4096).map(|k| (k[0], k.len())),
            Some((1024, 1024))
        );
    }
}
