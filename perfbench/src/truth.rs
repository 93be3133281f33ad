//! The truth checker: exact ground truth for cycled traffic pools, and
//! the bracket rule that judges answers read beside concurrent writes.
//!
//! Every serve workload replays a fixed pool of generated updates over
//! and over, so the exact count of a key over any stretch of absolute
//! update indices is `passes × per_pass + partial`, answered from a
//! per-key position index in `O(log n)`.
//!
//! A read that races writes sees some state between two known ones: at
//! least everything acknowledged before the request went out, at most
//! everything sent before the reply came back. The answer is correct
//! when its certified interval meets that bracket of truths. Epochs
//! narrow the stretch: seals are in-band and happen at known update
//! indices, so the reply's `epoch` names the first live update exactly.

use rsk_serve::{CertifiedAnswer, SubpopAnswer, TopKAnswer};

/// Range of true values an answer may legitimately reflect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bracket {
    /// Truth over what was acknowledged before the request was sent.
    pub lo: u64,
    /// Truth over what had been sent before the reply arrived.
    pub hi: u64,
}

impl Bracket {
    /// A bracket with no concurrent writes: one exact truth.
    pub fn exact(truth: u64) -> Self {
        Self {
            lo: truth,
            hi: truth,
        }
    }

    /// Does the certified interval `[lower, upper]` meet the bracket?
    pub fn admits(&self, lower: u64, upper: u64) -> bool {
        lower <= self.hi && self.lo <= upper
    }

    fn add(self, other: Self) -> Self {
        Self {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

/// Is a certified point answer consistent with the bracket?
pub fn point_ok(answer: &CertifiedAnswer, truth: Bracket) -> bool {
    let lower = answer
        .value
        .saturating_sub(answer.max_possible_error.saturating_add(answer.slack));
    truth.admits(lower, answer.value.saturating_add(answer.slack))
}

/// Is a certified subset weight consistent with the bracket?
pub fn subpop_ok(answer: &SubpopAnswer, truth: Bracket) -> bool {
    truth.admits(answer.weight.lo, answer.weight.upper_bound())
}

/// Exact per-key counts of one cycled pool of dense keys.
pub struct PoolTruth {
    len: u64,
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl PoolTruth {
    /// Index `keys` (each in `0..=universe`) by position.
    pub fn new(keys: &[u32], universe: u64) -> Self {
        let slots = universe as usize + 2;
        let mut offsets = vec![0u32; slots];
        for &k in keys {
            offsets[k as usize + 1] += 1;
        }
        for i in 1..slots {
            offsets[i] += offsets[i - 1];
        }
        let mut fill = offsets.clone();
        let mut positions = vec![0u32; keys.len()];
        for (pos, &k) in keys.iter().enumerate() {
            positions[fill[k as usize] as usize] = pos as u32;
            fill[k as usize] += 1;
        }
        Self {
            len: keys.len() as u64,
            offsets,
            positions,
        }
    }

    /// Occurrences of `key` in one pass of the pool.
    pub fn per_pass(&self, key: u64) -> u64 {
        self.positions_of(key).len() as u64
    }

    fn positions_of(&self, key: u64) -> &[u32] {
        if key + 1 >= self.offsets.len() as u64 {
            return &[];
        }
        let k = key as usize;
        &self.positions[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Occurrences of `key` among absolute update indices `[0, upto)`.
    pub fn count(&self, key: u64, upto: u64) -> u64 {
        let at = self.positions_of(key);
        let rem = upto % self.len;
        (upto / self.len) * at.len() as u64 + at.partition_point(|&p| u64::from(p) < rem) as u64
    }

    /// Pool length in updates.
    pub fn len(&self) -> u64 {
        self.len
    }
}

/// Exact running weight of one predicate over a cycled pool.
pub struct SetTruth {
    prefix: Vec<u32>,
}

impl SetTruth {
    /// Prefix counts of the pool updates whose key satisfies `pred`.
    pub fn new(keys: &[u32], pred: impl Fn(u64) -> bool) -> Self {
        let mut prefix = Vec::with_capacity(keys.len() + 1);
        let mut run = 0u32;
        prefix.push(0);
        for &k in keys {
            run += u32::from(pred(u64::from(k)));
            prefix.push(run);
        }
        Self { prefix }
    }

    /// Matching updates among absolute update indices `[0, upto)`.
    pub fn count(&self, upto: u64) -> u64 {
        let len = (self.prefix.len() - 1) as u64;
        let per_pass = u64::from(self.prefix[len as usize]);
        (upto / len) * per_pass + u64::from(self.prefix[(upto % len) as usize])
    }
}

/// One writer's cycled pool with the predicates the workload asks about.
pub struct Stream {
    /// Per-key index of the pool.
    pub keys: PoolTruth,
    /// One entry per predicate, in the workload's own order.
    pub sets: Vec<SetTruth>,
}

/// Which absolute updates of one stream a reply may reflect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First update still live in the reply's window.
    pub from: u64,
    /// Updates acknowledged before the request was sent.
    pub acked: u64,
    /// Updates sent before the reply arrived.
    pub sent: u64,
}

impl Extent {
    /// An extent with every update acknowledged and no window start.
    pub fn settled(total: u64) -> Self {
        Self {
            from: 0,
            acked: total,
            sent: total,
        }
    }

    fn span(&self, count: impl Fn(u64) -> u64) -> Bracket {
        let base = count(self.from);
        Bracket {
            lo: count(self.acked.max(self.from)) - base,
            hi: count(self.sent.max(self.from)) - base,
        }
    }
}

/// Truth brackets for one reply across every stream that writes the
/// tenant.
pub struct View<'a> {
    /// The writers' streams.
    pub streams: &'a [Stream],
    /// One extent per stream, in the same order.
    pub extents: &'a [Extent],
}

impl View<'_> {
    /// Bracket of one key's window count.
    pub fn key(&self, key: u64) -> Bracket {
        self.streams
            .iter()
            .zip(self.extents)
            .map(|(s, e)| e.span(|upto| s.keys.count(key, upto)))
            .fold(Bracket::exact(0), Bracket::add)
    }

    /// Bracket of predicate `set`'s window weight.
    pub fn set(&self, set: usize) -> Bracket {
        self.streams
            .iter()
            .zip(self.extents)
            .map(|(s, e)| e.span(|upto| s.sets[set].count(upto)))
            .fold(Bracket::exact(0), Bracket::add)
    }

    /// Bracket of an explicit key list's window weight.
    pub fn keys(&self, keys: &[u64]) -> Bracket {
        keys.iter()
            .map(|&k| self.key(k))
            .fold(Bracket::exact(0), Bracket::add)
    }

    /// Most passes of any stream one window can touch, partial ones
    /// included: a window's count of a key is at most this times the
    /// key's summed per-pass count.
    fn pass_factor(&self) -> u64 {
        self.streams
            .iter()
            .zip(self.extents)
            .map(|(s, e)| (e.sent - e.from.min(e.sent)) / s.keys.len() + 2)
            .max()
            .unwrap_or(0)
    }
}

/// Keys ordered by summed per-pass weight, heaviest first: the order in
/// which a recall check can stop early.
pub fn recall_order(streams: &[Stream], universe: u64) -> Vec<(u64, u64)> {
    let mut order: Vec<(u64, u64)> = (0..=universe)
        .map(|k| (k, streams.iter().map(|s| s.keys.per_pass(k)).sum()))
        .filter(|&(_, w)| w > 0)
        .collect();
    order.sort_by_key(|&(k, w)| (std::cmp::Reverse(w), k));
    order
}

/// Outcome of checking one top-K reply.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TopKVerdict {
    /// Entries checked.
    pub entries: u64,
    /// Entries whose interval missed the truth bracket.
    pub entry_misses: u64,
    /// Keys certainly above `floor + slack` that the reply left out.
    pub recall_misses: u64,
}

/// Hold a top-K reply to both halves of its contract.
pub fn check_topk(answer: &TopKAnswer, view: &View, order: &[(u64, u64)]) -> TopKVerdict {
    let mut verdict = TopKVerdict::default();
    for &(key, count, error) in &answer.entries {
        verdict.entries += 1;
        let lower = count.saturating_sub(error.saturating_add(answer.slack));
        if !view
            .key(key)
            .admits(lower, count.saturating_add(answer.slack))
        {
            verdict.entry_misses += 1;
        }
    }
    if answer.floor == u64::MAX {
        return verdict;
    }
    let cutoff = answer.floor.saturating_add(answer.slack);
    let factor = view.pass_factor();
    for &(key, weight) in order {
        if weight.saturating_mul(factor) <= cutoff {
            break;
        }
        if view.key(key).lo > cutoff && !answer.entries.iter().any(|e| e.0 == key) {
            verdict.recall_misses += 1;
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliablesketch::api::CertifiedWeight;

    fn cert(value: u64, mpe: u64, slack: u64) -> CertifiedAnswer {
        CertifiedAnswer {
            value,
            max_possible_error: mpe,
            slack,
            epoch: 0,
        }
    }

    #[test]
    fn pool_counts_cycle_exactly() {
        let keys = [1u32, 2, 1, 3];
        let t = PoolTruth::new(&keys, 4);
        assert_eq!(t.per_pass(1), 2);
        assert_eq!(t.count(1, 0), 0);
        assert_eq!(t.count(1, 1), 1);
        assert_eq!(t.count(1, 3), 2);
        // two full passes plus the first three updates of a third
        assert_eq!(t.count(1, 11), 6);
        assert_eq!(t.count(3, 11), 2);
        assert_eq!(t.count(4, 11), 0);
        assert_eq!(t.count(99, 11), 0);
        let odd = SetTruth::new(&keys, |k| k % 2 == 1);
        assert_eq!(odd.count(4), 3);
        assert_eq!(odd.count(11), 8);
    }

    #[test]
    fn checker_flags_a_wrong_answer() {
        // Settled truth 100: an interval of [90, 95] excludes it.
        let truth = Bracket::exact(100);
        assert!(!point_ok(&cert(95, 5, 0), truth));
        // The same answer widened by enough contention slack is sound.
        assert!(point_ok(&cert(95, 5, 5), truth));
        // An overcount whose error cannot cover the truth is a miss.
        assert!(!point_ok(&cert(140, 25, 0), truth));
    }

    #[test]
    fn checker_accepts_a_concurrent_read_inside_the_bracket() {
        // 100 acknowledged when the request left, 110 sent when the
        // reply came back: a zero-error answer of 105 saw a state in
        // between and is correct, though it equals neither end.
        let truth = Bracket { lo: 100, hi: 110 };
        assert!(point_ok(&cert(105, 0, 0), truth));
        assert!(point_ok(&cert(110, 0, 0), truth));
        assert!(!point_ok(&cert(99, 0, 0), truth));
        assert!(!point_ok(&cert(111, 0, 0), truth));
        let weight = |lo, hi| SubpopAnswer {
            weight: CertifiedWeight {
                estimate: hi,
                lo,
                hi,
                slack: 0,
            },
            epoch: 0,
        };
        assert!(subpop_ok(&weight(104, 106), truth));
        assert!(!subpop_ok(&weight(50, 99), truth));
    }

    #[test]
    fn view_brackets_follow_the_window_and_both_writers() {
        let keys = [1u32, 2, 1, 1];
        let stream = || Stream {
            keys: PoolTruth::new(&keys, 2),
            sets: vec![SetTruth::new(&keys, |k| k == 2)],
        };
        let streams = [stream(), stream()];
        // Writer 0: window opened at update 4 (one seal), 6 acked, 8 sent.
        // Writer 1: settled at 4.
        let extents = [
            Extent {
                from: 4,
                acked: 6,
                sent: 8,
            },
            Extent::settled(4),
        ];
        let view = View {
            streams: &streams,
            extents: &extents,
        };
        assert_eq!(
            view.key(1),
            Bracket {
                lo: 1 + 3,
                hi: 3 + 3
            }
        );
        assert_eq!(
            view.set(0),
            Bracket {
                lo: 1 + 1,
                hi: 1 + 1
            }
        );
        assert_eq!(view.keys(&[1, 2]), Bracket { lo: 6, hi: 8 });
    }

    #[test]
    fn top_k_check_counts_entry_and_recall_misses() {
        let keys: Vec<u32> = [1u32; 50]
            .iter()
            .chain(&[2u32; 30])
            .chain(&[3u32; 5])
            .copied()
            .collect();
        let streams = [Stream {
            keys: PoolTruth::new(&keys, 3),
            sets: vec![],
        }];
        let extents = [Extent::settled(keys.len() as u64)];
        let view = View {
            streams: &streams,
            extents: &extents,
        };
        let order = recall_order(&streams, 3);
        let good = TopKAnswer {
            epoch: 0,
            slack: 0,
            floor: 10,
            entries: vec![(1, 50, 0), (2, 31, 2)],
        };
        assert_eq!(
            check_topk(&good, &view, &order),
            TopKVerdict {
                entries: 2,
                entry_misses: 0,
                recall_misses: 0
            }
        );
        // Key 2 (30 > floor 10) left out, key 1 undercounted.
        let bad = TopKAnswer {
            entries: vec![(1, 40, 0)],
            ..good
        };
        assert_eq!(
            check_topk(&bad, &view, &order),
            TopKVerdict {
                entries: 1,
                entry_misses: 1,
                recall_misses: 1
            }
        );
    }
}
