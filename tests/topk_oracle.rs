//! Oracle-differential suite for the certified top-K layer: race
//! [`CertifiedTopK`] answers against the exact [`GroundTruth`] oracle
//! over Zipf, churning, and adversarial streams, and hold every answer
//! to the two certified contracts:
//!
//! 1. **Containment** — every reported entry's interval
//!    `[count − error, count]` contains the key's exact count;
//! 2. **Recall** — every key whose exact count clears the answer's
//!    [`guaranteed_floor`](CertifiedTopK::guaranteed_floor) appears
//!    among the reported entries.
//!
//! The contracts must hold for *any* `(k, capacity)` pair — including
//! `capacity < k`, where the report is short — and for any stream
//! shape, which is what the property tests sweep. The `two_writer`
//! tests hold the concurrent sketch's summary to the same containment
//! and miss-bound contracts while two writers race batched inserts.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;

use proptest::prelude::*;
use reliablesketch::prelude::*;
use rsk_stream::adversarial::{round_robin, single_heavy};
use rsk_stream::churn::ChurnModel;

/// Generous for the ≤ 20 K-item streams of this suite (the paper ratio
/// would be ~2 KB): the contracts are about certification logic, not
/// memory pressure, so insertion failures stay out of the picture.
const MEMORY: usize = 128 * 1024;
const LAMBDA: u64 = 25;

fn loaded(stream: &[Item<u64>], capacity: usize, seed: u64) -> ReliableSketch<u64> {
    let mut sk = reliablesketch::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .seed(seed)
        .top_k(capacity)
        .build_sequential::<u64>();
    for it in stream {
        sk.insert(&it.key, it.value);
    }
    assert_eq!(sk.insertion_failures(), 0, "memory is generous by design");
    sk
}

/// The two certified contracts, plus structural sanity, against the
/// exact oracle.
fn check_contracts(sk: &ReliableSketch<u64>, truth: &GroundTruth<u64>, k: usize) {
    let top = sk.certified_top_k(k);
    assert!(top.entries.len() <= k);
    assert!(
        top.entries.windows(2).all(|w| w[0].count >= w[1].count),
        "entries must come count-descending"
    );

    // contract 1: containment
    for e in &top.entries {
        let f = truth.freq(&e.key);
        assert!(
            e.contains(f),
            "key {}: truth {f} ∉ [{}, {}]",
            e.key,
            e.lower_bound(),
            e.count
        );
    }

    // contract 2: recall above the certified floor
    let floor = top.guaranteed_floor();
    let reported: HashSet<u64> = top.entries.iter().map(|e| e.key).collect();
    for (key, f) in truth.iter() {
        assert!(
            f <= floor || reported.contains(key),
            "key {key}: truth {f} clears floor {floor} yet is unreported"
        );
    }

    // a certified-recall claim is a theorem, not a hope: every reported
    // truth must then genuinely clear the floor
    if top.recall_certified() {
        for e in &top.entries {
            assert!(
                truth.freq(&e.key) > floor,
                "certified recall with key {} at or below floor {floor}",
                e.key
            );
        }
    }
}

#[test]
fn single_heavy_elephant_is_reported_and_certified() {
    let stream = single_heavy(50_000, 0.4, 2_000, 9);
    let truth = GroundTruth::from_items(&stream);
    let sk = loaded(&stream, 64, 9);
    check_contracts(&sk, &truth, 8);

    // the one elephant carries 40% of the stream: it must be the top
    // entry, and a k=1 report must certify itself
    let top = sk.certified_top_k(1);
    assert_eq!(top.entries.len(), 1);
    let heavy = &top.entries[0];
    assert_eq!(truth.freq(&heavy.key), truth.max_freq());
    assert!(heavy.contains(truth.max_freq()));
    assert!(
        top.recall_certified(),
        "a 20k-count elephant over a mice tail must certify: {top:?}"
    );
}

#[test]
fn round_robin_floor_never_lies() {
    // the adversarial flat stream: every key identical, no true
    // elephants — whatever the layer reports, the contracts must hold
    let stream = round_robin(40_000, 200, 11);
    let truth = GroundTruth::from_items(&stream);
    let sk = loaded(&stream, 32, 11);
    for k in [1, 8, 32] {
        check_contracts(&sk, &truth, k);
    }
}

#[test]
fn churn_keeps_the_contracts_through_rotations() {
    let stream = ChurnModel {
        active_keys: 1_000,
        rotation_period: 5_000,
        churn_fraction: 0.3,
        skew: 1.2,
    }
    .generate(60_000, 13);
    let truth = GroundTruth::from_items(&stream);
    let sk = loaded(&stream, 128, 13);
    for k in [4, 16, 64] {
        check_contracts(&sk, &truth, k);
    }
}

/// Two writers race one `ConcurrentReliable` through `insert_batch`
/// (one barrier start, 2048-item slices), each feeding its own stream.
/// Returns the sketch and the exact per-key truth of both streams.
fn two_writer_race(
    config: ReliableConfig,
    streams: [Vec<(u64, u64)>; 2],
) -> (ConcurrentReliable<u64>, HashMap<u64, u64>) {
    two_writer_race_sliced(config, streams, 2048)
}

/// [`two_writer_race`] with `slice`-item `insert_batch` calls.
fn two_writer_race_sliced(
    config: ReliableConfig,
    streams: [Vec<(u64, u64)>; 2],
    slice: usize,
) -> (ConcurrentReliable<u64>, HashMap<u64, u64>) {
    let sketch = ConcurrentReliable::<u64>::new(config).with_top_k(8);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for stream in &streams {
            let (sketch, start) = (&sketch, &start);
            s.spawn(move || {
                start.wait();
                for batch in stream.chunks(slice) {
                    sketch.insert_batch(batch);
                }
            });
        }
    });
    let mut truth = HashMap::new();
    for &(k, v) in streams.iter().flatten() {
        *truth.entry(k).or_insert(0u64) += v;
    }
    (sketch, truth)
}

/// Containment and the miss bound after a two-writer race, with the
/// sketch's contention slack allowed below the upper end (the raw
/// variant has none). Returns the number of entries checked.
fn check_raced_summary(sketch: &ConcurrentReliable<u64>, truth: &HashMap<u64, u64>) -> usize {
    let slack = sketch.contention_undershoot_bound();
    let top = sketch.certified_top_k(8);
    for e in &top.entries {
        let t = truth[&e.key];
        assert!(
            e.lower_bound() <= t && t <= e.count + slack,
            "key {}: truth {t} ∉ [{}, {}] (+{slack} slack)",
            e.key,
            e.lower_bound(),
            e.count
        );
    }
    let reported: HashSet<u64> = top.entries.iter().map(|e| e.key).collect();
    for (&key, &t) in truth {
        assert!(
            reported.contains(&key) || t <= top.miss_bound + slack,
            "unreported key {key}: truth {t} > miss bound {} (+{slack} slack)",
            top.miss_bound
        );
    }
    top.entries.len()
}

/// Regression for the claim-then-increment race of buffered top-K
/// offers: a writer's units can land in another writer's claim seed
/// before its own offer is applied. With 1 MiB every one of the 48 keys
/// owns its bucket, so estimates are exact and any double count shows
/// as a lower bound above the truth.
#[test]
fn two_writer_batches_keep_topk_certified() {
    let mut checked = 0;
    for seed in 0..20u64 {
        let config = ReliableConfig {
            memory_bytes: 1 << 20,
            mice_filter: None,
            seed,
            ..Default::default()
        };
        let streams = [0u64, 1].map(|w| {
            (0..100_000u64)
                .map(|i| ((i.wrapping_mul(2_654_435_761) ^ (7 * w)) % 48, 1))
                .collect()
        });
        let (sketch, truth) = two_writer_race(config, streams);
        checked += check_raced_summary(&sketch, &truth);
    }
    assert_eq!(checked, 20 * 8, "every run reports a full top-8");
}

/// The filtered variant of the race on Zipf-1.1 streams: the mice
/// filter's own contention slack is the only allowance.
#[test]
fn two_writer_filtered_zipf_batches_keep_topk_certified() {
    for seed in 0..6u64 {
        let config = ReliableConfig {
            memory_bytes: 1 << 20,
            seed,
            ..Default::default()
        };
        let streams = [0u64, 1].map(|w| {
            Dataset::Zipf { skew: 1.1 }
                .generate(100_000, seed * 2 + w)
                .iter()
                .map(|it| (it.key, it.value))
                .collect()
        });
        let (sketch, truth) = two_writer_race(config, streams);
        assert!(sketch.has_filter());
        assert_eq!(check_raced_summary(&sketch, &truth), 8);
    }
}

/// The race with full `MAX_BATCH` (16 384-item) calls, each of which
/// flushes its top-K offers eight times under one clock read per
/// flush: containment, the miss bound, and the item count all hold.
#[test]
fn two_writer_max_batch_slices_keep_topk_certified() {
    for (seed, raw) in [(0u64, true), (1, false), (2, true), (3, false)] {
        let mut config = ReliableConfig {
            memory_bytes: 1 << 20,
            seed,
            ..Default::default()
        };
        if raw {
            config.mice_filter = None;
        }
        let streams = [0u64, 1].map(|w| {
            Dataset::Zipf { skew: 1.1 }
                .generate(100_000, seed * 2 + w)
                .iter()
                .map(|it| (it.key, it.value))
                .collect::<Vec<_>>()
        });
        let total = streams.iter().flatten().filter(|(_, v)| *v > 0).count() as u64;
        let (sketch, truth) = two_writer_race_sliced(config, streams, 16_384);
        assert_eq!(check_raced_summary(&sketch, &truth), 8);
        assert_eq!(sketch.array().stats().items(), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipf streams across skews, seeds, and (k, capacity) shapes —
    /// including capacity < k, where the report is legitimately short.
    #[test]
    fn prop_zipf_answers_stay_certified(
        skew in 0.8f64..1.6,
        items in 5_000usize..20_000,
        seed in 0u64..1_000,
        k in 1usize..32,
        capacity in 8usize..96,
    ) {
        let stream = Dataset::Zipf { skew }.generate(items, seed);
        let truth = GroundTruth::from_items(&stream);
        let sk = loaded(&stream, capacity, seed);
        check_contracts(&sk, &truth, k);
    }

    /// Churning populations: elephants retire mid-stream, so the summary
    /// holds stale entries whose keys stopped arriving — containment and
    /// the floor must survive that.
    #[test]
    fn prop_churn_answers_stay_certified(
        active in 100u64..2_000,
        fraction in 0.0f64..0.5,
        skew in 0.8f64..1.4,
        seed in 0u64..1_000,
        k in 1usize..24,
    ) {
        let items = 20_000;
        let stream = ChurnModel {
            active_keys: active,
            rotation_period: items / 8,
            churn_fraction: fraction,
            skew,
        }
        .generate(items, seed);
        let truth = GroundTruth::from_items(&stream);
        let sk = loaded(&stream, 64, seed);
        check_contracts(&sk, &truth, k);
    }

    /// Adversarial shapes: one overwhelming elephant over a mice tail,
    /// and the perfectly flat stream where nothing should certify as
    /// heavier than anything else.
    #[test]
    fn prop_adversarial_answers_stay_certified(
        share in 0.1f64..0.6,
        mice in 100u64..2_000,
        keys in 10u64..500,
        seed in 0u64..1_000,
        k in 1usize..16,
    ) {
        let heavy = single_heavy(15_000, share, mice, seed);
        let flat = round_robin(15_000, keys, seed);
        for stream in [&heavy, &flat] {
            let truth = GroundTruth::from_items(stream);
            let sk = loaded(stream, 48, seed);
            check_contracts(&sk, &truth, k);
        }
    }
}
