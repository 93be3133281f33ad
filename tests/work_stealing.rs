//! Determinism under stealing, and contended-skew stress (ISSUE 5).
//!
//! The work-stealing phase 2 of `ShardedReliable::ingest_parallel_with`
//! claims scheduling freedom without giving up the bit-equality contract
//! of the static path. This suite pins exactly that:
//!
//! * a property test asserts the ingested sketch is **bit-identical**
//!   across `Static` / `WorkStealing` policies, worker counts, steal
//!   thresholds, and filtered/raw configurations — always equal to a
//!   sequential `insert_shared` replay;
//! * a contended-skew stress drives a Zipf-3.0 stream (one hot shard)
//!   through both policies at several worker counts and checks answers,
//!   certified intervals, and failure counts all agree;
//! * a hot-shard scenario confirms stealing actually *happens* (the
//!   `steals()` gauge), and more workers than shards strand no unit.

use proptest::prelude::*;
use reliablesketch::core::MiceFilterConfig;
use reliablesketch::prelude::*;

fn config(mem: usize, seed: u64, raw: bool) -> ReliableConfig {
    ReliableConfig {
        memory_bytes: mem,
        seed,
        mice_filter: if raw {
            None
        } else {
            Some(MiceFilterConfig::default())
        },
        ..Default::default()
    }
}

/// Sequential oracle: the one-item-at-a-time shared path.
fn replay(cfg: ReliableConfig, shards: usize, items: &[(u64, u64)]) -> ShardedReliable<u64> {
    let sk = ShardedReliable::<u64>::new(cfg, shards);
    for (k, v) in items {
        sk.insert_shared(k, *v);
    }
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-equality across policies, worker counts and thresholds, for
    /// both the filtered and raw configurations.
    #[test]
    fn prop_policies_and_worker_counts_are_bit_identical(
        ops in proptest::collection::vec((0u64..400, 1u64..6), 1..800),
        workers in 2usize..9,
        shards in 3usize..14,
        steal_threshold in 0usize..64,
        raw in proptest::bool::ANY,
    ) {
        let cfg = config(96 * 1024, 7, raw);
        let oracle = replay(cfg.clone(), shards, &ops);

        let static_ = ShardedReliable::<u64>::new(cfg.clone(), shards);
        static_.ingest_parallel_with(&ops, workers, IngestPolicy::Static);
        let stealing = ShardedReliable::<u64>::new(cfg, shards);
        stealing.ingest_parallel_with(&ops, workers, IngestPolicy::WorkStealing { steal_threshold });

        for k in ops.iter().map(|(k, _)| *k) {
            let want = oracle.query_shared(&k);
            prop_assert_eq!(static_.query_shared(&k), want);
            prop_assert_eq!(stealing.query_shared(&k), want);
        }
        prop_assert_eq!(static_.insertion_failures(), oracle.insertion_failures());
        prop_assert_eq!(stealing.insertion_failures(), oracle.insertion_failures());
    }
}

/// Contended skew: Zipf 3.0 routes the rank-1 key's mass to one shard.
/// Both policies must agree with the sequential oracle — answers,
/// certified intervals, and failure counts — at every worker count.
#[test]
fn contended_skew_stress_is_deterministic_and_bounded() {
    let stream = Dataset::Zipf { skew: 3.0 }.generate(60_000, 21);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();
    let truth = GroundTruth::from_items(&stream);

    for raw in [false, true] {
        let cfg = config(256 * 1024, 21, raw);
        let oracle = replay(cfg.clone(), 16, &items);
        for workers in [2usize, 4, 8] {
            for policy in [
                IngestPolicy::Static,
                IngestPolicy::WorkStealing { steal_threshold: 0 },
            ] {
                let sk = ShardedReliable::<u64>::new(cfg.clone(), 16);
                assert_eq!(
                    sk.ingest_parallel_with(&items, workers, policy),
                    items.len()
                );
                assert_eq!(sk.insertion_failures(), oracle.insertion_failures());
                for (k, f) in truth.iter() {
                    let est = sk.query_shared(k);
                    assert_eq!(
                        est,
                        oracle.query_shared(k),
                        "divergence at key {k}, raw={raw}, {workers}w, {policy:?}"
                    );
                    assert!(
                        est.contains(f),
                        "guarantee broken at key {k}: {f} ∉ {est:?}"
                    );
                }
            }
        }
    }
}

/// The hot-shard regime the scheduler exists for: one key dominates, so
/// its shard's unit dwarfs the rest and idle workers must steal the
/// light units off the hot owner's queue. Scheduling is OS-dependent, so
/// the steal assertion retries a few times — but answers are checked on
/// every attempt.
#[test]
fn hot_shard_triggers_steals_without_changing_answers() {
    // 95% of the stream is one key; 16 shards over 4 workers gives the
    // hot owner three more queued units for thieves to take
    let items: Vec<(u64, u64)> = (0..200_000u64)
        .map(|i| (if i % 20 != 0 { 7 } else { i % 501 }, 1))
        .collect();
    let cfg = config(256 * 1024, 3, false);
    let oracle = replay(cfg.clone(), 16, &items);

    let mut stole = false;
    for _attempt in 0..5 {
        let sk = ShardedReliable::<u64>::new(cfg.clone(), 16);
        sk.ingest_parallel_with(&items, 4, IngestPolicy::WorkStealing { steal_threshold: 0 });
        for k in 0..501u64 {
            assert_eq!(sk.query_shared(&k), oracle.query_shared(&k));
        }
        if sk.steals() > 0 {
            stole = true;
            break;
        }
    }
    assert!(stole, "no attempt recorded a steal under a 95%-hot shard");
}

/// Regression: more workers than shards (owners `shard mod w` never
/// reach the upper workers) and per-shard loads below the default steal
/// threshold, so no unit may be stolen — nothing may strand.
#[test]
fn more_workers_than_shards_strand_nothing() {
    let tiny: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 97, 1)).collect();
    let cfg4 = config(64 * 1024, 5, false);
    let small_oracle = replay(cfg4.clone(), 4, &tiny);
    let sk = ShardedReliable::<u64>::new(cfg4, 4);
    sk.ingest_parallel_with(&tiny, 8, IngestPolicy::work_stealing());
    for k in 0..97u64 {
        assert_eq!(sk.query_shared(&k), small_oracle.query_shared(&k));
    }
}

/// The trait-level policy hook: `ingest_parallel_policy` routes through
/// the scheduler for `ShardedReliable` and falls back to the plain
/// parallel path for types without one — both behind `dyn`.
#[test]
fn trait_object_policy_ingestion() {
    let items: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 601, 1)).collect();
    let cfg = config(128 * 1024, 9, false);
    let oracle = replay(cfg.clone(), 4, &items);

    let sharded: Box<dyn ConcurrentSummary<u64>> =
        Box::new(ShardedReliable::<u64>::new(cfg.clone(), 4));
    sharded.ingest_parallel_policy(&items, 4, IngestPolicy::work_stealing());
    for k in 0..601u64 {
        assert_eq!(sharded.query_concurrent(&k), oracle.query_shared(&k).value);
    }

    // ConcurrentReliable has no shard scheduler: the default fallback
    // ignores the policy but still ingests everything
    let atomic: Box<dyn ConcurrentSummary<u64>> = Box::new(ConcurrentReliable::<u64>::new(cfg));
    assert_eq!(
        atomic.ingest_parallel_policy(&items, 2, IngestPolicy::work_stealing()),
        items.len()
    );
    let total: u64 = (0..601u64).map(|k| atomic.query_concurrent(&k)).sum();
    assert!(total >= items.len() as u64, "mass must not be lost");
}
