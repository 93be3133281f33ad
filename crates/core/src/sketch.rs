//! The full ReliableSketch (paper §3.2): Error-Sensible buckets organized
//! in layers under Double Exponential Control, with the lock mechanism
//! diverting error-increasing insertions downward.
//!
//! * **Insert** follows Algorithm 1 layer by layer. Note one fidelity
//!   detail: the paper's pseudocode (lines 10–11) updates `B.NO` before
//!   computing the leftover, which as literally written subtracts zero; we
//!   implement the prose semantics — the bucket absorbs `λ_i − NO_old`, the
//!   remainder `v − (λ_i − NO_old)` moves to the next layer.
//! * **Query** follows Algorithm 2, accumulating `YES`/`NO` contributions
//!   and the Maximum Possible Error (`Σ NO`), stopping at the first
//!   unlocked / replaceable / matching bucket.
//!
//! ### The guarantee
//!
//! As long as no insertion fails, for **every** key
//! `f̂(e) − f(e) ∈ [0, MPE(e)]` and `MPE(e) ≤ filter_threshold + Σ λ_i ≤ Λ`.
//! This is a *deterministic* consequence of the lock invariant
//! `NO_i ≤ λ_i`; randomness only enters in whether insertions fail, which
//! Theorem 4 bounds by `Δ`. The property tests at the bottom of this file
//! machine-check the deterministic part on arbitrary streams.

use crate::bucket::EsBucket;
use crate::config::{ReliableConfig, ReliableConfigBuilder, BUCKET_BYTES};
use crate::emergency::EmergencyStore;
use crate::filter::MiceFilter;
use crate::geometry::LayerGeometry;
use crate::stats::{InsertTrace, QueryTrace, SketchStats, StopLayer};
use crate::topk::TopKSummary;
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ErrorSensing, Estimate, Key, MemoryFootprint, StreamSummary,
    TopK,
};
use rsk_hash::HashFamily;

/// ReliableSketch: stream summary with all-keys error control.
///
/// ```
/// use rsk_core::ReliableSketch;
/// use rsk_api::{StreamSummary, ErrorSensing};
///
/// let mut sk = ReliableSketch::<u64>::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .build();
/// for pkt in 0..1000u64 {
///     sk.insert(&(pkt % 10), 1); // ten keys, 100 each
/// }
/// let est = sk.query_with_error(&3);
/// assert!(est.contains(100));
/// assert!(est.max_possible_error <= 25);
/// ```
#[derive(Debug, Clone)]
pub struct ReliableSketch<K: Key> {
    config: ReliableConfig,
    geometry: LayerGeometry,
    filter: Option<MiceFilter>,
    layers: Vec<Vec<EsBucket<K>>>,
    hashes: HashFamily,
    emergency: EmergencyStore<K>,
    stats: SketchStats,
    /// Per-bucket "may have diverted keys" flags, populated only by
    /// [`crate::merge`] (empty — zero cost — for ordinary sketches).
    /// A flagged bucket never satisfies a query's stop conditions, so
    /// merged queries keep descending wherever either shard might have
    /// pushed a key deeper; see the module docs of [`crate::merge`].
    divert_hints: Vec<Vec<bool>>,
    /// The error-certified top-K layer ([`crate::topk`]), fed by
    /// elephant promotion; `None` — zero cost — unless enabled through
    /// [`Self::enable_top_k`].
    topk: Option<TopKSummary<K>>,
}

impl<K: Key> ReliableSketch<K> {
    /// Start building with paper-default parameters (1 MB, Λ=25, R_w=2,
    /// R_λ=2.5, 20 % 2-bit mice filter).
    pub fn builder() -> ReliableConfigBuilder {
        ReliableConfig::builder()
    }

    /// Construct from a full configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: ReliableConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ReliableConfig: {e}"));
        let geometry = config.geometry();
        Self::with_geometry(config, geometry)
    }

    /// Construct with an explicit layer schedule, bypassing the Double
    /// Exponential Control derivation — the hook the ablation studies in
    /// [`crate::ablation`] use to compare schedules (e.g. the arithmetic
    /// sequences §3.2 warns against) under otherwise identical machinery.
    pub fn with_geometry(config: ReliableConfig, geometry: LayerGeometry) -> Self {
        let filter = config.mice_filter.as_ref().and_then(|fc| {
            MiceFilter::new(
                config.filter_bytes(),
                fc.arrays,
                fc.counter_bits,
                config.filter_threshold().max(1),
                config.seed ^ crate::filter::FILTER_SEED_SALT,
            )
        });
        let layers = geometry
            .widths()
            .iter()
            .map(|&w| vec![EsBucket::new(); w])
            .collect();
        let hashes = HashFamily::new(geometry.depth(), config.seed);
        let emergency = EmergencyStore::new(config.emergency);
        let stats = SketchStats::new(geometry.depth());
        Self {
            config,
            geometry,
            filter,
            layers,
            hashes,
            emergency,
            stats,
            divert_hints: Vec::new(),
            topk: None,
        }
    }

    /// Attach the error-certified top-K layer ([`crate::topk`]): a
    /// `capacity`-slot Space-Saving summary claimed whenever the mice
    /// filter promotes an elephant (every insert for the raw variant),
    /// each claim seeded from this sketch's own certified post-insert
    /// estimate. Enable *before* ingesting — the summary only witnesses
    /// promotions that happen after it exists. Replaces any previous
    /// layer.
    pub fn enable_top_k(&mut self, capacity: usize) {
        let threshold = self.filter.as_ref().map_or(0, MiceFilter::threshold);
        self.topk = Some(TopKSummary::new(capacity, threshold));
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// The attached top-K summary, if enabled.
    pub fn top_k_summary(&self) -> Option<&TopKSummary<K>> {
        self.topk.as_ref()
    }

    pub(crate) fn top_k_summary_mut(&mut self) -> &mut Option<TopKSummary<K>> {
        &mut self.topk
    }

    /// The configuration this sketch was built from.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The materialized layer geometry.
    pub fn geometry(&self) -> &LayerGeometry {
        &self.geometry
    }

    /// Operation statistics (hash calls, stop layers, failures).
    pub fn stats(&self) -> &SketchStats {
        &self.stats
    }

    /// Reset operation statistics only.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of insert operations that could not place their full value
    /// (the guarantee is void only for these).
    pub fn insertion_failures(&self) -> u64 {
        self.emergency.failures()
    }

    /// Total value dropped by failed inserts (nonzero only with
    /// [`crate::EmergencyPolicy::Disabled`]).
    pub fn dropped_value(&self) -> u64 {
        self.emergency.dropped_value()
    }

    /// Does the mice filter exist (false for the paper's "Raw" variant)?
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Insert and return the full trace (stop layer, hash calls, failure).
    pub fn insert_traced(&mut self, key: &K, value: u64) -> InsertTrace {
        let (trace, passed) = self.insert_passed(key, value);
        // elephant promotion: value cleared the filter (or the sketch is
        // raw) — offer it to the top-K layer *after* the insert landed,
        // so an unmonitored key's claim is seeded from the certified
        // post-insert estimate (an upper bound on its full mass)
        if passed > 0 && self.topk.is_some() {
            if let Some(mut tk) = self.topk.take() {
                tk.offer(key, passed, || self.query_traced(key).estimate);
                self.topk = Some(tk);
            }
        }
        trace
    }

    /// The Algorithm-1 walk; returns the trace together with the value
    /// that cleared the mice filter (0 when fully absorbed — a mouse).
    fn insert_passed(&mut self, key: &K, value: u64) -> (InsertTrace, u64) {
        let mut v = value;
        let mut hash_calls = 0u64;

        if let Some(f) = &mut self.filter {
            hash_calls += f.hash_calls();
            v = f.insert(key, v);
            if v == 0 {
                let trace = InsertTrace {
                    stop: StopLayer::Filter,
                    hash_calls,
                    failed_remainder: 0,
                };
                self.stats.record_insert(&trace);
                return (trace, 0);
            }
        }
        let passed = v;

        for i in 0..self.geometry.depth() {
            hash_calls += 1;
            let j = self.hashes.index(i, key, self.geometry.width(i));
            let lambda = self.geometry.lambda(i);
            let b = &mut self.layers[i][j];

            // (2) matching candidate: absorb fully, even when locked
            if b.id() == Some(key) {
                *b.yes_mut() += v;
                let trace = InsertTrace {
                    stop: StopLayer::Layer(i),
                    hash_calls,
                    failed_remainder: 0,
                };
                self.stats.record_insert(&trace);
                return (trace, passed);
            }

            // (3) lock triggered: absorb up to λ_i − NO, divert the rest.
            // `NO ≤ λ_i` holds for ordinary sketches, but a merged bucket
            // can already sit above the threshold (room = 0, full divert).
            if b.no().saturating_add(v) > lambda && b.yes() > lambda {
                let room = lambda.saturating_sub(b.no());
                *b.no_mut() += room;
                v -= room;
                continue;
            }

            // (4) negative vote and possible replacement
            *b.no_mut() += v;
            if b.no() >= b.yes() {
                b.set_candidate(*key);
                b.swap_votes();
            }
            let trace = InsertTrace {
                stop: StopLayer::Layer(i),
                hash_calls,
                failed_remainder: 0,
            };
            self.stats.record_insert(&trace);
            return (trace, passed);
        }

        // all layers exhausted: insertion failure
        self.emergency.record(key, v);
        let trace = InsertTrace {
            stop: StopLayer::Failed,
            hash_calls,
            failed_remainder: v,
        };
        self.stats.record_insert(&trace);
        (trace, passed)
    }

    /// Insert a batch of items in order — exactly the
    /// [`rsk_api::StreamSummary::insert`] item loop (same buckets, same
    /// traces, same stats), kept as a convenience that counts failures.
    ///
    /// Returns the number of insertion failures within the batch.
    pub fn insert_batch(&mut self, items: &[(K, u64)]) -> u64 {
        let mut failed = 0u64;
        for &(k, v) in items {
            if v > 0 && self.insert_traced(&k, v).stop == StopLayer::Failed {
                failed += 1;
            }
        }
        failed
    }

    /// Drain an item stream through [`Self::insert_batch`] in batches of
    /// `batch_size` (clamped to ≥ 1), buffering only one batch at a time.
    /// Returns the number of items processed.
    pub fn ingest_batched<I>(&mut self, stream: I, batch_size: usize) -> usize
    where
        I: IntoIterator<Item = (K, u64)>,
    {
        let batch_size = batch_size.max(1);
        let mut buffer = Vec::with_capacity(batch_size);
        let mut total = 0usize;
        for item in stream {
            buffer.push(item);
            if buffer.len() == batch_size {
                self.insert_batch(&buffer);
                total += buffer.len();
                buffer.clear();
            }
        }
        self.insert_batch(&buffer);
        total + buffer.len()
    }

    /// Query and return the full trace (estimate, layers visited, hash
    /// calls).
    pub fn query_traced(&self, key: &K) -> QueryTrace {
        let mut est = 0u64;
        let mut mpe = 0u64;
        let mut hash_calls = 0u64;
        let mut layers_visited = 0usize;
        let mut descend = true;

        if let Some(f) = &self.filter {
            hash_calls += f.hash_calls();
            let (c, saturated) = f.query(key);
            est += c;
            mpe += c;
            descend = saturated;
        }

        if descend {
            for i in 0..self.geometry.depth() {
                hash_calls += 1;
                layers_visited += 1;
                let j = self.hashes.index(i, key, self.geometry.width(i));
                let b = &self.layers[i][j];
                let matches = b.id() == Some(key);
                est += if matches { b.yes() } else { b.no() };
                mpe += b.no();
                // Algorithm 2 stop conditions: unlocked, replaceable, or
                // ours — suppressed on merge-flagged buckets, from which a
                // key may have descended in some shard (see crate::merge)
                if !self.divert_hint(i, j)
                    && (b.no() < self.geometry.lambda(i) || b.yes() == b.no() || matches)
                {
                    break;
                }
            }
        }

        // remainders recorded by the emergency store (exact or bounded)
        let (ev, eo) = self.emergency.query(key);
        est += ev;
        mpe += eo;

        let trace = QueryTrace {
            estimate: Estimate {
                value: est,
                max_possible_error: mpe,
            },
            layers_visited,
            hash_calls,
        };
        self.stats.record_query(&trace);
        trace
    }

    /// Keys currently held as bucket candidates, with their estimates —
    /// the decodable content of the sketch, used for heavy-hitter reports.
    pub fn candidates(&self) -> Vec<(K, Estimate)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for layer in &self.layers {
            for b in layer {
                if let Some(&k) = b.id() {
                    if seen.insert(k) {
                        out.push((k, self.query_with_error(&k)));
                    }
                }
            }
        }
        out
    }

    /// Candidates whose estimate reaches `threshold` (heavy hitters).
    ///
    /// With the all-keys guarantee intact, every key with
    /// `f(e) ≥ threshold + Λ` is reported and every report satisfies
    /// `f̂ ≥ threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, Estimate)> {
        let mut hh: Vec<(K, Estimate)> = self
            .candidates()
            .into_iter()
            .filter(|(_, est)| est.value >= threshold)
            .collect();
        hh.sort_by_key(|(_, est)| core::cmp::Reverse(est.value));
        hh
    }

    /// Worst-case MPE the structure can report for any key:
    /// `filter_threshold + Σ λ_i` (≤ Λ by construction).
    ///
    /// **Caveat:** this ceiling applies to sketches that ingested their
    /// stream directly. After [`rsk_api::Merge::merge`] the reported MPEs
    /// remain *certified* (intervals still contain the truth) but are no
    /// longer a-priori bounded by `Λ` — check [`Self::is_merged`].
    pub fn mpe_ceiling(&self) -> u64 {
        self.config.filter_threshold() + self.geometry.total_lambda()
    }

    /// Has this sketch absorbed another via [`rsk_api::Merge::merge`]?
    ///
    /// Merged sketches keep the interval guarantee (`truth ∈ [f̂ − MPE,
    /// f̂]` for every key) but the `MPE ≤ Λ` ceiling becomes
    /// data-dependent; see [`crate::merge`].
    pub fn is_merged(&self) -> bool {
        !self.divert_hints.is_empty()
    }

    #[inline]
    fn divert_hint(&self, layer: usize, index: usize) -> bool {
        self.divert_hints.get(layer).is_some_and(|l| l[index])
    }

    // ---- crate-internal access for the merge/snapshot modules ----

    pub(crate) fn merge_parts(&mut self) -> PartsMut<'_, K> {
        (
            &mut self.filter,
            &mut self.layers,
            &mut self.emergency,
            &mut self.stats,
            &mut self.divert_hints,
        )
    }

    pub(crate) fn peer_parts(&self) -> Parts<'_, K> {
        (
            &self.filter,
            &self.layers,
            &self.emergency,
            &self.stats,
            &self.divert_hints,
        )
    }
}

/// Mutable view over the sketch internals shared with the merge and
/// snapshot modules.
pub(crate) type PartsMut<'a, K> = (
    &'a mut Option<MiceFilter>,
    &'a mut Vec<Vec<EsBucket<K>>>,
    &'a mut EmergencyStore<K>,
    &'a mut SketchStats,
    &'a mut Vec<Vec<bool>>,
);

/// Shared view over the sketch internals.
pub(crate) type Parts<'a, K> = (
    &'a Option<MiceFilter>,
    &'a Vec<Vec<EsBucket<K>>>,
    &'a EmergencyStore<K>,
    &'a SketchStats,
    &'a Vec<Vec<bool>>,
);

impl<K: Key> StreamSummary<K> for ReliableSketch<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        if value == 0 {
            return;
        }
        self.insert_traced(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_traced(key).estimate.value
    }
}

impl<K: Key> ErrorSensing<K> for ReliableSketch<K> {
    #[inline]
    fn query_with_error(&self, key: &K) -> Estimate {
        self.query_traced(key).estimate
    }
}

impl<K: Key> MemoryFootprint for ReliableSketch<K> {
    fn memory_bytes(&self) -> usize {
        let filter = self.filter.as_ref().map_or(0, |f| f.memory_bytes());
        let layers = self.geometry.total_buckets() * BUCKET_BYTES;
        let topk = self.topk.as_ref().map_or(0, TopKSummary::memory_bytes);
        filter + layers + topk + self.emergency.memory_bytes()
    }
}

impl<K: Key> TopK<K> for ReliableSketch<K> {
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        self.topk
            .as_ref()
            .map_or_else(CertifiedTopK::vacuous, |tk| tk.certified_top_k(k))
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.topk.as_ref().map(TopKSummary::capacity)
    }
}

impl<K: Key> Algorithm for ReliableSketch<K> {
    fn name(&self) -> String {
        if self.has_filter() {
            "Ours".into()
        } else {
            "Ours(Raw)".into()
        }
    }
}

impl<K: Key> Clear for ReliableSketch<K> {
    fn clear(&mut self) {
        if let Some(f) = &mut self.filter {
            f.clear();
        }
        for layer in &mut self.layers {
            for b in layer {
                b.clear();
            }
        }
        self.emergency.clear();
        self.stats.reset();
        self.divert_hints.clear();
        if let Some(tk) = &mut self.topk {
            tk.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Depth, EmergencyPolicy, MiceFilterConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_sketch(mem: usize, lambda: u64) -> ReliableSketch<u64> {
        ReliableSketch::<u64>::builder()
            .memory_bytes(mem)
            .error_tolerance(lambda)
            .seed(1)
            .build()
    }

    #[test]
    fn single_key_is_exactish() {
        let mut sk = small_sketch(16 * 1024, 25);
        for _ in 0..1000 {
            sk.insert(&42u64, 1);
        }
        let est = sk.query_with_error(&42);
        assert!(est.contains(1000), "est {est:?}");
        assert!(est.max_possible_error <= 25);
    }

    #[test]
    fn guarantee_holds_without_failures_many_keys() {
        let mut sk = small_sketch(64 * 1024, 25);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // 2000 keys, zipf-ish sizes via k*k spacing
        for k in 0u64..2000 {
            let f = 1 + (k % 50) * (k % 7);
            for _ in 0..f {
                sk.insert(&k, 1);
            }
            *truth.entry(k).or_insert(0) += f;
        }
        assert_eq!(sk.insertion_failures(), 0, "undersized for this test");
        let lambda = sk.config().lambda;
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
            assert!(est.value - f <= lambda, "outlier at key {k}");
            assert!(est.max_possible_error <= lambda);
        }
    }

    #[test]
    fn raw_variant_has_no_filter_and_same_guarantee() {
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .raw()
            .seed(2)
            .build();
        assert!(!sk.has_filter());
        assert_eq!(sk.name(), "Ours(Raw)");
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..20_000u64 {
            let k = i % 700;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        if sk.insertion_failures() == 0 {
            for (&k, &f) in &truth {
                let est = sk.query_with_error(&k);
                assert!(est.contains(f));
                assert!(est.value - f <= 25);
            }
        }
    }

    #[test]
    fn mpe_ceiling_is_within_lambda() {
        for lambda in [5u64, 25, 100] {
            let sk = small_sketch(32 * 1024, lambda);
            assert!(
                sk.mpe_ceiling() <= lambda,
                "ceiling {} > Λ {lambda}",
                sk.mpe_ceiling()
            );
        }
    }

    #[test]
    fn weighted_inserts_split_across_lock_boundary() {
        // large values must be carried across layers without loss
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(8 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(3)
            .build();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..3000u64 {
            let k = i % 101;
            let v = 1 + (i % 37) * 11;
            sk.insert(&k, v);
            *truth.entry(k).or_insert(0) += v;
        }
        // with the exact emergency table, estimates stay within Λ bounds
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn unseen_keys_never_underflow() {
        let mut sk = small_sketch(16 * 1024, 25);
        for i in 0..5000u64 {
            sk.insert(&(i % 50), 1);
        }
        for ghost in 10_000u64..10_100 {
            let est = sk.query_with_error(&ghost);
            assert!(est.contains(0), "ghost key {ghost}: {est:?}");
        }
    }

    #[test]
    fn forced_failures_are_counted() {
        // one bucket per layer, two layers, no filter, tiny λ: three
        // mutually colliding heavy keys must overflow the structure
        let cfg = ReliableConfig {
            memory_bytes: 2 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::Disabled,
            lambda_floor_one: true,
            seed: 4,
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
        for i in 0..300u64 {
            sk.insert(&(i % 3), 1);
        }
        assert!(sk.insertion_failures() > 0);
        assert!(sk.dropped_value() > 0);
    }

    #[test]
    fn exact_emergency_restores_guarantee_under_failures() {
        let cfg = ReliableConfig {
            memory_bytes: 4 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            lambda_floor_one: true,
            seed: 4,
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..900u64 {
            let k = i % 7;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        assert!(sk.insertion_failures() > 0, "test should force failures");
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f), "key {k}: {f} ∉ {est:?}");
        }
    }

    #[test]
    fn heavy_hitters_are_found() {
        let mut sk = small_sketch(64 * 1024, 25);
        for i in 0..10_000u64 {
            sk.insert(&(i % 1000), 1); // everyone gets 10
        }
        for _ in 0..5000 {
            sk.insert(&7777u64, 1); // one elephant
        }
        let hh = sk.heavy_hitters(1000);
        assert!(hh.iter().any(|(k, _)| *k == 7777), "elephant missing");
        assert!(hh[0].0 == 7777);
        assert!(hh[0].1.value >= 5000);
    }

    #[test]
    fn top_k_layer_certifies_the_elephants() {
        let mut sk = small_sketch(64 * 1024, 25).with_top_k(8);
        assert_eq!(rsk_api::TopK::top_k_capacity(&sk), Some(8));
        for i in 0..10_000u64 {
            sk.insert(&(i % 1000), 1); // everyone gets 10 (mice)
        }
        for e in 0..3u64 {
            for _ in 0..5_000 - 1_000 * e {
                sk.insert(&(7_000 + e), 1); // elephants: 5000, 4000, 3000
            }
        }
        let ans = rsk_api::TopK::certified_top_k(&sk, 3);
        assert_eq!(ans.entries.len(), 3);
        let keys: Vec<u64> = ans.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![7000, 7001, 7002]);
        for (e, truth) in ans.entries.iter().zip([5000u64, 4000, 3000]) {
            assert!(e.contains(truth), "{e:?} lost truth {truth}");
        }
        // each true elephant count dwarfs the floor: recall is certified
        assert!(ans.recall_certified(), "floor {}", ans.guaranteed_floor());
        // disabled layer answers vacuously
        let raw = small_sketch(64 * 1024, 25);
        assert_eq!(rsk_api::TopK::top_k_capacity(&raw), None);
        assert_eq!(
            rsk_api::TopK::certified_top_k(&raw, 3),
            rsk_api::CertifiedTopK::vacuous()
        );
        // object safety
        let dyn_tk: &dyn rsk_api::TopK<u64> = &sk;
        assert_eq!(dyn_tk.certified_top_k(1).entries[0].key, 7000);
    }

    #[test]
    fn stats_track_hash_calls() {
        let mut sk = small_sketch(64 * 1024, 25);
        for i in 0..1000u64 {
            sk.insert(&i, 1);
        }
        assert_eq!(sk.stats().inserts(), 1000);
        // 2-array filter: at least 2 hash calls per insert
        assert!(sk.stats().avg_insert_hash_calls() >= 2.0);
        for i in 0..1000u64 {
            sk.query(&i);
        }
        assert_eq!(sk.stats().queries(), 1000);
        assert!(sk.stats().avg_query_hash_calls() >= 2.0);
    }

    #[test]
    fn clear_resets_content() {
        let mut sk = small_sketch(16 * 1024, 25);
        for i in 0..1000u64 {
            sk.insert(&i, 3);
        }
        rsk_api::Clear::clear(&mut sk);
        for i in 0..1000u64 {
            let est = sk.query_with_error(&i);
            assert_eq!(est.value, 0);
        }
        assert_eq!(sk.stats().inserts(), 0);
    }

    #[test]
    fn zero_value_insert_is_noop() {
        let mut sk = small_sketch(16 * 1024, 25);
        sk.insert(&1u64, 0);
        assert_eq!(sk.stats().inserts(), 0);
        assert_eq!(sk.query(&1), 0);
    }

    #[test]
    fn memory_footprint_close_to_budget() {
        for budget in [16 * 1024usize, 64 * 1024, 1 << 20] {
            let sk = small_sketch(budget, 25);
            let used = sk.memory_bytes();
            assert!(used <= budget, "{used} > {budget}");
            assert!(used as f64 > budget as f64 * 0.95, "{used} ≪ {budget}");
        }
    }

    #[test]
    fn eight_bit_filter_variant_works() {
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .mice_filter(MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            })
            .seed(5)
            .build();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let k = i % 900;
            sk.insert(&k, 1);
            *truth.entry(k).or_insert(0) += 1;
        }
        assert_eq!(sk.insertion_failures(), 0);
        for (&k, &f) in &truth {
            let est = sk.query_with_error(&k);
            assert!(est.contains(f));
            assert!(est.value - f <= 25);
        }
    }

    #[test]
    fn insert_batch_is_identical_to_item_loop() {
        for raw in [false, true] {
            let build = || {
                let mut b = ReliableSketch::<u64>::builder()
                    .memory_bytes(32 * 1024)
                    .error_tolerance(25)
                    .seed(17);
                if raw {
                    b = b.raw();
                }
                b.build::<u64>()
            };
            let items: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 997, 1 + i % 5)).collect();
            let mut batched = build();
            batched.insert_batch(&items);
            let mut looped = build();
            for &(k, v) in &items {
                looped.insert(&k, v);
            }
            for k in 0..997u64 {
                assert_eq!(
                    batched.query_with_error(&k),
                    looped.query_with_error(&k),
                    "raw={raw} key={k}"
                );
            }
            assert_eq!(batched.stats().inserts(), looped.stats().inserts());
            assert_eq!(
                batched.stats().avg_insert_hash_calls(),
                looped.stats().avg_insert_hash_calls(),
                "batch hashing must be accounted identically"
            );
        }
    }

    #[test]
    fn ingest_batched_drains_arbitrary_stream_lengths() {
        // lengths that are not multiples of the batch size exercise the
        // final partial flush
        for (n, batch) in [(0usize, 8usize), (7, 8), (64, 64), (1000, 33)] {
            let mut sk = small_sketch(32 * 1024, 25);
            let processed = sk.ingest_batched((0..n as u64).map(|i| (i % 13, 1)), batch);
            assert_eq!(processed, n);
            assert_eq!(sk.stats().inserts(), n as u64);
        }
    }

    #[test]
    fn insert_batch_reports_failures() {
        let cfg = ReliableConfig {
            memory_bytes: 2 * BUCKET_BYTES,
            lambda: 2,
            r_w: 2.0,
            r_lambda: 2.0,
            depth: Depth::Fixed(2),
            mice_filter: None,
            emergency: EmergencyPolicy::Disabled,
            lambda_floor_one: true,
            seed: 4,
        };
        let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
        let items: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 3, 1)).collect();
        let failed = sk.insert_batch(&items);
        assert!(failed > 0);
        assert_eq!(failed, sk.insertion_failures());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The deterministic guarantee: on any stream, for every key,
        /// either some insertion failed or
        /// `0 ≤ f̂(e) − f(e) ≤ MPE(e) ≤ Λ`.
        #[test]
        fn prop_all_keys_controlled(
            ops in proptest::collection::vec((0u64..300, 1u64..8), 1..2000),
            seed in 0u64..32,
            raw in proptest::bool::ANY,
        ) {
            let mut b = ReliableSketch::<u64>::builder()
                .memory_bytes(8 * 1024)
                .error_tolerance(25)
                .seed(seed);
            if raw { b = b.raw(); }
            let mut sk: ReliableSketch<u64> = b.build();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                sk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
            }
            if sk.insertion_failures() == 0 {
                for (&k, &f) in &truth {
                    let est = sk.query_with_error(&k);
                    prop_assert!(est.value >= f,
                        "undershoot key {}: {} < {}", k, est.value, f);
                    prop_assert!(est.value - f <= est.max_possible_error,
                        "MPE lies for key {}", k);
                    prop_assert!(est.max_possible_error <= 25,
                        "MPE {} > Λ", est.max_possible_error);
                }
            }
        }

        /// With the exact emergency table the interval contract holds even
        /// for deliberately overloaded sketches.
        #[test]
        fn prop_emergency_interval_contract(
            ops in proptest::collection::vec((0u64..50, 1u64..30), 1..800),
            seed in 0u64..16,
        ) {
            let cfg = ReliableConfig {
                memory_bytes: 16 * BUCKET_BYTES,
                lambda: 5,
                r_w: 2.0,
                r_lambda: 2.0,
                depth: Depth::Fixed(3),
                mice_filter: None,
                emergency: EmergencyPolicy::ExactTable,
                lambda_floor_one: false,
                seed,
            };
            let mut sk: ReliableSketch<u64> = ReliableSketch::new(cfg);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (k, v) in ops {
                sk.insert(&k, v);
                *truth.entry(k).or_insert(0) += v;
            }
            for (&k, &f) in &truth {
                let est = sk.query_with_error(&k);
                prop_assert!(est.contains(f), "key {}: {} ∉ {:?}", k, f, est);
            }
        }

        /// Lock invariant: no bucket's NO ever exceeds its layer threshold.
        #[test]
        fn prop_lock_invariant(
            ops in proptest::collection::vec((0u64..100, 1u64..12), 1..600),
            seed in 0u64..16,
        ) {
            let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
                .memory_bytes(4 * 1024)
                .error_tolerance(25)
                .raw()
                .seed(seed)
                .build();
            for (k, v) in ops {
                sk.insert(&k, v);
            }
            for (i, layer) in sk.layers.iter().enumerate() {
                let lambda = sk.geometry.lambda(i);
                for b in layer {
                    prop_assert!(b.no() <= lambda,
                        "layer {} NO {} > λ {}", i, b.no(), lambda);
                }
            }
        }
    }
}
