//! Lock-free atomic bucket layers — the multi-core hot path.
//!
//! The paper scales ReliableSketch across FPGA/Tofino *pipeline stages*;
//! on CPUs the analogue is scaling across cores, and the lesson of "Fast
//! Concurrent Data Sketches" (Rinberg et al., PPoPP '20) is that lock-free
//! ingestion beats lock-based designs by an order of magnitude. This
//! module rebuilds the Error-Sensible bucket for that regime:
//!
//! * **One `AtomicU64` word per bucket.** The paper's §6.1.1 hardware
//!   layout (32-bit `YES`, 16-bit `NO`, 32-bit `ID` = 80 bits) does not
//!   fit a single CAS word, so the concurrent bucket stores a 24-bit key
//!   *fingerprint* instead of the full ID and packs
//!   `fingerprint(24) | count(28) | error(12)` into 64 bits. `error` is
//!   the bucket's `NO` field; the lock invariant `NO ≤ λ_i ≤ Λ` keeps it
//!   within 12 bits (enforced at construction).
//! * **CAS capture of the lock-in rule.** One insertion step — vote,
//!   lock-divert, or candidate replacement with the `YES`/`NO` swap — is
//!   computed as a pure function on the packed word (`step_word`) and
//!   committed with a single compare-and-swap, so every bucket transition
//!   is atomic and the per-bucket invariants (`YES ≥ NO` for candidates,
//!   `NO ≤ λ_i`) hold under any interleaving.
//! * **Relaxed counters for stats.** Items, CAS retries, failures and
//!   saturation events are `Relaxed` atomics off the decision path.
//!
//! ### What survives concurrency
//!
//! Each CAS is a linearization point, so a parallel execution is
//! equivalent to *some* sequential stream in which each `⟨key, value⟩`
//! insertion may be split into per-layer sub-insertions. ReliableSketch
//! is closed under such splits (weighted insertions already split across
//! the lock boundary), so the structural guarantees survive: estimates
//! never undershoot the truth (short of the saturation caveat below),
//! `MPE(e) ≤ Σ λ_i ≤ Λ` for every key, and a locked bucket stays locked.
//! What is *not* preserved under concurrent interleaving is bit-for-bit
//! determinism of the election outcomes — that is restored one level up
//! by [`crate::concurrent::ShardedReliable::ingest_parallel`], which applies
//! each shard's sub-stream in stream order from a single owner.
//!
//! ### Feature parity with the sequential sketch
//!
//! The concurrent path implements the paper's *full* §3.3 design, not just
//! the "Raw" variant:
//!
//! * **Mice filter** — [`ConcurrentReliable`] honors
//!   [`crate::MiceFilterConfig`] with an [`crate::filter::AtomicMiceFilter`]
//!   (CU counters packed into `AtomicU64` lanes, one-CAS conditional
//!   increment), so mouse flows are absorbed before they burn first-layer
//!   buckets;
//! * **Emergency store** — failures are recorded under the configured
//!   policy behind a mutex only failures touch;
//! * **Windows** — [`crate::epoch::EpochedConcurrent`] rotates generations
//!   of this structure for bounded-history summaries;
//! * **Merging** — [`rsk_api::Merge`] is implemented for
//!   [`ConcurrentReliable`] and [`crate::concurrent::ShardedReliable`]
//!   (packed words are read out into
//!   [`crate::EsBucket`] unions — see [`crate::merge`]), and
//!   [`ConcurrentReliable::merge_from_sequential`] folds in a sequential
//!   [`crate::ReliableSketch`] twin for mixed distributed aggregation.
//!
//! ### Caveats vs. [`crate::ReliableSketch`]
//!
//! Two premise violations are open (ROADMAP item 3); while either fires,
//! a certified interval may exclude the truth:
//!
//! * **Fingerprint aliasing.** Buckets hold a 24-bit fingerprint, not
//!   the key, so two keys that share a bucket and a fingerprint alias
//!   (a `2⁻²⁴` chance per colliding pair for random keys; the paper's
//!   32-bit `ID` field makes the same trade at `2⁻³²`). The absent twin
//!   then reads the present key's `YES` as its own, which lifts
//!   `f̂ − MPE` above its truth: after 1000 inserts of one key, its
//!   crafted alias answers `est = 1000, mpe = 0`. The seed is fixed per
//!   configuration, so such pairs can be found offline.
//! * **Count saturation.** `YES` is a 28-bit field that clips at
//!   [`COUNT_MAX`]; the clipped mass is lost, so `f̂` can fall below the
//!   truth and the interval sits under it. The only trace is
//!   [`AtomicStats::saturations`].
//! * With a mice filter configured, racing inserts of one key may read
//!   the CU minimum across lanes mid-update; the per-key estimate can
//!   then trail the truth by at most
//!   [`ConcurrentReliable::contention_undershoot_bound`]
//!   (`(arrays − 1) × threshold`, 3 units at paper defaults). Uncontended
//!   execution — one producer, or one owner per shard as in
//!   [`crate::concurrent::ShardedReliable::ingest_parallel`] — is exact
//!   and bit-for-bit equal to the filtered sequential sketch.
//!
//! # Examples
//!
//! Shared-reference ingestion from four threads, with the certified
//! interval (§3.1's Maximum Possible Error) intact at the end:
//!
//! ```
//! use rsk_core::atomic::ConcurrentReliable;
//! use rsk_core::ReliableConfig;
//!
//! let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
//!     memory_bytes: 64 * 1024,
//!     seed: 7,
//!     ..Default::default() // paper defaults: Λ=25, 20% 2-bit mice filter
//! });
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let sk = &sk;
//!         s.spawn(move || {
//!             for i in 0..1000u64 {
//!                 sk.insert_concurrent(&(i % 10), 1 + t % 2);
//!             }
//!         });
//!     }
//! });
//! let est = sk.query_with_error(&3);
//! // 600 units of true mass; contention may hide at most the documented
//! // filter slack, and the MPE ceiling Λ = 25 survives any interleaving
//! assert!(est.value + sk.contention_undershoot_bound() >= 600);
//! assert!(est.max_possible_error <= 25);
//! ```

use crate::bucket::EsBucket;
use crate::config::ReliableConfig;
use crate::emergency::EmergencyStore;
use crate::filter::{AtomicMiceFilter, FILTER_SEED_SALT};
use crate::geometry::LayerGeometry;
use crate::topk::TopKSummary;
use parking_lot::Mutex;
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ErrorSensing, Estimate, Key, MemoryFootprint, StreamSummary,
    TopK,
};
use rsk_hash::{splitmix64, HashFamily};
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical size of one atomic bucket: a single 64-bit word.
pub const ATOMIC_BUCKET_BYTES: usize = 8;

/// Bits of the packed word holding the bucket error (`NO`).
const ERR_BITS: u32 = 12;
/// Bits of the packed word holding the candidate count (`YES`).
const COUNT_BITS: u32 = 28;

/// Largest representable `NO`; every layer threshold must stay below it.
pub const ERR_MAX: u64 = (1 << ERR_BITS) - 1;
/// Largest representable `YES`; additions saturate here.
pub const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;
/// Mask of the 24-bit candidate fingerprint.
pub const FP_MASK: u64 = (1 << (64 - ERR_BITS - COUNT_BITS)) - 1;

#[inline]
pub(crate) fn pack(fp: u64, count: u64, err: u64) -> u64 {
    debug_assert!(fp <= FP_MASK && count <= COUNT_MAX && err <= ERR_MAX);
    (fp << (COUNT_BITS + ERR_BITS)) | (count << ERR_BITS) | err
}

#[inline]
pub(crate) fn unpack(word: u64) -> (u64, u64, u64) {
    (
        word >> (COUNT_BITS + ERR_BITS),
        (word >> ERR_BITS) & COUNT_MAX,
        word & ERR_MAX,
    )
}

/// One Algorithm-1 layer step as a pure function on the packed word.
///
/// Returns `(new_word, leftover, saturated)`: the committed bucket state,
/// the value that must descend to the next layer, and whether the `count`
/// field clipped at [`COUNT_MAX`].
///
/// The three branches mirror [`crate::ReliableSketch::insert_traced`]:
/// matching candidates absorb fully (even when locked); a triggered lock
/// absorbs `λ − NO` and diverts the rest; otherwise the value votes `NO`
/// and replaces the candidate when `NO ≥ YES` (swapping the counters).
/// An empty bucket needs no special case — the replacement branch turns
/// `(0, 0, 0)` into `(fp, v, 0)` exactly like a first insertion.
#[inline]
pub(crate) fn step_word(word: u64, fp: u64, value: u64, lambda: u64) -> (u64, u64, bool) {
    let (bfp, yes, no) = unpack(word);
    if bfp == fp {
        let raised = yes.saturating_add(value);
        return (pack(fp, raised.min(COUNT_MAX), no), 0, raised > COUNT_MAX);
    }
    if no.saturating_add(value) > lambda && yes > lambda {
        let room = lambda.saturating_sub(no);
        return (pack(bfp, yes, no + room), value - room, false);
    }
    let votes = no.saturating_add(value);
    if votes >= yes {
        // replacement + swap: the old YES becomes the new NO; both
        // branches reaching here imply old YES ≤ λ ≤ ERR_MAX
        (pack(fp, votes.min(COUNT_MAX), yes), 0, votes > COUNT_MAX)
    } else {
        (pack(bfp, yes, votes), 0, false)
    }
}

/// Relaxed operation counters of an [`AtomicBucketArray`].
#[derive(Debug, Default)]
pub struct AtomicStats {
    items: AtomicU64,
    retries: AtomicU64,
    saturations: AtomicU64,
}

impl AtomicStats {
    /// Insert operations started.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// CAS attempts that lost a race and retried (contention gauge).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Bucket-count saturation events (estimates may undershoot past
    /// [`COUNT_MAX`] per bucket once this is nonzero).
    pub fn saturations(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.items.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.saturations.store(0, Ordering::Relaxed);
    }

    /// Add a peer's counters (the stats half of [`rsk_api::Merge`]).
    pub(crate) fn absorb(&self, other: &Self) {
        self.items.fetch_add(other.items(), Ordering::Relaxed);
        self.retries.fetch_add(other.retries(), Ordering::Relaxed);
        self.saturations
            .fetch_add(other.saturations(), Ordering::Relaxed);
    }

    /// Count `n` foreign insert operations (merging a sequential peer).
    pub(crate) fn add_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }
}

/// The layered lock-free bucket store: geometry-shaped `AtomicU64` words
/// plus relaxed statistics. Hashing and key handling live one level up in
/// [`ConcurrentReliable`]; this type deals in `(layer, index, fingerprint)`
/// coordinates only.
#[derive(Debug)]
pub struct AtomicBucketArray {
    words: Vec<AtomicU64>,
    /// One bit per bucket word, set on CAS commit: the replication
    /// layer's "touched since the last cut" map (see
    /// [`crate::replicate`]). Kept as its own word array so the hot path
    /// pays one relaxed load (and a `fetch_or` only on the first touch)
    /// per committed step.
    dirty: Vec<AtomicU64>,
    offsets: Vec<usize>,
    widths: Vec<usize>,
    lambdas: Vec<u64>,
    stats: AtomicStats,
}

impl AtomicBucketArray {
    /// Allocate zeroed buckets for `geometry`.
    ///
    /// # Panics
    /// Panics if any layer threshold exceeds [`ERR_MAX`] — the packed
    /// 12-bit error field cannot certify larger per-layer budgets.
    pub fn new(geometry: &LayerGeometry) -> Self {
        let widths = geometry.widths().to_vec();
        let lambdas = geometry.lambdas().to_vec();
        assert!(
            lambdas.iter().all(|&l| l <= ERR_MAX),
            "layer threshold exceeds the packed error field ({ERR_MAX})"
        );
        let mut offsets = Vec::with_capacity(widths.len());
        let mut total = 0usize;
        for &w in &widths {
            offsets.push(total);
            total += w;
        }
        let words = (0..total).map(|_| AtomicU64::new(0)).collect();
        let dirty = (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self {
            words,
            dirty,
            offsets,
            widths,
            lambdas,
            stats: AtomicStats::default(),
        }
    }

    /// Number of layers.
    #[inline]
    pub fn depth(&self) -> usize {
        self.widths.len()
    }

    /// Buckets in layer `i`.
    #[inline]
    pub fn width(&self, layer: usize) -> usize {
        self.widths[layer]
    }

    /// Lock threshold of layer `i`.
    #[inline]
    pub fn lambda(&self, layer: usize) -> u64 {
        self.lambdas[layer]
    }

    /// Total buckets across all layers.
    #[inline]
    pub fn total_buckets(&self) -> usize {
        self.words.len()
    }

    /// Operation statistics.
    pub fn stats(&self) -> &AtomicStats {
        &self.stats
    }

    /// Record one insert operation (called once per item by the owner).
    #[inline]
    pub(crate) fn note_item(&self) {
        self.stats.items.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply one layer step for `fingerprint` at `(layer, index)` with a
    /// CAS loop; returns the leftover value that must descend.
    #[inline]
    pub fn insert_step(&self, layer: usize, index: usize, fingerprint: u64, value: u64) -> u64 {
        let global = self.offsets[layer] + index;
        let cell = &self.words[global];
        let lambda = self.lambdas[layer];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let (next, leftover, saturated) = step_word(current, fingerprint, value, lambda);
            match cell.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if saturated {
                        self.stats.saturations.fetch_add(1, Ordering::Relaxed);
                    }
                    self.mark_dirty(global);
                    return leftover;
                }
                Err(actual) => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    current = actual;
                }
            }
        }
    }

    /// Flag bucket `global` as touched since the last replication cut.
    /// Check-before-or keeps the steady state (bit already set) to one
    /// relaxed load; losing the `fetch_or` race is harmless — the bit
    /// only ever turns on between cuts.
    #[inline]
    fn mark_dirty(&self, global: usize) {
        let bit = 1u64 << (global & 63);
        let word = &self.dirty[global >> 6];
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Read bucket `(layer, index)` as `(fingerprint, yes, no)`.
    #[inline]
    pub fn read(&self, layer: usize, index: usize) -> (u64, u64, u64) {
        unpack(self.words[self.offsets[layer] + index].load(Ordering::Acquire))
    }

    /// Read every packed word out into fingerprint-space
    /// [`EsBucket`]s — the bridge into [`crate::merge`]'s union machinery.
    /// A zero word is an empty bucket (every insertion leaves a nonzero
    /// count behind, so the encoding is unambiguous).
    pub fn read_out(&self) -> Vec<Vec<EsBucket<u64>>> {
        (0..self.depth())
            .map(|layer| {
                (0..self.width(layer))
                    .map(|j| {
                        let word = self.words[self.offsets[layer] + j].load(Ordering::Acquire);
                        if word == 0 {
                            EsBucket::new()
                        } else {
                            let (fp, yes, no) = unpack(word);
                            EsBucket::from_parts(Some(fp), yes, no)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Per-layer indices of buckets touched since the last
    /// [`Self::clear_dirty`] (ascending within each layer). This is the
    /// work list a replication delta serializes.
    pub(crate) fn dirty_indices(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = self.widths.iter().map(|_| Vec::new()).collect();
        for (layer, (&off, &w)) in self.offsets.iter().zip(&self.widths).enumerate() {
            for j in 0..w {
                let global = off + j;
                if self.dirty[global >> 6].load(Ordering::Acquire) & (1u64 << (global & 63)) != 0 {
                    out[layer].push(j as u32);
                }
            }
        }
        out
    }

    /// Buckets currently flagged dirty (replication diagnostics).
    pub fn dirty_count(&self) -> usize {
        self.dirty
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Drop every dirty flag — the replication cut point. Exclusive
    /// access guarantees no in-flight insertion can race the clear.
    pub(crate) fn clear_dirty(&mut self) {
        for w in &mut self.dirty {
            *w.get_mut() = 0;
        }
    }

    /// Overwrite bucket `(layer, index)` with explicit fields (replica
    /// restore/apply paths; exclusive access). The fields must fit the
    /// packed word — the caller validates against [`FP_MASK`],
    /// [`COUNT_MAX`] and [`ERR_MAX`] before reaching here.
    pub(crate) fn store_bucket(&mut self, layer: usize, index: usize, fp: u64, yes: u64, no: u64) {
        let global = self.offsets[layer] + index;
        *self.words[global].get_mut() = if yes == 0 && no == 0 && fp == 0 {
            0
        } else {
            pack(fp, yes, no)
        };
    }

    /// Zero every bucket word, keeping the operation statistics (used
    /// when merging seals the live words into an overlay).
    pub(crate) fn zero_words(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Zero every bucket and reset statistics (requires exclusive access
    /// for a consistent result; concurrent readers only ever observe valid
    /// bucket words).
    pub fn reset(&mut self) {
        self.zero_words();
        self.clear_dirty();
        self.stats.reset();
    }
}

/// Sealed union of merged operands, in fingerprint space with unbounded
/// counters (merged `NO` fields can exceed the packed word's 12-bit error
/// field, so the union cannot live in the `AtomicU64` words themselves).
/// Populated only by the [`rsk_api::Merge`] impls; `None` — zero cost —
/// for ordinary sketches. Queries walk the overlay *and* the live atomic
/// words (which keep absorbing post-merge insertions) like two epoch
/// generations; `hints` mirrors [`crate::ReliableSketch`]'s divert flags.
#[derive(Debug)]
pub(crate) struct MergedOverlay {
    pub(crate) layers: Vec<Vec<EsBucket<u64>>>,
    pub(crate) hints: Vec<Vec<bool>>,
}

/// Salt separating the fingerprint hash from the per-layer index family.
const FP_SALT: u64 = 0xf19e_5a1e_0ff5_eeda;

/// The fingerprint-hash seed a sketch built from `seed` uses — shared
/// with [`crate::replicate::SlimSummary`], which must re-derive the same
/// fingerprints standalone from a configuration alone.
#[inline]
pub(crate) fn fp_seed_for(seed: u64) -> u32 {
    splitmix64(seed ^ FP_SALT) as u32
}

/// Lock-free ReliableSketch over an [`AtomicBucketArray`]: shared-`&self`
/// insertion from any number of threads, with the paper's §3.3 mice
/// filter (when configured) running lock-free in front of the bucket
/// layers and the configured emergency policy serviced off the hot path
/// behind a mutex that only failures touch.
///
/// # Examples
///
/// ```
/// use rsk_core::atomic::ConcurrentReliable;
/// use rsk_core::ReliableConfig;
///
/// // paper defaults: Λ = 25, 20% of memory on a 2-bit 2-array CU filter
/// let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
///     memory_bytes: 64 * 1024,
///     seed: 7,
///     ..Default::default()
/// });
/// assert!(sk.has_filter());
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let sk = &sk;
///         s.spawn(move || {
///             for i in 0..1000u64 {
///                 sk.insert_concurrent(&(i % 10), 1 + t % 2);
///             }
///         });
///     }
/// });
/// let est = sk.query_with_error(&3); // true sum: 600
/// assert!(est.value + sk.contention_undershoot_bound() >= 600);
/// assert!(est.max_possible_error <= 25); // MPE ≤ Λ under any schedule
/// ```
#[derive(Debug)]
pub struct ConcurrentReliable<K: Key> {
    config: ReliableConfig,
    geometry: LayerGeometry,
    hashes: HashFamily,
    fp_seed: u32,
    filter: Option<AtomicMiceFilter>,
    array: AtomicBucketArray,
    failures: AtomicU64,
    emergency: Mutex<EmergencyStore<K>>,
    /// The error-certified top-K layer ([`crate::topk`]). The mutex is
    /// touched only on the promotion path — when the mice filter passes
    /// value through (elephant traffic; every insert for the raw
    /// variant) — so mouse-dominated hot paths never contend on it; the
    /// bucket transitions that feed monitored counts were each committed
    /// by the existing one-CAS step before the offer is taken.
    topk: Option<Mutex<TopKSummary<K>>>,
    merged: Option<MergedOverlay>,
    /// Bumped whenever the sealed overlay mutates (every merge funnels
    /// through [`Self::seal_into_overlay`]); lets a replication cut detect
    /// that live-word dirty bits no longer tell the whole story and fall
    /// back to a full snapshot.
    merge_epoch: u64,
    /// Baselines recorded at the last replication cut (see
    /// [`crate::replicate`]); `None` until the sketch first ships a delta.
    #[cfg(feature = "serde")]
    cut: Option<crate::replicate::ReplicaCut>,
}

impl<K: Key> ConcurrentReliable<K> {
    /// Build from a configuration, honoring `config.mice_filter`: the
    /// filter takes its configured fraction of `memory_bytes` as packed
    /// atomic CU lanes, and the remaining budget buys
    /// `layer_bytes / ATOMIC_BUCKET_BYTES` single-word buckets shaped
    /// against the residual tolerance `Λ − threshold` (exactly like
    /// [`crate::ReliableSketch::new`]). With `mice_filter: None` this is
    /// the paper's "Raw" variant and the whole budget goes to buckets.
    ///
    /// # Panics
    /// Panics on invalid configurations, or when `Λ` yields a layer
    /// threshold above [`ERR_MAX`] (the packed error field is 12 bits
    /// wide, a narrower domain than [`crate::ReliableSketch`]'s unbounded
    /// `u64` counters — tolerances up to `Λ = 4095` are always safe).
    pub fn new(config: ReliableConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ReliableConfig: {e}"));
        let buckets = (config.layer_bytes() / ATOMIC_BUCKET_BYTES).max(1);
        let geometry = LayerGeometry::derive(
            buckets,
            config.layer_lambda(),
            config.r_w,
            config.r_lambda,
            config.depth,
            config.lambda_floor_one,
        );
        Self::with_geometry(config, geometry)
    }

    /// Build with an explicit layer schedule (tests and ablations; also
    /// how the differential suite pins this variant to the exact geometry
    /// of a [`crate::ReliableSketch`] twin). The mice filter is still
    /// derived from `config`, identically to the sequential constructor,
    /// so twins share filter shape and hash seeds too.
    pub fn with_geometry(config: ReliableConfig, geometry: LayerGeometry) -> Self {
        let filter = config.mice_filter.as_ref().and_then(|fc| {
            AtomicMiceFilter::new(
                config.filter_bytes(),
                fc.arrays,
                fc.counter_bits,
                config.filter_threshold().max(1),
                config.seed ^ FILTER_SEED_SALT,
            )
        });
        let array = AtomicBucketArray::new(&geometry);
        let hashes = HashFamily::new(geometry.depth(), config.seed);
        let fp_seed = splitmix64(config.seed ^ FP_SALT) as u32;
        let emergency = Mutex::new(EmergencyStore::new(config.emergency));
        Self {
            config,
            geometry,
            hashes,
            fp_seed,
            filter,
            array,
            failures: AtomicU64::new(0),
            emergency,
            topk: None,
            merged: None,
            merge_epoch: 0,
            #[cfg(feature = "serde")]
            cut: None,
        }
    }

    /// The configuration this sketch was built from.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The materialized layer geometry.
    pub fn geometry(&self) -> &LayerGeometry {
        &self.geometry
    }

    /// The underlying bucket store (contention and saturation stats).
    pub fn array(&self) -> &AtomicBucketArray {
        &self.array
    }

    /// Does the mice filter exist (false for the paper's "Raw" variant)?
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// The lock-free mice filter, if configured.
    pub fn filter(&self) -> Option<&AtomicMiceFilter> {
        self.filter.as_ref()
    }

    /// Per-key bound on how far a contended filtered estimate may trail
    /// the truth: the filter's
    /// [`contention_undershoot_bound`](AtomicMiceFilter::contention_undershoot_bound),
    /// or 0 for the raw variant and on uncontended/single-owner paths
    /// (which are exact).
    pub fn contention_undershoot_bound(&self) -> u64 {
        self.filter
            .as_ref()
            .map_or(0, AtomicMiceFilter::contention_undershoot_bound)
    }

    /// Attach the error-certified top-K layer ([`crate::topk`]),
    /// mirroring [`crate::ReliableSketch::enable_top_k`]: offers happen
    /// only when the atomic mice filter passes value through, so the
    /// guarding mutex sees elephant traffic only. Enable *before*
    /// ingesting. Under producer contention a claim's seed estimate may
    /// trail the racing truth by the documented
    /// [`Self::contention_undershoot_bound`]; single-owner histories are
    /// bit-for-bit equal to the sequential twin's summary.
    pub fn enable_top_k(&mut self, capacity: usize) {
        let threshold = self.filter.as_ref().map_or(0, AtomicMiceFilter::threshold);
        self.topk = Some(Mutex::new(TopKSummary::new(capacity, threshold)));
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// Clone of the attached top-K summary, if enabled (read under its
    /// mutex; the merge and epoch layers use this to union summaries).
    pub fn top_k_summary(&self) -> Option<TopKSummary<K>> {
        self.topk.as_ref().map(|tk| tk.lock().clone())
    }

    /// The top-K mutex itself (merge plumbing).
    pub(crate) fn topk_cell(&self) -> Option<&Mutex<TopKSummary<K>>> {
        self.topk.as_ref()
    }

    /// Drop the top-K layer — replica apply paths call this because a
    /// restored bucket image carries no promotion history, so any
    /// existing summary would certify a stream it never witnessed.
    pub(crate) fn invalidate_top_k(&mut self) {
        self.topk = None;
    }

    /// Has this sketch absorbed another via [`rsk_api::Merge`] (or
    /// [`Self::merge_from_sequential`])? Merged sketches keep the
    /// certified-interval guarantee but the `MPE ≤ Λ` ceiling becomes
    /// data-dependent, exactly as for [`crate::ReliableSketch::is_merged`].
    pub fn is_merged(&self) -> bool {
        self.merged.is_some()
    }

    /// Insert operations that overflowed every layer.
    pub fn insertion_failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Total value dropped by failures (nonzero only with
    /// [`crate::EmergencyPolicy::Disabled`]).
    pub fn dropped_value(&self) -> u64 {
        self.emergency.lock().dropped_value()
    }

    /// 24-bit candidate fingerprint of `key`.
    #[inline]
    pub(crate) fn fingerprint(&self, key: &K) -> u64 {
        key.hash32(self.fp_seed) as u64 & FP_MASK
    }

    /// Lock-free insertion through a shared reference.
    #[inline]
    pub fn insert_concurrent(&self, key: &K, value: u64) {
        if value == 0 {
            return;
        }
        let fp = self.fingerprint(key);
        let idx0 = self.hashes.index(0, key, self.geometry.width(0));
        self.insert_prehashed(key, value, fp, idx0);
    }

    /// The walk after the batch-amortized prefix (fingerprint and layer-0
    /// index already computed). The mice filter — when configured — runs
    /// first, exactly like the sequential Algorithm-1 front end: only the
    /// value it passes through descends into the bucket layers.
    #[inline]
    fn insert_prehashed(&self, key: &K, value: u64, fp: u64, idx0: usize) {
        self.array.note_item();
        let mut v = value;
        if let Some(f) = &self.filter {
            v = f.insert(key, v);
            if v == 0 {
                return; // absorbed: a mouse never touches a bucket
            }
        }
        let passed = v;
        self.descend(key, v, fp, idx0);
        // elephant promotion: offer the passed value to the top-K layer
        // after every CAS of this insert committed, so an unmonitored
        // key's claim is seeded from the certified post-insert estimate
        if let Some(tk) = &self.topk {
            tk.lock().offer(key, passed, || self.query_with_error(key));
        }
    }

    /// The bucket-layer walk proper: descend from layer 0 until the value
    /// is absorbed, recording an emergency entry when every layer locks.
    #[inline]
    fn descend(&self, key: &K, value: u64, fp: u64, idx0: usize) {
        let mut v = self.array.insert_step(0, idx0, fp, value);
        let mut layer = 1;
        while v > 0 && layer < self.geometry.depth() {
            let j = self.hashes.index(layer, key, self.geometry.width(layer));
            v = self.array.insert_step(layer, j, fp, v);
            layer += 1;
        }
        if v > 0 {
            self.failures.fetch_add(1, Ordering::Relaxed);
            self.emergency.lock().record(key, v);
        }
    }

    /// Insert a batch, amortizing fingerprint and layer-0 hashing over a
    /// tight precompute loop per 64-item chunk. Semantically identical to
    /// calling [`Self::insert_concurrent`] per item in order; items are
    /// applied in stream order.
    ///
    /// This is the workspace's one batched ingest path that measurably
    /// beats its item loop, on the raw variant (no mice filter; see
    /// ARCHITECTURE.md, "The batched ingest path"). With a filter in
    /// front, most items stop at the filter and never use their
    /// precomputed index, so the prefix saves little.
    pub fn insert_batch(&self, items: &[(K, u64)]) {
        const CHUNK: usize = 64;
        let w0 = self.geometry.width(0);
        let mut idx0 = [0usize; CHUNK];
        let mut fps = [0u64; CHUNK];
        for chunk in items.chunks(CHUNK) {
            for (s, (k, _)) in chunk.iter().enumerate() {
                idx0[s] = self.hashes.index(0, k, w0);
                fps[s] = self.fingerprint(k);
            }
            for (s, &(k, v)) in chunk.iter().enumerate() {
                if v > 0 {
                    self.insert_prehashed(&k, v, fps[s], idx0[s]);
                }
            }
        }
    }

    /// Drain an item stream through [`Self::insert_batch`] in batches of
    /// `batch_size` (clamped to ≥ 1), buffering only one batch at a time.
    /// Returns the number of items processed.
    pub fn ingest_batched<I>(&self, stream: I, batch_size: usize) -> usize
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

    /// Algorithm-2 point query with its certified error interval. The
    /// filter contribution (a `NO` in disguise) joins both the estimate
    /// and the MPE; an unsaturated key never descended, so the walk stops
    /// at the filter. After a merge, the sealed overlay is walked in
    /// addition to the live words (two generations of one stream).
    pub fn query_with_error(&self, key: &K) -> Estimate {
        let fp = self.fingerprint(key);
        let mut est = 0u64;
        let mut mpe = 0u64;
        let mut descend = true;
        if let Some(f) = &self.filter {
            let (c, saturated) = f.query(key);
            est += c;
            mpe += c;
            descend = saturated;
        }
        if descend {
            if let Some(overlay) = &self.merged {
                for i in 0..self.geometry.depth() {
                    let j = self.hashes.index(i, key, self.geometry.width(i));
                    let b = &overlay.layers[i][j];
                    let matches = b.id() == Some(&fp);
                    est += if matches { b.yes() } else { b.no() };
                    mpe += b.no();
                    // stop conditions are suppressed on merge-flagged
                    // buckets, from which a key may have descended in
                    // some operand (see crate::merge)
                    if !overlay.hints[i][j]
                        && (b.no() < self.array.lambda(i) || b.yes() == b.no() || matches)
                    {
                        break;
                    }
                }
            }
            for i in 0..self.geometry.depth() {
                let j = self.hashes.index(i, key, self.geometry.width(i));
                let (bfp, yes, no) = self.array.read(i, j);
                let matches = bfp == fp;
                est += if matches { yes } else { no };
                mpe += no;
                if no < self.array.lambda(i) || yes == no || matches {
                    break;
                }
            }
        }
        if self.failures.load(Ordering::Relaxed) > 0 {
            let (ev, eo) = self.emergency.lock().query(key);
            est += ev;
            mpe += eo;
        }
        Estimate {
            value: est,
            max_possible_error: mpe,
        }
    }

    /// Worst-case MPE this structure can report for any key:
    /// `filter_threshold + Σ λ_i ≤ Λ` (the same split as
    /// [`crate::ReliableSketch::mpe_ceiling`]; the ceiling becomes
    /// data-dependent after a merge — check [`Self::is_merged`]).
    pub fn mpe_ceiling(&self) -> u64 {
        self.config.filter_threshold() + self.geometry.total_lambda()
    }

    // ---- crate-internal access for the merge module ----

    /// The operand view a peer reads while merging: the effective sealed
    /// layers (overlay ∪ live words, unioned on the fly when both exist)
    /// with their divert hints.
    pub(crate) fn effective_layers(&self) -> (Vec<Vec<EsBucket<u64>>>, Vec<Vec<bool>>) {
        let readout = self.array.read_out();
        match &self.merged {
            None => (readout, Vec::new()),
            Some(overlay) => {
                let mut layers = overlay.layers.clone();
                let mut hints = overlay.hints.clone();
                crate::merge::union_layers(
                    &mut layers,
                    &mut hints,
                    &readout,
                    &[],
                    self.geometry.lambdas(),
                );
                (layers, hints)
            }
        }
    }

    /// Seal the live atomic words into the merged overlay (creating it on
    /// first use) and zero them, so post-merge insertions accumulate in a
    /// fresh generation. Operation statistics survive.
    pub(crate) fn seal_into_overlay(&mut self) {
        self.merge_epoch += 1;
        let readout = self.array.read_out();
        match &mut self.merged {
            Some(overlay) => {
                crate::merge::union_layers(
                    &mut overlay.layers,
                    &mut overlay.hints,
                    &readout,
                    &[],
                    self.geometry.lambdas(),
                );
            }
            None => {
                let hints = readout.iter().map(|l| vec![false; l.len()]).collect();
                self.merged = Some(MergedOverlay {
                    layers: readout,
                    hints,
                });
            }
        }
        self.array.zero_words();
    }

    /// Mutable merge state: filter, overlay, emergency store, failure
    /// counter (the concurrent analogue of
    /// [`crate::ReliableSketch`]'s `merge_parts`).
    #[allow(clippy::type_complexity)]
    pub(crate) fn merge_parts(
        &mut self,
    ) -> (
        &mut Option<AtomicMiceFilter>,
        &mut Option<MergedOverlay>,
        &Mutex<EmergencyStore<K>>,
        &AtomicU64,
    ) {
        (
            &mut self.filter,
            &mut self.merged,
            &self.emergency,
            &self.failures,
        )
    }

    /// Shared peer state read during a merge.
    pub(crate) fn peer_filter(&self) -> Option<&AtomicMiceFilter> {
        self.filter.as_ref()
    }

    /// Clone of the peer's emergency store (read under its mutex).
    pub(crate) fn peer_emergency(&self) -> EmergencyStore<K> {
        self.emergency.lock().clone()
    }

    // ---- crate-internal access for the replication layer ----

    /// The sealed merge overlay, if any (replication capture).
    pub(crate) fn overlay(&self) -> Option<&MergedOverlay> {
        self.merged.as_ref()
    }

    /// Overlay mutation counter (see the `merge_epoch` field).
    pub(crate) fn merge_epoch(&self) -> u64 {
        self.merge_epoch
    }

    /// Exclusive access to the bucket store (replica restore/apply).
    #[cfg(feature = "serde")]
    pub(crate) fn array_mut(&mut self) -> &mut AtomicBucketArray {
        &mut self.array
    }

    /// Overwrite the failure counter (replica restore/apply).
    #[cfg(feature = "serde")]
    pub(crate) fn set_failures(&mut self, failures: u64) {
        *self.failures.get_mut() = failures;
    }

    /// The baselines recorded at the last replication cut.
    #[cfg(feature = "serde")]
    pub(crate) fn replica_cut(&self) -> Option<&crate::replicate::ReplicaCut> {
        self.cut.as_ref()
    }

    /// Record a replication cut: clear the dirty map and remember the
    /// baselines the next delta diffs against.
    #[cfg(feature = "serde")]
    pub(crate) fn set_replica_cut(&mut self, cut: crate::replicate::ReplicaCut) {
        self.array.clear_dirty();
        self.cut = Some(cut);
    }
}

impl<K: Key> StreamSummary<K> for ConcurrentReliable<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.insert_concurrent(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }
}

impl<K: Key> ErrorSensing<K> for ConcurrentReliable<K> {
    #[inline]
    fn query_with_error(&self, key: &K) -> Estimate {
        ConcurrentReliable::query_with_error(self, key)
    }
}

impl<K: Key> MemoryFootprint for ConcurrentReliable<K> {
    fn memory_bytes(&self) -> usize {
        let filter = self
            .filter
            .as_ref()
            .map_or(0, AtomicMiceFilter::memory_bytes);
        let overlay = self.merged.as_ref().map_or(0, |_| {
            self.array.total_buckets() * crate::config::BUCKET_BYTES
        });
        let topk = self.topk.as_ref().map_or(0, |tk| tk.lock().memory_bytes());
        filter
            + self.array.total_buckets() * ATOMIC_BUCKET_BYTES
            + overlay
            + topk
            + self.emergency.lock().memory_bytes()
    }
}

impl<K: Key> TopK<K> for ConcurrentReliable<K> {
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        self.topk
            .as_ref()
            .map_or_else(CertifiedTopK::vacuous, |tk| tk.lock().certified_top_k(k))
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.topk.as_ref().map(|tk| tk.lock().capacity())
    }
}

impl<K: Key> Algorithm for ConcurrentReliable<K> {
    fn name(&self) -> String {
        if self.has_filter() {
            "OursAtomic".into()
        } else {
            "OursAtomic(Raw)".into()
        }
    }
}

impl<K: Key> Clear for ConcurrentReliable<K> {
    fn clear(&mut self) {
        if let Some(f) = &mut self.filter {
            f.clear();
        }
        self.array.reset();
        self.failures.store(0, Ordering::Relaxed);
        self.emergency.lock().clear();
        if let Some(tk) = &self.topk {
            tk.lock().clear();
        }
        self.merged = None;
        self.merge_epoch = 0;
        #[cfg(feature = "serde")]
        {
            self.cut = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Depth, EmergencyPolicy, MiceFilterConfig};
    use crate::sketch::ReliableSketch;
    use proptest::prelude::*;

    #[test]
    fn word_roundtrip() {
        for (fp, count, err) in [(0, 0, 0), (1, 2, 3), (FP_MASK, COUNT_MAX, ERR_MAX)] {
            assert_eq!(unpack(pack(fp, count, err)), (fp, count, err));
        }
    }

    #[test]
    fn step_word_matches_bucket_election() {
        // Figure 2's worked example on the packed word (λ large: no lock)
        let mut w = 0u64;
        let (a, b) = (1u64, 2u64);
        let step = |w: &mut u64, fp, v| {
            let (next, left, _) = step_word(*w, fp, v, ERR_MAX);
            *w = next;
            left
        };
        assert_eq!(step(&mut w, a, 2), 0);
        assert_eq!(unpack(w), (a, 2, 0));
        assert_eq!(step(&mut w, a, 3), 0);
        assert_eq!(unpack(w), (a, 5, 0));
        assert_eq!(step(&mut w, b, 10), 0); // NO 10 ≥ YES 5 → replace + swap
        assert_eq!(unpack(w), (b, 10, 5));
    }

    #[test]
    fn step_word_lock_diverts() {
        // λ = 4, bucket captured by fp 1 with YES 10, NO 3: a colliding 5
        // absorbs 1 (to NO = λ) and diverts 4
        let w = pack(1, 10, 3);
        let (next, left, _) = step_word(w, 2, 5, 4);
        assert_eq!(unpack(next), (1, 10, 4));
        assert_eq!(left, 4);
        // a matching key is absorbed fully even when locked
        let (next, left, _) = step_word(next, 1, 7, 4);
        assert_eq!(unpack(next), (1, 17, 4));
        assert_eq!(left, 0);
    }

    #[test]
    fn step_word_count_saturates() {
        let w = pack(3, COUNT_MAX - 1, 0);
        let (next, left, sat) = step_word(w, 3, 10, ERR_MAX);
        assert_eq!(unpack(next), (3, COUNT_MAX, 0));
        assert_eq!(left, 0);
        assert!(sat);
    }

    #[test]
    fn array_rejects_oversized_lambda() {
        let geometry = LayerGeometry::custom(vec![4], vec![ERR_MAX + 1]).unwrap();
        let r = std::panic::catch_unwind(|| AtomicBucketArray::new(&geometry));
        assert!(r.is_err());
    }

    fn twin_pair_with(
        geometry: &LayerGeometry,
        filter: Option<MiceFilterConfig>,
        seed: u64,
    ) -> (ConcurrentReliable<u64>, ReliableSketch<u64>) {
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: filter,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        };
        let atomic = ConcurrentReliable::with_geometry(config.clone(), geometry.clone());
        let classic = ReliableSketch::with_geometry(config, geometry.clone());
        (atomic, classic)
    }

    fn twin_pair(
        geometry: &LayerGeometry,
        seed: u64,
    ) -> (ConcurrentReliable<u64>, ReliableSketch<u64>) {
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            lambda: geometry.total_lambda().max(1),
            depth: Depth::Fixed(geometry.depth()),
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed,
            ..Default::default()
        };
        let atomic = ConcurrentReliable::with_geometry(config.clone(), geometry.clone());
        let classic = ReliableSketch::with_geometry(config, geometry.clone());
        (atomic, classic)
    }

    #[test]
    fn single_thread_equals_classic_sketch() {
        let geometry = LayerGeometry::derive(2_000, 25, 2.0, 2.5, Depth::Auto, false);
        let (atomic, mut classic) = twin_pair(&geometry, 9);
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i % 1_111, 1 + i % 3)).collect();
        for &(k, v) in &items {
            atomic.insert_concurrent(&k, v);
            classic.insert(&k, v);
        }
        for k in 0..1_111u64 {
            let a = atomic.query_with_error(&k);
            let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
            assert_eq!(
                (a.value, a.max_possible_error),
                (c.value, c.max_possible_error)
            );
        }
        assert_eq!(atomic.insertion_failures(), classic.insertion_failures());
    }

    #[test]
    fn insert_batch_equals_item_loop() {
        let geometry = LayerGeometry::derive(1_000, 25, 2.0, 2.5, Depth::Auto, false);
        let config = ReliableConfig {
            memory_bytes: geometry.total_buckets() * ATOMIC_BUCKET_BYTES,
            seed: 4,
            ..Default::default()
        };
        let batched = ConcurrentReliable::<u64>::with_geometry(config.clone(), geometry.clone());
        let looped = ConcurrentReliable::<u64>::with_geometry(config, geometry);
        let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 500, 1 + i % 7)).collect();
        batched.insert_batch(&items);
        for &(k, v) in &items {
            looped.insert_concurrent(&k, v);
        }
        for k in 0..500u64 {
            assert_eq!(batched.query_with_error(&k), looped.query_with_error(&k));
        }
        assert_eq!(
            batched.array().stats().items(),
            looped.array().stats().items()
        );
    }

    #[test]
    fn filtered_single_thread_equals_classic_sketch() {
        // the acceptance differential: the full filtered variant, one
        // producer, is query-equivalent to the filtered sequential sketch
        let geometry = LayerGeometry::derive(2_000, 22, 2.0, 2.5, Depth::Auto, false);
        let (atomic, mut classic) = twin_pair_with(
            &geometry,
            Some(MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            }),
            31,
        );
        assert!(atomic.has_filter() && classic.has_filter());
        // heavy mouse tail plus a few elephants: both sides of the filter
        // boundary are exercised
        let items: Vec<(u64, u64)> = (0..60_000u64)
            .map(|i| {
                if i % 5 == 0 {
                    (i % 40, 3)
                } else {
                    (1_000 + i % 9_000, 1)
                }
            })
            .collect();
        for &(k, v) in &items {
            atomic.insert_concurrent(&k, v);
            classic.insert(&k, v);
        }
        for k in (0..40u64).chain(1_000..10_000) {
            let a = atomic.query_with_error(&k);
            let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
            assert_eq!(
                (a.value, a.max_possible_error),
                (c.value, c.max_possible_error),
                "filtered divergence at key {k}"
            );
        }
        assert_eq!(atomic.insertion_failures(), classic.insertion_failures());
        assert_eq!(atomic.mpe_ceiling(), classic.mpe_ceiling());
    }

    #[test]
    fn filtered_contention_respects_relaxed_bound() {
        // 8 producers hammer the same mice keys through the shared-`&self`
        // path: estimates may trail the truth by at most the documented
        // filter slack, and the MPE ceiling survives any interleaving.
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 256 * 1024,
            emergency: EmergencyPolicy::ExactTable,
            seed: 41,
            ..Default::default()
        });
        assert!(sk.has_filter());
        let slack = sk.contention_undershoot_bound();
        assert!(slack > 0, "default 2-array filter has nonzero slack");
        let (threads, per_thread, keys) = (8u64, 8_000u64, 500u64);
        std::thread::scope(|s| {
            for t in 0..threads {
                let sk = &sk;
                s.spawn(move || {
                    for i in 0..per_thread {
                        sk.insert_concurrent(&((t + i) % keys), 1 + i % 2);
                    }
                });
            }
        });
        assert_eq!(sk.insertion_failures(), 0);
        // every key's true mass: each thread contributes per_thread/keys
        // values from the 1,2 cycle — recompute exactly
        let mut truth = vec![0u64; keys as usize];
        for t in 0..threads {
            for i in 0..per_thread {
                truth[((t + i) % keys) as usize] += 1 + i % 2;
            }
        }
        for (k, &f) in truth.iter().enumerate() {
            let est = sk.query_with_error(&(k as u64));
            assert!(
                est.value + slack >= f,
                "key {k}: {est:?} trails truth {f} beyond the filter slack {slack}"
            );
            assert!(
                est.value <= f + est.max_possible_error,
                "key {k}: overshoot beyond the certified MPE"
            );
            assert!(est.max_possible_error <= sk.mpe_ceiling());
        }
    }

    #[test]
    fn concurrent_inserts_keep_the_guarantee() {
        // raw variant: the bucket CAS path alone is strictly linearizable
        // — no undershoot under any contention
        let sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 256 * 1024,
            mice_filter: None,
            emergency: EmergencyPolicy::ExactTable,
            seed: 3,
            ..Default::default()
        });
        let n_threads = 8u64;
        let per_thread = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let sk = &sk;
                s.spawn(move || {
                    for i in 0..per_thread {
                        sk.insert_concurrent(&((t * per_thread + i) % 2_000), 1);
                    }
                });
            }
        });
        let total = n_threads * per_thread;
        let mut recovered = 0u64;
        for k in 0..2_000u64 {
            let est = sk.query_with_error(&k);
            let truth = total / 2_000;
            assert!(est.value >= truth, "undershoot at {k}: {est:?}");
            assert!(est.max_possible_error <= 25, "MPE blew past Λ at {k}");
            assert!(est.contains(truth), "key {k}: {truth} ∉ {est:?}");
            recovered += est.value - est.max_possible_error.min(est.value);
        }
        assert!(recovered <= total, "lower bounds must not exceed the mass");
    }

    #[test]
    fn clear_resets_everything() {
        let mut sk = ConcurrentReliable::<u64>::new(ReliableConfig {
            memory_bytes: 16 * 1024,
            seed: 5,
            ..Default::default()
        });
        for i in 0..5_000u64 {
            sk.insert_concurrent(&(i % 100), 2);
        }
        Clear::clear(&mut sk);
        for k in 0..100u64 {
            assert_eq!(sk.query_with_error(&k).value, 0);
        }
        assert_eq!(sk.array().stats().items(), 0);
        assert_eq!(sk.insertion_failures(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Single-threaded, the atomic path is bit-for-bit the classic
        /// sketch (same geometry, seed and emergency policy) on arbitrary
        /// streams, with and without the mice filter — fingerprint
        /// collisions aside, which the key range here makes vanishingly
        /// unlikely.
        #[test]
        fn prop_atomic_equals_classic(
            ops in proptest::collection::vec((0u64..300, 1u64..8), 1..1500),
            seed in 0u64..32,
            filtered in proptest::bool::ANY,
        ) {
            let geometry = LayerGeometry::derive(256, 25, 2.0, 2.5, Depth::Fixed(5), false);
            let filter = filtered.then(|| MiceFilterConfig {
                counter_bits: 8,
                ..Default::default()
            });
            let (atomic, mut classic) = twin_pair_with(&geometry, filter, seed);
            for &(k, v) in &ops {
                atomic.insert_concurrent(&k, v);
                classic.insert(&k, v);
            }
            for k in 0..300u64 {
                let a = atomic.query_with_error(&k);
                let c = rsk_api::ErrorSensing::query_with_error(&classic, &k);
                prop_assert_eq!((a.value, a.max_possible_error), (c.value, c.max_possible_error), "key {}", k);
            }
        }

        /// The packed-word lock invariant: NO never exceeds λ after any
        /// step, and value is conserved (absorbed + leftover = inserted).
        #[test]
        fn prop_step_word_invariants(
            ops in proptest::collection::vec((0u64..6, 1u64..40), 1..200),
            lambda in 1u64..64,
        ) {
            let mut w = 0u64;
            for (fp, v) in ops {
                let (yes0, no0) = { let (_, y, n) = unpack(w); (y, n) };
                let (next, left, sat) = step_word(w, fp, v, lambda);
                let (_, yes1, no1) = unpack(next);
                prop_assert!(no1 <= lambda.max(no0), "NO {} above λ {}", no1, lambda);
                prop_assert!(yes1 >= no1 || no1 <= lambda);
                if !sat {
                    prop_assert_eq!(yes1 + no1 + left, yes0 + no0 + v, "value not conserved");
                }
                w = next;
            }
        }
    }
}
