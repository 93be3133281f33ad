//! Epoch rotation — bounded-history summaries for long-running streams.
//!
//! A single ReliableSketch summarizes *everything it ever saw*; its
//! counters only grow. Telemetry pipelines instead want a bounded,
//! recent window ("flows of the last measurement interval"), which
//! network devices implement with the classic **two-generation scheme**:
//! an *active* structure absorbs traffic while a *frozen* one serves the
//! previous interval, and on each epoch boundary the generations rotate.
//! The paper's switch deployment (§6.5.3) reads the sketch out per
//! interval in exactly this style.
//!
//! [`EpochedReliable`] packages the scheme:
//!
//! * [`insert`](rsk_api::StreamSummary::insert) feeds the active
//!   generation;
//! * [`query`](rsk_api::StreamSummary::query) answers over the **visible
//!   window** — the frozen epoch plus the active partial epoch — by
//!   summing both generations' answers and MPEs (both certified, so the
//!   sum is);
//! * [`rotate`](EpochedReliable::rotate) retires the frozen generation
//!   (returning it for archival), freezes the active one, and starts a
//!   fresh epoch.
//!
//! The guarantee carries per window: if neither visible generation had
//! an insertion failure, every key's window estimate is within `2Λ`
//! (each generation contributes at most `Λ`), and the reported MPE is
//! always an honest per-key certificate.
//!
//! [`EpochedConcurrent`] is the lock-free twin: the same two-generation
//! scheme over [`ConcurrentReliable`] sketches, so any number of producer
//! threads feed the active generation through `&self` while the frozen
//! generation serves **wait-free reads** — a sealed generation's atomic
//! words are never CASed again, so window queries against it are plain
//! loads with no retry loop (and no lock at all unless the generation
//! recorded insertion failures).
//!
//! ```
//! use rsk_core::epoch::EpochedReliable;
//! use rsk_api::{ErrorSensing, StreamSummary};
//!
//! let mut window = EpochedReliable::<u64>::builder()
//!     .memory_bytes(64 * 1024)
//!     .error_tolerance(25)
//!     .build_epoched();
//!
//! window.insert(&7u64, 100);
//! window.rotate(); // epoch 0 frozen, epoch 1 active
//! window.insert(&7u64, 50);
//! assert!(window.query_with_error(&7u64).contains(150)); // both epochs visible
//!
//! let retired = window.rotate(); // epoch 0 drops out of the window
//! assert!(retired.is_some());
//! assert!(window.query_with_error(&7u64).contains(50));
//! ```

use crate::atomic::ConcurrentReliable;
use crate::config::{ReliableConfig, ReliableConfigBuilder};
use crate::sketch::ReliableSketch;
use crate::topk::TopKSummary;
use rsk_api::{
    Algorithm, CertifiedTopK, Clear, ConcurrentErrorSensing, ConcurrentSummary, ErrorSensing,
    Estimate, Key, MemoryFootprint, Merge, MergeError, StreamSummary, TopK, TopKEntry,
};

/// Answer `certified_top_k(k)` over a visible window: take the monitored
/// candidates of each generation's summary (active first, then frozen,
/// first occurrence wins), re-answer every candidate with the **window**
/// estimate so the count/error pair covers both generations, and charge
/// unmonitored keys the sum of the generations' miss bounds. A visible
/// generation without a top-K summary has an unbounded miss (`u64::MAX`),
/// which saturates the whole answer into a vacuous one.
fn window_certified_top_k<K: Key>(
    k: usize,
    active: Option<&TopKSummary<K>>,
    frozen_visible: bool,
    frozen: Option<&TopKSummary<K>>,
    query: impl Fn(&K) -> Estimate,
) -> CertifiedTopK<K> {
    let Some(active) = active else {
        return CertifiedTopK::vacuous();
    };
    let mut miss_bound = active.miss_bound();
    if frozen_visible {
        miss_bound = miss_bound.saturating_add(frozen.map_or(u64::MAX, TopKSummary::miss_bound));
    }
    let mut seen = std::collections::HashSet::new();
    let mut candidates: Vec<TopKEntry<K>> = Vec::new();
    let entries = active
        .entries_desc()
        .into_iter()
        .chain(frozen.iter().flat_map(|f| f.entries_desc()));
    for entry in entries {
        if seen.insert(entry.key) {
            let est = query(&entry.key);
            candidates.push(TopKEntry {
                key: entry.key,
                count: est.value,
                error: est.max_possible_error,
            });
        }
    }
    candidates.sort_by_key(|e| core::cmp::Reverse(e.count));
    let next_count = candidates.get(k).map_or(0, |e| e.count);
    candidates.truncate(k);
    CertifiedTopK {
        entries: candidates,
        miss_bound,
        next_count,
    }
}

/// Two-generation rotating window over ReliableSketches.
#[derive(Debug, Clone)]
pub struct EpochedReliable<K: Key> {
    active: ReliableSketch<K>,
    frozen: Option<ReliableSketch<K>>,
    config: ReliableConfig,
    epoch: u64,
    /// Top-K capacity carried across rotations: each fresh active
    /// generation is built with its own summary of this capacity.
    top_k: Option<usize>,
}

impl<K: Key> EpochedReliable<K> {
    /// Start building with paper-default parameters (finish with
    /// [`ReliableConfigBuilder::build_epoched`]).
    pub fn builder() -> ReliableConfigBuilder {
        ReliableConfig::builder()
    }

    /// Build from a validated configuration; both generations use it.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(config: ReliableConfig) -> Self {
        Self {
            active: ReliableSketch::new(config.clone()),
            frozen: None,
            config,
            epoch: 0,
            top_k: None,
        }
    }

    /// Attach an error-certified top-K layer of `capacity` slots to the
    /// window: the active generation tracks its elephants from now on,
    /// and every future generation starts with its own summary of the
    /// same capacity, so [`TopK::certified_top_k`] answers over the
    /// visible window. An already-frozen generation keeps whatever
    /// summary it had when sealed (none, if enabled after the fact —
    /// the window then answers vacuously until it rotates out).
    pub fn enable_top_k(&mut self, capacity: usize) {
        self.top_k = Some(capacity.max(1));
        self.active.enable_top_k(capacity);
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// Index of the currently active epoch (starts at 0, +1 per rotation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The configuration shared by both generations.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The generation currently absorbing inserts.
    pub fn active(&self) -> &ReliableSketch<K> {
        &self.active
    }

    /// The sealed previous epoch, if one exists.
    pub fn frozen(&self) -> Option<&ReliableSketch<K>> {
        self.frozen.as_ref()
    }

    /// Seal the active epoch and start a new one.
    ///
    /// The previously frozen generation — now outside the visible window —
    /// is returned so callers can archive or further aggregate it (e.g.
    /// [`rsk_api::Merge`] it into a long-horizon roll-up).
    pub fn rotate(&mut self) -> Option<ReliableSketch<K>> {
        let mut fresh = ReliableSketch::new(self.config.clone());
        if let Some(capacity) = self.top_k {
            fresh.enable_top_k(capacity);
        }
        let sealed = core::mem::replace(&mut self.active, fresh);
        self.epoch += 1;
        self.frozen.replace(sealed)
    }

    /// Insertion failures across the visible window (active + frozen).
    pub fn insertion_failures(&self) -> u64 {
        self.active.insertion_failures()
            + self
                .frozen
                .as_ref()
                .map_or(0, ReliableSketch::insertion_failures)
    }

    /// Worst-case MPE over the window: one `Λ` ceiling per visible
    /// generation (invalid if a generation was merged — see
    /// [`ReliableSketch::mpe_ceiling`]).
    pub fn mpe_ceiling(&self) -> u64 {
        let per_gen = self.active.mpe_ceiling();
        if self.frozen.is_some() {
            2 * per_gen
        } else {
            per_gen
        }
    }

    /// Heavy hitters of the visible window: candidates from either
    /// generation whose *window* estimate reaches `threshold`, sorted by
    /// estimate descending.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, Estimate)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let candidates = self
            .active
            .candidates()
            .into_iter()
            .chain(self.frozen.iter().flat_map(|f| f.candidates()));
        for (k, _) in candidates {
            if seen.insert(k) {
                let est = self.query_with_error(&k);
                if est.value >= threshold {
                    out.push((k, est));
                }
            }
        }
        out.sort_by_key(|(_, est)| core::cmp::Reverse(est.value));
        out
    }
}

impl<K: Key> StreamSummary<K> for EpochedReliable<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.active.insert(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }
}

impl<K: Key> ErrorSensing<K> for EpochedReliable<K> {
    fn query_with_error(&self, key: &K) -> Estimate {
        let mut est = self.active.query_with_error(key);
        if let Some(frozen) = &self.frozen {
            let old = frozen.query_with_error(key);
            est.value += old.value;
            est.max_possible_error += old.max_possible_error;
        }
        est
    }
}

impl<K: Key> MemoryFootprint for EpochedReliable<K> {
    fn memory_bytes(&self) -> usize {
        self.active.memory_bytes()
            + self
                .frozen
                .as_ref()
                .map_or(0, MemoryFootprint::memory_bytes)
    }
}

impl<K: Key> TopK<K> for EpochedReliable<K> {
    /// Certified heavy hitters of the visible window: each generation's
    /// monitored elephants, re-answered with the window estimate (so
    /// `count`/`error` cover both epochs), with unmonitored keys charged
    /// the sum of the generations' miss bounds.
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        window_certified_top_k(
            k,
            self.active.top_k_summary(),
            self.frozen.is_some(),
            self.frozen.as_ref().and_then(ReliableSketch::top_k_summary),
            |key| self.query_with_error(key),
        )
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.top_k
    }
}

impl<K: Key> Algorithm for EpochedReliable<K> {
    fn name(&self) -> String {
        "Ours(Epoched)".into()
    }
}

impl<K: Key> Clear for EpochedReliable<K> {
    /// Drop both generations and restart at epoch 0 (a configured top-K
    /// layer stays enabled, with an emptied summary).
    fn clear(&mut self) {
        self.active.clear();
        self.frozen = None;
        self.epoch = 0;
    }
}

impl ReliableConfigBuilder {
    /// Build an [`EpochedReliable`] window directly.
    pub fn build_epoched<K: Key>(self) -> EpochedReliable<K> {
        EpochedReliable::new(self.build_config())
    }

    /// Build an [`EpochedConcurrent`] window directly.
    pub fn build_epoched_concurrent<K: Key>(self) -> EpochedConcurrent<K> {
        EpochedConcurrent::new(self.build_config())
    }
}

/// Two-generation rotating window over lock-free
/// [`ConcurrentReliable`] sketches: shared-`&self` ingestion into the
/// active epoch, wait-free reads of the sealed one.
///
/// Rotation is the only exclusive (`&mut`) operation — quiesce producers
/// at the epoch boundary (network pipelines do this anyway: the
/// measurement interval ends, the readout runs, the next interval
/// starts). Between rotations the data path is exactly
/// [`ConcurrentReliable`]'s: CAS-only bucket updates, no mutex, the mice
/// filter running lock-free in front when configured.
///
/// Retired generations can be archived or folded into a long-horizon
/// roll-up via [`rsk_api::Merge`], mirroring [`EpochedReliable::rotate`].
///
/// # Examples
///
/// ```
/// use rsk_core::epoch::EpochedConcurrent;
/// use rsk_api::{ErrorSensing, StreamSummary};
///
/// let mut window = EpochedConcurrent::<u64>::builder()
///     .memory_bytes(64 * 1024)
///     .error_tolerance(25)
///     .build_epoched_concurrent();
///
/// // epoch 0: four producers through a shared reference
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let w = &window;
///         s.spawn(move || {
///             for _ in 0..25u64 {
///                 w.insert_shared(&7u64, 1);
///             }
///         });
///     }
/// });
/// window.rotate(); // seal epoch 0; reads of it are now wait-free
/// window.insert_shared(&7u64, 50);
/// assert!(window.query_with_error(&7u64).contains(150)); // both epochs
///
/// let retired = window.rotate(); // epoch 0 leaves the window
/// assert!(retired.is_some());
/// assert!(window.query_with_error(&7u64).contains(50));
/// ```
#[derive(Debug)]
pub struct EpochedConcurrent<K: Key> {
    active: ConcurrentReliable<K>,
    frozen: Option<ConcurrentReliable<K>>,
    config: ReliableConfig,
    epoch: u64,
    /// Top-K capacity carried across rotations (see
    /// [`Self::enable_top_k`]).
    top_k: Option<usize>,
    /// The sealed generation's top-K summary, **materialized once at
    /// rotation** while the window is exclusively borrowed: sealed-epoch
    /// top-K reads are plain walks of this snapshot — wait-free, no
    /// mutex — matching the sealed generation's wait-free bucket reads.
    frozen_topk: Option<TopKSummary<K>>,
    /// Epoch index at the last replication cut (see
    /// [`crate::replicate`]): `None` until the window first ships a
    /// delta, after which deltas describe "since epoch `cut_epoch`".
    #[cfg(feature = "serde")]
    cut_epoch: Option<u64>,
}

impl<K: Key> EpochedConcurrent<K> {
    /// Start building with paper-default parameters (finish with
    /// [`ReliableConfigBuilder::build_epoched_concurrent`]).
    pub fn builder() -> ReliableConfigBuilder {
        ReliableConfig::builder()
    }

    /// Build from a validated configuration; both generations use it.
    ///
    /// # Panics
    /// Panics if the configuration fails validation, or if `Λ` exceeds
    /// the packed atomic error field (see
    /// [`ConcurrentReliable::new`]).
    pub fn new(config: ReliableConfig) -> Self {
        Self {
            active: ConcurrentReliable::new(config.clone()),
            frozen: None,
            config,
            epoch: 0,
            top_k: None,
            frozen_topk: None,
            #[cfg(feature = "serde")]
            cut_epoch: None,
        }
    }

    /// Attach an error-certified top-K layer of `capacity` slots to the
    /// window (see [`EpochedReliable::enable_top_k`]): the active
    /// generation tracks its elephants behind a promotion-path mutex,
    /// every future generation starts with a fresh summary of the same
    /// capacity, and rotation materializes the sealed generation's
    /// summary for wait-free sealed-epoch reads
    /// ([`Self::frozen_top_k`]).
    pub fn enable_top_k(&mut self, capacity: usize) {
        self.top_k = Some(capacity.max(1));
        self.active.enable_top_k(capacity);
    }

    /// Builder-style [`Self::enable_top_k`].
    #[must_use]
    pub fn with_top_k(mut self, capacity: usize) -> Self {
        self.enable_top_k(capacity);
        self
    }

    /// The sealed generation's top-K summary, snapshotted at rotation.
    /// Reading it takes no lock at all — the snapshot is immutable until
    /// the next exclusive rotation — so sealed-epoch top-K readout is
    /// wait-free, like the sealed generation's bucket reads.
    pub fn frozen_top_k(&self) -> Option<&TopKSummary<K>> {
        self.frozen_topk.as_ref()
    }

    /// Index of the currently active epoch (starts at 0, +1 per rotation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The configuration shared by both generations.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The generation currently absorbing inserts.
    pub fn active(&self) -> &ConcurrentReliable<K> {
        &self.active
    }

    /// The sealed previous epoch, if one exists (wait-free to query).
    pub fn frozen(&self) -> Option<&ConcurrentReliable<K>> {
        self.frozen.as_ref()
    }

    // ---- crate-internal access for the replication layer ----

    /// Exclusive access to the active generation (replica apply).
    #[cfg(feature = "serde")]
    pub(crate) fn active_mut(&mut self) -> &mut ConcurrentReliable<K> {
        &mut self.active
    }

    /// Exclusive access to the frozen generation (replica apply).
    #[cfg(feature = "serde")]
    pub(crate) fn frozen_mut(&mut self) -> Option<&mut ConcurrentReliable<K>> {
        self.frozen.as_mut()
    }

    /// Replace the whole window state (full-snapshot restore on a
    /// replica). Resets the replication cut: the installed state is a
    /// fresh baseline.
    #[cfg(feature = "serde")]
    pub(crate) fn install(
        &mut self,
        active: ConcurrentReliable<K>,
        frozen: Option<ConcurrentReliable<K>>,
        config: ReliableConfig,
        epoch: u64,
    ) {
        self.active = active;
        self.frozen = frozen;
        self.config = config;
        self.epoch = epoch;
        self.cut_epoch = None;
        // Restored state carries no promotion history: answer vacuously
        // until the window rotates into generations that tracked their
        // own elephants.
        self.frozen_topk = None;
    }

    /// Drop every top-K summary in the window (replica apply paths:
    /// counters changed without promotion events, so any summary is
    /// stale). The configured capacity survives, so post-rotation
    /// generations resume tracking.
    #[cfg(feature = "serde")]
    pub(crate) fn invalidate_top_k(&mut self) {
        self.active.invalidate_top_k();
        if let Some(frozen) = self.frozen.as_mut() {
            frozen.invalidate_top_k();
        }
        self.frozen_topk = None;
    }

    /// Epoch index at the last replication cut.
    #[cfg(feature = "serde")]
    pub(crate) fn cut_epoch(&self) -> Option<u64> {
        self.cut_epoch
    }

    /// Record the replication cut at the current epoch.
    #[cfg(feature = "serde")]
    pub(crate) fn set_cut_epoch(&mut self) {
        self.cut_epoch = Some(self.epoch);
    }

    /// Lock-free insert into the active epoch through a shared reference.
    #[inline]
    pub fn insert_shared(&self, key: &K, value: u64) {
        self.active.insert_concurrent(key, value);
    }

    /// Batched insert into the active epoch — delegates to
    /// [`ConcurrentReliable::insert_batch`], so its per-chunk hash
    /// prefix applies per window generation and the result is
    /// bit-identical to an [`Self::insert_shared`] item loop.
    #[inline]
    pub fn insert_batch(&self, items: &[(K, u64)]) {
        self.active.insert_batch(items);
    }

    /// Seal the active epoch and start a new one.
    ///
    /// The previously frozen generation — now outside the visible window —
    /// is returned so callers can archive it or [`rsk_api::Merge`] it
    /// into a long-horizon roll-up. Exclusive: producers must be
    /// quiescent across the call (the borrow checker enforces it for
    /// scoped threads).
    pub fn rotate(&mut self) -> Option<ConcurrentReliable<K>> {
        let mut fresh = ConcurrentReliable::new(self.config.clone());
        if let Some(capacity) = self.top_k {
            fresh.enable_top_k(capacity);
        }
        let sealed = core::mem::replace(&mut self.active, fresh);
        self.frozen_topk = sealed.top_k_summary();
        self.epoch += 1;
        self.frozen.replace(sealed)
    }

    /// Insertion failures across the visible window (active + frozen).
    pub fn insertion_failures(&self) -> u64 {
        self.active.insertion_failures()
            + self
                .frozen
                .as_ref()
                .map_or(0, ConcurrentReliable::insertion_failures)
    }

    /// Worst-case MPE over the window: one per-generation ceiling per
    /// visible generation (data-dependent if a generation was merged).
    pub fn mpe_ceiling(&self) -> u64 {
        let per_gen = self.active.mpe_ceiling();
        if self.frozen.is_some() {
            2 * per_gen
        } else {
            per_gen
        }
    }

    /// Contention slack of the active generation (the documented
    /// `(arrays − 1) × threshold` undershoot bound of the mice filter
    /// under racing same-key writers; `0` without a filter). A window
    /// query can trail the window truth by at most one slack per visible
    /// generation while producers race — see
    /// [`rsk_api::ConcurrentErrorSensing`].
    pub fn contention_undershoot_bound(&self) -> u64 {
        self.active.contention_undershoot_bound()
    }

    /// Fold another window's *entire visible mass* (active + frozen
    /// generations) into this window's active generation — the
    /// cross-tenant aggregation primitive of a served deployment
    /// (`Merge` frame): after the call, this window answers for both
    /// tenants' histories while `other` is left untouched.
    ///
    /// Both windows must have been built from the same configuration.
    /// Exclusive on `self` (`&mut`): quiesce this window's producers, as
    /// for [`rotate`](Self::rotate). The active generation becomes a
    /// merged overlay (`is_merged()` on it turns true), so the a-priori
    /// `MPE ≤ Λ` ceiling relaxes to the data-dependent merged bound —
    /// every interval stays certified.
    ///
    /// # Errors
    /// Propagates the [`MergeError`] of the underlying
    /// [`ConcurrentReliable`] merge (mismatched shape or seeds).
    pub fn merge_window_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.active.merge(&other.active)?;
        if let Some(frozen) = &other.frozen {
            self.active.merge(frozen)?;
        }
        Ok(())
    }
}

impl<K: Key> StreamSummary<K> for EpochedConcurrent<K> {
    #[inline]
    fn insert(&mut self, key: &K, value: u64) {
        self.insert_shared(key, value);
    }

    #[inline]
    fn query(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }
}

impl<K: Key> ErrorSensing<K> for EpochedConcurrent<K> {
    /// Sum both visible generations' certified answers; each interval is
    /// certified, so the sum is.
    fn query_with_error(&self, key: &K) -> Estimate {
        let mut est = self.active.query_with_error(key);
        if let Some(frozen) = &self.frozen {
            let old = frozen.query_with_error(key);
            est.value += old.value;
            est.max_possible_error += old.max_possible_error;
        }
        est
    }
}

impl<K: Key + Send + Sync> ConcurrentErrorSensing<K> for EpochedConcurrent<K> {
    /// Certified read over the visible window through a shared reference:
    /// the sealed generation is read **wait-free** (its atomic words are
    /// never CASed again — plain loads, no retry loop) and the active
    /// generation lock-free; each generation's interval is certified, so
    /// their sum is. This is the `QueryCertified` path of a served
    /// deployment.
    #[inline]
    fn query_with_error_concurrent(&self, key: &K) -> Estimate {
        self.query_with_error(key)
    }
}

impl<K: Key + Send + Sync> ConcurrentSummary<K> for EpochedConcurrent<K> {
    #[inline]
    fn insert_concurrent(&self, key: &K, value: u64) {
        self.insert_shared(key, value);
    }

    #[inline]
    fn query_concurrent(&self, key: &K) -> u64 {
        self.query_with_error(key).value
    }

    fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize {
        self.active.ingest_parallel(items, n_workers)
    }
}

impl<K: Key> TopK<K> for EpochedConcurrent<K> {
    /// Certified heavy hitters of the visible window. The sealed
    /// generation's candidates come from the rotation-time snapshot
    /// ([`Self::frozen_top_k`]) — no lock; the active generation's
    /// summary is cloned under its promotion mutex (elephant-rate
    /// traffic only). Every candidate is re-answered with the window
    /// estimate so `count`/`error` cover both epochs.
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K> {
        window_certified_top_k(
            k,
            self.active.top_k_summary().as_ref(),
            self.frozen.is_some(),
            self.frozen_topk.as_ref(),
            |key| self.query_with_error(key),
        )
    }

    fn top_k_capacity(&self) -> Option<usize> {
        self.top_k
    }
}

impl<K: Key> MemoryFootprint for EpochedConcurrent<K> {
    fn memory_bytes(&self) -> usize {
        self.active.memory_bytes()
            + self
                .frozen
                .as_ref()
                .map_or(0, MemoryFootprint::memory_bytes)
            + self
                .frozen_topk
                .as_ref()
                .map_or(0, TopKSummary::memory_bytes)
    }
}

impl<K: Key> Algorithm for EpochedConcurrent<K> {
    fn name(&self) -> String {
        "OursAtomic(Epoched)".into()
    }
}

impl<K: Key> Clear for EpochedConcurrent<K> {
    /// Drop both generations and restart at epoch 0 (a configured top-K
    /// layer stays enabled, with an emptied summary).
    fn clear(&mut self) {
        Clear::clear(&mut self.active);
        self.frozen = None;
        self.frozen_topk = None;
        self.epoch = 0;
        #[cfg(feature = "serde")]
        {
            self.cut_epoch = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmergencyPolicy;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn window() -> EpochedReliable<u64> {
        EpochedReliable::<u64>::builder()
            .memory_bytes(32 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(17)
            .build_epoched()
    }

    #[test]
    fn fresh_window_is_empty_epoch_zero() {
        let w = window();
        assert_eq!(w.epoch(), 0);
        assert!(w.frozen().is_none());
        assert_eq!(w.query(&1), 0);
    }

    #[test]
    fn window_spans_two_epochs_exactly() {
        let mut w = window();
        w.insert(&1, 10); // epoch 0

        assert!(w.rotate().is_none(), "nothing retired on first rotation");
        w.insert(&1, 20); // epoch 1
        assert_eq!(w.epoch(), 1);
        assert!(w.query_with_error(&1).contains(30), "both epochs visible");

        let retired = w.rotate().expect("epoch 0 retires");
        assert!(retired.query_with_error(&1).contains(10));
        w.insert(&1, 40); // epoch 2
        assert!(
            w.query_with_error(&1).contains(60),
            "epoch 0 left the window"
        );
    }

    #[test]
    fn window_estimates_cover_window_truth_on_real_trace() {
        use rsk_stream::Dataset;
        let stream = Dataset::IpTrace.generate(120_000, 3);
        let mut w = window();
        let mut window_truth: [HashMap<u64, u64>; 2] = [HashMap::new(), HashMap::new()];

        for (i, it) in stream.iter().enumerate() {
            if i > 0 && i % 30_000 == 0 {
                w.rotate();
                window_truth.swap(0, 1);
                window_truth[1] = HashMap::new();
            }
            w.insert(&it.key, it.value);
            *window_truth[1].entry(it.key).or_insert(0) += it.value;
        }

        let mut combined: HashMap<u64, u64> = window_truth[1].clone();
        if w.frozen().is_some() {
            for (k, v) in &window_truth[0] {
                *combined.entry(*k).or_insert(0) += v;
            }
        }
        for (&k, &f) in &combined {
            let est = w.query_with_error(&k);
            assert!(est.contains(f), "key {k}: window truth {f} ∉ {est:?}");
            assert!(est.max_possible_error <= w.mpe_ceiling());
        }
    }

    #[test]
    fn heavy_hitters_report_window_totals() {
        let mut w = window();
        for _ in 0..500 {
            w.insert(&42, 10);
        }
        w.rotate();
        for _ in 0..100 {
            w.insert(&42, 10);
        }
        let hh = w.heavy_hitters(5_000);
        assert_eq!(hh.first().map(|(k, _)| *k), Some(42));
        assert!(hh[0].1.contains(6_000));
    }

    #[test]
    fn failures_aggregate_across_generations() {
        // tiny window under heavy distinct-key pressure fails in both
        // generations; the wrapper reports the sum of the visible two
        let mut w: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
            .memory_bytes(1024)
            .error_tolerance(5)
            .raw()
            .seed(3)
            .build_epoched();
        for i in 0..40_000u64 {
            w.insert(&i, 1);
        }
        let first = w.active().insertion_failures();
        assert!(first > 0);
        w.rotate();
        for i in 0..40_000u64 {
            w.insert(&(i + 1_000_000), 1);
        }
        assert_eq!(
            w.insertion_failures(),
            first + w.active().insertion_failures()
        );
    }

    #[test]
    fn clear_restarts_the_window() {
        let mut w = window();
        w.insert(&1, 5);
        w.rotate();
        w.insert(&1, 5);
        Clear::clear(&mut w);
        assert_eq!(w.epoch(), 0);
        assert!(w.frozen().is_none());
        assert_eq!(w.query(&1), 0);
    }

    #[test]
    fn memory_doubles_once_frozen_exists() {
        let mut w = window();
        let single = w.memory_bytes();
        w.rotate();
        assert_eq!(w.memory_bytes(), 2 * single);
        assert_eq!(w.mpe_ceiling(), 2 * w.active().mpe_ceiling());
    }

    #[test]
    fn retired_epochs_can_roll_up_via_merge() {
        use rsk_api::Merge;
        let mut w = window();
        let mut rollup: Option<ReliableSketch<u64>> = None;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for round in 0..4u64 {
            for i in 0..5_000u64 {
                let k = i % 100;
                w.insert(&k, 1 + round);
                *truth.entry(k).or_insert(0) += 1 + round;
            }
            if let Some(retired) = w.rotate() {
                match &mut rollup {
                    None => rollup = Some(retired),
                    Some(acc) => acc.merge(&retired).unwrap(),
                }
            }
        }
        // roll-up + visible window = the whole history
        let rollup = rollup.unwrap();
        for (&k, &f) in &truth {
            let win = w.query_with_error(&k);
            let old = rollup.query_with_error(&k);
            let total = Estimate {
                value: win.value + old.value,
                max_possible_error: win.max_possible_error + old.max_possible_error,
            };
            assert!(total.contains(f), "key {k}: {f} ∉ {total:?}");
        }
    }

    fn concurrent_window() -> EpochedConcurrent<u64> {
        EpochedConcurrent::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(23)
            .build_epoched_concurrent()
    }

    #[test]
    fn concurrent_window_spans_two_epochs() {
        let mut w = concurrent_window();
        w.insert_shared(&1, 10);
        assert!(w.rotate().is_none());
        w.insert_shared(&1, 20);
        assert_eq!(w.epoch(), 1);
        assert!(w.query_with_error(&1).contains(30));
        let retired = w.rotate().expect("epoch 0 retires");
        assert!(retired.query_with_error(&1).contains(10));
        w.insert_shared(&1, 40);
        assert!(
            w.query_with_error(&1).contains(60),
            "epoch 0 left the window"
        );
        assert_eq!(w.mpe_ceiling(), 2 * w.active().mpe_ceiling());
    }

    #[test]
    fn concurrent_window_multi_producer_epochs() {
        // four producers per epoch; rotation at each quiescent boundary.
        // ingest_parallel on the sharded/one-owner path is exact, but here
        // producers race directly, so allow the documented filter slack.
        let mut w = concurrent_window();
        let slack = w.active().contention_undershoot_bound();
        for epoch in 0..3u64 {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let w = &w;
                    s.spawn(move || {
                        for i in 0..5_000u64 {
                            w.insert_shared(&((i + t) % 200), 1 + epoch);
                        }
                    });
                }
            });
            if epoch < 2 {
                w.rotate();
            }
        }
        // visible window: epochs 1 (frozen) and 2 (active)
        let mut window_truth: HashMap<u64, u64> = HashMap::new();
        for t in 0..4u64 {
            for i in 0..5_000u64 {
                *window_truth.entry((i + t) % 200).or_insert(0) += 2 + 3;
            }
        }
        assert_eq!(w.insertion_failures(), 0);
        for (&k, &f) in &window_truth {
            let est = w.query_with_error(&k);
            assert!(
                est.value + 2 * slack >= f,
                "key {k}: window {est:?} trails truth {f}"
            );
            assert!(est.value <= f + est.max_possible_error);
            assert!(est.max_possible_error <= w.mpe_ceiling());
        }
    }

    #[test]
    fn concurrent_retired_epochs_roll_up_via_merge() {
        use rsk_api::Merge;
        let mut w = concurrent_window();
        let mut rollup: Option<crate::atomic::ConcurrentReliable<u64>> = None;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for round in 0..4u64 {
            for i in 0..5_000u64 {
                let k = i % 100;
                w.insert_shared(&k, 1 + round);
                *truth.entry(k).or_insert(0) += 1 + round;
            }
            if let Some(retired) = w.rotate() {
                match &mut rollup {
                    None => rollup = Some(retired),
                    Some(acc) => acc.merge(&retired).unwrap(),
                }
            }
        }
        let rollup = rollup.unwrap();
        assert!(rollup.is_merged());
        for (&k, &f) in &truth {
            let win = w.query_with_error(&k);
            let old = rollup.query_with_error(&k);
            let total = Estimate {
                value: win.value + old.value,
                max_possible_error: win.max_possible_error + old.max_possible_error,
            };
            assert!(total.contains(f), "key {k}: {f} ∉ {total:?}");
        }
    }

    #[test]
    fn merge_window_from_absorbs_both_generations() {
        let mut a = concurrent_window();
        let mut b = concurrent_window();
        // tenant b spans two generations: 30 frozen + 12 active on key 9
        b.insert_shared(&9, 30);
        b.rotate();
        b.insert_shared(&9, 12);
        a.insert_shared(&9, 100);
        a.merge_window_from(&b).unwrap();
        assert!(a.query_with_error(&9).contains(142));
        assert!(a.active().is_merged());
        // the donor window is untouched
        assert!(b.query_with_error(&9).contains(42));

        // mismatched configurations refuse with a typed error
        let other_seed = EpochedConcurrent::<u64>::builder()
            .memory_bytes(64 * 1024)
            .error_tolerance(25)
            .emergency(EmergencyPolicy::ExactTable)
            .seed(99)
            .build_epoched_concurrent();
        assert_eq!(
            a.merge_window_from(&other_seed),
            Err(MergeError::SeedMismatch)
        );
    }

    #[test]
    fn concurrent_certified_reads_match_error_sensing() {
        let mut w = concurrent_window();
        w.insert_shared(&5, 40);
        w.rotate();
        w.insert_shared(&5, 2);
        let seq = w.query_with_error(&5);
        let conc = w.query_with_error_concurrent(&5);
        assert_eq!(seq, conc, "shared-reference read must match &self read");
        assert!(conc.contains(42));
    }

    #[test]
    fn concurrent_window_clear_restarts() {
        let mut w = concurrent_window();
        w.insert_shared(&1, 5);
        w.rotate();
        w.insert_shared(&1, 5);
        Clear::clear(&mut w);
        assert_eq!(w.epoch(), 0);
        assert!(w.frozen().is_none());
        assert_eq!(w.query(&1), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary interleavings of inserts and rotations: the window
        /// estimate always covers the two-epoch window truth.
        #[test]
        fn prop_window_contract(
            ops in proptest::collection::vec((0u64..60, 1u64..8, 0u8..12), 1..600),
            seed in 0u64..8,
        ) {
            let mut w: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
                .memory_bytes(8 * 1024)
                .error_tolerance(25)
                .emergency(EmergencyPolicy::ExactTable)
                .seed(seed)
                .build_epoched();
            let mut prev: HashMap<u64, u64> = HashMap::new();
            let mut cur: HashMap<u64, u64> = HashMap::new();
            for (k, v, roll) in ops {
                if roll == 0 {
                    w.rotate();
                    prev = core::mem::take(&mut cur);
                }
                w.insert(&k, v);
                *cur.entry(k).or_insert(0) += v;
            }
            for k in 0u64..60 {
                let f = cur.get(&k).copied().unwrap_or(0)
                    + if w.frozen().is_some() {
                        prev.get(&k).copied().unwrap_or(0)
                    } else { 0 };
                let est = w.query_with_error(&k);
                prop_assert!(est.contains(f),
                    "key {}: window truth {} ∉ [{}, {}]",
                    k, f, est.lower_bound(), est.value);
            }
        }
    }
}
