//! The generation trait: the small surface the two-generation window
//! ([`crate::epoch::Epoched`]) and the tracked-key subpopulation decode
//! ([`crate::subpop`]) need from one sketch, so each feature is written
//! once for both the sequential [`ReliableSketch`] and the lock-free
//! [`ConcurrentReliable`].
//!
//! The module is private, so code outside this crate cannot name
//! [`Generation`]: the trait is sealed, and only this crate's two sketch
//! flavours implement it.

use std::borrow::Cow;

use crate::atomic::ConcurrentReliable;
use crate::config::ReliableConfig;
use crate::emergency::EmergencyStore;
use crate::sketch::ReliableSketch;
use crate::topk::TopKSummary;
use rsk_api::{Clear, ErrorSensing, Key, MemoryFootprint};

/// One sketch generation: a [`ReliableSketch`] or a
/// [`ConcurrentReliable`].
pub trait Generation: ErrorSensing<Self::Key> + MemoryFootprint + Clear + Sized {
    /// The key type the generation summarizes.
    type Key: Key;

    /// [`rsk_api::Algorithm::name`] of a window over this flavour.
    const WINDOW_NAME: &'static str;

    /// An empty generation built from `config`.
    fn new(config: ReliableConfig) -> Self;

    /// Attach a top-K layer of `capacity` slots (see
    /// [`ReliableSketch::enable_top_k`]).
    fn enable_top_k(&mut self, capacity: usize);

    /// Insert operations that overflowed every layer.
    fn insertion_failures(&self) -> u64;

    /// Value dropped by failed inserts (nonzero only under
    /// [`crate::EmergencyPolicy::Disabled`]).
    fn dropped_value(&self) -> u64;

    /// The a-priori worst-case MPE of one answer (`≤ Λ` unless merged).
    fn mpe_ceiling(&self) -> u64;

    /// How far a concurrent read may trail the truth while writers race
    /// (see [`ConcurrentReliable::contention_undershoot_bound`]); `0` on
    /// the sequential sketch.
    fn contention_slack(&self) -> u64;

    /// The top-K summary, if enabled: borrowed where the flavour can lend
    /// it lock-free, a clone read under its promotion mutex otherwise.
    fn top_k_view(&self) -> Option<Cow<'_, TopKSummary<Self::Key>>>;

    /// The keys a subpopulation decode can enumerate from this
    /// generation's buckets and emergency store, and the certified
    /// ceiling on the truth of any key missing from that list. A top-K
    /// layer tightens both (see `crate::subpop`).
    fn decode_inventory(&self) -> (Vec<Self::Key>, u64);
}

impl<K: Key> Generation for ReliableSketch<K> {
    type Key = K;
    const WINDOW_NAME: &'static str = "Ours(Epoched)";

    fn new(config: ReliableConfig) -> Self {
        Self::new(config)
    }

    fn enable_top_k(&mut self, capacity: usize) {
        Self::enable_top_k(self, capacity);
    }

    fn insertion_failures(&self) -> u64 {
        Self::insertion_failures(self)
    }

    fn dropped_value(&self) -> u64 {
        Self::dropped_value(self)
    }

    fn mpe_ceiling(&self) -> u64 {
        Self::mpe_ceiling(self)
    }

    fn contention_slack(&self) -> u64 {
        0
    }

    fn top_k_view(&self) -> Option<Cow<'_, TopKSummary<K>>> {
        self.top_k_summary().map(Cow::Borrowed)
    }

    /// Real bucket candidates plus emergency remainders. A key that is a
    /// candidate nowhere has every term of its estimate (filter count,
    /// each visited bucket's `NO`, its emergency remainder) added to its
    /// MPE too, so its truth is at most `mpe_ceiling` plus what a full
    /// SpaceSaving store may have folded away.
    fn decode_inventory(&self) -> (Vec<K>, u64) {
        let (_, _, emergency, _, _) = self.peer_parts();
        let mut tracked: Vec<K> = self.candidates().into_iter().map(|(k, _)| k).collect();
        tracked.extend(emergency_keys(emergency));
        let ceiling = if self.is_merged() {
            u64::MAX
        } else {
            self.mpe_ceiling()
                .saturating_add(emergency_untracked_ceiling(emergency))
        };
        (tracked, ceiling)
    }
}

impl<K: Key> Generation for ConcurrentReliable<K> {
    type Key = K;
    const WINDOW_NAME: &'static str = "OursAtomic(Epoched)";

    /// # Panics
    /// Panics like [`ConcurrentReliable::new`].
    fn new(config: ReliableConfig) -> Self {
        Self::new(config)
    }

    fn enable_top_k(&mut self, capacity: usize) {
        Self::enable_top_k(self, capacity);
    }

    fn insertion_failures(&self) -> u64 {
        Self::insertion_failures(self)
    }

    fn dropped_value(&self) -> u64 {
        Self::dropped_value(self)
    }

    fn mpe_ceiling(&self) -> u64 {
        Self::mpe_ceiling(self)
    }

    fn contention_slack(&self) -> u64 {
        self.contention_undershoot_bound()
    }

    fn top_k_view(&self) -> Option<Cow<'_, TopKSummary<K>>> {
        self.top_k_summary().map(Cow::Owned)
    }

    /// Emergency remainders only: bucket candidates exist as
    /// fingerprints, not keys, so a key missing from the list may own a
    /// bucket and carry any weight. Its ceiling is unbounded; only a
    /// top-K layer's stream-side `miss_bound` caps it.
    fn decode_inventory(&self) -> (Vec<K>, u64) {
        (emergency_keys(&self.peer_emergency()), u64::MAX)
    }
}

/// Keys the emergency store can enumerate (exact remainders and
/// SpaceSaving slots; nothing under `Disabled`).
fn emergency_keys<K: Key>(e: &EmergencyStore<K>) -> Vec<K> {
    match e {
        EmergencyStore::Disabled { .. } => Vec::new(),
        EmergencyStore::Exact { table, .. } => table.keys().copied().collect(),
        EmergencyStore::SpaceSaving { slots, .. } => slots.iter().map(|s| s.0).collect(),
    }
}

/// Ceiling on the emergency remainder of a key *not* in the store: a
/// full SpaceSaving table may have folded an evicted key's remainder
/// into its minimum slot (Metwally's rule bounds it by that slot's
/// count); exact tables and never-full tables track every recorded key.
fn emergency_untracked_ceiling<K: Key>(e: &EmergencyStore<K>) -> u64 {
    match e {
        EmergencyStore::SpaceSaving {
            slots, capacity, ..
        } if slots.len() >= *capacity => slots.iter().map(|s| s.1).min().unwrap_or(0),
        _ => 0,
    }
}
