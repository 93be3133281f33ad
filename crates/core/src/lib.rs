//! # rsk-core — ReliableSketch
//!
//! A from-scratch Rust implementation of **ReliableSketch** (Wu et al.,
//! *Approaching 100% Confidence in Stream Summary through ReliableSketch*,
//! arXiv 2406.00376 / IMC 2025): a stream summary whose estimation error is
//! controlled below a user tolerance `Λ` **for all keys simultaneously**
//! with failure probability `Δ` that can practically be driven below
//! 10⁻¹⁰.
//!
//! ## Structure
//!
//! * [`bucket::EsBucket`] — the Error-Sensible Bucket (Key Technique I):
//!   an election cell whose `NO` counter certifies its own worst-case
//!   error;
//! * [`geometry::LayerGeometry`] — the Double Exponential Control schedule
//!   (Key Technique II): widths and lock thresholds both decay
//!   geometrically;
//! * [`filter::MiceFilter`] / [`filter::AtomicMiceFilter`] — the §3.3 CU
//!   mice filter, in sequential and lock-free (packed `AtomicU64` lane)
//!   form;
//! * [`emergency::EmergencyStore`] — the §3.3 emergency solution for
//!   insertion failures (exact table or SpaceSaving);
//! * [`ReliableSketch`] — the full layered structure with the lock
//!   mechanism, mice filter and emergency store;
//! * [`theory`] — the paper's closed-form results (Theorems 4–5, Table 1);
//! * [`atomic::AtomicBucketArray`] / [`atomic::ConcurrentReliable`] — the
//!   lock-free multi-core data path: fingerprint/count/error packed in one
//!   `AtomicU64` per bucket, every Algorithm-1 step committed by a single
//!   CAS, with the atomic mice filter in front when configured (full
//!   feature parity with the sequential sketch — no mutex, no channel on
//!   the hot path);
//! * [`concurrent::ShardedReliable`] — key-partitioned multi-core
//!   ingestion over lock-free shards with a deterministic two-phase
//!   `ingest_parallel`;
//! * [`epoch::EpochedReliable`] / [`epoch::EpochedConcurrent`] —
//!   two-generation rotating windows (sequential and lock-free);
//! * [`topk::TopKSummary`] — the error-certified top-K layer: a
//!   count-bucket Space-Saving list claimed on elephant promotion whose
//!   entries carry the sketch's certified per-key error, behind the
//!   [`rsk_api::TopK`] trait on every sketch flavour;
//! * [`subpop`] — certified subpopulation-weight queries (Cohen &
//!   Kaplan's aggregate): the total value of a [`rsk_api::KeySet`]-selected
//!   key subset with a sound [`rsk_api::CertifiedWeight`] interval summed
//!   from the per-key certified bounds, behind the object-safe
//!   [`rsk_api::SubpopulationWeight`] trait on every sketch flavour;
//! * [`simd`] — names the ingest backend (always `"scalar"`) for
//!   benchmark and report provenance; the one batched path that pays,
//!   [`atomic::ConcurrentReliable::insert_batch`]'s per-chunk hash
//!   prefix, is plain scalar code pinned bit-identical to the item loop;
//! * [`merge`] — distributed aggregation: [`rsk_api::Merge`] for the
//!   sequential sketch, both concurrent types, and mixed
//!   sequential→concurrent folds;
//! * [`replicate`] (`serde` feature) — the replication layer: a compact
//!   binary codec with versioned headers, full snapshots for every
//!   sketch type, dirty-bitmap deltas that ship only the buckets touched
//!   since the last cut, and [`replicate::SlimSummary`] query-only
//!   digests, all behind the uniform [`rsk_api::Replicate`] trait.
//!
//! ## Quick start
//!
//! ```
//! use rsk_core::ReliableSketch;
//! use rsk_api::{StreamSummary, ErrorSensing};
//!
//! let mut sk = ReliableSketch::<u64>::builder()
//!     .memory_bytes(256 * 1024) // 256 KB
//!     .error_tolerance(25)      // Λ
//!     .build();
//!
//! for i in 0..100_000u64 {
//!     sk.insert(&(i % 1000), 1);
//! }
//!
//! let est = sk.query_with_error(&42);
//! assert!(est.contains(100));                  // truth ∈ [f̂−MPE, f̂]
//! assert!(est.max_possible_error <= 25);       // MPE ≤ Λ
//! assert_eq!(sk.insertion_failures(), 0);      // guarantee intact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod atomic;
pub mod bucket;
pub mod concurrent;
pub mod config;
pub mod emergency;
pub mod epoch;
pub mod filter;
pub mod geometry;
pub mod merge;
#[cfg(feature = "serde")]
pub mod replicate;
pub mod schedule;
pub mod simd;
pub mod sketch;
pub mod stats;
pub mod subpop;
pub mod theory;
pub mod topk;

pub use atomic::{AtomicBucketArray, ConcurrentReliable, ATOMIC_BUCKET_BYTES};
pub use bucket::EsBucket;
pub use concurrent::ShardedReliable;
pub use config::{
    Depth, EmergencyPolicy, MiceFilterConfig, ReliableConfig, ReliableConfigBuilder, BUCKET_BYTES,
    DEFAULT_SEED,
};
pub use epoch::{EpochedConcurrent, EpochedReliable};
pub use filter::{AtomicMiceFilter, MiceFilter};
pub use geometry::LayerGeometry;
pub use merge::merge_all;
#[cfg(feature = "serde")]
pub use replicate::{SketchSnapshot, SlimShards, SlimSummary};
pub use sketch::ReliableSketch;
pub use stats::{InsertTrace, QueryTrace, SketchStats, StopLayer};
pub use subpop::DENSE_ENUMERATION_LIMIT;
pub use topk::TopKSummary;
