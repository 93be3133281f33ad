//! # reliablesketch — umbrella crate
//!
//! Re-exports the full public API of the ReliableSketch reproduction
//! workspace so applications can depend on a single crate:
//!
//! ```
//! use reliablesketch::prelude::*;
//!
//! let mut sk = reliablesketch::builder()
//!     .memory_bytes(64 * 1024)
//!     .error_tolerance(25)
//!     .build_sequential::<u64>();
//! sk.insert(&42u64, 10);
//! let est = sk.query_with_error(&42);
//! assert!(est.value >= 10 && est.value <= 10 + est.max_possible_error);
//! ```
//!
//! [`builder()`] is the unified construction facade: the same
//! configuration chain ends in `build_sequential`, `build_concurrent`,
//! `build_sharded`, or `build_epoched_concurrent` depending on the
//! deployment shape (see [`SketchBuilder`]).
//!
//! The workspace crates are also re-exported as modules: [`hash`],
//! [`api`], [`stream`], [`core`], [`baselines`], [`metrics`], [`dataplane`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rsk_api as api;
pub use rsk_baselines as baselines;
pub use rsk_core as core;
pub use rsk_dataplane as dataplane;
pub use rsk_hash as hash;
pub use rsk_metrics as metrics;
pub use rsk_stream as stream;

mod builder;

pub use builder::{builder, SketchBuilder};

/// One-stop import for applications.
pub mod prelude {
    pub use crate::builder::{builder, SketchBuilder};
    pub use rsk_api::{
        CertifiedTopK, CertifiedWeight, Clear, ConcurrentErrorSensing, ConcurrentSummary,
        ErrorSensing, Estimate, IngestPolicy, KeySet, MemoryFootprint, Merge, MergeError,
        Replicate, ReplicateError, StreamSummary, SubpopulationWeight, TopK, TopKEntry,
    };
    pub use rsk_core::{
        merge_all, ConcurrentReliable, EpochedConcurrent, EpochedReliable, ReliableConfig,
        ReliableSketch, ShardedReliable, TopKSummary,
    };
    pub use rsk_core::{SketchSnapshot, SlimShards, SlimSummary};
    pub use rsk_stream::{Dataset, GroundTruth, Item};
}
