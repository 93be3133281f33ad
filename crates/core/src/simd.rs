//! Ingest-backend identification.
//!
//! The workspace has one ingest backend: scalar Rust. The batched paths
//! ([`crate::ReliableSketch::insert_batch`],
//! [`crate::atomic::ConcurrentReliable::insert_batch`] and the flavours
//! built on the latter) run the same per-item code as the item loop.
//! [`backend`] names that backend so benchmark and report provenance
//! records which ingest code produced a number.

/// Human-readable name of the ingest backend (provenance for benches
/// and reports).
pub fn backend() -> &'static str {
    "scalar"
}
