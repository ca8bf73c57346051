//! PIM KV-cache memory management for the PIMphony reproduction.
//!
//! Paper §VI: conventional PIMs compile fixed physical addresses into their
//! instruction streams, forcing `T_max`-sized static KV reservations and
//! wasting most of memory when actual contexts are shorter (average 36.2%
//! capacity utilization). PIMphony's **Dynamic PIM Access (DPA)** adds a
//! VA2PA table and an on-module dispatcher so the KV cache can be allocated
//! *lazily* in 1 MB chunks, paged-attention-style, inside PIM. The model
//! keeps DPA's capacity effect, lazy chunk allocation, and leaves out the
//! address translation, which no simulated cycle depends on.
//!
//! * [`static_alloc`] — the baseline `T_max` reservation scheme.
//! * [`chunk`] — the chunked physical allocator with a free list.
//! * [`page`] — refcounted fixed-size KV pages with a prefix tree over
//!   shared prompt pages and page-granular LRU reclamation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod page;
pub mod static_alloc;

pub use chunk::{ChunkAllocator, ChunkId, DEFAULT_CHUNK_BYTES};
pub use page::{Admission, PagePool, PrefixHit, Released};
pub use static_alloc::StaticAllocator;

use serde::{Deserialize, Serialize};

/// Identifier of an inference request. The allocators and the page pool
/// key their per-request state by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Errors returned by the allocators and the page pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The module has no free capacity for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The request is not registered.
    UnknownRequest(RequestId),
    /// The request is already registered.
    DuplicateRequest(RequestId),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of memory: requested {requested} B, available {available} B"
                )
            }
            MemError::UnknownRequest(id) => write!(f, "unknown request {id}"),
            MemError::DuplicateRequest(id) => write!(f, "request {id} already registered"),
        }
    }
}

impl std::error::Error for MemError {}
