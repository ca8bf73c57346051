//! Chunked physical memory allocator for lazy KV-cache growth (§VI-C).
//!
//! Physical memory is carved into fixed-size chunks (the paper uses 1 MB,
//! defined as `channels x banks x rows` granularity). The host allocates
//! chunks on demand as a request's KV cache grows and frees them when the
//! request completes. Internal fragmentation is limited to the final,
//! partially filled chunk of each request.

use crate::{MemError, RequestId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default chunk size: 1 MB (paper §VI-C).
pub const DEFAULT_CHUNK_BYTES: u64 = 1 << 20;

/// Identifier of a physical chunk within one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkId(pub u64);

/// A free-list chunk allocator over one PIM module's capacity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkAllocator {
    chunk_bytes: u64,
    total_chunks: u64,
    free: Vec<ChunkId>,
    /// Per-request: allocated chunks (ordered by virtual index) and the
    /// actual KV bytes stored.
    requests: BTreeMap<u64, Owned>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Owned {
    chunks: Vec<ChunkId>,
    used_bytes: u64,
}

impl ChunkAllocator {
    /// Creates an allocator over `capacity_bytes` with the given chunk size.
    ///
    /// # Panics
    /// Panics if `chunk_bytes` is zero.
    pub fn new(capacity_bytes: u64, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be nonzero");
        let total_chunks = capacity_bytes / chunk_bytes;
        // LIFO free list: most recently freed chunk is reused first.
        let free = (0..total_chunks).rev().map(ChunkId).collect();
        ChunkAllocator {
            chunk_bytes,
            total_chunks,
            free,
            requests: BTreeMap::new(),
        }
    }

    /// Creates an allocator with the paper's 1 MB chunks.
    pub fn with_default_chunks(capacity_bytes: u64) -> Self {
        Self::new(capacity_bytes, DEFAULT_CHUNK_BYTES)
    }

    /// Chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Total chunks in the module.
    pub fn total_chunks(&self) -> u64 {
        self.total_chunks
    }

    /// Currently free chunks.
    pub fn free_chunks(&self) -> u64 {
        self.free.len() as u64
    }

    /// Registers a new request with zero allocation.
    ///
    /// # Errors
    /// [`MemError::DuplicateRequest`] if already registered.
    pub fn register(&mut self, id: RequestId) -> Result<(), MemError> {
        if self.requests.contains_key(&id.0) {
            return Err(MemError::DuplicateRequest(id));
        }
        self.requests.insert(
            id.0,
            Owned {
                chunks: Vec::new(),
                used_bytes: 0,
            },
        );
        Ok(())
    }

    /// Grows `id`'s KV cache to `used_bytes`, lazily allocating chunks and
    /// returning the newly mapped `(virtual_chunk, physical_chunk)` pairs
    /// (in the paper, the entries the host installs in the module's VA2PA
    /// table).
    ///
    /// # Errors
    /// [`MemError::UnknownRequest`] if not registered;
    /// [`MemError::OutOfMemory`] if the free list runs dry (no partial
    /// growth is performed).
    pub fn grow(
        &mut self,
        id: RequestId,
        used_bytes: u64,
    ) -> Result<Vec<(u64, ChunkId)>, MemError> {
        let owned = self
            .requests
            .get(&id.0)
            .ok_or(MemError::UnknownRequest(id))?;
        let needed_chunks = used_bytes.div_ceil(self.chunk_bytes);
        let have = owned.chunks.len() as u64;
        let extra = needed_chunks.saturating_sub(have);
        if extra > self.free.len() as u64 {
            return Err(MemError::OutOfMemory {
                requested: extra * self.chunk_bytes,
                available: self.free.len() as u64 * self.chunk_bytes,
            });
        }
        let mut new_maps = Vec::with_capacity(extra as usize);
        let owned = self
            .requests
            .get_mut(&id.0)
            .expect("request registered before growth; ids are never reused");
        for k in 0..extra {
            let pc = self.free.pop().expect("free list length checked");
            new_maps.push((have + k, pc));
            owned.chunks.push(pc);
        }
        owned.used_bytes = used_bytes.max(owned.used_bytes);
        Ok(new_maps)
    }

    /// Frees all of `id`'s chunks.
    ///
    /// # Errors
    /// [`MemError::UnknownRequest`] if not registered.
    pub fn release(&mut self, id: RequestId) -> Result<(), MemError> {
        let owned = self
            .requests
            .remove(&id.0)
            .ok_or(MemError::UnknownRequest(id))?;
        self.free.extend(owned.chunks);
        Ok(())
    }

    /// Number of registered requests.
    pub fn registered(&self) -> usize {
        self.requests.len()
    }

    /// Bytes held in allocated chunks (allocated chunk count x chunk size).
    pub fn allocated_bytes(&self) -> u64 {
        (self.total_chunks - self.free.len() as u64) * self.chunk_bytes
    }

    /// Bytes of actual KV data across requests.
    pub fn used_bytes(&self) -> u64 {
        self.requests.values().map(|o| o.used_bytes).sum()
    }

    /// Capacity utilization: actual bytes over *allocated* bytes (the only
    /// waste is each request's final partial chunk). Returns 0 when nothing
    /// is allocated.
    pub fn capacity_utilization(&self) -> f64 {
        let allocated = self.allocated_bytes();
        if allocated == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / allocated as f64
        }
    }

    /// Chunks owned by a request, in virtual order.
    pub fn chunks_of(&self, id: RequestId) -> Option<&[ChunkId]> {
        self.requests.get(&id.0).map(|o| o.chunks.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_allocates_on_demand() {
        let mut a = ChunkAllocator::new(10 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        let maps = a.grow(RequestId(1), 2500).unwrap();
        assert_eq!(maps.len(), 3); // ceil(2500/1024)
        assert_eq!(a.free_chunks(), 7);
        // Growing within the same chunks allocates nothing new.
        assert!(a.grow(RequestId(1), 3000).unwrap().is_empty());
        // Crossing a boundary allocates exactly one more.
        assert_eq!(a.grow(RequestId(1), 3100).unwrap().len(), 1);
    }

    #[test]
    fn virtual_indices_are_sequential() {
        let mut a = ChunkAllocator::new(8 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        let m1 = a.grow(RequestId(1), 2048).unwrap();
        let m2 = a.grow(RequestId(1), 4096).unwrap();
        let vcs: Vec<u64> = m1.iter().chain(m2.iter()).map(|&(vc, _)| vc).collect();
        assert_eq!(vcs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_memory_is_atomic() {
        let mut a = ChunkAllocator::new(2 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        a.grow(RequestId(1), 1024).unwrap();
        let err = a.grow(RequestId(1), 4096).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // Nothing was partially allocated.
        assert_eq!(a.chunks_of(RequestId(1)).unwrap().len(), 1);
        assert_eq!(a.free_chunks(), 1);
    }

    #[test]
    fn release_returns_chunks() {
        let mut a = ChunkAllocator::new(4 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        a.grow(RequestId(1), 4096).unwrap();
        assert_eq!(a.free_chunks(), 0);
        a.release(RequestId(1)).unwrap();
        assert_eq!(a.free_chunks(), 4);
        assert_eq!(a.registered(), 0);
    }

    #[test]
    fn no_chunk_double_booked() {
        let mut a = ChunkAllocator::new(16 * 1024, 1024);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            a.register(RequestId(i)).unwrap();
            for (_, pc) in a.grow(RequestId(i), 3000).unwrap() {
                assert!(seen.insert(pc), "chunk {pc:?} handed out twice");
            }
        }
    }

    #[test]
    fn utilization_counts_only_last_chunk_waste() {
        let mut a = ChunkAllocator::new(10 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        a.grow(RequestId(1), 1536).unwrap(); // 2 chunks, 1536 used
        assert!((a.capacity_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn freed_chunks_are_reused() {
        let mut a = ChunkAllocator::new(2 * 1024, 1024);
        a.register(RequestId(1)).unwrap();
        let first: Vec<ChunkId> = a
            .grow(RequestId(1), 2048)
            .unwrap()
            .into_iter()
            .map(|m| m.1)
            .collect();
        a.release(RequestId(1)).unwrap();
        a.register(RequestId(2)).unwrap();
        let second: Vec<ChunkId> = a
            .grow(RequestId(2), 2048)
            .unwrap()
            .into_iter()
            .map(|m| m.1)
            .collect();
        let mut f = first.clone();
        let mut s = second.clone();
        f.sort();
        s.sort();
        assert_eq!(f, s);
    }
}
