//! Paged KV cache: fixed-size, reference-counted pages with one cached
//! page chain per shared prompt prefix and page-granular LRU
//! reclamation (the vLLM/PagedAttention line).
//!
//! Physical KV memory is carved into fixed-size **pages**. Pages that
//! hold a request's *shared prompt prefix* (a tenant's system prompt or
//! few-shot template) form a chain per prefix id: page `i` of prefix
//! `p` holds the same tokens for every request that shares `p`. A new
//! request whose first `n` shared pages are resident maps them
//! (refcount++) and can skip their prefill entirely. Pages past the
//! shared prefix — the private tail of the prompt and everything the
//! decode phase appends — are plain refcounted allocations that return
//! to the free list on release.
//!
//! When a sequence releases its pages, shared pages whose refcount
//! drops to zero are **not** freed: they stay in their chain as
//! *cached* pages, reclaimable page-by-page in LRU order (a chain is
//! consumed tail-first) only when a later admission needs room. This
//! replaces all-or-nothing per-request eviction with page-granular
//! reclamation.
//!
//! A chain is stored root-first as **runs**, not pages: a run is a
//! stretch of pages that share one refcount and one last use, and
//! neighbouring runs always differ in one of them. A sequence maps a
//! chain's first `depth` pages, so refcounts never grow towards the
//! tail, and runs break only where a live sequence ends or an
//! admission's stamp stops. Looking up, re-referencing, releasing and
//! reclaiming then cost per run, not per page. Page states, the LRU
//! victim order and every returned count are still exactly
//! page-granular.
//!
//! Page states and the conservation invariant:
//!
//! ```text
//! total = free + cached + referenced
//!
//!   free        on the free list, content-less
//!   cached      in a prefix chain, refcount == 0 (reclaimable, LRU)
//!   referenced  refcount >= 1 (chain pages) or owned privately by a
//!               live sequence — never reclaimed
//! ```

use crate::{MemError, RequestId};
use std::collections::{BTreeMap, BTreeSet};

/// A stretch of one chain's pages that share one refcount and one last
/// use.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Pages in the run (≥ 1).
    len: u64,
    /// Live sequences that map the run's pages.
    refcount: u64,
    /// Logical timestamp of the last admission that mapped the run
    /// (monotonic counter, not wall clock — keeps runs deterministic).
    last_use: u64,
}

/// A live sequence's page accounting.
#[derive(Debug, Clone, Copy)]
struct Seq {
    /// The prefix whose chain the sequence maps.
    prefix: u64,
    /// Leading pages of that chain the sequence maps; always a run
    /// boundary, since the sequence's own reference sets them apart.
    depth: u64,
    /// Pages owned privately (prompt tail + decode growth), never shared.
    private_pages: u64,
}

/// Result of a non-mutating prefix lookup ([`PagePool::lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixHit {
    /// Pages of the query already resident in the prefix's chain.
    pub hit_pages: u64,
    /// Of those, pages currently *cached* (refcount 0) — admitting the
    /// query re-references them, so they stop being reclaimable.
    pub hit_cached_pages: u64,
}

/// Result of admitting a sequence ([`PagePool::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Admission {
    /// Shared-prefix pages mapped from the chain (prefill skippable).
    pub hit_pages: u64,
    /// Pages newly allocated (missed prefix pages + private pages).
    pub new_pages: u64,
    /// Cached pages reclaimed (LRU) to satisfy this allocation.
    pub reclaimed_pages: u64,
}

/// Result of releasing a sequence ([`PagePool::release`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Released {
    /// Drop in referenced pages: freed private pages plus prefix pages
    /// whose refcount reached zero (these stay cached, not freed).
    pub released_pages: u64,
    /// Prefix pages that transitioned referenced → cached.
    pub newly_cached_pages: u64,
    /// Private pages returned to the free list.
    pub freed_pages: u64,
}

/// A per-replica pool of fixed-size, reference-counted KV pages with
/// one cached chain per shared prefix and LRU page reclamation.
#[derive(Debug, Clone)]
pub struct PagePool {
    page_bytes: u64,
    total_pages: u64,
    free_pages: u64,
    cached_pages: u64,
    referenced_pages: u64,
    /// Monotonic logical clock, bumped once per admission.
    tick: u64,
    /// Each prefix's resident pages as root-first runs; adjacent runs
    /// differ in refcount or last use.
    chains: BTreeMap<u64, Vec<Run>>,
    /// Live sequences by request id.
    seqs: BTreeMap<u64, Seq>,
    /// The chains whose last run is cached, keyed `(last_use, prefix)`:
    /// the first entry's last page is the LRU victim. One admission
    /// stamps a single chain, so no two entries share a last use and the
    /// prefix never breaks a tie; the victim order is the page-granular
    /// one.
    reclaimable: BTreeSet<(u64, u64)>,
}

/// The reclaimable-index key of `prefix`'s chain: present while its last
/// run is cached.
fn cold_key(prefix: u64, chain: &[Run]) -> Option<(u64, u64)> {
    chain
        .last()
        .filter(|r| r.refcount == 0)
        .map(|r| (r.last_use, prefix))
}

/// Merges neighbouring runs that share a refcount and a last use.
fn merge_runs(chain: &mut Vec<Run>) {
    chain.dedup_by(|next, prev| {
        let same = next.refcount == prev.refcount && next.last_use == prev.last_use;
        if same {
            prev.len += next.len;
        }
        same
    });
}

impl PagePool {
    /// Creates a pool over `capacity_bytes` carved into `page_bytes`
    /// pages (any remainder is unusable slack, as with chunks).
    ///
    /// # Panics
    /// Panics if `page_bytes` is zero.
    pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be nonzero");
        let total_pages = capacity_bytes / page_bytes;
        PagePool {
            page_bytes,
            total_pages,
            free_pages: total_pages,
            cached_pages: 0,
            referenced_pages: 0,
            tick: 0,
            chains: BTreeMap::new(),
            seqs: BTreeMap::new(),
            reclaimable: BTreeSet::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Pages on the free list.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Zero-refcount prefix pages kept warm in their chains (reclaimable).
    pub fn cached_pages(&self) -> u64 {
        self.cached_pages
    }

    /// Pages pinned by live sequences (shared refcount ≥ 1 + private).
    pub fn referenced_pages(&self) -> u64 {
        self.referenced_pages
    }

    /// Number of live (admitted, unreleased) sequences.
    pub fn registered(&self) -> usize {
        self.seqs.len()
    }

    /// How many of the first `pages` pages of `prefix`'s chain are
    /// resident, and how many of those are cached (would stop being
    /// reclaimable if admitted). Mutates nothing; costs one step per run.
    pub fn lookup(&self, prefix: u64, pages: u64) -> PrefixHit {
        let mut hit = PrefixHit::default();
        for run in self.chains.get(&prefix).map_or(&[][..], Vec::as_slice) {
            if hit.hit_pages == pages {
                break;
            }
            let k = run.len.min(pages - hit.hit_pages);
            hit.hit_pages += k;
            if run.refcount == 0 {
                hit.hit_cached_pages += k;
            }
        }
        hit
    }

    /// Admits a sequence: maps the resident part of the first
    /// `shared_pages` pages of `prefix`'s chain (refcount++ on each hit
    /// page), allocates the missed shared pages plus `private_pages`,
    /// reclaiming cached pages LRU-first when the free list runs dry.
    /// Atomic: on error nothing is allocated.
    ///
    /// # Errors
    /// [`MemError::DuplicateRequest`] if `id` is already admitted;
    /// [`MemError::OutOfMemory`] if the allocation cannot be satisfied
    /// even after reclaiming every reclaimable cached page.
    pub fn admit(
        &mut self,
        id: RequestId,
        prefix: u64,
        shared_pages: u64,
        private_pages: u64,
    ) -> Result<Admission, MemError> {
        if self.seqs.contains_key(&id.0) {
            return Err(MemError::DuplicateRequest(id));
        }
        let hit = self.lookup(prefix, shared_pages);
        let missing = shared_pages - hit.hit_pages;
        let new_pages = missing + private_pages;
        let available = self.free_pages + self.cached_pages - hit.hit_cached_pages;
        if new_pages > available {
            return Err(MemError::OutOfMemory {
                requested: new_pages * self.page_bytes,
                available: available * self.page_bytes,
            });
        }
        self.tick += 1;
        let chain = self.chains.entry(prefix).or_default();
        let was_cold = cold_key(prefix, chain);
        // Re-reference the hit pages, splitting the run the hit ends
        // inside: its unmatched pages keep their refcount and last use.
        let (mut covered, mut i) = (0, 0);
        while covered < hit.hit_pages {
            let run = &mut chain[i];
            let k = run.len.min(hit.hit_pages - covered);
            if k < run.len {
                let upper = Run { len: k, ..*run };
                run.len -= k;
                chain.insert(i, upper);
            }
            let run = &mut chain[i];
            if run.refcount == 0 {
                self.cached_pages -= k;
                self.referenced_pages += k;
            }
            run.refcount += 1;
            run.last_use = self.tick;
            covered += k;
            i += 1;
        }
        // A miss means the whole chain was hit: the missed pages extend it.
        if missing > 0 {
            chain.push(Run {
                len: missing,
                refcount: 1,
                last_use: self.tick,
            });
        }
        merge_runs(chain);
        // The last run stops being cached exactly when the hit maps it;
        // a cold tail the hit stops short of keeps its key.
        if let (Some(key), None) = (was_cold, cold_key(prefix, chain)) {
            self.reclaimable.remove(&key);
        }
        let reclaimed_pages = self.take_pages(new_pages);
        self.referenced_pages += new_pages;
        self.seqs.insert(
            id.0,
            Seq {
                prefix,
                depth: shared_pages,
                private_pages,
            },
        );
        self.debug_check();
        Ok(Admission {
            hit_pages: hit.hit_pages,
            new_pages,
            reclaimed_pages,
        })
    }

    /// Releases a sequence: private pages return to the free list;
    /// shared-prefix pages drop one reference, and those reaching zero
    /// stay in their chain as cached (reclaimable) pages.
    ///
    /// # Errors
    /// [`MemError::UnknownRequest`] if `id` is not admitted.
    pub fn release(&mut self, id: RequestId) -> Result<Released, MemError> {
        let seq = self
            .seqs
            .remove(&id.0)
            .ok_or(MemError::UnknownRequest(id))?;
        let mut rel = Released {
            freed_pages: seq.private_pages,
            ..Released::default()
        };
        if seq.depth > 0 {
            let chain = self.chains.get_mut(&seq.prefix).expect("mapped chain");
            let mut covered = 0;
            for run in chain.iter_mut() {
                if covered == seq.depth {
                    break;
                }
                debug_assert!(run.refcount > 0, "page refcount underflow");
                run.refcount -= 1;
                if run.refcount == 0 {
                    rel.newly_cached_pages += run.len;
                }
                covered += run.len;
            }
            debug_assert_eq!(covered, seq.depth, "a sequence ends at a run boundary");
            // Every mapped run dropped by one, so only the run the
            // sequence ended at can now continue into the next one. The
            // last run is newly cached only if the sequence mapped it; a
            // cold last run it did not map keeps its key.
            merge_runs(chain);
            if let Some(key) = cold_key(seq.prefix, chain) {
                self.reclaimable.insert(key);
            }
        }
        self.cached_pages += rel.newly_cached_pages;
        self.free_pages += seq.private_pages;
        rel.released_pages = rel.freed_pages + rel.newly_cached_pages;
        self.referenced_pages -= rel.released_pages;
        self.debug_check();
        Ok(rel)
    }

    /// Consumes `n` pages: from the free list as far as it reaches, the
    /// shortfall by reclaiming cached pages — in exactly the order `n`
    /// page-by-page LRU pops would take them, a chain's last run at a
    /// time. The run left after a partial reclaim keeps its key, which
    /// stays the least: no other reclaimable chain shares its last use.
    /// Returns the number reclaimed.
    fn take_pages(&mut self, n: u64) -> u64 {
        let shortfall = n.saturating_sub(self.free_pages);
        let mut left = shortfall;
        while left > 0 {
            let &(_, prefix) = self
                .reclaimable
                .first()
                .expect("cached page exists (admit feasibility was checked)");
            let chain = self.chains.get_mut(&prefix).expect("indexed chain");
            let run = chain.last_mut().expect("indexed chain is nonempty");
            let k = left.min(run.len);
            run.len -= k;
            left -= k;
            if run.len == 0 {
                // A used-up run leaves; a cold run before it becomes the
                // chain's reclaimable tail.
                chain.pop();
                self.reclaimable.pop_first();
                if let Some(key) = cold_key(prefix, chain) {
                    self.reclaimable.insert(key);
                }
            }
        }
        self.cached_pages -= shortfall;
        self.free_pages = self.free_pages + shortfall - n;
        shortfall
    }

    /// Conservation invariants (debug builds only): pages sum to the
    /// total, and run lengths to the cached and the referenced prefix
    /// pages; runs are nonempty and maximal, and each run's refcount is
    /// the number of live sequences that map it; the reclaimable index
    /// holds exactly the chains whose last run is cached, with distinct
    /// last uses.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.free_pages + self.cached_pages + self.referenced_pages,
            self.total_pages,
            "page conservation violated"
        );
        if cfg!(debug_assertions) {
            let (mut cached, mut shared) = (0, 0);
            let mut cold = BTreeSet::new();
            for (&prefix, chain) in &self.chains {
                let mut depths: Vec<u64> = self
                    .seqs
                    .values()
                    .filter(|s| s.prefix == prefix && s.depth > 0)
                    .map(|s| s.depth)
                    .collect();
                depths.sort_unstable();
                let mut start = 0;
                for (i, run) in chain.iter().enumerate() {
                    assert!(run.len > 0, "empty run");
                    if i > 0 {
                        let prev = chain[i - 1];
                        assert!(
                            (prev.refcount, prev.last_use) != (run.refcount, run.last_use),
                            "run {i} of chain {prefix} continues its predecessor"
                        );
                    }
                    // Sequences mapping page `j`: those deeper than `j`.
                    let mappers =
                        |j: u64| (depths.len() - depths.partition_point(|&d| d <= j)) as u64;
                    assert_eq!(run.refcount, mappers(start), "refcount of run {i}");
                    assert_eq!(
                        run.refcount,
                        mappers(start + run.len - 1),
                        "a sequence ends inside run {i}"
                    );
                    if run.refcount == 0 {
                        cached += run.len;
                    } else {
                        shared += run.len;
                    }
                    start += run.len;
                }
                assert!(depths.last().map_or(true, |&d| d <= start));
                cold.extend(cold_key(prefix, chain));
            }
            let private: u64 = self.seqs.values().map(|s| s.private_pages).sum();
            assert_eq!(cached, self.cached_pages, "cached run lengths");
            assert_eq!(
                shared + private,
                self.referenced_pages,
                "referenced run lengths"
            );
            assert_eq!(self.reclaimable, cold, "reclaimable index out of sync");
            let uses: BTreeSet<u64> = cold.iter().map(|&(u, _)| u).collect();
            assert_eq!(uses.len(), cold.len(), "reclaimable runs share a last use");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded xorshift draw in `0..n`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        }
    }

    /// Runs over every chain.
    fn runs(p: &PagePool) -> usize {
        p.chains.values().map(Vec::len).sum()
    }

    #[test]
    fn first_admit_misses_then_prefix_hits() {
        let mut p = PagePool::new(64 * 1024, 1024);
        let a = p.admit(RequestId(1), 0, 4, 2).unwrap();
        assert_eq!(a.hit_pages, 0);
        assert_eq!(a.new_pages, 6);
        assert_eq!(p.referenced_pages(), 6);
        // Second sequence shares the 4-page prefix: only private pages
        // are new.
        let b = p.admit(RequestId(2), 0, 4, 3).unwrap();
        assert_eq!(b.hit_pages, 4);
        assert_eq!(b.new_pages, 3);
        assert_eq!(p.referenced_pages(), 9);
        // A shorter prefix of the same chain also hits.
        assert_eq!(
            p.lookup(0, 2),
            PrefixHit {
                hit_pages: 2,
                hit_cached_pages: 0
            }
        );
        // A different prefix misses entirely.
        assert_eq!(p.lookup(1, 4).hit_pages, 0);
    }

    #[test]
    fn release_caches_shared_pages_and_frees_private() {
        let mut p = PagePool::new(16 * 1024, 1024);
        p.admit(RequestId(1), 0, 4, 2).unwrap();
        let r = p.release(RequestId(1)).unwrap();
        assert_eq!(r.freed_pages, 2);
        assert_eq!(r.newly_cached_pages, 4);
        assert_eq!(r.released_pages, 6);
        assert_eq!(p.cached_pages(), 4);
        assert_eq!(p.referenced_pages(), 0);
        assert_eq!(p.free_pages(), 12);
        // The cached prefix is still hittable — and flagged cached.
        let h = p.lookup(0, 4);
        assert_eq!(h.hit_pages, 4);
        assert_eq!(h.hit_cached_pages, 4);
        // Re-admitting re-references it without allocating.
        let a = p.admit(RequestId(2), 0, 4, 0).unwrap();
        assert_eq!(a.hit_pages, 4);
        assert_eq!(a.new_pages, 0);
        assert_eq!(p.cached_pages(), 0);
    }

    #[test]
    fn refcount_tracks_multiple_sharers() {
        let mut p = PagePool::new(16 * 1024, 1024);
        p.admit(RequestId(1), 0, 3, 0).unwrap();
        p.admit(RequestId(2), 0, 3, 0).unwrap();
        // First release keeps the pages referenced (the sharer lives).
        let r = p.release(RequestId(1)).unwrap();
        assert_eq!(r.newly_cached_pages, 0);
        assert_eq!(p.referenced_pages(), 3);
        let r = p.release(RequestId(2)).unwrap();
        assert_eq!(r.newly_cached_pages, 3);
        assert_eq!(p.cached_pages(), 3);
    }

    #[test]
    fn lru_reclaims_cold_tail_first() {
        let mut p = PagePool::new(8 * 1024, 1024);
        // Fill the pool with two released chains: prefix 0 (older) and
        // prefix 1 (newer), 4 pages each.
        p.admit(RequestId(1), 0, 4, 0).unwrap();
        p.admit(RequestId(2), 1, 4, 0).unwrap();
        p.release(RequestId(1)).unwrap();
        p.release(RequestId(2)).unwrap();
        assert_eq!(p.free_pages(), 0);
        assert_eq!(p.cached_pages(), 8);
        // A 3-page private admission must reclaim 3 pages — from the
        // *older* chain, tail-first, leaving its first page cached.
        let a = p.admit(RequestId(3), 0, 0, 3).unwrap();
        assert_eq!(a.reclaimed_pages, 3);
        assert_eq!(
            p.lookup(0, 4).hit_pages,
            1,
            "older chain consumed tail-first"
        );
        assert_eq!(p.lookup(1, 4).hit_pages, 4, "newer chain intact");
    }

    #[test]
    fn referenced_pages_are_never_reclaimed() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), 0, 3, 0).unwrap();
        // 1 free page left; asking for 3 private pages must fail —
        // the 3 referenced pages are not reclaimable.
        let err = p.admit(RequestId(2), 1, 0, 3).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // Atomic: nothing changed.
        assert_eq!(p.free_pages(), 1);
        assert_eq!(p.referenced_pages(), 3);
        assert_eq!(p.registered(), 1);
    }

    #[test]
    fn admit_accounts_hit_cached_pages_in_feasibility() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), 0, 4, 0).unwrap();
        p.release(RequestId(1)).unwrap();
        // All 4 pages cached. Re-admitting the chain plus 1 private page
        // needs 1 page, but re-referencing the chain removes all 4 from
        // the reclaimable set — infeasible.
        let err = p.admit(RequestId(2), 0, 4, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // Without the private page it fits.
        p.admit(RequestId(3), 0, 4, 0).unwrap();
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), 0, 0, 1).unwrap();
        assert!(matches!(
            p.admit(RequestId(1), 0, 0, 1),
            Err(MemError::DuplicateRequest(_))
        ));
        assert!(matches!(
            p.release(RequestId(9)),
            Err(MemError::UnknownRequest(_))
        ));
    }

    /// The LRU victim by a linear scan over every chain: the least
    /// `(last_use, prefix)` among chains whose last run is cached, with
    /// that run's length.
    fn victim_by_scan(p: &PagePool) -> Option<(u64, u64)> {
        p.chains
            .iter()
            .filter_map(|(&prefix, chain)| chain.last().map(|r| (prefix, *r)))
            .filter(|(_, r)| r.refcount == 0)
            .min_by_key(|&(prefix, r)| (r.last_use, prefix))
            .map(|(prefix, r)| (prefix, r.len))
    }

    /// Pages stored in the chains.
    fn chain_pages(p: &PagePool) -> u64 {
        p.chains.values().flatten().map(|r| r.len).sum()
    }

    #[test]
    fn indexed_reclaim_picks_the_linear_scan_victim() {
        // Seeded random admits (some infeasible), releases and explicit
        // one-page reclaims on a small pool. Each explicit reclaim must
        // take the last page of exactly the chain the linear scan
        // names; admissions that reclaim internally are checked by
        // `debug_check`'s index invariant.
        let mut draw = rng(0x9E37_79B9_7F4A_7C15);
        let mut p = PagePool::new(48 * 1024, 1024);
        let mut live: Vec<u64> = Vec::new();
        let (mut explicit_reclaims, mut internal_reclaims) = (0, 0);
        for id in 0..4000u64 {
            match draw(8) {
                0..=3 => {
                    let (prefix, pages) = (draw(4), 1 + draw(10));
                    if let Ok(a) = p.admit(RequestId(id), prefix, pages, draw(4)) {
                        internal_reclaims += a.reclaimed_pages;
                        live.push(id);
                    }
                }
                4..=6 if !live.is_empty() => {
                    let i = draw(live.len() as u64) as usize;
                    p.release(RequestId(live.swap_remove(i))).unwrap();
                }
                _ => {
                    let Some((victim, len)) = victim_by_scan(&p) else {
                        assert_eq!(p.cached_pages(), 0);
                        continue;
                    };
                    let (before, pages_before) = (p.chains[&victim].len(), chain_pages(&p));
                    // Take one page more than the free list holds, then
                    // hand them all back: exactly one page is reclaimed.
                    let n = p.free_pages + 1;
                    assert_eq!(p.take_pages(n), 1);
                    p.free_pages += n;
                    // The scan's run lost its last page (and left the
                    // chain if that was its only one).
                    let chain = &p.chains[&victim];
                    let left = if chain.len() == before {
                        chain.last().unwrap().len
                    } else {
                        assert_eq!(chain.len(), before - 1);
                        0
                    };
                    assert_eq!(left, len - 1, "victim differs from the scan");
                    assert_eq!(chain_pages(&p), pages_before - 1);
                    explicit_reclaims += 1;
                    p.debug_check();
                }
            }
        }
        assert!(
            explicit_reclaims > 100,
            "explicit reclaims: {explicit_reclaims}"
        );
        assert!(
            internal_reclaims > 100,
            "internal reclaims: {internal_reclaims}"
        );
    }

    /// The pool as one record per page: each prefix's chain is a `Vec`
    /// of `(refcount, last_use)` pages, every allocated page is taken
    /// one at a time, and a page that must be reclaimed is found by a
    /// linear scan for the least-recently-used cached chain tail. Kept
    /// as the page-granular differential oracle for [`PagePool`].
    mod oracle {
        use crate::page::{Admission, PrefixHit, Released};
        use crate::{MemError, RequestId};
        use std::collections::BTreeMap;

        pub struct OraclePool {
            page_bytes: u64,
            pub free_pages: u64,
            pub cached_pages: u64,
            pub referenced_pages: u64,
            tick: u64,
            /// Each prefix's pages, root first, as `(refcount, last_use)`.
            pub chains: BTreeMap<u64, Vec<(u64, u64)>>,
            /// Live sequences: `(prefix, depth, private pages)`.
            seqs: BTreeMap<u64, (u64, u64, u64)>,
        }

        impl OraclePool {
            pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
                OraclePool {
                    page_bytes,
                    free_pages: capacity_bytes / page_bytes,
                    cached_pages: 0,
                    referenced_pages: 0,
                    tick: 0,
                    chains: BTreeMap::new(),
                    seqs: BTreeMap::new(),
                }
            }

            pub fn lookup(&self, prefix: u64, pages: u64) -> PrefixHit {
                let mut hit = PrefixHit::default();
                let chain = self.chains.get(&prefix).map_or(&[][..], Vec::as_slice);
                for &(refcount, _) in chain.iter().take(pages as usize) {
                    hit.hit_pages += 1;
                    if refcount == 0 {
                        hit.hit_cached_pages += 1;
                    }
                }
                hit
            }

            pub fn admit(
                &mut self,
                id: RequestId,
                prefix: u64,
                shared_pages: u64,
                private_pages: u64,
            ) -> Result<Admission, MemError> {
                if self.seqs.contains_key(&id.0) {
                    return Err(MemError::DuplicateRequest(id));
                }
                let hit = self.lookup(prefix, shared_pages);
                let new_pages = shared_pages - hit.hit_pages + private_pages;
                let available = self.free_pages + self.cached_pages - hit.hit_cached_pages;
                if new_pages > available {
                    return Err(MemError::OutOfMemory {
                        requested: new_pages * self.page_bytes,
                        available: available * self.page_bytes,
                    });
                }
                self.tick += 1;
                let chain = self.chains.entry(prefix).or_default();
                for page in &mut chain[..hit.hit_pages as usize] {
                    if page.0 == 0 {
                        self.cached_pages -= 1;
                        self.referenced_pages += 1;
                    }
                    *page = (page.0 + 1, self.tick);
                }
                for _ in hit.hit_pages..shared_pages {
                    chain.push((1, self.tick));
                    self.referenced_pages += 1;
                }
                let mut adm = Admission {
                    hit_pages: hit.hit_pages,
                    new_pages,
                    ..Admission::default()
                };
                for _ in 0..new_pages {
                    if self.free_pages == 0 {
                        self.reclaim_lru();
                        adm.reclaimed_pages += 1;
                    } else {
                        self.free_pages -= 1;
                    }
                }
                self.referenced_pages += private_pages;
                self.seqs
                    .insert(id.0, (prefix, shared_pages, private_pages));
                Ok(adm)
            }

            pub fn release(&mut self, id: RequestId) -> Result<Released, MemError> {
                let (prefix, depth, private_pages) = self
                    .seqs
                    .remove(&id.0)
                    .ok_or(MemError::UnknownRequest(id))?;
                let mut rel = Released {
                    freed_pages: private_pages,
                    ..Released::default()
                };
                if depth > 0 {
                    for page in &mut self.chains.get_mut(&prefix).unwrap()[..depth as usize] {
                        page.0 -= 1;
                        if page.0 == 0 {
                            rel.newly_cached_pages += 1;
                            self.cached_pages += 1;
                            self.referenced_pages -= 1;
                        }
                    }
                }
                self.free_pages += private_pages;
                self.referenced_pages -= private_pages;
                rel.released_pages = rel.freed_pages + rel.newly_cached_pages;
                Ok(rel)
            }

            /// Drops the last page of the chain whose cached tail page
            /// was used least recently; the page is consumed in place.
            fn reclaim_lru(&mut self) {
                let (_, prefix) = self
                    .chains
                    .iter()
                    .filter_map(|(&prefix, chain)| chain.last().map(|&page| (page, prefix)))
                    .filter(|&((refcount, _), _)| refcount == 0)
                    .map(|((_, last_use), prefix)| (last_use, prefix))
                    .min()
                    .unwrap();
                self.chains.get_mut(&prefix).unwrap().pop();
                self.cached_pages -= 1;
            }
        }
    }

    /// `p`'s chains page by page, as `(refcount, last_use)`, empty
    /// chains left out.
    fn pages_of(p: &PagePool) -> BTreeMap<u64, Vec<(u64, u64)>> {
        p.chains
            .iter()
            .filter(|(_, chain)| !chain.is_empty())
            .map(|(&prefix, chain)| {
                let pages = chain
                    .iter()
                    .flat_map(|r| (0..r.len).map(|_| (r.refcount, r.last_use)))
                    .collect();
                (prefix, pages)
            })
            .collect()
    }

    #[test]
    fn matches_the_oracle_pool_on_random_sequences() {
        // Seeded random admits, releases and lookups of random
        // `(prefix, pages, private)` traffic, run side by side on the
        // pool and the oracle. Several prefixes share each pool, and
        // pools are small enough that most admissions reclaim, with
        // chains long enough that one admission reclaims many pages in
        // a row. The last config holds chains of up to 400 pages:
        // hits that end inside a run, reclaims that take part of a
        // run's tail, and releases that merge runs back. Every result,
        // every page count and every page's refcount and last use must
        // match after every operation, so any change in the victim
        // order shows.
        let mut draw = rng(0x2545_F491_4F6C_DD1D);
        // (pool pages, prefixes, min chain, max chain, max private)
        let configs = [
            (24u64, 4u64, 0u64, 8u64, 4u64),
            (64, 3, 1, 40, 6),
            (200, 2, 1, 120, 16),
            (1000, 3, 150, 400, 24),
        ];
        let (mut reclaimed, mut multi_reclaims, mut rejected) = (0, 0, 0);
        let (mut mid_run_hits, mut partial_tails, mut merges, mut long_chains) = (0, 0, 0, 0);
        for &(pages, prefixes, min_chain, max_chain, max_private) in &configs {
            let mut p = PagePool::new(pages * 1024, 1024);
            let mut o = oracle::OraclePool::new(pages * 1024, 1024);
            let mut live: Vec<u64> = Vec::new();
            for id in 0..3000u64 {
                match draw(20) {
                    0..=9 => {
                        let prefix = draw(prefixes);
                        let shared = min_chain + draw(max_chain - min_chain + 1);
                        let private = draw(max_private + 1);
                        long_chains += u64::from(shared >= 300);
                        let hit = p.lookup(prefix, shared).hit_pages;
                        let mut start = 0;
                        for r in p.chains.get(&prefix).into_iter().flatten() {
                            mid_run_hits += u64::from(start < hit && hit < start + r.len);
                            start += r.len;
                        }
                        let lru_run = p
                            .reclaimable
                            .first()
                            .map(|&(_, c)| p.chains[&c].last().unwrap().len);
                        let got = p.admit(RequestId(id), prefix, shared, private);
                        assert_eq!(
                            got,
                            o.admit(RequestId(id), prefix, shared, private),
                            "admit {id}"
                        );
                        match got {
                            Ok(a) => {
                                reclaimed += a.reclaimed_pages;
                                multi_reclaims += u64::from(a.reclaimed_pages > 1);
                                partial_tails += u64::from(
                                    a.reclaimed_pages > 0
                                        && lru_run.is_some_and(|len| a.reclaimed_pages < len),
                                );
                                live.push(id);
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    10..=16 if !live.is_empty() => {
                        let id = live.swap_remove(draw(live.len() as u64) as usize);
                        let runs_before = runs(&p);
                        assert_eq!(
                            p.release(RequestId(id)),
                            o.release(RequestId(id)),
                            "release {id}"
                        );
                        merges += u64::from(runs(&p) < runs_before);
                    }
                    _ => {
                        let (prefix, n) = (draw(prefixes + 1), draw(max_chain + 2));
                        assert_eq!(p.lookup(prefix, n), o.lookup(prefix, n), "lookup at {id}");
                    }
                }
                assert_eq!(
                    (p.free_pages(), p.cached_pages(), p.referenced_pages()),
                    (o.free_pages, o.cached_pages, o.referenced_pages),
                    "page counts after op {id}"
                );
                let mut oracle_pages = o.chains.clone();
                oracle_pages.retain(|_, chain| !chain.is_empty());
                assert_eq!(pages_of(&p), oracle_pages, "page states after op {id}");
            }
        }
        assert!(reclaimed > 10_000, "reclaimed pages: {reclaimed}");
        assert!(
            multi_reclaims > 1000,
            "multi-page reclaims: {multi_reclaims}"
        );
        assert!(rejected > 500, "rejected admissions: {rejected}");
        assert!(long_chains > 300, "chains of 300+ pages: {long_chains}");
        assert!(
            mid_run_hits > 1000,
            "hits ending inside a run: {mid_run_hits}"
        );
        assert!(
            partial_tails > 500,
            "partial tail reclaims: {partial_tails}"
        );
        assert!(merges > 200, "merges on release: {merges}");
    }

    #[test]
    fn a_shared_chain_is_stored_as_one_run() {
        // No memory pressure: overlapping admissions and releases of
        // prefix 0's 384-page chain share one refcount and one last
        // use, so the chain stays a single run throughout.
        let mut p = PagePool::new(8192 * 1024, 1024);
        let mut draw = rng(0x6A09_E667_F3BC_C909);
        let mut live: Vec<u64> = Vec::new();
        for id in 0..2000u64 {
            if live.is_empty() || (live.len() < 8 && draw(2) == 0) {
                p.admit(RequestId(id), 0, 384, draw(32)).unwrap();
                live.push(id);
            } else {
                let id = live.swap_remove(draw(live.len() as u64) as usize);
                p.release(RequestId(id)).unwrap();
            }
            assert_eq!(runs(&p), 1, "after op {id}");
        }
        for id in live.drain(..) {
            p.release(RequestId(id)).unwrap();
        }
        // Sharers of shorter prefixes split the run where they end;
        // once a full-chain admission restamps it and they leave, it
        // merges back.
        for (id, n) in [(5000, 100), (5001, 250), (5002, 384)] {
            p.admit(RequestId(id), 0, n, 0).unwrap();
        }
        assert_eq!(runs(&p), 3);
        for id in 5000..5003 {
            p.release(RequestId(id)).unwrap();
        }
        assert_eq!(runs(&p), 1);
        assert_eq!(p.cached_pages(), 384);
        assert_eq!(p.lookup(0, 384).hit_cached_pages, 384);
    }

    #[test]
    fn run_count_stays_bounded_under_reclaim_pressure() {
        // The page-pool bench's traffic: 8 prefixes' 384-page chains,
        // shared prefixes of 128..=384 pages plus private pages, two
        // sequences live, in a 1,536-page pool — so admissions split
        // runs where a hit ends and reclaim cold chains tail-first.
        // Runs only break where a live sequence ends or an admission's
        // stamp stops, so the chains never hold more than 10 runs (7 at
        // most here) for up to 1,536 chain pages.
        let mut p = PagePool::new(1536 * 1024, 1024);
        let (mut max_runs, mut reclaimed) = (0, 0);
        for id in 0..4096u64 {
            let prefix = (id * 7 + id / 5) % 8;
            let shared = 128 + id * 37 % 257;
            let a = p
                .admit(RequestId(id), prefix, shared, 16 + id % 64)
                .unwrap();
            reclaimed += a.reclaimed_pages;
            if id >= 1 {
                p.release(RequestId(id - 1)).unwrap();
            }
            max_runs = max_runs.max(runs(&p));
        }
        assert!(reclaimed > 100_000, "reclaimed pages: {reclaimed}");
        assert!(max_runs <= 10, "runs: {max_runs}");
    }
}
