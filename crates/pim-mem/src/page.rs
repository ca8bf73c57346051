//! Paged KV cache: fixed-size, reference-counted pages with a
//! radix-style prefix tree over prompt pages and page-granular LRU
//! reclamation (the vLLM/PagedAttention line).
//!
//! Physical KV memory is carved into fixed-size **pages**. Pages that
//! hold a request's *shared prompt prefix* (system prompts, few-shot
//! templates) live in a prefix tree keyed by caller-supplied content
//! labels: a new request whose prompt shares a prefix with a cached
//! sequence maps the shared pages (refcount++) and can skip their
//! prefill entirely. Pages past the shared prefix — the private tail of
//! the prompt and everything the decode phase appends — are plain
//! refcounted allocations that return to the free list on release.
//!
//! When a sequence releases its pages, shared-prefix pages whose
//! refcount drops to zero are **not** freed: they stay in the tree as
//! *cached* pages, reclaimable page-by-page in LRU order (childless
//! nodes first, so a chain is consumed tail-first) only when a later
//! admission needs room. This replaces all-or-nothing per-request
//! eviction with page-granular reclamation.
//!
//! Page states and the conservation invariant:
//!
//! ```text
//! total = free + cached + referenced
//!
//!   free        on the free list, content-less
//!   cached      in the prefix tree, refcount == 0 (reclaimable, LRU)
//!   referenced  refcount >= 1 (tree pages) or owned privately by a
//!               live sequence — never reclaimed
//! ```
//!
//! The pool also attributes **recompute waste**: when a cached page is
//! reclaimed and a later admission misses on exactly that label, the
//! page was computed once, thrown away, and must be prefilled again —
//! [`Admission::recompute_pages`] counts those pages so the serving
//! layer can extend its `wasted_prefill_tokens` accounting to page
//! granularity.

use crate::{MemError, RequestId};
use std::collections::{BTreeMap, BTreeSet};

/// A node's child links. Prompt prefixes form chains, so most nodes
/// have at most one child: that link is stored inline, and only a true
/// branch point keeps a map. `Many` always holds two or more entries.
#[derive(Debug, Clone, Default)]
enum Children {
    #[default]
    None,
    One(u64, usize),
    Many(BTreeMap<u64, usize>),
}

impl Children {
    fn get(&self, label: u64) -> Option<usize> {
        match self {
            Children::None => None,
            Children::One(l, slot) => (*l == label).then_some(*slot),
            Children::Many(map) => map.get(&label).copied(),
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Children::None)
    }

    /// Links a child under a label the node does not have yet.
    fn insert(&mut self, label: u64, slot: usize) {
        match self {
            Children::None => *self = Children::One(label, slot),
            Children::One(l, s) => {
                debug_assert_ne!(*l, label, "child label already linked");
                *self = Children::Many(BTreeMap::from([(*l, *s), (label, slot)]));
            }
            Children::Many(map) => {
                map.insert(label, slot);
            }
        }
    }

    /// Unlinks the child under `label`; a branch left with one child
    /// goes back to the inline form.
    fn remove(&mut self, label: u64) {
        match self {
            Children::None => debug_assert!(false, "no child to unlink"),
            Children::One(l, _) => {
                debug_assert_eq!(*l, label, "unlinking an unknown child");
                *self = Children::None;
            }
            Children::Many(map) => {
                map.remove(&label);
                if map.len() == 1 {
                    let (&l, &s) = map.first_key_value().expect("one child left");
                    *self = Children::One(l, s);
                }
            }
        }
    }
}

/// A set of labels, stored as 64-bit words keyed by `label >> 6`.
/// Labels of one prompt chain are usually consecutive, so they share a
/// handful of words and the map stays ~64× smaller than one entry per
/// label.
#[derive(Debug, Clone, Default)]
struct LabelSet(BTreeMap<u64, u64>);

impl LabelSet {
    fn insert(&mut self, label: u64) {
        *self.0.entry(label >> 6).or_insert(0) |= 1 << (label & 63);
    }

    /// Removes `label`, returning whether it was present.
    fn remove(&mut self, label: u64) -> bool {
        let Some(word) = self.0.get_mut(&(label >> 6)) else {
            return false;
        };
        let bit = 1 << (label & 63);
        let present = *word & bit != 0;
        *word &= !bit;
        if *word == 0 {
            self.0.remove(&(label >> 6));
        }
        present
    }
}

/// One node of the prefix tree — one shared-prefix page.
#[derive(Debug, Clone)]
struct Node {
    /// Caller-supplied content label (identifies the page's tokens).
    label: u64,
    /// Parent node slot (`None` for first-page nodes hanging off the
    /// conceptual root).
    parent: Option<usize>,
    /// Children keyed by content label.
    children: Children,
    /// Live sequences whose prompt maps this page.
    refcount: u64,
    /// Logical timestamp of the last admission that touched this page
    /// (monotonic counter, not wall clock — keeps runs deterministic).
    last_use: u64,
}

/// A live sequence's page accounting.
#[derive(Debug, Clone)]
struct Seq {
    /// Deepest prefix-tree node on the sequence's path (`None` without
    /// a shared prefix). The rest of the path is its parent chain,
    /// which stays live while the sequence references it.
    tail: Option<usize>,
    /// Pages owned privately (prompt tail + decode growth), never shared.
    private_pages: u64,
}

/// Result of a non-mutating prefix lookup ([`PagePool::lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixHit {
    /// Pages of the query already resident in the prefix tree.
    pub hit_pages: u64,
    /// Of those, pages currently *cached* (refcount 0) — admitting the
    /// query re-references them, so they stop being reclaimable.
    pub hit_cached_pages: u64,
}

/// Result of admitting a sequence ([`PagePool::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Admission {
    /// Shared-prefix pages mapped from the tree (prefill skippable).
    pub hit_pages: u64,
    /// Pages newly allocated (missed prefix pages + private pages).
    pub new_pages: u64,
    /// Cached pages reclaimed (LRU) to satisfy this allocation.
    pub reclaimed_pages: u64,
    /// Of the newly allocated prefix pages, how many were computed by an
    /// earlier sequence and then reclaimed — work that must be redone.
    pub recompute_pages: u64,
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

/// A per-replica pool of fixed-size, reference-counted KV pages with a
/// prefix tree over shared prompt pages and LRU page reclamation.
#[derive(Debug, Clone)]
pub struct PagePool {
    page_bytes: u64,
    total_pages: u64,
    free_pages: u64,
    cached_pages: u64,
    referenced_pages: u64,
    /// Monotonic logical clock, bumped once per admission.
    tick: u64,
    /// Slab of tree nodes; freed slots are reused via `free_slots`.
    slots: Vec<Option<Node>>,
    free_slots: Vec<usize>,
    /// First-page nodes (children of the conceptual root), by label.
    roots: BTreeMap<u64, usize>,
    /// Live sequences by request id.
    seqs: BTreeMap<u64, Seq>,
    /// Labels of reclaimed prefix pages, for recompute attribution.
    evicted_labels: LabelSet,
    /// The reclaimable nodes (refcount 0 and childless) keyed
    /// `(last_use, slot)`: the first entry is the LRU victim.
    reclaimable: BTreeSet<(u64, usize)>,
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
            slots: Vec::new(),
            free_slots: Vec::new(),
            roots: BTreeMap::new(),
            seqs: BTreeMap::new(),
            evicted_labels: LabelSet::default(),
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

    /// Zero-refcount prefix pages kept warm in the tree (reclaimable).
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

    /// Walks the prefix tree for `labels` without mutating anything:
    /// how many leading pages are resident, and how many of those are
    /// cached (would stop being reclaimable if admitted).
    pub fn lookup(&self, labels: &[u64]) -> PrefixHit {
        self.walk(labels).0
    }

    /// [`Self::lookup`], plus the deepest resident node of the prefix.
    /// Each step follows one child link: inline on a chain, a map
    /// lookup only at a branch point.
    fn walk(&self, labels: &[u64]) -> (PrefixHit, Option<usize>) {
        let mut hit = PrefixHit::default();
        let mut cur: Option<usize> = None;
        for &label in labels {
            let next = match cur {
                None => self.roots.get(&label).copied(),
                Some(i) => self.node(i).children.get(label),
            };
            let Some(n) = next else { break };
            hit.hit_pages += 1;
            hit.hit_cached_pages += u64::from(self.node(n).refcount == 0);
            cur = Some(n);
        }
        (hit, cur)
    }

    /// Admits a sequence: maps the longest resident prefix of `labels`
    /// (refcount++ on each hit page), allocates the missed prefix pages
    /// plus `private_pages`, reclaiming cached pages LRU-first when the
    /// free list runs dry. Atomic: on error nothing is allocated.
    ///
    /// # Errors
    /// [`MemError::DuplicateRequest`] if `id` is already admitted;
    /// [`MemError::OutOfMemory`] if the allocation cannot be satisfied
    /// even after reclaiming every reclaimable cached page.
    pub fn admit(
        &mut self,
        id: RequestId,
        labels: &[u64],
        private_pages: u64,
    ) -> Result<Admission, MemError> {
        if self.seqs.contains_key(&id.0) {
            return Err(MemError::DuplicateRequest(id));
        }
        // Walk first (read-only) to price the admission atomically.
        let (hit, hit_tail) = self.walk(labels);
        let missing = labels.len() as u64 - hit.hit_pages;
        let new_pages = missing + private_pages;
        let available = self.free_pages + self.cached_pages - hit.hit_cached_pages;
        if new_pages > available {
            return Err(MemError::OutOfMemory {
                requested: new_pages * self.page_bytes,
                available: available * self.page_bytes,
            });
        }
        self.tick += 1;
        let tick = self.tick;
        // Re-reference the hit prefix, deepest page first, up its
        // parent chain.
        let mut up = hit_tail;
        while let Some(n) = up {
            let node = self.slots[n].as_mut().expect("hit node is live");
            if node.refcount == 0 {
                self.cached_pages -= 1;
                self.referenced_pages += 1;
                self.reclaimable.remove(&(node.last_use, n));
            }
            node.refcount += 1;
            node.last_use = tick;
            up = node.parent;
        }
        let mut adm = Admission {
            hit_pages: hit.hit_pages,
            new_pages,
            ..Admission::default()
        };
        // Allocate and insert the missed prefix pages. Each page is
        // taken before its label is checked, so a label this very
        // admission reclaims counts as recomputed.
        let mut cur = hit_tail;
        for &label in &labels[hit.hit_pages as usize..] {
            adm.reclaimed_pages += self.take_pages(1);
            if self.evicted_labels.remove(label) {
                adm.recompute_pages += 1;
            }
            let node = Node {
                label,
                parent: cur,
                children: Children::None,
                refcount: 1,
                last_use: tick,
            };
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.slots[s] = Some(node);
                    s
                }
                None => {
                    self.slots.push(Some(node));
                    self.slots.len() - 1
                }
            };
            match cur {
                None => {
                    self.roots.insert(label, slot);
                }
                Some(p) => self.slots[p]
                    .as_mut()
                    .expect("parent is live")
                    .children
                    .insert(label, slot),
            }
            cur = Some(slot);
        }
        self.referenced_pages += missing;
        // Allocate the private pages in one step.
        adm.reclaimed_pages += self.take_pages(private_pages);
        self.referenced_pages += private_pages;
        self.seqs.insert(
            id.0,
            Seq {
                tail: cur,
                private_pages,
            },
        );
        self.debug_check();
        Ok(adm)
    }

    /// Releases a sequence: private pages return to the free list;
    /// shared-prefix pages drop one reference, and those reaching zero
    /// stay in the tree as cached (reclaimable) pages.
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
        let mut up = seq.tail;
        while let Some(n) = up {
            let node = self.slots[n].as_mut().expect("path node is live");
            debug_assert!(node.refcount > 0, "page refcount underflow");
            node.refcount -= 1;
            if node.refcount == 0 {
                rel.newly_cached_pages += 1;
                if node.children.is_empty() {
                    self.reclaimable.insert((node.last_use, n));
                }
            }
            up = node.parent;
        }
        self.cached_pages += rel.newly_cached_pages;
        self.referenced_pages -= rel.newly_cached_pages;
        self.free_pages += seq.private_pages;
        self.referenced_pages -= seq.private_pages;
        rel.released_pages = rel.freed_pages + rel.newly_cached_pages;
        self.debug_check();
        Ok(rel)
    }

    /// Consumes `n` pages: from the free list as far as it reaches, the
    /// shortfall by reclaiming LRU cached pages. Returns the number
    /// reclaimed.
    fn take_pages(&mut self, n: u64) -> u64 {
        let shortfall = n.saturating_sub(self.free_pages);
        if shortfall > 0 {
            self.reclaim_lru(shortfall);
        }
        debug_assert!(self.free_pages >= n, "admit feasibility was checked");
        self.free_pages -= n;
        shortfall
    }

    /// Reclaims the `n` least-recently-used cached pages onto the free
    /// list, in exactly the order `n` successive pops of the
    /// reclaimable index would take them. Only childless zero-refcount
    /// nodes are candidates, so a cold chain is consumed tail (deepest
    /// page) first; ties break on slot index, keeping reclamation
    /// deterministic.
    ///
    /// Reclaiming a chain's tail exposes its parent as a new candidate,
    /// which is then usually the next victim. While such a parent is
    /// still below every indexed key it is held outside the index and
    /// taken directly, saving an insert and a pop per page.
    fn reclaim_lru(&mut self, n: u64) {
        let mut held: Option<(u64, usize)> = None;
        for _ in 0..n {
            let (_, victim) = held
                .take()
                .or_else(|| self.reclaimable.pop_first())
                .expect("cached page exists (admit feasibility was checked)");
            let node = self.slots[victim].take().expect("victim is live");
            match node.parent {
                None => {
                    self.roots.remove(&node.label);
                }
                Some(p) => {
                    let parent = self.slots[p].as_mut().expect("parent outlives child");
                    parent.children.remove(node.label);
                    // A cold parent whose last child went becomes a leaf.
                    if parent.refcount == 0 && parent.children.is_empty() {
                        let key = (parent.last_use, p);
                        if self.reclaimable.first().map_or(true, |&first| key < first) {
                            held = Some(key);
                        } else {
                            self.reclaimable.insert(key);
                        }
                    }
                }
            }
            self.free_slots.push(victim);
            self.evicted_labels.insert(node.label);
        }
        if let Some(key) = held {
            self.reclaimable.insert(key);
        }
        self.cached_pages -= n;
        self.free_pages += n;
    }

    fn node(&self, i: usize) -> &Node {
        self.slots[i].as_ref().expect("node index is live")
    }

    /// Conservation invariant, and the reclaimable index equals the set
    /// of zero-refcount childless nodes (debug builds only).
    fn debug_check(&self) {
        debug_assert_eq!(
            self.free_pages + self.cached_pages + self.referenced_pages,
            self.total_pages,
            "page conservation violated"
        );
        if cfg!(debug_assertions) {
            let leaves: BTreeSet<(u64, usize)> = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|n| (i, n)))
                .filter(|(_, n)| n.refcount == 0 && n.children.is_empty())
                .map(|(i, n)| (n.last_use, i))
                .collect();
            assert_eq!(self.reclaimable, leaves, "reclaimable index out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels for tenant `g`, pages `0..n` — the serving layer's scheme.
    fn labels(g: u64, n: u64) -> Vec<u64> {
        (0..n).map(|i| (g << 32) | i).collect()
    }

    #[test]
    fn first_admit_misses_then_prefix_hits() {
        let mut p = PagePool::new(64 * 1024, 1024);
        let a = p.admit(RequestId(1), &labels(0, 4), 2).unwrap();
        assert_eq!(a.hit_pages, 0);
        assert_eq!(a.new_pages, 6);
        assert_eq!(p.referenced_pages(), 6);
        // Second sequence shares the 4-page prefix: only private pages
        // are new.
        let b = p.admit(RequestId(2), &labels(0, 4), 3).unwrap();
        assert_eq!(b.hit_pages, 4);
        assert_eq!(b.new_pages, 3);
        assert_eq!(p.referenced_pages(), 9);
        // A shorter prefix of the same chain also hits.
        assert_eq!(
            p.lookup(&labels(0, 2)),
            PrefixHit {
                hit_pages: 2,
                hit_cached_pages: 0
            }
        );
        // A different tenant's labels miss entirely.
        assert_eq!(p.lookup(&labels(1, 4)).hit_pages, 0);
    }

    #[test]
    fn release_caches_shared_pages_and_frees_private() {
        let mut p = PagePool::new(16 * 1024, 1024);
        p.admit(RequestId(1), &labels(0, 4), 2).unwrap();
        let r = p.release(RequestId(1)).unwrap();
        assert_eq!(r.freed_pages, 2);
        assert_eq!(r.newly_cached_pages, 4);
        assert_eq!(r.released_pages, 6);
        assert_eq!(p.cached_pages(), 4);
        assert_eq!(p.referenced_pages(), 0);
        assert_eq!(p.free_pages(), 12);
        // The cached prefix is still hittable — and flagged cached.
        let h = p.lookup(&labels(0, 4));
        assert_eq!(h.hit_pages, 4);
        assert_eq!(h.hit_cached_pages, 4);
        // Re-admitting re-references it without allocating.
        let a = p.admit(RequestId(2), &labels(0, 4), 0).unwrap();
        assert_eq!(a.hit_pages, 4);
        assert_eq!(a.new_pages, 0);
        assert_eq!(p.cached_pages(), 0);
    }

    #[test]
    fn refcount_tracks_multiple_sharers() {
        let mut p = PagePool::new(16 * 1024, 1024);
        p.admit(RequestId(1), &labels(0, 3), 0).unwrap();
        p.admit(RequestId(2), &labels(0, 3), 0).unwrap();
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
        // Fill the pool with two released chains: tenant 0 (older) and
        // tenant 1 (newer), 4 pages each.
        p.admit(RequestId(1), &labels(0, 4), 0).unwrap();
        p.admit(RequestId(2), &labels(1, 4), 0).unwrap();
        p.release(RequestId(1)).unwrap();
        p.release(RequestId(2)).unwrap();
        assert_eq!(p.free_pages(), 0);
        assert_eq!(p.cached_pages(), 8);
        // A 3-page private admission must reclaim 3 pages — from the
        // *older* chain, tail-first, leaving its first page cached.
        let a = p.admit(RequestId(3), &[], 3).unwrap();
        assert_eq!(a.reclaimed_pages, 3);
        let h0 = p.lookup(&labels(0, 4));
        assert_eq!(h0.hit_pages, 1, "older chain consumed tail-first");
        assert_eq!(p.lookup(&labels(1, 4)).hit_pages, 4, "newer chain intact");
    }

    #[test]
    fn referenced_pages_are_never_reclaimed() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), &labels(0, 3), 0).unwrap();
        // 1 free page left; asking for 3 private pages must fail —
        // the 3 referenced pages are not reclaimable.
        let err = p.admit(RequestId(2), &[], 3).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // Atomic: nothing changed.
        assert_eq!(p.free_pages(), 1);
        assert_eq!(p.referenced_pages(), 3);
        assert_eq!(p.registered(), 1);
    }

    #[test]
    fn admit_accounts_hit_cached_pages_in_feasibility() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), &labels(0, 4), 0).unwrap();
        p.release(RequestId(1)).unwrap();
        // All 4 pages cached. Re-admitting the chain plus 1 private page
        // needs 1 page, but re-referencing the chain removes all 4 from
        // the reclaimable set — infeasible.
        let err = p.admit(RequestId(2), &labels(0, 4), 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
        // Without the private page it fits.
        p.admit(RequestId(3), &labels(0, 4), 0).unwrap();
    }

    #[test]
    fn recompute_attribution_counts_reclaimed_labels_once() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), &labels(0, 4), 0).unwrap();
        p.release(RequestId(1)).unwrap();
        // Reclaim the whole chain for a private allocation.
        let a = p.admit(RequestId(2), &[], 4).unwrap();
        assert_eq!(a.reclaimed_pages, 4);
        p.release(RequestId(2)).unwrap();
        // Re-admitting the chain must recompute all 4 pages.
        let b = p.admit(RequestId(3), &labels(0, 4), 0).unwrap();
        assert_eq!(b.hit_pages, 0);
        assert_eq!(b.recompute_pages, 4);
        p.release(RequestId(3)).unwrap();
        // ... but only once: the labels are resident again, so a fresh
        // admission hits instead of recomputing.
        let c = p.admit(RequestId(4), &labels(0, 4), 0).unwrap();
        assert_eq!(c.hit_pages, 4);
        assert_eq!(c.recompute_pages, 0);
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut p = PagePool::new(4 * 1024, 1024);
        p.admit(RequestId(1), &[], 1).unwrap();
        assert!(matches!(
            p.admit(RequestId(1), &[], 1),
            Err(MemError::DuplicateRequest(_))
        ));
        assert!(matches!(
            p.release(RequestId(9)),
            Err(MemError::UnknownRequest(_))
        ));
    }

    /// The LRU victim by a linear scan over every slot: the least
    /// `(last_use, slot)` among zero-refcount childless nodes.
    fn victim_by_scan(p: &PagePool) -> Option<usize> {
        p.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (i, n)))
            .filter(|(_, n)| n.refcount == 0 && n.children.is_empty())
            .min_by_key(|&(i, n)| (n.last_use, i))
            .map(|(i, _)| i)
    }

    #[test]
    fn indexed_reclaim_picks_the_linear_scan_victim() {
        // Seeded random admits (branching prefixes, some infeasible),
        // releases and explicit reclaims on a small pool. Each explicit
        // reclaim must take exactly the slot the linear scan names;
        // admissions that reclaim internally are checked by
        // `debug_check`'s index invariant.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut p = PagePool::new(48 * 1024, 1024);
        let mut live: Vec<u64> = Vec::new();
        let (mut explicit_reclaims, mut internal_reclaims) = (0, 0);
        for id in 0..4000u64 {
            match draw(8) {
                0..=3 => {
                    // Tenant stem of up to 6 pages, then a branch of up
                    // to 4 pages chosen among 3 variants.
                    let g = draw(4);
                    let variant = draw(3);
                    let mut l = labels(g, 1 + draw(6));
                    l.extend((0..draw(5)).map(|i| (g << 32) | (variant + 1) << 16 | i));
                    if let Ok(a) = p.admit(RequestId(id), &l, draw(4)) {
                        internal_reclaims += a.reclaimed_pages;
                        live.push(id);
                    }
                }
                4..=6 if !live.is_empty() => {
                    let i = draw(live.len() as u64) as usize;
                    p.release(RequestId(live.swap_remove(i))).unwrap();
                }
                _ => {
                    let Some(expect) = victim_by_scan(&p) else {
                        assert_eq!(p.cached_pages(), 0);
                        continue;
                    };
                    let live_before = p.slots.iter().flatten().count();
                    p.reclaim_lru(1);
                    assert!(p.slots[expect].is_none(), "victim differs from the scan");
                    assert_eq!(p.slots.iter().flatten().count(), live_before - 1);
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

    #[test]
    fn label_set_tracks_membership_across_words() {
        let mut set = LabelSet::default();
        let labels = [0, 1, 63, 64, 1 << 32, (1 << 32) | 63, u64::MAX];
        for &l in &labels {
            assert!(!set.remove(l));
            set.insert(l);
        }
        assert_eq!(set.0.len(), 4, "one word per 64-label block");
        assert!(!set.remove(2), "an absent label in a present word");
        for &l in labels.iter().rev() {
            assert!(set.remove(l), "{l}");
            assert!(!set.remove(l), "{l} removed twice");
        }
        assert!(set.0.is_empty(), "emptied words are dropped");
    }

    #[test]
    fn diverging_prefixes_branch_in_the_tree() {
        let mut p = PagePool::new(16 * 1024, 1024);
        // Two chains sharing the first 2 pages, diverging after.
        let mut a = labels(0, 2);
        a.extend([7u64 << 32, (7 << 32) | 1]);
        let mut b = labels(0, 2);
        b.extend([8u64 << 32]);
        p.admit(RequestId(1), &a, 0).unwrap();
        let adm = p.admit(RequestId(2), &b, 0).unwrap();
        assert_eq!(adm.hit_pages, 2, "shared stem hits");
        assert_eq!(adm.new_pages, 1, "divergent tail allocates");
        assert_eq!(p.referenced_pages(), 5);
        p.release(RequestId(1)).unwrap();
        p.release(RequestId(2)).unwrap();
        assert_eq!(p.cached_pages(), 5);
    }

    /// The pool as it was before inline child links and batched
    /// reclaim: `BTreeMap` children, a stored path per sequence, one
    /// `take_page` per allocated page and one `pop_first` per reclaimed
    /// page. Kept as the differential oracle for [`PagePool`].
    mod oracle {
        use crate::page::{Admission, PrefixHit, Released};
        use crate::{MemError, RequestId};
        use std::collections::{BTreeMap, BTreeSet};

        struct Node {
            label: u64,
            parent: Option<usize>,
            children: BTreeMap<u64, usize>,
            refcount: u64,
            last_use: u64,
        }

        pub struct OraclePool {
            page_bytes: u64,
            pub free_pages: u64,
            pub cached_pages: u64,
            pub referenced_pages: u64,
            tick: u64,
            slots: Vec<Option<Node>>,
            free_slots: Vec<usize>,
            roots: BTreeMap<u64, usize>,
            seqs: BTreeMap<u64, (Vec<usize>, u64)>,
            evicted_labels: BTreeSet<u64>,
            reclaimable: BTreeSet<(u64, usize)>,
        }

        impl OraclePool {
            pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
                OraclePool {
                    page_bytes,
                    free_pages: capacity_bytes / page_bytes,
                    cached_pages: 0,
                    referenced_pages: 0,
                    tick: 0,
                    slots: Vec::new(),
                    free_slots: Vec::new(),
                    roots: BTreeMap::new(),
                    seqs: BTreeMap::new(),
                    evicted_labels: BTreeSet::new(),
                    reclaimable: BTreeSet::new(),
                }
            }

            fn node(&self, i: usize) -> &Node {
                self.slots[i].as_ref().unwrap()
            }

            pub fn lookup(&self, labels: &[u64]) -> PrefixHit {
                let mut hit = PrefixHit::default();
                let mut cur: Option<usize> = None;
                for &label in labels {
                    let next = match cur {
                        None => self.roots.get(&label),
                        Some(i) => self.node(i).children.get(&label),
                    };
                    match next {
                        Some(&n) => {
                            hit.hit_pages += 1;
                            if self.node(n).refcount == 0 {
                                hit.hit_cached_pages += 1;
                            }
                            cur = Some(n);
                        }
                        None => break,
                    }
                }
                hit
            }

            pub fn admit(
                &mut self,
                id: RequestId,
                labels: &[u64],
                private_pages: u64,
            ) -> Result<Admission, MemError> {
                if self.seqs.contains_key(&id.0) {
                    return Err(MemError::DuplicateRequest(id));
                }
                let hit = self.lookup(labels);
                let missing = labels.len() as u64 - hit.hit_pages;
                let new_pages = missing + private_pages;
                let available = self.free_pages + self.cached_pages - hit.hit_cached_pages;
                if new_pages > available {
                    return Err(MemError::OutOfMemory {
                        requested: new_pages * self.page_bytes,
                        available: available * self.page_bytes,
                    });
                }
                self.tick += 1;
                let tick = self.tick;
                let mut path = Vec::new();
                let mut cur: Option<usize> = None;
                for &label in &labels[..hit.hit_pages as usize] {
                    let n = match cur {
                        None => self.roots[&label],
                        Some(i) => self.node(i).children[&label],
                    };
                    let node = self.slots[n].as_mut().unwrap();
                    if node.refcount == 0 {
                        self.cached_pages -= 1;
                        self.referenced_pages += 1;
                        self.reclaimable.remove(&(node.last_use, n));
                    }
                    node.refcount += 1;
                    node.last_use = tick;
                    path.push(n);
                    cur = Some(n);
                }
                let mut adm = Admission {
                    hit_pages: hit.hit_pages,
                    new_pages,
                    ..Admission::default()
                };
                for &label in &labels[hit.hit_pages as usize..] {
                    self.take_page(&mut adm.reclaimed_pages);
                    if self.evicted_labels.remove(&label) {
                        adm.recompute_pages += 1;
                    }
                    let node = Node {
                        label,
                        parent: cur,
                        children: BTreeMap::new(),
                        refcount: 1,
                        last_use: tick,
                    };
                    let slot = match self.free_slots.pop() {
                        Some(s) => {
                            self.slots[s] = Some(node);
                            s
                        }
                        None => {
                            self.slots.push(Some(node));
                            self.slots.len() - 1
                        }
                    };
                    match cur {
                        None => {
                            self.roots.insert(label, slot);
                        }
                        Some(p) => {
                            self.slots[p].as_mut().unwrap().children.insert(label, slot);
                        }
                    }
                    self.referenced_pages += 1;
                    path.push(slot);
                    cur = Some(slot);
                }
                for _ in 0..private_pages {
                    self.take_page(&mut adm.reclaimed_pages);
                    self.referenced_pages += 1;
                }
                self.seqs.insert(id.0, (path, private_pages));
                Ok(adm)
            }

            pub fn release(&mut self, id: RequestId) -> Result<Released, MemError> {
                let (path, private_pages) = self
                    .seqs
                    .remove(&id.0)
                    .ok_or(MemError::UnknownRequest(id))?;
                let mut rel = Released {
                    freed_pages: private_pages,
                    ..Released::default()
                };
                for &n in path.iter().rev() {
                    let node = self.slots[n].as_mut().unwrap();
                    node.refcount -= 1;
                    if node.refcount == 0 {
                        rel.newly_cached_pages += 1;
                        self.cached_pages += 1;
                        self.referenced_pages -= 1;
                        if node.children.is_empty() {
                            self.reclaimable.insert((node.last_use, n));
                        }
                    }
                }
                self.free_pages += private_pages;
                self.referenced_pages -= private_pages;
                rel.released_pages = rel.freed_pages + rel.newly_cached_pages;
                Ok(rel)
            }

            fn take_page(&mut self, reclaimed: &mut u64) {
                if self.free_pages == 0 {
                    self.reclaim_lru();
                    *reclaimed += 1;
                }
                self.free_pages -= 1;
            }

            fn reclaim_lru(&mut self) {
                let (_, victim) = self.reclaimable.pop_first().unwrap();
                let node = self.slots[victim].take().unwrap();
                match node.parent {
                    None => {
                        self.roots.remove(&node.label);
                    }
                    Some(p) => {
                        let parent = self.slots[p].as_mut().unwrap();
                        parent.children.remove(&node.label);
                        if parent.refcount == 0 && parent.children.is_empty() {
                            self.reclaimable.insert((parent.last_use, p));
                        }
                    }
                }
                self.free_slots.push(victim);
                self.evicted_labels.insert(node.label);
                self.cached_pages -= 1;
                self.free_pages += 1;
            }
        }
    }

    #[test]
    fn matches_the_oracle_pool_on_random_sequences() {
        // Seeded random admits, releases and lookups, run side by side
        // on the pool and the oracle. Label sets are tenant stems with
        // branches at two depths, so the tree has both chains and
        // branch points; pools are small enough that most admissions
        // reclaim, and chains are long enough that one admission
        // reclaims many pages in a row. Every result and every page
        // count must match after every operation, and a probe walk of
        // every label set the workload can draw must hit identically —
        // which pins the set of resident pages, so any change in the
        // victim order shows.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // (pool pages, tenants, max stem, max branch, max private)
        let configs = [
            (24u64, 4u64, 8u64, 4u64, 4u64),
            (64, 3, 40, 8, 6),
            (200, 2, 120, 30, 16),
        ];
        let (mut reclaimed, mut multi_reclaims, mut recomputed, mut rejected) = (0, 0, 0, 0);
        let mut max_branches = 0;
        for &(pages, tenants, max_stem, max_branch, max_private) in &configs {
            // Label set: stem of tenant `g`, then an optional branch
            // `v` (1..=3) forking at stem page `fork`.
            let set = |g: u64, stem: u64, v: u64, fork: u64, branch: u64| {
                let mut l = labels(g, stem.min(fork));
                l.extend((0..branch).map(|i| (g << 32) | (v << 24) | (fork << 16) | i));
                l
            };
            let mut probes = Vec::new();
            for g in 0..tenants {
                probes.push(labels(g, max_stem));
                for v in 1..=3 {
                    for fork in [max_stem / 2, max_stem] {
                        probes.push(set(g, max_stem, v, fork, max_branch));
                    }
                }
            }
            let mut p = PagePool::new(pages * 1024, 1024);
            let mut o = oracle::OraclePool::new(pages * 1024, 1024);
            let mut live: Vec<u64> = Vec::new();
            for id in 0..3000u64 {
                match draw(20) {
                    0..=9 => {
                        let g = draw(tenants);
                        let stem = 1 + draw(max_stem);
                        let l = match draw(3) {
                            0 => labels(g, stem),
                            v => {
                                let fork = [max_stem / 2, max_stem][draw(2) as usize];
                                set(g, stem, v, fork, draw(max_branch + 1))
                            }
                        };
                        let private = draw(max_private + 1);
                        let got = p.admit(RequestId(id), &l, private);
                        assert_eq!(got, o.admit(RequestId(id), &l, private), "admit {id}");
                        match got {
                            Ok(a) => {
                                reclaimed += a.reclaimed_pages;
                                multi_reclaims += u64::from(a.reclaimed_pages > 1);
                                recomputed += a.recompute_pages;
                                live.push(id);
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    10..=16 if !live.is_empty() => {
                        let id = live.swap_remove(draw(live.len() as u64) as usize);
                        assert_eq!(
                            p.release(RequestId(id)),
                            o.release(RequestId(id)),
                            "release {id}"
                        );
                    }
                    _ => {
                        let l = &probes[draw(probes.len() as u64) as usize];
                        assert_eq!(p.lookup(l), o.lookup(l), "lookup at {id}");
                    }
                }
                assert_eq!(
                    (p.free_pages(), p.cached_pages(), p.referenced_pages()),
                    (o.free_pages, o.cached_pages, o.referenced_pages),
                    "page counts after op {id}"
                );
                for l in &probes {
                    assert_eq!(p.lookup(l), o.lookup(l), "probe after op {id}");
                }
                let branches = p
                    .slots
                    .iter()
                    .flatten()
                    .filter(|n| matches!(n.children, Children::Many(_)))
                    .count();
                max_branches = max_branches.max(branches);
            }
        }
        assert!(reclaimed > 10_000, "reclaimed pages: {reclaimed}");
        assert!(
            multi_reclaims > 1000,
            "multi-page reclaims: {multi_reclaims}"
        );
        assert!(recomputed > 10_000, "recomputed pages: {recomputed}");
        assert!(rejected > 500, "rejected admissions: {rejected}");
        assert!(max_branches >= 4, "branch points: {max_branches}");
    }
}
