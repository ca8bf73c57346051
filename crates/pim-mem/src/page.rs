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
//! pages first, so a chain is consumed tail-first) only when a later
//! admission needs room. This replaces all-or-nothing per-request
//! eviction with page-granular reclamation.
//!
//! A tree node is a **run**, not a page (the compressed edges of
//! SGLang's RadixAttention): a maximal chain of pages with consecutive
//! labels (`first`, `first + 1`, …) that share one refcount and one
//! last use, stored as `(first, len)`. A tenant's shared prompt is one
//! run until admissions that end inside it split it; a run merges back
//! into its only child once they share a refcount and a last use again.
//! Walking, re-referencing, releasing and reclaiming then cost per run,
//! not per page. Page states, the LRU victim order and every returned
//! count are still exactly page-granular.
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

/// A node's child links, keyed by each child run's first label. Prompt
/// prefixes form chains, so most runs have at most one child: that link
/// is stored inline, and only a true branch point keeps a map. `Many`
/// always holds two or more entries.
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

    /// Points the existing link under `label` at another slot.
    fn relink(&mut self, label: u64, slot: usize) {
        match self {
            Children::None => debug_assert!(false, "no child to relink"),
            Children::One(l, s) => {
                debug_assert_eq!(*l, label, "relinking an unknown child");
                *s = slot;
            }
            Children::Many(map) => {
                let old = map.insert(label, slot);
                debug_assert!(old.is_some(), "relinking an unknown child");
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
/// Labels of one prompt chain are consecutive, so they share a handful
/// of words, the map stays ~64× smaller than one entry per label, and a
/// run of labels is added or removed a word at a time.
#[derive(Debug, Clone, Default)]
struct LabelSet(BTreeMap<u64, u64>);

impl LabelSet {
    /// The words labels `first..=last` touch, each with the mask of
    /// their bits in it.
    fn words(first: u64, last: u64) -> impl Iterator<Item = (u64, u64)> {
        (first >> 6..=last >> 6).map(move |w| {
            let lo = if w == first >> 6 { first & 63 } else { 0 };
            let hi = if w == last >> 6 { last & 63 } else { 63 };
            (w, (u64::MAX >> (63 - hi)) & (u64::MAX << lo))
        })
    }

    /// Adds labels `first..=last`.
    fn insert(&mut self, first: u64, last: u64) {
        for (w, mask) in Self::words(first, last) {
            *self.0.entry(w).or_insert(0) |= mask;
        }
    }

    /// Removes labels `first..=last`, returning how many were present.
    fn remove(&mut self, first: u64, last: u64) -> u64 {
        let mut present = 0;
        for (w, mask) in Self::words(first, last) {
            let Some(word) = self.0.get_mut(&w) else {
                continue;
            };
            present += u64::from((*word & mask).count_ones());
            *word &= !mask;
            if *word == 0 {
                self.0.remove(&w);
            }
        }
        present
    }

    /// Removes every label of `labels` in order, returning how many were
    /// present; each maximal run of consecutive labels goes by words.
    fn remove_all(&mut self, labels: &[u64]) -> u64 {
        let mut present = 0;
        let mut rest = labels;
        while let Some(&first) = rest.first() {
            let len = run_len(rest);
            present += self.remove(first, first + (len - 1));
            rest = &rest[len as usize..];
        }
        present
    }
}

/// Length of the run of consecutive labels `labels` starts with (≥ 1 on
/// a nonempty slice).
fn run_len(labels: &[u64]) -> u64 {
    let first = labels[0];
    labels
        .iter()
        .zip(0u64..)
        .take_while(|&(&l, i)| first.checked_add(i) == Some(l))
        .count() as u64
}

/// One node of the prefix tree: a run of `len` shared-prefix pages with
/// labels `first..first + len` that share one refcount and one last use.
#[derive(Debug, Clone)]
struct Node {
    /// Label of the run's first page; page `i` of the run carries
    /// `first + i` (the caller's content label for that page's tokens).
    first: u64,
    /// Pages in the run (≥ 1).
    len: u64,
    /// Parent run's slot (`None` for runs hanging off the conceptual
    /// root).
    parent: Option<usize>,
    /// Child runs keyed by their first label.
    children: Children,
    /// Live sequences whose prompt maps this run's pages.
    refcount: u64,
    /// Logical timestamp of the last admission that touched this run
    /// (monotonic counter, not wall clock — keeps runs deterministic).
    last_use: u64,
}

impl Node {
    /// Label of the run's last page.
    fn last(&self) -> u64 {
        self.first + (self.len - 1)
    }

    /// How many leading labels of `labels` match this run's pages: a
    /// sequential scan against `first`, `first + 1`, …, eight labels
    /// per step so the compare vectorizes.
    fn matched(&self, labels: &[u64]) -> u64 {
        let span = &labels[..labels.len().min(self.len as usize)];
        let mut i = 0;
        for chunk in span.chunks_exact(8) {
            let base = self.first.wrapping_add(i as u64);
            let mut ok = true;
            for (j, &l) in (0u64..).zip(chunk) {
                ok &= l == base.wrapping_add(j);
            }
            if !ok {
                break;
            }
            i += 8;
        }
        while i < span.len() && span[i].wrapping_sub(self.first) == i as u64 {
            i += 1;
        }
        i as u64
    }
}

/// A live sequence's page accounting.
#[derive(Debug, Clone)]
struct Seq {
    /// Deepest run on the sequence's path (`None` without a shared
    /// prefix); the path ends at that run's last page, since a run's
    /// pages share one refcount. The rest of the path is its parent
    /// chain, which stays live while the sequence references it.
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
    /// Slab of tree runs; freed slots are reused via `free_slots`. A
    /// slot names the deep end of a run: a split gives the upper part a
    /// new slot and a merge frees the upper one, so sequence tails,
    /// reclaimable keys and parent links never move.
    slots: Vec<Option<Node>>,
    free_slots: Vec<usize>,
    /// First runs of each prefix (children of the conceptual root).
    roots: Children,
    /// Live sequences by request id.
    seqs: BTreeMap<u64, Seq>,
    /// Labels of reclaimed prefix pages, for recompute attribution.
    evicted_labels: LabelSet,
    /// The reclaimable runs (refcount 0 and childless) keyed
    /// `(last_use, slot)`: the first entry's last page is the LRU
    /// victim. One admission stamps a single root-to-tail path, so no
    /// two reclaimable runs share a last use and the slot never breaks
    /// a tie; the victim order is the page-granular one.
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
            roots: Children::None,
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

    /// [`Self::lookup`], plus where the resident prefix ends: the
    /// deepest run it reaches and how many of that run's pages it
    /// covers. Each run costs one child link and a label scan.
    fn walk(&self, labels: &[u64]) -> (PrefixHit, Option<(usize, u64)>) {
        let mut hit = PrefixHit::default();
        let mut end = None;
        let mut children = &self.roots;
        let mut rest = labels;
        while let Some(n) = rest.first().and_then(|&label| children.get(label)) {
            let node = self.node(n);
            let k = node.matched(rest);
            hit.hit_pages += k;
            if node.refcount == 0 {
                hit.hit_cached_pages += k;
            }
            end = Some((n, k));
            if k < node.len {
                break;
            }
            rest = &rest[k as usize..];
            children = &node.children;
        }
        (hit, end)
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
        let (hit, end) = self.walk(labels);
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
        // A hit that ends inside a run splits it there: the unmatched
        // pages keep their refcount and last use.
        let mut tail = end.map(|(n, k)| {
            if k < self.node(n).len {
                self.split(n, k)
            } else {
                n
            }
        });
        if let Some(t) = tail {
            self.reference_path(t);
        }
        // The missed prefix pages hang below the hit as new runs, one
        // per stretch of consecutive labels.
        let missed = &labels[hit.hit_pages as usize..];
        let mut rest = missed;
        while let Some(&first) = rest.first() {
            let len = run_len(rest);
            tail = Some(self.attach(tail, first, len));
            rest = &rest[len as usize..];
        }
        self.referenced_pages += missing;
        let (reclaimed, recompute) = self.take_prefix_pages(missed);
        let adm = Admission {
            hit_pages: hit.hit_pages,
            new_pages,
            reclaimed_pages: reclaimed + self.take_pages(private_pages),
            recompute_pages: recompute,
        };
        self.referenced_pages += private_pages;
        self.seqs.insert(
            id.0,
            Seq {
                tail,
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
            let node = self.slots[n].as_mut().expect("path run is live");
            debug_assert!(node.refcount > 0, "page refcount underflow");
            node.refcount -= 1;
            if node.refcount == 0 {
                rel.newly_cached_pages += node.len;
                if node.children.is_empty() {
                    self.reclaimable.insert((node.last_use, n));
                }
            }
            up = node.parent;
        }
        // Every run on the path dropped by one, so only the tail can
        // newly match its only child.
        if let Some(t) = seq.tail {
            self.merge_down(t);
        }
        self.cached_pages += rel.newly_cached_pages;
        self.referenced_pages -= rel.newly_cached_pages;
        self.free_pages += seq.private_pages;
        self.referenced_pages -= seq.private_pages;
        rel.released_pages = rel.freed_pages + rel.newly_cached_pages;
        self.debug_check();
        Ok(rel)
    }

    /// Re-references the path ending at run `tail` for the admission at
    /// `self.tick`: refcount +1 and last use = tick on every run up to
    /// the root, once per run. Runs on the path now share the last use,
    /// so each one merges into its child where the refcounts agree.
    fn reference_path(&mut self, tail: usize) {
        let mut up = Some(tail);
        while let Some(n) = up {
            let node = self.slots[n].as_mut().expect("path run is live");
            if node.refcount == 0 {
                self.cached_pages -= node.len;
                self.referenced_pages += node.len;
                if node.children.is_empty() {
                    self.reclaimable.remove(&(node.last_use, n));
                }
            }
            node.refcount += 1;
            node.last_use = self.tick;
            up = node.parent;
            self.merge_down(n);
        }
    }

    /// Links a new run of `len` missed pages from label `first` below
    /// `parent`, referenced once by the admission at `self.tick`, and
    /// returns its slot (the parent may merge into it).
    fn attach(&mut self, parent: Option<usize>, first: u64, len: u64) -> usize {
        let n = self.alloc(Node {
            first,
            len,
            parent,
            children: Children::None,
            refcount: 1,
            last_use: self.tick,
        });
        self.children_mut(parent).insert(first, n);
        if let Some(p) = parent {
            self.merge_down(p);
        }
        n
    }

    /// Splits run `n` after its first `k` pages. The upper `k` pages
    /// move to a new slot (returned); `n` keeps the rest, so every
    /// handle to `n` stays valid.
    fn split(&mut self, n: usize, k: u64) -> usize {
        let node = self.node(n);
        let (first, parent) = (node.first, node.parent);
        let upper = Node {
            first,
            len: k,
            parent,
            children: Children::One(first + k, n),
            refcount: node.refcount,
            last_use: node.last_use,
        };
        let u = self.alloc(upper);
        self.children_mut(parent).relink(first, u);
        let node = self.node_mut(n);
        node.first += k;
        node.len -= k;
        node.parent = Some(u);
        u
    }

    /// Whether run `c`, a child of run `p`, continues it: consecutive
    /// labels, the same refcount and the same last use.
    fn continues(&self, p: usize, c: usize) -> bool {
        let (parent, child) = (self.node(p), self.node(c));
        parent.refcount == child.refcount
            && parent.last_use == child.last_use
            && parent.last().checked_add(1) == Some(child.first)
    }

    /// Merges run `p` into its only child when the child continues it,
    /// keeping the child's slot. No live sequence can end at such a
    /// parent: its refcount would then exceed the child's.
    fn merge_down(&mut self, p: usize) {
        let Children::One(_, c) = self.node(p).children else {
            return;
        };
        if !self.continues(p, c) {
            return;
        }
        let parent = self.slots[p].take().expect("merged run is live");
        self.free_slots.push(p);
        let child = self.node_mut(c);
        child.first = parent.first;
        child.len += parent.len;
        child.parent = parent.parent;
        self.children_mut(parent.parent).relink(parent.first, c);
    }

    /// Takes one page per missed prefix label and checks each label
    /// against the reclaimed set, with the outcome of doing it page by
    /// page: page `i` is taken — reclaiming one LRU page once the free
    /// list is empty — before label `i` is checked, so a label this
    /// admission reclaims counts as recomputed when a later page
    /// carries it. Returns `(reclaimed, recomputed)` pages.
    fn take_prefix_pages(&mut self, missed: &[u64]) -> (u64, u64) {
        let from_free = self.free_pages.min(missed.len() as u64);
        self.free_pages -= from_free;
        let (direct, mut rest) = missed.split_at(from_free as usize);
        let mut recompute = self.evicted_labels.remove_all(direct);
        let mut reclaimed = 0;
        while !rest.is_empty() {
            // The free list is empty, so each page reclaims one: a batch
            // at a time from the victim run's tail, labels `top` down.
            let (top, k) = self.reclaim_tail(rest.len() as u64);
            let (batch, after) = rest.split_at(k as usize);
            let low = top - (k - 1);
            if batch.iter().all(|&l| l < low || l > top) {
                // No page of the batch carries a victim's label, so the
                // victims' labels can all go in first.
                self.evicted_labels.insert(low, top);
                recompute += self.evicted_labels.remove_all(batch);
            } else {
                for (&l, victim) in batch.iter().zip((low..=top).rev()) {
                    self.evicted_labels.insert(victim, victim);
                    recompute += self.evicted_labels.remove(l, l);
                }
            }
            reclaimed += k;
            rest = after;
        }
        (reclaimed, recompute)
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
    /// list, in exactly the order `n` page-by-page LRU pops would take
    /// them, a run's tail at a time.
    fn reclaim_lru(&mut self, mut n: u64) {
        self.free_pages += n;
        while n > 0 {
            let (top, k) = self.reclaim_tail(n);
            self.evicted_labels.insert(top - (k - 1), top);
            n -= k;
        }
    }

    /// Reclaims up to `max` pages from the tail of the LRU victim run —
    /// the least `(last_use, slot)` zero-refcount childless run — and
    /// returns the label of the first page taken (the run's last) and
    /// the count. The pages left keep the run's key, which stays the
    /// least: no other reclaimable run shares its last use. A used-up
    /// run leaves the tree; its parent may then become a victim or merge
    /// into its remaining child. The caller records the victims' labels.
    fn reclaim_tail(&mut self, max: u64) -> (u64, u64) {
        let &(_, victim) = self
            .reclaimable
            .first()
            .expect("cached page exists (admit feasibility was checked)");
        let node = self.node_mut(victim);
        let top = node.last();
        let k = max.min(node.len);
        node.len -= k;
        let used_up = node.len == 0;
        self.cached_pages -= k;
        if used_up {
            self.reclaimable.pop_first();
            let node = self.slots[victim].take().expect("victim is live");
            self.free_slots.push(victim);
            self.children_mut(node.parent).remove(node.first);
            if let Some(p) = node.parent {
                let parent = self.node(p);
                if parent.children.is_empty() {
                    // A cold parent whose last child went becomes a leaf.
                    if parent.refcount == 0 {
                        self.reclaimable.insert((parent.last_use, p));
                    }
                } else {
                    self.merge_down(p);
                }
            }
        }
        (top, k)
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free_slots.pop() {
            Some(s) => {
                self.slots[s] = Some(node);
                s
            }
            None => {
                self.slots.push(Some(node));
                self.slots.len() - 1
            }
        }
    }

    fn node(&self, i: usize) -> &Node {
        self.slots[i].as_ref().expect("node index is live")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.slots[i].as_mut().expect("node index is live")
    }

    /// The child links of run `parent`, or of the conceptual root.
    fn children_mut(&mut self, parent: Option<usize>) -> &mut Children {
        match parent {
            None => &mut self.roots,
            Some(p) => &mut self.node_mut(p).children,
        }
    }

    /// Conservation invariants (debug builds only): pages sum to the
    /// total, and run lengths to the cached and the referenced prefix
    /// pages; links agree both ways; runs are maximal (no run continues
    /// into its only child); the reclaimable index equals the set of
    /// zero-refcount childless runs, with distinct last uses.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.free_pages + self.cached_pages + self.referenced_pages,
            self.total_pages,
            "page conservation violated"
        );
        if cfg!(debug_assertions) {
            let (mut cached, mut shared) = (0, 0);
            let mut leaves = BTreeSet::new();
            for (i, n) in self.slots.iter().enumerate() {
                let Some(n) = n else { continue };
                assert!(n.len > 0 && n.first.checked_add(n.len - 1).is_some());
                let siblings = match n.parent {
                    None => &self.roots,
                    Some(p) => &self.node(p).children,
                };
                assert_eq!(siblings.get(n.first), Some(i), "parent link out of sync");
                if let Children::One(_, c) = n.children {
                    assert!(!self.continues(i, c), "run {i} continues into its child");
                }
                if n.refcount == 0 {
                    cached += n.len;
                    if n.children.is_empty() {
                        leaves.insert((n.last_use, i));
                    }
                } else {
                    shared += n.len;
                }
            }
            let private: u64 = self.seqs.values().map(|s| s.private_pages).sum();
            assert_eq!(cached, self.cached_pages, "cached run lengths");
            assert_eq!(
                shared + private,
                self.referenced_pages,
                "referenced run lengths"
            );
            assert_eq!(self.reclaimable, leaves, "reclaimable index out of sync");
            let uses: BTreeSet<u64> = leaves.iter().map(|&(u, _)| u).collect();
            assert_eq!(
                uses.len(),
                leaves.len(),
                "reclaimable runs share a last use"
            );
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

    /// The LRU victim by a linear scan over every run: the least
    /// `(last_use, slot)` among zero-refcount childless runs, with its
    /// length.
    fn victim_by_scan(p: &PagePool) -> Option<(usize, u64)> {
        p.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (i, n)))
            .filter(|(_, n)| n.refcount == 0 && n.children.is_empty())
            .min_by_key(|&(i, n)| (n.last_use, i))
            .map(|(i, n)| (i, n.len))
    }

    /// Pages stored in the tree's runs.
    fn tree_pages(p: &PagePool) -> u64 {
        p.slots.iter().flatten().map(|n| n.len).sum()
    }

    /// Runs (nodes) in the tree.
    fn runs(p: &PagePool) -> usize {
        p.slots.iter().flatten().count()
    }

    #[test]
    fn indexed_reclaim_picks_the_linear_scan_victim() {
        // Seeded random admits (branching prefixes, some infeasible),
        // releases and explicit reclaims on a small pool. Each explicit
        // reclaim must take the last page of exactly the run the linear
        // scan names;
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
                    let Some((victim, len)) = victim_by_scan(&p) else {
                        assert_eq!(p.cached_pages(), 0);
                        continue;
                    };
                    let label = p.node(victim).last();
                    let pages_before = tree_pages(&p);
                    p.reclaim_lru(1);
                    // The scan's run lost its last page (and left the
                    // tree if that was its only one).
                    let left = p.slots[victim].as_ref().map_or(0, |n| n.len);
                    assert_eq!(left, len - 1, "victim differs from the scan");
                    assert_eq!(tree_pages(&p), pages_before - 1);
                    let recorded = p.evicted_labels.remove(label, label);
                    assert_eq!(recorded, 1, "victim label not recorded");
                    p.evicted_labels.insert(label, label);
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
            assert_eq!(set.remove(l, l), 0);
            set.insert(l, l);
        }
        assert_eq!(set.0.len(), 4, "one word per 64-label block");
        assert_eq!(set.remove(2, 2), 0, "an absent label in a present word");
        for &l in labels.iter().rev() {
            assert_eq!(set.remove(l, l), 1, "{l}");
            assert_eq!(set.remove(l, l), 0, "{l} removed twice");
        }
        assert!(set.0.is_empty(), "emptied words are dropped");
        // Ranges go a word at a time, across word boundaries.
        set.insert(60, 200);
        assert_eq!(set.0.len(), 4);
        assert_eq!(set.remove(0, 63), 4);
        assert_eq!(set.remove_all(&[64, 66, 65, 67, 300, 190, 191]), 6);
        assert_eq!(set.remove(0, 255), 200 - 68 + 1 - 2);
        assert!(set.0.is_empty());
        set.insert(u64::MAX - 70, u64::MAX);
        assert_eq!(set.remove_all(&[u64::MAX - 1, u64::MAX, 0]), 2);
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

    /// The pool as it was before run nodes, inline child links and
    /// batched reclaim: one node per page with `BTreeMap` children, a
    /// stored path per sequence, one `take_page` per allocated page and
    /// one `pop_first` per reclaimed page. Kept as the page-granular
    /// differential oracle for [`PagePool`].
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
        // reclaims many pages in a row. The last config stores long
        // chains as runs: stems of up to 400 pages (most over 300),
        // hits that end inside a run, reclaims that take part of a
        // run's tail, releases that merge runs back, and label sets
        // whose first half is not consecutive (one page per run). Every
        // result and every page count must match after every operation,
        // and a probe walk of every label set the workload can draw
        // must hit identically — which pins the set of resident pages,
        // so any change in the victim order shows.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // (pool pages, tenants, min stem, max stem, max branch, max
        // private, label-set kinds: 3 without and 4 with sparse sets)
        let configs = [
            (24u64, 4u64, 1u64, 8u64, 4u64, 4u64, 3u64),
            (64, 3, 1, 40, 8, 6, 3),
            (200, 2, 1, 120, 30, 16, 3),
            (1000, 3, 150, 400, 40, 24, 4),
        ];
        let (mut reclaimed, mut multi_reclaims, mut recomputed, mut rejected) = (0, 0, 0, 0);
        let (mut max_branches, mut mid_run_hits, mut partial_tails, mut merges) = (0, 0, 0, 0);
        let (mut long_stems, mut sparse_runs) = (0, 0);
        for &(pages, tenants, min_stem, max_stem, max_branch, max_private, kinds) in &configs {
            // Label set: stem of tenant `g`, then an optional branch
            // `v` (1..=3) forking at stem page `fork`.
            let set = |g: u64, stem: u64, v: u64, fork: u64, branch: u64| {
                let mut l = labels(g, stem.min(fork));
                l.extend((0..branch).map(|i| (g << 32) | (v << 24) | (fork << 16) | i));
                l
            };
            // A sparse set: `n / 2` labels two apart, then consecutive.
            let sparse = |g: u64, n: u64| -> Vec<u64> {
                let high = (g << 32) | (1 << 31);
                (0..n / 2)
                    .map(|i| high | (2 * i))
                    .chain((n / 2..n).map(|i| high | (1 << 30) | i))
                    .collect()
            };
            let mut probes = Vec::new();
            for g in 0..tenants {
                probes.push(labels(g, max_stem));
                for v in 1..=3 {
                    for fork in [max_stem / 2, max_stem] {
                        probes.push(set(g, max_stem, v, fork, max_branch));
                    }
                }
                if kinds == 4 {
                    probes.push(sparse(g, max_stem));
                }
            }
            let mut p = PagePool::new(pages * 1024, 1024);
            let mut o = oracle::OraclePool::new(pages * 1024, 1024);
            let mut live: Vec<u64> = Vec::new();
            for id in 0..3000u64 {
                match draw(20) {
                    0..=9 => {
                        let g = draw(tenants);
                        let stem = min_stem + draw(max_stem - min_stem + 1);
                        let l = match draw(kinds) {
                            0 => labels(g, stem),
                            3 => sparse(g, stem),
                            v => {
                                let fork = [max_stem / 2, max_stem][draw(2) as usize];
                                set(g, stem, v, fork, draw(max_branch + 1))
                            }
                        };
                        long_stems += u64::from(stem >= 300);
                        let private = draw(max_private + 1);
                        if let (_, Some((n, k))) = p.walk(&l) {
                            mid_run_hits += u64::from(k < p.node(n).len);
                        }
                        let lru_run = p.reclaimable.first().map(|&(_, s)| p.node(s).len);
                        let got = p.admit(RequestId(id), &l, private);
                        assert_eq!(got, o.admit(RequestId(id), &l, private), "admit {id}");
                        match got {
                            Ok(a) => {
                                reclaimed += a.reclaimed_pages;
                                multi_reclaims += u64::from(a.reclaimed_pages > 1);
                                recomputed += a.recompute_pages;
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
                let mut branches = 0;
                for n in p.slots.iter().flatten() {
                    branches += usize::from(matches!(n.children, Children::Many(_)));
                    // Labels two apart never share a run.
                    if n.first & (3 << 30) == 1 << 31 {
                        assert_eq!(n.len, 1, "a sparse label's run");
                        sparse_runs += 1;
                    }
                }
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
        assert!(long_stems > 300, "stems of 300+ pages: {long_stems}");
        assert!(
            mid_run_hits > 1000,
            "hits ending inside a run: {mid_run_hits}"
        );
        assert!(
            partial_tails > 500,
            "partial tail reclaims: {partial_tails}"
        );
        assert!(merges > 200, "merges on release: {merges}");
        assert!(
            sparse_runs > 10_000,
            "sparse single-page runs: {sparse_runs}"
        );
    }

    #[test]
    fn a_shared_chain_is_stored_as_one_run() {
        // No memory pressure: overlapping admissions and releases of
        // tenant 0's 384-page chain share one refcount and one last
        // use, so the chain stays a single run throughout.
        let chain = labels(0, 384);
        let mut p = PagePool::new(8192 * 1024, 1024);
        let mut state = 0x6A09_E667_F3BC_C909u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut live: Vec<u64> = Vec::new();
        for id in 0..2000u64 {
            if live.is_empty() || (live.len() < 8 && draw(2) == 0) {
                p.admit(RequestId(id), &chain, draw(32)).unwrap();
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
            p.admit(RequestId(id), &chain[..n], 0).unwrap();
        }
        assert_eq!(runs(&p), 3);
        for id in 5000..5003 {
            p.release(RequestId(id)).unwrap();
        }
        assert_eq!(runs(&p), 1);
        assert_eq!(p.cached_pages(), 384);
        assert_eq!(p.lookup(&chain).hit_cached_pages, 384);
    }

    #[test]
    fn run_count_stays_bounded_under_reclaim_pressure() {
        // The page-pool bench's traffic: 8 tenants' 384-page chains,
        // shared prefixes of 128..=384 pages plus private pages, two
        // sequences live, in a 1,536-page pool — so admissions split
        // runs where a hit ends and reclaim cold chains tail-first.
        // Runs only break where a live sequence ends or an admission's
        // stamp stops, so the tree never holds more than 10 runs (7 at
        // most here) for up to 1,536 tree pages.
        let chains: Vec<Vec<u64>> = (0..8).map(|t| labels(t, 384)).collect();
        let mut p = PagePool::new(1536 * 1024, 1024);
        let (mut max_runs, mut reclaimed) = (0, 0);
        for id in 0..4096u64 {
            let chain = &chains[((id * 7 + id / 5) % 8) as usize];
            let shared = 128 + (id * 37 % 257) as usize;
            let a = p
                .admit(RequestId(id), &chain[..shared], 16 + id % 64)
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
