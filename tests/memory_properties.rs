//! Property-based tests for the DPA memory-management substrate: the
//! chunk and static allocators, DPA program expansion and the page pool.

use pimphony::pim_isa::dpa::{
    DpaInstruction, DpaProgram, DynLoop, DynModi, LoopBound, OperandField,
};
use pimphony::pim_isa::{ChannelMask, PimInstruction};
use pimphony::pim_mem::{
    ChunkAllocator, MemError, PagePool, PrefixHit, RequestId, StaticAllocator,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunk allocator never double-books a chunk, never leaks, and
    /// its utilization never exceeds 1.
    #[test]
    fn chunk_allocator_invariants(
        sizes in prop::collection::vec(1u64..5_000_000, 1..12),
        chunk_log in 16u32..21,
    ) {
        let chunk = 1u64 << chunk_log;
        let mut a = ChunkAllocator::new(256 * chunk, chunk);
        let mut seen = std::collections::HashSet::new();
        let mut admitted = vec![];
        for (i, &sz) in sizes.iter().enumerate() {
            let id = RequestId(i as u64);
            a.register(id).expect("fresh id");
            match a.grow(id, sz) {
                Ok(maps) => {
                    for (_, pc) in maps {
                        prop_assert!(seen.insert(pc), "chunk double-booked");
                    }
                    admitted.push(id);
                }
                Err(_) => { a.release(id).ok(); }
            }
            prop_assert!(a.capacity_utilization() <= 1.0 + 1e-12);
        }
        let free_before = a.free_chunks();
        for id in admitted {
            a.release(id).expect("admitted id");
        }
        prop_assert!(a.free_chunks() >= free_before);
        prop_assert_eq!(a.free_chunks(), a.total_chunks());
    }

    /// Static reservations are monotone: admitting more requests never
    /// raises capacity utilization above actual/reserved.
    #[test]
    fn static_allocator_utilization_bounded(
        usages in prop::collection::vec(0u64..1_000, 1..10),
    ) {
        let mut a = StaticAllocator::new(10_000, 1_000);
        for (i, &u) in usages.iter().enumerate() {
            if a.admit(RequestId(i as u64), u).is_err() {
                break;
            }
        }
        let util = a.capacity_utilization();
        prop_assert!((0.0..=1.0).contains(&util));
        let expect = a.used_bytes() as f64 / a.reserved_bytes() as f64;
        prop_assert!((util - expect).abs() < 1e-12);
    }

    /// A DPA program's expansion has one body per iteration of its
    /// resolved bound, `ceil(T_cur / divisor)`, checked on both sides of
    /// a loop boundary.
    #[test]
    fn dpa_expansion_follows_resolved_bound(groups in 1u64..400, divisor in 1u32..512) {
        let mac = PimInstruction::mac(ChannelMask::first(16), 1, 0, 0, 0, 0);
        let rd = PimInstruction::rd_out(ChannelMask::first(16), 1, 0, 0);
        let mut p = DpaProgram::new();
        p.push(DpaInstruction::Plain(mac));
        p.push(DpaInstruction::Loop(DynLoop {
            bound: LoopBound::TokensDiv { divisor },
            body: vec![DpaInstruction::Plain(mac), DpaInstruction::Plain(rd)],
            modifiers: vec![DynModi::new(0, OperandField::Row, 1)],
        }));
        let edge = groups * u64::from(divisor);
        let cases = [
            (edge - 1, groups - u64::from(divisor == 1)),
            (edge, groups),
            (edge + 1, groups + 1),
        ];
        for (t_cur, iterations) in cases {
            let len = p.expand(t_cur).len() as u64;
            prop_assert_eq!(len, 1 + 2 * iterations, "t_cur={}", t_cur);
        }
        prop_assert_eq!(p.stored_len(), 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Page conservation (`total = free + cached + referenced`) holds
    /// after every page-pool operation, including admissions that
    /// trigger LRU reclamation and admissions the pool rejects; after
    /// releasing every live sequence no page is leaked as referenced.
    #[test]
    fn page_pool_conserves_pages_under_pressure(
        ops in prop::collection::vec((0u64..4, 1u64..12, 0u64..6), 1..40),
        total_pages in 8u64..40,
    ) {
        let page = 1024u64;
        let mut p = PagePool::new(total_pages * page, page);
        let mut live: Vec<u64> = vec![];
        for (i, &(prefix, chain, private)) in ops.iter().enumerate() {
            match p.admit(RequestId(i as u64), prefix, chain, private) {
                Ok(a) => {
                    // hit + missing = chain, new = missing + private.
                    prop_assert_eq!(a.hit_pages + a.new_pages, chain + private);
                    live.push(i as u64);
                }
                // Over-capacity admissions must be atomic no-ops; make
                // room by retiring the most recent sequence and move on.
                Err(MemError::OutOfMemory { .. }) => {
                    if let Some(id) = live.pop() {
                        p.release(RequestId(id)).expect("live id releases");
                    }
                }
                Err(e) => prop_assert!(false, "unexpected admit error: {e}"),
            }
            prop_assert_eq!(
                p.free_pages() + p.cached_pages() + p.referenced_pages(),
                p.total_pages()
            );
        }
        for id in live {
            p.release(RequestId(id)).expect("live id releases");
        }
        prop_assert_eq!(p.referenced_pages(), 0);
        prop_assert_eq!(p.free_pages() + p.cached_pages(), p.total_pages());
    }

    /// Shared-page refcounts never underflow: releasing `k` sharers of
    /// one chain caches the chain exactly once (on the last release),
    /// and releasing an already-released sequence errors instead of
    /// double-decrementing.
    #[test]
    fn page_pool_refcounts_never_underflow(
        sharers in 1u64..6,
        chain in 1u64..10,
    ) {
        let page = 1024u64;
        let mut p = PagePool::new(128 * page, page);
        for s in 0..sharers {
            p.admit(RequestId(s), 0, chain, 1).expect("fits");
        }
        for s in 0..sharers {
            let r = p.release(RequestId(s)).expect("live sharer");
            prop_assert_eq!(r.freed_pages, 1, "private page frees every time");
            let expect_cached = if s + 1 == sharers { chain } else { 0 };
            prop_assert_eq!(r.newly_cached_pages, expect_cached);
        }
        prop_assert!(p.release(RequestId(0)).is_err(), "double release rejected");
        prop_assert_eq!(p.referenced_pages(), 0);
        prop_assert_eq!(p.cached_pages(), chain);
    }

    /// Prefix lookup agrees with a brute-force reference over the
    /// admitted chains: in an ample pool (no reclamation) a query's hit
    /// depth is the longest common prefix with any admitted chain of
    /// its prefix id, and a hit page is cached iff no *live* chain still
    /// covers it.
    #[test]
    fn prefix_lookup_matches_brute_force_lcp(
        chains in prop::collection::vec((0u64..4, 1u64..12), 1..10),
        released in prop::collection::vec(any::<bool>(), 10..11),
        query in (0u64..5, 0u64..16),
    ) {
        let page = 1024u64;
        let mut p = PagePool::new(4096 * page, page);
        for (i, &(g, n)) in chains.iter().enumerate() {
            p.admit(RequestId(i as u64), g, n, 0).expect("ample pool");
        }
        let mut resident: Vec<(u64, u64, bool)> = Vec::new();
        for (i, &(g, n)) in chains.iter().enumerate() {
            let live = !released[i];
            if !live {
                p.release(RequestId(i as u64)).expect("live id releases");
            }
            resident.push((g, n, live));
        }
        let (qg, qn) = query;
        let got = p.lookup(qg, qn);
        // Chains are contiguous from the root, so residency at depth d
        // means some admitted chain of the query's prefix is longer
        // than d; the page is still referenced iff a live one is.
        let mut hit = 0u64;
        for d in 0..qn {
            if resident.iter().any(|&(g, n, _)| g == qg && n > d) {
                hit = d + 1;
            } else {
                break;
            }
        }
        let cached = (0..hit)
            .filter(|&d| !resident.iter().any(|&(g, n, live)| live && g == qg && n > d))
            .count() as u64;
        prop_assert_eq!(got, PrefixHit { hit_pages: hit, hit_cached_pages: cached });
    }
}
