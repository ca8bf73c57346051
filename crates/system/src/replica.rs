//! Standalone per-replica serving state machine.
//!
//! `ReplicaSim` is the per-replica core extracted from the original
//! single-node serving loops: it owns one replica's pending queue, running
//! batch, KV memory and virtual clock, and advances them over
//! admission / chunked-decode / completion events. The cluster layer
//! ([`crate::cluster`]) drives many `ReplicaSim`s — routing each arrival
//! to one of them, advancing them up to the routing frontier, and
//! draining them to completion (on scoped threads when asked).
//!
//! # Admission order and preemption
//!
//! The continuous policy admits in **priority order**
//! ([`workload::Request::priority`], FCFS within a class): at every
//! admission instant the highest-priority arrived pending request is
//! considered first, and the sweep stops at the first candidate the
//! memory policy cannot place (head-of-line blocking *within* the
//! priority order is preserved — it is part of what is being measured).
//! When a [`crate::policy::PreemptionPolicy`] other than `None` is
//! active, a blocked candidate may instead **evict** strictly-lower-
//! priority running requests: victims (lowest priority first, most
//! recently admitted first) release their KV reservation and re-enter
//! the pending queue in arrival order, to be re-admitted later —
//! re-prefilling their prompt from scratch (`EvictRestart` additionally
//! regenerates their tokens; `EvictPause` re-prefills prompt *plus*
//! kept tokens as an extended prompt). Because victims must have
//! *strictly* lower priority, a trace with uniform priorities can never
//! evict, and every preemption policy is then bit-exact with `None`.
//!
//! # Determinism and bit-exactness
//!
//! Two properties the cluster depends on are enforced here:
//!
//! * **Frontier-safe chunking.** A decode chunk may be cut short by the
//!   next *admissible* pending arrival, and arrivals only become visible
//!   once the router dispatches them. `ReplicaSim::advance_to`
//!   therefore never executes a chunk that would end past the supplied
//!   limit (the cluster's routing frontier): any arrival that could cut
//!   a chunk ending at or before the frontier has already been routed,
//!   so every executed chunk is identical to the one a sequential run
//!   with full queue knowledge would execute.
//! * **Replayable accounting.** Floating-point accumulation is not
//!   associative, so replicas do not sum into a shared accumulator
//!   directly (the merge order would then depend on thread scheduling).
//!   Instead each replica records the operands itself, and the cluster
//!   replays them into one accumulator in replica-index order:
//!   - one `DecodeRecord` per executed decode chunk and one 16-byte
//!     `PrefillRecord` per executed prefill chunk, each stream in
//!     execution order. A prefill record references its interned
//!     `PrefillPrice` (a chunk's price depends only on where it starts
//!     and how long it is) and carries the count of decode records
//!     emitted before it, so the merge can replay the accumulators
//!     both kinds feed in the one execution order;
//!   - short typed streams for the other float accumulators: retired
//!     KV lengths, wave-admit batch sizes and handoff wire seconds;
//!   - plain integer counters for everything else (tokens, steps,
//!     admissions, evictions and their wasted work, prefix hits, page
//!     reclaims, sheds, handoff bytes), whose sums do not depend on
//!     order.
//!
//!   Every float accumulator receives the same operands in the same
//!   pool → replica → emission order as the original single-threaded
//!   loops — and the result is bit-exact. Most are fed by one stream;
//!   the utilization weight and energy sums, fed by both step streams,
//!   are replayed in the interleaving `PrefillRecord::after_decodes`
//!   records. Only the interleaving *between* accumulators is not
//!   kept, and no accumulator can observe it. Evictions happen inside
//!   one replica's admission sweep at a fixed virtual-time instant, so
//!   thread count still cannot change results.

use crate::energy::EnergyBreakdown;
use crate::metrics::{ReplicaBreakdown, RequestTiming};
use crate::policy::{
    self, PoolRole, PreemptionPolicy, PrefillConfig, SchedulingPolicy, SheddingPolicy, VictimOrder,
};
use crate::serve::{Evaluator, KvTransferModel, TtftPredictor};
use crate::stage::{IterationBreakdown, StageModel};
use pim_mem::{PagePool, PrefixHit, RequestId};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use workload::Request;

/// The priced-but-not-yet-executed step of a continuous replica, cached
/// across routing-frontier visits. Load-aware routers advance every
/// replica to each arrival's frontier; a step ending past the frontier
/// is deferred and revisited, so without this cache the pending step's
/// iteration (and prefill chunk) would be re-priced at every frontier
/// visit — measured at 2–3× the total simulation cost under
/// `LeastLoaded`/JSQ routing. The cache is keyed by
/// [`ReplicaSim::batch_version`], which bumps on any admission, executed
/// step, eviction, or completion, so a hit is always priced for the
/// current batch membership and token counts.
#[derive(Debug, Clone, Copy)]
enum PlannedStep {
    /// A pure decode chunk: the iteration priced at the midpoint of the
    /// stride-bounded tentative chunk (`c0` steps).
    Decode { it: IterationBreakdown, c0: u64 },
    /// A mixed prefill step: one prompt chunk plus (if anyone is
    /// decoding) one decode iteration.
    Mixed {
        /// The prompt chunk's interned price ([`PrefillPrices`]).
        price: u32,
        pchunk: u64,
        it: Option<IterationBreakdown>,
        batch_len: usize,
    },
}

/// The float operands one executed decode chunk adds to the run-wide
/// accumulators, recorded in execution order (see the module docs on
/// replayable accounting). It holds the products the merge adds — not
/// the [`IterationBreakdown`] they came from — so a record is 72 bytes
/// where the breakdown alone is 104.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeRecord {
    /// Attention seconds of the chunk (`chunk ×` the iteration's).
    pub(crate) attn: f64,
    /// FC seconds of the chunk (`chunk ×` the iteration's).
    pub(crate) fc: f64,
    /// `attn_utilization × seconds`: the chunk's weight in the
    /// busy-time utilization average.
    pub(crate) util_weight: f64,
    /// The chunk's energy addends ([`crate::energy::EnergyModel::terms`]).
    pub(crate) energy: EnergyBreakdown,
}

/// One executed prefill chunk, in execution order: a reference to its
/// interned [`PrefillPrice`] plus the one operand that is its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefillRecord {
    /// The chunk's price, an index into [`Ledger::prefill_prices`].
    pub(crate) price: u32,
    /// How many decode records the replica had emitted before this
    /// chunk: its place in the one execution order that the
    /// accumulators both kinds feed (utilization weight, energy) must
    /// be replayed in.
    pub(crate) after_decodes: u32,
    /// The share of the chunk's seconds spent *re*-processing tokens a
    /// previous eviction discarded (0 on first-pass prefill).
    pub(crate) restart: f64,
}

/// The float operands every prefill chunk of one `(done, chunk)` adds
/// to the run-wide accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PrefillPrice {
    /// Wall-clock seconds of the chunk.
    pub(crate) secs: f64,
    /// `attn_utilization × secs`.
    pub(crate) util_weight: f64,
    /// The chunk's energy addends ([`crate::energy::EnergyModel::terms`]).
    pub(crate) energy: EnergyBreakdown,
}

/// A replica's prefill prices, interned by `(done, chunk)`: the exact
/// prefill-price memo, and the table [`PrefillRecord`]s point into.
///
/// A chunk's price depends on those two numbers alone, and the requests
/// of one tenant prefill the same offsets again and again — at seed
/// 2026 the memory-pressure perfbench workload executes ~57K prefill
/// chunks per pass and prices ~3.9K of them. Each distinct chunk is
/// priced, and its energy terms computed, exactly once per replica.
#[derive(Debug, Default)]
pub(crate) struct PrefillPrices {
    // simlint: allow(nondet-iter): get/insert only, never iterated, so map order cannot reach a simulated quantity
    index: std::collections::HashMap<(u64, u64), u32, BuildHasherDefault<KeyHasher>>,
    prices: Vec<PrefillPrice>,
}

/// A multiply-rotate hasher for [`PrefillPrices`]' integer keys, looked
/// up once per executed prefill chunk. std's SipHash guards against
/// adversarial keys, which a simulated prompt offset is not, and costs
/// more per lookup. Seedless, so it is deterministic too.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits, which a product
        // fills only from its factors' low bits: rotate the well-mixed
        // high bits down.
        self.0.rotate_left(26)
    }
}

impl PrefillPrices {
    /// The index of the price of `chunk` prompt tokens after `done`,
    /// pricing it (`stage.prefill_chunk` plus its energy terms) the
    /// first time it is asked for.
    fn intern(&mut self, eval: &Evaluator, stage: &StageModel, done: u64, chunk: u64) -> u32 {
        let prices = &mut self.prices;
        *self.index.entry((done, chunk)).or_insert_with(|| {
            let pre = stage.prefill_chunk(done, chunk);
            let idx = u32::try_from(prices.len()).expect("fewer than 2^32 distinct prefill prices");
            prices.push(PrefillPrice {
                secs: pre.seconds,
                util_weight: pre.attn_utilization * pre.seconds,
                energy: energy_terms(eval, &pre, 1.0),
            });
            idx
        })
    }

    /// Distinct prices interned so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.prices.len()
    }

    /// Each interned price's `(done, chunk)`, by index.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<(u64, u64)> {
        let mut keys = vec![(0, 0); self.prices.len()];
        for (&key, &idx) in &self.index {
            keys[idx as usize] = key;
        }
        keys
    }
}

impl std::ops::Index<u32> for PrefillPrices {
    type Output = PrefillPrice;

    fn index(&self, idx: u32) -> &PrefillPrice {
        &self.prices[idx as usize]
    }
}

#[cfg(test)]
thread_local! {
    /// `ReplicaSim::sweep_completions` calls made on this thread (test
    /// builds only).
    static SWEEPS: Cell<u64> = const { Cell::new(0) };
}

/// A replica's accounting, read by the cluster merge (see the module
/// docs on replayable accounting): the float streams in emission order
/// and the integer counters.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// One record per executed decode chunk.
    pub(crate) decodes: Vec<DecodeRecord>,
    /// One record per executed prefill chunk.
    pub(crate) prefills: Vec<PrefillRecord>,
    /// The prices `prefills` point into.
    pub(crate) prefill_prices: PrefillPrices,
    /// Test-only emission log: whether each record, in execution
    /// order, went to `prefills` (`true`) or `decodes` (`false`). The
    /// replay oracle checks `PrefillRecord::after_decodes` against it.
    #[cfg(test)]
    pub(crate) emitted: Vec<bool>,
    /// The KV length of each finished request, for capacity
    /// utilization: context + decode length, or the prompt alone on a
    /// `Prefill`-role replica (its resident KV at handoff).
    pub(crate) retired: Vec<u64>,
    /// Each admitted wave's size (wave policy only; the continuous mean
    /// batch is step-weighted).
    pub(crate) wave_admits: Vec<f64>,
    /// Modeled wire seconds of each KV handoff, in retirement order.
    pub(crate) handoff_secs: Vec<f64>,
    /// Decode tokens generated.
    pub(crate) tokens: u64,
    /// Decode steps executed.
    pub(crate) decode_steps: u64,
    /// Prompt tokens prefilled, re-prefill included.
    pub(crate) prefill_tokens: u64,
    /// Admission events: waves, or admission sweeps that admitted at
    /// least one request under the continuous policy.
    pub(crate) waves: u32,
    /// Requests evicted under memory pressure.
    pub(crate) evictions: u64,
    /// Already-computed tokens whose KV an eviction dropped and that
    /// must be prefilled again (prompt tokens processed so far; under
    /// `EvictPause` also the generated tokens that return as an
    /// extended prompt).
    pub(crate) reprefill_tokens: u64,
    /// Generated tokens an `EvictRestart` eviction discarded, to be
    /// decoded again from scratch.
    pub(crate) redecode_tokens: u64,
    /// Prompt tokens whose re-prefill an eviction waived (their shared
    /// pages were resident) but whose pages the pool reclaimed before
    /// readmission — page-granular wasted prefill work.
    pub(crate) recompute_tokens: u64,
    /// Requests dropped by deadline-aware admission control.
    pub(crate) shed: u64,
    /// Admissions that mapped at least one resident shared-prefix page.
    pub(crate) prefix_cache_hits: u64,
    /// Prompt tokens whose prefill the prefix cache skipped.
    pub(crate) prefix_hit_tokens: u64,
    /// Cached KV pages reclaimed page-by-page to make room.
    pub(crate) pages_evicted: u64,
    /// Prompt KV bytes handed off to decode pools.
    pub(crate) kv_transferred_bytes: u64,
}

impl Ledger {
    /// Records one executed decode chunk: `batch_len` requests advanced
    /// by `chunk` tokens each in `secs` seconds, priced by `it`.
    fn decode(
        &mut self,
        eval: &Evaluator,
        it: &IterationBreakdown,
        batch_len: usize,
        chunk: u64,
        secs: f64,
    ) {
        self.tokens += batch_len as u64 * chunk;
        self.decode_steps += chunk;
        self.decodes.push(DecodeRecord {
            attn: it.attn_seconds * chunk as f64,
            fc: it.fc_seconds * chunk as f64,
            util_weight: it.attn_utilization * secs,
            energy: energy_terms(eval, it, chunk as f64),
        });
        #[cfg(test)]
        self.emitted.push(false);
    }

    /// Records one executed prefill chunk of `chunk` prompt tokens,
    /// priced by the interned `price`, `restart` seconds of which were
    /// post-eviction re-work.
    fn prefill(&mut self, price: u32, chunk: u64, restart: f64) {
        self.prefill_tokens += chunk;
        self.prefills.push(PrefillRecord {
            price,
            after_decodes: u32::try_from(self.decodes.len())
                .expect("fewer than 2^32 decode records per replica"),
            restart,
        });
        #[cfg(test)]
        self.emitted.push(true);
    }
}

/// The energy of `steps` iterations of `it` on one of `eval`'s replicas.
pub(crate) fn energy_terms(
    eval: &Evaluator,
    it: &IterationBreakdown,
    steps: f64,
) -> EnergyBreakdown {
    let sys = eval.system();
    eval.energy_model()
        .terms(it, steps, sys.parallel.modules(), sys.module.channels)
}

/// Instantaneous load of one replica, as seen by a [`crate::cluster::Router`]
/// at a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoad {
    /// Replica index within the cluster.
    pub replica: usize,
    /// Requests routed to the replica and not yet finished (queued +
    /// running).
    pub in_flight: usize,
    /// KV bytes the replica is committed to under the active memory
    /// policy: reservations held by the running batch plus the
    /// reservations its queued requests will take on admission.
    pub reserved_kv: u64,
    /// Prompt tokens routed to the replica and not yet prefilled —
    /// queued prompts plus the unprocessed remainder of running
    /// prefills (always 0 when prefill is not modeled). Lets routers
    /// weigh prompt-processing backlog, which in-flight counts and KV
    /// reservations miss.
    pub pending_prefill: u64,
}

/// The one record of a routed request: its lifecycle timestamps and the
/// state an eviction or a handoff must carry. It waits in the pending
/// queue, moves into [`Active`] at admission and back out at eviction,
/// and a `Prefill`-role replica hands it off to a decode pool as is,
/// with `req.arrival_us` rewritten to the transfer *completion* instant
/// so that decode-pool routing and queue ordering treat the handoff as
/// an ordinary arrival.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) req: Request,
    /// Generated tokens kept across an `EvictPause` (0 for fresh
    /// requests and after an `EvictRestart`); re-prefilled together
    /// with the prompt as an extended prompt on re-admission.
    resume_done: u64,
    /// Already-computed tokens still to be re-prefilled: the leading
    /// `owed` tokens of a prefill pass are re-work, and their pro-rata
    /// share of each chunk's seconds is billed to the restart bucket
    /// instead of first-pass prefill.
    owed: u64,
    evictions: u32,
    restart_secs: f64,
    /// First admission instant, kept across evictions and handoffs
    /// (queueing delay is arrival → *first* admission; later
    /// re-admissions are eviction re-work, not scheduler queueing, and
    /// a decode pool never re-sheds a request that already consumed
    /// prefill service). Always `Some` while running.
    first_admitted: Option<f64>,
    /// When the prompt *first* became resident (set once and kept
    /// across evictions and handoffs).
    prefill_end: Option<f64>,
    first_token: Option<f64>,
    /// Whether this request arrived by cross-pool handoff with its
    /// prompt KV already resident (admission then skips prefill
    /// entirely). Cleared on eviction: the transferred KV is dropped
    /// with the reservation, so a re-admission genuinely re-prefills.
    handoff: bool,
    /// The request's origin arrival (seconds) — what latency metrics
    /// measure from. Equals `req.arrival_secs()` except for handoffs.
    origin_arrival: f64,
    /// The queue reservation ([`KvMemory::queue_reservation`]) the
    /// record was pushed with on its current replica, summed by the
    /// [`PendingQueue`]. Set at enqueue; a pure function of the request
    /// on one replica, so an eviction re-pushes it unchanged.
    reserved: u64,
}

impl Queued {
    fn fresh(req: Request, reserved: u64) -> Self {
        Queued {
            req,
            resume_done: 0,
            owed: 0,
            evictions: 0,
            restart_secs: 0.0,
            first_admitted: None,
            prefill_end: None,
            first_token: None,
            handoff: false,
            origin_arrival: req.arrival_secs(),
            reserved,
        }
    }

    /// Prompt tokens a (re-)admission must prefill before decoding.
    fn prefill_target(&self) -> u64 {
        self.req.context_len + self.resume_done
    }

    /// The chunked-prefill stage's service order: highest priority
    /// first, then earliest arrival.
    fn prefill_order(&self) -> (Reverse<u8>, u64, u64) {
        (Reverse(self.req.priority), self.req.arrival_us, self.req.id)
    }
}

/// The pending queue, indexed by priority class: one FCFS lane per
/// distinct priority, lanes ordered highest class first. Traces carry a
/// handful of distinct priorities, so every query below is effectively
/// O(1) — where the historical single merged `VecDeque` paid an O(n)
/// scan per admission candidate and an O(n) shift per admission
/// (`remove(ci)`), the dominant cost of large priority-traffic runs.
///
/// # Admission-order invariant
///
/// Every continuous-mode lane is in `(arrival_us, id)` order: the
/// cluster routes arrivals in global `(arrival_us, id)` order
/// ([`workload::Trace::arrival_ordered`]), so fresh pushes are
/// nondecreasing (asserted in [`Self::push_back`]), and evictions
/// reinsert at their sorted position ([`Self::reinsert`]). The invariant
/// is what lets each lane answer by its *front*: the next admission
/// candidate is the front of the highest-priority lane whose front has
/// arrived — the same request a linear scan of the merged queue selects
/// (cross-checked against that scan under `debug_assertions`, which the
/// equivalence property tests run under).
///
/// The wave policy routes in trace order (not arrival order), drains in
/// insertion order and ignores priority — a wave queue is therefore a
/// single insertion-order lane (`fifo`), bit-exact with the historical
/// `VecDeque`.
#[derive(Debug)]
struct PendingQueue {
    /// `(priority, lane)` pairs, highest priority first; each lane in
    /// `(arrival_us, id)` order (fifo mode: one lane, insertion order).
    /// Lanes are never removed — the handful of classes a trace uses is
    /// allocated once and recycled for the rest of the run.
    lanes: Vec<(u8, VecDeque<Queued>)>,
    len: usize,
    /// The sum of the queued records' [`Queued::reserved`].
    reserved: u64,
    fifo: bool,
}

impl PendingQueue {
    fn new(fifo: bool) -> Self {
        PendingQueue {
            lanes: Vec::new(),
            len: 0,
            reserved: 0,
            fifo,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The reservations the queued requests will take on admission.
    fn reserved(&self) -> u64 {
        self.reserved
    }

    /// The lane for `priority`, created on first use.
    fn lane_mut(&mut self, priority: u8) -> &mut VecDeque<Queued> {
        let li = self.lanes.partition_point(|(p, _)| *p > priority);
        if !self.lanes.get(li).is_some_and(|(p, _)| *p == priority) {
            self.lanes.insert(li, (priority, VecDeque::new()));
        }
        &mut self.lanes[li].1
    }

    /// Appends a routed request. Outside fifo mode the caller must push
    /// in nondecreasing `(arrival_us, id)` order (the admission-order
    /// invariant above).
    fn push_back(&mut self, q: Queued) {
        let fifo = self.fifo;
        let lane = self.lane_mut(if fifo { 0 } else { q.req.priority });
        debug_assert!(
            fifo || !lane
                .back()
                .is_some_and(|b| (b.req.arrival_us, b.req.id) > (q.req.arrival_us, q.req.id)),
            "pending pushes must be in nondecreasing (arrival_us, id) order"
        );
        lane.push_back(q);
        self.len += 1;
        self.reserved = self.reserved.saturating_add(q.reserved);
    }

    /// Reinserts an evicted request at its `(arrival_us, id)` position
    /// within its priority lane.
    fn reinsert(&mut self, q: Queued) {
        debug_assert!(!self.fifo, "waves never evict");
        let key = (q.req.arrival_us, q.req.id);
        let lane = self.lane_mut(q.req.priority);
        let pos = lane.partition_point(|p| (p.req.arrival_us, p.req.id) <= key);
        lane.insert(pos, q);
        self.len += 1;
        self.reserved = self.reserved.saturating_add(q.reserved);
    }

    /// The earliest-arriving pending request (`(arrival_us, id)` order)
    /// — the idle-jump target and the FCFS fast-path chunk cut. Each
    /// lane's front is its earliest, so this is a min over lane fronts.
    fn earliest(&self) -> Option<&Queued> {
        self.lanes
            .iter()
            .filter_map(|(_, lane)| lane.front())
            .min_by_key(|q| (q.req.arrival_us, q.req.id))
    }

    /// The next admission candidate at time `t`: the front of the
    /// highest-priority lane whose front has arrived. (A lane front that
    /// has not arrived means nothing in that lane has — fronts are the
    /// per-lane earliest.)
    fn peek_candidate(&self, t: f64) -> Option<&Queued> {
        let cand = self
            .lanes
            .iter()
            .filter_map(|(_, lane)| lane.front())
            .find(|q| q.req.arrival_secs() <= t);
        debug_assert_eq!(
            cand.map(|q| q.req.id),
            self.linear_scan_candidate(t).map(|q| q.req.id),
            "lane-front candidate must match the linear-scan reference"
        );
        cand
    }

    /// Linear-scan reference for [`Self::peek_candidate`]: the
    /// historical selection rule over the merged queue, kept as the
    /// `debug_assertions` cross-check.
    fn linear_scan_candidate(&self, t: f64) -> Option<&Queued> {
        self.lanes
            .iter()
            .flat_map(|(_, lane)| lane.iter())
            .filter(|q| q.req.arrival_secs() <= t)
            .max_by_key(|q| (q.req.priority, Reverse(q.req.arrival_us), Reverse(q.req.id)))
    }

    /// Pops the candidate [`Self::peek_candidate`] returned. Still its
    /// lane's front even after an eviction sweep: victims have strictly
    /// lower priority, so their reinsertion cannot touch this lane.
    fn pop_candidate(&mut self, priority: u8) -> Queued {
        let li = self.lanes.partition_point(|(p, _)| *p > priority);
        debug_assert_eq!(self.lanes[li].0, priority);
        let q = self.lanes[li]
            .1
            .pop_front()
            .expect("candidate lane nonempty");
        self.len -= 1;
        self.reserved = self.reserved.saturating_sub(q.reserved);
        q
    }

    /// The earliest pending arrival strictly after `t`, if any — the
    /// priority-path chunk cut, via per-lane binary search.
    fn next_arrival_after(&self, t: f64) -> Option<f64> {
        self.lanes
            .iter()
            .filter_map(|(_, lane)| {
                let i = lane.partition_point(|q| q.req.arrival_secs() <= t);
                lane.get(i).map(|q| q.req.arrival_secs())
            })
            .min_by(f64::total_cmp)
    }

    /// Drains the queue in insertion order (wave mode only).
    fn drain_fifo(&mut self) -> VecDeque<Queued> {
        debug_assert!(self.fifo);
        self.len = 0;
        self.reserved = 0;
        self.lanes.pop().map(|(_, lane)| lane).unwrap_or_default()
    }
}

/// One running request in the incrementally maintained victim index,
/// kept sorted by ascending priority and, within a class, in the order
/// [`ReplicaSim::plan_eviction`] consumes victims: most recently
/// admitted first under [`VictimOrder::RecentFirst`], latest TTFT
/// deadline first (most SLO slack; ties newest-first) under
/// [`VictimOrder::SlackFirst`]. Planning walks a prefix instead of
/// re-filtering and re-sorting the running batch per blocked candidate.
/// Maintained only when the preemption policy can evict.
#[derive(Debug, Clone, Copy)]
struct VictimEntry {
    priority: u8,
    id: u64,
    /// The request's KV reservation, cached at admission so planning
    /// does not re-derive it per victim.
    reserved: u64,
    /// The request's absolute TTFT deadline `arrival + slo_ttft`, as
    /// order-preserving bits (`f64::to_bits` is monotone over the
    /// nonnegative floats, `+inf` — no SLO — sorting last). Two
    /// requests' slack difference is time-invariant, so this static key
    /// realizes "most remaining slack first" exactly.
    deadline_bits: u64,
    /// Admission sequence (tie-break: newest first).
    seq: u64,
}

/// Per-replica paged-KV state: the page pool plus the token geometry
/// needed to translate requests into pages. Present only when
/// [`crate::policy::PagedKvConfig::prefix_caching`] is on under the
/// continuous policy (see [`KvMemory`]).
#[derive(Debug)]
struct PagedKv {
    pool: PagePool,
    /// Tokens one page holds ([`Evaluator::page_tokens`], ≥ 1).
    page_tokens: u64,
    /// Re-prefill discounts granted at eviction, by request id: shared
    /// pages left resident in the pool let the victim's `reprefill`
    /// accounting shrink, but if the pool reclaims those pages before
    /// the request is re-admitted, the shortfall must be recomputed —
    /// and is billed back to `wasted_prefill_tokens` at re-admission.
    discounted: BTreeMap<u64, u64>,
    /// The last prefix lookup, `(tenant, shared pages, hit)`, cleared
    /// whenever the pool changes. The admission sweep and the chunk
    /// cut ask about the same queue front many times between pool
    /// changes; this answers the repeats without walking the chain.
    last_lookup: Cell<Option<(u8, u64, PrefixHit)>>,
}

impl PagedKv {
    /// Whole pages of `r`'s prompt covered by its tenant-shared prefix
    /// (partial trailing pages are private — sharing them would alias
    /// unrelated tokens into one page). Requests of one tenant share one
    /// system prompt, so the tenant is the pool's prefix id.
    fn shared_pages(&self, r: &Request) -> u64 {
        r.shared_prefix.min(r.context_len) / self.page_tokens
    }

    /// Prompt tokens of `r` living on shared (prefix-chain) pages.
    fn shared_tokens(&self, r: &Request) -> u64 {
        self.shared_pages(r) * self.page_tokens
    }

    /// How much of `r`'s shared prefix is resident ([`PagePool::lookup`]).
    fn lookup(&self, r: &Request) -> PrefixHit {
        let pages = self.shared_pages(r);
        if let Some((tenant, n, hit)) = self.last_lookup.get() {
            if tenant == r.tenant && n == pages {
                debug_assert_eq!(hit, self.pool.lookup(u64::from(r.tenant), pages));
                return hit;
            }
        }
        let hit = self.pool.lookup(u64::from(r.tenant), pages);
        self.last_lookup.set(Some((r.tenant, pages, hit)));
        hit
    }

    /// Page-rounded footprint of a `len`-token reservation
    /// ([`KvMemory::reservation_len`] — the whole request on
    /// mixed/decode replicas, the prompt alone on prefill replicas).
    fn footprint_pages(&self, len: u64) -> u64 {
        len.div_ceil(self.page_tokens).max(1)
    }
}

/// How a replica's KV memory is accounted.
#[derive(Debug)]
enum KvStore {
    /// Whole-request reservations (the default): the bytes the running
    /// batch holds, each request reserving
    /// [`Evaluator::kv_reservation`] of its reservation length.
    Whole { used: u64 },
    /// Paged KV: the page pool's referenced pages are the reservation.
    Paged(Box<PagedKv>),
}

/// One replica's KV memory, the single owner of its admission
/// arithmetic: the capacity and HFP batch limit, the fits rule, what a
/// request reserves while queued and at admission, and what it returns
/// on release. Under whole-request accounting it keeps the running
/// batch's reserved bytes; under paged KV the page pool is the only
/// record, and [`Self::used`] reads it.
#[derive(Debug)]
struct KvMemory<'a> {
    eval: &'a Evaluator,
    t_max: u64,
    /// Whether a reservation covers the prompt alone (a `Prefill`-role
    /// replica) rather than the whole request.
    prompt_only: bool,
    capacity: u64,
    /// The HFP placement limit on the running batch size.
    limit: u64,
    store: KvStore,
}

impl<'a> KvMemory<'a> {
    /// An empty KV memory for a replica running `policy` in `role`,
    /// compiled for worst case `t_max`.
    fn new(eval: &'a Evaluator, policy: SchedulingPolicy, role: PoolRole, t_max: u64) -> Self {
        let paged_cfg = eval.policies().paged_kv;
        // Paged KV is a continuous-policy feature: the closed-world wave
        // loop admits and retires whole waves, so there is nothing for a
        // page cache to share across admissions.
        let store = if paged_cfg.prefix_caching && policy == SchedulingPolicy::Continuous {
            KvStore::Paged(Box::new(PagedKv {
                pool: PagePool::new(eval.replica_kv_capacity(), paged_cfg.page_bytes),
                page_tokens: eval.page_tokens(),
                discounted: BTreeMap::new(),
                last_lookup: Cell::new(None),
            }))
        } else {
            KvStore::Whole { used: 0 }
        };
        KvMemory {
            eval,
            t_max,
            prompt_only: role == PoolRole::Prefill,
            capacity: eval.replica_kv_capacity(),
            limit: eval.hfp_batch_limit(t_max),
            store,
        }
    }

    /// The page-pool state, when paged KV is on.
    fn paged(&self) -> Option<&PagedKv> {
        match &self.store {
            KvStore::Paged(p) => Some(p),
            KvStore::Whole { .. } => None,
        }
    }

    /// Reservation bytes currently held by the running batch.
    fn used(&self) -> u64 {
        match &self.store {
            KvStore::Whole { used } => *used,
            KvStore::Paged(p) => p.pool.referenced_pages() * p.pool.page_bytes(),
        }
    }

    /// The raw admission predicate against a *hypothetical* batch state
    /// (`used` reserved bytes, `occupancy` running requests) — used by
    /// eviction planning, which must know whether removing a victim set
    /// would make a blocked candidate admissible before actually
    /// evicting anyone.
    fn fits_given(&self, need: u64, used: u64, occupancy: usize) -> bool {
        // Mirror the wave loop's guarantee: an empty batch always accepts
        // its first request, even one whose worst case exceeds capacity.
        if occupancy == 0 {
            return true;
        }
        if occupancy as u64 >= self.limit {
            return false;
        }
        used.saturating_add(need) <= self.capacity
    }

    /// Whether `need` more bytes fit beside the current batch of
    /// `occupancy` requests.
    fn fits(&self, need: u64, occupancy: usize) -> bool {
        self.fits_given(need, self.used(), occupancy)
    }

    /// The token length a request's KV reservation covers on this
    /// replica: the whole request (prompt + decode budget) on
    /// mixed/decode replicas — the historical rule, bit-exact — but only
    /// the prompt on a `Prefill`-role replica, which never decodes and
    /// hands the request off at prompt residency. (Prefill replicas
    /// never decode, so `resume_done` is always 0 there and the prompt
    /// is exactly `context_len`.)
    fn reservation_len(&self, r: &Request) -> u64 {
        if self.prompt_only {
            r.context_len
        } else {
            r.final_len()
        }
    }

    /// The reservation a request holds while queued (and the full
    /// amount it returns to the queue on eviction): the whole-request
    /// reservation under the historical policy, the page-rounded
    /// footprint under paged KV (admission itself may then reserve less
    /// — resident shared pages are discounted by
    /// [`Self::admission_need`]).
    fn queue_reservation(&self, r: &Request) -> u64 {
        let len = self.reservation_len(r);
        match &self.store {
            KvStore::Paged(p) => p.footprint_pages(len) * p.pool.page_bytes(),
            KvStore::Whole { .. } => self.eval.kv_reservation(len, self.t_max),
        }
    }

    /// Bytes admission must find for `r` right now: equal to
    /// [`Self::queue_reservation`] under whole-request accounting; under
    /// paged KV, resident shared-prefix pages are free (refcount++) but
    /// re-referencing a *cached* page removes it from the reclaimable
    /// set, so those count (`new + hit_cached` pages — exactly the page
    /// pool's own feasibility rule).
    fn admission_need(&self, r: &Request) -> u64 {
        match &self.store {
            KvStore::Paged(p) => {
                let hit = p.lookup(r);
                (p.footprint_pages(self.reservation_len(r)) - hit.hit_pages + hit.hit_cached_pages)
                    * p.pool.page_bytes()
            }
            KvStore::Whole { .. } => self.queue_reservation(r),
        }
    }

    /// Takes `r`'s memory at admission into a batch of `occupancy`
    /// running requests. Whole-request: reserves its bytes. Paged:
    /// admits `r` into the page pool — mapping any resident shared
    /// prefix, allocating the rest, reclaiming cached pages LRU-first
    /// under pressure — and bills the prefix-cache counters to
    /// `ledger`. Returns the prompt tokens whose prefill the prefix
    /// cache skips plus the bytes reserved.
    fn admit(&mut self, r: &Request, occupancy: usize, ledger: &mut Ledger) -> (u64, u64) {
        let r_len = self.reservation_len(r);
        let p = match &mut self.store {
            KvStore::Whole { used } => {
                let need = self.eval.kv_reservation(r_len, self.t_max);
                *used = used.saturating_add(need);
                return (0, need);
            }
            KvStore::Paged(p) => p,
        };
        let (prefix, shared) = (u64::from(r.tenant), p.shared_pages(r));
        let private = p.footprint_pages(r_len) - shared;
        let before = p.pool.referenced_pages();
        p.last_lookup.set(None);
        let adm = match p.pool.admit(RequestId(r.id), prefix, shared, private) {
            Ok(a) => a,
            Err(_) => {
                // Mirror the empty-batch guarantee of `fits_given` (a
                // first request always admits, truncated to capacity by
                // construction of the workloads): clamp the footprint to
                // the pool rather than deadlock.
                debug_assert!(
                    occupancy == 0,
                    "pool admission can only fail for an oversized first request"
                );
                let shared = shared.min(p.pool.total_pages());
                let private = private.min(p.pool.total_pages() - shared);
                p.pool
                    .admit(RequestId(r.id), prefix, shared, private)
                    .expect("clamped admission fits an empty pool")
            }
        };
        let reserved = (p.pool.referenced_pages() - before) * p.pool.page_bytes();
        let hit_tokens = adm.hit_pages * p.page_tokens;
        // Recompute attribution: tokens whose re-prefill was waived at
        // this request's eviction (shared pages then resident) that the
        // cache no longer covers — the pool reclaimed them in between,
        // so the prefill really happens again and counts as waste.
        let recompute_tokens = p
            .discounted
            .remove(&r.id)
            .unwrap_or(0)
            .saturating_sub(hit_tokens);
        if hit_tokens > 0 {
            ledger.prefix_cache_hits += 1;
            ledger.prefix_hit_tokens += hit_tokens;
        }
        ledger.recompute_tokens += recompute_tokens;
        ledger.pages_evicted += adm.reclaimed_pages;
        (hit_tokens, reserved)
    }

    /// Returns `r`'s memory when it leaves the running batch (retire or
    /// eviction). Paged: shared pages another live sequence still maps
    /// stay referenced; newly zero-refcount shared pages stay *cached*
    /// in the pool (the prefix cache), so only the referenced pages
    /// only `r` held are freed.
    fn release(&mut self, r: &Request) {
        let r_len = self.reservation_len(r);
        match &mut self.store {
            KvStore::Paged(p) => {
                p.last_lookup.set(None);
                p.pool
                    .release(RequestId(r.id))
                    .expect("running request owns pool pages");
            }
            KvStore::Whole { used } => {
                *used = used.saturating_sub(self.eval.kv_reservation(r_len, self.t_max));
            }
        }
    }
}

/// One request resident in a replica's running batch: its record,
/// moved in at admission, plus the running-state fields.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// The request's record. Its `resume_done` is the resume point of
    /// this residency, which tells tokens generated *this* residency
    /// from kept ones at eviction.
    rec: Queued,
    /// Tokens generated so far (starts at the kept-token count when
    /// resuming from an `EvictPause`).
    done: u64,
    /// Prompt tokens processed so far (initialized to the target when
    /// prefill is not modeled, so the request decodes immediately).
    prefilled: u64,
    /// Prompt tokens this residency must process before decoding:
    /// `context_len`, plus the kept tokens re-prefilled as an extended
    /// prompt after an `EvictPause`.
    prefill_target: u64,
    /// Admission sequence number within the replica — victim selection
    /// evicts the most recently admitted (least progress lost) among
    /// the lowest-priority candidates, deterministically.
    seq: u64,
}

impl Active {
    /// Whether the prompt is resident and decoding may proceed.
    fn prompt_ready(&self) -> bool {
        self.prefilled >= self.prefill_target
    }
}

/// The serving phase a replica of `eval` runs under `policy`: the pool
/// role under the continuous policy, and always `Mixed` under waves.
/// Pool roles are a continuous-policy feature: the closed-world wave
/// loop has no cross-pool lifecycle, so a wave replica runs the full
/// lifecycle whatever role its pool declares.
pub(crate) fn effective_role(eval: &Evaluator, policy: SchedulingPolicy) -> PoolRole {
    if policy == SchedulingPolicy::Continuous {
        eval.pool_role()
    } else {
        PoolRole::Mixed
    }
}

/// Per-replica serving state machine (see the module docs).
pub(crate) struct ReplicaSim<'a> {
    eval: &'a Evaluator,
    stage: StageModel<'a>,
    policy: SchedulingPolicy,
    preempt: PreemptionPolicy,
    prefill: PrefillConfig,
    shedding: SheddingPolicy,
    victim_order: VictimOrder,
    /// Optimistic TTFT bound for deadline-aware admission (zero-rate —
    /// pure queueing-time — unless shedding is armed with prefill on).
    predictor: TtftPredictor,
    /// The serving phase this replica owns (`Mixed` unless the cluster
    /// armed pools; continuous policy only — waves ignore roles).
    role: PoolRole,
    /// The KV-transfer pricer for handoffs; `Some` exactly when this is
    /// a `Prefill`-role replica.
    transfer: Option<KvTransferModel>,
    t_max: u64,
    /// Routed, not-yet-admitted requests, in per-priority FCFS lanes
    /// (evicted requests re-enter at their arrival-order position).
    pending: PendingQueue,
    /// Prompt tokens routed but not yet prefilled (0 with prefill off).
    prefill_backlog: u64,
    /// Whether any routed request carried a nonzero priority. While
    /// false, admission and chunk-cutting follow the historical FCFS
    /// fast path bit-exactly (uniform priorities also make eviction
    /// impossible, so every preemption policy coincides with `None`).
    saw_priority: bool,
    /// The replica's KV memory: every admission, reservation and
    /// release goes through it.
    kv: KvMemory<'a>,
    running: Vec<Active>,
    /// Eviction-order index over `running` (see [`VictimEntry`]); empty
    /// unless the preemption policy can evict.
    victim_index: Vec<VictimEntry>,
    /// Scratch for batch pricing — reused across steps so the hot path
    /// allocates nothing per priced iteration.
    batch_buf: Vec<(u64, u64)>,
    /// Admission sequence counter feeding [`Active::seq`].
    admit_seq: u64,
    /// Bumped on every admission, executed step, eviction, and
    /// completion; keys `cached_step` (see [`PlannedStep`]).
    batch_version: u64,
    /// Deferred-step pricing cache, valid while `batch_version` matches.
    cached_step: Option<(u64, PlannedStep)>,
    /// Virtual clock.
    t: f64,
    /// Seconds spent decoding or prefilling (excludes idle gaps).
    busy: f64,
    routed: u64,
    served: u64,
    peak_reserved: u64,
    pub(crate) ledger: Ledger,
    pub(crate) timings: Vec<RequestTiming>,
    /// Prefill-complete requests handed off by this `Prefill`-role
    /// replica, in retirement order (the cluster merge-sorts the pools'
    /// streams by transfer-completion time before decode-pool routing).
    /// Always empty on mixed/decode replicas.
    pub(crate) handoffs: Vec<Queued>,
}

impl<'a> ReplicaSim<'a> {
    /// Creates an idle replica for a run compiled for worst case `t_max`.
    pub(crate) fn new(eval: &'a Evaluator, policy: SchedulingPolicy, t_max: u64) -> Self {
        let shedding = if policy == SchedulingPolicy::Continuous {
            eval.policies().shedding
        } else {
            SheddingPolicy::None // closed-world waves have no deadlines
        };
        let role = effective_role(eval, policy);
        ReplicaSim {
            eval,
            stage: eval.stage_model(),
            policy,
            preempt: eval.policies().preemption,
            prefill: eval.policies().prefill,
            shedding,
            victim_order: eval.policies().victim_order,
            predictor: if shedding.sheds() {
                eval.ttft_predictor()
            } else {
                TtftPredictor::with_rate(0.0)
            },
            role,
            transfer: (role == PoolRole::Prefill).then(|| eval.kv_transfer_model()),
            t_max,
            pending: PendingQueue::new(policy == SchedulingPolicy::Wave),
            prefill_backlog: 0,
            saw_priority: false,
            kv: KvMemory::new(eval, policy, role, t_max),
            running: Vec::new(),
            victim_index: Vec::new(),
            batch_buf: Vec::new(),
            admit_seq: 0,
            batch_version: 0,
            cached_step: None,
            t: 0.0,
            busy: 0.0,
            routed: 0,
            served: 0,
            peak_reserved: 0,
            ledger: Ledger::default(),
            timings: Vec::new(),
            handoffs: Vec::new(),
        }
    }

    /// Hands a routed request to this replica. Requests must be enqueued
    /// in nondecreasing arrival order and never earlier than the
    /// replica's clock (the cluster routes arrivals in global order and
    /// only advances replicas up to the routing frontier).
    pub(crate) fn enqueue(&mut self, r: Request) {
        if self.prefill.enabled {
            self.prefill_backlog = self.prefill_backlog.saturating_add(r.context_len);
        }
        self.saw_priority |= r.priority != 0;
        let reserved = self.kv.queue_reservation(&r);
        self.pending.push_back(Queued::fresh(r, reserved));
        self.routed += 1;
    }

    /// Hands a prefill-complete request (arriving by cross-pool
    /// transfer) to this decode replica. Same ordering contract as
    /// [`Self::enqueue`], keyed on the rewritten (transfer-completion)
    /// arrival. The prompt KV is resident on arrival, so nothing joins
    /// the prefill backlog and admission skips prefill entirely. The
    /// record arrives as the prefill replica handed it off; only its
    /// queue reservation is this replica's own.
    pub(crate) fn enqueue_handoff(&mut self, mut h: Queued) {
        debug_assert!(
            self.role.accepts_handoff(),
            "handoffs may only target decode pools"
        );
        self.saw_priority |= h.req.priority != 0;
        h.reserved = self.kv.queue_reservation(&h.req);
        self.pending.push_back(h);
        self.routed += 1;
    }

    /// The load snapshot routers decide on.
    pub(crate) fn load(&self, replica: usize) -> ReplicaLoad {
        ReplicaLoad {
            replica,
            in_flight: self.pending.len() + self.running.len(),
            reserved_kv: self.kv.used().saturating_add(self.pending.reserved()),
            pending_prefill: self.prefill_backlog,
        }
    }

    /// Whether deadline-aware admission control drops this candidate:
    /// armed shedding, a finite tenant SLO, a *first* admission (a
    /// previously admitted request already has its TTFT history — its
    /// service would be wasted, not saved, by dropping it now), and an
    /// optimistic TTFT bound that already misses the SLO. The bound is
    /// accumulated wait plus the cheapest-rate prefill of (a) the
    /// unprefilled running prompts the chunked-prefill stage serves
    /// before this candidate — it picks highest priority first, then
    /// earliest arrival — and (b) the candidate's own non-cacheable
    /// prompt. Every one of those tokens must execute before the
    /// candidate's first token, each at no better than the calibrated
    /// empty-context rate, so the bound lower-bounds any realized TTFT
    /// and a request that could still meet its deadline is never shed.
    /// (The one exception: a strictly-higher-priority class evicting
    /// ahead-of-candidate work re-queues it behind, which needs ≥ 3
    /// priority classes under active preemption; ample-capacity traces
    /// never evict, so the no-false-shed guarantee holds there
    /// unconditionally.)
    fn should_shed(&self, q: &Queued) -> bool {
        if !self.shedding.sheds() || q.first_admitted.is_some() {
            return false;
        }
        let slo = self.eval.tenant_slo(q.req.tenant);
        if slo.is_infinite() {
            return false;
        }
        let tokens = if self.prefill.enabled {
            let ahead: u64 = self
                .running
                .iter()
                .filter(|a| !a.prompt_ready() && a.rec.prefill_order() < q.prefill_order())
                .map(|a| a.prefill_target - a.prefilled)
                .sum();
            let cached = self.kv.paged().map_or(0, |p| p.shared_tokens(&q.req));
            ahead + q.prefill_target().saturating_sub(cached)
        } else {
            0
        };
        let waited = (self.t - q.req.arrival_secs()).max(0.0);
        match &self.transfer {
            // A prefill replica's first token is emitted by a *decode*
            // pool, on the far side of the KV transfer: the wire time is
            // part of every realized TTFT, so adding it keeps the bound
            // sound without breaking the lower-bound guarantee.
            Some(m) => {
                let (_, _, secs) = m.transfer(q.req.context_len);
                self.predictor.predict_with_transfer(waited, tokens, secs) > slo
            }
            None => self.predictor.predict(waited, tokens) > slo,
        }
    }

    /// A request's absolute TTFT deadline `arrival + slo_ttft` as
    /// order-preserving bits (see [`VictimEntry::deadline_bits`]).
    fn deadline_bits(&self, r: &Request) -> u64 {
        (r.arrival_secs() + self.eval.tenant_slo(r.tenant)).to_bits()
    }

    /// Processes every event up to `limit`, deferring any step that
    /// would end past it. Returns the replica's **next-event bound**:
    /// the earliest future instant at which — absent newly routed
    /// arrivals — its state can change (the deferred step's end, the
    /// next pending arrival, or `f64::INFINITY` once drained). The bound
    /// is always strictly greater than `limit`; the cluster's event
    /// calendar relies on it to skip advancing quiescent replicas
    /// (advancing below the bound is a state no-op). A no-op returning
    /// `INFINITY` under the wave policy, which ignores arrival times
    /// (all its work happens in [`Self::finish`]).
    pub(crate) fn advance_to(&mut self, limit: f64) -> f64 {
        if self.policy == SchedulingPolicy::Continuous {
            self.advance_continuous(limit)
        } else {
            f64::INFINITY
        }
    }

    /// Runs the replica to completion (no more arrivals will be routed).
    pub(crate) fn finish(&mut self) {
        match self.policy {
            SchedulingPolicy::Wave => self.run_wave(),
            SchedulingPolicy::Continuous => {
                self.advance_continuous(f64::INFINITY);
                // KV conservation: a drained replica holds no KV — under
                // paged KV, no referenced page and no registered sequence.
                debug_assert_eq!(self.kv.used(), 0, "a drained replica holds no KV");
                debug_assert!(self.kv.paged().map_or(true, |p| p.pool.registered() == 0));
            }
        }
        // Request conservation: every routed request was served (on a
        // prefill replica: handed off) or shed.
        debug_assert_eq!(
            self.routed,
            self.served + self.ledger.shed,
            "a drained replica serves or sheds every routed request"
        );
    }

    /// This replica's virtual end time.
    pub(crate) fn end_time(&self) -> f64 {
        self.t
    }

    /// Seconds spent decoding or prefilling (excludes idle gaps).
    pub(crate) fn busy_seconds(&self) -> f64 {
        self.busy
    }

    /// The per-replica totals exposed in the serving report.
    pub(crate) fn breakdown(&self) -> ReplicaBreakdown {
        ReplicaBreakdown {
            routed: self.routed,
            served: self.served,
            tokens: self.ledger.tokens,
            busy_seconds: self.busy,
            seconds: self.t,
            peak_reserved_kv: self.peak_reserved,
            evictions: self.ledger.evictions,
            shed: self.ledger.shed,
        }
    }

    /// The original closed-world wave loop over this replica's routed
    /// queue: each wave decodes to completion before the next is
    /// admitted. Arrival times and priorities are ignored (every request
    /// is treated as queued at time 0), so TTFT under this policy
    /// measures closed-world queueing, and preemption never applies (an
    /// admitted wave always runs to completion). Extracted verbatim from
    /// the original per-replica wave loop.
    fn run_wave(&mut self) {
        let eval = self.eval;
        let stride = eval.policies().stride;
        let queue: Vec<Request> = self
            .pending
            .drain_fifo()
            .into_iter()
            .map(|q| q.req)
            .collect();
        let mut idx = 0usize;
        while idx < queue.len() {
            let admitted = policy::wave_plan(eval, &queue[idx..], self.t_max);
            let wave = &queue[idx..idx + admitted];
            idx += admitted;
            self.ledger.waves += 1;
            self.ledger.wave_admits.push(admitted as f64);
            let wave_reserved: u64 = wave.iter().map(|r| self.kv.queue_reservation(r)).sum();
            self.peak_reserved = self.peak_reserved.max(wave_reserved);

            let wave_start = self.t;
            // Whole-batch prefill: the wave decodes in lockstep, so no
            // request sees its first token until every admitted prompt
            // is resident (FCFS, chunked for pricing fidelity with the
            // continuous path). No-op when prefill is not modeled.
            let mut prefill_end: Vec<f64> = vec![wave_start; admitted];
            if self.prefill.enabled {
                for (i, r) in wave.iter().enumerate() {
                    let mut done = 0u64;
                    while done < r.context_len {
                        let c = self.prefill.chunk_tokens.min(r.context_len - done);
                        let price = self
                            .ledger
                            .prefill_prices
                            .intern(eval, &self.stage, done, c);
                        self.ledger.prefill(price, c, 0.0);
                        let secs = self.ledger.prefill_prices[price].secs;
                        self.t += secs;
                        self.busy += secs;
                        self.prefill_backlog = self.prefill_backlog.saturating_sub(c);
                        done += c;
                    }
                    prefill_end[i] = self.t;
                }
            }

            let decode_start = self.t;
            let mut first_token: Vec<Option<f64>> = vec![None; admitted];
            let mut finish: Vec<f64> = vec![decode_start; admitted];

            // Decode the wave; all requests share the same decode budget,
            // growing token counts as they generate.
            let decode_len = wave.iter().map(|r| r.decode_len).max().unwrap_or(0);
            let mut step = 0u64;
            while step < decode_len {
                // Cut the chunk at the earliest completion so batch
                // composition is constant within it.
                let Some(min_remaining) = wave
                    .iter()
                    .filter(|r| r.decode_len > step)
                    .map(|r| r.decode_len - step)
                    .min()
                else {
                    break;
                };
                let chunk = stride.min(decode_len - step).min(min_remaining);
                // Exact per-step pricing: the affine kernel model makes
                // Σₛ it(T+s) equal chunk·it(T + (chunk-1)/2), so the
                // chunk is priced at its midpoint step — the same rule
                // as the continuous policy, eliminating the historical
                // stride-granularity cost skew between them.
                let batch: Vec<(u64, u64)> = wave
                    .iter()
                    .filter(|r| r.decode_len > step)
                    .map(|r| (r.id, r.context_len + step + (chunk - 1) / 2))
                    .collect();
                let it = self.stage.iteration(&batch);
                let secs = it.seconds * chunk as f64;
                let chunk_start = self.t;
                self.t += secs;
                self.busy += secs;
                self.ledger.decode(eval, &it, batch.len(), chunk, secs);
                for (i, r) in wave.iter().enumerate() {
                    if r.decode_len > step {
                        if first_token[i].is_none() {
                            first_token[i] = Some(chunk_start + it.seconds);
                        }
                        if r.decode_len <= step + chunk {
                            finish[i] = chunk_start + it.seconds * (r.decode_len - step) as f64;
                        }
                    }
                }
                step += chunk;
            }

            for (i, r) in wave.iter().enumerate() {
                self.ledger.retired.push(r.final_len());
                self.served += 1;
                // A request that never emitted a token (zero decode
                // budget) produces no timing sample: the historical
                // `unwrap_or(wave_start)` fallback silently clamped its
                // TTFT to the wave start, polluting the percentiles
                // with a token that never existed.
                let Some(first) = first_token[i] else {
                    continue;
                };
                self.timings.push(RequestTiming {
                    id: r.id,
                    // Closed world: the policy treats every request as
                    // queued at time 0, so its latencies are measured
                    // from the epoch — a real (later) arrival time would
                    // make first_token precede arrival and turn TTFT
                    // negative.
                    arrival: 0.0,
                    admitted: wave_start,
                    prefill_end: prefill_end[i],
                    first_token: first,
                    finished: finish[i],
                    decode_len: r.decode_len,
                    priority: r.priority,
                    tenant: r.tenant,
                    evictions: 0,
                    restart_secs: 0.0,
                });
            }
        }
    }

    /// Continuous batching up to `limit`: pending requests join the
    /// running batch the moment their arrival has passed and the memory
    /// policy has room (highest priority first; see the module docs for
    /// the eviction rules); completions free reservations immediately.
    /// With prefill enabled, admitted requests first process their
    /// prompt in chunks interleaved with decode steps of the running
    /// batch ([`Self::mixed_step`]), so decodes are not starved behind
    /// long prompts. The clock jumps over idle gaps (counted in
    /// `seconds` but not `busy_seconds`). The step decision is
    /// recomputed at execution time so deferral at the routing frontier
    /// is transparent; its *pricing* is cached across frontier visits
    /// (see [`PlannedStep`]).
    ///
    /// Returns the next-event bound documented on [`Self::advance_to`].
    fn advance_continuous(&mut self, limit: f64) -> f64 {
        loop {
            // Idle: jump the clock to the next arrival.
            if self.running.is_empty() {
                match self.pending.earliest() {
                    None => return f64::INFINITY,
                    Some(q) if q.req.arrival_secs() > limit => return q.req.arrival_secs(),
                    Some(q) if q.req.arrival_secs() > self.t => self.t = q.req.arrival_secs(),
                    Some(_) => {}
                }
            }

            // Admission events: priority-ordered sweep of everything
            // that has arrived (plain FCFS while every priority is 0 —
            // bit-exact with the historical loop). The sweep stops at
            // the first candidate that neither fits nor can claim room
            // by evicting strictly-lower-priority running requests.
            let mut admitted_now = 0usize;
            while let Some(cand_q) = self.pending.peek_candidate(self.t).copied() {
                let cand = cand_q.req;
                // Deadline-aware admission control: a candidate whose
                // optimistic TTFT bound already misses its tenant SLO is
                // dropped instead of admitted (never the default — see
                // `SheddingPolicy`). The sweep continues: a doomed
                // head must not shield admissible requests behind it.
                if self.should_shed(&cand_q) {
                    let q = self.pending.pop_candidate(cand.priority);
                    debug_assert_eq!(q.req.id, cand.id, "popped the planned candidate");
                    if self.prefill.enabled {
                        self.prefill_backlog =
                            self.prefill_backlog.saturating_sub(q.prefill_target());
                    }
                    self.ledger.shed += 1;
                    continue;
                }
                let need = self.kv.admission_need(&cand);
                if !self.kv.fits(need, self.running.len()) {
                    let Some(victims) = self.plan_eviction(need, cand.priority) else {
                        break;
                    };
                    for id in victims {
                        self.evict(id);
                    }
                    // Victims re-entered strictly-lower-priority lanes,
                    // so the candidate is still its own lane's front.
                    // Under paged KV, page sharing means eviction can
                    // free fewer bytes than the victims' nominal
                    // reservations (shared pages stay referenced by
                    // survivors or cached), so re-derive the candidate's
                    // need and re-check before admitting. Whole-request
                    // eviction released exactly the reservations the
                    // plan subtracted, so there the re-check passes.
                    if !self
                        .kv
                        .fits(self.kv.admission_need(&cand), self.running.len())
                    {
                        break;
                    }
                }
                let mut q = self.pending.pop_candidate(cand.priority);
                debug_assert_eq!(q.req.id, cand.id, "popped the planned candidate");
                let (hit_tokens, reserved) =
                    self.kv.admit(&q.req, self.running.len(), &mut self.ledger);
                self.peak_reserved = self.peak_reserved.max(self.kv.used());
                let target = q.prefill_target();
                // Prefix-cached prompt pages are already resident:
                // prefill starts at the first non-cached token. A
                // handed-off request's entire prompt KV arrived over the
                // wire — nothing to prefill, and nothing was ever added
                // to this replica's prefill backlog.
                let skip = if q.handoff {
                    target
                } else if self.prefill.enabled {
                    hit_tokens.min(target)
                } else {
                    0
                };
                if skip > 0 && !q.handoff {
                    self.prefill_backlog = self.prefill_backlog.saturating_sub(skip);
                }
                let must_prefill = !q.handoff && self.prefill.enabled && target > skip;
                if q.req.decode_len == 0 && !must_prefill {
                    // Nothing to generate or prefill: completes at
                    // admission — with no emitted token, so no timing
                    // sample (see the metrics module docs).
                    self.kv.release(&q.req);
                    self.ledger.retired.push(q.req.final_len());
                    self.served += 1;
                    continue;
                }
                q.first_admitted.get_or_insert(self.t);
                if !must_prefill {
                    q.prefill_end.get_or_insert(self.t);
                }
                q.owed = q.owed.min(target - skip);
                self.admit_seq += 1;
                self.running.push(Active {
                    rec: q,
                    done: q.resume_done,
                    prefilled: if must_prefill { skip } else { target },
                    prefill_target: target,
                    seq: self.admit_seq,
                });
                if self.preempt.evicts() {
                    let p = q.req.priority;
                    let d = self.deadline_bits(&q.req);
                    // RecentFirst: the new admission has the highest
                    // seq, so it leads its priority class. SlackFirst:
                    // descending deadline within the class (latest
                    // deadline = most remaining slack evicts first);
                    // equal deadlines keep newest-first, so the two
                    // orders agree when no tenant has an SLO.
                    let pos = match self.victim_order {
                        VictimOrder::RecentFirst => {
                            self.victim_index.partition_point(|e| e.priority < p)
                        }
                        VictimOrder::SlackFirst => self.victim_index.partition_point(|e| {
                            e.priority < p || (e.priority == p && e.deadline_bits > d)
                        }),
                    };
                    self.victim_index.insert(
                        pos,
                        VictimEntry {
                            priority: p,
                            id: q.req.id,
                            reserved,
                            deadline_bits: d,
                            seq: self.admit_seq,
                        },
                    );
                }
                admitted_now += 1;
            }
            // Continuous mean_batch is step-weighted (tokens / steps),
            // so admission events only bump the admission counter.
            if admitted_now > 0 {
                self.ledger.waves += 1;
                self.batch_version += 1;
                // A prefill replica retires requests the instant their
                // prompt is resident — including fully-prefix-cached
                // admissions that were prompt-ready on arrival, which
                // must never reach a decode step here. Admission is the
                // only way a request becomes prompt-ready without a
                // step, and every step is followed by the sweep below,
                // so an iteration that admitted nobody has nothing to
                // retire.
                if self.role == PoolRole::Prefill {
                    self.sweep_completions();
                }
            }
            if self.running.is_empty() {
                continue; // only zero-work requests were admitted
            }

            // Step event: a mixed prefill step while any prompt is
            // unprocessed, else a pure decode chunk. Either defers (with
            // the step's end time as the next-event bound) when it would
            // end past the routing frontier — an arrival not yet routed
            // could still change the batch.
            let deferred = if self.running.iter().any(|a| !a.prompt_ready()) {
                self.mixed_step(limit)
            } else {
                self.decode_chunk(limit)
            };
            if let Err(ends_at) = deferred {
                return ends_at;
            }

            // Completion events: retire finished requests, freeing memory.
            self.sweep_completions();
        }
    }

    /// Retires every finished running request, freeing its memory. A
    /// request finishes when its decode budget is exhausted — or, on a
    /// `Prefill`-role replica, the moment its prompt is resident: the
    /// replica prices the KV transfer, records the `Handoff` event, and
    /// queues the request for the cluster to route into a decode pool.
    fn sweep_completions(&mut self) {
        #[cfg(test)]
        SWEEPS.with(|n| n.set(n.get() + 1));
        let mut retired = false;
        let mut i = 0usize;
        while i < self.running.len() {
            let done = {
                let a = &self.running[i];
                if self.role == PoolRole::Prefill {
                    a.prompt_ready()
                } else {
                    a.prompt_ready() && a.done >= a.rec.req.decode_len
                }
            };
            if !done {
                i += 1;
                continue;
            }
            let mut q = self.running.swap_remove(i).rec;
            retired = true;
            self.victim_index_remove(q.req.id);
            self.kv.release(&q.req);
            if self.role == PoolRole::Prefill {
                let (bytes, _pages, secs) = self
                    .transfer
                    .as_ref()
                    .expect("prefill replicas price transfers")
                    .transfer(q.req.context_len);
                self.ledger.kv_transferred_bytes += bytes;
                self.ledger.handoff_secs.push(secs);
                // This replica's resident KV at retirement is the
                // prompt alone — what utilization accounting should see.
                self.ledger.retired.push(q.req.context_len);
                self.served += 1;
                // A prefill replica never decodes, so nothing generated
                // or owed rides along with the resident prompt.
                debug_assert!(
                    q.resume_done == 0
                        && q.owed == 0
                        && q.first_token.is_none()
                        && q.prefill_end.is_some(),
                    "a handoff carries a resident prompt and nothing else"
                );
                // The decode pool sees the request arrive when its KV
                // finishes landing: rewriting the arrival makes transfer
                // completion an ordinary arrival event there (ceil — the
                // request must not be admittable before the wire drains).
                q.req.arrival_us = ((self.t + secs) * 1e6).ceil() as u64;
                q.handoff = true;
                self.handoffs.push(q);
                continue;
            }
            self.ledger.retired.push(q.req.final_len());
            self.served += 1;
            // Zero-emission requests (decode budget 0, prefill only)
            // contribute no timing sample.
            if let Some(first) = q.first_token {
                self.timings.push(RequestTiming {
                    id: q.req.id,
                    arrival: q.origin_arrival,
                    admitted: q.first_admitted.expect("a running request was admitted"),
                    prefill_end: q
                        .prefill_end
                        .expect("a retired request's prompt is resident"),
                    first_token: first,
                    finished: self.t,
                    decode_len: q.req.decode_len,
                    priority: q.req.priority,
                    tenant: q.req.tenant,
                    evictions: q.evictions,
                    restart_secs: q.restart_secs,
                });
            }
        }
        if retired {
            self.batch_version += 1;
        }
    }

    /// Plans which running requests to evict so a blocked candidate
    /// needing `need` reservation bytes fits. Victims must have strictly
    /// lower priority than `priority` (so uniform-priority traces never
    /// evict, and eviction chains strictly descend — no thrashing);
    /// among them, the lowest priority goes first and, within a class,
    /// the [`VictimOrder`] knob picks the victim: most recently admitted
    /// (the least progress is lost) or most remaining SLO slack
    /// (deadline-monotonic — the latest TTFT deadline) — a prefix walk
    /// of the incrementally maintained [`VictimEntry`] index, where the
    /// historical implementation re-filtered and re-sorted the running
    /// batch per blocked candidate (cross-checked against that reference
    /// under `debug_assertions`). Returns `None` — and evicts nobody —
    /// when even the full victim set would not make the candidate fit.
    fn plan_eviction(&self, need: u64, priority: u8) -> Option<Vec<u64>> {
        if !self.preempt.evicts() {
            return None;
        }
        debug_assert!(
            self.victim_index
                .windows(2)
                .all(|w| match self.victim_order {
                    VictimOrder::RecentFirst =>
                        (w[0].priority, Reverse(w[0].seq)) <= (w[1].priority, Reverse(w[1].seq)),
                    VictimOrder::SlackFirst =>
                        (
                            w[0].priority,
                            Reverse(w[0].deadline_bits),
                            Reverse(w[0].seq)
                        ) <= (
                            w[1].priority,
                            Reverse(w[1].deadline_bits),
                            Reverse(w[1].seq)
                        ),
                }),
            "victim index stays sorted by the active eviction order"
        );
        let mut used = self.kv.used();
        let mut occupancy = self.running.len();
        let mut chosen = Vec::new();
        for e in &self.victim_index {
            if e.priority >= priority || self.kv.fits_given(need, used, occupancy) {
                break;
            }
            used = used.saturating_sub(e.reserved);
            occupancy -= 1;
            chosen.push(e.id);
        }
        let ok = !chosen.is_empty() && self.kv.fits_given(need, used, occupancy);
        debug_assert_eq!(
            (ok, chosen.clone()),
            {
                // Sort-based reference: the historical victim selection.
                let mut victims: Vec<&Active> = self
                    .running
                    .iter()
                    .filter(|a| a.rec.req.priority < priority)
                    .collect();
                match self.victim_order {
                    VictimOrder::RecentFirst => {
                        victims.sort_by_key(|a| (a.rec.req.priority, Reverse(a.seq)));
                    }
                    VictimOrder::SlackFirst => victims.sort_by_key(|a| {
                        (
                            a.rec.req.priority,
                            Reverse(self.deadline_bits(&a.rec.req)),
                            Reverse(a.seq),
                        )
                    }),
                }
                let mut used_r = self.kv.used();
                let mut occ_r = self.running.len();
                let mut chosen_r = Vec::new();
                for v in victims {
                    if self.kv.fits_given(need, used_r, occ_r) {
                        break;
                    }
                    // Under paged KV a victim's reservation is its
                    // admission-time referenced-page delta, not a pure
                    // function of its lengths — read it off the index
                    // entry (what the walk above consumed, too). A
                    // whole request reserved its role-aware length.
                    let reserved_r = match self.kv.paged() {
                        Some(_) => {
                            self.victim_index
                                .iter()
                                .find(|e| e.id == v.rec.req.id)
                                .expect("every running request is indexed")
                                .reserved
                        }
                        None => self.kv.queue_reservation(&v.rec.req),
                    };
                    used_r = used_r.saturating_sub(reserved_r);
                    occ_r -= 1;
                    chosen_r.push(v.rec.req.id);
                }
                let ok_r = !chosen_r.is_empty() && self.kv.fits_given(need, used_r, occ_r);
                (ok_r, chosen_r)
            },
            "victim index must match the sort-based reference"
        );
        ok.then_some(chosen)
    }

    /// Drops a no-longer-running request from the victim index (no-op
    /// when the preemption policy cannot evict — the index is then never
    /// populated).
    fn victim_index_remove(&mut self, id: u64) {
        if !self.preempt.evicts() {
            return;
        }
        let pos = self
            .victim_index
            .iter()
            .position(|e| e.id == id)
            .expect("every running request is indexed");
        self.victim_index.remove(pos);
    }

    /// Evicts one running request: releases its KV reservation, records
    /// the discarded work, and re-enqueues it at its arrival-order
    /// position for later re-admission (see
    /// [`crate::policy::PreemptionPolicy`] for what survives).
    fn evict(&mut self, id: u64) {
        let idx = self
            .running
            .iter()
            .position(|a| a.rec.req.id == id)
            .expect("victim is running");
        let Active {
            rec: mut q,
            done,
            prefilled,
            prefill_target,
            ..
        } = self.running.swap_remove(idx);
        self.victim_index_remove(id);
        self.kv.release(&q.req);
        self.ledger.evictions += 1;
        self.batch_version += 1;

        // Generated tokens kept across the eviction (pause) vs dropped
        // (restart); fresh-this-residency generation separates kept
        // tokens from ones already re-prefilled once.
        let fresh_decode = done - q.resume_done;
        // Page-granular reclamation: the victim's shared-prefix pages
        // stay resident (referenced by other sequences or newly cached),
        // so that part of its prompt is not re-prefill work. Should the
        // pool later reclaim those pages before re-use, the recompute
        // attribution at re-admission restores the waste.
        let preserved = self
            .kv
            .paged()
            .map_or(0, |p| p.shared_tokens(&q.req).min(prefilled));
        let (keep, reprefill, redecode) = match self.preempt {
            PreemptionPolicy::EvictPause => (
                done,
                (prefilled + fresh_decode).saturating_sub(preserved),
                0,
            ),
            PreemptionPolicy::EvictRestart => (0, prefilled.saturating_sub(preserved), done),
            PreemptionPolicy::None => unreachable!("plan_eviction never evicts under None"),
        };
        self.ledger.reprefill_tokens += reprefill;
        self.ledger.redecode_tokens += redecode;
        if preserved > 0 {
            if let KvStore::Paged(p) = &mut self.kv.store {
                // Remember the waived re-prefill: if the pool reclaims
                // the shared pages before this request is readmitted,
                // the shortfall is billed as wasted prefill then.
                p.discounted.insert(id, preserved);
            }
        }

        q.resume_done = keep;
        // Unfinished re-work carries over; the new target's worth of
        // already-computed tokens joins it (clamped at admission).
        q.owed = q.owed.saturating_add(reprefill);
        q.evictions += 1;
        // Eviction dropped the KV — transferred or not — so a
        // re-admission genuinely re-prefills the prompt.
        q.handoff = false;
        if self.prefill.enabled {
            // The backlog still carried this request's unprocessed
            // remainder; after the eviction its whole new target must be
            // prefilled from scratch.
            let remainder = prefill_target - prefilled;
            self.prefill_backlog = self
                .prefill_backlog
                .saturating_add(q.prefill_target())
                .saturating_sub(remainder);
        }
        self.pending.reinsert(q);
    }

    /// Executes one mixed prefill step: the highest-priority (then
    /// FCFS-oldest) prefilling request advances one prompt chunk while
    /// the decoding batch (if any) advances one token. The prompt chunk
    /// runs first within the step, so a prompt completed mid-step starts
    /// decoding at the *next* step. Defers — `Err` carrying the step's
    /// end time as the next-event bound — if the step would end past
    /// `limit` (pricing stays cached for the revisit).
    fn mixed_step(&mut self, limit: f64) -> Result<(), f64> {
        let pi = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.prompt_ready())
            .min_by_key(|(_, a)| a.rec.prefill_order())
            .map(|(i, _)| i)
            .expect("a prefilling request exists");
        let (price, pchunk, it, batch_len) = match self.cached_step {
            Some((
                v,
                PlannedStep::Mixed {
                    price,
                    pchunk,
                    it,
                    batch_len,
                },
            )) if v == self.batch_version => (price, pchunk, it, batch_len),
            _ => {
                let a = &self.running[pi];
                let pchunk = self
                    .prefill
                    .chunk_tokens
                    .min(a.prefill_target - a.prefilled);
                let price =
                    self.ledger
                        .prefill_prices
                        .intern(self.eval, &self.stage, a.prefilled, pchunk);
                let mut batch = std::mem::take(&mut self.batch_buf);
                batch.clear();
                batch.extend(
                    self.running
                        .iter()
                        .filter(|a| a.prompt_ready() && a.done < a.rec.req.decode_len)
                        .map(|a| (a.rec.req.id, a.rec.req.context_len + a.done)),
                );
                let it = if batch.is_empty() {
                    None
                } else {
                    Some(self.stage.iteration(&batch))
                };
                let batch_len = batch.len();
                self.batch_buf = batch;
                self.cached_step = Some((
                    self.batch_version,
                    PlannedStep::Mixed {
                        price,
                        pchunk,
                        it,
                        batch_len,
                    },
                ));
                (price, pchunk, it, batch_len)
            }
        };
        let pre_secs = self.ledger.prefill_prices[price].secs;
        let secs = pre_secs + it.map_or(0.0, |it| it.seconds);
        if self.t + secs > limit {
            return Err(self.t + secs);
        }
        let step_start = self.t;
        // The leading `owed` tokens of a post-eviction prefill pass are
        // re-work: bill their pro-rata share of the chunk to the restart
        // bucket so the first-pass prefill story stays honest.
        let owed_used = pchunk.min(self.running[pi].rec.owed);
        let restart = if owed_used > 0 {
            pre_secs * owed_used as f64 / pchunk as f64
        } else {
            0.0
        };
        self.ledger.prefill(price, pchunk, restart);
        self.prefill_backlog = self.prefill_backlog.saturating_sub(pchunk);
        if let Some(it) = it {
            self.ledger.decode(self.eval, &it, batch_len, 1, it.seconds);
            for a in &mut self.running {
                if a.prompt_ready() && a.done < a.rec.req.decode_len {
                    if a.rec.first_token.is_none() {
                        a.rec.first_token = Some(step_start + secs);
                    }
                    a.done += 1;
                }
            }
        }
        let a = &mut self.running[pi];
        a.prefilled += pchunk;
        a.rec.owed -= owed_used;
        a.rec.restart_secs += restart;
        if a.prompt_ready() && a.rec.prefill_end.is_none() {
            a.rec.prefill_end = Some(step_start + pre_secs);
        }
        self.t += secs;
        self.busy += secs;
        self.batch_version += 1;
        Ok(())
    }

    /// Executes one pure decode chunk with a constant batch, cut at the
    /// earliest completion and at the next admissible arrival, and
    /// priced at its midpoint step — per-step exact under the affine
    /// kernel model, the same rule as the wave policy. Defers — `Err`
    /// carrying the chunk's end time as the next-event bound — if the
    /// chunk would end past `limit` (the stride-bounded pricing stays
    /// cached for the revisit).
    fn decode_chunk(&mut self, limit: f64) -> Result<(), f64> {
        let eval = self.eval;
        let stride = eval.policies().stride;
        let min_remaining = self
            .running
            .iter()
            .map(|a| a.rec.req.decode_len - a.done)
            .min()
            .expect("nonempty running batch");
        let c0 = stride.min(min_remaining);
        let it0 = match self.cached_step {
            Some((v, PlannedStep::Decode { it, c0: c })) if v == self.batch_version && c == c0 => {
                it
            }
            _ => {
                let mut batch = std::mem::take(&mut self.batch_buf);
                batch.clear();
                batch.extend(
                    self.running
                        .iter()
                        .map(|a| (a.rec.req.id, a.rec.req.context_len + a.done + (c0 - 1) / 2)),
                );
                let it = self.stage.iteration(&batch);
                self.batch_buf = batch;
                self.cached_step = Some((self.batch_version, PlannedStep::Decode { it, c0 }));
                it
            }
        };
        let per_step = it0.seconds;
        let mut chunk = c0;
        // Cut the chunk at the next arrival that could actually join,
        // so admission is not delayed by up to a whole stride. On the
        // FCFS fast path (every priority 0) only the queue front can be
        // admitted next, and only if it fits — the historical rule,
        // preserved bit-exactly. With priorities in play, a later
        // higher-priority arrival can leapfrog a blocked head (and
        // under an eviction policy claim room that does not exist yet),
        // so any future arrival conservatively ends the chunk and lets
        // the admission sweep decide.
        if per_step > 0.0 {
            let cut_arrival = if self.saw_priority {
                self.pending.next_arrival_after(self.t)
            } else {
                self.pending.earliest().and_then(|front| {
                    let arr = front.req.arrival_secs();
                    let fits = self
                        .kv
                        .fits(self.kv.admission_need(&front.req), self.running.len());
                    (arr > self.t && fits).then_some(arr)
                })
            };
            if let Some(arr) = cut_arrival {
                let steps_until = ((arr - self.t) / per_step).ceil().max(1.0);
                if (steps_until as u64) < chunk {
                    chunk = steps_until as u64;
                }
            }
        }
        let it = if chunk == c0 {
            it0
        } else {
            // An arrival cut shortened the chunk: re-price at the
            // shorter chunk's own midpoint.
            let mut batch = std::mem::take(&mut self.batch_buf);
            batch.clear();
            batch.extend(self.running.iter().map(|a| {
                (
                    a.rec.req.id,
                    a.rec.req.context_len + a.done + (chunk - 1) / 2,
                )
            }));
            let it = self.stage.iteration(&batch);
            self.batch_buf = batch;
            it
        };
        let secs = it.seconds * chunk as f64;
        // Defer chunks ending past the routing frontier: an arrival
        // not yet routed to this replica could still cut them.
        if self.t + secs > limit {
            return Err(self.t + secs);
        }
        let batch_len = self.running.len();
        self.ledger.decode(eval, &it, batch_len, chunk, secs);
        for a in &mut self.running {
            if a.rec.first_token.is_none() {
                a.rec.first_token = Some(self.t + it.seconds);
            }
            a.done += chunk;
        }
        self.t += secs;
        self.busy += secs;
        self.batch_version += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival_us: u64, priority: u8) -> Request {
        Request {
            id,
            context_len: 100,
            decode_len: 10,
            arrival_us,
            priority,
            tenant: 0,
            shared_prefix: 0,
        }
    }

    /// A fresh record whose queue reservation is `id + 1` bytes.
    fn queued(id: u64, arrival_us: u64, priority: u8) -> Queued {
        Queued::fresh(req(id, arrival_us, priority), id + 1)
    }

    #[test]
    fn lanes_admit_in_priority_then_fcfs_order() {
        let mut q = PendingQueue::new(false);
        // Arrival order (the only legal push order): interleaves classes.
        q.push_back(queued(0, 100, 0));
        q.push_back(queued(1, 200, 2));
        q.push_back(queued(2, 300, 0));
        q.push_back(queued(3, 400, 2));
        q.push_back(queued(4, 500, 1));
        assert_eq!(q.len(), 5);
        assert_eq!(q.reserved(), 1 + 2 + 3 + 4 + 5);
        assert_eq!(q.earliest().unwrap().req.id, 0);
        // Nothing arrived yet.
        assert!(q.peek_candidate(50e-6).is_none());
        // Everything arrived: highest class first, FCFS within it.
        let mut order = Vec::new();
        while let Some(c) = q.peek_candidate(1.0).copied() {
            assert_eq!(q.pop_candidate(c.req.priority).req.id, c.req.id);
            order.push(c.req.id);
        }
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
        assert_eq!((q.len(), q.reserved()), (0, 0));
    }

    #[test]
    fn candidate_respects_arrival_cutoff_across_lanes() {
        let mut q = PendingQueue::new(false);
        q.push_back(queued(0, 1_000_000, 0)); // t = 1.0s
        q.push_back(queued(1, 2_000_000, 5)); // t = 2.0s
                                              // Only the low-priority request has arrived at t=1.5s.
        assert_eq!(q.peek_candidate(1.5).unwrap().req.id, 0);
        // Both arrived: the high-priority one wins.
        assert_eq!(q.peek_candidate(2.5).unwrap().req.id, 1);
        // Next strictly-future arrival from t=1.0 is the 2.0s request.
        assert_eq!(q.next_arrival_after(1.0), Some(2.0));
        assert_eq!(q.next_arrival_after(2.0), None);
    }

    #[test]
    fn reinsert_restores_arrival_order_within_class() {
        let mut q = PendingQueue::new(false);
        q.push_back(queued(0, 100, 1));
        q.push_back(queued(2, 300, 1));
        // An eviction re-enqueues an older arrival mid-class.
        q.reinsert(queued(1, 200, 1));
        assert_eq!(q.reserved(), 1 + 2 + 3);
        let mut order = Vec::new();
        while let Some(c) = q.peek_candidate(1.0).copied() {
            order.push(q.pop_candidate(c.req.priority).req.id);
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fifo_mode_drains_in_insertion_order_ignoring_priority() {
        let mut q = PendingQueue::new(true);
        // Wave routing is trace order: arrivals may be out of order and
        // priorities are ignored.
        q.push_back(queued(0, 900, 0));
        q.push_back(queued(1, 100, 7));
        q.push_back(queued(2, 500, 3));
        let ids: Vec<u64> = q.drain_fifo().into_iter().map(|p| p.req.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!((q.len(), q.reserved()), (0, 0));
    }

    /// The admission-order invariant the lane queue relies on (see the
    /// [`PendingQueue`] docs): continuous-mode pushes must arrive in
    /// nondecreasing `(arrival_us, id)` order — the order
    /// [`workload::Trace::arrival_ordered`] routes in. Violating it is a
    /// debug-assertion failure, not silent misordering.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing (arrival_us, id) order")]
    fn out_of_order_push_trips_the_invariant_assert() {
        let mut q = PendingQueue::new(false);
        q.push_back(queued(0, 500, 0));
        q.push_back(queued(1, 100, 0));
    }

    /// The recompute-attribution contract of satellite waste accounting:
    /// an eviction waives the re-prefill of the victim's still-resident
    /// shared pages (discounted from `Ledger::reprefill_tokens`), but if
    /// the pool reclaims those pages before the victim is readmitted,
    /// the readmission bills the shortfall — `Ledger::recompute_tokens`
    /// — so `wasted_prefill_tokens` still counts every prompt token that
    /// is genuinely prefilled twice.
    #[test]
    fn reclaimed_prefix_pages_bill_recompute_on_readmission() {
        use crate::config::{SystemConfig, Techniques};
        use crate::{PagedKvConfig, PolicySpec};
        use llm_model::LLM_7B_32K;

        let page_bytes = PagedKvConfig::DEFAULT_PAGE_BYTES;
        let base = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        // Exactly a 12-page pool: the interactive burst (11 pages) must
        // both evict the worker (8 pages) and then reclaim 3 of its 4
        // cached prefix pages to fit.
        let factor = 12.5 * page_bytes as f64 / base.replica_kv_capacity() as f64;
        let eval = base.with_policies(PolicySpec {
            prefill: PrefillConfig::chunked(512),
            preemption: PreemptionPolicy::EvictRestart,
            paged_kv: PagedKvConfig::paged(page_bytes),
            kv_capacity_factor: factor,
            ..Default::default()
        });
        let pt = eval.page_tokens();
        let worker = |arrival_us: u64| Request {
            id: 0,
            context_len: 4 * pt,
            decode_len: 4 * pt,
            arrival_us,
            priority: 0,
            tenant: 0,
            shared_prefix: 4 * pt, // the whole prompt is shared pages
        };
        // Calibrate the burst arrival to the middle of the worker's
        // solo run, comfortably inside its decode phase.
        let solo_end = {
            let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 4 * pt);
            sim.enqueue(worker(0));
            sim.finish();
            sim.end_time()
        };
        let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 4 * pt);
        sim.enqueue(worker(0));
        sim.enqueue(Request {
            id: 1,
            context_len: 10 * pt,
            decode_len: pt,
            arrival_us: (solo_end * 0.75 * 1e6) as u64,
            priority: 1,
            tenant: 1,
            shared_prefix: 0,
        });
        sim.finish();

        // The worker was evicted once — with its entire prefilled
        // prompt discounted (the 4 shared pages were still resident).
        let l = &sim.ledger;
        assert_eq!(l.evictions, 1, "exactly one eviction");
        assert_eq!(
            l.reprefill_tokens, 0,
            "resident shared pages waive re-prefill"
        );
        assert!(l.redecode_tokens > 0, "restart regenerates decoded tokens");
        // The burst reclaimed the worker's cached chain tail-first,
        // leaving one page resident.
        assert_eq!(l.pages_evicted, 3, "burst reclaims 3 of the 4 cached pages");
        // Readmission hits the surviving page and bills the 3 reclaimed
        // pages' tokens as recompute — the discount that did not hold.
        // Only the one eviction left a discount to bill, and it was
        // consumed, so the recompute total is that one readmission's;
        // it was also the only admission that hit the cache.
        assert!(
            sim.kv.paged().is_some_and(|p| p.discounted.is_empty()),
            "the eviction's discount was billed at readmission"
        );
        assert_eq!(l.recompute_tokens, 3 * pt);
        assert_eq!((l.prefix_cache_hits, l.prefix_hit_tokens), (1, pt));
    }

    /// The ledger holds one record per executed chunk, so the record
    /// sizes are the accounting's memory per simulated step. A decode
    /// record must stay well below the 104-byte `IterationBreakdown` it
    /// is derived from; a prefill record is a reference to its interned
    /// price.
    #[test]
    fn step_record_stays_compact() {
        let decode = std::mem::size_of::<DecodeRecord>();
        assert!(decode <= 80, "DecodeRecord grew to {decode} bytes");
        let prefill = std::mem::size_of::<PrefillRecord>();
        assert!(prefill <= 16, "PrefillRecord grew to {prefill} bytes");
    }

    #[test]
    fn prefill_prices_equal_fresh_pricing() {
        // Chunks that share an offset or a size, each asked for twice
        // under different request ids: every distinct chunk is priced
        // once, a repeat returns the first answer's index, and every
        // interned product equals pricing the chunk afresh.
        use crate::config::{SystemConfig, Techniques};
        use llm_model::LLM_7B_32K;
        use std::collections::BTreeSet;

        let eval = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        let stage = eval.stage_model();
        let mut prices = PrefillPrices::default();
        let chunks: Vec<(u64, u64)> = [0u64, 500, 4096]
            .into_iter()
            .flat_map(|d| (1..=300u64).map(move |c| (d, c)))
            .chain((0..300u64).map(|k| (16 * k, 512)))
            .collect();
        let distinct: BTreeSet<(u64, u64)> = chunks.iter().copied().collect();
        let first: Vec<u32> = chunks
            .iter()
            .map(|&(done, chunk)| prices.intern(&eval, &stage, done, chunk))
            .collect();
        assert_eq!(
            prices.len(),
            distinct.len(),
            "one pricing per distinct chunk"
        );
        for (i, &(done, chunk)) in chunks.iter().enumerate() {
            let idx = prices.intern(&eval, &stage, done, chunk);
            assert_eq!(idx, first[i], "done {done} chunk {chunk}");
            assert_eq!(prices.keys()[idx as usize], (done, chunk));
            let pre = stage.prefill_chunk(done, chunk);
            let fresh = PrefillPrice {
                secs: pre.seconds,
                util_weight: pre.attn_utilization * pre.seconds,
                energy: energy_terms(&eval, &pre, 1.0),
            };
            assert_eq!(prices[idx], fresh, "done {done} chunk {chunk}");
        }
        assert_eq!(prices.len(), distinct.len(), "repeats price nothing");
    }

    /// A request whose KV footprint exceeds the whole page pool cannot
    /// be admitted as is. The empty-batch guarantee of
    /// `KvMemory::fits_given` still admits it alone, and
    /// `KvMemory::admit` clamps its footprint to the
    /// pool instead of deadlocking — the `Err` branch, whose
    /// `debug_assert` (checked in debug builds) is that the batch is
    /// empty. Two such requests queue behind each other and both run.
    #[test]
    fn oversize_request_is_clamped_to_an_empty_pool() {
        use crate::config::{SystemConfig, Techniques};
        use crate::{PagedKvConfig, PolicySpec};
        use llm_model::LLM_7B_32K;

        let page_bytes = PagedKvConfig::DEFAULT_PAGE_BYTES;
        let base = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        // A 4-page pool.
        let factor = 4.5 * page_bytes as f64 / base.replica_kv_capacity() as f64;
        let eval = base.with_policies(PolicySpec {
            prefill: PrefillConfig::chunked(512),
            paged_kv: PagedKvConfig::paged(page_bytes),
            kv_capacity_factor: factor,
            ..Default::default()
        });
        let pt = eval.page_tokens();
        let oversize = |id: u64| Request {
            id,
            context_len: 10 * pt,
            decode_len: 4,
            arrival_us: 0,
            priority: 0,
            tenant: 0,
            shared_prefix: 6 * pt,
        };
        let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 10 * pt + 4);
        sim.enqueue(oversize(0));
        sim.enqueue(oversize(1));
        sim.finish();
        let pool_pages = sim.kv.paged().expect("paged KV is on").pool.total_pages();
        assert_eq!(pool_pages, 4);
        assert_eq!(sim.served, 2, "both oversize requests run");
        assert_eq!(sim.ledger.tokens, 8);
        assert_eq!(
            sim.peak_reserved,
            pool_pages * page_bytes,
            "the footprint is clamped to the whole pool"
        );
        // The second request finds the first one's shared pages cached.
        assert_eq!(sim.ledger.prefix_cache_hits, 1);
    }

    /// On a `Prefill`-role replica the pre-step sweep runs only in a
    /// loop iteration that admitted a request, and every executed step
    /// is followed by one more, so the sweeps are the admitting
    /// iterations plus the steps. A fully prefix-cached admission is
    /// prompt-ready at admission and still retires there, without a
    /// step.
    #[test]
    fn prefill_replica_sweeps_after_admissions_and_steps() {
        use crate::config::{SystemConfig, Techniques};
        use crate::{PagedKvConfig, PolicySpec};
        use llm_model::LLM_7B_32K;

        let eval = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        )
        .with_policies(PolicySpec {
            prefill: PrefillConfig::chunked(512),
            paged_kv: PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES),
            ..Default::default()
        })
        .with_pool_role(PoolRole::Prefill);
        // 1,024-token prompts: two 512-token chunks each.
        let pages = 1024 / eval.page_tokens();
        let prompt = |id: u64, arrival_us: u64, tenant: u8, shared_pages: u64| Request {
            id,
            context_len: pages * eval.page_tokens(),
            decode_len: 8,
            arrival_us,
            priority: 0,
            tenant,
            shared_prefix: shared_pages * eval.page_tokens(),
        };
        let solo_end = {
            let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 1032);
            sim.enqueue(prompt(0, 0, 0, pages));
            sim.finish();
            sim.end_time()
        };
        let at = |frac: f64| (solo_end * frac * 1e6) as u64;
        let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 1032);
        // Two prompts admitted together, one admitted mid-prefill, and
        // a repeat of the first prompt arriving long after its pages
        // were cached.
        sim.enqueue(prompt(0, 0, 0, pages));
        sim.enqueue(prompt(1, 0, 1, 0));
        sim.enqueue(prompt(2, at(0.5), 1, 0));
        sim.enqueue(prompt(3, at(10.0), 0, pages));
        SWEEPS.set(0);
        // Advance in small increments so steps defer at the frontier.
        let mut limit = 0.0;
        while limit < 12.0 * solo_end {
            sim.advance_to(limit);
            limit += solo_end / 7.0;
        }
        sim.finish();

        let l = &sim.ledger;
        assert!(l.decodes.is_empty(), "a prefill replica never decodes");
        assert_eq!(
            l.prefills.len(),
            6,
            "three uncached prompts, two chunks each"
        );
        assert_eq!(l.waves, 3, "three admitting iterations");
        assert_eq!(SWEEPS.get(), u64::from(l.waves) + l.prefills.len() as u64);
        assert_eq!(sim.handoffs.len(), 4);
        let cached = sim
            .handoffs
            .iter()
            .find(|h| h.req.id == 3)
            .expect("the cached prompt is handed off");
        assert_eq!(cached.first_admitted, Some(cached.origin_arrival));
        assert_eq!(
            cached.prefill_end, cached.first_admitted,
            "retired at admission"
        );
        assert_eq!(l.prefix_hit_tokens, pages * eval.page_tokens());
    }

    #[test]
    fn admission_need_follows_pool_changes() {
        // The cached prefix lookup must be dropped whenever the pool
        // changes: a sharer's admission makes the prefix resident
        // (need falls), its release leaves the pages cached (need
        // rises again, as re-referencing cached pages costs them).
        use crate::config::{SystemConfig, Techniques};
        use crate::{PagedKvConfig, PolicySpec};
        use llm_model::LLM_7B_32K;

        let eval = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        )
        .with_policies(PolicySpec {
            paged_kv: PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES),
            ..Default::default()
        });
        let pt = eval.page_tokens();
        let shared = |id: u64| Request {
            id,
            context_len: 6 * pt,
            decode_len: pt,
            arrival_us: 0,
            priority: 0,
            tenant: 3,
            shared_prefix: 4 * pt,
        };
        let (a, b) = (shared(0), shared(1));
        let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, 7 * pt);
        sim.enqueue(a);
        sim.enqueue(b);
        let page_bytes = PagedKvConfig::DEFAULT_PAGE_BYTES;
        let fresh = |sim: &ReplicaSim| {
            let p = sim.kv.paged().expect("paged KV is on");
            let hit = p.pool.lookup(u64::from(b.tenant), p.shared_pages(&b));
            (7 - hit.hit_pages + hit.hit_cached_pages) * page_bytes
        };
        let cold = sim.kv.admission_need(&b);
        assert_eq!(cold, 7 * page_bytes);
        assert_eq!(sim.kv.admission_need(&b), cold, "a repeat answers the same");
        sim.kv.admit(&a, 0, &mut sim.ledger);
        let resident = sim.kv.admission_need(&b);
        assert_eq!(resident, fresh(&sim));
        assert_eq!(resident, 3 * page_bytes, "the 4 shared pages are resident");
        sim.kv.release(&a);
        let cached = sim.kv.admission_need(&b);
        assert_eq!(cached, fresh(&sim));
        assert_eq!(cached, cold, "re-referencing cached pages costs them");
    }

    fn pimphony_eval() -> Evaluator {
        use crate::config::{SystemConfig, Techniques};
        use llm_model::LLM_7B_32K;
        Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        )
    }

    #[test]
    fn kv_memory_mirrors_wave_greedy_count() {
        use workload::{Dataset, TraceBuilder};
        let e = pimphony_eval();
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(9)
            .requests(64)
            .decode_len(32)
            .build();
        let reqs = trace.requests();
        let t_max = reqs.iter().map(|r| r.final_len()).max().unwrap();
        let greedy = policy::wave_greedy_admit(&e, reqs, t_max);

        let mut kv = KvMemory::new(&e, SchedulingPolicy::Continuous, PoolRole::Mixed, t_max);
        let mut ledger = Ledger::default();
        let mut n = 0usize;
        for r in reqs {
            let need = kv.admission_need(r);
            assert_eq!(need, e.kv_reservation(r.final_len(), t_max));
            if !kv.fits_given(need, kv.used(), n) {
                break;
            }
            kv.admit(r, n, &mut ledger);
            n += 1;
        }
        // Incremental admission packs at least as tightly as the wave
        // loop's greedy scan (which also stops at the `used >= capacity`
        // boundary), and never less than one.
        assert!(
            n >= greedy.min(reqs.len()).saturating_sub(1).max(1),
            "{n} vs greedy {greedy}"
        );
    }

    #[test]
    fn released_memory_is_reusable() {
        use workload::{Dataset, TraceBuilder};
        let e = pimphony_eval();
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(3)
            .requests(4)
            .decode_len(8)
            .build();
        let r = trace.requests()[0];
        let t_max = r.final_len();
        let mut kv = KvMemory::new(&e, SchedulingPolicy::Continuous, PoolRole::Mixed, t_max);
        let mut ledger = Ledger::default();
        kv.admit(&r, 0, &mut ledger);
        let used_before = kv.used();
        kv.release(&r);
        assert_eq!(kv.used(), 0);
        kv.admit(&r, 0, &mut ledger);
        assert_eq!(kv.used(), used_before);
    }

    /// On a `Prefill`-role replica a whole-request admission reserves
    /// the prompt alone, and under DPA that differs from the
    /// whole-request reservation. Two prompts of `n` tokens fill the
    /// memory, and a higher-priority prompt of `n + 2` tokens needs
    /// both evicted: after one, the survivor plus the candidate exceed
    /// the capacity by half a 2-token difference. The debug-build
    /// reference in `plan_eviction` must price the victims the same
    /// way admission did.
    #[test]
    fn prefill_replica_evicts_by_prompt_reservations() {
        use crate::PolicySpec;
        let base = pimphony_eval().with_pool_role(PoolRole::Prefill);
        let (n, decode) = (8_192, 20_000);
        let t_max = n + decode;
        let low = base.kv_reservation(n, t_max);
        let high = base.kv_reservation(n + 2, t_max);
        let capacity = 2 * low + (high - low) / 2;
        let factor = capacity as f64 / base.replica_kv_capacity() as f64;
        let eval = base.with_policies(PolicySpec {
            prefill: PrefillConfig::chunked(512),
            preemption: PreemptionPolicy::EvictRestart,
            kv_capacity_factor: factor,
            ..Default::default()
        });
        let prompt = |id: u64, context_len: u64, arrival_us: u64, priority: u8| Request {
            id,
            context_len,
            decode_len: decode,
            arrival_us,
            priority,
            tenant: 0,
            shared_prefix: 0,
        };
        let solo_end = {
            let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, t_max);
            sim.enqueue(prompt(0, n, 0, 0));
            sim.finish();
            sim.end_time()
        };
        let mut sim = ReplicaSim::new(&eval, SchedulingPolicy::Continuous, t_max);
        sim.enqueue(prompt(0, n, 0, 0));
        sim.enqueue(prompt(1, n, 0, 0));
        sim.enqueue(prompt(2, n + 2, (solo_end * 0.25 * 1e6) as u64, 1));
        sim.finish();
        assert_eq!(sim.ledger.evictions, 2, "both prompts make room");
        assert_eq!(sim.served, 3);
    }

    /// The history a request carries across an eviction and a handoff.
    /// On a `Prefill`-role replica under `EvictRestart`, a low-priority
    /// prompt is evicted mid-prefill by a high-priority one, re-admitted
    /// and handed off: its record keeps the eviction, the re-prefill
    /// seconds, the *first* admission instant and the origin arrival.
    /// On a decode replica a later high-priority handoff evicts it
    /// again, which drops the transferred KV: the requeued record is no
    /// longer a handoff, and re-admission prefills the prompt again.
    #[test]
    fn evicted_request_carries_its_history_through_a_handoff() {
        use crate::PolicySpec;
        let base = pimphony_eval();
        let (n, decode) = (8_192, 20_000);
        let t_max = n + decode;
        let low = base.kv_reservation(n, t_max);
        // One prompt reservation fits, two do not.
        let factor = (low + low / 2) as f64 / base.replica_kv_capacity() as f64;
        let policies = PolicySpec {
            prefill: PrefillConfig::chunked(512),
            preemption: PreemptionPolicy::EvictRestart,
            kv_capacity_factor: factor,
            ..Default::default()
        };
        let prefill_eval = base
            .with_policies(policies)
            .with_pool_role(PoolRole::Prefill);
        let prompt = |id: u64, arrival_us: u64, priority: u8| Request {
            id,
            context_len: n,
            decode_len: decode,
            arrival_us,
            priority,
            tenant: 0,
            shared_prefix: 0,
        };
        let solo_end = {
            let mut sim = ReplicaSim::new(&prefill_eval, SchedulingPolicy::Continuous, t_max);
            sim.enqueue(prompt(0, 0, 0));
            sim.finish();
            sim.end_time()
        };
        let urgent_at = (solo_end * 0.25 * 1e6) as u64;
        let mut pre = ReplicaSim::new(&prefill_eval, SchedulingPolicy::Continuous, t_max);
        pre.enqueue(prompt(0, 0, 0));
        pre.enqueue(prompt(1, urgent_at, 1));
        pre.finish();
        assert_eq!(
            pre.ledger.evictions, 1,
            "the urgent prompt evicts the first"
        );
        let [urgent, evicted] = [1, 0].map(|id| {
            *pre.handoffs
                .iter()
                .find(|h| h.req.id == id)
                .expect("both prompts are handed off")
        });
        assert!(evicted.handoff && urgent.handoff);
        assert_eq!(evicted.evictions, 1);
        assert!(evicted.restart_secs > 0.0, "the re-prefill is billed");
        assert_eq!(evicted.first_admitted, Some(0.0), "the first admission");
        assert_eq!(evicted.origin_arrival, 0.0);
        assert!(evicted.req.arrival_secs() > urgent.req.arrival_secs());
        assert_eq!(urgent.evictions, 0);
        assert_eq!(urgent.restart_secs, 0.0);
        assert_eq!(urgent.origin_arrival, urgent_at as f64 * 1e-6);

        // The decode side: the evicted record arrives first and starts
        // decoding; the urgent one arrives a millisecond later.
        let decode_eval = pimphony_eval()
            .with_policies(policies)
            .with_pool_role(PoolRole::Decode);
        let mut later = urgent;
        later.req.arrival_us = evicted.req.arrival_us + 1_000;
        let mut dec = ReplicaSim::new(&decode_eval, SchedulingPolicy::Continuous, t_max);
        dec.enqueue_handoff(evicted);
        dec.enqueue_handoff(later);
        // Shortly after the urgent arrival: it has evicted the victim,
        // whose re-admission waits for the urgent request to finish.
        dec.advance_to(later.req.arrival_secs() + 0.1);
        assert_eq!(dec.ledger.evictions, 1);
        let requeued = *dec.pending.earliest().expect("the victim is queued");
        assert_eq!(requeued.req.id, 0);
        assert!(!requeued.handoff, "eviction dropped the transferred KV");
        assert_eq!(requeued.evictions, 2);
        assert_eq!(requeued.first_admitted, Some(0.0));
        dec.finish();
        assert_eq!(dec.ledger.prefill_tokens, n, "only the victim re-prefills");
        let timing = dec
            .timings
            .iter()
            .find(|t| t.id == 0)
            .expect("the victim finishes");
        assert_eq!((timing.arrival, timing.admitted), (0.0, 0.0));
        assert_eq!(timing.evictions, 2);
        assert!(timing.restart_secs > evicted.restart_secs);
    }
}
