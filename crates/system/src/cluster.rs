//! Cluster simulation: routed arrivals over parallel replica sims.
//!
//! The original engine partitioned a trace round-robin *before*
//! simulation started, so replicas never interacted and online load
//! imbalance was invisible. [`run_pools`] instead consumes the
//! globally ordered arrival stream and dispatches each request through a
//! pluggable [`Router`] at its arrival instant, based on the replicas'
//! live load ([`ReplicaLoad`]):
//!
//! * [`RoundRobin`] — ignores load; through the cluster path this is
//!   bit-exact with the old trace-level partitioning (enforced by the
//!   wave-oracle tests, which exercise this path via
//!   [`Evaluator::run_trace`]).
//! * [`JoinShortestQueue`] — fewest in-flight (queued + running)
//!   requests, the classic JSQ policy that absorbs bursts.
//! * [`LeastLoaded`] — fewest reserved KV bytes under the active memory
//!   policy, which sees *request size*, not just count.
//! * [`LeastPrefill`] — least outstanding prompt-processing backlog
//!   (pending prefill tokens), the TTFT-oriented signal when prefill is
//!   modeled.
//! * [`SloAware`] — power-of-two-choices by predicted TTFT slack
//!   against the arriving tenant's SLO; no-SLO tenants spread by
//!   memory footprint instead.
//!
//! During routing, replicas are advanced to each arrival's frontier
//! through an **event calendar**: every `ReplicaSim::advance_to` call
//! returns the replica's next-event bound (the earliest instant its
//! state can change), and only replicas whose bound the frontier has
//! passed are touched — next-event dispatch instead of polling every
//! replica per arrival, bit-exact because advancing a replica below its
//! bound is a state no-op. The drain then runs on [`std::thread::scope`]
//! threads (`run_pools`' `threads`). Parallel and sequential runs produce
//! byte-identical [`ServingReport`]s: routing decisions see identical
//! load snapshots either way, and accounting is replayed from
//! per-replica ledgers in replica-index order, so no
//! float-accumulation order depends on thread scheduling.

use crate::metrics::{LatencyReport, PoolBreakdown, ReplicaBreakdown, RequestTiming};
use crate::policy::{PoolRole, SchedulingPolicy};
use crate::replica::{effective_role, Ledger, Queued, ReplicaSim};
use crate::serve::{Evaluator, ServingReport, TtftPredictor};
use serde::Serialize;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workload::{Request, Trace};

pub use crate::replica::ReplicaLoad;

/// A load-balancing policy dispatching each arrival to one replica.
///
/// Routers see every arrival in global time order together with a load
/// snapshot per replica taken at the arrival instant. Implementations
/// must be deterministic (break ties by `ReplicaLoad::replica`) — the
/// cluster's parallel/sequential bit-exactness guarantee extends only to
/// deterministic routers.
pub trait Router: Send {
    /// Short display label (for report tables).
    fn label(&self) -> &'static str;

    /// Picks the replica `req` is dispatched to. Out-of-range indices
    /// are clamped to the last replica.
    fn route(&mut self, req: &Request, loads: &[ReplicaLoad]) -> usize;

    /// Whether routing decisions read the load snapshots. Stateless
    /// routers (round-robin) return `false`; the cluster then skips
    /// advancing replicas during the routing phase (simulating them
    /// end-to-end in parallel at the drain) and hands `route` placeholder
    /// snapshots carrying only the replica indices.
    fn inspects_load(&self) -> bool {
        true
    }
}

/// Cycles through replicas in dispatch order, ignoring load. Bit-exact
/// with the pre-cluster trace-level partitioning.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn label(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _req: &Request, loads: &[ReplicaLoad]) -> usize {
        let i = self.next % loads.len().max(1);
        self.next = self.next.wrapping_add(1);
        i
    }

    fn inspects_load(&self) -> bool {
        false
    }
}

/// Joins the replica with the fewest in-flight requests (ties to the
/// lowest index).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn label(&self) -> &'static str {
        "jsq"
    }

    fn route(&mut self, _req: &Request, loads: &[ReplicaLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.in_flight, l.replica))
            .map(|l| l.replica)
            .unwrap_or(0)
    }
}

/// Joins the replica with the fewest reserved KV bytes under the active
/// memory policy (ties to the lowest index). Unlike JSQ this sees
/// request *sizes*: one 100K-token context outweighs many short ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn label(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _req: &Request, loads: &[ReplicaLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.reserved_kv, l.replica))
            .map(|l| l.replica)
            .unwrap_or(0)
    }
}

/// Joins the replica with the least outstanding prompt-processing
/// backlog ([`ReplicaLoad::pending_prefill`] — queued prompts plus the
/// unprocessed remainder of running prefills), breaking ties by
/// reserved KV bytes then index. Long prompts serialize through a
/// replica's FCFS prefill stage, so this backlog predicts TTFT more
/// directly than request counts when prefill is modeled; without
/// prefill every backlog is 0 and the router degenerates to
/// [`LeastLoaded`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastPrefill;

impl Router for LeastPrefill {
    fn label(&self) -> &'static str {
        "least-prefill"
    }

    fn route(&mut self, _req: &Request, loads: &[ReplicaLoad]) -> usize {
        loads
            .iter()
            .min_by_key(|l| (l.pending_prefill, l.reserved_kv, l.replica))
            .map(|l| l.replica)
            .unwrap_or(0)
    }
}

/// Routes by predicted TTFT slack against the arriving tenant's SLO,
/// sampling two replicas per arrival (power-of-two-choices) so the
/// decision stays O(1) at 100-replica scale instead of scanning every
/// load snapshot.
///
/// For an interactive arrival (finite `slo_ttft`) the predicted TTFT on
/// a replica is `rate × (pending_prefill + context_len)` — the
/// [`TtftPredictor`]'s optimistic queueing + prefill bound, where the
/// prompt backlog ahead of the request must drain through the FCFS
/// prefill stage first. The sampled replica with the smaller bound has
/// the most remaining slack and wins; if even that bound misses the
/// SLO, the router falls back to one full scan (the rare overloaded
/// case — trading the O(1) budget for the request's deadline).
/// No-SLO (batch) arrivals have unbounded slack on every replica, so
/// they spread by memory footprint instead, keeping KV headroom on the
/// replicas interactive work will sample next.
///
/// Sampling uses a deterministically seeded xorshift64 generator.
/// Routing runs on the single coordinator thread in global arrival
/// order, so the stateful RNG preserves the cluster's bit-exactness
/// guarantee across thread counts; ties break by replica index so the
/// sample order cannot matter either.
#[derive(Debug, Clone)]
pub struct SloAware {
    /// Per-tenant TTFT targets, ascending tenant id (missing = no SLO).
    slos: Vec<(u8, f64)>,
    predictor: TtftPredictor,
    /// xorshift64 state; never zero.
    state: u64,
}

impl SloAware {
    /// Fixed nonzero RNG seed (the 64-bit golden-ratio constant): runs
    /// are reproducible by construction, not by configuration.
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A router calibrated for `eval`: its tenant SLOs and its
    /// first-chunk prefill rate (see [`Evaluator::ttft_predictor`]).
    pub fn for_eval(eval: &Evaluator) -> Self {
        SloAware {
            slos: eval.tenant_slos().to_vec(),
            predictor: eval.ttft_predictor(),
            state: Self::SEED,
        }
    }

    /// The tenant's TTFT target, `+inf` when it has none.
    fn slo(&self, tenant: u8) -> f64 {
        self.slos
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(f64::INFINITY, |(_, slo)| *slo)
    }

    /// Next xorshift64 draw.
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Two distinct replica indices, uniformly sampled.
    fn sample_pair(&mut self, n: usize) -> (usize, usize) {
        let a = (self.next() % n as u64) as usize;
        let mut b = (self.next() % (n as u64 - 1)) as usize;
        if b >= a {
            b += 1;
        }
        (a, b)
    }
}

impl Router for SloAware {
    fn label(&self) -> &'static str {
        "slo-aware"
    }

    fn route(&mut self, req: &Request, loads: &[ReplicaLoad]) -> usize {
        let n = loads.len();
        if n <= 1 {
            return 0;
        }
        // A two-replica cluster IS the sample; otherwise draw a pair.
        let (a, b) = if n == 2 { (0, 1) } else { self.sample_pair(n) };
        let slo = self.slo(req.tenant);
        if slo.is_finite() {
            // The predictor's rate is one constant, so the smaller
            // prompt backlog IS the smaller predicted TTFT (the
            // request's own context_len is the same on both).
            let key = |l: &ReplicaLoad| (l.pending_prefill, l.replica);
            let best = if key(&loads[a]) <= key(&loads[b]) {
                a
            } else {
                b
            };
            let bound = self
                .predictor
                .predict(0.0, loads[best].pending_prefill + req.context_len);
            if bound > slo {
                // Even the better sample misses the deadline: scan for
                // the cluster-wide minimum before giving up slack.
                return loads
                    .iter()
                    .min_by_key(|l| (l.pending_prefill, l.reserved_kv, l.replica))
                    .map_or(best, |l| l.replica);
            }
            best
        } else {
            let key = |l: &ReplicaLoad| (l.reserved_kv, l.pending_prefill, l.replica);
            if key(&loads[a]) <= key(&loads[b]) {
                a
            } else {
                b
            }
        }
    }
}

/// Config-level selector for the built-in routers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum RouterKind {
    /// [`RoundRobin`].
    #[default]
    RoundRobin,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`LeastPrefill`].
    LeastPrefill,
    /// [`SloAware`].
    SloAware,
}

impl RouterKind {
    /// Every built-in router, for comparison sweeps.
    pub const ALL: [RouterKind; 5] = [
        RouterKind::RoundRobin,
        RouterKind::JoinShortestQueue,
        RouterKind::LeastLoaded,
        RouterKind::LeastPrefill,
        RouterKind::SloAware,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::JoinShortestQueue => "jsq",
            RouterKind::LeastLoaded => "least-loaded",
            RouterKind::LeastPrefill => "least-prefill",
            RouterKind::SloAware => "slo-aware",
        }
    }

    /// Instantiates the router (fresh state per run) for the replicas
    /// `eval` describes: [`SloAware`] receives the evaluator's tenant
    /// SLOs and prefill rate; every other kind ignores the evaluator.
    pub fn build_for(&self, eval: &Evaluator) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::JoinShortestQueue => Box::new(JoinShortestQueue),
            RouterKind::LeastLoaded => Box::new(LeastLoaded),
            RouterKind::LeastPrefill => Box::new(LeastPrefill),
            RouterKind::SloAware => Box::new(SloAware::for_eval(eval)),
        }
    }
}

impl std::fmt::Display for RouterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Mutable run-wide accumulators, filled by replaying per-replica
/// ledgers in replica-index order. Field-by-field identical to the
/// original single-threaded loops' accumulation: every float field
/// receives its operands in their emission order — the order of its
/// one ledger stream, or, for `util_weighted` and the energy sum, which
/// both step streams feed, the execution order the prefill records'
/// `after_decodes` counts restore.
#[derive(Default)]
struct Accum {
    report: ServingReport,
    batch_sum: f64,
    util_weighted: f64,
    used_kv: f64,
    reserved_kv: f64,
    /// Total decode steps executed (for the continuous policy's
    /// step-weighted mean batch).
    steps: u64,
}

impl Accum {
    /// Replays one replica's ledger, priced by its pool's `eval`.
    fn replay(&mut self, eval: &Evaluator, ledger: &Ledger, t_max: u64) {
        let r = &mut self.report;
        // Each prefill record is preceded by the decode records emitted
        // before it; `None` stands for the decode tail after the last.
        let mut replayed = 0;
        for pre in ledger.prefills.iter().map(Some).chain([None]) {
            let upto = pre.map_or(ledger.decodes.len(), |p| p.after_decodes as usize);
            for d in &ledger.decodes[replayed..upto] {
                r.attn_seconds += d.attn;
                r.fc_seconds += d.fc;
                self.util_weighted += d.util_weight;
                r.energy.add(&d.energy);
            }
            replayed = upto;
            if let Some(p) = pre {
                let price = &ledger.prefill_prices[p.price];
                r.prefill_seconds += price.secs;
                r.restart_seconds += p.restart;
                self.util_weighted += price.util_weight;
                r.energy.add(&price.energy);
            }
        }
        for &len in &ledger.retired {
            self.used_kv += eval.model().kv_bytes(len) as f64;
            self.reserved_kv += eval.kv_reservation(len, t_max) as f64;
        }
        for &batch in &ledger.wave_admits {
            self.batch_sum += batch;
        }
        for &secs in &ledger.handoff_secs {
            r.transfer_seconds += secs;
        }
        self.steps += ledger.decode_steps;
        r.tokens += ledger.tokens;
        r.prefill_tokens += ledger.prefill_tokens;
        r.waves += ledger.waves;
        r.evictions += ledger.evictions;
        // Pages reclaimed out of the prefix cache before re-use force a
        // partial re-prefill: recomputed work, billed as waste
        // alongside evictions.
        r.wasted_prefill_tokens += ledger.reprefill_tokens + ledger.recompute_tokens;
        r.wasted_decode_tokens += ledger.redecode_tokens;
        r.shed += ledger.shed;
        r.prefix_cache_hits += ledger.prefix_cache_hits;
        r.prefix_hit_tokens += ledger.prefix_hit_tokens;
        r.pages_evicted += ledger.pages_evicted;
        r.kv_transferred_bytes += ledger.kv_transferred_bytes;
    }
}

/// One pool of a disaggregated cluster, paired with its per-pool
/// router. The evaluator carries everything pool-specific: hardware
/// (`Evaluator::system`, whose `replicas()` is the pool size), serving
/// phase (`Evaluator::pool_role`), KV-transfer terms, and policies.
pub struct PoolRun<'a> {
    /// Display name, carried into [`ServingReport::per_pool`].
    pub name: String,
    /// The pool's evaluator.
    pub eval: &'a Evaluator,
    /// The router applied *inside* the pool once the phase-level pick
    /// has selected it.
    pub router: Box<dyn Router>,
}

/// The drain's worker-thread budget: `threads`, with `0` meaning one
/// per available CPU.
fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Serves `trace` over replica pools with phase-aware two-level
/// routing, simulating the replicas on up to `threads` scoped threads
/// (`0` means one per available CPU; the thread count never changes
/// results, only wall-clock time).
///
/// The wave policy ignores arrival times, so its requests are routed
/// in trace order — with the round-robin router this reproduces the
/// historical trace-index partitioning exactly on *any* trace. The
/// continuous policy consumes the stream in global arrival order, the
/// order an online front-end actually sees.
///
/// A colocated cluster is one anonymous mixed pool
/// ([`Evaluator::run_trace`], `Materialized::serve` on a flat spec),
/// which the pooled path below reduces to operation-for-operation —
/// so every historical pin also verifies the generalized loop.
///
/// **Phase 1 (prefill):** fresh arrivals are routed over the pools
/// whose role serves prefill (`prefill` and `mixed`). With several
/// eligible pools the phase-level pick is weighted round-robin (fewest
/// routed-per-replica so far, ties to the lower pool index); the pool's
/// own router then places the request on a replica. Those pools run to
/// completion; `prefill`-role replicas retire each request at prompt
/// residency, pricing its KV transfer and recording a handoff.
///
/// **Phase 2 (decode):** the pools' handoff streams are merged in
/// transfer-completion order (`(arrival_us, id)` — the rewritten
/// arrival *is* transfer completion) and routed over the `decode`-role
/// pools the same two-level way, then those run to completion. The
/// handoff stream is feed-forward (decode pools never push work back),
/// so each phase is an ordinary deterministic routing loop and the
/// byte-identical thread-count guarantee carries over unchanged.
///
/// Reports merge pool-by-pool in declaration order (replica order
/// within a pool); [`ServingReport::per_pool`] is populated whenever
/// the pool structure is observable (more than one pool, or any
/// non-mixed role) and stays empty for a single mixed pool, keeping
/// that desugared form byte-identical with the pool-free path.
pub fn run_pools(
    pools: &mut [PoolRun<'_>],
    policy: SchedulingPolicy,
    threads: usize,
    trace: &Trace,
) -> ServingReport {
    let mut metas: Vec<(&str, &Evaluator)> = Vec::with_capacity(pools.len());
    let mut routers: Vec<&mut dyn Router> = Vec::with_capacity(pools.len());
    for p in pools.iter_mut() {
        metas.push((p.name.as_str(), p.eval));
        routers.push(p.router.as_mut());
    }
    run_pools_impl(&metas, &mut routers, policy, threads, trace)
}

/// An item the phase routing loop can dispatch: a fresh arrival or a
/// cross-pool handoff. Both order by `(arrival_us, id)` (a handoff's
/// arrival was rewritten to its transfer completion).
trait Routable: Copy {
    fn request(&self) -> &Request;
    fn dispatch(self, sim: &mut ReplicaSim<'_>);
}

impl Routable for Request {
    fn request(&self) -> &Request {
        self
    }
    fn dispatch(self, sim: &mut ReplicaSim<'_>) {
        sim.enqueue(self);
    }
}

impl Routable for Queued {
    fn request(&self) -> &Request {
        &self.req
    }
    fn dispatch(self, sim: &mut ReplicaSim<'_>) {
        sim.enqueue_handoff(self);
    }
}

/// Routes one phase's item stream over the member pools (`members`
/// indexes into `pool_sims`/`routers`), interleaving replica advance
/// through a shared event calendar exactly as the historical
/// single-pool loop did — for one member pool this *is* that loop,
/// operation for operation.
fn route_phase<T: Routable>(
    items: &[T],
    members: &[usize],
    pool_sims: &mut [Vec<ReplicaSim<'_>>],
    routers: &mut [&mut dyn Router],
    policy: SchedulingPolicy,
) {
    if items.is_empty() || members.is_empty() {
        return;
    }
    // Load-aware routing needs each replica's state at the arrival
    // instant. The wave policy ignores arrival times entirely, and
    // stateless routers never look — both cases skip the interleaved
    // advancing and simulate replicas end-to-end at the drain, where
    // the parallel fan-out genuinely pays.
    let inspects = members.iter().any(|&p| routers[p].inspects_load());
    let total_reps: usize = members.iter().map(|&p| pool_sims[p].len()).sum();
    let interleave = inspects && policy == SchedulingPolicy::Continuous && total_reps > 1;
    // Flat slot index over the member pools' replicas (member order,
    // replica order within a member) for the shared event calendar.
    let mut offsets: Vec<usize> = Vec::with_capacity(members.len());
    let mut acc_off = 0usize;
    for &p in members {
        offsets.push(acc_off);
        acc_off += pool_sims[p].len();
    }
    let member_of = |flat: usize| -> (usize, usize) {
        let mp = offsets.partition_point(|&o| o <= flat) - 1;
        (mp, flat - offsets[mp])
    };
    let mut frontier = 0.0f64;
    // The load snapshots handed to each member's router, built once and
    // then maintained incrementally: advancing a replica refreshes its
    // entry and an enqueue refreshes the target's — nothing else
    // changes replica state during routing, so the buffers always match
    // what a per-arrival rebuild would produce (the historical
    // behavior, minus its O(replicas) cost per arrival). Routers that
    // never look get the initial (all-idle) snapshots.
    let mut loads: Vec<Vec<ReplicaLoad>> = members
        .iter()
        .map(|&p| {
            pool_sims[p]
                .iter()
                .enumerate()
                .map(|(i, s)| s.load(i))
                .collect()
        })
        .collect();
    // Event calendar for the interleaved advance: a min-heap of
    // `(next-event time, flat slot)` entries. Times are nonnegative, so
    // their IEEE-754 bit patterns order identically to the floats. A
    // replica is advanced only when the routing frontier passes its
    // next-event bound — the earliest instant its state can change (see
    // `ReplicaSim::advance_to`); replicas the frontier does not reach
    // are skipped, which is bit-exact because advancing a replica below
    // its bound is a state no-op. Routing an item pulls the target's
    // bound down to the arrival instant; the superseded heap entry is
    // skipped lazily (`next_event` holds the authoritative bound per
    // slot).
    let mut next_event: Vec<f64> = vec![0.0; total_reps];
    let mut calendar: BinaryHeap<Reverse<(u64, usize)>> =
        (0..total_reps).map(|i| Reverse((0u64, i))).collect();
    // Phase-level pick among several same-phase pools: weighted
    // round-robin on routed-per-replica (deterministic and
    // router-independent, so it works identically whether or not the
    // member routers inspect load).
    let mut routed_per: Vec<u64> = vec![0; members.len()];
    for item in items {
        let r = item.request();
        let ta = r.arrival_secs();
        if interleave && ta > frontier {
            while let Some(&Reverse((bits, flat))) = calendar.peek() {
                if f64::from_bits(bits) > ta {
                    break;
                }
                calendar.pop();
                if next_event[flat].to_bits() != bits {
                    continue; // superseded by an earlier bound
                }
                let (mp, ri) = member_of(flat);
                let bound = pool_sims[members[mp]][ri].advance_to(ta);
                next_event[flat] = bound;
                if bound.is_finite() {
                    calendar.push(Reverse((bound.to_bits(), flat)));
                }
                loads[mp][ri] = pool_sims[members[mp]][ri].load(ri);
            }
            frontier = ta;
        }
        // Level 1: pick the member pool — least routed per replica
        // (cross-multiplied to stay in integers), ties to the lower
        // index. A single member (every colocated run) short-circuits.
        let mut mp = 0usize;
        for cand in 1..members.len() {
            // cand wins only on strictly lower load: routed/replicas
            // compared by cross-multiplication to stay in integers.
            let lc = u128::from(routed_per[cand]) * pool_sims[members[mp]].len() as u128;
            let lb = u128::from(routed_per[mp]) * pool_sims[members[cand]].len() as u128;
            if lc < lb {
                mp = cand;
            }
        }
        let pool = members[mp];
        let reps = pool_sims[pool].len();
        // Level 2: the pool's own router places the item on a replica.
        let target = routers[pool].route(r, &loads[mp]).min(reps - 1);
        item.dispatch(&mut pool_sims[pool][target]);
        routed_per[mp] += 1;
        if inspects {
            loads[mp][target] = pool_sims[pool][target].load(target);
        }
        let flat = offsets[mp] + target;
        if interleave && ta < next_event[flat] {
            next_event[flat] = ta;
            calendar.push(Reverse((ta.to_bits(), flat)));
        }
    }
}

/// Borrows every replica sim of the member pools mutably, in member
/// order, for the drain fan-out.
fn claim_members<'s, 'a>(
    pool_sims: &'s mut [Vec<ReplicaSim<'a>>],
    members: &[usize],
) -> Vec<&'s mut ReplicaSim<'a>> {
    let wanted: std::collections::BTreeSet<usize> = members.iter().copied().collect();
    pool_sims
        .iter_mut()
        .enumerate()
        .filter(|(p, _)| wanted.contains(p))
        .flat_map(|(_, sims)| sims.iter_mut())
        .collect()
}

/// The body of [`run_pools`] over borrowed pool metadata and routers.
fn run_pools_impl(
    pools: &[(&str, &Evaluator)],
    routers: &mut [&mut dyn Router],
    policy: SchedulingPolicy,
    threads: usize,
    trace: &Trace,
) -> ServingReport {
    assert_eq!(pools.len(), routers.len(), "one router per pool");
    assert!(!pools.is_empty(), "a cluster needs at least one pool");
    let threads = resolve_threads(threads);
    let t_max = trace.max_final_len();
    // Routed in place: a builder trace is already in arrival order, so
    // neither policy copies it.
    let arrivals = match policy {
        SchedulingPolicy::Wave => Cow::Borrowed(trace.requests()),
        SchedulingPolicy::Continuous => trace.arrival_ordered(),
    };
    let mut pool_sims: Vec<Vec<ReplicaSim<'_>>> = pools
        .iter()
        .map(|(_, eval)| {
            let n = eval.system().replicas().max(1) as usize;
            (0..n)
                .map(|_| ReplicaSim::new(eval, policy, t_max))
                .collect()
        })
        .collect();

    // Phase 1: fresh arrivals over the prefill-serving pools.
    let p1: Vec<usize> = (0..pools.len())
        .filter(|&p| effective_role(pools[p].1, policy).serves_prefill())
        .collect();
    assert!(
        !p1.is_empty(),
        "a cluster needs at least one prefill-serving (prefill or mixed) pool"
    );
    route_phase(&arrivals, &p1, &mut pool_sims, routers, policy);
    finish_all(claim_members(&mut pool_sims, &p1), threads);

    // Phase 2: handoffs (in transfer-completion order) over the decode
    // pools. Feed-forward: phase-1 state is final before any decode
    // pool moves, so the merge stays thread-count independent.
    // Each replica's stream is freed as soon as it is merged, so only
    // one copy of the records is held at a time.
    let mut handoffs: Vec<Queued> =
        Vec::with_capacity(pool_sims.iter().flatten().map(|s| s.handoffs.len()).sum());
    for s in pool_sims.iter_mut().flatten() {
        handoffs.extend(std::mem::take(&mut s.handoffs));
    }
    handoffs.sort_by_key(|h| (h.req.arrival_us, h.req.id));
    let p2: Vec<usize> = (0..pools.len())
        .filter(|&p| effective_role(pools[p].1, policy).accepts_handoff())
        .collect();
    if !handoffs.is_empty() {
        assert!(
            !p2.is_empty(),
            "a prefill pool handed off requests but no decode pool exists"
        );
        route_phase(&handoffs, &p2, &mut pool_sims, routers, policy);
        finish_all(claim_members(&mut pool_sims, &p2), threads);
    }

    merge_pools(pools, pool_sims, policy, t_max, arrivals.len())
}

/// Replays the per-replica ledgers into one accumulator — pool by pool
/// in declaration order, replica-index order within a pool, each pool
/// priced by its own evaluator — and finalizes the report: the exact
/// float operation sequence of the original sequential loops,
/// independent of thread scheduling. Consumes the sims, so each
/// replica's timings move into the report instead of being copied.
fn merge_pools(
    pools: &[(&str, &Evaluator)],
    pool_sims: Vec<Vec<ReplicaSim<'_>>>,
    policy: SchedulingPolicy,
    t_max: u64,
    requests: usize,
) -> ServingReport {
    let mut acc = Accum::default();
    let mut timings: Vec<RequestTiming> = Vec::with_capacity(requests);
    let mut per_replica: Vec<ReplicaBreakdown> = Vec::new();
    let mut per_pool: Vec<PoolBreakdown> = Vec::with_capacity(pools.len());
    let mut end_max = 0.0f64;
    let mut busy_total = 0.0f64;
    for ((name, eval), sims) in pools.iter().zip(pool_sims) {
        let mut pb = PoolBreakdown {
            name: (*name).to_string(),
            role: effective_role(eval, policy),
            replicas: sims.len() as u32,
            ..PoolBreakdown::default()
        };
        for mut sim in sims {
            acc.replay(eval, &sim.ledger, t_max);
            pb.handoffs += sim.ledger.handoff_secs.len() as u64;
            pb.kv_transferred_bytes += sim.ledger.kv_transferred_bytes;
            for &secs in &sim.ledger.handoff_secs {
                pb.transfer_seconds += secs;
            }
            timings.append(&mut sim.timings);
            end_max = end_max.max(sim.end_time());
            busy_total += sim.busy_seconds();
            let rb = sim.breakdown();
            pb.routed += rb.routed;
            pb.served += rb.served;
            pb.tokens += rb.tokens;
            pb.busy_seconds += rb.busy_seconds;
            pb.evictions += rb.evictions;
            pb.shed += rb.shed;
            per_replica.push(rb);
        }
        per_pool.push(pb);
    }

    let eval0 = pools[0].1;
    let mut report = acc.report;
    report.seconds = end_max;
    report.busy_seconds = busy_total;
    report.tokens_per_second = if end_max > 0.0 {
        report.tokens as f64 / end_max
    } else {
        0.0
    };
    report.mean_batch = match policy {
        // Per-wave mean admitted batch (the paper's metric).
        SchedulingPolicy::Wave => {
            if report.waves > 0 {
                acc.batch_sum / f64::from(report.waves)
            } else {
                0.0
            }
        }
        // Step-weighted mean batch: tokens per executed decode step.
        SchedulingPolicy::Continuous => {
            if acc.steps > 0 {
                report.tokens as f64 / acc.steps as f64
            } else {
                0.0
            }
        }
    };
    // Utilization over *busy* replica time: idle replicas do not
    // dilute the average.
    report.attn_utilization = if busy_total > 0.0 {
        acc.util_weighted / busy_total
    } else {
        0.0
    };
    report.capacity_utilization = if acc.reserved_kv > 0.0 {
        acc.used_kv / acc.reserved_kv
    } else {
        0.0
    };
    (
        report.latency,
        report.latency_by_priority,
        report.latency_by_tenant,
    ) = LatencyReport::summaries(&timings, eval0.tenant_slos());
    report.per_replica = per_replica;
    // The per-pool view exists only when the pool structure is
    // observable; a single mixed pool stays byte-identical with the
    // historical pool-free report.
    if per_pool.len() > 1 || per_pool.iter().any(|pb| pb.role != PoolRole::Mixed) {
        report.per_pool = per_pool;
    }
    report
}

/// Runs every claimed sim to completion, fanning out over up to
/// `threads` scoped threads. Replica drain times are heavily skewed
/// (load-aware routing equalizes load, but the drain leaves each
/// replica a different backlog), so the work is distributed
/// dynamically: workers pull the next sim from a shared iterator
/// instead of receiving a fixed slice, and a thread stuck on a heavy
/// replica cannot strand the rest of a pre-chunked share. Each sim is
/// still touched by exactly one thread — and accounting is replayed
/// from the per-replica ledgers in replica-index order afterwards — so
/// results cannot depend on the interleaving.
fn finish_all(sims: Vec<&mut ReplicaSim<'_>>, threads: usize) {
    let workers = threads.min(sims.len()).max(1);
    if workers == 1 {
        for sim in sims {
            sim.finish();
        }
        return;
    }
    let queue = std::sync::Mutex::new(sims.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The guard is a temporary: it drops before `finish`
                // runs, so workers only serialize on *claiming* a sim.
                let claimed = queue.lock().expect("sim queue poisoned").next();
                let Some(sim) = claimed else { break };
                sim.finish();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, Techniques};
    use crate::policy::{PreemptionPolicy, PrefillConfig};
    use crate::scenario::PolicySpec;
    use llm_model::LLM_7B_32K;
    use pim_compiler::ParallelConfig;
    use workload::{Dataset, TraceBuilder};

    fn multi_replica_eval() -> Evaluator {
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 1));
        Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony())
    }

    #[test]
    fn router_kinds_build_matching_labels() {
        let e = multi_replica_eval();
        for kind in RouterKind::ALL {
            assert_eq!(kind.build_for(&e).label(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(RouterKind::default(), RouterKind::RoundRobin);
        assert!(!RouterKind::RoundRobin.build_for(&e).inspects_load());
        assert!(RouterKind::JoinShortestQueue.build_for(&e).inspects_load());
    }

    #[test]
    fn round_robin_cycles() {
        let loads: Vec<ReplicaLoad> = (0..3)
            .map(|i| ReplicaLoad {
                replica: i,
                in_flight: 10 * i,
                reserved_kv: 0,
                pending_prefill: 0,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            })
            .collect();
        let req = Request {
            id: 0,
            context_len: 1,
            decode_len: 1,
            arrival_us: 0,
            priority: 0,
            tenant: 0,
            shared_prefix: 0,
        };
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..5).map(|_| rr.route(&req, &loads)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn jsq_and_least_loaded_pick_minima_with_index_ties() {
        let loads = [
            ReplicaLoad {
                replica: 0,
                in_flight: 3,
                reserved_kv: 100,
                pending_prefill: 40_000,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            },
            ReplicaLoad {
                replica: 1,
                in_flight: 1,
                reserved_kv: 900,
                pending_prefill: 2_000,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            },
            ReplicaLoad {
                replica: 2,
                in_flight: 1,
                reserved_kv: 50,
                pending_prefill: 9_000,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            },
        ];
        let req = Request {
            id: 0,
            context_len: 1,
            decode_len: 1,
            arrival_us: 0,
            priority: 0,
            tenant: 0,
            shared_prefix: 0,
        };
        assert_eq!(JoinShortestQueue.route(&req, &loads), 1); // tie 1 vs 2 → lowest index
        assert_eq!(LeastLoaded.route(&req, &loads), 2);
        // Least-prefill reads the prompt backlog, not KV or counts.
        assert_eq!(LeastPrefill.route(&req, &loads), 1);
        // With no backlog anywhere (prefill disabled) it degenerates to
        // the reserved-KV order.
        let mut flat = loads;
        for l in &mut flat {
            l.pending_prefill = 0;
        }
        assert_eq!(
            LeastPrefill.route(&req, &flat),
            LeastLoaded.route(&req, &flat)
        );
    }

    #[test]
    fn slo_aware_picks_slack_for_interactive_and_memory_for_batch() {
        // Two replicas: the whole cluster is the sample, so the pick is
        // the deterministic argmin of the per-arm key.
        let loads = [
            ReplicaLoad {
                replica: 0,
                in_flight: 1,
                reserved_kv: 100,
                pending_prefill: 9_000,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            },
            ReplicaLoad {
                replica: 1,
                in_flight: 5,
                reserved_kv: 900,
                pending_prefill: 2_000,
                evictions: 0,
                prefix_cache_hits: 0,
                prefix_hit_tokens: 0,
                pages_evicted: 0,
            },
        ];
        let req = |tenant: u8| Request {
            id: 0,
            context_len: 100,
            decode_len: 1,
            arrival_us: 0,
            priority: 0,
            tenant,
            shared_prefix: 0,
        };
        let mut r = SloAware {
            slos: vec![(1, 1.0)],
            predictor: TtftPredictor::with_rate(1e-4),
            state: SloAware::SEED,
        };
        // Tenant 1 has an SLO: smallest prompt backlog wins (replica 1,
        // predicted 0.21s, inside the 1s target).
        assert_eq!(r.route(&req(1), &loads), 1);
        // Tenant 0 has none: smallest reserved KV wins (replica 0).
        assert_eq!(r.route(&req(0), &loads), 0);
        // Calibrated for an evaluator without SLOs, it treats every
        // tenant as batch.
        let mut no_slos = SloAware::for_eval(&multi_replica_eval());
        assert_eq!(no_slos.route(&req(1), &loads), 0);
        // Repeat routes are stable — the RNG is untouched at n == 2.
        assert_eq!(r.route(&req(1), &loads), 1);
    }

    #[test]
    fn slo_aware_full_scan_when_both_samples_miss_the_slo() {
        // 3 replicas forces real P2C sampling; a hopeless SLO (any
        // backlog at all misses it) forces the full-scan fallback, which
        // must find the global minimum regardless of which pair was
        // sampled.
        let mk = |replica: usize, pending_prefill: u64| ReplicaLoad {
            replica,
            in_flight: 0,
            reserved_kv: 0,
            pending_prefill,
            evictions: 0,
            prefix_cache_hits: 0,
            prefix_hit_tokens: 0,
            pages_evicted: 0,
        };
        let loads = [mk(0, 9_000), mk(1, 2_000), mk(2, 8_000)];
        let req = Request {
            id: 0,
            context_len: 100,
            decode_len: 1,
            arrival_us: 0,
            priority: 0,
            tenant: 1,
            shared_prefix: 0,
        };
        let mut r = SloAware {
            slos: vec![(1, 1e-9)],
            predictor: TtftPredictor::with_rate(1e-4),
            state: SloAware::SEED,
        };
        for _ in 0..16 {
            assert_eq!(r.route(&req, &loads), 1);
        }
    }

    #[test]
    fn slo_aware_sample_pairs_are_distinct_in_range_and_deterministic() {
        let e = multi_replica_eval();
        let mut a = SloAware::for_eval(&e);
        let mut b = SloAware::for_eval(&e);
        for _ in 0..256 {
            let (x, y) = a.sample_pair(7);
            assert_ne!(x, y);
            assert!(x < 7 && y < 7);
            assert_eq!((x, y), b.sample_pair(7));
        }
    }

    #[test]
    fn cluster_serves_every_request_under_every_router() {
        let e = multi_replica_eval();
        assert!(e.system().replicas() >= 2);
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(11)
            .requests(24)
            .decode_range(4, 40)
            .bursty(6.0, 2.5)
            .build();
        for kind in RouterKind::ALL {
            let mut pool = [PoolRun {
                name: String::new(),
                eval: &e,
                router: kind.build_for(&e),
            }];
            let r = run_pools(&mut pool, SchedulingPolicy::Continuous, 1, &trace);
            assert_eq!(r.tokens, trace.total_decode_tokens(), "{kind}");
            assert_eq!(r.latency.completed, trace.len() as u64, "{kind}");
            assert_eq!(r.per_replica.len(), e.system().replicas() as usize);
            let routed: u64 = r.per_replica.iter().map(|b| b.routed).sum();
            let served: u64 = r.per_replica.iter().map(|b| b.served).sum();
            let tokens: u64 = r.per_replica.iter().map(|b| b.tokens).sum();
            assert_eq!(routed, trace.len() as u64, "{kind}");
            assert_eq!(served, trace.len() as u64, "{kind}");
            assert_eq!(tokens, r.tokens, "{kind}");
            let busy: f64 = r.per_replica.iter().map(|b| b.busy_seconds).sum();
            assert!((busy - r.busy_seconds).abs() < 1e-12, "{kind}");
        }
    }

    /// Wave replicas run the full lifecycle whatever role their pool
    /// declares, so a lone wave pool declared `Prefill` decodes every
    /// token and reports as the single mixed pool it ran as: no
    /// per-pool view.
    #[test]
    fn wave_pool_reports_the_role_it_ran() {
        let e = multi_replica_eval().with_pool_role(PoolRole::Prefill);
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(11)
            .requests(4)
            .decode_len(8)
            .build();
        let mut pool = [PoolRun {
            name: "p".to_string(),
            eval: &e,
            router: RouterKind::RoundRobin.build_for(&e),
        }];
        let r = run_pools(&mut pool, SchedulingPolicy::Wave, 1, &trace);
        assert_eq!(r.tokens, trace.total_decode_tokens());
        assert!(r.per_pool.is_empty(), "{:?}", r.per_pool);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(resolve_threads(0), cpus);
        assert_eq!(resolve_threads(3), 3);
    }

    /// The accounting the ledger replaced, kept as the replay's oracle:
    /// one 80-byte record per executed chunk, in execution order, each
    /// prefill chunk carrying its own fresh products.
    enum OldSeconds {
        Decode { attn: f64, fc: f64 },
        Prefill { secs: f64, restart: f64 },
    }

    struct OldRecord {
        seconds: OldSeconds,
        util_weight: f64,
        energy: crate::energy::EnergyBreakdown,
    }

    /// Rebuilds the old records from the ledger's test-only emission
    /// log, pricing every prefill chunk afresh from its `(done, chunk)`.
    fn old_records(eval: &Evaluator, ledger: &Ledger) -> Vec<OldRecord> {
        let stage = eval.stage_model();
        let keys = ledger.prefill_prices.keys();
        let (mut decodes, mut prefills) = (ledger.decodes.iter(), ledger.prefills.iter());
        let records = ledger
            .emitted
            .iter()
            .map(|&prefill| {
                if prefill {
                    let p = prefills.next().expect("a prefill record per emission");
                    let (done, chunk) = keys[p.price as usize];
                    let pre = stage.prefill_chunk(done, chunk);
                    OldRecord {
                        seconds: OldSeconds::Prefill {
                            secs: pre.seconds,
                            restart: p.restart,
                        },
                        util_weight: pre.attn_utilization * pre.seconds,
                        energy: crate::replica::energy_terms(eval, &pre, 1.0),
                    }
                } else {
                    let d = decodes.next().expect("a decode record per emission");
                    OldRecord {
                        seconds: OldSeconds::Decode {
                            attn: d.attn,
                            fc: d.fc,
                        },
                        util_weight: d.util_weight,
                        energy: d.energy,
                    }
                }
            })
            .collect();
        assert!(decodes.next().is_none() && prefills.next().is_none());
        records
    }

    /// The bits of every float accumulator the step records feed.
    fn step_sums(r: &ServingReport, util_weighted: f64) -> Vec<u64> {
        let e = &r.energy;
        [
            r.attn_seconds,
            r.fc_seconds,
            r.prefill_seconds,
            r.restart_seconds,
            util_weighted,
            e.mac,
            e.io,
            e.background,
            e.else_,
            e.attention,
            e.fc,
        ]
        .map(f64::to_bits)
        .to_vec()
    }

    /// Runs one replica over `trace`, then checks that replaying its
    /// ledger equals, bit for bit, the old record-by-record replay;
    /// returns the ledger for case-specific checks.
    fn assert_replay_matches_old_records(
        eval: &Evaluator,
        policy: SchedulingPolicy,
        trace: &Trace,
    ) -> Ledger {
        let t_max = trace.max_final_len();
        let mut sim = ReplicaSim::new(eval, policy, t_max);
        for r in trace.arrival_ordered().iter() {
            sim.enqueue(*r);
        }
        sim.finish();
        let mut acc = Accum::default();
        acc.replay(eval, &sim.ledger, t_max);
        let mut old = Accum::default();
        for rec in old_records(eval, &sim.ledger) {
            let r = &mut old.report;
            match rec.seconds {
                OldSeconds::Decode { attn, fc } => {
                    r.attn_seconds += attn;
                    r.fc_seconds += fc;
                }
                OldSeconds::Prefill { secs, restart } => {
                    r.prefill_seconds += secs;
                    r.restart_seconds += restart;
                }
            }
            old.util_weighted += rec.util_weight;
            r.energy.add(&rec.energy);
        }
        assert_eq!(
            step_sums(&acc.report, acc.util_weighted),
            step_sums(&old.report, old.util_weighted),
            "{policy:?}"
        );
        std::mem::take(&mut sim.ledger)
    }

    /// Whether a prefill chunk was executed after a decode chunk.
    fn interleaves(ledger: &Ledger) -> bool {
        ledger.emitted.windows(2).any(|w| !w[0] && w[1])
    }

    #[test]
    fn ledger_replay_matches_the_old_step_record_replay() {
        // One TP=2 replica of a multi-replica node.
        let chunked = PolicySpec {
            prefill: PrefillConfig::chunked(512),
            ..PolicySpec::default()
        };
        let base = || multi_replica_eval().with_policies(chunked);

        // Continuous: a bursty two-class trace arriving about as fast as
        // the replica serves it, so high-priority arrivals evict running
        // requests, whose re-prefill bills nonzero restart seconds, and
        // mixed steps interleave prompt chunks with decode iterations.
        let eval = multi_replica_eval().with_policies(PolicySpec {
            preemption: PreemptionPolicy::EvictRestart,
            ..chunked
        });
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(2026)
            .requests(24)
            .decode_range(16, 96)
            .bursty(0.1, 2.5)
            .priority_levels(2)
            .build();
        let ledger = assert_replay_matches_old_records(&eval, SchedulingPolicy::Continuous, &trace);
        assert!(ledger.evictions > 0, "the pressure evicts");
        assert!(
            ledger.prefills.iter().any(|p| p.restart > 0.0),
            "restart billed"
        );
        assert!(
            ledger.prefills.len() > ledger.prefill_prices.len(),
            "keys repeat"
        );
        assert!(interleaves(&ledger));

        // Wave: the replica's pool splits the trace into several waves,
        // each prefilling after the previous one decoded.
        let eval = base();
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(2026)
            .requests(24)
            .decode_len(32)
            .build();
        let ledger = assert_replay_matches_old_records(&eval, SchedulingPolicy::Wave, &trace);
        assert!(ledger.waves > 1, "several waves");
        assert!(
            ledger.prefills.len() > ledger.prefill_prices.len(),
            "keys repeat"
        );
        assert!(interleaves(&ledger));
    }
}
