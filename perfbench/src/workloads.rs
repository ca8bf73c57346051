//! The benchmark's workloads: seeded scenario specs, the outputs pinned
//! for them, and the mechanism each one must exercise.
//!
//! Every workload is a list of [`Scenario`] specs generated from the
//! seed alone. The simulator receives them as JSON text and parses,
//! validates and materializes them itself, so that work is measured as
//! set-up.

use crate::timing::geomean;
use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use system::{
    Evaluator, Materialized, PagedKvConfig, PoolRole, PoolSpec, PreemptionPolicy, PrefillConfig,
    RouterKind, Scenario, SchedulingPolicy, ServingReport, SystemConfig, SystemKind, Techniques,
    TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec};

/// The seed the pinned report digests were taken at.
pub const DEFAULT_SEED: u64 = 2026;

/// Simulation threads of every timed pass: one, so a pass needs a single
/// host core and load on the other core cannot stall its drain.
pub const THREADS: usize = 1;

/// Simulation threads of the byte-identity check run and of the thread
/// speed-up: the 2-CPU host's core count.
pub const CHECK_THREADS: usize = 2;

/// Requests in `fleet_jsq` (and routing calls, one per request).
pub const FLEET_REQUESTS: usize = 100_000;

/// Wave requests per `paper_ladder` cell (the Figs. 13/14 trace size).
const LADDER_REQUESTS: usize = 24;

/// Decode tokens per `paper_ladder` request.
const LADDER_DECODE: u64 = 32;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k bursty requests over 100 replicas under JSQ: the serial
    /// route-plus-advance coordinator loop.
    FleetJsq,
    /// The closed-world Figs. 13+14 technique ladder: 288 fresh
    /// evaluators, dominated by kernel calibration.
    PaperLadder,
    /// Shared-prefix tenants on a 2-prefill + 2-decode pool layout under
    /// KV pressure: prefix caching, eviction and KV handoff.
    KvPressure,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetJsq,
        Workload::PaperLadder,
        Workload::KvPressure,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetJsq => "fleet_jsq",
            Workload::PaperLadder => "paper_ladder",
            Workload::KvPressure => "kv_pressure",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenarios at `seed`.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::FleetJsq => vec![fleet_jsq(seed)],
            Workload::PaperLadder => ladder_scenarios(seed, &eval_cells(), &Techniques::ladder()),
            Workload::KvPressure => vec![kv_pressure(seed)],
        }
    }

    /// The workload's specs at `seed`, as the JSON documents the
    /// simulator parses.
    pub fn specs(self, seed: u64) -> Vec<String> {
        self.scenarios(seed)
            .iter()
            .map(Scenario::to_pretty)
            .collect()
    }

    /// Digest of the workload's reports at [`DEFAULT_SEED`] (see
    /// [`crate::digest::reports_digest`]).
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::FleetJsq => 0xfde5_61b7_f835_ca34,
            Workload::PaperLadder => 0x5e9a_0a49_98e5_9050,
            Workload::KvPressure => 0x5196_4022_aa45_ed87,
        }
    }

    /// The cells a pass runs. `paper_ladder` keeps, per (model,
    /// dataset, system, techniques) group, the factorizations that can
    /// hold a worst-case request, falling back to the whole-node one
    /// when none can (the selection rule of the figure binaries); every
    /// other workload runs its one scenario.
    pub fn runnable(self, cells: Vec<Materialized>) -> Vec<Materialized> {
        if self != Workload::PaperLadder {
            return cells;
        }
        let feasible = |m: &Materialized| m.evaluator.feasible(m.trace.max_final_len());
        let whole_node = |m: &Materialized| {
            let sys = m.evaluator.system();
            sys.parallel == ParallelConfig::new(sys.modules, 1)
        };
        let keep: Vec<bool> = cells
            .iter()
            .map(|m| {
                feasible(m)
                    || (whole_node(m)
                        && !cells
                            .iter()
                            .any(|o| ladder_group(o) == ladder_group(m) && feasible(o)))
            })
            .collect();
        cells
            .into_iter()
            .zip(keep)
            .filter_map(|(m, k)| k.then_some(m))
            .collect()
    }

    /// Checks that the reports exercised the mechanism the workload was
    /// chosen for, so a spec that silently runs another path fails.
    pub fn check_mechanisms(
        self,
        cells: &[Materialized],
        reports: &[ServingReport],
    ) -> Result<(), String> {
        for (m, r) in cells.iter().zip(reports) {
            if r.latency.completed != m.trace.len() as u64 || r.shed != 0 {
                return Err(format!(
                    "{}: completed {} of {} requests ({} shed)",
                    self.name(),
                    r.latency.completed,
                    m.trace.len(),
                    r.shed
                ));
            }
        }
        match self {
            Workload::FleetJsq => {
                let r = &reports[0];
                let routed: u64 = r.per_replica.iter().map(|b| b.routed).sum();
                if r.evictions != 0
                    || r.prefix_hit_tokens != 0
                    || r.kv_transferred_bytes != 0
                    || routed != FLEET_REQUESTS as u64
                {
                    return Err(format!(
                        "fleet_jsq: expected no eviction, prefix hit or KV transfer and \
                         {FLEET_REQUESTS} routed requests, got {} evictions, {} hit tokens, \
                         {} transferred bytes, {routed} routed",
                        r.evictions, r.prefix_hit_tokens, r.kv_transferred_bytes
                    ));
                }
            }
            Workload::KvPressure => {
                let r = &reports[0];
                if r.evictions == 0 || r.prefix_hit_tokens == 0 || r.kv_transferred_bytes == 0 {
                    return Err(format!(
                        "kv_pressure: expected evictions, prefix hits and KV transfer, got \
                         {} evictions, {} hit tokens, {} transferred bytes",
                        r.evictions, r.prefix_hit_tokens, r.kv_transferred_bytes
                    ));
                }
            }
            Workload::PaperLadder => {}
        }
        Ok(())
    }
}

/// The evaluators a materialized scenario serves with: one per pool, or
/// the flat evaluator when the spec has no pools.
pub fn serving_evaluators(m: &Materialized) -> Vec<&Evaluator> {
    if m.pools.is_empty() {
        vec![&m.evaluator]
    } else {
        m.pools.iter().map(|p| &p.evaluator).collect()
    }
}

/// The (model, dataset) cells of the Figs. 13/14 sweep: each Table I
/// model on its suite's two Table II tasks.
pub fn eval_cells() -> Vec<(ModelConfig, Dataset)> {
    [
        (llm_model::LLM_7B_32K, Dataset::longbench()),
        (llm_model::LLM_72B_32K, Dataset::longbench()),
        (llm_model::LLM_7B_128K_GQA, Dataset::lv_eval()),
        (llm_model::LLM_72B_128K_GQA, Dataset::lv_eval()),
    ]
    .into_iter()
    .flat_map(|(m, ds)| ds.map(|d| (m, d)))
    .collect()
}

/// Seeds travel through spec JSON as numbers, which hold integers
/// exactly only below 2^53.
pub const MAX_SEED: u64 = (1 << 53) - 1;

/// The trace seed of ladder cell `cell`: a SplitMix64 step from the
/// workload seed, so the cells draw independent traces and the ladder's
/// geomeans average over them instead of moving together with one draw.
/// Kept within [`MAX_SEED`] so the spec carries it exactly.
pub fn cell_seed(seed: u64, cell: usize) -> u64 {
    let mut z = seed.wrapping_add((cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & MAX_SEED
}

/// One closed-world scenario per (cell, system, techniques, TP/PP
/// factorization): `LADDER_REQUESTS` wave requests of `LADDER_DECODE`
/// tokens drawn at the cell's seed, round-robin over the replicas.
/// Every system, technique set and factorization of a cell serves the
/// same trace, as in the figures.
pub fn ladder_scenarios(
    seed: u64,
    cells: &[(ModelConfig, Dataset)],
    techniques: &[Techniques],
) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (i, &(model, dataset)) in cells.iter().enumerate() {
        for kind in [SystemKind::PimOnly, SystemKind::XpuPim] {
            let modules = match kind {
                SystemKind::PimOnly => SystemConfig::cent_for(&model).modules,
                SystemKind::XpuPim => SystemConfig::neupims_for(&model).modules,
            };
            for &t in techniques {
                for p in ParallelConfig::factorizations(modules) {
                    let mut s = Scenario::new(model.name).tenant(
                        TenantSpec::new(dataset.name(), dataset)
                            .requests(LADDER_REQUESTS)
                            .seed(cell_seed(seed, i))
                            .decode(DecodeSpec::Fixed(LADDER_DECODE)),
                    );
                    s.system = kind;
                    s.techniques = t;
                    s.cluster.tp = p.tp;
                    s.cluster.pp = p.pp;
                    s.cluster.threads = THREADS;
                    out.push(s);
                }
            }
        }
    }
    out
}

/// The selection group of a ladder cell: model, dataset, system and
/// techniques (everything but the factorization).
fn ladder_group(m: &Materialized) -> (&'static str, String, SystemKind, Techniques) {
    let e = &m.evaluator;
    (
        e.model().name,
        m.tenant_name(0),
        e.system().kind,
        *e.techniques(),
    )
}

/// `scenarios/perf/sim_speed_100k.json` at `seed`, on [`THREADS`]
/// threads: 100k bursty QMSum requests over 100 two-module replicas,
/// join-shortest-queue, continuous batching.
pub fn fleet_jsq(seed: u64) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K").tenant(
        TenantSpec::new("open-loop", Dataset::QmSum)
            .requests(FLEET_REQUESTS)
            .seed(seed)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty {
                rate: 1200.0,
                cv: 2.5,
            }),
    );
    s.cluster.tp = 2;
    s.cluster.pp = 1;
    s.cluster.modules = 200;
    s.cluster.threads = THREADS;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.router = RouterKind::JoinShortestQueue;
    s
}

/// The `scenarios/cache/shared_prefix.json` tenant mix (3 shared-prefix
/// assistant requests to 2 priority interactive ones) scaled to 2,400
/// requests at 0.35x its arrival rates, served on the
/// `scenarios/disagg/split_2p2d.json` pool layout (2 prefill + 2 decode
/// replicas, least-loaded) with prefix caching, evict-restart
/// preemption, 512-token prefill chunks and the KV pool scaled to 0.35.
/// At the spec's own rates the queue grows without bound and tail
/// latency follows the draw; at these it is loaded but stable, and the
/// small KV pool still forces evictions.
pub fn kv_pressure(seed: u64) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K")
        .tenant(
            TenantSpec::new("assistant", Dataset::QmSum)
                .requests(1440)
                .seed(seed)
                .decode(DecodeSpec::Uniform(16, 96))
                .arrivals(ArrivalProcess::Poisson { rate: 0.021 })
                .slo_ttft_p99(60.0)
                .shared_prefix(6144),
        )
        .tenant(
            TenantSpec::new("interactive", Dataset::QmSum)
                .requests(960)
                .seed(seed + 1)
                .decode(DecodeSpec::Uniform(16, 96))
                .arrivals(ArrivalProcess::Bursty {
                    rate: 0.014,
                    cv: 2.5,
                })
                .priority(1),
        );
    s.cluster.tp = 2;
    s.cluster.pp = 1;
    s.cluster.threads = THREADS;
    s.cluster.pools = vec![
        PoolSpec::new("prefill", PoolRole::Prefill, 2).parallel(2, 1),
        PoolSpec::new("decode", PoolRole::Decode, 2).parallel(2, 1),
    ];
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.router = RouterKind::LeastLoaded;
    s.policies.preemption = PreemptionPolicy::EvictRestart;
    s.policies.prefill = PrefillConfig::chunked(512);
    s.policies.kv_capacity_factor = 0.35;
    s.policies.paged_kv = PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES);
    s
}

/// The simulated (modelled) results a workload reports. They are exact:
/// a change to the simulator's speed alone must leave them unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// Simulated decode tokens per simulated second.
    pub tok_per_s: f64,
    /// Simulated median time per output token, in seconds.
    pub tpot_p50_s: f64,
    /// Geomean PIMphony-over-baseline throughput, PIM-only systems.
    pub speedup_pim_only: f64,
    /// Geomean PIMphony-over-baseline throughput, xPU+PIM systems.
    pub speedup_xpu_pim: f64,
}

/// Summarizes ladder cells: per (model, dataset, system) group, the best
/// factorization of each technique set; speedups are full PIMphony over
/// the baseline, geomean over each system's groups; throughput is the
/// geomean over all groups of the best PIMphony cell. Median TPOT is the
/// geomean over every PIMphony cell: the best-of pick jumps between
/// factorizations from one draw to the next, and their TPOTs differ.
pub fn ladder_summary(cells: &[Materialized], reports: &[ServingReport]) -> Modelled {
    type Group = (&'static str, String, SystemKind);
    let mut best: Vec<(Group, Techniques, &ServingReport)> = Vec::new();
    for (m, r) in cells.iter().zip(reports) {
        let (model, dataset, kind, t) = ladder_group(m);
        let key = (model, dataset, kind);
        match best.iter_mut().find(|(k, bt, _)| *k == key && *bt == t) {
            Some(slot) if slot.2.tokens_per_second < r.tokens_per_second => slot.2 = r,
            Some(_) => {}
            None => best.push((key, t, r)),
        }
    }
    let of = |key: &Group, t: Techniques| {
        best.iter()
            .find(|(k, bt, _)| k == key && *bt == t)
            .map(|(_, _, r)| *r)
    };
    let mut groups: Vec<Group> = best.iter().map(|(k, _, _)| k.clone()).collect();
    groups.dedup();
    let mut tput = Vec::new();
    let (mut pim_only, mut xpu_pim) = (Vec::new(), Vec::new());
    for g in &groups {
        let Some(top) = of(g, Techniques::pimphony()) else {
            continue;
        };
        tput.push(top.tokens_per_second);
        if let Some(base) = of(g, Techniques::baseline()) {
            let s = top.tokens_per_second / base.tokens_per_second;
            match g.2 {
                SystemKind::PimOnly => pim_only.push(s),
                SystemKind::XpuPim => xpu_pim.push(s),
            }
        }
    }
    let tpot: Vec<f64> = cells
        .iter()
        .zip(reports)
        .filter(|(m, _)| *m.evaluator.techniques() == Techniques::pimphony())
        .map(|(_, r)| r.latency.tpot.p50)
        .collect();
    Modelled {
        tok_per_s: geomean(&tput),
        tpot_p50_s: geomean(&tpot),
        speedup_pim_only: geomean(&pim_only),
        speedup_xpu_pim: geomean(&xpu_pim),
    }
}
