//! Passes over a workload: set-up, timed runs, traced runs with
//! per-layer spans, and the layer micro-measurements.
//!
//! Every span is taken here, around calls into the simulator's public
//! functions; the simulator itself is not instrumented.

use crate::timing::{now, secs_since, time_ns, RouteTimes, TimedRouter};
use crate::workloads::{serving_evaluators, Workload};
use pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
use std::collections::BTreeSet;
use system::{
    run_pools, Evaluator, KernelModel, Materialized, PoolRun, RouterKind, Scenario, ServingReport,
    StageModel, SystemKind,
};

/// A workload's materialized cells and the host time it took to get
/// them from spec text.
pub struct Setup {
    /// The cells a pass runs (see [`Workload::runnable`]).
    pub cells: Vec<Materialized>,
    /// Seconds in `Scenario::parse` (JSON parse and validation).
    pub parse_s: f64,
    /// Seconds in `Scenario::materialize` (validation, evaluator
    /// construction and trace generation).
    pub materialize_s: f64,
}

impl Setup {
    /// Parses and materializes `specs` with fresh evaluators, running
    /// every cell on `threads` simulation threads.
    pub fn new(workload: Workload, specs: &[String], threads: usize) -> Result<Setup, String> {
        let t = now();
        let scenarios = specs
            .iter()
            .map(|s| Scenario::parse(s))
            .collect::<Result<Vec<_>, _>>()?;
        let parse_s = secs_since(t);
        let t = now();
        let mut cells = scenarios
            .iter()
            .map(Scenario::materialize)
            .collect::<Result<Vec<_>, _>>()?;
        let materialize_s = secs_since(t);
        for m in &mut cells {
            m.threads = threads;
        }
        Ok(Setup {
            cells: workload.runnable(cells),
            parse_s,
            materialize_s,
        })
    }

    /// Set-up seconds: parse plus materialize.
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.materialize_s
    }

    /// Requests one pass simulates.
    pub fn requests(&self) -> usize {
        self.cells.iter().map(|m| m.trace.len()).sum()
    }
}

/// Runs every cell through `Materialized::run`, timing the whole pass.
pub fn run_pass(cells: &[Materialized]) -> (Vec<ServingReport>, f64) {
    let t = now();
    let reports = cells.iter().map(Materialized::run).collect();
    (reports, secs_since(t))
}

/// Host time of one traced pass, split at the layer boundaries.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// The pass's reports, which must equal the untraced ones.
    pub reports: Vec<ServingReport>,
    /// Seconds of the whole pass.
    pub pass_s: f64,
    /// Seconds in the first `Evaluator::iteration` of each fresh
    /// serving evaluator: lazy kernel calibration.
    pub calibrate_s: f64,
    /// Fresh evaluators calibrated.
    pub calibrations: u64,
    /// Seconds in `run_pools` (route, advance, drain and merge).
    pub run_s: f64,
    /// Nanoseconds of every `Router::route` call.
    pub route_ns: Vec<u64>,
}

impl TracedPass {
    /// Seconds in routing decisions.
    pub fn route_s(&self) -> f64 {
        self.route_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Seconds of `run_pools` outside routing decisions: replica
    /// advance, event calendar, drain and replay merge.
    pub fn advance_s(&self) -> f64 {
        self.run_s - self.route_s()
    }
}

/// Runs every cell with timing routers and spans around calibration and
/// the cluster run. `threads` overrides each cell's thread count.
pub fn run_traced_pass(cells: &[Materialized], threads: usize) -> TracedPass {
    let sink = RouteTimes::default();
    let mut pass = TracedPass::default();
    let t = now();
    for m in cells {
        for e in serving_evaluators(m) {
            let (_, ns) = time_ns(|| calibrate(e, m));
            pass.calibrate_s += ns as f64 * 1e-9;
            pass.calibrations += 1;
        }
        let (report, ns) = time_ns(|| run_with_timed_routers(m, threads, &sink));
        pass.run_s += ns as f64 * 1e-9;
        pass.reports.push(report);
    }
    pass.pass_s = secs_since(t);
    pass.route_ns = sink.take();
    pass
}

/// The first decode iteration of a fresh evaluator, which fills its
/// kernel memo by cycle-simulating the configuration's kernels.
fn calibrate(e: &Evaluator, m: &Materialized) {
    let batch: Vec<(u64, u64)> = m
        .trace
        .requests()
        .first()
        .map(|r| vec![(r.id, r.context_len)])
        .unwrap_or_default();
    std::hint::black_box(e.iteration(&batch));
}

/// `Materialized::run` with every router wrapped in a [`TimedRouter`]:
/// the pooled path for pooled specs, the one-anonymous-pool form of
/// `Cluster::run` otherwise. Its reports are checked against the
/// unwrapped run, so the wrapper may not change a decision.
pub fn run_with_timed_routers(
    m: &Materialized,
    threads: usize,
    sink: &RouteTimes,
) -> ServingReport {
    fn pool<'a>(
        name: &str,
        eval: &'a Evaluator,
        kind: RouterKind,
        sink: &RouteTimes,
    ) -> PoolRun<'a> {
        PoolRun {
            name: name.to_string(),
            eval,
            router: Box::new(TimedRouter::new(kind.build_for(eval), sink)),
        }
    }
    let mut runs: Vec<PoolRun<'_>> = if m.pools.is_empty() {
        vec![pool("", &m.evaluator, m.router, sink)]
    } else {
        m.pools
            .iter()
            .map(|p| pool(&p.name, &p.evaluator, p.router, sink))
            .collect()
    };
    let report = run_pools(
        &mut runs,
        m.evaluator.scheduling_policy(),
        threads,
        &m.trace,
    );
    drop(runs); // hands the route samples to `sink`
    report
}

/// Per-call host nanoseconds of warm `Evaluator::iteration` and
/// `Evaluator::prefill_chunk` calls over batches replayed from each
/// cell's trace.
pub struct StageSamples {
    /// Nanoseconds per `iteration` call.
    pub iteration_ns: Vec<u64>,
    /// Nanoseconds per `prefill_chunk` call.
    pub prefill_chunk_ns: Vec<u64>,
}

/// Replays each cell's trace through its (already calibrated) serving
/// evaluators, about `limit` calls of each kind split evenly over them.
/// A decode batch is `mean_batch` consecutive arrivals at their
/// mid-decode length; prefill walks each prompt in the evaluator's chunk
/// size (512 tokens when prefill is off).
pub fn stage_samples(
    cells: &[Materialized],
    reports: &[ServingReport],
    limit: usize,
) -> StageSamples {
    let evaluators: usize = cells.iter().map(|m| serving_evaluators(m).len()).sum();
    let quota = limit.div_ceil(evaluators.max(1));
    let mut out = StageSamples {
        iteration_ns: Vec::new(),
        prefill_chunk_ns: Vec::new(),
    };
    for (m, r) in cells.iter().zip(reports) {
        let reqs = m.trace.arrival_ordered();
        let batch = (r.mean_batch.round() as usize).clamp(1, reqs.len().max(1));
        let batches: Vec<Vec<(u64, u64)>> = reqs
            .chunks(batch)
            .take(quota)
            .map(|w| {
                w.iter()
                    .map(|q| (q.id, q.context_len + q.decode_len / 2))
                    .collect()
            })
            .collect();
        for e in serving_evaluators(m) {
            for b in &batches {
                out.iteration_ns.push(time_ns(|| e.iteration(b)).1);
            }
            let chunk = match e.prefill_config() {
                p if p.enabled => p.chunk_tokens.max(1),
                _ => 512,
            };
            let prompt_chunks = reqs
                .iter()
                .flat_map(|q| {
                    (0..q.context_len)
                        .step_by(chunk as usize)
                        .map(move |done| (done, chunk.min(q.context_len - done)))
                })
                .take(quota);
            for (done, c) in prompt_chunks {
                out.prefill_chunk_ns
                    .push(time_ns(|| e.prefill_chunk(done, c)).1);
            }
        }
    }
    out
}

/// One PIM command stream a calibration simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KernelShape {
    /// Score kernel: tokens, head dim, group, row reuse, PIMphony
    /// buffers.
    Qkt(u32, u32, u32, bool, bool),
    /// Value kernel, same fields.
    Sv(u32, u32, u32, bool, bool),
    /// FC GEMV per channel: dout, din, PIMphony buffers.
    Gemv(u32, u32, bool),
}

/// Token counts the kernel model fits its affine attention cost at.
const CALIBRATION_TOKENS: [u32; 2] = [512, 4096];

/// The distinct kernel streams the cells' serving evaluators calibrate
/// on: both attention kernels at the fit's two token counts for each
/// evaluator's group and buffer configuration, and, on PIM-only
/// systems, one GEMV per FC projection at the per-channel shard shape.
fn kernel_shapes(cells: &[Materialized]) -> BTreeSet<KernelShape> {
    let mut shapes = BTreeSet::new();
    for m in cells {
        for e in serving_evaluators(m) {
            let (sys, model, t) = (*e.system(), *e.model(), *e.techniques());
            let memo = KernelModel::new(Timing::aimx(), model.head_dim);
            let stage = StageModel::new(sys, model, t, &memo);
            let (group, reuse, buffers) = (stage.effective_group(), stage.row_reuse(), t.dcs);
            for tokens in CALIBRATION_TOKENS {
                shapes.insert(KernelShape::Qkt(
                    tokens,
                    model.head_dim,
                    group,
                    reuse,
                    buffers,
                ));
                shapes.insert(KernelShape::Sv(
                    tokens,
                    model.head_dim,
                    group,
                    reuse,
                    buffers,
                ));
            }
            if sys.kind == SystemKind::PimOnly {
                let d = model.hidden_dim;
                let kvd = model.kv_heads() * model.head_dim;
                let f = model.ffn_dim;
                let split = sys.parallel.tp * sys.module.channels;
                for (dout, din) in [(d, d), (kvd, d), (f, d), (d, f)] {
                    shapes.insert(KernelShape::Gemv(dout.div_ceil(split).max(1), din, buffers));
                }
            }
        }
    }
    shapes
}

/// Host cost of the cycle simulator over a workload's calibration
/// kernels.
#[derive(Debug, Default)]
pub struct PimSimSample {
    /// Commands in one round of the workload's distinct kernel streams.
    pub commands: u64,
    /// Rounds measured.
    pub rounds: u64,
    /// Nanoseconds building the streams, over all rounds.
    pub build_ns: u64,
    /// Nanoseconds scheduling the streams, over all rounds, per
    /// [`SchedulerKind::ALL`] entry.
    pub schedule_ns: [u64; 3],
}

/// Builds each distinct calibration stream with the kernels' public
/// `stream()` and schedules it under every scheduler, for rounds until
/// `budget_s` has passed (at least one).
pub fn pim_sim_sample(cells: &[Materialized], budget_s: f64) -> PimSimSample {
    let shapes = kernel_shapes(cells);
    let timing = Timing::aimx();
    let mut out = PimSimSample::default();
    let t = now();
    loop {
        let mut commands = 0u64;
        for &shape in &shapes {
            let buffers = match shape {
                KernelShape::Qkt(.., b) | KernelShape::Sv(.., b) | KernelShape::Gemv(.., b) => b,
            };
            let geom = if buffers {
                Geometry::pimphony()
            } else {
                Geometry::baseline()
            };
            let (stream, ns) = time_ns(|| match shape {
                KernelShape::Qkt(tokens, head_dim, group_size, row_reuse, _) => {
                    QktKernel::new(attention(tokens, head_dim, group_size, row_reuse), geom)
                        .stream()
                }
                KernelShape::Sv(tokens, head_dim, group_size, row_reuse, _) => {
                    SvKernel::new(attention(tokens, head_dim, group_size, row_reuse), geom).stream()
                }
                KernelShape::Gemv(dout, din, _) => {
                    GemvKernel::new(GemvSpec { dout, din }, geom).stream()
                }
            });
            out.build_ns += ns;
            commands += stream.len() as u64;
            for (i, kind) in SchedulerKind::ALL.into_iter().enumerate() {
                out.schedule_ns[i] += time_ns(|| schedule(&stream, kind, &timing, &geom)).1;
            }
        }
        out.commands = commands;
        out.rounds += 1;
        if secs_since(t) >= budget_s {
            return out;
        }
    }
}

fn attention(tokens: u32, head_dim: u32, group_size: u32, row_reuse: bool) -> AttentionSpec {
    AttentionSpec {
        tokens,
        head_dim,
        group_size,
        row_reuse,
    }
}
