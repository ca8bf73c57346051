//! Decode-iteration composition: attention stage, FC stage, TP/PP.
//!
//! One decode iteration advances every admitted request by one token.
//! Under tensor parallelism each module owns `kv_heads / tp` heads and a
//! `1/tp` shard of every FC matrix; under pipeline parallelism each module
//! owns `layers / pp` consecutive layers and micro-batches flow through
//! the stages (bubbles appear when the batch is smaller than the pipeline
//! depth — the CENT collapse of paper Fig. 17(b)).

use crate::config::{SystemConfig, SystemKind, Techniques};
use crate::fold;
use crate::kernel::{AttentionEval, AttentionKind, KernelCounts, KernelModel, KernelStats};
use llm_model::ModelConfig;
use pim_compiler::Partitioning;
use pim_sim::epu::EpuConfig;
use pim_sim::SchedulerKind;
use serde::Serialize;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Latency and activity of one attention stage execution on one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct AttentionStage {
    /// Module makespan in cycles (slowest channel).
    pub cycles: f64,
    /// MAC utilization across the module's channels in `[0, 1]`.
    pub utilization: f64,
    /// Aggregate kernel event counts across all channels.
    pub totals: KernelCounts,
    /// Channels with work.
    pub active_channels: u32,
}

/// One decode iteration's latency breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct IterationBreakdown {
    /// Wall-clock seconds for the iteration.
    pub seconds: f64,
    /// Seconds in PIM attention.
    pub attn_seconds: f64,
    /// Seconds in the FC stage.
    pub fc_seconds: f64,
    /// Seconds in TP synchronization.
    pub sync_seconds: f64,
    /// Pipeline-bubble seconds.
    pub bubble_seconds: f64,
    /// Attention MAC utilization (module average).
    pub attn_utilization: f64,
    /// Aggregate attention kernel event counts (per replica, all layers).
    pub attn_totals: KernelCounts,
    /// FC FLOPs executed (per replica).
    pub fc_flops: f64,
    /// Aggregate FC kernel event counts (PIM-only systems).
    pub fc_totals: KernelCounts,
}

/// Computes stage latencies for one (system, model, techniques) tuple.
#[derive(Debug)]
pub struct StageModel<'a> {
    system: SystemConfig,
    model: ModelConfig,
    techniques: Techniques,
    kernels: &'a KernelModel,
    /// The kernel costs every pricing call uses, looked up in the
    /// shared memo once, at the first pricing call (so a fresh
    /// evaluator's calibration still happens inside its first priced
    /// step). The stage models an evaluator builds borrow its cell, so
    /// they resolve the costs once between them.
    costs: Cow<'a, OnceLock<Box<KernelCosts>>>,
}

/// One stage model's kernel costs: its configuration's attention
/// kernels and, on PIM-only systems, the per-channel statistics of its
/// FC GEMVs ([`StageModel::fc_ops`] order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelCosts {
    qkt: AttentionEval,
    sv: AttentionEval,
    /// `None` on xPU+PIM systems, whose FC never runs on PIM.
    fc_gemvs: Option<[KernelStats; 7]>,
}

/// What one KV slice adds to its attention stage: both kernels' event
/// counts (added to the totals in that order), their MAC-busy cycles,
/// and the slice's cycles on its channel.
#[derive(Debug, Clone, Copy, Default)]
struct SlicePrice {
    qkt: KernelCounts,
    sv: KernelCounts,
    busy: f64,
    cycles: f64,
}

/// What a layer's channel loop sums: the run-wide event counts and
/// MAC-busy cycles, the slowest channel's cycles, and the channels with
/// work.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelSums {
    totals: KernelCounts,
    busy_sum: f64,
    makespan: f64,
    active: u32,
}

impl ChannelSums {
    /// Adds one slice to the run-wide sums and to its channel's `cycles`.
    fn add(&mut self, p: &SlicePrice, cycles: &mut f64) {
        self.totals.accumulate(&p.qkt);
        self.totals.accumulate(&p.sv);
        self.busy_sum += p.busy;
        *cycles += p.cycles;
    }

    /// Adds TCP channel `c`'s slices: request by request, each once per
    /// KV head.
    fn add_tcp_channel(&mut self, slices: &[TcpSlices], kv_heads: u32, c: u32) {
        let mut cycles = 0.0;
        let mut has_work = false;
        for r in slices {
            let Some(p) = r.at(c) else { continue };
            has_work = true;
            for _ in 0..kv_heads {
                self.add(p, &mut cycles);
            }
        }
        self.makespan = self.makespan.max(cycles);
        self.active += u32::from(has_work);
    }

    /// Every field's bits, for exact comparison.
    fn bits(&self) -> [u64; 6] {
        let t = &self.totals;
        let [macs, ios, rows, busy, makespan] =
            [t.macs, t.ios, t.row_switches, self.busy_sum, self.makespan].map(f64::to_bits);
        [macs, ios, rows, busy, makespan, u64::from(self.active)]
    }
}

/// One request's slices under TCP, per KV head: a `per`-token slice on
/// each of channels `0..full`, and the remainder on channel `full` when
/// `rem` is set.
#[derive(Debug, Clone, Copy)]
struct TcpSlices {
    full: u32,
    per: SlicePrice,
    rem: Option<SlicePrice>,
}

impl TcpSlices {
    /// The slices [`pim_compiler::ModulePartition::assign`] cuts from
    /// `tokens` over `channels`, each size priced once.
    fn new(tokens: u64, channels: u32, price: impl Fn(u64) -> SlicePrice) -> Self {
        let per = tokens.div_ceil(u64::from(channels));
        if per == 0 {
            return TcpSlices {
                full: 0,
                per: SlicePrice::default(),
                rem: None,
            };
        }
        let rem = tokens % per;
        TcpSlices {
            full: u32::try_from(tokens / per).expect("per · channels ≥ tokens"),
            per: price(per),
            rem: (rem > 0).then(|| price(rem)),
        }
    }

    /// The price of this request's slice on `channel`, if it has one.
    fn at(&self, channel: u32) -> Option<&SlicePrice> {
        if channel < self.full {
            Some(&self.per)
        } else if channel == self.full {
            self.rem.as_ref()
        } else {
            None
        }
    }
}

/// Sums a TCP layer's `channels` channels. Channels `0..lead`, where
/// `lead` is the smallest [`TcpSlices::full`], each take every request's
/// `per` slice once per KV head: the same operands in the same order.
/// So they share one channel's cycles, and each run-wide sum takes the
/// same fold `lead` times over, which [`fold::repeat`] fast-forwards
/// exactly. The remaining channels are added one by one. Bit-exact with
/// [`tcp_replay`].
fn tcp_sums(slices: &[TcpSlices], kv_heads: u32, channels: u32) -> ChannelSums {
    let lead = slices.iter().map(|r| r.full).min().unwrap_or(0);
    let mut sums = ChannelSums::default();
    if lead > 0 {
        let cycles = fold::chain(0.0, slices, kv_heads, &|r| [r.per.cycles]);
        sums.makespan = sums.makespan.max(cycles);
        sums.totals = KernelCounts {
            macs: fold::repeat(0.0, slices, kv_heads, lead, |r| {
                [r.per.qkt.macs, r.per.sv.macs]
            }),
            ios: fold::repeat(0.0, slices, kv_heads, lead, |r| {
                [r.per.qkt.ios, r.per.sv.ios]
            }),
            row_switches: fold::repeat(0.0, slices, kv_heads, lead, |r| {
                [r.per.qkt.row_switches, r.per.sv.row_switches]
            }),
        };
        sums.busy_sum = fold::repeat(0.0, slices, kv_heads, lead, |r| [r.per.busy]);
        sums.active = lead;
    }
    for c in lead..channels {
        fold::count_fold();
        sums.add_tcp_channel(slices, kv_heads, c);
    }
    sums
}

/// A TCP layer's adds replayed one by one in
/// [`pim_compiler::ModulePartition::assign`]'s channel-major order: the
/// reference [`tcp_sums`] is checked against in debug builds.
fn tcp_replay(slices: &[TcpSlices], kv_heads: u32, channels: u32) -> ChannelSums {
    let mut sums = ChannelSums::default();
    for c in 0..channels {
        sums.add_tcp_channel(slices, kv_heads, c);
    }
    sums
}

impl<'a> StageModel<'a> {
    /// Creates a stage model.
    pub fn new(
        system: SystemConfig,
        model: ModelConfig,
        techniques: Techniques,
        kernels: &'a KernelModel,
    ) -> Self {
        StageModel {
            system,
            model,
            techniques,
            kernels,
            costs: Cow::Owned(OnceLock::new()),
        }
    }

    /// A stage model whose kernel costs are resolved into, and read
    /// from, `costs`: every stage model built over one cell (with the
    /// same configuration and kernel model) resolves them once.
    pub(crate) fn sharing(
        system: SystemConfig,
        model: ModelConfig,
        techniques: Techniques,
        kernels: &'a KernelModel,
        costs: &'a OnceLock<Box<KernelCosts>>,
    ) -> Self {
        StageModel {
            system,
            model,
            techniques,
            kernels,
            costs: Cow::Borrowed(costs),
        }
    }

    /// The kernel costs, resolved from the memo (and calibrated there
    /// if new) on first use.
    fn costs(&self) -> &KernelCosts {
        self.costs.get_or_init(|| Box::new(self.resolve_costs()))
    }

    /// Looks the kernel costs up in the memo. Kept out of line: this
    /// once-per-model path has no business in the inlining budget of
    /// the pricing methods, whose slice pricing and replay loop
    /// ([`Self::price_partition`]) should inline into them.
    #[cold]
    #[inline(never)]
    fn resolve_costs(&self) -> KernelCosts {
        let sched = self.scheduler();
        let buffers = self.techniques.dcs;
        let group = self.effective_group();
        let row_reuse = self.row_reuse();
        let attention = |kind| {
            self.kernels
                .attention_eval(kind, sched, buffers, group, row_reuse)
        };
        let (qkt, sv) = (attention(AttentionKind::Qkt), attention(AttentionKind::Sv));
        let fc_gemvs = (self.system.kind == SystemKind::PimOnly).then(|| {
            let per_channel = self.system.parallel.tp * self.system.module.channels;
            self.fc_ops().map(|(dout, din)| {
                self.kernels
                    .gemv(sched, buffers, dout.div_ceil(per_channel).max(1), din)
            })
        });
        KernelCosts { qkt, sv, fc_gemvs }
    }

    /// The command scheduler implied by the technique set.
    pub fn scheduler(&self) -> SchedulerKind {
        if self.techniques.dcs {
            SchedulerKind::Dcs
        } else {
            SchedulerKind::Static
        }
    }

    /// Whether the GQA row-reuse mapping is active (profitable only with
    /// DCS, paper §V-C), given the module's effective group size.
    pub fn row_reuse(&self) -> bool {
        self.effective_group() > 1 && self.techniques.dcs
    }

    fn partitioning(&self) -> Partitioning {
        if self.techniques.tcp {
            Partitioning::TokenCentric
        } else {
            Partitioning::HeadFirst
        }
    }

    /// Query heads resident on one module under TP.
    fn q_heads_per_module(&self) -> u32 {
        self.model.heads.div_ceil(self.system.parallel.tp).max(1)
    }

    /// GQA group size as seen by one module: TP shards query heads, so a
    /// module may hold fewer queries per KV head than the model's `g`.
    pub fn effective_group(&self) -> u32 {
        self.model.gqa_group.min(self.q_heads_per_module()).max(1)
    }

    /// KV-head instances a module computes against (its query heads
    /// grouped by shared KV).
    fn kv_instances_per_module(&self) -> u32 {
        self.q_heads_per_module()
            .div_ceil(self.effective_group())
            .max(1)
    }

    /// Prices this module's KV partition of `requests` into one
    /// attention stage. `price(t)` gives what one slice of `t` resident
    /// keys adds to the stage; `softmax` is the EPU's serial tail, added
    /// to the makespan.
    ///
    /// This is the simulator's innermost loop, run at every priced
    /// decode step and prefill micro-chunk. A request's slices come in
    /// at most two sizes (HFP: one whole-context slice per KV head; TCP:
    /// `ceil(t / channels)` tokens on each of the leading channels and
    /// one remainder), so `price` is asked once per size per request.
    /// Every float accumulator then ends where a loop over
    /// [`pim_compiler::ModulePartition::assign`]'s channels and their
    /// slices (channel-major, then request, then KV head) leaves it, so
    /// the stage is bit-exact with pricing each slice where it lies: HFP
    /// replays those adds, and TCP adds its identical leading channels
    /// once ([`tcp_sums`]).
    fn price_partition(
        &self,
        requests: &[(u64, u64)],
        softmax: f64,
        price: impl Fn(u64) -> SlicePrice,
    ) -> AttentionStage {
        let channels = self.system.module.channels;
        let kv_heads = self.kv_instances_per_module();
        let sums = match self.partitioning() {
            Partitioning::HeadFirst => {
                // assign places flat (request, head) pair `i` wholly on
                // channel `i % channels`, zero-token pairs included.
                let kv_heads = kv_heads as usize;
                let prices: Vec<SlicePrice> = requests.iter().map(|&(_, t)| price(t)).collect();
                let pairs = prices.len() * kv_heads;
                let mut sums = ChannelSums::default();
                for c in 0..channels as usize {
                    let mut cycles = 0.0;
                    for pair in (c..pairs).step_by(channels as usize) {
                        sums.add(&prices[pair / kv_heads], &mut cycles);
                    }
                    sums.makespan = sums.makespan.max(cycles);
                }
                sums.active = pairs.min(channels as usize) as u32;
                sums
            }
            Partitioning::TokenCentric => {
                let slices: Vec<TcpSlices> = requests
                    .iter()
                    .map(|&(_, t)| TcpSlices::new(t, channels, &price))
                    .collect();
                let sums = tcp_sums(&slices, kv_heads, channels);
                debug_assert_eq!(
                    sums.bits(),
                    tcp_replay(&slices, kv_heads, channels).bits(),
                    "TCP fast path against the channel-major replay, requests {requests:?}"
                );
                sums
            }
        };
        let makespan = sums.makespan + softmax;
        let utilization = if makespan > 0.0 {
            (sums.busy_sum / (f64::from(channels) * makespan)).min(1.0)
        } else {
            0.0
        };
        AttentionStage {
            cycles: makespan,
            utilization,
            totals: sums.totals,
            active_channels: sums.active,
        }
    }

    /// Attention stage for one layer on one module, given the admitted
    /// requests' current token counts.
    pub fn attention_layer(&self, batch_tokens: &[(u64, u64)]) -> AttentionStage {
        if batch_tokens.is_empty() {
            return AttentionStage::default();
        }
        let channels = self.system.module.channels;
        let epu = EpuConfig::default();
        // Inter-channel SV reduction through the HUB/GPR + EPU (TCP only)
        // — negligible by design (paper §IV-C: <0.2% of attention time).
        let reduction = if self.techniques.tcp {
            epu.reduce_cycles(channels, self.model.head_dim) as f64
        } else {
            0.0
        };
        // Softmax on the EPU between QKT and SV, per (request, head);
        // pipelined with PIM execution, it adds only its serial tail.
        let softmax: f64 = batch_tokens
            .iter()
            .map(|&(_, t)| epu.softmax_cycles(t) as f64)
            .sum::<f64>()
            * f64::from(self.kv_instances_per_module())
            / f64::from(channels);
        // The affine fits come resolved (no per-slice memo lock).
        let KernelCosts { qkt, sv, .. } = *self.costs();
        self.price_partition(batch_tokens, softmax, |t| {
            let (qkt, sv) = (qkt.stats(t), sv.stats(t));
            SlicePrice {
                qkt: qkt.counts(),
                sv: sv.counts(),
                busy: qkt.mac_busy + sv.mac_busy,
                cycles: qkt.cycles + sv.cycles + reduction,
            }
        })
    }

    /// Attention stage of one *prefill* step on one module: `chunk`
    /// prompt tokens of a single request whose first `done` prompt
    /// tokens are already KV-resident. Causal attention makes the total
    /// work a prefix sum, priced in closed form by
    /// [`AttentionEval::prefill`]; the per-channel share follows the
    /// same KV partitioning as decode (HFP: channel-resident pairs, TCP:
    /// token slices across all channels), distributing the causal total
    /// proportionally to each channel's resident-key share. The price
    /// depends on `done` and `chunk` alone.
    pub fn prefill_attention_layer(&self, done: u64, chunk: u64) -> AttentionStage {
        if chunk == 0 {
            return AttentionStage::default();
        }
        let total_keys = done + chunk;
        let channels = self.system.module.channels;
        let epu = EpuConfig::default();
        // Every query position reduces across channels under TCP.
        let reduction = if self.techniques.tcp {
            epu.reduce_cycles(channels, self.model.head_dim) as f64 * chunk as f64
        } else {
            0.0
        };
        let costs = self.costs();
        let qkt = costs.qkt.prefill(done, chunk);
        let sv = costs.sv.prefill(done, chunk);
        // Softmax per query position over its causal prefix — affine in
        // the prefix length, so the chunk prices at its midpoint
        // position (same EPU distribution as decode).
        let mid_keys = done + chunk.div_ceil(2);
        let softmax = chunk as f64
            * epu.softmax_cycles(mid_keys) as f64
            * f64::from(self.kv_instances_per_module())
            / f64::from(channels);
        self.price_partition(&[(0, total_keys)], softmax, |t| {
            let share = t as f64 / total_keys as f64;
            SlicePrice {
                qkt: qkt.counts().scaled(share),
                sv: sv.counts().scaled(share),
                busy: (qkt.mac_busy + sv.mac_busy) * share,
                cycles: (qkt.cycles + sv.cycles) * share + reduction,
            }
        })
    }

    /// One prefill step processing `chunk` prompt tokens of one request
    /// (`done` prompt tokens already resident) through every layer. FC
    /// runs the chunk as a token batch — streamed GEMV passes on PIM, a
    /// genuine weight-amortizing GEMM on the xPU — TP syncs the chunk's
    /// activations, and PP micro-batches the chunk's tokens through the
    /// stages in causal order (micro `j` prefills after micro `j-1`'s
    /// tokens are resident). Unlike [`Self::iteration`], which prices
    /// one decode step, the returned breakdown holds the chunk's
    /// *totals*.
    ///
    /// Chunking granularity: the causal attention/FC work is
    /// chunk-invariant (the prefix sum does not care where it is cut),
    /// so at `pp = 1` a prompt costs the same however it is chunked. At
    /// `pp ≥ 2` each chunk is a separate pipeline pass — the scheduler
    /// interleaves decode iterations between chunks, so the pipeline
    /// genuinely drains — and a chunk smaller than the pipeline depth
    /// pays its own fill/drain bubbles; fine-grained chunked prefill is
    /// therefore *not* free under pipeline parallelism.
    pub fn prefill_chunk(&self, done: u64, chunk: u64) -> IterationBreakdown {
        if chunk == 0 {
            return IterationBreakdown::default();
        }
        let m = chunk.min(u64::from(self.system.parallel.pp)).max(1);
        let (base, rem) = (chunk / m, chunk % m);
        let mut offset = done;
        self.pipeline((0..m).map(|j| {
            let c_j = base + u64::from(j < rem);
            let attn = self.prefill_attention_layer(offset, c_j);
            offset += c_j;
            (attn, c_j as usize)
        }))
    }

    /// Prices one pass of micro-batches through the PP stages. Each
    /// micro comes as its attention stage and its batch size (decode:
    /// requests; prefill: prompt tokens), in pipeline order, and adds
    /// one operand to every accumulator in that order. `m` micros leave
    /// `pp − m` stages idle: that bubble costs the mean stage time per
    /// idle stage, added after the stages.
    fn pipeline(
        &self,
        micros: impl Iterator<Item = (AttentionStage, usize)>,
    ) -> IterationBreakdown {
        let pp = self.system.parallel.pp as usize;
        let layers = (self.model.layers as usize).div_ceil(pp) as f64;
        let clock = self.system.module.clock_hz;
        let mut out = IterationBreakdown::default();
        let (mut m, mut stage_secs_sum, mut util_weighted) = (0usize, 0.0, 0.0);
        for (attn, batch) in micros {
            let (fc_secs, fc_flops, fc_stats) = self.fc_layer(batch);
            let sync = self.sync_layer(batch);
            let attn_secs = attn.cycles / clock;
            let stage = layers * (attn_secs + fc_secs + sync);
            stage_secs_sum += stage;
            out.attn_seconds += layers * attn_secs;
            out.fc_seconds += layers * fc_secs;
            out.sync_seconds += layers * sync;
            out.attn_totals
                .accumulate(&attn.totals.scaled(layers * pp as f64));
            out.fc_flops += fc_flops * layers * pp as f64;
            out.fc_totals
                .accumulate(&fc_stats.scaled(layers * pp as f64));
            util_weighted += attn.utilization * stage;
            m += 1;
        }
        out.bubble_seconds = pp.saturating_sub(m) as f64 * (stage_secs_sum / m as f64);
        out.seconds = stage_secs_sum + out.bubble_seconds;
        out.attn_utilization = if stage_secs_sum > 0.0 {
            // Bubbles idle the whole module, scaling utilization down.
            (util_weighted / stage_secs_sum) * (stage_secs_sum / out.seconds)
        } else {
            0.0
        };
        out
    }

    /// FC-op dimensions of one decoder layer: Q/K/V/O projections + gated
    /// FFN.
    fn fc_ops(&self) -> [(u32, u32); 7] {
        let d = self.model.hidden_dim;
        let kvd = self.model.kv_heads() * self.model.head_dim;
        let f = self.model.ffn_dim;
        [(d, d), (kvd, d), (kvd, d), (d, d), (f, d), (f, d), (d, f)]
    }

    /// FC stage seconds for one layer at batch size `batch`, plus FLOPs
    /// and (PIM-only) kernel statistics.
    pub fn fc_layer(&self, batch: usize) -> (f64, f64, KernelCounts) {
        if batch == 0 {
            return (0.0, 0.0, KernelCounts::default());
        }
        let tp = self.system.parallel.tp;
        let ops = self.fc_ops();
        let flops: f64 = 2.0
            * batch as f64
            * ops
                .iter()
                .map(|&(o, i)| f64::from(o) * f64::from(i))
                .sum::<f64>()
            / f64::from(tp);
        match self.system.kind {
            SystemKind::PimOnly => {
                // FC runs on PIM: every channel owns a dout shard; the
                // batch streams through as `batch` GEMV passes.
                let gemvs = self
                    .costs()
                    .fc_gemvs
                    .as_ref()
                    .expect("PIM-only costs hold the GEMVs");
                let channels = self.system.module.channels;
                let mut cycles = 0.0;
                let mut totals = KernelCounts::default();
                for g in gemvs {
                    cycles += batch as f64 * g.cycles;
                    totals.accumulate(&g.counts().scaled(batch as f64 * f64::from(channels)));
                }
                (cycles / self.system.module.clock_hz, flops, totals)
            }
            SystemKind::XpuPim => {
                let weight_bytes: f64 = ops
                    .iter()
                    .map(|&(o, i)| f64::from(o) * f64::from(i))
                    .sum::<f64>()
                    * f64::from(self.model.dtype_bytes)
                    / f64::from(tp);
                let compute = flops / self.system.module.xpu_flops;
                let memory = weight_bytes / self.system.module.xpu_mem_bw;
                (compute.max(memory), flops, KernelCounts::default())
            }
        }
    }

    /// TP all-reduce seconds per layer.
    fn sync_layer(&self, batch: usize) -> f64 {
        let tp = self.system.parallel.tp;
        if tp <= 1 || batch == 0 {
            return 0.0;
        }
        let bytes =
            batch as f64 * f64::from(self.model.hidden_dim) * f64::from(self.model.dtype_bytes);
        2.0 * (f64::from(tp) - 1.0) / f64::from(tp) * bytes / self.system.module.interconnect_bw
    }

    /// One decode iteration over the admitted requests (id, tokens pairs).
    pub fn iteration(&self, batch: &[(u64, u64)]) -> IterationBreakdown {
        let b = batch.len();
        if b == 0 {
            return IterationBreakdown::default();
        }
        let m = b.min(self.system.parallel.pp as usize).max(1);
        if m == 1 {
            // The common no-pipeline case: the single micro-batch is
            // the whole batch in order — price it in place.
            return self.pipeline(std::iter::once((self.attention_layer(batch), b)));
        }
        // Round-robin micro-batch split.
        let mut micros: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m];
        for (i, &req) in batch.iter().enumerate() {
            micros[i % m].push(req);
        }
        self.pipeline(
            micros
                .iter()
                .map(|micro| (self.attention_layer(micro), micro.len())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::{LLM_7B_128K_GQA, LLM_7B_32K};
    use pim_compiler::{ModulePartition, ParallelConfig};
    use pim_sim::Timing;

    fn kernels() -> KernelModel {
        KernelModel::new(Timing::aimx(), 128)
    }

    #[test]
    fn tcp_raises_attention_utilization() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let base = StageModel::new(sys, LLM_7B_32K, Techniques::baseline(), &k);
        let tcp = StageModel::new(sys, LLM_7B_32K, Techniques::tcp_only(), &k);
        // One long request: HFP strands all but a few channels.
        let batch = [(0u64, 32_768u64)];
        let b = base.attention_layer(&batch);
        let t = tcp.attention_layer(&batch);
        assert!(
            t.utilization > b.utilization * 2.0,
            "{} vs {}",
            t.utilization,
            b.utilization
        );
        assert!(t.cycles < b.cycles);
        assert_eq!(t.active_channels, 32);
    }

    #[test]
    fn dcs_shrinks_attention_cycles_further() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let tcp = StageModel::new(sys, LLM_7B_32K, Techniques::tcp_only(), &k);
        let dcs = StageModel::new(sys, LLM_7B_32K, Techniques::tcp_dcs(), &k);
        let batch = [(0u64, 32_768u64), (1, 16_384)];
        assert!(dcs.attention_layer(&batch).cycles < tcp.attention_layer(&batch).cycles);
    }

    #[test]
    fn iteration_time_grows_with_context() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        let short = m.iteration(&[(0, 4096)]);
        let long = m.iteration(&[(0, 65_536)]);
        assert!(long.seconds > 2.0 * short.seconds);
        assert!(long.attn_seconds > short.attn_seconds);
    }

    #[test]
    fn pp_with_small_batch_has_bubbles() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(1, 8));
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        let solo = m.iteration(&[(0, 16_384)]);
        assert!(solo.bubble_seconds > 0.0);
        let full: Vec<(u64, u64)> = (0..8).map(|i| (i, 16_384)).collect();
        let filled = m.iteration(&full);
        assert_eq!(filled.bubble_seconds, 0.0);
        // Eight requests through a full pipeline finish in far less than
        // eight times the solo latency.
        assert!(filled.seconds < 4.0 * solo.seconds);
    }

    #[test]
    fn xpu_fc_is_much_faster_than_pim_fc() {
        let k = kernels();
        let cent = SystemConfig::cent_for(&LLM_7B_32K);
        let neu = SystemConfig::neupims_for(&LLM_7B_32K);
        let mc = StageModel::new(cent, LLM_7B_32K, Techniques::pimphony(), &k);
        let mn = StageModel::new(neu, LLM_7B_32K, Techniques::pimphony(), &k);
        // At batch 1, PIM's internal bandwidth makes FC GEMV competitive;
        // the NPU pulls ahead once batching amortizes weight streaming.
        let (fc_c, _, _) = mc.fc_layer(16);
        let (fc_n, _, _) = mn.fc_layer(16);
        assert!(fc_c > 2.0 * fc_n, "CENT {fc_c} vs NeuPIMs {fc_n}");
    }

    #[test]
    fn gqa_row_reuse_only_with_dcs() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_128K_GQA);
        let no_dcs = StageModel::new(sys, LLM_7B_128K_GQA, Techniques::tcp_only(), &k);
        let dcs = StageModel::new(sys, LLM_7B_128K_GQA, Techniques::tcp_dcs(), &k);
        assert!(!no_dcs.row_reuse());
        assert!(dcs.row_reuse());
    }

    #[test]
    fn prefill_chunk_monotone_in_chunk_and_position() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        assert_eq!(m.prefill_chunk(0, 0).seconds, 0.0);
        let small = m.prefill_chunk(0, 256);
        let large = m.prefill_chunk(0, 1024);
        assert!(large.seconds > small.seconds);
        // Later chunks attend to longer prefixes, so the same chunk
        // size costs more deeper into the prompt.
        let early = m.prefill_chunk(0, 512);
        let late = m.prefill_chunk(8192, 512);
        assert!(late.seconds > early.seconds);
        assert!(late.attn_seconds > early.attn_seconds);
    }

    #[test]
    fn chunked_prefill_sums_to_whole_prompt_without_pp() {
        // At pp = 1 (no pipeline fill/drain) splitting a prompt into
        // chunks must cost (almost) the same as one whole-prompt pass:
        // causal totals are chunk-invariant; only softmax midpoint
        // rounding may differ.
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        assert_eq!(sys.parallel.pp, 1);
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        let prompt = 4096u64;
        let whole = m.prefill_chunk(0, prompt);
        let mut split = 0.0;
        let mut done = 0u64;
        while done < prompt {
            let c = 512.min(prompt - done);
            split += m.prefill_chunk(done, c).seconds;
            done += c;
        }
        let err = (whole.seconds - split).abs() / whole.seconds;
        assert!(err < 0.02, "whole {} vs split {split}", whole.seconds);
    }

    #[test]
    fn chunked_prefill_pays_pipeline_fill_under_pp() {
        // At pp >= 2 every chunk is its own pipeline pass (decode
        // iterations interleave between chunks, draining the pipeline),
        // so chunks below the pipeline depth pay fill/drain bubbles and
        // fine chunking costs strictly more than one whole-prompt pass
        // — bounded by the fully-serialized pp× worst case.
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(1, 4));
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        let prompt = 2048u64;
        let whole = m.prefill_chunk(0, prompt);
        assert_eq!(whole.bubble_seconds, 0.0, "chunk >= pp streams bubble-free");
        let mut split = 0.0;
        let mut done = 0u64;
        while done < prompt {
            split += m.prefill_chunk(done, 1).seconds;
            done += 1;
        }
        assert!(split > whole.seconds, "{split} vs {}", whole.seconds);
        assert!(
            split <= 4.0 * whole.seconds * 1.02,
            "{split} vs {}",
            whole.seconds
        );
    }

    #[test]
    fn xpu_prefill_fc_is_faster_than_pim_fc() {
        // Prefill FC is a GEMM: the xPU amortizes weight streaming over
        // the chunk's tokens, while PIM pays per-token GEMV passes.
        let k = kernels();
        let cent = SystemConfig::cent_for(&LLM_7B_32K);
        let neu = SystemConfig::neupims_for(&LLM_7B_32K);
        let mc = StageModel::new(cent, LLM_7B_32K, Techniques::pimphony(), &k);
        let mn = StageModel::new(neu, LLM_7B_32K, Techniques::pimphony(), &k);
        let pc = mc.prefill_chunk(0, 512);
        let pn = mn.prefill_chunk(0, 512);
        assert!(pc.fc_seconds > 4.0 * pn.fc_seconds, "{pc:?} vs {pn:?}");
    }

    #[test]
    fn tcp_spreads_prefill_attention_over_channels() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let base = StageModel::new(sys, LLM_7B_32K, Techniques::baseline(), &k);
        let tcp = StageModel::new(sys, LLM_7B_32K, Techniques::tcp_only(), &k);
        let b = base.prefill_attention_layer(0, 2048);
        let t = tcp.prefill_attention_layer(0, 2048);
        assert!(t.cycles < b.cycles);
        assert_eq!(t.active_channels, 32);
    }

    /// `prefill_attention_layer` priced by looping over the materialized
    /// [`ModulePartition::assign`]: the oracle the per-request pricing
    /// must match bit for bit.
    fn prefill_attention_by_assign(m: &StageModel, done: u64, chunk: u64) -> AttentionStage {
        if chunk == 0 {
            return AttentionStage::default();
        }
        let total_keys = done + chunk;
        let channels = m.system.module.channels;
        let partition = ModulePartition::assign(
            m.partitioning(),
            channels,
            m.kv_instances_per_module(),
            &[(0, total_keys)],
        );
        let (sched, buffers) = (m.scheduler(), m.techniques.dcs);
        let (group, row_reuse) = (m.effective_group(), m.row_reuse());
        let epu = EpuConfig::default();
        let reduction = if m.techniques.tcp {
            epu.reduce_cycles(channels, m.model.head_dim) as f64 * chunk as f64
        } else {
            0.0
        };
        let price = |kind| {
            m.kernels
                .attention_eval(kind, sched, buffers, group, row_reuse)
                .prefill(done, chunk)
        };
        let (qkt, sv) = (price(AttentionKind::Qkt), price(AttentionKind::Sv));
        let mut makespan: f64 = 0.0;
        let mut totals = KernelCounts::default();
        let mut busy_sum = 0.0;
        for ch in partition.channels() {
            let mut cycles = 0.0;
            for slice in &ch.slices {
                let share = slice.tokens() as f64 / total_keys as f64;
                cycles += (qkt.cycles + sv.cycles) * share + reduction;
                totals.accumulate(&qkt.counts().scaled(share));
                totals.accumulate(&sv.counts().scaled(share));
                busy_sum += (qkt.mac_busy + sv.mac_busy) * share;
            }
            makespan = makespan.max(cycles);
        }
        let mid_keys = done + chunk.div_ceil(2);
        makespan += chunk as f64
            * epu.softmax_cycles(mid_keys) as f64
            * f64::from(m.kv_instances_per_module())
            / f64::from(channels);
        let utilization = if makespan > 0.0 {
            (busy_sum / (f64::from(channels) * makespan)).min(1.0)
        } else {
            0.0
        };
        AttentionStage {
            cycles: makespan,
            utilization,
            totals,
            active_channels: partition.active_channels(),
        }
    }

    /// `prefill_chunk`'s micro-batch composition over
    /// [`prefill_attention_by_assign`] and [`fc_layer_per_call`].
    fn prefill_chunk_by_assign(m: &StageModel, done: u64, chunk: u64) -> IterationBreakdown {
        let pp = m.system.parallel.pp as usize;
        let layers = (m.model.layers as usize).div_ceil(pp) as f64;
        let micros = chunk.min(pp as u64).max(1);
        let clock = m.system.module.clock_hz;
        let mut out = IterationBreakdown::default();
        let (mut stage_secs_sum, mut util_weighted, mut offset) = (0.0, 0.0, done);
        for j in 0..micros {
            let c_j = chunk / micros + u64::from(j < chunk % micros);
            let attn = prefill_attention_by_assign(m, offset, c_j);
            let (fc_secs, fc_flops, fc_stats) = fc_layer_per_call(m, c_j as usize);
            let sync = m.sync_layer(c_j as usize);
            let attn_secs = attn.cycles / clock;
            let stage = layers * (attn_secs + fc_secs + sync);
            stage_secs_sum += stage;
            out.attn_seconds += layers * attn_secs;
            out.fc_seconds += layers * fc_secs;
            out.sync_seconds += layers * sync;
            out.attn_totals
                .accumulate(&attn.totals.scaled(layers * pp as f64));
            out.fc_flops += fc_flops * layers * pp as f64;
            out.fc_totals
                .accumulate(&fc_stats.scaled(layers * pp as f64));
            util_weighted += attn.utilization * stage;
            offset += c_j;
        }
        out.bubble_seconds =
            (pp.saturating_sub(micros as usize)) as f64 * (stage_secs_sum / micros as f64);
        out.seconds = stage_secs_sum + out.bubble_seconds;
        out.attn_utilization = (util_weighted / stage_secs_sum) * (stage_secs_sum / out.seconds);
        out
    }

    #[test]
    fn prefill_pricing_is_bit_exact_with_the_materialized_partition() {
        // HFP and TCP at 8, 4 and 1 KV instances per module (TP 1, 2, 8
        // on the g = 4 model), with and without a resident prefix,
        // chunks below the 32-channel count and key totals that do not
        // divide evenly across channels or micro-batches.
        let k = kernels();
        let model = LLM_7B_128K_GQA;
        let chunks = [
            (0, 1),
            (0, 5),
            (0, 31),
            (0, 512),
            (3, 7),
            (1000, 333),
            (4096, 2048),
        ];
        for techniques in [
            Techniques::baseline(),
            Techniques::tcp_only(),
            Techniques::pimphony(),
        ] {
            for (tp, kv_instances) in [(1, 8), (2, 4), (8, 1)] {
                for pp in [1, 4] {
                    let sys =
                        SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(tp, pp));
                    let m = StageModel::new(sys, model, techniques, &k);
                    assert_eq!(m.kv_instances_per_module(), kv_instances);
                    for &(done, chunk) in &chunks {
                        let what =
                            format!("{techniques:?} tp={tp} pp={pp} done={done} chunk={chunk}");
                        assert_eq!(
                            m.prefill_attention_layer(done, chunk),
                            prefill_attention_by_assign(&m, done, chunk),
                            "{what}"
                        );
                        assert_eq!(
                            m.prefill_chunk(done, chunk),
                            prefill_chunk_by_assign(&m, done, chunk),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    /// `attention_layer` priced over the materialized partition, with
    /// its kernel evaluators looked up in the memo on every call.
    fn attention_layer_per_call(m: &StageModel, batch: &[(u64, u64)]) -> AttentionStage {
        if batch.is_empty() {
            return AttentionStage::default();
        }
        let channels = m.system.module.channels;
        let partition = ModulePartition::assign(
            m.partitioning(),
            channels,
            m.kv_instances_per_module(),
            batch,
        );
        let (sched, buffers) = (m.scheduler(), m.techniques.dcs);
        let (group, row_reuse) = (m.effective_group(), m.row_reuse());
        let epu = EpuConfig::default();
        let reduction = if m.techniques.tcp {
            epu.reduce_cycles(channels, m.model.head_dim) as f64
        } else {
            0.0
        };
        let eval = |kind| {
            m.kernels
                .attention_eval(kind, sched, buffers, group, row_reuse)
        };
        let (qkt_eval, sv_eval) = (eval(AttentionKind::Qkt), eval(AttentionKind::Sv));
        let mut makespan: f64 = 0.0;
        let mut totals = KernelCounts::default();
        let mut busy_sum = 0.0;
        for ch in partition.channels() {
            let mut cycles = 0.0;
            for slice in &ch.slices {
                let (qkt, sv) = (
                    qkt_eval.stats(slice.tokens()),
                    sv_eval.stats(slice.tokens()),
                );
                totals.accumulate(&qkt.counts());
                totals.accumulate(&sv.counts());
                busy_sum += qkt.mac_busy + sv.mac_busy;
                cycles += qkt.cycles + sv.cycles + reduction;
            }
            makespan = makespan.max(cycles);
        }
        makespan += batch
            .iter()
            .map(|&(_, t)| epu.softmax_cycles(t) as f64)
            .sum::<f64>()
            * f64::from(m.kv_instances_per_module())
            / f64::from(channels);
        let utilization = if makespan > 0.0 {
            (busy_sum / (f64::from(channels) * makespan)).min(1.0)
        } else {
            0.0
        };
        AttentionStage {
            cycles: makespan,
            utilization,
            totals,
            active_channels: partition.active_channels(),
        }
    }

    /// `fc_layer` with every GEMV looked up in the memo on every call.
    fn fc_layer_per_call(m: &StageModel, batch: usize) -> (f64, f64, KernelCounts) {
        if batch == 0 {
            return (0.0, 0.0, KernelCounts::default());
        }
        let tp = m.system.parallel.tp;
        let ops = m.fc_ops();
        let weights: f64 = ops.iter().map(|&(o, i)| f64::from(o) * f64::from(i)).sum();
        let flops = 2.0 * batch as f64 * weights / f64::from(tp);
        match m.system.kind {
            SystemKind::PimOnly => {
                let channels = m.system.module.channels;
                let mut cycles = 0.0;
                let mut totals = KernelCounts::default();
                for &(dout, din) in &ops {
                    let dout_pc = dout.div_ceil(tp * channels).max(1);
                    let g = m
                        .kernels
                        .gemv(m.scheduler(), m.techniques.dcs, dout_pc, din);
                    cycles += batch as f64 * g.cycles;
                    totals.accumulate(&g.counts().scaled(batch as f64 * f64::from(channels)));
                }
                (cycles / m.system.module.clock_hz, flops, totals)
            }
            SystemKind::XpuPim => {
                let weight_bytes = weights * f64::from(m.model.dtype_bytes) / f64::from(tp);
                let compute = flops / m.system.module.xpu_flops;
                let memory = weight_bytes / m.system.module.xpu_mem_bw;
                (compute.max(memory), flops, KernelCounts::default())
            }
        }
    }

    /// `iteration`'s micro-batch composition over
    /// [`attention_layer_per_call`] and [`fc_layer_per_call`].
    fn iteration_per_call(m: &StageModel, batch: &[(u64, u64)]) -> IterationBreakdown {
        if batch.is_empty() {
            return IterationBreakdown::default();
        }
        let pp = m.system.parallel.pp as usize;
        let layers = (m.model.layers as usize).div_ceil(pp) as f64;
        let micros = batch.len().min(pp);
        let clock = m.system.module.clock_hz;
        let mut out = IterationBreakdown::default();
        let (mut stage_secs_sum, mut util_weighted) = (0.0, 0.0);
        for j in 0..micros {
            let micro: Vec<(u64, u64)> = batch.iter().copied().skip(j).step_by(micros).collect();
            let attn = attention_layer_per_call(m, &micro);
            let (fc_secs, fc_flops, fc_stats) = fc_layer_per_call(m, micro.len());
            let sync = m.sync_layer(micro.len());
            let attn_secs = attn.cycles / clock;
            let stage = layers * (attn_secs + fc_secs + sync);
            stage_secs_sum += stage;
            out.attn_seconds += layers * attn_secs;
            out.fc_seconds += layers * fc_secs;
            out.sync_seconds += layers * sync;
            out.attn_totals
                .accumulate(&attn.totals.scaled(layers * pp as f64));
            out.fc_flops += fc_flops * layers * pp as f64;
            out.fc_totals
                .accumulate(&fc_stats.scaled(layers * pp as f64));
            util_weighted += attn.utilization * stage;
        }
        out.bubble_seconds = (pp - micros) as f64 * (stage_secs_sum / micros as f64);
        out.seconds = stage_secs_sum + out.bubble_seconds;
        out.attn_utilization = if stage_secs_sum > 0.0 {
            (util_weighted / stage_secs_sum) * (stage_secs_sum / out.seconds)
        } else {
            0.0
        };
        out
    }

    #[test]
    fn pricing_is_bit_exact_with_per_call_kernel_lookups() {
        // Kernel costs resolved once per stage model must price exactly
        // as looking them up in the memo on every call: HFP/TCP ×
        // DCS/static × PIM-only/xPU+PIM × TP {1, 2, 8} × PP {1, 4}, on
        // a fresh stage model (and fresh memo) per configuration so the
        // first call also resolves the costs. The MHA model prices with
        // group 1 and no row reuse, the GQA model with group 4 and row
        // reuse under DCS.
        let batches: [&[(u64, u64)]; 5] = [
            &[(0, 1)],
            &[(0, 4096)],
            &[(0, 17), (1, 0), (2, 333)],
            &[(0, 9000), (1, 5), (2, 700), (3, 64), (4, 2)],
            &[
                (0, 100),
                (1, 200),
                (2, 300),
                (3, 400),
                (4, 500),
                (5, 600),
                (6, 700),
                (7, 800),
                (8, 900),
            ],
        ];
        let chunks = [(0, 1), (0, 3), (0, 512), (1000, 333), (4096, 2048)];
        let systems = [LLM_7B_32K, LLM_7B_128K_GQA].map(|model| {
            [
                (model, SystemConfig::cent_for(&model)),
                (model, SystemConfig::neupims_for(&model)),
            ]
        });
        for (model, system) in systems.into_iter().flatten() {
            for (tcp, dcs) in [(false, false), (false, true), (true, false), (true, true)] {
                let techniques = Techniques {
                    tcp,
                    dcs,
                    dpa: false,
                };
                for tp in [1, 2, 8] {
                    for pp in [1, 4] {
                        let sys = system.with_parallel(ParallelConfig::new(tp, pp));
                        let what = format!(
                            "{} {:?} {techniques:?} tp={tp} pp={pp}",
                            model.name, sys.kind
                        );
                        let k = kernels();
                        let m = StageModel::new(sys, model, techniques, &k);
                        for &batch in &batches {
                            assert_eq!(
                                m.iteration(batch),
                                iteration_per_call(&m, batch),
                                "{what} {batch:?}"
                            );
                            assert_eq!(
                                m.attention_layer(batch),
                                attention_layer_per_call(&m, batch),
                                "{what} {batch:?}"
                            );
                        }
                        for &(done, chunk) in &chunks {
                            assert_eq!(
                                m.prefill_chunk(done, chunk),
                                prefill_chunk_by_assign(&m, done, chunk),
                                "{what} done={done} chunk={chunk}"
                            );
                        }
                        for batch in [0, 1, 5, 512] {
                            assert_eq!(m.fc_layer(batch), fc_layer_per_call(&m, batch), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// A seeded SplitMix64 stream: the random oracle tests draw their
    /// batches from it, so every run checks the same cases.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }

        /// A token count from the shapes that cut a TCP partition
        /// differently: zero, fewer than `channels`, an exact multiple
        /// of `channels`, one past a multiple (33 on 32 channels leaves
        /// 15 trailing channels empty), or anything up to a 32K context.
        fn tokens(&mut self, channels: u64) -> u64 {
            match self.next() % 5 {
                0 => 0,
                1 => self.range(1, channels - 1),
                2 => channels * self.range(1, 1024),
                3 => channels * self.range(1, 1024) + 1,
                _ => self.range(1, 32_768),
            }
        }
    }

    #[test]
    fn random_batches_price_bit_exact_with_assign() {
        // Per-request pricing with a replayed channel-major add order
        // must price exactly as a loop over the materialized partition:
        // HFP and TCP × DCS/static × KV instances {16, 8, 4, 1} per
        // module, on seeded random batches of 1 to 64 requests and
        // prefill chunks, plus fixed edge batches.
        let k = kernels();
        let shapes = [
            (LLM_7B_32K, 2, 16),
            (LLM_7B_32K, 4, 8),
            (LLM_7B_128K_GQA, 2, 4),
            (LLM_7B_128K_GQA, 8, 1),
        ];
        let edges: [&[(u64, u64)]; 6] = [
            &[(0, 0)],
            &[(0, 0), (1, 5), (2, 0)],
            &[(0, 31)],
            &[(0, 32), (1, 64)],
            &[(0, 33)],
            &[(0, 4096), (1, 33), (2, 0), (3, 4097), (4, 1)],
        ];
        let mut rng = SplitMix(2026);
        for (model, tp, kv_instances) in shapes {
            let sys = SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(tp, 1));
            let channels = u64::from(sys.module.channels);
            for (tcp, dcs) in [(false, false), (false, true), (true, false), (true, true)] {
                let techniques = Techniques {
                    tcp,
                    dcs,
                    dpa: false,
                };
                let m = StageModel::new(sys, model, techniques, &k);
                assert_eq!(m.kv_instances_per_module(), kv_instances);
                let what = format!("{} tp={tp} {techniques:?}", model.name);
                let random: Vec<Vec<(u64, u64)>> = (0..12)
                    .map(|_| {
                        let len = rng.range(1, 64);
                        (0..len).map(|id| (id, rng.tokens(channels))).collect()
                    })
                    .collect();
                for batch in edges
                    .iter()
                    .copied()
                    .chain(random.iter().map(Vec::as_slice))
                {
                    assert_eq!(
                        m.attention_layer(batch),
                        attention_layer_per_call(&m, batch),
                        "{what} {batch:?}"
                    );
                }
                if tcp {
                    assert_eq!(m.attention_layer(&[(0, 33)]).active_channels, 17);
                }
                for _ in 0..24 {
                    let done = if rng.next() % 2 == 0 {
                        0
                    } else {
                        rng.tokens(channels)
                    };
                    let chunk = rng.tokens(channels).min(4096);
                    assert_eq!(
                        m.prefill_attention_layer(done, chunk),
                        prefill_attention_by_assign(&m, done, chunk),
                        "{what} done={done} chunk={chunk}"
                    );
                }
            }
        }
    }

    /// Affine evaluations one `attention_layer` call makes on `m`.
    fn evals_per_layer(m: &StageModel, batch: &[(u64, u64)]) -> u64 {
        crate::kernel::EVALS.set(0);
        m.attention_layer(batch);
        crate::kernel::EVALS.get()
    }

    #[test]
    fn attention_layer_prices_each_slice_size_once() {
        // On `fleet_jsq`'s shape (LLM-7B-32K, TP 2: 32 channels, 16 KV
        // instances per module) a TCP layer evaluates each kernel's fit
        // at most twice per request — the full slice and the remainder —
        // where pricing every slice evaluates it once per (channel, KV
        // head): 512 times per request.
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 1));
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        assert_eq!(m.kv_instances_per_module(), 16);
        let batch: Vec<(u64, u64)> = (0..16).map(|i| (i, 4000 + 97 * i)).collect();
        // The first call resolves the kernel costs.
        m.attention_layer(&batch);
        for len in [1, 2, 16] {
            let evals = evals_per_layer(&m, &batch[..len]);
            assert!(
                evals <= 2 * 2 * len as u64,
                "{evals} evaluations at batch {len}"
            );
        }
        // A remainder-free request (4096 = 32 · 128) prices one size.
        assert_eq!(evals_per_layer(&m, &[(0, 4096)]), 2);
        assert_eq!(evals_per_layer(&m, &[(0, 0)]), 0);
        crate::kernel::EVALS.set(0);
        attention_layer_per_call(&m, &batch[..2]);
        assert_eq!(crate::kernel::EVALS.get(), 2 * 2 * 32 * 16);
        // HFP prices one whole-context slice per request.
        let hfp = StageModel::new(sys, LLM_7B_32K, Techniques::baseline(), &k);
        hfp.attention_layer(&batch);
        assert_eq!(evals_per_layer(&hfp, &batch), 2 * 16);
    }

    /// Channel folds one `attention_layer` call adds directly on `m`.
    fn folds_per_layer(m: &StageModel, batch: &[(u64, u64)]) -> u64 {
        crate::fold::FOLDS.set(0);
        m.attention_layer(batch);
        crate::fold::FOLDS.get()
    }

    #[test]
    fn tcp_layer_adds_its_leading_channels_once() {
        // On `fleet_jsq`'s shape (32 channels, 16 KV instances per
        // module) every request of a ~4K-token batch holds a full slice
        // on channels 0..31 (and on channel 31 too when 32 divides its
        // tokens), so those leading channels share one direct fold for
        // their cycles. The DCS fits' MACs, row switches and MAC-busy
        // cycles are dyadic and take the closed form; the I/O count is
        // not, and adds one fold from zero plus one per binade crossed
        // (at most ⌈log2 32⌉ = 5) or tie. A trailing channel is added as
        // it lies. The channel-major replay adds all 32 channels.
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 1));
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        assert_eq!(m.kv_instances_per_module(), 16);
        let batch: Vec<(u64, u64)> = (0..16).map(|i| (i, 4000 + 97 * i)).collect();
        m.attention_layer(&batch);
        let pinned: Vec<u64> = [1, 2, 16]
            .map(|len| folds_per_layer(&m, &batch[..len]))
            .to_vec();
        // Batch 1 (4000 = 32 · 125) has 32 leading channels; batches 2
        // and 16 have 31 and one trailing channel.
        assert_eq!(pinned, [7, 8, 7]);
        for folds in pinned {
            assert!(folds <= 1 + (1 + 5) + 1, "{folds} folds");
        }
        assert_eq!(folds_per_layer(&m, &[(0, 4096)]), 7);
        // A zero-token request holds no full slice: every channel is
        // added as it lies.
        assert_eq!(folds_per_layer(&m, &[(0, 4096), (1, 0)]), 32);
    }

    #[test]
    fn empty_batch_is_free() {
        let k = kernels();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let m = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &k);
        assert_eq!(m.iteration(&[]).seconds, 0.0);
        assert_eq!(m.attention_layer(&[]).cycles, 0.0);
    }
}
