//! Command-stream builders for the kernels PIM executes.
//!
//! * [`GemvKernel`] — a dense `out = W·x` GEMV (FC layers, and the Fig. 8
//!   dimension sweep).
//! * [`QktKernel`] — the Attention score kernel `QKᵀ` for the tokens
//!   assigned to one channel (din = d_h is small ⇒ poor output reuse,
//!   frequent `RD-OUT`).
//! * [`SvKernel`] — the Attention value kernel `SV` (din = tokens is large
//!   ⇒ GBuf swapping, frequent `WR-INP`).
//!
//! The GQA *row-reuse mapping* (paper §V-C) is supported by both attention
//! kernels: all inputs (queries/scores) that share row-resident KV data are
//! processed before switching DRAM rows, trading extra `WR-INP` traffic for
//! ACT/PRE savings — the exact trade-off DCS unlocks (Fig. 9).
//!
//! Each builder is a [`CommandSource`]: its `emit` produces `WR-INP`s,
//! `RD-OUT`s and [`MacRun`]s, and `stream()` collects them into a
//! [`CommandStream`], one command per `MAC`. [`crate::summarize`]
//! consumes `emit` directly, so calibration never stores a stream. Every
//! `MAC` sequence an `emit` walks (a group, a chunk, or one tile shared
//! by a group's queries) is one run per DRAM row it touches: the
//! consecutive tiles of a group or chunk into one accumulator, cut where
//! a tile cursor's row ends, or one tile fanned out over consecutive
//! accumulators. The schedulers then issue a run's later `MAC`s without
//! a general issue step.

use crate::functional::FunctionalChannel;
use crate::geometry::{Geometry, TileCursor};
use crate::sched::{CommandSource, MacRun, SourceItem};
use pim_isa::command::{CommandKind, CommandStream};

fn div_ceil_u32(a: u32, b: u32) -> u32 {
    a.div_ceil(b)
}

/// Collects the `count` commands `kernel` emits into a stream.
fn collect(kernel: &impl CommandSource, count: usize) -> CommandStream {
    let mut s = CommandStream::with_capacity(count);
    kernel.emit(
        #[inline(always)]
        |item| {
            item.for_each_command(|kind| {
                s.push_next(kind);
            })
        },
    );
    debug_assert_eq!(s.len(), count);
    s
}

/// Emits `n` `MAC`s over the consecutive tiles from `tile` into
/// accumulator `out_idx`, reading GBuf entries `gbuf_idx..`: one
/// [`MacRun::accumulate`] per DRAM row the tiles touch.
#[inline(always)]
fn accumulate(
    f: &mut impl FnMut(SourceItem),
    tile: &mut TileCursor,
    mut gbuf_idx: u16,
    out_idx: u16,
    mut n: u32,
) {
    while n > 0 {
        let (row, col, len) = tile.take_in_row(n);
        f(SourceItem::Macs(MacRun::accumulate(
            gbuf_idx, row, col, out_idx, len,
        )));
        gbuf_idx = gbuf_idx.wrapping_add(len as u16);
        n -= len;
    }
}

/// Shape of a dense GEMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvSpec {
    /// Output length (rows of `W`).
    pub dout: u32,
    /// Input length (columns of `W`).
    pub din: u32,
}

/// Builder for a GEMV command stream plus its functional data layout.
#[derive(Debug, Clone)]
pub struct GemvKernel {
    spec: GemvSpec,
    geometry: Geometry,
}

impl GemvKernel {
    /// Creates a GEMV kernel.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(spec: GemvSpec, geometry: Geometry) -> Self {
        assert!(
            spec.dout > 0 && spec.din > 0,
            "GEMV dimensions must be nonzero"
        );
        GemvKernel { spec, geometry }
    }

    /// The kernel shape.
    pub fn spec(&self) -> GemvSpec {
        self.spec
    }

    /// Input tiles (`ceil(din / lanes)`).
    pub fn in_tiles(&self) -> u32 {
        div_ceil_u32(self.spec.din, self.geometry.elems_per_tile)
    }

    /// Output groups (`ceil(dout / banks)`), 16 outputs each.
    pub fn n_groups(&self) -> u32 {
        div_ceil_u32(self.spec.dout, self.geometry.banks)
    }

    /// Whether the whole input vector fits in the Global Buffer.
    pub fn input_fits(&self) -> bool {
        self.in_tiles() <= self.geometry.gbuf_entries
    }

    /// Per-bank linear tile index of weight tile `(grp, t)`.
    ///
    /// The compiler co-designs the weight layout with the mapping: when
    /// the input fits, groups are laid out contiguously (group-outer
    /// iteration); otherwise tiles are blocked per input chunk so the
    /// chunk-outer sweep touches consecutive rows.
    fn tile_index(&self, grp: u32, t: u32) -> u64 {
        let in_tiles = self.in_tiles();
        let n_groups = self.n_groups();
        if self.input_fits() {
            u64::from(grp) * u64::from(in_tiles) + u64::from(t)
        } else {
            let cap = self.geometry.gbuf_entries;
            let cs = (t / cap) * cap;
            let ce = (cs + cap).min(in_tiles);
            u64::from(cs) * u64::from(n_groups)
                + u64::from(grp) * u64::from(ce - cs)
                + u64::from(t - cs)
        }
    }

    /// Commands in [`GemvKernel::stream`]: every input tile written once,
    /// one `MAC` per weight tile, and one drain per group (per chunk when
    /// the input does not fit).
    fn command_count(&self) -> usize {
        let in_tiles = self.in_tiles() as usize;
        let n_groups = self.n_groups() as usize;
        let drains_per_group = if self.input_fits() {
            1
        } else {
            div_ceil_u32(self.in_tiles(), self.geometry.gbuf_entries) as usize
        };
        in_tiles + n_groups * (in_tiles + drains_per_group)
    }

    /// Builds the command stream (see [`GemvKernel::emit`]).
    pub fn stream(&self) -> CommandStream {
        collect(self, self.command_count())
    }

    /// Loads weights into a functional channel: `w(o, i)` is `W[o][i]`.
    pub fn load_weights<F: Fn(usize, usize) -> f32>(&self, ch: &mut FunctionalChannel, w: F) {
        let g = &self.geometry;
        let lanes = g.elems_per_tile as usize;
        let in_tiles = self.in_tiles();
        for grp in 0..self.n_groups() {
            for t in 0..in_tiles {
                let (row, col) = g.tile_to_row_col(self.tile_index(grp, t));
                for bank in 0..g.banks {
                    let o = (grp * g.banks + bank) as usize;
                    let mut tile = vec![0.0f32; lanes];
                    if o < self.spec.dout as usize {
                        for (e, v) in tile.iter_mut().enumerate() {
                            let i = t as usize * lanes + e;
                            if i < self.spec.din as usize {
                                *v = w(o, i);
                            }
                        }
                    }
                    ch.store_tile(bank, row, col, tile);
                }
            }
        }
    }

    /// Input tiles for every `WR-INP` of [`GemvKernel::stream`], in order.
    /// The input streams through exactly once in both mappings.
    pub fn input_tiles(&self, x: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(x.len(), self.spec.din as usize, "input length mismatch");
        let lanes = self.geometry.elems_per_tile as usize;
        let in_tiles = self.in_tiles();
        let mut tiles = Vec::with_capacity(in_tiles as usize);
        for t in 0..in_tiles {
            let mut tile = vec![0.0f32; lanes];
            for (e, v) in tile.iter_mut().enumerate() {
                let i = t as usize * lanes + e;
                if i < x.len() {
                    *v = x[i];
                }
            }
            tiles.push(tile);
        }
        tiles
    }

    /// Reassembles the output vector from a functional channel's drain
    /// log, summing per-chunk partial drains (the EPU-side accumulation).
    pub fn output_from(&self, ch: &FunctionalChannel) -> Vec<f32> {
        self.accumulate_drains(ch.drained().iter().map(|(_, v)| v.as_slice()))
    }

    /// Accumulates an ordered drain sequence into the output vector.
    /// Drains are emitted group-ascending (and chunk-outer when the input
    /// does not fit).
    pub fn accumulate_drains<'a>(&self, drains: impl Iterator<Item = &'a [f32]>) -> Vec<f32> {
        let banks = self.geometry.banks as usize;
        let n_groups = self.n_groups() as usize;
        let mut out = vec![0.0f32; self.spec.dout as usize];
        for (j, vals) in drains.enumerate() {
            let grp = j % n_groups;
            for (bank, &v) in vals.iter().enumerate() {
                let o = grp * banks + bank;
                if o < out.len() {
                    out[o] += v;
                }
            }
        }
        out
    }
}

impl CommandSource for GemvKernel {
    /// Emits the command stream.
    ///
    /// When the input fits in the Global Buffer it is written once and
    /// output groups proceed in blocks of `out_entries` accumulators.
    /// Otherwise the input streams through in GBuf-sized chunks exactly
    /// once; every group produces a *partial* sum per chunk that is
    /// drained to the GPR and accumulated by the EPU — trading extra
    /// `RD-OUT`s for input reuse.
    fn emit(&self, mut f: impl FnMut(SourceItem)) {
        let g = &self.geometry;
        let in_tiles = self.in_tiles();
        let n_groups = self.n_groups();

        if self.input_fits() {
            let block = g.out_entries.min(n_groups).max(1);
            for t in 0..in_tiles {
                f(SourceItem::WrInp {
                    gbuf_idx: t as u16,
                    gpr_addr: t * 32,
                });
            }
            let mut gb_start = 0;
            while gb_start < n_groups {
                let gb_end = (gb_start + block).min(n_groups);
                // The block's groups are laid out back to back.
                let mut tile = g.tile_cursor(self.tile_index(gb_start, 0));
                for grp in gb_start..gb_end {
                    accumulate(&mut f, &mut tile, 0, (grp - gb_start) as u16, in_tiles);
                }
                for grp in gb_start..gb_end {
                    f(SourceItem::RdOut {
                        out_idx: (grp - gb_start) as u16,
                        gpr_addr: grp * 32,
                    });
                }
                gb_start = gb_end;
            }
        } else {
            let chunk_cap = g.gbuf_entries;
            let out_slots = g.out_entries.max(1) as u16;
            let mut slot: u16 = 0;
            let mut chunk_start = 0;
            while chunk_start < in_tiles {
                let chunk_end = (chunk_start + chunk_cap).min(in_tiles);
                for t in chunk_start..chunk_end {
                    f(SourceItem::WrInp {
                        gbuf_idx: (t - chunk_start) as u16,
                        gpr_addr: t * 32,
                    });
                }
                // The chunk's tiles are blocked group by group.
                let mut tile = g.tile_cursor(self.tile_index(0, chunk_start));
                for grp in 0..n_groups {
                    accumulate(&mut f, &mut tile, 0, slot, chunk_end - chunk_start);
                    f(SourceItem::RdOut {
                        out_idx: slot,
                        gpr_addr: grp * 32,
                    });
                    slot += 1;
                    if slot == out_slots {
                        slot = 0;
                    }
                }
                chunk_start = chunk_end;
            }
        }
    }
}

/// Shape of a per-channel attention kernel under token-centric partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionSpec {
    /// Tokens assigned to this channel (the TCP token slice).
    pub tokens: u32,
    /// Per-head feature dimension `d_h`.
    pub head_dim: u32,
    /// GQA group size `g` (query heads sharing this KV); 1 for MHA.
    pub group_size: u32,
    /// Use the row-reuse mapping (process all `g` inputs sharing the open
    /// DRAM row before switching rows).
    pub row_reuse: bool,
}

impl AttentionSpec {
    /// MHA spec without row reuse.
    pub fn mha(tokens: u32, head_dim: u32) -> Self {
        AttentionSpec {
            tokens,
            head_dim,
            group_size: 1,
            row_reuse: false,
        }
    }

    /// GQA spec with the row-reuse mapping.
    pub fn gqa(tokens: u32, head_dim: u32, group_size: u32) -> Self {
        AttentionSpec {
            tokens,
            head_dim,
            group_size,
            row_reuse: true,
        }
    }
}

/// `QKᵀ` score kernel for one channel's token slice.
#[derive(Debug, Clone)]
pub struct QktKernel {
    spec: AttentionSpec,
    geometry: Geometry,
}

impl QktKernel {
    /// Creates a QKᵀ kernel.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the query does not fit in GBuf.
    pub fn new(spec: AttentionSpec, geometry: Geometry) -> Self {
        assert!(spec.tokens > 0 && spec.head_dim > 0 && spec.group_size > 0);
        let in_tiles = div_ceil_u32(spec.head_dim, geometry.elems_per_tile);
        assert!(
            in_tiles <= geometry.gbuf_entries,
            "query vector must fit in the Global Buffer"
        );
        QktKernel { spec, geometry }
    }

    /// The kernel shape.
    pub fn spec(&self) -> AttentionSpec {
        self.spec
    }

    fn in_tiles(&self) -> u32 {
        div_ceil_u32(self.spec.head_dim, self.geometry.elems_per_tile)
    }

    /// Token groups (16 scores per group, one per bank).
    pub fn n_groups(&self) -> u32 {
        div_ceil_u32(self.spec.tokens, self.geometry.banks)
    }

    /// The runs of token groups each query write is swept over, as
    /// half-open `[start, end)` group ranges.
    ///
    /// The row-reuse mapping (g > 1) cuts one run per DRAM row: the
    /// groups whose first tile shares that row. The head-sequential
    /// mapping sweeps the whole KV as one run.
    fn group_runs(&self) -> Vec<(u32, u32)> {
        let n_groups = self.n_groups();
        if !self.spec.row_reuse || self.spec.group_size == 1 {
            return vec![(0, n_groups)];
        }
        let in_tiles = u64::from(self.in_tiles());
        let row_of = |grp: u32| self.geometry.tile_to_row_col(u64::from(grp) * in_tiles).0;
        let mut runs = Vec::new();
        let mut grp = 0;
        while grp < n_groups {
            let row0 = row_of(grp);
            let mut grp_end = grp + 1;
            while grp_end < n_groups && row_of(grp_end) == row0 {
                grp_end += 1;
            }
            runs.push((grp, grp_end));
            grp = grp_end;
        }
        runs
    }

    /// Commands in [`QktKernel::stream`] when it sweeps `runs` group runs:
    /// per query, one query write per run and `in_tiles` MACs plus one
    /// drain per group.
    fn command_count(&self, runs: usize) -> usize {
        let in_tiles = self.in_tiles() as usize;
        let n_groups = self.n_groups() as usize;
        self.spec.group_size as usize * (runs * in_tiles + n_groups * (in_tiles + 1))
    }

    /// Builds the command stream (see [`QktKernel::emit`]).
    pub fn stream(&self) -> CommandStream {
        collect(self, self.command_count(self.group_runs().len()))
    }

    /// Loads the key cache: `k(token, d)` is `K[token][d]`.
    pub fn load_keys<F: Fn(usize, usize) -> f32>(&self, ch: &mut FunctionalChannel, k: F) {
        let gemv = GemvKernel::new(
            GemvSpec {
                dout: self.spec.tokens,
                din: self.spec.head_dim,
            },
            self.geometry,
        );
        gemv.load_weights(ch, k);
    }

    /// Input tiles for every `WR-INP`, in stream order. `queries[q]` is the
    /// `q`-th query vector of length `head_dim`.
    pub fn input_tiles(&self, queries: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(queries.len(), self.spec.group_size as usize, "query count");
        let lanes = self.geometry.elems_per_tile as usize;
        let in_tiles = self.in_tiles();
        let tile_of = |q: usize, t: u32| -> Vec<f32> {
            let mut tile = vec![0.0f32; lanes];
            for (e, v) in tile.iter_mut().enumerate() {
                let i = t as usize * lanes + e;
                if i < queries[q].len() {
                    *v = queries[q][i];
                }
            }
            tile
        };
        let mut tiles = Vec::new();
        // Mirror the stream's WR-INP order.
        for cmd in self.stream().iter() {
            if let CommandKind::WrInp { gpr_addr, .. } = cmd.kind {
                let flat = gpr_addr / 32;
                let q = (flat / in_tiles) as usize;
                let t = flat % in_tiles;
                tiles.push(tile_of(q, t));
            }
        }
        tiles
    }

    /// Reassembles per-query score vectors from the drain log.
    pub fn scores_from(&self, ch: &FunctionalChannel) -> Vec<Vec<f32>> {
        let banks = self.geometry.banks as usize;
        let n_groups = self.n_groups();
        let mut out = vec![vec![0.0f32; self.spec.tokens as usize]; self.spec.group_size as usize];
        // Drain gpr_addr encodes (q * n_groups + grp) * 32.
        let stream = self.stream();
        let drains: Vec<u32> = stream
            .iter()
            .filter_map(|c| match c.kind {
                CommandKind::RdOut { gpr_addr, .. } => Some(gpr_addr / 32),
                _ => None,
            })
            .collect();
        for ((_, vals), flat) in ch.drained().iter().zip(drains) {
            let q = (flat / n_groups) as usize;
            let grp = (flat % n_groups) as usize;
            for (bank, &v) in vals.iter().enumerate() {
                let tok = grp * banks + bank;
                if tok < out[q].len() {
                    out[q][tok] = v;
                }
            }
        }
        out
    }
}

impl CommandSource for QktKernel {
    /// Emits the command stream.
    ///
    /// The token groups are cut into runs; each run swaps every query in
    /// turn into the Global Buffer and scores the run's groups against
    /// it. The row-reuse mapping cuts one run per DRAM row, finishing
    /// the row for all queries before moving on; the head-sequential
    /// mapping is one run, sweeping the whole KV per query (rows
    /// re-opened per query when g > 1).
    fn emit(&self, mut f: impl FnMut(SourceItem)) {
        let g = &self.geometry;
        let in_tiles = self.in_tiles();
        let n_groups = self.n_groups();
        let queries = self.spec.group_size;
        let out_slots = g.out_entries.max(1) as u16;
        let mut out_slot: u16 = 0;
        for (run_start, run_end) in self.group_runs() {
            for q in 0..queries {
                for t in 0..in_tiles {
                    f(SourceItem::WrInp {
                        gbuf_idx: t as u16,
                        gpr_addr: (q * in_tiles + t) * 32,
                    });
                }
                // Group `grp`'s keys are tiles `grp * in_tiles ..`, so a
                // run's tiles are consecutive.
                let mut tile = g.tile_cursor(u64::from(run_start) * u64::from(in_tiles));
                for grp in run_start..run_end {
                    accumulate(&mut f, &mut tile, 0, out_slot, in_tiles);
                    f(SourceItem::RdOut {
                        out_idx: out_slot,
                        gpr_addr: (q * n_groups + grp) * 32,
                    });
                    out_slot += 1;
                    if out_slot == out_slots {
                        out_slot = 0;
                    }
                }
            }
        }
    }
}

/// `SV` value kernel for one channel's token slice.
///
/// Each channel reduces over its assigned tokens; the per-channel partial
/// outputs are then reduced across channels via the PIM HUB (modeled at the
/// module level, paper §IV-C).
#[derive(Debug, Clone)]
pub struct SvKernel {
    spec: AttentionSpec,
    geometry: Geometry,
}

impl SvKernel {
    /// Creates an SV kernel.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(spec: AttentionSpec, geometry: Geometry) -> Self {
        assert!(spec.tokens > 0 && spec.head_dim > 0 && spec.group_size > 0);
        SvKernel { spec, geometry }
    }

    /// The kernel shape.
    pub fn spec(&self) -> AttentionSpec {
        self.spec
    }

    fn in_tiles(&self) -> u32 {
        div_ceil_u32(self.spec.tokens, self.geometry.elems_per_tile)
    }

    /// Output feature groups (`ceil(d_h / banks)`).
    pub fn n_groups(&self) -> u32 {
        div_ceil_u32(self.spec.head_dim, self.geometry.banks)
    }

    /// Whether the stream runs one GEMV per query (MHA, or GQA without
    /// the row-reuse mapping).
    fn query_sequential(&self) -> bool {
        self.spec.group_size == 1 || !self.spec.row_reuse
    }

    /// One query's SV as a GEMV: `W[o][i] = V[i][o]`.
    fn gemv(&self) -> GemvKernel {
        GemvKernel::new(
            GemvSpec {
                dout: self.spec.head_dim,
                din: self.spec.tokens,
            },
            self.geometry,
        )
    }

    /// Commands in the row-reuse stream: each (group, query) accumulator
    /// takes `in_tiles` MACs and one drain, and each OBuf block writes
    /// every tile of each query it holds. A block of `len` consecutive
    /// group-major pairs holds `min(len, g)` distinct queries.
    fn row_reuse_command_count(&self) -> usize {
        let in_tiles = self.in_tiles() as usize;
        let queries = self.spec.group_size as usize;
        let pairs = self.n_groups() as usize * queries;
        let block = self.geometry.out_entries.max(1) as usize;
        let tail = pairs % block;
        let block_queries = (pairs / block) * block.min(queries) + tail.min(queries);
        in_tiles * block_queries + pairs * (in_tiles + 1)
    }

    /// Commands in [`SvKernel::stream`].
    fn command_count(&self) -> usize {
        if self.query_sequential() {
            self.gemv().command_count() * self.spec.group_size as usize
        } else {
            self.row_reuse_command_count()
        }
    }

    /// Builds the command stream (see [`SvKernel::emit`]). A
    /// query-sequential stream over several queries builds its GEMV once
    /// and repeats it.
    pub fn stream(&self) -> CommandStream {
        if !self.query_sequential() || self.spec.group_size == 1 {
            return collect(self, self.command_count());
        }
        let gemv = self.gemv().stream();
        let mut s = CommandStream::with_capacity(self.command_count());
        for _ in 0..self.spec.group_size {
            for cmd in &gemv {
                s.push_next(cmd.kind);
            }
        }
        s
    }

    /// Loads the value cache: `v(token, d)` is `V[token][d]`.
    pub fn load_values<F: Fn(usize, usize) -> f32>(&self, ch: &mut FunctionalChannel, v: F) {
        self.gemv().load_weights(ch, |o, i| v(i, o));
    }

    /// Input tiles for every `WR-INP`, in stream order. `scores[q]` is the
    /// `q`-th score vector over this channel's tokens.
    pub fn input_tiles(&self, scores: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(
            scores.len(),
            self.spec.group_size as usize,
            "score-vector count"
        );
        let lanes = self.geometry.elems_per_tile as usize;
        let in_tiles = self.in_tiles();
        let tile_of = |q: usize, t: u32| -> Vec<f32> {
            let mut tile = vec![0.0f32; lanes];
            for (e, v) in tile.iter_mut().enumerate() {
                let i = t as usize * lanes + e;
                if i < scores[q].len() {
                    *v = scores[q][i];
                }
            }
            tile
        };
        if self.query_sequential() {
            let gemv = self.gemv();
            return scores.iter().flat_map(|s| gemv.input_tiles(s)).collect();
        }
        let mut tiles = Vec::new();
        for cmd in self.stream().iter() {
            if let CommandKind::WrInp { gpr_addr, .. } = cmd.kind {
                let flat = gpr_addr / 32;
                let q = (flat / in_tiles) as usize;
                let t = flat % in_tiles;
                tiles.push(tile_of(q, t));
            }
        }
        tiles
    }

    /// Reassembles per-query output features from the drain log.
    pub fn outputs_from(&self, ch: &FunctionalChannel) -> Vec<Vec<f32>> {
        let banks = self.geometry.banks as usize;
        let n_groups = self.n_groups();
        let queries = self.spec.group_size as usize;
        let mut out = vec![vec![0.0f32; self.spec.head_dim as usize]; queries];
        if self.query_sequential() {
            // Drains appear query-major; within a query they follow the
            // GEMV drain order (with per-chunk partials when the scores do
            // not fit in GBuf).
            let gemv = self.gemv();
            let per_q = ch.drained().len() / queries;
            for (q, out_q) in out.iter_mut().enumerate() {
                let seg = &ch.drained()[q * per_q..(q + 1) * per_q];
                *out_q = gemv.accumulate_drains(seg.iter().map(|(_, v)| v.as_slice()));
            }
            return out;
        }
        let stream = self.stream();
        let drains: Vec<u32> = stream
            .iter()
            .filter_map(|c| match c.kind {
                CommandKind::RdOut { gpr_addr, .. } => Some(gpr_addr / 32),
                _ => None,
            })
            .collect();
        for ((_, vals), flat) in ch.drained().iter().zip(drains) {
            let q = (flat / n_groups) as usize;
            let grp = (flat % n_groups) as usize;
            for (bank, &v) in vals.iter().enumerate() {
                let o = grp * banks + bank;
                if o < out[q].len() {
                    out[q][o] = v;
                }
            }
        }
        out
    }
}

impl CommandSource for SvKernel {
    /// Emits the command stream.
    ///
    /// For `g == 1` this is a plain chunked GEMV. For GQA with row reuse,
    /// the Global Buffer is split among the `g` queries so that every DRAM
    /// row of the value cache is visited once while all queries' score
    /// chunks are multiplied against it.
    fn emit(&self, mut f: impl FnMut(SourceItem)) {
        let g = &self.geometry;
        let queries = self.spec.group_size;
        if self.query_sequential() {
            // Query-sequential: the same chunked GEMV once per query.
            let gemv = self.gemv();
            for _ in 0..queries {
                gemv.emit(&mut f);
            }
            return;
        }

        // Row-reuse mapping with GBuf partitioned among queries.
        let in_tiles = self.in_tiles();
        let n_groups = self.n_groups();
        let slots_per_q = (g.gbuf_entries / queries).max(1);
        // Accumulators: one per (query, group) pair, blocked by OBuf size.
        let pairs: Vec<(u32, u32)> = (0..n_groups)
            .flat_map(|grp| (0..queries).map(move |q| (grp, q)))
            .collect();
        let block = g.out_entries.max(1) as usize;
        for pair_block in pairs.chunks(block) {
            // The block's queries, ascending: query `qs[qi]` owns GBuf
            // slots `qi * slots_per_q ..`.
            let mut qs: Vec<u32> = pair_block.iter().map(|&(_, q)| q).collect();
            qs.sort_unstable();
            qs.dedup();
            // Pairs are group-major, so each group's accumulators are one
            // contiguous run of OBuf slots, in ascending group order, and
            // hold consecutive queries, whose GBuf partitions are
            // consecutive too: `(grp, first slot, slots, first
            // partition's base)`.
            let mut grp_runs: Vec<(u32, u16, u32, u32)> = Vec::new();
            for (slot, &(grp, q)) in pair_block.iter().enumerate() {
                match grp_runs.last_mut() {
                    Some((g_run, _, len, _)) if *g_run == grp => *len += 1,
                    _ => {
                        let base = qs.partition_point(|&x| x < q) as u32 * slots_per_q;
                        grp_runs.push((grp, slot as u16, 1, base));
                    }
                }
            }
            let mut chunk_start = 0;
            while chunk_start < in_tiles {
                let chunk_end = (chunk_start + slots_per_q).min(in_tiles);
                for (qi, &q) in qs.iter().enumerate() {
                    for t in chunk_start..chunk_end {
                        f(SourceItem::WrInp {
                            gbuf_idx: (qi as u32 * slots_per_q + (t - chunk_start)) as u16,
                            gpr_addr: (q * in_tiles + t) * 32,
                        });
                    }
                }
                // Group-outer, tile, then queries: every weight tile is
                // read once per chunk for all queries sharing it, and rows
                // advance monotonically (the row-reuse mapping).
                for &(grp, first, len, base) in &grp_runs {
                    let tile_idx = u64::from(grp) * u64::from(in_tiles) + u64::from(chunk_start);
                    let mut tile = g.tile_cursor(tile_idx);
                    for t in chunk_start..chunk_end {
                        let (row, col) = tile.row_col();
                        tile.advance();
                        f(SourceItem::Macs(MacRun::fan_out(
                            (base + (t - chunk_start)) as u16,
                            slots_per_q as u16,
                            row,
                            col,
                            first,
                            len,
                        )));
                    }
                }
                chunk_start = chunk_end;
            }
            for (slot, &(grp, q)) in pair_block.iter().enumerate() {
                f(SourceItem::RdOut {
                    out_idx: slot as u16,
                    gpr_addr: (q * n_groups + grp) * 32,
                });
            }
        }
    }
}

/// One of the three kernel builders, for tests that sweep all of them.
#[cfg(test)]
pub(crate) enum AnyKernel {
    Qkt(QktKernel),
    Sv(SvKernel),
    Gemv(GemvKernel),
}

#[cfg(test)]
impl AnyKernel {
    pub(crate) fn stream(&self) -> CommandStream {
        match self {
            AnyKernel::Qkt(k) => k.stream(),
            AnyKernel::Sv(k) => k.stream(),
            AnyKernel::Gemv(k) => k.stream(),
        }
    }
}

#[cfg(test)]
impl CommandSource for AnyKernel {
    fn emit(&self, f: impl FnMut(SourceItem)) {
        match self {
            AnyKernel::Qkt(k) => k.emit(f),
            AnyKernel::Sv(k) => k.emit(f),
            AnyKernel::Gemv(k) => k.emit(f),
        }
    }
}

/// The kernels calibration simulates, and their neighbours, on both
/// geometries: `QKᵀ` and `SV` (d_h = 128) at tokens {1, 17, 512, 4096} ×
/// group {1, 4, 8} × row reuse off/on, plus GEMVs whose input does and
/// does not fit in the Global Buffer. Each comes with a label.
#[cfg(test)]
pub(crate) fn calibration_kernels() -> Vec<(String, Geometry, AnyKernel)> {
    let mut out = Vec::new();
    for geom in [Geometry::baseline(), Geometry::pimphony()] {
        for tokens in [1, 17, 512, 4096] {
            for group_size in [1, 4, 8] {
                for row_reuse in [false, true] {
                    let spec = AttentionSpec {
                        tokens,
                        head_dim: 128,
                        group_size,
                        row_reuse,
                    };
                    let label = format!("{spec:?} out_entries={}", geom.out_entries);
                    let qkt = AnyKernel::Qkt(QktKernel::new(spec, geom));
                    out.push((format!("qkt {label}"), geom, qkt));
                    let sv = AnyKernel::Sv(SvKernel::new(spec, geom));
                    out.push((format!("sv {label}"), geom, sv));
                }
            }
        }
        for (dout, din) in [(17, 33), (4096, 1024), (1024, 1040), (512, 4096)] {
            let gemv = AnyKernel::Gemv(GemvKernel::new(GemvSpec { dout, din }, geom));
            let label = format!("gemv {dout}x{din} out_entries={}", geom.out_entries);
            out.push((label, geom, gemv));
        }
    }
    out
}

/// The streams of [`calibration_kernels`], with their labels.
#[cfg(test)]
pub(crate) fn calibration_streams() -> Vec<(String, Geometry, CommandStream)> {
    calibration_kernels()
        .into_iter()
        .map(|(label, geom, kernel)| (label, geom, kernel.stream()))
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the reference math
mod tests {
    use super::*;
    use crate::functional::FunctionalChannel;
    use crate::sched::{schedule, SchedulerKind};
    use crate::Timing;
    use pim_isa::PimCommand;

    fn small_geom() -> Geometry {
        Geometry {
            banks: 4,
            gbuf_entries: 8,
            out_entries: 2,
            row_tiles: 8,
            elems_per_tile: 4,
        }
    }

    /// A geometry whose rows (6 tiles) and Global Buffer (10 entries)
    /// do not divide each other, and whose OBuf (3 entries) is not a power
    /// of two, so row wraps land inside groups and chunks and output
    /// slots wrap mid-sweep.
    fn odd_geom() -> Geometry {
        Geometry {
            banks: 4,
            gbuf_entries: 10,
            out_entries: 3,
            row_tiles: 6,
            elems_per_tile: 4,
        }
    }

    fn reference_gemv(
        dout: usize,
        din: usize,
        w: impl Fn(usize, usize) -> f32,
        x: &[f32],
    ) -> Vec<f32> {
        (0..dout)
            .map(|o| (0..din).map(|i| w(o, i) * x[i]).sum())
            .collect()
    }

    #[test]
    fn gemv_matches_reference_small() {
        let geom = small_geom();
        let spec = GemvSpec { dout: 12, din: 20 };
        let k = GemvKernel::new(spec, geom);
        let w = |o: usize, i: usize| (o as f32 + 1.0) * 0.5 + i as f32 * 0.25;
        let x: Vec<f32> = (0..20).map(|i| (i as f32) * 0.1 - 1.0).collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_weights(&mut ch, w);
        let stream = k.stream();
        ch.execute(&stream, &k.input_tiles(&x));
        let got = k.output_from(&ch);
        let want = reference_gemv(12, 20, w, &x);
        for (a, b) in got.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn gemv_large_input_needs_swapping() {
        let geom = small_geom(); // 8-entry GBuf, 4-elem tiles => fits 32 elems
        let k = GemvKernel::new(GemvSpec { dout: 16, din: 64 }, geom);
        assert!(!k.input_fits());
        let (w, m, r) = k.stream().kind_counts();
        // Input streams once (16 tiles over 2 chunks); 4 output groups
        // drain a partial sum per chunk.
        assert_eq!(w, 16);
        assert_eq!(m, 4 * 16);
        assert_eq!(r, 4 * 2);
    }

    #[test]
    fn gemv_large_input_still_correct() {
        let geom = small_geom();
        let spec = GemvSpec { dout: 16, din: 64 };
        let k = GemvKernel::new(spec, geom);
        let w = |o: usize, i: usize| ((o * 31 + i * 7) % 11) as f32 - 5.0;
        let x: Vec<f32> = (0..64).map(|i| ((i * 13) % 7) as f32 * 0.5).collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_weights(&mut ch, w);
        ch.execute(&k.stream(), &k.input_tiles(&x));
        let got = k.output_from(&ch);
        let want = reference_gemv(16, 64, w, &x);
        for (a, b) in got.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn qkt_scores_match_reference_mha() {
        let geom = small_geom();
        let spec = AttentionSpec::mha(24, 8);
        let k = QktKernel::new(spec, geom);
        let key = |tok: usize, d: usize| ((tok * 3 + d) % 5) as f32 - 2.0;
        let q: Vec<f32> = (0..8).map(|d| d as f32 * 0.5).collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_keys(&mut ch, key);
        ch.execute(&k.stream(), &k.input_tiles(std::slice::from_ref(&q)));
        let scores = k.scores_from(&ch);
        for tok in 0..24 {
            let want: f32 = (0..8).map(|d| key(tok, d) * q[d]).sum();
            assert!((scores[0][tok] - want).abs() < 1e-3);
        }
    }

    #[test]
    fn qkt_gqa_row_reuse_matches_reference() {
        let geom = small_geom();
        let spec = AttentionSpec::gqa(32, 8, 3);
        let k = QktKernel::new(spec, geom);
        let key = |tok: usize, d: usize| ((tok + d * 2) % 7) as f32 * 0.25;
        let queries: Vec<Vec<f32>> = (0..3)
            .map(|q| (0..8).map(|d| (q + d) as f32 * 0.1).collect())
            .collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_keys(&mut ch, key);
        ch.execute(&k.stream(), &k.input_tiles(&queries));
        let scores = k.scores_from(&ch);
        for (q, qv) in queries.iter().enumerate() {
            for tok in 0..32 {
                let want: f32 = (0..8).map(|d| key(tok, d) * qv[d]).sum();
                assert!((scores[q][tok] - want).abs() < 1e-3, "q={q} tok={tok}");
            }
        }
    }

    #[test]
    fn qkt_row_reuse_reduces_row_switches() {
        let geom = Geometry::baseline();
        let base = AttentionSpec {
            tokens: 2048,
            head_dim: 128,
            group_size: 4,
            row_reuse: false,
        };
        let reuse = AttentionSpec {
            row_reuse: true,
            ..base
        };
        let s_base = QktKernel::new(base, geom).stream();
        let s_reuse = QktKernel::new(reuse, geom).stream();
        let switches = |s: &CommandStream| {
            let mut open = None;
            let mut n = 0u32;
            for c in s.iter() {
                if let CommandKind::Mac { row, .. } = c.kind {
                    if open != Some(row) {
                        open = Some(row);
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(switches(&s_reuse) < switches(&s_base));
        // ... at the cost of more input traffic.
        assert!(s_reuse.kind_counts().0 > s_base.kind_counts().0);
    }

    #[test]
    fn sv_matches_reference_mha() {
        let geom = small_geom();
        let spec = AttentionSpec::mha(40, 8);
        let k = SvKernel::new(spec, geom);
        let val = |tok: usize, d: usize| ((tok * 5 + d * 3) % 9) as f32 * 0.125 - 0.5;
        let s: Vec<f32> = (0..40).map(|t| ((t * 11) % 13) as f32 * 0.1).collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_values(&mut ch, val);
        ch.execute(&k.stream(), &k.input_tiles(std::slice::from_ref(&s)));
        let out = k.outputs_from(&ch);
        for d in 0..8 {
            let want: f32 = (0..40).map(|t| s[t] * val(t, d)).sum();
            assert!(
                (out[0][d] - want).abs() < 1e-2,
                "d={d}: {} vs {want}",
                out[0][d]
            );
        }
    }

    #[test]
    fn sv_gqa_row_reuse_matches_reference() {
        let geom = small_geom();
        let spec = AttentionSpec::gqa(32, 8, 2);
        let k = SvKernel::new(spec, geom);
        let val = |tok: usize, d: usize| ((tok + d) % 4) as f32 * 0.5;
        let scores: Vec<Vec<f32>> = (0..2)
            .map(|q| (0..32).map(|t| ((q * 17 + t) % 5) as f32 * 0.2).collect())
            .collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_values(&mut ch, val);
        ch.execute(&k.stream(), &k.input_tiles(&scores));
        let out = k.outputs_from(&ch);
        for q in 0..2 {
            for d in 0..8 {
                let want: f32 = (0..32).map(|t| scores[q][t] * val(t, d)).sum();
                assert!((out[q][d] - want).abs() < 1e-2, "q={q} d={d}");
            }
        }
    }

    #[test]
    fn qkt_is_rd_out_heavy_sv_is_wr_inp_heavy() {
        let geom = Geometry::baseline();
        let qkt = QktKernel::new(AttentionSpec::mha(4096, 128), geom).stream();
        let sv = SvKernel::new(AttentionSpec::mha(4096, 128), geom).stream();
        let (qw, _, qr) = qkt.kind_counts();
        let (sw, _, sr) = sv.kind_counts();
        assert!(qr > qw, "QKT drains more than it writes: {qr} vs {qw}");
        assert!(sw > sr, "SV writes more than it drains: {sw} vs {sr}");
    }

    /// Attention shapes around every boundary the builders branch on:
    /// partial tiles and groups, GBuf overflow, OBuf blocks that split a
    /// group's queries, and groups that do or do not divide the GBuf.
    fn attention_grid() -> Vec<(Geometry, AttentionSpec)> {
        let mut grid = Vec::new();
        for geom in [
            small_geom(),
            odd_geom(),
            Geometry::baseline(),
            Geometry::pimphony(),
        ] {
            for tokens in [1, 4, 15, 16, 17, 100, 512] {
                for head_dim in [4, 8, 32, 128] {
                    for group_size in [1, 2, 3, 4, 8] {
                        for row_reuse in [false, true] {
                            let spec = AttentionSpec {
                                tokens,
                                head_dim,
                                group_size,
                                row_reuse,
                            };
                            grid.push((geom, spec));
                        }
                    }
                }
            }
        }
        grid
    }

    /// GEMV shapes on both sides of the Global Buffer: inputs that fit,
    /// fill it exactly, or overflow it into a partial last chunk.
    fn gemv_grid() -> Vec<(Geometry, GemvSpec)> {
        let mut grid = Vec::new();
        for geom in [
            small_geom(),
            odd_geom(),
            Geometry::baseline(),
            Geometry::pimphony(),
        ] {
            for dout in [1, 4, 17, 256, 1000] {
                for din in [1, 4, 17, 32, 33, 40, 41, 1024, 1025, 4096] {
                    grid.push((geom, GemvSpec { dout, din }));
                }
            }
        }
        grid
    }

    /// Whether a QKᵀ kernel accepts `spec` (the query must fit in GBuf).
    fn qkt_fits(geom: &Geometry, spec: &AttentionSpec) -> bool {
        spec.head_dim.div_ceil(geom.elems_per_tile) <= geom.gbuf_entries
    }

    /// The GEMV builder with no shared addressing: one `tile_to_row_col`
    /// per MAC at the weight layout's `tile_index` (the layout
    /// `load_weights` stores), and the output slot advanced by `%`.
    fn gemv_reference(spec: GemvSpec, g: Geometry) -> CommandStream {
        let k = GemvKernel::new(spec, g);
        let in_tiles = k.in_tiles();
        let n_groups = k.n_groups();
        let mut s = CommandStream::new();
        let mac = |s: &mut CommandStream, grp: u32, t: u32, gbuf_idx: u32, out_idx: u32| {
            let (row, col) = g.tile_to_row_col(k.tile_index(grp, t));
            s.push_next(CommandKind::Mac {
                gbuf_idx: gbuf_idx as u16,
                row,
                col,
                out_idx: out_idx as u16,
            });
        };
        let write = |s: &mut CommandStream, gbuf_idx: u32, t: u32| {
            s.push_next(CommandKind::WrInp {
                gbuf_idx: gbuf_idx as u16,
                gpr_addr: t * 32,
            });
        };
        let drain = |s: &mut CommandStream, out_idx: u32, grp: u32| {
            s.push_next(CommandKind::RdOut {
                out_idx: out_idx as u16,
                gpr_addr: grp * 32,
            });
        };
        if k.input_fits() {
            for t in 0..in_tiles {
                write(&mut s, t, t);
            }
            let block = g.out_entries.min(n_groups).max(1);
            for gb_start in (0..n_groups).step_by(block as usize) {
                let gb_end = (gb_start + block).min(n_groups);
                for grp in gb_start..gb_end {
                    for t in 0..in_tiles {
                        mac(&mut s, grp, t, t, grp - gb_start);
                    }
                }
                for grp in gb_start..gb_end {
                    drain(&mut s, grp - gb_start, grp);
                }
            }
        } else {
            let cap = g.gbuf_entries;
            let mut slot = 0;
            for cs in (0..in_tiles).step_by(cap as usize) {
                let ce = (cs + cap).min(in_tiles);
                for t in cs..ce {
                    write(&mut s, t - cs, t);
                }
                for grp in 0..n_groups {
                    for t in cs..ce {
                        mac(&mut s, grp, t, t - cs, slot);
                    }
                    drain(&mut s, slot, grp);
                    slot = (slot + 1) % g.out_entries.max(1);
                }
            }
        }
        s
    }

    /// The QKᵀ builder as it was before streams were pre-sized: one
    /// `tile_to_row_col` per MAC and separate row-reuse and
    /// head-sequential loops.
    fn qkt_reference(spec: AttentionSpec, g: Geometry) -> CommandStream {
        let k = QktKernel::new(spec, g);
        let in_tiles = k.in_tiles();
        let n_groups = k.n_groups();
        let queries = spec.group_size;
        let mut s = CommandStream::new();
        let mut out_slot: u16 = 0;
        let mut bump = |s: &mut CommandStream, grp: u32, q: u32| {
            for t in 0..in_tiles {
                let tile_idx = u64::from(grp) * u64::from(in_tiles) + u64::from(t);
                let (row, col) = g.tile_to_row_col(tile_idx);
                s.push_next(CommandKind::Mac {
                    gbuf_idx: t as u16,
                    row,
                    col,
                    out_idx: out_slot,
                });
            }
            s.push_next(CommandKind::RdOut {
                out_idx: out_slot,
                gpr_addr: (q * n_groups + grp) * 32,
            });
            out_slot = (out_slot + 1) % g.out_entries.max(1) as u16;
        };
        let write_query = |s: &mut CommandStream, q: u32| {
            for t in 0..in_tiles {
                s.push_next(CommandKind::WrInp {
                    gbuf_idx: t as u16,
                    gpr_addr: (q * in_tiles + t) * 32,
                });
            }
        };
        if spec.row_reuse && queries > 1 {
            let mut grp = 0;
            while grp < n_groups {
                let (row0, _) = g.tile_to_row_col(u64::from(grp) * u64::from(in_tiles));
                let mut grp_end = grp;
                while grp_end < n_groups {
                    let (r, _) = g.tile_to_row_col(u64::from(grp_end) * u64::from(in_tiles));
                    if r != row0 {
                        break;
                    }
                    grp_end += 1;
                }
                for q in 0..queries {
                    write_query(&mut s, q);
                    for gg in grp..grp_end {
                        bump(&mut s, gg, q);
                    }
                }
                grp = grp_end;
            }
        } else {
            for q in 0..queries {
                write_query(&mut s, q);
                for grp in 0..n_groups {
                    bump(&mut s, grp, q);
                }
            }
        }
        s
    }

    /// The row-reuse SV builder as it was before streams were pre-sized:
    /// it scans the whole pair block per tile and looks up each MAC's
    /// query position.
    fn sv_row_reuse_reference(spec: AttentionSpec, g: Geometry) -> CommandStream {
        let k = SvKernel::new(spec, g);
        let queries = spec.group_size;
        let in_tiles = k.in_tiles();
        let n_groups = k.n_groups();
        let slots_per_q = (g.gbuf_entries / queries).max(1);
        let pairs: Vec<(u32, u32)> = (0..n_groups)
            .flat_map(|grp| (0..queries).map(move |q| (grp, q)))
            .collect();
        let block = g.out_entries.max(1) as usize;
        let mut s = CommandStream::new();
        for pair_block in pairs.chunks(block) {
            let mut qs: Vec<u32> = pair_block.iter().map(|&(_, q)| q).collect();
            qs.sort_unstable();
            qs.dedup();
            let mut chunk_start = 0;
            while chunk_start < in_tiles {
                let chunk_end = (chunk_start + slots_per_q).min(in_tiles);
                for (qi, &q) in qs.iter().enumerate() {
                    for t in chunk_start..chunk_end {
                        s.push_next(CommandKind::WrInp {
                            gbuf_idx: (qi as u32 * slots_per_q + (t - chunk_start)) as u16,
                            gpr_addr: (q * in_tiles + t) * 32,
                        });
                    }
                }
                let mut grps: Vec<u32> = pair_block.iter().map(|&(grp, _)| grp).collect();
                grps.sort_unstable();
                grps.dedup();
                for &grp in &grps {
                    for t in chunk_start..chunk_end {
                        let tile_idx = u64::from(grp) * u64::from(in_tiles) + u64::from(t);
                        let (row, col) = g.tile_to_row_col(tile_idx);
                        for (slot, &(bg, q)) in pair_block.iter().enumerate() {
                            if bg != grp {
                                continue;
                            }
                            let qi = qs.iter().position(|&x| x == q).expect("query present") as u32;
                            s.push_next(CommandKind::Mac {
                                gbuf_idx: (qi * slots_per_q + (t - chunk_start)) as u16,
                                row,
                                col,
                                out_idx: slot as u16,
                            });
                        }
                    }
                }
                chunk_start = chunk_end;
            }
            for (slot, &(grp, q)) in pair_block.iter().enumerate() {
                s.push_next(CommandKind::RdOut {
                    out_idx: slot as u16,
                    gpr_addr: (q * n_groups + grp) * 32,
                });
            }
        }
        s
    }

    #[test]
    fn gemv_stream_matches_reference_builder() {
        let (mut fits, mut chunked) = (0, 0);
        for (geom, spec) in gemv_grid() {
            let k = GemvKernel::new(spec, geom);
            if k.input_fits() {
                fits += 1;
            } else {
                chunked += 1;
            }
            assert_eq!(k.stream(), gemv_reference(spec, geom), "{spec:?} {geom:?}");
        }
        assert!(fits > 0 && chunked > 0, "fits {fits}, chunked {chunked}");
    }

    #[test]
    fn qkt_stream_matches_reference_builder() {
        for (geom, spec) in attention_grid() {
            if qkt_fits(&geom, &spec) {
                let got = QktKernel::new(spec, geom).stream();
                assert_eq!(got, qkt_reference(spec, geom), "{spec:?} {geom:?}");
            }
        }
    }

    #[test]
    fn sv_query_sequential_repeats_the_gemv_stream() {
        for (geom, spec) in attention_grid() {
            let k = SvKernel::new(spec, geom);
            if !k.query_sequential() {
                continue;
            }
            let gemv = GemvKernel::new(
                GemvSpec {
                    dout: spec.head_dim,
                    din: spec.tokens,
                },
                geom,
            )
            .stream();
            let got = k.stream();
            if spec.group_size == 1 {
                assert_eq!(got, gemv, "{spec:?} {geom:?}");
                continue;
            }
            let want: CommandStream = (0..spec.group_size)
                .flat_map(|_| gemv.iter())
                .enumerate()
                .map(|(id, cmd)| PimCommand::new(id as u32, cmd.kind))
                .collect();
            assert_eq!(got, want, "{spec:?} {geom:?}");
        }
    }

    #[test]
    fn sv_row_reuse_stream_matches_reference_builder() {
        for (geom, spec) in attention_grid() {
            let k = SvKernel::new(spec, geom);
            if !k.query_sequential() {
                assert_eq!(
                    k.stream(),
                    sv_row_reuse_reference(spec, geom),
                    "{spec:?} {geom:?}"
                );
            }
        }
    }

    #[test]
    fn builders_fill_exactly_their_reserved_capacity() {
        for (geom, spec) in attention_grid() {
            if qkt_fits(&geom, &spec) {
                let k = QktKernel::new(spec, geom);
                let runs = k.group_runs().len();
                assert_eq!(
                    k.stream().len(),
                    k.command_count(runs),
                    "qkt {spec:?} {geom:?}"
                );
            }
            let k = SvKernel::new(spec, geom);
            let reserved = if k.query_sequential() {
                k.gemv().command_count() * spec.group_size as usize
            } else {
                k.row_reuse_command_count()
            };
            assert_eq!(k.stream().len(), reserved, "sv {spec:?} {geom:?}");
        }
        for (geom, spec) in gemv_grid() {
            let k = GemvKernel::new(spec, geom);
            assert_eq!(
                k.stream().len(),
                k.command_count(),
                "gemv {spec:?} {geom:?}"
            );
        }
    }

    /// Expands what `kernel` emits into commands, checking that every
    /// run holds at least one `MAC`, stays inside one row of `g`, and
    /// has one of the two shapes: consecutive tiles into one
    /// accumulator, or one tile over consecutive accumulators.
    fn expand_checked(kernel: &impl CommandSource, g: &Geometry) -> CommandStream {
        let mut s = CommandStream::new();
        kernel.emit(|item| {
            if let SourceItem::Macs(run) = item {
                let steps = (run.gbuf_step, run.col_step, run.out_step);
                assert!(run.len >= 1, "{run:?}");
                assert!(
                    steps == (1, 1, 0) || steps.1 == 0 && steps.2 == 1,
                    "{run:?}"
                );
                let last_col = u32::from(run.col) + (run.len - 1) * u32::from(run.col_step);
                assert!(last_col < g.row_tiles, "{run:?} {g:?}");
            }
            item.for_each_command(|kind| {
                s.push_next(kind);
            });
        });
        s
    }

    #[test]
    fn emitted_runs_expand_to_the_stream() {
        for (geom, spec) in attention_grid() {
            if qkt_fits(&geom, &spec) {
                let k = QktKernel::new(spec, geom);
                assert_eq!(
                    expand_checked(&k, &geom),
                    k.stream(),
                    "qkt {spec:?} {geom:?}"
                );
            }
            let k = SvKernel::new(spec, geom);
            assert_eq!(
                expand_checked(&k, &geom),
                k.stream(),
                "sv {spec:?} {geom:?}"
            );
        }
        for (geom, spec) in gemv_grid() {
            let k = GemvKernel::new(spec, geom);
            assert_eq!(
                expand_checked(&k, &geom),
                k.stream(),
                "gemv {spec:?} {geom:?}"
            );
        }
    }

    #[test]
    fn calibration_schedules_are_hazard_free() {
        let timing = Timing::aimx();
        for (label, geom, stream) in calibration_streams() {
            for kind in SchedulerKind::ALL {
                let report = schedule(&stream, kind, &timing, &geom);
                let violations = crate::checker::check_schedule(&stream, &report);
                assert!(violations.is_empty(), "{kind} {label}: {violations:?}");
            }
        }
    }
}
