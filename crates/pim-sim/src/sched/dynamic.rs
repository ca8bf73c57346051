//! Dynamic PIM Command Scheduling (paper §V-C) and its ping-pong ablation.
//!
//! The controller splits commands into an I/O transfer queue (`WR-INP`,
//! `RD-OUT`) and a compute queue (`MAC`). Each queue issues in order, but
//! the two queues issue out-of-order with respect to each other whenever
//! per-entry dependencies allow — exactly the D-Table / S-Table mechanism
//! of Fig. 7(c):
//!
//! * The **D-Table** records, per buffer entry, the most recent command
//!   that accessed it; an arriving command's Dependency ID (DID) points at
//!   that command. DIDs are assigned in *program order* as commands arrive.
//! * The **S-Table** records, per entry, the access's expiry timestamp and
//!   an `is-MAC` flag; a command may issue only once its DID's entry has
//!   expired. Consecutive MACs accumulating into the same OBuf entry take
//!   the `is-MAC` fast path and issue at `t_CCDS`.
//!
//! [`Tracking::PerHalf`] coarsens the tables to two regions per buffer,
//! which reproduces *ping-pong buffering*: overlap is possible only across
//! halves, and half hand-offs stall until the previous occupant drains
//! (paper §VIII-C, Fig. 18).
//!
//! # Implementation
//!
//! One program-order pass plays the D-Table. It packs each command's GBuf
//! and OBuf dependencies into one `u32` word each: `0` for none, else
//! `(producer + 1) << 1`, with the low bit selecting the release rule
//! (producer issue + `t_CCDS`, or producer completion). Each tracked
//! region holds the word each kind of consumer takes from its last
//! access, so the pass never branches on how a region was used. The pass
//! is compiled once per [`Tracking`], each with its own D-Table type, so
//! it never branches on the granularity either. The same pass writes the
//! I/O queue as compact entries and the compute queue as one entry per
//! [`MacRun`](super::MacRun), which carry all the issue loop reads, so
//! the loop never looks at the commands again. A run's entry holds its
//! first `MAC`'s words. A later `MAC`'s words are stored, in a side list
//! in program order, only if one of them can hold it past the cycle the
//! bus frees: a GBuf word (a `WR-INP`'s completion) or an OBuf word that
//! is a drain's completion. An OBuf word pipelined on a `MAC` (the
//! previous one of the run, or one an earlier run left on the
//! accumulator) is dropped. That `MAC` issued earlier from the same
//! in-order queue, so its release, issue + `t_CCDS`, is never past the
//! cycle the bus frees. When the `MAC` does stall, its GBuf word or its
//! row binds, and the attribution picks the same category for any OBuf
//! release at or before that cycle, so dropping the word changes no
//! timing and no stall.
//!
//! Under [`Tracking::PerEntry`] an accumulate run (`out_step == 0`,
//! consecutive GBuf entries) that stays inside the GBuf is walked once
//! per run, not once per `MAC`. Its `MAC`s read distinct GBuf regions,
//! so one pass over the run's contiguous regions reads and writes each
//! region exactly as the per-`MAC` walk would. Every later `MAC` chains
//! on the one accumulator, so its OBuf word is the previous `MAC`'s
//! pipelined word, which the per-`MAC` walk drops; only the last `MAC`'s
//! words survive in the region, so the region is written once, for it.
//! Ping-pong tables, fan-out runs and runs that would pass the last GBuf
//! entry take the per-`MAC` walk.
//!
//! The issue loop then plays the S-Table. Each command owns one row of a
//! release table, `[complete, issue + t_CCDS]`, so a dependency word *is*
//! the index of its release time; row 0 stays `[0, 0]` for "no
//! dependency". Rows hold `u64::MAX` until their command issues, so a
//! queue head blocked on an unissued producer is simply ready at
//! `u64::MAX`. [`DynamicScheduler::run`] reads the per-command timings
//! back out of the table; [`DynamicScheduler::summarize`] drops it.
//!
//! Each step weighs the two queue heads and issues the one ready first;
//! ties go to compute. The loop evaluates the compute head once and then
//! issues I/O heads for as long as each is ready strictly before it. An
//! I/O issue moves the bus and fills its own release row, nothing else:
//! the compute head's row is untouched, and its words change release
//! only if the command just issued produced one of them, so the head is
//! re-read exactly then. Each batched I/O issue is the pick the general
//! step would make, and it still counts as a step.
//!
//! A run's first `MAC` issues through the general step. Each later `MAC`
//! whose row and stored words are released by the time the bus frees is
//! ready exactly then. It wins the pick without the I/O head being
//! weighed, because ties go to compute and the I/O head is never ready
//! before the bus frees. So the loop issues it at once, past refresh,
//! with no stall to attribute, and moves on to the next. The bus only
//! frees later as the run goes on, so every stored word released by the
//! cycle the bus frees after the run's first `MAC` passes that check at
//! its own `MAC`: the loop skips those words in one scan and bursts
//! through to the first stored word that is not released, or through
//! the whole run. The first `MAC` that must wait becomes the compute
//! queue's head, its entry rewritten in place to start there with its
//! own words, and goes back to the general step.
//!
//! Stall cycles are charged once. A row switch's stall runs from the
//! `MAC`'s issue to the cycle the row is open, ahead of the bus, so a
//! later wait that falls inside it (the next `MAC` waiting for the same
//! row) charges only what lies past it, and a `MAC` issued inside it
//! takes its busy slot back from it. The breakdown then sums to the
//! makespan with no residual clamp.
//!
//! The queues and the table live in one per-thread scratch that every run
//! on the thread reuses, never in the scheduler: kernel calibration
//! makes thousands of runs, and per-run buffers would be allocated and
//! faulted in afresh each time.

use super::{CommandSource, Issuer, MacRun, SourceItem};
use crate::geometry::Geometry;
use crate::report::{CommandTiming, ExecutionReport, ScheduleSummary};
use crate::timing::Timing;
use pim_isa::command::CommandStream;
use std::cell::Cell;

/// Dependency-tracking granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracking {
    /// Per-entry D-Table/S-Table (DCS).
    PerEntry,
    /// Two regions per buffer (ping-pong double buffering).
    PerHalf,
}

/// Dependency word meaning "no dependency on this buffer".
const NO_DEP: u32 = 0;

/// Rule bit of a dependency word: release at the producer's issue +
/// `t_CCDS` (the `is-MAC` fast path, or bus pipelining).
const ISSUE_PLUS_CCDS: u32 = 1;

/// Rule bit clear: the consumer waits for the producer to complete.
const COMPLETION: u32 = 0;

/// Timestamp of a command that has not issued yet. A release time
/// derived from it is also `NOT_ISSUED`, so "blocked" needs no `Option`.
const NOT_ISSUED: u64 = u64::MAX;

/// Commands a stream may hold: a dependency word stores its producer's
/// index plus one in 31 bits.
const MAX_COMMANDS: usize = (u32::MAX >> 1) as usize - 1;

/// Packs a dependency on command `producer` into one word.
fn dep_word(producer: u32, rule: u32) -> u32 {
    ((producer + 1) << 1) | rule
}

/// The `[GBuf, OBuf]` words the issue loop uses for a run's later `MAC`
/// when none are stored: nothing to wait for but the bus (module docs).
const IMPLIED: [u32; 2] = [NO_DEP; 2];

/// An I/O queue entry: the command's one dependency word (GBuf for a
/// `WR-INP`, OBuf for an `RD-OUT`) and `index << 1 | is_rd_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IoEntry {
    dep: u32,
    tag: u32,
}

/// A compute queue entry for one [`MacRun`](super::MacRun): its first
/// `MAC`'s `[GBuf, OBuf]` dependency words, its DRAM row, its first
/// command index and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunEntry {
    deps: [u32; 2],
    row: u32,
    index: u32,
    len: u32,
}

/// The dependency words of a run's later `MAC` that are not implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MacDeps {
    index: u32,
    deps: [u32; 2],
}

/// The queues and release table of one run, reused across runs.
#[derive(Debug, Default)]
struct Scratch {
    io: Vec<IoEntry>,
    compute: Vec<RunEntry>,
    /// Stored words of runs' later `MAC`s, in program order.
    explicit: Vec<MacDeps>,
    /// Row `i + 1` is command `i`'s `[complete, issue + t_CCDS]`.
    release: Vec<u64>,
    /// D-Table region writes of the last walk (test builds only).
    #[cfg(test)]
    dtable_writes: u64,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Out-of-order (across queues) dependency-aware scheduler.
#[derive(Debug, Clone)]
pub struct DynamicScheduler {
    timing: Timing,
    geometry: Geometry,
    tracking: Tracking,
}

impl DynamicScheduler {
    /// Creates a dynamic scheduler with the given tracking granularity.
    pub fn new(timing: Timing, geometry: Geometry, tracking: Tracking) -> Self {
        DynamicScheduler {
            timing,
            geometry,
            tracking,
        }
    }

    /// Schedules the stream.
    pub fn run(&self, stream: &CommandStream) -> ExecutionReport {
        let t_ccds = self.timing.t_ccds;
        let (summary, timings) = self.with_scratch(stream, |release| {
            stream
                .iter()
                .zip(release[2..].chunks_exact(2))
                .map(|(cmd, row)| CommandTiming {
                    id: cmd.id,
                    issue: row[1] - t_ccds,
                    complete: row[0],
                })
                .collect()
        });
        ExecutionReport { timings, summary }
    }

    /// Schedules the commands `source` emits, keeping only the scalar
    /// results.
    pub fn summarize(&self, source: &(impl CommandSource + ?Sized)) -> ScheduleSummary {
        self.with_scratch(source, |_| ()).0
    }

    /// Runs `source` on this thread's scratch and hands the filled
    /// release table to `read`.
    fn with_scratch<R>(
        &self,
        source: &(impl CommandSource + ?Sized),
        read: impl FnOnce(&[u64]) -> R,
    ) -> (ScheduleSummary, R) {
        let mut scratch = SCRATCH.take();
        self.prepare(source, &mut scratch);
        let summary = self.issue(&mut scratch);
        let out = read(&scratch.release);
        SCRATCH.set(scratch);
        (summary, out)
    }

    /// Walks the commands once in program order: assigns each its GBuf
    /// and OBuf dependency words exactly as the D-Table would, and
    /// writes it to the I/O or compute queue. The tracking granularity
    /// picks the D-Table's type here, once per run.
    fn prepare(&self, source: &(impl CommandSource + ?Sized), scratch: &mut Scratch) {
        let g = &self.geometry;
        match self.tracking {
            Tracking::PerEntry => walk_counted(source, scratch, PerEntryTable::new(g)),
            Tracking::PerHalf => walk_counted(source, scratch, PerHalfTable::new(g)),
        }
    }

    /// The issue loop over the prepared queues; fills the release table.
    fn issue(&self, scratch: &mut Scratch) -> ScheduleSummary {
        let t = self.timing;
        let Scratch {
            io,
            compute,
            explicit,
            release,
            ..
        } = scratch;
        // `ex_next` is the first stored word pair not yet read.
        let (mut io_next, mut cp_next, mut ex_next) = (0usize, 0usize, 0usize);
        let mut core = Issuer::new(&t);
        #[cfg(test)]
        core.count_dtable_writes(scratch.dtable_writes);
        let mut bus_free: u64 = 0;

        loop {
            // The compute head's gbuf, obuf and row releases. An empty
            // queue or a head blocked on an unissued producer is ready at
            // `NOT_ISSUED`.
            let mut head = compute
                .get(cp_next)
                .map_or(Head::NONE, |e| Head::eval(&mut core, e, release));

            // Issue I/O heads while each is ready strictly before the
            // compute head; ties go to compute to keep the MAC pipeline
            // fed. An I/O issue moves only the bus and its own release
            // row, so the compute head is re-read only if that row holds
            // one of its words.
            while let Some(&e) = io.get(io_next) {
                let io_ready = bus_free.max(release[e.dep as usize]);
                if io_ready >= head.ready.max(bus_free) {
                    break;
                }
                core.count_step();
                io_next += 1;
                let stall = core.stall(bus_free, io_ready);
                let issue = core.issue_at(io_ready);
                let complete = if e.tag & 1 == 0 {
                    core.breakdown.dt_gbuf += stall;
                    core.wr_inp(issue)
                } else {
                    core.breakdown.dt_outreg += stall;
                    core.rd_out(issue)
                };
                bus_free = issue + t.t_ccds;
                let index = e.tag >> 1;
                retire(release, index, complete, bus_free);
                if let Some(c) = compute.get(cp_next) {
                    if c.deps.iter().any(|&d| d >> 1 == index + 1) {
                        head = Head::eval(&mut core, c, release);
                    }
                }
            }
            let Some(&run) = compute.get(cp_next) else {
                assert!(
                    io_next == io.len(),
                    "deadlock: the I/O head is blocked on an unissued producer"
                );
                break;
            };

            core.count_step();
            let cp_ready = head.ready.max(bus_free);
            assert!(
                cp_ready != NOT_ISSUED,
                "deadlock: both queue heads blocked on unissued producers"
            );
            // A stall beyond bus availability is attributed to its
            // binding constraint.
            let stall = core.stall(bus_free, cp_ready);
            let issue = core.issue_at(cp_ready);
            if stall > 0 {
                if head.gbuf >= head.obuf && head.gbuf >= head.row {
                    core.breakdown.dt_gbuf += stall;
                } else if head.obuf >= head.row {
                    core.breakdown.dt_outreg += stall;
                } else {
                    core.breakdown.act_pre += stall;
                }
            }
            core.occupy(issue);
            let complete = core.mac(run.row, issue).1;
            bus_free = issue + t.t_ccds;
            retire(release, run.index, complete, bus_free);
            if run.len == 1 {
                cp_next += 1;
                continue;
            }

            // The run's later MACs: each issues when the bus frees if its
            // row and stored words are released by then (module docs);
            // the first that is not becomes the queue head. The bus only
            // frees later from here on, so the stored pairs released by
            // now need no check at their `MAC`: the first burst runs to
            // the first stored pair that is not, or through the run.
            let end = run.index + run.len;
            let mut index = run.index + 1;
            let row_open = core.row_release(run.row) <= bus_free;
            if row_open {
                ex_next += explicit[ex_next..]
                    .iter()
                    .take_while(|e| {
                        e.index < end && e.deps.iter().all(|&d| release[d as usize] <= bus_free)
                    })
                    .count();
            }
            loop {
                // The MACs before the next stored pair wait for nothing
                // but the bus.
                let stored = explicit.get(ex_next).map_or(end, |e| e.index.min(end));
                if row_open && stored > index {
                    bus_free = burst(&mut core, &t, release, bus_free, &mut index, stored);
                }
                if index == end {
                    cp_next += 1;
                    break;
                }
                let deps = if stored == index {
                    ex_next += 1;
                    explicit[ex_next - 1].deps
                } else {
                    IMPLIED
                };
                let [g, o] = deps.map(|d| release[d as usize]);
                if !row_open || g.max(o) > bus_free {
                    compute[cp_next] = RunEntry {
                        deps,
                        row: run.row,
                        index,
                        len: end - index,
                    };
                    break;
                }
                let stop = index + 1;
                bus_free = burst(&mut core, &t, release, bus_free, &mut index, stop);
            }
        }
        core.finish()
    }
}

/// The compute head's release times: its GBuf word's, its OBuf word's
/// and its row's, and the latest of the three.
#[derive(Debug, Clone, Copy)]
struct Head {
    ready: u64,
    gbuf: u64,
    obuf: u64,
    row: u64,
}

impl Head {
    /// An empty compute queue: never ready.
    const NONE: Head = Head {
        ready: NOT_ISSUED,
        gbuf: 0,
        obuf: 0,
        row: 0,
    };

    /// Reads the releases of `e`'s words and of its row.
    #[inline(always)]
    fn eval(core: &mut Issuer, e: &RunEntry, release: &[u64]) -> Head {
        core.count_head_eval();
        let gbuf = release[e.deps[0] as usize];
        let obuf = release[e.deps[1] as usize];
        let row = core.row_release(e.row);
        Head {
            ready: gbuf.max(obuf).max(row),
            gbuf,
            obuf,
            row,
        }
    }
}

/// Issues `MAC`s `*index..stop` of a run on its open row, the first when
/// the bus frees at `bus_free` and each later one when it frees again,
/// writing their release rows and advancing `*index` to `stop`; returns
/// when the bus frees after the last.
#[inline(always)]
fn burst(
    core: &mut Issuer,
    t: &Timing,
    release: &mut [u64],
    bus_free: u64,
    index: &mut u32,
    stop: u32,
) -> u64 {
    let Timing { t_ccds, t_mac, .. } = *t;
    let last = core.mac_burst(bus_free, stop - *index, |issue| {
        retire(release, *index, issue + t_mac, issue + t_ccds);
        *index += 1;
    });
    last + t_ccds
}

/// Writes command `index`'s release row: its completion and the cycle
/// the bus frees after its issue.
#[inline(always)]
fn retire(release: &mut [u64], index: u32, complete: u64, bus_free: u64) {
    let row = 2 * (index as usize + 1);
    release[row] = complete;
    release[row + 1] = bus_free;
}

/// The D-Table: per tracked region, the word each kind of consumer takes
/// from the region's last access, `[WR-INP, MAC]` for the GBuf and
/// `[MAC, RD-OUT]` for the OBuf. One implementation per [`Tracking`], so
/// [`walk`] maps a buffer entry to its region without a runtime match.
trait DTable {
    /// The GBuf region holding `entry`.
    fn gbuf(&mut self, entry: u16) -> &mut [u32; 2];
    /// The OBuf region holding `entry`.
    fn obuf(&mut self, entry: u16) -> &mut [u32; 2];

    /// Records `MAC` `idx` reading GBuf entry `gbuf_idx`; returns its
    /// GBuf dependency word.
    #[inline(always)]
    fn mac_gbuf(&mut self, idx: u32, gbuf_idx: u16) -> u32 {
        let gbuf = self.gbuf(gbuf_idx);
        let dep = gbuf[1];
        // A write to the tile (WAR) waits for this read to complete; a
        // later read needs nothing.
        *gbuf = [dep_word(idx, COMPLETION), NO_DEP];
        dep
    }

    /// Records `MAC` `idx` accumulating into output entry `out_idx`;
    /// returns its OBuf dependency word.
    #[inline(always)]
    fn mac_obuf(&mut self, idx: u32, out_idx: u16) -> u32 {
        let obuf = self.obuf(out_idx);
        let dep = obuf[0];
        // The next MAC on the accumulator chains at `t_CCDS` (the is-MAC
        // fast path); a drain (RAW) waits for the accumulation to
        // complete.
        *obuf = [dep_word(idx, ISSUE_PLUS_CCDS), dep_word(idx, COMPLETION)];
        dep
    }

    /// Records the accumulate run `run`, whose `MAC`s are commands
    /// `first..`, in one pass, pushing its later `MAC`s' stored words to
    /// `explicit`; returns its first `MAC`'s `[GBuf, OBuf]` words. `None`
    /// when the table cannot (the default): the run then takes the
    /// per-`MAC` walk, which records the same.
    #[inline(always)]
    fn accumulate(
        &mut self,
        first: u32,
        run: &MacRun,
        explicit: &mut Vec<MacDeps>,
    ) -> Option<[u32; 2]> {
        let _ = (first, run, explicit);
        None
    }
}

/// [`Tracking::PerEntry`]: one region per buffer entry.
struct PerEntryTable {
    gbuf: Vec<[u32; 2]>,
    obuf: Vec<[u32; 2]>,
}

impl PerEntryTable {
    fn new(g: &Geometry) -> Self {
        let regions = |entries: u32| vec![[NO_DEP; 2]; (entries as usize).max(1)];
        PerEntryTable {
            gbuf: regions(g.gbuf_entries),
            obuf: regions(g.out_entries),
        }
    }
}

impl DTable for PerEntryTable {
    #[inline(always)]
    fn gbuf(&mut self, entry: u16) -> &mut [u32; 2] {
        &mut self.gbuf[usize::from(entry)]
    }

    #[inline(always)]
    fn obuf(&mut self, entry: u16) -> &mut [u32; 2] {
        &mut self.obuf[usize::from(entry)]
    }

    /// An accumulate run that stays inside the GBuf reads one region per
    /// `MAC`, each its own, and chains every later `MAC` on the one
    /// accumulator: the per-`MAC` walk's GBuf words in one pass over the
    /// run's regions, and one OBuf write, for its last `MAC`.
    #[inline(always)]
    fn accumulate(
        &mut self,
        first: u32,
        run: &MacRun,
        explicit: &mut Vec<MacDeps>,
    ) -> Option<[u32; 2]> {
        if run.out_step != 0 || run.gbuf_step != 1 {
            return None;
        }
        let start = usize::from(run.gbuf_idx);
        let (head, rest) = self
            .gbuf
            .get_mut(start..start + run.len as usize)?
            .split_first_mut()?;
        let read = |region: &mut [u32; 2], idx: u32| {
            std::mem::replace(region, [dep_word(idx, COMPLETION), NO_DEP])[1]
        };
        let gbuf = read(head, first);
        for (idx, region) in (first + 1..).zip(rest) {
            let dep = read(region, idx);
            if dep != NO_DEP {
                explicit.push(MacDeps {
                    index: idx,
                    deps: [dep, NO_DEP],
                });
            }
        }
        let last = first + run.len - 1;
        let words = [dep_word(last, ISSUE_PLUS_CCDS), dep_word(last, COMPLETION)];
        let obuf = std::mem::replace(&mut self.obuf[usize::from(run.out_idx)], words)[0];
        Some([gbuf, obuf])
    }
}

/// [`Tracking::PerHalf`]: two regions per buffer, split at its half
/// (ping-pong).
struct PerHalfTable {
    gbuf: [[u32; 2]; 2],
    obuf: [[u32; 2]; 2],
    gbuf_half: u32,
    obuf_half: u32,
}

impl PerHalfTable {
    fn new(g: &Geometry) -> Self {
        PerHalfTable {
            gbuf: [[NO_DEP; 2]; 2],
            obuf: [[NO_DEP; 2]; 2],
            gbuf_half: g.gbuf_entries / 2,
            obuf_half: (g.out_entries / 2).max(1),
        }
    }
}

impl DTable for PerHalfTable {
    #[inline(always)]
    fn gbuf(&mut self, entry: u16) -> &mut [u32; 2] {
        &mut self.gbuf[usize::from(u32::from(entry) >= self.gbuf_half)]
    }

    #[inline(always)]
    fn obuf(&mut self, entry: u16) -> &mut [u32; 2] {
        &mut self.obuf[usize::from(u32::from(entry) >= self.obuf_half)]
    }
}

/// [`walk`] over `table`, counting its region writes in test builds.
#[inline(always)]
fn walk_counted(
    source: &(impl CommandSource + ?Sized),
    scratch: &mut Scratch,
    mut table: impl DTable,
) {
    #[cfg(not(test))]
    walk(source, scratch, &mut table);
    #[cfg(test)]
    {
        let mut counted = tests::Counted::new(&mut table);
        walk(source, scratch, &mut counted);
        scratch.dtable_writes = counted.writes;
    }
}

/// [`DynamicScheduler::prepare`]'s walk over one D-Table type.
fn walk(source: &(impl CommandSource + ?Sized), scratch: &mut Scratch, table: &mut impl DTable) {
    let Scratch {
        io,
        compute,
        explicit,
        ..
    } = scratch;
    io.clear();
    compute.clear();
    explicit.clear();
    let mut n = 0usize;
    // The index of the next command, with room for `count` commands.
    let mut take = |count: u32| {
        assert!(
            n + count as usize <= MAX_COMMANDS,
            "dependency words index commands in 31 bits"
        );
        let idx = n as u32;
        n += count as usize;
        idx
    };

    source.emit(
        #[inline(always)]
        |item| match item {
            SourceItem::WrInp { gbuf_idx, .. } => {
                let idx = take(1);
                let region = table.gbuf(gbuf_idx);
                io.push(IoEntry {
                    dep: region[0],
                    tag: idx << 1,
                });
                // Write-after-write streams over the pipelined data bus;
                // a MAC reading the tile (RAW) waits until it is fully
                // written.
                *region = [dep_word(idx, ISSUE_PLUS_CCDS), dep_word(idx, COMPLETION)];
            }
            SourceItem::Macs(run) => {
                if run.len == 0 {
                    return;
                }
                let first = take(run.len);
                let entry = |deps| RunEntry {
                    deps,
                    row: run.row,
                    index: first,
                    len: run.len,
                };
                if let Some(deps) = table.accumulate(first, &run, explicit) {
                    compute.push(entry(deps));
                    return;
                }
                let (mut g, mut o) = (run.gbuf_idx, run.out_idx);
                compute.push(entry([table.mac_gbuf(first, g), table.mac_obuf(first, o)]));
                // A later MAC's words are stored only if it may wait for
                // more than the bus. An OBuf word pipelined on a MAC is
                // released by then (module docs), so it counts as none.
                for idx in first + 1..first + run.len {
                    g = g.wrapping_add(run.gbuf_step);
                    o = o.wrapping_add(run.out_step);
                    let g_dep = table.mac_gbuf(idx, g);
                    let o_dep = match table.mac_obuf(idx, o) {
                        chained if chained & ISSUE_PLUS_CCDS != 0 => NO_DEP,
                        dep => dep,
                    };
                    if [g_dep, o_dep] != IMPLIED {
                        explicit.push(MacDeps {
                            index: idx,
                            deps: [g_dep, o_dep],
                        });
                    }
                }
            }
            SourceItem::RdOut { out_idx, .. } => {
                let idx = take(1);
                let region = table.obuf(out_idx);
                io.push(IoEntry {
                    dep: region[1],
                    tag: idx << 1 | 1,
                });
                // Re-accumulating waits for the drain to complete;
                // back-to-back drains pipeline on the bus.
                *region = [dep_word(idx, COMPLETION), dep_word(idx, ISSUE_PLUS_CCDS)];
            }
        },
    );

    scratch.release.clear();
    scratch.release.resize(2 * (n + 1), NOT_ISSUED);
    scratch.release[..2].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::command::CommandKind;
    use pim_isa::PimCommand;

    /// A D-Table that counts its region writes: one per region access,
    /// and a run's regions plus one for a one-pass accumulate run.
    pub(super) struct Counted<'a, T> {
        table: &'a mut T,
        pub(super) writes: u64,
    }

    impl<'a, T: DTable> Counted<'a, T> {
        pub(super) fn new(table: &'a mut T) -> Self {
            Counted { table, writes: 0 }
        }
    }

    impl<T: DTable> DTable for Counted<'_, T> {
        fn gbuf(&mut self, entry: u16) -> &mut [u32; 2] {
            self.writes += 1;
            self.table.gbuf(entry)
        }

        fn obuf(&mut self, entry: u16) -> &mut [u32; 2] {
            self.writes += 1;
            self.table.obuf(entry)
        }

        fn accumulate(
            &mut self,
            first: u32,
            run: &MacRun,
            explicit: &mut Vec<MacDeps>,
        ) -> Option<[u32; 2]> {
            let words = self.table.accumulate(first, run, explicit)?;
            self.writes += u64::from(run.len) + 1;
            Some(words)
        }
    }

    /// A D-Table that takes every run through the per-`MAC` walk.
    struct PerMac<T>(T);

    impl<T: DTable> DTable for PerMac<T> {
        fn gbuf(&mut self, entry: u16) -> &mut [u32; 2] {
            self.0.gbuf(entry)
        }

        fn obuf(&mut self, entry: u16) -> &mut [u32; 2] {
            self.0.obuf(entry)
        }
    }

    /// Differential oracle: the per-command scheduler loop exactly as it
    /// stood before it was rewritten around packed dependency words.
    mod oracle {
        use crate::geometry::Geometry;
        use crate::report::{Breakdown, CommandTiming, ExecutionReport, ScheduleSummary};
        use crate::sched::{RefreshState, Tracking};
        use crate::timing::Timing;
        use pim_isa::command::{CommandKind, CommandStream};

        /// How a dependency's release time derives from its producer's timing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum DepRule {
            /// Wait for the producer to fully complete.
            Completion,
            /// `is-MAC` fast path / bus pipelining: producer issue + `t_CCDS`.
            IssuePlusCcds,
        }

        /// A resolved dependency: index of the producing command + release rule.
        #[derive(Debug, Clone, Copy)]
        struct Dep {
            producer: usize,
            rule: DepRule,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum AccessKind {
            Write,
            MacRead,
            MacAcc,
            Drain,
        }

        /// The scheduler as it was before the compact core: `Option`
        /// dependencies, `VecDeque` queues and `Option` timestamps.
        pub(super) struct Oracle {
            timing: Timing,
            geometry: Geometry,
            tracking: Tracking,
        }

        impl Oracle {
            pub(super) fn new(timing: Timing, geometry: Geometry, tracking: Tracking) -> Self {
                Oracle {
                    timing,
                    geometry,
                    tracking,
                }
            }

            fn gbuf_region(&self, entry: u16) -> usize {
                match self.tracking {
                    Tracking::PerEntry => entry as usize,
                    Tracking::PerHalf => {
                        usize::from(u32::from(entry) >= self.geometry.gbuf_entries / 2)
                    }
                }
            }

            fn obuf_region(&self, entry: u16) -> usize {
                match self.tracking {
                    Tracking::PerEntry => entry as usize,
                    Tracking::PerHalf => {
                        usize::from(u32::from(entry) >= (self.geometry.out_entries / 2).max(1))
                    }
                }
            }

            /// Walks the stream in program order, assigning each command its GBuf
            /// and OBuf dependencies exactly as the D-Table would.
            fn assign_deps(&self, stream: &CommandStream) -> Vec<(Option<Dep>, Option<Dep>)> {
                let gbuf_regions = match self.tracking {
                    Tracking::PerEntry => self.geometry.gbuf_entries as usize,
                    Tracking::PerHalf => 2,
                };
                let obuf_regions = match self.tracking {
                    Tracking::PerEntry => self.geometry.out_entries as usize,
                    Tracking::PerHalf => 2,
                };
                let mut gbuf: Vec<Option<(usize, AccessKind)>> = vec![None; gbuf_regions.max(1)];
                let mut obuf: Vec<Option<(usize, AccessKind)>> = vec![None; obuf_regions.max(1)];
                let mut deps = Vec::with_capacity(stream.len());

                for (idx, cmd) in stream.iter().enumerate() {
                    let mut g_dep = None;
                    let mut o_dep = None;
                    match cmd.kind {
                        CommandKind::WrInp { gbuf_idx, .. } => {
                            let r = self.gbuf_region(gbuf_idx);
                            if let Some((p, kind)) = gbuf[r] {
                                g_dep = Some(match kind {
                                    // Write-after-write streams over the pipelined
                                    // data bus; issue order suffices.
                                    AccessKind::Write => Dep {
                                        producer: p,
                                        rule: DepRule::IssuePlusCcds,
                                    },
                                    // WAR after a MAC read: the read must complete
                                    // before its input may be overwritten.
                                    _ => Dep {
                                        producer: p,
                                        rule: DepRule::Completion,
                                    },
                                });
                            }
                            gbuf[r] = Some((idx, AccessKind::Write));
                        }
                        CommandKind::Mac {
                            gbuf_idx, out_idx, ..
                        } => {
                            let r = self.gbuf_region(gbuf_idx);
                            if let Some((p, kind)) = gbuf[r] {
                                if kind == AccessKind::Write {
                                    // RAW: the input tile must be fully written.
                                    g_dep = Some(Dep {
                                        producer: p,
                                        rule: DepRule::Completion,
                                    });
                                }
                            }
                            gbuf[r] = Some((idx, AccessKind::MacRead));
                            let ro = self.obuf_region(out_idx);
                            if let Some((p, kind)) = obuf[ro] {
                                o_dep = Some(match kind {
                                    // is-MAC fast path: accumulator chaining.
                                    AccessKind::MacAcc => Dep {
                                        producer: p,
                                        rule: DepRule::IssuePlusCcds,
                                    },
                                    _ => Dep {
                                        producer: p,
                                        rule: DepRule::Completion,
                                    },
                                });
                            }
                            obuf[ro] = Some((idx, AccessKind::MacAcc));
                        }
                        CommandKind::RdOut { out_idx, .. } => {
                            let ro = self.obuf_region(out_idx);
                            if let Some((p, kind)) = obuf[ro] {
                                o_dep = Some(match kind {
                                    // RAW: the accumulation must be complete.
                                    AccessKind::MacAcc => Dep {
                                        producer: p,
                                        rule: DepRule::Completion,
                                    },
                                    AccessKind::Drain => Dep {
                                        producer: p,
                                        rule: DepRule::IssuePlusCcds,
                                    },
                                    _ => Dep {
                                        producer: p,
                                        rule: DepRule::Completion,
                                    },
                                });
                            }
                            obuf[ro] = Some((idx, AccessKind::Drain));
                        }
                    }
                    deps.push((g_dep, o_dep));
                }
                deps
            }

            pub(super) fn run(&self, stream: &CommandStream) -> ExecutionReport {
                let t = self.timing;
                let cmds: Vec<_> = stream.iter().collect();
                let deps = self.assign_deps(stream);

                let mut io_q: std::collections::VecDeque<usize> = Default::default();
                let mut cp_q: std::collections::VecDeque<usize> = Default::default();
                for (idx, cmd) in cmds.iter().enumerate() {
                    if cmd.kind.is_io() {
                        io_q.push_back(idx);
                    } else {
                        cp_q.push_back(idx);
                    }
                }

                let mut issue_at: Vec<Option<u64>> = vec![None; cmds.len()];
                let mut complete_at: Vec<Option<u64>> = vec![None; cmds.len()];
                let mut refresh = RefreshState::new(&t);
                let mut breakdown = Breakdown::default();
                let mut bus_free: u64 = 0;
                let mut open_row: Option<u32> = None;
                let mut row_ready: u64 = 0;
                let mut last_mac_complete: u64 = 0;
                let mut makespan: u64 = 0;
                // Stalls are charged once: `charged` is the end of the
                // latest stall, and a MAC's busy slot takes back what a
                // row switch charged under it.
                let mut charged: u64 = 0;
                fn stall(charged: &mut u64, from: u64, to: u64) -> u64 {
                    let cycles = to.saturating_sub(from.max(*charged));
                    *charged = (*charged).max(to);
                    cycles
                }
                let slot = t.t_ccds.min(t.t_mac);
                let (mut n_w, mut n_m, mut n_r, mut switches) = (0u64, 0u64, 0u64, 0u64);

                /// Release time of a dependency, or `None` if the producer has not
                /// issued yet (the consumer must keep waiting).
                fn release(
                    dep: Option<Dep>,
                    issue_at: &[Option<u64>],
                    complete_at: &[Option<u64>],
                    t_ccds: u64,
                ) -> Option<u64> {
                    match dep {
                        None => Some(0),
                        Some(d) => match (issue_at[d.producer], complete_at[d.producer]) {
                            (Some(i), Some(c)) => Some(match d.rule {
                                DepRule::Completion => c,
                                DepRule::IssuePlusCcds => i + t_ccds,
                            }),
                            _ => None,
                        },
                    }
                }

                while !io_q.is_empty() || !cp_q.is_empty() {
                    // Earliest-issue candidate from each queue head: (ready time,
                    // gbuf release, obuf release). `None` = blocked on an unissued
                    // producer.
                    let eval = |idx: usize| -> Option<(u64, u64, u64, u64)> {
                        let (g_dep, o_dep) = deps[idx];
                        let g = release(g_dep, &issue_at, &complete_at, t.t_ccds)?;
                        let o = release(o_dep, &issue_at, &complete_at, t.t_ccds)?;
                        let mut row = 0;
                        if let CommandKind::Mac { row: r, .. } = cmds[idx].kind {
                            if open_row == Some(r) {
                                row = row_ready;
                            }
                        }
                        Some((bus_free.max(g).max(o).max(row), g, o, row))
                    };

                    let io_head = io_q.front().and_then(|&i| eval(i).map(|e| (i, e)));
                    let cp_head = cp_q.front().and_then(|&i| eval(i).map(|e| (i, e)));

                    // Pick the queue whose head is ready first; ties go to compute
                    // to keep the MAC pipeline fed.
                    let take_compute = match (io_head, cp_head) {
                        (None, Some(_)) => true,
                        (Some(_), None) => false,
                        (Some((_, (io_t, ..))), Some((_, (cp_t, ..)))) => cp_t <= io_t,
                        (None, None) => {
                            unreachable!("deadlock: both queue heads blocked on unissued producers")
                        }
                    };
                    let (idx, (ready, g_rel, o_rel, row_rel)) = if take_compute {
                        cp_q.pop_front();
                        cp_head.expect("compute head")
                    } else {
                        io_q.pop_front();
                        io_head.expect("io head")
                    };

                    // Attribute stall beyond bus availability to its binding
                    // constraint.
                    let waited = stall(&mut charged, bus_free, ready);
                    if waited > 0 {
                        if g_rel >= o_rel && g_rel >= row_rel {
                            breakdown.dt_gbuf += waited;
                        } else if o_rel >= row_rel {
                            breakdown.dt_outreg += waited;
                        } else {
                            breakdown.act_pre += waited;
                        }
                    }

                    let issue = refresh.adjust(ready);
                    breakdown.refresh += stall(&mut charged, ready, issue);

                    let complete = match cmds[idx].kind {
                        CommandKind::WrInp { .. } => {
                            n_w += 1;
                            issue + t.t_wr_inp
                        }
                        CommandKind::Mac { row, .. } => {
                            n_m += 1;
                            breakdown.act_pre -= (issue + slot).min(charged).saturating_sub(issue);
                            charged = charged.max(issue + slot);
                            let complete = if open_row == Some(row) {
                                issue.max(row_ready) + t.t_mac
                            } else {
                                switches += 1;
                                open_row = Some(row);
                                // Row opening pipelines behind ongoing reads (bank
                                // groups prepare the next row while the current one
                                // streams): back-to-back switches are spaced by the
                                // row cycle, but a switch after a long MAC run is
                                // fully hidden.
                                let new_ready = issue.max(row_ready + t.row_switch());
                                breakdown.act_pre += stall(&mut charged, issue, new_ready);
                                row_ready = new_ready;
                                row_ready + t.t_mac
                            };
                            last_mac_complete = last_mac_complete.max(complete);
                            complete
                        }
                        CommandKind::RdOut { .. } => {
                            n_r += 1;
                            issue + t.t_rd_out
                        }
                    };

                    bus_free = issue + t.t_ccds;
                    makespan = makespan.max(complete);
                    issue_at[idx] = Some(issue);
                    complete_at[idx] = Some(complete);
                }

                let timings: Vec<CommandTiming> = cmds
                    .iter()
                    .enumerate()
                    .map(|(i, cmd)| CommandTiming {
                        id: cmd.id,
                        issue: issue_at[i].expect("scheduled"),
                        complete: complete_at[i].expect("scheduled"),
                    })
                    .collect();
                breakdown.mac = n_m * slot;
                breakdown.pipeline = makespan - breakdown.total();

                ExecutionReport {
                    timings,
                    summary: ScheduleSummary {
                        cycles: makespan,
                        breakdown,
                        mac_count: n_m,
                        wr_inp_count: n_w,
                        rd_out_count: n_r,
                        row_switches: switches,
                        refresh_events: refresh.events,
                    },
                }
            }
        }
    }

    fn dcs() -> DynamicScheduler {
        DynamicScheduler::new(
            Timing::aimx_no_refresh(),
            Geometry::pimphony(),
            Tracking::PerEntry,
        )
    }

    fn stream_wmr() -> CommandStream {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        s
    }

    #[test]
    fn raw_dependency_enforced() {
        let r = dcs().run(&stream_wmr());
        let t = Timing::aimx_no_refresh();
        // MAC cannot start before the WR-INP completes.
        assert!(r.timings[1].issue >= t.t_wr_inp);
        // RD-OUT cannot issue before the MAC completes.
        assert!(r.timings[2].issue >= r.timings[1].complete);
    }

    #[test]
    fn independent_mac_overlaps_pending_write() {
        // W0 -> gbuf0, M1 reads gbuf0, W2 -> gbuf1: M1 may issue before W2.
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::wr_inp(2, 1, 32));
        let r = dcs().run(&s);
        // W2 is independent of M1, so it issues while M1's data is still
        // being accumulated (out-of-order across queues).
        let m1 = r.timings[1];
        let w2 = r.timings[2];
        assert!(w2.issue < m1.complete || m1.issue < w2.complete);
        // And W2 should not be delayed until M1 completes.
        assert!(w2.issue < m1.complete, "w2 {} m1 {}", w2.issue, m1.complete);
    }

    #[test]
    fn is_mac_fast_path_chains_at_ccds() {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::wr_inp(1, 1, 0));
        s.push(PimCommand::wr_inp(2, 2, 0));
        // M3 opens the row; M4 and M5 then chain on the open row.
        s.push(PimCommand::mac(3, 0, 0, 0, 0));
        s.push(PimCommand::mac(4, 1, 0, 1, 0));
        s.push(PimCommand::mac(5, 2, 0, 2, 0));
        let r = dcs().run(&s);
        let t = Timing::aimx_no_refresh();
        let m4 = r.timings[4];
        let m5 = r.timings[5];
        assert_eq!(m5.issue - m4.issue, t.t_ccds);
    }

    #[test]
    fn dcs_beats_static_on_fig7_style_stream() {
        // Fig. 7(a): 3 inputs, two output groups of 3 MACs each, 2 drains.
        let mut s = CommandStream::new();
        let mut id = 0;
        for e in 0..3u16 {
            s.push(PimCommand::wr_inp(id, e, 0));
            id += 1;
        }
        for col in 0..3u16 {
            s.push(PimCommand::mac(id, col, 0, col, 0));
            id += 1;
        }
        s.push(PimCommand::rd_out(id, 0, 0));
        id += 1;
        for col in 0..3u16 {
            s.push(PimCommand::mac(id, col, 0, 3 + col, 1));
            id += 1;
        }
        s.push(PimCommand::rd_out(id, 1, 0));

        // The paper's Fig. 7 diagram isolates scheduling from activation:
        // the row is treated as already open.
        let t = Timing {
            t_act: 0,
            t_pre: 0,
            ..Timing::aimx_no_refresh()
        };
        let g = Geometry::pimphony();
        let stat = crate::sched::StaticScheduler::new(t).run(&s);
        let dyn_ = DynamicScheduler::new(t, g, Tracking::PerEntry).run(&s);
        assert!(
            dyn_.summary.cycles < stat.summary.cycles,
            "DCS {} should beat static {}",
            dyn_.summary.cycles,
            stat.summary.cycles
        );
        // Paper's example reduces 34 -> 22 cycles (~35%); require >= 25%.
        assert!((dyn_.summary.cycles as f64) <= 0.75 * stat.summary.cycles as f64);
    }

    #[test]
    fn ping_pong_between_static_and_dcs() {
        // Alternating refill/consume pattern over many entries.
        let g = Geometry::pimphony();
        let t = Timing::aimx_no_refresh();
        let mut s = CommandStream::new();
        let mut id = 0;
        // Four passes over the full GBuf so refills conflict with reads.
        for pass in 0..4u32 {
            for e in 0..g.gbuf_entries as u16 {
                s.push(PimCommand::wr_inp(id, e, 0));
                id += 1;
            }
            for e in 0..g.gbuf_entries as u16 {
                s.push(PimCommand::mac(id, e, pass, e % 32, e % 16));
                id += 1;
            }
        }
        let stat = crate::sched::StaticScheduler::new(t).run(&s);
        let pp = DynamicScheduler::new(t, g, Tracking::PerHalf).run(&s);
        let dcs = DynamicScheduler::new(t, g, Tracking::PerEntry).run(&s);
        assert!(
            dcs.summary.cycles <= pp.summary.cycles,
            "dcs {} vs pp {}",
            dcs.summary.cycles,
            pp.summary.cycles
        );
        assert!(
            pp.summary.cycles <= stat.summary.cycles,
            "pp {} vs static {}",
            pp.summary.cycles,
            stat.summary.cycles
        );
    }

    #[test]
    fn war_on_gbuf_entry_blocks_overwrite() {
        // M reads gbuf0; a later W to gbuf0 must wait for the MAC.
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::wr_inp(2, 0, 32));
        let r = dcs().run(&s);
        assert!(r.timings[2].issue >= r.timings[1].complete);
    }

    #[test]
    fn drain_then_reaccumulate_waits_for_drain() {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        s.push(PimCommand::mac(3, 0, 0, 1, 0));
        let r = dcs().run(&s);
        assert!(r.timings[3].issue >= r.timings[2].complete);
    }

    #[test]
    fn timings_in_program_order_by_id() {
        let r = dcs().run(&stream_wmr());
        for w in r.timings.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn bus_never_double_booked() {
        let g = Geometry::pimphony();
        let t = Timing::aimx_no_refresh();
        let mut s = CommandStream::new();
        let mut id = 0;
        for e in 0..8u16 {
            s.push(PimCommand::wr_inp(id, e, 0));
            id += 1;
        }
        for e in 0..8u16 {
            s.push(PimCommand::mac(id, e, 0, e, e % 4));
            id += 1;
        }
        let r = DynamicScheduler::new(t, g, Tracking::PerEntry).run(&s);
        let mut issues: Vec<u64> = r.timings.iter().map(|x| x.issue).collect();
        issues.sort_unstable();
        for w in issues.windows(2) {
            assert!(w[1] - w[0] >= t.t_ccds, "bus spacing violated: {:?}", w);
        }
    }

    /// SplitMix64: a tiny seeded generator for the random streams.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random legal stream: a WR/MAC/RD mix over a random subset of the
    /// GBuf and OBuf entries and a few DRAM rows, so that dependencies,
    /// row hits and ping-pong half hand-offs all occur.
    fn random_stream(rng: &mut SplitMix, g: &Geometry) -> CommandStream {
        let len = 1 + rng.below(1500) as u32;
        let gbuf_used = 1 + rng.below(u64::from(g.gbuf_entries)) as u16;
        let out_used = 1 + rng.below(u64::from(g.out_entries)) as u16;
        let rows = 1 + rng.below(6) as u32;
        // Per-mille weights of WR-INP and RD-OUT; the rest are MACs.
        let (w_weight, r_weight) = (rng.below(500), rng.below(300));
        let mut s = CommandStream::with_capacity(len as usize);
        for _ in 0..len {
            let pick = rng.below(1000);
            let kind = if pick < w_weight {
                CommandKind::WrInp {
                    gbuf_idx: rng.below(u64::from(gbuf_used)) as u16,
                    gpr_addr: 0,
                }
            } else if pick < w_weight + r_weight {
                CommandKind::RdOut {
                    out_idx: rng.below(u64::from(out_used)) as u16,
                    gpr_addr: 0,
                }
            } else {
                CommandKind::Mac {
                    gbuf_idx: rng.below(u64::from(gbuf_used)) as u16,
                    row: rng.below(u64::from(rows)) as u32,
                    col: rng.below(u64::from(g.row_tiles)) as u16,
                    out_idx: rng.below(u64::from(out_used)) as u16,
                }
            };
            s.push_next(kind);
        }
        s
    }

    const TRACKINGS: [Tracking; 2] = [Tracking::PerEntry, Tracking::PerHalf];

    #[test]
    fn matches_oracle_on_random_streams() {
        let mut rng = SplitMix(0x5EED_2026);
        // Reports that exercised refresh and each stall attribution.
        let mut covered = [0u32; 4];
        for case in 0..120 {
            // Random constants make release times tie across buffers and
            // rules (the AiMX ones are all even and mostly equal), and a
            // short refresh interval lands refresh inside most streams.
            let refi = 200 + rng.below(2000);
            let random = Timing {
                t_ccds: 1 + rng.below(3),
                t_wr_inp: 1 + rng.below(12),
                t_mac: 1 + rng.below(12),
                t_rd_out: 1 + rng.below(12),
                t_act: rng.below(30),
                t_pre: rng.below(20),
                t_refi: refi,
                t_rfc: 1 + rng.below(refi / 4),
            };
            for geom in [Geometry::baseline(), Geometry::pimphony()] {
                let stream = random_stream(&mut rng, &geom);
                for timing in [Timing::aimx(), Timing::aimx_no_refresh(), random] {
                    for tracking in TRACKINGS {
                        let got = DynamicScheduler::new(timing, geom, tracking).run(&stream);
                        let want = oracle::Oracle::new(timing, geom, tracking).run(&stream);
                        assert_eq!(got, want, "case {case} {tracking:?} {timing:?} {geom:?}");
                        let b = got.summary.breakdown;
                        for (n, hit) in covered.iter_mut().zip([
                            got.summary.refresh_events > 0,
                            b.dt_gbuf > 0,
                            b.dt_outreg > 0,
                            b.act_pre > 0,
                        ]) {
                            *n += u32::from(hit);
                        }
                    }
                }
            }
        }
        assert!(covered.iter().all(|&n| n >= 10), "coverage {covered:?}");
    }

    /// Random timing constants as `matches_oracle_on_random_streams`
    /// draws them: ties across buffers and rules, and refresh landing
    /// inside most streams.
    fn random_timing(rng: &mut SplitMix) -> Timing {
        let refi = 200 + rng.below(2000);
        Timing {
            t_ccds: 1 + rng.below(3),
            t_wr_inp: 1 + rng.below(12),
            t_mac: 1 + rng.below(12),
            t_rd_out: 1 + rng.below(12),
            t_act: rng.below(30),
            t_pre: rng.below(20),
            t_refi: refi,
            t_rfc: 1 + rng.below(refi / 4),
        }
    }

    #[test]
    fn summarize_matches_schedule_on_random_streams() {
        // The oracle test's seed and draw order: the same streams.
        let mut rng = SplitMix(0x5EED_2026);
        for case in 0..120 {
            let random = random_timing(&mut rng);
            for geom in [Geometry::baseline(), Geometry::pimphony()] {
                let stream = random_stream(&mut rng, &geom);
                for timing in [Timing::aimx(), Timing::aimx_no_refresh(), random] {
                    for kind in crate::SchedulerKind::ALL {
                        let want = crate::schedule(&stream, kind, &timing, &geom).summary;
                        let got = crate::summarize(&stream, kind, &timing, &geom);
                        assert_eq!(got, want, "case {case} {kind} {timing:?} {geom:?}");
                        assert_eq!(got.breakdown.total(), got.cycles, "case {case} {kind}");
                    }
                }
            }
        }
    }

    /// A test source of random items: `MAC` runs of both shapes, from one
    /// `MAC` to more than a row's tiles, that change rows, and `WR-INP`s
    /// and `RD-OUT`s between runs that often touch the entries the last
    /// run used.
    struct RandomRuns(Vec<SourceItem>);

    impl CommandSource for RandomRuns {
        fn emit(&self, mut f: impl FnMut(SourceItem)) {
            self.0.iter().for_each(|&item| f(item));
        }
    }

    impl RandomRuns {
        fn new(rng: &mut SplitMix, g: &Geometry) -> Self {
            let (gbuf, out) = (u64::from(g.gbuf_entries), u64::from(g.out_entries));
            let rows = 1 + rng.below(5) as u32;
            let mut tile = g.tile_cursor(0);
            let mut items = Vec::new();
            // The last run's first and last GBuf and OBuf entries.
            let mut touched = [0u16; 4];
            for _ in 0..1 + rng.below(300) {
                let pick = rng.below(10);
                let entry = |rng: &mut SplitMix, n: u64, near: [u16; 2]| match rng.below(3) {
                    0 => rng.below(n) as u16,
                    i => near[i as usize - 1],
                };
                if pick < 2 {
                    let gbuf_idx = entry(rng, gbuf, [touched[0], touched[1]]);
                    items.push(SourceItem::WrInp {
                        gbuf_idx,
                        gpr_addr: 0,
                    });
                } else if pick < 4 {
                    let out_idx = entry(rng, out, [touched[2], touched[3]]);
                    items.push(SourceItem::RdOut {
                        out_idx,
                        gpr_addr: 0,
                    });
                } else {
                    if rng.below(4) == 0 {
                        let row = rng.below(u64::from(rows));
                        let col = rng.below(u64::from(g.row_tiles));
                        tile = g.tile_cursor(row * u64::from(g.row_tiles) + col);
                    }
                    let (run_gbuf, run_out) = if pick < 7 {
                        // Consecutive tiles into one accumulator, cut where
                        // the row ends, as the builders cut them.
                        let n = 1 + rng.below(gbuf.min(u64::from(g.row_tiles) * 3 / 2 + 2));
                        let g0 = rng.below(gbuf - n + 1) as u16;
                        let o = rng.below(out) as u16;
                        let mut left = n as u32;
                        while left > 0 {
                            let (row, col, len) = tile.take_in_row(left);
                            let g = g0 + (n as u32 - left) as u16;
                            items.push(SourceItem::Macs(MacRun::accumulate(g, row, col, o, len)));
                            left -= len;
                        }
                        ((g0, g0 + n as u16 - 1), (o, o))
                    } else {
                        // One tile over consecutive accumulators.
                        let n = 1 + rng.below(out);
                        let o0 = rng.below(out - n + 1) as u16;
                        // Every entry `g0 + k·stride` stays inside the GBuf.
                        let stride = rng.below((gbuf - 1) / (n - 1).max(1) + 1);
                        let g0 = rng.below(gbuf - stride * (n - 1)) as u16;
                        let (row, col) = tile.row_col();
                        tile.advance();
                        let run = MacRun::fan_out(g0, stride as u16, row, col, o0, n as u32);
                        items.push(SourceItem::Macs(run));
                        let g_last = g0 + (stride * (n - 1)) as u16;
                        ((g0, g_last), (o0, o0 + n as u16 - 1))
                    };
                    touched = [run_gbuf.0, run_gbuf.1, run_out.0, run_out.1];
                }
            }
            RandomRuns(items)
        }

        /// The commands the items stand for, one per `MAC`.
        fn stream(&self) -> CommandStream {
            let mut s = CommandStream::new();
            self.emit(|item| {
                item.for_each_command(|kind| {
                    s.push_next(kind);
                })
            });
            s
        }
    }

    /// Schedules `source` under every scheduler and checks that
    /// `summarize` on its runs equals `schedule` on its commands, and
    /// that each dynamic engine equals the oracle, per-command timings
    /// included. Returns, in [`crate::SchedulerKind::ALL`]'s order, each
    /// scheduler's report and the issue work of its `summarize`.
    fn assert_exact(
        source: &RandomRuns,
        timing: Timing,
        geom: Geometry,
        case: &str,
    ) -> Vec<(crate::SchedulerKind, ExecutionReport, crate::sched::Work)> {
        let stream = source.stream();
        let mut out = Vec::new();
        for kind in crate::SchedulerKind::ALL {
            let got = crate::summarize(source, kind, &timing, &geom);
            let work = crate::sched::WORK.get();
            let want = crate::schedule(&stream, kind, &timing, &geom);
            assert_eq!(got, want.summary, "{case} {kind} {timing:?} {geom:?}");
            assert_eq!(got.breakdown.total(), got.cycles, "{case} {kind}");
            let tracking = match kind {
                crate::SchedulerKind::Static => None,
                crate::SchedulerKind::PingPong => Some(Tracking::PerHalf),
                crate::SchedulerKind::Dcs => Some(Tracking::PerEntry),
            };
            if let Some(tracking) = tracking {
                let oracle = oracle::Oracle::new(timing, geom, tracking).run(&stream);
                assert_eq!(want, oracle, "oracle: {case} {kind}");
            }
            out.push((kind, want, work));
        }
        out
    }

    /// The I/O queue issues in batches while its head is ready strictly
    /// before the compute head's; these two streams pin where a batch
    /// must end and what it must carry.
    #[test]
    fn io_batches_end_where_the_general_step_would() {
        let geom = Geometry::pimphony();
        let wr = |gbuf_idx| SourceItem::WrInp {
            gbuf_idx,
            gpr_addr: 0,
        };
        // A WR-INP that completes as the bus frees releases the blocked
        // compute head exactly when the next WR-INP is ready: the tie
        // goes to compute, so the batch ends after its first command,
        // and only re-reading the head once its producer issued sees it.
        let tie = Timing {
            t_wr_inp: 2,
            t_act: 0,
            t_pre: 0,
            ..Timing::aimx_no_refresh()
        };
        let source = RandomRuns(vec![
            wr(0),
            wr(1),
            SourceItem::Macs(MacRun::accumulate(0, 0, 0, 0, 2)),
            wr(2),
        ]);
        let issues = |results: &[(_, ExecutionReport, _)]| -> Vec<u64> {
            let (_, dcs, _) = results.last().expect("DCS comes last");
            dcs.timings.iter().map(|c| c.issue).collect()
        };
        let issue = issues(&assert_exact(&source, tie, geom, "tie"));
        assert_eq!(issue[2], tie.t_ccds, "the MAC takes the tie");
        assert_eq!(issue[1], 2 * tie.t_ccds);
        // Long writes keep the compute head waiting while a refresh
        // window opens inside the batch.
        let refresh = Timing {
            t_wr_inp: 12,
            t_refi: 7,
            t_rfc: 3,
            ..Timing::aimx()
        };
        let source = RandomRuns(
            (0..6)
                .map(wr)
                .chain([SourceItem::Macs(MacRun::accumulate(0, 0, 0, 0, 6))])
                .collect(),
        );
        let results = assert_exact(&source, refresh, geom, "refresh");
        let issue = issues(&results);
        // The window [7, 10) pushes the fifth WR-INP, ready at 8, to 10;
        // the first MAC, released at 12 as the sixth is ready, takes the
        // tie and ends the batch.
        assert_eq!(issue[4], 10);
        assert_eq!(issue[6], 12);
        assert!(issue[5] > 12);
        assert!(results.iter().all(|(_, r, _)| r.summary.refresh_events > 0));
    }

    #[test]
    fn runs_schedule_exactly_as_their_commands() {
        let mut rng = SplitMix(0x5EED_0025);
        let wide = Geometry {
            row_tiles: 4,
            ..Geometry::pimphony()
        };
        let odd = Geometry {
            banks: 4,
            gbuf_entries: 10,
            out_entries: 3,
            row_tiles: 6,
            elems_per_tile: 4,
        };
        // Schedules in which runs advanced without a general step, and in
        // which they also crossed refresh windows.
        let (mut in_runs, mut refreshed) = (0u32, 0u32);
        for case in 0..150 {
            // A refresh interval of a few cycles lands windows inside
            // runs; `t_CCDS = 0` issues a whole run at once.
            let refi = 3 + rng.below(40);
            let tiny = Timing {
                t_ccds: rng.below(4),
                t_refi: refi,
                t_rfc: 1 + rng.below(refi - 1),
                ..random_timing(&mut rng)
            };
            let random = random_timing(&mut rng);
            for geom in [Geometry::baseline(), Geometry::pimphony(), wide, odd] {
                let source = RandomRuns::new(&mut rng, &geom);
                for timing in [Timing::aimx(), random, tiny] {
                    let results = assert_exact(&source, timing, geom, &format!("case {case}"));
                    for (kind, got, work) in results {
                        if kind == crate::SchedulerKind::Static {
                            continue;
                        }
                        in_runs += u32::from(work.run_macs > 0);
                        refreshed += u32::from(work.run_macs > 0 && got.summary.refresh_events > 0);
                    }
                }
            }
        }
        assert!(in_runs >= 500 && refreshed >= 300, "{in_runs} {refreshed}");
    }

    /// Random items for the walk: accumulate and fan-out runs from one
    /// `MAC` to past a row, accumulate runs that end on the last GBuf
    /// entry or (if `wrap`) run past it, OBuf entries reused across runs,
    /// and `WR-INP`s and `RD-OUT`s between runs on the entries the last
    /// run touched.
    fn walk_items(rng: &mut SplitMix, g: &Geometry, wrap: bool) -> RandomRuns {
        let (gbuf, out) = (u64::from(g.gbuf_entries), u64::from(g.out_entries));
        let row_tiles = u64::from(g.row_tiles);
        let mut items = Vec::new();
        // The last run's first and last GBuf entries and its OBuf entry.
        let mut touched = [0u16; 3];
        for _ in 0..1 + rng.below(200) {
            let near = |rng: &mut SplitMix, n: u64, recent: &[u16]| match rng.below(3) {
                0 => rng.below(n) as u16,
                _ => recent[rng.below(recent.len() as u64) as usize],
            };
            let row = rng.below(4) as u32;
            let col = rng.below(row_tiles) as u16;
            match rng.below(10) {
                0 | 1 => items.push(SourceItem::WrInp {
                    gbuf_idx: near(rng, gbuf, &touched[..2]),
                    gpr_addr: 0,
                }),
                2 | 3 => items.push(SourceItem::RdOut {
                    out_idx: near(rng, out, &touched[2..]),
                    gpr_addr: 0,
                }),
                4..=6 => {
                    let len = 1 + rng.below(gbuf.min(row_tiles + 4)) as u32;
                    let g0 = match rng.below(3) {
                        0 => gbuf - u64::from(len),
                        1 if wrap => gbuf - 1 - rng.below(u64::from(len).min(gbuf)),
                        _ => rng.below(gbuf - u64::from(len) + 1),
                    } as u16;
                    let o = near(rng, out, &touched[2..]);
                    items.push(SourceItem::Macs(MacRun::accumulate(g0, row, col, o, len)));
                    touched = [g0, g0 + len as u16 - 1, o];
                }
                _ => {
                    let len = 1 + rng.below(out);
                    let o0 = rng.below(out - len + 1) as u16;
                    let stride = rng.below((gbuf - 1) / (len - 1).max(1) + 1);
                    let g0 = rng.below(gbuf - stride * (len - 1)) as u16;
                    let run = MacRun::fan_out(g0, stride as u16, row, col, o0, len as u32);
                    items.push(SourceItem::Macs(run));
                    touched = [g0, g0 + (stride * (len - 1)) as u16, o0 + len as u16 - 1];
                }
            }
        }
        RandomRuns(items)
    }

    /// Walks `source` with `table`, returning the filled scratch.
    fn walked(source: &RandomRuns, mut table: impl DTable) -> Scratch {
        let mut scratch = Scratch::default();
        walk(source, &mut scratch, &mut table);
        scratch
    }

    #[test]
    fn per_run_walk_matches_the_per_mac_walk() {
        let mut rng = SplitMix(0x5EED_0031);
        let odd = Geometry {
            banks: 4,
            gbuf_entries: 10,
            out_entries: 3,
            row_tiles: 6,
            elems_per_tile: 4,
        };
        // Accumulate runs the one-pass walk took, and runs that ended on
        // the last GBuf entry.
        let (mut one_pass, mut at_end) = (0u32, 0u32);
        for case in 0..200 {
            for geom in [Geometry::baseline(), Geometry::pimphony(), odd] {
                for tracking in TRACKINGS {
                    let wrap = tracking == Tracking::PerHalf;
                    let source = walk_items(&mut rng, &geom, wrap);
                    let (mut runs, mut per_mac) = match tracking {
                        Tracking::PerEntry => (
                            walked(&source, PerEntryTable::new(&geom)),
                            walked(&source, PerMac(PerEntryTable::new(&geom))),
                        ),
                        Tracking::PerHalf => (
                            walked(&source, PerHalfTable::new(&geom)),
                            walked(&source, PerMac(PerHalfTable::new(&geom))),
                        ),
                    };
                    let label = format!("case {case} {tracking:?} {geom:?}");
                    assert_eq!(runs.io, per_mac.io, "io: {label}");
                    assert_eq!(runs.compute, per_mac.compute, "compute: {label}");
                    assert_eq!(runs.explicit, per_mac.explicit, "explicit: {label}");
                    assert_eq!(runs.release, per_mac.release, "release: {label}");
                    let timing = random_timing(&mut rng);
                    let scheduler = DynamicScheduler::new(timing, geom, tracking);
                    let summary = scheduler.issue(&mut runs);
                    assert_eq!(summary, scheduler.issue(&mut per_mac), "summary: {label}");
                    let oracle = oracle::Oracle::new(timing, geom, tracking);
                    assert_eq!(summary, oracle.run(&source.stream()).summary, "{label}");
                    for item in &source.0 {
                        if let SourceItem::Macs(run) = item {
                            let inside = u32::from(run.gbuf_idx) + run.len <= geom.gbuf_entries;
                            let accumulate = run.out_step == 0 && inside;
                            one_pass += u32::from(accumulate && !wrap);
                            at_end += u32::from(
                                accumulate
                                    && u32::from(run.gbuf_idx) + run.len == geom.gbuf_entries,
                            );
                        }
                    }
                }
            }
        }
        assert!(one_pass >= 10_000 && at_end >= 2_000, "{one_pass} {at_end}");
        // A run past the last GBuf entry is left to the per-MAC walk,
        // with the table untouched.
        let geom = Geometry::pimphony();
        let mut table = PerEntryTable::new(&geom);
        let past = MacRun::accumulate(geom.gbuf_entries as u16 - 1, 0, 0, 0, 2);
        assert_eq!(table.accumulate(0, &past, &mut Vec::new()), None);
        assert!(table
            .gbuf
            .iter()
            .chain(&table.obuf)
            .all(|r| *r == [NO_DEP; 2]));
    }

    #[test]
    fn matches_oracle_on_every_calibration_shape() {
        let timing = Timing::aimx();
        for (label, geom, stream) in crate::kernels::calibration_streams() {
            for tracking in TRACKINGS {
                let got = DynamicScheduler::new(timing, geom, tracking).run(&stream);
                let want = oracle::Oracle::new(timing, geom, tracking).run(&stream);
                assert_eq!(got, want, "{tracking:?} {label}");
            }
        }
    }
}
