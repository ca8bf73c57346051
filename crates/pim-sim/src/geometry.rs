//! Physical geometry of one PIM channel.

use serde::{Deserialize, Serialize};

/// Static shape parameters of a PIM channel (paper §II-B, §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Banks per channel, each with a 16-lane MAC unit.
    pub banks: u32,
    /// Global Buffer capacity in 32 B tile entries (2 KB => 64).
    pub gbuf_entries: u32,
    /// Output register/buffer entries. The conventional AiM design exposes
    /// 4 B per bank (= 2 fp16 accumulator entries); PIMphony's I/O-aware
    /// buffering expands this into a multi-entry Output Buffer.
    pub out_entries: u32,
    /// Tiles per DRAM row per bank (1 KB row / 32 B tile => 32).
    pub row_tiles: u32,
    /// fp16 elements per 32 B tile.
    pub elems_per_tile: u32,
}

impl Geometry {
    /// Conventional AiM channel: 16 banks, 64-entry GBuf, 2-entry OutRegs.
    pub fn baseline() -> Self {
        Geometry {
            banks: 16,
            gbuf_entries: 64,
            out_entries: 2,
            row_tiles: 32,
            elems_per_tile: 16,
        }
    }

    /// PIMphony channel with expanded Output Buffers (16 entries).
    pub fn pimphony() -> Self {
        Geometry {
            out_entries: 16,
            ..Self::baseline()
        }
    }

    /// Bytes per tile (32 B for 16 fp16 lanes).
    pub fn tile_bytes(&self) -> u32 {
        self.elems_per_tile * 2
    }

    /// Peak MAC lanes in the channel (`banks * elems_per_tile`).
    pub fn mac_lanes(&self) -> u32 {
        self.banks * self.elems_per_tile
    }

    /// Maps a linear per-bank tile index to `(row, col)`.
    pub fn tile_to_row_col(&self, tile_index: u64) -> (u32, u16) {
        self.tile_cursor(tile_index).row_col()
    }

    /// A cursor at `tile_index` that walks the following tile indices
    /// without dividing (see [`TileCursor`]).
    pub(crate) fn tile_cursor(&self, tile_index: u64) -> TileCursor {
        let row = (tile_index / u64::from(self.row_tiles)) as u32;
        let col = (tile_index % u64::from(self.row_tiles)) as u32;
        TileCursor {
            row,
            col,
            row_tiles: self.row_tiles,
        }
    }
}

/// The `(row, col)` of a linear tile index, stepped one index at a time.
///
/// The kernel builders walk runs of consecutive tiles; a cursor seeded
/// once per run with [`Geometry::tile_cursor`] yields exactly what
/// [`Geometry::tile_to_row_col`] gives for each index of the run, with
/// an increment and a compare per step instead of a 64-bit divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileCursor {
    row: u32,
    col: u32,
    row_tiles: u32,
}

impl TileCursor {
    /// The current `(row, col)`.
    #[inline(always)]
    pub(crate) fn row_col(&self) -> (u32, u16) {
        (self.row, self.col as u16)
    }

    /// Moves to the next tile index: the next column, or the first column
    /// of the next row. The row wraps as `tile_to_row_col`'s cast does.
    #[inline(always)]
    pub(crate) fn advance(&mut self) {
        self.col += 1;
        if self.col == self.row_tiles {
            self.col = 0;
            self.row = self.row.wrapping_add(1);
        }
    }

    /// Takes the next tiles up to `n`, stopping at the end of the current
    /// row: returns the first one's `(row, col)` and how many were taken,
    /// and moves past them. The segment is what `advance` would walk
    /// through before the row changes.
    #[inline(always)]
    pub(crate) fn take_in_row(&mut self, n: u32) -> (u32, u16, u32) {
        let len = n.min(self.row_tiles - self.col);
        let (row, col) = self.row_col();
        self.col += len;
        if self.col == self.row_tiles {
            self.col = 0;
            self.row = self.row.wrapping_add(1);
        }
        (row, col, len)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_aim_spec() {
        let g = Geometry::baseline();
        assert_eq!(g.banks, 16);
        // 2 KB GBuf of 32 B tiles.
        assert_eq!(g.gbuf_entries * g.tile_bytes(), 2048);
        assert_eq!(g.out_entries, 2);
    }

    #[test]
    fn pimphony_expands_out_buffers_only() {
        let b = Geometry::baseline();
        let p = Geometry::pimphony();
        assert!(p.out_entries > b.out_entries);
        assert_eq!(p.gbuf_entries, b.gbuf_entries);
        assert_eq!(p.banks, b.banks);
    }

    #[test]
    fn tile_row_col_round_trip() {
        let g = Geometry::baseline();
        assert_eq!(g.tile_to_row_col(0), (0, 0));
        assert_eq!(g.tile_to_row_col(31), (0, 31));
        assert_eq!(g.tile_to_row_col(32), (1, 0));
        assert_eq!(g.tile_to_row_col(100), (3, 4));
    }

    #[test]
    fn cursor_walks_like_tile_to_row_col() {
        for row_tiles in [1, 6, 32] {
            let g = Geometry {
                row_tiles,
                ..Geometry::baseline()
            };
            for seed in [0, 5, 31, 32, 95] {
                let mut cursor = g.tile_cursor(seed);
                for i in seed..seed + 200 {
                    assert_eq!(cursor.row_col(), g.tile_to_row_col(i), "{row_tiles} {i}");
                    cursor.advance();
                }
            }
        }
    }

    #[test]
    fn row_segments_walk_like_the_cursor() {
        for row_tiles in [1, 6, 32] {
            let g = Geometry {
                row_tiles,
                ..Geometry::baseline()
            };
            for seed in [0, 5, 31, 32, 95] {
                for take in [1, 5, 6, 7, 32, 40] {
                    let (mut segments, mut cursor) = (g.tile_cursor(seed), g.tile_cursor(seed));
                    let mut left = 200;
                    while left > 0 {
                        let (row, col, len) = segments.take_in_row(take.min(left));
                        assert!(len > 0 && u32::from(col) + len <= row_tiles);
                        for i in 0..len as u16 {
                            assert_eq!(cursor.row_col(), (row, col + i), "{row_tiles} {seed}");
                            cursor.advance();
                        }
                        assert_eq!(segments, cursor);
                        left -= len;
                    }
                }
            }
        }
    }

    #[test]
    fn mac_lanes_product() {
        assert_eq!(Geometry::baseline().mac_lanes(), 256);
    }
}
