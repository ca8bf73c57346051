//! Stable digests of simulator outputs.
//!
//! The simulator is deterministic, so its reports are compared exactly.
//! A digest is FNV-1a (64-bit) over each report's `Debug` rendering,
//! which prints every float in its shortest round-trip form: two reports
//! share a rendering exactly when every field is bit-identical (NaN
//! payloads aside, which no report carries). FNV-1a is fixed by its
//! constants, so a digest pinned in this crate means the same thing on
//! every machine and toolchain.

use system::ServingReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a (64-bit) of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Digest of an ordered list of reports. Each rendering is followed by
/// a newline, so moving a field across a report boundary changes it.
pub fn reports_digest(reports: &[ServingReport]) -> u64 {
    reports.iter().fold(FNV_OFFSET, |state, r| {
        fnv1a(fnv1a(state, format!("{r:?}").as_bytes()), b"\n")
    })
}
