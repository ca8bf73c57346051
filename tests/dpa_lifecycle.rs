//! The DPA lifecycle (paper §VI-C): the host allocates a request's KV
//! chunks lazily as decode grows its context, and the DPA-encoded
//! attention program follows the current token length without being
//! recompiled. Module-level TCP attention stays correct as the KV grows.

use pimphony::pim_compiler::lower::{lower_attention_dpa, AttentionLowering};
use pimphony::pim_mem::{ChunkAllocator, RequestId};
use pimphony::pim_sim::epu::Epu;
use pimphony::pim_sim::module::PimModule;
use pimphony::pim_sim::Geometry;

/// Rows of KV data one chunk holds in this test's geometry.
const ROWS_PER_CHUNK: u64 = 8;
/// Tokens covered per DRAM row (channel-tile granularity for the test).
const TOKENS_PER_ROW: u64 = 256;
const CHUNK_BYTES: u64 = 1 << 20;

fn kv_bytes(tokens: u64) -> u64 {
    tokens.div_ceil(TOKENS_PER_ROW) * CHUNK_BYTES / ROWS_PER_CHUNK
}

#[test]
fn decode_grows_lazily_without_host_chatter() {
    let program = lower_attention_dpa(&AttentionLowering::aimx_default());
    let stored = program.stored_len();
    let mut allocator = ChunkAllocator::new(64 * CHUNK_BYTES, CHUNK_BYTES);

    // Admission: register the request and map the prompt's chunks.
    let id = RequestId(7);
    let prompt = 10_000u64;
    allocator.register(id).expect("fresh request");
    let maps = allocator.grow(id, kv_bytes(prompt)).expect("fits");
    assert_eq!(maps.len() as u64, kv_bytes(prompt).div_ceil(CHUNK_BYTES));

    // Decode 2048 tokens: the host maps new chunks only when a chunk
    // boundary is crossed, never per step.
    let mut host_msgs = 0u64;
    let mut prev_len = program.expand(prompt).len();
    for t in prompt + 1..=prompt + 2048 {
        let have = allocator.chunks_of(id).expect("registered").len() as u64;
        let needed = kv_bytes(t).div_ceil(CHUNK_BYTES);
        let new_maps = allocator.grow(id, kv_bytes(t)).expect("capacity");
        assert_eq!(new_maps.len() as u64, needed - have, "t={t}");
        // Virtual indices continue where the mapping left off.
        for (k, &(vc, _)) in new_maps.iter().enumerate() {
            assert_eq!(vc, have + k as u64);
        }
        host_msgs += u64::from(!new_maps.is_empty());
        // The stored program is fixed; its expansion tracks T_cur.
        let len = program.expand(t).len();
        assert!(len >= prev_len, "t={t}");
        prev_len = len;
        assert_eq!(program.stored_len(), stored);
    }
    let crossed = kv_bytes(prompt + 2048).div_ceil(CHUNK_BYTES) - maps.len() as u64;
    assert_eq!(host_msgs, crossed);
    assert!(host_msgs < 8, "host chatter too high: {host_msgs}");
    assert!(prev_len > program.expand(prompt).len());

    // Release returns every chunk.
    allocator.release(id).expect("registered");
    assert_eq!(allocator.free_chunks(), allocator.total_chunks());
    assert_eq!(allocator.registered(), 0);
}

#[test]
fn module_attention_consumes_growing_kv() {
    // TCP module-level attention stays correct as the KV grows mid-decode.
    let geom = Geometry {
        banks: 4,
        gbuf_entries: 8,
        out_entries: 2,
        row_tiles: 8,
        elems_per_tile: 4,
    };
    let module = PimModule::new(4, geom);
    let epu = Epu::default();
    let head_dim = 8usize;
    let key = |t: usize, d: usize| ((t * 3 + d) % 7) as f32 * 0.2 - 0.4;
    let val = |t: usize, d: usize| ((t + d * 2) % 5) as f32 * 0.3 - 0.6;
    let query: Vec<f32> = (0..head_dim).map(|d| d as f32 * 0.25 - 0.5).collect();

    let mut prev_entropyish = f32::INFINITY;
    for tokens in [8usize, 16, 24] {
        let keys: Vec<Vec<f32>> = (0..tokens)
            .map(|t| (0..head_dim).map(|d| key(t, d)).collect())
            .collect();
        let values: Vec<Vec<f32>> = (0..tokens)
            .map(|t| (0..head_dim).map(|d| val(t, d)).collect())
            .collect();
        let out = module.attention_head(&keys, &values, std::slice::from_ref(&query), 0.5);
        // Probabilities stay a distribution at every length...
        let sum: f32 = out.probabilities[0].iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "tokens={tokens}");
        // ...and the peak probability can only fall as mass spreads.
        let peak = out.probabilities[0].iter().copied().fold(0.0f32, f32::max);
        assert!(peak <= prev_entropyish + 1e-4);
        prev_entropyish = peak;
        // EPU reduction agrees with a direct sum over channel partials.
        let direct = epu.reduce_partials(&[out.outputs[0].clone()]);
        assert_eq!(direct, out.outputs[0]);
    }
}
