//! Intra-module workload partitioning: HFP vs TCP (paper §IV, Fig. 6).
//!
//! Prior PIM systems use **Head-First Partitioning (HFP)**: each
//! (request, KV-head) pair is placed wholly on one channel. With long
//! contexts the number of such pairs shrinks below the channel count and
//! their sizes diverge, so channels idle (Fig. 6(b,c)).
//!
//! **Token-Centric Partitioning (TCP)** instead splits every head's token
//! axis across *all* channels of the module, so channel activity is
//! decoupled from batch size and request-length skew (Fig. 6(d,e)).

use serde::Serialize;

/// Which intra-module partitioning scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Partitioning {
    /// Conventional head/batch-first placement.
    HeadFirst,
    /// PIMphony's token-centric placement.
    TokenCentric,
}

impl Partitioning {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Partitioning::HeadFirst => "HFP",
            Partitioning::TokenCentric => "TCP",
        }
    }
}

impl std::fmt::Display for Partitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Multi-module parallelization setting (paper §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ParallelConfig {
    /// Tensor-parallel ways (heads sharded across modules).
    pub tp: u32,
    /// Pipeline-parallel stages (layers sharded across modules).
    pub pp: u32,
}

impl ParallelConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics if either degree is zero.
    pub fn new(tp: u32, pp: u32) -> Self {
        assert!(tp > 0 && pp > 0, "parallel degrees must be nonzero");
        ParallelConfig { tp, pp }
    }

    /// Modules consumed by one replica (`tp * pp`).
    pub fn modules(&self) -> u32 {
        self.tp * self.pp
    }

    /// All (tp, pp) factorizations of `modules`.
    pub fn factorizations(modules: u32) -> Vec<ParallelConfig> {
        (1..=modules)
            .filter(|tp| modules % tp == 0)
            .map(|tp| ParallelConfig {
                tp,
                pp: modules / tp,
            })
            .collect()
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(TP={}, PP={})", self.tp, self.pp)
    }
}

/// A contiguous token range of one (request, KV-head) pair assigned to a
/// channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RequestSlice {
    /// Request id.
    pub request: u64,
    /// KV-head index within the module.
    pub kv_head: u32,
    /// First token (inclusive).
    pub token_start: u64,
    /// Last token (exclusive).
    pub token_end: u64,
}

impl RequestSlice {
    /// Tokens in the slice.
    pub fn tokens(&self) -> u64 {
        self.token_end - self.token_start
    }
}

/// One channel's assigned work.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ChannelWork {
    /// Assigned slices.
    pub slices: Vec<RequestSlice>,
}

impl ChannelWork {
    /// Total tokens of attention work on this channel.
    pub fn total_tokens(&self) -> u64 {
        self.slices.iter().map(RequestSlice::tokens).sum()
    }
}

/// The full per-channel assignment for one module's attention stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModulePartition {
    scheme: Partitioning,
    channels: Vec<ChannelWork>,
}

impl ModulePartition {
    /// Partitions the attention work of `requests` (id, current tokens)
    /// over `channels` channels for `kv_heads` KV heads resident on this
    /// module.
    ///
    /// # Panics
    /// Panics if `channels` or `kv_heads` is zero.
    pub fn assign(
        scheme: Partitioning,
        channels: u32,
        kv_heads: u32,
        requests: &[(u64, u64)],
    ) -> Self {
        assert!(channels > 0, "channels must be nonzero");
        assert!(kv_heads > 0, "kv_heads must be nonzero");
        let mut work = vec![ChannelWork::default(); channels as usize];
        match scheme {
            Partitioning::HeadFirst => {
                // Place each (request, head) pair wholly on one channel,
                // round-robin.
                let mut ch = 0usize;
                for &(req, tokens) in requests {
                    for head in 0..kv_heads {
                        work[ch].slices.push(RequestSlice {
                            request: req,
                            kv_head: head,
                            token_start: 0,
                            token_end: tokens,
                        });
                        ch = (ch + 1) % channels as usize;
                    }
                }
            }
            Partitioning::TokenCentric => {
                // Split every head's token axis across all channels.
                for &(req, tokens) in requests {
                    for head in 0..kv_heads {
                        let per = tokens.div_ceil(u64::from(channels));
                        for (c, w) in work.iter_mut().enumerate() {
                            let start = (c as u64 * per).min(tokens);
                            let end = ((c as u64 + 1) * per).min(tokens);
                            if start < end {
                                w.slices.push(RequestSlice {
                                    request: req,
                                    kv_head: head,
                                    token_start: start,
                                    token_end: end,
                                });
                            }
                        }
                    }
                }
            }
        }
        ModulePartition {
            scheme,
            channels: work,
        }
    }

    /// The scheme used.
    pub fn scheme(&self) -> Partitioning {
        self.scheme
    }

    /// Per-channel work.
    pub fn channels(&self) -> &[ChannelWork] {
        &self.channels
    }

    /// Per-channel token totals.
    pub fn channel_tokens(&self) -> Vec<u64> {
        self.channels
            .iter()
            .map(ChannelWork::total_tokens)
            .collect()
    }

    /// Channels with any work.
    pub fn active_channels(&self) -> u32 {
        self.channels
            .iter()
            .filter(|c| !c.slices.is_empty())
            .count() as u32
    }

    /// Load balance in `[0, 1]`: mean over max of per-channel tokens —
    /// the module's channel-utilization proxy (1.0 = perfectly balanced,
    /// all channels busy the whole time).
    pub fn balance(&self) -> f64 {
        let tokens = self.channel_tokens();
        let max = tokens.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let mean = tokens.iter().sum::<u64>() as f64 / tokens.len() as f64;
        mean / max as f64
    }

    /// The makespan proxy: tokens on the most loaded channel (the module
    /// finishes when its slowest channel does).
    pub fn makespan_tokens(&self) -> u64 {
        self.channel_tokens().into_iter().max().unwrap_or(0)
    }

    /// Total tokens across channels (invariant: identical for both
    /// schemes on the same input).
    pub fn total_tokens(&self) -> u64 {
        self.channel_tokens().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_activates_all_channels_for_one_request() {
        // The long-context regime: a single request, one head.
        let hfp = ModulePartition::assign(Partitioning::HeadFirst, 16, 1, &[(0, 64_000)]);
        let tcp = ModulePartition::assign(Partitioning::TokenCentric, 16, 1, &[(0, 64_000)]);
        assert_eq!(hfp.active_channels(), 1);
        assert_eq!(tcp.active_channels(), 16);
        assert!(tcp.balance() > 0.99);
        assert!(hfp.balance() < 0.1);
    }

    #[test]
    fn schemes_cover_the_same_work() {
        let reqs = [(0, 10_000), (1, 20_000), (2, 5_000)];
        let hfp = ModulePartition::assign(Partitioning::HeadFirst, 16, 4, &reqs);
        let tcp = ModulePartition::assign(Partitioning::TokenCentric, 16, 4, &reqs);
        assert_eq!(hfp.total_tokens(), tcp.total_tokens());
    }

    #[test]
    fn tcp_covers_tokens_exactly_once() {
        let tcp = ModulePartition::assign(Partitioning::TokenCentric, 16, 2, &[(7, 10_001)]);
        for head in 0..2 {
            let mut covered = vec![false; 10_001];
            for ch in tcp.channels() {
                for s in ch.slices.iter().filter(|s| s.kv_head == head) {
                    for t in s.token_start..s.token_end {
                        assert!(!covered[t as usize], "token {t} covered twice");
                        covered[t as usize] = true;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c),
                "head {head} has uncovered tokens"
            );
        }
    }

    #[test]
    fn hfp_imbalance_grows_with_length_skew() {
        let balanced =
            ModulePartition::assign(Partitioning::HeadFirst, 4, 2, &[(0, 1000), (1, 1000)]);
        let skewed =
            ModulePartition::assign(Partitioning::HeadFirst, 4, 2, &[(0, 1000), (1, 16_000)]);
        assert!(skewed.balance() < balanced.balance());
    }

    #[test]
    fn tcp_balance_insensitive_to_skew() {
        let skewed =
            ModulePartition::assign(Partitioning::TokenCentric, 16, 2, &[(0, 1000), (1, 64_000)]);
        assert!(skewed.balance() > 0.95, "balance {}", skewed.balance());
    }

    #[test]
    fn tcp_makespan_beats_hfp() {
        let reqs = [(0, 32_000), (1, 8_000)];
        let hfp = ModulePartition::assign(Partitioning::HeadFirst, 16, 4, &reqs);
        let tcp = ModulePartition::assign(Partitioning::TokenCentric, 16, 4, &reqs);
        assert!(tcp.makespan_tokens() < hfp.makespan_tokens());
    }

    #[test]
    fn factorizations_enumerate_divisors() {
        let f = ParallelConfig::factorizations(8);
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|c| c.modules() == 8));
    }

    #[test]
    fn tiny_requests_leave_tcp_channels_idle_gracefully() {
        // 5 tokens over 16 channels: only 5 channels get work.
        let tcp = ModulePartition::assign(Partitioning::TokenCentric, 16, 1, &[(0, 5)]);
        assert_eq!(tcp.active_channels(), 5);
        assert_eq!(tcp.total_tokens(), 5);
    }
}
