//! Cycle cost model.
//!
//! The paper reports throughput in simulated machine cycles (Simics/GEMS).
//! We use a flat, GEMS-flavoured cost model: a handful of latencies chosen
//! to match the relative magnitudes that drive the paper's effects — the
//! gap between an L1 hit and a coherence miss is what makes "zero
//! indirection" matter, and the CAS latency is what makes per-object
//! acquisition visible.

/// Latencies (in cycles) charged by the simulator.
///
/// Defaults approximate the single-issue in-order SPARC model used by the
/// LogTM-SE / ATMTP evaluations: 1 cycle per instruction, small L1, large
/// penalty to reach the shared L2 and main memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency (includes the L1 miss).
    pub l2_hit: u64,
    /// Memory latency (includes the L1 and L2 misses).
    pub memory: u64,
    /// Extra latency for a coherence transfer (line dirty in a remote L1).
    pub remote_transfer: u64,
    /// Latency of a compare-and-swap / atomic RMW over and above the
    /// underlying memory access.
    pub cas: u64,
    /// Fixed cost of starting a hardware transaction (checkpoint).
    pub htm_begin: u64,
    /// Fixed cost of committing a hardware transaction (write-buffer drain
    /// is charged per store separately).
    pub htm_commit: u64,
    /// Cost of draining one store-buffer entry at HTM commit.
    pub htm_commit_per_store: u64,
    /// Cost of a hardware-transaction abort (pipeline flush + restart).
    pub htm_abort: u64,
    /// Per-word cost of the LogTM software abort handler's undo-log unroll.
    pub logtm_unroll_per_word: u64,
    /// Context-switch penalty charged to a context when it receives the
    /// execution token on an oversubscribed machine (more contexts than
    /// `hw_cores`): register/TLB state swap plus cold-ish L1 on re-entry.
    /// Never charged on dedicated machines (`hw_cores == 0`).
    pub ctx_switch: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            l1_hit: 1,
            l2_hit: 20,
            memory: 200,
            remote_transfer: 60,
            cas: 30,
            htm_begin: 10,
            htm_commit: 10,
            htm_commit_per_store: 1,
            htm_abort: 50,
            logtm_unroll_per_word: 4,
            ctx_switch: 1000,
        }
    }
}

impl CostModel {
    /// A cost model where every access costs one cycle; useful in tests
    /// where only interleaving (not timing) matters.
    pub fn uniform() -> Self {
        CostModel {
            l1_hit: 1,
            l2_hit: 1,
            memory: 1,
            remote_transfer: 0,
            cas: 1,
            htm_begin: 1,
            htm_commit: 1,
            htm_commit_per_store: 0,
            htm_abort: 1,
            logtm_unroll_per_word: 1,
            ctx_switch: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_are_ordered() {
        let c = CostModel::default();
        assert!(c.l1_hit < c.l2_hit);
        assert!(c.l2_hit < c.memory);
        assert!(c.cas > c.l1_hit, "CAS must cost more than a plain hit");
    }

    #[test]
    fn uniform_is_flat() {
        let c = CostModel::uniform();
        assert_eq!(c.l1_hit, c.memory);
    }
}
