//! Private-L1 / shared-L2 cache model with an MSI directory.
//!
//! This stands in for the GEMS memory models the paper runs on. The model
//! is a *timing* model only — data always lives in real host memory; the
//! cache tracks which 64-byte lines are resident where, and charges
//! latencies from the [`CostModel`].
//!
//! Why it matters for the reproduction:
//!
//! * **Zero indirection is a cache argument.** The paper's entire case for
//!   storing data in place is that every level of indirection is a
//!   potential cache miss. A simulator without a cache model cannot
//!   reproduce Figures 3/4's relative shapes, because DSTM-style locators
//!   would cost the same as in-place data.
//! * **ATMTP capacity aborts are L1-geometry aborts.** ATMTP limits a
//!   hardware transaction's read set by the size and associativity of the
//!   L1 (§4.1), so the L1 eviction events emitted by [`CacheSystem::access`]
//!   are exactly the signal the best-effort HTM consumes.

use crate::costs::CostModel;
use std::collections::HashMap;

/// log2 of the line size (64-byte lines, as in GEMS defaults).
pub const LINE_SHIFT: u32 = 6;
/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// A cache-line address (byte address >> [`LINE_SHIFT`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Line containing the byte address.
    pub fn of(addr: u64) -> Self {
        LineAddr(addr >> LINE_SHIFT)
    }
}

/// Kind of memory access, as charged by the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write (CAS, fetch-and-or, ...).
    Rmw,
}

impl AccessKind {
    /// Whether this access requires exclusive (M) ownership of the line.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissLevel {
    /// Hit in the local L1.
    L1,
    /// Missed L1, hit the shared L2.
    L2,
    /// Missed both; went to memory.
    Memory,
    /// Line was dirty in a remote L1 — cache-to-cache transfer.
    Remote,
}

/// Result of one access: the latency charged and any line the local L1
/// evicted to make room (at most one, since we insert one line).
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    pub latency: u64,
    pub level: MissLevel,
    /// The (translated) line that was accessed.
    pub line: LineAddr,
    /// Line evicted from the *local* L1, if any.
    pub evicted: Option<LineAddr>,
    /// Whether a remote core lost its only copy (invalidate) — used by the
    /// HTM layer to detect conflicts at line granularity if desired.
    pub invalidated_remote: bool,
}

/// Geometry of one cache level.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's L1 configuration: 256 KB (§4.1), 4-way.
    pub fn paper_l1() -> Self {
        CacheConfig { capacity: 256 * 1024, ways: 4 }
    }

    /// A shared L2 big enough that the working sets of the paper's
    /// benchmarks fit: 8 MB, 8-way.
    pub fn paper_l2() -> Self {
        CacheConfig { capacity: 8 * 1024 * 1024, ways: 8 }
    }

    /// A tiny cache for tests that want to force evictions quickly.
    pub fn tiny(lines: usize, ways: usize) -> Self {
        CacheConfig { capacity: lines as u64 * LINE_BYTES, ways }
    }

    fn sets(&self) -> usize {
        let lines = (self.capacity / LINE_BYTES) as usize;
        (lines / self.ways).max(1)
    }
}

/// One set-associative cache level (timing/tag state only).
#[derive(Debug)]
struct SetAssocCache {
    sets: Vec<Vec<Way>>, // per set, ways ordered MRU-first
    ways: usize,
    set_mask: u64,
}

#[derive(Clone, Copy, Debug)]
struct Way {
    line: LineAddr,
    dirty: bool,
}

impl SetAssocCache {
    fn new(cfg: &CacheConfig) -> Self {
        let n_sets = cfg.sets().next_power_of_two();
        SetAssocCache {
            sets: (0..n_sets).map(|_| Vec::with_capacity(cfg.ways)).collect(),
            ways: cfg.ways,
            set_mask: n_sets as u64 - 1,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// Probe without changing state.
    fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.set_of(line)].iter().any(|w| w.line == line)
    }

    /// Touch a resident line, moving it to MRU; returns true if present.
    fn touch(&mut self, line: LineAddr, write: bool) -> bool {
        let set = self.set_of(line);
        if let Some(pos) = self.sets[set].iter().position(|w| w.line == line) {
            let mut w = self.sets[set].remove(pos);
            w.dirty |= write;
            self.sets[set].insert(0, w);
            true
        } else {
            false
        }
    }

    /// Insert a line at MRU; returns the evicted LRU line if the set was full.
    fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<LineAddr> {
        let set = self.set_of(line);
        debug_assert!(!self.contains(line));
        let evicted = if self.sets[set].len() >= self.ways {
            self.sets[set].pop().map(|w| w.line)
        } else {
            None
        };
        self.sets[set].insert(0, Way { line, dirty });
        evicted
    }

    /// Remove a line if present; returns whether it was dirty.
    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|w| w.line == line)?;
        Some(self.sets[set].remove(pos).dirty)
    }
}

/// Sharer set over cores. The first 64 cores live in one inline word (no
/// allocation — the common machine size); wider machines spill into extra
/// words allocated on first use, so the directory carries no core-count
/// ceiling.
#[derive(Clone, Debug, Default)]
struct SharerSet {
    low: u64,
    high: Vec<u64>,
}

impl SharerSet {
    fn word(&self, i: usize) -> u64 {
        if i == 0 {
            self.low
        } else {
            self.high.get(i - 1).copied().unwrap_or(0)
        }
    }

    fn n_words(&self) -> usize {
        1 + self.high.len()
    }

    fn contains(&self, core: usize) -> bool {
        self.word(core / 64) >> (core % 64) & 1 != 0
    }

    fn insert(&mut self, core: usize) {
        if core < 64 {
            self.low |= 1 << core;
        } else {
            let w = core / 64 - 1;
            if self.high.len() <= w {
                self.high.resize(w + 1, 0);
            }
            self.high[w] |= 1 << (core % 64);
        }
    }

    /// Clear every bit but `core`'s (M-state takeover). Keeps any spill
    /// allocation for reuse.
    fn retain_only(&mut self, core: usize) {
        self.low = 0;
        for w in &mut self.high {
            *w = 0;
        }
        self.insert(core);
    }

    fn remove(&mut self, core: usize) {
        if core < 64 {
            self.low &= !(1 << core);
        } else if let Some(w) = self.high.get_mut(core / 64 - 1) {
            *w &= !(1 << (core % 64));
        }
    }

    /// Cores holding an S copy, excluding `skip`.
    fn others(&self, skip: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_words()).flat_map(move |w| {
            let mut bits = self.word(w);
            if skip / 64 == w {
                bits &= !(1u64 << (skip % 64));
            }
            BitIter(bits).map(move |b| w * 64 + b)
        })
    }

    fn has_others(&self, skip: usize) -> bool {
        self.others(skip).next().is_some()
    }
}

/// Directory entry: which cores hold the line, and whether one holds it
/// modified. MSI: `owner = Some(c)` means core c has the line in M state
/// (and is the only holder); otherwise all cores in `sharers` hold S copies.
#[derive(Clone, Debug, Default)]
struct DirEntry {
    sharers: SharerSet,
    owner: Option<usize>,
}

/// The full cache system: N private L1s, one shared L2, a directory, and
/// counters. Not internally synchronized — the cooperative scheduler
/// guarantees single-threaded access; the caller wraps it in a lock to
/// satisfy `Sync`.
#[derive(Debug)]
pub struct CacheSystem {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    dir: HashMap<LineAddr, DirEntry>,
    costs: CostModel,
    /// Per-core counters: [hits, l2, mem, remote]
    pub stats: Vec<CacheStats>,
}

/// Per-core access counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub mem_accesses: u64,
    pub remote_transfers: u64,
    pub invalidations_received: u64,
}

impl CacheSystem {
    pub fn new(n_cores: usize, l1: CacheConfig, l2: CacheConfig, costs: CostModel) -> Self {
        CacheSystem {
            l1: (0..n_cores).map(|_| SetAssocCache::new(&l1)).collect(),
            l2: SetAssocCache::new(&l2),
            dir: HashMap::new(),
            costs,
            stats: vec![CacheStats::default(); n_cores],
        }
    }

    /// Paper configuration for `n_cores` cores.
    pub fn paper(n_cores: usize, costs: CostModel) -> Self {
        CacheSystem::new(n_cores, CacheConfig::paper_l1(), CacheConfig::paper_l2(), costs)
    }

    pub fn n_cores(&self) -> usize {
        self.l1.len()
    }

    /// Perform one access by `core` to the line containing `addr`.
    ///
    /// Updates tag state, maintains MSI coherence (invalidating remote
    /// copies on writes, downgrading remote M on reads), and returns the
    /// latency plus any local L1 eviction.
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> AccessResult {
        let line = LineAddr::of(addr);
        let write = kind.is_write();
        let mut latency;
        let level;
        let mut invalidated_remote = false;
        let mut evicted = None;

        let entry = self.dir.entry(line).or_default();
        let local_m = entry.owner == Some(core);
        let local_s = entry.sharers.contains(core);

        if self.l1[core].touch(line, write) && (local_m || (local_s && !write)) {
            // L1 hit with sufficient permissions.
            latency = self.costs.l1_hit;
            level = MissLevel::L1;
            if write && !local_m {
                // S -> M upgrade: invalidate other sharers.
                latency += self.costs.remote_transfer;
                if entry.sharers.has_others(core) {
                    invalidated_remote = true;
                    for c in entry.sharers.others(core) {
                        self.l1[c].invalidate(line);
                        self.stats[c].invalidations_received += 1;
                    }
                }
                entry.sharers.retain_only(core);
                entry.owner = Some(core);
            }
        } else {
            // L1 miss (or stale permissions). Make sure the tag is gone
            // before re-inserting.
            self.l1[core].invalidate(line);

            // Where does the data come from?
            if let Some(owner) = entry.owner.filter(|&o| o != core) {
                // Dirty in a remote L1: cache-to-cache transfer.
                latency = self.costs.l2_hit + self.costs.remote_transfer;
                level = MissLevel::Remote;
                self.stats[core].remote_transfers += 1;
                if write {
                    self.l1[owner].invalidate(line);
                    self.stats[owner].invalidations_received += 1;
                    invalidated_remote = true;
                    entry.sharers.retain_only(core);
                    entry.owner = Some(core);
                } else {
                    // Downgrade remote M to S; both now share.
                    entry.owner = None;
                    entry.sharers.insert(core);
                    // L2 picks up the (conceptually written-back) line.
                    if !self.l2.touch(line, true) {
                        self.l2.insert(line, true);
                    }
                }
            } else if self.l2.touch(line, false) {
                latency = self.costs.l2_hit;
                level = MissLevel::L2;
                self.stats[core].l2_hits += 1;
                if write {
                    if entry.sharers.has_others(core) {
                        invalidated_remote = true;
                        latency += self.costs.remote_transfer;
                        for c in entry.sharers.others(core) {
                            self.l1[c].invalidate(line);
                            self.stats[c].invalidations_received += 1;
                        }
                    }
                    entry.sharers.retain_only(core);
                    entry.owner = Some(core);
                } else {
                    entry.sharers.insert(core);
                }
            } else {
                latency = self.costs.memory;
                level = MissLevel::Memory;
                self.stats[core].mem_accesses += 1;
                self.l2.insert(line, false);
                if write {
                    entry.sharers.retain_only(core);
                    entry.owner = Some(core);
                } else {
                    entry.sharers.insert(core);
                }
            }

            evicted = self.l1[core].insert(line, write);
            if let Some(ev) = evicted {
                // Evicted line leaves this core's domain.
                if let Some(e) = self.dir.get_mut(&ev) {
                    e.sharers.remove(core);
                    if e.owner == Some(core) {
                        e.owner = None;
                        // Dirty writeback lands in L2.
                        if !self.l2.touch(ev, true) {
                            self.l2.insert(ev, true);
                        }
                    }
                }
            }
        }

        if matches!(kind, AccessKind::Rmw) {
            latency += self.costs.cas;
        }
        if level == MissLevel::L1 {
            self.stats[core].l1_hits += 1;
        }

        AccessResult { latency, level, line, evicted, invalidated_remote }
    }

    /// Cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }
}

/// Iterate over set bits of a mask.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize, l1_lines: usize, ways: usize) -> CacheSystem {
        CacheSystem::new(
            cores,
            CacheConfig::tiny(l1_lines, ways),
            CacheConfig::tiny(1024, 8),
            CostModel::default(),
        )
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut s = sys(1, 16, 4);
        let r1 = s.access(0, 0x1000, AccessKind::Read);
        assert_eq!(r1.level, MissLevel::Memory);
        let r2 = s.access(0, 0x1000, AccessKind::Read);
        assert_eq!(r2.level, MissLevel::L1);
        assert!(r2.latency < r1.latency);
    }

    #[test]
    fn same_line_different_words_hit() {
        let mut s = sys(1, 16, 4);
        s.access(0, 0x1000, AccessKind::Read);
        let r = s.access(0, 0x1008, AccessKind::Read);
        assert_eq!(r.level, MissLevel::L1);
    }

    #[test]
    fn write_invalidates_remote_sharer() {
        let mut s = sys(2, 16, 4);
        s.access(0, 0x1000, AccessKind::Read);
        s.access(1, 0x1000, AccessKind::Read);
        let r = s.access(0, 0x1000, AccessKind::Write);
        assert!(r.invalidated_remote);
        // Core 1 now misses.
        let r1 = s.access(1, 0x1000, AccessKind::Read);
        assert_ne!(r1.level, MissLevel::L1);
        assert_eq!(s.stats[1].invalidations_received, 1);
    }

    #[test]
    fn remote_dirty_line_is_a_remote_transfer() {
        let mut s = sys(2, 16, 4);
        s.access(0, 0x2000, AccessKind::Write);
        let r = s.access(1, 0x2000, AccessKind::Read);
        assert_eq!(r.level, MissLevel::Remote);
    }

    #[test]
    fn eviction_reported_when_set_overflows() {
        // 4 lines, 2 ways => 2 sets. Lines with the same set index collide.
        let mut s = sys(1, 4, 2);
        // set index = line & 1. Use even lines only: 0x0, 0x80, 0x100 -> set 0.
        s.access(0, 0x000, AccessKind::Read);
        s.access(0, 0x080, AccessKind::Read);
        let r = s.access(0, 0x100, AccessKind::Read);
        assert_eq!(r.evicted, Some(LineAddr::of(0x000)));
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut s = sys(1, 4, 2);
        s.access(0, 0x000, AccessKind::Read);
        s.access(0, 0x080, AccessKind::Read);
        s.access(0, 0x000, AccessKind::Read); // touch 0x000 -> MRU
        let r = s.access(0, 0x100, AccessKind::Read);
        assert_eq!(r.evicted, Some(LineAddr::of(0x080)));
    }

    #[test]
    fn rmw_costs_more_than_read() {
        let mut s = sys(1, 16, 4);
        s.access(0, 0x1000, AccessKind::Write);
        let read = s.access(0, 0x1000, AccessKind::Read).latency;
        let rmw = s.access(0, 0x1000, AccessKind::Rmw).latency;
        assert!(rmw > read);
    }

    #[test]
    fn read_after_remote_write_downgrades_owner() {
        let mut s = sys(2, 16, 4);
        s.access(0, 0x3000, AccessKind::Write);
        s.access(1, 0x3000, AccessKind::Read);
        // Now both share; core 0 read should still hit locally.
        let r = s.access(0, 0x3000, AccessKind::Read);
        assert_eq!(r.level, MissLevel::L1);
        // But a write by core 0 must upgrade (invalidate core 1).
        let w = s.access(0, 0x3000, AccessKind::Write);
        assert!(w.invalidated_remote);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut s = sys(1, 4, 2);
        s.access(0, 0x000, AccessKind::Read);
        s.access(0, 0x080, AccessKind::Read);
        s.access(0, 0x100, AccessKind::Read); // evicts 0x000 from L1
        let r = s.access(0, 0x000, AccessKind::Read);
        assert_eq!(r.level, MissLevel::L2);
    }

    #[test]
    fn eviction_clears_directory_state() {
        let mut s = sys(1, 4, 2);
        s.access(0, 0x000, AccessKind::Write); // M state
        s.access(0, 0x080, AccessKind::Read);
        s.access(0, 0x100, AccessKind::Read); // evicts 0x000 (dirty)
        // Refetch must come from L2, not appear as local M.
        let r = s.access(0, 0x000, AccessKind::Read);
        assert_eq!(r.level, MissLevel::L2);
    }

    #[test]
    fn directory_scales_past_64_cores() {
        let mut s = sys(70, 16, 4);
        s.access(3, 0x1000, AccessKind::Read);
        s.access(68, 0x1000, AccessKind::Read);
        let w = s.access(69, 0x1000, AccessKind::Write);
        assert!(w.invalidated_remote, "spill-word sharers are found and invalidated");
        assert_eq!(s.stats[3].invalidations_received, 1);
        assert_eq!(s.stats[68].invalidations_received, 1);
        // Writer 69 now holds M; core 68 refetches via cache-to-cache.
        let r = s.access(68, 0x1000, AccessKind::Read);
        assert_eq!(r.level, MissLevel::Remote);
    }

    #[test]
    fn sharer_set_inline_and_spill_words() {
        let mut m = SharerSet::default();
        for c in [0usize, 63, 64, 65, 130] {
            assert!(!m.contains(c));
            m.insert(c);
            assert!(m.contains(c));
        }
        let others: Vec<usize> = m.others(64).collect();
        assert_eq!(others, vec![0, 63, 65, 130]);
        assert!(m.has_others(64));
        m.remove(130);
        m.remove(0);
        assert!(!m.contains(130));
        m.retain_only(65);
        assert!(m.contains(65));
        assert!(!m.has_others(65));
    }

    #[test]
    fn bit_iter_enumerates_bits() {
        let v: Vec<usize> = BitIter(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
    }

    #[test]
    fn paper_l1_geometry() {
        let cfg = CacheConfig::paper_l1();
        assert_eq!(cfg.capacity, 262_144);
        assert_eq!(cfg.sets(), 1024);
    }
}
