//! Per-structure miss attribution.
//!
//! The cache model answers "how many misses"; this module answers "on
//! **which structure**". STM code tags the synthetic address ranges it
//! allocates (registry slots, object headers, object data,
//! word buffers, ...) and, when a [`Machine`](crate::Machine) has
//! attribution armed, every charged access is classified against those
//! ranges and counted per class. The result is the simulator-side half of
//! the sim-vs-native cross-check: the same ranking (`misses per
//! structure`) can be compared against native hardware counters or
//! engine-level access statistics.
//!
//! Tagging is **off by default** — `tag_synth_range` is a no-op until
//! [`arm_ranges`] runs — so ordinary tests and benches pay nothing for
//! it. Arm it *before* constructing the structures you want attributed:
//! synthetic addresses are never recycled, so a range registered once
//! stays valid for the life of the process.

use crate::cache::{AccessKind, AccessResult, MissLevel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which shared structure a synthetic address range belongs to.
///
/// The classes mirror the hot shared structures of the NZTM protocol
/// (§2.2's object metadata and §2.2.1's visible-reader machinery), plus
/// the buffers the engine moves data through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructClass {
    /// Always 0: nothing allocates in this class since the reader
    /// indicator became one bitmap word in the object header. Kept
    /// because the repo benchmark reports `sim.miss.reader_stripes_per_op`
    /// and iterates [`StructClass::ALL`]; it goes with the next change to
    /// the benchmark.
    ReaderStripes,
    /// Thread-registry slots (registry.rs).
    RegistrySlots,
    /// NZObject header lines: owner/backup/readers/version words, plus
    /// whatever data words share the first cache line (the paper's
    /// zero-indirection collocation).
    ObjHeaders,
    /// NZObject data words past the first (header) line.
    ObjData,
    /// WordBuf backing stores (backup copies, txn write buffers).
    WordBufs,
    /// Transaction descriptors.
    TxnDescs,
    /// DSTM-style locator blocks (inflated-object path).
    Locators,
    /// Anything not explicitly tagged (HTM/DSTM substrate words, host
    /// addresses, untagged allocations).
    Other,
}

impl StructClass {
    /// Number of classes (array dimension for per-class tables).
    pub const COUNT: usize = 8;

    /// Every class, in a stable report order.
    pub const ALL: [StructClass; Self::COUNT] = [
        StructClass::ReaderStripes,
        StructClass::RegistrySlots,
        StructClass::ObjHeaders,
        StructClass::ObjData,
        StructClass::WordBufs,
        StructClass::TxnDescs,
        StructClass::Locators,
        StructClass::Other,
    ];

    /// Dense index in `0..COUNT`.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).unwrap()
    }

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StructClass::ReaderStripes => "reader_stripes",
            StructClass::RegistrySlots => "registry_slots",
            StructClass::ObjHeaders => "obj_headers",
            StructClass::ObjData => "obj_data",
            StructClass::WordBufs => "word_bufs",
            StructClass::TxnDescs => "txn_descs",
            StructClass::Locators => "locators",
            StructClass::Other => "other",
        }
    }
}

/// Per-class access counters, filled in by the machine when attribution
/// is armed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    pub accesses: u64,
    pub writes: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub mem_accesses: u64,
    /// Cache-to-cache transfers (line was dirty in a remote L1) — the
    /// coherence-bounce signal.
    pub remote_transfers: u64,
    /// Accesses by this class that invalidated a remote copy.
    pub invalidating_writes: u64,
}

impl ClassStats {
    /// Everything that left the local L1.
    pub fn misses(&self) -> u64 {
        self.l2_hits + self.mem_accesses + self.remote_transfers
    }

    /// Coherence traffic: transfers received plus invalidations caused.
    pub fn coherence(&self) -> u64 {
        self.remote_transfers + self.invalidating_writes
    }

    pub(crate) fn record(&mut self, kind: AccessKind, res: &AccessResult) {
        self.accesses += 1;
        if kind.is_write() {
            self.writes += 1;
        }
        match res.level {
            MissLevel::L1 => self.l1_hits += 1,
            MissLevel::L2 => self.l2_hits += 1,
            MissLevel::Memory => self.mem_accesses += 1,
            MissLevel::Remote => self.remote_transfers += 1,
        }
        if res.invalidated_remote {
            self.invalidating_writes += 1;
        }
    }
}

/// Process-global registry of tagged synthetic byte ranges, kept sorted
/// by range start and pairwise disjoint. Synthetic addresses are
/// monotonically allocated and never recycled (see
/// `platform::synth_alloc`), so distinct allocations never overlap; when
/// a caller deliberately re-tags a sub-range, the newer tag wins — the
/// overlapped parts of older tags are clipped away at insert.
static RANGES: Mutex<Vec<(u64, u64, StructClass)>> = Mutex::new(Vec::new());
static ARMED: AtomicBool = AtomicBool::new(false);

/// Start recording tagged ranges. Call before constructing the engine /
/// objects you want attributed; structures built earlier classify as
/// [`StructClass::Other`].
pub fn arm_ranges() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Whether [`arm_ranges`] has run.
pub fn ranges_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Tag `[addr, addr + bytes)` as belonging to `class`. No-op until
/// [`arm_ranges`]. Sub-ranges may be re-tagged (e.g. an object's first
/// line as headers, the rest as data): the newest tag wins, clipping the
/// overlapped parts of older tags.
pub fn tag_synth_range(addr: usize, bytes: usize, class: StructClass) {
    if !ranges_armed() {
        return;
    }
    let start = addr as u64;
    let end = start + bytes.max(1) as u64;
    let mut v = RANGES.lock().unwrap();
    // Disjoint + sorted by start implies sorted by end, so the first
    // range ending after `start` is where overlap can begin.
    let mut i = v.partition_point(|r| r.1 <= start);
    while i < v.len() && v[i].0 < end {
        let (s, e, c) = v.remove(i);
        if s < start {
            v.insert(i, (s, start, c));
            i += 1;
        }
        if e > end {
            v.insert(i, (end, e, c));
            i += 1;
        }
    }
    let pos = v.partition_point(|r| r.0 < start);
    v.insert(pos, (start, end, class));
}

/// [`synth_alloc`](crate::synth_alloc) plus a [`tag_synth_range`] for the
/// whole block.
pub fn synth_alloc_as(bytes: usize, class: StructClass) -> usize {
    let a = crate::platform::synth_alloc(bytes);
    tag_synth_range(a, bytes, class);
    a
}

/// Classify a byte address against the tagged ranges. Addresses outside
/// every tagged range (including host heap addresses) are
/// [`StructClass::Other`].
pub fn classify(addr: usize) -> StructClass {
    let a = addr as u64;
    let v = RANGES.lock().unwrap();
    let pos = v.partition_point(|r| r.0 <= a);
    if pos > 0 {
        let (s, e, c) = v[pos - 1];
        if a >= s && a < e {
            return c;
        }
    }
    StructClass::Other
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, c) in StructClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(StructClass::Other.index(), StructClass::COUNT - 1);
    }

    #[test]
    fn tagged_ranges_classify_and_subranges_win() {
        arm_ranges();
        let base = synth_alloc_as(256, StructClass::ObjData);
        // Re-tag the first line as headers: closest-start rule prefers it.
        tag_synth_range(base, 64, StructClass::ObjHeaders);
        assert_eq!(classify(base), StructClass::ObjHeaders);
        assert_eq!(classify(base + 63), StructClass::ObjHeaders);
        assert_eq!(classify(base + 64), StructClass::ObjData);
        assert_eq!(classify(base + 255), StructClass::ObjData);
        assert_eq!(classify(base + 256), StructClass::Other);
        // Host-heap-like addresses never match the synthetic ranges.
        assert_eq!(classify(0x7f00_0000_0000), StructClass::Other);
    }

    #[test]
    fn class_stats_bucket_by_level() {
        use crate::cache::{AccessResult, LineAddr};
        let mut s = ClassStats::default();
        let res = |level, inv| AccessResult {
            latency: 1,
            level,
            line: LineAddr(0),
            evicted: None,
            invalidated_remote: inv,
        };
        s.record(AccessKind::Read, &res(MissLevel::L1, false));
        s.record(AccessKind::Write, &res(MissLevel::Remote, true));
        s.record(AccessKind::Rmw, &res(MissLevel::Memory, false));
        assert_eq!(s.accesses, 3);
        assert_eq!(s.writes, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.remote_transfers, 1);
        assert_eq!(s.mem_accesses, 1);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.invalidating_writes, 1);
        assert_eq!(s.coherence(), 2);
    }
}
