//! Execution statistics.
//!
//! The paper's §4.4 claims are mostly *statistics* claims — "less than 1%
//! of NZTM transactions abort", "about 19% of linkedlist's transactions
//! abort", "no actual object inflation was observed", "75% of all
//! transactions run successfully in hardware". Every counter needed to
//! regenerate those claims is collected here, per thread (no cross-thread
//! contention on counters), and merged after a run.
//!
//! Counters live in per-thread [`ThreadStats`] cells: each counter is an
//! `AtomicU64` that only its owning thread writes (a plain
//! load-add-store, never an atomic RMW, so the increment compiles to the
//! same unlocked add a `u64 += 1` would). Because the cells are atomics,
//! any thread may *read* them at any time — [`crate::TmSys::stats_snapshot`]
//! merges a consistent-enough view mid-run without the quiescence
//! requirement that `reset_stats` keeps.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread counters, merged into a run-wide [`TmStats`] report.
///
/// The struct shape is unconditional, but the *hot-path* counters (reads,
/// acquires, pool traffic, SCSS stores, wait steps, conflicts, descriptor
/// allocation) are only incremented when the `stats` cargo feature is on —
/// tier-1 builds keep it on (default), while a bench profile can build
/// `--no-default-features` to strip even those per-access increments.
/// Lifecycle counters (commits, aborts, inflations, HTM outcomes) are
/// always maintained: harnesses and retry policies consume them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts whose own `AbortNowPlease` was set by a peer.
    pub aborts_requested: u64,
    /// Aborted attempts decided by the local contention manager.
    pub aborts_self: u64,
    /// Aborted attempts due to commit-time validation (invisible reads).
    pub aborts_validation: u64,
    /// Explicit user aborts.
    pub aborts_explicit: u64,
    /// Software attempts unwound by a doomed hardware transaction
    /// (hybrid NZTM; see [`crate::txn::AbortCause::Htm`]). Distinct from
    /// `htm_aborts`, which counts the *hardware attempts* themselves.
    pub aborts_htm: u64,
    /// Aborted attempts whose NOrec value validation found a changed
    /// value (see [`crate::txn::AbortCause::ValueValidation`]).
    pub aborts_value_validation: u64,
    /// NOrec validation passes (full read-log value scans).
    pub norec_validations: u64,
    /// NOrec snapshot extensions (validation passes that moved the
    /// snapshot forward rather than merely confirming it).
    pub norec_extensions: u64,
    /// Abort requests this thread sent to peers.
    pub abort_requests_sent: u64,
    /// Conflict-wait spin steps taken.
    pub wait_steps: u64,
    /// Conflicts encountered (any resolution).
    pub conflicts: u64,
    /// Objects inflated by this thread (NZSTM only).
    pub inflations: u64,
    /// Objects deflated by this thread (NZSTM only).
    pub deflations: u64,
    /// Transactional object reads.
    pub reads: u64,
    /// Transactional object write-acquisitions.
    pub acquires: u64,
    /// Backup buffers taken from the thread-local pool (cache-warm reuse).
    pub backup_reused: u64,
    /// Backup buffers freshly allocated.
    pub backup_alloc: u64,
    /// Transaction descriptors heap-allocated (one per attempt).
    pub descriptor_alloc: u64,
    /// SCSS-wrapped stores executed.
    pub scss_stores: u64,
    /// SCSS stores that failed (own AbortNowPlease observed).
    pub scss_failures: u64,
    /// Hardware-path statistics (hybrid NZTM): committed in HTM.
    pub htm_commits: u64,
    /// Hardware transaction aborts, total.
    pub htm_aborts: u64,
    /// Hardware aborts attributed to coherence conflicts (CPS).
    pub htm_conflict_aborts: u64,
    /// Hardware aborts attributed to capacity/resource exhaustion (CPS).
    pub htm_capacity_aborts: u64,
    /// Hardware aborts the transaction requested itself (§2.4's
    /// self-abort on observing a live software transaction; `xabort` on
    /// the native RTM path).
    pub htm_explicit_aborts: u64,
    /// Hardware aborts for other reasons (TLB miss, interrupt, ...).
    pub htm_other_aborts: u64,
    /// Transactions that fell back to the software path.
    pub fallbacks: u64,
    /// Always 0: no contention manager escalates objects. Kept only
    /// because the repo benchmark's per-layer report still reads it; it
    /// goes with that report's `cm.escalations` row.
    pub cm_escalations: u64,
    /// Logical transactions that experienced ≥1 abort before committing
    /// — the paper's "X% of transactions abort" metric (per-transaction,
    /// not per-attempt).
    pub txns_with_aborts: u64,
    /// ADT-level operation descriptors published via
    /// [`crate::TmSys::note_adt_op`] (transactional data structures
    /// announcing logical operations, e.g. map insert / queue dequeue).
    pub adt_ops: u64,
}

impl TmStats {
    /// Total aborted attempts — the sum over every [`crate::AbortCause`]
    /// counter, kept exhaustive so no cause can leak out of the total.
    pub fn aborts(&self) -> u64 {
        self.aborts_requested
            + self.aborts_self
            + self.aborts_validation
            + self.aborts_explicit
            + self.aborts_htm
            + self.aborts_value_validation
    }

    /// Total attempts (commits + aborts).
    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts()
    }

    /// Fraction of attempts that aborted. Zero when nothing ran.
    pub fn abort_rate(&self) -> f64 {
        let a = self.attempts();
        if a == 0 {
            0.0
        } else {
            self.aborts() as f64 / a as f64
        }
    }

    /// Fraction of *logical transactions* that experienced at least one
    /// abort (the paper's "X% of transactions abort" metric).
    pub fn txn_abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.txns_with_aborts as f64 / self.commits as f64
        }
    }

    /// Fraction of *committed* transactions that committed on the hardware
    /// path (§4.4.2's "75% of all transactions run successfully in
    /// hardware").
    pub fn htm_commit_share(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.htm_commits as f64 / self.commits as f64
        }
    }

    /// Merge another thread's counters into this one.
    pub fn merge(&mut self, other: &TmStats) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => { $( self.$f += other.$f; )* };
        }
        add!(
            commits,
            aborts_requested,
            aborts_self,
            aborts_validation,
            aborts_explicit,
            aborts_htm,
            aborts_value_validation,
            norec_validations,
            norec_extensions,
            abort_requests_sent,
            wait_steps,
            conflicts,
            inflations,
            deflations,
            reads,
            acquires,
            backup_reused,
            backup_alloc,
            descriptor_alloc,
            scss_stores,
            scss_failures,
            htm_commits,
            htm_aborts,
            htm_conflict_aborts,
            htm_capacity_aborts,
            htm_explicit_aborts,
            htm_other_aborts,
            fallbacks,
            txns_with_aborts,
            adt_ops,
        );
    }
}

/// A single-writer statistics counter.
///
/// Exactly one thread (the owner) may call [`Counter::bump`]/[`Counter::add`];
/// any thread may call [`Counter::get`]. The increment is a relaxed
/// load + store rather than `fetch_add`, which the owner-only contract
/// makes exact and which compiles to an ordinary unlocked add — keeping
/// the hot path as cheap as the plain `u64` it replaces.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Owner-only: add one.
    #[inline(always)]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Owner-only: add `n`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed);
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// Any thread: read the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter. Increments racing with a reset may be lost;
    /// call only while the owner is quiescent if exactness matters.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

macro_rules! for_each_stat {
    ($m:ident) => {
        $m!(
            commits,
            aborts_requested,
            aborts_self,
            aborts_validation,
            aborts_explicit,
            aborts_htm,
            aborts_value_validation,
            norec_validations,
            norec_extensions,
            abort_requests_sent,
            wait_steps,
            conflicts,
            inflations,
            deflations,
            reads,
            acquires,
            backup_reused,
            backup_alloc,
            descriptor_alloc,
            scss_stores,
            scss_failures,
            htm_commits,
            htm_aborts,
            htm_conflict_aborts,
            htm_capacity_aborts,
            htm_explicit_aborts,
            htm_other_aborts,
            fallbacks,
            txns_with_aborts,
            adt_ops,
        );
    };
}

/// One thread's live counters (same fields as [`TmStats`]).
///
/// The owning thread bumps; any thread snapshots via [`ThreadStats::load`].
/// Cache-line aligned so two threads' cells never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ThreadStats {
    pub commits: Counter,
    pub aborts_requested: Counter,
    pub aborts_self: Counter,
    pub aborts_validation: Counter,
    pub aborts_explicit: Counter,
    pub aborts_htm: Counter,
    pub aborts_value_validation: Counter,
    pub norec_validations: Counter,
    pub norec_extensions: Counter,
    pub abort_requests_sent: Counter,
    pub wait_steps: Counter,
    pub conflicts: Counter,
    pub inflations: Counter,
    pub deflations: Counter,
    pub reads: Counter,
    pub acquires: Counter,
    pub backup_reused: Counter,
    pub backup_alloc: Counter,
    pub descriptor_alloc: Counter,
    pub scss_stores: Counter,
    pub scss_failures: Counter,
    pub htm_commits: Counter,
    pub htm_aborts: Counter,
    pub htm_conflict_aborts: Counter,
    pub htm_capacity_aborts: Counter,
    pub htm_explicit_aborts: Counter,
    pub htm_other_aborts: Counter,
    pub fallbacks: Counter,
    pub txns_with_aborts: Counter,
    pub adt_ops: Counter,
}

impl ThreadStats {
    /// Snapshot the live counters into a plain [`TmStats`] report. Safe
    /// to call from any thread at any time.
    pub fn load(&self) -> TmStats {
        let mut out = TmStats::default();
        macro_rules! read {
            ($($f:ident),* $(,)?) => { $( out.$f = self.$f.get(); )* };
        }
        for_each_stat!(read);
        out
    }

    /// Zero every counter. Exact only while the owning thread is
    /// quiescent — see [`Counter::reset`].
    pub fn reset(&self) {
        macro_rules! zero {
            ($($f:ident),* $(,)?) => { $( self.$f.reset(); )* };
        }
        for_each_stat!(zero);
    }

    /// Merge the per-thread cells of `threads` into one report. Safe to
    /// call from any thread at any time.
    pub fn merge_all<'a>(threads: impl IntoIterator<Item = &'a ThreadStats>) -> TmStats {
        let mut out = TmStats::default();
        for t in threads {
            out.merge(&t.load());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_of_empty_is_zero() {
        assert_eq!(TmStats::default().abort_rate(), 0.0);
    }

    #[test]
    fn abort_rate_counts_all_causes() {
        let s = TmStats {
            commits: 80,
            aborts_requested: 10,
            aborts_self: 5,
            aborts_validation: 3,
            aborts_explicit: 2,
            ..Default::default()
        };
        assert_eq!(s.aborts(), 20);
        assert_eq!(s.attempts(), 100);
        assert!((s.abort_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = TmStats { commits: 1, inflations: 2, ..Default::default() };
        let b = TmStats { commits: 3, inflations: 4, htm_commits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.commits, 4);
        assert_eq!(a.inflations, 6);
        assert_eq!(a.htm_commits, 5);
    }

    #[test]
    fn htm_share() {
        let s = TmStats { commits: 4, htm_commits: 3, ..Default::default() };
        assert!((s.htm_commit_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn thread_stats_round_trip_and_reset() {
        let t = ThreadStats::default();
        t.commits.bump();
        t.commits.bump();
        t.reads.add(7);
        let snap = t.load();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.reads, 7);
        t.reset();
        assert_eq!(t.load(), TmStats::default());
    }

    #[test]
    fn merge_all_sums_threads() {
        let a = ThreadStats::default();
        let b = ThreadStats::default();
        a.commits.bump();
        b.commits.add(3);
        b.inflations.bump();
        let m = ThreadStats::merge_all([&a, &b]);
        assert_eq!(m.commits, 4);
        assert_eq!(m.inflations, 1);
    }
}
