//! NZTM: the hybrid TM (§2.4).
//!
//! "Like the HyTM system presented by Damron et al., NZTM attempts
//! transactions using HTM and if (repeatedly) unsuccessful, transactions
//! are run using NZSTM software transactions."
//!
//! The hardware path operates on the **same `NZObject`s** as the
//! software path — that is the point of zero indirection: a hardware
//! transaction reads the collocated owner word (adding its line to the
//! transaction's conflict set), applies the §2.4 checks from
//! [`nztm_core::hybrid::hw_examine_and_clean`] (abort on live software
//! ownership/readers; repair settled owners: restore, deflate, NULL),
//! and then accesses the data in place with no copying.
//!
//! Retry policy (§4.3): "NZTM retries the transaction in hardware a
//! number of times proportional to the total number of running threads,
//! only if the reason for aborting was ... a transactional (coherence)
//! conflict as determined by the CPS register. After all attempts are
//! exhausted, or if the reason ... was something other than a coherence
//! conflict, NZTM falls back onto NZSTM."
//!
//! The hybrid is generic over the best-effort HTM
//! ([`crate::backend::HtmBackend`]): the simulated ATMTP model
//! ([`BestEffortHtm`], the default) and the native x86_64 RTM backend
//! (`htm-native` feature) share this retry policy, the §2.4 conflict
//! checks, the statistics, and the flight-recorder events verbatim.

use crate::backend::{HtmBackend, HtmTxnOps, HwAbort};
use crate::besteffort::BestEffortHtm;
use crate::cps::CpsReason;
use nztm_core::data::TmData;
use nztm_core::hybrid::{hw_examine_and_clean, HwCheck};
use nztm_core::stats::{ThreadStats, TmStats};
use nztm_core::trace::Trace;
use nztm_core::txn::{Abort, AbortCause};
use nztm_core::{NZObject, NzTx, Nzstm, ReadMode, TmSys};
use nztm_sim::{AccessKind, Platform, SimPlatform};
use std::sync::Arc;

/// Hybrid tuning.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Hardware retries = `retries_factor × n_threads` (§4.3's
    /// "proportional to the total number of running threads").
    pub retries_factor: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { retries_factor: 1 }
    }
}

/// Word scratch sized so the common object fits on the stack: a heap
/// allocation inside a *native* hardware transaction would fault or
/// syscall and abort it (the simulated model doesn't care), so data
/// copies for objects up to this many words must not allocate.
const SCRATCH_WORDS: usize = 16;

/// The NZTM hybrid system, generic over the platform and the
/// best-effort HTM backend. Defaults reproduce the paper's simulated
/// configuration, so existing call sites keep working unchanged.
pub struct NztmHybrid<P: Platform = SimPlatform, H: HtmBackend = BestEffortHtm> {
    stm: Arc<Nzstm<P>>,
    htm: Arc<H>,
    platform: Arc<P>,
    cfg: HybridConfig,
    /// Hardware-path counters, one cache-line-isolated cell per core;
    /// single-writer atomics, so snapshots need no quiescence.
    stats: Box<[ThreadStats]>,
    /// Flight-recorder rings for hardware-path events (the software
    /// fallback records into the embedded STM's own rings).
    #[cfg(feature = "trace")]
    rings: nztm_core::util::PerCore<nztm_core::trace::TraceRing>,
    #[cfg(feature = "trace")]
    trace_on: std::sync::atomic::AtomicBool,
}

impl<P: Platform, H: HtmBackend> NztmHybrid<P, H> {
    /// Build a hybrid over an NZSTM software path and a best-effort HTM.
    /// The STM must use visible reads (the §2.4 reader checks rely on
    /// the reader bitmap).
    pub fn new(stm: Arc<Nzstm<P>>, htm: Arc<H>, cfg: HybridConfig) -> Arc<Self> {
        assert_visible_reads(stm.read_mode());
        let platform = Arc::clone(stm.platform());
        let n = platform.n_cores();
        #[cfg(feature = "trace")]
        let trace_on = std::sync::atomic::AtomicBool::new(stm.tracing_enabled());
        Arc::new(NztmHybrid {
            stm,
            htm,
            platform,
            cfg,
            stats: (0..n).map(|_| ThreadStats::default()).collect(),
            #[cfg(feature = "trace")]
            rings: nztm_core::util::PerCore::new(n, |_| {
                nztm_core::trace::TraceRing::new(1 << 16)
            }),
            #[cfg(feature = "trace")]
            trace_on,
        })
    }

    /// Record a hardware-path flight-recorder event (no-op without the
    /// `trace` feature or while disarmed).
    #[cfg(feature = "trace")]
    fn trace_hw(&self, core: usize, kind: nztm_core::trace::EventKind, a: u64, b: u64) {
        if self.trace_on.load(std::sync::atomic::Ordering::Relaxed) {
            let clock = self.platform.now();
            // Safety: `core` is the calling thread's own core id
            // (single-writer ring).
            let ring = unsafe { self.rings.get(core) };
            ring.record(clock, core as u16, kind, a, b);
        }
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn trace_hw(&self, _core: usize, _kind: nztm_core::trace::EventKind, _a: u64, _b: u64) {}

    pub fn stm(&self) -> &Arc<Nzstm<P>> {
        &self.stm
    }

    pub fn htm(&self) -> &Arc<H> {
        &self.htm
    }

    fn hw_read_obj<T: TmData>(
        &self,
        hw: &mut H::Txn,
        core: usize,
        obj: &Arc<NZObject<T>>,
    ) -> Result<T, HwAbort> {
        let h = obj.header();
        // The metadata line joins the hardware read set: any later
        // software acquisition (a CAS on the owner word) dooms us.
        hw.track_read(h.addr(), 8)?;
        let guard = nztm_epoch::pin();
        match hw_examine_and_clean(h, obj.data_words(), false, core, &guard) {
            HwCheck::Clean => {}
            HwCheck::ConflictWithSoftware => return Err(hw.explicit_abort()),
        }
        // If the examine step repaired the object (restore/deflate), the
        // repair stores are ordinary coherence traffic; charge them so
        // other cores' transactions observe the conflict.
        // (The repairs are idempotent and only touch settled state, so
        // they are safe to publish even if we later abort.)
        let n = T::n_words();
        let mut inline = [0u64; SCRATCH_WORDS];
        let mut heap;
        let buf: &mut [u64] = if n <= SCRATCH_WORDS {
            &mut inline[..n]
        } else {
            // Oversized object: the allocation will typically abort a
            // native hardware transaction (→ software fallback); on the
            // simulated model it is free.
            heap = vec![0u64; n];
            &mut heap
        };
        for (i, w) in obj.data_words().iter().enumerate() {
            buf[i] = hw.read_word(w, obj.data_addr() + i * 8)?;
        }
        Ok(T::decode(buf))
    }

    fn hw_write_obj<T: TmData>(
        &self,
        hw: &mut H::Txn,
        core: usize,
        obj: &Arc<NZObject<T>>,
        v: &T,
    ) -> Result<(), HwAbort> {
        let h = obj.header();
        hw.track_write(h.addr(), 8)?;
        let guard = nztm_epoch::pin();
        match hw_examine_and_clean(h, obj.data_words(), true, core, &guard) {
            HwCheck::Clean => {}
            HwCheck::ConflictWithSoftware => return Err(hw.explicit_abort()),
        }
        let n = T::n_words();
        let mut inline = [0u64; SCRATCH_WORDS];
        let mut heap;
        let buf: &mut [u64] = if n <= SCRATCH_WORDS {
            &mut inline[..n]
        } else {
            heap = vec![0u64; n];
            &mut heap
        };
        v.encode(buf);
        for (i, w) in obj.data_words().iter().enumerate() {
            hw.buffered_store(w, obj.data_addr() + i * 8, buf[i])?;
        }
        Ok(())
    }
}

/// A hybrid transaction: hardware attempt or software fallback.
pub enum HybridTx<'a, P: Platform = SimPlatform, H: HtmBackend = BestEffortHtm> {
    Hw { sys: &'a NztmHybrid<P, H>, hw: &'a mut H::Txn, core: usize },
    Sw { sys: &'a NztmHybrid<P, H>, tx: &'a mut NzTx<P, nztm_core::Nonblocking> },
}

impl<P: Platform, H: HtmBackend> TmSys for NztmHybrid<P, H> {
    type Obj<T: TmData> = Arc<NZObject<T>>;
    type Tx<'t> = HybridTx<'t, P, H>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        self.stm.new_obj(init)
    }

    fn peek<T: TmData>(obj: &Self::Obj<T>) -> T {
        obj.read_untracked()
    }

    fn execute<R>(&self, mut f: impl FnMut(&mut Self::Tx<'_>) -> Result<R, Abort>) -> R {
        let core = self.platform.core_id();
        // When hardware attempts cannot succeed (native backend on a
        // host without RTM, or the native path forced off by policy),
        // go straight to the software path — and don't count it as a
        // fallback, because nothing fell.
        let max_hw = if self.htm.hw_available() {
            self.cfg.retries_factor * self.platform.n_cores()
        } else {
            0
        };
        let stats = &self.stats[core];

        let mut attempts = 0u64;
        while (attempts as usize) < max_hw {
            attempts += 1;
            self.trace_hw(core, nztm_core::trace::EventKind::HtmAttempt, attempts - 1, 0);
            // Hold the epoch pin *across* the hardware attempt: `pin()`
            // is re-entrant, so the inner pins taken by the §2.4 checks
            // inside the transaction are a thread-local depth bump —
            // no SeqCst participant publication inside a native RTM
            // region (such a store would join the write set and turn
            // every concurrent epoch advance into a spurious abort).
            let outer_pin = nztm_epoch::pin();
            let outcome = self.htm.attempt(|hw| {
                let mut tx = HybridTx::Hw { sys: self, hw, core };
                match f(&mut tx) {
                    Ok(v) => Ok(v),
                    Err(_) => Err(HwAbort),
                }
            });
            drop(outer_pin);
            match outcome {
                Ok(v) => {
                    stats.commits.bump();
                    stats.htm_commits.bump();
                    if attempts > 1 {
                        stats.txns_with_aborts.bump();
                    }
                    self.trace_hw(core, nztm_core::trace::EventKind::HtmCommit, attempts - 1, 0);
                    return v;
                }
                Err(info) => {
                    stats.htm_aborts.bump();
                    let cps_class = match info.reason {
                        CpsReason::Conflict => {
                            stats.htm_conflict_aborts.bump();
                            0u64
                        }
                        CpsReason::Capacity => {
                            stats.htm_capacity_aborts.bump();
                            1
                        }
                        CpsReason::Other => {
                            stats.htm_other_aborts.bump();
                            2
                        }
                        CpsReason::Explicit => {
                            stats.htm_explicit_aborts.bump();
                            3
                        }
                    };
                    // Pack the backend's raw status word (native RTM
                    // abort status; 0 on the simulated model) above the
                    // CPS class so the flight recorder carries both.
                    let b = cps_class | ((info.raw_status as u64) << 8);
                    self.trace_hw(core, nztm_core::trace::EventKind::HtmAbort, attempts - 1, b);
                    if !info.reason.hw_retry_worthwhile() {
                        break;
                    }
                }
            }
        }

        // Software fallback: this logical transaction aborted in hardware
        // at least once. With the hardware loop skipped entirely
        // (`max_hw == 0`) this is the primary path, not a fallback.
        if attempts > 0 {
            stats.fallbacks.bump();
            self.trace_hw(core, nztm_core::trace::EventKind::HtmFallback, attempts, 0);
        }
        let mut sw_attempts = 0u64;
        let r = self.stm.run(|tx| {
            sw_attempts += 1;
            let mut htx = HybridTx::Sw { sys: self, tx };
            f(&mut htx)
        });
        // One logical transaction counts once in `txns_with_aborts`. The
        // embedded STM counts it when one of its own attempts aborted;
        // a fallback that committed at its first software attempt is
        // counted here.
        if attempts > 0 && sw_attempts == 1 {
            stats.txns_with_aborts.bump();
        }
        r
    }

    fn read<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>) -> Result<T, Abort> {
        match tx {
            HybridTx::Hw { sys, hw, core } => sys
                .hw_read_obj(hw, *core, obj)
                .map_err(|HwAbort| Abort(AbortCause::Htm)),
            HybridTx::Sw { tx, .. } => tx.read(obj),
        }
    }

    fn write<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>, v: &T) -> Result<(), Abort> {
        match tx {
            HybridTx::Hw { sys, hw, core } => sys
                .hw_write_obj(hw, *core, obj, v)
                .map_err(|HwAbort| Abort(AbortCause::Htm)),
            HybridTx::Sw { tx, .. } => tx.write(obj, v),
        }
    }

    fn note_adt_op(tx: &mut Self::Tx<'_>, desc: nztm_core::adt::AdtOpDesc) {
        match tx {
            // Hardware attempts have no software descriptor; count the
            // announcement on the hybrid's own per-core cell (the trace
            // event would be torn on a hardware abort, so stats only).
            HybridTx::Hw { sys, core, .. } => {
                #[cfg(feature = "stats")]
                sys.stats[*core].adt_ops.bump();
                #[cfg(not(feature = "stats"))]
                let _ = (sys, core);
                let _ = desc;
            }
            HybridTx::Sw { tx, .. } => tx.note_adt_op(desc),
        }
    }

    fn stats_snapshot(&self) -> TmStats {
        // Hardware-path counters live here; software-path commits/aborts
        // come from the embedded STM.
        let mut total = ThreadStats::merge_all(self.stats.iter());
        total.merge(&self.stm.stats_snapshot());
        total
    }

    fn reset_stats(&self) {
        for s in self.stats.iter() {
            s.reset();
        }
        self.stm.reset_stats();
    }

    fn set_tracing(&self, on: bool) {
        #[cfg(feature = "trace")]
        self.trace_on.store(on, std::sync::atomic::Ordering::Relaxed);
        self.stm.set_tracing(on);
    }

    fn take_trace(&self) -> Trace {
        let mut trace = self.stm.take_trace();
        #[cfg(feature = "trace")]
        for core in 0..self.platform.n_cores() {
            // Safety: quiescent-only contract of `take_trace` — no core is
            // running transactions while we drain.
            let ring = unsafe { self.rings.get(core) };
            trace.overwritten += ring.drain_into(&mut trace.events);
        }
        trace.sort();
        trace
    }

    fn name(&self) -> &'static str {
        "NZTM"
    }
}

/// Assert the configuration invariant at construction sites.
pub fn assert_visible_reads(read_mode: ReadMode) {
    assert_eq!(
        read_mode,
        ReadMode::Visible,
        "NZTM's hardware path requires visible software readers (§2.4)"
    );
}

// Suppress the unused-import lint for AccessKind (used in doc examples).
const _: Option<AccessKind> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::besteffort::AtmtpConfig;
    use nztm_core::cm::KarmaDeadlock;
    use nztm_core::NzConfig;
    use nztm_sim::{CacheConfig, CostModel, Machine, MachineConfig};

    fn setup(cores: usize) -> (Arc<Machine>, Arc<SimPlatform>, Arc<NztmHybrid>) {
        let m = Machine::new(MachineConfig {
            n_cores: cores,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(1024, 4),
            l2: CacheConfig::tiny(8192, 8),
            max_cycles: 2_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let stm = Nzstm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig::default(),
        );
        let htm = BestEffortHtm::new(
            Arc::clone(&p),
            AtmtpConfig { spurious_num: 0, ..AtmtpConfig::default() },
        );
        htm.install();
        let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
        (m, p, hy)
    }

    #[test]
    fn uncontended_transactions_commit_in_hardware() {
        let (m, _p, hy) = setup(1);
        let o = hy.alloc(10u64);
        let (h2, o2) = (Arc::clone(&hy), Arc::clone(&o));
        m.run(vec![Box::new(move || {
            for _ in 0..50 {
                h2.execute(|tx| {
                    let v = NztmHybrid::read(tx, &o2)?;
                    NztmHybrid::write(tx, &o2, &(v + 1))
                });
            }
        })]);
        assert_eq!(o.read_untracked(), 60);
        let st = hy.stats_snapshot();
        assert_eq!(st.htm_commits, 50, "all hardware, no fallback: {st:?}");
        assert_eq!(st.fallbacks, 0);
        hy.htm().uninstall();
    }

    #[test]
    fn concurrent_increments_conserve() {
        let (m, _p, hy) = setup(4);
        let o = hy.alloc(0u64);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|_| {
                let hy = Arc::clone(&hy);
                let o = Arc::clone(&o);
                Box::new(move || {
                    for _ in 0..100 {
                        hy.execute(|tx| {
                            let v = NztmHybrid::read(tx, &o)?;
                            NztmHybrid::write(tx, &o, &(v + 1))
                        });
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        assert_eq!(o.read_untracked(), 400);
        let st = hy.stats_snapshot();
        assert_eq!(st.commits, 400);
        hy.htm().uninstall();
    }

    #[test]
    fn capacity_overflow_falls_back_to_software() {
        let (m, p, _) = setup(1);
        let stm = Nzstm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig::default(),
        );
        let htm = BestEffortHtm::new(
            Arc::clone(&p),
            AtmtpConfig { store_buffer_entries: 8, spurious_num: 0, ..AtmtpConfig::default() },
        );
        htm.install();
        let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
        let objs: Arc<Vec<_>> = Arc::new((0..32).map(|i| hy.alloc(i as u64)).collect());
        let (h2, o2) = (Arc::clone(&hy), Arc::clone(&objs));
        m.run(vec![Box::new(move || {
            h2.execute(|tx| {
                for o in o2.iter() {
                    let v = NztmHybrid::read(tx, o)?;
                    NztmHybrid::write(tx, o, &(v + 1))?;
                }
                Ok(())
            });
        })]);
        let st = hy.stats_snapshot();
        assert_eq!(st.fallbacks, 1, "store-buffer overflow must fall back: {st:?}");
        assert!(st.htm_capacity_aborts >= 1);
        assert_eq!(objs[31].read_untracked(), 32);
        hy.htm().uninstall();
    }

    #[test]
    fn native_htm_knob_does_not_perturb_the_simulated_engine() {
        // Conformance for the `NativeHtmPolicy` builder knob: on the
        // deterministic simulator the knob is carried but never
        // consulted (it only selects the backend on native builds), so
        // a hybrid built with the native path forced off must replay
        // bit-identically — same final state, same full stats — as one
        // built with the default policy.
        use nztm_core::NativeHtmPolicy;
        let run = |policy: NativeHtmPolicy| {
            let m = Machine::new(MachineConfig {
                n_cores: 2,
                hw_cores: 0,
                costs: CostModel::default(),
                l1: CacheConfig::tiny(1024, 4),
                l2: CacheConfig::tiny(8192, 8),
                max_cycles: 2_000_000_000,
            });
            let p = SimPlatform::new(Arc::clone(&m));
            let stm = Nzstm::new(
                Arc::clone(&p),
                Arc::new(KarmaDeadlock::default()),
                NzConfig { native_htm: policy, ..NzConfig::default() },
            );
            assert_eq!(stm.native_htm_policy(), policy);
            let htm = BestEffortHtm::new(
                Arc::clone(&p),
                AtmtpConfig { spurious_num: 0, ..AtmtpConfig::default() },
            );
            htm.install();
            let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
            let o = hy.alloc(0u64);
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    let hy = Arc::clone(&hy);
                    let o = Arc::clone(&o);
                    Box::new(move || {
                        for _ in 0..80 {
                            hy.execute(|tx| {
                                let v = NztmHybrid::read(tx, &o)?;
                                NztmHybrid::write(tx, &o, &(v + 1))
                            });
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            m.run(bodies);
            let st = hy.stats_snapshot();
            let v = o.read_untracked();
            hy.htm().uninstall();
            (v, st)
        };
        let (v_def, st_def) = run(NativeHtmPolicy::Auto);
        let (v_off, st_off) = run(NativeHtmPolicy::ForceOff);
        assert_eq!(v_def, 160);
        assert_eq!(v_off, v_def);
        assert_eq!(st_off, st_def, "knob must be inert on the simulator");
    }

    #[test]
    fn explicit_self_aborts_are_counted_separately() {
        // An object owned by a *live* software transaction triggers the
        // §2.4 self-abort, which must land in htm_explicit_aborts (not
        // the conflict counter) while staying retry-worthwhile.
        use nztm_core::TxnDesc;
        let (m, _p, hy) = setup(1);
        let o = hy.alloc(7u64);
        let live = Arc::new(TxnDesc::new(0, 1));
        {
            let g = nztm_epoch::pin();
            assert!(o.header().cas_owner_to_txn(0, &live, &g));
        }
        let (h2, o2, live2) = (Arc::clone(&hy), Arc::clone(&o), Arc::clone(&live));
        m.run(vec![Box::new(move || {
            let mut first = true;
            let v = h2.execute(|tx| {
                if first {
                    first = false;
                } else {
                    // Unblock the retry (hardware or software fallback —
                    // one core means a single-attempt budget): settle the
                    // blocking owner so the read can proceed.
                    live2.request_abort();
                    live2.acknowledge_abort();
                }
                NztmHybrid::read(tx, &o2)
            });
            assert_eq!(v, 7);
        })]);
        let st = hy.stats_snapshot();
        assert!(st.htm_explicit_aborts >= 1, "self-abort must be explicit: {st:?}");
        assert_eq!(st.htm_conflict_aborts, 0, "no coherence conflict here: {st:?}");
        hy.htm().uninstall();
    }

    #[test]
    fn hardware_repairs_aborted_software_state() {
        // Build an object owned by an aborted (acknowledged) software
        // transaction with a stale in-place value and a valid backup —
        // the state a crashed-and-aborted writer leaves behind — and let
        // a hardware transaction repair and read it.
        use nztm_core::{TxnDesc, WordBuf};
        let (m, _p, hy) = setup(1);
        let o = hy.alloc(5u64);
        {
            let g = nztm_epoch::pin();
            let dead = Arc::new(TxnDesc::new(0, 1));
            assert!(o.header().cas_owner_to_txn(0, &dead, &g));
            let backup = WordBuf::from_words(o.data_words()); // 5
            assert!(o.header().cas_backup(0, Some(&backup), &g));
            o.data_words()[0].store(999, std::sync::atomic::Ordering::SeqCst); // dirty
            dead.request_abort();
            dead.acknowledge_abort();
        }
        let (h2, o2) = (Arc::clone(&hy), Arc::clone(&o));
        m.run(vec![Box::new(move || {
            let v = h2.execute(|tx| NztmHybrid::read(tx, &o2));
            assert_eq!(v, 5, "hardware path restored the backup");
        })]);
        let st = hy.stats_snapshot();
        assert_eq!(st.htm_commits, 1);
        assert_eq!(st.fallbacks, 0);
        // Owner was erased so later hardware transactions skip the checks.
        let g = nztm_epoch::pin();
        assert!(matches!(o.header().owner(&g), nztm_core::object::OwnerRef::None));
        hy.htm().uninstall();
    }
}
