//! NOrec (Dalessandro, Spear & Scott, PPoPP 2010): one global sequence
//! lock, value-based validation and lazy redo writes — the progressive,
//! ownership-free reference point beside the NZTM family.
//!
//! NOrec runs over the same [`NZObject`]s as the NZ engine, so every
//! workload and data structure runs on it unchanged, but it touches none
//! of their metadata: no owner word, reader bitmap, backup or
//! AbortNowPlease flag. Its only shared metadata word is the clock.
//!
//! * **Clock:** even = unlocked (the value doubles as the snapshot);
//!   odd = a writer is inside its commit write-back window.
//! * **Reads** log the values they return. Whenever the clock has moved
//!   past the attempt's snapshot, the whole log is re-read and compared
//!   by value; the snapshot then extends to the new clock (opacity).
//! * **Writes** go to a private redo log. A writer commits by CASing the
//!   clock from its snapshot to odd, writing the log back and releasing
//!   the clock two ticks up. Read-only attempts commit without touching
//!   the clock.
//!
//! An attempt allocates nothing once its logs are warm: no descriptor,
//! no registry slot, no epoch pin. Objects are type-stable (`Arc`s held
//! by the logs), so no quiescence is needed either. NOrec is blocking: a
//! committer preempted inside its write-back stalls every other thread.

use crate::data::TmData;
use crate::engine::header_key;
use crate::object::{NZObject, NzObjAny};
use crate::runtime::TmSys;
use crate::stats::{ThreadStats, TmStats};
use crate::trace::{trace_evt, Trace, TraceRing, RING_CAPACITY};
use crate::txn::{Abort, AbortCause};
use crate::util::{Backoff, PerCore, SlotIndex};
use nztm_sim::{AccessKind, DetRng, Platform};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The global sequence lock, on its own cache line: every committer
/// writes it and every reader polls it.
#[repr(align(128))]
struct SeqClock {
    word: AtomicU64,
    /// Synthetic address feeding the sim cache model.
    synth: usize,
}

/// One logged object: its words live at `log[off..off + len]` of the
/// value log (reads) or the redo log (writes).
struct LogEntry {
    obj: Arc<dyn NzObjAny>,
    off: usize,
    len: usize,
}

struct NorecCtx {
    /// Values returned by this attempt's reads, sliced by `reads`.
    vals: Vec<u64>,
    /// Buffered write values, sliced by `writes`.
    redo: Vec<u64>,
    reads: Vec<LogEntry>,
    writes: Vec<LogEntry>,
    /// Header address → `reads` slot.
    read_index: SlotIndex,
    /// Header address → `writes` slot.
    write_index: SlotIndex,
    /// Scratch encode/decode buffer, reused across operations.
    scratch: Vec<u64>,
    /// The clock value this attempt last validated against (even).
    snapshot: u64,
    /// Attempt serial, naming the attempt in trace events.
    serial: u64,
    rng: DetRng,
    backoff: Backoff,
    /// Flight-recorder ring (single-writer; drained quiescently).
    ring: TraceRing,
}

impl NorecCtx {
    fn clear_logs(&mut self) {
        self.vals.clear();
        self.redo.clear();
        self.reads.clear();
        self.writes.clear();
        self.read_index.clear();
        self.write_index.clear();
    }
}

/// The NOrec STM. See the module docs.
pub struct Norec<P: Platform> {
    platform: Arc<P>,
    clock: SeqClock,
    threads: PerCore<NorecCtx>,
    /// Per-thread counter cells; only thread `tid` writes `stats[tid]`,
    /// any thread may snapshot.
    stats: Box<[ThreadStats]>,
    /// Runtime arming flag for the flight recorder.
    trace_on: AtomicBool,
}

impl<P: Platform> Norec<P> {
    /// Panics when the platform has more than [`crate::MAX_THREADS`]
    /// threads, the limit every TM system in the workspace shares.
    pub(crate) fn new(platform: Arc<P>) -> Arc<Self> {
        let n = platform.n_cores();
        crate::readers::assert_thread_limit(n);
        Arc::new(Norec {
            platform,
            clock: SeqClock {
                word: AtomicU64::new(0),
                synth: nztm_sim::synth_alloc_as(128, nztm_sim::StructClass::Other),
            },
            threads: PerCore::new(n, |tid| NorecCtx {
                vals: Vec::new(),
                redo: Vec::new(),
                reads: Vec::new(),
                writes: Vec::new(),
                read_index: SlotIndex::new(),
                write_index: SlotIndex::new(),
                scratch: Vec::with_capacity(64),
                snapshot: 0,
                serial: 0,
                rng: DetRng::new(0x5EED_0000 + tid as u64),
                backoff: Backoff::new(),
                ring: TraceRing::new(RING_CAPACITY),
            }),
            stats: (0..n).map(|_| ThreadStats::default()).collect(),
            trace_on: AtomicBool::new(false),
        })
    }

    /// Allocate a transactional object.
    pub fn new_obj<T: TmData>(&self, init: T) -> Arc<NZObject<T>> {
        NZObject::new(init)
    }

    /// Merged per-thread statistics; safe at any time.
    pub fn stats_snapshot(&self) -> TmStats {
        ThreadStats::merge_all(self.stats.iter())
    }

    /// Execute `f` as a transaction, retrying until it commits. Returns
    /// `f`'s result from the committed attempt.
    pub fn run<R>(&self, mut f: impl FnMut(&mut NorecTx<'_, P>) -> Result<R, Abort>) -> R {
        let tid = self.platform.core_id();
        // SAFETY: `tid` is the calling thread's own core id, so no other
        // thread touches this slot.
        let ctx = unsafe { self.threads.get(tid) };
        let mut had_abort = false;
        loop {
            self.begin(ctx, tid);
            match f(&mut NorecTx { sys: self, ctx, tid }) {
                Ok(r) => {
                    if self.commit(ctx, tid) {
                        ctx.backoff.reset();
                        if had_abort {
                            self.stats[tid].txns_with_aborts.bump();
                        }
                        return r;
                    }
                }
                Err(Abort(cause)) => self.abort(ctx, tid, cause),
            }
            had_abort = true;
            // Randomized exponential backoff between attempts.
            let steps = ctx.backoff.steps(ctx.rng.next_u64());
            for _ in 0..steps {
                self.platform.spin_wait();
            }
        }
    }

    fn begin(&self, ctx: &mut NorecCtx, tid: usize) {
        ctx.serial += 1;
        trace_evt!(self, ctx, tid, TxnBegin, ctx.serial, 0);
        ctx.clear_logs();
        // Wait out any in-flight committer (odd clock) so the first reads
        // cannot observe its partial write-back.
        ctx.snapshot = self.wait_even();
    }

    fn abort(&self, ctx: &mut NorecCtx, tid: usize, cause: AbortCause) {
        self.stats[tid].count_abort(cause);
        trace_evt!(self, ctx, tid, TxnAbort, ctx.serial, cause.code());
    }

    /// Poll the clock (one shared-line read in the cache model).
    #[inline]
    fn clock_load(&self) -> u64 {
        self.platform.mem(self.clock.synth, 8, AccessKind::Read);
        self.clock.word.load(Ordering::Acquire)
    }

    /// Spin until the clock is even and return it.
    fn wait_even(&self) -> u64 {
        loop {
            let t = self.clock_load();
            if t & 1 == 0 {
                return t;
            }
            self.platform.spin_wait();
        }
    }

    /// Value-based validation: wait out any in-flight committer, re-read
    /// every logged object and compare it to the logged value, and
    /// succeed only if the clock did not move during the scan, extending
    /// the snapshot to the scanned clock. A mismatch means a committed
    /// writer overwrote something we read.
    fn validate_extend(&self, ctx: &mut NorecCtx, tid: usize) -> Result<(), Abort> {
        let stats = &self.stats[tid];
        stats.norec_validations.bump();
        trace_evt!(self, ctx, tid, NorecValidate, ctx.snapshot, ctx.reads.len() as u64);
        loop {
            let t = self.wait_even();
            for r in &ctx.reads {
                self.platform.mem_nb(r.obj.data_addr(), r.len * 8, AccessKind::Read);
                let logged = &ctx.vals[r.off..r.off + r.len];
                let intact =
                    r.obj.data_words().iter().zip(logged).all(|(w, v)| w.load(Ordering::Relaxed) == *v);
                if !intact {
                    stats.conflicts.bump();
                    return Err(Abort(AbortCause::ValueValidation));
                }
            }
            // Seqlock reader: keep the Relaxed data loads ahead of the
            // clock re-check (pairs with `commit`'s release fence).
            fence(Ordering::Acquire);
            if self.clock_load() == t {
                if t != ctx.snapshot {
                    stats.norec_extensions.bump();
                    trace_evt!(self, ctx, tid, NorecExtend, ctx.snapshot, t);
                    ctx.snapshot = t;
                }
                return Ok(());
            }
            // A writer committed mid-scan; the values compared may mix
            // epochs. Rescan against the newer clock.
        }
    }

    fn read<T: TmData>(
        &self,
        ctx: &mut NorecCtx,
        tid: usize,
        obj: &Arc<NZObject<T>>,
    ) -> Result<T, Abort> {
        self.stats[tid].reads.bump();
        let key = header_key(obj.header());
        // Our own buffered write wins (read-your-writes).
        if let Some(i) = ctx.write_index.get(key) {
            let w = &ctx.writes[i as usize];
            return Ok(T::decode(&ctx.redo[w.off..w.off + w.len]));
        }
        // Re-read: the logged value, so the attempt keeps seeing exactly
        // the state it validated.
        if let Some(i) = ctx.read_index.get(key) {
            let r = &ctx.reads[i as usize];
            return Ok(T::decode(&ctx.vals[r.off..r.off + r.len]));
        }
        // Fresh read: copy the words, then make sure the clock stood
        // still across the copy; if it moved, revalidate (and extend)
        // and copy again.
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        loop {
            self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
            crate::data::snapshot_words(obj.data_words(), &mut ctx.scratch);
            // Seqlock reader: see `validate_extend`.
            fence(Ordering::Acquire);
            if self.clock_load() == ctx.snapshot {
                break;
            }
            self.validate_extend(ctx, tid)?;
        }
        let off = ctx.vals.len();
        ctx.vals.extend_from_slice(&ctx.scratch);
        ctx.read_index.insert(key, ctx.reads.len() as u32);
        ctx.reads.push(LogEntry { obj: obj.clone(), off, len: n });
        Ok(T::decode(&ctx.scratch))
    }

    fn write<T: TmData>(&self, ctx: &mut NorecCtx, tid: usize, obj: &Arc<NZObject<T>>, value: &T) {
        let key = header_key(obj.header());
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        value.encode(&mut ctx.scratch);
        if let Some(i) = ctx.write_index.get(key) {
            let off = ctx.writes[i as usize].off;
            ctx.redo[off..off + n].copy_from_slice(&ctx.scratch);
            return;
        }
        // First write to this object: append a redo slot. Counted as an
        // acquisition (one per object per attempt, like the ownership
        // modes) even though nothing is owned until commit.
        self.stats[tid].acquires.bump();
        let off = ctx.redo.len();
        ctx.redo.extend_from_slice(&ctx.scratch);
        ctx.write_index.insert(key, ctx.writes.len() as u32);
        ctx.writes.push(LogEntry { obj: obj.clone(), off, len: n });
    }

    /// Read-only attempts are valid at their snapshot and commit without
    /// touching the clock. Writers CAS the clock from their snapshot to
    /// odd (locking out other committers and proving no one committed
    /// since the snapshot), write the redo log back, and release the
    /// clock two ticks up.
    fn commit(&self, ctx: &mut NorecCtx, tid: usize) -> bool {
        if !ctx.writes.is_empty() {
            loop {
                self.platform.mem(self.clock.synth, 8, AccessKind::Rmw);
                let locked = self.clock.word.compare_exchange(
                    ctx.snapshot,
                    ctx.snapshot + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                if locked.is_ok() {
                    break;
                }
                // Someone committed since our snapshot: revalidate (and
                // extend) or abort on a value conflict.
                if let Err(Abort(cause)) = self.validate_extend(ctx, tid) {
                    self.abort(ctx, tid, cause);
                    return false;
                }
            }
            // Locked: readers observing these stores see an odd clock
            // and wait us out. The fence keeps the Relaxed write-back
            // behind the lock CAS for a reader that sees one of them
            // (pairs with the readers' acquire fences).
            fence(Ordering::Release);
            for w in &ctx.writes {
                self.platform.mem_nb(w.obj.data_addr(), w.len * 8, AccessKind::Write);
                crate::data::write_words(w.obj.data_words(), &ctx.redo[w.off..w.off + w.len]);
            }
            self.platform.mem(self.clock.synth, 8, AccessKind::Write);
            self.clock.word.store(ctx.snapshot + 2, Ordering::Release);
        }
        self.stats[tid].commits.bump();
        trace_evt!(self, ctx, tid, TxnCommit, ctx.serial, 0);
        true
    }
}

/// An in-flight NOrec transaction, valid inside one [`Norec::run`]
/// closure call.
pub struct NorecTx<'t, P: Platform> {
    sys: &'t Norec<P>,
    ctx: &'t mut NorecCtx,
    tid: usize,
}

impl<P: Platform> NorecTx<'_, P> {
    /// Transactionally read `obj`'s current value.
    pub fn read<T: TmData>(&mut self, obj: &Arc<NZObject<T>>) -> Result<T, Abort> {
        self.sys.read(self.ctx, self.tid, obj)
    }

    /// Transactionally overwrite `obj` with `value` (buffered until
    /// commit).
    pub fn write<T: TmData>(&mut self, obj: &Arc<NZObject<T>>, value: &T) -> Result<(), Abort> {
        self.sys.write(self.ctx, self.tid, obj, value);
        Ok(())
    }
}

impl<P: Platform> TmSys for Norec<P> {
    type Obj<T: TmData> = Arc<NZObject<T>>;
    type Tx<'t> = NorecTx<'t, P>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        NZObject::new(init)
    }

    fn peek<T: TmData>(obj: &Self::Obj<T>) -> T {
        obj.read_untracked()
    }

    fn execute<R>(&self, f: impl FnMut(&mut Self::Tx<'_>) -> Result<R, Abort>) -> R {
        self.run(f)
    }

    fn read<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>) -> Result<T, Abort> {
        tx.read(obj)
    }

    fn write<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>, v: &T) -> Result<(), Abort> {
        tx.write(obj, v)
    }

    fn note_adt_op(tx: &mut Self::Tx<'_>, desc: crate::adt::AdtOpDesc) {
        let (sys, ctx, tid) = (tx.sys, &mut *tx.ctx, tx.tid);
        sys.stats[tid].adt_ops.bump();
        trace_evt!(sys, ctx, tid, AdtOp, desc.key, desc.pack());
    }

    fn stats_snapshot(&self) -> TmStats {
        Norec::stats_snapshot(self)
    }

    fn reset_stats(&self) {
        self.stats.iter().for_each(ThreadStats::reset);
    }

    fn set_tracing(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    /// Quiescent-only: rings are single-writer and read unsynchronized.
    fn take_trace(&self) -> Trace {
        let mut trace = Trace::default();
        for tid in 0..self.threads.len() {
            // SAFETY: the quiescence contract above: no thread is inside
            // `run`, so no slot is being written.
            let ctx = unsafe { self.threads.get(tid) };
            trace.overwritten += ctx.ring.drain_into(&mut trace.events);
        }
        trace.sort();
        trace
    }

    fn name(&self) -> &'static str {
        "NOREC"
    }
}
