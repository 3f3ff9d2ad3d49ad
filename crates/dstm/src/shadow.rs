//! DSTM2 Shadow Factory (blocking, zero-indirection).
//!
//! "We use the Shadow Factory because it is a blocking object-based STM
//! designed from the ground up as a blocking algorithm" (§4.3). Its
//! defining layout choice, and the one the paper's kmeans analysis hinges
//! on (§4.4.2): the backup ("shadow") copy of each object is allocated
//! **in place with the object, which incurs 100% space overhead** — a
//! padded kmeans object needs four cache lines here versus two under
//! NZSTM, and the shadow lines are touched on every acquisition whether
//! or not they were recently used.
//!
//! Algorithmically this is the blocking acquire/backup/restore scheme of
//! NZSTM's §2.2 base (per the paper, "our implementation of DSTM2-SF uses
//! the same visible reads and contention management extensions as
//! NZSTM"), so the measured differences against NZSTM and BZSTM come
//! down to layout, exactly as in the paper.

use nztm_epoch::Guard;
use nztm_core::cm::{ContentionManager, KarmaDeadlock, Resolution};
use nztm_core::data::{copy_words, snapshot_words, write_words, TmData, WordArray};
use nztm_core::registry::ThreadRegistry;
use nztm_core::stats::{ThreadStats, TmStats};
use nztm_core::txn::{Abort, AbortCause, Status, TxnDesc};
use nztm_core::util::{Backoff, PerCore};
use nztm_core::{ReaderIndicator, TmSys};
use nztm_sim::{AccessKind, DetRng, Platform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Type-erased shadow-object metadata: owner word + reader indicator.
struct ShadowHeader {
    /// Raw pointer to the owning `TxnDesc` (one strong count); 0 = none.
    owner: AtomicU64,
    /// Visible readers: one bit per thread. Its home address is the
    /// object's synthetic base: metadata at the base, data at base+32,
    /// the collocated shadow right after the data — the 100% space
    /// overhead is visible to the cache model.
    readers: ReaderIndicator,
}

/// Monomorphic release fn for the epoch's allocation-free `defer_fn`:
/// `arg` is a raw `Arc<TxnDesc>` pointer carrying one strong count.
unsafe fn release_txn_arc(arg: u64) {
    unsafe { drop(Arc::from_raw(arg as *const TxnDesc)) };
}

impl ShadowHeader {
    fn addr(&self) -> usize {
        self.readers.addr()
    }

    fn owner_desc<'g>(&self, _guard: &'g Guard) -> Option<(&'g TxnDesc, u64)> {
        let raw = self.owner.load(Ordering::SeqCst);
        if raw == 0 {
            None
        } else {
            Some((unsafe { &*(raw as *const TxnDesc) }, raw))
        }
    }

    fn cas_owner(&self, expected: u64, new: &Arc<TxnDesc>, guard: &Guard) -> bool {
        let new_raw = Arc::into_raw(Arc::clone(new)) as u64;
        match self.owner.compare_exchange(expected, new_raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                if expected != 0 {
                    // SAFETY: the CAS unlinked `expected`, which carried
                    // one strong count; only threads pinned now can
                    // still hold it.
                    unsafe { guard.defer_fn(release_txn_arc, expected) };
                }
                true
            }
            Err(_) => {
                unsafe { drop(Arc::from_raw(new_raw as *const TxnDesc)) };
                false
            }
        }
    }
}

impl Drop for ShadowHeader {
    fn drop(&mut self) {
        let raw = *self.owner.get_mut();
        if raw != 0 {
            unsafe { drop(Arc::from_raw(raw as *const TxnDesc)) };
        }
    }
}

/// A transactional object with its shadow copy collocated — the 100%
/// space overhead of the Shadow Factory.
pub struct ShadowObject<T: TmData> {
    header: ShadowHeader,
    data: T::Words,
    /// The in-place shadow (backup) copy. Restorable iff the recorded
    /// installer did not commit (see `shadow_installer`).
    shadow: T::Words,
    /// Raw pointer (one strong `Arc` count) to the transaction that
    /// installed the shadow; 0 = never installed. The shadow is *stale*
    /// once its installer commits (the committed value lives in `data`),
    /// which closes the stale-shadow window between a new acquirer's
    /// owner CAS and its shadow refresh — the same race the NZSTM engine
    /// guards with `WordBuf::usable_as_backup`.
    shadow_installer: AtomicU64,
}

impl<T: TmData> ShadowObject<T> {
    fn new(init: T) -> Arc<Self> {
        // Metadata + data + collocated shadow: double the payload
        // footprint, as in DSTM2-SF.
        let bytes = 32 + 2 * T::n_words() * 8;
        let synth = nztm_sim::synth_alloc(bytes);
        nztm_sim::tag_synth_range(synth, bytes.min(64), nztm_sim::StructClass::ObjHeaders);
        if bytes > 64 {
            nztm_sim::tag_synth_range(synth + 64, bytes - 64, nztm_sim::StructClass::ObjData);
        }
        let obj: ShadowObject<T> = ShadowObject {
            header: ShadowHeader {
                owner: AtomicU64::new(0),
                readers: ReaderIndicator::new(synth),
            },
            data: T::Words::new_zeroed(),
            shadow: T::Words::new_zeroed(),
            shadow_installer: AtomicU64::new(0),
        };
        let mut scratch = vec![0u64; T::n_words()];
        init.encode(&mut scratch);
        write_words(obj.data.words(), &scratch);
        Arc::new(obj)
    }

    pub fn read_untracked(&self) -> T {
        let guard = nztm_epoch::pin();
        let mut scratch = vec![0u64; T::n_words()];
        let src = match self.header.owner_desc(&guard) {
            Some((d, _)) if d.status() == Status::Aborted && self.shadow_usable(&guard) => {
                self.shadow.words()
            }
            _ => self.data.words(),
        };
        snapshot_words(src, &mut scratch);
        T::decode(&scratch)
    }

    fn shadow_usable(&self, _guard: &Guard) -> bool {
        let raw = self.shadow_installer.load(Ordering::SeqCst);
        if raw == 0 {
            return false;
        }
        unsafe { &*(raw as *const TxnDesc) }.status() != Status::Committed
    }

    fn adopt_shadow(&self, me: &Arc<TxnDesc>, guard: &Guard) {
        let new_raw = Arc::into_raw(Arc::clone(me)) as u64;
        let old = self.shadow_installer.swap(new_raw, Ordering::SeqCst);
        if old != 0 {
            // SAFETY: the swap unlinked `old`, as in `cas_owner`.
            unsafe { guard.defer_fn(release_txn_arc, old) };
        }
    }
}

impl<T: TmData> Drop for ShadowObject<T> {
    fn drop(&mut self) {
        let raw = *self.shadow_installer.get_mut();
        if raw != 0 {
            unsafe { drop(Arc::from_raw(raw as *const TxnDesc)) };
        }
    }
}

/// Type-erased view for read/write sets.
trait ShadowAny: Send + Sync {
    fn header(&self) -> &ShadowHeader;
    fn data_words(&self) -> &[AtomicU64];
    fn shadow_words(&self) -> &[AtomicU64];
    fn shadow_usable_dyn(&self, guard: &Guard) -> bool;
    fn adopt_shadow_dyn(&self, me: &Arc<TxnDesc>, guard: &Guard);
    fn data_addr(&self) -> usize;
    fn shadow_addr(&self) -> usize;
}

impl<T: TmData> ShadowAny for ShadowObject<T> {
    fn header(&self) -> &ShadowHeader {
        &self.header
    }
    fn data_words(&self) -> &[AtomicU64] {
        self.data.words()
    }
    fn shadow_words(&self) -> &[AtomicU64] {
        self.shadow.words()
    }
    fn shadow_usable_dyn(&self, guard: &Guard) -> bool {
        self.shadow_usable(guard)
    }
    fn adopt_shadow_dyn(&self, me: &Arc<TxnDesc>, guard: &Guard) {
        self.adopt_shadow(me, guard)
    }
    fn data_addr(&self) -> usize {
        self.header.addr() + 32
    }
    fn shadow_addr(&self) -> usize {
        self.header.addr() + 32 + self.data.words().len() * 8
    }
}

struct ThreadCtx {
    current: Option<Arc<TxnDesc>>,
    serial: u64,
    write_set: Vec<Arc<dyn ShadowAny>>,
    read_set: Vec<Arc<dyn ShadowAny>>,
    rng: DetRng,
    backoff: Backoff,
    stats: Arc<ThreadStats>,
    scratch: Vec<u64>,
}

impl ThreadCtx {
    fn new(tid: usize, stats: Arc<ThreadStats>) -> Self {
        ThreadCtx {
            current: None,
            serial: 0,
            write_set: Vec::with_capacity(64),
            read_set: Vec::with_capacity(64),
            rng: DetRng::new(0x5AD0_0000 + tid as u64),
            backoff: Backoff::new(),
            stats,
            scratch: Vec::with_capacity(64),
        }
    }
}

/// The DSTM2 Shadow Factory engine (blocking).
pub struct ShadowStm<P: Platform> {
    platform: Arc<P>,
    cm: Arc<dyn ContentionManager>,
    registry: ThreadRegistry,
    threads: PerCore<ThreadCtx>,
    /// Shared view of the per-thread counters (single-writer atomics),
    /// so snapshots never alias the owners' `&mut ThreadCtx`.
    thread_stats: Box<[Arc<ThreadStats>]>,
}

impl<P: Platform> ShadowStm<P> {
    /// Panics when the platform has more than [`nztm_core::MAX_THREADS`]
    /// threads: each object's reader bitmap has one bit per thread.
    pub fn new(platform: Arc<P>, cm: Arc<dyn ContentionManager>) -> Arc<Self> {
        let n = platform.n_cores();
        nztm_core::readers::assert_thread_limit(n);
        let thread_stats: Box<[Arc<ThreadStats>]> =
            (0..n).map(|_| Arc::new(ThreadStats::default())).collect();
        Arc::new(ShadowStm {
            platform,
            cm,
            registry: ThreadRegistry::new(n),
            threads: PerCore::new(n, |tid| {
                ThreadCtx::new(tid, Arc::clone(&thread_stats[tid]))
            }),
            thread_stats,
        })
    }

    pub fn with_defaults(platform: Arc<P>) -> Arc<Self> {
        ShadowStm::new(platform, Arc::new(KarmaDeadlock::default()))
    }

    pub fn run<R>(&self, mut f: impl FnMut(&mut ShadowTx<'_, P>) -> Result<R, Abort>) -> R {
        let tid = self.platform.core_id();
        let ctx = unsafe { self.threads.get(tid) };
        loop {
            self.begin(ctx, tid);
            let mut tx = ShadowTx { sys: self, ctx, tid };
            match f(&mut tx) {
                Ok(r) => {
                    if self.commit(ctx, tid) {
                        ctx.backoff.reset();
                        return r;
                    }
                }
                Err(Abort(cause)) => self.abort_txn(ctx, tid, cause),
            }
            let steps = ctx.backoff.steps(ctx.rng.next_u64());
            for _ in 0..steps {
                self.platform.spin_wait();
            }
        }
    }

    fn begin(&self, ctx: &mut ThreadCtx, tid: usize) {
        ctx.serial += 1;
        let desc = Arc::new(TxnDesc::new(tid as u32, ctx.serial));
        let guard = nztm_epoch::pin();
        self.registry.publish(tid, &desc, &guard);
        self.platform.mem(self.registry.slot_addr(tid), 8, AccessKind::Write);
        ctx.current = Some(desc);
        ctx.read_set.clear();
        ctx.write_set.clear();
    }

    fn me(ctx: &ThreadCtx) -> &Arc<TxnDesc> {
        ctx.current.as_ref().expect("no transaction in flight")
    }

    fn validate(&self, ctx: &ThreadCtx) -> Result<(), Abort> {
        let me = Self::me(ctx);
        self.platform.mem_nb(me.addr(), 8, AccessKind::Read);
        if me.abort_requested() {
            Err(Abort(AbortCause::Requested))
        } else {
            Ok(())
        }
    }

    fn commit(&self, ctx: &mut ThreadCtx, tid: usize) -> bool {
        let me = Self::me(ctx);
        self.platform.mem(me.addr(), 8, AccessKind::Rmw);
        if me.try_commit() {
            ctx.write_set.clear();
            self.clear_reader_bits(ctx, tid);
            ctx.stats.commits.bump();
            true
        } else {
            self.abort_txn(ctx, tid, AbortCause::Requested);
            false
        }
    }

    fn abort_txn(&self, ctx: &mut ThreadCtx, tid: usize, cause: AbortCause) {
        let me = Self::me(ctx);
        self.platform.mem(me.addr(), 8, AccessKind::Rmw);
        me.acknowledge_abort();
        self.clear_reader_bits(ctx, tid);
        ctx.write_set.clear();
        match cause {
            AbortCause::Requested => ctx.stats.aborts_requested.bump(),
            AbortCause::SelfAbort => ctx.stats.aborts_self.bump(),
            AbortCause::Validation => ctx.stats.aborts_validation.bump(),
            AbortCause::Explicit => ctx.stats.aborts_explicit.bump(),
            AbortCause::Htm => ctx.stats.aborts_htm.bump(),
            AbortCause::ValueValidation => ctx.stats.aborts_value_validation.bump(),
        }
    }

    fn clear_reader_bits(&self, ctx: &mut ThreadCtx, tid: usize) {
        for r in ctx.read_set.drain(..) {
            self.platform.mem_nb(r.header().addr(), 8, AccessKind::Rmw);
            r.header().readers.remove(tid);
        }
    }

    /// Blocking conflict resolution: request the peer's abort and wait
    /// (indefinitely) for the acknowledgement.
    fn resolve(&self, ctx: &mut ThreadCtx, h: &ShadowHeader, raw: u64, other: &TxnDesc) -> Result<(), Abort> {
        let me = Arc::clone(Self::me(ctx));
        ctx.stats.conflicts.bump();
        let mut waited = 0u64;
        loop {
            self.validate(ctx)?;
            self.platform.mem(other.addr(), 8, AccessKind::Read);
            if other.status() != Status::Active || h.owner.load(Ordering::SeqCst) != raw {
                me.set_waiting(false);
                return Ok(());
            }
            match self.cm.resolve(&me, other, waited) {
                Resolution::Wait => {
                    me.set_waiting(true);
                    self.platform.spin_wait();
                    ctx.stats.wait_steps.bump();
                    waited += 1;
                }
                Resolution::AbortSelf => {
                    me.set_waiting(false);
                    return Err(Abort(AbortCause::SelfAbort));
                }
                Resolution::RequestAbort => {
                    me.set_waiting(false);
                    ctx.stats.abort_requests_sent.bump();
                    self.platform.mem(other.addr(), 8, AccessKind::Rmw);
                    other.request_abort();
                    self.validate(ctx)?;
                    // Blocking: wait for the acknowledgement.
                    loop {
                        self.platform.mem(other.addr(), 8, AccessKind::Read);
                        if other.status() != Status::Active {
                            return Ok(());
                        }
                        self.validate(ctx)?;
                        self.platform.spin_wait();
                        ctx.stats.wait_steps.bump();
                    }
                }
            }
        }
    }

    fn request_readers(&self, ctx: &mut ThreadCtx, h: &ShadowHeader, tid: usize, guard: &Guard) -> Result<(), Abort> {
        self.platform.mem(h.addr(), 8, AccessKind::Read);
        let me = Arc::as_ptr(Self::me(ctx));
        for t in h.readers.readers_other_than(tid) {
            self.platform.mem(self.registry.slot_addr(t), 8, AccessKind::Read);
            if let Some(d) = self.registry.current(t, guard) {
                if !std::ptr::eq(d, me) && d.status() == Status::Active {
                    self.platform.mem(d.addr(), 8, AccessKind::Rmw);
                    d.request_abort();
                    ctx.stats.abort_requests_sent.bump();
                }
            }
        }
        self.validate(ctx)
    }

    fn acquire(&self, ctx: &mut ThreadCtx, tid: usize, obj: &Arc<dyn ShadowAny>) -> Result<(), Abort> {
        self.validate(ctx)?;
        let me = Arc::clone(Self::me(ctx));
        let h = obj.header();
        if ctx.write_set.iter().any(|w| std::ptr::eq(w.header(), h)) {
            return Ok(());
        }
        loop {
            let guard = nztm_epoch::pin();
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            let (prev_aborted, raw) = match h.owner_desc(&guard) {
                None => (false, 0),
                Some((t, raw)) => {
                    let st = t.status();
                    if st == Status::Active {
                        assert!(
                            !std::ptr::eq(t, Arc::as_ptr(&me)),
                            "active self-owned object must be in the write set"
                        );
                        self.resolve(ctx, h, raw, t)?;
                        continue;
                    }
                    (st == Status::Aborted, raw)
                }
            };
            self.platform.mem(h.addr(), 8, AccessKind::Rmw);
            if !h.cas_owner(raw, &me, &guard) {
                continue;
            }
            me.gained_object();
            ctx.stats.acquires.bump();
            self.request_readers(ctx, h, tid, &guard)?;

            let n = obj.data_words().len();
            if prev_aborted && obj.shadow_usable_dyn(&guard) {
                // Restore the shadow (lazy undo); it remains our shadow —
                // it already equals the pre-transaction value. Adopt it
                // first so an abort mid-restore leaves it usable.
                obj.adopt_shadow_dyn(&me, &guard);
                self.platform.mem_nb(obj.shadow_addr(), n * 8, AccessKind::Read);
                self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Write);
                copy_words(obj.data_words(), obj.shadow_words());
            } else {
                // Copy data into the collocated shadow — this is the
                // always-touch-the-shadow-lines cost the paper measures.
                // Publish (adopt) only after the copy completes, so a
                // torn shadow is never marked usable.
                self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
                self.platform.mem_nb(obj.shadow_addr(), n * 8, AccessKind::Write);
                copy_words(obj.shadow_words(), obj.data_words());
                obj.adopt_shadow_dyn(&me, &guard);
            }
            ctx.write_set.push(Arc::clone(obj));
            return self.validate(ctx);
        }
    }

    fn read_value<T: TmData>(&self, ctx: &mut ThreadCtx, tid: usize, obj: &Arc<ShadowObject<T>>) -> Result<T, Abort> {
        self.validate(ctx)?;
        ctx.stats.reads.bump();
        let me_ptr = Arc::as_ptr(Self::me(ctx));
        let h = &obj.header;
        let n = T::n_words();
        let mut registered = false;
        loop {
            let guard = nztm_epoch::pin();
            if !registered {
                self.platform.mem(h.addr(), 8, AccessKind::Rmw);
                h.readers.add(tid);
                let any: Arc<dyn ShadowAny> = obj.clone();
                ctx.read_set.push(any);
                registered = true;
            }
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            let raw1 = h.owner.load(Ordering::SeqCst);
            let src = match h.owner_desc(&guard) {
                None => obj.data.words(),
                Some((t, raw)) => {
                    if std::ptr::eq(t, me_ptr) {
                        obj.data.words()
                    } else {
                        match t.status() {
                            Status::Active => {
                                self.resolve(ctx, h, raw, t)?;
                                continue;
                            }
                            Status::Committed => obj.data.words(),
                            Status::Aborted => {
                                if obj.shadow_usable(&guard) {
                                    obj.shadow.words()
                                } else {
                                    obj.data.words()
                                }
                            }
                        }
                    }
                }
            };
            let src_is_shadow = std::ptr::eq(src.as_ptr(), obj.shadow.words().as_ptr());
            let src_addr = if src_is_shadow {
                obj.header.addr() + 32 + n * 8
            } else {
                obj.header.addr() + 32
            };
            ctx.scratch.clear();
            ctx.scratch.resize(n, 0);
            self.platform.mem_nb(src_addr, n * 8, AccessKind::Read);
            snapshot_words(src, &mut ctx.scratch);
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            if h.owner.load(Ordering::SeqCst) != raw1 {
                continue;
            }
            self.validate(ctx)?;
            return Ok(T::decode(&ctx.scratch));
        }
    }

    fn write_value<T: TmData>(&self, ctx: &mut ThreadCtx, tid: usize, obj: &Arc<ShadowObject<T>>, v: &T) -> Result<(), Abort> {
        let any: Arc<dyn ShadowAny> = obj.clone();
        self.acquire(ctx, tid, &any)?;
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        v.encode(&mut ctx.scratch);
        self.platform.mem_nb(obj.header.addr() + 32, n * 8, AccessKind::Write);
        write_words(obj.data.words(), &ctx.scratch);
        self.validate(ctx)
    }
}

/// In-flight Shadow Factory transaction.
pub struct ShadowTx<'s, P: Platform> {
    sys: &'s ShadowStm<P>,
    ctx: *mut ThreadCtx,
    tid: usize,
}

impl<'s, P: Platform> ShadowTx<'s, P> {
    fn ctx(&mut self) -> &mut ThreadCtx {
        unsafe { &mut *self.ctx }
    }

    pub fn read<T: TmData>(&mut self, obj: &Arc<ShadowObject<T>>) -> Result<T, Abort> {
        let (sys, tid) = (self.sys, self.tid);
        sys.read_value(self.ctx(), tid, obj)
    }

    pub fn write<T: TmData>(&mut self, obj: &Arc<ShadowObject<T>>, v: &T) -> Result<(), Abort> {
        let (sys, tid) = (self.sys, self.tid);
        sys.write_value(self.ctx(), tid, obj, v)
    }
}

impl<P: Platform> TmSys for ShadowStm<P> {
    type Obj<T: TmData> = Arc<ShadowObject<T>>;
    type Tx<'t> = ShadowTx<'t, P>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        ShadowObject::new(init)
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

    fn stats_snapshot(&self) -> TmStats {
        ThreadStats::merge_all(self.thread_stats.iter().map(Arc::as_ref))
    }

    fn reset_stats(&self) {
        for s in self.thread_stats.iter() {
            s.reset();
        }
    }

    fn name(&self) -> &'static str {
        "DSTM2-SF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::Native;

    fn sys() -> Arc<ShadowStm<Native>> {
        let p = Native::new(1);
        p.register_thread();
        ShadowStm::with_defaults(p)
    }

    #[test]
    fn read_write_commit() {
        let s = sys();
        let o = s.alloc(3u64);
        s.run(|tx| {
            let v = tx.read(&o)?;
            tx.write(&o, &(v + 4))
        });
        assert_eq!(o.read_untracked(), 7);
    }

    #[test]
    fn shadow_restores_on_abort() {
        let s = sys();
        let o = s.alloc(10u64);
        let mut attempts = 0;
        s.run(|tx| {
            attempts += 1;
            tx.write(&o, &999)?;
            if attempts == 1 {
                return Err(Abort(AbortCause::Explicit));
            }
            tx.write(&o, &20)
        });
        assert_eq!(o.read_untracked(), 20);
        // The aborted write of 999 never became the logical value: peek
        // between attempts would have returned 10 via the shadow.
        assert_eq!(s.stats_snapshot().aborts_explicit, 1);
    }

    #[test]
    fn object_footprint_doubles() {
        // 100% space overhead: object with an N-word payload carries 2N
        // words of payload storage.
        let size1 = std::mem::size_of::<ShadowObject<u64>>();
        let size4 = std::mem::size_of::<ShadowObject<(u64, u64)>>();
        // Payload grew by 1 word but storage by 2 words.
        assert_eq!(size4 - size1, 16);
    }

    #[test]
    fn two_threads_increment() {
        let p = Native::new(2);
        let s = ShadowStm::with_defaults(Arc::clone(&p));
        let o = s.alloc(0u64);
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let p = Arc::clone(&p);
                let s = Arc::clone(&s);
                let o = Arc::clone(&o);
                std::thread::spawn(move || {
                    p.register_thread_as(i);
                    for _ in 0..2_000 {
                        s.run(|tx| {
                            let v = tx.read(&o)?;
                            tx.write(&o, &(v + 1))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(o.read_untracked(), 4_000);
    }
}
