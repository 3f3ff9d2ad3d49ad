//! Classic DSTM (Herlihy et al., PODC 2003).
//!
//! Every object is a `TMObject`: **one word** pointing at a locator,
//! which in turn points at old/new data buffers — so reaching the data
//! costs two dependent loads ("each level of indirection is a potential
//! cache miss"). Writers acquire by building a replacement locator and
//! CAS-ing the object's start word; readers here are *visible* (a reader
//! indicator beside the start word — flat bitmap up to 64 threads, striped
//! above that), matching the read-sharing extension the paper gives all
//! its software systems.
//!
//! Aborting a peer uses the same polite AbortNowPlease handshake as the
//! rest of this workspace — but, as in real DSTM, the requester does
//! **not** wait for an acknowledgement: a locator owner's speculative
//! stores land in its private `new_data` buffer, so once its commit is
//! impossible it is as good as aborted. That is why DSTM is nonblocking
//! without any inflation machinery, and what it pays for with
//! indirection.

use nztm_epoch::Guard;
use nztm_core::cm::{ContentionManager, KarmaDeadlock, Resolution};
use nztm_core::data::{snapshot_words, write_words, TmData};
use nztm_core::registry::ThreadRegistry;
use nztm_core::stats::{ThreadStats, TmStats};
use nztm_core::txn::{Abort, AbortCause, Status, TxnDesc};
use nztm_core::util::{Backoff, PerCore};
use nztm_core::{ReaderIndicator, ReaderVisit, TmSys, WordBuf};
use nztm_sim::{AccessKind, DetRng, Platform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A DSTM locator: owner + old/new data buffers.
struct DstmLocator {
    owner: Arc<TxnDesc>,
    old_data: Arc<WordBuf>,
    new_data: Arc<WordBuf>,
    /// Synthetic address: the locator is the *first* level of
    /// indirection, a separate cache line from the object.
    synth: usize,
}

impl DstmLocator {
    /// The buffer holding the logical value under the DSTM rule.
    fn current(&self) -> &Arc<WordBuf> {
        match self.owner.status() {
            Status::Committed => &self.new_data,
            _ => &self.old_data,
        }
    }
}

/// Type-erased DSTM object internals.
struct DstmHeader {
    /// Pointer to the current `DstmLocator` (one strong count).
    start: AtomicU64,
    /// Visible-reader indicator: flat bitmap ≤ 64 threads, striped above.
    /// Its home address is the TMObject word's synthetic address.
    readers: ReaderIndicator,
}

/// Monomorphic release fn for the epoch's allocation-free `defer_fn`:
/// `arg` is a raw `Arc<DstmLocator>` pointer carrying one strong count.
unsafe fn release_locator_arc(arg: u64) {
    unsafe { drop(Arc::from_raw(arg as *const DstmLocator)) };
}

impl DstmHeader {
    fn addr(&self) -> usize {
        self.readers.summary_addr()
    }

    fn locator<'g>(&self, _guard: &'g Guard) -> (&'g DstmLocator, u64) {
        let raw = self.start.load(Ordering::SeqCst);
        debug_assert_ne!(raw, 0);
        (unsafe { &*(raw as *const DstmLocator) }, raw)
    }

    fn cas_locator(&self, expected: u64, new: &Arc<DstmLocator>, guard: &Guard) -> bool {
        let new_raw = Arc::into_raw(Arc::clone(new)) as u64;
        match self.start.compare_exchange(expected, new_raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                // SAFETY: the CAS unlinked `expected`, which carried one
                // strong count; only threads pinned now can still hold it.
                unsafe { guard.defer_fn(release_locator_arc, expected) };
                true
            }
            Err(_) => {
                unsafe { drop(Arc::from_raw(new_raw as *const DstmLocator)) };
                false
            }
        }
    }
}

impl Drop for DstmHeader {
    fn drop(&mut self) {
        let raw = *self.start.get_mut();
        if raw != 0 {
            unsafe { drop(Arc::from_raw(raw as *const DstmLocator)) };
        }
    }
}

/// A transactional object managed by [`Dstm`].
pub struct DstmObject<T: TmData> {
    header: DstmHeader,
    _marker: std::marker::PhantomData<T>,
}

impl<T: TmData> DstmObject<T> {
    fn new(init: T, reader_capacity: usize) -> Arc<Self> {
        let buf = WordBuf::zeroed(T::n_words());
        let mut scratch = vec![0u64; T::n_words()];
        init.encode(&mut scratch);
        write_words(buf.words(), &scratch);
        // Initial locator: a committed pseudo-transaction owning `init`.
        let committed = Arc::new(TxnDesc::new(u32::MAX, 0));
        assert!(committed.try_commit());
        let loc = Arc::new(DstmLocator {
            owner: committed,
            old_data: Arc::clone(&buf),
            new_data: buf,
            synth: nztm_sim::synth_alloc_as(64, nztm_sim::StructClass::Locators),
        });
        // Header line first, then (striped mode only) the stripe lines, so
        // ≤ 64-thread address sequences are byte-identical to the flat-bitmap
        // layout.
        let synth = nztm_sim::synth_alloc_as(64, nztm_sim::StructClass::ObjHeaders);
        Arc::new(DstmObject {
            header: DstmHeader {
                start: AtomicU64::new(Arc::into_raw(loc) as u64),
                readers: ReaderIndicator::new(reader_capacity, synth),
            },
            _marker: std::marker::PhantomData,
        })
    }

    /// Non-transactional read of the logical value (setup/verification).
    pub fn read_untracked(&self) -> T {
        let guard = nztm_epoch::pin();
        let (loc, _) = self.header.locator(&guard);
        let mut scratch = vec![0u64; T::n_words()];
        snapshot_words(loc.current().words(), &mut scratch);
        T::decode(&scratch)
    }
}

struct WriteEntry {
    header: *const DstmHeader,
    loc: Arc<DstmLocator>,
    /// Keeps the object (hence `header`) alive for the entry's lifetime;
    /// never read, only held.
    #[allow(dead_code)]
    keepalive: Arc<dyn Send + Sync>,
}

struct ReadEntry {
    header: *const DstmHeader,
    /// See `WriteEntry::keepalive`.
    #[allow(dead_code)]
    keepalive: Arc<dyn Send + Sync>,
}

// Safety: the raw header pointers are kept valid by the `keepalive`
// Arcs stored alongside them, and `DstmHeader` is Sync.
unsafe impl Send for WriteEntry {}
unsafe impl Send for ReadEntry {}

struct ThreadCtx {
    current: Option<Arc<TxnDesc>>,
    serial: u64,
    write_set: Vec<WriteEntry>,
    read_set: Vec<ReadEntry>,
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
            rng: DetRng::new(0xD5D5_0000 + tid as u64),
            backoff: Backoff::new(),
            stats,
            scratch: Vec::with_capacity(64),
        }
    }
}

/// The DSTM engine.
pub struct Dstm<P: Platform> {
    platform: Arc<P>,
    cm: Arc<dyn ContentionManager>,
    registry: ThreadRegistry,
    threads: PerCore<ThreadCtx>,
    /// Shared view of the per-thread counters (single-writer atomics),
    /// so snapshots never alias the owners' `&mut ThreadCtx`.
    thread_stats: Box<[Arc<ThreadStats>]>,
}

impl<P: Platform> Dstm<P> {
    pub fn new(platform: Arc<P>, cm: Arc<dyn ContentionManager>) -> Arc<Self> {
        let n = platform.n_cores();
        let thread_stats: Box<[Arc<ThreadStats>]> =
            (0..n).map(|_| Arc::new(ThreadStats::default())).collect();
        Arc::new(Dstm {
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
        Dstm::new(platform, Arc::new(KarmaDeadlock::default()))
    }

    pub fn run<R>(&self, mut f: impl FnMut(&mut DstmTx<'_, P>) -> Result<R, Abort>) -> R {
        let tid = self.platform.core_id();
        let ctx = unsafe { self.threads.get(tid) };
        loop {
            self.begin(ctx, tid);
            let mut tx = DstmTx { sys: self, ctx, tid };
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
            self.clear_reader_bits(ctx, tid);
            ctx.write_set.clear();
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
            // Safety: keepalive holds the object.
            let h = unsafe { &*r.header };
            self.platform.mem_nb(h.readers.word_addr(tid), 8, AccessKind::Rmw);
            h.readers.remove(tid);
        }
    }

    /// Resolve a conflict with the active owner of a locator. Never waits
    /// for an acknowledgement (see module docs).
    fn resolve(&self, ctx: &mut ThreadCtx, owner: &TxnDesc) -> Result<(), Abort> {
        let me = Arc::clone(Self::me(ctx));
        ctx.stats.conflicts.bump();
        let mut waited = 0u64;
        loop {
            self.validate(ctx)?;
            self.platform.mem(owner.addr(), 8, AccessKind::Read);
            if owner.status() != Status::Active {
                me.set_waiting(false);
                return Ok(());
            }
            match self.cm.resolve(&me, owner, waited) {
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
                    self.platform.mem(owner.addr(), 8, AccessKind::Rmw);
                    owner.request_abort();
                    self.validate(ctx)?;
                    return Ok(());
                }
            }
        }
    }

    fn request_readers(&self, ctx: &mut ThreadCtx, h: &DstmHeader, tid: usize, guard: &Guard) -> Result<(), Abort> {
        self.platform.mem(h.addr(), 8, AccessKind::Read);
        let me = Arc::as_ptr(Self::me(ctx));
        h.readers.visit_readers(tid, |step| match step {
            ReaderVisit::Stripe { addr, .. } => {
                self.platform.mem(addr, 8, AccessKind::Read);
            }
            ReaderVisit::Reader { tid: t } => {
                self.platform.mem(self.registry.slot_addr(t), 8, AccessKind::Read);
                if let Some(d) = self.registry.current(t, guard) {
                    if !std::ptr::eq(d, me) && d.status() == Status::Active {
                        self.platform.mem(d.addr(), 8, AccessKind::Rmw);
                        d.request_abort();
                        ctx.stats.abort_requests_sent.bump();
                    }
                }
            }
        });
        self.validate(ctx)
    }

    /// Acquire for writing: install a locator owned by us; returns its
    /// write-set index.
    fn acquire<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<DstmObject<T>>,
    ) -> Result<usize, Abort> {
        self.validate(ctx)?;
        let me = Arc::clone(Self::me(ctx));
        let h = &obj.header;
        if let Some(i) = ctx.write_set.iter().position(|w| std::ptr::eq(w.header, h)) {
            return Ok(i);
        }
        loop {
            let guard = nztm_epoch::pin();
            // Two dependent loads to reach the data: start word, then the
            // locator, then (below) the buffer.
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            let (loc, raw) = h.locator(&guard);
            self.platform.mem(loc.synth, 8, AccessKind::Read);
            let (st, anp) = loc.owner.state_snapshot();
            if st == Status::Active && !anp {
                self.resolve(ctx, &loc.owner)?;
                continue;
            }
            let value = loc.current();
            let n = value.len();
            let new = WordBuf::from_words(value.words());
            self.platform.mem_nb(value.addr(), n * 8, AccessKind::Read);
            self.platform.mem_nb(new.addr(), n * 8, AccessKind::Write);
            let mine = Arc::new(DstmLocator {
                owner: Arc::clone(&me),
                old_data: Arc::clone(value),
                new_data: new,
                synth: nztm_sim::synth_alloc_as(64, nztm_sim::StructClass::Locators),
            });
            self.platform.mem(h.addr(), 8, AccessKind::Rmw);
            if h.cas_locator(raw, &mine, &guard) {
                me.gained_object();
                ctx.stats.acquires.bump();
                self.request_readers(ctx, h, tid, &guard)?;
                let keepalive: Arc<dyn Send + Sync> = obj.clone();
                ctx.write_set.push(WriteEntry { header: h, loc: mine, keepalive });
                self.validate(ctx)?;
                return Ok(ctx.write_set.len() - 1);
            }
        }
    }

    fn read_value<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<DstmObject<T>>,
    ) -> Result<T, Abort> {
        self.validate(ctx)?;
        ctx.stats.reads.bump();
        let me_ptr = Arc::as_ptr(Self::me(ctx));
        let h = &obj.header;
        let n = T::n_words();
        let mut registered = false;
        loop {
            let guard = nztm_epoch::pin();
            if !registered {
                self.platform.mem(h.readers.word_addr(tid), 8, AccessKind::Rmw);
                if h.readers.add(tid) {
                    self.platform.mem_nb(h.addr(), 8, AccessKind::Rmw);
                }
                let keepalive: Arc<dyn Send + Sync> = obj.clone();
                ctx.read_set.push(ReadEntry { header: h, keepalive });
                registered = true;
            }
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            let (loc, raw) = h.locator(&guard);
            self.platform.mem(loc.synth, 8, AccessKind::Read);
            let src = if std::ptr::eq(loc.owner.as_ref(), me_ptr) {
                &loc.new_data
            } else {
                let (st, anp) = loc.owner.state_snapshot();
                if st == Status::Active && !anp {
                    self.resolve(ctx, &loc.owner)?;
                    continue;
                }
                loc.current()
            };
            ctx.scratch.clear();
            ctx.scratch.resize(n, 0);
            self.platform.mem_nb(src.addr(), n * 8, AccessKind::Read);
            snapshot_words(src.words(), &mut ctx.scratch);
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            if h.start.load(Ordering::SeqCst) != raw {
                continue;
            }
            self.validate(ctx)?;
            return Ok(T::decode(&ctx.scratch));
        }
    }

    fn write_value<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<DstmObject<T>>,
        v: &T,
    ) -> Result<(), Abort> {
        let i = self.acquire(ctx, tid, obj)?;
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        v.encode(&mut ctx.scratch);
        let buf = Arc::clone(&ctx.write_set[i].loc.new_data);
        self.platform.mem_nb(buf.addr(), n * 8, AccessKind::Write);
        write_words(buf.words(), &ctx.scratch);
        self.validate(ctx)
    }
}

/// In-flight DSTM transaction.
pub struct DstmTx<'s, P: Platform> {
    sys: &'s Dstm<P>,
    ctx: *mut ThreadCtx,
    tid: usize,
}

impl<'s, P: Platform> DstmTx<'s, P> {
    fn ctx(&mut self) -> &mut ThreadCtx {
        unsafe { &mut *self.ctx }
    }

    pub fn read<T: TmData>(&mut self, obj: &Arc<DstmObject<T>>) -> Result<T, Abort> {
        let (sys, tid) = (self.sys, self.tid);
        sys.read_value(self.ctx(), tid, obj)
    }

    pub fn write<T: TmData>(&mut self, obj: &Arc<DstmObject<T>>, v: &T) -> Result<(), Abort> {
        let (sys, tid) = (self.sys, self.tid);
        sys.write_value(self.ctx(), tid, obj, v)
    }
}

impl<P: Platform> TmSys for Dstm<P> {
    type Obj<T: TmData> = Arc<DstmObject<T>>;
    type Tx<'t> = DstmTx<'t, P>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        DstmObject::new(init, self.registry.len())
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
        "DSTM"
    }
}

// Safety: raw header pointers in read/write sets are kept alive by the
// `keepalive` Arcs stored alongside them.
unsafe impl<'s, P: Platform> Send for DstmTx<'s, P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::Native;

    fn sys() -> (Arc<Native>, Arc<Dstm<Native>>) {
        let p = Native::new(1);
        p.register_thread();
        let s = Dstm::with_defaults(Arc::clone(&p));
        (p, s)
    }

    #[test]
    fn initial_value_readable() {
        let (_p, s) = sys();
        let o = s.alloc(41u64);
        assert_eq!(Dstm::<Native>::peek(&o), 41);
    }

    #[test]
    fn read_write_commit() {
        let (_p, s) = sys();
        let o = s.alloc(1u64);
        let r = s.run(|tx| {
            let v = tx.read(&o)?;
            tx.write(&o, &(v + 9))?;
            Ok(v)
        });
        assert_eq!(r, 1);
        assert_eq!(o.read_untracked(), 10);
        assert_eq!(s.stats_snapshot().commits, 1);
    }

    #[test]
    fn read_own_write() {
        let (_p, s) = sys();
        let o = s.alloc(1u64);
        s.run(|tx| {
            tx.write(&o, &5)?;
            assert_eq!(tx.read(&o)?, 5, "must see own speculative write");
            Ok(())
        });
    }

    #[test]
    fn aborted_speculation_is_invisible() {
        let (_p, s) = sys();
        let o = s.alloc(1u64);
        let mut attempts = 0;
        s.run(|tx| {
            attempts += 1;
            tx.write(&o, &99)?;
            if attempts == 1 {
                // Simulate an abort request landing on us.
                return Err(Abort(AbortCause::Explicit));
            }
            Ok(())
        });
        assert_eq!(o.read_untracked(), 99);
        assert_eq!(attempts, 2);
        let st = s.stats_snapshot();
        assert_eq!(st.aborts_explicit, 1);
        assert_eq!(st.commits, 1);
    }

    #[test]
    fn two_threads_increment() {
        let p = Native::new(2);
        let s = Dstm::with_defaults(Arc::clone(&p));
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
