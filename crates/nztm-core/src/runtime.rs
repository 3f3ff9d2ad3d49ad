//! Backend-independent transactional interface.
//!
//! The paper evaluates seven systems over the same benchmarks. To make
//! that possible here, all workloads are written against [`TmSys`] — an
//! object-granular transactional interface in the style of DSTM's
//! programming model (which the paper's C model derives from) — and every
//! engine in this workspace (BZSTM, NZSTM, SCSS, NOrec, DSTM2-SF, the
//! global lock, LogTM-SE, and the hybrid) implements it.
//!
//! [`ObjPool`] and [`Handle`] provide the standard object-based-STM idiom
//! for linked data structures: objects live in a pool owned by the data
//! structure and reference each other by pool index (a `Handle`), which
//! encodes as a single data word. This avoids embedding raw pointers in
//! transactional data — the C original leaks or garbage-collects; a pool
//! is the Rust-sound equivalent with the same cache behaviour.

use crate::data::{FieldWord, TmData};
use crate::engine::{ModePolicy, NzStm, NzTx};
use crate::object::NZObject;
use crate::stats::TmStats;
use crate::trace::Trace;
use crate::txn::Abort;
use nztm_sim::Platform;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Object-granular transactional system: the common interface of every
/// TM implementation in this workspace.
///
/// Besides the transactional operations, `TmSys` is the workspace's
/// *observability surface*: [`TmSys::stats_snapshot`] merges per-thread
/// counters at any time, and [`TmSys::set_tracing`]/[`TmSys::take_trace`]
/// drive the flight recorder ([`crate::trace`]) on engines that record
/// events (BZSTM/NZSTM/SCSS and the hybrid; reference systems keep the
/// no-op defaults).
pub trait TmSys: Send + Sync + Sized + 'static {
    /// Container type for a transactional object holding a `T`.
    type Obj<T: TmData>: Send + Sync + 'static;
    /// In-flight transaction handle.
    type Tx<'t>;

    /// Allocate a transactional object.
    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T>;

    /// Non-transactional read (setup / post-run verification only).
    fn peek<T: TmData>(obj: &Self::Obj<T>) -> T;

    /// Run `f` as a transaction, retrying until it commits.
    ///
    /// Takes the closure by value (like `NzStm::run`); `&mut closure`
    /// still works since `&mut F: FnMut` when `F: FnMut`.
    fn execute<R>(&self, f: impl FnMut(&mut Self::Tx<'_>) -> Result<R, Abort>) -> R;

    /// Transactional read.
    fn read<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>) -> Result<T, Abort>;

    /// Transactional overwrite.
    fn write<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>, v: &T) -> Result<(), Abort>;

    /// Publish an ADT-level operation descriptor (see [`crate::adt`]):
    /// a transactional data structure announces the *logical* operation
    /// (structure, op kind, key) it is about to perform, so engines can
    /// attribute conflicts and throughput to operations on keys instead
    /// of raw word accesses. Observability-only; the default is a no-op
    /// (reference systems, or engines without the hook).
    fn note_adt_op(tx: &mut Self::Tx<'_>, desc: crate::adt::AdtOpDesc) {
        let _ = (tx, desc);
    }

    /// Merged statistics. Safe to call from any thread at any time —
    /// implementations merge single-writer per-thread counters on read.
    fn stats_snapshot(&self) -> TmStats;

    /// Reset statistics. Quiescent-only for exactness: increments racing
    /// with the reset can be lost.
    fn reset_stats(&self);

    /// Arm or disarm flight-recorder event capture. Default: no-op (for
    /// systems without a recorder, or with the `trace` feature off).
    fn set_tracing(&self, on: bool) {
        let _ = on;
    }

    /// Drain and merge the per-thread event rings (quiescent-only).
    /// Default: an empty trace.
    fn take_trace(&self) -> Trace {
        Trace::default()
    }

    /// Human-readable system name ("NZSTM", "BZSTM", ...).
    fn name(&self) -> &'static str;
}

impl<P: Platform, M: ModePolicy> TmSys for NzStm<P, M> {
    type Obj<T: TmData> = Arc<NZObject<T>>;
    type Tx<'t> = NzTx<P, M>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        self.new_obj(init)
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
        tx.note_adt_op(desc)
    }

    fn stats_snapshot(&self) -> TmStats {
        NzStm::stats_snapshot(self)
    }

    fn reset_stats(&self) {
        NzStm::reset_stats(self)
    }

    fn set_tracing(&self, on: bool) {
        NzStm::set_tracing(self, on)
    }

    fn take_trace(&self) -> Trace {
        NzStm::take_trace(self)
    }

    fn name(&self) -> &'static str {
        self.mode_name()
    }
}

/// A typed index into an [`ObjPool`]. Encodes as one data word, so linked
/// data structures can store references to other transactional objects
/// inside their transactional data.
pub struct Handle<T>(u32, PhantomData<fn() -> T>);

impl<T> Handle<T> {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Handle<T> {}
impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.0)
    }
}
impl<T> std::hash::Hash for Handle<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<T: 'static> FieldWord for Handle<T> {
    fn to_word(self) -> u64 {
        self.0 as u64
    }
    fn from_word(w: u64) -> Self {
        Handle(w as u32, PhantomData)
    }
}

/// Slots per [`ObjPool`] chunk.
const CHUNK: usize = 4096;

/// One [`ObjPool`] slot.
type Slot<S, T> = OnceLock<<S as TmSys>::Obj<T>>;

/// A fixed-capacity, append-only pool of transactional objects, owned by
/// a data structure. Allocation is lock-free (bump index + per-slot
/// `OnceLock`); lookup is wait-free.
///
/// Slots come in chunks of 4096, built by the first allocation that
/// lands in a chunk, so a pool sized well above what a run consumes
/// costs one pointer per chunk until it is used. Chunk installation is a
/// CAS rather than a `OnceLock`, whose initializer makes concurrent
/// callers wait: a thread that loses the race frees its own chunk and
/// uses the winner's, so no allocating thread ever waits for another.
pub struct ObjPool<S: TmSys, T: TmData> {
    /// First slot of each chunk; null until the chunk is built. Chunk
    /// `c` holds `chunk_len(c)` slots.
    chunks: Box<[AtomicPtr<Slot<S, T>>]>,
    capacity: usize,
    next: AtomicUsize,
    _owns: PhantomData<Slot<S, T>>,
}

impl<S: TmSys, T: TmData> ObjPool<S, T> {
    /// Create a pool able to hold `capacity` objects. Panics above
    /// `u32::MAX`: a [`Handle`] is a `u32` index.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity <= u32::MAX as usize,
            "ObjPool capacity {capacity} exceeds the u32 handle space"
        );
        ObjPool {
            chunks: (0..capacity.div_ceil(CHUNK)).map(|_| AtomicPtr::default()).collect(),
            capacity,
            next: AtomicUsize::new(0),
            _owns: PhantomData,
        }
    }

    /// Slots in chunk `c`: all but the last chunk are full.
    fn chunk_len(&self, c: usize) -> usize {
        CHUNK.min(self.capacity - c * CHUNK)
    }

    /// Chunk `c`'s slots, if it has been built.
    fn chunk(&self, c: usize) -> Option<&[Slot<S, T>]> {
        let ptr = self.chunks[c].load(Ordering::Acquire);
        // SAFETY: a non-null chunk pointer came from a `Box<[_]>` of
        // `chunk_len(c)` slots and is freed only by `Drop`.
        (!ptr.is_null()).then(|| unsafe { std::slice::from_raw_parts(ptr, self.chunk_len(c)) })
    }

    /// Chunk `c`'s slots, building the chunk if no allocation has yet.
    fn chunk_or_build(&self, c: usize) -> &[Slot<S, T>] {
        if let Some(slots) = self.chunk(c) {
            return slots;
        }
        let len = self.chunk_len(c);
        let fresh: Box<[Slot<S, T>]> = (0..len).map(|_| OnceLock::new()).collect();
        let fresh = Box::into_raw(fresh) as *mut Slot<S, T>;
        let installed = self.chunks[c].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if installed.is_err() {
            // SAFETY: `fresh` lost the race and was never published.
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, len)) });
        }
        self.chunk(c).expect("chunk installed above")
    }

    /// Allocate a fresh object initialized to `init`.
    ///
    /// Allocation happens *outside* transactional control (as in DSTM-era
    /// benchmarks), and a slot is never handed out twice. A structure that
    /// removes objects reuses them itself, through transactional free
    /// lists (as `nztm-tds` does), so the only garbage left in the pool is
    /// objects allocated by attempts that later aborted.
    pub fn alloc(&self, sys: &S, init: T) -> Handle<T> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            i < self.capacity,
            "ObjPool capacity {} exhausted — size the pool for the workload",
            self.capacity
        );
        let obj = sys.alloc(init);
        self.chunk_or_build(i / CHUNK)[i % CHUNK]
            .set(obj)
            .unwrap_or_else(|_| unreachable!("slot {i} double-initialized"));
        Handle(i as u32, PhantomData)
    }

    /// Look up a handle.
    pub fn get(&self, h: Handle<T>) -> &S::Obj<T> {
        let i = h.index();
        self.chunk(i / CHUNK)
            .and_then(|slots| slots[i % CHUNK].get())
            .expect("dangling handle: slot never allocated")
    }

    /// Number of objects allocated so far.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.capacity)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<S: TmSys, T: TmData> Drop for ObjPool<S, T> {
    fn drop(&mut self) {
        for c in 0..self.chunks.len() {
            let ptr = *self.chunks[c].get_mut();
            if !ptr.is_null() {
                let len = self.chunk_len(c);
                // SAFETY: built by `chunk_or_build` from a `Box<[_]>` of
                // `len` slots; no reference outlives `&mut self`.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Nonblocking;
    use nztm_sim::Native;

    type Sys = NzStm<Native, Nonblocking>;

    fn sys() -> Arc<Sys> {
        let p = Native::new(1);
        p.register_thread();
        crate::builder::NzBuilder::new(p).build()
    }

    #[test]
    fn handle_encodes_as_word() {
        let h = Handle::<u64>(7, PhantomData);
        assert_eq!(h.to_word(), 7);
        assert_eq!(Handle::<u64>::from_word(7), h);
        assert_eq!(h.index(), 7);
    }

    #[test]
    fn option_handle_round_trips() {
        let h: Option<Handle<u64>> = Some(Handle(0, PhantomData));
        let w = h.to_word();
        assert_eq!(Option::<Handle<u64>>::from_word(w), h);
        assert_eq!(Option::<Handle<u64>>::from_word(Option::<Handle<u64>>::to_word(None)), None);
    }

    #[test]
    fn pool_alloc_get_round_trip() {
        let s = sys();
        let pool: ObjPool<Sys, u64> = ObjPool::new(4);
        let a = pool.alloc(&s, 11);
        let b = pool.alloc(&s, 22);
        assert_ne!(a, b);
        assert_eq!(Sys::peek(pool.get(a)), 11);
        assert_eq!(Sys::peek(pool.get(b)), 22);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn pool_overflow_panics() {
        let s = sys();
        let pool: ObjPool<Sys, u64> = ObjPool::new(1);
        pool.alloc(&s, 1);
        pool.alloc(&s, 2);
    }

    #[test]
    fn allocations_straddling_chunk_boundaries_resolve_to_their_own_values() {
        let s = sys();
        let pool: ObjPool<Sys, u64> = ObjPool::new(3 * CHUNK);
        let handles: Vec<_> = (0..CHUNK as u64 + 2).map(|v| pool.alloc(&s, v * 10)).collect();
        for i in [0, CHUNK - 1, CHUNK, CHUNK + 1] {
            assert_eq!(handles[i].index(), i);
            assert_eq!(Sys::peek(pool.get(handles[i])), i as u64 * 10, "slot {i}");
        }
        assert_eq!(pool.len(), CHUNK + 2);
        assert!(pool.chunk(2).is_none(), "chunks are built on first use");
    }

    #[test]
    fn concurrent_allocation_across_chunks_yields_distinct_resolving_handles() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2 * CHUNK + 100;
        let s = sys();
        let pool: ObjPool<Sys, u64> = ObjPool::new(THREADS * PER_THREAD);
        let per_thread: Vec<Vec<(Handle<u64>, u64)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, pool) = (&s, &pool);
                    scope.spawn(move || {
                        (0..PER_THREAD as u64)
                            .map(|k| {
                                let v = (t as u64) << 32 | k;
                                (pool.alloc(s, v), v)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut seen = std::collections::HashSet::new();
        for (h, v) in per_thread.into_iter().flatten() {
            assert!(seen.insert(h), "handle {h:?} handed out twice");
            assert_eq!(Sys::peek(pool.get(h)), v);
        }
        assert_eq!(seen.len(), pool.capacity());
        assert_eq!(pool.len(), pool.capacity());
    }

    #[test]
    #[should_panic(expected = "ObjPool capacity 4101 exhausted")]
    fn partial_last_chunk_is_exhausted_at_exactly_capacity() {
        let s = sys();
        let pool: ObjPool<Sys, u64> = ObjPool::new(CHUNK + 5);
        for v in 0..CHUNK as u64 + 5 {
            pool.alloc(&s, v);
        }
        assert_eq!(pool.len(), CHUNK + 5);
        pool.alloc(&s, 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceeds the u32 handle space")]
    fn capacity_beyond_the_handle_space_is_rejected() {
        let _ = ObjPool::<Sys, u64>::new(u32::MAX as usize + 1);
    }

    #[test]
    fn tmsys_round_trip_through_trait() {
        let s = sys();
        let obj = s.alloc(5u64);
        let got = s.execute(|tx| {
            let v = Sys::read(tx, &obj)?;
            Sys::write(tx, &obj, &(v * 2))?;
            Ok(v)
        });
        assert_eq!(got, 5);
        assert_eq!(Sys::peek(&obj), 10);
        assert_eq!(s.stats_snapshot().commits, 1);
        assert_eq!(s.name(), "NZSTM");
    }

    #[test]
    fn mut_closure_still_accepted_by_execute() {
        // `&mut F` is itself `FnMut`, so pre-redesign call sites that
        // passed `&mut |tx| ...` keep compiling.
        let s = sys();
        let obj = s.alloc(1u64);
        let mut f = |tx: &mut <Sys as TmSys>::Tx<'_>| {
            let v = Sys::read(tx, &obj)?;
            Sys::write(tx, &obj, &(v + 1))?;
            Ok(())
        };
        s.execute(&mut f);
        s.execute(f);
        assert_eq!(Sys::peek(&obj), 3);
    }
}
