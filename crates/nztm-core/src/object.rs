//! The `NZObject`: collocated metadata + in-place data (paper Figure 1).
//!
//! Layout (all inline, no indirection to reach the data):
//!
//! ```text
//! +-----------------+  \
//! | Owner (tagged)  |   |
//! | Backup Data ptr |   |  metadata words: the four of Figure 1,
//! | Readers bitmap  |   |  plus the synthetic address
//! | (synth address) |   |  (40-byte NZHeader)
//! | Version         |  /
//! | Data word 0     |  \
//! | ...             |   |  data, in place, at a fixed offset
//! | Data word N-1   |  /
//! +-----------------+
//! ```
//!
//! The extra word is the object's synthetic base address, which the
//! simulator's cache model charges instead of host addresses; it sits
//! next to the reader bitmap inside the [`ReaderIndicator`]. `NZObject`
//! is naturally aligned, so `Arc::new` takes `malloc`'s fast path: a
//! `u64` object is 48 bytes, 64 with the `Arc` counts.
//!
//! * **Owner** — `0` when unowned; a pointer to the last acquiring
//!   [`TxnDesc`] when the low bit is clear; a pointer to a
//!   [`Locator`] with the low bit set when the
//!   object has been *inflated* (paper Figure 2: "The Owner's low order
//!   bit indicates how the object is interpreted"). A transaction owner
//!   is live or aborted: a software transaction that commits clears its
//!   own owner words, as the hybrid's hardware path clears settled ones
//!   (§2.4). A committed owner is seen only in the window between its
//!   commit and that release, or after a later acquirer displaced it.
//! * **Backup Data** — points to the backup copy created by the last
//!   acquiring writer; restored lazily if that writer aborted. Backup
//!   buffers come from a per-thread pool and are reclaimed by successful
//!   committers, reproducing the cache-locality property of §4.4.2. An
//!   unowned object has no backup: the committer takes its buffer back
//!   before it releases the owner word, and the hardware repair detaches
//!   the backup when it sets the owner to `NULL`.
//! * **Readers** — visible-reader indicator, the read-sharing mechanism
//!   referenced in §2/§2.4: the paper's inline bitmap word, one bit per
//!   thread, which is why a TM system hosts at most
//!   [`crate::readers::MAX_THREADS`] threads.
//! * **Version** — bumped on each exclusive acquisition; only consumed by
//!   the invisible-reader *extension*, ignored by the paper's algorithms.
//!   The acquirer checks the version its bump displaced: an owner word
//!   that went `0 → T → 0` between a writer's check and its CAS leaves
//!   only the version behind.
//! * **Clone()** — the paper stores a clone-function pointer; in Rust the
//!   role is played by the `TmData` impl, monomorphized away.
//!
//! ## Pointer discipline
//!
//! The owner and backup words hold raw pointers that each carry one
//! strong `Arc` count. Whoever removes a pointer from a field (CAS)
//! becomes responsible for that count and **defers** the drop through
//! `nztm-epoch` (the workspace's own epoch collector), so any thread that
//! loaded the pointer under an epoch pin can still dereference it
//! safely. This is the Rust-sound replacement for the C original's
//! leak-or-GC discipline.

use crate::data::{TmData, WordArray};
use crate::locator::Locator;
use crate::readers::ReaderIndicator;
use crate::txn::TxnDesc;
use nztm_epoch::Guard;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// Monomorphic release functions for the epoch's allocation-free
// `defer_fn` path: the argument is a raw pointer (one strong count)
// smuggled as a word. These run on the hot path's behalf millions of
// times; boxing a closure for each would reintroduce a per-access heap
// allocation.
pub(crate) unsafe fn release_txn_arc(arg: u64) {
    unsafe { drop(Arc::from_raw(arg as *const TxnDesc)) };
}
pub(crate) unsafe fn release_locator_arc(arg: u64) {
    unsafe { drop(Arc::from_raw(arg as *const Locator)) };
}
pub(crate) unsafe fn release_wordbuf_arc(arg: u64) {
    unsafe { drop(Arc::from_raw(arg as *const WordBuf)) };
}

/// A reference-counted buffer of atomic words (backup copies, locator
/// old/new data). Contents are mutated only by the buffer's current
/// logical owner; stale readers may race on the words (benign — they
/// validate afterwards).
///
/// The word storage is 64-byte aligned and padded to whole cache lines,
/// so a buffer never shares a host line with another allocation — the
/// property the simulator's deterministic line translation relies on.
pub struct WordBuf {
    ptr: std::ptr::NonNull<AtomicU64>,
    /// Allocated capacity in words: a power of two, ≥ 8 (one cache
    /// line). Capacity — not length — determines the allocation layout
    /// and the engine pool's size class, so a recycled buffer can serve
    /// any object whose word count fits the class.
    cap: usize,
    /// Current logical length, ≤ `cap`. Atomic because an epoch-pinned
    /// *stale* reader may still call `words()` while the pool resizes a
    /// recycled buffer for its next life; the reader's slice stays within
    /// `cap` either way, and its contents are discarded by revalidation.
    len: AtomicUsize,
    synth: usize,
    /// Raw pointer (one strong `Arc` count) to the transaction that
    /// *installed* this buffer as an object's backup; 0 = none. Needed
    /// to close a subtle stale-backup race: after a committed owner's
    /// backup-detach races with a new acquirer, the backup field can
    /// transiently point at a buffer whose contents predate the
    /// committed value. The rule (`usable_as_backup`): a backup may be
    /// restored **only if its installer did not commit** — a committed
    /// installer's value lives in the in-place data, making the buffer
    /// stale; an active or aborted installer's buffer holds the
    /// pre-transaction (still logical) value.
    installer: AtomicU64,
}

unsafe impl Send for WordBuf {}
unsafe impl Sync for WordBuf {}

impl WordBuf {
    /// Word capacity backing a buffer of logical length `len`: next power
    /// of two, floored at 8 words (one 64-byte line). Power-of-two
    /// capacities are what make the engine's size-class pool exact.
    pub fn cap_for(len: usize) -> usize {
        len.max(1).next_power_of_two().max(8)
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(cap * 8, 64).expect("valid WordBuf layout")
    }

    pub fn zeroed(len: usize) -> Arc<Self> {
        let cap = Self::cap_for(len);
        let synth = nztm_sim::synth_alloc_as(cap * 8, nztm_sim::StructClass::WordBufs);
        // Safety: AtomicU64 is valid when zero-initialized.
        let ptr = unsafe { std::alloc::alloc_zeroed(Self::layout(cap)) } as *mut AtomicU64;
        let ptr = std::ptr::NonNull::new(ptr).expect("WordBuf allocation failed");
        Arc::new(WordBuf {
            ptr,
            cap,
            len: AtomicUsize::new(len),
            synth,
            installer: AtomicU64::new(0),
        })
    }

    pub fn from_words(src: &[AtomicU64]) -> Arc<Self> {
        let buf = Self::zeroed(src.len());
        crate::data::copy_words(buf.words(), src);
        buf
    }

    pub fn words(&self) -> &[AtomicU64] {
        // The length is loaded once, so the slice is internally
        // consistent and bounded by `cap` even if a pool resize races
        // (see the `len` field docs).
        let len = self.len.load(Ordering::Relaxed);
        debug_assert!(len <= self.cap);
        // Safety: `ptr` is valid for `cap ≥ len` initialized atomics for
        // the lifetime of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), len) }
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated capacity in words (power of two, ≥ 8).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Retarget a recycled buffer to logical length `len` (≤ `cap`).
    /// Called by the engine's size-class pool when handing the buffer to
    /// a new backup of a different word count; contents are overwritten
    /// by the subsequent copy before the buffer is published.
    pub(crate) fn set_len(&self, len: usize) {
        assert!(len <= self.cap, "set_len beyond capacity");
        self.len.store(len, Ordering::Relaxed);
    }

    /// Synthetic address used for cache-model charging.
    pub fn addr(&self) -> usize {
        self.synth
    }

    /// Record `me` as this buffer's installer (adopting the buffer as
    /// `me`'s backup). Swaps in a fresh strong count; the displaced
    /// installer's count is released through the epoch because stale
    /// readers may be dereferencing it concurrently.
    pub fn set_installer(&self, me: &Arc<TxnDesc>, guard: &Guard) {
        let new_raw = Arc::into_raw(Arc::clone(me)) as u64;
        let old = self.installer.swap(new_raw, Ordering::SeqCst);
        if old != 0 {
            unsafe { guard.defer_fn(release_txn_arc, old) };
        }
    }

    /// The installer's current status, if an installer is recorded.
    /// Requires an epoch pin (the installer count may be swapped out and
    /// deferred concurrently).
    pub fn installer_status(&self, _guard: &Guard) -> Option<crate::txn::Status> {
        let raw = self.installer.load(Ordering::SeqCst);
        if raw == 0 {
            None
        } else {
            Some(unsafe { &*(raw as *const TxnDesc) }.status())
        }
    }

    /// Whether this buffer may be restored as a backup: its installer
    /// must not have committed (see the `installer` field docs).
    pub fn usable_as_backup(&self, guard: &Guard) -> bool {
        !matches!(self.installer_status(guard), Some(crate::txn::Status::Committed))
    }
}

impl Drop for WordBuf {
    fn drop(&mut self) {
        let raw = *self.installer.get_mut();
        if raw != 0 {
            unsafe { drop(Arc::from_raw(raw as *const TxnDesc)) };
        }
        unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
    }
}

/// What the owner word currently holds. Borrowed views are valid for the
/// lifetime of the epoch guard they were loaded under.
pub enum OwnerRef<'g> {
    /// Unowned (`NULL` owner).
    None,
    /// Owned by a transaction; `raw` is the exact word value for CAS.
    Txn(&'g TxnDesc, u64),
    /// Inflated; `raw` is the exact word value for CAS (tag bit set).
    Inflated(&'g Locator, u64),
}

/// Low bit of the owner word marking a locator (inflated) pointer.
pub(crate) const INFLATED_TAG: u64 = 1;

/// The metadata head shared by every `NZObject<T>` (type-erased view).
///
/// Five words, 40 bytes: owner, backup, version and the two-word
/// [`ReaderIndicator`], which also holds the object's synthetic base
/// address. In the simulator's address space the metadata occupies
/// `[base, base+32)` and the in-place data starts at `base + 32`, so
/// small objects' metadata and data share one cache line — the
/// collocation property of Figure 1.
pub struct NZHeader {
    owner: AtomicU64,
    backup: AtomicU64,
    readers: ReaderIndicator,
    version: AtomicU64,
}

impl Default for NZHeader {
    fn default() -> Self {
        NZHeader::with_synth(nztm_sim::synth_alloc_as(64, nztm_sim::StructClass::ObjHeaders))
    }
}

impl NZHeader {
    /// Build a header whose synthetic object base is `synth`.
    pub fn with_synth(synth: usize) -> Self {
        NZHeader {
            owner: AtomicU64::new(0),
            backup: AtomicU64::new(0),
            readers: ReaderIndicator::new(synth),
            version: AtomicU64::new(0),
        }
    }
}

impl NZHeader {
    /// Synthetic address of the owner word (cache-model charging: the
    /// metadata words share the object's first line with the first data
    /// words — collocation is the point).
    pub fn addr(&self) -> usize {
        self.readers.addr()
    }

    /// Synthetic address of the in-place data (fixed offset 32 from the
    /// object base).
    pub fn data_synth(&self) -> usize {
        self.addr() + 32
    }

    // ---- owner word ------------------------------------------------------

    /// Load the owner word and classify it.
    ///
    /// The `_guard` parameter enforces that the caller holds an epoch pin
    /// for as long as the returned references are used.
    pub fn owner<'g>(&self, _guard: &'g Guard) -> OwnerRef<'g> {
        let raw = self.owner.load(Ordering::SeqCst);
        if raw == 0 {
            OwnerRef::None
        } else if raw & INFLATED_TAG != 0 {
            let ptr = (raw & !INFLATED_TAG) as *const Locator;
            OwnerRef::Inflated(unsafe { &*ptr }, raw)
        } else {
            OwnerRef::Txn(unsafe { &*(raw as *const TxnDesc) }, raw)
        }
    }

    /// Raw owner word (for equality re-validation).
    pub fn owner_raw(&self) -> u64 {
        self.owner.load(Ordering::SeqCst)
    }

    /// CAS the owner word from `expected` to a transaction pointer,
    /// transferring one strong count of `new` into the field on success
    /// and deferring destruction of whatever `expected` referenced.
    pub fn cas_owner_to_txn(&self, expected: u64, new: &Arc<TxnDesc>, guard: &Guard) -> bool {
        let new_raw = Arc::into_raw(Arc::clone(new)) as u64;
        debug_assert_eq!(new_raw & 0b111, 0, "descriptor under-aligned");
        self.cas_owner_raw(expected, new_raw, guard)
    }

    /// CAS the owner word from `expected` to a locator pointer (tag bit
    /// set — the object becomes *inflated*).
    pub fn cas_owner_to_locator(&self, expected: u64, new: &Arc<Locator>, guard: &Guard) -> bool {
        let new_raw = Arc::into_raw(Arc::clone(new)) as u64;
        debug_assert_eq!(new_raw & 0b111, 0, "locator under-aligned");
        self.cas_owner_raw(expected, new_raw | INFLATED_TAG, guard)
    }

    /// CAS the owner word to NULL: a committer releasing its own
    /// ownership, or the hybrid's hardware path erasing a settled owner
    /// (§2.4).
    pub fn cas_owner_to_null(&self, expected: u64, guard: &Guard) -> bool {
        self.cas_owner_raw(expected, 0, guard)
    }

    fn cas_owner_raw(&self, expected: u64, new_raw: u64, guard: &Guard) -> bool {
        match self.owner.compare_exchange(expected, new_raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                defer_drop_owner_word(expected, guard);
                true
            }
            Err(_) => {
                // We still hold the strong count we minted for `new_raw`;
                // release it (nothing ever saw the pointer).
                drop_owner_word_now(new_raw);
                false
            }
        }
    }

    // ---- backup word -------------------------------------------------------

    /// Load the backup buffer, if any. Valid while the guard is held.
    pub fn backup<'g>(&self, _guard: &'g Guard) -> Option<(&'g WordBuf, u64)> {
        let raw = self.backup.load(Ordering::SeqCst);
        if raw == 0 {
            None
        } else {
            Some((unsafe { &*(raw as *const WordBuf) }, raw))
        }
    }

    pub fn backup_raw(&self) -> u64 {
        self.backup.load(Ordering::SeqCst)
    }

    /// Clone the backup buffer's `Arc`, if installed.
    ///
    /// Sound because the field's strong count cannot be released before
    /// the guard's pin ends (destruction is deferred through the same
    /// epoch), so the count is ≥ 1 while we increment it.
    pub fn backup_arc(&self, _guard: &Guard) -> Option<Arc<WordBuf>> {
        let raw = self.backup.load(Ordering::SeqCst);
        if raw == 0 {
            None
        } else {
            let ptr = raw as *const WordBuf;
            unsafe {
                Arc::increment_strong_count(ptr);
                Some(Arc::from_raw(ptr))
            }
        }
    }

    /// CAS the backup word, deferring destruction of the displaced buffer.
    /// On success the field owns one strong count of `new`.
    pub fn cas_backup(&self, expected: u64, new: Option<&Arc<WordBuf>>, guard: &Guard) -> bool {
        let new_raw = match new {
            Some(b) => Arc::into_raw(Arc::clone(b)) as u64,
            None => 0,
        };
        match self.backup.compare_exchange(expected, new_raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                if expected != 0 {
                    unsafe { guard.defer_fn(release_wordbuf_arc, expected) };
                }
                true
            }
            Err(_) => {
                if new_raw != 0 {
                    unsafe { drop(Arc::from_raw(new_raw as *const WordBuf)) };
                }
                false
            }
        }
    }

    /// Detach the backup buffer *without* dropping it, returning the
    /// owned `Arc` to the caller (commit-time reclamation into the
    /// thread-local pool, §4.4.2). Fails if the field changed.
    pub fn take_backup(&self, expected: u64) -> Option<Arc<WordBuf>> {
        if expected == 0 {
            return None;
        }
        if self
            .backup
            .compare_exchange(expected, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            Some(unsafe { Arc::from_raw(expected as *const WordBuf) })
        } else {
            None
        }
    }

    // ---- visible-reader indicator ------------------------------------------

    /// Register thread `tid` as a visible reader (one RMW on the header
    /// line, [`NZHeader::addr`]).
    pub fn add_reader(&self, tid: usize) {
        self.readers.add(tid)
    }

    /// Deregister thread `tid`. Returns `true` when the registration was
    /// intact (bit still set) — the sanitizer treats `false` as a
    /// protocol violation.
    pub fn remove_reader(&self, tid: usize) -> bool {
        self.readers.remove(tid)
    }

    /// The visible readers other than `skip_tid` (a writer's snapshot).
    pub fn readers_other_than(&self, skip_tid: usize) -> impl Iterator<Item = usize> {
        self.readers.readers_other_than(skip_tid)
    }

    /// True when a thread other than `self_tid` is a visible reader
    /// (the hybrid's hardware-writer check).
    pub fn has_reader_other_than(&self, self_tid: usize) -> bool {
        self.readers.has_reader_other_than(self_tid)
    }

    // ---- version (invisible-reader extension) --------------------------------

    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Bump the version; returns the version it replaced.
    pub fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::SeqCst)
    }
}

impl Drop for NZHeader {
    fn drop(&mut self) {
        // Objects are dropped only when their pool/structure is dropped,
        // after all transactions finished; reclaim synchronously.
        drop_owner_word_now(*self.owner.get_mut());
        let b = *self.backup.get_mut();
        if b != 0 {
            unsafe { drop(Arc::from_raw(b as *const WordBuf)) };
        }
    }
}

fn defer_drop_owner_word(raw: u64, guard: &Guard) {
    if raw == 0 {
        return;
    }
    unsafe {
        if raw & INFLATED_TAG != 0 {
            guard.defer_fn(release_locator_arc, raw & !INFLATED_TAG);
        } else {
            guard.defer_fn(release_txn_arc, raw);
        }
    }
}

fn drop_owner_word_now(raw: u64) {
    if raw == 0 {
        return;
    }
    unsafe {
        if raw & INFLATED_TAG != 0 {
            drop(Arc::from_raw((raw & !INFLATED_TAG) as *const Locator));
        } else {
            drop(Arc::from_raw(raw as *const TxnDesc));
        }
    }
}

/// A transactional object: header + in-place data words.
///
/// Naturally aligned (8 bytes), so allocation is an ordinary `malloc`
/// rather than `posix_memalign`. The simulator charges synthetic
/// addresses, where the header and the first data words share the
/// object's first line and distinct objects never share one, so host
/// placement does not move simulated cycles. On the host two small
/// objects may share a cache line; that costs false sharing natively
/// and, under real RTM, spurious conflict aborts.
pub struct NZObject<T: TmData> {
    header: NZHeader,
    data: T::Words,
}

impl<T: TmData> NZObject<T> {
    /// Allocate an unowned object holding `init`.
    pub fn new(init: T) -> Arc<Self> {
        let obj_bytes = 32 + T::n_words() * 8;
        let base = nztm_sim::synth_alloc(obj_bytes);
        // Attribution split: the first line holds the header words (plus
        // any data words collocated on it — the zero-indirection layout);
        // lines past it are pure data.
        nztm_sim::tag_synth_range(base, obj_bytes.min(64), nztm_sim::StructClass::ObjHeaders);
        if obj_bytes > 64 {
            nztm_sim::tag_synth_range(base + 64, obj_bytes - 64, nztm_sim::StructClass::ObjData);
        }
        let obj: NZObject<T> = NZObject {
            header: NZHeader::with_synth(base),
            data: T::Words::new_zeroed(),
        };
        let mut buf = vec![0u64; T::n_words()];
        init.encode(&mut buf);
        crate::data::write_words(obj.data.words(), &buf);
        Arc::new(obj)
    }

    pub fn header(&self) -> &NZHeader {
        &self.header
    }

    /// In-place data words.
    pub fn data_words(&self) -> &[AtomicU64] {
        self.data.words()
    }

    /// Synthetic address of the first data word (cache charging).
    pub fn data_addr(&self) -> usize {
        self.header.data_synth()
    }

    /// Non-transactional read of the object's **logical** value, derived
    /// exactly as the algorithm derives it: the locator's current buffer
    /// when inflated; the backup under a live or (usably) aborted owner;
    /// otherwise the in-place data. Only safe to *trust* when no
    /// transactions are running (setup/verification) — e.g. at the end
    /// of a run, an object still owned by an aborted transaction holds
    /// dirty in-place words whose undo is pending lazy restore.
    pub fn read_untracked(&self) -> T {
        let guard = nztm_epoch::pin();
        let mut buf = vec![0u64; T::n_words()];
        match self.header.owner(&guard) {
            OwnerRef::Inflated(loc, _) => {
                crate::data::snapshot_words(loc.current_data().words(), &mut buf);
            }
            OwnerRef::Txn(t, _) if t.status() != crate::txn::Status::Committed => {
                match self.header.backup(&guard).filter(|(b, _)| b.usable_as_backup(&guard)) {
                    Some((b, _)) => crate::data::snapshot_words(b.words(), &mut buf),
                    None => crate::data::snapshot_words(self.data.words(), &mut buf),
                }
            }
            _ => crate::data::snapshot_words(self.data.words(), &mut buf),
        }
        T::decode(&buf)
    }
}

/// Type-erased view of an `NZObject<T>`, stored in transaction read/write
/// sets.
pub trait NzObjAny: Send + Sync {
    fn header(&self) -> &NZHeader;
    fn data_words(&self) -> &[AtomicU64];
    fn data_addr(&self) -> usize;
}

impl<T: TmData> NzObjAny for NZObject<T> {
    fn header(&self) -> &NZHeader {
        &self.header
    }
    fn data_words(&self) -> &[AtomicU64] {
        self.data.words()
    }
    fn data_addr(&self) -> usize {
        self.header.data_synth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Status;

    fn desc() -> Arc<TxnDesc> {
        Arc::new(TxnDesc::new(0, 0))
    }

    #[test]
    fn new_object_is_unowned_and_holds_init() {
        let o = NZObject::new(42u64);
        let g = nztm_epoch::pin();
        assert!(matches!(o.header().owner(&g), OwnerRef::None));
        assert_eq!(o.read_untracked(), 42);
        assert!(!o.header().has_reader_other_than(0));
    }

    #[test]
    fn cas_owner_installs_and_reads_back() {
        let o = NZObject::new(1u64);
        let d = desc();
        let g = nztm_epoch::pin();
        assert!(o.header().cas_owner_to_txn(0, &d, &g));
        match o.header().owner(&g) {
            OwnerRef::Txn(t, _) => {
                assert_eq!(t.status(), Status::Active);
                assert!(std::ptr::eq(t, Arc::as_ptr(&d).cast()));
            }
            _ => panic!("expected txn owner"),
        }
    }

    #[test]
    fn cas_owner_fails_on_stale_expected() {
        let o = NZObject::new(1u64);
        let d1 = desc();
        let d2 = desc();
        let g = nztm_epoch::pin();
        assert!(o.header().cas_owner_to_txn(0, &d1, &g));
        assert!(!o.header().cas_owner_to_txn(0, &d2, &g), "stale expected must fail");
        // d2's refcount was not leaked: dropping d2 here must free it
        // (checked by loom-free logic: strong count back to 1).
        assert_eq!(Arc::strong_count(&d2), 1);
    }

    #[test]
    fn owner_replacement_keeps_old_alive_until_epoch() {
        let o = NZObject::new(1u64);
        let d1 = desc();
        let d2 = desc();
        let g = nztm_epoch::pin();
        assert!(o.header().cas_owner_to_txn(0, &d1, &g));
        let raw1 = o.header().owner_raw();
        assert!(o.header().cas_owner_to_txn(raw1, &d2, &g));
        // d1's field count is deferred, not dropped: still ≥ 2 in the
        // worst case, and definitely not 0 — we can still use d1.
        assert_eq!(d1.status(), Status::Active);
        match o.header().owner(&g) {
            OwnerRef::Txn(t, _) => assert!(std::ptr::eq(t, Arc::as_ptr(&d2).cast())),
            _ => panic!(),
        }
    }

    #[test]
    fn locator_tagging_round_trips() {
        let o = NZObject::new(5u64);
        let d = desc();
        let aborted = desc();
        let g = nztm_epoch::pin();
        let old = WordBuf::from_words(o.data_words());
        let new = WordBuf::from_words(o.data_words());
        let loc = Arc::new(Locator::new(Arc::clone(&d), Arc::clone(&aborted), old, new));
        assert!(o.header().cas_owner_to_locator(0, &loc, &g));
        match o.header().owner(&g) {
            OwnerRef::Inflated(l, raw) => {
                assert_eq!(raw & 1, 1, "tag bit set");
                assert!(std::ptr::eq(l.owner(), Arc::as_ptr(&d).cast()));
            }
            _ => panic!("expected inflated"),
        }
    }

    #[test]
    fn backup_install_take_cycle() {
        let o = NZObject::new(7u64);
        let g = nztm_epoch::pin();
        let buf = WordBuf::from_words(o.data_words());
        assert!(o.header().cas_backup(0, Some(&buf), &g));
        let raw = o.header().backup_raw();
        assert_ne!(raw, 0);
        let (b, braw) = o.header().backup(&g).unwrap();
        assert_eq!(braw, raw);
        assert_eq!(b.words()[0].load(Ordering::Relaxed), 7);
        // Take it back (commit-time reclamation).
        let taken = o.header().take_backup(raw).unwrap();
        assert_eq!(taken.words()[0].load(Ordering::Relaxed), 7);
        assert!(o.header().backup(&g).is_none());
        // Second take fails.
        assert!(o.header().take_backup(raw).is_none());
    }

    #[test]
    fn reader_bitmap_set_clear() {
        let o = NZObject::new(0u64);
        let h = o.header();
        h.add_reader(3);
        h.add_reader(5);
        assert_eq!(h.readers_other_than(0).collect::<Vec<_>>(), vec![3, 5]);
        assert!(h.has_reader_other_than(3));
        assert!(h.remove_reader(3));
        assert_eq!(h.readers_other_than(0).collect::<Vec<_>>(), vec![5]);
        assert!(!h.has_reader_other_than(5));
        assert!(h.remove_reader(5));
        assert!(!h.remove_reader(5), "a cleared bit reports a lost registration");
        assert_eq!(h.readers_other_than(0).count(), 0);
    }

    #[test]
    fn default_layout_is_seed_identical() {
        // Each object takes the same synthetic stride, with its data at
        // the fixed offset after the metadata.
        let a = NZObject::new(7u64);
        let b = NZObject::new(7u64);
        let c = NZObject::new(7u64);
        assert_eq!(
            b.header().addr() - a.header().addr(),
            c.header().addr() - b.header().addr()
        );
        assert_eq!(c.data_addr(), c.header().addr() + 32);
    }

    #[test]
    fn header_is_five_words_and_objects_take_malloc_alignment() {
        assert_eq!(std::mem::size_of::<NZHeader>(), 40, "owner, backup, version + 2-word indicator");
        // Above 16 bytes `Arc::new` leaves malloc's fast path for
        // `posix_memalign`.
        assert!(std::mem::align_of::<NZObject<u64>>() <= 16);
        assert_eq!(std::mem::size_of::<NZObject<u64>>(), 48);
    }

    #[test]
    fn version_bumps() {
        let o = NZObject::new(0u64);
        assert_eq!(o.header().version(), 0);
        assert_eq!(o.header().bump_version(), 0);
        assert_eq!(o.header().bump_version(), 1);
        assert_eq!(o.header().version(), 2);
    }

    #[test]
    fn data_is_at_fixed_offset_after_header() {
        // Zero indirection: the synthetic data address sits at a fixed
        // offset from the header, on the same cache line for small
        // objects (collocation, Figure 1).
        let o = NZObject::new(9u64);
        assert_eq!(o.data_addr(), o.header().addr() + 32);
        assert_eq!(o.data_addr() >> 6, o.header().addr() >> 6, "same line");
        // And the host layout is genuinely inline: the data array lives
        // inside the object allocation.
        let base = &*o as *const NZObject<u64> as usize;
        let host_data = o.data_words().as_ptr() as usize;
        assert!(host_data > base && host_data - base < std::mem::size_of::<NZObject<u64>>());
    }

    #[test]
    fn header_drop_releases_owner_and_backup() {
        let d = desc();
        {
            let o = NZObject::new(1u64);
            let g = nztm_epoch::pin();
            assert!(o.header().cas_owner_to_txn(0, &d, &g));
            let buf = WordBuf::from_words(o.data_words());
            assert!(o.header().cas_backup(0, Some(&buf), &g));
            drop(o);
        }
        // The object's strong count on d was released synchronously.
        assert_eq!(Arc::strong_count(&d), 1);
    }

    #[test]
    fn wordbuf_capacity_is_a_pow2_size_class() {
        let b = WordBuf::zeroed(1);
        assert_eq!((b.len(), b.cap()), (1, 8), "min class is one line");
        let b = WordBuf::zeroed(9);
        assert_eq!((b.len(), b.cap()), (9, 16));
        b.set_len(3);
        assert_eq!(b.words().len(), 3);
        b.set_len(16);
        assert_eq!(b.words().len(), 16, "resizable up to cap");
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn wordbuf_set_len_beyond_cap_panics() {
        WordBuf::zeroed(4).set_len(9);
    }

    #[test]
    fn wordbuf_from_words_copies() {
        let o = NZObject::new(11u64);
        let b = WordBuf::from_words(o.data_words());
        o.data_words()[0].store(99, Ordering::Relaxed);
        assert_eq!(b.words()[0].load(Ordering::Relaxed), 11, "backup is a copy");
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
