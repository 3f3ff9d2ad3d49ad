//! Minimal epoch-based memory reclamation.
//!
//! In-repo replacement for the subset of `crossbeam-epoch` this workspace
//! uses: [`pin`] and [`Guard::defer_fn`]. The engines unlink raw
//! pointers (each carrying one strong `Arc` count) from shared words by
//! CAS and defer the count's release until every thread that might still
//! hold the pointer has passed through an unpinned state.
//!
//! ## Scheme
//!
//! Classic three-epoch EBR. A global epoch counter advances only when
//! every *pinned* participant has observed the current epoch. Garbage
//! deferred while the global epoch was `e` may be freed once the global
//! epoch reaches `e + 2`: the two intervening advances prove that every
//! thread pinned at defer time has unpinned since, and a pointer CAS'd
//! out of a shared word can never be re-loaded by a later pin.
//!
//! Garbage never leaves the thread that deferred it. Each thread keeps
//! its deferred destructors in a private FIFO bag; the epoch a thread
//! stamps on its defers never decreases, so the reclaimable items are
//! always a prefix of the bag and a collection round pops from the front
//! until the first item that is too young — no scan, no shared list, and
//! every destructor runs on the thread that deferred it. The only shared
//! state on the transaction path is the epoch word (read by every
//! outermost pin and every defer) and each participant's own `local`
//! word. The participant registry is touched once per `BATCH_HIWAT` (64)
//! defers, behind a `try_lock`: a thread that finds it taken skips the
//! advance (the holder is advancing) instead of waiting, so no thread —
//! stalled, preempted or parked inside a pin — can make another wait on
//! the transaction path. The blocking lock is taken only at thread start,
//! thread exit and in [`flush`].
//!
//! Orderings are deliberately all `SeqCst`: this is the correctness
//! backbone of a test- and simulation-grade STM.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Low bit of a participant's `local` word: set while pinned; the
/// remaining bits hold the epoch observed at pin time.
const PINNED: usize = 1;

/// Line-aligned (two lines, for adjacent-line prefetchers): each
/// participant's `local` word is stored on every outermost pin/unpin of
/// its owning thread, and participants are separate small heap
/// allocations the allocator is otherwise free to pack onto one cache
/// line — which would make every thread's pin invalidate its
/// neighbours' lines.
#[repr(align(128))]
struct Participant {
    /// `(epoch << 1) | PINNED` while pinned, `0` while unpinned.
    local: AtomicUsize,
}

/// A deferred destructor: `f(arg)` may run once the global epoch is at
/// least `epoch + 2`. A plain `(fn ptr, word)` pair, stored inline — the
/// STM engines defer millions of `Arc`-count releases, and boxing a
/// closure for each would put a heap allocation on the transactional
/// fast path.
struct Deferred {
    epoch: usize,
    f: unsafe fn(u64),
    arg: u64,
}

impl Deferred {
    fn run(self) {
        // SAFETY: the `defer_fn` caller vouched for `f(arg)` being sound
        // once two epoch advances have passed; `Handle::collect` checks
        // exactly that before popping the item.
        unsafe { (self.f)(self.arg) }
    }
}

/// A thread attempts a collection round on an outermost unpin once its
/// bag has grown this far past its length after the previous attempt.
/// One attempt per `BATCH_HIWAT` defers amortises the registry scan, and
/// measuring growth from the *previous attempt* (not from empty) keeps
/// that rate when a pinned peer holds the epoch back and the bag cannot
/// shrink. While every peer is responsive an item waits for two
/// advances, so a bag holds about three batches. Batching only delays
/// reclamation, never safety — each item carries the epoch observed when
/// it was deferred.
const BATCH_HIWAT: usize = 64;

/// What the registry lock guards. Cold: locked (not try-locked) only at
/// thread start, thread exit and by [`flush`].
struct Registry {
    participants: Vec<Arc<Participant>>,
    /// Bags of threads that exited before their garbage came of age.
    /// Adopted wholesale by the next collection round on any thread.
    orphans: Vec<Deferred>,
}

/// The global epoch word is read by every outermost pin and every defer
/// on every thread; the registry's lock word is RMW'd once per
/// collection round. [`Pad`] separates them so lock traffic never
/// invalidates the pin path's epoch reads.
struct Global {
    /// Written only while holding `registry`.
    epoch: Pad<AtomicUsize>,
    registry: Pad<Mutex<Registry>>,
}

/// Minimal local cache-line pad (this crate deliberately has no deps,
/// so it cannot borrow `nztm-core`'s `CachePadded`). Two lines, same
/// rationale as there: adjacent-line prefetchers pull pairs.
#[repr(align(128))]
struct Pad<T>(T);

impl<T> std::ops::Deref for Pad<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

static GLOBAL: Global = Global {
    epoch: Pad(AtomicUsize::new(0)),
    registry: Pad(Mutex::new(Registry { participants: Vec::new(), orphans: Vec::new() })),
};

impl Global {
    /// Blocking lock of the registry. Every update leaves it valid, so a
    /// lock poisoned by a panicking holder is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shared half of a collection round: move any orphans into
    /// `bag`, advance the epoch if every pinned participant has observed
    /// the current one, and return the epoch to collect against. Without
    /// `wait`, a registry held by another thread is skipped rather than
    /// waited for: its holder is doing this very scan.
    fn advance(&self, wait: bool, bag: &mut VecDeque<Deferred>) -> usize {
        let mut reg = if wait {
            self.lock()
        } else {
            match self.registry.try_lock() {
                Ok(reg) => reg,
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
                Err(TryLockError::WouldBlock) => return self.epoch.load(Ordering::SeqCst),
            }
        };
        let cur = self.epoch.load(Ordering::SeqCst);
        // Re-stamped with the current epoch so the bag stays sorted: an
        // orphan is then freed later than its own stamp allows, never
        // earlier.
        bag.extend(reg.orphans.drain(..).map(|d| Deferred { epoch: cur, ..d }));
        let all_current = reg.participants.iter().all(|p| {
            let l = p.local.load(Ordering::SeqCst);
            l & PINNED == 0 || l >> 1 == cur
        });
        if all_current {
            self.epoch.store(cur + 1, Ordering::SeqCst);
            cur + 1
        } else {
            cur
        }
    }
}

struct Handle {
    participant: Arc<Participant>,
    depth: Cell<usize>,
    /// This thread's deferred destructors, oldest first; stamps never
    /// decrease from front to back.
    bag: RefCell<VecDeque<Deferred>>,
    /// Bag length at which an outermost unpin attempts a collection
    /// round (see [`BATCH_HIWAT`]).
    next_collect: Cell<usize>,
}

impl Handle {
    /// One collection round: advance the epoch if possible, then run the
    /// bag's reclaimable prefix.
    fn collect(&self, wait: bool) {
        // Destructors may pin; their unpins must not start a nested round.
        self.next_collect.set(usize::MAX);
        let epoch = GLOBAL.advance(wait, &mut self.bag.borrow_mut());
        while let Some(d) = self.pop_ready(epoch) {
            d.run();
        }
        self.next_collect.set(self.bag.borrow().len() + BATCH_HIWAT);
    }

    /// Pop the oldest item if `epoch` lets it run. The borrow ends before
    /// the caller runs it, so destructors may themselves pin and defer.
    fn pop_ready(&self, epoch: usize) -> Option<Deferred> {
        let mut bag = self.bag.borrow_mut();
        match bag.front() {
            Some(d) if d.epoch + 2 <= epoch => bag.pop_front(),
            _ => None,
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        // Thread exit: thread-locals are going away, so nothing may run
        // here; the bag is handed to whichever thread collects next.
        let mut reg = GLOBAL.lock();
        reg.participants.retain(|p| !Arc::ptr_eq(p, &self.participant));
        reg.orphans.extend(self.bag.get_mut().drain(..));
    }
}

thread_local! {
    static HANDLE: Handle = {
        let participant = Arc::new(Participant { local: AtomicUsize::new(0) });
        GLOBAL.lock().participants.push(Arc::clone(&participant));
        Handle {
            participant,
            depth: Cell::new(0),
            bag: RefCell::new(VecDeque::new()),
            next_collect: Cell::new(BATCH_HIWAT),
        }
    };
}

/// A pinned epoch scope. While any `Guard` is alive on a thread, memory
/// deferred *after* the pin began will not be freed, so raw pointers
/// loaded from shared words under the guard remain dereferenceable.
pub struct Guard {
    /// Guards are thread-bound (they reference thread-local pin state).
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pin the current thread. Re-entrant: nested pins share the outermost
/// pin's epoch and cost a thread-local counter bump.
pub fn pin() -> Guard {
    HANDLE.with(|h| {
        let depth = h.depth.get();
        if depth == 0 {
            loop {
                let e = GLOBAL.epoch.load(Ordering::SeqCst);
                h.participant.local.store((e << 1) | PINNED, Ordering::SeqCst);
                // SeqCst store + re-check closes the race with a
                // concurrent advance between the load and the store.
                if GLOBAL.epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        h.depth.set(depth + 1);
    });
    Guard { _not_send: std::marker::PhantomData }
}

impl Guard {
    /// Defer `f(arg)` until no pinned thread can still hold pointers it
    /// frees. Allocation-free: the pair is stored inline in the calling
    /// thread's bag, and `f` later runs on this same thread — or, if the
    /// thread exits first, on whichever thread collects next.
    ///
    /// # Safety
    /// Once two epoch advances have happened, calling `f(arg)` must be
    /// sound — in this workspace: the pointer `arg` smuggles (typically
    /// one `Arc` count to release) has been atomically unlinked from
    /// every shared word, so only threads pinned *now* may still
    /// dereference it. `f` must tolerate running on any thread.
    pub unsafe fn defer_fn(&self, f: unsafe fn(u64), arg: u64) {
        let epoch = GLOBAL.epoch.load(Ordering::SeqCst);
        HANDLE.with(|h| h.bag.borrow_mut().push_back(Deferred { epoch, f, arg }));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        HANDLE.with(|h| {
            let depth = h.depth.get();
            debug_assert!(depth > 0, "guard drop without pin");
            h.depth.set(depth - 1);
            if depth == 1 {
                h.participant.local.store(0, Ordering::SeqCst);
                // Collect now that this thread is unpinned and cannot
                // hold the epoch back. Threads that defer nothing never
                // get here.
                if h.bag.borrow().len() >= h.next_collect.get() {
                    h.collect(false);
                }
            }
        });
    }
}

/// Aggressively advance the epoch and run every destructor of the calling
/// thread (and of exited threads) that becomes safe. Call from quiescent
/// code (tests, teardown) that asserts on `Arc::strong_count`s; with all
/// guards dropped, three rounds drain everything this thread and exited
/// threads deferred so far. Garbage of other *live* threads stays in
/// their bags until they collect or exit. Unlike the unpin path this
/// waits for the registry lock.
pub fn flush() {
    let _ = HANDLE.try_with(|h| (0..4).for_each(|_| h.collect(true)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize as Counter};
    use std::sync::mpsc::channel;
    use std::sync::Barrier;
    use std::time::Duration;

    /// The epoch is process-global, so a test that parks a thread inside
    /// a pin stalls reclamation for every test running beside it. Every
    /// test holds this lock; waiting tests are unpinned.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A collection round that found the registry taken (a finished
    /// test's thread deregistering) is skipped, so "every round ran" is
    /// not guaranteed; a hung or blocked thread must still fail the test.
    const PATIENCE: Duration = Duration::from_secs(60);

    unsafe fn nop(_: u64) {}

    unsafe fn release_u64(arg: u64) {
        unsafe { drop(Arc::from_raw(arg as *const u64)) };
    }

    /// One pin scope deferring `f(arg)`.
    fn defer_scope(f: unsafe fn(u64), arg: u64) {
        let g = pin();
        // SAFETY: every `f` in these tests only bumps counters or
        // releases a count the test itself minted.
        unsafe { g.defer_fn(f, arg) };
    }

    #[test]
    fn deferred_runs_after_unpin_and_flush() {
        let _serial = serial();
        static RAN: Counter = Counter::new(0);
        unsafe fn bump(_: u64) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        {
            let g = pin();
            unsafe { g.defer_fn(bump, 0) };
            // Still pinned: must not have run.
            flush();
            assert_eq!(RAN.load(Ordering::SeqCst), 0);
        }
        flush();
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn defer_fn_releases_arc_count_without_boxing() {
        let _serial = serial();
        let held = Arc::new(7u64);
        let raw = Arc::into_raw(Arc::clone(&held));
        {
            let g = pin();
            unsafe { g.defer_fn(release_u64, raw as u64) };
            flush();
            assert_eq!(Arc::strong_count(&held), 2, "deferred while pinned");
        }
        flush();
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn nested_pins_share_the_outer_scope() {
        let _serial = serial();
        let outer = pin();
        let inner = pin();
        drop(inner);
        // Outer still pinned: epoch cannot advance past us twice.
        let held = Arc::new(0u64);
        let raw = Arc::into_raw(Arc::clone(&held));
        unsafe { outer.defer_fn(release_u64, raw as u64) };
        flush();
        assert_eq!(Arc::strong_count(&held), 2, "deferred drop must wait for outer unpin");
        drop(outer);
        flush();
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn batched_defers_drain_at_the_watermark() {
        let _serial = serial();
        // More defers than the watermark, each in its own pin scope: the
        // unpin-path rounds must free all but a bounded tail, and a
        // final flush() drains the rest.
        static FREED: Counter = Counter::new(0);
        unsafe fn bump(_: u64) {
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        let n = BATCH_HIWAT * 8;
        (0..n).for_each(|_| defer_scope(bump, 0));
        assert!(
            FREED.load(Ordering::SeqCst) >= n - 4 * BATCH_HIWAT,
            "watermark crossings must keep the bag near three batches, freed {}",
            FREED.load(Ordering::SeqCst)
        );
        flush();
        assert_eq!(FREED.load(Ordering::SeqCst), n, "flush drains the bag");
    }

    #[test]
    fn thread_exit_flushes_the_private_batch() {
        let _serial = serial();
        static FREED: Counter = Counter::new(0);
        unsafe fn bump(_: u64) {
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        // Stay below the watermark so nothing drains until exit.
        std::thread::spawn(|| (0..3).for_each(|_| defer_scope(bump, 0))).join().unwrap();
        // The exiting thread orphaned its bag; this thread adopts it.
        flush();
        assert_eq!(FREED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cross_thread_reader_is_protected() {
        let _serial = serial();
        // One thread repeatedly swaps an Arc-carrying word and defers the
        // old value; readers pin, load, and dereference. Miri-style UAF
        // would crash; under normal execution we just check the counts
        // come back down.
        let word = Arc::new(AtomicUsize::new(Arc::into_raw(Arc::new(0u64)) as usize));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let word = Arc::clone(&word);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let _g = pin();
                        let raw = word.load(Ordering::SeqCst) as *const u64;
                        let v = unsafe { *raw };
                        assert!(v < 10_000);
                    }
                })
            })
            .collect();
        for i in 1..500u64 {
            let g = pin();
            let new = Arc::into_raw(Arc::new(i)) as usize;
            let old = word.swap(new, Ordering::SeqCst);
            unsafe { g.defer_fn(release_u64, old as u64) };
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        let last = word.swap(0, Ordering::SeqCst) as *const u64;
        unsafe { drop(Arc::from_raw(last)) };
        flush();
    }

    #[test]
    fn every_item_runs_exactly_once_across_a_storm_and_thread_exit() {
        let _serial = serial();
        // Odd count: each thread exits with a tail below the watermark,
        // so some items are freed by their own thread's unpins and the
        // rest travel through the orphan list.
        const PER_THREAD: usize = BATCH_HIWAT * 20 + 17;
        static RUNS: [Counter; 2 * PER_THREAD] = [const { Counter::new(0) }; 2 * PER_THREAD];
        unsafe fn mark(i: u64) {
            RUNS[i as usize].fetch_add(1, Ordering::SeqCst);
        }
        let start = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let outer = pin();
                        let inner = pin();
                        unsafe { inner.defer_fn(mark, (t * PER_THREAD + i) as u64) };
                        drop(inner);
                        drop(outer);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        flush();
        flush();
        for (i, runs) in RUNS.iter().enumerate() {
            assert_eq!(runs.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn item_never_runs_while_an_earlier_guard_is_alive() {
        let _serial = serial();
        static RAN: Counter = Counter::new(0);
        unsafe fn bump(_: u64) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        let (pinned_tx, pinned_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let early = std::thread::spawn(move || {
            let g = pin();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(g);
        });
        pinned_rx.recv_timeout(PATIENCE).unwrap();
        // Deferred strictly after `early` pinned; then everything that
        // could free it early: watermark rounds, blocking flushes, and a
        // second thread's rounds.
        defer_scope(bump, 0);
        let noise = std::thread::spawn(|| {
            (0..BATCH_HIWAT * 4).for_each(|_| defer_scope(nop, 0));
            flush();
        });
        (0..BATCH_HIWAT * 4).for_each(|_| defer_scope(nop, 0));
        flush();
        noise.join().unwrap();
        flush();
        assert_eq!(RAN.load(Ordering::SeqCst), 0, "ran under a guard pinned before the defer");
        release_tx.send(()).unwrap();
        early.join().unwrap();
        flush();
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_threads_items_run_in_defer_order() {
        let _serial = serial();
        static ORDER: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        unsafe fn record(i: u64) {
            ORDER.lock().unwrap().push(i);
        }
        let stop = Arc::new(AtomicBool::new(false));
        // A neighbour whose pins and rounds move the epoch at odd times.
        let neighbour = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    defer_scope(nop, 0);
                }
            })
        };
        let n = (BATCH_HIWAT * 30) as u64;
        (0..n).for_each(|i| defer_scope(record, i));
        stop.store(true, Ordering::SeqCst);
        neighbour.join().unwrap();
        flush();
        assert_eq!(*ORDER.lock().unwrap(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn parked_peer_stops_reclamation_but_blocks_nobody_and_the_backlog_drains() {
        let _serial = serial();
        static FREED: Counter = Counter::new(0);
        unsafe fn bump(_: u64) {
            FREED.fetch_add(1, Ordering::SeqCst);
        }
        const BACKLOG: usize = BATCH_HIWAT * 10;
        let (parked_tx, parked_rx) = channel();
        let (unpark_tx, unpark_rx) = channel::<()>();
        let (unpinned_tx, unpinned_rx) = channel();
        let (exit_tx, exit_rx) = channel::<()>();
        let peer = std::thread::spawn(move || {
            let g = pin();
            parked_tx.send(()).unwrap();
            unpark_rx.recv().unwrap();
            drop(g);
            unpinned_tx.send(()).unwrap();
            // Stays registered (unpinned) so the drain below is the
            // worker's own doing, not orphan adoption.
            exit_rx.recv().unwrap();
        });
        parked_rx.recv_timeout(PATIENCE).unwrap();

        // The worker reports from its own thread, so a pin, unpin or
        // defer that waits on the parked peer shows as a timeout here.
        let (report_tx, report_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let worker = std::thread::spawn(move || {
            (0..BACKLOG).for_each(|_| defer_scope(bump, 0));
            report_tx.send(FREED.load(Ordering::SeqCst)).unwrap();
            go_rx.recv().unwrap();
            // Two rounds free the backlog (stamps `e` and `e + 1` need
            // epochs `e + 2` and `e + 3`): the first unpin and the one a
            // batch later. Two more batches of slack for skipped rounds.
            (0..BATCH_HIWAT * 3).for_each(|_| defer_scope(bump, 0));
            report_tx.send(FREED.load(Ordering::SeqCst)).unwrap();
        });

        let freed_while_parked =
            report_rx.recv_timeout(PATIENCE).expect("worker blocked by a parked peer");
        assert_eq!(freed_while_parked, 0, "freed past a peer pinned before every defer");
        unpark_tx.send(()).unwrap();
        unpinned_rx.recv_timeout(PATIENCE).unwrap();
        go_tx.send(()).unwrap();
        let freed_after = report_rx.recv_timeout(PATIENCE).unwrap();
        assert!(freed_after >= BACKLOG, "backlog of {BACKLOG} not drained: {freed_after}");
        exit_tx.send(()).unwrap();
        peer.join().unwrap();
        worker.join().unwrap();
        flush();
    }

    #[test]
    fn destructors_may_pin_and_defer() {
        let _serial = serial();
        static OUTER: Counter = Counter::new(0);
        static INNER: Counter = Counter::new(0);
        unsafe fn inner(_: u64) {
            INNER.fetch_add(1, Ordering::SeqCst);
        }
        unsafe fn outer(_: u64) {
            OUTER.fetch_add(1, Ordering::SeqCst);
            // Runs inside a collection round: the bag must not be
            // borrowed, and the unpin must not start a nested round.
            defer_scope(inner, 0);
            drop(pin());
        }
        let n = BATCH_HIWAT * 6;
        // Through the unpin path's rounds, then through flush's.
        (0..n).for_each(|_| defer_scope(outer, 0));
        assert!(OUTER.load(Ordering::SeqCst) > 0, "no round ran on the unpin path");
        flush();
        flush();
        assert_eq!(OUTER.load(Ordering::SeqCst), n);
        assert_eq!(INNER.load(Ordering::SeqCst), n);
    }
}
