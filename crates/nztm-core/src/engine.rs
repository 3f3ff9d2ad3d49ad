//! The NZSTM engine: one algorithm, three compile-time modes.
//!
//! * [`Blocking`] — **BZSTM** (§2.2 + §4.3 "BZSTM"): conflicts are
//!   resolved by requesting the peer's abort and *waiting indefinitely*
//!   for the acknowledgement. Objects are never inflated, and — because
//!   the mode is a compile-time policy — the generated code contains no
//!   inflation-tag checks at all, which is exactly the difference the
//!   paper measures as BZSTM's 2–5% edge over NZSTM (§4.4.2).
//! * [`Nonblocking`] — **NZSTM** (§2.3.1): same algorithm, but a bounded
//!   *patience* while waiting for an acknowledgement; when exhausted, the
//!   object is inflated into a DSTM-style locator and the obstruction-free
//!   DSTM rules take over until the object can be deflated.
//! * [`ScssMode`] — **NZSTM+SCSS** (§2.3.2): every store to in-place data
//!   is paired with a check of the writer's own AbortNowPlease flag inside
//!   a short atomic section (the Single-Compare Single-Store). No
//!   locators, no inflation: an unresponsive victim's late stores are
//!   guaranteed to fail, so the requester may proceed immediately after a
//!   one-shot barrier.
//!
//! The write path is **eager and in place**: an acquiring transaction
//! backs up the object's data words into a pool buffer and then mutates
//! the object directly; aborts are undone *lazily* by the next acquirer
//! restoring the backup (§2.2). Reads are **visible** by default (a
//! per-object reader bitmap, as in the paper's experiments) with an
//! invisible-read + commit-time-validation mode as an extension.

use crate::cm::{ContentionManager, Resolution};
use crate::data::TmData;
use crate::locator::Locator;
use crate::object::{NZHeader, NZObject, NzObjAny, OwnerRef, WordBuf};
use crate::registry::ThreadRegistry;
use crate::stats::{ThreadStats, TmStats};
use crate::trace::Trace;
use crate::txn::{Abort, AbortCause, Status, TxnDesc};
use crate::util::{Backoff, InlineVec, PerCore, SlotIndex};
use nztm_epoch::Guard;
use nztm_sim::{AccessKind, DetRng, Platform};
use std::marker::PhantomData;
use std::sync::Arc;

/// Increment a hot-path statistics counter. Compiled to nothing without
/// the `stats` feature (tier-1 builds keep it on; a bench profile can
/// build `--no-default-features` to strip per-access increments).
/// Lifecycle counters (commits, aborts, inflations, HTM outcomes) are
/// incremented directly — they are consumed by harnesses and policies.
///
/// Counters are single-writer atomic cells ([`ThreadStats`]): the bump is
/// an ordinary unlocked add, but any thread may read a snapshot mid-run
/// ([`NzStm::stats_snapshot`]).
macro_rules! hot_stat {
    ($ctx:expr, $field:ident) => {{
        // No-op borrow so call sites type-check identically without the
        // feature (and `ctx` parameters stay "used").
        let _ = &$ctx.stats.$field;
        #[cfg(feature = "stats")]
        {
            $ctx.stats.$field.bump();
        }
    }};
}

/// Record a flight-recorder event ([`crate::trace`]). Compiled to nothing
/// without the `trace` feature; with it, recording still requires runtime
/// arming ([`NzStm::set_tracing`]) and costs one relaxed load when
/// disarmed. The payload expressions are not evaluated unless armed.
macro_rules! trace_evt {
    ($sys:expr, $ctx:expr, $tid:expr, $kind:ident, $a:expr, $b:expr) => {{
        #[cfg(feature = "trace")]
        if $sys.trace_on.load(std::sync::atomic::Ordering::Relaxed) {
            let clock = $sys.platform.now();
            $ctx.ring.record(clock, $tid as u16, crate::trace::EventKind::$kind, $a, $b);
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = $tid;
        }
    }};
}

/// Compile-time selection of the engine variant.
///
/// The engine gates code paths on these `const`s, so a mode that does
/// not use a path compiles it away entirely — BZSTM really contains no
/// inflation-tag checks (§4.4.2's 2–5%), and the ownership modes really
/// contain no global-clock traffic.
pub trait ModePolicy: Send + Sync + 'static {
    /// Give up waiting for an abort acknowledgement after `patience`
    /// steps (inflate / SCSS-barrier). `false` = BZSTM.
    const NONBLOCKING: bool;
    /// Pair every data store with an AbortNowPlease check (SCSS).
    const SCSS: bool;
    /// Master gate for the NOrec path: value-validated reads, redo log
    /// and global sequence lock travel together (a global-clock commit
    /// is only sound when nothing is dirtied in place and reads
    /// revalidate by value), so one discriminator selects the whole path.
    const NOREC: bool;
    const NAME: &'static str;
}

/// BZSTM: the blocking base algorithm of §2.2.
pub struct Blocking;
impl ModePolicy for Blocking {
    const NONBLOCKING: bool = false;
    const SCSS: bool = false;
    const NOREC: bool = false;
    const NAME: &'static str = "BZSTM";
}

/// NZSTM: nonblocking via inflation (§2.3.1).
pub struct Nonblocking;
impl ModePolicy for Nonblocking {
    const NONBLOCKING: bool = true;
    const SCSS: bool = false;
    const NOREC: bool = false;
    const NAME: &'static str = "NZSTM";
}

/// NZSTM+SCSS: nonblocking via Single-Compare Single-Store (§2.3.2).
pub struct ScssMode;
impl ModePolicy for ScssMode {
    const NONBLOCKING: bool = true;
    const SCSS: bool = true;
    const NOREC: bool = false;
    const NAME: &'static str = "SCSS";
}

/// NOrec: one global sequence lock, value-based validation, lazy redo
/// writes (Dalessandro, Spear & Scott, PPoPP 2010) — the progressive,
/// ownership-free point in the design space, run by the same engine as
/// the NZTM family. Blocking (a preempted committer stalls the clock),
/// but with no per-object metadata traffic at all: reads log values,
/// writes buffer in a redo log, and the only shared-write beyond data
/// itself is the clock CAS at commit.
pub struct NorecMode;
impl ModePolicy for NorecMode {
    // Ownership-protocol knobs; never consulted on the NOrec path (which
    // bypasses owner words, inflation, and SCSS stores entirely).
    const NONBLOCKING: bool = false;
    const SCSS: bool = false;
    const NOREC: bool = true;
    const NAME: &'static str = "NOREC";
}

/// How transactional reads are tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// Per-object reader bitmap; writers request readers' aborts. The
    /// paper's configuration ("NZSTM software transactions with visible
    /// reads").
    Visible,
    /// Record per-object versions, validate at commit (extension).
    Invisible,
}

/// Whether a hybrid built over this engine may use the arch-native
/// hardware-transaction path (`nztm-htm`'s `htm-native` feature).
///
/// Lives here — not in the htm crate — so [`NzConfig`]/`NzBuilder` can
/// carry the knob without a dependency cycle; the engine itself never
/// reads it. The htm crate's backend selection consults it together
/// with the runtime CPUID probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NativeHtmPolicy {
    /// Use native RTM when the build has it (`htm-native`) and the host
    /// CPU supports it; otherwise fall back to the simulated model.
    #[default]
    Auto,
    /// Never issue native hardware transactions, even on capable hosts
    /// — the hybrid behaves bit-identically to the simulated build.
    ForceOff,
    /// Require the native path: backend selection panics when the build
    /// or the host cannot provide RTM (CI probes use this to make
    /// silent fallback impossible).
    ForceOn,
}

/// Flight-recorder knobs (see [`crate::trace`]). The struct is always
/// present so configurations are feature-independent; without the `trace`
/// cargo feature it is inert (the hooks are compiled out).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Arm event recording at construction. Can be toggled later via
    /// [`NzStm::set_tracing`].
    pub enabled: bool,
    /// Per-thread ring capacity in events (overwrite-oldest beyond this).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity: 1 << 16 }
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct NzConfig {
    /// Spin steps to wait for an abort acknowledgement before declaring
    /// the victim unresponsive (ignored by `Blocking`).
    pub patience: u64,
    pub read_mode: ReadMode,
    /// Extra cycles charged per SCSS store on simulated platforms (models
    /// the short hardware transaction's latency).
    pub scss_cycles: u64,
    /// Flight-recorder configuration (inert without the `trace` feature).
    pub trace: TraceConfig,
    /// Native-HTM policy for hybrids assembled over this engine (the
    /// engine itself ignores it; see [`NativeHtmPolicy`]).
    pub native_htm: NativeHtmPolicy,
    /// TEST-ONLY fault injection (`sanitize` builds): requesters force
    /// the victim's `Status = Aborted` instead of waiting for the
    /// acknowledgement — the §2.2 handshake violation the sanitizer
    /// exists to catch.
    #[cfg(feature = "sanitize")]
    pub inject_handshake_bug: bool,
}

impl Default for NzConfig {
    fn default() -> Self {
        NzConfig {
            patience: 128,
            read_mode: ReadMode::Visible,
            scss_cycles: 25,
            trace: TraceConfig::default(),
            native_htm: NativeHtmPolicy::default(),
            #[cfg(feature = "sanitize")]
            inject_handshake_bug: false,
        }
    }
}

/// Where a write-set entry's speculative data lives.
enum WriteTarget {
    /// Normal case: data in place; `backup_raw` identifies our backup
    /// buffer for commit-time reclamation.
    InPlace { backup_raw: u64 },
    /// Object is inflated and we own it through this locator; writes go
    /// to its `new_data`.
    Inflated { loc: Arc<Locator> },
    /// NOrec redo-log entry: the speculative value lives at
    /// `norec_redo[off..off + len]` and is written back at commit under
    /// the global sequence lock. Never constructed by ownership modes.
    Buffered { off: usize, len: usize },
}

struct WriteEntry {
    obj: Arc<dyn NzObjAny>,
    target: WriteTarget,
}

struct ReadEntry {
    obj: Arc<dyn NzObjAny>,
    /// Version observed (invisible mode); unused in visible mode. NOrec
    /// repurposes it as the packed `(off << 32) | len` slice of
    /// `norec_vals` holding this entry's logged values
    /// ([`norec_pack`]/[`norec_unpack`]).
    version: u64,
}

/// Pack a NOrec read-log slice descriptor into a `ReadEntry::version`.
#[inline]
fn norec_pack(off: usize, len: usize) -> u64 {
    debug_assert!(off <= u32::MAX as usize && len <= u32::MAX as usize);
    ((off as u64) << 32) | len as u64
}

/// Inverse of [`norec_pack`].
#[inline]
fn norec_unpack(version: u64) -> (usize, usize) {
    ((version >> 32) as usize, (version & 0xFFFF_FFFF) as usize)
}

/// Per-thread pool of backup buffers in power-of-two **size classes**
/// (class `c` holds buffers of capacity exactly `2^c` words). Buffers are
/// reclaimed at commit (take-back from the object) and reused by later
/// acquisitions — the thread-local reuse the paper credits for NZSTM's
/// cache behaviour in kmeans (§4.4.2). Size classes (instead of the old
/// exact-length `HashMap`) make every lookup a pop from an array slot and
/// let one warm buffer serve every object length in its class, so
/// `backup_alloc` reaches ~0 after warmup.
///
/// ## Invariant: no pooled buffer has a *live* installer
///
/// Buffers enter the pool exclusively via commit-time `take_backup`,
/// where the installer is the committing transaction itself — so every
/// pooled buffer's installer is **Committed**. It stays that way while
/// pooled: a settled descriptor never changes status again, and
/// `set_installer` is only called on buffers being adopted or installed,
/// never on detached ones. Debug builds assert the invariant on both
/// `put` and `take`.
struct BackupPool {
    classes: [Vec<Arc<WordBuf>>; BackupPool::N_CLASSES],
}

impl Default for BackupPool {
    fn default() -> Self {
        BackupPool { classes: std::array::from_fn(|_| Vec::new()) }
    }
}

impl BackupPool {
    /// Largest pooled class: 2^15 words (256 KiB). Larger buffers are
    /// simply not pooled (no paper workload comes close).
    const N_CLASSES: usize = 16;
    /// Bounded depth per class.
    const DEPTH: usize = 64;

    fn class_of(len: usize) -> usize {
        WordBuf::cap_for(len).trailing_zeros() as usize
    }

    #[cfg(debug_assertions)]
    fn debug_check(buf: &WordBuf, op: &str) {
        let g = nztm_epoch::pin();
        assert!(
            !matches!(buf.installer_status(&g), Some(Status::Active)),
            "backup pool {op}: buffer has a live installer"
        );
    }

    fn take(&mut self, len: usize) -> Option<Arc<WordBuf>> {
        let c = Self::class_of(len);
        let buf = self.classes.get_mut(c)?.pop()?;
        debug_assert_eq!(buf.cap(), 1 << c);
        #[cfg(debug_assertions)]
        Self::debug_check(&buf, "take");
        if buf.len() != len {
            buf.set_len(len);
        }
        Some(buf)
    }

    fn put(&mut self, buf: Arc<WordBuf>) {
        #[cfg(debug_assertions)]
        Self::debug_check(&buf, "put");
        let c = buf.cap().trailing_zeros() as usize;
        if let Some(v) = self.classes.get_mut(c) {
            if v.len() < Self::DEPTH {
                v.push(buf);
            }
        }
    }
}

/// Inline capacity of the read/write sets (entries beyond this spill to
/// the heap once, then reuse the spill capacity).
const INLINE_SET: usize = 8;

struct ThreadCtx {
    current: Option<Arc<TxnDesc>>,
    serial: u64,
    read_set: InlineVec<ReadEntry, INLINE_SET>,
    write_set: InlineVec<WriteEntry, INLINE_SET>,
    /// Header address → read_set slot: O(1) re-read dedup.
    read_index: SlotIndex,
    /// Header address → write_set slot: O(1) already-acquired checks.
    write_index: SlotIndex,
    pool: BackupPool,
    rng: DetRng,
    backoff: Backoff,
    /// This thread's live counters. The `Arc` is shared with the
    /// engine-level [`NzStm::thread_stats`] list so any thread can
    /// snapshot mid-run; only this thread writes (single-writer cells).
    stats: Arc<ThreadStats>,
    /// Scratch encode/decode buffer, reused across operations.
    scratch: Vec<u64>,
    /// NOrec only: the global-clock value this attempt last validated
    /// against (always even). Dead (and never touched) in other modes.
    snapshot: u64,
    /// NOrec only: logged read values. Entry `i` of the read set owns
    /// the slice packed into its `version` ([`norec_pack`]).
    norec_vals: Vec<u64>,
    /// NOrec only: redo-log value words, sliced by the write set's
    /// [`WriteTarget::Buffered`] entries.
    norec_redo: Vec<u64>,
    /// Flight-recorder ring (single-writer; drained quiescently).
    #[cfg(feature = "trace")]
    ring: crate::trace::TraceRing,
    /// Per-thread sanitizer pause stream, keyed by the schedule
    /// generation that derived it (re-split on `set_schedule`).
    #[cfg(feature = "sanitize")]
    san_rng: Option<(u64, DetRng)>,
}

impl ThreadCtx {
    fn new(tid: usize, stats: Arc<ThreadStats>, trace_capacity: usize) -> Self {
        #[cfg(not(feature = "trace"))]
        let _ = trace_capacity;
        ThreadCtx {
            current: None,
            serial: 0,
            read_set: InlineVec::new(),
            write_set: InlineVec::new(),
            read_index: SlotIndex::new(),
            write_index: SlotIndex::new(),
            pool: BackupPool::default(),
            rng: DetRng::new(0x5EED_0000 + tid as u64),
            backoff: Backoff::new(),
            stats,
            scratch: Vec::with_capacity(64),
            snapshot: 0,
            norec_vals: Vec::new(),
            norec_redo: Vec::new(),
            #[cfg(feature = "trace")]
            ring: crate::trace::TraceRing::new(trace_capacity),
            #[cfg(feature = "sanitize")]
            san_rng: None,
        }
    }
}

/// Index key for the access-set maps: the header's host address (stable
/// while any set entry holds the object's `Arc`).
#[inline]
fn header_key(h: &NZHeader) -> u64 {
    h as *const NZHeader as u64
}

/// Append a write-set entry and index it by header address. Every
/// write-set push goes through here so `write_index` never goes stale.
#[inline]
fn push_write(ctx: &mut ThreadCtx, entry: WriteEntry) {
    let key = header_key(entry.obj.header());
    ctx.write_index.insert(key, ctx.write_set.len() as u32);
    ctx.write_set.push(entry);
}

/// NOrec's global sequence lock, on its own cache line (every committer
/// writes it; every reader polls it — the one genuinely global word of
/// that mode). Even = unlocked (the value doubles as the snapshot
/// clock); odd = a writer is inside its commit write-back window.
#[repr(align(128))]
struct NorecClock {
    word: std::sync::atomic::AtomicU64,
    /// Synthetic address feeding the sim cache model.
    synth: usize,
}

impl NorecClock {
    fn new() -> Self {
        NorecClock {
            word: std::sync::atomic::AtomicU64::new(0),
            synth: nztm_sim::synth_alloc_as(128, nztm_sim::StructClass::Other),
        }
    }
}

/// Outcome of conflict resolution against one peer transaction.
enum ConflictOutcome {
    /// The conflict no longer exists (peer settled, or ownership changed).
    Settled,
    /// The peer was asked to abort and did not acknowledge within the
    /// patience budget (only produced when `M::NONBLOCKING`).
    Unresponsive,
}

/// The NZSTM/BZSTM/SCSS engine. See module docs.
pub struct NzStm<P: Platform, M: ModePolicy> {
    platform: Arc<P>,
    cm: Arc<dyn ContentionManager>,
    registry: ThreadRegistry,
    threads: PerCore<ThreadCtx>,
    /// Per-thread counter cells, shared with each `ThreadCtx`. Read side
    /// of [`NzStm::stats_snapshot`] — safe to merge at any time.
    thread_stats: Box<[Arc<ThreadStats>]>,
    /// NOrec's global sequence lock. Present in every engine (the struct
    /// shape is mode-independent) but only touched when `M::NOREC`.
    norec_clock: NorecClock,
    cfg: NzConfig,
    /// Runtime arming flag for the flight recorder.
    #[cfg(feature = "trace")]
    trace_on: std::sync::atomic::AtomicBool,
    #[cfg(feature = "sanitize")]
    san: crate::sanitizer::Sanitizer,
    _mode: PhantomData<M>,
}

impl<P: Platform, M: ModePolicy> NzStm<P, M> {
    /// Assemble an engine from parts. [`crate::NzBuilder`] is the
    /// shorthand when the paper-default [`NzConfig`] (give or take the
    /// read mode, contention manager and native-HTM policy) is wanted.
    ///
    /// Panics when the platform has more than [`crate::MAX_THREADS`]
    /// threads: each object's reader bitmap has one bit per thread.
    pub fn new(platform: Arc<P>, cm: Arc<dyn ContentionManager>, cfg: NzConfig) -> Arc<Self> {
        let n = platform.n_cores();
        crate::readers::assert_thread_limit(n);
        let thread_stats: Box<[Arc<ThreadStats>]> =
            (0..n).map(|_| Arc::new(ThreadStats::default())).collect();
        let trace_capacity = cfg.trace.capacity;
        #[cfg(feature = "trace")]
        let trace_on = std::sync::atomic::AtomicBool::new(cfg.trace.enabled);
        Arc::new(NzStm {
            platform,
            cm,
            registry: ThreadRegistry::new(n),
            threads: PerCore::new(n, |tid| {
                ThreadCtx::new(tid, Arc::clone(&thread_stats[tid]), trace_capacity)
            }),
            thread_stats,
            norec_clock: NorecClock::new(),
            cfg,
            #[cfg(feature = "trace")]
            trace_on,
            #[cfg(feature = "sanitize")]
            san: crate::sanitizer::Sanitizer::new(),
            _mode: PhantomData,
        })
    }

    pub fn platform(&self) -> &Arc<P> {
        &self.platform
    }

    pub fn mode_name(&self) -> &'static str {
        M::NAME
    }

    /// The configured read-tracking mode.
    pub fn read_mode(&self) -> ReadMode {
        self.cfg.read_mode
    }

    /// The native-HTM policy a hybrid assembled over this engine should
    /// honor (see [`NativeHtmPolicy`]; the engine itself never reads it).
    pub fn native_htm_policy(&self) -> NativeHtmPolicy {
        self.cfg.native_htm
    }

    /// Allocate a transactional object.
    pub fn new_obj<T: TmData>(&self, init: T) -> Arc<NZObject<T>> {
        NZObject::new(init)
    }

    /// Merge per-thread statistics into a report. Safe to call from any
    /// thread at any time, including mid-run: the per-thread cells are
    /// single-writer atomics, so a snapshot is always well-defined (it
    /// may be mid-transaction, e.g. counting a begin whose commit hasn't
    /// landed yet).
    pub fn stats_snapshot(&self) -> TmStats {
        ThreadStats::merge_all(self.thread_stats.iter().map(Arc::as_ref))
    }

    /// Reset per-thread statistics (e.g. after warmup).
    ///
    /// Quiescent-only for exactness: an increment racing with the reset
    /// can be lost (the owner's read-add-store may span the zeroing).
    /// Call between runs, not during one.
    pub fn reset_stats(&self) {
        for ts in self.thread_stats.iter() {
            ts.reset();
        }
    }

    /// Arm or disarm flight-recorder event capture. Without the `trace`
    /// cargo feature this is a no-op (the hooks are compiled out).
    pub fn set_tracing(&self, on: bool) {
        #[cfg(feature = "trace")]
        self.trace_on.store(on, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(feature = "trace"))]
        let _ = on;
    }

    /// True when event capture is armed (always false without the
    /// `trace` feature).
    pub fn tracing_enabled(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.trace_on.load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(feature = "trace"))]
        false
    }

    /// Drain every thread's event ring into one merged, time-ordered
    /// [`Trace`], resetting the rings.
    ///
    /// Must only be called while no transactions are in flight (between
    /// runs): rings are single-writer and read here without
    /// synchronization. Returns an empty trace without the `trace`
    /// feature.
    pub fn take_trace(&self) -> Trace {
        let mut trace = Trace::default();
        #[cfg(feature = "trace")]
        for tid in 0..self.threads.len() {
            // Safety: quiescence contract above.
            let ctx = unsafe { self.threads.get(tid) };
            trace.overwritten += ctx.ring.drain_into(&mut trace.events);
        }
        trace.sort();
        trace
    }

    /// This engine's protocol sanitizer (see [`crate::sanitizer`]).
    #[cfg(feature = "sanitize")]
    pub fn sanitizer(&self) -> &crate::sanitizer::Sanitizer {
        &self.san
    }

    /// A hooked protocol decision point: log the step and inject a
    /// schedule-seeded pause (0..=max_pause `spin_wait`s) drawn from this
    /// thread's deterministic stream. On the simulated platform this
    /// deterministically reshapes the interleaving; on native threads it
    /// injects jitter exactly where the protocol races live.
    #[cfg(feature = "sanitize")]
    fn san_point(&self, ctx: &mut ThreadCtx, tid: usize, point: crate::sanitizer::Point) {
        let generation = self.san.generation();
        if generation == 0 {
            return;
        }
        self.san.log_step(tid as u32, point);
        let max_pause = self.san.max_pause();
        if max_pause == 0 {
            // Armed with a zero pause budget: a pure yield-point
            // annotation. Every protocol edge becomes a scheduling
            // decision for an installed `SchedPolicy` (nztm-check's
            // exploration modes) without charging simulated time.
            self.platform.yield_now();
            return;
        }
        let rng = match &mut ctx.san_rng {
            Some((g, rng)) if *g == generation => rng,
            slot => {
                *slot = Some((generation, DetRng::new(self.san.schedule_seed()).split(tid as u64)));
                &mut slot.as_mut().expect("just set").1
            }
        };
        let pause = rng.next_u64() % (max_pause + 1);
        for _ in 0..pause {
            self.platform.spin_wait();
        }
    }

    /// No-op twin so call sites need no `cfg` of their own.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn san_point(&self, _ctx: &mut ThreadCtx, _tid: usize, _point: crate::sanitizer::Point) {}

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Execute `f` as a transaction, retrying until it commits. Returns
    /// `f`'s result from the committed attempt.
    pub fn run<R>(&self, mut f: impl FnMut(&mut NzTx<P, M>) -> Result<R, Abort>) -> R {
        self.run_attempts(|tx| f(tx).map(Some)).expect("only `run_until_crash` attempts crash")
    }

    /// Testing support: execute `f` as transaction attempts exactly like
    /// [`NzStm::run`], except that an attempt returning `Ok(None)`
    /// **crashes** — it is abandoned in place, with the descriptor left
    /// `Active` forever and any acquired ownerships still installed, and
    /// no further attempts are made (returns `None`). This is the
    /// real-engine analogue of the §3 model's crashed-owner action: the
    /// nonblocking modes must commit past the corpse by inflating
    /// (§2.3.1), while BZSTM, by design, waits forever.
    ///
    /// The crashed attempt never reaches its commit CAS, so its eager
    /// writes must be invisible to every later transaction (the backup
    /// restore / locator old-data path guarantees this); `nztm-check`
    /// asserts exactly that.
    pub fn run_until_crash<R>(
        &self,
        f: impl FnMut(&mut NzTx<P, M>) -> Result<Option<R>, Abort>,
    ) -> Option<R> {
        self.run_attempts(f)
    }

    /// The one retry loop: begin, run `f`, commit or abort, back off,
    /// repeat. `Ok(None)` from `f` abandons the attempt in place (the
    /// [`NzStm::run_until_crash`] hook) and ends the loop with `None`.
    fn run_attempts<R>(
        &self,
        mut f: impl FnMut(&mut NzTx<P, M>) -> Result<Option<R>, Abort>,
    ) -> Option<R> {
        let tid = self.platform.core_id();
        // Safety: `tid` is the calling thread's own core id.
        let ctx = unsafe { self.threads.get(tid) };
        let mut had_abort = false;
        loop {
            // One pin per attempt: `begin` borrows it, and every barrier
            // iteration and commit validation nest under it (a
            // thread-local depth bump) instead of each publishing the
            // participant word. Dropped before the backoff spin, where
            // the thread holds no pointer.
            let attempt_pin = nztm_epoch::pin();
            self.begin(ctx, tid, &attempt_pin);
            let mut tx =
                NzTx { sys: self as *const NzStm<P, M>, ctx: ctx as *mut ThreadCtx, tid };
            match f(&mut tx) {
                Ok(Some(r)) => {
                    if self.commit(ctx, tid) {
                        ctx.backoff.reset();
                        if had_abort {
                            ctx.stats.txns_with_aborts.bump();
                        }
                        return Some(r);
                    }
                }
                Ok(None) => return None,
                Err(Abort(cause)) => self.abort_txn(ctx, tid, cause),
            }
            drop(attempt_pin);
            had_abort = true;
            // Randomized exponential backoff between attempts breaks the
            // symmetric-retry livelock obstruction-freedom permits.
            let steps = ctx.backoff.steps(ctx.rng.next_u64());
            for _ in 0..steps {
                self.platform.spin_wait();
            }
        }
    }

    /// Start an attempt with a fresh descriptor (§2.2). `Arc` because
    /// object owner fields and the registry take strong counts; the
    /// previous attempt's descriptor is freed once the last of those
    /// drains through the epoch.
    fn begin(&self, ctx: &mut ThreadCtx, tid: usize, guard: &Guard) {
        ctx.serial += 1;
        hot_stat!(ctx, descriptor_alloc);
        let desc = Arc::new(TxnDesc::new(tid as u32, ctx.serial));
        self.registry.publish(tid, &desc, guard);
        self.platform.mem(self.registry.slot_addr(tid), 8, AccessKind::Write);
        #[cfg(feature = "sanitize")]
        self.san.txn_begin(Arc::as_ptr(&desc) as u64, tid as u32, ctx.serial);
        trace_evt!(self, ctx, tid, TxnBegin, ctx.serial, 0);
        ctx.current = Some(desc);
        ctx.read_set.clear();
        ctx.write_set.clear();
        ctx.read_index.clear();
        ctx.write_index.clear();
        if M::NOREC {
            ctx.norec_vals.clear();
            ctx.norec_redo.clear();
            // Sample the snapshot clock, waiting out any in-flight
            // committer (odd clock) so the first reads cannot observe its
            // partial write-back.
            ctx.snapshot = self.norec_wait_even();
        }
    }

    fn me(ctx: &ThreadCtx) -> &Arc<TxnDesc> {
        ctx.current.as_ref().expect("no transaction in flight")
    }

    /// Abort if our own AbortNowPlease flag is set.
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
        if M::NOREC {
            return self.norec_commit(ctx, tid);
        }
        let me_ptr = Arc::as_ptr(Self::me(ctx));

        // Invisible-read extension: validate the read set. Serialization
        // point is this validation; our own writes are protected by
        // ownership until the status CAS below. Objects we later acquired
        // for writing were already validated *at acquire time* (their
        // version necessarily moved when we bumped it ourselves), so they
        // are recognized by ownership and skipped here.
        if self.cfg.read_mode == ReadMode::Invisible {
            let guard = nztm_epoch::pin();
            let mut valid = true;
            for i in 0..ctx.read_set.len() {
                let r = ctx.read_set.get(i).expect("index in range");
                let h = r.obj.header();
                self.platform.mem(h.addr(), 8, AccessKind::Read);
                // A settled owner, in place or through a locator, leaves
                // the value a reader saw until the next acquisition bumps
                // the version. (An inflated object stays inflated until a
                // writer deflates it, so failing every read of one whose
                // locator owner has settled would starve read-only
                // transactions.)
                let still_valid = |t: &TxnDesc| {
                    std::ptr::eq(t, me_ptr)
                        || (t.status() != Status::Active && h.version() == r.version)
                };
                let ok = match h.owner(&guard) {
                    OwnerRef::None => h.version() == r.version,
                    OwnerRef::Txn(t, _) => still_valid(t),
                    OwnerRef::Inflated(l, _) => still_valid(l.owner()),
                };
                if !ok {
                    valid = false;
                    break;
                }
            }
            drop(guard);
            if !valid {
                self.abort_txn(ctx, tid, AbortCause::Validation);
                return false;
            }
        }

        self.san_point(ctx, tid, crate::sanitizer::Point::CommitCas);
        let me = Self::me(ctx);
        self.platform.mem(me.addr(), 8, AccessKind::Rmw);
        if me.try_commit() {
            #[cfg(feature = "sanitize")]
            self.san.commit_ok(me_ptr as u64, tid as u32);
            self.cleanup_after_commit(ctx, tid);
            ctx.stats.commits.bump();
            trace_evt!(self, ctx, tid, TxnCommit, ctx.serial, 0);
            true
        } else {
            // AbortNowPlease arrived before the commit CAS.
            self.abort_txn(ctx, tid, AbortCause::Requested);
            false
        }
    }

    fn cleanup_after_commit(&self, ctx: &mut ThreadCtx, tid: usize) {
        // Reclaim our backup buffers into the thread-local pool
        // ("thread-local memory for backups ... reused after successful
        // transactions", §4.4.2). The CAS-take fails harmlessly if a
        // faster acquirer already replaced the buffer.
        while let Some(w) = ctx.write_set.pop() {
            if let WriteTarget::InPlace { backup_raw } = w.target {
                self.platform.mem_nb(w.obj.header().addr(), 8, AccessKind::Rmw);
                if let Some(buf) = w.obj.header().take_backup(backup_raw) {
                    ctx.pool.put(buf);
                }
            }
        }
        self.clear_reader_bits(ctx, tid);
    }

    fn abort_txn(&self, ctx: &mut ThreadCtx, tid: usize, cause: AbortCause) {
        self.san_point(ctx, tid, crate::sanitizer::Point::AbortAck);
        let me = Self::me(ctx);
        // The `ack` hook fires *before* the status CAS so that any peer
        // observing `Status = Aborted` is guaranteed to find the victim's
        // acknowledgement already recorded.
        #[cfg(feature = "sanitize")]
        self.san.ack(Arc::as_ptr(me) as u64, tid as u32);
        self.platform.mem(me.addr(), 8, AccessKind::Rmw);
        // Acknowledge: after this we never touch object data again; data
        // we wrote is restored lazily by the next acquirer (§2.2).
        me.acknowledge_abort();
        self.clear_reader_bits(ctx, tid);
        ctx.write_set.clear();
        // Exhaustive by design (no `_` arm): adding an `AbortCause`
        // variant without a counter must fail to compile, so every abort
        // — including HTM-fallback-originated ones — is counted exactly
        // once here and nowhere else.
        match cause {
            AbortCause::Requested => ctx.stats.aborts_requested.bump(),
            AbortCause::SelfAbort => ctx.stats.aborts_self.bump(),
            AbortCause::Validation => ctx.stats.aborts_validation.bump(),
            AbortCause::Explicit => ctx.stats.aborts_explicit.bump(),
            AbortCause::Htm => ctx.stats.aborts_htm.bump(),
            AbortCause::ValueValidation => ctx.stats.aborts_value_validation.bump(),
        }
        trace_evt!(self, ctx, tid, TxnAbort, ctx.serial, cause.code());
    }

    fn clear_reader_bits(&self, ctx: &mut ThreadCtx, tid: usize) {
        if M::NOREC {
            // NOrec reads never registered anywhere: drop the value log.
            // (Calling `remove_reader` here would trip the sanitizer's
            // reader-intactness check — and rightly so.)
            ctx.read_set.clear();
            ctx.norec_vals.clear();
            ctx.norec_redo.clear();
            return;
        }
        if self.cfg.read_mode == ReadMode::Visible {
            while let Some(r) = ctx.read_set.pop() {
                let h = r.obj.header();
                self.platform.mem_nb(h.addr(), 8, AccessKind::Rmw);
                let _intact = h.remove_reader(tid);
                #[cfg(feature = "sanitize")]
                self.san.reader_remove(h.addr(), tid, _intact);
            }
        } else {
            ctx.read_set.clear();
        }
    }

    // ------------------------------------------------------------------
    // Conflict resolution
    // ------------------------------------------------------------------

    /// Resolve a conflict with `other`, the active transaction behind the
    /// owner word value `raw` of header `h`.
    ///
    /// `await_ack` distinguishes in-place owners (whose late writes land
    /// in the shared data — we must wait for the acknowledgement) from
    /// locator owners (whose late writes land in their private `new_data`
    /// — once AbortNowPlease is set they are as good as aborted).
    fn resolve_conflict(
        &self,
        ctx: &mut ThreadCtx,
        h: &crate::object::NZHeader,
        raw: u64,
        other: &TxnDesc,
        await_ack: bool,
    ) -> Result<ConflictOutcome, Abort> {
        let tid = Self::me(ctx).thread;
        hot_stat!(ctx, conflicts);
        trace_evt!(
            self,
            ctx,
            tid,
            Conflict,
            h.addr() as u64,
            crate::trace::pack_txn(other.thread as usize, other.serial)
        );
        // The sanitizer mirror keys transactions by descriptor address
        // (what `txn_begin`/`ack` report). `raw` is the *owner word* —
        // for a locator owner that is the tagged locator pointer, not the
        // descriptor — so hooks about `other` must use its own address.
        #[cfg(feature = "sanitize")]
        let peer_key = other as *const TxnDesc as u64;
        let mut waited = 0u64;
        #[cfg(feature = "trace")]
        let mut traced_wait = false;
        loop {
            self.validate(ctx)?;
            self.platform.mem(other.addr(), 8, AccessKind::Read);
            #[cfg(feature = "sanitize")]
            {
                let (st, anp) = other.state_snapshot();
                self.san.observed_peer(peer_key, st, anp);
            }
            if other.status() != Status::Active || h.owner_raw() != raw {
                Self::me(ctx).set_waiting(false);
                return Ok(ConflictOutcome::Settled);
            }
            // One consultation per spin step: exactly one `spin_wait`
            // runs between consecutive calls (the `Wait` arm below), so
            // the `waited` count the policy sees equals spin steps — the
            // unit its budgets are documented in.
            match self.cm.resolve(Self::me(ctx), other, waited) {
                Resolution::Wait => {
                    #[cfg(feature = "trace")]
                    if !traced_wait {
                        traced_wait = true;
                        trace_evt!(
                            self,
                            ctx,
                            tid,
                            Wait,
                            h.addr() as u64,
                            crate::trace::pack_txn(other.thread as usize, other.serial)
                        );
                    }
                    // Raise the deadlock-detection flag while stalled
                    // ("TL raises a flag and waits until TH is done").
                    Self::me(ctx).set_waiting(true);
                    self.platform.spin_wait();
                    hot_stat!(ctx, wait_steps);
                    waited += 1;
                }
                Resolution::AbortSelf => {
                    Self::me(ctx).set_waiting(false);
                    return Err(Abort(AbortCause::SelfAbort));
                }
                Resolution::RequestAbort => {
                    Self::me(ctx).set_waiting(false);
                    ctx.stats.abort_requests_sent.bump();
                    self.san_point(ctx, tid as usize, crate::sanitizer::Point::AnpSet);
                    self.platform.mem(other.addr(), 8, AccessKind::Rmw);
                    let prev = other.request_abort();
                    #[cfg(feature = "sanitize")]
                    self.san.anp_set(peer_key, prev == Status::Active);
                    #[cfg(feature = "sanitize")]
                    if self.cfg.inject_handshake_bug && prev == Status::Active {
                        // FAULT INJECTION: force the victim's status from
                        // the requester's thread — the rule-3 bug the
                        // sanitizer must catch (no hook fires; detection
                        // must be structural, via `observed_peer`).
                        other.force_abort_injected();
                    }
                    if prev != Status::Active {
                        // Peer settled before the request landed.
                        return Ok(ConflictOutcome::Settled);
                    }
                    // Per §2.2, confirm we have not been asked to abort
                    // ourselves after requesting the peer's abort.
                    self.validate(ctx)?;
                    if !await_ack {
                        // Locator owner: its commit is now impossible and
                        // its stores are private. Proceed immediately.
                        return Ok(ConflictOutcome::Settled);
                    }
                    // Wait for the acknowledgement (Status = Aborted).
                    self.san_point(ctx, tid as usize, crate::sanitizer::Point::AwaitAck);
                    let mut acked_wait = 0u64;
                    loop {
                        self.platform.mem(other.addr(), 8, AccessKind::Read);
                        #[cfg(feature = "sanitize")]
                        {
                            let (st, anp) = other.state_snapshot();
                            self.san.observed_peer(peer_key, st, anp);
                        }
                        if other.status() != Status::Active {
                            return Ok(ConflictOutcome::Settled);
                        }
                        self.validate(ctx)?;
                        if M::NONBLOCKING && acked_wait >= self.cfg.patience {
                            if M::SCSS {
                                // One-shot barrier: after this, any
                                // in-flight SCSS store by the victim has
                                // completed and all future ones fail.
                                self.platform.work(self.cfg.scss_cycles);
                                other.with_scss_lock(|| {});
                                return Ok(ConflictOutcome::Settled);
                            }
                            return Ok(ConflictOutcome::Unresponsive);
                        }
                        self.platform.spin_wait();
                        hot_stat!(ctx, wait_steps);
                        acked_wait += 1;
                    }
                }
            }
        }
    }

    /// Request aborts of all visible readers of `h` other than ourselves.
    /// Readers need no acknowledgement: once AbortNowPlease is set they
    /// can never commit, and they perform no stores.
    fn request_readers(&self, ctx: &mut ThreadCtx, h: &crate::object::NZHeader, tid: usize, guard: &Guard) -> Result<(), Abort> {
        if self.cfg.read_mode != ReadMode::Visible {
            return Ok(());
        }
        // Bitmap load: with no readers the writer pays exactly this one
        // header-line read.
        self.platform.mem(h.addr(), 8, AccessKind::Read);
        let me = Arc::as_ptr(Self::me(ctx));
        for t in h.readers_other_than(tid) {
            self.platform.mem(self.registry.slot_addr(t), 8, AccessKind::Read);
            if let Some(d) = self.registry.current(t, guard) {
                if !std::ptr::eq(d, me) && d.status() == Status::Active {
                    // A live writer-reader conflict, resolved by request.
                    hot_stat!(ctx, conflicts);
                    trace_evt!(self, ctx, tid, Conflict, h.addr() as u64, crate::trace::pack_txn(t, d.serial));
                    self.san_point(ctx, tid, crate::sanitizer::Point::AnpSet);
                    self.platform.mem(d.addr(), 8, AccessKind::Rmw);
                    let _prev = d.request_abort();
                    #[cfg(feature = "sanitize")]
                    self.san.anp_set(d as *const TxnDesc as u64, _prev == Status::Active);
                    ctx.stats.abort_requests_sent.bump();
                }
            }
        }
        self.validate(ctx)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Acquire `obj` for writing; returns the index of its write-set entry.
    fn acquire_write(&self, ctx: &mut ThreadCtx, tid: usize, obj: &Arc<dyn NzObjAny>) -> Result<usize, Abort> {
        self.validate(ctx)?;
        let me_ptr = Arc::as_ptr(Self::me(ctx));
        let h = obj.header();
        let key = header_key(h);

        // Invisible-read upgrade hazard: if we previously read this
        // object, its version must still be what we read, or our earlier
        // read is stale (lost update). Validated *here* — not at commit —
        // because our own acquisition is about to bump the version.
        let read_version = if self.cfg.read_mode == ReadMode::Invisible {
            ctx.read_index.get(key).and_then(|s| ctx.read_set.get(s as usize)).map(|r| r.version)
        } else {
            None
        };

        loop {
            // Already acquired? O(1) via the write index. Checked *inside*
            // the retry loop: `inflate` and `acquire_inflated` push the
            // entry themselves and fall through to the next iteration, so
            // this check is also the loop's success exit for those paths
            // (when it sat outside the loop, a post-inflation iteration
            // could spin forever on an object it already owned).
            if let Some(i) = ctx.write_index.get(key) {
                return Ok(i as usize);
            }
            let guard = nztm_epoch::pin();
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            if M::NONBLOCKING {
                // The inflation-tag test on the owner word: the extra
                // instruction BZSTM compiles away (§4.4.2's 2–5%).
                self.platform.work(1);
            }
            let owner_snapshot = h.owner(&guard);
            // Check the version *after* loading the owner word: any later
            // foreign acquisition changes the owner word and fails our
            // CAS (the epoch pin rules out owner-word ABA). The snapshot
            // owner's own bump may still be pending, which is why the
            // settled-owner arm below checks again.
            if let Some(v) = read_version {
                if h.version() != v {
                    return Err(Abort(AbortCause::Validation));
                }
            }
            match owner_snapshot {
                OwnerRef::None => {
                    if self.try_install(ctx, tid, obj, 0, false, &guard)? {
                        return Ok(ctx.write_set.len() - 1);
                    }
                }
                OwnerRef::Txn(t, raw) => {
                    let (st, anp) = t.state_snapshot();
                    match st {
                        Status::Active => {
                            assert!(
                                !std::ptr::eq(t, me_ptr),
                                "active self-owned object must already be in the write set"
                            );
                            if M::SCSS && anp {
                                // A previous requester already set
                                // AbortNowPlease and barriered (or will);
                                // barrier ourselves and steal: every
                                // further SCSS store by the victim fails.
                                self.platform.work(self.cfg.scss_cycles);
                                t.with_scss_lock(|| {});
                                if self.try_install(ctx, tid, obj, raw, true, &guard)? {
                                    return Ok(ctx.write_set.len() - 1);
                                }
                                continue;
                            }
                            match self.resolve_conflict(ctx, h, raw, t, true)? {
                                ConflictOutcome::Settled => continue,
                                ConflictOutcome::Unresponsive => {
                                    debug_assert!(M::NONBLOCKING && !M::SCSS);
                                    self.inflate(ctx, tid, obj, raw, t, &guard)?;
                                    // Owner word is (likely) a locator now;
                                    // next iteration takes the inflated path.
                                    continue;
                                }
                            }
                        }
                        _ => {
                            // Settled owner (or our own settled descriptor
                            // from an earlier attempt): restore if it
                            // aborted, then steal.
                            //
                            // Check the read version again. The check
                            // above may have run between this owner's CAS
                            // and its bump; the bump precedes its commit
                            // or abort, so only a version loaded after
                            // seeing it settled is sure to include it.
                            // Without this, two writers that both read
                            // the version before a committed owner's bump
                            // could both install (lost update).
                            if let Some(v) = read_version {
                                if h.version() != v {
                                    return Err(Abort(AbortCause::Validation));
                                }
                            }
                            let aborted = st == Status::Aborted;
                            if self.try_install(ctx, tid, obj, raw, aborted, &guard)? {
                                return Ok(ctx.write_set.len() - 1);
                            }
                        }
                    }
                }
                OwnerRef::Inflated(loc, raw) => {
                    assert!(
                        M::NONBLOCKING && !M::SCSS,
                        "{} must never see an inflated object",
                        M::NAME
                    );
                    if self.acquire_inflated(ctx, tid, obj, loc, raw, &guard)? {
                        return Ok(ctx.write_set.len() - 1);
                    }
                }
            }
        }
    }

    /// CAS ourselves into the owner word (normal, non-inflated path) and
    /// do the post-acquisition work: version bump, reader aborts,
    /// restore-or-backup, final validation.
    fn try_install(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<dyn NzObjAny>,
        expected_raw: u64,
        prev_aborted: bool,
        guard: &Guard,
    ) -> Result<bool, Abort> {
        self.san_point(ctx, tid, crate::sanitizer::Point::OwnerCas);
        self.platform.mem(obj.header().addr(), 8, AccessKind::Rmw);
        if !obj.header().cas_owner_to_txn(expected_raw, Self::me(ctx), guard) {
            return Ok(false);
        }
        let h = obj.header();
        #[cfg(feature = "sanitize")]
        {
            // Safety: `expected_raw` was loaded under `guard`, so the
            // descriptor it names (if any) is still live here.
            let prev_state = (expected_raw != 0)
                .then(|| unsafe { &*(expected_raw as *const TxnDesc) }.state_snapshot());
            self.san.owner_cas_txn(
                h.addr(),
                Arc::as_ptr(Self::me(ctx)) as u64,
                expected_raw,
                prev_state,
                M::SCSS,
            );
        }
        h.bump_version();
        Self::me(ctx).gained_object();
        hot_stat!(ctx, acquires);
        trace_evt!(self, ctx, tid, Acquire, h.addr() as u64, ctx.serial);

        // Visible readers must be told to abort *before* we mutate data.
        self.request_readers(ctx, h, tid, guard)?;

        let n = obj.data_words().len();
        let existing = h
            .backup(guard)
            .filter(|(b, _)| prev_aborted && b.usable_as_backup(guard));
        let backup_raw = if let Some((b, braw)) = existing {
            // Previous owner aborted with a (usable) backup in place:
            // restore it (lazy undo), and adopt that same buffer as our
            // own backup — it already holds the pre-transaction value
            // (§2.2). Adoption (installer := us) happens *before* the
            // restore copy so that if we abort mid-restore, the buffer
            // still reads as usable for the next acquirer.
            b.set_installer(Self::me(ctx), guard);
            self.san_point(ctx, tid, crate::sanitizer::Point::Restore);
            self.platform.mem_nb(b.addr(), n * 8, AccessKind::Read);
            self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Write);
            #[cfg(feature = "sanitize")]
            let scss_failures_before = ctx.stats.scss_failures.get();
            self.store_words(ctx, obj.data_words(), b.words());
            #[cfg(feature = "sanitize")]
            {
                // The restore must reproduce the pre-transaction bytes —
                // unless SCSS skipped stores because our own abort was
                // requested mid-restore (the next acquirer redoes it).
                let complete = ctx.stats.scss_failures.get() == scss_failures_before;
                let mut now = vec![0u64; n];
                crate::data::snapshot_words(obj.data_words(), &mut now);
                self.san.restored(h.addr(), &now, complete);
                // The adopted buffer remains the undo source and still
                // holds the pre-transaction contents.
                let mut pre = vec![0u64; n];
                crate::data::snapshot_words(b.words(), &mut pre);
                self.san.backup_recorded(h.addr(), pre);
            }
            braw
        } else {
            // Create a backup copy of the (valid) current data, in a
            // buffer from the thread-local pool when it has one.
            let buf = match ctx.pool.take(n) {
                Some(b) => {
                    hot_stat!(ctx, backup_reused);
                    b
                }
                None => {
                    hot_stat!(ctx, backup_alloc);
                    WordBuf::zeroed(n)
                }
            };
            buf.set_installer(Self::me(ctx), guard);
            self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
            self.platform.mem_nb(buf.addr(), n * 8, AccessKind::Write);
            crate::data::copy_words(buf.words(), obj.data_words());
            self.san_point(ctx, tid, crate::sanitizer::Point::BackupInstall);
            // Install; retry against racing commit-time take-backs.
            loop {
                let cur = h.backup_raw();
                if h.cas_backup(cur, Some(&buf), guard) {
                    break;
                }
            }
            #[cfg(feature = "sanitize")]
            {
                let mut pre = vec![0u64; n];
                crate::data::snapshot_words(buf.words(), &mut pre);
                self.san.backup_recorded(h.addr(), pre);
            }
            h.backup_raw()
        };

        // Final validation (§2.2): if we have been asked to abort, we must
        // not proceed — the object stays owned by our (aborting)
        // transaction and the next acquirer will restore the backup.
        push_write(ctx, WriteEntry { obj: Arc::clone(obj), target: WriteTarget::InPlace { backup_raw } });
        self.validate(ctx)?;
        Ok(true)
    }

    /// Store `src` into `dst` (in-place data words), SCSS-wrapping each
    /// word store in SCSS mode.
    fn store_words(&self, ctx: &mut ThreadCtx, dst: &[std::sync::atomic::AtomicU64], src: &[std::sync::atomic::AtomicU64]) {
        if M::SCSS {
            for (d, s) in dst.iter().zip(src) {
                let v = s.load(std::sync::atomic::Ordering::Relaxed);
                // Failure is detected by the *next* validate; stores after
                // AbortNowPlease simply do not happen.
                let _ = self.scss_store(ctx, d, v, None);
            }
        } else {
            for (d, s) in dst.iter().zip(src) {
                d.store(s.load(std::sync::atomic::Ordering::Relaxed), std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// The Single-Compare Single-Store: atomically { if my AbortNowPlease
    /// is clear, store }. Returns whether the store happened. An eager
    /// data write passes `eager`: the object's header address and the
    /// writer's own backup word, for sanitizer rule 2.
    fn scss_store(
        &self,
        ctx: &mut ThreadCtx,
        word: &std::sync::atomic::AtomicU64,
        value: u64,
        eager: Option<(usize, u64)>,
    ) -> bool {
        #[cfg(not(feature = "sanitize"))]
        let _ = eager;
        hot_stat!(ctx, scss_stores);
        self.platform.work(self.cfg.scss_cycles);
        let me = Self::me(ctx);
        let tid = me.thread;
        let ok = me.with_scss_lock(|| {
            if me.abort_requested() {
                false
            } else {
                // Rule 2 is checked only once the store is sure to happen:
                // a writer whose ownership was stolen may find the
                // object's backup word already taken by the thief, but
                // none of its stores lands.
                #[cfg(feature = "sanitize")]
                if let Some((h_addr, backup_raw)) = eager {
                    self.san.eager_write(h_addr, backup_raw);
                }
                word.store(value, std::sync::atomic::Ordering::Relaxed);
                true
            }
        });
        if !ok {
            hot_stat!(ctx, scss_failures);
        }
        trace_evt!(self, ctx, tid, ScssStore, ok as u64, ctx.serial);
        ok
    }

    // ------------------------------------------------------------------
    // Inflation / deflation (NZSTM only)
    // ------------------------------------------------------------------

    /// Inflate `obj` past the unresponsive transaction `unresp` (§2.3.1).
    /// On success we own the object through a fresh locator.
    fn inflate(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<dyn NzObjAny>,
        unresp_raw: u64,
        unresp: &TxnDesc,
        guard: &Guard,
    ) -> Result<(), Abort> {
        // Pre-CAS checks (§2.3.1): we are active with no pending abort
        // request; the unresponsive transaction is still unresponsive;
        // the owner word is unchanged (enforced by the CAS itself).
        self.validate(ctx)?;
        if unresp.status() != Status::Active {
            return Ok(()); // it finally acknowledged; retry normally
        }

        let h = obj.header();
        let n = obj.data_words().len();

        // Old data: the unresponsive transaction's backup (pre-transaction
        // value), or a fresh copy of the in-place data if it never
        // installed one (footnote 1: it was still acquiring).
        let old = match h.backup_arc(guard).filter(|b| b.usable_as_backup(guard)) {
            Some(b) => b,
            None => {
                self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
                WordBuf::from_words(obj.data_words())
            }
        };
        let new = WordBuf::from_words(old.words());
        self.platform.mem_nb(new.addr(), n * 8, AccessKind::Write);

        let unresp_arc = unsafe {
            // Safety: `unresp_raw` was loaded under `guard`; the field's
            // strong count cannot be released before the pin ends.
            std::sync::Arc::increment_strong_count(unresp as *const TxnDesc);
            Arc::from_raw(unresp as *const TxnDesc)
        };
        // The locator stores an owner count: the one clone this path needs.
        let loc = Arc::new(Locator::new(Arc::clone(Self::me(ctx)), unresp_arc, old, new));

        self.san_point(ctx, tid, crate::sanitizer::Point::Inflate);
        self.platform.mem(h.addr(), 8, AccessKind::Rmw);
        if h.cas_owner_to_locator(unresp_raw, &loc, guard) {
            #[cfg(feature = "sanitize")]
            self.san.inflated(
                h.addr(),
                (Arc::as_ptr(&loc) as u64) | crate::object::INFLATED_TAG,
                Arc::as_ptr(Self::me(ctx)) as u64,
                unresp_raw,
                unresp.state_snapshot(),
            );
            ctx.stats.inflations.bump();
            trace_evt!(
                self,
                ctx,
                tid,
                Inflate,
                h.addr() as u64,
                crate::trace::pack_txn(unresp.thread as usize, unresp.serial)
            );
            h.bump_version();
            Self::me(ctx).gained_object();
            hot_stat!(ctx, acquires);
            trace_evt!(self, ctx, tid, Acquire, h.addr() as u64, ctx.serial);
            self.request_readers(ctx, h, tid, guard)?;
            push_write(ctx, WriteEntry { obj: Arc::clone(obj), target: WriteTarget::Inflated { loc } });
            self.validate(ctx)?;
        }
        // On CAS failure someone else moved first; the caller retries.
        Ok(())
    }

    /// Acquire an inflated object via the DSTM rules (§2.3.1), deflating
    /// it afterwards if the unresponsive transaction has acknowledged.
    fn acquire_inflated(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<dyn NzObjAny>,
        loc: &Locator,
        raw: u64,
        guard: &Guard,
    ) -> Result<bool, Abort> {
        let me_ptr = Arc::as_ptr(Self::me(ctx));
        let h = obj.header();

        let (st, anp) = loc.owner().state_snapshot();
        if st == Status::Active && !anp && !std::ptr::eq(loc.owner(), me_ptr) {
            // Live locator owner: contention management. Locator owners
            // need no acknowledgement (their stores are private), so
            // `await_ack = false`.
            match self.resolve_conflict(ctx, h, raw, loc.owner(), false)? {
                ConflictOutcome::Settled => return Ok(false), // re-examine
                ConflictOutcome::Unresponsive => unreachable!("no ack needed for locator owners"),
            }
        }
        if std::ptr::eq(loc.owner(), me_ptr) {
            // Already ours through this locator (caller keeps write-set
            // entries in sync, so this is a stale retry).
            return Ok(false);
        }

        // DSTM acquire: value = new if committed else old; build our
        // replacement locator, carrying the aborted-transaction identity.
        let value_buf = loc.current_data();
        let n = value_buf.len();
        let new = WordBuf::from_words(value_buf.words());
        self.platform.mem_nb(value_buf.addr(), n * 8, AccessKind::Read);
        self.platform.mem_nb(new.addr(), n * 8, AccessKind::Write);
        let mine = Arc::new(Locator::new(
            Arc::clone(Self::me(ctx)),
            Arc::clone(loc.aborted_txn_arc()),
            Arc::clone(value_buf),
            new,
        ));

        self.san_point(ctx, tid, crate::sanitizer::Point::OwnerCas);
        self.platform.mem(h.addr(), 8, AccessKind::Rmw);
        if !h.cas_owner_to_locator(raw, &mine, guard) {
            return Ok(false);
        }
        #[cfg(feature = "sanitize")]
        self.san.locator_replaced(
            h.addr(),
            (Arc::as_ptr(&mine) as u64) | crate::object::INFLATED_TAG,
            raw,
        );
        h.bump_version();
        Self::me(ctx).gained_object();
        hot_stat!(ctx, acquires);
        trace_evt!(self, ctx, tid, Acquire, h.addr() as u64, ctx.serial);
        self.request_readers(ctx, h, tid, guard)?;

        // Deflation (§2.3.1): once the unresponsive transaction has
        // acknowledged, restore in-place operation.
        if mine.deflatable() {
            self.validate(ctx)?;
            // Exact owner-word value of *our* locator. (Reading the field
            // back instead would race with a competitor that has already
            // requested our abort and replaced our locator — locator
            // owners get no acknowledgement grace.)
            let my_loc_raw = (Arc::as_ptr(&mine) as u64) | 1;
            // 1. Backup := the valid data (our locator's old data),
            //    installed under our identity.
            mine.old_data().set_installer(Self::me(ctx), guard);
            self.san_point(ctx, tid, crate::sanitizer::Point::BackupInstall);
            loop {
                let cur = h.backup_raw();
                self.platform.mem(h.addr(), 8, AccessKind::Rmw);
                if h.cas_backup(cur, Some(mine.old_data()), guard) {
                    break;
                }
            }
            #[cfg(feature = "sanitize")]
            {
                let mut pre = vec![0u64; n];
                crate::data::snapshot_words(mine.old_data().words(), &mut pre);
                self.san.backup_recorded(h.addr(), pre);
            }
            // 2. Owner := our transaction (untagged — deflated).
            self.san_point(ctx, tid, crate::sanitizer::Point::DeflateCas);
            self.platform.mem(h.addr(), 8, AccessKind::Rmw);
            if !h.cas_owner_to_txn(my_loc_raw, Self::me(ctx), guard) {
                // A competitor requested our abort and replaced our
                // locator before we could deflate. Keep the locator entry;
                // validation will observe the AbortNowPlease shortly.
                push_write(ctx, WriteEntry {
                    obj: Arc::clone(obj),
                    target: WriteTarget::Inflated { loc: mine },
                });
                self.validate(ctx)?;
                return Ok(true);
            }
            #[cfg(feature = "sanitize")]
            self.san.deflated(
                h.addr(),
                me_ptr as u64,
                my_loc_raw,
                mine.aborted_txn().status(),
            );
            // 3. Copy the backup back into the in-place data.
            self.san_point(ctx, tid, crate::sanitizer::Point::Restore);
            self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Write);
            #[cfg(feature = "sanitize")]
            let scss_failures_before = ctx.stats.scss_failures.get();
            self.store_words(ctx, obj.data_words(), mine.old_data().words());
            #[cfg(feature = "sanitize")]
            {
                let complete = ctx.stats.scss_failures.get() == scss_failures_before;
                let mut now = vec![0u64; n];
                crate::data::snapshot_words(obj.data_words(), &mut now);
                self.san.restored(h.addr(), &now, complete);
            }
            ctx.stats.deflations.bump();
            trace_evt!(self, ctx, tid, Deflate, h.addr() as u64, ctx.serial);
            push_write(ctx, WriteEntry {
                obj: Arc::clone(obj),
                target: WriteTarget::InPlace { backup_raw: h.backup_raw() },
            });
        } else {
            push_write(ctx, WriteEntry { obj: Arc::clone(obj), target: WriteTarget::Inflated { loc: mine } });
        }
        self.validate(ctx)?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    fn read_value<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<NZObject<T>>,
    ) -> Result<T, Abort> {
        if M::NOREC {
            return self.norec_read(ctx, tid, obj);
        }
        self.validate(ctx)?;
        hot_stat!(ctx, reads);
        let me_ptr = Arc::as_ptr(Self::me(ctx));
        let h = obj.header();
        let key = header_key(h);
        let n = T::n_words();
        let visible = self.cfg.read_mode == ReadMode::Visible;

        loop {
            let guard = nztm_epoch::pin();
            if visible && ctx.read_index.get(key).is_none() {
                // Register *before* examining the owner so any later
                // writer is guaranteed to see us. The index dedups
                // re-reads: one entry (and one `Arc` clone) per object
                // per transaction, however many times it is read.
                self.platform.mem(h.addr(), 8, AccessKind::Rmw);
                h.add_reader(tid);
                #[cfg(feature = "sanitize")]
                self.san.reader_add(h.addr(), tid);
                let any: Arc<dyn NzObjAny> = obj.clone();
                ctx.read_index.insert(key, ctx.read_set.len() as u32);
                ctx.read_set.push(ReadEntry { obj: any, version: 0 });
            }

            self.platform.mem(h.addr(), 8, AccessKind::Read);
            if M::NONBLOCKING {
                self.platform.work(1); // inflation-tag test (see acquire)
            }
            let v1 = h.version();
            let o1 = h.owner_raw();
            // Classify and pick the buffer holding the logical value.
            enum Src<'g> {
                Data,
                Buf(&'g WordBuf),
            }
            let src = match h.owner(&guard) {
                OwnerRef::None => Src::Data,
                OwnerRef::Txn(t, raw) => {
                    if std::ptr::eq(t, me_ptr) {
                        // Our own eager in-place writes.
                        Src::Data
                    } else {
                        match t.state_snapshot() {
                            (Status::Committed, _) => Src::Data,
                            (Status::Aborted, _) => match h
                                .backup(&guard)
                                .filter(|(b, _)| b.usable_as_backup(&guard))
                            {
                                Some((b, _)) => Src::Buf(b),
                                None => Src::Data,
                            },
                            (Status::Active, anp) => {
                                if M::SCSS && anp {
                                    // SCSS: an ANP'd owner is as good as
                                    // aborted once barriered — its stores
                                    // can no longer land.
                                    self.platform.work(self.cfg.scss_cycles);
                                    t.with_scss_lock(|| {});
                                    match h
                                        .backup(&guard)
                                        .filter(|(b, _)| b.usable_as_backup(&guard))
                                    {
                                        Some((b, _)) => Src::Buf(b),
                                        None => Src::Data,
                                    }
                                } else {
                                    match self.resolve_conflict(ctx, h, raw, t, true)? {
                                        ConflictOutcome::Settled => continue,
                                        ConflictOutcome::Unresponsive => {
                                            debug_assert!(M::NONBLOCKING && !M::SCSS);
                                            // Nonblocking read past an
                                            // unresponsive owner: inflate
                                            // (becoming the owner) and read
                                            // our locator's data.
                                            let any: Arc<dyn NzObjAny> = obj.clone();
                                            self.inflate(ctx, tid, &any, raw, t, &guard)?;
                                            continue;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                OwnerRef::Inflated(loc, raw) => {
                    if !M::NONBLOCKING || M::SCSS {
                        unreachable!("{} must never see an inflated object", M::NAME);
                    }
                    if std::ptr::eq(loc.owner(), me_ptr) {
                        Src::Buf(loc.new_data().as_ref())
                    } else {
                        let (st, anp) = loc.owner().state_snapshot();
                        if st == Status::Active && !anp {
                            match self.resolve_conflict(ctx, h, raw, loc.owner(), false)? {
                                ConflictOutcome::Settled => continue,
                                ConflictOutcome::Unresponsive => continue,
                            }
                        }
                        Src::Buf(loc.current_data().as_ref())
                    }
                }
            };

            // Decode (racy snapshot), then re-validate.
            ctx.scratch.clear();
            ctx.scratch.resize(n, 0);
            match src {
                Src::Data => {
                    self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
                    crate::data::snapshot_words(obj.data_words(), &mut ctx.scratch);
                }
                Src::Buf(b) => {
                    // Clamped copy rather than `snapshot_words`: `b` may
                    // be a backup buffer that raced a commit-time
                    // take-back into another thread's pool and was
                    // resized for reuse (size-class pools recycle without
                    // waiting on reader pins). The contents are then
                    // garbage, which is fine — the o1/v1 revalidation
                    // below rejects the snapshot — but the *length* must
                    // not be trusted to still match `n`.
                    self.platform.mem_nb(b.addr(), n * 8, AccessKind::Read);
                    let words = b.words();
                    for (i, slot) in ctx.scratch.iter_mut().enumerate() {
                        *slot = match words.get(i) {
                            Some(w) => w.load(std::sync::atomic::Ordering::Relaxed),
                            None => 0,
                        };
                    }
                }
            }
            self.platform.mem(h.addr(), 8, AccessKind::Read);
            if h.owner_raw() != o1 || h.version() != v1 {
                continue; // somebody moved underneath us; retry
            }
            self.validate(ctx)?;
            let value = T::decode(&ctx.scratch);
            if !visible && ctx.read_index.get(key).is_none() {
                let any: Arc<dyn NzObjAny> = obj.clone();
                ctx.read_index.insert(key, ctx.read_set.len() as u32);
                ctx.read_set.push(ReadEntry { obj: any, version: v1 });
            }
            return Ok(value);
        }
    }

    fn write_value<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<NZObject<T>>,
        value: &T,
    ) -> Result<(), Abort> {
        if M::NOREC {
            return self.norec_write(ctx, obj, value);
        }
        // Fast path: already acquired — no `Arc` clone, no owner-word
        // traffic, just an index hit and a self-validation. The clone for
        // the write-set entry happens at most once per object, inside
        // `acquire_write`.
        let idx = match ctx.write_index.get(header_key(obj.header())) {
            Some(i) => {
                self.validate(ctx)?;
                i as usize
            }
            None => {
                let any: Arc<dyn NzObjAny> = obj.clone();
                self.acquire_write(ctx, tid, &any)?
            }
        };
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        value.encode(&mut ctx.scratch);
        match &ctx.write_set.get(idx).expect("indexed write entry").target {
            &WriteTarget::InPlace { backup_raw } => {
                // Yield-point annotation modeling preemption between the
                // last validation and the in-place store — the window the
                // §2.2 acknowledgement handshake exists to protect
                // (deliberately *not* re-validated after; `sanitize`
                // builds only, no-op otherwise).
                self.san_point(ctx, tid, crate::sanitizer::Point::EagerWrite);
                // Rule 2 for SCSS is checked inside `scss_store`.
                #[cfg(feature = "sanitize")]
                if !M::SCSS {
                    self.san
                        .eager_write(obj.header().addr(), obj.header().backup_raw());
                }
                self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Write);
                if M::SCSS {
                    // Dirty-word write-back: an SCSS whose store would not
                    // change the word is skipped — semantically identical
                    // (the paired check guards *changes*) and essential
                    // because whole-object writes would otherwise multiply
                    // the per-store hardware-transaction cost the paper
                    // measures per *mutated field* (§2.3.2/§4.4.2).
                    let scratch = std::mem::take(&mut ctx.scratch);
                    for (d, v) in obj.data_words().iter().zip(&scratch) {
                        if d.load(std::sync::atomic::Ordering::Relaxed) != *v {
                            let eager = Some((obj.header().addr(), backup_raw));
                            let _ = self.scss_store(ctx, d, *v, eager);
                        }
                    }
                    ctx.scratch = scratch;
                } else {
                    crate::data::write_words(obj.data_words(), &ctx.scratch);
                }
            }
            WriteTarget::Inflated { loc } => {
                let buf = Arc::clone(loc.new_data());
                self.platform.mem_nb(buf.addr(), n * 8, AccessKind::Write);
                crate::data::write_words(buf.words(), &ctx.scratch);
            }
            WriteTarget::Buffered { .. } => {
                unreachable!("{} never buffers writes (NOrec-only target)", M::NAME)
            }
        }
        self.validate(ctx)
    }

    // ------------------------------------------------------------------
    // NOrec path (value validation + global sequence lock)
    //
    // Everything below is gated by `M::NOREC` at the lifecycle entry
    // points (begin / read_value / write_value / commit /
    // clear_reader_bits) and compiles out of the ownership modes. NOrec
    // transactions never touch owner words, reader indicators, backups,
    // or the AbortNowPlease handshake: the only shared metadata word is
    // the global sequence clock.
    // ------------------------------------------------------------------

    /// Poll the global clock (one shared-line read in the cache model).
    #[inline]
    fn norec_clock_load(&self) -> u64 {
        self.platform.mem(self.norec_clock.synth, 8, AccessKind::Read);
        self.norec_clock.word.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Spin until the clock is even (no writer inside its commit
    /// write-back window) and return it.
    fn norec_wait_even(&self) -> u64 {
        loop {
            let t = self.norec_clock_load();
            if t & 1 == 0 {
                return t;
            }
            self.platform.spin_wait();
        }
    }

    /// Value-based validation (NOrec's `Validate`): wait out any
    /// in-flight committer, re-read every logged location and compare it
    /// to the logged value, and succeed only if the clock did not move
    /// during the scan — extending the snapshot to the scanned clock.
    /// A mismatch means a committed writer overwrote something we read:
    /// the attempt aborts with [`AbortCause::ValueValidation`].
    fn norec_validate_extend(&self, ctx: &mut ThreadCtx, tid: usize) -> Result<(), Abort> {
        hot_stat!(ctx, norec_validations);
        trace_evt!(self, ctx, tid, NorecValidate, ctx.snapshot, ctx.read_set.len() as u64);
        loop {
            let t = self.norec_wait_even();
            for i in 0..ctx.read_set.len() {
                let r = ctx.read_set.get(i).expect("index in range");
                let (off, len) = norec_unpack(r.version);
                self.platform.mem_nb(r.obj.data_addr(), len * 8, AccessKind::Read);
                let words = r.obj.data_words();
                let logged = &ctx.norec_vals[off..off + len];
                let intact = words.len() == len
                    && words
                        .iter()
                        .zip(logged)
                        .all(|(w, v)| w.load(std::sync::atomic::Ordering::Relaxed) == *v);
                if !intact {
                    hot_stat!(ctx, conflicts);
                    return Err(Abort(AbortCause::ValueValidation));
                }
            }
            if self.norec_clock_load() == t {
                if t != ctx.snapshot {
                    hot_stat!(ctx, norec_extensions);
                    trace_evt!(self, ctx, tid, NorecExtend, ctx.snapshot, t);
                    ctx.snapshot = t;
                }
                return Ok(());
            }
            // A writer committed mid-scan; the values we compared may mix
            // epochs. Rescan against the newer clock.
        }
    }

    fn norec_read<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        tid: usize,
        obj: &Arc<NZObject<T>>,
    ) -> Result<T, Abort> {
        hot_stat!(ctx, reads);
        let h = obj.header();
        let key = header_key(h);
        let n = T::n_words();

        // Our own buffered write wins (read-your-writes).
        if let Some(i) = ctx.write_index.get(key) {
            let w = ctx.write_set.get(i as usize).expect("indexed write entry");
            let WriteTarget::Buffered { off, len } = w.target else {
                unreachable!("NOrec write entries are always Buffered")
            };
            debug_assert_eq!(len, n);
            return Ok(T::decode(&ctx.norec_redo[off..off + len]));
        }

        // Re-read: return the logged value (opacity — the attempt keeps
        // seeing exactly the state it validated, even if the location
        // has since moved on).
        if let Some(i) = ctx.read_index.get(key) {
            let r = ctx.read_set.get(i as usize).expect("indexed read entry");
            let (off, len) = norec_unpack(r.version);
            debug_assert_eq!(len, n);
            return Ok(T::decode(&ctx.norec_vals[off..off + len]));
        }

        // Fresh read: snapshot the data words, then make sure the clock
        // stood still across the copy — if it moved, revalidate the whole
        // read log (snapshot extension) and re-copy.
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        loop {
            self.platform.mem_nb(obj.data_addr(), n * 8, AccessKind::Read);
            crate::data::snapshot_words(obj.data_words(), &mut ctx.scratch);
            if self.norec_clock_load() == ctx.snapshot {
                break;
            }
            self.norec_validate_extend(ctx, tid)?;
        }
        let off = ctx.norec_vals.len();
        ctx.norec_vals.extend_from_slice(&ctx.scratch);
        let any: Arc<dyn NzObjAny> = obj.clone();
        ctx.read_index.insert(key, ctx.read_set.len() as u32);
        ctx.read_set.push(ReadEntry { obj: any, version: norec_pack(off, n) });
        Ok(T::decode(&ctx.scratch))
    }

    fn norec_write<T: TmData>(
        &self,
        ctx: &mut ThreadCtx,
        obj: &Arc<NZObject<T>>,
        value: &T,
    ) -> Result<(), Abort> {
        let key = header_key(obj.header());
        let n = T::n_words();
        ctx.scratch.clear();
        ctx.scratch.resize(n, 0);
        value.encode(&mut ctx.scratch);
        if let Some(i) = ctx.write_index.get(key) {
            let w = ctx.write_set.get(i as usize).expect("indexed write entry");
            let WriteTarget::Buffered { off, len } = w.target else {
                unreachable!("NOrec write entries are always Buffered")
            };
            debug_assert_eq!(len, n);
            ctx.norec_redo[off..off + len].copy_from_slice(&ctx.scratch);
            return Ok(());
        }
        // First write to this object: append a redo slot. Counted as an
        // acquisition (one per object per attempt, like the ownership
        // modes) even though nothing is owned until commit.
        let off = ctx.norec_redo.len();
        ctx.norec_redo.extend_from_slice(&ctx.scratch);
        hot_stat!(ctx, acquires);
        let any: Arc<dyn NzObjAny> = obj.clone();
        push_write(ctx, WriteEntry { obj: any, target: WriteTarget::Buffered { off, len: n } });
        Ok(())
    }

    /// NOrec commit. Read-only attempts are already valid at their
    /// snapshot and commit without touching the clock (NOrec's
    /// read-only fast path). Writers CAS the clock from their snapshot
    /// to odd (locking out other committers *and* proving no one
    /// committed since the snapshot), write the redo log back, and
    /// release the clock two ticks up.
    fn norec_commit(&self, ctx: &mut ThreadCtx, tid: usize) -> bool {
        if !ctx.write_set.is_empty() {
            loop {
                self.san_point(ctx, tid, crate::sanitizer::Point::CommitCas);
                self.platform.mem(self.norec_clock.synth, 8, AccessKind::Rmw);
                if self
                    .norec_clock
                    .word
                    .compare_exchange(
                        ctx.snapshot,
                        ctx.snapshot + 1,
                        std::sync::atomic::Ordering::AcqRel,
                        std::sync::atomic::Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    break;
                }
                // Someone committed since our snapshot: revalidate (and
                // extend) or abort on a value conflict.
                if let Err(Abort(cause)) = self.norec_validate_extend(ctx, tid) {
                    self.abort_txn(ctx, tid, cause);
                    return false;
                }
            }
        }
        self.platform.mem(Self::me(ctx).addr(), 8, AccessKind::Rmw);
        if !Self::me(ctx).try_commit() {
            // Defensive only: no peer can find a NOrec descriptor (it is
            // never published in owner words or reader indicators), so
            // AbortNowPlease cannot arrive. Unlock and unwind anyway.
            if !ctx.write_set.is_empty() {
                self.norec_clock
                    .word
                    .store(ctx.snapshot, std::sync::atomic::Ordering::Release);
            }
            self.abort_txn(ctx, tid, AbortCause::Requested);
            return false;
        }
        #[cfg(feature = "sanitize")]
        self.san.commit_ok(Arc::as_ptr(Self::me(ctx)) as u64, tid as u32);
        if !ctx.write_set.is_empty() {
            // Locked: write the redo log back. Readers observing these
            // stores see an odd clock and wait us out.
            while let Some(w) = ctx.write_set.pop() {
                let WriteTarget::Buffered { off, len } = w.target else {
                    unreachable!("NOrec write entries are always Buffered")
                };
                self.platform.mem_nb(w.obj.data_addr(), len * 8, AccessKind::Write);
                let words = w.obj.data_words();
                for (k, word) in words.iter().enumerate() {
                    word.store(
                        ctx.norec_redo[off + k],
                        std::sync::atomic::Ordering::Relaxed,
                    );
                }
            }
            self.platform.mem(self.norec_clock.synth, 8, AccessKind::Write);
            self.norec_clock
                .word
                .store(ctx.snapshot + 2, std::sync::atomic::Ordering::Release);
        }
        self.clear_reader_bits(ctx, tid);
        ctx.stats.commits.bump();
        trace_evt!(self, ctx, tid, TxnCommit, ctx.serial, 0);
        true
    }
}

/// An in-flight transaction handle. Carries no lifetime (it holds raw
/// pointers into the engine and this thread's context) so wrapper
/// systems — the NZTM hybrid — can embed it in their own transaction
/// types; it is only ever constructed by [`NzStm::run`], is `!Send`, and
/// must not outlive the `run` closure that received it.
pub struct NzTx<P: Platform, M: ModePolicy> {
    sys: *const NzStm<P, M>,
    ctx: *mut ThreadCtx,
    tid: usize,
}

impl<P: Platform, M: ModePolicy> NzTx<P, M> {
    /// Transactionally read `obj`'s current value.
    pub fn read<T: TmData>(&mut self, obj: &Arc<NZObject<T>>) -> Result<T, Abort> {
        let tid = self.tid;
        // Safety: `sys` outlives the closure; `ctx` is this thread's slot.
        let (sys, ctx) = unsafe { (&*self.sys, &mut *self.ctx) };
        sys.read_value(ctx, tid, obj)
    }

    /// Transactionally overwrite `obj` with `value`.
    pub fn write<T: TmData>(&mut self, obj: &Arc<NZObject<T>>, value: &T) -> Result<(), Abort> {
        let tid = self.tid;
        // Safety: as in `read`.
        let (sys, ctx) = unsafe { (&*self.sys, &mut *self.ctx) };
        sys.write_value(ctx, tid, obj, value)
    }

    /// Read-modify-write convenience.
    pub fn update<T: TmData>(
        &mut self,
        obj: &Arc<NZObject<T>>,
        f: impl FnOnce(&mut T),
    ) -> Result<(), Abort> {
        let mut v = self.read(obj)?;
        f(&mut v);
        self.write(obj, &v)
    }

    /// Explicitly abort this attempt (it will be retried).
    pub fn abort(&mut self) -> Abort {
        Abort(AbortCause::Explicit)
    }

    /// Publish an ADT-level operation descriptor (see [`crate::adt`]):
    /// bumps the `adt_ops` counter and, when the flight recorder is
    /// armed, records an [`crate::trace::EventKind::AdtOp`] event keyed
    /// by the logical operation rather than a raw word access.
    pub fn note_adt_op(&mut self, desc: crate::adt::AdtOpDesc) {
        let tid = self.tid;
        // Safety: as in `read`.
        let (sys, ctx) = unsafe { (&*self.sys, &mut *self.ctx) };
        let _ = (sys, &desc);
        hot_stat!(ctx, adt_ops);
        trace_evt!(sys, ctx, tid, AdtOp, desc.key, desc.pack());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_desc() -> Arc<TxnDesc> {
        let d = Arc::new(TxnDesc::new(0, 1));
        assert!(d.try_commit());
        d
    }

    fn aborted_desc() -> Arc<TxnDesc> {
        let d = Arc::new(TxnDesc::new(0, 1));
        d.acknowledge_abort();
        d
    }

    fn pooled_buf(len: usize, installer: Option<&Arc<TxnDesc>>) -> Arc<WordBuf> {
        let buf = WordBuf::zeroed(len);
        if let Some(d) = installer {
            let g = nztm_epoch::pin();
            buf.set_installer(d, &g);
        }
        buf
    }

    #[test]
    fn backup_pool_classes_round_trip() {
        let mut pool = BackupPool::default();
        let d = committed_desc();
        for len in 1..=20usize {
            pool.put(pooled_buf(len, Some(&d)));
        }
        // A take for length 9 may be served by any capacity-16 buffer
        // (lengths 9..=16 share the class); the pool resizes it.
        let b = pool.take(9).expect("class 16 is populated");
        assert_eq!(b.len(), 9);
        assert_eq!(b.cap(), 16);
        // Every pooled length round-trips with a power-of-two capacity.
        for len in [1usize, 2, 3, 7, 8] {
            let b = pool.take(len).expect("small classes are populated");
            assert_eq!(b.len(), len);
            assert_eq!(b.cap(), WordBuf::cap_for(len));
            assert!(b.cap().is_power_of_two());
        }
    }

    #[test]
    fn backup_pool_depth_is_bounded() {
        let mut pool = BackupPool::default();
        for _ in 0..(BackupPool::DEPTH + 40) {
            pool.put(pooled_buf(4, None));
        }
        let mut takes = 0;
        while pool.take(4).is_some() {
            takes += 1;
        }
        assert_eq!(takes, BackupPool::DEPTH, "pool depth must be bounded");
    }

    /// Property test (seeded, deterministic): however put/take interleave
    /// across lengths and settled installer states, the pool never hands
    /// out a buffer whose installer is a live (Active) transaction, and
    /// always hands out the exact requested length in the right class.
    #[test]
    fn backup_pool_never_hands_out_live_installer_property() {
        let mut rng = DetRng::new(0xB00F);
        let mut pool = BackupPool::default();
        let committed = committed_desc();
        let aborted = aborted_desc();
        let mut in_pool = 0usize;
        for _ in 0..2000 {
            let len = 1 + rng.next_below(64) as usize;
            if rng.chance(1, 2) {
                let installer = match rng.next_below(3) {
                    0 => None,
                    1 => Some(&committed),
                    _ => Some(&aborted),
                };
                pool.put(pooled_buf(len, installer));
                in_pool += 1;
            } else if let Some(b) = pool.take(len) {
                in_pool -= 1;
                assert_eq!(b.len(), len);
                assert_eq!(b.cap(), WordBuf::cap_for(len));
                let g = nztm_epoch::pin();
                assert!(
                    !matches!(b.installer_status(&g), Some(Status::Active)),
                    "pool handed out a buffer with a live installer"
                );
            }
        }
        // Sanity: the interleaving actually exercised both operations.
        assert!(in_pool < 2000);
        nztm_epoch::flush();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "live installer")]
    fn backup_pool_rejects_live_installer_in_debug() {
        let active = Arc::new(TxnDesc::new(0, 1)); // Status::Active
        let mut pool = BackupPool::default();
        pool.put(pooled_buf(2, Some(&active)));
    }

    #[test]
    fn backup_pool_class_of_matches_cap_for() {
        for len in 1..200usize {
            let c = BackupPool::class_of(len);
            assert_eq!(1usize << c, WordBuf::cap_for(len));
        }
    }

    /// Satellite: exhaustive `AbortCause` accounting. Drives one abort
    /// through the engine for each variant (via [`AbortCause::ALL`], so
    /// a new variant extends this test automatically) and checks that
    /// exactly the matching counter moved — and that the `aborts()`
    /// total agrees, i.e. no cause is dropped or double-counted.
    #[test]
    fn every_abort_cause_is_counted_exactly_once() {
        let p = nztm_sim::Native::new(1);
        p.register_thread_as(0);
        let s = crate::builder::NzBuilder::new(p).build_nzstm();
        for (i, cause) in AbortCause::ALL.into_iter().enumerate() {
            let mut pending = true;
            s.run(|_tx| {
                if std::mem::take(&mut pending) {
                    Err(Abort(cause))
                } else {
                    Ok(())
                }
            });
            let st = s.stats_snapshot();
            let so_far = &AbortCause::ALL[..=i];
            let expect =
                |c: AbortCause| so_far.iter().filter(|&&x| x == c).count() as u64;
            assert_eq!(st.aborts(), (i + 1) as u64, "after {cause:?}");
            assert_eq!(st.aborts_requested, expect(AbortCause::Requested));
            assert_eq!(st.aborts_self, expect(AbortCause::SelfAbort));
            assert_eq!(st.aborts_validation, expect(AbortCause::Validation));
            assert_eq!(st.aborts_explicit, expect(AbortCause::Explicit));
            assert_eq!(st.aborts_htm, expect(AbortCause::Htm));
            assert_eq!(st.aborts_value_validation, expect(AbortCause::ValueValidation));
        }
        assert_eq!(s.stats_snapshot().commits, AbortCause::ALL.len() as u64);
    }
}
