//! Transaction descriptors.
//!
//! The paper's key protocol word: a transaction's `Status`
//! ({Active, Committed, Aborted}) is stored **in the same word** as the
//! `AbortNowPlease` flag "so both may be accessed atomically using a
//! Compare&Swap instruction" (§2.1). All of NZSTM's progress reasoning
//! hangs off this word:
//!
//! * a conflicting transaction *requests* an abort by atomically setting
//!   `AbortNowPlease` (it never forces the victim's status);
//! * the victim *acknowledges* by setting `Status = Aborted` itself, which
//!   is the point after which it is guaranteed never to write object data
//!   again;
//! * commit is a CAS from `(Active, !AbortNowPlease)` to `Committed`, so a
//!   transaction that has been asked to abort can never commit.
//!
//! Descriptors are logically fresh per transaction *attempt* (the paper
//! relies on this too — it is why SPIN sees no repeated state even under
//! livelock, §3). Object owner fields hold raw pointers carrying one
//! strong `Arc` count; replacement defers the drop through the epoch
//! reclamation crate so concurrent readers holding an epoch pin never
//! observe a freed descriptor.

use std::sync::atomic::{AtomicU64, Ordering};

/// Transaction status, two bits of the [`TxnDesc`] state word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Active,
    Committed,
    Aborted,
}

const STATUS_MASK: u64 = 0b11;
const ST_ACTIVE: u64 = 0;
const ST_COMMITTED: u64 = 1;
const ST_ABORTED: u64 = 2;
/// The AbortNowPlease flag bit.
const ANP: u64 = 0b100;

fn decode_status(bits: u64) -> Status {
    match bits & STATUS_MASK {
        ST_ACTIVE => Status::Active,
        ST_COMMITTED => Status::Committed,
        ST_ABORTED => Status::Aborted,
        _ => unreachable!("status bits corrupted"),
    }
}

/// Why a transaction attempt aborted; recorded for statistics and used by
/// retry policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// Own `AbortNowPlease` flag was found set (another transaction
    /// requested the abort).
    Requested,
    /// The contention manager told this transaction to abort itself.
    SelfAbort,
    /// Commit-time validation failed (invisible-reader extension).
    Validation,
    /// Explicit user abort (e.g. `retry`-style workload logic).
    Explicit,
    /// The enclosing best-effort hardware attempt was doomed (hybrid
    /// NZTM, §2.4): a transactional load/store hit a coherence conflict
    /// or the attempt was asked to stand down, and the `Abort` unwinds
    /// the user closure out of the hardware path. Distinct from
    /// [`AbortCause::Requested`] — no software peer set AbortNowPlease;
    /// conflating the two inflated `aborts_requested` in any tooling
    /// that inspected the cause on the hardware path.
    Htm,
    /// NOrec value validation failed: a committed writer changed a value
    /// this attempt read (and the change did not restore the original
    /// bytes — A→B→A histories pass value validation by design).
    /// Distinct from [`AbortCause::Validation`], which is the
    /// invisible-read *version* check of the ownership modes.
    ValueValidation,
}

impl AbortCause {
    /// Every cause, in [`AbortCause::code`] order — for exhaustive
    /// accounting tests and report iteration.
    pub const ALL: [AbortCause; 6] = [
        AbortCause::Requested,
        AbortCause::SelfAbort,
        AbortCause::Validation,
        AbortCause::Explicit,
        AbortCause::Htm,
        AbortCause::ValueValidation,
    ];

    /// Stable numeric code, used in flight-recorder event records.
    pub fn code(self) -> u64 {
        match self {
            AbortCause::Requested => 0,
            AbortCause::SelfAbort => 1,
            AbortCause::Validation => 2,
            AbortCause::Explicit => 3,
            AbortCause::Htm => 4,
            AbortCause::ValueValidation => 5,
        }
    }

    /// Inverse of [`AbortCause::code`]; `None` for unknown codes.
    pub fn from_code(code: u64) -> Option<AbortCause> {
        Some(match code {
            0 => AbortCause::Requested,
            1 => AbortCause::SelfAbort,
            2 => AbortCause::Validation,
            3 => AbortCause::Explicit,
            4 => AbortCause::Htm,
            5 => AbortCause::ValueValidation,
            _ => return None,
        })
    }

    /// Short human-readable name (`requested`, `self`, `validation`,
    /// `explicit`, `htm`, `value_validation`).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::Requested => "requested",
            AbortCause::SelfAbort => "self",
            AbortCause::Validation => "validation",
            AbortCause::Explicit => "explicit",
            AbortCause::Htm => "htm",
            AbortCause::ValueValidation => "value_validation",
        }
    }
}

/// The `Abort` error: unwinds a transaction attempt back to the retry
/// loop. Carried by `Result` through user transaction code.
///
/// Carries its [`AbortCause`] so callers learn *why* an attempt aborted
/// from the error itself instead of diffing statistics counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort(pub AbortCause);

impl Abort {
    /// Why the attempt aborted.
    pub fn cause(&self) -> AbortCause {
        self.0
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted ({})", self.0.name())
    }
}

/// A transaction descriptor (the paper's `Transaction`).
///
/// A fresh one is allocated per attempt. `state` packs the status and
/// the `AbortNowPlease` flag. The remaining fields support the Karma
/// contention manager and the LogTM-style deadlock detection the paper
/// combines it with (§4.3): `priority` counts objects acquired in this
/// attempt; `waiting_flag`+`waiting_on` implement "TL raises a flag and
/// waits until TH is done".
///
/// Naturally aligned and padded at the tail: the `state` word is CAS'd
/// by conflicting threads while `scss_lock` and `waiting_flag` spin
/// locally, so two descriptors' hot words must never share a cache line.
/// `TAIL_PAD` (64) bytes after the last hot word put the hot words
/// of two adjacent heap blocks more than a line apart under any
/// allocator, and — unlike `align(128)`, which routes every `Arc::new`
/// through `posix_memalign` — leave the one allocation each attempt
/// makes an ordinary small `malloc`.
#[repr(C)]
pub struct TxnDesc {
    state: AtomicU64,
    /// Core/thread id that runs this transaction.
    pub thread: u32,
    /// Monotonically increasing attempt serial for this thread (debug aid;
    /// also makes descriptors distinguishable in traces).
    pub serial: u64,
    /// Karma priority: number of objects acquired in this attempt.
    priority: AtomicU64,
    /// Raised while this transaction is stalled waiting for another
    /// (deadlock-detection flag from the paper's CM, after LogTM).
    waiting_flag: AtomicU64,
    /// Spinlock used by the native SCSS emulation: serializes this
    /// transaction's paired (check `AbortNowPlease`, store word)
    /// operations against an abort-requester's barrier. See `scss.rs`.
    scss_lock: AtomicU64,
    /// Synthetic address for the deterministic cache model.
    synth: usize,
    _tail: [u8; Self::TAIL_PAD],
}

impl TxnDesc {
    /// Trailing padding, at least one 64-byte line (see the struct docs).
    const TAIL_PAD: usize = 64;

    pub fn new(thread: u32, serial: u64) -> Self {
        TxnDesc {
            state: AtomicU64::new(ST_ACTIVE),
            thread,
            serial,
            priority: AtomicU64::new(0),
            waiting_flag: AtomicU64::new(0),
            scss_lock: AtomicU64::new(0),
            synth: nztm_sim::synth_alloc_as(64, nztm_sim::StructClass::TxnDescs),
            _tail: [0; Self::TAIL_PAD],
        }
    }

    /// Synthetic address of the state word, for cache-model charging.
    #[inline]
    pub fn addr(&self) -> usize {
        self.synth
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> Status {
        decode_status(self.state.load(Ordering::SeqCst))
    }

    /// Whether `AbortNowPlease` is set.
    #[inline]
    pub fn abort_requested(&self) -> bool {
        self.state.load(Ordering::SeqCst) & ANP != 0
    }

    /// Atomically load (status, abort_requested).
    #[inline]
    pub fn state_snapshot(&self) -> (Status, bool) {
        let s = self.state.load(Ordering::SeqCst);
        (decode_status(s), s & ANP != 0)
    }

    /// Request that this transaction abort itself: atomically set
    /// `AbortNowPlease`. Returns the status observed *at the linearization
    /// point* of the request:
    ///
    /// * `Active` — the victim has not yet acknowledged; if it ever
    ///   commits, the commit CAS will fail. Wait for
    ///   [`Status::Aborted`] or handle unresponsiveness.
    /// * `Committed` — too late, the victim already committed (no
    ///   conflict remains; its ownership is now inert).
    /// * `Aborted` — already acknowledged.
    pub fn request_abort(&self) -> Status {
        let prev = self.state.fetch_or(ANP, Ordering::SeqCst);
        decode_status(prev)
    }

    /// Attempt to commit: CAS `(Active, !AbortNowPlease) → Committed`.
    ///
    /// Fails iff the transaction is no longer plain-active — in practice,
    /// iff `AbortNowPlease` was set first (or the caller already moved the
    /// status). On failure the caller must abort and acknowledge.
    pub fn try_commit(&self) -> bool {
        self.state
            .compare_exchange(ST_ACTIVE, ST_COMMITTED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Set `Status = Aborted`, acknowledging any pending abort request.
    /// After this returns, the transaction must never write object data
    /// again — that is the contract the entire algorithm relies on.
    pub fn acknowledge_abort(&self) {
        loop {
            let cur = self.state.load(Ordering::SeqCst);
            if decode_status(cur) != Status::Active {
                debug_assert_eq!(decode_status(cur), Status::Aborted, "commit/abort race");
                return;
            }
            let new = (cur & !STATUS_MASK) | ST_ABORTED;
            if self
                .state
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// True once the descriptor can no longer interfere with object data:
    /// committed, or aborted-and-acknowledged.
    #[inline]
    pub fn is_settled(&self) -> bool {
        self.status() != Status::Active
    }

    // -- contention-management fields ------------------------------------

    /// Karma priority (objects acquired this attempt).
    #[inline]
    pub fn priority(&self) -> u64 {
        self.priority.load(Ordering::Relaxed)
    }

    /// Bump Karma priority after a successful acquire.
    #[inline]
    pub fn gained_object(&self) {
        self.priority.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise/lower the "I am stalled waiting" flag.
    #[inline]
    pub fn set_waiting(&self, waiting: bool) {
        self.waiting_flag.store(waiting as u64, Ordering::SeqCst);
    }

    /// Whether the stalled flag is raised.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        self.waiting_flag.load(Ordering::SeqCst) != 0
    }

    /// TEST-ONLY fault injection: set `Status = Aborted` *from a
    /// requester's thread*, violating the §2.2 rule that only the victim
    /// acknowledges. Exists solely so the sanitizer's structural
    /// detection of exactly this bug can be exercised; the engine calls
    /// it only while [`Sanitizer::arm`](crate::sanitizer::Sanitizer::arm)
    /// has armed the fault.
    pub(crate) fn force_abort_injected(&self) {
        loop {
            let cur = self.state.load(Ordering::SeqCst);
            if decode_status(cur) != Status::Active {
                return;
            }
            let new = (cur & !STATUS_MASK) | ST_ABORTED;
            if self
                .state
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    // -- SCSS support -----------------------------------------------------

    /// Run `f` under this descriptor's SCSS lock (native emulation of the
    /// short hardware transaction). Uncontended in the common case: only
    /// the owning thread's stores and an abort-requester's one-shot
    /// barrier ever take it.
    pub fn with_scss_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        while self
            .scss_lock
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let r = f();
        self.scss_lock.store(0, Ordering::Release);
        r
    }
}

impl std::fmt::Debug for TxnDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (st, anp) = self.state_snapshot();
        f.debug_struct("TxnDesc")
            .field("thread", &self.thread)
            .field("serial", &self.serial)
            .field("status", &st)
            .field("abort_requested", &anp)
            .field("priority", &self.priority())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_descriptor_is_active() {
        let t = TxnDesc::new(0, 1);
        assert_eq!(t.status(), Status::Active);
        assert!(!t.abort_requested());
        assert!(!t.is_settled());
    }

    #[test]
    fn commit_succeeds_when_unmolested() {
        let t = TxnDesc::new(0, 1);
        assert!(t.try_commit());
        assert_eq!(t.status(), Status::Committed);
        assert!(t.is_settled());
    }

    #[test]
    fn abort_request_blocks_commit() {
        let t = TxnDesc::new(0, 1);
        assert_eq!(t.request_abort(), Status::Active);
        assert!(t.abort_requested());
        assert!(!t.try_commit(), "commit must fail after AbortNowPlease");
        t.acknowledge_abort();
        assert_eq!(t.status(), Status::Aborted);
    }

    #[test]
    fn request_after_commit_reports_committed() {
        let t = TxnDesc::new(0, 1);
        assert!(t.try_commit());
        assert_eq!(t.request_abort(), Status::Committed);
        // Status must not regress.
        assert_eq!(t.status(), Status::Committed);
    }

    #[test]
    fn acknowledge_is_idempotent() {
        let t = TxnDesc::new(0, 1);
        t.request_abort();
        t.acknowledge_abort();
        t.acknowledge_abort();
        assert_eq!(t.status(), Status::Aborted);
        assert!(t.abort_requested(), "ANP survives acknowledgement");
    }

    #[test]
    fn self_abort_without_request() {
        // A transaction may abort itself (contention manager decision)
        // without anyone setting ANP.
        let t = TxnDesc::new(0, 1);
        t.acknowledge_abort();
        assert_eq!(t.status(), Status::Aborted);
        assert!(!t.abort_requested());
    }

    #[test]
    fn priority_counts_acquires() {
        let t = TxnDesc::new(3, 1);
        assert_eq!(t.priority(), 0);
        t.gained_object();
        t.gained_object();
        assert_eq!(t.priority(), 2);
    }

    #[test]
    fn waiting_flag_round_trips() {
        let t = TxnDesc::new(0, 1);
        assert!(!t.is_waiting());
        t.set_waiting(true);
        assert!(t.is_waiting());
        t.set_waiting(false);
        assert!(!t.is_waiting());
    }

    #[test]
    fn scss_lock_is_reentrant_free_but_serializes() {
        let t = std::sync::Arc::new(TxnDesc::new(0, 1));
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = std::sync::Arc::clone(&t);
            let c = std::sync::Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.with_scss_lock(|| {
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn descriptor_is_malloc_aligned_and_tail_padded() {
        // Over-alignment would send `Arc::new` through `posix_memalign`.
        assert!(std::mem::align_of::<TxnDesc>() <= 16);
        // `repr(C)`: every hot word lies before `_tail`.
        let hot_bytes = std::mem::offset_of!(TxnDesc, _tail);
        assert!(hot_bytes >= 7 * 8, "a hot word moved behind the padding");
        assert!(std::mem::size_of::<TxnDesc>() >= hot_bytes + 64);
    }

    #[test]
    fn concurrent_request_vs_commit_is_exclusive() {
        // Exactly one of {commit succeeded, abort request saw Active}
        // can hold for a given descriptor: if the requester saw Active
        // the commit must fail, and if the commit succeeded the requester
        // must see Committed.
        for _ in 0..200 {
            let t = std::sync::Arc::new(TxnDesc::new(0, 1));
            let t2 = std::sync::Arc::clone(&t);
            let req = std::thread::spawn(move || t2.request_abort());
            let committed = t.try_commit();
            let seen = req.join().unwrap();
            if committed {
                // Requester may have seen Active (before the commit CAS —
                // impossible: CAS requires ANP clear) or Committed.
                assert_eq!(seen, Status::Committed, "commit won ⇒ request was late");
            } else {
                assert_eq!(seen, Status::Active, "commit lost ⇒ request was first");
            }
        }
    }
}
