//! Protocol sanitizer: runtime checking of the paper's §2 invariants on
//! the **real** engine, plus a deterministic, seed-replayable adversarial
//! schedule perturbator.
//!
//! The model checker (`nztm-modelcheck`) verifies a hand-written *model*
//! of the protocol; this module instead instruments the production engine
//! itself. Every [`NzStm`](crate::engine::NzStm) owns one `Sanitizer`;
//! the engine fires hooks at the protocol's decision points and, once
//! armed, the sanitizer maintains a mirror of the protocol state it
//! *should* be in, flagging any transition the paper forbids:
//!
//! 1. **Exactly one owner per object** — an owner-word CAS must displace
//!    exactly the value the mirror believes is installed, and must never
//!    steal from a still-active, un-acknowledged owner (except the SCSS
//!    post-barrier steal, which is the §2.3.2 rule). Only a committed
//!    owner releases its ownership (owner word back to 0). While armed,
//!    each owner CAS and its hook run under one lock, so the mirror
//!    sees owner transitions in CAS order.
//! 2. **Eager writes require a live backup** — an `Active` owner storing
//!    to in-place data while the object's backup pointer is null could
//!    never be undone. Under SCSS the check runs on the writer's own
//!    backup word, and only for a store that lands: a stolen writer may
//!    find the object's word already taken by the thief, but its stores
//!    fail.
//! 3. **`Status = Aborted` is set only by the victim itself** — the §2.2
//!    handshake: requesters set `AbortNowPlease`; only the victim
//!    acknowledges. A peer observed `Aborted` without the victim having
//!    run its acknowledge path means someone forced it.
//! 4. **Inflation names a still-unacknowledged transaction** — the
//!    locator's `AbortedTransaction` field must identify a transaction
//!    that was asked to abort and has not yet acknowledged (§2.3.1).
//! 5. **Deflation only when `deflatable()` truly holds** — the
//!    unresponsive transaction must have acknowledged before the owner
//!    word is CAS'd back to a plain transaction pointer.
//! 6. **Restore-from-backup reproduces the pre-transaction bytes** — the
//!    words copied back by the next acquirer must equal the contents
//!    recorded when the aborted owner installed its backup.
//!
//! ## Arming
//!
//! A fresh sanitizer is disarmed: the engine fires every hook through
//! `san_hook!`, which loads one arming word and skips the hook, taking no
//! lock, allocating nothing and calling no
//! [`Platform`](nztm_sim::Platform) method, so a disarmed engine runs
//! exactly the protocol's own steps. [`Sanitizer::arm`] turns the mirror
//! on (optionally with the seeded handshake fault), and
//! [`Sanitizer::set_schedule`] arms it too.
//!
//! ## Schedules
//!
//! [`Sanitizer::set_schedule`] also arms a seeded perturbator: at every hooked
//! decision point the engine draws a pause length from a per-thread
//! [`DetRng`](nztm_sim::DetRng) stream split from the schedule seed, and spins that many
//! `spin_wait` steps. On the simulated platform this deterministically
//! reshapes the interleaving (same seed ⇒ byte-identical decision log);
//! on native threads it injects real jitter at exactly the points where
//! protocol races live. Each decision point is appended to a decision
//! log; when a violation fires, the seed plus the log tail are dumped so
//! the failing schedule can be replayed.
//!
//! The mirror maps are keyed by raw descriptor/header addresses. A key
//! can be reused after its descriptor is freed, but every consultation of
//! the transaction map happens while the engine holds a live reference to
//! that descriptor — and the `txn_begin` hook overwrites the entry on
//! reuse — so a live key always maps to current information. Entries for
//! dead descriptors are garbage that is never read (bounded by the number
//! of attempts in a run; this is a testing tool, not a production path).

use crate::txn::Status;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Fire a sanitizer hook on `$sys.san`. Every engine hook goes through
/// here: while the sanitizer is disarmed this is one relaxed load, and
/// the arguments are not evaluated.
macro_rules! san_hook {
    ($sys:expr, $hook:ident($($arg:expr),* $(,)?)) => {{
        if $sys.san.is_armed() {
            $sys.san.$hook($($arg),*);
        }
    }};
}
pub(crate) use san_hook;

/// A hooked protocol decision point (also the schedule-log alphabet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Point {
    /// About to CAS the owner word to our transaction.
    OwnerCas,
    /// About to set a peer's `AbortNowPlease` flag.
    AnpSet,
    /// Entering the wait for a victim's acknowledgement.
    AwaitAck,
    /// About to acknowledge our own abort (`Status := Aborted`).
    AbortAck,
    /// About to attempt the commit CAS.
    CommitCas,
    /// About to CAS the owner word to a fresh locator (inflation).
    Inflate,
    /// About to CAS an inflated owner word back to a transaction.
    DeflateCas,
    /// About to install a backup buffer.
    BackupInstall,
    /// About to restore an aborted owner's backup into the data.
    Restore,
    /// About to store eagerly into in-place data (post-validation).
    EagerWrite,
}

impl Point {
    pub fn name(self) -> &'static str {
        match self {
            Point::OwnerCas => "owner-cas",
            Point::AnpSet => "anp-set",
            Point::AwaitAck => "await-ack",
            Point::AbortAck => "abort-ack",
            Point::CommitCas => "commit-cas",
            Point::Inflate => "inflate",
            Point::DeflateCas => "deflate-cas",
            Point::BackupInstall => "backup-install",
            Point::Restore => "restore",
            Point::EagerWrite => "eager-write",
        }
    }
}

/// One decision-log entry: thread `tid` reached `point`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub tid: u32,
    pub point: Point,
}

/// A detected protocol violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable rule identifier (see module docs).
    pub rule: &'static str,
    pub detail: String,
}

#[derive(Clone, Copy, Default)]
struct TxnInfo {
    tid: u32,
    serial: u64,
    committed: bool,
    /// The victim ran its own acknowledge path.
    acked: bool,
    /// `AbortNowPlease` was set while the victim was still `Active` (the
    /// linearized observation of `request_abort`).
    anp_active: bool,
}

#[derive(Default)]
struct ObjInfo {
    /// Owner-word value the mirror believes is installed.
    owner_raw: u64,
    /// Pre-transaction contents recorded when the current undo source
    /// (backup buffer) was installed.
    pre_txn: Option<Vec<u64>>,
    /// Threads the mirror believes are registered as visible readers.
    /// Per (object, tid) the add/remove pair is issued by `tid` itself,
    /// so the mutex-serialized mirror sees them in program order.
    readers: std::collections::HashSet<usize>,
}

#[derive(Default)]
struct SanState {
    txns: HashMap<u64, TxnInfo>,
    objs: HashMap<usize, ObjInfo>,
    log: Vec<Step>,
    violations: Vec<Violation>,
}

/// Arming-word bit: the invariant mirror is on.
const MIRROR: u8 = 1;
/// Arming-word bit: requesters force a victim's `Status = Aborted`.
const HANDSHAKE_BUG: u8 = 2;

/// Per-engine protocol sanitizer. See module docs.
pub struct Sanitizer {
    /// [`MIRROR`] and [`HANDSHAKE_BUG`] bits; 0 means disarmed.
    armed: AtomicU8,
    seed: AtomicU64,
    max_pause: AtomicU64,
    /// Bumped by `set_schedule`; 0 means "no schedule armed" (invariant
    /// checks still run, but no pauses are injected and no log is kept).
    generation: AtomicU64,
    state: Mutex<SanState>,
    /// Held across each owner-word CAS and its hook while armed; see
    /// [`Sanitizer::order_owner_cas`].
    owner_order: Mutex<()>,
}

impl Sanitizer {
    /// A disarmed sanitizer.
    pub(crate) fn new() -> Self {
        Sanitizer {
            armed: AtomicU8::new(0),
            seed: AtomicU64::new(0),
            max_pause: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            state: Mutex::new(SanState::default()),
            owner_order: Mutex::new(()),
        }
    }

    // ---- arming and schedule control --------------------------------------

    /// Arm the invariant mirror. Arm before the engine runs its first
    /// transaction: the mirror only knows what it saw.
    ///
    /// `inject_handshake_bug` is TEST-ONLY fault injection: requesters
    /// force the victim's `Status = Aborted` instead of waiting for the
    /// acknowledgement — the §2.2 handshake violation the sanitizer
    /// exists to catch.
    pub fn arm(&self, inject_handshake_bug: bool) {
        let bug = if inject_handshake_bug { HANDSHAKE_BUG } else { 0 };
        self.armed.store(MIRROR | bug, Ordering::SeqCst);
    }

    /// Whether the mirror is on (the one load a disarmed hook site pays).
    #[inline]
    pub(crate) fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed) != 0
    }

    /// While armed, a lock the engine holds from just before an
    /// owner-word CAS until that CAS's hook has run, so owner hooks reach
    /// the mirror in CAS order. Without it a thread preempted between
    /// its CAS and its hook lets later transitions' hooks land first, and
    /// the mirror ends up naming an owner the object no longer has (a
    /// false `owner-mirror-divergence`). The window holds no
    /// [`Platform`](nztm_sim::Platform) call, so a simulated core never
    /// yields while holding it. `None` while disarmed.
    pub(crate) fn order_owner_cas(&self) -> Option<std::sync::MutexGuard<'_, ()>> {
        self.is_armed().then(|| self.owner_order.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Whether the seeded handshake fault is armed.
    #[inline]
    pub(crate) fn handshake_bug(&self) -> bool {
        self.armed.load(Ordering::Relaxed) & HANDSHAKE_BUG != 0
    }

    /// Arm the mirror and the adversarial schedule: per-thread pause
    /// streams derived from `seed`, each pause uniform in
    /// `0..=max_pause` spin steps. Clears the decision log (but keeps
    /// mirror state and past violations).
    pub fn set_schedule(&self, seed: u64, max_pause: u64) {
        self.armed.fetch_or(MIRROR, Ordering::SeqCst);
        self.seed.store(seed, Ordering::SeqCst);
        self.max_pause.store(max_pause, Ordering::SeqCst);
        self.lock().log.clear();
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The schedule generation; 0 until [`Sanitizer::set_schedule`].
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    pub(crate) fn schedule_seed(&self) -> u64 {
        self.seed.load(Ordering::SeqCst)
    }

    pub(crate) fn max_pause(&self) -> u64 {
        self.max_pause.load(Ordering::SeqCst)
    }

    /// Append a decision-point step (no-op while no schedule is armed).
    pub(crate) fn log_step(&self, tid: u32, point: Point) {
        if self.generation() == 0 {
            return;
        }
        self.lock().log.push(Step { tid, point });
    }

    // ---- reports ----------------------------------------------------------

    pub fn violations(&self) -> Vec<Violation> {
        self.lock().violations.clone()
    }

    pub fn decision_log(&self) -> Vec<Step> {
        self.lock().log.clone()
    }

    /// FNV-1a digest of the decision log — two runs under the same seed
    /// must produce the same digest on the simulated platform.
    pub fn schedule_digest(&self) -> u64 {
        let s = self.lock();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for step in &s.log {
            for b in [step.tid as u8, (step.tid >> 8) as u8, step.point as u8] {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Human-readable replay bundle: schedule seed plus the decision-log
    /// tail. Printed automatically when a violation is recorded.
    pub fn replay_dump(&self) -> String {
        let s = self.lock();
        let tail_from = s.log.len().saturating_sub(64);
        let mut out = format!(
            "schedule seed = {:#x}, max_pause = {}, decisions = {}\nlog tail:",
            self.schedule_seed(),
            self.max_pause(),
            s.log.len()
        );
        for (i, step) in s.log[tail_from..].iter().enumerate() {
            out.push_str(&format!("\n  [{:5}] t{} {}", tail_from + i, step.tid, step.point.name()));
        }
        out
    }

    // ---- engine hooks ------------------------------------------------------

    /// Guard for every hook keyed into the transaction mirror: the key
    /// must be a descriptor address, never an inflated owner *word* — a
    /// tagged locator pointer fed in here would silently split one
    /// transaction's history across two mirror entries and fabricate
    /// rule-3 violations (the victim's `ack` lands under the real
    /// address while observers consult the tagged key).
    #[track_caller]
    fn txn_key(raw: u64) -> u64 {
        assert_eq!(
            raw & crate::object::INFLATED_TAG,
            0,
            "sanitizer txn hook keyed by a tagged owner word {raw:#x}, \
             not a descriptor address"
        );
        raw
    }

    /// A fresh descriptor began an attempt.
    pub(crate) fn txn_begin(&self, raw: u64, tid: u32, serial: u64) {
        let raw = Self::txn_key(raw);
        let mut s = self.lock();
        // Descriptor reuse: a thread's TxnDesc only begins a new
        // transaction once the previous incarnation settled, so any
        // ownership record still naming this descriptor is stale (and
        // may legally be cleaned untracked, e.g. by the hybrid's
        // hardware path). Forget it, or the fresh incarnation's
        // `committed = false` would fake rule-1 divergences.
        for obj in s.objs.values_mut() {
            if obj.owner_raw == raw {
                obj.owner_raw = 0;
            }
        }
        s.txns.insert(raw, TxnInfo { tid, serial, ..TxnInfo::default() });
    }

    /// The commit CAS succeeded.
    pub(crate) fn commit_ok(&self, raw: u64, tid: u32) {
        let raw = Self::txn_key(raw);
        let mut s = self.lock();
        let info = s.txns.entry(raw).or_default();
        if info.anp_active {
            let d = format!(
                "t{tid} committed txn {raw:#x} (serial {}) after AbortNowPlease was \
                 set while it was Active — the commit CAS must fail",
                info.serial
            );
            info.committed = true;
            Self::push_violation(&mut s, self, "commit-after-abort-request", d);
            return;
        }
        info.committed = true;
    }

    /// The victim is acknowledging its own abort (hook fires *before* the
    /// status CAS, so observers that see `Aborted` always find
    /// `acked = true` here).
    pub(crate) fn ack(&self, raw: u64, by_tid: u32) {
        let raw = Self::txn_key(raw);
        let mut s = self.lock();
        let info = s.txns.entry(raw).or_default();
        if info.tid != by_tid {
            let d = format!(
                "Status=Aborted for txn {raw:#x} (thread {}) set by thread {by_tid} — \
                 only the victim may acknowledge (§2.2)",
                info.tid
            );
            Self::push_violation(&mut s, self, "abort-ack-by-foreign-thread", d);
        }
        s.txns.entry(raw).or_default().acked = true;
    }

    /// A peer's `AbortNowPlease` flag was set; `was_active` is the status
    /// `request_abort` linearized against.
    pub(crate) fn anp_set(&self, victim_raw: u64, was_active: bool) {
        let victim_raw = Self::txn_key(victim_raw);
        if was_active {
            self.lock().txns.entry(victim_raw).or_default().anp_active = true;
        }
    }

    /// A thread observed a peer's settled state. Catches rule 3: a
    /// descriptor reading `Aborted` whose acknowledge path never ran was
    /// forced by someone else.
    pub(crate) fn observed_peer(&self, raw: u64, status: Status) {
        let raw = Self::txn_key(raw);
        if status != Status::Aborted {
            return;
        }
        let mut s = self.lock();
        let Some(info) = s.txns.get(&raw).copied() else { return };
        if !info.acked {
            let d = format!(
                "txn {raw:#x} (thread {}, serial {}) observed Status=Aborted but its \
                 acknowledge path never ran — a requester forced the victim's status",
                info.tid, info.serial
            );
            Self::push_violation(&mut s, self, "status-forced-by-requester", d);
            // Record it acknowledged so one injected fault is reported once
            // per victim rather than once per observer iteration.
            s.txns.entry(raw).or_default().acked = true;
        }
    }

    /// The owner word was CAS'd from `prev_raw` to transaction `new_raw`.
    /// `prev_state` is the displaced descriptor's `(status, anp)` loaded
    /// at hook time (None when `prev_raw == 0`); `scss` marks the §2.3.2
    /// engine, whose post-barrier steal from an `Active`+ANP owner is
    /// legal.
    pub(crate) fn owner_cas_txn(
        &self,
        h_addr: usize,
        new_raw: u64,
        prev_raw: u64,
        prev_state: Option<(Status, bool)>,
        scss: bool,
    ) {
        let mut s = self.lock();
        if let Some((Status::Active, anp)) = prev_state {
            if !(scss && anp) {
                let d = format!(
                    "object {h_addr:#x}: owner CAS {prev_raw:#x} -> {new_raw:#x} displaced \
                     a still-Active owner (anp={anp}) — two live owners (rule 1)"
                );
                Self::push_violation(&mut s, self, "owner-stolen-while-active", d);
            }
        }
        Self::mirror_owner_update(&mut s, self, h_addr, prev_raw, new_raw);
    }

    /// The owner word was CAS'd to a *fresh* locator (inflation).
    /// `unresp_state` is the unresponsive transaction's `(status, anp)`
    /// loaded at hook time.
    pub(crate) fn inflated(
        &self,
        h_addr: usize,
        loc_raw: u64,
        unresp_raw: u64,
        unresp_state: (Status, bool),
    ) {
        let unresp_raw = Self::txn_key(unresp_raw);
        let mut s = self.lock();
        let tracked_anp = s.txns.get(&unresp_raw).map(|t| t.anp_active).unwrap_or(false);
        // Raced acknowledgements are benign (the victim settled between
        // the patience expiry and this hook); what must never happen is
        // inflating past a transaction nobody asked to abort.
        let (st, anp) = unresp_state;
        if (st == Status::Active && !anp) || !tracked_anp {
            let d = format!(
                "object {h_addr:#x} inflated naming txn {unresp_raw:#x} which was never \
                 asked to abort (status {st:?}, anp {anp}, tracked-anp {tracked_anp}) — \
                 rule 4 (§2.3.1)"
            );
            Self::push_violation(&mut s, self, "inflation-names-unrequested-txn", d);
        }
        Self::mirror_owner_update(&mut s, self, h_addr, unresp_raw, loc_raw);
    }

    /// An inflated owner word was CAS'd to a replacement locator.
    pub(crate) fn locator_replaced(&self, h_addr: usize, new_raw: u64, prev_raw: u64) {
        let mut s = self.lock();
        Self::mirror_owner_update(&mut s, self, h_addr, prev_raw, new_raw);
    }

    /// The owner word was CAS'd from a locator back to a transaction
    /// (deflation step 2). `aborted_status` is the locator's
    /// `AbortedTransaction` status loaded at hook time.
    pub(crate) fn deflated(&self, h_addr: usize, me_raw: u64, prev_loc_raw: u64, aborted_status: Status) {
        let mut s = self.lock();
        if aborted_status != Status::Aborted {
            let d = format!(
                "object {h_addr:#x} deflated while the unresponsive transaction's status \
                 is {aborted_status:?} (not Aborted) — deflatable() did not hold (rule 5)"
            );
            Self::push_violation(&mut s, self, "deflation-before-acknowledgement", d);
        }
        Self::mirror_owner_update(&mut s, self, h_addr, prev_loc_raw, me_raw);
    }

    /// Committed transaction `raw` released its ownership of the object:
    /// the owner word went from `raw` to 0. Only a committed owner may
    /// release; an active one would lose its undo, an aborted one its
    /// pending restore.
    pub(crate) fn released(&self, h_addr: usize, raw: u64) {
        let raw = Self::txn_key(raw);
        let mut s = self.lock();
        if !s.txns.get(&raw).is_some_and(|t| t.committed) {
            let d = format!(
                "object {h_addr:#x}: txn {raw:#x} released its ownership but the \
                 mirror does not record it committed"
            );
            Self::push_violation(&mut s, self, "release-by-uncommitted-owner", d);
        }
        Self::mirror_owner_update(&mut s, self, h_addr, raw, 0);
    }

    /// A backup buffer whose `words` hold the object's pre-transaction
    /// contents became the object's undo source.
    pub(crate) fn backup_recorded(&self, h_addr: usize, words: &[AtomicU64]) {
        self.lock().objs.entry(h_addr).or_default().pre_txn = Some(snapshot(words));
    }

    /// An aborted owner's backup was restored into the in-place `data`.
    /// `complete` is false when SCSS skipped stores (own ANP observed
    /// mid-restore — the restore will be redone by the next acquirer, so
    /// no comparison).
    pub(crate) fn restored(&self, h_addr: usize, data: &[AtomicU64], complete: bool) {
        if !complete {
            return;
        }
        let data_now = snapshot(data);
        let mut s = self.lock();
        let Some(expected) = s.objs.get(&h_addr).and_then(|o| o.pre_txn.clone()) else {
            return;
        };
        if expected != data_now {
            let d = format!(
                "object {h_addr:#x}: restore-from-backup produced {data_now:?} but the \
                 pre-transaction contents were {expected:?} (rule 6)"
            );
            Self::push_violation(&mut s, self, "restore-mismatch", d);
        }
    }

    /// Thread `tid` registered as a visible reader of the object (mirror
    /// of [`crate::ReaderIndicator::add`]); fires after the indicator
    /// write, before the owner examination.
    pub(crate) fn reader_add(&self, h_addr: usize, tid: usize) {
        self.lock().objs.entry(h_addr).or_default().readers.insert(tid);
    }

    /// Thread `tid` deregistered as a visible reader. `intact` is the
    /// indicator's own report: `tid`'s bit was still set at removal.
    pub(crate) fn reader_remove(&self, h_addr: usize, tid: usize, intact: bool) {
        let mut s = self.lock();
        let was_tracked = s.objs.entry(h_addr).or_default().readers.remove(&tid);
        if !was_tracked {
            let d = format!(
                "object {h_addr:#x}: thread {tid} cleared a reader registration the \
                 mirror never saw it make — visible reads must register before the \
                 owner examination (§2.2)"
            );
            Self::push_violation(&mut s, self, "reader-remove-without-add", d);
            return;
        }
        if !intact {
            let d = format!(
                "object {h_addr:#x}: thread {tid} is registered in the mirror but the \
                 bitmap lost its bit before removal — a writer could have missed \
                 this reader"
            );
            Self::push_violation(&mut s, self, "reader-bit-lost", d);
        }
    }

    /// An `Active` owner is about to store eagerly to in-place data;
    /// `backup_raw` is the object's backup word, or under SCSS the
    /// writer's own, checked once its store is sure to land.
    pub(crate) fn eager_write(&self, h_addr: usize, backup_raw: u64) {
        if backup_raw != 0 {
            return;
        }
        let mut s = self.lock();
        let d = format!(
            "object {h_addr:#x}: eager in-place write with a null backup pointer — \
             the write could never be undone (rule 2)"
        );
        Self::push_violation(&mut s, self, "eager-write-without-backup", d);
    }

    // ---- internals ---------------------------------------------------------

    fn lock(&self) -> std::sync::MutexGuard<'_, SanState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mirror-consistency bookkeeping for owner transitions: the mirror
    /// must have believed `prev_raw` was installed, *unless* the recorded
    /// owner was already settled (the hybrid's hardware path erases
    /// settled owners without engine hooks — legal; a committer's own
    /// release is hooked, [`Sanitizer::released`]).
    fn mirror_owner_update(s: &mut SanState, san: &Sanitizer, h_addr: usize, prev_raw: u64, new_raw: u64) {
        let recorded = s.objs.entry(h_addr).or_default().owner_raw;
        if recorded != 0 && recorded != prev_raw && recorded & 1 == 0 {
            if let Some(info) = s.txns.get(&recorded).copied() {
                if !info.committed && !info.acked {
                    let d = format!(
                        "object {h_addr:#x}: owner transition {prev_raw:#x} -> {new_raw:#x} \
                         but the mirror records live owner {recorded:#x} (thread {}, serial \
                         {}) — an active ownership was overwritten untracked (rule 1)",
                        info.tid, info.serial
                    );
                    Self::push_violation(s, san, "owner-mirror-divergence", d);
                }
            }
        }
        s.objs.entry(h_addr).or_default().owner_raw = new_raw;
    }

    fn push_violation(s: &mut SanState, san: &Sanitizer, rule: &'static str, detail: String) {
        eprintln!("[nztm-sanitizer] VIOLATION {rule}: {detail}");
        // Inline replay dump (can't call replay_dump(): the lock is held).
        let tail_from = s.log.len().saturating_sub(32);
        eprintln!(
            "[nztm-sanitizer] replay: seed={:#x} max_pause={} decisions={}",
            san.seed.load(Ordering::SeqCst),
            san.max_pause.load(Ordering::SeqCst),
            s.log.len()
        );
        for (i, step) in s.log[tail_from..].iter().enumerate() {
            eprintln!("[nztm-sanitizer]   [{:5}] t{} {}", tail_from + i, step.tid, step.point.name());
        }
        s.violations.push(Violation { rule, detail });
    }
}

fn snapshot(words: &[AtomicU64]) -> Vec<u64> {
    words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(v: &[u64]) -> Vec<AtomicU64> {
        v.iter().map(|&w| AtomicU64::new(w)).collect()
    }

    #[test]
    fn foreign_ack_is_flagged() {
        let s = Sanitizer::new();
        s.txn_begin(0x1000, 3, 7);
        s.ack(0x1000, 5);
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "abort-ack-by-foreign-thread");
    }

    #[test]
    fn own_ack_is_clean() {
        let s = Sanitizer::new();
        s.txn_begin(0x1000, 3, 7);
        s.ack(0x1000, 3);
        s.observed_peer(0x1000, Status::Aborted);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn forced_status_observed_without_ack_is_flagged() {
        let s = Sanitizer::new();
        s.txn_begin(0x2000, 1, 1);
        s.anp_set(0x2000, true);
        // Nobody ran ack(); a peer observes Aborted anyway.
        s.observed_peer(0x2000, Status::Aborted);
        let v = s.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "status-forced-by-requester");
        // Reported once, not per observation.
        s.observed_peer(0x2000, Status::Aborted);
        assert_eq!(s.violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "tagged owner word")]
    fn txn_hooks_reject_tagged_owner_words() {
        // The rule-3 mirror is keyed by descriptor addresses; feeding it
        // an inflated owner word (tag bit set) would split one
        // transaction across two entries and fabricate violations.
        let s = Sanitizer::new();
        s.observed_peer(0x2001, Status::Aborted);
    }

    #[test]
    fn commit_after_active_anp_is_flagged() {
        let s = Sanitizer::new();
        s.txn_begin(0x3000, 0, 1);
        s.anp_set(0x3000, true);
        s.commit_ok(0x3000, 0);
        assert_eq!(s.violations()[0].rule, "commit-after-abort-request");
    }

    #[test]
    fn late_anp_does_not_poison_commit() {
        let s = Sanitizer::new();
        s.txn_begin(0x3000, 0, 1);
        s.anp_set(0x3000, false); // request_abort linearized after settle
        s.commit_ok(0x3000, 0);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn owner_steal_from_active_is_flagged_but_scss_barrier_steal_is_not() {
        let s = Sanitizer::new();
        s.owner_cas_txn(0x40, 0xA0, 0xB0, Some((Status::Active, false)), false);
        assert_eq!(s.violations()[0].rule, "owner-stolen-while-active");

        let s = Sanitizer::new();
        s.owner_cas_txn(0x40, 0xA0, 0xB0, Some((Status::Active, true)), true);
        assert!(s.violations().is_empty(), "SCSS post-barrier steal is legal");
    }

    #[test]
    fn release_requires_a_committed_owner() {
        let s = Sanitizer::new();
        s.txn_begin(0xA0, 0, 1);
        s.owner_cas_txn(0x40, 0xA0, 0, None, false);
        s.commit_ok(0xA0, 0);
        s.released(0x40, 0xA0);
        assert!(s.violations().is_empty());
        assert_eq!(s.lock().objs[&0x40].owner_raw, 0, "the mirror owner is cleared");

        let s = Sanitizer::new();
        s.txn_begin(0xA0, 0, 1);
        s.owner_cas_txn(0x40, 0xA0, 0, None, false);
        s.released(0x40, 0xA0);
        assert_eq!(s.violations()[0].rule, "release-by-uncommitted-owner");
    }

    #[test]
    fn release_over_a_later_owner_is_flagged() {
        // Owner hooks arrive in CAS order, so A's release landing after
        // B's `0 -> B` means A's CAS erased B's live ownership.
        let s = Sanitizer::new();
        s.txn_begin(0xA0, 0, 1);
        s.txn_begin(0xB0, 1, 1);
        s.owner_cas_txn(0x40, 0xA0, 0, None, false);
        s.commit_ok(0xA0, 0);
        s.owner_cas_txn(0x40, 0xB0, 0, None, false);
        s.released(0x40, 0xA0);
        assert_eq!(s.violations()[0].rule, "owner-mirror-divergence");
    }

    #[test]
    fn restore_mismatch_is_flagged() {
        let s = Sanitizer::new();
        s.backup_recorded(0x40, &words(&[1, 2, 3]));
        s.restored(0x40, &words(&[1, 2, 3]), true);
        assert!(s.violations().is_empty());
        s.restored(0x40, &words(&[1, 9, 3]), true);
        assert_eq!(s.violations()[0].rule, "restore-mismatch");
        // Incomplete (SCSS-skipped) restores are not compared.
        let s = Sanitizer::new();
        s.backup_recorded(0x40, &words(&[1]));
        s.restored(0x40, &words(&[7]), false);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn deflation_requires_acknowledged_txn() {
        let s = Sanitizer::new();
        s.deflated(0x40, 0xA0, 0xB1, Status::Active);
        assert_eq!(s.violations()[0].rule, "deflation-before-acknowledgement");
        let s = Sanitizer::new();
        s.deflated(0x40, 0xA0, 0xB1, Status::Aborted);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn inflation_requires_requested_victim() {
        let s = Sanitizer::new();
        s.txn_begin(0xB0, 1, 1);
        s.inflated(0x40, 0xC1, 0xB0, (Status::Active, false));
        assert_eq!(s.violations()[0].rule, "inflation-names-unrequested-txn");

        let s = Sanitizer::new();
        s.txn_begin(0xB0, 1, 1);
        s.anp_set(0xB0, true);
        s.inflated(0x40, 0xC1, 0xB0, (Status::Active, true));
        assert!(s.violations().is_empty());
    }

    #[test]
    fn reader_remove_without_add_is_flagged() {
        let s = Sanitizer::new();
        s.reader_add(0x40, 3);
        s.reader_remove(0x40, 3, true);
        assert!(s.violations().is_empty());
        s.reader_remove(0x40, 3, true);
        assert_eq!(s.violations()[0].rule, "reader-remove-without-add");
    }

    #[test]
    fn lost_reader_registration_is_flagged() {
        let s = Sanitizer::new();
        s.reader_add(0x40, 7);
        s.reader_remove(0x40, 7, false);
        assert_eq!(s.violations()[0].rule, "reader-bit-lost");
        // The mirror entry is consumed either way.
        s.reader_remove(0x40, 7, true);
        assert_eq!(s.violations()[1].rule, "reader-remove-without-add");
    }

    #[test]
    fn independent_readers_do_not_interfere() {
        let s = Sanitizer::new();
        s.reader_add(0x40, 1);
        s.reader_add(0x40, 100);
        s.reader_add(0x80, 1);
        s.reader_remove(0x40, 100, true);
        s.reader_remove(0x40, 1, true);
        s.reader_remove(0x80, 1, true);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn schedule_log_and_digest_are_stable() {
        let s = Sanitizer::new();
        s.set_schedule(42, 8);
        s.log_step(0, Point::OwnerCas);
        s.log_step(1, Point::AnpSet);
        let d1 = s.schedule_digest();
        let log = s.decision_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], Step { tid: 0, point: Point::OwnerCas });

        let t = Sanitizer::new();
        t.set_schedule(42, 8);
        t.log_step(0, Point::OwnerCas);
        t.log_step(1, Point::AnpSet);
        assert_eq!(t.schedule_digest(), d1, "same steps, same digest");
        t.log_step(1, Point::AwaitAck);
        assert_ne!(t.schedule_digest(), d1);
        assert!(t.replay_dump().contains("await-ack"));
    }

    #[test]
    fn disarmed_engine_records_nothing() {
        use nztm_sim::{Machine, MachineConfig, SimPlatform};
        use std::sync::Arc;
        // 1 000 contended NZSTM commits with nobody arming the sanitizer:
        // every hook fires, and every hook returns at once.
        let m = Machine::new(MachineConfig::paper(2));
        let p = SimPlatform::new(Arc::clone(&m));
        let stm = crate::NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let obj = stm.new_obj(0u64);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
            .map(|_| {
                let stm = Arc::clone(&stm);
                let obj = Arc::clone(&obj);
                Box::new(move || {
                    for _ in 0..500 {
                        stm.run(|tx| tx.update(&obj, |v| *v += 1));
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        let st = stm.stats_snapshot();
        assert_eq!(st.commits, 1_000);
        assert!(st.conflicts > 0, "the run must contend: {st:?}");
        assert_eq!(obj.read_untracked(), 1_000);

        let san = stm.sanitizer();
        let s = san.lock();
        assert!(s.txns.is_empty(), "{} transaction entries", s.txns.len());
        assert!(s.objs.is_empty(), "{} object entries", s.objs.len());
        drop(s);
        assert!(san.violations().is_empty());
        assert!(san.decision_log().is_empty());
    }

    #[test]
    fn unarmed_sanitizer_keeps_no_log() {
        let s = Sanitizer::new();
        s.log_step(0, Point::OwnerCas);
        assert!(s.decision_log().is_empty());
    }
}
