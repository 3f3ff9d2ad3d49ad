//! Contention management.
//!
//! The paper (§4.3) uses "a variant of Karma, in which each transaction's
//! priority is proportional to the number of objects it has already
//! acquired in this transaction attempt", combined with a LogTM-style
//! deadlock-detection scheme:
//!
//! > "By default, whenever a conflict is detected, transactions do not
//! > abort the other transaction unless a timeout is triggered. Whenever a
//! > transaction TL detects a conflict with a high priority transaction
//! > TH, TL raises a flag and it waits until TH is done. When a
//! > transaction TH detects a conflict with a low priority transaction TL
//! > whose flag is raised, TH infers that there is a potential cycle and
//! > aborts TL."
//!
//! [`KarmaDeadlock`] implements exactly that policy and is the default
//! everywhere; every benchmark runs it. [`Aggressive`], [`Polite`],
//! [`Timestamp`] and [`Greedy`] are classic alternatives (Scherer & Scott;
//! Guerraoui, Herlihy & Pochon) kept as test tools: `nztm-check` runs its
//! schedule batteries under each of them (`CM_KINDS`), and the sanitizer
//! and engine-edge tests use them to force abort requests, self-aborts
//! and steals that Karma makes rare.
//!
//! A contention manager decides *policy only* — whether to keep waiting,
//! request the peer's abort, or abort self. The *mechanism* (the
//! AbortNowPlease handshake, patience, inflation, retry backoff) lives in
//! the engine, so no policy can turn a nonblocking mode blocking.

mod karma;

pub use karma::KarmaDeadlock;

use crate::txn::TxnDesc;

/// What to do about a conflict with `other`, asked repeatedly while the
/// conflict persists (with `waited` incrementing each consultation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Keep waiting (spin once, consult again).
    Wait,
    /// Request that the peer abort itself.
    RequestAbort,
    /// Abort the current transaction instead.
    AbortSelf,
}

/// Contention-manager policy interface: the classic Scherer & Scott
/// decision point, consulted by the engine's conflict loop.
pub trait ContentionManager: Send + Sync + 'static {
    /// Resolve a conflict between `me` (the transaction detecting the
    /// conflict) and `other` (the current owner/reader).
    ///
    /// **Units of `waited`:** the number of *consultations already taken
    /// on this conflict*. The engine's conflict loop takes exactly one
    /// `spin_wait` step after each `Wait` resolution before consulting
    /// again, so `waited` also equals the spin steps spent on this
    /// conflict so far — the first call always sees `waited == 0`,
    /// before any spin. Policy budgets ([`Polite::budget`],
    /// [`KarmaDeadlock::timeout`]) are denominated in these
    /// consultation steps; the engine must never consult more than once
    /// per spin step, or budgets would silently shrink in wall time.
    fn resolve(&self, me: &TxnDesc, other: &TxnDesc, waited: u64) -> Resolution;

    /// Name, for reports.
    fn name(&self) -> &'static str;
}

/// Always request the peer's abort immediately ("requester wins" in
/// software — the policy ATMTP hardware uses).
#[derive(Debug, Default)]
pub struct Aggressive;

impl ContentionManager for Aggressive {
    fn resolve(&self, _me: &TxnDesc, _other: &TxnDesc, _waited: u64) -> Resolution {
        Resolution::RequestAbort
    }
    fn name(&self) -> &'static str {
        "aggressive"
    }
}

/// Bounded politeness: wait with (engine-provided) backoff up to a budget,
/// then request the peer's abort.
#[derive(Debug)]
pub struct Polite {
    pub budget: u64,
}

impl Default for Polite {
    fn default() -> Self {
        Polite { budget: 32 }
    }
}

impl ContentionManager for Polite {
    fn resolve(&self, _me: &TxnDesc, _other: &TxnDesc, waited: u64) -> Resolution {
        if waited < self.budget {
            Resolution::Wait
        } else {
            Resolution::RequestAbort
        }
    }
    fn name(&self) -> &'static str {
        "polite"
    }
}

/// Older transaction wins (lower serial = older); the younger aborts
/// itself on conflict with an older one. Simple, livelock-free given
/// thread-unique serials — used by tests that need guaranteed progress.
#[derive(Debug, Default)]
pub struct Timestamp;

impl ContentionManager for Timestamp {
    fn resolve(&self, me: &TxnDesc, other: &TxnDesc, _waited: u64) -> Resolution {
        // Order by (serial, thread) — unique per descriptor.
        let mine = (me.serial, me.thread);
        let theirs = (other.serial, other.thread);
        if mine < theirs {
            Resolution::RequestAbort
        } else {
            Resolution::AbortSelf
        }
    }
    fn name(&self) -> &'static str {
        "timestamp"
    }
}

/// Greedy (Guerraoui, Herlihy & Pochon, PODC 2005): the transaction with
/// the earlier start wins outright — on conflict, the younger one either
/// aborts itself (if the elder demands the object) or aborts the elder's
/// victim. Here rendered in the request/acknowledge idiom: the elder
/// requests the younger's abort; the younger waits for the elder unless
/// the elder is itself waiting (then it aborts itself — Greedy's
/// "if the enemy is older and suspended, kill yourself" rule).
#[derive(Debug, Default)]
pub struct Greedy;

impl ContentionManager for Greedy {
    fn resolve(&self, me: &TxnDesc, other: &TxnDesc, _waited: u64) -> Resolution {
        let mine = (me.serial, me.thread);
        let theirs = (other.serial, other.thread);
        if mine < theirs {
            // I am older: the younger transaction must go.
            Resolution::RequestAbort
        } else if other.is_waiting() {
            // Younger vs an older-but-stalled enemy: step aside.
            Resolution::AbortSelf
        } else {
            Resolution::Wait
        }
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(thread: u32, serial: u64) -> TxnDesc {
        TxnDesc::new(thread, serial)
    }

    #[test]
    fn aggressive_always_requests() {
        let cm = Aggressive;
        let a = desc(0, 1);
        let b = desc(1, 99);
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::RequestAbort);
        assert_eq!(cm.resolve(&a, &b, 1000), Resolution::RequestAbort);
    }

    #[test]
    fn polite_waits_then_requests() {
        let cm = Polite { budget: 3 };
        let a = desc(0, 1);
        let b = desc(1, 1);
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::Wait);
        assert_eq!(cm.resolve(&a, &b, 2), Resolution::Wait);
        assert_eq!(cm.resolve(&a, &b, 3), Resolution::RequestAbort);
    }

    #[test]
    fn timestamp_older_wins() {
        let cm = Timestamp;
        let old = desc(0, 1);
        let young = desc(1, 5);
        assert_eq!(cm.resolve(&old, &young, 0), Resolution::RequestAbort);
        assert_eq!(cm.resolve(&young, &old, 0), Resolution::AbortSelf);
    }

    #[test]
    fn timestamp_ties_break_by_thread() {
        let cm = Timestamp;
        let a = desc(0, 3);
        let b = desc(1, 3);
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::RequestAbort);
        assert_eq!(cm.resolve(&b, &a, 0), Resolution::AbortSelf);
    }

    #[test]
    fn greedy_older_requests_younger_aborts_or_waits() {
        let cm = Greedy;
        let old = desc(0, 1);
        let young = desc(1, 9);
        assert_eq!(cm.resolve(&old, &young, 0), Resolution::RequestAbort);
        assert_eq!(cm.resolve(&young, &old, 0), Resolution::Wait);
        old.set_waiting(true);
        assert_eq!(cm.resolve(&young, &old, 0), Resolution::AbortSelf);
    }
}
