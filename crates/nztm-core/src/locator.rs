//! DSTM-style `Locator` used by **inflated** objects (§2.3.1, Figure 2).
//!
//! When a conflicting owner is unresponsive, NZSTM gives up on in-place
//! access and displaces the object's logical value behind a locator,
//! "effectively changing the meaning of the Owner field": the owner word
//! then points here (low bit set) and the DSTM algorithm applies — two
//! levels of indirection, but only while the unresponsive transaction
//! remains unresponsive.
//!
//! The one NZSTM addition over DSTM's locator is the **Aborted
//! Transaction** field: every replacement locator carries it forward so
//! the identity of the unresponsive transaction is preserved, which is
//! what later allows *deflation* once that transaction finally
//! acknowledges its abort.
//!
//! Locator fields are immutable after construction — DSTM replaces whole
//! locators by CAS on the owner word — so no field-level synchronization
//! is needed. The value buffers are shared `WordBuf`s; a committed
//! locator's `new_data` becomes the next locator's `old_data`.

use crate::object::WordBuf;
use crate::txn::{Status, TxnDesc};
use std::sync::Arc;

/// An NZSTM locator (DSTM locator + `aborted_txn`).
pub struct Locator {
    owner: Arc<TxnDesc>,
    /// The unresponsive transaction this inflation chain is waiting out.
    aborted_txn: Arc<TxnDesc>,
    /// Value before `owner`; current logical value while `owner` is
    /// active or aborted.
    old_data: Arc<WordBuf>,
    /// Speculative value written by `owner`; becomes the logical value
    /// when `owner` commits.
    new_data: Arc<WordBuf>,
}

impl Locator {
    pub fn new(
        owner: Arc<TxnDesc>,
        aborted_txn: Arc<TxnDesc>,
        old_data: Arc<WordBuf>,
        new_data: Arc<WordBuf>,
    ) -> Self {
        debug_assert_eq!(old_data.len(), new_data.len());
        Locator { owner, aborted_txn, old_data, new_data }
    }

    pub fn owner(&self) -> &TxnDesc {
        &self.owner
    }

    pub fn aborted_txn(&self) -> &TxnDesc {
        &self.aborted_txn
    }

    pub fn aborted_txn_arc(&self) -> &Arc<TxnDesc> {
        &self.aborted_txn
    }

    pub fn old_data(&self) -> &Arc<WordBuf> {
        &self.old_data
    }

    pub fn new_data(&self) -> &Arc<WordBuf> {
        &self.new_data
    }

    /// The buffer currently holding the object's **logical value**, per
    /// the DSTM rule: `new_data` if the locator's owner committed,
    /// `old_data` otherwise (active or aborted).
    pub fn current_data(&self) -> &Arc<WordBuf> {
        match self.owner.status() {
            Status::Committed => &self.new_data,
            Status::Active | Status::Aborted => &self.old_data,
        }
    }

    /// Whether the inflation chain can be collapsed: the unresponsive
    /// transaction has finally acknowledged its abort (§2.3.1 deflation
    /// precondition).
    pub fn deflatable(&self) -> bool {
        self.aborted_txn.status() == Status::Aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bufs(v_old: u64, v_new: u64) -> (Arc<WordBuf>, Arc<WordBuf>) {
        let old = WordBuf::zeroed(1);
        old.words()[0].store(v_old, std::sync::atomic::Ordering::Relaxed);
        let new = WordBuf::zeroed(1);
        new.words()[0].store(v_new, std::sync::atomic::Ordering::Relaxed);
        (old, new)
    }

    #[test]
    fn current_data_follows_owner_status() {
        let owner = Arc::new(TxnDesc::new(0, 0));
        let aborted = Arc::new(TxnDesc::new(1, 0));
        let (old, new) = bufs(10, 20);
        let loc = Locator::new(Arc::clone(&owner), aborted, old, new);

        // Active owner: logical value is old.
        assert_eq!(loc.current_data().words()[0].load(std::sync::atomic::Ordering::Relaxed), 10);

        // Committed owner: logical value flips to new.
        assert!(owner.try_commit());
        assert_eq!(loc.current_data().words()[0].load(std::sync::atomic::Ordering::Relaxed), 20);
    }

    #[test]
    fn aborted_owner_keeps_old_value() {
        let owner = Arc::new(TxnDesc::new(0, 0));
        let aborted = Arc::new(TxnDesc::new(1, 0));
        let (old, new) = bufs(10, 20);
        let loc = Locator::new(Arc::clone(&owner), aborted, old, new);
        owner.acknowledge_abort();
        assert_eq!(loc.current_data().words()[0].load(std::sync::atomic::Ordering::Relaxed), 10);
    }

    #[test]
    fn deflatable_tracks_unresponsive_ack() {
        let owner = Arc::new(TxnDesc::new(0, 0));
        let unresponsive = Arc::new(TxnDesc::new(1, 0));
        unresponsive.request_abort();
        let (old, new) = bufs(1, 2);
        let loc = Locator::new(owner, Arc::clone(&unresponsive), old, new);
        assert!(!loc.deflatable(), "not yet acknowledged");
        unresponsive.acknowledge_abort();
        assert!(loc.deflatable());
    }
}
