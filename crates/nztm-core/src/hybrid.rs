//! NZTM hybrid support (§2.4): the checks a *hardware* transaction makes
//! against NZSTM's software metadata.
//!
//! A best-effort hardware transaction that accesses an `NZObject` cannot
//! simply touch the data: a software transaction might own the object.
//! The paper's scheme, implemented by [`hw_examine_and_clean`]:
//!
//! * If the owner word points to an **active** software transaction (or
//!   the object is inflated with a live locator chain), the hardware
//!   transaction **aborts itself** — it will be retried in hardware or
//!   fall back to software, per policy.
//! * If the owner is settled, the hardware transaction *repairs* the
//!   object on the spot: restores the backup if the last owner aborted,
//!   deflates an inflated object whose chain is quiescent, and finally
//!   sets the owner word to `NULL` "so subsequent hardware transactions
//!   [need not] perform similar checks". The repair also detaches the
//!   backup, so an unowned object never has one (the state a software
//!   committer's release leaves too): a backup left behind would still
//!   read as usable after a later hardware write, and the next software
//!   acquirer that aborted before installing its own would bring the
//!   stale buffer back.
//! * A hardware **writer** must also abort on visible software readers.
//!
//! These routines are called from inside the emulated hardware
//! transaction (the `nztm-htm` crate), which guarantees (a) atomicity of
//! the whole check-and-repair sequence with respect to simulated cores
//! and (b) that the metadata lines examined join the hardware
//! transaction's conflict sets, so any later software acquisition aborts
//! the hardware transaction — exactly the property the paper relies on
//! ("a subsequent conflict that arises with a software transaction will
//! modify data that the hardware transaction has accessed").
//!
//! "We emphasize that these techniques are achieved by controlling what
//! code is executed within a hardware transaction, not by assuming any
//! special support in the hardware." — likewise here: this module only
//! uses the ordinary public operations of [`NZHeader`].

use crate::data::copy_words;
use crate::object::NZHeader;
use crate::txn::Status;
use nztm_epoch::Guard;
use std::sync::atomic::AtomicU64;

/// Result of examining an object's metadata from the hardware path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HwCheck {
    /// Object is (now) clean: owner NULL, data in place and valid.
    Clean,
    /// Conflict with an active software transaction or software readers;
    /// the hardware transaction must abort itself.
    ConflictWithSoftware,
}

/// Examine — and if possible repair — `header`/`data` for access by a
/// hardware transaction. `is_write` additionally treats visible software
/// readers as conflicts. Must run inside the hardware transaction's
/// atomic context.
pub fn hw_examine_and_clean(
    header: &NZHeader,
    data: &[AtomicU64],
    is_write: bool,
    self_tid: usize,
    guard: &Guard,
) -> HwCheck {
    use crate::object::OwnerRef;

    if is_write && header.has_reader_other_than(self_tid) {
        return HwCheck::ConflictWithSoftware;
    }

    match header.owner(guard) {
        OwnerRef::None => HwCheck::Clean,
        OwnerRef::Txn(t, raw) => match t.status() {
            Status::Active => HwCheck::ConflictWithSoftware,
            Status::Committed => {
                // Inert ownership: erase it so later hardware transactions
                // skip these checks (§2.4).
                release(header, raw, guard);
                HwCheck::Clean
            }
            Status::Aborted => {
                // Lazily restore the backup (the data words are stale),
                // then erase the owner. Skip stale buffers whose
                // installer committed (see WordBuf::usable_as_backup).
                if let Some((b, _)) =
                    header.backup(guard).filter(|(b, _)| b.usable_as_backup(guard))
                {
                    copy_words(data, b.words());
                }
                release(header, raw, guard);
                HwCheck::Clean
            }
        },
        OwnerRef::Inflated(loc, raw) => {
            // §2.4: "NZTM first attempts to deflate an inflated object,
            // and then accesses the data in place."
            let chain_live = loc.owner().status() == Status::Active
                || loc.aborted_txn().status() == Status::Active;
            if chain_live {
                return HwCheck::ConflictWithSoftware;
            }
            // Quiescent chain: the logical value is fixed; write it back
            // in place and erase the owner (hardware deflation straight
            // to NULL — stronger than software deflation, which must keep
            // an owner because it may yet abort).
            copy_words(data, loc.current_data().words());
            if release(header, raw, guard) {
                HwCheck::Clean
            } else {
                // Somebody raced us; be conservative.
                HwCheck::ConflictWithSoftware
            }
        }
    }
}

/// Erase the settled owner `raw` and, if that succeeded, detach the
/// backup buffer too (its release deferred through the epoch): the
/// repaired data is in place, so no backup may outlive the owner.
fn release(header: &NZHeader, raw: u64, guard: &Guard) -> bool {
    if !header.cas_owner_to_null(raw, guard) {
        return false;
    }
    let backup = header.backup_raw();
    if backup != 0 {
        let _ = header.cas_backup(backup, None, guard);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::Locator;
    use crate::object::{NZObject, OwnerRef, WordBuf};
    use crate::txn::TxnDesc;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn desc() -> Arc<TxnDesc> {
        Arc::new(TxnDesc::new(0, 0))
    }

    #[test]
    fn clean_object_passes() {
        let o = NZObject::new(1u64);
        let g = nztm_epoch::pin();
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), true, 0, &g),
            HwCheck::Clean
        );
    }

    #[test]
    fn active_owner_conflicts() {
        let o = NZObject::new(1u64);
        let d = desc();
        let g = nztm_epoch::pin();
        o.header().cas_owner_to_txn(0, &d, &g);
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), false, 0, &g),
            HwCheck::ConflictWithSoftware
        );
    }

    #[test]
    fn committed_owner_is_erased() {
        let o = NZObject::new(1u64);
        let d = desc();
        let g = nztm_epoch::pin();
        o.header().cas_owner_to_txn(0, &d, &g);
        d.try_commit();
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), true, 0, &g),
            HwCheck::Clean
        );
        assert!(matches!(o.header().owner(&g), OwnerRef::None));
    }

    #[test]
    fn aborted_owner_restores_backup() {
        let o = NZObject::new(10u64);
        let d = desc();
        let g = nztm_epoch::pin();
        o.header().cas_owner_to_txn(0, &d, &g);
        let backup = WordBuf::from_words(o.data_words()); // backup = 10
        o.header().cas_backup(0, Some(&backup), &g);
        o.data_words()[0].store(99, Ordering::Relaxed); // speculative write
        d.acknowledge_abort();

        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), true, 0, &g),
            HwCheck::Clean
        );
        assert_eq!(o.read_untracked(), 10, "backup restored");
        assert!(matches!(o.header().owner(&g), OwnerRef::None));
        assert_eq!(o.header().backup_raw(), 0, "backup detached with the owner");
    }

    #[test]
    fn software_readers_block_hw_writers_only() {
        let o = NZObject::new(1u64);
        let g = nztm_epoch::pin();
        o.header().add_reader(3);
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), true, 0, &g),
            HwCheck::ConflictWithSoftware
        );
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), false, 0, &g),
            HwCheck::Clean,
            "hardware readers coexist with software readers"
        );
        // Our own reader bit doesn't conflict.
        o.header().remove_reader(3);
        o.header().add_reader(0);
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), true, 0, &g),
            HwCheck::Clean
        );
    }

    #[test]
    fn quiescent_inflated_object_deflates_to_null() {
        let o = NZObject::new(5u64);
        let owner = desc();
        let unresp = desc();
        let g = nztm_epoch::pin();
        let old = WordBuf::from_words(o.data_words());
        let new = WordBuf::from_words(o.data_words());
        new.words()[0].store(42, Ordering::Relaxed);
        let loc =
            Arc::new(Locator::new(Arc::clone(&owner), Arc::clone(&unresp), old, new));
        o.header().cas_owner_to_locator(0, &loc, &g);

        // Chain still live: locator owner active.
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), false, 0, &g),
            HwCheck::ConflictWithSoftware
        );

        // Owner commits (logical value = new = 42), unresponsive acks.
        owner.try_commit();
        unresp.acknowledge_abort();
        assert_eq!(
            hw_examine_and_clean(o.header(), o.data_words(), false, 0, &g),
            HwCheck::Clean
        );
        assert_eq!(o.read_untracked(), 42, "committed locator value deflated in place");
        assert!(matches!(o.header().owner(&g), OwnerRef::None));
    }
}
