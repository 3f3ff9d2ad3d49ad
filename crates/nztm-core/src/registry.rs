//! Thread registry: maps a thread/core id to its *current* transaction
//! descriptor.
//!
//! Visible reading (the read-sharing mechanism the paper's experiments
//! use) registers readers in a per-object indicator — one bit per thread
//! ([`crate::readers::ReaderIndicator`]). A writer that finds reader
//! bits set must translate each bit back to a transaction in order to
//! request its abort; this registry provides that translation. The
//! registry itself is one padded slot per thread and carries no
//! thread-count ceiling.
//!
//! A slot holds a raw pointer carrying one strong `Arc` count, replaced at
//! each transaction begin; the displaced descriptor's count is dropped
//! through the epoch so a concurrent writer that just loaded it can still
//! safely request an abort of the (now finished) transaction. A request
//! delivered to a stale descriptor is harmless: the descriptor is already
//! settled, and `request_abort` on a settled descriptor has no effect on
//! the thread's next transaction — with one benign exception (an
//! unavoidable bitmap race also present in RSTM-style designs): the reader
//! may have just begun its next transaction, which then receives a
//! spurious abort request. That costs a retry, never safety.

use crate::txn::TxnDesc;
use crate::util::CachePadded;
use nztm_epoch::Guard;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct ThreadRegistry {
    /// One padded slot per thread. Each thread *swaps* its own slot on
    /// every transaction begin; without padding, eight slots share a host
    /// cache line and every begin invalidates seven other threads' lines
    /// (classic false sharing — the synthetic model already charged each
    /// slot as its own line, the synthetic layout now matches it).
    slots: Vec<CachePadded<AtomicU64>>,
    /// Synthetic base; each slot is charged as its own cache line.
    synth: usize,
}

impl ThreadRegistry {
    pub fn new(n_threads: usize) -> Self {
        ThreadRegistry {
            slots: (0..n_threads).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            synth: nztm_sim::synth_alloc_as(
                n_threads.max(1) * 64,
                nztm_sim::StructClass::RegistrySlots,
            ),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Publish `desc` as thread `tid`'s current transaction.
    pub fn publish(&self, tid: usize, desc: &Arc<TxnDesc>, guard: &Guard) {
        let new_raw = Arc::into_raw(Arc::clone(desc)) as u64;
        let old = self.slots[tid].swap(new_raw, Ordering::SeqCst);
        if old != 0 {
            // Allocation-free defer: publish runs once per attempt.
            unsafe { guard.defer_fn(crate::object::release_txn_arc, old) };
        }
    }

    /// Current transaction of thread `tid`, valid while `_guard` is held.
    pub fn current<'g>(&self, tid: usize, _guard: &'g Guard) -> Option<&'g TxnDesc> {
        let raw = self.slots[tid].load(Ordering::SeqCst);
        if raw == 0 {
            None
        } else {
            Some(unsafe { &*(raw as *const TxnDesc) })
        }
    }

    /// Synthetic address of a slot (one line per slot), for charging.
    pub fn slot_addr(&self, tid: usize) -> usize {
        self.synth + tid * 64
    }
}

impl Drop for ThreadRegistry {
    fn drop(&mut self) {
        for s in &mut self.slots {
            let raw = *s.get_mut();
            if raw != 0 {
                unsafe { drop(Arc::from_raw(raw as *const TxnDesc)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Status;

    #[test]
    fn empty_slot_yields_none() {
        let r = ThreadRegistry::new(4);
        let g = nztm_epoch::pin();
        assert!(r.current(2, &g).is_none());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn publish_then_read_back() {
        let r = ThreadRegistry::new(2);
        let d = Arc::new(TxnDesc::new(1, 7));
        let g = nztm_epoch::pin();
        r.publish(1, &d, &g);
        let cur = r.current(1, &g).unwrap();
        assert_eq!(cur.serial, 7);
        assert!(r.current(0, &g).is_none());
    }

    #[test]
    fn republish_replaces() {
        let r = ThreadRegistry::new(1);
        let d1 = Arc::new(TxnDesc::new(0, 1));
        let d2 = Arc::new(TxnDesc::new(0, 2));
        let g = nztm_epoch::pin();
        r.publish(0, &d1, &g);
        r.publish(0, &d2, &g);
        assert_eq!(r.current(0, &g).unwrap().serial, 2);
        // d1 still usable (deferred, not dropped) while pinned.
        assert_eq!(d1.status(), Status::Active);
    }

    #[test]
    fn construction_past_64_threads_is_supported() {
        let r = ThreadRegistry::new(130);
        assert_eq!(r.len(), 130);
        let g = nztm_epoch::pin();
        let d = Arc::new(TxnDesc::new(129, 3));
        r.publish(129, &d, &g);
        assert_eq!(r.current(129, &g).unwrap().serial, 3);
        assert!(r.current(64, &g).is_none());
        // Slots keep one synthetic line each, past the old 64 ceiling.
        assert_eq!(r.slot_addr(129) - r.slot_addr(0), 129 * 64);
    }

    #[test]
    fn drop_releases_slots() {
        let d = Arc::new(TxnDesc::new(0, 1));
        {
            let r = ThreadRegistry::new(1);
            let g = nztm_epoch::pin();
            r.publish(0, &d, &g);
            drop(r);
        }
        assert_eq!(Arc::strong_count(&d), 1);
    }
}
