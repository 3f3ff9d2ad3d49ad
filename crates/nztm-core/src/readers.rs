//! Visible-reader indicators.
//!
//! The paper's read-sharing design (§2.5) makes readers *visible*: a
//! reader publishes itself on the object before trusting any value, so a
//! writer can enumerate readers and request their aborts.
//! [`ReaderIndicator`] is that set: one `AtomicU64` bitmap per object,
//! one bit per thread. A TM system therefore hosts at most
//! [`MAX_THREADS`] threads, which its constructor checks once.
//!
//! All operations are `SeqCst`, like every other piece of NZTM
//! metadata: the reader-registration / owner-examination Dekker protocol
//! (reader: publish bit → load owner; writer: CAS owner → load bitmap)
//! relies on a single total order of metadata operations.

use std::sync::atomic::{AtomicU64, Ordering};

/// Most threads one TM system can host: one reader bit each.
pub const MAX_THREADS: usize = 64;

/// Panic unless a system over `n` threads fits the reader bitmap.
/// Every TM constructor calls this once, before any object exists.
pub fn assert_thread_limit(n: usize) {
    assert!(
        n <= MAX_THREADS,
        "a TM system supports at most {MAX_THREADS} threads (one reader bit each); \
         this platform has {n}"
    );
}

/// A visible-reader set: the bitmap word and the synthetic address the
/// simulator's cache model charges for it.
///
/// Two words. The synthetic address is the owning header's metadata
/// line, which is also the object's synthetic base address.
pub struct ReaderIndicator {
    /// Bit `tid` set ⇔ thread `tid` is a registered reader.
    bits: AtomicU64,
    home_addr: usize,
}

impl ReaderIndicator {
    /// An empty indicator charged at `home_addr`.
    pub fn new(home_addr: usize) -> ReaderIndicator {
        ReaderIndicator { bits: AtomicU64::new(0), home_addr }
    }

    /// Synthetic address of the bitmap word.
    #[inline]
    pub fn addr(&self) -> usize {
        self.home_addr
    }

    #[inline]
    fn bit(tid: usize) -> u64 {
        assert!(tid < MAX_THREADS, "tid {tid} exceeds the {MAX_THREADS}-thread reader bitmap");
        1u64 << tid
    }

    /// Register `tid` as a reader.
    ///
    /// Ordering: the registration `fetch_or` precedes the caller's
    /// subsequent owner load in the `SeqCst` total order, which is the
    /// reader half of the Dekker protocol.
    #[inline]
    pub fn add(&self, tid: usize) {
        self.bits.fetch_or(Self::bit(tid), Ordering::SeqCst);
    }

    /// Deregister `tid`. Returns `true` when the registration was intact
    /// at removal (`tid`'s bit was still set). The sanitizer turns a
    /// `false` into a protocol violation: nothing in the protocol may
    /// clear another thread's reader bit.
    #[inline]
    pub fn remove(&self, tid: usize) -> bool {
        let bit = Self::bit(tid);
        self.bits.fetch_and(!bit, Ordering::SeqCst) & bit != 0
    }

    /// True when a reader other than `self_tid` is registered (the
    /// hybrid's hardware-writer check): one load.
    pub fn has_reader_other_than(&self, self_tid: usize) -> bool {
        self.others(self_tid) != 0
    }

    /// The registered readers other than `skip_tid`, in tid order.
    ///
    /// The enumeration is a snapshot of one load: a reader registering
    /// concurrently either makes it into the loaded word or will observe
    /// the writer's prior owner CAS and revalidate out (the Dekker
    /// argument).
    pub fn readers_other_than(&self, skip_tid: usize) -> impl Iterator<Item = usize> {
        let mut mask = self.others(skip_tid);
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let t = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                t
            })
        })
    }

    fn others(&self, skip_tid: usize) -> u64 {
        self.bits.load(Ordering::SeqCst) & !(1u64 << skip_tid)
    }
}

impl std::fmt::Debug for ReaderIndicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReaderIndicator")
            .field("bits", &format_args!("{:#x}", self.bits.load(Ordering::SeqCst)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn readers_of(r: &ReaderIndicator, skip: usize) -> Vec<usize> {
        r.readers_other_than(skip).collect()
    }

    #[test]
    fn flat_mode_matches_the_seed_bitmap() {
        let r = ReaderIndicator::new(0x1000);
        assert_eq!(r.addr(), 0x1000, "registrations charge the home line");
        r.add(3);
        r.add(5);
        assert_eq!(r.bits.load(Ordering::SeqCst), 1 << 3 | 1 << 5, "one bit per tid");
        assert_eq!(readers_of(&r, 3), vec![5]);
        assert_eq!(readers_of(&r, 4), vec![3, 5]);
        assert!(r.remove(3), "bit was set");
        assert!(!r.remove(3), "double-remove reports a lost registration");
        assert_eq!(readers_of(&r, 63), vec![5]);
        r.add(63);
        assert_eq!(readers_of(&r, 0), vec![5, 63], "tid 63 takes the top bit");
    }

    #[test]
    fn empty_summary_short_circuits_writers() {
        let r = ReaderIndicator::new(0);
        assert_eq!(readers_of(&r, 0), Vec::<usize>::new());
        assert!(!r.has_reader_other_than(0));
        r.add(7);
        assert!(!r.has_reader_other_than(7), "a thread's own bit is not another reader");
        assert!(r.has_reader_other_than(0));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-thread reader bitmap")]
    fn tid_past_the_bitmap_is_rejected() {
        ReaderIndicator::new(0).add(MAX_THREADS);
    }

    #[test]
    fn indicator_is_two_words() {
        // The bitmap and its synthetic home address; the object header
        // embeds exactly this.
        assert_eq!(std::mem::size_of::<ReaderIndicator>(), 16);
    }

    #[test]
    fn concurrent_add_remove_never_loses_registrations() {
        let r = Arc::new(ReaderIndicator::new(0));
        let handles: Vec<_> = (0..MAX_THREADS)
            .map(|tid| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        r.add(tid);
                        assert!(r.has_reader_other_than(tid ^ 1), "tid {tid} is registered");
                        assert!(r.remove(tid), "tid {tid}: registration must be intact");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.bits.load(Ordering::SeqCst), 0);
    }
}
