//! Scalable visible-reader indicators.
//!
//! The paper's read-sharing design (§2.5) makes readers *visible*: a
//! reader publishes itself on the object before trusting any value, so a
//! writer can enumerate readers and request their aborts. The seed
//! implementation realized that as a single per-object `AtomicU64`
//! bitmap — one bit per thread — which hard-caps the system at 64
//! threads and funnels every first-read through one contended cache
//! line.
//!
//! [`ReaderIndicator`] removes both limits with an SNZI-flavored striped
//! layout while keeping the ≤64-thread configuration *bit-exact* with
//! the original word:
//!
//! * **Flat mode** (capacity ≤ 64): one `AtomicU64` in the object
//!   header's metadata line. The summary word *is* the bitmap; `add` /
//!   `remove` are the same single `fetch_or` / `fetch_and` the seed
//!   performed, at the same synthetic address, so the simulator's cache
//!   traffic — and therefore every committed benchmark baseline — is
//!   unchanged by construction.
//! * **Striped mode** (capacity > 64): a boxed array of cache-padded
//!   reader words. Thread `tid` lives in stripe `tid & (S - 1)` at bit
//!   `tid >> log2(S)` (`S` a power of two), so consecutive thread ids
//!   land on *different* cache lines and first-reads no longer collide.
//!   A **summary word** in the header keeps the writer fast path cheap:
//!   bit `s` set means "stripe `s` may hold readers", so a writer of an
//!   unread object still decides with one load.
//!
//! ## Why the summary bits are sticky
//!
//! Summary bits are **monotonic**: a reader sets its stripe's summary
//! bit (if not already set) but *nothing ever clears it*. The only
//! correctness obligation on the summary is that a writer must never
//! miss a registered reader; a stale `1` merely costs the writer one
//! extra stripe load that finds zero. Clearing schemes were considered
//! and rejected: any remover- or writer-driven clear needs a
//! clear→recheck→re-set dance that loses a concurrently arriving reader
//! when the clearing thread stalls between steps (and NZTM explicitly
//! allows threads to stall anywhere — ownership can even be stolen past
//! them via inflation). Monotonicity makes the summary race-free by
//! construction; see `docs/PROTOCOL.md` ("Visible reads") for the full
//! ordering argument.
//!
//! All operations are `SeqCst`, like every other piece of NZTM
//! metadata: the reader-registration / owner-examination Dekker protocol
//! (reader: publish bit → load owner; writer: CAS owner → enumerate
//! readers) relies on a single total order of metadata operations.

use crate::util::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity of the flat (single-word) representation.
pub const FLAT_CAPACITY: usize = 64;

/// A visible-reader set supporting an arbitrary, fixed thread capacity.
///
/// See the module docs for the two representations. The indicator knows
/// its own synthetic addresses (for the simulator's cache model): the
/// summary word lives at `home_addr` — inside the owning header's
/// metadata line — and each stripe occupies its own synthetic line.
///
/// Three words: the summary, the striped-mode pointer (null in flat
/// mode) and `home_addr`. Everything only striped mode needs sits behind
/// the pointer, so the flat indicator every object header embeds is the
/// seed's bitmap word plus two.
pub struct ReaderIndicator {
    /// Flat mode: the reader bitmap itself. Striped mode: sticky
    /// stripe-presence bits (bit `s` ⇒ stripe `s` may hold readers).
    summary: AtomicU64,
    /// `None` in flat mode.
    striped: Option<Box<Stripes>>,
    /// Synthetic address of the summary word: the owning header's
    /// metadata line, which is also the object's synthetic base address.
    home_addr: usize,
}

/// The striped-mode half of a [`ReaderIndicator`]. Boxed once at
/// construction and never moved or resized, so a tid's stripe word and
/// synthetic line are fixed for the indicator's lifetime.
struct Stripes {
    /// One padded word per stripe; the length is a power of two.
    words: Box<[CachePadded<AtomicU64>]>,
    /// `log2(words.len())`.
    shift: u32,
    /// Synthetic base address of the stripe array (one line per stripe).
    addr: usize,
}

impl Stripes {
    #[inline]
    fn capacity(&self) -> usize {
        self.words.len() * FLAT_CAPACITY
    }

    /// `(stripe, bit)` of `tid`.
    #[inline]
    fn split(&self, tid: usize) -> (usize, u64) {
        // Hard assert: silently aliasing an out-of-capacity tid onto
        // another thread's bit would make removal unsound.
        assert!(tid < self.capacity(), "tid {tid} exceeds reader capacity {}", self.capacity());
        (tid & (self.words.len() - 1), 1u64 << (tid >> self.shift))
    }

    /// Inverse of [`Stripes::split`]: the tid registered at stripe `s`,
    /// bit position `slot`.
    #[inline]
    fn unsplit(&self, s: usize, slot: usize) -> usize {
        (slot << self.shift) | s
    }

    #[inline]
    fn line_addr(&self, s: usize) -> usize {
        self.addr + s * 64
    }
}

impl ReaderIndicator {
    /// Build an indicator able to register tids `0..capacity`.
    ///
    /// `home_addr` is the synthetic address charged for summary-word
    /// traffic (callers pass the owning header's address so flat mode
    /// charges exactly what the seed's inline bitmap did). Capacities
    /// ≤ 64 use the flat representation; larger capacities round the
    /// stripe count up to the next power of two and take fresh synthetic
    /// lines for the stripe array.
    pub fn new(capacity: usize, home_addr: usize) -> ReaderIndicator {
        let capacity = capacity.max(1);
        if capacity <= FLAT_CAPACITY {
            return ReaderIndicator { summary: AtomicU64::new(0), striped: None, home_addr };
        }
        let n_stripes = capacity.div_ceil(FLAT_CAPACITY).next_power_of_two().min(64);
        let addr = nztm_sim::synth_alloc_as(n_stripes * 64, nztm_sim::StructClass::ReaderStripes);
        ReaderIndicator {
            summary: AtomicU64::new(0),
            striped: Some(Box::new(Stripes {
                words: (0..n_stripes).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
                shift: n_stripes.trailing_zeros(),
                addr,
            })),
            home_addr,
        }
    }

    /// Registered-thread capacity (a multiple of 64).
    pub fn capacity(&self) -> usize {
        self.striped.as_ref().map_or(FLAT_CAPACITY, |st| st.capacity())
    }

    /// True when the wide (striped) representation is in use.
    pub fn is_striped(&self) -> bool {
        self.striped.is_some()
    }

    /// Number of stripes (0 in flat mode).
    pub fn n_stripes(&self) -> usize {
        self.striped.as_ref().map_or(0, |st| st.words.len())
    }

    /// Synthetic address of the word `tid`'s registration RMWs touch:
    /// the summary/home line in flat mode, the thread's stripe line
    /// otherwise.
    #[inline]
    pub fn word_addr(&self, tid: usize) -> usize {
        match &self.striped {
            None => self.home_addr,
            Some(st) => st.line_addr(st.split(tid).0),
        }
    }

    /// Synthetic address of the summary word.
    #[inline]
    pub fn summary_addr(&self) -> usize {
        self.home_addr
    }

    /// Synthetic address of stripe `s` (striped mode only).
    pub fn stripe_addr(&self, s: usize) -> usize {
        let st = self.striped.as_ref().expect("stripe_addr on a flat reader indicator");
        debug_assert!(s < st.words.len());
        st.line_addr(s)
    }

    /// Register `tid` as a reader. Returns `true` when the (striped)
    /// summary word was also updated — callers charging a cost model
    /// charge one extra RMW on [`Self::summary_addr`] in that case.
    ///
    /// Ordering: the registration `fetch_or` and the summary `fetch_or`
    /// both precede the caller's subsequent owner load in the `SeqCst`
    /// total order, which is the reader half of the Dekker protocol.
    #[inline]
    pub fn add(&self, tid: usize) -> bool {
        let Some(st) = &self.striped else {
            assert!(tid < FLAT_CAPACITY, "tid {tid} needs a striped reader indicator");
            self.summary.fetch_or(1u64 << tid, Ordering::SeqCst);
            return false;
        };
        let (stripe, bit) = st.split(tid);
        st.words[stripe].fetch_or(bit, Ordering::SeqCst);
        let sbit = 1u64 << stripe;
        if self.summary.load(Ordering::SeqCst) & sbit == 0 {
            self.summary.fetch_or(sbit, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Deregister `tid`. Returns `true` when the registration was intact
    /// at removal: `tid`'s bit was still set and (striped mode) its
    /// stripe's sticky summary bit was still present. The sanitizer
    /// turns a `false` into a protocol violation — nothing in the
    /// protocol may clear another thread's reader bit, and summary bits
    /// are never cleared at all.
    #[inline]
    pub fn remove(&self, tid: usize) -> bool {
        let Some(st) = &self.striped else {
            assert!(tid < FLAT_CAPACITY, "tid {tid} needs a striped reader indicator");
            let bit = 1u64 << tid;
            return self.summary.fetch_and(!bit, Ordering::SeqCst) & bit != 0;
        };
        let (stripe, bit) = st.split(tid);
        let was_set = st.words[stripe].fetch_and(!bit, Ordering::SeqCst) & bit != 0;
        was_set && self.summary.load(Ordering::SeqCst) & (1u64 << stripe) != 0
    }

    /// True if `tid` is currently registered.
    pub fn is_reader(&self, tid: usize) -> bool {
        match &self.striped {
            None => tid < FLAT_CAPACITY && self.summary.load(Ordering::SeqCst) & (1u64 << tid) != 0,
            Some(st) => {
                let (stripe, bit) = st.split(tid);
                st.words[stripe].load(Ordering::SeqCst) & bit != 0
            }
        }
    }

    /// Number of currently registered readers.
    pub fn reader_count(&self) -> usize {
        match &self.striped {
            None => self.summary.load(Ordering::SeqCst).count_ones() as usize,
            Some(st) => st.words.iter().map(|w| w.load(Ordering::SeqCst).count_ones() as usize).sum(),
        }
    }

    /// True when no reader other than `self_tid` is registered.
    ///
    /// Writer fast path (used by the hybrid's hardware writers): one
    /// summary load answers "no readers at all"; only summary-flagged
    /// stripes are scanned otherwise.
    pub fn has_reader_other_than(&self, self_tid: usize) -> bool {
        let summary = self.summary.load(Ordering::SeqCst);
        let Some(st) = &self.striped else {
            return summary & !(1u64 << self_tid) != 0;
        };
        if summary == 0 {
            return false;
        }
        let (own_stripe, own_bit) = st.split(self_tid);
        let mut rest = summary;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let mut word = st.words[s].load(Ordering::SeqCst);
            if s == own_stripe {
                word &= !own_bit;
            }
            if word != 0 {
                return true;
            }
        }
        false
    }

    /// Enumerate registered readers other than `skip_tid`, scanning only
    /// summary-flagged stripes.
    ///
    /// The visitor receives a [`ReaderVisit::Stripe`] once per scanned
    /// stripe *before* that stripe's readers — the engine charges the
    /// stripe's cache line and records per-stripe contention attribution
    /// there — then a [`ReaderVisit::Reader`] per registered thread. In
    /// flat mode no stripe visit fires (the caller already charged the
    /// home line for the summary load, which is the whole bitmap).
    ///
    /// The scan is a snapshot per word, exactly like the seed's single
    /// `readers()` load: a reader registering concurrently with the scan
    /// either makes it into the loaded word or will observe the writer's
    /// prior owner CAS and revalidate out (the Dekker argument).
    pub fn visit_readers(&self, skip_tid: usize, mut visit: impl FnMut(ReaderVisit)) {
        let summary = self.summary.load(Ordering::SeqCst);
        let Some(st) = &self.striped else {
            let mut mask = summary & !(1u64 << skip_tid);
            while mask != 0 {
                let t = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                visit(ReaderVisit::Reader { tid: t });
            }
            return;
        };
        let mut rest = summary;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            visit(ReaderVisit::Stripe { index: s, addr: st.line_addr(s) });
            let mut word = st.words[s].load(Ordering::SeqCst);
            while word != 0 {
                let slot = word.trailing_zeros() as usize;
                word &= word - 1;
                let tid = st.unsplit(s, slot);
                if tid != skip_tid {
                    visit(ReaderVisit::Reader { tid });
                }
            }
        }
    }
}

/// One step of a [`ReaderIndicator::visit_readers`] scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderVisit {
    /// A summary-flagged stripe is about to be scanned; `addr` is its
    /// synthetic cache line (cost charging / contention attribution).
    Stripe { index: usize, addr: usize },
    /// A registered reader.
    Reader { tid: usize },
}

impl std::fmt::Debug for ReaderIndicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReaderIndicator")
            .field("capacity", &self.capacity())
            .field("stripes", &self.n_stripes())
            .field("summary", &self.summary.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn readers_of(r: &ReaderIndicator, skip: usize) -> Vec<usize> {
        let mut v = Vec::new();
        r.visit_readers(skip, |step| {
            if let ReaderVisit::Reader { tid } = step {
                v.push(tid);
            }
        });
        v.sort_unstable();
        v
    }

    #[test]
    fn flat_mode_matches_the_seed_bitmap() {
        let r = ReaderIndicator::new(8, 0x1000);
        assert!(!r.is_striped());
        assert_eq!(r.capacity(), 64);
        assert_eq!(r.word_addr(17), 0x1000, "flat registrations hit the home line");
        assert!(!r.add(3));
        assert!(!r.add(5));
        assert!(r.is_reader(3) && r.is_reader(5) && !r.is_reader(4));
        assert_eq!(r.reader_count(), 2);
        assert_eq!(readers_of(&r, 3), vec![5]);
        assert!(r.remove(3), "bit was set");
        assert!(!r.remove(3), "double-remove reports a lost registration");
        assert_eq!(readers_of(&r, usize::MAX & 63), vec![5]);
    }

    #[test]
    fn striped_mode_spreads_consecutive_tids() {
        let r = ReaderIndicator::new(128, 0x2000);
        assert!(r.is_striped());
        assert_eq!(r.n_stripes(), 2);
        assert_eq!(r.capacity(), 128);
        assert_ne!(r.word_addr(0), r.word_addr(1), "adjacent tids take different lines");
        assert_eq!(r.word_addr(0), r.word_addr(2), "stripe = tid mod S");
        assert_ne!(r.word_addr(0), r.summary_addr());
    }

    #[test]
    fn striped_add_remove_and_enumeration() {
        let r = ReaderIndicator::new(100, 0);
        for tid in [0usize, 1, 63, 64, 65, 99, 127] {
            assert!(!r.is_reader(tid));
            r.add(tid);
            assert!(r.is_reader(tid), "tid {tid}");
        }
        assert_eq!(r.reader_count(), 7);
        assert_eq!(readers_of(&r, 65), vec![0, 1, 63, 64, 99, 127]);
        assert!(r.has_reader_other_than(0));
        for tid in [0usize, 1, 63, 64, 99, 127] {
            assert!(r.remove(tid), "tid {tid} was registered with summary intact");
        }
        assert_eq!(readers_of(&r, usize::MAX >> 1 & 127), vec![65]);
        assert!(!r.has_reader_other_than(65));
        assert!(r.has_reader_other_than(64));
    }

    #[test]
    fn summary_bits_are_sticky_and_first_add_reports_them() {
        let r = ReaderIndicator::new(256, 0);
        assert!(r.add(5), "first reader of a stripe updates the summary");
        assert!(!r.add(5 + r.n_stripes()), "same stripe: summary already set");
        assert!(r.remove(5));
        assert!(!r.add(5), "summary bit is sticky: re-add after a drain never re-reports");
        // …and the sticky bit keeps the stripe visible to writers.
        let mut visited = Vec::new();
        r.visit_readers(usize::MAX & 63, |step| {
            if let ReaderVisit::Reader { tid } = step {
                visited.push(tid);
            }
        });
        assert_eq!(visited, vec![5, 9], "tid 5 re-added, tid 9 (= 5 + n_stripes) never left");
    }

    #[test]
    fn empty_summary_short_circuits_writers() {
        let r = ReaderIndicator::new(512, 0);
        let mut scanned = 0usize;
        r.visit_readers(0, |step| match step {
            ReaderVisit::Stripe { .. } => scanned += 1,
            ReaderVisit::Reader { .. } => panic!("no readers"),
        });
        assert_eq!(scanned, 0, "no summary bits ⇒ no stripe loads");
        assert!(!r.has_reader_other_than(0));
    }

    #[test]
    fn stripe_hook_reports_each_scanned_stripe_once() {
        let r = ReaderIndicator::new(128, 0);
        r.add(0);
        r.add(2); // same stripe as 0
        r.add(1); // other stripe
        let mut stripes = Vec::new();
        let mut readers = Vec::new();
        r.visit_readers(2, |step| match step {
            ReaderVisit::Stripe { index, addr } => stripes.push((index, addr)),
            ReaderVisit::Reader { tid } => readers.push(tid),
        });
        readers.sort_unstable();
        assert_eq!(readers, vec![0, 1]);
        assert_eq!(stripes.len(), 2);
        assert_eq!(stripes[0].1, r.stripe_addr(stripes[0].0));
    }

    #[test]
    fn indicator_is_three_words() {
        // Summary, striped-mode pointer (null niche: `None` is one null
        // word), home address. Everything striped mode needs is boxed,
        // so the indicator every object header embeds stays this size.
        assert!(std::mem::size_of::<ReaderIndicator>() <= 24);
        let flat = ReaderIndicator::new(64, 0x40);
        assert_eq!((flat.summary_addr(), flat.n_stripes()), (0x40, 0));
    }

    #[test]
    fn capacity_rounds_to_power_of_two_stripes() {
        let r = ReaderIndicator::new(65, 0);
        assert_eq!(r.n_stripes(), 2);
        let r = ReaderIndicator::new(200, 0);
        assert_eq!(r.n_stripes(), 4);
        assert_eq!(r.capacity(), 256);
        let r = ReaderIndicator::new(64 * 64 + 1, 0);
        assert_eq!(r.n_stripes(), 64, "stripe count is capped at 64 summary bits");
    }

    #[test]
    fn concurrent_add_remove_never_loses_registrations() {
        let r = Arc::new(ReaderIndicator::new(128, 0));
        let mut handles = Vec::new();
        for tid in 0..128usize {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    r.add(tid);
                    assert!(r.is_reader(tid));
                    assert!(r.remove(tid), "tid {tid}: registration must be intact");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.reader_count(), 0);
    }
}
