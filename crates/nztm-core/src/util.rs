//! Small concurrency utilities shared by the STM engines.

use std::cell::UnsafeCell;

/// Pads and aligns a value to 128 bytes (two 64-byte lines: adjacent-line
/// prefetchers pull pairs) so neighbouring slots never false-share.
#[repr(align(128))]
#[derive(Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Per-core mutable slots.
///
/// Each participating thread owns exactly one slot, indexed by its
/// platform core id, so mutable access without synchronization is sound as
/// long as the caller upholds the contract: **a slot is only ever accessed
/// from the thread whose core id it belongs to.** The accessor is `unsafe`
/// to make that contract explicit at every use site; all call sites in
/// this workspace derive the index from `Platform::core_id()` of the
/// calling thread.
///
/// Slots are cache-padded so per-thread counters never false-share.
pub struct PerCore<T> {
    slots: Vec<CachePadded<UnsafeCell<T>>>,
}

unsafe impl<T: Send> Sync for PerCore<T> {}
unsafe impl<T: Send> Send for PerCore<T> {}

impl<T> PerCore<T> {
    pub fn new(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        PerCore { slots: (0..n).map(|i| CachePadded::new(UnsafeCell::new(init(i)))).collect() }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutable access to slot `id`.
    ///
    /// # Safety
    /// The caller must guarantee `id` is the calling thread's own core id
    /// (or that no other thread can access slot `id` concurrently).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, id: usize) -> &mut T {
        &mut *self.slots[id].get()
    }

    /// Iterate all slots. Only sound when no thread is mutating any slot
    /// (e.g. after a run completes); hence `&mut self`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|c| c.get_mut())
    }
}

/// Exponential randomized backoff used between transaction retries.
///
/// The paper's contention managers separate *policy* (who aborts) from
/// *mechanism*; backoff is the mechanism that breaks symmetric retry races
/// in an obstruction-free system.
///
/// The exponent is capped at [`Backoff::CAP_EXP`] (2^12 steps): without a
/// tight cap, a long abort storm on one hot object inflates the window so
/// far that later retries — possibly against completely unrelated, idle
/// objects — stall for tens of thousands of spin steps. The draw is also
/// re-seeded from fresh caller entropy on *every attempt* and whitened
/// through an internal splitmix state, so two threads that happen to feed
/// similar raw randoms don't lock into a correlated (symmetric) retry
/// rhythm.
#[derive(Clone, Debug)]
pub struct Backoff {
    attempt: u32,
    cap: u32,
    /// Whitening state, re-seeded by each `steps` call's entropy.
    state: u64,
}

impl Backoff {
    /// Default window exponent cap: windows never exceed 2^12 = 4096
    /// steps unless a policy widens the cap via [`Backoff::set_cap`].
    pub const CAP_EXP: u32 = 12;

    /// Hard ceiling on [`Backoff::set_cap`]: no policy, however
    /// adaptive, may widen windows past 2^16 = 65536 steps. This is
    /// mechanism, not policy — it bounds how long any retry can stall,
    /// independent of what the contention manager recommends.
    pub const MAX_CAP_EXP: u32 = 16;

    pub fn new() -> Self {
        Backoff { attempt: 0, cap: Self::CAP_EXP, state: 0x9E37_79B9_7F4A_7C15 }
    }

    /// Restart the window schedule (next draw sees attempt 0).
    ///
    /// **Contract (pinned by the `properties` suite):** call on
    /// *commit*, never between successive aborts of the same
    /// transaction — the window must keep widening across an abort
    /// streak or backoff does nothing to break symmetric retry races.
    /// The cap set by [`Backoff::set_cap`] survives a reset; it tracks
    /// the thread's environment, not one transaction's history.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Set the window exponent cap, clamped to [`Backoff::MAX_CAP_EXP`].
    /// Takes effect on the next [`Backoff::steps`] draw.
    pub fn set_cap(&mut self, cap_exp: u32) {
        self.cap = cap_exp.min(Self::MAX_CAP_EXP);
    }

    /// The window exponent cap currently in effect.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Number of spin-wait steps to take before the next retry, given a
    /// fresh random word for this attempt. Window grows 2^attempt up to
    /// the cap; the draw mixes the per-attempt entropy into the internal
    /// state (splitmix64 finalizer) before reducing.
    pub fn steps(&mut self, random: u64) -> u64 {
        let exp = self.attempt.min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // Re-seed per attempt: fold the caller's entropy in, then whiten.
        self.state = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ random;
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let window = 1u64 << exp;
        z % window
    }

    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// A vector with `N` inline slots and heap spill.
///
/// Transactional read/write sets are almost always tiny (the paper's
/// workloads touch a handful of objects per transaction); keeping the
/// first `N` entries inline means the steady-state fast path never grows
/// a heap `Vec` and the entries share the context's cache lines. `clear`
/// keeps spill capacity, so even spilled sets stop allocating after
/// warmup.
pub struct InlineVec<T, const N: usize> {
    inline: [std::mem::MaybeUninit<T>; N],
    /// Number of initialized inline slots (≤ N).
    inline_len: usize,
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    pub fn new() -> Self {
        InlineVec {
            // Safety: an array of MaybeUninit needs no initialization.
            inline: unsafe { std::mem::MaybeUninit::uninit().assume_init() },
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn push(&mut self, value: T) {
        if self.inline_len < N {
            self.inline[self.inline_len].write(value);
            self.inline_len += 1;
        } else {
            self.spill.push(value);
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if let Some(v) = self.spill.pop() {
            return Some(v);
        }
        if self.inline_len == 0 {
            return None;
        }
        self.inline_len -= 1;
        // Safety: slot `inline_len` was initialized by `push` and is now
        // marked dead, so reading it out moves ownership exactly once.
        Some(unsafe { self.inline[self.inline_len].assume_init_read() })
    }

    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.inline_len {
            // Safety: slots < inline_len are initialized.
            Some(unsafe { self.inline[i].assume_init_ref() })
        } else {
            self.spill.get(i - self.inline_len)
        }
    }

    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i < self.inline_len {
            // Safety: slots < inline_len are initialized.
            Some(unsafe { self.inline[i].assume_init_mut() })
        } else {
            self.spill.get_mut(i - self.inline_len)
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        // Safety: slots < inline_len are initialized.
        self.inline[..self.inline_len]
            .iter()
            .map(|s| unsafe { s.assume_init_ref() })
            .chain(self.spill.iter())
    }

    /// Drop all elements; spill capacity is retained.
    pub fn clear(&mut self) {
        while self.inline_len > 0 {
            self.inline_len -= 1;
            // Safety: slot was initialized; drop it in place exactly once.
            unsafe { self.inline[self.inline_len].assume_init_drop() };
        }
        self.spill.clear();
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Open-addressed `key → u32 slot` index with O(1) generation-based clear.
///
/// Maps an object header address to its position in the read/write set,
/// replacing the former O(set size) linear scans on every re-read,
/// read-after-write, and duplicate-acquire check. Entries are stamped
/// with a generation; `clear` just bumps the generation, so resetting
/// between attempts costs one increment, not a table wipe. Linear
/// probing, load kept ≤ 1/2, capacity a power of two.
pub struct SlotIndex {
    keys: Vec<u64>,
    vals: Vec<u32>,
    gens: Vec<u32>,
    gen: u32,
    mask: usize,
    len: usize,
}

impl SlotIndex {
    pub fn new() -> Self {
        Self::with_capacity_pow2(32)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        SlotIndex {
            keys: vec![0; cap],
            vals: vec![0; cap],
            gens: vec![0; cap],
            gen: 1,
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn hash(key: u64) -> u64 {
        // splitmix64 finalizer: headers are heap blocks, so the low
        // bits of the raw address carry no entropy.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// O(1) logical clear: live entries are those stamped with the
    /// current generation, so bumping it kills them all. On wrap, do one
    /// real wipe to avoid resurrecting entries from 2^32 clears ago.
    pub fn clear(&mut self) {
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.gens.iter_mut().for_each(|g| *g = 0);
            self.gen = 1;
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut i = Self::hash(key) as usize & self.mask;
        loop {
            if self.gens[i] != self.gen {
                return None;
            }
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `key → val`. Keys are unique per generation (the engine
    /// checks `get` first); inserting an existing key updates it.
    pub fn insert(&mut self, key: u64, val: u32) {
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = Self::hash(key) as usize & self.mask;
        loop {
            if self.gens[i] != self.gen {
                self.keys[i] = key;
                self.vals[i] = val;
                self.gens[i] = self.gen;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = Self::with_capacity_pow2(self.keys.len() * 2);
        for i in 0..self.keys.len() {
            if self.gens[i] == self.gen {
                bigger.insert(self.keys[i], self.vals[i]);
            }
        }
        bigger.gen = 1;
        *self = bigger;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for SlotIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percore_slots_are_independent() {
        let pc = PerCore::new(4, |i| i * 10);
        unsafe {
            *pc.get(2) += 1;
            assert_eq!(*pc.get(0), 0);
            assert_eq!(*pc.get(2), 21);
        }
    }

    #[test]
    fn percore_iter_mut_visits_all() {
        let mut pc = PerCore::new(3, |i| i);
        let sum: usize = pc.iter_mut().map(|v| *v).sum();
        assert_eq!(sum, 3);
    }

    #[test]
    fn backoff_windows_grow() {
        let mut b = Backoff::new();
        // Draws are random *within* the window, so assert the bound, not
        // ordering: attempt k draws from [0, 2^min(k, CAP)).
        for k in 0..20u32 {
            let s = b.steps(0xDEAD_BEEF ^ u64::from(k));
            assert!(s < (1u64 << k.min(Backoff::CAP_EXP)), "attempt {k}: {s}");
        }
        assert_eq!(b.attempt(), 20);
    }

    #[test]
    fn backoff_first_window_is_one() {
        assert_eq!(Backoff::new().steps(u64::MAX), 0);
    }

    #[test]
    fn backoff_reset_restarts() {
        let mut b = Backoff::new();
        for _ in 0..10 {
            b.steps(7);
        }
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert_eq!(b.steps(u64::MAX), 0, "window is back to 1 after reset");
    }

    #[test]
    fn backoff_is_capped() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            assert!(b.steps(u64::MAX) < (1 << Backoff::CAP_EXP));
        }
    }

    #[test]
    fn inline_vec_spills_and_preserves_order() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        let collected: Vec<u64> = v.iter().copied().collect();
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
        assert_eq!(v.get(3), Some(&3));
        assert_eq!(v.get(7), Some(&7));
        assert_eq!(v.get(10), None);
        *v.get_mut(2).unwrap() = 99;
        assert_eq!(v.get(2), Some(&99));
        // pop drains spill first, then inline.
        assert_eq!(v.pop(), Some(9));
        let mut rest = Vec::new();
        while let Some(x) = v.pop() {
            rest.push(x);
        }
        assert_eq!(rest, vec![8, 7, 6, 5, 4, 3, 99, 1, 0]);
    }

    #[test]
    fn inline_vec_clear_drops_inline_elements() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut v: InlineVec<Rc<()>, 2> = InlineVec::new();
        for _ in 0..5 {
            v.push(Rc::clone(&token));
        }
        assert_eq!(Rc::strong_count(&token), 6);
        v.clear();
        assert_eq!(Rc::strong_count(&token), 1);
        // Reusable after clear.
        v.push(Rc::clone(&token));
        drop(v);
        assert_eq!(Rc::strong_count(&token), 1, "Drop impl releases elements");
    }

    #[test]
    fn slot_index_maps_and_clears_in_o1() {
        let mut idx = SlotIndex::new();
        assert_eq!(idx.get(0x40), None);
        idx.insert(0x40, 0);
        idx.insert(0x80, 1);
        assert_eq!(idx.get(0x40), Some(0));
        assert_eq!(idx.get(0x80), Some(1));
        assert_eq!(idx.get(0xC0), None);
        idx.clear();
        assert_eq!(idx.get(0x40), None, "generation bump kills old entries");
        idx.insert(0x40, 7);
        assert_eq!(idx.get(0x40), Some(7));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn slot_index_grows_past_initial_capacity() {
        let mut idx = SlotIndex::new();
        // 64-byte-aligned keys, as header addresses are.
        for i in 0..200u64 {
            idx.insert(0x1000 + i * 64, i as u32);
        }
        for i in 0..200u64 {
            assert_eq!(idx.get(0x1000 + i * 64), Some(i as u32), "key {i}");
        }
        assert_eq!(idx.len(), 200);
    }

    #[test]
    fn slot_index_generation_wrap_survives() {
        let mut idx = SlotIndex::new();
        idx.insert(0x40, 5);
        for _ in 0..70_000 {
            idx.clear(); // not enough to wrap u32, but exercises the path
        }
        assert_eq!(idx.get(0x40), None);
        idx.insert(0x40, 6);
        assert_eq!(idx.get(0x40), Some(6));
    }

    #[test]
    fn backoff_reseeds_per_attempt() {
        // Same attempt index, same raw entropy, different internal state ⇒
        // two storms don't produce identical wait sequences.
        let mut a = Backoff::new();
        let mut b = Backoff::new();
        for _ in 0..5 {
            a.steps(1);
        }
        a.reset();
        let sa: Vec<u64> = (0..16).map(|_| a.steps(42)).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.steps(42)).collect();
        assert_ne!(sa, sb, "history must decorrelate equal-entropy storms");
    }
}
