//! Transactional ordered map: a skiplist with deterministic tower
//! heights.
//!
//! A node's height is a pure function of its key (p = 1/4 geometric,
//! derived from the SplitMix64 spread of the key), so the structure is
//! identical regardless of insertion order, schedule, or backend — which
//! is what makes cross-backend differential testing of ordered state
//! exact, and removes the shared RNG a classic skiplist would contend
//! on. An operation's footprint is its search path plus the towers it
//! relinks: operations on well-separated keys touch disjoint objects.
//!
//! Removed nodes are recycled through 16 free lists, each headed by a
//! sentinel node's `next0` and chosen by the key's spread, so a key's
//! node always returns to the same list. The head is not a free
//! list: every search reads it, and a remove writing it would conflict
//! with all of them.

use nztm_core::adt::{AdtOpDesc, AdtOpKind};
use nztm_core::txn::{Abort, AbortCause};
use nztm_core::{tm_data_struct, Handle, ObjPool, TmSys};

/// Tower levels. With p = 1/4, six levels leave about four of 4 096
/// keys on the top level, so a search over a few thousand live entries
/// is not dominated by a long walk along it.
pub const MAX_LEVEL: usize = 6;

/// Free lists of removed nodes, each headed by its own sentinel node.
const FREE_LISTS: usize = 16;

/// One skiplist node: key, value, and one forward link per level.
/// (Separate fields rather than an array: `tm_data_struct!` fields each
/// encode as one word.) A free node has key and value 0 and links to the
/// next free node through `next0`.
#[derive(Clone, Debug, PartialEq)]
pub struct SkipNode {
    pub key: u64,
    pub val: u64,
    pub next0: Option<Handle<SkipNode>>,
    pub next1: Option<Handle<SkipNode>>,
    pub next2: Option<Handle<SkipNode>>,
    pub next3: Option<Handle<SkipNode>>,
    pub next4: Option<Handle<SkipNode>>,
    pub next5: Option<Handle<SkipNode>>,
}
tm_data_struct!(SkipNode {
    key: u64,
    val: u64,
    next0: Option<Handle<SkipNode>>,
    next1: Option<Handle<SkipNode>>,
    next2: Option<Handle<SkipNode>>,
    next3: Option<Handle<SkipNode>>,
    next4: Option<Handle<SkipNode>>,
    next5: Option<Handle<SkipNode>>,
});

impl SkipNode {
    /// A node with no links.
    fn unlinked(key: u64, val: u64) -> Self {
        SkipNode {
            key,
            val,
            next0: None,
            next1: None,
            next2: None,
            next3: None,
            next4: None,
            next5: None,
        }
    }

    fn next(&self, level: usize) -> Option<Handle<SkipNode>> {
        match level {
            0 => self.next0,
            1 => self.next1,
            2 => self.next2,
            3 => self.next3,
            4 => self.next4,
            _ => self.next5,
        }
    }

    fn set_next(&mut self, level: usize, h: Option<Handle<SkipNode>>) {
        match level {
            0 => self.next0 = h,
            1 => self.next1 = h,
            2 => self.next2 = h,
            3 => self.next3 = h,
            4 => self.next4 = h,
            _ => self.next5 = h,
        }
    }
}

/// Predecessor-search result: the predecessor handle at every level,
/// plus the level-0 successor candidate.
type PredSearch = ([Handle<SkipNode>; MAX_LEVEL], Option<Handle<SkipNode>>);

/// Deterministic tower height of `key`: 1 + the number of leading
/// base-4 zeros of its spread, capped at [`MAX_LEVEL`].
fn height_of(key: u64) -> usize {
    let mut h = 1;
    let mut bits = crate::spread(key);
    while h < MAX_LEVEL && bits & 3 == 0 {
        h += 1;
        bits >>= 2;
    }
    h
}

/// Transactionally composable ordered map (skiplist) from `u64` keys to
/// `u64` values.
pub struct TdsSkipList<S: TmSys> {
    pool: ObjPool<S, SkipNode>,
    head: Handle<SkipNode>,
    /// Free-list sentinels; `key`'s list is chosen by the top bits of its
    /// spread (the low bits set its height).
    free: [Handle<SkipNode>; FREE_LISTS],
    adt_id: u32,
}

impl<S: TmSys> TdsSkipList<S> {
    /// An ordered map whose pool holds `capacity` entries besides the
    /// head and the free-list sentinels. Inserts take removed nodes back
    /// from the key's free list before allocating, so it must cover,
    /// summed over free lists, the most entries each list's keys hold at
    /// once, plus one node per attempt that allocates and then aborts.
    pub fn new(sys: &S, capacity: usize) -> Self {
        let pool = ObjPool::new(capacity + 1 + FREE_LISTS);
        let head = pool.alloc(sys, SkipNode::unlinked(0, 0));
        let free = std::array::from_fn(|_| pool.alloc(sys, SkipNode::unlinked(0, 0)));
        TdsSkipList { pool, head, free, adt_id: crate::next_adt_id() }
    }

    /// This structure's id in published [`AdtOpDesc`]s.
    pub fn adt_id(&self) -> u32 {
        self.adt_id
    }

    fn note(&self, tx: &mut S::Tx<'_>, op: AdtOpKind, key: u64) {
        S::note_adt_op(tx, AdtOpDesc::new(self.adt_id, op, key));
    }

    fn free_list(&self, key: u64) -> Handle<SkipNode> {
        self.free[(crate::spread(key) >> 60) as usize % FREE_LISTS]
    }

    /// Search for `key`: the predecessor handle at every level, plus the
    /// level-0 successor candidate.
    ///
    /// Keys must rise strictly along the search path (see
    /// [`crate::map`]'s `find_prev`): a doomed invisible-reading attempt
    /// that meets a recycled node aborts instead of looping.
    fn find_preds(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<PredSearch, Abort> {
        let mut preds = [self.head; MAX_LEVEL];
        let mut pred_h = self.head;
        let mut pred = S::read(tx, self.pool.get(pred_h))?;
        for level in (0..MAX_LEVEL).rev() {
            while let Some(cur_h) = pred.next(level) {
                let cur = S::read(tx, self.pool.get(cur_h))?;
                if pred_h != self.head && cur.key <= pred.key {
                    return Err(Abort(AbortCause::Validation));
                }
                if cur.key >= key {
                    break;
                }
                pred_h = cur_h;
                pred = cur;
            }
            preds[level] = pred_h;
        }
        Ok((preds, pred.next(0)))
    }

    /// Insert `key → val`; returns the previous value if the key was
    /// present (value updated in place, no allocation or relinking).
    pub fn insert_tx(
        &self,
        sys: &S,
        tx: &mut S::Tx<'_>,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Insert, key);
        let (preds, cand) = self.find_preds(tx, key)?;
        if let Some(cur_h) = cand {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            if cur.key == key {
                S::write(tx, self.pool.get(cur_h), &SkipNode { val, ..cur })?;
                return Ok(Some(cur.val));
            }
        }
        let height = height_of(key);
        let mut node = SkipNode::unlinked(key, val);
        // Equal pred handles form contiguous level runs (a lower-level
        // pred is never before a higher-level one), so each distinct
        // pred object is read and written exactly once.
        let mut pred_vals: Vec<(Handle<SkipNode>, SkipNode)> = Vec::with_capacity(height);
        for (level, &pred_h) in preds.iter().enumerate().take(height) {
            if pred_vals.last().map(|(h, _)| *h) != Some(pred_h) {
                let p = S::read(tx, self.pool.get(pred_h))?;
                pred_vals.push((pred_h, p));
            }
            node.set_next(level, pred_vals.last().unwrap().1.next(level));
        }
        let list_h = self.free_list(key);
        let list = S::read(tx, self.pool.get(list_h))?;
        let node_h = match list.next0 {
            Some(free_h) => {
                let free = S::read(tx, self.pool.get(free_h))?;
                S::write(tx, self.pool.get(list_h), &SkipNode { next0: free.next0, ..list })?;
                S::write(tx, self.pool.get(free_h), &node)?;
                free_h
            }
            None => self.pool.alloc(sys, node),
        };
        for (ph, p) in &mut pred_vals {
            for (level, &pred_h) in preds.iter().enumerate().take(height) {
                if pred_h == *ph {
                    p.set_next(level, Some(node_h));
                }
            }
            S::write(tx, self.pool.get(*ph), p)?;
        }
        Ok(None)
    }

    /// Look up `key`.
    pub fn get_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Get, key);
        let (_, cand) = self.find_preds(tx, key)?;
        if let Some(cur_h) = cand {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            if cur.key == key {
                return Ok(Some(cur.val));
            }
        }
        Ok(None)
    }

    /// Remove `key`; returns the removed value if it was present. The
    /// node goes onto its key's free list in the same transaction.
    pub fn remove_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Remove, key);
        let (preds, cand) = self.find_preds(tx, key)?;
        let Some(cur_h) = cand else { return Ok(None) };
        let cur = S::read(tx, self.pool.get(cur_h))?;
        if cur.key != key {
            return Ok(None);
        }
        // One read + one write per distinct pred object (see insert_tx).
        let mut pred_vals: Vec<(Handle<SkipNode>, SkipNode)> = Vec::with_capacity(MAX_LEVEL);
        for &pred_h in &preds {
            if pred_vals.last().map(|(h, _)| *h) != Some(pred_h) {
                let p = S::read(tx, self.pool.get(pred_h))?;
                pred_vals.push((pred_h, p));
            }
        }
        for (ph, p) in &mut pred_vals {
            let mut touched = false;
            for (level, &pred_h) in preds.iter().enumerate() {
                if pred_h == *ph && p.next(level) == Some(cur_h) {
                    p.set_next(level, cur.next(level));
                    touched = true;
                }
            }
            if touched {
                S::write(tx, self.pool.get(*ph), p)?;
            }
        }
        let list_h = self.free_list(key);
        let list = S::read(tx, self.pool.get(list_h))?;
        let free = SkipNode { next0: list.next0, ..SkipNode::unlinked(0, 0) };
        S::write(tx, self.pool.get(cur_h), &free)?;
        S::write(tx, self.pool.get(list_h), &SkipNode { next0: Some(cur_h), ..list })?;
        Ok(Some(cur.val))
    }

    /// Membership query.
    pub fn contains_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<bool, Abort> {
        self.note(tx, AdtOpKind::Contains, key);
        let (_, cand) = self.find_preds(tx, key)?;
        if let Some(cur_h) = cand {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            return Ok(cur.key == key);
        }
        Ok(false)
    }

    /// First entry with key `≥ key` (ordered successor query — the
    /// operation a hash map cannot answer).
    pub fn succ_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<(u64, u64)>, Abort> {
        self.note(tx, AdtOpKind::Get, key);
        let (_, cand) = self.find_preds(tx, key)?;
        if let Some(cur_h) = cand {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            return Ok(Some((cur.key, cur.val)));
        }
        Ok(None)
    }

    // --- standalone wrappers (one operation = one transaction) ---

    pub fn insert(&self, sys: &S, key: u64, val: u64) -> Option<u64> {
        sys.execute(|tx| self.insert_tx(sys, tx, key, val))
    }

    pub fn get(&self, sys: &S, key: u64) -> Option<u64> {
        sys.execute(|tx| self.get_tx(tx, key))
    }

    pub fn remove(&self, sys: &S, key: u64) -> Option<u64> {
        sys.execute(|tx| self.remove_tx(tx, key))
    }

    pub fn contains(&self, sys: &S, key: u64) -> bool {
        sys.execute(|tx| self.contains_tx(tx, key))
    }

    pub fn succ(&self, sys: &S, key: u64) -> Option<(u64, u64)> {
        sys.execute(|tx| self.succ_tx(tx, key))
    }

    /// Quiescent snapshot of all entries in key order (level-0 walk with
    /// untracked reads; setup / post-run verification only).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = S::peek(self.pool.get(self.head)).next0;
        while let Some(h) = cur {
            let n = S::peek(self.pool.get(h));
            out.push((n.key, n.val));
            cur = n.next0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_core::Nzstm;
    use nztm_sim::Native;
    use std::sync::Arc;

    type Sys = Nzstm<Native>;

    fn sys() -> Arc<Sys> {
        let p = Native::new(1);
        p.register_thread();
        nztm_core::NzBuilder::new(p).build_nzstm()
    }

    #[test]
    fn heights_are_deterministic_and_distributed() {
        let mut by_height = [0usize; MAX_LEVEL + 1];
        for k in 1..=4096u64 {
            let h = height_of(k);
            assert_eq!(h, height_of(k), "pure function of the key");
            assert!((1..=MAX_LEVEL).contains(&h));
            by_height[h] += 1;
        }
        // Geometric p=1/4: ~3072 of height 1, ~768 of height 2, ...
        assert!(by_height[1] > 2500, "height histogram: {by_height:?}");
        assert!(by_height[2] > 400, "height histogram: {by_height:?}");
        assert!(by_height[3] > 50, "height histogram: {by_height:?}");
        // ... and only a handful on the top level, which every search
        // walks: ~4 expected with six levels, ~64 with four.
        assert!(by_height[MAX_LEVEL] <= 16, "height histogram: {by_height:?}");
    }

    /// Over tds-mix's key set (2..=4096: every even key and about half of
    /// the odd ones) a `get` makes 22.0 read barriers with six levels and
    /// 44.2 with four.
    #[test]
    fn a_get_reads_few_nodes_over_tds_mix_keys() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 4096);
        for k in 2..=4096u64 {
            if k % 2 == 0 || crate::spread(k) & 1 == 0 {
                l.insert(&*s, k, k);
            }
        }
        s.reset_stats();
        for k in 2..=4096u64 {
            l.get(&*s, k);
        }
        let per_get = s.stats_snapshot().reads as f64 / 4095.0;
        assert!(per_get <= 26.0, "{per_get:.1} read barriers per get");
    }

    #[test]
    fn removed_nodes_are_reused() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 1 << 17);
        let sentinels = 1 + FREE_LISTS;
        for i in 0..100_000u64 {
            l.insert(&*s, crate::spread(i) % 64, i);
            l.remove(&*s, crate::spread(!i) % 64);
        }
        assert!(
            l.pool.len() <= 64 + sentinels + 8,
            "{} nodes allocated for 64 keys",
            l.pool.len() - sentinels
        );
    }

    #[test]
    fn ordered_iteration_after_unordered_inserts() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 256);
        let keys = [55u64, 3, 200, 17, 89, 4, 150, 1, 999, 42];
        for &k in &keys {
            assert_eq!(l.insert(&*s, k, k * 2), None);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(l.snapshot(), sorted.iter().map(|&k| (k, k * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 512);
        for k in 0..200u64 {
            assert_eq!(l.insert(&*s, k, k + 1000), None);
        }
        assert_eq!(l.insert(&*s, 77, 1), Some(1077), "in-place update");
        assert_eq!(l.get(&*s, 77), Some(1));
        for k in (0..200u64).step_by(2) {
            assert_eq!(l.remove(&*s, k), Some(k + 1000));
        }
        for k in 0..200u64 {
            assert_eq!(l.contains(&*s, k), k % 2 == 1, "key {k}");
        }
        assert_eq!(l.snapshot().len(), 100);
    }

    #[test]
    fn successor_queries() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 64);
        for k in [10u64, 20, 30] {
            l.insert(&*s, k, k);
        }
        assert_eq!(l.succ(&*s, 5), Some((10, 10)));
        assert_eq!(l.succ(&*s, 10), Some((10, 10)));
        assert_eq!(l.succ(&*s, 11), Some((20, 20)));
        assert_eq!(l.succ(&*s, 30), Some((30, 30)));
        assert_eq!(l.succ(&*s, 31), None);
    }

    #[test]
    fn remove_relinks_every_level() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 4096);
        // Enough keys that some towers reach MAX_LEVEL.
        assert!((0..4096u64).any(|k| height_of(k) == MAX_LEVEL));
        for k in 0..4096u64 {
            l.insert(&*s, k, k);
        }
        for k in 0..4096u64 {
            assert_eq!(l.remove(&*s, k), Some(k));
        }
        assert!(l.snapshot().is_empty());
        // The head's towers must all be empty again.
        let head = Sys::peek(l.pool.get(l.head));
        for level in 0..MAX_LEVEL {
            assert_eq!(head.next(level), None, "level {level} dangles");
        }
    }

    #[test]
    fn recycled_nodes_relink_cleanly() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 4096);
        for k in 0..4096u64 {
            l.insert(&*s, k, k);
        }
        let allocated = l.pool.len();
        for k in 0..4096u64 {
            l.remove(&*s, k);
        }
        for k in (0..4096u64).rev() {
            assert_eq!(l.insert(&*s, k, k + 1), None);
        }
        assert_eq!(l.pool.len(), allocated, "every insert took a recycled node");
        let expect: Vec<_> = (0..4096u64).map(|k| (k, k + 1)).collect();
        assert_eq!(l.snapshot(), expect);
        for k in 0..4096u64 {
            assert_eq!(l.get(&*s, k), Some(k + 1));
        }
    }

    /// See the map's `a_falling_key_aborts_the_walk`.
    #[test]
    fn a_falling_key_aborts_the_search() {
        let s = sys();
        let l = TdsSkipList::new(&*s, 8);
        for k in [10u64, 20, 30] {
            l.insert(&*s, k, k);
        }
        let mut chain = vec![];
        let mut cur = Sys::peek(l.pool.get(l.head)).next0;
        while let Some(h) = cur {
            chain.push(h);
            cur = Sys::peek(l.pool.get(h)).next0;
        }
        let looped = SkipNode { next0: Some(chain[0]), ..Sys::peek(l.pool.get(chain[2])) };
        s.execute(|tx| Sys::write(tx, l.pool.get(chain[2]), &looped));
        let got = s.execute(|tx| Ok(l.get_tx(tx, 50)));
        assert_eq!(got, Err(Abort(AbortCause::Validation)));
    }
}
