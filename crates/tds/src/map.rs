//! Transactional hash map: bucketized sorted chains of entry objects.
//!
//! One pool object per entry `(key, val, next)`, one sentinel object per
//! bucket, and nothing else — in particular no size word — so the
//! footprint of an operation on key `k` is exactly `k`'s bucket chain
//! prefix. With enough buckets that chains stay short, operations on
//! disjoint keys touch disjoint objects and never conflict (the ADT
//! conflict-granularity property; see the crate docs).
//!
//! A removed entry is recycled through its bucket's free list, whose top
//! lives in the bucket sentinel's otherwise unused `val` word (handle + 1,
//! 0 = empty). The sentinel is read by every operation on the bucket
//! anyway, so an insert that finds the list empty makes exactly the
//! accesses it would make without recycling.

use nztm_core::adt::{AdtOpDesc, AdtOpKind};
use nztm_core::txn::{Abort, AbortCause};
use nztm_core::{tm_data_struct, FieldWord, Handle, ObjPool, TmSys};

/// One map entry. Chains are sorted by key; `next` links within the
/// bucket. A bucket sentinel keeps its free-list top in `val`; a free
/// entry links to the next free one through `next`.
#[derive(Clone, Debug, PartialEq)]
pub struct MapNode {
    pub key: u64,
    pub val: u64,
    pub next: Option<Handle<MapNode>>,
}
tm_data_struct!(MapNode { key: u64, val: u64, next: Option<Handle<MapNode>> });

/// A free-list top as the sentinel's `val` word: handle + 1, 0 = empty.
fn top_word(top: Option<Handle<MapNode>>) -> u64 {
    top.map_or(0, |h| h.index() as u64 + 1)
}

fn top_of(word: u64) -> Option<Handle<MapNode>> {
    word.checked_sub(1).map(Handle::from_word)
}

/// What [`TdsHashMap::find_prev`] read: the bucket sentinel, and the last
/// node with a key below the search key (the sentinel itself if none).
struct ChainPos {
    sentinel_h: Handle<MapNode>,
    sentinel: MapNode,
    prev_h: Handle<MapNode>,
    prev: MapNode,
}

/// Transactionally composable hash map from `u64` keys to `u64` values.
pub struct TdsHashMap<S: TmSys> {
    pool: ObjPool<S, MapNode>,
    heads: Vec<Handle<MapNode>>,
    adt_id: u32,
}

impl<S: TmSys> TdsHashMap<S> {
    /// A map with `buckets` chains. The pool holds `capacity` entries
    /// besides the sentinels; inserts take removed entries back from the
    /// bucket's free list before allocating, so it must cover, summed
    /// over buckets, the most entries each bucket holds at once, plus
    /// one node per attempt that allocates and then aborts.
    pub fn new(sys: &S, buckets: usize, capacity: usize) -> Self {
        assert!(buckets > 0);
        let pool = ObjPool::new(capacity + buckets);
        let heads = (0..buckets)
            .map(|_| pool.alloc(sys, MapNode { key: 0, val: 0, next: None }))
            .collect();
        TdsHashMap { pool, heads, adt_id: crate::next_adt_id() }
    }

    /// This structure's id in published [`AdtOpDesc`]s.
    pub fn adt_id(&self) -> u32 {
        self.adt_id
    }

    fn bucket(&self, key: u64) -> usize {
        (crate::spread(key) % self.heads.len() as u64) as usize
    }

    fn note(&self, tx: &mut S::Tx<'_>, op: AdtOpKind, key: u64) {
        S::note_adt_op(tx, AdtOpDesc::new(self.adt_id, op, key));
    }

    /// Walk `key`'s chain to the last node with a key `< key`.
    ///
    /// Keys must rise strictly along the walk. A recycled node can carry
    /// a smaller key than it had when an invisible-reading attempt
    /// reached it; such an attempt is already doomed, and aborting here
    /// keeps it from following links round a cycle before commit-time
    /// validation catches it.
    fn find_prev(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<ChainPos, Abort> {
        let sentinel_h = self.heads[self.bucket(key)];
        let sentinel = S::read(tx, self.pool.get(sentinel_h))?;
        let (mut prev_h, mut prev) = (sentinel_h, sentinel.clone());
        while let Some(cur_h) = prev.next {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            if prev_h != sentinel_h && cur.key <= prev.key {
                return Err(Abort(AbortCause::Validation));
            }
            if cur.key >= key {
                break;
            }
            prev_h = cur_h;
            prev = cur;
        }
        Ok(ChainPos { sentinel_h, sentinel, prev_h, prev })
    }

    /// Insert `key → val`; returns the previous value if the key was
    /// present (value updated in place, no allocation).
    pub fn insert_tx(
        &self,
        sys: &S,
        tx: &mut S::Tx<'_>,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Insert, key);
        let ChainPos { sentinel_h, mut sentinel, prev_h, prev } = self.find_prev(tx, key)?;
        if let Some(cur_h) = prev.next {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            if cur.key == key {
                S::write(tx, self.pool.get(cur_h), &MapNode { val, ..cur })?;
                return Ok(Some(cur.val));
            }
        }
        let node = MapNode { key, val, next: prev.next };
        let popped = top_of(sentinel.val);
        let node_h = match popped {
            Some(free_h) => {
                let free = S::read(tx, self.pool.get(free_h))?;
                sentinel.val = top_word(free.next);
                S::write(tx, self.pool.get(free_h), &node)?;
                free_h
            }
            None => self.pool.alloc(sys, node),
        };
        if prev_h == sentinel_h {
            sentinel.next = Some(node_h);
        } else {
            S::write(tx, self.pool.get(prev_h), &MapNode { next: Some(node_h), ..prev })?;
        }
        if prev_h == sentinel_h || popped.is_some() {
            S::write(tx, self.pool.get(sentinel_h), &sentinel)?;
        }
        Ok(None)
    }

    /// Look up `key`.
    pub fn get_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Get, key);
        self.get_tx_unnoted(tx, key)
    }

    /// Remove `key`; returns the removed value if it was present. The
    /// entry goes onto its bucket's free list in the same transaction.
    pub fn remove_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        self.note(tx, AdtOpKind::Remove, key);
        let ChainPos { sentinel_h, mut sentinel, prev_h, prev } = self.find_prev(tx, key)?;
        let Some(cur_h) = prev.next else { return Ok(None) };
        let cur = S::read(tx, self.pool.get(cur_h))?;
        if cur.key != key {
            return Ok(None);
        }
        if prev_h == sentinel_h {
            sentinel.next = cur.next;
        } else {
            S::write(tx, self.pool.get(prev_h), &MapNode { next: cur.next, ..prev })?;
        }
        let free = MapNode { key: 0, val: 0, next: top_of(sentinel.val) };
        S::write(tx, self.pool.get(cur_h), &free)?;
        sentinel.val = top_word(Some(cur_h));
        S::write(tx, self.pool.get(sentinel_h), &sentinel)?;
        Ok(Some(cur.val))
    }

    /// Membership query.
    pub fn contains_tx(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<bool, Abort> {
        self.note(tx, AdtOpKind::Contains, key);
        Ok(self.get_tx_unnoted(tx, key)?.is_some())
    }

    fn get_tx_unnoted(&self, tx: &mut S::Tx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        let ChainPos { prev, .. } = self.find_prev(tx, key)?;
        if let Some(cur_h) = prev.next {
            let cur = S::read(tx, self.pool.get(cur_h))?;
            if cur.key == key {
                return Ok(Some(cur.val));
            }
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

    /// Quiescent snapshot of all entries, sorted by key. Untracked reads
    /// (setup / post-run verification only).
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for head in &self.heads {
            let mut cur = S::peek(self.pool.get(*head)).next;
            while let Some(h) = cur {
                let n = S::peek(self.pool.get(h));
                out.push((n.key, n.val));
                cur = n.next;
            }
        }
        out.sort_unstable();
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
    fn insert_get_remove_round_trip() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 16, 64);
        assert_eq!(m.insert(&*s, 7, 70), None);
        assert_eq!(m.insert(&*s, 7, 71), Some(70), "in-place update returns old");
        assert_eq!(m.get(&*s, 7), Some(71));
        assert!(m.contains(&*s, 7));
        assert_eq!(m.get(&*s, 8), None);
        assert_eq!(m.remove(&*s, 7), Some(71));
        assert_eq!(m.remove(&*s, 7), None);
        assert!(!m.contains(&*s, 7));
    }

    #[test]
    fn colliding_keys_chain() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 1, 64); // every key collides
        for k in 0..20u64 {
            assert_eq!(m.insert(&*s, k * 3, k), None);
        }
        for k in 0..20u64 {
            assert_eq!(m.get(&*s, k * 3), Some(k));
        }
        assert_eq!(m.remove(&*s, 9), Some(3));
        assert_eq!(m.get(&*s, 9), None);
        assert_eq!(m.get(&*s, 6), Some(2));
        assert_eq!(m.get(&*s, 12), Some(4));
        assert_eq!(m.snapshot().len(), 19);
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 8, 64);
        for k in [9u64, 2, 33, 17, 5] {
            m.insert(&*s, k, k * 10);
        }
        assert_eq!(
            m.snapshot(),
            vec![(2, 20), (5, 50), (9, 90), (17, 170), (33, 330)]
        );
    }

    #[test]
    fn composed_ops_are_atomic_under_abort() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 8, 64);
        m.insert(&*s, 1, 100);
        // First attempt mutates two keys, then aborts explicitly; the
        // retry does nothing. Nothing of the first attempt may survive.
        let mut attempts = 0;
        s.execute(|tx| {
            attempts += 1;
            if attempts == 1 {
                m.insert_tx(&*s, tx, 2, 200)?;
                m.remove_tx(tx, 1)?;
                return Err(tx.abort());
            }
            Ok(())
        });
        assert_eq!(m.get(&*s, 1), Some(100), "remove rolled back");
        assert_eq!(m.get(&*s, 2), None, "insert rolled back");
    }

    #[test]
    fn adt_ops_are_counted() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 8, 16);
        s.reset_stats();
        m.insert(&*s, 3, 30);
        m.get(&*s, 3);
        m.contains(&*s, 3);
        m.remove(&*s, 3);
        assert_eq!(s.stats_snapshot().adt_ops, 4);
    }

    #[test]
    fn removed_nodes_are_reused() {
        let s = sys();
        let buckets = 16;
        let m = TdsHashMap::new(&*s, buckets, 1 << 17);
        for i in 0..100_000u64 {
            m.insert(&*s, crate::spread(i) % 64, i);
            m.remove(&*s, crate::spread(!i) % 64);
        }
        assert!(
            m.pool.len() <= 64 + buckets + 8,
            "{} nodes allocated for 64 keys",
            m.pool.len() - buckets
        );
    }

    #[test]
    fn a_recycled_node_takes_a_new_key() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 1, 64); // one bucket, one free list
        for k in 1..=3u64 {
            m.insert(&*s, k * 10, k);
        }
        let allocated = m.pool.len();
        assert_eq!(m.remove(&*s, 20), Some(2));
        assert_eq!(m.insert(&*s, 5, 50), None);
        assert_eq!(m.insert(&*s, 40, 400), None);
        assert_eq!(m.pool.len(), allocated + 1, "the first insert reused 20's node");
        assert_eq!(m.snapshot(), vec![(5, 50), (10, 1), (30, 3), (40, 400)]);
        assert_eq!(m.get(&*s, 20), None);
    }

    /// What a doomed invisible-reading attempt can meet once nodes are
    /// recycled: a link back to a smaller key. The walk must abort, not
    /// loop.
    #[test]
    fn a_falling_key_aborts_the_walk() {
        let s = sys();
        let m = TdsHashMap::new(&*s, 1, 8);
        for k in [10u64, 20, 30] {
            m.insert(&*s, k, k);
        }
        let mut chain = vec![];
        let mut cur = Sys::peek(m.pool.get(m.heads[0])).next;
        while let Some(h) = cur {
            chain.push(h);
            cur = Sys::peek(m.pool.get(h)).next;
        }
        let looped = MapNode { next: Some(chain[0]), ..Sys::peek(m.pool.get(chain[2])) };
        s.execute(|tx| Sys::write(tx, m.pool.get(chain[2]), &looped));
        let got = s.execute(|tx| Ok(m.get_tx(tx, 50)));
        assert_eq!(got, Err(Abort(AbortCause::Validation)));
    }
}
