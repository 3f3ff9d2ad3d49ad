//! # nztm-tds — transactionally composable data structures
//!
//! ROADMAP item 3: move above raw [`nztm_core::TmSys::execute`] word
//! transactions
//! into a library of composable abstract data types, following the
//! design point of NBTC (*"Transactional Composition of Nonblocking
//! Data Structures"*, Cai/Wen/Scott 2023): conflicts should be detected
//! at ADT/operation granularity, not per raw word, so operations on
//! disjoint keys never conflict and arbitrary operations compose into
//! one atomic transaction.
//!
//! Three structures, all generic over [`nztm_core::TmSys`] (so they run
//! on NZSTM,
//! BZSTM, SCSS, DSTM, DSTM2-SF, the global lock, and the NZTM hybrid,
//! on either platform):
//!
//! * [`TdsHashMap`] — a bucketized chained hash map from `u64` keys to
//!   `u64` values.
//! * [`TdsSkipList`] — an ordered map as a skiplist with deterministic
//!   per-key tower heights (same structure regardless of insertion
//!   order or schedule).
//! * [`TdsQueue`] — a bounded MPMC FIFO ring.
//!
//! ## Conflict granularity
//!
//! NZTM detects conflicts at *object* granularity. These structures
//! arrange their state so object boundaries coincide with per-key
//! operation footprints: one pool object per entry, chains kept short
//! by bucketing, and **no shared metadata word** (no size counter, no
//! global version) on any per-key path. Two transactions inserting
//! disjoint keys into different buckets therefore touch disjoint
//! objects and commit without conflicting — the ADT-granularity
//! property, realized through layout rather than through a separate
//! abstract-lock table.
//!
//! Following NBTC's publish/commit discipline, every operation first
//! *publishes* a one-word operation descriptor
//! ([`nztm_core::adt::AdtOpDesc`]: structure id, op kind, key) through
//! [`nztm_core::TmSys::note_adt_op`] before touching data words. The
//! engine
//! records the descriptor (statistics + flight recorder), so traces
//! attribute contention to logical operations on keys; the structural
//! effects of the operation remain speculative until the enclosing
//! transaction commits.
//!
//! ## Composition and abort semantics
//!
//! Every operation comes in two forms: a standalone wrapper that runs
//! its own transaction (`map.insert(&sys, k, v)`) and a `_tx` form
//! (`map.insert_tx(&sys, &mut tx, k, v)?`) for composing several
//! operations — across structures — into one atomic transaction. If the
//! enclosing transaction aborts, *all* of a composed operation's
//! effects roll back together: there are no partially applied
//! operations, because every structural mutation is a transactional
//! write undone by the engine's backup-restore (or discarded redo)
//! machinery.
//!
//! That includes node reuse. A remove pushes the unlinked node onto a
//! free list and an insert pops one, both with ordinary transactional
//! reads and writes (the map keeps one list per bucket, the skiplist
//! sixteen chosen by key), so on every backend a push or pop rolls back
//! with its operation and conflicts like any other access. Only a fresh
//! allocation, made when the list is empty, is outside the transaction
//! (see [`nztm_core::ObjPool::alloc`]): an attempt that aborts after one
//! leaves that node unreachable in the pool, never a dangling link.
//!
//! Reuse makes a node's key mutable. Under invisible reads an attempt
//! validates only at commit, so a doomed one can meet a node recycled
//! under a smaller key; every search therefore requires keys to rise
//! strictly along its path and aborts with
//! [`nztm_core::txn::AbortCause::Validation`] otherwise, rather than
//! following links round a cycle.

pub mod map;
pub mod ordered;
pub mod queue;

pub use map::TdsHashMap;
pub use ordered::TdsSkipList;
pub use queue::TdsQueue;

use std::sync::atomic::{AtomicU32, Ordering};

/// Process-wide allocator of structure-instance ids for
/// [`nztm_core::adt::AdtOpDesc::adt_id`].
static NEXT_ADT_ID: AtomicU32 = AtomicU32::new(1);

pub(crate) fn next_adt_id() -> u32 {
    NEXT_ADT_ID.fetch_add(1, Ordering::Relaxed)
}

/// SplitMix64 finalizer: the key-spreading hash shared by the hash map's
/// bucket choice and the skiplist's deterministic tower heights.
pub(crate) fn spread(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
