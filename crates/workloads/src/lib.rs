//! # nztm-workloads — the paper's benchmark suite
//!
//! §4.2: "We ran three microbenchmarks and three STAMP benchmarks with
//! varying workloads to compare the systems."
//!
//! * [`linkedlist`] — "a concurrent set implemented using a single sorted
//!   linked list. Each thread randomly chooses to insert, delete, or look
//!   up a value in the range of 0 to 255, with the low contention
//!   distribution of operations being 1:1:8 (insert:delete:lookup) and
//!   the high contention distribution being 1:1:1."
//! * [`redblack`] — the same concurrent-set interface over a red-black
//!   tree.
//! * [`hashtable`] — the same interface over a chained hash table.
//! * [`stamp`] — ports of the kmeans, genome, and vacation STAMP
//!   applications (Minh et al., IISWC 2008) at reduced scale, with the
//!   low/high-contention parameter split of Minh et al. (ISCA 2007).
//!
//! Everything is generic over [`nztm_core::TmSys`], so one workload source
//! runs on NZSTM, BZSTM, SCSS, NOrec, DSTM2-SF, the global lock, and the
//! NZTM hybrid, on either the native or the simulated platform.

pub mod driver;
pub mod harness;
pub mod hashtable;
pub mod history;
pub mod kv;
pub mod linkedlist;
pub mod redblack;
pub mod set;
pub mod stamp;

pub use set::{Contention, SetOp, TmSet, KEY_RANGE};
