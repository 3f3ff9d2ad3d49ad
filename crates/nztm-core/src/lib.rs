//! # nztm-core — Nonblocking Zero-indirection Transactional Memory
//!
//! A Rust implementation of the transactional-memory family from
//! *"NZTM: Nonblocking Zero-indirection Transactional Memory"*
//! (Tabba, Moir, Goodman, Hay, Wang — SPAA 2009):
//!
//! * [`Bzstm`] — the blocking base STM (§2.2): object data **in place**,
//!   metadata collocated with data, eager writes with lazily-restored
//!   backup copies, and the polite AbortNowPlease handshake.
//! * [`Nzstm`] — the paper's headline contribution (§2.3.1): the same
//!   zero-indirection common case, made **obstruction-free** by inflating
//!   an object into a DSTM-style locator only when a conflicting
//!   transaction is unresponsive, and deflating it back afterwards.
//! * [`NzstmScss`] — the §2.3.2 variant: nonblocking with **no** locator
//!   machinery at all, by pairing every data store with a check of the
//!   writer's own AbortNowPlease flag (Single-Compare Single-Store,
//!   emulated as a short atomic section).
//! * [`Norec`] — NOrec (value-based validation, lazy redo writes, one
//!   global sequence lock), run by the same engine behind the
//!   [`ModePolicy::NOREC`] gate: the minimal-metadata reference point.
//! * [`hybrid`] — hooks for the NZTM hybrid (§2.4), used by the
//!   `nztm-htm` crate's best-effort hardware path.
//!
//! ## Quick start
//!
//! Engines are constructed through [`NzBuilder`] (paper defaults:
//! visible reads, Karma + deadlock-detection contention management):
//!
//! ```
//! use nztm_core::NzBuilder;
//! use nztm_sim::Native;
//!
//! let platform = Native::new(1);
//! platform.register_thread();
//! let stm = NzBuilder::new(platform).build_nzstm();
//!
//! let account = stm.new_obj(100u64);
//! let r = stm.run(|tx| {
//!     let v = tx.read(&account)?;
//!     tx.write(&account, &(v + 23))?;
//!     Ok(v)
//! });
//! assert_eq!(r, 100);
//! assert_eq!(account.read_untracked(), 123);
//! ```
//!
//! ## Observability
//!
//! Every engine exposes merged statistics via
//! [`TmSys::stats_snapshot`] (safe at any
//! time) and, when built with the non-default `trace` cargo feature, a
//! [flight recorder](trace) of per-thread transaction events that
//! exports to JSON-lines and Chrome `trace_event` format (Perfetto).
//!
//! All engines are generic over [`nztm_sim::Platform`], so the same code
//! runs on real threads ([`nztm_sim::Native`]) or on the deterministic
//! simulated multiprocessor ([`nztm_sim::SimPlatform`]) used to reproduce
//! the paper's simulator experiments.

pub mod adt;
pub mod builder;
pub mod cm;
pub mod data;
pub mod engine;
pub mod hybrid;
pub mod locator;
pub mod object;
pub mod readers;
pub mod registry;
pub mod runtime;
pub mod sanitizer;
pub mod stats;
pub mod trace;
pub mod txn;
pub mod util;

pub use adt::{AdtOpDesc, AdtOpKind};
pub use builder::{BackendKind, NzBuilder};
pub use data::{FieldWord, TmData, WordArray};
pub use engine::{
    Blocking, ModePolicy, NativeHtmPolicy, Nonblocking, NorecMode, NzConfig, NzStm, NzTx,
    ReadMode, ScssMode, TraceConfig,
};
pub use object::{NZObject, NzObjAny, WordBuf};
pub use readers::{ReaderIndicator, MAX_THREADS};
pub use runtime::{Handle, ObjPool, TmSys};
pub use stats::{ThreadStats, TmStats};
pub use trace::{EventKind, ObjectHeat, Trace, TraceEvent};
pub use txn::{Abort, AbortCause, Status, TxnDesc};

/// The blocking base STM of §2.2 ("BZSTM" in the paper's evaluation).
pub type Bzstm<P> = NzStm<P, Blocking>;
/// The nonblocking zero-indirection STM of §2.3.1.
pub type Nzstm<P> = NzStm<P, Nonblocking>;
/// The SCSS variant of §2.3.2.
pub type NzstmScss<P> = NzStm<P, ScssMode>;
/// NOrec: value-validated reads + redo log + global sequence lock.
pub type Norec<P> = NzStm<P, NorecMode>;
