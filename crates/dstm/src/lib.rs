//! # nztm-dstm — baseline transactional memories
//!
//! The two comparison systems the paper's evaluation depends on:
//!
//! * [`ShadowStm`] — DSTM2's *Shadow Factory* (Herlihy, Luchangco, Moir —
//!   OOPSLA 2006), the blocking zero-indirection STM of Figure 4:
//!   data in place, but the shadow (backup) copy is allocated **in place
//!   with the object**, doubling the object footprint — the cache effect
//!   behind NZSTM's kmeans win (§4.4.2). As in the paper, it uses "the
//!   same visible reads and contention management extensions as NZSTM".
//! * [`GlobalLockTm`] — a single global test-and-test-and-set lock
//!   protecting every "transaction"; Figure 4's normalization baseline
//!   ("the performance that can be achieved in systems with no HTM
//!   support, with the same level of programming complexity").
//!
//! Both implement [`nztm_core::TmSys`], so every workload runs
//! unmodified on them.

pub mod glock;
pub mod shadow;

pub use glock::GlobalLockTm;
pub use shadow::{ShadowObject, ShadowStm};
