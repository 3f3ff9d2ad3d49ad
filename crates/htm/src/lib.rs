//! # nztm-htm — hardware-transactional-memory substrates
//!
//! Software emulations, on the deterministic simulated machine, of the
//! two HTMs the paper evaluates against:
//!
//! * [`BestEffortHtm`] — the ATMTP model of Sun Rock's best-effort HTM
//!   (§4.1): write-buffer versioning (256 one-word entries), read sets
//!   bounded by the L1's size and associativity, a **requester wins**
//!   conflict policy, spurious aborts standing in for TLB misses /
//!   interrupts / context switches, and a CPS-style abort-reason
//!   register consulted by retry policies.
//! * [`LogTmSe`] — LogTM-SE (§4.1/§4.3): *unbounded* eager HTM with an
//!   undo log, conflict detection on **perfect filters** (exact line
//!   sets — the paper's own upper-bound configuration), requester
//!   stalls with timestamp-ordered deadlock avoidance, and a software
//!   abort handler that unrolls the log.
//!
//! Plus the system they exist to serve:
//!
//! * [`NztmHybrid`] — NZTM itself (§2.4): transactions first attempt the
//!   best-effort hardware path (whose object accesses are instrumented
//!   with the §2.4 software-conflict checks from
//!   [`nztm_core::hybrid`]), retry on coherence conflicts a number of
//!   times proportional to the thread count, and otherwise fall back to
//!   NZSTM software transactions. Implements
//!   [`nztm_core::TmSys`] over the *same* `NZObject`s as the software
//!   engines.
//!
//! Conflicts between emulated hardware transactions and ordinary
//! software memory traffic are detected through the machine's coherence
//! snoop ([`nztm_sim::Machine::set_snoop`]), exactly mirroring the
//! paper's argument that a software acquisition "will modify data that
//! the hardware transaction has accessed, thereby aborting the hardware
//! transaction".

pub mod besteffort;
pub mod cps;
pub mod hybrid;
pub mod logtm;

pub use besteffort::{AtmtpConfig, BestEffortHtm, HwAbort, HwTxn};
pub use cps::CpsReason;
pub use hybrid::{HybridConfig, HybridTx, NztmHybrid};
pub use logtm::{LogObject, LogTmSe};
