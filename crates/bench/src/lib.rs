//! # nztm-bench — the evaluation harness
//!
//! Regenerates every figure and scalar claim of the paper's §4:
//!
//! * `fig3` — Figure 3 (simulator): LogTM-SE vs NZTM/ATMTP vs NZSTM on
//!   the 11 workloads at 1/3/7/15 threads, throughput normalized to
//!   1-thread LogTM-SE.
//! * `fig4` — Figure 4 ("Rock machine" → native threads): DSTM2-SF vs
//!   BZSTM vs SCSS vs NZSTM, 1..16 threads, normalized to a 1-thread
//!   single global lock.
//! * `stats` — the §4.4 scalar claims S1–S7 (abort rates, capacity-abort
//!   shares, HTM success rates, NZSTM-vs-BZSTM overhead, ...).
//!
//! Shapes — who wins, by roughly what factor, where the crossovers are —
//! are the reproduction target; absolute numbers live in a different
//! universe (the authors' Simics cluster and pre-production Rock
//! silicon vs this crate's deterministic simulator and host threads).

pub mod registry;
pub mod report;
pub mod suite;

pub use report::{Cell, FigureReport, Series};
pub use suite::{
    fig3_systems, fig4_systems, run_workload_native, run_workload_sim, SimSystem, Workload,
    WorkloadScale, ALL_WORKLOADS,
};
