//! # nztm-check — schedule exploration + linearizability checking of the
//! # real engine
//!
//! The paper validates the NZTM protocol on an abstract Promela model
//! (§3, ≤3 threads × ≤3 objects); `crates/modelcheck` mirrors that. This
//! crate closes the remaining gap: it drives the **real** `nztm-core`
//! engine — all four backends (BZSTM, NZSTM, NZSTM+SCSS, hybrid) — under
//! the deterministic `crates/sim` scheduler with *controlled*
//! interleavings, records per-thread operation histories, and checks
//! them with a Wing–Gong-style linearizability checker.
//!
//! Three exploration modes (see [`explore`]):
//!
//! * **Random walk** — seeded PCT-style priority fuzzing over scheduling
//!   decisions ([`nztm_sim::SchedPolicy::Random`]).
//! * **Bounded-exhaustive** — CHESS-style stateless DFS over the first
//!   `depth` scheduling decisions ([`nztm_sim::SchedPolicy::Replay`]),
//!   at the §3 model's scale (2–3 threads × 2–3 objects).
//! * **Targeted adversaries** — pause-owner-then-inflate, crash-owner
//!   ([`nztm_core::NzStm::run_until_crash`]), abort-storm presets on
//!   [`harness::CheckConfig`].
//!
//! Failures shrink ([`artifact::shrink`]) to a minimal forced-choice
//! prefix and are written as self-contained text artifacts under
//! `results/`, replayable with the `check_replay` bin.
//!
//! Every NZ-engine run also arms the protocol invariant mirror; configs
//! can add protocol-edge yield points, seeded pause schedules, and fault
//! injection (`inject_handshake_bug`).

pub mod artifact;
pub mod explore;
pub mod harness;
pub mod lin;
pub mod timeline;

pub use artifact::{replay, read_artifact, shrink, write_artifact, Artifact, ReplayReport};
pub use timeline::{render_artifact, render_timeline, TimelineReport};
pub use explore::{
    explore_exhaustive, explore_exhaustive_with, explore_random, explore_random_with, judge,
    CheckError, ExploreReport, Failure,
};
pub use harness::{run_config, Backend, CheckConfig, CmKind, RunOutcome, Workload, BACKENDS, CM_KINDS};
pub use lin::{
    check_set_history, linearizable, BankSpec, CounterSpec, KeySpec, LinError, MapSpec,
    QueueSpec, SeqSpec,
};
