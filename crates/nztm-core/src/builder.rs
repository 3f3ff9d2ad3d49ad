//! [`NzBuilder`]: one front door for constructing engines.
//!
//! Start from the paper's defaults, override the few knobs harnesses
//! vary (read mode, contention manager), and pick
//! the mode with a `build_*` shorthand or [`NzBuilder::build`]`::<M>`.
//! Everything else is set by handing an [`NzConfig`] to
//! [`NzStm::new`] directly.
//!
//! Engines are concrete types (`Arc<NzStm<P, M>>`, never `Arc<dyn …>`),
//! so the compile-time [`ModePolicy`] specialization the paper's §4.4.2
//! measurements depend on is preserved. [`NzBuilder::build_norec`] builds
//! the separate [`Norec`] system, which takes none of the knobs.
//!
//! ```
//! use nztm_core::{NzBuilder, ReadMode};
//! use nztm_sim::Native;
//!
//! let platform = Native::new(1);
//! platform.register_thread();
//! let stm = NzBuilder::new(platform).read_mode(ReadMode::Visible).build_nzstm();
//!
//! let obj = stm.new_obj(1u64);
//! stm.run(|tx| tx.write(&obj, &2));
//! assert_eq!(obj.read_untracked(), 2);
//! ```
//!
//! The hybrid backend (§2.4) lives in the `nztm-htm` crate (it needs the
//! best-effort HTM); [`BackendKind::Hybrid`] names it here so harnesses
//! can enumerate all five backends uniformly.

use crate::cm::{ContentionManager, KarmaDeadlock};
use crate::engine::{Blocking, ModePolicy, Nonblocking, NzConfig, NzStm, ReadMode, ScssMode};
use crate::norec::Norec;
use nztm_sim::Platform;
use std::sync::Arc;

/// The backends of the evaluation. Construction is per-backend
/// ([`NzBuilder::build_bzstm`] and friends) because each returns a
/// distinct concrete type — the enum exists for naming, CLI parsing,
/// and uniform iteration in harnesses (see the backend registry in
/// `nztm-bench`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Blocking base STM (§2.2). Built by [`NzBuilder::build_bzstm`].
    Bzstm,
    /// Nonblocking via inflation (§2.3.1). [`NzBuilder::build_nzstm`].
    Nzstm,
    /// Nonblocking via SCSS (§2.3.2). [`NzBuilder::build_scss`].
    Scss,
    /// HTM + NZSTM hybrid (§2.4). Built by the `nztm-htm` crate on top
    /// of [`NzBuilder::build_nzstm`].
    Hybrid,
    /// NOrec: value validation + redo log + global sequence lock.
    /// Built by [`NzBuilder::build_norec`].
    Norec,
}

impl BackendKind {
    /// All five, NZTM family first in the paper's presentation order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Bzstm,
        BackendKind::Nzstm,
        BackendKind::Scss,
        BackendKind::Hybrid,
        BackendKind::Norec,
    ];

    /// Evaluation-section name (`BZSTM`, `NZSTM`, `SCSS`, `NZTM`,
    /// `NOREC`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Bzstm => "BZSTM",
            BackendKind::Nzstm => "NZSTM",
            BackendKind::Scss => "SCSS",
            BackendKind::Hybrid => "NZTM",
            BackendKind::Norec => "NOREC",
        }
    }

    /// Parse a case-insensitive backend name (accepts `nztm` and
    /// `hybrid` for [`BackendKind::Hybrid`]).
    pub fn parse(s: &str) -> Option<BackendKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "bzstm" => BackendKind::Bzstm,
            "nzstm" => BackendKind::Nzstm,
            "scss" => BackendKind::Scss,
            "nztm" | "hybrid" => BackendKind::Hybrid,
            "norec" => BackendKind::Norec,
            _ => return None,
        })
    }
}

/// Builder for the software engines. See the [module docs](self).
///
/// Defaults match the paper's configuration: visible reads, Karma +
/// deadlock-detection contention management, patience 128, tracing off.
pub struct NzBuilder<P: Platform> {
    platform: Arc<P>,
    cm: Arc<dyn ContentionManager>,
    cfg: NzConfig,
}

impl<P: Platform> NzBuilder<P> {
    /// Start from the paper's defaults on `platform`.
    pub fn new(platform: Arc<P>) -> Self {
        NzBuilder {
            platform,
            cm: Arc::new(KarmaDeadlock::default()),
            cfg: NzConfig::default(),
        }
    }

    /// Visible (paper default) or invisible read tracking. Ignored by
    /// NOrec, whose value-validating reads are never tracked per object.
    pub fn read_mode(mut self, mode: ReadMode) -> Self {
        self.cfg.read_mode = mode;
        self
    }

    /// Contention-management policy (default: Karma + deadlock
    /// detection, the paper's §4.3 configuration).
    pub fn cm(mut self, cm: Arc<dyn ContentionManager>) -> Self {
        self.cm = cm;
        self
    }

    /// Build an engine of mode `M`. Mode is usually inferred from the
    /// binding (`let s: Arc<Bzstm<_>> = …builder….build()`); the
    /// per-backend helpers below spell it out.
    pub fn build<M: ModePolicy>(self) -> Arc<NzStm<P, M>> {
        NzStm::new(self.platform, self.cm, self.cfg)
    }

    /// Build the blocking base STM (§2.2).
    pub fn build_bzstm(self) -> Arc<NzStm<P, Blocking>> {
        self.build()
    }

    /// Build the nonblocking inflation-based STM (§2.3.1).
    pub fn build_nzstm(self) -> Arc<NzStm<P, Nonblocking>> {
        self.build()
    }

    /// Build the SCSS variant (§2.3.2).
    pub fn build_scss(self) -> Arc<NzStm<P, ScssMode>> {
        self.build()
    }

    /// Build NOrec (value validation + redo log + global seqlock). It
    /// ignores the contention manager, read mode and patience: it has no
    /// conflicts to manage, tracks reads by value and never waits on an
    /// owner.
    pub fn build_norec(self) -> Arc<Norec<P>> {
        Norec::new(self.platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TmSys;
    use nztm_sim::Native;

    #[test]
    fn backend_kind_names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("hybrid"), Some(BackendKind::Hybrid));
        assert_eq!(BackendKind::parse("norec"), Some(BackendKind::Norec));
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn builder_constructs_all_four_software_backends() {
        let p = Native::new(1);
        p.register_thread();
        let b = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        let n = NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let s = NzBuilder::new(Arc::clone(&p)).build_scss();
        let r = NzBuilder::new(p).build_norec();
        assert_eq!(b.mode_name(), "BZSTM");
        assert_eq!(n.mode_name(), "NZSTM");
        assert_eq!(s.mode_name(), "SCSS");
        assert_eq!(r.name(), "NOREC");
        let obj = n.new_obj(41u64);
        n.run(|tx| {
            let v = tx.read(&obj)?;
            tx.write(&obj, &(v + 1))
        });
        assert_eq!(obj.read_untracked(), 42);
        let obj = r.new_obj(10u64);
        r.run(|tx| {
            let v = tx.read(&obj)?;
            tx.write(&obj, &(v * 2))
        });
        assert_eq!(obj.read_untracked(), 20);
    }

    #[test]
    fn builder_knobs_reach_the_engine() {
        let p = Native::new(1);
        p.register_thread();
        let s = NzBuilder::new(p).read_mode(ReadMode::Invisible).build_nzstm();
        assert_eq!(s.read_mode(), ReadMode::Invisible);
        assert!(!s.tracing_enabled());
    }
}
