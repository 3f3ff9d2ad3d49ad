//! The backend registry: one enumeration of the workspace's TM systems.
//!
//! Conformance (`tests/conformance.rs`), differential
//! (`tests/cross_system.rs`), and bench code all need "run X against
//! every backend". Before this module each kept its own hand-maintained
//! list, and adding a backend meant finding every list. Now
//! [`for_each_software_backend`] walks [`BackendKind::ALL`] (the same
//! constant the builder exports and the API snapshot pins), and
//! [`for_each_reference_backend`] walks the non-NZTM reference systems,
//! so a new backend is picked up by every battery the moment it joins
//! the enum — or fails the count check below by name.
//!
//! `TmSys` is not object-safe (generic `read`/`write`, GAT object
//! handles), so enumeration is visitor-shaped rather than
//! `Vec<Box<dyn TmSys>>`: the registry hands each visitor a *constructor*
//! and lets the visitor pick platform shape (thread count, registration
//! order) before building. That keeps one registry serving
//! single-threaded batteries, multi-threaded native runs, and
//! simulator-hosted differentials alike.
//!
//! Two systems stay outside: the NZTM hybrid needs a simulated
//! best-effort HTM installed/uninstalled around the run, and LogTM-SE is
//! simulator-hardware-only. Both have dedicated sim-hosted tests; the
//! count check accounts for the hybrid explicitly.

use nztm_core::{BackendKind, NzBuilder, TmSys};
use nztm_dstm::{GlobalLockTm, ShadowStm};
use nztm_sim::Platform;
use std::sync::Arc;

/// What a backend opts in/out of; batteries adapt rather than fail.
#[derive(Clone, Copy, Debug)]
pub struct BackendCaps {
    /// The closure may return `Err(Abort)` and the system aborts the
    /// attempt and retries. `GlobalLockTm` cannot abort by construction.
    pub explicit_abort: bool,
    /// The system has a flight recorder (the NZTM-family engines);
    /// reference systems keep the no-op tracing defaults.
    pub records_events: bool,
    /// The system forwards [`TmSys::note_adt_op`] into its stats.
    pub counts_adt_ops: bool,
}

impl BackendCaps {
    /// Full-featured NZTM-family engine.
    pub const ENGINE: BackendCaps = BackendCaps {
        explicit_abort: true,
        records_events: true,
        counts_adt_ops: true,
    };
    /// Reference STM: aborts but no recorder, no ADT-op accounting.
    pub const REFERENCE: BackendCaps = BackendCaps {
        explicit_abort: true,
        records_events: false,
        counts_adt_ops: false,
    };
    /// Single-global-lock reference: cannot abort at all.
    pub const NO_ABORT: BackendCaps = BackendCaps {
        explicit_abort: false,
        records_events: false,
        counts_adt_ops: false,
    };
}

/// The non-NZTM software reference systems (the comparison bars of
/// Fig. 3/4 that are not compositions of the core engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReferenceKind {
    /// DSTM2's Shadow Factory: in-place data with a collocated shadow
    /// copy (the paper's DSTM2-SF).
    Shadow,
    /// Coarse global-lock "TM".
    GlobalLock,
}

impl ReferenceKind {
    pub const ALL: [ReferenceKind; 2] = [ReferenceKind::Shadow, ReferenceKind::GlobalLock];

    /// The built system's [`TmSys::name`], as Figure 4 labels it.
    pub fn name(self) -> &'static str {
        match self {
            ReferenceKind::Shadow => "DSTM2-SF",
            ReferenceKind::GlobalLock => "GlobalLock",
        }
    }
}

/// A visitor over the software compositions of [`BackendKind::ALL`].
///
/// The registry passes a constructor rather than a built system so the
/// visitor controls the platform (thread count, registration) — and so
/// each visit gets a *fresh* engine of a distinct concrete type.
pub trait BackendVisitor<P: Platform> {
    fn visit<S, F>(&mut self, kind: BackendKind, caps: BackendCaps, build: F)
    where
        S: TmSys,
        F: FnOnce(Arc<P>) -> Arc<S>;
}

/// A visitor over [`ReferenceKind::ALL`].
pub trait ReferenceVisitor<P: Platform> {
    fn visit<S, F>(&mut self, kind: ReferenceKind, caps: BackendCaps, build: F)
    where
        S: TmSys,
        F: FnOnce(Arc<P>) -> Arc<S>;
}

/// Visit every pure-software composition in [`BackendKind::ALL`] with
/// paper-default knobs: BZSTM, NZSTM, SCSS, and NOrec. The hybrid is the
/// one member skipped (it is not a software composition: it wraps NZSTM
/// around a simulated best-effort HTM whose install/uninstall bracketing
/// the caller must own); `software_backend_count` counts what this
/// visits.
pub fn for_each_software_backend<P, V>(v: &mut V)
where
    P: Platform,
    V: BackendVisitor<P>,
{
    for kind in BackendKind::ALL {
        match kind {
            BackendKind::Bzstm => {
                v.visit(kind, BackendCaps::ENGINE, |p| NzBuilder::new(p).build_bzstm())
            }
            BackendKind::Nzstm => {
                v.visit(kind, BackendCaps::ENGINE, |p| NzBuilder::new(p).build_nzstm())
            }
            BackendKind::Scss => {
                v.visit(kind, BackendCaps::ENGINE, |p| NzBuilder::new(p).build_scss())
            }
            BackendKind::Norec => {
                v.visit(kind, BackendCaps::ENGINE, |p| NzBuilder::new(p).build_norec())
            }
            BackendKind::Hybrid => {}
        }
    }
}

/// Visit every reference system in [`ReferenceKind::ALL`].
pub fn for_each_reference_backend<P, V>(v: &mut V)
where
    P: Platform,
    V: ReferenceVisitor<P>,
{
    for kind in ReferenceKind::ALL {
        match kind {
            ReferenceKind::Shadow => {
                v.visit(kind, BackendCaps::REFERENCE, |p| ShadowStm::with_defaults(p))
            }
            ReferenceKind::GlobalLock => {
                v.visit(kind, BackendCaps::NO_ABORT, |p| GlobalLockTm::new(p))
            }
        }
    }
}

/// How many backends [`for_each_software_backend`] visits: every
/// [`BackendKind`] except the HTM-hosted hybrid.
pub fn software_backend_count() -> usize {
    BackendKind::ALL.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::Native;

    struct Collect(Vec<BackendKind>);
    impl BackendVisitor<Native> for Collect {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, _build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            self.0.push(kind);
        }
    }

    /// The registry, the builder's `BackendKind::ALL`, and the committed
    /// API snapshot must agree on the number of backends — so adding a
    /// backend without re-blessing the snapshot, or re-blessing without
    /// teaching the registry, fails here by name.
    #[test]
    fn registry_count_matches_the_api_snapshot() {
        let snapshot = include_str!("../../nztm-core/tests/api_surface.txt");
        let line = snapshot
            .lines()
            .find(|l| l.contains("pub const ALL: [BackendKind;"))
            .expect("API snapshot pins BackendKind::ALL");
        let n: usize = line
            .split("[BackendKind;")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("snapshot line carries the array length")
            .trim()
            .parse()
            .expect("array length parses");
        assert_eq!(n, BackendKind::ALL.len(), "code vs snapshot: {line}");

        let mut c = Collect(Vec::new());
        for_each_software_backend(&mut c);
        assert_eq!(c.0.len(), software_backend_count());
        assert_eq!(c.0.len(), n - 1, "registry visits all but the hybrid");
        let mut uniq = c.0.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), c.0.len(), "no backend visited twice");
        assert!(!c.0.contains(&BackendKind::Hybrid));
    }

    /// Each visited constructor really builds the backend it names.
    #[test]
    fn registry_constructors_build_what_they_claim() {
        struct NameCheck;
        impl BackendVisitor<Native> for NameCheck {
            fn visit<S, F>(&mut self, kind: BackendKind, caps: BackendCaps, build: F)
            where
                S: TmSys,
                F: FnOnce(Arc<Native>) -> Arc<S>,
            {
                let p = Native::new(1);
                p.register_thread_as(0);
                let sys = build(p);
                assert_eq!(sys.name(), kind.name());
                assert!(caps.explicit_abort);
            }
        }
        for_each_software_backend(&mut NameCheck);

        struct RefCheck;
        impl ReferenceVisitor<Native> for RefCheck {
            fn visit<S, F>(&mut self, kind: ReferenceKind, _caps: BackendCaps, build: F)
            where
                S: TmSys,
                F: FnOnce(Arc<Native>) -> Arc<S>,
            {
                let p = Native::new(1);
                p.register_thread_as(0);
                let sys = build(p);
                assert!(!sys.name().is_empty(), "{:?}", kind);
            }
        }
        for_each_reference_backend(&mut RefCheck);
    }
}
