//! Trait-level `TmSys` conformance suite.
//!
//! One battery of observable-behaviour checks — execute/retry semantics,
//! closure-state persistence, explicit aborts with [`AbortCause`], stats
//! snapshot/reset contracts, and the tracing endpoints — run against
//! every `TmSys` implementation in the workspace. `cross_system.rs`
//! checks that the backends compute the same *results*; this file checks
//! that they honour the same *interface contract*, so a new backend (or
//! an API change) that silently diverges fails here by name.

use nztm_bench::registry::{
    self, BackendCaps, BackendVisitor, ReferenceKind, ReferenceVisitor,
};
use nztm_core::cm::KarmaDeadlock;
use nztm_core::{Abort, AbortCause, BackendKind, NzBuilder, NzConfig, Nzstm, ReadMode, TmSys};
use nztm_dstm::ShadowStm;
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, LogTmSe, NztmHybrid};
use nztm_sim::{Machine, MachineConfig, Native, SimPlatform};
use std::sync::Arc;

const ENGINE: BackendCaps = BackendCaps::ENGINE;
const REFERENCE: BackendCaps = BackendCaps::REFERENCE;

fn battery<S: TmSys>(sys: &S, caps: BackendCaps) {
    let who = sys.name();
    assert!(!who.is_empty(), "name() must be non-empty");

    // execute returns the closure's value; committed writes are visible.
    let a = sys.alloc(10u64);
    let b = sys.alloc(32u64);
    let got = sys.execute(|tx| {
        let x = S::read(tx, &a)?;
        let y = S::read(tx, &b)?;
        S::write(tx, &a, &(x + y))?;
        Ok(x + y)
    });
    assert_eq!(got, 42, "{who}: execute returns the closure's value");
    assert_eq!(S::peek(&a), 42, "{who}: committed write visible");
    assert_eq!(S::peek(&b), 32, "{who}: untouched object unchanged");

    // execute takes `impl FnMut`: captured state survives across
    // attempts (and by-value passing works without `&mut`).
    let mut calls = 0u32;
    sys.execute(|tx| {
        calls += 1;
        let v = S::read(tx, &a)?;
        S::write(tx, &a, &(v + 1))?;
        Ok(())
    });
    assert!(calls >= 1, "{who}: closure ran");
    assert_eq!(S::peek(&a), 43, "{who}: exactly one committed increment");

    // Explicit abort: `Err(Abort(Explicit))` aborts the attempt, the
    // system retries, and no partial effects of aborted attempts leak.
    if caps.explicit_abort {
        let mut attempts = 0u32;
        let v = sys.execute(|tx| {
            attempts += 1;
            let v = S::read(tx, &a)?;
            S::write(tx, &a, &(v + 100))?;
            if attempts < 3 {
                return Err(Abort(AbortCause::Explicit));
            }
            Ok(v)
        });
        assert!(attempts >= 3, "{who}: explicitly aborted attempts retry");
        assert_eq!(v, 43, "{who}: aborted attempts leave no trace");
        assert_eq!(S::peek(&a), 143, "{who}: only the committed attempt wrote");
        let st = sys.stats_snapshot();
        // HTM-first systems surface the aborted attempts as hardware
        // aborts; software systems as AbortCause-keyed counts.
        assert!(st.aborts() + st.htm_aborts >= 2, "{who}: explicit aborts counted: {st:?}");
    }

    // Stats: snapshot is callable anytime and monotone between commits;
    // reset (quiescent here) zeroes the counters.
    let s1 = sys.stats_snapshot();
    assert!(s1.commits >= 2, "{who}: commits counted: {s1:?}");
    sys.execute(|tx| S::read(tx, &a).map(|_| ()));
    let s2 = sys.stats_snapshot();
    assert!(s2.commits > s1.commits, "{who}: commits monotone");
    sys.reset_stats();
    assert_eq!(sys.stats_snapshot().commits, 0, "{who}: reset zeroes");

    // Tracing endpoints exist on every impl. The drained trace is
    // well-formed; a drain is destructive (second drain is empty); and
    // engines with a recorder actually capture events when the `trace`
    // feature is compiled in.
    sys.set_tracing(true);
    sys.execute(|tx| {
        let v = S::read(tx, &a)?;
        S::write(tx, &a, &(v + 1))?;
        Ok(())
    });
    sys.set_tracing(false);
    let t = sys.take_trace();
    t.check_well_formed().unwrap_or_else(|e| panic!("{who}: malformed trace: {e}"));
    if cfg!(feature = "trace") && caps.records_events {
        assert!(!t.is_empty(), "{who}: recorder armed but no events");
    } else if !cfg!(feature = "trace") {
        assert!(t.is_empty(), "{who}: trace feature off yet events appeared");
    }
    assert!(sys.take_trace().is_empty(), "{who}: drain is destructive");
}

/// ADT-level conformance: every backend must drive the `nztm-tds`
/// structures correctly through the same `TmSys` interface — including
/// cross-structure composition in one transaction. No operation here
/// requires an explicit abort, so the battery also runs on
/// `GlobalLockTm` (which cannot abort by construction).
/// `counts_adt_ops`: whether the backend forwards
/// [`TmSys::note_adt_op`] into its stats (the NZTM engines and the
/// hybrid do; the reference systems keep the no-op default).
fn tds_battery<S: TmSys>(sys: &S, counts_adt_ops: bool) {
    use nztm_tds::{TdsHashMap, TdsQueue, TdsSkipList};
    let who = sys.name();

    let m = TdsHashMap::new(sys, 4, 32);
    assert_eq!(m.insert(sys, 7, 70), None, "{who}: fresh insert");
    assert_eq!(m.insert(sys, 7, 71), Some(70), "{who}: in-place update returns old");
    assert_eq!(m.get(sys, 7), Some(71), "{who}: get sees update");
    assert!(m.contains(sys, 7), "{who}: contains");
    assert_eq!(m.remove(sys, 7), Some(71), "{who}: remove returns value");
    assert_eq!(m.get(sys, 7), None, "{who}: removed key gone");

    let l = TdsSkipList::new(sys, 64);
    for k in [5u64, 1, 9, 3] {
        assert_eq!(l.insert(sys, k, k * 10), None, "{who}: skiplist insert {k}");
    }
    assert_eq!(
        l.snapshot(),
        vec![(1, 10), (3, 30), (5, 50), (9, 90)],
        "{who}: skiplist sorted"
    );
    assert_eq!(l.succ(sys, 2), Some((3, 30)), "{who}: succ finds next entry");
    assert_eq!(l.remove(sys, 3), Some(30), "{who}: skiplist remove");
    assert_eq!(l.succ(sys, 2), Some((5, 50)), "{who}: succ skips removed entry");

    let q = TdsQueue::new(sys, 3);
    assert!(q.enqueue(sys, 100), "{who}: enqueue");
    assert!(q.enqueue(sys, 200) && q.enqueue(sys, 300), "{who}: fill");
    assert!(!q.enqueue(sys, 400), "{who}: full queue rejects");
    assert_eq!(q.dequeue(sys), Some(100), "{who}: FIFO order");
    assert!(q.enqueue(sys, 400), "{who}: slot reused after wrap");

    // Cross-structure composition: one transaction moves a map entry
    // into the queue and a queue entry into the skiplist, atomically.
    m.insert(sys, 1, 11);
    sys.execute(|tx| {
        let v = m.remove_tx(tx, 1)?.expect("present");
        let moved = q.dequeue_tx(tx)?.expect("nonempty");
        q.enqueue_tx(tx, v)?;
        l.insert_tx(sys, tx, 2, moved)?;
        Ok(())
    });
    assert_eq!(m.get(sys, 1), None, "{who}: map side of the composed tx");
    assert_eq!(q.snapshot(), vec![300, 400, 11], "{who}: queue side");
    assert_eq!(l.get(sys, 2), Some(200), "{who}: skiplist side");

    // ADT operation descriptors are published through note_adt_op and
    // surface in the stats (when compiled in); reset restores zero.
    sys.reset_stats();
    m.insert(sys, 3, 33);
    m.get(sys, 3);
    let st = sys.stats_snapshot();
    if cfg!(feature = "stats") && counts_adt_ops {
        assert!(st.adt_ops >= 2, "{who}: adt ops counted: {st:?}");
    } else {
        assert_eq!(st.adt_ops, 0, "{who}: no adt op counting expected");
    }
}

fn native1() -> Arc<Native> {
    let p = Native::new(1);
    p.register_thread_as(0);
    p
}

/// The interface battery over every software composition the registry
/// enumerates — so a backend added to `BackendKind` is conformance-
/// checked the moment it exists, with no per-backend test to remember.
#[test]
fn conformance_every_registered_software_backend() {
    struct V {
        visited: Vec<&'static str>,
    }
    impl BackendVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let sys = build(native1());
            battery(&*sys, caps);
            tds_battery(&*sys, caps.counts_adt_ops);
            self.visited.push(kind.name());
        }
    }
    let mut v = V { visited: Vec::new() };
    registry::for_each_software_backend(&mut v);
    assert_eq!(v.visited, ["BZSTM", "NZSTM", "SCSS", "NOREC"]);
    assert_eq!(v.visited.len(), registry::software_backend_count());
}

#[test]
fn conformance_nzstm_invisible_reads() {
    let sys = NzBuilder::new(native1()).read_mode(ReadMode::Invisible).build_nzstm();
    battery(&*sys, ENGINE);
    tds_battery(&*sys, true);
}

/// Every TM system checks the thread limit once, when it is built: each
/// object's reader bitmap has one bit per thread, so 65 threads must be
/// refused. `Native::new` spawns no thread.
#[test]
fn every_tm_system_refuses_more_than_64_threads() {
    fn refuses<S>(name: &str, build: impl FnOnce(Arc<Native>) -> Arc<S>) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(Native::new(65))))
            .err()
            .unwrap_or_else(|| panic!("{name}: built over 65 threads"));
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("at most 64 threads"), "{name}: {msg}");
    }
    refuses("BZSTM", |p| NzBuilder::new(p).build_bzstm());
    refuses("NZSTM", |p| NzBuilder::new(p).build_nzstm());
    refuses("SCSS", |p| NzBuilder::new(p).build_scss());
    refuses("NOREC", |p| NzBuilder::new(p).build_norec());
    refuses("DSTM2-SF", ShadowStm::with_defaults);
    // The limit itself builds.
    NzBuilder::new(Native::new(64)).build_nzstm();
}

/// Same enumeration discipline for the reference systems.
#[test]
fn conformance_every_registered_reference_backend() {
    struct V {
        visited: usize,
    }
    impl ReferenceVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: ReferenceKind, caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let sys = build(native1());
            assert_eq!(kind.name(), sys.name(), "registry label vs built system");
            battery(&*sys, caps);
            tds_battery(&*sys, caps.counts_adt_ops);
            self.visited += 1;
        }
    }
    let mut v = V { visited: 0 };
    registry::for_each_reference_backend(&mut v);
    assert_eq!(v.visited, ReferenceKind::ALL.len());
}

#[test]
fn conformance_logtm_on_sim() {
    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let s = LogTmSe::new(p);
    let s2 = Arc::clone(&s);
    m.run(vec![Box::new(move || {
        battery(&*s2, REFERENCE);
        tds_battery(&*s2, false);
    })]);
}

#[test]
fn conformance_hybrid_on_sim() {
    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let stm =
        Nzstm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&p), AtmtpConfig::default());
    htm.install();
    let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
    let hy2 = Arc::clone(&hy);
    m.run(vec![Box::new(move || {
        battery(&*hy2, ENGINE);
        tds_battery(&*hy2, true);
    })]);
    hy.htm().uninstall();
}
