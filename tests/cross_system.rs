//! Cross-crate integration: every TM system in the workspace runs the
//! same workloads through the same `TmSys` interface and produces
//! reference-correct results.
//!
//! This is the linchpin of the reproduction: Figures 3 and 4 compare
//! seven systems, which is only meaningful if all seven implement the
//! same semantics. Each test drives a deterministic single-threaded
//! operation stream against a `BTreeSet` reference (so divergence
//! pinpoints the faulty backend), then a concurrent smoke run.

use nztm_bench::registry::{
    self, BackendCaps, BackendVisitor, ReferenceKind, ReferenceVisitor,
};
use nztm_core::cm::KarmaDeadlock;
use nztm_core::{BackendKind, NzConfig, Nzstm, ReadMode, TmSys};
use nztm_dstm::ShadowStm;
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, LogTmSe, NztmHybrid};
use nztm_sim::{DetRng, Machine, MachineConfig, Native, SimPlatform};
use nztm_workloads::hashtable::HashTableSet;
use nztm_workloads::history::{complete_ops, recorded_set_op, HistOp, HistRet, HistoryLog};
use nztm_workloads::kv::{KvOp, KvRet, KvTraceCfg, KvTraceGen, RefKv, ShardedKv};
use nztm_workloads::linkedlist::LinkedListSet;
use nztm_workloads::redblack::RedBlackSet;
use nztm_workloads::set::{check_against_reference, Contention, SetOp, TmSet};
use std::sync::Arc;

const REF_OPS: usize = 1_200;

fn reference_all_sets<S: TmSys>(sys: &S) {
    let ll = LinkedListSet::new(sys, REF_OPS * 2 + 512);
    check_against_reference(&ll, sys, 31, REF_OPS, Contention::High);
    let rb = RedBlackSet::new(sys, REF_OPS * 2 + 512);
    check_against_reference(&rb, sys, 32, REF_OPS, Contention::High);
    rb.check_invariants(sys);
    let ht = HashTableSet::new(sys, REF_OPS * 2 + 512);
    check_against_reference(&ht, sys, 33, REF_OPS, Contention::Low);
}

/// Every software composition the registry enumerates (BZSTM, NZSTM,
/// SCSS, NOrec) against the `BTreeSet` reference — a new `BackendKind`
/// goes through this differential automatically.
#[test]
fn every_registered_software_backend_matches_reference() {
    struct V(Vec<&'static str>);
    impl BackendVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let p = Native::new(1);
            p.register_thread_as(0);
            reference_all_sets(&*build(p));
            self.0.push(kind.name());
        }
    }
    let mut v = V(Vec::new());
    registry::for_each_software_backend(&mut v);
    assert_eq!(v.0.len(), registry::software_backend_count());
}

/// Same differential for the non-NZTM reference systems.
#[test]
fn every_registered_reference_backend_matches_reference() {
    struct V(usize);
    impl ReferenceVisitor<Native> for V {
        fn visit<S, F>(&mut self, _kind: ReferenceKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let p = Native::new(1);
            p.register_thread_as(0);
            reference_all_sets(&*build(p));
            self.0 += 1;
        }
    }
    let mut v = V(0);
    registry::for_each_reference_backend(&mut v);
    assert_eq!(v.0, ReferenceKind::ALL.len());
}

#[test]
fn nzstm_invisible_reads_match_reference() {
    let p = Native::new(1);
    p.register_thread_as(0);
    let s = Nzstm::new(
        Arc::clone(&p),
        Arc::new(KarmaDeadlock::default()),
        NzConfig { read_mode: ReadMode::Invisible, ..NzConfig::default() },
    );
    reference_all_sets(&*s);
}

#[test]
fn logtm_matches_reference_on_sim() {
    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let s = LogTmSe::new(p);
    let s2 = Arc::clone(&s);
    m.run(vec![Box::new(move || {
        let ll = LinkedListSet::new(&*s2, 2_048);
        check_against_reference(&ll, &*s2, 31, 300, Contention::High);
        let rb = RedBlackSet::new(&*s2, 2_048);
        check_against_reference(&rb, &*s2, 32, 300, Contention::High);
        rb.check_invariants(&*s2);
    })]);
}

#[test]
fn hybrid_matches_reference_on_sim() {
    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let stm = Nzstm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&p), AtmtpConfig::default());
    htm.install();
    let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
    let hy2 = Arc::clone(&hy);
    m.run(vec![Box::new(move || {
        let ll = LinkedListSet::new(&*hy2, 2_048);
        check_against_reference(&ll, &*hy2, 31, 300, Contention::High);
        let ht = HashTableSet::new(&*hy2, 2_048);
        check_against_reference(&ht, &*hy2, 33, 300, Contention::Low);
    })]);
    let st = hy.stats_snapshot();
    assert!(st.htm_commits > 0, "the hybrid's hardware path must carry load: {st:?}");
    hy.htm().uninstall();
}

/// Concurrent agreement: four threads apply disjoint deterministic
/// streams; the final set contents must be identical across backends
/// because the streams commute at the set level (each thread owns a
/// disjoint key range).
#[test]
fn concurrent_disjoint_streams_agree_across_backends() {
    fn run<S: TmSys>(sys: Arc<S>, p: Arc<Native>) -> Vec<u64> {
        let set = Arc::new(RedBlackSet::new(&*sys, 80_000));
        std::thread::scope(|scope| {
            for tid in 0..4usize {
                let sys = Arc::clone(&sys);
                let set = Arc::clone(&set);
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    p.register_thread_as(tid);
                    let mut rng = DetRng::new(tid as u64 + 1);
                    // Keys restricted to this thread's 64-key stripe.
                    for _ in 0..2_000 {
                        let op = SetOp::draw(&mut rng, Contention::High);
                        let stripe = |k: u64| (tid as u64) * 64 + (k % 64);
                        match op {
                            SetOp::Insert(k) => {
                                set.insert(&*sys, stripe(k));
                            }
                            SetOp::Delete(k) => {
                                set.delete(&*sys, stripe(k));
                            }
                            SetOp::Lookup(k) => {
                                set.contains(&*sys, stripe(k));
                            }
                        };
                    }
                });
            }
        });
        p.register_thread_as(0);
        set.check_invariants(&*sys);
        set.elements(&*sys)
    }

    struct V(Vec<(&'static str, Vec<u64>)>);
    impl BackendVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let p = Native::new(4);
            self.0.push((kind.name(), run(build(Arc::clone(&p)), p)));
        }
    }
    let mut v = V(Vec::new());
    registry::for_each_software_backend(&mut v);
    let p = Native::new(4);
    v.0.push(("DSTM2-SF", run(ShadowStm::with_defaults(Arc::clone(&p)), p)));
    let (base_name, base) = &v.0[0];
    for (name, got) in &v.0[1..] {
        assert_eq!(got, base, "{base_name} vs {name}");
    }
}

/// Differential cross-backend check on the deterministic simulator:
/// identical seeded disjoint-stripe streams must yield both the same
/// final set contents *and* the same committed-operation multiset
/// (op, return value, per thread) on BZSTM, NZSTM, NZSTM+SCSS and the
/// hybrid. Disjoint key stripes make each thread's committed results a
/// pure function of its own stream, so the multiset is
/// schedule-independent and any divergence is a backend bug.
#[test]
fn committed_op_multisets_agree_across_backends() {
    type OpSummary = (u32, HistOp, HistRet);

    fn stream_bodies<S: TmSys>(
        sys: &Arc<S>,
        set: &Arc<HashTableSet<S>>,
        log: &Arc<HistoryLog>,
        threads: usize,
    ) -> Vec<Box<dyn FnOnce() + Send>> {
        (0..threads)
            .map(|tid| {
                let sys = Arc::clone(sys);
                let set = Arc::clone(set);
                let log = Arc::clone(log);
                Box::new(move || {
                    let mut rng = DetRng::new(7).split(tid as u64);
                    for _ in 0..120 {
                        let op = SetOp::draw(&mut rng, Contention::High);
                        let stripe = |k: u64| (tid as u64) * 64 + (k % 64);
                        let op = match op {
                            SetOp::Insert(k) => SetOp::Insert(stripe(k)),
                            SetOp::Delete(k) => SetOp::Delete(stripe(k)),
                            SetOp::Lookup(k) => SetOp::Lookup(stripe(k)),
                        };
                        recorded_set_op(&*set, &*sys, &log, tid as u32, op);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect()
    }

    fn summarize(log: &HistoryLog) -> Vec<OpSummary> {
        let (ops, pending) = complete_ops(&log.events());
        assert_eq!(pending, 0, "no thread crashed");
        let mut v: Vec<OpSummary> =
            ops.into_iter().map(|o| (o.tid, o.op, o.ret)).collect();
        v.sort(); // multiset comparison: order by (tid, op, ret)
        v
    }

    fn run_stm<S: TmSys>(sys: Arc<S>, machine: Arc<Machine>) -> (Vec<u64>, Vec<OpSummary>) {
        let set = Arc::new(HashTableSet::new(&*sys, 4 * 64));
        let log = Arc::new(HistoryLog::new());
        machine.run(stream_bodies(&sys, &set, &log, 3));
        (set.elements(&*sys), summarize(&log))
    }

    let sim = || {
        let machine = Machine::new(MachineConfig::paper(3));
        let platform = SimPlatform::new(Arc::clone(&machine));
        (machine, platform)
    };

    type SetRun = (Vec<u64>, Vec<OpSummary>);
    struct V {
        sim: fn() -> (Arc<Machine>, Arc<SimPlatform>),
        out: Vec<(&'static str, SetRun)>,
    }
    impl BackendVisitor<SimPlatform> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<SimPlatform>) -> Arc<S>,
        {
            let (machine, platform) = (self.sim)();
            self.out.push((kind.name(), run_stm(build(platform), machine)));
        }
    }
    let mut v = V { sim, out: Vec::new() };
    registry::for_each_software_backend(&mut v);

    let (machine, platform) = sim();
    let stm = Nzstm::new(Arc::clone(&platform), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
    htm.install();
    let hybrid = NztmHybrid::new(stm, htm, HybridConfig::default());
    let set = Arc::new(HashTableSet::new(&*hybrid, 4 * 64));
    let log = Arc::new(HistoryLog::new());
    machine.run(stream_bodies(&hybrid, &set, &log, 3));
    hybrid.htm().uninstall();
    v.out.push(("NZTM", (set.elements(&*hybrid), summarize(&log))));

    let (base_name, base) = &v.out[0];
    for (name, got) in &v.out[1..] {
        assert_eq!(got.0, base.0, "final contents: {base_name} vs {name}");
        assert_eq!(got.1, base.1, "committed ops: {base_name} vs {name}");
    }
}

// --- sharded KV differential (PR 8) ---

const KV_TRACE_OPS: usize = 2_000;

fn kv_trace() -> Vec<KvOp> {
    KvTraceGen::new(KvTraceCfg::small(64), 42, 0).take(KV_TRACE_OPS)
}

type KvSummary = (Vec<KvRet>, Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Apply the shared seeded trace single-threaded and summarize: the full
/// return sequence plus both quiescent snapshots. Single-threaded, every
/// backend is deterministic, so the summary must be *exactly* the
/// reference oracle's — any divergence names the faulty backend.
fn run_kv_trace<S: TmSys>(sys: &S) -> KvSummary {
    let kv = ShardedKv::new(sys, 4, 16, 512, 100);
    let rets = kv_trace().iter().map(|op| kv.apply(sys, op)).collect();
    kv.assert_conserved();
    (rets, kv.wallet_snapshot(), kv.session_snapshot())
}

fn kv_oracle() -> KvSummary {
    let r = RefKv::new(100);
    let rets = kv_trace().iter().map(|op| r.apply(op)).collect();
    (rets, r.wallet_snapshot(), r.session_snapshot())
}

/// The seeded KV/session trace — zipfian gets/puts, write bursts, and
/// cross-shard transfers — produces the identical committed-operation
/// sequence and final state on every native-platform backend as on the
/// coarse-lock reference store.
#[test]
fn sharded_kv_trace_matches_reference_on_every_backend() {
    fn native() -> Arc<Native> {
        let p = Native::new(1);
        p.register_thread_as(0);
        p
    }
    struct V {
        expect: KvSummary,
        visited: usize,
    }
    impl V {
        fn check<S: TmSys>(&mut self, sys: Arc<S>, label: &str) {
            assert_eq!(run_kv_trace(&*sys), self.expect, "{label}");
            self.visited += 1;
        }
    }
    impl BackendVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            self.check(build(native()), kind.name());
        }
    }
    impl ReferenceVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: ReferenceKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            self.check(build(native()), kind.name());
        }
    }
    let mut v = V { expect: kv_oracle(), visited: 0 };
    registry::for_each_software_backend(&mut v);
    registry::for_each_reference_backend(&mut v);
    assert_eq!(v.visited, registry::software_backend_count() + ReferenceKind::ALL.len());
}

/// The same differential on the simulator-hosted backends (LogTM-SE and
/// the NZTM hybrid) — the trace is platform-independent, so the oracle
/// is the same.
#[test]
fn sharded_kv_trace_matches_reference_on_sim_backends() {
    let expect = kv_oracle();

    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let s = LogTmSe::new(p);
    let s2 = Arc::clone(&s);
    let want = expect.clone();
    m.run(vec![Box::new(move || {
        assert_eq!(run_kv_trace(&*s2), want, "LogTM-SE");
    })]);

    let m = Machine::new(MachineConfig::paper(1));
    let p = SimPlatform::new(Arc::clone(&m));
    let stm = Nzstm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&p), AtmtpConfig::default());
    htm.install();
    let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
    let hy2 = Arc::clone(&hy);
    m.run(vec![Box::new(move || {
        assert_eq!(run_kv_trace(&*hy2), expect, "hybrid");
    })]);
    hy.htm().uninstall();
}

/// Concurrent conservation: four threads fire independent seeded trace
/// streams (shared zipfian-hot users, so transfers genuinely contend and
/// cross shards) at the same store; afterwards the cross-shard transfer
/// invariant must hold on every backend that can run concurrently on the
/// native platform.
#[test]
fn concurrent_kv_transfers_conserve_on_every_backend() {
    fn run<S: TmSys>(sys: Arc<S>, p: Arc<Native>, label: &str) {
        // Generous per-shard capacity: aborted insert attempts leak pool
        // nodes, and contention here is the point of the test.
        let kv = Arc::new(ShardedKv::new(&*sys, 4, 16, 40_000, 100));
        std::thread::scope(|scope| {
            for tid in 0..4usize {
                let sys = Arc::clone(&sys);
                let kv = Arc::clone(&kv);
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    p.register_thread_as(tid);
                    let mut gen = KvTraceGen::new(KvTraceCfg::small(64), 42, tid as u64);
                    for _ in 0..1_500 {
                        let op = gen.next();
                        kv.apply(&*sys, &op);
                    }
                });
            }
        });
        p.register_thread_as(0);
        kv.assert_conserved();
        let wallets = kv.wallet_snapshot();
        assert!(!wallets.is_empty(), "{label}: transfers initialized wallets");
    }

    struct V;
    impl BackendVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let p = Native::new(4);
            run(build(Arc::clone(&p)), p, kind.name());
        }
    }
    impl ReferenceVisitor<Native> for V {
        fn visit<S, F>(&mut self, kind: ReferenceKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<Native>) -> Arc<S>,
        {
            let p = Native::new(4);
            run(build(Arc::clone(&p)), p, kind.name());
        }
    }
    registry::for_each_software_backend(&mut V);
    registry::for_each_reference_backend(&mut V);
}
