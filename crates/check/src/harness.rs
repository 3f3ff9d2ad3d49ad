//! Backend-generic run harness: one `CheckConfig` in, one `RunOutcome`
//! out, on a fresh deterministic machine every time.
//!
//! Every run builds a fresh [`Machine`] + engine, so identical configs
//! (including the schedule policy) reproduce identical decision traces,
//! histories and statistics — across processes, which is what makes
//! failure artifacts replayable by `check_replay`.

use nztm_core::cm::{Aggressive, ContentionManager, Greedy, KarmaDeadlock, Polite, Timestamp};
use nztm_core::{
    Blocking, ModePolicy, NZObject, Nonblocking, NzBuilder, NzConfig, NzStm, ScssMode, TmStats,
    TmSys,
};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::sync::Mutex;
use nztm_sim::{Decision, DetRng, Machine, MachineConfig, Platform, SchedPolicy, SimPlatform};
use nztm_tds::{TdsHashMap, TdsQueue, TdsSkipList};
use nztm_workloads::history::{complete_ops, HistOp, HistRet, HistoryLog, OpRecord};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The five systems under check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Bzstm,
    Nzstm,
    Scss,
    Hybrid,
    Norec,
}

/// All five backends, in presentation order.
pub const BACKENDS: [Backend; 5] =
    [Backend::Bzstm, Backend::Nzstm, Backend::Scss, Backend::Hybrid, Backend::Norec];

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Bzstm => "BZSTM",
            Backend::Nzstm => "NZSTM",
            Backend::Scss => "SCSS",
            Backend::Hybrid => "HYBRID",
            Backend::Norec => "NOREC",
        }
    }

    pub fn parse(s: &str) -> Option<Backend> {
        BACKENDS.iter().copied().find(|b| b.name() == s)
    }
}

/// The contention-management policy a run builds its engine with.
/// Part of the replayable configuration (serialized into artifacts, with
/// absent-field backward compatibility defaulting to [`CmKind::Karma`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmKind {
    /// The paper's §4.3 default: Karma + deadlock detection.
    Karma,
    /// Always request the peer's abort (livelock-prone by design).
    Aggressive,
    /// Wait up to a budget, then request.
    Polite,
    /// Older transaction wins (livelock-free given unique serials).
    Timestamp,
    /// Greedy (PODC 2005): elder wins, younger yields to stalled elders.
    Greedy,
}

/// Every policy the harness can drive, in presentation order.
pub const CM_KINDS: [CmKind; 5] = [
    CmKind::Karma,
    CmKind::Aggressive,
    CmKind::Polite,
    CmKind::Timestamp,
    CmKind::Greedy,
];

impl CmKind {
    pub fn name(self) -> &'static str {
        match self {
            CmKind::Karma => "karma",
            CmKind::Aggressive => "aggressive",
            CmKind::Polite => "polite",
            CmKind::Timestamp => "timestamp",
            CmKind::Greedy => "greedy",
        }
    }

    pub fn parse(s: &str) -> Option<CmKind> {
        CM_KINDS.iter().copied().find(|k| k.name() == s)
    }

    /// Construct the policy with its default parameters. Every policy
    /// here is stateless, so same config + same schedule reproduces the
    /// same decisions.
    pub fn build(self) -> Arc<dyn ContentionManager> {
        match self {
            CmKind::Karma => Arc::new(KarmaDeadlock::default()),
            CmKind::Aggressive => Arc::new(Aggressive),
            CmKind::Polite => Arc::new(Polite::default()),
            CmKind::Timestamp => Arc::new(Timestamp),
            CmKind::Greedy => Arc::new(Greedy),
        }
    }
}

/// The workload shape a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bank transfers: each op moves one unit between two random
    /// accounts when the source has funds (checked by [`crate::lin::BankSpec`]).
    Transfer,
    /// Each thread increments each object once, rotated by thread id —
    /// the §3 model's counter workload (checked by [`crate::lin::CounterSpec`]).
    Increment,
    /// Random insert/remove/get/contains on a [`nztm_tds::TdsHashMap`]
    /// over a key universe of `objects` keys (checked by
    /// [`crate::lin::MapSpec`]).
    MapHash,
    /// The same ADT operations on a [`nztm_tds::TdsSkipList`].
    MapSkip,
    /// Node reuse on a [`nztm_tds::TdsHashMap`]: thread `t`'s op `2i`
    /// inserts key `(t + i) % objects` and op `2i + 1` removes it, so
    /// every key is removed and re-inserted once per thread and the
    /// judge sees recycled nodes — the ABA case (checked by
    /// [`crate::lin::MapSpec`]).
    MapHashChurn,
    /// The same node-reuse script on a [`nztm_tds::TdsSkipList`].
    MapSkipChurn,
    /// Random enqueue/dequeue on a [`nztm_tds::TdsQueue`] of capacity
    /// `objects` (checked by [`crate::lin::QueueSpec`]).
    Queue,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Transfer => "transfer",
            Workload::Increment => "increment",
            Workload::MapHash => "map-hash",
            Workload::MapSkip => "map-skip",
            Workload::MapHashChurn => "map-hash-churn",
            Workload::MapSkipChurn => "map-skip-churn",
            Workload::Queue => "queue",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        [
            Workload::Transfer,
            Workload::Increment,
            Workload::MapHash,
            Workload::MapSkip,
            Workload::MapHashChurn,
            Workload::MapSkipChurn,
            Workload::Queue,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }

    /// Whether this workload drives a `nztm-tds` structure through ADT
    /// operations (rather than raw word transactions).
    pub fn is_tds(self) -> bool {
        !matches!(self, Workload::Transfer | Workload::Increment)
    }
}

/// One fully-specified run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    pub backend: Backend,
    pub workload: Workload,
    /// Contention-management policy (default [`CmKind::Karma`]).
    pub cm: CmKind,
    pub threads: usize,
    /// Physical cores backing the simulated contexts (0 = dedicated, one
    /// core per thread). Setting this below `threads` makes the simulated
    /// machine oversubscribed: token handoffs charge a context-switch
    /// penalty (see [`nztm_sim::MachineConfig::hw_cores`]).
    pub hw_cores: usize,
    pub objects: usize,
    pub ops_per_thread: usize,
    /// Initial per-account balance (transfer workload only).
    pub initial: u64,
    /// Engine patience before declaring an owner unresponsive.
    pub patience: u64,
    /// Workload seed (operation draws).
    pub seed: u64,
    /// Schedule policy for the run.
    pub policy: SchedPolicy,
    pub max_cycles: u64,
    /// This thread abandons its first operation mid-transaction with
    /// the descriptor left `Active` (crashed owner, §3). NzStm modes only.
    pub crash_tid: Option<usize>,
    /// `(tid, cycles)`: the thread stalls that long inside its first
    /// transaction after acquiring (pause-owner-then-inflate).
    pub stall: Option<(usize, u64)>,
    /// Seeded protocol fault (the sanitizer's handshake bug).
    pub inject_handshake_bug: bool,
    /// Sanitizer pause schedule `(seed, max_pause)`.
    pub pause: Option<(u64, u64)>,
    /// Arm protocol-edge yield points (sanitizer schedule with a zero
    /// pause budget).
    pub yield_points: bool,
    /// Arm the engine flight recorder and collect a merged event trace
    /// in [`RunOutcome::trace`]. Not part of the artifact text format —
    /// replay tooling sets it ad hoc when rendering timelines.
    pub trace: bool,
}

impl CheckConfig {
    /// The §3-scale transfer config: 3 threads × 2 accounts.
    pub fn transfer(backend: Backend) -> Self {
        CheckConfig {
            backend,
            workload: Workload::Transfer,
            cm: CmKind::Karma,
            threads: 3,
            hw_cores: 0,
            objects: 2,
            ops_per_thread: 2,
            initial: 2,
            patience: 16,
            seed: 1,
            policy: SchedPolicy::MinClock,
            max_cycles: 20_000_000,
            crash_tid: None,
            stall: None,
            inject_handshake_bug: false,
            pause: None,
            yield_points: false,
            trace: false,
        }
    }

    /// The §3 model's counter workload: every thread increments every
    /// object once.
    pub fn increment(backend: Backend, threads: usize, objects: usize) -> Self {
        CheckConfig {
            workload: Workload::Increment,
            threads,
            objects,
            ops_per_thread: objects,
            ..CheckConfig::transfer(backend)
        }
    }

    /// A transactional-data-structure run: `threads` threads each doing
    /// `ops_per_thread` random ADT operations on one shared structure
    /// (`objects` = key universe for the maps, capacity for the queue),
    /// ending with one atomic `ReadAll` snapshot. Small enough that
    /// every history fits the Wing–Gong bitmask.
    pub fn tds(backend: Backend, workload: Workload) -> Self {
        assert!(workload.is_tds());
        CheckConfig {
            workload,
            objects: 3,
            ops_per_thread: 2,
            ..CheckConfig::transfer(backend)
        }
    }

    /// Abort-storm variant of [`CheckConfig::tds`]: minimal patience so
    /// the handshake path runs under ADT operations too.
    pub fn tds_abort_storm(backend: Backend, workload: Workload) -> Self {
        CheckConfig { patience: 2, ops_per_thread: 3, ..CheckConfig::tds(backend, workload) }
    }

    /// Node-reuse run ([`Workload::MapHashChurn`] /
    /// [`Workload::MapSkipChurn`]): each of the 3 threads inserts and
    /// removes every key of the 3-key universe, so each key is removed
    /// and re-inserted three times.
    pub fn tds_churn(backend: Backend, workload: Workload) -> Self {
        assert!(matches!(workload, Workload::MapHashChurn | Workload::MapSkipChurn));
        CheckConfig { ops_per_thread: 6, ..CheckConfig::tds(backend, workload) }
    }

    /// Targeted adversary: thread 0 stalls mid-transaction long past the
    /// patience bound, so survivors must inflate past it (§2.3.1).
    pub fn pause_owner(backend: Backend) -> Self {
        CheckConfig {
            stall: Some((0, 400_000)),
            patience: 16,
            ..CheckConfig::transfer(backend)
        }
    }

    /// Targeted adversary: thread 0 crashes mid-transaction, holding its
    /// acquisitions forever (§3's crashed-owner counterexample class).
    pub fn crash_owner(backend: Backend) -> Self {
        CheckConfig {
            crash_tid: Some(0),
            patience: 16,
            max_cycles: 2_000_000,
            ..CheckConfig::increment(backend, 3, 2)
        }
    }

    /// Targeted adversary: minimal patience and maximal contention, so
    /// the abort handshake runs constantly.
    pub fn abort_storm(backend: Backend) -> Self {
        CheckConfig {
            patience: 2,
            ops_per_thread: 4,
            ..CheckConfig::transfer(backend)
        }
    }

    /// Wide abort storm: `threads` contexts (at most 64, one reader bit
    /// each) on an oversubscribed 8-core machine, minimal patience, one
    /// transfer per thread. Judged by conservation past 64 history ops
    /// (see [`crate::explore::judge`]).
    pub fn abort_storm_wide(backend: Backend, threads: usize) -> Self {
        CheckConfig {
            threads,
            hw_cores: 8,
            objects: 4,
            ops_per_thread: 1,
            patience: 2,
            initial: 4,
            max_cycles: 400_000_000,
            ..CheckConfig::transfer(backend)
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Completed operations, paired invocation/response.
    pub ops: Vec<OpRecord>,
    /// Invocations with no response (only the crashed thread's).
    pub crashed_ops: usize,
    /// The full scheduling-decision trace.
    pub decisions: Vec<Decision>,
    /// Final object values from the quiescent `ReadAll` (empty if the
    /// run died on the watchdog).
    pub final_values: Vec<u64>,
    pub stats: TmStats,
    /// Sanitizer violations (always empty for NOrec, which has none).
    pub violations: Vec<String>,
    /// The run tripped the simulator watchdog (livelock/deadlock).
    pub watchdog: bool,
    /// Merged flight-recorder trace with scheduler decisions interleaved
    /// (empty unless [`CheckConfig::trace`]).
    pub trace: nztm_core::Trace,
    /// Object addresses in allocation order — `obj_addrs[i]` is the
    /// trace-event address of workload object `i`.
    pub obj_addrs: Vec<u64>,
}

/// Run one configuration on a fresh machine.
pub fn run_config(cfg: &CheckConfig) -> RunOutcome {
    let machine = Machine::new(MachineConfig {
        max_cycles: cfg.max_cycles,
        hw_cores: cfg.hw_cores,
        ..MachineConfig::paper(cfg.threads)
    });
    machine.set_policy(cfg.policy.clone());
    machine.enable_decisions();
    let platform = SimPlatform::new(Arc::clone(&machine));
    match cfg.backend {
        Backend::Bzstm => run_on_mode::<Blocking>(cfg, &machine, &platform),
        Backend::Nzstm => run_on_mode::<Nonblocking>(cfg, &machine, &platform),
        Backend::Scss => run_on_mode::<ScssMode>(cfg, &machine, &platform),
        Backend::Hybrid => {
            let stm = nz_engine::<Nonblocking>(cfg, &platform);
            let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
            htm.install();
            let hybrid = NztmHybrid::new(Arc::clone(&stm), Arc::clone(&htm), HybridConfig::default());
            let out = run_system(cfg, &machine, &platform, &hybrid, None, || collect_violations(&stm));
            htm.uninstall();
            out
        }
        Backend::Norec => {
            let norec = NzBuilder::new(Arc::clone(&platform)).build_norec();
            run_system(cfg, &machine, &platform, &norec, None, Vec::new)
        }
    }
}

/// An NZ engine for `cfg`. Its sanitizer mirror is always armed; the
/// fault, pauses and yield points are armed as the config asks.
fn nz_engine<M: ModePolicy>(cfg: &CheckConfig, platform: &Arc<SimPlatform>) -> Arc<NzStm<SimPlatform, M>> {
    let nzc = NzConfig { patience: cfg.patience, ..NzConfig::default() };
    let stm = NzStm::new(Arc::clone(platform), cfg.cm.build(), nzc);
    stm.sanitizer().arm(cfg.inject_handshake_bug);
    if let Some((seed, max_pause)) = cfg.pause {
        stm.sanitizer().set_schedule(seed, max_pause);
    } else if cfg.yield_points || cfg.inject_handshake_bug {
        // A zero pause budget turns every protocol edge into a pure
        // scheduling decision (see NzStm::san_point).
        stm.sanitizer().set_schedule(cfg.seed, 0);
    }
    stm
}

fn collect_violations<P: nztm_sim::Platform, M: ModePolicy>(stm: &NzStm<P, M>) -> Vec<String> {
    stm.sanitizer().violations().iter().map(|v| format!("{}: {}", v.rule, v.detail)).collect()
}

/// The thread that performs the quiescent `ReadAll` snapshot.
fn reader_tid(cfg: &CheckConfig) -> usize {
    if cfg.crash_tid == Some(0) {
        1
    } else {
        0
    }
}

/// Worker body shared by every backend (crash bodies are NzStm-specific,
/// see `crash_body`).
#[allow(clippy::too_many_arguments)]
fn worker_body<S: TmSys>(
    sys: Arc<S>,
    platform: Arc<SimPlatform>,
    objs: Arc<Vec<S::Obj<u64>>>,
    log: Arc<HistoryLog>,
    done: Arc<AtomicUsize>,
    finals: Arc<Mutex<Vec<u64>>>,
    cfg: CheckConfig,
    tid: usize,
) -> Box<dyn FnOnce() + Send> {
    Box::new(move || {
        let mut rng = DetRng::new(cfg.seed).split(tid as u64);
        let n = objs.len();
        let mut stall_left = match cfg.stall {
            Some((t, cycles)) if t == tid => Some(cycles),
            _ => None,
        };
        for i in 0..cfg.ops_per_thread {
            match cfg.workload {
                Workload::Transfer => {
                    let from = rng.next_below(n as u64) as usize;
                    let mut to = rng.next_below(n as u64) as usize;
                    if to == from {
                        to = (to + 1) % n;
                    }
                    log.invoke(tid as u32, HistOp::Transfer { from: from as u32, to: to as u32 });
                    let ok = sys.execute(|tx| {
                        let a = S::read(tx, &objs[from])?;
                        let b = S::read(tx, &objs[to])?;
                        if a > 0 {
                            S::write(tx, &objs[from], &(a - 1))?;
                            // Stall while *owning* `from` (reads may be
                            // invisible; only a write pins ownership that
                            // survivors must inflate past).
                            if let Some(cycles) = stall_left.take() {
                                platform.work(cycles);
                                platform.yield_now();
                            }
                            S::write(tx, &objs[to], &(b + 1))?;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    });
                    log.ret(tid as u32, HistRet::Bool(ok));
                }
                Workload::Increment => {
                    let obj = (tid + i) % n;
                    log.invoke(tid as u32, HistOp::Increment { obj: obj as u32 });
                    sys.execute(|tx| {
                        let v = S::read(tx, &objs[obj])?;
                        S::write(tx, &objs[obj], &(v + 1))?;
                        if let Some(cycles) = stall_left.take() {
                            platform.work(cycles);
                            platform.yield_now();
                        }
                        Ok(())
                    });
                    log.ret(tid as u32, HistRet::Unit);
                }
                other => unreachable!("{other:?} runs through tds_worker_body"),
            }
        }
        done.fetch_add(1, Ordering::SeqCst);
        if tid == reader_tid(&cfg) {
            // Wait for quiescence, then snapshot every object inside one
            // transaction — the history's final, authoritative read.
            while done.load(Ordering::SeqCst) < cfg.threads {
                platform.spin_wait();
            }
            log.invoke(tid as u32, HistOp::ReadAll);
            let vals = sys.execute(|tx| {
                let mut v = Vec::with_capacity(n);
                for o in objs.iter() {
                    v.push(S::read(tx, o)?);
                }
                Ok(v)
            });
            log.ret(tid as u32, HistRet::Values(vals.clone()));
            *finals.lock() = vals;
        }
    })
}

/// The shared structure behind a tds workload run.
enum TdsStruct<S: TmSys> {
    Map(TdsHashMap<S>),
    Skip(TdsSkipList<S>),
    Queue(TdsQueue<S>),
}

impl<S: TmSys> TdsStruct<S> {
    fn build(sys: &S, cfg: &CheckConfig) -> Self {
        // Removed nodes are reused through transactional free lists, but
        // an inserting attempt that finds its list empty allocates, and
        // if it then aborts its node stays pool garbage. Abort storms
        // therefore need headroom proportional to the retry count. 200
        // attempts per operation is far beyond what any schedule inside
        // the watchdog budget produces, and a slot is built only when a
        // node lands in its chunk.
        let cap = cfg.threads * cfg.ops_per_thread * 200;
        match cfg.workload {
            // Two buckets over a 3-key universe: collisions occur, so
            // chain traversal is exercised, without serializing all keys.
            Workload::MapHash | Workload::MapHashChurn => {
                TdsStruct::Map(TdsHashMap::new(sys, 2, cap))
            }
            Workload::MapSkip | Workload::MapSkipChurn => {
                TdsStruct::Skip(TdsSkipList::new(sys, cap))
            }
            Workload::Queue => TdsStruct::Queue(TdsQueue::new(sys, cfg.objects)),
            other => unreachable!("{other:?} is not a tds workload"),
        }
    }

    fn insert(
        &self,
        sys: &S,
        tx: &mut S::Tx<'_>,
        k: u64,
        v: u64,
    ) -> Result<Option<u64>, nztm_core::txn::Abort> {
        match self {
            TdsStruct::Map(m) => m.insert_tx(sys, tx, k, v),
            TdsStruct::Skip(l) => l.insert_tx(sys, tx, k, v),
            TdsStruct::Queue(_) => unreachable!(),
        }
    }

    fn get(
        &self,
        tx: &mut S::Tx<'_>,
        k: u64,
    ) -> Result<Option<u64>, nztm_core::txn::Abort> {
        match self {
            TdsStruct::Map(m) => m.get_tx(tx, k),
            TdsStruct::Skip(l) => l.get_tx(tx, k),
            TdsStruct::Queue(_) => unreachable!(),
        }
    }

    fn remove(
        &self,
        tx: &mut S::Tx<'_>,
        k: u64,
    ) -> Result<Option<u64>, nztm_core::txn::Abort> {
        match self {
            TdsStruct::Map(m) => m.remove_tx(tx, k),
            TdsStruct::Skip(l) => l.remove_tx(tx, k),
            TdsStruct::Queue(_) => unreachable!(),
        }
    }

    fn contains(&self, tx: &mut S::Tx<'_>, k: u64) -> Result<bool, nztm_core::txn::Abort> {
        match self {
            TdsStruct::Map(m) => m.contains_tx(tx, k),
            TdsStruct::Skip(l) => l.contains_tx(tx, k),
            TdsStruct::Queue(_) => unreachable!(),
        }
    }

}

/// Worker body for the tds workloads: `ops_per_thread` random ADT
/// operations, history-recorded, then the reader thread's quiescent
/// `ReadAll` (for the maps: every key in the universe, encoded
/// `val + 1`, 0 = absent; for the queue: the contents in FIFO order).
#[allow(clippy::too_many_arguments)]
fn tds_worker_body<S: TmSys>(
    sys: Arc<S>,
    platform: Arc<SimPlatform>,
    st: Arc<TdsStruct<S>>,
    log: Arc<HistoryLog>,
    done: Arc<AtomicUsize>,
    finals: Arc<Mutex<Vec<u64>>>,
    cfg: CheckConfig,
    tid: usize,
) -> Box<dyn FnOnce() + Send> {
    Box::new(move || {
        let mut rng = DetRng::new(cfg.seed).split(tid as u64);
        let mut stall_left = match cfg.stall {
            Some((t, cycles)) if t == tid => Some(cycles),
            _ => None,
        };
        for i in 0..cfg.ops_per_thread {
            // Values are unique per (thread, op) so every write is
            // distinguishable in the history.
            let val = (tid * 1000 + i) as u64 + 1;
            // Stall (pause-owner adversary) inside the op's transaction,
            // after the ADT call has performed its writes.
            let mut stall = |platform: &SimPlatform| {
                if let Some(cycles) = stall_left.take() {
                    platform.work(cycles);
                    platform.yield_now();
                }
            };
            match &*st {
                TdsStruct::Map(_) | TdsStruct::Skip(_) => {
                    let churn =
                        matches!(cfg.workload, Workload::MapHashChurn | Workload::MapSkipChurn);
                    let (key, op) = if churn {
                        (((tid + i / 2) % cfg.objects) as u64, (i % 2) as u64)
                    } else {
                        (rng.next_below(cfg.objects as u64), rng.next_below(4))
                    };
                    match op {
                        0 => {
                            log.invoke(tid as u32, HistOp::MapInsert(key, val));
                            let r = sys.execute(|tx| {
                                let r = st.insert(&sys, tx, key, val)?;
                                stall(&platform);
                                Ok(r)
                            });
                            log.ret(tid as u32, HistRet::OptVal(r));
                        }
                        1 => {
                            log.invoke(tid as u32, HistOp::MapRemove(key));
                            let r = sys.execute(|tx| {
                                let r = st.remove(tx, key)?;
                                stall(&platform);
                                Ok(r)
                            });
                            log.ret(tid as u32, HistRet::OptVal(r));
                        }
                        2 => {
                            log.invoke(tid as u32, HistOp::MapGet(key));
                            let r = sys.execute(|tx| st.get(tx, key));
                            log.ret(tid as u32, HistRet::OptVal(r));
                        }
                        _ => {
                            log.invoke(tid as u32, HistOp::Contains(key));
                            let r = sys.execute(|tx| st.contains(tx, key));
                            log.ret(tid as u32, HistRet::Bool(r));
                        }
                    }
                }
                TdsStruct::Queue(q) => {
                    if rng.chance(1, 2) {
                        log.invoke(tid as u32, HistOp::Enqueue(val));
                        let ok = sys.execute(|tx| {
                            let r = q.enqueue_tx(tx, val)?;
                            stall(&platform);
                            Ok(r)
                        });
                        log.ret(tid as u32, HistRet::Bool(ok));
                    } else {
                        log.invoke(tid as u32, HistOp::Dequeue);
                        let r = sys.execute(|tx| {
                            let r = q.dequeue_tx(tx)?;
                            stall(&platform);
                            Ok(r)
                        });
                        log.ret(tid as u32, HistRet::OptVal(r));
                    }
                }
            }
        }
        done.fetch_add(1, Ordering::SeqCst);
        if tid == reader_tid(&cfg) {
            while done.load(Ordering::SeqCst) < cfg.threads {
                platform.spin_wait();
            }
            log.invoke(tid as u32, HistOp::ReadAll);
            let vals = match &*st {
                TdsStruct::Map(_) | TdsStruct::Skip(_) => sys.execute(|tx| {
                    let mut v = Vec::with_capacity(cfg.objects);
                    for k in 0..cfg.objects as u64 {
                        v.push(st.get(tx, k)?.map_or(0, |x| x + 1));
                    }
                    Ok(v)
                }),
                TdsStruct::Queue(q) => sys.execute(|tx| q.contents_tx(tx)),
            };
            log.ret(tid as u32, HistRet::Values(vals.clone()));
            *finals.lock() = vals;
        }
    })
}

/// Build the bodies for a tds workload run (crash bodies are raw-object
/// NzStm constructs and do not apply to ADT workloads).
fn tds_bodies<S: TmSys>(
    sys: &Arc<S>,
    platform: &Arc<SimPlatform>,
    cfg: &CheckConfig,
    log: &Arc<HistoryLog>,
    done: &Arc<AtomicUsize>,
    finals: &Arc<Mutex<Vec<u64>>>,
) -> Vec<Box<dyn FnOnce() + Send>> {
    assert!(cfg.crash_tid.is_none(), "crash bodies are word-workload-specific");
    let st = Arc::new(TdsStruct::build(&**sys, cfg));
    (0..cfg.threads)
        .map(|tid| {
            tds_worker_body(
                Arc::clone(sys),
                Arc::clone(platform),
                Arc::clone(&st),
                Arc::clone(log),
                Arc::clone(done),
                Arc::clone(finals),
                cfg.clone(),
                tid,
            )
        })
        .collect()
}

/// Crash body: performs the thread's first operation via
/// [`NzStm::run_until_crash`], abandoning the attempt with its
/// acquisitions held forever, then retires.
fn crash_body<M: ModePolicy>(
    stm: Arc<NzStm<SimPlatform, M>>,
    objs: WordObjs,
    log: Arc<HistoryLog>,
    done: Arc<AtomicUsize>,
    cfg: CheckConfig,
    tid: usize,
) -> Body {
    Box::new(move || {
        let mut rng = DetRng::new(cfg.seed).split(tid as u64);
        let n = objs.len();
        match cfg.workload {
            Workload::Transfer => {
                let from = rng.next_below(n as u64) as usize;
                let mut to = rng.next_below(n as u64) as usize;
                if to == from {
                    to = (to + 1) % n;
                }
                log.invoke(tid as u32, HistOp::Transfer { from: from as u32, to: to as u32 });
                stm.run_until_crash(|tx| {
                    let a = tx.read(&objs[from])?;
                    let b = tx.read(&objs[to])?;
                    if a > 0 {
                        tx.write(&objs[from], &(a - 1))?;
                        tx.write(&objs[to], &(b + 1))?;
                    }
                    Ok(None::<bool>)
                });
            }
            Workload::Increment => {
                let obj = tid % n;
                log.invoke(tid as u32, HistOp::Increment { obj: obj as u32 });
                stm.run_until_crash(|tx| {
                    let v = tx.read(&objs[obj])?;
                    tx.write(&objs[obj], &(v + 1))?;
                    Ok(None::<()>)
                });
            }
            other => unreachable!("{other:?} has no crash body"),
        }
        done.fetch_add(1, Ordering::SeqCst);
    })
}

/// Run the bodies, mapping a watchdog panic to an outcome instead of
/// unwinding (a crashed owner under BZSTM *must* end there).
fn run_bodies(machine: &Arc<Machine>, bodies: Vec<Box<dyn FnOnce() + Send>>) -> bool {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        machine.run(bodies);
    }));
    match res {
        Ok(()) => false,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("");
            if msg.contains("watchdog") {
                true
            } else {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

type Body = Box<dyn FnOnce() + Send>;
type WordObjs = Arc<Vec<Arc<NZObject<u64>>>>;
/// Builds thread `tid`'s crash body over the run's word objects, history
/// log and done counter (NZ engines only; see `crash_body`).
type CrashBodies<'a> = &'a dyn Fn(usize, &WordObjs, &Arc<HistoryLog>, &Arc<AtomicUsize>) -> Body;

fn run_on_mode<M: ModePolicy>(cfg: &CheckConfig, machine: &Arc<Machine>, platform: &Arc<SimPlatform>) -> RunOutcome {
    let stm = nz_engine::<M>(cfg, platform);
    let crash = |tid: usize, objs: &WordObjs, log: &Arc<HistoryLog>, done: &Arc<AtomicUsize>| {
        crash_body(Arc::clone(&stm), Arc::clone(objs), Arc::clone(log), Arc::clone(done), cfg.clone(), tid)
    };
    run_system(cfg, machine, platform, &stm, Some(&crash), || collect_violations(&stm))
}

/// The one runner: allocate the workload on `sys`, run every thread's
/// body, and collect the outcome. The caller supplies what only the NZ
/// engines have: crash bodies, and the sanitizer's violations.
fn run_system<S: TmSys<Obj<u64> = Arc<NZObject<u64>>>>(
    cfg: &CheckConfig,
    machine: &Arc<Machine>,
    platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    crash: Option<CrashBodies<'_>>,
    violations: impl FnOnce() -> Vec<String>,
) -> RunOutcome {
    let init = match cfg.workload {
        Workload::Transfer => cfg.initial,
        _ => 0,
    };
    // tds workloads allocate their structure's objects themselves.
    let n_word_objs = if cfg.workload.is_tds() { 0 } else { cfg.objects };
    let objs: WordObjs = Arc::new((0..n_word_objs).map(|_| sys.alloc(init)).collect());
    let obj_addrs: Vec<u64> = objs.iter().map(|o| o.header().addr() as u64).collect();
    if cfg.trace {
        sys.set_tracing(true);
    }
    let log = Arc::new(HistoryLog::new());
    let done = Arc::new(AtomicUsize::new(0));
    let finals = Arc::new(Mutex::new(Vec::new()));
    let bodies: Vec<Body> = if cfg.workload.is_tds() {
        tds_bodies(sys, platform, cfg, &log, &done, &finals)
    } else {
        (0..cfg.threads)
            .map(|tid| match crash {
                Some(crash) if cfg.crash_tid == Some(tid) => crash(tid, &objs, &log, &done),
                _ => {
                    assert_ne!(cfg.crash_tid, Some(tid), "crash bodies need an NZ engine");
                    worker_body(
                        Arc::clone(sys),
                        Arc::clone(platform),
                        Arc::clone(&objs),
                        Arc::clone(&log),
                        Arc::clone(&done),
                        Arc::clone(&finals),
                        cfg.clone(),
                        tid,
                    )
                }
            })
            .collect()
    };
    let watchdog = run_bodies(machine, bodies);
    let mut trace = if cfg.trace { sys.take_trace() } else { nztm_core::Trace::default() };
    let (ops, crashed_ops) = complete_ops(&log.events());
    let decisions = machine.decisions().unwrap_or_default();
    if !trace.is_empty() {
        // Decision clocks live in the same logical-cycle domain as the
        // engine events, so the scheduler timeline interleaves exactly.
        trace.merge_schedule(decisions.iter().map(|d| (d.clock, d.chosen)));
    }
    let final_values = finals.lock().clone();
    RunOutcome {
        ops,
        crashed_ops,
        decisions,
        final_values,
        stats: sys.stats_snapshot(),
        violations: violations(),
        watchdog,
        trace,
        obj_addrs,
    }
}
