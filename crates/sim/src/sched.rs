//! Cooperative min-clock scheduler.
//!
//! Each simulated core is an OS thread, but exactly one core holds the
//! *run token* at any time. Cores accumulate cycles on a private pending
//! counter; at a yield point the pending cycles are published and the run
//! token is handed to the runnable core with the smallest published clock
//! (ties broken by core id). This is the standard discrete-event rule for
//! interleaving processors in a full-system simulator and makes every run
//! deterministic.
//!
//! A useful consequence: **any real memory operations a core performs
//! between two yield points are atomic with respect to all other simulated
//! cores**. The HTM substrates and the SCSS primitive exploit this — a
//! "short hardware transaction" on the simulated platform is simply a
//! sequence of operations with no intervening yield.

use crate::attrib::{ClassStats, StructClass};
use crate::cache::{AccessKind, CacheConfig, CacheStats, CacheSystem};
use crate::costs::CostModel;
use crate::rng::DetRng;
use crate::sync::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Core id of the current thread within its machine (usize::MAX when
    /// the thread is not a simulated core).
    static CORE_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Cycles accumulated since the last publish.
    static PENDING: Cell<u64> = const { Cell::new(0) };
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub n_cores: usize,
    /// Physical cores backing the `n_cores` simulated contexts. `0` means
    /// dedicated hardware (one physical core per context, the historical
    /// behaviour). When non-zero and smaller than `n_cores` the machine is
    /// **oversubscribed**: every run-token handoff to a different context
    /// additionally charges [`CostModel::ctx_switch`] to the incoming
    /// context, modelling the OS putting more software threads on the
    /// machine than it has cores.
    pub hw_cores: usize,
    pub costs: CostModel,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// Watchdog: a core whose clock passes this bound panics the run.
    /// Guards against genuine livelock in a buggy protocol under test.
    pub max_cycles: u64,
}

impl MachineConfig {
    /// The paper's simulated-machine configuration (§4.1) for `n` cores.
    pub fn paper(n: usize) -> Self {
        MachineConfig {
            n_cores: n,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            max_cycles: u64::MAX,
        }
    }

    /// Whether token handoffs pay the context-switch penalty.
    pub fn oversubscribed(&self) -> bool {
        self.hw_cores != 0 && self.n_cores > self.hw_cores
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreState {
    Runnable,
    Done,
}

/// How the run token is handed off at scheduling decision points
/// ([`Machine::yield_now`] and core completion).
#[derive(Clone, Debug)]
pub enum SchedPolicy {
    /// Deterministic min-clock rule (the default; see module docs).
    MinClock,
    /// Seeded PCT-style random walk: every core carries a random
    /// priority and the highest-priority runnable core runs. At each
    /// decision the yielding core's priority is re-drawn with
    /// probability `1/change_denom`, so one seed explores both long
    /// uninterrupted strides and tight alternations. An anti-starvation
    /// guard reshuffles all priorities if one core monopolises the
    /// token, so spin-wait loops cannot trip the watchdog.
    Random { seed: u64, change_denom: u64 },
    /// Force the first `choices.len()` decisions to the given core ids
    /// (a forced choice is ignored when that core is not runnable),
    /// then continue with the min-clock rule. Used by bounded-exhaustive
    /// schedule exploration and failure replay (`nztm-check`).
    Replay { choices: Arc<Vec<u32>> },
}

/// One scheduling decision, recorded when [`Machine::enable_decisions`]
/// is armed: the core that received the token and the set of cores that
/// were runnable at that instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    pub chosen: u32,
    /// Bitmask over core ids `0..64`. Machines wider than 64 cores truncate
    /// the mask to the first 64 cores (`chosen` is always exact); bounded-
    /// exhaustive exploration therefore only branches over the first 64.
    pub runnable: u64,
    /// The chosen core's logical clock when it received the token — the
    /// same clock domain `SimPlatform::now()` exposes, so decision
    /// traces correlate with engine flight-recorder events.
    pub clock: u64,
}

/// Consecutive decisions for the same core under `Random` before the
/// anti-starvation reshuffle kicks in.
const STREAK_MAX: u32 = 256;

struct SchedState {
    clocks: Vec<u64>,
    state: Vec<CoreState>,
    current: usize,
    policy: SchedPolicy,
    /// Random-policy state (rebuilt at the start of every run).
    rng: DetRng,
    priorities: Vec<u64>,
    streak_core: usize,
    streak_len: u32,
    /// Decisions consumed so far (indexes `Replay` choices).
    cursor: usize,
    /// Decision trace; `None` until [`Machine::enable_decisions`].
    decisions: Option<Vec<Decision>>,
}

impl SchedState {
    /// Runnable core with minimum clock; ties broken by core id.
    fn next_core(&self) -> Option<usize> {
        self.state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == CoreState::Runnable)
            .min_by_key(|(i, _)| (self.clocks[*i], *i))
            .map(|(i, _)| i)
    }

    fn runnable_mask(&self) -> u64 {
        let mut m = 0u64;
        for (i, s) in self.state.iter().enumerate().take(64) {
            if *s == CoreState::Runnable {
                m |= 1 << i;
            }
        }
        m
    }

    /// Re-derive all per-run policy state so a Machine can host
    /// sequential runs with reproducible schedules.
    fn reset_policy(&mut self) {
        let n = self.state.len();
        let seed = match &self.policy {
            SchedPolicy::Random { seed, .. } => *seed,
            _ => 0,
        };
        self.rng = DetRng::new(seed ^ 0x5EED_0DD5_0C4E_D001);
        self.priorities = (0..n).map(|_| self.rng.next_u64()).collect();
        self.streak_core = usize::MAX;
        self.streak_len = 0;
        self.cursor = 0;
        if let Some(d) = self.decisions.as_mut() {
            d.clear();
        }
    }

    /// Pick the next token holder under the installed policy. `leaving`
    /// is the core handing off (`None` when it just finished). Records
    /// the decision when tracing is armed and advances the cursor.
    fn pick_next(&mut self, leaving: Option<usize>) -> Option<usize> {
        let chosen = match self.policy.clone() {
            SchedPolicy::MinClock => self.next_core(),
            SchedPolicy::Random { change_denom, .. } => {
                let denom = change_denom.max(1);
                if let Some(l) = leaving {
                    if self.rng.chance(1, denom) {
                        self.priorities[l] = self.rng.next_u64();
                    }
                }
                let pick = self
                    .state
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == CoreState::Runnable)
                    .max_by_key(|(i, _)| (self.priorities[*i], *i))
                    .map(|(i, _)| i);
                match pick {
                    Some(c) if c == self.streak_core => {
                        self.streak_len += 1;
                        if self.streak_len >= STREAK_MAX {
                            // Anti-starvation: reshuffle every priority and
                            // fall back to the fair min-clock rule for this
                            // one decision (a spinner's clock only grows, so
                            // min-clock favours its starved peers).
                            for p in self.priorities.iter_mut() {
                                *p = self.rng.next_u64();
                            }
                            self.streak_len = 0;
                            self.streak_core = usize::MAX;
                            self.next_core()
                        } else {
                            pick
                        }
                    }
                    Some(c) => {
                        self.streak_core = c;
                        self.streak_len = 1;
                        pick
                    }
                    None => None,
                }
            }
            SchedPolicy::Replay { choices } => match choices.get(self.cursor).copied() {
                Some(c)
                    if (c as usize) < self.state.len()
                        && self.state[c as usize] == CoreState::Runnable =>
                {
                    Some(c as usize)
                }
                _ => self.next_core(),
            },
        };
        if let Some(c) = chosen {
            let runnable = self.runnable_mask();
            if let Some(ds) = self.decisions.as_mut() {
                ds.push(Decision { chosen: c as u32, runnable, clock: self.clocks[c] });
            }
            self.cursor += 1;
        }
        chosen
    }
}

/// A simulated multiprocessor. Create one per run, spawn core bodies with
/// [`Machine::run`].
pub struct Machine {
    sched: Mutex<SchedState>,
    cv: Condvar,
    cache: Mutex<CacheSystem>,
    cfg: MachineConfig,
    /// Count of yields, for diagnostics.
    yields: AtomicU64,
    /// Line translation in first-access order. The engines charge
    /// synthetic addresses (`synth_alloc`), never host ones, so objects
    /// never share a line here whatever the host allocator does; the
    /// synthetic base still depends on what the process allocated
    /// before, and renumbering lines by first access makes the cache
    /// model — and therefore the whole simulation — deterministic.
    line_map: Mutex<std::collections::HashMap<u64, u64>>,
    next_line: AtomicU64,
    /// Coherence snoop: invoked for every memory access (after line
    /// translation) with `(core, synthetic_line, is_write)`. The HTM
    /// substrate registers one to detect conflicts between emulated
    /// hardware transactions and ordinary (software) memory traffic —
    /// the property §2.4 relies on ("a subsequent conflict ... will
    /// modify data that the hardware transaction has accessed, thereby
    /// aborting the hardware transaction").
    ///
    /// Contract: the callback must not recurse into `mem_access*`.
    snoop: Mutex<Option<Arc<SnoopFn>>>,
    /// Fast-path gate for per-structure attribution (see
    /// [`Machine::enable_attribution`]).
    attrib_on: AtomicBool,
    /// Per-class access counters, keyed by [`StructClass::index`];
    /// `None` until armed.
    attrib: Mutex<Option<[ClassStats; StructClass::COUNT]>>,
}

/// Snoop callback type; see [`Machine::set_snoop`].
pub type SnoopFn = dyn Fn(usize, u64, bool) + Send + Sync;

/// Final state of a run: per-core logical clocks and cache statistics.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-core finishing clock (cycles).
    pub clocks: Vec<u64>,
    /// Makespan — the largest finishing clock; the paper's "elapsed
    /// simulated machine cycles to complete the benchmark".
    pub makespan: u64,
    /// Per-core cache counters.
    pub cache: Vec<CacheStats>,
    /// Total scheduler handoffs (diagnostic).
    pub yields: u64,
    /// Per-structure attribution in [`StructClass::ALL`] order; `None`
    /// unless [`Machine::enable_attribution`] was called.
    pub attribution: Option<Vec<(StructClass, ClassStats)>>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Arc<Self> {
        let cache = CacheSystem::new(cfg.n_cores, cfg.l1.clone(), cfg.l2.clone(), cfg.costs.clone());
        Arc::new(Machine {
            sched: Mutex::new(SchedState {
                clocks: vec![0; cfg.n_cores],
                state: vec![CoreState::Runnable; cfg.n_cores],
                current: 0,
                policy: SchedPolicy::MinClock,
                rng: DetRng::new(0),
                priorities: vec![0; cfg.n_cores],
                streak_core: usize::MAX,
                streak_len: 0,
                cursor: 0,
                decisions: None,
            }),
            cv: Condvar::new(),
            cache: Mutex::new(cache),
            cfg,
            yields: AtomicU64::new(0),
            line_map: Mutex::new(std::collections::HashMap::new()),
            next_line: AtomicU64::new(16), // skip "NULL page" lines
            snoop: Mutex::new(None),
            attrib_on: AtomicBool::new(false),
            attrib: Mutex::new(None),
        })
    }

    /// Start attributing every charged access to the tagged structure
    /// class of its **pre-translation** address (see [`crate::attrib`]).
    /// Also arms the process-global range registry so structures built
    /// after this call get tagged. Counters are cleared at the start of
    /// each [`Machine::run`].
    pub fn enable_attribution(&self) {
        crate::attrib::arm_ranges();
        *self.attrib.lock() = Some([ClassStats::default(); StructClass::COUNT]);
        self.attrib_on.store(true, Ordering::Relaxed);
    }

    /// Per-structure counters of the last (or in-progress) run, in
    /// [`StructClass::ALL`] order; `None` unless
    /// [`Machine::enable_attribution`] was called.
    pub fn attribution(&self) -> Option<Vec<(StructClass, ClassStats)>> {
        let t = self.attrib.lock();
        t.as_ref().map(|tbl| StructClass::ALL.iter().map(|c| (*c, tbl[c.index()])).collect())
    }

    fn record_attrib(&self, addr: usize, kind: AccessKind, res: &crate::cache::AccessResult) {
        if !self.attrib_on.load(Ordering::Relaxed) {
            return;
        }
        let class = crate::attrib::classify(addr);
        if let Some(tbl) = self.attrib.lock().as_mut() {
            tbl[class.index()].record(kind, res);
        }
    }

    /// Install a scheduling policy for subsequent runs (policy state is
    /// re-derived at the start of every [`Machine::run`], so the same
    /// machine + policy replays the same schedule).
    pub fn set_policy(&self, policy: SchedPolicy) {
        let mut s = self.sched.lock();
        s.policy = policy;
        s.reset_policy();
    }

    /// The currently installed scheduling policy.
    pub fn policy(&self) -> SchedPolicy {
        self.sched.lock().policy.clone()
    }

    /// Start recording one [`Decision`] per scheduling decision (cleared
    /// and re-armed at the start of each run). Because the scheduler is
    /// deterministic, two runs of the same bodies must record identical
    /// decisions — the replay check the determinism tests use. Works at any core count;
    /// past 64 cores the recorded runnable mask covers only the first 64
    /// (see [`Decision::runnable`]).
    pub fn enable_decisions(&self) {
        self.sched.lock().decisions = Some(Vec::new());
    }

    /// The decision trace of the last (or in-progress) run; `None`
    /// unless [`Machine::enable_decisions`] was called.
    pub fn decisions(&self) -> Option<Vec<Decision>> {
        self.sched.lock().decisions.clone()
    }

    /// Install (or clear) the coherence snoop. See the field docs.
    pub fn set_snoop(&self, f: Option<Arc<SnoopFn>>) {
        *self.snoop.lock() = f;
    }

    fn run_snoop(&self, core: usize, synth_addr: u64, kind: AccessKind) {
        let snoop = self.snoop.lock().clone();
        if let Some(s) = snoop {
            s(core, synth_addr >> crate::cache::LINE_SHIFT, kind.is_write());
        }
    }

    /// Translate a host byte address to a synthetic byte address with a
    /// stable line mapping (see `line_map`). Public because the HTM
    /// substrate keys its conflict tables in the translated space (the
    /// same space the snoop reports and eviction results use).
    pub fn translate(&self, addr: usize) -> u64 {
        let line = addr as u64 >> crate::cache::LINE_SHIFT;
        let offset = addr as u64 & (crate::cache::LINE_BYTES - 1);
        let mut map = self.line_map.lock();
        let synth = *map
            .entry(line)
            .or_insert_with(|| self.next_line.fetch_add(1, Ordering::Relaxed));
        (synth << crate::cache::LINE_SHIFT) | offset
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run one body per core to completion and return the report.
    ///
    /// Panics in a body are propagated (the run is torn down and the panic
    /// re-raised), so assertion failures inside simulated code surface as
    /// ordinary test failures.
    pub fn run(self: &Arc<Self>, bodies: Vec<Box<dyn FnOnce() + Send>>) -> RunReport {
        assert_eq!(bodies.len(), self.cfg.n_cores, "one body per core");
        // Reset scheduler state so a Machine can host sequential runs.
        {
            let mut s = self.sched.lock();
            s.clocks.iter_mut().for_each(|c| *c = 0);
            s.state.iter_mut().for_each(|st| *st = CoreState::Runnable);
            s.current = 0;
            s.reset_policy();
        }
        if let Some(tbl) = self.attrib.lock().as_mut() {
            *tbl = [ClassStats::default(); StructClass::COUNT];
        }

        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| {
                let m = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("simcore-{id}"))
                    .spawn(move || {
                        CORE_ID.with(|c| c.set(id));
                        PENDING.with(|p| p.set(0));
                        m.wait_for_token(id);
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                        m.finish(id);
                        CORE_ID.with(|c| c.set(usize::MAX));
                        if let Err(p) = result {
                            std::panic::resume_unwind(p);
                        }
                    })
                    .expect("spawn simulated core")
            })
            .collect();

        let mut panicked = None;
        for h in handles {
            if let Err(p) = h.join() {
                panicked = Some(p);
            }
        }
        if let Some(p) = panicked {
            std::panic::resume_unwind(p);
        }

        let s = self.sched.lock();
        let cache = self.cache.lock();
        RunReport {
            clocks: s.clocks.clone(),
            makespan: s.clocks.iter().copied().max().unwrap_or(0),
            cache: cache.stats.clone(),
            yields: self.yields.load(Ordering::Relaxed),
            attribution: self.attribution(),
        }
    }

    fn wait_for_token(&self, id: usize) {
        let mut s = self.sched.lock();
        while s.current != id {
            self.cv.wait(&mut s);
        }
    }

    fn finish(&self, id: usize) {
        let pending = PENDING.with(|p| p.take());
        let mut s = self.sched.lock();
        s.clocks[id] += pending;
        s.state[id] = CoreState::Done;
        if let Some(next) = s.pick_next(None) {
            self.charge_switch_in(&mut s, next);
            s.current = next;
            self.cv.notify_all();
        }
    }

    /// On an oversubscribed machine, a context that receives the token
    /// from a *different* context pays the OS context-switch penalty.
    /// Charged to the incoming context's published clock, after the
    /// scheduling decision (so the pick itself is unaffected).
    fn charge_switch_in(&self, s: &mut SchedState, next: usize) {
        if self.cfg.oversubscribed() {
            s.clocks[next] += self.cfg.costs.ctx_switch;
        }
    }

    /// Current core id; panics when called off a simulated core thread.
    pub fn core_id(&self) -> usize {
        let id = CORE_ID.with(|c| c.get());
        assert!(id != usize::MAX, "not on a simulated core thread");
        id
    }

    /// Charge straight-line compute to the calling core.
    pub fn work(&self, cycles: u64) {
        PENDING.with(|p| p.set(p.get() + cycles));
    }

    /// Publish pending cycles and hand the run token to the minimum-clock
    /// runnable core (possibly this one).
    pub fn yield_now(&self) {
        let id = self.core_id();
        let pending = PENDING.with(|p| p.take());
        let mut s = self.sched.lock();
        s.clocks[id] += pending;
        if s.clocks[id] > self.cfg.max_cycles {
            panic!(
                "sim watchdog: core {id} passed {} cycles — livelock or runaway workload",
                self.cfg.max_cycles
            );
        }
        let next = s.pick_next(Some(id)).expect("current core is runnable");
        if next != id {
            self.charge_switch_in(&mut s, next);
            self.yields.fetch_add(1, Ordering::Relaxed);
            s.current = next;
            self.cv.notify_all();
            while s.current != id {
                self.cv.wait(&mut s);
            }
        }
    }

    /// Charge a memory access for the calling core and yield.
    ///
    /// Returns the cache result so HTM layers can observe evictions.
    pub fn mem_access(&self, addr: usize, kind: AccessKind) -> crate::cache::AccessResult {
        let id = self.core_id();
        let synth = self.translate(addr);
        let res = { self.cache.lock().access(id, synth, kind) };
        self.record_attrib(addr, kind, &res);
        self.run_snoop(id, synth, kind);
        self.work(res.latency);
        self.yield_now();
        res
    }

    /// Charge a memory access **without yielding** — used inside emulated
    /// hardware atomicity (SCSS, HTM commit) where the whole sequence must
    /// execute without interleaving.
    pub fn mem_access_atomic(&self, addr: usize, kind: AccessKind) -> crate::cache::AccessResult {
        let id = self.core_id();
        let synth = self.translate(addr);
        let res = { self.cache.lock().access(id, synth, kind) };
        self.record_attrib(addr, kind, &res);
        self.run_snoop(id, synth, kind);
        self.work(res.latency);
        res
    }

    /// Logical time of the calling core (published + pending cycles).
    pub fn now(&self) -> u64 {
        let id = self.core_id();
        let published = self.sched.lock().clocks[id];
        published + PENDING.with(|p| p.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as O};

    fn tiny_machine(n: usize) -> Arc<Machine> {
        Machine::new(MachineConfig {
            n_cores: n,
            hw_cores: 0,
            costs: CostModel::uniform(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: 10_000_000,
        })
    }

    /// `n` contexts multiplexed onto `hw` physical cores.
    fn oversub_machine(n: usize, hw: usize) -> Arc<Machine> {
        Machine::new(MachineConfig {
            n_cores: n,
            hw_cores: hw,
            costs: CostModel::uniform(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: 10_000_000,
        })
    }

    #[test]
    fn single_core_runs_to_completion() {
        let m = tiny_machine(1);
        let mc = Arc::clone(&m);
        let r = m.run(vec![Box::new(move || {
            mc.work(100);
            mc.yield_now();
            mc.work(23);
        })]);
        assert_eq!(r.clocks[0], 123);
        assert_eq!(r.makespan, 123);
    }

    #[test]
    fn min_clock_core_runs_first() {
        // Core 0 charges a lot, then both append to a log; the low-clock
        // core must interleave ahead.
        let m = tiny_machine(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (m0, m1) = (Arc::clone(&m), Arc::clone(&m));
        let (l0, l1) = (Arc::clone(&log), Arc::clone(&log));
        m.run(vec![
            Box::new(move || {
                m0.work(1000);
                m0.yield_now(); // hand off to core 1 (clock 0 < 1000)
                l0.lock().push(0u32);
            }),
            Box::new(move || {
                m1.work(1);
                m1.yield_now();
                l1.lock().push(1u32);
            }),
        ]);
        assert_eq!(*log.lock(), vec![1, 0]);
    }

    #[test]
    fn deterministic_interleaving() {
        let order = |_: ()| {
            let m = tiny_machine(3);
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
                .map(|i| {
                    let m = Arc::clone(&m);
                    let log = Arc::clone(&log);
                    Box::new(move || {
                        for step in 0..5u64 {
                            m.work((i as u64 + 1) * 7 + step);
                            m.yield_now();
                            log.lock().push(i);
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            m.run(bodies);
            let v = log.lock().clone();
            v
        };
        assert_eq!(order(()), order(()));
    }

    #[test]
    fn atomicity_between_yields() {
        // A core that increments a shared counter twice without yielding
        // can never expose an odd value to the other core.
        let m = tiny_machine(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let odd_seen = Arc::new(AtomicUsize::new(0));
        let (m0, m1) = (Arc::clone(&m), Arc::clone(&m));
        let (c0, c1) = (Arc::clone(&counter), Arc::clone(&counter));
        let odd = Arc::clone(&odd_seen);
        m.run(vec![
            Box::new(move || {
                for _ in 0..100 {
                    c0.fetch_add(1, O::SeqCst);
                    c0.fetch_add(1, O::SeqCst);
                    m0.work(3);
                    m0.yield_now();
                }
            }),
            Box::new(move || {
                for _ in 0..100 {
                    if c1.load(O::SeqCst) % 2 == 1 {
                        odd.fetch_add(1, O::SeqCst);
                    }
                    m1.work(2);
                    m1.yield_now();
                }
            }),
        ]);
        assert_eq!(odd_seen.load(O::SeqCst), 0);
    }

    #[test]
    fn mem_access_charges_latency() {
        let m = Machine::new(MachineConfig {
            n_cores: 1,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: u64::MAX,
        });
        let mc = Arc::clone(&m);
        let r = m.run(vec![Box::new(move || {
            mc.mem_access(0x1000, AccessKind::Read); // memory: 200
            mc.mem_access(0x1000, AccessKind::Read); // L1 hit: 1
        })]);
        assert_eq!(r.clocks[0], 201);
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_fires() {
        let m = Machine::new(MachineConfig {
            n_cores: 1,
            hw_cores: 0,
            costs: CostModel::uniform(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: 1000,
        });
        let mc = Arc::clone(&m);
        m.run(vec![Box::new(move || loop {
            mc.work(100);
            mc.yield_now();
        })]);
    }

    #[test]
    #[should_panic(expected = "inner panic")]
    fn body_panics_propagate() {
        let m = tiny_machine(2);
        let mc = Arc::clone(&m);
        m.run(vec![
            Box::new(move || {
                mc.work(1);
                mc.yield_now();
                panic!("inner panic");
            }),
            Box::new(|| {}),
        ]);
    }

    #[test]
    fn machine_is_reusable() {
        let m = tiny_machine(1);
        for _ in 0..3 {
            let mc = Arc::clone(&m);
            let r = m.run(vec![Box::new(move || {
                mc.work(10);
            })]);
            assert_eq!(r.clocks[0], 10);
        }
    }

    #[test]
    fn schedule_trace_is_replayable() {
        let run_once = || {
            let m = tiny_machine(3);
            m.enable_decisions();
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
                .map(|i| {
                    let m = Arc::clone(&m);
                    Box::new(move || {
                        for step in 0..6u64 {
                            m.work((i as u64 + 1) * 5 + step * 3);
                            m.yield_now();
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            m.run(bodies);
            m.decisions().expect("decisions enabled")
        };
        let a = run_once();
        let b = run_once();
        assert!(!a.is_empty(), "multi-core run must make decisions");
        assert_eq!(a, b, "same bodies, identical decisions");
    }

    #[test]
    fn trace_disabled_by_default_and_reset_between_runs() {
        let m = tiny_machine(2);
        let run = |m: &Arc<Machine>| {
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|i| {
                    let mc = Arc::clone(m);
                    Box::new(move || {
                        mc.work(i + 1);
                        mc.yield_now();
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            m.run(bodies);
        };
        run(&m);
        assert!(m.decisions().is_none());
        m.enable_decisions();
        run(&m);
        let first = m.decisions().expect("armed");
        assert!(!first.is_empty());
        run(&m);
        assert_eq!(m.decisions().expect("still armed"), first);
    }

    type LoggedBodies = (Vec<Box<dyn FnOnce() + Send>>, Arc<Mutex<Vec<usize>>>);

    fn logged_bodies(m: &Arc<Machine>, n: usize) -> LoggedBodies {
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..n)
            .map(|i| {
                let m = Arc::clone(m);
                let log = Arc::clone(&log);
                Box::new(move || {
                    for step in 0..4u64 {
                        m.work((i as u64 + 1) * 7 + step);
                        m.yield_now();
                        log.lock().push(i);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        (bodies, log)
    }

    #[test]
    fn random_policy_is_deterministic_and_seed_sensitive() {
        let order = |seed: u64| {
            let m = tiny_machine(3);
            m.set_policy(SchedPolicy::Random { seed, change_denom: 4 });
            let (bodies, log) = logged_bodies(&m, 3);
            m.run(bodies);
            let v = log.lock().clone();
            v
        };
        assert_eq!(order(7), order(7), "same seed, same schedule");
        let distinct = (0..16).map(order).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "different seeds must explore different schedules");
    }

    #[test]
    fn random_policy_does_not_starve_spinners_out() {
        // Same shape as spin_waiter_lets_peer_progress, under Random:
        // the anti-starvation reshuffle must eventually run core 1.
        for seed in 0..8 {
            let m = tiny_machine(2);
            m.set_policy(SchedPolicy::Random { seed, change_denom: 64 });
            let flag = Arc::new(AtomicUsize::new(0));
            let (m0, m1) = (Arc::clone(&m), Arc::clone(&m));
            let (f0, f1) = (Arc::clone(&flag), Arc::clone(&flag));
            m.run(vec![
                Box::new(move || {
                    while f0.load(O::SeqCst) == 0 {
                        m0.work(5);
                        m0.yield_now();
                    }
                }),
                Box::new(move || {
                    m1.work(500);
                    m1.yield_now();
                    f1.store(1, O::SeqCst);
                }),
            ]);
        }
    }

    #[test]
    fn decisions_record_chosen_and_runnable() {
        let m = tiny_machine(2);
        m.enable_decisions();
        let (bodies, _log) = logged_bodies(&m, 2);
        m.run(bodies);
        let ds = m.decisions().expect("armed");
        assert!(!ds.is_empty());
        for d in &ds {
            assert!(d.runnable & (1 << d.chosen) != 0, "chosen core was runnable: {d:?}");
        }
        // Early decisions see both cores runnable.
        assert_eq!(ds[0].runnable, 0b11);
    }

    #[test]
    fn replay_of_recorded_decisions_reproduces_the_run() {
        // Record a random-walk run, then force its full decision list
        // under Replay: the interleaving must be identical.
        let m = tiny_machine(3);
        m.enable_decisions();
        m.set_policy(SchedPolicy::Random { seed: 42, change_denom: 3 });
        let (bodies, log) = logged_bodies(&m, 3);
        m.run(bodies);
        let recorded = m.decisions().expect("armed");
        let first = log.lock().clone();

        let m2 = tiny_machine(3);
        m2.enable_decisions();
        let choices: Vec<u32> = recorded.iter().map(|d| d.chosen).collect();
        m2.set_policy(SchedPolicy::Replay { choices: Arc::new(choices) });
        let (bodies, log2) = logged_bodies(&m2, 3);
        m2.run(bodies);
        assert_eq!(*log2.lock(), first, "forced replay reproduces the interleaving");
        assert_eq!(m2.decisions().expect("armed"), recorded);
    }

    #[test]
    fn replay_prefix_falls_back_to_min_clock() {
        // An empty prefix is exactly the min-clock schedule.
        let run = |policy: Option<SchedPolicy>| {
            let m = tiny_machine(3);
            if let Some(p) = policy {
                m.set_policy(p);
            }
            let (bodies, log) = logged_bodies(&m, 3);
            m.run(bodies);
            let v = log.lock().clone();
            v
        };
        let baseline = run(None);
        let empty = run(Some(SchedPolicy::Replay { choices: Arc::new(Vec::new()) }));
        assert_eq!(empty, baseline);
        // A non-runnable forced choice is ignored, not an error.
        let bogus = run(Some(SchedPolicy::Replay { choices: Arc::new(vec![31; 4]) }));
        assert_eq!(bogus, baseline);
    }

    #[test]
    fn attribution_counts_tagged_structures() {
        use crate::attrib::{synth_alloc_as, StructClass};
        let m = tiny_machine(2);
        m.enable_attribution();
        let stripes = synth_alloc_as(128, StructClass::ReaderStripes);
        let bufs = synth_alloc_as(64, StructClass::WordBufs);
        let (m0, m1) = (Arc::clone(&m), Arc::clone(&m));
        let r = m.run(vec![
            Box::new(move || {
                for _ in 0..4 {
                    m0.mem_access(stripes, AccessKind::Rmw);
                    m0.mem_access(bufs, AccessKind::Read);
                }
            }),
            Box::new(move || {
                for _ in 0..4 {
                    m1.mem_access(stripes + 64, AccessKind::Rmw);
                }
            }),
        ]);
        let attr = r.attribution.expect("armed");
        let get = |c: StructClass| attr.iter().find(|(k, _)| *k == c).unwrap().1;
        let s = get(StructClass::ReaderStripes);
        assert_eq!(s.accesses, 8);
        assert_eq!(s.writes, 8);
        let b = get(StructClass::WordBufs);
        assert_eq!(b.accesses, 4);
        assert_eq!(b.writes, 0);
        assert!(b.l1_hits >= 3, "repeat reads of a private line hit L1");
        assert_eq!(get(StructClass::Other).accesses, 0);
        // Counters reset between runs.
        let r2 = m.run(vec![Box::new(|| {}), Box::new(|| {})]);
        let attr2 = r2.attribution.expect("still armed");
        assert!(attr2.iter().all(|(_, s)| s.accesses == 0));
    }

    #[test]
    fn spin_waiter_lets_peer_progress() {
        // Core 0 spins until core 1 sets a flag; the scheduler must let
        // core 1 run even though core 0 never blocks.
        let m = tiny_machine(2);
        let flag = Arc::new(AtomicUsize::new(0));
        let (m0, m1) = (Arc::clone(&m), Arc::clone(&m));
        let (f0, f1) = (Arc::clone(&flag), Arc::clone(&flag));
        let r = m.run(vec![
            Box::new(move || {
                while f0.load(O::SeqCst) == 0 {
                    m0.work(5);
                    m0.yield_now();
                }
            }),
            Box::new(move || {
                m1.work(500);
                m1.yield_now();
                f1.store(1, O::SeqCst);
            }),
        ]);
        assert!(r.clocks[0] >= 500, "spinner waited for the peer's clock");
    }

    #[test]
    fn oversubscription_charges_context_switches() {
        let run = |m: Arc<Machine>| {
            let (bodies, _log) = logged_bodies(&m, 4);
            m.run(bodies)
        };
        let dedicated = run(tiny_machine(4));
        let oversub = run(oversub_machine(4, 1));
        // Same bodies, same (uniform) cost model; the only difference is the
        // ctx_switch charge (1 cycle under uniform) per cross-context handoff.
        assert!(
            oversub.makespan > dedicated.makespan,
            "oversubscribed run must pay switch penalties: {} vs {}",
            oversub.makespan,
            dedicated.makespan
        );
        // hw_cores >= n_cores is not oversubscription — no charge.
        let full = run(oversub_machine(4, 4));
        assert_eq!(full.makespan, dedicated.makespan);
    }

    #[test]
    fn oversubscribed_runs_are_deterministic() {
        let order = |_: ()| {
            let m = oversub_machine(3, 2);
            let (bodies, log) = logged_bodies(&m, 3);
            m.run(bodies);
            let v = log.lock().clone();
            v
        };
        assert_eq!(order(()), order(()));
    }

    #[test]
    fn policies_and_decision_recording_work_past_32_cores() {
        let m = tiny_machine(40);
        m.set_policy(SchedPolicy::Random { seed: 9, change_denom: 4 });
        m.enable_decisions();
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..40)
            .map(|i| {
                let m = Arc::clone(&m);
                Box::new(move || {
                    m.work(i as u64 + 1);
                    m.yield_now();
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        let ds = m.decisions().expect("armed");
        assert!(!ds.is_empty());
        for d in &ds {
            assert!((d.chosen as usize) < 40);
            assert!(d.runnable & (1u64 << d.chosen) != 0, "chosen core was runnable: {d:?}");
        }
        // A mask that needs more than 32 bits must be representable.
        assert!(ds[0].runnable > u64::from(u32::MAX), "all 40 cores runnable at the first decision");
    }
}
