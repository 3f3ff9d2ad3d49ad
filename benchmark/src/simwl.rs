//! The two workloads on the simulated machine: the NZTM hybrid
//! (`NztmHybrid<SimPlatform, BestEffortHtm>`) on `MachineConfig::paper(4)`.
//!
//! Everything reported end to end is in simulated cycles and is a pure
//! function of `(seed, seconds)`: the operation count is fixed by the
//! requested window, not by how fast the host simulates. Host time
//! appears only as the per-layer `sim.host_ops_per_s`.

use crate::native::panic_text;
use crate::run::{self, Metrics, Outcome, RunCfg};
use crate::span::{Counters, OpSpan, Recorder, C};
use crate::workloads::{kv_apply, kv_layer_counts, kv_populate, KV_KINDS};
use nztm_core::{NzBuilder, TmStats, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::sync::Mutex;
use nztm_sim::{DetRng, Machine, MachineConfig, Platform, RunReport, SimPlatform};
use nztm_workloads::harness::TransferBank;
use nztm_workloads::kv::{KvOp, KvTraceCfg, KvTraceGen, ShardedKv};
use std::sync::Arc;
use std::time::Instant;

pub const CORES: usize = 4;
const SETUP_BUILDS: usize = 25;
type Sys = NztmHybrid;

pub trait SimWorkload: Send + Sync + Sized + 'static {
    const KINDS: &'static [&'static str];
    /// Measured and warm-up operations per core for each second of the
    /// requested window. Sized so that the reference host simulates the
    /// window in about that long, and so that ten seeds agree: at half
    /// these counts p99 moved 10 % from seed to seed.
    const OPS_PER_SECOND: u64;
    const WARM_PER_SECOND: u64;
    type Core: Send + 'static;

    /// Build on simulated core 0 (allocation charges the cache model).
    fn build(sys: &Sys) -> Self;
    fn core(seed: u64, core: usize) -> Self::Core;
    fn op(&self, sys: &Sys, c: &mut Self::Core) -> (u8, bool);
    /// Quiescent check, off the machine.
    fn oracle(&self) -> Result<(), String>;
    /// `--break-oracle`, applied to core 0 after warm-up; `Err` when the
    /// workload keeps its oracle inputs out of reach.
    fn corrupt(core0: &mut Self::Core) -> Result<(), String>;
    fn layer_counts(delta: &Counters, ops: u64, m: &mut Metrics);
}

// ---------------------------------------------------------------------
// hybrid-kv-sim
// ---------------------------------------------------------------------

const SIM_KV_USERS: u64 = 1_024;

pub struct HybridKv(ShardedKv<Sys>);

/// Core `core`'s request stream.
pub fn sim_kv_trace(seed: u64, core: usize) -> KvTraceGen {
    let cfg = KvTraceCfg {
        users: SIM_KV_USERS,
        ..KvTraceCfg::million_users()
    };
    KvTraceGen::new(cfg, seed, core as u64 + 1)
}

pub struct KvCore {
    gen: KvTraceGen,
    poisoned: bool,
}

impl SimWorkload for HybridKv {
    const KINDS: &'static [&'static str] = KV_KINDS;
    const OPS_PER_SECOND: u64 = 1_000;
    const WARM_PER_SECOND: u64 = 125;
    type Core = KvCore;

    fn build(sys: &Sys) -> Self {
        let kv = ShardedKv::new(sys, 4, 128, SIM_KV_USERS as usize, 1_000);
        kv_populate(&kv, sys, SIM_KV_USERS);
        HybridKv(kv)
    }

    fn core(seed: u64, core: usize) -> KvCore {
        KvCore {
            gen: sim_kv_trace(seed, core),
            poisoned: false,
        }
    }

    fn op(&self, sys: &Sys, c: &mut KvCore) -> (u8, bool) {
        if std::mem::take(&mut c.poisoned) {
            return kv_apply(&self.0, sys, &KvOp::Get(SIM_KV_USERS));
        }
        kv_apply(&self.0, sys, &c.gen.next())
    }

    fn oracle(&self) -> Result<(), String> {
        self.0.assert_conserved();
        Ok(())
    }

    fn corrupt(core0: &mut KvCore) -> Result<(), String> {
        core0.poisoned = true;
        Ok(())
    }

    fn layer_counts(delta: &Counters, ops: u64, m: &mut Metrics) {
        kv_layer_counts(delta, ops, m);
    }
}

// ---------------------------------------------------------------------
// hybrid-bank-sim
// ---------------------------------------------------------------------

pub struct HybridBank(TransferBank<Sys>);

impl SimWorkload for HybridBank {
    const KINDS: &'static [&'static str] = &["bank.one_op"];
    const OPS_PER_SECOND: u64 = 340;
    const WARM_PER_SECOND: u64 = 42;
    type Core = DetRng;

    fn build(sys: &Sys) -> Self {
        HybridBank(TransferBank::new(sys, 64, 1_000))
    }

    fn core(seed: u64, core: usize) -> DetRng {
        DetRng::new(seed).split(core as u64 + 1)
    }

    fn op(&self, sys: &Sys, rng: &mut DetRng) -> (u8, bool) {
        // 7/8 transfers, 1/8 audits of all 64 accounts; the audit asserts
        // the total inside its transaction.
        self.0.one_op(sys, rng);
        (0, true)
    }

    fn oracle(&self) -> Result<(), String> {
        self.0.assert_conserved();
        Ok(())
    }

    fn corrupt(_core0: &mut DetRng) -> Result<(), String> {
        Err("hybrid-bank-sim has no oracle input within reach: TransferBank keeps its accounts private".into())
    }

    fn layer_counts(_delta: &Counters, _ops: u64, _m: &mut Metrics) {}
}

// ---------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------

/// One machine with the hybrid installed and the workload built on it.
struct Cell<W: SimWorkload> {
    machine: Arc<Machine>,
    platform: Arc<SimPlatform>,
    htm: Arc<BestEffortHtm>,
    sys: Arc<Sys>,
    wl: Arc<W>,
}

impl<W: SimWorkload> Cell<W> {
    fn build(attribution: bool) -> Self {
        let machine = Machine::new(MachineConfig::paper(CORES));
        if attribution {
            // Before the engine exists, so its structures get tagged.
            machine.enable_attribution();
        }
        let platform = SimPlatform::new(Arc::clone(&machine));
        let stm = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
        let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
        htm.install();
        let sys = NztmHybrid::new(stm, Arc::clone(&htm), HybridConfig::default());
        let slot: Arc<Mutex<Option<W>>> = Arc::new(Mutex::new(None));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        let (slot2, sys2) = (Arc::clone(&slot), Arc::clone(&sys));
        bodies.push(Box::new(move || *slot2.lock() = Some(W::build(&sys2))));
        bodies.extend((1..CORES).map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>));
        machine.run(bodies);
        let wl = Arc::new(slot.lock().take().expect("core 0 built the workload"));
        Cell {
            machine,
            platform,
            htm,
            sys,
            wl,
        }
    }
}

impl<W: SimWorkload> Drop for Cell<W> {
    fn drop(&mut self) {
        self.htm.uninstall();
    }
}

/// What one phase on the machine produced.
pub struct Phase {
    pub report: RunReport,
    /// Per core: one span per operation, in that core's cycles.
    pub spans: Vec<Vec<OpSpan>>,
    pub failed: u64,
    pub host_s: f64,
}

fn run_phase<W: SimWorkload>(cell: &Cell<W>, cores: &Arc<Vec<Mutex<W::Core>>>, ops: u64) -> Phase {
    // Per core: its spans and its failed-operation count.
    type CoreResult = Mutex<(Vec<OpSpan>, u64)>;
    let results: Arc<Vec<CoreResult>> =
        Arc::new((0..CORES).map(|_| Mutex::new((Vec::new(), 0))).collect());
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..CORES)
        .map(|core| {
            let (sys, wl, platform) = (
                Arc::clone(&cell.sys),
                Arc::clone(&cell.wl),
                Arc::clone(&cell.platform),
            );
            let (cores, results) = (Arc::clone(cores), Arc::clone(&results));
            Box::new(move || {
                let mut state = cores[core].lock();
                let mut spans = Vec::with_capacity(ops as usize);
                let mut failed = 0;
                for _ in 0..ops {
                    let start = platform.now();
                    let (kind, ok) = wl.op(&sys, &mut state);
                    spans.push(OpSpan {
                        kind,
                        start,
                        end: platform.now(),
                    });
                    failed += !ok as u64;
                }
                *results[core].lock() = (spans, failed);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let t = Instant::now();
    let report = cell.machine.run(bodies);
    let host_s = t.elapsed().as_secs_f64();
    let mut phase = Phase {
        report,
        spans: Vec::new(),
        failed: 0,
        host_s,
    };
    for r in results.iter() {
        let (spans, failed) = std::mem::take(&mut *r.lock());
        phase.spans.push(spans);
        phase.failed += failed;
    }
    phase
}

/// Everything the measured phase of one cell yields; the self-tests
/// compare two of these for identity.
pub struct Measured {
    pub phase: Phase,
    pub warm: RunReport,
    /// Cumulative since the cell was built; the self-tests compare it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub stats: TmStats,
    pub delta: Counters,
    pub oracle: Result<(), String>,
    pub ops: u64,
}

pub fn ops_per_core<W: SimWorkload>(seconds: u64) -> (u64, u64) {
    (W::WARM_PER_SECOND * seconds, W::OPS_PER_SECOND * seconds)
}

/// Build a cell, warm it, run the measured phase and check the oracle.
pub fn measure<W: SimWorkload>(
    seed: u64,
    seconds: u64,
    attribution: bool,
    break_oracle: bool,
) -> Result<Measured, String> {
    let cell = Cell::<W>::build(attribution);
    measure_on(&cell, seed, seconds, break_oracle)
}

fn measure_on<W: SimWorkload>(
    cell: &Cell<W>,
    seed: u64,
    seconds: u64,
    break_oracle: bool,
) -> Result<Measured, String> {
    let (warm_ops, ops) = ops_per_core::<W>(seconds);
    let cores: Arc<Vec<Mutex<W::Core>>> =
        Arc::new((0..CORES).map(|c| Mutex::new(W::core(seed, c))).collect());
    let warm = run_phase(cell, &cores, warm_ops);
    if break_oracle {
        W::corrupt(&mut cores[0].lock())?;
    }
    let before = cell.sys.stats_snapshot();
    let phase = run_phase(cell, &cores, ops);
    let stats = cell.sys.stats_snapshot();
    let oracle = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell.wl.oracle()))
        .unwrap_or_else(|p| Err(panic_text(p)));
    Ok(Measured {
        phase,
        warm: warm.report,
        delta: Counters::of(&stats).since(&Counters::of(&before)),
        stats,
        oracle,
        ops: ops * CORES as u64,
    })
}

pub fn run<W: SimWorkload>(cfg: &RunCfg) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    // Set-up is building the machine, the hybrid and the pre-populated
    // workload (a simulated run of its own on core 0), in host seconds.
    let (cell, setup_s) = run::measure_setup(run::Builds::Exactly(SETUP_BUILDS), || {
        Cell::<W>::build(cfg.trace)
    });
    // A panic on a simulated core (the bank's in-transaction audit, an
    // exhausted pool) is re-raised by `Machine::run`: a failed run.
    let measured = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        measure_on(&cell, cfg.seed, cfg.seconds, cfg.break_oracle)
    }))
    .unwrap_or_else(|p| Err(format!("simulated core panicked: {}", panic_text(p))));
    let mut me = match measured {
        Ok(me) => me,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.errors.push(e);
            return (out, rec);
        }
    };
    out.attempted = me.ops;
    out.failed = me.phase.failed;
    if let Err(e) = &me.oracle {
        out.errors.push(e.clone());
        out.failed = me.ops;
    }
    let ops = me.ops as f64;
    out.notes.push(format!(
        "measured {} ops on {CORES} simulated cores in {:.2} host s; makespan {} cycles; {:.1} % of {} transactions committed in hardware",
        me.ops,
        me.phase.host_s,
        me.phase.report.makespan,
        100.0 * me.delta.per(C::HtmCommits, me.delta[C::Commits]),
        me.delta[C::Commits]
    ));

    if !cfg.trace {
        let mut cycles: Vec<u32> = me
            .phase
            .spans
            .iter()
            .flatten()
            .map(|s| (s.end - s.start).min(u32::MAX as u64) as u32)
            .collect();
        let latency = [run::slice_latency(&mut cycles)];
        let tick_per_op = me.phase.report.makespan as f64 / ops;
        run::end_to_end_metrics(&mut out, tick_per_op, &latency, "cycles", setup_s);
        return (out, rec);
    }

    // The traced run's cell has attribution armed and keeps every span.
    // A plain cell on a quarter of the window gives the simulator's
    // untraced host speed; the ratio of the two speeds is the overhead.
    // (Host speeds: noisy, informational, never end to end.)
    let plain =
        measure::<W>(cfg.seed, (cfg.seconds / 4).max(1), false, false).expect("nothing to corrupt");
    let plain_speed = plain.ops as f64 / plain.phase.host_s;
    let m = &mut out.metrics;
    m.set("sim.host_ops_per_s", plain_speed);
    m.set(
        "driver.trace_overhead_share",
        1.0 - (ops / me.phase.host_s) / plain_speed,
    );

    let root = rec.new_id();
    let slice = rec.new_id();
    rec.span(slice, root, "slice.traced", 0, me.phase.report.makespan);
    rec.counters(slice, me.delta);
    for (core, spans) in std::mem::take(&mut me.phase.spans).into_iter().enumerate() {
        rec.ops(slice, core, W::KINDS, spans);
    }
    rec.root(
        root,
        &format!("workload:{}", cfg.workload.name),
        0,
        me.phase.report.makespan,
        "cycles",
    );

    run::counter_metrics(&me.delta, m);
    W::layer_counts(&me.delta, me.ops, m);
    let d = &me.delta;
    let txns = d[C::Commits];
    m.set("htm.hw_commit_share", d.per(C::HtmCommits, txns));
    m.set("htm.fallback_share", d.per(C::Fallbacks, txns));
    m.set(
        "htm.hw_attempts_per_commit",
        (d[C::HtmCommits] + d[C::HtmAborts]) as f64 / txns.max(1) as f64,
    );
    for (reason, count) in [
        ("conflict", C::HtmConflictAborts),
        ("capacity", C::HtmCapacityAborts),
        ("explicit", C::HtmExplicitAborts),
        ("other", C::HtmOtherAborts),
    ] {
        m.set(
            &format!("htm.{reason}_aborts_per_kop"),
            1e3 * d.per(count, me.ops),
        );
    }

    // Cache counters accumulate over a machine's runs: subtract warm-up.
    let cache = |f: fn(&nztm_sim::cache::CacheStats) -> u64| {
        let sum = |r: &RunReport| r.cache.iter().map(f).sum::<u64>();
        (sum(&me.phase.report) - sum(&me.warm)) as f64
    };
    let (l1, l2, mem, remote) = (
        cache(|c| c.l1_hits),
        cache(|c| c.l2_hits),
        cache(|c| c.mem_accesses),
        cache(|c| c.remote_transfers),
    );
    m.set(
        "sim.yields_per_op",
        (me.phase.report.yields - me.warm.yields) as f64 / ops,
    );
    m.set("sim.l1_hit_share", l1 / (l1 + l2 + mem + remote));
    m.set("sim.l2_hits_per_op", l2 / ops);
    m.set("sim.mem_per_op", mem / ops);
    m.set("sim.remote_transfers_per_op", remote / ops);
    m.set(
        "sim.invalidations_per_op",
        cache(|c| c.invalidations_received) / ops,
    );
    let attribution = me
        .phase
        .report
        .attribution
        .as_ref()
        .expect("attribution was armed");
    for (class, stats) in attribution {
        m.set(
            &format!("sim.miss.{}_per_op", class.name()),
            stats.misses() as f64 / ops,
        );
    }
    (out, rec)
}
