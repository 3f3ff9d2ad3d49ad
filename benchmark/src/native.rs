//! The closed-loop runner for the three workloads on real threads.
//!
//! One process, `threads` workers plus a coordinator that sleeps while a
//! slice runs. Each worker issues its next operation as soon as the
//! previous one returns (closed loop, `threads` clients). Workers are
//! parked on a barrier between slices, so oracles and `stats_snapshot`
//! deltas are taken at quiescence.

use crate::ladder;
use crate::quantile;
use crate::run::{self, Metrics, Outcome, RunCfg};
use crate::span::{self, Counters, OpSpan, Recorder};
use crate::workloads::Sys;
use nztm_sim::DetRng;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

pub const WARMUP: Duration = Duration::from_secs(1);
/// Slices are two seconds long; a window that is not a multiple of two
/// seconds is cut into equal slices of at least that.
const SLICE_SECS: u64 = 2;

/// How the measured window of `seconds` is cut: slice count and length.
pub fn slice_plan(seconds: u64) -> (usize, Duration) {
    let n = (seconds / SLICE_SECS).max(1);
    (
        n as usize,
        Duration::from_secs_f64(seconds as f64 / n as f64),
    )
}

pub trait NativeWorkload: Sync + Sized {
    /// Span names, indexed by the kind `op` returns.
    const KINDS: &'static [&'static str];
    type Worker: Send;

    /// Build and pre-populate. The calling thread becomes the platform's
    /// coordinator core (id `threads`); workers take `0..threads`.
    fn build(cfg: &RunCfg) -> Self;
    /// The engine everything runs on.
    fn sys(&self) -> &Sys;
    fn worker(&self, cfg: &RunCfg, tid: usize) -> Self::Worker;
    /// One operation: its kind, and whether its own check passed.
    fn op(&self, w: &mut Self::Worker) -> (u8, bool);
    /// Quiescent check of the structures against what the workers did.
    fn oracle(&self, workers: &[&Self::Worker]) -> Result<(), String>;
    /// `--break-oracle`: damage one input of the oracle.
    fn corrupt(&self, workers: &mut [&mut Self::Worker]);
    /// Count metrics of this workload's layers over the measured window.
    fn layer_counts(&self, delta: &Counters, ops: u64, m: &mut Metrics);
}

const EXIT: u8 = 0;
/// Run operations, record nothing (warm-up, background load).
const IDLE: u8 = 1;
/// Record a latency for the sampled operations.
const TIMED: u8 = 2;
/// Record a span for the sampled operations.
const TRACED: u8 = 3;

struct Ctl {
    mode: AtomicU8,
    stop: AtomicBool,
    /// Workers `0..active` run this phase; the rest stay parked.
    active: AtomicUsize,
    barrier: Barrier,
    /// Set by a worker whose operation panicked.
    crash: Mutex<Option<String>>,
}

struct Slot<T> {
    state: T,
    lat: Vec<u32>,
    spans: Vec<OpSpan>,
    ops: u64,
    elapsed_ns: u64,
    failed: u64,
    /// Draws the gap to the next timed operation: 1 to 15, so one in 8 on
    /// average and no periodic stream (the KV trace issues a transfer
    /// every 16th operation) can alias with the sampler.
    sampler: DetRng,
}

fn worker_loop<W: NativeWorkload>(wl: &W, ctl: &Ctl, slot: &Mutex<Slot<W::Worker>>, tid: usize) {
    wl.sys().platform().register_thread_as(tid);
    loop {
        ctl.barrier.wait();
        let mode = ctl.mode.load(Ordering::SeqCst);
        if mode == EXIT {
            return;
        }
        if tid < ctl.active.load(Ordering::SeqCst) {
            let mut guard = slot
                .lock()
                .expect("slot mutex is never held across a panic");
            // A panic in an operation (an exhausted pool, an assertion in
            // the layer under test) must fail the run, not hang the
            // barrier the other threads wait on.
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_ops(wl, ctl, &mut guard, mode)
            }));
            if let Err(p) = ran {
                *ctl.crash.lock().expect("crash mutex") =
                    Some(format!("worker {tid} panicked: {}", panic_text(p)));
                ctl.stop.store(true, Ordering::SeqCst);
            }
        }
        ctl.barrier.wait();
    }
}

fn run_ops<W: NativeWorkload>(wl: &W, ctl: &Ctl, s: &mut Slot<W::Worker>, mode: u8) {
    let (mut ops, mut failed, mut until_sample) = (0u64, 0u64, 1u64);
    let t0 = Instant::now();
    while !ctl.stop.load(Ordering::Relaxed) {
        until_sample -= 1;
        let sampled = until_sample == 0;
        if sampled {
            until_sample = 1 + s.sampler.next_below(15);
        }
        let ok = if sampled && mode != IDLE {
            let start = Instant::now();
            let (kind, ok) = wl.op(&mut s.state);
            let end = Instant::now();
            if mode == TRACED {
                s.spans.push(OpSpan {
                    kind,
                    start: span::ns_of(start),
                    end: span::ns_of(end),
                });
            } else {
                s.lat
                    .push((end - start).as_nanos().min(u32::MAX as u128) as u32);
            }
            ok
        } else {
            wl.op(&mut s.state).1
        };
        ops += 1;
        failed += !ok as u64;
    }
    s.elapsed_ns = t0.elapsed().as_nanos() as u64;
    s.ops = ops;
    s.failed = failed;
}

/// What one phase did, gathered at the closing barrier.
struct PhaseResult {
    ops: u64,
    failed: u64,
    ops_per_s: f64,
    start: u64,
    end: u64,
}

struct Coordinator<'a, W: NativeWorkload> {
    wl: &'a W,
    ctl: &'a Ctl,
    slots: &'a [Mutex<Slot<W::Worker>>],
}

impl<W: NativeWorkload> Coordinator<'_, W> {
    /// Release `active` workers in `mode`, let `during` decide how long
    /// the phase lasts, park them again.
    fn phase(&self, mode: u8, active: usize, during: impl FnOnce()) -> PhaseResult {
        self.ctl.mode.store(mode, Ordering::SeqCst);
        self.ctl.active.store(active, Ordering::SeqCst);
        self.ctl.stop.store(false, Ordering::SeqCst);
        self.ctl.barrier.wait();
        let start = span::now_ns();
        {
            // Parks the workers again even if `during` unwinds.
            let _close = ClosePhase(self.ctl);
            during();
        }
        let end = span::now_ns();
        let mut r = PhaseResult {
            ops: 0,
            failed: 0,
            ops_per_s: 0.0,
            start,
            end,
        };
        for slot in &self.slots[..active] {
            let s = lock(slot);
            r.ops += s.ops;
            r.failed += s.failed;
            r.ops_per_s += s.ops as f64 / (s.elapsed_ns as f64 / 1e9);
        }
        r
    }

    fn with_workers<R>(&self, f: impl FnOnce(&mut [&mut W::Worker]) -> R) -> R {
        let mut guards: Vec<_> = self.slots.iter().map(lock).collect();
        let mut refs: Vec<&mut W::Worker> = guards.iter_mut().map(|g| &mut g.state).collect();
        f(&mut refs)
    }

    fn oracle(&self) -> Result<(), String> {
        self.with_workers(|ws| {
            let shared: Vec<&W::Worker> = ws.iter().map(|w| &**w).collect();
            // Oracles assert; a failed assertion is a failed check, not a crash.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.wl.oracle(&shared)))
                .unwrap_or_else(|p| Err(panic_text(p)))
        })
    }
}

/// Ends the running phase when dropped.
struct ClosePhase<'a>(&'a Ctl);

impl Drop for ClosePhase<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.barrier.wait();
    }
}

/// Sends the parked workers home when dropped.
struct Release<'a>(&'a Ctl);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.mode.store(EXIT, Ordering::SeqCst);
        self.0.barrier.wait();
    }
}

fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock()
        .expect("slot mutex is never held across a panic")
}

pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

pub fn run<W: NativeWorkload>(cfg: &RunCfg) -> (Outcome, Recorder) {
    let (wl, setup_s) = run::measure_setup(run::Builds::ForASecond, || W::build(cfg));
    let threads = cfg.threads;
    let slots: Vec<Mutex<Slot<W::Worker>>> = (0..threads)
        .map(|tid| {
            Mutex::new(Slot {
                state: wl.worker(cfg, tid),
                lat: Vec::with_capacity(1 << 19),
                spans: Vec::new(),
                ops: 0,
                elapsed_ns: 0,
                failed: 0,
                sampler: DetRng::new(tid as u64),
            })
        })
        .collect();
    let ctl = Ctl {
        mode: AtomicU8::new(IDLE),
        stop: AtomicBool::new(false),
        active: AtomicUsize::new(threads),
        barrier: Barrier::new(threads + 1),
        crash: Mutex::new(None),
    };
    let (n_slices, slice) = slice_plan(cfg.seconds);

    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let root = rec.new_id();
    let run_start = span::now_ns();
    let mut window = Counters::default();
    // ops/s of the slices, untraced and traced.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut latency = Vec::new();
    let mut one_thread_ops_per_s = 0.0;
    let mut defer_nt = 0.0;

    std::thread::scope(|scope| {
        for (tid, slot) in slots.iter().enumerate() {
            let (wl, ctl) = (&wl, &ctl);
            scope.spawn(move || worker_loop(wl, ctl, slot, tid));
        }
        // However the coordinator's work ends, the workers are released:
        // they leave at the opening barrier of the exit phase.
        let _release = Release(&ctl);
        let co = Coordinator {
            wl: &wl,
            ctl: &ctl,
            slots: &slots,
        };
        co.phase(IDLE, threads, || std::thread::sleep(WARMUP));
        if cfg.break_oracle {
            co.with_workers(|ws| wl.corrupt(ws));
        }
        let crash = || ctl.crash.lock().expect("crash mutex").take();
        for i in 0..n_slices {
            // The traced run alternates plain and traced slices; their
            // throughput ratio is the tracing overhead.
            let tracing = cfg.trace && i % 2 == 1;
            let before = Counters::of(&wl.sys().stats_snapshot());
            let r = co.phase(if tracing { TRACED } else { TIMED }, threads, || {
                std::thread::sleep(slice)
            });
            let delta = Counters::of(&wl.sys().stats_snapshot()).since(&before);
            window.add(&delta);
            let slice_id = rec.new_id();
            let name = if tracing { "slice.traced" } else { "slice" };
            rec.span(slice_id, root, name, r.start, r.end);
            rec.counters(slice_id, delta);
            if tracing {
                for (tid, slot) in slots.iter().enumerate() {
                    let spans = std::mem::take(&mut lock(slot).spans);
                    rec.ops(slice_id, tid, W::KINDS, spans);
                }
                traced.push(r.ops_per_s);
            } else {
                let mut samples = Vec::new();
                for slot in &slots {
                    // `append` leaves the worker its buffer's capacity.
                    samples.append(&mut lock(slot).lat);
                }
                latency.push(run::slice_latency(&mut samples));
                plain.push(r.ops_per_s);
            }
            out.attempted += r.ops;
            out.failed += r.failed;
            if let Err(e) = co.oracle() {
                out.errors.push(format!("slice {i}: {e}"));
                out.failed += r.ops - r.failed;
            }
            if let Some(crash) = crash() {
                out.errors.push(crash);
                out.failed = out.attempted;
                return;
            }
        }
        if cfg.trace {
            // One slice with a single worker: the base of engine.scale_nt.
            one_thread_ops_per_s = co.phase(TIMED, 1, || std::thread::sleep(slice)).ops_per_s;
            // The epoch probe again, with every worker running beside it.
            co.phase(IDLE, threads, || {
                defer_nt = ladder::epoch_defer_ns(Duration::from_millis(400))
            });
            out.errors.extend(crash());
            if let Err(e) = co.oracle() {
                out.errors.push(format!("after the traced extras: {e}"));
            }
        }
    });
    rec.root(
        root,
        &format!("workload:{}", cfg.workload.name),
        run_start,
        span::now_ns(),
        "ns",
    );

    if !out.errors.is_empty() && plain.is_empty() {
        return (out, rec);
    }
    let ops_per_s = quantile::median(&plain);
    out.notes.push(format!(
        "ops_per_s: {ops_per_s:.0} (median of {} slices; per slice: {})",
        plain.len(),
        join(&plain)
    ));
    if !cfg.trace {
        run::end_to_end_metrics(&mut out, 1e9 / ops_per_s, &latency, "ns", setup_s);
        return (out, rec);
    }

    let m = &mut out.metrics;
    run::counter_metrics(&window, m);
    wl.layer_counts(&window, out.attempted, m);
    m.set("engine.scale_nt", ops_per_s / one_thread_ops_per_s);
    m.set("epoch.defer_ns_nt", defer_nt);
    let traced_ops_per_s = if traced.is_empty() {
        ops_per_s
    } else {
        quantile::median(&traced)
    };
    m.set(
        "driver.trace_overhead_share",
        1.0 - traced_ops_per_s / ops_per_s,
    );
    out.notes
        .push(format!("traced slices ops_per_s: {}", join(&traced)));
    out.notes.push(format!(
        "one-thread slice ops_per_s: {one_thread_ops_per_s:.0}"
    ));
    (out, rec)
}

fn join(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}
