//! The single-thread ladder probe: the same logical operation timed at
//! each rung — barrier, transaction, tds operation, KV request — on small
//! cache-resident structures, so that rungs subtract. Runs in the traced
//! run only; every batch it times is a span in the trace file.

use crate::quantile;
use crate::run::{Metrics, RunCfg};
use crate::span::{self, Counters, Recorder, C};
use nztm_core::txn::{Abort, AbortCause};
use nztm_core::{NzBuilder, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::{DetRng, Machine, MachineConfig, Native, SimPlatform};
use nztm_tds::{TdsHashMap, TdsQueue, TdsSkipList};
use nztm_workloads::kv::{KvOp, KvTraceCfg, KvTraceGen, ShardedKv};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations per timed batch (one span each) and the time given to one
/// probe. 40-odd probes fit in about three seconds.
const BATCH: usize = 256;
const PROBE_BUDGET: Duration = Duration::from_millis(40);
const MAX_BATCHES: usize = 400;
const PAIR_ROUNDS: usize = 60;
/// Accesses per transaction on the barrier sweeps.
const SWEEP: [usize; 4] = [1, 8, 32, 64];

/// `engine.alloc_ns` and `engine.obj_bytes`, measured before anything
/// else has touched the heap: resident-set growth is only readable while
/// the allocator has no freed memory to reuse.
pub struct AllocProbe {
    alloc_ns: f64,
    obj_bytes: f64,
}

pub fn alloc_probe() -> AllocProbe {
    const N: usize = 1 << 18;
    let sys = native_nzstm();
    let mut objs = Vec::with_capacity(N);
    let rss = crate::host::rss_bytes();
    let t = Instant::now();
    for i in 0..N as u64 {
        objs.push(sys.new_obj(i));
    }
    let alloc_ns = t.elapsed().as_nanos() as f64 / N as f64;
    let obj_bytes = (crate::host::rss_bytes() - rss) / N as f64;
    black_box(&objs);
    AllocProbe {
        alloc_ns,
        obj_bytes,
    }
}

/// A one-thread native platform with the calling thread registered.
fn one_thread() -> NzBuilder<Native> {
    let p = Native::new(1);
    p.register_thread_as(0);
    NzBuilder::new(p)
}

fn native_nzstm() -> Arc<nztm_core::Nzstm<Native>> {
    one_thread().build_nzstm()
}

struct Probe<'a> {
    rec: &'a mut Recorder,
    parent: u64,
}

impl Probe<'_> {
    /// Time batches of `op` — one span each — and return the median cost
    /// of one call in ns.
    fn time(&mut self, name: &str, mut op: impl FnMut()) -> f64 {
        (0..BATCH).for_each(|_| op()); // warm caches and thread-local pools
        let begun = Instant::now();
        let mut costs = Vec::new();
        while costs.len() < MAX_BATCHES && (costs.len() < 5 || begun.elapsed() < PROBE_BUDGET) {
            costs.push(self.batch(name, |_| op()));
        }
        quantile::median(&costs)
    }

    /// Two operations that undo each other (insert and remove, enqueue
    /// and dequeue): a batch of the first, then a batch of the second,
    /// `PAIR_ROUNDS` times, timed apart. `op(second, i)` is the `i`-th
    /// call of a batch.
    fn time_pair(&mut self, names: [&str; 2], mut op: impl FnMut(bool, usize)) -> [f64; 2] {
        let mut costs = [Vec::new(), Vec::new()];
        for round in 0..2 * PAIR_ROUNDS {
            let second = round % 2 == 1;
            costs[second as usize].push(self.batch(names[second as usize], |i| op(second, i)));
        }
        [quantile::median(&costs[0]), quantile::median(&costs[1])]
    }

    /// One timed batch: its span, and the cost of one call in ns.
    fn batch(&mut self, name: &str, op: impl FnMut(usize)) -> f64 {
        let start = span::now_ns();
        (0..BATCH).for_each(op);
        let end = span::now_ns();
        self.rec.batch(self.parent, name, start, end, BATCH as u64);
        (end - start) as f64 / BATCH as f64
    }
}

/// Transaction cost at each sweep size, for one access pattern.
fn sweep<S: TmSys>(
    p: &mut Probe,
    sys: &S,
    name: &str,
    mut body: impl FnMut(&mut S::Tx<'_>, usize) -> Result<u64, Abort>,
) -> Vec<(f64, f64)> {
    SWEEP
        .iter()
        .map(|&k| {
            let ns = p.time(&format!("{name}.k{k}"), || {
                black_box(sys.execute(|tx| body(tx, k)));
            });
            (k as f64, ns)
        })
        .collect()
}

fn read_k<S: TmSys>(objs: &[S::Obj<u64>], tx: &mut S::Tx<'_>, k: usize) -> Result<u64, Abort> {
    let mut sum = 0;
    for o in &objs[..k] {
        sum += S::read(tx, o)?;
    }
    Ok(sum)
}

fn write_k<S: TmSys>(
    objs: &[S::Obj<u64>],
    tx: &mut S::Tx<'_>,
    k: usize,
    v: u64,
) -> Result<u64, Abort> {
    for o in &objs[..k] {
        S::write(tx, o, &v)?;
    }
    Ok(v)
}

/// Read-8 and write-4 transaction costs on one backend (the reference
/// ratios compare them across NZSTM, NOrec and BZSTM).
fn reference_costs<S: TmSys>(p: &mut Probe, sys: &S, tag: &str) -> (f64, f64) {
    let objs: Vec<S::Obj<u64>> = (0..8).map(|i| sys.alloc(i)).collect();
    let read8 = p.time(&format!("engine.{tag}.read8"), || {
        black_box(sys.execute(|tx| read_k::<S>(&objs, tx, 8)));
    });
    let mut v = 0;
    let write4 = p.time(&format!("engine.{tag}.write4"), || {
        v += 1;
        black_box(sys.execute(|tx| write_k::<S>(&objs, tx, 4, v)));
    });
    (read8, write4)
}

/// One pin scope that defers one no-op item.
fn defer_scope() {
    unsafe fn noop(_: u64) {}
    let guard = nztm_epoch::pin();
    // SAFETY: `defer_fn` requires that calling `f(arg)` is sound once two
    // epoch advances have passed; `noop` ignores its argument and touches
    // no memory, so it is sound to call at any time on any thread.
    unsafe { guard.defer_fn(noop, 0) };
}

/// Amortised cost in ns of `defer_scope`, run for `dur` on the calling
/// thread (used alone by the ladder, and beside running workers for
/// `epoch.defer_ns_nt`).
pub fn epoch_defer_ns(dur: Duration) -> f64 {
    let begun = Instant::now();
    let mut costs = Vec::new();
    while begun.elapsed() < dur {
        let t = Instant::now();
        (0..BATCH).for_each(|_| defer_scope());
        costs.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    nztm_epoch::flush();
    quantile::median(&costs)
}

/// Run every probe, record its spans under a `ladder` root, and set the
/// ladder's per-layer metrics.
pub fn run(cfg: &RunCfg, rec: &mut Recorder, alloc: AllocProbe, m: &mut Metrics) {
    let root = rec.new_id();
    let started = span::now_ns();
    let mut p = Probe { rec, parent: root };

    // --- driver ---
    let mut gen = KvTraceGen::new(KvTraceCfg::million_users(), cfg.seed, 1);
    m.set(
        "driver.gen_ns",
        p.time("driver.gen", || {
            black_box(gen.next());
        }),
    );
    m.set(
        "driver.timer_ns",
        p.time("driver.timer", || {
            let t = Instant::now();
            black_box(t.elapsed());
        }),
    );

    // --- epoch ---
    m.set(
        "epoch.pin_ns",
        p.time("epoch.pin", || drop(nztm_epoch::pin())),
    );
    m.set("epoch.defer_ns", p.time("epoch.defer", defer_scope));
    let mut scopes: Vec<u32> = (0..200_000)
        .map(|_| {
            let t = Instant::now();
            defer_scope();
            t.elapsed().as_nanos() as u32
        })
        .collect();
    scopes.sort_unstable();
    m.set("epoch.scope_p99_ns", quantile::banded(&scopes, 0.99));
    nztm_epoch::flush();

    // --- engine: barriers and transactions on NZSTM ---
    let sys = native_nzstm();
    type Nz = nztm_core::Nzstm<Native>;
    let objs: Vec<_> = (0..64u64).map(|i| sys.alloc(i)).collect();
    let empty = p.time("engine.empty_txn", || sys.execute(|_tx| Ok(())));
    m.set("engine.empty_txn_ns", empty);
    let reads = sweep(&mut p, &*sys, "engine.read", |tx, k| {
        read_k::<Nz>(&objs, tx, k)
    });
    let read_ns = quantile::slope(&reads);
    m.set("engine.read_ns", read_ns);
    let rereads = sweep(&mut p, &*sys, "engine.reread", |tx, k| {
        let mut sum = 0;
        for _ in 0..k {
            sum += Nz::read(tx, &objs[0])?;
        }
        Ok(sum)
    });
    m.set("engine.reread_ns", quantile::slope(&rereads));
    let mut v = 0u64;
    let writes = sweep(&mut p, &*sys, "engine.write", |tx, k| {
        v += 1;
        write_k::<Nz>(&objs, tx, k, v)
    });
    m.set("engine.write_ns", quantile::slope(&writes));
    let rewrites = sweep(&mut p, &*sys, "engine.rewrite", |tx, k| {
        for i in 0..k as u64 {
            Nz::write(tx, &objs[0], &i)?;
        }
        Ok(0)
    });
    m.set("engine.rewrite_ns", quantile::slope(&rewrites));
    // An attempt that writes one object, aborts, and is retried — against
    // the same transaction committing first time.
    let aborted = p.time("engine.write1_abort_retry", || {
        let mut first = true;
        sys.execute(|tx| {
            Nz::write(tx, &objs[0], &1)?;
            if std::mem::take(&mut first) {
                return Err(Abort(AbortCause::Explicit));
            }
            Ok(())
        })
    });
    m.set("engine.abort_retry_ns", aborted - writes[0].1);
    m.set("engine.alloc_ns", alloc.alloc_ns);
    m.set("engine.obj_bytes", alloc.obj_bytes);

    // --- engine: the same two transactions on the reference backends ---
    let (nz_read8, nz_write4) = reference_costs(&mut p, &*sys, "nzstm");
    let norec = one_thread().build_norec();
    let (norec_read8, norec_write4) = reference_costs(&mut p, &*norec, "norec");
    let bzstm = one_thread().build_bzstm();
    let (_, bz_write4) = reference_costs(&mut p, &*bzstm, "bzstm");
    m.set("engine.norec_ratio_read8", nz_read8 / norec_read8);
    m.set("engine.norec_ratio_write4", nz_write4 / norec_write4);
    m.set("engine.bzstm_ratio_write4", nz_write4 / bz_write4);

    // --- tds: a map with kv-zipf's chain length (4 entries a bucket) ---
    let mut keys = DetRng::new(cfg.seed);
    let map = TdsHashMap::new(&*sys, 1024, 4096);
    for k in 0..4096 {
        map.insert(&*sys, k, k);
    }
    let before = Counters::of(&sys.stats_snapshot());
    let map_get = p.time("tds.map_get", || {
        black_box(map.get(&*sys, keys.next_below(4096)));
    });
    let d = Counters::of(&sys.stats_snapshot()).since(&before);
    let reads_per_get = d.per(C::Reads, d[C::AdtOps]);
    m.set("tds.map_get_ns", map_get);
    m.set("tds.self_ns", map_get - (empty + reads_per_get * read_ns));
    m.set(
        "tds.map_insert_ns",
        p.time("tds.map_insert", || {
            let k = keys.next_below(4096);
            black_box(map.insert(&*sys, k, k ^ 1));
        }),
    );

    // --- tds: a skiplist shaped like tds-mix's (2 048 even keys) ---
    let skip = TdsSkipList::new(&*sys, 2048 + BATCH * PAIR_ROUNDS);
    for k in 0..2048 {
        skip.insert(&*sys, 2 * k, k);
    }
    m.set(
        "tds.skip_succ_ns",
        p.time("tds.skip_succ", || {
            black_box(skip.succ(&*sys, keys.next_below(4096)));
        }),
    );
    m.set(
        "tds.skip_get_ns",
        p.time("tds.skip_get", || {
            black_box(skip.get(&*sys, 2 * keys.next_below(2048)));
        }),
    );
    // Absent odd keys go in (a node is allocated, its tower linked), then
    // come out again.
    let [insert, remove] = p.time_pair(["tds.skip_insert", "tds.skip_remove"], |removing, i| {
        let odd = 2 * ((i as u64 * 37) & 2047) + 1;
        if removing {
            black_box(skip.remove(&*sys, odd));
        } else {
            black_box(skip.insert(&*sys, odd, 7));
        }
    });
    m.set("tds.skip_insert_ns", insert);
    m.set("tds.skip_remove_ns", remove);

    // --- tds: a queue, filled and then drained ---
    let queue = TdsQueue::new(&*sys, BATCH);
    let [enq, deq] = p.time_pair(["tds.queue_enq", "tds.queue_deq"], |draining, i| {
        if draining {
            black_box(queue.dequeue(&*sys));
        } else {
            black_box(queue.enqueue(&*sys, i as u64));
        }
    });
    m.set("tds.queue_enq_ns", enq);
    m.set("tds.queue_deq_ns", deq);

    // --- kv: a 2 048-user store with the same chain length ---
    let kv = ShardedKv::new(&*sys, 8, 128, 1024, 1000);
    for u in 0..2048 {
        kv.put_session(&*sys, u, u);
        kv.transfer(&*sys, u, u, 0);
    }
    let kv_get = p.time("kv.get", || {
        black_box(kv.apply(&*sys, &KvOp::Get(keys.next_below(2048))));
    });
    m.set("kv.get_ns", kv_get);
    m.set("kv.self_ns", kv_get - map_get);
    m.set(
        "kv.put_ns",
        p.time("kv.put", || {
            let u = keys.next_below(2048);
            black_box(kv.apply(&*sys, &KvOp::Put(u, u)));
        }),
    );
    m.set(
        "kv.transfer_ns",
        p.time("kv.transfer", || {
            let from = keys.next_below(2048);
            let to = (from + 1 + keys.next_below(1024)) & 2047;
            black_box(kv.apply(&*sys, &KvOp::Transfer { from, to, amt: 1 }));
        }),
    );
    kv.assert_conserved();
    let ended = span::now_ns();
    rec.root(root, "ladder", started, ended, "ns");

    // --- htm vs engine: one transaction on one simulated core ---
    let sim_root = rec.new_id();
    let hw = sim_rmw4_cycles(cfg.seed, true, rec, sim_root);
    let sw = sim_rmw4_cycles(cfg.seed, false, rec, sim_root);
    rec.root(sim_root, "ladder.sim", 0, hw.1.max(sw.1), "cycles");
    m.set("htm.hw_txn_cycles", hw.0);
    m.set("engine.sw_txn_cycles", sw.0);
    m.set("htm.hw_speedup", sw.0 / hw.0);
}

/// Cycles per transaction (and the run's makespan) of txn-write's
/// transaction — read-modify-write of 4 of 64 objects — on one simulated
/// core: through the hybrid's hardware path, or on bare NZSTM.
fn sim_rmw4_cycles(seed: u64, hardware: bool, rec: &mut Recorder, parent: u64) -> (f64, u64) {
    const WARM: u64 = 200;
    const TXNS: u64 = 1000;
    let machine = Machine::new(MachineConfig::paper(1));
    let platform = SimPlatform::new(Arc::clone(&machine));
    let stm = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
    let report = if hardware {
        let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
        htm.install();
        let sys = NztmHybrid::new(stm, Arc::clone(&htm), HybridConfig::default());
        let r = sim_rmw4_run(&machine, sys, seed, WARM, TXNS);
        htm.uninstall();
        r
    } else {
        sim_rmw4_run(&machine, stm, seed, WARM, TXNS)
    };
    let name = if hardware {
        "htm.hw_rmw4"
    } else {
        "engine.sw_rmw4"
    };
    rec.batch(parent, name, 0, report, TXNS);
    (report as f64 / TXNS as f64, report)
}

fn sim_rmw4_run<S: TmSys>(
    machine: &Arc<Machine>,
    sys: Arc<S>,
    seed: u64,
    warm: u64,
    txns: u64,
) -> u64 {
    let objs: Arc<nztm_sim::sync::Mutex<Vec<S::Obj<u64>>>> =
        Arc::new(nztm_sim::sync::Mutex::new(Vec::new()));
    let phase = |n: u64, stream: u64, build: bool| {
        let (sys, objs) = (Arc::clone(&sys), Arc::clone(&objs));
        machine
            .run(vec![Box::new(move || {
                let mut objs = objs.lock();
                if build {
                    *objs = (0..64u64).map(|i| sys.alloc(i)).collect();
                }
                let mut rng = DetRng::new(seed).split(stream);
                for _ in 0..n {
                    let picks: [usize; 4] = std::array::from_fn(|_| rng.next_below(64) as usize);
                    sys.execute(|tx| {
                        for &i in &picks {
                            let v = S::read(tx, &objs[i])?;
                            S::write(tx, &objs[i], &(v + 1))?;
                        }
                        Ok(())
                    });
                }
            })])
            .makespan
    };
    phase(warm, 1, true);
    phase(txns, 2, false)
}
