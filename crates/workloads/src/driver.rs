//! Benchmark drivers: run a workload across threads on the native
//! platform (wall-clock, Figure 4) or across simulated cores (cycles,
//! Figure 3).
//!
//! Protocol, as in §4.3: initialize the data structure first, then begin
//! taking measurements; each thread executes a fixed number of
//! operations; the figure of merit is completed transactions per unit
//! time (normalized later by the harness).

use crate::hashtable::HashTableSet;
use crate::linkedlist::LinkedListSet;
use crate::redblack::RedBlackSet;
use crate::set::{populate, Contention, SetOp, TmSet};
use nztm_core::{ObjectHeat, TmStats, TmSys};
use nztm_sim::{DetRng, Machine, Native, Platform, SimPlatform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which microbenchmark structure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetKind {
    LinkedList,
    RedBlack,
    HashTable,
}

impl SetKind {
    pub fn name(self) -> &'static str {
        match self {
            SetKind::LinkedList => "linkedlist",
            SetKind::RedBlack => "redblack",
            SetKind::HashTable => "hashtable",
        }
    }
}

/// Configuration of one microbenchmark run.
#[derive(Clone, Debug)]
pub struct SetBenchConfig {
    pub kind: SetKind,
    pub contention: Contention,
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
}

impl SetBenchConfig {
    /// Pool capacity covering initial population plus the worst-case
    /// allocation rate (every attempt of every insert allocates).
    fn pool_capacity(&self) -> usize {
        (crate::set::KEY_RANGE as usize)
            + (self.threads * self.ops_per_thread as usize * 2)
            + 1024
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Committed top-level operations.
    pub ops: u64,
    /// Elapsed time: nanoseconds (native) or simulated cycles (sim).
    pub elapsed: u64,
    /// Merged TM statistics over the measured phase.
    pub stats: TmStats,
    /// The hottest objects by contention (empty unless tracing was armed
    /// before the run).
    pub hotspots: Vec<ObjectHeat>,
}

/// Hotspots retained per run report.
pub const MAX_HOTSPOTS: usize = 8;

/// Drain the system's flight recorder (quiescent at the end of a
/// measured phase) into a per-object contention ranking.
fn take_hotspots<S: TmSys>(sys: &S) -> Vec<ObjectHeat> {
    sys.take_trace().hottest_objects(MAX_HOTSPOTS)
}

impl BenchResult {
    /// Operations per unit time (ns⁻¹ or cycle⁻¹); the harness scales it.
    pub fn throughput(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed as f64
        }
    }
}

fn build_set<S: TmSys>(sys: &S, cfg: &SetBenchConfig) -> Arc<dyn TmSet<S>> {
    let cap = cfg.pool_capacity();
    match cfg.kind {
        SetKind::LinkedList => Arc::new(LinkedListSet::new(sys, cap)),
        SetKind::RedBlack => Arc::new(RedBlackSet::new(sys, cap)),
        SetKind::HashTable => Arc::new(HashTableSet::new(sys, cap)),
    }
}

/// One thread's share of the measured phase. Returns ops completed.
fn thread_phase<S: TmSys>(
    set: &dyn TmSet<S>,
    sys: &S,
    cfg: &SetBenchConfig,
    tid: usize,
) -> u64 {
    let mut rng = DetRng::new(cfg.seed).split(tid as u64 + 1);
    for _ in 0..cfg.ops_per_thread {
        let op = SetOp::draw(&mut rng, cfg.contention);
        set.apply(sys, op);
    }
    cfg.ops_per_thread
}

/// Run on real threads; returns wall-clock-based results (Figure 4 mode).
pub fn run_set_native<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    cfg: &SetBenchConfig,
) -> BenchResult {
    assert!(cfg.threads <= platform.n_cores());
    // Setup phase on the main thread (core id 0).
    platform.register_thread_as(0);
    let set = build_set(&**sys, cfg);
    populate(&*set, &**sys, cfg.seed ^ 0x9E37);
    sys.reset_stats();

    let barrier = Arc::new(std::sync::Barrier::new(cfg.threads + 1));
    let done_ops = Arc::new(AtomicU64::new(0));
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..cfg.threads {
            let platform = Arc::clone(platform);
            let sys = Arc::clone(sys);
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done_ops);
            let cfg = cfg.clone();
            scope.spawn(move || {
                platform.register_thread_as(tid);
                barrier.wait();
                let n = thread_phase(&*set, &*sys, &cfg, tid);
                done.fetch_add(n, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_nanos() as u64;
    BenchResult { ops: done_ops.load(Ordering::Relaxed), elapsed, stats: sys.stats_snapshot(), hotspots: take_hotspots(&**sys) }
}

/// Run on the simulated machine; returns cycle-based results (Figure 3
/// mode). The machine's core count determines the thread count; `cfg`
/// must match. The populate phase runs as a separate (unmeasured)
/// machine run so caches are warm, as in the paper's protocol.
pub fn run_set_sim<S: TmSys>(
    machine: &Arc<Machine>,
    platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    cfg: &SetBenchConfig,
) -> BenchResult {
    let threads = machine.config().n_cores;
    assert_eq!(threads, cfg.threads, "machine cores must equal cfg.threads");
    let set = build_set(&**sys, cfg);

    // Phase 1 (unmeasured): core 0 populates, others idle.
    {
        let set = Arc::clone(&set);
        let sys2 = Arc::clone(sys);
        let seed = cfg.seed ^ 0x9E37;
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(move || populate(&*set, &*sys2, seed))];
        for _ in 1..threads {
            bodies.push(Box::new(|| {}));
        }
        machine.run(bodies);
    }
    sys.reset_stats();

    // Phase 2 (measured): all cores run the operation mix.
    let done_ops = Arc::new(AtomicU64::new(0));
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
        .map(|tid| {
            let sys = Arc::clone(sys);
            let set = Arc::clone(&set);
            let cfg = cfg.clone();
            let done = Arc::clone(&done_ops);
            Box::new(move || {
                let n = thread_phase(&*set, &*sys, &cfg, tid);
                done.fetch_add(n, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let report = machine.run(bodies);
    let _ = platform;
    BenchResult {
        ops: done_ops.load(Ordering::Relaxed),
        elapsed: report.makespan,
        stats: sys.stats_snapshot(),
        hotspots: take_hotspots(&**sys),
    }
}

// ---------------------------------------------------------------------------
// STAMP drivers
// ---------------------------------------------------------------------------

use crate::stamp::genome::{Genome, GenomeConfig};
use crate::stamp::kmeans::{Kmeans, KmeansConfig};
use crate::stamp::vacation::{Vacation, VacationConfig};

/// Run kmeans on the simulator: per iteration, one parallel assignment
/// phase (all cores) and one serial recompute phase (core 0); the
/// reported elapsed time is the summed makespan, as the paper measures
/// whole-benchmark completion.
pub fn run_kmeans_sim<S: TmSys>(
    machine: &Arc<Machine>,
    platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    cfg: KmeansConfig,
) -> BenchResult {
    let threads = machine.config().n_cores;
    let km = Arc::new(Kmeans::new(&**sys, cfg.clone()));
    sys.reset_stats();
    let mut elapsed = 0;
    let mut ops = 0;
    for _ in 0..cfg.iterations {
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
            .map(|tid| {
                let km = Arc::clone(&km);
                let sys = Arc::clone(sys);
                let platform = Arc::clone(platform);
                Box::new(move || {
                    km.assign_phase(&*sys, tid, threads, |c| platform.work(c));
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        elapsed += machine.run(bodies).makespan;
        // Serial recompute on core 0.
        let km2 = Arc::clone(&km);
        let sys2 = Arc::clone(sys);
        let points = cfg.points as u64;
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            assert_eq!(km2.recompute_centers(&*sys2), points, "points conserved");
        })];
        for _ in 1..threads {
            bodies.push(Box::new(|| {}));
        }
        elapsed += machine.run(bodies).makespan;
        ops += points;
    }
    BenchResult { ops, elapsed, stats: sys.stats_snapshot(), hotspots: take_hotspots(&**sys) }
}

/// Run kmeans natively (wall clock).
pub fn run_kmeans_native<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    cfg: KmeansConfig,
) -> BenchResult {
    let threads = platform.n_cores();
    platform.register_thread_as(0);
    let km = Arc::new(Kmeans::new(&**sys, cfg.clone()));
    sys.reset_stats();
    let start = std::time::Instant::now();
    let mut ops = 0;
    for _ in 0..cfg.iterations {
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let km = Arc::clone(&km);
                let sys = Arc::clone(sys);
                let platform = Arc::clone(platform);
                scope.spawn(move || {
                    platform.register_thread_as(tid);
                    let p2 = Arc::clone(&platform);
                    km.assign_phase(&*sys, tid, threads, move |c| p2.work(c));
                });
            }
        });
        platform.register_thread_as(0);
        assert_eq!(km.recompute_centers(&**sys), cfg.points as u64);
        ops += cfg.points as u64;
    }
    BenchResult { ops, elapsed: start.elapsed().as_nanos() as u64, stats: sys.stats_snapshot(), hotspots: take_hotspots(&**sys) }
}

/// Run genome on the simulator: parallel dedup, serial entry build (host
/// side, untimed — STAMP builds its phase-2 table between phases),
/// parallel linking, serial verification.
pub fn run_genome_sim<S: TmSys>(
    machine: &Arc<Machine>,
    _platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    cfg: GenomeConfig,
) -> BenchResult {
    let threads = machine.config().n_cores;
    let mut g = Genome::new(&**sys, cfg);
    sys.reset_stats();
    let mut elapsed = 0;

    let ga = Arc::new(g);
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
        .map(|tid| {
            let g = Arc::clone(&ga);
            let sys = Arc::clone(sys);
            Box::new(move || {
                g.dedup_phase(&*sys, tid, threads);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    elapsed += machine.run(bodies).makespan;

    g = Arc::try_unwrap(ga).unwrap_or_else(|_| panic!("phase-1 bodies done"));
    assert_eq!(g.dedup.elements(&**sys).len(), g.expected_unique());
    g.build_entries(&**sys);
    let n_entries = g.entries.len() as u64;

    let ga = Arc::new(g);
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
        .map(|tid| {
            let g = Arc::clone(&ga);
            let sys = Arc::clone(sys);
            Box::new(move || {
                g.link_phase(&*sys, tid, threads);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    elapsed += machine.run(bodies).makespan;
    ga.reconstruct(&**sys); // asserts acyclic chains

    BenchResult { ops: ga.segments.len() as u64 + n_entries, elapsed, stats: sys.stats_snapshot(), hotspots: take_hotspots(&**sys) }
}

/// Run genome natively.
pub fn run_genome_native<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    cfg: GenomeConfig,
) -> BenchResult {
    let threads = platform.n_cores();
    platform.register_thread_as(0);
    let mut g = Genome::new(&**sys, cfg);
    sys.reset_stats();
    let start = std::time::Instant::now();

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let g = &g;
            let sys = Arc::clone(sys);
            let platform = Arc::clone(platform);
            scope.spawn(move || {
                platform.register_thread_as(tid);
                g.dedup_phase(&*sys, tid, threads);
            });
        }
    });
    platform.register_thread_as(0);
    g.build_entries(&**sys);
    let n_entries = g.entries.len() as u64;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let g = &g;
            let sys = Arc::clone(sys);
            let platform = Arc::clone(platform);
            scope.spawn(move || {
                platform.register_thread_as(tid);
                g.link_phase(&*sys, tid, threads);
            });
        }
    });
    platform.register_thread_as(0);
    g.reconstruct(&**sys);
    BenchResult {
        ops: g.segments.len() as u64 + n_entries,
        elapsed: start.elapsed().as_nanos() as u64,
        stats: sys.stats_snapshot(),
        hotspots: take_hotspots(&**sys),
    }
}

/// Run vacation on the simulator: `txns_per_thread` client transactions
/// per core, then a conservation check.
pub fn run_vacation_sim<S: TmSys>(
    machine: &Arc<Machine>,
    _platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    cfg: VacationConfig,
    txns_per_thread: u64,
) -> BenchResult {
    let threads = machine.config().n_cores;
    // Setup runs transactions (tree inserts), so it must execute on a
    // simulated core: an unmeasured phase with core 0 building the DB.
    let v = {
        let slot: Arc<nztm_sim::sync::Mutex<Option<Vacation<S>>>> =
            Arc::new(nztm_sim::sync::Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let sys2 = Arc::clone(sys);
        let cfg2 = cfg.clone();
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(move || *slot2.lock() = Some(Vacation::new(&*sys2, cfg2)))];
        for _ in 1..threads {
            bodies.push(Box::new(|| {}));
        }
        machine.run(bodies);
        let v = slot.lock().take().expect("setup phase built the database");
        Arc::new(v)
    };
    sys.reset_stats();
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
        .map(|tid| {
            let v = Arc::clone(&v);
            let sys = Arc::clone(sys);
            let seed = cfg.seed;
            Box::new(move || {
                let mut rng = DetRng::new(seed ^ 0xBEEF).split(tid as u64);
                for _ in 0..txns_per_thread {
                    v.one_transaction(&*sys, &mut rng);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let report = machine.run(bodies);
    v.check_conservation(&**sys);
    BenchResult {
        ops: threads as u64 * txns_per_thread,
        elapsed: report.makespan,
        stats: sys.stats_snapshot(),
        hotspots: take_hotspots(&**sys),
    }
}

/// Run vacation natively.
pub fn run_vacation_native<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    cfg: VacationConfig,
    txns_per_thread: u64,
) -> BenchResult {
    let threads = platform.n_cores();
    platform.register_thread_as(0);
    let v = Arc::new(Vacation::new(&**sys, cfg.clone()));
    sys.reset_stats();
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let v = Arc::clone(&v);
            let sys = Arc::clone(sys);
            let platform = Arc::clone(platform);
            let seed = cfg.seed;
            scope.spawn(move || {
                platform.register_thread_as(tid);
                let mut rng = DetRng::new(seed ^ 0xBEEF).split(tid as u64);
                for _ in 0..txns_per_thread {
                    v.one_transaction(&*sys, &mut rng);
                }
            });
        }
    });
    platform.register_thread_as(0);
    v.check_conservation(&**sys);
    BenchResult {
        ops: threads as u64 * txns_per_thread,
        elapsed: start.elapsed().as_nanos() as u64,
        stats: sys.stats_snapshot(),
        hotspots: take_hotspots(&**sys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_core::cm::KarmaDeadlock;
    use nztm_core::{NzConfig, Nzstm};
    use nztm_sim::{CacheConfig, CostModel, MachineConfig};

    fn sim(cores: usize) -> (Arc<Machine>, Arc<SimPlatform>) {
        let m = Machine::new(MachineConfig {
            n_cores: cores,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(2048, 4),
            l2: CacheConfig::tiny(16384, 8),
            max_cycles: 4_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        (m, p)
    }

    #[test]
    fn native_hashtable_benchmark_runs() {
        let p = Native::new(2);
        let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let cfg = SetBenchConfig {
            kind: SetKind::HashTable,
            contention: Contention::Low,
            threads: 2,
            ops_per_thread: 300,
            seed: 11,
        };
        let r = run_set_native(&p, &s, &cfg);
        assert_eq!(r.ops, 600);
        assert!(r.stats.commits >= 600, "each op commits at least one txn");
        assert!(r.elapsed > 0);
    }

    #[test]
    fn sim_linkedlist_benchmark_is_deterministic() {
        let run = || {
            let (m, p) = sim(3);
            let s = Nzstm::new(
                Arc::clone(&p),
                Arc::new(KarmaDeadlock::default()),
                NzConfig::default(),
            );
            let cfg = SetBenchConfig {
                kind: SetKind::LinkedList,
                contention: Contention::High,
                threads: 3,
                ops_per_thread: 40,
                seed: 5,
            };
            let r = run_set_sim(&m, &p, &s, &cfg);
            (r.ops, r.elapsed, r.stats.commits, r.stats.aborts())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulated benchmark must be deterministic");
        assert_eq!(a.0, 120);
    }

    #[test]
    fn sim_redblack_benchmark_runs() {
        let (m, p) = sim(2);
        let s = Nzstm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig::default(),
        );
        let cfg = SetBenchConfig {
            kind: SetKind::RedBlack,
            contention: Contention::Low,
            threads: 2,
            ops_per_thread: 50,
            seed: 3,
        };
        let r = run_set_sim(&m, &p, &s, &cfg);
        assert_eq!(r.ops, 100);
        assert!(r.elapsed > 0);
        assert!(r.throughput() > 0.0);
    }
}
