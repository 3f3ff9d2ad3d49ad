//! Hybrid integration on the deterministic simulator: mixed
//! hardware/software executions and the §2.4 interaction rules.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::{NzConfig, Nzstm, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::{DetRng, Machine, MachineConfig, Platform, SimPlatform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn setup(cores: usize, atmtp: AtmtpConfig) -> (Arc<Machine>, Arc<SimPlatform>, Arc<NztmHybrid>) {
    let m = Machine::new(MachineConfig::paper(cores));
    let p = SimPlatform::new(Arc::clone(&m));
    let stm = Nzstm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&p), atmtp);
    htm.install();
    let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
    (m, p, hy)
}

fn no_spurious() -> AtmtpConfig {
    AtmtpConfig { spurious_num: 0, ..AtmtpConfig::default() }
}

/// Hardware transactions and software transactions interleave on the
/// same objects without losing updates: half the cores run through the
/// hybrid (mostly hardware), half run raw NZSTM software transactions.
#[test]
fn hardware_and_software_transactions_interoperate() {
    let (m, _p, hy) = setup(4, no_spurious());
    let obj = hy.alloc(0u64);
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..4)
        .map(|tid| {
            let hy = Arc::clone(&hy);
            let obj = Arc::clone(&obj);
            Box::new(move || {
                for _ in 0..120 {
                    if tid % 2 == 0 {
                        // Hybrid path (hardware first).
                        hy.execute(|tx| {
                            let v = NztmHybrid::read(tx, &obj)?;
                            NztmHybrid::write(tx, &obj, &(v + 1))
                        });
                    } else {
                        // Pure software path against the same object.
                        hy.stm().run(|tx| tx.update(&obj, |v| *v += 1));
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    m.run(bodies);
    assert_eq!(obj.read_untracked(), 480, "no lost updates across paths");
    let st = hy.stats_snapshot();
    assert!(st.htm_commits > 0, "hardware carried some load: {st:?}");
    hy.htm().uninstall();
}

/// §2.4: a hardware *writer* must abort when software readers are
/// registered; software read sharing + hardware writes never produce a
/// torn multi-word read.
#[test]
fn hw_writers_respect_sw_readers_consistency() {
    #[derive(Clone, Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: u64,
    }
    nztm_core::tm_data_struct!(Pair { a: u64, b: u64 });

    let (m, _p, hy) = setup(2, no_spurious());
    let obj = hy.alloc(Pair { a: 0, b: 0 });
    let torn = Arc::new(AtomicU64::new(0));
    let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
        {
            let hy = Arc::clone(&hy);
            let obj = Arc::clone(&obj);
            Box::new(move || {
                for i in 1..=300u64 {
                    hy.execute(|tx| NztmHybrid::write(tx, &obj, &Pair { a: i, b: i }));
                }
            })
        },
        {
            let hy = Arc::clone(&hy);
            let obj = Arc::clone(&obj);
            let torn = Arc::clone(&torn);
            Box::new(move || {
                for _ in 0..300 {
                    // Software visible reader.
                    let v = hy.stm().run(|tx| tx.read(&obj));
                    if v.a != v.b {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        },
    ];
    m.run(bodies);
    assert_eq!(torn.load(Ordering::Relaxed), 0, "no torn pair ever observed");
    assert_eq!(obj.read_untracked(), Pair { a: 300, b: 300 });
    hy.htm().uninstall();
}

/// Environmental (CPS "other") aborts do not retry in hardware — they
/// fall straight back to software (§4.3's retry policy).
#[test]
fn other_aborts_skip_hardware_retries() {
    // Spurious rate of 1-in-3 accesses: nearly every hardware attempt
    // dies environmentally.
    let (m, _p, hy) = setup(1, AtmtpConfig { spurious_num: 1, spurious_den: 3, ..AtmtpConfig::default() });
    let obj = hy.alloc(0u64);
    let (h2, o2) = (Arc::clone(&hy), Arc::clone(&obj));
    m.run(vec![Box::new(move || {
        for _ in 0..60 {
            h2.execute(|tx| {
                let v = NztmHybrid::read(tx, &o2)?;
                NztmHybrid::write(tx, &o2, &(v + 1))
            });
        }
    })]);
    let st = hy.stats_snapshot();
    assert_eq!(obj.read_untracked(), 60);
    assert!(st.htm_other_aborts > 0, "{st:?}");
    assert!(st.fallbacks > 0, "environmental aborts must fall back: {st:?}");
    // Retry policy: an Other abort ends the hardware attempts for that
    // transaction, so other-aborts ≼ fallbacks + commits.
    assert!(st.htm_other_aborts <= st.fallbacks + st.htm_commits, "{st:?}");
    hy.htm().uninstall();
}

/// The whole hybrid execution is deterministic on the simulator.
#[test]
fn hybrid_runs_are_deterministic() {
    fn run() -> (u64, u64, u64, u64) {
        let (m, _p, hy) = setup(3, AtmtpConfig::default());
        let objs: Arc<Vec<_>> = Arc::new((0..8).map(|i| hy.alloc(i as u64)).collect());
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|tid| {
                let hy = Arc::clone(&hy);
                let objs = Arc::clone(&objs);
                Box::new(move || {
                    let mut rng = DetRng::new(77).split(tid as u64);
                    for _ in 0..100 {
                        let i = rng.next_below(8) as usize;
                        hy.execute(|tx| {
                            let v = NztmHybrid::read(tx, &objs[i])?;
                            NztmHybrid::write(tx, &objs[i], &(v + 1))
                        });
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let r = m.run(bodies);
        let st = hy.stats_snapshot();
        hy.htm().uninstall();
        (r.makespan, st.htm_commits, st.htm_aborts, st.fallbacks)
    }
    assert_eq!(run(), run());
}

/// Read-set capacity: a hardware transaction reading more lines than the
/// L1 can hold takes a Capacity abort and falls back; the software path
/// completes it.
#[test]
fn big_read_sets_fall_back() {
    let m = Machine::new(MachineConfig {
        n_cores: 1,
        hw_cores: 0,
        l1: nztm_sim::CacheConfig::tiny(64, 2),
        l2: nztm_sim::CacheConfig::tiny(4096, 8),
        costs: nztm_sim::CostModel::default(),
        max_cycles: u64::MAX,
    });
    let p = SimPlatform::new(Arc::clone(&m));
    let stm = Nzstm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let htm = BestEffortHtm::new(Arc::clone(&p), no_spurious());
    htm.install();
    let hy = NztmHybrid::new(stm, htm, HybridConfig::default());
    let objs: Arc<Vec<_>> = Arc::new((0..200).map(|i| hy.alloc(i as u64)).collect());
    let (h2, o2) = (Arc::clone(&hy), Arc::clone(&objs));
    m.run(vec![Box::new(move || {
        let total = h2.execute(|tx| {
            let mut sum = 0u64;
            for o in o2.iter() {
                sum += NztmHybrid::read(tx, o)?;
            }
            Ok(sum)
        });
        assert_eq!(total, (0..200u64).sum::<u64>());
    })]);
    let st = hy.stats_snapshot();
    assert!(st.htm_capacity_aborts > 0, "{st:?}");
    assert_eq!(st.fallbacks, 1, "{st:?}");
    hy.htm().uninstall();
    let _ = p.n_cores();
}

/// Counter reconciliation on a contended hybrid run: each logical
/// transaction counts once in `txns_with_aborts`, and the per-cause
/// abort counters (software causes plus hardware classes) add up to the
/// aborted attempts the closures observed. A fallback whose software
/// path also aborted is the case that used to count twice.
#[test]
fn abort_counters_reconcile_on_a_contended_run() {
    const CORES: usize = 4;
    const TXNS: u64 = 150;
    let (m, _p, hy) = setup(CORES, AtmtpConfig::default());
    let objs: Arc<Vec<_>> = Arc::new((0..2).map(|_| hy.alloc(0u64)).collect());
    // Summed over threads: closure invocations, and logical transactions
    // that needed more than one.
    let invocations = Arc::new(AtomicU64::new(0));
    let with_aborts = Arc::new(AtomicU64::new(0));
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..CORES)
        .map(|tid| {
            let hy = Arc::clone(&hy);
            let objs = Arc::clone(&objs);
            let (invocations, with_aborts) = (Arc::clone(&invocations), Arc::clone(&with_aborts));
            Box::new(move || {
                let mut rng = DetRng::new(5).split(tid as u64);
                for _ in 0..TXNS {
                    let i = rng.next_below(2) as usize;
                    let mut calls = 0u64;
                    hy.execute(|tx| {
                        calls += 1;
                        let a = NztmHybrid::read(tx, &objs[0])?;
                        let b = NztmHybrid::read(tx, &objs[1])?;
                        NztmHybrid::write(tx, &objs[i], &(if i == 0 { a } else { b } + 1))
                    });
                    invocations.fetch_add(calls, Ordering::Relaxed);
                    with_aborts.fetch_add(u64::from(calls > 1), Ordering::Relaxed);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    m.run(bodies);
    let st = hy.stats_snapshot();
    hy.htm().uninstall();
    let total = CORES as u64 * TXNS;
    assert_eq!(objs.iter().map(|o| o.read_untracked()).sum::<u64>(), total);
    assert_eq!(st.commits, total, "{st:?}");
    assert!(st.fallbacks > 0 && st.aborts() > 0, "the run must fall back and abort in software: {st:?}");
    assert!(st.txns_with_aborts <= st.commits, "{st:?}");
    assert_eq!(st.txns_with_aborts, with_aborts.load(Ordering::Relaxed), "{st:?}");
    assert_eq!(
        st.htm_conflict_aborts + st.htm_capacity_aborts + st.htm_explicit_aborts + st.htm_other_aborts,
        st.htm_aborts,
        "{st:?}"
    );
    assert_eq!(
        st.aborts() + st.htm_aborts,
        invocations.load(Ordering::Relaxed) - st.commits,
        "{st:?}"
    );
}
