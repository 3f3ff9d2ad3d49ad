//! Deterministic simulated-machine tests: the bank workload under heavy
//! contention on every engine mode, with the watchdog converting any
//! livelock into a diagnosable panic; plus determinism of the simulation
//! itself.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::{Blocking, ModePolicy, Nonblocking, NzConfig, NzStm, ReadMode, ScssMode};
use nztm_sim::{CacheConfig, CostModel, DetRng, Machine, MachineConfig, Platform, SimPlatform};
use std::sync::Arc;

fn sim_machine(cores: usize, max_cycles: u64) -> Arc<Machine> {
    Machine::new(MachineConfig {
        n_cores: cores,
        hw_cores: 0,
        costs: CostModel::default(),
        l1: CacheConfig::tiny(1024, 4),
        l2: CacheConfig::tiny(8192, 8),
        max_cycles,
    })
}

/// Everything a run can observe about simulated time.
#[derive(Debug, PartialEq)]
struct SimRun {
    elapsed: u64,
    commits: u64,
    aborts: u64,
    /// [`Machine::schedule_trace`]: every run-token handoff.
    schedule: Vec<(u64, u32)>,
}

/// Run the bank workload on the simulator (money conservation is
/// asserted here).
fn sim_bank<M: ModePolicy>(cores: usize, transfers: u64, read_mode: ReadMode, seed: u64) -> SimRun {
    const ACCOUNTS: usize = 4;
    const INITIAL: u64 = 1_000;
    let machine = sim_machine(cores, 2_000_000_000);
    machine.enable_trace();
    let platform = SimPlatform::new(Arc::clone(&machine));
    let cfg = NzConfig { patience: 64, read_mode, ..NzConfig::default() };
    let stm: Arc<NzStm<SimPlatform, M>> =
        NzStm::new(Arc::clone(&platform), Arc::new(KarmaDeadlock::default()), cfg);
    let accounts: Arc<Vec<_>> = Arc::new((0..ACCOUNTS).map(|_| stm.new_obj(INITIAL)).collect());

    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..cores)
        .map(|tid| {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            let platform = Arc::clone(&platform);
            Box::new(move || {
                let mut rng = DetRng::new(seed).split(tid as u64);
                for _ in 0..transfers {
                    let from = rng.next_below(ACCOUNTS as u64) as usize;
                    let to = rng.next_below(ACCOUNTS as u64) as usize;
                    if from == to {
                        continue;
                    }
                    stm.run(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        if a > 0 {
                            tx.write(&accounts[from], &(a - 1))?;
                            tx.write(&accounts[to], &(b + 1))?;
                        }
                        Ok(())
                    });
                    platform.work(50);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();

    let report = machine.run(bodies);
    let total: u64 = accounts.iter().map(|a| a.read_untracked()).sum();
    assert_eq!(total, ACCOUNTS as u64 * INITIAL, "money conserved ({})", M::NAME);
    let stats = stm.stats_snapshot();
    SimRun {
        elapsed: report.makespan,
        commits: stats.commits,
        aborts: stats.aborts(),
        schedule: machine.schedule_trace().expect("trace enabled"),
    }
}

#[test]
fn sim_bank_bzstm() {
    sim_bank::<Blocking>(4, 150, ReadMode::Visible, 1);
}

#[test]
fn sim_bank_nzstm_visible() {
    sim_bank::<Nonblocking>(4, 150, ReadMode::Visible, 1);
}

#[test]
fn sim_bank_nzstm_invisible() {
    sim_bank::<Nonblocking>(4, 150, ReadMode::Invisible, 1);
}

#[test]
fn sim_bank_scss() {
    sim_bank::<ScssMode>(4, 150, ReadMode::Visible, 1);
}

#[test]
fn sim_bank_is_deterministic() {
    let a = sim_bank::<Nonblocking>(3, 60, ReadMode::Visible, 7);
    let b = sim_bank::<Nonblocking>(3, 60, ReadMode::Visible, 7);
    assert_eq!(a, b, "identical seeds must give identical simulations");
}

#[test]
fn sim_bank_seed_changes_timing() {
    let a = sim_bank::<Nonblocking>(3, 60, ReadMode::Visible, 7);
    let b = sim_bank::<Nonblocking>(3, 60, ReadMode::Visible, 8);
    // Different workloads virtually never produce the same cycle count.
    assert_ne!(a.elapsed, b.elapsed);
}

/// Simulated time must not depend on what else the process is doing:
/// two machines running concurrently on two OS threads, each twice with
/// the same seed, reproduce a solo run cycle for cycle and handoff for
/// handoff. Needs no sibling test to provide the interference, so it
/// holds (or fails) the same under `--test-threads=1`.
#[test]
fn concurrent_machines_reproduce_the_solo_run() {
    let run = || sim_bank::<Nonblocking>(3, 200, ReadMode::Visible, 7);
    let solo = run();
    let start = std::sync::Barrier::new(2);
    let concurrent: Vec<SimRun> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    [run(), run()]
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("machine thread panicked")).collect()
    });
    for (i, r) in concurrent.iter().enumerate() {
        assert_eq!(
            (r.elapsed, r.commits, r.aborts),
            (solo.elapsed, solo.commits, solo.aborts),
            "concurrent run {i}: (elapsed, commits, aborts) diverged from the solo run"
        );
        let diverged = r.schedule.iter().zip(&solo.schedule).position(|(a, b)| a != b);
        assert!(
            r.schedule == solo.schedule,
            "concurrent run {i}: schedule diverged from the solo run at handoff {diverged:?}"
        );
    }
}

/// Per-structure miss attribution sees the zero-indirection layout: a
/// bank run touches object headers (visible-reader RMWs, owner CASes)
/// and descriptors, while a single-`u64` object's data word sits on its
/// header line, so `ObjData` stays at zero. The classifier binning the
/// data word anywhere else would mean the collocated layout regressed.
#[test]
fn sim_attribution_sees_object_traffic() {
    use nztm_sim::StructClass;
    let machine = sim_machine(2, 2_000_000_000);
    machine.enable_attribution();
    let platform = SimPlatform::new(Arc::clone(&machine));
    let stm: Arc<NzStm<SimPlatform, Nonblocking>> =
        NzStm::new(Arc::clone(&platform), Arc::new(KarmaDeadlock::default()), NzConfig::default());
    let accounts: Arc<Vec<_>> = Arc::new((0..4).map(|_| stm.new_obj(100u64)).collect());
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
        .map(|tid| {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            Box::new(move || {
                let mut rng = DetRng::new(0xA77B).split(tid as u64);
                for _ in 0..32 {
                    let from = rng.next_below(4) as usize;
                    let to = (from + 1 + rng.next_below(3) as usize) % 4;
                    stm.run(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], &(a - 1))?;
                        tx.write(&accounts[to], &(b + 1))
                    });
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    machine.run(bodies);
    let table = machine.attribution().expect("attribution was enabled");
    let get = |c: StructClass| table.iter().find(|(k, _)| *k == c).expect("every class").1;
    assert!(get(StructClass::ObjHeaders).accesses > 0, "headers untouched: {table:?}");
    assert!(get(StructClass::TxnDescs).accesses > 0, "descriptors untouched: {table:?}");
    assert_eq!(get(StructClass::ObjData).accesses, 0, "single-word data left the header line: {table:?}");
    let tagged: u64 =
        table.iter().filter(|(c, _)| *c != StructClass::Other).map(|(_, s)| s.accesses).sum();
    assert!(
        tagged > get(StructClass::Other).accesses,
        "tagged structures should dominate untagged traffic: {table:?}"
    );
}
