//! Experiment S9: "we did induce inflation in testing" (§4.4.2) — plus
//! the converse claim that drives the paper's common-case argument: in
//! ordinary benchmark executions inflation never happens.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::{NzBuilder, NzConfig, Nzstm};
use nztm_sim::{DetRng, Machine, MachineConfig, Platform, SimPlatform};
use nztm_workloads::linkedlist::LinkedListSet;
use nztm_workloads::set::{Contention, SetOp, TmSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Ordinary high-contention execution: zero inflations (§4.4.2: "it is
/// not due to any actual object inflation, which was not observed in
/// our experiments"). The claim is about *responsive* threads, so it
/// runs where responsiveness is controlled: on native threads the OS
/// may preempt an owner for longer than the patience budget, and a peer
/// then — correctly — inflates past it.
#[test]
fn inflation_not_observed_in_ordinary_runs() {
    const CORES: usize = 4;
    const OPS: usize = 400;
    let machine = Machine::new(MachineConfig::paper(CORES));
    let platform = SimPlatform::new(Arc::clone(&machine));
    let s = NzBuilder::new(platform).build_nzstm();
    let set = Arc::new(LinkedListSet::new(&*s, CORES * OPS));
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..CORES)
        .map(|core| {
            let s = Arc::clone(&s);
            let set = Arc::clone(&set);
            Box::new(move || {
                let mut rng = DetRng::new(5).split(core as u64);
                for _ in 0..OPS {
                    set.apply(&*s, SetOp::draw(&mut rng, Contention::High));
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    machine.run(bodies);
    let st = s.stats_snapshot();
    assert_eq!(st.commits, (CORES * OPS) as u64);
    assert_eq!(st.inflations, 0, "responsive threads must never trigger inflation: {st:?}");
    assert!(st.conflicts > 100, "the run must actually have contention: {st:?}");
}

/// Induced inflation on the deterministic simulator: one core stalls
/// mid-transaction (simulated preemption via a huge work charge); the
/// other cores must commit right through it, inflating and — once the
/// victim acknowledges — deflating.
#[test]
fn inflation_induced_on_simulator() {
    let machine = Machine::new(MachineConfig::paper(3));
    let platform = SimPlatform::new(Arc::clone(&machine));
    let stm = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig { patience: 32, ..NzConfig::default() },
    );
    let obj = stm.new_obj(0u64);

    let stalled = Arc::new(AtomicBool::new(false));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        // Core 0: acquires, then becomes unresponsive for a long stretch
        // of simulated time.
        let stm = Arc::clone(&stm);
        let obj = Arc::clone(&obj);
        let platform = Arc::clone(&platform);
        let stalled = Arc::clone(&stalled);
        bodies.push(Box::new(move || {
            let mut first = true;
            stm.run(|tx| {
                tx.update(&obj, |v| *v += 1_000_000)?;
                if first {
                    first = false;
                    stalled.store(true, Ordering::SeqCst);
                    // 10M simulated cycles of "preemption".
                    platform.work(10_000_000);
                    platform.yield_now();
                }
                Ok(())
            });
        }));
    }
    for _ in 1..3 {
        let stm = Arc::clone(&stm);
        let obj = Arc::clone(&obj);
        let platform = Arc::clone(&platform);
        let stalled = Arc::clone(&stalled);
        bodies.push(Box::new(move || {
            while !stalled.load(Ordering::SeqCst) {
                platform.spin_wait();
            }
            for _ in 0..25 {
                stm.run(|tx| tx.update(&obj, |v| *v += 1));
            }
        }));
    }
    machine.run(bodies);

    let st = stm.stats_snapshot();
    assert!(st.inflations > 0, "survivors had to inflate: {st:?}");
    assert!(st.deflations > 0, "and deflate once the victim acknowledged: {st:?}");
    assert_eq!(st.commits, 1 + 50, "everyone eventually commits");
    // All updates landed exactly once.
    assert_eq!(obj.read_untracked(), 1_000_000 + 50);
}

/// The same scenario is *deterministic*: two runs, identical statistics
/// and cycle counts.
#[test]
fn induced_inflation_is_deterministic() {
    fn run() -> (u64, u64, u64) {
        let machine = Machine::new(MachineConfig::paper(2));
        let platform = SimPlatform::new(Arc::clone(&machine));
        let stm = Nzstm::new(
            Arc::clone(&platform),
            Arc::new(KarmaDeadlock::default()),
            NzConfig { patience: 16, ..NzConfig::default() },
        );
        let obj = stm.new_obj(0u64);
        let o1 = Arc::clone(&obj);
        let o2 = Arc::clone(&obj);
        let s1 = Arc::clone(&stm);
        let s2 = Arc::clone(&stm);
        let p1 = Arc::clone(&platform);
        let report = machine.run(vec![
            Box::new(move || {
                let mut first = true;
                s1.run(|tx| {
                    tx.update(&o1, |v| *v += 100)?;
                    if first {
                        first = false;
                        p1.work(1_000_000);
                        p1.yield_now();
                    }
                    Ok(())
                });
            }),
            Box::new(move || {
                for _ in 0..10 {
                    s2.run(|tx| tx.update(&o2, |v| *v += 1));
                }
            }),
        ]);
        let st = stm.stats_snapshot();
        (report.makespan, st.inflations, st.deflations)
    }
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.1 > 0);
}
