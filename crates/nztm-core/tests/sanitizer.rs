//! Protocol-sanitizer integration tests: drive the **real** engines
//! through adversarially perturbed interleavings with the invariant
//! checks of [`nztm_core::sanitizer`] armed.
//!
//! Run with `cargo test --features sanitize -p nztm-core`. The file is
//! self-contained (a small transfer-bank workload is inlined) so the
//! suite needs no dev-dependency on the workloads crate; the larger
//! cross-system stress lives in the workspace-level `sanitizer_stress`
//! target.
#![cfg(feature = "sanitize")]

use nztm_core::cm::{Aggressive, KarmaDeadlock, Polite};
use nztm_core::engine::{ModePolicy, NzStm};
use nztm_core::{Bzstm, NZObject, NzBuilder, NzConfig, Nzstm, NzstmScss};
use nztm_sim::{DetRng, Machine, MachineConfig, Native, Platform, SimPlatform};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Inline transfer-bank workload (self-contained: no workloads dep).
// ---------------------------------------------------------------------------

const N_ACCOUNTS: usize = 4;
const INITIAL: u64 = 100;

struct Bank {
    accounts: Vec<Arc<NZObject<u64>>>,
}

impl Bank {
    fn new<P: Platform, M: ModePolicy>(stm: &NzStm<P, M>) -> Self {
        Bank { accounts: (0..N_ACCOUNTS).map(|_| stm.new_obj(INITIAL)).collect() }
    }

    fn one_op<P: Platform, M: ModePolicy>(&self, stm: &NzStm<P, M>, rng: &mut DetRng) {
        let n = self.accounts.len() as u64;
        let from = rng.next_u64() % n;
        let mut to = rng.next_u64() % (n - 1);
        if to >= from {
            to += 1;
        }
        let amount = rng.next_u64() % 5;
        let (from, to) = (&self.accounts[from as usize], &self.accounts[to as usize]);
        stm.run(|tx| {
            let f = tx.read(from)?;
            let t = tx.read(to)?;
            let moved = amount.min(f);
            tx.write(from, &(f - moved))?;
            tx.write(to, &(t + moved))?;
            Ok(())
        });
    }

    fn assert_conserved(&self) {
        let total: u64 = self.accounts.iter().map(|a| a.read_untracked()).sum();
        assert_eq!(total, N_ACCOUNTS as u64 * INITIAL, "money not conserved");
    }
}

fn native_stress<M: ModePolicy>(
    platform: &Arc<Native>,
    stm: &Arc<NzStm<Native, M>>,
    threads: usize,
    ops: u64,
    seed: u64,
) {
    platform.register_thread_as(0);
    let bank = Arc::new(Bank::new(&**stm));
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let platform = Arc::clone(platform);
            let stm = Arc::clone(stm);
            let bank = Arc::clone(&bank);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                platform.register_thread_as(tid);
                let mut rng = DetRng::new(seed).split(tid as u64 + 1);
                barrier.wait();
                for _ in 0..ops {
                    bank.one_op(&*stm, &mut rng);
                }
            });
        }
    });
    bank.assert_conserved();
}

// ---------------------------------------------------------------------------
// 1. Clean runs: adversarial pause schedules on every software system
//    must produce zero violations (and conserve money).
// ---------------------------------------------------------------------------

#[test]
fn bzstm_clean_under_adversarial_schedules_native() {
    for seed in 1..=4u64 {
        let p = Native::new(4);
        let stm = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        stm.sanitizer().set_schedule(seed, 6);
        native_stress(&p, &stm, 4, 150, seed);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

#[test]
fn nzstm_clean_under_adversarial_schedules_native() {
    for seed in 1..=4u64 {
        let p = Native::new(4);
        // Tiny patience makes inflation reachable under injected pauses;
        // a small Polite budget keeps abort requests flowing.
        let stm: Arc<Nzstm<Native>> = Nzstm::new(
            Arc::clone(&p),
            Arc::new(Polite { budget: 4 }),
            NzConfig { patience: 8, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 6);
        native_stress(&p, &stm, 4, 150, seed);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

#[test]
fn scss_clean_under_adversarial_schedules_native() {
    for seed in 1..=4u64 {
        let p = Native::new(4);
        let stm: Arc<NzstmScss<Native>> = NzstmScss::new(
            Arc::clone(&p),
            Arc::new(Polite { budget: 4 }),
            NzConfig { patience: 8, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 6);
        native_stress(&p, &stm, 4, 150, seed);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

// ---------------------------------------------------------------------------
// 2. Determinism: on the simulated machine, the same schedule seed must
//    produce a byte-identical decision log (and machine handoff trace).
// ---------------------------------------------------------------------------

#[test]
fn same_seed_gives_byte_identical_schedule_on_sim() {
    let run = |seed: u64| {
        let m = Machine::new(MachineConfig::paper(3));
        let p = SimPlatform::new(Arc::clone(&m));
        m.enable_trace();
        let stm = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        stm.sanitizer().set_schedule(seed, 8);
        // Setup on core 0 (allocation charges the sim cache model).
        let bank = {
            let slot: Arc<nztm_sim::sync::Mutex<Option<Bank>>> =
                Arc::new(nztm_sim::sync::Mutex::new(None));
            let slot2 = Arc::clone(&slot);
            let stm2 = Arc::clone(&stm);
            let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(move || *slot2.lock() = Some(Bank::new(&*stm2))),
                Box::new(|| {}),
                Box::new(|| {}),
            ];
            m.run(bodies);
            let built = slot.lock().take().expect("bank built");
            Arc::new(built)
        };
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|tid| {
                let stm = Arc::clone(&stm);
                let bank = Arc::clone(&bank);
                Box::new(move || {
                    let mut rng = DetRng::new(seed).split(tid as u64 + 1);
                    for _ in 0..40 {
                        bank.one_op(&*stm, &mut rng);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        bank.assert_conserved();
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "{v:?}");
        (
            stm.sanitizer().decision_log(),
            stm.sanitizer().schedule_digest(),
            m.schedule_trace().expect("trace enabled"),
        )
    };

    let (log_a, digest_a, trace_a) = run(42);
    let (log_b, digest_b, trace_b) = run(42);
    assert!(!log_a.is_empty(), "hooked decision points must fire");
    assert_eq!(log_a, log_b, "same seed must give a byte-identical decision log");
    assert_eq!(digest_a, digest_b);
    assert_eq!(trace_a, trace_b, "same seed must give a byte-identical machine schedule");
}

// ---------------------------------------------------------------------------
// 3. Fault injection: a requester forcing the victim's status must be
//    caught, in well under 10k schedules.
// ---------------------------------------------------------------------------

#[test]
fn injected_handshake_bug_is_caught_quickly() {
    let mut caught_at = None;
    for seed in 0..10_000u64 {
        let p = Native::new(2);
        // Aggressive CM: every conflict becomes an abort request, so the
        // injected fault (requester forces Status=Aborted) fires often.
        let stm: Arc<Bzstm<Native>> = Bzstm::new(
            Arc::clone(&p),
            Arc::new(Aggressive),
            NzConfig { inject_handshake_bug: true, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 4);
        p.register_thread_as(0);
        let obj = stm.new_obj(0u64);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            for tid in 0..2usize {
                let p = Arc::clone(&p);
                let stm = Arc::clone(&stm);
                let obj = Arc::clone(&obj);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    p.register_thread_as(tid);
                    barrier.wait();
                    for _ in 0..50 {
                        stm.run(|tx| tx.update(&obj, |v| *v += 1));
                    }
                });
            }
        });
        let v = stm.sanitizer().violations();
        if !v.is_empty() {
            assert!(
                v.iter().any(|v| v.rule == "status-forced-by-requester"),
                "wrong rule: {v:?}"
            );
            caught_at = Some(seed);
            break;
        }
    }
    let at = caught_at.expect("handshake bug never caught within 10k schedules");
    assert!(at < 10_000, "caught at schedule {at}");
}

// ---------------------------------------------------------------------------
// 4. Inflation/deflation invariants hold in the induced-inflation
//    scenario, with the sanitizer armed.
// ---------------------------------------------------------------------------

#[test]
fn induced_inflation_and_deflation_pass_the_sanitizer() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let machine = Machine::new(MachineConfig::paper(3));
    let platform = SimPlatform::new(Arc::clone(&machine));
    let stm: Arc<Nzstm<SimPlatform>> = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig { patience: 32, ..NzConfig::default() },
    );
    stm.sanitizer().set_schedule(7, 3);
    let obj = stm.new_obj(0u64);

    let stalled = Arc::new(AtomicBool::new(false));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        // Core 0: acquires, then goes unresponsive (simulated preemption).
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
    assert!(st.inflations > 0, "scenario must exercise inflation: {st:?}");
    assert!(st.deflations > 0, "and deflation: {st:?}");
    let v = stm.sanitizer().violations();
    assert!(v.is_empty(), "{v:?}\n{}", stm.sanitizer().replay_dump());
    assert_eq!(obj.read_untracked(), 1_000_000 + 50);
}

// ---------------------------------------------------------------------------
// 5. Restore path: abort-heavy single-object churn keeps the
//    backup/restore invariant clean.
// ---------------------------------------------------------------------------

#[test]
fn abort_heavy_churn_keeps_restore_invariant() {
    let p = Native::new(3);
    let stm: Arc<Nzstm<Native>> =
        Nzstm::new(Arc::clone(&p), Arc::new(Aggressive), NzConfig::default());
    stm.sanitizer().set_schedule(99, 5);
    p.register_thread_as(0);
    let obj = stm.new_obj(7u64);
    let barrier = Arc::new(std::sync::Barrier::new(3));
    std::thread::scope(|scope| {
        for tid in 0..3usize {
            let p = Arc::clone(&p);
            let stm = Arc::clone(&stm);
            let obj = Arc::clone(&obj);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                p.register_thread_as(tid);
                barrier.wait();
                for i in 0..300u64 {
                    if i % 7 == 3 {
                        // Explicit aborts leave dirty in-place data behind
                        // for the next acquirer to restore.
                        let mut once = false;
                        stm.run(|tx| {
                            let v = tx.read(&obj)?;
                            tx.write(&obj, &(v + 1000))?;
                            if !once {
                                once = true;
                                return Err(tx.abort());
                            }
                            Ok(())
                        });
                    } else {
                        stm.run(|tx| tx.update(&obj, |v| *v += 1));
                    }
                }
            });
        }
    });
    let v = stm.sanitizer().violations();
    assert!(v.is_empty(), "{v:?}\n{}", stm.sanitizer().replay_dump());
    let st = stm.stats_snapshot();
    assert!(st.aborts() > 0, "churn must actually abort: {st:?}");
}

// ---------------------------------------------------------------------------
// 6. Rule 2 under SCSS: a writer whose ownership was stolen between its
//    last validation and an eager store is not flagged. The thief has
//    taken the object's backup word, but the victim's SCSS store fails.
// ---------------------------------------------------------------------------

/// Native threads with one gate: once armed, thread 0's next yield point
/// parks it until thread 1 has run a whole transaction.
struct Gated {
    inner: Arc<Native>,
    armed: std::sync::atomic::AtomicBool,
    meet: std::sync::Barrier,
}

impl Platform for Gated {
    fn work(&self, cycles: u64) {
        self.inner.work(cycles);
    }
    fn mem(&self, addr: usize, bytes: usize, kind: nztm_sim::AccessKind) {
        self.inner.mem(addr, bytes, kind);
    }
    fn yield_now(&self) {
        if self.core_id() == 0 && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.meet.wait(); // thread 1 may start
            self.meet.wait(); // thread 1 has committed
        }
    }
    fn spin_wait(&self) {
        self.inner.spin_wait();
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn core_id(&self) -> usize {
        self.inner.core_id()
    }
    fn n_cores(&self) -> usize {
        self.inner.n_cores()
    }
}

#[test]
fn stolen_scss_writer_is_not_flagged_for_a_missing_backup() {
    let p = Arc::new(Gated {
        inner: Native::new(2),
        armed: Default::default(),
        meet: std::sync::Barrier::new(2),
    });
    let stm = NzBuilder::new(Arc::clone(&p)).cm(Arc::new(Aggressive)).build_scss();
    // A zero pause budget makes every decision point a bare yield, so
    // the gate parks the victim exactly at its `EagerWrite` point.
    stm.sanitizer().set_schedule(1, 0);
    p.inner.register_thread_as(0);
    let obj = stm.new_obj(0u64);
    let mut victim_attempts = 0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            p.inner.register_thread_as(0);
            stm.run(|tx| {
                victim_attempts += 1;
                tx.write(&obj, &1)?;
                // The object is ours now: the next write goes straight
                // from validation to the eager store, and that yield
                // point is where the thief runs.
                if victim_attempts == 1 {
                    p.armed.store(true, std::sync::atomic::Ordering::SeqCst);
                }
                tx.write(&obj, &2)
            });
        });
        scope.spawn(|| {
            p.inner.register_thread_as(1);
            p.meet.wait();
            // Aggressive: request the victim's abort, barrier, steal,
            // commit, and with the commit take the backup word back.
            stm.run(|tx| tx.write(&obj, &7));
            p.meet.wait();
        });
    });
    let st = stm.stats_snapshot();
    assert_eq!(victim_attempts, 2, "the victim's first attempt was stolen from: {st:?}");
    assert!(st.scss_failures > 0, "the stolen store must fail: {st:?}");
    assert_eq!(obj.read_untracked(), 2);
    let v = stm.sanitizer().violations();
    assert!(v.is_empty(), "{v:?}\n{}", stm.sanitizer().replay_dump());
}
