//! Concurrency tests for the BZSTM / NZSTM / SCSS engines on the native
//! platform: atomicity, isolation, progress past unresponsive
//! transactions (induced inflation — §4.4.2 "we did induce inflation in
//! testing"), and statistics sanity.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::{
    Blocking, ModePolicy, Nonblocking, NzConfig, NzStm, ReadMode, ScssMode, TmSys,
};
use nztm_sim::Native;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn native_sys<M: ModePolicy>(threads: usize, cfg: NzConfig) -> (Arc<Native>, Arc<NzStm<Native, M>>) {
    let p = Native::new(threads);
    let s = NzStm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), cfg);
    (p, s)
}

/// Spawn `n` threads, register each with the platform, run `f(tid)`.
fn run_threads<M: ModePolicy + 'static>(
    p: &Arc<Native>,
    s: &Arc<NzStm<Native, M>>,
    n: usize,
    f: impl Fn(usize, &NzStm<Native, M>) + Send + Sync + 'static,
) {
    let f = Arc::new(f);
    let barrier = Arc::new(std::sync::Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let p = Arc::clone(p);
            let s = Arc::clone(s);
            let f = Arc::clone(&f);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                p.register_thread_as(i);
                b.wait();
                f(i, &s);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn counter_increments<M: ModePolicy + 'static>() {
    const THREADS: usize = 4;
    const INCS: u64 = 2_000;
    let (p, s) = native_sys::<M>(THREADS, NzConfig::default());
    let counter = s.new_obj(0u64);
    let c2 = Arc::clone(&counter);
    run_threads(&p, &s, THREADS, move |_tid, s| {
        for _ in 0..INCS {
            s.run(|tx| {
                let v = tx.read(&c2)?;
                tx.write(&c2, &(v + 1))
            });
        }
    });
    assert_eq!(counter.read_untracked(), THREADS as u64 * INCS);
    let st = s.stats_snapshot();
    assert_eq!(st.commits, THREADS as u64 * INCS);
}

#[test]
fn bzstm_counter_increments_atomically() {
    counter_increments::<Blocking>();
}

#[test]
fn nzstm_counter_increments_atomically() {
    counter_increments::<Nonblocking>();
}

#[test]
fn scss_counter_increments_atomically() {
    counter_increments::<ScssMode>();
}

fn bank_transfers<M: ModePolicy + 'static>(read_mode: ReadMode) {
    const THREADS: usize = 4;
    const ACCOUNTS: usize = 8;
    const TRANSFERS: u64 = 1_500;
    const INITIAL: u64 = 1_000;

    let cfg = NzConfig { read_mode, ..NzConfig::default() };
    let (p, s) = native_sys::<M>(THREADS, cfg);
    let accounts: Arc<Vec<_>> = Arc::new((0..ACCOUNTS).map(|_| s.new_obj(INITIAL)).collect());

    let accs = Arc::clone(&accounts);
    run_threads(&p, &s, THREADS, move |tid, s| {
        let mut x = 0x1234_5678u64.wrapping_mul(tid as u64 + 1);
        for _ in 0..TRANSFERS {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let from = (x >> 33) as usize % ACCOUNTS;
            let to = (x >> 13) as usize % ACCOUNTS;
            if from == to {
                continue;
            }
            s.run(|tx| {
                let a = tx.read(&accs[from])?;
                let b = tx.read(&accs[to])?;
                if a > 0 {
                    tx.write(&accs[from], &(a - 1))?;
                    tx.write(&accs[to], &(b + 1))?;
                }
                Ok(())
            });
        }
    });

    let total: u64 = accounts.iter().map(|a| a.read_untracked()).sum();
    assert_eq!(total, ACCOUNTS as u64 * INITIAL, "money conserved");
}

/// An invisible reader upgrading to a writer must see a settled owner's
/// version bump. While the upgrade check could run between an owner's
/// CAS and its bump, an engine lost an update in about one bank run in
/// a hundred, so a single run rarely showed it; this loop failed in two
/// of three runs on a 2-CPU host.
#[test]
fn invisible_reads_conserve_money_across_repeated_runs() {
    for _ in 0..100 {
        bank_transfers::<Blocking>(ReadMode::Invisible);
        bank_transfers::<Nonblocking>(ReadMode::Invisible);
        bank_transfers::<ScssMode>(ReadMode::Invisible);
    }
}

#[test]
fn bzstm_bank_conserves_money() {
    bank_transfers::<Blocking>(ReadMode::Visible);
}

#[test]
fn nzstm_bank_conserves_money() {
    bank_transfers::<Nonblocking>(ReadMode::Visible);
}

#[test]
fn scss_bank_conserves_money() {
    bank_transfers::<ScssMode>(ReadMode::Visible);
}

#[test]
fn nzstm_bank_conserves_money_invisible_reads() {
    bank_transfers::<Nonblocking>(ReadMode::Invisible);
}

#[test]
fn scss_bank_conserves_money_invisible_reads() {
    bank_transfers::<ScssMode>(ReadMode::Invisible);
}

/// Two objects updated together must always be observed equal by readers
/// (isolation): a reader transaction never sees a torn pair.
fn paired_update_isolation<M: ModePolicy + 'static>(read_mode: ReadMode) {
    const ITERS: u64 = 3_000;
    let cfg = NzConfig { read_mode, ..NzConfig::default() };
    let (p, s) = native_sys::<M>(2, cfg);
    let x = s.new_obj(0u64);
    let y = s.new_obj(0u64);
    let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
    run_threads(&p, &s, 2, move |tid, s| {
        if tid == 0 {
            for i in 1..=ITERS {
                s.run(|tx| {
                    tx.write(&x2, &i)?;
                    tx.write(&y2, &i)
                });
            }
        } else {
            for _ in 0..ITERS {
                let (a, b) = s.run(|tx| {
                    let a = tx.read(&x2)?;
                    let b = tx.read(&y2)?;
                    Ok((a, b))
                });
                assert_eq!(a, b, "reader observed a torn pair");
            }
        }
    });
}

#[test]
fn bzstm_paired_updates_are_isolated() {
    paired_update_isolation::<Blocking>(ReadMode::Visible);
}

#[test]
fn nzstm_paired_updates_are_isolated() {
    paired_update_isolation::<Nonblocking>(ReadMode::Visible);
}

#[test]
fn scss_paired_updates_are_isolated() {
    paired_update_isolation::<ScssMode>(ReadMode::Visible);
}

#[test]
fn nzstm_paired_updates_are_isolated_invisible() {
    paired_update_isolation::<Nonblocking>(ReadMode::Invisible);
}

/// Induce inflation (§4.4.2: "we did induce inflation in testing"): a
/// transaction acquires an object and then stalls inside user code
/// without reaching any validation point — an *unresponsive* transaction.
/// NZSTM must make progress past it by inflating; the stalled transaction
/// must ultimately abort; and the object must deflate back to in-place
/// operation.
#[test]
fn nzstm_inflates_past_unresponsive_transaction() {
    let cfg = NzConfig { patience: 50, ..NzConfig::default() };
    let (p, s) = native_sys::<Nonblocking>(2, cfg);
    let obj = s.new_obj(100u64);
    let obj2 = Arc::clone(&obj);
    let stall_released = Arc::new(AtomicBool::new(false));
    let acquired = Arc::new(AtomicBool::new(false));
    let sr = Arc::clone(&stall_released);
    let acq = Arc::clone(&acquired);

    run_threads(&p, &s, 2, move |tid, s| {
        if tid == 0 {
            // Becomes unresponsive while owning `obj`.
            let mut first = true;
            s.run(|tx| {
                tx.write(&obj2, &111)?;
                if first {
                    first = false;
                    // Stall with the object acquired and dirtied.
                    acq.store(true, Ordering::SeqCst);
                    while !sr.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            });
        } else {
            // Wait until the peer actually holds the object, then make
            // progress despite the stalled owner.
            while !acq.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for i in 0..50u64 {
                s.run(|tx| {
                    let v = tx.read(&obj2)?;
                    tx.write(&obj2, &(v + 1))?;
                    Ok(())
                });
                let _ = i;
            }
            sr.store(true, Ordering::Relaxed);
        }
    });

    let st = s.stats_snapshot();
    assert!(st.inflations > 0, "progress required inflation: {st:?}");
    assert!(st.deflations > 0, "object must deflate once the victim acknowledged: {st:?}");
    // The stalled transaction was asked to abort, acknowledged, retried,
    // and eventually committed, so *all* updates are present:
    // 100 start, +50 increments, and the final retried write of 111
    // ordering-dependent — just check conservation-ish bounds.
    let v = obj.read_untracked();
    assert!(v >= 111, "final value plausible: {v}");
    assert!(st.aborts_requested > 0, "the unresponsive victim must have aborted");
}

/// Same scenario under SCSS: progress without any inflation machinery.
#[test]
fn scss_progresses_past_unresponsive_transaction_without_inflation() {
    let cfg = NzConfig { patience: 50, ..NzConfig::default() };
    let (p, s) = native_sys::<ScssMode>(2, cfg);
    let obj = s.new_obj(100u64);
    let obj2 = Arc::clone(&obj);
    let stall_released = Arc::new(AtomicBool::new(false));
    let acquired = Arc::new(AtomicBool::new(false));
    let sr = Arc::clone(&stall_released);
    let acq = Arc::clone(&acquired);

    run_threads(&p, &s, 2, move |tid, s| {
        if tid == 0 {
            let mut first = true;
            s.run(|tx| {
                tx.write(&obj2, &111)?;
                if first {
                    first = false;
                    acq.store(true, Ordering::SeqCst);
                    while !sr.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            });
        } else {
            while !acq.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for _ in 0..50u64 {
                s.run(|tx| {
                    let v = tx.read(&obj2)?;
                    tx.write(&obj2, &(v + 1))
                });
            }
            sr.store(true, Ordering::Relaxed);
        }
    });

    let st = s.stats_snapshot();
    assert_eq!(st.inflations, 0, "SCSS never inflates");
    assert!(st.scss_stores > 0, "all in-place stores go through SCSS");
    assert!(
        st.aborts_requested > 0,
        "the unresponsive victim must have been aborted by request: {st:?}"
    );
    // 100 initial; 50 increments survived the victim (its write of 111
    // either lost to abort and retried after, or landed first).
    let v = obj.read_untracked();
    assert!(v >= 111 || v == 150, "final value plausible: {v}");
}

/// BZSTM (blocking) also finishes this scenario — but only because the
/// stalled thread eventually wakes; the waiter simply blocks meanwhile.
#[test]
fn bzstm_waits_out_a_slow_transaction() {
    let (p, s) = native_sys::<Blocking>(2, NzConfig::default());
    let obj = s.new_obj(0u64);
    let obj2 = Arc::clone(&obj);

    run_threads(&p, &s, 2, move |tid, s| {
        if tid == 0 {
            let mut first = true;
            s.run(|tx| {
                tx.write(&obj2, &1)?;
                if first {
                    first = false;
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok(())
            });
        } else {
            std::thread::sleep(Duration::from_millis(5));
            s.run(|tx| {
                let v = tx.read(&obj2)?;
                tx.write(&obj2, &(v + 10))
            });
        }
    });

    let st = s.stats_snapshot();
    assert_eq!(st.inflations, 0, "BZSTM never inflates");
    assert_eq!(st.commits, 2);
    let v = obj.read_untracked();
    assert!(v == 11 || v == 10 || v == 1, "some serialization happened: {v}");
}

/// Read-only transactions on many threads against a quiescent object
/// never conflict and never abort.
#[test]
fn read_only_transactions_never_abort() {
    const THREADS: usize = 4;
    let (p, s) = native_sys::<Nonblocking>(THREADS, NzConfig::default());
    let obj = s.new_obj(7u64);
    let o2 = Arc::clone(&obj);
    run_threads(&p, &s, THREADS, move |_tid, s| {
        for _ in 0..2_000 {
            let v = s.run(|tx| tx.read(&o2));
            assert_eq!(v, 7);
        }
    });
    let st = s.stats_snapshot();
    assert_eq!(st.aborts(), 0);
    assert_eq!(st.commits, THREADS as u64 * 2_000);
    assert_eq!(st.conflicts, 0);
}

/// `update` convenience works and the TmSys trait surface matches the
/// inherent API.
#[test]
fn update_and_trait_surface() {
    let (p, s) = native_sys::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let obj = s.new_obj(5u64);
    s.run(|tx| tx.update(&obj, |v| *v *= 3));
    assert_eq!(obj.read_untracked(), 15);

    // Trait surface.
    let obj2 = TmSys::alloc(&*s, 1u64);
    let r = s.execute(|tx| {
        let v = <NzStm<Native, Nonblocking> as TmSys>::read(tx, &obj2)?;
        <NzStm<Native, Nonblocking> as TmSys>::write(tx, &obj2, &(v + 1))?;
        Ok(v)
    });
    assert_eq!(r, 1);
    assert_eq!(<NzStm<Native, Nonblocking> as TmSys>::peek(&obj2), 2);
}

/// Multi-word objects: backup/restore must cover every word.
#[test]
fn multiword_objects_restore_fully_on_abort() {
    #[derive(Clone, Debug, PartialEq)]
    struct Wide {
        a: u64,
        b: u64,
        c: u64,
        d: u64,
    }
    nztm_core::tm_data_struct!(Wide { a: u64, b: u64, c: u64, d: u64 });

    const THREADS: usize = 4;
    let (p, s) = native_sys::<Nonblocking>(THREADS, NzConfig::default());
    let obj = s.new_obj(Wide { a: 0, b: 0, c: 0, d: 0 });
    let o2 = Arc::clone(&obj);
    run_threads(&p, &s, THREADS, move |_tid, s| {
        for _ in 0..1_000 {
            s.run(|tx| {
                let mut v = tx.read(&o2)?;
                // Keep the invariant a == b == c == d.
                let n = v.a + 1;
                v = Wide { a: n, b: n, c: n, d: n };
                tx.write(&o2, &v)
            });
        }
    });
    let v = obj.read_untracked();
    assert_eq!(v.a, THREADS as u64 * 1_000);
    assert_eq!(v.a, v.b);
    assert_eq!(v.b, v.c);
    assert_eq!(v.c, v.d);
}

/// Epoch reclamation soundness under churn: repeatedly create conflicts
/// so descriptors and backups are replaced and deferred-freed. Run under
/// normal test (and, in CI, miri-less but asan-able) to catch UAF.
#[test]
fn descriptor_churn_is_reclamation_safe() {
    const THREADS: usize = 4;
    let (p, s) = native_sys::<Nonblocking>(THREADS, NzConfig { patience: 8, ..NzConfig::default() });
    let objs: Arc<Vec<_>> = Arc::new((0..4).map(|i| s.new_obj(i as u64)).collect());
    let o2 = Arc::clone(&objs);
    run_threads(&p, &s, THREADS, move |tid, s| {
        for i in 0..3_000u64 {
            let k = ((i + tid as u64) % 4) as usize;
            s.run(|tx| {
                let v = tx.read(&o2[k])?;
                tx.write(&o2[k], &(v + 1))
            });
        }
    });
    let total: u64 = objs.iter().map(|o| o.read_untracked()).sum();
    assert_eq!(total, (1 + 2 + 3) + THREADS as u64 * 3_000);
}
