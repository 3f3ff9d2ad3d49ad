//! Edge-case coverage for the engine: read-own-write through locators,
//! read-to-write upgrades, backup-pool reuse, contention-manager
//! plumbing, and statistics accounting; plus NOrec's per-attempt
//! footprint.

use nztm_core::cm::{Aggressive, KarmaDeadlock, Timestamp};
use nztm_core::object::OwnerRef;
use nztm_core::{
    Blocking, ModePolicy, Nonblocking, NzBuilder, NzConfig, NzStm, ReadMode, ScssMode,
};
use nztm_sim::Native;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn native<M: ModePolicy>(threads: usize, cfg: NzConfig) -> (Arc<Native>, Arc<NzStm<Native, M>>) {
    let p = Native::new(threads);
    let s = NzStm::new(Arc::clone(&p), Arc::new(KarmaDeadlock::default()), cfg);
    (p, s)
}

#[test]
fn read_own_write_in_place() {
    let (p, s) = native::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let obj = s.new_obj(1u64);
    s.run(|tx| {
        tx.write(&obj, &5)?;
        assert_eq!(tx.read(&obj)?, 5, "must see own in-place write");
        tx.write(&obj, &6)?;
        assert_eq!(tx.read(&obj)?, 6);
        Ok(())
    });
    assert_eq!(obj.read_untracked(), 6);
}

#[test]
fn read_then_write_upgrade() {
    let (p, s) = native::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let obj = s.new_obj(10u64);
    s.run(|tx| {
        let v = tx.read(&obj)?; // registers as visible reader
        tx.write(&obj, &(v * 2))?; // upgrades to owner
        assert_eq!(tx.read(&obj)?, 20);
        Ok(())
    });
    assert_eq!(obj.read_untracked(), 20);
    assert_eq!(s.stats_snapshot().commits, 1);
}

#[test]
fn read_own_write_through_locator() {
    // Force inflation, then verify the inflating owner reads its own
    // locator-buffered writes.
    let cfg = NzConfig { patience: 20, ..NzConfig::default() };
    let (p, s) = native::<Nonblocking>(2, cfg);
    let obj = s.new_obj(100u64);
    let obj2 = Arc::clone(&obj);
    let acquired = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (a2, r2) = (Arc::clone(&acquired), Arc::clone(&release));

    std::thread::scope(|scope| {
        let p0 = Arc::clone(&p);
        let s0 = Arc::clone(&s);
        scope.spawn(move || {
            p0.register_thread_as(0);
            let mut first = true;
            s0.run(|tx| {
                tx.write(&obj2, &111)?;
                if first {
                    first = false;
                    a2.store(true, Ordering::SeqCst);
                    while !r2.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            });
        });
        let p1 = Arc::clone(&p);
        let s1 = Arc::clone(&s);
        let obj3 = Arc::clone(&obj);
        let rel = Arc::clone(&release);
        let acq = Arc::clone(&acquired);
        scope.spawn(move || {
            p1.register_thread_as(1);
            while !acq.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // This transaction inflates past the stalled owner, writes
            // through the locator, and must read back its own value.
            s1.run(|tx| {
                let v = tx.read(&obj3)?;
                tx.write(&obj3, &(v + 7))?;
                assert_eq!(tx.read(&obj3)?, v + 7, "read-own-write through locator");
                Ok(())
            });
            rel.store(true, Ordering::SeqCst);
        });
    });
    let st = s.stats_snapshot();
    assert!(st.inflations > 0, "scenario must exercise the locator path: {st:?}");
}

#[test]
fn invisible_reader_commits_past_a_settled_locator() {
    // Thread 0 owns the object and stalls; thread 1 inflates past it and
    // commits. The object stays inflated while thread 0 has not
    // acknowledged, and a read-only invisible transaction must still
    // commit: its commit-time validation once rejected every inflated
    // object it did not own itself, so the reader retried forever.
    let mut cfg = NzConfig { patience: 20, ..NzConfig::default() };
    cfg.read_mode = ReadMode::Invisible;
    let (p, s) = native::<Nonblocking>(2, cfg);
    let obj = s.new_obj(100u64);
    let acquired = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            p.register_thread_as(0);
            let mut first = true;
            s.run(|tx| {
                tx.write(&obj, &111)?;
                if first {
                    first = false;
                    acquired.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Ok(())
            });
        });
        scope.spawn(|| {
            p.register_thread_as(1);
            while !acquired.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            s.run(|tx| tx.update(&obj, |v| *v += 7));
            let mut attempts = 0;
            let seen = s.run_until_crash(|tx| {
                attempts += 1;
                if attempts > 100 {
                    return Ok(None); // give up: the test fails below
                }
                tx.read(&obj).map(Some)
            });
            release.store(true, Ordering::SeqCst);
            assert_eq!(seen, Some(107), "after {attempts} attempts");
        });
    });
    let st = s.stats_snapshot();
    assert!(st.inflations > 0, "scenario must exercise the locator path: {st:?}");
    assert_eq!(obj.read_untracked(), 111);
}

/// A committed writer releases what it acquired: the header is left as
/// §2.4's hardware repair leaves it, with no owner and no backup, so the
/// next read dereferences no descriptor.
#[test]
fn committed_write_leaves_no_owner_and_no_backup() {
    fn check<M: ModePolicy>() {
        let (p, s) = native::<M>(1, NzConfig::default());
        p.register_thread_as(0);
        let obj = s.new_obj(1u64);
        s.run(|tx| tx.update(&obj, |v| *v += 1));
        let g = nztm_epoch::pin();
        let h = obj.header();
        assert!(matches!(h.owner(&g), OwnerRef::None), "{}: owner word still set", M::NAME);
        assert_eq!(h.backup_raw(), 0, "{}: backup word still set", M::NAME);
        assert_eq!(obj.read_untracked(), 2);
    }
    check::<Blocking>();
    check::<Nonblocking>();
    check::<ScssMode>();
}

#[test]
fn backup_pool_reuse_kicks_in() {
    let (p, s) = native::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let obj = s.new_obj(0u64);
    for i in 0..50u64 {
        s.run(|tx| tx.write(&obj, &i));
    }
    let st = s.stats_snapshot();
    // First acquisition allocates; later ones reuse the committed-and-
    // reclaimed buffer (§4.4.2's thread-local backup pooling).
    assert_eq!(st.backup_alloc, 1, "{st:?}");
    assert_eq!(st.backup_reused, 49, "{st:?}");
}

#[test]
fn timestamp_cm_aborts_self_when_younger() {
    // With the Timestamp CM, the younger transaction self-aborts on
    // conflict; run enough contention that the path executes.
    let p = Native::new(2);
    let s: Arc<NzStm<Native, Nonblocking>> =
        NzStm::new(Arc::clone(&p), Arc::new(Timestamp), NzConfig::default());
    let obj = s.new_obj(0u64);
    std::thread::scope(|scope| {
        for tid in 0..2 {
            let p = Arc::clone(&p);
            let s = Arc::clone(&s);
            let obj = Arc::clone(&obj);
            scope.spawn(move || {
                p.register_thread_as(tid);
                for _ in 0..3_000 {
                    s.run(|tx| tx.update(&obj, |v| *v += 1));
                }
            });
        }
    });
    assert_eq!(obj.read_untracked(), 6_000);
}

#[test]
fn aggressive_cm_still_converges() {
    let p = Native::new(2);
    let s: Arc<NzStm<Native, Blocking>> =
        NzStm::new(Arc::clone(&p), Arc::new(Aggressive), NzConfig::default());
    let obj = s.new_obj(0u64);
    std::thread::scope(|scope| {
        for tid in 0..2 {
            let p = Arc::clone(&p);
            let s = Arc::clone(&s);
            let obj = Arc::clone(&obj);
            scope.spawn(move || {
                p.register_thread_as(tid);
                for _ in 0..3_000 {
                    s.run(|tx| tx.update(&obj, |v| *v += 1));
                }
            });
        }
    });
    assert_eq!(obj.read_untracked(), 6_000);
}

#[test]
fn scss_charges_every_word_store() {
    let (p, s) = native::<ScssMode>(1, NzConfig::default());
    p.register_thread_as(0);
    #[derive(Clone, Debug, PartialEq)]
    struct Wide {
        a: u64,
        b: u64,
        c: u64,
    }
    nztm_core::tm_data_struct!(Wide { a: u64, b: u64, c: u64 });
    let obj = s.new_obj(Wide { a: 0, b: 0, c: 0 });
    s.run(|tx| tx.write(&obj, &Wide { a: 1, b: 2, c: 3 }));
    let st = s.stats_snapshot();
    assert_eq!(st.scss_stores, 3, "one SCSS per word (§2.3.2): {st:?}");
    assert_eq!(st.scss_failures, 0);
}

#[test]
fn invisible_mode_validation_abort_is_counted() {
    // Two threads, forced read-write overlap: some attempts must die at
    // validation (either acquire-time or commit-time).
    let cfg = NzConfig { read_mode: ReadMode::Invisible, ..NzConfig::default() };
    let (p, s) = native::<Nonblocking>(2, cfg);
    let a = s.new_obj(0u64);
    let b = s.new_obj(0u64);
    std::thread::scope(|scope| {
        for tid in 0..2usize {
            let p = Arc::clone(&p);
            let s = Arc::clone(&s);
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            scope.spawn(move || {
                p.register_thread_as(tid);
                for _ in 0..4_000 {
                    // Read the other counter, bump mine.
                    s.run(|tx| {
                        let (mine, theirs) = if tid == 0 { (&a, &b) } else { (&b, &a) };
                        let _ = tx.read(theirs)?;
                        tx.update(mine, |v| *v += 1)
                    });
                }
            });
        }
    });
    assert_eq!(a.read_untracked() + b.read_untracked(), 8_000);
}

#[test]
fn stats_reset_zeroes_counters() {
    let (p, s) = native::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let obj = s.new_obj(0u64);
    s.run(|tx| tx.write(&obj, &1));
    assert_eq!(s.stats_snapshot().commits, 1);
    s.reset_stats();
    assert_eq!(s.stats_snapshot().commits, 0);
    assert_eq!(s.stats_snapshot().acquires, 0);
}

#[test]
fn update_helper_composes_with_reads() {
    let (p, s) = native::<Nonblocking>(1, NzConfig::default());
    p.register_thread_as(0);
    let x = s.new_obj(3u64);
    let y = s.new_obj(4u64);
    s.run(|tx| {
        let vx = tx.read(&x)?;
        tx.update(&y, |v| *v += vx)?;
        Ok(())
    });
    assert_eq!(y.read_untracked(), 7);
}

/// NOrec takes no transaction descriptor: a thousand committed
/// read-modify-write transactions allocate none.
#[test]
fn norec_commits_allocate_no_descriptor() {
    let p = Native::new(1);
    p.register_thread_as(0);
    let s = NzBuilder::new(p).build_norec();
    let obj = s.new_obj(0u64);
    for _ in 0..1_000 {
        s.run(|tx| {
            let v = tx.read(&obj)?;
            tx.write(&obj, &(v + 1))
        });
    }
    let st = s.stats_snapshot();
    assert_eq!(obj.read_untracked(), 1_000);
    assert_eq!(st.commits, 1_000);
    assert_eq!(st.descriptor_alloc, 0, "{st:?}");
}
