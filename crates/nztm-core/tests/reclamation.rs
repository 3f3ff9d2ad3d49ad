//! Reclamation coverage for the `WordBuf` installer protocol
//! (`object.rs`): the installer word holds a raw strong count that is
//! swapped and epoch-deferred, which is exactly the kind of manual
//! counting that leaks (or double-frees) silently. These tests pin the
//! contract with `Arc::strong_count` — first at the unit level, then
//! under real engine churn through the inflate/deflate path, which
//! exercises every transfer: backup install, adoption by a restorer,
//! locator old/new capture, and deflation's re-install.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::object::WordBuf;
use nztm_core::txn::TxnDesc;
use nztm_core::{NzConfig, Nzstm};
use nztm_sim::{Machine, MachineConfig, Platform, SimPlatform};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The epoch is process-global (ROADMAP item 1d): a simulated core of
/// the churn test, parked inside its attempt's pin while another core
/// holds the token, stops `flush()` in a test running beside it from
/// advancing. Tests that assert on *when* a count is released therefore
/// take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Unit level: the installer swap itself.
// ---------------------------------------------------------------------------

#[test]
fn installer_swap_releases_the_displaced_count_through_the_epoch() {
    let _serial = serial();
    let buf = WordBuf::zeroed(2);
    let d1 = Arc::new(TxnDesc::new(0, 1));
    let d2 = Arc::new(TxnDesc::new(1, 1));

    {
        let g = nztm_epoch::pin();
        buf.set_installer(&d1, &g);
        assert_eq!(Arc::strong_count(&d1), 2, "installer word holds one count");

        // Replacing the installer must release d1's count — but only
        // through the epoch, because concurrent readers may still be
        // dereferencing the displaced pointer under their own guards.
        buf.set_installer(&d2, &g);
        assert_eq!(
            Arc::strong_count(&d1),
            2,
            "displaced count must NOT drop while a guard is live"
        );
        assert_eq!(Arc::strong_count(&d2), 2);
    }
    nztm_epoch::flush();
    assert_eq!(Arc::strong_count(&d1), 1, "epoch released the displaced installer");
    assert_eq!(Arc::strong_count(&d2), 2, "current installer still held");

    // Dropping the buffer releases the final installer count inline
    // (Drop has &mut self: no concurrent readers can exist).
    drop(buf);
    assert_eq!(Arc::strong_count(&d2), 1);
}

#[test]
fn same_installer_reinstall_does_not_leak() {
    let _serial = serial();
    let buf = WordBuf::zeroed(1);
    let d = Arc::new(TxnDesc::new(0, 1));
    {
        let g = nztm_epoch::pin();
        for _ in 0..10 {
            buf.set_installer(&d, &g);
        }
    }
    nztm_epoch::flush();
    // Ten installs displaced nine counts; exactly one remains in the word.
    assert_eq!(Arc::strong_count(&d), 2);
    drop(buf);
    assert_eq!(Arc::strong_count(&d), 1);
}

// ---------------------------------------------------------------------------
// Engine level: inflate/deflate churn must return every count.
// ---------------------------------------------------------------------------

/// One induced-inflation round (the §4.4.2 scenario): core 0 stalls
/// mid-transaction, survivors inflate past it, the victim acknowledges,
/// a survivor deflates. Repeated rounds must not accumulate strong
/// counts on the object: buffers move through backup → locator old/new →
/// deflated backup, and each hop swaps installer counts.
#[test]
fn inflate_deflate_churn_reclaims_buffers_and_descriptors() {
    let _serial = serial();
    let machine = Machine::new(MachineConfig::paper(3));
    let platform = SimPlatform::new(Arc::clone(&machine));
    let stm: Arc<Nzstm<SimPlatform>> = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig { patience: 32, ..NzConfig::default() },
    );
    let obj = stm.new_obj(0u64);

    let mut total_inflations = 0;
    let mut expected = 0u64;
    for round in 0..4u64 {
        let stalled = Arc::new(AtomicBool::new(false));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let stm = Arc::clone(&stm);
            let obj = Arc::clone(&obj);
            let platform = Arc::clone(&platform);
            let stalled = Arc::clone(&stalled);
            bodies.push(Box::new(move || {
                let mut first = true;
                stm.run(|tx| {
                    tx.update(&obj, |v| *v += 1_000)?;
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
        expected += 1_000 + 50;

        // Quiescent now. The object Arc is held only by this test and
        // the `obj` clones above were consumed by the bodies; nothing in
        // the engine may retain it between transactions.
        nztm_epoch::flush();
        assert_eq!(
            Arc::strong_count(&obj),
            1,
            "round {round}: engine retained object references after quiescence"
        );
        assert_eq!(obj.read_untracked(), expected, "round {round}: lost updates");

        // The backup buffer left behind (if any) holds exactly one
        // engine-side count — the backup word's — plus ours; its
        // installer chain must not have grown with the rounds.
        let g = nztm_epoch::pin();
        if let Some(b) = obj.header().backup_arc(&g) {
            assert_eq!(
                Arc::strong_count(&b),
                2,
                "round {round}: stale buffer counts accumulated"
            );
        }
        drop(g);

        let st = stm.stats_snapshot();
        assert_eq!(st.inflations, st.deflations, "every inflation must deflate");
        total_inflations = st.inflations;
    }
    assert!(total_inflations >= 4, "churn must actually inflate each round");
}
