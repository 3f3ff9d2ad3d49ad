//! Recycling coverage for the thread-local backup pool (§4.4.2): the
//! size-class pool reaches a steady state where the tier-1 counters
//! prove no backup buffer is heap-allocated per attempt.
//!
//! The engine's own unit tests cover `BackupPool` in isolation; these
//! tests drive the *real* engine on the native platform, where debug
//! builds additionally assert on every pool `put`/`take` that no buffer
//! with a live installer circulates.

use nztm_core::{NzBuilder, Nzstm};
use nztm_sim::Native;
use std::sync::Arc;

/// Read-dominated microbench: each transaction reads `READS` objects and
/// rewrites one, rotating over the table so every owner word keeps
/// turning over (the recycling-friendly hot-set shape).
fn drive(stm: &Nzstm<Native>, objs: &[Arc<nztm_core::NZObject<u64>>], txns: usize) {
    const READS: usize = 4;
    for i in 0..txns {
        let w = i % objs.len();
        stm.run(|tx| {
            let mut acc = 0u64;
            for r in 0..READS {
                acc = acc.wrapping_add(tx.read(&objs[(w + r) % objs.len()])?);
            }
            tx.write(&objs[w], &acc.wrapping_add(1))
        });
    }
}

/// After warmup, a steady-state attempt takes its backup buffer from
/// the thread-local pool — verified through the `backup_alloc` /
/// `backup_reused` counters, which are incremented at the pool miss and
/// hit sites.
#[test]
fn steady_state_reuses_every_backup_buffer() {
    let p = Native::new(1);
    p.register_thread();
    let stm = NzBuilder::new(Arc::clone(&p)).build_nzstm();
    let objs: Vec<_> = (0..8).map(|i| stm.new_obj(i as u64)).collect();

    // Warmup: populate the backup pool.
    drive(&stm, &objs, 300);
    stm.reset_stats();

    drive(&stm, &objs, 500);
    let st = stm.stats_snapshot();
    assert_eq!(st.commits, 500, "uncontended single-thread run must commit every attempt");
    assert_eq!(st.backup_alloc, 0, "steady state must reuse every backup buffer");
    assert_eq!(st.backup_reused, 500);
}

/// Multi-thread recycling stress: pooled buffers must not break
/// conflict resolution or lose updates. Debug builds also run the
/// pool's live-installer assertions on every transfer here.
#[test]
fn recycling_keeps_counters_correct_under_contention() {
    const THREADS: usize = 4;
    const TXNS: usize = 800;
    let p = Native::new(THREADS);
    let stm = NzBuilder::new(Arc::clone(&p)).build_nzstm();
    let shared = stm.new_obj(0u64);
    let locals: Vec<_> = (0..THREADS).map(|i| stm.new_obj(i as u64)).collect();

    std::thread::scope(|s| {
        for (t, local) in locals.iter().enumerate() {
            let p = Arc::clone(&p);
            let stm = Arc::clone(&stm);
            let shared = Arc::clone(&shared);
            let local = Arc::clone(local);
            s.spawn(move || {
                p.register_thread_as(t);
                for _ in 0..TXNS {
                    stm.run(|tx| {
                        tx.update(&shared, |v| *v += 1)?;
                        tx.update(&local, |v| *v = v.wrapping_mul(3).wrapping_add(1))
                    });
                }
            });
        }
    });

    assert_eq!(shared.read_untracked(), (THREADS * TXNS) as u64, "lost updates");
    let st = stm.stats_snapshot();
    assert_eq!(st.commits, (THREADS * TXNS) as u64);
    assert!(st.backup_reused > 0, "contended run must still recycle");
}
