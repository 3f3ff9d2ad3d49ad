//! Shape smoke tests for the figure harness: tiny versions of Figure 3
//! and Figure 4 cells, asserting the *qualitative* relationships the
//! paper reports. Keeps the harness honest between full runs.

use nztm_bench::suite::{fig3_cell, fig4_cell, fig4_systems, SimSystem, Workload, WorkloadScale};

fn tiny() -> WorkloadScale {
    WorkloadScale {
        set_ops: 80,
        kmeans_points: 120,
        kmeans_iters: 1,
        genome_len: 128,
        vacation_txns: 25,
        vacation_relations: 24,
        seed: 0x51,
    }
}

#[test]
fn fig3_hashtable_ordering_holds() {
    // Low-conflict workload: LogTM-SE ≥ NZTM/ATMTP ≥ NZSTM in throughput
    // (§4.4.1: "In general, LogTM-SE has the best throughput").
    let scale = tiny();
    let log = fig3_cell(SimSystem::LogTmSe, Workload::HashtableLow, 3, &scale);
    let hy = fig3_cell(SimSystem::NztmAtmtp, Workload::HashtableLow, 3, &scale);
    let sw = fig3_cell(SimSystem::Nzstm, Workload::HashtableLow, 3, &scale);
    assert!(
        log.throughput() >= hy.throughput(),
        "LogTM-SE ({}) must beat NZTM/ATMTP ({})",
        log.throughput(),
        hy.throughput()
    );
    assert!(
        hy.throughput() >= sw.throughput(),
        "NZTM/ATMTP ({}) must beat software NZSTM ({})",
        hy.throughput(),
        sw.throughput()
    );
    // And the hybrid must actually be using hardware.
    assert!(hy.stats.htm_commit_share() > 0.5, "{:?}", hy.stats);
}

#[test]
fn fig3_scaling_direction() {
    // Throughput grows with cores on the low-conflict workload.
    let scale = tiny();
    for sys in [SimSystem::LogTmSe, SimSystem::NztmAtmtp, SimSystem::Nzstm] {
        let t1 = fig3_cell(sys, Workload::HashtableLow, 1, &scale);
        let t7 = fig3_cell(sys, Workload::HashtableLow, 7, &scale);
        assert!(
            t7.throughput() > t1.throughput() * 1.5,
            "{:?} must scale: 1p={} 7p={}",
            sys,
            t1.throughput(),
            t7.throughput()
        );
    }
}

#[test]
fn fig3_runs_every_workload_cell_once() {
    // Every workload × system pair executes and conserves its invariants
    // (the workload drivers assert them internally).
    let scale = tiny();
    for &w in nztm_bench::suite::ALL_WORKLOADS {
        for sys in [SimSystem::LogTmSe, SimSystem::NztmAtmtp, SimSystem::Nzstm] {
            let r = fig3_cell(sys, w, 2, &scale);
            assert!(r.stats.commits > 0, "{sys:?}/{} committed nothing", w.name());
            assert!(r.elapsed > 0);
        }
    }
}

#[test]
fn fig4_runs_every_workload_cell_once() {
    let scale = tiny();
    for &w in nztm_bench::suite::ALL_WORKLOADS {
        for sys in std::iter::once("GlobalLock").chain(fig4_systems()) {
            let r = fig4_cell(sys, w, 2, &scale);
            assert!(r.stats.commits > 0, "{sys}/{} committed nothing", w.name());
        }
    }
}
