//! Workload × system × platform matrix used by the figure binaries.

use nztm_core::cm::KarmaDeadlock;
use nztm_core::{Bzstm, NzBuilder, NzConfig, Nzstm, NzstmScss, TmSys};
use nztm_dstm::{GlobalLockTm, ShadowStm};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, LogTmSe, NztmHybrid};
use nztm_sim::{Machine, MachineConfig, Native, SimPlatform};
use nztm_workloads::driver::{
    run_genome_native, run_genome_sim, run_kmeans_native, run_kmeans_sim, run_set_native,
    run_set_sim, run_vacation_native, run_vacation_sim, BenchResult, SetBenchConfig, SetKind,
};
use nztm_workloads::stamp::genome::GenomeConfig;
use nztm_workloads::stamp::kmeans::KmeansConfig;
use nztm_workloads::stamp::vacation::VacationConfig;
use nztm_workloads::Contention;
use std::sync::Arc;

/// The paper's eleven workloads (§4.2, Figures 3 & 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HashtableHigh,
    HashtableLow,
    RedblackHigh,
    RedblackLow,
    LinkedlistHigh,
    LinkedlistLow,
    Genome,
    KmeansHigh,
    KmeansLow,
    VacationHigh,
    VacationLow,
}

pub const ALL_WORKLOADS: &[Workload] = &[
    Workload::HashtableHigh,
    Workload::HashtableLow,
    Workload::RedblackHigh,
    Workload::RedblackLow,
    Workload::LinkedlistHigh,
    Workload::LinkedlistLow,
    Workload::Genome,
    Workload::KmeansHigh,
    Workload::KmeansLow,
    Workload::VacationHigh,
    Workload::VacationLow,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HashtableHigh => "hashtable-high",
            Workload::HashtableLow => "hashtable-low",
            Workload::RedblackHigh => "redblack-high",
            Workload::RedblackLow => "redblack-low",
            Workload::LinkedlistHigh => "linkedlist-high",
            Workload::LinkedlistLow => "linkedlist-low",
            Workload::Genome => "genome",
            Workload::KmeansHigh => "kmeans-high",
            Workload::KmeansLow => "kmeans-low",
            Workload::VacationHigh => "vacation-high",
            Workload::VacationLow => "vacation-low",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == s)
    }
}

/// Problem sizes, tunable so the deterministic simulator finishes a full
/// figure in minutes (`quick`) or with more statistical weight (`full`).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadScale {
    /// Set-microbenchmark operations per thread.
    pub set_ops: u64,
    /// kmeans points (split across threads) and iterations.
    pub kmeans_points: usize,
    pub kmeans_iters: usize,
    /// genome length in bases.
    pub genome_len: usize,
    /// vacation transactions per thread and relations per table.
    pub vacation_txns: u64,
    pub vacation_relations: usize,
    pub seed: u64,
}

impl WorkloadScale {
    pub fn quick() -> Self {
        WorkloadScale {
            set_ops: 200,
            kmeans_points: 384,
            kmeans_iters: 2,
            genome_len: 384,
            vacation_txns: 60,
            vacation_relations: 48,
            seed: 0xF1C,
        }
    }

    pub fn full() -> Self {
        WorkloadScale {
            set_ops: 1_000,
            kmeans_points: 1_024,
            kmeans_iters: 3,
            genome_len: 1_024,
            vacation_txns: 250,
            vacation_relations: 64,
            seed: 0xF1C,
        }
    }
}

/// Whether bench cells should arm the engine flight recorder
/// (`NZTM_BENCH_TRACE=1`). With the `trace` cargo feature off,
/// `set_tracing` is a no-op and reports simply carry no hotspots.
pub fn trace_requested() -> bool {
    std::env::var_os("NZTM_BENCH_TRACE").is_some_and(|v| v == "1")
}

/// Run one workload on the simulated machine with system `sys`.
pub fn run_workload_sim<S: TmSys>(
    machine: &Arc<Machine>,
    platform: &Arc<SimPlatform>,
    sys: &Arc<S>,
    w: Workload,
    scale: &WorkloadScale,
) -> BenchResult {
    if trace_requested() {
        sys.set_tracing(true);
    }
    let threads = machine.config().n_cores;
    let set = |kind, contention| SetBenchConfig {
        kind,
        contention,
        threads,
        ops_per_thread: scale.set_ops,
        seed: scale.seed,
    };
    match w {
        Workload::HashtableHigh => {
            run_set_sim(machine, platform, sys, &set(SetKind::HashTable, Contention::High))
        }
        Workload::HashtableLow => {
            run_set_sim(machine, platform, sys, &set(SetKind::HashTable, Contention::Low))
        }
        Workload::RedblackHigh => {
            run_set_sim(machine, platform, sys, &set(SetKind::RedBlack, Contention::High))
        }
        Workload::RedblackLow => {
            run_set_sim(machine, platform, sys, &set(SetKind::RedBlack, Contention::Low))
        }
        Workload::LinkedlistHigh => {
            run_set_sim(machine, platform, sys, &set(SetKind::LinkedList, Contention::High))
        }
        Workload::LinkedlistLow => {
            run_set_sim(machine, platform, sys, &set(SetKind::LinkedList, Contention::Low))
        }
        Workload::Genome => run_genome_sim(
            machine,
            platform,
            sys,
            GenomeConfig { genome_len: scale.genome_len, seed: scale.seed },
        ),
        Workload::KmeansHigh => run_kmeans_sim(
            machine,
            platform,
            sys,
            KmeansConfig::high(scale.kmeans_points, scale.kmeans_iters),
        ),
        Workload::KmeansLow => run_kmeans_sim(
            machine,
            platform,
            sys,
            KmeansConfig::low(scale.kmeans_points, scale.kmeans_iters),
        ),
        Workload::VacationHigh => run_vacation_sim(
            machine,
            platform,
            sys,
            VacationConfig::high(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
        Workload::VacationLow => run_vacation_sim(
            machine,
            platform,
            sys,
            VacationConfig::low(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
    }
}

/// Run one workload natively with system `sys` across `threads` threads.
pub fn run_workload_native<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    w: Workload,
    threads: usize,
    scale: &WorkloadScale,
) -> BenchResult {
    if trace_requested() {
        sys.set_tracing(true);
    }
    let set = |kind, contention| SetBenchConfig {
        kind,
        contention,
        threads,
        ops_per_thread: scale.set_ops,
        seed: scale.seed,
    };
    match w {
        Workload::HashtableHigh => {
            run_set_native(platform, sys, &set(SetKind::HashTable, Contention::High))
        }
        Workload::HashtableLow => {
            run_set_native(platform, sys, &set(SetKind::HashTable, Contention::Low))
        }
        Workload::RedblackHigh => {
            run_set_native(platform, sys, &set(SetKind::RedBlack, Contention::High))
        }
        Workload::RedblackLow => {
            run_set_native(platform, sys, &set(SetKind::RedBlack, Contention::Low))
        }
        Workload::LinkedlistHigh => {
            run_set_native(platform, sys, &set(SetKind::LinkedList, Contention::High))
        }
        Workload::LinkedlistLow => {
            run_set_native(platform, sys, &set(SetKind::LinkedList, Contention::Low))
        }
        Workload::Genome => run_genome_native(
            platform,
            sys,
            GenomeConfig { genome_len: scale.genome_len, seed: scale.seed },
        ),
        Workload::KmeansHigh => run_kmeans_native(
            platform,
            sys,
            KmeansConfig::high(scale.kmeans_points, scale.kmeans_iters),
        ),
        Workload::KmeansLow => run_kmeans_native(
            platform,
            sys,
            KmeansConfig::low(scale.kmeans_points, scale.kmeans_iters),
        ),
        Workload::VacationHigh => run_vacation_native(
            platform,
            sys,
            VacationConfig::high(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
        Workload::VacationLow => run_vacation_native(
            platform,
            sys,
            VacationConfig::low(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
    }
}

/// Figure 3's simulated systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimSystem {
    LogTmSe,
    NztmAtmtp,
    Nzstm,
    Norec,
}

impl SimSystem {
    pub fn name(self) -> &'static str {
        match self {
            SimSystem::LogTmSe => "LogTM-SE",
            SimSystem::NztmAtmtp => "NZTM/ATMTP",
            SimSystem::Nzstm => "NZSTM",
            SimSystem::Norec => "NOREC",
        }
    }
}

pub fn fig3_systems() -> Vec<SimSystem> {
    vec![SimSystem::LogTmSe, SimSystem::NztmAtmtp, SimSystem::Nzstm, SimSystem::Norec]
}

/// Figure 4's native systems (plus the normalization baseline).
pub fn fig4_systems() -> Vec<&'static str> {
    vec!["DSTM2-SF", "BZSTM", "SCSS", "NZSTM", "NOREC"]
}

/// Build a fresh simulated machine with the paper's configuration.
pub fn paper_machine(threads: usize) -> (Arc<Machine>, Arc<SimPlatform>) {
    let machine = Machine::new(MachineConfig::paper(threads));
    let platform = SimPlatform::new(Arc::clone(&machine));
    (machine, platform)
}

/// Like [`fig3_cell`] for the hybrid, with a custom ATMTP configuration
/// (used by the S3 resource-abort claim: our scaled-down transactions
/// need ATMTP's *real* default store-queue depth to feel the paper's
/// resource pressure).
pub fn fig3_hybrid_cell_with_atmtp(
    w: Workload,
    threads: usize,
    scale: &WorkloadScale,
    atmtp: AtmtpConfig,
) -> BenchResult {
    let (machine, platform) = paper_machine(threads);
    let stm = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig::default(),
    );
    let htm = BestEffortHtm::new(Arc::clone(&platform), atmtp);
    htm.install();
    let s = NztmHybrid::new(stm, htm, HybridConfig::default());
    let r = run_workload_sim(&machine, &platform, &s, w, scale);
    s.htm().uninstall();
    r
}

/// Run one (workload, system, thread-count) cell of Figure 3.
pub fn fig3_cell(sys: SimSystem, w: Workload, threads: usize, scale: &WorkloadScale) -> BenchResult {
    let (machine, platform) = paper_machine(threads);
    match sys {
        SimSystem::LogTmSe => {
            let s = LogTmSe::new(Arc::clone(&platform));
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        SimSystem::Nzstm => {
            let s = Nzstm::new(
                Arc::clone(&platform),
                Arc::new(KarmaDeadlock::default()),
                NzConfig::default(),
            );
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        SimSystem::Norec => {
            let s = NzBuilder::new(Arc::clone(&platform)).build_norec();
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        SimSystem::NztmAtmtp => {
            let stm = Nzstm::new(
                Arc::clone(&platform),
                Arc::new(KarmaDeadlock::default()),
                NzConfig::default(),
            );
            let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
            htm.install();
            let s = NztmHybrid::new(stm, htm, HybridConfig::default());
            let r = run_workload_sim(&machine, &platform, &s, w, scale);
            s.htm().uninstall();
            r
        }
    }
}

/// Run one (workload, system, thread-count) cell of Figure 4 **on the
/// deterministic simulator** — the configuration the §4.4.2 software
/// comparisons (S4–S6) use here, since host caches are far too large to
/// reproduce Rock-era coherence effects natively.
pub fn fig4_sim_cell(
    sys_name: &str,
    w: Workload,
    threads: usize,
    scale: &WorkloadScale,
) -> BenchResult {
    let (machine, platform) = paper_machine(threads);
    match sys_name {
        "GlobalLock" => {
            let s = GlobalLockTm::new(Arc::clone(&platform) as Arc<SimPlatform>);
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        "DSTM2-SF" => {
            let s = ShadowStm::with_defaults(Arc::clone(&platform));
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        "BZSTM" => {
            let s: Arc<Bzstm<SimPlatform>> = NzBuilder::new(Arc::clone(&platform)).build_bzstm();
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        "SCSS" => {
            let s: Arc<NzstmScss<SimPlatform>> = NzBuilder::new(Arc::clone(&platform)).build_scss();
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        "NZSTM" => {
            let s: Arc<Nzstm<SimPlatform>> = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        "NOREC" => {
            let s = NzBuilder::new(Arc::clone(&platform)).build_norec();
            run_workload_sim(&machine, &platform, &s, w, scale)
        }
        other => panic!("unknown system {other:?}"),
    }
}

/// Run one (workload, system, thread-count) cell of Figure 4, including
/// the "GlobalLock" baseline row.
pub fn fig4_cell(sys_name: &str, w: Workload, threads: usize, scale: &WorkloadScale) -> BenchResult {
    let platform = Native::new(threads.max(1));
    match sys_name {
        "GlobalLock" => {
            let s = GlobalLockTm::new(Arc::clone(&platform));
            run_workload_native(&platform, &s, w, threads, scale)
        }
        "DSTM2-SF" => {
            let s = ShadowStm::with_defaults(Arc::clone(&platform));
            run_workload_native(&platform, &s, w, threads, scale)
        }
        "BZSTM" => {
            let s: Arc<Bzstm<Native>> = NzBuilder::new(Arc::clone(&platform)).build_bzstm();
            run_workload_native(&platform, &s, w, threads, scale)
        }
        "SCSS" => {
            let s: Arc<NzstmScss<Native>> = NzBuilder::new(Arc::clone(&platform)).build_scss();
            run_workload_native(&platform, &s, w, threads, scale)
        }
        "NZSTM" => {
            let s: Arc<Nzstm<Native>> = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
            run_workload_native(&platform, &s, w, threads, scale)
        }
        "NOREC" => {
            let s = NzBuilder::new(Arc::clone(&platform)).build_norec();
            run_workload_native(&platform, &s, w, threads, scale)
        }
        other => panic!("unknown system {other:?}"),
    }
}
