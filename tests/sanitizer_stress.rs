//! Cross-system sanitizer stress: the transfer-bank harness drives all
//! four paper systems — BZSTM, NZSTM, NZSTM+SCSS, and the NZTM hybrid —
//! with the protocol sanitizer armed and adversarial pause schedules
//! injected at the engine's decision points.
//!
//! Registered in `crates/bench/Cargo.toml` behind the `sanitize`
//! feature; run with `cargo test -p nztm-bench --features sanitize`.
//! On the simulated machine every run is seed-replayable: the test
//! asserts that the same seed reproduces a byte-identical decision log,
//! schedule digest, and machine handoff trace.

use nztm_core::cm::{KarmaDeadlock, Polite};
use nztm_core::{NzBuilder, NzConfig, Nzstm, NzstmScss};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::{Machine, MachineConfig, Native, SimPlatform};
use nztm_workloads::harness::{stress_native, stress_sim, StressConfig};
use std::sync::Arc;

fn cfg(threads: usize, seed: u64) -> StressConfig {
    StressConfig { threads, ops_per_thread: 250, seed, ..StressConfig::default() }
}

// ---------------------------------------------------------------------------
// Native threads: real preemption plus injected pauses.
// ---------------------------------------------------------------------------

#[test]
fn bzstm_native_stress_is_sanitizer_clean() {
    for seed in [3u64, 77] {
        let p = Native::new(4);
        let stm = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        stm.sanitizer().set_schedule(seed, 5);
        let st = stress_native(&p, &stm, &cfg(4, seed));
        assert!(st.commits > 0);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

#[test]
fn nzstm_native_stress_is_sanitizer_clean() {
    for seed in [3u64, 77] {
        let p = Native::new(4);
        // Low patience + a small Polite budget exercise the ANP
        // handshake and the inflation path under the injected pauses.
        let stm: Arc<Nzstm<Native>> = Nzstm::new(
            Arc::clone(&p),
            Arc::new(Polite { budget: 6 }),
            NzConfig { patience: 12, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 5);
        let st = stress_native(&p, &stm, &cfg(4, seed));
        assert!(st.commits > 0);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

#[test]
fn scss_native_stress_is_sanitizer_clean() {
    for seed in [3u64, 77] {
        let p = Native::new(4);
        let stm: Arc<NzstmScss<Native>> = NzstmScss::new(
            Arc::clone(&p),
            Arc::new(Polite { budget: 6 }),
            NzConfig { patience: 12, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 5);
        let st = stress_native(&p, &stm, &cfg(4, seed));
        assert!(st.commits > 0);
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "seed {seed}: {v:?}\n{}", stm.sanitizer().replay_dump());
    }
}

// ---------------------------------------------------------------------------
// Oversubscribed native stress: more transaction threads than any CI
// machine has cores, up to the 64 a TM system hosts — every bit of the
// reader bitmap is in use, and the sanitizer's reader mirror
// cross-checks each add/remove.
// ---------------------------------------------------------------------------

#[test]
fn oversubscribed_64_thread_stress_is_sanitizer_clean_on_all_systems() {
    let cfg = StressConfig {
        threads: 64,
        ops_per_thread: 12,
        seed: 0xBEEF,
        accounts: 16,
        ..StressConfig::default()
    };
    let run = |name: &str, commits: u64, v: Vec<String>| {
        assert!(commits > 0, "{name}: no commits at 64 threads");
        assert!(v.is_empty(), "{name}: {v:?}");
    };
    {
        let p = Native::new(64);
        let stm = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        stm.sanitizer().set_schedule(1, 3);
        let st = stress_native(&p, &stm, &cfg);
        let v = stm.sanitizer().violations().iter().map(|x| format!("{x:?}")).collect();
        run("bzstm", st.commits, v);
    }
    {
        let p = Native::new(64);
        let stm: Arc<Nzstm<Native>> = Nzstm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig { patience: 24, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(2, 3);
        let st = stress_native(&p, &stm, &cfg);
        let v = stm.sanitizer().violations().iter().map(|x| format!("{x:?}")).collect();
        run("nzstm", st.commits, v);
    }
    {
        let p = Native::new(64);
        let stm: Arc<NzstmScss<Native>> = NzstmScss::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig { patience: 24, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(3, 3);
        let st = stress_native(&p, &stm, &cfg);
        let v = stm.sanitizer().violations().iter().map(|x| format!("{x:?}")).collect();
        run("scss", st.commits, v);
    }
}

// ---------------------------------------------------------------------------
// Simulated machine: deterministic, seed-replayable.
// ---------------------------------------------------------------------------

#[test]
fn sim_stress_replays_byte_identically_for_all_software_systems() {
    /// (decision log, schedule digest, machine handoff trace, makespan,
    /// commit count) — everything that must replay byte-identically.
    type Replay = (Vec<(u32, &'static str)>, u64, Vec<(u64, u32)>, u64, u64);
    type Runner = fn(u64) -> Replay;

    fn run_one<M: nztm_core::ModePolicy>(seed: u64) -> Replay {
        let m = Machine::new(MachineConfig::paper(3));
        let p = SimPlatform::new(Arc::clone(&m));
        m.enable_trace();
        let stm: Arc<nztm_core::NzStm<SimPlatform, M>> = nztm_core::NzStm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig { patience: 64, ..NzConfig::default() },
        );
        stm.sanitizer().set_schedule(seed, 6);
        let (st, report) = stress_sim(&m, &stm, &cfg(3, seed));
        let v = stm.sanitizer().violations();
        assert!(v.is_empty(), "{v:?}\n{}", stm.sanitizer().replay_dump());
        (
            stm.sanitizer()
                .decision_log()
                .into_iter()
                .map(|s| (s.tid, s.point.name()))
                .collect(),
            stm.sanitizer().schedule_digest(),
            m.schedule_trace().expect("trace enabled"),
            report.makespan,
            st.commits,
        )
    }

    let runners: [(&str, Runner); 3] = [
        ("bzstm", run_one::<nztm_core::Blocking>),
        ("nzstm", run_one::<nztm_core::Nonblocking>),
        ("scss", run_one::<nztm_core::ScssMode>),
    ];
    for (name, run) in runners {
        let a = run(0xA5);
        let b = run(0xA5);
        assert!(!a.0.is_empty(), "{name}: decision points must fire");
        assert_eq!(a.0, b.0, "{name}: same seed must replay the decision log byte-identically");
        assert_eq!(a.1, b.1, "{name}: schedule digest");
        assert_eq!(a.2, b.2, "{name}: machine handoff trace");
        assert_eq!(a.3, b.3, "{name}: makespan");
        assert_eq!(a.4, b.4, "{name}: commit count");
    }
}

#[test]
fn hybrid_stress_is_sanitizer_clean_on_sim() {
    let m = Machine::new(MachineConfig::paper(3));
    let p = SimPlatform::new(Arc::clone(&m));
    let stm: Arc<Nzstm<SimPlatform>> = Nzstm::new(
        Arc::clone(&p),
        Arc::new(KarmaDeadlock::default()),
        NzConfig::default(),
    );
    let htm = BestEffortHtm::new(Arc::clone(&p), AtmtpConfig::default());
    htm.install();
    let hy = NztmHybrid::new(Arc::clone(&stm), htm, HybridConfig::default());
    stm.sanitizer().set_schedule(11, 4);
    let (st, _report) = stress_sim(&m, &hy, &cfg(3, 11));
    hy.htm().uninstall();
    assert!(st.commits > 0);
    // The hardware path must actually carry part of the load — otherwise
    // this is just the NZSTM test again.
    assert!(st.htm_commits > 0, "hybrid hardware path must commit: {st:?}");
    let v = hy.stm().sanitizer().violations();
    assert!(v.is_empty(), "{v:?}\n{}", hy.stm().sanitizer().replay_dump());
}
