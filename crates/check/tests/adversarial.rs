//! Targeted adversarial schedules (tentpole mode (c)) and random-walk
//! fuzzing on the real engine.

use nztm_check::{
    explore_random, judge, run_config, Backend, CheckConfig, BACKENDS,
};

/// Pause-owner-then-inflate: thread 0 stalls mid-transaction far past
/// the patience bound. Plain NZSTM must inflate past it (§2.3.1) and
/// still produce a linearizable history.
#[test]
fn paused_owner_forces_inflation_on_nzstm() {
    let cfg = CheckConfig::pause_owner(Backend::Nzstm);
    let out = run_config(&cfg);
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert!(
        out.stats.inflations > 0,
        "survivors had to inflate past the stalled owner: {:?}",
        out.stats
    );
}

/// The same schedule with SCSS: safe concurrent status stores abort the
/// unresponsive owner directly (§2.3.2), so nobody inflates at all —
/// the optimization this mode exists for.
#[test]
fn paused_owner_is_absorbed_by_scss_without_inflation() {
    let cfg = CheckConfig::pause_owner(Backend::Scss);
    let out = run_config(&cfg);
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert!(out.stats.scss_stores > 0, "SCSS stores resolved the stall: {:?}", out.stats);
    assert_eq!(
        out.stats.inflations, 0,
        "SCSS sidesteps inflation entirely: {:?}",
        out.stats
    );
}

/// The same schedule on BZSTM: survivors simply wait the stall out.
/// Slower, never inflated, still correct.
#[test]
fn paused_owner_is_waited_out_by_blocking_mode() {
    let cfg = CheckConfig::pause_owner(Backend::Bzstm);
    let out = run_config(&cfg);
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert_eq!(out.stats.inflations, 0, "BZSTM never inflates");
    assert!(out.stats.wait_steps > 0, "survivors waited on the stalled owner");
}

/// Abort-storm: minimal patience + maximal contention under random-walk
/// schedule fuzzing. The handshake must hammer constantly and every
/// history must stay linearizable on every backend.
#[test]
fn abort_storm_fuzzing_stays_linearizable_on_all_backends() {
    for backend in BACKENDS {
        let base = CheckConfig::abort_storm(backend);
        let report = explore_random(&base, 40, 4);
        assert!(
            report.failure.is_none(),
            "{}: {:?}",
            backend.name(),
            report.failure
        );
        assert_eq!(report.schedules, 40, "{}", backend.name());
        assert!(
            report.aborts > 0,
            "{}: the storm must actually abort transactions",
            backend.name()
        );
    }
}

/// Wide abort-storm: 64 simulated contexts — the most a TM system
/// hosts, so tid 63 registers on the reader bitmap's top bit —
/// multiplexed onto an oversubscribed 8-core machine with minimal
/// patience. Judged by conservation (the history is too wide for the
/// Wing–Gong bitmask); no violation may surface on either NZSTM mode.
#[test]
fn wide_abort_storm_past_64_threads_finds_no_violation() {
    for backend in [Backend::Nzstm, Backend::Scss] {
        let base = CheckConfig::abort_storm_wide(backend, 64);
        let report = explore_random(&base, 3, 4);
        assert!(
            report.failure.is_none(),
            "{}: {:?}",
            backend.name(),
            report.failure
        );
        assert_eq!(report.schedules, 3, "{}", backend.name());
        assert!(
            report.aborts > 0,
            "{}: the storm must actually abort transactions",
            backend.name()
        );
    }
}

/// Random-walk fuzzing explores genuinely different interleavings:
/// distinct seeds produce many distinct decision traces.
#[test]
fn random_walk_seeds_diversify_schedules() {
    let base = CheckConfig::transfer(Backend::Nzstm);
    let report = explore_random(&base, 30, 3);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 25,
        "30 seeds produced only {} distinct traces",
        report.distinct
    );
}
