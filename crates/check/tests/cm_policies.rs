//! Contention-management policies driven through the exploration
//! harness on the real engine: every policy must keep histories
//! linearizable under the abort-storm adversary, and the classically
//! risky ones must uphold their specific guarantees (Aggressive: no
//! livelock past the engine's backoff; Timestamp: progress).

use nztm_check::{explore_random, judge, run_config, Backend, CheckConfig, CmKind, CM_KINDS};

/// Every policy keeps the abort-storm adversary
/// linearizable under random-walk schedule fuzzing on both nonblocking
/// modes.
#[test]
fn all_policies_stay_linearizable_under_abort_storm() {
    for backend in [Backend::Nzstm, Backend::Scss] {
        for cm in CM_KINDS {
            let base = CheckConfig { cm, ..CheckConfig::abort_storm(backend) };
            let report = explore_random(&base, 8, 4);
            assert!(
                report.failure.is_none(),
                "{}/{}: {:?}",
                backend.name(),
                cm.name(),
                report.failure
            );
            assert_eq!(report.schedules, 8, "{}/{}", backend.name(), cm.name());
        }
    }
}

/// Livelock probe: Aggressive always requests the peer's abort, the
/// textbook mutual-abort livelock shape. The engine's randomized
/// exponential backoff must break the symmetry — the run completes
/// (no watchdog), the history judges clean, and the storm really
/// stormed (abort requests flowed).
#[test]
fn aggressive_survives_abort_storm_without_livelock() {
    let cfg = CheckConfig { cm: CmKind::Aggressive, ..CheckConfig::abort_storm(Backend::Nzstm) };
    let out = run_config(&cfg);
    assert!(!out.watchdog, "aggressive CM livelocked the abort storm");
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert!(out.stats.abort_requests_sent > 0, "the storm must exercise the handshake");
    assert!(out.stats.aborts() > 0, "aggressive must actually abort peers: {:?}", out.stats);
}

/// Timestamp orders conflicts by (serial, thread) — older wins — which
/// is livelock-free by construction. Under the storm every thread must
/// finish its operations (progress), not merely stay safe.
#[test]
fn timestamp_guarantees_progress_under_abort_storm() {
    let cfg = CheckConfig { cm: CmKind::Timestamp, ..CheckConfig::abort_storm(Backend::Nzstm) };
    let out = run_config(&cfg);
    assert!(!out.watchdog, "timestamp CM failed to make progress");
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    // All workload operations completed (the log also holds the final
    // quiescent ReadAll, hence >=).
    assert!(
        out.ops.len() >= cfg.threads * cfg.ops_per_thread,
        "every operation must complete: {} < {}",
        out.ops.len(),
        cfg.threads * cfg.ops_per_thread
    );
    // AbortSelf is Timestamp's signature move (the younger yields).
    assert!(out.stats.aborts_self > 0, "the younger side must have yielded: {:?}", out.stats);
}
