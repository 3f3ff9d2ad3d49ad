//! Contention-management policies driven through the exploration
//! harness on the real engine (ISSUE 6): every policy must keep
//! histories linearizable under the abort-storm adversary, the
//! classically risky ones must uphold their specific guarantees
//! (Aggressive: no livelock past the engine's backoff; Timestamp:
//! progress), and the adaptive policy's mode transitions must replay
//! deterministically from (seed, schedule).

use nztm_check::{
    explore_random, explore_random_with, judge, run_config, Backend, CheckConfig, CmKind,
    CM_KINDS,
};

/// Every policy, including Adaptive, keeps the abort-storm adversary
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

/// A contention shape hot enough to trip Adaptive's escalation
/// threshold: one object, many short increments, minimal patience.
fn escalation_storm() -> CheckConfig {
    CheckConfig {
        cm: CmKind::Adaptive,
        patience: 2,
        ..CheckConfig::increment(Backend::Nzstm, 6, 1)
    }
}

/// Adaptive's mode transitions are pure functions of the run: replaying
/// the same (seed, schedule policy) on the deterministic machine must
/// reproduce identical statistics — including the escalation and
/// de-escalation counters — and an identical mode-transition event
/// sequence in the flight recorder. This is what makes adaptive-CM
/// failures shrinkable and artifact-replayable like any other.
#[test]
fn adaptive_mode_transitions_replay_deterministically() {
    let mut cfg = escalation_storm();
    cfg.trace = true;
    let a = run_config(&cfg);
    let b = run_config(&cfg);
    judge(&cfg, &a).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert!(!a.watchdog && !b.watchdog);
    assert_eq!(a.stats, b.stats, "same seed + schedule must reproduce identical stats");
    assert_eq!(
        a.stats.cm_escalations, b.stats.cm_escalations,
        "mode transitions are part of the replayable state"
    );
    // With the `trace` feature the CmMode events must match one-for-one
    // (kind 15: a = object address, b = mode code). The raw address is
    // a heap pointer and differs run to run, so compare modulo address
    // renaming: each distinct object becomes its first-appearance index
    // — same threads, same mode codes, same objects in the same order.
    // Without the feature both sequences are empty and the assertion is
    // vacuous.
    let cm_events = |out: &nztm_check::RunOutcome| {
        let mut ids = std::collections::HashMap::new();
        out.trace
            .events
            .iter()
            .filter(|e| e.kind == nztm_core::EventKind::CmMode)
            .map(|e| {
                let next = ids.len();
                let id = *ids.entry(e.a).or_insert(next);
                (e.thread, id, e.b)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(cm_events(&a), cm_events(&b), "CmMode event sequences must replay");
}

/// The escalation storm actually escalates: the adaptive policy
/// observes the abort pile-up on the single shared object and switches
/// it to queued-ownership mode at least once (counted by the engine's
/// `cm_escalations`, so the full policy→engine→stats loop is live), and
/// the run still judges clean.
#[test]
fn adaptive_escalates_under_a_single_object_storm() {
    let cfg = escalation_storm();
    let out = run_config(&cfg);
    assert!(!out.watchdog, "adaptive CM must keep the storm live");
    judge(&cfg, &out).unwrap_or_else(|e| panic!("{} — {}", e.kind(), e.detail()));
    assert!(out.stats.aborts() > 0, "the storm must produce aborts: {:?}", out.stats);
    assert!(
        out.stats.cm_escalations > 0,
        "a single-object abort storm must trip hot-object escalation: {:?}",
        out.stats
    );
}

/// Karma vs Adaptive on the same storm: Adaptive is Karma plus bounded
/// waiting, so it must not *lose* safety or progress anywhere the
/// baseline succeeds (same schedules, same judge), and it must not abort
/// more per commit than Karma beyond 10 % + 0.05. Inputs: the 6-thread
/// escalation storm, and 16- and 32-thread storms over 16 schedules.
#[test]
fn adaptive_matches_karma_safety_on_fuzzed_schedules() {
    for (threads, schedules) in [(6, 6), (16, 16), (32, 16)] {
        let mut per_commit = [0.0; 2];
        for (rate, cm) in per_commit.iter_mut().zip([CmKind::Karma, CmKind::Adaptive]) {
            let base = CheckConfig { cm, threads, ..escalation_storm() };
            let commits = std::cell::Cell::new(0u64);
            let report = explore_random_with(&base, schedules, 4, |cfg, out| {
                commits.set(commits.get() + out.stats.commits);
                judge(cfg, out)
            });
            assert!(report.failure.is_none(), "{}: {:?}", cm.name(), report.failure);
            assert!(report.aborts > 0, "{}: storm must abort", cm.name());
            *rate = report.aborts as f64 / commits.get() as f64;
        }
        let [karma, adaptive] = per_commit;
        assert!(
            adaptive <= karma * 1.10 + 0.05,
            "{threads} threads: Adaptive aborts {adaptive:.3}/commit, Karma {karma:.3}"
        );
    }
}
