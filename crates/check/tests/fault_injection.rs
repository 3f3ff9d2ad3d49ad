//! Fault injection end-to-end: prove
//! the checker actually *catches* protocol bugs, and that a failure
//! shrinks to a minimal artifact that replays deterministically.

use nztm_check::{
    explore_exhaustive, explore_random, explore_random_with, judge, read_artifact, replay,
    run_config, shrink, write_artifact, Artifact, Backend, CheckConfig,
};

/// Protocol-edge yield points multiply the scheduling decisions at
/// exactly the spots the protocol is most sensitive to. With the real
/// (unbroken) engine every explored schedule must still pass.
#[test]
fn yield_point_exploration_is_clean() {
    let mut base = CheckConfig::transfer(Backend::Nzstm);
    base.yield_points = true;
    let report = explore_exhaustive(&base, 5, 200);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.schedules > 0);
}

/// The acceptance gate: re-enable the seeded handshake bug (the victim
/// misses its forced abort and keeps writing an object it no longer
/// owns), fuzz until the linearizability checker catches the corruption,
/// shrink the failure, write it as an artifact, read it back, and replay
/// it — deterministically reproducing the same verdict.
#[test]
fn injected_handshake_bug_is_caught_shrunk_and_replayed() {
    let mut base = CheckConfig::abort_storm(Backend::Nzstm);
    base.inject_handshake_bug = true;

    // Ignore the invariant mirror's (immediate) detection of the forced
    // status: the point here is that the *end-to-end* linearizability
    // check catches the resulting data corruption on its own. The large
    // change_denom keeps PCT priorities stable long enough for a
    // requester to complete a full steal while the forced-aborted victim
    // sits parked at the eager-write yield point.
    let report = explore_random_with(&base, 600, 16, |cfg, out| match judge(cfg, out) {
        Err(e) if e.kind() == "sanitizer" => Ok(()),
        r => r,
    });
    let failure = report.failure.expect("the injected bug must be caught");
    assert_eq!(
        failure.kind, "linearizability",
        "the bug corrupts committed data: {}",
        failure.detail
    );

    // The failing schedule is pinned by the recorded decision trace;
    // shrinking trims it to the smallest still-failing prefix.
    let small = shrink(&base, &failure);
    assert!(small.choices.len() <= failure.choices.len());
    let art = Artifact::new(&base, &small);
    assert_eq!(art.kind, "linearizability");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nztm-check-artifacts");
    let path = write_artifact(&dir, &art).expect("artifact written");
    let back = read_artifact(&path).expect("artifact parsed");
    assert_eq!(back.choices, art.choices);

    // Replay twice: deterministic reproduction, both times.
    for _ in 0..2 {
        let rep = replay(&back);
        assert!(rep.reproduced, "replay verdict: {} — {}", rep.kind, rep.detail);
        assert_eq!(rep.kind, "linearizability");
    }
}

/// The same end-to-end gate through the transactional data structures
/// (PR 8): the seeded handshake bug corrupts a `nztm-tds` queue run —
/// every enqueue/dequeue writes the shared head/tail words, so the
/// stolen-object write lands in data the FIFO spec observes — the
/// ADT-level checker ([`nztm_check::QueueSpec`] via the judge) catches
/// it, and the failure shrinks to an artifact that replays. This proves
/// the tds battery detects real protocol bugs, not just word-level ones.
#[test]
fn injected_bug_is_caught_through_the_tds_queue() {
    use nztm_check::Workload;
    let mut base = CheckConfig::tds_abort_storm(Backend::Nzstm, Workload::Queue);
    base.inject_handshake_bug = true;

    let report = explore_random_with(&base, 400, 16, |cfg, out| match judge(cfg, out) {
        Err(e) if e.kind() == "sanitizer" => Ok(()),
        r => r,
    });
    let failure = report.failure.expect("the injected bug must corrupt the queue");
    assert_eq!(failure.kind, "linearizability", "{}", failure.detail);

    let small = shrink(&base, &failure);
    assert!(small.choices.len() <= failure.choices.len());
    let art = Artifact::new(&base, &small);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nztm-check-artifacts");
    let path = write_artifact(&dir, &art).expect("artifact written");
    let back = read_artifact(&path).expect("artifact parsed");
    assert_eq!(back.cfg.workload, Workload::Queue);
    let rep = replay(&back);
    assert!(rep.reproduced, "replay verdict: {} — {}", rep.kind, rep.detail);
}

/// The same campaign with the fault compiled out (flag off, same yield
/// points) passes clean — the catch above is the bug, not the harness.
#[test]
fn unbroken_engine_passes_the_same_campaign() {
    let mut base = CheckConfig::abort_storm(Backend::Nzstm);
    base.yield_points = true; // same schedule surface, no fault
    let report = explore_random(&base, 100, 4);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let out = run_config(&base);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}
