//! Linearizability battery for the `nztm-tds` structures (PR 8): the
//! hash map, skiplist and MPMC queue driven through the check harness on
//! every backend, judged by the Wing–Gong checker against [`MapSpec`] /
//! [`QueueSpec`], under PCT-style random walks, bounded-exhaustive
//! enumeration, and the abort-storm adversary.

use nztm_check::artifact::{from_text, to_text};
use nztm_check::{
    explore_exhaustive, explore_random, judge, run_config, Artifact, Backend, CheckConfig,
    Workload, BACKENDS,
};
use nztm_sim::SchedPolicy;
use std::sync::Arc;

const TDS_WORKLOADS: [Workload; 3] = [Workload::MapHash, Workload::MapSkip, Workload::Queue];

#[test]
fn single_minclock_run_passes_on_all_backends_and_structures() {
    for backend in BACKENDS {
        for wl in TDS_WORKLOADS {
            let cfg = CheckConfig::tds(backend, wl);
            let out = run_config(&cfg);
            judge(&cfg, &out).unwrap_or_else(|e| {
                panic!("{} {}: {} — {}", backend.name(), wl.name(), e.kind(), e.detail())
            });
            assert!(!out.ops.is_empty(), "{} {}: history recorded", backend.name(), wl.name());
            assert!(
                out.ops.iter().any(|o| o.op == nztm_workloads::history::HistOp::ReadAll),
                "{} {}: quiescent snapshot recorded",
                backend.name(),
                wl.name()
            );
        }
    }
}

/// PCT-style random-walk fuzzing on the two nonblocking software
/// backends the acceptance gate names.
#[test]
fn pct_random_walks_are_linearizable_on_nzstm_and_scss() {
    for backend in [Backend::Nzstm, Backend::Scss] {
        for wl in TDS_WORKLOADS {
            let base = CheckConfig::tds(backend, wl);
            let report = explore_random(&base, 120, 4);
            assert!(
                report.failure.is_none(),
                "{} {}: {:?}",
                backend.name(),
                wl.name(),
                report.failure
            );
            assert!(report.schedules == 120, "{}: all seeds ran", wl.name());
        }
    }
}

/// Bounded-exhaustive enumeration: every distinct schedule of the first
/// 6 decisions, CHESS-style, with no duplicate schedules.
#[test]
fn bounded_exhaustive_enumeration_is_linearizable() {
    for backend in [Backend::Nzstm, Backend::Scss] {
        for wl in TDS_WORKLOADS {
            let base = CheckConfig::tds(backend, wl);
            let report = explore_exhaustive(&base, 6, 400);
            assert!(
                report.failure.is_none(),
                "{} {}: {:?}",
                backend.name(),
                wl.name(),
                report.failure
            );
            assert_eq!(
                report.distinct, report.schedules,
                "{} {}: exhaustive enumeration must not repeat schedules",
                backend.name(),
                wl.name()
            );
            assert!(report.schedules > 0);
        }
    }
}

/// The abort-storm adversary (minimal patience, more ops) keeps the
/// handshake path hot under ADT operations. The aggregate abort counter
/// across the campaign proves the adversary actually bites.
#[test]
fn abort_storm_adversary_is_linearizable() {
    let mut total_aborts = 0;
    for backend in [Backend::Nzstm, Backend::Scss] {
        for wl in TDS_WORKLOADS {
            let base = CheckConfig::tds_abort_storm(backend, wl);
            let report = explore_random(&base, 80, 4);
            assert!(
                report.failure.is_none(),
                "{} {}: {:?}",
                backend.name(),
                wl.name(),
                report.failure
            );
            total_aborts += report.aborts;
        }
    }
    assert!(total_aborts > 0, "the storm must provoke contention aborts");
}

/// Node reuse on every backend: each key of the 3-key universe is
/// removed and re-inserted by every thread, so the judge sees histories
/// that run through recycled nodes (the ABA case). The MinClock run
/// shows the script really churns: each key leaves and comes back.
#[test]
fn recycled_nodes_are_linearizable_on_every_backend() {
    use nztm_workloads::history::{HistOp, HistRet};
    for backend in BACKENDS {
        for wl in [Workload::MapHashChurn, Workload::MapSkipChurn] {
            let base = CheckConfig::tds_churn(backend, wl);
            let out = run_config(&base);
            judge(&base, &out).unwrap_or_else(|e| {
                panic!("{} {}: {} — {}", backend.name(), wl.name(), e.kind(), e.detail())
            });
            for key in 0..base.objects as u64 {
                let removed = out
                    .ops
                    .iter()
                    .filter(|o| o.op == HistOp::MapRemove(key))
                    .filter(|o| matches!(o.ret, HistRet::OptVal(Some(_))))
                    .count();
                let who = format!("{} {}", backend.name(), wl.name());
                assert!(removed >= 2, "{who}: key {key} removed {removed}x");
            }
            let report = explore_random(&base, 60, 4);
            assert!(
                report.failure.is_none(),
                "{} {}: {:?}",
                backend.name(),
                wl.name(),
                report.failure
            );
        }
    }
}

/// Identical replay prefixes reproduce identical tds runs — the property
/// that makes shrunk artifacts replayable.
#[test]
fn tds_replay_is_deterministic() {
    for wl in TDS_WORKLOADS {
        let base = CheckConfig::tds(Backend::Nzstm, wl);
        let run = |prefix: Vec<u32>| {
            let mut cfg = base.clone();
            cfg.policy = SchedPolicy::Replay { choices: Arc::new(prefix) };
            let out = run_config(&cfg);
            let trace: Vec<u32> = out.decisions.iter().map(|d| d.chosen).collect();
            let hist: Vec<_> =
                out.ops.iter().map(|o| (o.tid, o.op.clone(), o.ret.clone())).collect();
            (trace, hist, out.final_values)
        };
        let prefix = vec![1, 2, 0, 0, 1, 2];
        assert_eq!(run(prefix.clone()), run(prefix), "{}: deterministic", wl.name());
    }
}

/// The artifact text format round-trips the new workload names, so tds
/// failures shrink to the same replayable `(config, choices)` artifacts
/// as the word workloads.
#[test]
fn tds_artifacts_round_trip() {
    for wl in TDS_WORKLOADS {
        assert_eq!(Workload::parse(wl.name()), Some(wl), "{} parses", wl.name());
        let art = Artifact {
            cfg: CheckConfig::tds_abort_storm(Backend::Scss, wl),
            kind: "linearizability".into(),
            detail: "no linearization of 9 ops".into(),
            choices: vec![2, 0, 1, 1],
        };
        let back = from_text(&to_text(&art)).unwrap();
        assert_eq!(to_text(&back), to_text(&art));
        assert_eq!(back.cfg.workload, wl);
        assert_eq!(back.choices, art.choices);
    }
}

/// A deliberately wrong spec parameter is caught: judging the queue
/// against a capacity-1 spec rejects real capacity-3 histories. This is
/// the checker-checks-something test — the judge is not vacuously green.
#[test]
fn queue_checker_rejects_wrong_capacity_histories() {
    let base = CheckConfig::tds(Backend::Nzstm, Workload::Queue);
    // Find a schedule whose history actually holds 2+ values at once.
    let mut caught = false;
    for seed in 0..40u64 {
        let mut cfg = base.clone();
        cfg.seed = seed;
        let out = run_config(&cfg);
        judge(&cfg, &out).unwrap();
        let mut narrow = cfg.clone();
        narrow.objects = 1; // judge pretends the capacity were 1
        if judge(&narrow, &out).is_err() {
            caught = true;
            break;
        }
    }
    assert!(caught, "a capacity-1 spec must reject some capacity-3 history");
}
