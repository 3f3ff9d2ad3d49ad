//! Time-boxed exploration driver for CI (`check-smoke` job).
//!
//! Fixed seeds, a wall-clock budget, and a fail-fast contract: on the
//! first judged failure the shrunk artifact is written under `--out`
//! (default `results/`) and the process exits nonzero. The campaign
//! interleaves, per backend: a small bounded-exhaustive sweep, a
//! random-walk fuzzing block, and the targeted adversarial presets.
//!
//! ```text
//! check_smoke [--budget-secs 120] [--out results] [--deep] [--tds]
//! ```
//!
//! `--tds` runs *only* the transactional-data-structure campaign (the
//! `tds-check` CI job): the hash map, skiplist and MPMC queue on every
//! backend under bounded-exhaustive, PCT-random and abort-storm
//! exploration, plus a node-reuse script on both maps, judged by the
//! ADT-level Wing-Gong specs.
//!
//! `--deep` appends the nightly campaign: deeper bounded-exhaustive
//! enumeration, long PCT-style random blocks, bounded-exhaustive at a
//! higher thread count, and wide abort storms past the 64-thread flat
//! reader-bitmap boundary on an oversubscribed machine. The wall-clock
//! budget still applies — stages that don't fit are skipped, not
//! overrun — so the nightly job sets `--budget-secs` to its time box.

use nztm_check::{
    explore_exhaustive, explore_random, shrink, write_artifact, Artifact, Backend,
    CheckConfig, ExploreReport, Failure, Workload, BACKENDS,
};
use std::time::Instant;

struct Campaign {
    start: Instant,
    budget_secs: u64,
    out_dir: std::path::PathBuf,
    schedules: u64,
    stages: u64,
}

impl Campaign {
    fn over_budget(&self) -> bool {
        self.start.elapsed().as_secs() >= self.budget_secs
    }

    /// Run one stage unless the budget is gone; on failure, shrink,
    /// write the artifact and exit nonzero.
    fn stage(
        &mut self,
        name: &str,
        base: &CheckConfig,
        explore: impl FnOnce(&CheckConfig) -> ExploreReport,
    ) {
        if self.over_budget() {
            println!("[skip] {name}: budget exhausted");
            return;
        }
        let t = Instant::now();
        let report = explore(base);
        self.schedules += report.schedules;
        self.stages += 1;
        println!(
            "[{:>5.1}s] {name}: {} schedules ({} distinct), {} inflations, {} aborts in {:.1}s",
            self.start.elapsed().as_secs_f64(),
            report.schedules,
            report.distinct,
            report.inflations,
            report.aborts,
            t.elapsed().as_secs_f64(),
        );
        if let Some(failure) = report.failure {
            self.fail(name, base, failure);
        }
    }

    fn fail(&mut self, name: &str, base: &CheckConfig, failure: Failure) -> ! {
        eprintln!("FAILURE in {name}: {} — {}", failure.kind, failure.detail);
        eprintln!("shrinking {} forced choices...", failure.choices.len());
        let small = shrink(base, &failure);
        let art = Artifact::new(base, &small);
        match write_artifact(&self.out_dir, &art) {
            Ok(path) => eprintln!(
                "artifact ({} choices) written to {}\nreplay with: check_replay {}",
                art.choices.len(),
                path.display(),
                path.display()
            ),
            Err(e) => eprintln!("could not write artifact: {e}"),
        }
        std::process::exit(1);
    }
}

/// The transactional-data-structure campaign (PR 8): all three `nztm-tds`
/// structures on every backend, under bounded-exhaustive enumeration,
/// PCT-style random walks and the abort-storm adversary. `deep` scales
/// the per-stage schedule caps up for the nightly time box.
fn tds_campaign(c: &mut Campaign, deep: bool) {
    let (exh_cap, rand_seeds, storm_seeds) =
        if deep { (2_000, 600, 300) } else { (300, 100, 60) };
    for backend in BACKENDS {
        let name = backend.name();
        for wl in [Workload::MapHash, Workload::MapSkip, Workload::Queue] {
            c.stage(
                &format!("{name} exhaustive {}", wl.name()),
                &CheckConfig::tds(backend, wl),
                |b| explore_exhaustive(b, 6, exh_cap),
            );
            c.stage(
                &format!("{name} random {}", wl.name()),
                &CheckConfig::tds(backend, wl),
                |b| explore_random(b, rand_seeds, 4),
            );
            c.stage(
                &format!("{name} {} abort storm", wl.name()),
                &CheckConfig::tds_abort_storm(backend, wl),
                |b| explore_random(b, storm_seeds, 4),
            );
        }
        // Node reuse: every key removed and re-inserted, so recycled
        // nodes (the ABA case) reach the judge.
        for wl in [Workload::MapHashChurn, Workload::MapSkipChurn] {
            c.stage(
                &format!("{name} random {}", wl.name()),
                &CheckConfig::tds_churn(backend, wl),
                |b| explore_random(b, rand_seeds, 4),
            );
        }
    }
}

fn main() {
    let mut budget_secs = 120u64;
    let mut out_dir = std::path::PathBuf::from("results");
    let mut deep = false;
    let mut tds_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget-secs" => {
                budget_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--budget-secs needs a number"));
            }
            "--out" => {
                out_dir = args.next().map(Into::into).unwrap_or_else(|| usage("--out needs a path"));
            }
            "--deep" => deep = true,
            "--tds" => tds_only = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let mut c = Campaign {
        start: Instant::now(),
        budget_secs,
        out_dir,
        schedules: 0,
        stages: 0,
    };
    println!(
        "nztm-check {}: budget {budget_secs}s, artifacts to {} (sanitize: {})",
        if tds_only {
            "tds"
        } else if deep {
            "deep"
        } else {
            "smoke"
        },
        c.out_dir.display(),
        cfg!(feature = "sanitize"),
    );

    if tds_only {
        tds_campaign(&mut c, deep);
        println!(
            "tds PASS: {} stages, {} schedules in {:.1}s",
            c.stages,
            c.schedules,
            c.start.elapsed().as_secs_f64()
        );
        return;
    }

    for backend in BACKENDS {
        let name = backend.name();
        c.stage(&format!("{name} exhaustive transfer"), &CheckConfig::transfer(backend), |b| {
            explore_exhaustive(b, 7, 1_200)
        });
        c.stage(&format!("{name} random transfer"), &CheckConfig::transfer(backend), |b| {
            explore_random(b, 250, 4)
        });
        c.stage(&format!("{name} abort storm"), &CheckConfig::abort_storm(backend), |b| {
            explore_random(b, 150, 4)
        });
        c.stage(&format!("{name} pause owner"), &CheckConfig::pause_owner(backend), |b| {
            explore_random(b, 60, 8)
        });
        if backend == Backend::Nzstm || backend == Backend::Scss {
            c.stage(&format!("{name} crash owner"), &CheckConfig::crash_owner(backend), |b| {
                explore_exhaustive(b, 4, 60)
            });
        }
        #[cfg(feature = "sanitize")]
        {
            let mut yp = CheckConfig::transfer(backend);
            yp.yield_points = true;
            c.stage(&format!("{name} yield-point exhaustive"), &yp, |b| {
                explore_exhaustive(b, 6, 600)
            });
        }
    }

    // The tds structures ride in the smoke pass at reduced caps; the
    // dedicated tds-check job (--tds) runs the full campaign.
    tds_campaign(&mut c, false);

    if deep {
        // The wide storms run first: they are the coverage the smoke pass
        // lacks entirely (64 contexts, every bit of the reader bitmap,
        // multiplexed onto 8 simulated cores while token oversubscription
        // shuffles which contexts make progress). The hybrid backend stays
        // on narrow machines — its HTM model is tuned for them.
        for backend in BACKENDS {
            if backend == Backend::Hybrid {
                continue;
            }
            c.stage(
                &format!("{} wide abort storm x64", backend.name()),
                &CheckConfig::abort_storm_wide(backend, 64),
                |b| explore_random(b, 25, 4),
            );
        }
        for backend in BACKENDS {
            let name = backend.name();
            // Deeper enumeration of the §3 transfer config than the smoke
            // pass affords: two more forced decisions, 16x the schedule cap.
            c.stage(&format!("{name} deep exhaustive transfer"), &CheckConfig::transfer(backend), |b| {
                explore_exhaustive(b, 9, 20_000)
            });
            // Long PCT-style random-walk block (priority-perturbed seeds).
            c.stage(&format!("{name} deep random transfer"), &CheckConfig::transfer(backend), |b| {
                explore_random(b, 2_000, 4)
            });
            // Bounded-exhaustive at a higher thread count: more runnable
            // cores per decision, so the branching factor — not the depth —
            // carries the coverage.
            let six = CheckConfig {
                threads: 6,
                objects: 3,
                ..CheckConfig::transfer(backend)
            };
            c.stage(&format!("{name} exhaustive 6-thread transfer"), &six, |b| {
                explore_exhaustive(b, 5, 4_000)
            });
        }
    }

    println!(
        "{} PASS: {} stages, {} schedules in {:.1}s",
        if deep { "deep" } else { "smoke" },
        c.stages,
        c.schedules,
        c.start.elapsed().as_secs_f64()
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("check_smoke: {msg}\nusage: check_smoke [--budget-secs N] [--out DIR] [--deep] [--tds]");
    std::process::exit(2);
}
