//! Self-tests of the runner as a whole (`cargo test --manifest-path
//! benchmark/Cargo.toml`); the modules test their own parts.

use crate::compare::{self, Verdict};
use crate::run::{Metrics, Outcome, RunCfg};
use crate::simwl::{self, HybridBank, HybridKv, Measured, SimWorkload};
use crate::workloads::{self, kv_trace_cfg, tds_draw, txn_draw};
use crate::{host, native, record_json, result_json, spec, Flags};
use nztm_sim::DetRng;
use nztm_workloads::kv::KvTraceGen;

fn cfg(workload: &str, seconds: u64, break_oracle: bool) -> RunCfg {
    RunCfg {
        workload: spec::workload(workload).unwrap(),
        seed: 42,
        seconds,
        trace: false,
        threads: 1,
        break_oracle,
        out_dir: std::env::temp_dir(),
    }
}

/// Tests that run an engine take this lock: epoch reclamation and the
/// simulator's synthetic addresses are process-global (ROADMAP item 1),
/// so a neighbour running beside a simulated machine changes which
/// descriptors it recycles, and with them its cycle counts.
static ENGINE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the unit value cannot be left invalid.
    ENGINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same seed, same stream; another seed or another thread, another stream.
fn assert_seeded<T: PartialEq + std::fmt::Debug>(what: &str, stream: impl Fn(u64, u64) -> Vec<T>) {
    assert_eq!(stream(5, 1), stream(5, 1), "{what}: same seed must repeat");
    assert_ne!(
        stream(5, 1),
        stream(6, 1),
        "{what}: another seed must differ"
    );
    assert_ne!(
        stream(5, 1),
        stream(5, 2),
        "{what}: another thread must differ"
    );
}

#[test]
fn every_generator_is_a_function_of_its_seed() {
    const N: usize = 4_000;
    assert_seeded("kv-zipf", |seed, t| {
        KvTraceGen::new(kv_trace_cfg(), seed, t).take(N)
    });
    assert_seeded("hybrid-kv-sim", |seed, t| {
        simwl::sim_kv_trace(seed, t as usize).take(N)
    });
    assert_seeded("tds-mix", |seed, t| {
        let mut rng = DetRng::new(seed).split(t);
        (0..N).map(|_| tds_draw(&mut rng)).collect()
    });
    assert_seeded("txn-write", |seed, t| {
        let mut rng = DetRng::new(seed).split(t);
        (0..N).map(|_| txn_draw(&mut rng)).collect()
    });
    assert_seeded("hybrid-bank-sim", |seed, t| {
        let mut rng = HybridBank::core(seed, t as usize);
        (0..N).map(|_| rng.next_u64()).collect()
    });
}

#[test]
fn tds_mix_draws_the_declared_shares_inside_the_key_space() {
    use workloads::TdsOp::*;
    let mut rng = DetRng::new(1);
    let mut counts = [0usize; 7];
    for _ in 0..100_000 {
        let (kind, key) = match tds_draw(&mut rng) {
            SkipSucc(k) => (0, k),
            SkipGet(k) => (1, k),
            MapGet(k) => (2, k),
            UpdateBoth(k, _) => {
                assert_eq!(k % 2, 0, "updates hit keys that are always present");
                (3, k)
            }
            ToggleBoth(k, _) => {
                assert_eq!(k % 2, 1, "toggles hit odd keys only");
                (4, k)
            }
            Enqueue(_) => (5, 2),
            Dequeue => (6, 2),
        };
        assert!((2..=4096).contains(&key));
        counts[kind] += 1;
    }
    for (got, want) in counts.iter().zip([50, 20, 10, 8, 4, 4, 4]) {
        let share = 100.0 * *got as f64 / 100_000.0;
        assert!(
            (share - want as f64).abs() < 0.6,
            "share {share:.2} %, declared {want} %"
        );
    }
}

/// Makespan, every operation's (kind, start, end) per core, `TmStats`.
type Fingerprint = (u64, Vec<Vec<(u8, u64, u64)>>, nztm_core::TmStats);

fn fingerprint(m: &Measured) -> Fingerprint {
    let spans = m
        .phase
        .spans
        .iter()
        .map(|c| c.iter().map(|s| (s.kind, s.start, s.end)).collect())
        .collect();
    (m.phase.report.makespan, spans, m.stats)
}

fn sim_repeats<W: SimWorkload>() {
    let _alone = engine_lock();
    let run = |seed, attribution| simwl::measure::<W>(seed, 1, attribution, false).unwrap();
    let first = run(9, false);
    assert!(first.oracle.is_ok() && first.phase.failed == 0);
    assert_eq!(
        first.ops,
        simwl::ops_per_core::<W>(1).1 * simwl::CORES as u64
    );
    // Twice in one process: makespan, every operation's cycles, TmStats.
    assert_eq!(fingerprint(&first), fingerprint(&run(9, false)));
    // Arming attribution must not move simulated time.
    assert_eq!(fingerprint(&first), fingerprint(&run(9, true)));
    // Another seed is another run.
    assert_ne!(fingerprint(&first).0, fingerprint(&run(10, false)).0);
}

#[test]
fn hybrid_kv_sim_repeats_exactly_in_one_process() {
    sim_repeats::<HybridKv>();
}

#[test]
fn hybrid_bank_sim_repeats_exactly_in_one_process() {
    sim_repeats::<HybridBank>();
}

#[test]
fn sim_oracle_input_can_be_broken_only_where_it_is_reachable() {
    let _alone = engine_lock();
    let broken = simwl::measure::<HybridKv>(9, 1, false, true).unwrap();
    assert_eq!(
        broken.phase.failed, 1,
        "the get of an unpopulated user is counted"
    );
    assert!(simwl::measure::<HybridBank>(9, 1, false, true).is_err());
}

#[test]
fn txn_write_oracle_catches_a_store_no_transaction_made() {
    let _alone = engine_lock();
    let (clean, _) = native::run::<workloads::TxnWrite>(&cfg("txn-write", 1, false));
    assert!(clean.correct(), "{:?}", clean.errors);
    assert!(clean.attempted > 0 && clean.failed == 0);
    for m in spec::END_TO_END {
        assert!(
            clean.metrics.get(m.name).is_some_and(|v| v > 0.0),
            "{} is reported and never 0",
            m.name
        );
    }
    let (broken, _) = native::run::<workloads::TxnWrite>(&cfg("txn-write", 1, true));
    assert!(!broken.correct());
    assert_eq!(
        broken.failed, broken.attempted,
        "every op of a slice that fails its oracle is failed"
    );
    assert!(
        broken.errors[0].contains("objects sum to"),
        "{:?}",
        broken.errors
    );
}

#[test]
fn tds_mix_oracle_catches_a_key_in_one_structure_only() {
    let _alone = engine_lock();
    let (clean, _) = native::run::<workloads::TdsMix>(&cfg("tds-mix", 1, false));
    assert!(clean.correct(), "{:?}", clean.errors);
    let (broken, _) = native::run::<workloads::TdsMix>(&cfg("tds-mix", 1, true));
    assert!(!broken.correct());
    assert!(broken.errors[0].contains("differ"), "{:?}", broken.errors);
}

#[test]
fn result_json_round_trips_through_compare() {
    let mut metrics = Metrics::default();
    for (i, m) in spec::END_TO_END.iter().enumerate() {
        metrics.set(m.name, 1234.567890123 * (i + 1) as f64);
    }
    let outcome = Outcome {
        attempted: 1000,
        failed: 0,
        errors: vec![],
        metrics,
        notes: vec![],
    };
    let result = result_json(&outcome, false);
    // Exactly the contract's keys, every declared metric, value and unit.
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("metrics").unwrap().as_obj().unwrap().len(),
        spec::END_TO_END.len()
    );
    let line = record_json(host::header("txn-write", 42, 1, "test"), false, result).encode();
    assert!(!line.contains('\n'));

    let set = compare::parse_set(&format!("{line}\n{line}\n")).unwrap();
    assert!(set.incorrect.is_empty());
    let bounds = compare::bounds_from_spec(&spec::benchmark_json()).unwrap();
    let rows = compare::compare(&set, &set, &bounds);
    assert_eq!(rows.len(), spec::END_TO_END.len());
    for r in &rows {
        assert_eq!(r.workload, "txn-write");
        assert_eq!(
            (r.verdict, r.identical, r.worse_by),
            (Verdict::Ok, true, 0.0)
        );
        assert_eq!(
            r.a,
            outcome.metrics.get(&r.metric).unwrap(),
            "no digit lost on the way"
        );
    }

    // A run that failed its oracle is reported as such.
    let failed = Outcome {
        attempted: 10,
        failed: 10,
        errors: vec!["x".into()],
        metrics: Metrics::default(),
        notes: vec![],
    };
    let line = record_json(
        host::header("txn-write", 42, 1, "test"),
        false,
        result_json(&failed, false),
    )
    .encode();
    assert_eq!(compare::parse_set(&line).unwrap().incorrect.len(), 1);
}

#[test]
fn trace_flag_takes_an_optional_zero_or_one() {
    let parse = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&args, &["--seed"], &["--trace"], &["--break-oracle"])
    };
    let on = |f: &Flags| f.has("--trace") && f.value("--trace") != Some("0");
    assert!(on(&parse(&["--trace", "--seed", "3"]).unwrap()));
    assert!(on(&parse(&["--seed", "3", "--trace", "1"]).unwrap()));
    assert!(!on(&parse(&["--trace", "0", "--seed", "3"]).unwrap()));
    assert!(!on(&parse(&["--seed", "3"]).unwrap()));
    assert_eq!(
        parse(&["--trace", "--seed", "3"]).unwrap().number("--seed"),
        Ok(Some(3))
    );
    assert!(parse(&["--seed"]).is_err());
    assert!(parse(&["--nope"]).is_err());
    assert!(parse(&["--seed", "x"]).unwrap().number("--seed").is_err());
}
