//! Schedule exploration: random-walk fuzzing, bounded-exhaustive
//! enumeration, and the shared run judge.
//!
//! Bounded-exhaustive enumeration is the stateless-DFS scheme of
//! CHESS-style model checkers: run a forced choice prefix to completion
//! under the default (min-clock) continuation, then branch a child for
//! every *alternative* runnable core at every decision index past the
//! prefix (up to `depth`). Each complete run corresponds to exactly one
//! choice sequence, so every executed schedule is distinct and the whole
//! tree of the first `depth` decisions is covered without duplicates.

use crate::harness::{run_config, CheckConfig, RunOutcome, Workload};
use crate::lin::{linearizable, BankSpec, CounterSpec, MapSpec, QueueSpec};
use nztm_sim::SchedPolicy;
use std::collections::HashSet;
use std::sync::Arc;

/// Why a run was rejected.
#[derive(Clone, Debug)]
pub enum CheckError {
    Lin(String),
    Sanitizer(String),
    Conservation(String),
    Watchdog,
}

impl CheckError {
    pub fn kind(&self) -> &'static str {
        match self {
            CheckError::Lin(_) => "linearizability",
            CheckError::Sanitizer(_) => "sanitizer",
            CheckError::Conservation(_) => "conservation",
            CheckError::Watchdog => "watchdog",
        }
    }

    pub fn detail(&self) -> String {
        match self {
            CheckError::Lin(d) | CheckError::Sanitizer(d) | CheckError::Conservation(d) => {
                d.clone()
            }
            CheckError::Watchdog => "simulator watchdog (livelock or deadlock)".into(),
        }
    }
}

/// The Wing–Gong checker's linearized-set bitmask is a `u64`, so only
/// histories of at most this many completed operations get the full
/// permutation search. Wider runs (the >64-thread adversaries) are
/// judged by value conservation instead.
const LIN_MAX_OPS: usize = 64;

/// Judge one run: watchdog, then history linearizability, then value
/// conservation, then sanitizer findings. Linearizability is checked
/// before sanitizer findings so an end-to-end data corruption is
/// reported as such even when the invariant mirror also flagged it.
/// Histories wider than `LIN_MAX_OPS` skip the permutation search and
/// rely on the conservation checks (the sum of bank balances, or the
/// count of committed increments), which remain exact at any width.
pub fn judge(cfg: &CheckConfig, out: &RunOutcome) -> Result<(), CheckError> {
    if out.watchdog {
        return Err(CheckError::Watchdog);
    }
    assert!(
        out.crashed_ops <= usize::from(cfg.crash_tid.is_some()),
        "only the crashed thread may leave a pending operation"
    );
    match cfg.workload {
        Workload::Transfer => {
            if out.ops.len() <= LIN_MAX_OPS {
                let spec = BankSpec { accounts: cfg.objects, initial: cfg.initial };
                linearizable(&spec, &out.ops).map_err(|e| CheckError::Lin(e.0))?;
            }
            if !out.final_values.is_empty() {
                let total: u64 = out.final_values.iter().sum();
                let expect = cfg.initial * cfg.objects as u64;
                if total != expect {
                    return Err(CheckError::Conservation(format!(
                        "final balances {:?} sum to {total}, expected {expect}",
                        out.final_values
                    )));
                }
            }
        }
        Workload::Increment => {
            if out.ops.len() <= LIN_MAX_OPS {
                let spec = CounterSpec { objects: cfg.objects };
                linearizable(&spec, &out.ops).map_err(|e| CheckError::Lin(e.0))?;
            } else if !out.final_values.is_empty() {
                use nztm_workloads::history::HistOp;
                let incs = out
                    .ops
                    .iter()
                    .filter(|o| matches!(o.op, HistOp::Increment { .. }))
                    .count() as u64;
                let total: u64 = out.final_values.iter().sum();
                if total != incs {
                    return Err(CheckError::Conservation(format!(
                        "counters sum to {total}, but {incs} increments committed"
                    )));
                }
            }
        }
        Workload::MapHash
        | Workload::MapSkip
        | Workload::MapHashChurn
        | Workload::MapSkipChurn => {
            if out.ops.len() <= LIN_MAX_OPS {
                let spec = MapSpec { keys: (0..cfg.objects as u64).collect() };
                linearizable(&spec, &out.ops).map_err(|e| CheckError::Lin(e.0))?;
            }
            // Exact at any width: every value present at the end (encoded
            // val + 1 per key) must have been the argument of a committed
            // insert of that key.
            use nztm_workloads::history::HistOp;
            let inserted: HashSet<(u64, u64)> = out
                .ops
                .iter()
                .filter_map(|o| match o.op {
                    HistOp::MapInsert(k, v) => Some((k, v)),
                    _ => None,
                })
                .collect();
            for (k, enc) in out.final_values.iter().enumerate() {
                if *enc != 0 && !inserted.contains(&(k as u64, enc - 1)) {
                    return Err(CheckError::Conservation(format!(
                        "final map binding {k} -> {} was never inserted",
                        enc - 1
                    )));
                }
            }
        }
        Workload::Queue => {
            if out.ops.len() <= LIN_MAX_OPS {
                let spec = QueueSpec { capacity: cfg.objects };
                linearizable(&spec, &out.ops).map_err(|e| CheckError::Lin(e.0))?;
            }
            // Exact at any width: committed enqueues and dequeues must
            // balance against the final contents (values are unique per
            // (thread, op), so multisets are sets here).
            use nztm_workloads::history::{HistOp, HistRet};
            let enqueued: HashSet<u64> = out
                .ops
                .iter()
                .filter_map(|o| match (&o.op, &o.ret) {
                    (HistOp::Enqueue(v), HistRet::Bool(true)) => Some(*v),
                    _ => None,
                })
                .collect();
            let mut dequeued: HashSet<u64> = HashSet::new();
            for o in &out.ops {
                if let (HistOp::Dequeue, HistRet::OptVal(Some(v))) = (&o.op, &o.ret) {
                    if !enqueued.contains(v) {
                        return Err(CheckError::Conservation(format!(
                            "dequeued {v} which no committed enqueue produced"
                        )));
                    }
                    if !dequeued.insert(*v) {
                        return Err(CheckError::Conservation(format!("{v} dequeued twice")));
                    }
                }
            }
            if !out.final_values.is_empty() || out.ops.iter().any(|o| o.op == HistOp::ReadAll)
            {
                let mut remaining: Vec<u64> =
                    enqueued.difference(&dequeued).copied().collect();
                remaining.sort_unstable();
                let mut finals = out.final_values.clone();
                finals.sort_unstable();
                if finals != remaining {
                    return Err(CheckError::Conservation(format!(
                        "final queue contents {finals:?} != enqueued-minus-dequeued \
                         {remaining:?}"
                    )));
                }
            }
        }
    }
    if !out.violations.is_empty() {
        return Err(CheckError::Sanitizer(out.violations.join("; ")));
    }
    Ok(())
}

/// A failing schedule, as found (pre-shrink): the forced-choice prefix
/// that reproduces it under `SchedPolicy::Replay`.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: String,
    pub detail: String,
    pub choices: Vec<u32>,
}

/// Aggregate exploration statistics.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct full decision traces observed (equals `schedules` for
    /// bounded-exhaustive enumeration; asserted by the tier-1 test).
    pub distinct: u64,
    /// Sum of engine inflations across all runs.
    pub inflations: u64,
    /// Sum of engine aborts across all runs.
    pub aborts: u64,
    /// First failure, if any (exploration stops there).
    pub failure: Option<Failure>,
}

fn trace_hash(out: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &out.decisions {
        // Fold chosen and the (64-bit) runnable mask as separate words so
        // wide-machine masks are not truncated into the hash.
        h ^= u64::from(d.chosen);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= d.runnable;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounded-exhaustive enumeration of the first `depth` scheduling
/// decisions, with a custom judge.
pub fn explore_exhaustive_with(
    base: &CheckConfig,
    depth: usize,
    limit: u64,
    judge_fn: impl Fn(&CheckConfig, &RunOutcome) -> Result<(), CheckError>,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut seen = HashSet::new();
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.schedules >= limit {
            break;
        }
        let mut cfg = base.clone();
        cfg.policy = SchedPolicy::Replay { choices: Arc::new(prefix.clone()) };
        let out = run_config(&cfg);
        report.schedules += 1;
        report.inflations += out.stats.inflations;
        // The hybrid backend's contention aborts land on the HTM side.
        report.aborts += out.stats.aborts() + out.stats.htm_aborts;
        if seen.insert(trace_hash(&out)) {
            report.distinct += 1;
        }
        if let Err(e) = judge_fn(&cfg, &out) {
            report.failure =
                Some(Failure { kind: e.kind().into(), detail: e.detail(), choices: prefix });
            break;
        }
        // Branch a child for every alternative runnable core at every
        // decision past the prefix; the child's prefix replays the
        // parent's actual choices up to the deviation point.
        for i in prefix.len()..depth.min(out.decisions.len()) {
            let d = out.decisions[i];
            for c in 0..64u32 {
                if d.runnable & (1u64 << c) != 0 && c != d.chosen {
                    let mut child: Vec<u32> =
                        out.decisions[..i].iter().map(|x| x.chosen).collect();
                    child.push(c);
                    stack.push(child);
                }
            }
        }
    }
    report
}

/// Bounded-exhaustive enumeration under the standard [`judge`].
pub fn explore_exhaustive(base: &CheckConfig, depth: usize, limit: u64) -> ExploreReport {
    explore_exhaustive_with(base, depth, limit, judge)
}

/// Seeded random-walk schedule fuzzing with a custom judge: `n_seeds`
/// runs under [`SchedPolicy::Random`] with PCT-style priority
/// perturbation. A failure's choices are the run's full recorded
/// decision trace, which replays it exactly.
pub fn explore_random_with(
    base: &CheckConfig,
    n_seeds: u64,
    change_denom: u64,
    judge_fn: impl Fn(&CheckConfig, &RunOutcome) -> Result<(), CheckError>,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut seen = HashSet::new();
    for i in 0..n_seeds {
        let sched_seed = base.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1);
        let mut cfg = base.clone();
        cfg.policy = SchedPolicy::Random { seed: sched_seed, change_denom };
        let out = run_config(&cfg);
        report.schedules += 1;
        report.inflations += out.stats.inflations;
        report.aborts += out.stats.aborts() + out.stats.htm_aborts;
        if seen.insert(trace_hash(&out)) {
            report.distinct += 1;
        }
        if let Err(e) = judge_fn(&cfg, &out) {
            let choices = out.decisions.iter().map(|d| d.chosen).collect();
            report.failure = Some(Failure { kind: e.kind().into(), detail: e.detail(), choices });
            break;
        }
    }
    report
}

/// Seeded random-walk fuzzing under the standard [`judge`].
pub fn explore_random(base: &CheckConfig, n_seeds: u64, change_denom: u64) -> ExploreReport {
    explore_random_with(base, n_seeds, change_denom, judge)
}
