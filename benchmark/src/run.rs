//! What a run is asked to do and what it hands back.

use crate::quantile;
use crate::span::{Counters, C};
use crate::spec::{self, Workload};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunCfg {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// The traced run: per-layer metrics and the span file.
    pub trace: bool,
    pub threads: usize,
    /// Test-only: corrupt one oracle input so the run must fail.
    pub break_oracle: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// Metric values by name, in the order set.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations whose own check failed, plus every operation of a slice
    /// whose quiescent oracle failed.
    pub failed: u64,
    /// Oracle failures, in words.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Further lines for the human reader: sample counts, ops/s, in-situ
    /// span medians.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// How often `measure_setup` builds.
pub enum Builds {
    /// At least three times, and builds of a few milliseconds as often as
    /// fits in one second (99 at most).
    ForASecond,
    /// Exactly this often: the simulated workloads keep the process's
    /// history — allocator, epoch and synthetic-address state — the same
    /// in every run, whatever the host's speed.
    Exactly(usize),
}

/// Build the workload several times and return the last build with the
/// median build time in seconds, so that `setup_s` is a median of enough
/// samples to be steady.
pub fn measure_setup<T>(builds: Builds, mut build: impl FnMut() -> T) -> (T, f64) {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        let done = match builds {
            Builds::ForASecond => {
                times.len() >= 3 && (begun.elapsed().as_secs_f64() >= 1.0 || times.len() >= 99)
            }
            Builds::Exactly(n) => times.len() >= n,
        };
        if done {
            return (built, quantile::median(&times));
        }
        drop(built);
    }
}

/// The quantiles the end-to-end latency metrics report.
const QUANTILES: [(&str, f64); 3] = [
    ("op_p50_tick", 0.5),
    ("op_p99_tick", 0.99),
    ("op_p999_tick", 0.999),
];

/// Latency quantiles of one slice, from the samples of all its threads.
pub struct SliceLatency {
    samples: usize,
    /// Banded and nearest-rank value per entry of `QUANTILES`.
    values: [(f64, u32); 3],
}

pub fn slice_latency(samples: &mut [u32]) -> SliceLatency {
    samples.sort_unstable();
    SliceLatency {
        samples: samples.len(),
        values: QUANTILES.map(|(_, p)| {
            (
                quantile::banded(samples, p),
                quantile::nearest_rank(samples, p),
            )
        }),
    }
}

/// Set every end-to-end metric. Each latency quantile is the median over
/// slices of that slice's quantile: interference that hits one slice (a
/// neighbour on a shared host) then moves one of the values the median is
/// taken over, not the tail of a pooled sample.
pub fn end_to_end_metrics(
    out: &mut Outcome,
    tick_per_op: f64,
    slices: &[SliceLatency],
    unit: &str,
    setup_s: f64,
) {
    let (m, notes) = (&mut out.metrics, &mut out.notes);
    m.set("tick_per_op", tick_per_op);
    let fewest = slices.iter().map(|s| s.samples).min().unwrap_or(0);
    for (i, (name, p)) in QUANTILES.iter().enumerate() {
        let banded: Vec<f64> = slices.iter().map(|s| s.values[i].0).collect();
        m.set(name, quantile::median(&banded));
        let exact: Vec<String> = slices.iter().map(|s| s.values[i].1.to_string()).collect();
        notes.push(format!(
            "{name}: nearest rank per slice ({unit}): {}; samples beyond it: {}{}",
            exact.join(" "),
            quantile::samples_beyond(fewest.max(1), *p),
            if quantile::reportable(fewest, *p) {
                ""
            } else {
                " (fewer than 10: run longer)"
            }
        ));
    }
    notes.push(format!(
        "latency samples: {} in {} slices",
        slices.iter().map(|s| s.samples).sum::<usize>(),
        slices.len()
    ));
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", crate::host::peak_rss_mb());
}

/// Every per-layer metric must be printed by every workload; those a
/// workload has no source for read 0 and are listed in a note.
pub fn fill_not_applicable(m: &mut Metrics, notes: &mut Vec<String>) {
    let missing: Vec<&str> = spec::PER_LAYER
        .iter()
        .map(|p| p.name)
        .filter(|n| m.get(n).is_none())
        .collect();
    for n in &missing {
        m.set(n, 0.0);
    }
    if !missing.is_empty() {
        notes.push(format!(
            "no source on this workload, reported as 0: {}",
            missing.join(" ")
        ));
    }
}

/// The engine and contention-manager ratios every workload derives from
/// its `stats_snapshot` movement over the measured window.
pub fn counter_metrics(d: &Counters, m: &mut Metrics) {
    let commits = d[C::Commits];
    m.set(
        "engine.abort_share",
        d.per(C::Aborts, commits + d[C::Aborts]),
    );
    for (name, field) in [
        ("engine.conflicts", C::Conflicts),
        ("engine.wait_steps", C::WaitSteps),
        ("engine.inflations", C::Inflations),
        ("engine.backup_alloc", C::BackupAlloc),
        ("engine.descriptor_alloc", C::DescriptorAlloc),
        ("cm.abort_requests", C::AbortRequestsSent),
    ] {
        m.set(&format!("{name}_per_kcommit"), 1e3 * d.per(field, commits));
    }
    m.set(
        "cm.wait_steps_per_conflict",
        d.per(C::WaitSteps, d[C::Conflicts]),
    );
    m.set("cm.escalations", d[C::CmEscalations] as f64);
}
