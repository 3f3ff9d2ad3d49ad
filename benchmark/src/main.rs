//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! nztm-benchmark run --workload <name> --seed <u64> [--seconds N] [--trace [0|1]]
//!                    [--threads N] [--out <file>] [--out-dir <dir>] [--break-oracle]
//! nztm-benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
//! nztm-benchmark spec | metrics
//! ```

mod compare;
mod host;
mod json;
mod ladder;
mod native;
mod quantile;
mod run;
mod simwl;
mod span;
mod spec;
#[cfg(test)]
mod tests;
mod workloads;

use json::Json;
use run::{Outcome, RunCfg};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  nztm-benchmark run --workload <name> --seed <u64> [--seconds N] [--trace [0|1]] [--threads N]
                     [--out <file>] [--out-dir <dir>] [--break-oracle]
  nztm-benchmark compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
  nztm-benchmark spec      (print BENCHMARK.json)
  nztm-benchmark metrics   (print every metric with what it should move)";

fn main() -> ExitCode {
    span::now_ns(); // start the span clock
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().encode_pretty());
            Ok(true)
        }
        Some("metrics") => {
            print!("{}", spec::metrics_table());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed arguments: flag values by name (bare flags map to `None`) and
/// the positional arguments.
struct Flags {
    named: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// `valued` flags take the next argument; `optional` ones take it only
    /// when it is `0` or `1` (`--trace` alone means `--trace 1`).
    fn parse(
        args: &[String],
        valued: &[&str],
        optional: &[&str],
        bare: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            named: Vec::new(),
            positional: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            i += 1;
            if valued.contains(&a) {
                let v = args.get(i).ok_or(format!("{a} needs a value\n{USAGE}"))?;
                flags.named.push((a.to_string(), Some(v.clone())));
                i += 1;
            } else if optional.contains(&a) {
                let v = args.get(i).filter(|v| *v == "0" || *v == "1").cloned();
                i += v.is_some() as usize;
                flags.named.push((a.to_string(), v));
            } else if bare.contains(&a) {
                flags.named.push((a.to_string(), None));
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}\n{USAGE}"));
            } else {
                flags.positional.push(a.to_string());
            }
        }
        Ok(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.named.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name}: {v:?} is not a whole number"))
            })
            .transpose()
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--spec"], &[], &[])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    compare::run(a, b, flags.value("--spec").unwrap_or("BENCHMARK.json"))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--threads",
            "--out",
            "--out-dir",
        ],
        &["--trace"],
        &["--break-oracle"],
    )?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "unexpected argument {:?}\n{USAGE}",
            flags.positional[0]
        ));
    }
    let name = flags
        .value("--workload")
        .ok_or(format!("--workload is required\n{USAGE}"))?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of: {}", names.join(" "))
    })?;
    let seed = flags
        .number("--seed")?
        .ok_or(format!("--seed is required\n{USAGE}"))?;
    let seconds = flags.number("--seconds")?.unwrap_or(spec::RUN_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: from 1 to 60"));
    }
    let threads = flags
        .number("--threads")?
        .map(|n| n as usize)
        .unwrap_or_else(host::default_threads);
    if threads == 0 || threads > host::nproc() {
        // An oversubscribed number means something else; do not emit one.
        return Err(format!(
            "--threads {threads} refused: this host has nproc = {}",
            host::nproc()
        ));
    }
    let trace = flags.has("--trace") && flags.value("--trace") != Some("0");
    let out_dir = flags
        .value("--out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // From a checkout root the package is `benchmark/`; from inside it, `.`.
            if std::path::Path::new("benchmark/Cargo.toml").exists() {
                "benchmark/out".into()
            } else {
                "out".into()
            }
        });
    let cfg = RunCfg {
        workload,
        seed,
        seconds,
        trace,
        threads,
        break_oracle: flags.has("--break-oracle"),
        out_dir,
    };

    let (slices, slice) = native::slice_plan(seconds);
    let plan = if workload.simulated {
        format!(
            "{} simulated cores; operation count fixed by --seconds {seconds}",
            simwl::CORES
        )
    } else {
        format!(
            "{:?} warm-up + {slices} x {slice:?}, 1 op in 8 timed{}",
            native::WARMUP,
            if trace { ", odd slices traced" } else { "" }
        )
    };
    let used = if workload.simulated {
        simwl::CORES
    } else {
        threads
    };
    let header = host::header(workload.name, seed, used, &plan);
    println!(
        "# nztm-benchmark {} ({})",
        workload.name,
        if trace {
            "traced run: per-layer metrics"
        } else {
            "end-to-end metrics"
        }
    );
    for (k, v) in header.as_obj().expect("header is an object") {
        println!(
            "# {k}: {}",
            v.as_str().map(str::to_string).unwrap_or_else(|| v.encode())
        );
    }

    let outcome = execute(&cfg);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for e in &outcome.errors {
        println!("# ORACLE FAILED: {e}");
    }
    let result = result_json(&outcome, trace);
    for (name, m) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
    {
        let (value, unit) = (
            m.get("value").and_then(Json::as_f64),
            m.get("unit").and_then(Json::as_str),
        );
        println!(
            "{name:<36} {:>16.4} {}",
            value.expect("value"),
            unit.expect("unit")
        );
    }
    if let Some(path) = flags.value("--out") {
        let record = record_json(header, trace, result.clone());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", record.encode()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.encode());
    Ok(outcome.correct())
}

/// The contract's result object: the declared metrics of this kind of
/// run, in declaration order.
fn result_json(outcome: &Outcome, trace: bool) -> Json {
    let declared: Vec<(&str, &str)> = if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = declared
        .into_iter()
        // A failed run may stop before it has measured anything.
        .filter_map(|(name, unit)| Some((name, unit, outcome.metrics.get(name)?)))
        .map(|(name, unit, v)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One line of a result set (`--out`), as `compare` reads it.
fn record_json(header: Json, trace: bool, result: Json) -> Json {
    Json::obj(vec![
        ("header", header),
        ("trace", Json::Bool(trace)),
        ("result", result),
    ])
}

/// Run the workload; for a traced run add the ladder probe and write the
/// span file.
fn execute(cfg: &RunCfg) -> Outcome {
    // First of all, while the heap is untouched (see `alloc_probe`).
    let alloc = cfg.trace.then(ladder::alloc_probe);
    let (mut out, mut rec) = match cfg.workload.name {
        "kv-zipf" => native::run::<workloads::KvZipf>(cfg),
        "tds-mix" => native::run::<workloads::TdsMix>(cfg),
        "txn-write" => native::run::<workloads::TxnWrite>(cfg),
        "hybrid-kv-sim" => simwl::run::<simwl::HybridKv>(cfg),
        "hybrid-bank-sim" => simwl::run::<simwl::HybridBank>(cfg),
        other => unreachable!("{other} is declared in spec::WORKLOADS but has no runner"),
    };
    let Some(alloc) = alloc else { return out };
    if !out.correct() {
        return out;
    }
    ladder::run(cfg, &mut rec, alloc, &mut out.metrics);
    run::fill_not_applicable(&mut out.metrics, &mut out.notes);
    for (name, mut d) in rec.op_durations() {
        d.sort_unstable();
        out.notes.push(format!(
            "span {name}: n = {}, p50 = {:.0}, p99 = {:.0}",
            d.len(),
            quantile::banded(&d, 0.5),
            quantile::banded(&d, 0.99)
        ));
    }
    let spans = rec.span_count();
    match rec.write(&cfg.out_dir, cfg.workload.name) {
        Ok(path) => out
            .notes
            .push(format!("trace: {spans} spans in {}", path.display())),
        Err(e) => out.errors.push(format!("trace file not written: {e}")),
    }
    out
}
