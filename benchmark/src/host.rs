//! What the run ran on: the result header (ROADMAP 2a) and the process's
//! memory readings.

use crate::json::Json;
use std::process::Command;

/// Cargo features of the crates under test. The benchmark has no
/// features of its own; it builds every crate with its defaults, which
/// is `stats` (the hot-path counters the per-layer metrics read) and
/// nothing else — no `trace`, `sanitize` or `htm-native`.
pub const FEATURES: &str = "stats";

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads when `--threads` is not given.
pub fn default_threads() -> usize {
    nproc().min(4)
}

fn colon_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// The header printed before every result and stored with it.
pub fn header(workload: &str, seed: u64, threads: usize, plan: &str) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = colon_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into());
    let rtm = colon_field(&cpuinfo, "flags")
        .map(|f| f.split_whitespace().any(|w| w == "rtm"))
        .unwrap_or(false);
    // A driver's checkout is not a git repository; say so rather than fail.
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("threads", Json::Num(threads as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(model)),
        ("cpu_rtm_flag", Json::Bool(rtm)),
        ("rustc", Json::Str(rustc)),
        ("git_commit", Json::Str(commit)),
        ("cargo_features", Json::str(FEATURES)),
        ("slice_plan", Json::str(plan)),
    ])
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let v = colon_field(&status, key)?;
    v.split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Current resident set in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS").unwrap_or(0.0) * 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colon_fields_parse() {
        let text = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nflags\t\t: fpu rtm sse\n";
        assert_eq!(
            colon_field(text, "model name").unwrap(),
            "Some CPU @ 2.10GHz"
        );
        assert!(colon_field(text, "flags")
            .unwrap()
            .split_whitespace()
            .any(|w| w == "rtm"));
        assert!(colon_field(text, "absent").is_none());
    }

    #[test]
    fn header_names_the_host_and_the_plan() {
        let h = header("kv-zipf", 7, 2, "1 s warm-up + 6 x 2 s");
        for key in [
            "nproc",
            "cpu_model",
            "cpu_rtm_flag",
            "rustc",
            "git_commit",
            "cargo_features",
            "threads",
            "seed",
            "slice_plan",
        ] {
            assert!(h.get(key).is_some(), "header lacks {key}");
        }
        assert!(default_threads() <= nproc() && default_threads() <= 4);
    }
}
