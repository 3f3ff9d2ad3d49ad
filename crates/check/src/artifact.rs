//! Failure shrinking and replayable artifacts.
//!
//! A failure found by exploration is a `(config, forced-choice prefix)`
//! pair. The shrinker binary-searches the shortest prefix that still
//! fails with the same kind (replaying a truncated prefix continues
//! under the deterministic min-clock rule, so every candidate is a
//! complete, reproducible run). The artifact is a self-contained
//! line-based text file under `results/`; `check_replay` re-runs it and
//! reports whether the failure reproduces.

use crate::explore::{judge, CheckError, Failure};
use crate::harness::{run_config, Backend, CheckConfig, CmKind, Workload};
use nztm_sim::SchedPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A self-contained, replayable failure.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The failing configuration (its `policy` field is ignored; the
    /// schedule is `choices`).
    pub cfg: CheckConfig,
    pub kind: String,
    pub detail: String,
    pub choices: Vec<u32>,
}

impl Artifact {
    /// Package a (possibly shrunk) failure with the config it fails on.
    pub fn new(base: &CheckConfig, failure: &Failure) -> Artifact {
        Artifact {
            cfg: base.clone(),
            kind: failure.kind.clone(),
            detail: failure.detail.clone(),
            choices: failure.choices.clone(),
        }
    }
}

fn fails_with_kind(base: &CheckConfig, choices: &[u32], kind: &str) -> Option<CheckError> {
    let mut cfg = base.clone();
    cfg.policy = SchedPolicy::Replay { choices: Arc::new(choices.to_vec()) };
    let out = run_config(&cfg);
    judge(&cfg, &out).err().filter(|e| e.kind() == kind)
}

/// Shrink a failure to the shortest forced-choice prefix that still
/// fails with the same kind. Failure reproduction is not perfectly
/// monotone in prefix length (truncation changes the continuation), so
/// the binary-search result is verified and the original kept on a
/// non-monotone miss.
pub fn shrink(base: &CheckConfig, failure: &Failure) -> Failure {
    let (mut lo, mut hi) = (0usize, failure.choices.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails_with_kind(base, &failure.choices[..mid], &failure.kind).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    match fails_with_kind(base, &failure.choices[..hi], &failure.kind) {
        Some(e) => Failure {
            kind: failure.kind.clone(),
            detail: e.detail(),
            choices: failure.choices[..hi].to_vec(),
        },
        None => failure.clone(),
    }
}

fn opt_pair<T: std::fmt::Display>(v: &Option<(T, T)>) -> String {
    match v {
        Some((a, b)) => format!("{a}:{b}"),
        None => "none".into(),
    }
}

/// Serialize an artifact to its line-based text form.
pub fn to_text(art: &Artifact) -> String {
    let c = &art.cfg;
    let stall = match c.stall {
        Some((t, n)) => format!("{t}:{n}"),
        None => "none".into(),
    };
    let crash = match c.crash_tid {
        Some(t) => t.to_string(),
        None => "none".into(),
    };
    let choices =
        art.choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "nztm-check failure artifact v1\n\
         backend={}\nworkload={}\ncm={}\nthreads={}\nhw_cores={}\nobjects={}\nops_per_thread={}\n\
         initial={}\npatience={}\nseed={}\nmax_cycles={}\ncrash_tid={}\nstall={}\n\
         inject_handshake_bug={}\npause={}\nyield_points={}\n\
         kind={}\ndetail={}\nchoices={}\n",
        c.backend.name(),
        c.workload.name(),
        c.cm.name(),
        c.threads,
        c.hw_cores,
        c.objects,
        c.ops_per_thread,
        c.initial,
        c.patience,
        c.seed,
        c.max_cycles,
        crash,
        stall,
        c.inject_handshake_bug,
        opt_pair(&c.pause),
        c.yield_points,
        art.kind,
        art.detail.replace('\n', " "),
        choices,
    )
}

/// Parse the text form back into an artifact.
pub fn from_text(text: &str) -> Result<Artifact, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty artifact")?;
    if header != "nztm-check failure artifact v1" {
        return Err(format!("unrecognized artifact header: {header:?}"));
    }
    let mut fields = std::collections::HashMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').ok_or_else(|| format!("bad line: {line:?}"))?;
        fields.insert(k.to_string(), v.to_string());
    }
    let get = |k: &str| fields.get(k).cloned().ok_or_else(|| format!("missing field {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse().map_err(|e| format!("field {k}: {e}"))
    };
    let opt_num = |k: &str| -> Result<Option<u64>, String> {
        let v = get(k)?;
        if v == "none" {
            Ok(None)
        } else {
            v.parse().map(Some).map_err(|e| format!("field {k}: {e}"))
        }
    };
    let pair = |k: &str| -> Result<Option<(u64, u64)>, String> {
        let v = get(k)?;
        if v == "none" {
            return Ok(None);
        }
        let (a, b) = v.split_once(':').ok_or_else(|| format!("field {k}: want a:b"))?;
        Ok(Some((
            a.parse().map_err(|e| format!("field {k}: {e}"))?,
            b.parse().map_err(|e| format!("field {k}: {e}"))?,
        )))
    };
    let backend =
        Backend::parse(&get("backend")?).ok_or_else(|| "unknown backend".to_string())?;
    let workload =
        Workload::parse(&get("workload")?).ok_or_else(|| "unknown workload".to_string())?;
    let choices_raw = get("choices")?;
    let choices: Vec<u32> = if choices_raw.is_empty() {
        Vec::new()
    } else {
        choices_raw
            .split(',')
            .map(|c| c.parse().map_err(|e| format!("choices: {e}")))
            .collect::<Result<_, String>>()?
    };
    // Absent in artifacts written before policy selection existed:
    // those all ran the Karma default.
    let cm = match fields.get("cm") {
        None => CmKind::Karma,
        Some(v) => CmKind::parse(v).ok_or_else(|| format!("unknown cm {v:?}"))?,
    };
    let cfg = CheckConfig {
        backend,
        workload,
        cm,
        threads: num("threads")? as usize,
        // Absent in artifacts written before oversubscription existed:
        // those ran on dedicated machines.
        hw_cores: fields.get("hw_cores").map_or(Ok(0), |v| {
            v.parse().map_err(|e| format!("field hw_cores: {e}"))
        })? as usize,
        objects: num("objects")? as usize,
        ops_per_thread: num("ops_per_thread")? as usize,
        initial: num("initial")?,
        patience: num("patience")?,
        seed: num("seed")?,
        policy: SchedPolicy::Replay { choices: Arc::new(choices.clone()) },
        max_cycles: num("max_cycles")?,
        crash_tid: opt_num("crash_tid")?.map(|t| t as usize),
        stall: pair("stall")?.map(|(t, n)| (t as usize, n)),
        inject_handshake_bug: get("inject_handshake_bug")? == "true",
        pause: pair("pause")?,
        yield_points: get("yield_points")? == "true",
        // Tracing is a replay-time choice, not part of the failure
        // identity, so it is never serialized.
        trace: false,
    };
    Ok(Artifact { cfg, kind: get("kind")?, detail: get("detail")?, choices })
}

/// Write an artifact under `dir`, returning its path.
pub fn write_artifact(dir: &Path, art: &Artifact) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "nztm_check_{}_{}_{}_seed{}_len{}.txt",
        art.kind,
        art.cfg.backend.name(),
        art.cfg.workload.name(),
        art.cfg.seed,
        art.choices.len()
    );
    let path = dir.join(name);
    std::fs::write(&path, to_text(art))?;
    Ok(path)
}

/// Read an artifact file.
pub fn read_artifact(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_text(&text)
}

/// The result of replaying an artifact.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The replay failed with the artifact's kind.
    pub reproduced: bool,
    /// What the replay actually produced ("ok" when it passed).
    pub kind: String,
    pub detail: String,
}

/// Re-run an artifact's schedule and judge it.
pub fn replay(art: &Artifact) -> Result<ReplayReport, String> {
    let mut cfg = art.cfg.clone();
    if cfg.requires_sanitize() && !cfg!(feature = "sanitize") {
        return Err(
            "artifact needs fault injection / pause schedules / protocol-edge yield points: \
             rebuild with `--features sanitize`"
                .into(),
        );
    }
    cfg.policy = SchedPolicy::Replay { choices: Arc::new(art.choices.clone()) };
    let out = run_config(&cfg);
    Ok(match judge(&cfg, &out) {
        Ok(()) => ReplayReport { reproduced: false, kind: "ok".into(), detail: String::new() },
        Err(e) => ReplayReport {
            reproduced: e.kind() == art.kind,
            kind: e.kind().into(),
            detail: e.detail(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_text_round_trips() {
        let cfg = CheckConfig {
            crash_tid: Some(2),
            stall: Some((1, 5000)),
            pause: Some((9, 4)),
            hw_cores: 2,
            ..CheckConfig::transfer(Backend::Scss)
        };
        let art = Artifact {
            cfg,
            kind: "linearizability".into(),
            detail: "no linearization of 7 ops".into(),
            choices: vec![0, 2, 1, 1, 0],
        };
        let back = from_text(&to_text(&art)).unwrap();
        assert_eq!(to_text(&back), to_text(&art));
        assert_eq!(back.choices, art.choices);
        assert_eq!(back.cfg.crash_tid, Some(2));
        assert_eq!(back.cfg.stall, Some((1, 5000)));
        assert_eq!(back.cfg.pause, Some((9, 4)));
        assert_eq!(back.cfg.hw_cores, 2);
    }

    #[test]
    fn artifacts_without_hw_cores_parse_as_dedicated() {
        let art = Artifact {
            cfg: CheckConfig::transfer(Backend::Nzstm),
            kind: "sanitizer".into(),
            detail: "d".into(),
            choices: vec![1],
        };
        let text = to_text(&art)
            .lines()
            .filter(|l| !l.starts_with("hw_cores="))
            .collect::<Vec<_>>()
            .join("\n");
        let back = from_text(&text).unwrap();
        assert_eq!(back.cfg.hw_cores, 0, "pre-oversubscription artifacts ran dedicated");
    }

    #[test]
    fn cm_field_round_trips_and_defaults_to_karma() {
        let art = Artifact {
            cfg: CheckConfig { cm: CmKind::Greedy, ..CheckConfig::transfer(Backend::Nzstm) },
            kind: "conservation".into(),
            detail: "d".into(),
            choices: vec![],
        };
        let back = from_text(&to_text(&art)).unwrap();
        assert_eq!(back.cfg.cm, CmKind::Greedy);
        // Artifacts from before policy selection carry no cm= line and
        // must replay under the Karma default they were found with.
        let text = to_text(&art)
            .lines()
            .filter(|l| !l.starts_with("cm="))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(from_text(&text).unwrap().cfg.cm, CmKind::Karma);
        assert!(from_text(&to_text(&art).replace("cm=greedy", "cm=bogus")).is_err());
    }

    #[test]
    fn unknown_header_is_rejected() {
        assert!(from_text("something else\n").is_err());
    }
}
