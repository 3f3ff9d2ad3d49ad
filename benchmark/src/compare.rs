//! `compare <a> <b>`: do two result sets agree within the bounds
//! `BENCHMARK.json` fixes? A result set is a file of result records, one
//! JSON object per line, as `run --out <file>` appends them.

use crate::json::{self, Json};
use crate::quantile;
use crate::spec::Better;

#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics and their bounds, read from `BENCHMARK.json`.
pub fn bounds_from_spec(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// `(workload, metric) -> values`, in first-seen order, from the untraced
/// records of one result set; and whether every record was correct.
pub struct ResultSet {
    pub values: Vec<((String, String), Vec<f64>)>,
    pub incorrect: Vec<String>,
}

pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        values: Vec::new(),
        incorrect: Vec::new(),
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("header")
            .and_then(|h| h.get("workload"))
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no header.workload", i + 1))?;
        let result = rec
            .get("result")
            .ok_or(format!("line {}: no result", i + 1))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect.push(format!("{workload} (line {})", i + 1));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", i + 1))?;
            let key = (workload.to_string(), name.clone());
            match set.values.iter_mut().find(|(k, _)| *k == key) {
                Some((_, vs)) => vs.push(v),
                None => set.values.push((key, vec![v])),
            }
        }
    }
    Ok(set)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, and the sets overlap.
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b`'s median is, as a share of `a`'s (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub identical: bool,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, f64, Verdict) {
    let (ma, mb) = (quantile::median(a), quantile::median(b));
    let sign = if bound.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let spread = quantile::spread(a).max(quantile::spread(b));
    let verdict = if spread > bound.bound {
        // Too noisy to call, unless every run of b beats every run of a.
        let b_always_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
        if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// One row per (workload, end-to-end metric) present in both sets.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), av) in &a.values {
        let Some(bound) = bounds.iter().find(|x| x.name == *metric) else {
            continue;
        };
        let Some((_, bv)) = b
            .values
            .iter()
            .find(|((w, m), _)| w == workload && m == metric)
        else {
            continue;
        };
        let (worse_by, spread, verdict) = judge(av, bv, bound);
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: quantile::median(av),
            b: quantile::median(bv),
            worse_by,
            spread,
            bound: bound.bound,
            identical: av.iter().chain(bv).all(|v| *v == av[0]),
            verdict,
        });
    }
    rows
}

/// Print the table; `Ok(true)` when nothing is worse and every record of
/// both sets was correct.
pub fn run(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = json::parse(&read(spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let bounds = bounds_from_spec(&spec)?;
    let a = parse_set(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = parse_set(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let rows = compare(&a, &b, &bounds);
    if rows.is_empty() {
        return Err("the two sets share no (workload, end-to-end metric) pair".into());
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Ok if r.identical => "ok (identical)",
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound
        );
    }
    for (path, set) in [(a_path, &a), (b_path, &b)] {
        for w in &set.incorrect {
            println!("{path}: incorrect run of {w}");
        }
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {} ok, {worse} worse, {unresolved} unresolved",
        rows.len(),
        rows.len() - worse - unresolved
    );
    Ok(worse == 0 && a.incorrect.is_empty() && b.incorrect.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Within the bound.
        assert_eq!(judge(&[100.0], &[107.0], &lower(0.08)).2, Verdict::Ok);
        // Beyond it.
        assert_eq!(judge(&[100.0], &[109.0], &lower(0.08)).2, Verdict::Worse);
        // Better is never worse.
        assert_eq!(judge(&[100.0], &[50.0], &lower(0.08)).2, Verdict::Ok);
        // Higher-is-better flips the sign.
        let higher = Bound {
            name: "m".into(),
            better: Better::Higher,
            bound: 0.08,
        };
        assert_eq!(judge(&[100.0], &[91.0], &higher).2, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[109.0], &higher).2, Verdict::Ok);
        // Spread wider than the bound: unresolved, though the medians differ by 30 %...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(&noisy, &shifted, &lower(0.08)).2, Verdict::Unresolved);
        // ...unless every run of b beats every run of a.
        let faster: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(judge(&noisy, &faster, &lower(0.08)).2, Verdict::Ok);
    }

    #[test]
    fn spec_bounds_parse_and_malformed_specs_are_errors() {
        let bounds = bounds_from_spec(&crate::spec::benchmark_json()).unwrap();
        assert_eq!(bounds.len(), crate::spec::END_TO_END.len());
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && b.better == Better::Lower));
        assert!(bounds_from_spec(&Json::obj(vec![])).is_err());
        let bad = json::parse(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}"#)
            .unwrap();
        assert!(bounds_from_spec(&bad).is_err());
        assert!(parse_set("{\"header\":{}}").is_err());
        assert!(parse_set("not json").is_err());
    }
}
