//! Spans and counter deltas recorded by the benchmark's own code around
//! its calls into each layer, held in memory and written as JSON lines
//! when the run ends. (Spans inside the crates are a later issue.)
//!
//! File format, one JSON object per line:
//! * a span: `{"id", "parent", "name", "start", "end"}` plus `"thread"`
//!   on sampled operations and `"ops"` on ladder batches (the span covers
//!   that many back-to-back operations). `parent` 0 marks the root. Times
//!   are in the clock the root span names: host nanoseconds since process
//!   start, or simulated cycles of the span's own core.
//! * counters: `{"counters_for": <span id>, <name>: <delta>, ...}` — the
//!   `TmStats` movement between that span's start and end.

use crate::json::Json;
use nztm_core::TmStats;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// The `TmStats` fields the per-layer metrics are made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum C {
    Commits,
    Aborts,
    Conflicts,
    WaitSteps,
    AbortRequestsSent,
    Inflations,
    Reads,
    Acquires,
    AdtOps,
    BackupAlloc,
    DescriptorAlloc,
    CmEscalations,
    HtmCommits,
    HtmAborts,
    HtmConflictAborts,
    HtmCapacityAborts,
    HtmExplicitAborts,
    HtmOtherAborts,
    Fallbacks,
}

const N_COUNTERS: usize = 19;
const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "commits",
    "aborts",
    "conflicts",
    "wait_steps",
    "abort_requests_sent",
    "inflations",
    "reads",
    "acquires",
    "adt_ops",
    "backup_alloc",
    "descriptor_alloc",
    "cm_escalations",
    "htm_commits",
    "htm_aborts",
    "htm_conflict_aborts",
    "htm_capacity_aborts",
    "htm_explicit_aborts",
    "htm_other_aborts",
    "fallbacks",
];

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters([u64; N_COUNTERS]);

impl Counters {
    pub fn of(s: &TmStats) -> Counters {
        Counters([
            s.commits,
            s.aborts(),
            s.conflicts,
            s.wait_steps,
            s.abort_requests_sent,
            s.inflations,
            s.reads,
            s.acquires,
            s.adt_ops,
            s.backup_alloc,
            s.descriptor_alloc,
            s.cm_escalations,
            s.htm_commits,
            s.htm_aborts,
            s.htm_conflict_aborts,
            s.htm_capacity_aborts,
            s.htm_explicit_aborts,
            s.htm_other_aborts,
            s.fallbacks,
        ])
    }

    /// `self - earlier`, field by field (counters only grow).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// `self[field] ÷ denom`, 0 when nothing was counted below the line.
    pub fn per(&self, field: C, denom: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self[field] as f64 / denom as f64
        }
    }
}

impl std::ops::Index<C> for Counters {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    ns_of(Instant::now())
}

/// The same clock, for an instant already taken.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(process_start()).as_nanos() as u64
}

/// One sampled operation as a worker records it: 24 bytes, no allocation
/// per span. The recorder gives it an id and a parent when it is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpan {
    pub kind: u8,
    pub start: u64,
    pub end: u64,
}

struct SpanLine {
    id: u64,
    parent: u64,
    name: String,
    start: u64,
    end: u64,
    ops: Option<u64>,
    /// Set on roots: the clock of the whole subtree.
    clock: Option<&'static str>,
}

struct OpGroup {
    parent: u64,
    thread: usize,
    names: &'static [&'static str],
    spans: Vec<OpSpan>,
}

/// In-memory trace of one run.
pub struct Recorder {
    next_id: u64,
    spans: Vec<SpanLine>,
    counters: Vec<(u64, Counters)>,
    groups: Vec<OpGroup>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            next_id: 1,
            spans: Vec::new(),
            counters: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Reserve an id, so children can name their parent before it ends.
    pub fn new_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn span(&mut self, id: u64, parent: u64, name: &str, start: u64, end: u64) {
        self.spans.push(SpanLine {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
            ops: None,
            clock: None,
        });
    }

    /// A span without a parent. `clock` is `"ns"` (host) or `"cycles"`
    /// (simulated) and holds for every span below it.
    pub fn root(&mut self, id: u64, name: &str, start: u64, end: u64, clock: &'static str) {
        self.spans.push(SpanLine {
            id,
            parent: 0,
            name: name.to_string(),
            start,
            end,
            ops: None,
            clock: Some(clock),
        });
    }

    /// A ladder batch: one span over `ops` back-to-back operations.
    pub fn batch(&mut self, parent: u64, name: &str, start: u64, end: u64, ops: u64) {
        let id = self.new_id();
        self.spans.push(SpanLine {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
            ops: Some(ops),
            clock: None,
        });
    }

    pub fn counters(&mut self, span: u64, delta: Counters) {
        self.counters.push((span, delta));
    }

    /// Store one thread's sampled operations of one slice.
    pub fn ops(
        &mut self,
        parent: u64,
        thread: usize,
        names: &'static [&'static str],
        spans: Vec<OpSpan>,
    ) {
        self.groups.push(OpGroup {
            parent,
            thread,
            names,
            spans,
        });
    }

    /// Durations of the sampled operations, by span name.
    pub fn op_durations(&self) -> Vec<(&'static str, Vec<u32>)> {
        let mut by_name: Vec<(&'static str, Vec<u32>)> = Vec::new();
        for g in &self.groups {
            for s in &g.spans {
                let name = g.names[s.kind as usize];
                let d = (s.end - s.start).min(u32::MAX as u64) as u32;
                match by_name.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => v.push(d),
                    None => by_name.push((name, vec![d])),
                }
            }
        }
        by_name
    }

    pub fn span_count(&self) -> usize {
        self.spans.len() + self.groups.iter().map(|g| g.spans.len()).sum::<usize>()
    }

    /// Write the trace and return where it went.
    pub fn write(mut self, dir: &Path, workload: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}.trace.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let num = |n: u64| Json::Num(n as f64);
        for s in &self.spans {
            let mut fields = vec![
                ("id", num(s.id)),
                ("parent", num(s.parent)),
                ("name", Json::str(&s.name)),
                ("start", num(s.start)),
                ("end", num(s.end)),
            ];
            if let Some(n) = s.ops {
                fields.push(("ops", num(n)));
            }
            if let Some(clock) = s.clock {
                fields.push(("clock", Json::str(clock)));
            }
            writeln!(out, "{}", Json::obj(fields).encode())?;
        }
        for (span, delta) in &self.counters {
            let mut fields = vec![("counters_for", num(*span))];
            fields.extend(COUNTER_NAMES.iter().zip(delta.0).map(|(n, v)| (*n, num(v))));
            writeln!(out, "{}", Json::obj(fields).encode())?;
        }
        for g in std::mem::take(&mut self.groups) {
            for s in g.spans {
                // Hand-formatted: hundreds of thousands of lines.
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"thread\":{}}}",
                    self.next_id, g.parent, g.names[s.kind as usize], s.start, s.end, g.thread
                )?;
                self.next_id += 1;
            }
        }
        out.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_subtract_and_index() {
        let a = TmStats {
            commits: 10,
            reads: 70,
            aborts_self: 2,
            aborts_requested: 1,
            ..TmStats::default()
        };
        let b = TmStats {
            commits: 25,
            reads: 170,
            aborts_self: 4,
            ..a
        };
        let d = Counters::of(&b).since(&Counters::of(&a));
        assert_eq!((d[C::Commits], d[C::Reads], d[C::Aborts]), (15, 100, 2));
        assert_eq!(d.per(C::Reads, d[C::Commits]), 100.0 / 15.0);
        assert_eq!(d.per(C::Reads, 0), 0.0);
        assert_eq!(COUNTER_NAMES[C::Fallbacks as usize], "fallbacks");
        assert_eq!(COUNTER_NAMES[C::AdtOps as usize], "adt_ops");
    }

    #[test]
    fn trace_file_is_parseable_and_parents_resolve() {
        let mut r = Recorder::new();
        let root = r.new_id();
        let slice = r.new_id();
        r.ops(
            slice,
            1,
            &["a.x", "a.y"],
            vec![
                OpSpan {
                    kind: 1,
                    start: 5,
                    end: 9,
                },
                OpSpan {
                    kind: 0,
                    start: 10,
                    end: 11,
                },
            ],
        );
        r.batch(root, "engine.read.k8", 100, 900, 64);
        r.counters(slice, Counters::default());
        r.span(slice, root, "slice", 2, 20);
        r.root(root, "workload:test", 0, 30, "ns");
        assert_eq!(r.op_durations(), vec![("a.y", vec![4]), ("a.x", vec![1])]);
        assert_eq!(r.span_count(), 5);
        let dir = std::env::temp_dir().join(format!("nztm-bench-span-test-{}", std::process::id()));
        let path = r.write(&dir, "test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 6);
        let ids: Vec<f64> = lines.iter().filter_map(|l| l.get("id")?.as_f64()).collect();
        let mut unique = ids.clone();
        unique.sort_by(f64::total_cmp);
        unique.dedup();
        assert_eq!(unique.len(), 5, "span ids are unique");
        for l in &lines {
            if let Some(p) = l.get("parent").and_then(Json::as_f64) {
                assert!(
                    p == 0.0 || ids.contains(&p),
                    "parent {p} is a span in the file"
                );
            }
        }
        let y = lines
            .iter()
            .find(|l| l.get("name").and_then(Json::as_str) == Some("a.y"))
            .unwrap();
        assert_eq!(y.get("thread").unwrap().as_f64(), Some(1.0));
        assert!(lines
            .iter()
            .any(|l| l.get("clock").and_then(Json::as_str) == Some("ns")));
        assert!(lines.iter().any(|l| l.get("counters_for").is_some()));
    }
}
