//! Figure output: the same rows/series the paper plots, as text tables
//! and machine-readable JSON (hand-rolled writer — the schema is four
//! nested structs; a serialization framework would be the only external
//! dependency in the workspace).

use nztm_core::ObjectHeat;

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Cell {
    pub threads: usize,
    /// Raw throughput (ops per cycle or per nanosecond).
    pub raw: f64,
    /// Normalized throughput (the figure's y-axis).
    pub norm: f64,
    pub commits: u64,
    pub aborts: u64,
    pub abort_rate: f64,
    /// Hardware-commit share (hybrid systems; 0 otherwise).
    pub htm_share: f64,
    pub inflations: u64,
    /// Per-object contention attribution from the flight recorder
    /// (empty unless tracing was armed, e.g. `NZTM_BENCH_TRACE=1`).
    pub hotspots: Vec<ObjectHeat>,
}

/// One line in a sub-plot: a system measured across thread counts.
#[derive(Clone, Debug)]
pub struct Series {
    pub system: String,
    pub cells: Vec<Cell>,
}

/// One sub-plot (a workload) of a figure.
#[derive(Clone, Debug)]
pub struct Panel {
    pub workload: String,
    pub series: Vec<Series>,
}

/// A whole figure.
#[derive(Clone, Debug)]
pub struct FigureReport {
    pub figure: String,
    pub normalization: String,
    pub panels: Vec<Panel>,
}

/// Minimal JSON string escaping (the only non-trivial JSON the writer
/// needs; all other values are numbers).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite floats print as-is; non-finite map to null (JSON
/// has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Cell {
    fn to_json(&self, out: &mut String, indent: &str) {
        use std::fmt::Write;
        write!(
            out,
            "{indent}{{ \"threads\": {}, \"raw\": {}, \"norm\": {}, \"commits\": {}, \
             \"aborts\": {}, \"abort_rate\": {}, \"htm_share\": {}, \"inflations\": {}",
            self.threads,
            json_f64(self.raw),
            json_f64(self.norm),
            self.commits,
            self.aborts,
            json_f64(self.abort_rate),
            json_f64(self.htm_share),
            self.inflations
        )
        .unwrap();
        if !self.hotspots.is_empty() {
            write!(out, ", \"hotspots\": [").unwrap();
            for (i, h) in self.hotspots.iter().enumerate() {
                write!(
                    out,
                    "{}{{ \"addr\": {}, \"conflicts\": {}, \"waits\": {}, \
                     \"inflations\": {}, \"acquires\": {} }}",
                    if i > 0 { ", " } else { "" },
                    h.addr,
                    h.conflicts,
                    h.waits,
                    h.inflations,
                    h.acquires
                )
                .unwrap();
            }
            write!(out, "]").unwrap();
        }
        write!(out, " }}").unwrap();
    }
}

impl FigureReport {
    /// Render as the text analogue of the paper's figure: one table per
    /// workload panel, columns = thread counts, rows = systems,
    /// values = normalized throughput.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "==== {} (normalized to {}) ====", self.figure, self.normalization).unwrap();
        for p in &self.panels {
            writeln!(out, "\n--- {} ---", p.workload).unwrap();
            let threads: Vec<usize> =
                p.series.first().map(|s| s.cells.iter().map(|c| c.threads).collect()).unwrap_or_default();
            write!(out, "{:<12}", "system").unwrap();
            for t in &threads {
                write!(out, "{t:>9}").unwrap();
            }
            writeln!(out).unwrap();
            for s in &p.series {
                write!(out, "{:<12}", s.system).unwrap();
                for c in &s.cells {
                    write!(out, "{:>9.2}", c.norm).unwrap();
                }
                writeln!(out).unwrap();
            }
            // Abort-rate annotation row per system (the §4.4 text claims).
            for s in &p.series {
                write!(out, "{:<12}", format!("  ar {}", s.system)).unwrap();
                for c in &s.cells {
                    write!(out, "{:>8.1}%", c.abort_rate * 100.0).unwrap();
                }
                writeln!(out).unwrap();
            }
            // Per-object contention attribution from the flight
            // recorder, taken at each system's highest thread count
            // (present only when tracing was armed).
            for s in &p.series {
                let Some(c) = s.cells.last().filter(|c| !c.hotspots.is_empty()) else {
                    continue;
                };
                writeln!(out, "  hottest objects, {} @ {} threads:", s.system, c.threads)
                    .unwrap();
                for h in &c.hotspots {
                    writeln!(
                        out,
                        "    obj@{:#x}: {} conflicts, {} waits, {} inflations, {} acquires",
                        h.addr, h.conflicts, h.waits, h.inflations, h.acquires
                    )
                    .unwrap();
                }
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"figure\": {},", json_str(&self.figure)).unwrap();
        writeln!(out, "  \"normalization\": {},", json_str(&self.normalization)).unwrap();
        writeln!(out, "  \"panels\": [").unwrap();
        for (pi, p) in self.panels.iter().enumerate() {
            writeln!(out, "    {{").unwrap();
            writeln!(out, "      \"workload\": {},", json_str(&p.workload)).unwrap();
            writeln!(out, "      \"series\": [").unwrap();
            for (si, s) in p.series.iter().enumerate() {
                writeln!(out, "        {{").unwrap();
                writeln!(out, "          \"system\": {},", json_str(&s.system)).unwrap();
                writeln!(out, "          \"cells\": [").unwrap();
                for (ci, c) in s.cells.iter().enumerate() {
                    c.to_json(&mut out, "            ");
                    writeln!(out, "{}", if ci + 1 < s.cells.len() { "," } else { "" }).unwrap();
                }
                writeln!(out, "          ]").unwrap();
                writeln!(out, "        }}{}", if si + 1 < p.series.len() { "," } else { "" })
                    .unwrap();
            }
            writeln!(out, "      ]").unwrap();
            writeln!(out, "    }}{}", if pi + 1 < self.panels.len() { "," } else { "" }).unwrap();
        }
        writeln!(out, "  ]").unwrap();
        write!(out, "}}").unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> FigureReport {
        FigureReport {
            figure: "Figure X".into(),
            normalization: "1-thread demo".into(),
            panels: vec![Panel {
                workload: "demo-w".into(),
                series: vec![Series {
                    system: "SYS".into(),
                    cells: vec![Cell {
                        threads: 1,
                        raw: 0.5,
                        norm: 1.0,
                        commits: 10,
                        aborts: 1,
                        abort_rate: 1.0 / 11.0,
                        htm_share: 0.0,
                        inflations: 0,
                        hotspots: vec![ObjectHeat {
                            addr: 0x40,
                            conflicts: 3,
                            waits: 2,
                            inflations: 1,
                            deflations: 0,
                            acquires: 7,
                        }],
                    }],
                }],
            }],
        }
    }

    #[test]
    fn text_render_contains_values() {
        let r = demo().render_text();
        assert!(r.contains("demo-w"));
        assert!(r.contains("SYS"));
        assert!(r.contains("1.00"));
        assert!(r.contains("9.1%"));
        assert!(r.contains("hottest objects, SYS @ 1 threads:"));
        assert!(r.contains("obj@0x40: 3 conflicts"));
    }

    #[test]
    fn json_contains_structure() {
        let j = demo().to_json();
        assert!(j.contains("\"figure\": \"Figure X\""));
        assert!(j.contains("\"workload\": \"demo-w\""));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"commits\": 10"));
        assert!(j.contains("\"hotspots\": [{ \"addr\": 64, \"conflicts\": 3"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_strings_and_nonfinite() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
