//! Annotated failure timelines from flight-recorder traces.
//!
//! A failure artifact names a config and a forced-choice schedule; this
//! module re-runs it with the engine flight recorder armed and renders
//! the merged trace as a human-readable timeline — every line names the
//! transactions (`t<thread>#<serial>`) and objects (`obj#<i>`) involved,
//! with scheduler decisions interleaved in the same logical-clock
//! column. The same trace exports to Chrome `trace_event` JSON for
//! Perfetto via [`nztm_core::Trace::to_chrome_trace`].

use crate::artifact::Artifact;
use crate::explore::judge;
use crate::harness::{run_config, RunOutcome};
use nztm_sim::SchedPolicy;
use std::fmt::Write as _;
use std::sync::Arc;

/// Map a trace-event object address to `obj#<i>` using the run's
/// allocation-order address table (falls back to the raw address for
/// objects outside the workload set).
pub fn object_namer(obj_addrs: &[u64]) -> impl FnMut(u64) -> String + '_ {
    move |addr: u64| match obj_addrs.iter().position(|&a| a == addr) {
        Some(i) => format!("obj#{i}"),
        None => format!("obj@{addr:#x}"),
    }
}

/// Render a run's merged trace as one annotated line per event:
/// `clock  [thread]  description`. Returns an explanatory placeholder
/// when the trace is empty (tracing disarmed).
pub fn render_timeline(out: &RunOutcome) -> String {
    if out.trace.is_empty() {
        return "(no trace events captured — the run had tracing disarmed)\n".to_string();
    }
    let mut s = String::with_capacity(out.trace.events.len() * 48);
    if out.trace.overwritten > 0 {
        let _ = writeln!(
            s,
            "# {} older events lost to ring overwrite — timeline starts mid-run",
            out.trace.overwritten
        );
    }
    let mut namer = object_namer(&out.obj_addrs);
    for e in &out.trace.events {
        let _ = writeln!(s, "{:>10}  [t{}]  {}", e.clock, e.thread, e.describe(&mut namer));
    }
    let hot = out.trace.hottest_objects(4);
    if !hot.is_empty() {
        let _ = writeln!(s, "#\n# hottest objects:");
        for h in hot {
            let _ = writeln!(
                s,
                "#   {}: {} conflicts, {} waits, {} inflations, {} acquires",
                namer(h.addr),
                h.conflicts,
                h.waits,
                h.inflations,
                h.acquires
            );
        }
    }
    s
}

/// A replayed artifact with its annotated timeline.
#[derive(Clone, Debug)]
pub struct TimelineReport {
    /// The replay failed with the artifact's kind.
    pub reproduced: bool,
    /// What the replay produced ("ok" when it passed).
    pub kind: String,
    pub detail: String,
    /// The annotated text timeline (see [`render_timeline`]).
    pub timeline: String,
    /// The full run outcome, for Perfetto export
    /// (`outcome.trace.to_chrome_trace()`) or further digging.
    pub outcome: RunOutcome,
}

/// Re-run an artifact's forced-choice schedule with the flight recorder
/// armed and render the result as an annotated timeline.
pub fn render_artifact(art: &Artifact) -> TimelineReport {
    let mut cfg = art.cfg.clone();
    cfg.policy = SchedPolicy::Replay { choices: Arc::new(art.choices.clone()) };
    cfg.trace = true;
    let out = run_config(&cfg);
    let (kind, detail) = match judge(&cfg, &out) {
        Ok(()) => ("ok".to_string(), String::new()),
        Err(e) => (e.kind().to_string(), e.detail()),
    };
    TimelineReport {
        reproduced: kind == art.kind,
        kind,
        detail,
        timeline: render_timeline(&out),
        outcome: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Backend, CheckConfig};

    #[test]
    fn traced_replay_produces_a_consistent_outcome() {
        // Arming the recorder must not change the run itself: same
        // history and finals as the untraced run of the same config.
        let base = CheckConfig::transfer(Backend::Nzstm);
        let plain = run_config(&base);
        let traced = run_config(&CheckConfig { trace: true, ..base.clone() });
        assert_eq!(plain.final_values, traced.final_values);
        assert_eq!(plain.ops.len(), traced.ops.len());
        assert_eq!(traced.obj_addrs.len(), base.objects);
    }

    #[test]
    fn timeline_names_transactions_and_objects() {
        let cfg = CheckConfig { trace: true, ..CheckConfig::transfer(Backend::Nzstm) };
        let out = run_config(&cfg);
        assert!(!out.trace.is_empty(), "tracing was armed");
        out.trace.check_well_formed().expect("merged trace is well-formed");
        // Scheduler decisions landed in the same timeline.
        assert!(out
            .trace
            .events
            .iter()
            .any(|e| e.kind == nztm_core::EventKind::SchedSwitch));
        let text = render_timeline(&out);
        assert!(text.contains("t0#"), "transaction names rendered: {text}");
        assert!(text.contains("commit"), "commits rendered: {text}");
        // The Chrome export is loadable JSON with balanced spans.
        let json = out.trace.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), json.matches("\"ph\":\"E\"").count());
    }

    #[test]
    fn all_four_backends_emit_merged_traces() {
        for b in crate::harness::BACKENDS {
            let cfg = CheckConfig { trace: true, ..CheckConfig::transfer(b) };
            let out = run_config(&cfg);
            assert!(!out.trace.is_empty(), "{}: no events", b.name());
            out.trace
                .check_well_formed()
                .unwrap_or_else(|e| panic!("{}: malformed trace: {e}", b.name()));
            for w in out.trace.events.windows(2) {
                assert!(w[0].clock <= w[1].clock, "{}: out of time order", b.name());
            }
        }
    }
}
