//! Flight recorder: per-thread transaction event tracing.
//!
//! The paper's §4.4 narrative is a *timeline* narrative — which
//! transactions aborted, when objects inflated, how often the hybrid fell
//! back to software — but quiescent counters ([`crate::TmStats`]) can only
//! say how *often*, never *when* or *where*. The flight recorder closes
//! that gap: each thread appends fixed-size binary [`TraceEvent`] records
//! into a private overwrite-oldest ring ([`TraceRing`]), and after a run
//! the rings are drained and merged into one time-ordered [`Trace`] that
//! exports to Chrome `trace_event` format (loadable in Perfetto /
//! `chrome://tracing`).
//!
//! ## Cost model
//!
//! The recorder is compiled into every build, but the engines only
//! *record* once tracing is armed at run time
//! ([`crate::TmSys::set_tracing`]). Disarmed, a hot-path hook costs one
//! relaxed load and its ring holds no memory: a [`TraceRing`] grows its
//! buffer as it records, up to its capacity.
//!
//! ## Clock domain
//!
//! Events carry the owning platform's clock
//! ([`nztm_sim::Platform::now`]): logical cycles on the simulator —
//! the *same* clock the scheduler's decision trace uses, which is what
//! lets `nztm-check` interleave [`EventKind::SchedSwitch`] markers into a
//! failure timeline — and nanoseconds on native.

use std::collections::HashMap;

use crate::txn::AbortCause;

/// Per-thread ring capacity in events (overwrite-oldest beyond this),
/// shared by every recorder in the workspace. A ring reserves memory only
/// as it records.
pub const RING_CAPACITY: usize = 1 << 16;

/// Record a flight-recorder event into `$ctx.ring`. Recording requires
/// runtime arming (`$sys.trace_on`) and costs one relaxed load when
/// disarmed; the payload expressions are not evaluated unless armed.
macro_rules! trace_evt {
    ($sys:expr, $ctx:expr, $tid:expr, $kind:ident, $a:expr, $b:expr) => {{
        if $sys.trace_on.load(std::sync::atomic::Ordering::Relaxed) {
            let clock = $sys.platform.now();
            $ctx.ring.record(clock, $tid as u16, crate::trace::EventKind::$kind, $a, $b);
        }
    }};
}
pub(crate) use trace_evt;

/// What happened. Each variant documents how the generic payload words
/// `a` and `b` of its [`TraceEvent`] are interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction attempt began. `a` = serial.
    TxnBegin = 0,
    /// The attempt committed. `a` = serial.
    TxnCommit = 1,
    /// The attempt aborted. `a` = serial, `b` = [`AbortCause::code`].
    TxnAbort = 2,
    /// An object was acquired for writing. `a` = object address
    /// (`NZHeader::addr`), `b` = serial.
    Acquire = 3,
    /// A conflict with another transaction was observed on an object.
    /// `a` = object address, `b` = packed peer identity ([`pack_txn`]).
    Conflict = 4,
    /// The conflict was resolved by waiting (first wait per resolution
    /// call). `a` = object address, `b` = packed peer identity.
    Wait = 5,
    /// The object was inflated to a DSTM-style locator (NZSTM §2.3.1).
    /// `a` = object address, `b` = packed identity of the unresponsive
    /// owner.
    Inflate = 6,
    /// The object was deflated back to zero-indirection. `a` = object
    /// address, `b` = serial of the deflating transaction.
    Deflate = 7,
    /// An SCSS-wrapped store ran (§2.3.2). `a` = 1 on success, 0 when the
    /// store observed its own AbortNowPlease. `b` = serial.
    ScssStore = 8,
    /// The hybrid started a hardware attempt. `a` = attempt index within
    /// this logical transaction (0-based).
    HtmAttempt = 9,
    /// The hardware attempt committed. `a` = attempt index.
    HtmCommit = 10,
    /// The hardware attempt aborted. `a` = attempt index; `b` = CPS
    /// reason class (0 conflict, 1 capacity, 2 other, 3 explicit).
    HtmAbort = 11,
    /// The hybrid gave up on hardware and fell back to software. `a` =
    /// hardware attempts consumed.
    HtmFallback = 12,
    /// The simulated scheduler handed the run token to a core. `thread` =
    /// `a` = the chosen core. Injected by [`Trace::merge_schedule`].
    SchedSwitch = 13,
    /// An ADT-level operation descriptor published by a transactional
    /// data structure (see [`crate::adt::AdtOpDesc`] and
    /// [`crate::TmSys::note_adt_op`]). `a` = the operation key,
    /// `b` = [`crate::adt::AdtOpDesc::pack`] (structure id + op kind).
    AdtOp = 16,
    /// A NOrec value-validation pass started (full read-log scan).
    /// `a` = the snapshot clock being validated from, `b` = read-set
    /// size (locations scanned).
    NorecValidate = 17,
    /// A NOrec validation pass succeeded with a newer clock, extending
    /// the snapshot. `a` = old snapshot, `b` = new snapshot.
    NorecExtend = 18,
}

impl EventKind {
    /// Stable snake_case name used by the JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxnBegin => "txn_begin",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::Acquire => "acquire",
            EventKind::Conflict => "conflict",
            EventKind::Wait => "wait",
            EventKind::Inflate => "inflate",
            EventKind::Deflate => "deflate",
            EventKind::ScssStore => "scss_store",
            EventKind::HtmAttempt => "htm_attempt",
            EventKind::HtmCommit => "htm_commit",
            EventKind::HtmAbort => "htm_abort",
            EventKind::HtmFallback => "htm_fallback",
            EventKind::SchedSwitch => "sched_switch",
            EventKind::AdtOp => "adt_op",
            EventKind::NorecValidate => "norec_validate",
            EventKind::NorecExtend => "norec_extend",
        }
    }
}

/// Pack a peer transaction's identity into one payload word:
/// thread id in the top 16 bits, serial (truncated to 48 bits) below.
pub fn pack_txn(thread: usize, serial: u64) -> u64 {
    ((thread as u64 & 0xFFFF) << 48) | (serial & 0x0000_FFFF_FFFF_FFFF)
}

/// Inverse of [`pack_txn`].
pub fn unpack_txn(word: u64) -> (usize, u64) {
    ((word >> 48) as usize, word & 0x0000_FFFF_FFFF_FFFF)
}

/// Render a transaction identity as `t<thread>#<serial>`.
pub fn txn_name(thread: usize, serial: u64) -> String {
    format!("t{thread}#{serial}")
}

/// One fixed-size binary event record (32 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Platform clock at record time (sim: logical cycles; native: ns).
    pub clock: u64,
    /// First payload word; meaning depends on [`EventKind`].
    pub a: u64,
    /// Second payload word; meaning depends on [`EventKind`].
    pub b: u64,
    /// Per-thread record sequence number: breaks clock ties so a merged
    /// trace preserves each thread's program order.
    pub seq: u32,
    /// Recording thread (sim core id / registered native thread id).
    pub thread: u16,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Merged-trace ordering key: time, then thread, then program order.
    fn key(&self) -> (u64, u16, u32) {
        (self.clock, self.thread, self.seq)
    }

    /// Human-readable one-liner. `obj_name` maps an object address to a
    /// display name (e.g. `obj#3`); pass `|a| format!("obj@{a:#x}")` when
    /// no allocation map is available.
    pub fn describe(&self, obj_name: &mut dyn FnMut(u64) -> String) -> String {
        let me = |serial: u64| txn_name(self.thread as usize, serial);
        let peer = |word: u64| {
            let (t, s) = unpack_txn(word);
            txn_name(t, s)
        };
        match self.kind {
            EventKind::TxnBegin => format!("{} begin", me(self.a)),
            EventKind::TxnCommit => format!("{} commit", me(self.a)),
            EventKind::TxnAbort => {
                let cause =
                    AbortCause::from_code(self.b).map(AbortCause::name).unwrap_or("unknown");
                format!("{} abort ({cause})", me(self.a))
            }
            EventKind::Acquire => format!("{} acquires {}", me(self.b), obj_name(self.a)),
            EventKind::Conflict => {
                format!("conflict on {} with {}", obj_name(self.a), peer(self.b))
            }
            EventKind::Wait => format!("waits for {} on {}", peer(self.b), obj_name(self.a)),
            EventKind::Inflate => {
                format!("inflates {} (unresponsive {})", obj_name(self.a), peer(self.b))
            }
            EventKind::Deflate => format!("{} deflates {}", me(self.b), obj_name(self.a)),
            EventKind::ScssStore => {
                let ok = if self.a == 1 { "ok" } else { "failed" };
                format!("{} scss store {ok}", me(self.b))
            }
            EventKind::HtmAttempt => format!("htm attempt {}", self.a),
            EventKind::HtmCommit => format!("htm commit (attempt {})", self.a),
            EventKind::HtmAbort => {
                let why = match self.b {
                    0 => "conflict",
                    1 => "capacity",
                    2 => "other",
                    _ => "explicit",
                };
                format!("htm abort (attempt {}, {why})", self.a)
            }
            EventKind::HtmFallback => {
                format!("falls back to software after {} hw attempts", self.a)
            }
            EventKind::SchedSwitch => format!("scheduler runs core {}", self.a),
            EventKind::AdtOp => {
                let (adt, op) = crate::adt::AdtOpDesc::unpack(self.b);
                format!("adt#{adt} {} key {}", op.name(), self.a)
            }
            EventKind::NorecValidate => {
                format!("norec validates {} reads at clock {}", self.b, self.a)
            }
            EventKind::NorecExtend => {
                format!("norec extends snapshot {} -> {}", self.a, self.b)
            }
        }
    }
}

/// A single thread's overwrite-oldest event ring.
///
/// Single-writer: only the owning thread records. Lock-free trivially —
/// no other thread touches the buffer until a quiescent drain.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write slot.
    next: usize,
    /// Per-thread monotone sequence number.
    seq: u32,
    /// Events lost to overwriting since the last drain.
    overwritten: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 16). It
    /// reserves nothing until it records, then grows up to `capacity`.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing { buf: Vec::new(), cap: capacity.max(16), next: 0, seq: 0, overwritten: 0 }
    }

    /// Append one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, clock: u64, thread: u16, kind: EventKind, a: u64, b: u64) {
        let ev = TraceEvent { clock, a, b, seq: self.seq, thread, kind };
        self.seq = self.seq.wrapping_add(1);
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.overwritten += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded since the last drain.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Move the buffered events (oldest first) into `out`, returning how
    /// many older events had been overwritten. Resets the ring.
    pub fn drain_into(&mut self, out: &mut Vec<TraceEvent>) -> u64 {
        if self.buf.len() == self.cap {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.next = 0;
        std::mem::take(&mut self.overwritten)
    }
}

/// Per-object contention totals, aggregated from a [`Trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectHeat {
    /// Synthetic object address (`NZHeader::addr`; deterministic per
    /// allocation order).
    pub addr: u64,
    pub conflicts: u64,
    pub waits: u64,
    pub inflations: u64,
    pub deflations: u64,
    pub acquires: u64,
}

impl ObjectHeat {
    /// Hotness ranking key: conflicts + inflations weigh most.
    pub fn score(&self) -> u64 {
        self.conflicts + self.inflations
    }
}

/// A merged, time-ordered event trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in `(clock, thread, seq)` order once [`Trace::sort`] (or
    /// any producer that sorts) has run.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwriting across all threads.
    pub overwritten: u64,
}

impl Trace {
    /// True when no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sort into merged time order `(clock, thread, seq)`.
    pub fn sort(&mut self) {
        self.events.sort_by_key(TraceEvent::key);
    }

    /// Fold another trace in (re-sorts).
    pub fn merge(&mut self, other: Trace) {
        self.events.extend_from_slice(&other.events);
        self.overwritten += other.overwritten;
        self.sort();
    }

    /// Interleave scheduler decisions — `(clock, chosen core)` pairs in
    /// the same logical clock domain — as [`EventKind::SchedSwitch`]
    /// events (re-sorts).
    pub fn merge_schedule(&mut self, switches: impl IntoIterator<Item = (u64, u32)>) {
        for (seq, (clock, core)) in switches.into_iter().enumerate() {
            self.events.push(TraceEvent {
                clock,
                a: core as u64,
                b: 0,
                seq: seq as u32,
                thread: core as u16,
                kind: EventKind::SchedSwitch,
            });
        }
        self.sort();
    }

    /// Export in Chrome `trace_event` format (the JSON object form), as
    /// consumed by Perfetto and `chrome://tracing`.
    ///
    /// Transactions render as duration spans (`B`/`E`) named
    /// `txn#<serial>` on one track per thread; everything else renders as
    /// thread-scoped instant events. Timestamps are the trace clock
    /// passed through as microseconds — on the simulator that makes one
    /// display-µs equal one logical cycle.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&s);
        };
        // Open transaction span per thread, so crash-truncated spans can
        // be closed at the end (Perfetto drops unmatched "B" events).
        let mut open: HashMap<u16, u64> = HashMap::new();
        let mut last_clock = 0u64;
        for e in &self.events {
            last_clock = last_clock.max(e.clock);
            let tid = e.thread;
            match e.kind {
                EventKind::TxnBegin => {
                    // A begin while a span is open (lost end event after
                    // ring overwrite, or a crashed attempt): close first.
                    if open.remove(&tid).is_some() {
                        emit(chrome_end(e.clock, tid), &mut out);
                    }
                    open.insert(tid, e.a);
                    emit(chrome_begin(e.clock, tid, e.a, "{}"), &mut out);
                }
                EventKind::TxnCommit | EventKind::TxnAbort => {
                    if open.remove(&tid).is_none() {
                        // End without begin (ring overwrote the begin):
                        // synthesize a zero-length span so the outcome
                        // still shows.
                        emit(chrome_begin(e.clock, tid, e.a, "{}"), &mut out);
                    }
                    let outcome = if e.kind == EventKind::TxnCommit {
                        "commit".to_string()
                    } else {
                        let cause = AbortCause::from_code(e.b)
                            .map(AbortCause::name)
                            .unwrap_or("unknown");
                        format!("abort:{cause}")
                    };
                    emit(
                        format!(
                            "{{\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":{},\
                             \"args\":{{\"outcome\":\"{}\"}}}}",
                            tid, e.clock, outcome
                        ),
                        &mut out,
                    );
                }
                _ => {
                    emit(
                        format!(
                            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\
                             \"name\":\"{}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                            tid,
                            e.clock,
                            e.kind.name(),
                            e.a,
                            e.b
                        ),
                        &mut out,
                    );
                }
            }
        }
        for (tid, _) in open {
            emit(chrome_end(last_clock + 1, tid), &mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// The `n` hottest objects by conflict/inflation count (ties broken
    /// by waits, then acquires, then address for determinism).
    pub fn hottest_objects(&self, n: usize) -> Vec<ObjectHeat> {
        let mut heat: HashMap<u64, ObjectHeat> = HashMap::new();
        for e in &self.events {
            let h = match e.kind {
                EventKind::Acquire
                | EventKind::Conflict
                | EventKind::Wait
                | EventKind::Inflate
                | EventKind::Deflate => {
                    heat.entry(e.a).or_insert_with(|| ObjectHeat { addr: e.a, ..Default::default() })
                }
                _ => continue,
            };
            match e.kind {
                EventKind::Acquire => h.acquires += 1,
                EventKind::Conflict => h.conflicts += 1,
                EventKind::Wait => h.waits += 1,
                EventKind::Inflate => h.inflations += 1,
                EventKind::Deflate => h.deflations += 1,
                _ => {}
            }
        }
        let mut all: Vec<ObjectHeat> = heat.into_values().collect();
        all.sort_by_key(|h| (std::cmp::Reverse(h.score()), std::cmp::Reverse(h.waits), std::cmp::Reverse(h.acquires), h.addr));
        all.truncate(n);
        all
    }

    /// Structural sanity of a merged trace: events are time-ordered, and
    /// each thread's transaction lifecycle alternates begin → commit/abort
    /// with matching serials. A trailing unclosed attempt is legal (crash
    /// runs); a close without an open is legal only after ring overwrite
    /// (`overwritten > 0`).
    pub fn check_well_formed(&self) -> Result<(), String> {
        for w in self.events.windows(2) {
            if w[0].key() > w[1].key() {
                return Err(format!("events out of order: {:?} then {:?}", w[0], w[1]));
            }
        }
        let mut open: HashMap<u16, u64> = HashMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::TxnBegin => {
                    if let Some(prev) = open.insert(e.thread, e.a) {
                        if self.overwritten == 0 {
                            return Err(format!(
                                "thread {} began t#{} with t#{prev} still open",
                                e.thread, e.a
                            ));
                        }
                    }
                }
                EventKind::TxnCommit | EventKind::TxnAbort => match open.remove(&e.thread) {
                    Some(serial) if serial != e.a => {
                        return Err(format!(
                            "thread {} closed t#{} but t#{serial} was open",
                            e.thread, e.a
                        ));
                    }
                    None if self.overwritten == 0 => {
                        return Err(format!(
                            "thread {} closed t#{} with no open attempt",
                            e.thread, e.a
                        ));
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        Ok(())
    }
}

fn chrome_begin(clock: u64, tid: u16, serial: u64, args: &str) -> String {
    format!(
        "{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{clock},\
         \"name\":\"txn#{serial}\",\"args\":{args}}}"
    )
}

fn chrome_end(clock: u64, tid: u16) -> String {
    format!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{clock}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(clock: u64, thread: u16, seq: u32, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent { clock, a, b, seq, thread, kind }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = TraceRing::new(16);
        for i in 0..20u64 {
            r.record(i, 0, EventKind::TxnBegin, i, 0);
        }
        let mut out = Vec::new();
        let lost = r.drain_into(&mut out);
        assert_eq!(lost, 4);
        assert_eq!(out.len(), 16);
        assert_eq!(out[0].a, 4, "oldest surviving event first");
        assert_eq!(out[15].a, 19);
        assert!(r.is_empty());
    }

    /// A disarmed recorder holds no memory: the ring grows only as it
    /// records, and stops growing at its capacity.
    #[test]
    fn ring_reserves_nothing_until_it_records() {
        let cap = 64;
        let mut r = TraceRing::new(cap);
        assert_eq!(r.buf.capacity(), 0);
        for i in 0..3u64 {
            r.record(i, 0, EventKind::TxnBegin, i, 0);
        }
        assert_eq!(r.len(), 3);
        for i in 3..(cap as u64 + 5) {
            r.record(i, 0, EventKind::TxnBegin, i, 0);
        }
        assert_eq!(r.len(), cap);
        assert_eq!(r.overwritten, 5);
    }

    #[test]
    fn ring_drain_resets_for_reuse() {
        let mut r = TraceRing::new(16);
        r.record(1, 0, EventKind::TxnBegin, 0, 0);
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 0);
        r.record(2, 0, EventKind::TxnCommit, 0, 0);
        out.clear();
        r.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, EventKind::TxnCommit);
    }

    #[test]
    fn merge_orders_by_clock_thread_seq() {
        let mut t = Trace {
            events: vec![ev(5, 1, 0, EventKind::TxnBegin, 0, 0)],
            overwritten: 0,
        };
        t.merge(Trace {
            events: vec![
                ev(3, 0, 0, EventKind::TxnBegin, 0, 0),
                ev(5, 0, 1, EventKind::TxnCommit, 0, 0),
            ],
            overwritten: 0,
        });
        let clocks: Vec<(u64, u16)> = t.events.iter().map(|e| (e.clock, e.thread)).collect();
        assert_eq!(clocks, vec![(3, 0), (5, 0), (5, 1)]);
        assert!(t.check_well_formed().is_ok());
    }

    #[test]
    fn well_formedness_catches_mismatched_serial() {
        let t = Trace {
            events: vec![
                ev(1, 0, 0, EventKind::TxnBegin, 7, 0),
                ev(2, 0, 1, EventKind::TxnCommit, 8, 0),
            ],
            overwritten: 0,
        };
        assert!(t.check_well_formed().is_err());
    }

    #[test]
    fn trailing_open_attempt_is_legal() {
        let t = Trace {
            events: vec![ev(1, 0, 0, EventKind::TxnBegin, 7, 0)],
            overwritten: 0,
        };
        assert!(t.check_well_formed().is_ok());
    }

    #[test]
    fn hottest_objects_ranks_by_conflicts_and_inflations() {
        let t = Trace {
            events: vec![
                ev(1, 0, 0, EventKind::Conflict, 100, 0),
                ev(2, 0, 1, EventKind::Conflict, 100, 0),
                ev(3, 0, 2, EventKind::Inflate, 200, 0),
                ev(4, 0, 3, EventKind::Acquire, 300, 0),
            ],
            overwritten: 0,
        };
        let hot = t.hottest_objects(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].addr, 100);
        assert_eq!(hot[0].conflicts, 2);
        assert_eq!(hot[1].addr, 200);
        assert_eq!(hot[1].inflations, 1);
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let mut t = Trace {
            events: vec![
                ev(1, 0, 0, EventKind::TxnBegin, 0, 0),
                ev(4, 0, 1, EventKind::Conflict, 100, pack_txn(1, 3)),
                ev(9, 0, 2, EventKind::TxnAbort, 0, AbortCause::Requested.code()),
                ev(11, 1, 0, EventKind::TxnBegin, 3, 0),
            ],
            overwritten: 0,
        };
        t.sort();
        let json = t.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("abort:requested"));
        // The trailing open span on thread 1 gets a synthesized end.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), json.matches("\"ph\":\"E\"").count());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn pack_unpack_round_trips() {
        let w = pack_txn(13, 0xABCDE);
        assert_eq!(unpack_txn(w), (13, 0xABCDE));
    }

    #[test]
    fn describe_names_objects_and_peers() {
        let e = ev(4, 2, 0, EventKind::Conflict, 100, pack_txn(1, 3));
        let mut namer = |addr: u64| format!("obj#{}", addr / 100);
        assert_eq!(e.describe(&mut namer), "conflict on obj#1 with t1#3");
    }

    /// docs/PROTOCOL.md's flight-recorder table has a row for every kind.
    #[test]
    fn protocol_md_documents_every_event_kind() {
        use EventKind::*;
        const ALL: [EventKind; 17] = [
            TxnBegin, TxnCommit, TxnAbort, Acquire, Conflict, Wait, Inflate, Deflate, ScssStore,
            HtmAttempt, HtmCommit, HtmAbort, HtmFallback, SchedSwitch, AdtOp, NorecValidate,
            NorecExtend,
        ];
        // Exhaustive: a new kind does not compile until it has a position
        // here, and so a place in `ALL`.
        let position = |k: EventKind| match k {
            TxnBegin => 0,
            TxnCommit => 1,
            TxnAbort => 2,
            Acquire => 3,
            Conflict => 4,
            Wait => 5,
            Inflate => 6,
            Deflate => 7,
            ScssStore => 8,
            HtmAttempt => 9,
            HtmCommit => 10,
            HtmAbort => 11,
            HtmFallback => 12,
            SchedSwitch => 13,
            AdtOp => 14,
            NorecValidate => 15,
            NorecExtend => 16,
        };
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let first_cells: Vec<&str> =
            doc.lines().filter_map(|l| l.strip_prefix('|')?.split('|').next()).collect();
        for (i, &k) in ALL.iter().enumerate() {
            assert_eq!(position(k), i, "{k:?} out of place in ALL");
            let name = format!("`{k:?}`");
            assert!(
                first_cells.iter().any(|c| c.contains(&name)),
                "docs/PROTOCOL.md's flight-recorder table has no row for {name}"
            );
        }
    }
}
