//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Emits the classic "JSON object format": `{"traceEvents": [...]}` with
//! per-thread metadata (`ph:"M"` `thread_name`), instant events
//! (`ph:"i"`, thread-scoped), complete spans (`ph:"X"` with `dur`), and a
//! per-thread `dropped` counter (`ph:"C"`). Timestamps are microseconds
//! (floats), converted from the snapshot's nanosecond stamps.
//!
//! Causal serialization chains (events sharing a nonzero
//! [`crate::FenceEvent::corr`]) additionally export as **flow events**
//! (`ph:"s"/"t"/"f"` with a shared `id`), which Perfetto and
//! `chrome://tracing` draw as arrows from the requester's
//! `serialize-request`, across the target's handler phases, back to the
//! requester's `serialize-ack-observed` — one arrow chain per remote
//! serialization.
//!
//! Also hosts [`validate`], a structural self-check over the
//! [`crate::json`] tree used by CI and the examples (it additionally
//! enforces flow-event pairing: every `s` has a matching `f` under the
//! same unique id), and [`from_check_trace`], which turns an
//! `lbmf-check` counterexample trace into the same format so a
//! model-checker violation opens in Perfetto next to a real-run trace.

use crate::causal::ChainSet;
use crate::json::{escape_into, Json};
use crate::{EventKind, TraceSnapshot};
use std::fmt::Write as _;

/// All process ids in one trace (Perfetto groups rows by pid/tid).
const PID: u32 = 1;

/// An incremental Chrome trace-event JSON writer.
///
/// This is the mechanical half of [`export`], made public so *other*
/// event sources — notably `lbmf-sim`'s coherence-level trace, whose
/// event names (MESI states, bus transactions, link spans) are not part
/// of this crate's fixed [`EventKind`] schema — can emit the same format
/// and pass the same [`validate`] checks.
///
/// Usage is open/decorate/close per event: [`open`](Self::open) writes
/// the required common fields (`name`/`ph`/`pid`/`tid`/`ts`), the
/// decorators ([`dur`](Self::dur), [`scope`](Self::scope),
/// [`flow_id`](Self::flow_id), [`bind_enclosing`](Self::bind_enclosing),
/// [`arg_str`](Self::arg_str), [`arg_u64`](Self::arg_u64)) append
/// optional fields, and [`close`](Self::close) terminates the event.
/// Arg decorators must come last — the first one opens the `args` object
/// and `close` shuts it. [`finish`](Self::finish) yields the JSON.
pub struct ChromeWriter {
    out: String,
    first: bool,
    in_args: bool,
}

impl Default for ChromeWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeWriter {
    /// An empty `{"traceEvents":[...]}` document, ready for events.
    pub fn new() -> Self {
        ChromeWriter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
            in_args: false,
        }
    }

    /// Open one event object with the required common fields
    /// (`name`, `ph`, `pid`, `tid`, `ts`); decorate, then [`close`](Self::close).
    pub fn open(&mut self, name: &str, ph: char, tid: u32, ts_us: f64) {
        debug_assert!(!self.in_args, "previous event not closed");
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("{\"name\":\"");
        escape_into(&mut self.out, name);
        let _ = write!(
            self.out,
            "\",\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts_us:.3}"
        );
    }

    /// Duration in microseconds (for `ph:"X"` complete spans).
    pub fn dur(&mut self, dur_us: f64) {
        debug_assert!(!self.in_args, "dur must precede args");
        let _ = write!(self.out, ",\"dur\":{dur_us:.3}");
    }

    /// Instant-event scope (`t` thread, `p` process, `g` global).
    pub fn scope(&mut self, s: char) {
        debug_assert!(!self.in_args, "scope must precede args");
        let _ = write!(self.out, ",\"s\":\"{s}\"");
    }

    /// Flow-event category and id (for `ph:"s"/"t"/"f"` arrows; the
    /// validator pairs `s` starts with `f` finishes by this id).
    pub fn flow_id(&mut self, id: u64) {
        debug_assert!(!self.in_args, "flow_id must precede args");
        let _ = write!(self.out, ",\"cat\":\"lbmf\",\"id\":{id}");
    }

    /// Bind a flow finish to the end of its enclosing slice
    /// (`"bp":"e"`, Perfetto-style arrowheads).
    pub fn bind_enclosing(&mut self) {
        debug_assert!(!self.in_args, "bind_enclosing must precede args");
        self.out.push_str(",\"bp\":\"e\"");
    }

    fn begin_arg(&mut self, key: &str) {
        if self.in_args {
            self.out.push(',');
        } else {
            self.out.push_str(",\"args\":{");
            self.in_args = true;
        }
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }

    /// Append a string-valued entry to the event's `args` object.
    pub fn arg_str(&mut self, key: &str, val: &str) {
        self.begin_arg(key);
        self.out.push('"');
        escape_into(&mut self.out, val);
        self.out.push('"');
    }

    /// Append an integer-valued entry to the event's `args` object.
    pub fn arg_u64(&mut self, key: &str, val: u64) {
        self.begin_arg(key);
        let _ = write!(self.out, "{val}");
    }

    /// Terminate the current event (closing `args` if open).
    pub fn close(&mut self) {
        if self.in_args {
            self.out.push('}');
            self.in_args = false;
        }
        self.out.push('}');
    }

    /// Emit a `thread_name` metadata row labelling `tid`.
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.open("thread_name", 'M', tid, 0.0);
        self.arg_str("name", name);
        self.close();
    }

    /// Close the document and return the JSON. The output of a correctly
    /// paired open/close sequence always passes [`validate`] (flow
    /// pairing permitting).
    pub fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Render a snapshot as Chrome trace-event JSON. The output always
/// passes [`validate`].
pub fn export(snap: &TraceSnapshot) -> String {
    export_with_strategy(snap, None)
}

/// [`export`], additionally stamping the fence strategy that produced the
/// run as a metadata event (`ph:"M"`, name `lbmf_strategy`) so offline
/// consumers — `lbmf-obs explain` — can report attribution per strategy.
pub fn export_with_strategy(snap: &TraceSnapshot, strategy: Option<&str>) -> String {
    let mut w = ChromeWriter::new();
    if let Some(strategy) = strategy {
        w.open("lbmf_strategy", 'M', 0, 0.0);
        w.arg_str("name", strategy);
        w.close();
    }
    for t in &snap.threads {
        // Row label.
        w.thread_name(t.tid, &t.name);
        for e in &t.events {
            let ts = e.nanos as f64 / 1000.0;
            if e.dur > 0 {
                w.open(e.kind.name(), 'X', t.tid, ts);
                w.dur(e.dur as f64 / 1000.0);
            } else {
                w.open(e.kind.name(), 'i', t.tid, ts);
                w.scope('t');
            }
            if e.guarded_addr != 0 {
                w.arg_str("addr", &format!("{:#x}", e.guarded_addr));
            }
            if e.corr != 0 {
                w.arg_u64("corr", e.corr);
            }
            w.close();
        }
        // Lossy-by-design: the wrap count is part of the export.
        let end = t.events.last().map_or(0.0, |e| e.nanos as f64 / 1000.0);
        w.open("dropped", 'C', t.tid, end);
        w.arg_u64("dropped", t.dropped);
        w.close();
    }
    // Flow arrows: one s→t…→f chain per correlation id, following the
    // chain's events across threads in causal order. Single-event chains
    // get no arrow (nothing to link).
    for chain in ChainSet::from_snapshot(snap).chains {
        if chain.events.len() < 2 {
            continue;
        }
        let name = if chain.is_steal() { "steal-chain" } else { "serialize-chain" };
        let last = chain.events.len() - 1;
        for (i, e) in chain.events.iter().enumerate() {
            let ph = if i == 0 {
                's'
            } else if i == last {
                'f'
            } else {
                't'
            };
            w.open(name, ph, e.thread, e.nanos as f64 / 1000.0);
            w.flow_id(chain.corr);
            if ph == 'f' {
                // Bind the arrowhead to the enclosing slice, Perfetto-style.
                w.bind_enclosing();
            }
            w.close();
        }
    }
    w.finish()
}

/// Convert an `lbmf-check` counterexample trace (the `Violation::trace`
/// string: numbered lines like `"   3. T0: store L0 <- 1 (buffered)"`)
/// into Chrome trace-event JSON. Virtual time is the trace step index,
/// one microsecond per step; `memory:` commit/drain lines and the `!!`
/// violation marker get pseudo-thread rows of their own.
pub fn from_check_trace(trace: &str) -> String {
    const MEMORY_TID: u32 = 1000;
    const VERDICT_TID: u32 = 1001;
    let mut w = ChromeWriter::new();
    let mut named: Vec<u32> = Vec::new();
    let mut name_row = |w: &mut ChromeWriter, tid: u32, name: &str| {
        if !named.contains(&tid) {
            named.push(tid);
            w.thread_name(tid, name);
        }
    };
    for (step, line) in trace.lines().enumerate() {
        let line = line.trim_start();
        // Strip the "   3. " numbering the report prepends.
        let line = match line.split_once(". ") {
            Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) => rest,
            _ => line,
        };
        let ts = step as f64;
        if let Some(rest) = line.strip_prefix("!! ") {
            name_row(&mut w, VERDICT_TID, "verdict");
            w.open(rest, 'i', VERDICT_TID, ts);
            w.scope('g'); // global-scope marker
            w.close();
        } else if let Some(rest) = line.strip_prefix("memory: ") {
            name_row(&mut w, MEMORY_TID, "memory (store buffers)");
            w.open(rest, 'i', MEMORY_TID, ts);
            w.scope('t');
            w.close();
        } else if let Some((t, rest)) = line.split_once(": ") {
            let Some(tid) = t
                .strip_prefix('T')
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            name_row(&mut w, tid, t);
            w.open(rest, 'i', tid, ts);
            w.scope('t');
            w.close();
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------
// Self-check: a structural validator over the parsed JSON tree.
// ---------------------------------------------------------------------

/// Flow-event pairing: every `s` (start) must be matched by exactly one
/// `f` (finish) under the same id, ids must be unique per chain (no
/// reuse across starts), and a step or finish must never name an id
/// that was never started.
fn check_flows(flows: &[(char, String)]) -> Result<(), String> {
    let ids_of = |want: char| {
        flows
            .iter()
            .filter(move |(ph, _)| *ph == want)
            .map(|(_, id)| id.as_str())
    };
    for want in ['s', 'f'] {
        let mut seen: Vec<&str> = Vec::new();
        for id in ids_of(want) {
            if seen.contains(&id) {
                return Err(format!("flow id {id} has more than one \"{want}\" event"));
            }
            seen.push(id);
        }
    }
    let starts: Vec<&str> = ids_of('s').collect();
    for (ph, id) in flows {
        if matches!(ph, 't' | 'f') && !starts.contains(&id.as_str()) {
            return Err(format!("flow \"{ph}\" for id {id} has no matching \"s\" start"));
        }
    }
    let finishes: Vec<&str> = ids_of('f').collect();
    for id in &starts {
        if !finishes.contains(id) {
            return Err(format!("flow \"s\" for id {id} has no matching \"f\" finish"));
        }
    }
    Ok(())
}

/// Structurally validate Chrome trace-event JSON: well-formed JSON, a
/// top-level `traceEvents` array (or a bare array), every event carrying
/// `name`/`ph`/`ts`/`pid`/`tid`, and flow events properly paired (each
/// `s` start matched by exactly one `f` finish under a unique id, no
/// step/finish without a start). Returns the event count.
pub fn validate(json: &str) -> Result<usize, String> {
    let root = crate::json::parse(json)?;
    let events = match &root {
        Json::Arr(events) => events,
        Json::Obj(_) => match root.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            Some(_) => return Err("\"traceEvents\" is not an array".into()),
            None => return Err("no \"traceEvents\" array".into()),
        },
        _ => return Err("expected '{' or '['".into()),
    };
    let mut flows: Vec<(char, String)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if !matches!(event, Json::Obj(_)) {
            return Err(format!("event {i} is not an object"));
        }
        for required in ["name", "ph", "ts", "pid", "tid"] {
            if event.get(required).is_none() {
                return Err(format!("event {i} missing \"{required}\""));
            }
        }
        if let Some(ph @ ("s" | "t" | "f")) = event.get("ph").and_then(Json::as_str) {
            let id = match event.get("id") {
                Some(Json::Str(id)) => id.clone(),
                Some(id) => id.render(),
                None => return Err(format!("event {i}: flow event \"{ph}\" missing \"id\"")),
            };
            flows.push((ph.chars().next().unwrap(), id));
        }
    }
    check_flows(&flows)?;
    Ok(events.len())
}

/// `validate`, then additionally require at least one
/// `serialize-request` and one `serialize-deliver` event (the pairing
/// the Dekker example must demonstrate).
pub fn validate_with_serialize_pair(json: &str) -> Result<usize, String> {
    let n = validate(json)?;
    for needle in [EventKind::SerializeRequest.name(), EventKind::SerializeDeliver.name()] {
        if !json.contains(&format!("\"name\":\"{needle}\"")) {
            return Err(format!("no \"{needle}\" event in trace"));
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FenceEvent, ThreadTrace};

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 0,
                name: "primary \"p0\"".into(),
                events: vec![
                    FenceEvent {
                        nanos: 1500,
                        thread: 0,
                        kind: EventKind::PrimaryFence,
                        guarded_addr: 0xbeef,
                        dur: 0,
                        corr: 0,
                    },
                    FenceEvent {
                        nanos: 2500,
                        thread: 0,
                        kind: EventKind::SerializeDeliver,
                        guarded_addr: 0,
                        dur: 4000,
                        corr: 0,
                    },
                ],
                dropped: 2,
            }],
        }
    }

    #[test]
    fn export_self_validates() {
        let json = export(&sample());
        let n = validate(&json).expect("valid");
        // metadata + 2 events + dropped counter
        assert_eq!(n, 4);
        assert!(json.contains("\"ph\":\"X\""), "span event present");
        assert!(json.contains("\"ph\":\"i\""), "instant event present");
        assert!(json.contains("\"dropped\":2"));
        assert!(json.contains("primary \\\"p0\\\""), "name escaped");
        assert!(json.contains("\"ts\":1.500"), "ns -> us conversion");
    }

    #[test]
    fn empty_snapshot_validates() {
        let json = export(&TraceSnapshot::default());
        assert_eq!(validate(&json), Ok(0));
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate("{\"traceEvents\":[").is_err());
        assert!(validate("{}").is_err(), "missing traceEvents");
        assert!(
            validate("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\"}]}").is_err(),
            "event missing ts/pid/tid"
        );
        assert!(validate("{\"traceEvents\":[]}extra").is_err());
        assert!(validate("").is_err());
        assert!(
            validate(r#"{"traceEvents":[{"name":"x","ph":"i","ts":1e+-,"pid":1,"tid":0}]}"#)
                .is_err(),
            "malformed number"
        );
        assert!(
            validate(r#"{"traceEvents":[{"name":"\uZZZZ","ph":"i","ts":1,"pid":1,"tid":0}]}"#)
                .is_err(),
            "malformed \\u escape"
        );
    }

    fn chain_snapshot(corr: u64) -> TraceSnapshot {
        let ev = |thread: u32, nanos: u64, kind: EventKind| FenceEvent {
            nanos,
            thread,
            kind,
            guarded_addr: 0x40,
            dur: 0,
            corr,
        };
        TraceSnapshot {
            threads: vec![
                ThreadTrace {
                    tid: 0,
                    name: "requester".into(),
                    events: vec![
                        ev(0, 1_000, EventKind::SerializeRequest),
                        ev(0, 1_100, EventKind::SerializeSignalSent),
                        ev(0, 2_000, EventKind::SerializeAckObserved),
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    tid: 1,
                    name: "target/serialize-handler".into(),
                    events: vec![
                        ev(1, 1_400, EventKind::SerializeHandlerEnter),
                        ev(1, 1_600, EventKind::SerializeDrained),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn chains_export_paired_flow_events() {
        let json = export(&chain_snapshot(77));
        validate(&json).expect("flow pairing must self-validate");
        // One s, three t, one f, all under id 77, crossing both tids.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert_eq!(json.matches("\"id\":77").count(), 5);
        assert!(json.contains("\"name\":\"serialize-chain\",\"ph\":\"s\",\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"name\":\"serialize-chain\",\"ph\":\"t\",\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"bp\":\"e\""), "finish binds to enclosing slice");
        // The phase events themselves carry corr in args.
        assert!(json.contains("\"corr\":77"));
    }

    #[test]
    fn strategy_metadata_and_corr_args_export() {
        let json = export_with_strategy(&chain_snapshot(3), Some("lbmf-signal"));
        validate(&json).expect("valid");
        assert!(json.contains("\"name\":\"lbmf_strategy\""));
        assert!(json.contains("\"args\":{\"name\":\"lbmf-signal\"}"));
        assert!(json.contains("\"addr\":\"0x40\",\"corr\":3"), "addr and corr coexist in args");
        // Without a strategy there is no metadata row.
        assert!(!export(&chain_snapshot(3)).contains("lbmf_strategy"));
    }

    #[test]
    fn single_event_chains_emit_no_flows() {
        let mut snap = chain_snapshot(5);
        snap.threads[1].events.clear();
        snap.threads[0].events.truncate(1);
        let json = export(&snap);
        validate(&json).expect("valid");
        assert!(!json.contains("\"ph\":\"s\""), "nothing to link");
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn validator_rejects_broken_flows() {
        let wrap = |evs: &str| format!("{{\"traceEvents\":[{evs}]}}");
        let flow = |ph: &str, id: u64| {
            format!(
                "{{\"name\":\"c\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":0,\"ts\":1,\"id\":{id}}}"
            )
        };
        // Unmatched start.
        let err = validate(&wrap(&flow("s", 1))).unwrap_err();
        assert!(err.contains("no matching \"f\""), "{err}");
        // Unmatched finish.
        let err = validate(&wrap(&flow("f", 2))).unwrap_err();
        assert!(err.contains("no matching \"s\""), "{err}");
        // Step without a start.
        let err =
            validate(&wrap(&[flow("s", 3), flow("t", 4), flow("f", 3)].join(","))).unwrap_err();
        assert!(err.contains("\"t\" for id 4"), "{err}");
        // Duplicate start under one id (ids must be unique per chain).
        let err = validate(&wrap(&[flow("s", 5), flow("s", 5), flow("f", 5)].join(",")))
            .unwrap_err();
        assert!(err.contains("more than one \"s\""), "{err}");
        // Flow event with no id at all.
        let bare = "{\"name\":\"c\",\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":1}";
        let err = validate(&wrap(bare)).unwrap_err();
        assert!(err.contains("missing \"id\""), "{err}");
        // A healthy pair (string ids too) still passes.
        let good = wrap(
            "{\"name\":\"c\",\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":1,\"id\":\"a\"},\
             {\"name\":\"c\",\"ph\":\"f\",\"pid\":1,\"tid\":1,\"ts\":2,\"id\":\"a\"}",
        );
        assert_eq!(validate(&good), Ok(2));
    }

    #[test]
    fn serialize_pair_check() {
        let json = export(&sample());
        assert!(validate_with_serialize_pair(&json)
            .unwrap_err()
            .contains("serialize-request"));
    }

    #[test]
    fn chrome_writer_public_api_self_validates() {
        // The writer external event sources (lbmf-sim) build on: spans,
        // instants, args, and a paired flow arrow must pass validate().
        let mut w = ChromeWriter::new();
        w.thread_name(7, "cpu7");
        w.open("M", 'X', 7, 3.0);
        w.dur(2.0);
        w.arg_str("state", "Modified");
        w.arg_u64("line", 4);
        w.close();
        w.open("BusRd", 'i', 7, 5.0);
        w.scope('t');
        w.close();
        w.open("remote-downgrade", 's', 7, 5.0);
        w.flow_id(1);
        w.close();
        w.open("remote-downgrade", 'f', 8, 6.0);
        w.flow_id(1);
        w.bind_enclosing();
        w.close();
        let json = w.finish();
        assert_eq!(validate(&json), Ok(5));
        assert!(json.contains("\"args\":{\"state\":\"Modified\",\"line\":4}"));
        assert!(json.contains("\"cat\":\"lbmf\",\"id\":1"));
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn check_trace_converts() {
        let trace = "   1. T0: start\n   2. T0: store L0 <- 1 (buffered)\n\
                     3. memory: commit T0 L0 = 1\n   4. T1: serialize T0 (drained 1)\n\
                     5. !! violation (MutualExclusion): both inside\n   6. T0: finish";
        let json = from_check_trace(trace);
        let n = validate(&json).expect("valid");
        assert!(n >= 6, "events for every line plus metadata, got {n}");
        assert!(json.contains("store L0 <- 1 (buffered)"));
        assert!(json.contains("memory (store buffers)"));
        assert!(json.contains("violation (MutualExclusion)"));
        assert!(json.contains("\"tid\":1000"));
        assert!(json.contains("\"tid\":1001"));
    }
}
