//! `lbmf-obs explain`: reconstruct causal serialization chains from an
//! exported Chrome trace and attribute the round-trip latency phase by
//! phase.
//!
//! The exporter (`lbmf_trace::chrome`) is write-only by design; this
//! module is its read side. It re-parses the `traceEvents` array back
//! into a [`TraceSnapshot`] — instants and spans become [`FenceEvent`]s,
//! `thread_name` metadata restores row names, the `dropped` counters
//! restore ring-wrap accounting, and the `lbmf_strategy` metadata event
//! labels the run — then hands the snapshot to
//! [`lbmf_trace::causal::ChainSet`] for chain reconstruction. Flow
//! events (`ph:"s"/"t"/"f"`) are *derived* from correlation ids at
//! export time, so the importer skips them rather than double-counting.
//!
//! The report states its own coverage: rings are lossy, so alongside the
//! per-phase percentiles it prints how many chains were complete versus
//! orphaned and how many events ring wrap destroyed.

use lbmf_trace::causal::{ChainSet, Phase};
use lbmf_trace::json::{parse, Json};
use lbmf_trace::{EventKind, FenceEvent, ThreadTrace, TraceSnapshot};
use std::collections::BTreeMap;

/// One trace file parsed back into analyzable form.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// The reconstructed snapshot (threads in tid order).
    pub snapshot: TraceSnapshot,
    /// The fence strategy stamped at export time (`lbmf_strategy`
    /// metadata), when the producer recorded one.
    pub strategy: Option<String>,
    /// Events whose name is not a known [`EventKind`] (foreign traces,
    /// future kinds): skipped, but counted so the report can say so.
    pub skipped: usize,
}

fn us_to_ns(us: f64) -> u64 {
    // The exporter prints microseconds with 3 decimals, so this is an
    // exact inverse for every in-range stamp.
    (us * 1000.0).round() as u64
}

/// Parse Chrome trace-event JSON (as produced by
/// [`lbmf_trace::chrome::export_with_strategy`]) back into a
/// [`ParsedTrace`]. Call [`lbmf_trace::chrome::validate`] first when the
/// file is untrusted — this importer assumes structural sanity and
/// reports only semantic problems.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;

    let mut threads: BTreeMap<u32, ThreadTrace> = BTreeMap::new();
    let mut strategy = None;
    let mut skipped = 0usize;
    for ev in events {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event missing \"name\"")?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {name:?} missing \"ph\""))?;
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0) as u32;
        fn row(threads: &mut BTreeMap<u32, ThreadTrace>, tid: u32) -> &mut ThreadTrace {
            threads.entry(tid).or_insert_with(|| ThreadTrace {
                tid,
                name: format!("thread-{tid}"),
                events: Vec::new(),
                dropped: 0,
            })
        }
        match ph {
            "M" => match name {
                "thread_name" => {
                    if let Some(n) = ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    {
                        row(&mut threads, tid).name = n.to_string();
                    }
                }
                "lbmf_strategy" => {
                    strategy = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .map(str::to_string);
                }
                _ => {}
            },
            "C" if name == "dropped" => {
                if let Some(d) = ev.get("args").and_then(|a| a.get("dropped")).and_then(Json::as_u64)
                {
                    row(&mut threads, tid).dropped += d;
                }
            }
            // Flow arrows are a projection of the corr ids already on
            // the instants; re-importing them would double-count.
            "s" | "t" | "f" => {}
            "i" | "X" => {
                let Some(kind) = EventKind::from_name(name) else {
                    skipped += 1;
                    continue;
                };
                let nanos = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .map(us_to_ns)
                    .ok_or_else(|| format!("event {name:?} missing \"ts\""))?;
                let dur = ev.get("dur").and_then(Json::as_f64).map(us_to_ns).unwrap_or(0);
                let args = ev.get("args");
                let guarded_addr = args
                    .and_then(|a| a.get("addr"))
                    .and_then(Json::as_str)
                    .and_then(|s| usize::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                    .unwrap_or(0);
                let corr = args.and_then(|a| a.get("corr")).and_then(Json::as_u64).unwrap_or(0);
                row(&mut threads, tid).events.push(FenceEvent {
                    nanos,
                    thread: tid,
                    kind,
                    guarded_addr,
                    dur,
                    corr,
                });
            }
            _ => skipped += 1,
        }
    }
    Ok(ParsedTrace {
        snapshot: TraceSnapshot {
            threads: threads.into_values().collect(),
        },
        strategy,
        skipped,
    })
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Everything one `explain` run concluded, pre-rendered plus the two
/// numbers CI gates on.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Human-readable report.
    pub text: String,
    /// Chains with every serialize phase present.
    pub complete_chains: usize,
    /// Relative deviation of the phase-p50 sum from the measured
    /// round-trip p50 (`None` when there were no complete chains).
    pub phase_sum_deviation: Option<f64>,
}

/// Analyze one parsed trace: reconstruct chains, attribute latency per
/// phase, and account for what the lossy rings destroyed.
pub fn explain(parsed: &ParsedTrace) -> Explanation {
    let set = ChainSet::from_snapshot(&parsed.snapshot);
    let acc = set.accounting();
    let mut out = String::new();
    let strategy = parsed.strategy.as_deref().unwrap_or("(unlabeled)");
    out.push_str(&format!("strategy: {strategy}\n"));
    let steals = set.chains.iter().filter(|c| c.is_steal()).count();
    out.push_str(&format!(
        "chains: {} ({} complete, {} missing-interior, {} orphaned, {} attempt-only; {} via steals)\n",
        set.chains.len(),
        acc.complete,
        acc.missing_interior,
        acc.orphans,
        acc.attempt_only,
        steals,
    ));
    out.push_str(&format!(
        "lossiness: {} events dropped to ring wrap; {} foreign events skipped\n",
        acc.dropped_events, parsed.skipped,
    ));

    let mut table = lbmf_bench::Table::new(&["phase", "p50", "p99", "n"]);
    let mut p50_sum = 0u64;
    for phase in Phase::ALL {
        let n = set
            .chains
            .iter()
            .filter(|c| c.phase_nanos(phase).is_some())
            .count();
        let (p50, p99) = match (set.phase_percentile(phase, 0.5), set.phase_percentile(phase, 0.99))
        {
            (Some(a), Some(b)) => (a, b),
            _ => {
                table.row(&[phase.name().into(), "-".into(), "-".into(), "0".into()]);
                continue;
            }
        };
        p50_sum += p50;
        table.row(&[phase.name().into(), fmt_ns(p50), fmt_ns(p99), n.to_string()]);
    }
    let round_trip = set.round_trip_percentile(0.5);
    if let (Some(p50), Some(p99)) = (round_trip, set.round_trip_percentile(0.99)) {
        let n = set
            .chains
            .iter()
            .filter(|c| c.round_trip_nanos().is_some())
            .count();
        table.row(&["round-trip".into(), fmt_ns(p50), fmt_ns(p99), n.to_string()]);
        out.push_str(&table.render());
        if let Some(mean) = set.round_trip_mean() {
            out.push_str(&format!("round-trip mean: {}\n", fmt_ns(mean.round() as u64)));
        }
    } else {
        out.push_str(&table.render());
        out.push_str("no round trips to attribute (no chain kept both requester bookends)\n");
    }

    // The attribution's self-check: the four phases partition the
    // request→ack interval, so their p50s must track the measured
    // round-trip p50 (exactly for one chain; approximately once
    // percentiles are taken over many, since per-phase medians need not
    // come from the same chain).
    let phase_sum_deviation = match (round_trip, acc.complete > 0) {
        (Some(rt), true) if rt > 0 => {
            let dev = (p50_sum as f64 - rt as f64) / rt as f64;
            out.push_str(&format!(
                "phase p50 sum: {} vs round-trip p50 {} ({:+.1}%)\n",
                fmt_ns(p50_sum),
                fmt_ns(rt),
                dev * 100.0,
            ));
            Some(dev)
        }
        _ => None,
    };
    Explanation {
        text: out,
        complete_chains: acc.complete,
        phase_sum_deviation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_trace::chrome;

    fn ev(thread: u32, nanos: u64, kind: EventKind, corr: u64) -> FenceEvent {
        FenceEvent { nanos, thread, kind, guarded_addr: 0x1000, dur: 0, corr }
    }

    /// A snapshot with one complete signal chain and one orphan, plus
    /// uncorrelated noise and a dropped-events count.
    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            threads: vec![
                ThreadTrace {
                    tid: 0,
                    name: "requester".into(),
                    events: vec![
                        ev(0, 1_000, EventKind::PrimaryFence, 0),
                        ev(0, 2_000, EventKind::SerializeRequest, 7),
                        ev(0, 2_100, EventKind::SerializeSignalSent, 7),
                        ev(0, 3_000, EventKind::SerializeAckObserved, 7),
                        FenceEvent {
                            nanos: 3_000,
                            thread: 0,
                            kind: EventKind::SerializeDeliver,
                            guarded_addr: 0x1000,
                            dur: 1_000,
                            corr: 7,
                        },
                    ],
                    dropped: 3,
                },
                ThreadTrace {
                    tid: 1,
                    name: "target/serialize-handler".into(),
                    events: vec![
                        ev(1, 2_400, EventKind::SerializeHandlerEnter, 7),
                        ev(1, 2_600, EventKind::SerializeDrained, 7),
                        // corr 9 lost its requester side: orphan. Same
                        // 200ns drain as corr 7, so the drain p50 (which
                        // legitimately includes orphan phases) stays the
                        // complete chain's value.
                        ev(1, 5_000, EventKind::SerializeHandlerEnter, 9),
                        ev(1, 5_200, EventKind::SerializeDrained, 9),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn export_then_parse_roundtrips_snapshot() {
        let snap = sample();
        let json = chrome::export_with_strategy(&snap, Some("lbmf-signal"));
        chrome::validate(&json).expect("exporter output validates");
        let parsed = parse_trace(&json).expect("re-import");
        assert_eq!(parsed.strategy.as_deref(), Some("lbmf-signal"));
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.snapshot.threads.len(), 2);
        for (orig, back) in snap.threads.iter().zip(&parsed.snapshot.threads) {
            assert_eq!(orig.tid, back.tid);
            assert_eq!(orig.name, back.name);
            assert_eq!(orig.dropped, back.dropped);
            assert_eq!(orig.events, back.events, "thread {}", orig.name);
        }
    }

    #[test]
    fn explanation_attributes_phases_and_accounts_for_orphans() {
        let json = chrome::export_with_strategy(&sample(), Some("lbmf-signal"));
        let parsed = parse_trace(&json).unwrap();
        let ex = explain(&parsed);
        assert_eq!(ex.complete_chains, 1);
        // One chain: phase p50s partition its round trip exactly.
        assert_eq!(ex.phase_sum_deviation, Some(0.0));
        for needle in [
            "strategy: lbmf-signal",
            "1 complete",
            "1 orphaned",
            "3 events dropped",
            "queue",
            "delivery",
            "drain",
            "ack",
            "round-trip",
            "(+0.0%)",
        ] {
            assert!(ex.text.contains(needle), "missing {needle:?} in:\n{}", ex.text);
        }
    }

    #[test]
    fn foreign_events_are_skipped_not_fatal() {
        let json = "{\"traceEvents\":[\
            {\"name\":\"not-a-kind\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1.0,\"s\":\"t\"},\
            {\"name\":\"mystery\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.0}\
        ]}";
        let parsed = parse_trace(json).unwrap();
        assert_eq!(parsed.skipped, 2);
        assert_eq!(parsed.snapshot.total_events(), 0);
        let ex = explain(&parsed);
        assert_eq!(ex.complete_chains, 0);
        assert!(ex.text.contains("no round trips"));
    }

    #[test]
    fn parse_rejects_non_trace_json() {
        assert!(parse_trace("{}").is_err());
        assert!(parse_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}").is_err());
        assert!(parse_trace("not json").is_err());
    }
}
