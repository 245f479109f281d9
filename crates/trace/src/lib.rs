//! # lbmf-trace — zero-fence event tracing for the lbmf runtime
//!
//! The paper's whole argument is quantitative: how many fences the primary
//! path *avoided*, how many remote serializations the secondary *paid*,
//! and how long each round trip took. The aggregate counters in
//! `lbmf::stats` answer the first two in total; this crate records *when*
//! — a time-stamped event stream per thread — without reintroducing the
//! very fences the runtime exists to remove.
//!
//! ## The "drainer pays" invariant
//!
//! Recording an event ([`record`]) on the owning thread is:
//!
//! * a thread-local lookup,
//! * a monotonic clock read,
//! * a handful of `Relaxed` stores into a fixed-capacity ring, and
//! * compiler fences between them.
//!
//! **No atomic read-modify-write, no hardware fence, no lock, no
//! allocation** (after the thread's one-time lazy ring registration).
//! This mirrors the asymmetric-fence design itself: the cost of
//! synchronizing with the event stream falls entirely on the *drainer*
//! ([`take_snapshot`]), which executes a full fence and then detects torn
//! slots via per-slot sequence numbers. A mid-run drain on non-TSO
//! hardware is best-effort (torn or in-flight slots are skipped, never
//! misread into garbage kinds); the authoritative drain is after the
//! traced threads are joined, where `join` provides the happens-before.
//!
//! Rings are fixed-capacity and wrap *lossy-by-design*: the newest
//! [`ring::DEFAULT_CAPACITY`] events are kept, the oldest are dropped,
//! and the count of dropped events is reported by every exporter.
//!
//! ## Schema
//!
//! One event type, [`FenceEvent`], covers the real runtime and the
//! discrete-event simulator (simulated runs stamp virtual time into the
//! same `nanos` field), so real and simulated traces are directly
//! diffable. Kinds are in [`EventKind`].
//!
//! ## Exporters
//!
//! * [`chrome`] — Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing`, with a structural self-check over [`json`];
//! * [`prometheus`] — a flat Prometheus-style text dump;
//! * [`summary`] — a per-run plain-text summary table.

#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod gauge;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod ring;
pub mod sketch;
pub mod summary;

pub use gauge::{Gauge, GaugeSet};
pub use histogram::{Log2Histogram, WindowedHistogram};
pub use sketch::{estimate_theta, CountMinSketch, HotKey, SpaceSaving, ThetaEstimate};
pub use ring::{
    is_enabled, next_corr_id, now_nanos, record, record_at, record_corr, record_span,
    record_span_corr, register_aux_ring, set_enabled, take_snapshot, ThreadRing,
};

/// What happened. The discriminants are stable (they are stored raw in
/// ring slots and decoded by the drainer).
#[repr(u8)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A compiler-only fence on the primary fast path (the `l-mfence`
    /// position under an asymmetric strategy).
    PrimaryFence = 0,
    /// A full hardware fence on the primary path (the symmetric baseline).
    PrimaryFullFence = 1,
    /// The secondary's own program-based fence.
    SecondaryFence = 2,
    /// A secondary requested a remote serialization of a primary.
    SerializeRequest = 3,
    /// A serialization round trip completed; `dur` is the wait, in the
    /// event's time unit (real nanoseconds, or simulated cycles).
    SerializeDeliver = 4,
    /// A thief engaged a victim's deque (lock held, head bumped).
    StealAttempt = 5,
    /// A steal obtained a job.
    StealSuccess = 6,
    /// A stop-the-world safepoint pause was requested.
    SafepointEnter = 7,
    /// The safepoint pause ended; `dur` is the pause length.
    SafepointExit = 8,
    /// The requester's serialization signal left `pthread_sigqueue`
    /// (causal-span phase; carries the chain's `corr` id).
    SerializeSignalSent = 9,
    /// The target's signal handler started running (stamped by the
    /// handler itself, into the target's dedicated handler ring).
    SerializeHandlerEnter = 10,
    /// The target's store buffer was drained (the handler's fence
    /// retired); the in-handler time is this stamp minus the chain's
    /// [`EventKind::SerializeHandlerEnter`] stamp.
    SerializeDrained = 11,
    /// The requester observed the handler's acknowledgment (its spin
    /// ended) — the last phase of a serialization chain.
    SerializeAckObserved = 12,
}

impl EventKind {
    /// Every kind, in discriminant order (export iteration order).
    pub const ALL: [EventKind; 13] = [
        EventKind::PrimaryFence,
        EventKind::PrimaryFullFence,
        EventKind::SecondaryFence,
        EventKind::SerializeRequest,
        EventKind::SerializeDeliver,
        EventKind::StealAttempt,
        EventKind::StealSuccess,
        EventKind::SafepointEnter,
        EventKind::SafepointExit,
        EventKind::SerializeSignalSent,
        EventKind::SerializeHandlerEnter,
        EventKind::SerializeDrained,
        EventKind::SerializeAckObserved,
    ];

    /// Stable machine-readable name (used by every exporter).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PrimaryFence => "primary-fence",
            EventKind::PrimaryFullFence => "primary-full-fence",
            EventKind::SecondaryFence => "secondary-fence",
            EventKind::SerializeRequest => "serialize-request",
            EventKind::SerializeDeliver => "serialize-deliver",
            EventKind::StealAttempt => "steal-attempt",
            EventKind::StealSuccess => "steal-success",
            EventKind::SafepointEnter => "safepoint-enter",
            EventKind::SafepointExit => "safepoint-exit",
            EventKind::SerializeSignalSent => "serialize-signal-sent",
            EventKind::SerializeHandlerEnter => "serialize-handler-enter",
            EventKind::SerializeDrained => "serialize-drained",
            EventKind::SerializeAckObserved => "serialize-ack-observed",
        }
    }

    /// Decode a stable machine-readable name back to a kind (the inverse
    /// of [`EventKind::name`]; used by trace re-importers such as
    /// `lbmf-obs explain`).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Decode a stored discriminant (drainer side); `None` for a torn or
    /// corrupted slot.
    pub fn from_u8(raw: u8) -> Option<EventKind> {
        EventKind::ALL.get(raw as usize).copied()
    }
}

/// One recorded event.
///
/// `nanos` is monotonic time since the process's trace epoch for real
/// executions, or virtual cycles for discrete-event simulations — the
/// schema is shared so the two are diffable side by side in Perfetto.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FenceEvent {
    /// Event timestamp (nanoseconds since trace epoch, or simulated
    /// cycles).
    pub nanos: u64,
    /// Small per-process thread id (ring registration order, or simulated
    /// worker index).
    pub thread: u32,
    /// What happened.
    pub kind: EventKind,
    /// The guarded location involved, when one exists (flag address, slot
    /// key, deque address; 0 when the event has no location).
    pub guarded_addr: usize,
    /// Duration for span-like events (serialize round trips, safepoint
    /// pauses); 0 for instants.
    pub dur: u64,
    /// Causal correlation id linking the phases of one remote
    /// serialization (or one steal chain) across threads; 0 when the
    /// event belongs to no chain. Minted by [`next_corr_id`] on the
    /// *requester* — the primary's fast path never touches the counter.
    pub corr: u64,
}

impl ThreadTrace {
    /// Log2 histogram of the `dur` field of this thread's events of
    /// `kind`. Instants (`dur == 0`) of that kind are counted in bucket 0
    /// — for span kinds like [`EventKind::SerializeDeliver`] a zero
    /// duration is a real observation (a short-circuited round trip).
    pub fn latency_histogram(&self, kind: EventKind) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for e in self.events.iter().filter(|e| e.kind == kind) {
            h.record(e.dur);
        }
        h
    }
}

/// The drained event stream of one thread.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// The ring's small thread id.
    pub tid: u32,
    /// The OS thread's name at registration (or `thread-<tid>`), or the
    /// simulated worker's name.
    pub name: String,
    /// Events, oldest first.
    pub events: Vec<FenceEvent>,
    /// Events overwritten before this drain (the ring wrapped). Part of
    /// every export: a trace that lost events says so.
    pub dropped: u64,
}

/// A point-in-time drain of every registered ring (or a hand-built set of
/// simulated streams). All exporters consume this.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Per-thread streams, in registration (or worker-index) order.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped events across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Count of events of `kind` across all threads.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.kind == kind)
            .count() as u64
    }

    /// Aggregate the per-thread duration histograms of `kind` into one
    /// ([`ThreadTrace::latency_histogram`] merged via
    /// [`Log2Histogram::merge`]) — the cross-thread view every exporter
    /// reports percentiles from.
    pub fn latency_histogram(&self, kind: EventKind) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for t in &self.threads {
            h.merge(&t.latency_histogram(kind));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn snapshot_counts() {
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 0,
                name: "t".into(),
                events: vec![
                    FenceEvent {
                        nanos: 1,
                        thread: 0,
                        kind: EventKind::PrimaryFence,
                        guarded_addr: 0,
                        dur: 0,
                        corr: 0,
                    },
                    FenceEvent {
                        nanos: 2,
                        thread: 0,
                        kind: EventKind::PrimaryFence,
                        guarded_addr: 0,
                        dur: 0,
                        corr: 0,
                    },
                ],
                dropped: 3,
            }],
        };
        assert_eq!(snap.total_events(), 2);
        assert_eq!(snap.total_dropped(), 3);
        assert_eq!(snap.count(EventKind::PrimaryFence), 2);
        assert_eq!(snap.count(EventKind::StealSuccess), 0);
    }

    fn deliver(thread: u32, dur: u64) -> FenceEvent {
        FenceEvent {
            nanos: 0,
            thread,
            kind: EventKind::SerializeDeliver,
            guarded_addr: 0,
            dur,
            corr: 0,
        }
    }

    #[test]
    fn latency_histogram_aggregates_across_threads() {
        let snap = TraceSnapshot {
            threads: vec![
                ThreadTrace {
                    tid: 0,
                    name: "a".into(),
                    events: vec![deliver(0, 100), deliver(0, 200)],
                    dropped: 0,
                },
                ThreadTrace {
                    tid: 1,
                    name: "b".into(),
                    events: vec![
                        deliver(1, 100_000),
                        // A different kind must not pollute the histogram.
                        FenceEvent {
                            nanos: 0,
                            thread: 1,
                            kind: EventKind::SafepointExit,
                            guarded_addr: 0,
                            dur: 1,
                            corr: 0,
                        },
                    ],
                    dropped: 0,
                },
            ],
        };
        let h = snap.latency_histogram(EventKind::SerializeDeliver);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 100_300);
        assert_eq!(h.max(), 100_000);
        // Empty snapshot and absent kind both give an empty histogram.
        assert_eq!(
            TraceSnapshot::default()
                .latency_histogram(EventKind::SerializeDeliver)
                .count(),
            0
        );
        assert_eq!(snap.latency_histogram(EventKind::StealAttempt).count(), 0);
    }

    #[test]
    fn latency_histogram_from_wrapped_ring_counts_survivors_only() {
        // 2^2 = 4 slots, 10 appends: the histogram sees the surviving 4
        // events and the drop count stays visible on the trace.
        let ring = ring::ThreadRing::new(0, "wrap", 2);
        for i in 0..10u64 {
            ring.append(i, EventKind::SerializeDeliver, 0, i);
        }
        let t = ring.drain();
        assert_eq!(t.dropped, 6);
        let h = t.latency_histogram(EventKind::SerializeDeliver);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6 + 7 + 8 + 9);
        assert_eq!(h.max(), 9);
    }
}
