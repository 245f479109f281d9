//! # lbmf-obs — the perf observatory
//!
//! The paper's argument is quantitative; until this crate, the repo's
//! numbers evaporated at process exit. `lbmf-obs` gives the benchmark
//! suite a memory and the runtime a pulse:
//!
//! * **`record`** ([`suite`]) drives the benchmark suite in process and
//!   writes a schema-versioned `BENCH_<n>.json` ([`schema`]) at the
//!   repository root: per-benchmark min/mean/max ns-per-iter with sample
//!   count and coefficient of variation, the fence-strategy label,
//!   [`FenceStats`](lbmf::stats::FenceStats) counter diffs, serialize
//!   round-trip percentiles from the trace rings, and host metadata.
//! * **`compare`** ([`compare`]) loads two recordings and reports
//!   noise-aware deltas — each benchmark's regression threshold scales
//!   with its own measured CV — with a `--gate` mode for CI.
//! * **`explain`** ([`explain`]) reads an exported Chrome trace back in,
//!   reconstructs the causal serialization chains from their correlation
//!   ids, and prints per-phase latency attribution (queue → delivery →
//!   drain → ack) with orphan/lossiness accounting — the offline half of
//!   the cross-thread flight recorder.
//! * **`sim` / `validate`** ([`sim`]) point the observatory at the
//!   cycle-accurate simulator: `sim` attributes coherence traffic to the
//!   instruction classes that caused it and compares the l-mfence and
//!   mfence serialization bills, and `validate` structurally checks any
//!   exported Chrome trace (flow pairing included).
//! * **[`http`] and [`metrics`]** are the library half of a live
//!   endpoint: `/metrics` (Prometheus exposition format: the trace-ring
//!   export plus fence counters) and a *computed* `/healthz` from a
//!   std-only HTTP server. The serving examples (`work_stealing --serve`,
//!   `store_server --serve`) mount them on a running workload.
//! * **`doctor`** ([`doctor`]) parses the shard-health gauge schema —
//!   from a live `/metrics` scrape or a DES-written snapshot file — and
//!   prints a per-shard diagnosis (stuck readers attributed by slot id,
//!   limbo pressure) with a CI exit code.
//! * **`heat`** ([`heat`]) parses the workload-heat gauge schema from
//!   the same two sources — an armed store's live scrape or a DES
//!   `kv_sim` heat dump — and reports the hot-key spectrum, the
//!   re-derived Zipfian-θ estimate with its confidence, per-shard skew
//!   attribution, and a hot-key/imbalance verdict, with an
//!   `--expect-theta` CI gate.
//! * **`trend`** ([`trend`]) fits every benchmark's mean across *all*
//!   committed `BENCH_*.json` recordings and reports %/recording slopes
//!   against each benchmark's own noise floor — the slow-drift detector
//!   pairwise `compare` cannot be.
//!
//! `doctor` and `heat` fetch their exposition text through one
//! dual-source helper ([`source`]): `--snapshot FILE` or a live
//! `--addr` scrape.
//!
//! Everything is std-only (JSON goes through [`lbmf_trace::json`], a
//! hand-rolled parser/writer) — the observatory obeys the same
//! offline-build rule as the runtime it watches, and its
//! instrumentation reads are all drainer-side: scraping `/metrics`
//! never adds a fence to the traced fast path.

#![warn(missing_docs)]

pub mod compare;
pub mod doctor;
pub mod explain;
pub mod heat;
pub mod http;
pub mod metrics;
pub mod schema;
pub mod sim;
pub mod source;
pub mod suite;
pub mod trend;
