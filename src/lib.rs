//! # lbmf-repro — Location-Based Memory Fences (SPAA 2011)
//!
//! Facade crate for the reproduction of *Location-Based Memory Fences* by
//! Ladan-Mozes, Lee, and Vyukov (SPAA 2011). It re-exports the four member
//! crates so examples and integration tests can use a single dependency:
//!
//! * [`sim`] — a cycle-level TSO machine simulator (store buffers, MESI
//!   coherence, the proposed LE/ST hardware mechanism) with an interleaving
//!   model checker used to validate the paper's theorems.
//! * [`fences`] — the real-thread library: program-based and location-based
//!   fence strategies, the asymmetric Dekker protocol, biased locks, and the
//!   reader-biased ARW / ARW+ / SRW locks of Section 5.
//! * [`cilk`] — a Cilk-5-style work-stealing runtime whose THE-protocol
//!   deque is parameterized over the victim-side fence strategy, plus the 12
//!   benchmark kernels of Figure 4.
//! * [`des`] — discrete-event simulations reproducing the multi-core
//!   experiments (Figures 5(b) and 6) at core counts beyond the host's.
//! * [`trace`] — zero-fence event tracing: per-thread lock-free rings fed
//!   by the runtime crates (behind their `trace` feature), with Chrome
//!   trace-event / Prometheus / summary exporters.
//! * [`store`] — a sharded read-mostly KV serving tier whose epoch-pinned
//!   snapshot reads ride the fence-free primary fast path, with a Zipfian
//!   workload generator that replays identically through [`des`].
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record.

pub use lbmf as fences;
pub use lbmf_cilk as cilk;
pub use lbmf_des as des;
pub use lbmf_sim as sim;
pub use lbmf_store as store;
pub use lbmf_trace as trace;
