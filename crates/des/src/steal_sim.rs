//! Discrete-event simulation of the work-stealing runtime over a
//! benchmark's fork-join DAG — the Figure 5(b) substitute for a 16-core
//! machine.
//!
//! The simulator is a sequentialized copy of the real scheduler in
//! `lbmf-cilk`: per-worker deques of spawned tasks, LIFO pops by the owner
//! (each pop paying the victim-side fence under the symmetric strategy),
//! FIFO steals by thieves (each attempt paying the thief-side fence plus a
//! remote serialization of the victim — which also *delays the victim* by
//! the handler cost, the effect the paper calls out for the signal
//! prototype). Virtual time advances by always stepping the worker with
//! the smallest clock.

use crate::costs::{DesCosts, SerializeKind};
use crate::dag::{Step, Task};
use lbmf_prng::{Rng, SplitMix64};
use lbmf_trace::{EventKind, FenceEvent, ThreadTrace, TraceSnapshot};
use std::collections::VecDeque;

/// Scheduling-action cycle costs (strategy-independent parts).
#[derive(Clone, Copy, Debug)]
pub struct SchedCosts {
    /// Pushing a spawned task and setting up the child frame.
    pub spawn: u64,
    /// Deque pop bookkeeping, excluding the fence.
    pub pop: u64,
    /// Probing a victim's deque (lock attempt, head/tail reads).
    pub probe: u64,
    /// Extra thief back-off after a failed probe (keeps both the real
    /// system and the simulation from busy-spinning at full tilt).
    pub failed_steal_backoff: u64,
}

impl Default for SchedCosts {
    fn default() -> Self {
        SchedCosts {
            spawn: 15,
            pop: 10,
            probe: 60,
            failed_steal_backoff: 2_000,
        }
    }
}

/// Simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct StealSimConfig {
    /// Number of simulated workers (the paper's 16 processors).
    pub workers: usize,
    /// Which serialization mechanism the runtime uses.
    pub kind: SerializeKind,
    /// Cycle cost table.
    pub costs: DesCosts,
    /// Scheduling-action cost table.
    pub sched: SchedCosts,
    /// Seed for victim selection and race outcomes.
    pub seed: u64,
}

impl StealSimConfig {
    /// A configuration with default cost tables and seed.
    pub fn new(workers: usize, kind: SerializeKind) -> Self {
        StealSimConfig {
            workers,
            kind,
            costs: DesCosts::default(),
            sched: SchedCosts::default(),
            seed: 0x5EED,
        }
    }
}

/// Simulation outcome.
#[derive(Clone, Copy, Debug)]
pub struct StealSimResult {
    /// Virtual completion time (cycles).
    pub makespan: u64,
    /// Pure work executed (cycles), equal to the DAG's serial work.
    pub total_work: u64,
    /// Fork nodes executed (spawns).
    pub spawns: u64,
    /// Pop attempts at join points.
    pub pops: u64,
    /// Hardware fences paid on the victim pop path (symmetric only).
    pub victim_fences: u64,
    /// Steal probes against other workers.
    pub steal_attempts: u64,
    /// Steals that obtained a task.
    pub steals: u64,
    /// Remote serializations performed (one per steal attempt under the
    /// asymmetric strategies).
    pub serializations: u64,
}

impl StealSimResult {
    /// Fraction of serializations that became successful steals (the
    /// paper's conversion metric; 1.0 when no serializations happened).
    pub fn conversion(&self) -> f64 {
        if self.serializations == 0 {
            1.0
        } else {
            self.steals as f64 / self.serializations as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SpawnState {
    Queued,
    Stolen,
    Done,
}

struct Spawn {
    task: Task,
    state: SpawnState,
}

enum Cont {
    /// An expanded frame being executed.
    Steps { steps: Vec<Step>, ip: usize },
    /// Resume point after a fork's left child: pop or wait for `spawn`.
    AfterFork { spawn: usize },
    /// The fork's right child was stolen: steal other work until it
    /// completes. Work picked up meanwhile stacks *above* this cont, so
    /// nested joins-while-waiting need no extra bookkeeping.
    WaitJoin { spawn: usize },
    /// Thief-side: mark `spawn` done once its frame finished.
    Complete { spawn: usize },
}

struct Worker {
    clock: u64,
    conts: Vec<Cont>,
    deque: VecDeque<usize>,
}

/// Per-worker event collection during a traced run. Simulated events use
/// the real runtime's schema with virtual cycles in the `nanos` field, so
/// a simulated trace opens in Perfetto next to a real-execution one.
struct SimTrace {
    on: bool,
    events: Vec<Vec<FenceEvent>>,
    /// Simulator-local correlation ids (monotone, deterministic — the
    /// global `lbmf_trace::next_corr_id` would couple otherwise identical
    /// simulated runs to process history).
    next_corr: u64,
}

impl SimTrace {
    fn off() -> Self {
        SimTrace {
            on: false,
            events: Vec::new(),
            next_corr: 0,
        }
    }

    fn on(workers: usize) -> Self {
        SimTrace {
            on: true,
            events: vec![Vec::new(); workers],
            next_corr: 0,
        }
    }

    /// Mint a causal chain id (0 when tracing is off, matching the real
    /// runtime's compiled-out behavior).
    #[inline]
    fn mint_corr(&mut self) -> u64 {
        if self.on {
            self.next_corr += 1;
            self.next_corr
        } else {
            0
        }
    }

    #[inline]
    fn emit(&mut self, w: usize, clock: u64, kind: EventKind, addr: usize, dur: u64) {
        self.emit_corr(w, clock, kind, addr, dur, 0);
    }

    #[inline]
    fn emit_corr(&mut self, w: usize, clock: u64, kind: EventKind, addr: usize, dur: u64, corr: u64) {
        if self.on {
            self.events[w].push(FenceEvent {
                nanos: clock,
                thread: w as u32,
                kind,
                guarded_addr: addr,
                dur,
                corr,
            });
        }
    }

    fn into_snapshot(self) -> TraceSnapshot {
        TraceSnapshot {
            threads: self
                .events
                .into_iter()
                .enumerate()
                .map(|(w, events)| ThreadTrace {
                    tid: w as u32,
                    name: format!("sim-worker-{w}"),
                    events,
                    dropped: 0,
                })
                .collect(),
        }
    }
}

/// Run the simulation to completion.
pub fn simulate(root: Task, cfg: &StealSimConfig) -> StealSimResult {
    run(root, cfg, &mut SimTrace::off())
}

/// Run the simulation and also collect its event trace (same schedule and
/// result as [`simulate`] — tracing never perturbs the simulation).
pub fn simulate_traced(root: Task, cfg: &StealSimConfig) -> (StealSimResult, TraceSnapshot) {
    let mut trace = SimTrace::on(cfg.workers);
    let res = run(root, cfg, &mut trace);
    (res, trace.into_snapshot())
}

fn run(root: Task, cfg: &StealSimConfig, trace: &mut SimTrace) -> StealSimResult {
    assert!(cfg.workers >= 1);
    let mut workers: Vec<Worker> = (0..cfg.workers)
        .map(|_| Worker {
            clock: 0,
            conts: Vec::new(),
            deque: VecDeque::new(),
        })
        .collect();
    workers[0].conts.push(Cont::Steps {
        steps: root.expand(),
        ip: 0,
    });
    let mut spawns: Vec<Spawn> = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed.wrapping_mul(2).wrapping_add(1));
    let mut res = StealSimResult {
        makespan: 0,
        total_work: 0,
        spawns: 0,
        pops: 0,
        victim_fences: 0,
        steal_attempts: 0,
        steals: 0,
        serializations: 0,
    };

    // Root completion: worker 0's stack empties only when the whole DAG is
    // done (its AfterFork conts stall until every stolen child finished).
    let root_done = |workers: &Vec<Worker>| workers[0].conts.is_empty();

    let mut steps_guard: u64 = 0;
    loop {
        if root_done(&workers) {
            break;
        }
        steps_guard += 1;
        assert!(
            steps_guard < 2_000_000_000,
            "simulation failed to converge"
        );
        // The worker with the smallest clock acts next. Workers are always
        // runnable (idle ones steal).
        let w = (0..cfg.workers)
            .min_by_key(|&i| workers[i].clock)
            .unwrap();
        advance(w, &mut workers, &mut spawns, &mut rng, cfg, &mut res, trace);
    }
    res.makespan = workers.iter().map(|w| w.clock).max().unwrap_or(0);
    res
}

fn advance(
    w: usize,
    workers: &mut [Worker],
    spawns: &mut Vec<Spawn>,
    rng: &mut SplitMix64,
    cfg: &StealSimConfig,
    res: &mut StealSimResult,
    trace: &mut SimTrace,
) {
    enum Decision {
        Idle,
        FrameDone,
        DoStep(Step),
        AfterFork(usize),
        WaitJoin(usize),
        Complete(usize),
    }
    let decision = match workers[w].conts.last_mut() {
        None => Decision::Idle,
        Some(Cont::Steps { steps, ip }) => {
            if *ip < steps.len() {
                let step = steps[*ip];
                *ip += 1;
                Decision::DoStep(step)
            } else {
                Decision::FrameDone
            }
        }
        Some(Cont::AfterFork { spawn }) => Decision::AfterFork(*spawn),
        Some(Cont::WaitJoin { spawn }) => Decision::WaitJoin(*spawn),
        Some(Cont::Complete { spawn }) => Decision::Complete(*spawn),
    };
    match decision {
        Decision::Idle => {
            try_steal(w, workers, spawns, rng, cfg, res, trace);
        }
        Decision::FrameDone => {
            workers[w].conts.pop();
            workers[w].clock += 1;
        }
        Decision::DoStep(Step::Work(c)) => {
            workers[w].clock += c.max(1);
            res.total_work += c;
        }
        Decision::DoStep(Step::Call(t)) => {
            workers[w].clock += 2;
            workers[w].conts.push(Cont::Steps {
                steps: t.expand(),
                ip: 0,
            });
        }
        Decision::DoStep(Step::Fork(left, right)) => {
            let id = spawns.len();
            spawns.push(Spawn {
                task: right,
                state: SpawnState::Queued,
            });
            workers[w].deque.push_back(id);
            res.spawns += 1;
            workers[w].clock += cfg.sched.spawn;
            workers[w].conts.push(Cont::AfterFork { spawn: id });
            workers[w].conts.push(Cont::Steps {
                steps: left.expand(),
                ip: 0,
            });
        }
        Decision::AfterFork(id) => {
            workers[w].conts.pop();
            res.pops += 1;
            let mut cost = cfg.sched.pop + cfg.costs.victim_fence(cfg.kind);
            // The l-mfence position: what the victim's pop pays here is
            // the event the whole asymmetry is about.
            let fence_kind = if cfg.kind.victim_pays_fence() {
                res.victim_fences += 1;
                EventKind::PrimaryFullFence
            } else {
                EventKind::PrimaryFence
            };
            trace.emit(w, workers[w].clock, fence_kind, id, 0);
            match workers[w].deque.back().copied() {
                Some(top) if top == id => {
                    // Fast path: our spawn is still ours — run it inline.
                    workers[w].deque.pop_back();
                    spawns[id].state = SpawnState::Done; // owner-inlined
                    workers[w].conts.push(Cont::Steps {
                        steps: spawns[id].task.expand(),
                        ip: 0,
                    });
                }
                _ => match spawns[id].state {
                    SpawnState::Done => {}
                    SpawnState::Stolen => {
                        // THE conflict path: take the lock, discover the
                        // steal, then wait (stealing meanwhile).
                        cost += cfg.costs.lock;
                        workers[w].conts.push(Cont::WaitJoin { spawn: id });
                    }
                    SpawnState::Queued => {
                        unreachable!("balanced frames: queued spawn must be on top")
                    }
                },
            }
            workers[w].clock += cost;
        }
        Decision::WaitJoin(id) => {
            if spawns[id].state == SpawnState::Done {
                workers[w].conts.pop();
                workers[w].clock += 1;
            } else {
                try_steal(w, workers, spawns, rng, cfg, res, trace);
            }
        }
        Decision::Complete(id) => {
            spawns[id].state = SpawnState::Done;
            workers[w].conts.pop();
            workers[w].clock += 1;
        }
    }
}

fn try_steal(
    w: usize,
    workers: &mut [Worker],
    spawns: &mut [Spawn],
    rng: &mut SplitMix64,
    cfg: &StealSimConfig,
    res: &mut StealSimResult,
    trace: &mut SimTrace,
) {
    if cfg.workers == 1 {
        // Nobody to steal from; just idle briefly.
        workers[w].clock += cfg.sched.failed_steal_backoff;
        return;
    }
    // Probe one random victim per action, as the real thief loop does.
    let mut v = (rng.next_u64() % (cfg.workers as u64 - 1)) as usize;
    if v >= w {
        v += 1;
    }
    res.steal_attempts += 1;
    if workers[v].deque.is_empty() {
        // Cheap peek (an unsynchronized head/tail read): an apparently
        // empty deque is skipped without engaging the Dekker protocol —
        // no lock, no fence, no serialization. This is how the paper's
        // runs keep signal-to-steal conversion in the 50-90% range.
        workers[w].clock += cfg.sched.probe + cfg.sched.failed_steal_backoff;
        return;
    }
    // Engage the full protocol: lock, H++, own fence, remote serialization
    // of the victim, read T. The whole attempt is one causal chain, same
    // schema as the real deque: steal-attempt → serialize phases (thief
    // and victim rows) → steal-success, linked by one correlation id in
    // virtual time.
    let corr = trace.mint_corr();
    trace.emit_corr(w, workers[w].clock, EventKind::StealAttempt, v, 0, corr);
    trace.emit(w, workers[w].clock, EventKind::SecondaryFence, v, 0);
    let (req_cost, victim_cost) = cfg.costs.serialize(cfg.kind);
    if req_cost > 0 || victim_cost > 0 {
        res.serializations += 1;
        let sent = workers[w].clock;
        trace.emit_corr(w, sent, EventKind::SerializeRequest, v, 0, corr);
        trace.emit_corr(w, sent, EventKind::SerializeSignalSent, v, 0, corr);
        // Victim-side handler phases, stamped on the victim's row. The
        // min-clock scheduler only lets the thief act when its clock is
        // the smallest, so `workers[v].clock >= sent`: the handler starts
        // at the victim's current clock (delivery latency = how far the
        // victim's clock is ahead) and the drain completes `victim_cost`
        // cycles later. These stamps are trace-only — the clock
        // arithmetic below is exactly what `simulate` (untraced) does.
        let enter = workers[v].clock;
        trace.emit_corr(v, enter, EventKind::SerializeHandlerEnter, w, 0, corr);
        trace.emit_corr(v, enter + victim_cost, EventKind::SerializeDrained, w, 0, corr);
        trace.emit_corr(w, sent, EventKind::SerializeDeliver, v, req_cost, corr);
        trace.emit_corr(w, sent + req_cost, EventKind::SerializeAckObserved, v, 0, corr);
    }
    let mut cost = cfg.sched.probe + cfg.costs.lock + cfg.costs.mfence + req_cost;
    // The victim is interrupted (signal handler / IPI / SB flush).
    workers[v].clock += victim_cost;
    // With a single queued item the victim races the thief for it: under
    // the asymmetric protocol the victim's fence-free T-decrement can sit
    // unseen in its store buffer until the serialization lands, so the
    // thief loses about half of these races. Benchmarks whose DAGs run
    // through serial chains (cholesky, lu) keep deques at one item and
    // lose often — the paper's poor-conversion cases; leaf-heavy DAGs
    // (fib) rarely expose a last item.
    let race_lost = workers[v].deque.len() == 1 && rng.next_u64().is_multiple_of(2);
    if race_lost {
        cost += cfg.sched.failed_steal_backoff;
    } else {
        let id = workers[v].deque.pop_front().expect("non-empty checked");
        debug_assert_eq!(spawns[id].state, SpawnState::Queued);
        spawns[id].state = SpawnState::Stolen;
        res.steals += 1;
        trace.emit_corr(w, workers[w].clock + cost, EventKind::StealSuccess, v, 0, corr);
        workers[w].conts.push(Cont::Complete { spawn: id });
        workers[w].conts.push(Cont::Steps {
            steps: spawns[id].task.expand(),
            ip: 0,
        });
    }
    workers[w].clock += cost;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(root: Task, workers: usize, kind: SerializeKind) -> StealSimResult {
        simulate(root, &StealSimConfig::new(workers, kind))
    }

    #[test]
    fn single_worker_executes_all_work() {
        let root = Task::Fib { n: 15 };
        let m = root.measure();
        let r = run(root, 1, SerializeKind::Symmetric);
        assert_eq!(r.total_work, m.work);
        assert_eq!(r.spawns, m.forks);
        assert_eq!(r.steals, 0);
        assert!(r.makespan >= m.work);
    }

    #[test]
    fn work_conserved_across_worker_counts() {
        let root = Task::Sort { len: 200_000 };
        let w = root.measure().work;
        for p in [1usize, 2, 4, 16] {
            for kind in [SerializeKind::Symmetric, SerializeKind::Signal, SerializeKind::LeSt] {
                let r = run(root, p, kind);
                assert_eq!(r.total_work, w, "p={p} {kind:?}");
                assert_eq!(r.pops, r.spawns, "every spawn is popped or waited for");
            }
        }
    }

    #[test]
    fn parallelism_reduces_makespan() {
        let root = Task::Mm { m: 256, k: 256, n: 256 };
        let r1 = run(root, 1, SerializeKind::Symmetric);
        let r16 = run(root, 16, SerializeKind::Symmetric);
        assert!(
            (r16.makespan as f64) < 0.25 * r1.makespan as f64,
            "16 workers should be ≥4x faster: {} vs {}",
            r16.makespan,
            r1.makespan
        );
    }

    #[test]
    fn serial_asymmetric_beats_serial_symmetric() {
        // Figure 5(a)'s mechanism: with one worker, the asymmetric runtime
        // skips the per-pop fence and nothing ever serializes it.
        let root = Task::Fib { n: 20 };
        let sym = run(root, 1, SerializeKind::Symmetric);
        let asym = run(root, 1, SerializeKind::Signal);
        assert_eq!(asym.serializations, 0);
        assert!(asym.makespan < sym.makespan);
        assert!(sym.victim_fences > 0);
        assert_eq!(asym.victim_fences, 0);
    }

    #[test]
    fn lest_dominates_signal_in_parallel() {
        // Same DAG, same workers: the proposed hardware's cheap round trip
        // must never lose to the 10k-cycle signal prototype.
        let root = Task::Fib { n: 22 };
        let signal = run(root, 8, SerializeKind::Signal);
        let lest = run(root, 8, SerializeKind::LeSt);
        assert!(
            lest.makespan <= signal.makespan,
            "LE/ST {} vs signal {}",
            lest.makespan,
            signal.makespan
        );
    }

    #[test]
    fn conversion_is_a_fraction() {
        let r = run(Task::Fib { n: 18 }, 4, SerializeKind::Signal);
        let c = r.conversion();
        assert!((0.0..=1.0).contains(&c));
        assert!(r.steal_attempts >= r.steals);
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_agree() {
        let cfg = StealSimConfig::new(4, SerializeKind::Signal);
        let root = Task::Fib { n: 18 };
        let plain = simulate(root, &cfg);
        let (traced, snap) = simulate_traced(root, &cfg);
        assert_eq!(plain.makespan, traced.makespan, "tracing must not perturb");
        assert_eq!(plain.steals, traced.steals);
        // The event stream is the result's counters, itemized.
        assert_eq!(snap.count(EventKind::StealSuccess), traced.steals);
        assert_eq!(snap.count(EventKind::SerializeRequest), traced.serializations);
        assert_eq!(snap.count(EventKind::PrimaryFence), traced.pops);
        assert_eq!(snap.count(EventKind::PrimaryFullFence), 0, "asymmetric run");
        assert_eq!(snap.threads.len(), 4);
        assert!(snap.threads.iter().all(|t| t.dropped == 0));
        assert_eq!(snap.threads[2].name, "sim-worker-2");
        // Virtual timestamps are per-worker monotone, and a simulated
        // snapshot exports through the same Chrome path as a real one.
        for t in &snap.threads {
            assert!(t.events.windows(2).all(|p| p[0].nanos <= p[1].nanos));
        }
        let json = lbmf_trace::chrome::export(&snap);
        lbmf_trace::chrome::validate_with_serialize_pair(&json).expect("valid chrome trace");
    }

    #[test]
    fn simulated_chains_reconstruct_like_real_ones() {
        use lbmf_trace::causal::{ChainSet, Completeness, Phase};
        let cfg = StealSimConfig::new(4, SerializeKind::Signal);
        let (res, snap) = simulate_traced(Task::Fib { n: 18 }, &cfg);
        let set = ChainSet::from_snapshot(&snap);
        assert!(!set.chains.is_empty());
        // Every chain comes from a steal attempt and is flagged as such.
        assert!(set.chains.iter().all(|c| c.is_steal()));
        // Every serialization produced a complete request→ack chain
        // (simulated rings never wrap, so no orphans are possible).
        let with_serialize = set
            .chains
            .iter()
            .filter(|c| c.round_trip_nanos().is_some())
            .count() as u64;
        assert_eq!(with_serialize, res.serializations);
        let complete = set
            .chains
            .iter()
            .filter(|c| c.completeness() == Completeness::Complete)
            .count() as u64;
        assert_eq!(complete, res.serializations);
        assert_eq!(set.accounting().dropped_events, 0);
        // Virtual-time phase attribution: the drain phase is exactly the
        // configured victim interruption cost on every chain.
        let (_, victim_cost) = cfg.costs.serialize(cfg.kind);
        for c in &set.chains {
            if c.completeness() == Completeness::Complete {
                assert_eq!(c.phase_nanos(Phase::Drain), Some(victim_cost));
                assert_eq!(c.phase_nanos(Phase::Queue), Some(0), "queueing is instant in sim");
            }
        }
        // The chains cross rows: requester and target differ.
        let cross = set
            .chains
            .iter()
            .filter(|c| c.requester().is_some() && c.target().is_some())
            .all(|c| c.requester() != c.target());
        assert!(cross, "victim phases land on the victim's row");
        // And the export carries matching flow events end to end.
        let json = lbmf_trace::chrome::export(&snap);
        lbmf_trace::chrome::validate(&json).expect("flow-paired chrome trace");
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"name\":\"steal-chain\""));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = StealSimConfig::new(4, SerializeKind::Signal);
        let a = simulate(Task::Fib { n: 18 }, &cfg);
        let b = simulate(Task::Fib { n: 18 }, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.steals, b.steals);
    }
}

#[cfg(test)]
mod smoke {
    use super::*;
    #[test]
    #[ignore]
    fn fig5b_scale_smoke() {
        for name in ["fib", "cholesky", "heat", "cilksort"] {
            let root = Task::benchmark_root(name).unwrap();
            let t0 = std::time::Instant::now();
            let sym = simulate(root, &StealSimConfig::new(16, SerializeKind::Symmetric));
            let sig = simulate(root, &StealSimConfig::new(16, SerializeKind::Signal));
            let lest = simulate(root, &StealSimConfig::new(16, SerializeKind::LeSt));
            println!(
                "{name}: sym={} sig={} lest={} ratio_sig={:.3} ratio_lest={:.3} conv={:.2} ({:?})",
                sym.makespan, sig.makespan, lest.makespan,
                sig.makespan as f64 / sym.makespan as f64,
                lest.makespan as f64 / sym.makespan as f64,
                sig.conversion(), t0.elapsed()
            );
        }
    }
}

#[cfg(test)]
mod serial_ratio_smoke {
    use super::*;
    #[test]
    #[ignore]
    fn print_serial_ratios() {
        for name in ["fib", "fibx"] {
            let root = Task::benchmark_root(name).unwrap();
            let sym = simulate(root, &StealSimConfig::new(1, SerializeKind::Symmetric));
            let sig = simulate(root, &StealSimConfig::new(1, SerializeKind::Signal));
            println!("{name}: serial ratio {:.3}", sig.makespan as f64 / sym.makespan as f64);
        }
    }
}
