//! The LE/ST mechanism across coherence-protocol variants.
//!
//! Section 2 of the paper: "we assume that the target architecture employs
//! the MESI cache coherence protocol, although the mechanism can be adapted
//! to other variants such as MSI and MOESI". These tests *are* that
//! adaptation check: the litmus outcomes, the Dekker theorems, and the
//! trace invariants must be identical under all three protocols (the
//! protocol changes cost and traffic, never observable memory semantics).

use lbmf_prng::{Rng, SplitMix64};
use lbmf_sim::prelude::*;

const PROTOCOLS: [Coherence; 3] = [Coherence::Msi, Coherence::Mesi, Coherence::Moesi];

fn checking_machine(progs: Vec<Program>, coherence: Coherence) -> Machine {
    let cfg = MachineConfig {
        record_trace: false,
        coherence,
        ..MachineConfig::default()
    };
    Machine::new(cfg, CostModel::zero(), progs)
}

#[test]
fn sb_outcomes_identical_across_protocols() {
    for kinds in [
        [FenceKind::None, FenceKind::None],
        [FenceKind::Lmfence, FenceKind::Mfence],
        [FenceKind::Lmfence, FenceKind::Lmfence],
    ] {
        let mut reference = None;
        for p in PROTOCOLS {
            let m = checking_machine(litmus_sb(kinds), p);
            let r = Explorer::default().explore(m, |m| (m.cpus[0].regs[0], m.cpus[1].regs[0]));
            assert!(!r.truncated, "{} {kinds:?}", p.label());
            match &reference {
                None => reference = Some(r.outcomes),
                Some(expect) => assert_eq!(
                    &r.outcomes,
                    expect,
                    "{} disagrees on {kinds:?}",
                    p.label()
                ),
            }
        }
    }
}

#[test]
fn dekker_theorem_7_holds_under_all_protocols() {
    let opt = DekkerOptions {
        iters: 1,
        cs_mem_ops: true,
        cs_work: 0,
    };
    for p in PROTOCOLS {
        let m = checking_machine(dekker_asymmetric(opt), p);
        let r = Explorer::default().explore(m, |m| (m.cpus[0].regs[1], m.cpus[1].regs[1]));
        assert!(!r.truncated, "{}", p.label());
        assert_eq!(r.mutex_violations, 0, "Theorem 7 violated under {}", p.label());
        assert!(r.has_outcome(&(1, 1)), "{}", p.label());
    }
}

#[test]
fn dekker_unfenced_broken_under_all_protocols() {
    let opt = DekkerOptions {
        iters: 1,
        cs_mem_ops: false,
        cs_work: 0,
    };
    for p in PROTOCOLS {
        let m = checking_machine(dekker_pair([FenceKind::None, FenceKind::None], opt), p);
        let r = Explorer::default().explore(m, |m| (m.cpus[0].regs[1], m.cpus[1].regs[1]));
        assert!(
            r.mutex_violations > 0,
            "the TSO bug must exist regardless of protocol ({})",
            p.label()
        );
    }
}

#[test]
fn moesi_reaches_owned_state_and_supplies_data() {
    // CPU0 writes (M), CPU1 reads: under MOESI CPU0 keeps the dirty line
    // as Owned and memory stays stale; CPU1 still observes the value.
    let mut b0 = ProgramBuilder::new("writer");
    b0.st(Addr(1), 42u64).mfence().halt();
    let mut b1 = ProgramBuilder::new("reader");
    b1.ld(0, Addr(1)).halt();
    let cfg = MachineConfig {
        coherence: Coherence::Moesi,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), vec![b0.build(), b1.build()]);
    while !m.cpus[0].halted {
        m.apply(Transition::Step(0));
    }
    m.apply(Transition::Step(1));
    assert_eq!(m.cpus[1].regs[0], 42, "reader must see the dirty data");
    let line = m.cfg.geom.line_of(Addr(1));
    assert_eq!(m.caches[0].state(line), Mesi::O, "writer keeps Owned");
    assert_eq!(m.caches[1].state(line), Mesi::S);
    assert_eq!(m.mem_word(Addr(1)), 0, "memory stays stale under MOESI");
    assert_eq!(m.coherent_word(Addr(1)), 42);
    m.check_coherence().unwrap();
}

#[test]
fn msi_never_grants_silent_exclusive_on_read() {
    // Under MSI a lone read miss installs S, so a subsequent store must
    // issue a bus upgrade (observable as traffic).
    let mut b = ProgramBuilder::new("p");
    b.ld(0, Addr(1)).st(Addr(1), 1u64).mfence().halt();
    let cfg = MachineConfig {
        coherence: Coherence::Msi,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), vec![b.build()]);
    let mut guard = 0;
    while !m.is_terminal() {
        let ts = m.enabled_transitions();
        m.apply(ts[0]);
        guard += 1;
        assert!(guard < 1000);
    }
    assert!(m.stats.bus_upgr >= 1, "MSI store-after-read needs an upgrade");

    // Under MESI the same program upgrades silently (E -> M).
    let mut b = ProgramBuilder::new("p");
    b.ld(0, Addr(1)).st(Addr(1), 1u64).mfence().halt();
    let mut m2 = Machine::new(MachineConfig::default(), CostModel::default(), vec![b.build()]);
    let mut guard = 0;
    while !m2.is_terminal() {
        let ts = m2.enabled_transitions();
        m2.apply(ts[0]);
        guard += 1;
        assert!(guard < 1000);
    }
    assert_eq!(m2.stats.bus_upgr, 0, "MESI upgrades E->M silently");
}

#[test]
fn msi_link_requires_modified_state() {
    // Under MSI the LE acquires M directly, and the link still works: a
    // lone l-mfence skips the fence, a remote read breaks the link.
    let mut b0 = ProgramBuilder::new("primary");
    b0.lmfence(Addr(1), 7u64).halt();
    let mut b1 = ProgramBuilder::new("secondary");
    b1.ld(0, Addr(1)).halt();
    let cfg = MachineConfig {
        coherence: Coherence::Msi,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), vec![b0.build(), b1.build()]);
    while !m.cpus[0].halted {
        m.apply(Transition::Step(0));
    }
    assert_eq!(m.stats.mfences, 0, "lone l-mfence must not stall under MSI");
    assert!(m.cpus[0].le_bit);
    m.apply(Transition::Step(1));
    assert_eq!(m.cpus[1].regs[0], 7);
    assert!(!m.cpus[0].le_bit, "remote read must break the link");
    m.check_coherence().unwrap();
}

#[test]
fn owned_line_eviction_writes_back() {
    // Get a line into O (MOESI), then force its eviction with a tiny
    // cache; the dirty data must land in memory.
    let mut b0 = ProgramBuilder::new("writer");
    b0.st(Addr(1), 9u64)
        .mfence()
        .work(1) // placeholder; reader runs here
        .ld(2, Addr(10))
        .ld(3, Addr(11))
        .halt();
    let mut b1 = ProgramBuilder::new("reader");
    b1.ld(0, Addr(1)).halt();
    let cfg = MachineConfig {
        coherence: Coherence::Moesi,
        cache_capacity: 2,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, CostModel::default(), vec![b0.build(), b1.build()]);
    // Writer stores + fences (line M).
    for _ in 0..3 {
        m.apply(Transition::Step(0));
    }
    // Reader downgrades it to O.
    m.apply(Transition::Step(1));
    let line = m.cfg.geom.line_of(Addr(1));
    assert_eq!(m.caches[0].state(line), Mesi::O);
    // Writer's two more loads evict the O line from its 2-line cache.
    while !m.cpus[0].halted {
        m.apply(Transition::Step(0));
    }
    assert_eq!(m.mem_word(Addr(1)), 9, "evicted Owned line must write back");
    m.check_coherence().unwrap();
}

// -----------------------------------------------------------------------
// Property tests across protocols
// -----------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Load(u8, u64),
    Store(u64, u64),
    Fence,
    Lmfence(u64, u64),
}

/// One random op, weighted
/// (load 4 : store 4 : fence 1 : l-mfence 2).
fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.bounded_u64(11) {
        0..=3 => Op::Load(rng.bounded_u64(4) as u8, rng.bounded_u64(4)),
        4..=7 => Op::Store(rng.bounded_u64(4), 1 + rng.bounded_u64(15)),
        8 => Op::Fence,
        _ => Op::Lmfence(rng.bounded_u64(4), 1 + rng.bounded_u64(15)),
    }
}

fn random_ops(rng: &mut SplitMix64, max_len: usize) -> Vec<Op> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| random_op(rng)).collect()
}

fn build(name: &str, ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::new(name);
    for op in ops {
        match *op {
            Op::Load(r, a) => {
                b.ld(r, Addr(a));
            }
            Op::Store(a, v) => {
                b.st(Addr(a), v);
            }
            Op::Fence => {
                b.mfence();
            }
            Op::Lmfence(a, v) => {
                b.lmfence(Addr(a), v);
            }
        }
    }
    b.halt();
    b.build()
}

/// Random programs satisfy all trace invariants under every protocol.
#[test]
fn random_programs_satisfy_invariants_under_all_protocols() {
    let mut rng = SplitMix64::seed_from_u64(0x5151_0001);
    for case in 0..48 {
        let ops0 = random_ops(&mut rng, 10);
        let ops1 = random_ops(&mut rng, 10);
        let proto = PROTOCOLS[case % 3];
        let cfg = MachineConfig {
            record_trace: true,
            coherence: proto,
            ..MachineConfig::default()
        };
        let progs = vec![build("p0", &ops0), build("p1", &ops1)];
        let mut m = Machine::new(cfg, CostModel::zero(), progs);
        let mut sched = SplitMix64::seed_from_u64(rng.next_u64());
        assert!(m.run_random(&mut sched, 100_000));
        if let Err(e) = check_all(&m, &[]) {
            panic!("invariant violated under {}: {e}", proto.label());
        }
    }
}

/// The final coherent memory state is protocol-independent for the same
/// program under the same schedule seed.
#[test]
fn final_state_protocol_independent() {
    let mut rng = SplitMix64::seed_from_u64(0x5151_0002);
    for _ in 0..32 {
        let ops0 = random_ops(&mut rng, 10);
        let ops1 = random_ops(&mut rng, 10);
        let seed = rng.next_u64();
        let run = |coherence| {
            let cfg = MachineConfig {
                record_trace: false,
                coherence,
                ..MachineConfig::default()
            };
            let progs = vec![build("p0", &ops0), build("p1", &ops1)];
            let mut m = Machine::new(cfg, CostModel::zero(), progs);
            let mut sched = SplitMix64::seed_from_u64(seed);
            assert!(m.run_random(&mut sched, 100_000));
            (0..4u64).map(|a| m.coherent_word(Addr(a))).collect::<Vec<_>>()
        };
        let msi = run(Coherence::Msi);
        let mesi = run(Coherence::Mesi);
        let moesi = run(Coherence::Moesi);
        // Transition enablement depends only on program state and store
        // buffers — never on cache states — so the same seed yields the
        // same interleaving under every protocol, and the final coherent
        // memory must agree exactly.
        assert_eq!(msi, mesi, "MSI vs MESI diverged");
        assert_eq!(mesi, moesi, "MESI vs MOESI diverged");
    }
}
