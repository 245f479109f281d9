//! Property-style tests: random programs, random schedules, and the
//! machine's semantic invariants.
//!
//! Strategy: generate arbitrary straight-line programs over a small address
//! space (loads, stores, fences, `l-mfence`s, local work), run them under a
//! randomly sampled schedule, and assert the checkers of [`lbmf_sim::check`]
//! hold on the recorded trace:
//!
//! * every load reads the latest completed store (or its own forwarded one);
//! * each CPU's stores complete in FIFO order (TSO principle 3);
//! * guarded stores are never read remotely before completing (Lemma 3);
//! * MESI single-writer-multiple-readers and clean-line agreement.
//!
//! Program shapes and schedule seeds come from a fixed SplitMix64 stream,
//! so every run checks the same cases.

use lbmf_prng::{Rng, SplitMix64};
use lbmf_sim::prelude::*;

/// A generatable instruction blueprint (resolved to real instructions).
#[derive(Clone, Debug)]
enum Op {
    Load { reg: u8, addr: u64 },
    Store { addr: u64, val: u64 },
    Fence,
    Lmfence { addr: u64, val: u64 },
    Alu,
}

/// One random op, weighted
/// (load 4 : store 4 : fence 1 : l-mfence 2 : alu 1).
fn random_op(rng: &mut SplitMix64, num_addrs: u64) -> Op {
    match rng.bounded_u64(12) {
        0..=3 => Op::Load {
            reg: rng.bounded_u64(4) as u8,
            addr: rng.bounded_u64(num_addrs),
        },
        4..=7 => Op::Store {
            addr: rng.bounded_u64(num_addrs),
            val: 1 + rng.bounded_u64(15),
        },
        8 => Op::Fence,
        9 | 10 => Op::Lmfence {
            addr: rng.bounded_u64(num_addrs),
            val: 1 + rng.bounded_u64(15),
        },
        _ => Op::Alu,
    }
}

fn random_ops(rng: &mut SplitMix64, num_addrs: u64, max_len: usize) -> Vec<Op> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| random_op(rng, num_addrs)).collect()
}

fn build_program(name: &str, ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::new(name);
    for op in ops {
        match *op {
            Op::Load { reg, addr } => {
                b.ld(reg, Addr(addr));
            }
            Op::Store { addr, val } => {
                b.st(Addr(addr), val);
            }
            Op::Fence => {
                b.mfence();
            }
            Op::Lmfence { addr, val } => {
                b.lmfence(Addr(addr), val);
            }
            Op::Alu => {
                b.add(7, Operand::Reg(7), 1u64);
            }
        }
    }
    b.halt();
    b.build()
}

fn machine_config(line_shift: u32, cache_capacity: usize, sb_capacity: usize) -> MachineConfig {
    MachineConfig {
        geom: Geometry::new(line_shift),
        sb_capacity,
        cache_capacity,
        record_trace: true,
        interrupts_enabled: false,
        coherence: Coherence::Mesi,
    }
}

fn run_and_check(progs: Vec<Program>, cfg: MachineConfig, seed: u64) {
    let mut m = Machine::new(cfg, CostModel::zero(), progs);
    let mut rng = SplitMix64::seed_from_u64(seed);
    assert!(m.run_random(&mut rng, 100_000), "random run did not terminate");
    if let Err(e) = check_all(&m, &[]) {
        panic!("invariant violated (seed {seed}): {e}");
    }
}

/// Two CPUs, default geometry: all trace invariants hold on every random
/// program and schedule.
#[test]
fn random_programs_two_cpus_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0001);
    for _ in 0..64 {
        let ops0 = random_ops(&mut rng, 4, 12);
        let ops1 = random_ops(&mut rng, 4, 12);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        run_and_check(progs, machine_config(0, usize::MAX, 8), rng.next_u64());
    }
}

/// Three CPUs sharing four addresses.
#[test]
fn random_programs_three_cpus_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0002);
    for _ in 0..48 {
        let progs = vec![
            build_program("p0", &random_ops(&mut rng, 4, 8)),
            build_program("p1", &random_ops(&mut rng, 4, 8)),
            build_program("p2", &random_ops(&mut rng, 4, 8)),
        ];
        run_and_check(progs, machine_config(0, usize::MAX, 8), rng.next_u64());
    }
}

/// False sharing (4-word lines) must not break any invariant.
#[test]
fn random_programs_false_sharing_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0003);
    for _ in 0..48 {
        let ops0 = random_ops(&mut rng, 8, 10);
        let ops1 = random_ops(&mut rng, 8, 10);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        run_and_check(progs, machine_config(2, usize::MAX, 8), rng.next_u64());
    }
}

/// Tiny caches (constant evictions, including of guarded lines) must not
/// break any invariant.
#[test]
fn random_programs_tiny_cache_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0004);
    for _ in 0..48 {
        let ops0 = random_ops(&mut rng, 6, 10);
        let ops1 = random_ops(&mut rng, 6, 10);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        run_and_check(progs, machine_config(0, 2, 8), rng.next_u64());
    }
}

/// Tiny store buffers (capacity 1–2: constant stalls) must not break any
/// invariant.
#[test]
fn random_programs_tiny_sb_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0005);
    for _ in 0..48 {
        let ops0 = random_ops(&mut rng, 4, 10);
        let ops1 = random_ops(&mut rng, 4, 10);
        let sb = 1 + rng.random_range(0..2);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        run_and_check(progs, machine_config(0, usize::MAX, sb), rng.next_u64());
    }
}

/// With interrupts enabled the invariants still hold.
#[test]
fn random_programs_with_interrupts_satisfy_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0006);
    for _ in 0..48 {
        let cfg = MachineConfig {
            interrupts_enabled: true,
            ..machine_config(0, usize::MAX, 8)
        };
        let ops0 = random_ops(&mut rng, 4, 10);
        let ops1 = random_ops(&mut rng, 4, 10);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        run_and_check(progs, cfg, rng.next_u64());
    }
}

/// The final coherent state of single-CPU programs equals a simple
/// sequential interpretation (the machine is SC for one processor).
#[test]
fn single_cpu_is_sequentially_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0007);
    for _ in 0..64 {
        let ops = random_ops(&mut rng, 4, 16);
        let prog = build_program("p0", &ops);
        let mut m = Machine::new(machine_config(0, usize::MAX, 4), CostModel::zero(), vec![prog]);
        let mut sched = SplitMix64::seed_from_u64(rng.next_u64());
        assert!(m.run_random(&mut sched, 100_000));

        // Reference interpretation.
        let mut mem = std::collections::HashMap::new();
        let mut regs = [0u64; 8];
        for op in &ops {
            match *op {
                Op::Load { reg, addr } => {
                    regs[reg as usize] = *mem.get(&addr).unwrap_or(&0);
                }
                Op::Store { addr, val } | Op::Lmfence { addr, val } => {
                    mem.insert(addr, val);
                }
                Op::Fence => {}
                Op::Alu => regs[7] = regs[7].wrapping_add(1),
            }
        }
        for (addr, val) in &mem {
            assert_eq!(m.coherent_word(Addr(*addr)), *val, "addr {addr}");
        }
        for (r, expected) in regs.iter().enumerate().take(7) {
            assert_eq!(m.cpus[0].regs[r], *expected, "reg {r}");
        }
    }
}

/// Terminal state is schedule-insensitive for deterministic-outcome
/// programs (single CPU): any two schedules end in the same semantic state.
#[test]
fn single_cpu_terminal_fingerprint_is_schedule_independent() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0008);
    for _ in 0..48 {
        let ops = random_ops(&mut rng, 3, 10);
        let make = || {
            let cfg = MachineConfig {
                record_trace: false,
                ..machine_config(0, usize::MAX, 4)
            };
            Machine::new(cfg, CostModel::zero(), vec![build_program("p", &ops)])
        };
        let mut m1 = make();
        let mut m2 = make();
        let mut r1 = SplitMix64::seed_from_u64(rng.next_u64());
        let mut r2 = SplitMix64::seed_from_u64(rng.next_u64());
        assert!(m1.run_random(&mut r1, 100_000));
        assert!(m2.run_random(&mut r2, 100_000));
        // Compare architectural state: registers and coherent memory
        // (cache residency may legitimately differ between schedules).
        for r in 0..8 {
            assert_eq!(m1.cpus[0].regs[r], m2.cpus[0].regs[r]);
        }
        for a in 0..4u64 {
            assert_eq!(m1.coherent_word(Addr(a)), m2.coherent_word(Addr(a)));
        }
    }
}

/// Explorer soundness (differential): every outcome reachable by a random
/// schedule must appear in the exhaustive exploration's outcome set. (The
/// converse — completeness of the random sampler — is not expected.)
#[test]
fn explorer_outcomes_contain_all_random_schedule_outcomes() {
    let mut rng = SplitMix64::seed_from_u64(0x51B0_0009);
    for _ in 0..16 {
        let ops0 = random_ops(&mut rng, 3, 6);
        let ops1 = random_ops(&mut rng, 3, 6);
        let progs = vec![build_program("p0", &ops0), build_program("p1", &ops1)];
        let outcome = |m: &Machine| -> (Vec<u64>, Vec<u64>) {
            (
                m.cpus.iter().flat_map(|c| c.regs[..4].to_vec()).collect(),
                (0..3u64).map(|a| m.coherent_word(Addr(a))).collect(),
            )
        };
        let exhaustive = Explorer::default().explore(Machine::for_checking(progs.clone()), outcome);
        assert!(!exhaustive.truncated);
        for _ in 0..8 {
            let mut m = Machine::for_checking(progs.clone());
            let mut sched = SplitMix64::seed_from_u64(rng.next_u64());
            assert!(m.run_random(&mut sched, 100_000));
            let got = outcome(&m);
            assert!(
                exhaustive.has_outcome(&got),
                "random schedule produced an outcome the explorer missed: {got:?}"
            );
        }
    }
}
