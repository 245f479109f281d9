//! Cost parameters for the discrete-event simulations.
//!
//! All values are cycles on the paper's notional 2 GHz machine, anchored to
//! the calibration in [`lbmf_sim::cost::CostModel`] and the paper's Section
//! 5 measurements: an `mfence`-class stall of a few tens of cycles, a
//! signal round trip of ~10,000 cycles (plus the four kernel/user crossings
//! the *primary* pays to run the handler), and an LE/ST round trip of ~150
//! cycles with "negligible" impact on the primary.

use lbmf_sim::cost::CostModel;

/// Which serialization mechanism the simulated asymmetric runtime uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SerializeKind {
    /// Program-based fences: the victim pays per pop; steals pay nothing
    /// extra.
    Symmetric,
    /// The software prototype: each serialization is a signal round trip
    /// borne by the requester, plus handler time on the victim.
    Signal,
    /// Linux `membarrier(2)`: cheaper kernel-assisted round trip, small
    /// IPI cost on every other thread.
    Membarrier,
    /// The proposed LE/ST hardware: ~150 cycles on the requester only.
    LeSt,
}

impl SerializeKind {
    /// Human-readable mechanism name.
    pub fn label(self) -> &'static str {
        match self {
            SerializeKind::Symmetric => "symmetric-mfence",
            SerializeKind::Signal => "lbmf-signal",
            SerializeKind::Membarrier => "lbmf-membarrier",
            SerializeKind::LeSt => "lbmf-le/st",
        }
    }

    /// Whether the primary/victim fast path carries a hardware fence.
    pub fn victim_pays_fence(self) -> bool {
        matches!(self, SerializeKind::Symmetric)
    }
}

/// Cycle costs used by both simulations.
#[derive(Clone, Copy, Debug)]
pub struct DesCosts {
    /// Full hardware fence (the per-pop / per-read cost under Symmetric).
    pub mfence: u64,
    /// Compiler-fence-only ordering point (asymmetric fast path).
    pub compiler_fence: u64,
    /// Requester-side cost of one signal round trip.
    pub serialize_requester_signal: u64,
    /// Requester-side cost of one `membarrier(2)` round trip.
    pub serialize_requester_membarrier: u64,
    /// Requester-side cost of one LE/ST round trip.
    pub serialize_requester_lest: u64,
    /// Victim-side cost of signal delivery (four kernel/user crossings).
    pub serialize_victim_signal: u64,
    /// Victim-side cost of the membarrier IPI.
    pub serialize_victim_membarrier: u64,
    /// Victim-side cost of an LE/ST link break (negligible: SB flush).
    pub serialize_victim_lest: u64,
    /// Taking/releasing the deque or writer lock (uncontended).
    pub lock: u64,
    /// A cache-to-cache transfer (reading a flag another CPU wrote).
    pub cache_to_cache: u64,
}

impl Default for DesCosts {
    fn default() -> Self {
        let cm = CostModel::default();
        DesCosts {
            mfence: cm.mfence_base,
            compiler_fence: 0,
            serialize_requester_signal: cm.signal_roundtrip,
            serialize_requester_membarrier: 2_000,
            serialize_requester_lest: cm.cache_to_cache + cm.lest_roundtrip,
            // The paper: the primary "must handle the signal (which entails
            // crossing between kernel and user modes four times)".
            serialize_victim_signal: 4_000,
            serialize_victim_membarrier: 400,
            serialize_victim_lest: cm.sb_drain_owned,
            lock: 40,
            cache_to_cache: cm.cache_to_cache,
        }
    }
}

impl DesCosts {
    /// (requester cycles, victim cycles) for one serialization under
    /// `kind`.
    pub fn serialize(&self, kind: SerializeKind) -> (u64, u64) {
        match kind {
            SerializeKind::Symmetric => (0, 0),
            SerializeKind::Signal => (self.serialize_requester_signal, self.serialize_victim_signal),
            SerializeKind::Membarrier => (
                self.serialize_requester_membarrier,
                self.serialize_victim_membarrier,
            ),
            SerializeKind::LeSt => (self.serialize_requester_lest, self.serialize_victim_lest),
        }
    }

    /// Victim-side ordering cost at the l-mfence position.
    pub fn victim_fence(&self, kind: SerializeKind) -> u64 {
        if kind.victim_pays_fence() {
            self.mfence
        } else {
            self.compiler_fence
        }
    }

    /// The cost-table entries that the cycle-level machine can measure
    /// directly, `(name, cycles)` — the contract the unit tests check
    /// against `lbmf-sim` kernel runs. Signal and membarrier entries
    /// model OS mechanisms outside the simulated hardware and are
    /// deliberately absent.
    pub fn calibratable_entries(&self) -> [(&'static str, u64); 4] {
        [
            ("mfence", self.mfence),
            ("serialize_requester_lest", self.serialize_requester_lest),
            ("serialize_victim_lest", self.serialize_victim_lest),
            ("cache_to_cache", self.cache_to_cache),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_sim::prelude::*;

    #[test]
    fn signal_costs_dominate_lest_by_orders_of_magnitude() {
        let c = DesCosts::default();
        let (sig_req, sig_vic) = c.serialize(SerializeKind::Signal);
        let (lest_req, lest_vic) = c.serialize(SerializeKind::LeSt);
        assert!(sig_req / lest_req >= 50);
        assert!(sig_vic > 100 * lest_vic.max(1) / 10);
        let (sym_req, sym_vic) = c.serialize(SerializeKind::Symmetric);
        assert_eq!((sym_req, sym_vic), (0, 0));
    }

    #[test]
    fn victim_fence_only_for_symmetric() {
        let c = DesCosts::default();
        assert!(c.victim_fence(SerializeKind::Symmetric) > 0);
        assert_eq!(c.victim_fence(SerializeKind::Signal), 0);
        assert_eq!(c.victim_fence(SerializeKind::LeSt), 0);
    }

    #[test]
    fn calibratable_entries_track_the_cost_model_anchors() {
        let c = DesCosts::default();
        let cm = CostModel::default();
        let entries = c.calibratable_entries();
        assert_eq!(entries[0], ("mfence", cm.mfence_base));
        assert_eq!(
            entries[1],
            ("serialize_requester_lest", cm.cache_to_cache + cm.lest_roundtrip)
        );
        assert_eq!(entries[2], ("serialize_victim_lest", cm.sb_drain_owned));
        assert_eq!(entries[3], ("cache_to_cache", cm.cache_to_cache));
    }

    /// Drive CPU `i` until `probe(&machine)` changes, returning the cycle
    /// charge of the step where it did.
    fn step_until_changed(m: &mut Machine, i: usize, probe: impl Fn(&Machine) -> u64) -> u64 {
        let before = probe(m);
        for _ in 0..64 {
            assert!(!m.cpus[i].halted, "cpu{i} halted before the probe changed");
            let cost = m.apply(Transition::Step(i));
            if probe(m) != before {
                return cost;
            }
        }
        panic!("probe did not change within 64 steps");
    }

    #[test]
    fn cycle_machine_charges_exactly_the_calibratable_entries() {
        let machine = |programs| Machine::new(MachineConfig::default(), CostModel::default(), programs);
        let mut measured = Vec::new();

        // Dekker handoff: CPU 0 publishes its flag and fences over an
        // empty store buffer; CPU 1 pulls the flag line from Modified.
        let mut w = ProgramBuilder::new("dekker-writer");
        w.st(Addr(1), 1u64).mfence().halt();
        let mut r = ProgramBuilder::new("dekker-reader");
        r.ld(0, Addr(1)).halt();
        let mut m = machine(vec![w.build(), r.build()]);
        measured.push(("mfence", step_until_changed(&mut m, 0, |m| m.stats.mfences)));
        measured.push(("cache_to_cache", step_until_changed(&mut m, 1, |m| m.stats.cache_to_cache)));
        assert_eq!(m.stats.link_breaks_remote, 0, "no link to break in the handoff");

        // Steal probe, requester side: the victim guards its flag store
        // with an l-mfence; the thief's probe load breaks the link and
        // pays the cache-to-cache transfer plus the LE/ST round trip.
        let mut v = ProgramBuilder::new("steal-victim");
        v.lmfence(Addr(1), 1u64).halt();
        let mut t = ProgramBuilder::new("steal-thief");
        t.ld(0, Addr(1)).halt();
        let mut m = machine(vec![v.build(), t.build()]);
        for _ in 0..4 {
            m.apply(Transition::Step(0));
        }
        assert!(m.cpus[0].le_bit, "victim's link must be set before the probe");
        let probe = step_until_changed(&mut m, 1, |m| m.stats.link_breaks_remote);
        assert_eq!(m.stats.link_breaks_remote, 1);
        measured.push(("serialize_requester_lest", probe));

        // Steal probe, victim side: the forced flush drains the guarded
        // store to a line the victim already owns (the second fence's
        // drain, after the first store made the line Modified).
        let mut b = ProgramBuilder::new("steal-victim-drain");
        b.st(Addr(5), 1u64).mfence().st(Addr(5), 2u64).mfence().halt();
        let mut m = machine(vec![b.build()]);
        step_until_changed(&mut m, 0, |m| m.stats.mfences);
        assert_eq!(m.stats.store_completions, 1);
        let drain = step_until_changed(&mut m, 0, |m| m.stats.store_completions);
        measured.push(("serialize_victim_lest", drain));

        let entries = DesCosts::default().calibratable_entries();
        assert_eq!(measured.len(), entries.len());
        for (name, des_cycles) in entries {
            let (_, sim_cycles) = measured
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no kernel measures DES entry `{name}`"));
            assert_eq!(*sim_cycles, des_cycles, "{name}: cycle machine vs DES cost table");
        }
    }
}
