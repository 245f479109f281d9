//! Coherence-level observability over the cycle-accurate simulator.
//!
//! [`traffic_report`] runs the paper's Dekker handoff on an `lbmf-sim`
//! machine under dueling `l-mfence`s and under symmetric `mfence`s and
//! rolls up the bus traffic each strategy generates — per `(op, cause)`
//! transaction counts plus a serialization-cost breakdown (who paid
//! cycles to order the guarded store, and through which mechanism).

use lbmf_sim::prelude::*;
use std::collections::BTreeMap;

/// Bus traffic and serialization costs of one fence strategy's Dekker run.
#[derive(Clone, Debug)]
pub struct StrategyTraffic {
    /// Strategy label (`l-mfence` / `mfence`).
    pub label: String,
    /// Slowest CPU's cycle clock at completion.
    pub makespan: u64,
    /// Raw bus/coherence/link counters.
    pub stats: lbmf_sim::bus::BusStats,
    /// `(bus op, causing instruction class) -> transactions`, folded from
    /// the per-event attribution in the trace.
    pub by_cause: BTreeMap<(String, String), u64>,
    /// Cycles spent purely on serializing guarded stores.
    pub serialization_cycles: u64,
    /// How many serialization events that cost is spread over.
    pub serializations: u64,
    /// Which party pays the serialization cycles.
    pub paid_by: &'static str,
    /// Prometheus exposition of `stats` (for `--prometheus`).
    pub prometheus: String,
}

fn run_strategy(kinds: [FenceKind; 2], label: &str, iters: u64) -> StrategyTraffic {
    let opts = DekkerOptions {
        iters,
        cs_mem_ops: true,
        cs_work: 2,
    };
    let mut m = Machine::new(
        MachineConfig::default(),
        CostModel::default(),
        dekker_pair_with_turn(kinds, opts),
    );
    // The generous drain delay keeps guarded stores buffered across the
    // race window so the link-break machinery is actually exercised.
    assert!(m.run_pseudo_parallel(40, 10_000_000), "dekker run did not finish");
    m.flush_all();
    let mut by_cause: BTreeMap<(String, String), u64> = BTreeMap::new();
    for e in m.trace.iter() {
        if let EventKind::BusTransaction { op, cause, .. } = e.kind {
            *by_cause.entry((format!("{op:?}"), format!("{cause}"))).or_insert(0) += 1;
        }
    }
    let (serializations, serialization_cycles, paid_by) = match kinds[0] {
        FenceKind::Lmfence => (
            m.stats.link_breaks_remote,
            m.stats.link_breaks_remote * (m.cost.cache_to_cache + m.cost.lest_roundtrip),
            "requester (LE/ST round trip)",
        ),
        _ => (
            m.stats.mfences,
            m.stats.mfences * m.cost.mfence_base,
            "victim (full fence per pop)",
        ),
    };
    StrategyTraffic {
        label: label.to_string(),
        makespan: m.cpus.iter().map(|c| c.clock).max().unwrap_or(0),
        by_cause,
        serialization_cycles,
        serializations,
        paid_by,
        prometheus: lbmf_sim::bus::prometheus(&m.stats),
        stats: m.stats,
    }
}

/// Run the Dekker-with-turn kernel under both fence strategies and return
/// the per-strategy traffic attribution (`l-mfence` first).
pub fn traffic_report(iters: u64) -> [StrategyTraffic; 2] {
    [
        run_strategy([FenceKind::Lmfence, FenceKind::Lmfence], "l-mfence", iters),
        run_strategy([FenceKind::Mfence, FenceKind::Mfence], "mfence", iters),
    ]
}

/// Render the traffic comparison as an aligned text report.
pub fn render_traffic(strategies: &[StrategyTraffic]) -> String {
    let mut out = String::new();
    out.push_str("coherence traffic by fence strategy (Dekker handoff)\n");
    for s in strategies {
        out.push_str(&format!(
            "\n[{}] makespan {} cycles, {} bus transactions\n",
            s.label,
            s.makespan,
            s.stats.total_transactions()
        ));
        out.push_str("  bus traffic by causing instruction class:\n");
        for ((op, cause), n) in &s.by_cause {
            out.push_str(&format!("    {op:<10} {cause:<15} {n:>6}\n"));
        }
        out.push_str("  link clears by reason:\n");
        for (reason, n) in s.stats.link_clear_tallies() {
            if n > 0 {
                out.push_str(&format!("    {reason:<26} {n:>6}\n"));
            }
        }
        out.push_str(&format!(
            "  serialization: {} events, {} cycles, paid by {}\n",
            s.serializations, s.serialization_cycles, s.paid_by
        ));
    }
    if let [le, mf] = strategies {
        out.push_str(&format!(
            "\nserialization cycles: l-mfence {} (requester-side) vs mfence {} (victim-side)\n",
            le.serialization_cycles, mf.serialization_cycles
        ));
        let saved = mf.makespan as i64 - le.makespan as i64;
        out.push_str(&format!(
            "makespan: l-mfence {} vs mfence {} cycles ({saved:+} saved by l-mfence)\n",
            le.makespan, mf.makespan
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_report_attributes_both_strategies() {
        let [le, mf] = traffic_report(3);
        assert_eq!(le.label, "l-mfence");
        assert_eq!(mf.label, "mfence");
        assert!(le.serializations > 0, "l-mfence run must break links remotely");
        assert!(mf.serializations > 0, "mfence run must complete fences");
        assert!(le.stats.mfences <= mf.stats.mfences, "l-mfence must not fence more often");
        // The by-cause rollup conserves the stats totals.
        for s in [&le, &mf] {
            assert_eq!(
                s.by_cause.values().sum::<u64>(),
                s.stats.total_transactions(),
                "{}: by-cause rollup must conserve transactions",
                s.label
            );
            assert!(s.prometheus.contains("lbmf_sim_bus_ops_total"));
        }
        let text = render_traffic(&[le, mf]);
        assert!(text.contains("serialization cycles: l-mfence"));
        assert!(text.contains("makespan: l-mfence"));
        assert!(text.contains("store-drain") || text.contains("load-exclusive"));
    }
}
