//! `lbmf-obs doctor` — per-shard health diagnosis from exposition text.
//!
//! The doctor consumes the *schema*, not the process: it parses the
//! Prometheus text a live `/metrics` scrape returns — or a snapshot file
//! a DES run wrote via [`lbmf_des::render_shard_health`] — groups the
//! `lbmf_store_shard_*` families by `(store, shard)`, and renders one
//! diagnosis line per shard with a CI-consumable verdict. Because the
//! gauge names are defined once (in `lbmf_des::kv_sim`) and emitted by
//! both the live [`HealthMonitor`](lbmf_store::HealthMonitor) and the
//! simulator, a 64-core simulated incident and a real one are diagnosed
//! by exactly the same code path.
//!
//! The parser is std-only and deliberately small: metric lines
//! (`name{k="v",…} value`), `#` comments skipped, label values
//! unescaped. It is *not* a general exposition validator — unparseable
//! lines are errors, because a doctor that silently skips evidence
//! diagnoses nothing.

use lbmf_des::kv_sim::{
    GAUGE_EPOCH, GAUGE_GRAVEYARD, GAUGE_LIMBO_BYTES, GAUGE_LIMBO_DEPTH, GAUGE_MIN_PIN,
    GAUGE_OLDEST_PIN_AGE, GAUGE_PROBE_HWM, GAUGE_STUCK_READERS, GAUGE_STUCK_SLOT,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parse exposition-format text into samples (comments and blank lines
/// skipped). Errors carry the 1-based line number.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
        let (name_labels, value_text) = match line.find(|c| c == ' ' || c == '\t') {
            // `{` may hold spaces inside quoted values; split at the
            // whitespace *after* the closing brace when labels exist.
            Some(_) if line.contains('{') => {
                let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
                let (head, rest) = line.split_at(close + 1);
                (head, rest.trim())
            }
            Some(sp) => (&line[..sp], line[sp..].trim()),
            None => return Err(err("no value")),
        };
        let value: f64 = value_text
            .split_whitespace()
            .next()
            .ok_or_else(|| err("no value"))?
            .parse()
            .map_err(|_| err("bad value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed label set"))?;
                let mut labels = Vec::new();
                let mut remainder = body;
                while !remainder.is_empty() {
                    let eq = remainder.find('=').ok_or_else(|| err("label without ="))?;
                    let key = remainder[..eq].trim().to_string();
                    let after = remainder[eq + 1..]
                        .strip_prefix('"')
                        .ok_or_else(|| err("unquoted label value"))?;
                    // Find the closing quote, honoring backslash escapes.
                    let mut end = None;
                    let mut esc = false;
                    for (j, c) in after.char_indices() {
                        if esc {
                            esc = false;
                        } else if c == '\\' {
                            esc = true;
                        } else if c == '"' {
                            end = Some(j);
                            break;
                        }
                    }
                    let end = end.ok_or_else(|| err("unterminated label value"))?;
                    labels.push((key, unescape(&after[..end])));
                    remainder = after[end + 1..].trim_start_matches(',').trim();
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample { name, labels, value });
    }
    Ok(out)
}

/// One shard's reassembled health gauges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardHealth {
    /// The `store` label.
    pub store: String,
    /// The `shard` label.
    pub shard: u64,
    /// `lbmf_store_shard_epoch`.
    pub epoch: u64,
    /// `lbmf_store_shard_min_pin`.
    pub min_pin: u64,
    /// `lbmf_store_shard_oldest_pin_age_ns`.
    pub oldest_pin_age_ns: u64,
    /// `lbmf_store_shard_limbo_depth`.
    pub limbo_depth: u64,
    /// `lbmf_store_shard_limbo_bytes`.
    pub limbo_bytes: u64,
    /// `lbmf_store_shard_graveyard`.
    pub graveyard: u64,
    /// `lbmf_store_shard_probe_hwm`.
    pub probe_hwm: u64,
    /// `lbmf_store_shard_stuck_readers`.
    pub stuck_readers: u64,
    /// `lbmf_store_shard_stuck_reader_slot`.
    pub stuck_slot: u64,
}

/// Group the `lbmf_store_shard_*` families by `(store, shard)`.
pub fn shard_health(samples: &[Sample]) -> Vec<ShardHealth> {
    let mut by_key: BTreeMap<(String, u64), ShardHealth> = BTreeMap::new();
    for s in samples {
        if !s.name.starts_with("lbmf_store_shard_") {
            continue;
        }
        let (Some(store), Some(shard)) = (s.label("store"), s.label("shard")) else {
            continue;
        };
        let Ok(shard) = shard.parse::<u64>() else {
            continue;
        };
        let entry = by_key
            .entry((store.to_string(), shard))
            .or_insert_with(|| ShardHealth {
                store: store.to_string(),
                shard,
                ..ShardHealth::default()
            });
        let v = s.value as u64;
        match s.name.as_str() {
            n if n == GAUGE_EPOCH => entry.epoch = v,
            n if n == GAUGE_MIN_PIN => entry.min_pin = v,
            n if n == GAUGE_OLDEST_PIN_AGE => entry.oldest_pin_age_ns = v,
            n if n == GAUGE_LIMBO_DEPTH => entry.limbo_depth = v,
            n if n == GAUGE_LIMBO_BYTES => entry.limbo_bytes = v,
            n if n == GAUGE_GRAVEYARD => entry.graveyard = v,
            n if n == GAUGE_PROBE_HWM => entry.probe_hwm = v,
            n if n == GAUGE_STUCK_READERS => entry.stuck_readers = v,
            n if n == GAUGE_STUCK_SLOT => entry.stuck_slot = v,
            _ => {}
        }
    }
    by_key.into_values().collect()
}

/// One shard's verdict plus the reasons behind it.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The gauges the verdict was computed from.
    pub health: ShardHealth,
    /// Empty = healthy.
    pub problems: Vec<String>,
}

/// The doctor's full report.
#[derive(Clone, Debug)]
pub struct DoctorReport {
    /// Per-shard diagnoses, ordered by (store, shard).
    pub shards: Vec<Diagnosis>,
    /// `/healthz` reasons from a live process, when one was consulted.
    pub healthz_reasons: Vec<String>,
}

impl DoctorReport {
    /// No shard data at all — a red flag under `--require-healthy`
    /// (scraping the wrong process must not read as "all clear").
    pub fn is_vacuous(&self) -> bool {
        self.shards.is_empty()
    }

    /// Healthy iff every shard is clean and the live `/healthz` (if
    /// consulted) agreed.
    pub fn healthy(&self) -> bool {
        self.healthz_reasons.is_empty() && self.shards.iter().all(|d| d.problems.is_empty())
    }

    /// Machine-readable report (`lbmf-doctor/1`), rendered through the
    /// shared [`lbmf_trace::json`] writer.
    pub fn render_json(&self) -> String {
        use lbmf_trace::json::{obj, Json};
        let shards = self
            .shards
            .iter()
            .map(|d| {
                let h = &d.health;
                obj(vec![
                    ("store", Json::Str(h.store.clone())),
                    ("shard", Json::Num(h.shard as f64)),
                    ("epoch", Json::Num(h.epoch as f64)),
                    ("min_pin", Json::Num(h.min_pin as f64)),
                    ("oldest_pin_age_ns", Json::Num(h.oldest_pin_age_ns as f64)),
                    ("limbo_depth", Json::Num(h.limbo_depth as f64)),
                    ("limbo_bytes", Json::Num(h.limbo_bytes as f64)),
                    ("graveyard", Json::Num(h.graveyard as f64)),
                    ("probe_hwm", Json::Num(h.probe_hwm as f64)),
                    ("stuck_readers", Json::Num(h.stuck_readers as f64)),
                    ("stuck_slot", Json::Num(h.stuck_slot as f64)),
                    (
                        "problems",
                        Json::Arr(d.problems.iter().map(|p| Json::Str(p.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("schema", Json::Str("lbmf-doctor/1".into())),
            ("healthy", Json::Bool(self.healthy())),
            ("vacuous", Json::Bool(self.is_vacuous())),
            ("shards", Json::Arr(shards)),
            (
                "healthz_reasons",
                Json::Arr(self.healthz_reasons.iter().map(|r| Json::Str(r.clone())).collect()),
            ),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }

    /// Human-readable per-shard table plus verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_vacuous() {
            out.push_str("no lbmf_store_shard_* gauges found\n");
        }
        for d in &self.shards {
            let h = &d.health;
            let _ = writeln!(
                out,
                "store {} shard {}: epoch {}, min_pin {}, oldest_pin_age {:.1}ms, \
                 limbo {} ({} B), graveyard {}, probe_hwm {} — {}",
                h.store,
                h.shard,
                h.epoch,
                h.min_pin,
                h.oldest_pin_age_ns as f64 / 1e6,
                h.limbo_depth,
                h.limbo_bytes,
                h.graveyard,
                h.probe_hwm,
                if d.problems.is_empty() {
                    "ok".to_string()
                } else {
                    d.problems.join("; ")
                }
            );
        }
        for r in &self.healthz_reasons {
            let _ = writeln!(out, "healthz: {r}");
        }
        let _ = writeln!(
            out,
            "doctor verdict: {}",
            if self.healthy() { "HEALTHY" } else { "UNHEALTHY" }
        );
        out
    }
}

/// Diagnose parsed samples. `max_pin_age_ns` is the doctor's own
/// staleness threshold, applied on top of whatever the emitting
/// watchdog already decided (`stuck_readers` gauge) — so a DES snapshot
/// whose simulator has no watchdog still gets a verdict.
pub fn diagnose(samples: &[Sample], max_pin_age_ns: u64) -> DoctorReport {
    let shards = shard_health(samples)
        .into_iter()
        .map(|h| {
            let mut problems = Vec::new();
            if h.stuck_readers > 0 {
                problems.push(format!(
                    "{} stuck reader(s), worst slot {:#x} — serialize will stall \
                     and limbo cannot drain",
                    h.stuck_readers, h.stuck_slot
                ));
            } else if h.min_pin != 0 && h.epoch > h.min_pin && h.oldest_pin_age_ns >= max_pin_age_ns
            {
                problems.push(format!(
                    "reader pin {} lags epoch {} unchanged for {:.1}ms (doctor threshold {:.1}ms)",
                    h.min_pin,
                    h.epoch,
                    h.oldest_pin_age_ns as f64 / 1e6,
                    max_pin_age_ns as f64 / 1e6
                ));
            }
            Diagnosis { health: h, problems }
        })
        .collect();
    DoctorReport {
        shards,
        healthz_reasons: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_des::{render_shard_health, ShardHealthSample};

    #[test]
    fn parses_names_labels_escapes_and_values() {
        let text = "\
# HELP x help text
# TYPE x gauge
x 3
y{a=\"b\"} 4.5
z{a=\"with \\\"quote\\\" and \\\\ back\",shard=\"7\"} 9
";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!((samples[0].name.as_str(), samples[0].value), ("x", 3.0));
        assert_eq!(samples[1].label("a"), Some("b"));
        assert_eq!(samples[2].label("a"), Some("with \"quote\" and \\ back"));
        assert_eq!(samples[2].label("shard"), Some("7"));
        assert_eq!(samples[2].value, 9.0);
        assert!(parse_exposition("garbage_without_value\n").is_err());
    }

    #[test]
    fn doctor_flags_the_simulated_stuck_shard_and_names_the_slot() {
        // The DES emits the same schema the live monitor does; the
        // doctor must diagnose it identically.
        let stuck = ShardHealthSample {
            shard: 2,
            epoch: 40,
            min_pin: 3,
            oldest_pin_age: 5_000_000_000,
            limbo_depth: 37,
            limbo_bytes: 37 * 4096,
            stuck_readers: 1,
            stuck_slot: 4,
            ..ShardHealthSample::default()
        };
        let clean = ShardHealthSample {
            shard: 0,
            epoch: 40,
            ..ShardHealthSample::default()
        };
        let text = render_shard_health("kv-sim", &[clean, stuck]);
        let samples = parse_exposition(&text).unwrap();
        let report = diagnose(&samples, 1_000_000_000);
        assert_eq!(report.shards.len(), 2);
        assert!(!report.healthy());
        assert!(report.shards[0].problems.is_empty(), "shard 0 is clean");
        let bad = &report.shards[1];
        assert_eq!(bad.health.shard, 2);
        assert!(
            bad.problems[0].contains("worst slot 0x4"),
            "attribution must name the slot: {:?}",
            bad.problems
        );
        let rendered = report.render();
        assert!(rendered.contains("UNHEALTHY"));
        assert!(rendered.contains("store kv-sim shard 2"));
    }

    #[test]
    fn doctor_applies_its_own_pin_age_threshold_without_a_watchdog_gauge() {
        // stuck_readers = 0 (no watchdog ran), but the pin evidence is
        // in the gauges: doctor's own threshold catches it.
        let lagging = ShardHealthSample {
            shard: 1,
            epoch: 10,
            min_pin: 2,
            oldest_pin_age: 2_000_000_000,
            ..ShardHealthSample::default()
        };
        let text = render_shard_health("s", &[lagging]);
        let samples = parse_exposition(&text).unwrap();
        assert!(!diagnose(&samples, 1_000_000_000).healthy());
        assert!(
            diagnose(&samples, 3_000_000_000).healthy(),
            "a laxer doctor threshold passes the same evidence"
        );
        // A pin at the current epoch never flags, no matter the age.
        let hot = ShardHealthSample {
            shard: 0,
            epoch: 10,
            min_pin: 10,
            oldest_pin_age: u64::MAX / 2,
            ..ShardHealthSample::default()
        };
        let text = render_shard_health("s", &[hot]);
        assert!(diagnose(&parse_exposition(&text).unwrap(), 1).healthy());
    }

    #[test]
    fn render_json_carries_the_verdict_and_the_evidence() {
        use lbmf_trace::json::{self, Json};
        let stuck = ShardHealthSample {
            shard: 2,
            epoch: 40,
            min_pin: 3,
            oldest_pin_age: 5_000_000_000,
            stuck_readers: 1,
            stuck_slot: 4,
            ..ShardHealthSample::default()
        };
        let text = render_shard_health("kv", &[stuck]);
        let mut report = diagnose(&parse_exposition(&text).unwrap(), 1_000_000_000);
        report.healthz_reasons.push("watchdog: shard 2 wedged".into());
        let json = report.render_json();
        let v = json::parse(&json).expect("doctor json parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("lbmf-doctor/1"));
        assert_eq!(v.get("healthy"), Some(&Json::Bool(false)));
        let shards = v.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("shard").and_then(Json::as_u64), Some(2));
        assert_eq!(shards[0].get("stuck_readers").and_then(Json::as_u64), Some(1));
        let problems = shards[0].get("problems").and_then(Json::as_arr).unwrap();
        assert!(problems[0].as_str().unwrap().contains("worst slot"));
        let hz = v.get("healthz_reasons").and_then(Json::as_arr).unwrap();
        assert_eq!(hz[0].as_str(), Some("watchdog: shard 2 wedged"));
    }

    #[test]
    fn vacuous_reports_are_detectable() {
        let report = diagnose(&parse_exposition("other_metric 1\n").unwrap(), 1);
        assert!(report.is_vacuous());
        assert!(report.healthy(), "vacuous is healthy only by default");
        assert!(report.render().contains("no lbmf_store_shard_* gauges"));
    }
}
