//! The metric catalogue and the JSON the benchmark prints.
//!
//! Every workload prints every end-to-end metric in an untraced run
//! and every per-layer metric in a traced run; a layer a workload does
//! not exercise reads 0 there.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("txns_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit), grouped by the module they
/// describe.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::client — the benchmark's spans around public calls.
    ("client.exec_ms", "ms"),
    ("client.submit_us", "us"),
    ("client.outcome_wait_ms", "ms"),
    ("client.verify_us_per_outcome", "us"),
    ("client.read_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.abort_pct", "%"),
    // core::server — commit rounds and their stages.
    ("commit.round_ms", "ms"),
    ("commit.stage.batch_form_ms", "ms"),
    ("commit.stage.occ_validate_ms", "ms"),
    ("commit.stage.merkle_update_ms", "ms"),
    ("commit.stage.cosi_assemble_ms", "ms"),
    ("commit.stage.wal_fsync_ms", "ms"),
    ("commit.stage.outcome_send_ms", "ms"),
    ("commit.outside_round_ms", "ms"),
    ("commit.txns_per_round", "count"),
    ("commit.rounds_per_s", "1/s"),
    ("commit.inflight_rounds_max", "count"),
    // core::occ
    ("occ.abort_pct", "%"),
    ("commit.round_timeouts", "count"),
    // store
    ("store.nodes_rehashed_per_txn", "count"),
    ("store.merkle_us_per_txn", "us"),
    // net
    ("net.msgs_per_txn", "count"),
    ("net.bytes_per_txn", "bytes"),
    // durability
    ("wal.fsync_us", "us"),
    ("wal.blocks_per_fsync", "count"),
    ("wal.fsyncs_per_txn", "count"),
    ("wal.queue_depth_max", "count"),
    // read
    ("read.verify_us_per_key", "us"),
    ("read.registry_hit_pct", "%"),
    ("read.refused_pct", "%"),
    ("read.mirror_share", "ratio"),
    // ledger / crypto and core::audit
    ("audit.select_ms", "ms"),
    ("audit.replay_ms", "ms"),
    // core::recovery / durability
    ("recover.p50_ms", "ms"),
    ("recover.wal_read_ms", "ms"),
    ("recover.verify_ms", "ms"),
    // CPU by thread group
    ("cpu.server_ms_per_op", "ms"),
    ("cpu.wal_ms_per_op", "ms"),
    ("cpu.pool_ms_per_op", "ms"),
    ("cpu.client_ms_per_op", "ms"),
    ("cpu.total_ms_per_op", "ms"),
    ("cpu.busy_pct", "%"),
    // The cost of tracing itself.
    ("trace.untraced_txns_per_s", "1/s"),
    ("trace.traced_txns_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values a workload fills in.
pub type Values = BTreeMap<&'static str, f64>;

/// Correctness checks run after a window: (name, passed).
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(String, bool)>,
}

impl Checks {
    /// Records a check; a name checked again passes only if it passed
    /// every time.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        match self.results.iter_mut().find(|(n, _)| *n == name) {
            Some((_, ok)) => *ok &= passed,
            None => self.results.push((name, passed)),
        }
    }

    pub fn all_passed(&self) -> bool {
        !self.results.is_empty() && self.results.iter().all(|(_, ok)| *ok)
    }

    pub fn failed(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .results
            .iter()
            .map(|(name, ok)| format!("{}: {ok}", json_str(name)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `catalogue`, in its
/// order; a name the workload left out reads 0.
pub fn metrics_json(catalogue: &[(&str, &str)], values: &Values) -> String {
    let fields: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite number with all its digits (non-finite values read 0).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_manifest_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn metrics_json_fills_missing_values_with_zero() {
        let mut values = Values::new();
        values.insert("txns_per_s", 812.5);
        let json = metrics_json(&END_TO_END[..2], &values);
        assert_eq!(
            json,
            "{\"txns_per_s\": {\"value\": 812.5, \"unit\": \"1/s\"}, \
             \"latency_p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0.0");
    }

    #[test]
    fn checks_need_at_least_one_pass_and_no_failure() {
        let mut checks = Checks::default();
        assert!(!checks.all_passed());
        checks.check("tips agree", true);
        assert!(checks.all_passed());
        checks.check("sum conserved", true);
        checks.check("sum conserved", false);
        checks.check("sum conserved", true);
        assert!(!checks.all_passed());
        assert_eq!(checks.failed(), vec!["sum conserved"]);
        assert_eq!(
            checks.to_json(),
            "{\"tips agree\": true, \"sum conserved\": false}"
        );
    }
}
