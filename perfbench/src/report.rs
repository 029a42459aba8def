//! Metric declarations and the result record.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test holds the two lists equal.  Per-layer names that come from the
//! daemon keep its dotted metric names (`docs/OBSERVABILITY.md`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("cycles_geomean", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).  A layer that a
/// workload does not exercise reads `0`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("frontend.us", "us"),
    ("frontend.nodes", "count"),
    ("transform.us", "us"),
    ("transform.rounds", "count"),
    ("transform.visited_nodes", "count"),
    ("transform.changes", "count"),
    ("transform.nodes_out", "count"),
    ("extract.us", "us"),
    ("extract.ops", "count"),
    ("cluster.us", "us"),
    ("cluster.clusters", "count"),
    ("partition.us", "us"),
    ("partition.inter_tile_transfers", "count"),
    ("schedule.us", "us"),
    ("schedule.levels", "count"),
    ("allocate.us", "us"),
    ("allocate.register_hit_rate", "ratio"),
    ("serve.l0_hits", "count"),
    ("serve.fast_hits", "count"),
    ("cache.mapping.hits", "count"),
    ("cache.mapping.misses", "count"),
    ("cache.post.hits", "count"),
    ("persist.loads", "count"),
    ("persist.stores", "count"),
    ("cache.mapping.misses_per_unique", "ratio"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.queue.wait_p99_us", "us"),
    ("serve.map.latency_p99_us", "us"),
    ("serve.rejected.overload", "count"),
    ("serve.rejected.deadline", "count"),
    ("serve.protocol_errors", "count"),
    ("shard.bytes_out_per_req", "B"),
    ("span.queue.wait_us", "us"),
    ("span.map.service_us", "us"),
    ("span.respond_us", "us"),
    ("verify.denies", "count"),
    ("sim.mismatches", "count"),
    ("compile.digest_drift", "count"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_share", "ratio"),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// On a name neither list declares — a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric `{name}`"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of a metric, when set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check (errors, refusals, wrong answers).
    pub failed: u64,
    /// Run-level invariants that hold apart from the per-output checks.
    pub invariants_hold: bool,
    /// Seconds the in-process set-up of an untraced run took.
    pub setup_s: Option<f64>,
    /// Measured values.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result record.
    pub notes: Vec<String>,
}

/// The result record: one JSON object holding every metric of the mode.
///
/// # Errors
/// When an end-to-end metric was never set.
pub fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let correct = outcome.failed == 0 && outcome.invariants_hold;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (index, (name, unit)) in declared.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(value) => value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        let comma = if index == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(*name), "metric `{name}` declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
    }

    /// The `"name"`/`"unit"` pairs of one top-level array of
    /// `BENCHMARK.json`, in order.
    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |object: &str, key: &str| -> String {
            let at = object.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &object[at..];
            let open = rest.find('"').expect("value start") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_the_benchmark_declaration() {
        assert_eq!(
            declared_in_benchmark_json("end_to_end"),
            as_owned(&END_TO_END)
        );
        assert_eq!(
            declared_in_benchmark_json("per_layer"),
            as_owned(&PER_LAYER)
        );
    }

    #[test]
    fn the_record_lists_every_metric_of_its_mode() {
        let mut outcome = Outcome {
            attempted: 3,
            invariants_hold: true,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.5);
        }
        let line = render(&outcome, false).expect("every end-to-end metric set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = render(&outcome, true).expect("per-layer metrics default to 0");
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": {{\"value\": 0,")));
        }
        assert!(render(&Outcome::default(), false).is_err());
    }
}
