//! Metric names, units and the result line.
//!
//! The tables here and `BENCHMARK.json` must list the same metrics;
//! a test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. Times
/// are self times summed over the traced run's spans.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("benchgen.generate_ms", "ms"),
    ("core.randomize_ms", "ms"),
    ("core.protect_ms", "ms"),
    ("core.baseline_ms", "ms"),
    ("core.lift_ms", "ms"),
    ("core.swaps", "count"),
    ("layout.place_ms", "ms"),
    ("layout.place_fm_ms", "ms"),
    ("layout.route_ms", "ms"),
    ("layout.split_ms", "ms"),
    ("layout.vpins", "count"),
    ("attacks.flow_ms", "ms"),
    ("attacks.candidates_ms", "ms"),
    ("attacks.mcmf_ms", "ms"),
    ("attacks.assign_ms", "ms"),
    ("attacks.eval_ms", "ms"),
    ("attacks.mcmf_demand", "count"),
    ("attacks.crouting_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.lz_ms", "ms"),
    ("codec.unlz_ms", "ms"),
    ("codec.raw_bytes", "bytes"),
    ("codec.stored_bytes", "bytes"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.disk_hits", "count"),
    ("store.disk_misses", "count"),
    ("store.writes", "count"),
    ("cache.builds", "count"),
    ("cache.hits", "count"),
    ("cache.released", "count"),
    ("cache.decodes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("journal.events", "count"),
    ("journal.bytes", "bytes"),
    ("journal.append_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.steals", "count"),
    ("serve.report_bytes", "bytes"),
    ("exec.peak_live", "count"),
    ("exec.utilization", "ratio"),
    ("job.self_ms", "ms"),
    ("trace.campaign_s", "s"),
    ("trace.untraced_campaign_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: every metric of `table`, in its order, taking values
/// from `values` (a missing value is a bug in the caller).
///
/// # Panics
///
/// Panics when `values` lacks a metric of `table` or holds a non-finite
/// value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_engine::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for w in crate::workload::WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn name_rules_reject_bad_names() {
        assert!(valid_name("job_p90_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("jobs/s"));
        assert!(!valid_unit("μs"));
        assert!(!valid_unit(""));
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        let own_workloads: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let values: BTreeMap<&str, f64> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 36, 0, &END_TO_END, &values);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).expect("result line parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(36));
        let metrics = json.get("metrics").expect("metrics");
        let campaign = metrics.get("campaign_s").expect("campaign_s");
        assert_eq!(campaign.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(campaign.get("unit").and_then(Json::as_str), Some("s"));
    }
}
