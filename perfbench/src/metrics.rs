//! The benchmark's metric catalog, mirrored in `BENCHMARK.json`.

/// An end-to-end metric: `(name, unit, bound)`. Lower is better for
/// all three; `bound` is the share of the parent's median by which the
/// metric may worsen before a change counts as a regression.
pub const END_TO_END: [(&str, &str, f64); 3] =
    [("op_p10_ms", "ms", 0.25), ("setup_s", "s", 0.25), ("peak_rss_mb", "MiB", 0.2)];

/// A per-layer metric from the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 20] = [
    ("trace.op_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("workload.gen_ms", "ms", "lower"),
    ("workload.stubs", "count", "lower"),
    ("packet.mint_ms", "ms", "lower"),
    ("packet.payload_mb", "MB", "lower"),
    ("packet.payload_used", "ratio", "higher"),
    ("nf.calls", "count", "lower"),
    ("nf.ns_per_call", "ns", "lower"),
    ("nf.ms", "ms", "lower"),
    ("fault.plan_ms", "ms", "lower"),
    ("fault.injected_drops", "count", "lower"),
    ("fault.corrupted", "count", "lower"),
    ("system.build_ms", "ms", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.served", "count", "lower"),
    ("engine.queue_drops", "count", "lower"),
    ("engine.queue_drop_share", "ratio", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.self_ns_per_event", "ns", "lower"),
];

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values keep every
/// digit they were measured with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads metric `name`'s value back out of a [`result_line`].
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> impl Iterator<Item = &'static str> {
        END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names() {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} must match [A-Za-z0-9_.-]+"
            );
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{unit}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is gated");
        assert!(END_TO_END.iter().all(|m| m.2 <= setup.2), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_round_trips_every_value() {
        let line = result_line(true, 12, 0, &[("op_p10_ms", "ms", 93.125), ("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"op_p10_ms\": {\"value\": 93.125, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(value_in(&line, "op_p10_ms"), Some(93.125));
        assert_eq!(value_in(&line, "setup_s"), Some(0.5));
        assert_eq!(value_in(&line, "peak_rss_mb"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"name\"").count(), END_TO_END.len() + PER_LAYER.len() + 3);
    }
}
