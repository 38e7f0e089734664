//! The metric names and units this program reports, in report order. They
//! are the `end_to_end` and `per_layer` lists of `../BENCHMARK.json`; the
//! test below keeps the two in step, and every run checks its own output
//! against them before printing.

use crate::report::Metric;

/// Reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ingest_mpps", "Mpps"),
    ("pqa_bytes_per_checkpoint", "B"),
    ("live_query_us_p50", "us"),
    ("precision_mean", "ratio"),
    ("recall_mean", "ratio"),
    ("query_qps", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("ingest.cold_round_mpps", "Mpps"),
    ("ingest.warm_round_mpps", "Mpps"),
    ("switch.run_ns_per_pkt", "ns"),
    ("switch.drops", "count"),
    ("switch.hooks_noop_ns_per_pkt", "ns"),
    ("core.printqueue.ladder_ns_per_pkt", "ns"),
    ("core.printqueue.hook_ns_per_pkt", "ns"),
    ("core.time_windows.record_ns", "ns"),
    ("core.time_windows.pass_ratio", "ratio"),
    ("core.queue_monitor.update_ns", "ns"),
    ("core.control.on_tick_us_p50", "us"),
    ("core.control.on_tick_us_p99", "us"),
    ("core.control.checkpoints", "count"),
    ("core.control.busy_share", "ratio"),
    ("store.writer.push_us_p50", "us"),
    ("store.writer.push_us_p99", "us"),
    ("store.writer.busy_share", "ratio"),
    ("store.writer.encode_mb_per_s", "MB/s"),
    ("store.writer.finish_ms", "ms"),
    ("store.writer.ladder_ns_per_pkt", "ns"),
    ("store.writer.spill_share", "ratio"),
    ("core.query.us_p50", "us"),
    ("core.query.us_p99", "us"),
    ("core.query.queue_monitor_us_p50", "us"),
    ("store.reader.open_ms", "ms"),
    ("store.reader.query_ms_p50", "ms"),
    ("store.reader.decode_ms_per_segment", "ms"),
    ("store.reader.segments_per_query", "count"),
    ("store.reader.query_cached_us_p50", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.resident_mb", "MiB"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.bytes_per_answer", "B"),
    ("serve.direct_us_p50", "us"),
    ("serve.hop_us_p50", "us"),
    ("serve.request_us_p50", "us"),
    ("serve.request_us_p99", "us"),
    ("serve.shed_total", "count"),
    ("router.routed_us_p50", "us"),
    ("router.hop_us_p50", "us"),
    ("router.merge_us", "us"),
    ("router.fanout_mean", "count"),
    ("router.failovers_total", "count"),
    ("router.retries_total", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.ladder_residual_pct", "%"),
];

/// Does a run's output carry exactly the declared metrics, in order, each
/// a finite number?
pub fn check(metrics: &[Metric], traced: bool) -> Result<(), String> {
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let reported: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != declared {
        return Err(format!(
            "reported metrics {reported:?} are not the declared {declared:?}"
        ));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number", m.name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;

    fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        let text = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        };
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| (text(m.get("name")), text(m.get("unit"))))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_this_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            })
            .collect();
        let own_workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own_workloads);
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(crate::DEFAULT_SECONDS as u64))
        );
    }
}
