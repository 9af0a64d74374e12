//! The metric catalogue and the result document.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a unit test
//! holds the two together.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark can report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
    /// A count or a simulated statistic: a pure function of the seed, so
    /// two runs of one commit agree on it exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// A host-time measurement of one layer.
const fn timed(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A count or simulated statistic of one layer.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off. All host
/// side; the simulated statistics are exact per seed and live in
/// [`PER_LAYER`] under `virtual.*` (see README, "Why the virtual metrics
/// carry no bound"). Each bound is at least three times the spread
/// (interquartile range over median) the metric showed over ten seeds on
/// the reference box, on its worst workload.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.15),
    e2e("cpu_s", "s", Lower, 0.15),
    e2e("requests_per_host_s", "1/s", Higher, 0.15),
    e2e("host_ms_per_unit_p50", "ms", Lower, 0.15),
    e2e("host_ms_per_unit_p90", "ms", Lower, 0.15),
    e2e("degradation_ratio", "ratio", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Single-layer metrics, `layer.metric`, from the traced run.
pub const PER_LAYER: &[Spec] = &[
    // Simulated results of the workload: exact for a fixed seed.
    exact("virtual.latency_p50_ms", "ms", Lower),
    exact("virtual.latency_p99_ms", "ms", Lower),
    exact("virtual.failed_share", "share", Lower),
    // jitsu_sim
    exact("sim.events", "count", Lower),
    timed("sim.host_us_per_event", "us", Lower),
    timed("sim.dispatch_ns_per_event", "ns", Lower),
    exact("shard.barriers", "count", Lower),
    exact("shard.events_per_barrier", "count", Higher),
    timed("shard.barrier_ns", "ns", Lower),
    // xenstore
    exact("xenstore.commits", "count", Lower),
    exact("xenstore.merged", "count", Higher),
    exact("xenstore.conflicts", "count", Lower),
    exact("xenstore.ops", "count", Lower),
    exact("xenstore.watch_events", "count", Lower),
    exact("xenstore.ops_per_launch", "count", Lower),
    timed("xenstore.write_us.fanout64", "us", Lower),
    timed("xenstore.write_us.fanout4k", "us", Lower),
    timed("xenstore.txn3_us.fanout64", "us", Lower),
    timed("xenstore.txn3_us.fanout4k", "us", Lower),
    timed("xenstore.merge_commit_us", "us", Lower),
    timed("xenstore.read_ns", "ns", Lower),
    timed("xenstore.directory_us.fanout64", "us", Lower),
    timed("xenstore.directory_us.fanout4k", "us", Lower),
    timed("xenstore.snapshot_ns", "ns", Lower),
    exact("xenstore.nodes_leaked_per_cycle", "count", Lower),
    // xen_sim
    timed("toolstack.create_us.fresh", "us", Lower),
    timed("toolstack.destroy_us.fresh", "us", Lower),
    timed("toolstack.create_us.aged", "us", Lower),
    timed("toolstack.destroy_us.aged", "us", Lower),
    timed("domain_builder.build_us", "us", Lower),
    timed("bridge.transmit_ns", "ns", Lower),
    // conduit
    timed("vchan.establish_us", "us", Lower),
    timed("vchan.teardown_us", "us", Lower),
    timed("vchan.frame_cross_ns", "ns", Lower),
    timed("vchan.stream_mb_per_s", "MB/s", Higher),
    timed("rendezvous.connect_accept_us", "us", Lower),
    // netstack
    timed("netstack.eth_ipv4_parse_ns", "ns", Lower),
    timed("netstack.tcp_parse_ns", "ns", Lower),
    timed("netstack.tcp_emit_ns", "ns", Lower),
    timed("netstack.http_parse_ns", "ns", Lower),
    timed("netstack.http_emit_ns", "ns", Lower),
    timed("netstack.dns_roundtrip_ns", "ns", Lower),
    timed("netstack.iface_handle_frame_ns", "ns", Lower),
    timed("netstack.tcb_sexp_roundtrip_us", "us", Lower),
    exact("netstack.frames_per_exchange", "count", Lower),
    exact("netstack.copies_per_frame", "count", Lower),
    exact("netstack.open_connections_end", "count", Lower),
    // unikernel
    timed("unikernel.instance_new_us", "us", Lower),
    timed("unikernel.handle_frame_ns.small", "ns", Lower),
    timed("unikernel.handle_frame_ns.16k", "ns", Lower),
    timed("unikernel.adopt_handoff_us", "us", Lower),
    // jitsu
    exact("jitsu.launches", "count", Lower),
    exact("jitsu.cold_served", "count", Higher),
    exact("jitsu.coalesced", "count", Higher),
    exact("jitsu.warm_hits", "count", Higher),
    exact("jitsu.servfails", "count", Lower),
    exact("jitsu.reaps", "count", Lower),
    exact("jitsu.migrated", "count", Higher),
    exact("jitsu.replayed", "count", Lower),
    exact("jitsu.failovers", "count", Lower),
    exact("jitsu.failover_dropped", "count", Lower),
    exact("jitsu.served_per_launch", "ratio", Higher),
    timed("jitsu.host_us_per_launch", "us", Lower),
    timed("directory.handle_query_ns", "ns", Lower),
    timed("synjitsu.handle_frame_us", "us", Lower),
    timed("synjitsu.prepare_us", "us", Lower),
    timed("synjitsu.commit_us", "us", Lower),
    timed("launcher.summon_us", "us", Lower),
    timed("launcher.retire_us", "us", Lower),
    // The traced run itself, and what its reduced run cost before the
    // correction to reference speed.
    timed("host.raw_wall_s", "s", Lower),
    timed("host.raw_cpu_s", "s", Lower),
    timed("trace.overhead_share", "share", Lower),
    timed("trace.coverage", "share", Higher),
];

/// Measured values, in catalogue order, for one run.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result document: the last line of standard output.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of `catalogue`, none other.
    pub metrics: Vec<(Spec, f64)>,
}

impl Report {
    /// Pair `values` with `catalogue`; a metric that was not measured, or a
    /// value measured for no catalogue entry, is a bug in the benchmark.
    pub fn new(
        catalogue: &[Spec],
        values: &Values,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Report {
        for (name, _) in &values.0 {
            assert!(
                catalogue.iter().any(|s| s.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        let metrics = catalogue
            .iter()
            .map(|spec| {
                let v = values
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
                assert!(v.is_finite(), "metric {} is {v}", spec.name);
                (*spec, v)
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// One JSON object on one line. Values are written with all their
    /// digits (`{:?}` on an `f64` round-trips).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (spec, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                spec.name, value, spec.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The same metrics as an aligned table for people.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (spec, value) in &self.metrics {
            let bound = spec.bound.map_or(String::new(), |b| format!("  bound {b}"));
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {:<6} ({} is better){}",
                spec.name,
                value,
                spec.unit,
                spec.better.label(),
                bound
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(spec.name), "bad name {}", spec.name);
            assert!(
                unit_ok(spec.unit),
                "bad unit {} on {}",
                spec.unit,
                spec.name
            );
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|s| s.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(widest <= 0.25);
    }

    #[test]
    fn emitted_document_round_trips() {
        for catalogue in [END_TO_END, PER_LAYER] {
            let mut values = Values::default();
            for (i, spec) in catalogue.iter().enumerate() {
                values.set(spec.name, 0.1 + i as f64 / 3.0);
            }
            let report = Report::new(catalogue, &values, true, 1000, 3);
            let line = report.to_json_line();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("result line is valid JSON");
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
            assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(3.0));
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(metrics.len(), catalogue.len());
            for (i, spec) in catalogue.iter().enumerate() {
                // Every emitted name is a catalogue entry, which is what
                // gives it a direction.
                let m = &metrics[spec.name];
                assert!(name_ok(spec.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
                assert_eq!(
                    m.get("value").and_then(Value::as_f64),
                    Some(0.1 + i as f64 / 3.0),
                    "{} loses digits",
                    spec.name
                );
                assert_eq!(m.as_object().unwrap().len(), 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_refused() {
        Report::new(END_TO_END, &Values::default(), true, 1, 0);
    }

    /// `BENCHMARK.json` and the catalogue say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(catalogue) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str);
                assert_eq!(field("name"), Some(spec.name));
                assert_eq!(field("unit"), Some(spec.unit), "{}", spec.name);
                assert_eq!(field("better"), Some(spec.better.label()), "{}", spec.name);
                assert_eq!(entry.get("bound").and_then(Value::as_f64), spec.bound);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
