//! The metric names, units and clocks of the ledger, and the report a
//! run fills in. `BENCHMARK.json` lists the same names; a unit test
//! holds the two together.

use crate::canary::CanaryReport;
use crate::json::Json;

/// Which clock a number was read from. Simulated numbers are what the
/// modelled hardware would take and repeat exactly for a seed; host
/// numbers are what this machine took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Simulated,
    Host,
    /// A count or ratio of counts; exact for a seed unless stated.
    Count,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Simulated => "simulated",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef { name, unit, clock }
}

/// End-to-end metrics: every workload reports every one (lower is
/// better for all). What a lane is on each workload is in
/// `benchmark/README.md` and in the workload's `why`.
pub const END_TO_END: [MetricDef; 9] = [
    def("sim_overhead_pct.agit_plus", "%", Clock::Simulated),
    def("sim_overhead_pct.asit", "%", Clock::Simulated),
    def("sim_tail_ns.agit_plus", "ns", Clock::Simulated),
    def("sim_tail_ns.asit", "ns", Clock::Simulated),
    def("recovery_sim_ms.agit_plus", "ms", Clock::Simulated),
    def("recovery_sim_ms.asit", "ms", Clock::Simulated),
    def("lane_a_p50_us", "us", Clock::Host),
    def("lane_b_p50_us", "us", Clock::Host),
    def("setup_s", "s", Clock::Host),
];

/// Per-layer metrics of the traced run, prefix = crate.
pub const PER_LAYER: [MetricDef; 60] = [
    // anubis-server: p50 self time of each call on the twin's path.
    def("server.req_encode_ns", "ns", Clock::Host),
    def("server.req_decode_ns", "ns", Clock::Host),
    def("server.resp_encode_ns", "ns", Clock::Host),
    def("server.resp_decode_ns", "ns", Clock::Host),
    def("server.frame_rtt_us", "us", Clock::Host),
    def("server.admission_ns", "ns", Clock::Host),
    def("server.stats_rtt_us", "us", Clock::Host),
    def("server.tenant_residual_us", "us", Clock::Host),
    def("server.lane_a_p99_us", "us", Clock::Host),
    def("server.lane_b_p99_us", "us", Clock::Host),
    def("server.ops_per_s", "1/s", Clock::Host),
    def("server.rejects", "count", Clock::Count),
    def("server.rss_mb", "MiB", Clock::Host),
    // anubis (core): controller calls and their exact costs.
    def("core.write_ns.agit_plus", "ns", Clock::Host),
    def("core.write_ns.asit", "ns", Clock::Host),
    def("core.read_ns.agit_plus", "ns", Clock::Host),
    def("core.read_ns.asit", "ns", Clock::Host),
    def(
        "core.write_batch32_ns_per_line.agit_plus",
        "ns",
        Clock::Host,
    ),
    def("core.write_batch32_ns_per_line.asit", "ns", Clock::Host),
    def(
        "core.commit_groups_per_batch32.agit_plus",
        "count",
        Clock::Count,
    ),
    def("core.commit_groups_per_batch32.asit", "count", Clock::Count),
    def("core.hash_ops_per_write.agit_plus", "count", Clock::Count),
    def("core.hash_ops_per_write.asit", "count", Clock::Count),
    def("core.nvm_reads_per_op.agit_plus", "count", Clock::Count),
    def("core.nvm_reads_per_op.asit", "count", Clock::Count),
    def(
        "core.nvm_writes_per_data_write.agit_plus",
        "count",
        Clock::Count,
    ),
    def("core.nvm_writes_per_data_write.asit", "count", Clock::Count),
    def("core.recovery_ops.agit_plus", "count", Clock::Count),
    def("core.recovery_ops.asit", "count", Clock::Count),
    def("core.recover_host_us.agit_plus", "us", Clock::Host),
    def("core.recover_host_us.asit", "us", Clock::Host),
    // anubis-crypto, anubis-itree, anubis-cache: direct probes.
    def("crypto.seal_ns", "ns", Clock::Host),
    def("crypto.open_ns", "ns", Clock::Host),
    def("crypto.hash_block_ns", "ns", Clock::Host),
    def("itree.node_digest_ns", "ns", Clock::Host),
    def("cache.lookup_hit_ns", "ns", Clock::Host),
    def("cache.insert_evict_ns", "ns", Clock::Host),
    def("cache.counter_hit_ratio", "ratio", Clock::Count),
    def("cache.tree_hit_ratio", "ratio", Clock::Count),
    def("cache.metadata_hit_ratio", "ratio", Clock::Count),
    // anubis-nvm: persistence domain, WAL barrier, anchor.
    def("nvm.commit_group_ns", "ns", Clock::Host),
    def("nvm.file_barrier_p50_us", "us", Clock::Host),
    def("nvm.file_barrier_p99_us", "us", Clock::Host),
    def("nvm.anchor_seal_us", "us", Clock::Host),
    def("nvm.frames_per_acked_write", "count", Clock::Count),
    def("nvm.wal_bytes_per_user_byte", "ratio", Clock::Count),
    def("nvm.reopen_ms", "ms", Clock::Host),
    // anubis-sim: the timing engine itself.
    def("sim.engine_ns_per_op", "ns", Clock::Host),
    def("sim.read_stall_ns_per_op.agit_plus", "ns", Clock::Simulated),
    def("sim.read_stall_ns_per_op.asit", "ns", Clock::Simulated),
    def(
        "sim.write_stall_ns_per_op.agit_plus",
        "ns",
        Clock::Simulated,
    ),
    def("sim.write_stall_ns_per_op.asit", "ns", Clock::Simulated),
    def("sim.utilization.agit_plus", "ratio", Clock::Simulated),
    def("sim.utilization.asit", "ratio", Clock::Simulated),
    // The rest.
    def("workloads.gen_ns_per_op", "ns", Clock::Host),
    def("telemetry.incr_off_ns", "ns", Clock::Host),
    def("host.canary_ns", "ns", Clock::Host),
    def("host.canary_iqr_ns", "ns", Clock::Host),
    def("trace.coverage", "ratio", Clock::Host),
    def("trace.overhead_pct", "%", Clock::Host),
];

/// One reported value.
#[derive(Clone, Debug)]
pub struct Value {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind a percentile or median (0 when not one).
    pub samples: usize,
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the person reading stderr.
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    /// Reported beside the metrics, never in the result line.
    pub notes: Vec<String>,
    /// Host numbers before scaling by the host index, by metric name:
    /// printed, and kept in `--append` records, never in the result line.
    pub raw: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Counts one verified operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.values.extend(other.values);
        self.notes.extend(other.notes);
        self.raw.extend(other.raw);
    }

    pub fn set(&mut self, table: &[MetricDef], name: &str, value: f64, samples: usize) {
        let def = *table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the ledger's table"));
        assert!(
            !self.values.iter().any(|v| v.def.name == name),
            "metric {name:?} reported twice"
        );
        self.values.push(Value {
            def,
            value,
            samples,
        });
    }

    /// Names of `table` this report lacks.
    pub fn missing(&self, table: &[MetricDef]) -> Vec<&'static str> {
        table
            .iter()
            .filter(|d| !self.values.iter().any(|v| v.def.name == d.name))
            .map(|d| d.name)
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.iter().all(|v| v.value.is_finite())
    }

    /// The result line of the benchmark contract.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .values
            .iter()
            .map(|v| {
                (
                    v.def.name,
                    Json::obj(vec![
                        ("value", Json::Num(v.value)),
                        ("unit", Json::Str(v.def.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with unit and clock, for a person.
    pub fn print_human(&self, workload: &str, seed: u64, canary: &CanaryReport) {
        println!("# ledger workload={workload} seed={seed}");
        for v in &self.values {
            let samples = if v.samples > 0 {
                format!(" n={}", v.samples)
            } else {
                String::new()
            };
            println!(
                "{:<44} {:>16.6} {:<6} [{}]{samples}",
                v.def.name,
                v.value,
                v.def.unit,
                v.def.clock.tag()
            );
        }
        for (kernel, ns) in crate::canary::KERNELS.iter().zip(canary.median_ns) {
            println!(
                "{:<44} {:>16.6} {:<6} [host] n={}{}",
                format!("host.canary_{kernel}_ns"),
                ns,
                "ns",
                canary.samples,
                if *kernel == "cpu" {
                    format!(" iqr={:.0}", canary.iqr_ns)
                } else {
                    String::new()
                }
            );
        }
        println!(
            "{:<44} {:>16.6} {:<6} [host]{}",
            "host.index",
            canary.index,
            "ratio",
            if canary.disturbed { " DISTURBED" } else { "" }
        );
        let ratio = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        println!(
            "{:<44} {:>16.6} {:<6} [count] failed={} attempted={}",
            "fail_ratio", ratio, "ratio", self.failed, self.attempted
        );
        for (name, v) in &self.raw {
            println!("# raw {name} = {v:.6} (before scaling by the host index)");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(true, String::new);
        r.set(&END_TO_END, "setup_s", 2.031_25, 3);
        r.set(&END_TO_END, "lane_a_p50_us", 28.117, 1000);
        let line = r.result_json().render();
        let back = Json::parse(&line).expect("parse");
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("attempted").unwrap().as_f64(), Some(2.0));
        let m = back.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(2.031_25)
        );
        assert_eq!(
            m.get("lane_a_p50_us")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("us")
        );
        assert_eq!(r.missing(&END_TO_END).len(), END_TO_END.len() - 2);
    }

    #[test]
    fn one_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "line 5 read back stale".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, ["line 5 read back stale"]);
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[MetricDef]| -> Vec<(String, String)> {
            t.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
