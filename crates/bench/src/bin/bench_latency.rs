//! Per-scheme tail-latency baseline from the discrete-event channel.
//!
//! Replays one write-heavy workload (milc) through every Bonsai and SGX
//! scheme and reports the end-to-end per-operation latency distribution
//! the event engine records — mean, p50, p95, p99, and max in simulated
//! nanoseconds — plus the run totals. Emits `BENCH_latency.json`
//! (override with `--out PATH`).
//!
//! Unlike the wall-clock harnesses, every number here is *simulated*
//! time: a pure function of the trace, the timing model, and the engine.
//! The committed baseline is therefore host-independent, and the
//! `--check [BASELINE]` gate (default `BENCH_latency.json`) demands
//! exact equality — any drift means the event engine's arithmetic
//! changed, which must be a deliberate, baseline-regenerating decision.
//! Gate runs replay at the scale recorded in the baseline, so `--smoke`
//! does not change what `--check` compares.
//!
//! Flags: `--ops N` (measured ops, default 40 000; warm-up is a tenth of
//! that), `--seed S` (trace seed, default 1907), `--smoke` (4 000
//! measured ops unless `--ops` says otherwise).

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
use anubis_bench::json::{self, Json};
use anubis_bench::{host_info_json, number_flag, out_path_from_args};
use anubis_sim::experiments::{run_measured, Scale};
use anubis_sim::{RunResult, TimingModel};
use anubis_workloads::{spec2006, TraceGenerator};

/// Device capacity for the replayed traces.
const CAPACITY_BYTES: u64 = 8 << 20;

fn scale_from_flags(smoke: bool) -> Scale {
    let ops = number_flag("--ops").unwrap_or(if smoke { 4_000 } else { 40_000 }) as usize;
    Scale {
        ops,
        warmup_ops: ops / 10,
        seed: number_flag("--seed").unwrap_or(1907),
    }
}

/// Replays milc through all Bonsai then all SGX schemes at `scale`.
fn run_all_schemes(scale: Scale) -> Vec<RunResult> {
    let config = AnubisConfig::small_test().with_capacity(CAPACITY_BYTES);
    let model = TimingModel::paper();
    let trace = TraceGenerator::new(spec2006::milc(), config.capacity_bytes)
        .generate(scale.ops + scale.warmup_ops, scale.seed);
    let mut results = Vec::new();
    for scheme in BonsaiScheme::all() {
        let mut ctrl = BonsaiController::new(scheme, &config);
        results.push(run_measured(&mut ctrl, &trace, &model, scale).expect("bonsai replay"));
    }
    for scheme in SgxScheme::all() {
        let mut ctrl = SgxController::new(scheme, &config);
        results.push(run_measured(&mut ctrl, &trace, &model, scale).expect("sgx replay"));
    }
    results
}

fn print_table(results: &[RunResult]) {
    println!(
        "\n{:<20} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "ops", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"
    );
    for r in results {
        let l = r.latency;
        println!(
            "{:<20} {:>8} {:>10.1} {:>9} {:>9} {:>9} {:>9}",
            r.scheme, l.count, l.mean_ns, l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns
        );
    }
}

fn scheme_row(r: &RunResult) -> Json {
    let l = r.latency;
    Json::obj(vec![
        ("scheme", Json::Str(r.scheme.into())),
        ("workload", Json::Str(r.workload.clone())),
        ("ops", Json::Int(l.count)),
        ("mean_ns", Json::Num(l.mean_ns)),
        ("p50_ns", Json::Int(l.p50_ns)),
        ("p95_ns", Json::Int(l.p95_ns)),
        ("p99_ns", Json::Int(l.p99_ns)),
        ("max_ns", Json::Int(l.max_ns)),
        ("total_ns", Json::Int(r.total_ns)),
        ("read_stall_ns", Json::Int(r.read_stall_ns)),
        ("write_stall_ns", Json::Int(r.write_stall_ns)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = anubis_bench::smoke_requested();
    let check: Option<String> = args.iter().position(|a| a == "--check").map(|pos| {
        args.get(pos + 1)
            .filter(|n| !n.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_latency.json".into())
    });

    println!("== Anubis reproduction :: per-op latency distribution ==");
    println!("discrete-event channel, workload milc, simulated (host-independent) ns");

    if let Some(baseline_path) = check {
        match run_gate(&baseline_path) {
            Ok(()) => println!("\nlatency gate: OK (bit-exact vs {baseline_path})"),
            Err(failures) => {
                eprintln!("\nlatency gate FAILED:");
                for f in failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let scale = scale_from_flags(smoke);
    println!(
        "{} measured ops (+{} warm-up), seed {}",
        scale.ops, scale.warmup_ops, scale.seed
    );

    // The replay is simulated, not wall-clock timed, so the per-scheme
    // `op_latency_ns` histograms can record straight into the artifact.
    let telemetry = anubis_bench::telemetry::start();
    let results = run_all_schemes(scale);
    print_table(&results);

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("latency".into())),
        ("smoke", Json::Bool(smoke)),
        ("host", host_info_json()),
        (
            "config",
            Json::obj(vec![
                ("workload", Json::Str("milc".into())),
                ("capacity_bytes", Json::Int(CAPACITY_BYTES)),
                ("ops", Json::Int(scale.ops as u64)),
                ("warmup_ops", Json::Int(scale.warmup_ops as u64)),
                ("seed", Json::Int(scale.seed)),
            ]),
        ),
        (
            "schemes",
            Json::Arr(results.iter().map(scheme_row).collect()),
        ),
    ]);
    let out = out_path_from_args("BENCH_latency.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("\nwrote {}", out.display());
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_latency");
}

/// Re-runs every scheme at the baseline's recorded scale and demands
/// bit-exact tail latencies and totals. Returns mismatches, empty on pass.
fn run_gate(baseline_path: &str) -> Result<(), Vec<String>> {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("cannot read baseline {baseline_path}: {e}")]),
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("cannot parse baseline {baseline_path}: {e}")]),
    };
    // Replay at the baseline's own scale so the comparison is meaningful
    // whatever --smoke / --ops / --seed this invocation carries.
    let cfg = doc.get("config");
    let field = |key: &str| cfg.and_then(|c| c.get(key)).and_then(Json::as_f64);
    let (Some(ops), Some(warmup_ops), Some(seed)) =
        (field("ops"), field("warmup_ops"), field("seed"))
    else {
        return Err(vec![format!(
            "baseline {baseline_path} lacks config.ops/warmup_ops/seed"
        )]);
    };
    let scale = Scale {
        ops: ops as usize,
        warmup_ops: warmup_ops as usize,
        seed: seed as u64,
    };
    println!(
        "replaying at baseline scale: {} measured ops (+{} warm-up), seed {}",
        scale.ops, scale.warmup_ops, scale.seed
    );
    let Some(rows) = doc.get("schemes").and_then(Json::as_arr) else {
        return Err(vec![format!(
            "baseline {baseline_path} has no schemes array"
        )]);
    };
    let results = run_all_schemes(scale);
    print_table(&results);

    let baseline_row = |name: &str| -> Option<&Json> {
        rows.iter()
            .find(|r| r.get("scheme").and_then(Json::as_str) == Some(name))
    };
    let mut failures = Vec::new();
    println!("\n--- latency gate vs {baseline_path} ---");
    for r in &results {
        let Some(row) = baseline_row(r.scheme) else {
            println!("{:<20} (no baseline entry, skipped)", r.scheme);
            continue;
        };
        let l = r.latency;
        let fresh: [(&str, u64); 5] = [
            ("p50_ns", l.p50_ns),
            ("p95_ns", l.p95_ns),
            ("p99_ns", l.p99_ns),
            ("max_ns", l.max_ns),
            ("total_ns", r.total_ns),
        ];
        let mut bad = Vec::new();
        for (key, got) in fresh {
            let want = row.get(key).and_then(Json::as_f64);
            if want != Some(got as f64) {
                bad.push(format!(
                    "{key} {got} vs baseline {}",
                    want.map_or_else(|| "missing".into(), |w| format!("{w}"))
                ));
            }
        }
        if bad.is_empty() {
            println!("{:<20} ok", r.scheme);
        } else {
            println!("{:<20} MISMATCH", r.scheme);
            failures.push(format!("{}: {}", r.scheme, bad.join(", ")));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
