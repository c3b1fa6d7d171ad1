//! Machine-readable replay-throughput benchmark: host wall-clock cost of
//! serial `run_trace` vs sharded replay (`run_trace_sharded`) at one and
//! N lanes.
//!
//! Emits `BENCH_throughput.json` (override with `--out PATH`). Exit code
//! 1 if the threaded sharded replay's merged result differs from the
//! inline (lanes = 1) sharded replay — they must be bit-identical.
//!
//! Serial `run_trace` and sharded replay are *different experiments*
//! (one controller + one channel vs per-shard controllers + channels), so
//! their simulated numbers legitimately differ; the baseline records both.
//! The speedup column compares host wall-clock of the same sharded
//! experiment at 1 vs N lanes.

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
use anubis_bench::json::Json;
use anubis_bench::{host_parallelism, out_path_from_args};
use anubis_sim::{run_trace, run_trace_sharded, RunResult, ShardedRunResult, TimingModel};
use anubis_workloads::{spec2006, Trace, TraceGenerator};
use std::time::Instant;

const SHARDS: usize = 4;

fn main() {
    let smoke = anubis_bench::smoke_requested();
    let (ops, reps) = if smoke {
        (5_000usize, 2u32)
    } else {
        (100_000usize, 3u32)
    };
    let config = AnubisConfig::small_test().with_capacity(8 << 20);
    let trace = TraceGenerator::new(spec2006::milc(), config.capacity_bytes).generate(ops, 1907);
    let model = TimingModel::paper();

    println!("== Anubis reproduction :: replay throughput benchmark ==");
    println!(
        "{} ops, {SHARDS} shards, best of {reps}, host parallelism {}",
        trace.len(),
        host_parallelism()
    );
    anubis_bench::warn_if_single_core();

    let mut diverged = false;
    let mut cases = Vec::new();

    {
        let cfg = &config;
        let (case, bad) = bench_scheme(
            "agit-plus",
            &trace,
            &model,
            reps,
            |t, m| {
                let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, cfg);
                run_trace(&mut c, t, m).expect("serial replay")
            },
            |t, m, lanes| {
                run_trace_sharded(
                    |_| BonsaiController::new(BonsaiScheme::AgitPlus, cfg),
                    t,
                    m,
                    SHARDS,
                    lanes,
                )
                .expect("sharded replay")
            },
        );
        diverged |= bad;
        cases.push(case);
    }
    {
        let cfg = &config;
        let (case, bad) = bench_scheme(
            "asit",
            &trace,
            &model,
            reps,
            |t, m| {
                let mut c = SgxController::new(SgxScheme::Asit, cfg);
                run_trace(&mut c, t, m).expect("serial replay")
            },
            |t, m, lanes| {
                run_trace_sharded(
                    |_| SgxController::new(SgxScheme::Asit, cfg),
                    t,
                    m,
                    SHARDS,
                    lanes,
                )
                .expect("sharded replay")
            },
        );
        diverged |= bad;
        cases.push(case);
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("throughput".into())),
        ("host", anubis_bench::host_info_json()),
        ("host_parallelism", Json::Int(host_parallelism() as u64)),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("capacity_bytes", Json::Int(8 << 20)),
                ("trace_ops", Json::Int(trace.len() as u64)),
                ("shards", Json::Int(SHARDS as u64)),
                ("reps", Json::Int(u64::from(reps))),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ]);
    let out = out_path_from_args("BENCH_throughput.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("wrote {}", out.display());

    // Telemetry artifact: the timed best-of loops above ran with the
    // global registry at its default (disabled unless ANUBIS_TELEMETRY=1)
    // so the recorded wall-clocks gate cleanly against the committed
    // baseline. One extra instrumented replay per scheme — outside the
    // timed region — populates the counters for TELEMETRY_*.jsonl.
    let telemetry = anubis_bench::telemetry::start();
    if telemetry.enabled() {
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &config);
        run_trace(&mut c, &trace, &model).expect("instrumented replay");
        let mut c = SgxController::new(SgxScheme::Asit, &config);
        run_trace(&mut c, &trace, &model).expect("instrumented replay");
    }
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_throughput");

    if diverged {
        eprintln!("FAIL: threaded sharded replay diverged from inline sharded replay");
        std::process::exit(1);
    }
    println!("sharded replay bit-identical at every lane count");
}

#[allow(clippy::too_many_arguments)]
fn bench_scheme(
    scheme: &str,
    trace: &Trace,
    model: &TimingModel,
    reps: u32,
    serial: impl Fn(&Trace, &TimingModel) -> RunResult,
    sharded: impl Fn(&Trace, &TimingModel, usize) -> ShardedRunResult,
) -> (Json, bool) {
    let (serial_ns, _serial_result) = best_of(reps, || serial(trace, model));
    let (inline_ns, inline_result) = best_of(reps, || sharded(trace, model, 1));
    let lanes_n = host_parallelism().clamp(2, SHARDS);
    let (threaded_ns, threaded_result) = best_of(reps, || sharded(trace, model, lanes_n));
    let identical = threaded_result.merged == inline_result.merged
        && threaded_result.shard_ns == inline_result.shard_ns;
    let row = |label: &str, lanes: usize, wall_ns: f64| {
        let secs = wall_ns / 1e9;
        println!(
            "{scheme:>10} {label:<18} lanes={lanes}: {:>12.0} ns wall, {:>10.0} ops/s",
            wall_ns,
            trace.len() as f64 / secs
        );
        Json::obj(vec![
            ("mode", Json::Str(label.into())),
            ("lanes", Json::Int(lanes as u64)),
            ("wall_ns", Json::Num(wall_ns)),
            ("ns_per_op", Json::Num(wall_ns / trace.len() as f64)),
            ("ops_per_s", Json::Num(trace.len() as f64 / secs)),
            ("speedup_vs_serial", Json::Num(serial_ns / wall_ns)),
        ])
    };
    let case = Json::obj(vec![
        ("scheme", Json::Str(scheme.into())),
        (
            "runs",
            Json::Arr(vec![
                row("run_trace", 1, serial_ns),
                row("sharded-inline", 1, inline_ns),
                row("sharded-threaded", lanes_n, threaded_ns),
            ]),
        ),
        (
            "sharded_sim_totals",
            Json::obj(vec![
                ("total_ns", Json::Int(inline_result.merged.total_ns)),
                ("nvm_reads", Json::Int(inline_result.merged.nvm_reads)),
                ("nvm_writes", Json::Int(inline_result.merged.nvm_writes)),
                (
                    "writes_per_data_write",
                    Json::Num(inline_result.merged.writes_per_data_write),
                ),
                (
                    "latency_p99_ns",
                    Json::Int(inline_result.merged.latency.p99_ns),
                ),
            ]),
        ),
        ("threaded_identical_to_inline", Json::Bool(identical)),
    ]);
    if !identical {
        eprintln!("{scheme}: sharded replay DIVERGED between lanes=1 and lanes={lanes_n}");
    }
    (case, !identical)
}

fn best_of<R>(reps: u32, f: impl Fn() -> R) -> (f64, R) {
    let mut best_ns = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as f64;
        if ns < best_ns {
            best_ns = ns;
        }
        result = Some(r);
    }
    (best_ns, result.expect("reps >= 1"))
}
