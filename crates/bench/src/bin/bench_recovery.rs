//! Machine-readable recovery benchmark: wall-clock recovery time per
//! scheme at 1/2/4/8 lanes, with a bit-identity check against the serial
//! path.
//!
//! Emits `BENCH_recovery.json` (override with `--out PATH`). Exit code 1
//! if any lane count produces a `RecoveryReport` that differs from the
//! serial one — the determinism contract of `anubis::parallel`.
//!
//! The committed baseline records `host_parallelism`; on a single-core
//! runner the speedups are necessarily ~1x and the file still documents
//! the (bit-identical) engine behaviour.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemoryController, RecoveryReport, SgxController,
    SgxScheme,
};
use anubis_bench::json::Json;
use anubis_bench::{host_parallelism, out_path_from_args};
use anubis_sim::{run_trace, TimingModel};
use anubis_workloads::{spec2006, TraceGenerator};
use std::time::Instant;

const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Measured {
    lanes: usize,
    best_ns: f64,
    report: RecoveryReport,
    identical_to_serial: bool,
}

fn main() {
    let smoke = anubis_bench::smoke_requested();
    let (capacity, dirty_ops, reps) = if smoke {
        (4u64 << 20, 3_000usize, 2u32)
    } else {
        (32u64 << 20, 40_000usize, 5u32)
    };
    let config = AnubisConfig::small_test()
        .with_capacity(capacity)
        .with_cache_bytes(32 << 10);
    let trace =
        TraceGenerator::new(spec2006::milc(), config.capacity_bytes).generate(dirty_ops, 1907);

    println!("== Anubis reproduction :: recovery benchmark ==");
    println!(
        "capacity {} MiB, {} dirtying ops, best of {reps}, host parallelism {}",
        capacity >> 20,
        trace.len(),
        host_parallelism()
    );

    // Controllers default to the global registry, so enabling it here
    // lights up phase/lane spans for every timed recovery below. The
    // recovery wall-clocks are not regression-gated against a committed
    // baseline (throughput is), so recording during the timed loops is
    // fine — and gives the artifact real data.
    let telemetry = anubis_bench::telemetry::start();
    let mut diverged = false;
    let mut cases = Vec::new();

    // Osiris: whole-memory sweep (Figure 12's worst case) — every counter
    // block counter-trialled, whole tree rebuilt bottom-up.
    {
        let mut ctrl = BonsaiController::new(BonsaiScheme::Osiris, &config);
        run_trace(&mut ctrl, &trace, &TimingModel::paper()).expect("dirtying replay");
        ctrl.crash();
        let rows = measure(reps, &LANE_COUNTS, |lanes| {
            let mut c = ctrl.clone();
            let t0 = Instant::now();
            let report = c.recover_with_lanes(lanes).expect("osiris recovery");
            (t0.elapsed().as_nanos() as f64, report)
        });
        diverged |= rows.iter().any(|r| !r.identical_to_serial);
        cases.push(case_json("osiris", "whole-memory sweep (fig12)", &rows));
    }

    // AGIT+: tracked-leaf repair, O(cache).
    {
        let mut ctrl = BonsaiController::new(BonsaiScheme::AgitPlus, &config);
        run_trace(&mut ctrl, &trace, &TimingModel::paper()).expect("dirtying replay");
        ctrl.crash();
        let rows = measure(reps, &LANE_COUNTS, |lanes| {
            let mut c = ctrl.clone();
            let t0 = Instant::now();
            let report = c.recover_with_lanes(lanes).expect("agit recovery");
            (t0.elapsed().as_nanos() as f64, report)
        });
        diverged |= rows.iter().any(|r| !r.identical_to_serial);
        cases.push(case_json("agit-plus", "shadow-tracked leaf repair", &rows));
    }

    // ASIT: shadow-table verification + splice, O(cache).
    {
        let mut ctrl = SgxController::new(SgxScheme::Asit, &config);
        run_trace(&mut ctrl, &trace, &TimingModel::paper()).expect("dirtying replay");
        ctrl.crash();
        let rows = measure(reps, &LANE_COUNTS, |lanes| {
            let mut c = ctrl.clone();
            let t0 = Instant::now();
            let report = c.recover_with_lanes(lanes).expect("asit recovery");
            (t0.elapsed().as_nanos() as f64, report)
        });
        diverged |= rows.iter().any(|r| !r.identical_to_serial);
        cases.push(case_json("asit", "shadow-table verify + splice", &rows));
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("recovery".into())),
        ("host", anubis_bench::host_info_json()),
        ("host_parallelism", Json::Int(host_parallelism() as u64)),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("capacity_bytes", Json::Int(capacity)),
                ("cache_bytes", Json::Int(32 << 10)),
                ("dirty_ops", Json::Int(trace.len() as u64)),
                ("reps", Json::Int(u64::from(reps))),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ]);
    let out = out_path_from_args("BENCH_recovery.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("wrote {}", out.display());
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_recovery");

    if diverged {
        eprintln!("FAIL: parallel recovery diverged from serial");
        std::process::exit(1);
    }
    println!("all lane counts bit-identical to serial");
}

/// Times `run(lanes)` `reps` times per lane count (keeping the best) and
/// checks every report against the serial (lanes = 1) one.
fn measure(
    reps: u32,
    lane_counts: &[usize],
    run: impl Fn(usize) -> (f64, RecoveryReport),
) -> Vec<Measured> {
    let mut rows: Vec<Measured> = Vec::new();
    for &lanes in lane_counts {
        let mut best_ns = f64::INFINITY;
        let mut report = RecoveryReport::default();
        for _ in 0..reps {
            let (ns, r) = run(lanes);
            if ns < best_ns {
                best_ns = ns;
            }
            report = r;
        }
        let identical_to_serial = rows.first().map(|s| s.report == report).unwrap_or(true);
        rows.push(Measured {
            lanes,
            best_ns,
            report,
            identical_to_serial,
        });
    }
    rows
}

fn case_json(scheme: &str, mode: &str, rows: &[Measured]) -> Json {
    let serial_ns = rows[0].best_ns;
    let lanes = rows
        .iter()
        .map(|r| {
            let secs = r.best_ns / 1e9;
            let blocks = r.report.nvm_reads + r.report.nvm_writes;
            println!(
                "{scheme:>10} lanes={}: {:>12.0} ns, {:>9} report ops, speedup {:.2}x{}",
                r.lanes,
                r.best_ns,
                r.report.total_ops(),
                serial_ns / r.best_ns,
                if r.identical_to_serial {
                    ""
                } else {
                    "  ** DIVERGED **"
                }
            );
            Json::obj(vec![
                ("lanes", Json::Int(r.lanes as u64)),
                ("wall_ns", Json::Num(r.best_ns)),
                ("report_ops", Json::Int(r.report.total_ops())),
                (
                    "ns_per_op",
                    Json::Num(r.best_ns / r.report.total_ops().max(1) as f64),
                ),
                ("blocks_touched", Json::Int(blocks)),
                (
                    "blocks_per_s",
                    Json::Num(if secs > 0.0 {
                        blocks as f64 / secs
                    } else {
                        0.0
                    }),
                ),
                ("speedup_vs_serial", Json::Num(serial_ns / r.best_ns)),
                (
                    "report_identical_to_serial",
                    Json::Bool(r.identical_to_serial),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("scheme", Json::Str(scheme.into())),
        ("mode", Json::Str(mode.into())),
        ("lanes", Json::Arr(lanes)),
    ])
}
