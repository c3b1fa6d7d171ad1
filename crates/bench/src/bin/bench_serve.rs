//! Multi-tenant serving chaos drill: concurrent tenant clients against a
//! child `anubis-serve` process, connection-layer fault injection,
//! SIGKILL at randomized ack thresholds, restart, and zero
//! acknowledged-write-loss verification with bounded time-to-healthy.
//!
//! Emits `BENCH_serve.json` (override with `--out PATH`). Exit code 1 on
//! any contract violation: an acknowledged write lost, an injected
//! connection fault that did not surface as a typed protocol error, or
//! a tenant that never returned to full serving mode.
//!
//! Knobs (all environment variables):
//!
//! | knob | default | meaning |
//! |---|---|---|
//! | `ANUBIS_SERVE_POINTS` | 100 | randomized kill points |
//! | `ANUBIS_SERVE_SEED` | `0xC4A05EED` | script + kill-threshold seed |
//! | `ANUBIS_SERVE_DIR` | `$TMPDIR/anubis-serve-chaos` | scratch for images |
//! | `ANUBIS_SERVE_SWEEP` | unset | `1` = exhaustive: one kill point per ack threshold |
//! | `ANUBIS_SERVE_FLEET` | 4 | concurrent tenants per point |
//!
//! The drill re-executes this binary with `--serve` as the victim server
//! process (configured through `ANUBIS_SERVE_*` knobs set by the
//! harness); the server is SIGKILLed mid-flight on purpose.

use std::path::PathBuf;
use std::process::ExitCode;

use anubis_bench::json::Json;
use anubis_bench::out_path_from_args;
use anubis_sim::chaos::{run_chaos_campaign, ChaosReport, ChaosSpec};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `--serve` victim mode: a plain `anubis-serve` daemon configured
/// from the environment, printing its listen address for the parent.
fn serve_child() -> ExitCode {
    use std::io::Write;
    let cfg = match anubis_server::ServeConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_serve --serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match anubis_server::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_serve --serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ANUBIS_SERVE_LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The `_ms` keys older readers of the artifact know: the microsecond
/// measurement, rounded.
fn rounded_ms(us: u64) -> u64 {
    (us + 500) / 1000
}

fn report_json(r: &ChaosReport, seed: u64, sweep: bool) -> Json {
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("kill_after_acks", Json::Int(o.kill_after_acks)),
                ("acked", Json::Int(o.acked)),
                ("completed", Json::Bool(o.completed)),
                ("fault", Json::Str(o.fault.into())),
                ("time_to_healthy_us", Json::Int(o.time_to_healthy_us)),
                (
                    "time_to_healthy_ms",
                    Json::Int(rounded_ms(o.time_to_healthy_us)),
                ),
                ("verified_addrs", Json::Int(o.verified_addrs)),
                ("inflight_tolerated", Json::Int(o.inflight_tolerated)),
            ])
        })
        .collect();
    let faults: Vec<Json> = r
        .fault_counts
        .iter()
        .map(|(k, v)| {
            Json::obj(vec![
                ("fault", Json::Str((*k).into())),
                ("injected", Json::Int(*v)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::Str("serve".into())),
        ("host", anubis_bench::host_info_json()),
        ("seed", Json::Int(seed)),
        ("sweep", Json::Bool(sweep)),
        ("points", Json::Int(r.points)),
        ("tenants", Json::Int(r.tenants)),
        ("acked_total", Json::Int(r.acked_total)),
        ("verified_total", Json::Int(r.verified_total)),
        ("acked_write_losses", Json::Int(0)),
        ("completed_runs", Json::Int(r.completed_runs)),
        ("inflight_tolerated", Json::Int(r.inflight_tolerated)),
        ("time_to_healthy_p50_us", Json::Int(r.tth_p50_us)),
        ("time_to_healthy_p95_us", Json::Int(r.tth_p95_us)),
        (
            "time_to_healthy_p50_ms",
            Json::Int(rounded_ms(r.tth_p50_us)),
        ),
        (
            "time_to_healthy_p95_ms",
            Json::Int(rounded_ms(r.tth_p95_us)),
        ),
        (
            "kill_range",
            Json::Arr(vec![Json::Int(r.kill_range.0), Json::Int(r.kill_range.1)]),
        ),
        ("connection_faults", Json::Arr(faults)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--serve") {
        return serve_child();
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("serve drill: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = env_u64("ANUBIS_SERVE_POINTS", 100);
    let seed = env_u64("ANUBIS_SERVE_SEED", 0xC4A0_5EED);
    let sweep = std::env::var("ANUBIS_SERVE_SWEEP")
        .map(|v| v == "1")
        .unwrap_or(false);
    let dir = std::env::var_os("ANUBIS_SERVE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("anubis-serve-chaos"));
    let spec = ChaosSpec {
        seed,
        tenants: env_u64("ANUBIS_SERVE_FLEET", 4).max(1) as usize,
        ..ChaosSpec::default()
    };

    println!("== Anubis reproduction :: multi-tenant serving chaos drill ==");
    println!(
        "{points} kill points{}, {} tenants, seed {seed:#x}, scratch {}",
        if sweep { " (exhaustive sweep)" } else { "" },
        spec.tenants,
        dir.display()
    );

    let report = match run_chaos_campaign(&exe, &["--serve"], &spec, &dir, points, sweep) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve drill FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  {} points, {} acked writes verified ({} in-flight tolerated), \
         time-to-healthy p50 {} us / p95 {} us",
        report.points,
        report.verified_total,
        report.inflight_tolerated,
        report.tth_p50_us,
        report.tth_p95_us
    );
    for (fault, n) in &report.fault_counts {
        println!("  fault {fault:<22} injected {n}x, all typed");
    }

    let doc = report_json(&report, seed, sweep);
    let out = out_path_from_args("BENCH_serve.json");
    if let Err(e) = std::fs::write(&out, doc.render()) {
        eprintln!("serve drill: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{} kill points, {} acked writes verified, zero losses -> {}",
        report.points,
        report.verified_total,
        out.display()
    );
    ExitCode::SUCCESS
}
