//! Probe for the execute / durable seam of the served path (DESIGN.md
//! §10): W writer and R reader connections on **one** bonsai tenant of
//! an in-process server, telemetry on. Reports what the ledger's
//! `serve_mixed` cannot see from outside — how long the tenant lock is
//! held, how long a request waits for its barrier, and how many
//! operations share one (the group-commit factor) — next to acked
//! writes/s and the client-side latencies.
//!
//! ```text
//! bench_group_commit [--writers 1] [--readers 1] [--seconds 4] [--lines 16384]
//! ```
//!
//! Reported, not gated: the numbers are host-dependent (run it under
//! `taskset -c 0` to reproduce the ledger's one-CPU pinning). Exit code
//! 1 only if a request fails.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anubis::telemetry::{percentile_of_sorted, Histogram, Registry};
use anubis_server::{parse_tenants, ServeClient, ServeConfig, ServeMode, Server};

const TENANT: &str = "a";
const TOKEN: &str = "tok";
const DEADLINE_MS: u32 = 10_000;

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} takes a number, got {v:?}"))
        })
}

/// One connection issuing `op` on xorshift-drawn lines until told to
/// stop; returns its latencies in ns.
fn lane(
    addr: std::net::SocketAddr,
    seed: u64,
    lines: u64,
    stop: Arc<AtomicBool>,
    op: fn(&mut ServeClient, u64, u8) -> bool,
) -> std::thread::JoinHandle<Option<Vec<u64>>> {
    std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr, TENANT, TOKEN).ok()?;
        let mut latencies = Vec::new();
        let mut x = seed;
        while !stop.load(Ordering::Relaxed) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let asked = Instant::now();
            if !op(&mut client, x % lines, x as u8) {
                return None;
            }
            latencies.push(asked.elapsed().as_nanos() as u64);
        }
        Some(latencies)
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn describe(what: &str, mut ns: Vec<u64>, seconds: u64) {
    if ns.is_empty() {
        return;
    }
    ns.sort_unstable();
    println!(
        "{what}: {} ({:.0}/s), p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs",
        ns.len(),
        ns.len() as f64 / seconds as f64,
        us(percentile_of_sorted(&ns, 0.5)),
        us(percentile_of_sorted(&ns, 0.9)),
        us(percentile_of_sorted(&ns, 0.99)),
    );
}

/// A `serve_*_us` histogram at its power-of-two bucket resolution.
fn describe_histogram(name: &str, h: &Histogram) {
    let buckets: Vec<String> = (h.buckets.iter().enumerate())
        .filter(|(_, &n)| n * 100 >= h.count.max(1))
        .map(|(i, n)| {
            format!(
                "<{}: {:.0} %",
                1u64 << i,
                *n as f64 * 100.0 / h.count as f64
            )
        })
        .collect();
    println!(
        "{name}: n {}, p50 ≤ {} µs, p99 ≤ {} µs, mean {:.1} µs; buckets (µs) {}",
        h.count,
        h.percentile(0.5),
        h.percentile(0.99),
        h.mean(),
        buckets.join(", "),
    );
}

fn main() -> ExitCode {
    let (writers, readers) = (arg("--writers", 1), arg("--readers", 1));
    let (seconds, lines) = (arg("--seconds", 4).max(1), arg("--lines", 16_384).max(1));
    let registry = Registry::global();

    let dir = std::env::temp_dir().join(format!("anubis-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        data_dir: dir.clone(),
        tenants: parse_tenants(&format!("{TENANT}:{TOKEN}:bonsai")).expect("tenant spec"),
        max_inflight: 64,
        ops_per_sec: 1e9,
        burst: 1_000_000_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server start");
    let addr = server.local_addr();
    let mut setup = ServeClient::connect(addr, TENANT, TOKEN).expect("connect");
    while setup.stats().expect("stats").mode != ServeMode::Full.code() {
        std::thread::sleep(Duration::from_millis(5));
    }
    for chunk in (0..lines).collect::<Vec<_>>().chunks(512) {
        let batch = chunk.iter().map(|&a| (a, [a as u8; 64])).collect();
        setup.write_batch(batch, DEADLINE_MS).expect("prefill");
    }
    registry.set_enabled(true); // the histograms see the timed part only

    let tenant = server.tenant(TENANT).expect("tenant");
    let frames = || tenant.epochs().map_or(0, |(cut, _)| cut);
    let counters = || {
        let snap = registry.snapshot();
        (
            snap.counter("serve_barriers_total", TENANT),
            snap.counter("serve_barrier_ops_total", TENANT),
        )
    };
    let (frames_before, (barriers_before, ops_before)) = (frames(), counters());
    let stop = Arc::new(AtomicBool::new(false));
    let write_lanes: Vec<_> = (0..writers)
        .map(|w| {
            let seed = 0x9E37_79B9_7F4A_7C15 ^ (w + 1) << 32;
            lane(addr, seed, lines, Arc::clone(&stop), |c, line, fill| {
                c.write(line, [fill; 64], DEADLINE_MS).is_ok()
            })
        })
        .collect();
    let read_lanes: Vec<_> = (0..readers)
        .map(|r| {
            let seed = 0xD1B5_4A32_D192_ED03 ^ (r + 1) << 32;
            lane(addr, seed, lines, Arc::clone(&stop), |c, line, _| {
                c.read(line, DEADLINE_MS).is_ok()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    let join = |lanes: Vec<std::thread::JoinHandle<Option<Vec<u64>>>>| {
        let mut all = Some(Vec::new());
        for lane in lanes {
            match (lane.join().ok().flatten(), all.as_mut()) {
                (Some(ns), Some(all)) => all.extend(ns),
                _ => all = None,
            }
        }
        all
    };
    let (written, read) = (join(write_lanes), join(read_lanes));
    let (frames, (barriers, ops)) = (frames() - frames_before, {
        let (barriers, ops) = counters();
        (barriers - barriers_before, ops - ops_before)
    });
    let snap = registry.snapshot();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let (Some(written), Some(read)) = (written, read) else {
        eprintln!("bench_group_commit: a request failed");
        return ExitCode::FAILURE;
    };
    println!("writers {writers}, readers {readers}, {seconds} s, {lines} lines, one bonsai tenant");
    let acked = written.len();
    describe("acked writes", written, seconds);
    describe("reads", read, seconds);
    println!(
        "frames {frames}: {:.2} acked writes per frame; leader barriers {barriers} covering \
         {ops} writes: serve_barrier_ops_total / serve_barriers_total = {:.2}",
        acked as f64 / frames.max(1) as f64,
        ops as f64 / barriers.max(1) as f64,
    );
    for name in [
        "serve_lock_wait_us",
        "serve_lock_hold_us",
        "serve_durable_wait_us",
    ] {
        if let Some(h) = snap.histograms.get(name).and_then(|m| m.get(TENANT)) {
            describe_histogram(name, h);
        }
    }
    ExitCode::SUCCESS
}
