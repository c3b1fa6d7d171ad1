//! Multi-tenant serving chaos harness: N concurrent tenant clients
//! against a child `anubis-serve` process, connection-layer fault
//! injection, SIGKILL at randomized ack thresholds, restart, and
//! acknowledged-write verification.
//!
//! The contract being drilled, per campaign point:
//!
//! 1. Spawn the server on a fresh data directory with ≥4 tenants.
//! 2. One client thread per tenant streams writes, entering every
//!    acknowledgement into the tenant's [`Acked`] model.
//! 3. A saboteur connection injects one connection-layer fault class
//!    (garbage magic, corrupted checksum, truncated frame, slowloris
//!    stall, mid-stream disconnect) and asserts it surfaces as a typed
//!    protocol error or a clean close — never a hang.
//! 4. When the global ack count crosses the point's randomized kill
//!    threshold, the server is SIGKILLed mid-flight.
//! 5. The server restarts on the same images; the harness measures
//!    **time-to-healthy** (every tenant back in full serving mode).
//! 6. Each tenant's model is audited through the restarted server:
//!    every acknowledged write must read back exactly; the single
//!    in-flight-at-kill write per tenant may read as either its old or
//!    new value (the oracle every campaign shares, [`crate::campaign`]).
//!
//! Any acknowledged-write loss, untyped connection fault, or tenant that
//! never returns to full service fails the campaign with a typed
//! [`ChaosError`].

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anubis_nvm::Block;
use anubis_server::protocol::{
    fnv1a64, read_frame, write_frame, FrameEvent, Request, Response, MAGIC,
};
use anubis_server::{ClientError, ServeClient, ServeError, ServeMode};

use crate::campaign::{io_ctx, Acked, Fate, HarnessError, ReadBack, Victim, XorShift64};

/// Campaign-level failure. Everything carries enough context to
/// reproduce: the tenant, the address, the fault class, the path.
#[derive(Debug)]
pub enum ChaosError {
    /// Filesystem or process-management failure, with operation and
    /// path; or a server that left before its kill.
    Harness(HarnessError),
    /// The server child did not print its listening line.
    ServerSpawn {
        /// What went wrong.
        detail: String,
    },
    /// An acknowledged write read back wrong after restart.
    AckedWriteLost {
        /// The tenant that lost the write.
        tenant: String,
        /// The data-line address.
        addr: u64,
        /// First byte of the expected payload (acked value).
        want: u8,
        /// First byte of what was read back.
        got: u8,
    },
    /// A tenant did not return to full serving mode within the budget.
    NotHealthy {
        /// The stuck tenant.
        tenant: String,
        /// How long the harness waited.
        waited_ms: u64,
    },
    /// An injected connection fault did not surface as a typed protocol
    /// error or clean close.
    UntypedFault {
        /// The fault class that misbehaved.
        fault: &'static str,
        /// What was observed instead.
        detail: String,
    },
    /// A client could not complete the verification phase.
    Verify {
        /// The tenant being verified.
        tenant: String,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Harness(HarnessError::Io { op, path, source }) => {
                write!(
                    f,
                    "chaos I/O failure while {op} at {}: {source}",
                    path.display()
                )
            }
            ChaosError::Harness(e) => write!(f, "{e}"),
            ChaosError::ServerSpawn { detail } => write!(f, "server spawn failed: {detail}"),
            ChaosError::AckedWriteLost {
                tenant,
                addr,
                want,
                got,
            } => write!(
                f,
                "ACKED WRITE LOST: tenant {tenant} addr {addr} want {want:#04x} got {got:#04x}"
            ),
            ChaosError::NotHealthy { tenant, waited_ms } => write!(
                f,
                "tenant {tenant} not back to full service after {waited_ms} ms"
            ),
            ChaosError::UntypedFault { fault, detail } => {
                write!(f, "connection fault {fault:?} was not typed: {detail}")
            }
            ChaosError::Verify { tenant, detail } => {
                write!(f, "verification failed for tenant {tenant}: {detail}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<HarnessError> for ChaosError {
    fn from(e: HarnessError) -> Self {
        ChaosError::Harness(e)
    }
}

/// Campaign geometry.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Seed for scripts and kill thresholds.
    pub seed: u64,
    /// Concurrent tenants (the acceptance floor is 4).
    pub tenants: usize,
    /// Data lines per tenant address space.
    pub lines: u64,
    /// Maximum writes per tenant per point.
    pub script_len: u64,
    /// Budget for every tenant to return to full service after restart.
    pub healthy_budget_ms: u64,
    /// Server-side mid-frame stall budget (kept small so slowloris
    /// points resolve quickly).
    pub server_stall_ms: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0xC4A0_5EED,
            tenants: 4,
            lines: 48,
            script_len: 24,
            healthy_budget_ms: 20_000,
            server_stall_ms: 150,
        }
    }
}

/// One campaign point's outcome.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// Ack threshold at which the server was SIGKILLed.
    pub kill_after_acks: u64,
    /// Acknowledged writes across all tenants before the kill.
    pub acked: u64,
    /// Whether every script completed before the threshold was reached
    /// (the kill then lands post-quiescence).
    pub completed: bool,
    /// Connection fault class injected this point.
    pub fault: &'static str,
    /// Microseconds from restart until every tenant served in full mode.
    pub time_to_healthy_us: u64,
    /// Acknowledged `(tenant, addr)` pairs verified after restart.
    pub verified_addrs: u64,
    /// Reads that matched the in-flight-at-kill value instead of the
    /// last acked value (the allowed single-write tolerance).
    pub inflight_tolerated: u64,
}

/// Whole-campaign report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Campaign points executed.
    pub points: u64,
    /// Concurrent tenants per point.
    pub tenants: u64,
    /// Total acknowledged writes across the campaign.
    pub acked_total: u64,
    /// Total acknowledged writes verified after restarts.
    pub verified_total: u64,
    /// Points whose scripts completed before the kill threshold.
    pub completed_runs: u64,
    /// Total in-flight-tolerance hits.
    pub inflight_tolerated: u64,
    /// Median time-to-healthy across points, microseconds.
    pub tth_p50_us: u64,
    /// 95th-percentile time-to-healthy across points, microseconds.
    pub tth_p95_us: u64,
    /// `(fault class, injections)` counts — every one surfaced typed.
    pub fault_counts: Vec<(&'static str, u64)>,
    /// Kill-threshold range exercised.
    pub kill_range: (u64, u64),
    /// Per-point detail.
    pub outcomes: Vec<PointOutcome>,
}

const FAULTS: [&str; 5] = [
    "bad_magic",
    "bad_checksum",
    "truncated_disconnect",
    "slowloris",
    "midstream_disconnect",
];

fn tenant_name(i: usize) -> String {
    format!("tenant-{i}")
}

fn tenant_token(i: usize) -> String {
    format!("token-{i}")
}

fn roster(spec: &ChaosSpec) -> String {
    (0..spec.tenants)
        .map(|i| {
            let family = if i % 2 == 0 { "bonsai" } else { "sgx" };
            format!("{}:{}:{}", tenant_name(i), tenant_token(i), family)
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn payload_for(tenant: usize, op: u64, nonce: u64) -> [u8; 64] {
    let h = fnv1a64(&[tenant as u8, op as u8, (op >> 8) as u8]) ^ nonce.rotate_left(17);
    let mut b = [0u8; 64];
    for (i, slot) in b.iter_mut().enumerate() {
        *slot = (h.rotate_left((i % 64) as u32) & 0xFF) as u8;
    }
    b[0] = (h & 0x7F) as u8 | 0x80; // never zero: distinguishes from unwritten
    b
}

/// A spawned server child plus its parsed listen address.
struct ServerProc {
    victim: Victim,
    addr: String,
}

fn spawn_server(
    exe: &Path,
    serve_args: &[&str],
    data_dir: &Path,
    spec: &ChaosSpec,
) -> Result<ServerProc, ChaosError> {
    let mut victim = Victim::spawn(
        Command::new(exe)
            .args(serve_args)
            .env("ANUBIS_SERVE_ADDR", "127.0.0.1:0")
            .env("ANUBIS_SERVE_DATA", data_dir)
            .env("ANUBIS_SERVE_TENANTS", roster(spec))
            .env("ANUBIS_SERVE_STALL_MS", spec.server_stall_ms.to_string())
            .env("ANUBIS_SERVE_IDLE_MS", "10000")
            .env("ANUBIS_SERVE_CHAOS", "0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    )?;
    let spawn_failed = |detail: String| ChaosError::ServerSpawn { detail };
    let stdout = victim
        .take_stdout()
        .ok_or_else(|| spawn_failed("no stdout pipe".to_string()))?;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| spawn_failed(format!("stdout read failed: {e}")))?;
        if let Some(rest) = line.strip_prefix("ANUBIS_SERVE_LISTENING ") {
            let addr = rest.trim().to_string();
            return Ok(ServerProc { victim, addr });
        }
    }
    Err(spawn_failed(
        "server exited before printing listen address".to_string(),
    ))
}

/// What one tenant client learned before the kill: the model of its
/// acknowledged writes (the write in flight when the connection died
/// stays in flight) and how many acknowledgements built it.
#[derive(Default)]
struct TenantLedger {
    model: Acked,
    acks: u64,
}

/// Streams the write script for one tenant until the connection dies or
/// the script completes. Typed rejections (Degraded during the boot
/// ladder, Overloaded, CircuitOpen, DeadlineExceeded) are retried after
/// a short pause — they are backpressure, not failures.
fn run_tenant_script(
    addr: &str,
    tenant_idx: usize,
    spec: &ChaosSpec,
    point_nonce: u64,
    acks_global: &AtomicU64,
    stop: &AtomicBool,
) -> TenantLedger {
    let mut ledger = TenantLedger::default();
    let Ok(mut client) =
        ServeClient::connect(addr, &tenant_name(tenant_idx), &tenant_token(tenant_idx))
    else {
        return ledger;
    };
    let mut rng = XorShift64::new(
        spec.seed ^ point_nonce.rotate_left(23) ^ (tenant_idx as u64).rotate_left(41),
    );
    let mut op = 0u64;
    while op < spec.script_len && !stop.load(Ordering::Relaxed) {
        let line = rng.next_raw() % spec.lines;
        let payload = payload_for(tenant_idx, op, rng.next_raw());
        let block = Block::from_bytes(payload);
        ledger.model.attempt(line, block);
        match client.write(line, payload, 200) {
            Ok(()) => {
                ledger.model.ack(op, line, block);
                ledger.acks += 1;
                acks_global.fetch_add(1, Ordering::Relaxed);
                op += 1;
            }
            Err(ClientError::Server(
                ServeError::Degraded { .. }
                | ServeError::Overloaded { .. }
                | ServeError::CircuitOpen { .. }
                | ServeError::DeadlineExceeded { .. },
            )) => {
                // Typed backpressure: the write was not executed.
                ledger.model.settle();
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break, // Connection died (the kill); keep inflight.
        }
    }
    ledger
}

/// Injects one connection-layer fault and asserts the server's reaction
/// is typed: either a `BadFrame` error response or a clean close. A hang
/// (no reaction within the budget) is a campaign failure.
fn inject_connection_fault(addr: &str, fault: &'static str) -> Result<(), ChaosError> {
    let untyped = |detail: String| ChaosError::UntypedFault { fault, detail };
    let mut stream = TcpStream::connect(addr).map_err(|e| untyped(format!("connect: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .map_err(|e| untyped(format!("set timeout: {e}")))?;

    let expect_typed_or_close = |stream: &mut TcpStream| -> Result<(), ChaosError> {
        match read_frame(
            stream,
            1 << 20,
            Duration::from_secs(5),
            Duration::from_secs(5),
            &|| false,
        ) {
            Ok(FrameEvent::Payload(p)) => match Response::decode(&p) {
                Ok(Response::Err(ServeError::BadFrame { .. })) => Ok(()),
                Ok(other) => Err(untyped(format!("unexpected response {other:?}"))),
                Err(e) => Err(untyped(format!("undecodable response: {e}"))),
            },
            Ok(FrameEvent::Closed) => Ok(()),
            Err(e) => Err(untyped(format!("transport error: {e}"))),
        }
    };

    match fault {
        "bad_magic" => {
            stream
                .write_all(&[0xBA, 0xDC, 0x0F, 0xFE, 4, 0, 0, 0])
                .map_err(|e| untyped(format!("write: {e}")))?;
            expect_typed_or_close(&mut stream)
        }
        "bad_checksum" => {
            let payload = Request::Stats.encode();
            let mut frame = Vec::new();
            frame.extend_from_slice(&MAGIC.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&(fnv1a64(&payload) ^ 0xFFFF).to_le_bytes());
            stream
                .write_all(&frame)
                .map_err(|e| untyped(format!("write: {e}")))?;
            expect_typed_or_close(&mut stream)
        }
        "truncated_disconnect" => {
            let mut frame = Vec::new();
            frame.extend_from_slice(&MAGIC.to_le_bytes());
            frame.extend_from_slice(&128u32.to_le_bytes());
            frame.extend_from_slice(&[0xAA; 10]); // 10 of 128 promised bytes
            stream
                .write_all(&frame)
                .map_err(|e| untyped(format!("write: {e}")))?;
            drop(stream); // Disconnect mid-frame; server must not hang.
            Ok(())
        }
        "slowloris" => {
            let mut frame = Vec::new();
            frame.extend_from_slice(&MAGIC.to_le_bytes());
            frame.extend_from_slice(&64u32.to_le_bytes());
            frame.extend_from_slice(&[0x55; 8]);
            stream
                .write_all(&frame)
                .map_err(|e| untyped(format!("write: {e}")))?;
            // Go silent mid-frame past the server's stall budget; the
            // typed reaction is BadFrame(stalled) or a close.
            expect_typed_or_close(&mut stream)
        }
        "midstream_disconnect" => {
            // Handshake first, then vanish mid-frame on an established
            // session.
            let hello = Request::Hello {
                version: anubis_server::PROTO_VERSION,
                tenant: tenant_name(0),
                token: anubis_server::token_hash(&tenant_token(0)),
            };
            write_frame(&mut stream, &hello.encode())
                .map_err(|e| untyped(format!("hello: {e}")))?;
            match read_frame(
                &mut stream,
                1 << 20,
                Duration::from_secs(5),
                Duration::from_secs(5),
                &|| false,
            ) {
                Ok(FrameEvent::Payload(_)) => {}
                other => return Err(untyped(format!("handshake got {:?}", other.map(|_| ())))),
            }
            let mut partial = Vec::new();
            partial.extend_from_slice(&MAGIC.to_le_bytes());
            partial.extend_from_slice(&77u32.to_le_bytes());
            partial.extend_from_slice(&[1, 2, 3, 4]);
            stream
                .write_all(&partial)
                .map_err(|e| untyped(format!("write: {e}")))?;
            drop(stream);
            Ok(())
        }
        other => Err(untyped(format!("unknown fault class {other:?}"))),
    }
}

/// Polls every tenant until it reports full serving mode; returns the
/// elapsed microseconds (time-to-healthy for the point). Each tenant is
/// polled over one kept session, re-made only when it breaks, at a pause
/// far below the recovery times being measured, so the poll does not
/// quantise the reading.
fn await_all_healthy(addr: &str, spec: &ChaosSpec) -> Result<u64, ChaosError> {
    const POLL: Duration = Duration::from_micros(200);
    let start = Instant::now();
    let budget = Duration::from_millis(spec.healthy_budget_ms);
    for i in 0..spec.tenants {
        let name = tenant_name(i);
        let mut session: Option<ServeClient> = None;
        loop {
            if start.elapsed() > budget {
                return Err(ChaosError::NotHealthy {
                    tenant: name,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            if session.is_none() {
                session = ServeClient::connect(addr, &name, &tenant_token(i)).ok();
            }
            match session.as_mut().map(ServeClient::stats) {
                Some(Ok(s)) if s.mode == ServeMode::Full.code() => break,
                Some(Ok(_)) => {}
                _ => session = None,
            }
            std::thread::sleep(POLL);
        }
    }
    Ok(start.elapsed().as_micros() as u64)
}

/// Verifies every acknowledged write for one tenant, honoring the
/// single in-flight tolerance. Returns `(verified, inflight_hits)`.
fn verify_tenant(
    addr: &str,
    tenant_idx: usize,
    ledger: &TenantLedger,
) -> Result<(u64, u64), ChaosError> {
    let name = tenant_name(tenant_idx);
    let mut client = ServeClient::connect(addr, &name, &tenant_token(tenant_idx)).map_err(|e| {
        ChaosError::Verify {
            tenant: name.clone(),
            detail: format!("connect: {e}"),
        }
    })?;
    let mut verified = 0u64;
    let mut inflight_hits = 0u64;
    let findings = ledger.model.audit(
        &mut client,
        |c, line| c.read(line, 0).map(|(data, _mode)| Block::from_bytes(data)),
        |_, _, _| false,
    );
    for found in findings {
        match found.readback {
            ReadBack::Matched => {}
            // The one in-flight write at kill time may have landed instead.
            ReadBack::InFlight => inflight_hits += 1,
            ReadBack::Failed(e) => {
                return Err(ChaosError::Verify {
                    tenant: name,
                    detail: format!("read addr {}: {e}", found.addr),
                })
            }
            ReadBack::Wrong { got } => {
                return Err(ChaosError::AckedWriteLost {
                    tenant: name,
                    addr: found.addr,
                    want: found.want.as_bytes()[0],
                    got: got.as_bytes()[0],
                })
            }
            ReadBack::Excused => unreachable!("this audit excuses nothing"),
        }
        verified += 1;
    }
    Ok((verified, inflight_hits))
}

/// Runs one campaign point; see the module docs for the sequence.
#[allow(clippy::too_many_lines)]
fn run_point(
    exe: &Path,
    serve_args: &[&str],
    spec: &ChaosSpec,
    dir: &Path,
    point: u64,
    kill_after_acks: u64,
    fault: &'static str,
) -> Result<PointOutcome, ChaosError> {
    let point_dir = dir.join(format!("point-{point}"));
    let _ = std::fs::remove_dir_all(&point_dir);
    std::fs::create_dir_all(&point_dir).map_err(io_ctx("creating point dir", &point_dir))?;

    // Phase 1: serve, stream writes, sabotage, kill.
    let mut server = spawn_server(exe, serve_args, &point_dir, spec)?;
    let acks = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for i in 0..spec.tenants {
        let addr = server.addr.clone();
        let spec_c = spec.clone();
        let acks_c = Arc::clone(&acks);
        let stop_c = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            run_tenant_script(&addr, i, &spec_c, point, &acks_c, &stop_c)
        }));
    }
    // The saboteur runs while the tenants stream.
    let fault_result = inject_connection_fault(&server.addr, fault);

    // Kill when the ack threshold is crossed, or all scripts finish, or
    // — stuck scripts — after 30 s anyway: verification decides.
    let mut completed = false;
    let fate = server.victim.kill_when(Duration::from_secs(30), || {
        let due = acks.load(Ordering::Relaxed) >= kill_after_acks;
        completed = !due && workers.iter().all(|w| w.is_finished());
        Ok(due || completed)
    });
    // Dead already, or killed and reaped here: either way the scripts'
    // connections end with it and the workers can be joined.
    drop(server);
    stop.store(true, Ordering::Relaxed);
    let ledgers: Vec<TenantLedger> = workers
        .into_iter()
        .map(|w| w.join().unwrap_or_default())
        .collect();
    match fate? {
        Fate::Killed => {}
        Fate::Hung => completed = true,
        Fate::Exited(status) => {
            let code = status.code();
            return Err(HarnessError::Child { code }.into());
        }
    }
    fault_result?;

    // Phase 2: restart on the same images, measure time-to-healthy. The
    // restarted server is killed and reaped when `restart` drops,
    // whichever way this function returns.
    let restart = spawn_server(exe, serve_args, &point_dir, spec)?;
    let time_to_healthy_us = await_all_healthy(&restart.addr, spec)?;

    // Phase 3: every acknowledged write must read back.
    let mut verified_addrs = 0u64;
    let mut inflight_tolerated = 0u64;
    for (i, ledger) in ledgers.iter().enumerate() {
        if ledger.model.is_empty() {
            continue;
        }
        let (verified, tolerated) = verify_tenant(&restart.addr, i, ledger)?;
        verified_addrs += verified;
        inflight_tolerated += tolerated;
    }
    drop(restart);
    let _ = std::fs::remove_dir_all(&point_dir);

    Ok(PointOutcome {
        kill_after_acks,
        acked: ledgers.iter().map(|l| l.acks).sum(),
        completed,
        fault,
        time_to_healthy_us,
        verified_addrs,
        inflight_tolerated,
    })
}

/// The kill thresholds of a campaign, a pure function of the spec's
/// seed: `points` draws from `1..=max_acks`, or (`sweep`) the first
/// `points` of them in order.
fn planned_kills(spec: &ChaosSpec, points: u64, sweep: bool) -> Vec<u64> {
    let max_acks = (spec.tenants as u64) * spec.script_len;
    if sweep {
        return (1..=points.min(max_acks)).collect();
    }
    let mut rng = XorShift64::new(spec.seed);
    (0..points).map(|_| 1 + rng.next_raw() % max_acks).collect()
}

/// Runs a chaos campaign of `points` kill points against the server
/// binary at `exe` (invoked with `serve_args`, e.g. `["--serve"]`).
/// `sweep` walks every ack threshold exhaustively instead of sampling.
///
/// # Errors
///
/// The first [`ChaosError`] encountered; a clean return means **zero
/// acknowledged-write loss**, every fault typed, and every tenant back
/// in full service within budget on every point.
pub fn run_chaos_campaign(
    exe: &Path,
    serve_args: &[&str],
    spec: &ChaosSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<ChaosReport, ChaosError> {
    std::fs::create_dir_all(dir).map_err(io_ctx("creating campaign dir", dir))?;
    let planned = planned_kills(spec, points, sweep);
    let mut outcomes = Vec::new();
    let mut fault_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut kill_lo = u64::MAX;
    let mut kill_hi = 0u64;
    for (point, kill_after_acks) in (0..).zip(planned) {
        let fault = FAULTS[(point as usize) % FAULTS.len()];
        let outcome = run_point(exe, serve_args, spec, dir, point, kill_after_acks, fault)?;
        kill_lo = kill_lo.min(kill_after_acks);
        kill_hi = kill_hi.max(kill_after_acks);
        *fault_counts.entry(fault).or_insert(0) += 1;
        outcomes.push(outcome);
    }
    let mut tth: Vec<u64> = outcomes.iter().map(|o| o.time_to_healthy_us).collect();
    tth.sort_unstable();
    Ok(ChaosReport {
        points: outcomes.len() as u64,
        tenants: spec.tenants as u64,
        acked_total: outcomes.iter().map(|o| o.acked).sum(),
        verified_total: outcomes.iter().map(|o| o.verified_addrs).sum(),
        completed_runs: outcomes.iter().filter(|o| o.completed).count() as u64,
        inflight_tolerated: outcomes.iter().map(|o| o.inflight_tolerated).sum(),
        tth_p50_us: anubis::telemetry::percentile_of_sorted(&tth, 0.50),
        tth_p95_us: anubis::telemetry::percentile_of_sorted(&tth, 0.95),
        fault_counts: fault_counts.into_iter().collect(),
        kill_range: if kill_lo == u64::MAX {
            (0, 0)
        } else {
            (kill_lo, kill_hi)
        },
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCH_serve.json` is reproducible from its seed only
    /// while the kill-threshold draw stays what it was.
    #[test]
    fn committed_seed_produces_the_recorded_kill_thresholds() {
        assert_eq!(
            planned_kills(&ChaosSpec::default(), 12, false),
            [49, 59, 21, 1, 74, 32, 77, 44, 72, 4, 56, 41]
        );
    }
}
