//! End-to-end robustness tests for `anubis-server`, run fully
//! in-process: a real TCP server on an ephemeral port, real client
//! connections, and the tenant's in-process fault hooks
//! (`Tenant::inject`, which no wire request reaches) driving every typed
//! failure path — deadlines, injected device faults, overload, circuit
//! breaking, degraded-mode reads, and connection-layer frame faults.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use anubis_server::{
    parse_tenants, ClientError, Inject, Request, Response, ServeClient, ServeConfig, ServeError,
    ServeMode, Server, PROTO_VERSION,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_config(tenants: &str) -> ServeConfig {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let data_dir =
        std::env::temp_dir().join(format!("anubis-serve-test-{}-{}", std::process::id(), seq));
    let _ = std::fs::remove_dir_all(&data_dir);
    ServeConfig {
        data_dir,
        tenants: parse_tenants(tenants).expect("tenant spec"),
        breaker_threshold: 2,
        breaker_cooldown_ms: 150,
        idle_ms: 5_000,
        stall_ms: 500,
        ..ServeConfig::default()
    }
}

/// Polls until the tenant reports full serving mode.
fn await_full(client: &mut ServeClient, budget: Duration) {
    let start = Instant::now();
    loop {
        let stats = client.stats().expect("stats");
        if stats.mode == ServeMode::Full.code() {
            return;
        }
        assert!(
            start.elapsed() < budget,
            "tenant did not return to full service within {budget:?} (mode {})",
            stats.mode
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn handshake_auth_and_roundtrip() {
    let cfg = test_config("alpha:s3cret:bonsai,beta:hunter2:sgx");
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr();

    // Wrong token and unknown tenant are typed rejections.
    match ServeClient::connect(addr, "alpha", "wrong").err() {
        Some(ClientError::Server(ServeError::AuthFailed)) => {}
        other => panic!("wrong token must fail auth, got {other:?}"),
    }
    match ServeClient::connect(addr, "nobody", "s3cret").err() {
        Some(ClientError::Server(ServeError::AuthFailed)) => {}
        other => panic!("unknown tenant must fail auth, got {other:?}"),
    }

    // Both tenants serve writes and reads after their boot ladder.
    for (tenant, token) in [("alpha", "s3cret"), ("beta", "hunter2")] {
        let mut c = ServeClient::connect(addr, tenant, token).expect("connect");
        await_full(&mut c, Duration::from_secs(10));
        let payload = [0x5A; 64];
        c.write(7, payload, 0).expect("write");
        let (got, mode) = c.read(7, 0).expect("read");
        assert_eq!(got, payload);
        assert_eq!(mode, ServeMode::Full);
        let written = c
            .write_batch(vec![(1, [1; 64]), (2, [2; 64])], 0)
            .expect("batch");
        assert_eq!(written, 2);
        c.flush().expect("flush");
    }

    // A second Hello on an established session is a typed BadRequest.
    let mut c = ServeClient::connect(addr, "alpha", "s3cret").expect("connect");
    let resp = c
        .call(&Request::Hello {
            version: PROTO_VERSION,
            tenant: "alpha".into(),
            token: 0,
        })
        .expect("call");
    assert!(
        matches!(resp, Response::Err(ServeError::BadRequest { .. })),
        "duplicate handshake must be rejected, got {resp:?}"
    );
    server.shutdown();
}

#[test]
fn deadlines_and_retries_are_typed() {
    let cfg = test_config("alpha:tok:bonsai");
    let server = Server::start(cfg).expect("start");
    let tenant = server.tenant("alpha").expect("tenant");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    c.write(3, [9; 64], 0).expect("seed write");

    // A request whose deadline is shorter than the injected stall is
    // rejected as DeadlineExceeded and NOT executed.
    tenant
        .inject(Inject::Stall { ms: 60 })
        .expect("inject stall");
    match c.read(3, 20) {
        Err(ClientError::Server(ServeError::DeadlineExceeded { budget_ms })) => {
            assert_eq!(budget_ms, 20);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    tenant.inject(Inject::Stall { ms: 0 }).expect("clear stall");

    // One injected fault fails its one request as Internal — a retry
    // would have absorbed it — and the write it failed is not executed;
    // the next write lands.
    tenant
        .inject(Inject::TransientFaults { count: 1 })
        .expect("inject transient");
    match c.write(4, [4; 64], 0) {
        Err(ClientError::Server(ServeError::Internal { .. })) => {}
        other => panic!("an injected fault must be Internal, not retried, got {other:?}"),
    }
    let (got, _) = c.read(4, 0).expect("read of the failed write's line");
    assert_eq!(got, [0; 64], "the failed write was not executed");
    c.write(4, [4; 64], 0).expect("the next write lands");
    let (got, _) = c.read(4, 0).expect("read back");
    assert_eq!(got, [4; 64]);
    server.shutdown();
}

#[test]
fn breaker_trips_and_recovers_via_probe() {
    let cfg = test_config("alpha:tok:sgx");
    let cooldown = Duration::from_millis(u64::from(cfg.breaker_cooldown_ms));
    let server = Server::start(cfg).expect("start");
    let tenant = server.tenant("alpha").expect("tenant");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));

    // Two injected faults, one Internal each (threshold = 2): breaker
    // opens.
    tenant
        .inject(Inject::TransientFaults { count: 100 })
        .expect("inject");
    for _ in 0..2 {
        match c.write(1, [1; 64], 0) {
            Err(ClientError::Server(ServeError::Internal { .. })) => {}
            other => panic!("expected an injected fault as Internal, got {other:?}"),
        }
    }
    match c.write(1, [1; 64], 0) {
        Err(ClientError::Server(ServeError::CircuitOpen { .. })) => {}
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    let stats = c.stats().expect("stats");
    assert!(stats.breaker_trips >= 1);
    assert!(stats.rejected_circuit >= 1);

    // Clear the fault source; after the cooldown the half-open probe
    // succeeds and service resumes.
    tenant
        .inject(Inject::TransientFaults { count: 0 })
        .expect("clear");
    std::thread::sleep(cooldown + Duration::from_millis(50));
    c.write(1, [2; 64], 0).expect("probe write closes breaker");
    let (got, _) = c.read(1, 0).expect("read");
    assert_eq!(got, [2; 64]);
    server.shutdown();
}

#[test]
fn overload_is_typed_not_queued() {
    let mut cfg = test_config("alpha:tok:bonsai");
    cfg.ops_per_sec = 50.0;
    cfg.burst = 3;
    let server = Server::start(cfg).expect("start");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));

    // Stats calls above also consume tokens; hammer until the bucket
    // runs dry — the rejection must be typed with a backoff hint.
    let mut saw_overload = false;
    for i in 0..20 {
        match c.write(i, [0; 64], 0) {
            Ok(()) => {}
            Err(ClientError::Server(ServeError::Overloaded { retry_after_ms })) => {
                assert!(retry_after_ms > 0, "overload must carry a backoff hint");
                saw_overload = true;
                break;
            }
            other => panic!("unexpected result {other:?}"),
        }
    }
    assert!(saw_overload, "token bucket never rejected");
    server.shutdown();
}

/// The in-flight gate is checked before the tenant lock, and a request
/// it bounces is answered and counted without ever taking that lock —
/// here held for 500 ms by the one request the gate admits.
#[test]
fn a_request_the_gate_bounces_never_waits_for_the_tenant_lock() {
    let mut cfg = test_config("alpha:tok:bonsai");
    cfg.max_inflight = 1;
    let server = Server::start(cfg).expect("start");
    let tenant = server.tenant("alpha").expect("tenant");
    let addr = server.local_addr();
    let mut c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    let before = c.stats().expect("stats").rejected_overload;

    let mut holder = ServeClient::connect(addr, "alpha", "tok").expect("connect");
    tenant
        .inject(Inject::Stall { ms: 500 })
        .expect("inject stall");
    let held = std::thread::spawn(move || holder.write(1, [1; 64], 0));
    std::thread::sleep(Duration::from_millis(100));
    let asked = Instant::now();
    match c.write(2, [2; 64], 0) {
        Err(ClientError::Server(ServeError::Overloaded { .. })) => {}
        other => panic!("the gate must bounce the second write, got {other:?}"),
    }
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(200),
        "the bounce waited {waited:?} for the lock"
    );
    held.join()
        .expect("holder thread")
        .expect("the admitted write lands after the stall");
    tenant.inject(Inject::Stall { ms: 0 }).expect("clear stall");
    assert_eq!(c.stats().expect("stats").rejected_overload, before + 1);
    server.shutdown();
}

#[test]
fn degraded_mode_serves_verified_reads_during_recovery() {
    let cfg = test_config("alpha:tok:bonsai");
    let server = Server::start(cfg).expect("start");
    let tenant = server.tenant("alpha").expect("tenant");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));

    let payload = [0xC3; 64];
    c.write(5, payload, 0).expect("write");
    // Drain the WPQ so the next read fetches the (tampered) device
    // contents instead of the still-queued write.
    c.flush().expect("flush");
    let boot_recoveries = c.stats().expect("stats").recoveries;

    // Stall the next ladder so the degraded window is observable, then
    // corrupt the line. The next read detects the tampering.
    tenant
        .inject(Inject::RecoveryStall { ms: 400 })
        .expect("stall");
    tenant
        .inject(Inject::CorruptLine { addr: 5, bit: 3 })
        .expect("corrupt");
    match c.read(5, 0) {
        Err(ClientError::Server(ServeError::Integrity { .. })) => {}
        other => panic!("tampered read must fail integrity, got {other:?}"),
    }

    // While the ladder runs: reads come from the last verified state,
    // writes are typed Degraded.
    let (got, mode) = c.read(5, 0).expect("degraded read");
    assert_eq!(got, payload, "degraded read must serve last verified data");
    assert_eq!(mode, ServeMode::ReadOnly);
    match c.write(6, [6; 64], 0) {
        Err(ClientError::Server(ServeError::Degraded { mode })) => {
            assert_eq!(mode, ServeMode::ReadOnly);
        }
        other => panic!("write during recovery must be Degraded, got {other:?}"),
    }

    // The ladder completes; full service resumes and the controller
    // serves the line again (recovered or quarantined per the outcome).
    await_full(&mut c, Duration::from_secs(10));
    let stats = c.stats().expect("stats");
    assert!(stats.recoveries > boot_recoveries, "ladder must have run");
    assert!(stats.degraded_reads >= 1);
    assert!(stats.degraded_writes >= 1);
    assert!(!stats.last_outcome.is_empty());
    let (_, mode) = c.read(5, 0).expect("post-recovery read");
    assert_eq!(mode, ServeMode::Full);
    c.write(6, [6; 64], 0).expect("post-recovery write");
    server.shutdown();
}

/// Boot is the paper's recovery — metadata against the root, no sweep
/// over the data — so a data line damaged at rest is found by its first
/// read instead: typed, never served, and that read is what sends the
/// tenant through the full ladder.
#[test]
fn a_line_damaged_at_rest_is_found_by_its_first_read_not_by_the_boot() {
    // The damaged line is written first and 96 lines of 96 other counter
    // blocks after it — more than the counter cache holds — so that at
    // the restart its counter block is cold: AGIT's rung 1 re-derives the
    // counters of the blocks its shadow table tracks from their data
    // lines, and damage under one of *those* is a rung-1 error, which is
    // evidence, and scrubs.
    // (`block / 64` keeps the lines in distinct slots of the 4096-line
    // degraded-read table, which is direct-mapped by line address.)
    const DAMAGED: u64 = 11;
    let others = || (1..=96u64).map(|block| block * 64 + block / 64);
    let tenants = ["alpha", "beta"];
    let payload = |tenant: usize, line: u64| [(0x40 << tenant) | line as u8; 64];
    let cfg = test_config("alpha:tok:bonsai,beta:tok:sgx");

    let server = Server::start(cfg.clone()).expect("start");
    for (t, tenant) in tenants.iter().enumerate() {
        let mut c = ServeClient::connect(server.local_addr(), tenant, "tok").expect("connect");
        await_full(&mut c, Duration::from_secs(10));
        for line in std::iter::once(DAMAGED).chain(others()) {
            c.write(line, payload(t, line), 0).expect("write");
        }
        // Out of the WPQ and onto the device, where the damage lands; the
        // second flush journals the damaged block: it is in the image.
        c.flush().expect("flush");
        let hooks = server.tenant(tenant).expect("tenant");
        hooks
            .inject(Inject::CorruptLine {
                addr: DAMAGED,
                bit: 3,
            })
            .expect("corrupt");
        c.flush().expect("flush the damage");
    }
    server.shutdown();

    let server = Server::start(cfg).expect("restart on the same data dir");
    for (t, tenant) in tenants.iter().enumerate() {
        let mut c = ServeClient::connect(server.local_addr(), tenant, "tok").expect("connect");
        await_full(&mut c, Duration::from_secs(10));
        let boot = c.stats().expect("stats");
        assert_eq!(
            (boot.recoveries, boot.last_outcome.as_str()),
            (1, "recovered"),
            "{tenant}: the boot verifies metadata and does not sweep the data"
        );
        assert_eq!(boot.quarantined_blocks, 0, "{tenant}");
        let others_hold = |c: &mut ServeClient, when: &str| {
            for line in others() {
                // Full, or from the last verified state while the ladder
                // has the controller: the acknowledged payload either way.
                let (got, _) = c
                    .read(line, 0)
                    .unwrap_or_else(|e| panic!("{tenant}: line {line} {when}: {e:?}"));
                assert_eq!(got, payload(t, line), "{tenant}: line {line} {when}");
            }
        };
        others_hold(&mut c, "after the boot");

        match c.read(DAMAGED, 0) {
            Err(ClientError::Server(ServeError::Integrity { .. })) => {}
            other => {
                panic!("{tenant}: the damaged line's first read must fail typed, got {other:?}")
            }
        }
        others_hold(&mut c, "while the ladder runs");

        await_full(&mut c, Duration::from_secs(10));
        let after = c.stats().expect("stats");
        assert_eq!(after.recoveries, 2, "{tenant}: the fault ran one ladder");
        let (got, mode) = c.read(DAMAGED, 0).expect("read after the ladder");
        assert_eq!(mode, ServeMode::Full);
        assert!(
            got == payload(t, DAMAGED) || (got == [0; 64] && after.quarantined_blocks >= 1),
            "{tenant}: the line is repaired, or retired and counted ({}; {} quarantined)",
            after.last_outcome,
            after.quarantined_blocks
        );
        others_hold(&mut c, "after the ladder");
    }
    server.shutdown();
}

/// Reads the server's reaction to a frame fault on `raw`: a typed
/// `BadFrame` or a close, within `budget`, and nothing else.
fn typed_or_closed(raw: &mut TcpStream, budget: Duration, fault: &str) {
    use anubis_server::protocol::FrameReader;
    raw.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    match FrameReader::new().next_frame(raw, 1 << 20, budget, budget, &|| false) {
        Ok(None) => {}
        Ok(Some(payload)) => match Response::decode(payload) {
            Ok(Response::Err(ServeError::BadFrame { .. })) => {}
            other => panic!("{fault}: expected BadFrame or a close, got {other:?}"),
        },
        Err(e) => panic!("{fault}: expected BadFrame or a close, got {e}"),
    }
}

#[test]
fn frame_faults_are_typed_and_never_hang() {
    let mut cfg = test_config("alpha:tok:bonsai");
    cfg.stall_ms = 150;
    let stall = Duration::from_millis(u64::from(cfg.stall_ms));
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr();
    let partial_frame = |promised: u32, sent: &[u8]| {
        let mut head = Vec::new();
        head.extend_from_slice(&anubis_server::protocol::MAGIC.to_le_bytes());
        head.extend_from_slice(&promised.to_le_bytes());
        head.extend_from_slice(sent);
        head
    };

    // Garbage magic: the server answers BadFrame (best effort) and
    // closes; it must keep serving other connections.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0])
            .expect("garbage");
        raw.flush().expect("flush");
    }

    // Truncated frame: declare a payload then disconnect mid-frame.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&partial_frame(64, &[1, 2, 3])) // 3 of 64 promised bytes
            .expect("truncated");
        raw.flush().expect("flush");
    }

    // Corrupted checksum: a well-formed frame with a flipped CRC.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let payload = Request::Stats.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&anubis_server::protocol::MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = anubis_nvm::fnv1a64(anubis_nvm::FNV1A64_EMPTY, &payload) ^ 1;
        frame.extend_from_slice(&crc.to_le_bytes());
        raw.write_all(&frame).expect("bad crc");
        raw.flush().expect("flush");
    }

    // Disconnect mid-frame on an established session: the server meets
    // the end of the stream inside a frame after a good Hello.
    {
        use anubis_server::protocol::{write_frame, FrameReader};
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("read timeout");
        let hello = Request::Hello {
            version: PROTO_VERSION,
            tenant: "alpha".into(),
            token: anubis_server::token_hash("tok"),
        };
        write_frame(&mut raw, &hello.encode()).expect("hello");
        let budget = Duration::from_secs(5);
        let reply = FrameReader::new()
            .next_frame(&mut raw, 1 << 20, budget, budget, &|| false)
            .expect("hello reply")
            .map(Response::decode);
        assert!(
            matches!(reply, Some(Ok(Response::HelloOk { .. }))),
            "{reply:?}"
        );
        raw.write_all(&partial_frame(77, &[1, 2, 3, 4]))
            .expect("partial frame");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        typed_or_closed(&mut raw, budget, "mid-stream disconnect");
    }

    // Slowloris: part of a frame, then silence past the stall budget.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let started = Instant::now();
        raw.write_all(&partial_frame(64, &[0x55; 8]))
            .expect("partial frame");
        typed_or_closed(&mut raw, Duration::from_secs(5), "slowloris");
        assert!(
            started.elapsed() >= stall,
            "the stall was answered after {:?}, inside its {stall:?} budget",
            started.elapsed()
        );
    }

    // After all that abuse, a healthy client still gets served.
    let mut c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    c.write(1, [1; 64], 0).expect("write");
    let (got, _) = c.read(1, 0).expect("read");
    assert_eq!(got, [1; 64]);
    server.shutdown();
}

#[test]
fn requests_pipelined_into_one_write_are_answered_in_order() {
    use anubis_server::protocol::{write_frame, FrameReader};

    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let addr = server.local_addr();
    let mut seed = ServeClient::connect(addr, "alpha", "tok").expect("connect");
    await_full(&mut seed, Duration::from_secs(10));
    for line in 0..3u64 {
        seed.write(line, [0x10 + line as u8; 64], 0).expect("write");
    }

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut rx = FrameReader::new();
    let budget = Duration::from_secs(5);
    let mut reply = |raw: &mut TcpStream| {
        let payload = rx
            .next_frame(raw, 1 << 20, budget, budget, &|| false)
            .expect("reply frame")
            .expect("a reply, not a close");
        Response::decode(payload).expect("reply decodes")
    };
    let hello = Request::Hello {
        version: PROTO_VERSION,
        tenant: "alpha".into(),
        token: anubis_server::token_hash("tok"),
    };
    write_frame(&mut raw, &hello.encode()).expect("hello");
    assert!(matches!(reply(&mut raw), Response::HelloOk { .. }));

    // Three requests, one segment: the server finds the second and third
    // already in its buffer and must still serve them, in order.
    let mut segment = Vec::new();
    for addr in [2u64, 0, 1] {
        let read = Request::Read {
            addr,
            deadline_ms: 0,
        };
        write_frame(&mut segment, &read.encode()).expect("frame into a Vec");
    }
    raw.write_all(&segment).expect("pipelined requests");
    for line in [2u8, 0, 1] {
        match reply(&mut raw) {
            Response::ReadOk { data, .. } => assert_eq!(data, [0x10 + line; 64]),
            other => panic!("expected ReadOk for line {line}, got {other:?}"),
        }
    }
    // Nothing more was sent: the connection is quiet, not closed.
    let mut spare = [0u8; 1];
    let e = raw.read(&mut spare).expect_err("no unsolicited bytes");
    assert!(matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ));
    server.shutdown();
}

#[test]
fn finished_connections_are_not_tracked_for_ever() {
    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let addr = server.local_addr();
    // A poller that reconnects for every look, as health checks do.
    for _ in 0..200 {
        let mut c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
        c.stats().expect("stats");
    }
    // Each accept drops the handles of threads that have ended, so what
    // is left is the few whose thread had not yet seen its peer leave.
    let tracked = server.tracked_connections();
    assert!(
        tracked <= 32,
        "{tracked} connection handles after 200 sessions"
    );
    server.shutdown();
}

/// Runs `stop` (a shutdown or a drop) on its own thread and returns how
/// long it took, failing instead of hanging if it never returns.
fn timed_stop(what: &str, stop: impl FnOnce() + Send + 'static) -> Duration {
    let (done, finished) = std::sync::mpsc::channel();
    let started = Instant::now();
    let stopper = std::thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not return within 10 s"));
    stopper.join().expect("stopper thread");
    started.elapsed()
}

#[test]
fn shutdown_and_drop_return_promptly_idle_and_busy() {
    // The accept thread blocks in `accept`; stopping must wake it — with
    // no connection ever made, with an idle session parked in its read,
    // and with a writer mid-stream.
    let prompt = Duration::from_secs(2);

    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let took = timed_stop("shutdown of an untouched server", move || server.shutdown());
    assert!(took < prompt, "untouched shutdown took {took:?}");

    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let addr = server.local_addr();
    let mut idle = ServeClient::connect(addr, "alpha", "tok").expect("idle connect");
    await_full(&mut idle, Duration::from_secs(10));
    let writing = std::sync::Arc::new(std::sync::Barrier::new(2));
    let writer_ready = std::sync::Arc::clone(&writing);
    let writer = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr, "alpha", "tok").expect("busy connect");
        let mut acked = 0u64;
        // Writes until the server goes away under it.
        while c.write(acked % 64, [acked as u8; 64], 0).is_ok() {
            acked += 1;
            if acked == 8 {
                writer_ready.wait();
            }
        }
        acked
    });
    writing.wait();
    let took = timed_stop("shutdown under load", move || server.shutdown());
    assert!(took < prompt, "busy shutdown took {took:?}");
    assert!(writer.join().expect("writer thread") >= 8);
    assert!(idle.stats().is_err(), "the idle session must be closed");

    let server = Server::start(test_config("alpha:tok:sgx")).expect("start");
    let mut idle = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut idle, Duration::from_secs(10));
    let took = timed_stop("drop with an idle session", move || drop(server));
    assert!(took < prompt, "drop took {took:?}");
}

#[test]
fn a_new_connection_is_served_without_waiting_for_an_accept_tick() {
    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let addr = server.local_addr();
    // connect → Hello → HelloOk on an idle server, one at a time: each
    // arrives while the accept thread has nothing else to do.
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
            let took = t.elapsed();
            drop(c);
            took
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect→HelloOk {median:?} (all: {round_trips:?})"
    );
    server.shutdown();
}

#[test]
fn the_degraded_read_table_is_bounded() {
    let server = Server::start(test_config("alpha:tok:bonsai")).expect("start");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    let tenant = server.tenant("alpha").expect("tenant");
    let bound = anubis_server::VERIFIED_SLOTS;
    // Three times as many distinct lines as the table holds, acked.
    let mut held = Vec::new();
    for chunk in (0..3 * bound as u64).collect::<Vec<_>>().chunks(512) {
        let items = chunk.iter().map(|&line| (line, [line as u8; 64])).collect();
        c.write_batch(items, 0).expect("batch");
        held.push(tenant.verified_lines());
    }
    assert!(held.iter().all(|&n| n <= bound), "{held:?}");
    assert_eq!(held[bound / 512 - 1], bound, "full after one table's worth");
    assert_eq!(
        *held.last().expect("batches"),
        bound,
        "and no larger after three"
    );
    server.shutdown();
}

#[test]
fn four_writers_on_one_tenant_share_barriers_and_lose_nothing() {
    const WRITERS: u64 = 4;
    const EACH: u64 = 64;
    let cfg = test_config("alpha:tok:bonsai");
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr();
    let mut c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    let tenant = server.tenant("alpha").expect("tenant");
    let (cut_before, _) = tenant.epochs().expect("controller present");

    // Each connection hammers its own lines, several versions per line;
    // what it reports back is the last payload it saw acknowledged.
    let payload = |w: u64, k: u64| [(w * 64 + k) as u8; 64];
    let go = std::sync::Arc::new(std::sync::Barrier::new(WRITERS as usize));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let go = std::sync::Arc::clone(&go);
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr, "alpha", "tok").expect("connect");
                go.wait();
                let mut acked = std::collections::BTreeMap::new();
                for k in 0..EACH {
                    let line = w * 1_000 + k % 16;
                    c.write(line, payload(w, k), 0).expect("write");
                    acked.insert(line, payload(w, k));
                }
                acked
            })
        })
        .collect();
    let acked: Vec<_> = writers
        .into_iter()
        .flat_map(|w| w.join().expect("writer thread"))
        .collect();
    let stats = c.stats().expect("stats");
    assert!(stats.writes_acked_total >= WRITERS * EACH);
    let (cut_after, durable_after) = tenant.epochs().expect("controller present");
    assert_eq!(cut_after, durable_after, "every reply followed its frame");
    assert!(
        cut_after - cut_before < WRITERS * EACH,
        "{} frames for {} acknowledged writes: no barrier was shared",
        cut_after - cut_before,
        WRITERS * EACH
    );

    // The process goes away without an orderly shutdown request; a new
    // one over the same data dir serves every acknowledged write.
    drop((c, tenant));
    drop(server);
    let server = Server::start(cfg).expect("restart");
    let mut c = ServeClient::connect(server.local_addr(), "alpha", "tok").expect("connect");
    await_full(&mut c, Duration::from_secs(10));
    for (line, want) in acked {
        let (got, _) = c.read(line, 0).expect("read back");
        assert_eq!(got, want, "line {line}");
    }
    server.shutdown();
}
