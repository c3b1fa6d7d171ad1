//! The TCP front-end: accept loop, per-connection threads, handshake
//! enforcement, and orderly shutdown.
//!
//! Every connection must open with [`Request::Hello`]; anything else is
//! answered with a typed rejection and the connection is closed. After a
//! successful handshake the connection serves one request per frame,
//! strictly in order — including requests a client pipelines into one
//! segment, which wait in the connection's [`FrameReader`] — and each
//! reply is built in the connection's `tx` buffer and leaves in one
//! `write`. Connection-layer faults (bad magic, bad checksum,
//! truncation, slowloris stalls) are answered with
//! [`ServeError::BadFrame`] where the transport still permits, and the
//! connection is dropped — never a hang, never a panic.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anubis_nvm::NvmError;
use anubis_telemetry::Telemetry;

use crate::config::{ConfigError, ServeConfig};
use crate::protocol::{
    send_frame, FrameReader, ProtoError, Request, Response, ServeError, PROTO_VERSION,
};
use crate::tenant::{Tenant, ThreadReg};

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeStartError {
    /// Bad configuration.
    Config(ConfigError),
    /// Could not bind the listen address or create the data directory.
    Io(std::io::Error),
    /// A tenant's device image failed to open.
    Tenant {
        /// The tenant whose image failed.
        tenant: String,
        /// The underlying device error.
        source: NvmError,
    },
}

impl std::fmt::Display for ServeStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeStartError::Config(e) => write!(f, "configuration error: {e}"),
            ServeStartError::Io(e) => write!(f, "server startup I/O error: {e}"),
            ServeStartError::Tenant { tenant, source } => {
                write!(f, "tenant {tenant:?} failed to open: {source}")
            }
        }
    }
}

impl std::error::Error for ServeStartError {}

impl From<ConfigError> for ServeStartError {
    fn from(e: ConfigError) -> Self {
        ServeStartError::Config(e)
    }
}

impl From<std::io::Error> for ServeStartError {
    fn from(e: std::io::Error) -> Self {
        ServeStartError::Io(e)
    }
}

/// Polling tick used for connection reads; budgets (idle, stall) are
/// enforced on top of this granularity.
const TICK: Duration = Duration::from_millis(20);

struct Shared {
    cfg: ServeConfig,
    tenants: BTreeMap<String, Arc<Tenant>>,
    stop: AtomicBool,
    sessions: AtomicU64,
    recovery_threads: ThreadReg,
    tel: Telemetry,
}

/// A running `anubis-serve` instance. Dropping it without calling
/// [`Server::shutdown`] aborts connections without the orderly flush.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Opens every tenant's persistence domain (entering the boot
    /// recovery ladder for each), binds the listen address, and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// [`ServeStartError`] on bad config, bind failure, or an unopenable
    /// tenant image.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeStartError> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let tel = Telemetry::global();
        let recovery_threads: ThreadReg = Arc::new(Mutex::new(Vec::new()));
        let mut tenants = BTreeMap::new();
        for spec in &cfg.tenants {
            let tenant = Tenant::open(spec, &cfg, tel.clone(), &recovery_threads).map_err(|e| {
                ServeStartError::Tenant {
                    tenant: spec.name.clone(),
                    source: e,
                }
            })?;
            tenants.insert(spec.name.clone(), tenant);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            tenants,
            stop: AtomicBool::new(false),
            sessions: AtomicU64::new(1),
            recovery_threads,
            tel,
        });
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, &accept_shared, &accept_conns);
        });
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound listen address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Connection threads the server still tracks: the live ones, plus
    /// any that finished since the last accept.
    #[doc(hidden)]
    pub fn tracked_connections(&self) -> usize {
        self.conn_threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// The tenant registry (for in-process tests and health checks).
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.shared.tenants.get(name).cloned()
    }

    /// Stops accepting, drains connections, joins recovery ladders, and
    /// flushes every tenant that is in full service.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The accept thread blocks in `accept`: one connection, made
            // after `stop` is set, is what wakes it to see the flag.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, TICK);
            let _ = h.join();
        }
        let conns = match self.conn_threads.lock() {
            Ok(mut v) => std::mem::take(&mut *v),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        };
        for h in conns {
            let _ = h.join();
        }
        let ladders = match self.shared.recovery_threads.lock() {
            Ok(mut v) => std::mem::take(&mut *v),
            Err(p) => std::mem::take(&mut *p.into_inner()),
        };
        for h in ladders {
            let _ = h.join();
        }
        for tenant in self.shared.tenants.values() {
            tenant.orderly_flush();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Blocking accept: a connection is picked up the moment it arrives,
    // not at the next poll. `stop_and_join` connects once to end the
    // wait.
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.tel.incr("serve_connections_total", "accepted", 1);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    serve_connection(stream, &conn_shared);
                });
                // Keep only handles `stop_and_join` still has to wait for,
                // or a client that reconnects leaks one per connection.
                let mut live = conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                live.retain(|h| !h.is_finished());
                live.push(handle);
            }
            // Out of descriptors, or the peer gave up while queued: back
            // off rather than spin.
            Err(_) => std::thread::sleep(TICK),
        }
    }
}

/// One accepted connection: the socket, the buffer request frames are
/// parsed in, and the buffer every reply frame is built in.
struct Conn {
    stream: TcpStream,
    rx: FrameReader,
    tx: Vec<u8>,
}

impl Conn {
    /// Best-effort response write; a peer that vanished mid-response is
    /// not an error worth keeping the connection for.
    fn send(&mut self, resp: &Response) -> bool {
        send_frame(&mut self.stream, &mut self.tx, |out| resp.encode_into(out)).is_ok()
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let cfg = &shared.cfg;
    let idle = Duration::from_millis(u64::from(cfg.idle_ms));
    let stall = Duration::from_millis(u64::from(cfg.stall_ms));
    let stop = || shared.stop.load(Ordering::SeqCst);
    let mut conn = Conn {
        stream,
        rx: FrameReader::new(),
        tx: Vec::new(),
    };

    // Handshake: the first frame must be a valid, authenticated Hello.
    let hello = conn
        .rx
        .next_frame(&mut conn.stream, cfg.max_frame_bytes, idle, stall, &stop);
    let tenant = match hello {
        Ok(None) => return,
        Ok(Some(payload)) => match Request::decode(payload) {
            Ok(Request::Hello {
                version,
                tenant,
                token,
            }) => {
                if version != PROTO_VERSION {
                    conn.send(&Response::Err(ServeError::BadRequest {
                        detail: format!(
                            "protocol version {version} unsupported (want {PROTO_VERSION})"
                        ),
                    }));
                    return;
                }
                match shared.tenants.get(&tenant) {
                    Some(t) if t.authenticate(token) => Arc::clone(t),
                    _ => {
                        shared.tel.incr("serve_rejects_total", "auth_failed", 1);
                        conn.send(&Response::Err(ServeError::AuthFailed));
                        return;
                    }
                }
            }
            Ok(_) => {
                conn.send(&Response::Err(ServeError::BadRequest {
                    detail: "first frame must be Hello".to_string(),
                }));
                return;
            }
            Err(e) => {
                reject_frame(&mut conn, shared, &e);
                return;
            }
        },
        Err(e) => {
            reject_frame(&mut conn, shared, &e);
            return;
        }
    };

    let session = shared.sessions.fetch_add(1, Ordering::Relaxed);
    if !conn.send(&Response::HelloOk {
        session,
        mode: tenant.mode(),
    }) {
        return;
    }

    // Steady state: one request per frame, answered in order. `stop` is
    // looked at between requests as well as on idle ticks, so a client
    // that never pauses cannot hold a shutdown up.
    while !stop() {
        let request = conn
            .rx
            .next_frame(&mut conn.stream, cfg.max_frame_bytes, idle, stall, &stop);
        match request {
            Ok(None) => return,
            Ok(Some(payload)) => {
                let received = Instant::now();
                let resp = match Request::decode(payload) {
                    Ok(req) => tenant.handle(&req, received, cfg, &shared.recovery_threads),
                    Err(e) => {
                        reject_frame(&mut conn, shared, &e);
                        return;
                    }
                };
                if !conn.send(&resp) {
                    return;
                }
            }
            Err(e) => {
                reject_frame(&mut conn, shared, &e);
                return;
            }
        }
    }
}

/// Answers a connection-layer fault with a typed `BadFrame` (best
/// effort — the transport may already be gone) and counts it.
fn reject_frame(conn: &mut Conn, shared: &Arc<Shared>, e: &ProtoError) {
    shared
        .tel
        .incr("serve_frame_faults_total", frame_fault_label(e), 1);
    conn.send(&Response::Err(ServeError::BadFrame {
        detail: e.to_string(),
    }));
}

fn frame_fault_label(e: &ProtoError) -> &'static str {
    match e {
        ProtoError::BadMagic(_) => "bad_magic",
        ProtoError::Oversize { .. } => "oversize",
        ProtoError::BadChecksum { .. } => "bad_checksum",
        ProtoError::Truncated => "truncated",
        ProtoError::TimedOutMidFrame => "stalled",
        ProtoError::UnknownOpcode(_) => "unknown_opcode",
        ProtoError::Malformed(_) => "malformed",
        ProtoError::Io(_) => "io",
    }
}
