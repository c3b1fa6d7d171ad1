//! The `anubis-serve` wire protocol: length-prefixed, checksummed frames
//! over TCP, carrying typed requests and responses.
//!
//! # Frame format
//!
//! ```text
//! [magic u32 LE][payload_len u32 LE][payload bytes][fnv1a64(payload) u64 LE]
//! ```
//!
//! The payload's first byte is an opcode; the rest is the
//! operation-specific body. Every decode failure is a typed
//! [`ProtoError`] — a malformed, truncated, oversized or corrupted frame
//! can never panic the peer, and a writer that stalls mid-frame
//! (slowloris) surfaces as [`ProtoError::TimedOutMidFrame`] rather than
//! a hung connection.
//!
//! The protocol is deliberately dependency-free: hand-rolled little-
//! endian encoding over `std::net::TcpStream`, matching the rest of the
//! workspace.

use anubis_nvm::{fnv1a64, FNV1A64_EMPTY};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Frame magic: `"ANSV"` little-endian-ish constant; a frame not opening
/// with it is rejected before any payload is read.
pub const MAGIC: u32 = 0xA17B_5E1F;

/// Protocol version carried in [`Request::Hello`]; the server rejects
/// mismatches with [`ServeError::BadRequest`].
pub const PROTO_VERSION: u32 = 3;

/// Frame header bytes on the wire (magic + payload length).
pub const HEADER_BYTES: usize = 8;

/// Checksum trailer bytes on the wire.
pub const TRAILER_BYTES: usize = 8;

/// Hashes a session token for the handshake: tokens travel and are
/// stored only as FNV-1a digests.
pub fn token_hash(token: &str) -> u64 {
    fnv1a64(FNV1A64_EMPTY, token.as_bytes())
}

/// A typed frame/codec failure. Every connection-layer fault a peer can
/// inject maps onto exactly one of these variants.
#[derive(Debug)]
pub enum ProtoError {
    /// The frame did not open with [`MAGIC`].
    BadMagic(u32),
    /// Declared payload length exceeds the negotiated maximum.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// Maximum the reader accepts.
        max: u32,
    },
    /// Frame checksum mismatch (corrupted in flight).
    BadChecksum {
        /// Checksum carried by the frame.
        got: u64,
        /// Checksum computed over the received payload.
        want: u64,
    },
    /// The stream ended mid-frame (peer disconnected).
    Truncated,
    /// The peer went silent mid-frame for longer than the stall budget
    /// (slowloris guard).
    TimedOutMidFrame,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Structurally invalid payload body.
    Malformed(&'static str),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds maximum {max}")
            }
            ProtoError::BadChecksum { got, want } => {
                write!(f, "frame checksum {got:#018x} != computed {want:#018x}")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::TimedOutMidFrame => write!(f, "peer stalled mid-frame"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A tenant's serving mode — the three persistence-tier-shaped states
/// the front-end moves through (full service, read-only during an
/// in-flight recovery ladder, unavailable after a structural failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Reads and writes served normally.
    Full,
    /// The recovery supervisor owns the controller: reads come from the
    /// last verified state, writes are rejected as [`ServeError::Degraded`].
    ReadOnly,
    /// The tenant's domain failed structurally; every request is
    /// rejected until an operator intervenes.
    Unavailable,
}

impl ServeMode {
    /// Wire encoding of the mode.
    pub fn code(self) -> u8 {
        match self {
            ServeMode::Full => 0,
            ServeMode::ReadOnly => 1,
            ServeMode::Unavailable => 2,
        }
    }

    /// Parses the wire encoding.
    pub fn from_code(c: u8) -> Result<ServeMode, ProtoError> {
        match c {
            0 => Ok(ServeMode::Full),
            1 => Ok(ServeMode::ReadOnly),
            2 => Ok(ServeMode::Unavailable),
            _ => Err(ProtoError::Malformed("serving mode")),
        }
    }
}

impl std::fmt::Display for ServeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeMode::Full => write!(f, "full"),
            ServeMode::ReadOnly => write!(f, "read-only"),
            ServeMode::Unavailable => write!(f, "unavailable"),
        }
    }
}

/// A client request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Session handshake; must be the first frame on a connection.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        version: u32,
        /// Tenant name.
        tenant: String,
        /// FNV-1a hash of the tenant's session token.
        token: u64,
    },
    /// Read one data line.
    Read {
        /// Data-line address.
        addr: u64,
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
    },
    /// Write one data line.
    Write {
        /// Data-line address.
        addr: u64,
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
        /// The 64-byte payload.
        data: [u8; 64],
    },
    /// Write a batch of data lines through the controller's grouped
    /// commit path.
    WriteBatch {
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
        /// `(addr, payload)` items.
        items: Vec<(u64, [u8; 64])>,
    },
    /// Drain all dirty metadata to NVM (orderly flush).
    Flush,
    /// Force a supervised recovery ladder on the tenant's domain.
    Recover,
    /// Fetch the tenant's serving statistics.
    Stats,
}

/// Per-tenant serving statistics returned by [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Current serving mode code ([`ServeMode::code`]).
    pub mode: u8,
    /// Requests currently admitted and executing.
    pub inflight: u64,
    /// Successful reads served (controller or verified-state).
    pub reads_total: u64,
    /// Acknowledged writes.
    pub writes_acked_total: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected_overload: u64,
    /// Requests rejected with [`ServeError::CircuitOpen`].
    pub rejected_circuit: u64,
    /// Requests rejected with [`ServeError::DeadlineExceeded`].
    pub rejected_deadline: u64,
    /// Writes rejected with [`ServeError::Degraded`].
    pub degraded_writes: u64,
    /// Reads served from the last verified state while recovering.
    pub degraded_reads: u64,
    /// Recovery ladders completed on this tenant.
    pub recoveries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Blocks currently quarantined in the tenant's remap table.
    pub quarantined_blocks: u64,
    /// Rendered outcome of the most recent recovery ladder (empty until
    /// the first ladder completes).
    pub last_outcome: String,
}

/// A server response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server-assigned session id.
        session: u64,
        /// The tenant's serving mode at handshake time.
        mode: ServeMode,
    },
    /// Read served.
    ReadOk {
        /// The 64-byte payload.
        data: [u8; 64],
        /// Serving mode the read was served under ([`ServeMode::ReadOnly`]
        /// means it came from the last verified state).
        mode: ServeMode,
    },
    /// Write acknowledged (durably committed by the controller).
    WriteOk,
    /// Batch acknowledged.
    BatchOk {
        /// Lines written.
        written: u32,
    },
    /// Flush completed.
    FlushOk,
    /// Recovery ladder scheduled or completed.
    RecoverOk {
        /// Rendered [`anubis::RecoveryOutcome`], or `"started"` when the
        /// ladder runs in the background.
        outcome: String,
    },
    /// Statistics snapshot.
    StatsOk(TenantStats),
    /// A typed rejection or failure.
    Err(ServeError),
}

/// Every way the server says "no" — typed, never a silent queue, a hang,
/// or a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request frame failed protocol decoding; the connection closes
    /// after this response.
    BadFrame {
        /// Rendered [`ProtoError`].
        detail: String,
    },
    /// Unknown tenant or wrong session token.
    AuthFailed,
    /// Structurally valid frame, semantically invalid request (bad
    /// version, missing handshake, a second `Hello`…).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The per-request deadline elapsed before the operation ran; the
    /// operation was **not** executed.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        budget_ms: u32,
    },
    /// Admission control rejected the request (in-flight cap or ops/s
    /// quota); back off and retry.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The tenant's circuit breaker is open after repeated faults.
    CircuitOpen {
        /// Remaining cooldown in milliseconds.
        retry_after_ms: u32,
    },
    /// The tenant is recovering: writes are rejected, reads may still be
    /// served from the last verified state.
    Degraded {
        /// The tenant's current mode.
        mode: ServeMode,
    },
    /// The operation failed integrity verification and the tenant has
    /// entered recovery.
    Integrity {
        /// Rendered controller error.
        detail: String,
    },
    /// The tenant is structurally unavailable.
    Unavailable {
        /// Why.
        detail: String,
    },
    /// The operation failed for a reason that is neither a bad request
    /// nor detected corruption (a device error, a failed durability
    /// barrier); nothing was retried. Counts against the breaker.
    Internal {
        /// Rendered underlying error.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
            ServeError::AuthFailed => write!(f, "authentication failed"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline of {budget_ms} ms exceeded")
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            ServeError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit open; retry after {retry_after_ms} ms")
            }
            ServeError::Degraded { mode } => write!(f, "degraded: tenant is {mode}"),
            ServeError::Integrity { detail } => write!(f, "integrity failure: {detail}"),
            ServeError::Unavailable { detail } => write!(f, "unavailable: {detail}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable short name of the rejection class, used as a telemetry
    /// label and in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadFrame { .. } => "bad_frame",
            ServeError::AuthFailed => "auth_failed",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::Degraded { .. } => "degraded",
            ServeError::Integrity { .. } => "integrity",
            ServeError::Unavailable { .. } => "unavailable",
            ServeError::Internal { .. } => "internal",
        }
    }
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

/// Appends a payload to a caller-owned buffer (a fresh `Vec` for
/// `encode()`, the connection's `tx` frame buffer on the served path).
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut Vec<u8>, opcode: u8) -> Self {
        buf.push(opcode);
        Enc { buf }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b }
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&v, rest) = self
            .b
            .split_first()
            .ok_or(ProtoError::Malformed("short payload (u8)"))?;
        self.b = rest;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        if self.b.len() < 4 {
            return Err(ProtoError::Malformed("short payload (u32)"));
        }
        let (head, rest) = self.b.split_at(4);
        self.b = rest;
        let mut a = [0u8; 4];
        a.copy_from_slice(head);
        Ok(u32::from_le_bytes(a))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        if self.b.len() < 8 {
            return Err(ProtoError::Malformed("short payload (u64)"));
        }
        let (head, rest) = self.b.split_at(8);
        self.b = rest;
        let mut a = [0u8; 8];
        a.copy_from_slice(head);
        Ok(u64::from_le_bytes(a))
    }
    fn block(&mut self) -> Result<[u8; 64], ProtoError> {
        if self.b.len() < 64 {
            return Err(ProtoError::Malformed("short payload (block)"));
        }
        let (head, rest) = self.b.split_at(64);
        self.b = rest;
        let mut a = [0u8; 64];
        a.copy_from_slice(head);
        Ok(a)
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if self.b.len() < len {
            return Err(ProtoError::Malformed("short payload (string)"));
        }
        let (head, rest) = self.b.split_at(len);
        self.b = rest;
        String::from_utf8(head.to_vec()).map_err(|_| ProtoError::Malformed("non-UTF-8 string"))
    }
    fn done(self) -> Result<(), ProtoError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes"))
        }
    }
}

const OP_HELLO: u8 = 0x01;
const OP_READ: u8 = 0x02;
const OP_WRITE: u8 = 0x03;
const OP_WRITE_BATCH: u8 = 0x04;
const OP_FLUSH: u8 = 0x05;
const OP_RECOVER: u8 = 0x06;
const OP_STATS: u8 = 0x07;

const RE_HELLO_OK: u8 = 0x81;
const RE_READ_OK: u8 = 0x82;
const RE_WRITE_OK: u8 = 0x83;
const RE_BATCH_OK: u8 = 0x84;
const RE_FLUSH_OK: u8 = 0x85;
const RE_RECOVER_OK: u8 = 0x86;
const RE_STATS_OK: u8 = 0x87;
const RE_ERR: u8 = 0xE0;

const ERR_BAD_FRAME: u8 = 1;
const ERR_AUTH: u8 = 2;
const ERR_BAD_REQUEST: u8 = 3;
const ERR_DEADLINE: u8 = 4;
const ERR_OVERLOADED: u8 = 5;
const ERR_CIRCUIT: u8 = 6;
const ERR_DEGRADED: u8 = 7;
const ERR_INTEGRITY: u8 = 8;
const ERR_UNAVAILABLE: u8 = 9;
const ERR_INTERNAL: u8 = 10;

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the request's frame payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello {
                version,
                tenant,
                token,
            } => {
                let mut e = Enc::new(out, OP_HELLO);
                e.u32(*version);
                e.str(tenant);
                e.u64(*token);
            }
            Request::Read { addr, deadline_ms } => {
                let mut e = Enc::new(out, OP_READ);
                e.u64(*addr);
                e.u32(*deadline_ms);
            }
            Request::Write {
                addr,
                deadline_ms,
                data,
            } => {
                let mut e = Enc::new(out, OP_WRITE);
                e.u64(*addr);
                e.u32(*deadline_ms);
                e.bytes(data);
            }
            Request::WriteBatch { deadline_ms, items } => {
                let mut e = Enc::new(out, OP_WRITE_BATCH);
                e.u32(*deadline_ms);
                e.u32(items.len() as u32);
                for (addr, data) in items {
                    e.u64(*addr);
                    e.bytes(data);
                }
            }
            Request::Flush => out.push(OP_FLUSH),
            Request::Recover => out.push(OP_RECOVER),
            Request::Stats => out.push(OP_STATS),
        }
    }

    /// Parses a frame payload into a request.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for every structural defect.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let req = match op {
            OP_HELLO => Request::Hello {
                version: d.u32()?,
                tenant: d.str()?,
                token: d.u64()?,
            },
            OP_READ => Request::Read {
                addr: d.u64()?,
                deadline_ms: d.u32()?,
            },
            OP_WRITE => Request::Write {
                addr: d.u64()?,
                deadline_ms: d.u32()?,
                data: d.block()?,
            },
            OP_WRITE_BATCH => {
                let deadline_ms = d.u32()?;
                let count = d.u32()? as usize;
                // Cap items by what the payload can actually hold so a
                // forged count cannot trigger a huge allocation.
                if count > payload.len() / 72 + 1 {
                    return Err(ProtoError::Malformed("batch count exceeds payload"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let addr = d.u64()?;
                    let data = d.block()?;
                    items.push((addr, data));
                }
                Request::WriteBatch { deadline_ms, items }
            }
            OP_FLUSH => Request::Flush,
            OP_RECOVER => Request::Recover,
            OP_STATS => Request::Stats,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        d.done()?;
        Ok(req)
    }
}

fn encode_stats(e: &mut Enc<'_>, s: &TenantStats) {
    e.u8(s.mode);
    e.u64(s.inflight);
    e.u64(s.reads_total);
    e.u64(s.writes_acked_total);
    e.u64(s.rejected_overload);
    e.u64(s.rejected_circuit);
    e.u64(s.rejected_deadline);
    e.u64(s.degraded_writes);
    e.u64(s.degraded_reads);
    e.u64(s.recoveries);
    e.u64(s.breaker_trips);
    e.u64(s.quarantined_blocks);
    e.str(&s.last_outcome);
}

fn decode_stats(d: &mut Dec<'_>) -> Result<TenantStats, ProtoError> {
    Ok(TenantStats {
        mode: d.u8()?,
        inflight: d.u64()?,
        reads_total: d.u64()?,
        writes_acked_total: d.u64()?,
        rejected_overload: d.u64()?,
        rejected_circuit: d.u64()?,
        rejected_deadline: d.u64()?,
        degraded_writes: d.u64()?,
        degraded_reads: d.u64()?,
        recoveries: d.u64()?,
        breaker_trips: d.u64()?,
        quarantined_blocks: d.u64()?,
        last_outcome: d.str()?,
    })
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response's frame payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::HelloOk { session, mode } => {
                let mut e = Enc::new(out, RE_HELLO_OK);
                e.u64(*session);
                e.u8(mode.code());
            }
            Response::ReadOk { data, mode } => {
                let mut e = Enc::new(out, RE_READ_OK);
                e.bytes(data);
                e.u8(mode.code());
            }
            Response::WriteOk => out.push(RE_WRITE_OK),
            Response::BatchOk { written } => {
                let mut e = Enc::new(out, RE_BATCH_OK);
                e.u32(*written);
            }
            Response::FlushOk => out.push(RE_FLUSH_OK),
            Response::RecoverOk { outcome } => {
                let mut e = Enc::new(out, RE_RECOVER_OK);
                e.str(outcome);
            }
            Response::StatsOk(s) => {
                let mut e = Enc::new(out, RE_STATS_OK);
                encode_stats(&mut e, s);
            }
            Response::Err(err) => {
                let mut e = Enc::new(out, RE_ERR);
                match err {
                    ServeError::BadFrame { detail } => {
                        e.u8(ERR_BAD_FRAME);
                        e.str(detail);
                    }
                    ServeError::AuthFailed => e.u8(ERR_AUTH),
                    ServeError::BadRequest { detail } => {
                        e.u8(ERR_BAD_REQUEST);
                        e.str(detail);
                    }
                    ServeError::DeadlineExceeded { budget_ms } => {
                        e.u8(ERR_DEADLINE);
                        e.u32(*budget_ms);
                    }
                    ServeError::Overloaded { retry_after_ms } => {
                        e.u8(ERR_OVERLOADED);
                        e.u32(*retry_after_ms);
                    }
                    ServeError::CircuitOpen { retry_after_ms } => {
                        e.u8(ERR_CIRCUIT);
                        e.u32(*retry_after_ms);
                    }
                    ServeError::Degraded { mode } => {
                        e.u8(ERR_DEGRADED);
                        e.u8(mode.code());
                    }
                    ServeError::Integrity { detail } => {
                        e.u8(ERR_INTEGRITY);
                        e.str(detail);
                    }
                    ServeError::Unavailable { detail } => {
                        e.u8(ERR_UNAVAILABLE);
                        e.str(detail);
                    }
                    ServeError::Internal { detail } => {
                        e.u8(ERR_INTERNAL);
                        e.str(detail);
                    }
                }
            }
        }
    }

    /// Parses a frame payload into a response.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for every structural defect.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let resp = match op {
            RE_HELLO_OK => Response::HelloOk {
                session: d.u64()?,
                mode: ServeMode::from_code(d.u8()?)?,
            },
            RE_READ_OK => Response::ReadOk {
                data: d.block()?,
                mode: ServeMode::from_code(d.u8()?)?,
            },
            RE_WRITE_OK => Response::WriteOk,
            RE_BATCH_OK => Response::BatchOk { written: d.u32()? },
            RE_FLUSH_OK => Response::FlushOk,
            RE_RECOVER_OK => Response::RecoverOk { outcome: d.str()? },
            RE_STATS_OK => Response::StatsOk(decode_stats(&mut d)?),
            RE_ERR => {
                let code = d.u8()?;
                let err = match code {
                    ERR_BAD_FRAME => ServeError::BadFrame { detail: d.str()? },
                    ERR_AUTH => ServeError::AuthFailed,
                    ERR_BAD_REQUEST => ServeError::BadRequest { detail: d.str()? },
                    ERR_DEADLINE => ServeError::DeadlineExceeded {
                        budget_ms: d.u32()?,
                    },
                    ERR_OVERLOADED => ServeError::Overloaded {
                        retry_after_ms: d.u32()?,
                    },
                    ERR_CIRCUIT => ServeError::CircuitOpen {
                        retry_after_ms: d.u32()?,
                    },
                    ERR_DEGRADED => ServeError::Degraded {
                        mode: ServeMode::from_code(d.u8()?)?,
                    },
                    ERR_INTEGRITY => ServeError::Integrity { detail: d.str()? },
                    ERR_UNAVAILABLE => ServeError::Unavailable { detail: d.str()? },
                    ERR_INTERNAL => ServeError::Internal { detail: d.str()? },
                    _ => return Err(ProtoError::Malformed("unknown error code")),
                };
                Response::Err(err)
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        d.done()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// Builds one frame in `tx` — header reserved, payload appended by
/// `fill`, length back-patched, checksum appended — and hands it to `w`
/// whole, so a frame is one `write` (one TCP segment on a `TCP_NODELAY`
/// socket, one wake-up of the peer). `tx` is cleared first and keeps its
/// capacity: a connection owns one and reuses it for every frame.
///
/// # Errors
///
/// Propagates transport I/O failures; a payload that does not fit the
/// `u32` length field is `InvalidInput`.
pub fn send_frame(
    w: &mut impl Write,
    tx: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    tx.clear();
    tx.extend_from_slice(&MAGIC.to_le_bytes());
    tx.extend_from_slice(&[0u8; 4]);
    fill(tx);
    let len = u32::try_from(tx.len() - HEADER_BYTES).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds the u32 length field",
        )
    })?;
    tx[4..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    let crc = fnv1a64(FNV1A64_EMPTY, &tx[HEADER_BYTES..]);
    tx.extend_from_slice(&crc.to_le_bytes());
    w.write_all(tx)?;
    w.flush()
}

/// Writes one frame (header + payload + checksum) to `w` in a single
/// write.
///
/// # Errors
///
/// Propagates transport I/O failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut tx = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    send_frame(w, &mut tx, |out| out.extend_from_slice(payload))
}

/// What [`read_frame`] observed on the stream.
pub enum FrameEvent {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed (or stayed silent past the idle budget) without
    /// starting a frame — a clean end of conversation.
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Capacity a [`FrameReader`] starts at and returns to: covers a
/// 32-line `WriteBatch` (2.3 KiB) several times over.
const READ_BUF_FLOOR: usize = 16 << 10;

/// The most a [`FrameReader`] grows beyond the bytes it has actually
/// received, whatever length a header declares.
const READ_BUF_STEP: usize = 64 << 10;

/// A connection's receive side: one buffer that `read`s whatever has
/// arrived, parses frames in place and hands each payload out as a
/// borrowed slice. Bytes past the returned frame (a pipelined next
/// request, or the front of one) stay buffered for the next call, so a
/// frame that arrives whole costs one `read` and frames that arrive
/// together cost one `read` between them.
///
/// The buffer is never sized from a length field alone: it starts at
/// 16 KiB, grows toward a larger declared frame only once it is full of
/// received bytes and then by at most 64 KiB at a time, and drops back to
/// 16 KiB when the large frame has been consumed.
pub struct FrameReader {
    /// Fully initialised; `buf[start..end]` holds received, unconsumed
    /// bytes and `buf[end..]` is where the next `read` lands.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// An empty reader at the floor capacity.
    pub fn new() -> Self {
        FrameReader::with_len(READ_BUF_FLOOR)
    }

    fn with_len(len: usize) -> Self {
        FrameReader {
            buf: vec![0u8; len],
            start: 0,
            end: 0,
        }
    }

    /// Reads the next frame from `r`, whose `read` must time out
    /// periodically (`WouldBlock` / `TimedOut` is the polling tick;
    /// budgets are enforced here). `Ok(None)` is the clean end of
    /// conversation: the peer closed, stayed silent past the idle
    /// budget, or `stop` fired — each before the first byte of a frame.
    ///
    /// * `max_len` — maximum accepted payload length.
    /// * `idle_budget` — how long the peer may be silent *before the first
    ///   byte* of a frame.
    /// * `stall_budget` — how long the peer may be silent *mid-frame*;
    ///   exceeding it is the slowloris guard,
    ///   [`ProtoError::TimedOutMidFrame`].
    /// * `stop` — cooperative shutdown check polled on every tick.
    ///
    /// # Errors
    ///
    /// Every connection-layer fault maps to a typed [`ProtoError`]; the
    /// connection is not usable afterwards.
    pub fn next_frame(
        &mut self,
        r: &mut impl Read,
        max_len: u32,
        idle_budget: Duration,
        stall_budget: Duration,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<&[u8]>, ProtoError> {
        let frame = self.fill(r, max_len, idle_budget, stall_budget, stop)?;
        Ok(frame.map(|payload| &self.buf[payload]))
    }

    /// [`FrameReader::next_frame`], returning the payload's range in `buf`
    /// (already consumed) for the caller to borrow. Each `read` may take
    /// everything the buffer has room for.
    fn fill(
        &mut self,
        r: &mut impl Read,
        max_len: u32,
        idle_budget: Duration,
        stall_budget: Duration,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<std::ops::Range<usize>>, ProtoError> {
        self.reclaim();
        // Last time the peer made progress; silence is measured from here.
        let mut heard = Instant::now();
        loop {
            let have = self.end - self.start;
            // Bytes the frame at `start` needs in all, as far as is known.
            let mut need = HEADER_BYTES;
            if have >= HEADER_BYTES {
                let head = &self.buf[self.start..self.start + HEADER_BYTES];
                let magic = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
                if magic != MAGIC {
                    return Err(ProtoError::BadMagic(magic));
                }
                let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
                if len > max_len {
                    return Err(ProtoError::Oversize { len, max: max_len });
                }
                need += len as usize + TRAILER_BYTES;
                if have >= need {
                    let payload = self.start + HEADER_BYTES..self.start + need - TRAILER_BYTES;
                    let mut crc = [0u8; TRAILER_BYTES];
                    crc.copy_from_slice(&self.buf[payload.end..self.start + need]);
                    let got = u64::from_le_bytes(crc);
                    let want = fnv1a64(FNV1A64_EMPTY, &self.buf[payload.clone()]);
                    if got != want {
                        return Err(ProtoError::BadChecksum { got, want });
                    }
                    self.start += need;
                    return Ok(Some(payload));
                }
            }
            self.make_room(need);
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(ProtoError::Truncated),
                Ok(n) => {
                    self.end += n;
                    heard = Instant::now();
                }
                Err(e) if is_timeout(&e) => {
                    if have == 0 {
                        if stop() || heard.elapsed() > idle_budget {
                            return Ok(None);
                        }
                    } else if stop() {
                        return Err(ProtoError::Truncated);
                    } else if heard.elapsed() > stall_budget {
                        return Err(ProtoError::TimedOutMidFrame);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }

    /// Between frames: rewinds an empty buffer, and gives back the memory
    /// of an oversized frame once what is left fits the floor again.
    fn reclaim(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() > READ_BUF_FLOOR && self.end - self.start <= READ_BUF_FLOOR {
            self.compact();
            self.buf.truncate(READ_BUF_FLOOR);
            self.buf.shrink_to_fit();
        }
    }

    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Makes sure the next `read` has somewhere to land while the frame
    /// at `start` still lacks bytes of its `need`.
    fn make_room(&mut self, need: usize) {
        if self.start > 0 && self.start + need > self.buf.len() {
            self.compact();
        }
        if self.end == self.buf.len() {
            // Full of bytes that really arrived, and the frame wants more:
            // grow, but only a bounded step past what has been received
            // and never past the frame (`read_frame` relies on that).
            let target = need.min(self.end + READ_BUF_STEP);
            self.buf.reserve_exact(target - self.buf.len());
            self.buf.resize(target, 0);
        }
    }
}

/// Reads one frame from `stream`, which must have a read timeout set
/// (the timeout is the polling tick; budgets are enforced here). The
/// budgets, `stop` and the typed faults are those of
/// [`FrameReader::next_frame`], whose parser this runs. It owns nothing
/// to carry bytes over in, so it must not take a byte past the frame it
/// returns: its buffer starts at the header's size and grows only to the
/// frame's, which makes header and body two reads, and the payload is
/// copied out.
///
/// # Errors
///
/// Every connection-layer fault maps to a typed [`ProtoError`].
pub fn read_frame(
    stream: &mut TcpStream,
    max_len: u32,
    idle_budget: Duration,
    stall_budget: Duration,
    stop: &dyn Fn() -> bool,
) -> Result<FrameEvent, ProtoError> {
    read_frame_from(stream, max_len, idle_budget, stall_budget, stop)
}

fn read_frame_from(
    r: &mut impl Read,
    max_len: u32,
    idle_budget: Duration,
    stall_budget: Duration,
    stop: &dyn Fn() -> bool,
) -> Result<FrameEvent, ProtoError> {
    let mut reader = FrameReader::with_len(HEADER_BYTES);
    let frame = reader.next_frame(r, max_len, idle_budget, stall_budget, stop)?;
    Ok(match frame {
        Some(payload) => FrameEvent::Payload(payload.to_vec()),
        None => FrameEvent::Closed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `golden` is the payload's wire bytes, part by part, written out
    /// by hand from the PR 7 format: the encoder may not drift from it.
    fn roundtrip_req(req: Request, golden: &[&[u8]]) {
        let enc = req.encode();
        assert_eq!(enc, golden.concat(), "wire bytes of {req:?}");
        let mut appended = vec![0xEE];
        req.encode_into(&mut appended);
        assert_eq!(appended[1..], enc[..], "encode_into appends");
        let dec = Request::decode(&enc).expect("decode");
        assert_eq!(req, dec);
    }

    fn roundtrip_resp(resp: Response, golden: &[&[u8]]) {
        let enc = resp.encode();
        assert_eq!(enc, golden.concat(), "wire bytes of {resp:?}");
        let mut appended = vec![0xEE];
        resp.encode_into(&mut appended);
        assert_eq!(appended[1..], enc[..], "encode_into appends");
        let dec = Response::decode(&enc).expect("decode");
        assert_eq!(resp, dec);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(
            Request::Hello {
                version: PROTO_VERSION,
                tenant: "tenant-0".into(),
                token: token_hash("hunter2"),
            },
            &[
                &[0x01],
                &3u32.to_le_bytes(),
                &8u32.to_le_bytes(),
                b"tenant-0",
                &token_hash("hunter2").to_le_bytes(),
            ],
        );
        roundtrip_req(
            Request::Read {
                addr: 7,
                deadline_ms: 25,
            },
            &[&[0x02, 7, 0, 0, 0, 0, 0, 0, 0, 25, 0, 0, 0]],
        );
        roundtrip_req(
            Request::Write {
                addr: 9,
                deadline_ms: 0,
                data: [0xAB; 64],
            },
            &[
                &[0x03],
                &9u64.to_le_bytes(),
                &0u32.to_le_bytes(),
                &[0xAB; 64],
            ],
        );
        roundtrip_req(
            Request::WriteBatch {
                deadline_ms: 5,
                items: vec![(1, [1; 64]), (2, [2; 64]), (3, [3; 64])],
            },
            &[
                &[0x04],
                &5u32.to_le_bytes(),
                &3u32.to_le_bytes(),
                &1u64.to_le_bytes(),
                &[1; 64],
                &2u64.to_le_bytes(),
                &[2; 64],
                &3u64.to_le_bytes(),
                &[3; 64],
            ],
        );
        roundtrip_req(Request::Flush, &[&[0x05]]);
        roundtrip_req(Request::Recover, &[&[0x06]]);
        roundtrip_req(Request::Stats, &[&[0x07]]);
        // The opcode after `Stats` is free: nothing on the wire injects.
        assert!(matches!(
            Request::decode(&[0x08]),
            Err(ProtoError::UnknownOpcode(0x08))
        ));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(
            Response::HelloOk {
                session: 42,
                mode: ServeMode::Full,
            },
            &[&[0x81], &42u64.to_le_bytes(), &[0]],
        );
        roundtrip_resp(
            Response::ReadOk {
                data: [9; 64],
                mode: ServeMode::ReadOnly,
            },
            &[&[0x82], &[9; 64], &[1]],
        );
        roundtrip_resp(Response::WriteOk, &[&[0x83]]);
        roundtrip_resp(
            Response::BatchOk { written: 17 },
            &[&[0x84], &17u32.to_le_bytes()],
        );
        roundtrip_resp(Response::FlushOk, &[&[0x85]]);
        roundtrip_resp(
            Response::RecoverOk {
                outcome: "recovered".into(),
            },
            &[&[0x86], &9u32.to_le_bytes(), b"recovered"],
        );
        let outcome = "degraded (repaired 1, rebuilt 2)";
        let mut stats = vec![0x87, 1];
        for counter in 2..=12u64 {
            stats.extend_from_slice(&counter.to_le_bytes());
        }
        roundtrip_resp(
            Response::StatsOk(TenantStats {
                mode: 1,
                inflight: 2,
                reads_total: 3,
                writes_acked_total: 4,
                rejected_overload: 5,
                rejected_circuit: 6,
                rejected_deadline: 7,
                degraded_writes: 8,
                degraded_reads: 9,
                recoveries: 10,
                breaker_trips: 11,
                quarantined_blocks: 12,
                last_outcome: outcome.into(),
            }),
            &[
                &stats,
                &(outcome.len() as u32).to_le_bytes(),
                outcome.as_bytes(),
            ],
        );
        let text = |code: u8, s: &str| {
            [
                &[0xE0, code][..],
                &(s.len() as u32).to_le_bytes(),
                s.as_bytes(),
            ]
            .concat()
        };
        let number = |code: u8, v: u32| [&[0xE0, code][..], &v.to_le_bytes()].concat();
        for (err, golden) in [
            (ServeError::BadFrame { detail: "x".into() }, text(1, "x")),
            (ServeError::AuthFailed, vec![0xE0, 2]),
            (ServeError::BadRequest { detail: "y".into() }, text(3, "y")),
            (ServeError::DeadlineExceeded { budget_ms: 5 }, number(4, 5)),
            (ServeError::Overloaded { retry_after_ms: 9 }, number(5, 9)),
            (
                ServeError::CircuitOpen { retry_after_ms: 11 },
                number(6, 11),
            ),
            (
                ServeError::Degraded {
                    mode: ServeMode::ReadOnly,
                },
                vec![0xE0, 7, 1],
            ),
            (
                ServeError::Integrity {
                    detail: "node".into(),
                },
                text(8, "node"),
            ),
            (
                ServeError::Unavailable {
                    detail: "gone".into(),
                },
                text(9, "gone"),
            ),
            (
                ServeError::Internal {
                    detail: "bug".into(),
                },
                text(10, "bug"),
            ),
        ] {
            roundtrip_resp(Response::Err(err), &[&golden]);
        }
    }

    #[test]
    fn truncated_payloads_are_typed() {
        let enc = Request::Write {
            addr: 1,
            deadline_ms: 2,
            data: [7; 64],
        }
        .encode();
        for cut in 1..enc.len() {
            let err = Request::decode(&enc[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail decode");
        }
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtoError::UnknownOpcode(0x7F))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Request::Flush.encode();
        enc.push(0);
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn forged_batch_count_rejected_without_allocation() {
        let mut e = vec![OP_WRITE_BATCH];
        e.extend_from_slice(&0u32.to_le_bytes());
        e.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Request::decode(&e), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(ServeError::AuthFailed.kind(), "auth_failed");
        assert_eq!(
            ServeError::Overloaded { retry_after_ms: 1 }.kind(),
            "overloaded"
        );
        assert_eq!(
            ServeError::Degraded {
                mode: ServeMode::ReadOnly
            }
            .kind(),
            "degraded"
        );
    }
    // -----------------------------------------------------------------
    // Frame layer, against counting `Read` / `Write` doubles
    // -----------------------------------------------------------------

    use anubis_nvm::SplitMix64;
    use std::collections::VecDeque;

    const MAX: u32 = 1 << 20;
    const LONG: Duration = Duration::from_secs(5);
    /// A budget a test means to see spent — or to stay far inside: a
    /// scripted tick sleeps 1 ms and a sleep may overshoot by several on a
    /// busy host, so a case that must fit the budget spends 3 ticks of
    /// its 50 ms.
    const SHORT: Duration = Duration::from_millis(50);

    /// A `Write` that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What one `read` call on a [`Script`] does.
    #[derive(Clone, Copy)]
    enum Step {
        /// Delivers up to this many of the stream's next bytes (fewer if
        /// the caller's buffer is smaller: the rest stays queued, as in a
        /// socket).
        Bytes(usize),
        /// One read-timeout tick.
        Tick,
        /// Read-timeout ticks for ever.
        Silence,
    }

    /// A scripted peer: a byte stream and the pieces it arrives in, with
    /// every `read` counted. The end of the plan is end-of-stream.
    struct Script {
        stream: Vec<u8>,
        taken: usize,
        plan: VecDeque<Step>,
        reads: usize,
    }

    impl Script {
        fn new(stream: &[u8], plan: &[Step]) -> Self {
            Script {
                stream: stream.to_vec(),
                taken: 0,
                plan: plan.iter().copied().collect(),
                reads: 0,
            }
        }

        /// The whole stream, `chunk` bytes per `read`, then end-of-stream.
        fn chunked(stream: &[u8], mut chunk: impl FnMut() -> usize) -> Self {
            let mut plan = Vec::new();
            let mut planned = 0;
            while planned < stream.len() {
                let n = chunk().clamp(1, stream.len() - planned);
                plan.push(Step::Bytes(n));
                planned += n;
            }
            Script::new(stream, &plan)
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(!buf.is_empty(), "a read must have somewhere to land");
            self.reads += 1;
            let tick = || {
                // A socket blocks for its read timeout before saying so.
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::ErrorKind::WouldBlock.into())
            };
            match self.plan.front_mut() {
                None => Ok(0),
                Some(Step::Silence) => tick(),
                Some(Step::Tick) => {
                    self.plan.pop_front();
                    tick()
                }
                Some(Step::Bytes(left)) => {
                    let n = (*left).min(buf.len());
                    buf[..n].copy_from_slice(&self.stream[self.taken..self.taken + n]);
                    self.taken += n;
                    *left -= n;
                    if *left == 0 {
                        self.plan.pop_front();
                    }
                    Ok(n)
                }
            }
        }
    }

    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut w = CountingWriter::default();
        write_frame(&mut w, payload).expect("write to a Vec");
        w.bytes
    }

    fn batch32() -> Request {
        Request::WriteBatch {
            deadline_ms: 0,
            items: (0..32).map(|i| (i, [i as u8; 64])).collect(),
        }
    }

    /// One receive through the connection-owned reader.
    fn recv(
        reader: &mut FrameReader,
        script: &mut Script,
        idle: Duration,
        stall: Duration,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<Vec<u8>>, ProtoError> {
        let frame = reader.next_frame(script, MAX, idle, stall, stop)?;
        Ok(frame.map(<[u8]>::to_vec))
    }

    /// One receive through the free function's body.
    fn recv_free(
        script: &mut Script,
        idle: Duration,
        stall: Duration,
        stop: &dyn Fn() -> bool,
    ) -> Result<Option<Vec<u8>>, ProtoError> {
        Ok(match read_frame_from(script, MAX, idle, stall, stop)? {
            FrameEvent::Payload(p) => Some(p),
            FrameEvent::Closed => None,
        })
    }

    /// Runs the first receive of `stream`/`plan` through both entry points
    /// of the parser and hands each outcome, with the script, to `check`.
    fn first_recv_both_ways(
        stream: &[u8],
        plan: &[Step],
        (idle, stall): (Duration, Duration),
        stop: &dyn Fn() -> bool,
        check: impl Fn(Result<Option<Vec<u8>>, ProtoError>, &Script),
    ) {
        let mut script = Script::new(stream, plan);
        let got = recv(&mut FrameReader::new(), &mut script, idle, stall, stop);
        check(got, &script);
        let mut script = Script::new(stream, plan);
        let got = recv_free(&mut script, idle, stall, stop);
        check(got, &script);
    }

    #[test]
    fn a_frame_sent_is_one_write() {
        for req in [
            Request::Read {
                addr: 7,
                deadline_ms: 0,
            },
            batch32(),
        ] {
            let payload = req.encode();
            let want = [
                &MAGIC.to_le_bytes()[..],
                &(payload.len() as u32).to_le_bytes(),
                &payload,
                &fnv1a64(FNV1A64_EMPTY, &payload).to_le_bytes(),
            ]
            .concat();

            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).expect("write_frame");
            assert_eq!((w.writes, &w.bytes), (1, &want), "write_frame of {req:?}");

            // The served path: encoded straight into a reused `tx`, which
            // still holds the previous frame.
            let mut w = CountingWriter::default();
            let mut tx = frame_of(b"the frame before");
            send_frame(&mut w, &mut tx, |out| req.encode_into(out)).expect("send_frame");
            assert_eq!((w.writes, &w.bytes), (1, &want), "tx path of {req:?}");
        }
    }

    #[test]
    fn a_frame_that_arrives_whole_is_one_read() {
        for payload in [Request::Stats.encode(), batch32().encode(), Vec::new()] {
            let frame = frame_of(&payload);
            let mut script = Script::new(&frame, &[Step::Bytes(frame.len()), Step::Silence]);
            let got = recv(&mut FrameReader::new(), &mut script, LONG, LONG, &|| false);
            assert_eq!(got.expect("frame"), Some(payload));
            assert_eq!(script.reads, 1);
        }
    }

    #[test]
    fn frames_that_arrive_together_are_served_in_order_without_reading_again() {
        let payloads: Vec<Vec<u8>> = (0..3u64)
            .map(|addr| {
                Request::Read {
                    addr,
                    deadline_ms: 0,
                }
                .encode()
            })
            .collect();
        for together in [2, 3] {
            let stream: Vec<u8> = payloads[..together]
                .iter()
                .flat_map(|p| frame_of(p))
                .collect();
            let mut script = Script::new(&stream, &[Step::Bytes(stream.len()), Step::Silence]);
            let mut reader = FrameReader::new();
            for payload in &payloads[..together] {
                let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
                assert_eq!(got.expect("frame").as_ref(), Some(payload));
                assert_eq!(script.reads, 1, "{together} frames, one segment");
            }
        }

        // A frame and the front half of the next: the half is carried over
        // and completed by the next call's one read.
        let (first, second) = (frame_of(&payloads[0]), frame_of(&batch32().encode()));
        let stream = [&first[..], &second[..]].concat();
        let cut = first.len() + second.len() / 2;
        let plan = [
            Step::Bytes(cut),
            Step::Bytes(stream.len() - cut),
            Step::Silence,
        ];
        let mut script = Script::new(&stream, &plan);
        let mut reader = FrameReader::new();
        let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
        assert_eq!(got.expect("first").as_ref(), Some(&payloads[0]));
        assert_eq!(script.reads, 1);
        let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
        assert_eq!(got.expect("second"), Some(batch32().encode()));
        assert_eq!(script.reads, 2);
    }

    #[test]
    fn any_chunking_yields_exactly_the_payloads_sent() {
        for seed in 0..1_000u64 {
            let mut rng = SplitMix64::new(0xF4A3_0000 + seed);
            let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let len = match rng.gen_range(0..10) {
                        0 => rng.gen_range(0..70_001),
                        1..=3 => rng.gen_range(0..5_000),
                        _ => rng.gen_range(0..200),
                    };
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_of(p)).collect();
            // Byte at a time, or pieces from a few bytes to several frames.
            let widest = [1, 7, 300, 20_000, 200_000][(seed % 5) as usize];
            let mut chunks = SplitMix64::new(seed);
            let mut chunk = || chunks.gen_range(0..widest) as usize + 1;

            let mut script = Script::chunked(&stream, &mut chunk);
            let mut reader = FrameReader::new();
            for payload in &payloads {
                let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
                assert_eq!(got.expect("frame").as_ref(), Some(payload), "seed {seed}");
            }
            let end = recv(&mut reader, &mut script, LONG, LONG, &|| false);
            assert_eq!(end.expect("clean end"), None, "seed {seed}");
            assert_eq!(script.taken, stream.len());

            // The free function, call after call on the same stream, stops
            // at each frame's last byte.
            let mut script = Script::chunked(&stream, &mut chunk);
            let mut frames_end = 0;
            for payload in &payloads {
                let got = recv_free(&mut script, LONG, LONG, &|| false);
                assert_eq!(got.expect("frame").as_ref(), Some(payload), "seed {seed}");
                frames_end += HEADER_BYTES + payload.len() + TRAILER_BYTES;
                assert_eq!(script.taken, frames_end, "seed {seed}: read past the frame");
            }
            let end = recv_free(&mut script, LONG, LONG, &|| false);
            assert_eq!(end.expect("clean end"), None, "seed {seed}");
        }
    }

    #[test]
    fn a_bad_header_is_rejected_before_any_payload_is_awaited() {
        let mut bad_magic = frame_of(&batch32().encode());
        bad_magic[0] ^= 0x40;
        let mut oversize = MAGIC.to_le_bytes().to_vec();
        oversize.extend_from_slice(&(MAX + 1).to_le_bytes());
        // Only the header ever arrives; a reader that waited for the body
        // would run into the silence and report a stall instead.
        let plan = [Step::Bytes(HEADER_BYTES), Step::Silence];
        first_recv_both_ways(
            &bad_magic,
            &plan,
            (LONG, SHORT),
            &|| false,
            |got, script| {
                assert!(matches!(got, Err(ProtoError::BadMagic(m)) if m == MAGIC ^ 0x40));
                assert_eq!(script.reads, 1);
            },
        );
        first_recv_both_ways(&oversize, &plan, (LONG, SHORT), &|| false, |got, script| {
            assert!(matches!(
                got,
                Err(ProtoError::Oversize { len, max }) if len == MAX + 1 && max == MAX
            ));
            assert_eq!(script.reads, 1);
        });
    }

    #[test]
    fn a_flipped_bit_anywhere_behind_the_header_is_a_bad_checksum() {
        let frame = frame_of(&Request::Stats.encode());
        for byte in HEADER_BYTES..frame.len() {
            let mut bent = frame.clone();
            bent[byte] ^= 0x10;
            let plan = [Step::Bytes(bent.len()), Step::Silence];
            first_recv_both_ways(&bent, &plan, (LONG, LONG), &|| false, |got, _| {
                assert!(
                    matches!(got, Err(ProtoError::BadChecksum { .. })),
                    "flip in byte {byte}"
                );
            });
        }
    }

    #[test]
    fn end_of_stream_is_closed_before_a_frame_and_truncated_inside_one() {
        let frame = frame_of(
            &Request::Read {
                addr: 1,
                deadline_ms: 2,
            }
            .encode(),
        );
        for cut in 0..frame.len() {
            let plan = if cut == 0 {
                vec![]
            } else {
                vec![Step::Bytes(cut)]
            };
            first_recv_both_ways(
                &frame[..cut],
                &plan,
                (LONG, LONG),
                &|| false,
                |got, _| match cut {
                    0 => assert!(matches!(got, Ok(None))),
                    _ => assert!(matches!(got, Err(ProtoError::Truncated)), "cut {cut}"),
                },
            );
        }
    }

    #[test]
    fn silence_is_charged_to_the_idle_budget_before_a_frame_and_the_stall_budget_inside_one() {
        let payload = Request::Stats.encode();
        let frame = frame_of(&payload);
        let quiet = |got: Result<Option<Vec<u8>>, ProtoError>, _: &Script| {
            assert!(matches!(got, Ok(None)), "idle budget spent: a clean close");
        };
        first_recv_both_ways(&frame, &[Step::Silence], (SHORT, LONG), &|| false, quiet);
        for started in [1, HEADER_BYTES, frame.len() - 1] {
            let plan = [Step::Bytes(started), Step::Silence];
            first_recv_both_ways(&frame, &plan, (LONG, SHORT), &|| false, |got, _| {
                assert!(
                    matches!(got, Err(ProtoError::TimedOutMidFrame)),
                    "stalled {started} bytes in"
                );
            });
        }
        // Neither budget is charged for the other phase's silence, and the
        // stall budget is of silence, not of the frame's total time: 64
        // ticks (at least 64 ms, more than `SHORT`) go to the long budget
        // each time, 3 to the short one.
        let ticks = [Step::Tick; 64];
        let slow = [
            &ticks[..],
            &[Step::Bytes(3)],
            &ticks[..3],
            &[Step::Bytes(frame.len() - 3)],
        ]
        .concat();
        first_recv_both_ways(&frame, &slow, (LONG, SHORT), &|| false, |got, _| {
            assert_eq!(got.expect("frame").as_ref(), Some(&payload));
        });
        let slower = [
            &[Step::Bytes(3)][..],
            &ticks[..],
            &[Step::Bytes(frame.len() - 3)],
        ]
        .concat();
        first_recv_both_ways(&frame, &slower, (SHORT, LONG), &|| false, |got, _| {
            assert_eq!(got.expect("frame").as_ref(), Some(&payload));
        });
    }

    #[test]
    fn stop_is_honoured_on_the_first_tick_of_either_phase() {
        let frame = frame_of(&Request::Stats.encode());
        first_recv_both_ways(
            &frame,
            &[Step::Silence],
            (LONG, LONG),
            &|| true,
            |got, script| {
                assert!(matches!(got, Ok(None)));
                assert_eq!(script.reads, 1);
            },
        );
        let plan = [Step::Bytes(5), Step::Silence];
        first_recv_both_ways(&frame, &plan, (LONG, LONG), &|| true, |got, script| {
            assert!(matches!(got, Err(ProtoError::Truncated)));
            assert_eq!(script.reads, 2);
        });
    }

    #[test]
    fn the_receive_buffer_follows_received_bytes_not_the_length_field() {
        let mut stream = MAGIC.to_le_bytes().to_vec();
        stream.extend_from_slice(&MAX.to_le_bytes());
        stream.resize(HEADER_BYTES + 20_000, 0x5A);

        // Eight bytes that promise a MiB, then nothing.
        let mut reader = FrameReader::new();
        let mut script = Script::new(&stream, &[Step::Bytes(HEADER_BYTES), Step::Silence]);
        let got = recv(&mut reader, &mut script, LONG, SHORT, &|| false);
        assert!(matches!(got, Err(ProtoError::TimedOutMidFrame)));
        assert!(reader.buf.capacity() <= READ_BUF_FLOOR + READ_BUF_STEP);
        assert_eq!(
            reader.buf.capacity(),
            READ_BUF_FLOOR,
            "nothing arrived to grow for"
        );

        // The same promise with 20 000 bytes behind it: one step, no more.
        let mut reader = FrameReader::new();
        let mut script = Script::new(&stream, &[Step::Bytes(stream.len()), Step::Silence]);
        let got = recv(&mut reader, &mut script, LONG, SHORT, &|| false);
        assert!(matches!(got, Err(ProtoError::TimedOutMidFrame)));
        assert_eq!(script.taken, stream.len());
        assert!(reader.buf.capacity() <= stream.len() + READ_BUF_STEP);

        // A frame larger than the floor is served, and the memory it
        // needed is given back before the next one.
        let big = vec![0xC3; 70_000];
        let small = Request::Stats.encode();
        let stream = [frame_of(&big), frame_of(&small)].concat();
        let mut reader = FrameReader::new();
        let mut script = Script::chunked(&stream, || 9_000);
        let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
        assert_eq!(got.expect("big frame"), Some(big));
        assert!(reader.buf.capacity() > READ_BUF_FLOOR);
        let got = recv(&mut reader, &mut script, LONG, LONG, &|| false);
        assert_eq!(got.expect("small frame"), Some(small));
        assert_eq!(reader.buf.capacity(), READ_BUF_FLOOR);
    }
}
