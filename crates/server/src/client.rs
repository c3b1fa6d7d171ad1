//! A blocking client for the `anubis-serve` protocol: handshake and typed
//! request/response round-trips. Each request is built in the session's
//! `tx` buffer and sent in one `write`; replies are parsed in its
//! [`FrameReader`], which may hold bytes read ahead, so the socket itself
//! is not exposed (a test that sends raw bytes opens its own `TcpStream`).

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    send_frame, token_hash, FrameReader, ProtoError, Request, Response, ServeError, ServeMode,
    TenantStats, PROTO_VERSION,
};

/// Client-side failure: either the transport/protocol broke, or the
/// server answered with a typed rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Frame/codec/transport failure.
    Proto(ProtoError),
    /// The server said no (typed).
    Server(ServeError),
    /// The server closed the connection (or went silent past the idle
    /// budget) where a response was expected.
    Disconnected,
    /// The server answered with a response of the wrong type.
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server rejection: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse => write!(f, "response type mismatch"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// A connected, authenticated session with one tenant.
pub struct ServeClient {
    stream: TcpStream,
    rx: FrameReader,
    tx: Vec<u8>,
    max_frame: u32,
    idle: Duration,
    stall: Duration,
    session: u64,
    mode_at_hello: ServeMode,
}

const CLIENT_TICK: Duration = Duration::from_millis(20);

impl ServeClient {
    /// Connects and performs the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connect/protocol failure or a typed server
    /// rejection (wrong token, unknown tenant, version mismatch).
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        token: &str,
    ) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TICK))?;
        let _ = stream.set_nodelay(true);
        let mut client = ServeClient {
            stream,
            rx: FrameReader::new(),
            tx: Vec::new(),
            max_frame: 1 << 20,
            idle: Duration::from_secs(60),
            stall: Duration::from_secs(10),
            session: 0,
            mode_at_hello: ServeMode::Full,
        };
        let resp = client.call(&Request::Hello {
            version: PROTO_VERSION,
            tenant: tenant.to_string(),
            token: token_hash(token),
        })?;
        match resp {
            Response::HelloOk { session, mode } => {
                client.session = session;
                client.mode_at_hello = mode;
                Ok(client)
            }
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The tenant's serving mode reported at handshake time.
    pub fn mode_at_hello(&self) -> ServeMode {
        self.mode_at_hello
    }

    /// One raw request/response round-trip.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure; typed server
    /// rejections are returned *inside* [`Response::Err`], not as `Err`.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        send_frame(&mut self.stream, &mut self.tx, |out| req.encode_into(out))?;
        let reply = self.rx.next_frame(
            &mut self.stream,
            self.max_frame,
            self.idle,
            self.stall,
            &|| false,
        )?;
        match reply {
            None => Err(ClientError::Disconnected),
            Some(payload) => Ok(Response::decode(payload)?),
        }
    }

    /// Reads one data line.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn read(
        &mut self,
        addr: u64,
        deadline_ms: u32,
    ) -> Result<([u8; 64], ServeMode), ClientError> {
        match self.call(&Request::Read { addr, deadline_ms })? {
            Response::ReadOk { data, mode } => Ok((data, mode)),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Writes one data line; `Ok` means the write is durably committed.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn write(
        &mut self,
        addr: u64,
        data: [u8; 64],
        deadline_ms: u32,
    ) -> Result<(), ClientError> {
        match self.call(&Request::Write {
            addr,
            deadline_ms,
            data,
        })? {
            Response::WriteOk => Ok(()),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Writes a batch through the controller's grouped commit path.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn write_batch(
        &mut self,
        items: Vec<(u64, [u8; 64])>,
        deadline_ms: u32,
    ) -> Result<u32, ClientError> {
        match self.call(&Request::WriteBatch { deadline_ms, items })? {
            Response::BatchOk { written } => Ok(written),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Orderly flush of the tenant's dirty metadata.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Flush)? {
            Response::FlushOk => Ok(()),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Forces a supervised recovery ladder.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn recover(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Recover)? {
            Response::RecoverOk { outcome } => Ok(outcome),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the tenant's serving statistics.
    ///
    /// # Errors
    ///
    /// Typed [`ClientError::Server`] rejections or transport failures.
    pub fn stats(&mut self) -> Result<TenantStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsOk(s) => Ok(s),
            Response::Err(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}
