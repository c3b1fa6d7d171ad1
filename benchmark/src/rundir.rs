//! Everything a run leaves on disk or in the process table, and how it
//! goes away again on every exit path.
//!
//! * [`RunDir`] is a scratch directory under `benchmark/out/tmp/`. It is
//!   removed on drop (normal exit, error return, panic unwind). For the
//!   exits that run no destructors — SIGINT, SIGKILL, abort — a
//!   *janitor* child (this binary re-executed) holds the read end of a
//!   pipe whose write end only the benchmark owns: when the benchmark
//!   dies for any reason the pipe closes and the janitor removes the
//!   directory. No signal handler, no `unsafe`.
//! * [`ServerChild`] is the served system under test: this binary
//!   re-executed in `serve-child` mode, which is exactly
//!   `anubis_server::Server::start(ServeConfig::from_env())` plus the
//!   `ANUBIS_SERVE_LISTENING` line the stock `anubis_serve` daemon
//!   prints. It is SIGKILLed and reaped on drop, and exits by itself
//!   when its stdin closes, so an interrupted benchmark leaves no
//!   server behind either.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use anubis_server::{ServeClient, ServeMode};

/// The tenants every served workload runs: one per controller family.
pub const TENANTS: [Tenant; 2] = [
    Tenant {
        name: "a",
        token: "ledger-a",
        family: "bonsai",
    },
    Tenant {
        name: "b",
        token: "ledger-b",
        family: "sgx",
    },
];

/// Admission quota handed to the child: high enough that the token
/// bucket never fires, so a rejected request is a failure, not policy.
const OPS_PER_SEC: &str = "100000000";
const BURST: &str = "1000000";

/// How long a child may take to print its listen line or bring a tenant
/// to `Full` before the run fails with a typed message.
const CHILD_BUDGET: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    pub name: &'static str,
    pub token: &'static str,
    pub family: &'static str,
}

/// Why the served system could not be brought up.
#[derive(Debug)]
pub enum ChildError {
    Spawn(std::io::Error),
    /// The child exited or stayed silent instead of printing
    /// `ANUBIS_SERVE_LISTENING <addr>`.
    NeverListened {
        waited: Duration,
    },
    /// A tenant did not reach `ServeMode::Full` in time.
    NeverFull {
        tenant: &'static str,
        waited: Duration,
        last: String,
    },
}

impl std::fmt::Display for ChildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChildError::Spawn(e) => write!(f, "cannot spawn the server child: {e}"),
            ChildError::NeverListened { waited } => write!(
                f,
                "server child never printed ANUBIS_SERVE_LISTENING within {waited:?} (its stderr is above)"
            ),
            ChildError::NeverFull {
                tenant,
                waited,
                last,
            } => write!(
                f,
                "tenant {tenant:?} never reached Full within {waited:?} (last: {last})"
            ),
        }
    }
}

impl std::error::Error for ChildError {}

fn self_exe() -> std::io::Result<PathBuf> {
    std::env::current_exe()
}

/// A scratch directory guarded by a janitor process.
pub struct RunDir {
    path: PathBuf,
    janitor: Option<Child>,
}

impl RunDir {
    /// Creates `benchmark/out/tmp/<label>-<pid>-<n>` below the current
    /// directory (the checkout root: the benchmark writes nowhere else).
    pub fn create(label: &str) -> std::io::Result<RunDir> {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::current_dir()?
            .join("benchmark/out/tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let janitor = Command::new(self_exe()?)
            .arg("janitor")
            .arg(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(RunDir {
            path,
            janitor: Some(janitor),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(mut j) = self.janitor.take() {
            drop(j.stdin.take()); // EOF: the janitor sweeps once more and exits
            let _ = j.wait();
        }
    }
}

/// `janitor <dir>` mode: wait for stdin to close, then remove `dir`.
pub fn janitor_main(dir: &Path) -> ! {
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let _ = std::fs::remove_dir_all(dir);
    std::process::exit(0);
}

/// `serve-child` mode: the stock daemon's start-up, then serve until
/// stdin closes (the benchmark died) or SIGKILL (the benchmark's own
/// teardown and the crash drill).
pub fn serve_child_main() -> ! {
    use std::io::Write;
    let started = anubis_server::ServeConfig::from_env()
        .map_err(|e| e.to_string())
        .and_then(|cfg| anubis_server::Server::start(cfg).map_err(|e| e.to_string()));
    let server = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-child: {e}");
            std::process::exit(2);
        }
    };
    println!("ANUBIS_SERVE_LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    // No orderly shutdown on purpose: durability must not depend on it.
    std::process::exit(0);
}

/// A running server child on one data directory.
pub struct ServerChild {
    child: Child,
    addr: String,
    spawned_at: Instant,
}

impl ServerChild {
    /// Spawns the child on `data_dir` and waits for its listen line.
    ///
    /// # Errors
    ///
    /// [`ChildError::NeverListened`] if the child exits or stays silent.
    pub fn spawn(data_dir: &Path) -> Result<ServerChild, ChildError> {
        let roster: Vec<String> = TENANTS
            .iter()
            .map(|t| format!("{}:{}:{}", t.name, t.token, t.family))
            .collect();
        let mut cmd = Command::new(self_exe().map_err(ChildError::Spawn)?);
        // Only the knobs set here reach the child: stock defaults plus
        // the two quota knobs, whatever the caller's environment holds.
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("ANUBIS_") {
                cmd.env_remove(k);
            }
        }
        cmd.arg("serve-child")
            .current_dir(data_dir)
            .env("ANUBIS_SERVE_DATA", data_dir)
            .env("ANUBIS_SERVE_TENANTS", roster.join(","))
            .env("ANUBIS_SERVE_OPS_PER_SEC", OPS_PER_SEC)
            .env("ANUBIS_SERVE_BURST", BURST)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned_at = Instant::now();
        let mut child = cmd.spawn().map_err(ChildError::Spawn)?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The reader thread ends with the child's stdout, i.e. with the
        // child; it is detached because a silent child must not block us.
        std::thread::spawn(move || {
            let mut line = String::new();
            let got = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(got.map(|_| line));
        });
        let addr = match rx.recv_timeout(CHILD_BUDGET) {
            Ok(Ok(line)) => line
                .trim()
                .strip_prefix("ANUBIS_SERVE_LISTENING ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ChildError::NeverListened {
                waited: spawned_at.elapsed(),
            });
        };
        Ok(ServerChild {
            child,
            addr,
            spawned_at,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects to `tenant` (retrying while the listener is not up), then
    /// asks for `Stats` on that connection until the tenant reports
    /// `Full`; returns the session and the host time since `spawn()`.
    ///
    /// One connection, not one per poll: the server's accept loop ticks
    /// every 20 ms, so reconnecting to ask again would quantise the
    /// answer to that tick. The poll sleeps ≤ 200 µs, so the time is a
    /// measurement, not a multiple of a polling interval.
    ///
    /// # Errors
    ///
    /// [`ChildError::NeverFull`] after [`CHILD_BUDGET`].
    pub fn connect_full(&self, tenant: &Tenant) -> Result<(ServeClient, Duration), ChildError> {
        let mut last = String::from("no attempt");
        let pause = Duration::from_micros(200);
        while self.spawned_at.elapsed() < CHILD_BUDGET {
            let mut client =
                match ServeClient::connect(self.addr.as_str(), tenant.name, tenant.token) {
                    Ok(c) => c,
                    Err(e) => {
                        last = e.to_string();
                        std::thread::sleep(pause);
                        continue;
                    }
                };
            let mut mode = client.mode_at_hello().code();
            while self.spawned_at.elapsed() < CHILD_BUDGET {
                if mode == ServeMode::Full.code() {
                    return Ok((client, self.spawned_at.elapsed()));
                }
                last = format!("mode code {mode}");
                std::thread::sleep(pause);
                match client.stats() {
                    Ok(s) => mode = s.mode,
                    Err(e) => {
                        last = e.to_string();
                        break; // reconnect
                    }
                }
            }
        }
        Err(ChildError::NeverFull {
            tenant: tenant.name,
            waited: self.spawned_at.elapsed(),
            last,
        })
    }

    /// Peak resident set of the child in MiB (`VmHWM`), if readable.
    pub fn rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL and reap: what the crash drill does mid-run and what
    /// drop does at the end.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}
