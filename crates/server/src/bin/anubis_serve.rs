//! `anubis-serve` — the multi-tenant serving daemon.
//!
//! Configuration comes entirely from `ANUBIS_SERVE_*` environment knobs
//! (see the README table). On successful startup the daemon prints
//!
//! ```text
//! ANUBIS_SERVE_LISTENING <addr>
//! ```
//!
//! on stdout — the ledger (`benchmark/`) starts its server child the same
//! way and parses this line to find the ephemeral port — then serves
//! until killed. Durability of acknowledged writes must not depend on an
//! orderly shutdown: the ledger's `crash_recover` SIGKILLs that child.

use std::io::Write;
use std::process::ExitCode;

use anubis_server::{ServeConfig, Server};

fn main() -> ExitCode {
    let cfg = match ServeConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("anubis-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.tenants.is_empty() {
        eprintln!("anubis-serve: no tenants configured (set ANUBIS_SERVE_TENANTS)");
        return ExitCode::FAILURE;
    }
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("anubis-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ANUBIS_SERVE_LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    // Serve until killed. The harness SIGKILLs the process; acknowledged
    // writes survive because the controllers commit before acking.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
