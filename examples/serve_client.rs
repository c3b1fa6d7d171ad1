//! Serving-layer walkthrough: handshake, durable writes over the wire,
//! then a *recovery episode* the client forces with a `Recover` request
//! and observes from its side — reads served from the last verified
//! state, typed `Degraded` write rejections while the supervisor's
//! ladder runs, and the return to full service once it finishes.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
//!
//! The example starts an in-process [`anubis_server::Server`]; a real
//! deployment runs `anubis_serve` as a daemon.

use anubis_server::{
    ClientError, ServeClient, ServeConfig, ServeError, ServeMode, Server, TenantFamily, TenantSpec,
};
use std::time::{Duration, Instant};

fn payload(tag: u8) -> [u8; 64] {
    let mut b = [0u8; 64];
    for (i, slot) in b.iter_mut().enumerate() {
        *slot = tag ^ (i as u8);
    }
    b
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- 1. An in-process two-tenant server on an ephemeral port. ------
    let dir = std::env::temp_dir().join(format!("anubis-serve-example-{}", std::process::id()));
    let cfg = ServeConfig {
        data_dir: dir.clone(),
        tenants: vec![
            TenantSpec::new("alpha", "alpha-token", TenantFamily::BonsaiAgitPlus),
            TenantSpec::new("beta", "beta-token", TenantFamily::SgxAsit),
        ],
        ..ServeConfig::default()
    };
    let server = Server::start(cfg)?;
    let addr = server.local_addr();
    println!(
        "server listening on {addr} (domains under {})",
        dir.display()
    );

    // -- 2. Handshake: version + tenant + token, session in return. ----
    let mut alpha = ServeClient::connect(addr, "alpha", "alpha-token")?;
    println!(
        "alpha: session {:#x}, mode at hello {:?}",
        alpha.session(),
        alpha.mode_at_hello()
    );
    match ServeClient::connect(addr, "alpha", "wrong-token").err() {
        Some(ClientError::Server(ServeError::AuthFailed)) => {
            println!("alpha: wrong token rejected with typed AuthFailed");
        }
        other => println!("alpha: unexpected rejection shape: {other:?}"),
    }

    // -- 3. Durable writes and reads over the wire. --------------------
    for addr_line in 0..8u64 {
        alpha.write(addr_line, payload(addr_line as u8), 500)?;
    }
    let (data, mode) = alpha.read(3, 500)?;
    assert_eq!(data, payload(3));
    println!("alpha: 8 lines written + read back (mode {mode:?})");

    // -- 4. Force a recovery episode. ----------------------------------
    // `Recover` hands the controller to the supervisor's full ladder on
    // a background thread and answers at once.
    println!("alpha: recover -> {}", alpha.recover()?);

    // -- 5. The episode, from the client's seat. -----------------------
    // While the ladder runs, reads answer from the last verified state
    // (mode ReadOnly) and writes fail fast with a typed Degraded; a
    // ladder that has already finished serves both in Full mode.
    let (data, mode) = alpha.read(3, 500)?;
    assert_eq!(data, payload(3));
    println!("alpha: read of line 3 during the episode served in mode {mode:?}");
    match alpha.write(6, payload(0x66), 500) {
        Err(ClientError::Server(ServeError::Degraded { mode })) => {
            println!("alpha: write during recovery -> typed Degraded (mode {mode:?})");
        }
        Ok(()) => println!("alpha: write landed: the ladder had already finished"),
        Err(e) => return Err(e.into()),
    }

    // -- 6. Wait for the ladder, then full service again. --------------
    let started = Instant::now();
    loop {
        let stats = alpha.stats()?;
        if stats.mode == ServeMode::Full.code() {
            println!(
                "alpha: back to Full after {:?} (recoveries {}, degraded reads {}, \
                 degraded writes {}, last outcome {:?})",
                started.elapsed(),
                stats.recoveries,
                stats.degraded_reads,
                stats.degraded_writes,
                stats.last_outcome
            );
            break;
        }
        if started.elapsed() > Duration::from_secs(20) {
            return Err("tenant never returned to full service".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    alpha.write(6, payload(0x66), 500)?;
    let (data, _) = alpha.read(6, 500)?;
    assert_eq!(data, payload(0x66));
    println!("alpha: post-recovery write + read verified");

    // -- 7. Tenants are isolated domains. ------------------------------
    // The second tenant (an SGX/ASIT domain) never noticed the episode.
    let mut beta = ServeClient::connect(addr, "beta", "beta-token")?;
    beta.write(1, payload(0xB1), 500)?;
    let (data, mode) = beta.read(1, 500)?;
    assert_eq!(data, payload(0xB1));
    println!("beta: unaffected throughout (mode {mode:?})");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("done: every failure above was a typed response, never a hang");
    Ok(())
}
