//! Exhaustive crash-point injection: for every prefix of a workload,
//! crash there, recover, and verify that every acknowledged write is
//! intact — for every scheme that claims recoverability.
//!
//! This is invariant 6 of DESIGN.md, the strongest end-to-end guarantee
//! the paper's schemes make.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, SgxController,
    SgxScheme,
};
use anubis_nvm::Block;
use std::collections::HashMap;

fn payload(op: u64) -> Block {
    Block::from_words([
        op,
        op * 3,
        !op,
        op << 9,
        op ^ 0xFEED,
        op + 1,
        op.rotate_left(7),
        0x42,
    ])
}

/// The scripted workload: a mix of overwrites, spread, and read traffic.
fn script(n: usize) -> Vec<(bool, u64)> {
    (0..n as u64)
        .map(|i| {
            let write = i % 3 != 2;
            let addr = (i * 37) % 300;
            (write, addr)
        })
        .collect()
}

fn run_crash_matrix<C, F>(make: F, name: &str)
where
    C: MemoryController,
    F: Fn() -> C,
{
    let ops = script(48);
    // Crash after every k ops (k=0 included: crash before any work).
    for k in 0..=ops.len() {
        let mut ctrl = make();
        let mut model: HashMap<u64, Block> = HashMap::new();
        for (i, (is_write, addr)) in ops.iter().take(k).enumerate() {
            if *is_write {
                let b = payload(i as u64);
                ctrl.write(DataAddr::new(*addr), b)
                    .unwrap_or_else(|e| panic!("{name}: write {i} failed: {e}"));
                model.insert(*addr, b);
            } else {
                ctrl.read(DataAddr::new(*addr))
                    .unwrap_or_else(|e| panic!("{name}: read {i} failed: {e}"));
            }
        }
        ctrl.crash();
        ctrl.recover()
            .unwrap_or_else(|e| panic!("{name}: recovery after {k} ops failed: {e}"));
        for (addr, expect) in &model {
            let got = ctrl
                .read(DataAddr::new(*addr))
                .unwrap_or_else(|e| panic!("{name}: post-recovery read {addr} failed: {e}"));
            assert_eq!(&got, expect, "{name}: addr {addr} after crash at {k}");
        }
    }
}

#[test]
fn osiris_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::Osiris, &cfg),
        "osiris",
    );
}

#[test]
fn agit_read_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::AgitRead, &cfg),
        "agit-read",
    );
}

#[test]
fn agit_plus_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        "agit-plus",
    );
}

#[test]
fn strict_persist_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        "strict-persist",
    );
}

#[test]
fn asit_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(|| SgxController::new(SgxScheme::Asit, &cfg), "asit");
}

#[test]
fn sgx_strict_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || SgxController::new(SgxScheme::StrictPersist, &cfg),
        "sgx-strict",
    );
}

#[test]
fn repeated_crashes_with_interleaved_work() {
    // Crash, recover, write more, crash again — five rounds, both families.
    let cfg = AnubisConfig::small_test();
    let mut bonsai = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
    let mut sgx = SgxController::new(SgxScheme::Asit, &cfg);
    let mut model: HashMap<u64, Block> = HashMap::new();
    for round in 0..5u64 {
        for i in 0..30u64 {
            let addr = (round * 13 + i * 7) % 200;
            let b = payload(round * 1000 + i);
            bonsai.write(DataAddr::new(addr), b).unwrap();
            sgx.write(DataAddr::new(addr), b).unwrap();
            model.insert(addr, b);
        }
        bonsai.crash();
        bonsai
            .recover()
            .unwrap_or_else(|e| panic!("bonsai round {round}: {e}"));
        sgx.crash();
        sgx.recover()
            .unwrap_or_else(|e| panic!("sgx round {round}: {e}"));
        for (addr, expect) in &model {
            assert_eq!(bonsai.read(DataAddr::new(*addr)).unwrap(), *expect);
            assert_eq!(sgx.read(DataAddr::new(*addr)).unwrap(), *expect);
        }
    }
}

#[test]
fn crash_during_page_reencryption_recovers() {
    // Drive a minor counter to overflow, then crash right after the op
    // that triggered re-encryption; the persistent re-encryption log must
    // carry recovery through.
    let cfg = AnubisConfig::small_test();
    for scheme in [BonsaiScheme::Osiris, BonsaiScheme::AgitPlus] {
        let mut ctrl = BonsaiController::new(scheme, &cfg);
        let hot = DataAddr::new(70);
        let cold = DataAddr::new(71);
        ctrl.write(cold, payload(999)).unwrap();
        for i in 0..=127u64 {
            ctrl.write(hot, payload(i)).unwrap();
        }
        // Overflow happened inside the loop (128th increment).
        ctrl.crash();
        ctrl.recover()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert_eq!(ctrl.read(hot).unwrap(), payload(127), "{}", scheme.name());
        assert_eq!(ctrl.read(cold).unwrap(), payload(999), "{}", scheme.name());
    }
}

#[test]
fn intra_op_sweep_mode() {
    // Sweep mode: instead of crashing at op boundaries, cut power after
    // individual device-level writes *inside* operations, via the
    // fault-injection campaigns in `anubis_sim::fault`. A strided subset
    // keeps this cheap next to the matrices above; set
    // `ANUBIS_CRASH_SWEEP=1` for every injection point (the full sweep
    // also runs, per scheme, in `tests/fault_matrix.rs`).
    let stride = if std::env::var_os("ANUBIS_CRASH_SWEEP").is_some() {
        1
    } else {
        7
    };
    let cfg = AnubisConfig::small_test();
    let ops = script(48);
    for report in [
        anubis_sim::power_cut_sweep(
            || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &ops,
            stride,
        ),
        anubis_sim::power_cut_sweep(|| SgxController::new(SgxScheme::Asit, &cfg), &ops, stride),
    ] {
        assert!(
            report.injection_points > 0,
            "{}: no faults fired",
            report.scheme
        );
        assert_eq!(
            report.recovered, report.injection_points,
            "{}: every intra-op power cut must recover",
            report.scheme
        );
    }
}

#[test]
fn stale_counter_beyond_stop_loss_errs_without_panic() {
    // The stop-loss boundary: Osiris can only probe `stop_loss` minor
    // increments past the persisted counter. Replay a stale counter block
    // whose gap to the actual data exceeds that budget — recovery must
    // surface a typed error, never panic, and the same crash image must
    // still recover when the counter is left untampered.
    use anubis::RecoveryError;
    let cfg = AnubisConfig::small_test();
    let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
    let a = DataAddr::new(9);
    c.write(a, payload(0)).unwrap();
    c.shutdown_flush().unwrap();
    let (leaf, _) = c.layout().counter_of(a);
    let ctr = c.layout().node_addr(leaf);
    let stale = c.domain().device().peek(ctr);
    // stop_loss + 2 more writes: the data line's minor is now further
    // ahead of the recorded `stale` block than probing can bridge.
    for i in 1..=u64::from(cfg.stop_loss) + 2 {
        c.write(a, payload(i)).unwrap();
    }
    c.domain_mut().drain_wpq();
    c.crash();

    // Positive control: the honest crash image recovers.
    let mut honest = c.clone();
    honest
        .recover()
        .expect("untampered crash image must recover");

    c.domain_mut().device_mut().tamper_replay(ctr, stale);
    let err = c
        .recover()
        .expect_err("a counter gap beyond stop-loss must be an error, not a panic");
    assert!(
        matches!(
            err,
            RecoveryError::CounterNotRecovered { .. } | RecoveryError::StopLossExceeded { .. }
        ),
        "unexpected recovery error: {err}"
    );
}

#[test]
fn shadow_capacity_exceeded_is_lane_invariant() {
    // A verified Shadow Table tracking more same-set nodes than the
    // metadata cache's associativity can hold must fail ASIT recovery
    // with `ShadowCapacityExceeded`, naming the offending address. (The
    // test keeps the name the tier-1 floor lists it under; see
    // `parallel_equiv.rs` for what "lane" was.)
    use anubis::{RecoveryError, StEntry};
    use anubis_itree::NodeId;

    let cfg = AnubisConfig::small_test();
    let sets = (cfg.metadata_cache_bytes / 64 / cfg.metadata_cache_ways) as u64;
    let conflicting = cfg.metadata_cache_ways as u64 + 1;
    let mut c = SgxController::new(SgxScheme::Asit, &cfg);
    // Leaf node addresses `sets` blocks apart share a cache set, so
    // ways + 1 of them can never co-reside.
    for j in 0..conflicting {
        let addr = c.layout().node_addr(NodeId::new(0, j * sets));
        let entry = StEntry::new(addr, 0, [0u64; 8]);
        let slot = c.layout().st_slot(j);
        c.domain_mut().device_mut().poke(slot, entry.to_block());
    }
    c.debug_refresh_shadow_root_from_nvm();

    c.crash();
    match c.recover() {
        // Entries are placed in node-address order: the first one that
        // cannot fit is the last of the ways + 1.
        Err(RecoveryError::ShadowCapacityExceeded { addr }) => assert_eq!(
            addr,
            c.layout()
                .node_addr(NodeId::new(0, (conflicting - 1) * sets)),
            "not the address of the node that found its set full"
        ),
        Err(e) => panic!("expected ShadowCapacityExceeded, got {e}"),
        Ok(_) => panic!("over-capacity shadow table must not recover"),
    }
}

#[test]
fn counter_write_through_survives_every_crash_point() {
    let cfg = AnubisConfig::small_test();
    run_crash_matrix(
        || BonsaiController::new(BonsaiScheme::CounterWriteThrough, &cfg),
        "ctr-write-through",
    );
}
