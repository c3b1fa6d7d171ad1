//! SGX-style tree recovery with ASIT — the case no pre-Anubis scheme can
//! handle.
//!
//! The parallelizable tree stores a counter-plus-MAC per node where each
//! MAC covers the node's counters *and one counter in its parent*. Lose a
//! dirty interior node in a crash and the chain of custody from the
//! on-chip top node is broken forever — leaves alone cannot rebuild it.
//! This demo shows (1) write-back failing to recover, (2) ASIT restoring
//! the exact metadata-cache state from the integrity-protected Shadow
//! Table, and (3) tamper detection on both the Shadow Table and memory.
//!
//! ```sh
//! cargo run --example sgx_crash_recovery
//! ```

use anubis::{AnubisConfig, DataAddr, MemoryController, RecoveryError, SgxController, SgxScheme};
use anubis_nvm::Block;

fn workload(memory: &mut SgxController) {
    for i in 0..300u64 {
        memory
            .write(DataAddr::new(i * 7 % 1000), Block::filled(i as u8))
            .expect("write");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = AnubisConfig::small_test();

    // 1. Plain write-back caching: after losing dirty interior nodes, the
    //    tree is unrecoverable — exactly the paper's §3 motivation.
    let mut wb = SgxController::new(SgxScheme::WriteBack, &config);
    workload(&mut wb);
    wb.crash();
    match wb.recover() {
        Err(RecoveryError::SchemeCannotRecover { reason }) => {
            println!("write-back after crash: UNRECOVERABLE\n  ({reason})\n");
        }
        other => panic!("expected structural failure, got {other:?}"),
    }

    // 2. ASIT: the Shadow Table mirrors the metadata cache in NVM, its
    //    integrity anchored by SHADOW_TREE_ROOT on-chip. Recovery splices
    //    counters/MACs back and verifies every node (Algorithm 2).
    let mut asit = SgxController::new(SgxScheme::Asit, &config);
    workload(&mut asit);
    asit.crash();
    let report = asit.recover()?;
    println!(
        "ASIT recovery: {} nodes restored from the Shadow Table, {} ops \
         (≈ {:.6} s at 100 ns/op)",
        report.nodes_fixed,
        report.total_ops(),
        report.estimated_secs()
    );
    for i in 0..300u64 {
        let addr = i * 7 % 1000;
        let last = (0..300u64).filter(|j| j * 7 % 1000 == addr).max().unwrap();
        assert_eq!(asit.read(DataAddr::new(addr))?, Block::filled(last as u8));
    }
    println!("all data verified after ASIT recovery ✓\n");

    // 3. Attack the Shadow Table between crash and recovery: the on-chip
    //    SHADOW_TREE_ROOT catches it.
    let mut victim = SgxController::new(SgxScheme::Asit, &config);
    workload(&mut victim);
    victim.crash();
    let st0 = victim.layout().shadow("st").nth(0);
    let mut target = st0;
    for s in 0..victim.layout().shadow("st").len() {
        let a = victim.layout().shadow("st").nth(s);
        if !victim.domain().device().peek(a).is_zeroed() {
            target = a;
            break;
        }
    }
    victim.domain_mut().device_mut().tamper_flip_bit(target, 3);
    match victim.recover() {
        Err(RecoveryError::ShadowTableTampered) => {
            println!("tampered Shadow Table: DETECTED by SHADOW_TREE_ROOT ✓");
        }
        other => panic!("expected shadow-table detection, got {other:?}"),
    }
    Ok(())
}
