//! Demonstrates the fault-injection subsystem end to end: cut power in
//! the middle of a single write, tear a block, flip bits — and watch the
//! controllers recover or detect, never lie.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController};
use anubis_nvm::{Block, FaultPlan};
use anubis_sim::nested_sweep;

fn main() {
    let cfg = AnubisConfig::small_test();

    // --- 1. A single intra-op power cut, by hand. -----------------------
    let mut mem = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
    mem.write(DataAddr::new(1), Block::filled(0xA1)).unwrap();
    let before = mem.domain().persist_writes();

    // Arm: power dies on the very next counted device-level write — i.e.
    // somewhere *inside* the next controller op, not between ops.
    mem.domain_mut()
        .arm_fault(FaultPlan::power_cut_after(before));
    let err = mem
        .write(DataAddr::new(2), Block::filled(0xB2))
        .unwrap_err();
    println!("mid-write fault surfaced as : {err}");
    assert!(err.is_power_loss());

    mem.crash();
    let report = mem.recover().expect("power cuts always recover");
    println!(
        "recovered                   : {} REDO write(s), {} NVM reads",
        report.redo_writes, report.nvm_reads
    );
    assert_eq!(mem.read(DataAddr::new(1)).unwrap(), Block::filled(0xA1));
    println!("acknowledged write intact   : addr 1 == 0xA1…\n");

    // --- 2. Exhaustive sweep: cut power after EVERY device write. -------
    let script: Vec<(bool, u64)> = (0..48u64).map(|i| (i % 3 != 2, (i * 37) % 300)).collect();
    for scheme in [
        BonsaiScheme::StrictPersist,
        BonsaiScheme::AgitRead,
        BonsaiScheme::AgitPlus,
    ] {
        let make = || BonsaiController::new(scheme, &cfg);
        let r = nested_sweep(make, &script, 0, 1, |k| vec![FaultPlan::power_cut_after(k)]);
        println!(
            "{:>16}: {} intra-op crash points, {} recovered, {} detected",
            r.scheme, r.injection_points, r.recovered, r.detected
        );
    }

    // --- 3. Torn write: detection-only territory. -----------------------
    // A one-point sweep: the plan only at device write 40.
    let r = nested_sweep(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        &script,
        0,
        1,
        |k| match k {
            40 => vec![FaultPlan::torn_write_after(40, 3)],
            _ => Vec::new(),
        },
    );
    let verdict = if r.recovered == 1 {
        "Recovered"
    } else {
        "Detected"
    };
    println!("\ntorn write at index 40      : {verdict} (recovered clean or typed error)");

    // --- 4. Bit flips: SEC-DED repairs one, reports two. ----------------
    let mut mem = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
    mem.write(DataAddr::new(7), Block::filled(0x7E)).unwrap();
    mem.shutdown_flush().unwrap();
    let dev = mem.layout().data_addr(DataAddr::new(7));
    mem.domain_mut().device_mut().tamper_flip_bit(dev, 200);
    assert_eq!(mem.read(DataAddr::new(7)).unwrap(), Block::filled(0x7E));
    println!(
        "1-bit flip on data          : transparently corrected ({} word repaired)",
        mem.ecc_corrections()
    );
    mem.domain_mut().device_mut().tamper_flip_bit(dev, 201);
    let err = mem.read(DataAddr::new(7)).unwrap_err();
    println!("2-bit flip on data          : {err}");
    assert!(err.is_detected_corruption());

    println!("\nall fault classes behaved: recover, repair, or typed detection — never wrong data");
}
