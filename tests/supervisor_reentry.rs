//! Supervisor re-entrancy: a power cut at *any* rung of the escalation
//! ladder must leave the machine in a state from which running the whole
//! ladder again from scratch terminates in a structured outcome — and a
//! further clean crash/recover cycle is a fixpoint (`Recovered`, nothing
//! left to repair).
//!
//! Every cut inside a recovery, at every fault point of a script, is
//! enumerated per scheme in `tests/crash_storm.rs`. This file holds the
//! cases below the controller — the persistence domain's REDO under
//! nested power-ups — and the ones a sweep found or cannot reach: a line
//! retired in place, and ladders over distinct domains at once.

use anubis::{
    supervisor::recover, AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, RecoveryOutcome,
    SgxController, SgxScheme, Supervised,
};
use anubis_nvm::{Block, FaultPlan, MemBackend, SplitMix64};
use std::collections::BTreeMap;

const OPS: u64 = 40;
const ADDR_SPACE: u64 = 200;

fn config() -> AnubisConfig {
    AnubisConfig::small_test().with_spare_blocks(256)
}

fn payload(i: u64, addr: u64) -> Block {
    let x = i * 1009 + addr;
    Block::from_words([
        x,
        x * 3,
        !x,
        x << 9,
        x ^ 0xFEED,
        x + 1,
        x.rotate_left(7),
        0x42,
    ])
}

/// The trial's write-only script, regenerated from the same seed for the
/// dry-run count and the faulted run.
fn addrs(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..OPS).map(|_| rng.next_u64() % ADDR_SPACE).collect()
}

/// Runs the script with `plan` armed; returns the acknowledged-write
/// model and the one in-flight (unacknowledged) write, if any.
#[allow(clippy::type_complexity)]
fn run_faulted<C: Supervised + ?Sized>(
    ctrl: &mut C,
    script: &[u64],
    plan: FaultPlan,
) -> (BTreeMap<u64, Block>, Option<(u64, Block)>) {
    ctrl.domain_mut().arm_fault(plan);
    let mut model = BTreeMap::new();
    let mut attempted = None;
    for (i, &addr) in script.iter().enumerate() {
        let data = payload(i as u64, addr);
        match ctrl.write(DataAddr::new(addr), data) {
            Ok(()) => {
                model.insert(addr, data);
            }
            Err(e) if e.is_power_loss() => {
                attempted = Some((addr, data));
                break;
            }
            Err(e) if e.is_detected_corruption() => break,
            Err(e) => panic!("op {i}: unexpected write error: {e}"),
        }
    }
    (model, attempted)
}

/// Every acknowledged write must read back as its committed value, the
/// in-flight value, or an explicit zero on a quarantined line.
fn check_model<C: Supervised + ?Sized>(
    ctrl: &mut C,
    model: &BTreeMap<u64, Block>,
    attempted: Option<(u64, Block)>,
    ctx: &str,
) {
    for (&addr, expect) in model {
        let da = DataAddr::new(addr);
        let got = ctrl
            .read(da)
            .unwrap_or_else(|e| panic!("{ctx}: read of acknowledged addr {addr} failed: {e}"));
        let new_ok = attempted == Some((addr, got));
        let quarantined_zero = got.is_zeroed() && ctrl.is_line_quarantined(da);
        assert!(
            got == *expect || new_ok || quarantined_zero,
            "{ctx}: acknowledged addr {addr} holds wrong data"
        );
    }
}

/// One supervisor driving ladders over *distinct* persistence domains
/// concurrently: each thread owns a controller of a different
/// family/scheme mix, takes a mid-workload fault, crashes, then all
/// threads release at a barrier and recover at the same time. The
/// supervisor holds no state, so concurrent ladders must
/// neither interfere nor deadlock, and each domain must independently
/// honor the acknowledged-write contract and reach the clean fixpoint.
#[test]
fn supervisor_recovers_distinct_domains_concurrently() {
    use std::sync::{Arc, Barrier};

    const THREADS: usize = 6;
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let trial_seed = 0xC0_FFEE ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = SplitMix64::new(trial_seed);
                let script = addrs(trial_seed);
                let ctx = format!("concurrent domain {t}");

                // Each thread's controller is its own persistence domain;
                // families alternate so both ladder shapes run at once.
                let make = |which: usize| -> Box<dyn Supervised<Backend = MemBackend>> {
                    match which % 3 {
                        0 => Box::new(BonsaiController::new(BonsaiScheme::AgitPlus, &config())),
                        1 => Box::new(BonsaiController::new(BonsaiScheme::Osiris, &config())),
                        _ => Box::new(SgxController::new(SgxScheme::Asit, &config())),
                    }
                };

                let total = {
                    let mut dry = make(t);
                    for (i, &addr) in script.iter().enumerate() {
                        dry.write(DataAddr::new(addr), payload(i as u64, addr))
                            .unwrap_or_else(|e| panic!("{ctx}: dry write {i} failed: {e}"));
                    }
                    dry.domain().persist_writes()
                };
                let k = rng.next_u64() % total.max(1);
                let plan = if t % 2 == 0 {
                    FaultPlan::power_cut_after(k)
                } else {
                    let n = 1 + (rng.next_u64() % 3) as usize;
                    let bits = (0..n).map(|_| (rng.next_u64() % 512) as usize).collect();
                    FaultPlan::bit_flip_after(k, bits)
                };

                let mut ctrl = make(t);
                let (model, attempted) = run_faulted(&mut *ctrl, &script, plan);
                ctrl.crash();

                // Everyone crashes first, then everyone recovers at once.
                barrier.wait();
                recover(&mut *ctrl)
                    .unwrap_or_else(|e| panic!("{ctx}: concurrent recovery failed: {e}"));
                check_model(&mut *ctrl, &model, attempted, &ctx);

                ctrl.crash();
                barrier.wait();
                let again = recover(&mut *ctrl)
                    .unwrap_or_else(|e| panic!("{ctx}: clean re-recovery failed: {e}"));
                assert_eq!(
                    again.outcome,
                    RecoveryOutcome::Recovered,
                    "{ctx}: clean concurrent re-recovery must be a fixpoint"
                );
                check_model(&mut *ctrl, &model, attempted, &ctx);
            })
        })
        .collect();

    for h in handles {
        h.join().expect("concurrent recovery thread panicked");
    }
}

/// The REDO a power-up replays is itself a run of device writes, and a
/// cut can land inside it: the group must then survive for the next
/// power-up to replay, not be half applied and forgotten.
#[test]
fn a_write_cut_inside_the_redo_keeps_the_group_for_the_next_power_up() {
    use anubis_nvm::{BlockAddr, NvmError, PersistenceDomain, WriteOp};
    let mut domain = PersistenceDomain::new(1 << 20);
    let new = |i: u64| Block::filled(i as u8 + 1);
    domain.arm_fault(FaultPlan::power_cut_after(1));
    let group = (0..4).map(|i| WriteOp::new(BlockAddr::new(i), new(i)));
    assert_eq!(domain.commit_group(group), Err(NvmError::PowerLost));
    // Power comes back and dies again one write into the REDO.
    domain.device_mut().arm_write_cut(1);
    domain.power_up();
    assert!(domain.device().write_cut_fired());
    domain.device_mut().clear_write_cut();
    domain.power_fail();
    domain.power_up();
    for i in 0..4 {
        assert_eq!(domain.device().peek(BlockAddr::new(i)), new(i), "block {i}");
    }
}

/// A line retired in place — the spare pool used up by an earlier,
/// cut attempt — is rewritten as a sealed zero in its own cells. If
/// that zero lands and the remap entry marking the line does not, the
/// zero is valid data to every later read: an acknowledged line served
/// as zero, and nothing says it was lost.
#[test]
fn an_in_place_retirement_never_leaves_its_zero_unmarked() {
    use anubis::MemoryController;
    use anubis_sim::campaign::{drive_checked, ReadBack};
    let config = AnubisConfig::small_test().with_capacity(64 << 10);
    let mut ctrl = BonsaiController::new(BonsaiScheme::StrictPersist, &config);
    let script: Vec<(bool, u64)> = (0..12u64).map(|i| (i % 3 != 2, (i * 37) % 256)).collect();
    ctrl.domain_mut()
        .arm_fault(FaultPlan::bit_flip_after(15, vec![3, 200]));
    let (model, _) = drive_checked(&mut ctrl, &script, true, "flip at 15");
    ctrl.crash();
    for cut in [136, 94] {
        ctrl.domain_mut().device_mut().arm_write_cut(cut);
        let _ = recover(&mut ctrl);
        assert!(ctrl.domain().device().write_cut_fired(), "cut at {cut}");
        ctrl.domain_mut().device_mut().clear_write_cut();
        ctrl.crash();
    }
    let sup = recover(&mut ctrl).expect("the uncut ladder ends structured");
    assert!(matches!(sup.outcome, RecoveryOutcome::Quarantined { .. }));
    let findings: Vec<_> = model
        .audit(
            &mut ctrl,
            |c, addr| c.read(DataAddr::new(addr)),
            |c, addr, got| got.is_zeroed() && c.is_line_quarantined(DataAddr::new(addr)),
        )
        .collect();
    for found in findings {
        let quarantined = ctrl.is_line_quarantined(DataAddr::new(found.addr));
        assert!(
            !matches!(found.readback, ReadBack::Wrong { .. }),
            "acknowledged addr {} reads {:?}, quarantined: {quarantined}",
            found.addr,
            found.readback,
        );
    }
}

/// Powers a copy of `domain` up and hands it to `check`; below `depth`,
/// also powers a copy up under a write cut at each write the uncut
/// power-up made, fails power, and recurses. Returns the cases checked.
fn nested_power_ups(
    domain: &anubis_nvm::PersistenceDomain,
    depth: u32,
    check: &mut impl FnMut(&anubis_nvm::PersistenceDomain),
) -> u64 {
    let writes = |d: &anubis_nvm::PersistenceDomain| d.device().stats().writes();
    let mut uncut = domain.clone();
    uncut.power_up();
    let made = writes(&uncut) - writes(domain);
    check(&uncut);
    let mut cases = 1;
    for j in (0..made).take_while(|_| depth > 0) {
        let mut cut = domain.clone();
        cut.device_mut().arm_write_cut(j);
        cut.power_up();
        assert!(cut.device().write_cut_fired(), "cut at {j} of {made}");
        cut.device_mut().clear_write_cut();
        cut.power_fail();
        cases += nested_power_ups(&cut, depth - 1, check);
    }
    cases
}

/// The persistence domain alone, against a per-block model: every group
/// of one to four writes over blocks that hold an older group, a power
/// cut at each of its drain writes, then a write cut at every write of up
/// to three nested power-ups. The cut fires past `DONE_BIT`, so the group
/// is owed: whichever power-up runs uncut last leaves each of its blocks
/// new and every other block old.
#[test]
fn every_cut_inside_a_group_and_its_nested_power_ups_leaves_the_group_whole() {
    use anubis_nvm::{BlockAddr, NvmError, PersistenceDomain, WriteOp};
    const BLOCKS: u64 = 6;
    let old = |i: u64| Block::filled(0x10 + i as u8);
    let new = |i: u64| Block::filled(0x80 + i as u8);
    let mut cases = 0;
    for len in 1..=4 {
        for k in 0..len {
            let mut domain = PersistenceDomain::new(1 << 20);
            let older = (0..BLOCKS).map(|i| WriteOp::new(BlockAddr::new(i), old(i)));
            domain.commit_group(older).expect("the older group commits");
            domain.arm_fault(FaultPlan::power_cut_after(BLOCKS + k));
            let group = (0..len).map(|i| WriteOp::new(BlockAddr::new(i), new(i)));
            assert_eq!(domain.commit_group(group), Err(NvmError::PowerLost));
            cases += nested_power_ups(&domain, 3, &mut |d| {
                for i in 0..BLOCKS {
                    let want = if i < len { new(i) } else { old(i) };
                    let got = d.device().peek(BlockAddr::new(i));
                    assert_eq!(got, want, "group of {len} cut at drain {k}: block {i}");
                }
            });
        }
    }
    assert!(cases > 100, "only {cases} cases");
}
