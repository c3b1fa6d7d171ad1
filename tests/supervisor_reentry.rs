//! Supervisor re-entrancy: a power cut at *any* rung of the escalation
//! ladder must leave the machine in a state from which running the whole
//! ladder again from scratch terminates in a structured outcome — and a
//! further clean crash/recover cycle is a fixpoint (`Recovered`, nothing
//! left to repair).
//!
//! Property-style: each trial draws a workload, a mid-workload fault
//! (power cut or bit flip) and a write-cut point inside the first
//! recovery attempt from a `SplitMix64` stream, so failures reproduce
//! from the trial seed alone.

use anubis::{
    supervisor::recover, AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, RecoveryOutcome,
    SgxController, SgxScheme, Supervised,
};
use anubis_nvm::{Block, FaultPlan, MemBackend, SplitMix64};
use std::collections::BTreeMap;

const TRIALS: u64 = 8;
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

fn reentry_property<C, F>(make: F, seed: u64)
where
    C: Supervised,
    F: Fn() -> C,
{
    for trial in 0..TRIALS {
        let trial_seed = seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SplitMix64::new(trial_seed);
        let script = addrs(trial_seed);

        // Dry run: how many persist writes does the script perform?
        let total = {
            let mut dry = make();
            for (i, &addr) in script.iter().enumerate() {
                dry.write(DataAddr::new(addr), payload(i as u64, addr))
                    .unwrap_or_else(|e| panic!("trial {trial}: dry write {i} failed: {e}"));
            }
            dry.domain().persist_writes()
        };

        let k = rng.next_u64() % total.max(1);
        let plan = if trial % 2 == 0 {
            FaultPlan::power_cut_after(k)
        } else {
            let n = 1 + (rng.next_u64() % 3) as usize;
            let bits = (0..n).map(|_| (rng.next_u64() % 512) as usize).collect();
            FaultPlan::bit_flip_after(k, bits)
        };
        let ctx = format!("trial {trial} ({plan:?})");

        let mut ctrl = make();
        let (model, attempted) = run_faulted(&mut ctrl, &script, plan);
        ctrl.crash();

        // First recovery attempt, cut short by a write cut at a random
        // point — a second power cut landing at whichever rung the
        // ladder had reached.
        let cut_after = 1 + rng.next_u64() % 200;
        ctrl.domain_mut().device_mut().arm_write_cut(cut_after);
        let _ = recover(&mut ctrl);
        let fired = ctrl.domain().device().write_cut_fired();
        ctrl.domain_mut().device_mut().clear_write_cut();
        if fired {
            ctrl.crash();
        }

        // Re-entry: the ladder restarted from scratch must terminate in
        // a structured outcome and honor the acknowledged-write contract.
        recover(&mut ctrl)
            .unwrap_or_else(|e| panic!("{ctx}: re-entered supervised recovery failed: {e}"));
        check_model(&mut ctrl, &model, attempted, &ctx);

        // Fixpoint: with no new faults, another full cycle finds nothing
        // left to repair.
        ctrl.crash();
        let again =
            recover(&mut ctrl).unwrap_or_else(|e| panic!("{ctx}: clean re-recovery failed: {e}"));
        assert_eq!(
            again.outcome,
            RecoveryOutcome::Recovered,
            "{ctx}: clean re-recovery must be a fixpoint"
        );
        check_model(&mut ctrl, &model, attempted, &ctx);
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

#[test]
fn supervisor_is_reentrant_bonsai_agit_plus() {
    reentry_property(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        0xB0,
    );
}

#[test]
fn supervisor_is_reentrant_bonsai_osiris() {
    reentry_property(
        || BonsaiController::new(BonsaiScheme::Osiris, &config()),
        0x0B,
    );
}

#[test]
fn supervisor_is_reentrant_sgx_asit() {
    reentry_property(|| SgxController::new(SgxScheme::Asit, &config()), 0x5A);
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
