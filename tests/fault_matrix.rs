//! Intra-op fault torture matrix.
//!
//! Where `crash_matrix.rs` crashes *between* operations, this harness
//! crashes *inside* them: a [`anubis_nvm::FaultPlan`] fires on the k-th
//! counted device-level write since controller construction, and depth 0
//! of `anubis_sim::nested_sweep` walks k across every persist the scripted
//! workload performs. The contract checked at every injection point:
//! recovery either restores all acknowledged writes, or fails with a
//! *typed* integrity/corruption error — never silent wrong data.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryError,
    SgxController, SgxScheme, Supervised,
};
use anubis_nvm::FaultPlan;
use anubis_sim::campaign::{fnv1a64, FNV1A64_EMPTY};
use anubis_sim::fault::{count_persist_writes, nested_sweep, op_payload, NestedReport, ScriptOp};

/// The scripted workload: 32 writes and 16 reads over 300 data lines
/// (same shape as `crash_matrix.rs`, payloads keyed by script position).
fn script() -> Vec<ScriptOp> {
    (0..48u64).map(|i| (i % 3 != 2, (i * 37) % 300)).collect()
}

/// Depth 0 of the sweep engine over the script: every `stride`-th counted
/// device write `k`, each plan of `plans_at(k)`, the plain verdict only.
/// It panics on silent wrong data.
fn sweep<C: Supervised + Clone>(
    make: impl Fn() -> C,
    stride: u64,
    plans_at: impl Fn(u64) -> Vec<FaultPlan>,
) -> NestedReport {
    nested_sweep(make, &script(), 0, stride, plans_at)
}

fn power_cut(k: u64) -> Vec<FaultPlan> {
    vec![FaultPlan::power_cut_after(k)]
}

fn torn_writes(k: u64) -> Vec<FaultPlan> {
    [1, 4, 7]
        .map(|words| FaultPlan::torn_write_after(k, words))
        .to_vec()
}

fn bit_flip(bits: &[usize]) -> impl Fn(u64) -> Vec<FaultPlan> + '_ {
    move |k| vec![FaultPlan::bit_flip_after(k, bits.to_vec())]
}

fn assert_full_recovery(report: &NestedReport) {
    assert!(
        report.injection_points > 48,
        "{}: expected more intra-op injection points than ops, got {}",
        report.scheme,
        report.injection_points
    );
    assert_eq!(
        report.recovered, report.injection_points,
        "{}: every power cut must recover all acknowledged writes",
        report.scheme
    );
    assert_eq!(
        report.detected, 0,
        "{}: power cuts never corrupt",
        report.scheme
    );
}

// ---------------------------------------------------------------------------
// Power cuts after every counted device write, per recoverable scheme.
// ---------------------------------------------------------------------------

#[test]
fn power_cut_every_device_write_agit_read() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::AgitRead, &cfg),
        1,
        power_cut,
    );
    assert_full_recovery(&report);
}

#[test]
fn power_cut_every_device_write_agit_plus() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        1,
        power_cut,
    );
    assert_full_recovery(&report);
}

#[test]
fn power_cut_every_device_write_strict_persist() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        1,
        power_cut,
    );
    assert_full_recovery(&report);
}

#[test]
fn power_cut_every_device_write_asit() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(|| SgxController::new(SgxScheme::Asit, &cfg), 1, power_cut);
    assert_full_recovery(&report);
}

// ---------------------------------------------------------------------------
// Torn block writes: recovery may fail, but only with a typed error.
// ---------------------------------------------------------------------------

fn assert_no_silent_corruption(report: &NestedReport) {
    assert!(
        report.injection_points > 0,
        "{}: no faults fired",
        report.scheme
    );
    // The sweep panics on silent wrong data; reaching here means every
    // injection resolved as clean recovery or typed detection.
    assert_eq!(
        report.recovered + report.detected,
        report.injection_points,
        "{}: verdict accounting",
        report.scheme
    );
}

#[test]
fn torn_writes_recover_or_detect_agit_plus() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        3,
        torn_writes,
    );
    assert_no_silent_corruption(&report);
}

#[test]
fn torn_writes_recover_or_detect_strict_persist() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
        3,
        torn_writes,
    );
    assert_no_silent_corruption(&report);
}

#[test]
fn torn_writes_recover_or_detect_asit() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(|| SgxController::new(SgxScheme::Asit, &cfg), 3, torn_writes);
    assert_no_silent_corruption(&report);
}

// ---------------------------------------------------------------------------
// Bit flips injected on in-flight device writes.
// ---------------------------------------------------------------------------

#[test]
fn single_bit_flips_corrected_or_detected_agit_plus() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
        2,
        bit_flip(&[11]),
    );
    assert_no_silent_corruption(&report);
}

#[test]
fn single_bit_flips_corrected_or_detected_asit() {
    let cfg = AnubisConfig::small_test();
    let report = sweep(
        || SgxController::new(SgxScheme::Asit, &cfg),
        2,
        bit_flip(&[11]),
    );
    assert_no_silent_corruption(&report);
}

#[test]
fn double_bit_flips_never_serve_wrong_data() {
    // Two flips in the same 64-bit word defeat SEC-DED correction; the
    // sweep's internal asserts guarantee the damage surfaces as typed
    // errors (or is harmlessly overwritten), never as wrong data.
    let cfg = AnubisConfig::small_test();
    for scheme in [BonsaiScheme::AgitRead, BonsaiScheme::Osiris] {
        let report = sweep(|| BonsaiController::new(scheme, &cfg), 4, bit_flip(&[3, 4]));
        assert_no_silent_corruption(&report);
    }
    let report = sweep(
        || SgxController::new(SgxScheme::StrictPersist, &cfg),
        4,
        bit_flip(&[3, 4]),
    );
    assert_no_silent_corruption(&report);
}

// ---------------------------------------------------------------------------
// Targeted uncorrectable flips on metadata / shadow-table regions: these
// MUST surface as typed detection errors for every scheme.
// ---------------------------------------------------------------------------

/// Runs the script, returning the controller plus a victim address that
/// was acknowledged early in the workload.
fn run_script<C: MemoryController>(ctrl: &mut C) -> DataAddr {
    for (i, (is_write, addr)) in script().into_iter().enumerate() {
        if is_write {
            ctrl.write(DataAddr::new(addr), op_payload(i as u64, addr))
                .unwrap();
        } else {
            ctrl.read(DataAddr::new(addr)).unwrap();
        }
    }
    DataAddr::new(37) // written at script position 1, never overwritten
}

#[test]
fn uncorrectable_counter_flip_detected_bonsai() {
    let cfg = AnubisConfig::small_test();
    for scheme in [
        BonsaiScheme::StrictPersist,
        BonsaiScheme::Osiris,
        BonsaiScheme::AgitRead,
        BonsaiScheme::AgitPlus,
        BonsaiScheme::CounterWriteThrough,
    ] {
        let mut ctrl = BonsaiController::new(scheme, &cfg);
        let victim = run_script(&mut ctrl);
        let (leaf, _) = ctrl.layout().leaf_of(victim);
        let node_addr = ctrl.layout().node_addr(leaf);
        ctrl.crash();
        // Flip high bits of the major counter: far outside any recovery
        // probe window, so this cannot be silently repaired.
        ctrl.domain_mut()
            .device_mut()
            .tamper_flip_bit(node_addr, 60);
        ctrl.domain_mut()
            .device_mut()
            .tamper_flip_bit(node_addr, 61);
        match ctrl.recover() {
            Err(_) => {} // typed RecoveryError at recovery time
            Ok(_) => {
                let err = ctrl.read(victim).expect_err(&format!(
                    "{}: flipped counter block must not serve data",
                    scheme.name()
                ));
                assert!(
                    err.is_detected_corruption(),
                    "{}: expected typed corruption error, got {err}",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn uncorrectable_shadow_table_flip_detected_asit() {
    let cfg = AnubisConfig::small_test();
    let mut ctrl = SgxController::new(SgxScheme::Asit, &cfg);
    let _ = run_script(&mut ctrl);
    ctrl.crash();
    // The shadow tree covers every ST slot, so any flip in the region must
    // break the root check.
    let slot = ctrl.layout().shadow("st").nth(0);
    ctrl.domain_mut().device_mut().tamper_flip_bit(slot, 60);
    ctrl.domain_mut().device_mut().tamper_flip_bit(slot, 61);
    let err = ctrl.recover().expect_err("tampered ST must be detected");
    assert!(
        matches!(err, RecoveryError::ShadowTableTampered),
        "expected ShadowTableTampered, got {err}"
    );
}

#[test]
fn uncorrectable_counter_node_flip_detected_sgx() {
    let cfg = AnubisConfig::small_test();
    for scheme in [SgxScheme::StrictPersist, SgxScheme::Asit] {
        let mut ctrl = SgxController::new(scheme, &cfg);
        let victim = run_script(&mut ctrl);
        let (leaf, _) = ctrl.layout().leaf_of(victim);
        let node_addr = ctrl.layout().node_addr(leaf);
        ctrl.crash();
        // Counters are 7-byte-packed (counter i in bytes 7i..7i+7); bits
        // 160..162 are the *high* bits of counter 2 — outside the LSB
        // window ASIT's shadow entries can splice back, and covered by the
        // node MAC in every scheme. (Low counter bits or the MAC field
        // would be legitimately reconstructed by Algorithm 2.)
        ctrl.domain_mut()
            .device_mut()
            .tamper_flip_bit(node_addr, 160);
        ctrl.domain_mut()
            .device_mut()
            .tamper_flip_bit(node_addr, 161);
        match ctrl.recover() {
            Err(_) => {} // e.g. NodeMacMismatch during ASIT Algorithm 2
            Ok(_) => {
                let err = ctrl.read(victim).expect_err(&format!(
                    "{}: flipped counter node must not serve data",
                    scheme.name()
                ));
                assert!(
                    err.is_detected_corruption(),
                    "{}: expected typed corruption error, got {err}",
                    scheme.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted flips on the data region: SEC-DED repairs one bit, reports two.
// ---------------------------------------------------------------------------

#[test]
fn data_region_flip_corrected_then_detected() {
    let cfg = AnubisConfig::small_test();
    let mut ctrl = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
    let victim = run_script(&mut ctrl);
    let expect = op_payload(1, victim.index());
    let dev = ctrl.layout().data_addr(victim);

    // One flipped ciphertext bit: transparently repaired.
    ctrl.domain_mut().device_mut().tamper_flip_bit(dev, 100);
    assert_eq!(
        ctrl.read(victim).unwrap(),
        expect,
        "single flip must be corrected"
    );
    assert!(ctrl.ecc_corrections() > 0, "correction must be counted");

    // Correction is in-flight only (no scrubbing), so bit 100 is still
    // flipped on the device; a second flip in the same word defeats
    // SEC-DED: typed error.
    ctrl.domain_mut().device_mut().tamper_flip_bit(dev, 101);
    let err = ctrl
        .read(victim)
        .expect_err("double flip must not serve data");
    assert!(
        err.is_detected_corruption(),
        "expected typed corruption error, got {err}"
    );
}

// ---------------------------------------------------------------------------
// Pinned outcomes: every injection point's live results, recovery result
// and post-recovery read-back, folded into one digest per scheme.
// ---------------------------------------------------------------------------

/// Folds `words` into the digest.
fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a64(h, &w.to_le_bytes()))
}

/// Folds one op's result: 0 and the value read for a success, 1 and the
/// error's text for a failure.
fn fold_result<T>(
    h: u64,
    result: &Result<T, impl std::fmt::Display>,
    ok: impl Fn(&T) -> Vec<u64>,
) -> u64 {
    match result {
        Ok(v) => fold(fold(h, &[0]), &ok(v)),
        Err(e) => fnv1a64(fold(h, &[1]), e.to_string().as_bytes()),
    }
}

/// For every counted device write `k` of a dry run and each of a power
/// cut, a 4-word torn write and a single-bit flip armed at `k`: runs the
/// script until an op fails, crashes, recovers, and reads back every
/// line the script touched, in address order. Returns the digest of all
/// of it.
fn outcome_digest<C: MemoryController>(make: impl Fn() -> C) -> u64 {
    let script = script();
    let mut touched: Vec<u64> = script.iter().map(|&(_, addr)| addr).collect();
    touched.sort_unstable();
    touched.dedup();
    let total = count_persist_writes(&make, &script);
    let mut h = FNV1A64_EMPTY;
    for k in 0..total {
        for plan in [
            FaultPlan::power_cut_after(k),
            FaultPlan::torn_write_after(k, 4),
            FaultPlan::bit_flip_after(k, vec![11]),
        ] {
            let mut ctrl = make();
            ctrl.domain_mut().arm_fault(plan);
            for (i, &(is_write, addr)) in script.iter().enumerate() {
                let at = DataAddr::new(addr);
                let failed = if is_write {
                    let r = ctrl.write(at, op_payload(i as u64, addr));
                    h = fold_result(h, &r, |_| Vec::new());
                    r.is_err()
                } else {
                    let r = ctrl.read(at);
                    h = fold_result(h, &r, |b| b.words().to_vec());
                    r.is_err()
                };
                if failed {
                    break;
                }
            }
            ctrl.crash();
            let recovered = ctrl.recover();
            h = fold_result(h, &recovered, |r| {
                vec![
                    r.nvm_reads,
                    r.nvm_writes,
                    r.hash_ops,
                    r.counters_fixed,
                    r.nodes_fixed,
                    r.redo_writes,
                    u64::from(r.reencryption_completed),
                ]
            });
            if recovered.is_ok() {
                for &addr in &touched {
                    let r = ctrl.read(DataAddr::new(addr));
                    h = fold_result(fold(h, &[addr]), &r, |b| b.words().to_vec());
                }
            }
        }
    }
    h
}

#[test]
fn fault_matrix_outcomes_are_pinned() {
    let cfg = AnubisConfig::small_test();
    let bonsai = |scheme| outcome_digest(|| BonsaiController::new(scheme, &cfg));
    let sgx = |scheme| outcome_digest(|| SgxController::new(scheme, &cfg));
    let digests = [
        bonsai(BonsaiScheme::AgitRead),
        bonsai(BonsaiScheme::AgitPlus),
        bonsai(BonsaiScheme::StrictPersist),
        bonsai(BonsaiScheme::Osiris),
        sgx(SgxScheme::Asit),
        sgx(SgxScheme::StrictPersist),
    ];
    // The two AGIT digests were re-taken when recovery began holding each
    // block it rebuilds under an untracked parent to that parent's stored
    // digest: nine metadata blocks damaged at rest (six bit flips, three
    // torn writes), which recovered `Ok` and then read typed errors, are
    // now refused by `recover()` as `EdgeMismatch`.
    assert_eq!(
        digests,
        [
            0xa213_66f0_effe_f182,
            0xbc6c_a8ce_57e6_ad52,
            0x7bd1_4476_3314_a24f,
            0x3152_d24b_b5f1_8ac9,
            0x9964_dc7c_6929_c048,
            0x376e_9e3f_0cb8_5ad0,
        ],
        "fault-matrix digests are now {digests:#018x?}"
    );
}
